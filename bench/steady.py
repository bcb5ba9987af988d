"""Steadiness of the end-to-end metrics: repeat runs, print median and quartiles.

    python3 bench/steady.py --workload planar --runs 10 --first-seed 1 --trace 3

Each run is ``run.py`` in its own process with the next seed, for
``run_seconds`` of BENCHMARK.json.  For every
end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
interquartile distance as a share of the median, next to the metric's bound
in BENCHMARK.json.  ``--trace N`` then alternates N untraced and N traced
runs on the first seed: it prints the per-layer figures, whether every count
repeated across the traced runs, and the tracing overhead, the median of the
traced suites' summed wall time minus the median untraced ``wall_s``.
Everything is also written to ``bench/out/steady_<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0, metavar="N",
                    help="pairs of untraced and traced runs for the overhead")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results = []
    for i in range(args.runs):
        t0 = time.monotonic()
        res = one_run(args.workload, args.first_seed + i, seconds, 0)
        results.append(res)
        print(f"seed {args.first_seed + i}: {time.monotonic() - t0:.1f} s correct={res['correct']} "
              f"attempted={res['attempted']} "
              f"failed={res['failed']} " + " ".join(
                  f"{k}={v['value']:.4f}" for k, v in res["metrics"].items()), flush=True)

    out = {"workload": args.workload, "seconds": seconds, "runs": args.runs,
           "first_seed": args.first_seed,
           "failed_share": sorted({r["failed"] / r["attempted"] for r in results}),
           "all_correct": all(r["correct"] for r in results), "metrics": {}}
    print(f"{'metric':14s} {'median':>10s} {'q1':>10s} {'q3':>10s} {'spread':>8s} {'bound':>6s}")
    for name in results[0]["metrics"]:
        s = summary([r["metrics"][name]["value"] for r in results])
        out["metrics"][name] = s
        print(f"{name:14s} {s['median']:10.4f} {s['q1']:10.4f} {s['q3']:10.4f} "
              f"{s['spread']:8.4f} {bounds.get(name, float('nan')):6.2f}")

    if args.trace:
        plain, traced = [], []
        for _ in range(args.trace):
            plain.append(one_run(args.workload, args.first_seed, seconds, 0))
            traced.append(one_run(args.workload, args.first_seed, seconds, 1))
        layers = [{k: v["value"] for k, v in t["metrics"].items()} for t in traced]
        counts = [k for k, v in traced[0]["metrics"].items() if v["unit"] != "s"]
        repeat = all(lay[k] == layers[0][k] for lay in layers for k in counts)
        traced_wall = statistics.median(
            sum(v for k, v in lay.items() if k.startswith("harness.") and k.endswith(".wall_s"))
            for lay in layers)
        plain_wall = statistics.median(r["metrics"]["wall_s"]["value"] for r in plain)
        out.update(layers=layers[-1], counts_repeat=repeat, traced_wall_s=traced_wall,
                   untraced_wall_s=plain_wall, tracing_overhead_s=traced_wall - plain_wall)
        for k, v in layers[-1].items():
            if v:
                print(f"{k:55s} {v:16.4f}")
        print(f"counts repeat across {args.trace} traced runs: {repeat}")
        print(f"tracing overhead: {traced_wall - plain_wall:.2f} s "
              f"(traced {traced_wall:.2f} s, untraced {plain_wall:.2f} s, medians)")

    dest = HERE / "out" / f"steady_{args.workload}.json"
    dest.parent.mkdir(exist_ok=True)
    dest.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
