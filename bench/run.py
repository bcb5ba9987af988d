"""oscint benchmark: run one workload and print its metrics as JSON.

    python3 bench/run.py --workload compose1d --seed 1 --seconds 15 --trace 0

A run repeats whole rounds.  A round runs each suite of the workload in a
fresh interpreter (``child.py``) and then checks every output: each suite
verdict must pass, and each value that has an independent reference
(``closed_forms.py``) must agree with it.  Rounds continue while another
round of the longest length seen so far still fits in ``--seconds``; there
is always at least one.

With ``--trace 0`` the last line reports the end-to-end metrics (medians over
rounds; set-up is the median over several starts per suite); with
``--trace 1`` the suites run traced and it reports the per-layer metrics.
Times are in seconds at a reference host speed: each suite process's times
are scaled by the speed of its CPUs, sampled while it runs (see "Host
speed" below).  A round in which a suite fails is not measured, and any
failed operation makes the run incorrect; a run in which no round completed
prints no result and exits with code 1.  The program is imported from
``src/`` of the checkout holding this file.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import closed_forms  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_STARTS = 3       # set-up samples per suite per run, suite runs included
DEADLINE_S = 170.0     # a run ends within 180 s; suites still owed by then fail

# Host speed.  On a shared host a CPU's speed drifts by up to 2x, in phases
# from seconds to minutes, and pure-Python and numpy work slow by similar
# factors.  While a suite
# process runs, this process samples the speed of the CPUs it runs on every
# SAMPLE_EVERY_S, from the CPU time of a short fixed pure-Python loop (CPU
# time, so a sample is not stretched when it shares its CPU with the suite),
# and the suite's times are scaled by the mean speed, to seconds at the
# reference speed.  The samples take about 1% of one CPU.
SAMPLE_EVERY_S = 0.5
CAL_LOOP = 50_000      # iterations of one sample
CAL_REF_S = 0.0055     # CPU time of one sample at the reference speed


def cpu_speed() -> float:
    """Speed of the CPU this thread runs on, as a share of the reference
    speed (0.5: half as fast)."""
    t = time.thread_time()
    acc = 0
    for i in range(CAL_LOOP):
        acc += i * i
    return CAL_REF_S / (time.thread_time() - t)


def scale_times(res: dict, speed: float) -> dict:
    """``res`` with its times in seconds at the reference speed."""
    for key in ("setup_s", "wall_s", "cpu_s"):
        if key in res:
            res[key] *= speed
    if "layers" in res:
        res["layers"] = {k: v * speed if k.endswith("_s") else v
                         for k, v in res["layers"].items()}
    return res


class SuiteFailed(Exception):
    """A suite process ended without printing its result."""


def child_env(workload: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in workloads.THREAD_VARS}
    env.update(workloads.WORKLOADS[workload]["env"])
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def workload_cpus(workload: str) -> set[int]:
    """The CPUs a workload runs on: all this process may use, or the first."""
    allowed = os.sched_getaffinity(0)
    return allowed if workloads.WORKLOADS[workload]["cpus"] == "all" else {min(allowed)}


def run_child(suite: str, seed: int, env: dict, deadline: float, cpus: set[int],
              mode: str = "") -> tuple[dict, float]:
    """Run ``child.py`` on ``cpus``; return what it printed and the mean
    speed of ``cpus`` while it ran, sampled on each CPU in turn."""
    cmd = [sys.executable, str(HERE / "child.py"), suite, str(seed)]
    spawned = time.monotonic()
    if spawned >= deadline:
        raise SuiteFailed(f"{suite} not started: the run is out of time")
    os.sched_setaffinity(0, cpus)  # the suite process inherits it
    proc = subprocess.Popen(cmd + [repr(spawned)] + ([mode] if mode else []), env=env,
                            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    order = sorted(cpus)
    speeds = []
    try:
        while True:
            os.sched_setaffinity(0, {order[len(speeds) % len(order)]})
            speeds.append(cpu_speed())
            try:
                stdout, stderr = proc.communicate(
                    timeout=max(min(SAMPLE_EVERY_S, deadline - time.monotonic()), 0.0))
                break
            except subprocess.TimeoutExpired:
                if time.monotonic() >= deadline:
                    raise SuiteFailed(f"{suite} stopped: the run is out of time") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SuiteFailed(f"{suite} exited {proc.returncode}: {stderr.strip()[-2000:]}")
    return json.loads(lines[-1]), statistics.fmean(speeds)


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


class Checker:
    """Counts operations and checks suite results; caches reference values."""

    def __init__(self, seed: int):
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self._refs: dict = {}

    def options(self, suite: str) -> dict:
        return self.ref(("options", suite),
                        lambda: workloads.seeded_config(suite, self.seed).options)

    def ref(self, key, compute):
        if key not in self._refs:
            self._refs[key] = compute()
        return self._refs[key]

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.wrong.append(what)

    def suite(self, suite: str, result: dict | None) -> None:
        opt = self.options(suite)
        n_verdicts, n_oracles = workloads.expected_ops(suite, opt)
        self.attempted += n_verdicts + n_oracles
        if result is None or result["error"] is not None:
            self.failed += n_verdicts + n_oracles
            return
        verdicts = result["verdicts"]
        self.expect(len(verdicts) == n_verdicts,
                    f"{suite}: {len(verdicts)} verdicts, expected {n_verdicts}")
        for v in verdicts:
            self.expect(v["passed"], f"{suite} {v['case']}: {v['check']} failed")
        done = getattr(self, "_check_" + suite.replace("-", "_"), lambda r, o: 0)(result, opt)
        self.expect(done == n_oracles, f"{suite}: {done} oracle checks, expected {n_oracles}")

    # each returns the number of comparisons it made

    def _within(self, what: str, value: complex, ref: complex, tol: float) -> int:
        err = abs(value - ref)
        self.expect(err <= tol, f"{what}: |error| {err:.3e} > {tol:.3e}")
        return 1

    def _rows_with(self, rows, case: str, key: str):
        return [r for r in rows if r["case"] == case and r.get(key, "") != ""]

    def _check_T1(self, result, opt) -> int:
        for delta, value in result["c_delta"]:
            ref = self.ref(("c_delta", delta), lambda: closed_forms.c_delta(delta))
            self._within(f"T1 C_delta({delta:.6g})", value, ref,
                         closed_forms.C_DELTA_REL_TOL * abs(ref))
        return len(result["c_delta"])

    def _check_T2(self, result, opt) -> int:
        done = 0
        for n in opt.get("baselines", (2, 3, 4)):
            for r in self._rows_with(result["rows"], f"baseline_N{n}", "lambda"):
                lam = r["lambda"]
                ref = self.ref(("mono", n, lam),
                               lambda: closed_forms.monomial_integral(int(n), lam))
                done += self._within(f"T2 x^{n} at lambda={lam:.6g}",
                                     complex(r["value_re"], r["value_im"]), ref, r["err_est"])
        return done

    def _xy_rows(self, suite: str, rows, case: str, tol_if_missing: float) -> int:
        done = 0
        for r in self._rows_with(rows, case, "lambda"):
            lam = r["lambda"]
            ref = self.ref(("xy", lam), lambda: closed_forms.xy_square_integral(lam))
            tol = r["err_est"] if r.get("err_est", "") != "" else tol_if_missing
            done += self._within(f"{suite} xy at lambda={lam:.6g}",
                                 complex(r["value_re"], r["value_im"]), ref, tol)
        return done

    def _check_T3(self, result, opt) -> int:
        return sum(self._xy_rows("T3", result["rows"], c["name"], closed_forms.XY_ABS_TOL)
                   for c in opt["cases"] if workloads.is_xy_base(c))

    def _check_H_LOG(self, result, opt) -> int:
        done = self._xy_rows("H-LOG", result["rows"], "xy_decay", closed_forms.XY_ABS_TOL)
        for r in self._rows_with(result["rows"], "xy_sublevel", "eps"):
            ref = closed_forms.xy_band_area(r["eps"])
            done += self._within(f"H-LOG band area at eps={r['eps']:.6g}", r["magnitude"], ref,
                                 closed_forms.BAND_REL_TOL * ref)
        return done

    def _check_T6(self, result, opt) -> int:
        """oscint's roots of each sampled monic trial against companion
        eigenvalues, and its cover violations against the dense-grid check."""
        seed = workloads.config_seed(self.seed)
        max_degree = int(opt.get("monic_max_degree", 6))
        done = 0
        for fig in result["t6_sample"]:
            t = fig["trial"]
            coeffs, eps = closed_forms.monic_draw(seed, t, max_degree)
            err = closed_forms.root_match_error([complex(*z) for z in fig["roots"]], coeffs)
            self.expect(err <= closed_forms.ROOT_REL_TOL,
                        f"T6 monic trial {t}: roots off the companion eigenvalues by {err:.3e}")
            holds = self.ref(("monic", t),
                             lambda: closed_forms.monic_inclusion_holds(coeffs, eps))
            self.expect((fig["violations"] == 0) == holds,
                        f"T6 monic trial {t}: {fig['violations']} cover violations, "
                        f"dense-grid inclusion {'holds' if holds else 'fails'}")
            done += 2
        return done


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict | None:
    suites = workloads.WORKLOADS[workload]["suites"]
    env = child_env(workload)
    checker = Checker(seed)
    rounds: list[dict] = []
    setups: dict[str, list[float]] = {s: [] for s in suites}
    start = time.monotonic()
    deadline = start + DEADLINE_S
    cpus = workload_cpus(workload)

    def child(suite: str, mode: str) -> dict:
        res, speed = run_child(suite, seed, env, deadline, cpus, mode)
        print(f"{workload} {suite}{' ' + mode if mode else ''}: host speed {speed:.3f}, "
              f"raw wall {res.get('wall_s', 0.0):.3f} s", file=sys.stderr)
        return scale_times(res, speed)

    longest = 0.0
    while not rounds or time.monotonic() - start + longest <= seconds:
        t0 = time.monotonic()
        results = {}
        for suite in suites:
            try:
                results[suite] = child(suite, "--trace" if trace else "")
            except SuiteFailed as exc:
                print(f"{workload}: {exc}", file=sys.stderr)
                results[suite] = None
            checker.suite(suite, results[suite])
            if results[suite] is not None:
                setups[suite].append(results[suite]["setup_s"])
        rounds.append(results)
        longest = max(longest, time.monotonic() - t0)

    for suite in suites:
        while len(setups[suite]) < SETUP_STARTS:
            try:
                setups[suite].append(child(suite, "--setup-only")["setup_s"])
            except SuiteFailed as exc:
                print(f"{workload}: {exc}", file=sys.stderr)
                break

    for what in checker.wrong:
        print(f"{workload}: {what}", file=sys.stderr)
    done = [r for r in rounds if all(v is not None and v["error"] is None for v in r.values())]
    if not done:
        return None
    if trace:
        metrics = layer_metrics(done)
    else:
        metrics = {
            "wall_s": (median_of(done, "wall_s", sum), "s"),
            "cpu_s": (median_of(done, "cpu_s", sum), "s"),
            "setup_s": (sum(statistics.median(setups[s]) for s in suites), "s"),
            "peak_rss_mb": (median_of(done, "peak_rss_mb", max), "MB"),
        }
    return {
        "correct": not checker.wrong and checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def median_of(rounds, key: str, combine) -> float:
    return statistics.median(combine(res[key] for res in r.values()) for r in rounds)


def layer_metrics(rounds) -> dict:
    """Per-layer figures summed over a round's suites, median over rounds."""
    names = spans.metric_names()
    per_round = [spans.combine([res["layers"] for res in r.values()]) for r in rounds]
    return {n: (statistics.median(t[n] for t in per_round), spans.metric_unit(n))
            for n in names}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # leave through the finally clauses, which stop a running suite process
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (ROOT / "src" / "oscint" / "__init__.py").is_file():
        print(f"oscint sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    if result is None:
        print(f"{args.workload}: no round completed", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
