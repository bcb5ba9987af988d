"""Run one oscint suite in this fresh interpreter and print what it measured.

    python3 child.py SUITE SEED SPAWN_TIME [--trace | --setup-only]

SPAWN_TIME is the parent's ``time.monotonic()`` just before it started this
process; set-up runs from then until oscint is imported and the seeded
config is loaded.  The last line of standard output is one JSON object.
The program comes from ``src/`` of the checkout that holds this file.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main(argv: list[str]) -> int:
    suite, seed, spawned = argv[0], int(argv[1]), float(argv[2])
    mode = argv[3] if len(argv) > 3 else ""

    import workloads
    from oscint import harness
    from oscint.errors import OscintError

    cfg = workloads.seeded_config(suite, seed)
    out = {"setup_s": time.monotonic() - spawned}
    if mode == "--setup-only":
        print(json.dumps(out))
        return 0

    tracer = None
    if mode == "--trace":
        import spans

        tracer = spans.Tracer()
        tracer.install()

    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.monotonic()
    try:
        report = harness.run_suite(cfg)
        verdicts = [{"case": v["case"], "check": v["check"], "passed": bool(v["passed"])}
                    for v in report.verdicts]
        rows = report.rows
        error = None
    except OscintError as exc:
        verdicts, rows, error = [], [], f"{type(exc).__name__}: {exc}"
    t1 = time.monotonic()
    ru1 = resource.getrusage(resource.RUSAGE_SELF)

    from oscint import sublevel

    out.update(
        wall_s=t1 - t0,
        cpu_s=(ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        peak_rss_mb=ru1.ru_maxrss / 1024.0,
        error=error,
        verdicts=verdicts,
        rows=rows,
        c_delta=[[c.delta, c.C_delta] for c in sublevel._constant_cache.values()],
    )
    if tracer is not None:
        import spans

        out["layers"] = spans.layer_metrics(tracer.spans, suite)
    if suite == "T6" and error is None:
        out["t6_sample"] = t6_figures(cfg.options, seed)
    print(json.dumps(out))
    return 0


def t6_figures(opt: dict, seed: int) -> list[dict]:
    """oscint's roots and cover violations for the sampled T6 monic trials,
    computed after the timed (and traced) suite run."""
    import closed_forms
    import workloads
    from oscint.polynomials import Polynomial, cover_violations, roots

    out = []
    for t in workloads.t6_sample(seed, int(opt.get("monic_trials", 1000))):
        coeffs, eps = closed_forms.monic_draw(workloads.config_seed(seed), t,
                                              int(opt.get("monic_max_degree", 6)))
        P = Polynomial(tuple(coeffs))
        out.append({
            "trial": t,
            "roots": [[z.real, z.imag] for z in roots(P).roots],
            "violations": len(cover_violations(P, 1.0, eps,
                                               n_grid=int(opt.get("n_grid", 10_000)))),
        })
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
