"""Workload definitions, seeded suite configs and operation counts.

A workload is a group of oscint suites run one after another, each in a
fresh interpreter, under fixed thread settings.  The suite configs are the
thinned copies in ``configs/``; ``seeded_options`` turns one of them into
the inputs of one run.  ``seeded_config`` loads a config with oscint's own
loader (from ``src/`` on ``sys.path``), so the parent process counts the
operations of exactly the options the suite process runs.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

CONFIG_DIR = Path(__file__).resolve().parent / "configs"

SUITE_IDS = ("T1", "T2", "T3", "T4", "T5", "T6", "T7", "H-LOG")

# Variables that choose thread counts; each workload sets its own values and
# drops the rest, so the caller's environment cannot change the measurement.
THREAD_VARS = ("OSCINT_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# "cpus" is "all" (every CPU the run may use) or "one" (the first of them);
# a serial workload runs on one CPU so that the host-speed samples of run.py
# come from the CPU its suites run on.
WORKLOADS = {
    # 1D panel quadrature up to lambda = 1e6 and cold C_delta; the harness
    # pool runs at its default size, BLAS is pinned so the process stays
    # within nproc threads.
    "compose1d": {
        "suites": ("T1", "T2", "T7"),
        "cpus": "all",
        "env": {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"},
    },
    # planar quadrature, certify_2d, band areas and the profile reduction,
    # serial with BLAS at its default (one thread on one CPU)
    "planar": {
        "suites": ("T3", "T4", "H-LOG"),
        "cpus": "one",
        "env": {"OSCINT_THREADS": "1"},
    },
    # roots, cover ratios and estimate_B only
    "covers": {
        "suites": ("T6",),
        "cpus": "one",
        "env": {"OSCINT_THREADS": "1"},
    },
}

# Option keys holding geometric lambda / eps grids {lo, hi, per_decade}.
GRID_KEYS = ("lambda_sound", "cert_sweep", "baseline_grid", "lambda_grid", "eps_grid")

# A grid moves down by u * SHIFT_STEPS grid steps, u uniform in [0, 1).  The
# shift changes every lambda and eps a run sees while moving the work of a
# grid (which grows with its top lambda) by at most ~1.5%.
SHIFT_STEPS = 1.0 / 32.0

T6_ORACLE_SAMPLE = 16


def config_path(suite: str) -> Path:
    return CONFIG_DIR / (suite.replace("-", "_").lower() + ".json")


def config_seed(seed: int) -> int:
    """The suite config seed (it draws the T6 polynomials)."""
    return int(seed) % (1 << 32)


def seeded_options(suite: str, options: dict, seed: int) -> dict:
    """Copy of ``options`` with every lambda / eps grid shifted down by a
    seeded fraction of one grid step, so no grid passes its upper end."""
    rng = np.random.default_rng([config_seed(seed), SUITE_IDS.index(suite)])

    def walk(node, key=None):
        if isinstance(node, dict):
            if key in GRID_KEYS and {"lo", "hi", "per_decade"} <= node.keys():
                factor = 10.0 ** (-rng.random() * SHIFT_STEPS / float(node["per_decade"]))
                return dict(node, lo=float(node["lo"]) * factor, hi=float(node["hi"]) * factor)
            return {k: walk(node[k], k) for k in sorted(node)}
        if isinstance(node, list):
            return [walk(v) for v in node]
        return node

    return walk(options)


def seeded_config(suite: str, seed: int):
    """The oscint config of one run of ``suite``: the benchmark copy, loaded
    by oscint's loader, with the config seed set and the grids shifted."""
    from oscint import harness

    cfg = harness.load_config(suite, str(config_path(suite)))
    cfg.seed = config_seed(seed)
    cfg.options = seeded_options(suite, cfg.options, seed)
    return cfg


def t6_sample(seed: int, trials: int) -> list[int]:
    """The T6 monic trials the oracle re-checks."""
    rng = np.random.default_rng([config_seed(seed), 6])
    size = min(T6_ORACLE_SAMPLE, trials)
    return sorted(int(t) for t in rng.choice(trials, size=size, replace=False))


def grid_size(spec: dict) -> int:
    """Point count of oscint's geometric grid for a {lo, hi, per_decade} spec."""
    lo, hi = float(spec["lo"]), float(spec["hi"])
    return max(int(round(int(spec["per_decade"]) * math.log10(hi / lo))) + 1, 2)


def verdicts_baselines(opt: dict) -> int:
    return len(opt.get("baselines", (2, 3, 4)))


def is_xy_base(case: dict) -> bool:
    """T3 case whose integrated phase is x*y itself."""
    return case["f2"].get("family") == "xy" and [float(c) for c in case["poly"]] == [0.0, 1.0]


def expected_ops(suite: str, opt: dict) -> tuple[int, int]:
    """(suite verdicts, oracle comparisons) a run of ``suite`` owes."""
    if suite == "T1":
        lam = grid_size(opt["lambda_sound"])
        window = opt.get("bounded_window", (1e4, 1e6))
        spec = opt["lambda_sound"]
        pts = np.geomspace(float(spec["lo"]), float(spec["hi"]), lam)
        bounded = bool(np.any((pts >= window[0]) & (pts <= window[1])))
        deltas = {round(float(c["delta"]), 12) for c in opt["cases"]}
        return len(opt["cases"]) * (3 + bounded), len(deltas)
    if suite == "T2":
        verdicts = verdicts_baselines(opt)
        verdicts += sum(2 + (int(c["N"]) == 1) for c in opt["cases"])
        return verdicts, verdicts_baselines(opt) * grid_size(opt["baseline_grid"])
    if suite == "T3":
        oracles = sum(grid_size(opt["lambda_sound"]) + len(c.get("hi_rows", ()))
                      for c in opt["cases"] if is_xy_base(c))
        return 3 * len(opt["cases"]), oracles
    if suite == "T4":
        return 2 * len(opt["cases"]), 0
    if suite == "T6":
        etas = [float(e) for e in opt.get("etas", (1e-1, 1e-2, 1e-3, 1e-4, 1e-5))]
        verdicts = 3 + len(opt.get("snd_degrees", (2, 3, 4, 5)))
        verdicts += min(etas) <= float(opt.get("exceed_at_eta", 1e-5))
        # two comparisons per sampled trial: its roots and its cover
        return verdicts, 2 * min(T6_ORACLE_SAMPLE, int(opt.get("monic_trials", 1000)))
    if suite == "T7":
        return sum(3 + (int(c["N"]) == 1) for c in opt["cases"]), 0
    if suite == "H-LOG":
        oracles = grid_size(opt["eps_grid"]) + grid_size(opt["lambda_grid"])
        oracles += len(opt.get("cross_check", (1e2, 1e3)))
        return 3, oracles
    raise ValueError(f"unknown suite {suite!r}")
