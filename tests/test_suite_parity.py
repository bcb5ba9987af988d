"""Rows and verdicts of small runs of every suite, frozen.

The frozen file pins which rows and verdicts each runner emits, in order:
case, check, `passed`, row verdicts and witness keys must match exactly,
numbers to 1e-12 relative. Re-freeze only for a deliberate output change,
and say why in CHANGES.md. With suite names, only those entries are
rewritten and the others stay byte for byte; with none, every suite is:

    PYTHONPATH=src python tests/test_suite_parity.py [SUITE ...]
"""

import json
import math
import sys
from pathlib import Path

import pytest

from oscint.harness import ExperimentConfig, run_suite
from oscint.quadrature import QuadConfig
from test_harness_cli import CERT_GRID, SMALL_T1, SMALL_T6, SOUND_GRID

FROZEN = Path(__file__).with_name("data") / "suite_parity.json"
REL = 1e-12

_QUAD = {"rel_tol": 1e-9, "max_panels": 4194304, "phase_variation_cap": 2.8}

SMALL = {
    "T1": SMALL_T1,
    "T2": {
        "baselines": [2, 3],
        "baseline_grid": SOUND_GRID, "lambda_sound": SOUND_GRID, "cert_sweep": CERT_GRID,
        "cases": [
            {"name": "x1_monic_d2_N1", "f": {"family": "monomial", "n": 1}, "N": 1,
             "poly": [0.0, 0.0, 0.5]},
            {"name": "x2_monic_d2_N2", "f": {"family": "monomial", "n": 2}, "N": 2,
             "poly": [0.0, 0.0, 0.5]},
        ],
    },
    "T3": {
        "lambda_sound": {"lo": 10.0, "hi": 1000.0, "per_decade": 4}, "cert_sweep": CERT_GRID,
        "cases": [
            {"name": "xy_base", "f2": {"family": "xy"}, "poly": [0.0, 1.0],
             "hi_rows": [1e4]},
            {"name": "xyq_d2", "f2": {"family": "xy_quad", "c": 0.1},
             "poly": [0.0, 0.0, 0.5]},
        ],
    },
    "T4": {
        "cases": [
            {"name": "x2_y1", "k": 2, "j": 1,
             "lambda_grid": {"lo": 100.0, "hi": 1e4, "per_decade": 4},
             "cross_check": [100.0], "fit_tol": 0.04},
        ],
    },
    "T7": {
        "lambda_sound": SOUND_GRID, "cert_sweep": CERT_GRID,
        "cases": [
            {"name": "x2_abs_t_1p5", "f": {"family": "monomial", "n": 2}, "N": 2,
             "exponent": 1.5, "fit_tol": 0.05},
        ],
    },
    "H-LOG": {
        "eps_grid": {"lo": 1e-3, "hi": 0.1, "per_decade": 4},
        "lambda_grid": {"lo": 1e3, "hi": 1e5, "per_decade": 4},
        "cross_check": [100.0],
    },
    "T5": {
        "lambda_grid": {"lo": 100.0, "hi": 1e6, "per_decade": 2},
        "c_range": [0.01, 1.0], "eps_range": [0.01, 1.0], "n_c": 6, "n_eps": 6,
        "cases": [
            {"name": "x2", "f": {"family": "monomial", "n": 2}, "delta": 0.5},
            {"name": "x3", "f": {"family": "monomial", "n": 3}, "delta": 1.0 / 3.0},
        ],
    },
    "T6": SMALL_T6,
}


def small_report(suite):
    """The rows and verdicts of the suite's small run, and its integrals
    that stopped over tolerance."""
    cfg = ExperimentConfig(suite=suite, seed=20260809, quad=QuadConfig(**_QUAD),
                           options=SMALL[suite])
    rep = run_suite(cfg)
    return {"rows": rep.rows, "verdicts": rep.verdicts}, rep.unconverged


def assert_matches(got, want, where):
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for k in want:
            assert_matches(got[k], want[k], f"{where}.{k}")
    elif isinstance(want, list):
        assert isinstance(got, (list, tuple)) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{where}[{i}]")
    elif isinstance(want, (bool, str)) or want is None:
        assert got == want and type(got) is type(want), f"{where}: {got!r} != {want!r}"
    else:
        assert not isinstance(got, (bool, str)) and got is not None, where
        assert math.isclose(got, want, rel_tol=REL, abs_tol=0.0), f"{where}: {got!r} != {want!r}"


@pytest.mark.parametrize("suite", list(SMALL))
def test_small_suite_matches_frozen(suite):
    frozen = json.loads(FROZEN.read_text())[suite]
    report, unconverged = small_report(suite)
    got = json.loads(json.dumps(report, default=lambda o: o.item()))
    assert_matches(got, frozen, suite)
    assert unconverged == []


if __name__ == "__main__":
    FROZEN.parent.mkdir(exist_ok=True)
    names = sys.argv[1:]
    doc = json.loads(FROZEN.read_text()) if names else {}
    doc.update({s: small_report(s)[0] for s in names or SMALL})
    FROZEN.write_text(json.dumps(doc, indent=1, sort_keys=True, default=lambda o: o.item()) + "\n")
    print(f"wrote {FROZEN}")
