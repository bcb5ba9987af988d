"""Cover ratios and cover violations of degree 3 and up, frozen bit for bit.

The suite parity entry for T6 only reaches degree 2 through ``estimate_B``.
This file pins the companion-matrix path: ``estimate_B`` ratios for degrees
3 to 6, ``cover_ratio`` on the degenerating family, and ``cover_violations``
at a radius small enough that most draws have some.  Every float is stored
with ``float.hex`` and compared with ``==``.  Re-freeze only for a deliberate
output change, and say why in CHANGES.md:

    PYTHONPATH=src python tests/test_cover_parity.py
"""

import json
from pathlib import Path

import numpy as np

from oscint.polynomials import (Polynomial, cover_ratio, cover_violations, degenerating_family,
                                estimate_B)

FROZEN = Path(__file__).with_name("data") / "covers.json"
ETAS = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)
RADIUS = 0.5
DRAWS = 200


def monic_draw(t: int) -> tuple[Polynomial, float]:
    """A seeded monic polynomial of degree 1 to 6 and an eps in (0, 1)."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(11, t)))
    d = int(rng.integers(1, 7))
    coeffs = rng.uniform(-1.0, 1.0, size=d + 1)
    coeffs[-1] = 1.0
    return Polynomial(tuple(coeffs)), float(rng.uniform(0.0, 1.0)) or 0.5


def violations(t: int) -> list[dict]:
    P, eps = monic_draw(t)
    return [{key: v.hex() for key, v in bad.items()} for bad in cover_violations(P, RADIUS, eps)]


def compute() -> dict:
    return {
        "estimate_B": {str(d): [r.hex() for r in estimate_B(d, trials=100, seed=7).ratios]
                       for d in range(3, 7)},
        "degenerating": {str(k): [cover_ratio(degenerating_family(k, eta)).hex() for eta in ETAS]
                         for k in (2, 3)},
        "violations": [violations(t) for t in range(DRAWS)],
    }


def test_covers_match_frozen_bits():
    frozen = json.loads(FROZEN.read_text())
    now = compute()
    assert sum(map(bool, frozen["violations"])) > DRAWS // 4
    for key in ("estimate_B", "degenerating", "violations"):
        assert now[key] == frozen[key], key


if __name__ == "__main__":
    FROZEN.write_text(json.dumps(compute(), indent=1) + "\n")
