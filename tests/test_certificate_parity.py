"""Certificates of one case per path through the engine, frozen.

Each case's ``to_dict()`` (piece kinds, supports, bounds, formulas, details,
params and notes) must equal the frozen copy exactly.  Re-freeze only for a
deliberate output change, and say why in CHANGES.md.  With case names, only
those entries are rewritten and the others stay byte for byte; with none,
every case is:

    PYTHONPATH=src python tests/test_certificate_parity.py [CASE ...]
"""

import json
import sys
from pathlib import Path

import pytest

from oscint import (Polynomial, PowerTransform, certify_1d, certify_2d, monomial,
                    product_phase, xy_phase, xy_quad_phase)

FROZEN = Path(__file__).with_name("data") / "certificates.json"

P_LINEAR = Polynomial((0.0, 1.0))                     # the base case P(t) = t
P_HALF_SQUARE = Polynomial((0.0, 0.0, 0.5))           # P' = t, monic
P_THIRD_CUBE = Polynomial((0.0, 0.0, 0.0, 1.0 / 3.0))  # P' = t^2, monic, P'' = 0 at t = 0
P_SND_ONLY = Polynomial((0.0, 0.0, 0.5, 1.0 / 6.0))   # P' = 0.5 t^2 + t, SND not monic

CASES = {
    "1d_monic_vdc": lambda: certify_1d(monomial(2), P_HALF_SQUARE, 1e4, "vdc"),
    # f = x^3 on [-1, 1] crosses t = 0, where P' = t^2 turns, so the pieces split there
    "1d_monic_vdc_prime_break": lambda: certify_1d(monomial(3, (-1.0, 1.0)), P_THIRD_CUBE,
                                                   1e4, "vdc"),
    "1d_snd_general": lambda: certify_1d(monomial(2), P_SND_ONLY, 2e3, "general",
                                         delta=0.5, A=1.0),
    "1d_power_vdc": lambda: certify_1d(monomial(2), PowerTransform(1.5), 1e4, "vdc"),
    "2d_base_xy": lambda: certify_2d(xy_phase(), P_LINEAR, 300.0),
    "2d_base_rectangle": lambda: certify_2d(
        product_phase(monomial(1, (0.5, 2.0)), monomial(1, (1.0, 1.75))), P_LINEAR, 30.0),
    "2d_composed_xy_quad": lambda: certify_2d(xy_quad_phase(0.1), P_HALF_SQUARE, 200.0),
    "2d_snd_xy": lambda: certify_2d(xy_phase(), P_SND_ONLY, 50.0),
}


def certificate_doc(case: str) -> dict:
    """The case's ``to_dict()`` after a JSON round trip (tuples become lists)."""
    return json.loads(json.dumps(CASES[case]().to_dict(), default=lambda o: o.item()))


@pytest.mark.parametrize("case", list(CASES))
def test_certificate_matches_frozen(case):
    assert certificate_doc(case) == json.loads(FROZEN.read_text())[case]


if __name__ == "__main__":
    FROZEN.parent.mkdir(exist_ok=True)
    names = sys.argv[1:]
    doc = json.loads(FROZEN.read_text()) if names else {}
    doc.update({c: certificate_doc(c) for c in names or CASES})
    FROZEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FROZEN}")
