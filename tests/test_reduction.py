import mpmath as mp
import numpy as np
import pytest

from oscint import QuadConfig, monomial, osc_integrate_1d, osc_integrate_2d, product_phase
from oscint.reduction import DIRECT_SWITCH, _reduce, monomial_profile, product_monomial_integral

from oracles import monomial_profile_gamma, xy_square_integral


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("w", [0.5, 5.0, 11.9, 12.1, 30.0, 47.9, 48.1, 500.0, -700.0])
def test_profile_matches_integrator(k, w):
    a = monomial_profile(k, w)
    q = osc_integrate_1d(monomial(k, (0.0, 1.0)), float(w))
    assert abs(a - q.value) / abs(q.value) < 1e-10


@pytest.mark.parametrize("w", [3.0, 25.0, 200.0, 5e4])
def test_profile_matches_gamma_oracle(w):
    a = monomial_profile(3, w)
    oracle = monomial_profile_gamma(3, w)
    assert abs(a - oracle) / abs(oracle) < 1e-9


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_profile_at_small_w_matches_mpmath(k):
    # A_k(w) = 1F1(1/k; 1 + 1/k; i w); the fixed Gauss rule holds 1e-15 here
    ws = np.linspace(-12.0, 12.0, 97)
    with mp.workdps(30):
        ref = np.array([complex(mp.hyp1f1(mp.mpf(1) / k, 1 + mp.mpf(1) / k, 1j * mp.mpf(w)))
                        for w in ws])
    assert np.max(np.abs(monomial_profile(k, ws) - ref) / np.abs(ref)) < 1e-14


def test_profile_vectorized():
    ws = np.array([-100.0, 0.0, 1.0, 20.0, 1e4])
    vals = monomial_profile(2, ws)
    assert vals.shape == ws.shape
    assert vals[1] == pytest.approx(1.0)
    for w, v in zip(ws, vals):
        if w != 0.0:
            q = osc_integrate_1d(monomial(2, (0.0, 1.0)), float(w))
            assert abs(v - q.value) < 1e-9


@pytest.mark.parametrize("lam", [10.0, 1e3, 1e5, 1e6])
def test_xy_reduction_vs_closed_form(lam):
    val = product_monomial_integral(1, 1, lam)
    oracle = xy_square_integral(lam)
    assert abs(val - oracle) / abs(oracle) < 1e-12


@pytest.mark.parametrize("lam", [100.0, 1000.0])
def test_product_reduction_vs_planar_integrator(lam):
    f2 = product_phase(monomial(3, (0.0, 1.0)), monomial(2, (0.0, 1.0)))
    cfg = QuadConfig(rel_tol=1e-9, max_panels=1 << 22, phase_variation_cap=2.8)
    quad = osc_integrate_2d(f2, lam, cfg=cfg)
    red = product_monomial_integral(3, 2, lam)
    assert abs(red - quad.value) / abs(quad.value) < 1e-7


def test_reduction_with_coefficient():
    # e^{i lam (xy)^2 / 2} is the product x^2 y^2 with coefficient 1/2
    lam = 500.0
    red = product_monomial_integral(2, 2, lam, coeff=0.5)
    red2 = product_monomial_integral(2, 2, 0.5 * lam, coeff=1.0)
    assert red == pytest.approx(red2)


def test_reduction_lambda_zero():
    assert product_monomial_integral(3, 2, 0.0) == pytest.approx(1.0)


@pytest.mark.parametrize("lam", [1e7, 3e7, 1e8])
def test_xy_reduction_vs_closed_form_to_1e8(lam):
    val = product_monomial_integral(1, 1, lam)
    oracle = xy_square_integral(lam)
    assert abs(val - oracle) / abs(oracle) < 1e-12


@pytest.mark.parametrize("k, j, coeff", [(1, 1, 1.0), (3, 2, 1.0), (2, 2, 0.5)])
def test_reduction_work_does_not_grow_with_lambda(k, j, coeff):
    # panels cover [0, y0], where lam y^j swings DIRECT_SWITCH at any lambda;
    # the Levin range ln(lam / DIRECT_SWITCH) / j in u = ln y grows only
    # logarithmically, and each doubling of it may take one more piece
    panels, pieces = zip(*(_reduce(k, j, lam * coeff)[1:] for lam in (1e4, 1e8, 1e12)))
    assert panels[1] <= panels[0] and panels[2] <= panels[0]
    assert max(pieces) <= 4


@pytest.mark.parametrize("k, j", [(1, 1), (3, 2), (2, 2)])
@pytest.mark.parametrize("lam", [30.0, 1e3, 1e6])
def test_negative_lambda_or_coefficient_gives_the_conjugate(k, j, lam):
    val = product_monomial_integral(k, j, lam, 0.5)
    assert product_monomial_integral(k, j, -lam, 0.5) == val.conjugate()
    assert product_monomial_integral(k, j, lam, -0.5) == val.conjugate()


@pytest.mark.parametrize("lam", [1.0, 20.0, DIRECT_SWITCH])
def test_small_lambda_stays_on_the_panel_path(lam):
    val, panels, pieces = _reduce(3, 2, lam)
    assert pieces == 0 and panels > 0
    assert val == product_monomial_integral(3, 2, lam)
    f2 = product_phase(monomial(3, (0.0, 1.0)), monomial(2, (0.0, 1.0)))
    quad = osc_integrate_2d(f2, lam, cfg=QuadConfig(rel_tol=1e-12))
    assert abs(val - quad.value) <= 1e-12


@pytest.mark.parametrize("lam", [47.0, DIRECT_SWITCH, 49.0, 60.0, 88.0, 89.0, 100.0, 300.0])
def test_xy_reduction_across_the_split(lam):
    # below DIRECT_SWITCH no split; up to DIRECT_SWITCH + LEVIN_SWING the tail
    # is on panels; above it the tail goes to Levin pieces
    val = product_monomial_integral(1, 1, lam)
    oracle = xy_square_integral(lam)
    assert abs(val - oracle) / abs(oracle) < 1e-13


# x^3 y^2 by the O(lambda)-panel reduction that preceded the split at y0
X3_Y2_PANEL_VALUES = {
    1e4: 0.09515305914895454 + 0.049639515079030715j,
    1e5: 0.04602017857017421 + 0.024894663259985603j,
    1e6: 0.021946974124868093 + 0.01214137853628157j,
}


@pytest.mark.parametrize("lam", sorted(X3_Y2_PANEL_VALUES))
def test_x3_y2_matches_the_panel_reduction(lam):
    ref = X3_Y2_PANEL_VALUES[lam]
    assert abs(product_monomial_integral(3, 2, lam) - ref) / abs(ref) < 1e-13
