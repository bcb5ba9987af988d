import numpy as np
import pytest

from oscint import QuadConfig, monomial, osc_integrate_1d, osc_integrate_2d, product_phase
from oscint.reduction import monomial_profile, product_monomial_integral

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
