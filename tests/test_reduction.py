import mpmath as mp
import numpy as np
import pytest

from oscint import (
    Phase2D,
    PlanarDomain,
    PreconditionError,
    QuadConfig,
    monomial,
    osc_integrate_1d,
    osc_integrate_2d,
    product_phase,
    unit_square,
    xy_phase,
    xy_quad_phase,
)
from oscint import quadrature
from oscint.phases import compose2d_with_polynomial
from oscint.reduction import (
    _DIRECT_RULE,
    DIRECT_SWITCH,
    PROFILE_ERR,
    _reduce,
    monomial_profile,
    product_monomial_integral,
)

from oracles import (
    composed_xy_square_integral,
    monomial_profile_gamma,
    product_monomial_square_integral,
    xy_square_integral,
)


def term(k, j, c=1.0):
    """The phase c x^k y^j on the unit square."""
    C = np.zeros((k + 1, j + 1))
    C[k, j] = c
    return Phase2D(C, unit_square())


def reduction(k, j, lam, c=1.0):
    return product_monomial_integral(term(k, j, c), lam).value


X3_Y2 = term(3, 2)


@pytest.fixture
def levin_pieces(monkeypatch):
    """The accepted Levin pieces of each ``quadrature._levin_halving`` call
    made while the test runs, one count per call."""
    counts, halving = [], quadrature._levin_halving

    def counted(*args, **kwargs):
        out = halving(*args, **kwargs)
        counts.append(int(out[3].sum()))
        return out

    monkeypatch.setattr(quadrature, "_levin_halving", counted)
    return counts


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


def hyp1f1_profile(m, ws):
    """int_0^1 e^{i w t^m} dt = 1F1(1/m; 1 + 1/m; i w) by mpmath at 30 digits."""
    with mp.workdps(30):
        return np.array([complex(mp.hyp1f1(mp.mpf(1) / m, 1 + mp.mpf(1) / m, 1j * mp.mpf(w)))
                         for w in ws])


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_profile_at_small_w_matches_mpmath(k):
    # the fixed Gauss rule holds 1e-14 relative and 1e-15 absolute over
    # every |w| <= DIRECT_SWITCH it serves
    ws = np.linspace(-DIRECT_SWITCH, DIRECT_SWITCH, 385)
    ref = hyp1f1_profile(k, ws)
    err = np.abs(monomial_profile(k, ws) - ref)
    assert np.max(err / np.abs(ref)) < 1e-14
    assert np.max(err) <= 1e-15


@pytest.mark.parametrize("m", range(1, 25))
def test_direct_rule_is_within_profile_err_on_every_exponent(m):
    # the reduction's head runs the rule on e^{i c t^m} along both axes,
    # m = k in x and m = j in s, for |c| <= DIRECT_SWITCH
    pts, wts = _DIRECT_RULE
    cs = np.linspace(-DIRECT_SWITCH, DIRECT_SWITCH, 385)
    got = (np.exp(1j * cs[:, None] * pts[None, :] ** m) * wts).sum(axis=1)
    assert np.max(np.abs(got - hyp1f1_profile(m, cs))) <= PROFILE_ERR


def test_profile_vectorized():
    ws = np.array([-100.0, 0.0, 1.0, 20.0, 1e4])
    vals = monomial_profile(2, ws)
    assert vals.shape == ws.shape
    assert vals[1] == pytest.approx(1.0)
    for w, v in zip(ws, vals):
        if w != 0.0:
            q = osc_integrate_1d(monomial(2, (0.0, 1.0)), float(w))
            assert abs(v - q.value) < 1e-9


def test_profile_is_summed_in_chunks_with_the_bits_of_one_sum():
    # the rule is summed 64 values of w at a time; each value's row is its own
    w = np.linspace(-DIRECT_SWITCH, DIRECT_SWITCH, 301)
    pts, wts = _DIRECT_RULE
    for k in (2, 5):
        whole = (np.exp(1j * w[:, None] * pts[None, :] ** k) * wts).sum(axis=1)
        assert np.array_equal(monomial_profile(k, w), whole)


@pytest.mark.parametrize("lam", [10.0, 30.0, 1e3, 1e5, 1e6, 1e12])
def test_xy_reduction_vs_closed_form(lam):
    res = product_monomial_integral(xy_phase(), lam)
    oracle = xy_square_integral(lam)
    assert abs(res.value - oracle) / abs(oracle) < 1e-12
    assert abs(res.value - oracle) <= res.error_estimate


@pytest.mark.parametrize("lam", [100.0, 1000.0])
def test_product_reduction_vs_planar_integrator(lam):
    f2 = product_phase(monomial(3, (0.0, 1.0)), monomial(2, (0.0, 1.0)))
    cfg = QuadConfig(rel_tol=1e-9, max_panels=1 << 22, phase_variation_cap=2.8)
    quad = osc_integrate_2d(f2, lam, cfg=cfg)
    red = product_monomial_integral(f2, lam).value
    assert abs(red - quad.value) / abs(quad.value) < 1e-7


def test_reduction_with_coefficient():
    # e^{i lam (xy)^2 / 2} is the product x^2 y^2 with coefficient 1/2
    lam = 500.0
    red = reduction(2, 2, lam, 0.5)
    red2 = reduction(2, 2, 0.5 * lam)
    assert red == pytest.approx(red2)


def test_reduction_lambda_zero():
    assert product_monomial_integral(X3_Y2, 0.0).value == pytest.approx(1.0)


@pytest.mark.parametrize("lam", [1e7, 3e7, 1e8])
def test_xy_reduction_vs_closed_form_to_1e8(lam):
    val = product_monomial_integral(xy_phase(), lam).value
    oracle = xy_square_integral(lam)
    assert abs(val - oracle) / abs(oracle) < 1e-12


@pytest.mark.parametrize("k, j, coeff", [(1, 1, 1.0), (3, 2, 1.0), (2, 2, 0.5)])
def test_reduction_work_does_not_grow_with_lambda(k, j, coeff, levin_pieces):
    # the head on [0, y0], where lam y^j swings DIRECT_SWITCH at any lambda,
    # is one block; the Levin range ln(lam / DIRECT_SWITCH) / j in u = ln y
    # grows only logarithmically, and each doubling of it may take one more piece
    used = [_reduce(k, j, lam * coeff)[2] for lam in (1e4, 1e8, 1e12)]
    pieces = levin_pieces
    panels = [u - p for u, p in zip(used, pieces)]
    assert len(pieces) == 3
    assert panels[1] <= panels[0] and panels[2] <= panels[0]
    assert max(pieces) <= 4


@pytest.mark.parametrize("k, j", [(1, 1), (3, 2), (2, 2)])
@pytest.mark.parametrize("lam", [30.0, 1e3, 1e6])
def test_negative_lambda_or_coefficient_gives_the_conjugate(k, j, lam):
    val = reduction(k, j, lam, 0.5)
    assert reduction(k, j, -lam, 0.5) == val.conjugate()
    assert reduction(k, j, lam, -0.5) == val.conjugate()


@pytest.mark.parametrize("lam", [1.0, 20.0, DIRECT_SWITCH])
def test_small_lambda_stays_on_the_panel_path(lam, levin_pieces):
    # the head block is the whole integral: no tail, so no Levin pass
    val, _, used, converged = _reduce(3, 2, lam)
    assert used == 1 and converged and not levin_pieces
    assert val == reduction(3, 2, lam)
    quad = osc_integrate_2d(X3_Y2, lam, cfg=QuadConfig(rel_tol=1e-12))
    assert abs(val - quad.value) <= 1e-12


@pytest.mark.parametrize("lam", [47.0, DIRECT_SWITCH, 49.0, 60.0, 88.0, 89.0, 100.0, 300.0])
def test_xy_reduction_across_the_split(lam):
    # below DIRECT_SWITCH no split; up to DIRECT_SWITCH + LEVIN_SWING the tail
    # is on panels; above it the tail goes to Levin pieces
    val = product_monomial_integral(xy_phase(), lam).value
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
    assert abs(reduction(3, 2, lam) - ref) / abs(ref) < 1e-13


def test_density_oracle_matches_the_profile_gamma_route():
    # x^k y^1: int_0^1 A_k(lam y) dy, the y-integral of the profile oracle
    # by mpmath, against the density form
    lam = 100.0
    with mp.workdps(20):
        ref = complex(mp.quad(lambda y: mp.mpc(monomial_profile_gamma(3, lam * y)),
                              mp.linspace(0, 1, 9)))
    assert abs(product_monomial_square_integral(3, 1, lam) - ref) <= 1e-15


@pytest.mark.parametrize("lam", np.geomspace(30.0, 1e12, 23).tolist(), ids="{:.3g}".format)
def test_estimate_bounds_the_error_of_x3_y2(lam):
    res = product_monomial_integral(X3_Y2, lam)
    assert res.converged and res.lam == lam
    assert abs(res.value - product_monomial_square_integral(3, 2, lam)) <= res.error_estimate
    assert res.error_estimate <= 1e-13


@pytest.mark.parametrize("lam", [1e2, 1e3])
def test_square_oracle_matches_the_xy_oracles(lam):
    # k = j: xy is x^1 y^1 and (xy)^2 / 2 the term 0.5 x^2 y^2
    assert abs(product_monomial_square_integral(1, 1, lam) - xy_square_integral(lam)) <= 1e-16
    ref = composed_xy_square_integral((0.0, 0.0, 0.5), lam)
    assert abs(product_monomial_square_integral(2, 2, 0.5 * lam) - ref) <= 1e-16


@pytest.mark.parametrize("lam", [30.0 * 10.0**i for i in range(11)] + [1e12])
def test_estimate_bounds_the_error_of_half_xy_squared(lam):
    # T3's xy_d2 phase (xy)^2 / 2 is the term 0.5 x^2 y^2
    f2 = compose2d_with_polynomial(xy_phase(), (0.0, 0.0, 0.5))
    res = product_monomial_integral(f2, lam)
    assert res.value == reduction(2, 2, lam, 0.5)
    assert abs(res.value - product_monomial_square_integral(2, 2, 0.5 * lam)) <= res.error_estimate


@pytest.mark.parametrize("k, j", [(1, 8), (1, 12), (3, 11), (1, 24), (24, 1)])
@pytest.mark.parametrize("lam", [1.0, 20.0, 47.0])
def test_small_lambda_head_holds_high_exponents(k, j, lam):
    # below DIRECT_SWITCH the head is the whole integral, of degree up to 24
    # in y^j next to y = 0
    res = product_monomial_integral(term(k, j), lam)
    err = abs(res.value - product_monomial_square_integral(k, j, lam))
    assert err <= 1e-15 and err <= res.error_estimate


@pytest.mark.parametrize("k, j", [(1, 1), (2, 2), (3, 2), (2, 3), (1, 8), (1, 24), (24, 1),
                                  (24, 24)])
def test_estimate_bounds_the_error_from_lambda_1_to_1e12(k, j):
    f2 = term(k, j)
    for lam in np.geomspace(1.0, 1e12, 25):
        res = product_monomial_integral(f2, lam)
        assert abs(res.value - product_monomial_square_integral(k, j, lam)) <= res.error_estimate


@pytest.mark.parametrize("f2", [
    pytest.param(xy_quad_phase(0.1), id="two_terms"),
    pytest.param(term(3, 0), id="no_y"),
    pytest.param(Phase2D(((0.0, 0.0), (0.0, 0.0)), unit_square()), id="zero"),
    pytest.param(term(25, 1), id="k_above_24"),
    pytest.param(term(1, 25), id="j_above_24"),
    pytest.param(Phase2D(((0.0, 0.0), (0.0, 1.0)), PlanarDomain(0.0, 2.0, 0.0, 1.0)),
                 id="not_the_unit_square"),
])
def test_reduction_rejects_other_phases(f2):
    with pytest.raises(PreconditionError):
        product_monomial_integral(f2, 1e3)
