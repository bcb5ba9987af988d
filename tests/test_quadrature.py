import math
from functools import partial

import mpmath as mp
import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from hypothesis import given, settings
from hypothesis import strategies as st

from oscint import (
    Interval,
    compose_with_polynomial,
    compose_with_power,
    PanelBudgetError,
    PreconditionError,
    QuadConfig,
    QuadResult,
    adaptive_quad,
    monomial,
    monomial_sin,
    osc_integrate_1d,
    osc_integrate_1d_sweep,
    osc_integrate_2d,
    osc_integrate_2d_sweep,
    polynomial_phase,
    product_phase,
    xy_phase,
)
from oscint.phases import (Phase2D, PlanarDomain, compose2d_with_polynomial, unit_square,
                           xy_quad_phase)
from oscint.quadrature import (
    _CHUNK,
    _LEVIN_16,
    _LEVIN_24,
    _LEVIN_CHUNK,
    _NODES,
    _WG,
    _WK,
    BLOCK_SWING,
    DEFAULT_CONFIG,
    LEVIN_SWING,
    _PANEL_SWING,
    _adaptive_slots,
    _blocks,
    _kronrod,
    _levin,
    _levin_halving,
    _outer_second,
    _refine,
    _slices_in_y,
    _slot_sums,
    _swing_panels,
)
from oscint.reduction import product_monomial_integral

from oracles import (
    composed_xy_square_integral,
    fresnel_integral,
    linear_phase_integral,
    monomial_profile_gamma,
    oscillatory_integral,
    product_monomial_square_integral,
    shifted_square_ramp_integral,
    xy_square_integral,
)

SUITE_CONFIG = QuadConfig(rel_tol=1e-9, phase_variation_cap=2.8)

# frozen 30-digit oracle values of int_0^1 e^{i lam x^2} dx
FRESNEL_FROZEN = {
    1e2: 0.06011251848134443 + 0.058367089992962334j,
    1e4: 0.006251292347636025 + 0.0063141792186693375j,
}


@pytest.mark.parametrize("lam", sorted(FRESNEL_FROZEN))
def test_fresnel_frozen_values(lam):
    res = osc_integrate_1d(monomial(2, (0.0, 1.0)), lam)
    assert abs(res.value - FRESNEL_FROZEN[lam]) / abs(FRESNEL_FROZEN[lam]) < 1e-8


def test_linear_phase_closed_form():
    g = monomial(1, (0.0, 1.0))
    for lam in (2.0 * np.pi, 100.0, 12345.6):
        res = osc_integrate_1d(g, lam)
        exact = linear_phase_integral(lam)
        assert abs(res.value - exact) <= max(res.error_estimate, 1e-13)


def test_lambda_2pi_vanishes():
    g = monomial(1, (0.0, 1.0))
    res = osc_integrate_1d(g, 2.0 * np.pi)
    assert abs(res.value) < 1e-13


def test_lambda_zero_gives_length():
    g = monomial(5, (0.2, 0.9))
    res = osc_integrate_1d(g, 0.0)
    assert res.value == pytest.approx(0.7)
    assert res.error_estimate == 0.0


@pytest.mark.parametrize("lam", [1e2, 1e3, 1e4, 1e5])
def test_fresnel_oracle(lam):
    g = monomial(2, (0.0, 1.0))
    res = osc_integrate_1d(g, lam)
    oracle = fresnel_integral(lam)
    assert abs(res.value - oracle) / abs(oracle) < 1e-8


@given(st.floats(min_value=0.5, max_value=5e4))
@settings(max_examples=25, deadline=None)
def test_conjugate_symmetry(lam):
    g = monomial(3, (0.0, 1.0))
    plus = osc_integrate_1d(g, lam)
    minus = osc_integrate_1d(g, -lam)
    assert abs(minus.value - np.conj(plus.value)) < 1e-12


def test_additivity_of_splits():
    g = monomial(2, (0.0, 1.0))
    lam = 5000.0
    whole = osc_integrate_1d(g, lam)
    left = osc_integrate_1d(monomial(2, (0.0, 0.37)), lam)
    right = osc_integrate_1d(monomial(2, (0.37, 1.0)), lam)
    err = whole.error_estimate + left.error_estimate + right.error_estimate
    assert abs(whole.value - (left.value + right.value)) <= err


def test_trivial_bound():
    g = monomial(4, (0.0, 1.0))
    res = osc_integrate_1d(g, 777.0)
    assert abs(res.value) <= 1.0 + res.error_estimate


def test_refinement_monotonicity():
    g = monomial(2, (0.0, 1.0))
    lam = 2000.0
    oracle = fresnel_integral(lam)
    discrepancies = []
    for rel in (1e-8, 1e-10):
        res = osc_integrate_1d(g, lam, cfg=QuadConfig(rel_tol=rel))
        discrepancies.append(abs(res.value - oracle))
    assert discrepancies[1] <= discrepancies[0] + 1e-14


def test_panel_budget():
    # the stationary point at 0 takes about 30 Levin pieces and panels together
    g = monomial(2, (0.0, 1.0))
    with pytest.raises(PanelBudgetError):
        osc_integrate_1d(g, 1e8, cfg=QuadConfig(max_panels=4))


@pytest.mark.parametrize("lam", [45.0, 300.0, 1e5])
def test_levin_polynomial_amplitude_on_linear_phase(lam):
    # int_a^b h e^{i lam x} dx = [e^{i lam x} sum_m (-1)^m h^(m)(x) / (i lam)^(m+1)]_a^b
    h = np.polynomial.Polynomial([1.0, -2.0, 0.5, 3.0])
    a, b = 0.25, 1.5

    def closed(x):
        return np.exp(1j * lam * x) * sum(
            (-1) ** m * h.deriv(m)(x) / (1j * lam) ** (m + 1) for m in range(4))

    L, R = np.array([a]), np.array([b])
    # an amplitude h, as the reduction's tail passes on its set
    val, err, *_ = _levin(_LEVIN_24, lambda x, _: np.ones_like(x), lambda x, _: h(x), [lam], L, R,
                          L, R, np.zeros(1, dtype=int))
    exact = closed(b) - closed(a)
    assert abs(val[0] - exact) <= err[0] + 1e-15 * abs(exact)
    assert abs(val[0] - exact) / abs(exact) < 1e-13


def _levin_x3(colloc, lam):
    # one piece of x^3 on [0.125, 0.25]
    L, R = np.array([0.125]), np.array([0.25])
    return _levin(colloc, lambda x, _: 3.0 * x**2, lambda x, _: np.ones_like(x), [lam], L, R,
                  L**3, R**3, np.zeros(1, dtype=int))[:2]


def test_levin_residual_estimate_bounds_one_piece_against_mpmath():
    lam = 3e3
    val, err = _levin_x3(_LEVIN_24, lam)
    exact = oscillatory_integral(lambda x: x**3, lambda x: x**3, lam, 0.125, 0.25)
    assert abs(val[0] - exact) <= err[0] <= 1e-14


def test_levin_order_16_estimate_bounds_one_piece_against_mpmath():
    # the same piece on the set of the integrator's monotone pieces
    lam = 3e3
    val, err = _levin_x3(_LEVIN_16, lam)
    exact = oscillatory_integral(lambda x: x**3, lambda x: x**3, lam, 0.125, 0.25)
    assert abs(val[0] - exact) <= err[0] <= 5e-13  # measured 3.5e-13


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("lam", [1e3, 1e4, 1e5, 1e6])
def test_levin_order_16_estimates_bound_pieces_next_to_a_zero_of_g_prime(n, lam):
    # the three dyadic pieces [2^-k, 2^(1-k)] of x^n nearest its zero of g'
    # at 0 whose swing passes LEVIN_SWING (two for x^3 at 1e3)
    edges = 2.0 ** -np.arange(12.0, -1.0, -1.0)
    L, R = edges[:-1], edges[1:]
    keep = lam * (R**n - L**n) > LEVIN_SWING
    L, R = L[keep][:3], R[keep][:3]
    val, err, *_ = _levin(_LEVIN_16, lambda x, _: n * x ** (n - 1), lambda x, _: np.ones_like(x),
                          [lam], L, R, L**n, R**n, np.zeros(L.size, dtype=int))
    assert L.size >= 2 and np.isfinite(err).all()
    for a, b, v, e in zip(L, R, val, err):
        exact = oscillatory_integral(lambda x: x**n, lambda x: x**n, lam, a, b)
        assert abs(v - exact) <= e, (a, b)


def test_levin_makes_one_batched_solve(monkeypatch):
    calls = []
    solve = np.linalg.solve

    def counted(A, b):
        calls.append(A.shape)
        return solve(A, b)

    monkeypatch.setattr(np.linalg, "solve", counted)
    _levin_x3(_LEVIN_16, 3e3)
    n = _LEVIN_16[0].size
    assert calls == [(1, n, n)] and n == 17


def test_levin_residual_node_on_a_collocation_point_is_a_unit_row():
    # t = 0 is a QK15 node and, up to the rounding of cos(pi / 2), a Lobatto
    # point of both collocation sets
    node = np.flatnonzero(_NODES == 0.0)
    assert node.size == 1
    for T, _, B, _ in (_LEVIN_16, _LEVIN_24):
        point = np.argmin(np.abs(T))
        assert abs(T[point]) < 1e-16
        np.testing.assert_array_equal(B[node[0]], np.eye(T.size)[point])
        np.testing.assert_allclose(B.sum(axis=1), 1.0, rtol=0, atol=1e-15)


# osc_integrate_1d on T1's x2_monic_d3 (x^6 / 3) under the suite config: the
# bits (value, error estimate) and panel count, frozen with the Levin residual
# estimate on the order-16 collocation set, row-local panel and residual
# products, and the phase evaluated by Horner's rule on its composed
# coefficients
X2_MONIC_D3_BITS = {
    1e3: ("0x1.5ca4e9f5ef3fcp-2", "0x1.738f30fc15f38p-4", "0x1.60afa25ab6b42p-35", 7),
    1e5: ("0x1.4382d018242bap-3", "0x1.5ab52b3aa000fp-5", "0x1.e72234619353bp-34", 9),
    1e7: ("0x1.2c501713f3b56p-4", "0x1.41e0081d704e8p-6", "0x1.10f6d86781df8p-41", 16),
}


@pytest.mark.parametrize("lam", sorted(X2_MONIC_D3_BITS))
def test_unit_amplitude_keeps_the_bits(lam):
    cfg = QuadConfig(rel_tol=1e-9, max_panels=4194304, phase_variation_cap=2.8)
    g = compose_with_polynomial(monomial(2, (0.0, 1.0)), [0.0, 0.0, 0.0, 1.0 / 3.0])
    res = osc_integrate_1d(g, lam, cfg=cfg)
    re, im, err, panels = X2_MONIC_D3_BITS[lam]
    assert (res.value.real.hex(), res.value.imag.hex(), res.error_estimate.hex(),
            res.panels_used) == (re, im, err, panels)


def test_slot_sums_sum_each_slot_as_np_sum_does():
    rng = np.random.default_rng(7)
    for n in (0, 1, 9, 40, 300):
        slot = rng.integers(0, 5, n)
        v = rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8, n) + 1j * rng.standard_normal(n)
        want = [np.sum(v[slot == k]) for k in range(5)]
        np.testing.assert_array_equal(_slot_sums(slot, v, 5), want)
        np.testing.assert_array_equal(_slot_sums(np.zeros(n, dtype=int), v, 1), [np.sum(v)])


@pytest.mark.parametrize("n, lam", [(1, 5e6), (2, 1e8)])
def test_large_lambda_within_a_small_budget(n, lam):
    res = osc_integrate_1d(monomial(n, (0.0, 1.0)), lam, cfg=QuadConfig(max_panels=1 << 12))
    assert res.converged and res.panels_used <= 64
    assert abs(res.value - monomial_profile_gamma(n, lam)) <= res.error_estimate


def test_error_estimate_within_rel_tol():
    g = monomial(2, (0.0, 1.0))
    res = osc_integrate_1d(g, 1e4, cfg=QuadConfig(rel_tol=1e-10))
    assert res.error_estimate <= 1e-10 * 1.0


@pytest.mark.parametrize("interval", [Interval(0.0, 1.0), Interval(0.5, 0.5)])
def test_error_estimate_is_a_python_float(interval):
    res = osc_integrate_1d(monomial(2, interval.as_tuple()), 10.0)
    assert type(res.error_estimate) is float


def _x_plus_y(domain):
    return Phase2D(((0.0, 1.0), (1.0, 0.0)), domain, name="x+y")


def test_2d_separable_sum_phase():
    lam = 60.0
    res = osc_integrate_2d(_x_plus_y(unit_square()), lam)
    exact = linear_phase_integral(lam) ** 2
    assert abs(res.value - exact) / abs(exact) < 1e-10


@pytest.mark.parametrize("lam", [3.0, 30.0])
def test_2d_sum_phase_on_a_rectangle(lam):
    # int_{0.5}^{2} int_{1}^{1.75} e^{i lam (x + y)} dy dx factorises
    def edge(a, b):
        return (np.exp(1j * lam * b) - np.exp(1j * lam * a)) / (1j * lam)

    res = osc_integrate_2d(_x_plus_y(PlanarDomain(0.5, 2.0, 1.0, 1.75)), lam)
    exact = edge(0.5, 2.0) * edge(1.0, 1.75)
    assert abs(res.value - exact) <= 1e-10 * abs(exact)
    assert abs(res.value - exact) <= res.error_estimate


@pytest.mark.parametrize("lam", [10.0, 100.0, 400.0])
def test_2d_xy_oracle(lam):
    res = osc_integrate_2d(xy_phase(), lam)
    oracle = xy_square_integral(lam)
    assert abs(res.value - oracle) / abs(oracle) < 1e-7


def test_2d_over_budget_slice_count_raises_before_any_slice(monkeypatch):
    # every slice of (x - 1/2)^2 y turns at x = 1/2, so no y-piece has the
    # end form and all of [0, 1] goes to the outer swing panels: 1,966,080
    # slices against the default budget of 1,048,576
    def no_levin(*args):
        raise AssertionError("a slice was integrated")

    f2 = product_phase(polynomial_phase([0.25, -1.0, 1.0]), monomial(1, (0.0, 1.0)))
    monkeypatch.setattr("oscint.quadrature._levin", no_levin)
    with pytest.raises(PanelBudgetError):
        osc_integrate_2d(f2, 5e5)


def test_2d_lambda_zero_area():
    res = osc_integrate_2d(xy_phase(), 0.0)
    assert res.value == pytest.approx(1.0)


def test_2d_product_phase_matches_1d_product():
    f2 = product_phase(monomial(2, (0.0, 1.0)), monomial(1, (0.0, 1.0)))
    lam = 35.0
    res = osc_integrate_2d(f2, lam)
    # int e^{i lam x^2 y} dx dy has no closed product form; sanity: area bound
    assert abs(res.value) <= 1.0 + res.error_estimate


def test_quad_config_validation():
    with pytest.raises(PreconditionError):
        QuadConfig(rel_tol=2.0)
    with pytest.raises(PreconditionError):
        QuadConfig(phase_variation_cap=4.0)


def test_adaptive_quad_kinked():
    val, err, converged = adaptive_quad(
        lambda x: np.minimum(1.0, 0.001 / np.maximum(x, 1e-300)), 0.0, 1.0)
    exact = 0.001 * (1.0 + np.log(1000.0))
    assert abs(val - exact) < 1e-8
    assert converged


def test_adaptive_quad_segments_split_at_a_kink():
    # unsplit, the kink at eps sits inside a panel and the estimate reports
    # 6.3e-13 against an error of 2.5e-8; split there, each segment is smooth
    eps = 0.003920094501613018
    val, err, converged = adaptive_quad(
        lambda x: np.minimum(1.0, eps / np.maximum(x, 1e-300)), [0.0, eps], [eps, 1.0])
    exact = eps * (1.0 + np.log(1.0 / eps))
    assert abs(val - exact) <= 1e-12 * exact
    assert err >= abs(val - exact)
    assert converged


def test_adaptive_quad_flags_a_segment_cap(monkeypatch):
    # one segment cannot hold the kink to 1e-9
    monkeypatch.setattr("oscint.quadrature.ADAPTIVE_MAX_SEGMENTS", 1)
    assert not adaptive_quad(lambda x: np.minimum(1.0, 0.001 / np.maximum(x, 1e-300)),
                             0.0, 1.0)[2]


def test_slots_flag_their_own_segment_cap(monkeypatch):
    # 12 pieces a slot: the kink of slot 0 stops at the cap, while slot 1
    # converges in 9 pieces, as alone, with the bits of its lone call; a cap
    # shared by the slots would stop slot 1 too
    monkeypatch.setattr("oscint.quadrature.ADAPTIVE_MAX_SEGMENTS", 12)
    kink = lambda x: np.minimum(1.0, 0.001 / np.maximum(x, 1e-300))
    root = lambda x: np.sqrt(x + 1e-3)
    fvec = lambda x, s: np.where(s == 0, kink(x), root(x))
    val, err, converged = _adaptive_slots(fvec, [0.0, 0.0], [1.0, 1.0], [0, 1], 2, 1e-9, 1e-14)
    assert converged.tolist() == [False, True]
    assert (val[1], err[1], True) == adaptive_quad(root, 0.0, 1.0)
    assert not adaptive_quad(kink, 0.0, 1.0)[2]


def test_slots_keep_their_lone_bits_beside_a_refined_slot():
    # slot 1 halves for many rounds while slot 0 converges at once and slot 2
    # has no segment: each slot gets its lone call's value, error and flag
    fs = [lambda x: np.exp(x), lambda x: np.sqrt(np.abs(x - 0.37)), lambda x: x]
    fvec = lambda x, s: np.choose(s, [f(x) for f in fs])
    a, b, slot = [0.0, 0.0, 0.5, 1.0], [1.0, 0.5, 1.0, 1.0], [0, 1, 1, 2]
    val, err, converged = _adaptive_slots(fvec, a, b, slot, 3, 1e-12, 1e-14)
    assert (val[2], err[2], converged[2]) == (0.0, 0.0, True)
    for k in (0, 1):
        mine = np.array(slot) == k
        lone = _adaptive_slots(lambda x, _: fs[k](x), np.array(a)[mine], np.array(b)[mine], 0, 1,
                               1e-12, 1e-14)
        assert (val[k], err[k], converged[k]) == tuple(v[0] for v in lone)


def test_a_tiny_slot_meets_its_own_tolerance_beside_a_large_one():
    # held to one tolerance over both totals, the 1e-8 slot would be left at
    # the first rule's relative error; each slot meets rel_tol of its own value
    scale = np.array([1e8, 1e-8])
    fvec = lambda x, s: scale[s] * np.sqrt(x)
    val, err, converged = _adaptive_slots(fvec, [0.0, 0.0], [1.0, 1.0], [0, 1], 2, 1e-10, 1e-30)
    exact = scale * 2.0 / 3.0
    assert converged.all()
    np.testing.assert_array_less(np.abs(val - exact), 1e-10 * exact)


def test_adaptive_quad_evaluates_whole_rules_only():
    # every integrand call is one set of 15-point rules, with no probe point
    points = []

    def counted(x):
        points.append(x.size)
        return np.sqrt(x)

    _adaptive_slots(lambda x, _: counted(x), 0.0, 1.0, 0, 1, 1e-12, 1e-14)
    assert len(points) > 1
    assert all(n % 15 == 0 for n in points)


def test_kronrod_pairs_match_single_integrands():
    # more panels than one chunk, so the chunk boundary is crossed
    edges = np.linspace(0.0, 3.0, _CHUNK + 38)
    L, R = edges[:-1], edges[1:]
    S = np.zeros(L.size, dtype=np.intp)
    pair, pair_err = _kronrod(lambda x, _: (np.cos(5.0 * x), np.sin(5.0 * x)), L, R, S)
    re, re_err = _kronrod(lambda x, _: np.cos(5.0 * x), L, R, S)
    im, im_err = _kronrod(lambda x, _: np.sin(5.0 * x), L, R, S)
    np.testing.assert_array_equal(pair, np.concatenate([re, im]))
    np.testing.assert_array_equal(pair_err, np.hypot(re_err, im_err))
    assert pair.shape == (2, L.size) and pair_err.shape == (L.size,)
    assert pair[0].sum() == pytest.approx(np.sin(15.0) / 5.0, abs=1e-13)


def test_refine_reports_its_split_cap():
    kink = lambda x, _: np.abs(x - 0.3)

    def run(max_splits):
        return _refine(kink, [0.0], [1.0], [0], 1, 1e-12, max_splits, 1 << 16)

    val, err, _, converged = run(2)
    assert not converged and err.size == 3  # only the panel holding the kink is halved
    val, err, _, converged = run(60)
    assert converged
    assert val[0].sum() == pytest.approx(0.29, abs=1e-12)


def test_kronrod_and_levin_give_each_panel_and_piece_its_lone_bits():
    # more panels than one chunk and more pieces than one solve, on three
    # slots of their own lambdas: each panel and piece has the bits it gets
    # alone, wherever it sits in the batch
    lam = np.array([5.0, 70.0, 3e3])
    edges = np.linspace(0.0, 3.0, _CHUNK + 38)
    L, R = edges[:-1], edges[1:]
    S = np.arange(L.size) % 3
    fvec = lambda x, s: (np.cos(lam[s] * x**2), np.sin(lam[s] * x**2))
    val, err = _kronrod(fvec, L, R, S)
    for i in range(L.size):
        one_val, one_err = _kronrod(fvec, L[i:i + 1], R[i:i + 1], S[i:i + 1])
        assert (val[:, i].tolist(), err[i]) == (one_val[:, 0].tolist(), one_err[0]), i
    edges = np.linspace(0.5, 1.5, 3 * _LEVIN_CHUNK + 8)
    L, R = edges[:-1], edges[1:]
    S = np.arange(L.size) % 3
    gd, h = lambda x, _: 2.0 * x, lambda x, _: np.ones_like(x)
    val, err, *_ = _levin(_LEVIN_16, gd, h, lam, L, R, L**2, R**2, S)
    assert np.isfinite(err).all()
    for i in range(L.size):
        one_val, one_err, *_ = _levin(_LEVIN_16, gd, h, lam, L[i:i + 1], R[i:i + 1],
                                      L[i:i + 1]**2, R[i:i + 1]**2, S[i:i + 1])
        assert (val[i], err[i]) == (one_val[0], one_err[0]), i


def test_levin_halving_hands_each_run_its_lone_chunks(monkeypatch):
    # a solve that accepts no piece halves the phase x until each piece's
    # swing is at most LEVIN_SWING: 1, 2, ..., 16 pieces a round at lambda
    # 1e3 and 1, 2, 4, 8 at 600.  With two pieces a chunk, each run's pieces
    # reach the solve in the groups of its lone call, in the same order, and
    # no chunk holds more than two
    monkeypatch.setattr("oscint.quadrature._LEVIN_CHUNK", 2)

    def groups(lams):
        calls = []

        def solve(L, R, GL, GR, S):
            assert L.size <= 2
            calls.append((L.copy(), S.copy()))
            return np.zeros(L.size, dtype=complex), np.full(L.size, np.inf)

        n = len(lams)
        _levin_halving(solve, lambda x, _: x, lams, np.zeros(n), np.ones(n), np.arange(n), n,
                       1e-10, 1 << 20, np.arange(n))
        return [[L[S == s].tolist() for L, S in calls if (S == s).any()] for s in range(n)]

    both = groups([1e3, 600.0])
    assert both == groups([1e3]) + groups([600.0])
    assert [sum(map(len, g)) for g in both] == [31, 15]


def test_two_slot_refine_keeps_each_slots_one_slot_bits():
    # slot 0 is a kink at 0.3 on [0, 1], slot 1 a kink at 0.55 on [0.2, 0.9]:
    # each slot's panels and sums are those of its own one-slot run
    kinks = np.array([0.3, 0.55])
    fvec = lambda x, s: np.abs(x - kinks[s])
    density = 1e-12
    both = _refine(fvec, [0.2, 0.0], [0.9, 1.0], [1, 0], 2, density, 60, 1 << 16)
    assert np.all(np.diff(both[2]) >= 0)  # ordered by slot
    for k, (a, b) in enumerate([(0.0, 1.0), (0.2, 0.9)]):
        one = _refine(lambda x, _: fvec(x, np.full(x.shape, k)), [a], [b], [0], 1, density, 60,
                      1 << 16)
        mine = both[2] == k
        np.testing.assert_array_equal(both[0][:, mine], one[0])
        np.testing.assert_array_equal(both[1][mine], one[1])
        assert np.sum(both[0][0, mine]) == np.sum(one[0][0])
        assert one[3].all() and both[3].all()


def _monomial_moment(d: int) -> float:
    """int_{-1}^{1} x^d dx."""
    return 0.0 if d % 2 else 2.0 / (d + 1)


def test_kronrod_weights_sum_to_two():
    assert _WK.sum() == pytest.approx(2.0, abs=1e-15)


def test_kronrod_rule_exact_to_degree_23():
    for d in range(24):
        assert _WK @ _NODES**d == pytest.approx(_monomial_moment(d), abs=2e-15), d


def test_gauss7_subset_exact_to_degree_13():
    for d in range(14):
        assert _WG @ _NODES**d == pytest.approx(_monomial_moment(d), abs=2e-15), d


def test_gauss7_subset_is_leggauss7():
    x7, w7 = leggauss(7)
    on = _WG != 0.0
    assert on.sum() == 7
    np.testing.assert_allclose(_NODES[on], x7, rtol=0, atol=1e-15)
    np.testing.assert_allclose(_WG[on], w7, rtol=0, atol=1e-15)


def test_each_kept_panel_evaluated_about_once():
    # 15 rule points and about two swing points per swing panel, and 30 points
    # for each panel the tolerance passes halve; re-evaluating every panel on
    # each pass would add 15 points per panel and pass
    g = polynomial_phase([0.0] * 9 + [1.0 / 3.0])
    lam = 100.0  # a swing of 33: the one piece stays on the panel path
    assert lam / 3.0 <= LEVIN_SWING
    plain = g.eval_fn
    points = [0]

    def counted(order, x):
        if order == 0:
            points[0] += np.size(x)
        return plain(order, x)

    object.__setattr__(g, "eval_fn", counted)
    res = osc_integrate_1d(g, lam, cfg=SUITE_CONFIG)
    swing_panels = _swing_panels(lambda x, _: plain(0, x), [0.0], [1.0], [0], [lam],
                                 SUITE_CONFIG.phase_variation_cap, 1 << 20)[0].size
    halved = res.panels_used - swing_panels
    assert res.converged and halved > 0
    assert points[0] <= 17 * swing_panels + 30 * halved


def test_unreachable_tolerance_flags_nonconvergence():
    g = monomial(2, (0.0, 1.0))
    res = osc_integrate_1d(g, 1e4, cfg=QuadConfig(rel_tol=1e-16))
    assert not res.converged
    assert abs(res.value - FRESNEL_FROZEN[1e4]) / abs(FRESNEL_FROZEN[1e4]) < 1e-8


def test_sweep_flags_only_the_lambda_that_stops_over_tolerance():
    # at rel_tol 1e-16 lambda = 1e4 stops over tolerance, as above, while
    # lambda = 1 meets it after two halvings
    g = monomial(2, (0.0, 1.0))
    cfg = QuadConfig(rel_tol=1e-16)
    lams = [1.0, 1e4, 0.0]
    sweep = osc_integrate_1d_sweep(g, lams, cfg=cfg)
    assert [q.converged for q in sweep] == [True, False, True]
    assert sweep == [osc_integrate_1d(g, lam, cfg=cfg) for lam in lams]


# x^2, x^3, P(x^2) with P = t^3/3 and |x^2|^1.5, over a grid that holds 0, a
# negative lambda, lambdas below LEVIN_SWING and one whose integral is a
# single panel
SWEEP_PHASES = {
    "x2": lambda: monomial(2, (0.0, 1.0)),
    "x3": lambda: monomial(3, (0.0, 1.0)),
    "x2_third_cube": lambda: compose_with_polynomial(monomial(2, (0.0, 1.0)),
                                                     [0.0, 0.0, 0.0, 1.0 / 3.0]),
    "x2_abs_1p5": lambda: compose_with_power(monomial(2, (0.0, 1.0)), 1.5),
}
SWEEP_LAMS = [1e4, 0.0, -300.0, 0.5 * LEVIN_SWING, 0.3, 2.0, 1e2, 3e3, -1e6, 1e6, 1e8]


@pytest.mark.parametrize("name", list(SWEEP_PHASES))
def test_sweep_gives_each_lambda_its_one_element_result(name):
    g = SWEEP_PHASES[name]()
    sweep = osc_integrate_1d_sweep(g, SWEEP_LAMS, cfg=SUITE_CONFIG)
    for lam, q in zip(SWEEP_LAMS, sweep, strict=True):
        one = osc_integrate_1d(g, lam, cfg=SUITE_CONFIG)
        assert (q.value, q.error_estimate, q.panels_used, q.converged, q.lam) == \
            (one.value, one.error_estimate, one.panels_used, one.converged, lam), lam
    assert sweep[1] == QuadResult(1.0 + 0.0j, 0.0, 0, 0.0)


def test_sweep_gives_each_lambda_the_whole_panel_budget():
    # lambda = LEVIN_SWING stops refinement at the budget, as below, and the
    # other lambda still refines as it does alone, on a budget of its own
    g = monomial(2, (0.0, 1.0))
    lams = [LEVIN_SWING, 0.5 * LEVIN_SWING]
    cfg = QuadConfig(rel_tol=1e-16, max_panels=osc_integrate_1d(g, LEVIN_SWING).panels_used)
    sweep = osc_integrate_1d_sweep(g, lams, cfg=cfg)
    assert sweep == [osc_integrate_1d(g, lam, cfg=cfg) for lam in lams]
    assert not sweep[0].converged and sweep[0].panels_used == cfg.max_panels
    assert sum(q.panels_used for q in sweep) > cfg.max_panels


def test_sweep_raises_where_one_lambda_alone_raises():
    g = monomial(2, (0.0, 1.0))
    cfg = QuadConfig(max_panels=4)
    assert osc_integrate_1d(g, 1.0, cfg=cfg).panels_used <= 4
    for lams in ([LEVIN_SWING], [1.0, LEVIN_SWING]):
        with pytest.raises(PanelBudgetError):
            osc_integrate_1d_sweep(g, lams, cfg=cfg)


def test_panel_budget_stops_refinement_and_flags_nonconvergence():
    g = monomial(2, (0.0, 1.0))
    lam = LEVIN_SWING  # the one piece stays on the panel path
    budget = osc_integrate_1d(g, lam).panels_used
    res = osc_integrate_1d(g, lam, cfg=QuadConfig(rel_tol=1e-16, max_panels=budget))
    assert not res.converged
    assert res.panels_used == budget


CALIBRATION_LAMBDAS = np.concatenate([np.logspace(1.0, 6.0, 16), [1e7, 1e8]])


@pytest.mark.parametrize("cfg", [DEFAULT_CONFIG, SUITE_CONFIG], ids=["default", "suite"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_error_estimate_bounds_monomial_error(n, cfg):
    g = monomial(n, (0.0, 1.0))
    for lam in CALIBRATION_LAMBDAS:
        res = osc_integrate_1d(g, lam, cfg=cfg)
        oracle = monomial_profile_gamma(n, lam)
        assert abs(res.value - oracle) <= res.error_estimate, (n, lam)


@pytest.mark.parametrize("lam", list(np.logspace(0.0, 3.0, 7)) + [56.0, 3000.0])
def test_error_estimate_bounds_xy_error(lam):
    for cfg in (DEFAULT_CONFIG, SUITE_CONFIG):
        res = osc_integrate_2d(xy_phase(), lam, cfg=cfg)
        assert abs(res.value - xy_square_integral(lam)) <= res.error_estimate, cfg


# phases c x^k y^j that the reduction serves: x^3 y^2, whose slices all touch
# the x-stationary line x = 0, and T3's xy_d2, P(xy) with P = t^2/2
_X3_Y2 = product_phase(monomial(3, (0.0, 1.0)), monomial(2, (0.0, 1.0)))
_XY_D2 = compose2d_with_polynomial(xy_phase(), (0.0, 0.0, 0.5))


@pytest.mark.parametrize("f2, lam", [pytest.param(_X3_Y2, 316.0, id="316.0"),
                                     pytest.param(_X3_Y2, 1000.0, id="1000.0"),
                                     pytest.param(_XY_D2, 39.81, id="xy_d2-39.81")])
def test_2d_x3_y2_matches_the_reduction(f2, lam):
    ref = product_monomial_integral(f2, lam).value
    for cfg in (DEFAULT_CONFIG, SUITE_CONFIG):
        res = osc_integrate_2d(f2, lam, cfg=cfg)
        assert abs(res.value - ref) <= 1e-12 * abs(ref), cfg
        assert abs(res.value - ref) <= res.error_estimate, cfg
        assert res.converged and res.error_estimate <= cfg.rel_tol, cfg


@pytest.mark.parametrize("lam", [1e2, 1e3])
def test_2d_non_monotone_slices_are_cut_at_their_turns(lam):
    # every slice of (x - 1/2)^2 y turns at x = 1/2 and has f(1, y) = f(0, y);
    # taken whole, a slice shows the swing panels no swing, so each slice is
    # cut at the zero of d_x f into two monotone pieces
    f2 = product_phase(polynomial_phase([0.25, -1.0, 1.0]), monomial(1, (0.0, 1.0)))
    oracle = shifted_square_ramp_integral(lam, 0.5)
    for cfg in (DEFAULT_CONFIG, SUITE_CONFIG):
        res = osc_integrate_2d(f2, lam, cfg=cfg)
        assert res.converged, cfg
        assert abs(res.value - oracle) <= res.error_estimate, cfg
        assert abs(res.value - oracle) <= 1e-10 * abs(oracle), cfg


def test_2d_interior_stationary_point_against_mpmath():
    # every slice of (x - 0.4)^2 y turns at x = 0.4
    f2 = product_phase(polynomial_phase([0.16, -0.8, 1.0]), monomial(1, (0.0, 1.0)))
    oracle = shifted_square_ramp_integral(1e3, 0.4)
    for cfg in (DEFAULT_CONFIG, SUITE_CONFIG):
        res = osc_integrate_2d(f2, 1e3, cfg=cfg)
        assert abs(res.value - oracle) <= res.error_estimate, cfg
        assert abs(res.value - oracle) <= 1e-10 * abs(oracle), cfg


@pytest.fixture
def parts(monkeypatch):
    """The set-aside rectangles of each osc_integrate_2d call: the blocks as
    (lo, hi, panels per axis) and the swing-panel part as (lo, hi)."""
    seen = {"blocks": [], "slices": []}

    def blocks(g, lam, lo, hi, m, f_abs, slot):
        seen["blocks"].append((lo, hi, m))
        return _blocks(g, lam, lo, hi, m, f_abs, slot)

    def slices(g, lam, lo, hi, cfg):
        seen["slices"].append((lo, hi))
        return _slices_in_y(g, lam, lo, hi, cfg)

    monkeypatch.setattr("oscint.quadrature._blocks", blocks)
    monkeypatch.setattr("oscint.quadrature._slices_in_y", slices)
    return seen


def test_2d_work_grows_linearly_in_lambda(parts):
    # Levin in y and its slices take the large swing, and what it sets aside
    # near y = 0 is blocks, each counted as one: lam 1e3 may cost at most
    # twenty times lam 1e2.  A block's own work is bounded by the cap: along
    # each axis of degree 1 at most ceil(BLOCK_SWING / _PANEL_SWING) panels
    cap = math.ceil(BLOCK_SWING / _PANEL_SWING)
    for cfg in (DEFAULT_CONFIG, SUITE_CONFIG):
        lo, hi = (osc_integrate_2d(xy_phase(), lam, cfg=cfg).panels_used for lam in (1e2, 1e3))
        assert hi <= 2 * 10 * lo, cfg
    assert parts["blocks"] and not parts["slices"]
    for _, _, m in parts["blocks"]:
        nodes = 32**2 * (m.prod(axis=1) + (2 * m).prod(axis=1))  # the rule at m and at 2m
        assert (nodes <= 5 * 32**2 * cap**2).all()


# T3's three phases are F(xy) on the unit square: (phase, its oracle); (xy)^2 / 2
# is the term 0.5 x^2 y^2, and only P(xy_quad) needs the log-variable oracle
_T3_PHASES = {
    "xy": (xy_phase(), xy_square_integral),
    "P(xy)": (compose2d_with_polynomial(xy_phase(), (0.0, 0.0, 0.5)),
              lambda lam: product_monomial_square_integral(2, 2, 0.5 * lam)),
    "P(xy_quad)": (compose2d_with_polynomial(xy_quad_phase(0.1), (0.0, 0.0, 0.5)),
                   partial(composed_xy_square_integral, (0.0, 0.0, 0.5, 0.1, 0.005))),
}


def test_composed_xy_oracle_matches_the_xy_closed_form():
    for lam in (10.0, 100.0):
        assert composed_xy_square_integral((0.0, 1.0), lam) == pytest.approx(
            xy_square_integral(lam), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("lam", [10.0, 1e2, 1e3])
@pytest.mark.parametrize("name", list(_T3_PHASES))
def test_2d_t3_phases_against_the_log_oracle(name, lam):
    f2, integral = _T3_PHASES[name]
    oracle = integral(lam)
    for cfg in (DEFAULT_CONFIG, SUITE_CONFIG):
        res = osc_integrate_2d(f2, lam, cfg=cfg)
        assert res.converged, cfg
        assert abs(res.value - oracle) <= res.error_estimate, cfg


@pytest.mark.parametrize("name", ["xy", "P(xy)", "x3_y2"])
def test_2d_work_barely_grows_from_1e4_to_1e6(name):
    # Levin in y over the slices' end terms: the y-pieces grow like log lam,
    # and the rectangles set aside near y = 0, whose swing does not grow, are
    # blocks that count one each
    f2, oracle = {
        "xy": (xy_phase(), xy_square_integral),
        "P(xy)": (_XY_D2, lambda lam: product_monomial_integral(_XY_D2, lam).value),
        "x3_y2": (_X3_Y2, lambda lam: product_monomial_integral(_X3_Y2, lam).value),
    }[name]
    for cfg in (DEFAULT_CONFIG, SUITE_CONFIG):
        used = []
        for lam in (1e4, 1e6):
            res = osc_integrate_2d(f2, lam, cfg=cfg)
            assert abs(res.value - oracle(lam)) <= res.error_estimate, (cfg, lam)
            used.append(res.panels_used)
        assert used[1] <= 4 * used[0], cfg


# the phases whose set-aside rectangles are blocks: (phase, oracle, degrees in x and y)
_BLOCK_PHASES = {
    "xy": (xy_phase(), xy_square_integral, (1, 1)),
    "P(xy)": (_XY_D2, lambda lam: product_monomial_square_integral(2, 2, 0.5 * lam), (2, 2)),
    "x3_y2": (_X3_Y2, partial(product_monomial_square_integral, 3, 2), (3, 2)),
}


@pytest.mark.parametrize("name", list(_BLOCK_PHASES))
def test_2d_blocks_hold_their_estimate_between_grid_points(name, parts):
    # the bench shifts the packaged grids by seeded fractions of a step, so
    # the blocks are checked at lambdas between any grid's points; each
    # set-aside rectangle is a block, with at most ceil(n BLOCK_SWING /
    # _PANEL_SWING) panels along an axis of degree n
    f2, oracle, degrees = _BLOCK_PHASES[name]
    for lam in np.geomspace(10.0, 1e4, 60):
        res = osc_integrate_2d(f2, lam)
        assert abs(res.value - oracle(lam)) <= res.error_estimate, lam
    assert parts["blocks"] and not parts["slices"]
    m = np.concatenate([m for _, _, m in parts["blocks"]])
    assert (m <= np.ceil(np.array(degrees) * BLOCK_SWING / _PANEL_SWING)).all()


# every slice of (x - 1/2)^2 y turns at x = 1/2, so all of [0, 1] is set aside
_TURNS_AT_HALF = product_phase(polynomial_phase([0.25, -1.0, 1.0]), monomial(1, (0.0, 1.0)))


def test_2d_blocks_and_swing_panels_in_one_call(parts):
    # at lambda 1e3 the set-aside rectangles below y = 3/8 are certified under
    # BLOCK_SWING and become blocks, the rest goes to the swing panels
    res = osc_integrate_2d(_TURNS_AT_HALF, 1e3)
    oracle = shifted_square_ramp_integral(1e3, 0.5)
    [(b_lo, b_hi, _)], [(s_lo, s_hi)] = parts["blocks"], parts["slices"]
    assert b_hi.max() == s_lo.min() == 0.375
    assert b_lo.min() == 0.0 and s_hi.max() == 1.0
    assert res.converged
    assert abs(res.value - oracle) <= res.error_estimate
    assert abs(res.value - oracle) <= 1e-10 * abs(oracle)


def test_block_estimate_is_its_pair_difference():
    # xy over the square at lambda 100 turns up to 100 rad across one 32-point
    # panel per axis, past what the rule resolves, and 50 across each of two:
    # the estimate is the coarse sum's error, and the finer sum is the value
    oracle = xy_square_integral(100.0)
    est = []
    for m in (1, 2):
        [value], [err] = _blocks(xy_phase(), np.array([100.0]), np.array([0.0]), np.array([1.0]),
                                 np.array([[m, m]]), np.array([1.0]), np.array([0]))
        assert abs(value - oracle) <= min(err, 1e-14)
        est.append(err)
    assert est[0] > 1e-6 and est[1] < 1e-12


def test_2d_a_block_counts_as_one_panel(parts):
    # at lambda 10 the whole square is one block; at 400 the turning slices
    # leave four, which a budget of three refuses
    assert osc_integrate_2d(xy_phase(), 10.0, cfg=QuadConfig(max_panels=1)).panels_used == 1
    assert osc_integrate_2d(_TURNS_AT_HALF, 400.0, cfg=QuadConfig(max_panels=4)).panels_used == 4
    with pytest.raises(PanelBudgetError):
        osc_integrate_2d(_TURNS_AT_HALF, 400.0, cfg=QuadConfig(max_panels=3))
    assert [lo.size for lo, _, _ in parts["blocks"]] == [1, 4]


@pytest.mark.parametrize("name", list(_BLOCK_PHASES))
def test_2d_negative_lambda_gives_the_conjugate(name, parts):
    f2 = _BLOCK_PHASES[name][0]
    for lam in (30.0, 300.0, 1e4):
        pos, neg = osc_integrate_2d(f2, lam), osc_integrate_2d(f2, -lam)
        assert abs(neg.value - pos.value.conjugate()) <= pos.error_estimate + neg.error_estimate
    assert len(parts["blocks"]) == 6 and not parts["slices"]


def test_2d_takes_the_outer_variable_of_smaller_swing():
    # xy + 1e4 (y - 1/2)^2 / 2 swings 1.25e5 rad in y at lambda 100 and 100 in
    # x; with y outer the y < 0.4 slices are short in swing and the panels
    # there pass the budget, so the integral is taken over the transpose
    c = np.array([[1250.0, -5000.0, 5000.0], [0.0, 1.0, 0.0]])
    res = osc_integrate_2d(Phase2D(c, unit_square()), 100.0)
    swapped = osc_integrate_2d(Phase2D(c.T, unit_square()), 100.0)
    assert res.converged and swapped.converged
    assert abs(res.value - swapped.value) <= res.error_estimate + swapped.error_estimate
    assert abs(res.value) == pytest.approx(1.15e-5, rel=0.01)  # stationary phase


def test_2d_packaged_phases_keep_y_outer():
    # a tie of edge swings keeps y, so no packaged phase changes orientation
    for f2 in [p for p, _ in _T3_PHASES.values()] + [_X3_Y2, _x_plus_y(unit_square())]:
        assert _outer_second(f2) is f2


def _t3_grid() -> list[float]:
    """The lambdas the packaged T3 run integrates: its soundness grid and hi rows."""
    from oscint.harness import _grid, load_config

    opt = load_config("T3", "default").options
    return [float(lam) for lam in _grid(opt["lambda_sound"])] + [
        float(lam) for case in opt["cases"] for lam in case.get("hi_rows", ())]


def _budget_outcome(run):
    """``run()``'s results, or the |lambda| its PANEL_BUDGET error names."""
    try:
        return run()
    except PanelBudgetError as exc:
        return exc.context["lam_abs"]


class TestOscIntegrate2DSweep:
    @pytest.mark.parametrize("name", [*_T3_PHASES, "x3_y2", "turns"])
    def test_each_lambda_gets_its_lone_integral(self, name, parts):
        if name in _T3_PHASES:
            # the packaged T3 grid, shuffled, with one lambda twice, a zero
            # lambda and negative ones
            f2 = _T3_PHASES[name][0]
            lams = np.random.default_rng(20261021).permutation(_t3_grid()).tolist()
            lams.insert(4, lams[9])
            lams += [0.0, -lams[2], -30.0]
        else:
            # T4's cross-check lambdas; at 1e3 the turning slices put blocks
            # and swing panels in one call
            f2, lams = {"x3_y2": (_X3_Y2, [316.0, 1000.0]),
                        "turns": (_TURNS_AT_HALF, [1e3, 0.0, 400.0])}[name]
        for cfg in (DEFAULT_CONFIG, SUITE_CONFIG):
            assert osc_integrate_2d_sweep(f2, lams, cfg) == [
                osc_integrate_2d(f2, lam, cfg=cfg) for lam in lams], cfg
        assert parts["blocks"] and bool(parts["slices"]) == (name == "turns")

    def test_each_lambda_has_the_whole_budget(self):
        lams = [300.0, 1e3]
        used = [osc_integrate_2d(_X3_Y2, lam).panels_used for lam in lams]
        cfg = QuadConfig(max_panels=max(used))
        sweep = osc_integrate_2d_sweep(_X3_Y2, lams, cfg)
        assert [r.panels_used for r in sweep] == used and sum(used) > cfg.max_panels

    def test_raises_exactly_where_a_lone_lambda_raises(self, monkeypatch):
        # with two pieces a chunk, the outer rounds that hold three pieces of
        # one lambda split them across two chunks, the second of which must
        # see the budget the first left, as in the lambda's lone call; each
        # budget here lets both, one or neither lambda through alone
        monkeypatch.setattr("oscint.quadrature._LEVIN_CHUNK", 2)
        lams = [1e3, 300.0]
        used = [osc_integrate_2d(_X3_Y2, lam).panels_used for lam in lams]
        for budget in sorted({1, 20, 500, *used, *(u - 1 for u in used)}):
            cfg = QuadConfig(max_panels=budget)
            lone = [_budget_outcome(lambda: osc_integrate_2d(_X3_Y2, lam, cfg=cfg))
                    for lam in lams]
            sweep = _budget_outcome(lambda: osc_integrate_2d_sweep(_X3_Y2, lams, cfg))
            if all(isinstance(r, QuadResult) for r in lone):
                assert sweep == lone, budget
            else:
                assert sweep in lone, budget
        assert isinstance(_budget_outcome(lambda: osc_integrate_2d_sweep(
            _X3_Y2, lams, QuadConfig(max_panels=used[1]))), float)


@pytest.mark.parametrize("cfg", [DEFAULT_CONFIG, SUITE_CONFIG], ids=["default", "suite"])
def test_error_estimate_bounds_composed_error(cfg):
    # P(x^3) with P = t^2/2 is x^6/2, and T7's |x^2|^1.5 is x^3
    half_x6 = compose_with_polynomial(monomial(3, (0.0, 1.0)), [0.0, 0.0, 0.5])
    x3 = compose_with_power(monomial(2, (0.0, 1.0)), 1.5)
    for lam in np.logspace(1.0, 8.0, 15):
        res = osc_integrate_1d(half_x6, lam, cfg=cfg)
        assert abs(res.value - monomial_profile_gamma(6, lam / 2.0)) <= res.error_estimate, lam
        res = osc_integrate_1d(x3, lam, cfg=cfg)
        assert abs(res.value - monomial_profile_gamma(3, lam)) <= res.error_estimate, lam


def _stationary_points(g, dg, a, b):
    """Zeros of dg on [a, b]: float-grid sign changes polished by mpmath."""
    xs = np.linspace(a, b, 4001)
    d = dg(xs)
    return [float(mp.findroot(g, (xs[i], xs[i + 1]), solver="anderson"))
            for i in np.flatnonzero(np.sign(d[:-1]) * np.sign(d[1:]) < 0)]


# (phase, its mpmath form, its derivative on floats)
_MPMATH_CASES = {
    "monomial_sin": (monomial_sin(2, 0.05, 12.0),
                     lambda x: x**2 + mp.mpf(0.05) * mp.sin(12 * x),
                     lambda x: 2.0 * x + 0.6 * np.cos(12.0 * x)),
    "snd_on_x2": (compose_with_polynomial(monomial(2, (0.0, 1.0)), [0.0, 0.5, 0.5]),
                  lambda x: (x**2 + x**4) / 2,
                  lambda x: x + 2.0 * x**3),
}


@pytest.mark.parametrize("lam", [1e2, 1e3, 1e4])
@pytest.mark.parametrize("case", sorted(_MPMATH_CASES))
def test_error_estimate_bounds_error_against_mpmath(case, lam):
    g, g_mp, dg = _MPMATH_CASES[case]
    breaks = _stationary_points(lambda x: mp.diff(g_mp, x), dg, 0.0, 1.0)
    oracle = oscillatory_integral(g_mp, g, lam, 0.0, 1.0, breaks)
    for cfg in (DEFAULT_CONFIG, SUITE_CONFIG):
        res = osc_integrate_1d(g, lam, cfg=cfg)
        assert abs(res.value - oracle) <= res.error_estimate
