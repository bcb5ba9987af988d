import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscint import (
    NotSndError,
    Polynomial,
    PreconditionError,
    RootConvergenceError,
    SndConstant,
    classify,
    cover_ratio,
    cover_violations,
    degenerating_family,
    derivative,
    estimate_B,
    monic_sublevel_cover,
    roots,
    sample_snd,
    snd_sublevel_cover,
    young_cover,
)
from oscint import polynomials
from oscint.decay import geometric_grid

from oracles import (central_diff, companion_eigenvalues, mpmath_band_edges, mpmath_cover_sup,
                     mpmath_roots)


class TestRoots:
    def test_quadratic_real(self):
        rs = roots(Polynomial((-1.0, 0.0, 1.0)))
        np.testing.assert_allclose(sorted(z.real for z in rs.roots), [-1.0, 1.0],
                                   atol=1e-12)

    def test_quadratic_imaginary(self):
        rs = roots(Polynomial((1.0, 0.0, 1.0)))
        assert sorted(z.imag for z in rs.roots) == pytest.approx([-1.0, 1.0])
        # conjugate pairing is exact
        z1, z2 = rs.roots
        assert z1 == np.conj(z2)

    def test_quintic_vs_companion_oracle(self):
        P = Polynomial((-3.0, 1.0, 0.0, -2.0, 0.0, 1.0))  # x^5 - 2x^3 + x - 3
        rs = roots(P, tol=1e-10)
        ours = np.sort_complex(np.asarray(rs.roots))
        oracle = companion_eigenvalues(P.coeffs)
        np.testing.assert_allclose(ours, oracle, atol=1e-10)
        assert _match_error(rs.roots, mpmath_roots(P.coeffs)) <= 1e-12

    def test_random_degrees_3_to_6_vs_mpmath_oracle(self):
        rng = np.random.default_rng(20261018)
        for _ in range(200):
            P = sample_snd(int(rng.integers(3, 7)), rng)
            assert _match_error(roots(P).roots, mpmath_roots(P.coeffs)) <= 1e-12, P

    def test_degenerating_family_double_root(self):
        eta = 1e-4
        rs = roots(degenerating_family(2, eta))
        rho = eta ** -0.5
        assert rs.roots[0] == 0.0
        for z in rs.roots[1:]:
            assert abs(z - rho) <= 1e-5 * rho

    @pytest.mark.parametrize("coeffs", [(-1.0, 0.0, 0.0, 1.0), (1.0, 0.0, 0.0, 0.0, 1.0)])
    def test_complex_roots_come_in_exact_conjugate_pairs(self, coeffs):
        rs = roots(Polynomial(coeffs))  # x^3 - 1, x^4 + 1
        complex_roots = [z for z in rs.roots if z.imag != 0.0]
        assert complex_roots
        for z in complex_roots:
            assert any(z == np.conj(w) for w in rs.roots)

    def test_residual_invariant(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            d = int(rng.integers(1, 7))
            c = rng.uniform(-1, 1, size=d + 1)
            c[-1] = c[-1] if abs(c[-1]) > 0.1 else 1.0
            P = Polynomial(tuple(c))
            rs = roots(P, tol=1e-9)
            resid = np.max(np.abs(np.polynomial.polynomial.polyval(np.asarray(rs.roots), c)))
            assert resid <= 1e-9 * (1.0 + np.abs(c).max()) * 10
            assert rs.count == P.degree


def _match_error(found, oracle) -> float:
    """Largest distance, relative to max(1, |z|), from each found root to the
    nearest oracle root not yet matched."""
    left = list(oracle)
    assert len(found) == len(left)
    worst = 0.0
    for z in found:
        i = int(np.argmin([abs(z - w) for w in left]))
        worst = max(worst, abs(z - left.pop(i)) / max(1.0, abs(z)))
    return worst


class TestDerivative:
    def test_examples(self):
        assert derivative(Polynomial((0.0, 0.0, 0.0, 1.0))).coeffs == (0.0, 0.0, 3.0)
        assert derivative(Polynomial((0.0, 5.0, 0.5))).coeffs == (5.0, 1.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        c = rng.uniform(-1, 1, size=7)
        c[-1] = 1.0
        P = Polynomial(tuple(c))
        dP = derivative(P)
        for x in np.linspace(-0.9, 0.9, 20):
            fd = central_diff(P, float(x))
            assert abs(fd - dP(x)) < 1e-8


class TestClassify:
    def test_monic_and_snd(self):
        rep = classify(Polynomial((0.0, 0.5, 0.0, 1.0)))  # x^3 + 0.5x
        assert rep.label == "monic" and rep.is_snd and rep.attaining_j == 0

    def test_snd_midway(self):
        rep = classify(Polynomial((0.1, 0.0, 1.0, 0.5)))  # 0.5x^3 + x^2 + 0.1
        assert rep.label == "SND" and rep.attaining_j == 1

    def test_other(self):
        rep = classify(Polynomial((0.0, 1.0, 0.2, 0.1)))  # 0.1x^3 + 0.2x^2 + x
        assert rep.label == "other" and not rep.is_snd

    def test_scale_checking_not_invariant(self):
        base = Polynomial((0.1, 1.0, 0.3))
        assert classify(base).label == "SND"
        scaled = base.scaled(2.0)
        rep = classify(scaled)
        assert rep.label == "other"
        assert rep.rescale == pytest.approx(0.5)


class TestYoungCover:
    def test_two_equal_factors(self):
        yc = young_cover([(1.0, 1.0), (1.0, 1.0)], 0.09)
        assert yc.delta == pytest.approx(0.5)
        assert yc.C == pytest.approx(2.0)
        assert yc.thresholds == pytest.approx((0.3, 0.3))

    def test_quarter(self):
        yc = young_cover([(1.0, 0.5), (1.0, 0.5)], 0.1)
        assert yc.delta == pytest.approx(0.25)

    def test_three_factors(self):
        yc = young_cover([(1.0, 1.0)] * 3, 0.008)
        assert yc.delta == pytest.approx(1.0 / 3.0)
        assert yc.thresholds == pytest.approx((0.2,) * 3)

    @given(st.lists(st.floats(0.2, 1.0), min_size=2, max_size=4),
           st.floats(1e-3, 0.5))
    @settings(max_examples=40, deadline=None)
    def test_inclusion_property(self, deltas, eps):
        rng = np.random.default_rng(int(1e6 * eps))
        xs = np.linspace(-2.0, 2.0, 801)
        vals = [np.abs(np.polynomial.polynomial.polyval(
            xs, rng.uniform(-1, 1, size=3))) for _ in deltas]
        yc = young_cover([(1.0, d) for d in deltas], eps)
        prod = np.ones_like(xs)
        for v in vals:
            prod = prod * v
        inside = prod <= eps
        covered = np.zeros_like(inside)
        for v, thr in zip(vals, yc.thresholds):
            covered |= v <= thr
        assert not (inside & ~covered).any()


class TestCovers:
    def test_monic_square(self):
        cover = monic_sublevel_cover(Polynomial((0.0, 0.0, 1.0)), 0.1)
        assert len(cover) == 1
        np.testing.assert_allclose((cover[0].lo, cover[0].hi), (-0.1, 0.1), atol=1e-9)

    def test_monic_two_roots(self):
        cover = monic_sublevel_cover(Polynomial((-1.0, 0.0, 1.0)), 0.1)
        assert len(cover) == 2
        np.testing.assert_allclose((cover[0].lo, cover[0].hi), (-1.1, -0.9), atol=1e-9)
        xs = np.linspace(-2, 2, 4001)
        P = Polynomial((-1.0, 0.0, 1.0))
        inside = xs[np.abs(P(xs)) <= 0.01]
        for x in inside:
            assert any(c.lo - 1e-9 <= x <= c.hi + 1e-9 for c in cover)

    def test_monic_empty_sublevel(self):
        cover = monic_sublevel_cover(Polynomial((1.0, 0.0, 1.0)), 0.5)
        assert len(cover) == 1
        np.testing.assert_allclose((cover[0].lo, cover[0].hi), (-0.5, 0.5), atol=1e-9)

    def test_violation_rows_equal_one_row_calls(self):
        rng = np.random.default_rng(3)
        c = rng.uniform(-1.0, 1.0, size=(2 * polynomials.COVER_CHUNK + 3, 5))
        c[:, -1] = 1.0
        eps = rng.uniform(0.05, 1.0, size=c.shape[0])
        rows = polynomials.cover_violations_rows(c, 0.5, eps)
        assert rows == [cover_violations(Polynomial(tuple(r)), 0.5, e) for r, e in zip(c, eps)]
        assert any(rows) and not all(rows)

    def test_violation_row_failing_the_root_check_is_named(self, monkeypatch):
        monkeypatch.setattr(polynomials, "COVER_ROOT_TOL", -1.0)
        with pytest.raises(RootConvergenceError, match="in row 0") as err:
            polynomials.cover_violations_rows(np.array([[0.5, -0.2, 0.1, 1.0]]), 1.0,
                                              np.array([0.5]))
        assert err.value.context == {"degree": 3, "row": 0}

    def test_monic_inclusion_random(self):
        rng = np.random.default_rng(42)
        for _ in range(150):
            d = int(rng.integers(1, 7))
            c = rng.uniform(-1, 1, size=d + 1)
            c[-1] = 1.0
            P = Polynomial(tuple(c))
            eps = float(rng.uniform(0.05, 1.0))
            assert cover_violations(P, 1.0, eps) == []
            ratio = cover_ratio(P)
            assert ratio <= 1.0 + 1e-6

    def test_snd_cover_basic(self):
        cover = snd_sublevel_cover(Polynomial((0.0, 1.0)), 0.3, SndConstant(1, 1.0))
        assert len(cover) == 1
        np.testing.assert_allclose((cover[0].lo, cover[0].hi), (-0.3, 0.3), atol=1e-12)

    def test_snd_rejects_non_snd(self):
        with pytest.raises(NotSndError):
            snd_sublevel_cover(Polynomial((0.0, 1.0, 0.2, 0.1)), 0.1, SndConstant(2, 2.0))

    def test_snd_eps_boundary_warns(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            snd_sublevel_cover(Polynomial((0.0, 1.0, 0.5)), 1.0, SndConstant(1, 1.0))
        assert any("boundary" in str(w.message) for w in caught)
        with pytest.raises(PreconditionError):
            snd_sublevel_cover(Polynomial((0.0, 1.0, 0.5)), 1.2, SndConstant(1, 1.0))

    def test_snd_random_covered_with_estimate(self):
        B = estimate_B(3, trials=120, seed=5)
        for t in range(120):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=(5, 3, t)))
            P = sample_snd(3, rng)
            ratio = cover_ratio(P)
            assert ratio <= B.B + 1e-9


class TestEstimateB:
    def test_degree_one_exact(self):
        assert estimate_B(1).B == 1.0

    def test_reproducible_under_seed(self):
        a = estimate_B(2, trials=150, seed=99)
        b = estimate_B(2, trials=150, seed=99)
        assert a.B == b.B
        assert a.B >= 1.0

    def test_per_trial_ratios_returned(self):
        # the cover ratios of the seeded draws in trial order; they take no
        # part in comparison
        B = estimate_B(2, trials=100, seed=3)
        assert len(B.ratios) == 100 and max(B.ratios) <= B.B
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(3, 2, 7)))
        ratio = cover_ratio(sample_snd(2, rng))
        assert B.ratios[7] == ratio
        assert B == SndConstant(2, B.B)

    @pytest.mark.parametrize("d, seed", [(2, 3), (3, 8)])
    def test_worst_ratio_rounded_up_to_two_digits(self, d, seed):
        B = estimate_B(d, trials=100, seed=seed)
        worst = max(B.ratios)
        assert worst > 1.0
        quantum = 10.0 ** (math.floor(math.log10(worst)) - 1)
        assert worst <= B.B < worst + quantum
        assert B.B / quantum == pytest.approx(round(B.B / quantum), abs=1e-9)

    def test_rounded_value_is_the_decimal_itself(self):
        # 24 quanta of 0.1 multiply out to 2.4000000000000004
        assert estimate_B(2, trials=200, seed=1).B == 2.4

    def test_requires_enough_trials(self):
        with pytest.raises(PreconditionError):
            estimate_B(2, trials=10)

    @pytest.mark.parametrize("d", [2, 4])
    def test_batched_ratios_equal_per_trial_cover_ratio(self, d):
        # more trials than one chunk of the cover kernel
        trials = max(100, 2 * polynomials.COVER_CHUNK) + 5
        B = estimate_B(d, trials=trials, seed=5)
        one_by_one = [cover_ratio(sample_snd(d, np.random.default_rng(
            np.random.SeedSequence(entropy=(5, d, t))))) for t in range(trials)]
        assert list(B.ratios) == one_by_one
        assert B.retried == ()

    def test_retry_changes_the_check_not_the_ratios(self, monkeypatch):
        strict = estimate_B(3, trials=100, seed=7)
        # a negative tolerance fails every row's residual check
        monkeypatch.setattr(polynomials, "COVER_ROOT_TOL", -1.0)
        retried = estimate_B(3, trials=100, seed=7)
        assert retried.ratios == strict.ratios and retried.B == strict.B
        assert retried.retried == tuple(range(100))

    def test_trial_failing_both_root_checks_raises_naming_it(self, monkeypatch):
        monkeypatch.setattr(polynomials, "COVER_ROOT_TOL", -1.0)
        monkeypatch.setattr(polynomials, "RETRY_ROOT_TOL", -1.0)
        with pytest.raises(RootConvergenceError, match="at trial 0") as err:
            estimate_B(4, trials=100, seed=7)
        assert err.value.context == {"degree": 4, "trial": 0}

    def test_degree_comparison_computed(self):
        # the double-root family (t+a)^2/(2a), a <= 2, forces ratios near 2 at
        # degree 2, while uniform sampling at degree 3 stays lower: the
        # empirical constant is not monotone in d for this sampler
        b2 = estimate_B(2, trials=300, seed=11 + 2)
        b3 = estimate_B(3, trials=300, seed=11 + 3)
        assert b2.B >= 2.0
        assert 1.0 <= b3.B <= b2.B


class TestDegeneratingFamily:
    def test_eta_one_expansion(self):
        P = degenerating_family(2, 1.0)
        np.testing.assert_allclose(P.coeffs, (0.0, 1.0, -2.0, 1.0), atol=1e-14)

    def test_matches_convolution_oracle(self):
        eta = 0.25
        rho = eta ** (-0.5)
        left = np.zeros(2)
        left[1] = 1.0  # x
        sq = np.array([rho**2, -2.0 * rho, 1.0])  # (x - rho)^2
        expected = eta * np.convolve(left, sq)
        P = degenerating_family(2, eta)
        np.testing.assert_allclose(P.coeffs, expected, rtol=1e-13)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_degree(self, k):
        assert degenerating_family(k, 0.5).degree == 2 * k - 1

    def test_cover_failure_witness(self):
        P = degenerating_family(2, 1e-4)
        bad = cover_violations(P, 1.5, 1.0)
        assert bad, "expected a violation witness for the degenerate family"
        w = bad[0]
        assert w["dist"] > 1.5


def test_polynomial_validation():
    with pytest.raises(PreconditionError):
        Polynomial(())
    with pytest.raises(PreconditionError):
        Polynomial((0.0, 0.0))
    assert Polynomial((1.0, 2.0, 0.0)).degree == 1


def _oracle_points(P, eps_values):
    """Per eps: the band edges of {|P| <= eps^d} from mpmath, the midpoints
    between neighbouring root real parts that lie in a band, and each point's
    distance to the nearest real part of P's mpmath roots."""
    re = np.unique(mpmath_roots(P.coeffs).real)
    mids = 0.5 * (re[:-1] + re[1:])
    out = []
    for eps in eps_values:
        level = eps ** P.degree
        edges = mpmath_band_edges(P.coeffs, level)
        bands = [(a, b) for a, b in zip(edges[:-1], edges[1:]) if abs(P(0.5 * (a + b))) <= level]
        pts = np.concatenate([edges, [m for m in mids if any(a <= m <= b for a, b in bands)]])
        out.append((pts, np.min(np.abs(pts[:, None] - re[None, :]), axis=1, initial=np.inf)))
    return out


def _oracle_ratio(P, eps_values):
    """The oracle's sup of dist/eps, and the eps attaining it."""
    ratios = [dist.max(initial=0.0) / eps
              for eps, (_, dist) in zip(eps_values, _oracle_points(P, eps_values))]
    i = int(np.argmax(ratios))
    return ratios[i], float(eps_values[i])


def _assert_violations_match(P, eps, rtol):
    """At half the oracle's worst radius, the violations are exactly the
    oracle's points beyond it."""
    [(pts, dist)] = _oracle_points(P, [eps])
    scale = 0.5 * dist.max() / eps
    bad = cover_violations(P, scale, eps)
    np.testing.assert_allclose([b["x"] for b in bad], np.sort(pts[dist > scale * eps]),
                               rtol=rtol, err_msg=str(P))
    assert all(b["abs_P"] <= (1.0 + 1e-6) * eps ** P.degree and b["eps"] == eps for b in bad)


# The double root of degenerating_family(2, eta) at eta^(-1/2) is fixed in
# floating point only to about sqrt(machine eps) times its size, and so are
# the band edges beside it: at eps = 1 that moves the ratio by a few parts
# in 1e7.  Simple roots fix every edge to about 1e-12.
_DOUBLE_ROOT_RTOL = 1e-6
_SIMPLE_ROOT_RTOL = 1e-9
_ORACLE_EPS = np.geomspace(1e-2, 1.0, 5)
_EPS_51 = geometric_grid(polynomials.COVER_T_LO, 1.0, 25)  # 51 eps, 25 per decade


def _grid_ratio(P, eps, chunk=2500):
    """The sampled ratio: the max over the grid ``eps`` of the sup of dist/eps
    over the band edges and in-set midpoints of {|P| <= eps^d}."""
    c = np.array([P.coeffs])
    re = polynomials._root_rows(c, np.inf)[0].real
    eps = np.asarray(eps, dtype=float)
    worst = 0.0
    for lo in range(0, eps.size, chunk):
        e = eps[lo:lo + chunk]
        _, _, dist, keep = polynomials._band_candidates(c, re, e[None, :])
        worst = max(worst, float((np.where(keep, dist, 0.0).max(axis=2)[0] / e).max()))
    return worst


@pytest.mark.parametrize("eta", [1e-1, 1e-2, 1e-3, 1e-4, 1e-5])
def test_cover_ratio_matches_mpmath_band_edges_on_the_degenerating_family(eta):
    P = degenerating_family(2, eta)
    assert cover_ratio(P) == pytest.approx(mpmath_cover_sup(P.coeffs, polynomials.COVER_T_LO),
                                           rel=_DOUBLE_ROOT_RTOL)
    _assert_violations_match(P, _oracle_ratio(P, _EPS_51)[1], _DOUBLE_ROOT_RTOL)


def test_cover_ratio_matches_mpmath_band_edges_on_snd_draws():
    # the exact sup's candidates at 50 digits; violations per eps, at the
    # eps of the worst band-edge ratio on a 5-point grid
    for t in range(100):
        d = 2 + t % 5
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(12, d, t)))
        P = sample_snd(d, rng)
        assert cover_ratio(P) == pytest.approx(mpmath_cover_sup(P.coeffs, polynomials.COVER_T_LO),
                                               rel=_SIMPLE_ROOT_RTOL), P
        _assert_violations_match(P, _oracle_ratio(P, _ORACLE_EPS)[1], _SIMPLE_ROOT_RTOL)


def test_cover_ratio_is_not_below_its_own_sample():
    # trial 935 of estimate_B(3, trials=1000, seed=20260415): a 10,000-point
    # grid put its ratio at 1.59993, under the B = 1.6 fitted on that sample;
    # its exact sup is about 1.60032
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(20260415, 3, 935)))
    P = sample_snd(3, rng)
    np.testing.assert_allclose(P.coeffs, (0.64493, -0.97503, -1.0, -0.20886), atol=1e-5)
    ratio = cover_ratio(P)
    assert ratio > 1.6
    assert ratio == pytest.approx(mpmath_cover_sup(P.coeffs, polynomials.COVER_T_LO),
                                  rel=_SIMPLE_ROOT_RTOL)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_exact_ratio_is_at_least_the_51_point_ratio(d):
    B = estimate_B(d, trials=100, seed=7)
    for t, ratio in enumerate(B.ratios):
        P = sample_snd(d, np.random.default_rng(np.random.SeedSequence(entropy=(7, d, t))))
        assert ratio >= _grid_ratio(P, _EPS_51), (d, t)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_exact_ratio_is_the_limit_of_a_fine_grid(d):
    # a 20,001-point grid in eps samples the same sup from below
    fine = np.geomspace(polynomials.COVER_T_LO, 1.0, 20_001)
    for t in range(6):
        P = sample_snd(d, np.random.default_rng(np.random.SeedSequence(entropy=(7, d, t))))
        ratio, grid = cover_ratio(P), _grid_ratio(P, fine)
        assert ratio >= grid * (1.0 - 1e-12), (d, t)
        assert ratio == pytest.approx(grid, rel=1e-3), (d, t)


def test_exact_ratio_peaks_between_grid_points():
    # P' = t + t^2/2 of the SND-only outer polynomial: the midpoint -1 of the
    # roots -2 and 0 enters {|P| <= t^2} at t = 1/sqrt(2), where dist/t = sqrt(2)
    P = Polynomial((0.0, 1.0, 0.5))
    assert cover_ratio(P) == pytest.approx(math.sqrt(2.0), rel=1e-15, abs=0.0)
    assert _grid_ratio(P, _EPS_51) < 1.32


def test_stationary_rows_drop_in_degree_at_the_centroid():
    # x^3 - x: Q = 3P - (x - 0) P' = -2x for the centre 0, the roots' centroid
    c = np.array([[0.0, -1.0, 0.0, 1.0]])
    re = np.array([[-1.0, 0.0, 1.0]])
    q = polynomials._stationary_rows(c, re)
    np.testing.assert_array_equal(q[0, 1], [0.0, -2.0, 0.0])
    np.testing.assert_array_equal(q[0, 2], [-1.0, -2.0, 3.0])  # (3x + 1)(x - 1)
    P = Polynomial(tuple(c[0]))
    exact = float(polynomials._cover_ratio_rows(c, re)[0])
    assert exact == pytest.approx(mpmath_cover_sup(P.coeffs, polynomials.COVER_T_LO),
                                  rel=_SIMPLE_ROOT_RTOL)
    assert cover_ratio(P) == pytest.approx(exact, rel=_SIMPLE_ROOT_RTOL)
    assert exact >= _grid_ratio(P, np.geomspace(polynomials.COVER_T_LO, 1.0, 20_001))


def test_stationary_row_of_a_complex_pair_is_constant():
    # x^2 + 1: Q = 2P - x P' = 2 for the centre 0 of +-i, and {|P| <= 1} is
    # the one point 0, at distance 0; x^2 + 2 has an empty {|P| <= 1}
    for coeffs in ((1.0, 0.0, 1.0), (2.0, 0.0, 1.0)):
        re = np.array([[0.0, 0.0]])
        np.testing.assert_array_equal(polynomials._stationary_rows(np.array([coeffs]), re)[0],
                                      [[2.0 * coeffs[0], 0.0]] * 2)
        assert cover_ratio(Polynomial(coeffs)) == 0.0


def test_batched_ratio_rows_equal_one_row_calls():
    # draws of one degree with exact degree drops mixed in: x^3 - x, whose
    # centre 0 is the roots' centroid, and (x - 1/2)^3, whose stationary
    # row is zero and whose ratio is 1 at every t
    rng = np.random.default_rng(11)
    c = rng.uniform(-1.0, 1.0, size=(polynomials.COVER_CHUNK + 7, 4))
    c[:2] = [[0.0, -1.0, 0.0, 1.0], [-0.125, 0.75, -1.5, 1.0]]
    re = polynomials._root_rows(c, np.inf)[0].real
    re[:2] = [[-1.0, 0.0, 1.0], [0.5, 0.5, 0.5]]
    assert not polynomials._stationary_rows(c[1:2], re[1:2]).any()
    batched = polynomials._cover_ratio_rows(c, re)
    one_by_one = [polynomials._cover_ratio_rows(c[k:k + 1], re[k:k + 1])[0]
                  for k in range(c.shape[0])]
    assert batched.tolist() == one_by_one
    assert batched[1] == pytest.approx(1.0, rel=_SIMPLE_ROOT_RTOL)


@pytest.mark.parametrize("coeffs", [(math.nan, 1.0), (0.0, math.inf), (1.0, 2.0, -math.inf)])
def test_non_finite_coefficients_are_rejected(coeffs):
    with pytest.raises(PreconditionError, match="finite"):
        Polynomial(coeffs)


@pytest.mark.parametrize("eps", [0.0, -0.1, float("nan")])
def test_cover_checks_reject_non_positive_eps(eps):
    P = Polynomial((-1.0, 0.0, 1.0))
    with pytest.raises(PreconditionError):
        cover_violations(P, 1.0, eps)


def test_sample_snd_without_a_draw_is_a_precondition_error(monkeypatch):
    monkeypatch.setattr(polynomials, "SND_MAX_DRAWS", 0)
    with pytest.raises(PreconditionError, match="SND_MAX_DRAWS"):
        sample_snd(3, np.random.default_rng(0))
