import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from oscint import (
    Interval,
    NonconvergentTailError,
    PreconditionError,
    monomial,
    osc_integrate_1d,
    osc_to_sublevel_constant,
    sublevel_1d,
    sublevel_2d,
    xy_phase,
)
from oscint.decay import DecaySample, fit_decay, geometric_grid
from oscint.harness import load_config
from oscint.phases import (Phase2D, PhaseFunction, PlanarDomain, compose2d_with_polynomial,
                           unit_square, xy_quad_phase)
from oscint.quadrature import _adaptive_slots, adaptive_quad
from oscint import phases, sublevel
from oscint.sublevel import _bump, sublevel_rows


class TestSublevel1D:
    def test_linear(self):
        f = monomial(1, (0.0, 1.0))
        res = sublevel_1d(f, 0.5, 0.1)
        assert res.measure == pytest.approx(0.2, abs=1e-11)
        assert len(res.components) == 1
        np.testing.assert_allclose(
            (res.components[0].lo, res.components[0].hi), (0.4, 0.6), atol=1e-11)

    @pytest.mark.parametrize("eps", [1e-4, 1e-2, 0.3])
    def test_square_at_zero(self, eps):
        f = monomial(2, (-1.0, 1.0))
        res = sublevel_1d(f, 0.0, eps)
        assert res.measure == pytest.approx(2.0 * math.sqrt(eps), rel=1e-9)
        assert len(res.components) == 1

    def test_square_two_components(self):
        f = monomial(2, (-1.0, 1.0))
        res = sublevel_1d(f, 0.25, 0.05)
        assert len(res.components) == 2
        lo, hi = res.components[1].lo, res.components[1].hi
        assert lo == pytest.approx(math.sqrt(0.2), abs=1e-10)
        assert hi == pytest.approx(math.sqrt(0.3), abs=1e-10)

    def test_monotone_and_nested_in_eps(self):
        f = monomial(3, (-1.0, 1.0))
        prev = None
        for eps in (0.01, 0.05, 0.2, 0.7):
            res = sublevel_1d(f, 0.1, eps)
            if prev is not None:
                assert res.measure >= prev.measure
                for comp_small in prev.components:
                    assert any(c.lo - 1e-10 <= comp_small.lo and
                               comp_small.hi <= c.hi + 1e-10
                               for c in res.components)
            prev = res

    def test_measure_equals_component_lengths(self):
        f = monomial(2, (-1.0, 1.0))
        res = sublevel_1d(f, 0.3, 0.12)
        assert res.measure == pytest.approx(
            sum(c.length for c in res.components), abs=1e-10)


class TestSublevel2D:
    def test_band_between_lines(self):
        f2 = Phase2D(((0.0, 1.0), (1.0, 0.0)), unit_square(), name="x+y")
        m, _, converged = sublevel_2d(f2, 1.0, 0.1)
        assert converged
        assert m == pytest.approx(0.19, rel=1e-6)

    @pytest.mark.parametrize("eps", [1e-3, 1e-2])
    def test_xy_log_formula(self, eps):
        m, _, converged = sublevel_2d(xy_phase(), 0.0, eps)
        assert converged
        exact = eps * (1.0 + math.log(1.0 / eps))
        assert m == pytest.approx(exact, rel=1e-6)

    def test_saturates_at_area(self):
        m, _, converged = sublevel_2d(xy_phase(), 0.0, 2.0)
        assert converged
        assert m == pytest.approx(1.0, rel=1e-9)


class TestConstant:
    def test_finite_at_half(self):
        C = osc_to_sublevel_constant(0.5)
        assert math.isfinite(C.C_delta) and C.C_delta > 0
        again = osc_to_sublevel_constant(0.5)
        assert abs(again.C_delta - C.C_delta) < 1e-6 * C.C_delta

    def test_monotone_probe(self):
        assert (osc_to_sublevel_constant(0.9).C_delta
                > osc_to_sublevel_constant(0.5).C_delta)

    def test_validity_against_measured_sublevels(self):
        f = monomial(2, (0.0, 1.0))
        delta = 0.5
        samples = [
            (lambda q: DecaySample(q.lam, abs(q.value), q.error_estimate))(
                osc_integrate_1d(f, float(l)))
            for l in geometric_grid(1e2, 1e5, 8)
        ]
        A = max(1.0, fit_decay(samples).C_hat)
        C = osc_to_sublevel_constant(delta)
        for eps in np.geomspace(1e-3, 0.5, 12):
            res = sublevel_1d(f, 0.2, float(eps))
            assert res.measure <= C.C_delta * A * eps**delta

    def test_domain_check(self):
        with pytest.raises(PreconditionError):
            osc_to_sublevel_constant(1.0)

    def test_tail_guard(self, monkeypatch):
        monkeypatch.setattr(sublevel, "XI_CUTOFF", 4.0)
        with pytest.raises(NonconvergentTailError):
            osc_to_sublevel_constant(0.5)

    def test_three_quadratures(self, monkeypatch):
        # the head, the body to XI_CUTOFF and the tail: three slots of one
        # call, each over its segments
        calls = []

        def counted(fvec, a, b, slot, n_slots, *args):
            calls.append((a, b, slot, n_slots))
            return _adaptive_slots(fvec, a, b, slot, n_slots, *args)

        monkeypatch.setattr(sublevel, "_constant_cache", {})
        monkeypatch.setattr(sublevel, "_adaptive_slots", counted)
        C = osc_to_sublevel_constant(0.5)
        assert len(calls) == 1 and C.converged
        a, b, slot, n_slots = calls[0]
        assert n_slots == 3 and slot.tolist() == sorted(slot.tolist()) and set(slot) == {0, 1, 2}
        assert a[slot == 0].tolist() == [0.0]
        assert b[slot == 1][-1] == a[slot == 2][0] == sublevel.XI_CUTOFF
        assert b[slot == 2][-1] == 2.0 * sublevel.XI_CUTOFF

    def test_one_slot_call_keeps_the_bits_of_three_lone_calls(self, monkeypatch):
        # each slot's samples are evaluated apart from the others', so the
        # constant is that of the head, body and tail integrated one by one
        monkeypatch.setattr(sublevel, "_constant_cache", {})
        delta = 1.0 / 3.0
        bump = sublevel._bump()
        zeros = bump.sign_change_points(2.0 * sublevel.XI_CUTOFF)
        body = np.concatenate([zeros[zeros < sublevel.XI_CUTOFF], [sublevel.XI_CUTOFF]])
        far = np.concatenate([[sublevel.XI_CUTOFF], zeros[zeros > sublevel.XI_CUTOFF],
                              [2.0 * sublevel.XI_CUTOFF]])
        power = 1.0 / (1.0 - delta)
        head = adaptive_quad(lambda u: np.abs(bump.transform_vec(u**power)), 0.0,
                             body[0] ** (1.0 - delta))[0]
        weighted = lambda x: np.abs(bump.transform_vec(x)) * x ** (-delta)
        rest = adaptive_quad(weighted, body[:-1], body[1:])[0]
        assert osc_to_sublevel_constant(delta).C_delta == 2.0 * (power * head + rest)

    def test_cutoff_off_a_sinc_zero(self, monkeypatch):
        # 64.1 is no zero of the transform, and still cuts body from tail
        monkeypatch.setattr(sublevel, "XI_CUTOFF", 64.1)
        assert osc_to_sublevel_constant(0.5).C_delta == pytest.approx(5.616516938071103,
                                                                      rel=1e-9)

    # computed independently from a tabulated bump and its direct cosine
    # transform; any correct transform of the same bump reproduces them
    @pytest.mark.parametrize("delta, expected", [
        (0.25, 2.7106214649484213),
        (1.0 / 3.0, 3.380857473742387),
        (0.5, 5.616516938071103),
        (2.0 / 3.0, 10.678475556012858),
    ])
    def test_frozen_values(self, delta, expected):
        assert osc_to_sublevel_constant(delta).C_delta == pytest.approx(expected, rel=1e-9)


def _gauss(fn, lo, hi, panels, order=64):
    """Composite Gauss-Legendre integral of fn over [lo, hi] (arrays broadcast)."""
    t, w = leggauss(order)
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    edges = lo[..., None] + (hi - lo)[..., None] * np.linspace(0.0, 1.0, panels + 1)
    mid = 0.5 * (edges[..., :-1] + edges[..., 1:])
    half = 0.5 * (edges[..., 1:] - edges[..., :-1])
    return ((fn(mid[..., None] + half[..., None] * t) @ w) * half).sum(axis=-1)


def _phi_by_convolution(x):
    """phi(x) = int rho_h(s) over |s| < h, |x - s| <= 1.5, with h = 1/2."""

    def rho(t):
        out = np.zeros_like(t)
        inside = np.abs(t) < 1.0
        out[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
        return out

    norm = _gauss(rho, -1.0, 1.0, panels=8)
    lo = np.maximum(-0.5, x - 1.5)
    hi = np.maximum(lo, np.minimum(0.5, x + 1.5))
    return _gauss(lambda s: rho(2.0 * s) * 2.0, lo, hi, panels=8) / norm


class TestBumpTransform:
    def test_matches_direct_cosine_transform(self):
        xis = np.array([0.05, 0.4, 1.3, 2.9, 7.7])
        direct = [2.0 * _gauss(lambda x: _phi_by_convolution(x) * np.cos(2 * np.pi * xi * x),
                               0.0, 2.0, panels=32, order=32)
                  for xi in xis]
        np.testing.assert_allclose(_bump().transform_vec(xis), direct,
                                   rtol=0.0, atol=1e-11)

    def test_value_at_zero_is_bump_area(self):
        assert float(_bump().transform_vec(0.0)[0]) == pytest.approx(3.0, rel=1e-13)

    def test_sinc_zeros_are_sign_changes(self):
        hi = 128.0
        zeros = _bump().sign_change_points(hi)
        sinc_zeros = np.arange(1, int(3 * hi) + 1) / 3.0
        gap = np.abs(zeros[None, :] - sinc_zeros[:, None]).min(axis=1)
        assert gap.max() <= 1e-12


def test_component_count_stays_bounded():
    # desk-scale conjecture: a phase with the N-th derivative bounded below
    # produces at most 2N band components
    rng = np.random.default_rng(12)
    for n in (2, 3, 4):
        f = monomial(n, (-1.0, 1.0))
        for _ in range(20):
            c = float(rng.uniform(-1.0, 1.0))
            eps = float(rng.uniform(1e-3, 0.5))
            res = sublevel_1d(f, c, eps)
            assert len(res.components) <= 2 * n


def test_sublevel_rejects_bad_eps():
    with pytest.raises(PreconditionError):
        sublevel_1d(monomial(2, (0.0, 1.0)), 0.0, -1.0)


def _linear_x(domain=None):
    return Phase2D(((0.0,), (1.0,)), domain or unit_square(), name="x")


@pytest.mark.parametrize("c, eps, exact", [(0.5, 0.25, 0.5), (0.375, 0.125, 0.25)])
def test_band_edge_on_a_scan_point(c, eps, exact):
    # both band edges of f = x are dyadic points of [0, 1]
    assert sublevel_2d(_linear_x(), c, eps)[0] == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("c, eps, exact", [(1.0, 0.3, 0.45), (0.6, 0.3, 0.3)])
def test_band_area_on_a_rectangle(c, eps, exact):
    # on [0.5, 2] x [1, 1.75] the band of f = x is [c - eps, c + eps] cut to
    # [0.5, 2], times the height 0.75
    f2 = _linear_x(PlanarDomain(0.5, 2.0, 1.0, 1.75))
    assert sublevel_2d(f2, c, eps)[0] == pytest.approx(exact, rel=1e-12)


# sublevel_2d(xy, 0, eps) before the slice crossings moved to the shared solver
@pytest.mark.parametrize("eps, frozen", [
    (1e-3, 0.007907755278982138),
    (0.02, 0.09824046010856215),
    (0.3, 0.6611918412979129),
])
def test_xy_band_area_parity(eps, frozen):
    assert sublevel_2d(xy_phase(), 0.0, eps)[0] == pytest.approx(frozen, rel=1e-12)


@pytest.mark.parametrize("c, eps", [(0.2, 0.05), (0.5, 0.3), (0.0, 0.01)])
def test_rows_match_sublevel_1d_on_each_slice(c, eps):
    f2 = xy_quad_phase(0.1)
    ys = np.array([0.0, 0.1, 0.37, 0.9, 1.0])
    rows = sublevel_rows(f2, (0, 0), ys, c, eps, Interval(0.0, 1.0))
    for y, coeffs, got in zip(ys, f2.rows_in_x((0, 0), ys), rows):
        ev = lambda k, x, y=y: f2.eval_fn((k, 0), x, np.full_like(x, y))
        row = PhaseFunction(ev, 2, Interval(0.0, 1.0), coeffs=tuple(coeffs))
        assert got == sublevel_1d(row, c, eps).measure
        # the same row without coefficients takes the scan and whole-piece brackets
        scanned = sublevel_1d(PhaseFunction(ev, 2, Interval(0.0, 1.0)), c, eps).measure
        assert abs(got - scanned) <= 2.0 * phases.BISECT_XTOL


def test_band_sets_take_per_row_levels():
    f = monomial(2, (-1.0, 1.0))
    pieces = phases.monotone_partition(f, order_cap=1)
    c = np.array([0.1, -0.4, 0.3, 0.9])
    eps = np.array([0.05, 0.2, 0.01, 0.5])
    row, lo, hi = sublevel.band_sets(lambda x, _: f.eval_fn(0, x), phases.flat_rows(pieces, c.size),
                                     c - eps, c + eps, coeffs=[f.coeffs] * c.size)
    assert np.all(np.diff(row) >= 0)
    assert [[Interval(a, b) for a, b in zip(lo[row == k].tolist(), hi[row == k].tolist())]
            for k in range(c.size)] == [list(sublevel_1d(f, ci, ei).components)
                                        for ci, ei in zip(c, eps)]


def test_rows_take_per_row_levels_and_measure_an_empty_row_as_zero():
    # xy at y = 0.1 meets [0.4, 0.6] only for x in [4, 6]: no band, measure 0.0,
    # also as the last row; the other rows match their lone calls
    f2 = xy_phase()
    ys = np.array([0.9, 0.5, 0.1])
    c, eps = np.array([0.3, 0.2, 0.5]), np.array([0.05, 0.1, 0.1])
    rows = sublevel_rows(f2, (0, 0), ys, c, eps, Interval(0.0, 1.0))
    assert rows.tolist()[2] == 0.0 and rows.size == 3
    for k in range(3):
        assert rows[k] == sublevel_rows(f2, (0, 0), ys[k:k + 1], c[k], eps[k],
                                        Interval(0.0, 1.0))[0]


def _parabola_plus_ramp():
    # (x - 1/2)^2 + y/10
    return Phase2D(((0.25, 0.1), (-1.0, 0.0), (1.0, 0.0)), unit_square(),
                   name="(x-1/2)^2+y/10")


def test_band_area_with_a_monotone_break_per_row():
    # every row turns at x = 1/2, and for y < 1/2 its band has two components
    exact = (40.0 / 3.0) * (0.11**1.5 - 0.01**1.5 - 0.05**1.5)
    assert sublevel_2d(_parabola_plus_ramp(), 0.08, 0.03)[0] == pytest.approx(exact, rel=1e-9)


def test_band_area_of_a_composed_phase():
    # x^2 y^2 / 2 <= eps exactly where |xy| <= sqrt(2 eps)
    eps = 0.02
    area, _, converged = sublevel_2d(compose2d_with_polynomial(xy_phase(), (0.0, 0.0, 0.5)),
                                  0.0, eps)
    assert converged
    assert area == pytest.approx(sublevel_2d(xy_phase(), 0.0, math.sqrt(2.0 * eps))[0],
                                 rel=1e-9)


def test_xy_band_areas_on_the_packaged_grid_are_covered_by_their_estimates():
    # m(y) = min(1, eps / y) kinks at y = eps, where the band edge eps / y
    # meets the side x = 1; cut there, the estimate must cover the error
    opt = load_config("H-LOG").options["eps_grid"]
    for eps in geometric_grid(opt["lo"], opt["hi"], opt["per_decade"]):
        area, err, converged = sublevel_2d(xy_phase(), 0.0, float(eps))
        exact = eps * (1.0 + math.log(1.0 / eps))
        assert converged
        assert abs(area - exact) <= err, eps
        assert abs(area - exact) <= 1e-12 * exact, eps


def test_kink_segments_cut_where_a_band_edge_meets_a_side():
    a, b, slot = sublevel.kink_segments(xy_phase(), (0, 0), (-0.01, 0.01))
    np.testing.assert_allclose(np.append(a, b[-1]), [0.0, 0.01, 1.0], atol=1e-12)
    assert slot.tolist() == [0, 0]
    # one row of levels per slot, each cut at its own kinks
    a, b, slot = sublevel.kink_segments(xy_phase(), (0, 0), [(-0.3, 0.3), (-0.01, 0.01)])
    assert slot.tolist() == [0, 0, 1, 1]
    np.testing.assert_allclose(a, [0.0, 0.3, 0.0, 0.01], atol=1e-12)
    np.testing.assert_allclose(b, [0.3, 1.0, 0.01, 1.0], atol=1e-12)


def _hlog_eps_grid():
    opt = load_config("H-LOG").options["eps_grid"]
    return [float(e) for e in geometric_grid(opt["lo"], opt["hi"], opt["per_decade"])]


def test_sweep_equals_its_lone_calls_bit_for_bit():
    eps = _hlog_eps_grid()
    lone = [sublevel_2d(xy_phase(), 0.0, e) for e in eps]
    assert sublevel.sublevel_2d_sweep(xy_phase(), 0.0, eps) == lone
    # shuffled, and with one eps twice
    order = np.random.default_rng(20261020).permutation(len(eps)).tolist()
    assert sublevel.sublevel_2d_sweep(xy_phase(), 0.0, [eps[k] for k in order]) == \
        [lone[k] for k in order]
    twice = [eps[5], eps[0], eps[5]]
    assert sublevel.sublevel_2d_sweep(xy_phase(), 0.0, twice) == [lone[5], lone[0], lone[5]]
    with pytest.raises(PreconditionError):
        sublevel.sublevel_2d_sweep(xy_phase(), 0.0, [0.1, 0.0])
