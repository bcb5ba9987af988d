import math

import numpy as np
import pytest

from oscint import (
    ConfigError,
    Interval,
    PartitionOverflowError,
    PhaseMeta,
    PlanarDomain,
    PreconditionError,
    compose_with_polynomial,
    compose_with_power,
    monomial,
    monotone_partition,
    phase2d_from_config,
    phase_from_config,
    polynomial_phase,
    product_phase,
    sign_partition,
    sine,
    unit_square,
    xy_quad_phase,
)
from oscint import phases
from oscint.phases import compose2d_with_polynomial, merge_intervals, solve_brackets


def test_sign_partition_x2_order1():
    f = monomial(2, (-1.0, 1.0))
    pieces = sign_partition(f, 1, 1e-9)
    assert len(pieces) == 2
    (iv1, s1), (iv2, s2) = pieces
    assert (s1, s2) == (-1, 1)
    assert abs(iv1.hi) < 1e-9 and abs(iv2.lo) < 1e-9


def test_sign_partition_x3_order3_single_piece():
    f = monomial(3, (0.0, 1.0))
    pieces = sign_partition(f, 3, 1e-9)
    assert len(pieces) == 1
    assert pieces[0][1] == 1


def test_sign_partition_sin_second_derivative():
    # -sin(x) on [0, 7] crosses zero at pi and 2*pi
    f = sine(1.0, 1.0, (0.0, 7.0))
    pieces = sign_partition(f, 2, 1e-9)
    assert len(pieces) == 3
    np.testing.assert_allclose(pieces[0][0].hi, math.pi, atol=1e-9)
    np.testing.assert_allclose(pieces[1][0].hi, 2.0 * math.pi, atol=1e-9)
    assert [s for _, s in pieces] == [-1, 1, -1]


def test_touching_zero_does_not_split():
    # derivative of x^3 touches zero at 0 without crossing
    f = monomial(3, (-1.0, 1.0))
    pieces = sign_partition(f, 1, 1e-9)
    assert len(pieces) == 1


def test_monotone_partition_examples():
    f = monomial(2, (-1.0, 1.0))
    parts = monotone_partition(f)
    assert len(parts) == 2
    assert abs(parts[0].hi) < 1e-9

    g = polynomial_phase((0.0, -3.0, 0.0, 1.0), (-2.0, 2.0))  # x^3 - 3x
    parts = monotone_partition(g)
    cuts = sorted(p.hi for p in parts[:-1])
    np.testing.assert_allclose(cuts, [-1.0, 0.0, 1.0], atol=1e-9)

    h = monomial(1, (0.0, 1.0))
    assert len(monotone_partition(h)) == 1


def test_partition_tiles_domain():
    f = polynomial_phase((0.3, -1.0, -2.0, 1.0, 1.0), (-2.0, 2.0))
    pieces = sign_partition(f, 1, 1e-10)
    assert pieces[0][0].lo == -2.0 and pieces[-1][0].hi == 2.0
    for (a, _), (b, _) in zip(pieces[:-1], pieces[1:]):
        assert abs(a.hi - b.lo) < 1e-12
    total = sum(iv.length for iv, _ in pieces)
    np.testing.assert_allclose(total, 4.0, atol=1e-12)


def test_refining_tol_never_merges():
    f = polynomial_phase((0.05, -1.0, 0.0, 1.0), (-2.0, 2.0))
    coarse = sign_partition(f, 1, 1e-6)
    fine = sign_partition(f, 1, 1e-12)
    assert len(fine) >= len(coarse)


def test_partition_overflow(monkeypatch):
    monkeypatch.setattr(phases, "PARTITION_CAP", 8)
    f = sine(1.0, 60.0, (0.0, 7.0))
    with pytest.raises(PartitionOverflowError):
        sign_partition(f, 1, 1e-9)


def test_declared_single_sign_order_one_piece():
    f = monomial(4, (-1.0, 1.0))
    assert len(sign_partition(f, 4, 1e-9)) == 1


def test_meta_defaults_delta():
    meta = PhaseMeta(N=3, derivative_lower_bound=6.0)
    assert meta.claimed_delta == pytest.approx(1.0 / 3.0)
    assert PhaseMeta(N=2).claimed_delta is None


def test_phase_from_config():
    f = phase_from_config({"family": "monomial", "n": 3, "domain": [0, 1]})
    assert f.meta.N == 3
    np.testing.assert_allclose(f.eval(0, 0.5), 0.125)
    with pytest.raises(ConfigError):
        phase_from_config({"family": "nope"})


@pytest.mark.parametrize("build, spec, key", [
    (phase_from_config, {"family": "monomial"}, "n"),
    (phase_from_config, {"family": "monomial_sin", "n": 2, "amplitude": 0.1}, "frequency"),
])
def test_family_missing_key_is_a_precondition_error(build, spec, key):
    with pytest.raises(ConfigError, match=f"{spec['family']}.*'{key}'"):
        build(spec)


def test_compose_with_polynomial_derivatives():
    f = monomial(2, (0.0, 1.0))
    comp = compose_with_polynomial(f, (0.0, 0.0, 0.5))  # (x^2)^2 / 2
    xs = np.linspace(0.05, 0.95, 7)
    np.testing.assert_allclose(comp.eval(0, xs), xs**4 / 2.0, rtol=1e-12)
    np.testing.assert_allclose(comp.eval(1, xs), 2.0 * xs**3, rtol=1e-12)


def test_compose_with_power_matches_monomial():
    f = monomial(2, (0.0, 1.0))
    comp = compose_with_power(f, 1.5)  # |x^2|^1.5 = x^3
    xs = np.linspace(0.1, 0.9, 5)
    np.testing.assert_allclose(comp.eval(0, xs), xs**3, rtol=1e-12)
    np.testing.assert_allclose(comp.eval(1, xs), 3.0 * xs**2, rtol=1e-12)


def test_planar_domain_rectangle():
    dom = PlanarDomain(0.5, 2, 1, 1.75)
    assert (dom.ax, dom.bx, dom.ay, dom.by) == (0.5, 2.0, 1.0, 1.75)
    assert isinstance(dom.bx, float)
    assert dom.area == 1.125
    assert dom.y_extent() == Interval(1.0, 1.75)
    assert unit_square() == PlanarDomain(0.0, 1.0, 0.0, 1.0)
    for bad in ((1.0, 1.0, 0.0, 1.0), (0.0, 1.0, 2.0, 1.0), (0.0, float("nan"), 0.0, 1.0)):
        with pytest.raises(PreconditionError):
            PlanarDomain(*bad)


def test_product_phase_takes_its_factors_rectangle():
    f2 = product_phase(monomial(1, (0.5, 2.0)), monomial(1, (1.0, 1.75)))
    assert f2.domain == PlanarDomain(0.5, 2.0, 1.0, 1.75)
    hy = f2.slice_in_y(1.5)
    assert hy.domain == Interval(1.0, 1.75)
    np.testing.assert_allclose(hy.eval(0, np.array([1.2])), 1.5 * 1.2)
    np.testing.assert_allclose(hy.eval(1, np.array([1.2])), 1.5)


def test_xy_quad_mixed_derivative():
    f2 = xy_quad_phase(0.1)
    xs = np.array([0.3])
    ys = np.array([0.7])
    np.testing.assert_allclose(f2.eval((1, 1), xs, ys), 1.0 + 0.4 * 0.3 * 0.7)
    np.testing.assert_allclose(f2.eval((0, 2), xs, ys), 0.2 * 0.09)


def test_composed_planar_x_derivative():
    # P(f) with P = t^2/2 + t^3/3 on xy + 0.1 x^2 y^2: d_x P(f) = (f + f^2) d_x f
    f2 = xy_quad_phase(0.1)
    comp = compose2d_with_polynomial(f2, (0.0, 0.0, 0.5, 1.0 / 3.0))
    xs, ys = np.meshgrid(np.linspace(0.05, 0.95, 5), np.linspace(0.1, 0.9, 4))
    f, fx = f2.eval((0, 0), xs, ys), f2.eval((1, 0), xs, ys)
    np.testing.assert_allclose(comp.eval((0, 0), xs, ys), f**2 / 2.0 + f**3 / 3.0, rtol=1e-14)
    np.testing.assert_allclose(comp.eval((1, 0), xs, ys), (f + f**2) * fx, rtol=1e-14)
    h = 1e-5
    fd = (comp.eval((0, 0), xs + h, ys) - comp.eval((0, 0), xs - h, ys)) / (2.0 * h)
    np.testing.assert_allclose(comp.eval((1, 0), xs, ys), fd, rtol=1e-8)
    assert comp.max_orders == (1, 0)
    with pytest.raises(PreconditionError):
        comp.eval((0, 1), xs, ys)


def test_interval_validation():
    with pytest.raises(PreconditionError):
        Interval(1.0, 0.0)


# ---------------------------------------------------------------------------
# The bracket solver against the scalar loops it replaced
# ---------------------------------------------------------------------------


def _scalar_root(f, lo, hi, flo, xtol=1e-12):
    """The scalar sign-change bisection sign_partition used to run."""
    neg = flo < 0.0
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        fm = float(f(mid))
        if (fm < 0.0) == neg and fm != 0.0:
            lo = mid
        else:
            hi = mid
    return lo, hi


def _scalar_to_value(f, lo, hi, target, xtol=1e-12):
    """The scalar monotone solve of f(x) = target the band code used to run."""
    below = float(f(lo)) - target <= 0.0
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if (float(f(mid)) - target <= 0.0) == below:
            lo = mid
        else:
            hi = mid
    return lo, hi


def _cubic(x):
    x = np.asarray(x, dtype=float)
    return x * x * x - 2.0 * x


# increasing and decreasing brackets of x^3 - 2x, including brackets whose
# end value equals the target exactly
_BRACKETS = [(-1.2, -0.3, 0.6), (0.05, 0.9, -0.5), (1.0, 2.0, 0.5),
             (-0.5, 0.25, 0.0), (-2.0, -1.0, 0.3), (0.0, 1.5, 0.0),
             (1.0, 3.0, -1.0), (-3.0, 0.5, _cubic(0.5)),
             (0.0, 1.5, _cubic(0.75))]  # the first midpoint hits the target


def test_solver_matches_scalar_value_solve_bracket_for_bracket():
    lo, hi, t = (np.array(v) for v in zip(*_BRACKETS))
    got_lo, got_hi = solve_brackets(lambda x, k: _cubic(x) - t[k], lo, hi,
                                    _cubic(lo) - t <= 0.0)
    for i, (a, b, target) in enumerate(_BRACKETS):
        assert (got_lo[i], got_hi[i]) == _scalar_to_value(_cubic, a, b, target)


@pytest.mark.parametrize("fn, lo", [
    (np.cos, [0.5, 2.0, 4.0, 7.5, 10.5]),
    (_cubic, [-1.0, -2.2, 0.9, -0.7]),  # from -1 the first midpoint is the zero 0
])
def test_solver_matches_scalar_root_bisection(fn, lo):
    # sign changes oriented so that g(lo) > 0, as sign_partition does
    lo = np.array(lo)
    hi = lo + 2.0 if fn is _cubic else lo + 1.2
    flo = fn(lo)
    orient = np.sign(flo)
    got_lo, got_hi = solve_brackets(lambda x, k: fn(x) * orient[k], lo, hi, False)
    for i in range(lo.size):
        assert (got_lo[i], got_hi[i]) == _scalar_root(fn, lo[i], hi[i], flo[i])


def test_solver_to_the_last_bit():
    lo, hi = solve_brackets(lambda x, _: x * x - 2.0, [1.0, -0.0], [2.0, 3.0],
                            [True, True], xtol=0.0)
    for a, b in zip(lo, hi):
        assert b == np.nextafter(a, np.inf)
        assert a * a - 2.0 <= 0.0 < b * b - 2.0
    lo, hi = solve_brackets(lambda x, _: x, [], [], [])
    assert lo.size == hi.size == 0


@pytest.mark.parametrize("k", [1, 3, 7])
def test_sign_partition_cap_boundary(k, monkeypatch):
    # the order-1 derivative k cos(kx) of sin(kx) changes sign 2k times on (0, 2 pi)
    monkeypatch.setattr(phases, "PARTITION_CAP", 2 * k)
    f = sine(1.0, float(k))
    pieces = sign_partition(f, 1, 1e-9)
    assert len(pieces) == 2 * k + 1
    zeros = [iv.hi for iv, _ in pieces[:-1]]
    np.testing.assert_allclose(zeros, (2 * np.arange(2 * k) + 1) * math.pi / (2 * k), atol=1e-11)
    monkeypatch.setattr(phases, "PARTITION_CAP", 2 * k - 1)
    with pytest.raises(PartitionOverflowError):
        sign_partition(sine(1.0, float(k)), 1, 1e-9)


def test_merge_intervals_slack():
    spans = [(0.5, 0.7), (0.0, 0.2), (0.2 + 1e-12, 0.3), (0.69, 0.8)]
    assert [iv.as_tuple() for iv in merge_intervals(spans, 1e-11)] == [(0.0, 0.3), (0.5, 0.8)]
    assert len(merge_intervals(spans, 1e-13)) == 3
