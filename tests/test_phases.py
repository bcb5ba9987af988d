import math

import numpy as np
import pytest

from oscint import (
    ConfigError,
    Interval,
    PartitionOverflowError,
    PhaseMeta,
    PlanarDomain,
    Polynomial,
    PreconditionError,
    certify_2d,
    compose_with_polynomial,
    compose_with_power,
    monomial,
    monotone_partition,
    osc_integrate_2d,
    phase2d_from_config,
    phase_from_config,
    polynomial_phase,
    product_phase,
    sign_partition,
    sine,
    sublevel_2d,
    unit_square,
    xy_phase,
    xy_quad_phase,
)
from oscint import phases
from oscint.harness import load_config
from oscint.phases import compose2d_with_polynomial, solve_brackets

import oracles


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
    assert Interval(dom.ay, dom.by) == Interval(1.0, 1.75)
    assert unit_square() == PlanarDomain(0.0, 1.0, 0.0, 1.0)
    for bad in ((1.0, 1.0, 0.0, 1.0), (0.0, 1.0, 2.0, 1.0), (0.0, float("nan"), 0.0, 1.0)):
        with pytest.raises(PreconditionError):
            PlanarDomain(*bad)


def test_product_phase_takes_its_factors_rectangle():
    f2 = product_phase(monomial(1, (0.5, 2.0)), monomial(1, (1.0, 1.75)))
    assert f2.domain == PlanarDomain(0.5, 2.0, 1.0, 1.75)
    assert Interval(f2.domain.ay, f2.domain.by) == Interval(1.0, 1.75)
    # the column of the slice at x0 = 1.5, and of its y-derivative
    np.testing.assert_allclose(_polyval(1.2, f2.column_in_y((0, 0), 1.5)[0]), 1.5 * 1.2)
    np.testing.assert_allclose(_polyval(1.2, f2.column_in_y((0, 1), 1.5)[0]), 1.5)


def test_xy_quad_mixed_derivative():
    f2 = xy_quad_phase(0.1)
    xs = np.array([0.3])
    ys = np.array([0.7])
    np.testing.assert_allclose(f2.eval((1, 1), xs, ys), 1.0 + 0.4 * 0.3 * 0.7)
    np.testing.assert_allclose(f2.eval((0, 2), xs, ys), 0.2 * 0.09)


def test_composed_planar_x_derivative():
    # P(f) with P = t^2/2 + t^3/3 on xy + 0.1 x^2 y^2: d_x P(f) = (f + f^2) d_x f
    P = (0.0, 0.0, 0.5, 1.0 / 3.0)
    comp = compose2d_with_polynomial(xy_quad_phase(0.1), P)
    ref = oracles.chain_rule_2d(P, lambda x, y: oracles.xy_quad_derivative(0.1, (0, 0), x, y),
                                lambda x, y: oracles.xy_quad_derivative(0.1, (1, 0), x, y))
    rng = np.random.default_rng(5)
    x, y = rng.uniform(0.0, 1.0, 24), rng.uniform(0.0, 1.0, 24)
    for orders in ((0, 0), (1, 0)):
        want = ref(orders, x, y)
        _close(comp.eval(orders, x, y), want)
        _close(_polyval2d(x, y, comp._matrix(orders)), want)
        _close([_polyval(xk, row) for xk, row in zip(x, comp.rows_in_x(orders, y))], want)
        _close([_polyval(yk, col) for yk, col in zip(y, comp.column_in_y(orders, x))], want)
    # the orders the chain-rule closure never exposed, by differences in y
    at = lambda orders, xk, yk: float(ref(orders, np.array(xk), np.array(yk)))
    for xk, yk in zip(x, y):
        d_y = lambda t: oracles.central_diff(lambda u: at((0, 0), xk, u), t)
        np.testing.assert_allclose(comp.eval((0, 1), xk, yk), d_y(yk), rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(comp.eval((1, 1), xk, yk),
                                   oracles.central_diff(lambda u: at((1, 0), xk, u), yk),
                                   rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(comp.eval((0, 2), xk, yk),
                                   oracles.central_diff(d_y, yk, h=1e-4), rtol=1e-5, atol=1e-6)


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
    assert oracles.merge_intervals(spans, 1e-11) == [(0.0, 0.3), (0.5, 0.8)]
    assert len(oracles.merge_intervals(spans, 1e-13)) == 3


# ---------------------------------------------------------------------------
# Coefficients and the root path
# ---------------------------------------------------------------------------

_polyval = np.polynomial.polynomial.polyval
_polyval2d = np.polynomial.polynomial.polyval2d


def _polynomial_reference(c):
    """f^(k)(x) for ascending coefficients c, from ``numpy.polynomial``."""
    return lambda k, x: np.polynomial.Polynomial(c).deriv(k)(x)


def _slice(f2, x0):
    """The phase y -> f2(x0, y) on [ay, by], from its coefficient column."""
    return phases._coefficient_phase(f2.column_in_y((0, 0), x0)[0], 4,
                                     Interval(f2.domain.ay, f2.domain.by),
                                     PhaseMeta(N=1), f"{f2.name}|x={x0:.6g}")


def _coefficient_phases_1d():
    """(phase, reference evaluator) pairs."""
    yield monomial(1), _polynomial_reference((0.0, 1.0))
    yield monomial(4, (-1.0, 2.0)), _polynomial_reference((0.0, 0.0, 0.0, 0.0, 1.0))
    c = (0.3, -1.0, -2.0, 1.0, 1.0)
    yield polynomial_phase(c, (-2.0, 2.0)), _polynomial_reference(c)
    for x0 in (0.0, 0.37, 1.0):
        yield (_slice(phases.xy_quad_phase(0.1), x0),
               lambda k, y, x0=x0: oracles.xy_quad_derivative(0.1, (0, k), x0, y))
        yield (_slice(product_phase(monomial(3), polynomial_phase((0.2, 0.0, -1.5))), x0),
               lambda k, y, x0=x0: oracles.product_derivative((0.0, 0.0, 0.0, 1.0),
                                                              (0.2, 0.0, -1.5), (0, k), x0, y))


def _coefficient_phases_2d():
    """(phase, reference evaluator) pairs."""
    yield phases.xy_phase(), oracles.xy_derivative
    for c in (0.1, -0.2):
        yield xy_quad_phase(c), lambda o, x, y, c=c: oracles.xy_quad_derivative(c, o, x, y)
    yield (product_phase(monomial(3), monomial(2)),
           lambda o, x, y: oracles.product_derivative((0, 0, 0, 1), (0, 0, 1), o, x, y))
    cx, cy = (0.25, -1.0, 1.0), (0.5, 2.0, -3.0)
    yield (product_phase(polynomial_phase(cx), polynomial_phase(cy, (-1.0, 1.0))),
           lambda o, x, y: oracles.product_derivative(cx, cy, o, x, y))


def _close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * (1.0 + np.abs(want).max()))


_CASES_1D = list(_coefficient_phases_1d())
_CASES_2D = list(_coefficient_phases_2d())


@pytest.mark.parametrize("f, ref", _CASES_1D, ids=[f.name for f, _ in _CASES_1D])
def test_coefficients_match_eval_fn_1d(f, ref):
    # the coefficients and the Horner evaluator both agree with the reference
    x = np.random.default_rng(7).uniform(f.domain.lo, f.domain.hi, 64)
    for k in range(f.max_order + 1):
        want = ref(k, x)
        _close(_polyval(x, phases.derivative_coeffs(f.coeffs, k)), want)
        _close(f.eval_fn(k, x), want)


@pytest.mark.parametrize("f2, ref", _CASES_2D, ids=[f2.name for f2, _ in _CASES_2D])
def test_coefficients_match_eval_fn_2d(f2, ref):
    rng = np.random.default_rng(11)
    dom = f2.domain
    x, y = rng.uniform(dom.ax, dom.bx, 48), rng.uniform(dom.ay, dom.by, 48)
    # every order up to one past the degree in each variable, where it is zero
    for i in range(len(f2.coeffs) + 1):
        for j in range(len(f2.coeffs[0]) + 1):
            want = ref((i, j), x, y)
            _close(f2.eval_fn((i, j), x, y), want)
            _close(_polyval2d(x, y, f2._matrix((i, j))), want)
            _close([_polyval(xk, row) for xk, row in zip(x, f2.rows_in_x((i, j), y))], want)
            _close([_polyval(yk, col) for yk, col in zip(y, f2.column_in_y((i, j), x))], want)


def test_families_without_coefficients():
    assert sine().coeffs is None
    assert compose_with_polynomial(sine(), (0.0, 0.0, 0.5)).coeffs is None
    # a composition of a phase with coefficients carries its own
    assert compose_with_polynomial(monomial(2), (0.0, 0.0, 0.5)).coeffs == (0.0,) * 4 + (0.5,)
    f2 = xy_quad_phase(0.1)
    assert compose2d_with_polynomial(f2, (0.0, 1.0)).coeffs == f2.coeffs
    # a planar product is a coefficient matrix, so both factors need coefficients
    for fx, gy in ((sine(), monomial(1)), (monomial(1), sine())):
        with pytest.raises(PreconditionError, match="coefficients"):
            product_phase(fx, gy)


def test_planar_composition_needs_coefficients():
    # a planar phase is a finite coefficient matrix and nothing else, so every
    # planar phase can be composed in coefficient space
    def old_style_closure(orders, x, y):
        return x * y

    nan, inf = float("nan"), float("inf")
    for coeffs in (old_style_closure, None, 1.0, (0.0, 1.0), (((1.0,),),), ((0.0, 1.0), (1.0,)),
                   ((0.0, nan),), ((inf,),), ((0.0, "y"),), (), ((),)):
        with pytest.raises(PreconditionError, match="coefficient matrix"):
            phases.Phase2D(coeffs, unit_square())


def test_planar_orders_past_the_degree_are_zero():
    f2 = phases.Phase2D(((0.5, 2.0), (1.0, 3.0)), PlanarDomain(0.0, 2.0, -1.0, 1.0))
    x, y = np.linspace(0.0, 2.0, 3)[:, None], np.linspace(-1.0, 1.0, 4)[None, :]
    for orders in ((2, 0), (0, 2), (5, 7)):
        out = f2.eval(orders, x, y)
        assert out.shape == (3, 4) and not out.any()
    np.testing.assert_array_equal(f2.eval((1, 1), x, y), np.full((3, 4), 3.0))
    for orders in ((-1, 0), (0, -1)):
        with pytest.raises(PreconditionError, match="negative"):
            f2.eval(orders, x, y)


def _composition_pairs():
    """The distinct (P, n) of T1's and T2's packaged cases, f = x^n."""
    pairs = {(tuple(case["poly"]), int(case["f"]["n"]))
             for suite in ("T1", "T2") for case in load_config(suite, "default").options["cases"]}
    return sorted(pairs, key=lambda pn: (pn[1], pn[0]))


@pytest.mark.parametrize("P, n", _composition_pairs())
def test_composed_coefficients_match_numpy_composition(P, n):
    comp = compose_with_polynomial(monomial(n), P)
    inner = np.polynomial.Polynomial((0.0,) * n + (1.0,))
    want = np.polynomial.Polynomial(P)(inner)
    np.testing.assert_allclose(comp.coeffs, want.coef, rtol=1e-15, atol=0.0)
    # the values and first derivative against the chain rule on x^n
    ref = oracles.chain_rule_1d(P, lambda x: x**n, lambda x: n * x ** (n - 1))
    x = np.random.default_rng(3).uniform(0.0, 1.0, 32)
    for k in (0, 1):
        _close(comp.eval(k, x), ref(k, x))


# every config family, with the keys it needs
_FAMILY_SPECS_1D = {"monomial": {"n": 3}, "polynomial": {"coeffs": [0.5, -1.0, 2.0]},
                    "sin": {}, "exp": {}, "monomial_sin": {"n": 2, "amplitude": 0.1,
                                                           "frequency": 3.0}}
_FAMILY_SPECS_2D = {"xy": {}, "xy_quad": {"c": 0.1}}


def _kernel_evaluated(f) -> bool:
    want = ("Phase2D.__post_init__.<locals>.horner_2d" if isinstance(f, phases.Phase2D)
            else "_coefficient_phase.<locals>.horner_1d")
    return f.eval_fn.__qualname__ == want


def test_every_phase_with_coefficients_runs_the_horner_evaluator():
    assert set(_FAMILY_SPECS_1D) == set(phases._FAMILIES_1D)
    assert set(_FAMILY_SPECS_2D) == set(phases._FAMILIES_2D)
    ones = [phase_from_config({"family": k, **p}) for k, p in _FAMILY_SPECS_1D.items()]
    ones = [f for f in ones if f.coeffs is not None]
    twos = [phase2d_from_config({"family": k, **p}) for k, p in _FAMILY_SPECS_2D.items()]
    assert ones and all(f2.coeffs is not None for f2 in twos)
    twos += [product_phase(f, g) for f in ones for g in ones]
    twos += [compose2d_with_polynomial(f2, (0.0, 0.5, 0.5)) for f2 in twos]
    ones += [compose_with_polynomial(f, (0.0, 0.5, 0.5)) for f in ones]
    for f in ones + twos:
        assert f.coeffs is not None and _kernel_evaluated(f), f.name
    # a phase without coefficients keeps an evaluator of its own
    for f in (sine(), compose_with_polynomial(sine(), (0.0, 1.0))):
        assert f.coeffs is None and not _kernel_evaluated(f), f.name


def test_planar_layers_evaluate_through_the_eval_fn_attribute():
    # a profiler may swap a built phase's evaluator for a counting wrapper, as
    # object.__setattr__ on the frozen dataclass; every planar layer must then
    # call the wrapper, or its counters read zero
    for f2 in (xy_phase(), xy_quad_phase(0.1)):
        calls = []
        inner = f2.eval_fn

        def counting(*args, inner=inner, calls=calls):
            calls.append(args[0])
            return inner(*args)

        object.__setattr__(f2, "eval_fn", counting)
        layers = {"osc_integrate_2d": lambda: osc_integrate_2d(f2, 30.0),
                  "sublevel_2d": lambda: sublevel_2d(f2, 0.0, 0.1),
                  "certify_2d": lambda: certify_2d(f2, Polynomial((0.0, 1.0)), 300.0)}
        for layer, run in layers.items():
            calls.clear()
            run()
            assert calls, (f2.name, layer)


def _scanned(f):
    """The same phase without its coefficients, so that it is scanned."""
    return phases.PhaseFunction(f.eval_fn, f.max_order, f.domain, f.meta, f.name)


@pytest.mark.parametrize("seed", range(12))
def test_root_path_matches_the_scan_path(seed):
    rng = np.random.default_rng([20261019, seed])
    for d in range(1, 7):
        f = polynomial_phase(rng.uniform(-1.0, 1.0, d + 1), (-1.5, 1.5))
        for order in range(d):
            roots = sign_partition(f, order, phases.SIGN_TOL)
            scan = sign_partition(_scanned(f), order, phases.SIGN_TOL)
            assert [s for _, s in roots] == [s for _, s in scan], (d, order)
            np.testing.assert_allclose([iv.hi for iv, _ in roots], [iv.hi for iv, _ in scan],
                                       rtol=0.0, atol=phases.BISECT_XTOL)


def test_root_path_keeps_a_touching_zero_in_one_piece():
    # (x - 1/2)^2 touches zero at 1/2 without crossing
    f = polynomial_phase((0.25, -1.0, 1.0))
    assert sign_partition(f, 0, phases.SIGN_TOL) == [(Interval(0.0, 1.0), 1)]
    assert sign_partition(_scanned(f), 0, phases.SIGN_TOL) == [(Interval(0.0, 1.0), 1)]


def test_a_vanishing_slice_is_one_piece_of_sign_zero():
    # the xy slice at x0 = 0 is the zero polynomial: a zero row, with no
    # break and sign 0 at every order, and one monotone piece
    col = phases.xy_phase().column_in_y((0, 0), [0.0])
    for order in range(3):
        row, x, first = phases.sign_breaks(phases.derivative_coeffs(col, order), 0.0, 1.0,
                                           phases.SIGN_TOL)
        assert row.size == x.size == 0 and first.tolist() == [0]
    by_order = phases.monotone_rows(col, 0.0, 1.0, 2)
    assert [_rows_of(flat) for flat in by_order] == [[[(0.0, 1.0)]]] * 2


def test_real_roots_group_rows_by_effective_degree():
    c = np.array([[0.0, 0.0, 0.0, 0.0],      # zero row: no roots
                  [-0.25, 1.0, 0.0, 0.0],    # degree 1: 0.25
                  [0.06, -0.5, 1.0, 0.0],    # degree 2: 0.2 and 0.3
                  [-0.024, 0.26, -0.9, 1.0],  # degree 3: 0.2, 0.3 and 0.4
                  [2.0, 0.0, 0.0, 0.0]])     # constant: no roots
    row, x = phases.real_roots(c, 0.0, [1.0, 1.0, 1.0, 0.35, 1.0])
    assert row.tolist() == [1, 2, 2, 3, 3]
    np.testing.assert_allclose(x, [0.25, 0.2, 0.3, 0.2, 0.3], atol=1e-12)


def test_real_roots_skip_one_signed_rows_on_the_positive_axis():
    # x + 0.5, x^2 + 0.3 x + 0.02 and x^5 have no root in (0, 1) by Descartes' rule,
    # but the negative roots of the first two are found on (-1, 1); x^2 - 1/4 has both
    c = np.array([[0.5, 1.0, 0.0, 0.0, 0.0, 0.0],
                  [0.02, 0.3, 1.0, 0.0, 0.0, 0.0],
                  [0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
                  [-0.25, 0.0, 1.0, 0.0, 0.0, 0.0]])
    row, x = phases.real_roots(c, 0.0, 1.0)
    assert row.tolist() == [3] and x.tolist() == [0.5]
    row, x = phases.real_roots(c, [-1.0, -1.0, 0.0, -1.0], 1.0)
    assert row.tolist() == [0, 1, 1, 3, 3]
    np.testing.assert_allclose(x, [-0.5, -0.2, -0.1, -0.5, 0.5], atol=1e-12)


def _rows_of(flat):
    """Flat (row, lo, hi) pieces as one list of (lo, hi) per row, checking
    that they come ordered by row, then left end."""
    row, lo, hi = flat
    assert np.all(np.diff(row) >= 0)
    assert np.all((np.diff(lo) > 0) | (np.diff(row) > 0))
    return [list(zip(lo[row == k].tolist(), hi[row == k].tolist()))
            for k in range(int(row.max(initial=-1)) + 1)]


def test_monotone_rows_batch_equals_lone_calls():
    # x^3 - 3x on [-2, 2], x^2 on [-1, 1], the slice of xy + 0.1 x^2 y^2 at
    # x0 = 0.5 on [0, 1], and x^3 - 3x again on [0, 2]
    cubic = (0.0, -3.0, 0.0, 1.0)
    rows = [cubic, (0.0, 0.0, 1.0), xy_quad_phase(0.1).column_in_y((0, 0), 0.5)[0], cubic]
    c = np.zeros((len(rows), 4))
    for k, row in enumerate(rows):
        c[k, :len(row)] = row
    lo, hi = [-2.0, -1.0, 0.0, 0.0], [2.0, 1.0, 1.0, 2.0]
    by_order = [_rows_of(flat) for flat in phases.monotone_rows(c, lo, hi, 2)]
    batch = by_order[1]
    lone = [_rows_of(phases.monotone_rows(row, a, b, 2)[1])[0] for row, a, b in zip(rows, lo, hi)]
    assert batch == lone
    # the order-1 tiling of the same call is that of an order-1 call
    assert by_order[0] == _rows_of(phases.monotone_rows(c, lo, hi, 1)[0])
    np.testing.assert_allclose([b for _, b in by_order[0][0][:-1]], [-1.0, 1.0], atol=1e-12)
    np.testing.assert_allclose([b for _, b in batch[0][:-1]], [-1.0, 0.0, 1.0], atol=1e-12)
    assert batch[3] == [(0.0, batch[0][2][1]), (batch[0][2][1], 2.0)]
    # a phase with coefficients is partitioned by the same rows
    assert [iv.as_tuple() for iv in monotone_partition(polynomial_phase(cubic, (-2.0, 2.0)), 2)] \
        == batch[0]


def _tiled_reference(lo, hi, breaks):
    """The tiling rule of ``tile_rows`` for one row, break by break: sorted
    and deduplicated, a break within BISECT_XTOL of the last kept one is
    dropped, then the breaks outside (lo, hi) and the empty pieces."""
    merged = []
    for x in sorted(set(breaks)):
        if not merged or x - merged[-1] > phases.BISECT_XTOL:
            merged.append(x)
    edges = [lo] + [x for x in merged if lo < x < hi] + [hi]
    return [(a, b) for a, b in zip(edges[:-1], edges[1:]) if b > a]


def test_tile_rows_keep_the_left_to_right_rule_in_clusters():
    # 0.2 + 0.6e-12 is within the tolerance of 0.2 and dropped, but 0.2 + 1.2e-12
    # is measured from 0.2, the last kept, not from its dropped neighbour
    t = phases.BISECT_XTOL
    x = np.array([0.2 + 1.2 * t, 0.2, 0.2 + 0.6 * t, 0.7, 0.7, 1.0, 0.0 + 0.5 * t])
    row = np.array([0, 0, 0, 0, 0, 0, 1])
    got = _rows_of(phases.tile_rows(row, x, np.array([0.0, 0.0]), np.array([1.0, 1.0])))
    assert got[0] == [(0.0, 0.2), (0.2, 0.2 + 1.2 * t), (0.2 + 1.2 * t, 0.7), (0.7, 1.0)]
    assert got[1] == [(0.0, 0.5 * t), (0.5 * t, 1.0)]
    rng = np.random.default_rng(20261020)
    for _ in range(50):
        n = rng.integers(0, 12)
        x = np.round(rng.uniform(-0.1, 1.1, n), 2) + rng.integers(-3, 4, n) * 0.4 * t
        row = rng.integers(0, 3, n)
        lo, hi = np.array([0.0, 0.3, 0.5]), np.array([1.0, 0.3, 0.9])
        got = _rows_of(phases.tile_rows(row, x, lo, hi))
        got += [[]] * (3 - len(got))
        assert got == [_tiled_reference(lo[k], hi[k], x[row == k].tolist()) for k in range(3)]


def test_merge_rows_join_within_the_slack():
    slack = 1e-11
    # a gap of exactly the slack joins, twice the slack does not, overlaps merge
    row = np.array([0, 0, 1, 1, 2, 2, 2])
    lo = np.array([0.5 + slack, 0.0, 0.5 + 2.0 * slack, 0.0, 0.1, 0.3, 0.2])
    hi = np.array([1.0, 0.5, 1.0, 0.5, 0.4, 0.35, 0.9])
    assert _rows_of(phases.merge_rows(row, lo, hi, slack)) == [
        [(0.0, 1.0)], [(0.0, 0.5), (0.5 + 2.0 * slack, 1.0)], [(0.1, 0.9)]]
    assert [len(v) for v in phases.merge_rows(row[:0], lo[:0], hi[:0], slack)] == [0, 0, 0]
    rng = np.random.default_rng(20261021)
    for _ in range(50):
        n = rng.integers(1, 15)
        lo = np.round(rng.uniform(0.0, 1.0, n), 2)
        hi = lo + np.round(rng.uniform(0.0, 0.3, n), 2) + rng.integers(0, 2, n) * slack
        row = rng.integers(0, 2, n)
        got = _rows_of(phases.merge_rows(row, lo, hi, slack))
        got += [[]] * (2 - len(got))
        assert got == [oracles.merge_intervals(
            zip(lo[row == k].tolist(), hi[row == k].tolist()), slack) for k in range(2)]


def test_xy_evaluator_skips_its_unit_coefficient():
    # x * y with no product by the coefficient 1.0, and a derivative that is
    # one of the variables comes back as a new array
    x, y = np.linspace(0.0, 1.0, 7), np.linspace(-1.0, 2.0, 7)
    f = xy_phase()
    assert np.array_equal(f.eval_fn((0, 0), x, y), x * y)
    for orders, want in (((1, 0), y), ((0, 1), x)):
        got = f.eval_fn(orders, x, y)
        assert np.array_equal(got, want) and got is not want
    t = monomial(1).eval_fn(0, x)
    assert np.array_equal(t, x) and t is not x


def test_polish_falls_back_to_the_whole_bracket():
    # estimates that are missing, outside the bracket or off the root by more
    # than the tight half-width all polish from [0, 2]; a good one from near it
    g = lambda x, _: x * x - 2.0
    est = np.array([np.nan, 5.0, 1.3, math.sqrt(2.0)])
    x = phases.polish(g, est, np.zeros(4), np.full(4, 2.0), np.ones(4, dtype=bool),
                      phases.BISECT_XTOL)
    np.testing.assert_allclose(x, math.sqrt(2.0), rtol=0.0, atol=phases.BISECT_XTOL)


def test_taylor_shift_matches_numpy_composition():
    rng = np.random.default_rng(7)
    c = rng.normal(size=(3, 5))
    x0, scale = np.array([0.3, -1.2, 2.0]), np.array([0.5, 2.0, -0.25])
    t = np.linspace(-1.0, 1.0, 11)
    got = phases.taylor_shift(c, x0, scale)
    for k in range(3):
        want = np.polynomial.polynomial.polyval(x0[k] + scale[k] * t, c[k])
        np.testing.assert_allclose(np.polynomial.polynomial.polyval(t, got[k]), want,
                                   rtol=1e-13, atol=1e-13)
    # no shift gives the coefficients back bit for bit
    assert np.array_equal(phases.taylor_shift(c, 0.0), c)


def test_bernstein_coefficients_bound_the_polynomial():
    rng = np.random.default_rng(11)
    c = rng.normal(size=(4, 6))
    lo, hi = np.array([-1.0, 0.0, 0.25, 2.0]), np.array([1.0, 0.5, 0.3, 5.0])
    b = phases.bernstein(c, lo, hi)
    for k in range(4):
        v = np.polynomial.polynomial.polyval(np.linspace(lo[k], hi[k], 401), c[k])
        assert b[k].min() - 1e-12 <= v.min() and v.max() <= b[k].max() + 1e-12
        # the end coefficients are the end values
        np.testing.assert_allclose(b[k, [0, -1]], v[[0, -1]], rtol=1e-12, atol=1e-12)
    # y^2 on [0.1, 1] is positive, and so are all its coefficients; on [0, 1]
    # one of them is 0, so the strict sign is not certified
    assert (phases.bernstein([0.0, 0.0, 1.0], 0.1, 1.0) > 0.0).all()
    assert not (phases.bernstein([0.0, 0.0, 1.0], 0.0, 1.0) > 0.0).all()
