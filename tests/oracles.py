"""Independent oracles used by the test suite.

Each oracle takes a route disjoint from the code it checks: high-precision
special functions, polynomial roots and sublevel band edges (mpmath),
Gauss-Legendre quadrature at 30 digits and central finite differences.  ``companion_eigenvalues`` is the
exception: it is the route ``polynomials.roots`` takes for degree >= 3, so
root checks use ``mpmath_roots``.

The reference evaluators at the end are written by hand per phase, apart
from the one Horner evaluator that ``oscint.phases`` runs for every phase
with coefficients: the derivative tables of ``xy`` and ``xy_quad``, the
product rule of separable phases and the chain rule of compositions.
``merge_intervals`` joins spans one at a time, the reference for
``phases.merge_rows``' sort and running maximum, and ``x_start`` finds one
gamma's start of region 1 at a time, the reference for
``certificates._x_starts``' batched roots and brackets.
"""

import math

import mpmath as mp
import numpy as np
from mpmath.calculus.quadrature import GaussLegendre

mp.mp.dps = 30


def fresnel_integral(lam: float) -> complex:
    """int_0^1 e^{i lam x^2} dx via high-precision Fresnel functions."""
    l = mp.mpf(abs(lam))
    u = mp.sqrt(2 * l / mp.pi)
    val = mp.sqrt(mp.pi / (2 * l)) * (mp.fresnelc(u) + 1j * mp.fresnels(u))
    out = complex(val)
    return out if lam >= 0 else out.conjugate()


def linear_phase_integral(lam: float) -> complex:
    """int_0^1 e^{i lam x} dx in closed form."""
    if lam == 0:
        return 1.0 + 0.0j
    return (np.exp(1j * lam) - 1.0) / (1j * lam)


def xy_square_integral(lam: float) -> complex:
    """int_[0,1]^2 e^{i lam x y} via the sine/cosine integral closed form."""
    l = mp.mpf(abs(lam))
    val = ((mp.ci(l) - mp.euler - mp.log(l)) + 1j * mp.si(l)) / (1j * l)
    out = complex(val)
    return out if lam >= 0 else out.conjugate()


def composed_xy_square_integral(F, lam: float) -> complex:
    """int_[0,1]^2 e^{i lam F(xy)} for the polynomial F of ascending
    coefficients ``F``, as int_0^1 e^{i lam F(t)} (-ln t) dt (substitute
    t = xy in the inner integral, then swap the order): mpmath's tanh-sinh
    quadrature, which takes the log at t = 0, on pieces of phase swing
    |lam| |F(t1) - F(t0)| about 6 or less, cut on a dense float grid."""
    P = np.polynomial.Polynomial(F)
    ts = np.linspace(0.0, 1.0, 20001)
    var = np.concatenate([[0.0], np.cumsum(np.abs(np.diff(P(ts))))])
    m = max(1, int(np.ceil(abs(lam) * var[-1] / 6.0)))
    cuts = [0.0, *np.interp(var[-1] * np.arange(1, m) / m, var, ts), 1.0]
    l = mp.mpf(lam)
    phase = lambda t: mp.polyval([mp.mpf(c) for c in F[::-1]], t)
    return complex(mp.quad(lambda t: -mp.log(t) * mp.expj(l * phase(t)),
                           [mp.mpf(float(c)) for c in cuts]))


def shifted_square_ramp_integral(lam: float, s: float) -> complex:
    """int_[0,1]^2 e^{i lam (x - s)^2 y}: the y-integral in closed form,
    (e^{i lam a} - 1) / (i lam a) with a = (x - s)^2, then mpmath quadrature
    in x on 64 pieces split at the stationary point x = s."""
    l, s = mp.mpf(lam), mp.mpf(s)

    def inner(x):
        z = 1j * l * (x - s) ** 2
        return mp.mpf(1) if z == 0 else mp.expm1(z) / z

    return complex(mp.quad(inner, sorted(mp.linspace(0, 1, 65) + [s])))


def monomial_profile_gamma(k: int, w: float) -> complex:
    """int_0^1 e^{i w x^k} dx via the rotated incomplete gamma function."""
    a = mp.mpf(1) / k
    z = -1j * mp.mpf(w)
    val = mp.gammainc(a, 0, z) * (z ** (-a)) / k
    return complex(val)


def product_monomial_square_integral(k: int, j: int, lam: float) -> complex:
    """int_[0,1]^2 e^{i lam x^k y^j} from the density of t = x^k y^j and
    G(a) = int_0^1 t^(a-1) e^{i lam t} dt = gammainc(a, 0, -i lam) / (-i lam)^a.
    For k != j the density is (t^(1/j - 1) - t^(1/k - 1)) / (j - k); for
    k = j it is t^(1/k - 1) (-ln t) / k^2, whose integral is -G'(1/k) / k^2,
    differentiated by mpmath."""
    z = -1j * mp.mpf(abs(lam))
    part = lambda a: mp.gammainc(a, 0, z) / z**a
    if k == j:
        out = complex(-mp.diff(part, mp.mpf(1) / k) / k**2)
    else:
        out = complex((part(mp.mpf(1) / j) - part(mp.mpf(1) / k)) / (j - k))
    return out if lam >= 0 else out.conjugate()


def central_diff(f, x: float, h: float = 1e-5) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


def companion_eigenvalues(coeffs) -> np.ndarray:
    """Roots of an ascending-coefficient polynomial via the companion matrix."""
    c = np.asarray(coeffs, dtype=float)
    monic = c / c[-1]
    d = monic.size - 1
    comp = np.zeros((d, d))
    comp[1:, :-1] = np.eye(d - 1)
    comp[:, -1] = -monic[:-1]
    return np.sort_complex(np.linalg.eigvals(comp))


def mpmath_roots(coeffs) -> np.ndarray:
    """Roots of an ascending-coefficient polynomial by mpmath's Durand-Kerner
    iteration at 30 digits plus working precision for clustered roots."""
    z = mp.polyroots([mp.mpf(float(c)) for c in reversed(coeffs)], maxsteps=500, extraprec=200)
    return np.array([complex(w) for w in z])


def mpmath_band_edges(coeffs, level: float) -> np.ndarray:
    """Ends of the bands of {x : |P(x)| <= level}: the real roots (imaginary
    part below 1e-20 relative) of P - level and P + level, by mpmath's
    Durand-Kerner iteration at 30 digits plus working precision, ascending."""
    edges = []
    for shift in (level, -level):
        c = [mp.mpf(float(a)) for a in coeffs]
        c[0] -= mp.mpf(shift)
        z = mp.polyroots(c[::-1], maxsteps=500, extraprec=200)
        edges += [float(mp.re(w)) for w in z if abs(mp.im(w)) <= mp.mpf(10) ** -20 * (1 + abs(w))]
    return np.sort(np.array(edges))


def mpmath_cover_sup(coeffs, t_lo: float) -> float:
    """Max of dist(x, C) / max(t_lo, |P(x)|^(1/d)) over the candidates of an
    exact cover ratio, every root by mpmath at 50 digits: C holds the real
    parts of P's roots, and the candidates are the band edges at levels 1
    and t_lo^d (over 1 and t_lo), the midpoints of neighbouring centres and,
    for each centre c, the real roots of d P - (x - c) P', both where
    |P| <= 1.  That row's coefficients below 1e-30 of its largest are
    dropped, so that a centre at the roots' centroid lowers its degree."""
    with mp.workdps(50):
        a = [mp.mpf(float(v)) for v in coeffs]
        d = len(a) - 1
        centres = sorted(mp.re(z) for z in mp.polyroots(a[::-1], maxsteps=500, extraprec=200))

        def dist(x):
            return min(abs(x - c) for c in centres)

        best = mp.mpf(0)
        for t in (mp.mpf(t_lo), mp.mpf(1)):
            for x in mpmath_band_edges(coeffs, float(t) ** d):
                best = max(best, dist(mp.mpf(x)) / t)
        inner = [0.5 * (u + v) for u, v in zip(centres[:-1], centres[1:])]
        for c in centres:
            q = [(d - k) * a[k] + c * (k + 1) * a[k + 1] for k in range(d)]
            scale = max(abs(v) for v in q)
            while q and abs(q[-1]) <= mp.mpf(10) ** -30 * scale:
                q.pop()
            if len(q) > 1:
                inner += [mp.re(z) for z in mp.polyroots(q[::-1], maxsteps=500, extraprec=200)
                          if abs(mp.im(z)) <= mp.mpf(10) ** -20 * (1 + abs(z))]
        for x in inner:
            p = abs(mp.polyval(a[::-1], x))
            if p <= 1:
                best = max(best, dist(x) / max(mp.mpf(t_lo), p ** (mp.mpf(1) / d)))
        return float(best)


_GL24 = GaussLegendre(mp.mp).calc_nodes(4, mp.mp.prec)  # 24 (node, weight) pairs on [-1, 1]


def merge_intervals(spans, slack: float) -> list[tuple[float, float]]:
    """Union of (lo, hi) spans as ordered (lo, hi) pairs, span by span in
    order of left end; spans whose gap is at most ``slack`` are joined."""
    out: list[list[float]] = []
    for lo, hi in sorted(spans, key=lambda sp: sp[0]):
        if out and lo <= out[-1][1] + slack:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return [(lo, hi) for lo, hi in out]


def x_start(f, gamma: float) -> float | None:
    """The least x of f's rectangle whose slice reaches |d_y f| >= gamma, or
    None, for one gamma: ``ax`` where the slice there reaches it, else the
    least root in (ax, bx) of the four rows d_y f(., ay) -/+ gamma and
    d_y f(., by) -/+ gamma, bisected to the last bit from a bracket around it."""
    from oscint.phases import real_roots, solve_brackets

    dom = f.domain
    y_ends = np.array([dom.ay, dom.by])

    def margin(x, _=None):
        # <= 0 where the slice at x reaches gamma
        return gamma - np.abs(f.eval_fn((0, 1), x[:, None], y_ends[None, :])).max(axis=1)

    if margin(np.array([dom.ax]))[0] <= 0.0:
        return dom.ax
    rows = np.repeat(f.rows_in_x((0, 1), y_ends), 2, axis=0)
    rows[:, 0] -= np.tile([gamma, -gamma], 2)
    x = real_roots(rows, dom.ax, dom.bx)[1]
    if not x.size:
        return None
    x0 = x.min()
    h = 1e-9 * (1.0 + abs(x0))
    return float(solve_brackets(margin, max(dom.ax, x0 - h), min(dom.bx, x0 + h), False,
                                xtol=0.0)[1][0])


def oscillatory_integral(g, g_float, lam: float, a: float, b: float, breaks=()) -> complex:
    """int_a^b e^{i lam g(x)} dx by 24-point Gauss-Legendre at 30 digits.

    ``g`` evaluates the phase on mpf values.  [a, b] is split at ``breaks``
    (the phase's stationary points) and then, on each part, at equal steps
    of the variation of ``g_float`` on a dense float grid, so that no
    subinterval's phase swing |lam| |g(x1) - g(x0)| passes about 6, where the
    rule's error is far below double precision.
    """
    lam = mp.mpf(lam)
    edges = [a] + sorted(x for x in breaks if a < x < b) + [b]
    total = mp.mpc(0)
    for lo, hi in zip(edges[:-1], edges[1:]):
        xs = np.linspace(lo, hi, 20001)
        var = np.concatenate([[0.0], np.cumsum(np.abs(np.diff(g_float(xs))))])
        m = max(1, int(np.ceil(float(abs(lam)) * var[-1] / 6.0)))
        cuts = [mp.mpf(lo)] + [mp.mpf(float(x)) for x in
                               np.interp(var[-1] * np.arange(1, m) / m, var, xs)] + [mp.mpf(hi)]
        for x0, x1 in zip(cuts[:-1], cuts[1:]):
            mid, half = (x0 + x1) / 2, (x1 - x0) / 2
            total += half * mp.fsum(w * mp.expj(lam * g(mid + half * t)) for t, w in _GL24)
    return complex(total)


# ---------------------------------------------------------------------------
# Reference evaluators of polynomial phases
# ---------------------------------------------------------------------------


def xy_derivative(orders, x, y):
    """The (i, j) partial of x*y, by table."""
    i, j = orders
    shape = np.broadcast_shapes(np.shape(x), np.shape(y))
    if i > 1 or j > 1:
        return np.zeros(shape)
    if i == 1 and j == 1:
        return np.ones(shape)
    if i == 1:
        return np.broadcast_to(y, shape).copy()
    if j == 1:
        return np.broadcast_to(x, shape).copy()
    return x * y


def xy_quad_derivative(c: float, orders, x, y):
    """The (i, j) partial of x*y + c*x^2*y^2, term by term."""
    i, j = orders

    def mono(n, k, v):
        # d^k/dv^k v^n = n!/(n-k)! v^(n-k), zero past the degree
        return 0.0 if k > n else math.factorial(n) // math.factorial(n - k) * v ** (n - k)

    val = mono(1, i, x) * mono(1, j, y) + c * mono(2, i, x) * mono(2, j, y)
    return np.broadcast_to(val, np.broadcast_shapes(np.shape(x), np.shape(y))).copy()


def product_derivative(fx_coeffs, gy_coeffs, orders, x, y):
    """The (i, j) partial of f(x) g(y) for ascending coefficients of f and g,
    as f^(i)(x) g^(j)(y) from ``numpy.polynomial``."""
    i, j = orders
    P = np.polynomial.Polynomial
    return P(fx_coeffs).deriv(i)(x) * P(gy_coeffs).deriv(j)(y)


def chain_rule_1d(P, f, df):
    """Orders 0 and 1 of x -> P(f(x)): P(f) and P'(f) f', for ascending
    coefficients P and callables f and f'."""
    c = np.asarray(P, dtype=float)
    dc = c[1:] * np.arange(1, c.size)
    pv = np.polynomial.polynomial.polyval

    def ev(order, x):
        return pv(f(x), c) if order == 0 else pv(f(x), dc) * df(x)

    return ev


def chain_rule_2d(P, f, fx):
    """Orders (0, 0) and (1, 0) of (x, y) -> P(f(x, y)): P(f) and
    P'(f) d_x f, for ascending coefficients P and callables f and d_x f."""
    c = np.asarray(P, dtype=float)
    dc = c[1:] * np.arange(1, c.size)
    pv = np.polynomial.polynomial.polyval

    def ev(orders, x, y):
        return pv(f(x, y), c) if orders == (0, 0) else pv(f(x, y), dc) * fx(x, y)

    return ev
