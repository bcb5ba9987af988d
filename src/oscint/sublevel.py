"""Measures and interval decompositions of sublevel sets {x : |f(x) - c| <= eps},
plus the explicit constant linking oscillatory decay to sublevel bounds.

The constant is C_delta = int |phihat(xi)| |xi|^(-delta) dxi for a fixed
smooth bump phi equal to 1 on [-1,1] and vanishing outside [-2,2], realised
as the indicator of [-1.5, 1.5] convolved with the standard compactly
supported mollifier at scale 0.5.  Its transform factorises exactly into
the sinc of the indicator times the mollifier's transform, and the latter is
a single Gauss-Legendre cosine sum, so phihat costs one small matrix-vector
product per batch of xi and its sinc zeros k/3 are known in closed form.

Bands are found piece by piece on monotone partitions, and the brackets of
all pieces, or of all rows of a planar batch, go to the shared solver
``phases.solve_brackets`` together.  The row layers are flat array
programs: pieces and bands are (row, lo, hi) arrays ordered by row, then
left end, merged by ``phases.merge_rows``, and a row's measure is a
``bincount``; ``Interval`` appears only in ``sublevel_1d``'s components.
For a phase with coefficients, which every planar phase has, the monotone
breaks and the band edges start from roots (``phases.monotone_rows``,
``phases.real_roots``), and the band areas are cut at the y-kinks of their
slice measures (``kink_segments``).  ``sublevel_2d_sweep`` measures a whole
eps grid in one call, each eps a slot of the per-slot adaptive quadrature
``quadrature._adaptive_slots``; ``sublevel_2d`` is its one-element call.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import NonconvergentTailError, PreconditionError
from .phases import (BISECT_XTOL, Interval, Phase2D, PhaseFunction, _gaps, flat_rows,
                     merge_rows, monotone_partition, monotone_rows, polish, real_roots,
                     scan_sign_changes, sign_breaks)
from .quadrature import _adaptive_slots

BAND_AREA_REL_TOL = 1e-7
XI_CUTOFF = 64.0


@dataclass(frozen=True)
class SublevelResult:
    measure: float
    components: tuple[Interval, ...]
    c: float
    epsilon: float


@dataclass(frozen=True)
class OscToSublevelConstant:
    delta: float
    C_delta: float
    bump_spec: str
    # False when a cap stopped one of its quadratures with pieces over tolerance
    converged: bool


def band_pieces(g, a, b, ga, gb, lo_t, hi_t, xtol: float = BISECT_XTOL, seeds=None):
    """{x in [a_k, b_k] : lo_t_k <= g_k(x) <= hi_t_k} for many monotone pieces at once.

    ``g(x, idx)`` evaluates the functions of the pieces ``idx`` and ``ga``,
    ``gb`` hold their values at the ends; the levels ``lo_t``, ``hi_t`` are
    per piece or one for all.  An end where g lies outside the band is moved
    to the crossing of g = lo_t or g = hi_t, all pieces in one
    ``phases.polish`` to ``xtol``: from a bracket around its estimate
    ``seeds(idx, t)`` (NaN for none) where one is given and g changes sign
    across it, else from the whole piece.  Returns (x_lo, x_hi, found);
    ``found`` is False where the piece misses the band.
    """
    a, b, ga, gb = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (a, b, ga, gb))
    lo_t, hi_t = (np.broadcast_to(np.asarray(v, dtype=float), a.shape) for v in (lo_t, hi_t))
    inc = gb >= ga
    hit = ~((np.minimum(ga, gb) > hi_t) | (np.maximum(ga, gb) < lo_t))
    move_lo = np.flatnonzero(hit & np.where(inc, ga < lo_t, ga > hi_t))
    move_hi = np.flatnonzero(hit & np.where(inc, gb > hi_t, gb < lo_t))
    k = np.concatenate([move_lo, move_hi])
    t = np.where(inc[k], np.concatenate([lo_t[move_lo], hi_t[move_hi]]),
                 np.concatenate([hi_t[move_lo], lo_t[move_hi]]))
    x = polish(lambda x, q: g(x, k[q]) - t[q], None if seeds is None else seeds(k, t),
               a[k], b[k], ga[k] - t <= 0.0, xtol)
    x_lo, x_hi = a.copy(), b.copy()
    x_lo[move_lo] = x[:move_lo.size]
    x_hi[move_hi] = x[move_lo.size:]
    return x_lo, x_hi, hit & (x_hi > x_lo)


def band_sets(g, pieces, lo_t, hi_t, xtol: float = BISECT_XTOL,
              coeffs=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row, the merged {x : lo_t <= g_row(x) <= hi_t} over the row's
    monotone pieces, with one solve for all rows to ``xtol``.

    ``pieces`` are flat (row, lo, hi) arrays ordered by row, then left end,
    as ``phases.monotone_rows`` gives them; ``g(x, rows)`` evaluates the
    functions of the rows at x, and the levels are per row or one for all.
    Where g's rows are polynomials, ``coeffs`` holds their ascending
    coefficients, one row each, and each band edge starts from a root of its
    row minus the level.  Returns the bands as flat (row, lo, hi) arrays in
    the same order, the spans of a row within 1e-11 of each other joined.
    """
    row, a, b = pieces
    lo_t, hi_t = (np.asarray(v, dtype=float) for v in (lo_t, hi_t))
    lo_t, hi_t = (v[row] if v.ndim else v for v in (lo_t, hi_t))
    gq = lambda x, q: g(x, row[q])
    q = np.arange(a.size)
    seeds = None
    if coeffs is not None:
        c = np.atleast_2d(np.asarray(coeffs, dtype=float))[row]

        def seeds(k, t):
            ck = c[k]
            ck[:, 0] -= t
            r, x = real_roots(ck, a[k], b[k])
            out = np.full(k.size, np.nan)
            out[r] = x
            return out

    x_lo, x_hi, found = band_pieces(gq, a, b, gq(a, q), gq(b, q), lo_t, hi_t, xtol, seeds)
    return merge_rows(row[found], x_lo[found], x_hi[found], 1e-11)


def sublevel_1d(f: PhaseFunction, c: float, eps: float) -> SublevelResult:
    """Maximal intervals of f's domain where |f - c| <= eps, endpoints to 1e-12.

    Works piece by piece on the monotone partition of f; on a monotone piece
    the set is a single interval found by bracketing f = c -/+ eps, and the
    brackets of all pieces go to the shared solver together.
    """
    if eps <= 0:
        raise PreconditionError("eps must be positive")
    _, lo, hi = band_sets(lambda x, _: f.eval_fn(0, x),
                          flat_rows(monotone_partition(f, order_cap=1), 1), c - eps, c + eps,
                          coeffs=None if f.coeffs is None else [f.coeffs])
    comps = [Interval(a, b) for a, b in zip(lo.tolist(), hi.tolist())]
    measure = float(sum(comp.hi - comp.lo for comp in comps))
    return SublevelResult(measure, tuple(comps), float(c), float(eps))


def sublevel_rows(f: Phase2D, orders: tuple[int, int], ys, c, eps,
                  xtol: float = BISECT_XTOL) -> np.ndarray:
    """The measure of {x in [ax, bx] : |d^orders f(x, y) - c| <= eps}, the
    x-range of ``f.domain``, for every y of a batch, with band edges
    bisected to ``xtol``; ``c`` and ``eps`` are one for all rows or one per
    row.

    Each row's monotone pieces come from ``phases.monotone_rows``, and its
    band edges start from the roots of the row minus each level.  A row's
    measure sums its bands left to right from 0.0 (``np.bincount``).
    """
    i, j = orders
    ys = np.atleast_1d(np.asarray(ys, dtype=float))
    coeffs = f.rows_in_x(orders, ys)
    c, eps = np.asarray(c, dtype=float), np.asarray(eps, dtype=float)
    row, lo, hi = band_sets(lambda x, k: f.eval_fn((i, j), x, ys[k]),
                            monotone_rows(coeffs, f.domain.ax, f.domain.bx, 1)[0],
                            c - eps, c + eps, xtol, coeffs)
    return np.bincount(row, hi - lo, ys.size)


def kink_segments(f: Phase2D, orders: tuple[int, int], levels) -> tuple[np.ndarray, ...]:
    """[ay, by] cut, once per row of ``levels``, where the slice measure of a
    band of d^orders f may kink, as the (a, b, slot) segments that
    ``quadrature._adaptive_slots`` takes: row s of ``levels`` gives slot s.

    A band edge meets a vertical side of the rectangle where d^orders f(ax, y)
    or d^orders f(bx, y) crosses one of its row's levels: the sign changes
    in (ay, by) of the columns minus each level, from one
    ``phases.sign_breaks`` call over every row.  The kinks where a level
    crosses a critical value of the slice inside the rectangle are not cut.
    """
    dom = f.domain
    levels = np.atleast_2d(np.asarray(levels, dtype=float))
    n_slots, per = levels.shape
    cols = np.repeat(f.column_in_y(orders, [dom.ax, dom.bx]), levels.size, axis=0)
    cols[:, 0] -= np.tile(levels.ravel(), 2)
    row, cuts = sign_breaks(cols, dom.ay, dom.by, 0.0)[:2]
    cut_slot = row % levels.size // per
    order = np.lexsort((cuts, cut_slot))
    slot, a, b = _gaps(n_slots, cut_slot[order], cuts[order], cuts[order],
                       np.full(n_slots, dom.ay), np.full(n_slots, dom.by))
    return a, b, slot


def sublevel_2d_sweep(f: Phase2D, c: float, eps_values) -> list[tuple[float, float, bool]]:
    """Planar measures of {|f - c| <= eps} over ``f.domain``, one per eps of
    ``eps_values``, each as (measure, error_estimate, converged).

    ``sublevel_rows`` measures the x-slices with band edges bisected to the
    last bit, and ``quadrature._adaptive_slots`` integrates them over y,
    each eps a slot of its own over the segments between the kinks of
    ``kink_segments`` at c -/+ eps, held to ``BAND_AREA_REL_TOL`` of its own
    area.  Each round of the quadrature is one ``sublevel_rows`` call, with
    every row at its slot's levels.  A row's measure reads only its own
    slice and levels, so each eps gets the bits of its one-element sweep.
    ``converged`` is False when the quadrature stopped at a cap with
    segments of that eps still over tolerance.
    """
    eps = np.array(eps_values, dtype=float, ndmin=1)
    if not (eps > 0).all():
        raise PreconditionError("eps must be positive")
    a, b, slot = kink_segments(f, (0, 0), np.column_stack([c - eps, c + eps]))
    val, err, converged = _adaptive_slots(
        lambda ys, s: sublevel_rows(f, (0, 0), ys, c, eps[s], xtol=0.0), a, b, slot,
        eps.size, BAND_AREA_REL_TOL, 1e-12)
    return [(float(v), float(e), bool(ok))
            for v, e, ok in zip(val.tolist(), err.tolist(), converged.tolist())]


def sublevel_2d(f: Phase2D, c: float, eps: float) -> tuple[float, float, bool]:
    """Planar measure of {|f - c| <= eps} over ``f.domain``: the one-element
    ``sublevel_2d_sweep``.  Returns (measure, error_estimate, converged)."""
    [res] = sublevel_2d_sweep(f, c, [eps])
    return res


# ---------------------------------------------------------------------------
# The oscillation-to-sublevel constant
# ---------------------------------------------------------------------------

_BUMP_SPEC = "indicator[-1.5,1.5] * mollifier(h=0.5)"
_constant_cache: dict[tuple[float, float], OscToSublevelConstant] = {}


class _Bump:
    """The proof's bump through the exact factorisation of its transform.

    phi = 1_[-1.5,1.5] * rho_h with rho the standard mollifier
    c*exp(-1/(1-t^2)) on (-1,1) and h = 0.5, so

        phihat(xi) = sin(3 pi xi)/(pi xi) * rhohat(h xi).

    rho is even, so rhohat is a Gauss-Legendre cosine sum over the positive
    half of a 400-node rule, good to ~1e-13 for the xi that C_delta needs.
    The object holds only these nodes and weights and is never mutated.
    """

    H = 0.5
    CORE = 1.5
    N_NODES = 400

    def __init__(self):
        t, w = leggauss(self.N_NODES)
        rho_w = np.exp(-1.0 / (1.0 - t**2)) * w
        pos = t > 0.0
        self._t = t[pos]
        self._w = 2.0 * rho_w[pos] / rho_w.sum()

    def rho_hat(self, eta) -> np.ndarray:
        eta = np.asarray(eta, dtype=float)
        return np.cos(2.0 * math.pi * eta[..., None] * self._t) @ self._w

    def transform_vec(self, xis) -> np.ndarray:
        """phihat at each xi, as a flat array."""
        xis = np.asarray(xis, dtype=float).ravel()
        return 2.0 * self.CORE * np.sinc(2.0 * self.CORE * xis) * self.rho_hat(self.H * xis)

    def sign_change_points(self, hi: float) -> np.ndarray:
        """Sorted zeros of the transform on (0, hi]: the sinc zeros k/3 exactly,
        and the zeros of rhohat(h xi) from a scan at spacing 1/24, bisected
        to ``BISECT_XTOL`` by ``phases.scan_sign_changes``."""
        grid = np.linspace(1e-6, hi, int(hi * 24) + 2)
        _, rho_zeros = scan_sign_changes(lambda x, _: self.rho_hat(self.H * x), grid,
                                         self.rho_hat(self.H * grid)[:, None], 0.0, grid.size,
                                         "bump transform", 0)
        sinc_zeros = np.arange(1, int(2.0 * self.CORE * hi) + 1) / (2.0 * self.CORE)
        return np.sort(np.concatenate([sinc_zeros, rho_zeros]))


@functools.cache
def _bump() -> _Bump:
    return _Bump()


def osc_to_sublevel_constant(delta: float) -> OscToSublevelConstant:
    """C_delta = int_R |phihat(xi)| |xi|^(-delta) d xi for the fixed proof bump.

    phihat is even, so C_delta is twice the integral over xi > 0, cut at the
    transform's sign changes (``_Bump.sign_change_points``) so that each
    segment is smooth and the modulus costs nothing.  One
    ``quadrature._adaptive_slots`` call takes three slots, each held to its
    own tolerance over its segments: the singular head [0, z1] up to the
    first zero, by the exact substitution u = xi^(1-delta); the body from z1
    to ``XI_CUTOFF``; and the tail from ``XI_CUTOFF`` to twice it, which must
    contribute less than 1e-8 relative or the computation raises
    NonconvergentTailError.  ``converged`` is False when a cap stopped any
    of the three with pieces over tolerance.
    """
    if not (0.0 < delta < 1.0):
        raise PreconditionError("delta must lie in (0, 1)")
    key = (round(delta, 12), XI_CUTOFF)
    if key in _constant_cache:
        return _constant_cache[key]
    bump = _bump()
    zeros = bump.sign_change_points(2.0 * XI_CUTOFF)
    body = np.concatenate([zeros[zeros < XI_CUTOFF], [XI_CUTOFF]])
    far = np.concatenate([[XI_CUTOFF], zeros[zeros > XI_CUTOFF], [2.0 * XI_CUTOFF]])
    power = 1.0 / (1.0 - delta)

    def integrand(x, s):
        # each slot's samples go to a transform call of their own, whose
        # matrix product rounds a sample by the batch it is in
        out = np.empty(x.size)
        for k in np.unique(s).tolist():
            at = s == k
            if k == 0:  # u = xi^(1-delta) removes the |xi|^-delta weight at the singular end
                out[at] = np.abs(bump.transform_vec(x[at] ** power))
            else:
                out[at] = np.abs(bump.transform_vec(x[at])) * x[at] ** (-delta)
        return out

    val, _, converged = _adaptive_slots(
        integrand, np.concatenate([[0.0], body[:-1], far[:-1]]),
        np.concatenate([[body[0] ** (1.0 - delta)], body[1:], far[1:]]),
        np.repeat([0, 1, 2], [1, body.size - 1, far.size - 1]), 3, 1e-9, 1e-14)
    head, rest, tail = val.tolist()
    total, tail = 2.0 * (power * head + rest), 2.0 * tail
    if tail > 1e-8 * total:
        raise NonconvergentTailError(
            f"tail beyond xi={XI_CUTOFF} contributes {tail:.3e} > 1e-8 relative",
            tail=tail,
        )
    out = OscToSublevelConstant(float(delta), float(total), _BUMP_SPEC, bool(converged.all()))
    _constant_cache[key] = out
    return out
