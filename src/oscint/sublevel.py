"""Measures and interval decompositions of sublevel sets {x : |f(x) - c| <= eps},
plus the explicit constant linking oscillatory decay to sublevel bounds.

The constant is C_delta = int |phihat(xi)| |xi|^(-delta) dxi for a fixed
smooth bump phi equal to 1 on [-1,1] and vanishing outside [-2,2], realised
as the indicator of [-1.5, 1.5] convolved with the standard compactly
supported mollifier at scale 0.5.  Its transform factorises exactly into
the sinc of the indicator times the mollifier's transform, and the latter is
a single Gauss-Legendre cosine sum, so phihat costs one small matrix-vector
product per batch of xi and its sinc zeros k/3 are known in closed form.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import NonconvergentTailError, PreconditionError
from .phases import Interval, Phase2D, PhaseFunction, PlanarDomain, monotone_partition
from .quadrature import adaptive_quad

ENDPOINT_XTOL = 1e-12


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


def _bisect_to_value(f, lo: float, hi: float, target: float, xtol: float = ENDPOINT_XTOL) -> float:
    """Monotone bracket solve f(x) = target with f(lo), f(hi) straddling."""
    flo = float(f(lo)) - target
    below = flo <= 0.0
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        fm = float(f(mid)) - target
        if (fm <= 0.0) == below:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def sublevel_1d(f: PhaseFunction, c: float, eps: float,
                interval: Interval | None = None) -> SublevelResult:
    """Maximal intervals where |f - c| <= eps, endpoints to 1e-12.

    Works piece by piece on the monotone partition of f; on a monotone piece
    the set is a single interval found by bracketing f = c -/+ eps.
    """
    if eps <= 0:
        raise PreconditionError("eps must be positive")
    iv = interval or f.domain
    lo_t, hi_t = c - eps, c + eps
    fx = lambda x: float(f.eval_fn(0, np.asarray(x, dtype=float)))
    comps: list[list[float]] = []
    for piece in monotone_partition(f, order_cap=1, interval=iv):
        fa, fb = fx(piece.lo), fx(piece.hi)
        fmin, fmax = min(fa, fb), max(fa, fb)
        if fmin > hi_t or fmax < lo_t:
            continue
        increasing = fb >= fa
        if increasing:
            x_lo = piece.lo if fa >= lo_t else _bisect_to_value(fx, piece.lo, piece.hi, lo_t)
            x_hi = piece.hi if fb <= hi_t else _bisect_to_value(fx, piece.lo, piece.hi, hi_t)
        else:
            x_lo = piece.lo if fa <= hi_t else _bisect_to_value(fx, piece.lo, piece.hi, hi_t)
            x_hi = piece.hi if fb >= lo_t else _bisect_to_value(fx, piece.lo, piece.hi, lo_t)
        if x_hi <= x_lo:
            continue
        if comps and x_lo <= comps[-1][1] + 1e-11:
            comps[-1][1] = max(comps[-1][1], x_hi)
        else:
            comps.append([x_lo, x_hi])
    intervals = tuple(Interval(a, b) for a, b in comps)
    measure = float(sum(b - a for a, b in comps))
    return SublevelResult(measure, intervals, float(c), float(eps))


# ---------------------------------------------------------------------------
# Planar sublevel measure by slice integration
# ---------------------------------------------------------------------------


def _slice_measures(f: Phase2D, ys: np.ndarray, c: float, eps: float,
                    xlo: float, xhi: float, n_scan: int = 1025) -> np.ndarray:
    """Measure in x of {|f(., y) - c| <= eps} for a batch of y values.

    Crossings of the two band edges are located on a scan grid and refined by
    vectorised bisection; narrow components are still caught on monotone
    slices because both edge crossings land in the same scan cell.
    """
    xs = np.linspace(xlo, xhi, n_scan)
    F = np.asarray(f.eval_fn((0, 0), xs[:, None], ys[None, :]), dtype=float)
    out = np.zeros(ys.size)
    for j in range(ys.size):
        yv = float(ys[j])
        col = F[:, j]
        crossings: list[float] = []
        for target in (c - eps, c + eps):
            gcol = col - target
            sign_change = np.flatnonzero(gcol[:-1] * gcol[1:] < 0.0)
            for i in sign_change:
                lo_x, hi_x = xs[i], xs[i + 1]
                fl = gcol[i]
                below = fl <= 0.0
                for _ in range(48):
                    mid = 0.5 * (lo_x + hi_x)
                    fm = float(f.eval_fn((0, 0), np.array([mid]), np.array([yv]))[0]) - target
                    if (fm <= 0.0) == below:
                        lo_x = mid
                    else:
                        hi_x = mid
                crossings.append(0.5 * (lo_x + hi_x))
        inside = np.abs(col - c) <= eps
        pts = sorted(set(crossings))
        edges = [xlo] + pts + [xhi]
        total = 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            mid = 0.5 * (a + b)
            vm = float(f.eval_fn((0, 0), np.array([mid]), np.array([yv]))[0])
            if abs(vm - c) <= eps:
                total += b - a
        # guard: fall back to scan counting if the edge walk lost a region
        approx = inside.mean() * (xhi - xlo)
        if total == 0.0 and approx > 2.0 * (xhi - xlo) / n_scan:
            total = float(approx)
        out[j] = total
    return out


def sublevel_2d(f: Phase2D, c: float, eps: float, domain: PlanarDomain | None = None,
                rel_tol: float = 1e-7) -> float:
    """Planar measure of {|f - c| <= eps} by outer quadrature of slice measures."""
    if eps <= 0:
        raise PreconditionError("eps must be positive")
    dom = domain or f.domain
    total = 0.0
    for ax, bx, ay, by in dom.rects:
        fvec = lambda ys: _slice_measures(f, np.asarray(ys, dtype=float), c, eps, ax, bx)
        val, _ = adaptive_quad(fvec, ay, by, rel_tol=rel_tol, abs_floor=1e-12)
        total += val
    return float(total)


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
        and the zeros of rhohat(h xi) bisected from a scan at spacing 1/24."""
        grid = np.linspace(1e-6, hi, int(hi * 24) + 2)
        vals = self.rho_hat(self.H * grid)
        idx = np.flatnonzero(vals[:-1] * vals[1:] < 0.0)
        lo_x, hi_x = grid[idx], grid[idx + 1]
        neg = vals[idx] < 0.0
        for _ in range(45):
            m = 0.5 * (lo_x + hi_x)
            take_lo = (self.rho_hat(self.H * m) < 0.0) == neg
            lo_x = np.where(take_lo, m, lo_x)
            hi_x = np.where(take_lo, hi_x, m)
        sinc_zeros = np.arange(1, int(2.0 * self.CORE * hi) + 1) / (2.0 * self.CORE)
        return np.sort(np.concatenate([sinc_zeros, 0.5 * (lo_x + hi_x)]))


@functools.cache
def _bump() -> _Bump:
    # built on first use; a racing first use only builds a duplicate
    return _Bump()


def osc_to_sublevel_constant(delta: float, xi_cutoff: float = 64.0) -> OscToSublevelConstant:
    """C_delta = int_R |phihat(xi)| |xi|^(-delta) d xi for the fixed proof bump.

    The singular end uses the exact substitution u = xi^(1-delta); the tail
    beyond the cutoff must contribute less than 1e-8 relative or the
    computation refuses (raise the cutoff in that case).
    """
    if not (0.0 < delta < 1.0):
        raise PreconditionError("delta must lie in (0, 1)")
    key = (round(delta, 12), xi_cutoff)
    if key in _constant_cache:
        return _constant_cache[key]
    bump = _bump()

    # split at the transform's sign changes so each segment is smooth,
    # then the absolute value costs nothing
    zeros = bump.sign_change_points(2.0 * xi_cutoff)

    def segment_integral(lo: float, hi: float) -> float:
        if hi <= lo:
            return 0.0
        if lo < 1e-9:
            # singular end: u = xi^(1-delta) removes the |xi|^-delta weight
            power = 1.0 / (1.0 - delta)
            val, _ = adaptive_quad(
                lambda us: np.abs(bump.transform_vec(us**power)),
                0.0, hi ** (1.0 - delta), rel_tol=1e-9,
            )
            return power * val
        val, _ = adaptive_quad(
            lambda xs: np.abs(bump.transform_vec(xs)) * xs ** (-delta),
            lo, hi, rel_tol=1e-9,
        )
        return val

    def integrate_range(lo: float, hi: float) -> float:
        cuts = [lo] + [z for z in zeros if lo < z < hi] + [hi]
        return sum(segment_integral(a, b) for a, b in zip(cuts[:-1], cuts[1:]))

    total = 2.0 * integrate_range(0.0, xi_cutoff)
    tail = 2.0 * integrate_range(xi_cutoff, 2.0 * xi_cutoff)
    if tail > 1e-8 * total:
        raise NonconvergentTailError(
            f"tail beyond xi={xi_cutoff} contributes {tail:.3e} > 1e-8 relative; increase the cutoff",
            tail=tail,
        )
    out = OscToSublevelConstant(float(delta), float(total), _BUMP_SPEC)
    _constant_cache[key] = out
    return out
