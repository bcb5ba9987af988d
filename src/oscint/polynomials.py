"""Polynomial arithmetic, root finding, SND classification, and root-proximity covers.

The sublevel set {x : |P(x)| <= eps^d} of a monic polynomial is contained in
the union of intervals of radius eps around the real parts of its roots.
For SND-normalised polynomials (largest coefficient magnitude equal to 1 and
attained in the top half) the same holds with radius B_d * eps for a constant
depending only on the degree; no closed form for B_d is used here, instances
are estimated empirically from cover ratios, each the exact sup over
eps in [COVER_T_LO, 1] of a sublevel set's distance to the root real parts.
A degenerating family demonstrating failure of the inclusion for non-SND
polynomials is provided alongside.

Roots and covers run as kernels over coefficient rows of one degree: one
stacked ``eigvals`` call for the roots of every row, one for the band
edges of every row and eps, and for cover ratios one for the stationary
points of every row and centre, taken ``COVER_CHUNK`` rows at a time so
that memory stays bounded.  The one-polynomial functions are one-row calls
of the same kernels.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import NotSndError, PreconditionError, RootConvergenceError
from .phases import (Interval, _companion, _near_real, _polyval, _root_rows, _rows_at,
                     derivative_coeffs, merge_intervals, real_roots)

CLASSIFY_TOL = 1e-12
DEFAULT_ROOT_TOL = 1e-10
COVER_ROOT_TOL = 1e-7
COVER_T_LO = 0.01  # the SND cover ratios take their sup over t = eps in [COVER_T_LO, 1]
RETRY_ROOT_TOL = 1e-5
COVER_CHUNK = 32  # polynomials per stacked eigenvalue call of the cover kernel
SND_MAX_DRAWS = 1000


@dataclass(frozen=True)
class Polynomial:
    """Real coefficients in ascending order, nonzero leading coefficient."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        c = tuple(float(v) for v in self.coeffs)
        if not c or all(v == 0.0 for v in c):
            raise PreconditionError("zero polynomial is not representable")
        while len(c) > 1 and c[-1] == 0.0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> float:
        return self.coeffs[-1]

    def __call__(self, x):
        return _polyval(np.asarray(x, dtype=float), np.asarray(self.coeffs))

    @cached_property
    def _cover_centers(self) -> tuple[float, ...]:
        """The real parts of the roots, the centres of the root-proximity
        covers; found once per polynomial, which is immutable."""
        return roots(self).real_parts

    def scaled(self, factor: float) -> "Polynomial":
        return Polynomial(tuple(factor * v for v in self.coeffs))


@dataclass(frozen=True)
class RootSet:
    roots: tuple[complex, ...]

    @property
    def count(self) -> int:
        return len(self.roots)

    @property
    def real_parts(self) -> tuple[float, ...]:
        return tuple(z.real for z in self.roots)


@dataclass(frozen=True)
class SndConstant:
    d: int
    B: float
    # per-trial cover ratios B was estimated from, and the trials whose roots
    # passed only the looser residual check; not part of comparison
    ratios: tuple[float, ...] = field(default=(), compare=False, repr=False)
    retried: tuple[int, ...] = field(default=(), compare=False, repr=False)

    def __post_init__(self):
        if self.B < 1.0:
            raise PreconditionError("SND cover constant must be >= 1")


@dataclass(frozen=True)
class ClassifyReport:
    label: str  # "monic" | "SND" | "other"
    is_monic: bool
    is_snd: bool
    attaining_j: int | None
    max_abs_coeff: float
    rescale: float  # multiply coefficients by this to restore max |a| = 1


def derivative(P: Polynomial) -> Polynomial:
    if P.degree < 1:
        raise PreconditionError("cannot differentiate a constant polynomial")
    return Polynomial(tuple(derivative_coeffs(P.coeffs, 1)))


def classify(P: Polynomial) -> ClassifyReport:
    """Scale-checking classification into monic / SND / other.

    SND means the maximum coefficient magnitude is 1 (within 1e-12) and is
    attained by |a_{d-j}| for some j <= d/2.  The check is deliberately not
    scale invariant; the report carries the rescale factor restoring max
    coefficient 1.
    """
    d = P.degree
    mags = [abs(v) for v in P.coeffs]
    mx = max(mags)
    is_monic = abs(P.leading - 1.0) <= CLASSIFY_TOL
    attaining = None
    is_snd = False
    if abs(mx - 1.0) <= CLASSIFY_TOL:
        for j in range(d + 1):
            if mags[d - j] >= mx - CLASSIFY_TOL:
                attaining = j
                break
        is_snd = attaining is not None and attaining <= d / 2.0
    label = "monic" if is_monic else ("SND" if is_snd else "other")
    return ClassifyReport(label, is_monic, is_snd, attaining if is_snd else None,
                          mx, 1.0 / mx)


# ---------------------------------------------------------------------------
# Root finding: the row kernel of ``phases`` (closed forms to degree 2,
# companion-matrix eigenvalues above)
# ---------------------------------------------------------------------------


def roots(P: Polynomial, tol: float = DEFAULT_ROOT_TOL) -> RootSet:
    """All complex roots: closed forms for degree 1 and 2, companion-matrix
    eigenvalues (LAPACK, backward stable) for degree 3 and up; a one-row
    call of the kernel that batched cover checks use.

    Complex roots come in exact conjugate pairs.  Every root satisfies
    |P(z)| <= tol * (1 + max|a_j|), relaxed to the float backward-error scale
    tol * (1 + sum |a_j| |z|^j) when roots are large enough that plain
    evaluation noise exceeds the coefficient scale; otherwise the call raises
    ``RootConvergenceError``.
    """
    z, ok, worst = _root_rows(np.array([P.coeffs]), tol)
    if not ok[0]:
        raise RootConvergenceError(
            f"root residual {worst[0]:.3e} above tolerance scale", degree=P.degree
        )
    return RootSet(tuple(complex(w) for w in z[0]))


# ---------------------------------------------------------------------------
# Product sublevel inclusion (weak Hoelder / Young route)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class YoungCover:
    """Combined sublevel estimate for a product of factors.

    For factors with sublevel constants (C_i, delta_i) the product satisfies
    measure <= C * eps^delta with delta the harmonic combination below, and
    the sublevel set at eps is covered by the per-factor threshold sets
    {|f_i| <= (k*eps/p_i)^(1/p_i)} with p_i = delta_i/delta.
    """

    delta: float
    C: float
    thresholds: tuple[float, ...]
    p: tuple[float, ...]


def young_cover(factors: Sequence[tuple[float, float]], eps: float) -> YoungCover:
    if eps <= 0:
        raise PreconditionError("eps must be positive")
    k = len(factors)
    if k < 1:
        raise PreconditionError("need at least one factor")
    for C_i, d_i in factors:
        if not (0.0 < d_i <= 1.0) or C_i <= 0.0:
            raise PreconditionError("factor exponents must lie in (0,1] with positive constants")
    delta = 1.0 / sum(1.0 / d_i for _, d_i in factors)
    p = tuple(d_i / delta for _, d_i in factors)
    C = sum(C_i * (k * delta / d_i) ** delta for C_i, d_i in factors)
    thresholds = tuple((k * eps / p_i) ** (1.0 / p_i) for p_i in p)
    return YoungCover(delta, C, thresholds, p)


# ---------------------------------------------------------------------------
# Root-proximity covers
# ---------------------------------------------------------------------------


def _root_cover(P: Polynomial, eps: float, radius: float,
                reject: Callable[[ClassifyReport], Exception | None]) -> list[Interval]:
    """Intervals of ``radius`` around the real parts of P's roots, merged.

    ``reject(classify(P))`` returns the error to raise for a polynomial the
    cover does not apply to, or None.
    """
    if eps <= 0:
        raise PreconditionError("eps must be positive")
    err = reject(classify(P))
    if err is not None:
        raise err
    return merge_intervals(((c - radius, c + radius) for c in P._cover_centers), 1e-15)


def monic_sublevel_cover(P: Polynomial, eps: float) -> list[Interval]:
    """Intervals of radius eps around the real parts of the roots.

    Guarantee: {x real : |P(x)| <= eps^d} is contained in their union
    (complex roots contribute through their real parts).
    """
    return _root_cover(P, eps, eps, lambda rep: None if rep.is_monic else
                       PreconditionError("monic cover requires a monic polynomial"))


def snd_sublevel_cover(P: Polynomial, eps: float, B: SndConstant) -> list[Interval]:
    """Same cover with radius B*eps, valid for SND polynomials and eps <= 1."""
    if eps > 1.0:
        raise PreconditionError("SND cover requires eps <= 1")
    if eps == 1.0:
        warnings.warn("SND cover at the eps = 1 boundary; accepted by continuity",
                      stacklevel=2)
    return _root_cover(P, eps, B.B * eps, lambda rep: None if rep.is_snd else
                       NotSndError(f"polynomial is {rep.label}, not SND", report=rep))


def _slack(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """64 ulp * sum |a_j| |x|^j: the rounding slack of |P(x)| against a level."""
    return 64.0 * np.finfo(float).eps * _rows_at(np.abs(c), np.abs(x))


def _band_candidates(c: np.ndarray, re: np.ndarray, eps: np.ndarray):
    """Points where dist(x, nearest root real part) can peak on {|P| <= eps^d},
    for many polynomials of one degree d at once.

    c holds ascending coefficient rows, re each row's d root real parts in
    ascending order and eps each row's eps values, shape (rows, m).  The set
    is a union of bands whose edges are the real roots of P -/+ eps^d, and
    between neighbouring real parts the distance peaks at their midpoint, so
    its sup is attained at an edge or at a midpoint in the set.  Edges come
    from one stacked eigenvalue call over the companion matrices of every
    row, (eps, sign) pair, real by the rule ``roots`` snaps with, once per
    conjugate pair; near a double root they are fixed only to about
    sqrt(machine eps).  A midpoint m is kept where |P(m)| <= eps^d +
    ``_slack``.  The real parts of a conjugate pair stay in ``re`` twice:
    their midpoint is the root's own real part, at distance 0, so it moves
    neither a sup nor a violation list.

    Returns ``(x, |P(x)|, dist, keep)``, each of shape (rows, m, 3d - 1).
    """
    n, d = re.shape
    levels = eps ** d
    shifted = np.broadcast_to(c[:, None, None, :], (n, 2) + eps.shape[1:] + (d + 1,)).copy()
    shifted[..., 0] -= np.stack([levels, -levels], axis=1)
    z = np.linalg.eigvals(_companion(shifted)).swapaxes(1, 2).reshape(n, -1, 2 * d)
    mids = 0.5 * (re[:, None, :-1] + re[:, None, 1:])
    x = np.concatenate([z.real, np.broadcast_to(mids, z.shape[:2] + mids.shape[2:])], axis=2)
    pv = np.abs(_rows_at(c, x))
    keep = np.concatenate([_near_real(z) & (z.imag >= 0),
                           pv[..., 2 * d:] <= levels[..., None] + _slack(c, mids)], axis=2)
    dist = np.min(np.abs(x[..., None] - re[:, None, None, :]), axis=-1)
    return x, pv, dist, keep


def _cover_chunks(c: np.ndarray, re: np.ndarray, eps):
    """``_band_candidates`` over ``COVER_CHUNK`` rows at a time, so that the
    stacked matrices stay bounded; yields (row slice, its candidates)."""
    eps = np.broadcast_to(np.asarray(eps, dtype=float), (c.shape[0], np.shape(eps)[-1]))
    if not np.all(eps > 0.0):
        raise PreconditionError("eps must be positive")
    for lo in range(0, c.shape[0], COVER_CHUNK):
        rows = slice(lo, lo + COVER_CHUNK)
        yield rows, _band_candidates(c[rows], re[rows], eps[rows])


def _stationary_rows(c: np.ndarray, re: np.ndarray) -> np.ndarray:
    """Ascending coefficients of Q = d P - (x - r) P' for every row of c and
    every centre r of that row in ``re``, shape (rows, d, d): along a band
    edge x(t) of {|P| <= t^d}, |x - r| / t is stationary where Q(x) = 0.  The
    x^d terms cancel, so q_k = (d - k) a_k + r (k + 1) a_(k+1), k < d."""
    d = re.shape[1]
    k = np.arange(d)
    return (d - k) * c[:, None, :-1] + re[..., None] * (k + 1) * c[:, None, 1:]


def _cover_ratio_rows(c: np.ndarray, re: np.ndarray) -> np.ndarray:
    """``cover_ratio`` of every row of c, with root real parts ``re``.

    x lies in S(t) = {|P| <= t^d} exactly when t >= |P(x)|^(1/d), so the sup
    over t in [COVER_T_LO, 1] of sup_{S(t)} dist/t is the max over S(1) of
    g(x) = dist(x) / max(COVER_T_LO, |P(x)|^(1/d)).  It is attained at a band
    edge at level 1 or COVER_T_LO^d (``_band_candidates`` at those two t,
    each edge over its t), at an in-set midpoint of neighbouring real parts,
    or where g is stationary: at a real root of a ``_stationary_rows`` row.
    Those rows drop in degree where their leading coefficient vanishes (a
    centre at the centroid of the roots); ``phases.real_roots`` groups them
    by their own degree.  Every candidate is a real point of S(1), so the
    max never exceeds the sup.
    """
    n, d = re.shape
    t = np.array([COVER_T_LO, 1.0])

    def g(dist, p):
        return dist / np.maximum(COVER_T_LO, p ** (1.0 / d))

    out = np.empty(n)
    for rows, (_, pv, dist, keep) in _cover_chunks(c, re, t):
        edges = np.where(keep[..., :2 * d], dist[..., :2 * d], 0.0) / t[:, None]
        mids = np.where(keep[:, 1, 2 * d:], g(dist[:, 1, 2 * d:], pv[:, 1, 2 * d:]), 0.0)
        worst = np.maximum(edges.max(axis=(1, 2)), mids.max(axis=1, initial=0.0))
        k, xs = real_roots(_stationary_rows(c[rows], re[rows]).reshape(-1, d), -np.inf, np.inf)
        k //= d
        ck, xs = c[rows][k], xs[:, None]
        with np.errstate(over="ignore", invalid="ignore"):  # a root far out of S(1)
            p = np.abs(_rows_at(ck, xs))[:, 0]
            inside = p <= 1.0 + _slack(ck, xs)[:, 0]
            gs = g(np.min(np.abs(xs - re[rows][k]), axis=1), p)
        np.maximum.at(worst, k[inside], gs[inside])
        out[rows] = worst
    return out


def cover_ratio(P: Polynomial, tol: float = COVER_ROOT_TOL) -> float:
    """Sup of dist(x, nearest root real part)/t over x in {|P| <= t^d} and t
    in [COVER_T_LO, 1] (0.0 when every such set is empty): the minimal
    radius scale B for which the root-proximity cover holds at every such
    t, taken over a finite set of candidates (see ``_cover_ratio_rows``),
    with no grid in t.  A one-row call of the kernel ``estimate_B`` runs
    over all its trials; roots are checked at ``tol``."""
    re = np.array([roots(P, tol).real_parts])
    return float(_cover_ratio_rows(np.array([P.coeffs]), re)[0])


def cover_violations_rows(coeffs: np.ndarray, radius_scale: float,
                          eps: np.ndarray) -> list[list[dict]]:
    """``cover_violations`` of many polynomials of one degree at once: row k
    of ``coeffs`` (ascending) at ``eps[k]``.  Roots are checked at
    ``COVER_ROOT_TOL``; a row that fails raises ``RootConvergenceError``
    naming its degree and row."""
    c = np.asarray(coeffs, dtype=float)
    eps = np.asarray(eps, dtype=float)
    z, ok, worst = _root_rows(c, COVER_ROOT_TOL)
    if not ok.all():
        k = int(np.argmin(ok))
        raise RootConvergenceError(
            f"root residual {worst[k]:.3e} above tolerance scale in row {k}",
            degree=c.shape[1] - 1, row=k)
    out: list[list[dict]] = [[] for _ in range(c.shape[0])]
    for rows, (x, pv, dist, keep) in _cover_chunks(c, z.real, eps[:, None]):
        e = eps[rows]
        bad = keep[:, 0] & (dist[:, 0] > radius_scale * e[:, None] + 1e-8)
        for k in np.flatnonzero(bad.any(axis=1)):
            i = np.flatnonzero(bad[k])
            out[rows.start + k] = [
                {"x": float(x[k, 0, j]), "abs_P": float(pv[k, 0, j]),
                 "dist": float(dist[k, 0, j]), "eps": float(e[k])}
                for j in i[np.argsort(x[k, 0, i])]]
    return out


def cover_violations(P: Polynomial, radius_scale: float, eps: float,
                     n_grid: int | None = None) -> list[dict]:
    """Band edges and in-set root midpoints of {|P| <= eps^d} farther than
    radius_scale*eps + 1e-8 (root-residual slack) from every root real part,
    in ascending x; roots are checked at ``COVER_ROOT_TOL``.  A one-row call
    of ``cover_violations_rows``.

    ``n_grid`` is accepted and ignored, for callers written against the
    former grid check.
    """
    return cover_violations_rows(np.array([P.coeffs]), radius_scale, np.array([eps]))[0]


# ---------------------------------------------------------------------------
# Empirical SND constants and the degenerating counterexample family
# ---------------------------------------------------------------------------


def sample_snd(d: int, rng: np.random.Generator) -> Polynomial:
    """Uniform coefficients in [-1,1], rejected until the max magnitude falls
    in the top half of the coefficients, then rescaled to max magnitude 1."""
    for _ in range(SND_MAX_DRAWS):
        c = rng.uniform(-1.0, 1.0, size=d + 1)
        if abs(c[-1]) < 1e-6:
            continue
        mags = np.abs(c)
        j_attained = d - int(np.argmax(mags))
        if j_attained <= d / 2.0:
            return Polynomial(tuple(c / mags.max()))
    raise PreconditionError(f"rejection sampling drew no SND polynomial in SND_MAX_DRAWS = {SND_MAX_DRAWS} draws")


def estimate_B(d: int, trials: int = 400, seed: int = 0) -> SndConstant:
    """Smallest radius scale (to 2 significant digits, rounded up) for which
    the SND cover holds on all sampled polynomials at every eps in
    [COVER_T_LO, 1]; each trial's ratio is ``cover_ratio``'s sup over that
    range, so only the draws are sampled.

    Trials draw with per-trial derived seeds, so results do not depend on
    evaluation order.  All trials are drawn first and go through the cover
    kernel together.  A trial whose roots miss the residual check at
    ``COVER_ROOT_TOL`` (clustered roots) is retried at ``RETRY_ROOT_TOL``,
    since the cover uses real parts and B only needs 2 digits; the retry
    changes the check, not the ratio, and a trial that fails it too raises
    ``RootConvergenceError``.  The per-trial ratios come back as ``ratios``,
    the retried trials as ``retried``.
    """
    if d < 1:
        raise PreconditionError("degree must be >= 1")
    if d == 1:
        # |a1 x + a0| <= eps with |a1| = 1 forces |x + a0/a1| <= eps.
        return SndConstant(1, 1.0)
    if trials < 100:
        raise PreconditionError("estimate_B needs at least 100 trials")
    polys = [sample_snd(d, np.random.default_rng(np.random.SeedSequence(entropy=(seed, d, t))))
             for t in range(trials)]
    c = np.array([P.coeffs for P in polys])
    z, ok, _ = _root_rows(c, COVER_ROOT_TOL)
    ratios = _cover_ratio_rows(c, z.real)
    retried = np.flatnonzero(~ok)
    for t in retried:
        # the one-row call at the looser check gives the same ratio, or raises
        try:
            ratios[t] = cover_ratio(polys[t], tol=RETRY_ROOT_TOL)
        except RootConvergenceError as err:
            raise RootConvergenceError(f"{err} at trial {t}", degree=d, trial=int(t)) from err
    worst = max(1.0, float(ratios.max()))
    digits = 1 - math.floor(math.log10(worst))  # two significant digits
    quantum = 10.0 ** -digits
    # rounded to the quantum's decimals: 23 quanta of 0.1 multiply out to 2.3000000000000003
    B = round(math.ceil(worst / quantum) * quantum, digits)
    return SndConstant(d, B, tuple(ratios.tolist()), tuple(retried.tolist()))


def degenerating_family(k: int, eta: float) -> Polynomial:
    """eta * x^(k-1) * (x - eta^(-1/k))^k, expanded to coefficients.

    Degree 2k-1; as eta -> 0 the leading coefficient degenerates and the
    k-fold root escapes to infinity, defeating any fixed cover radius.
    """
    if k < 2:
        raise PreconditionError("family needs k >= 2")
    if not (0.0 < eta <= 1.0):
        raise PreconditionError("family needs eta in (0, 1]")
    rho = eta ** (-1.0 / k)
    factor = np.array([math.comb(k, m) * (-rho) ** (k - m) for m in range(k + 1)])
    shifted = np.zeros(2 * k)
    shifted[k - 1:] = factor
    return Polynomial(tuple(eta * shifted))
