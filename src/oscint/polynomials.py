"""Polynomial arithmetic, root finding, SND classification, and root-proximity covers.

The sublevel set {x : |P(x)| <= eps^d} of a monic polynomial is contained in
the union of intervals of radius eps around the real parts of its roots.
For SND-normalised polynomials (largest coefficient magnitude equal to 1 and
attained in the top half) the same holds with radius B_d * eps for a constant
depending only on the degree; no closed form for B_d is used here, instances
are estimated empirically from exact cover ratios, sups taken at band edges.
A degenerating family demonstrating failure of the inclusion for non-SND
polynomials is provided alongside.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .decay import geometric_grid
from .errors import NotSndError, PreconditionError, RootConvergenceError
from .phases import Interval, merge_intervals

_polyval = np.polynomial.polynomial.polyval

CLASSIFY_TOL = 1e-12
DEFAULT_ROOT_TOL = 1e-10
COVER_ROOT_TOL = 1e-7
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

    @property
    def max_abs_coeff(self) -> float:
        return max(abs(v) for v in self.coeffs)

    def __call__(self, x):
        return _polyval(np.asarray(x, dtype=float), np.asarray(self.coeffs))

    def eval_complex(self, z):
        return _polyval(np.asarray(z, dtype=complex), np.asarray(self.coeffs))

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
    # per-trial cover ratios B was estimated from; not part of comparison
    ratios: tuple[float, ...] = field(default=(), compare=False, repr=False)

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
    c = np.asarray(P.coeffs)
    return Polynomial(tuple(c[1:] * np.arange(1, c.size)))


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
# Root finding: closed forms to degree 2, companion-matrix eigenvalues above
# ---------------------------------------------------------------------------


def _near_real(z: np.ndarray) -> np.ndarray:
    return np.abs(z.imag) <= 1e-9 * (1.0 + np.abs(z.real))


def _snap_and_sort(z: np.ndarray) -> tuple[complex, ...]:
    """Put roots within 1e-9 relative of the real axis on it; order by (real, imag)."""
    out = [complex(w.real, 0.0) if r else complex(w) for w, r in zip(z, _near_real(z))]
    return tuple(sorted(out, key=lambda w: (w.real, w.imag)))


def _companion(c: np.ndarray) -> np.ndarray:
    """Companion matrices of the ascending coefficient rows c[..., :]."""
    d = c.shape[-1] - 1
    comp = np.zeros(c.shape[:-1] + (d, d))
    comp[..., 1:, :-1] = np.eye(d - 1)
    comp[..., :, -1] = -c[..., :-1] / c[..., -1:]
    return comp


def roots(P: Polynomial, tol: float = DEFAULT_ROOT_TOL) -> RootSet:
    """All complex roots: closed forms for degree 1 and 2, companion-matrix
    eigenvalues (LAPACK, backward stable) for degree 3 and up.

    Complex roots come in exact conjugate pairs.  Every root satisfies
    |P(z)| <= tol * (1 + max|a_j|), relaxed to the float backward-error scale
    tol * (1 + sum |a_j| |z|^j) when roots are large enough that plain
    evaluation noise exceeds the coefficient scale; otherwise the call raises
    ``RootConvergenceError``.
    """
    d = P.degree
    if d < 1:
        raise PreconditionError("roots requires degree >= 1")
    if d == 1:
        a0, a1 = P.coeffs
        return RootSet((complex(-a0 / a1),))
    if d == 2:
        a0, a1, a2 = P.coeffs
        disc = complex(a1 * a1 - 4.0 * a2 * a0)
        sq = np.sqrt(disc)
        # stable quadratic: avoid cancellation in the small root
        q = -0.5 * (a1 + (sq if a1 >= 0 else -sq))
        r1 = q / a2
        r2 = (a0 / q) if q != 0 else -a1 / a2 - r1
        z = np.array([r1, r2])
        if not _near_real(z).any():
            # a complex pair: average it, positive-imaginary root first
            zp, zn = (r1, r2) if r1.imag > 0 else (r2, r1)
            avg = 0.5 * (zp + np.conj(zn))
            return RootSet((complex(np.conj(avg)), complex(avg)))
        return RootSet(_snap_and_sort(z))

    z = np.linalg.eigvals(_companion(np.asarray(P.coeffs)))
    resid = np.abs(P.eval_complex(z))
    mags = np.abs(z)
    eval_scale = sum(abs(a) * mags**j for j, a in enumerate(P.coeffs))
    if not np.all(resid <= np.maximum(tol * (1.0 + P.max_abs_coeff), tol * (1.0 + eval_scale))):
        raise RootConvergenceError(
            f"root residual {resid.max():.3e} above tolerance scale", degree=d
        )
    return RootSet(_snap_and_sort(z))


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
    rs = roots(P)
    return merge_intervals(((c - radius, c + radius) for c in rs.real_parts), 1e-15)


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


def _band_candidates(P: Polynomial, eps_values: Sequence[float], tol: float):
    """Points where dist(x, nearest root real part) can peak on {|P| <= eps^d}.

    That set is a union of bands whose edges are the real roots of P -/+ eps^d,
    and between neighbouring real parts the distance peaks at their midpoint,
    so its sup is attained at an edge or at a midpoint in the set.  Edges come
    from one eigenvalue call over the companion matrices of every (eps, sign),
    real by the rule ``roots`` snaps with, once per conjugate pair; near a
    double root they are fixed only to about sqrt(machine eps).  A midpoint m
    is kept where |P(m)| <= eps^d + 64 ulp * sum |a_j| |m|^j (rounding slack).

    Returns ``(x, |P(x)|, dist, keep)``, each of shape (len(eps_values), n).
    """
    eps = np.asarray(eps_values, dtype=float)
    if not np.all(eps > 0.0):
        raise PreconditionError("eps must be positive")
    re = np.array(roots(P, tol).real_parts)  # ascending, as ``roots`` orders them
    re = re[np.append(True, re[1:] != re[:-1])]
    c = np.asarray(P.coeffs)
    d = P.degree
    levels = eps ** d
    shifted = np.tile(c, (2, levels.size, 1))
    shifted[..., 0] -= np.stack([levels, -levels])
    z = np.concatenate(np.linalg.eigvals(_companion(shifted)), axis=1)
    mids = np.broadcast_to(0.5 * (re[:-1] + re[1:]), (levels.size, re.size - 1))
    x = np.concatenate([z.real, mids], axis=1)
    pv = np.abs(P(x))
    slack = 64.0 * np.finfo(float).eps * _polyval(np.abs(mids), np.abs(c))
    keep = np.concatenate([_near_real(z) & (z.imag >= 0),
                           pv[:, 2 * d:] <= levels[:, None] + slack], axis=1)
    dist = np.min(np.abs(x[..., None] - re), axis=-1)
    return x, pv, dist, keep


def cover_ratio(P: Polynomial, eps_values: Sequence[float],
                tol: float = COVER_ROOT_TOL) -> float:
    """Sup of dist(x, nearest root real part)/eps over x in {|P| <= eps^d}
    and eps in ``eps_values`` (0.0 when every such set is empty): exactly the
    minimal radius scale B for which the root-proximity cover holds there."""
    _, _, dist, keep = _band_candidates(P, eps_values, tol)
    worst = np.where(keep, dist, 0.0).max(axis=1)
    return float((worst / np.asarray(eps_values, dtype=float)).max())


def cover_violations(P: Polynomial, radius_scale: float, eps: float,
                     n_grid: int | None = None) -> list[dict]:
    """Band edges and in-set root midpoints of {|P| <= eps^d} farther than
    radius_scale*eps + 1e-8 (root-residual slack) from every root real part,
    in ascending x; roots are checked at ``COVER_ROOT_TOL``.

    ``n_grid`` is accepted and ignored, for callers written against the
    former grid check.
    """
    x, pv, dist, keep = (a[0] for a in _band_candidates(P, [eps], COVER_ROOT_TOL))
    bad = np.flatnonzero(keep & (dist > radius_scale * eps + 1e-8))
    return [{"x": float(x[i]), "abs_P": float(pv[i]), "dist": float(dist[i]), "eps": float(eps)}
            for i in bad[np.argsort(x[bad])]]


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


def default_eps_grid() -> np.ndarray:
    """The 51 eps of the SND cover estimates: 25 per decade on [0.01, 1]."""
    return geometric_grid(1e-2, 1.0, 25)


def estimate_B(d: int, trials: int = 400, seed: int = 0) -> SndConstant:
    """Smallest radius scale (to 2 significant digits, rounded up) for which
    the SND cover holds on all sampled polynomials at every eps of
    ``default_eps_grid()``; each cover ratio is the exact sup over a sublevel set.

    Trials draw with per-trial derived seeds, so results do not depend on
    evaluation order.  The per-trial ratios come back as ``ratios``.
    """
    if d < 1:
        raise PreconditionError("degree must be >= 1")
    if d == 1:
        # |a1 x + a0| <= eps with |a1| = 1 forces |x + a0/a1| <= eps.
        return SndConstant(1, 1.0)
    if trials < 100:
        raise PreconditionError("estimate_B needs at least 100 trials")
    eps_values = default_eps_grid()
    ratios = np.empty(trials)
    for t in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, d, t)))
        P = sample_snd(d, rng)
        try:
            ratios[t] = cover_ratio(P, eps_values)
        except RootConvergenceError:
            # clustered roots: accept the looser residual, the cover uses
            # real parts and B only needs 2 digits
            ratios[t] = cover_ratio(P, eps_values, tol=1e-5)
    worst = max(1.0, float(ratios.max()))
    quantum = 10.0 ** (math.floor(math.log10(worst)) - 1)
    B = math.ceil(worst / quantum) * quantum
    return SndConstant(d, B, tuple(ratios.tolist()))


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
