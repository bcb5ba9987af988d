"""Bound certificates for oscillatory integrals with polynomially composed phases.

``certify_1d`` executes the constructive argument behind the composition
estimates as an explicit decomposition: the domain is partitioned into
monotonicity pieces, a root-proximity cover of the composed derivative is
removed and charged by its measure, the low-slope set {|f'| < r} is charged
by its length (the derivative-pushforward bound is recorded alongside), and
every remaining interval is charged with the integration-by-parts bound
6 / (r |lambda| eps^(d-1)) using the piece's own endpoint lower bounds.
Summing the per-piece charges yields a machine-checkable total dominating
|int e^{i lambda P(f)}|.

No uniform constant is ever hardcoded; where the underlying theorems merely
assert existence of constants, certificates expose the computed bounds and a
lambda sweep of totals recovers the predicted exponent.

Every outer function P reaches the engine as one model (``_outer``): a
polynomial of degree >= 2 through its normalised derivative, a power
transform |t|^s, or, for P(t) = t + c, the identity, whose intervals take
the classical van der Corput bound 3 / (r |lambda|).  A model gives its
root-proximity cover as data: ``centers`` (the real parts of the roots of
P', found once; 0 for |t|^s; none for the identity) and one radius
``cover_radius(eps)``.

The engine (``_engine_1d``) runs many jobs at once, each an interval given
by its monotone pieces, with its own lambda, eps, r and claims: the pieces
of all jobs are flat (job, lo, hi) arrays, every job's cover rows
(centre -/+ radius) go to one band solve with per-row levels and one
per-job merge, and its threshold shaves, small-slope bands and spans for
integration by parts are per-piece arrays.  A job's decomposition is the
one it gets alone.
``certify_1d_sweep`` certifies a grid of lambdas as one job each, in one
run; ``certify_1d`` is its one-element call.

``certify_2d_sweep`` runs the two-variable version at n = 2 with
beta = (1, 1) over a grid of lambdas: the domain splits at |d_y f| = gamma;
the boundary of the large-derivative region, and the runs and monotone
pieces of its sampled slices, are cut at roots of the phase's coefficient
rows and columns; every lambda's slices are certified in one engine run, and
the complementary region is charged by its measure, each lambda a slot of
one quadrature; ``certify_2d`` is its one-element call.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    NotNormalizedError,
    PreconditionError,
    SliceOverflowError,
)
from .phases import (Phase2D, PhaseFunction, _gaps, flat_rows, merge_rows,
                     monotone_partition, monotone_rows, real_roots, sign_breaks, solve_brackets)
from .polynomials import Polynomial, SndConstant, classify, derivative, estimate_B, roots
from .quadrature import QuadResult, _adaptive_slots, _lambdas
from .sublevel import (band_pieces, band_sets, kink_segments, osc_to_sublevel_constant,
                       sublevel_rows)

KIND_REMOVED = "removed_sublevel"
KIND_SMALL = "small_derivative"
KIND_IBP = "integration_by_parts"
KIND_MIXED = "slice_small_mixed"

# x-slices of certify_2d's first region: geometric against its boundary, and
# as many again evenly spaced
SLICE_SAMPLES = 33


@functools.cache
def default_snd_constant(degree: int) -> SndConstant:
    """Cached empirical cover constant for SND polynomials of the given degree."""
    return estimate_B(degree, trials=200, seed=20260809)


# ---------------------------------------------------------------------------
# Formula operations
# ---------------------------------------------------------------------------


def derivpush_bound(B: float, delta: float, r: float) -> float:
    """Length bound for an interval where |f'| <= r, given the sublevel
    estimate measure <= B * alpha^delta: (B / 2^delta)^(1/(1-delta)) * r^(delta/(1-delta))."""
    if not (0.0 < delta < 1.0) or B <= 0.0 or r <= 0.0:
        raise PreconditionError("derivpush_bound needs B > 0, r > 0, delta in (0,1)")
    return (B / 2.0**delta) ** (1.0 / (1.0 - delta)) * r ** (delta / (1.0 - delta))


def ibp_bound(r: float, eps: float, d: float, lam: float) -> float:
    """Integration-by-parts bound 6 / (r |lambda| eps^(d-1)) on an interval
    where |f'| >= r and the composed derivative magnitude is >= eps^(d-1),
    both monotone."""
    if lam == 0.0:
        raise PreconditionError("ibp_bound needs lambda != 0")
    if r <= 0.0 or eps <= 0.0:
        raise PreconditionError("ibp_bound needs positive r and eps")
    return 6.0 / (r * abs(lam) * eps ** (d - 1.0))


# ---------------------------------------------------------------------------
# Certificate data model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CertificateParams:
    epsilon: float
    r: float
    lam: float
    delta: float
    d: float
    gamma: float | None = None
    mode: str = "general"


@dataclass(frozen=True)
class CertPiece:
    kind: str
    support: tuple
    bound: float
    formula: str
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "support": list(self.support),
            "bound": self.bound,
            "formula": self.formula,
            "details": self.details,
        }


@dataclass
class Certificate:
    pieces: list[CertPiece]
    params: CertificateParams
    total_bound: float
    notes: dict = field(default_factory=dict)
    verified_against: QuadResult | None = field(default=None, init=False)

    def verify_against(self, quad: QuadResult) -> bool:
        """Record a quadrature result; true when the certificate dominates it."""
        self.verified_against = quad
        return abs(quad.value) <= self.total_bound + quad.error_estimate

    def to_dict(self) -> dict:
        out = {
            "params": {
                "epsilon": self.params.epsilon,
                "r": self.params.r,
                "lambda": self.params.lam,
                "delta": self.params.delta,
                "d": self.params.d,
                "gamma": self.params.gamma,
                "mode": self.params.mode,
            },
            "total_bound": self.total_bound,
            "pieces": [p.to_dict() for p in self.pieces],
            "notes": self.notes,
        }
        if self.verified_against is not None:
            out["verified_against"] = {
                "value_re": self.verified_against.value.real,
                "value_im": self.verified_against.value.imag,
                "error_estimate": self.verified_against.error_estimate,
                "lambda": self.verified_against.lam,
            }
        return out


def _finish(pieces: list[CertPiece], params: CertificateParams, notes: dict) -> Certificate:
    pieces = sorted(pieces, key=lambda p: p.support[:1])
    total = float(sum(p.bound for p in pieces))
    return Certificate(pieces, params, total, notes)


# ---------------------------------------------------------------------------
# Outer-function models: what the engine needs of P
# ---------------------------------------------------------------------------


class _Outer:
    """An outer function P of degree ``d`` as the engine sees it: a cover of
    the t where |P'(t)| is small, as data (intervals of radius
    ``cover_radius(eps)`` about each of ``centers``), the threshold
    eps^(d-1) outside it, |P'| itself, the breaks of P' monotonicity
    (``prime_breaks``), and the bound on an interval where |f'| >= r and
    |P'(f)| >= m."""

    prime_breaks: tuple[float, ...] = ()

    def threshold(self, eps: float) -> float:
        return eps ** (self.d - 1.0)

    def ibp(self, r: float, m: float, lam: float) -> tuple[float, str]:
        return ibp_bound(r, m ** (1.0 / (self.d - 1.0)), self.d, lam), "ibp_6_over_r_lam_eps"


class _Identity(_Outer):
    """P(t) = t + c, the base case: no cover, |P'| = 1 and the classical van
    der Corput bound 3 / (r |lambda|)."""

    d, label, centers = 1.0, "identity", ()

    def dprime_abs(self, t):
        return np.ones_like(t)

    def ibp(self, r: float, m: float, lam: float) -> tuple[float, str]:
        return 3.0 / (r * abs(lam)), "vdc_ibp_3_over_r_lam"


_IDENTITY = _Identity()


@dataclass(frozen=True)
class PowerTransform(_Outer):
    """Outer transform t -> |t|^s for s > 1.

    Its derivative s |t|^(s-1) sgn(t) is monotone with a single zero, and
    {|T'| <= eps^(s-1)} is exactly {|t| <= eps / s^(1/(s-1))}, so the
    certificate machinery runs with d replaced by s.
    """

    exponent: float
    label, centers = "power", (0.0,)

    def __post_init__(self):
        if self.exponent <= 1.0:
            raise PreconditionError("power transform needs exponent > 1")

    @property
    def d(self) -> float:
        return self.exponent

    def cover_radius(self, eps: float) -> float:
        return eps * self.d ** (-1.0 / (self.d - 1.0))

    def dprime_abs(self, t):
        return self.d * np.abs(t) ** (self.d - 1.0)


class _PolyOuter(_Outer):
    """P' normalised, with the real roots of P'' and the real parts of the
    roots of P', the cover's centres, found once, at construction.  The
    radius is B * eps: the monic cover's eps, or B_d * eps for SND, which
    holds for eps <= 1, and SND needs |lambda| >= 1, so eps <= 1."""

    def __init__(self, P: Polynomial, lam_abs: float):
        if P.degree < 2:
            raise PreconditionError("P needs degree >= 2, or P' = 1 for the base case")
        self.d = float(P.degree)
        self.Pp = derivative(P)
        rep = classify(self.Pp)
        if not (rep.is_monic or rep.is_snd):
            raise NotNormalizedError(
                f"P' is {rep.label}; rescale by {rep.rescale:.6g} to restore max coefficient 1",
                report=rep,
            )
        if not rep.is_monic and lam_abs < 1.0:
            raise PreconditionError("SND normalisation requires |lambda| >= 1")
        self.B = 1.0 if rep.is_monic else default_snd_constant(self.Pp.degree).B
        self.centers = self.Pp._cover_centers
        self.label = "monic" if rep.is_monic else "SND"
        if self.Pp.degree >= 2:
            self.prime_breaks = tuple(z.real for z in roots(derivative(self.Pp)).roots
                                      if z.imag == 0.0)

    def cover_radius(self, eps: float) -> float:
        return self.B * eps

    def dprime_abs(self, t):
        return np.abs(self.Pp(t))


def _outer(P: Polynomial | PowerTransform, lam_abs: float) -> _Outer:
    """The engine's model of P: a power transform as it is, P(t) = t + c as
    the identity, any other polynomial through its normalised derivative."""
    if isinstance(P, PowerTransform):
        return P
    if P.degree == 1 and classify(derivative(P)).is_monic:
        return _IDENTITY
    return _PolyOuter(P, lam_abs)


# ---------------------------------------------------------------------------
# The shared 1D engine
# ---------------------------------------------------------------------------


def _expand(rows: np.ndarray, of: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each entry i of ``rows``, the entries of the sorted ``of`` that
    equal rows[i]: (owner, index) arrays, by owner, then index."""
    start = np.searchsorted(of, rows)
    count = np.searchsorted(of, rows, side="right") - start
    owner = np.repeat(np.arange(rows.size), count)
    return owner, np.arange(owner.size) + np.repeat(start - np.cumsum(count) + count, count)


def _engine_1d(bases, mono, ev, outer, lam: Sequence[float], eps: Sequence[float],
               r: Sequence[float], claims: Sequence[dict | None]
               ) -> list[tuple[list[CertPiece], dict]]:
    """Per-piece decompositions of many intervals at once, one per job.

    Job j is an interval given by its monotone pieces, the entries of job j
    in ``bases`` (of the hypothesis order N) and ``mono`` (of order 1), flat
    (job, lo, hi) arrays ordered by job, then left end.  ``ev(order, x, j)``
    evaluates derivative ``order`` (0 or 1) of the phases of jobs ``j`` at
    the points ``x``, so each bracket solve below serves every job.
    ``outer`` is the model of P (``_outer``); job j runs at ``lam[j]``,
    ``eps[j]`` and ``r[j]`` with the claims ``claims[j]`` (None without a
    decay claim).  Each job's decomposition is the one it gets alone.
    Returns (pieces, notes) per job.
    """
    n_jobs = len(lam)
    bj, blo, bhi = bases

    # refine at pullbacks of the outer derivative's monotonicity breaks: each
    # piece is cut at its cuts, in x order, and a cut twice at one point
    # (a doubled break) leaves no empty piece
    t_stars = np.array(outer.prime_breaks)
    if t_stars.size:
        fa, fb = ev(0, blo, bj), ev(0, bhi, bj)
        k, t = np.nonzero((np.minimum(fa, fb)[:, None] < t_stars)
                          & (t_stars < np.maximum(fa, fb)[:, None]))
        t = t_stars[t]
        lo_b, hi_b = solve_brackets(lambda x, q: ev(0, x, bj[k[q]]) - t[q], blo[k], bhi[k],
                                    fa[k] - t <= 0.0)
        cuts = 0.5 * (lo_b + hi_b)
        inside = (blo[k] < cuts) & (cuts < bhi[k])
        k, cuts = k[inside], cuts[inside]
        order = np.lexsort((cuts, k))
        piece, blo, bhi = _gaps(bj.size, k[order], cuts[order], cuts[order], blo, bhi)
        step = bhi > blo
        bj, blo, bhi = bj[piece][step], blo[step], bhi[step]

    # removed root-proximity cover, pulled back through f: one band row per
    # job and distinct centre (a conjugate pair's real part once), all in one
    # solve; each job's bands merged
    centers = np.array(sorted(set(outer.centers)))
    rj, rlo, rhi = np.zeros(0, dtype=np.intp), np.zeros(0), np.zeros(0)
    if centers.size:
        row_job = np.repeat(np.arange(n_jobs), centers.size)
        t, radius = np.tile(centers, n_jobs), outer.cover_radius(np.array(eps))[row_job]
        owner, at = _expand(row_job, mono[0])
        band, lo, hi = band_sets(lambda x, q: ev(0, x, row_job[q]),
                                 (owner, mono[1][at], mono[2][at]), t - radius, t + radius)
        rj, rlo, rhi = merge_rows(row_job[band], lo, hi, 1e-13)
    measured = np.bincount(rj, rhi - rlo, n_jobs).tolist()

    # what the cover leaves; where |P'(f)| is under the threshold at one end,
    # shave that end off at the crossing, and at both ends drop the piece:
    # the shaved span is (span_lo, span_hi), NaN where there is none
    gj, glo, ghi = _gaps(n_jobs, rj, rlo, rhi, np.full(n_jobs, -np.inf), np.full(n_jobs, np.inf))
    owner, at = _expand(bj, gj)
    a, b = np.maximum(blo[owner], glo[at]), np.minimum(bhi[owner], ghi[at])
    kept = b - a > 1e-13
    kj, a, b = bj[owner][kept], a[kept], b[kept]
    threshold = np.array([outer.threshold(e) for e in eps])[kj]
    ea, eb = outer.dprime_abs(ev(0, a, kj)), outer.dprime_abs(ev(0, b, kj))
    thr_ok = threshold * (1.0 - 1e-9)
    low_a, low_b = ea < thr_ok, eb < thr_ok
    sv = np.flatnonzero(low_a ^ low_b)
    lo_s, hi_s = solve_brackets(
        lambda x, q: outer.dprime_abs(ev(0, x, kj[sv[q]])) - threshold[sv[q]],
        a[sv], b[sv], ea[sv] - threshold[sv] <= 0.0)
    x_cut = np.full(a.size, np.nan)
    x_cut[sv] = 0.5 * (lo_s + hi_s)
    span_lo, span_hi = np.where(low_a, a, x_cut), np.where(low_b, b, x_cut)
    a, b = np.where(low_a & ~low_b, x_cut, a), np.where(low_b, np.where(low_a, a, x_cut), b)
    m_piece = np.maximum(np.minimum(outer.dprime_abs(ev(0, a, kj)),
                                    outer.dprime_abs(ev(0, b, kj))), threshold)
    live = np.flatnonzero(b - a > 1e-13)

    # the small-slope band {|f'| <= r} of every live piece, in one solve
    lj = kj[live]
    f1a, f1b = ev(1, a[live], lj), ev(1, b[live], lj)
    r_live = np.array(r, dtype=float)[lj]
    s_lo, s_hi, found = band_pieces(lambda x, q: ev(1, x, lj[q]), a[live], b[live],
                                    f1a, f1b, -r_live * (1.0 - 1e-12), r_live * (1.0 - 1e-12))
    ra, rb, rs_lo, rs_hi = (np.abs(v) for v in (f1a, f1b, ev(1, s_lo, lj), ev(1, s_hi, lj)))
    # the spans it leaves for integration by parts, with |f'| at their ends:
    # [a, band) and (band, b], or the whole piece where the band misses it
    left, right = ~found | (s_lo > a[live] + 1e-13), found & (s_hi < b[live] - 1e-13)
    ibp = [np.concatenate([u[left], v[right]]).tolist() for u, v in (
        (live, live), (a[live], s_hi), (np.where(found, s_lo, b[live]), b[live]),
        (ra, rs_hi), (np.where(found, rs_lo, rb), rb))]

    # each kept piece k adds its shaved span, its small-slope band and its
    # spans for integration by parts, in that order
    shaved = np.flatnonzero(~np.isnan(span_lo))
    out = [([], {"shrunk_for_threshold": n})
           for n in np.bincount(kj[shaved], minlength=n_jobs).tolist()]
    job, m_piece = kj.tolist(), m_piece.tolist()
    entries = [(k, CertPiece(KIND_REMOVED, (lo, hi), hi - lo, "measured_sublevel_measure",
                             {"measured": hi - lo, "origin": "threshold_safety"}))
               for k, lo, hi in zip(shaved.tolist(), span_lo[shaved].tolist(),
                                    span_hi[shaved].tolist())]
    for k, lo, hi in zip(live[found].tolist(), s_lo[found].tolist(), s_hi[found].tolist()):
        j = job[k]
        details = {"measured": hi - lo, "r": r[j]}
        if claims[j] is not None:
            details["derivpush"] = derivpush_bound(claims[j]["sublevel_B"], claims[j]["delta"], r[j])
        entries.append((k, CertPiece(KIND_SMALL, (lo, hi), hi - lo, "measured_interval_length",
                                     details)))
    for k, lo, hi, r_lo, r_hi in zip(*ibp):
        j = job[k]
        r_piece = max(min(r_lo, r_hi), r[j])
        formula_val, formula_name = outer.ibp(r_piece, m_piece[k], lam[j])
        entries.append((k, CertPiece(
            KIND_IBP, (lo, hi), min(hi - lo, formula_val), formula_name,
            {"length": hi - lo, "formula_value": formula_val, "r_piece": r_piece,
             "min_dprime": m_piece[k]})))

    for j, lo, hi in zip(rj.tolist(), rlo.tolist(), rhi.tolist()):
        per_root = None if claims[j] is None else claims[j]["removed_unit"]
        claimed = 0.0 if claims[j] is None else per_root * len(outer.centers)
        out[j][0].append(CertPiece(
            KIND_REMOVED, (lo, hi),
            (hi - lo) * claimed / measured[j] if measured[j] > claimed > 0 else hi - lo,
            "measured_sublevel_measure",
            {"measured": hi - lo, "claimed_per_root": per_root, "origin": "root_proximity_cover"},
        ))
    for k, piece in sorted(entries, key=lambda e: e[0]):
        out[job[k]][0].append(piece)
    return out


# ---------------------------------------------------------------------------
# Public one-dimensional certification
# ---------------------------------------------------------------------------


def certify_1d_sweep(f: PhaseFunction, P: Polynomial | PowerTransform, lams: Sequence[float],
                     mode: str, delta: float | None = None, A: float | None = None,
                     N: int | None = None) -> list[Certificate]:
    """Certificates for |int_I e^{i lam P(f(x))} dx|, one per lambda of ``lams``.

    mode "general": f carries an oscillatory-decay claim |I(lam)| <= A lam^-delta
    (A >= 1, 0 < delta < 1) plus the single-signed structure of order meta.N;
    delta defaults to ``f.meta.claimed_delta``, A must be given.
    mode "vdc": |f^(N)| >= 1 is declared (f' monotone when N = 1) and the
    certified rate is 1/(N d).

    The model of P is built once and every lambda is one job of a single
    engine run; each certificate is the one its lambda gets alone.
    """
    lams = _lambdas(lams)
    if not lams:
        return []
    if 0.0 in lams:
        raise PreconditionError("certify_1d needs lambda != 0")
    lam_abs = [abs(lam) for lam in lams]
    outer = _outer(P, min(lam_abs))
    if outer is _IDENTITY:
        raise PreconditionError("composition theorem requires degree >= 2")
    d = outer.d

    if mode == "general":
        delta = delta if delta is not None else f.meta.claimed_delta
        if delta is None or A is None:
            raise PreconditionError("general mode needs (delta, A)")
        if not (0.0 < delta < 1.0):
            raise PreconditionError("general mode needs delta in (0, 1)")
        if A < 1.0:
            raise PreconditionError("general mode needs A >= 1")
        delta_eff = float(delta)
        r = [la ** (-(1.0 - delta_eff) / d) for la in lam_abs]
        C = osc_to_sublevel_constant(delta_eff)
        claims = [{
            "delta": delta_eff,
            "A": float(A),
            "C_delta": C.C_delta,
            "sublevel_B": C.C_delta * float(A),
            "removed_unit": C.C_delta * float(A) * outer.cover_radius(la ** (-1.0 / d))**delta_eff,
        } for la in lam_abs]
    elif mode == "vdc":
        N_eff = N if N is not None else f.meta.N
        if N_eff < 1:
            raise PreconditionError("vdc mode needs N >= 1")
        lb = f.meta.derivative_lower_bound
        if lb is None or lb < 1.0:
            raise PreconditionError(
                "vdc mode needs a declared derivative lower bound |f^(N)| >= 1"
            )
        if min(lam_abs) < 1.0:
            raise PreconditionError("vdc mode certifies |lambda| >= 1")
        delta_eff = 1.0 / N_eff
        r = [la ** (-(N_eff - 1.0) / (N_eff * d)) for la in lam_abs]
        claims = [None] * len(lams)
    else:
        raise PreconditionError(f"unknown mode {mode!r}")

    eps = [la ** (-1.0 / d) for la in lam_abs]
    n = len(lams)
    results = _engine_1d(flat_rows(monotone_partition(f), n),
                         flat_rows(monotone_partition(f, order_cap=1), n),
                         lambda order, x, _: f.eval_fn(order, x), outer, lams, eps, r, claims)
    certs = []
    for lam, e, r_j, claim, (pieces, notes) in zip(lams, eps, r, claims, results):
        notes["outer"] = outer.label
        if claim is not None:
            notes["C_delta"] = claim["C_delta"]
            notes["A"] = claim["A"]
            if not C.converged:
                notes["C_delta_converged"] = False
        certs.append(_finish(pieces, CertificateParams(e, r_j, lam, delta_eff, d, None, mode),
                             notes))
    return certs


def certify_1d(f: PhaseFunction, P: Polynomial | PowerTransform, lam: float,
               mode: str, delta: float | None = None, A: float | None = None,
               N: int | None = None) -> Certificate:
    """Certificate for |int_I e^{i lam P(f(x))} dx|: the one-element
    ``certify_1d_sweep``, whose docstring gives the modes."""
    [cert] = certify_1d_sweep(f, P, [lam], mode, delta=delta, A=A, N=N)
    return cert


# ---------------------------------------------------------------------------
# Two dimensions (n = 2)
# ---------------------------------------------------------------------------


def _x_starts(f: Phase2D, gammas) -> list[float | None]:
    """Per gamma of ``gammas``, the least x of the rectangle whose slice
    reaches |d_y f| >= gamma, or None.  Under N2 = 2, d_y f is monotone
    along each slice, so its largest modulus sits at y = ay or y = by:
    ``ax`` itself, or the least root in (ax, bx) of the rows
    d_y f(., ay) -/+ gamma and d_y f(., by) -/+ gamma, bisected to the last
    bit from a bracket around it.  The four rows of every gamma go through
    one ``real_roots`` call and every bracket through one
    ``solve_brackets`` call."""
    dom = f.domain
    gammas = np.asarray(gammas, dtype=float)
    y_ends = np.array([dom.ay, dom.by])

    def margin(x, i):
        # <= 0 where the slice at x reaches gamma
        return gammas[i] - np.abs(f.eval_fn((0, 1), x[:, None], y_ends[None, :])).max(axis=1)

    n = gammas.size
    at_ax = margin(np.full(n, dom.ax), np.arange(n)) <= 0.0
    rows = np.tile(np.repeat(f.rows_in_x((0, 1), y_ends), 2, axis=0), (n, 1))
    rows[:, 0] -= np.repeat(gammas, 4) * np.tile([1.0, -1.0], 2 * n)
    row, x = real_roots(rows, dom.ax, dom.bx)
    x0 = np.full(n, np.inf)
    np.minimum.at(x0, row // 4, x)
    k = np.flatnonzero(~at_ax & (x0 < np.inf))
    h = 1e-9 * (1.0 + np.abs(x0[k]))
    start = np.where(at_ax, dom.ax, np.nan)
    start[k] = solve_brackets(lambda x, i: margin(x, k[i]), np.maximum(dom.ax, x0[k] - h),
                              np.minimum(dom.bx, x0[k] + h), False, xtol=0.0)[1]
    return [None if np.isnan(x) else x for x in start.tolist()]


def _runs(f: Phase2D, xs: np.ndarray, gamma: np.ndarray,
          cap: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each slice x0 of ``xs`` and its level of ``gamma``, the runs in
    [ay, by] where |d_y f(x0, y)| >= gamma, as flat (slice, lo, hi) arrays
    ordered by slice, then left end: the signs of the rows d_y f(x0, .) -
    gamma (in a run where >= 0) and d_y f(x0, .) + gamma (where <= 0), from
    one ``phases.sign_breaks`` call over all slices.  A row that is zero
    throughout, a slice at exactly gamma, is one run.  More than ``cap`` runs
    in a slice raise SliceOverflowError."""
    dom = f.domain
    rows = np.tile(f.column_in_y((0, 1), xs), (2, 1))
    n = rows.shape[0]
    rows[:, 0] -= np.concatenate([gamma, -gamma])
    row, breaks, first = sign_breaks(rows, dom.ay, dom.by, 0.0)
    q, lo, hi = _gaps(n, row, breaks, breaks, np.full(n, dom.ay), np.full(n, dom.by))
    # the signs alternate from the first; a run's sign is +1 on a first
    # row, -1 on a second, or 0 on a zero row
    sign = first[q] * np.where((np.arange(q.size) - np.searchsorted(q, q)) % 2, -1, 1)
    run = (hi > lo) & (sign != np.where(q < xs.size, -1, 1))
    q, lo, hi = q[run] % xs.size, lo[run], hi[run]
    count = np.bincount(q, minlength=xs.size)
    over = np.flatnonzero(count > cap)
    if over.size:
        raise SliceOverflowError(
            f"slice decomposed into {count[over[0]]} intervals, cap {cap}",
            gamma=float(gamma[over[0]]))
    order = np.lexsort((lo, q))
    return q[order], lo[order], hi[order]


def certify_2d_sweep(f: Phase2D, P: Polynomial, lams: Sequence[float]) -> list[Certificate]:
    """Certificates for |int_X e^{i lam P(f(x, y))} dx dy| at n = 2, one per
    lambda of ``lams``.

    Hypothesis: beta = (1, 1), that is |d_x d_y f| >= ``derivative_lower_bound``
    on the rectangle, and N2 = 2: d_y^2 f is single-signed, so d_y f is
    monotone along each slice y -> f(x0, y).  Both packaged families meet it
    for every c: d_y^2 f is 0 for ``xy`` and 2 c x^2 for ``xy_quad(c)``.
    The domain splits where |d_y f| crosses gamma = |lambda|^(-1/(2d)).

    The large side comes from roots, with no scan: it starts at
    ``_x_starts``, each sampled slice's runs come from ``_runs``, and their
    monotone pieces of orders up to N2 and up to 1 from one
    ``phases.monotone_rows`` call over the slices' coefficient columns;
    runs and pieces are flat (job, lo, hi) arrays.  The runs are certified
    in one run of the one-dimensional engine with r = gamma (the base case
    P(t) = t uses the classical per-interval bound); the region bound is
    the x-projection width times the worst sampled slice total.  The small
    side is charged by its measure, at most the parametric
    2 * gamma * height: ``sublevel_rows`` measures |d_y f| < gamma along x,
    one flat batch of rows per round, and ``quadrature._adaptive_slots``
    integrates that over y on the segments of ``sublevel.kink_segments`` at
    -/+ gamma, to 1e-6 of the measure.

    P's model and the mixed-derivative check are made once; every lambda's
    slices are jobs of one engine run, and its small side one slot of one
    quadrature call, so each certificate is the one its lambda gets alone.
    """
    lams = _lambdas(lams)
    if not lams:
        return []
    if 0.0 in lams:
        raise PreconditionError("certify_2d needs lambda != 0")
    if not isinstance(P, Polynomial):
        raise PreconditionError("certify_2d composes with a polynomial P")
    lam_abs = [abs(lam) for lam in lams]
    outer = _outer(P, min(lam_abs))
    d = outer.d
    N2 = 2
    gammas = [la ** (-1.0 / (2.0 * d)) for la in lam_abs]
    eps = [1.0 if outer is _IDENTITY else la ** (-1.0 / d) for la in lam_abs]

    ax, bx, ay, by = f.domain.ax, f.domain.bx, f.domain.ay, f.domain.by
    width, height = bx - ax, by - ay

    # spot-check the declared lower bound on the mixed derivative
    mixed = np.abs(f.eval((1, 1), np.linspace(ax, bx, 17)[:, None],
                          np.linspace(ay, by, 17)[None, :]))
    if mixed.min() < f.derivative_lower_bound * (1.0 - 1e-9):
        raise PreconditionError(f"|d_x d_y f| dips to {mixed.min():.3g} below declared bound "
                                f"{f.derivative_lower_bound}")

    # region 1: |d_y f| >= gamma, certified slice by slice.  The worst
    # slice sits at the region boundary (where the slice derivative bound is
    # exactly gamma), so cluster samples against it.
    xs = []
    for x0 in _x_starts(f, gammas):
        x = np.zeros(0) if x0 is None else np.sort(np.concatenate([
            [x0], x0 + (bx - x0) * np.geomspace(1e-8, 1.0, SLICE_SAMPLES),
            np.linspace(x0, bx, SLICE_SAMPLES)]))
        xs.append(x[np.diff(x, prepend=-np.inf) > 0.0])  # each sample once
    slice_lam = np.repeat(np.arange(len(lams)), [x.size for x in xs])
    xs = np.concatenate(xs)
    # every (slice, run) of every lambda is one job of a single engine run
    job_slice, job_lo, job_hi = _runs(f, xs, np.array(gammas)[slice_lam], N2 + 2)
    job_x = xs[job_slice]
    by_order = monotone_rows(f.column_in_y((0, 0), job_x), job_lo, job_hi, N2)
    per_job = lambda v: np.array(v)[slice_lam[job_slice]].tolist()
    results = _engine_1d(by_order[N2 - 1], by_order[0],
                         lambda order, y, j: f.eval_fn((0, order), job_x[j], y),
                         outer, per_job(lams), per_job(eps), per_job(gammas),
                         [None] * job_slice.size)
    # each slice's total, its jobs' bounds summed in job order; per lambda
    # the worst slice is the first of largest total, none where all are 0
    totals = np.bincount(np.repeat(job_slice, [len(ps) for ps, _ in results]),
                         [p.bound for ps, _ in results for p in ps], xs.size)
    ends = np.cumsum(np.bincount(slice_lam, minlength=len(lams))).tolist()
    worst_pieces: list[list[CertPiece]] = [[] for _ in lams]
    for i, (a, b) in enumerate(zip([0] + ends[:-1], ends)):
        if b > a and totals[a:b].max() > 0.0:
            w = a + int(np.argmax(totals[a:b]))
            worst_pieces[i] = [p for j in np.flatnonzero(job_slice == w) for p in results[j][0]]

    # region 2: |d_y f| < gamma, charged by measure
    gamma_strict = np.array(gammas) * (1.0 - 1e-12)
    a, b, slot = kink_segments(f, (0, 1), np.column_stack([-gamma_strict, gamma_strict]))
    measured, quad_err, converged = (v.tolist() for v in _adaptive_slots(
        lambda ys, s: sublevel_rows(f, (0, 1), ys, 0.0, gamma_strict[s]), a, b, slot,
        len(lams), 1e-6, 1e-14))

    certs = []
    for i, (lam, gamma) in enumerate(zip(lams, gammas)):
        pieces = [CertPiece(p.kind, (ax, bx) + p.support, p.bound * width,
                            p.formula + "_x_width",
                            dict(p.details, slice_charge=p.bound, width=width))
                  for p in worst_pieces[i]]
        notes = {"gamma": gamma, "slice_samples": SLICE_SAMPLES}
        if not converged[i]:
            notes["region2_converged"] = False
        parametric = 2.0 * gamma * height
        pieces.append(CertPiece(
            KIND_MIXED, (ax, bx, ay, by), float(min(measured[i] + quad_err[i], parametric)),
            "measured_region_measure",
            {"measured": measured[i], "outer_quad_error": quad_err[i], "parametric": parametric,
             "gamma": gamma}))
        params = CertificateParams(eps[i], gamma, lam, 1.0 / (2.0 * d), d, gamma,
                                   "2d_base" if outer is _IDENTITY else "2d")
        certs.append(_finish(pieces, params, notes))
    return certs


def certify_2d(f: Phase2D, P: Polynomial, lam: float) -> Certificate:
    """Certificate for |int_X e^{i lam P(f(x, y))} dx dy| at n = 2: the
    one-element ``certify_2d_sweep``, whose docstring gives the hypothesis."""
    [cert] = certify_2d_sweep(f, P, [lam])
    return cert
