"""High-accuracy evaluation of oscillatory integrals int e^{i*lambda*g(x)} dx.

In one dimension each monotone piece of the phase is a work item.  A piece
whose swing |lambda| * |g(b) - g(a)| exceeds ``LEVIN_SWING`` is integrated
by Levin collocation (D. Levin, Math. Comp. 38, 1982): the integral of
h e^{i lambda g} over [a, b] is p(b) e^{i lambda g(b)} - p(a) e^{i lambda g(a)}
for the non-oscillatory solution p of p' + i lambda g' p = h, collocated on
Chebyshev-Lobatto points (order 16 for the monotone pieces of a phase, 24
for the reduction's tail), at a cost that does not grow with lambda; the
residual of the computed p, integrated in modulus, is the error estimate.
``osc_integrate_1d`` takes h = 1; the profile reduction's tail passes a
smooth amplitude h.  One halving loop, ``_levin_halving``, serves every
caller: a piece that fails its share of the tolerance, or on which g' does
not keep a strict sign, is halved, so the pieces next to a stationary point
shrink dyadically until their swing is small (S. Olver, BIT 50, 2010).
Small-swing pieces are cut into panels whose swing (on a monotone piece the
endpoint difference IS the swing, so no derivative bounds are needed) is at
most the configured cap.  The loop, the panel cutter, the panel rule and the
refiner all take functions of (x, slot), as ``phases.solve_brackets`` does,
so many integrals run through them at once: each slot carries its own
lambda, each piece adds to its own slot's sum, and each slot reports its own
convergence.  ``_pieces_integral`` chains them for a set of monotone pieces;
every oscillatory 1D integral of the package, a planar slice or the
reduction's tail too, is one of its slots.  ``osc_integrate_1d_sweep`` gives
each lambda of a grid one slot over the phase's monotone pieces, so a whole
grid is one call; ``osc_integrate_1d`` is its one-element call.  Slots are
grouped in runs, each the work of one lambda of a sweep, and runs decide
budgets only: each run has its own panel budget.  Every panel's and piece's
products are its own (``_rowwise``), so a lambda gets the same bits in any
sweep as alone.

In two dimensions (Levin's planar scheme, same paper) the slice integrals
are, where every slice is monotone with a large swing, sums of end terms
A(y) e^{i lambda f(side, y)}; the outer integral is ``_levin_halving`` over
y on the edge columns, at a cost that grows like log lambda.  The rest is
set aside: tensor Gauss blocks where its swing is small, swing panels in y
elsewhere.  ``osc_integrate_2d_sweep`` takes a grid of lambdas in one pass,
each a slot and a run of its own, and ``osc_integrate_2d`` is its
one-element call (details and the estimates in ``osc_integrate_2d_sweep``).

Every integrator applies one panel rule, ``_qk15``: the nested
Gauss-Kronrod 7/15 rule (QUADPACK QK15), whose value is the 15-point Kronrod
sum and whose error estimate is its distance from the 7-point Gauss sum on 7
of the same 15 samples; the integrators that sample their own panels call
it through ``_kronrod``.  One refiner, ``_refine``, halves the panels whose
estimate exceeds their share of the tolerance and evaluates only the
halves.  With the default cap of pi/2 the Kronrod value is exact to machine
precision, so the estimate bounds the error generously.  Smooth integrands
(slice measures, ``C_delta``) go through ``_adaptive_slots``: one integral
per slot, each held to its own tolerance relative to its own total, with its
own caps and flag; ``adaptive_quad`` is its one-slot call.

Evaluation is vectorised and chunked; summation order is fixed (panels
left to right within a slot, Levin pieces in the order they are accepted),
so results are bit-stable across reruns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import PanelBudgetError, PreconditionError
from .phases import (SIGN_TOL, Phase2D, PhaseFunction, PlanarDomain, _gaps, _rows_at, bernstein,
                     derivative_coeffs, monotone_partition, real_roots, sign_breaks,
                     solve_brackets, taylor_shift)

# QK15 on [-1, 1]: Kronrod nodes x_i >= 0 (the 7-point Gauss nodes are x_1, x_3,
# x_5 and 0), the Kronrod weights, and the Gauss weights on those four nodes.
_XGK = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
])
_WGK = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
])
_WG7 = np.zeros(8)
_WG7[1::2] = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
              0.381830050505118944950369775488975, 0.417959183673469387755102040816327)

_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])  # 15 nodes, ascending
_WK = np.concatenate([_WGK[:-1], _WGK[::-1]])      # Kronrod weights
_WG = np.concatenate([_WG7[:-1], _WG7[::-1]])      # Gauss weights, 0 off the G7 nodes
_W = np.column_stack([_WK, _WK - _WG])             # samples @ _W -> (K15, K15 - G7)
_CHUNK = 1 << 11  # panels per evaluation: 240 KB per sample array, which stays in cache
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class QuadConfig:
    rel_tol: float = 1e-10
    max_panels: int = 1 << 20
    phase_variation_cap: float = math.pi / 2.0

    def __post_init__(self):
        if not (0.0 < self.rel_tol < 1.0):
            raise PreconditionError("rel_tol must lie in (0, 1)")
        if self.max_panels < 1:
            raise PreconditionError("max_panels must be positive")
        if not (0.0 < self.phase_variation_cap <= math.pi):
            raise PreconditionError("phase_variation_cap must lie in (0, pi]")


@dataclass(frozen=True)
class QuadResult:
    value: complex
    error_estimate: float
    panels_used: int
    lam: float
    # False when tolerance refinement stopped (pass cap or panel budget) with
    # panels still over their share of the tolerance
    converged: bool = True

    @property
    def magnitude(self) -> float:
        return abs(self.value)


DEFAULT_CONFIG = QuadConfig()


# ---------------------------------------------------------------------------
# Swing refinement and the panel rule
# ---------------------------------------------------------------------------


def _runs(run, n_slots: int):
    """Each slot's run as an array and the number of runs; None puts every
    slot in run 0."""
    run = np.zeros(n_slots, dtype=np.intp) if run is None else np.asarray(run, dtype=np.intp)
    return run, int(run.max(initial=0)) + 1


def _check_budget(count, budget, lam_abs, run):
    """Raise PANEL_BUDGET for the first run whose ``count`` passes its
    ``budget`` (one for all runs, or one per run), naming the largest
    |lambda| among its slots; ``lam_abs`` and ``run`` are per slot."""
    over = np.flatnonzero(count > budget)
    if over.size:
        r = over[0]
        raise PanelBudgetError(
            f"panel budget {int(np.broadcast_to(budget, count.shape)[r])} exceeded "
            "(lambda too large for config)",
            lam_abs=float(lam_abs[run == r].max()),
        )


def _swing_panels(vmap, lo, hi, slot, lam_abs, cap: float, max_panels, run=None):
    """Halve the panels [lo_i, hi_i] until each swing is at most ``cap``.

    ``vmap(x, s)`` maps n points and their slots to n values or to an (n, k)
    array; a panel's swing is lam_abs[s] * max_k |v(right) - v(left)|, and
    the panels cut from [lo_i, hi_i] keep its slot ``slot[i]``.  Each pass
    evaluates only the new midpoints.  Returns the (left, right, slot)
    arrays, sorted by slot, then left end.  PANEL_BUDGET is raised before a
    run's panels would pass ``max_panels`` (one budget, or one per run).
    """
    L, R = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    S = np.asarray(slot, dtype=np.intp)
    lam_abs = np.asarray(lam_abs, dtype=float)
    run, n_runs = _runs(run, lam_abs.size)
    VL, VR = vmap(L, S), vmap(R, S)
    done: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    n_done = np.zeros(n_runs, dtype=np.intp)
    while L.size:
        swing = lam_abs[S] * np.abs(VR - VL).reshape(L.size, -1).max(axis=1)
        bad = swing > cap
        rs = run[S]
        _check_budget(n_done + np.bincount(rs, minlength=n_runs)
                      + np.bincount(rs[bad], minlength=n_runs), max_panels, lam_abs, run)
        if not bad.all():
            done.append((L[~bad], R[~bad], S[~bad]))
            n_done += np.bincount(rs[~bad], minlength=n_runs)
        if not bad.any():
            break
        L, R, S, VL, VR = L[bad], R[bad], S[bad], VL[bad], VR[bad]
        M = 0.5 * (L + R)
        VM = vmap(M, S)
        L, R, S = np.concatenate([L, M]), np.concatenate([M, R]), np.concatenate([S, S])
        VL, VR = np.concatenate([VL, VM]), np.concatenate([VM, VR])
    if not done:
        return np.empty(0), np.empty(0), np.empty(0, dtype=np.intp)
    left, right, slots = (np.concatenate([d[i] for d in done]) for i in range(3))
    order = np.lexsort((left, slots))
    return left[order], right[order], slots[order]


def _rowwise(x, M):
    """``x @ M``, each row of ``x`` a product of its own: BLAS rounds a row
    of a larger product by the product's shape and the row's place in it,
    so the rows batched beside a panel or piece would move its bits."""
    return (x[:, None, :] @ M)[:, 0]


def _qk15(half, parts):
    """QK15 from samples at the nodes of panels of half-widths ``half``:
    ``parts`` holds a (panel, 15) array of real samples, or the real and
    imaginary ones.  Returns per part the K15 sums, and |K15 - G7| (complex
    for a pair), per panel; each panel's product is its own (``_rowwise``)."""
    # (part, panel, [K15, K15 - G7])
    kg = np.stack([half[:, None] * _rowwise(p, _W) for p in parts])
    return kg[..., 0], (np.hypot(*kg[..., 1]) if len(kg) == 2 else np.abs(kg[0, :, 1]))


def _kronrod(fvec, L: np.ndarray, R: np.ndarray, S: np.ndarray):
    """``_qk15`` on the panels [L_i, R_i] of slots S_i, _CHUNK at a time:
    ``fvec(x, s)`` maps the flat nodes x, 15 consecutive ones per panel, and
    their panels' slots s to a real array or a (real, imaginary) pair."""
    n = L.size
    val, err = None, np.empty(n)
    for a in range(0, max(n, 1), _CHUNK):  # with no panels, one empty chunk sets the shapes
        k = slice(a, a + _CHUNK)
        half = 0.5 * (R[k] - L[k])
        out = fvec((0.5 * (L[k] + R[k])[:, None] + half[:, None] * _NODES).ravel(),
                   np.repeat(S[k], _NODES.size))
        v, err[k] = _qk15(half, [np.reshape(p, (half.size, _NODES.size))
                                 for p in (out if isinstance(out, tuple) else (out,))])
        if val is None:
            val = np.empty((len(v), n))
        val[:, k] = v
    return val, err


def _refine(fvec, L, R, S, n_slots: int, density, max_splits: int, max_panels, run=None):
    """``_kronrod`` on the panels [L_i, R_i] of slots S_i, one of
    0..n_slots-1, halving those over tolerance.

    A panel is over tolerance when its error exceeds its slot's tolerance
    per unit width, ``density``, times its width: one number, or a function
    of the per-slot totals over all current panels (part by slot, from
    ``_slot_sums``) giving one per slot.  Only the halves are evaluated
    next.  ``run[s]`` is slot s's run; a run stops halving after
    ``max_splits`` rounds, or before its panel count would pass
    ``max_panels`` (one budget, or one per run), keeping its panels as they
    are.  A slot's decisions read only its own panels.  Returns (val, err,
    slot, converged) with the panels ordered by slot, then left end;
    ``converged[s]`` is False when a stop left panels of slot s over
    tolerance.
    """
    L, R = np.asarray(L, dtype=float), np.asarray(R, dtype=float)
    S = np.asarray(S, dtype=np.intp)
    run, n_runs = _runs(run, n_slots)
    totals = lambda S, val: np.array([_slot_sums(S, v, n_slots) for v in val])
    val, err = _kronrod(fvec, L, R, S)
    done, n_done, acc = [], np.zeros(n_runs, dtype=np.intp), 0.0
    converged = np.ones(n_slots, dtype=bool)
    for split in range(max_splits + 1):
        tol = density(acc + totals(S, val))[S] if callable(density) else density
        bad = err > tol * (R - L)
        rs = run[S]
        stop = (split == max_splits) | (n_done + np.bincount(rs, minlength=n_runs)
                                        + np.bincount(rs[bad], minlength=n_runs) > max_panels)
        converged[S[bad & stop[rs]]] = False
        bad &= ~stop[rs]
        if not bad.any():
            break
        done.append((L[~bad], S[~bad], val[:, ~bad], err[~bad]))
        n_done += np.bincount(rs[~bad], minlength=n_runs)
        if callable(density):
            acc = acc + totals(*done[-1][1:3])
        M = 0.5 * (L[bad] + R[bad])
        L, R, S = np.concatenate([L[bad], M]), np.concatenate([M, R[bad]]), np.tile(S[bad], 2)
        val, err = _kronrod(fvec, L, R, S)
    if done:
        done.append((L, S, val, err))
        L, S, val, err = (np.concatenate([d[i] for d in done], axis=-1) for i in range(4))
        order = np.lexsort((L, S))
        S, val, err = S[order], val[:, order], err[order]
    return val, err, S, converged


def _chebyshev(n: int):
    """Chebyshev-Lobatto points cos(pi j / n), j = 0..n (descending), and the
    differentiation matrix of the degree-n interpolant on them."""
    t = np.cos(np.pi * np.arange(n + 1) / n)
    c = np.where(np.arange(n + 1) % 2, -1.0, 1.0)
    c[[0, -1]] *= 2.0
    D = np.outer(c, 1.0 / c) / (t[:, None] - t + np.eye(n + 1))
    D -= np.diag(D.sum(axis=1))
    return t, D


def _barycentric(t, x):
    """The matrix that maps values on the Chebyshev-Lobatto points ``t`` to
    their interpolant's values at ``x`` (barycentric form).  A row whose point
    lies on a Lobatto point, to within rounding of the cosine, is that point's
    unit vector."""
    w = np.where(np.arange(t.size) % 2, -1.0, 1.0)
    w[[0, -1]] *= 0.5
    d = x[:, None] - t
    on = np.abs(d) <= _EPS
    B = np.where(on.any(axis=1, keepdims=True), on, w / np.where(on, 1.0, d))
    return B / B.sum(axis=1, keepdims=True)


LEVIN_SWING = 40.0  # pieces of larger swing |lambda| |g(b) - g(a)| go to Levin collocation


def _collocation(n: int):
    """The order-n Levin collocation set (T, D, B, B @ D): the Lobatto points
    and their differentiation matrix, and the maps from collocation values to
    values and to derivatives at the QK15 nodes."""
    t, D = _chebyshev(n)
    B = _barycentric(t, _NODES)
    return t, D, B, B @ D


# order 16 for the monotone pieces of ``_pieces_integral`` (1D sweeps and
# planar slices), order 24 for the reduction's tail, whose amplitude
# -e^u T_k(la e^{ju}) is not a polynomial and takes more pieces at order 16
_LEVIN_16, _LEVIN_24 = _collocation(16), _collocation(24)
# pieces per batched solve: 0.6 MB of order-16 matrices; a solve's cost per
# piece is within 10% of this batch's from 32 to 2,048 pieces
_LEVIN_CHUNK = 128


def _levin(colloc, gd, h, lam, L, R, GL, GR, S):
    """Levin collocation for int_{L_i}^{R_i} h e^{i lam g} dx on each piece.

    ``gd(x, s)`` evaluates g' and ``h(x, s)`` the amplitude of the pieces'
    slots ``s``, whose lambda is ``lam[s]``.  The non-oscillatory solution
    of p' + i lam g' p = h, collocated on the Lobatto points of ``colloc``
    (a ``_collocation`` set) in one batched solve, gives the integral
    p(R) e^{i lam g(R)} - p(L) e^{i lam g(L)}.  Its error is exactly
    int rho e^{i lam g} dx for the residual rho = p' + i lam g' p - h; the
    estimate is int |rho| dx by QK15, plus the rounding of the solve and of
    lam g(L), lam g(R).  A piece on which g' does not keep one sign, beyond
    ``SIGN_TOL``, at every point holds or touches a zero of g': it is not
    solved, and its estimate is infinite.  Each piece's products are its own
    (``_rowwise``).  Returns per piece the value, the estimate and p at L
    and at R (0 on an unsolved piece).
    """
    T, D, B, BD = colloc
    n = T.size
    mid, half = 0.5 * (L + R), 0.5 * (R - L)
    x = mid[:, None] + half[:, None] * np.concatenate([T, _NODES])
    gdx = np.broadcast_to(np.asarray(gd(x, S[:, None]), dtype=float), x.shape)
    ok = (gdx.min(axis=1) > SIGN_TOL) | (gdx.max(axis=1) < -SIGN_TOL)
    val, err = np.zeros(L.size, dtype=complex), np.full(L.size, np.inf)
    p_left, p_right = np.zeros(L.size, dtype=complex), np.zeros(L.size, dtype=complex)
    half, GL, GR, S = half[ok], GL[ok], GR[ok], S[ok]
    lam = np.asarray(lam, dtype=float)[S]
    # in t, with p = half q on x = mid + half t: q' + i lam half g' q = h
    om = (lam * half)[:, None] * gdx[ok]
    hx = h(x[ok], S[:, None])
    A = np.broadcast_to(D, (om.shape[0], n, n)).astype(complex)
    A.reshape(-1, n * n)[:, ::n + 1] += 1j * om[:, :n]  # the diagonals
    q = np.linalg.solve(A, hx[:, :n, None])[..., 0]
    rho = _rowwise(q, BD.T) + 1j * om[:, n:] * _rowwise(q, B.T) - hx[:, n:]
    pb, pa = half * q[:, 0], half * q[:, -1]  # p at R (t = 1) and at L (t = -1)
    val[ok] = pb * np.exp(1j * lam * GR) - pa * np.exp(1j * lam * GL)
    rounding = _EPS * (np.abs(pb) * (n + np.abs(lam * GR)) + np.abs(pa) * (n + np.abs(lam * GL)))
    err[ok] = half * _rowwise(np.abs(rho), _WK) + rounding
    p_left[ok], p_right[ok] = pa, pb
    return val, err, p_left, p_right


def _slot_sums(slot, v, n: int) -> np.ndarray:
    """The sums of ``v`` over each of the slots 0..n-1, each slot's entries
    in their order as one ``np.sum`` call sums them (slots with as many
    entries share one ``sum(axis=1)``); one slot takes that call."""
    if n == 1:
        return np.sum(v, keepdims=True)
    out = np.zeros(n, dtype=v.dtype)
    order = np.argsort(slot, kind="stable")
    slot, v = slot[order], v[order]
    first = np.flatnonzero(np.diff(slot, prepend=-1))
    count = np.diff(first, append=slot.size)
    for c in set(count.tolist()):
        f = first[count == c]
        out[slot[f]] = v[f[:, None] + np.arange(c)].sum(axis=1)
    return out


def _run_chunks(run, size: int):
    """Index arrays that cut pieces of the runs ``run`` into chunks: each
    run's pieces, in order, in groups of ``size`` as the run alone is cut,
    and whole groups filling each chunk up to ``size`` pieces."""
    by_run, pos = np.argsort(run, kind="stable"), np.empty(run.size, dtype=np.intp)
    pos[by_run] = np.arange(run.size) - np.searchsorted(run[by_run], run[by_run])
    order = np.lexsort((run, pos // size))
    group = (pos // size)[order] * (run.max() + 1) + run[order]
    starts, cuts, fill = np.flatnonzero(np.diff(group, prepend=-1)).tolist(), [], size
    for a, b in zip(starts, starts[1:] + [run.size]):
        if fill + b - a > size:
            cuts.append(a)
            fill = 0
        fill += b - a
    return np.split(order, cuts[1:])


def _levin_halving(solve, gval, lam, L, R, slot, n_slots: int, tol: float, max_pieces: int,
                   run=None, ends=None):
    """Levin collocation of an oscillatory integral over the pieces [L_i, R_i].

    ``solve(L, R, GL, GR, S)`` solves pieces, given their ends, the values
    of ``gval`` there and their slots, and returns per piece a value, an
    estimate and any further arrays (``_levin`` bound to its other
    arguments, for one).  ``gval(x, s)`` gives the phase at points x of
    slots s, n values or an (n, k) array; piece i and the pieces cut from it
    add to slot ``slot[i]``, of lambda ``lam[slot[i]]``.  A piece whose
    swing |lam| max_k |g(b) - g(a)| is at most ``LEVIN_SWING`` is set aside
    for panels; a larger one is solved, and accepted when its estimate is at
    most ``tol`` times its width (never where g' vanishes or changes sign),
    else halved, so next to a zero of g' the pieces shrink dyadically.  Each
    round is solved in the chunks of ``_run_chunks``: a piece's result is
    its own, and a run's pieces reach ``solve`` in the groups they would
    alone.  Returns the set-aside (left, right, slot) arrays, and per slot
    the number of accepted pieces and their summed value and estimate; a
    list ``ends`` gets each round's accepted (left, right, slot, *further
    arrays).  PANEL_BUDGET is raised when a run's accepted pieces and
    pending halves would pass ``max_pieces``.
    """
    L, R = np.asarray(L, dtype=float), np.asarray(R, dtype=float)
    S = np.asarray(slot, dtype=np.intp)
    lam_abs = np.abs(np.asarray(lam, dtype=float))
    run, n_runs = _runs(run, n_slots)
    GL, GR = gval(L, S), gval(R, S)
    small = []
    n_levin = np.zeros(n_slots, dtype=np.intp)
    levin_val, levin_err = np.zeros(n_slots, dtype=complex), np.zeros(n_slots)
    while True:
        swing = np.abs(GR - GL)
        near = lam_abs[S] * (swing.max(axis=1) if swing.ndim > 1 else swing) <= LEVIN_SWING
        small.append((L[near], R[near], S[near]))
        L, R, S, GL, GR = L[~near], R[~near], S[~near], GL[~near], GR[~near]
        if not L.size:
            break
        chunks = _run_chunks(run[S], _LEVIN_CHUNK) if L.size > _LEVIN_CHUNK else [slice(None)]
        back = np.argsort(np.concatenate(chunks)) if len(chunks) > 1 else slice(None)
        val, err, *more = (np.concatenate(parts)[back] for parts in zip(*(
            solve(L[k], R[k], GL[k], GR[k], S[k]) for k in chunks)))
        ok = err <= tol * (R - L)
        n_levin += np.bincount(S[ok], minlength=n_slots)
        levin_val += _slot_sums(S[ok], val[ok], n_slots)
        levin_err += _slot_sums(S[ok], err[ok], n_slots)
        if ends is not None:
            ends.append((L[ok], R[ok], S[ok], *(m[ok] for m in more)))
        bad = ~ok
        L, R, S, GL, GR = L[bad], R[bad], S[bad], GL[bad], GR[bad]
        _check_budget(np.bincount(run, n_levin, n_runs) + 2 * np.bincount(run[S], minlength=n_runs),
                      max_pieces, lam_abs, run)
        M = 0.5 * (L + R)
        GM = gval(M, S)
        L, R, S = np.concatenate([L, M]), np.concatenate([M, R]), np.concatenate([S, S])
        GL, GR = np.concatenate([GL, GM]), np.concatenate([GM, GR])
    SL, SR, SS = (np.concatenate([p[i] for p in small]) for i in range(3))
    return SL, SR, SS, n_levin, levin_val, levin_err


def _pieces_integral(gval, gd, lam, L, R, S, run, cfg: QuadConfig, ends=None, h=None,
                     colloc=_LEVIN_16, budget=None):
    """int h e^{i lam g} over the pieces [L_i, R_i], summed per slot.

    ``gval(x, s)``, ``gd(x, s)`` and ``h(x, s)`` evaluate g, g' and a smooth
    amplitude (1 when None) at the points x of slots s; piece i adds to slot
    ``S[i]``, of lambda ``lam[s]`` and run ``run[s]``.  The pieces go
    through ``_levin_halving`` on ``colloc``; those it sets aside are cut
    into swing panels (which assume g monotone on each piece; where it is
    not, refinement alone answers for the error), refined by ``_refine`` for
    at most 3 rounds, all held to ``cfg.rel_tol`` per unit width.  Returns
    per slot the value, the estimate (Levin estimates plus panel
    |K15 - G7|), the Levin pieces plus panels, and ``converged``.  A run's
    pieces and panels may not pass its ``budget`` (``cfg.max_panels``, or
    one per run); a slot's bits depend only on its own pieces, its budget
    on its own run.
    """
    lam = np.asarray(lam, dtype=float)
    run, n_runs = _runs(run, lam.size)
    n_slots = lam.size
    budget = cfg.max_panels if budget is None else budget
    SL, SR, SS, n_levin, levin_val, levin_err = _levin_halving(
        partial(_levin, colloc, gd, (lambda x, _: np.ones_like(x)) if h is None else h, lam),
        gval, lam, L, R, S, n_slots, cfg.rel_tol, budget, run, ends)
    budget = budget - np.bincount(run, n_levin, n_runs).astype(np.intp)
    PL, PR, PS = _swing_panels(gval, SL, SR, SS, np.abs(lam), cfg.phase_variation_cap, budget,
                               run)

    def samples(x, s):
        th = lam[s] * gval(x, s)
        if h is None:
            return np.cos(th), np.sin(th)
        v = np.exp(1j * th) * h(x, s)
        return v.real, v.imag

    pv, pe, PS, converged = _refine(samples, PL, PR, PS, n_slots, cfg.rel_tol, 3, budget, run)
    val = np.empty(n_slots, dtype=complex)
    val.real, val.imag = (_slot_sums(PS, v, n_slots) for v in pv)
    val += levin_val
    return (val, _slot_sums(PS, pe, n_slots) + levin_err,
            n_levin + np.bincount(PS, minlength=n_slots), converged)


def osc_integrate_1d_sweep(g: PhaseFunction, lams,
                           cfg: QuadConfig = DEFAULT_CONFIG) -> list[QuadResult]:
    """Integrals of e^{i*lam*g(x)} over g's domain, one per lambda of
    ``lams``; build the phase on the interval wanted (every family takes a
    ``domain``).

    g is split into monotone pieces once, and each nonzero lambda integrates
    them in its own slot and run of one ``_pieces_integral`` call, at a cost
    that does not grow with lam; a lambda of 0 gives the domain's length.
    Each result's ``panels_used`` counts its own panels plus Levin pieces,
    which may not pass ``cfg.max_panels``: each lambda has the whole budget,
    and a sweep raises PANEL_BUDGET when one of its lambdas would alone.
    Each lambda's result is that of its one-element sweep, bit for bit.
    """
    lams = [float(lam) for lam in lams]
    length = g.domain.length
    out = [QuadResult(complex(length, 0.0), 0.0, 0, 0.0)] * len(lams)
    live = [k for k, lam in enumerate(lams) if lam != 0.0]
    if not live:
        return out
    pieces = [p for p in monotone_partition(g, order_cap=1) if p.hi > p.lo]
    L = np.array([p.lo for p in pieces], dtype=float)
    R = np.array([p.hi for p in pieces], dtype=float)
    n = len(live)
    val, err, used, converged = _pieces_integral(
        lambda x, _: np.asarray(g.eval_fn(0, x), dtype=float), lambda x, _: g.eval_fn(1, x),
        [lams[k] for k in live], np.tile(L, n), np.tile(R, n), np.repeat(np.arange(n), L.size),
        np.arange(n), cfg)
    for s, k in enumerate(live):
        out[k] = QuadResult(complex(val[s]), float(err[s] + 8.0 * _EPS * length), int(used[s]),
                            lams[k], bool(converged[s]))
    return out


def osc_integrate_1d(g: PhaseFunction, lam: float,
                     cfg: QuadConfig = DEFAULT_CONFIG) -> QuadResult:
    """Integral of e^{i*lam*g(x)} over g's domain: the one-element
    ``osc_integrate_1d_sweep``."""
    [res] = osc_integrate_1d_sweep(g, [lam], cfg)
    return res


# ---------------------------------------------------------------------------
# Two dimensions: Levin in y over the slices' end terms, blocks or panels near zero
# ---------------------------------------------------------------------------

# the outer Levin samples: the order-16 collocation points, then the QK15 nodes
_Y_POINTS = np.concatenate([_LEVIN_16[0], _NODES])


def _probe(g: Phase2D):
    """f at nine x-probes from ax to bx, a function of (y, slot) giving an
    (n, 9) array: the y-swing of the outer pieces and panels."""
    x_probe = np.linspace(g.domain.ax, g.domain.bx, 9)
    return lambda y, _: g.eval_fn((0, 0), x_probe[None, :], y[:, None])


def _edge_swing(c, lo, hi) -> float:
    """The largest total variation over [lo, hi] of the polynomials whose
    ascending coefficients are the rows of c (from their values at the ends
    and the real roots of their derivatives)."""
    row, x = real_roots(derivative_coeffs(c, 1), lo, hi)
    sub, left, right = _gaps(c.shape[0], row, x, x, np.full(c.shape[0], lo),
                             np.full(c.shape[0], hi))
    v = np.abs(_rows_at(c[sub], right) - _rows_at(c[sub], left))
    return float(np.bincount(sub, v, c.shape[0]).max())


def _outer_second(g: Phase2D) -> Phase2D:
    """g itself, or its transpose when its edge rows (x-slices at y = ay, by)
    swing less than its edge columns (y-slices at x = ax, bx), so that the
    outer variable is the one of smaller swing; a tie keeps y."""
    d = g.domain
    rows = _edge_swing(g.rows_in_x((0, 0), [d.ay, d.by]), d.ax, d.bx)
    cols = _edge_swing(g.column_in_y((0, 0), [d.ax, d.bx]), d.ay, d.by)
    if rows >= cols:
        return g
    return Phase2D(np.transpose(g.coeffs), PlanarDomain(d.ay, d.by, d.ax, d.bx),
                   g.derivative_lower_bound, g.name)


def _zero_sides(g: Phase2D):
    """The orders m_a, m_b to which d_x f vanishes identically in y on the
    sides x = ax and x = bx, and the coefficients of the rest q in x - bx
    (rows in y, x along the last axis): d_x f = (x - ax)^m_a (x - bx)^m_b q.
    An order counts only coefficients that come out exactly zero; q is None
    when d_x f is the zero polynomial."""
    d = g.domain
    q, m = g._matrix((1, 0)).T, []
    for shift in (d.ax, d.bx - d.ax):
        q = taylor_shift(q, shift)
        zero = ~q.any(axis=0)
        m.append(int(np.argmin(zero)) if not zero.all() else q.shape[1])
        q = q[:, m[-1]:]
    return m[0], m[1], (q if q.size else None)


def _levin_in_y(g: Phase2D, lam: np.ndarray, cfg: QuadConfig):
    """The part of the integral over g.domain that Levin collocation in y
    serves (Levin's planar scheme), per lambda of ``lam``, and the y-pieces
    it sets aside.

    A y-piece qualifies when, on all of it, the Bernstein coefficients of q
    (``_zero_sides``) share one strict sign, so every slice x -> f(x, y) is
    monotone, and those of f(bx, y) - f(ax, y) show a slice swing above
    LEVIN_SWING once per zero side and once more.  Each slice integral is
    then I(y) = A_a(y) e^{i lam f(ax, y)} + A_b(y) e^{i lam f(bx, y)}:
    - next to a zero side the slice is cut once, at the root x_c of
      |lam| |f(x_c, y) - f(side, y)| = LEVIN_SWING (``solve_brackets``);
      the end piece goes to panels in the phase relative to the side's,
      and its value joins that side's amplitude with p(x_c)'s term;
    - the rest is one ``_pieces_integral`` call per outer chunk, each
      lambda's slices a run with the budget it has left; the accepted Levin
      pieces give p at the slice's ends, so on a plain side A_b = p(bx) and
      A_a = -p(ax).  The mismatches |p_k(x_m) - p_(k+1)(x_m)| at interior
      piece ends join the slice estimate; a slice whose rest sets a piece
      aside has no end form.

    The outer integral is ``_levin_halving`` at the y-swing of ``_probe``,
    each lambda a slot and a run.  A piece takes one inner pass over its
    collocation points and QK15 nodes, then each side's term by ``_levin``
    on the edge column f(side, .) with amplitude A_side, or by QK15 where
    that estimates less.  It is accepted when its terms' estimates sum to at
    most ``cfg.rel_tol`` times its width, and halved if it does not qualify
    or holds a slice without the end form.  Returns the set-aside (left,
    right, slot) arrays and per slot the value, the estimate (term estimates
    plus each accepted piece's largest slice estimate times its width), the
    slices' pieces and panels plus the accepted outer pieces, and whether
    every slice of an accepted piece converged.
    """
    d = g.domain
    f = g.eval_fn
    lam_abs, n_lam = np.abs(lam), lam.size
    m_a, m_b, q = _zero_sides(g)
    zero = (m_a > 0, m_b > 0)
    q_x = None if q is None else bernstein(q, d.ax - d.bx, 0.0).T  # Bernstein in x, rows in x
    swing_col = (g.column_in_y((0, 0), [d.bx]) - g.column_in_y((0, 0), [d.ax]))[0]
    need = (1 + sum(zero)) * LEVIN_SWING / lam_abs
    sides = (d.ax, d.bx)
    used = np.zeros(n_lam, dtype=np.intp)

    def certified(L, R, S):
        if q_x is None:
            return np.zeros(L.size, dtype=bool)
        b = bernstein(q_x, L[:, None], R[:, None]).reshape(L.size, -1)
        s, need_s = bernstein(swing_col, L, R), need[S, None]
        return (((b > 0.0).all(axis=1) | (b < 0.0).all(axis=1))
                & ((s > need_s).all(axis=1) | (s < -need_s).all(axis=1)))

    def amplitudes(ys, t):
        """Per slice at ys[i] of lambda t[i]: (A_a, A_b), the estimate,
        whether the end form holds, and whether its panels converged."""
        n = ys.size
        la = lam[t]
        ref = np.concatenate([f((0, 0), np.full(n, x), ys) for x in sides])
        # the cut next to each zero side: its bracket keeps the swing from the side <= LEVIN_SWING
        k = np.concatenate([np.zeros(0, dtype=np.intp)]
                           + [np.arange(n) + n * j for j in (0, 1) if zero[j]])
        lo, hi = solve_brackets(
            lambda x, i: (lam_abs[t[k[i] % n]] * np.abs(f((0, 0), x, ys[k[i] % n]) - ref[k[i]])
                          - LEVIN_SWING),
            np.full(k.size, d.ax), np.full(k.size, d.bx), k < n)
        cut = np.concatenate([np.full(n, d.ax), np.full(n, d.bx)])
        cut[k] = np.where(k < n, lo, hi)
        # slot i < n: the slice's Levin part; n + i and 2n + i: its end pieces at ax and bx
        L = np.concatenate([cut[:n], np.full(n, d.ax), cut[n:]])
        R = np.concatenate([cut[n:], cut[:n], np.full(n, d.bx)])
        slot = np.arange(3 * n)
        keep = (slot < n) | (R > L)
        base = np.concatenate([ref[:n], ref])  # the Levin part's phase is taken from ax's
        gval = lambda x, s: f((0, 0), x, ys[s % n]) - base[s]
        # each lambda of the chunk is a run, numbered in lambda order
        present = np.bincount(t, minlength=n_lam) > 0
        acc = []
        val, err, n_used, converged = _pieces_integral(
            gval, lambda x, s: f((1, 0), x, ys[s % n]), np.tile(la, 3), L[keep], R[keep],
            slot[keep], np.tile(np.cumsum(present)[t] - 1, 3), cfg, acc,
            budget=np.maximum(1, cfg.max_panels - used[present]))
        used[:] += np.bincount(np.tile(t, 3), n_used, n_lam).astype(np.intp)
        _check_budget(used, cfg.max_panels, lam_abs, np.arange(n_lam))
        PL, _, PS, pa, pb = (np.concatenate([a[i] for a in acc]) for i in range(5))
        order = np.lexsort((PL, PS))
        PS, pa, pb = PS[order], pa[order], pb[order]
        count = np.bincount(PS, minlength=n)[:n]
        ok = (count > 0) & (count == n_used[:n])
        A = np.zeros((n, 2), dtype=complex)
        first = np.cumsum(count) - count
        A[ok, 0], A[ok, 1] = -pa[first[ok]], pb[(first + count - 1)[ok]]
        joined = PS[1:] == PS[:-1]
        mismatch = np.bincount(PS[1:][joined], np.abs(pb[:-1] - pa[1:])[joined], n)
        for j, x in enumerate(sides):
            if zero[j]:
                c = cut[j * n:(j + 1) * n]
                A[:, j] = val[(j + 1) * n:(j + 2) * n] + A[:, j] * np.exp(
                    1j * la * (f((0, 0), c, ys) - ref[j * n:(j + 1) * n]))
        eps = err[:n] + err[n:2 * n] + err[2 * n:] + mismatch
        return A, eps, ok, converged.reshape(3, n).all(axis=0)

    def solve(L, R, GL, GR, S):
        n = L.size
        val, err = np.zeros(n, dtype=complex), np.full(n, np.inf)
        inner, converged = np.zeros(n), np.ones(n, dtype=bool)
        live = np.flatnonzero(certified(L, R, S))
        if not live.size:
            return val, err, inner, converged
        mid, half = 0.5 * (L[live] + R[live]), 0.5 * (R[live] - L[live])
        ys = mid[:, None] + half[:, None] * _Y_POINTS
        A, eps, ok, conv = (v.reshape(live.size, _Y_POINTS.size, *v.shape[1:])
                            for v in amplitudes(ys.ravel(), np.repeat(S[live], _Y_POINTS.size)))
        good = ok.all(axis=1)
        live, ys, half, A = live[good], ys[good], half[good], A[good]
        inner[live] = eps[good].max(axis=1) * (R[live] - L[live])
        converged[live] = conv[good].all(axis=1)
        idx = np.arange(live.size)
        lam_k = lam[S[live]]
        val_k, err_k = np.zeros(live.size, dtype=complex), np.zeros(live.size)
        for j, x in enumerate(sides):
            col = lambda o, y: f(o, np.full(y.shape, x), y)  # the edge column at x = side
            lv, le, _, _ = _levin(_LEVIN_16, lambda y, _: col((0, 1), y),
                                  lambda y, s: A[s[:, 0], :, j], lam_k, L[live], R[live],
                                  col((0, 0), L[live]), col((0, 0), R[live]), idx)
            # QK15 of the term A e^{i lam f(side, y)} at the nodes
            t = A[:, -_NODES.size:, j] * np.exp(
                1j * lam_k[:, None] * col((0, 0), ys[:, -_NODES.size:]))
            (kr, ki), ke = _qk15(half, (t.real, t.imag))
            use = le <= ke
            val_k += np.where(use, lv, kr + 1j * ki)
            err_k += np.where(use, le, ke)
        val[live], err[live] = val_k, err_k
        return val, err, inner, converged

    ends = []
    slots = np.arange(n_lam)
    SL, SR, SS, n_outer, value, outer_err = _levin_halving(
        solve, _probe(g), lam, np.full(n_lam, d.ay), np.full(n_lam, d.by), slots, n_lam,
        cfg.rel_tol, cfg.max_panels, slots, ends)
    ES, inner, converged = (np.concatenate([e[i] for e in ends]) if ends else np.zeros(0, t)
                            for i, t in ((2, np.intp), (3, float), (4, bool)))
    return (SL, SR, SS, value, outer_err + _slot_sums(ES, inner, n_lam), used + n_outer,
            np.bincount(ES[~converged], minlength=n_lam) == 0)


def _slices_in_y(g: Phase2D, lam: float, lo, hi, cfg: QuadConfig):
    """The integral over the y-pieces [lo_i, hi_i] (set-aside rectangles
    whose swing passes ``BLOCK_SWING``) by QK15 on swing panels in y.

    The slices at the nodes go through one ``_pieces_integral`` call, one
    slot per slice, each cut at the sign changes of d_x f (one
    ``phases.sign_breaks`` call), so its pieces are monotone.  Returns the
    value, the estimate (the outer |K15 - G7| plus the largest slice
    estimate times the pieces' height), the slices' panels and Levin
    pieces, and whether every slice converged.  More slices than
    ``cfg.max_panels`` raise PANEL_BUDGET before any slice is integrated.
    """
    d = g.domain
    f = g.eval_fn
    YL, YR, _ = _swing_panels(_probe(g), lo, hi, np.zeros(len(lo), dtype=np.intp), [abs(lam)],
                              cfg.phase_variation_cap, cfg.max_panels)
    yhalf = 0.5 * (YR - YL)
    ys = (0.5 * (YL + YR)[:, None] + yhalf[:, None] * _NODES).ravel()
    n = ys.size
    _check_budget(np.array([n]), cfg.max_panels, np.array([abs(lam)]), np.zeros(1))
    slot, cut, _ = sign_breaks(g.rows_in_x((1, 0), ys), d.ax, d.bx, SIGN_TOL)
    # slot s's pieces run from ax through its cuts to bx
    S, L, R = _gaps(n, slot, cut, cut, np.full(n, d.ax), np.full(n, d.bx))
    val, slice_err, used, converged = _pieces_integral(
        lambda x, s: f((0, 0), x, ys[s]), lambda x, s: f((1, 0), x, ys[s]), np.full(n, lam),
        L, R, S, np.zeros(n, dtype=np.intp), cfg)
    # outer panel p's QK15 over its 15 slices
    (o_re, o_im), o_err = _qk15(yhalf, [v.reshape(-1, _NODES.size) for v in (val.real, val.imag)])
    err = o_err.sum() + slice_err.max() * np.sum(np.subtract(hi, lo))
    return complex(o_re.sum(), o_im.sum()), float(err), int(used.sum()), bool(converged.all())


BLOCK_SWING = 200.0  # set-aside rectangles of certified swing up to this are tensor blocks
# a 32-point Gauss-Legendre panel integrates e^{i c t} over [-1, 1] to rounding
# for |c| <= 30, so a block's panel takes a linear phase of swing up to 60
_PANEL_SWING = 60.0
_BLOCK_POINTS = 1 << 16  # nodes per evaluation: 512 KB per real array
_GL32 = leggauss(32)


def _gauss_panels(m: int, rule=_GL32, lo: float = -1.0, hi: float = 1.0):
    """Nodes and weights of m composite panels on [lo, hi] of the Gauss rule
    ``rule``, its (nodes, weights) on [-1, 1]."""
    t, w = rule
    edges = np.linspace(lo, hi, m + 1)
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1] - edges[0])
    return (mid[:, None] + half * t[None, :]).ravel(), np.tile(w * half, m)


def _blocks(g: Phase2D, lam, lo, hi, m, f_abs, slot):
    """Per slot s, of lambda ``lam[s]``, the summed integrals and estimates
    over the rectangles [ax, bx] x [lo_i, hi_i] with ``slot[i]`` = s, each
    by a tensor rule of m[i] = (m_x, m_y) composite 32-point Gauss-Legendre
    panels along x and y, and again at 2m: the finer sum is the value, and
    |Q(2m) - Q(m)| plus the rounding of the sums and of lam f
    (|f| <= ``f_abs[i]``) the estimate.  Blocks of one slot and one m are
    evaluated together, ``_BLOCK_POINTS`` nodes at a time, in the products
    the slot's lone call makes."""
    d = g.domain
    xmid, xhalf = 0.5 * (d.ax + d.bx), 0.5 * (d.bx - d.ax)
    ymid, yhalf = 0.5 * (lo + hi), 0.5 * (hi - lo)
    value, err = np.zeros(lam.size, dtype=complex), np.zeros(lam.size)
    for s, mx, my in sorted(set(zip(slot.tolist(), *m.T.tolist()))):
        k = (slot == s) & (m == (mx, my)).all(axis=1)
        q = []
        for n in (1, 2):
            (tx, wx), (ty, wy) = _gauss_panels(n * mx), _gauss_panels(n * my)
            x = xmid + xhalf * tx
            y = (ymid[k, None] + yhalf[k, None] * ty).ravel()
            rows = np.empty(y.size, dtype=complex)
            step = max(1, _BLOCK_POINTS // x.size)
            for a in range(0, y.size, step):
                th = lam[s] * g.eval_fn((0, 0), x[None, :], y[a:a + step, None])
                rows[a:a + step] = np.cos(th) @ wx + 1j * (np.sin(th) @ wx)
            q.append(rows.reshape(-1, ty.size) @ wy * (xhalf * yhalf[k]))
        rounding = _EPS * 4.0 * xhalf * yhalf[k] * (64 * (mx + my) + abs(lam[s]) * f_abs[k])
        value[s] += q[1].sum()
        err[s] += float(np.sum(np.abs(q[1] - q[0]) + rounding))
    return value, err


def osc_integrate_2d_sweep(g: Phase2D, lams,
                           cfg: QuadConfig = DEFAULT_CONFIG) -> list[QuadResult]:
    """Iterated integrals of e^{i*lam*f(x, y)} over the rectangle
    ``g.domain``, one per lambda of ``lams``; a lambda of 0 gives the area.

    The outer variable, y or x (``_outer_second``), is chosen once, and
    ``_levin_in_y`` takes every nonzero lambda in one outer halving, at a
    cost that grows like log lam.  Of the rectangles [ax, bx] x [lo, hi] it sets
    aside, those whose tensor Bernstein coefficients bound the swing of
    lam f by ``BLOCK_SWING`` are blocks (``_blocks``, one pass over every
    lambda's) of m = ceil(|lam| s h / _PANEL_SWING) panels along each axis,
    s the greatest Bernstein coefficient of |d f| along it and h the side:
    n / h times differences of f's, so along an axis of degree n,
    m <= ceil(n BLOCK_SWING / _PANEL_SWING) at any lam.  The rest go to
    ``_slices_in_y``, lambda by lambda, at a cost that grows like lam times
    their swing.

    Estimate: the accepted y-pieces' side-term estimates (held to
    ``cfg.rel_tol`` per unit width) plus each one's largest slice estimate
    times its width; each block's pair difference plus rounding; the swing
    panels' outer |K15 - G7| plus their largest slice estimate times their
    height.  ``panels_used`` counts the slices' panels and Levin pieces, the
    accepted outer pieces and each block as one, and ``converged`` is False
    when a slice's refinement stopped over tolerance.  Each lambda has the
    whole ``cfg.max_panels``, and a sweep raises PANEL_BUDGET when one of
    its lambdas would alone.  Every product is a piece's, a panel's or one
    (lambda, m) group of blocks', so each lambda's result is that of its
    one-element sweep, bit for bit.
    """
    lams = [float(lam) for lam in lams]
    out = [QuadResult(complex(g.domain.area, 0.0), 0.0, 0, 0.0)] * len(lams)
    live = [k for k, lam in enumerate(lams) if lam != 0.0]
    if not live:
        return out
    g = _outer_second(g)
    lam = np.array([lams[k] for k in live])
    lam_abs = np.abs(lam)
    SL, SR, SS, value, err, used, converged = _levin_in_y(g, lam, cfg)
    d = g.domain
    # Bernstein coefficients on each set-aside rectangle, along x, then along y
    rect = lambda o: bernstein(bernstein(g._matrix(o).T, d.ax, d.bx).T, SL[:, None], SR[:, None])
    B = rect((0, 0))
    block = lam_abs[SS] * (B.max(axis=(1, 2)) - B.min(axis=(1, 2))) <= BLOCK_SWING
    if block.any():
        used += np.bincount(SS[block], minlength=lam.size)
        _check_budget(used, cfg.max_panels, lam_abs, np.arange(lam.size))
        sx, sy = (np.abs(rect(o)[block]).max(axis=(1, 2)) for o in ((1, 0), (0, 1)))
        h = np.stack([sx * (d.bx - d.ax), sy * (SR - SL)[block]], axis=1)
        m = np.maximum(np.ceil(lam_abs[SS[block], None] * h / _PANEL_SWING), 1).astype(int)
        v_blk, e_blk = _blocks(g, lam, SL[block], SR[block], m, np.abs(B[block]).max(axis=(1, 2)),
                               SS[block])
    for s, k in enumerate(live):
        v, e, u, c = complex(value[s]), float(err[s]), int(used[s]), bool(converged[s])
        if block[SS == s].any():
            v, e = v + complex(v_blk[s]), e + float(e_blk[s])
        rest = ~block & (SS == s)
        if rest.any():
            sv, se, su, sc = _slices_in_y(g, lam[s], SL[rest], SR[rest],
                                          replace(cfg, max_panels=max(1, cfg.max_panels - u)))
            v, e, u, c = v + sv, e + se, u + su, c and sc
        out[k] = QuadResult(v, float(e + 8.0 * _EPS * d.area), u, lams[k], c)
    return out


def osc_integrate_2d(g: Phase2D, lam: float, cfg: QuadConfig = DEFAULT_CONFIG) -> QuadResult:
    """Integral of e^{i*lam*f(x, y)} over the rectangle ``g.domain``: the
    one-element ``osc_integrate_2d_sweep``."""
    [res] = osc_integrate_2d_sweep(g, [lam], cfg)
    return res


# ---------------------------------------------------------------------------
# General adaptive quadrature for smooth (possibly kinked) integrands
# ---------------------------------------------------------------------------

ADAPTIVE_MAX_SEGMENTS = 1 << 16


def _adaptive_slots(fvec, a, b, slot, n_slots: int, rel_tol: float, abs_floor: float):
    """Adaptive Gauss-Kronrod 7/15 integrals of a vectorised real integrand,
    one per slot 0..n_slots-1.

    Segment [a_i, b_i] adds to slot ``slot[i]``, and ``fvec(x, s)`` evaluates
    the integrand of slots s at the points x.  Each slot is a run of its
    own: ``_refine`` halves each of its pieces whose error |K15 - G7|
    exceeds its width's share of max(abs_floor, rel_tol * |slot total|), for
    at most 63 rounds and ``ADAPTIVE_MAX_SEGMENTS`` pieces of the slot.
    Empty segments are dropped.  Each slot's result is that of its one-slot
    call, bit for bit, where ``fvec`` gives each point's value whatever else
    it is evaluated with.  Returns per-slot arrays (value, error_estimate,
    converged), ``converged`` False where a cap left pieces over tolerance.
    """
    a, b = np.array(a, dtype=float, ndmin=1), np.array(b, dtype=float, ndmin=1)
    slot = np.broadcast_to(np.asarray(slot, dtype=np.intp), a.shape)
    keep = b > a
    order = np.lexsort((a[keep], slot[keep]))
    a, b, slot = a[keep][order], b[keep][order], slot[keep][order]
    if not a.size:
        return np.zeros(n_slots), np.zeros(n_slots), np.ones(n_slots, dtype=bool)
    length = _slot_sums(slot, b - a, n_slots)
    length[length == 0.0] = 1.0  # a slot with no segments has no panels to hold
    val, err, S, converged = _refine(
        fvec, a, b, slot, n_slots,
        lambda total: np.maximum(abs_floor, rel_tol * np.abs(total[0])) / length, 63,
        ADAPTIVE_MAX_SEGMENTS, np.arange(n_slots))
    return _slot_sums(S, val[0], n_slots), _slot_sums(S, err, n_slots), converged


def adaptive_quad(fvec, a, b):
    """Adaptive Gauss-Kronrod 7/15 rule for a vectorised real integrand: the
    one-slot call of ``_adaptive_slots``.

    ``a`` and ``b`` are one segment's ends, or equal-length arrays of the
    ends of segments whose integrals add up, such as the smooth pieces of an
    integrand between its known kinks, held to max(1e-14, 1e-9 * |value|)
    over their total length.  For smooth or piecewise-smooth integrands, not
    large-lambda oscillatory phases.  Returns (value, error_estimate,
    converged), ``converged`` False when a cap left pieces over tolerance.
    """
    val, err, converged = _adaptive_slots(lambda x, _: fvec(x), a, b, 0, 1, 1e-9, 1e-14)
    return float(val[0]), float(err[0]), bool(converged[0])
