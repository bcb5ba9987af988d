"""Phase functions with derivative access and structural partitions.

A 1D phase is a real function on an interval whose derivatives up to a
declared order can be evaluated directly.  Families are parametric
(monomial, polynomial, sine and exponential perturbations) and a generic
closure form is provided for anything else; there is no automatic
differentiation.  A planar phase (``Phase2D``) is a polynomial on a
rectangle, given by its coefficient matrix; its slices are read as
coefficient rows in x (``rows_in_x``) or columns in y (``column_in_y``),
many at once.  The polynomial families, every planar phase and compositions
with a polynomial (composed in coefficient space) carry their coefficients
(``coeffs``) and are evaluated at every order by one Horner evaluator on
them; any other 1D phase self-reports its derivatives through a closure of
its own.

The two structural operations every other module leans on are
``sign_partition`` (tile the domain into pieces on which one derivative does
not cross zero) and ``monotone_partition`` (pieces on which the function and
its derivatives up to order N-1 are all monotone).  For a phase with
coefficients the breaks are roots: ``sign_breaks`` takes the real roots of
many coefficient rows from one kernel (``real_roots``: closed forms to
degree 2, one stacked companion-matrix ``eigvals`` call above), decides each
sub-piece's sign between them and polishes the sign changes by bisection
(``polish``), and ``monotone_rows`` tiles many rows at once at the sign
changes of their derivatives of orders 1..n.  Any other 1D phase is scanned
densely and bisected between the samples that change sign.

Rows of pieces are flat array programs: a batch of rows is three arrays
(row, lo, hi), ordered by row, then left end.  ``tile_rows`` cuts rows at
their breaks, ``_gaps`` takes points or spans out of each row's interval,
``merge_rows`` joins each row's spans by a sort and a running maximum (the
one interval merge of the package; a public root-proximity cover is its
one-row call), and ``flat_rows`` repeats one list of pieces for many rows;
``Interval`` lists are built only at the public edges (``sign_partition``,
``monotone_partition``).

``solve_brackets`` is the one bisection solver of the package: it advances
every open bracket of an array each step, so many roots cost one vectorised
evaluation per step.  ``scan_sign_changes`` finds the sign changes down
every column of a scan with array operations and bisects them in one solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, PartitionOverflowError, PreconditionError

SCAN_SAMPLES_PER_UNIT = 4096
MIN_SCAN_SAMPLES = 257
BISECT_XTOL = 1e-12
SIGN_TOL = 1e-11  # the sign tol of monotone partitions and monotone_rows
PARTITION_CAP = 64


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo <= self.hi):
            raise PreconditionError(f"interval endpoints out of order: [{self.lo}, {self.hi}]")

    @property
    def length(self) -> float:
        return self.hi - self.lo

    def as_tuple(self) -> tuple[float, float]:
        return (self.lo, self.hi)


def merge_rows(row, lo, hi, slack: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row, the union of the spans [lo_i, hi_i] of that row, as flat
    (row, lo, hi) arrays ordered by row, then left end; spans whose gap is
    at most ``slack`` are joined.  The spans are sorted by row, then left
    end, and a span opens a new one where its left end passes the running
    maximum of its row's right ends by more than ``slack``."""
    order = np.lexsort((lo, row))
    row, lo, hi = row[order], lo[order], hi[order]
    if not row.size:
        return row, lo, hi
    # the running maximum within each row, through ranks ordered by (row, hi)
    by_rank = np.lexsort((hi, row))
    rank = np.empty(row.size, dtype=np.intp)
    rank[by_rank] = np.arange(row.size)
    top = hi[by_rank[np.maximum.accumulate(rank)]]
    start = np.ones(row.size, dtype=bool)
    start[1:] = (row[1:] != row[:-1]) | (lo[1:] > top[:-1] + slack)
    at = np.flatnonzero(start)
    return row[at], lo[at], np.maximum.reduceat(hi, at)


def flat_rows(pieces: Sequence[Interval], n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The same ``pieces`` for each of n rows, as flat (row, lo, hi) arrays
    ordered by row, then as given."""
    k = len(pieces)
    return (np.repeat(np.arange(n), k), np.tile(np.array([p.lo for p in pieces], dtype=float), n),
            np.tile(np.array([p.hi for p in pieces], dtype=float), n))


def _gaps(n: int, row, a, b, lo, hi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row k's interval [lo[k], hi[k]], k < n, less the spans [a_i, b_i] of
    the entries i of row k: flat (row, left, right) arrays of each row's
    count + 1 gaps, ordered by row, then left to right.  ``row`` is sorted,
    and a row's spans are ordered and disjoint; with a = b the intervals
    are cut at those points."""
    sub = np.repeat(np.arange(n), np.bincount(row, minlength=n) + 1)
    left, right = lo[sub], hi[sub]
    at = np.arange(row.size) + row
    right[at], left[at + 1] = a, b
    return sub, left, right


@dataclass(frozen=True)
class PhaseMeta:
    """Structural claims attached to a phase.

    ``N`` is the derivative order of the hypothesis, ``derivative_lower_bound``
    the alpha in |f^(N)| >= alpha when one is claimed.  A declared lower
    bound implies the van der Corput decay rate ``claimed_delta`` = 1/N.
    """

    N: int = 1
    derivative_lower_bound: float | None = None

    def __post_init__(self):
        if self.N < 1:
            raise PreconditionError("meta.N must be a positive integer")

    @property
    def claimed_delta(self) -> float | None:
        return None if self.derivative_lower_bound is None else 1.0 / self.N


@dataclass(frozen=True)
class PhaseFunction:
    """Evaluator of f and its derivatives on an interval.

    ``eval_fn(order, x)`` must be a pure, numpy-vectorised function of its
    arguments (order 0 is f itself).  A polynomial phase also gives its
    ``coeffs`` in ascending order; its ``eval_fn`` is then the Horner
    evaluator on them, and its partitions come from roots.
    """

    eval_fn: Callable[[int, np.ndarray], np.ndarray]
    max_order: int
    domain: Interval
    meta: PhaseMeta = PhaseMeta()
    name: str = "phase"
    coeffs: tuple[float, ...] | None = None
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def eval(self, order: int, x):
        if order < 0 or order > self.max_order:
            raise PreconditionError(
                f"order {order} outside [0, {self.max_order}] for phase {self.name!r}"
            )
        return self.eval_fn(order, np.asarray(x, dtype=float))

    def __call__(self, x):
        return self.eval(0, x)


# ---------------------------------------------------------------------------
# Structural partitions
# ---------------------------------------------------------------------------


def solve_brackets(g, lo, hi, below, xtol: float = BISECT_XTOL):
    """Bisect many brackets at once; returns their final (lo, hi) arrays.

    ``g(x, idx)`` evaluates the functions of the brackets ``idx`` at the
    points ``x``; ``below[i]`` says whether bracket i's function is <= 0 at
    ``lo[i]``.  Each step halves every open bracket: the midpoint replaces lo
    where ``(g(mid) <= 0) == below``, else hi.  A bracket closes once its
    width is <= ``xtol`` or its midpoint no longer splits it (``xtol=0``
    bisects to the last bit).
    """
    lo = a = np.array(lo, dtype=float, ndmin=1)
    hi = b = np.array(hi, dtype=float, ndmin=1)
    below = np.broadcast_to(np.asarray(below, dtype=bool), lo.shape)
    idx = np.arange(lo.size)
    while True:
        mid = 0.5 * (a + b)
        open_ = (b - a > xtol) & (a < mid) & (mid < b)
        if not (idx.size and open_.all()):
            lo[idx], hi[idx] = a, b
            if not open_.any():
                return lo, hi
            idx, a, b, mid, below = idx[open_], a[open_], b[open_], mid[open_], below[open_]
        up = (np.asarray(g(mid, idx)) <= 0.0) == below
        a, b = np.where(up, mid, a), np.where(up, b, mid)


# ---------------------------------------------------------------------------
# Roots of coefficient rows: closed forms to degree 2, companion-matrix
# eigenvalues above
# ---------------------------------------------------------------------------

_polyval = np.polynomial.polynomial.polyval


def _near_real(z: np.ndarray) -> np.ndarray:
    return np.abs(z.imag) <= 1e-9 * (1.0 + np.abs(z.real))


def _snap(z: np.ndarray) -> np.ndarray:
    """Put roots within 1e-9 relative of the real axis on it."""
    return np.where(_near_real(z), z.real, z)


def _rows_at(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Row k's polynomial at x[k, ...], for ascending coefficient rows c."""
    return _polyval(x, c.T.reshape(c.shape[::-1] + (1,) * (np.ndim(x) - 1)), tensor=False)


def _companion(c: np.ndarray) -> np.ndarray:
    """Companion matrices of the ascending coefficient rows c[..., :]."""
    d = c.shape[-1] - 1
    comp = np.zeros(c.shape[:-1] + (d, d))
    comp[..., 1:, :-1] = np.eye(d - 1)
    comp[..., :, -1] = -c[..., :-1] / c[..., -1:]
    return comp


def _quadratic_rows(c: np.ndarray) -> np.ndarray:
    """Both roots of each quadratic row, by the stable closed form; a complex
    pair is averaged into an exact conjugate pair."""
    a0, a1, a2 = c.T
    sq = np.sqrt((a1 * a1 - 4.0 * a2 * a0).astype(complex))
    # stable quadratic: avoid cancellation in the small root
    q = -0.5 * (a1 + np.where(a1 >= 0, sq, -sq))
    r1 = q / a2
    with np.errstate(divide="ignore", invalid="ignore"):
        r2 = np.where(q != 0, a0 / q, -a1 / a2 - r1)
    z = np.stack([r1, r2], axis=1)
    # a pair off the axis: average it, positive-imaginary root first
    up = r1.imag > 0
    avg = 0.5 * (np.where(up, r1, r2) + np.conj(np.where(up, r2, r1)))
    pair = ~_near_real(z).any(axis=1)
    return np.where(pair[:, None], np.stack([np.conj(avg), avg], axis=1), _snap(z))


def _root_rows(c: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Roots of every ascending coefficient row of c, all of one degree d >= 1.

    Closed forms for d <= 2, vectorised over the rows; for d >= 3 one
    stacked ``eigvals`` call over the rows' companion matrices.  Returns
    ``(z, ok, worst)``: z of shape (rows, d), each row sorted by (real, imag)
    with near-real roots on the axis; ``ok`` says whether every root of the
    row passes the residual check at ``tol`` (see ``polynomials.roots``),
    ``worst`` is the row's largest residual.  Closed-form rows always pass.
    """
    n, d = c.shape[0], c.shape[1] - 1
    if d < 1:
        raise PreconditionError("roots requires degree >= 1")
    ok, worst = np.ones(n, dtype=bool), np.zeros(n)
    if d == 1:
        z = (-c[:, 0] / c[:, 1]).astype(complex)[:, None]
    elif d == 2:
        z = _quadratic_rows(c)
    else:
        z = np.linalg.eigvals(_companion(c))
        resid = np.abs(_rows_at(c, z))
        mags = np.abs(z)
        eval_scale = sum(np.abs(c[:, j:j + 1]) * mags**j for j in range(d + 1))
        max_abs = np.abs(c).max(axis=1, keepdims=True)
        ok = np.all(resid <= np.maximum(tol * (1.0 + max_abs), tol * (1.0 + eval_scale)), axis=1)
        worst = resid.max(axis=1)
        z = _snap(z)
    return np.sort(z, axis=1), ok, worst


def derivative_coeffs(c, k: int) -> np.ndarray:
    """The k-th derivative of ascending coefficients along the last axis of c;
    a derivative past the degree is the zero constant."""
    c = np.asarray(c, dtype=float)
    n = c.shape[-1]
    if k == 0:
        return c
    if k >= n:
        return np.zeros(c.shape[:-1] + (1,))
    return c[..., k:] * np.array([float(math.perm(j, k)) for j in range(k, n)])


def real_roots(c, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """Real roots of the ascending coefficient rows c[k] inside the open
    intervals (lo[k], hi[k]), unpolished.

    Rows are grouped by effective degree, which a vanishing leading
    coefficient drops; a row of degree 0 (a constant, or the zero row) has
    no roots, nor has, by Descartes' rule of signs, a row on an interval in
    [0, inf) whose nonzero coefficients share one sign.  Each group is one
    ``_root_rows`` call.  Returns (row, root) arrays ordered by row, then
    left to right.
    """
    c = np.atleast_2d(np.asarray(c, dtype=float))
    lo, hi = (np.broadcast_to(np.asarray(v, dtype=float), c.shape[:1]) for v in (lo, hi))
    nz = c != 0.0
    one_sign = (c >= 0.0).all(axis=1) | (c <= 0.0).all(axis=1)
    deg = np.where(nz.any(axis=1) & ~(one_sign & (lo >= 0.0)),
                   c.shape[1] - 1 - np.argmax(nz[:, ::-1], axis=1), 0)
    rows, xs = [np.zeros(0, dtype=np.intp)], [np.zeros(0)]
    for d in range(1, int(deg.max(initial=0)) + 1):
        k = np.flatnonzero(deg == d)
        if not k.size:
            continue
        z = _root_rows(c[k, :d + 1], np.inf)[0]
        r, j = np.nonzero((z.imag == 0.0) & (lo[k, None] < z.real) & (z.real < hi[k, None]))
        rows.append(k[r])
        xs.append(z.real[r, j])
    row, x = np.concatenate(rows), np.concatenate(xs)
    order = np.lexsort((x, row))
    return row[order], x[order]


def polish(g, x, lo, hi, below, xtol: float):
    """Roots of the functions ``g(., q)`` bisected to ``xtol`` in one solve.

    [lo_q, hi_q] must bracket root q: g <= 0 at lo_q exactly where
    ``below[q]``.  With estimates ``x`` (None for none, NaN for none at q),
    root q starts from [x_q - h, x_q + h] inside its bracket, h = 1e-9
    (1 + |x_q|), where g's signs at those ends show a change, and from the
    whole bracket elsewhere.  Returns the midpoints of the final brackets.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    if x is not None:
        h = 1e-9 * (1.0 + np.abs(x))
        t_lo, t_hi = np.fmax(lo, x - h), np.fmin(hi, x + h)
        q = np.arange(lo.size)
        v = np.asarray(g(np.concatenate([t_lo, t_hi]), np.concatenate([q, q]))) <= 0.0
        tight = v[:lo.size] != v[lo.size:]
        lo, hi = np.where(tight, t_lo, lo), np.where(tight, t_hi, hi)
        below = np.where(tight, v[:lo.size], below)
    lo, hi = solve_brackets(g, lo, hi, below, xtol)
    return 0.5 * (lo + hi)


def sign_breaks(c, lo, hi, tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sign partitions of many coefficient rows at once, from their roots.

    Row k's real roots in (lo[k], hi[k]) cut its interval into sub-pieces on
    which it keeps one sign.  A sub-piece takes the sign of its largest
    sample (its ends, quarter points and midpoint) where that exceeds
    ``tol`` in magnitude, and no sign otherwise, so a touching zero within
    ``tol`` splits nothing; neighbours of equal sign merge.  Each change of
    sign is polished to ``BISECT_XTOL`` from a bracket around the root
    between the two pieces, or else from their largest samples.  A row of
    degree d changes sign at most d times, so no cap applies.  Returns
    (row, break) arrays ordered by row, then left to right, and each row's
    first sign (+1, -1, or 0 for a row within ``tol`` of zero throughout);
    the signs alternate from there.
    """
    c = np.atleast_2d(np.asarray(c, dtype=float))
    n = c.shape[0]
    lo, hi = (np.broadcast_to(np.asarray(v, dtype=float), (n,)) for v in (lo, hi))
    r_row, r_x = real_roots(c, lo, hi)
    # sub-pieces: row k's interval cut at its roots, row by row
    sub, left, right = _gaps(n, r_row, r_x, r_x, lo, hi)
    pts = left[:, None] + (right - left)[:, None] * np.linspace(0.0, 1.0, 5)
    vals = _rows_at(c[sub], pts)
    j = np.argmax(np.abs(vals), axis=1)
    peak = vals[np.arange(sub.size), j]
    sgn = np.where(np.abs(peak) > tol, np.sign(peak), 0.0).astype(int)
    witness = pts[np.arange(sub.size), j]
    k = np.flatnonzero(sgn)
    chg = np.flatnonzero((sub[k[1:]] == sub[k[:-1]]) & (sgn[k[1:]] != sgn[k[:-1]]))
    a, b = k[chg], k[chg + 1]
    row = sub[a]
    x = polish(lambda x, q: _rows_at(c[row[q]], x), right[a], witness[a], witness[b],
               sgn[a] < 0, BISECT_XTOL)
    first_sign = np.zeros(n, dtype=int)
    lead = k[np.diff(sub[k], prepend=-1) != 0]
    first_sign[sub[lead]] = sgn[lead]
    return row, x, first_sign


def scan_sign_changes(ev, xs, vs, tol: float, cap: int, what: str, order: int):
    """Zeros at the sign changes down each column of a scan, bisected together.

    ``vs[i, k]`` is ``ev(xs[i], k)``.  Samples within ``tol`` of zero carry
    no sign, so a touching zero is no change.  More than ``cap`` changes in
    one column raise PartitionOverflowError.  Returns (column, zero) arrays
    ordered by column, then left to right.
    """
    pos, neg = vs > tol, vs < -tol
    if not (pos.any() and neg.any()):
        return np.zeros(0, dtype=int), np.zeros(0)
    sgn = (pos.astype(np.int8) - neg.astype(np.int8)).T
    col, i = np.nonzero(sgn)
    s = sgn[col, i]
    chg = np.flatnonzero((s[1:] != s[:-1]) & (col[1:] == col[:-1]))
    col = col[chg]
    if chg.size and np.bincount(col).max() > cap:
        raise PartitionOverflowError(
            f"more than {cap} sign changes of order-{order} derivative "
            f"of {what!r}; structural claim violated",
            phase=what,
            order=order,
        )
    orient = s[chg]
    lo, hi = solve_brackets(lambda x, k: ev(x, col[k]) * orient[k],
                            xs[i[chg]], xs[i[chg + 1]], False)
    return col, 0.5 * (lo + hi)


def sign_partition(phase: PhaseFunction, order: int, tol: float) -> list[tuple[Interval, int]]:
    """Tile the domain into intervals on which ``eval(order, .)`` is single-signed.

    Single-signed is non-strict: touching zeros (no crossing beyond ``tol``)
    do not split a piece.  Returns (interval, sign) pairs ordered left to
    right with sign in {+1, -1, 0}; sign 0 means the derivative is below
    ``tol`` in magnitude on the whole piece.  A phase with coefficients is
    partitioned at its roots (``sign_breaks``); any other is scanned, and
    more than ``PARTITION_CAP`` sign changes raise PartitionOverflowError.
    """
    if tol <= 0:
        raise PreconditionError("tol must be positive")
    iv = phase.domain
    key = ("sp", order, tol, PARTITION_CAP, iv.as_tuple())
    if key in phase._cache:
        return phase._cache[key]
    a, b = iv.lo, iv.hi
    if b <= a:
        return [(iv, 0)]
    if phase.coeffs is not None:
        _, breaks, first = sign_breaks(derivative_coeffs(phase.coeffs, order), a, b, tol)
        first = int(first[0])
    else:
        n = max(MIN_SCAN_SAMPLES, int(math.ceil(SCAN_SAMPLES_PER_UNIT * iv.length)) + 1)
        xs = np.linspace(a, b, n)
        vs = np.asarray(phase.eval(order, xs), dtype=float)
        _, breaks = scan_sign_changes(lambda x, _: phase.eval(order, x), xs, vs[:, None],
                                      tol, PARTITION_CAP, phase.name, order)
        # every piece holds a sample beyond tol of the sign that follows its left break
        signed = vs[np.abs(vs) > tol]
        first = int(np.sign(signed[0])) if signed.size else 0
    edges = [a, *breaks.tolist(), b]
    pieces = [(Interval(lo, hi), first * (-1) ** i)
              for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:]))]
    phase._cache[key] = pieces
    return pieces


def monotone_rows(c, lo, hi, n: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Row k's interval [lo[k], hi[k]] tiled at the sign changes of the
    derivatives of orders 1..m of the ascending coefficient row c[k], for
    each m = 1..n: element m - 1 holds every row's pieces at orders 1..m as
    ``tile_rows``'s flat (row, lo, hi) arrays.  One ``sign_breaks`` pass per
    order over all rows serves every m."""
    c = np.atleast_2d(np.asarray(c, dtype=float))
    lo, hi = (np.broadcast_to(np.asarray(v, dtype=float), c.shape[:1]) for v in (lo, hi))
    rows, xs = zip(*(sign_breaks(derivative_coeffs(c, k), lo, hi, SIGN_TOL)[:2]
                     for k in range(1, n + 1)))
    return [tile_rows(np.concatenate(rows[:m]), np.concatenate(xs[:m]), lo, hi)
            for m in range(1, n + 1)]


def tile_rows(row, x, lo, hi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row k's interval [lo[k], hi[k]] tiled at its breaks, the x_i of row
    i = k in any order, as flat (row, lo, hi) arrays ordered by row, then
    left end.  Taken left to right, a break within ``BISECT_XTOL`` of the
    last break kept in its row is dropped (a row's first is kept); so are
    the breaks outside (lo[k], hi[k]) and the empty pieces."""
    order = np.lexsort((x, row))
    row, x = row[order], x[order]
    first = np.diff(row, prepend=-1) != 0
    keep = np.ones(x.size, dtype=bool)
    # a break's fate reads only the breaks before it, so the fixed point is
    # the left-to-right rule, reached in one pass unless breaks cluster
    while x.size:
        last = np.maximum.accumulate(np.where(keep, np.arange(x.size), 0))
        kept = first.copy()
        kept[1:] |= x[1:] - x[last[:-1]] > BISECT_XTOL
        if (kept == keep).all():
            break
        keep = kept
    row, x = row[keep], x[keep]
    inside = (lo[row] < x) & (x < hi[row])
    sub, left, right = _gaps(lo.size, row[inside], x[inside], x[inside], lo, hi)
    live = right > left
    return sub[live], left[live], right[live]


def monotone_partition(phase: PhaseFunction, order_cap: int | None = None) -> list[Interval]:
    """Intervals of the domain on which f and its derivatives up to order
    N-1 are monotone.

    N comes from ``phase.meta.N`` (override via ``order_cap``); the pieces are
    the common refinement of the sign partitions of orders 1..N, from roots
    (``monotone_rows``) for a phase with coefficients, else the breaks of
    ``sign_partition``'s scans tiled by ``tile_rows``.  The phase keeps its
    partitions.
    """
    n = order_cap if order_cap is not None else phase.meta.N
    if phase.max_order < n:
        raise PreconditionError(
            f"phase {phase.name!r} reports derivatives up to {phase.max_order}, need {n}")
    iv = phase.domain
    key = ("mp", n, PARTITION_CAP, iv.as_tuple())
    if key not in phase._cache:
        if phase.coeffs is not None:
            _, a, b = monotone_rows(phase.coeffs, iv.lo, iv.hi, n)[-1]
        else:
            x = np.array([p.hi for k in range(1, n + 1)
                          for p, _ in sign_partition(phase, k, SIGN_TOL)[:-1]], dtype=float)
            _, a, b = tile_rows(np.zeros(x.size, dtype=np.intp), x, np.array([iv.lo]),
                                np.array([iv.hi]))
        phase._cache[key] = [Interval(lo, hi) for lo, hi in zip(a.tolist(), b.tolist())]
    return phase._cache[key]


# ---------------------------------------------------------------------------
# One-dimensional families
# ---------------------------------------------------------------------------


def _horner(terms: list, x, y=None):
    """sum_k terms[k] x^k by Horner's rule, 0.0 for no terms: an entry is a
    float, or with ``y`` the terms of a polynomial in y, summed the same way,
    or None for a zero, which costs no operation, nor does a product with a
    unit coefficient (1.0 * x is x exactly).  The result may be ``x`` or
    ``y`` itself.  The one evaluator of every phase with coefficients."""
    out = None
    for a in reversed(terms):
        if out is not None:
            out = x if type(out) is float and out == 1.0 else out * x
        if a is not None:
            if y is not None:
                a = _horner(a, y)
            out = a if out is None else out + a
    return 0.0 if out is None else out


def _coefficient_phase(coeffs, *args) -> PhaseFunction:
    """The 1D phase with ascending ``coeffs``, evaluated by Horner on each
    order's ``derivative_coeffs``, kept per order; ``args`` are
    PhaseFunction's max_order, domain, meta and name."""
    c = tuple(float(v) for v in coeffs)
    cache: dict[int, list] = {}

    def horner_1d(order, x):
        t = cache.get(order)
        if t is None:
            t = cache[order] = [float(a) or None for a in derivative_coeffs(c, order)]
        out = _horner(t, x)
        if out is not x and getattr(out, "shape", None) == np.shape(x):
            return out
        return np.full(np.shape(x), out)

    return PhaseFunction(horner_1d, *args, c)


def monomial(n: int, domain=(0.0, 1.0), meta: PhaseMeta | None = None) -> PhaseFunction:
    if n < 1:
        raise PreconditionError("monomial degree must be >= 1")
    f = polynomial_phase((0.0,) * n + (1.0,), domain)
    return replace(f, meta=meta or f.meta, name=f"x^{n}")


def polynomial_phase(coeffs: Sequence[float], domain=(0.0, 1.0), meta: PhaseMeta | None = None) -> PhaseFunction:
    c = np.asarray(coeffs, dtype=float)
    if c.size < 2 or c[-1] == 0.0:
        raise PreconditionError("polynomial phase needs degree >= 1 with nonzero leading coefficient")
    d = c.size - 1
    iv = Interval(*map(float, domain))
    if meta is None:
        meta = PhaseMeta(N=d, derivative_lower_bound=abs(c[-1]) * math.factorial(d))
    return _coefficient_phase(c, max(d, 2), iv, meta, "poly")


def sine(amplitude: float = 1.0, frequency: float = 1.0, domain=(0.0, 2.0 * math.pi),
         meta: PhaseMeta | None = None) -> PhaseFunction:
    iv = Interval(*map(float, domain))
    amp, freq = float(amplitude), float(frequency)

    def ev(order, x):
        return amp * freq**order * np.sin(freq * x + order * math.pi / 2.0)

    return PhaseFunction(ev, max_order=32, domain=iv, meta=meta or PhaseMeta(N=1),
                         name=f"{amp}*sin({freq}x)")


def exponential(amplitude: float = 1.0, rate: float = 1.0, domain=(0.0, 1.0),
                meta: PhaseMeta | None = None) -> PhaseFunction:
    iv = Interval(*map(float, domain))
    amp, r = float(amplitude), float(rate)

    def ev(order, x):
        return amp * r**order * np.exp(r * x)

    return PhaseFunction(ev, max_order=32, domain=iv, meta=meta or PhaseMeta(N=1),
                         name=f"{amp}*exp({r}x)")


def monomial_sin(n: int, amplitude: float, frequency: float, domain=(0.0, 1.0),
                 meta: PhaseMeta | None = None) -> PhaseFunction:
    """x^n perturbed by amplitude*sin(frequency*x)."""
    base = monomial(n, domain)
    pert = sine(amplitude, frequency, domain)

    def ev(order, x):
        return base.eval_fn(order, x) + pert.eval_fn(order, x)

    return PhaseFunction(ev, max_order=base.max_order, domain=base.domain,
                         meta=meta or PhaseMeta(N=n), name=f"x^{n}+{amplitude}sin({frequency}x)")


def closure_phase(derivatives: Sequence[Callable], domain, meta: PhaseMeta | None = None,
                  name: str = "closure") -> PhaseFunction:
    """Generic form: ``derivatives[k]`` evaluates the k-th derivative."""
    fns = list(derivatives)
    iv = Interval(*map(float, domain))

    def ev(order, x):
        return np.asarray(fns[order](x), dtype=float)

    return PhaseFunction(ev, max_order=len(fns) - 1, domain=iv,
                         meta=meta or PhaseMeta(N=1), name=name)


# ---------------------------------------------------------------------------
# Compositions (outer function applied to a phase)
# ---------------------------------------------------------------------------


def _compose_coeffs(c, P: Sequence[float]) -> np.ndarray:
    """The coefficients of P(f) for f's coefficient array ``c``, a vector
    or a matrix: Horner in P over products of coefficient arrays."""
    c = np.asarray(c, dtype=float)
    out = np.full((1,) * c.ndim, float(P[-1]))
    for p in P[-2::-1]:
        prod = np.zeros(tuple(m + n - 1 for m, n in zip(out.shape, c.shape)))
        for at, v in np.ndenumerate(out):
            prod[tuple(slice(k, k + n) for k, n in zip(at, c.shape))] += v * c
        out = prod
        out[(0,) * c.ndim] += p
    return out


def compose_with_polynomial(phase: PhaseFunction, coeffs: Sequence[float]) -> PhaseFunction:
    """Phase x -> P(f(x)): for f with coefficients the polynomial P(f), else
    its value and first derivative by the chain rule."""
    if phase.coeffs is not None:
        c = _compose_coeffs(phase.coeffs, coeffs)
        return _coefficient_phase(c, max(phase.max_order, c.size - 1), phase.domain,
                                  PhaseMeta(N=1), f"P({phase.name})")
    P = [[float(a) or None for a in derivative_coeffs(coeffs, k)] for k in (0, 1)]
    return _chain(phase, lambda order, t: _horner(P[order], t), f"P({phase.name})")


def compose_with_power(phase: PhaseFunction, exponent: float) -> PhaseFunction:
    """Phase x -> |f(x)|^s for s > 1, with its first derivative where f != 0."""
    s = float(exponent)
    if s <= 1.0:
        raise PreconditionError("power transform needs exponent > 1")

    return _chain(phase, lambda order, t: np.abs(t)**s if order == 0
                  else s * np.abs(t) ** (s - 1.0) * np.sign(t), f"|{phase.name}|^{s}")


def _chain(phase: PhaseFunction, outer, name: str) -> PhaseFunction:
    """x -> outer(0, f(x)) with its first derivative outer(1, f(x)) f'(x)
    by the chain rule."""

    def ev(order, x):
        value = outer(order, phase.eval_fn(0, x))
        return value if order == 0 else value * phase.eval_fn(1, x)

    return PhaseFunction(ev, max_order=min(1, phase.max_order), domain=phase.domain,
                         meta=PhaseMeta(N=1), name=name)


# ---------------------------------------------------------------------------
# Planar domains and two-dimensional phases
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlanarDomain:
    """The rectangle [ax, bx] x [ay, by], with positive width and height."""

    ax: float
    bx: float
    ay: float
    by: float

    def __post_init__(self):
        for name in ("ax", "bx", "ay", "by"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not (self.ax < self.bx and self.ay < self.by):
            raise PreconditionError(
                f"degenerate planar domain [{self.ax}, {self.bx}] x [{self.ay}, {self.by}]")

    @property
    def area(self) -> float:
        return (self.bx - self.ax) * (self.by - self.ay)


def unit_square() -> PlanarDomain:
    return PlanarDomain(0.0, 1.0, 0.0, 1.0)


@dataclass(frozen=True)
class Phase2D:
    """A polynomial phase on a rectangle: ``coeffs[i][j]`` multiplies x^i y^j.

    ``eval_fn((i, j), x, y)`` returns the (i, j) mixed partial by Horner's
    rule in y along each x-row of ``_matrix((i, j))``, kept per order, then
    in x over the rows; every order answers, one past the degree with zeros.
    The phase claims |d_x d_y f| >= ``derivative_lower_bound`` on the domain
    and a single-signed d_y^2 f, the hypothesis ``certify_2d`` states.
    ``rows_in_x`` and ``column_in_y`` read its derivatives as coefficient
    rows, one per y or x of an array.
    """

    coeffs: tuple[tuple[float, ...], ...]
    domain: PlanarDomain
    derivative_lower_bound: float = 1.0
    name: str = "phase2d"
    eval_fn: Callable[[tuple[int, int], np.ndarray, np.ndarray], np.ndarray] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            C = np.asarray(self.coeffs, dtype=float)
        except (TypeError, ValueError):
            C = np.zeros(0)
        if C.ndim != 2 or not C.size or not np.isfinite(C).all():
            raise PreconditionError(
                f"planar phase {self.name!r} needs a finite 2-D coefficient matrix")
        object.__setattr__(self, "coeffs", tuple(map(tuple, C.tolist())))
        cache: dict[tuple[int, int], list] = {}

        def horner_2d(orders, x, y):
            rows = cache.get(orders)
            if rows is None:
                rows = cache[orders] = [[float(a) or None for a in r] if r.any() else None
                                        for r in self._matrix(orders)]
            out = _horner(rows, x, y)
            shape = x.shape if x.shape == y.shape else np.broadcast_shapes(x.shape, y.shape)
            if out is not x and out is not y and getattr(out, "shape", None) == shape:
                return out
            return np.broadcast_to(out, shape).copy()

        object.__setattr__(self, "eval_fn", horner_2d)

    def eval(self, orders: tuple[int, int], x, y):
        i, j = orders
        if i < 0 or j < 0:
            raise PreconditionError(f"negative orders {orders} for phase {self.name!r}")
        return self.eval_fn((i, j), np.asarray(x, dtype=float), np.asarray(y, dtype=float))

    def _matrix(self, orders: tuple[int, int]) -> np.ndarray:
        """The coefficients of d^orders f: entry [a, b] multiplies x^a y^b."""
        i, j = orders
        return derivative_coeffs(derivative_coeffs(self.coeffs, j).T, i).T

    def rows_in_x(self, orders: tuple[int, int], ys) -> np.ndarray:
        """Row k: the ascending coefficients of x -> d^orders f(x, ys[k])."""
        return np.atleast_2d(_polyval(np.asarray(ys, dtype=float), self._matrix(orders).T).T)

    def column_in_y(self, orders: tuple[int, int], xs) -> np.ndarray:
        """Row k: the ascending coefficients of y -> d^orders f(xs[k], y)."""
        return np.atleast_2d(_polyval(np.asarray(xs, dtype=float), self._matrix(orders)).T)


def product_phase(fx: PhaseFunction, gy: PhaseFunction) -> Phase2D:
    """f(x) * g(y) on the rectangle of the factors' domains, with Phase2D's
    claims: the outer product of the factors' coefficients."""
    name = f"{fx.name}*{gy.name}"
    if fx.coeffs is None or gy.coeffs is None:
        raise PreconditionError(f"the product {name!r} needs the coefficients of both factors")
    return Phase2D(np.outer(fx.coeffs, gy.coeffs),
                   PlanarDomain(fx.domain.lo, fx.domain.hi, gy.domain.lo, gy.domain.hi),
                   1.0, name)


def xy_phase() -> Phase2D:
    return Phase2D(((0.0, 0.0), (0.0, 1.0)), unit_square(), 1.0, "xy")


def xy_quad_phase(c: float) -> Phase2D:
    """x*y + c*x^2*y^2 on [0,1]^2; the mixed (1,1) derivative is 1 + 4c*x*y."""
    cc = float(c)
    lb = 1.0 if cc >= 0 else max(1e-9, 1.0 + 4.0 * cc)
    return Phase2D(((0.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, cc)), unit_square(), lb,
                   f"xy+{cc}x2y2")


def compose2d_with_polynomial(phase: Phase2D, coeffs: Sequence[float]) -> Phase2D:
    """Planar phase (x, y) -> P(f(x, y)): the polynomial P(f), composed in
    coefficient space."""
    return Phase2D(_compose_coeffs(phase.coeffs, coeffs), phase.domain,
                   phase.derivative_lower_bound, f"P({phase.name})")


# ---------------------------------------------------------------------------
# Config-file naming of families
# ---------------------------------------------------------------------------

_FAMILIES_1D = {
    "monomial": lambda p: monomial(int(p["n"]), p.get("domain", (0.0, 1.0))),
    "polynomial": lambda p: polynomial_phase(p["coeffs"], p.get("domain", (0.0, 1.0))),
    "sin": lambda p: sine(p.get("amplitude", 1.0), p.get("frequency", 1.0),
                          p.get("domain", (0.0, 2.0 * math.pi))),
    "exp": lambda p: exponential(p.get("amplitude", 1.0), p.get("rate", 1.0),
                                 p.get("domain", (0.0, 1.0))),
    "monomial_sin": lambda p: monomial_sin(int(p["n"]), p["amplitude"], p["frequency"],
                                           p.get("domain", (0.0, 1.0))),
}

_FAMILIES_2D = {
    "xy": lambda p: xy_phase(),
    "xy_quad": lambda p: xy_quad_phase(p.get("c", 0.1)),
}


def _from_config(families: dict, kind: str, spec: dict):
    fam = spec.get("family")
    if fam not in families:
        raise ConfigError(f"unknown {kind} phase family {fam!r}", known=sorted(families))
    try:
        return families[fam](spec)
    except KeyError as exc:
        key = exc.args[0]
        raise ConfigError(f"{kind} phase family {fam!r} needs the key {key!r}",
                          family=fam, key=key) from None


def phase_from_config(spec: dict) -> PhaseFunction:
    """Build a 1D phase from an identifier + parameter mapping."""
    return _from_config(_FAMILIES_1D, "1D", spec)


def phase2d_from_config(spec: dict) -> Phase2D:
    return _from_config(_FAMILIES_2D, "2D", spec)
