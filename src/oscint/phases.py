"""Phase functions with derivative access and structural partitions.

A phase is a real function on an interval (or planar rectangle) whose
derivatives up to a declared order can be evaluated directly.  Families are
parametric (monomial, polynomial, sine and exponential perturbations) and a
generic closure form is provided for anything else; closures self-report
their derivatives, there is no automatic differentiation.

The two structural operations every other module leans on are
``sign_partition`` (tile the domain into pieces on which one derivative does
not cross zero) and ``monotone_partition`` (pieces on which the function and
its derivatives up to order N-1 are all monotone).  Root detection is a
dense scan followed by bisection: the phases in play are smooth and low
complexity at desk scale, so robustness beats cleverness.

``solve_brackets`` is the one bisection solver of the package: it advances
every open bracket of an array each step, so many roots cost one vectorised
evaluation per step.  ``scan_sign_changes`` finds the sign changes down
every column of a scan with array operations and bisects them in one solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, PartitionOverflowError, PreconditionError

SCAN_SAMPLES_PER_UNIT = 4096
MIN_SCAN_SAMPLES = 257
BISECT_XTOL = 1e-12
SIGN_TOL = 1e-11  # monotone_partition's sign_partition tol
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


def merge_intervals(spans, slack: float) -> list[Interval]:
    """Union of (lo, hi) spans as ordered intervals; spans whose gap is at
    most ``slack`` are joined."""
    out: list[list[float]] = []
    for lo, hi in sorted(spans, key=lambda sp: sp[0]):
        if out and lo <= out[-1][1] + slack:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return [Interval(lo, hi) for lo, hi in out]


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
    arguments (order 0 is f itself).
    """

    eval_fn: Callable[[int, np.ndarray], np.ndarray]
    max_order: int
    domain: Interval
    meta: PhaseMeta = PhaseMeta()
    name: str = "phase"
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


def scan_grid(iv: Interval) -> np.ndarray:
    """The sign scan's sample points on ``iv``."""
    n = max(MIN_SCAN_SAMPLES, int(math.ceil(SCAN_SAMPLES_PER_UNIT * iv.length)) + 1)
    return np.linspace(iv.lo, iv.hi, n)


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


def sign_partition(
    phase: PhaseFunction,
    order: int,
    tol: float,
    interval: Interval | None = None,
) -> list[tuple[Interval, int]]:
    """Tile the domain into intervals on which ``eval(order, .)`` is single-signed.

    Single-signed is non-strict: touching zeros (no crossing beyond ``tol``)
    do not split a piece.  Returns (interval, sign) pairs ordered left to
    right with sign in {+1, -1, 0}; sign 0 means the derivative is below
    ``tol`` in magnitude on the whole piece.  More than ``PARTITION_CAP``
    sign changes raise PartitionOverflowError.
    """
    if tol <= 0:
        raise PreconditionError("tol must be positive")
    iv = interval or phase.domain
    key = ("sp", order, tol, PARTITION_CAP, iv.as_tuple())
    if key in phase._cache:
        return phase._cache[key]
    a, b = iv.lo, iv.hi
    if b <= a:
        return [(iv, 0)]
    xs = scan_grid(iv)
    vs = np.asarray(phase.eval(order, xs), dtype=float)
    _, breaks = scan_sign_changes(lambda x, _: phase.eval(order, x), xs, vs[:, None],
                                  tol, PARTITION_CAP, phase.name, order)

    pieces: list[tuple[Interval, int]] = []
    edges = [a, *breaks.tolist(), b]
    for lo, hi in zip(edges[:-1], edges[1:]):
        sub = vs[np.searchsorted(xs, lo - 1e-15):np.searchsorted(xs, hi + 1e-15, "right")]
        piece_sign = 0
        if sub.size:
            j = int(np.argmax(np.abs(sub)))
            if abs(sub[j]) > tol:
                piece_sign = 1 if sub[j] > 0 else -1
        pieces.append((Interval(lo, hi), piece_sign))
    phase._cache[key] = pieces
    return pieces


def monotone_partition(
    phase: PhaseFunction,
    order_cap: int | None = None,
    interval: Interval | None = None,
) -> list[Interval]:
    """Intervals on which f and its derivatives up to order N-1 are monotone.

    N comes from ``phase.meta.N`` (override via ``order_cap``); the pieces are
    the common refinement of the sign partitions of orders 1..N.
    """
    N = order_cap if order_cap is not None else phase.meta.N
    if phase.max_order < N:
        raise PreconditionError(
            f"phase {phase.name!r} reports derivatives up to {phase.max_order}, need {N}"
        )
    iv = interval or phase.domain
    breaks: list[float] = []
    for k in range(1, N + 1):
        for piece, _ in sign_partition(phase, k, SIGN_TOL, interval=iv)[:-1]:
            breaks.append(piece.hi)
    return pieces_between(iv, breaks)


def pieces_between(iv: Interval, breaks) -> list[Interval]:
    """Tile ``iv`` at its inner breaks, dropping any within BISECT_XTOL of the last kept."""
    merged: list[float] = []
    for x in sorted(set(breaks)):
        if not merged or x - merged[-1] > BISECT_XTOL:
            merged.append(x)
    edges = [iv.lo] + [x for x in merged if iv.lo < x < iv.hi] + [iv.hi]
    return [Interval(lo, hi) for lo, hi in zip(edges[:-1], edges[1:]) if hi > lo]


# ---------------------------------------------------------------------------
# One-dimensional families
# ---------------------------------------------------------------------------


def _falling(n: int, k: int) -> float:
    """n (n-1) ... (n-k+1), the k-th derivative coefficient of x^n."""
    out = 1.0
    for j in range(k):
        out *= n - j
    return out


def monomial(n: int, domain=(0.0, 1.0), meta: PhaseMeta | None = None) -> PhaseFunction:
    if n < 1:
        raise PreconditionError("monomial degree must be >= 1")
    iv = Interval(*map(float, domain))
    if meta is None:
        meta = PhaseMeta(N=n, derivative_lower_bound=float(math.factorial(n)))

    def ev(order, x):
        if order > n:
            return np.zeros_like(x)
        return _falling(n, order) * x ** (n - order)

    return PhaseFunction(ev, max_order=max(n, 2), domain=iv, meta=meta, name=f"x^{n}")


def polynomial_phase(coeffs: Sequence[float], domain=(0.0, 1.0), meta: PhaseMeta | None = None) -> PhaseFunction:
    c = np.asarray(coeffs, dtype=float)
    if c.size < 2 or c[-1] == 0.0:
        raise PreconditionError("polynomial phase needs degree >= 1 with nonzero leading coefficient")
    d = c.size - 1
    iv = Interval(*map(float, domain))
    if meta is None:
        meta = PhaseMeta(N=d, derivative_lower_bound=abs(c[-1]) * math.factorial(d))
    derivs = [c]
    for _ in range(d):
        prev = derivs[-1]
        derivs.append(prev[1:] * np.arange(1, prev.size))

    def ev(order, x):
        if order > d:
            return np.zeros_like(x)
        return np.polynomial.polynomial.polyval(x, derivs[order])

    return PhaseFunction(ev, max_order=max(d, 2), domain=iv, meta=meta, name="poly")


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


def compose_with_polynomial(phase: PhaseFunction, coeffs: Sequence[float]) -> PhaseFunction:
    """Phase x -> P(f(x)) with its first derivative by the chain rule."""
    c = np.asarray(coeffs, dtype=float)
    dc = c[1:] * np.arange(1, c.size)
    pv = np.polynomial.polynomial.polyval

    def ev(order, x):
        f = phase.eval_fn(0, x)
        if order == 0:
            return pv(f, c)
        return pv(f, dc) * phase.eval_fn(1, x)

    return PhaseFunction(ev, max_order=min(1, phase.max_order), domain=phase.domain,
                         meta=PhaseMeta(N=1), name=f"P({phase.name})")


def compose_with_power(phase: PhaseFunction, exponent: float) -> PhaseFunction:
    """Phase x -> |f(x)|^s for s > 1, with its first derivative where f != 0."""
    s = float(exponent)
    if s <= 1.0:
        raise PreconditionError("power transform needs exponent > 1")

    def ev(order, x):
        f = phase.eval_fn(0, x)
        af = np.abs(f)
        if order == 0:
            return af**s
        return s * af ** (s - 1.0) * np.sign(f) * phase.eval_fn(1, x)

    return PhaseFunction(ev, max_order=min(1, phase.max_order), domain=phase.domain,
                         meta=PhaseMeta(N=1), name=f"|{phase.name}|^{s}")


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

    def y_extent(self) -> Interval:
        return Interval(self.ay, self.by)


def unit_square() -> PlanarDomain:
    return PlanarDomain(0.0, 1.0, 0.0, 1.0)


@dataclass(frozen=True)
class Phase2D:
    """Two-dimensional phase with mixed-derivative access.

    ``eval_fn((i, j), x, y)`` returns the (i, j) mixed partial.  The phase
    claims |d_x d_y f| >= ``derivative_lower_bound`` on the domain and a
    single-signed d_y^2 f, the hypothesis ``certify_2d`` states.
    """

    eval_fn: Callable[[tuple[int, int], np.ndarray, np.ndarray], np.ndarray]
    max_orders: tuple[int, int]
    domain: PlanarDomain
    derivative_lower_bound: float = 1.0
    name: str = "phase2d"

    def eval(self, orders: tuple[int, int], x, y):
        i, j = orders
        if i < 0 or j < 0 or i > self.max_orders[0] or j > self.max_orders[1]:
            raise PreconditionError(f"orders {orders} outside declared maxima {self.max_orders}")
        return self.eval_fn((i, j), np.asarray(x, dtype=float), np.asarray(y, dtype=float))

    def slice_in_y(self, x: float, max_order: int = 4) -> PhaseFunction:
        """One-dimensional phase y -> f(x0, y) on [ay, by] for fixed x0."""
        x0 = float(x)
        iv = self.domain.y_extent()

        def ev(order, y):
            return self.eval_fn((0, order), np.full_like(y, x0), y)

        return PhaseFunction(ev, max_order=min(max_order, self.max_orders[1]), domain=iv,
                             meta=PhaseMeta(N=1), name=f"{self.name}|x={x0:.6g}")


def product_phase(fx: PhaseFunction, gy: PhaseFunction) -> Phase2D:
    """f(x) * g(y) on the rectangle of the factors' domains, with mixed
    partials from the self-reported 1D derivatives and Phase2D's claims."""
    dom = PlanarDomain(fx.domain.lo, fx.domain.hi, gy.domain.lo, gy.domain.hi)

    def ev(orders, x, y):
        i, j = orders
        return fx.eval_fn(i, x) * gy.eval_fn(j, y)

    return Phase2D(ev, max_orders=(fx.max_order, gy.max_order), domain=dom,
                   name=f"{fx.name}*{gy.name}")


def xy_phase() -> Phase2D:
    def ev(orders, x, y):
        i, j = orders
        if i > 1 or j > 1:
            return np.zeros(np.broadcast_shapes(x.shape, y.shape))
        if i == 1 and j == 1:
            return np.ones(np.broadcast_shapes(x.shape, y.shape))
        if i == 1:
            return np.broadcast_to(y, np.broadcast_shapes(x.shape, y.shape)).copy()
        if j == 1:
            return np.broadcast_to(x, np.broadcast_shapes(x.shape, y.shape)).copy()
        return x * y

    return Phase2D(ev, max_orders=(4, 4), domain=unit_square(), name="xy")


def xy_quad_phase(c: float) -> Phase2D:
    """x*y + c*x^2*y^2 on [0,1]^2; the mixed (1,1) derivative is 1 + 4c*x*y."""
    cc = float(c)

    def mono(n, k, v):
        """d^k/dv^k v^n for k <= n <= 2, whose coefficient n!/(n-k)! is 1 at
        k = 0 and n otherwise; no v**0 or v**1 array pass is made."""
        vp = 1.0 if k == n else v if k == n - 1 else v ** (n - k)
        return vp if k == 0 or n == 1 else n * vp

    def term(orders, x, y):
        i, j = orders
        first = mono(1, i, x) * mono(1, j, y) if (i <= 1 and j <= 1) else 0.0
        second = cc * mono(2, i, x) * mono(2, j, y) if (i <= 2 and j <= 2) else 0.0
        return first + second

    def ev(orders, x, y):
        # term gives a scalar or a fresh array, never an input array itself
        val = term(orders, x, y)
        shape = np.broadcast_shapes(x.shape, y.shape)
        if not isinstance(val, np.ndarray):
            return np.full(shape, float(val))
        return val if val.shape == shape else np.broadcast_to(val, shape).copy()

    lb = 1.0 if cc >= 0 else max(1e-9, 1.0 + 4.0 * cc)
    return Phase2D(ev, max_orders=(4, 4), domain=unit_square(), derivative_lower_bound=lb,
                   name=f"xy+{cc}x2y2")


def compose2d_with_polynomial(phase: Phase2D, coeffs: Sequence[float]) -> Phase2D:
    """Planar phase (x, y) -> P(f(x, y)) with its x-derivative P'(f) d_x f by
    the chain rule (enough to integrate)."""
    c = np.asarray(coeffs, dtype=float)
    dc = c[1:] * np.arange(1, c.size)
    pv = np.polynomial.polynomial.polyval

    def ev(orders, x, y):
        if orders == (0, 0):
            return pv(phase.eval_fn((0, 0), x, y), c)
        if orders == (1, 0):
            return pv(phase.eval_fn((0, 0), x, y), dc) * phase.eval_fn((1, 0), x, y)
        raise PreconditionError("composed planar phase exposes f and d_x f only")

    return Phase2D(ev, max_orders=(1, 0), domain=phase.domain,
                   derivative_lower_bound=phase.derivative_lower_bound,
                   name=f"P({phase.name})")


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
