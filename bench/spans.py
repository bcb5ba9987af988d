"""Spans around oscint's layer functions, recorded from outside the program.

``Tracer.install`` replaces each public function listed in ``LAYERS`` with a
wrapper, under every name an oscint module looks it up by, and wraps the
evaluators of the phases the harness builds so that phase evaluations are
counted.  Each span records its name, its parent, its start and end, and a
few counts.  Spans stay in memory; ``layer_metrics`` turns them into the
per-layer figures when the suite is done.

Attribution rules:
  * a span's parent is the innermost open span of its thread; a span opened
    by a harness worker thread with nothing open has the suite span as its
    parent;
  * ``self_s`` is a span's duration minus the part of its interval that its
    children cover (their union, so overlapping worker spans count once);
  * phase evaluation points and calls go to the innermost open span; an
    evaluator called from inside another wrapped evaluator is not counted
    again.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict

import numpy as np

import workloads

# (module, function, counts the wrapper records besides calls and self_s)
LAYERS = (
    ("harness", "run_suite", ()),
    ("quadrature", "osc_integrate_1d", ("panels", "phase_points")),
    ("quadrature", "osc_integrate_2d", ("cells", "phase_points")),
    ("quadrature", "adaptive_quad", ("integrand_points",)),
    ("phases", "sign_partition", ("phase_points",)),
    ("phases", "monotone_partition", ()),
    ("sublevel", "osc_to_sublevel_constant", ("computed",)),
    ("sublevel", "sublevel_2d", ("phase_calls",)),
    ("sublevel", "sublevel_1d", ()),
    ("reduction", "product_monomial_integral", ()),
    ("reduction", "monomial_profile", ("points",)),
    ("polynomials", "roots", ()),
    ("polynomials", "cover_ratio", ("retries",)),
    ("polynomials", "cover_violations", ()),
    ("polynomials", "estimate_B", ()),
    ("certificates", "certify_1d", ()),
    ("certificates", "certify_2d", ()),
    ("decay", "fit_decay", ()),
)

# Phase constructors whose results get counted evaluators, by the module the
# harness looks each name up in (T2 and T4 import monomial and product_phase
# from oscint.phases at call time).
PHASE_BUILDERS = (
    ("harness", ("phase_from_config", "phase2d_from_config", "compose_with_polynomial",
                 "compose2d_with_polynomial", "compose_with_power", "xy_phase")),
    ("phases", ("monomial", "product_phase")),
)

SUITES = tuple(s for w in workloads.WORKLOADS.values() for s in w["suites"])

# Counts summed over descendants as well as the span itself.
INCLUSIVE = {"phase_calls"}

# Metric count -> the span count it reads: every cover_ratio call that raised
# is retried by its caller with a looser root tolerance.
SOURCES = {"retries": "raised"}


def metric_names() -> list[str]:
    """Every per-layer metric the benchmark reports, in a fixed order."""
    names = []
    for mod, fn, counts in LAYERS:
        if (mod, fn) == ("harness", "run_suite"):
            names.append("harness.run_suite.self_s")
            continue
        names += [f"{mod}.{fn}.calls", f"{mod}.{fn}.self_s"]
        names += [f"{mod}.{fn}.{c}" for c in counts]
        if fn == "osc_integrate_1d":
            names.append(f"{mod}.{fn}.points_per_panel")
    names += [f"harness.{s}.wall_s" for s in SUITES]
    return names


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("points_per_panel"):
        return "points/panel"
    return "count"


class Span:
    __slots__ = ("name", "id", "parent", "t0", "t1", "counts", "memo")

    def __init__(self, name: str, span_id: int, parent: int | None):
        self.name = name
        self.id = span_id
        self.parent = parent
        self.t0 = self.t1 = 0.0
        self.counts: dict[str, int] = defaultdict(int)
        self.memo = None


def covered(lo: float, hi: float, intervals) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.t0, s.t1))
    return {s.id: (s.t1 - s.t0) - covered(s.t0, s.t1, children[s.id]) for s in spans}


def inclusive_counts(spans, keys) -> dict[int, dict[str, int]]:
    """Span id -> counts of ``keys`` summed over the span and its descendants.

    Relies on a child ending before its parent, which holds for nested calls
    and for worker spans, whose pool is drained before the suite returns.
    """
    acc: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for s in spans:
        mine = acc[s.id]
        for k in keys:
            mine[k] += s.counts.get(k, 0)
        if s.parent is not None:
            for k in keys:
                acc[s.parent][k] += mine[k]
    return acc


def layer_metrics(spans, suite: str) -> dict[str, float]:
    """Per-layer figures of one suite's spans, zero for layers that did not run."""
    out = {name: 0 for name in metric_names()}
    counted = {f"{mod}.{fn}": counts for mod, fn, counts in LAYERS}
    selfs = self_times(spans)
    incl = inclusive_counts(spans, INCLUSIVE)
    for s in spans:
        if s.name == "harness.run_suite":
            out["harness.run_suite.self_s"] += selfs[s.id]
            out[f"harness.{suite}.wall_s"] += s.t1 - s.t0
            continue
        out[f"{s.name}.calls"] += 1
        out[f"{s.name}.self_s"] += selfs[s.id]
        for k in counted[s.name]:
            own = s.counts[SOURCES.get(k, k)]
            out[f"{s.name}.{k}"] += incl[s.id][k] if k in INCLUSIVE else own
    return combine([out])


def combine(parts) -> dict[str, float]:
    """Sum per-layer figures of several suites and recompute the ratios."""
    out = {name: sum(p[name] for p in parts) for name in metric_names()}
    panels = out["quadrature.osc_integrate_1d.panels"]
    out["quadrature.osc_integrate_1d.points_per_panel"] = (
        out["quadrature.osc_integrate_1d.phase_points"] / panels if panels else 0)
    return out


class Tracer:
    """Records spans of wrapped oscint functions; one per suite process."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root: int | None = None

    # -- span stack --------------------------------------------------------

    def _stack(self) -> list[Span]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def wrap(self, name: str, fn, before=None, after=None):
        """Wrap ``fn`` in a span.  ``before(span, args, kwargs)`` may return
        replacement (args, kwargs); ``after(span, args, kwargs, result)`` reads
        the result."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = self._stack()
            span = Span(name, next(self._ids), st[-1].id if st else self._root)
            if before is not None:
                args, kwargs = before(span, args, kwargs) or (args, kwargs)
            st.append(span)
            span.t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span.counts["raised"] += 1
                raise
            finally:
                span.t1 = time.perf_counter()
                st.pop()
                self.spans.append(span)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        return wrapper

    def count_eval(self, fn):
        """Wrap a phase evaluator so each outermost call is counted."""
        if getattr(fn, "_bench_counted", False):
            return fn
        local = self._local

        def evaluator(*args):
            if getattr(local, "in_eval", False):
                return fn(*args)
            local.in_eval = True
            try:
                out = fn(*args)
            finally:
                local.in_eval = False
            st = self._stack()
            if st:
                st[-1].counts["phase_calls"] += 1
                st[-1].counts["phase_points"] += int(np.size(out))
            return out

        evaluator._bench_counted = True
        return evaluator

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer function under all names oscint modules use."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "oscint" or n.startswith("oscint."))]
        cache = sys.modules["oscint.sublevel"]._constant_cache

        def suite_root(span, args, kwargs):
            self._root = span.id

        def cdelta_before(span, args, kwargs):
            delta = args[0] if args else kwargs["delta"]
            cutoff = args[1] if len(args) > 1 else kwargs.get("xi_cutoff", 64.0)
            span.memo = cache.get((round(delta, 12), cutoff))

        def cdelta_after(span, args, kwargs, result):
            span.counts["computed"] += result is not span.memo

        def adaptive_before(span, args, kwargs):
            fvec = args[0]

            def counted(x):
                span.counts["integrand_points"] += int(np.size(x))
                return fvec(x)

            return (counted,) + tuple(args[1:]), kwargs

        def profile_before(span, args, kwargs):
            span.counts["points"] += int(np.size(args[1] if len(args) > 1 else kwargs["w"]))

        def panels_after(key):
            def after(span, args, kwargs, result):
                span.counts[key] += result.panels_used
            return after

        hooks = {
            "run_suite": (suite_root, None),
            "osc_integrate_1d": (None, panels_after("panels")),
            "osc_integrate_2d": (None, panels_after("cells")),
            "adaptive_quad": (adaptive_before, None),
            "osc_to_sublevel_constant": (cdelta_before, cdelta_after),
            "monomial_profile": (profile_before, None),
        }
        for mod, fn_name, _ in LAYERS:
            orig = getattr(sys.modules[f"oscint.{mod}"], fn_name)
            wrapped = self.wrap(f"{mod}.{fn_name}", orig, *hooks.get(fn_name, (None, None)))
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapped)

        for mod, names in PHASE_BUILDERS:
            m = sys.modules[f"oscint.{mod}"]
            for name in names:
                setattr(m, name, self._counting_builder(getattr(m, name)))

    def _counting_builder(self, build):
        def builder(*args, **kwargs):
            phase = build(*args, **kwargs)
            object.__setattr__(phase, "eval_fn", self.count_eval(phase.eval_fn))
            return phase

        return builder
