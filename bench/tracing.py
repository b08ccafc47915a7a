"""Spans around calls into the hyperspec layers, recorded from outside.

The tracer rebinds module attributes of the package in this process only:
each public function a layer exposes (and each name another layer imported
from it) is replaced by a wrapper that records a span, and the original is
put back when the ``patched`` block ends.  Nothing under ``src/`` changes.

A span is (name, start, end, parent index, info).  ``info`` is a small
summary of the call's arguments or result taken after the call returns, so
counts are recorded at the same boundary as the times.
"""

from __future__ import annotations

import contextlib
import functools
from functools import cached_property
from time import perf_counter

from hyperspec import families, hypergraph, ranking, solver, tensor_ops

KERNEL = "tensor_ops.kernel"
LAZY_ARRAYS = "hypergraph.lazy_arrays"


def _kernel_info(args, kwargs, result):
    g = args[0]
    return g.n, g.m, g.r


def _linesearch_info(args, kwargs, result):
    return result.ok, result.evals


def _single_info(args, kwargs, result):
    return result.iterations, result.stop_reason


def _multistart_info(args, kwargs, result):
    return result.best_run


def _from_edges_info(args, kwargs, result):
    edges = kwargs.get("edges", args[3] if len(args) > 3 else None)
    return (len(edges) if hasattr(edges, "__len__") else 0), result.m


# (module, attribute, span name, info extractor).  Internal calls look these
# names up as module globals at call time, so rebinding catches them:
# ranking and lagrangian_approx call solve_multistart, solve_multistart calls
# solve_single, solve_single calls cg_direction and line_search_wolfe, which
# calls cayley_step, and parse_edge_list calls Hypergraph.from_edges, which
# calls validate.
_FUNCTIONS = [
    (solver, "solve_multistart", "solver.solve_multistart", _multistart_info),
    (ranking, "solve_multistart", "solver.solve_multistart", _multistart_info),
    (solver, "lagrangian_approx", "solver.lagrangian_approx", None),
    (solver, "solve_single", "solver.solve_single", _single_info),
    (solver, "line_search_wolfe", "solver.line_search_wolfe", _linesearch_info),
    (solver, "cayley_step", "solver.cayley_step", None),
    (solver, "cg_direction", "solver.cg_direction", None),
    (ranking, "rank_vertices", "ranking.rank_vertices", None),
    (hypergraph, "parse_edge_list", "hypergraph.parse_edge_list", None),
    (hypergraph, "validate", "hypergraph.validate", None),
    (families, "gen_beta_star", "families.gen", None),
    (families, "gen_loose_path", "families.gen", None),
    (families, "gen_complete", "families.gen", None),
]


class Tracer:
    """In-memory span recorder; spans are aggregated after the traced block."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, info=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, None)
            if info is not None:
                spans[idx] = (name, t0, t1, parent, info(args, kwargs, result))
            return result

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Rebind every traced attribute for the duration of the block."""
        undo = []

        def rebind(owner, attr, value):
            undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

        try:
            for module, attr, name, info in _FUNCTIONS:
                if attr in vars(module):
                    rebind(module, attr, self.wrap(name, getattr(module, attr), info))
            # the kernel entry points are whatever the solver imported from
            # tensor_ops, so a renamed or merged kernel is still caught
            for attr, fn in list(vars(solver).items()):
                if callable(fn) and not isinstance(fn, type) and (
                    getattr(fn, "__module__", None) == tensor_ops.__name__
                ):
                    rebind(solver, attr, self.wrap(KERNEL, fn, _kernel_info))
            graph_cls = hypergraph.Hypergraph
            if "from_edges" in vars(graph_cls):
                original = vars(graph_cls)["from_edges"].__func__
                rebind(graph_cls, "from_edges", classmethod(
                    self.wrap("hypergraph.from_edges", original, _from_edges_info)))
            # arrays built lazily on the first kernel call
            for attr, prop in list(vars(graph_cls).items()):
                if isinstance(prop, cached_property):
                    undo.append((prop, "func", prop.func))
                    prop.func = self.wrap(LAZY_ARRAYS, prop.func)
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)


def aggregate(spans, durations) -> dict[str, dict]:
    """Per span name: call count, inclusive seconds and self seconds, given
    each span's duration."""
    child_time = [0.0] * len(spans)
    for (_, _, _, parent, _), d in zip(spans, durations):
        if parent >= 0:
            child_time[parent] += d
    out: dict[str, dict] = {}
    for (name, *_), d, children in zip(spans, durations, child_time):
        agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["total_s"] += d
        agg["self_s"] += d - children
    return out
