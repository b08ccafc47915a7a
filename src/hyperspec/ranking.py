"""Vertex ranking by impact factor: the entries of the best p-optimal weighting."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .hypergraph import Hypergraph
from .solver import SolverConfig, _is_count, solve_multistart


class RankedEntries(Sequence):
    """Read-only ``(1-based vertex id, impact factor)`` pairs over two arrays.

    ``vertices`` (int64) and ``impact`` (float64) hold the ranking; the pairs
    are built on demand as Python ``(int, float)``, so a report costs 16 bytes
    per vertex and no Python object per entry.  A slice is the same view over
    array slices; ``==`` and ``hash`` compare the array bytes.
    """

    __slots__ = ("vertices", "impact")

    def __init__(self, vertices: np.ndarray, impact: np.ndarray):
        self.vertices = np.asarray(vertices, dtype=np.int64)
        self.impact = np.asarray(impact, dtype=np.float64)
        self.vertices.flags.writeable = self.impact.flags.writeable = False

    def __len__(self) -> int:
        return len(self.vertices)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return RankedEntries(self.vertices[i], self.impact[i])
        return int(self.vertices[i]), float(self.impact[i])

    def __iter__(self):
        return zip(self.vertices.tolist(), self.impact.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, RankedEntries):
            return NotImplemented
        return (self.vertices.tobytes() == other.vertices.tobytes()
                and self.impact.tobytes() == other.impact.tobytes())

    def __hash__(self) -> int:
        return hash((self.vertices.tobytes(), self.impact.tobytes()))

    def __repr__(self) -> str:
        return f"RankedEntries(vertices={self.vertices!r}, impact={self.impact!r})"


@dataclass(frozen=True)
class RankingReport:
    """Vertices sorted by impact factor (nonincreasing, ties by ascending id)."""

    entries: RankedEntries  # (1-based vertex id, impact factor) pairs
    p: float
    lam: float
    runs: int               # the runs made, at most cfg.runs


def ranked_order(impact: np.ndarray) -> np.ndarray:
    """0-based indices sorted by descending impact, ties by ascending index."""
    return np.argsort(-np.asarray(impact), kind="stable")


def rank_vertices(g: Hypergraph, cfg: SolverConfig, top_k: int | None = None) -> RankingReport:
    """Rank vertices by the weighting of the best multistart run.

    Small p concentrates the weighting on the strongest group of vertices;
    large p spreads it and scores vertices individually.  The runs start in
    the nonnegative orthant (``solve_multistart(..., orthant=True)``).
    Signed starts end with a stationary weighting too; orthant starts are
    used because they are cheaper.  On the twelve seeded 20k-edge 3-graphs
    of the rank-large benchmark at p = 2, 2 runs each, both laws agree to
    6e-16 on every graph, and orthant starts take 605 iterations in all
    against 1257 for signed ones (725 against 1391 before the multistart's
    "known_maximum" stop).  That stop ends a second run that reaches the
    first one's value; its weighting is stationary to 1e-6 relative
    (``solver.KNOWN_GRAD_TOL``), and the report's weighting never comes
    from such a run.  At p >= r the multistart stops at the first run whose
    upper bound proves the best value global, and at any p once the
    converged runs make a further maximum unlikely (8 runs at one value);
    ``runs`` counts the runs made.  With 2 runs, as on rank-large, the
    statistical stop cannot act, since it needs at least 4 converged runs.
    """
    if top_k is not None and not _is_count(top_k, 1, g.n):
        raise ValueError(f"need integer top_k in [1, {g.n}], got top_k={top_k!r}")
    res = solve_multistart(g, cfg, orthant=True)
    impact = res.best.weighting
    order = ranked_order(impact)[:top_k]
    entries = RankedEntries(order + 1, impact[order])
    return RankingReport(entries=entries, p=cfg.p, lam=res.best.lam, runs=len(res.all_lambdas))
