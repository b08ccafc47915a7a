"""Vertex ranking by impact factor: the entries of the best p-optimal weighting."""

from __future__ import annotations

import numbers
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .hypergraph import Hypergraph
from .solver import SolverConfig, solve_multistart


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
    runs: int


def ranked_order(impact: np.ndarray) -> np.ndarray:
    """0-based indices sorted by descending impact, ties by ascending index."""
    return np.argsort(-np.asarray(impact), kind="stable")


def rank_vertices(g: Hypergraph, cfg: SolverConfig, top_k: int | None = None) -> RankingReport:
    """Rank vertices by the weighting of the best multistart run.

    Small p concentrates the weighting on the strongest group of vertices;
    large p spreads it and scores vertices individually.  The runs start in
    the nonnegative orthant (``solve_multistart(..., orthant=True)``), so
    they converge to nonnegative critical points whose weighting is
    stationary, not to mixed-sign ones whose |x| is not.
    """
    if top_k is not None and not (isinstance(top_k, numbers.Integral) and 1 <= top_k <= g.n):
        raise ValueError(f"need integer top_k in [1, {g.n}], got top_k={top_k!r}")
    res = solve_multistart(g, cfg, orthant=True)
    impact = res.best.weighting
    order = ranked_order(impact)[:top_k]
    entries = RankedEntries(order + 1, impact[order])
    return RankingReport(entries=entries, p=cfg.p, lam=res.best.lam, runs=cfg.runs)
