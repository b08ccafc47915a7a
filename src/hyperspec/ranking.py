"""Vertex ranking by impact factor: the entries of the best p-optimal weighting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hypergraph import Hypergraph
from .solver import SolverConfig, solve_multistart


@dataclass(frozen=True)
class RankingReport:
    """Vertices sorted by impact factor (nonincreasing, ties by ascending id)."""

    entries: tuple[tuple[int, float], ...]  # (1-based vertex id, impact factor)
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
    if top_k is not None and not 1 <= top_k <= g.n:
        raise ValueError(f"top_k must be in [1, {g.n}], got {top_k}")
    res = solve_multistart(g, cfg, orthant=True)
    impact = res.best.weighting
    order = ranked_order(impact)[:top_k]
    entries = tuple(zip((order + 1).tolist(), impact[order].tolist()))
    return RankingReport(entries=entries, p=cfg.p, lam=res.best.lam, runs=cfg.runs)
