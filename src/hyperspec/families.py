"""Structured hypergraph families with known spectral values, plus an
independent brute-force estimator for small instances.

The beta-star, loose-path and complete generators write 0-based slot tables
that are canonical by construction (rows sorted, distinct, in lexicographic
order) straight into the raw ``Hypergraph`` constructor, skipping
``from_edges``' check, sort and merge; ``gen_random``'s rows need the merge.

The brute-force path deliberately shares no evaluation code with the solver:
it recomputes the weight polynomial and its gradient with plain per-edge
products and refines plain normalized gradient steps, so agreement between
the two is a meaningful cross-check.
"""

from __future__ import annotations

import math
from itertools import chain, combinations

import numpy as np

from .hypergraph import Hypergraph
from .solver import _is_count


def gen_beta_star(r: int, m: int) -> Hypergraph:
    """m edges of size r all sharing vertex 1, otherwise disjoint; weights 1.

    Has m*(r-1) + 1 vertices.
    """
    if r < 2 or m < 1:
        raise ValueError(f"need r >= 2 and m >= 1, got r={r} m={m}")
    n = m * (r - 1) + 1
    slots = np.zeros((m, r), np.int64)  # slot 0 is the center, vertex 1
    slots[:, 1:] = np.arange(1, n).reshape(m, r - 1)
    return Hypergraph(n=int(n), r=int(r), slots=slots, weights=np.ones(len(slots)))


def gen_loose_path(r: int, m: int) -> Hypergraph:
    """m edges of size r, consecutive edges overlapping in exactly one vertex.

    Has m*(r-1) + 1 vertices.
    """
    if r < 2 or m < 1:
        raise ValueError(f"need r >= 2 and m >= 1, got r={r} m={m}")
    n = m * (r - 1) + 1
    slots = (r - 1) * np.arange(m, dtype=np.int64)[:, None] + np.arange(r)
    return Hypergraph(n=int(n), r=int(r), slots=slots, weights=np.ones(len(slots)))


def gen_complete(n: int, r: int) -> Hypergraph:
    """All C(n, r) distinct-vertex edges on n vertices, weights 1."""
    if r < 2 or n < r:
        raise ValueError(f"need n >= r >= 2, got n={n} r={r}")
    m = math.comb(n, r)
    rows = chain.from_iterable(combinations(range(n), r))  # lexicographic order
    slots = np.fromiter(rows, np.int64, count=m * r).reshape(m, r)
    return Hypergraph(n=int(n), r=int(r), slots=slots, weights=np.ones(len(slots)))


def gen_random(rng: np.random.Generator, n: int, r: int, m: int) -> Hypergraph:
    """m random edges of r distinct vertices of 1..n, weights uniform in [0.5, 2)."""
    edges, weights = [], []
    for _ in range(m):
        edges.append(rng.choice(np.arange(1, n + 1), size=r, replace=False))
        weights.append(rng.uniform(0.5, 2.0))
    return Hypergraph.from_edges(n=n, r=r, edges=edges, weights=weights)


def beta_star_value(r: int, m: int, p: float) -> float:
    """p-spectral radius of the r-uniform beta-star with m edges.

    Three regimes: p > r-1, p < r-1, and p = r-1 (where the value does not
    depend on m).  The branches do not agree in the limit p -> r-1 and no
    continuity across the split is assumed.
    """
    if r < 2 or m < 1 or not 0.0 < p < math.inf:
        raise ValueError(f"need r >= 2, m >= 1, finite p > 0, got r={r} m={m} p={p}")
    if p > r - 1:
        return math.factorial(r) * r ** (-r / p) * m ** (1.0 - (r - 1) / p)
    if p < r - 1:
        return math.factorial(r) * r ** (-r / p)
    return math.factorial(r - 1) * r ** (-1.0 / (r - 1))


def loose_path_value(r: int, m: int) -> float:
    """r-spectral radius of the r-uniform loose path with m edges (m = 3 or 4).

    Equals (r-1)! times the largest H-eigenvalue of the adjacency tensor,
    which is phi^(2/r) for m = 3 and 3^(1/r) for m = 4; requires even r for
    the H-eigenvalue identification.
    """
    if r < 2 or r % 2 != 0:
        raise ValueError(f"need even r >= 2, got r={r}")
    if m == 3:
        h_eig = ((1.0 + math.sqrt(5.0)) / 2.0) ** (2.0 / r)
    elif m == 4:
        h_eig = 3.0 ** (1.0 / r)
    else:
        raise ValueError(f"closed form known only for m in {{3, 4}}, got m={m}")
    return math.factorial(r - 1) * h_eig


def complete_lagrangian(n: int, r: int) -> float:
    """Lagrangian of the complete r-graph on n vertices: C(n, r) / n^r."""
    if r < 2 or n < r:
        raise ValueError(f"need n >= r >= 2, got n={n} r={r}")
    return math.comb(n, r) / n**r


# --- independent brute-force estimator ---------------------------------------

BRUTE_GRAD_TOL = 1e-6
BRUTE_MAX_SWEEPS = 4000


def _naive_weight_and_grad(g: Hypergraph, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weight polynomial and its gradient at each row of ``points``, naively.

    Direct per-edge, per-slot products (no prefix/suffix trick); kept
    separate from the tensor_ops kernel on purpose.
    """
    count, n = points.shape
    w = np.zeros(count)
    dw = np.zeros((count, n))
    for verts, weight in zip(g.slots, g.weights):
        cols = points[:, verts]  # (count, r)
        w += weight * cols.prod(axis=1)
        for j, v in enumerate(verts):
            others = np.prod(np.delete(cols, j, axis=1), axis=1)
            dw[:, v] += weight * others
    return w, dw


def _naive_value_and_grad(
    g: Hypergraph, points: np.ndarray, p: float
) -> tuple[np.ndarray, np.ndarray]:
    rfact = math.factorial(g.r)
    w, dw = _naive_weight_and_grad(g, points)
    pnorm_p = np.sum(np.abs(points) ** p, axis=1)
    pnorm = pnorm_p ** (1.0 / p)
    f = rfact * w / pnorm**g.r
    signed = np.sign(points) * np.abs(points) ** (p - 1.0)
    grad = (rfact / pnorm**g.r)[:, None] * (dw - ((g.r * w) / pnorm_p)[:, None] * signed)
    return f, grad


def brute_force_radius(
    g: Hypergraph, p: float, budget: int = 2000, seed: int = 0
) -> tuple[float, np.ndarray]:
    """Dense multistart estimate of the p-spectral radius for tiny instances,
    as (value, unit vector that attains it).

    ``budget`` random unit starts are refined simultaneously by normalized
    gradient steps with per-start backtracking until the gradient norm drops
    below BRUTE_GRAD_TOL, for at most BRUTE_MAX_SWEEPS sweeps; the largest
    objective value seen wins.  Enforced to n <= 8 so the search stays
    exhaustive in practice.
    """
    if g.n > 8:
        raise ValueError(f"brute force is restricted to n <= 8, got n={g.n}")
    if not 1.0 < p < math.inf:  # SolverConfig's rule
        raise ValueError(f"need finite p > 1, got p={p}")
    if not _is_count(budget, 1):
        raise ValueError(f"need integer budget >= 1, got budget={budget!r}")

    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((budget, g.n))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)

    f, grad = _naive_value_and_grad(g, pts, p)
    step = np.full(budget, 0.25)
    active = np.ones(budget, dtype=bool)
    for _ in range(BRUTE_MAX_SWEEPS):
        gnorm = np.linalg.norm(grad, axis=1)
        active &= gnorm > BRUTE_GRAD_TOL
        active &= step > 1e-14
        if not active.any():
            break
        idx = np.flatnonzero(active)
        direction = grad[idx] / gnorm[idx][:, None]
        cand = pts[idx] + step[idx][:, None] * direction
        cand /= np.linalg.norm(cand, axis=1, keepdims=True)
        f_cand, grad_cand = _naive_value_and_grad(g, cand, p)
        improved = f_cand >= f[idx]
        good = idx[improved]
        pts[good] = cand[improved]
        f[good] = f_cand[improved]
        grad[good] = grad_cand[improved]
        step[good] = np.minimum(step[good] * 1.25, 1.0)
        step[idx[~improved]] *= 0.5

    # nonnegative weights: flipping signs can only help
    flipped = np.abs(pts)
    f_flipped, _ = _naive_value_and_grad(g, flipped, p)
    best = int(np.argmax(np.maximum(f, f_flipped)))
    if f_flipped[best] >= f[best]:
        return float(f_flipped[best]), flipped[best]
    return float(f[best]), pts[best]
