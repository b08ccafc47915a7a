import numpy as np

from hyperspec import Hypergraph


def make_random_graph(rng: np.random.Generator, n: int, r: int, m: int) -> Hypergraph:
    """Random r-graph with distinct-vertex edges and weights in [0.5, 2)."""
    edges, weights = [], []
    for _ in range(m):
        edges.append(rng.choice(np.arange(1, n + 1), size=r, replace=False))
        weights.append(float(rng.uniform(0.5, 2.0)))
    return Hypergraph.from_edges(n=n, r=r, edges=edges, weights=weights)


def random_unit(rng: np.random.Generator, n: int) -> np.ndarray:
    x = rng.standard_normal(n)
    return x / np.linalg.norm(x)
