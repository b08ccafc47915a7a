import numpy as np

from hyperspec import Hypergraph, families, solver, tensor_ops


make_random_graph = families.gen_random  # random r-graph, distinct-vertex edges


def record_starts(monkeypatch) -> list:
    """Rebind solver.solve_single so that each run's start is recorded."""
    starts = []
    real = solver.solve_single

    def recorded(g, cfg, x0, *args, **kwargs):
        starts.append(np.array(x0))
        return real(g, cfg, x0, *args, **kwargs)

    monkeypatch.setattr(solver, "solve_single", recorded)
    return starts


def evaluated(g: Hypergraph, x: np.ndarray, p: float) -> tensor_ops._Eval:
    """The kernel record of x after both stages, value then gradient: the
    base point of a line search and of an increment."""
    point = tensor_ops._value(g, x, p)
    tensor_ops._gradient(g, point)
    return point


def random_unit(rng: np.random.Generator, n: int) -> np.ndarray:
    x = rng.standard_normal(n)
    return x / np.linalg.norm(x)
