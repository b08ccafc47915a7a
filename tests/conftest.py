import math
import os

import numpy as np
import pytest

from hyperspec import Hypergraph, families, solver, tensor_ops


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "long: optional long-running scale test, run when HYPERSPEC_LONG_TESTS is set")


def pytest_collection_modifyitems(config, items):
    """Skip the tests marked long unless HYPERSPEC_LONG_TESTS is set."""
    if os.environ.get("HYPERSPEC_LONG_TESTS"):
        return
    skip = pytest.mark.skip(reason="optional long-running scale test; set HYPERSPEC_LONG_TESTS=1")
    for item in items:
        if item.get_closest_marker("long"):
            item.add_marker(skip)


make_random_graph = families.gen_random  # random r-graph, distinct-vertex edges


def disjoint_union(a: Hypergraph, b: Hypergraph) -> Hypergraph:
    """The r-graphs a and b side by side, b's vertices after a's."""
    edges = np.vstack([a.slots, b.slots + a.n]) + 1
    return Hypergraph.from_edges(a.n + b.n, a.r, edges, np.concatenate([a.weights, b.weights]))


def record_starts(monkeypatch) -> list:
    """Rebind solver.solve_single so that each run's start is recorded."""
    starts = []
    real = solver.solve_single

    def recorded(g, cfg, x0, *args, **kwargs):
        starts.append(np.array(x0))
        return real(g, cfg, x0, *args, **kwargs)

    monkeypatch.setattr(solver, "solve_single", recorded)
    return starts


def replay_runs(g: Hypergraph, cfg, track=False, orthant=False) -> list:
    """Every one of the cfg.runs runs of ``solve_multistart(g, cfg, track,
    orthant=orthant)`` without either early stop, the certified one or the
    statistical one, replayed from the documented rules: run i is
    solve_single from the uniform start drawn with seed cfg.seed + i, given
    the (run j, lam_j) entry of each value group of the converged runs
    j < i (:func:`value_groups`).  A multistart makes a prefix of these
    runs, up to :func:`stop_run`."""
    runs = []
    for i in range(cfg.runs):
        x0 = solver.random_unit_sphere(g.n, np.random.default_rng(cfg.seed + i))
        runs.append(solver.solve_single(g, cfg, np.abs(x0) if orthant else x0, track,
                                        known=tuple(value_groups(runs))))
    return runs


def value_groups(runs: list) -> list:
    """The (run j, lam_j) entry of each value group of the converged runs
    (grad_tol or known_maximum): a run joins the first group whose lam_j it
    lies within MAXIMA_TOL relative of, or starts a new one, and a grad_tol
    run with a larger lam becomes its group's entry."""
    groups = []
    for i, run in enumerate(runs):
        if run.stop_reason not in ("grad_tol", "known_maximum"):
            continue
        for k, (_, lam_j) in enumerate(groups):
            if abs(run.lam - lam_j) <= solver.MAXIMA_TOL * abs(lam_j):
                if run.stop_reason == "grad_tol" and run.lam > lam_j:
                    groups[k] = (i, run.lam)
                break
        else:
            groups.append((i, run.lam))
    return groups


def run_upper(g: Hypergraph, p: float, run) -> float | None:
    """The upper bound on lambda^(p) that a multistart reads off a grad_tol
    run: :func:`solver.upper_bound` at the kernel record of its weighting.
    None for every other stop, and at p < r."""
    if run.stop_reason != "grad_tol":
        return None
    return solver.upper_bound(g, evaluated(g, run.weighting, p))


def stop_run(g: Hypergraph, p: float, runs: list) -> int | None:
    """The run a multistart stops after, read off its full run sequence:
    the first run at which the least upper bound so far (:func:`run_upper`)
    is at most the best lam so far times 1 + MAXIMA_TOL, or at which
    N >= w + 3 converged runs (grad_tol or known_maximum) in w value groups
    (:func:`value_groups`) give w (N - 1) / (N - w - 2) < w + 0.5.  None
    when neither rule holds at any run."""
    upper, best, samples = math.inf, -math.inf, 0
    for i, run in enumerate(runs):
        if (bound := run_upper(g, p, run)) is not None:
            upper = min(upper, bound)
        if math.isfinite(run.lam):
            best = max(best, run.lam)
        samples += run.stop_reason in ("grad_tol", "known_maximum")
        w = len(value_groups(runs[: i + 1]))
        if upper <= best * (1.0 + solver.MAXIMA_TOL) or (
                samples >= w + 3 and w * (samples - 1) < (w + 0.5) * (samples - w - 2)):
            return i
    return None


def evaluated(g: Hypergraph, x: np.ndarray, p: float) -> tensor_ops._Eval:
    """The kernel record of x after both stages, value then gradient: the
    base point of a line search and of an increment."""
    point = tensor_ops._value(g, x, p)
    tensor_ops._gradient(g, point)
    return point


def random_unit(rng: np.random.Generator, n: int) -> np.ndarray:
    x = rng.standard_normal(n)
    return x / np.linalg.norm(x)
