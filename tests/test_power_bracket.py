"""lambda^(p) at p > r on a graph drawn like the rank-large benchmark's,
bracketed by a power iteration that shares no code with the kernel.

At p > r the iteration x <- grad w(x)^(1/(p-1)), normalized, converges from
any positive start to the positive maximizer and needs no connectivity
(Gautier, Tudisco & Hein, SIMAX 40, 2019).  Its iterate's f is a lower end
of lambda^(p) and :func:`solver.upper_bound` at the same iterate an upper
end, so the bracket checks the multistart without an oracle (ROADMAP
item 8).
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from hyperspec import Hypergraph, SolverConfig, objective, solve_multistart, solver

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import gen_graph  # noqa: E402

P = 4.0
STEPS = 200
BRACKET_TOL = 1e-12


@pytest.fixture(scope="module")
def skewed():
    """make_edges(1): n = 10000, m = 19382 after merging, r = 3, Zipf(0.8)
    degrees and 1033 isolated vertices."""
    slots, weights = gen_graph.make_edges(1)
    return slots - 1, weights, Hypergraph.from_edges(gen_graph.N, gen_graph.R, slots, weights)


def grad_w(slots, weights, x):
    """dw/dx_i summed edge by edge, one bincount per slot: slot j's partial
    is the weight times the product of the other slots, so a repeated
    vertex counts its multiplicity."""
    grad = np.zeros(x.shape[0])
    for j in range(slots.shape[1]):
        partial = weights.copy()
        for k in range(slots.shape[1]):
            if k != j:
                partial *= x[slots[:, k]]
        grad += np.bincount(slots[:, j], weights=partial, minlength=x.shape[0])
    return grad


@pytest.fixture(scope="module")
def bracket(skewed):
    """(f(x), upper_bound(x)) at the first power iterate whose bracket is
    within BRACKET_TOL relative, from the all-ones vector; isolated
    vertices go to 0 at the first step, which the bound allows."""
    slots, weights, g = skewed
    x = np.ones(g.n)
    for _ in range(STEPS):
        x = grad_w(slots, weights, x) ** (1.0 / (P - 1.0))
        x /= np.linalg.norm(x)
        lower, upper = objective(g, x, P), solver.upper_bound(g, x, P)
        if upper is not None and upper - lower <= BRACKET_TOL * lower:
            return lower, upper
    pytest.fail(f"bracket [{lower!r}, {upper!r}] still open after {STEPS} steps")


@pytest.fixture(scope="module")
def multistart(skewed):
    return solve_multistart(skewed[2], SolverConfig(p=P, runs=3, seed=0))


def test_power_bracket_closes_above_every_run(bracket, multistart):
    # measured: [732.890104987875, 732.890104988514] after 26 steps, 0.04 s
    lower, upper = bracket
    assert lower <= upper
    assert all(run.lam <= upper for run in multistart.run_summaries)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP items 8 and 28: the best of 3 runs is 732.8069456127292, 1.13e-4 "
    "below the bracket at 732.89010498788, with all 3 runs stopped at max_iter "
    "(1.9 s); make_edges(1001) is worse, 681.913 against 727.187, 6.2 % low"))
def test_multistart_reaches_the_power_bracket(bracket, multistart):
    lower, _ = bracket
    assert abs(multistart.best.lam - lower) <= 1e-8 * lower
