"""Metamorphic relations of lambda^(p): transformations of a graph whose
effect on the p-spectral radius is known without a closed form, checked on
the multistart's best value for sparse random 3-graphs.

- Relabeling the vertices leaves lambda unchanged.
- Scaling every edge weight by c scales lambda by c.
- Adding isolated vertices leaves lambda unchanged.
- The disjoint union of a graph with itself has the value lambda at p <= r
  and 2^((p - r) / p) lambda at p > r: with p-mass s on one copy the value
  is lambda (s^(r/p) + (1 - s)^(r/p)), largest at s in {0, 1} for p <= r
  and at s = 1/2 for p > r.

One relation holds of the parser itself: an edge's line split into two
lines of half its weight gives the same graph.
"""

import numpy as np
import pytest

from hyperspec import (
    Hypergraph, SolverConfig, parse_edge_list, serialize_edge_list, solve_multistart)

from conftest import disjoint_union, make_random_graph

GRAPHS = range(4)  # gen_random(default_rng(k), 40, 3, 80)


def relabeled(g: Hypergraph) -> Hypergraph:
    perm = np.random.default_rng(7).permutation(g.n)
    return Hypergraph.from_edges(g.n, g.r, perm[g.slots] + 1, g.weights)


def scaled(g: Hypergraph) -> Hypergraph:
    return Hypergraph.from_edges(g.n, g.r, g.slots + 1, 2.5 * g.weights)


def padded(g: Hypergraph) -> Hypergraph:
    return Hypergraph.from_edges(g.n + 5, g.r, g.slots + 1, g.weights)


def check_relations(k: int, p: float, tol: float) -> None:
    g = make_random_graph(np.random.default_rng(k), 40, 3, 80)

    def lam(graph):
        return solve_multistart(graph, SolverConfig(p=p, runs=20, seed=0)).best.lam

    base = lam(g)
    union = 1.0 if p <= g.r else 2.0 ** ((p - g.r) / p)
    expected = {"relabeled": (relabeled(g), base), "scaled": (scaled(g), 2.5 * base),
                "padded": (padded(g), base), "self-union": (disjoint_union(g, g), union * base)}
    for name, (graph, value) in expected.items():
        err = abs(lam(graph) - value) / value
        assert err <= tol, f"{name}: relative error {err:.1e}"


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
@pytest.mark.parametrize("k", GRAPHS)
def test_relations(k, p):
    check_relations(k, p, 1e-14)


@pytest.mark.parametrize("k", GRAPHS)
def test_split_lines_give_the_same_graph(k):
    # the weights are at least 0.5, so w / 2 is exact and w / 2 + w / 2 == w
    g = make_random_graph(np.random.default_rng(k), 40, 3, 80)
    header, *lines = serialize_edge_list(g).splitlines()
    halves = []
    for line in lines:
        ids, w = line.rsplit(" ", 1)
        halves += [f"{ids} {float(w) / 2.0!r}"] * 2
    assert parse_edge_list("\n".join([header, *halves]) + "\n") == g


@pytest.mark.parametrize("p", [3.0, 4.0])
@pytest.mark.parametrize("k", GRAPHS)
def test_padded_graph_certifies_after_one_run(k, p):
    # p >= r: run 0's upper bound, taken over the vertices of positive
    # degree, proves its value even where it ends at zero on an isolated one
    g = make_random_graph(np.random.default_rng(k), 40, 3, 80)
    cfg = SolverConfig(p=p, runs=20, seed=0)
    res = solve_multistart(padded(g), cfg)
    assert len(res.run_summaries) == 1 and res.stop == "certified"
    base = solve_multistart(g, cfg).best.lam
    assert abs(res.best.lam - base) <= 1e-14 * base


# the relabeled k = 0 graph's multistart ends at 1.7905 against 2.0868, 16 of
# its 20 runs stopping at max_iter: the run stall near p = 1 of ROADMAP item
# 17, which the relation exposes.  Strict, so the case fails once it passes
STALL = pytest.mark.xfail(strict=True, reason="relabeled k = 0 ends at 1.7905, "
                          "not 2.0868: runs stall at max_iter near p = 1 (ROADMAP item 17)")


@pytest.mark.long
@pytest.mark.parametrize("k", [pytest.param(0, marks=STALL), 1, 2, 3])
def test_relations_near_p_1(k):
    # most runs stall near p = 1, and every multistart makes all 20 runs.
    # On k = 1, 2 and 3 the values agree to 2.0e-12 at worst
    check_relations(k, 1.5, 1e-11)
