import math
import os
from itertools import combinations

import numpy as np
import pytest

from hyperspec import (
    Hypergraph,
    beta_star_value,
    brute_force_radius,
    complete_lagrangian,
    gen_beta_star,
    gen_complete,
    gen_loose_path,
    loose_path_value,
    validate,
)

PHI = (1.0 + math.sqrt(5.0)) / 2.0


class TestGenerators:
    def test_beta_star_shape(self):
        g = gen_beta_star(6, 5)
        assert g.n == 26 and g.m == 5
        assert validate(g) == []
        assert (g.slots[:, 0] == 0).all()  # the center, vertex 1, is in every edge

    def test_beta_star_smallest(self):
        g = gen_beta_star(2, 1)
        assert g.n == 2 and (g.slots[0] + 1).tolist() == [1, 2]

    def test_beta_star_explicit(self):
        g = gen_beta_star(3, 2)
        assert (g.slots + 1).tolist() == [[1, 2, 3], [1, 4, 5]]

    def test_beta_star_leaves_disjoint(self):
        g = gen_beta_star(4, 6)
        for v in range(2, g.n + 1):
            assert np.count_nonzero((g.slots == v - 1).any(axis=1)) == 1

    def test_loose_path_shape(self):
        g = gen_loose_path(6, 4)
        assert g.n == 21 and g.m == 4
        assert validate(g) == []

    def test_loose_path_single_edge(self):
        g = gen_loose_path(3, 1)
        assert g.n == 3 and (g.slots[0] + 1).tolist() == [1, 2, 3]

    def test_loose_path_overlaps(self):
        g = gen_loose_path(4, 3)
        sets = [set(row) for row in (g.slots + 1).tolist()]
        assert len(sets[0] & sets[1]) == 1
        assert len(sets[1] & sets[2]) == 1
        assert len(sets[0] & sets[2]) == 0

    def test_complete_counts(self):
        assert gen_complete(4, 3).m == 4
        assert gen_complete(3, 3).m == 1
        assert gen_complete(5, 3).m == 10

    @pytest.mark.parametrize("fn, args", [
        (gen_beta_star, (1, 3)),
        (gen_beta_star, (3, 0)),
        (gen_loose_path, (3, 0)),
        (gen_complete, (2, 3)),
    ])
    def test_invalid_parameters(self, fn, args):
        with pytest.raises(ValueError):
            fn(*args)

    @pytest.mark.parametrize("r, m", [(2, 1), (3, 4), (4, 3), (5, 2)])
    def test_family_vertex_counts(self, r, m):
        assert gen_beta_star(r, m).n == m * (r - 1) + 1
        assert gen_loose_path(r, m).n == m * (r - 1) + 1


def _beta_star_rows(r, m):
    """The 1-based rows of the beta-star, edge k = {1} and the leaves after edge k-1's."""
    return [[1, *range(2 + k * (r - 1), 2 + (k + 1) * (r - 1))] for k in range(m)]


def _loose_path_rows(r, m):
    """The 1-based rows of the loose path: edge k starts at edge k-1's last vertex."""
    return [list(range(1 + k * (r - 1), 1 + k * (r - 1) + r)) for k in range(m)]


def _complete_rows(n, r):
    return list(combinations(range(1, n + 1), r))


# (generator, its two arguments, the 1-based rows, n) of each family at r and size k
FAMILIES = {
    "beta-star": lambda r, k: (gen_beta_star, (r, k), _beta_star_rows(r, k), k * (r - 1) + 1),
    "loose-path": lambda r, k: (gen_loose_path, (r, k), _loose_path_rows(r, k), k * (r - 1) + 1),
    "complete": lambda r, k: (gen_complete, (k, r), _complete_rows(k, r), k),
}


def _sizes(family, r):
    return range(r, 10) if family == "complete" else range(1, 51)


def _assert_same_graph(g, ref):
    assert g == ref
    assert g.slots.tobytes() == ref.slots.tobytes()
    assert g.weights.tobytes() == ref.weights.tobytes()
    assert type(g.n) is int and type(g.r) is int
    assert validate(g) == []


class TestCanonicalByConstruction:
    """The generators' raw tables equal what from_edges makes of the same rows."""

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("r", range(2, 7))
    def test_equals_from_edges(self, family, r):
        for k in _sizes(family, r):
            gen, args, rows, n = FAMILIES[family](r, k)
            ref = Hypergraph.from_edges(n=n, r=r, edges=rows)
            _assert_same_graph(gen(*args), ref)
            _assert_same_graph(gen(*map(np.int64, args)), ref)

    def test_built_without_from_edges(self, monkeypatch):
        cases = [FAMILIES[family](3, 5) for family in FAMILIES]
        refs = [Hypergraph.from_edges(n=n, r=3, edges=rows) for _, _, rows, n in cases]

        def refuse(*args, **kwargs):
            raise AssertionError("a family generator called from_edges")

        monkeypatch.setattr(Hypergraph, "from_edges", refuse)
        for (gen, args, _, _), ref in zip(cases, refs):
            _assert_same_graph(gen(*args), ref)


@pytest.mark.skipif(
    not os.environ.get("HYPERSPEC_LONG_TESTS"),
    reason="optional long-running scale test; set HYPERSPEC_LONG_TESTS=1",
)
@pytest.mark.parametrize("family, r, k", [("beta-star", 3, 100_000), ("complete", 4, 60)])
def test_generators_at_scale_match_from_edges(family, r, k):
    # n = 200001, and m = C(60, 4) = 487635
    gen, args, rows, n = FAMILIES[family](r, k)
    _assert_same_graph(gen(*args), Hypergraph.from_edges(n=n, r=r, edges=rows))


class TestClosedForms:
    def test_beta_star_above_branch(self):
        assert beta_star_value(3, 10, 3) == pytest.approx(
            2.0 * 10.0 ** (1.0 / 3.0), rel=1e-15
        )

    def test_beta_star_below_branch(self):
        assert beta_star_value(6, 4, 4) == pytest.approx(
            720.0 * 6.0 ** (-1.5), rel=1e-15
        )

    def test_beta_star_boundary_branch_is_m_free(self):
        v = 2.0 * 3.0 ** (-0.5)
        assert beta_star_value(3, 1, 2) == pytest.approx(v, rel=1e-15)
        assert beta_star_value(3, 500, 2) == pytest.approx(v, rel=1e-15)

    def test_beta_star_against_brute_force(self):
        # cross-check the closed form with the independent estimator
        g = gen_beta_star(3, 2)  # n = 5
        for p in (2.0, 3.0):
            ref = beta_star_value(3, 2, p)
            est, _ = brute_force_radius(g, p, budget=500, seed=0)
            assert abs(est - ref) / ref <= 1e-6

    @pytest.mark.parametrize("p", [0.0, -1.0, np.nan, np.inf])
    def test_beta_star_rejects_p(self, p):
        # nan fell through to the p = r - 1 branch
        with pytest.raises(ValueError, match="finite p > 0"):
            beta_star_value(3, 2, p)

    def test_loose_path_values(self):
        assert loose_path_value(4, 3) == pytest.approx(6.0 * PHI**0.5, rel=1e-15)
        assert loose_path_value(4, 4) == pytest.approx(6.0 * 3.0**0.25, rel=1e-15)
        assert loose_path_value(6, 4) == pytest.approx(
            120.0 * 3.0 ** (1.0 / 6.0), rel=1e-15
        )

    def test_loose_path_unsupported(self):
        with pytest.raises(ValueError):
            loose_path_value(4, 5)
        with pytest.raises(ValueError):
            loose_path_value(3, 3)  # odd r

    def test_complete_lagrangian_values(self):
        assert complete_lagrangian(4, 3) == pytest.approx(0.0625)
        assert complete_lagrangian(10, 3) == pytest.approx(0.12)
        # single-edge case: C(r, r) / r^r, the simplex maximum of x_1 ... x_r
        assert complete_lagrangian(5, 5) == pytest.approx(5.0**-5)
        with pytest.raises(ValueError):
            complete_lagrangian(2, 3)


class TestBruteForce:
    def test_tetrahedron(self):
        est, _ = brute_force_radius(gen_complete(4, 3), 2.0, budget=500, seed=1)
        assert est == pytest.approx(3.0, abs=1e-4)

    def test_single_edge(self):
        g = Hypergraph.from_edges(n=2, r=2, edges=[(1, 2)])
        assert brute_force_radius(g, 2.0, budget=100, seed=0)[0] == pytest.approx(1.0, abs=1e-6)

    def test_size_limit(self):
        with pytest.raises(ValueError):
            brute_force_radius(gen_complete(9, 3), 2.0)

    def test_p_limit(self):
        for p in (1.0, np.nan, np.inf):  # nan took no branch, inf overflowed
            with pytest.raises(ValueError, match=rf"^need finite p > 1, got p={p}$"):
                brute_force_radius(gen_complete(4, 3), p)

    @pytest.mark.parametrize("budget", [0, 2.5])
    def test_budget_must_be_a_positive_integer(self, budget):
        with pytest.raises(ValueError, match=rf"^need integer budget >= 1, got budget={budget}$"):
            brute_force_radius(gen_complete(4, 3), 2.0, budget=budget)

    def test_return_vector(self):
        g = gen_complete(4, 3)
        value, vec = brute_force_radius(g, 2.0, budget=300, seed=2)
        assert vec.shape == (4,)
        assert np.all(vec >= 0)
        from hyperspec import objective

        assert objective(g, vec, 2.0) == pytest.approx(value, rel=1e-12)

    def test_deterministic(self):
        g = gen_complete(5, 3)
        a, x = brute_force_radius(g, 3.0, budget=200, seed=9)
        b, y = brute_force_radius(g, 3.0, budget=200, seed=9)
        assert a == b and np.array_equal(x, y)
