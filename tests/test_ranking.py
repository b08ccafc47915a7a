import numpy as np
import pytest

from hyperspec import (
    Hypergraph,
    SolverConfig,
    gen_complete,
    random_unit_sphere,
    rank_vertices,
    solve_multistart,
)
from hyperspec import ranking
from hyperspec.ranking import RankedEntries, ranked_order

from conftest import make_random_graph, record_starts, replay_runs


def two_edge_graph():
    return Hypergraph.from_edges(n=6, r=3, edges=[(1, 2, 3), (4, 5, 6)], weights=[1.0, 1.5])


class TestRankedOrder:
    def test_descending(self):
        assert ranked_order(np.array([0.1, 0.5, 0.3])).tolist() == [1, 2, 0]

    def test_exact_ties_break_by_index(self):
        assert ranked_order(np.array([0.5, 0.7, 0.5, 0.7])).tolist() == [1, 3, 0, 2]


class TestRankVertices:
    def test_symmetric_graph_equal_factors(self):
        g = gen_complete(4, 3)
        for p in (2.0, 3.0):
            rep = rank_vertices(g, SolverConfig(p=p, runs=10, seed=0))
            vals = [v for _, v in rep.entries]
            assert max(vals) - min(vals) <= 1e-6
            assert len(rep.entries) == 4

    def test_entries_nonincreasing_and_ids_valid(self):
        g = two_edge_graph()
        rep = rank_vertices(g, SolverConfig(p=3.0, runs=10, seed=1))
        vals = [v for _, v in rep.entries]
        ids = [i for i, _ in rep.entries]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert sorted(ids) == list(range(1, 7))

    def test_small_p_selects_heavy_group(self):
        rep = rank_vertices(two_edge_graph(), SolverConfig(p=4.0 / 3.0, runs=10, seed=0))
        assert {i for i, _ in rep.entries[:3]} == {4, 5, 6}

    def test_large_p_scores_individually(self):
        rep = rank_vertices(two_edge_graph(), SolverConfig(p=16.0, runs=10, seed=0))
        vals = [v for _, v in rep.entries]
        assert max(vals) / min(vals) <= 1.2

    def test_top_k(self):
        rep = rank_vertices(two_edge_graph(), SolverConfig(p=3.0, runs=5, seed=0), top_k=2)
        assert len(rep.entries) == 2

    def test_top_k_bounds(self):
        with pytest.raises(ValueError):
            rank_vertices(two_edge_graph(), SolverConfig(p=3.0, runs=2), top_k=7)

    @pytest.mark.parametrize("top_k", [2.5, 0, 7])
    def test_top_k_is_checked_before_solving(self, top_k, monkeypatch):
        def never(*args, **kwargs):
            pytest.fail("the multistart ran with an invalid top_k")

        monkeypatch.setattr(ranking, "solve_multistart", never)
        with pytest.raises(ValueError, match=rf"^need integer top_k in \[1, 6\], got top_k={top_k}$"):
            rank_vertices(two_edge_graph(), SolverConfig(p=3.0, runs=2), top_k=top_k)

    def test_runs_start_in_orthant(self, monkeypatch):
        starts = record_starts(monkeypatch)
        g = two_edge_graph()
        cfg = SolverConfig(p=3.0, runs=5, seed=4)
        rank_vertices(g, cfg)
        assert len(starts) == cfg.runs
        for i, x0 in enumerate(starts):
            expected = np.abs(random_unit_sphere(g.n, np.random.default_rng(cfg.seed + i)))
            assert x0.tobytes() == expected.tobytes()

    def test_report_metadata(self):
        # p = 2 < r: the statistical stop ends the runs after 8 at one value
        cfg = SolverConfig(p=2.0, runs=30, seed=3)
        rep = rank_vertices(gen_complete(4, 3), cfg)
        assert rep.p == 2.0 and rep.runs == 8
        assert rep.lam == pytest.approx(3.0, abs=1e-7)

    def test_runs_counts_the_runs_made(self):
        # p = r: the first run's bound proves the uniform vector global
        g, cfg = gen_complete(4, 3), SolverConfig(p=3.0, runs=10, seed=0)
        rep = rank_vertices(g, cfg)
        res = solve_multistart(g, cfg, orthant=True)
        assert res.certified and rep.runs == len(res.all_lambdas) == 1

    def test_two_runs_are_never_stopped(self):
        # two runs give at most two samples, fewer than the estimate needs,
        # so at p < r the report is the one built from both runs of the full
        # sequence, byte for byte, as before the stop existed
        g = make_random_graph(np.random.default_rng(5), 300, 3, 900)
        cfg = SolverConfig(p=2.0, runs=2, seed=1)
        rep = rank_vertices(g, cfg)
        runs = replay_runs(g, cfg, orthant=True)
        best = runs[int(np.nanargmax([run.lam for run in runs]))]
        order = ranked_order(best.weighting)
        assert rep.runs == 2 and rep.lam == best.lam
        assert rep.entries.vertices.tobytes() == (order + 1).tobytes()
        assert rep.entries.impact.tobytes() == best.weighting[order].tobytes()


class TestRankedEntries:
    @pytest.fixture(scope="class")
    def rep(self):
        return rank_vertices(two_edge_graph(), SolverConfig(p=3.0, runs=5, seed=2))

    def test_arrays(self, rep):
        entries = rep.entries
        assert entries.vertices.dtype == np.int64 and entries.impact.dtype == np.float64
        assert sorted(entries.vertices.tolist()) == list(range(1, 7))
        with pytest.raises(ValueError, match="read-only"):
            entries.impact[0] = 0.0

    def test_iteration_yields_python_pairs(self, rep):
        entries = rep.entries
        pairs = tuple(entries)
        assert pairs == tuple(zip(entries.vertices.tolist(), entries.impact.tolist()))
        assert all(type(v) is int and type(s) is float for v, s in pairs)

    def test_len_index_and_slice(self, rep):
        entries = rep.entries
        pairs = tuple(entries)
        assert len(entries) == 6
        assert entries[0] == pairs[0] and entries[-1] == pairs[-1]
        assert type(entries[2][0]) is int and type(entries[2][1]) is float
        part = entries[1:4]
        assert isinstance(part, RankedEntries) and len(part) == 3
        assert tuple(part) == pairs[1:4]
        assert np.shares_memory(part.impact, entries.impact)
        with pytest.raises(IndexError):
            entries[6]

    def test_equal_reports_hash_equal(self, rep):
        again = rank_vertices(two_edge_graph(), SolverConfig(p=3.0, runs=5, seed=2))
        assert again.entries is not rep.entries
        assert again.entries == rep.entries and hash(again.entries) == hash(rep.entries)
        assert again == rep and hash(again) == hash(rep)

    def test_different_p_unequal(self, rep):
        other = rank_vertices(two_edge_graph(), SolverConfig(p=4.0, runs=5, seed=2))
        assert other.entries != rep.entries
