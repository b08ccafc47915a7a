"""What the benchmark in ``bench/`` relies on from the program.

``bench/workloads.py`` reads each rank-large run's final iterate by
rebinding ``solver.solve_single`` and ``solver.line_search_wolfe``, and
``bench/tracing.py`` times the kernel by rebinding the functions the solver
imported from ``tensor_ops``.  These tests only import and call the bench
modules; a change that breaks either rebinding fails here first.
"""

import sys
from pathlib import Path

import numpy as np

from hyperspec import SolverConfig, gen_beta_star, solver, tensor_ops

from conftest import replay_runs

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_rank_reads_one_final_iterate_per_run():
    g = gen_beta_star(3, 10)
    report, res, finals = workloads._rank(g, seed=1)
    assert len(finals) == len(res.run_summaries) == workloads.RANK_RUNS
    assert all(isinstance(x, np.ndarray) and x.shape == (g.n,) for x in finals)
    weighting = np.zeros(g.n)
    for vertex, impact in report.entries:
        weighting[vertex - 1] = impact
    assert np.array_equal(np.abs(finals[res.best_run]), weighting)
    assert not hasattr(solver.solve_single, "__wrapped__")


def test_tracer_records_kernel_spans_and_changes_nothing():
    g = gen_beta_star(3, 10)
    cfg = SolverConfig(p=3.0, runs=3, seed=4)
    plain = solver.solve_multistart(g, cfg)
    tracer = tracing.Tracer()
    with tracer.patched():
        traced = solver.solve_multistart(g, cfg)
        # p = r: the multistart makes a prefix of its run sequence, so all
        # three runs are also compared one by one
        traced_runs = replay_runs(g, cfg)
    kernel = [span for span in tracer.spans if span[0] == tracing.KERNEL]
    # one span per value pass, gradient pass and increment
    passes = sum(run.evals + run.grad_evals for run in traced.run_summaries + tuple(traced_runs))
    assert len(kernel) >= passes > 0
    assert all(info == (g.n, g.m, g.r) for *_, info in kernel)
    assert plain.all_lambdas == traced.all_lambdas
    assert len(traced_runs) == cfg.runs
    pairs = zip(plain.run_summaries + tuple(replay_runs(g, cfg)),
                traced.run_summaries + tuple(traced_runs))
    for a, b in pairs:
        assert (a.iterations, a.stop_reason, a.evals, a.grad_evals) == (
            b.iterations, b.stop_reason, b.evals, b.grad_evals)
        assert a.weighting.tobytes() == b.weighting.tobytes()
    assert not any(hasattr(fn, "__wrapped__") for fn in vars(solver).values())
    assert solver._value is tensor_ops._value
