"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line (run with -v and/or -s to see them individually).

Notes on two criteria:

* criterion 4 at the final schedule step: at theta = 10 the spectral
  parameter is p = 22/21.  For the complete 3-graph the uniform vector is
  optimal for every p >= 1 (Maclaurin's inequality plus the power-mean
  inequality), so lambda^(p)/r! = C(n,3) * n^(-3/p) there, which exceeds the
  simplex limit C(n,r)/n^r by 0.0130 for the 4-vertex graph and 0.0443 for
  the 10-vertex one.  The distance to the Lagrangian at that step is set by
  the schedule, not by the solver, so the test checks the final-step value
  against lambda^(p)/r! itself; the error trend over the schedule is checked
  separately.
* criterion 8 gradient clause: with objective values near 43, the increase
  per step drops below the spacing of float64 values of f once the gradient
  norm is below about 1e-6.  The line search then evaluates the increase as
  a difference of nearby factors that does not cancel against f, so the run
  can certify ascent down to a gradient norm of 1e-8.
"""

import gc
import math
import os
import time
import tracemalloc

import numpy as np
import pytest

from hyperspec import (
    Hypergraph,
    SolverConfig,
    beta_star_value,
    brute_force_radius,
    complete_lagrangian,
    gen_beta_star,
    gen_complete,
    gen_loose_path,
    lagrangian_approx,
    loose_path_value,
    objective,
    value_and_grad,
    rank_vertices,
    solve_multistart,
    solve_single,
)
from hyperspec import solver
from hyperspec.solver import random_unit_sphere

from conftest import make_random_graph


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}")


# --- 1. beta-star closed forms -------------------------------------------------


@pytest.mark.parametrize(
    "r, m, p",
    [(3, 10, 3.0), (3, 200, 3.0), (6, 4, 4.0), (3, 10, 2.0)],
    ids=["r3m10p3", "r3m200p3", "r6m4p4", "r3m10p2"],
)
def test_criterion_1_beta_star_closed_forms(r, m, p):
    g = gen_beta_star(r, m)
    ref = beta_star_value(r, m, p)
    t0 = time.perf_counter()
    res = solve_multistart(g, SolverConfig(p=p, runs=100, seed=10))
    wall = time.perf_counter() - t0
    rel = abs(res.best.lam - ref) / ref
    report("criterion 1", rel <= 1e-8 and wall <= 30.0,
           f"beta-star r={r} m={m} p={p:g}: rel err {rel:.2e}, {wall:.1f} s")
    assert rel <= 1e-8
    assert wall <= 30.0


# --- 2. loose paths -------------------------------------------------------------


@pytest.mark.parametrize("m", [3, 4])
def test_criterion_2_loose_paths(m):
    g = gen_loose_path(4, m)
    ref = loose_path_value(4, m)
    res = solve_multistart(g, SolverConfig(p=4.0, runs=100, seed=20))
    rel = abs(res.best.lam - ref) / ref
    success = float(np.mean(np.abs(np.array(res.all_lambdas) - ref) / ref <= 1e-8))
    report("criterion 2", rel <= 1e-8 and success >= 0.30,
           f"loose path r=4 m={m}: rel err {rel:.2e}, per-run success {success:.2f}")
    assert rel <= 1e-8
    assert success >= 0.30


# --- 3. tetrahedron Z-case ------------------------------------------------------


def test_criterion_3_tetrahedron_best_of_100():
    res = solve_multistart(gen_complete(4, 3), SolverConfig(p=2.0, runs=100, seed=30))
    err = abs(res.best.lam - 3.0)
    report("criterion 3", err <= 3e-8, f"best-of-100 lambda(2) = {res.best.lam!r}, |err| {err:.2e}")
    assert err <= 3e-8


def test_criterion_3_success_frequency_curve():
    # repeat the trials-until-success experiment and check the cumulative
    # frequency curve: non-decreasing, above 0.99 within 40 trials.  The
    # paper's signed law counts a trial only when it is exact without a move
    # to |x| (a nonnegative finish), which lifts every trial to the maximum
    g = gen_complete(4, 3)
    cfg = SolverConfig(p=2.0, runs=1)
    experiments = 1000
    cap = 400
    counts = np.zeros(experiments, dtype=int)
    first_exact = np.zeros(experiments, dtype=bool)
    for j in range(experiments):
        rng = np.random.default_rng(50_000 + 7919 * j)
        for trial in range(1, cap + 1):
            res = solve_single(g, cfg, random_unit_sphere(g.n, rng))
            exact = abs(res.lam - 3.0) / 3.0 <= 1e-8
            if trial == 1:
                first_exact[j] = exact
            if exact and res.finishes == 0:
                counts[j] = trial
                break
        else:
            counts[j] = cap + 1
    freq = np.array([(counts <= i).mean() for i in range(1, 41)])
    report("criterion 3", bool(np.all(np.diff(freq) >= 0.0) and freq[-1] > 0.99),
           f"success frequency: nu_1 {freq[0]:.3f}, nu_40 {freq[-1]:.4f}; "
           f"with the nonnegative finish nu_1 {first_exact.mean():.3f}")
    assert np.all(np.diff(freq) >= 0.0)
    assert freq[-1] > 0.99


# --- 4. Lagrangian approximation ------------------------------------------------


def _lagrangian_rows(n):
    g = gen_complete(n, 3)
    cfg = SolverConfig(p=2.0, runs=20, seed=40, grad_tol=1e-6)
    return lagrangian_approx(g, cfg, steps=10).rows


def _lagrangian_errors(n):
    exact = complete_lagrangian(n, 3)
    return {row.theta: abs(row.normalized - exact) for row in _lagrangian_rows(n)}


@pytest.mark.parametrize("n", [4, 10])
def test_criterion_4_error_trend(n):
    errs = _lagrangian_errors(n)
    ok = errs[1] >= errs[4] >= errs[10]
    report("criterion 4", ok,
           f"C({n},3) schedule errors {errs[1]:.4f} >= {errs[4]:.4f} >= {errs[10]:.4f}")
    assert ok


@pytest.mark.parametrize("n", [4, 10])
def test_criterion_4_error_tolerance_at_final_step(n):
    # at theta = 10 the spectral parameter is p = 22/21, where the uniform
    # vector is optimal and the normalized value is C(n,3)*n^(-3/p): 0.0130
    # (n=4) / 0.0443 (n=10) above the Lagrangian for any correct solver (see
    # the module docstring), so the estimate is checked against that value
    row = _lagrangian_rows(n)[-1]
    assert row.theta == 10
    model = math.comb(n, 3) * n ** (-3.0 / row.p)
    err = abs(row.normalized - model)
    gap = model - complete_lagrangian(n, 3)
    report("criterion 4", err <= 1e-8 * model,
           f"C({n},3) at step 10: normalized {row.normalized:.12f} vs C(n,3)*n^(-3/p) "
           f"{model:.12f}, rel err {err / model:.1e} (distance to the Lagrangian {gap:.4f})")
    assert err <= 1e-8 * model


# --- 5. gradient correctness ----------------------------------------------------


def test_criterion_5_gradient_vs_central_differences():
    rng = np.random.default_rng(55)
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 11))
        r = int(rng.integers(2, min(n, 4) + 1))
        g = make_random_graph(rng, n, r, int(rng.integers(1, 6)))
        p = float(rng.choice([1.5, 2.0, 3.0, 8.0]))
        x = rng.uniform(0.2, 1.0, size=n) * rng.choice([-1.0, 1.0], size=n)
        x /= np.linalg.norm(x)
        _, grad = value_and_grad(g, x, p)
        fd = np.zeros(n)
        for i in range(n):
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            fd[i] = (objective(g, xp, p) - objective(g, xm, p)) / (2.0 * h)
        worst = max(worst, float(np.linalg.norm(grad - fd) / np.linalg.norm(grad)))
    report("criterion 5", worst <= 1e-6, f"max rel err over 100 probes: {worst:.2e}")
    assert worst <= 1e-6


# --- 6. iteration invariants ----------------------------------------------------


TRACKED_INSTANCES = [
    ("beta-star(3,10) p=3", lambda: gen_beta_star(3, 10), 3.0, 20),
    ("loose-path(4,3) p=4", lambda: gen_loose_path(4, 3), 4.0, 10),
    ("complete(4,3) p=2", lambda: gen_complete(4, 3), 2.0, 20),
    ("beta-star(6,4) p=4", lambda: gen_beta_star(6, 4), 4.0, 40),
]


@pytest.mark.parametrize("name, build, p, runs", TRACKED_INSTANCES,
                         ids=[t[0] for t in TRACKED_INSTANCES])
def test_criterion_6_iteration_invariants(name, build, p, runs):
    cfg = SolverConfig(p=p, runs=runs, seed=60)
    multi = solve_multistart(build(), cfg, track=True)
    coeff = solver.ASCENT_COEFF
    cap = solver.DIRECTION_BOUND
    steps = 0
    for res in multi.run_summaries:
        trace = res.trace
        for prev, cur in zip(trace, trace[1:]):
            if cur.finish:  # a move to |x| between the records: f(|x|) >= f(x)
                assert cur.f >= prev.f_next
            else:  # consecutive records chain exactly
                assert cur.f == prev.f_next
        for rec in trace:
            steps += 1
            assert rec.drift <= 1e-12
            assert rec.ascent >= coeff * rec.gnorm**2 * (1.0 - 1e-12)
            assert rec.dir_norm <= cap * rec.gnorm * (1.0 + 1e-12)
            # both Wolfe inequalities, exactly as the floats were compared
            lower = rec.f + solver.C1 * rec.alpha * rec.ascent
            assert rec.f_next >= lower
            assert rec.curv_next <= solver.C2 * rec.ascent
            # strict increase whenever the increase threshold is representable
            assert rec.f_next > rec.f or lower == rec.f
            assert rec.f_next >= rec.f
            assert abs(rec.step_norm - rec.step_pred) <= 1e-10
            cos_angle = rec.ascent / (rec.gnorm * rec.dir_norm)
            assert cos_angle >= coeff / cap * (1.0 - 1e-12)
    support = sum(res.support_steps for res in multi.run_summaries)
    finishes = sum(res.finishes for res in multi.run_summaries)
    report("criterion 6", True, f"{name}: {steps} accepted steps ({support} support steps, "
           f"{finishes} finishes) across {runs} runs, all invariants hold")


# --- 7. brute-force oracle equivalence ------------------------------------------


def test_criterion_7_brute_force_agreement():
    rng = np.random.default_rng(70)
    worst = 0.0
    for trial in range(20):
        n = int(rng.integers(4, 7))
        g = make_random_graph(rng, n, 3, int(rng.integers(2, 9)))
        for p in (2.0, 3.0):
            oracle, _ = brute_force_radius(g, p, budget=400, seed=trial)
            res = solve_multistart(g, SolverConfig(p=p, runs=40, seed=700 + trial))
            worst = max(worst, abs(oracle - res.best.lam))
    report("criterion 7", worst <= 1e-4, f"max |solver - oracle| over 20 graphs: {worst:.2e}")
    assert worst <= 1e-4


# --- 8. scale smoke test ---------------------------------------------------------


@pytest.fixture(scope="module")
def scale_run():
    g = gen_beta_star(3, 10_000)  # n = 20001
    rng = np.random.default_rng(42)
    x0 = random_unit_sphere(g.n, rng)
    cfg = SolverConfig(p=3.0)
    tracemalloc.start()
    t0 = time.perf_counter()
    res = solve_single(g, cfg, x0)
    wall = time.perf_counter() - t0
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return g, res, wall, peak


def test_criterion_8_scale_run_cost(scale_run):
    g, res, wall, peak = scale_run
    ref = beta_star_value(3, 10_000, 3.0)
    rel = abs(res.lam - ref) / ref
    budget = (g.n + g.m * g.r) * 8  # bytes for one float64 copy of the data
    ok = res.iterations <= 1000 and wall <= 60.0 and peak <= 64 * budget
    report("criterion 8", ok,
           f"n=20001: {res.iterations} iterations, {wall:.1f} s, peak {peak / 1e6:.1f} MB "
           f"(linear budget {budget / 1e6:.1f} MB), value rel err {rel:.1e}")
    assert res.iterations <= 1000
    assert wall <= 60.0
    assert peak <= 64 * budget
    assert rel <= 1e-8  # the value itself converges regardless of the gradient stop


@pytest.mark.skipif(
    not os.environ.get("HYPERSPEC_LONG_TESTS"),
    reason="optional long-running scale test; set HYPERSPEC_LONG_TESTS=1",
)
def test_criterion_8_optional_larger_scale():
    # optional larger instance (n = 200001), a few seconds on a desktop
    g = gen_beta_star(3, 100_000)
    ref = beta_star_value(3, 100_000, 3.0)
    x0 = random_unit_sphere(g.n, np.random.default_rng(7))
    t0 = time.perf_counter()
    res = solve_single(g, SolverConfig(p=3.0), x0)
    wall = time.perf_counter() - t0
    rel = abs(res.lam - ref) / ref
    report("criterion 8", rel <= 1e-8 and res.iterations <= 1000,
           f"n=200001: {res.iterations} iterations, {wall:.1f} s, rel err {rel:.1e}")
    assert rel <= 1e-8
    assert res.iterations <= 1000


def _retained(call):
    """call()'s result and the traced bytes that stay allocated after it."""
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        gc.collect()
        return result, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


# bytes a retained result may hold beyond its length-n int64 and float64 arrays
RETAINED_SLACK = 4096


def _warm_up(cfg):
    # a first ranking imports what the solver imports lazily (numpy.random),
    # which the traced call would count as retained
    rank_vertices(gen_beta_star(3, 2), cfg)


def test_criterion_8_retained_result_bytes():
    # a report keeps two length-n arrays (ids and impact factors) and a run
    # keeps only its x, so results hold 16 and 8 bytes per vertex
    g = gen_beta_star(3, 5000)  # n = 10001
    cfg = SolverConfig(p=3.0, runs=2, seed=1)
    _warm_up(cfg)
    rep, report_bytes = _retained(lambda: rank_vertices(g, cfg))
    res, runs_bytes = _retained(lambda: solve_multistart(g, cfg, orthant=True))
    assert len(rep.entries) == g.n and len(res.run_summaries) == cfg.runs
    ok = (report_bytes <= 2 * 8 * g.n + RETAINED_SLACK
          and runs_bytes <= cfg.runs * (8 * g.n + RETAINED_SLACK))
    report("criterion 8", ok,
           f"n={g.n}: the report retains {report_bytes} B (arrays {2 * 8 * g.n} B), "
           f"{cfg.runs} runs retain {runs_bytes} B (x {cfg.runs * 8 * g.n} B)")
    assert report_bytes <= 2 * 8 * g.n + RETAINED_SLACK
    assert runs_bytes <= cfg.runs * (8 * g.n + RETAINED_SLACK)


@pytest.mark.skipif(
    not os.environ.get("HYPERSPEC_LONG_TESTS"),
    reason="optional long-running scale test; set HYPERSPEC_LONG_TESTS=1",
)
def test_criterion_8_optional_retained_report_at_larger_scale():
    # the report bound at n = 200001, one ranking run
    g = gen_beta_star(3, 100_000)
    cfg = SolverConfig(p=3.0, runs=1, seed=1)
    _warm_up(cfg)
    rep, report_bytes = _retained(lambda: rank_vertices(g, cfg))
    assert len(rep.entries) == g.n
    ok = report_bytes <= 2 * 8 * g.n + RETAINED_SLACK
    report("criterion 8", ok,
           f"n={g.n}: the report retains {report_bytes} B (arrays {2 * 8 * g.n} B)")
    assert ok


# a line search holds two kernel records with tables: the base, 2r - 1 = 5
# tables, and the trial, 2r + 1 = 7 while its value stage and 9 while its
# gradient stage runs (14 tables).  One more record, such as a rejected
# trial, or a copy of the slot index would exceed the bound
SEARCH_PEAK_TABLES = 16


@pytest.mark.parametrize("n", [
    40,  # m = 9880
    pytest.param(100, marks=pytest.mark.skipif(  # m = 161700
        not os.environ.get("HYPERSPEC_LONG_TESTS"),
        reason="optional long-running scale test; set HYPERSPEC_LONG_TESTS=1",
    )),
])
def test_criterion_8_search_peak_bytes(n):
    # the traced peak of one run on the complete 3-graph at p = 2
    g = gen_complete(n, 3)
    x0 = random_unit_sphere(g.n, np.random.default_rng(1))
    tracemalloc.start()
    try:
        solve_single(g, SolverConfig(p=2.0), x0)
        peak = tracemalloc.get_traced_memory()[1] / (8 * g.m)
    finally:
        tracemalloc.stop()
    ok = peak <= SEARCH_PEAK_TABLES
    report("criterion 8", ok, f"m={g.m}: traced peak of one run {peak:.1f} x 8m bytes")
    assert ok


def test_criterion_8_gradient_tolerance_at_scale(scale_run):
    # near f ~ 43 the rounding noise of float64 values of f (~1e-14) exceeds
    # the true per-step increase once the gradient norm is below about 1e-6;
    # comparing two values of f could not certify further ascent there, so
    # the line search evaluates the increase itself (see the module docstring)
    g, res, wall, peak = scale_run
    report("criterion 8", res.converged and res.grad_norm <= 1e-8,
           f"gradient stop: reached {res.grad_norm:.1e} (target 1e-8), stop reason "
           f"{res.stop_reason}")
    assert res.grad_norm <= 1e-8, (
        f"gradient norm stalls at {res.grad_norm:.1e}, the double-precision "
        f"value-resolution floor for f ~ 43; see notes on criterion 8"
    )


# --- 9. ranking behavior ----------------------------------------------------------


@pytest.fixture(scope="module")
def two_edge_graph():
    return Hypergraph.from_edges(n=6, r=3, edges=[(1, 2, 3), (4, 5, 6)], weights=[1.0, 1.5])


def test_criterion_9_small_p_selects_heavy_group(two_edge_graph):
    p = 4.0 / 3.0
    rep = rank_vertices(two_edge_graph, SolverConfig(p=p, runs=10, seed=90))
    top, rest = rep.entries[:3], rep.entries[3:]
    separation = min(v for _, v in top) / max(v for _, v in rest)
    ok = {i for i, _ in top} == {4, 5, 6} and separation >= 1e4
    report("criterion 9", ok,
           f"p=4/3: top-3 {sorted(i for i, _ in top)}, separation {separation:.1e}x")
    assert {i for i, _ in top} == {4, 5, 6}
    assert separation >= 1e4
    # cross-check the pattern against the independent estimator
    _, vec = brute_force_radius(two_edge_graph, p, budget=400, seed=9)
    assert set(np.argsort(-vec)[:3] + 1) == {4, 5, 6}
    assert np.sort(vec)[-3] >= 1e4 * np.sort(vec)[2]


def test_criterion_9_large_p_scores_individually(two_edge_graph):
    rep = rank_vertices(two_edge_graph, SolverConfig(p=16.0, runs=10, seed=91))
    vals = [v for _, v in rep.entries]
    spread = max(vals) / min(vals)
    report("criterion 9", spread <= 1.2, f"p=16: factor spread {spread:.3f} (within 20%)")
    assert spread <= 1.2
    _, vec = brute_force_radius(two_edge_graph, 16.0, budget=400, seed=9)
    assert float(vec.max() / vec.min()) <= 1.2
