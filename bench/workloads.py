"""The three benchmark workloads and the checks on their outputs.

A workload turns the seed into a ``Plan``: untimed inputs (files written
before any timing), a timed ``setup`` that obtains the graphs, timed
``calls`` into the public solve API, and a ``check`` of what the calls
returned.  The runner repeats set-up and calls on the same inputs.

The program's layers are always called through their module attributes
(``solver.solve_multistart``, ``hypergraph.parse_edge_list``, ...), so the
tracer's rebinding of those attributes takes effect.

Closed forms are written out here rather than taken from ``families``, so a
wrong value in the program cannot vouch for itself.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from hyperspec import families, hypergraph, ranking, solver
from hyperspec.solver import SolverConfig

import gen_graph

REL_TOL = 1e-8            # closed-form agreement, relative
RANK_P = 2.0
RANK_RUNS = 2
# graphs per run: a run's kernel evaluations vary by 18 % (coefficient of
# variation) with graph and start, so the sum over 24 runs varies by ~4 %
RANK_GRAPHS = 12
FAMILY_SETUP_REPEATS = 20  # family set-up takes milliseconds: time it many times
# ||grad f|| / |f| at a run's final iterate; converged runs of the seed
# stop near 1e-8, at the noise floor of the line search's value comparison
STATIONARITY_TOL = 1e-5


@dataclass
class Outcome:
    """What the checks found for one pass of a workload."""

    runs: int = 0
    successes: int = 0
    nonstationary: int = 0  # runs whose reported weighting |x| is not stationary
    checks: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(what)


@dataclass
class Plan:
    setup: Callable[[], list]                 # -> graphs
    calls: list[Callable[[list], object]]     # each graphs -> result
    check: Callable[[list, list], Outcome]    # graphs, results -> outcome
    setup_repeats: int = 1


def fingerprint(result) -> tuple:
    """Every value a result reports, for exact comparison across repeats."""
    if isinstance(result, tuple):
        return tuple(fingerprint(part) for part in result)
    if isinstance(result, np.ndarray):
        return (result.tobytes(),)
    if hasattr(result, "run_summaries"):
        return tuple((s.lam, s.iterations, s.stop_reason) for s in result.run_summaries)
    if hasattr(result, "rows"):
        return tuple(row.lam for row in result.rows)
    return (result.lam, result.entries)


# --- closed forms ---------------------------------------------------------


def beta_star_value(r: int, m: int, p: float) -> float:
    if p > r - 1:
        return math.factorial(r) * r ** (-r / p) * m ** (1.0 - (r - 1) / p)
    if p < r - 1:
        return math.factorial(r) * r ** (-r / p)
    return math.factorial(r - 1) * r ** (-1.0 / (r - 1))


def loose_path_value(r: int, m: int) -> float:
    """(r-1)! times the largest H-eigenvalue, for even r and m in {3, 4}."""
    h_eig = ((1.0 + math.sqrt(5.0)) / 2.0) ** (2.0 / r) if m == 3 else 3.0 ** (1.0 / r)
    return math.factorial(r - 1) * h_eig


def complete_value(n: int, r: int, p: float) -> float:
    """lambda^(p) of the complete r-graph: r! C(n,r) n^(-r/p), for every p >= 1.

    Maclaurin's inequality and the power-mean inequality put the maximum of
    the weight polynomial on the p-sphere at the uniform vector.
    """
    return math.factorial(r) * math.comb(n, r) * n ** (-r / p)


def _rel_err(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)


def _count_successes(out: Outcome, res, ref: float) -> None:
    lams = np.asarray(res.all_lambdas)
    out.runs += lams.size
    out.successes += int(np.sum(np.abs(lams - ref) <= REL_TOL * ref))


# --- multistart-small -----------------------------------------------------

SMALL_INSTANCES = [
    # (label, generator, args, p, closed form)
    ("beta-star(3,10)", "gen_beta_star", (3, 10), 3.0, beta_star_value(3, 10, 3.0)),
    ("beta-star(3,200)", "gen_beta_star", (3, 200), 3.0, beta_star_value(3, 200, 3.0)),
    ("loose-path(4,3)", "gen_loose_path", (4, 3), 4.0, loose_path_value(4, 3)),
    ("complete(4,3)", "gen_complete", (4, 3), 2.0, 3.0),
    ("complete(10,3)", "gen_complete", (10, 3), 2.0, complete_value(10, 3, 2.0)),
]
SMALL_RUNS = 100


def multistart_small(seed: int, workdir: str) -> Plan:
    def setup():
        return [getattr(families, gen)(*args) for _, gen, args, _, _ in SMALL_INSTANCES]

    def call(i, p):
        return lambda graphs: solver.solve_multistart(
            graphs[i], SolverConfig(p=p, runs=SMALL_RUNS, seed=seed)
        )

    def check(graphs, results):
        out = Outcome()
        for res, (label, _, _, _, ref) in zip(results, SMALL_INSTANCES):
            _count_successes(out, res, ref)
            err = _rel_err(res.best.lam, ref)
            out.check(err <= REL_TOL, f"{label}: best lambda rel err {err:.2e}")
        return out

    calls = [call(i, inst[3]) for i, inst in enumerate(SMALL_INSTANCES)]
    return Plan(setup, calls, check, setup_repeats=FAMILY_SETUP_REPEATS)


# --- tail-small-p ---------------------------------------------------------

TAIL_STAR = (6, 4, 4.0)     # r, m, p: p < r - 1, so runs end in sublinear tails
TAIL_STAR_RUNS = 40
# The beta-star runs start from the same points whatever the workload seed:
# a start decides whether its run stalls at max_iter (about 60 % do) or
# converges in about 50 iterations, and over random seeds that binomial
# count moved solve_s by 9 % (standard deviation).  The seed still draws the
# Lagrangian schedule's starts.
TAIL_STAR_SEED = 0
LAGRANGE_N, LAGRANGE_R = 10, 3
LAGRANGE_STEPS, LAGRANGE_RUNS, LAGRANGE_GRAD_TOL = 10, 20, 1e-6


def tail_small_p(seed: int, workdir: str) -> Plan:
    r, m, p = TAIL_STAR

    def setup():
        return [families.gen_beta_star(r, m), families.gen_complete(LAGRANGE_N, LAGRANGE_R)]

    def star(graphs):
        cfg = SolverConfig(p=p, runs=TAIL_STAR_RUNS, seed=TAIL_STAR_SEED)
        return solver.solve_multistart(graphs[0], cfg)

    def lagrangian(graphs):
        cfg = SolverConfig(p=2.0, runs=LAGRANGE_RUNS, seed=seed, grad_tol=LAGRANGE_GRAD_TOL)
        return solver.lagrangian_approx(graphs[1], cfg, steps=LAGRANGE_STEPS)

    def check(graphs, results):
        res, approx = results
        out = Outcome()
        ref = beta_star_value(r, m, p)
        _count_successes(out, res, ref)
        err = _rel_err(res.best.lam, ref)
        out.check(err <= REL_TOL, f"beta-star({r},{m}) p={p}: best rel err {err:.2e}")
        rfact = math.factorial(LAGRANGE_R)
        for row in approx.rows:
            row_ref = complete_value(LAGRANGE_N, LAGRANGE_R, row.p) / rfact
            err = _rel_err(row.normalized, row_ref)
            what = f"lagrangian row {row.theta} p={row.p:.4f}: rel err {err:.2e}"
            out.check(err <= REL_TOL, what)
        return out

    return Plan(setup, [star, lagrangian], check, setup_repeats=FAMILY_SETUP_REPEATS)


# --- rank-large -----------------------------------------------------------


def _canonical_edges(graph_seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The generated graph merged independently of the program: 0-based
    sorted slots of each distinct edge and its summed weight."""
    slots, weights = gen_graph.make_edges(graph_seed)
    uniq, inverse = np.unique(np.sort(slots, axis=1) - 1, axis=0, return_inverse=True)
    return uniq, np.bincount(inverse.ravel(), weights=weights)


def _objective_and_grad(slots, weights, n, x, p):
    """f(x) = r! w(x) / ||x||_p^r and its gradient."""
    r = slots.shape[1]
    cols = x[slots]
    w = float(weights @ np.prod(cols, axis=1))
    dw = np.zeros(n)
    for j in range(r):
        others = np.prod(np.delete(cols, j, axis=1), axis=1)
        dw += np.bincount(slots[:, j], weights=weights * others, minlength=n)
    pnorm_p = float(np.sum(np.abs(x) ** p))
    scale = math.factorial(r) / pnorm_p ** (r / p)
    d_norm = np.sign(x) * np.abs(x) ** (p - 1.0)
    return scale * w, scale * (dw - (r * w / pnorm_p) * d_norm)


def _stationarity(slots, weights, n, x, p) -> float:
    """||grad f|| / |f| at x.  f is 0-homogeneous, so its gradient is
    already tangent to the sphere."""
    lam, grad = _objective_and_grad(slots, weights, n, x, p)
    return float(np.linalg.norm(grad)) / abs(lam)


def _rank(g, seed):
    """rank_vertices, plus what it does not return: the multistart result
    and, per run, the final iterate x whose |x| the solver reports.

    Pass-through rebindings record them; they add a call per run and per
    line search, next to kernel calls of about 2 ms.
    """
    captured, finals, current = [], [], []
    multistart = ranking.solve_multistart
    single, search = solver.solve_single, solver.line_search_wolfe

    def capture(*args, **kwargs):
        captured.append(multistart(*args, **kwargs))
        return captured[-1]

    def run(g, cfg, x0, *args, **kwargs):
        current[:] = [x0 / np.linalg.norm(x0)]
        result = single(g, cfg, x0, *args, **kwargs)
        finals.append(current[0])
        return result

    def step(*args, **kwargs):
        result = search(*args, **kwargs)
        if result.ok:  # the solver moves to every accepted point
            current[0] = result.x
        return result

    ranking.solve_multistart, solver.solve_single = capture, run
    solver.line_search_wolfe = step
    try:
        report = ranking.rank_vertices(g, SolverConfig(p=RANK_P, runs=RANK_RUNS, seed=seed))
    finally:
        ranking.solve_multistart, solver.solve_single = multistart, single
        solver.line_search_wolfe = search
    return report, captured[0], tuple(finals)


def _check_ranking(out: Outcome, graph_seed: int, g, report, res, finals) -> None:
    slots, weights = _canonical_edges(graph_seed)
    n = gen_graph.N
    expected = (n, gen_graph.R, len(weights))
    out.check((g.n, g.r, g.m) == expected, f"parsed (n, r, m) {(g.n, g.r, g.m)} != {expected}")
    ids = np.array([v for v, _ in report.entries])
    impact = np.array([s for _, s in report.entries])
    out.check(np.array_equal(np.sort(ids), np.arange(1, n + 1)), "ranking lists every vertex once")
    order_ok = (np.diff(impact) < 0) | ((np.diff(impact) == 0) & (np.diff(ids) > 0))
    out.check(bool(np.all(order_ok)), "ranking nonincreasing, ties by ascending id")

    x = np.zeros(n)
    x[ids - 1] = impact
    lam, _ = _objective_and_grad(slots, weights, n, x, RANK_P)
    err = _rel_err(report.lam, lam)
    out.check(err <= 1e-9, f"reported lambda vs recomputed at the weighting: rel err {err:.2e}")
    # the solver documents its weighting as |x| of the best run's final iterate
    best = finals[res.best_run]
    out.check(np.array_equal(x, np.abs(best)), "weighting is |x| of the best run's final iterate")
    stat = _stationarity(slots, weights, n, best, RANK_P)
    out.check(stat <= STATIONARITY_TOL, f"stationarity at the final iterate: {stat:.2e}")
    uniform, _ = _objective_and_grad(slots, weights, n, np.full(n, n**-0.5), RANK_P)
    out.check(report.lam >= uniform, f"lambda {report.lam} below uniform-vector value {uniform}")
    # at a mixed-sign critical point x, |x| has a larger f and need not be
    # stationary: the run missed the nonnegative maximiser
    out.nonstationary += sum(
        _stationarity(slots, weights, n, np.abs(final), RANK_P) > STATIONARITY_TOL
        for final in finals
    )

    # no closed form: a run succeeds when it ends above the uniform vector
    lams = np.asarray(res.all_lambdas)
    out.runs += lams.size
    out.successes += int(np.sum(lams >= uniform))


def rank_large(seed: int, workdir: str) -> Plan:
    graph_seeds = [seed + 1000 * k for k in range(RANK_GRAPHS)]
    paths = [os.path.join(workdir, f"rank-large-{s}.txt") for s in graph_seeds]
    for path, s in zip(paths, graph_seeds):
        gen_graph.write_edge_list(path, s)

    def setup():
        graphs = []
        for path in paths:
            with open(path) as fh:
                graphs.append(hypergraph.parse_edge_list(fh))
        return graphs

    def call(k):
        return lambda graphs: _rank(graphs[k], graph_seeds[k])

    def check(graphs, results):
        out = Outcome()
        for s, g, (report, res, finals) in zip(graph_seeds, graphs, results):
            _check_ranking(out, s, g, report, res, finals)
        return out

    return Plan(setup, [call(k) for k in range(RANK_GRAPHS)], check)


WORKLOADS = {
    "multistart-small": multistart_small,
    "rank-large": rank_large,
    "tail-small-p": tail_small_p,
}
