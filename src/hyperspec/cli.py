"""Command-line front end: solve, rank, lagrangian, gen and selftest subcommands.

All numeric work lives in the library modules; this file only parses flags,
loads graphs, and formats text/JSON/CSV output.  JSON output contains no
timing information, so identical inputs and seeds produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from collections import Counter
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np

from . import __version__
from .families import (
    beta_star_value,
    brute_force_radius,
    gen_beta_star,
    gen_complete,
    gen_loose_path,
    gen_random,
    loose_path_value,
)
from .hypergraph import Hypergraph, ParseError, parse_edge_list, serialize_edge_list
from .ranking import rank_vertices
from .solver import SolverConfig, SolverError, lagrangian_approx, solve_multistart
from .tensor_ops import objective, value_and_grad


def parse_p(text: str) -> float:
    """Accept a decimal ("1.5") or a fraction literal ("4/3")."""
    try:
        return float(Fraction(text))
    except (ValueError, ZeroDivisionError, OverflowError):
        raise argparse.ArgumentTypeError(f"cannot parse p value {text!r}") from None


def _load_graph(path: str) -> Hypergraph:
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:  # a BOM is skipped
            g = parse_edge_list(handle)
    except OSError as exc:
        raise SystemExit(f"error: cannot read {path}: {exc}")
    except (ParseError, UnicodeDecodeError) as exc:
        raise SystemExit(f"error: {path}: {exc}")
    return g


def _check_out(out: str | None) -> None:
    """Exit as :func:`_emit` would if ``out`` cannot be written, before any
    solve; an existing file is not truncated and a missing one not created."""
    parent = os.path.dirname(out or "") or "."
    try:
        if out and (os.path.exists(out) or not os.path.isdir(parent)):
            os.close(os.open(out, os.O_WRONLY))  # fails as open(out, "w") would
        elif out and not os.access(parent, os.W_OK | os.X_OK):
            raise PermissionError(f"directory {parent} is not writable")
    except OSError as exc:
        raise SystemExit(f"error: cannot write {out}: {exc}")


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise SystemExit(f"error: cannot write {out}: {exc}")
    else:
        sys.stdout.write(text)


def _write(args, record: dict, text: list[str], rows: list[dict] | None = None) -> None:
    """Write ``record`` as JSON (no NaN or infinity), ``rows`` as CSV (the row
    keys, then each row's values by ``repr``) or the ``text`` lines, as
    ``--format`` says, to ``--out`` or stdout."""
    if args.format == "json":
        lines = [json.dumps(record, allow_nan=False)]
    elif args.format == "csv":
        lines = [",".join(rows[0])] + [",".join(map(repr, row.values())) for row in rows]
    else:
        lines = text
    _emit("\n".join(lines) + "\n", getattr(args, "out", None))


def _make_config(args) -> SolverConfig:
    """A SolverConfig from the flags that are set; SolverConfig holds the defaults."""
    given = vars(args)
    return SolverConfig(**{f.name: given[f.name] for f in fields(SolverConfig) if f.name in given})


def cmd_solve(args) -> int:
    g = _load_graph(args.graph)
    cfg = _make_config(args)
    t0 = time.perf_counter()
    res = solve_multistart(g, cfg)
    wall = time.perf_counter() - t0
    total = {
        key: sum(getattr(run, key) for run in res.run_summaries)
        for key in ("iterations", "evals", "grad_evals", "increments", "restarts",
                    "support_steps", "finishes")
    }
    # the stop reasons in order of first appearance over the runs
    stops = Counter(run.stop_reason for run in res.run_summaries)
    runs = len(res.all_lambdas)
    payload = {"lambda": res.best.lam, "p": cfg.p, "r": g.r, "n": g.n, "m": g.m,
               "runs": runs, "best_run": res.best_run, "converged": res.best.converged,
               "upper": res.upper, "hits": res.hits, "maxima": res.maxima,
               "expected_maxima": res.expected_maxima, "stop": res.stop, "stops": dict(stops)}
    if args.emit_weighting:
        payload["weighting"] = res.best.weighting.tolist()
    if res.upper is None:
        bound = "none (p < r, or no grad_tol run at a weighting positive on every edge)"
    else:
        bound = f"lambda <= {res.upper!r} (gap {res.upper - res.best.lam:.1e})"
    _write(args, payload, [
        f"lambda      {res.best.lam!r}",
        f"bound       {bound}",
        f"p           {cfg.p:g}",
        f"graph       r={g.r} n={g.n} m={g.m}",
        f"runs        {runs} of {cfg.runs} (best run {res.best_run}, "
        f"{'converged' if res.best.converged else res.best.stop_reason}; "
        f"{res.stop or 'no early'} stop: hits {res.hits}, maxima {res.maxima}, expected maxima "
        f"{'none' if res.expected_maxima is None else format(res.expected_maxima, '.3g')})",
        f"stops       {', '.join(f'{reason} {count}' for reason, count in stops.items())}",
        f"iterations  {total['iterations']} total",
        f"kernel      {total['evals']} value passes, {total['grad_evals']} gradient passes",
        f"increments  {total['increments']} cancellation-free increment passes",
        f"restarts    {total['restarts']} second searches after a failed CG search",
        f"support     {total['support_steps']} support steps",
        f"finishes    {total['finishes']} moves from a sign-mixed converged x to |x|",
        f"time        {wall:.3f} s",
    ])
    return 0


def cmd_rank(args) -> int:
    g = _load_graph(args.graph)
    top = args.top if args.top is not None else min(10, g.n)
    report = rank_vertices(g, _make_config(args), top_k=top)
    rows = [{"rank": i + 1, "vertex": v, "impact_factor": val}
            for i, (v, val) in enumerate(report.entries)]
    text = [f"lambda {report.lam!r}  p {report.p:g}  runs {report.runs}"]
    text += ["{rank:>4}  vertex {vertex:<8} impact {impact_factor:.10f}".format(**row)
             for row in rows]
    _write(args, {"p": report.p, "lambda": report.lam, "runs": report.runs, "ranking": rows},
           text, rows)
    return 0


def cmd_lagrangian(args) -> int:
    g = _load_graph(args.graph)
    approx = lagrangian_approx(g, _make_config(args), steps=args.steps)
    rows = [{"theta": row.theta, "p": row.p, "lambda": row.lam, "normalized": row.normalized}
            for row in approx.rows]
    text = [f"{'theta':>5} {'p':>12} {'lambda':>20} {'lambda/r!':>20}"]
    text += ["{theta:>5} {p:>12.8f} {lambda:>20.12f} {normalized:>20.12f}".format(**row)
             for row in rows]
    text.append(f"estimate {approx.estimate!r}")
    _write(args, {"estimate": approx.estimate, "r_factorial": math.factorial(g.r),
                  "schedule": rows}, text, rows)
    return 0


# family -> (generator, its size flags in call order)
GENERATORS = {
    "beta-star": (gen_beta_star, ("r", "m")),
    "loose-path": (gen_loose_path, ("r", "m")),
    "complete": (gen_complete, ("n", "r")),
}
SIZE_HELP = {"n": "number of vertices", "r": "edge cardinality", "m": "number of edges"}


def cmd_gen(args) -> int:
    gen, size_flags = GENERATORS[args.family]
    _emit(serialize_edge_list(gen(*(getattr(args, flag) for flag in size_flags))), args.out)
    return 0


def _selftest_closed_forms(cfg: SolverConfig, cases: list) -> list:
    """Per (name, graph, p, closed form, tolerance): the best value's relative
    error and the share of runs that hit the closed form to 1e-8, None when
    the multistart stopped before cfg.runs runs, since a sequence cut by a
    stop rule samples no per-run success.  Then, per case at p >= r, a row
    "bracket <name>": how far, relative, the closed form lies outside
    [best lam, upper] (inf when no run gave a bound), to 1e-14."""
    report, brackets = [], []
    for name, g, p, ref, tol in cases:
        res = solve_multistart(g, replace(cfg, p=p))
        rel = np.abs(np.array(res.all_lambdas) - ref) / abs(ref)
        accuracy = None if rel.size < cfg.runs else float(np.mean(rel <= 1e-8))
        report.append((name, rel[res.best_run], tol, accuracy))
        if p >= g.r:
            upper = res.upper if res.upper is not None else -math.inf
            outside = max(res.best.lam - ref, ref - upper, 0.0) / ref
            brackets.append((f"bracket {name}", outside, 1e-14, None))
    return report + brackets


def _selftest_gradient_fd(cfg: SolverConfig) -> list:
    rng = np.random.default_rng(cfg.seed)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 11))
        r = int(rng.integers(2, min(n, 4) + 1))
        g = gen_random(rng, n, r, int(rng.integers(1, 6)))
        p = float(rng.choice([1.5, 2.0, 3.0, 8.0]))
        x = rng.uniform(0.2, 1.0, size=n) * rng.choice([-1.0, 1.0], size=n)
        x /= np.linalg.norm(x)
        _, grad = value_and_grad(g, x, p)
        h = 1e-6  # central differences along each unit vector
        fd = np.array([(objective(g, x + e, p) - objective(g, x - e, p)) / (2 * h)
                       for e in h * np.eye(n)])
        worst = max(worst, float(np.linalg.norm(grad - fd) / np.linalg.norm(grad)))
    return [("gradient-fd 100 probes", worst, 1e-6, None)]


def _selftest_brute_force(cfg: SolverConfig) -> list:
    rng = np.random.default_rng(cfg.seed)
    worst = 0.0
    for trial in range(5):
        n = int(rng.integers(4, 7))
        g = gen_random(rng, n, 3, int(rng.integers(2, 8)))
        for p in (2.0, 3.0):
            oracle, _ = brute_force_radius(g, p, budget=400, seed=trial)
            res = solve_multistart(g, replace(cfg, p=p, seed=cfg.seed + trial))
            worst = max(worst, abs(oracle - res.best.lam))
    return [("brute-force 5 graphs p=2,3", worst, 1e-4, None)]


# case -> its report rows (name, err, tol, accuracy or None), in report order
SELFTEST_CASES = {
    "closed-forms": lambda cfg: _selftest_closed_forms(cfg, [
        ("beta-star r=3 m=10 p=3", gen_beta_star(3, 10), 3.0, beta_star_value(3, 10, 3), 1e-8),
        ("beta-star r=3 m=10 p=5", gen_beta_star(3, 10), 5.0, beta_star_value(3, 10, 5), 1e-8),
        ("beta-star r=6 m=4 p=4", gen_beta_star(6, 4), 4.0, beta_star_value(6, 4, 4), 1e-8),
        ("beta-star r=3 m=10 p=2", gen_beta_star(3, 10), 2.0, beta_star_value(3, 10, 2), 1e-8),
        ("loose-path r=4 m=3 p=4", gen_loose_path(4, 3), 4.0, loose_path_value(4, 3), 1e-8),
        ("loose-path r=4 m=4 p=4", gen_loose_path(4, 4), 4.0, loose_path_value(4, 4), 1e-8),
    ]),
    "tetrahedron-z": lambda cfg: _selftest_closed_forms(
        cfg, [("tetrahedron-z p=2 vs 3.0", gen_complete(4, 3), 2.0, 3.0, 3e-8)]),
    "gradient-fd": _selftest_gradient_fd,
    "brute-force": _selftest_brute_force,
}


def cmd_selftest(args) -> int:
    cfg = _make_config(args)
    wanted = args.case or SELFTEST_CASES
    t0 = time.perf_counter()
    report = [row for case, run in SELFTEST_CASES.items() if case in wanted for row in run(cfg)]
    wall = time.perf_counter() - t0
    cases = [{"name": name, "err": float(err) if math.isfinite(err) else None, "tol": tol,
              "ok": bool(err <= tol), "accuracy": accuracy}  # a non-finite err fails
             for name, err, tol, accuracy in report]
    passed = sum(case["ok"] for case in cases)
    text = [f"{'PASS' if case['ok'] else 'FAIL'}  {name:<30} err={err:.3e}  tol={tol:.0e}"
            + (f"  accu={accuracy:.2f}" if accuracy is not None else "")
            for case, (name, err, tol, accuracy) in zip(cases, report)]
    text.append(f"{passed}/{len(cases)} cases passed in {wall:.1f} s")
    # the JSON record has no wall time, so its bytes are reproducible
    _write(args, {"cases": cases, "passed": passed, "total": len(cases)}, text)
    return 1 if passed < len(cases) else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperspec",
        description="p-spectral radii and p-optimal weightings of uniform hypergraphs",
    )
    parser.add_argument("--version", action="version", version=f"hyperspec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    unset = argparse.SUPPRESS  # an unset solver flag takes SolverConfig's default

    def add_solver_flags(sp, with_p=True, formats=("text", "json", "csv")):
        if with_p:
            sp.add_argument("--p", type=parse_p, required=True,
                            help="spectral parameter p > 1 (decimal or fraction like 4/3)")
        sp.add_argument("--runs", type=int, default=unset, help="number of multistart runs")
        sp.add_argument("--tol", type=float, dest="grad_tol", metavar="TOL", default=unset,
                        help="gradient-norm stop tolerance")
        sp.add_argument("--max-iter", type=int, default=unset, help="iteration cap per run")
        sp.add_argument("--seed", type=int, default=unset, help="base random seed")
        sp.add_argument("--format", choices=formats, default="text")
        sp.add_argument("--out", default=None, help="write output to a file instead of stdout")

    sp = sub.add_parser("solve", help="compute the p-spectral radius of a graph file")
    sp.add_argument("graph", help="edge-list file")
    add_solver_flags(sp, formats=("text", "json"))
    sp.add_argument("--emit-weighting", action="store_true",
                    help="include the weighting vector in JSON output")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("rank", help="rank vertices by impact factor")
    sp.add_argument("graph", help="edge-list file")
    add_solver_flags(sp)
    sp.add_argument("--top", type=int, default=None, help="report only the top K vertices")
    sp.set_defaults(runs=10, func=cmd_rank)

    sp = sub.add_parser("lagrangian", help="approximate the Lagrangian via p -> 1 schedule")
    sp.add_argument("graph", help="edge-list file")
    add_solver_flags(sp, with_p=False)
    sp.add_argument("--steps", type=int, default=10, help="schedule length")
    sp.set_defaults(p=2.0, grad_tol=1e-6, func=cmd_lagrangian)

    sp = sub.add_parser("gen", help="generate a structured hypergraph family")
    gen_sub = sp.add_subparsers(dest="family", required=True)
    for family, (_, size_flags) in GENERATORS.items():
        fp = gen_sub.add_parser(family)
        for flag in size_flags:
            fp.add_argument(f"--{flag}", type=int, required=True, help=SIZE_HELP[flag])
        fp.add_argument("--out", default=None)
        fp.set_defaults(func=cmd_gen)

    sp = sub.add_parser("selftest", help="run the oracle-vs-solver verification suite")
    sp.add_argument("--case", action="append", choices=SELFTEST_CASES,
                    help="restrict to one case (repeatable)")
    sp.add_argument("--runs", type=int, default=unset, help="multistart runs; none in gradient-fd")
    sp.add_argument("--seed", type=int, default=unset)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(p=2.0, func=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    _check_out(getattr(args, "out", None))  # before a long solve, not after it
    try:
        return args.func(args)
    except ValueError as exc:  # an invalid flag value, e.g. --p 1 or --top 0
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:  # every run failed numerically
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
