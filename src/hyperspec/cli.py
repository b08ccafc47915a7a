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
from fractions import Fraction

import numpy as np

from . import __version__
from .families import (
    beta_star_value,
    brute_force_radius,
    gen_beta_star,
    gen_complete,
    gen_loose_path,
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
        with open(path, "r", encoding="utf-8") as handle:
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


def _make_config(args, default_runs: int) -> SolverConfig:
    return SolverConfig(
        p=args.p,
        grad_tol=args.tol,
        max_iter=args.max_iter,
        runs=args.runs if args.runs is not None else default_runs,
        seed=args.seed,
    )


def cmd_solve(args) -> int:
    g = _load_graph(args.graph)
    cfg = _make_config(args, default_runs=100)
    t0 = time.perf_counter()
    res = solve_multistart(g, cfg)
    wall = time.perf_counter() - t0
    total = {
        key: sum(getattr(run, key) for run in res.run_summaries)
        for key in ("iterations", "evals", "grad_evals", "increments", "restarts",
                    "support_steps", "finishes")
    }

    payload = {
        "lambda": res.best.lam,
        "p": cfg.p,
        "r": g.r,
        "n": g.n,
        "m": g.m,
        "runs": cfg.runs,
        "best_run": res.best_run,
        "converged": res.best.converged,
    }
    if args.emit_weighting:
        payload["weighting"] = res.best.weighting.tolist()

    if args.format == "json":
        _emit(json.dumps(payload) + "\n", args.out)
    else:
        lines = [
            f"lambda      {res.best.lam!r}",
            f"p           {cfg.p:g}",
            f"graph       r={g.r} n={g.n} m={g.m}",
            f"runs        {cfg.runs} (best run {res.best_run}, "
            f"{'converged' if res.best.converged else res.best.stop_reason})",
            f"iterations  {total['iterations']} total",
            f"kernel      {total['evals']} value passes, {total['grad_evals']} gradient passes",
            f"increments  {total['increments']} cancellation-free increment passes",
            f"restarts    {total['restarts']} second searches after a failed CG search",
            f"support     {total['support_steps']} support steps",
            f"finishes    {total['finishes']} moves from a sign-mixed converged x to |x|",
            f"time        {wall:.3f} s",
        ]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_rank(args) -> int:
    g = _load_graph(args.graph)
    cfg = _make_config(args, default_runs=10)
    top = args.top if args.top is not None else min(10, g.n)
    report = rank_vertices(g, cfg, top_k=top)

    if args.format == "json":
        payload = {
            "p": report.p,
            "lambda": report.lam,
            "runs": report.runs,
            "ranking": [
                {"rank": i + 1, "vertex": v, "impact_factor": val}
                for i, (v, val) in enumerate(report.entries)
            ],
        }
        _emit(json.dumps(payload) + "\n", args.out)
    elif args.format == "csv":
        rows = ["rank,vertex,impact_factor"]
        rows += [f"{i + 1},{v},{val!r}" for i, (v, val) in enumerate(report.entries)]
        _emit("\n".join(rows) + "\n", args.out)
    else:
        lines = [f"lambda {report.lam!r}  p {report.p:g}  runs {report.runs}"]
        lines += [
            f"{i + 1:>4}  vertex {v:<8} impact {val:.10f}"
            for i, (v, val) in enumerate(report.entries)
        ]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_lagrangian(args) -> int:
    g = _load_graph(args.graph)
    cfg = _make_config(args, default_runs=100)
    approx = lagrangian_approx(g, cfg, steps=args.steps)

    if args.format == "json":
        payload = {
            "estimate": approx.estimate,
            "r_factorial": math.factorial(g.r),
            "schedule": [
                {"theta": row.theta, "p": row.p, "lambda": row.lam, "normalized": row.normalized}
                for row in approx.rows
            ],
        }
        _emit(json.dumps(payload) + "\n", args.out)
    elif args.format == "csv":
        rows = ["theta,p,lambda,normalized"]
        rows += [f"{r.theta},{r.p!r},{r.lam!r},{r.normalized!r}" for r in approx.rows]
        _emit("\n".join(rows) + "\n", args.out)
    else:
        lines = [f"{'theta':>5} {'p':>12} {'lambda':>20} {'lambda/r!':>20}"]
        for row in approx.rows:
            lines.append(f"{row.theta:>5} {row.p:>12.8f} {row.lam:>20.12f} {row.normalized:>20.12f}")
        lines.append(f"estimate {approx.estimate!r}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_gen(args) -> int:
    if args.family == "beta-star":
        g = gen_beta_star(args.r, args.m)
    elif args.family == "loose-path":
        g = gen_loose_path(args.r, args.m)
    else:
        g = gen_complete(args.n, args.r)
    _emit(serialize_edge_list(g), args.out)
    return 0


def _selftest_closed_forms(wanted: list | tuple, runs: int, seed: int, report: list) -> None:
    """Best value of each wanted case against its closed form, and the share
    of runs that hit the closed form to 1e-8."""
    cases = [
        # (case, name, graph, p, closed form, tolerance)
        ("closed-forms", "beta-star r=3 m=10 p=3", gen_beta_star(3, 10), 3.0,
         beta_star_value(3, 10, 3).value, 1e-8),
        ("closed-forms", "beta-star r=6 m=4 p=4", gen_beta_star(6, 4), 4.0,
         beta_star_value(6, 4, 4).value, 1e-8),
        ("closed-forms", "beta-star r=3 m=10 p=2", gen_beta_star(3, 10), 2.0,
         beta_star_value(3, 10, 2).value, 1e-8),
        ("closed-forms", "loose-path r=4 m=3 p=4", gen_loose_path(4, 3), 4.0,
         loose_path_value(4, 3).value, 1e-8),
        ("closed-forms", "loose-path r=4 m=4 p=4", gen_loose_path(4, 4), 4.0,
         loose_path_value(4, 4).value, 1e-8),
        ("tetrahedron-z", "tetrahedron-z p=2 vs 3.0", gen_complete(4, 3), 2.0, 3.0, 3e-8),
    ]
    for case, name, g, p, ref, tol in cases:
        if case in wanted:
            res = solve_multistart(g, SolverConfig(p=p, runs=runs, seed=seed))
            rel = np.abs(np.array(res.all_lambdas) - ref) / abs(ref)
            report.append((name, rel[res.best_run], tol, float(np.mean(rel <= 1e-8))))


def _random_edges(rng, n: int, r: int, m: int) -> tuple[list, list]:
    """m random edges of r distinct vertices of 1..n, weights in [0.5, 2)."""
    edges, weights = [], []
    for _ in range(m):
        edges.append(rng.choice(np.arange(1, n + 1), size=r, replace=False))
        weights.append(float(rng.uniform(0.5, 2.0)))
    return edges, weights


def _selftest_gradient_fd(seed: int, report: list) -> None:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 11))
        r = int(rng.integers(2, min(n, 4) + 1))
        edges, weights = _random_edges(rng, n, r, int(rng.integers(1, 6)))
        g = Hypergraph.from_edges(n=n, r=r, edges=edges, weights=weights)
        p = float(rng.choice([1.5, 2.0, 3.0, 8.0]))
        x = rng.uniform(0.2, 1.0, size=n) * rng.choice([-1.0, 1.0], size=n)
        x /= np.linalg.norm(x)
        _, grad = value_and_grad(g, x, p)
        h = 1e-6  # central differences along each unit vector
        fd = np.array([(objective(g, x + e, p) - objective(g, x - e, p)) / (2 * h)
                       for e in h * np.eye(n)])
        worst = max(worst, float(np.linalg.norm(grad - fd) / np.linalg.norm(grad)))
    report.append(("gradient-fd 100 probes", worst, 1e-6, None))


def _selftest_brute_force(seed: int, report: list) -> None:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for trial in range(5):
        n = int(rng.integers(4, 7))
        edges, weights = _random_edges(rng, n, 3, int(rng.integers(2, 8)))
        g = Hypergraph.from_edges(n=n, r=3, edges=edges, weights=weights)
        for p in (2.0, 3.0):
            oracle = brute_force_radius(g, p, budget=400, seed=trial)
            res = solve_multistart(g, SolverConfig(p=p, runs=40, seed=seed + trial))
            worst = max(worst, abs(oracle - res.best.lam))
    report.append(("brute-force 5 graphs p=2,3", worst, 1e-4, None))


SELFTEST_CASES = ("closed-forms", "tetrahedron-z", "gradient-fd", "brute-force")


def cmd_selftest(args) -> int:
    report: list[tuple[str, float, float, float | None]] = []
    wanted = args.case or SELFTEST_CASES
    t0 = time.perf_counter()
    _selftest_closed_forms(wanted, args.runs if args.runs is not None else 100, args.seed, report)
    if "gradient-fd" in wanted:
        _selftest_gradient_fd(args.seed, report)
    if "brute-force" in wanted:
        _selftest_brute_force(args.seed, report)
    wall = time.perf_counter() - t0

    cases = []
    for name, err, tol, accuracy in report:
        ok = bool(err <= tol)  # a non-finite err fails
        cases.append({"name": name, "err": float(err) if math.isfinite(err) else None,
                      "tol": tol, "ok": ok, "accuracy": accuracy})
        if args.format == "text":
            accu = f"  accu={accuracy:.2f}" if accuracy is not None else ""
            print(f"{'PASS' if ok else 'FAIL'}  {name:<28} err={err:.3e}  tol={tol:.0e}{accu}")
    passed = sum(case["ok"] for case in cases)
    if args.format == "json":  # no wall time, so the bytes are reproducible
        print(json.dumps({"cases": cases, "passed": passed, "total": len(cases)},
                         allow_nan=False))
    else:
        print(f"{passed}/{len(cases)} cases passed in {wall:.1f} s")
    return 1 if passed < len(cases) else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperspec",
        description="p-spectral radii and p-optimal weightings of uniform hypergraphs",
    )
    parser.add_argument("--version", action="version", version=f"hyperspec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_solver_flags(sp, with_p=True, formats=("text", "json", "csv")):
        if with_p:
            sp.add_argument("--p", type=parse_p, required=True,
                            help="spectral parameter p > 1 (decimal or fraction like 4/3)")
        sp.add_argument("--runs", type=int, default=None, help="number of multistart runs")
        sp.add_argument("--tol", type=float, default=1e-8, help="gradient-norm stop tolerance")
        sp.add_argument("--max-iter", type=int, default=1000, help="iteration cap per run")
        sp.add_argument("--seed", type=int, default=0, help="base random seed")
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
    sp.set_defaults(func=cmd_rank)

    sp = sub.add_parser("lagrangian", help="approximate the Lagrangian via p -> 1 schedule")
    sp.add_argument("graph", help="edge-list file")
    add_solver_flags(sp, with_p=False)
    sp.add_argument("--steps", type=int, default=10, help="schedule length")
    sp.set_defaults(p=2.0, tol=1e-6, func=cmd_lagrangian)

    sp = sub.add_parser("gen", help="generate a structured hypergraph family")
    gen_sub = sp.add_subparsers(dest="family", required=True)
    for family in ("beta-star", "loose-path"):
        fp = gen_sub.add_parser(family)
        fp.add_argument("--r", type=int, required=True, help="edge cardinality")
        fp.add_argument("--m", type=int, required=True, help="number of edges")
        fp.add_argument("--out", default=None)
        fp.set_defaults(func=cmd_gen, family=family)
    fp = gen_sub.add_parser("complete")
    fp.add_argument("--n", type=int, required=True, help="number of vertices")
    fp.add_argument("--r", type=int, required=True, help="edge cardinality")
    fp.add_argument("--out", default=None)
    fp.set_defaults(func=cmd_gen, family="complete")

    sp = sub.add_parser("selftest", help="run the oracle-vs-solver verification suite")
    sp.add_argument("--case", action="append", choices=SELFTEST_CASES,
                    help="restrict to one case (repeatable)")
    sp.add_argument("--runs", type=int, default=None, help="multistart runs per case")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(func=cmd_selftest)

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
