"""hyperspec benchmark: run one workload from a seed, check its outputs and
print every metric with its unit.

    python3 bench/run.py --workload multistart-small --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
The seed fixes the inputs.  With ``--trace 0`` passes over those inputs (a
set-up and every timed call) repeat for about ``--seconds`` seconds and the
end-to-end metrics are printed.  With ``--trace 1`` two untraced and two
traced passes alternate and the per-layer metrics are printed.  Every pass
must return bit-identical results, and the traced passes identical counts.
The last line of standard output is the JSON result; details go to standard
error.  See bench/README.md.
"""

import os

# one BLAS thread, set before numpy loads: the benchmark measures the
# single-threaded path, and BLAS threads would only add scheduling noise
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import resource
import shutil
import statistics
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"

STOP_REASONS = ("grad_tol", "max_iter", "line_search_failure", "numerical_failure")


def _steady_allocator():
    """Fix glibc's heap-trim and mmap thresholds for this process.

    By default glibc gives the heap top back to the OS and maps large blocks
    afresh until its dynamic thresholds settle, so early kernel temporaries
    page-fault: the first pass of a process ran up to 1.4x slower than the
    rest.  With fixed thresholds every pass measures the steady state that
    later passes reached anyway.  Without glibc this does nothing.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt(-1, 1 << 30)   # M_TRIM_THRESHOLD
    mallopt(-3, 64 << 20)  # M_MMAP_THRESHOLD


def _use_checkout_package():
    """Put the checkout's own src/ first on the import path."""
    if not (SRC / "hyperspec" / "__init__.py").is_file():
        sys.exit(f"bench: no package at {SRC / 'hyperspec'}; run from a checkout root")
    sys.path.insert(0, str(SRC))


def src_lines() -> int:
    """Non-blank lines of the package source."""
    return sum(
        1
        for path in sorted((SRC / "hyperspec").rglob("*.py"))
        for line in path.read_text().splitlines()
        if line.strip()
    )


def metric(value, unit):
    return {"value": value, "unit": unit}


@dataclass
class Pass:
    """Wall-clock (start, end) of each set-up and each call of one pass, and
    what the calls returned."""

    setups: list[tuple[float, float]]
    calls: list[tuple[float, float]]
    fingerprint: tuple


def timed_pass(plan, setup_repeats: int):
    """Time ``setup_repeats`` set-ups, then every call once on the last
    set-up's graphs.  Returns the Pass, the graphs and the results."""
    from workloads import fingerprint

    setups = []
    for _ in range(setup_repeats):
        t0 = perf_counter()
        graphs = plan.setup()
        setups.append((t0, perf_counter()))
    calls, results = [], []
    for call in plan.calls:
        t0 = perf_counter()
        results.append(call(graphs))
        calls.append((t0, perf_counter()))
    return Pass(setups, calls, fingerprint(tuple(results))), graphs, results


def fastest_calls(pace, passes) -> float:
    """Sum over calls of each call's fastest pass, in reference seconds."""
    return sum(
        min(pace.seconds(*iv) for iv in intervals)
        for intervals in zip(*(p.calls for p in passes))
    )


def run_untraced(plan, seconds: float) -> tuple[dict, object, bool]:
    """Passes over the same inputs until about ``seconds`` have passed, and
    at least two.

    Each call keeps its fastest pass: the inputs are identical, so the
    spread between passes is host noise, which only ever adds time.
    """
    from pace import Pace

    with Pace() as pace:
        t0 = perf_counter()
        first, graphs, results = timed_pass(plan, plan.setup_repeats)
        # one pass's peak: later passes add allocator fragmentation that
        # depends on how many passes the host's speed allowed
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        outcome = plan.check(graphs, results)
        del graphs, results
        passes = [first]
        while True:
            elapsed = perf_counter() - t0
            if len(passes) >= 2 and elapsed + 0.5 * elapsed / len(passes) >= seconds:
                break
            passes.append(timed_pass(plan, plan.setup_repeats)[0])
    metrics = {
        "setup_s": metric(
            statistics.median(pace.seconds(*iv) for p in passes for iv in p.setups), "s"
        ),
        "solve_s": metric(fastest_calls(pace, passes), "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "success_rate": metric(outcome.successes / outcome.runs, "fraction"),
    }
    per_pass = [
        (sum(end - start for start, end in p.calls), sum(pace.seconds(*iv) for iv in p.calls))
        for p in passes
    ]
    print(
        f"bench: {len(passes)} passes; solve seconds per pass, wall (reference): "
        + ", ".join(f"{wall:.3f} ({ref:.3f})" for wall, ref in per_pass),
        file=sys.stderr,
    )
    return metrics, outcome, len({p.fingerprint for p in passes}) == 1


def layer_metrics(pace, spans, traced, outcome) -> tuple[dict, tuple]:
    """Per-layer metrics from one traced pass, plus the counts that must
    repeat exactly for the same seed.  Times are host-corrected."""
    from tracing import KERNEL, LAZY_ARRAYS, aggregate

    durations = [pace.seconds(t0, t1) for _, t0, t1, _, _ in spans]
    agg = aggregate(spans, durations)
    solve_s = sum(pace.seconds(*iv) for iv in traced.calls)

    def total(name, key="total_s"):
        return agg.get(name, {}).get(key, 0.0)

    kernel = [s for s in spans if s[0] == KERNEL]
    evals = len(kernel)
    busy = total(KERNEL)
    incidences = sum(n + m * r for *_, (n, m, r) in kernel)
    # computed, not measured: int64 slots and float64 weights, x and gradient
    kernel_bytes = sum(8 * (m * r + m + 2 * n) for *_, (n, m, r) in kernel)

    singles = [s for s in spans if s[0] == "solver.solve_single"]
    iterations = [info[0] for *_, info in singles]
    stops = Counter(info[1] for *_, info in singles)
    searches = [s for s in spans if s[0] == "solver.line_search_wolfe"]
    search_evals = sum(info[1] for *_, info in searches)
    # a restart is a second line search in the same iteration, which
    # solve_single makes only after the first one failed
    restarts = 0
    last_failed: dict[int, bool] = {}
    for _, _, _, parent, (ok, _) in searches:
        restarts += last_failed.get(parent, False)
        last_failed[parent] = not ok

    time_to_best = 0.0
    for idx, (name, t0, _, _, best_run) in enumerate(spans):
        if name == "solver.solve_multistart":
            runs = [s for s in singles if s[3] == idx]
            time_to_best += pace.seconds(t0, runs[best_run][2])

    # nested: parse_s includes from_edges_s, which includes validate_s
    parse_s = total("hypergraph.parse_edge_list")
    from_edges_s = total("hypergraph.from_edges")
    validate_s = total("hypergraph.validate")
    ingest_s = total("hypergraph.parse_edge_list", "self_s") + from_edges_s
    edge_counts = [info for name, *_, info in spans if name == "hypergraph.from_edges"]
    edges_read = sum(read for read, _ in edge_counts)
    merged = sum(kept for _, kept in edge_counts)
    steps = sum(iterations)

    m = {
        "tensor_ops.evals": metric(evals, "count"),
        "tensor_ops.busy_s": metric(busy, "s"),
        "tensor_ops.share": metric(busy / solve_s, "fraction"),
        "tensor_ops.us_per_eval": metric(1e6 * busy / max(evals, 1), "us"),
        "tensor_ops.ns_per_incidence": metric(1e9 * busy / max(incidences, 1), "ns"),
        "tensor_ops.bytes_per_eval_computed": metric(kernel_bytes / max(evals, 1), "bytes"),
        "solver.iterations": metric(steps, "count"),
        "solver.iters_per_run_p50": metric(statistics.median(iterations), "count"),
        "solver.iters_per_run_max": metric(max(iterations), "count"),
        "solver.evals_per_step": metric(search_evals / max(steps, 1), "evals/step"),
        "solver.linesearch_calls": metric(len(searches), "count"),
        "solver.restarts": metric(restarts, "count"),
        **{
            f"solver.stop.{reason}": metric(stops.get(reason, 0), "count")
            for reason in STOP_REASONS
        },
        "solver.stop.other": metric(
            sum(c for reason, c in stops.items() if reason not in STOP_REASONS), "count"
        ),
        "solver.linesearch_self_s": metric(total("solver.line_search_wolfe", "self_s"), "s"),
        "solver.cayley_calls": metric(int(total("solver.cayley_step", "calls")), "count"),
        "solver.cayley_s": metric(total("solver.cayley_step"), "s"),
        "solver.cg_direction_s": metric(total("solver.cg_direction"), "s"),
        "solver.overhead_s": metric(solve_s - busy, "s"),
        "solver.time_to_best_s": metric(time_to_best, "s"),
        "solver.runs_per_success": metric(outcome.runs / max(outcome.successes, 1), "runs"),
        "hypergraph.parse_s": metric(parse_s, "s"),
        "hypergraph.from_edges_s": metric(from_edges_s, "s"),
        "hypergraph.validate_s": metric(validate_s, "s"),
        "hypergraph.edges_read": metric(edges_read, "count"),
        "hypergraph.merge_ratio": metric(merged / max(edges_read, 1), "fraction"),
        "hypergraph.ns_per_edge": metric(1e9 * ingest_s / max(edges_read, 1), "ns"),
        "hypergraph.lazy_arrays_s": metric(total(LAZY_ARRAYS), "s"),
        "ranking.self_s": metric(total("ranking.rank_vertices", "self_s"), "s"),
        "ranking.nonstationary_runs": metric(outcome.nonstationary, "count"),
        "families.gen_s": metric(total("families.gen"), "s"),
    }
    counts = (evals, steps, tuple(sorted(stops.items())))
    return m, counts


def run_traced(plan) -> tuple[dict, object, bool]:
    """Untraced and traced passes, alternating, two of each, one set-up each.

    The first traced pass gives the per-layer metrics; the second must
    repeat its counts exactly.
    """
    from pace import Pace
    from tracing import Tracer

    untraced, traced, layers = [], [], []
    outcome = None
    with Pace() as pace:
        for _ in range(2):
            plain, graphs, results = timed_pass(plan, 1)
            if outcome is None:
                outcome = plan.check(graphs, results)
            del graphs, results
            untraced.append(plain)
            tracer = Tracer()
            with tracer.patched():
                traced.append(timed_pass(plan, 1)[0])
            layers.append((tracer.spans, traced[-1]))
    (metrics, counts), (_, counts_again) = (
        layer_metrics(pace, spans, p, outcome) for spans, p in layers
    )

    def total(passes):
        setup = min(pace.seconds(*p.setups[0]) for p in passes)
        return setup + fastest_calls(pace, passes)

    metrics["trace_overhead_frac"] = metric(total(traced) / total(untraced) - 1.0, "fraction")
    same = counts == counts_again and len({p.fingerprint for p in untraced + traced}) == 1
    return metrics, outcome, same


def main() -> int:
    ap = argparse.ArgumentParser(description="hyperspec benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        ap.error("need --seed >= 0 and --seconds > 0")

    _use_checkout_package()
    _steady_allocator()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    lines = src_lines()
    WORKDIR.mkdir(exist_ok=True)
    try:
        plan = WORKLOADS[args.workload](args.seed, str(WORKDIR))
        if args.trace:
            metrics, outcome, repeat_ok = run_traced(plan)
            metrics["repo.src_lines"] = metric(lines, "lines")
        else:
            metrics, outcome, repeat_ok = run_untraced(plan, args.seconds)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)

    attempted = outcome.checks + 1
    failures = list(outcome.failures)
    if not repeat_ok:
        failures.append("counts or results differ between passes over the same inputs")
    for failure in failures:
        print(f"bench: CHECK FAILED: {failure}", file=sys.stderr)
    if outcome.nonstationary:
        print(
            f"bench: {outcome.nonstationary} of {outcome.runs} runs report a weighting |x| "
            "that is not stationary (ranking.nonstationary_runs)",
            file=sys.stderr,
        )
    print(
        f"bench: {args.workload} seed {args.seed}: ops_failed_frac "
        f"{len(failures) / attempted:.4f} ({len(failures)}/{attempted}), "
        f"repo.src_lines {lines}",
        file=sys.stderr,
    )
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
