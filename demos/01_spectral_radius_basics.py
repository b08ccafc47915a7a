#!/usr/bin/env python3
"""Compute p-spectral radii of small structured hypergraphs and compare them
with their known closed-form values.
"""

import numpy as np

from hyperspec import (
    SolverConfig,
    beta_star_value,
    gen_beta_star,
    gen_complete,
    gen_loose_path,
    loose_path_value,
    parse_edge_list,
    solve_multistart,
)

# ------------------------------------------------------------------
# a hypergraph can come from an edge-list string (vertices are 1-based,
# the header is "r n", weights are optional)
# ------------------------------------------------------------------
g1 = parse_edge_list("""
# two overlapping triples on four vertices
3 4
1 2 3
2 3 4
""")
print(f"g1: r={g1.r}, n={g1.n}, m={g1.m}")

def expected(res) -> str:
    """The posterior expected number of maxima, or none before it is finite."""
    return "none" if res.expected_maxima is None else f"{res.expected_maxima:.3g}"


def counts(res) -> str:
    """The runs made, the rule that ended them, and the statistical stop's
    counts: runs at the best value and distinct values among the converged
    runs."""
    return (f"{len(res.all_lambdas)} runs, {res.stop or 'no early'} stop, hits {res.hits}, "
            f"maxima {res.maxima}, expected maxima {expected(res)}")


# of 50 runs at most: the multistart stops once 8 converged runs agree on
# one value, since a further maximum is then unlikely
res = solve_multistart(g1, SolverConfig(p=2.0, runs=50, seed=0))
print(f"lambda^(2)(g1) = {res.best.lam:.12f}   ({counts(res)})")
print(f"weighting      = {np.round(res.best.weighting, 6)}")
print()

# ------------------------------------------------------------------
# families with closed forms: beta-stars, loose paths
# ------------------------------------------------------------------
cases = [
    ("beta-star  r=3 m=10  p=3", gen_beta_star(3, 10), 3.0, beta_star_value(3, 10, 3.0)),
    ("beta-star  r=6 m=4   p=4", gen_beta_star(6, 4), 4.0, beta_star_value(6, 4, 4.0)),
    ("loose path r=4 m=3   p=4", gen_loose_path(4, 3), 4.0, loose_path_value(4, 3)),
    ("loose path r=4 m=4   p=4", gen_loose_path(4, 4), 4.0, loose_path_value(4, 4)),
]
# at p >= r the multistart reads an upper bound off the weighting of each
# grad_tol run that is positive on every vertex of an edge; it stops once
# the bound proves the best value global (certified), and at any p once a
# further maximum is unlikely (estimate)
print(f"{'instance':<28} {'computed':>18} {'closed form':>18} {'rel err':>10} "
      f"{'upper bound':>18} {'runs':>5} {'stop':>9} {'hits':>4} {'maxima':>6} {'E[max]':>6}")
for name, g, p, ref in cases:
    res = solve_multistart(g, SolverConfig(p=p, runs=50, seed=1))
    rel = abs(res.best.lam - ref) / ref
    upper = f"{res.upper:>18.12f}" if res.upper is not None else f"{'none':>18}"
    print(f"{name:<28} {res.best.lam:>18.12f} {ref:>18.12f} {rel:>10.1e} "
          f"{upper} {len(res.all_lambdas):>5} {res.stop or 'none':>9} {res.hits:>4} "
          f"{res.maxima:>6} {expected(res):>6}")
print()

# ------------------------------------------------------------------
# the tetrahedron: lambda^(2) equals twice its largest Z-eigenvalue 3/2
# ------------------------------------------------------------------
tetra = gen_complete(4, 3)
res = solve_multistart(tetra, SolverConfig(p=2.0, runs=100, seed=2))
print(f"tetrahedron lambda^(2) = {res.best.lam:.12f}  (exact: 3)")
print(f"per-run values found: {sorted(set(round(v, 6) for v in res.all_lambdas))}  "
      f"({counts(res)})")
