#!/usr/bin/env python3
"""Approximate the Lagrangian of complete 3-graphs by driving the spectral
parameter toward 1 along the schedule p = 1 + 1/(2*theta + 1).

The Lagrangian (the maximum of the weight polynomial over the probability
simplex) equals C(n, r) / n^r for complete graphs, so the quality of the
approximation is measurable exactly.
"""

from hyperspec import SolverConfig, complete_lagrangian, gen_complete, lagrangian_approx

for n in (4, 10):
    g = gen_complete(n, 3)
    exact = complete_lagrangian(n, 3)
    cfg = SolverConfig(p=2.0, runs=20, seed=0, grad_tol=1e-6)
    approx = lagrangian_approx(g, cfg, steps=10)

    print(f"complete 3-graph on {n} vertices: exact Lagrangian = {exact}")
    print(f"{'theta':>5} {'p':>10} {'lambda/r!':>14} {'error':>10}")
    for row in approx.rows:
        print(f"{row.theta:>5} {row.p:>10.6f} {row.normalized:>14.8f} "
              f"{abs(row.normalized - exact):>10.2e}")
    print(f"final estimate: {approx.estimate:.8f}\n")

print("note: the error shrinks like n^(-r/p) - n^(-r), which is O(1/theta);")
print("getting within 1e-2 of the simplex value needs theta well beyond 10")
print("for the 10-vertex graph.")
