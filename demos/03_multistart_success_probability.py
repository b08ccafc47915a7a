#!/usr/bin/env python3
"""Estimate how the probability of hitting the global optimum grows with the
number of random restarts, using the tetrahedron whose exact value is known.

Each experiment draws fresh starting points until the exact value is found and
records how many trials that took; the cumulative frequency over trial counts
approaches one.  Writes the curve to success_frequency.csv for plotting.

The curve follows the paper's signed law: a trial counts only when it reaches
the exact value without the solver's nonnegative finish (a move from a
sign-mixed critical point x to |x|).  With the finish, every first trial is
exact here; that frequency is printed next to the curve.
"""

import numpy as np

from hyperspec import SolverConfig, gen_complete, solve_single
from hyperspec.solver import random_unit_sphere

EXACT = 3.0
EXPERIMENTS = 200

g = gen_complete(4, 3)
cfg = SolverConfig(p=2.0)

counts = []
first_exact = []
for j in range(EXPERIMENTS):
    rng = np.random.default_rng(1000 + 7919 * j)
    trial = 0
    while True:
        trial += 1
        res = solve_single(g, cfg, random_unit_sphere(g.n, rng))
        exact = abs(res.lam - EXACT) / EXACT <= 1e-8
        if trial == 1:
            first_exact.append(exact)
        if exact and res.finishes == 0:
            break
    counts.append(trial)

counts = np.array(counts)
print(f"{EXPERIMENTS} experiments: per-run success rate ~ {1.0 / counts.mean():.2f}")
print(f"with the nonnegative finish, first trials exact: {np.mean(first_exact):.3f}")
print(f"trials needed: min {counts.min()}, median {int(np.median(counts))}, max {counts.max()}")
print()
print("trials  cumulative success frequency")
rows = []
for i in range(1, 41):
    nu = float((counts <= i).mean())
    rows.append((i, nu))
    if i <= 10 or i % 10 == 0:
        print(f"{i:>6}  {nu:.3f}")

with open("success_frequency.csv", "w", encoding="utf-8") as fh:
    fh.write("trials,frequency\n")
    fh.writelines(f"{i},{nu}\n" for i, nu in rows)
print("\nwrote success_frequency.csv")
