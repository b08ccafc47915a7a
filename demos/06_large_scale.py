#!/usr/bin/env python3
"""A single run on a beta-star with 20001 vertices: the edge-based kernels keep
each iteration at O(n + m*r) time and memory, so large instances converge in
seconds.

The run has one converged stop: the gradient norm reaching grad_tol (1e-8).
Below a gradient norm of about 1e-6 the increase per step is smaller than the
rounding noise of float64 values of f (about 43 here), and the line search
certifies it by evaluating the increase directly instead of comparing two
values of f.  The trace shows how many of the iterations that takes after
the value already matches the closed form to 1e-12.
"""

import time

import numpy as np

from hyperspec import SolverConfig, beta_star_value, gen_beta_star, solve_single
from hyperspec.solver import random_unit_sphere

g = gen_beta_star(3, 10_000)
ref = beta_star_value(3, 10_000, 3.0).value
print(f"beta-star: n = {g.n}, m = {g.m}, closed form lambda = {ref:.12f}")

x0 = random_unit_sphere(g.n, np.random.default_rng(42))

t0 = time.perf_counter()
res = solve_single(g, SolverConfig(p=3.0), x0, track=True)
dt = time.perf_counter() - t0
rel = abs(res.lam - ref) / ref
print(f"\nrun: {res.iterations} iterations in {dt:.2f} s")
print(f"  lambda = {res.lam:.12f}  (rel err {rel:.1e})")
print(f"  stop: {res.stop_reason}, converged = {res.converged}, "
      f"final ||grad|| = {res.grad_norm:.1e}")

first = next((rec.k + 1 for rec in res.trace if abs(rec.f_next - ref) <= 1e-12), None)
print(f"\nvalue first within 1e-12 of the closed form after {first} iterations")
print(f"  {'ok ' if res.converged else 'BAD'} stopped at grad_tol")
print(f"  {'ok ' if rel <= 1e-8 else 'BAD'} lambda matches the closed form to 1e-8")
