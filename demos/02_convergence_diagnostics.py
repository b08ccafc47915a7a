#!/usr/bin/env python3
"""Track one solver run and verify the runtime guarantees of the iteration:
sufficient ascent, bounded directions, both Wolfe inequalities, the closed-form
step length, and monotone objective values.  Near stationarity the certified
increase of a step can be smaller than half a float64 spacing of f, so the
recorded value may stay equal; it must rise whenever the Wolfe increase
threshold f + C1 * alpha * ascent is representable above f.
"""

import numpy as np

from hyperspec import SolverConfig, gen_beta_star, solve_single
from hyperspec.solver import ASCENT_COEFF, C1, C2, DIRECTION_BOUND, random_unit_sphere

g = gen_beta_star(3, 10)
cfg = SolverConfig(p=3.0, seed=0)
x0 = random_unit_sphere(g.n, np.random.default_rng(0))
res = solve_single(g, cfg, x0, track=True)

print(f"stop: {res.stop_reason} after {res.iterations} iterations, lambda = {res.lam:.12f}")
print()
print(f"{'k':>4} {'f':>18} {'||grad||':>12} {'alpha':>12} {'step':>12} {'evals':>6}")
for rec in res.trace[:8] + res.trace[-3:]:
    print(f"{rec.k:>4} {rec.f:>18.12f} {rec.gnorm:>12.3e} {rec.alpha:>12.4e} "
          f"{rec.step_norm:>12.3e} {rec.evals:>6}")
print()

# every accepted step satisfies the guarantees the iteration is built on
# ASCENT_COEFF = 1 - 1/(4 tau), DIRECTION_BOUND = 1 + 1/eps + tau/eps^2
checks = {
    "unit-norm drift <= 1e-12": all(r.drift <= 1e-12 for r in res.trace),
    "sufficient ascent":        all(r.ascent >= ASCENT_COEFF * r.gnorm**2 * (1 - 1e-12)
                                    for r in res.trace),
    "bounded direction":        all(r.dir_norm <= DIRECTION_BOUND * r.gnorm for r in res.trace),
    "Wolfe increase":           all(r.f_next >= r.f + C1 * r.alpha * r.ascent for r in res.trace),
    "Wolfe curvature":          all(r.curv_next <= C2 * r.ascent for r in res.trace),
    "step length closed form":  all(abs(r.step_norm - r.step_pred) <= 1e-10 for r in res.trace),
    "f nondecreasing":          all(r.f_next >= r.f for r in res.trace),
    "f rises above resolution": all(r.f_next > r.f for r in res.trace
                                    if r.f + C1 * r.alpha * r.ascent != r.f),
}
for name, ok in checks.items():
    print(f"  {'ok ' if ok else 'BAD'} {name}")
