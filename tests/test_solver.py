import math
import os
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperspec
from hyperspec import (
    Hypergraph,
    SolverConfig,
    SolverError,
    beta_star_value,
    brute_force_radius,
    cayley_step,
    cg_direction,
    gen_beta_star,
    gen_complete,
    gen_loose_path,
    lagrangian_approx,
    lagrangian_schedule,
    loose_path_value,
    objective,
    random_unit_sphere,
    rank_vertices,
    solve_multistart,
    solve_single,
)
from hyperspec import solver
from hyperspec.solver import cayley_step_length, line_search_wolfe
from hyperspec.tensor_ops import value_and_grad

from conftest import (
    disjoint_union, evaluated, make_random_graph, record_starts, replay_runs, run_upper,
    stop_run)
from test_metamorphic import GRAPHS, padded


def draw(n, seed):
    return random_unit_sphere(n, np.random.default_rng(seed))


def solo_runs(g, cfg, track=False, orthant=False):
    """Each run of ``solve_multistart(g, cfg, track, orthant=orthant)`` as its
    solo run: solve_single from the same start with no known maxima, so that
    every run goes on to its own stop."""
    starts = (draw(g.n, cfg.seed + i) for i in range(cfg.runs))
    return [solve_single(g, cfg, np.abs(x0) if orthant else x0, track) for x0 in starts]


def face_step(g, x, p, grad_tol):
    """The penalty-dominated entries Z of unit x and the Cayley parameter
    alpha* = 2 / (sqrt(1 - s) (1 + sqrt(1 - s))), s = ||x_Z||^2, that zeroes
    them, from the kernel record of x."""
    point = evaluated(g, x, p)
    axr, grad = point.axr, point.grad
    pow_x = np.abs(x) ** p
    pnorm_p = float(pow_x.sum())
    penalty = math.factorial(g.r) / pnorm_p ** (g.r / p) * axr / pnorm_p
    face = (x * grad <= (solver.KAPPA - 1.0) * penalty * pow_x) & (np.abs(grad) > grad_tol)
    root = math.sqrt(1.0 - float(x[face] @ x[face]))
    return face, 2.0 / (root * (1.0 + root))


class TestConfig:
    def test_defaults_valid(self):
        SolverConfig(p=3.0)
        names = [f.name for f in fields(SolverConfig)]
        assert names == ["p", "grad_tol", "max_iter", "runs", "seed"]

    def test_method_constants_in_range(self):
        assert 0.0 < solver.C1 < solver.C2 < 1.0
        assert 0.25 < solver.TAU < 1.0
        assert solver.EPS > 0.0
        assert solver.MAX_LINESEARCH_STEPS >= 1
        assert solver.ASCENT_COEFF == 1.0 - 1.0 / (4.0 * solver.TAU)
        assert solver.DIRECTION_BOUND == 1.0 + 1.0 / solver.EPS + solver.TAU / solver.EPS**2

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"p": 1.0},
            {"p": 0.5},
            {"p": float("nan")},
            {"p": 2.0, "grad_tol": -1e-8},
            {"p": 2.0, "grad_tol": float("nan")},
            {"p": float("inf")},
            {"p": 2.0, "grad_tol": float("inf")},
            {"p": 2.0, "max_iter": -1},
            {"p": 2.0, "runs": -1},
            {"p": 2.0, "grad_tol": 0.0},
            {"p": 2.0, "max_iter": 0},
            {"p": 2.0, "runs": 0},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    @pytest.mark.parametrize(
        "field, value",
        [("runs", 2.5), ("max_iter", 10.5), ("runs", "2"), ("seed", -1), ("seed", 1.5)],
    )
    def test_non_integral_counts_rejected(self, field, value):
        # a float runs would fail later in range(), and a negative seed in numpy
        with pytest.raises(ValueError, match=f"integer {field} >= "):
            SolverConfig(p=2.0, **{field: value})

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: SolverConfig(p=2.0, runs=True), "need integer runs >= 1, got runs=True"),
            (lambda: SolverConfig(p=2.0, max_iter=True),
             "need integer max_iter >= 1, got max_iter=True"),
            (lambda: SolverConfig(p=2.0, seed=False), "need integer seed >= 0, got seed=False"),
            (lambda: rank_vertices(gen_complete(4, 3), SolverConfig(p=2.0), top_k=True),
             r"need integer top_k in \[1, 4\], got top_k=True"),
            (lambda: lagrangian_approx(gen_complete(4, 3), SolverConfig(p=2.0), steps=True),
             "need integer steps >= 1, got steps=True"),
            (lambda: brute_force_radius(gen_complete(4, 3), 2.0, budget=True),
             "need integer budget >= 1, got budget=True"),
        ],
        ids=["runs", "max_iter", "seed", "top_k", "steps", "budget"],
    )
    def test_bool_is_not_a_count(self, call, message):
        # bool is an int subclass, and True would pass as the count 1
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()


class TestRandomUnitSphere:
    def test_unit_norm(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 5, 50):
            x = random_unit_sphere(n, rng)
            assert abs(np.linalg.norm(x) - 1.0) <= 1e-14

    def test_one_dimensional(self):
        rng = np.random.default_rng(3)
        assert random_unit_sphere(1, rng)[0] in (1.0, -1.0)

    def test_seeded_determinism(self):
        a = random_unit_sphere(8, np.random.default_rng(7))
        b = random_unit_sphere(8, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError):
            random_unit_sphere(0, np.random.default_rng(0))


class TestCgDirection:
    def test_no_history_returns_gradient(self):
        g = np.array([1.0, 2.0])
        assert np.array_equal(cg_direction(g, None, None), g)

    def test_degenerate_overlap_returns_gradient(self):
        assert solver.EPS == 1e-6
        g = np.array([1.0, 0.0])
        d = np.array([1.0, 0.0])
        y = np.array([1e-8, 1.0])  # |d.y| = 1e-8 < eps * ||d|| * ||y||
        assert np.array_equal(cg_direction(g, d, y), g)

    def test_hand_computed_case(self):
        # tau * d * ||y||^2 / (d.y) - y = (0, -1/2); dotted with g = (1, 0) gives 0
        assert solver.TAU == 0.5
        g = np.array([1.0, 0.0])
        d = np.array([0.0, 1.0])
        y = np.array([0.0, 1.0])
        assert np.array_equal(cg_direction(g, d, y), g)

    def test_guaranteed_bounds_on_random_inputs(self):
        rng = np.random.default_rng(1)
        floor = solver.ASCENT_COEFF
        cap = solver.DIRECTION_BOUND
        for _ in range(200):
            n = int(rng.integers(2, 8))
            g = rng.standard_normal(n)
            d = rng.standard_normal(n)
            y = rng.standard_normal(n)
            p = cg_direction(g, d, y)
            gnorm_sq = float(g @ g)
            assert float(p @ g) >= floor * gnorm_sq * (1.0 - 1e-12)
            assert np.linalg.norm(p) <= cap * math.sqrt(gnorm_sq) * (1.0 + 1e-12)


class TestCayleyStep:
    def test_zero_alpha_is_identity(self):
        x = np.array([0.6, 0.8])
        out = cayley_step(x, np.array([1.0, -2.0]), 0.0)
        assert out == pytest.approx(x, abs=1e-15)

    def test_direction_parallel_to_x_is_fixed_point(self):
        x = np.array([0.6, 0.8])
        for alpha in (0.1, 1.0, 10.0):
            out = cayley_step(x, x.copy(), alpha)
            assert out == pytest.approx(x, abs=1e-14)

    def test_quarter_turn(self):
        x = np.array([1.0, 0.0])
        d = np.array([0.0, 1.0])
        out = cayley_step(x, d, 2.0)
        assert out == pytest.approx([0.0, 1.0], abs=1e-15)
        assert cayley_step_length(x, d, 2.0) == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_degenerate_denominator_rejected(self):
        # only reachable through misuse: the curve is defined for unit x
        with pytest.raises(ArithmeticError):
            cayley_step(np.array([3.0, 0.0]), np.array([1.0, 0.0]), 1.0)

    def test_stays_on_sphere_and_length_identity(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(2, 10))
            x = rng.standard_normal(n)
            x /= np.linalg.norm(x)
            d = rng.standard_normal(n) * rng.uniform(0.1, 5.0)
            alpha = float(rng.uniform(0.0, 3.0))
            out = cayley_step(x, d, alpha)
            assert abs(np.linalg.norm(out) - 1.0) <= 1e-14
            assert abs(np.linalg.norm(out - x) - cayley_step_length(x, d, alpha)) <= 1e-10

    def test_matches_divide_then_renormalize(self):
        # cayley_step never divides by the denominator; written out here is
        # the form that does, then renormalizes.  d's part along x is at most
        # its tangent part, as for the solver's directions: for d nearly
        # parallel to x the curve is ill-conditioned in x . d and d . d.
        rng = np.random.default_rng(12)
        negative = 0
        for _ in range(500):
            n = int(rng.integers(2, 40))
            x = rng.standard_normal(n)
            x /= np.linalg.norm(x)
            t = rng.standard_normal(n)
            t -= (x @ t) * x
            d = (t + rng.uniform(-1.0, 1.0) * np.linalg.norm(t) * x) * rng.uniform(0.1, 5.0)
            alpha = float(10.0 ** rng.uniform(-3.0, 2.0))
            scaled = alpha * d
            overlap, sq = float(x @ scaled), float(scaled @ scaled)
            y = ((2.0 - overlap) ** 2 - sq) * x + 4.0 * scaled
            y /= 4.0 + sq - overlap * overlap
            y /= np.linalg.norm(y)
            negative += (2.0 - overlap) ** 2 < sq
            assert np.abs(cayley_step(x, d, alpha) - y).max() <= 4.0 * np.finfo(float).eps
        assert negative >= 100  # draws where the coefficient of x is negative


class TestLineSearch:
    def test_wolfe_conditions_hold_on_single_edge(self):
        g = Hypergraph.from_edges(n=2, r=2, edges=[(1, 2)])
        point = evaluated(g, np.array([0.6, 0.8]), 2.0)
        f0, grad0 = point.f, point.grad
        res = line_search_wolfe(g, point, grad0.copy())
        assert res.ok and res.alpha > 0
        slope0 = float(grad0 @ grad0)
        assert res.point.f >= f0 + solver.C1 * res.alpha * slope0
        assert float(res.point.grad @ grad0) <= solver.C2 * slope0
        # returned iterate/gradient are consistent with the accepted point
        f_check, g_check = value_and_grad(g, res.x, 2.0)
        assert res.point.f == f_check
        assert np.array_equal(res.point.grad, g_check)

    def test_accepts_initial_trial_in_one_evaluation(self):
        g = gen_beta_star(3, 10)
        rng = np.random.default_rng(0)
        point = evaluated(g, random_unit_sphere(g.n, rng), 3.0)
        res = line_search_wolfe(g, point, point.grad.copy())
        assert res.ok and res.evals == 1

    @staticmethod
    def _search_setup(seed):
        g = gen_beta_star(3, 10)
        point = evaluated(g, random_unit_sphere(g.n, np.random.default_rng(seed)), 3.0)
        return g, point, point.grad

    @staticmethod
    def _same(a, b):
        f = [res.point and res.point.f for res in (a, b)]  # None for a failed search
        return (a.ok, a.alpha, f[0], a.evals) == (b.ok, b.alpha, f[1], b.evals) and all(
            (u is None and v is None) or u.tobytes() == v.tobytes()
            for u, v in ((a.x, b.x), (a.point and a.point.grad, b.point and b.point.grad))
        )

    @staticmethod
    def _record_trials(monkeypatch):
        trials = []
        real = solver.cayley_step

        def recorded(x, direction, alpha, *curve):
            trials.append(alpha)
            return real(x, direction, alpha, *curve)

        monkeypatch.setattr(solver, "cayley_step", recorded)
        return trials

    def test_trial_none_is_the_default(self):
        for seed in range(5):
            g, point, grad0 = self._search_setup(seed)
            for direction in (grad0.copy(), grad0 + 0.3 * np.roll(grad0, 1)):
                plain = line_search_wolfe(g, point, direction)
                assert self._same(plain, line_search_wolfe(g, point, direction, None))
                keyword = line_search_wolfe(g, point, direction, trial=None)
                assert self._same(plain, keyword)

    def test_first_point_is_the_given_trial(self, monkeypatch):
        g, point, grad0 = self._search_setup(1)
        trials = self._record_trials(monkeypatch)
        for trial in (0.37, 1e-3, 5.0):
            trials.clear()
            res = line_search_wolfe(g, point, grad0.copy(), trial)
            assert trials[0] == trial
            assert res.evals == len(trials)

    @pytest.mark.parametrize("trial", [0.0, -1.0, math.nan, math.inf])
    def test_unusable_trial_falls_back_to_default(self, monkeypatch, trial):
        g, point, grad0 = self._search_setup(2)
        direction = grad0.copy()
        trials = self._record_trials(monkeypatch)
        res = line_search_wolfe(g, point, direction, trial)
        assert trials[0] == 2.0 / (1.0 + float(np.linalg.norm(direction)))
        assert self._same(res, line_search_wolfe(g, point, direction))

    def test_search_ends_at_exact_fixed_point(self, monkeypatch):
        # The curve is flat past alpha = 1 while still rising with the
        # curvature test unmet at 1, so the bracket shrinks onto [1, 1 + ulp]
        # and interpolation returns 1 again: a repeat of that trial would
        # repeat its evaluation and bracket update unchanged.
        g, point, grad0 = self._search_setup(0)
        trials = []
        real = solver.cayley_step

        def flat_past_one(x, direction, alpha, *curve):
            trials.append(alpha)
            return real(x, direction, alpha, *curve) if alpha <= 1.0 else x.copy()

        monkeypatch.setattr(solver, "cayley_step", flat_past_one)
        res = line_search_wolfe(g, point, 1e-3 * grad0, trial=1.0)
        assert not res.ok and res.x is None and res.point is None
        assert trials[0] == trials[-1] == 1.0
        assert all(a != b for a, b in zip(trials, trials[1:]))
        assert res.evals == len(trials) < solver.MAX_LINESEARCH_STEPS

    def test_search_ends_when_slope_sign_is_noise(self, monkeypatch):
        # From the third trial gradient on, add eta * x_t: grad(x_t) . x_t
        # is then eta instead of 0, which swamps -grad(x_t) . x (the slope
        # the bracket reads) while grad(x_t) . (x_t - x) keeps its sign.
        g, base, grad0 = self._search_setup(4)
        x = base.x
        direction = grad0.copy()
        slope0 = float(grad0 @ direction)
        points = []
        real_step, real_grad = solver.cayley_step, solver._gradient

        def step(x, direction, alpha, *curve):
            points.append(real_step(x, direction, alpha, *curve))
            return points[-1]

        seen = []  # (trial index, curvature test met, slope forms disagree)

        def noisy(g, point):
            grad_t = real_grad(g, point)
            i = next(i for i, x_t in enumerate(points) if x_t is point.x)
            if len(seen) >= 2:
                grad_t = grad_t + 10.0 * slope0 * point.x
            stable = float(grad_t @ (point.x - x))
            seen.append((i, float(grad_t @ direction) <= solver.C2 * slope0,
                         (-float(grad_t @ x) > 0.0) != (stable > 0.0)))
            return grad_t

        monkeypatch.setattr(solver, "cayley_step", step)
        monkeypatch.setattr(solver, "_gradient", noisy)
        res = line_search_wolfe(g, base, direction, trial=1e-3)
        assert not res.ok and res.x is None and res.point is None
        first = next(i for i, met, disagree in seen if not met and disagree)
        assert first == seen[-1][0] == 2
        assert not any(met or disagree for _, met, disagree in seen[:-1])
        assert res.evals == first + 1 == len(points)

    @pytest.mark.parametrize("bad, keep", [(math.inf, False), (math.nan, False), (-math.inf, True)])
    def test_rejects_trial_with_non_finite_gradient(self, monkeypatch, bad, keep):
        # the bad entry sits where the direction is 0, so only inf * 0 = nan
        # (or nan itself) carries it into grad . direction; or where the
        # direction is positive, so that grad . direction = -inf would meet
        # the curvature test
        g, point, grad0 = self._search_setup(0)
        i = int(np.argmax(grad0))
        direction = grad0.copy()
        if not keep:
            direction[i] = 0.0
        assert line_search_wolfe(g, point, direction).ok
        real = solver._gradient

        def poisoned(g, point):
            grad_t = real(g, point)
            grad_t[i] = bad
            return grad_t

        monkeypatch.setattr(solver, "_gradient", poisoned)
        with np.errstate(invalid="ignore"):
            res = line_search_wolfe(g, point, direction)
        assert res.grad_evals > 0  # trials passed the increase test
        assert not res.ok and res.x is None and res.point is None

    def test_gradient_only_for_trials_that_pass_the_increase_test(self, monkeypatch):
        g, point, grad0 = self._search_setup(3)
        x, f0 = point.x, point.f
        direction = grad0.copy()
        slope0 = float(grad0 @ direction)
        step = solver.cayley_step
        trials = self._record_trials(monkeypatch)
        grads = []
        real = solver._gradient

        def counted(g, point):
            grads.append(point.x)
            return real(g, point)

        monkeypatch.setattr(solver, "_gradient", counted)
        # the first trial overshoots the peak of the curve section
        res = line_search_wolfe(g, point, direction, trial=50.0)
        assert res.ok and res.evals == len(trials) > 1
        passed = [
            alpha for alpha in trials
            if objective(g, step(x, direction, alpha), 3.0)
            >= f0 + solver.C1 * alpha * slope0
        ]
        assert trials[0] not in passed
        assert len(grads) == len(passed) == res.grad_evals
        assert grads[-1] is res.x and res.point.x is res.x

    def test_sub_resolution_search_makes_no_pass_at_its_base(self, monkeypatch):
        # near the maximizer every trial's increase is below f's float64
        # spacing and is read off the base record by _increment: the kernel
        # passes are the trials' own, and none evaluates the base point again
        g = gen_beta_star(3, 10)
        cfg = SolverConfig(p=3.0)
        base = evaluated(g, solve_single(g, cfg, draw(g.n, 0)).weighting, 3.0)
        values, grads = [], []
        real_value, real_gradient = solver._value, solver._gradient

        def value(g, x, p):
            values.append(x)
            return real_value(g, x, p)

        def gradient(g, point):
            grads.append(point)
            grad = real_gradient(g, point)
            assert grad is point.grad
            return grad

        monkeypatch.setattr(solver, "_value", value)
        monkeypatch.setattr(solver, "_gradient", gradient)
        for direction in (base.grad.copy(), base.grad + 0.3 * np.roll(base.grad, 1)):
            values.clear()
            grads.clear()
            res = line_search_wolfe(g, base, direction)
            assert res.increments == res.evals == len(values) > 0
            assert res.grad_evals == len(grads) > 0
            assert all(x is not base.x for x in values)
            assert all(point is not base for point in grads)

    def test_carried_record_changes_nothing(self, monkeypatch):
        # beta-star(3,10) from start 0 ends below f's float64 resolution, so
        # its searches take the increment path, which reads the base record.
        # Each search from the record the solver carried is repeated from a
        # record built afresh at the same x and given the carried f (after an
        # increment step the last f plus the increase), with the same
        # direction and trial
        g = gen_beta_star(3, 10)
        cfg = SolverConfig(p=3.0)
        calls, bases = [], []
        real_search, real_increment = solver.line_search_wolfe, solver._increment

        def search(*args):
            calls.append(args)
            return real_search(*args)

        def counted(g, base, trial):
            bases.append(base)
            return real_increment(g, base, trial)

        monkeypatch.setattr(solver, "line_search_wolfe", search)
        monkeypatch.setattr(solver, "_increment", counted)
        solve_single(g, cfg, draw(g.n, 0))
        assert len(calls) > 1
        read = 0
        for _, carried, direction, trial in calls[1:]:  # calls[0] is from the start
            fresh = evaluated(g, carried.x, cfg.p)
            fresh.f = carried.f
            bases.clear()
            a = real_search(g, carried, direction, trial)
            assert all(base is carried for base in bases)
            read += len(bases)
            bases.clear()
            b = real_search(g, fresh, direction, trial)
            assert all(base is fresh for base in bases)
            assert self._same(a, b)
            counts = [(res.grad_evals, res.increments, res.increase) for res in (a, b)]
            assert counts[0] == counts[1]
            if a.ok:
                assert a.point.entries.tobytes() == b.point.entries.tobytes()
                assert a.point.suffix.tobytes() == b.point.suffix.tobytes()
        assert read > 0

    def test_infinite_trial_value_fails_the_increase_test(self, monkeypatch):
        # the first trial's f reads +inf: it passes no increase test and gets
        # no gradient pass, and the search goes on below it
        g, point, grad0 = self._search_setup(0)
        trials, grads = [], []
        real_value, real_gradient = solver._value, solver._gradient

        def value(g, x, p):
            trials.append(real_value(g, x, p))
            if len(trials) == 1:
                trials[0].f = math.inf
            return trials[-1]

        def gradient(g, point):
            grads.append(point)
            return real_gradient(g, point)

        monkeypatch.setattr(solver, "_value", value)
        monkeypatch.setattr(solver, "_gradient", gradient)
        res = line_search_wolfe(g, point, grad0.copy())
        assert res.ok and res.evals == len(trials) > 1
        assert res.grad_evals == len(grads) and all(t is not trials[0] for t in grads)

    def test_trials_are_evaluated_at_the_base_records_p(self, monkeypatch):
        g = gen_beta_star(3, 10)
        ps = []
        real = solver._value

        def value(g, x, p):
            ps.append(p)
            return real(g, x, p)

        monkeypatch.setattr(solver, "_value", value)
        for p in (2.5, 3.0, 4.0):
            ps.clear()
            point = evaluated(g, draw(g.n, 0), p)
            res = line_search_wolfe(g, point, point.grad.copy(), trial=50.0)
            assert res.ok and res.evals > 1 and ps == [p] * res.evals and res.point.p == p

    def test_rejects_non_ascent_direction(self):
        g = gen_complete(4, 3)
        x = np.array([0.9, 0.3, 0.3, 0.1])
        point = evaluated(g, x / np.linalg.norm(x), 2.0)
        res = line_search_wolfe(g, point, -point.grad)
        assert not res.ok

    @pytest.mark.parametrize("lo, inc_lo, d_lo, h", [(0.0, 0.0, 2.0, 1.0), (0.25, 0.125, 0.5, 3.0)])
    def test_zoom_reaches_quadratic_peak_after_overshoot(self, lo, inc_lo, d_lo, h):
        # the increase inc_lo + d_lo t - c t^2 past lo peaks at t = h / 500:
        # a trial that overshot it 500-fold is followed by the peak itself
        c = 250.0 * d_lo / h
        trial = solver._interpolate(lo, inc_lo, d_lo, lo + h, inc_lo + d_lo * h - c * h * h)
        assert trial == pytest.approx(lo + h / 500.0, rel=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(
        lo=st.floats(0.0, 10.0), h=st.floats(1e-3, 10.0), inc_lo=st.floats(-1.0, 1.0),
        d_lo=st.floats(1e-3, 1e3), peak=st.floats(1e-6, 1.0),
        f_hi=st.one_of(st.none(), st.floats(allow_nan=True, allow_infinity=True)),
    )
    def test_zoom_trial_stays_in_bracket(self, lo, h, inc_lo, d_lo, peak, f_hi):
        # any values give a trial in [lo + ZOOM_FLOOR h, hi - 0.1 h]; when f_hi
        # is None the increase is the quadratic that peaks at lo + peak * h,
        # and the trial is that peak, clipped to the same interval.  A peak
        # at 1e-3 h or above, after an overshoot of up to 1000 times, is
        # reached in one interpolation
        hi = lo + h
        h = hi - lo  # the width as _interpolate computes it
        floor, ceiling = lo + solver.ZOOM_FLOOR * h, hi - 0.1 * h
        quadratic = f_hi is None
        if quadratic:
            f_hi = inc_lo + d_lo * h - d_lo * h / (2.0 * peak)
        trial = solver._interpolate(lo, inc_lo, d_lo, hi, f_hi)
        assert floor <= trial <= ceiling
        if quadratic:
            assert trial == pytest.approx(min(max(lo + peak * h, floor), ceiling), abs=1e-9 * h)
            if peak >= 1e-3:
                assert trial == pytest.approx(min(lo + peak * h, ceiling), abs=1e-9 * h)


class TestSolveSingle:
    def test_beta_star_from_good_start(self):
        g = gen_beta_star(3, 10)
        ref = beta_star_value(3, 10, 3)
        cfg = SolverConfig(p=3.0)
        # start biased toward the optimum's sign pattern
        x0 = np.ones(g.n) / math.sqrt(g.n)
        res = solve_single(g, cfg, x0)
        assert abs(res.lam - ref) / ref <= 1e-8

    def test_stationary_start_returns_immediately(self):
        g = gen_complete(4, 3)
        res = solve_single(g, SolverConfig(p=2.0), np.full(4, 0.5))
        assert res.iterations == 0
        assert res.converged
        assert res.lam == pytest.approx(3.0, abs=1e-15)

    def test_loose_path_value(self):
        g = gen_loose_path(4, 4)
        ref = loose_path_value(4, 4)
        best = -np.inf
        for seed in range(5):
            rng = np.random.default_rng(seed)
            res = solve_single(g, SolverConfig(p=4.0), random_unit_sphere(g.n, rng))
            best = max(best, res.lam)
        assert abs(best - ref) / ref <= 1e-8

    def test_x_is_last_accepted_iterate(self, monkeypatch):
        g = gen_beta_star(3, 10)
        x0 = draw(g.n, 0)
        accepted = [x0 / np.linalg.norm(x0)]
        real_search = solver.line_search_wolfe

        def search(*args, **kwargs):
            res = real_search(*args, **kwargs)
            if res.ok:  # the solver moves to every accepted point
                accepted.append(res.x)
            return res

        monkeypatch.setattr(solver, "line_search_wolfe", search)
        res = solve_single(g, SolverConfig(p=3.0), x0)
        assert res.iterations == len(accepted) - 1 > 0
        assert res.x.tobytes() == accepted[-1].tobytes()
        assert res.weighting.tobytes() == np.abs(res.x).tobytes()
        assert abs(np.linalg.norm(res.x) - 1.0) <= 1e-12
        assert np.any(res.x < 0)  # x keeps the signs that weighting drops

    def test_x_of_a_run_without_steps_is_its_unit_start(self):
        res = solve_single(gen_complete(4, 3), SolverConfig(p=2.0), np.full(4, -2.0))
        assert res.iterations == 0
        assert np.array_equal(res.x, np.full(4, -0.5))
        assert np.array_equal(res.weighting, np.full(4, 0.5))

    # a sign-mixed critical point of complete(4,3) at p = 2: three entries
    # -a and one 1.5a solve grad w = mu x, and |x| is not stationary
    MIXED_CRITICAL = np.array([-1.0, -1.0, -1.0, 1.5]) / math.sqrt(5.25)

    def test_finish_moves_to_abs_x(self):
        g = gen_complete(4, 3)
        x0 = self.MIXED_CRITICAL
        assert np.linalg.norm(value_and_grad(g, x0, 2.0)[1]) <= 1e-8
        res = solve_single(g, SolverConfig(p=2.0), x0, track=True)
        assert res.finishes == 1 and res.stop_reason == "grad_tol"
        assert res.trace[0].finish and not any(rec.finish for rec in res.trace[1:])
        assert res.trace[0].f == objective(g, np.abs(x0), 2.0) > objective(g, x0, 2.0)
        assert res.lam == pytest.approx(3.0, abs=1e-14)

    def test_x_after_finish_and_failed_search_is_abs_x(self, monkeypatch):
        g = gen_complete(4, 3)
        x0 = self.MIXED_CRITICAL
        failed = solver.LineSearchResult(False, 0.0, None, 1)
        monkeypatch.setattr(solver, "line_search_wolfe", lambda *args, **kwargs: failed)
        res = solve_single(g, SolverConfig(p=2.0), x0)
        assert (res.stop_reason, res.iterations, res.finishes) == ("line_search_failure", 0, 1)
        assert res.x.tobytes() == np.abs(x0).tobytes()
        assert res.lam == objective(g, np.abs(x0), 2.0)

    def test_finish_that_stays_costs_one_gradient_pass(self):
        # an isolated vertex at -1e-12: x is sign-mixed, and |x| is stationary
        g = Hypergraph.from_edges(4, 3, [(1, 2, 3)])
        x0 = np.array([1.0, 1.0, 1.0, -1e-12]) / math.sqrt(3.0)
        res = solve_single(g, SolverConfig(p=2.0), x0)
        assert (res.stop_reason, res.iterations, res.finishes) == ("grad_tol", 0, 0)
        assert res.x.tobytes() == x0.tobytes()
        # the start's value and gradient passes, then |x|'s, whose value is lam
        assert (res.evals, res.grad_evals) == (2, 2)
        assert res.lam == objective(g, np.abs(x0), 2.0)
        # a one-signed x pays nothing: the start's passes and lam's value pass
        res = solve_single(g, SolverConfig(p=2.0), np.abs(x0))
        assert (res.evals, res.grad_evals, res.finishes) == (2, 1, 0)

    def test_finish_records_jump_to_abs_of_last_point(self, monkeypatch):
        g = gen_complete(4, 3)
        cfg = SolverConfig(p=2.0)
        accepted = []
        real_search = solver.line_search_wolfe

        def search(*args, **kwargs):
            res = real_search(*args, **kwargs)
            if res.ok:
                accepted.append(res.x)
            return res

        monkeypatch.setattr(solver, "line_search_wolfe", search)
        finished = 0
        for seed in range(10):
            x0 = draw(g.n, seed)
            accepted[:] = [x0 / np.linalg.norm(x0)]
            res = solve_single(g, cfg, x0, track=True)
            assert len(res.trace) == len(accepted) - 1
            for k, rec in enumerate(res.trace):
                if rec.finish:  # accepted[k] is the previous record's x_next
                    assert rec.f == objective(g, np.abs(accepted[k]), cfg.p)
                    assert not (accepted[k] >= 0.0).all()
                    finished += 1
            assert res.finishes == sum(rec.finish for rec in res.trace)
        assert finished > 0

    def test_line_search_failure_reported(self, monkeypatch):
        g = gen_beta_star(3, 10)
        x0 = random_unit_sphere(g.n, np.random.default_rng(2))
        # from this start the increase per step falls below the float64
        # spacing of f before grad_tol; the search certifies it anyway
        res = solve_single(g, SolverConfig(p=3.0), x0)
        assert res.stop_reason == "grad_tol"
        assert res.converged
        ref = beta_star_value(3, 10, 3)
        assert abs(res.lam - ref) / ref <= 1e-12
        # a search allowed a single trial really fails and is reported so
        monkeypatch.setattr(solver, "MAX_LINESEARCH_STEPS", 1)
        res = solve_single(g, SolverConfig(p=3.0), x0)
        assert res.stop_reason == "line_search_failure"
        assert not res.converged
        assert res.lam == objective(g, res.weighting, 3.0)

    # beta-star(3,10) start 0 has steps below the value resolution (zero
    # gain); beta-star(6,4) at p = 4 start 2 has a failed warm CG search
    # followed by an accepted search from the default trial, start 89 a
    # steepest-ascent retry after both failed, and start 0 a support step
    @pytest.mark.parametrize(
        "build, p, path",
        [
            (lambda: gen_beta_star(3, 10), 3.0, "zero_gain"),
            (lambda: gen_beta_star(6, 4), 4.0, "cg_default"),
            (lambda: gen_beta_star(6, 4), 4.0, "retry"),
            (lambda: gen_beta_star(6, 4), 4.0, "support"),
        ],
    )
    def test_searches_warm_start_from_last_gain(self, monkeypatch, build, p, path):
        g = build()
        cfg = SolverConfig(p=p)
        # (trial passed, first alpha evaluated, default trial, result,
        # support, iterate, direction, slope compared)
        searches, supports = [], [None]
        real_search, real_step = solver.line_search_wolfe, solver.cayley_step
        real_support = solver.support_direction

        def support(*args):
            supports.append(real_support(*args))
            return supports[-1]

        def search(g, point, direction, trial=None):
            along_face = supports[-1] is not None and direction is supports[-1][0]
            default = 2.0 / (1.0 + float(np.linalg.norm(direction)))
            slope = float(direction.dot(point.grad))
            searches.append([trial, None, default, None, along_face, point.x, direction, slope])
            res = real_search(g, point, direction, trial)
            searches[-1][3] = res
            return res

        def step(x, direction, alpha, *curve):
            if searches[-1][1] is None:
                searches[-1][1] = alpha
            return real_step(x, direction, alpha, *curve)

        monkeypatch.setattr(solver, "support_direction", support)
        monkeypatch.setattr(solver, "line_search_wolfe", search)
        monkeypatch.setattr(solver, "cayley_step", step)
        start = {"cg_default": 2, "retry": 89}.get(path, 0)
        res = solve_single(g, cfg, draw(g.n, start), track=True)
        assert res.stop_reason == "grad_tol" and res.finishes == 0
        trace = res.trace
        # one successful search per record; a failed one is followed by the
        # next search of the same iteration: after a failed support search
        # the CG search, after a failed warm CG search the same direction
        # from the default trial, then the steepest-ascent retry
        groups, k = [[] for _ in trace], 0
        for entry in searches:
            groups[k].append(entry)
            k += entry[3].ok
        assert k == len(trace)
        seen, second = set(), 0
        for k, group in enumerate(groups):
            assert [entry[3].ok for entry in group] == [False] * (len(group) - 1) + [True]
            assert (trace[k].search == "support") == group[-1][4]
            if trace[k].search == "support":
                # exempt from the warm start: the first trial is alpha*, and
                # the Cayley point there is zero on the penalty-dominated set
                seen.add("support")
                assert len(group) == 1
                trial, first, _, _, _, x, direction, _ = group[0]
                face, alpha_star = face_step(g, x, p, cfg.grad_tol)
                assert face.any() and not face.all()
                assert trial == pytest.approx(alpha_star, rel=1e-12)
                assert first == trial
                assert np.abs(real_step(x, direction, trial)[face]).max() <= 1e-15
                continue
            if group[0][4]:
                group = group[1:]  # the failed support search
            trial, first, default, _, _, x, direction, slope = group[0]
            kinds = ["cg"]
            if k == 0:
                assert trial is None
            else:
                # the last step's float64 gain, or its increase when that reads 0
                gain = trace[k].f - trace[k - 1].f
                rise = gain if gain != 0.0 else groups[k - 1][-1][3].increase
                assert rise > 0.0
                assert trial == 2.0 * rise / slope
                if gain == 0.0:
                    seen.add("zero_gain")
            assert first == (default if trial is None else trial)
            if len(group) > 1 and trial is not None:
                # the same iterate and direction from the default trial
                kinds.append("cg_default")
                again = group[len(kinds) - 1]
                assert again[5] is x and again[6] is direction
                assert again[0] is None and again[1] == again[2] == default
            if len(group) > len(kinds):
                kinds.append("retry")
                retry = group[len(kinds) - 1]
                assert not np.array_equal(direction, retry[6])
                assert retry[5] is x and retry[0] is None and retry[1] == retry[2]
            assert len(group) == len(kinds) and trace[k].search == kinds[-1]
            seen.add(kinds[-1])
            second += len(kinds) - 1
        assert path in seen
        assert res.support_steps == sum(rec.search == "support" for rec in trace)
        assert res.restarts == second

    def test_failed_support_search_is_followed_by_cg_search(self, monkeypatch):
        # beta-star(3,10) from start 0 gains at most SUPPORT_GAIN * |f| per
        # step before it stops, so the support rule is consulted; here every
        # support search fails
        g = gen_beta_star(3, 10)
        real_search = solver.line_search_wolfe
        faces, searches = {}, []

        def support(g, point, gnorm, grad_tol):
            face = point.grad.copy()
            faces[id(face)] = face
            return face, 1.0

        def search(g, point, direction, trial=None):
            if id(direction) in faces:
                res = solver.LineSearchResult(False, 0.0, None, 2)
            else:
                res = real_search(g, point, direction, trial)
            searches.append((point.x, point.grad, direction, trial, res))
            return res

        monkeypatch.setattr(solver, "support_direction", support)
        monkeypatch.setattr(solver, "line_search_wolfe", search)
        res = solve_single(g, SolverConfig(p=3.0), draw(g.n, 0), track=True)
        assert res.stop_reason == "grad_tol" and res.support_steps == 0
        trace, k, followed, last = res.trace, 0, 0, None
        assert not any(rec.search == "support" for rec in trace)
        for i, (x, _, direction, _, found) in enumerate(searches):
            if id(direction) in faces:
                x_cg, grad0, cg, trial, found_cg = searches[i + 1]
                # the same iterate, the CG direction, and the warm trial from
                # the last step's gain, or its increase when that reads 0
                assert x_cg is x and id(cg) not in faces
                gain = trace[k].f - trace[k - 1].f
                rise = gain if gain != 0.0 else last.increase
                assert trial == 2.0 * rise / float(cg.dot(grad0))
                if found_cg.ok:
                    followed += 1
                    assert trace[k].evals == 2 + found_cg.evals
                else:  # then the CG direction again, from the default trial
                    x_again, _, again, trial_again, _ = searches[i + 2]
                    assert x_again is x and again is cg and trial_again is None
            k += found.ok
            last = found if found.ok else last
        assert followed > 0

    def test_cg_direction_under_the_floor_is_replaced_by_grad(self, monkeypatch):
        g = gen_beta_star(3, 10)
        real_search = solver.line_search_wolfe
        searches = []

        def search(g, point, direction, trial=None):
            searches.append((point.x, point.f, point.grad, direction, trial))
            if len(searches) >= 6:  # failed searches along grad end the run
                return solver.LineSearchResult(False, 0.0, None, 1)
            return real_search(g, point, direction, trial)

        # an ascent direction, but a quarter of grad . grad is under the floor
        monkeypatch.setattr(solver, "cg_direction", lambda grad, step, diff: 0.25 * grad)
        monkeypatch.setattr(solver, "line_search_wolfe", search)
        res = solve_single(g, SolverConfig(p=3.0), draw(g.n, 0))
        # one search per iteration along grad; the failed warm one is
        # followed by grad from the default trial, and by no steepest-ascent
        # retry, which would repeat that search
        assert res.stop_reason == "line_search_failure" and res.restarts == 1
        assert len(searches) == res.iterations + 2 == 7
        assert searches[0][4] is None
        for (_, f_prev, *_), (_, f0, grad0, direction, trial) in zip(searches, searches[1:6]):
            assert np.array_equal(direction, grad0) and f0 > f_prev
            gnorm = math.sqrt(float(grad0.dot(grad0)))
            assert trial == 2.0 * (f0 - f_prev) / (gnorm * gnorm)
        x, _, _, direction, _ = searches[5]
        assert searches[6][0] is x and searches[6][3] is direction and searches[6][4] is None

    def test_trace_ascent_is_the_slope_its_search_compared(self, monkeypatch):
        # beta-star(6,4) at p = 4 from starts 80..119 accepts some searches
        # from the default trial after a failed warm one, and a
        # steepest-ascent retry (starts 89 and 115), whose slope is not the
        # CG direction's
        accepted = []
        real_search = solver.line_search_wolfe

        def search(g, point, direction, *args):
            res = real_search(g, point, direction, *args)
            if res.ok:
                accepted.append(float(point.grad.dot(direction)))
            return res

        monkeypatch.setattr(solver, "line_search_wolfe", search)
        cfg = SolverConfig(p=4.0, runs=40, seed=80)
        runs = solo_runs(gen_beta_star(6, 4), cfg, track=True)
        kinds = {rec.search for run in runs for rec in run.trace}
        assert {"cg_default", "retry"} <= kinds
        assert [rec.ascent for run in runs for rec in run.trace] == accepted

    def test_zero_gain_search_starts_from_last_increase(self, monkeypatch):
        # beta-star(3,10) near its maximizer: a step's float64 gain reads 0,
        # and the next CG search starts from 2 * increase / ascent, the
        # increase the last search measured.  A failed warm search is
        # followed from the same iterate by the same direction from the
        # default trial, and only then by a steepest-ascent retry
        g = gen_beta_star(3, 10)
        searches, faces = [], [None]
        real_search, real_support = solver.line_search_wolfe, solver.support_direction

        def support(*args):
            found = real_support(*args)
            faces.append(None if found is None else found[0])
            return found

        def search(g, point, direction, trial=None):
            res = real_search(g, point, direction, trial)
            along_face = direction is faces[-1]
            searches.append((point.x, point.f, point.grad, direction, trial, res, along_face))
            return res

        monkeypatch.setattr(solver, "support_direction", support)
        monkeypatch.setattr(solver, "line_search_wolfe", search)
        zero_gain = fallbacks = 0
        for p in (1.5, 3.0):
            for start in range(10):
                searches.clear()
                solve_single(g, SolverConfig(p=p), draw(g.n, start))
                last = None  # the last accepted search
                for i, (x, f0, grad0, direction, trial, res, along_face) in enumerate(searches):
                    first_cg = not along_face and last is not None and x is last[5].x and (
                        searches[i - 1] is last or searches[i - 1][6])
                    if first_cg and last[5].point.f - last[1] == 0.0:
                        zero_gain += 1
                        assert trial == 2.0 * last[5].increase / float(direction.dot(grad0))
                    if not res.ok and not along_face and i + 1 < len(searches):
                        x_next, _, _, d_next, trial_next, *_ = searches[i + 1]
                        assert x_next is x and trial_next is None
                        if trial is not None:  # the same direction, from the default trial
                            assert np.array_equal(d_next, direction)
                            fallbacks += 1
                        else:  # the steepest-ascent retry
                            assert np.array_equal(d_next, grad0)
                            assert not np.array_equal(direction, grad0)
                    last = searches[i] if res.ok else last
        assert zero_gain > 0 and fallbacks > 0

    def test_failed_default_search_along_grad_is_not_repeated(self, monkeypatch):
        # a run's first search goes along grad from the default trial; when
        # it fails, no second search would differ from it
        trials = []

        def search(g, point, direction, trial=None):
            trials.append(trial)
            return solver.LineSearchResult(False, 0.0, None, 1)

        monkeypatch.setattr(solver, "line_search_wolfe", search)
        g = gen_beta_star(3, 10)
        res = solve_single(g, SolverConfig(p=3.0), draw(g.n, 0))
        assert (res.stop_reason, res.iterations, res.restarts) == ("line_search_failure", 0, 0)
        assert trials == [None]

    def test_beta_star_near_p_one_reaches_grad_tol(self):
        # p = 1.5 < r - 1: the zero-gain searches start warm from the last
        # increase instead of cold, so no run goes on to max_iter
        runs = solo_runs(gen_beta_star(3, 10), SolverConfig(p=1.5, runs=40, seed=0))
        ref = beta_star_value(3, 10, 1.5)
        assert all(run.stop_reason == "grad_tol" for run in runs)
        assert all(abs(run.lam - ref) <= 1e-8 * ref for run in runs)

    def test_warm_start_evals_per_search(self, monkeypatch):
        counts = []
        real = solver.line_search_wolfe

        def counted(*args, **kwargs):
            res = real(*args, **kwargs)
            counts.append(res.evals)
            return res

        monkeypatch.setattr(solver, "line_search_wolfe", counted)
        runs = solo_runs(gen_beta_star(3, 200), SolverConfig(p=3.0, runs=20, seed=0))
        assert all(run.stop_reason == "grad_tol" for run in runs)
        assert sum(counts) / len(counts) < 2.5

    def test_evaluation_counters(self, monkeypatch):
        g = gen_beta_star(3, 200)
        cfg = SolverConfig(p=3.0, runs=20, seed=0)
        grads = []
        real = solver._gradient

        def counted(g, point):
            grads.append(point)
            return real(g, point)

        monkeypatch.setattr(solver, "_gradient", counted)
        # p = r: the full run sequence, of which a multistart makes a prefix
        runs = replay_runs(g, cfg)
        assert len(runs) == cfg.runs
        for run in runs:
            # one gradient at the start and one per accepted step, and at
            # least one value pass (the final lam's) without a gradient
            assert run.iterations + 1 <= run.grad_evals < run.evals
        # every search got its base record from the solver, none built one
        assert len(grads) == sum(run.grad_evals for run in runs)
        again = replay_runs(g, cfg)
        counts = [(run.evals, run.grad_evals) for run in runs]
        assert counts == [(run.evals, run.grad_evals) for run in again]

    def test_increment_counter(self, monkeypatch):
        # beta-star(3,10) from start 0 ends below f's float64 resolution,
        # where the Wolfe test reads the cancellation-free increment
        g = gen_beta_star(3, 10)
        calls = []
        real = solver._increment

        def counted(g, base, trial):
            calls.append(trial)
            return real(g, base, trial)

        monkeypatch.setattr(solver, "_increment", counted)
        res = solve_single(g, SolverConfig(p=3.0), draw(g.n, 0))
        assert res.stop_reason == "grad_tol"
        assert res.increments == len(calls) > 0

    @pytest.fixture(scope="class")
    def star_tail(self):
        """beta-star(6,4) at p = 5 = r - 1, the solo runs from starts 0..199
        (no known maxima, so every run goes on into its slow tail), traced,
        with every line search recorded as (run, iterate, ok, value passes).
        Its slow tails have 535 failed searches.  All but one are followed by
        a second search from the same iterate: 528 along the same direction
        from the default trial, and 6 steepest-ascent retries after those
        failed too; the last retry of the one run that stops at
        line_search_failure is the exception (starts 0..39 have 66 failed
        searches, and at p = 4 < r - 1 they have 8)."""
        searches, runs = [], []
        real_search = solver.line_search_wolfe

        def search(g, point, *args):
            res = real_search(g, point, *args)
            searches.append((len(runs), point.x, res.ok, res.evals))
            return res

        g, cfg = gen_beta_star(6, 4), SolverConfig(p=5.0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "line_search_wolfe", search)
            for start in range(200):
                runs.append(solve_single(g, cfg, draw(g.n, start), track=True))
        return runs, searches

    def test_failed_searches_are_cheap_in_sublinear_tail(self, star_tail):
        # the failed searches here read a slope whose sign is rounding noise,
        # most at their first trial; a few expand for some trials before it
        _, searches = star_tail
        failed = [evals for _, _, ok, evals in searches if not ok]
        assert len(failed) > 100
        assert sum(failed) <= 2 * len(failed)
        assert max(failed) < 10

    def test_restarts_count_second_searches(self, star_tail):
        runs, searches = star_tail
        # a second search from the same iterate is the same iteration's
        # search from the default trial or its steepest-ascent retry
        second = [0] * len(runs)
        for (run, x, _, _), (prev_run, prev_x, _, _) in zip(searches[1:], searches):
            second[run] += run == prev_run and x is prev_x
        assert [res.restarts for res in runs] == second
        assert sum(second) > 100

    def test_trace_counts_both_searches_of_an_iteration(self, star_tail):
        runs, _ = star_tail
        finished = [res for res in runs if res.stop_reason in ("grad_tol", "max_iter")]
        assert len(finished) >= 30 and any(res.restarts for res in finished)
        for res in finished:
            # the start's pass and the final lam's are the two outside any step
            assert sum(rec.evals for rec in res.trace) + 2 == res.evals

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_no_support_steps_off_the_face_regime(self, seed):
        # the benchmark's multistart-small instances: every maximizer is
        # interior to its support, and no entry is penalty-dominated
        instances = [
            (gen_beta_star(3, 10), 3.0),
            (gen_beta_star(3, 200), 3.0),
            (gen_loose_path(4, 3), 4.0),
            (gen_complete(4, 3), 2.0),
            (gen_complete(10, 3), 2.0),
        ]
        for g, p in instances:
            # all 100 runs, also at p >= r where a multistart makes a prefix
            runs = replay_runs(g, SolverConfig(p=p, runs=100, seed=seed))
            assert len(runs) == 100
            assert sum(run.support_steps for run in runs) == 0

    def test_support_steps_shorten_sublinear_tail(self):
        # p = 4 < r - 1: support steps on the relative-gain rule reach the
        # face long before f is at its float64 resolution
        runs = solo_runs(gen_beta_star(6, 4), SolverConfig(p=4.0, runs=40, seed=0))
        ref = beta_star_value(6, 4, 4.0)
        assert all(run.stop_reason == "grad_tol" for run in runs)
        assert all(abs(run.lam - ref) <= 1e-12 * ref for run in runs)
        assert sum(run.iterations for run in runs) <= 2000

    def test_flat_direction_run_reaches_grad_tol(self):
        # beta-star(6,4) at p = 4 from start 1066: with the zoom's trials kept
        # 0.1 h above the bracket's low end, the run ended in
        # line_search_failure at ||grad|| = 1.2e-8
        g = gen_beta_star(6, 4)
        res = solve_single(g, SolverConfig(p=4.0), draw(g.n, 1066))
        assert res.stop_reason == "grad_tol"
        ref = beta_star_value(6, 4, 4.0)
        assert abs(res.lam - ref) <= 1e-12 * ref

    def test_value_passes_per_accepted_step(self):
        # beta-star(6,4) at p = 4, starts 0..39: 1.97 value passes per
        # accepted step, 2.26 with the zoom's trials kept 0.1 h above the
        # bracket's low end (ROADMAP item 4's target is below 2)
        runs = solo_runs(gen_beta_star(6, 4), SolverConfig(p=4.0, runs=40, seed=0), track=True)
        records = [rec for run in runs for rec in run.trace]
        assert sum(rec.evals for rec in records) / len(records) <= 2.1

    def test_loose_path_tail_has_no_line_search_failure(self):
        # p = 3 < r - 1: support steps end the signed tails before a search
        # meets a direction flat to rounding
        cfg = SolverConfig(p=3.0, runs=30, seed=0)
        # all 30 runs, of which a multistart makes a prefix
        runs = replay_runs(gen_loose_path(4, 4), cfg)
        assert len(runs) == 30
        assert not any(run.stop_reason == "line_search_failure" for run in runs)

    @pytest.mark.parametrize(
        "build, p",
        [
            (lambda: gen_beta_star(3, 10), 3.0),
            (lambda: gen_beta_star(6, 4), 4.0),
            (lambda: gen_loose_path(4, 4), 3.0),
        ],
    )
    def test_support_rule_follows_small_gains(self, monkeypatch, build, p):
        # the iteration after an accepted step consults support_direction
        # exactly when that step gained at most SUPPORT_GAIN * |f|, and so
        # always after a step whose search read an increment
        events = []
        real_search, real_support = solver.line_search_wolfe, solver.support_direction

        def search(g, point, *args):
            res = real_search(g, point, *args)
            events.append(("search", res, point.f))
            return res

        def support(*args):
            events.append(("support",))
            return real_support(*args)

        monkeypatch.setattr(solver, "line_search_wolfe", search)
        monkeypatch.setattr(solver, "support_direction", support)
        g, cfg = build(), SolverConfig(p=p)
        small = increments = 0
        for start in range(10):
            events.clear()
            solve_single(g, cfg, draw(g.n, start))
            for event, after in zip(events, events[1:]):
                if event[0] != "search" or not event[1].ok:
                    continue
                res, f0 = event[1:]
                consulted = after[0] == "support"
                assert consulted == (res.point.f - f0 <= solver.SUPPORT_GAIN * abs(res.point.f))
                assert consulted or res.increments == 0
                small += consulted
                increments += res.increments > 0
        assert small > 0 and increments > 0

    def test_known_maximum_stop_tests_value_and_final_pass(self, monkeypatch):
        # beta-star(3,10) from start 4: at iteration k, the first with
        # ||grad|| <= KNOWN_GRAD_TOL * f, f(|x|) exceeds the iterate's f by
        # an ulp or two.  An entry with lam = f(|x|) stops the run there;
        # with lam = f the final pass exceeds lam, and the run goes on as
        # without the entry, after one more value pass
        g, cfg = gen_beta_star(3, 10), SolverConfig(p=3.0)
        iterates = []
        real_search = solver.line_search_wolfe

        def search(*args):
            res = real_search(*args)
            if res.ok:
                iterates.append(res.x)
            return res

        monkeypatch.setattr(solver, "line_search_wolfe", search)
        solo = solve_single(g, cfg, draw(g.n, 4), track=True)
        monkeypatch.undo()
        assert solo.finishes == 0  # the k-th iterate is the k-th accepted point
        k = next(rec.k for rec in solo.trace if rec.gnorm <= solver.KNOWN_GRAD_TOL * rec.f)
        f, weighting = solo.trace[k].f, np.abs(iterates[k - 1])
        lam = objective(g, weighting, cfg.p)
        assert lam > f

        def rerun(entry_lam):
            return solve_single(g, cfg, draw(g.n, 4), known=((3, entry_lam),))

        stopped = rerun(lam)
        assert (stopped.stop_reason, stopped.rejoined) == ("known_maximum", 3)
        assert stopped.iterations == k
        assert (stopped.lam, stopped.converged) == (lam, False)
        assert np.abs(stopped.x).tobytes() == weighting.tobytes()
        went_on = rerun(f)
        assert (went_on.stop_reason, went_on.rejoined) == ("grad_tol", None)
        assert (went_on.lam, went_on.iterations) == (solo.lam, solo.iterations)
        assert went_on.x.tobytes() == solo.x.tobytes()
        assert went_on.evals == solo.evals + 1

    def test_numerical_failure_on_overflow(self):
        edges = [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
        g = Hypergraph.from_edges(n=4, r=3, edges=edges, weights=[1e308] * 4)
        with np.errstate(over="ignore", invalid="ignore"):
            res = solve_single(g, SolverConfig(p=2.0), np.full(4, 0.5))
        assert res.stop_reason == "numerical_failure"
        assert not res.converged
        assert math.isnan(res.lam)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_numerical_failure_on_non_finite_first_gradient(self, monkeypatch, bad):
        g = gen_beta_star(3, 10)
        real = solver._gradient

        def poisoned(g, point):
            grad = real(g, point)
            grad[-1] = bad
            return grad

        monkeypatch.setattr(solver, "_gradient", poisoned)
        res = solve_single(g, SolverConfig(p=3.0), draw(g.n, 0))
        assert res.stop_reason == "numerical_failure" and res.iterations == 0
        assert not res.converged
        assert res.lam == objective(g, res.weighting, 3.0)  # f itself is finite

    def test_zero_start_rejected(self):
        with pytest.raises(ValueError):
            solve_single(gen_complete(4, 3), SolverConfig(p=2.0), np.zeros(4))

    def test_start_of_the_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match=r"^vector has shape \(5,\), expected \(4,\)$"):
            solve_single(gen_complete(4, 3), SolverConfig(p=2.0), np.ones(5))

    def test_trace_shapes(self):
        g = gen_beta_star(3, 5)
        rng = np.random.default_rng(1)
        res = solve_single(g, SolverConfig(p=3.0), random_unit_sphere(g.n, rng), track=True)
        assert res.trace is not None and len(res.trace) == res.iterations
        assert [r.k for r in res.trace] == list(range(res.iterations))

    def test_determinism(self):
        g = gen_loose_path(4, 3)
        cfg = SolverConfig(p=4.0)
        rng1, rng2 = np.random.default_rng(9), np.random.default_rng(9)
        a = solve_single(g, cfg, random_unit_sphere(g.n, rng1))
        b = solve_single(g, cfg, random_unit_sphere(g.n, rng2))
        assert a.lam == b.lam
        assert a.iterations == b.iterations
        assert np.array_equal(a.weighting, b.weighting)


class TestSolveMultistart:
    def test_tetrahedron(self):
        res = solve_multistart(gen_complete(4, 3), SolverConfig(p=2.0, runs=100, seed=0))
        assert res.best.lam == pytest.approx(3.0, abs=3e-8)

    def test_single_run_equals_solo(self):
        # run i is solve_single from the uniform start drawn with seed
        # cfg.seed + i, given the (run, lam) entry of each value group of
        # the converged runs j < i; the
        # runs end at the first run whose bound certifies the best lam or
        # whose estimate makes a further maximum unlikely
        reasons, made = set(), []
        for g, p in ((gen_beta_star(3, 4), 3.0), (gen_complete(4, 3), 2.0)):
            cfg = SolverConfig(p=p, runs=20, seed=5)
            multi = solve_multistart(g, cfg)
            replay = replay_runs(g, cfg)
            stop = stop_run(g, p, replay)
            expected = replay if stop is None else replay[: stop + 1]
            assert len(multi.run_summaries) == len(multi.all_lambdas) == len(expected)
            for i, (run, solo) in enumerate(zip(multi.run_summaries, expected)):
                assert run.lam == solo.lam == multi.all_lambdas[i]
                assert run.iterations == solo.iterations
                assert run.stop_reason == solo.stop_reason
                assert run.rejoined == solo.rejoined
                assert run.weighting.tobytes() == solo.weighting.tobytes()
                assert (run.evals, run.grad_evals) == (solo.evals, solo.grad_evals)
            reasons.update(run.stop_reason for run in replay)
            uppers = [u for run in expected if (u := run_upper(g, p, run)) is not None]
            assert multi.upper == (min(uppers) if uppers else None)
            assert multi.stop == ("certified" if g.r == p else "estimate")
            assert multi.best is multi.run_summaries[multi.best_run]
            made.append(len(multi.run_summaries))
        assert reasons == {"grad_tol", "known_maximum"}
        # p = r: run 0 certifies its value; p < r: no bound, and the estimate
        # ends the sequence after 8 runs at one value
        assert made == [1, 8]

    def test_weighting_is_abs_x_of_every_signed_run(self):
        # x is the one stored vector; weighting is |x|, derived on access
        assert "weighting" not in {f.name for f in fields(solver.SolveResult)}
        # r = 2: f(-x) = f(x), so some runs of the full sequence end at a
        # negative maximizer; at p = r the multistart makes a prefix of it
        g, cfg = gen_complete(4, 2), SolverConfig(p=2.0, runs=20, seed=1)
        replay = replay_runs(g, cfg)
        assert any((run.x < 0.0).any() for run in replay)
        for run in replay + list(solve_multistart(g, cfg).run_summaries):
            assert run.weighting.tobytes() == np.abs(run.x).tobytes()

    def test_default_starts_are_signed(self, monkeypatch):
        # the paper's law: run i from the uniform draw with seed cfg.seed + i
        starts = record_starts(monkeypatch)
        # one start per run made; complete(4,3) at p = 2 < r makes all six
        for g, p in ((gen_loose_path(4, 3), 4.0), (gen_complete(4, 3), 2.0)):
            cfg = SolverConfig(p=p, runs=6, seed=3)
            starts.clear()
            res = solve_multistart(g, cfg)
            assert len(starts) == len(res.run_summaries)
            for i, x0 in enumerate(starts):
                assert x0.tobytes() == draw(g.n, cfg.seed + i).tobytes()
            assert any((x0 < 0.0).any() for x0 in starts)
        assert len(starts) == cfg.runs

    def test_orthant_starts(self, monkeypatch):
        starts = record_starts(monkeypatch)
        # one start per run made; complete(4,3) at p = 2 < r makes all six
        for g, p in ((gen_loose_path(4, 3), 4.0), (gen_complete(4, 3), 2.0)):
            cfg = SolverConfig(p=p, runs=6, seed=3)
            starts.clear()
            res = solve_multistart(g, cfg, orthant=True)
            assert len(starts) == len(res.run_summaries)
            for i, x0 in enumerate(starts):
                assert x0.tobytes() == np.abs(draw(g.n, cfg.seed + i)).tobytes()
        assert len(starts) == cfg.runs

    @pytest.mark.parametrize(
        "build, p, exact",
        [
            # the uniform vector is optimal: 3! C(10,3) 10^(-3/2)
            (lambda: gen_complete(10, 3), 2.0, 6 * math.comb(10, 3) * 10**-1.5),
            (lambda: gen_loose_path(4, 3), 4.0, None),
        ],
        ids=["complete(10,3)", "loose-path(4,3)"],
    )
    def test_converged_weightings_are_stationary(self, build, p, exact):
        # a signed run that converges at a sign-mixed x goes on from |x|, so
        # no grad_tol stop reports a weighting that is not stationary
        g = build()
        cfg = SolverConfig(p=p, runs=100, seed=1)
        # all 100 runs, also at p >= r where a multistart makes a prefix
        runs = replay_runs(g, cfg)
        converged = [run for run in runs if run.stop_reason == "grad_tol"]
        assert converged
        for run in converged:
            _, grad = value_and_grad(g, run.weighting, p)
            assert np.linalg.norm(grad) <= cfg.grad_tol
        if exact is not None:  # 59 of these runs go on from |x|
            assert sum(run.finishes for run in runs) > 0
            assert all(abs(run.lam - exact) <= 1e-8 * exact for run in runs)

    def test_orthant_weightings_are_stationary(self):
        # orthant starts converge to nonnegative critical points directly
        g = make_random_graph(np.random.default_rng(0), n=100, r=3, m=300)
        cfg = SolverConfig(p=2.0, runs=20, seed=0)
        for run in solo_runs(g, cfg, orthant=True):
            assert run.stop_reason == "grad_tol"
            f, grad = value_and_grad(g, run.weighting, cfg.p)
            assert np.linalg.norm(grad) / f <= 1e-5

    def test_best_is_max(self):
        g = gen_complete(4, 3)
        res = solve_multistart(g, SolverConfig(p=2.0, runs=20, seed=1))
        assert res.best.lam == max(res.all_lambdas)
        # the statistical stop: 8 converged runs at one value
        assert len(res.run_summaries) == 8 and res.stop == "estimate"
        assert res.run_summaries[res.best_run].lam == res.best.lam
        assert all(s.iterations >= 0 for s in res.run_summaries)

    def test_weighting_is_nonnegative_and_consistent(self):
        g = gen_loose_path(4, 3)
        res = solve_multistart(g, SolverConfig(p=4.0, runs=10, seed=0))
        assert np.all(res.best.weighting >= 0.0)
        from hyperspec import objective

        assert res.best.lam == objective(g, res.best.weighting, 4.0)

    def test_sign_flip_never_loses_value(self):
        # nonnegative edge weights: f(|x|) >= f(x), so the reported value
        # dominates every traced objective value
        # all 10 runs, of which a multistart at p = r makes a prefix
        g = gen_loose_path(4, 3)
        runs = replay_runs(g, SolverConfig(p=4.0, runs=10, seed=7), track=True)
        assert len(runs) == 10
        for run in runs:
            assert run.lam >= run.trace[-1].f_next - 1e-12 * abs(run.lam)

    def test_converged_only_at_certified_stationarity(self):
        # p < r - 1: some runs end in sublinear tails and stop at max_iter
        cfg = SolverConfig(p=4.0, runs=8, seed=0, max_iter=60)
        runs = solo_runs(gen_beta_star(6, 4), cfg)
        reasons = {run.stop_reason for run in runs}
        assert reasons == {"grad_tol", "max_iter"}
        for run in runs:
            assert run.converged == (run.stop_reason == "grad_tol")
            assert run.converged == (run.grad_norm <= cfg.grad_tol)

    def test_weighting_rescaling(self):
        g = gen_complete(4, 3)
        res = solve_multistart(g, SolverConfig(p=2.0, runs=30, seed=0))
        w1 = res.best.weighting_scaled(1.0)
        wp = res.best.weighting_scaled(2.0)
        assert np.sum(w1) == pytest.approx(1.0, rel=1e-12)
        assert np.linalg.norm(wp) == pytest.approx(1.0, rel=1e-12)

    def test_weighting_scaled_max_norm_and_bad_orders(self):
        g = gen_beta_star(3, 10)
        best = solve_multistart(g, SolverConfig(p=3.0, runs=10, seed=0)).best
        w = best.weighting
        assert best.weighting_scaled(math.inf).max() == 1.0
        assert np.array_equal(best.weighting_scaled(math.inf), w / w.max())
        for order in (1.0, 2.0, 3.0):  # the finite orders keep their formula
            expected = w / float((w**order).sum() ** (1.0 / order))
            assert best.weighting_scaled(order).tobytes() == expected.tobytes()
        for order in (0.5, 0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="at least 1"):
                best.weighting_scaled(order)

    def test_determinism_across_calls(self):
        # p = r stops at a certified run, p = 2 < r makes all 8 runs
        g = gen_beta_star(3, 6)
        for p in (3.0, 2.0):
            cfg = SolverConfig(p=p, runs=8, seed=123)
            a = solve_multistart(g, cfg)
            b = solve_multistart(g, cfg)
            assert a.all_lambdas == b.all_lambdas
            assert (a.upper, a.certified) == (b.upper, b.certified)
            assert np.array_equal(a.best.weighting, b.best.weighting)
        assert len(a.all_lambdas) == cfg.runs

    def test_success_frequency_nondecreasing_in_run_count(self):
        # empirical multistart success over prefixes of the full run
        # sequence, of which a multistart makes a prefix
        g = gen_complete(4, 3)
        lams = np.array([run.lam for run in replay_runs(g, SolverConfig(p=2.0, runs=60, seed=11))])
        assert lams.size == 60
        hits = np.abs(lams - 3.0) / 3.0 <= 1e-8
        prefix_success = np.maximum.accumulate(hits)
        assert np.all(np.diff(prefix_success.astype(int)) >= 0)
        assert prefix_success[-1]

    def test_multiset_graph_matches_brute_force(self):
        from hyperspec import brute_force_radius

        g = Hypergraph.from_edges(
            n=3, r=3, edges=[(1, 1, 2), (1, 2, 3), (3, 3, 3)], weights=[1.0, 2.0, 0.5]
        )
        res = solve_multistart(g, SolverConfig(p=2.0, runs=30, seed=0))
        oracle, _ = brute_force_radius(g, 2.0, budget=500, seed=0)
        assert abs(res.best.lam - oracle) <= 1e-8

    def test_isolated_vertices_get_zero_weight(self):
        g = Hypergraph.from_edges(n=6, r=2, edges=[(1, 2)])
        res = solve_multistart(g, SolverConfig(p=2.0, runs=10, seed=2))
        assert res.best.lam == pytest.approx(1.0, abs=1e-9)
        assert np.all(res.best.weighting[2:] <= 1e-6)

    def test_constant_objective_self_loop(self):
        # a multiset self-loop on one vertex makes f constant: zero gradient
        g = Hypergraph.from_edges(n=1, r=2, edges=[(1, 1)], weights=[1.5])
        res = solve_multistart(g, SolverConfig(p=2.0, runs=3, seed=3))
        assert res.best.lam == pytest.approx(3.0)
        assert res.best.iterations == 0

    def test_edgeless_graph(self):
        g = Hypergraph.from_edges(n=5, r=3, edges=[])
        res = solve_multistart(g, SolverConfig(p=2.0, runs=2, seed=0))
        assert res.best.lam == 0.0
        assert res.best.iterations == 0

    def test_aggregate_failure(self, monkeypatch):
        def always_fails(g, cfg, x0, track=False, *, known=()):
            return solver.SolveResult(
                lam=math.nan,
                x=np.zeros(g.n),
                iterations=0,
                converged=False,
                stop_reason="numerical_failure",
                grad_norm=math.nan,
            )

        monkeypatch.setattr(solver, "solve_single", always_fails)
        with pytest.raises(SolverError):
            solver.solve_multistart(gen_complete(4, 3), SolverConfig(p=2.0, runs=3))


class TestKnownMaximum:
    """The known_maximum stop on the benchmark's closed-form instances: the
    five multistart-small instances (100 runs, seed 1) and beta-star(6,4) at
    p = 4 (40 runs, seed 0), every run traced.  The multistart stops early,
    at a certified run at p >= r and by the statistical stop at p < r, so the
    stops are read off the full run sequence that :func:`replay_runs`
    replays."""

    @pytest.fixture(scope="class")
    def instances(self):
        cases = [
            (gen_beta_star(3, 10), SolverConfig(p=3.0, seed=1), beta_star_value(3, 10, 3.0)),
            (gen_beta_star(3, 200), SolverConfig(p=3.0, seed=1), beta_star_value(3, 200, 3.0)),
            (gen_loose_path(4, 3), SolverConfig(p=4.0, seed=1), loose_path_value(4, 3)),
            (gen_complete(4, 3), SolverConfig(p=2.0, seed=1), 3.0),
            (gen_complete(10, 3), SolverConfig(p=2.0, seed=1), 6 * math.comb(10, 3) * 10**-1.5),
            (gen_beta_star(6, 4), SolverConfig(p=4.0, runs=40, seed=0), beta_star_value(6, 4, 4.0)),
        ]
        return [(g, cfg, ref, solve_multistart(g, cfg, track=True), replay_runs(g, cfg, track=True))
                for g, cfg, ref in cases]

    def test_best_is_a_grad_tol_run_at_the_closed_form(self, instances):
        for _, cfg, ref, res, replay in instances:
            assert res.best.stop_reason == "grad_tol"
            assert abs(res.best.lam - ref) <= 1e-14 * ref
            # every run of the full sequence, of which the multistart made a prefix
            assert len(replay) == cfg.runs
            assert all(abs(run.lam - ref) <= 1e-8 * ref for run in replay)
            assert res.all_lambdas == tuple(run.lam for run in replay[: len(res.all_lambdas)])

    def test_p_ge_r_instances_stop_certified_at_run_0(self, instances):
        # run 0 reaches the closed form, and its bound proves it global
        for _, cfg, ref, res, _ in instances[:3]:
            assert len(res.run_summaries) == 1 and res.certified
            assert abs(res.best.lam - ref) <= 1e-14 * ref
            assert res.best.lam <= ref * (1.0 + 1e-14) and ref <= res.upper

    def test_stopped_run_is_its_solo_run_truncated(self, instances):
        stopped = 0
        for g, cfg, _, _, replay in instances:
            for i, run in enumerate(replay):
                if run.stop_reason != "known_maximum":
                    continue
                stopped += 1
                solo = solve_single(g, cfg, draw(g.n, cfg.seed + i), track=True)
                assert solo.iterations > run.iterations == len(run.trace)
                # bit for bit: repr tells -0.0 from 0.0 and prints every float exactly
                assert list(map(repr, run.trace)) == list(map(repr, solo.trace[: run.iterations]))
        assert stopped >= 300

    def test_stopped_run_is_certified(self, instances):
        tau, eps = solver.KNOWN_GRAD_TOL, solver.KNOWN_LAM_TOL
        for g, cfg, _, res, replay in instances:
            for runs in (res.run_summaries, replay):
                for i, run in enumerate(runs):
                    if run.stop_reason != "known_maximum":
                        assert run.rejoined is None
                        continue
                    assert not run.converged and run_upper(g, cfg.p, run) is None
                    j = runs[run.rejoined]
                    assert run.rejoined < i and j.stop_reason == "grad_tol"
                    f, grad = value_and_grad(g, run.weighting, cfg.p)
                    assert f == run.lam
                    assert np.linalg.norm(grad) <= tau * f
                    assert j.lam * (1.0 - eps) <= run.lam <= j.lam

    def test_sign_mixed_stop_reports_a_stationary_weighting(self):
        # the gate reads grad f at the signed x; at a sign-mixed x the run
        # stops only if its reported |x| passes the gate too (without that
        # test, 5 of the 56 stops here read ||grad f(|x|)|| / f up to 2.3e-6)
        g = make_random_graph(np.random.default_rng(3), 40, 3, 80)
        cfg = SolverConfig(p=2.0, runs=60, seed=0)
        stopped = [run for run in replay_runs(g, cfg) if run.stop_reason == "known_maximum"]
        assert len(stopped) >= 50
        assert any((run.x < 0.0).any() and (run.x > 0.0).any() for run in stopped)
        for run in stopped:
            f, grad = value_and_grad(g, run.weighting, cfg.p)
            assert np.linalg.norm(grad) <= solver.KNOWN_GRAD_TOL * f

    def test_stop_reads_the_value_group_and_no_weighting(self):
        # beta-star(6,4) at p = 5: the maximum lies on one edge, so it has
        # four copies of one value.  A stop names the run of largest lam in
        # its value group among the runs before it, and most stops end at
        # another copy than that run's
        g = gen_beta_star(6, 4)
        runs = replay_runs(g, SolverConfig(p=5.0, runs=200, seed=0))
        stopped = far = 0
        for i, run in enumerate(runs):
            if run.stop_reason != "known_maximum":
                continue
            stopped += 1
            lam_j = runs[run.rejoined].lam
            group = [prev.lam for prev in runs[:i]
                     if prev.stop_reason in ("grad_tol", "known_maximum")
                     and abs(prev.lam - lam_j) <= solver.MAXIMA_TOL * lam_j]
            assert runs[run.rejoined].stop_reason == "grad_tol" and lam_j == max(group)
            far += np.linalg.norm(run.weighting - runs[run.rejoined].weighting) > 0.5
        assert stopped >= 150 and far >= 100
        assert not any(run.stop_reason == "line_search_failure" for run in runs)


def complete_value(n, r, p):
    """lambda^(p) of the complete r-graph, r! C(n,r) n^(-r/p): the uniform
    vector is optimal for every p >= 1."""
    return math.factorial(r) * math.comb(n, r) * n ** (-r / p)


def union_value(lam_a, lam_b, r, p):
    """lambda^(p) of a disjoint union from its parts' values at p >= r.  With
    s the p-mass on the first part the value is lam_a s^(r/p) + lam_b
    (1 - s)^(r/p), whose maximum is (lam_a^q + lam_b^q)^(1/q), q = p / (p - r),
    for p > r, and max(lam_a, lam_b) at p = r."""
    if p == r:
        return max(lam_a, lam_b)
    q = p / (p - r)
    return (lam_a**q + lam_b**q) ** (1.0 / q)


def star_and_complete():
    return disjoint_union(gen_beta_star(3, 10), gen_complete(6, 3))


def star_and_complete_value(p):
    return union_value(beta_star_value(3, 10, p), complete_value(6, 3, p), 3, p)


class TestUpperBound:
    """The Collatz-Wielandt bound at p >= r, checked as a theorem: at every
    entrywise positive point it is at least lambda^(p)."""

    @pytest.mark.parametrize(
        "build, p, exact",
        [
            (lambda: gen_beta_star(3, 10), 3.0, lambda p: beta_star_value(3, 10, p)),
            (lambda: gen_beta_star(3, 10), 3.5, lambda p: beta_star_value(3, 10, p)),
            (lambda: gen_beta_star(3, 10), 5.0, lambda p: beta_star_value(3, 10, p)),
            (lambda: gen_loose_path(4, 3), 4.0, lambda p: loose_path_value(4, 3)),
            (lambda: gen_loose_path(4, 3), 6.0, None),
            (lambda: gen_complete(6, 3), 3.0, lambda p: complete_value(6, 3, p)),
            (lambda: gen_complete(6, 3), 4.5, lambda p: complete_value(6, 3, p)),
            (star_and_complete, 4.0, star_and_complete_value),
            (star_and_complete, 6.0, star_and_complete_value),
        ],
        ids=["beta-star(3,10) p=3", "beta-star(3,10) p=3.5", "beta-star(3,10) p=5",
             "loose-path(4,3) p=4", "loose-path(4,3) p=6", "complete(6,3) p=3",
             "complete(6,3) p=4.5", "beta-star+complete(6,3) p=4", "beta-star+complete(6,3) p=6"],
    )
    def test_bound_holds_at_positive_points(self, build, p, exact):
        g = build()
        res = solve_multistart(g, SolverConfig(p=p, seed=0))
        # with no closed form, the best value found, at most lambda^(p)
        lam = exact(p) if exact is not None else res.best.lam
        assert abs(res.best.lam - lam) <= 1e-12 * lam
        assert res.certified and lam <= res.upper
        rng = np.random.default_rng(1)
        points = [rng.uniform(1e-3, 1.0, g.n) for _ in range(20)]
        points += [rng.exponential(size=g.n) for _ in range(20)]
        # around the maximizer, whose entries are all positive here
        maximizer = res.best.weighting
        assert (maximizer > 0.0).all()
        for scale in 10.0 ** np.arange(-8, 0):
            points += [maximizer * np.exp(scale * rng.standard_normal(g.n)) for _ in range(5)]
        gaps = []
        for x in points:
            upper = solver.upper_bound(g, x / np.linalg.norm(x), p)
            assert upper is not None
            gaps.append((upper - lam) / lam)
        assert min(gaps) >= -1e-14

    def test_no_bound_below_r_or_at_a_nonpositive_entry(self):
        g = gen_beta_star(3, 10)
        x = np.full(g.n, g.n**-0.5)
        assert solver.upper_bound(g, x, 2.9) is None
        assert solver.upper_bound(g, x, 3.0) is not None
        for entry in (0.0, -0.1):
            y = x.copy()
            y[3] = entry
            assert solver.upper_bound(g, y / np.linalg.norm(y), 3.0) is None

    @staticmethod
    def _read_off(g, point):
        """The bound read off ``point``, the kernel record of x after both
        stages: the formula upper_bound applies to its own record."""
        x, grad = point.x, point.grad
        if not (x > 0.0).all():
            live = np.bincount(g._incidence, minlength=g.n) > 0
            x, grad = x[live], grad[live]
            if not x.size or not (x > 0.0).all():
                return None
        upper = point.f + point.pnorm_p * float(np.max(grad / (g.r * x ** (point.p - 1.0))))
        return upper if math.isfinite(upper) else None

    @pytest.mark.parametrize("build", [
        lambda: gen_beta_star(3, 10), lambda: gen_loose_path(4, 3), lambda: gen_complete(6, 3),
        *(lambda k=k: padded(make_random_graph(np.random.default_rng(k), 40, 3, 80))
          for k in GRAPHS)],
        ids=["beta-star(3,10)", "loose-path(4,3)", "complete(6,3)",
             *(f"padded random k={k}" for k in GRAPHS)])
    def test_equals_the_bound_read_off_the_kernel_record(self, build):
        g = build()
        live = np.bincount(g._incidence, minlength=g.n) > 0
        rng = np.random.default_rng(0)
        for p in (g.r - 0.5, g.r, g.r + 0.5, 2.0 * g.r):
            points = [rng.uniform(1e-3, 1.0, g.n) for _ in range(5)]
            points += [x * live for x in points]  # zero at the isolated vertices
            points.append(np.where(np.arange(g.n) == 0, -0.5, 1.0))
            points.append(solve_multistart(g, SolverConfig(p=p, runs=1)).best.weighting)
            for x in points:
                expected = self._read_off(g, evaluated(g, x, p)) if p >= g.r else None
                # repr round-trips a float64 exactly and tells None apart
                assert repr(solver.upper_bound(g, x, p)) == repr(expected)
            assert any(solver.upper_bound(g, x, p) is not None for x in points) == (p >= g.r)

    def test_one_value_and_one_gradient_pass_from_r_on(self, monkeypatch):
        g = gen_beta_star(3, 10)
        x = np.full(g.n, g.n**-0.5)
        calls = []
        real_value, real_gradient = solver._value, solver._gradient

        def value(g, x, p):
            calls.append("value")
            return real_value(g, x, p)

        def gradient(g, point):
            calls.append("gradient")
            return real_gradient(g, point)

        monkeypatch.setattr(solver, "_value", value)
        monkeypatch.setattr(solver, "_gradient", gradient)
        assert solver.upper_bound(g, x, 2.9) is None and calls == []
        assert solver.upper_bound(g, x, 3.0) is not None and calls == ["value", "gradient"]

    def test_rejects_a_vector_of_the_wrong_shape(self):
        g = gen_beta_star(3, 10)
        for x in (np.ones(g.n + 1), np.ones((g.n, 1))):
            with pytest.raises(ValueError, match=rf"^vector has shape \({len(x)},"):
                solver.upper_bound(g, x, 3.0)

    def test_bound_holds_at_points_zero_at_isolated_vertices(self):
        # a maximizer is zero at an isolated vertex, so the bound needs x
        # positive on the vertices of positive degree only
        base = gen_beta_star(3, 10)
        g = Hypergraph.from_edges(base.n + 3, base.r, base.slots + 1, base.weights)
        lam = beta_star_value(3, 10, 3.0)
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = np.concatenate([rng.uniform(1e-3, 1.0, base.n), np.zeros(3)])
            upper = solver.upper_bound(g, x / np.linalg.norm(x), 3.0)
            assert upper is not None and upper >= lam * (1.0 - 1e-14)
            x[0] = 0.0  # a vertex of positive degree
            assert solver.upper_bound(g, x / np.linalg.norm(x), 3.0) is None

    def test_edgeless_graph_certifies_zero(self):
        # no edges: f is 0 everywhere, and run 0's bound at its positive
        # weighting is 0.0; the maximum over no vertex of positive degree
        # is never taken
        g = Hypergraph.from_edges(5, 3, np.empty((0, 3), dtype=np.int64))
        res = solve_multistart(g, SolverConfig(p=3.0))
        assert len(res.run_summaries) == 1 and res.stop == "certified"
        assert (res.best.lam, res.upper) == (0.0, 0.0)
        x = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        assert solver.upper_bound(g, x, 3.0) is None

    def test_bound_only_after_a_grad_tol_stop(self):
        # run 0 from seed 0: capped at a positive weighting, which would give
        # a bound, and then run to grad_tol
        g = gen_loose_path(4, 3)
        capped = solve_multistart(g, SolverConfig(p=4.0, max_iter=2, runs=1))
        run = capped.best
        assert run.stop_reason == "max_iter" and (run.weighting > 0.0).all()
        assert capped.upper is None and capped.stop is None
        res = solve_multistart(g, SolverConfig(p=4.0, runs=1))
        run = res.best
        assert run.stop_reason == "grad_tol"
        assert res.upper == solver.upper_bound(g, run.weighting, 4.0)
        assert run.lam <= res.upper <= run.lam * (1.0 + solver.MAXIMA_TOL)

    def test_no_certified_stop_below_r(self):
        # no run gives a bound, so only the statistical stop ends the runs
        g, cfg = gen_beta_star(3, 10), SolverConfig(p=2.0, runs=10, seed=0)
        res = solve_multistart(g, cfg)
        replay = replay_runs(g, cfg)
        assert len(res.run_summaries) == stop_run(g, cfg.p, replay) + 1 == 8
        assert res.upper is None and not res.certified and res.stop == "estimate"
        assert all(run_upper(g, cfg.p, run) is None for run in replay)

    def test_no_certified_stop_at_a_zero_entry(self):
        # p = r: the maximizer is complete(6,3)'s uniform vector, zero on the
        # star, so only the statistical stop ends the runs
        g = star_and_complete()
        cfg = SolverConfig(p=3.0, runs=20, seed=0)
        res = solve_multistart(g, cfg)
        assert len(res.run_summaries) == 8 and not res.certified and res.stop == "estimate"
        assert abs(res.best.lam - star_and_complete_value(3.0)) <= 1e-12 * res.best.lam
        assert (res.best.weighting == 0.0).any() and run_upper(g, 3.0, res.best) is None
        # a run that ends at a positive point bounds lambda^(p) from above
        assert res.upper is None or res.upper >= res.best.lam


def two_groups():
    """Two disjoint 3-edges of weights 1 and 1.5: at p < r each edge's
    uniform weighting is a local maximum, so a multistart meets two values."""
    return Hypergraph.from_edges(n=6, r=3, edges=[(1, 2, 3), (4, 5, 6)], weights=[1.0, 1.5])


class TestStatisticalStop:
    """The Boender-Rinnooy Kan stop: after N converged runs at w distinct
    values the multistart ends once w (N - 1) / (N - w - 2) < w + 0.5."""

    def test_expected_maxima(self):
        assert solver.expected_maxima(3, 1) is None  # N < w + 3
        assert solver.expected_maxima(4, 1) == 3.0
        assert solver.expected_maxima(7, 1) == 1.5
        assert solver.expected_maxima(8, 1) == 1.4
        # w = 2 first stops at N = 17
        assert solver.expected_maxima(16, 2) >= 2.5 > solver.expected_maxima(17, 2)
        # the multistart stops by the rule expected < w + 0.5 at N = 8, not 7
        cfg = SolverConfig(p=2.0, seed=1)
        for runs, stop in ((7, None), (8, "estimate")):
            res = solve_multistart(gen_complete(4, 3), replace(cfg, runs=runs))
            assert len(res.run_summaries) == runs and (res.maxima, res.stop) == (1, stop)

    @pytest.mark.parametrize(
        "build",
        [lambda: gen_complete(4, 3), lambda: gen_complete(10, 3),
         lambda: make_random_graph(np.random.default_rng(2), 12, 3, 10)],
        ids=["complete(4,3)", "complete(10,3)", "random(12,3,10)"],
    )
    def test_runs_made_are_a_prefix_of_the_full_sequence(self, build):
        g, cfg = build(), SolverConfig(p=2.0, runs=30, seed=1)
        res = solve_multistart(g, cfg)
        replay = replay_runs(g, cfg)
        made = len(res.run_summaries)
        assert made == stop_run(g, cfg.p, replay) + 1 < cfg.runs
        for run, full in zip(res.run_summaries, replay[:made]):
            assert (run.lam, run.iterations, run.stop_reason) == (
                full.lam, full.iterations, full.stop_reason)
            assert run.x.tobytes() == full.x.tobytes()
        assert res.all_lambdas == tuple(run.lam for run in replay[:made])

    def test_one_maximum_stops_after_eight_runs(self):
        res = solve_multistart(gen_complete(4, 3), SolverConfig(p=2.0, seed=1))
        assert len(res.run_summaries) == 8 and res.stop == "estimate"
        assert (res.hits, res.maxima, res.expected_maxima) == (8, 1, 1.4)
        assert {run.stop_reason for run in res.run_summaries} <= {"grad_tol", "known_maximum"}

    def test_runs_that_do_not_converge_are_not_samples(self):
        # every run stops at max_iter: no sample, so every run is made
        cfg = SolverConfig(p=2.0, runs=12, seed=1, max_iter=2)
        res = solve_multistart(gen_complete(4, 3), cfg)
        assert len(res.run_summaries) == cfg.runs and res.stop is None
        assert all(run.stop_reason == "max_iter" for run in res.run_summaries)
        assert (res.maxima, res.expected_maxima) == (0, None)

    def test_two_maxima_go_on_past_run_eight(self):
        g, cfg = two_groups(), SolverConfig(p=2.0, runs=100, seed=0)
        res = solve_multistart(g, cfg)
        replay = replay_runs(g, cfg)
        assert res.maxima == 2 and res.stop == "estimate"
        assert len(res.run_summaries) == stop_run(g, cfg.p, replay) + 1 == 17
        # the heavier edge's value, 3! 1.5 / 3^(3/2), and its hits
        best = 6 * 1.5 * 3**-1.5
        assert abs(res.best.lam - best) <= 1e-12 * best
        hits = [lam for lam in res.all_lambdas if abs(lam - best) <= solver.MAXIMA_TOL * best]
        assert res.hits == len(hits) < len(res.run_summaries)
        assert res.expected_maxima == solver.expected_maxima(17, 2)

    def test_known_maximum_run_is_a_hit_on_its_maximum(self):
        # a run that reaches run j's value ends within KNOWN_LAM_TOL below
        # lam_j, so it adds a sample and no value group
        res = solve_multistart(two_groups(), SolverConfig(p=2.0, seed=0))
        runs = res.run_summaries
        rejoined = [run for run in runs if run.stop_reason == "known_maximum"]
        assert rejoined and res.maxima == 2
        for run in rejoined:
            lam_j = runs[run.rejoined].lam
            assert lam_j * (1.0 - solver.KNOWN_LAM_TOL) <= run.lam <= lam_j
        values = {run.lam for run in runs if run.stop_reason == "grad_tol"}
        assert len(values) > res.maxima  # grad_tol runs differ in the last bits too


class TestLagrangianApprox:
    def test_schedule_values(self):
        assert lagrangian_schedule(3) == [1.0 + 1.0 / 3.0, 1.2, 1.0 + 1.0 / 7.0]
        with pytest.raises(ValueError):
            lagrangian_schedule(0)

    @pytest.mark.parametrize("steps", [2.5, 0])
    def test_steps_must_be_a_positive_integer(self, steps):
        g = Hypergraph.from_edges(n=2, r=2, edges=[(1, 2)])
        with pytest.raises(ValueError, match=rf"^need integer steps >= 1, got steps={steps}$"):
            lagrangian_approx(g, SolverConfig(p=2.0, runs=1), steps=steps)

    def test_single_edge_matches_closed_form(self):
        # a single pair edge is the one-edge star: lambda^(p) = 2 * 2^(-2/p)
        g = Hypergraph.from_edges(n=2, r=2, edges=[(1, 2)])
        cfg = SolverConfig(p=2.0, runs=5, seed=0, grad_tol=1e-10)
        approx = lagrangian_approx(g, cfg, steps=5)
        for row in approx.rows:
            ref = beta_star_value(2, 1, row.p)
            assert abs(row.lam - ref) / ref <= 1e-9
        assert approx.estimate == approx.rows[-1].normalized

    def test_every_row_starts_in_orthant(self, monkeypatch):
        starts = record_starts(monkeypatch)
        g = gen_complete(5, 3)
        cfg = SolverConfig(p=2.0, runs=4, seed=7, grad_tol=1e-6)
        steps = 3
        lagrangian_approx(g, cfg, steps=steps)
        assert len(starts) == steps * cfg.runs
        for k, x0 in enumerate(starts):
            assert x0.tobytes() == np.abs(draw(g.n, cfg.seed + k % cfg.runs)).tobytes()

    def test_estimate_approaches_simplex_value(self):
        g = Hypergraph.from_edges(n=2, r=2, edges=[(1, 2)])
        cfg = SolverConfig(p=2.0, runs=5, seed=0)
        errs = [
            abs(lagrangian_approx(g, cfg, steps=v).estimate - 0.25) for v in (1, 4, 10)
        ]
        assert errs[0] > errs[1] > errs[2]


SOLVE_PROBE = """
import numpy as np
from hyperspec import SolverConfig, gen_beta_star, random_unit_sphere, solve_single
g = gen_beta_star(3, 5000)
x0 = random_unit_sphere(g.n, np.random.default_rng(0))
print(solve_single(g, SolverConfig(p=3.0, max_iter=5), x0).x.tobytes().hex())
"""


# at n = 10001 the start's bytes already differ between 1 and 2 threads
# (sha1 15d9934c... against 96256d51...), and lam reads 27.609016422625245
# against ...057: the solver's length-n dots are BLAS dots (ROADMAP item 9).
# Strict, so the case fails once it passes; skipped on one core, where two
# BLAS threads might not split a dot
@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs 2 cores for 2 BLAS threads")
@pytest.mark.xfail(strict=True, reason="length-n dots are BLAS dots: x depends on the "
                   "BLAS thread count at n = 10001 (ROADMAP item 9)")
def test_solve_ignores_blas_threads():
    src = str(Path(hyperspec.__file__).parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", SOLVE_PROBE], capture_output=True,
                              text=True, env=env, check=True)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
