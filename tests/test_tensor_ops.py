import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperspec
from hyperspec import (
    Hypergraph,
    SolverConfig,
    gen_beta_star,
    gen_complete,
    objective,
    random_unit_sphere,
    solve_single,
    solver,
)
from hyperspec.solver import line_search_wolfe
from hyperspec.tensor_ops import _gradient, _increment, _value, value_and_grad

from conftest import evaluated, make_random_graph, random_unit


def weight_poly(g, x):
    """w(G, x) = sum_e s(e) * prod of the r slot entries, straight from the
    slot table and the weights."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (g.n,):
        raise ValueError(f"vector has shape {x.shape}, expected ({g.n},)")
    return float(g.weights @ np.prod(x[g.slots], axis=1))


def reference_products(g, x):
    """(w, dw) edge by edge: each partial is np.prod over the other slots of
    its edge, scattered onto the vertices with np.add.at."""
    entries = x[g.slots]
    w = float(g.weights @ np.prod(entries, axis=1))
    others = [np.prod(np.delete(entries, j, axis=1), axis=1) for j in range(g.r)]
    dw = np.zeros(g.n)
    np.add.at(dw, g.slots, g.weights[:, None] * np.stack(others, axis=1))
    return w, dw


def reference_value_and_grad(g, x, p, magnitudes=False):
    """f and its gradient from :func:`reference_products`.  With
    ``magnitudes`` every term enters with its absolute value, which bounds
    the rounding error of any order of summation."""
    w, dw = reference_products(g, np.abs(x) if magnitudes else x)
    norm_p = float(np.sum(np.abs(x) ** p))
    scale = math.factorial(g.r) / norm_p ** (g.r / p)
    power = np.abs(x) ** (p - 1.0) * (1.0 if magnitudes else np.sign(x))
    sign = 1.0 if magnitudes else -1.0
    return scale * w, scale * (dw + sign * (g.r * w / norm_p) * power)


def random_multiset_graph(rng, r, n, m):
    """Random r-graph on n vertices whose edges may repeat vertices."""
    edges = rng.integers(1, n + 1, size=(m, r))
    return Hypergraph.from_edges(n=n, r=r, edges=edges, weights=rng.uniform(0.5, 2.0, size=m))


def single_edge(verts, weight=1.0, n=None):
    n = n or max(verts)
    return Hypergraph.from_edges(n=n, r=len(verts), edges=[verts], weights=[weight])


class TestWeightPoly:
    def test_complete_graph_uniform(self):
        g = gen_complete(4, 3)
        x = np.full(4, 0.25)
        assert weight_poly(g, x) == pytest.approx(1.0 / 16.0, rel=1e-15)

    def test_zero_vector(self):
        assert weight_poly(gen_complete(4, 3), np.zeros(4)) == 0.0

    def test_single_weighted_edge(self):
        g = single_edge((1, 2, 3), weight=1.5)
        assert weight_poly(g, np.array([1.0, 2.0, 3.0])) == pytest.approx(9.0)

    def test_multiset_edge_repeats_multiply(self):
        g = single_edge((1, 1, 2), n=2)
        assert weight_poly(g, np.array([3.0, 2.0])) == pytest.approx(18.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            weight_poly(gen_complete(4, 3), np.ones(5))


class TestTensorApply:
    """A x^r on the kernel record, ``axr`` = x . grad w, set by the gradient
    stage; the partials grad w themselves are checked against the per-edge
    reference in TestAgainstReference."""

    def test_single_pair_edge(self):
        g = single_edge((1, 2))
        assert evaluated(g, np.array([1.0, 1.0]), 2.0).axr == pytest.approx(2.0)

    def test_complete_graph_uniform(self):
        g = gen_complete(4, 3)
        assert evaluated(g, np.full(4, 0.25), 2.0).axr == pytest.approx(3.0 / 16.0, rel=1e-15)

    def test_multiset_multiplicity_factor(self):
        # edge {1,1,2}: w = x1^2 x2, dw = (2 x1 x2, x1^2), x . dw = 3 w
        g = single_edge((1, 1, 2), n=2)
        assert evaluated(g, np.array([3.0, 5.0]), 2.0).axr == pytest.approx(135.0)

    def test_zero_entries_no_division(self):
        # w = 0 at x, so grad f is r! / ||x||_p^r times dw = (10, 0, 0)
        g = single_edge((1, 2, 3))
        point = evaluated(g, np.array([0.0, 2.0, 5.0]), 2.0)
        assert point.axr == 0.0
        assert point.grad == pytest.approx(6.0 / point.norm_r * np.array([10.0, 0.0, 0.0]))


class TestObjective:
    def test_single_edge_p2(self):
        g = single_edge((1, 2))
        x = np.array([1.0, 1.0]) / math.sqrt(2.0)
        assert objective(g, x, 2.0) == pytest.approx(1.0, rel=1e-14)

    def test_scale_invariance(self):
        g = gen_complete(5, 3)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(5)
        f1 = objective(g, x, 3.0)
        f2 = objective(g, 7.0 * x, 3.0)
        assert f2 == pytest.approx(f1, rel=1e-12)

    def test_factors_consistent_near_p_one(self):
        g = gen_complete(4, 3)
        x = np.full(4, 0.5)
        f = objective(g, x, 1.05)
        pnorm = float(np.sum(np.abs(x) ** 1.05)) ** (1.0 / 1.05)
        assert f * pnorm**3 == pytest.approx(6.0 * weight_poly(g, x), rel=1e-13)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            objective(gen_complete(4, 3), np.zeros(4), 2.0)


class TestObjectiveGrad:
    def test_symmetric_point_is_stationary(self):
        g = gen_complete(4, 3)
        _, grad = value_and_grad(g, np.full(4, 0.5), 2.0)
        assert np.all(grad == 0.0)

    def test_matches_central_differences(self):
        rng = np.random.default_rng(42)
        h = 1e-6
        for _ in range(25):
            n = int(rng.integers(3, 9))
            r = int(rng.integers(2, min(n, 4) + 1))
            g = make_random_graph(rng, n, r, int(rng.integers(1, 5)))
            p = float(rng.choice([1.5, 2.0, 3.0, 8.0]))
            x = rng.uniform(0.2, 1.0, size=n) * rng.choice([-1.0, 1.0], size=n)
            x /= np.linalg.norm(x)
            _, grad = value_and_grad(g, x, p)
            fd = np.zeros(n)
            for i in range(n):
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                fd[i] = (objective(g, xp, p) - objective(g, xm, p)) / (2 * h)
            assert np.linalg.norm(grad - fd) <= 1e-6 * np.linalg.norm(grad)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            value_and_grad(gen_complete(4, 3), np.zeros(4), 2.0)


class TestAgainstReference:
    """The kernel against the per-edge reference, to 1e-12 of the summed
    term magnitudes (plain rtol 1e-12 where no terms cancel)."""

    @staticmethod
    def check(g, x, p):
        f, grad = value_and_grad(g, x, p)
        f_ref, grad_ref = reference_value_and_grad(g, x, p)
        f_mag, grad_mag = reference_value_and_grad(g, x, p, magnitudes=True)
        assert abs(f - f_ref) <= 1e-12 * f_mag
        assert np.all(np.abs(grad - grad_ref) <= 1e-12 * grad_mag)

    @pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
    def test_random_multiset_graphs(self, r):
        rng = np.random.default_rng(100 + r)
        multisets = 0
        for _ in range(20):
            n = int(rng.integers(2, 12))
            g = random_multiset_graph(rng, r, n, int(rng.integers(1, 40)))
            multisets += int(np.count_nonzero(np.diff(g.slots, axis=1) == 0))
            x = rng.standard_normal(n)
            x[rng.random(n) < 0.25] = 0.0
            x[0] = 1.0
            self.check(g, x, float(rng.choice([1.5, 2.0, 3.0, 8.0])))
        assert multisets > 0

    def test_zero_entries(self):
        # x_1 = 0 sits once in {1,2,3} and twice in {1,1,4}: only the single
        # occurrence leaves a nonzero partial at vertex 1
        g = Hypergraph.from_edges(n=4, r=3, edges=[(1, 2, 3), (1, 1, 4), (2, 3, 4)],
                                  weights=[1.0, 2.0, 0.5])
        x = np.array([0.0, 0.6, -0.8, 0.5])
        self.check(g, x, 2.0)
        point = evaluated(g, x, 2.0)  # x_1 = 0: grad f_1 is r! / ||x||_p^r times dw_1
        assert point.grad[0] == pytest.approx(6.0 / point.norm_r * 0.6 * -0.8, rel=1e-15)

    def test_empty_graph(self):
        g = Hypergraph.from_edges(n=4, r=3, edges=[])
        assert g.m == 0
        x = np.array([0.5, -0.5, 0.5, 0.5])
        f, grad = value_and_grad(g, x, 2.0)
        assert f == 0.0 and np.array_equal(grad, np.zeros(4))
        assert evaluated(g, x, 2.0).axr == 0.0
        self.check(g, x, 2.0)

    def test_repeated_calls_bit_identical(self):
        rng = np.random.default_rng(7)
        g = random_multiset_graph(rng, 4, 30, 200)
        x, y = random_unit(rng, 30), random_unit(rng, 30)
        point = _value(g, y, 3.0)
        prefix = point.prefix.copy()
        inc = _increment(g, evaluated(g, x, 3.0), point)
        f, grad = point.f, _gradient(g, point)
        for _ in range(3):
            point2 = _value(g, y, 3.0)
            assert point2.prefix.tobytes() == prefix.tobytes()
            assert _increment(g, evaluated(g, x, 3.0), point2) == inc
            f2, grad2 = point2.f, _gradient(g, point2)
            assert f2 == f and grad2.tobytes() == grad.tobytes()

    @pytest.mark.parametrize("r", [2, 3, 5])
    def test_value_and_grad_is_the_two_stages(self, r):
        rng = np.random.default_rng(30 + r)
        g = random_multiset_graph(rng, r, 12, 60)
        x = random_unit(rng, 12)
        x[4] = 0.0
        f, grad = value_and_grad(g, x, 2.5)
        point = _value(g, x, 2.5)
        assert point.suffix is None and point.grad is None
        assert point.f == f == objective(g, x, 2.5)
        assert _gradient(g, point) is point.grad
        assert point.grad.tobytes() == grad.tobytes()
        assert point.prefix is None and point.suffix.shape == (r - 1, g.m)


def parent_gradient(g, point):
    """The gradient stage with a new array for each step of its n-sized
    tail: the reference the in-place kernel matches byte for byte."""
    entries, prefix = point.entries, point.prefix
    suffix = np.empty((g.r - 1, entries.shape[1]))
    suffix[-1] = entries[-1]
    for j in range(g.r - 3, -1, -1):
        np.multiply(entries[j + 1], suffix[j + 1], out=suffix[j])
    prefix[:-2] *= suffix
    axr1 = np.bincount(g.slots.T.ravel(), weights=prefix[:-1].ravel(), minlength=g.n)
    point.suffix, point.prefix = suffix, None
    axr = point.axr = float(point.x.dot(axr1))
    scaled = axr1 - (axr / point.pnorm_p) * np.copysign(point.abs_x ** (point.p - 1.0), point.x)
    point.grad = (math.factorial(g.r) / point.norm_r) * scaled
    return point.grad


def parent_increment(g, base, trial):
    """The increment from an (r, m) table of slot terms and a new array for
    each step of dpow: the reference the row-by-row kernel matches byte for
    byte."""
    p, r = base.p, g.r
    terms = trial.entries - base.entries
    terms *= trial.prefix[:-1]
    terms[:-1] *= base.suffix
    dw = float(np.add.reduce(np.add.reduce(terms)))
    abs_x, abs_y = base.abs_x, trial.abs_x
    with np.errstate(divide="ignore", invalid="ignore"):
        dpow = base.pow_x * np.expm1(p * np.log1p((abs_y - abs_x) / abs_x))
    if not abs_x.all():
        zeros = abs_x == 0.0
        dpow[zeros] = abs_y[zeros] ** p
    dpnorm_p = float(np.add.reduce(dpow))
    q = math.expm1((r / p) * math.log1p(dpnorm_p / base.pnorm_p))
    norm_y = (base.pnorm_p + dpnorm_p) ** (r / p)
    return math.factorial(r) / norm_y * (dw - base.w * q)


class TestBitParity:
    """The kernel gives the bytes of the reference expressions above."""

    @pytest.mark.parametrize("m", [0, 1, 2, 7, 1000])
    @pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
    def test_gradient_and_increment(self, r, m):
        rng = np.random.default_rng(10 * r + m)
        n = 50 if m > 100 else 8
        g = Hypergraph(n=n, r=r, slots=rng.integers(0, n, size=(m, r)),
                       weights=rng.uniform(0.5, 2.0, size=m))
        for p in (1.5, 2.0, 3.0):
            x = rng.standard_normal(n)
            x[rng.random(n) < 0.3] = 0.0   # exact zeros, some shared with y below
            x[0] = 0.5
            f, grad = value_and_grad(g, x, p)
            point = _value(g, x, p)
            assert f == point.f and grad.tobytes() == parent_gradient(g, point).tobytes()
            base = evaluated(g, x, p)
            assert base.axr == point.axr
            far = x.copy()
            far[rng.random(n) < 0.5] = 0.0  # entries that drop to zero or stay there
            far[1] = 0.25                   # and one that may leave zero
            for y in (x.copy(), x + 1e-12 * rng.standard_normal(n), far):
                trial = _value(g, y, p)
                got, want = _increment(g, base, trial), parent_increment(g, base, trial)
                assert got.hex() == want.hex()

    def test_empty_graph(self):
        g = Hypergraph.from_edges(n=4, r=3, edges=[])
        x = np.array([0.5, -0.5, 0.0, 0.5])
        point = _value(g, x, 2.0)
        assert value_and_grad(g, x, 2.0)[1].tobytes() == parent_gradient(g, point).tobytes()
        base, trial = evaluated(g, x, 2.0), _value(g, x[::-1].copy(), 2.0)
        assert _increment(g, base, trial).hex() == parent_increment(g, base, trial).hex()


BLAS_PROBE = """
import numpy as np
from hyperspec import Hypergraph
from hyperspec.tensor_ops import _gradient, _increment, _value, objective
rng = np.random.default_rng(5)
n, m = 4000, 20000
g = Hypergraph.from_edges(n=n, r=3, edges=rng.integers(1, n + 1, size=(m, 3)),
                          weights=rng.uniform(0.5, 2.0, size=m))
assert g.m > 10000  # long enough for a threaded BLAS dot
x = rng.uniform(0.1, 1.0, size=n)
y = x + 1e-9 * rng.standard_normal(n)
base = _value(g, x, 2.5)
_gradient(g, base)
print(objective(g, x, 2.5).hex(), _increment(g, base, _value(g, y, 2.5)).hex())
"""


def test_value_and_increment_ignore_blas_threads():
    # the gradient's x . dw is a BLAS dot and is left out
    src = str(Path(hyperspec.__file__).parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", BLAS_PROBE], capture_output=True,
                              text=True, env=env, check=True)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


class TestIncrement:
    """f(y) - f(x) as the line search evaluates it below the float64 value floor."""

    # multiset edges {1,1,2} and {3,3,3}; x has a zero entry (vertex 3)
    GRAPH = Hypergraph.from_edges(
        n=5,
        r=3,
        edges=[(1, 1, 2), (2, 3, 4), (1, 4, 5), (3, 3, 3), (2, 4, 5)],
        weights=[1.0, 1.5, 0.7, 0.4, 1.2],
    )
    X = np.array([0.5, -0.3, 0.0, 0.6, 0.4]) / math.sqrt(0.86)

    @staticmethod
    def increment(g, x, y, p):
        return _increment(g, evaluated(g, x, p), _value(g, y, p))

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_matches_float_difference_far_above_noise(self, p):
        # vertex 2 changes sign, vertex 3 leaves zero, vertex 5 drops to zero
        y = np.array([0.45, 0.1, 0.2, 0.6, 0.0])
        diff = value_and_grad(self.GRAPH, y, p)[0] - value_and_grad(self.GRAPH, self.X, p)[0]
        assert abs(diff) > 0.1
        assert self.increment(self.GRAPH, self.X, y, p) == pytest.approx(diff, rel=1e-12)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_matches_first_order_term_below_noise(self, p):
        # along y = x + alpha * u the increase tends to alpha * (grad . u); with
        # delta = y - x as stored (alpha * u up to the rounding of y) the
        # increment must match grad . delta, also where that is below the
        # spacing of f's float64 values and the raw difference is noise
        f, grad = value_and_grad(self.GRAPH, self.X, p)
        u = np.array([0.3, -0.5, 0.4, 0.2, -0.6])
        for alpha in (1e-10, 1e-13, 1e-16):
            y = self.X + alpha * u
            first_order = float(grad @ (y - self.X))
            inc = self.increment(self.GRAPH, self.X, y, p)
            assert abs(inc - first_order) <= 1e-6 * abs(first_order)
        assert abs(first_order) < 4.0 * abs(np.spacing(f))

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_zero_at_the_base_point(self, p):
        x = self.X.copy()
        assert self.increment(self.GRAPH, self.X, x, p) == 0.0

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("r", [5, 6])
    def test_higher_rank_multiset_edges(self, r, p):
        rng = np.random.default_rng(r)
        g = random_multiset_graph(rng, r, 8, 30)
        assert np.any(np.diff(g.slots, axis=1) == 0)
        x = random_unit(rng, 8)
        x[3], x[5] = 0.0, 1e-3
        # far above noise: vertex 2 changes sign, vertex 3 leaves zero
        y = x.copy()
        y[[2, 3]] = -x[2], 0.3
        diff = value_and_grad(g, y, p)[0] - value_and_grad(g, x, p)[0]
        assert abs(diff) > 1e-3
        assert self.increment(g, x, y, p) == pytest.approx(diff, rel=1e-12)
        # below noise: the first-order term, stepping the small entry x_5,
        # whose steps resolve increases far below the spacing of f
        f, grad = value_and_grad(g, x, p)
        for alpha in (1e-10, 1e-13, 1e-16, 1e-17):
            y = x.copy()
            y[5] += alpha
            first_order = float(grad @ (y - x))
            assert abs(self.increment(g, x, y, p) - first_order) <= 1e-6 * abs(first_order)
        assert abs(first_order) < 4.0 * abs(np.spacing(f))
        assert self.increment(g, x, x.copy(), p) == 0.0

    @pytest.mark.parametrize("seed", range(3))
    def test_carried_record_equals_fresh_evaluation(self, seed):
        # the record a line search returns with its accepted point was built
        # as a trial, value stage first; as the next search's base it must
        # give the increments and the search of a fresh evaluation of that point
        g, cfg = gen_beta_star(3, 10), SolverConfig(p=3.0)
        start = evaluated(g, random_unit_sphere(g.n, np.random.default_rng(seed)), 3.0)
        res = line_search_wolfe(g, cfg, start, start.grad.copy())
        carried = res.point
        assert res.ok and carried.x is res.x
        fresh = evaluated(g, res.x, 3.0)
        for name in ("entries", "suffix", "grad"):
            assert getattr(carried, name).tobytes() == getattr(fresh, name).tobytes()
        assert (carried.f, carried.axr) == (fresh.f, fresh.axr)
        rng = np.random.default_rng(seed)
        for scale in (1e-3, 1e-9, 1e-15):
            y = res.x + scale * rng.standard_normal(g.n)
            trial = _value(g, y, 3.0)
            assert _increment(g, carried, trial) == _increment(g, fresh, trial)
        direction = carried.grad + 0.3 * np.roll(carried.grad, 1)
        a = line_search_wolfe(g, cfg, carried, direction)
        b = line_search_wolfe(g, cfg, fresh, direction)
        assert a.ok and (a.alpha, a.point.f, a.evals) == (b.alpha, b.point.f, b.evals)
        assert a.grad_evals == b.grad_evals and a.x.tobytes() == b.x.tobytes()
        assert a.point.grad.tobytes() == b.point.grad.tobytes()

        # near the maximizer the accepted trial's increase is below f's
        # float64 spacing: its record's f is the base's f plus the increment,
        # and its tables are those of a fresh evaluation
        base = evaluated(g, solve_single(g, cfg, start.x).weighting, 3.0)
        res = line_search_wolfe(g, cfg, base, base.grad.copy())
        slope0 = float(base.grad @ base.grad)
        assert res.ok and res.increments > 0
        assert base.f + solver.C1 * res.alpha * slope0 == base.f
        carried, fresh = res.point, evaluated(g, res.x, 3.0)
        assert carried.f == base.f + res.increase
        for name in ("entries", "suffix", "grad"):
            assert getattr(carried, name).tobytes() == getattr(fresh, name).tobytes()
        assert carried.axr == fresh.axr


# --- property tests -----------------------------------------------------------

ps = st.sampled_from([1.5, 2.0, 3.0, 4.0, 8.0])


@st.composite
def graph_and_vector(draw):
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    r = int(rng.integers(2, min(n, 4) + 1))
    g = make_random_graph(rng, n, r, int(rng.integers(1, 6)))
    x = random_unit(rng, n)
    return g, x


@given(graph_and_vector(), ps, st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=60, deadline=None)
def test_zero_order_homogeneity(gx, p, t):
    g, x = gx
    assert objective(g, t * x, p) == pytest.approx(objective(g, x, p), rel=1e-10)


@given(graph_and_vector(), ps)
@settings(max_examples=60, deadline=None)
def test_gradient_orthogonal_to_x(gx, p):
    g, x = gx
    _, grad = value_and_grad(g, x, p)
    assert abs(float(x @ grad)) <= 1e-12 * (1.0 + np.linalg.norm(grad)) * np.linalg.norm(x)


@given(graph_and_vector())
@settings(max_examples=60, deadline=None)
def test_axr_is_r_times_weight_poly(gx):
    # distinct-vertex edges only (make_random_graph never repeats a vertex)
    g, x = gx
    axr = evaluated(g, x, 2.0).axr
    assert axr == pytest.approx(g.r * weight_poly(g, x), rel=1e-12, abs=1e-300)
