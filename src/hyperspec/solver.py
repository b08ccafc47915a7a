"""First-order spherically constrained maximization of the p-spectral objective.

One iteration: build a conjugate-gradient ascent direction from the previous
step and gradient difference, move along the Cayley-transform curve that stays
on the unit sphere, and pick the curve parameter by a Wolfe line search whose
derivative comes from the closed-form identity alpha * f'(alpha) =
-grad(x(alpha)) . x.  Multistart repeats this from uniformly random starting
points, on the sphere or on its nonnegative part, and keeps the largest value
found.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .hypergraph import Hypergraph
from .tensor_ops import _Eval, _gradient, _increment, _value


class SolverError(RuntimeError):
    """Raised when every run of a multistart solve fails numerically."""


# The paper's method constants: Wolfe constants 0 < C1 < C2 < 1, and TAU in
# (1/4, 1) and EPS > 0 of the conjugate-gradient beta formula.
C1 = 1e-4
C2 = 0.5
TAU = 0.5
EPS = 1e-6
MAX_LINESEARCH_STEPS = 40
# guaranteed direction . grad / ||grad||^2 floor, 1 - 1/(4 tau)
ASCENT_COEFF = 1.0 - 1.0 / (4.0 * TAU)
# M0 = 1 + 1/eps + tau/eps^2, the guaranteed ||direction|| / ||grad|| cap
DIRECTION_BOUND = 1.0 + 1.0 / EPS + TAU / EPS**2
# support step: entry i is penalty-dominated when its polynomial pull
# x_i * dw/dx_i is at most KAPPA times its norm penalty (axr / P) |x_i|^p
KAPPA = 0.5
# support step: tried once the last accepted step gained at most
# SUPPORT_GAIN * |f|.  Tried earlier it costs successes: on every iteration,
# beta-star(6,4) at p = 4 reached its maximum from 38 of 40 starts and
# loose-path(4,3) at p = 4 from 92 of 100; at 1e-6, loose-path(4,3) from 98.
# At 1e-8 both keep every success, and smaller values only add iterations
SUPPORT_GAIN = 1e-8
# known_maximum stop: a run stops where it has reached the value of a maximum
# that an earlier run of the same multistart converged to (see solve_single).
# Measured on the three benchmark workloads at seed 1 (multistart-small,
# tail-small-p, rank-large).  The test runs only at ||grad|| <= KNOWN_GRAD_TOL
# * |f|.  Without that gate, the second run of each rank-large graph stopped
# with ||grad f(|x|)|| / f above 1e-5, twelve weightings that are not
# stationary; at 1e-5 the worst stopped run reads 9.59e-6, and at 1e-6 it
# reads 9.16e-7, a factor 10 inside that bound
KNOWN_GRAD_TOL = 1e-6
# f must lie in [lam_j (1 - KNOWN_LAM_TOL), lam_j].  Behind the gradient gate,
# stopped runs end at most 4.0e-13 below lam_j; every value from 1e-12 to 1e-5
# stops the same runs (1e-13 stops fewer, for ten more iterations), and 1e-10
# stays 100 times inside the 1e-8 agreement that the benchmark counts as a
# success
KNOWN_LAM_TOL = 1e-10
# value groups and certified stop of the multistart, one tolerance: the 1e-8
# agreement that the benchmark counts as a success.  A converged run (stop
# reason grad_tol or known_maximum) joins the first group whose lam it lies
# within MAXIMA_TOL relative of; a known_maximum run ends within KNOWN_LAM_TOL
# below its group's lam, so it is a hit on that maximum.  The multistart ends
# after the first run at which the least Collatz-Wielandt bound so far is at
# most best lam * (1 + MAXIMA_TOL), so the best lam is then within MAXIMA_TOL
# of lambda^(p).  On beta-star(3,10), beta-star(3,200) and loose-path(4,3) at
# p = r, seeds 1, 3, 5, 7, 11 and 20, run 0 ends with a gap (upper - lam) / lam
# of 1.1e-12 to 3.6e-9.  A known_maximum run gives no bound, so at 1e-9 four
# of those 18 multistarts would make all 100 runs
MAXIMA_TOL = 1e-8


def _is_count(value, low: int, high: float = math.inf) -> bool:
    """Whether value is an integer in [low, high]; a bool is not a count."""
    return (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and low <= value <= high)


@dataclass(frozen=True)
class SolverConfig:
    """The settable solver parameters, validated on construction.

    grad_tol is the stationarity stop, max_iter the iteration cap per run,
    and runs/seed drive the multistart: at most ``runs`` runs, fewer when an
    upper bound proves the best value global or when a further maximum has
    become unlikely (:func:`solve_multistart`).
    """

    p: float
    grad_tol: float = 1e-8
    max_iter: int = 1000
    runs: int = 100
    seed: int = 0

    def __post_init__(self):
        if not 1.0 < self.p < math.inf:
            raise ValueError(f"need finite p > 1, got p={self.p}")
        if not 0.0 < self.grad_tol < math.inf:
            raise ValueError(f"need finite grad_tol > 0, got grad_tol={self.grad_tol}")
        for name, low in (("max_iter", 1), ("runs", 1), ("seed", 0)):
            if not _is_count(value := getattr(self, name), low):
                raise ValueError(f"need integer {name} >= {low}, got {name}={value!r}")


@dataclass(frozen=True)
class IterationRecord:
    """Per-iteration diagnostics; enough to re-check every runtime inequality."""

    k: int
    f: float
    gnorm: float
    ascent: float          # direction . grad, the slope the accepted search compared
    dir_norm: float
    alpha: float
    f_next: float
    curv_next: float       # grad(x_next) . direction
    step_norm: float       # ||x_next - x||
    step_pred: float       # closed-form step length for the accepted alpha
    drift: float           # | ||x_next||_2 - 1 |
    evals: int             # trials, a failed first search's included
    search: str            # the accepted search: "support", "cg", "cg_default" or "retry"
    finish: bool           # first record after a move to |x|: f = f(|x|) >= last f_next


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one solver run: estimate, weighting and optional trace.

    ``x`` is the signed final unit iterate, the run's last accepted point
    (its start if it took no step), or ``|x|`` of that point after a
    nonnegative finish whose next search failed; it is the one stored vector.
    :attr:`weighting` is ``|x|``, unit 2-norm and entrywise nonnegative;
    :meth:`weighting_scaled` rescales it to any other norm (the weighting with
    unit p-norm is the p-optimal weighting proper).
    """

    lam: float
    x: np.ndarray          # the signed final unit iterate
    iterations: int
    converged: bool
    stop_reason: str
    grad_norm: float
    evals: int = 0         # value passes of the kernel, the final lam's included
    grad_evals: int = 0    # gradient passes
    increments: int = 0    # cancellation-free increments (sub-resolution trials)
    restarts: int = 0      # second searches from an iterate after a failed CG search
    support_steps: int = 0  # accepted steps along the support direction
    finishes: int = 0      # moves from a sign-mixed converged x to |x|
    trace: tuple[IterationRecord, ...] | None = None
    rejoined: int | None = None  # after a known_maximum stop, the run whose value it reached

    @property
    def weighting(self) -> np.ndarray:
        """``|x|``, computed on each access."""
        return np.abs(self.x)

    def weighting_scaled(self, ord: float) -> np.ndarray:
        """The weighting rescaled to unit norm of the given order (e.g. 1, p
        or ``math.inf``, the max entry); raises ValueError for ord < 1, which
        names no norm."""
        if not ord >= 1.0:
            raise ValueError(f"norm order must be at least 1, got {ord}")
        weighting = self.weighting
        if ord == math.inf:
            return weighting / weighting.max()
        return weighting / float((weighting**ord).sum() ** (1.0 / ord))


@dataclass(frozen=True)
class MultistartResult:
    """Every run made's result, in run order, the best of them, the least
    upper bound on lambda^(p) at a run's weighting (None when none gave
    one), the counts of the statistical stop: ``hits``, the runs within
    MAXIMA_TOL relative of the best lam; ``maxima``, the number w of value
    groups of the converged runs; ``expected_maxima``, the posterior
    expected number of maxima after N converged runs, w (N - 1) /
    (N - w - 2), None while N < w + 3 (:func:`expected_maxima`); and
    ``stop``, the rule that ended the runs, "certified", "estimate" or None
    (:func:`solve_multistart`)."""

    best: SolveResult
    best_run: int
    all_lambdas: tuple[float, ...]
    run_summaries: tuple[SolveResult, ...]
    upper: float | None = None
    hits: int = 0
    maxima: int = 0
    expected_maxima: float | None = None
    stop: str | None = None

    @property
    def certified(self) -> bool:
        """``upper`` proves ``best.lam`` global to MAXIMA_TOL relative."""
        return self.stop == "certified"


@dataclass(slots=True)
class LineSearchResult:
    ok: bool
    alpha: float
    x: np.ndarray | None
    evals: int             # trials, one value pass each
    grad_evals: int = 0    # trials that also ran the gradient stage
    increments: int = 0    # trials whose increase came from _increment
    point: _Eval | None = None   # the accepted point's kernel record, gradient included
    increase: float = 0.0  # the accepted trial's increase over f0, an increment's included


@dataclass(frozen=True)
class ScheduleRow:
    theta: int
    p: float
    lam: float
    normalized: float      # lam / r!


@dataclass(frozen=True)
class LagrangianApproximation:
    estimate: float
    rows: tuple[ScheduleRow, ...]


def _norm(v: np.ndarray) -> float:
    """The 2-norm of a float64 vector: np.linalg.norm's own arithmetic."""
    return math.sqrt(float(v.dot(v)))


def upper_bound(g: Hypergraph, point: _Eval) -> float | None:
    """The Collatz-Wielandt bound lambda^(p) <= f(x) + P max_i grad_i /
    (r x_i^(p-1)), P = ||x||_p^p, the maximum over the vertices i of
    positive degree, for p >= r and an x positive on them, read off
    ``point``, the kernel record of x after its gradient stage.  None when
    p < r, when an entry of x at such a vertex is not positive or when the
    bound is not finite.

    The bound is max_i rho_i, rho_i = r! dw/dx_i / (r x_i^(p-1)) at
    x / ||x||_p (Friedland, Gaubert & Han, LAA 2013; Gautier, Tudisco &
    Hein, SIMAX 2019).  Proof: scale x to unit p-norm and let y >= 0 be a
    maximizer of unit p-norm.  A maximizer is zero at an isolated vertex,
    since zeroing that entry keeps w and lowers the norm, so t = max_k
    y_k / x_k, taken at k, ranges over the vertices of positive degree
    only; t >= 1 since y's unit p-mass lies on them.  On supp(y) the KKT
    condition reads r! dw/dx_k(y) = r lambda y_k^(p-1).  The weights are
    nonnegative, so dw/dx_k is monotone and dw/dx_k(y) <= t^(r-1)
    dw/dx_k(x).  With y_k = t x_k this gives lambda <= rho_k t^(r-p) <=
    max_i rho_i, as t^(r-p) <= 1 for p >= r.  Connectivity is not needed;
    for p < r the last step fails.  The maximum has no summation order, so
    the bound does not depend on the BLAS.
    """
    if point.p < g.r:
        return None
    x, grad = point.x, point.grad
    if not (x > 0.0).all():
        live = np.bincount(g._incidence, minlength=g.n) > 0
        x, grad = x[live], grad[live]
        if not x.size or not (x > 0.0).all():
            return None
    ratio = grad / (g.r * x ** (point.p - 1.0))
    upper = point.f + point.pnorm_p * float(np.max(ratio))
    return upper if math.isfinite(upper) else None


def expected_maxima(samples: int, maxima: int) -> float | None:
    """The posterior expected number of maxima, w (N - 1) / (N - w - 2), after
    N = ``samples`` converged runs that reached w = ``maxima`` distinct values
    (Boender & Rinnooy Kan, Math. Programming 37, 1987), under a uniform
    prior on the number of maxima and on their basins' relative sizes.  None
    while N < w + 3, where the posterior mean is not finite."""
    if samples < maxima + 3:
        return None
    return maxima * (samples - 1) / (samples - maxima - 2)


def random_unit_sphere(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform point on the unit 2-sphere in R^n (normalized standard normals)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    while True:
        x = rng.standard_normal(n)
        norm = _norm(x)
        if norm > 0.0:
            return x / norm


def cg_direction(
    grad: np.ndarray,
    step_prev: np.ndarray | None,
    grad_diff_prev: np.ndarray | None,
) -> np.ndarray:
    """Conjugate-gradient ascent direction grad + beta * previous step.

    beta = max(0, beta_tilde), with beta_tilde zeroed whenever the overlap
    |step . grad_diff| falls below eps * ||step|| * ||grad_diff||.  The result
    always satisfies direction . grad >= (1 - 1/(4 tau)) ||grad||^2 and
    ||direction|| <= (1 + 1/eps + tau/eps^2) ||grad||.
    """
    if step_prev is None or grad_diff_prev is None:
        return grad.copy()
    dty = float(step_prev.dot(grad_diff_prev))
    y_sq = float(grad_diff_prev.dot(grad_diff_prev))
    if abs(dty) < EPS * _norm(step_prev) * math.sqrt(y_sq) or dty == 0.0:
        return grad.copy()
    beta_tilde = (
        TAU * y_sq / dty * float(step_prev.dot(grad)) - float(grad_diff_prev.dot(grad))
    ) / dty
    if not math.isfinite(beta_tilde) or beta_tilde <= 0.0:
        return grad.copy()
    return grad + beta_tilde * step_prev


def cayley_step(
    x: np.ndarray,
    direction: np.ndarray,
    alpha: float,
    xd: float | None = None,
    dd: float | None = None,
) -> np.ndarray:
    """Point reached from unit x after a Cayley-transform move of size alpha.

    x(alpha) = ([(2 - a xd)^2 - ||a d||^2] x + 4 a d) / (4 + ||a d||^2 - (a xd)^2)
    with xd = x . d keeps the sphere in real arithmetic.  The denominator is
    checked to be positive, and the one renormalization absorbs it.  A caller
    that tries several alphas along one direction passes xd and dd = d . d,
    computed as here, so the result is the same bits.
    """
    if xd is None:
        xd = float(x.dot(direction))
    if dd is None:
        dd = float(direction.dot(direction))
    overlap = alpha * xd
    sq = alpha * alpha * dd
    denom = 4.0 + sq - overlap * overlap
    if not denom > 0.0:
        raise ArithmeticError(f"degenerate curve denominator {denom}")
    x_next = ((2.0 - overlap) ** 2 - sq) * x
    x_next += (4.0 * alpha) * direction
    x_next /= _norm(x_next)
    return x_next


def cayley_step_length(x: np.ndarray, direction: np.ndarray, alpha: float) -> float:
    """Closed-form ||x(alpha) - x|| for the Cayley move (no evaluation of x(alpha))."""
    scaled = alpha * direction
    overlap = float(x.dot(scaled))
    sq = float(scaled.dot(scaled))
    denom = 4.0 + sq - overlap * overlap
    return 2.0 * math.sqrt(max(sq - overlap * overlap, 0.0) / denom)


def support_direction(
    g: Hypergraph, point: _Eval, gnorm: float, grad_tol: float
) -> tuple[np.ndarray, float] | None:
    """Tangent direction toward the face where the penalty-dominated entries
    of x are zero, and the Cayley parameter that reaches that face.

    Entry i is in Z when x_i grad_i <= (KAPPA - 1) (r! / ||x||_p^r)
    (axr / P) |x_i|^p and |grad_i| > grad_tol, with P = ||x||_p^p, all read
    off ``point`` after its gradient stage (axr = x . grad w).  With
    s = ||x_Z||^2 the direction is d = -x_Z + (x . x_Z) x, and the Cayley
    point at alpha* = 2 / (sqrt(1 - s) (1 + sqrt(1 - s))) is zero on Z in
    exact arithmetic.  None when Z is empty or covers all of x, or when d
    misses the ascent floor or the direction cap of every CG direction.
    """
    x, grad = point.x, point.grad
    penalty = math.factorial(g.r) / point.norm_r * point.axr / point.pnorm_p
    face = (x * grad <= (KAPPA - 1.0) * penalty * point.pow_x).nonzero()[0]
    if not face.size:  # the common case near a maximizer interior to its support
        return None
    face = face[np.abs(grad[face]) > grad_tol]
    x_face = x[face]
    s = float(x_face.dot(x_face))
    if not 0.0 < s < 1.0:
        return None
    direction = s * x
    direction[face] -= x_face
    if not (
        float(direction.dot(grad)) >= ASCENT_COEFF * gnorm * gnorm
        and _norm(direction) <= DIRECTION_BOUND * gnorm
    ):
        return None
    root = math.sqrt(1.0 - s)
    return direction, 2.0 / (root * (1.0 + root))


def _interpolate(lo: float, f_lo: float, d_lo: float, hi: float, f_hi: float) -> float:
    """Quadratic-interpolation trial inside (lo, hi), safeguarded to the bracket."""
    h = hi - lo
    trial = None
    if math.isfinite(f_hi) and h > 0.0:
        curvature = (f_hi - f_lo - d_lo * h) / (h * h)
        if curvature < 0.0:
            trial = lo - d_lo / (2.0 * curvature)
    if trial is None or not math.isfinite(trial):
        trial = lo + 0.5 * h
    return min(max(trial, lo + 0.1 * h), hi - 0.1 * h)


def line_search_wolfe(
    g: Hypergraph,
    cfg: SolverConfig,
    point: _Eval,
    direction: np.ndarray,
    trial: float | None = None,
) -> LineSearchResult:
    """Find alpha > 0 on the Cayley curve satisfying both Wolfe conditions:

        f(x(alpha)) >= f0 + c1 * alpha * grad0 . direction
        grad(x(alpha)) . direction <= c2 * grad0 . direction

    where x, f0 and grad0 come from ``point``, the kernel record of x after
    its gradient stage.  Trials:
    ``trial`` when it is finite and positive, else 2 / (1 + ||direction||);
    then doubling until the peak of the curve section is bracketed (the
    increase test fails, the increase drops below the bracket floor, or the
    curve slope turns nonpositive), then safeguarded quadratic interpolation
    inside the bracket.  The bracket holds increases over f0, and the slope
    is phi'(alpha) = -grad(x(alpha)) . x / alpha.  Every trial runs the
    kernel's value stage; only a trial that passes the increase test also
    runs the gradient stage (Nocedal & Wright, Alg. 3.5).

    The search fails, with ``ok=False`` and no point, when the direction is
    not an ascent direction, when the bracket collapses, when the next trial
    equals the current one, after MAX_LINESEARCH_STEPS trials, or at the
    first trial that passes the increase test and fails the curvature test
    while its slope's sign is rounding noise: -grad(x(alpha)) . x and
    grad(x(alpha)) . (x(alpha) - x) are equal in exact arithmetic (f is
    zero-order homogeneous), and the search stops when their signs differ.

    When the increase threshold is absorbed (f0 + c1*alpha*slope == f0), the
    increase is :func:`_increment`, which does not cancel against f, and the
    trial's record takes f0 plus that increase as its ``f``.  No kernel pass
    is made at x.  An accepted step satisfies both inequalities above exactly
    as the floats are compared, and returns its kernel record as ``point``
    and its increase over f0 as ``increase``.  A trial whose grad . direction
    is not finite, as with any inf or nan gradient entry, fails the increase
    test.
    """
    x, f0 = point.x, point.f
    slope0 = float(point.grad.dot(direction))
    if not slope0 > 0.0:
        return LineSearchResult(False, 0.0, None, 0)

    lo, inc_lo, d_lo = 0.0, 0.0, slope0
    hi, inc_hi = math.inf, math.inf
    # the Cayley curve's scalars, the same for every trial
    xd, dd = float(x.dot(direction)), float(direction.dot(direction))
    if trial is None or not 0.0 < trial < math.inf:
        trial = 2.0 / (1.0 + math.sqrt(dd))
    evals = grad_evals = increments = 0
    for _ in range(MAX_LINESEARCH_STEPS):
        x_t = cayley_step(x, direction, trial, xd, dd)
        point_t = _value(g, x_t, cfg.p)
        f_t = point_t.f
        evals += 1
        required = C1 * trial * slope0
        if not math.isfinite(f_t):
            inc_t, increase_ok = -math.inf, False
        elif f0 + required == f0:
            # sub-resolution: f_t - f0 would be rounding noise
            inc_t = _increment(g, point, point_t)
            increments += 1
            increase_ok = inc_t >= required
            point_t.f = f0 + inc_t
        else:
            inc_t = f_t - f0
            increase_ok = f_t >= f0 + required
        if increase_ok:
            # only now are the curvature test and the slope read
            grad_t = _gradient(g, point_t)
            grad_evals += 1
            curv_t = float(grad_t.dot(direction))
            if not math.isfinite(curv_t):  # grad_t has an inf or nan entry
                inc_t, increase_ok = -math.inf, False
            elif curv_t <= C2 * slope0:
                return LineSearchResult(
                    True, trial, x_t, evals, grad_evals, increments, point_t, inc_t
                )
            else:
                slope_t = -float(grad_t.dot(x)) / trial
                if (slope_t > 0.0) != (float(grad_t.dot(x_t - x)) > 0.0):
                    # the two slope forms disagree: its sign is rounding noise
                    break

        current = trial
        if not increase_ok or inc_t < inc_lo or slope_t <= 0.0:
            # peak bracketed: trial overshot the rising section
            hi, inc_hi = trial, inc_t
            trial = _interpolate(lo, inc_lo, d_lo, hi, inc_hi)
        else:
            # still rising with curvature unsatisfied: move the floor up
            lo, inc_lo, d_lo = trial, inc_t, slope_t
            trial = trial * 2.0 if math.isinf(hi) else _interpolate(lo, inc_lo, d_lo, hi, inc_hi)

        if trial == current or (math.isfinite(hi) and hi - lo <= 1e-16 * max(1.0, hi)):
            break
        # the rejected trial's tables go before the next value pass builds its own
        point_t = x_t = grad_t = None
    return LineSearchResult(False, 0.0, None, evals, grad_evals, increments)


def solve_single(
    g: Hypergraph,
    cfg: SolverConfig,
    x0: np.ndarray,
    track: bool = False,
    *,
    known: tuple[tuple[int, float], ...] = (),
) -> SolveResult:
    """Run the iteration from one unit starting point.

    The iterate is its kernel record, x, f and grad included; f_k is the
    record's f, after a sub-resolution step the last f plus its increase.
    Each iteration moves to the first Wolfe search from x that succeeds:
    along the support direction from its trial alpha* (below); along the CG
    direction, or grad when rounding puts it under the ascent floor, from
    the warm trial 2 (f_k - f_{k-1}) / (direction . grad) that would repeat
    the last step's float64 value gain (Nocedal & Wright, eq. 3.60; none at
    k = 0 or after a move to |x|), or 2 * increase / (direction . grad) from
    the increase the last search measured when that gain reads 0; when the
    warm search fails, along the same direction from the default trial;
    then, unless that direction was grad, along grad from the default
    trial.  ``restarts`` counts these last two, the second searches from x.
    A trace record's ``ascent`` is the direction . grad its search compared,
    and its ``search`` names it: "support", "cg", "cg_default" or "retry".
    Stops, with ``stop_reason``: "grad_tol" at ||grad|| <= grad_tol (the
    only converged stop); "known_maximum" (below); "max_iter"; when every
    search of an iteration fails, "line_search_failure"; on a non-finite f
    or first gradient, "numerical_failure" (the line search accepts finite
    ones).

    Known maximum: ``known`` holds (run j, lam_j) pairs, the values of
    maxima that earlier runs reached, empty by default.  After the grad_tol
    test, at ||grad|| <= KNOWN_GRAD_TOL * |f|, the run stops when for some
    entry j f lies in [lam_j (1 - KNOWN_LAM_TOL), lam_j] and the value pass
    that gives lam, f(|x|), is at most lam_j; when x has entries of both
    signs, the gradient stage also runs at |x|, and the run stops only if
    ||grad f(|x|)|| <= KNOWN_GRAD_TOL * |f(|x|)|.  Otherwise the run goes
    on.  Its lam is its own f(|x|), ``converged`` is False and ``rejoined``
    names run j.  Such a stop certifies the weighting's stationarity to
    KNOWN_GRAD_TOL relative, not grad_tol, and a lam within KNOWN_LAM_TOL of
    lam_j and no larger.  The test changes no state, so the run is its run
    without ``known``, truncated: the same trace up to the stop.

    Nonnegative finish: at ||grad|| <= grad_tol with entries of both signs,
    f and grad are evaluated at |x|.  When f(|x|) is finite and
    ||grad(|x|)|| > grad_tol, the run moves to |x|, drops the CG memory and
    goes on (``finishes`` counts the moves; the next record has
    ``finish`` set); otherwise it stops with f(|x|) as its lam.

    Support step: once the last accepted step's float64 gain f_k - f_{k-1}
    is at most SUPPORT_GAIN * |f_k|, :func:`support_direction`, when it
    exists, gives the direction and the alpha* that zeroes the
    penalty-dominated entries (Hager & Zhang, SIAM J. Optim. 2006): the way
    to a face of the sphere that CG approaches only sublinearly (p < r - 1).
    A search reads a cancellation-free increment only when c1 * alpha *
    slope is under f's float64 spacing, so its step gains far less.

    The reported weighting is the entrywise absolute value of the final
    iterate, which can only increase the objective because edge weights are
    nonnegative; after a grad_tol stop it is stationary.
    """
    x = np.asarray(x0, dtype=np.float64).copy()
    if x.shape != (g.n,):
        raise ValueError(f"vector has shape {x.shape}, expected ({g.n},)")
    norm = _norm(x)
    if norm == 0.0:
        raise ValueError("starting point must be nonzero")
    x /= norm

    point = _value(g, x, cfg.p)   # the iterate, as its kernel record after both stages
    _gradient(g, point)
    evals = grad_evals = 1
    increments = restarts = support_steps = finishes = 0
    finish = False         # the last move was to |x|, not a line search step
    final: _Eval | None = None   # the value pass at |x| that the run stopped after
    rejoined: int | None = None
    trace: list[IterationRecord] = []
    step_prev: np.ndarray | None = None
    grad_diff_prev: np.ndarray | None = None
    gain_prev: float | None = None   # the last step's float64 gain f_k - f_{k-1}
    inc_prev = 0.0                   # and its increase as the search measured it
    k = 0
    while True:
        x, f, grad = point.x, point.f, point.grad
        if not math.isfinite(f) or (k == 0 and not np.isfinite(grad).all()):
            stop = "numerical_failure"
            break
        gnorm = _norm(grad)
        if gnorm <= cfg.grad_tol:
            if (x < 0.0).any() and (x > 0.0).any():
                # nonnegative finish: f(|x|) >= f(x), and |x| may not be stationary
                final = _value(g, np.abs(x), cfg.p)
                _gradient(g, final)
                evals += 1
                grad_evals += 1
                if math.isfinite(final.f) and cfg.grad_tol < _norm(final.grad) < math.inf:
                    point = final
                    # search still holds the last iterate's record
                    step_prev = grad_diff_prev = gain_prev = final = search = None
                    finishes += 1
                    finish = True
                    continue
            stop = "grad_tol"
            break
        if known and gnorm <= KNOWN_GRAD_TOL * abs(f):
            near = [(j, lam_j) for j, lam_j in known
                    if lam_j * (1.0 - KNOWN_LAM_TOL) <= f <= lam_j]
            if near:
                # the value pass of the final lam, made here instead of after the loop
                final = _value(g, np.abs(x), cfg.p)
                evals += 1
                rejoined = next((j for j, lam_j in near if final.f <= lam_j), None)
                if rejoined is not None and (x < 0.0).any() and (x > 0.0).any():
                    # the gate read grad f at x; the reported |x| must pass it too
                    _gradient(g, final)
                    grad_evals += 1
                    if not _norm(final.grad) <= KNOWN_GRAD_TOL * abs(final.f):
                        rejoined = None
                if rejoined is not None:
                    stop = "known_maximum"
                    break
                final = None
        if k >= cfg.max_iter:
            stop = "max_iter"
            break

        support = None
        if gain_prev is not None and gain_prev <= SUPPORT_GAIN * abs(f):
            support = support_direction(g, point, gnorm, cfg.grad_tol)
        step_evals = 0
        # the searches in order, each built and run only when the last failed
        for kind in ("support", "cg", "cg_default", "retry"):
            if kind == "support":
                if support is None:
                    continue
                direction, trial = support
            elif kind == "cg":
                direction = cg_direction(grad, step_prev, grad_diff_prev)
                ascent = float(direction.dot(grad))
                required = ASCENT_COEFF * gnorm * gnorm
                if not math.isfinite(ascent) or ascent < required * (1.0 - 1e-12):
                    direction, ascent = grad.copy(), gnorm * gnorm
                trial = None
                if gain_prev is not None and ascent > 0.0:
                    # a gain that reads 0 in float64 is repeated from its increase
                    trial = 2.0 * (gain_prev if gain_prev != 0.0 else inc_prev) / ascent
                    if not 0.0 < trial < math.inf:
                        trial = None
            elif kind == "cg_default":
                if trial is None:  # the CG search already began at the default
                    continue
                trial = None
                restarts += 1
            elif np.array_equal(direction, grad):
                break
            else:  # restart policy: retry the iteration with plain steepest ascent
                direction, trial = grad.copy(), None
                restarts += 1
            search = line_search_wolfe(g, cfg, point, direction, trial)
            step_evals += search.evals
            grad_evals += search.grad_evals
            increments += search.increments
            if search.ok:
                break
        evals += step_evals
        if not search.ok:
            stop = "line_search_failure"
            break

        if track:
            trace.append(
                IterationRecord(
                    k=k,
                    f=f,
                    gnorm=gnorm,
                    ascent=float(direction.dot(grad)),
                    dir_norm=_norm(direction),
                    alpha=search.alpha,
                    f_next=search.point.f,
                    curv_next=float(search.point.grad.dot(direction)),
                    step_norm=_norm(search.x - x),
                    step_pred=cayley_step_length(x, direction, search.alpha),
                    drift=abs(_norm(search.x) - 1.0),
                    evals=step_evals,
                    search=kind,
                    finish=finish,
                )
            )
        finish = False
        support_steps += kind == "support"
        step_prev = search.x - x
        grad_diff_prev = search.point.grad - grad
        gain_prev, inc_prev = search.point.f - f, search.increase
        point = search.point
        k += 1

    if final is None and math.isfinite(f):
        final = _value(g, np.abs(x), cfg.p)
        evals += 1
    return SolveResult(
        lam=final.f if final is not None else math.nan,
        x=x,
        iterations=k,
        converged=stop == "grad_tol",
        stop_reason=stop,
        grad_norm=_norm(grad),
        evals=evals,
        grad_evals=grad_evals,
        increments=increments,
        restarts=restarts,
        support_steps=support_steps,
        finishes=finishes,
        trace=tuple(trace) if track else None,
        rejoined=rejoined,
    )


def solve_multistart(
    g: Hypergraph, cfg: SolverConfig, track: bool = False, *, orthant: bool = False
) -> MultistartResult:
    """At most cfg.runs independent runs, run i from a uniform start drawn
    with seed cfg.seed + i; keep the max.  Ties keep the earliest run.

    The start of run i is ``random_unit_sphere(g.n, default_rng(cfg.seed + i))``,
    uniform on the sphere: the paper's law, and the default.  With
    ``orthant=True`` it is the entrywise absolute value of that draw, uniform
    on the sphere's nonnegative part, for callers that want the nonnegative
    maximizer (ranking, the Lagrangian schedule).  Every run reports |x|,
    and f(|x|) >= f(x); a signed run that converges at a sign-mixed critical
    point whose |x| is not stationary goes on from |x| inside
    :func:`solve_single`.

    Value groups: the multistart keeps one entry (run j, lam_j) per value
    group of the converged runs (stop reason grad_tol or known_maximum).  A
    converged run joins the first group whose lam_j it lies within
    MAXIMA_TOL relative of, or starts a new one; a grad_tol run with a
    larger lam becomes its group's entry.  Run i gets the entries of runs
    j < i (:func:`solve_single`'s ``known``), so it is its solo run from
    start i, truncated at a "known_maximum" stop.  A stopped run's lam is at
    most lam_j and ties keep the earlier run, so ``best`` is never one.

    Certified stop: at p >= r the multistart builds the kernel record of
    the weighting of every grad_tol run, a value and a gradient pass that
    no run's ``evals`` or ``grad_evals`` counts, and reads an upper bound on
    lambda^(p) off it (:func:`upper_bound`).  The multistart ends after the
    first run at which the least bound so far is at most the best lam so
    far times 1 + MAXIMA_TOL, with ``stop`` "certified".  The runs made are
    runs 0..i of the sequence above, so ``all_lambdas`` and
    ``run_summaries`` may hold fewer than cfg.runs entries.  ``upper`` is
    None when no run gave a bound, as at p < r.

    Statistical stop, at every p: a converged run is a sample, and each
    value group is one maximum.  After N samples in w groups the
    multistart ends once N >= w + 3 and w (N - 1) / (N - w - 2) < w + 0.5,
    a further maximum unlikely (Boender & Rinnooy Kan 1987; Rinnooy Kan &
    Timmer, Math. Programming 39, 1987), with ``stop`` "estimate"; with one
    maximum that is N = 8.  Runs that stop at max_iter, line_search_failure
    or numerical_failure are not samples, so stalled runs never end the
    sequence.  When neither rule held, every run is made and ``stop`` is None.
    """
    results, maxima = [], []   # maxima: the (run j, lam_j) entry of each value group
    upper, best, samples, stop = None, -math.inf, 0, None
    for i in range(cfg.runs):
        x0 = random_unit_sphere(g.n, np.random.default_rng(cfg.seed + i))
        res = solve_single(g, cfg, np.abs(x0) if orthant else x0, track, known=tuple(maxima))
        results.append(res)
        lam = res.lam
        if res.stop_reason in ("grad_tol", "known_maximum"):
            samples += 1
            group = next((k for k, (_, v) in enumerate(maxima)
                          if abs(lam - v) <= MAXIMA_TOL * abs(v)), None)
            if group is None:
                maxima.append((i, lam))
            elif res.converged and lam > maxima[group][1]:
                maxima[group] = (i, lam)
        if res.stop_reason == "grad_tol" and cfg.p >= g.r:
            point = _value(g, res.weighting, cfg.p)
            _gradient(g, point)
            bound = upper_bound(g, point)
            if bound is not None and (upper is None or bound < upper):
                upper = bound
        best = max(best, lam)  # a nan lam compares False and leaves best
        expected = expected_maxima(samples, len(maxima))
        if upper is not None and upper <= best * (1.0 + MAXIMA_TOL):
            stop = "certified"
        elif expected is not None and expected < len(maxima) + 0.5:
            stop = "estimate"
        if stop is not None:
            break
    lams = np.array([res.lam for res in results])
    if not np.isfinite(lams).any():
        raise SolverError(f"all {cfg.runs} runs failed numerically")
    best_run = int(np.nanargmax(lams))
    return MultistartResult(
        best=results[best_run],
        best_run=best_run,
        all_lambdas=tuple(float(v) for v in lams),
        run_summaries=tuple(results),
        upper=upper,
        hits=int(np.sum(np.abs(lams - best) <= MAXIMA_TOL * abs(best))),
        maxima=len(maxima),
        expected_maxima=expected,
        stop=stop,
    )


def lagrangian_schedule(steps: int) -> list[float]:
    """The p values 1 + 1/(2 theta + 1) for theta = 1..steps."""
    if not _is_count(steps, 1):
        raise ValueError(f"need integer steps >= 1, got steps={steps!r}")
    return [1.0 + 1.0 / (2 * theta + 1) for theta in range(1, steps + 1)]


def lagrangian_approx(g: Hypergraph, cfg: SolverConfig, steps: int) -> LagrangianApproximation:
    """Approximate the hypergraph Lagrangian by driving p down the schedule
    p_theta = 1 + 1/(2 theta + 1) and normalizing each p-spectral radius by r!.

    The estimate is the normalized value at the last schedule point.  Each
    schedule point's multistart starts in the nonnegative orthant
    (``solve_multistart(..., orthant=True)``), where the Lagrangian's
    simplex maximizer lies, and ends by the stops of
    :func:`solve_multistart`.  On complete(4,3) and complete(10,3), whose
    maximizer is the uniform vector at every p, every schedule point of 20
    runs stops by the estimate after 8 runs at one value.
    """
    rfact = math.factorial(g.r)
    rows = []
    for theta, p_theta in enumerate(lagrangian_schedule(steps), start=1):
        res = solve_multistart(g, replace(cfg, p=p_theta), orthant=True)
        rows.append(
            ScheduleRow(theta=theta, p=p_theta, lam=res.best.lam, normalized=res.best.lam / rfact)
        )
    return LagrangianApproximation(estimate=rows[-1].normalized, rows=tuple(rows))
