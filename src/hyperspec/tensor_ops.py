"""Matrix-free evaluation of the spherically constrained objective and gradient.

The kernel runs in two stages that share one record of the point, an
:class:`_Eval`, the solver's only handle on an iterate, its value included.
They are the only way into the edge tables: the value stage :func:`_value`
forms the p-norm, the prefix products, w and f, and the gradient stage
:func:`_gradient` the suffix products, x . grad w and ``grad``.
:func:`objective` runs the value stage alone and :func:`value_and_grad` both;
the line search runs the gradient stage only on trials that pass the
sufficient-increase test.

All operations cost O(sum of edge sizes): on the slot-major (r, m) table
``g.slots.T`` the partials come from prefix products, seeded with the edge
weights, and suffix products, built one slot row at a time, so no division
by a possibly-zero entry occurs and no order-r tensor is formed.  The
summation order is fixed, so repeated evaluations are bit-identical.  The
gradient's x . dw is the one BLAS dot, so f and the increment do not depend
on the BLAS thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hypergraph import Hypergraph


def _check_vector(g: Hypergraph, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (g.n,):
        raise ValueError(f"vector has shape {x.shape}, expected ({g.n},)")
    return x


def objective(g: Hypergraph, x: np.ndarray, p: float) -> float:
    """f(x) = r! * w(G, x) / ||x||_p^r; zero-order homogeneous in x."""
    return _value(g, _check_vector(g, x), p).f


def value_and_grad(g: Hypergraph, x: np.ndarray, p: float) -> tuple[float, np.ndarray]:
    """Objective value and gradient: the value stage, then the gradient stage."""
    point = _value(g, _check_vector(g, x), p)
    return point.f, _gradient(g, point)


@dataclass(slots=True)
class _Eval:
    """The kernel tables of one point x, (2r-1)*m floats once complete:
    :func:`_value` fills in ``prefix``, ``w`` and ``f``, :func:`_gradient`
    trades the prefix for ``suffix`` and sets ``axr`` and ``grad``.  After a
    sub-resolution step ``f`` is the base's f plus the exact increase.  A
    line search holds two records with tables, its base and its current
    trial: a rejected trial is dropped before the next one is built."""

    x: np.ndarray
    entries: np.ndarray    # (r, m) slot entries
    prefix: np.ndarray | None   # (r+1, m) prefix products, row 0 the edge weights
    abs_x: np.ndarray
    pow_x: np.ndarray      # |x|^p
    pnorm_p: float         # sum of |x|^p
    norm_r: float          # ||x||_p^r
    w: float               # the weight polynomial w(G, x)
    f: float
    p: float
    suffix: np.ndarray | None = None   # (r-1, m) products of the slots after slot j
    axr: float | None = None           # x . grad w, set by the gradient stage
    grad: np.ndarray | None = None     # grad f, set by the gradient stage


def _value(g: Hypergraph, x: np.ndarray, p: float) -> _Eval:
    """Value stage: the p-norm, the prefix products and f at x, a float64
    vector of shape (n,)."""
    abs_x = np.abs(x)
    pow_x = abs_x**p
    pnorm_p = float(np.add.reduce(pow_x))
    if pnorm_p == 0.0:
        raise ValueError("objective is undefined at the zero vector")
    norm_r = (pnorm_p ** (1.0 / p)) ** g.r
    entries = x[g.slots.T]
    prefix = np.empty((g.r + 1, entries.shape[1]))
    prefix[0] = g.weights
    for j in range(g.r):
        np.multiply(prefix[j], entries[j], out=prefix[j + 1])
    w = float(np.add.reduce(prefix[g.r]))
    f = math.factorial(g.r) * w / norm_r
    return _Eval(x, entries, prefix, abs_x, pow_x, pnorm_p, norm_r, w, f, p)


def _gradient(g: Hypergraph, point: _Eval) -> np.ndarray:
    """Gradient stage: grad f, kept on ``point`` as ``grad`` with x . grad w
    as ``axr`` and the suffix products in place of the prefix it spends.
    The slot-wise sum of the edge partials counts a repeated vertex's
    multiplicity."""
    entries, prefix = point.entries, point.prefix
    suffix = np.empty((g.r - 1, entries.shape[1]))
    suffix[-1] = entries[-1]
    for j in range(g.r - 3, -1, -1):
        np.multiply(entries[j + 1], suffix[j + 1], out=suffix[j])
    prefix[:-2] *= suffix   # row r-1 already is the last slot's partial
    axr1 = np.bincount(g._incidence, weights=prefix[:-1].ravel(), minlength=g.n)
    axr1 = axr1.astype(np.float64, copy=False)  # int64 when the index is empty
    point.suffix, point.prefix = suffix, None
    axr = point.axr = float(point.x.dot(axr1))
    penalty = point.abs_x ** (point.p - 1.0)
    np.copysign(penalty, point.x, out=penalty)
    penalty *= axr / point.pnorm_p
    axr1 -= penalty
    axr1 *= math.factorial(g.r) / point.norm_r
    point.grad = axr1
    return point.grad


def _increment(g: Hypergraph, base: _Eval, trial: _Eval) -> float:
    """f(y) - f(x) for the base point x and the trial y, evaluated without
    cancelling against f.

    Near a maximizer the increase can be far below the rounding error of f's
    float64 values, whose difference is then noise.  Here every factor is a
    difference of nearby quantities formed directly:

    * w(y) - w(x) telescopes edge by edge,
      prod(a) - prod(b) = sum_j a_1..a_{j-1} (a_j - b_j) b_{j+1}..b_r,
      from the weighted prefix products of y (``trial`` before its gradient
      stage) and the suffix products of x (``base`` after it);
    * |a|^p - |b|^p = |b|^p * expm1(p * log1p((|a| - |b|) / |b|));
    * with P = ||.||_p^p, the ratio of the normalizers
      (P(y) / P(x))^(r/p) = 1 + q, q = expm1((r/p) * log1p(dP / P(x))).

    Then f(y) - f(x) = r! / P(y)^(r/p) * (dw - w(x) * q).  The result is 0.0
    when y equals x.
    """
    p, r = base.p, g.r
    # each edge's slot terms summed in slot order from 0.0, as np.add.reduce
    # sums an (r, m) table along axis 0, without forming the table
    m = trial.entries.shape[1]
    edge_dw, term = np.zeros(m), np.empty(m)
    for j in range(r):
        np.subtract(trial.entries[j], base.entries[j], out=term)   # slot step
        term *= trial.prefix[j]
        if j < r - 1:
            term *= base.suffix[j]
        edge_dw += term
    dw = float(np.add.reduce(edge_dw))

    abs_x, abs_y = base.abs_x, trial.abs_x
    with np.errstate(divide="ignore", invalid="ignore"):
        # an entry that drops to zero has log1p(-1) = -inf, so expm1 gives -1;
        # entries where x is zero come out nan here and are set directly
        dpow = abs_y - abs_x
        dpow /= abs_x
        np.log1p(dpow, out=dpow)
        dpow *= p
        np.expm1(dpow, out=dpow)
        dpow *= base.pow_x
    if not abs_x.all():
        zeros = abs_x == 0.0
        dpow[zeros] = abs_y[zeros] ** p
    dpnorm_p = float(np.add.reduce(dpow))

    q = math.expm1((r / p) * math.log1p(dpnorm_p / base.pnorm_p))
    norm_y = (base.pnorm_p + dpnorm_p) ** (r / p)
    return math.factorial(r) / norm_y * (dw - base.w * q)
