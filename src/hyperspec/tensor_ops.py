"""Matrix-free evaluation of the spherically constrained objective, its
gradient and the adjacency-tensor products.

One kernel, :func:`_value_grad_prefix`, forms the p-norm, the r! scaling and
the gradient; :func:`objective` and :func:`value_and_grad` are views of it and
:func:`tensor_apply` is a view of the edge products beneath it.

All operations are pure functions of (hypergraph, vector, p) and cost
O(sum of edge sizes) arithmetic: on the slot-major (r, m) table ``g.slots.T``
the partial products of the other slot entries come from prefix and suffix
products built one slot row at a time, so no division by possibly-zero
entries ever occurs and no order-r tensor is materialized.  Accumulation
order is fixed (slot, then edge order, then numpy's pairwise summation), so
repeated evaluations are bit-identical.
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


def _edge_products(g: Hypergraph, x: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Return (w, dw, prefix): the weight polynomial, its gradient dw_i = dw/dx_i
    and the (r+1, m) prefix products, prefix[j, e] = product of the first j
    slot entries of edge e.

    For an edge with repeated vertices the slot-wise sum automatically yields
    the multiplicity factor of the partial derivative.
    """
    entries = x[g.slots.T]                     # (r, m): row j holds slot j
    prefix = np.empty((g.r + 1, g.m))
    prefix[0], prefix[1] = 1.0, entries[0]
    for j in range(1, g.r):
        np.multiply(prefix[j], entries[j], out=prefix[j + 1])
    w = float(g.weights @ prefix[g.r])
    partials = _suffix_products(entries)[1:]
    partials *= prefix[:-1]
    partials *= g.weights
    dw = np.bincount(g.slots.T.ravel(), weights=partials.ravel(), minlength=g.n)
    return w, dw, prefix


def _suffix_products(entries: np.ndarray) -> np.ndarray:
    """(r+1, m) suffix products of the (r, m) slot entries: row j = slots j..r-1."""
    r, m = entries.shape
    suffix = np.empty((r + 1, m))
    suffix[r], suffix[r - 1] = 1.0, entries[r - 1]
    for j in range(r - 2, -1, -1):
        np.multiply(entries[j], suffix[j + 1], out=suffix[j])
    return suffix


def tensor_apply(g: Hypergraph, x: np.ndarray) -> tuple[float, np.ndarray]:
    """Adjacency-tensor products (A x^r, A x^{r-1}) without forming the tensor.

    ``axr1[i]`` is the partial derivative of the weight polynomial at x_i
    (multiplicity factors included for multiset edges) and ``axr`` is defined
    as x . axr1, which keeps the scalar/vector identity exact and equals
    r * w(G, x) up to round-off.
    """
    x = _check_vector(g, x)
    _, axr1, _ = _edge_products(g, x)
    axr = float(x @ axr1)
    return axr, axr1


def signed_power(x: np.ndarray, q: float) -> np.ndarray:
    """Componentwise |x_i|^q * sgn(x_i)."""
    if q <= 0:
        raise ValueError(f"exponent must be positive, got {q}")
    x = np.asarray(x, dtype=np.float64)
    return np.sign(x) * np.abs(x) ** q


def objective(g: Hypergraph, x: np.ndarray, p: float) -> float:
    """f(x) = r! * w(G, x) / ||x||_p^r; zero-order homogeneous in x."""
    return _value_grad_prefix(g, x, p)[0]


def value_and_grad(g: Hypergraph, x: np.ndarray, p: float) -> tuple[float, np.ndarray]:
    """Objective value and gradient in one kernel pass (the solver's hot loop)."""
    f, grad, _ = _value_grad_prefix(g, x, p)
    return f, grad


def _value_grad_prefix(
    g: Hypergraph, x: np.ndarray, p: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """:func:`value_and_grad` plus the (r+1, m) edge prefix products of x,
    which :func:`_increment` reuses when x is a line-search trial."""
    x = _check_vector(g, x)
    pnorm_p = float(np.sum(np.abs(x) ** p))
    if pnorm_p == 0.0:
        raise ValueError("objective is undefined at the zero vector")
    pnorm = pnorm_p ** (1.0 / p)
    w, axr1, prefix = _edge_products(g, x)
    axr = float(x @ axr1)
    rfact = math.factorial(g.r)
    f = rfact * w / pnorm**g.r
    grad = (rfact / pnorm**g.r) * (axr1 - (axr / pnorm_p) * signed_power(x, p - 1.0))
    return f, grad, prefix


@dataclass(frozen=True)
class _IncrementBase:
    """The factors of a base point x that :func:`_increment` needs, fixed over
    one line search."""

    x: np.ndarray
    suffix: np.ndarray     # (r+1, m) suffix products of x's slot entries
    abs_x: np.ndarray
    zeros: np.ndarray      # indices where x is zero
    pow_x: np.ndarray      # |x|^p
    pnorm_p: float         # sum of |x|^p
    w: float               # w(G, x)
    p: float


def _increment_base(g: Hypergraph, x: np.ndarray, p: float) -> _IncrementBase:
    """Precompute the factors of x for increments f(y) - f(x)."""
    x = _check_vector(g, x)
    suffix = _suffix_products(x[g.slots.T])
    abs_x = np.abs(x)
    pow_x = abs_x**p
    return _IncrementBase(
        x=x,
        suffix=suffix,
        abs_x=abs_x,
        zeros=np.flatnonzero(x == 0.0),
        pow_x=pow_x,
        pnorm_p=float(np.sum(pow_x)),
        w=float(g.weights @ suffix[0]),
        p=p,
    )


def _increment(
    g: Hypergraph, base: _IncrementBase, y: np.ndarray, prefix_y: np.ndarray
) -> float:
    """f(y) - f(x) for the base point x, evaluated without cancelling against f.

    Near a maximizer the increase can be far below the rounding error of f's
    float64 values, whose difference is then noise.  Here every factor is a
    difference of nearby quantities formed directly:

    * w(y) - w(x) telescopes edge by edge,
      prod(a) - prod(b) = sum_j a_1..a_{j-1} (a_j - b_j) b_{j+1}..b_r,
      from the (r+1, m) prefix products of y (``prefix_y``, as returned by
      :func:`_value_grad_prefix`) and the suffix products of x;
    * |a|^p - |b|^p = |b|^p * expm1(p * log1p((|a| - |b|) / |b|));
    * with P = ||.||_p^p, the ratio of the normalizers
      (P(y) / P(x))^(r/p) = 1 + q, q = expm1((r/p) * log1p(dP / P(x))).

    Then f(y) - f(x) = r! / P(y)^(r/p) * (dw - w(x) * q).  The result is 0.0
    when y equals x.
    """
    x, p, r = base.x, base.p, g.r
    terms = (y - x)[g.slots.T]                 # (r, m) slot steps
    terms *= prefix_y[:-1]
    terms *= base.suffix[1:]
    dw = float(g.weights @ terms.sum(axis=0))

    abs_y = np.abs(y)
    with np.errstate(divide="ignore", invalid="ignore"):
        # an entry that drops to zero has log1p(-1) = -inf, so expm1 gives -1;
        # entries where x is zero come out nan here and are set directly
        dpow = base.pow_x * np.expm1(p * np.log1p((abs_y - base.abs_x) / base.abs_x))
    dpow[base.zeros] = abs_y[base.zeros] ** p
    dpnorm_p = float(np.sum(dpow))

    q = math.expm1((r / p) * math.log1p(dpnorm_p / base.pnorm_p))
    norm_y = (base.pnorm_p + dpnorm_p) ** (r / p)
    return math.factorial(r) / norm_y * (dw - base.w * q)
