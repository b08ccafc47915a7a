"""Uniform weighted hypergraph data model, validation and file I/O.

A hypergraph is two arrays: an (m, r) table of 0-based vertex slots, one row
per edge, and the (m,) edge weights.  Vertices are numbered 1..n in the
public API (``from_edges``) and in the edge-list file format.
Edges are multisets: a vertex may appear several times inside one edge.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import TextIO

import numpy as np


class ParseError(ValueError):
    """Raised when an edge-list file cannot be parsed."""


@dataclass(frozen=True, eq=False)
class Hypergraph:
    """An r-uniform weighted (multi-)hypergraph on vertices 1..n.

    ``slots`` is the (m, r) int64 table of 0-based vertex ids and ``weights``
    the (m,) float64 edge weights; both are stored read-only, ``slots``
    column-major so that ``slots.T`` is the C-contiguous (r, m) table the
    objective kernel reads.  Instances built through :meth:`from_edges` or
    :func:`parse_edge_list` are canonical: each row sorted nondecreasing,
    duplicate rows merged by summing weights, rows in lexicographic order
    (both through one int64 key per row).  The raw constructor performs no
    checks so that :func:`validate` can report violations.
    """

    n: int
    r: int
    slots: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        for name, dtype in (("slots", np.int64), ("weights", np.float64)):
            array = np.array(getattr(self, name), dtype=dtype, order="F")
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    def __eq__(self, other):
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return (
            (self.n, self.r) == (other.n, other.r)
            and np.array_equal(self.slots, other.slots)
            and np.array_equal(self.weights, other.weights)
        )

    @classmethod
    def from_edges(cls, n: int, r: int, edges, weights=None) -> "Hypergraph":
        """Build a canonical hypergraph from an (m, r) array of 1-based vertex
        ids and optional (m,) weights (default 1.0 each), merging duplicate
        edges by weight sum.  Ids and weights must have an integer or float
        dtype; n, r and every float id must be whole numbers."""
        if not (float(n).is_integer() and float(r).is_integer()):
            raise ValueError(f"n and r must be integers, got n={n!r} r={r!r}")
        n, r = int(n), int(r)
        edges = _numeric("edges", edges)
        if edges.size == 0:
            edges = edges.reshape(0, r)
        if edges.ndim != 2 or edges.shape[1] != r:
            raise ValueError(f"edges have shape {edges.shape}, expected (m, {r})")
        if edges.dtype.kind == "f":  # an int64 cast would truncate silently
            bad = ~(np.isfinite(edges) & (edges == np.trunc(edges)))
            if bad.any():
                raise ValueError(f"edge {np.argwhere(bad)[0, 0]}: vertex id not an integer")
        if edges.dtype.kind in "uf":  # ids outside [1, n] become 0, so none wraps in the cast
            edges = np.where((edges >= 1) & (edges <= min(n, 2**62)), edges, 0)
        weights = np.ones(len(edges)) if weights is None else _numeric("weights", weights)
        if weights.ndim != 1:
            raise ValueError(f"weights have shape {weights.shape}, expected ({len(edges)},)")
        if len(weights) != len(edges):
            raise ValueError(f"{len(weights)} weights for {len(edges)} edges")
        slots, merged, _ = _merge(edges.astype(np.int64, copy=False), weights)
        g = cls(n=n, r=r, slots=slots, weights=merged)
        if problems := validate(g):
            raise ValueError("invalid hypergraph: " + "; ".join(problems))
        return g

    @property
    def m(self) -> int:
        """Number of (merged) edges."""
        return len(self.slots)


def _numeric(name: str, values) -> np.ndarray:
    """``values`` as an array, which must have an integer or float dtype."""
    values = np.asarray(values)
    if values.dtype.kind not in "iuf":
        raise ValueError(f"{name} must have an integer or float dtype, got {values.dtype}")
    return values


def _merge(edges: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sorted distinct 0-based rows of the (m, r) int64 ``edges``, their summed
    (m,) ``weights`` as float64, and the row each input edge was merged into.
    One argsort of the row keys orders the rows; weights are summed in input
    order."""
    rows = np.sort(edges, axis=1) - 1
    keys = _row_keys(rows)
    order = keys.argsort()  # need not be stable: equal keys are equal rows
    keys = keys[order]
    first = np.ones(len(rows), dtype=bool)      # row starts a run of equal rows
    first[1:] = keys[1:] != keys[:-1]
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(first) - 1
    slots = rows[order[first]]
    return slots, np.bincount(inverse, weights=weights, minlength=len(slots)), inverse


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One int64 per row of the (m, r) int64 ``rows``, equal for equal rows and
    sorted as the rows are: the row as a base-w number (w the span of the
    values) when w**r < 2**63, else its words of k such ids (its ids when
    w >= 2**63) ranked and read in pairs over log2(r / k) rounds."""
    m, r = rows.shape
    if m < 2 or r == 0:  # nothing to order: skip the work over the r columns
        return np.zeros(m, dtype=np.int64)
    lo = int(np.minimum.reduce(rows, axis=None))
    w = int(np.maximum.reduce(rows, axis=None)) - lo + 1
    if k := min(r, 63 // w.bit_length()):  # k ids a word, w**k < 2**63; the last padded
        table, rows = rows, np.zeros((m, -(-r // k) * k), dtype=np.int64)
        np.subtract(table, lo, out=rows[:, :r])
        rows = rows.reshape(m, -1, k) @ w ** np.arange(k - 1, -1, -1)
    while rows.shape[1] > 1:  # rank the even and the odd words apart, then read pairs
        (_, even), (values, odd) = [np.unique(rows[:, j::2], return_inverse=True) for j in (0, 1)]
        rows = even.reshape(m, -1) * len(values)  # a last even word pairs with a zero
        rows[:, :odd.size // m] += odd.reshape(m, -1)
    return rows[:, 0]


def validate(g: Hypergraph) -> list[str]:
    """Check every hypergraph invariant; return one message per kind of
    violation, naming the first edge position that shows it, or none for a
    valid canonical hypergraph.  Row order and duplicates come from row keys."""
    problems: list[str] = []
    if g.n < 1:
        problems.append(f"vertex count must be positive, got {g.n}")
    if g.r < 2:
        problems.append(f"edge cardinality must be at least 2, got {g.r}")
    slots, weights = g.slots, g.weights
    if slots.ndim != 2 or slots.shape[1] != g.r:
        return problems + [f"edges have {slots.shape[-1]} slots, expected {g.r}"]
    if weights.shape != (len(slots),):
        return problems + [f"{weights.size} weights for {len(slots)} edges"]
    keys = _row_keys(slots)
    duplicate = np.zeros(len(keys), dtype=bool)
    duplicate[1:] = keys[1:] == keys[:-1]   # in lexicographic order copies follow the first
    if (keys[1:] < keys[:-1]).any():
        duplicate = np.ones(len(keys), dtype=bool)
        duplicate[np.unique(keys, return_index=True)[1]] = False
    # no int64 id names slot 2**63 - 1, but id -2**63 wraps to it in from_edges
    top = min(g.n, 2**63 - 1)
    checks = [
        (((slots < 0) | (slots >= top)).any(axis=1), f"vertex out of range [1, {g.n}]"),
        ((slots[:, 1:] < slots[:, :-1]).any(axis=1), "vertex slots not in nondecreasing order"),
        (~(weights > 0.0), "nonpositive weight"),
        (np.isinf(weights), "infinite weight"),
        (duplicate, "duplicate of an earlier edge"),
    ]
    for bad, what in checks:
        count = int(np.count_nonzero(bad))
        if count:
            more = f" (and {count - 1} more)" if count > 1 else ""
            problems.append(f"edge {int(np.argmax(bad))}: {what}{more}")
    return problems


def parse_edge_list(source: str | TextIO) -> Hypergraph:
    """Parse the edge-list text format into a canonical hypergraph.

    Format: '#' comment lines anywhere, first non-comment line "r n", then one
    edge per line as r whitespace-separated 1-based vertex ids followed by an
    optional positive weight (default 1.0).  Duplicate edges are merged by
    summing their weights.  Every ParseError names the offending line.

    One front end scans the header and raises its errors; one of two body
    readers turns the rest into id and weight arrays: :func:`_read_table`
    when one ``np.loadtxt`` call reads the body, :func:`_read_lines`
    otherwise.  Both feed the same id, weight and merged-sum checks, so a
    file gives the same graph or the same error whichever reader took it.
    """
    text = source if isinstance(source, str) else source.read()
    start, lineno = 0, 1
    while True:  # the header is the first line that is neither blank nor a comment
        end = text.find("\n", start)
        end = len(text) if end < 0 else end
        tokens = _tokens(text[start:end])
        if tokens:
            break
        if end == len(text):
            raise ParseError("empty input: missing 'r n' header line")
        start, lineno = end + 1, lineno + 1
    if len(tokens) != 2:
        raise ParseError(f"line {lineno}: header must be 'r n', got {text[start:end].strip()!r}")
    try:
        r, n = int(tokens[0]), int(tokens[1])
    except ValueError:
        raise ParseError(f"line {lineno}: header must be two integers") from None
    if r < 2 or n < 1:
        raise ParseError(f"line {lineno}: need r >= 2 and n >= 1, got r={r} n={n}")
    body, first = text[end + 1:], lineno + 1
    edges, weights = _read_table(body, r) or _read_lines(body, r, n, first)
    # weights are checked line by line, since a negative one can merge into a
    # positive sum; from_edges rejects out-of-range ids and overflowing sums
    bad_weights = ~((weights > 0.0) & (weights < np.inf))
    if not bad_weights.any():
        try:
            return Hypergraph.from_edges(n=n, r=r, edges=edges, weights=weights)
        except ValueError:
            pass
    numbers = [k for k, _ in _data_lines(body, first)]
    for bad, what in (
        (((edges < 1) | (edges > n)).any(axis=1), f"vertex id out of range [1, {n}]"),
        (bad_weights, "weight must be positive and finite"),
    ):
        if bad.any():
            raise ParseError(f"line {numbers[int(np.argmax(bad))]}: {what}")
    # every line passed its checks, so a merged weight overflowed
    _, merged, inverse = _merge(edges, weights)
    lines = [numbers[k] for k in np.flatnonzero(np.isinf(merged)[inverse])]
    raise ParseError(
        f"line {lines[-1]}: weights of the duplicate edges on lines "
        f"{', '.join(map(str, lines))} sum to inf"
    )


def _tokens(line: str) -> list[str]:
    """The tokens of a line, none for a blank line or a comment."""
    tokens = line.split()
    return [] if tokens and tokens[0].startswith("#") else tokens


def _data_lines(body: str, first: int):
    """(number, tokens) of each data line of ``body``, whose first line is ``first``."""
    lines = enumerate(map(_tokens, body.split("\n")), first)
    return ((k, tokens) for k, tokens in lines if tokens)


# The characters of a body the table read takes.  On them Python's int and
# float and numpy's text parser accept the same tokens with the same values.
_TABLE_ALPHABET = b"0123456789+-.eE \t\n"


def _read_table(body: str, r: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The (m, r) ids and (m,) weights of a body that one ``np.loadtxt``
    call reads, or None for any other body; it never raises.

    The table read takes a body without comments, with only the characters
    of ``_TABLE_ALPHABET`` and with every data line carrying the token count
    of the first, r ids or r ids and a weight; its rows are then the body's
    nonblank lines in order.  Any other body is left to :func:`_read_lines`.
    """
    if not body.isascii() or body.encode().translate(None, _TABLE_ALPHABET):
        return None
    width = len(body.lstrip().partition("\n")[0].split())  # of the first data line
    if width not in (r, r + 1):  # also an empty body
        return None
    fields = [("ids", np.int64, (r,))] + [("w", np.float64)] * (width - r)
    try:
        with warnings.catch_warnings():
            # numpy before 2.0 reads an id such as "1.0" through float, with a warning
            warnings.simplefilter("error")
            table = np.loadtxt(body.split("\n"), dtype=fields, comments=None, ndmin=1)
    except (ValueError, OverflowError, Warning):
        return None
    return table["ids"], (table["w"] if width > r else np.ones(len(table)))


def _read_lines(body: str, r: int, n: int, first: int) -> tuple[np.ndarray, np.ndarray]:
    """The ids and weights of any body, read line by line; raises the
    ParseError of a line's tokens or of an id beyond int64."""
    ids, weights = [], []
    for lineno, tokens in _data_lines(body, first):
        if len(tokens) not in (r, r + 1):
            raise ParseError(
                f"line {lineno}: expected {r} vertex ids and an optional weight, "
                f"got {len(tokens)} tokens"
            )
        try:
            ids.extend(map(int, tokens[:r]))
        except ValueError:
            raise ParseError(f"line {lineno}: vertex ids must be integers") from None
        try:
            weights.append(float(tokens[r]) if len(tokens) > r else 1.0)
        except ValueError:
            raise ParseError(f"line {lineno}: weight must be a number") from None
    try:
        return np.array(ids, dtype=np.int64).reshape(-1, r), np.array(weights, dtype=np.float64)
    except OverflowError:  # an id beyond int64, which n + 1 may not fit either
        k = next(k for k, v in enumerate(ids) if not 1 <= v <= min(n, 2**63 - 1))
        what = f"out of range [1, {n}]" if not 1 <= ids[k] <= n else "beyond int64"
        lineno = [number for number, _ in _data_lines(body, first)][k // r]
        raise ParseError(f"line {lineno}: vertex id {what}") from None


def serialize_edge_list(g: Hypergraph) -> str:
    """Emit the edge-list format with explicit weights; inverse of parse_edge_list."""
    lines = [f"{g.r} {g.n}"]
    for row, w in zip((g.slots + 1).tolist(), g.weights.tolist()):
        lines.append(" ".join(map(str, row)) + f" {w!r}")
    return "\n".join(lines) + "\n"
