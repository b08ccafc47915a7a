"""Uniform weighted hypergraph data model, validation and file I/O.

A hypergraph is two arrays: an (m, r) table of 0-based vertex slots, one row
per edge, and the (m,) edge weights.  Vertices are numbered 1..n in the
public API (``from_edges``, ``degree``) and in the edge-list file format.
Edges are multisets: a vertex may appear several times inside one edge.
"""

from __future__ import annotations

import io
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
    duplicate rows merged by summing weights, rows in lexicographic order.
    The raw constructor performs no checks so that :func:`validate` can
    report violations.
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
        """Build a canonical hypergraph from an (m, r) array-like of 1-based
        vertex ids and optional (m,) weights (default 1.0 each), merging
        duplicate edges by weight sum."""
        slots, merged, _ = _merge(edges, r, weights)
        g = cls(n=int(n), r=int(r), slots=slots, weights=merged)
        problems = validate(g)
        if problems:
            raise ValueError("invalid hypergraph: " + "; ".join(problems))
        return g

    @property
    def m(self) -> int:
        """Number of (merged) edges."""
        return len(self.slots)


def _merge(edges, r, weights=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sorted distinct 0-based rows of ``edges``, their summed weights, and
    the row each input edge was merged into.  Weights are summed in input
    order."""
    edges = np.asarray(edges, dtype=np.int64)
    if edges.size == 0:
        edges = edges.reshape(0, r)
    rows = np.sort(edges, axis=1) - 1
    order = np.lexsort(rows.T[::-1])            # column 0 is the primary key
    rows = rows[order]
    first = np.ones(len(rows), dtype=bool)      # row starts a run of equal rows
    first[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(first) - 1
    slots = rows[first]
    if weights is None:
        weights = np.ones(len(edges))
    merged = np.bincount(inverse, weights=np.asarray(weights, dtype=np.float64),
                         minlength=len(slots))
    return slots, merged, inverse


def validate(g: Hypergraph) -> list[str]:
    """Check every hypergraph invariant; return one message per kind of
    violation, naming the first edge position that shows it.

    An empty list means the instance is a valid canonical hypergraph.
    """
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
    duplicate = _repeats_of_previous(slots)
    if duplicate is None:  # rows out of lexicographic order
        duplicate = np.ones(len(slots), dtype=bool)
        duplicate[np.unique(slots, axis=0, return_index=True)[1]] = False
    checks = [
        (((slots < 0) | (slots >= g.n)).any(axis=1), f"vertex out of range [1, {g.n}]"),
        ((np.diff(slots, axis=1) < 0).any(axis=1), "vertex slots not in nondecreasing order"),
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


def _repeats_of_previous(slots: np.ndarray) -> np.ndarray | None:
    """Mask of the rows equal to the row before, or None unless the rows are
    in lexicographic order, where every later copy of a row follows the
    first."""
    later, earlier = slots[1:], slots[:-1]
    equal = np.ones(len(later), dtype=bool)      # equal on the columns so far
    ascending = np.zeros(len(later), dtype=bool)
    for j in range(slots.shape[1]):
        ascending |= equal & (later[:, j] > earlier[:, j])
        equal &= later[:, j] == earlier[:, j]
    if not (ascending | equal).all():
        return None
    repeats = np.zeros(len(slots), dtype=bool)
    repeats[1:] = equal
    return repeats


def degree(g: Hypergraph, vertex: int) -> float:
    """Sum of weights of edges containing ``vertex`` (once per edge, even for repeats)."""
    if not 1 <= vertex <= g.n:
        raise ValueError(f"vertex {vertex} out of range [1, {g.n}]")
    return float(g.weights[(g.slots == vertex - 1).any(axis=1)].sum())


def parse_edge_list(source: str | TextIO) -> Hypergraph:
    """Parse the edge-list text format into a canonical hypergraph.

    Format: '#' comment lines anywhere, first non-comment line "r n", then one
    edge per line as r whitespace-separated 1-based vertex ids followed by an
    optional positive weight (default 1.0).  Duplicate edges are merged by
    summing their weights.  Every ParseError names the offending line.

    A file whose data lines form one uniform numeric table is read in a
    single call (:func:`_read_table`); every other file, and every file with
    an error, goes through the per-line scanner.  Both give the same graph.
    """
    text = source if isinstance(source, str) else source.read()
    g = _read_table(text)
    return g if g is not None else _scan_edge_list(text)


# The characters of a body the table read takes.  On them Python's int and
# float and numpy's text parser accept the same tokens with the same values.
_TABLE_ALPHABET = b"0123456789+-.eE \t\n"


def _read_table(text: str) -> Hypergraph | None:
    """The graph of a file whose body after the "r n" header is one table
    read by a single ``np.loadtxt``, or None when the file is not of that
    kind or not valid; it never raises.

    The table read takes a body without comments, with only the characters
    of ``_TABLE_ALPHABET`` and with every data line carrying the token count
    of the first, r ids or r ids and a weight.  Anything else, and any file
    the checks reject, is left to :func:`_scan_edge_list`, which parses it or
    raises the ParseError that names the line.
    """
    start = 0
    while True:  # the header is the first line that is neither blank nor a comment
        end = text.find("\n", start)
        end = len(text) if end < 0 else end
        tokens = text[start:end].split()
        if tokens and not tokens[0].startswith("#"):
            break
        if end == len(text):
            return None
        start = end + 1
    if len(tokens) != 2:
        return None
    try:
        r, n = int(tokens[0]), int(tokens[1])
    except ValueError:
        return None
    body = text[end + 1:]
    if r < 2 or n < 1 or not body.isascii() or body.encode().translate(None, _TABLE_ALPHABET):
        return None
    width = len(body.lstrip().partition("\n")[0].split())  # of the first data line
    if width not in (r, r + 1):  # also an empty body
        return None
    fields = [("ids", np.int64, (r,))] + [("w", np.float64)] * (width - r)
    try:
        with warnings.catch_warnings():
            # numpy before 2.0 reads an id such as "1.0" through float, with a warning
            warnings.simplefilter("error")
            table = np.loadtxt(io.StringIO(body), dtype=fields, comments=None, ndmin=1)
    except (ValueError, OverflowError, Warning):
        return None
    weights = table["w"] if width > r else None
    # weights are checked line by line, since a negative one can merge into a
    # positive sum; from_edges rejects out-of-range ids and overflowing sums
    if weights is not None and not ((weights > 0.0) & (weights < np.inf)).all():
        return None
    try:
        return Hypergraph.from_edges(n=n, r=r, edges=table["ids"], weights=weights)
    except ValueError:
        return None


def _scan_edge_list(text: str) -> Hypergraph:
    """The per-line parser of :func:`parse_edge_list`: any text, any error."""
    r = n = None
    ids: list[int] = []
    weights: list[float] = []
    linenos: list[int] = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if r is None:
            if len(tokens) != 2:
                raise ParseError(f"line {lineno}: header must be 'r n', got {line.strip()!r}")
            try:
                r, n = int(tokens[0]), int(tokens[1])
            except ValueError:
                raise ParseError(f"line {lineno}: header must be two integers") from None
            if r < 2 or n < 1:
                raise ParseError(f"line {lineno}: need r >= 2 and n >= 1, got r={r} n={n}")
            continue
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
        linenos.append(lineno)

    if r is None:
        raise ParseError("empty input: missing 'r n' header line")
    try:
        edges = np.array(ids, dtype=np.int64)
    except OverflowError:  # an id beyond int64, which n + 1 may not fit either
        k = next(k for k, v in enumerate(ids) if not 1 <= v <= min(n, 2**63 - 1))
        what = f"out of range [1, {n}]" if not 1 <= ids[k] <= n else "beyond int64"
        raise ParseError(f"line {linenos[k // r]}: vertex id {what}") from None
    edges = edges.reshape(-1, r)
    w = np.array(weights, dtype=np.float64)
    for bad, what in (
        (((edges < 1) | (edges > n)).any(axis=1), f"vertex id out of range [1, {n}]"),
        (~(w > 0.0) | np.isinf(w), "weight must be positive and finite"),
    ):
        if bad.any():
            raise ParseError(f"line {linenos[int(np.argmax(bad))]}: {what}")
    try:
        return Hypergraph.from_edges(n=n, r=r, edges=edges, weights=w)
    except ValueError:
        # every line passed its checks, so a merged weight overflowed
        _, merged, inverse = _merge(edges, r, w)
        lines = [linenos[k] for k in np.flatnonzero(np.isinf(merged)[inverse])]
        raise ParseError(
            f"line {lines[-1]}: weights of the duplicate edges on lines "
            f"{', '.join(map(str, lines))} sum to inf"
        ) from None


def serialize_edge_list(g: Hypergraph) -> str:
    """Emit the edge-list format with explicit weights; inverse of parse_edge_list."""
    lines = [f"{g.r} {g.n}"]
    for row, w in zip((g.slots + 1).tolist(), g.weights.tolist()):
        lines.append(" ".join(map(str, row)) + f" {w!r}")
    return "\n".join(lines) + "\n"
