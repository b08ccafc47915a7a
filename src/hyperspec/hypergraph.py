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


class _RowError(ValueError):
    """A rule that input rows of :meth:`Hypergraph.from_edges` break, named
    "edge k" there and by their lines in :func:`parse_edge_list`."""

    def __init__(self, rows: list[int], what: str):
        self.rows, self.what = rows, what
        super().__init__("invalid hypergraph: " + self.naming(rows, "edge", "in rows"))

    def naming(self, numbers: list[int], unit: str, listed: str) -> str:
        """The message with ``numbers`` for the rows, listed where ``what`` has {}."""
        listing = ", ".join(map(str, numbers))
        return f"{unit} {numbers[-1]}: " + self.what.format(f"{listed} {listing}")


@dataclass(frozen=True, eq=False)
class Hypergraph:
    """An r-uniform weighted (multi-)hypergraph on vertices 1..n.

    ``slots`` is the (m, r) int64 table of 0-based vertex ids and ``weights``
    the (m,) float64 edge weights; both are stored read-only, ``slots``
    column-major so that ``slots.T`` is the C-contiguous (r, m) table the
    objective kernel reads.  The private ``_incidence`` is that table
    flattened, a writeable view of the same memory.  Both tables are copies
    of what the caller passed, so no later write to those changes the graph.
    Instances built through :meth:`from_edges` or
    :func:`parse_edge_list` are canonical: each row sorted nondecreasing,
    duplicate rows merged by summing weights, rows in lexicographic order
    (both through one int64 key per row, see :func:`_row_keys`).  So are the
    family generators' graphs (``gen_beta_star``, ``gen_loose_path``,
    ``gen_complete``), which pass the raw constructor tables that are
    canonical by construction.  The raw constructor performs no checks;
    :func:`validate` tells whether its tables are canonical.
    """

    n: int
    r: int
    slots: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        owner = np.array(self.slots, dtype=np.int64, order="F")
        object.__setattr__(self, "_incidence", owner.T.reshape(-1))
        weights = np.array(self.weights, dtype=np.float64, order="F")
        for name, array in (("slots", owner.view()), ("weights", weights)):
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
        dtype; n, r and every float id must be whole numbers.  The error for
        an id outside [1, n], a weight that is not positive and finite or an
        infinite merged weight names the input row as "edge k"."""
        if not (float(n).is_integer() and float(r).is_integer()):
            raise ValueError(f"n and r must be integers, got n={n!r} r={r!r}")
        n, r = int(n), int(r)
        if problems := _size_problems(n, r):
            raise ValueError("invalid hypergraph: " + "; ".join(problems))
        edges = _numeric("edges", edges)
        if edges.size == 0:
            edges = edges.reshape(0, r)
        if edges.ndim != 2 or edges.shape[1] != r:
            raise ValueError(f"edges have shape {edges.shape}, expected (m, {r})")
        if edges.dtype.kind == "f":  # an int64 cast would truncate silently
            bad = ~(np.isfinite(edges) & (edges == np.trunc(edges)))
            if bad.any():
                raise ValueError(f"edge {np.argwhere(bad)[0, 0]}: vertex id not an integer")
        weights = np.ones(len(edges)) if weights is None else _numeric("weights", weights)
        if weights.ndim != 1:
            raise ValueError(f"weights have shape {weights.shape}, expected ({len(edges)},)")
        if len(weights) != len(edges):
            raise ValueError(f"{len(weights)} weights for {len(edges)} edges")
        top = min(n, 2**62 if edges.dtype.kind in "uf" else 2**63 - 1)  # no id wraps in the cast
        rules = [(~((weights > 0.0) & (weights < np.inf)), "weight must be positive and finite")]
        # two reductions judge the ids; only a failure builds the (m, r) mask that names the row
        if edges.size and not 1 <= int(edges.min()) <= int(edges.max()) <= top:
            bad = ((edges < 1) | (edges > top)).any(axis=1)
            rules.insert(0, (bad, f"vertex out of range [1, {n}]"))
        for bad, what in rules:
            if bad.any():
                raise _RowError([int(np.argmax(bad))], what)
        slots, merged, inverse = _merge(edges.astype(np.int64, copy=False), weights)
        if np.isinf(merged).any():  # the edge of the first row that sums to inf
            rows = np.flatnonzero(inverse == inverse[np.argmax(np.isinf(merged)[inverse])])
            raise _RowError(rows.tolist(), "weights of the duplicate edges {} sum to inf")
        return cls(n=n, r=r, slots=slots, weights=merged)

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


# Rows of up to _NETWORK_WIDTH ids are sorted by odd-even transposition (Knuth,
# TAOCP 3, 5.3.4) in blocks of _BLOCK_ROWS rows, which stay in cache through its
# r rounds; wider rows by np.sort, which costs less than r(r - 1)/2 exchanges.
_NETWORK_WIDTH, _BLOCK_ROWS = 7, 2**14


def _merge(edges: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sorted distinct 0-based rows of the (m, r) int64 ``edges`` as a
    column-major table, their summed (m,) ``weights`` as float64, and the row
    each input edge was merged into.  The rows are sorted in one column-major
    copy and ordered by one argsort of one int64 key per row; weights are
    summed in input order."""
    m, r = edges.shape
    rows = np.empty((m, r), dtype=np.int64, order="F")
    for start in range(0, m, _BLOCK_ROWS):
        block = rows[start:start + _BLOCK_ROWS]
        block[...] = edges[start:start + _BLOCK_ROWS]
        if r > _NETWORK_WIDTH:
            block.sort(axis=1)
        for t in range(r if r <= _NETWORK_WIDTH else 0):  # round t: j, j + 1 for j of its parity
            a, b = block[:, t % 2:r - 1:2], block[:, t % 2 + 1::2]
            low = np.minimum(a, b)
            np.maximum(a, b, out=b)
            a[...] = low
        block -= 1
    keys = _row_keys(rows)
    order = keys.argsort()  # need not be stable: equal keys are equal rows
    keys = keys[order]
    first = np.ones(len(rows), dtype=bool)      # row starts a run of equal rows
    first[1:] = keys[1:] != keys[:-1]
    pick = order[first]
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(first, out=keys) - 1
    del keys, order, first  # freed before the gather and the weight sum
    slots = np.empty((len(pick), r), dtype=np.int64, order="F")
    np.take(rows.T, pick, axis=1, out=slots.T, mode="clip")  # "clip" writes out unbuffered
    del rows, pick
    return slots, np.bincount(inverse, weights=weights, minlength=len(slots)), inverse


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One int64 key per row of the (m, r) int64 ``rows``, equal for equal
    rows and sorted as the rows are: the row read in base w (w the span of the
    values) by Horner's rule when w**r < 2**63, else its words of k such ids
    (its ids when w >= 2**63) ranked and read in pairs over log2(r / k) rounds."""
    m, r = rows.shape
    if m < 2 or r == 0:  # nothing to order: skip the work over the r columns
        return np.zeros(m, dtype=np.int64)
    lo = int(np.minimum.reduce(rows, axis=None))
    w = int(np.maximum.reduce(rows, axis=None)) - lo + 1
    if k := min(r, 63 // w.bit_length()):  # k ids a word, w**k < 2**63
        words = np.zeros((m, -(-r // k)), dtype=np.int64, order="F")
        for j in range(k):  # Horner's rule on all words; a last short word ends in zeros
            digits = rows[:, j::k]
            words *= w
            words[:, :digits.shape[1]] += digits  # may wrap on the way, not at the end
            words[:, :digits.shape[1]] -= lo
        rows = words
    while rows.shape[1] > 1:  # rank the even and the odd words apart, then read pairs
        (_, even), (values, odd) = [np.unique(rows[:, j::2], return_inverse=True) for j in (0, 1)]
        rows = even.reshape(m, -1) * len(values)  # a last even word pairs with a zero
        rows[:, :odd.size // m] += odd.reshape(m, -1)
    return rows[:, 0]


def _size_problems(n: int, r: int) -> list[str]:
    """The vertex count and edge size rules that n and r break."""
    return [f"vertex count must be positive, got {n}"] * (n < 1) + [
        f"edge cardinality must be at least 2, got {r}"] * (r < 2)


def validate(g: Hypergraph) -> list[str]:
    """The error of :meth:`Hypergraph.from_edges` on the rows and weights of
    a graph from the raw constructor, or one message naming the first edge
    position where its tables differ from the canonical ones ``from_edges``
    makes of them; none for a canonical graph."""
    try:
        canonical = Hypergraph.from_edges(g.n, g.r, np.add(g.slots, 1, dtype=np.int64), g.weights)
    except ValueError as err:
        return [str(err)]
    if canonical == g:
        return []
    if g.slots.shape[1:] != (canonical.r,):  # an empty table, which from_edges reshapes
        return [f"edges have shape {g.slots.shape}, expected (m, {canonical.r})"]
    slots, m = g.slots, min(g.m, canonical.m)
    same = (slots[:m] == canonical.slots[:m]).all(axis=1) & (g.weights[:m] == canonical.weights[:m])
    return [f"edge {np.argmin(np.append(same, False))}: not canonical, unlike from_edges on its rows"]


def parse_edge_list(source: str | TextIO) -> Hypergraph:
    """Parse the edge-list text format into a canonical hypergraph.

    Format: '#' comment lines anywhere, first non-comment line "r n", then one
    edge per line as r whitespace-separated 1-based vertex ids followed by an
    optional positive weight (default 1.0).  Duplicate edges are merged by
    summing their weights.  Every ParseError names the offending line.

    One front end scans the header and raises its errors; one of two body
    readers turns the rest into id and weight arrays: :func:`_read_table`
    when one ``np.loadtxt`` call reads the body, :func:`_read_lines`
    otherwise.  Both feed :meth:`Hypergraph.from_edges`, whose error names
    the line of the row it names, so a file gives the same graph or the same
    error whichever reader took it.
    """
    text = source if isinstance(source, str) else source.read()
    lines = text.split("\n")
    # the header is the first line that is neither blank nor a comment
    lineno, tokens = next(_data_lines(lines, 1), (0, None))
    if tokens is None:
        raise ParseError("empty input: missing 'r n' header line")
    if len(tokens) != 2:
        raise ParseError(f"line {lineno}: header must be 'r n', got {lines[lineno - 1].strip()!r}")
    try:
        r, n = int(tokens[0]), int(tokens[1])
    except ValueError:
        raise ParseError(f"line {lineno}: header must be two integers") from None
    if problems := _size_problems(n, r):
        raise ParseError(f"line {lineno}: " + "; ".join(problems))
    body, first = lines[lineno:], lineno + 1
    try:
        edges, weights = _read_table(body, r) or _read_lines(body, r, n, first)
        return Hypergraph.from_edges(n=n, r=r, edges=edges, weights=weights)
    except _RowError as err:  # row k of the table is the body's data line k
        numbers = [k for k, _ in _data_lines(body, first)]
        raise ParseError(err.naming([numbers[k] for k in err.rows], "line", "on lines")) from None


def _tokens(line: str) -> list[str]:
    """The tokens of a line, none for a blank line or a comment."""
    tokens = line.split()
    return [] if tokens and tokens[0].startswith("#") else tokens


def _data_lines(lines: list[str], first: int):
    """(number, tokens) of each data line of ``lines``, numbered from ``first``."""
    return ((k, tokens) for k, tokens in enumerate(map(_tokens, lines), first) if tokens)


# The characters of a body the table read takes.  On them Python's int and
# float and numpy's text parser accept the same tokens with the same values.
_TABLE_ALPHABET = b"0123456789+-.eE \t\n"


def _read_table(body: list[str], r: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The (m, r) ids and (m,) weights of a body, given as its lines, that one
    ``np.loadtxt`` call reads, or None for any other body; it never raises.

    The table read takes a body without comments, with only the characters
    of ``_TABLE_ALPHABET`` and with every data line carrying the token count
    of the first, r ids or r ids and a weight; its rows are then the body's
    nonblank lines in order.  Any other body is left to :func:`_read_lines`.
    """
    text = "\n".join(body)
    if not text.isascii() or text.encode().translate(None, _TABLE_ALPHABET):
        return None
    width = len(next(filter(str.strip, body), "").split())  # of the first data line
    if width not in (r, r + 1):  # also an empty body
        return None
    fields = [("ids", np.int64, (r,))] + [("w", np.float64)] * (width - r)
    try:
        with warnings.catch_warnings():
            # numpy before 2.0 reads an id such as "1.0" through float, with a warning
            warnings.simplefilter("error")
            table = np.loadtxt(body, dtype=fields, comments=None, ndmin=1)
    except (ValueError, OverflowError, Warning):
        return None
    return table["ids"], (table["w"] if width > r else np.ones(len(table)))


def _read_lines(body: list[str], r: int, n: int, first: int) -> tuple[np.ndarray, np.ndarray]:
    """The ids and weights of any body, given as its lines; raises the
    ParseError of a line's tokens, and the row error of an id beyond int64."""
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
        what = "vertex id beyond int64" if 1 <= ids[k] <= n else f"vertex out of range [1, {n}]"
        raise _RowError([k // r], what) from None


def serialize_edge_list(g: Hypergraph) -> str:
    """Emit the edge-list format with explicit weights; inverse of parse_edge_list."""
    lines = [f"{g.r} {g.n}"]
    for row, w in zip((g.slots + 1).tolist(), g.weights.tolist()):
        lines.append(" ".join(map(str, row)) + f" {w!r}")
    return "\n".join(lines) + "\n"
