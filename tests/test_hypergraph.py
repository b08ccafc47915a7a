import os
import re
import time
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperspec import (
    Hypergraph,
    ParseError,
    gen_beta_star,
    gen_complete,
    gen_loose_path,
    parse_edge_list,
    serialize_edge_list,
    validate,
)
from hyperspec import hypergraph
from hyperspec.hypergraph import _merge, _read_lines, _read_table


def edge(g, pos):
    """Edge ``pos`` as (1-based vertex ids, weight)."""
    return tuple(int(v) + 1 for v in g.slots[pos]), float(g.weights[pos])


def raw(n, r, edges, weights):
    """A hypergraph built without canonicalization or checks."""
    return Hypergraph(n=n, r=r, slots=np.array(edges, dtype=np.int64) - 1, weights=weights)


def incident(g, vertex):
    """(edge position, multiplicity of ``vertex`` in that edge) per edge holding it."""
    counts = np.count_nonzero(g.slots == vertex - 1, axis=1)
    return tuple((int(pos), int(counts[pos])) for pos in np.flatnonzero(counts))


def total_multiplicity(g):
    return sum(mult for v in range(1, g.n + 1) for _, mult in incident(g, v))


class TestParse:
    def test_two_triangles(self):
        g = parse_edge_list("3 4\n1 2 3 1.0\n2 3 4 1.0")
        assert (g.n, g.r, g.m) == (4, 3, 2)
        assert edge(g, 0) == ((1, 2, 3), 1.0)
        assert edge(g, 1) == ((2, 3, 4), 1.0)

    def test_default_weight(self):
        g = parse_edge_list("2 2\n1 2")
        assert g.m == 1
        assert edge(g, 0)[1] == 1.0

    def test_duplicate_edges_merge_weights(self):
        g = parse_edge_list("3 4\n1 2 3 1\n1 2 3 0.5")
        assert g.m == 1
        assert edge(g, 0) == ((1, 2, 3), 1.5)

    def test_comments_and_blank_lines(self):
        g = parse_edge_list("# a comment\n\n3 4\n# another\n1 2 3\n")
        assert (g.n, g.r, g.m) == (4, 3, 1)

    def test_unsorted_slots_are_canonicalized(self):
        g = parse_edge_list("3 4\n3 1 2\n")
        assert edge(g, 0)[0] == (1, 2, 3)

    def test_multiset_edge(self):
        g = parse_edge_list("3 2\n1 1 2\n")
        assert edge(g, 0)[0] == (1, 1, 2)

    @pytest.mark.parametrize(
        "text, line",
        [
            ("3 4\n1 2 3 1.0\n1 2\n", 3),            # inconsistent edge size
            ("3 4\n1 2 5\n", 2),                     # vertex out of range
            ("3 4\n1 2 3 0\n", 2),                   # nonpositive weight
            ("3 4\n1 2 3 -2\n", 2),                  # negative weight
            ("3 4\n1 2 3 -1\n3 2 1 2\n", 2),         # negative weight, positive sum
            ("3 4\n1 2 3 inf\n", 2),                 # infinite weight
            ("2 3\n1 2 1e308\n2 1 1e308\n", 3),      # merged weight overflows
            ("3 4\na b c\n", 2),                     # malformed ids
            ("3\n", 1),                              # bad header
            ("0 4\n", 1),                            # r too small
            # ids beyond int64 where n + 1 does not fit int64 either
            ("3 99999999999999999999\n1 2 99999999999999999999999\n", 2),
            ("3 9223372036854775807\n1 2 9223372036854775808\n", 2),
            ("3 99999999999999999999\n1 2 3\n1 2 9999999999999999999\n", 3),
            # id -2**63, which 1-based to 0-based wraps to 2**63 - 1, with n beyond that
            ("2 99999999999999999999\n-9223372036854775808 -9223372036854775808\n", 2),
            # table-shaped bodies with a blank line before the bad line
            ("3 4\n1 2 3\n\n1 2 5\n", 4),
            ("3 4\n1 2 3 1.0\n\n1 2 3 -1\n", 4),
            ("2 3\n1 2 1e308\n\n2 1 1e308\n", 4),
        ],
    )
    def test_errors_name_line_number(self, text, line):
        with pytest.raises(ParseError, match=f"line {line}"):
            parse_edge_list(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("3 4\n1 2 5\n", "line 2: vertex out of range [1, 4]"),
            # the line reader's overflow branch, with from_edges' words
            ("3 4\n1 2 99999999999999999999\n", "line 2: vertex out of range [1, 4]"),
            ("3 4\n1 2 3\n0 1 99999999999999999999\n", "line 3: vertex out of range [1, 4]"),
            # an id within [1, n] that int64 cannot hold
            ("3 99999999999999999999\n1 2 9223372036854775808\n",
             "line 2: vertex id beyond int64"),
        ],
    )
    def test_out_of_range_id_has_one_wording(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_edge_list(text)
        assert str(err.value) == message

    def test_empty_input(self):
        with pytest.raises(ParseError, match="header"):
            parse_edge_list("# nothing here\n")


class TestValidate:
    def test_complete_graph_ok(self):
        assert validate(gen_complete(4, 3)) == []

    def test_nonpositive_weight(self):
        for w in (0.0, -1.0, np.inf, np.nan):  # the weight rule of from_edges
            g = raw(4, 3, [(1, 2, 3)], [w])
            assert validate(g) == ["edge 0: weight must be positive and finite"]

    def test_vertex_out_of_range(self):
        g = raw(4, 3, [(1, 2, 5)], [1.0])
        assert any("out of range" in v for v in validate(g))

    def test_wrong_edge_size(self):
        g = raw(4, 3, [(1, 2)], [1.0])
        assert any("slots" in v for v in validate(g))

    def test_unsorted_slots(self):
        g = raw(4, 3, [(3, 2, 1)], [1.0])
        assert any("nondecreasing" in v for v in validate(g))

    def test_duplicate_edge(self):
        g = raw(4, 3, [(1, 2, 3), (1, 2, 3)], [1.0, 2.0])
        assert any("duplicate" in v for v in validate(g))

    def test_rows_out_of_order(self):
        # each row is sorted and distinct, but the rows are not in
        # lexicographic order, as from_edges would put them
        g = Hypergraph(n=3, r=2, slots=[[1, 2], [0, 1]], weights=[1.0, 1.0])
        assert validate(g) == ["edge 1: before the previous edge in lexicographic order"]
        assert g != Hypergraph.from_edges(n=3, r=2, edges=[(2, 3), (1, 2)])

    @pytest.mark.parametrize(
        "g",
        [gen_beta_star(3, 10), gen_beta_star(6, 4), gen_loose_path(4, 5), gen_complete(6, 3),
         Hypergraph.from_edges(n=5, r=3, edges=[(3, 1, 2), (2, 4, 5), (1, 2, 3), (5, 1, 1)])],
        ids=["beta_star_3", "beta_star_6", "loose_path", "complete", "from_edges"],
    )
    def test_canonical_rows_are_in_order(self, g):
        assert validate(g) == []

    def test_row_spanning_int64_is_in_order(self):
        # a nondecreasing row whose neighbouring slots differ by more than
        # int64 holds is in order; only its out-of-range slots are reported
        g = raw(3, 2, [(-2**63 + 1, 2**63 - 1), (1, 2)], [1.0, 1.0])
        assert validate(g) == ["edge 0: vertex out of range [1, 3]"]
        with pytest.raises(ValueError) as err:
            Hypergraph.from_edges(n=3, r=2, edges=[(-2**62, 2**62)])
        assert str(err.value) == "invalid hypergraph: edge 0: vertex out of range [1, 3]"


class TestIncidence:
    def test_single_edge(self):
        g = Hypergraph.from_edges(n=3, r=3, edges=[(1, 2, 3)])
        assert incident(g, 1) == ((0, 1),)

    def test_multiset_multiplicity(self):
        g = Hypergraph.from_edges(n=2, r=3, edges=[(1, 1, 2)])
        assert incident(g, 1) == ((0, 2),)
        assert incident(g, 2) == ((0, 1),)

    def test_total_multiplicity_complete(self):
        g = gen_complete(4, 3)
        assert total_multiplicity(g) == 3 * 4


@pytest.mark.parametrize(
    "n, r, edges, message",
    [
        (3, 2, [(1.5, 2.9)], "edge 0: vertex id not an integer"),
        (3, 2, [(1, 2), (2, np.nan)], "edge 1: vertex id not an integer"),
        (3, 2, [(1, 2), (1, 3), (-np.inf, 2)], "edge 2: vertex id not an integer"),
        (3, 2, [(Fraction(3, 2), 2)], "edges must have an integer or float dtype, got object"),
        (3, 2, [(1, 2), (1 + 0.5j, 2)],
         "edges must have an integer or float dtype, got complex128"),
        (3, 2, np.array([(1, 2), (2, 3), (1, 2.5)], dtype=object),
         "edges must have an integer or float dtype, got object"),
        (3.7, 2, [(1, 2)], "n and r must be integers, got n=3.7 r=2"),
        (3, 2.5, [(1, 2)], "n and r must be integers, got n=3 r=2.5"),
        (np.nan, 2, [(1, 2)], "n and r must be integers, got n=nan r=2"),
    ],
    ids=["fractional-id", "nan-id", "inf-id", "fraction-object-id", "complex-id",
         "float-object-id", "fractional-n", "fractional-r", "nan-n"],
)
def test_from_edges_rejects_non_integral_input(n, r, edges, message):
    # an int64 cast would truncate these to a valid graph: (1, 2) and n = 3;
    # a cast of a complex array would also warn, so no warning may escape
    with warnings.catch_warnings(), pytest.raises(ValueError) as err:
        warnings.simplefilter("error")
        Hypergraph.from_edges(n=n, r=r, edges=edges)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "edges, weights, message",
    [
        # numpy reads these as text or as objects, which an int64 or float64
        # cast would turn into the edge (1, 2) of weight 2, or an OverflowError
        ([(1, "2")], None, "edges must have an integer or float dtype, got <U21"),
        ([(1, 2**70)], None, "edges must have an integer or float dtype, got object"),
        ([(1, 2)], ["2"], "weights must have an integer or float dtype, got <U1"),
        ([(True, False)], None, "edges must have an integer or float dtype, got bool"),
        ([(1, 2)], [1 + 0j], "weights must have an integer or float dtype, got complex128"),
        # ids beyond int64, which a cast would turn into in-range or unsorted ids
        ([(1.0, 1e20)], None, "invalid hypergraph: edge 0: vertex out of range [1, 3]"),
        ([(2, -1e30)], None, "invalid hypergraph: edge 0: vertex out of range [1, 3]"),
        (np.array([(1, 2**63)], dtype=np.uint64), None,
         "invalid hypergraph: edge 0: vertex out of range [1, 3]"),
        (np.array([(2**64 - 1, 2)], dtype=np.uint64), None,
         "invalid hypergraph: edge 0: vertex out of range [1, 3]"),
        # shapes
        ([1, 2], None, "edges have shape (2,), expected (m, 2)"),
        ([(1, 2, 3)], None, "edges have shape (1, 3), expected (m, 2)"),
        ([[[1, 2]]], None, "edges have shape (1, 1, 2), expected (m, 2)"),
        ([(1, 2)], [1.0, 2.0], "2 weights for 1 edges"),
        ([(1, 2), (2, 3)], [1.0], "1 weights for 2 edges"),
        ([(1, 2)], [[1.0]], "weights have shape (1, 1), expected (1,)"),
        ([(1, 2)], 1.0, "weights have shape (), expected (1,)"),
    ],
    ids=["string-id", "object-id-beyond-int64", "string-weight", "bool-ids", "complex-weight",
         "float-id-beyond-int64", "negative-float-id-beyond-int64", "uint64-id-2**63",
         "uint64-max-id", "1d-edges", "wide-edges", "3d-edges", "too-many-weights",
         "too-few-weights", "2d-weights", "scalar-weight"],
)
def test_from_edges_rejects_other_input(edges, weights, message):
    with warnings.catch_warnings(), pytest.raises(ValueError) as err:
        warnings.simplefilter("error")
        Hypergraph.from_edges(n=3, r=2, edges=edges, weights=weights)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "edges, weights, message",
    [
        ([(1, 2), (2, 3), (1, 5)], None, "edge 2: vertex out of range [1, 3]"),
        ([(2, 3), (1, 2)], [1.0, 0.0], "edge 1: weight must be positive and finite"),
        ([(2, 3), (1, 2), (3, 1)], [1.0, np.inf, 1.0],
         "edge 1: weight must be positive and finite"),
        # a negative weight is an error even where its duplicate makes the sum positive
        ([(1, 2), (1, 2)], [-1.0, 2.0], "edge 0: weight must be positive and finite"),
        # rows 1 and 3 sum to inf as well, but row 0 comes first
        ([(2, 3), (1, 2), (3, 2), (2, 1)], [1e308] * 4,
         "edge 2: weights of the duplicate edges in rows 0, 2 sum to inf"),
    ],
    ids=["out-of-range", "zero-weight", "inf-weight", "negative-weight-positive-sum",
         "sum-to-inf"],
)
def test_from_edges_names_the_callers_row(edges, weights, message):
    # the row of the input, not the position in the sorted, merged table
    with pytest.raises(ValueError) as err:
        Hypergraph.from_edges(n=3, r=2, edges=edges, weights=weights)
    assert str(err.value) == "invalid hypergraph: " + message


def test_parse_names_the_lines_of_an_overflowing_sum():
    text = "2 3\n2 3 1e308\n1 2 1e308\n# c\n3 2 1e308\n2 1 1e308\n"
    with pytest.raises(ParseError) as err:
        parse_edge_list(text)
    assert str(err.value) == "line 5: weights of the duplicate edges on lines 2, 5 sum to inf"


def test_from_edges_ids_beyond_int64_are_out_of_range_for_any_n():
    # no int64 slot holds the id 2**65, though n = 2**70 admits it
    for edges in ([(1.0, 2.0**65)], np.array([(1, 2**63)], dtype=np.uint64)):
        with warnings.catch_warnings(), pytest.raises(ValueError, match="vertex out of range"):
            warnings.simplefilter("error")
            Hypergraph.from_edges(n=2**70, r=2, edges=edges)


@pytest.mark.parametrize("edges", [[], np.empty((0, 2)), np.empty(0, dtype=np.uint64)])
def test_from_edges_accepts_no_edges(edges):
    g = Hypergraph.from_edges(n=3, r=2, edges=edges, weights=None if len(edges) else [])
    assert (g.n, g.r, g.m) == (3, 2, 0)


def test_from_edges_accepts_numeric_dtypes():
    expected = Hypergraph.from_edges(n=3, r=2, edges=[(1, 2), (1, 3)], weights=[2.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for dtype in (np.uint8, np.int32, np.uint64, np.float32):
            edges = np.array([(2, 1), (3, 1)], dtype=dtype)
            for weights in ([2, 1], np.array([2.0, 1.0], dtype=np.float32)):
                assert Hypergraph.from_edges(n=3, r=2, edges=edges, weights=weights) == expected


def test_from_edges_accepts_integral_floats():
    g = Hypergraph.from_edges(n=3.0, r=2.0, edges=np.array([[2.0, 1.0], [3.0, 1.0]]))
    assert g == Hypergraph.from_edges(n=3, r=2, edges=[(1, 2), (1, 3)])
    assert (type(g.n), type(g.r)) == (int, int)


def test_vertex_array_is_zero_based():
    g = parse_edge_list("2 3\n1 3\n2 3\n")
    assert g.slots.tolist() == [[0, 2], [1, 2]]
    assert g.weights.tolist() == [1.0, 1.0]


def test_hypergraph_is_immutable():
    g = gen_complete(4, 3)
    with pytest.raises(AttributeError):
        g.n = 5
    with pytest.raises(ValueError, match="read-only"):
        g.weights[0] = 2.0
    with pytest.raises(ValueError, match="read-only"):
        g.slots[0, 0] = 3


@pytest.mark.parametrize("order", ["C", "F"])
def test_hypergraph_copies_the_callers_tables(order):
    # a one-row table is both C- and F-contiguous; no table the caller
    # keeps is shared with the frozen graph
    for slots in ([[0, 1, 2]], [[0, 1, 2], [0, 1, 3]]):
        s = np.array(slots, dtype=np.int64, order=order)
        w = np.ones(len(s))
        g = Hypergraph(n=4, r=3, slots=s, weights=w)
        s[0, 2], w[0] = 3, 2.0
        assert g.slots.tolist() == slots and g.weights.tolist() == [1.0] * len(slots)
        assert not np.shares_memory(g.slots, s) and not np.shares_memory(g.weights, w)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Hypergraph.from_edges(n=5, r=3, edges=[(3, 1, 2), (2, 4, 5), (1, 2, 3)]),
        lambda: parse_edge_list("3 5\n3 1 2\n2 4 5 0.5\n1 2 3\n"),
        lambda: raw(5, 3, [(1, 2, 3), (2, 4, 5)], [1.0, 1.0]),
        lambda: gen_beta_star(3, 4),
        lambda: gen_loose_path(4, 3),
        lambda: gen_complete(6, 3),
        lambda: parse_edge_list("3 5\n"),
    ],
    ids=["from_edges", "parse", "raw", "beta_star", "loose_path", "complete", "empty"],
)
def test_slots_stored_slot_major(build):
    # the kernel reads g.slots.T as a contiguous (r, m) table
    g = build()
    assert g.slots.shape == (g.m, g.r)
    assert g.slots.T.flags.c_contiguous
    assert not g.slots.flags.writeable
    # the kernel's bincount index: flat, writeable so that bincount does not
    # copy it, and the same memory as slots
    index = g._incidence
    assert index.flags.writeable and index.flags.c_contiguous
    assert index.shape == (g.r * g.m,)
    assert index.base is g.slots.base  # one owner, also when m = 0
    assert g.m == 0 or np.shares_memory(index, g.slots)
    assert np.array_equal(index, g.slots.T.ravel())


def test_header_only_file_is_an_empty_graph():
    g = parse_edge_list("3 5\n")
    assert g.m == 0 and g.n == 5
    assert validate(g) == []


def test_header_only_cost_does_not_grow_with_r():
    # with no rows to sort or compare, neither the merge nor validate walks
    # the r columns (this took about 5 s when both did)
    t0 = time.perf_counter()
    g = parse_edge_list("1000000 4\n")
    wall = time.perf_counter() - t0
    assert (g.r, g.n, g.m) == (10**6, 4, 0)
    assert validate(g) == []
    assert wall < 0.25


def test_two_wide_edges_cost_little():
    # rows too wide for one packed key are read as words of a few ids, which
    # are ranked and paired in about log2(r) rounds, not column by column
    r = 10**5
    t0 = time.perf_counter()
    g = Hypergraph.from_edges(n=r + 1, r=r, edges=[range(2, r + 2), range(1, r + 1)])
    wall = time.perf_counter() - t0
    assert g.m == 2 and g.slots[0, -1] == r - 1 and g.slots[1, -1] == r
    assert wall < 0.25


# --- property tests -----------------------------------------------------------

edge_ids = st.integers(min_value=1, max_value=6)
weights = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False, allow_infinity=False)


@st.composite
def hypergraphs(draw, allow_multisets=False):
    r = draw(st.integers(min_value=2, max_value=4))
    n = draw(st.integers(min_value=r if not allow_multisets else 1, max_value=7))
    m = draw(st.integers(min_value=0, max_value=6))
    edges, edge_weights = [], []
    for _ in range(m):
        if allow_multisets:
            verts = draw(st.lists(st.integers(1, n), min_size=r, max_size=r))
        else:
            verts = draw(
                st.lists(st.integers(1, n), min_size=r, max_size=r, unique=True)
            )
        edges.append(verts)
        edge_weights.append(draw(weights))
    return Hypergraph.from_edges(n=n, r=r, edges=edges, weights=edge_weights)


@given(hypergraphs(allow_multisets=True))
@settings(max_examples=60, deadline=None)
def test_parse_serialize_roundtrip(g):
    assert parse_edge_list(serialize_edge_list(g)) == g


@given(hypergraphs(allow_multisets=True))
@settings(max_examples=60, deadline=None)
def test_incidence_total_multiplicity(g):
    assert total_multiplicity(g) == g.r * g.m


@given(hypergraphs(allow_multisets=True))
@settings(max_examples=60, deadline=None)
def test_canonical_graphs_validate_clean(g):
    assert validate(g) == []


def merge_reference(edges, r, weights):
    """``_merge`` as np.unique(axis=0, return_inverse=True) plus bincount."""
    rows = np.sort(np.asarray(edges, dtype=np.int64).reshape(-1, r), axis=1) - 1
    slots, inverse = np.unique(rows, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    if weights is None:
        weights = np.ones(len(rows))
    merged = np.bincount(inverse, weights=np.asarray(weights, dtype=np.float64),
                         minlength=len(slots))
    return slots, merged, inverse


INT64_EXTREMES = [-2**63, -2**63 + 1, 2**63 - 2, 2**63 - 1]


def key_ids(low, high):
    """A strategy for the ids of one table.  Small ids make tables whose row
    keys pack into one int64; spans of 2**21 and more make rows of several
    words, whose ranks are paired."""
    return st.sampled_from([
        st.integers(low, high),
        st.integers(2**62, 2**62 + high),                  # a small span far from 0
        st.integers(-2**62, 2**62),
        st.sampled_from(INT64_EXTREMES + [low, high]),
    ])


# rows spanning w = 2**21 - 1 pack into one int64 at r = 3; w = 2**21 does not
PACKING_LIMIT_ROWS = {
    span: [(span,) * 3, (1, 1, 1), (1, span, span), (1, 1, span), (1, 1, 1), (span,) * 3]
    for span in (2**21 - 1, 2**21)
}


@st.composite
def edge_tables(draw):
    # r up to 8 runs every round of the row sort's network, and its np.sort
    # beyond the network's width
    r = draw(st.integers(min_value=2, max_value=8))
    m = draw(st.integers(min_value=0, max_value=12))
    ids = draw(key_ids(1, 4))
    edges = draw(st.lists(st.lists(ids, min_size=r, max_size=r), min_size=m, max_size=m))
    edge_weights = draw(st.none() | st.lists(weights, min_size=m, max_size=m))
    return edges, r, edge_weights


def reversed_rows(r):
    """A table whose rows each need every round of a network over r columns."""
    return [list(range(r, 0, -1)), list(range(2 * r, r, -1)), list(range(r, 0, -1))], r, None


# more rows than one block of the row sort, with many duplicates
BLOCKS_TABLE = (np.random.default_rng(0).integers(1, 7, (2**14 + 3, 4)).tolist(), 4, None)


@given(edge_tables())
@example(([], 3, None))
@example(([], 2, []))
@example((PACKING_LIMIT_ROWS[2**21 - 1], 3, None))
@example((PACKING_LIMIT_ROWS[2**21], 3, None))
@example(([INT64_EXTREMES, INT64_EXTREMES[::-1], [1, 2**63 - 1, 1, -2**63]], 4, None))
@example(([[3, 1, 3], [1, 3, 3], [2, 2, 2], [3, 3, 1]], 3, [1.0, 2.0, 4.0, 8.0]))   # repeated ids
# a span just below 2**31 far from 0: one packed key per row of 2, which would
# wrap past 2**63 for some rows if read without the offset of the lowest id
@example(([[3 * 2**30 + 2**31 - 1] * 2, [3 * 2**30 + 1] * 2, [3 * 2**30 + 1, 3 * 2**30 + 2**31 - 1]],
          2, None))
@example(([[5, 5, 1, 5, 1, 5], [1, 1, 5, 5, 5, 5], [2, 1, 2, 1, 2, 1]], 6, None))
@example(reversed_rows(2))
@example(reversed_rows(3))
@example(reversed_rows(4))
@example(reversed_rows(5))
@example(reversed_rows(6))
@example(reversed_rows(7))
@example(reversed_rows(8))
@example(BLOCKS_TABLE)
@settings(max_examples=100, deadline=None)
def test_merge_matches_unique_reference(table):
    edges, r, weights = table
    ids = np.array(edges, dtype=np.int64).reshape(-1, r)
    weights = np.ones(len(edges)) if weights is None else np.array(weights, dtype=np.float64)
    expected = merge_reference(*table)
    for a, b in zip(_merge(ids, weights), expected):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    if ids.size and ids.min() < 1:
        return
    # from_edges keeps the merged table as the graph's column-major slots,
    # whose owner is writeable only through _incidence
    g = Hypergraph.from_edges(n=int(ids.max(initial=1)), r=r, edges=ids, weights=weights)
    assert g.slots.tobytes() == expected[0].tobytes() and g.weights.tobytes() == expected[1].tobytes()
    assert g.slots.T.flags.c_contiguous and not g.slots.flags.writeable
    index = g._incidence
    assert index.flags.writeable and index.base is g.slots.base
    assert np.array_equal(index, g.slots.T.ravel())


@pytest.mark.skipif(
    not os.environ.get("HYPERSPEC_LONG_TESTS"),
    reason="optional long-running scale test; set HYPERSPEC_LONG_TESTS=1",
)
def test_from_edges_at_scale():
    # a seeded Zipf 3-graph with n = 1e6 and m = 3e6: from_edges equals the
    # np.unique reference, and its traced peak is at most 3.4 times the (m, r)
    # int64 table of 72 MB.  It read 246 MB with a per-row np.sort, a padded
    # key table and a copied slot table, about 198 MB with the column-major merge
    # handing its table to the graph, about 219 MB (3.04 times) with the graph copying it
    n, m, r = 10**6, 3 * 10**6, 3
    rng = np.random.default_rng(29)
    popularity = 1.0 / np.arange(1, n + 1) ** 0.8
    edges = rng.choice(n, size=(m, r), p=popularity / popularity.sum()) + 1
    edge_weights = rng.uniform(0.5, 2.0, m)
    tracemalloc.start()
    try:
        g = Hypergraph.from_edges(n=n, r=r, edges=edges, weights=edge_weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    slots, merged, _ = merge_reference(edges, r, edge_weights)
    assert g.slots.tobytes() == slots.tobytes() and g.weights.tobytes() == merged.tobytes()
    assert peak <= 3.4 * m * r * 8


# --- the table read against the line reader ----------------------------------


def parsed(text):
    """parse_edge_list's graph for ``text``, or its ParseError message."""
    try:
        return parse_edge_list(text)
    except ParseError as exc:
        return str(exc)


def split_header(text):
    """(body lines, r, n, number of the body's first line) of a text whose header
    is valid, else None."""
    lines = text.split("\n")
    for k, line in enumerate(lines):
        tokens = line.split()
        if tokens and not tokens[0].startswith("#"):
            try:
                r, n = map(int, tokens)
            except ValueError:
                return None
            return (lines[k + 1:], r, n, k + 2) if r >= 2 and n >= 1 else None
    return None


def assert_same_outcome(got, expected):
    if isinstance(expected, str):
        assert got == expected
    else:
        assert got == expected
        assert got.weights.tobytes() == expected.weights.tobytes()


def id_tokens(n, odd):
    usual = st.integers(1, n).map(str)
    if not odd:
        return usual
    unusual = st.one_of(
        st.integers(-2, n + 2).map(lambda v: f"+{v}" if v >= 0 else str(v)),
        st.integers(0, n).map(lambda v: f"00{v}"),
        st.sampled_from(["1_0", "1.0", "2e0", "1.5", "9" * 20, "-" + "9" * 20, "٣", "１"]),
        st.from_regex(r"\A[+-]?[0-9]{1,21}\Z"),
    )
    return st.one_of(usual, usual, usual, usual, unusual)


def weight_tokens(odd):
    usual = st.floats(min_value=1e-3, max_value=1e3).map(repr)
    if not odd:
        return usual
    unusual = st.one_of(
        st.floats(allow_nan=True, allow_infinity=True).map(repr),
        st.sampled_from(["1", "+.5", "5.", "-1", "0", "-0.0", "1e308", "1E308", "1e400",
                         "1e-400", "inf", "nan", "1_000.5", "1e", ".", "+-1"]),
        # any token over the table read's alphabet that looks like a number
        st.from_regex(r"\A[+-]?[0-9]{0,20}\.?[0-9]{0,25}([eE][+-]?[0-9]{1,3})?\Z"),
    )
    return st.one_of(usual, usual, usual, unusual)


separators = st.sampled_from(["  ", "\t", " \t ", "\xa0", "\u2003", "\x0b", "\x0c"])
line_ends = st.sampled_from(["\r\n", "\r"])
filler_lines = st.sampled_from(["", "   ", "\t", "# a comment", "  # indented comment"])
odd_headers = st.sampled_from([["3"], ["3", "4", "1"], ["0", "4"], ["3", "0"], ["x", "4"],
                               ["+3", "04"]])


@st.composite
def edge_list_texts(draw):
    """Edge-list texts, many of them ones the table read takes, with each
    kind of line and token it must leave to the scanner switched on now and
    then."""
    now_and_then = st.integers(0, 3).map(lambda v: v == 0)   # true one time in four
    r = draw(st.integers(2, 4))
    n = draw(st.integers(1, 6))
    sep = draw(separators) if draw(now_and_then) else " "
    end = draw(line_ends) if draw(now_and_then) else "\n"
    ids, weights = id_tokens(n, draw(now_and_then)), weight_tokens(draw(now_and_then))
    weighted = draw(st.booleans())
    mixed, fillers = draw(now_and_then), draw(now_and_then)
    lines = draw(st.lists(filler_lines, max_size=2))
    lines.append(sep.join(draw(odd_headers) if draw(now_and_then) else [str(r), str(n)]))
    for _ in range(draw(st.integers(0, 8))):
        if fillers and draw(st.booleans()):
            lines.append(draw(filler_lines))
            continue
        tokens = [draw(ids) for _ in range(r)]
        if draw(st.booleans()) if mixed else weighted:
            tokens.append(draw(weights))
        lines.append(sep.join(tokens))
    return end.join(lines) + draw(st.sampled_from(["", end]))


@given(edge_list_texts())
@example("3 4\n1 2 3 1e308\n3 2 1 1e308\n")       # duplicates sum to inf
@example("3 4\n1 2 3 -1\n3 2 1 2\n")             # a negative weight, positive sum
@example("3 4\n1 2 3\n1 2 3 2.0\n")               # weight on one line only
@example("# c\n3 4\n1 2 3\n# c\n2 3 4\n")        # comment after the header
@example("3 4\r\n1 2 3\r\n2 3 4\r\n")            # CRLF line ends
@example("3 4\n1 2 99999999999999999999\n")       # id beyond int64
@example("3 4\n   \n\t\n")                        # blank body
@example("3 4")                                    # header alone, no newline
@settings(max_examples=400, deadline=None)
def test_table_read_matches_scanner(text):
    expected = parsed(text)
    with mock.patch.object(hypergraph, "_read_table", lambda body, r: None):
        assert_same_outcome(parsed(text), expected)  # the line reader alone
    header = split_header(text)
    if header is not None and (table := _read_table(*header[:2])) is not None:
        # the line reader takes every body the table read takes, with the same arrays
        for got, want in zip(table, _read_lines(*header)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_bench_shaped_file_takes_table_read(monkeypatch):
    rng = np.random.default_rng(5)
    rows = rng.integers(1, 51, size=(300, 3))
    weights = rng.uniform(0.5, 2.0, size=300)
    text = "# generated graph\n3 50\n" + "".join(
        f"{a} {b} {c} {w!r}\n" for (a, b, c), w in zip(rows.tolist(), weights.tolist())
    )
    monkeypatch.setattr(hypergraph, "_read_table", lambda body, r: None)
    expected = parse_edge_list(text)
    monkeypatch.undo()

    def fail(*args):
        raise AssertionError("the line reader ran")

    monkeypatch.setattr(hypergraph, "_read_lines", fail)
    g = parse_edge_list(text)
    assert g == expected and g.weights.tobytes() == expected.weights.tobytes()


# --- from_edges against parse_edge_list ---------------------------------------

bad_weights = st.sampled_from([0.0, -0.0, -1.0, np.inf, -np.inf, np.nan, 1e308])


@st.composite
def edge_rows(draw):
    """(n, r, ids, weights) of a small table whose ids may leave [1, n] and
    whose weights may be zero, negative, infinite, nan or sum to inf."""
    r = draw(st.integers(2, 3))
    n = draw(st.integers(1, 4))
    m = draw(st.integers(0, 6))
    ids = st.integers(1, n) | st.integers(-1, n + 2)
    edges = draw(st.lists(st.lists(ids, min_size=r, max_size=r), min_size=m, max_size=m))
    edge_weights = draw(st.lists(weights | bad_weights, min_size=m, max_size=m))
    return n, r, edges, edge_weights


@given(edge_rows(), st.lists(st.booleans(), min_size=6, max_size=6))
@example((3, 2, [(1, 2), (2, 1)], [-1.0, 2.0]), [False] * 6)      # negative, positive sum
@example((3, 2, [(1, 3), (1, 2), (2, 1)], [1.0, 1e308, 1e308]), [True] * 6)  # sum to inf
@example((3, 2, [(1, 2), (3, 4)], [0.0, 1.0]), [False] * 6)       # two rules, two rows
@settings(max_examples=300, deadline=None)
def test_from_edges_agrees_with_parse(table, comments):
    # from_edges raises if and only if the parse of the same rows does, and
    # its "edge k" is the row of the line the parse names
    n, r, edges, edge_weights = table
    lines, numbers = [f"{r} {n}"], []
    for row, w, comment in zip(edges, edge_weights, comments):
        if comment:
            lines.append("# a comment")
        lines.append(" ".join(map(str, row)) + f" {w!r}")
        numbers.append(len(lines))
    text = "\n".join(lines) + "\n"
    try:
        g = Hypergraph.from_edges(n=n, r=r, edges=np.array(edges, dtype=np.int64).reshape(-1, r),
                                  weights=edge_weights)
    except ValueError as exc:
        row = int(re.match(r"invalid hypergraph: edge (\d+): ", str(exc))[1])
        with pytest.raises(ParseError, match=f"^line {numbers[row]}: "):
            parse_edge_list(text)
    else:
        assert_same_outcome(parse_edge_list(text), g)


# --- validate's duplicate test against np.unique ------------------------------


def duplicate_reference(slots):
    """``validate``'s duplicate message from np.unique(axis=0), for any rows."""
    duplicate = np.ones(len(slots), dtype=bool)
    duplicate[np.unique(slots, axis=0, return_index=True)[1]] = False
    count = int(np.count_nonzero(duplicate))
    if not count:
        return []
    more = f" (and {count - 1} more)" if count > 1 else ""
    return [f"edge {int(np.argmax(duplicate))}: duplicate of an earlier edge{more}"]


@st.composite
def raw_tables(draw):
    r = draw(st.integers(2, 6))
    m = draw(st.integers(0, 10))
    ids = draw(key_ids(0, 2))
    rows = np.array(draw(st.lists(st.lists(ids, min_size=r, max_size=r),
                                  min_size=m, max_size=m)), dtype=np.int64).reshape(m, r)
    if draw(st.booleans()):
        rows = rows[np.lexsort(rows.T[::-1])]   # lexicographic order, duplicates kept
    return Hypergraph(n=3, r=r, slots=rows, weights=np.ones(m))


@given(raw_tables())
@example(raw(3, 2, [(1, 2), (1, 2), (1, 3), (1, 3), (1, 3)], np.ones(5)))   # sorted
@example(raw(3, 2, [(1, 3), (1, 2), (1, 3), (2, 3), (1, 2)], np.ones(5)))   # unsorted
@example(raw(3, 2, [(2, 1), (1, 2), (2, 1)], np.ones(3)))                   # unsorted slots
@example(raw(3, 2, [(1, 2), (2, 3)], np.ones(2)))
@example(raw(2**21, 3, PACKING_LIMIT_ROWS[2**21 - 1], np.ones(6)))
@example(raw(2**21, 3, PACKING_LIMIT_ROWS[2**21], np.ones(6)))
@example(raw(3, 2, [(2**63 - 1, 1), (1, 2**63 - 1), (2**63 - 1, 1)], np.ones(3)))
@example(raw(3, 0, [(), ()], np.ones(2)))                                    # empty rows
@settings(max_examples=200, deadline=None)
def test_validate_duplicates_match_unique_reference(g):
    got = [problem for problem in validate(g) if "duplicate" in problem]
    assert got == duplicate_reference(g.slots)


@pytest.mark.parametrize("span, packed", [(2**21 - 1, True), (2**21, False)])
def test_row_keys_at_packing_limit(span, packed):
    rows = np.array(PACKING_LIMIT_ROWS[span]) - 1
    keys = hypergraph._row_keys(rows)
    assert keys.dtype == np.int64
    # equal rows get equal keys, and the keys sort as the rows do
    assert np.array_equal(np.argsort(keys, kind="stable"), np.lexsort(rows.T[::-1]))
    assert np.array_equal(np.unique(keys, return_inverse=True)[1].ravel(),
                          np.unique(rows, axis=0, return_inverse=True)[1].ravel())
    # a packed key is the row read in base span.  Past the limit a row is two
    # words, of two ids and of one.  Each is ranked among the 3 and the 2
    # distinct words in its place, and the pair of ranks is read in base 2
    assert keys.max() == (span**3 - 1 if packed else 2 * 2 + 1)
