import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperspec import (
    Hypergraph,
    ParseError,
    degree,
    gen_beta_star,
    gen_complete,
    gen_loose_path,
    parse_edge_list,
    serialize_edge_list,
    validate,
)
from hyperspec.hypergraph import _merge


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
            ("3 4\n1 2 3 inf\n", 2),                 # infinite weight
            ("2 3\n1 2 1e308\n2 1 1e308\n", 3),      # merged weight overflows
            ("3 4\na b c\n", 2),                     # malformed ids
            ("3\n", 1),                              # bad header
            ("0 4\n", 1),                            # r too small
        ],
    )
    def test_errors_name_line_number(self, text, line):
        with pytest.raises(ParseError, match=f"line {line}"):
            parse_edge_list(text)

    def test_empty_input(self):
        with pytest.raises(ParseError, match="header"):
            parse_edge_list("# nothing here\n")


class TestValidate:
    def test_complete_graph_ok(self):
        assert validate(gen_complete(4, 3)) == []

    def test_nonpositive_weight(self):
        g = raw(4, 3, [(1, 2, 3)], [0.0])
        assert any("nonpositive weight" in v for v in validate(g))

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


class TestDegree:
    def test_complete_graph(self):
        assert degree(gen_complete(4, 3), 1) == 3.0

    def test_beta_star_center(self):
        assert degree(gen_beta_star(3, 10), 1) == 10.0

    def test_isolated_vertex(self):
        g = Hypergraph.from_edges(n=5, r=3, edges=[(1, 2, 3)])
        assert degree(g, 5) == 0.0

    def test_multiset_counted_once(self):
        g = Hypergraph.from_edges(n=2, r=3, edges=[(1, 1, 2)], weights=[2.5])
        assert degree(g, 1) == 2.5

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            degree(gen_complete(4, 3), 5)


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


def test_header_only_file_is_an_empty_graph():
    g = parse_edge_list("3 5\n")
    assert g.m == 0 and g.n == 5
    assert validate(g) == []


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


@given(hypergraphs(allow_multisets=False))
@settings(max_examples=60, deadline=None)
def test_degree_sum_identity(g):
    # distinct-vertex edges: every edge contributes r times to the degree sum
    total = sum(degree(g, i) for i in range(1, g.n + 1))
    expected = g.r * sum(g.weights.tolist())
    assert total == pytest.approx(expected, rel=1e-12, abs=1e-12)


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


@st.composite
def edge_tables(draw):
    r = draw(st.integers(min_value=2, max_value=5))
    m = draw(st.integers(min_value=0, max_value=12))
    edges = draw(st.lists(st.lists(st.integers(1, 4), min_size=r, max_size=r),
                          min_size=m, max_size=m))
    edge_weights = draw(st.none() | st.lists(weights, min_size=m, max_size=m))
    return edges, r, edge_weights


@given(edge_tables())
@example(([], 3, None))
@example(([], 2, []))
@settings(max_examples=100, deadline=None)
def test_merge_matches_unique_reference(table):
    got = _merge(*table)
    expected = merge_reference(*table)
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
