"""The network build against its frozen lookup-based oracle.

:class:`CongestNetwork` reads ``0..n-1`` plain-int labels straight into
arrays (labels are positions), sorts one int64 key for out order, and
derives ``assignment``, ``vertex_of`` and ``_node_ids`` on first use.
Every other vertex set keeps the label -> identifier lookup.  Against
:mod:`tests.congest.build_reference` (the earlier eager construction),
on generated graphs with shuffled node and edge insertion order,
self-loops and isolated vertices, labelled ``0..n-1`` or negatively,
gapped, as ``bool``/``np.int64``/``float``/``str``, unsortably mixed, or
under a caller-supplied assignment, these properties pin:

* all ten :class:`EdgeIndex` arrays (dtype and values);
* the lazily derived ``assignment``, ``vertex_of``, ``inputs``,
  ``graph``, ``_adj`` and ``_neighbor_tuples``, key and value types and
  insertion order included;
* the non-injective and non-covering assignment errors;
* object- vs vectorized-lane ``diff_records`` identity on a sample.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.congest import CongestNetwork
from repro.congest.network import _labels_are_positions
from tests.congest.build_reference import reference_build
from tests.congest.test_direct_build_properties import (
    ALGORITHMS,
    assert_lanes_agree,
)

EXAMPLES = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
LANE_EXAMPLES = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

INDEX_ARRAYS = ("ids", "src", "dst", "out_ptr", "in_rank", "deg",
                "in_order", "in_recv", "in_send", "_all_edges")

#: Vertex labellings.  Only ``positions`` takes the no-lookup path; the
#: others equal it in value (``bool``-led, ``np.int64``, ``float``) or
#: break one of its conditions (negative, gapped, non-int, unsortable).
LABELS = {
    "positions": lambda i: i,
    "bool-led": lambda i: False if i == 0 else (True if i == 1 else i),
    "np.int64": lambda i: np.int64(i),
    "float": lambda i: float(i),
    "negative": lambda i: i - 3,
    "gapped": lambda i: 2 * i,
    "str": lambda i: f"v{i}",
    "mixed": lambda i: i if i % 2 else f"v{i}",
}


@st.composite
def graphs(draw, kinds=tuple(sorted(LABELS))):
    """A 1-9 vertex graph with shuffled node and edge insertion order."""
    kind = draw(st.sampled_from(kinds))
    n = draw(st.integers(1, 9))
    label = LABELS[kind]
    vertices = [label(i) for i in range(n)]
    g = nx.Graph()
    g.add_nodes_from(vertices[i] for i in draw(st.permutations(range(n))))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for i, j in draw(st.lists(pairs, max_size=3 * n)):
        g.add_edge(vertices[i], vertices[j])  # i == j: a self-loop
    return g, vertices


@st.composite
def cases(draw):
    """(graph, assignment-or-None, inputs-or-None)."""
    g, vertices = draw(graphs())
    n = len(vertices)
    assignment = None
    how = draw(st.sampled_from(("canonical", "identity", "custom")))
    if how == "identity":
        assignment = {v: i for i, v in enumerate(vertices)}
    elif how == "custom":
        ids = draw(st.lists(st.integers(0, 60), min_size=n, max_size=n,
                            unique=True))
        assignment = dict(zip(vertices, ids))
    inputs = None
    if draw(st.booleans()):
        keep = draw(st.lists(st.sampled_from(vertices), unique=True))
        inputs = {v: ("input", k) for k, v in enumerate(keep)}
    return g, assignment, inputs


def typed(mapping):
    """A dict's items in order, with key and value types (``0 == 0.0 ==
    False`` as dict keys, so plain ``==`` would not tell them apart)."""
    return [(type(k), k, type(v), v) for k, v in mapping.items()]


def assert_matches_oracle(g, assignment=None, inputs=None):
    want = reference_build(g, assignment, inputs)
    net = CongestNetwork(g, bandwidth=16, assignment=assignment, inputs=inputs)
    lazy = {"vertex_of", "_neighbor_tuples", "_adj", "graph"}
    if not inputs:  # mapping inputs to identifiers reads the assignment
        lazy.add("_node_ids")
    assert not lazy & set(vars(net)), "built eagerly"
    grid = net.edge_index()
    for name in INDEX_ARRAYS:
        got, ref = getattr(grid, name), getattr(want.index, name)
        assert got.dtype == ref.dtype and np.array_equal(got, ref), name
        assert not got.flags.writeable, name
    assert grid.n == want.index.n
    assert grid.num_directed == want.index.num_directed
    assert typed(net.assignment) == typed(want.assignment)
    assert typed(net.vertex_of) == typed(want.vertex_of)
    assert typed(net.inputs) == typed(want.inputs)
    assert net._node_ids == want.node_ids
    assert list(net._neighbor_tuples.items()) == list(want.neighbor_tuples.items())
    assert net._adj == want.adj
    assert list(net.graph.nodes()) == list(want.graph.nodes())
    assert list(net.graph.edges()) == list(want.graph.edges())
    assert net.namespace_size == max(int(want.index.ids[-1]) + 1, want.index.n)


def raised(build):
    with pytest.raises(ValueError) as info:
        build()
    return str(info.value)


class TestBuildAgainstOracle:
    @EXAMPLES
    @given(cases())
    def test_index_and_lazy_structures_match(self, case):
        assert_matches_oracle(*case)

    @EXAMPLES
    @given(graphs(), st.data())
    def test_assignment_errors_unchanged(self, case, data):
        g, vertices = case
        n = len(vertices)
        assignment = dict(zip(vertices, range(100, 100 + n)))
        broken = data.draw(st.sampled_from(
            ("collide", "drop", "extra") if n >= 2 else ("drop", "extra")))
        if broken == "collide":
            a, b = data.draw(st.lists(st.sampled_from(vertices), min_size=2,
                                      max_size=2, unique=True))
            assignment[a] = assignment[b]
        elif broken == "drop":
            del assignment[data.draw(st.sampled_from(vertices))]
        else:
            assignment["not-a-vertex"] = 7
        want = raised(lambda: reference_build(g, assignment))
        got = raised(lambda: CongestNetwork(g, bandwidth=4, assignment=assignment))
        assert got == want

    @LANE_EXAMPLES
    @given(cases(), st.sampled_from(sorted(ALGORITHMS)), st.integers(0, 3))
    def test_lanes_agree_on_records(self, case, algo, seed):
        g, assignment, _ = case
        assume(g.number_of_nodes() >= 2)
        assert_lanes_agree(g, assignment, algo, seed)


class TestLabelsArePositions:
    """Which vertex sets skip the lookup, and what the skip leaves lazy."""

    @pytest.mark.parametrize("nodes, expect", [
        ([0], True),
        ([0, 1, 2, 3], True),
        ([1, 2, 3], False),            # no 0
        ([-1, 0, 1], False),           # negative
        ([0, 1, 3], False),            # gapped
        ([False, 1, 2], False),        # bool equals 0 but is not an int
        ([0, True, 2], False),
        ([np.int64(0), np.int64(1)], False),
        ([0.0, 1.0], False),
        ([0, 1.0, 2], False),
    ], ids=["single", "range", "no-zero", "negative", "gapped", "bool-first",
            "bool-inside", "np.int64", "float", "float-inside"])
    def test_detection(self, nodes, expect):
        assert _labels_are_positions(nodes) is expect

    def test_identity_assignment_is_lazy(self):
        g = nx.cycle_graph(5)
        net = CongestNetwork(g, bandwidth=8)
        assert {"assignment", "vertex_of", "_node_ids"}.isdisjoint(vars(net))
        assert net.assignment == {i: i for i in range(5)}
        assert net.vertex_of == {i: i for i in range(5)}
        assert net._node_ids == tuple(range(5))

    def test_lookup_paths_keep_the_assignment(self):
        g = nx.relabel_nodes(nx.cycle_graph(4), {i: f"v{i}" for i in range(4)})
        assert "assignment" in vars(CongestNetwork(g, bandwidth=8))
        custom = CongestNetwork(nx.cycle_graph(3), bandwidth=8,
                                assignment={0: 0, 1: 1, 2: 2})
        assert "assignment" in vars(custom)

    def test_from_csr_identity_is_lazy(self):
        net = CongestNetwork(nx.path_graph(4), bandwidth=8,
                             assignment={0: 10, 1: 3, 2: 7, 3: 20})
        clone = CongestNetwork.from_csr(net.edge_index(), bandwidth=8)
        assert {"assignment", "vertex_of", "_node_ids"}.isdisjoint(vars(clone))
        assert clone.assignment == {3: 3, 7: 7, 10: 10, 20: 20}
        assert clone.vertex_of == clone.assignment
        assert clone.vertex_of is not clone.assignment

    @pytest.mark.parametrize("case", [
        # Adjacency already in out order.
        (nx.path_graph(5), None),
        # Shuffled insertion and a self-loop.
        (nx.Graph([(3, 1), (0, 3), (2, 2), (1, 0)]), None),
        # ``0..n-1`` in value but bool-led: the lookup path.
        (nx.Graph([(False, True), (True, 2), (2, 2)]), None),
        # Unsortable labels: canonical order is insertion order.
        (nx.Graph([("b", 1), (1, "a"), (0, "b")]), None),
        # A caller-supplied permutation of ``0..n-1``.
        (nx.cycle_graph(4), {0: 2, 1: 0, 2: 3, 3: 1}),
    ], ids=["sorted", "shuffled-loop", "bool-led", "mixed",
            "permutation"])
    def test_fixed_cases(self, case):
        assert_matches_oracle(*case)

    def test_isolated_vertex(self):
        g = nx.Graph([(2, 0)])
        g.add_node(1)
        assert_matches_oracle(g, None, {1: "lonely"})

    def test_directed_graph_rejected(self):
        with pytest.raises(ValueError, match="undirected"):
            CongestNetwork(nx.DiGraph([(0, 1)]), bandwidth=8)
