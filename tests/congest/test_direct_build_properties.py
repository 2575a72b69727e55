"""Property tests for the direct graph -> CSR network build.

:class:`CongestNetwork` builds its :class:`EdgeIndex` straight from the
graph's adjacency and derives the object-lane structures (the relabelled
``graph``, ``_adj``, ``_neighbor_tuples``) from that index on first use;
vectorized results keep their per-node outputs as arrays and synthesise
contexts on demand.  On generated small graphs -- int, str and tuple
vertices, isolated vertices, self-loops, custom non-contiguous
assignments -- these properties pin:

* every index array equals the legacy construction (relabel the graph,
  sort each neighborhood, then lay out CSR arrays from the tuples);
* the lazily materialised object-lane structures equal the eager ones the
  legacy construction built;
* ``diff_records`` and per-node contexts agree across the object lane,
  the vectorized lane under lite and full metrics, and ``sanitize=True``.
"""

from __future__ import annotations

from itertools import chain

import networkx as nx
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.congest import CongestNetwork, EdgeIndex
from repro.core.broadcast_accumulate import (
    BroadcastAccumulate,
    VectorizedBroadcastAccumulate,
)
from repro.core.cycle_detection_linear import (
    LinearCycleIterationAlgorithm,
    VectorizedLinearCycle,
)
from repro.runtime import ExecutionPolicy, RunSession, diff_records

EXAMPLES = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

INDEX_ARRAYS = ("ids", "src", "dst", "out_ptr", "in_rank", "deg",
                "in_order", "in_recv", "in_send")

VERTEX_KINDS = {
    "int": lambda i: i * 3 + 1,
    "str": lambda i: f"v{i}",
    "tuple": lambda i: (i % 2, i),
}


@st.composite
def networks(draw):
    """(graph, assignment-or-None) over 1-8 vertices of one kind."""
    n = draw(st.integers(1, 8))
    label = VERTEX_KINDS[draw(st.sampled_from(sorted(VERTEX_KINDS)))]
    vertices = [label(i) for i in draw(st.permutations(range(n)))]
    g = nx.Graph()
    g.add_nodes_from(vertices)  # insertion order need not be sorted
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for i, j in draw(st.lists(pairs, max_size=3 * n)):
        g.add_edge(vertices[i], vertices[j])  # i == j: a self-loop
    if draw(st.booleans()):
        return g, None
    ids = draw(st.lists(st.integers(0, 60), min_size=n, max_size=n, unique=True))
    return g, dict(zip(vertices, ids))


def legacy_structures(g, assignment):
    """The pre-CSR eager construction: relabelled copy, adjacency sets,
    sorted neighbor tuples, and the index laid out from the tuples."""
    if assignment is None:
        try:
            ordered = sorted(g.nodes())
        except TypeError:
            ordered = list(g.nodes())
        assignment = {v: i for i, v in enumerate(ordered)}
    graph = nx.relabel_nodes(g, assignment, copy=True)
    node_ids = tuple(sorted(graph.nodes()))
    adj = {u: frozenset(graph[u]) for u in node_ids}
    tuples = {u: tuple(sorted(adj[u])) for u in node_ids}
    ids = np.asarray(node_ids, dtype=np.int64)
    deg = np.array([len(tuples[u]) for u in node_ids], dtype=np.int64)
    src = np.repeat(np.arange(len(node_ids), dtype=np.int64), deg)
    nbr = np.fromiter(chain.from_iterable(tuples[u] for u in node_ids),
                      dtype=np.int64, count=int(deg.sum()))
    index = EdgeIndex.from_arrays(ids, src, np.searchsorted(ids, nbr), deg=deg)
    return graph, adj, tuples, index


def edge_set(graph):
    return {frozenset(e) for e in graph.edges()}


def assert_build_matches_legacy(g, assignment):
    graph, adj, tuples, index = legacy_structures(g, assignment)
    net = CongestNetwork(g, bandwidth=16, assignment=assignment)
    grid = net.edge_index()
    for name in INDEX_ARRAYS:
        got, want = getattr(grid, name), getattr(index, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert grid.num_directed == index.num_directed
    assert np.array_equal(grid.all_edges(), index.all_edges())
    # Lazily materialised object-lane structures equal the eager ones.
    assert list(net._neighbor_tuples.items()) == list(tuples.items())
    assert net._adj == adj
    assert set(net.graph.nodes()) == set(graph.nodes())
    assert edge_set(net.graph) == edge_set(graph)
    assert nx.number_of_selfloops(net.graph) == nx.number_of_selfloops(graph)
    assert net._node_ids == tuple(sorted(graph.nodes()))


LANE_CELLS = (
    ("object", "full", False),
    ("object", "full", True),
    ("vectorized", "lite", False),
    ("vectorized", "full", False),
    ("vectorized", "full", True),
)

ALGORITHMS = {
    "accumulate": (lambda: BroadcastAccumulate(3),
                   lambda: VectorizedBroadcastAccumulate(3), 6),
    "linear-c4": (lambda: LinearCycleIterationAlgorithm(4),
                  lambda: VectorizedLinearCycle(4), 16),
}


def run_cell(g, assignment, algo, lane, metrics, sanitize, seed):
    make_obj, make_vec, max_rounds = ALGORITHMS[algo]
    policy = ExecutionPolicy(lane=lane, metrics=metrics, sanitize=sanitize,
                             seed=seed)
    with RunSession(policy, record=True, owns_pools=False) as ses:
        net = ses.network(g, bandwidth=31, assignment=assignment)
        algorithm = ses.lane_class(make_obj, make_vec)()
        res = ses.run(net, algorithm, max_rounds=max_rounds, label=algo)
    return res, ses.record


def context_view(ctx):
    """What a caller reads from a final context, lane-independent.

    The object lane's ``state`` is its full per-node state machine and
    every node owns a generator; the vectorized lane exposes only the
    ``witness`` its port publishes and generators the kernel touched.
    """
    return (ctx.id, ctx.neighbors, ctx.n, ctx.namespace_size, ctx.bandwidth,
            ctx.input, ctx.decision, ctx._halted, ctx.state.get("witness"))


def assert_lanes_agree(g, assignment, algo, seed):
    cells = {c: run_cell(g, assignment, algo, *c, seed) for c in LANE_CELLS}
    base_res, base_rec = cells[LANE_CELLS[0]]
    for cell, (res, rec) in cells.items():
        diff = diff_records(base_rec, rec)
        assert diff["num_events"][0] == diff["num_events"][1], (cell, diff)
        assert diff["first_divergence"] is None, (cell, diff)
        assert res.decision == base_res.decision
        assert res.rejecting_nodes() == base_res.rejecting_nodes()
        assert res.node_decisions == base_res.node_decisions
        assert list(res.node_decisions) == list(base_res.node_decisions)
        assert {u: context_view(c) for u, c in res.contexts.items()} == {
            u: context_view(c) for u, c in base_res.contexts.items()
        }, cell
    # Within the vectorized lane the synthesised contexts agree in full:
    # same state snapshot, same round, generators at the same positions.
    vec = [cells[c][0] for c in LANE_CELLS if c[0] == "vectorized"]
    for res in vec[1:]:
        assert _vec_contexts(res) == _vec_contexts(vec[0])


def _vec_contexts(res):
    return {
        u: (context_view(c), c.state, c.round, c.rng is None)
        for u, c in res.contexts.items()
    }


class TestDirectBuild:
    @EXAMPLES
    @given(networks())
    def test_index_and_lazy_structures_match_legacy(self, case):
        g, assignment = case
        assert_build_matches_legacy(g, assignment)

    @EXAMPLES
    @given(networks(), st.sampled_from(sorted(ALGORITHMS)), st.integers(0, 3))
    def test_lanes_agree_on_records_and_contexts(self, case, algo, seed):
        g, assignment = case
        assume(g.number_of_nodes() >= 2)
        assert_lanes_agree(g, assignment, algo, seed)


class TestDirectBuildRegressions:
    """Fixed cases for the shapes the properties above generate."""

    @pytest.mark.parametrize("case", [
        # A self-loop is one directed edge and must survive the lazy graph.
        (nx.Graph([(0, 0), (0, 1)]), None),
        # Isolated vertices, str labels, insertion order != sorted order.
        (nx.compose(nx.empty_graph(["z", "c"]), nx.Graph([("b", "a")])), None),
        # Tuple vertices under a custom, non-contiguous assignment.
        (nx.Graph([((0, 1), (1, 2)), ((1, 2), (1, 2))]),
         {(0, 1): 41, (1, 2): 7}),
    ], ids=["self-loop", "isolated-str", "tuple-custom-ids"])
    def test_build(self, case):
        assert_build_matches_legacy(*case)

    def test_self_loop_lanes_agree(self):
        g = nx.Graph([(0, 0), (0, 1), (1, 2), (2, 0)])
        for algo in ALGORITHMS:
            assert_lanes_agree(g, {0: 9, 1: 2, 2: 30}, algo, seed=1)

    def test_lazy_contexts_only_for_rejecting_nodes(self):
        """Amplification's summary reads the rejecting contexts only."""
        from repro.congest.parallel import _summarize

        g = nx.cycle_graph(6)
        net = CongestNetwork(g, bandwidth=16)
        res = net.run(VectorizedLinearCycle(6, color_map={u: u for u in g}),
                      max_rounds=20, seed=0)
        assert res.rejected
        outcome = _summarize(0, res)
        assert res._contexts is None  # no full synthesis happened
        eager = net.run(VectorizedLinearCycle(6, color_map={u: u for u in g}),
                        max_rounds=20, seed=0)
        witnesses = tuple(eager.contexts[u].state.get("witness")
                          for u in eager.rejecting_nodes())
        assert outcome.witnesses == witnesses
        assert outcome.rejecting_nodes == eager.rejecting_nodes()
