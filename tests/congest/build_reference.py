"""The frozen lookup-based network build (test oracle only).

Not part of the library: :class:`repro.congest.network.CongestNetwork`
reads ``0..n-1`` labels straight into arrays, sorts one int64 key, and
derives its per-vertex dictionaries on first use.  This copy keeps the
earlier construction -- every vertex mapped through the (canonical or
caller-supplied) assignment, positions by ``searchsorted``, out order by
``lexsort``, every dictionary built eagerly -- together with the
object-lane structures it derived from the index.  The build property
suite compares the production network against it.
"""

from __future__ import annotations

from itertools import chain
from types import SimpleNamespace
from typing import Any, Hashable, Mapping, Optional

import networkx as nx
import numpy as np

from repro.congest.vectorized import EdgeIndex

__all__ = ["reference_build"]


def _edge_index_of(graph: nx.Graph, assignment: Mapping[Hashable, int]) -> EdgeIndex:
    ident = assignment.__getitem__
    adjacency = dict(graph.adjacency())
    n = len(adjacency)
    deg = np.fromiter(map(len, adjacency.values()), dtype=np.int64, count=n)
    owner = np.fromiter(map(ident, adjacency), dtype=np.int64, count=n)
    nbr = np.fromiter(
        map(ident, chain.from_iterable(adjacency.values())),
        dtype=np.int64,
        count=int(deg.sum()),
    )
    ids = np.sort(owner)
    src = np.repeat(np.searchsorted(ids, owner), deg)
    dst = np.searchsorted(ids, nbr)
    order = np.lexsort((dst, src))
    return EdgeIndex.from_arrays(ids, src[order], dst[order])


def reference_build(
    graph: nx.Graph,
    assignment: Optional[Mapping[Hashable, int]] = None,
    inputs: Optional[Mapping[Hashable, Any]] = None,
) -> SimpleNamespace:
    """Everything the old constructor built, eagerly, raising its errors.

    The namespace carries ``assignment``, ``vertex_of``, ``inputs``,
    ``index`` (the :class:`EdgeIndex`), ``node_ids``, and the object-lane
    ``neighbor_tuples``, ``adj`` and ``graph``.
    """
    if graph.number_of_nodes() == 0:
        raise ValueError("cannot simulate an empty network")
    if assignment is None:
        try:
            ordered = sorted(graph.nodes())
        except TypeError:
            ordered = list(graph.nodes())
        assignment = {v: i for i, v in enumerate(ordered)}
    ids = list(assignment.values())
    if len(set(ids)) != len(ids):
        raise ValueError("identifier assignment must be injective")
    if set(assignment.keys()) != set(graph.nodes()):
        raise ValueError("assignment must cover exactly the graph's vertices")
    assignment = dict(assignment)
    index = _edge_index_of(graph, assignment)
    node_ids = tuple(index.ids.tolist())
    out_ptr = index.out_ptr.tolist()
    dst_ids = index.ids[index.dst].tolist()
    neighbor_tuples = {
        u: tuple(dst_ids[out_ptr[p] : out_ptr[p + 1]])
        for p, u in enumerate(node_ids)
    }
    relabelled = nx.Graph()
    relabelled.add_nodes_from(node_ids)
    src_ids = index.ids[index.src]
    fwd = src_ids <= index.ids[index.dst]
    relabelled.add_edges_from(
        zip(src_ids[fwd].tolist(), index.ids[index.dst][fwd].tolist())
    )
    return SimpleNamespace(
        assignment=assignment,
        vertex_of={i: v for v, i in assignment.items()},
        inputs={assignment[v]: inp for v, inp in (inputs or {}).items()},
        index=index,
        node_ids=node_ids,
        neighbor_tuples=neighbor_tuples,
        adj={u: frozenset(t) for u, t in neighbor_tuples.items()},
        graph=relabelled,
    )
