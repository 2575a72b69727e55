"""The template graph ``G_T`` and input distribution ``μ`` of Section 5 (Figure 3).

``G_T`` has three *special* nodes ``v_a, v_b, v_c`` connected in a triangle,
and for each ``s ∈ {a,b,c}`` a set of ``n`` non-special neighbors attached to
``v_s``.  The Theorem 5.1 input distribution draws:

* a random subgraph ``G ⊆ G_T``: every edge of ``G_T`` kept iid w.p. 1/2;
* iid identifiers from ``[n^3]`` (collisions possible -- the proof
  conditions on their absence, and so do our estimators);
* for each special node, a random permutation ``π_s`` scrambling the order
  in which it sees its potential neighbors, so it cannot tell which
  neighbor is special.

The per-node input follows the paper's *input representation*: node ``v_s``
receives ``N_s = (U_s, X_s, u_s)`` where ``U_s`` is the permuted sequence of
identifiers of its ``G_T``-neighbors, ``X_s`` the equally-permuted bit vector
saying which of those edges exist in ``G``, and ``u_s`` its own identifier.
``X_st`` denotes the bit for the potential triangle edge ``{v_s, v_t}``.

Observation 5.2: ``G`` contains a triangle iff ``X_ab ∧ X_bc ∧ X_ac``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, NamedTuple, Optional, Tuple

import networkx as nx
import numpy as np

__all__ = [
    "SPECIALS",
    "build_template_graph",
    "SpecialInput",
    "TemplateSample",
    "sample_input",
]

SPECIALS = ("a", "b", "c")


def build_template_graph(n: int) -> nx.Graph:
    """``G_T`` with ``n`` non-special neighbors per special node (Figure 3).

    Vertices: ``("special", s)`` and ``("leaf", s, i)`` for ``i < n``.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    g = nx.Graph()
    for s in SPECIALS:
        g.add_node(("special", s))
    g.add_edge(("special", "a"), ("special", "b"))
    g.add_edge(("special", "b"), ("special", "c"))
    g.add_edge(("special", "a"), ("special", "c"))
    for s in SPECIALS:
        for i in range(n):
            g.add_edge(("special", s), ("leaf", s, i))
    return g


@dataclass
class SpecialInput:
    """``N_s = (U_s, X_s, u_s)`` plus the bookkeeping the analysis uses.

    ``ids`` and ``bits`` are aligned: ``bits[i]`` says whether the edge to
    the potential neighbor with identifier ``ids[i]`` is present in ``G``.
    ``partner_index[t]`` is the paper's ``i_s(t)``: the (permuted) index
    hiding the potential triangle edge ``{v_s, v_t}`` -- uniformly random
    from the node's perspective, which is the crux of Lemma 5.4.
    """

    own_id: int
    ids: Tuple[int, ...]
    bits: Tuple[int, ...]
    partner_index: Dict[str, int]

    @property
    def degree_in_template(self) -> int:
        return len(self.ids)


@dataclass
class TemplateSample:
    """One draw from the Theorem 5.1 input distribution ``μ``."""

    n: int
    #: The realized edges of ``G ⊆ G_T``, each oriented as in ``G_T``.
    edges: FrozenSet[Tuple[Hashable, Hashable]]
    identifiers: Dict[Hashable, int]
    inputs: Dict[str, SpecialInput]
    triangle_bits: Dict[Tuple[str, str], int]  # X_ab, X_bc, X_ac

    @functools.cached_property
    def graph(self) -> nx.Graph:
        """The realized subgraph ``G`` (all vertices of ``G_T`` kept), with
        ``G_T``'s node and edge order; built on first read."""
        layout = _layout(self.n)
        g = nx.Graph()
        g.add_nodes_from(layout.nodes)
        g.add_edges_from(e for e in layout.edges if e in self.edges)
        return g

    def has_edge(self, u: Hashable, v: Hashable) -> bool:
        return (u, v) in self.edges or (v, u) in self.edges

    @property
    def x_ab(self) -> int:
        return self.triangle_bits[("a", "b")]

    @property
    def x_bc(self) -> int:
        return self.triangle_bits[("b", "c")]

    @property
    def x_ac(self) -> int:
        return self.triangle_bits[("a", "c")]

    def has_triangle(self) -> bool:
        """Observation 5.2's left-hand side, from the realized edges."""
        return all(
            self.has_edge(("special", s), ("special", t))
            for s, t in (("a", "b"), ("b", "c"), ("a", "c"))
        )

    def observation_5_2_holds(self) -> bool:
        """``G`` has a triangle iff ``X_ab ∧ X_bc ∧ X_ac`` (Observation 5.2).

        True by construction -- only special nodes can form a triangle in a
        subgraph of ``G_T`` -- but verified against the realized graph, so a
        bug in the sampler cannot silently skew the MI experiments.
        """
        via_graph = self.has_triangle()
        via_bits = bool(self.x_ab and self.x_bc and self.x_ac)
        # Also confirm no triangle hides among non-special vertices.
        tri_free_elsewhere = all(
            ("special" in u[0]) and ("special" in v[0]) and ("special" in w[0])
            for u, v, w in _triangles(self.graph)
        )
        return (via_graph == via_bits) and tri_free_elsewhere

    def has_duplicate_ids(self) -> bool:
        ids = list(self.identifiers.values())
        return len(set(ids)) != len(ids)


def _triangles(g: nx.Graph):
    nodes = sorted(g.nodes(), key=repr)
    index = {v: i for i, v in enumerate(nodes)}
    for u, v in g.edges():
        for w in g.neighbors(u):
            if w == u or w == v:
                continue
            if g.has_edge(v, w) and index[u] < index[v] < index[w]:
                yield (u, v, w)


class _Layout(NamedTuple):
    """What every draw at one ``n`` shares, in ``G_T``'s own orders."""

    nodes: Tuple[Hashable, ...]  # insertion order
    id_order: Tuple[Hashable, ...]  # sorted by repr: identifier draw order
    edges: Tuple[Tuple[Hashable, Hashable], ...]  # ``G_T.edges()`` order
    #: Per special ``s``: its potential neighbors sorted by repr, the edge
    #: index of each, and the position of each other special among them.
    potential: Dict[str, Tuple[Hashable, ...]]
    edge_index: Dict[str, np.ndarray]
    partner_pos: Dict[str, Dict[str, int]]


@functools.lru_cache(maxsize=32)
def _layout(n: int) -> _Layout:
    template = build_template_graph(n)
    edges = tuple(template.edges())
    position = {e: i for i, e in enumerate(edges)}
    position.update({(v, u): i for (u, v), i in position.items()})
    potential, edge_index, partner_pos = {}, {}, {}
    for s in SPECIALS:
        vs = ("special", s)
        around = tuple(sorted(template.neighbors(vs), key=repr))
        potential[s] = around
        edge_index[s] = np.array([position[(vs, w)] for w in around], dtype=np.int64)
        partner_pos[s] = {
            t: around.index(("special", t)) for t in SPECIALS if t != s
        }
    return _Layout(
        nodes=tuple(template.nodes()),
        id_order=tuple(sorted(template.nodes(), key=repr)),
        edges=edges,
        potential=potential,
        edge_index=edge_index,
        partner_pos=partner_pos,
    )


def sample_input(
    n: int,
    rng: np.random.Generator,
    id_space: Optional[int] = None,
    edge_probability: float = 0.5,
) -> TemplateSample:
    """Draw one input from ``μ``.

    ``id_space`` defaults to the paper's ``n^3`` (minimum 8 so tiny tests
    stay sane).  ``edge_probability`` defaults to the paper's 1/2; other
    values support sensitivity ablations.  Randomness is drawn in a fixed
    order: identifiers, then one uniform per ``G_T`` edge, then each
    special node's permutation.
    """
    layout = _layout(n)
    if id_space is None:
        id_space = max(n**3, 8)

    identifiers = {v: int(rng.integers(0, id_space)) for v in layout.id_order}
    kept = rng.random(len(layout.edges)) < edge_probability
    edges = frozenset(e for e, k in zip(layout.edges, kept.tolist()) if k)
    sample = TemplateSample(
        n=n, edges=edges, identifiers=identifiers, inputs={}, triangle_bits={}
    )
    for s, t in (("a", "b"), ("b", "c"), ("a", "c")):
        sample.triangle_bits[(s, t)] = int(
            sample.has_edge(("special", s), ("special", t))
        )

    for s in SPECIALS:
        potential = layout.potential[s]
        perm = rng.permutation(len(potential))
        order = perm.tolist()
        sample.inputs[s] = SpecialInput(
            own_id=identifiers[("special", s)],
            ids=tuple(identifiers[potential[j]] for j in order),
            bits=tuple(kept[layout.edge_index[s][perm]].astype(int).tolist()),
            partner_index={
                t: order.index(j) for t, j in layout.partner_pos[s].items()
            },
        )
    return sample
