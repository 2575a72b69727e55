"""The frozen networkx sampler for ``μ`` (test reference only).

Not part of the library: the production sampler is
:func:`repro.graphs.template_graph.sample_input`.  This copy builds
``G_T`` and the realized graph with networkx on every draw; the
sampler-identity test pins the production sampler to it, outputs and
random-number consumption alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Tuple

import networkx as nx
import numpy as np

from repro.graphs.template_graph import SPECIALS, SpecialInput, build_template_graph

__all__ = ["TemplateSample", "sample_input"]


@dataclass
class TemplateSample:
    """One draw from the Theorem 5.1 input distribution ``μ``."""

    n: int
    graph: nx.Graph  # the realized subgraph G ⊆ G_T (all vertices kept)
    identifiers: Dict[Hashable, int]
    inputs: Dict[str, SpecialInput]
    triangle_bits: Dict[Tuple[str, str], int]  # X_ab, X_bc, X_ac

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
        """Observation 5.2's left-hand side, from the realized graph."""
        g = self.graph
        return all(
            g.has_edge(("special", s), ("special", t))
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


def sample_input(
    n: int,
    rng: np.random.Generator,
    id_space: Optional[int] = None,
    edge_probability: float = 0.5,
) -> TemplateSample:
    """Draw one input from ``μ``.

    ``id_space`` defaults to the paper's ``n^3`` (minimum 8 so tiny tests
    stay sane).  ``edge_probability`` defaults to the paper's 1/2; other
    values support sensitivity ablations.
    """
    template = build_template_graph(n)
    if id_space is None:
        id_space = max(n**3, 8)

    identifiers = {
        v: int(rng.integers(0, id_space)) for v in sorted(template.nodes(), key=repr)
    }

    g = nx.Graph()
    g.add_nodes_from(template.nodes())
    for u, v in template.edges():
        if rng.random() < edge_probability:
            g.add_edge(u, v)

    triangle_bits = {
        ("a", "b"): int(g.has_edge(("special", "a"), ("special", "b"))),
        ("b", "c"): int(g.has_edge(("special", "b"), ("special", "c"))),
        ("a", "c"): int(g.has_edge(("special", "a"), ("special", "c"))),
    }

    inputs: Dict[str, SpecialInput] = {}
    for s in SPECIALS:
        vs = ("special", s)
        potential = sorted(template.neighbors(vs), key=repr)
        perm = rng.permutation(len(potential))
        permuted = [potential[j] for j in perm]
        ids = tuple(identifiers[w] for w in permuted)
        bits = tuple(int(g.has_edge(vs, w)) for w in permuted)
        partner_index = {
            t: permuted.index(("special", t)) for t in SPECIALS if t != s
        }
        inputs[s] = SpecialInput(
            own_id=identifiers[vs],
            ids=ids,
            bits=bits,
            partner_index=partner_index,
        )

    return TemplateSample(
        n=n,
        graph=g,
        identifiers=identifiers,
        inputs=inputs,
        triangle_bits=triangle_bits,
    )
