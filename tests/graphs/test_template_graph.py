"""Tests for the Section 5 template graph G_T and input distribution μ."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.template_graph import (
    SPECIALS,
    build_template_graph,
    sample_input,
)


class TestTemplateGraph:
    def test_structure(self):
        g = build_template_graph(5)
        assert g.number_of_nodes() == 3 + 15
        # Triangle among specials + n leaves per special.
        assert g.number_of_edges() == 3 + 15
        for s in SPECIALS:
            assert g.degree(("special", s)) == 2 + 5

    def test_max_degree_theta_n(self):
        g = build_template_graph(100)
        assert max(d for _, d in g.degree()) == 102

    def test_zero_leaves(self):
        g = build_template_graph(0)
        assert g.number_of_nodes() == 3
        assert g.number_of_edges() == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            build_template_graph(-1)


class TestSampler:
    def test_observation_5_2_always_holds(self):
        for seed in range(30):
            sample = sample_input(6, np.random.default_rng(seed))
            assert sample.observation_5_2_holds()

    def test_input_representation_shapes(self):
        sample = sample_input(8, np.random.default_rng(1))
        for s in SPECIALS:
            inp = sample.inputs[s]
            # n leaves + 2 potential special neighbors.
            assert len(inp.ids) == len(inp.bits) == 10
            assert set(inp.bits) <= {0, 1}
            assert len(inp.partner_index) == 2

    def test_partner_index_points_at_triangle_bit(self):
        """X_s(i_s(t)) must equal the triangle-edge indicator X_st."""
        for seed in range(20):
            sample = sample_input(5, np.random.default_rng(seed))
            for s, t in (("a", "b"), ("b", "c"), ("a", "c")):
                via_s = sample.inputs[s].bits[sample.inputs[s].partner_index[t]]
                via_t = sample.inputs[t].bits[sample.inputs[t].partner_index[s]]
                assert via_s == via_t == sample.triangle_bits[(s, t)]

    def test_partner_ids_consistent(self):
        sample = sample_input(5, np.random.default_rng(3))
        for s, t in (("a", "b"), ("b", "c"), ("a", "c")):
            idx = sample.inputs[s].partner_index[t]
            assert sample.inputs[s].ids[idx] == sample.inputs[t].own_id

    def test_triangle_probability_near_eighth(self):
        rng = np.random.default_rng(42)
        hits = sum(sample_input(4, rng).has_triangle() for _ in range(4000))
        assert abs(hits / 4000 - 0.125) < 0.02

    def test_edge_probability_parameter(self):
        rng = np.random.default_rng(0)
        always = sample_input(5, rng, edge_probability=1.0)
        assert always.has_triangle()
        assert all(b == 1 for inp in always.inputs.values() for b in inp.bits)
        never = sample_input(5, rng, edge_probability=0.0)
        assert not never.has_triangle()

    def test_id_space_default_cubed(self):
        sample = sample_input(10, np.random.default_rng(0))
        assert all(0 <= i < 1000 for i in sample.identifiers.values())

    @given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=1, max_value=12))
    @settings(max_examples=40, deadline=None)
    def test_sampler_invariants(self, seed, n):
        sample = sample_input(n, np.random.default_rng(seed))
        assert sample.observation_5_2_holds()
        # Realized graph is a subgraph of the template.
        template = build_template_graph(n)
        for u, v in sample.graph.edges():
            assert template.has_edge(u, v)


class TestSamplerIdentity:
    """The cached-layout sampler draws exactly what the frozen networkx
    sampler in ``template_sampler_reference`` draws, from the same random
    numbers in the same order."""

    @pytest.mark.parametrize("edge_probability", [0.5, 0.2])
    @pytest.mark.parametrize("n", [0, 1, 4, 8, 10])
    def test_identical_to_frozen_sampler(self, n, edge_probability):
        from tests.graphs.template_sampler_reference import sample_input as frozen

        for seed in range(12):
            rng_new = np.random.default_rng(seed)
            rng_old = np.random.default_rng(seed)
            new = sample_input(n, rng_new, edge_probability=edge_probability)
            old = frozen(n, rng_old, edge_probability=edge_probability)
            assert rng_new.bit_generator.state == rng_old.bit_generator.state
            assert new.identifiers == old.identifiers
            assert list(new.identifiers) == list(old.identifiers)
            assert new.inputs == old.inputs
            assert new.triangle_bits == old.triangle_bits
            assert list(new.graph.nodes()) == list(old.graph.nodes())
            assert list(new.graph.edges()) == list(old.graph.edges())
            assert new.has_triangle() == old.has_triangle()
            assert new.observation_5_2_holds() == old.observation_5_2_holds()
