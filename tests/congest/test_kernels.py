"""The fused round kernel: differentials, profiling, the lane matrix.

Three contracts:

* :func:`execute_vectorized` (the fused :class:`RoundKernel` loop) is
  bit-identical to :func:`execute_vectorized_reference` (the frozen
  benchmark baseline in ``benchmarks/vectorized_reference.py``, the
  pre-fusion loop) -- decisions, rounds, ledgers, and every validation /
  bandwidth *error string*;
* the numpy kernel is the only one: ``backend`` is not a policy field,
  so every spelling of it fails loudly as an unknown field;
* the cross matrix: lane x fault plan runs diff clean through
  :func:`diff_records`.
"""

import networkx as nx
import numpy as np
import pytest

from benchmarks.vectorized_reference import execute_vectorized_reference
from repro.congest import BandwidthExceeded, CongestNetwork, execute_vectorized
from repro.congest.kernels import KernelProfile
from repro.congest.vectorized import (
    VecOutbox,
    VectorizedAlgorithm,
    _LazyRngs,
)
from repro.core.broadcast_accumulate import VectorizedBroadcastAccumulate
from repro.core.cycle_detection_linear import VectorizedLinearCycle
from repro.runtime import ExecutionPolicy, PolicyError


class TestBackendResolution:
    def test_policy_validates_backend(self):
        # The kernel has one implementation; naming a backend is an
        # unknown policy field in every loader, not a silent no-op.
        for spec in ("backend=numba", "backend=numpy"):
            with pytest.raises(PolicyError, match="unknown policy field"):
                ExecutionPolicy.from_spec(spec)
        with pytest.raises(PolicyError, match="unknown policy field"):
            ExecutionPolicy.from_dict({"backend": None})
        with pytest.raises(TypeError):
            ExecutionPolicy(backend="numba")


class _UnsortedEcho(VectorizedAlgorithm):
    """Sends on a valid but *descending* edge list: exercises the fused
    kernel's argsort fallback (the strictly-increasing fast check fails,
    the reorder must reproduce the reference's canonical order)."""

    name = "unsorted-echo"
    message_dtype = np.dtype(np.int64)

    def __init__(self, rounds=3):
        self.rounds = rounds

    def init_state(self, run):
        return {}

    def all_quiescent(self, run, state):
        return bool(run.halted.all())

    def step_all(self, run, r, state, inbox):
        if r >= self.rounds:
            run.decision[:] = 1  # accept
            run.halted[:] = True
            return None
        edges = run.grid.all_edges()[::-1].copy()
        return VecOutbox(edges, np.arange(edges.shape[0], dtype=np.int64), 5)


class _BadEdges(VectorizedAlgorithm):
    name = "bad-edges"
    message_dtype = np.dtype(np.int64)

    def __init__(self, mode):
        self.mode = mode  # "range" | "dup" | "oversize"

    def init_state(self, run):
        return {}

    def step_all(self, run, r, state, inbox):
        e = run.grid.num_directed
        if self.mode == "range":
            edges = np.array([0, e + 3], dtype=np.int64)
        elif self.mode == "dup":
            edges = np.array([1, 1], dtype=np.int64)
        else:
            edges = np.array([0], dtype=np.int64)
        payload = np.zeros(edges.shape[0], dtype=np.int64)
        bits = 10**6 if self.mode == "oversize" else 3
        return VecOutbox(edges, payload, bits)


class TestFusedVsReference:
    @pytest.mark.parametrize("metrics", ["full", "lite"])
    def test_broadcast_workload_bit_identical(self, metrics):
        g = nx.random_regular_graph(4, 48, seed=3)
        net = CongestNetwork(g, bandwidth=31)
        algo = VectorizedBroadcastAccumulate(6)
        a = execute_vectorized(net, algo, 10, 0, False, metrics)
        b = execute_vectorized_reference(net, algo, 10, 0, False, metrics)
        assert a.decision == b.decision
        assert a.rounds == b.rounds
        assert a.node_decisions == b.node_decisions
        assert a.metrics.total_bits == b.metrics.total_bits
        assert a.metrics.round_bits == b.metrics.round_bits
        if metrics == "full":
            assert a.metrics.edge_bits == b.metrics.edge_bits
            assert a.metrics.node_messages == b.metrics.node_messages

    def test_randomized_workload_same_rng_stream(self):
        g = nx.cycle_graph(12)
        net = CongestNetwork(g, bandwidth=16)
        algo = VectorizedLinearCycle(4)
        a = execute_vectorized(net, algo, 20, 7, False, "full")
        b = execute_vectorized_reference(net, algo, 20, 7, False, "full")
        assert a.node_decisions == b.node_decisions
        assert a.metrics.total_bits == b.metrics.total_bits
        assert {u: c.state for u, c in a.contexts.items()} == {
            u: c.state for u, c in b.contexts.items()
        }

    def test_unsorted_outbox_falls_back_bit_identical(self):
        g = nx.path_graph(9)
        net = CongestNetwork(g, bandwidth=8)
        algo = _UnsortedEcho()
        a = execute_vectorized(net, algo, 8, 0, False, "full")
        b = execute_vectorized_reference(net, algo, 8, 0, False, "full")
        assert a.metrics.edge_bits == b.metrics.edge_bits
        assert a.metrics.round_bits == b.metrics.round_bits

    @pytest.mark.parametrize("mode,exc", [
        ("range", ValueError),
        ("dup", ValueError),
        ("oversize", BandwidthExceeded),
    ])
    def test_error_strings_identical(self, mode, exc):
        g = nx.path_graph(6)
        net = CongestNetwork(g, bandwidth=8)
        with pytest.raises(exc) as fused:
            execute_vectorized(net, _BadEdges(mode), 4, 0, False, "lite")
        with pytest.raises(exc) as ref:
            execute_vectorized_reference(net, _BadEdges(mode), 4, 0, False, "lite")
        assert str(fused.value) == str(ref.value)


class TestLazyRngs:
    def test_vectorized_seed_draw_matches_sequential(self):
        """Pins the numpy behaviour _LazyRngs relies on: a bounded
        power-of-two integers() draw consumes one 64-bit word per value,
        so size=n yields the same stream as n single draws."""
        seq_master = np.random.default_rng(99)
        seq = [int(seq_master.integers(0, 2**63)) for _ in range(512)]
        vec_master = np.random.default_rng(99)
        vec = vec_master.integers(0, 2**63, size=512)
        assert seq == [int(v) for v in vec]

    def test_generators_spawn_lazily_and_cache(self):
        seeds = np.array([1, 2, 3], dtype=np.int64)
        rngs = _LazyRngs(seeds)
        assert len(rngs) == 3
        assert rngs.materialized(1) is None
        g1 = rngs[1]
        assert rngs.materialized(1) is g1
        assert rngs[1] is g1
        assert rngs.materialized(0) is None
        # Same seed, same stream as an eagerly-built generator.
        assert g1.integers(0, 100) == np.random.default_rng(2).integers(0, 100)


class TestKernelProfile:
    def test_profile_counts_fast_path_rounds(self):
        g = nx.random_regular_graph(4, 32, seed=1)
        net = CongestNetwork(g, bandwidth=31)
        prof = KernelProfile()
        execute_vectorized(
            net, VectorizedBroadcastAccumulate(5), 8, 0, False, "lite",
            profile=prof,
        )
        assert prof.rounds == 5
        assert prof.fast_rounds == 5  # full broadcast rides the fast path
        assert prof.messages == 5 * 4 * 32
        d = prof.as_dict()
        assert all(k in d for k in ("step_ms", "mask_ms", "bill_ms",
                                    "permute_ms", "deliver_ms"))

    def test_partial_sends_are_not_fast_path(self):
        g = nx.cycle_graph(12)
        net = CongestNetwork(g, bandwidth=16)
        prof = KernelProfile()
        execute_vectorized(
            net, VectorizedLinearCycle(4), 20, 7, False, "lite", profile=prof,
        )
        assert prof.rounds > 0
        assert prof.fast_rounds < prof.rounds

    def test_session_profile_note(self):
        from repro.runtime import ExecutionPolicy, RunSession

        with RunSession(
            ExecutionPolicy(lane="vectorized"), record=True,
            owns_pools=False, profile=True,
        ) as ses:
            net = ses.network(nx.cycle_graph(8), bandwidth=31)
            ses.run(net, VectorizedBroadcastAccumulate(3), max_rounds=6)
        notes = [e for e in ses.record.events
                 if e.kind == "note" and e.label == "vec_profile"]
        assert len(notes) == 1
        assert notes[0].extra["rounds"] == 3
        assert notes[0].extra["fast_rounds"] == 3


# ----------------------------------------------------------------------
# lane x fault-plan cross matrix
# ----------------------------------------------------------------------
MATRIX_FAULTS = [None, "drop:0.3", "drop:0.2|corrupt:0.2|crash:1@2|seed:13"]


def _run_matrix_cell(lane, spec):
    from repro.core.cycle_detection_linear import detect_cycle_linear
    from repro.runtime import RunSession

    g = nx.cycle_graph(12)
    policy = ExecutionPolicy(lane=lane, faults=spec, seed=5)
    with RunSession(policy, record=True, owns_pools=False) as ses:
        rep = detect_cycle_linear(g, 4, iterations=6, session=ses)
        out = (rep.detected, rep.iterations_run, rep.total_bits,
               rep.total_messages)
    return out, ses.record


@pytest.mark.parametrize("spec", MATRIX_FAULTS)
class TestBackendLaneFaultMatrix:
    def test_numpy_backend_matches_object_lane(self, spec):
        from repro.runtime import diff_records

        out_obj, rec_obj = _run_matrix_cell("object", spec)
        out_vec, rec_vec = _run_matrix_cell("vectorized", spec)
        assert out_obj == out_vec
        diff = diff_records(rec_obj, rec_vec)
        assert diff["num_events"][0] == diff["num_events"][1], diff
        assert diff["first_divergence"] is None, diff
