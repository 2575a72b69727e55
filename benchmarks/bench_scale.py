"""Scale sweep: the fused vectorized engine at n ~ 10^4 - 10^5.

The workload is :mod:`repro.core.broadcast_accumulate`: every node
broadcasts a 31-bit accumulator every round, so each round moves one
message over every directed edge -- the densest traffic CONGEST allows,
and the whole run rides the fused kernel's trusted full-broadcast fast
path.  Two claims are asserted (a regression fails the run):

* the fused lane (:func:`execute_vectorized`) beats the frozen
  pre-fusion loop (:func:`execute_vectorized_reference`, frozen in
  ``vectorized_reference.py`` next to this file) by >= 3x at
  ``n >= 65536``, while staying bit-identical (decision, rounds, ledger
  aggregates);
* wall-clock grows roughly linearly in ``n`` (edges scale with ``n``
  here), pinned loosely to rule out an accidental quadratic term.

Numbers land in ``BENCH_scale.json``.
"""

import time

import networkx as nx

from conftest import print_table
from emit import emit
from repro.congest.network import CongestNetwork
from repro.congest.vectorized import execute_vectorized
from repro.core.broadcast_accumulate import VectorizedBroadcastAccumulate
from vectorized_reference import execute_vectorized_reference

NS = [4096, 16384, 65536, 131072]
ROUNDS = 8
#: Asserted floor on the fused-vs-reference speedup at n >= 65536 (the
#: measured ratio is ~7x; 3x leaves headroom for a loaded machine).
MIN_SPEEDUP = 3.0
_NET_CACHE = {}


def ring_lattice_net(n: int) -> CongestNetwork:
    """Degree-4 ring lattice: linear edge growth, cheap to build at 10^5."""
    net = _NET_CACHE.get(n)
    if net is None:
        g = nx.watts_strogatz_graph(n, 4, 0, seed=0)
        net = CongestNetwork(g, bandwidth=31)
        net.edge_index()  # pre-build the CSR so runs time the engine only
        _NET_CACHE[n] = net
    return net


def _time_once(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _best_of(fn, reps: int = 2) -> float:
    return min(_time_once(fn) for _ in range(reps))


def _run_fused(net):
    return execute_vectorized(
        net, VectorizedBroadcastAccumulate(ROUNDS), ROUNDS + 2, 0, False, "lite"
    )


def _run_reference(net):
    return execute_vectorized_reference(
        net, VectorizedBroadcastAccumulate(ROUNDS), ROUNDS + 2, 0, False, "lite"
    )


class TestScaleSweep:
    def test_fused_vs_reference_speedup(self):
        rows = []
        payload = {}
        for n in NS:
            net = ring_lattice_net(n)
            a = _run_fused(net)  # warm (also the parity run)
            b = _run_reference(net)
            assert a.decision == b.decision
            assert a.rounds == b.rounds
            assert a.metrics.total_bits == b.metrics.total_bits
            assert a.metrics.total_messages == b.metrics.total_messages
            assert a.node_decisions == b.node_decisions
            fused_s = _best_of(lambda: _run_fused(net))
            ref_s = _best_of(lambda: _run_reference(net))
            speedup = ref_s / fused_s
            rows.append((n, f"{fused_s:.3f}", f"{ref_s:.3f}", f"{speedup:.2f}x"))
            payload[str(n)] = {
                "fused_s": round(fused_s, 4),
                "reference_s": round(ref_s, 4),
                "speedup": round(speedup, 2),
            }
            if n >= 65536:
                assert speedup >= MIN_SPEEDUP, (
                    f"fused lane only {speedup:.2f}x over the reference at "
                    f"n={n}; floor is {MIN_SPEEDUP}x"
                )
        print_table(
            f"scale: fused vs reference vectorized lane ({ROUNDS} rounds, "
            "degree-4 ring lattice, lite metrics)",
            ["n", "fused s", "reference s", "speedup"],
            rows,
        )
        emit(
            "BENCH_scale",
            "fused_vs_reference",
            {"rounds": ROUNDS, "min_speedup_asserted": MIN_SPEEDUP, "by_n": payload},
        )

    def test_wall_clock_scales_roughly_linearly(self):
        """16x more nodes must cost well under 16^2 -- rule out O(n^2)."""
        lo, hi = NS[0], NS[-1]
        t_lo = _best_of(lambda: _run_fused(ring_lattice_net(lo)))
        t_hi = _best_of(lambda: _run_fused(ring_lattice_net(hi)))
        growth = t_hi / max(t_lo, 1e-9)
        factor = hi / lo
        print_table(
            "scale: fused wall-clock growth",
            ["n range", "time ratio", "node ratio"],
            [(f"{lo} -> {hi}", f"{growth:.1f}x", f"{factor}x")],
        )
        # Constant per-run overhead makes sublinear ratios possible; the
        # guard only excludes superlinear blowup (4x headroom over linear).
        assert growth < 4 * factor
        emit(
            "BENCH_scale",
            "wall_clock_growth",
            {
                "n_lo": lo,
                "n_hi": hi,
                "time_ratio": round(growth, 2),
                "node_ratio": factor,
            },
        )


class TestScaleSmoke:
    def test_scale_smoke(self):
        """verify.sh's time-budgeted slice: one mid-size parity + speedup."""
        n = 16384
        net = ring_lattice_net(n)
        a = _run_fused(net)
        b = _run_reference(net)
        assert a.decision == b.decision
        assert a.metrics.total_bits == b.metrics.total_bits
        fused_s = _best_of(lambda: _run_fused(net))
        ref_s = _best_of(lambda: _run_reference(net))
        assert ref_s / fused_s >= 1.5
