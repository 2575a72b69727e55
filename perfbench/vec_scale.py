"""``vec_scale``: one detection at n = 131072 on the vectorized lane.

Why this workload: a degree-4 ring lattice running
``VectorizedBroadcastAccumulate(8)`` under lite metrics spends nearly
all its time in ``congest.network`` (network build, CSR edge index) and
``congest.vectorized``/``congest.kernels`` (the round loop and the
result synthesis after it), and none in ``serve`` or ``infotheory``.

One operation is what a caller with a graph in hand pays for an
``ExecutionResult``: ``CongestNetwork(g, bandwidth=31)`` ->
``edge_index()`` -> ``run()``.  Graph generation is set-up.  The ring
lattice has no rewiring, so the graph is the same for every seed; the
seed is the run's node-randomness seed.
"""

from __future__ import annotations

import gc
import statistics
import time

from perfbench.context import Op, Outcome, RunContext, import_s, no_span, settle, timed_loop
from perfbench.spans import self_times

N = 131072
DEGREE = 4
ROUNDS = 8
BANDWIDTH = 31
SETUP_REPEATS = 3
#: Latency limit per detection for ``slo_ratio`` (well above the
#: measured 1-3 s, so it only counts failed or stalled operations).
SLO_S = 10.0
#: Exact outputs: every node broadcasts a 31-bit accumulator over every
#: directed edge for 8 rounds, 4 * 131072 * 8 messages in all.
EXPECT_DECISION = "REJECT"
EXPECT_ROUNDS = ROUNDS
EXPECT_MESSAGES = DEGREE * N * ROUNDS
EXPECT_BITS = EXPECT_MESSAGES * BANDWIDTH
#: Share of each operation the three spans must cover.
MIN_COVERAGE = 0.95

IMPORTS = (
    "networkx",
    "repro.congest.kernels",
    "repro.congest.network",
    "repro.core.broadcast_accumulate",
    "repro.runtime.policy",
)

PER_LAYER = (
    "network.build_s",
    "network.edge_index_s",
    "vectorized.run_s",
    "kernels.round_s",
    "vectorized.tail_s",
    "kernels.fast_round_ratio",
    "kernels.messages",
    "trace.unattributed_ratio",
    "trace.overhead_ratio",
)


def run(ctx: RunContext) -> Outcome:
    imports = import_s(ctx, IMPORTS)
    import networkx as nx

    from repro.congest.kernels import KernelProfile
    from repro.congest.network import CongestNetwork
    from repro.core.broadcast_accumulate import VectorizedBroadcastAccumulate
    from repro.runtime.policy import ExecutionPolicy

    gen_s = []
    graph = None
    for _ in range(SETUP_REPEATS):
        graph = None
        gc.collect()
        t = time.perf_counter()
        graph = nx.watts_strogatz_graph(N, DEGREE, 0)
        gen_s.append(time.perf_counter() - t)
    setup_s = statistics.median(imports) + statistics.median(gen_s)

    def operation(traced: bool) -> Op:
        gc.collect()
        profile = KernelProfile() if traced else None
        span = ctx.tracer.span if traced else no_span
        start = time.perf_counter()
        with span("op"):
            with span("network.build"):
                t_a = time.perf_counter()
                net = CongestNetwork(graph, bandwidth=BANDWIDTH)
            with span("network.edge_index"):
                t_b = time.perf_counter()
                net.edge_index()
            with span("vectorized.run"):
                t_c = time.perf_counter()
                res = net.run(
                    VectorizedBroadcastAccumulate(ROUNDS),
                    max_rounds=ROUNDS + 2,
                    seed=ctx.seed,
                    metrics="lite",
                    profile=profile,
                )
                t_d = time.perf_counter()
        ok = (
            res.decision.name == EXPECT_DECISION
            and res.rounds == EXPECT_ROUNDS
            and res.metrics.total_bits == EXPECT_BITS
            and res.metrics.total_messages == EXPECT_MESSAGES
        )
        got = {
            "decision": res.decision.name,
            "rounds": res.rounds,
            "total_bits": res.metrics.total_bits,
            "total_messages": res.metrics.total_messages,
        }
        return Op(t_d - start, ok, got, ((t_b - t_a, t_c - t_b, t_d - t_c), profile))

    plain, traced = timed_loop(ctx, operation)
    out = Outcome(
        metrics={},
        attempted=0,
        failed=0,
        policy=ExecutionPolicy.from_spec("lane=vectorized,metrics=lite"),
        detail={"setup": {"import_s": imports, "graph_gen_s": gen_s}},
    )
    settle(ctx, out, plain, traced,
           "decision REJECT, 8 rounds, exact bit and message totals",
           {"total_bits": EXPECT_BITS, "total_messages": EXPECT_MESSAGES},
           setup_s, SLO_S)
    if not ctx.trace:
        return out

    totals = [op.seconds for op in traced]
    build = [op.extra[0][0] for op in traced]
    csr = [op.extra[0][1] for op in traced]
    run_s = [op.extra[0][2] for op in traced]
    rounds = [_round_s(op.extra[1]) for op in traced]
    last = traced[-1].extra[1]
    attributed = sum(build) + sum(csr) + sum(run_s)
    coverage = attributed / sum(totals)
    out.check(f"build + CSR + run cover >= {MIN_COVERAGE:.0%} of each detection",
              coverage >= MIN_COVERAGE, {"coverage": coverage})
    median = statistics.median
    out.metrics = {
        "network.build_s": median(build),
        "network.edge_index_s": median(csr),
        "vectorized.run_s": median(run_s),
        "kernels.round_s": median(rounds),
        "vectorized.tail_s": median([r - k for r, k in zip(run_s, rounds)]),
        "kernels.fast_round_ratio": last.fast_rounds / last.rounds,
        "kernels.messages": last.messages,
        "trace.unattributed_ratio": 1.0 - coverage,
        "trace.overhead_ratio": median(totals) / median([op.seconds for op in plain]),
    }
    out.detail["traced_ops"] = len(traced)
    out.detail["kernel_profile"] = last.as_dict()
    out.detail["self_s"] = self_times(ctx.tracer.spans)
    return out


def _round_s(profile) -> float:
    """The five public ``KernelProfile`` round phases, summed."""
    return (
        profile.step_s + profile.mask_s + profile.bill_s
        + profile.permute_s + profile.deliver_s
    )
