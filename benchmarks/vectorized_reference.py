"""The frozen pre-fusion vectorized round loop (benchmark baseline).

Not part of the library: the production lane is
:func:`repro.congest.vectorized.execute_vectorized`.  This copy exists only
so ``bench_scale.py`` can measure the fused kernel against the loop it
replaced, and so ``tests/congest/test_kernels.py`` can pin the two
bit-identical (decisions, rounds, ledgers and every error string).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

from repro.congest.algorithm import Decision, NodeContext
from repro.congest.message import BandwidthExceeded
from repro.congest.metrics import METRIC_MODES, CommMetrics
from repro.congest.network import ExecutionResult
from repro.congest.vectorized import (
    _DECISION_OF_CODE,
    _EMPTY_I64,
    VEC_REJECT,
    VecInbox,
    VecRun,
    VectorizedAlgorithm,
)

__all__ = ["execute_vectorized_reference"]


def execute_vectorized_reference(
    net: Any,
    algorithm: VectorizedAlgorithm,
    max_rounds: int,
    seed: Optional[int],
    stop_on_reject: bool,
    metrics: str,
    observer: Optional[Any] = None,
    injector: Optional[Any] = None,
):
    """The frozen pre-fusion vectorized round loop.

    A verbatim copy of :func:`~repro.congest.vectorized.execute_vectorized`
    as it stood before the fused :class:`~repro.congest.kernels.RoundKernel`
    landed: per-round stable argsorts for outbox validation and delivery
    ordering, fresh temporaries every round, inline full-mode
    accumulators, and eagerly built per-node contexts.  Kept as the
    baseline the fused engine is differentially tested against
    (``tests/congest/test_kernels.py``) and benchmarked against
    (``benchmarks/bench_scale.py`` asserts the fused speedup).  Not part
    of the production call path -- do not optimise.
    """
    if metrics not in METRIC_MODES:
        raise ValueError(f"metrics must be one of {METRIC_MODES}, got {metrics!r}")
    comm = CommMetrics(mode=metrics)
    grid = net.edge_index()
    n = grid.n
    master = np.random.default_rng(seed) if seed is not None else None
    rngs: List[Optional[np.random.Generator]] = [
        np.random.default_rng(master.integers(0, 2**63)) if master is not None else None
        for _ in range(n)
    ]
    run = VecRun(
        grid=grid,
        n=n,
        namespace_size=net.namespace_size,
        bandwidth=net.bandwidth,
        knows_n=net.knows_n,
        inputs=net.inputs,
        rngs=rngs,
    )
    state = algorithm.init_state(run)
    if observer is not None:
        observer.vec_after_init(run)

    full = metrics == "full"
    if full:
        edge_bits_acc = np.zeros(grid.num_directed, dtype=np.int64)
        edge_msgs_acc = np.zeros(grid.num_directed, dtype=np.int64)
        node_bits_acc = np.zeros(n, dtype=np.int64)
        node_msgs_acc = np.zeros(n, dtype=np.int64)

    apply_delivery = injector is not None and injector.affects_delivery
    crash_round_pos: Optional[np.ndarray] = None
    if injector is not None and injector.crash_round_of:
        never = np.iinfo(np.int64).max
        cr = np.full(n, never, dtype=np.int64)
        for u, at in injector.crash_round_of.items():
            p = int(np.searchsorted(grid.ids, u))
            if p < n and int(grid.ids[p]) == u:
                cr[p] = at
        if bool((cr != never).any()):
            crash_round_pos = cr
    crash_halted = np.zeros(n, dtype=bool)
    frozen_decision = np.zeros(n, dtype=run.decision.dtype)

    bandwidth = net.bandwidth
    inbox = VecInbox.empty()
    rounds_run = 0
    for r in range(max_rounds):
        if crash_round_pos is not None:
            newly = (~crash_halted) & (crash_round_pos <= r)
            if newly.any():
                frozen_decision[newly] = run.decision[newly]
                crash_halted |= newly
                run.halted[newly] = True
        if run.halted.all():
            break
        if stop_on_reject and bool((run.decision == VEC_REJECT).any()):
            break
        out = algorithm.step_all(run, r, state, inbox)
        if crash_round_pos is not None and crash_halted.any():
            run.decision[crash_halted] = frozen_decision[crash_halted]
            run.halted |= crash_halted
        any_traffic = out is not None and out.edges.shape[0] > 0
        if any_traffic:
            edges = np.asarray(out.edges, dtype=np.int64)
            payload = np.asarray(out.payload)
            if payload.shape[0] != edges.shape[0]:
                raise ValueError(
                    f"round {r}: outbox payload rows ({payload.shape[0]}) != "
                    f"edges ({edges.shape[0]})"
                )
            sizes = out.size_bits
            per_message = isinstance(sizes, np.ndarray)
            if per_message and sizes.shape[0] != edges.shape[0]:
                raise ValueError(
                    f"round {r}: size_bits array length ({sizes.shape[0]}) != "
                    f"edges ({edges.shape[0]})"
                )
            if crash_round_pos is not None and crash_halted.any():
                alive = ~crash_halted[grid.src[edges]]
                if not alive.all():
                    edges = edges[alive]
                    payload = payload[alive]
                    if per_message:
                        sizes = sizes[alive]
                    any_traffic = edges.shape[0] > 0
        if any_traffic:
            order = np.argsort(edges, kind="stable")
            if not np.array_equal(order, np.arange(order.shape[0])):
                edges = edges[order]
                payload = payload[order]
                if per_message:
                    sizes = sizes[order]
            if edges[0] < 0 or edges[-1] >= grid.num_directed:
                raise ValueError(f"round {r}: outbox edge index out of range")
            if edges.shape[0] > 1 and bool((np.diff(edges) == 0).any()):
                dup = int(edges[np.nonzero(np.diff(edges) == 0)[0][0]])
                u = int(grid.ids[grid.src[dup]])
                v = int(grid.ids[grid.dst[dup]])
                raise ValueError(
                    f"node {u} tried to send two messages to {v} in round {r}; "
                    "the model allows one message per edge per round"
                )
            if per_message:
                sizes = sizes.astype(np.int64, copy=False)
                max_size = int(sizes.max())
                min_size = int(sizes.min())
                bits = int(sizes.sum())
            else:
                max_size = min_size = int(sizes)
                bits = max_size * edges.shape[0]
            if min_size < 0:
                raise ValueError(f"round {r}: negative size_bits")
            if bandwidth is not None and max_size > bandwidth:
                if per_message:
                    bad = int(np.argmax(sizes > bandwidth))
                else:
                    bad = 0
                e = int(edges[bad])
                u = int(grid.ids[grid.src[e]])
                v = int(grid.ids[grid.dst[e]])
                sz = int(sizes[bad]) if per_message else max_size
                raise BandwidthExceeded(
                    f"node {u} -> {v}: message of {sz} bits exceeds B={bandwidth}"
                )
            comm.add_round(r, bits, int(edges.shape[0]), max_size)
            if full:
                if per_message:
                    edge_bits_acc[edges] += sizes
                    np.add.at(node_bits_acc, grid.src[edges], sizes)
                else:
                    edge_bits_acc[edges] += max_size
                    np.add.at(node_bits_acc, grid.src[edges], max_size)
                edge_msgs_acc[edges] += 1
                np.add.at(node_msgs_acc, grid.src[edges], 1)
            if observer is not None:
                observer.vec_round(r, edges, sizes, payload)
            if apply_delivery:
                keep, corrupt = injector.delivery_mask(
                    r,
                    grid.ids[grid.src[edges]],
                    grid.ids[grid.dst[edges]],
                    sizes if per_message else int(sizes),
                )
                if corrupt.any():
                    payload = payload.copy()
                    payload[corrupt] = np.zeros((), dtype=payload.dtype)
                if not keep.all():
                    edges = edges[keep]
                    payload = payload[keep]
                    if per_message:
                        sizes = sizes[keep]
            if edges.shape[0] == 0:
                inbox = VecInbox.empty()
            else:
                dorder = np.argsort(grid.in_rank[edges], kind="stable")
                d_edges = edges[dorder]
                inbox = VecInbox(
                    recv=grid.dst[d_edges],
                    send=grid.src[d_edges],
                    payload=payload[dorder],
                    sizes=sizes[dorder] if per_message else None,
                    size_bits=0 if per_message else max_size,
                )
        else:
            inbox = VecInbox.empty()
            if observer is not None:
                observer.vec_round(r, _EMPTY_I64, 0, None)
        rounds_run = r + 1
        if observer is not None:
            observer.vec_after_round(r, run)
        if not any_traffic and algorithm.all_quiescent(run, state):
            rounds_run = r
            break

    algorithm.finish_all(run, state)
    if crash_round_pos is not None and crash_halted.any():
        run.decision[crash_halted] = frozen_decision[crash_halted]
        run.halted |= crash_halted

    contexts: Dict[int, NodeContext] = {}
    decisions: Dict[int, Decision] = {}
    for p in range(n):
        u = int(grid.ids[p])
        d = _DECISION_OF_CODE[int(run.decision[p])]
        ctx = NodeContext(
            id=u,
            neighbors=net._neighbor_tuples[u],
            n=net.n if net.knows_n else None,
            namespace_size=net.namespace_size,
            bandwidth=net.bandwidth,
            input=net.inputs.get(u),
            rng=rngs[p],
            state=dict(algorithm.node_state(run, state, p)),
            round=max(rounds_run - 1, 0),
            decision=d,
        )
        ctx._halted = bool(run.halted[p])
        contexts[u] = ctx
        decisions[u] = d
    if observer is not None:
        observer.vec_after_finish(contexts)

    if full:
        src_ids = grid.ids[grid.src]
        dst_ids = grid.ids[grid.dst]
        for e in np.nonzero(edge_msgs_acc)[0]:
            comm.edge_bits[(int(src_ids[e]), int(dst_ids[e]))] = int(edge_bits_acc[e])
        for p in np.nonzero(node_msgs_acc)[0]:
            u = int(grid.ids[p])
            comm.node_bits[u] = int(node_bits_acc[p])
            comm.node_messages[u] = int(node_msgs_acc[p])

    if any(d is Decision.REJECT for d in decisions.values()):
        global_decision = Decision.REJECT
    else:
        global_decision = Decision.ACCEPT
    return ExecutionResult(
        decision=global_decision,
        rounds=rounds_run,
        metrics=comm,
        node_decisions=decisions,
        contexts=contexts,
    )
