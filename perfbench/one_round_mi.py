from __future__ import annotations

import gc
import statistics
import time

from perfbench.context import Op, Outcome, RunContext, import_s, no_span, settle, timed_loop
from perfbench.spans import self_times

N = 8
ID_WIDTH = 10
TRUNC_BUDGET = 20
FULL_WORLDS = 2
TRUNC_WORLDS = 4
GAP_SAMPLES = 300
SETUP_REPEATS = 3
#: Latency limit per measurement set for ``slo_ratio`` (measured
#: 0.6-1.7 s; the limit only counts failed or stalled operations).
SLO_S = 10.0
CATALOGUE = 16

#: ``mean_mi`` of the truncated protocol per catalogue entry (exact
#: dyadic values of the current engine; the full protocol reveals X_bc,
#: so its MI is exactly 1 bit in every world).
TRUNC_MEAN_MI = (
    0.375, 0.06396484375, 0.25, 0.265625,
    0.380859375, 0.259765625, 0.0673828125, 0.71875,
    0.39837646484375, 0.87890625, 0.4453125, 0.46875,
    0.453125, 0.5703125, 0.3984375, 0.095703125,
)
FULL_MEAN_MI = 1.0
FULL_MAX_BITS = (N + 3) * ID_WIDTH
TRUNC_MAX_BITS = TRUNC_BUDGET
#: Tolerance on pinned information values (the unit tests' tolerance).
MI_TOL = 1e-12

IMPORTS = (
    "numpy",
    "repro.lowerbounds.one_round",
    "repro.core.triangle",
    "repro.runtime.policy",
)

PER_LAYER = (
    "infotheory.mi_s",
    "infotheory.mi_calls",
    "lowerbounds.enum_s",
    "lowerbounds.accept_gap_s",
    "trace.unattributed_ratio",
    "trace.overhead_ratio",
)


def run(ctx: RunContext) -> Outcome:
    imports = import_s(ctx, IMPORTS)
    import numpy as np

    import repro.lowerbounds.one_round as one_round
    from repro.core.triangle import (
        FullAnnouncementProtocol,
        TruncatedAnnouncementProtocol,
    )
    from repro.runtime.policy import ExecutionPolicy

    entry = ctx.seed % CATALOGUE

    def protocols():
        return (
            FullAnnouncementProtocol(ID_WIDTH),
            TruncatedAnnouncementProtocol(ID_WIDTH, budget=TRUNC_BUDGET),
        )

    # Set-up is the imports plus building the protocols; the build is
    # repeated and its median taken.
    build_s = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        full, trunc = protocols()
        build_s.append(time.perf_counter() - t)
    setup_s = statistics.median(imports) + statistics.median(build_s)

    def operation(traced: bool) -> Op:
        gc.collect()
        span = ctx.tracer.span if traced else no_span
        if traced:
            ctx.tracer.wrap(one_round, "mutual_information", "infotheory.mi")
        try:
            start = time.perf_counter()
            with span("op"):
                with span("lowerbounds.pinned_world_mi"):
                    f = one_round.pinned_world_mi(
                        full, N, np.random.default_rng([1, entry]), num_worlds=FULL_WORLDS
                    )
                with span("lowerbounds.pinned_world_mi"):
                    tr = one_round.pinned_world_mi(
                        trunc, N, np.random.default_rng([2, entry]), num_worlds=TRUNC_WORLDS
                    )
                with span("lowerbounds.accept_gap"):
                    g = one_round.measure_accept_gap(
                        full, N, np.random.default_rng([3, entry]), num_samples=GAP_SAMPLES
                    )
            total = time.perf_counter() - start
        finally:
            if traced:
                ctx.tracer.restore()
        got = {
            "full_mean_mi": f.mean_mi,
            "full_max_bits": f.max_message_bits,
            "trunc_mean_mi": tr.mean_mi,
            "trunc_max_bits": tr.max_message_bits,
            "gap": [g.p_accept_xbc0, g.p_accept_xbc1, g.error_rate,
                    g.decision_mi_lower_bound, g.samples_used],
        }
        ok = (
            abs(f.mean_mi - FULL_MEAN_MI) <= MI_TOL
            and f.max_message_bits == FULL_MAX_BITS
            and abs(tr.mean_mi - TRUNC_MEAN_MI[entry]) <= MI_TOL
            and tr.max_message_bits == TRUNC_MAX_BITS
            and got["gap"] == [1.0, 0.0, 0.0, 1.0, GAP_SAMPLES]
        )
        return Op(total, ok, got)

    plain, traced = timed_loop(ctx, operation)
    out = Outcome(
        metrics={}, attempted=0, failed=0, policy=ExecutionPolicy(),
        detail={"entry": entry, "setup": {"import_s": imports, "build_s": build_s}},
    )
    settle(ctx, out, plain, traced,
           "pinned mean_mi and max_message_bits; exact Lemma 5.3 accept gap",
           {"entry": entry, "trunc_mean_mi": TRUNC_MEAN_MI[entry]},
           setup_s, SLO_S)
    if not ctx.trace:
        return out

    per_op = _per_op(ctx.tracer.spans)
    median = statistics.median
    out.metrics = {
        "infotheory.mi_s": median([p["infotheory.mi"] for p in per_op]),
        "infotheory.mi_calls": median([p["mi_calls"] for p in per_op]),
        "lowerbounds.enum_s": median([p["enum_self"] for p in per_op]),
        "lowerbounds.accept_gap_s": median([p["lowerbounds.accept_gap"] for p in per_op]),
        "trace.unattributed_ratio": sum(p["op_self"] for p in per_op)
        / sum(p["op"] for p in per_op),
        "trace.overhead_ratio": median([op.seconds for op in traced])
        / median([op.seconds for op in plain]),
    }
    out.detail["traced_ops"] = len(traced)
    out.detail["self_s"] = self_times(ctx.tracer.spans)
    return out


def _per_op(spans):
    """Per measurement set: span totals, MI call count and self times."""
    by_id = {s["id"]: s for s in spans}

    def root_of(s):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
        return s["id"]

    groups = {}
    for s in spans:
        groups.setdefault(root_of(s), []).append(s)
    out = []
    for group in groups.values():
        selfs = self_times(group)
        rec = {"infotheory.mi": 0.0, "lowerbounds.accept_gap": 0.0, "mi_calls": 0}
        for s in group:
            dur = s["end"] - s["start"]
            if s["name"] == "op":
                rec["op"] = dur
            elif s["name"] == "infotheory.mi":
                rec["infotheory.mi"] += dur
                rec["mi_calls"] += 1
            elif s["name"] == "lowerbounds.accept_gap":
                rec["lowerbounds.accept_gap"] += dur
        rec["enum_self"] = selfs.get("lowerbounds.pinned_world_mi", 0.0)
        rec["op_self"] = selfs["op"]
        out.append(rec)
    return out
