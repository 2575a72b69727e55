"""Run plumbing shared by the workloads: context, checks, result object."""

from __future__ import annotations

import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from perfbench import stats
from perfbench.spans import Tracer

#: Every later performance claim must also hold on this seed, besides
#: the seeds it was developed on (see README.md).
CONFIRMATION_SEED = 7919

#: Fresh interpreters whose import time goes into ``setup_s`` (median).
IMPORT_REPEATS = 5


@dataclass
class RunContext:
    root: Path
    workload: str
    seed: int
    seconds: float
    trace: bool
    started: float
    tracer: Optional[Tracer] = None

    def __post_init__(self) -> None:
        if self.trace:
            self.tracer = Tracer()

    @property
    def out_dir(self) -> Path:
        path = self.root / "perfbench" / "_out"
        path.mkdir(exist_ok=True)
        return path


def no_span(name: str) -> nullcontext:
    """The untraced stand-in for :meth:`Tracer.span`."""
    return nullcontext()


def program_env(ctx: RunContext) -> Dict[str, str]:
    """Environment of a child interpreter that imports the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ctx.root / "src"), str(ctx.root)])
    return env


def import_s(ctx: RunContext, modules: Sequence[str]) -> List[float]:
    """Time to import ``modules`` in each of :data:`IMPORT_REPEATS` fresh
    interpreters (a cold import in this process happens only once)."""
    code = (
        "import time; t = time.perf_counter(); import "
        + ", ".join(modules)
        + "; print(time.perf_counter() - t)"
    )
    return [
        float(subprocess.run(
            [sys.executable, "-c", code], cwd=ctx.root, env=program_env(ctx),
            capture_output=True, text=True, timeout=60, check=True,
        ).stdout)
        for _ in range(IMPORT_REPEATS)
    ]


@dataclass
class Op:
    """One timed operation and its output check."""

    seconds: float
    ok: bool
    got: Any
    extra: Any = None


def timed_loop(ctx: RunContext, operation: Callable[[bool], Op]) -> Tuple[List[Op], List[Op]]:
    """Repeat ``operation(traced)`` for ``--seconds``; at least once.

    Untraced for the whole time, or, in a traced run, untraced for the
    first half and traced for the second, so the two halves give the
    trace overhead.
    """
    plain: List[Op] = []
    traced: List[Op] = []
    halves = ((False, plain), (True, traced)) if ctx.trace else ((False, plain),)
    for flag, ops in halves:
        deadline = time.perf_counter() + ctx.seconds / len(halves)
        while not ops or time.perf_counter() < deadline:
            ops.append(operation(flag))
    return plain, traced


@dataclass
class Outcome:
    """What a workload measured and checked."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    policy: Any = None
    checks: List[Dict[str, Any]] = field(default_factory=list)
    detail: Dict[str, Any] = field(default_factory=dict)

    def check(self, name: str, ok: bool, info: Any = None) -> bool:
        """Record one output check; a failed check fails the run."""
        self.checks.append({"check": name, "ok": bool(ok), "info": info})
        return bool(ok)


def settle(
    ctx: RunContext,
    out: Outcome,
    plain: List[Op],
    traced: List[Op],
    check: str,
    expected: Any,
    setup_s: float,
    slo_s: float,
) -> None:
    """Count and check every operation of :func:`timed_loop`; on an
    untraced run, set the end-to-end metrics (every operation executes,
    so ``exec_gmean_ms`` is ``op_gmean_ms``)."""
    bad = [op.got for op in plain + traced if not op.ok]
    out.attempted = len(plain) + len(traced)
    out.failed = len(bad)
    out.check(check, not bad, bad[:3] or expected)
    op_ms = [op.seconds * 1000.0 for op in plain]
    out.detail.update({
        "ops": len(plain),
        "op_ms": [round(t, 3) for t in op_ms],
        "tail": stats.tail(op_ms).__dict__,
    })
    if ctx.trace:
        return
    out.metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_gmean_ms": statistics.geometric_mean(op_ms),
        "exec_gmean_ms": statistics.geometric_mean(op_ms),
        "slo_ratio": sum(1 for op in plain if op.ok and op.seconds <= slo_s) / len(plain),
    }


def stamp(ctx: RunContext, policy: Any) -> Dict[str, Any]:
    """``environment_stamp`` plus core count and the workload seed."""
    from repro.runtime.record import environment_stamp

    out = environment_stamp(policy)
    out["nproc"] = os.cpu_count()
    out["workload"] = ctx.workload
    out["seed"] = ctx.seed
    out["confirmation_seed"] = CONFIRMATION_SEED
    out["seconds"] = ctx.seconds
    out["trace"] = ctx.trace
    return out


def finish(ctx: RunContext, spec: Dict[str, Any], workload: Any, outcome: Outcome):
    """Validate the metric set against ``BENCHMARK.json``; build the
    result object (last stdout line) and the detail report."""
    group = spec["per_layer"] if ctx.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in group}
    metrics = dict(outcome.metrics)
    measured = set(workload.PER_LAYER) if ctx.trace else set(units)
    missing = sorted(measured - set(metrics))
    extra = sorted(set(metrics) - set(units))
    outcome.check("metric set matches BENCHMARK.json", not missing and not extra,
                  {"missing": missing, "extra": extra})
    # Layers a workload never enters did no work there: measured as zero.
    for name in units:
        metrics.setdefault(name, 0)
    correct = all(c["ok"] for c in outcome.checks)
    result = {
        "correct": correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]} for name in units
        },
    }
    detail = {
        "stamp": stamp(ctx, outcome.policy),
        "checks": outcome.checks,
        "wall_s": time.perf_counter() - ctx.started,
        **outcome.detail,
    }
    return result, detail
