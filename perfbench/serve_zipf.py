"""``serve_zipf``: open-loop Zipf traffic at a served detection server.

Why this workload: it is the only one through ``serve``.  Hits exercise
``protocol`` parsing and ``cache`` reads; misses exercise ``admission``
-> the ``runtime`` engine -> the ``core`` detectors -> the
``congest.parallel`` process pool, plus one journal fsync per cache
fill, the write traffic beside the reads; duplicates that arrive while
their leader is still executing exercise ``coalesce``.

Traffic: an **open loop** -- independent users, so requests are sent on
a Poisson schedule at a fixed :data:`RATE` whether or not earlier ones
were answered -- over :data:`CONNECTIONS` loopback connections to a
``python -m repro serve --policy jobs=2 --cache-journal PATH`` process.
Profiles come from a fixed catalogue by a Zipf law; the catalogue
(patterns x gnp sizes x policies x iteration budgets) is three times the
server's ``--cache-size``, so LRU evictions happen.  Every seed sends the
same mix of profiles; the benchmark seed draws their order and the
arrival times.

Latency is measured from each request's *due* time, so a stall in the
client or the server also delays every request behind it;
``loadgen.late_max_ms`` reports how far sending fell behind schedule.
"""

from __future__ import annotations

import asyncio
import ctypes
import json
import os
import random
import resource
import select
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from perfbench import spans as span_tools
from perfbench import stats
from perfbench.context import Outcome, RunContext, import_s, program_env

#: Arrival rate (requests per second) of the open loop.
RATE = 40.0
CONNECTIONS = 2
CACHE_SIZE = 48
#: Zipf exponent of profile popularity.  An assumption, not fitted to
#: any trace: it makes the most popular profiles steady cache hits while
#: the long tail of a catalogue three times the cache keeps evicting.
ZIPF_S = 1.1
#: Share of arrivals that bring two identical requests at the same
#: instant.  An assumption, not measured: without it ``coalesce`` sees
#: almost no traffic at this rate, because a miss is answered long before
#: the next request for the same profile arrives.
DUPLICATE_P = 0.15
#: Latency limit for ``slo_ratio``.
SLO_MS = 250.0
SETUP_REPEATS = 3
SERVER_POLICY = "jobs=2"
#: Sending starts this long after the schedule is laid out.
START_LEAD_S = 0.05
#: Failure timeouts, sized so that a wedged server still ends the run
#: well inside its time limit.
DRAIN_TIMEOUT_S = 30.0
EXCHANGE_TIMEOUT_S = 10.0
BANNER_TIMEOUT_S = 30.0
STOP_TIMEOUT_S = 10.0
#: Responses per cache outcome rebuilt and diffed against direct runs.
SAMPLES_PER_SOURCE = 2
#: A run that sends at least this many requests must sample every
#: cache outcome (hit, coalesced, miss); a shorter smoke run may lack some.
FULL_RUN_REQUESTS = int(RATE * 10)

AMPLIFIED = ("c4", "c6", "odd-c5")
SINGLE_RUN = ("triangle", "k4")
GRAPHS = tuple(
    {"kind": "gnp", "n": n, "p": p, "seed": s}
    for n, p in ((16, 0.2), (24, 0.15), (32, 0.12))
    for s in (1, 2)
)
POLICIES = ("", "metrics=lite", "lane=vectorized")
ITERATIONS = (4, 8)
#: Requests that start the process pool during set-up; their graphs are
#: outside the catalogue, so they never answer a measured request.
WARMUP = (
    {"pattern": "c4", "graph": {"kind": "cycle", "k": 12}, "iterations": 4},
    {"pattern": "odd-c5", "graph": {"kind": "cycle", "k": 10}, "iterations": 4},
    {"pattern": "triangle", "graph": {"kind": "clique", "s": 5}},
)
#: The server writes rows with sorted keys, so a record row starts with
#: its id and ends with its type.
RECORD_PREFIX = b'{"id": "'
RECORD_SUFFIX = b'"type": "record"}\n'
#: Cold-start probe, made on a separate fresh server off the measured
#: path: a single-run request sent together with the first amplified
#: request, which starts the process pool.
COLDSTART = (WARMUP[0], WARMUP[2])
COLDSTART_TIMEOUT_S = 5.0
#: ``prctl`` option that makes this process the reaper of orphaned
#: descendants, so a wedged server's pool workers can be waited for.
PR_SET_CHILD_SUBREAPER = 36
#: Start-of-line markers of an unhandled-exception report on stderr.
UNHANDLED_MARKERS = ("Traceback (most recent call last)", "Task was destroyed")

PER_LAYER = (
    "protocol.parse_ms",
    "cache.get_ms",
    "executor.derive_ms",
    "cache.put_ms",
    "admission.wait_ms",
    "engine.queue_ms",
    "executor.execute_ms",
    "parallel.amplify_ms",
    "graphs.build_ms",
    "serve.hit_ratio",
    "serve.coalesced_ratio",
    "cache.evictions",
    "cache.journal_appended",
    "admission.rejected_total",
    "parallel.seeds_run_ratio",
    "loadgen.late_max_ms",
    "serve.unhandled_errors",
    "serve.coldstart_stalls",
    "trace.unattributed_ratio",
    "trace.overhead_ratio",
)

#: Per-layer span means reported in milliseconds per call.
SPAN_MEANS = {
    "protocol.parse_ms": "protocol.parse",
    "cache.get_ms": "cache.get",
    "executor.derive_ms": "executor.derive",
    "cache.put_ms": "cache.put",
    "engine.queue_ms": "engine.queue",
    "executor.execute_ms": "executor.execute",
    "parallel.amplify_ms": "parallel.amplify",
    "graphs.build_ms": "graphs.build",
}


def catalogue() -> List[Dict[str, Any]]:
    """Request profiles in popularity order (fixed for every seed)."""
    out = []
    for graph in GRAPHS:
        for policy in POLICIES:
            for pattern in AMPLIFIED:
                for iterations in ITERATIONS:
                    out.append({"pattern": pattern, "graph": graph,
                                "policy": policy, "iterations": iterations})
            for pattern in SINGLE_RUN:
                out.append({"pattern": pattern, "graph": graph, "policy": policy})
    random.Random(0).shuffle(out)
    return out


def schedule(seed: int, count: int, n_profiles: int):
    """``count`` due offsets (s) and Zipf-distributed profile indices.

    Each profile appears its Zipf share of ``count`` times (largest
    remainder rounding), so every seed sends the same mix; the seed
    shuffles the order and draws the Poisson arrival times.  With
    probability :data:`DUPLICATE_P` an arrival brings two identical
    requests at the same instant (two users asking the same question
    together), so uncached profiles also arrive while their first
    request is still executing.  The mean rate is :data:`RATE`
    requests per second.
    """
    rng = random.Random(seed)
    weights = [rank ** -ZIPF_S for rank in range(1, n_profiles + 1)]
    total = sum(weights)
    shares = [count * w / total for w in weights]
    counts = [int(x) for x in shares]
    by_remainder = sorted(range(n_profiles), key=lambda k: counts[k] - shares[k])
    for k in by_remainder[: count - sum(counts)]:
        counts[k] += 1
    picks = [k for k, c in enumerate(counts) for _ in range(c)]
    rng.shuffle(picks)
    dues = []
    t = 0.0
    for i in range(count):
        if i and picks[i] == picks[i - 1]:
            dues.append(t)
            continue
        t += rng.expovariate(RATE * (1.0 - DUPLICATE_P))
        dues.append(t)
        if i + 1 < count and rng.random() < DUPLICATE_P:
            # Pull a later request of the same profile forward.
            try:
                j = picks.index(picks[i], i + 1)
            except ValueError:
                continue
            picks[i + 1], picks[j] = picks[j], picks[i + 1]
    return dues, picks


def count_unhandled(text: str) -> int:
    """Unhandled-exception reports in a server's stderr."""
    return sum(
        1 for line in text.splitlines() if line.startswith(UNHANDLED_MARKERS)
    )


def adopt_orphans() -> None:
    """Become the reaper of orphaned descendants (Linux only)."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def end_group(pgid: int) -> int:
    """SIGKILL what is left of process group ``pgid`` and wait until it is
    gone; return the number of leftover processes this process reaped."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return 0
    reaped = 0
    deadline = time.monotonic() + STOP_TIMEOUT_S
    while time.monotonic() < deadline:
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                reaped += 1
        except ChildProcessError:
            pass
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            break
        time.sleep(0.02)
    return reaped


class ServerProcess:
    """One ``repro serve`` subprocess (optionally under the span launcher)."""

    def __init__(self, ctx: RunContext, tag: str, spans_path: Optional[Path] = None):
        out = ctx.out_dir
        self.journal = out / f"serve-{tag}.journal"
        self.stderr_path = out / f"serve-{tag}.stderr"
        for path in (self.journal, self.stderr_path):
            if path.exists():
                path.unlink()
        args = [
            "--port", "0",
            "--policy", SERVER_POLICY,
            "--cache-size", str(CACHE_SIZE),
            "--cache-journal", str(self.journal),
        ]
        if spans_path is None:
            cmd = [sys.executable, "-m", "repro", "serve", *args]
        else:
            cmd = [sys.executable, "-m", "perfbench.serve_launcher", str(spans_path), *args]
        self._stderr = self.stderr_path.open("w", encoding="utf-8")
        # A session of its own, so the server and its pool workers form
        # one process group that :meth:`stop` can end as a whole.
        self.proc = subprocess.Popen(
            cmd, cwd=ctx.root, env=program_env(ctx), stdout=subprocess.PIPE,
            stderr=self._stderr, text=True, start_new_session=True,
        )
        self.stopped = False
        self.unhandled = 0
        self.orphans = 0
        self.port = self._read_port()

    def _read_port(self) -> int:
        ready, _, _ = select.select([self.proc.stdout], [], [], BANNER_TIMEOUT_S)
        banner = self.proc.stdout.readline() if ready else ""
        if not banner.startswith("serving on "):
            self.stop()
            raise RuntimeError(f"server did not start: {banner!r}")
        return int(banner.rsplit(":", 1)[1])

    def stop(self) -> None:
        """SIGTERM, wait for exit, end the processes the server left
        behind, count unhandled-exception reports."""
        if self.stopped:
            return
        self.stopped = True
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.orphans = end_group(self.proc.pid)
        self.proc.stdout.close()
        self._stderr.close()
        self.unhandled = count_unhandled(self.stderr_path.read_text(encoding="utf-8"))


async def exchange(
    port: int, bodies: Sequence[Dict[str, Any]], timeout: float = EXCHANGE_TIMEOUT_S
) -> Dict[str, Dict[str, Any]]:
    """Send ``bodies`` on one connection; return the terminal rows (by id)
    that arrive within ``timeout`` seconds."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    terminals: Dict[str, Dict[str, Any]] = {}

    async def collect() -> None:
        while len(terminals) < len(bodies):
            line = await reader.readline()
            if not line:
                return
            row = json.loads(line)
            if row["type"] != "record":
                terminals[row["id"]] = row

    try:
        writer.write(b"".join(json.dumps(b).encode() + b"\n" for b in bodies))
        await writer.drain()
        try:
            await asyncio.wait_for(collect(), timeout)
        except asyncio.TimeoutError:
            pass
        return terminals
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


def warm_up(server: ServerProcess) -> Dict[str, Any]:
    """Start the pool with the warm-up requests; return the stats row."""
    bodies = [{"id": f"warm-{i}", **b} for i, b in enumerate(WARMUP)]
    # The first request alone: a single-run request sent while the first
    # amplification starts the pool stalls (see README.md and
    # ``coldstart_stalls``).
    rows = asyncio.run(exchange(server.port, bodies[:1]))
    rows.update(asyncio.run(exchange(server.port, bodies[1:])))
    bad = [r for r in rows.values() if r["type"] != "result"]
    if len(rows) != len(bodies) or bad:
        raise RuntimeError(f"warm-up failed: {bad or rows}")
    return stats_row(server)


def stats_row(server: ServerProcess) -> Dict[str, Any]:
    rows = asyncio.run(exchange(server.port, [{"id": "stats", "op": "stats"}]))
    return rows["stats"]


def coldstart_stalls(ctx: RunContext) -> Dict[str, Any]:
    """Send :data:`COLDSTART` at once to a fresh server; count the requests
    left unanswered after :data:`COLDSTART_TIMEOUT_S`."""
    server = ServerProcess(ctx, f"{ctx.seed}-coldstart")
    bodies = [{"id": f"cold-{i}", **b} for i, b in enumerate(COLDSTART)]
    try:
        rows = asyncio.run(exchange(server.port, bodies, COLDSTART_TIMEOUT_S))
    finally:
        server.stop()
    answered = sum(1 for r in rows.values() if r["type"] == "result")
    return {"stalls": len(bodies) - answered, "orphans": server.orphans,
            "unhandled": server.unhandled}


class Load:
    """Outcome of one open-loop replay of a schedule."""

    def __init__(self, n: int) -> None:
        self.due = [0.0] * n
        self.sent: List[Optional[float]] = [None] * n
        self.recv: List[Optional[float]] = [None] * n
        self.terminal: List[Optional[Dict[str, Any]]] = [None] * n
        self.rows: List[List[bytes]] = [[] for _ in range(n)]
        self.duplicates = 0

    def latencies_ms(self, source: Optional[str] = None) -> List[float]:
        return [
            (r - d) * 1000.0
            for r, d, t in zip(self.recv, self.due, self.terminal)
            if r is not None and (source is None or t.get("cache") == source)
        ]

    def late_max_ms(self) -> float:
        return max((s - d) * 1000.0 for s, d in zip(self.sent, self.due) if s is not None)

    def sources(self) -> Counter:
        return Counter(
            t.get("cache") if t["type"] == "result" else f"error:{t.get('code')}"
            for t in self.terminal if t is not None
        )


async def replay(port: int, lines: Sequence[bytes], dues: Sequence[float]) -> Load:
    """Send ``lines`` at their due offsets; collect every response row."""
    load = Load(len(lines))
    remaining = len(lines)
    done = asyncio.Event()
    conns = [await asyncio.open_connection("127.0.0.1", port) for _ in range(CONNECTIONS)]

    async def read(reader: asyncio.StreamReader) -> None:
        nonlocal remaining
        while True:
            line = await reader.readline()
            if not line:
                return
            now = time.perf_counter()
            if line.startswith(RECORD_PREFIX) and line.endswith(RECORD_SUFFIX):
                # Record rows are kept raw and decoded after the run, so
                # the client spends little time per row on the clock.
                i = int(line[len(RECORD_PREFIX):line.index(b'"', len(RECORD_PREFIX))])
                load.rows[i].append(line)
                continue
            row = json.loads(line)
            i = int(row["id"])
            if row["type"] == "record":
                load.rows[i].append(line)
                continue
            if load.terminal[i] is not None:
                load.duplicates += 1
                continue
            load.terminal[i] = row
            load.recv[i] = now
            remaining -= 1
            if remaining == 0:
                done.set()

    readers = [asyncio.ensure_future(read(r)) for r, _ in conns]
    try:
        t0 = time.perf_counter() + START_LEAD_S
        for i, line in enumerate(lines):
            due = t0 + dues[i]
            load.due[i] = due
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            writer = conns[i % CONNECTIONS][1]
            load.sent[i] = time.perf_counter()
            writer.write(line)
        await asyncio.gather(*(w.drain() for _, w in conns))
        try:
            await asyncio.wait_for(done.wait(), DRAIN_TIMEOUT_S)
        except asyncio.TimeoutError:
            pass
    finally:
        for _, writer in conns:
            writer.close()
        for _, writer in conns:
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
        for task in readers:
            task.cancel()
        await asyncio.gather(*readers, return_exceptions=True)
    return load


def counter_delta(after: Dict[str, Any], before: Dict[str, Any]) -> Dict[str, int]:
    """Measured-traffic counters: the final stats row minus the post-warm-up one."""
    def pick(row: Dict[str, Any]) -> Dict[str, int]:
        cache = row["result_cache"]
        return {
            "evictions": cache["evictions"],
            "journal_appended": cache["journal"]["appended"],
            "rejected_total": row["admission"]["rejected_total"],
            "followers_merged": row["coalescer"]["followers_merged"],
            "executed": row["server"]["executed"],
        }

    a, b = pick(after), pick(before)
    return {k: a[k] - b[k] for k in a}


def record_from_rows(rows: List[Dict[str, Any]]) -> Any:
    from repro.runtime import RunRecord, TraceEvent

    header, footer = rows[0], rows[-1]
    return RunRecord(
        policy=header["policy"],
        policy_hash=header["policy_hash"],
        git_sha=header["git_sha"],
        platform=header["platform"],
        started_unix=header["started_unix"],
        finished_unix=footer["finished_unix"],
        events=[TraceEvent.from_dict(r) for r in rows[1:-1]],
    )


def check_samples(out: Outcome, load: Load, bodies: Sequence[Dict[str, Any]]) -> None:
    """Rebuild sampled hit/coalesced/miss responses into ``RunRecord``s and
    diff them against a direct ``execute_request`` of the same body."""
    import multiprocessing

    from repro.congest.parallel import shutdown_pools
    from repro.runtime import ExecutionPolicy, diff_records
    from repro.serve import execute_request, parse_request

    base = ExecutionPolicy.from_spec(SERVER_POLICY)
    picked: Dict[str, List[int]] = {"hit": [], "coalesced": [], "miss": []}
    for i, term in enumerate(load.terminal):
        source = term.get("cache") if term is not None else None
        if source in picked and len(picked[source]) < SAMPLES_PER_SOURCE:
            picked[source].append(i)
    mismatches = []
    try:
        for source, ids in picked.items():
            for i in ids:
                req = parse_request({"id": "direct", **bodies[i]})
                direct = execute_request(req, req.policy(base=base))
                served_rows = [json.loads(line)["row"] for line in load.rows[i]]
                diff = diff_records(record_from_rows(direct.rows),
                                    record_from_rows(served_rows))
                served = {k: v for k, v in load.terminal[i].items()
                          if k not in ("id", "type", "cache", "pattern", "label")}
                if (not diff["identical"] or served != direct.payload
                        or load.terminal[i]["label"] != direct.label):
                    mismatches.append({"request": i, "source": source, "diff": diff})
    finally:
        shutdown_pools()
        for child in multiprocessing.active_children():
            child.join()
    # A full-length run must sample all three outcomes; a short smoke run
    # may lack some, and then samples whatever occurred.
    if len(load.sent) >= FULL_RUN_REQUESTS:
        sampled = all(picked.values())
    else:
        sampled = any(picked.values())
    out.check(
        "sampled hit/coalesced/miss responses diff clean against direct runs",
        not mismatches and sampled,
        mismatches[:3] or {k: len(v) for k, v in picked.items()},
    )


def run(ctx: RunContext) -> Outcome:
    adopt_orphans()
    imports = import_s(ctx, ("repro.serve", "repro.runtime"))
    from repro.runtime import ExecutionPolicy

    profiles = catalogue()
    half = ctx.seconds / 2 if ctx.trace else ctx.seconds
    count = max(1, round(RATE * half))
    dues, picks = schedule(ctx.seed, count, len(profiles))
    bodies = [profiles[p] for p in picks]
    lines = [json.dumps({"id": str(i), **b}).encode() + b"\n" for i, b in enumerate(bodies)]

    out = Outcome(metrics={}, attempted=0, failed=0,
                  policy=ExecutionPolicy.from_spec(SERVER_POLICY))
    servers: List[ServerProcess] = []

    def start(tag: str, spans_path: Optional[Path] = None):
        began = time.perf_counter()
        server = ServerProcess(ctx, tag, spans_path)
        servers.append(server)
        baseline = warm_up(server)
        return server, baseline, time.perf_counter() - began

    def measure(server: ServerProcess, baseline: Dict[str, Any]):
        load = asyncio.run(replay(server.port, lines, dues))
        final = stats_row(server)
        server.stop()
        return load, counter_delta(final, baseline), final

    try:
        setup_runs = []
        for k in range(1 if ctx.trace else SETUP_REPEATS):
            if servers:
                servers[-1].stop()
            server, baseline, took = start(f"{ctx.seed}-{k}")
            setup_runs.append(took)
        load, counters, final = measure(server, baseline)
        traced = None
        if ctx.trace:
            spans_path = ctx.out_dir / f"serve-{ctx.seed}.spans.jsonl"
            if spans_path.exists():
                spans_path.unlink()
            tserver, tbaseline, _ = start(f"{ctx.seed}-traced", spans_path)
            tload, tcounters, tfinal = measure(tserver, tbaseline)
            traced = (tload, tcounters, span_tools.load(spans_path))
    finally:
        for server in servers:
            server.stop()
    coldstart = coldstart_stalls(ctx) if ctx.trace else None
    # Server-side processes (and their pool workers) have all been waited.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    loads = [load] + ([traced[0]] if traced else [])
    out.attempted = sum(len(x.sent) for x in loads)
    out.failed = sum(
        sum(1 for t in x.terminal if t is None or t["type"] != "result") for x in loads
    )
    out.check(
        "exactly one terminal row per request sent",
        all(x.duplicates == 0 and all(t is not None for t in x.terminal) for x in loads),
        [{"missing": sum(t is None for t in x.terminal), "duplicates": x.duplicates}
         for x in loads],
    )
    check_samples(out, load, bodies)
    unhandled = sum(s.unhandled for s in servers)

    lat = load.latencies_ms()
    tail = stats.tail(lat)
    sources = load.sources()
    out.detail = {
        "requests": count,
        "rate_rps": RATE,
        "catalogue": len(profiles),
        "sources": dict(sources),
        "counters": counters,
        "late_max_ms": load.late_max_ms(),
        "tail": tail.__dict__,
        "p50_ms": statistics.median(lat),
        "miss_p50_ms": statistics.median(load.latencies_ms("miss")),
        "unhandled_errors": unhandled,
        "setup": {"import_s": imports, "spawn_to_warm_s": setup_runs},
        "orphans_reaped": sum(s.orphans for s in servers),
        "server_stats": final,
    }
    if not ctx.trace:
        ok_in_slo = sum(
            1 for r, d, t in zip(load.recv, load.due, load.terminal)
            if t is not None and t["type"] == "result" and (r - d) * 1000.0 <= SLO_MS
        )
        out.metrics = {
            "setup_s": statistics.median(imports) + statistics.median(setup_runs),
            "peak_rss_mb": peak_rss_mb,
            "op_gmean_ms": statistics.geometric_mean(lat),
            "exec_gmean_ms": statistics.geometric_mean(load.latencies_ms("miss")),
            "slo_ratio": ok_in_slo / count,
        }
        return out

    tload, tcounters, spans = traced
    totals = span_tools.totals(spans)

    def mean_ms(name: str) -> float:
        calls, seconds = totals.get(name, (0, 0.0))
        return seconds / calls * 1000.0 if calls else 0.0

    tsources = tload.sources()
    misses = [t for t in tload.terminal if t is not None and t.get("cache") == "miss"
              and "seeds_requested" in t]
    by_req: Dict[str, List[Any]] = {}
    for s in spans:
        if s["req"] is not None:
            by_req.setdefault(s["req"], []).append((s["start"], s["end"]))
    client = unattributed = 0.0
    for i, (s, r) in enumerate(zip(tload.sent, tload.recv)):
        if r is None:
            continue
        client += r - s
        unattributed += (r - s) - span_tools.covered((s, r), by_req.get(str(i), ()))
    leaders = totals.get("admission.admit", (0, 0.0))[0]
    out.metrics = {
        **{metric: mean_ms(name) for metric, name in SPAN_MEANS.items()},
        "admission.wait_ms": (totals.get("admission.wait", (0, 0.0))[1] / leaders * 1000.0
                              if leaders else 0.0),
        "serve.hit_ratio": tsources.get("hit", 0) / count,
        "serve.coalesced_ratio": tsources.get("coalesced", 0) / count,
        "cache.evictions": tcounters["evictions"],
        "cache.journal_appended": tcounters["journal_appended"],
        "admission.rejected_total": tcounters["rejected_total"],
        "parallel.seeds_run_ratio": (
            sum(t["iterations_run"] for t in misses)
            / sum(t["seeds_requested"] for t in misses) if misses else 0.0
        ),
        "loadgen.late_max_ms": max(x.late_max_ms() for x in loads),
        "serve.unhandled_errors": unhandled,
        "serve.coldstart_stalls": coldstart["stalls"],
        "trace.unattributed_ratio": unattributed / client,
        "trace.overhead_ratio": (statistics.median(tload.latencies_ms())
                                 / statistics.median(lat)),
    }
    out.detail["coldstart"] = coldstart
    out.detail["traced"] = {
        "sources": dict(tsources),
        "counters": tcounters,
        "span_calls": {k: v[0] for k, v in totals.items()},
        "self_s": span_tools.self_times(spans),
    }
    return out
