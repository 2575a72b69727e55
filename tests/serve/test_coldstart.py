"""Cold start: the first amplified request forks the pool safely.

``fork`` copies every module-import lock as it stands.  On a fresh
``jobs=2`` server a single-run request's first ``np.random.default_rng``
used to be importing ``numpy.random`` (numpy imports it lazily) while the
first amplified request forked the process pool.  The workers inherited
that import lock held by a thread they do not have, blocked on it for
good, and the amplified request was never answered; the server then
waited for those workers at exit, so it ignored ``SIGTERM`` and they
outlived it.  ``congest.parallel`` now imports everything the worker
path imports lazily before any pool forks.

* :class:`TestWorkersImportNothing` -- deterministic: in a fresh
  interpreter, each request kind the server runs is executed with a
  2-worker pool, and every pool worker reports the modules it imported
  after the fork.  The set must be empty.
* :class:`TestFreshServers` -- bounded end to end: fresh ``jobs=2``
  servers are each sent a ``triangle`` and a first ``c4`` at once; both
  must be answered within 5 s, and on ``SIGTERM`` the server must exit
  leaving no process of its group.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")

#: Every request kind the server runs: the two amplified shapes under
#: each lane and metrics mode, a graph large enough to ride shared
#: memory, a fault plan, then the single-run kinds.  The first request
#: forks the pool, as on a fresh server.
REQUESTS = [
    {"pattern": "c4", "graph": {"kind": "cycle", "k": 12}, "iterations": 4},
    {"pattern": "odd-c5", "graph": {"kind": "cycle", "k": 10}, "iterations": 4},
    {"pattern": "c4", "graph": {"kind": "cycle", "k": 12}, "iterations": 4,
     "policy": "lane=vectorized"},
    {"pattern": "odd-c5", "graph": {"kind": "cycle", "k": 10}, "iterations": 4,
     "policy": "lane=vectorized,metrics=lite"},
    {"pattern": "c6", "graph": {"kind": "gnp", "n": 16, "p": 0.2, "seed": 1},
     "iterations": 4, "policy": "metrics=lite"},
    {"pattern": "c4", "graph": {"kind": "cycle", "k": 2100}, "iterations": 2,
     "policy": "lane=vectorized,metrics=lite"},
    {"pattern": "odd-c5", "graph": {"kind": "cycle", "k": 10}, "iterations": 4,
     "policy": "faults=drop:0.2"},
    {"pattern": "triangle", "graph": {"kind": "clique", "s": 5}},
    {"pattern": "k4", "graph": {"kind": "clique", "s": 5}},
]

PROBE = textwrap.dedent("""
    import json, os, sys

    import repro.cli  # what ``python -m repro serve`` has loaded
    from repro.congest import parallel
    from repro.runtime.policy import ExecutionPolicy
    from repro.serve.executor import execute_request
    from repro.serve.protocol import parse_request

    log, requests = sys.argv[1], json.loads(sys.argv[2])
    at_fork = set()
    os.register_at_fork(after_in_child=lambda: at_fork.update(sys.modules))
    run_chunk = parallel._run_chunk

    def _run_chunk(spec):
        out = run_chunk(spec)
        with open(log, "a") as fh:
            fh.write(json.dumps(sorted(set(sys.modules) - at_fork)) + "\\n")
        return out

    # Pickle sends the wrapper as ``__main__._run_chunk``, which the
    # forked workers inherit; the engine submits it through the patch.
    parallel._run_chunk = _run_chunk
    base = ExecutionPolicy.from_spec("jobs=2")
    for i, body in enumerate(requests):
        req = parse_request({"id": str(i), **body})
        execute_request(req, req.policy(base=base))
    parallel.shutdown_pools()
""")


class TestWorkersImportNothing:
    def test_no_import_after_fork_for_any_request_kind(self, tmp_path):
        log = tmp_path / "imports.jsonl"
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        proc = subprocess.run(
            [sys.executable, "-c", PROBE, str(log), json.dumps(REQUESTS)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        reports = [json.loads(line) for line in log.read_text().splitlines()]
        amplified = [r for r in REQUESTS if r["pattern"] not in ("triangle", "k4")]
        # Every amplified request ran at least one chunk in a worker.
        assert len(reports) >= len(amplified)
        assert sorted({m for r in reports for m in r}) == []


CLIENT_BODIES = [
    {"id": "tri", "pattern": "triangle", "graph": {"kind": "clique", "s": 5}},
    {"id": "c4", "pattern": "c4", "graph": {"kind": "cycle", "k": 12},
     "iterations": 4},
]
SERVERS = 5
ANSWER_TIMEOUT_S = 5.0
EXIT_TIMEOUT_S = 10.0


async def _send_together(port):
    """Both requests in one write; the terminal row type per id."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(b"".join(json.dumps(b).encode() + b"\n" for b in CLIENT_BODIES))
    await writer.drain()
    got = {}

    async def collect():
        while len(got) < len(CLIENT_BODIES):
            line = await reader.readline()
            if not line:
                return
            row = json.loads(line)
            if row["type"] != "record":
                got[row["id"]] = row["type"]

    try:
        await asyncio.wait_for(collect(), ANSWER_TIMEOUT_S)
    except asyncio.TimeoutError:
        pass
    finally:
        writer.close()
    return got


def _group_alive(pgid):
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


class TestFreshServers:
    def test_triangle_and_first_c4_together(self):
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        for attempt in range(SERVERS):
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--policy", "jobs=2"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                env=env, start_new_session=True,
            )
            try:
                banner = proc.stdout.readline()
                assert banner.startswith("serving on "), banner
                got = asyncio.run(_send_together(int(banner.rsplit(":", 1)[1])))
                assert got == {"tri": "result", "c4": "result"}, (attempt, got)
                proc.send_signal(signal.SIGTERM)
                rc = proc.wait(timeout=EXIT_TIMEOUT_S)
                deadline = time.monotonic() + EXIT_TIMEOUT_S
                while _group_alive(proc.pid) and time.monotonic() < deadline:
                    time.sleep(0.05)
                left = _group_alive(proc.pid)
            finally:
                if _group_alive(proc.pid):
                    os.killpg(proc.pid, signal.SIGKILL)
                proc.wait(timeout=EXIT_TIMEOUT_S)
                proc.stdout.close()
                proc.stderr.close()
            assert rc == 0, (attempt, rc)
            assert not left, (attempt, "processes of the server's group left")
