"""Start ``repro serve`` with spans around the serving layers' public calls.

Usage::

    python -m perfbench.serve_launcher SPANS_PATH [repro serve options...]

Installs timing wrappers on public entry points (the names the server
module looks up at call time, and public methods of the layer classes),
then runs exactly the server ``python -m repro serve`` runs.  When the
server stops (SIGTERM), every span recorded in this process is written
to ``SPANS_PATH``.

Spans and the layers they time:

==========================  =============================================
``protocol.parse``          ``parse_request`` (names the request id)
``protocol.key``            ``cache_key`` / ``group_key``
``cache.get|put``           ``ResultCache.get`` / ``ResultCache.put``
``coalesce.wait``           follower: ``BatchCoalescer.join`` returning a
                            group until ``derive_follower`` starts
``executor.derive``         ``derive_follower``
``admission.admit``         ``AdmissionController.admit`` (one per leader)
``admission.wait``          ``admit`` said queue until ``start_queued`` /
                            ``abandon_queued``
``engine.queue``            ``ExecutionEngine.submit`` until
                            ``execute_request`` starts on an engine thread
``executor.execute``        ``execute_request``
``graphs.build``            ``build_graph`` as the executor calls it
``core.detect``             ``detect_triangle_congest`` / ``detect_clique``
``runtime.run``             ``ExecutionEngine.execute_run``
``parallel.amplify``        ``ExecutionEngine.execute_amplify``
==========================  =============================================
"""

from __future__ import annotations

import contextvars
import sys
import time
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from perfbench.spans import Tracer


def install(tracer: Tracer) -> None:
    """Wrap the serving path's public entry points with spans."""
    import repro.serve.executor as executor
    import repro.serve.server as server
    from repro.runtime.engine import ExecutionEngine
    from repro.serve.admission import AdmissionController
    from repro.serve.cache import ResultCache
    from repro.serve.coalesce import BatchCoalescer
    from repro.serve.protocol import DetectRequest

    joined_at: contextvars.ContextVar[Optional[float]] = contextvars.ContextVar(
        "perfbench-joined", default=None
    )
    queued_at: contextvars.ContextVar[Optional[float]] = contextvars.ContextVar(
        "perfbench-queued", default=None
    )
    # req_id -> (submit time, span that submitted); written on the event
    # loop, popped on an engine thread (dict ops are atomic under the GIL).
    submitted: Dict[str, Tuple[float, Optional[int]]] = {}

    parse = server.parse_request

    def parse_request(obj: Any) -> Any:
        rid = obj.get("id") if isinstance(obj, dict) else None
        with tracer.span("protocol.parse", req=None if rid is None else str(rid)):
            req = parse(obj)
        # Later spans of this request's task inherit its id.
        tracer.request.set(req.req_id)
        return req

    tracer.patch(server, "parse_request", parse_request)
    tracer.wrap(server, "cache_key", "protocol.key")
    tracer.wrap(server, "group_key", "protocol.key")
    tracer.wrap(ResultCache, "get", "cache.get")
    tracer.wrap(ResultCache, "put", "cache.put")

    join = BatchCoalescer.join

    def coalesce_join(self: Any, key: Any, iterations: int) -> Any:
        group = join(self, key, iterations)
        if group is not None:
            joined_at.set(time.perf_counter())
        return group

    tracer.patch(BatchCoalescer, "join", coalesce_join)

    derive = server.derive_follower

    def derive_follower(*args: Any, **kwargs: Any) -> Any:
        start = joined_at.get()
        if start is not None:
            tracer.add("coalesce.wait", start, time.perf_counter(),
                       tracer.current.get(), tracer.request.get())
            joined_at.set(None)
        with tracer.span("executor.derive"):
            return derive(*args, **kwargs)

    tracer.patch(server, "derive_follower", derive_follower)

    admit = AdmissionController.admit

    def admission_admit(self: Any) -> str:
        with tracer.span("admission.admit"):
            decision = admit(self)
        if decision == "queue":
            queued_at.set(time.perf_counter())
        return decision

    def waited(original: Any) -> Any:
        def method(self: Any) -> Any:
            start = queued_at.get()
            if start is not None:
                tracer.add("admission.wait", start, time.perf_counter(),
                           tracer.current.get(), tracer.request.get())
                queued_at.set(None)
            return original(self)

        return method

    tracer.patch(AdmissionController, "admit", admission_admit)
    tracer.patch(AdmissionController, "start_queued",
                 waited(AdmissionController.start_queued))
    tracer.patch(AdmissionController, "abandon_queued",
                 waited(AdmissionController.abandon_queued))

    submit = ExecutionEngine.submit

    def engine_submit(self: Any, fn: Any, /, *args: Any, **kwargs: Any) -> Any:
        for arg in args:
            if isinstance(arg, DetectRequest):
                submitted[arg.req_id] = (time.perf_counter(), tracer.current.get())
                break
        return submit(self, fn, *args, **kwargs)

    tracer.patch(ExecutionEngine, "submit", engine_submit)

    execute = server.execute_request

    def execute_request(req: Any, *args: Any, **kwargs: Any) -> Any:
        start = time.perf_counter()
        t_submit, parent = submitted.pop(req.req_id, (start, None))
        tracer.add("engine.queue", t_submit, start, parent, req.req_id)
        # Engine threads do not inherit the event loop's context: name
        # the parent and the request explicitly.
        with tracer.span("executor.execute", req=req.req_id, parent=parent):
            return execute(req, *args, **kwargs)

    tracer.patch(server, "execute_request", execute_request)
    tracer.wrap(executor, "build_graph", "graphs.build")
    tracer.wrap(executor, "detect_triangle_congest", "core.detect")
    tracer.wrap(executor, "detect_clique", "core.detect")
    tracer.wrap(ExecutionEngine, "execute_run", "runtime.run")
    tracer.wrap(ExecutionEngine, "execute_amplify", "parallel.amplify")


def main(argv: Optional[list] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv:
        print("usage: serve_launcher SPANS_PATH [serve options...]", file=sys.stderr)
        return 2
    spans_path = Path(argv.pop(0))
    from repro.cli import main as cli_main

    tracer = Tracer()
    install(tracer)
    try:
        return cli_main(["serve", *argv])
    finally:
        tracer.restore()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
