"""Spans recorded around calls into the program's public functions.

The traced run never edits the program: it wraps public entry points
from benchmark code (a span around a direct call, or a module attribute
replaced by a timing wrapper) and keeps every span in memory until the
run ends.  A span is ``{id, name, start, end, parent, req}``: ``parent``
is the span that caused it and ``req`` the request id shared by all
spans of one request.  Times are ``time.perf_counter()`` seconds, which
on Linux is the system-wide monotonic clock, so spans from a server
process line up with the client's timestamps.

A layer's self time is its span's duration minus the part of that
interval its child spans cover (:func:`self_times`).
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

Span = Dict[str, Any]


class Tracer:
    """An in-memory span recorder (one per traced process)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self.current: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
            f"perfbench-span-{id(self)}", default=None
        )
        self.request: contextvars.ContextVar[Optional[str]] = contextvars.ContextVar(
            f"perfbench-req-{id(self)}", default=None
        )
        self._patches: List[Tuple[Any, str, Any]] = []

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[int] = None,
        req: Optional[str] = None,
    ) -> int:
        """Record a finished span (for waits measured between two calls)."""
        sid = next(self._ids)
        self.spans.append(
            {"id": sid, "name": name, "start": start, "end": end,
             "parent": parent, "req": req}
        )
        return sid

    @contextmanager
    def span(
        self,
        name: str,
        req: Optional[str] = None,
        parent: Optional[int] = None,
    ) -> Iterator[int]:
        """Time the enclosed block; nested spans name it as their parent
        and inherit its request id."""
        sid = next(self._ids)
        if parent is None:
            parent = self.current.get()
        if req is None:
            req = self.request.get()
        token = self.current.set(sid)
        req_token = self.request.set(req)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            self.request.reset(req_token)
            self.current.reset(token)
            self.spans.append(
                {"id": sid, "name": name, "start": start, "end": end,
                 "parent": parent, "req": req}
            )

    def wrap(self, owner: Any, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span per call."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return original(*args, **kwargs)

        self.patch(owner, attr, wrapper)

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Install ``replacement`` as ``owner.attr`` until :meth:`restore`."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Put every wrapped attribute back (last patched first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path: Path) -> None:
        """Write the spans out, one JSON object per line."""
        with Path(path).open("w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def load(path: Path) -> List[Span]:
    with Path(path).open("r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def covered(interval: Tuple[float, float], others: Sequence[Tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``others``."""
    lo, hi = interval
    clipped = sorted(
        (max(lo, a), min(hi, b)) for a, b in others if b > lo and a < hi
    )
    total = 0.0
    cur_a: Optional[float] = None
    cur_b = 0.0
    for a, b in clipped:
        if cur_a is None or a > cur_b:
            if cur_a is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_a is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Total self time (seconds) per span name."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out: Dict[str, float] = defaultdict(float)
    for s in spans:
        iv = (s["start"], s["end"])
        out[s["name"]] += (iv[1] - iv[0]) - covered(iv, children.get(s["id"], ()))
    return dict(out)


def totals(spans: Sequence[Span]) -> Dict[str, Tuple[int, float]]:
    """``(calls, total seconds)`` per span name."""
    out: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
    for s in spans:
        acc = out[s["name"]]
        acc[0] += 1
        acc[1] += s["end"] - s["start"]
    return {k: (int(v[0]), v[1]) for k, v in out.items()}
