"""Durable files: the one place the repo fsyncs or atomically replaces.

Run records, sweep checkpoints, the governor sidecar and the serve cache
journal all write through these three functions:

* :func:`rewrite_atomic` -- temp sibling, fsync, ``os.replace``: readers
  see the old file or the complete new one, and a failed rewrite leaves
  no temp file behind;
* :func:`append_durable` -- fsync per append: a kill mid-append leaves
  at worst one torn final line;
* :func:`read_jsonl` -- stops at the first undecodable line, so that
  torn tail loads as the clean prefix before it.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, List, Tuple, Union

__all__ = ["append_durable", "read_jsonl", "rewrite_atomic"]

PathLike = Union[str, "os.PathLike[str]"]


def rewrite_atomic(path: PathLike, text: str) -> Path:
    """Replace ``path``'s contents with ``text``: temp, fsync, swap."""
    out = Path(path)
    tmp = out.with_name(f"{out.name}.tmp.{os.getpid()}")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, out)
    finally:
        tmp.unlink(missing_ok=True)
    return out


def append_durable(path: PathLike, text: str) -> None:
    """Append ``text`` to ``path`` (created if missing) and fsync it."""
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())


def read_jsonl(path: PathLike) -> Tuple[List[Any], bool]:
    """The decoded rows of a JSONL file and whether a torn tail was cut.

    Blank lines are skipped.  Decoding stops at the first line that is
    not valid JSON; the rows before it are returned with ``True``.
    """
    rows: List[Any] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            try:
                rows.append(json.loads(line))
            except json.JSONDecodeError:
                return rows, True
    return rows, False
