"""Resumable sweeps: a cell-level checkpoint journal over run records.

Experiment sweeps (``repro experiment e1 ... e9``) iterate a deterministic
grid of *cells* -- one (label, seed, n) triple per engine run under one
policy.  A :class:`SweepCheckpoint` makes that loop resumable after a kill
or crash:

* every completed cell appends its :class:`~repro.runtime.record.TraceEvent`
  (stamped with the cell key in ``extra["cell"]``) to the journal with an
  *appending* flush -- only the not-yet-flushed events are written and
  fsynced, so checkpoint I/O across a sweep is linear in cells (the old
  rewrite-everything flush made it quadratic).  The first flush creates
  the file atomically (both primitives come from
  :mod:`repro.runtime.journal`); a kill mid-append leaves at worst one
  torn final line, which :meth:`resume` drops via lenient loading --
  the on-disk journal is always a loadable prefix of the sweep.  The
  footer is only written by :meth:`finish`, so an in-progress journal
  is header + events and never claims completion;
* resuming loads the journal, verifies the **policy hash** matches (a
  resumed sweep under a different policy would silently mix
  incomparable cells -- that's an error, not a merge), and answers
  :meth:`done` from the journal so completed cells are skipped;
* because the sweep grid and the engine are deterministic, the record a
  resumed sweep finishes is event-for-event identical to an uninterrupted
  one -- ``diff_records(killed_then_resumed, straight_through)`` reports
  no divergence (wall-clock stamps excepted; the diff ignores them).

The cell key is ``(label, seed, n)`` under the journal's policy hash.
``n`` is the instance-size axis of the sweep; experiments sweeping some
other axis fold it into ``label``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from .journal import append_durable, rewrite_atomic
from .policy import ExecutionPolicy
from .record import RunRecord, TraceEvent

__all__ = ["CheckpointError", "SweepCheckpoint", "cell_key"]

Cell = Tuple[str, int, int]


class CheckpointError(ValueError):
    """A journal that cannot be resumed (wrong policy, bad file)."""


def cell_key(label: str, seed: int, n: int) -> Cell:
    """Canonical cell key for one sweep point."""
    return (str(label), int(seed), int(n))


class SweepCheckpoint:
    """Checkpoint/resume wrapper around one sweep's :class:`RunRecord`.

    Build with :meth:`fresh` (start a new journal) or :meth:`resume`
    (continue one from disk).  The experiment loop then reads::

        done = ckpt.done(cell)
        if done is None:
            event = ... run the cell ...
            ckpt.complete(cell, event)
        else:
            event = done          # replayed from the journal

    and calls :meth:`finish` once the grid is exhausted.
    """

    def __init__(self, record: RunRecord, path: "str | Path") -> None:
        self.record = record
        self.path = Path(path)
        self._done: Dict[Cell, TraceEvent] = {}
        #: Events already on disk (the append cursor) and whether the
        #: header line has been written yet.
        self._flushed = 0
        self._header_written = False
        #: Total journal bytes written by this checkpoint's flushes --
        #: linear in cells now that flushes append (tested).
        self.bytes_flushed = 0
        for event in record.events:
            cell = event.extra.get("cell") if event.extra else None
            if cell is not None:
                self._done[cell_key(*cell)] = event

    # -- constructors --------------------------------------------------
    @classmethod
    def fresh(cls, policy: ExecutionPolicy, path: "str | Path") -> "SweepCheckpoint":
        """Start a new journal for a sweep under ``policy``."""
        return cls(RunRecord.start(policy), path)

    @classmethod
    def resume(
        cls, path: "str | Path", policy: ExecutionPolicy
    ) -> "SweepCheckpoint":
        """Resume the journal at ``path`` for a sweep under ``policy``.

        The journal's policy hash must equal ``policy``'s: cells computed
        under a different policy are not interchangeable, and resuming
        across policies would corrupt the sweep silently.

        Loading is lenient: an appending writer killed mid-flush leaves
        at worst a torn final line, which is dropped.  On an unfinished
        journal, trailing events *without* a cell stamp are dropped too
        -- a flush batch ends with its cell's completion event, so such
        a tail is the intact half of a torn batch; the cell it belonged
        to re-runs and regenerates those events, keeping the resumed
        journal ``diff_records``-identical to a straight-through one.
        The journal is then rewritten once (atomic, no footer) so later
        appends land on a clean tail.
        """
        try:
            record = RunRecord.load(path, lenient=True)
        except (OSError, ValueError) as exc:
            raise CheckpointError(f"cannot resume {path}: {exc}") from None
        if record.policy_hash != policy.policy_hash():
            raise CheckpointError(
                f"cannot resume {path}: journal policy hash "
                f"{record.policy_hash} != current {policy.policy_hash()} "
                "(the sweep would mix cells from incomparable policies)"
            )
        if record.finished_unix is None:
            while record.events and not (
                record.events[-1].extra or {}
            ).get("cell"):
                record.events.pop()
        # A journal loaded mid-sweep is unfinished regardless of what a
        # premature footer said.
        record.finished_unix = None
        ckpt = cls(record, path)
        ckpt._rewrite()
        return ckpt

    # -- the cell protocol ---------------------------------------------
    def done(self, cell: Cell) -> Optional[TraceEvent]:
        """The journaled event for ``cell``, or ``None`` if still to run."""
        return self._done.get(cell_key(*cell))

    def complete(self, cell: Cell, event: TraceEvent) -> TraceEvent:
        """Record ``cell`` as completed by ``event`` and flush the journal.

        The cell key is stamped into ``event.extra["cell"]`` so a later
        :meth:`resume` can index it; the flush is atomic, so a kill at
        any point leaves a loadable journal covering a prefix of the
        sweep.
        """
        key = cell_key(*cell)
        event.extra = {**(event.extra or {}), "cell": list(key)}
        self._done[key] = event
        # A session sharing this record has usually appended the event
        # already; only add it if it is not the current tail.
        if not self.record.events or self.record.events[-1] is not event:
            self.record.add_event(event)
        self._flush()
        return event

    # -- journal I/O ---------------------------------------------------
    def _rewrite(self) -> None:
        """Atomically write header + all events (no footer) and reset the
        append cursor.  Used for the first flush and the resume-time
        normalization; cost is O(events), paid once, not per cell."""
        payload = self.record.to_jsonl(footer=False)
        rewrite_atomic(self.path, payload)
        self.bytes_flushed += len(payload)
        self._flushed = len(self.record.events)
        self._header_written = True

    def _flush(self) -> None:
        """Flush not-yet-journaled events: append-only after the first
        write, so a sweep's total checkpoint I/O is linear in cells."""
        if not self._header_written:
            self._rewrite()
            return
        fresh_events = self.record.events[self._flushed:]
        if not fresh_events:
            return
        payload = "".join(
            self.record.event_line(e) + "\n" for e in fresh_events
        )
        append_durable(self.path, payload)
        self.bytes_flushed += len(payload)
        self._flushed = len(self.record.events)

    def finish(self) -> Path:
        """Finalize and write the completed journal (atomic full write,
        stamping the footer; also repairs any torn tail)."""
        out = self.record.write(self.path, final=True)
        self._flushed = len(self.record.events)
        self._header_written = True
        return out

    @property
    def completed(self) -> int:
        """Number of journaled cells."""
        return len(self._done)
