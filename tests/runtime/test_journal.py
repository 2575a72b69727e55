"""The crash-safety contract of :mod:`repro.runtime.journal`.

Three claims, each checked on the module itself and, where it applies,
on every writer built on it (run record, sweep checkpoint, governor
sidecar, cache-journal compaction):

* ``os.replace`` only ever swaps in a file that already loads in full;
* a crash at fsync leaves the old file byte-for-byte intact and no
  ``*.tmp*`` debris next to it;
* a torn final line loads as the clean prefix before it.
"""

from __future__ import annotations

import os

import pytest

from repro.runtime import (
    ExecutionPolicy,
    GovernorStateStore,
    PeakHoldGovernor,
    RunRecord,
    SweepCheckpoint,
    TraceEvent,
)
from repro.runtime.journal import append_durable, read_jsonl
from repro.serve import CacheJournal

POLICY = ExecutionPolicy(seed=3)


def _crash(fd):
    raise OSError("simulated crash at fsync")


# ----------------------------------------------------------------------
# the module
# ----------------------------------------------------------------------
class TestAppendDurable:
    def test_every_append_is_fsynced(self, tmp_path, monkeypatch):
        calls = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: (calls.append(fd), real_fsync(fd)))
        path = tmp_path / "log.jsonl"
        append_durable(path, "1\n")
        append_durable(path, "2\n")
        assert len(calls) == 2
        assert path.read_text() == "1\n2\n"


class TestReadJsonl:
    def test_clean_file(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"a": 1}\n\n[2]\n')
        assert read_jsonl(path) == ([{"a": 1}, [2]], False)

    def test_torn_tail_is_the_clean_prefix(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"a": 1}\n{"b": 2}\n{"c": ')
        assert read_jsonl(path) == ([{"a": 1}, {"b": 2}], True)

    def test_stops_at_first_undecodable_line(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"a": 1}\n{oops\n{"b": 2}\n')
        assert read_jsonl(path) == ([{"a": 1}], True)


# ----------------------------------------------------------------------
# every writer built on it
# ----------------------------------------------------------------------
def _record(bits):
    rec = RunRecord.start(POLICY)
    rec.add_event(TraceEvent(kind="run", label="x", seed=0, total_bits=bits))
    return rec


class _RecordWriter:
    name = "record.jsonl"

    def setup(self, path):
        _record(100).write(path)

    def rewrite(self, path):
        _record(999).write(path)

    def load(self, path):
        return RunRecord.load(path).events[0].total_bits


class _CheckpointWriter:
    name = "sweep.jsonl"

    def setup(self, path):
        ckpt = SweepCheckpoint.fresh(POLICY, path)
        ckpt.complete(("a", 0, 4), TraceEvent(kind="note", label="cell"))

    def rewrite(self, path):
        # Resume normalizes the journal with one atomic rewrite.
        SweepCheckpoint.resume(path, POLICY)

    def load(self, path):
        return len(RunRecord.load(path).events)


class _GovernorWriter:
    name = "gov.json"

    def _save(self, path, peak):
        gov = PeakHoldGovernor(budget=1000)
        gov.observe(peak)
        GovernorStateStore(path).save("h", gov)

    def setup(self, path):
        self._save(path, 5.0)

    def rewrite(self, path):
        self._save(path, 50.0)

    def load(self, path):
        return GovernorStateStore(path).load("h")["peak"]


class _CacheCompactWriter:
    name = "cache.jsonl"

    def setup(self, path):
        journal = CacheJournal(path)
        for i in range(3):
            journal.append(("k", i), {"v": i})

    def rewrite(self, path):
        CacheJournal(path).compact([(("k", 2), {"v": 2})])

    def load(self, path):
        return CacheJournal(path).load()


WRITERS = [_RecordWriter(), _CheckpointWriter(), _GovernorWriter(),
           _CacheCompactWriter()]
WRITER_IDS = ["record", "checkpoint", "governor", "cache-compact"]


@pytest.mark.parametrize("writer", WRITERS, ids=WRITER_IDS)
class TestEveryWriter:
    def test_crash_at_fsync_keeps_old_file(self, writer, tmp_path, monkeypatch):
        path = tmp_path / writer.name
        writer.setup(path)
        before = path.read_bytes()
        loaded = writer.load(path)

        monkeypatch.setattr(os, "fsync", _crash)
        with pytest.raises(OSError, match="simulated crash"):
            writer.rewrite(path)
        monkeypatch.undo()

        assert path.read_bytes() == before
        assert list(tmp_path.glob("*.tmp*")) == []
        assert writer.load(path) == loaded

    def test_replace_swaps_in_a_loadable_file(self, writer, tmp_path, monkeypatch):
        path = tmp_path / writer.name
        writer.setup(path)
        seen = []
        real_replace = os.replace

        def _spy(src, dst):
            seen.append(writer.load(src))
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", _spy)
        writer.rewrite(path)
        monkeypatch.undo()
        assert seen and seen[-1] == writer.load(path)


class TestTornTailRecord:
    def test_lenient_load_is_the_clean_prefix(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        ckpt = SweepCheckpoint.fresh(POLICY, path)
        ckpt.complete(("a", 0, 4), TraceEvent(kind="note", label="cell"))
        with open(path, "a") as fh:
            fh.write('{"type": "event", "lab')
        assert len(RunRecord.load(path, lenient=True).events) == 1
        with pytest.raises(ValueError, match="undecodable"):
            RunRecord.load(path)
