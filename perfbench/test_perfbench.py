"""The benchmark's own tests: tail rule, schedule, spans, smoke runs.

Run with ``PYTHONPATH=src python -m pytest perfbench -q`` from the
repository root.  The smoke runs execute ``run.py`` end to end with a
fraction of a second of measurement.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import serve_zipf, spans, stats

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


class TestTailRule:
    def test_p99_needs_ten_samples_beyond(self):
        tail = stats.tail(range(1, 1001))
        assert (tail.percentile, tail.value, tail.beyond, tail.samples) == (99.0, 990, 10, 1000)
        assert tail.resolved

    def test_highest_qualifying_percentile_wins(self):
        # 2000 samples: p99.5 has exactly 10 beyond it; p99.9 only 2.
        tail = stats.tail(range(1, 2001))
        assert (tail.percentile, tail.value, tail.beyond) == (99.5, 1990, 10)

    def test_just_short_of_p99_falls_to_p98(self):
        tail = stats.tail(range(1, 1000))
        assert tail.percentile == 98.0 and tail.beyond >= stats.MIN_BEYOND

    def test_unsorted_input(self):
        assert stats.tail(list(range(1000, 0, -1))).value == 990

    def test_few_samples_unresolved_median(self):
        tail = stats.tail([5.0, 1.0, 3.0])
        assert not tail.resolved
        assert (tail.percentile, tail.value, tail.samples) == (50.0, 3.0, 3)

    def test_smallest_resolved_sample_count(self):
        assert not stats.tail(range(39)).resolved
        tail = stats.tail(range(40))
        assert tail.resolved and tail.percentile == 75.0 and tail.beyond == 10

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            stats.tail([])

class TestSchedule:
    def test_same_seed_same_inputs(self):
        assert serve_zipf.schedule(5, 300, 144) == serve_zipf.schedule(5, 300, 144)
        assert serve_zipf.schedule(5, 300, 144) != serve_zipf.schedule(6, 300, 144)

    def test_rate_duplicates_and_fixed_mix(self):
        dues, picks = serve_zipf.schedule(1, 6000, 144)
        assert len(dues) / dues[-1] == pytest.approx(serve_zipf.RATE, rel=0.1)
        repeats = sum(
            1 for i in range(1, len(dues)) if dues[i] == dues[i - 1] and picks[i] == picks[i - 1]
        )
        # Pulled-forward pairs plus popular profiles that happen to adjoin.
        assert serve_zipf.DUPLICATE_P <= repeats / len(dues) <= serve_zipf.DUPLICATE_P + 0.1
        assert all(0 <= p < 144 for p in picks)
        # Every seed sends the same multiset of profiles, most popular first.
        other = serve_zipf.schedule(2, 6000, 144)[1]
        assert sorted(picks) == sorted(other)
        assert picks.count(0) > picks.count(1) > picks.count(143) >= 1

    def test_catalogue_outgrows_cache(self):
        profiles = serve_zipf.catalogue()
        keys = {json.dumps(p, sort_keys=True) for p in profiles}
        assert len(keys) == len(profiles)
        assert len(profiles) >= 3 * serve_zipf.CACHE_SIZE

    def test_unhandled_report_count(self):
        text = (
            "Exception in callback foo()\nhandle: <Handle>\n"
            "Traceback (most recent call last):\n  File x\nCancelledError\n"
            "Task was destroyed but it is pending!\n"
        )
        assert serve_zipf.count_unhandled(text) == 2
        assert serve_zipf.count_unhandled("") == 0

    def test_leftovers_of_a_server_group_are_ended(self):
        # A parent that exits at once and leaves its child behind, as a
        # wedged server leaves its pool workers.
        serve_zipf.adopt_orphans()
        parent = subprocess.Popen(
            ["sh", "-c", "sleep 30 & exit 0"], start_new_session=True
        )
        parent.wait()
        assert serve_zipf.end_group(parent.pid) == 1
        with pytest.raises(ProcessLookupError):
            os.killpg(parent.pid, 0)
        assert serve_zipf.end_group(parent.pid) == 0


class TestSpans:
    def test_self_time_subtracts_covered_children(self):
        recorded = [
            {"id": 1, "name": "op", "start": 0.0, "end": 10.0, "parent": None, "req": "a"},
            {"id": 2, "name": "x", "start": 1.0, "end": 4.0, "parent": 1, "req": "a"},
            {"id": 3, "name": "y", "start": 3.0, "end": 6.0, "parent": 1, "req": "a"},
        ]
        assert spans.self_times(recorded) == {"op": 5.0, "x": 3.0, "y": 3.0}

    def test_nested_spans_and_wrap(self):
        tracer = spans.Tracer()

        class Box:
            def f(self, v):
                return v + 1

        tracer.wrap(Box, "f", "box.f")
        with tracer.span("outer", req="r1"):
            assert Box().f(1) == 2
        tracer.restore()
        assert Box().f(1) == 2 and len(tracer.spans) == 2
        inner, outer = tracer.spans
        assert inner["parent"] == outer["id"] and inner["req"] == "r1"


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.5",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    group = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in group} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    detail = json.loads(proc.stdout.strip().splitlines()[-2])
    assert detail["stamp"]["seed"] == 3 and "policy_hash" in detail["stamp"]


def test_refuses_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "vec_scale", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""
