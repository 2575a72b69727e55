"""Benchmark entry point: one workload, one seed, one timed run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload vec_scale --seed 1 --seconds 30 --trace 0

``--trace 0`` measures with tracing off and reports every end-to-end
metric of ``BENCHMARK.json``; ``--trace 1`` makes the separate traced
run and reports every per-layer metric.  The last line of standard
output is the result object; the line before it is the detail report
(environment stamp, sample counts, tail percentile, self time per
layer), which is also written under ``perfbench/_out/``.

The program under test is built from ``src/`` of the checkout the
benchmark sits in; without it the run exits non-zero and prints no
result.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("vec_scale", "serve_zipf", "one_round_mi")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _load_spec():
    with (ROOT / "BENCHMARK.json").open("r", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from perfbench import context

    spec = _load_spec()
    ctx = context.RunContext(
        root=ROOT,
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        started=time.perf_counter(),
    )
    if args.workload == "vec_scale":
        from perfbench import vec_scale as workload
    elif args.workload == "serve_zipf":
        from perfbench import serve_zipf as workload
    else:
        from perfbench import one_round_mi as workload
    outcome = workload.run(ctx)
    result, detail = context.finish(ctx, spec, workload, outcome)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (ctx.out_dir / f"{name}.json").write_text(json.dumps(detail, indent=2, sort_keys=True) + "\n")
    if ctx.tracer is not None and ctx.tracer.spans:
        ctx.tracer.dump(ctx.out_dir / f"{name}.spans.jsonl")
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
