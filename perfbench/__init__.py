"""End-to-end benchmark of the repro package with per-layer traced runs.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root; ``perfbench/README.md`` maps each
metric to the layer and workload it measures.
"""
