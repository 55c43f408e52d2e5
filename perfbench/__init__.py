"""End-to-end and per-layer benchmark of the checkpoint simulator.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root; ``BENCHMARK.json`` names the
workloads and metrics, ``perfbench/model.json`` records which layer
metric should move which end-to-end metric on which workload.
"""
