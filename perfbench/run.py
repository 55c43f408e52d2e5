"""Benchmark command: one workload, one process, ``workers=1``.

    python3 perfbench/run.py --workload paper-grid --seed 1 --seconds 20 --trace 0

Run from the repository root.  It imports ``repro`` from ``src/``
(nothing to build), runs whole passes over the workload's cells until
``--seconds`` is spent (at least two passes, so every cell's record can
be compared across repeats) and prints one line per metric, then, as
its last line, a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics from untraced passes.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics; the traced passes record spans around every
layer's public functions, check each cell's trace with the replay
oracle, and the spans are written to ``.perfbench/`` when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: set-ups timed per run; ``setup_s`` is their median
SETUP_REPEATS = 9


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _purge_repro() -> None:
    for name in [m for m in sys.modules if m == "repro" or m.startswith("repro.")]:
        del sys.modules[name]


def set_up(name: str, seed: int):
    """Import ``repro`` and generate the workload's cells, several
    times; returns ``(workload, spec, n_cells, median seconds)``.

    The first import (which also loads numpy) is not timed; each timed
    set-up drops every ``repro`` module first, so it pays the package's
    whole import again.  Like the host throughputs, the median is
    scaled to the host speed of :data:`perfbench.measure.REFERENCE_S`,
    from reference loops timed between the set-ups.
    """
    from perfbench import workloads
    from perfbench.measure import REFERENCE_S, reference_loop

    workloads.expand(workloads.get(name), seed)
    times = []
    reference = []
    for _ in range(SETUP_REPEATS):
        reference += [reference_loop(), reference_loop()]
        _purge_repro()
        t0 = perf_counter()
        import repro  # noqa: F401  (the import is what is timed)

        workload = workloads.get(name)
        cells = workloads.expand(workload, seed)
        times.append(perf_counter() - t0)
    from repro.exec import GridSpec

    spec = GridSpec.of(*workload.grid_args(seed))
    speed = statistics.median(reference) / REFERENCE_S
    return workload, spec, len(cells), statistics.median(times) / speed


def run_passes(spec, seconds: float, traced_run: bool, recorder):
    """Whole passes until *seconds* are spent (at least two).  A traced
    run alternates untraced and traced passes, starting untraced."""
    from perfbench.measure import run_pass

    passes = []
    walls = []
    start = perf_counter()
    while True:
        traced = traced_run and len(passes) % 2 == 1
        t0 = perf_counter()
        passes.append(run_pass(
            spec, traced=traced, recorder=recorder,
            first_cell_id=sum(len(p.cells) for p in passes),
        ))
        walls.append(perf_counter() - t0)
        if passes[-1].error:
            break
        elapsed = perf_counter() - start
        if len(passes) >= 2 and elapsed + statistics.median(walls) > seconds:
            break
    return passes


def _print_table(metrics: dict) -> None:
    for name, m in metrics.items():
        extra = f"  (n={m['samples']})" if "samples" in m else ""
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']:<14s} {m['clock']}{extra}")


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, ROOT)
    from perfbench import measure as m
    from perfbench import workloads
    from perfbench.spans import SpanRecorder

    known = workloads.NAMES + workloads.HELD_BACK
    if args.workload not in known:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(known)}", file=sys.stderr)
        return 2
    workload, spec, n_cells, setup_s = set_up(args.workload, args.seed)
    golden = None
    if workload.golden:
        with open(os.path.join(ROOT, workload.golden), encoding="utf-8") as fh:
            golden = json.load(fh)

    recorder = SpanRecorder() if args.trace else None
    passes = run_passes(spec, args.seconds, bool(args.trace), recorder)
    check = m.check_outputs(passes, golden)
    for problem in check["problems"]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": check["failed"] == 0,
        "attempted": check["attempted"],
        "failed": check["failed"],
        "metrics": {},
    }
    if any(p.error for p in passes):
        print(json.dumps(result))
        return 1

    print(f"workload {args.workload}: {n_cells} cells x {len(passes)} passes, "
          f"seed {args.seed}, workers=1")
    if args.trace:
        metrics = m.per_layer(passes, recorder)
        path = m.write_spans(recorder, ROOT, args.workload)
        print(f"spans: {len(recorder)} written to {os.path.relpath(path, ROOT)}")
        _print_table(metrics)
    else:
        metrics = m.end_to_end(passes, setup_s)
        _print_table(dict(metrics, failed_frac={
            "value": check["failed"] / check["attempted"], "unit": "ratio", "clock": "host"}))
        # printed above and not reported: recovery_s is 0 outside the
        # failures workload, raw.* show what host_speed scaled
        metrics = {k: v for k, v in metrics.items()
                   if k != "recovery_s" and not k.startswith("raw.")}
    result["metrics"] = {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
