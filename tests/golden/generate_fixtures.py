"""Regenerate the golden-equivalence fixtures.

The fixtures pin the *pre-refactor* checkpoint behaviour: the policy /
destination / engine split (ISSUE 4) must reproduce these records
byte-for-byte.  Regenerate only when a PR deliberately changes
simulated semantics (and say so in the PR):

    PYTHONPATH=src python tests/golden/generate_fixtures.py

Three fixtures:

* ``pinned_grid_records.json`` — the 16-cell pinned bench grid
  (``repro.tools.bench.PINNED_GRID``) executed on the serial reference
  path (``workers=1``, no cache).  Records are the flattened
  ``RunResult.to_dict()`` dicts, fully determined by the simulated
  clock — no wall-clock fields.
* ``standalone_schedules.json`` — one standalone single-rank scenario
  per paper mode (none/cpc/dcpc/dcpcp): a scripted app dirtying a
  fixed chunk set between coordinated checkpoints.  Captures every
  ``CheckpointStats`` field per checkpoint plus the pre-copy engine's
  accounting — the exact schedule each policy produces.
* ``fine_chunks_records.json`` — a 2-cell synthetic grid (80 MB per
  rank in 0.625 MB chunks, i.e. 128 equal-size chunks per rank, under
  dcpc and dcpcp) on the serial reference path.  Every chunk has the
  same size, so the pre-copy engine's tie-break (earliest insertion
  into its dirty index) decides every pick.
"""

from __future__ import annotations

import json
import os
import sys

FIXTURE_DIR = os.path.dirname(os.path.abspath(__file__))

#: compute seconds before each coordinated checkpoint
INTERVAL_S = 20.0
#: seconds before each checkpoint at which the hot chunk is re-written —
#: late enough to land *after* DCPC's learned threshold time, so DCPC
#: pre-copies it redundantly while DCPCP's prediction withholds it
LATE_TOUCH_S = 0.05
#: how many coordinated checkpoints each standalone scenario runs
N_CHECKPOINTS = 5
#: (name, MB) of the standalone chunk set — mixed sizes so largest-first
#: pre-copy ordering matters
CHUNKS_MB = [("state", 40), ("grid", 25), ("params", 10), ("log", 5)]
#: the chunk re-dirtied right before every checkpoint (LAMMPS' 3-D
#: result array in the paper — modified until the end of the iteration)
HOT_CHUNK = "state"
#: chunk names touched at the start of interval k (k = 0 .. N-1);
#: "params" goes quiet after the first interval so DCPCP's prediction
#: table has a write-once chunk to learn
TOUCH_SCRIPT = [
    ["state", "grid", "params"],
    ["state", "grid"],
    ["state", "grid"],
    ["state"],
    ["state", "grid"],
]

MODES = ["none", "cpc", "dcpc", "dcpcp"]


def standalone_schedule(mode: str) -> dict:
    from repro.alloc import NVAllocator
    from repro.config import PrecopyPolicy
    from repro.core import LocalCheckpointer, make_standalone_context
    from repro.units import MB

    ctx = make_standalone_context(name="golden")
    alloc = NVAllocator(
        "p0", ctx.nvmm, ctx.dram, phantom=True, clock=lambda: ctx.engine.now
    )
    chunks = {name: alloc.nvalloc(name, MB(mb)) for name, mb in CHUNKS_MB}
    ck = LocalCheckpointer(ctx, alloc, PrecopyPolicy(mode=mode))
    ck.start_background()

    def app():
        for round_no in range(N_CHECKPOINTS):
            for name in TOUCH_SCRIPT[round_no]:
                chunks[name].touch()
            yield ctx.engine.timeout(INTERVAL_S - LATE_TOUCH_S)
            chunks[HOT_CHUNK].touch()
            yield ctx.engine.timeout(LATE_TOUCH_S)
            yield from ck.checkpoint(blocking=False)
        ck.stop_background()

    ctx.engine.process(app(), name="app")
    ctx.engine.run()

    record = {
        "mode": mode,
        "checkpoints": [
            {
                "start": s.start,
                "end": s.end,
                "bytes_copied": s.bytes_copied,
                "chunks_copied": s.chunks_copied,
                "chunks_skipped": s.chunks_skipped,
                "flush_cost": s.flush_cost,
            }
            for s in ck.history
        ],
        "checkpoints_done": ck.checkpoints_done,
        "total_coordinated_bytes": ck.total_coordinated_bytes,
        "total_precopy_bytes": ck.total_precopy_bytes,
        "total_bytes_to_nvm": ck.total_bytes_to_nvm,
        "total_checkpoint_time": ck.total_checkpoint_time,
    }
    if ck.precopy is not None:
        record["precopy"] = {
            "copies": ck.precopy.stats.copies,
            "bytes_copied": ck.precopy.stats.bytes_copied,
            "stale_copies": ck.precopy.stats.stale_copies,
            "redundant_copies": ck.precopy.stats.redundant_copies,
            "faults_induced": ck.precopy.stats.faults_induced,
        }
    return record


def pinned_grid_records() -> list:
    from repro.exec.grid import run_grid
    from repro.tools.bench import PINNED_GRID
    from repro.tools.sweep import parse_sweeps

    base_args, axes_specs = PINNED_GRID
    report = run_grid(base_args, parse_sweeps(list(axes_specs)), workers=1, cache=None)
    return report.records


#: the 128-chunks-per-rank grid: 2 nodes x 4 ranks, local interval
#: 20 s, remote interval 60 s, synthetic app, 80 MB in 0.625 MB chunks
FINE_CHUNKS_GRID = (
    [
        "--nodes", "2", "--ranks-per-node", "4",
        "--local-interval", "20", "--remote-interval", "60",
        "--app", "synthetic", "--iterations", "7",
        "--checkpoint-mb", "80", "--chunk-mb", "0.625",
        "--seed", "1",
    ],
    ["mode=dcpc,dcpcp"],
)


def fine_chunks_records() -> list:
    from repro.exec.grid import run_grid
    from repro.tools.sweep import parse_sweeps

    base_args, axes_specs = FINE_CHUNKS_GRID
    report = run_grid(base_args, parse_sweeps(list(axes_specs)), workers=1, cache=None)
    return report.records


def main() -> int:
    grid = pinned_grid_records()
    with open(os.path.join(FIXTURE_DIR, "pinned_grid_records.json"), "w") as fh:
        json.dump(grid, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"pinned_grid_records.json: {len(grid)} cells")

    fine = fine_chunks_records()
    with open(os.path.join(FIXTURE_DIR, "fine_chunks_records.json"), "w") as fh:
        json.dump(fine, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"fine_chunks_records.json: {len(fine)} cells")

    schedules = [standalone_schedule(mode) for mode in MODES]
    with open(os.path.join(FIXTURE_DIR, "standalone_schedules.json"), "w") as fh:
        json.dump(schedules, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for rec in schedules:
        print(
            f"standalone[{rec['mode']}]: {rec['checkpoints_done']} ckpts, "
            f"{rec['total_bytes_to_nvm']} bytes to NVM"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
