"""The benchmark's workloads: which cells each one runs and why.

Every workload is a grid of experiment cells on the simulated 2-node x
4-rank testbed (local interval 20 s, remote interval 60 s), expressed
in the option surface of ``repro.exec`` and run through
``repro.exec.run_grid``.  The workload seed becomes each cell's
``--seed``.  The simulator's only random input is the failure
schedule, so the seed changes no simulated output of ``paper-grid``,
``fine-chunks`` or ``codec-incremental``.  ``failures`` runs a pinned
set of failure schedules (see :data:`FAILURE_SEEDS`) and is held back
from BENCHMARK.json (see :data:`HELD_BACK`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

#: options every cell shares
TESTBED = (
    "--nodes", "2", "--ranks-per-node", "4",
    "--local-interval", "20", "--remote-interval", "60",
)

#: the failure schedules of the ``failures`` workload.  They are the
#: first three of ``derive_cell_seed(1, [("failures", str(i))])`` for
#: i = 0, 1, ... whose schedule puts at least one soft and one hard
#: failure inside the 240 s ideal run.  They do not follow the
#: workload seed: across twenty seed-derived schedules one cell's
#: checkpoint overhead ranged from 13 % to 298 % and its host time from
#: 1.4 s to 4.1 s, a spread no regression bound can absorb.
FAILURE_SEEDS = (137265338757392, 53603676530129, 33087131855329)

GOLDEN_RECORDS = "tests/golden/pinned_grid_records.json"


@dataclass(frozen=True)
class Workload:
    """One workload; why it was chosen is recorded in BENCHMARK.json."""

    name: str
    #: CLI options shared by the workload's cells (``--seed`` excluded)
    base: Tuple[str, ...]
    #: sweep specs (``"name=v1,v2"``) crossed over ``base``
    axes: Tuple[str, ...]
    #: repo-relative fixture the records must equal, if any
    golden: Optional[str] = None

    def grid_args(self, seed: int) -> Tuple[List[str], List[str]]:
        """``(base_args, axes)`` for :class:`repro.exec.GridSpec.of`."""
        base = list(self.base)
        if not any(spec.startswith("seed=") for spec in self.axes):
            base += ["--seed", str(seed)]
        return base, list(self.axes)


def _paper_grid() -> Workload:
    from repro.tools.bench import PINNED_GRID

    base, axes = PINNED_GRID
    return Workload(
        name="paper-grid",
        base=tuple(base),
        axes=tuple(axes),
        golden=GOLDEN_RECORDS,
    )


def _static_workloads() -> Dict[str, Workload]:
    return {
        "fine-chunks": Workload(
            name="fine-chunks",
            base=TESTBED + (
                "--app", "synthetic", "--iterations", "7",
                "--checkpoint-mb", "80", "--chunk-mb", "0.625",
            ),
            axes=("mode=dcpc,dcpcp",),
        ),
        "codec-incremental": Workload(
            name="codec-incremental",
            base=TESTBED + (
                "--app", "lammps", "--iterations", "3", "--nvm-gbps", "2",
                "--copy-granularity", "page", "--codec", "auto",
            ),
            axes=("mode=none,dcpcp",),
        ),
        "failures": Workload(
            name="failures",
            base=TESTBED + (
                "--app", "lammps", "--mode", "dcpcp", "--iterations", "12",
                "--mtbf-local", "120", "--mtbf-remote", "480",
            ),
            axes=("seed=" + ",".join(str(s) for s in FAILURE_SEEDS),),
        ),
    }


#: the workloads BENCHMARK.json lists, in its order
NAMES = ("paper-grid", "fine-chunks", "codec-incremental")

#: workloads that run by name but are left out of BENCHMARK.json.
#: ``failures`` is held back while RunResult loses a rebuilt node's
#: earlier checkpoint work (see ``known_defect`` in model.json): every
#: hard failure fails its traced run's replay check, so the workload
#: cannot pass the output check until that is fixed in ``repro``.
HELD_BACK = ("failures",)


def get(name: str) -> Workload:
    """The named workload (imports ``repro`` for ``paper-grid``)."""
    if name == "paper-grid":
        return _paper_grid()
    return _static_workloads()[name]


def expand(workload: Workload, seed: int) -> Sequence:
    """The workload's resolved cells, as :func:`repro.exec.run_grid`
    will run them."""
    from repro.exec import GridSpec, expand_grid

    base, axes = workload.grid_args(seed)
    return expand_grid(GridSpec.of(base, axes))
