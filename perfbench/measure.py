"""Timed passes over a workload, the output checks, and the metrics.

A *pass* runs every cell of the workload once through
``repro.exec.run_grid(..., workers=1)`` (in-process, no worker pool).
A per-cell observer around ``repro.exec.cell.run_experiment`` — the
function ``run_cell`` looks up for each cell — takes the cell's host
wall time and the parts of its :class:`~repro.cluster.RunResult` that
``to_dict()`` leaves out (DES item count, the timeline).  A traced
pass also records spans (:mod:`perfbench.spans`) and captures the
cell's trace-bus events for the replay oracle.

During an untraced pass a timer signal also times a fixed pure-Python
loop (:func:`reference_loop`, which shares no code with ``repro``)
every :data:`SAMPLE_PERIOD_S` of host time, and the observer takes
the time those samples took out of the cell they interrupted.  The
host's speed drifts by 20 % and more over tens of seconds; across a
run the loop slows and speeds up with the simulator (correlation 0.98
over 30-s runs of ``paper-grid``), so the host throughputs are scaled
to the speed at which the loop takes :data:`REFERENCE_S`.

Every ``repro`` import here happens inside a function, after the
set-up phase has (re)imported the package.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import signal
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, Iterator, List, Optional

from .spans import Patches, SpanRecorder, instrument

#: host seconds of one :func:`reference_loop` on the host the bounds
#: were set on; host throughputs are reported at this speed
REFERENCE_S = 0.0045
#: host seconds between two reference-loop samples (each takes about
#: REFERENCE_S, so sampling costs about 2 % of a pass)
SAMPLE_PERIOD_S = 0.25


def reference_loop() -> float:
    """Host seconds of a fixed integer loop independent of ``repro``."""
    t0 = perf_counter()
    acc = 0
    for i in range(60000):
        acc += i * i % 7
    return perf_counter() - t0


class HostSampler:
    """Times :func:`reference_loop` from a SIGALRM handler every
    :data:`SAMPLE_PERIOD_S` of host time while :meth:`active`."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        #: host seconds spent in the handler, samples included
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        self.samples.append(reference_loop())
        self.spent += perf_counter() - t0

    @contextlib.contextmanager
    def active(self) -> Iterator["HostSampler"]:
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


@dataclass
class CellRun:
    """One execution of one cell."""

    wall_s: float
    sim_events: int
    #: simulated seconds of each rank-checkpoint's blocking phase
    blocking: List[float]
    #: traced cells only: did the captured trace replay to the live result?
    replay_ok: Optional[bool] = None
    replay_detail: str = ""
    precopy_copies: int = 0
    precopy_wasted: int = 0
    # kept until the pass ends, then checked and dropped
    result: object = None
    events: Optional[list] = None


@dataclass
class Pass:
    traced: bool
    records: List[dict] = field(default_factory=list)
    cells: List[CellRun] = field(default_factory=list)
    #: :func:`reference_loop` times sampled during an untraced pass
    reference_s: List[float] = field(default_factory=list)
    error: str = ""


def run_pass(spec, *, traced: bool, recorder: Optional[SpanRecorder] = None,
             first_cell_id: int = 0) -> Pass:
    """Run every cell of *spec* once and observe each."""
    from repro.exec import cell as cell_module
    from repro.exec import run_grid
    from repro.metrics.timeline import LOCAL_CKPT
    from repro.metrics.trace import BUS, RingBufferSink

    out = Pass(traced=traced)
    run_experiment = cell_module.run_experiment

    # spans would count the handler's time, so traced passes go unsampled
    sampler = None if traced else HostSampler()

    def observe(args):
        spent = sampler.spent if sampler is not None else 0.0
        sink = None
        if traced:
            recorder.cell = first_cell_id + len(out.cells)
            sink = RingBufferSink(capacity=None)
            t0 = perf_counter()
            with BUS.capture(sink):
                result = run_experiment(args)
        else:
            t0 = perf_counter()
            result = run_experiment(args)
        wall = perf_counter() - t0
        if sampler is not None:
            wall -= sampler.spent - spent
        out.cells.append(CellRun(
            wall_s=wall,
            sim_events=result.sim_events,
            blocking=[p.duration for p in result.timeline.phases if p.kind == LOCAL_CKPT],
            result=result if traced else None,
            events=list(sink.events) if traced else None,
        ))
        return result

    patches = Patches()
    patches.set(cell_module, "run_experiment", observe)
    try:
        if traced:
            with instrument(recorder):
                grid = run_grid(spec, workers=1)
        else:
            with sampler.active():
                grid = run_grid(spec, workers=1)
            out.reference_s = sampler.samples
        out.records = grid.records
    except Exception as err:  # a cell raised: the whole pass counts as failed
        out.error = f"{type(err).__name__}: {err}"
    finally:
        patches.restore()
    if traced:
        for cell in out.cells:
            _check_replay(cell)
    return out


def _check_replay(cell: CellRun) -> None:
    """Replay oracle: the captured trace must reproduce the live byte
    accounting; also read the pre-copy engines' work counts."""
    from repro.replay import accounting_from_events, compare_to_run

    report = compare_to_run(accounting_from_events(cell.events), cell.result)
    cell.replay_ok = report.matches
    cell.replay_detail = "" if report.matches else report.describe()
    for state in cell.result.cluster.all_ranks():
        engine = state.checkpointer.precopy
        if engine is not None:
            cell.precopy_copies += engine.stats.copies
            cell.precopy_wasted += engine.stats.stale_copies + engine.stats.redundant_copies
    cell.result = None
    cell.events = None


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def _canonical(record: dict) -> str:
    return json.dumps(record, sort_keys=True)


def check_outputs(passes: List[Pass], golden: Optional[list]) -> Dict[str, object]:
    """Count the cell executions whose output is wrong.

    A cell execution fails when its pass raised, when its record differs
    from the first pass's record of the same cell, when it differs from
    the golden fixture, or when its traced replay diverged.
    """
    reference = next((p.records for p in passes if not p.error), None)
    n_cells = len(reference) if reference is not None else 0
    golden_ok = None
    if golden is not None and reference is not None:
        golden_ok = json.loads(_canonical(reference)) == golden
    attempted = failed = 0
    problems: List[str] = []
    for i, p in enumerate(passes):
        if p.error:
            attempted += max(n_cells, len(p.cells), 1)
            failed += max(n_cells, len(p.cells), 1)
            problems.append(f"pass {i}: {p.error}")
            continue
        for j, record in enumerate(p.records):
            attempted += 1
            bad = _canonical(record) != _canonical(reference[j])
            if bad:
                problems.append(f"pass {i} cell {j}: record differs from pass 0")
            if golden_ok is False:
                bad = True
            cell = p.cells[j]
            if cell.replay_ok is False:
                problems.append(f"pass {i} cell {j}: replay diverged: {cell.replay_detail}")
                bad = True
            failed += bad
    if golden_ok is False:
        problems.append("records differ from the golden fixture")
    return {"attempted": attempted, "failed": failed, "problems": problems}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _median_walls(passes: List[Pass]) -> List[float]:
    """Per cell, the median host wall time over the given passes."""
    n = len(passes[0].cells)
    return [statistics.median(p.cells[i].wall_s for p in passes) for i in range(n)]


def cells_per_s(passes: List[Pass]) -> float:
    walls = _median_walls(passes)
    return len(walls) / sum(walls)


def host_speed(passes: List[Pass]) -> float:
    """How much slower than at :data:`REFERENCE_S` the host ran: the
    median reference-loop sample of the (untraced) passes, over
    REFERENCE_S."""
    return statistics.median(t for p in passes for t in p.reference_s) / REFERENCE_S


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _nvm_write_gb(r: dict) -> float:
    return (
        r["local.coordinated_gb"] + r["local.precopy_gb"]
        + r["remote.round_gb"] + r["remote.stream_gb"] + r["resilience.resync_gb"]
    )


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(passes: List[Pass], setup_s: float) -> Dict[str, dict]:
    """Every end-to-end metric: ``{name: {value, unit, clock}}``.

    The host throughputs are scaled by :func:`host_speed`; the raw
    ones are returned too, under ``raw.`` names.
    """
    walls = _median_walls(passes)
    first = passes[0]
    scale = host_speed(passes)
    raw_cells_per_s = cells_per_s(passes)
    raw_events_per_s = sum(c.sim_events for c in first.cells) / sum(walls)
    records = first.records
    blocking = sorted(s for cell in first.cells for s in cell.blocking)
    failures = sum(r["failures.soft"] + r["failures.hard"] for r in records)
    recovery = sum(r["failures.recovery_s"] for r in records)
    return {
        "cells_per_s": {"value": raw_cells_per_s * scale, "unit": "cells/s", "clock": "host"},
        "sim_events_per_s": {
            "value": raw_events_per_s * scale, "unit": "events/s", "clock": "host",
        },
        "setup_s": {"value": setup_s, "unit": "s", "clock": "host"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB", "clock": "host"},
        "ckpt_overhead_pct": {
            "value": 100.0 * _mean(r["overhead_fraction"] for r in records),
            "unit": "%", "clock": "sim",
        },
        "blocking_ckpt_s.p50": {
            "value": statistics.median(blocking), "unit": "sim_s", "clock": "sim",
            "samples": len(blocking),
        },
        "blocking_ckpt_s.p90": {
            "value": statistics.quantiles(blocking, n=10, method="inclusive")[8],
            "unit": "sim_s", "clock": "sim", "samples": len(blocking),
        },
        "nvm_write_gb": {
            "value": _mean(_nvm_write_gb(r) for r in records), "unit": "GB/cell", "clock": "sim",
        },
        "fabric_ckpt_peak_mb": {
            "value": _mean(r["fabric.ckpt_peak_1s_mb"] for r in records),
            "unit": "MB", "clock": "sim",
        },
        "recovery_s": {
            "value": recovery / failures if failures else 0.0, "unit": "sim_s/failure",
            "clock": "sim",
        },
        "raw.cells_per_s": {"value": raw_cells_per_s, "unit": "cells/s", "clock": "host"},
        "raw.sim_events_per_s": {"value": raw_events_per_s, "unit": "events/s", "clock": "host"},
        "raw.host_speed": {"value": scale, "unit": "ratio", "clock": "host"},
    }


def per_layer(passes: List[Pass], rec: SpanRecorder) -> Dict[str, dict]:
    """Every per-layer metric from the traced passes (counts and host
    seconds per traced cell) and the records (simulated quantities)."""
    from repro.units import to_GB

    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    cells = [c for p in traced for c in p.cells]
    n = len(cells)
    records = traced[0].records
    out: Dict[str, dict] = {}

    def put(name: str, value: float, unit: str, clock: str) -> None:
        out[name] = {"value": value, "unit": unit, "clock": clock}

    def span(name: str, calls: bool = True, host: bool = True) -> None:
        st = rec.get(name)
        if calls:
            put(f"{name}.calls", st.calls / n, "calls/cell", "host")
        if host:
            put(f"{name}.host_s", st.host_s / n, "s/cell", "host")

    def mean_of(key: str, default: float = 0.0) -> float:
        return _mean(r.get(key, default) for r in records)

    # exec, cluster
    span("exec.cell", calls=False)
    span("cluster.build")
    span("cluster.run", calls=False)
    put("cluster.failures.soft", mean_of("failures.soft"), "failures/cell", "sim")
    put("cluster.failures.hard", mean_of("failures.hard"), "failures/cell", "sim")
    put("cluster.recovery_sim_s", mean_of("failures.recovery_s"), "sim_s/cell", "sim")
    # sim
    events = sum(c.sim_events for c in cells)
    engine_s = rec.get("sim.engine.run").host_s
    put("sim.engine.events", events / n, "events/cell", "sim")
    span("sim.engine.run", calls=False)
    put("sim.engine.host_us_per_event", 1e6 * engine_s / events, "us/event", "host")
    span("sim.bandwidth.transfer")
    # policy, precopy
    copies = sum(c.precopy_copies for c in cells)
    decides = rec.get("core.policy.decide").calls
    span("core.policy.decide")
    put("core.policy.decides_per_copy", decides / copies if copies else 0.0, "ratio", "host")
    span("core.precopy.run", calls=False)
    put("core.precopy.copies", copies / n, "copies/cell", "sim")
    put("core.precopy.gb", mean_of("local.precopy_gb"), "GB/cell", "sim")
    put("core.precopy.wasted_frac",
        sum(c.precopy_wasted for c in cells) / copies if copies else 0.0, "ratio", "sim")
    # engine
    span("core.engine.checkpoint")
    put("core.engine.coordinated_gb", mean_of("local.coordinated_gb"), "GB/cell", "sim")
    # codec
    span("core.codec.stage")
    span("core.codec.commit")
    put("core.codec.dedup_hit_rate", mean_of("codec.dedup_hit_rate"), "ratio", "sim")
    logical = sum(r.get("codec.logical_gb", 0.0) for r in records)
    wire = sum(r.get("codec.wire_gb", 0.0) for r in records)
    put("core.codec.wire_over_logical", wire / logical if logical else 0.0, "ratio", "sim")
    # remote, net
    put("core.remote.stream_gb", mean_of("remote.stream_gb"), "GB/cell", "sim")
    put("core.remote.round_gb", mean_of("remote.round_gb"), "GB/cell", "sim")
    put("core.remote.helper_utilization", mean_of("remote.helper_utilization"), "ratio", "sim")
    for name in ("net.rdma_put", "net.rdma_get"):
        st = rec.get(name)
        put(f"{name}.calls", st.calls / n, "calls/cell", "host")
        put(f"{name}.gb", to_GB(st.nbytes) / n, "GB/cell", "sim")
    # memory, alloc
    span("memory.nvmm.nvmmap")
    span("memory.store.put_meta")
    span("memory.store.flush")
    span("alloc.nvalloc")
    # resilience
    put("resilience.retries", mean_of("resilience.transfer_retries"), "retries/cell", "sim")
    put("resilience.timeouts", mean_of("resilience.transfer_timeouts"), "timeouts/cell", "sim")
    put("resilience.abandoned", mean_of("resilience.transfers_abandoned"), "transfers/cell", "sim")
    put("resilience.resync_gb", mean_of("resilience.resync_gb"), "GB/cell", "sim")
    span("resilience.resilient_put")
    # self time per layer
    for layer, seconds in rec.layer_self_s().items():
        put(f"self_s.{layer}", seconds / n, "s/cell", "host")
    # the tracing's own cost
    plain = cells_per_s(untraced)
    with_spans = cells_per_s(traced)
    put("trace.untraced_cells_per_s", plain, "cells/s", "host")
    put("trace.traced_cells_per_s", with_spans, "cells/s", "host")
    put("trace.overhead_ratio", plain / with_spans, "ratio", "host")
    put("trace.spans", len(rec) / n, "spans/cell", "host")
    return out


def write_spans(rec: SpanRecorder, root: str, workload: str) -> str:
    directory = os.path.join(root, ".perfbench")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"spans-{workload}.npz")
    rec.save(path)
    return path
