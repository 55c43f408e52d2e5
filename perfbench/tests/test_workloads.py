"""Workload validity: each workload must reach the layers it is meant to
stress, and bypass the ones it is meant to bypass.

Each workload runs one traced pass (about a minute for all four), so a
refactor that makes a workload skip its layer fails here instead of
silently flattening a per-layer metric.
"""

import json
import os

import pytest

from perfbench import measure, workloads
from perfbench.spans import DECIDE, LAYERS, SpanRecorder

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SEED = 1
#: held-back workloads are checked too, so their defects stay visible
ALL = workloads.NAMES + workloads.HELD_BACK

#: spans that must record work on each workload
PREDICTED = {
    "paper-grid": [
        "exec.cell", "cluster.build", "cluster.run", "sim.engine.run",
        "sim.bandwidth.transfer", "core.engine.checkpoint", "core.precopy.run",
        DECIDE, "core.remote.run", "core.remote.remote_checkpoint", "net.rdma_put",
        "memory.nvmm.nvmmap", "memory.store.put_meta", "alloc.nvalloc",
    ],
    "fine-chunks": [
        DECIDE, "core.precopy.run", "memory.nvmm.nvmmap", "memory.store.put_meta",
        "memory.store.flush", "alloc.nvalloc", "cluster.build",
    ],
    "codec-incremental": ["core.codec.stage", "core.codec.commit", "core.engine.checkpoint"],
    # restart refetches go through Fabric.transfer, not rdma_get
    "failures": ["resilience.resilient_put", "net.rdma_put", "cluster.run"],
}


def _load(name):
    with open(os.path.join(ROOT, name), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def traced():
    """One traced pass per workload, run on first use."""
    from repro.exec import GridSpec

    done = {}

    def run(name):
        if name not in done:
            spec = GridSpec.of(*workloads.get(name).grid_args(SEED))
            rec = SpanRecorder()
            done[name] = (measure.run_pass(spec, traced=True, recorder=rec), rec)
        return done[name]

    return run


@pytest.mark.parametrize("name", ALL)
def test_outputs_are_correct(traced, name):
    p, _ = traced(name)
    wl = workloads.get(name)
    golden = _load(wl.golden) if wl.golden else None
    check = measure.check_outputs([p], golden)
    assert check["problems"] == []
    assert check["attempted"] == len(p.cells) > 0


@pytest.mark.parametrize("name", ALL)
def test_predicted_layers_do_work(traced, name):
    _, rec = traced(name)
    idle = [span for span in PREDICTED[name] if rec.get(span).spans == 0]
    assert idle == []


@pytest.mark.parametrize("name", ALL)
def test_enough_blocking_samples(traced, name):
    p, _ = traced(name)
    # codec-incremental's 2 cells give 48 (see perfbench/model.json)
    minimum = 48 if name == "codec-incremental" else 100
    assert sum(len(c.blocking) for c in p.cells) >= minimum


def test_fine_chunks_scan_is_ten_times_paper_grid(traced):
    per_cell = {}
    for name in ("paper-grid", "fine-chunks"):
        p, rec = traced(name)
        per_cell[name] = rec.get(DECIDE).calls / len(p.cells)
    assert per_cell["fine-chunks"] >= 10 * per_cell["paper-grid"] > 0


@pytest.mark.parametrize("name", [n for n in ALL if n != "codec-incremental"])
def test_codec_is_bypassed_elsewhere(traced, name):
    _, rec = traced(name)
    assert rec.get("core.codec.stage").calls == 0
    assert rec.get("core.codec.commit").calls == 0


def test_every_failures_cell_has_soft_and_hard_failures(traced):
    p, _ = traced("failures")
    for record in p.records:
        assert record["failures.soft"] >= 1
        assert record["failures.hard"] >= 1


def test_metric_names_match_benchmark_json(traced):
    from repro.exec import GridSpec

    bench = _load("BENCHMARK.json")
    model = _load("perfbench/model.json")
    assert [w["name"] for w in bench["workloads"]] == list(workloads.NAMES)
    traced_pass, rec = traced("paper-grid")
    spec = GridSpec.of(*workloads.get("paper-grid").grid_args(SEED))
    plain = measure.run_pass(spec, traced=False)
    e2e = measure.end_to_end([plain], setup_s=1.0)
    layer = measure.per_layer([plain, traced_pass], rec)
    reported = [k for k in e2e if k != "recovery_s" and not k.startswith("raw.")]
    assert [m["name"] for m in bench["end_to_end"]] == reported
    assert [m["name"] for m in bench["per_layer"]] == list(layer)
    for m in bench["end_to_end"] + bench["per_layer"]:
        produced = e2e.get(m["name"]) or layer[m["name"]]
        assert produced["unit"] == m["unit"]
    assert set(model["end_to_end"]) == set(e2e) | {"failed_frac"}
    grouped = [name for group in model["layers"] for name in group["metrics"]]
    assert sorted(grouped) == sorted(layer)
    assert {f"self_s.{x}" for x in LAYERS} <= set(grouped)
