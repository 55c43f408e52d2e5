"""Differential replay verification: live run vs trace-driven replay.

The replay engine's faithful path derives byte accounting verbatim
from the captured events, so for the *same* configuration it must
reproduce the live run's :class:`CheckpointStats`/:class:`RunResult`
numbers integer-for-integer — coordinated bytes, pre-copy bytes,
bytes saved by incremental extents, and the full commit ordering.
These tests run that oracle across every policy mode and both copy
granularities, plus the Jsonl round-trip (capture -> serialize ->
read -> replay must lose nothing).
"""

from __future__ import annotations

import pytest

from repro.replay import (
    ReplayEngine,
    capture_cell,
    compare_to_run,
)

pytestmark = pytest.mark.replay

#: small but real cluster cell: 2 nodes x 2 ranks, remote tier on
BASE = {
    "app": "lammps",
    "nodes": 2,
    "ranks_per_node": 2,
    "iterations": 3,
    "local_interval": 20.0,
    "remote_interval": 60.0,
}

MODES = ["none", "cpc", "dcpc", "dcpcp"]
GRANULARITIES = ["chunk", "page"]

#: every mode at both granularities, plus the feature combinations
#: whose copies take other branches of the copy step: the payload codec
#: (local and remote), the raw wire-compression model, and rounds
#: without the remote pre-copy stream
SAME_CONFIG_CASES = [
    pytest.param(g, m, {}, id=f"{g}-{m}") for g in GRANULARITIES for m in MODES
] + [
    pytest.param("page", "dcpcp", {"codec": "auto"}, id="page-dcpcp-codec"),
    pytest.param("page", "none", {"codec": "auto"}, id="page-none-codec"),
    pytest.param("chunk", "cpc", {"codec": "auto"}, id="chunk-cpc-codec"),
    pytest.param("chunk", "dcpcp", {"compress_ratio": 0.6}, id="chunk-dcpcp-compress"),
    pytest.param(
        "chunk", "dcpcp", {"no_remote_precopy": True}, id="chunk-dcpcp-no-remote-precopy"
    ),
]


@pytest.mark.parametrize("granularity,mode,extra", SAME_CONFIG_CASES)
def test_same_config_replay_is_byte_exact(granularity, mode, extra, assert_replay_matches):
    cap = capture_cell(
        dict(
            BASE, mode=mode, granularity=granularity, copy_granularity=granularity, **extra
        )
    )
    cap = assert_replay_matches(cap)
    acc = cap.engine().faithful()
    # the oracle compared everything; spot-check the values are real
    assert acc.bytes_copied > 0 or acc.precopy_bytes > 0
    assert len(acc.commits) == cap.result.local_checkpoints


def test_commit_ordering_matches_live_history(assert_replay_matches):
    cap = assert_replay_matches(dict(BASE, mode="dcpcp"))
    acc = cap.engine().faithful()
    ordering = acc.commit_ordering()
    # strictly sorted canonical order, one commit per rank-interval
    assert ordering == sorted(ordering)
    assert len(ordering) == cap.result.local_checkpoints
    actors = {actor for _, actor, _, _ in ordering}
    assert len(actors) == cap.result.n_ranks


def test_jsonl_round_trip_preserves_exactness(tmp_path, assert_replay_matches):
    """capture -> Jsonl on disk -> read back -> still byte-exact."""
    cap = capture_cell(dict(BASE, mode="dcpcp", copy_granularity="page"))
    path = tmp_path / "trace.jsonl"
    cap.write_jsonl(str(path))
    engine = ReplayEngine.from_jsonl(str(path))
    assert engine.captured_config["mode"] == "dcpcp"
    report = compare_to_run(engine.faithful(), cap.result)
    assert report.matches, report.describe()
    # the disk trip must not change a single event
    assert engine.events == list(cap.events)


def test_page_granularity_reports_bytes_saved(assert_replay_matches):
    cap = assert_replay_matches(
        dict(BASE, mode="dcpcp", granularity="page", copy_granularity="page")
    )
    acc = cap.engine().faithful()
    live_saved = sum(
        s.checkpointer.total_bytes_saved for s in cap.result.cluster.all_ranks()
    )
    assert acc.bytes_saved == live_saved
    assert cap.result.bytes_saved == live_saved


def test_divergence_report_catches_tampering():
    """The oracle is falsifiable: drop one copy event and it must
    report exactly the metrics that byte-loss perturbs."""
    cap = capture_cell(dict(BASE, mode="dcpcp"))
    drop = next(
        i
        for i, e in enumerate(cap.events)
        if e.kind == "chunk.copied"
        and getattr(e, "stream", "") == "local"
        and getattr(e, "phase", "") == "coordinated"
    )
    tampered = [e for i, e in enumerate(cap.events) if i != drop]
    assert len(tampered) == len(cap.events) - 1
    engine = ReplayEngine.from_events(tampered, meta=cap.meta)
    report = compare_to_run(engine.faithful(), cap.result)
    assert not report.matches
    diverged = {d.metric for d in report.divergences}
    assert "coordinated_bytes" in diverged


def test_whatif_none_upper_bounds_precopying_modes():
    """Sanity on the model path: the no-pre-copy baseline coordinates
    at least as many bytes as any pre-copying policy, and total NVM
    traffic is conserved across policy what-ifs of one trace."""
    cap = capture_cell(dict(BASE, mode="dcpcp"))
    engine = cap.engine()
    results = {m: engine.whatif(m) for m in MODES}
    for mode in ("cpc", "dcpc", "dcpcp"):
        assert results["none"].bytes_copied >= results[mode].bytes_copied
        assert results[mode].coverage == 1.0
    # same-mode what-if must agree with the faithful split exactly:
    # the model re-derives the captured schedule from its own epochs
    acc = engine.faithful()
    assert results["dcpcp"].bytes_copied == acc.bytes_copied
    assert results["dcpcp"].precopy_bytes == acc.precopy_bytes


def test_replay_record_marks_faithful_vs_model():
    cap = capture_cell(dict(BASE, mode="cpc"))
    engine = cap.engine()
    same = engine.replay("cpc")
    other = engine.replay("none")
    assert same["replay.faithful"] is True
    assert other["replay.faithful"] is False
    assert other["replay.coordinated_gb"] >= same["replay.coordinated_gb"]


#: the failure cell of the benchmark's held-back ``failures`` workload
#: (2 x 4 LAMMPS, dcpcp, MTBF 120/480 s) and its three pinned schedules,
#: each with hard failures that re-pair a buddy and re-sync it
FAILURE_CELL = dict(
    BASE, ranks_per_node=4, mode="dcpcp", iterations=12, mtbf_local=120, mtbf_remote=480
)
FAILURE_SEEDS = [137265338757392, 53603676530129, 33087131855329]


@pytest.mark.parametrize("seed", FAILURE_SEEDS)
def test_resync_bytes_replay_exactly(seed, assert_replay_matches):
    """Re-sync copies emit ``chunk.copied`` with phase ``resync``; the
    trace reproduces the live re-sync bytes and keeps them out of the
    remote round bytes (the oracle checks those)."""
    cap = assert_replay_matches(dict(FAILURE_CELL, seed=seed))
    acc = cap.engine().faithful()
    assert cap.result.resync_bytes > 0
    assert acc.resync_bytes == cap.result.resync_bytes
    assert acc.migration_bytes == cap.result.migration_bytes == 0


def test_elastic_resync_and_migration_bytes_replay_exactly():
    """The elastic scenario's arm re-syncs and migrates: the trace
    reproduces both byte counts."""
    from repro.metrics.trace import BUS, RingBufferSink
    from repro.replay import accounting_from_events
    from repro.tools.elastic import run_elastic

    with BUS.capture(RingBufferSink(capacity=None)) as sink:
        _, _, res = run_elastic(0.25)
    acc = accounting_from_events(list(sink.events))
    assert res.resync_bytes > 0 and res.migration_bytes > 0
    assert acc.resync_bytes == res.resync_bytes
    assert acc.migration_bytes == res.migration_bytes
    assert acc.remote_round_bytes == res.remote_round_bytes


def test_hard_failure_keeps_replaced_ranks_work(assert_replay_matches):
    """A hard failure rebuilds the node's ranks and helper; the work the
    old ones did before the failure must stay in the run's totals, so
    the live counters still equal the trace's commits and bytes."""
    cap = assert_replay_matches(
        dict(
            BASE,
            mode="dcpcp",
            iterations=12,
            mtbf_local=120,
            mtbf_remote=480,
            seed=53603676530129,
        )
    )
    assert cap.result.hard_failures >= 1
    assert cap.result.local_checkpoints == len(cap.engine().faithful().commits)
