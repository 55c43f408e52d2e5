"""Golden-equivalence suite for the policy/destination/engine refactor.

The fixtures under ``tests/golden/`` were captured from the
pre-refactor checkpointers (see ``tests/golden/generate_fixtures.py``).
These tests re-run the same scenarios through the unified
:class:`~repro.core.engine.CheckpointEngine` pipeline and require
byte-for-byte identical schedules and stats — the refactor must be
behaviour-preserving, not merely similar.

A failure here means simulated *semantics* changed.  If that was
deliberate, regenerate the fixtures and say so in the PR; otherwise it
is a regression.
"""

from __future__ import annotations

import importlib.util
import json
import os

import pytest

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def _load_generator():
    spec = importlib.util.spec_from_file_location(
        "golden_generate_fixtures",
        os.path.join(GOLDEN_DIR, "generate_fixtures.py"),
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


gen = _load_generator()


def _roundtrip(obj):
    """Normalize through JSON exactly like the stored fixture was."""
    return json.loads(json.dumps(obj, sort_keys=True))


def _fixture(name: str):
    path = os.path.join(GOLDEN_DIR, name)
    with open(path) as fh:
        return json.load(fh)


@pytest.mark.parametrize("mode", gen.MODES)
def test_standalone_schedule_matches_golden(mode):
    stored = {rec["mode"]: rec for rec in _fixture("standalone_schedules.json")}
    live = _roundtrip(gen.standalone_schedule(mode))
    assert live == stored[mode]


def test_standalone_modes_are_distinct():
    """The scenario must actually separate the four policies (else the
    per-mode assertions prove nothing): the naive baseline copies at
    the checkpoint, CPC pre-copies everything, DCPC pre-copies the hot
    chunk redundantly, DCPCP's prediction withholds it."""
    recs = {rec["mode"]: rec for rec in _fixture("standalone_schedules.json")}
    assert recs["none"]["total_precopy_bytes"] == 0
    assert recs["cpc"]["total_coordinated_bytes"] == 0
    assert recs["dcpc"]["precopy"]["redundant_copies"] > 0
    assert recs["dcpcp"]["precopy"]["redundant_copies"] == 0
    assert (
        recs["dcpcp"]["total_precopy_bytes"] < recs["dcpc"]["total_precopy_bytes"]
    )
    # the full schedule record (coordinated stats + pre-copy accounting)
    # is distinct per mode; DCPC and DCPCP share the coordinated-step
    # stats (both re-copy the hot chunk there) but differ in pre-copy
    schedules = [
        json.dumps(
            {k: v for k, v in recs[m].items() if k != "mode"}, sort_keys=True
        )
        for m in gen.MODES
    ]
    assert len(set(schedules)) == len(gen.MODES)


def test_pinned_grid_matches_golden():
    """The 16-cell pinned bench grid (4 modes x 4 NVM bandwidths, both
    tiers on) on the serial reference path reproduces the pre-refactor
    records exactly — every timing, byte count and resilience counter."""
    stored = _fixture("pinned_grid_records.json")
    live = _roundtrip(gen.pinned_grid_records())
    assert len(live) == 16
    assert live == stored


def test_fine_chunks_grid_matches_golden():
    """128 equal-size chunks per rank under dcpc and dcpcp: every
    pre-copy pick is decided by the engine's tie-break (earliest
    insertion into its dirty index), so any drift in the incremental
    eligibility index shows up here as a changed record."""
    stored = _fixture("fine_chunks_records.json")
    live = _roundtrip(gen.fine_chunks_records())
    assert len(live) == 2
    assert live == stored


def test_codec_remote_grid_matches_golden():
    """The codec on both tiers at page granularity, the raw wire
    compression model and a hard-failure schedule (degraded mode and a
    buddy re-sync) reproduce the records captured before the copy paths
    were merged into one step."""
    stored = _fixture("codec_remote_records.json")
    live = _roundtrip(gen.codec_remote_records())
    assert len(live) == 4
    assert live == stored


def test_elastic_matches_golden():
    """The elastic scenario's three arms — clean, full-resync baseline
    and elastic (buddy re-syncs, a live migration, incremental
    failover) — reproduce the records captured before re-sync and
    migration moved onto the copy step."""
    stored = _fixture("elastic_records.json")
    live = _roundtrip(gen.elastic_records())
    assert len(live) == 3
    assert live == stored
