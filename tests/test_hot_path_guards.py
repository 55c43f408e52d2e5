"""Complexity guards for the two per-chunk hot paths.

Counters, not timings, so they hold on a slow or noisy host:

* pre-copy selection asks the policy about a bounded number of chunks
  per copy, however many chunks a rank has;
* building a cluster serializes process metadata once per flushed key,
  not once per mapped region or allocated chunk.
"""

from __future__ import annotations

import json

import pytest

from repro.alloc import NVAllocator
from repro.apps import SyntheticModel
from repro.cluster import Cluster
from repro.config import CheckpointConfig, ClusterConfig, PrecopyPolicy
from repro.core import LocalCheckpointer, make_standalone_context
from repro.memory import persistence
from repro.units import MB

CHUNKS_PER_RANK = 128


@pytest.mark.parametrize("mode", ["cpc", "dcpc", "dcpcp"])
def test_decides_per_copy_stay_bounded_at_128_chunks(mode):
    ctx = make_standalone_context(name="guard")
    alloc = NVAllocator("p0", ctx.nvmm, ctx.dram, phantom=True, clock=lambda: ctx.engine.now)
    chunks = [alloc.nvalloc(f"c{i}", MB(0.625)) for i in range(CHUNKS_PER_RANK)]
    ck = LocalCheckpointer(ctx, alloc, PrecopyPolicy(mode=mode))
    policy = ck.decision_policy
    calls = []
    decide = policy.decide

    def counting_decide(chunk, clock):
        calls.append(chunk.chunk_id)
        return decide(chunk, clock)

    policy.decide = counting_decide
    ck.start_background()

    def app():
        for round_no in range(5):
            # every chunk written early, a quarter of them again late
            for chunk in chunks:
                chunk.touch()
            yield ctx.engine.timeout(15.0)
            for chunk in chunks[round_no % 4 :: 4]:
                chunk.touch()
            yield ctx.engine.timeout(5.0)
            yield from ck.checkpoint(blocking=False)
        ck.stop_background()

    ctx.engine.process(app(), name="app")
    ctx.engine.run()
    copies = ck.precopy.stats.copies
    assert copies >= CHUNKS_PER_RANK
    assert len(calls) <= 2 * copies


class CountingJson:
    """Stands in for the ``json`` module inside the store."""

    def __init__(self) -> None:
        self.dumps_calls = 0

    def dumps(self, value, *args, **kwargs):
        self.dumps_calls += 1
        return json.dumps(value, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(json, name)


def test_cluster_build_serializes_metadata_per_flush_not_per_region(monkeypatch):
    counter = CountingJson()
    monkeypatch.setattr(persistence, "json", counter)
    flushes = []
    flush = persistence.InMemoryStore.flush

    def counting_flush(store):
        flushes.append(store)
        return flush(store)

    monkeypatch.setattr(persistence.InMemoryStore, "flush", counting_flush)
    cluster = Cluster(ClusterConfig(nodes=2))
    cluster.build(
        SyntheticModel(checkpoint_mb_per_rank=80, chunk_mb=0.625),
        CheckpointConfig(precopy=PrecopyPolicy(mode="dcpcp")),
        ranks_per_node=4,
    )
    regions = sum(len(n.ctx.nvmm._regions) for n in cluster.nodes)
    assert regions >= 2 * 4 * CHUNKS_PER_RANK
    keys = sum(len(n.ctx.nvmm.store.list_meta()) for n in cluster.nodes)
    assert counter.dumps_calls <= len(flushes) * keys
    # the tables are complete all the same
    for node in cluster.nodes:
        for state in node.ranks:
            meta = node.ctx.nvmm.store.get_meta(f"alloc/proc:{state.allocator.pid}")
            assert len(meta["chunks"]) == CHUNKS_PER_RANK
