"""The payload-representation layer: codecs, block store, crash matrix.

Three concerns live here:

* **Exact-mode codecs** — every codec's ``decode(encode(x)) == x``
  byte transform on deterministic inputs, the loud-failure contracts
  (delta against the wrong base raises, dedup digest mismatch raises),
  and the wire-cost orderings the planner relies on (a sparse delta is
  smaller than a full copy; a re-encoded dedup payload ships only
  references).

* **BlockStore transactionality** — stage/commit/abort/rebuild
  refcount accounting, double-buffer overwrite decrements, and the
  negative-refcount / unknown-digest guards.

* **The codec crash matrix** — the ``codec.store.commit.*`` points are
  excluded from the default fault matrix (they only fire under a
  non-raw codec); this file runs them through a codec-enabled
  :class:`CrashConsistencyHarness`, and closes the loop with a
  real-payload checkpoint -> crash -> restart cycle whose block-digest
  verification must find zero mismatches.

``tests/test_property_codec.py`` holds the Hypothesis generalization
of the round-trip and refcount invariants.
"""

import numpy as np
import pytest

from repro.alloc import NVAllocator
from repro.config import PrecopyPolicy
from repro.core import LocalCheckpointer, RestartManager, make_standalone_context
from repro.core.codec import (
    DEFAULT_BLOCK,
    AutoCodec,
    BlockStore,
    DedupCodec,
    DeltaCodec,
    Payload,
    RawCodec,
    block_digests,
    codec_names,
    content_digest,
    resolve_codec,
)
from repro.errors import AllReplicasLost, CheckpointError, CodecError, ConfigError
from repro.faults.harness import CONSISTENT_OUTCOMES, CrashConsistencyHarness
from repro.faults.plan import FaultPlan, ScriptedFault
from repro.sim import Engine

pytestmark = pytest.mark.codec


def _buf(seed: int, n: int) -> bytes:
    return np.random.default_rng(seed).integers(0, 256, size=n, dtype=np.uint8).tobytes()


# ---------------------------------------------------------------------------
# Registry.
# ---------------------------------------------------------------------------


def test_registry_names_and_resolution():
    assert codec_names() == ["auto", "dedup", "delta", "raw"]
    for name in codec_names():
        assert resolve_codec(name).name == name
    with pytest.raises(ConfigError):
        resolve_codec("gzip")


def test_policy_rejects_unknown_codec_and_bad_block():
    with pytest.raises(ConfigError):
        PrecopyPolicy(codec="gzip")
    with pytest.raises(ConfigError):
        PrecopyPolicy(codec="auto", codec_block=3000)
    assert not PrecopyPolicy().codec_enabled
    assert PrecopyPolicy(codec="delta").codec_enabled


# ---------------------------------------------------------------------------
# Exact-mode transforms.
# ---------------------------------------------------------------------------


def test_raw_round_trip_and_identity_cost():
    data = _buf(1, 10_000)
    p = RawCodec().encode_bytes(data)
    assert (p.kind, p.codec) == ("full", "raw")
    assert p.wire_bytes == p.logical_bytes == len(data)
    assert p.saved_bytes == 0
    assert RawCodec().decode_bytes(p) == data


def test_delta_round_trip_sparse_change_is_cheap():
    base = _buf(2, 64 * 1024)
    data = bytearray(base)
    data[100:164] = _buf(3, 64)  # one small dirty run
    p = DeltaCodec().encode_bytes(bytes(data), base=base)
    assert p.kind == "delta"
    assert DeltaCodec().decode_bytes(p, base=base) == bytes(data)
    # the wire carries ~the changed run, not the chunk
    assert p.wire_bytes < len(base) // 8
    assert 0 < p.changed_bytes <= 64


def test_delta_identical_buffers_ship_headers_only():
    base = _buf(4, 8192)
    p = DeltaCodec().encode_bytes(base, base=base)
    assert p.changed_bytes == 0
    assert p.data == b""
    assert DeltaCodec().decode_bytes(p, base=base) == base


def test_delta_requires_base_and_matching_length():
    data = _buf(5, 4096)
    with pytest.raises(CodecError):
        DeltaCodec().encode_bytes(data)
    with pytest.raises(CodecError):
        DeltaCodec().encode_bytes(data, base=data[:-1])


def test_delta_against_wrong_base_fails_loudly():
    base = _buf(6, 4096)
    data = _buf(7, 4096)
    p = DeltaCodec().encode_bytes(data, base=base)
    wrong = bytearray(base)
    wrong[0] ^= 0xFF
    with pytest.raises(CodecError, match="base mismatch"):
        DeltaCodec().decode_bytes(p, base=bytes(wrong))
    # silent corruption would be worse than the raise: verify the
    # correct base still round-trips after the failed attempt
    assert DeltaCodec().decode_bytes(p, base=base) == data


def test_dedup_round_trip_and_reference_growth():
    store = BlockStore()
    data = _buf(8, 6 * DEFAULT_BLOCK)
    first = DedupCodec().encode_bytes(data, store=store)
    assert (first.blocks_new, first.blocks_ref) == (6, 0)
    assert DedupCodec().decode_bytes(first, store=store) == data
    # re-encoding identical content ships pure references
    second = DedupCodec().encode_bytes(data, store=store)
    assert (second.blocks_new, second.blocks_ref) == (0, 6)
    assert second.wire_bytes < first.wire_bytes
    assert DedupCodec().decode_bytes(second, store=store) == data


def test_dedup_repeated_blocks_dedupe_within_one_payload():
    store = BlockStore()
    blk = _buf(9, DEFAULT_BLOCK)
    data = blk * 4
    p = DedupCodec().encode_bytes(data, store=store)
    assert p.blocks_new == 1 and p.blocks_ref == 3
    assert DedupCodec().decode_bytes(p, store=store) == data


def test_dedup_tail_block_and_empty_input():
    store = BlockStore()
    data = _buf(10, DEFAULT_BLOCK + 7)  # ragged tail
    p = DedupCodec().encode_bytes(data, store=store)
    assert p.blocks == 2
    assert DedupCodec().decode_bytes(p, store=store) == data
    empty = DedupCodec().encode_bytes(b"", store=store)
    assert DedupCodec().decode_bytes(empty, store=store) == b""


def test_dedup_requires_store():
    with pytest.raises(CodecError):
        DedupCodec().encode_bytes(b"x")
    with pytest.raises(CodecError):
        DedupCodec().decode_bytes(
            Payload(kind="dedup", codec="dedup", logical_bytes=1, wire_bytes=1)
        )


def test_auto_picks_cheapest_and_decodes_via_kind():
    store = BlockStore()
    base = _buf(11, 8 * DEFAULT_BLOCK)
    data = bytearray(base)
    data[0:32] = _buf(12, 32)
    auto = AutoCodec()
    p = auto.encode_bytes(bytes(data), base=base, store=store)
    assert set(p.candidates) == {"raw", "delta", "dedup"}
    assert p.wire_bytes == min(p.candidates.values())
    assert p.codec == "delta"  # one dirty run beats shipping blocks
    assert auto.decode_bytes(p, base=base, store=store) == bytes(data)
    # incompressible novel content with no base: raw must win
    novel = auto.encode_bytes(_buf(13, 2 * DEFAULT_BLOCK), store=store)
    assert novel.codec == "raw"
    assert auto.decode_bytes(novel, store=store) == _buf(13, 2 * DEFAULT_BLOCK)


def test_block_digests_localize_change():
    data = _buf(14, 4 * DEFAULT_BLOCK)
    d1 = block_digests(np.frombuffer(data, dtype=np.uint8))
    mutated = bytearray(data)
    mutated[2 * DEFAULT_BLOCK] ^= 1
    d2 = block_digests(np.frombuffer(bytes(mutated), dtype=np.uint8))
    assert list(d1 != d2) == [False, False, True, False]
    assert content_digest(data) != content_digest(bytes(mutated))


# ---------------------------------------------------------------------------
# BlockStore transactionality.
# ---------------------------------------------------------------------------


def _digests(*vals: int) -> np.ndarray:
    return np.array(vals, dtype=np.uint64)


def test_store_stage_is_invisible_until_commit():
    s = BlockStore()
    s.stage("c", 0, np.array([0, 1]), _digests(10, 20))
    assert s.unique_blocks == 0 and not s.has(10)
    assert s.commit() == 2
    assert s.has(10) and s.has(20) and s.refcount(10) == 1
    assert list(s.slot_digests("c", 0)) == [10, 20]


def test_store_abort_and_begin_round_discard_staged():
    s = BlockStore()
    s.stage("c", 0, np.array([0]), _digests(10))
    s.abort()
    assert s.commit() == 0
    s.stage("c", 0, np.array([0]), _digests(10))
    s.begin_round()
    assert s.commit() == 0 and s.unique_blocks == 0


def test_store_overwrite_decrements_old_digest():
    s = BlockStore()
    s.stage("c", 0, np.array([0, 1]), _digests(10, 20))
    s.commit()
    s.stage("c", 0, np.array([0]), _digests(30))
    s.commit()
    assert not s.has(10) and s.has(20) and s.has(30)
    # shared digest across two slots holds refcount 2 and survives
    # one slot dropping it
    s.stage("c", 1, np.array([0]), _digests(20))
    s.commit()
    assert s.refcount(20) == 2
    s.stage("c", 1, np.array([0]), _digests(40))
    s.commit()
    assert s.refcount(20) == 1


def test_store_rebuild_matches_slot_truth():
    s = BlockStore()
    s.stage("a", 0, np.array([0, 1]), _digests(10, 20))
    s.stage("b", 0, np.array([0]), _digests(20))
    s.commit()
    before = (s.unique_blocks, s.total_refs, s.refcount(20))
    # simulate a torn index: wipe the cache, keep the durable maps
    s._digests = s._digests[:0]
    s._counts = s._counts[:0]
    s.rebuild()
    assert (s.unique_blocks, s.total_refs, s.refcount(20)) == before == (2, 3, 2)


def test_store_drop_chunk_releases_references():
    s = BlockStore()
    s.stage("a", 0, np.array([0]), _digests(10))
    s.stage("b", 0, np.array([0]), _digests(10))
    s.commit()
    s.drop_chunk("a")
    assert s.refcount(10) == 1
    s.drop_chunk("b")
    assert s.unique_blocks == 0
    s.drop_chunk("never-seen")  # no-op, no raise


def test_store_refcount_guards_raise():
    s = BlockStore()
    s.stage("a", 0, np.array([0]), _digests(10))
    s.commit()
    with pytest.raises(CheckpointError):
        s._apply(np.empty(0, np.uint64), _digests(99))  # unknown decref
    with pytest.raises(CheckpointError):
        s._apply(np.empty(0, np.uint64), _digests(10, 10))  # 1 - 2 < 0


def test_store_contains_vectorized():
    s = BlockStore()
    s.stage("a", 0, np.array([0, 1, 2]), _digests(10, 20, 30))
    s.commit()
    hits = s.contains(_digests(20, 99, 10))
    assert list(hits) == [True, False, True]


# ---------------------------------------------------------------------------
# The codec crash matrix (excluded from the default matrix: these
# points only fire when a non-raw codec stages into the block store).
# ---------------------------------------------------------------------------

CODEC_POINTS = [
    "codec.store.commit.before",
    "codec.store.commit.mid",
    "codec.store.commit.done",
]


@pytest.mark.faults
@pytest.mark.parametrize("point_name", CODEC_POINTS)
@pytest.mark.parametrize("codec", ["delta", "dedup", "auto"])
def test_codec_crash_matrix(point_name, codec):
    """Crash inside the block-store commit (clean-before, torn-mid,
    clean-after) under every non-raw codec: recovery must still
    round-trip a legal application state through the survived store."""
    harness = CrashConsistencyHarness(codec=codec)
    plan = FaultPlan(
        [ScriptedFault(point_name, hit=2)], name=f"{codec}@{point_name}"
    )
    result = harness.run(plan)
    assert all(f.consumed for f in plan.faults), (
        f"{codec}@{point_name}: never reached the crash point"
    )
    assert result.crash_point == point_name
    assert result.report is not None and result.report.ok, (
        f"{codec}@{point_name}: {result.report.summary() if result.report else 'no report'}"
    )
    assert result.outcome in CONSISTENT_OUTCOMES, (
        f"{codec}@{point_name}: outcome {result.outcome!r} ({result.detail})"
    )
    assert result.restored


@pytest.mark.faults
def test_codec_points_unreachable_under_raw():
    """The default (raw) harness never stages into a block store, so a
    plan targeting a codec point must simply never fire."""
    harness = CrashConsistencyHarness()  # codec="raw"
    plan = FaultPlan([ScriptedFault("codec.store.commit.mid", hit=1)])
    result = harness.run(plan)
    assert result.crash_point is None
    assert not any(f.consumed for f in plan.faults)


# ---------------------------------------------------------------------------
# Real-payload restart: block-digest verification end to end.
# ---------------------------------------------------------------------------


def _checkpoint_crash_restart(codec: str):
    """Two codec checkpoints over real content, a power loss, and a
    digest-verified restart; returns the RestartReport + checkpointer."""
    engine = Engine()
    ctx = make_standalone_context(name="n0", engine=engine)
    alloc = NVAllocator("r0", ctx.nvmm, ctx.dram, phantom=False, clock=lambda: engine.now)
    ck = LocalCheckpointer(ctx, alloc, PrecopyPolicy(mode="none", codec=codec))
    rng = np.random.default_rng(41)
    a = alloc.nvalloc("a", 64 * 1024)
    a.write(0, rng.integers(0, 255, size=64 * 1024, dtype=np.uint8))
    b = alloc.nvalloc("b", 32 * 1024)
    b.write(0, np.zeros(32 * 1024, dtype=np.uint8))
    p1 = engine.process(ck.checkpoint(blocking=False))
    engine.run()
    a.write(0, rng.integers(0, 255, size=4096, dtype=np.uint8))
    b.write(0, np.zeros(32 * 1024, dtype=np.uint8))
    p2 = engine.process(ck.checkpoint(blocking=False))
    engine.run()
    assert p1.ok and p2.ok
    ctx.nvmm.store.crash()
    ctx.nvmm.crash_process("r0")
    report = RestartManager(ctx).restart_process_sync(
        "r0", block_store=ck.destination.block_store
    )
    return report, ck


@pytest.mark.parametrize("codec", ["delta", "dedup", "auto"])
def test_restart_digest_verification_passes(codec):
    report, ck = _checkpoint_crash_restart(codec)
    assert report.chunks_local == 2 and not report.corrupted_chunks
    assert report.blocks_verified > 0
    assert report.digest_failures == 0
    # both checkpoints committed through the store
    assert ck.destination.block_store.commits == 2


def test_restart_digest_verification_catches_corruption():
    """Flip one committed digest in the store: the restart must treat
    the local version as corrupt and — with no remote replica to fall
    back to — refuse to restore it, rather than silently trusting the
    map."""
    engine = Engine()
    ctx = make_standalone_context(name="n0", engine=engine)
    alloc = NVAllocator("r0", ctx.nvmm, ctx.dram, phantom=False, clock=lambda: engine.now)
    ck = LocalCheckpointer(ctx, alloc, PrecopyPolicy(mode="none", codec="auto"))
    a = alloc.nvalloc("a", 16 * 1024)
    a.write(0, np.random.default_rng(42).integers(0, 255, size=16 * 1024, dtype=np.uint8))
    engine.process(ck.checkpoint(blocking=False))
    engine.run()
    store = ck.destination.block_store
    (key,) = [k for k in store._slots if k[0] == "a"]
    slot_map = store._slots[key]
    nz = np.flatnonzero(slot_map)
    slot_map[nz[0]] ^= np.uint64(1)
    ctx.nvmm.store.crash()
    ctx.nvmm.crash_process("r0")
    with pytest.raises(AllReplicasLost, match="'a'"):
        RestartManager(ctx).restart_process_sync("r0", block_store=store)


def test_unreadable_delta_base_raises_codec_error(monkeypatch):
    """A real chunk whose committed base version cannot be read is a
    corrupt shadow: planning a delta against it must fail loudly,
    naming the chunk and slot, not price every covered byte as
    changed."""
    from repro.errors import PersistenceError

    engine = Engine()
    ctx = make_standalone_context(name="n0", engine=engine)
    alloc = NVAllocator("r0", ctx.nvmm, ctx.dram, phantom=False, clock=lambda: engine.now)
    ck = LocalCheckpointer(ctx, alloc, PrecopyPolicy(mode="none", codec="delta"))
    a = alloc.nvalloc("a", 16 * 1024)
    a.write(0, np.random.default_rng(43).integers(0, 255, size=16 * 1024, dtype=np.uint8))
    assert engine.process(ck.checkpoint(blocking=False)) is not None
    engine.run()
    base_slot = a.committed_version
    assert base_slot >= 0

    store = ctx.nvmm.store
    lost = a.versions[base_slot].region_id
    read = store.read

    def read_losing_base(region_id, offset=0, nbytes=None):
        if region_id == lost:
            raise PersistenceError(f"region {region_id!r} lost")
        return read(region_id, offset, nbytes)

    monkeypatch.setattr(store, "read", read_losing_base)
    a.write(0, np.full(4096, 7, dtype=np.uint8))
    proc = engine.process(ck.checkpoint(blocking=False))
    engine.run()
    assert proc.triggered and not proc.ok
    assert isinstance(proc.exception, CodecError)
    assert "'a'" in str(proc.exception) and f"slot {base_slot}" in str(proc.exception)
