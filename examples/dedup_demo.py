#!/usr/bin/env python3
"""The payload codec layer: delta + content-addressed dedup end to end.

Walks `docs/ARCHITECTURE.md` §16 in four steps:

1. **exact-mode codecs** — encode/decode real byte buffers through
   `DeltaCodec` (XOR runs against a base, wrong base refused loudly)
   and `DedupCodec` (novel blocks ship bytes, resident blocks ship
   references);
2. **codec checkpoints** — two `codec="auto"` checkpoints of real
   content through the normal engine walk: the first ships everything
   (and seeds the digest index), the second re-dirties one page and
   ships a fraction of its dirty evidence, with every per-chunk choice
   announced as a `codec.decision` trace event;
3. **crash + verified restart** — power-loss the node and restart
   through the block store: every restored block is re-digested
   against the committed slot map before the application sees it;
4. **what-if** — none of this requires re-running an app to price:
   `repro-sweep --replay trace.jsonl --sweep codec=raw,auto` models
   codec yield from any captured trace (see
   examples/replay_whatif_demo.py).

Run:  PYTHONPATH=src python examples/dedup_demo.py
"""

import numpy as np

from repro.alloc import NVAllocator
from repro.config import PrecopyPolicy
from repro.core import LocalCheckpointer, RestartManager, make_standalone_context
from repro.core.codec import DEFAULT_BLOCK, BlockStore, DedupCodec, DeltaCodec
from repro.errors import CodecError
from repro.metrics.trace import BUS, CodecDecisionEvent
from repro.sim import Engine
from repro.units import to_MB


def exact_mode_tour() -> None:
    print("== 1. exact-mode codecs ==")
    rng = np.random.default_rng(11)
    base = rng.integers(0, 255, size=64 * 1024, dtype=np.uint8).tobytes()
    data = bytearray(base)
    data[4096:4160] = rng.integers(0, 255, size=64, dtype=np.uint8).tobytes()

    delta = DeltaCodec().encode_bytes(bytes(data), base=base)
    print(
        f"  delta: {delta.logical_bytes} logical B -> {delta.wire_bytes} wire B "
        f"({delta.changed_bytes} B actually changed)"
    )
    assert DeltaCodec().decode_bytes(delta, base=base) == bytes(data)
    try:
        DeltaCodec().decode_bytes(delta, base=base[::-1])
    except CodecError as e:
        print(f"  delta vs wrong base refused: {e}")

    store = BlockStore()
    first = DedupCodec().encode_bytes(bytes(data), store=store)
    again = DedupCodec().encode_bytes(bytes(data), store=store)
    print(
        f"  dedup: first encode {first.blocks_new} new / {first.blocks_ref} ref "
        f"blocks ({first.wire_bytes} wire B); re-encode {again.blocks_new} new / "
        f"{again.blocks_ref} ref ({again.wire_bytes} wire B)"
    )
    assert DedupCodec().decode_bytes(again, store=store) == bytes(data)


def codec_checkpoints():
    print("\n== 2. auto-codec checkpoints over real content ==")
    decisions: list[CodecDecisionEvent] = []
    sink = BUS.subscribe(decisions.append, kinds=["codec.decision"])
    engine = Engine()
    ctx = make_standalone_context(name="n0", engine=engine)
    alloc = NVAllocator("r0", ctx.nvmm, ctx.dram, phantom=False, clock=lambda: engine.now)
    ck = LocalCheckpointer(ctx, alloc, PrecopyPolicy(mode="none", codec="auto"))
    rng = np.random.default_rng(7)

    a = alloc.nvalloc("a", 256 * 1024)  # incompressible
    a.write(0, rng.integers(0, 255, size=256 * 1024, dtype=np.uint8))
    b = alloc.nvalloc("b", 128 * 1024)  # self-similar: all zero blocks
    b.write(0, np.zeros(128 * 1024, dtype=np.uint8))

    engine.process(ck.checkpoint(blocking=False))
    engine.run()
    print(
        f"  ckpt 1: {to_MB(ck.codec.logical_bytes):.2f} MB dirty -> "
        f"{to_MB(ck.codec.wire_bytes):.2f} MB wire "
        f"(store holds {ck.destination.block_store.unique_blocks} unique blocks)"
    )

    # one re-dirtied page on `a`, `b` rewritten with identical zeros
    a.write(0, rng.integers(0, 255, size=DEFAULT_BLOCK, dtype=np.uint8))
    b.write(0, np.zeros(128 * 1024, dtype=np.uint8))
    engine.process(ck.checkpoint(blocking=False))
    engine.run()
    print(
        f"  ckpt 2: {to_MB(ck.codec.logical_bytes):.2f} MB dirty -> "
        f"{to_MB(ck.codec.wire_bytes):.2f} MB wire cumulative "
        f"({to_MB(ck.codec.saved_bytes):.2f} MB kept off the wire)"
    )
    for ev in decisions:
        print(
            f"    codec.decision {ev.chunk!r}: chose {ev.chosen} "
            f"(raw {ev.raw_bytes} / delta {ev.delta_bytes} / dedup {ev.dedup_bytes} B)"
        )
    BUS.unsubscribe(sink)
    return engine, ctx, ck


def verified_restart(engine, ctx, ck) -> None:
    print("\n== 3. crash + digest-verified restart ==")
    ctx.nvmm.store.crash()
    ctx.nvmm.crash_process("r0")
    report = RestartManager(ctx).restart_process_sync(
        "r0", block_store=ck.destination.block_store
    )
    print(
        f"  restored {report.chunks_local} chunks, verified "
        f"{report.blocks_verified} content blocks against the committed "
        f"digest maps, {report.digest_failures} mismatches"
    )
    assert report.digest_failures == 0


def main() -> None:
    exact_mode_tour()
    verified_restart(*codec_checkpoints())
    print("\n(see `repro-sweep --replay ... --sweep codec=...` and "
          "`python -m repro.tools.bench --dedup-smoke` for the modelled "
          "and CI-sized versions of the same story)")


if __name__ == "__main__":
    main()
