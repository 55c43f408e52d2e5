"""The one chunk-copy step (§IV/§V) and the payload codec it plans with.

The paper has one copy primitive: a chunk's payload moves into a shadow
version — DRAM→NVM by the rank (CPC/DCPC/DCPCP pre-copy and the
coordinated step) or committed NVM→buddy by the node's helper (remote
stream and round).  Every ``chunk.copied`` emitter drives
:func:`copy_chunk` with ``yield from``; its order is fixed:

1. the extents to move (``dest.pending_extents`` in page-granular mode,
   the whole chunk otherwise), validated once;
2. the codec's payload plan (what actually crosses the wire);
3. one :meth:`~repro.core.destination.Destination.write` of the wire
   bytes;
4. ``dest.stage`` — unless the caller reports the write did not land
   (a pre-copy torn by an application write);
5. codec accounting, then the digests of what was staged;
6. the ``chunk.copied`` trace event.

What stays with each caller: the chunk's copy state and the torn-copy
check (pre-copy), the commit (coordinated step and round), and CPU
charging, pacing and requeue-versus-abort (helper).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from ..alloc.chunk import Chunk
from ..metrics.trace import BUS, ChunkCopiedEvent, CodecDecisionEvent
from ..sim.engine import Engine
from ..units import pages_of
from .codec import EntropyProbe, Payload, current_digests, resolve_codec
from .destination import Destination, validate_extents

__all__ = ["PayloadCodec", "copy_chunk"]


class PayloadCodec:
    """One actor's payload codec: plans each copy's wire payload
    against the destination's digest index, accounts the wire volume,
    and publishes the digests of what was staged.  Shared by the local
    :class:`~repro.core.engine.CheckpointEngine` (and its pre-copy
    engine) and the :class:`~repro.core.remote.RemoteHelper`."""

    def __init__(self, name: str, *, actor: str, engine: Engine) -> None:
        self.codec = resolve_codec(name)
        self.name = self.codec.name
        self.actor = actor
        self.engine = engine
        self.probe = EntropyProbe()
        self.logical_bytes = 0
        self.wire_bytes = 0
        self.delta_bytes = 0
        self.blocks_new = 0
        self.blocks_ref = 0

    def plan(self, chunk: Chunk, extents, dest: Destination) -> Payload:
        """What crosses the wire for *chunk*'s *extents*; emits the
        ``codec.decision`` trace event when the auto codec chose."""
        slot, base_slot = dest.codec_slots(chunk)
        payload = self.codec.plan(
            chunk,
            extents,
            store=dest.block_store,
            slot=slot,
            base_slot=base_slot,
            probe=self.probe,
        )
        payload.slot = slot
        if payload.candidates is not None and BUS.active:
            BUS.emit(
                CodecDecisionEvent(
                    t=self.engine.now,
                    actor=self.actor,
                    chunk=chunk.name,
                    chosen=payload.codec,
                    raw_bytes=payload.candidates.get("raw", 0),
                    delta_bytes=payload.candidates.get("delta", 0),
                    dedup_bytes=payload.candidates.get("dedup", 0),
                    entropy=payload.entropy,
                    density=payload.density,
                )
            )
        return payload

    def account(self, payload: Payload) -> None:
        """Wire accounting for a payload whose bytes moved (counted
        even for torn pre-copies, exactly like raw byte accounting)."""
        self.logical_bytes += payload.logical_bytes
        self.wire_bytes += payload.wire_bytes
        if payload.kind == "delta":
            self.delta_bytes += payload.changed_bytes
        self.blocks_new += payload.blocks_new
        self.blocks_ref += payload.blocks_ref

    def publish(self, chunk: Chunk, payload: Payload, dest: Destination) -> None:
        """Stage the digests of the blocks *dest* just staged into its
        store (refcounted at the next commit).  Digests are re-derived
        from the chunk now: writes that raced the transfer landed in
        the staged version too, and the index must describe it."""
        store = dest.block_store
        if store is None or payload.block_index is None:
            return
        idx = dest.staged_blocks(chunk, payload)
        if len(idx):
            store.stage(
                chunk.name, payload.slot, idx, current_digests(chunk, idx, store.block)
            )

    @property
    def saved_bytes(self) -> int:
        """Bytes the codec kept off the wire (on top of the
        incremental-extent savings)."""
        return max(0, self.logical_bytes - self.wire_bytes)


def copy_chunk(
    engine: Engine,
    chunk: Chunk,
    dest: Destination,
    codec: Optional[PayloadCodec],
    *,
    incremental: bool,
    tag: str,
    labels: dict,
    before_write: Optional[Callable[[int], None]] = None,
    after_write: Optional[Callable[[Chunk], bool]] = None,
):
    """Generator: move *chunk* to *dest* (``yield from`` it).

    *labels* are the ``chunk.copied`` event's caller fields (actor,
    stream, phase, and optionally destination and tenant).
    *before_write* receives the wire bytes just before the write;
    *after_write* receives the chunk right after it and returns whether
    the payload landed and may be staged.  A transfer error from the write
    propagates before anything is staged or accounted.  Returns
    ``(wire_bytes, logical_bytes)``."""
    start = engine.now
    extents: Optional[List[Tuple[int, int]]] = (
        dest.pending_extents(chunk) if incremental else None
    )
    if extents is None:
        logical = chunk.nbytes
        pages = pages_of(chunk.nbytes)
    else:
        validate_extents(chunk, extents)
        logical = sum(n for _, n in extents)
        pages = sum(pages_of(n) for _, n in extents)
    payload = codec.plan(chunk, extents, dest) if codec is not None else None
    wire = logical if payload is None else payload.wire_bytes
    if before_write is not None:
        before_write(wire)
    yield from dest.write(chunk, wire, tag=tag)
    landed = after_write(chunk) if after_write is not None else True
    if landed:
        dest.stage(chunk, extents)
    if payload is not None:
        codec.account(payload)
        if landed:
            codec.publish(chunk, payload, dest)
    if BUS.active:
        BUS.emit(
            ChunkCopiedEvent(
                t=engine.now,
                chunk=chunk.name,
                nbytes=wire,
                start=start,
                pages=pages,
                bytes_saved=chunk.nbytes - logical,
                codec=payload.codec if payload is not None else "raw",
                logical_bytes=logical,
                **labels,
            )
        )
    return wire, logical
