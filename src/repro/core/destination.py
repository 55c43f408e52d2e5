"""Checkpoint destination backends: where checkpoint bytes land.

A :class:`Destination` answers the mechanism half of the pipeline the
policies (:mod:`repro.core.policy`) schedule: how a chunk's payload
moves (one ``write`` of the wire bytes the copy step computed — see
:mod:`repro.core.copystep`), how staged data becomes the recoverable version
(``stage`` / ``commit``), what ordering barriers cost (``flush``), how
committed payloads come back at restart (``read``), and how much room
is left (``capacity``).  One :class:`~repro.core.engine.CheckpointEngine`
drives any destination through the same walk/flush/commit sequence:

* :class:`NVMArenaDestination` — the paper's two-version NVM shadow
  arena (the default);
* :class:`PfsDestination` — the parallel-file-system baseline (shared
  global I/O resource, no shadow versions);
* :class:`RamdiskDestination` — the tmpfs baseline of Table V (DRAM
  path cost model, no shadow versions);
* :class:`RemoteBuddyDestination` — the buddy node's remote arena, as
  used by the remote helper; its write is the helper's one fabric
  delivery.  Local+remote multilevel checkpointing is the *composition*
  of two destinations, not a special-cased helper.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Tuple

import numpy as np

from ..alloc.chunk import Chunk, batch_commit
from ..alloc.nvmalloc import NVAllocator
from ..errors import CheckpointError
from .codec import DEFAULT_BLOCK, BlockStore, Payload, blocks_of_extents
from .context import NodeContext

__all__ = [
    "Destination",
    "NVMArenaDestination",
    "PfsDestination",
    "RamdiskDestination",
    "RemoteBuddyDestination",
    "validate_extents",
]


def validate_extents(chunk: Chunk, extents: List[Tuple[int, int]]) -> None:
    """Shared range-write contract: every backend rejects out-of-range,
    overlapping or unsorted extents with the *same* error, so callers
    can switch destinations without re-learning edge behaviour."""
    prev_end = 0
    for off, n in extents:
        if n < 0 or off < 0 or off + n > chunk.nbytes:
            raise CheckpointError(
                f"extent [{off}, {off + n}) outside chunk "
                f"{chunk.name!r} ({chunk.nbytes} bytes)"
            )
        if off < prev_end:
            raise CheckpointError(
                f"overlapping or unsorted extent at offset {off} "
                f"in chunk {chunk.name!r}"
            )
        prev_end = off + n


class Destination:
    """Backend protocol for one checkpoint target.

    ``write`` is the data plane: a generator the copy step drives
    with ``yield from``; ``stage``/``commit``/``persist_metadata`` are
    control-plane state flips (instantaneous — their cost is the
    ``flush`` barriers the engine charges around them).
    """

    #: short backend name, used in trace events and stats
    name: str = ""
    #: whether this backend keeps two shadow versions needing an
    #: explicit stage+commit flip (False for flat baselines)
    two_version: bool = True
    #: content-addressed digest index, attached when a payload codec is
    #: configured (``None`` on the raw path — zero overhead)
    block_store: Optional[BlockStore] = None

    def write(self, chunk: Chunk, nbytes: int, *, tag: str = ""):
        """Generator: move *nbytes* of *chunk*'s payload over this
        backend's transport — the whole chunk, its stale extents or an
        encoded payload's wire size, as the copy step computed.  *tag*
        labels the traffic.  The content itself lands in :meth:`stage`:
        extents and codecs change the unit of transfer, not the
        recoverable representation."""
        raise NotImplementedError

    def ensure_block_store(self, block: int = DEFAULT_BLOCK) -> BlockStore:
        """Attach (idempotently) the content-addressed block store a
        payload codec plans against."""
        if self.block_store is None or self.block_store.block != block:
            self.block_store = BlockStore(block=block)
        return self.block_store

    def codec_slots(self, chunk: Chunk) -> Tuple[int, int]:
        """``(write_slot, delta_base_slot)`` for this backend's digest
        maps.  Flat single-version backends overwrite slot 0 and delta
        against the previous checkpoint's content in that same slot."""
        return (0, 0)

    def pending_extents(self, chunk: Chunk) -> List[Tuple[int, int]]:
        """The coalesced stale extents an incremental copy of *chunk*
        to this destination must move (for the version slot this
        backend writes next)."""
        return chunk.copy_extents("local")

    def stage(self, chunk: Chunk, extents: Optional[List[Tuple[int, int]]] = None) -> None:
        """Record the just-written payload as this chunk's in-progress
        version.  With *extents*, only those byte runs are staged
        (page-granular mode).  Single-version backends keep no shadow
        version; they only clear the copied extents' stale bits."""
        if extents is not None:
            chunk.mark_extents_copied("local", extents)

    def staged_blocks(self, chunk: Chunk, payload: Payload):
        """Block indices whose digests describe what :meth:`stage` just
        wrote for *payload*: the payload's own coverage."""
        return payload.block_index

    def flush(self) -> float:
        """Issue a persistence barrier; returns its simulated cost."""
        return 0.0

    def commit(
        self,
        chunks: Iterable[Chunk],
        *,
        with_checksum: bool = True,
        on_commit: Optional[Callable[[Chunk], None]] = None,
    ) -> float:
        """Flip every staged chunk's committed pointer (no-op for
        single-version backends).  Returns the simulated cost of any
        barriers the backend *bundles into* its commit (0.0 for
        backends whose barriers the engine charges via :meth:`flush`)."""
        return 0.0

    def persist_metadata(self) -> None:
        """Write the recovery metadata (chunk table, committed map)."""

    def read(self, chunk_name: str) -> np.ndarray:
        """The committed payload of *chunk_name* (restart path)."""
        raise NotImplementedError

    def capacity(self) -> float:
        """Bytes still available at this destination (``inf`` when the
        backend does not model capacity)."""
        return float("inf")

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class NVMArenaDestination(Destination):
    """The local NVM shadow arena: DRAM→NVM through the node's shared
    NVM bus, two-version commit, allocator metadata persistence."""

    name = "nvm"
    two_version = True

    def __init__(self, ctx: NodeContext, allocator: NVAllocator) -> None:
        self.ctx = ctx
        self.allocator = allocator

    def write(self, chunk: Chunk, nbytes: int, *, tag: str = ""):
        yield self.ctx.copy_to_nvm(nbytes, tag=tag)

    def codec_slots(self, chunk: Chunk) -> Tuple[int, int]:
        return (chunk.inprogress_index(), chunk.committed_version)

    def stage(self, chunk: Chunk, extents: Optional[List[Tuple[int, int]]] = None) -> None:
        chunk.stage_to_nvm(extents)

    def flush(self) -> float:
        return self.ctx.nvmm.cache_flush()

    def commit(
        self,
        chunks: Iterable[Chunk],
        *,
        with_checksum: bool = True,
        on_commit: Optional[Callable[[Chunk], None]] = None,
    ) -> float:
        batch_commit(list(chunks), with_checksum=with_checksum, on_commit=on_commit)
        return 0.0

    def persist_metadata(self) -> None:
        self.allocator._persist_metadata()

    def read(self, chunk_name: str) -> np.ndarray:
        chunk = self.allocator.chunk(chunk_name)
        region = chunk.committed_region()
        return region.read(0, chunk.nbytes)

    def capacity(self) -> float:
        return float(self.ctx.nvm.free)


class PfsDestination(Destination):
    """The PFS baseline: every rank's coordinated step funnels through
    one globally shared I/O resource; no shadow versions on the node
    (the engine still runs its flush barriers — metadata and caches are
    persisted locally even when the data goes to the PFS)."""

    name = "pfs"
    two_version = False

    def __init__(self, pfs, rank: str, ctx: NodeContext, allocator: NVAllocator) -> None:
        self.pfs = pfs
        self.rank = rank
        self.ctx = ctx
        self.allocator = allocator

    def write(self, chunk: Chunk, nbytes: int, *, tag: str = ""):
        # the PFS resource's accounting keys off the rank tag, not the
        # engine's step tag
        yield self.pfs.write(nbytes, tag=f"{self.rank}:pfsckpt")

    def flush(self) -> float:
        return self.ctx.nvmm.cache_flush()

    def persist_metadata(self) -> None:
        self.allocator._persist_metadata()

    def read(self, chunk_name: str) -> np.ndarray:
        raise CheckpointError(
            f"PFS baseline does not model restart reads (chunk {chunk_name!r})"
        )


class RamdiskDestination(Destination):
    """The tmpfs baseline: checkpoint writes priced by the DRAM path
    cost model (:class:`repro.baselines.ramdisk.RamdiskPathModel`); no
    persistence barriers, no shadow versions, DRAM-bounded capacity."""

    name = "ramdisk"
    two_version = False

    def __init__(self, ctx: NodeContext, model, *, writers: int = 1) -> None:
        self.ctx = ctx
        self.model = model
        self.writers = writers
        self._written: dict = {}

    def write(self, chunk: Chunk, nbytes: int, *, tag: str = ""):
        cost = self.model.checkpoint_time(nbytes, writers=self.writers)
        # the file keeps its full logical size; only the write shrinks
        self._written[chunk.name] = chunk.nbytes
        yield self.ctx.engine.timeout(cost)

    def read(self, chunk_name: str) -> np.ndarray:
        if chunk_name not in self._written:
            raise CheckpointError(f"no ramdisk copy of chunk {chunk_name!r}")
        return np.zeros(self._written[chunk_name], dtype=np.uint8)

    def capacity(self) -> float:
        return float(self.ctx.dram.free)


class RemoteBuddyDestination(Destination):
    """The buddy node's remote arena, wrapping one
    :class:`~repro.core.remote.RemoteTarget` on node *buddy_id*.
    ``write`` is the owning :class:`~repro.core.remote.RemoteHelper`'s
    one fabric delivery (:meth:`~repro.core.remote.RemoteHelper.send`),
    addressed to this destination's buddy node — the helper's current
    pairing, or a migration's staging buddy;
    ``stage``/``commit``/``read`` are the target's own two-version
    protocol on the buddy's NVM."""

    name = "buddy"
    two_version = True

    def __init__(self, target, helper, buddy_id: int) -> None:
        self.target = target
        self.helper = helper
        self.buddy_id = buddy_id

    def retarget(self, target, buddy_id: int) -> None:
        """Point at a new buddy's :class:`RemoteTarget` after failover."""
        self.target = target
        self.buddy_id = buddy_id

    @property
    def block_store(self) -> Optional[BlockStore]:  # type: ignore[override]
        # the digest index lives with the buddy's arena, so a failover
        # to a fresh target starts from an empty (honest) index
        return getattr(self.target, "block_store", None)

    def ensure_block_store(self, block: int = DEFAULT_BLOCK) -> BlockStore:
        return self.target.ensure_block_store(block)

    def codec_slots(self, chunk: Chunk) -> Tuple[int, int]:
        self.target.ensure_chunk(chunk)
        return self.target.codec_slots(chunk.name)

    def write(self, chunk: Chunk, nbytes: int, *, tag: str = ""):
        # *tag* names the traffic kind of the helper's send
        return self.helper.send(self, chunk, nbytes, kind=tag)

    def pending_extents(self, chunk: Chunk) -> List[Tuple[int, int]]:
        # ensure_chunk creates the buddy regions *and* the chunk's
        # remote stale map before the slot is consulted
        self.target.ensure_chunk(chunk)
        return chunk.copy_extents(
            "remote", slot=self.target._inprogress(chunk.name)
        )

    def stage(self, chunk: Chunk, extents: Optional[List[Tuple[int, int]]] = None) -> None:
        self.target.stage(chunk, extents)

    def staged_blocks(self, chunk: Chunk, payload: Payload):
        # staging re-reads the remote stale map, so the runs it actually
        # wrote (not the pre-transfer plan) define the digest coverage
        return blocks_of_extents(
            self.target.last_staged_runs, self.block_store.block, chunk.nbytes
        )

    def flush(self) -> float:
        return self.target.dst_ctx.nvmm.cache_flush()

    def commit(
        self,
        chunks: Iterable[Chunk],
        *,
        with_checksum: bool = True,
        on_commit: Optional[Callable[[Chunk], None]] = None,
    ) -> float:
        # RemoteTarget.commit covers everything staged since the last
        # commit, bundling its own flush barriers + metadata put; the
        # returned cost is the caller's to charge.
        return self.target.commit()

    def persist_metadata(self) -> None:
        """Metadata is persisted inside :meth:`RemoteTarget.commit`."""

    def read(self, chunk_name: str) -> np.ndarray:
        return self.target.fetch(chunk_name)

    def capacity(self) -> float:
        return float(self.target.dst_ctx.nvm.free)
