"""Remote (buddy-node) checkpointing: the per-node asynchronous helper
process with chunk-granular remote pre-copy (§IV/§V).

Design, following the paper:

* one **helper process per physical node** owns all remote-checkpoint
  work for the node's ranks, reading their chunk state through the
  shared-NVM interface and the per-NVM-page ``nvdirty`` bits the kernel
  patch adds (so it never takes protection faults);
* with **remote pre-copy**, the helper continuously *streams* chunks
  whose local checkpoint version changed since they were last sent —
  a coalescing work queue fed by local-checkpoint commits, drained at a
  **paced** rate of roughly one full checkpoint per remote interval.
  Reading committed NVM versions means streamed data is always
  consistent (no torn copies), re-commits of a still-queued chunk
  coalesce into one send, and pacing spreads the transfers across the
  whole timeline — the flat pre-copy profile and ~46% lower peak
  interconnect usage of Fig. 10;
* the coordinated **remote round** (every ``remote_interval``) drains
  whatever is still queued and commits the buddy-side versions — only
  the leftovers move at round time;
* the **asynchronous no-pre-copy baseline** skips the stream and pushes
  every rank's whole checkpoint at each round: still overlapped with
  compute, but the burst contends with application communication (the
  communication noise Fig. 9 quantifies);
* the buddy keeps **two versions** per chunk with its own committed
  pointers, so a crash mid-round never corrupts the recovery copy;
* helper CPU is charged per byte (plus dirty-tracking overhead on the
  streamed path), reproducing Table V's utilization numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..alloc.chunk import Chunk
from ..alloc.nvmalloc import NVAllocator
from ..config import CheckpointConfig
from ..errors import (
    AllocationError,
    CheckpointError,
    ConfigError,
    TransferCancelled,
    TransferFailed,
)
from ..faults.crashpoints import fire
from ..metrics import timeline as tl
from ..metrics.timeline import Timeline
from ..metrics.trace import BUS, FailoverEvent, PolicyDecisionEvent
from ..net.interconnect import Fabric
from ..net.rdma import rdma_put
from ..sim.events import Event
from ..units import usec
from .codec import DEFAULT_BLOCK, BlockStore
from .context import NodeContext
from .copystep import PayloadCodec, copy_chunk
from .destination import RemoteBuddyDestination

__all__ = ["RemoteTarget", "RemoteHelper", "RemoteCheckpointStats"]

#: helper CPU seconds per byte moved (RDMA descriptor setup, chunk
#: metadata handling); calibrated so a ~40 MB/s no-pre-copy stream
#: costs ~13% of a core (Table V).
HELPER_CPU_PER_BYTE = 3.5e-9
#: extra helper CPU per *streamed* byte: nvdirty queries, queue and
#: version bookkeeping.  Together with the stream's slightly larger
#: volume this doubles helper utilization (Table V's ~2x).
TRACKING_CPU_PER_BYTE = 3.0e-9
#: fixed helper cost per chunk transfer.
PER_CHUNK_CPU = usec(20.0)
#: stream pacing headroom: the stream aims to move `pace_factor` full
#: checkpoints per remote interval, so it finishes slightly early and
#: the round only carries stragglers.
PACE_FACTOR = 1.3


@dataclass
class RemoteCheckpointStats:
    """One coordinated remote round."""

    start: float = 0.0
    end: float = 0.0
    bytes_moved: int = 0
    chunks_moved: int = 0
    chunks_skipped: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class RemoteTarget:
    """One source rank's remote chunk copies, living on the buddy
    node's NVM with independent two-version commit state."""

    def __init__(self, src_pid: str, dst_ctx: NodeContext, two_versions: bool = True) -> None:
        self.src_pid = src_pid
        self.dst_ctx = dst_ctx
        self.pid = f"rmt:{src_pid}"
        self.n_versions = 2 if two_versions else 1
        #: chunk name -> committed version index (-1 = none)
        self.committed: Dict[str, int] = {}
        #: chunk name -> size, for restart sizing
        self.sizes: Dict[str, int] = {}
        self._staged: Dict[str, int] = {}
        #: chunk name -> payload crc32 of the *committed* copy (None for
        #: phantom chunks — their zeros are not a real payload).  Lets
        #: the scrubber detect a corrupted buddy copy before trusting it.
        self.checksums: Dict[str, Optional[int]] = {}
        self._staged_crc: Dict[str, Optional[int]] = {}
        #: the byte runs the most recent :meth:`stage` actually wrote
        #: (``None`` = whole chunk).  Staging re-reads the stale map, so
        #: raced writes land too; the codec publish path derives the
        #: digest coverage from this, not from its pre-transfer plan.
        self.last_staged_runs: Optional[List[Tuple[int, int]]] = None
        #: content-addressed digest index over the buddy-side versions
        #: (one store per target, so same-named chunks of different
        #: source ranks can never alias).  None until a codec asks.
        self.block_store: Optional[BlockStore] = None

    def ensure_block_store(self, block: int = DEFAULT_BLOCK) -> BlockStore:
        if self.block_store is None or self.block_store.block != block:
            self.block_store = BlockStore(block=block)
        return self.block_store

    def codec_slots(self, chunk_name: str) -> Tuple[int, int]:
        """(in-progress slot, committed base slot) for codec planning."""
        return self._inprogress(chunk_name), self.committed.get(chunk_name, -1)

    # -- region plumbing ------------------------------------------------------

    def _region_name(self, chunk_name: str, version: int) -> str:
        return f"{chunk_name}#v{version}"

    def ensure_chunk(self, chunk: Chunk) -> None:
        """Create (or grow) the remote regions mirroring *chunk*."""
        nvmm = self.dst_ctx.nvmm
        for v in range(self.n_versions):
            rname = self._region_name(chunk.name, v)
            try:
                region = nvmm.region(self.pid, rname)
            except AllocationError:  # not mapped yet
                nvmm.nvmmap(self.pid, rname, chunk.nbytes, phantom=chunk.phantom)
                continue
            if region.nbytes != chunk.nbytes:
                nvmm.nvmrealloc(self.pid, rname, chunk.nbytes)
        chunk.ensure_remote_slots(self.n_versions)
        if chunk.name not in self.committed:
            # first contact with this target (fresh pairing or a
            # post-failover replacement): its regions hold nothing, so
            # any remote stale-map state from an earlier buddy is void
            chunk.mark_all_stale("remote")
            self.committed[chunk.name] = -1
        self.sizes[chunk.name] = chunk.nbytes

    def _inprogress(self, chunk_name: str) -> int:
        cur = self.committed.get(chunk_name, -1)
        if self.n_versions <= 1:
            return 0
        return 1 - cur if cur >= 0 else 0

    def stage(self, chunk: Chunk, extents: Optional[List[Tuple[int, int]]] = None) -> int:
        """Write the chunk's current payload into the in-progress
        remote version (data plane of one RDMA put).

        With *extents* (page-granular mode) the definitive run list is
        re-read from the chunk's remote stale map at stage time: writes
        that raced the fabric transfer must land too, or the staged
        version would not match the DRAM state its checksum records.
        """
        self.ensure_chunk(chunk)
        v = self._inprogress(chunk.name)
        region = self.dst_ctx.nvmm.region(self.pid, self._region_name(chunk.name, v))
        if extents is None:
            if chunk.phantom:
                region.write_phantom(0, chunk.nbytes)
            else:
                assert chunk.dram is not None
                region.write(0, chunk.dram)
            moved = chunk.nbytes
            chunk.mark_extents_copied("remote", None, slot=v)
            self.last_staged_runs = None
        else:
            runs = chunk.copy_extents("remote", slot=v)
            moved = 0
            for off, n in runs:
                if chunk.phantom:
                    region.write_phantom(off, n)
                else:
                    assert chunk.dram is not None
                    region.write(off, chunk.dram[off : off + n])
                moved += n
            chunk.mark_extents_copied("remote", runs, slot=v)
            self.last_staged_runs = runs
        chunk.bytes_copied_remote += moved
        self._staged[chunk.name] = v
        self._staged_crc[chunk.name] = (
            None if chunk.phantom else chunk.payload_checksum()
        )
        return moved

    def commit(self) -> float:
        """Commit all staged chunks: flush the buddy store, flip the
        committed pointers, persist them.  Returns the flush cost."""
        cost = self.dst_ctx.nvmm.cache_flush()
        fire("remote.commit.before_flip", target=self, pid=self.src_pid)
        for name, v in self._staged.items():
            self.committed[name] = v
            self.checksums[name] = self._staged_crc.get(name)
        self._staged.clear()
        self._staged_crc.clear()
        if self.block_store is not None:
            # the digest index commits with the versions it describes:
            # after the pointer flip, before the metadata flush
            self.block_store.commit()
        fire("remote.commit.before_meta", target=self, pid=self.src_pid)
        self.dst_ctx.nvmm.store.put_meta(
            f"remote/proc:{self.src_pid}",
            {
                "committed": dict(self.committed),
                "sizes": dict(self.sizes),
                "checksums": dict(self.checksums),
            },
        )
        cost += self.dst_ctx.nvmm.cache_flush()
        fire(
            "remote.commit.done",
            target=self,
            pid=self.src_pid,
            store=self.dst_ctx.nvmm.store,
        )
        return cost

    # -- restart fetch ----------------------------------------------------------

    def committed_chunks(self) -> List[str]:
        return sorted(n for n, v in self.committed.items() if v >= 0)

    def fetch(self, chunk_name: str, offset: int = 0, nbytes: Optional[int] = None):
        """The committed remote payload of *chunk_name* (numpy uint8,
        zeros for phantom regions).  *offset*/*nbytes* select a byte
        range for extent-granular restart fetches (default: all)."""
        v = self.committed.get(chunk_name, -1)
        if v < 0:
            raise CheckpointError(
                f"no committed remote version of chunk {chunk_name!r} for {self.src_pid!r}"
            )
        region = self.dst_ctx.nvmm.region(self.pid, self._region_name(chunk_name, v))
        if nbytes is None:
            nbytes = region.nbytes - offset
        return region.read(offset, nbytes)

    def verify(self, chunk_name: str) -> bool:
        """Does the committed buddy copy still match its recorded
        checksum?  True when no checksum was recorded (phantom chunks,
        pre-checksum metadata)."""
        import zlib

        v = self.committed.get(chunk_name, -1)
        if v < 0:
            return False
        expect = self.checksums.get(chunk_name)
        if expect is None:
            return True
        region = self.dst_ctx.nvmm.region(self.pid, self._region_name(chunk_name, v))
        payload = region.read(0, region.nbytes)
        return (zlib.crc32(payload) & 0xFFFFFFFF) == expect

    @classmethod
    def reattach(cls, src_pid: str, dst_ctx: NodeContext, two_versions: bool = True) -> "RemoteTarget":
        """Rebuild a target from the buddy's persisted metadata (used
        when the *source* node died and restart must fetch)."""
        target = cls(src_pid, dst_ctx, two_versions=two_versions)
        meta = dst_ctx.nvmm.store.get_meta(f"remote/proc:{src_pid}", None)
        if meta is None:
            raise CheckpointError(f"buddy holds no remote checkpoint for {src_pid!r}")
        target.committed = {k: int(v) for k, v in meta["committed"].items()}
        target.sizes = {k: int(v) for k, v in meta["sizes"].items()}
        target.checksums = {
            k: (None if v is None else int(v))
            for k, v in meta.get("checksums", {}).items()
        }
        dst_ctx.nvmm.load_process(target.pid)
        return target


class RemoteHelper:
    """The per-node asynchronous remote-checkpoint process."""

    def __init__(
        self,
        node_id: int,
        ctx: NodeContext,
        fabric: Fabric,
        buddy_id: int,
        buddy_ctx: NodeContext,
        ranks: List[NVAllocator],
        config: Optional[CheckpointConfig] = None,
        *,
        timeline: Optional[Timeline] = None,
        compression=None,
        resilience=None,
        tenants: Optional[Dict[str, str]] = None,
    ) -> None:
        self.node_id = node_id
        self.ctx = ctx
        self.fabric = fabric
        self.buddy_id = buddy_id
        self.ranks = ranks
        self.config = config or CheckpointConfig()
        self.timeline = timeline
        #: optional CompressionModel: payloads are compressed before
        #: crossing the fabric (mcrengine-style volume/CPU trade)
        self.compression = compression
        #: optional ResilientTransport: sends go through retry/backoff
        #: instead of one-shot RDMA (duck-typed to avoid an import
        #: cycle with repro.resilience)
        self.resilience = resilience
        #: rank pid -> owning tenant; stamps the helper's chunk.copied
        #: events so remote traffic is attributable in multi-tenant runs
        self.tenants: Dict[str, str] = dict(tenants or {})
        self.owner = f"n{node_id}:helper"
        self.targets = self.new_targets(buddy_ctx)
        #: per-rank Destination view of the buddy arena: every send,
        #: stage, commit and read goes through the same backend protocol
        #: as the local tiers (multilevel checkpointing = local
        #: destination + this one)
        self.destinations: Dict[str, RemoteBuddyDestination] = {
            pid: RemoteBuddyDestination(target, self, buddy_id)
            for pid, target in self.targets.items()
        }
        #: payload codec on the fabric path (None on the raw default).
        #: A codec *and* a compression model both want to own the wire
        #: volume — that combination used to be silently resolved in
        #: favour of compression, hiding the dropped codec from the
        #: operator; it is now an explicit configuration error.
        if compression is not None and self.config.precopy.codec_enabled:
            raise ConfigError(
                f"codec {self.config.precopy.codec!r} cannot be combined with a "
                "compression model on the remote stream: both define the wire "
                "volume; set precopy.codec='raw' or drop the compression model"
            )
        self.codec = (
            PayloadCodec(self.config.precopy.codec, actor=self.owner, engine=ctx.engine)
            if self.config.precopy.codec_enabled
            else None
        )
        # incremental sends are still *auto*-disabled under compression
        # (whole-chunk wire volume is the compressor's business), but the
        # drop is now visible to replay/what-if as a policy decision
        if compression is not None and self.config.precopy.incremental and BUS.active:
            BUS.emit(
                PolicyDecisionEvent(
                    t=ctx.engine.now,
                    actor=self.owner,
                    chunk="*",
                    decision="incremental_disabled",
                    policy="compression",
                )
            )
        if self.codec is not None:
            for dest in self.destinations.values():
                dest.ensure_block_store(self.config.precopy.codec_block)
        self.history: List[RemoteCheckpointStats] = []
        self.rounds_behind = 0
        self._stop = False
        self._paused = False
        #: pairing generation: bumped by :meth:`retarget` so in-flight
        #: re-sync tasks for the old buddy can detect they are stale
        self.epoch = 0
        self._round_in_progress = False
        #: coalescing stream queue: (pid, chunk_id) -> Chunk, FIFO
        self._queue: Dict[Tuple[str, int], Chunk] = {}
        self._wake: Optional[Event] = None
        self.stream_bytes = 0
        self.stream_chunks = 0
        # -- replication bookkeeping (incremental failover/migration) --
        #: (pid, chunk_id) -> commit generation; bumped every time a
        #: local commit (re-)queues the chunk, so a buddy's copy is
        #: provably current iff its recorded generation matches.
        self._dirty_epoch: Dict[Tuple[str, int], int] = {}
        #: buddy node id -> {(pid, chunk_id) -> generation sent}; which
        #: content each buddy (past or present) actually holds.
        self._replicated: Dict[int, Dict[Tuple[str, int], int]] = {}
        #: buddy node id -> its RemoteTarget map from when it was (or is
        #: being prepared as) a pairing; valid for reuse only while the
        #: buddy's context is unchanged (hardware replacement voids it).
        self._known_targets: Dict[int, Dict[str, RemoteTarget]] = {}

    @property
    def incremental(self) -> bool:
        """Page-granular remote sends: on when the policy asks for it
        and no compression model is attached (compressed sends are
        whole-chunk — the wire volume is the compressor's business)."""
        return self.config.precopy.incremental and self.compression is None

    # ------------------------------------------------------------------
    # Stream queue (fed by local checkpoint commits).
    # ------------------------------------------------------------------

    @property
    def stream_window(self) -> float:
        """How long before each round the stream is active.

        The §IV delayed pre-copy for the remote stream: streaming is
        *delayed* within the remote interval so that only the last
        committed wave is sent (intermediate commits coalesce away in
        the queue, keeping total volume near one checkpoint per round).
        The window is one local-checkpoint interval — the period of the
        final wave — capped by the remote interval itself."""
        return min(self.config.remote_interval * 0.9, self.config.local_interval)

    @property
    def pace_rate(self) -> float:
        """Target stream rate: one node checkpoint (+headroom) spread
        across the stream window, which is what flattens the Fig.-10
        profile relative to the no-pre-copy burst."""
        node_bytes = sum(a.checkpoint_bytes for a in self.ranks)
        if node_bytes <= 0 or self.stream_window <= 0:
            return float("inf")
        return PACE_FACTOR * node_bytes / self.stream_window

    def notify_local_checkpoint(self, pid: str) -> None:
        """A rank's local checkpoint committed: queue every chunk whose
        committed version changed since it was last sent to the buddy
        (the nvdirty query).  Re-commits of a queued chunk coalesce."""
        if not self.config.remote_precopy:
            return
        for alloc in self.ranks:
            if alloc.pid != pid:
                continue
            for chunk in alloc.persistent_chunks():
                if chunk.dirty_remote and chunk.committed_version >= 0:
                    key = (pid, chunk.chunk_id)
                    self._queue.setdefault(key, chunk)
                    # a fresh commit changed the content to send, even
                    # if the chunk was already queued (coalesced)
                    self._dirty_epoch[key] = self._dirty_epoch.get(key, 0) + 1
            break
        self._kick()

    def enqueue_all(self) -> None:
        """Force-queue every committed chunk (used after the buddy was
        replaced and all remote copies were lost)."""
        for alloc in self.ranks:
            for chunk in alloc.persistent_chunks():
                chunk.set_dirty("remote", True)
                chunk.mark_all_stale("remote")
                if chunk.committed_version >= 0:
                    self._queue.setdefault((alloc.pid, chunk.chunk_id), chunk)
        self._kick()

    def enqueue_unreplicated(self) -> None:
        """Queue only the committed chunks the *current* buddy does not
        already hold at their latest commit generation — the incremental
        alternative to :meth:`enqueue_all` when failing over (or cutting
        over) to a buddy that was streamed to before."""
        held = self._replicated.get(self.buddy_id, {})
        for alloc in self.ranks:
            for chunk in alloc.persistent_chunks():
                if chunk.committed_version < 0:
                    continue
                key = (alloc.pid, chunk.chunk_id)
                if held.get(key) == self._dirty_epoch.get(key, 0):
                    continue
                chunk.set_dirty("remote", True)
                chunk.mark_all_stale("remote")
                self._queue.setdefault(key, chunk)
        self._kick()

    def _record_replicated(
        self, pid: str, chunk: Chunk, buddy_id: Optional[int] = None
    ) -> None:
        """Note that *buddy_id* (default: the current buddy) now holds
        this chunk at its current commit generation (call right after a
        successful stage)."""
        key = (pid, chunk.chunk_id)
        b = self.buddy_id if buddy_id is None else buddy_id
        self._replicated.setdefault(b, {})[key] = self._dirty_epoch.get(key, 0)

    def _kick(self) -> None:
        if self._wake is not None and not self._wake.triggered:
            self._wake.succeed()
            self._wake = None

    def _pop(self) -> Optional[Tuple[str, Chunk]]:
        """Next queued chunk (FIFO), skipping entries that went clean."""
        while self._queue:
            key, chunk = next(iter(self._queue.items()))
            del self._queue[key]
            if chunk.dirty_remote:
                return key[0], chunk
        return None

    @property
    def queued_bytes(self) -> int:
        return sum(c.nbytes for c in self._queue.values() if c.dirty_remote)

    # ------------------------------------------------------------------
    # Transfers.
    # ------------------------------------------------------------------

    def _charge_cpu(self, nbytes: int, streamed: bool) -> None:
        cost = nbytes * HELPER_CPU_PER_BYTE + PER_CHUNK_CPU
        if streamed:
            cost += nbytes * TRACKING_CPU_PER_BYTE
        self.ctx.cpu.charge(self.owner, cost)

    def send(self, dest: RemoteBuddyDestination, chunk: Chunk, nbytes: int, *, kind: str):
        """Generator: the helper's one fabric delivery — *nbytes* of
        *chunk* to *dest*'s buddy node, *kind* naming the traffic.  A
        compression model shrinks the wire bytes and charges its CPU
        once per delivery (not per retry), while the full payload still
        lands on the buddy's NVM bus.  With a resilient transport a
        link flap retries instead of failing the caller."""
        buddy_ctx = dest.target.dst_ctx
        landed = nbytes
        if self.compression is not None:
            nbytes = self.compression.wire_bytes(chunk)
            landed = chunk.nbytes
            self.ctx.cpu.charge(self.owner, self.compression.compress_cost(chunk.nbytes))
            buddy_ctx.cpu.charge(
                f"{self.owner}:rx", self.compression.decompress_cost(chunk.nbytes)
            )
        tag = f"{dest.target.src_pid}:{kind}"
        if self.resilience is not None:
            yield from self.resilience.put(
                self.fabric,
                self.node_id,
                dest.buddy_id,
                nbytes,
                tag=tag,
                dst_nvm_bus=buddy_ctx.nvm_bus,
                dst_nvm_bytes=landed,
            )
        else:
            yield rdma_put(
                self.fabric,
                self.node_id,
                dest.buddy_id,
                nbytes,
                tag=tag,
                dst_nvm_bus=buddy_ctx.nvm_bus,
                dst_nvm_bytes=landed,
            )

    def copy_labels(self, pid: str, phase: str) -> dict:
        """The ``chunk.copied`` labels of one of this helper's copies
        of rank *pid*'s chunk; *phase* names the traffic (``precopy``,
        ``coordinated``, ``resync`` or ``migration``)."""
        return dict(
            actor=self.owner,
            stream="remote",
            phase=phase,
            destination=RemoteBuddyDestination.name,
            tenant=self.tenants.get(pid, ""),
        )

    def pace(self, t0: float, nbytes: int, rate: float, deadline: float = float("inf")):
        """Generator: sleep until a copy of *nbytes* started at *t0*
        has taken at least ``nbytes / rate`` seconds, never past
        *deadline* — the stream, re-sync and migration pacing."""
        engine = self.ctx.engine
        if rate <= 0:
            return
        target_duration = nbytes / rate
        elapsed = engine.now - t0
        if elapsed < target_duration and engine.now < deadline:
            yield engine.timeout(min(target_duration - elapsed, deadline - engine.now))

    def _copy(self, pid: str, chunk: Chunk, *, streamed: bool):
        """Generator: one chunk to the buddy through the copy step, as
        a stream pre-copy or a round copy; returns the wire bytes.
        Transfer errors propagate to the caller's requeue or abort."""
        dest = self.destinations[pid]
        point = "remote.stream.before_send" if streamed else "remote.round.before_send"

        def before_send(wire: int) -> None:
            self._charge_cpu(wire, streamed=streamed)
            fire(point, chunk=chunk, pid=pid)

        wire, _ = yield from copy_chunk(
            self.ctx.engine,
            chunk,
            dest,
            self.codec,
            incremental=self.incremental,
            tag="rprecopy" if streamed else "rckpt",
            labels=self.copy_labels(pid, "precopy" if streamed else "coordinated"),
            before_write=before_send,
        )
        self._record_replicated(pid, chunk)
        return wire

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    def pause_rounds(self) -> None:
        """Suspend streaming and coordinated rounds (degraded mode, or
        a re-sync owning the queue).  Local checkpoints keep committing;
        their chunks keep queueing for whoever drains next."""
        self._paused = True
        self._kick()

    def resume_rounds(self) -> None:
        self._paused = False
        self._kick()

    def new_targets(self, buddy_ctx: NodeContext) -> Dict[str, RemoteTarget]:
        """Empty buddy-side targets on *buddy_ctx*, one per rank."""
        return {
            a.pid: RemoteTarget(a.pid, buddy_ctx, two_versions=self.config.two_versions)
            for a in self.ranks
        }

    def retarget(
        self,
        new_buddy_id: int,
        new_buddy_ctx: NodeContext,
        *,
        incremental: bool = False,
        reason: str = "buddy replaced",
    ) -> None:
        """Re-point this helper at a new buddy node.

        Default (``incremental=False``): all remote copies on the new
        target count as lost, so every committed chunk is re-queued; a
        :class:`~repro.resilience.resync.ResyncTask` (or the next
        rounds) rebuilds protection from scratch.

        With ``incremental=True`` the helper reuses the new buddy's
        cached :class:`RemoteTarget` state when it is still valid (same
        node context — hardware replacement voids it) and re-queues
        *only* chunks whose commit generation moved past what that
        buddy holds: a migration cutover, or a failover back onto a
        previously-streamed buddy, re-sends just the delta."""
        old_buddy = self.buddy_id
        # keep the old pairing's targets: a later failover *back* onto
        # this buddy can reuse the copies still sitting on it
        self._known_targets[old_buddy] = self.targets
        self.epoch += 1
        self.buddy_id = new_buddy_id
        cached = self._known_targets.get(new_buddy_id)
        reuse = (
            incremental
            and cached is not None
            and set(cached) == {a.pid for a in self.ranks}
            and all(t.dst_ctx is new_buddy_ctx for t in cached.values())
        )
        if reuse:
            self.targets = cached
        else:
            # fresh hardware (or never seen): whatever we thought the
            # buddy held is void
            self._replicated.pop(new_buddy_id, None)
            self._known_targets.pop(new_buddy_id, None)
            self.targets = self.new_targets(new_buddy_ctx)
        for pid, target in self.targets.items():
            self.destinations[pid].retarget(target, new_buddy_id)
        if self.codec is not None:
            # a reused target keeps its digest index (its copies are
            # still resident); fresh hardware starts an empty one
            for dest in self.destinations.values():
                dest.ensure_block_store(self.config.precopy.codec_block)
        if BUS.active:
            BUS.emit(
                FailoverEvent(
                    t=self.ctx.engine.now,
                    actor=self.owner,
                    from_target=f"n{old_buddy}",
                    to_target=f"n{new_buddy_id}",
                    reason=reason,
                )
            )
        if reuse:
            self.enqueue_unreplicated()
        else:
            self.enqueue_all()

    def stop(self) -> None:
        self._stop = True
        self._kick()

    def run(self):
        """Generator process: stream between rounds, then drain+commit
        at each remote interval, until :meth:`stop`.

        The first interval is the **learning phase** (§IV): the helper
        has not yet observed a checkpoint round, so the stream stays
        idle and the first round moves everything at once — the early
        usage spike visible in Fig. 10."""
        engine = self.ctx.engine
        interval = self.config.remote_interval
        while not self._stop:
            # rounds anchor to absolute multiples of the interval so a
            # long round does not drift the schedule into the local
            # checkpoint rhythm
            deadline = (int(engine.now / interval + 1e-9) + 1) * interval
            if self._paused:
                # degraded / re-syncing: sleep out the interval; queued
                # chunks wait for the re-sync or the next healthy round
                if deadline > engine.now:
                    yield engine.timeout(deadline - engine.now)
                continue
            if self.config.remote_precopy and self.history:
                yield from self._stream_until(deadline)
            elif deadline > engine.now:
                yield engine.timeout(deadline - engine.now)
            if self._stop:
                break
            if self._paused:
                continue
            yield from self.remote_checkpoint()
        return self.history

    # ------------------------------------------------------------------
    # The continuous stream (remote pre-copy).
    # ------------------------------------------------------------------

    def _stream_until(self, deadline: float):
        engine = self.ctx.engine
        # delayed start: idle through the intermediate local intervals
        # (their commits coalesce in the queue), stream the final wave
        start = deadline - self.stream_window
        if engine.now < start:
            yield engine.timeout(start - engine.now)
        while not self._stop and not self._paused and engine.now < deadline - 1e-9:
            item = self._pop()
            if item is None:
                self._wake = engine.event("helper.wake")
                yield engine.any_of([self._wake, engine.timeout(deadline - engine.now)])
                self._wake = None
                continue
            pid, chunk = item
            t0 = engine.now
            try:
                wire = yield from self._copy(pid, chunk, streamed=True)
            except (TransferCancelled, TransferFailed):
                # failure tore the flow down (or retries ran out);
                # requeue so the chunk is retried or swept up later
                self._queue.setdefault((pid, chunk.chunk_id), chunk)
                continue
            fire(
                "remote.stream.after_stage",
                chunk=chunk,
                pid=pid,
                target=self.targets[pid],
            )
            chunk.set_dirty("remote", False)
            self.stream_bytes += wire
            self.stream_chunks += 1
            if self.timeline is not None:
                self.timeline.record(self.owner, tl.REMOTE_PRECOPY, t0, engine.now)
            # pacing: never run faster than pace_rate on average
            yield from self.pace(t0, wire, self.pace_rate, deadline)

    # ------------------------------------------------------------------
    # One coordinated remote round.
    # ------------------------------------------------------------------

    def _chunks_for_round(self, alloc: NVAllocator) -> List[Chunk]:
        chunks = alloc.persistent_chunks()
        if self.config.remote_precopy:
            # only what is committed locally but not yet streamed: the
            # helper reads NVM versions, so chunks dirtied by *not yet
            # locally committed* writes have nothing new to send
            return [
                c
                for c in chunks
                if (alloc.pid, c.chunk_id) in self._queue and c.dirty_remote
            ]
        return list(chunks)

    def remote_checkpoint(self):
        """Move every rank's remaining dirty chunks to the buddy and
        commit.  Returns :class:`RemoteCheckpointStats`."""
        engine = self.ctx.engine
        self._round_in_progress = True
        stats = RemoteCheckpointStats(start=engine.now)
        if self.timeline is not None:
            self.timeline.begin(self.owner, tl.REMOTE_CKPT, engine.now)
        try:
            fire("remote.round.begin", node=self.node_id)
            for alloc in self.ranks:
                target = self.targets[alloc.pid]
                dest = self.destinations[alloc.pid]
                chunks = self._chunks_for_round(alloc)
                stats.chunks_skipped += len(alloc.persistent_chunks()) - len(chunks)
                aborted = False
                for chunk in chunks:
                    try:
                        wire = yield from self._copy(alloc.pid, chunk, streamed=False)
                    except (TransferCancelled, TransferFailed):
                        # a failure interrupted the round (or retries
                        # ran out): abandon it; the previous committed
                        # remote version stands
                        aborted = True
                        break
                    fire(
                        "remote.round.after_stage",
                        chunk=chunk,
                        pid=alloc.pid,
                        target=target,
                    )
                    chunk.set_dirty("remote", False)
                    self._queue.pop((alloc.pid, chunk.chunk_id), None)
                    stats.bytes_moved += wire
                    stats.chunks_moved += 1
                if aborted:
                    break
                flush_cost = dest.commit(chunks, with_checksum=self.config.checksums)
                yield engine.timeout(flush_cost)
        finally:
            self._round_in_progress = False
            if self.timeline is not None:
                self.timeline.end(self.owner, tl.REMOTE_CKPT, engine.now)
        stats.end = engine.now
        self.history.append(stats)
        return stats

    # ------------------------------------------------------------------
    # Accounting.
    # ------------------------------------------------------------------

    @property
    def total_round_bytes(self) -> int:
        return sum(s.bytes_moved for s in self.history)

    @property
    def total_precopy_bytes(self) -> int:
        return self.stream_bytes

    @property
    def total_remote_bytes(self) -> int:
        return self.total_round_bytes + self.stream_bytes

    def helper_utilization(self, elapsed: float) -> float:
        """Fraction of the dedicated helper core used (Table V)."""
        if elapsed <= 0:
            return 0.0
        return self.ctx.cpu.busy_time(self.owner) / elapsed
