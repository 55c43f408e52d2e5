"""The background chunk pre-copy engine (CPC / DCPC / DCPCP, §IV).

One engine instance serves one checkpoint *stream* ("local": DRAM->NVM
through the node's NVM bus; "remote": NVM->buddy over the fabric, used
by the remote helper).  It runs as a DES process that continuously:

1. finds a dirty, *eligible* chunk — eligibility depends on the policy
   (CPC: any dirty chunk; DCPC: only after the learned threshold
   ``T_p`` within the interval; DCPCP: additionally only once the
   prediction table expects no further modifications).  The largest
   eligible chunk goes first, ties to the one that entered the dirty
   index earliest;
2. moves it through the injected transfer function (bus/fabric
   contention is charged there);
3. marks the chunk pre-copied: clean for this stream + write-protected,
   so the next application write faults and re-dirties it.

A copy that races with an application write is *stale*: the chunk
stays dirty and the moved bytes count as redundant work (the extra
data volume visible in Fig. 7's right axis).

Finding the chunk costs O(chunks whose state changed), not O(dirty
chunks): the engine watches each chunk's dirty bits and copy state
(``Chunk.on_state_change``) and its writes (``Chunk.on_dirty``), and
keeps the eligible ones in a heap ordered by (size, dirty-index
position).  The policy's time gate is one comparison per step; its
per-chunk predicate is re-asked only for chunks that changed, or for
every indexed chunk when the policy's ``admits_epoch`` moves (DCPCP's
interval boundaries).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..alloc.chunk import Chunk, ChunkState
from ..config import PrecopyPolicy
from ..errors import SimulationError, TransferCancelled
from ..faults.crashpoints import fire
from ..metrics.trace import BUS, ChunkCopiedEvent, PolicyDecisionEvent
from ..sim.events import Event
from ..units import pages_of
from .context import NodeContext
from .policy import CheckpointPolicy, Decision, IntervalClock, resolve_policy
from .prediction import PredictionTable
from .threshold import ThresholdEstimator

__all__ = ["PrecopyEngine", "PrecopyStats"]


@dataclass
class PrecopyStats:
    """Work accounting for one pre-copy engine."""

    bytes_copied: int = 0
    copies: int = 0
    stale_copies: int = 0  # overwritten mid-copy
    redundant_copies: int = 0  # re-dirtied after a completed pre-copy
    faults_induced: int = 0

    @property
    def wasted_bytes_estimate(self) -> int:
        total = self.stale_copies + self.redundant_copies
        if self.copies == 0:
            return 0
        return int(self.bytes_copied * total / self.copies)


class PrecopyEngine:
    """Background pre-copy worker for one rank (local stream) or one
    node helper (remote stream)."""

    def __init__(
        self,
        ctx: NodeContext,
        chunks: Callable[[], Iterable[Chunk]],
        policy: PrecopyPolicy,
        *,
        stream: str = "local",
        tag: str = "precopy",
        transfer_fn: Optional[Callable[[Chunk], Event]] = None,
        finalize_fn: Optional[Callable[[Chunk], None]] = None,
        threshold: Optional[ThresholdEstimator] = None,
        prediction: Optional[PredictionTable] = None,
        decision_policy: Optional[CheckpointPolicy] = None,
        codec_hooks=None,
        tenant: str = "",
    ) -> None:
        if stream not in ("local", "remote"):
            raise ValueError(f"unknown stream {stream!r}")
        self.ctx = ctx
        self._chunks = chunks
        self.policy = policy
        self.stream = stream
        self.tag = tag
        self.tenant = tenant
        self._transfer_fn = transfer_fn or self._default_transfer
        self._finalize_fn = finalize_fn or self._default_finalize
        #: page-granular incremental copy applies only to the default
        #: local DRAM→NVM path; injected transfer/finalize callables
        #: (remote helper, legacy facades) keep whole-chunk semantics
        self._incremental = (
            policy.incremental
            and stream == "local"
            and transfer_fn is None
            and finalize_fn is None
        )
        #: payload-codec hooks (plan/account/publish — duck-typed to
        #: the owning CheckpointEngine); like incremental extents, the
        #: codec applies only to the default local DRAM→NVM path
        self._codec = (
            codec_hooks
            if stream == "local" and transfer_fn is None and finalize_fn is None
            else None
        )
        self.threshold = threshold
        self.prediction = prediction
        if policy.mode == PrecopyPolicy.DCPC and threshold is None:
            raise SimulationError("DCPC requires a ThresholdEstimator")
        if policy.mode == PrecopyPolicy.DCPCP and prediction is None:
            raise SimulationError("DCPCP requires a PredictionTable")
        # DCPCP may run without a threshold (prediction-only gating):
        # the remote stream uses this to spread transfers across the
        # whole interval instead of compressing them into the tail.

        #: the scheduling strategy; shared with the owning checkpoint
        #: engine when one drives this pre-copy stream
        self.decision_policy = decision_policy or resolve_policy(
            policy.mode, threshold=threshold, prediction=prediction
        )

        self.stats = PrecopyStats()
        self.interval_start = ctx.engine.now
        self._running = False
        self._paused = False
        self._stop_requested = False
        self._wake: Optional[Event] = None
        self._resume: Optional[Event] = None
        #: chunks pre-copied this interval and not re-dirtied yet
        self._pending_clean: Dict[int, Chunk] = {}
        self._wired: set[int] = set()
        #: dirty index: every persistent chunk seen dirty on this
        #: stream, in insertion order (``_position``).  A chunk that
        #: went clean leaves at the next selection, so a chunk
        #: re-dirtied before that keeps its place in the tie-break
        self._dirty: Dict[int, Chunk] = {}
        self._position: Dict[int, int] = {}
        self._positions = itertools.count()
        #: chunks whose dirty bit, copy state or writes changed since
        #: the last selection (re-examined there, and only they)
        self._touched: Dict[int, Chunk] = {}
        #: eligible chunks: id -> their live heap entry
        #: ``(-nbytes, position, id)``; heap entries no longer live are
        #: dropped when they reach the top
        self._ready: Dict[int, Tuple[int, int, int]] = {}
        self._heap: List[Tuple[int, int, int]] = []
        #: (policy, admits_epoch) the index was last evaluated under
        self._indexed_under: Optional[tuple] = None
        self._inflight_chunk: Optional[Chunk] = None
        self._inflight_done: Optional[Event] = None

    # ------------------------------------------------------------------
    # Wiring into chunk dirty events.
    # ------------------------------------------------------------------

    def wire_chunks(self) -> None:
        """Attach dirty observers to every current chunk (idempotent;
        call again after new allocations)."""
        for chunk in self._chunks():
            if chunk.chunk_id in self._wired:
                continue
            chunk.on_dirty.append(self._on_dirty)
            chunk.on_state_change.append(self._touch)
            self._wired.add(chunk.chunk_id)
            if chunk.persistent and self._is_dirty(chunk):
                self._index(chunk)

    def _index(self, chunk: Chunk) -> None:
        cid = chunk.chunk_id
        if cid not in self._dirty:
            self._dirty[cid] = chunk
            self._position[cid] = next(self._positions)
        self._touched[cid] = chunk

    def _touch(self, chunk: Chunk) -> None:
        self._touched[chunk.chunk_id] = chunk

    def _on_dirty(self, chunk: Chunk, now: float) -> None:
        if chunk.persistent:
            self._index(chunk)
        if self.prediction is not None:
            self.prediction.observe(chunk)
        pending = self._pending_clean.pop(chunk.chunk_id, None)
        if pending is not None:
            # a completed pre-copy turned out redundant
            self.stats.redundant_copies += 1
            self.stats.faults_induced += 1
            if self.prediction is not None:
                self.prediction.record_outcome(chunk, was_redundant=True)
        self._kick()

    def _kick(self) -> None:
        if self._wake is not None and not self._wake.triggered:
            self._wake.succeed()
            self._wake = None

    def adopt_policy(
        self,
        policy: PrecopyPolicy,
        decision_policy: CheckpointPolicy,
        *,
        threshold: Optional[ThresholdEstimator] = None,
        prediction: Optional[PredictionTable] = None,
    ) -> None:
        """Swap the scheduling strategy mid-run (the checkpoint
        engine's hot policy switch).  The copy mechanism — stream,
        transfer fns, incremental extents — is untouched; only the
        when-does-a-chunk-move question changes.  Call between
        intervals (while no copy is in flight for a conflicting
        strategy); the wake kick re-evaluates eligibility immediately.
        """
        self.policy = policy
        self.decision_policy = decision_policy
        self.threshold = threshold
        self.prediction = prediction
        self._indexed_under = None
        self._kick()

    # ------------------------------------------------------------------
    # Interval lifecycle (driven by the checkpoint coordinator).
    # ------------------------------------------------------------------

    def begin_interval(self) -> None:
        """New compute interval starts now: reset prediction walk,
        settle prediction outcomes for still-clean pre-copies."""
        self.interval_start = self.ctx.engine.now
        for chunk in self._pending_clean.values():
            if self.prediction is not None:
                self.prediction.record_outcome(chunk, was_redundant=False)
        self._pending_clean.clear()
        if self.prediction is not None:
            self.prediction.begin_interval()
        for chunk in self._chunks():
            chunk.begin_interval()
        self._kick()

    def pause(self) -> None:
        """Suspend background copying (entered for the coordinated
        checkpoint so pre-copy does not compete for the bus)."""
        self._paused = True

    def resume(self) -> None:
        self._paused = False
        if self._resume is not None and not self._resume.triggered:
            self._resume.succeed()
            self._resume = None
        self._kick()

    def drain(self):
        """Generator: wait for the in-flight copy (if any) to finish.
        Call after :meth:`pause` so a coordinated step never races a
        background copy of the same chunk."""
        if self._inflight_done is not None:
            yield self._inflight_done

    def stop(self) -> None:
        self._stop_requested = True
        self._kick()
        if self._resume is not None and not self._resume.triggered:
            self._resume.succeed()
            self._resume = None

    # ------------------------------------------------------------------
    # Eligibility.
    # ------------------------------------------------------------------

    def _is_dirty(self, chunk: Chunk) -> bool:
        return chunk.dirty_local if self.stream == "local" else chunk.dirty_remote

    def threshold_time(self) -> float:
        """Absolute time at which delayed pre-copy may start this
        interval.  CPC starts immediately; DCPC/DCPCP never pre-copy
        during the learning interval ('our method waits for the first
        checkpoint step to complete', §IV) — hence +inf until the
        estimator has one observation.  A DCPCP engine without a
        threshold estimator is prediction-gated only."""
        return self.decision_policy.ready_time(self.interval_start)

    def _refresh(self) -> None:
        """Bring the eligible heap up to date with every change since
        the last selection: drop chunks that went clean from the dirty
        index, and re-ask the mechanism checks (idle on this stream)
        and the policy's per-chunk predicate for the changed ones."""
        policy = self.decision_policy
        under = (policy, policy.admits_epoch())
        if under != self._indexed_under:
            self._indexed_under = under
            self._touched.update(self._dirty)
        dirty, ready = self._dirty, self._ready
        for cid, chunk in self._touched.items():
            if cid not in dirty:
                continue
            if not self._is_dirty(chunk):
                del dirty[cid]
                del self._position[cid]
                ready.pop(cid, None)
            elif chunk.get_state(self.stream) is ChunkState.IDLE and policy.admits(chunk):
                entry = ready.get(cid)
                if entry is None or entry[0] != -chunk.nbytes:
                    entry = (-chunk.nbytes, self._position[cid], cid)
                    ready[cid] = entry
                    heapq.heappush(self._heap, entry)
            else:
                ready.pop(cid, None)
        self._touched.clear()
        if not ready:
            self._heap.clear()

    def _next_eligible(self, now: float) -> Optional[Chunk]:
        # largest dirty chunk first: big chunks benefit most from being
        # out of the coordinated step (Table IV analysis)
        self._refresh()
        clock = IntervalClock(now=now, interval_start=self.interval_start)
        if not self.decision_policy.is_open(clock):
            return None
        heap, ready = self._heap, self._ready
        while heap:
            entry = heap[0]
            if ready.get(entry[2]) is entry:
                chunk = self._dirty[entry[2]]
                if self.decision_policy.decide(chunk, clock) is not Decision.PRECOPY:
                    raise SimulationError(
                        f"pre-copy index out of step with policy "
                        f"{self.decision_policy.name!r} for chunk {chunk.name!r}"
                    )
                return chunk
            heapq.heappop(heap)
        return None

    # ------------------------------------------------------------------
    # Default local-stream transfer.
    # ------------------------------------------------------------------

    def _default_transfer(self, chunk: Chunk) -> Event:
        return self.ctx.copy_to_nvm(chunk.nbytes, tag=self.tag)

    def _default_finalize(self, chunk: Chunk) -> None:
        chunk.stage_to_nvm()

    # ------------------------------------------------------------------
    # Main loop (DES process body).
    # ------------------------------------------------------------------

    def run(self):
        """Generator process: run until :meth:`stop`."""
        if self._running:
            raise SimulationError("pre-copy engine already running")
        self._running = True
        engine = self.ctx.engine
        self.wire_chunks()
        try:
            while not self._stop_requested:
                if self._paused:
                    self._resume = engine.event("precopy.resume")
                    yield self._resume
                    continue
                now = engine.now
                chunk = self._next_eligible(now)
                if chunk is None:
                    # sleep until a dirty event, or until the threshold
                    # boundary if one is pending
                    self._wake = engine.event("precopy.wake")
                    t_thresh = self.threshold_time()
                    waits: List[Event] = [self._wake]
                    # (the selection just dropped every clean chunk from
                    # the dirty index)
                    if now < t_thresh < float("inf") and self._dirty:
                        waits.append(engine.timeout(t_thresh - now))
                    yield engine.any_of(waits)
                    self._wake = None
                    continue
                yield from self._copy_one(chunk)
        finally:
            self._running = False
        return self.stats

    def _copy_one(self, chunk: Chunk):
        fire("precopy.copy.before", chunk=chunk, stream=self.stream)
        copy_start = self.ctx.engine.now
        if BUS.active:
            BUS.emit(
                PolicyDecisionEvent(
                    t=copy_start,
                    actor=self.tag,
                    chunk=chunk.name,
                    decision=Decision.PRECOPY.value,
                    policy=self.decision_policy.name,
                )
            )
        mods_before = chunk.total_mods
        # page-granular mode: move only the extents stale for the
        # in-progress slot (a post-pre-copy re-copy moves just the
        # re-dirtied pages, not the whole chunk)
        extents = chunk.copy_extents("local") if self._incremental else None
        if extents is None:
            nbytes_moved = chunk.nbytes
            pages = pages_of(chunk.nbytes)
        else:
            nbytes_moved = sum(n for _, n in extents)
            pages = sum(pages_of(n) for _, n in extents)
        payload = (
            self._codec.plan_payload(chunk, extents) if self._codec is not None else None
        )
        chunk.set_state(self.stream, ChunkState.PRECOPYING)
        self._inflight_chunk = chunk
        self._inflight_done = self.ctx.engine.event("precopy.inflight")
        cancelled = False
        try:
            if payload is not None:
                yield self.ctx.copy_to_nvm(payload.wire_bytes, tag=self.tag)
            elif extents is None:
                yield self._transfer_fn(chunk)
            else:
                yield self.ctx.copy_to_nvm(nbytes_moved, tag=self.tag)
        except TransferCancelled:
            # a failure tore the flow down; the chunk stays dirty and
            # the engine moves on (it may retry after recovery)
            cancelled = True
        finally:
            chunk.set_state(self.stream, ChunkState.IDLE)
            self._inflight_chunk = None
            self._inflight_done.succeed()
            self._inflight_done = None
        if cancelled:
            self.stats.stale_copies += 1
            return
        fire("precopy.copy.after", chunk=chunk, stream=self.stream)
        self.stats.copies += 1
        wire_bytes = nbytes_moved
        if payload is not None:
            wire_bytes = payload.wire_bytes
            self._codec.account_payload(payload)
        self.stats.bytes_copied += wire_bytes
        # the copy event fires for torn copies too: the bytes *did*
        # move (and count against the stats), the data just stayed
        # stale — replay accounting must see every byte the stats saw
        if BUS.active:
            BUS.emit(
                ChunkCopiedEvent(
                    t=self.ctx.engine.now,
                    actor=self.tag,
                    chunk=chunk.name,
                    nbytes=wire_bytes,
                    start=copy_start,
                    stream=self.stream,
                    phase="precopy",
                    pages=pages,
                    bytes_saved=chunk.nbytes - nbytes_moved,
                    codec=payload.codec if payload is not None else "raw",
                    logical_bytes=nbytes_moved,
                    tenant=self.tenant,
                )
            )
        if chunk.total_mods != mods_before:
            # torn copy: application wrote during the transfer (the
            # stale bits were never cleared, so a retry re-copies)
            self.stats.stale_copies += 1
            if self.prediction is not None:
                self.prediction.record_outcome(chunk, was_redundant=True)
            return
        if extents is None:
            self._finalize_fn(chunk)
        else:
            chunk.stage_to_nvm(extents)
        if payload is not None:
            # digests publish only for copies that actually staged —
            # a torn copy's digests describe content that never landed
            self._codec.publish_payload(chunk, payload)
        chunk.mark_precopied(self.stream)
        self._pending_clean[chunk.chunk_id] = chunk
        fire("precopy.finalize.after", chunk=chunk, stream=self.stream)
