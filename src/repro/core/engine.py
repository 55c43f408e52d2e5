"""The unified checkpoint engine (§IV/§V): one dirty-chunk walk, one
cache-flush/commit ordering, one stats struct — for every mode and
every backend.

:class:`CheckpointEngine` composes the two strategy axes of the
pipeline:

* a :class:`~repro.core.policy.CheckpointPolicy` deciding *when* each
  dirty chunk moves (naive / CPC / DCPC / DCPCP — resolved from the
  :class:`~repro.config.PrecopyPolicy` config's mode via the policy
  registry);
* a :class:`~repro.core.destination.Destination` deciding *where* and
  *how* the bytes land (NVM shadow arena, PFS, ramdisk, remote buddy).

The coordinated step (``nvchkptall``) is the paper's sequence: pause
pre-copy, copy every still-dirty chunk, flush, commit staged versions,
persist metadata, flush again (commit point).  Each chunk moves with
the one copy step (:func:`~repro.core.copystep.copy_chunk`) that the
pre-copy engine and the remote helper drive too.
``LocalCheckpointer`` is this class under its historical name;
``TransparentCheckpointer``, ``NVMCheckpoint`` and the baselines are
thin facades over this one engine.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterable, List, Optional

from ..alloc.chunk import Chunk, ChunkState
from ..alloc.nvmalloc import NVAllocator
from ..config import PrecopyPolicy as PrecopyConfig
from ..errors import CheckpointError
from ..faults.crashpoints import fire
from ..metrics import timeline as tl
from ..metrics.timeline import Timeline
from ..metrics.trace import BUS, CommitEvent, PolicyDecisionEvent
from .context import NodeContext
from .copystep import PayloadCodec, copy_chunk
from .destination import Destination, NVMArenaDestination
from .policy import CheckpointPolicy, policy_class, resolve_policy
from .precopy import PrecopyEngine
from .prediction import PredictionTable
from .threshold import ThresholdEstimator

__all__ = ["CheckpointEngine", "CheckpointStats", "LocalCheckpointer"]


@dataclass
class CheckpointStats:
    """Result of one coordinated local checkpoint."""

    start: float = 0.0
    end: float = 0.0
    bytes_copied: int = 0
    chunks_copied: int = 0
    chunks_skipped: int = 0
    flush_cost: float = 0.0
    #: chunk bytes NOT moved thanks to page-granular incremental
    #: extents (0 in whole-chunk mode) — pairs with ``bytes_copied``
    #: exactly like the ``chunk.copied`` trace event's field
    bytes_saved: int = 0
    #: the policy mode this coordinated step ran under (autotuned runs
    #: switch modes between intervals)
    policy: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


class _BaselineArena(NVMArenaDestination):
    """Where a baseline backend's pre-copies land: the node's NVM arena
    moves and stages the data, while the codec plans and publishes
    against the backend's digest index, like its coordinated step."""

    def __init__(self, ctx: NodeContext, allocator: NVAllocator, backend: Destination) -> None:
        super().__init__(ctx, allocator)
        self.backend = backend

    @property
    def block_store(self):  # type: ignore[override]
        return self.backend.block_store

    def codec_slots(self, chunk: Chunk):
        return self.backend.codec_slots(chunk)


class CheckpointEngine:
    """Per-rank coordinated checkpoint coordinator over one policy and
    one destination."""

    def __init__(
        self,
        ctx: NodeContext,
        allocator: NVAllocator,
        policy: Optional[PrecopyConfig] = None,
        *,
        destination: Optional[Destination] = None,
        decision_policy: Optional[CheckpointPolicy] = None,
        timeline: Optional[Timeline] = None,
        with_checksums: bool = True,
        tag: Optional[str] = None,
        tenant: str = "",
    ) -> None:
        self.ctx = ctx
        self.allocator = allocator
        self.policy = policy or PrecopyConfig()
        self.destination = destination or NVMArenaDestination(ctx, allocator)
        self.timeline = timeline
        self.with_checksums = with_checksums
        self.rank = allocator.pid
        self.tag = tag or self.rank
        #: owning tenant in multi-tenant runs; stamped on every
        #: chunk.copied/commit trace event so per-tenant metering can
        #: attribute the traffic ("" = untenanted)
        self.tenant = tenant
        self.last_checkpoint_end = ctx.engine.now
        self.checkpoints_done = 0
        self.history: List[CheckpointStats] = []
        #: observers called with each completed CheckpointStats (the
        #: remote helper hooks its per-rank pre-copy rhythm here)
        self.on_complete: List = []

        #: payload codec with its wire accounting, shared with the
        #: pre-copy engine (None on the raw default path: no content
        #: models, no block store, no per-write overhead)
        self.codec: Optional[PayloadCodec] = None
        if self.policy.codec_enabled:
            self.codec = PayloadCodec(
                self.policy.codec, actor=str(self.rank), engine=ctx.engine
            )
            self.destination.ensure_block_store(self.policy.codec_block)

        self.threshold: Optional[ThresholdEstimator] = None
        self.prediction: Optional[PredictionTable] = None
        self.precopy: Optional[PrecopyEngine] = None
        policy_cls = policy_class(self.policy.mode)
        if policy_cls.needs_threshold:
            self.threshold = ThresholdEstimator(
                bandwidth_per_core=ctx.effective_nvm_bw_per_core(),
                smoothing=self.policy.adapt_smoothing,
                margin=self.policy.threshold_margin,
                clock=lambda: self.ctx.engine.now,
                actor=str(self.rank),
            )
        if policy_cls.needs_prediction:
            self.prediction = PredictionTable(smoothing=self.policy.adapt_smoothing)
        #: the scheduling strategy — one registry lookup, shared with
        #: the background pre-copy engine so both walk one decision path
        self.decision_policy = decision_policy or resolve_policy(
            self.policy.mode, threshold=self.threshold, prediction=self.prediction
        )
        if self.decision_policy.precopies:
            self.precopy = self._make_precopy()
        self._precopy_proc = None
        self._background_started = False

    def _make_precopy(self) -> PrecopyEngine:
        precopy = PrecopyEngine(
            self.ctx,
            chunks=self.allocator.persistent_chunks,
            policy=self.policy,
            stream="local",
            tag=f"{self.tag}:precopy",
            threshold=self.threshold,
            prediction=self.prediction,
            decision_policy=self.decision_policy,
            codec_hooks=self.codec,
            tenant=self.tenant,
        )
        if isinstance(self.destination, NVMArenaDestination):
            # one arena (and digest index) for both copy paths
            precopy.destination = self.destination
        else:
            precopy.destination = _BaselineArena(self.ctx, self.allocator, self.destination)
        return precopy

    # ------------------------------------------------------------------
    # Background engine lifecycle.
    # ------------------------------------------------------------------

    @property
    def tracks_dirty(self) -> bool:
        """With pre-copy off, the baseline copies everything each time."""
        return self.decision_policy.precopies

    def start_background(self) -> None:
        """Spawn the pre-copy engine as a DES process (no-op for the
        no-pre-copy baseline)."""
        self._background_started = True
        if self.policy.granularity == "page":
            for chunk in self.allocator.chunks():
                chunk.page_granular_protection = True
        if self.precopy is not None and self._precopy_proc is None:
            self.precopy.wire_chunks()
            self._precopy_proc = self.ctx.engine.process(
                self.precopy.run(), name=f"{self.tag}:precopy"
            )

    def stop_background(self) -> None:
        self._background_started = False
        if self.precopy is not None:
            self.precopy.stop()
            self._precopy_proc = None

    # ------------------------------------------------------------------
    # Hot policy swap (online autotuning).
    # ------------------------------------------------------------------

    def set_policy(self, mode: str) -> CheckpointPolicy:
        """Swap the scheduling policy to *mode* between intervals.

        Estimators are created lazily on first need and *kept warm*
        across switches (a bandit cycling through modes must not
        re-learn the threshold every pull).  The pre-copy engine is
        created and spawned on the first switch to a pre-copying mode;
        switching to the no-pre-copy baseline leaves it attached but
        idle (the :class:`~repro.core.policy.NonePolicy` strategy makes
        no chunk eligible).  Only call between coordinated checkpoints
        — e.g. from an ``on_complete`` observer — never while one is in
        flight.
        """
        policy_cls = policy_class(mode)
        if mode == self.policy.mode:
            return self.decision_policy
        if policy_cls.needs_threshold and self.threshold is None:
            self.threshold = ThresholdEstimator(
                bandwidth_per_core=self.ctx.effective_nvm_bw_per_core(),
                smoothing=self.policy.adapt_smoothing,
                margin=self.policy.threshold_margin,
                clock=lambda: self.ctx.engine.now,
                actor=str(self.rank),
            )
        if policy_cls.needs_prediction and self.prediction is None:
            self.prediction = PredictionTable(smoothing=self.policy.adapt_smoothing)
        self.policy = dataclasses.replace(self.policy, mode=mode)
        self.decision_policy = resolve_policy(
            mode, threshold=self.threshold, prediction=self.prediction
        )
        if self.decision_policy.precopies and self.precopy is None:
            self.precopy = self._make_precopy()
            if self._background_started:
                self.precopy.wire_chunks()
                self._precopy_proc = self.ctx.engine.process(
                    self.precopy.run(), name=f"{self.tag}:precopy"
                )
        elif self.precopy is not None:
            self.precopy.adopt_policy(
                self.policy,
                self.decision_policy,
                threshold=self.threshold,
                prediction=self.prediction,
            )
        return self.decision_policy

    # ------------------------------------------------------------------
    # The coordinated checkpoint step (nvchkptall).
    # ------------------------------------------------------------------

    def _chunks_to_copy(self, only: Optional[Iterable[Chunk]] = None) -> List[Chunk]:
        chunks = list(only) if only is not None else self.allocator.persistent_chunks()
        if self.tracks_dirty:
            return [c for c in chunks if c.dirty_local]
        return chunks

    def checkpoint(
        self, only: Optional[Iterable[Chunk]] = None, *, blocking: bool = True
    ):
        """One coordinated local checkpoint (``nvchkptall``).

        With ``blocking=True`` (the default) the checkpoint runs to
        completion on this context's own engine and the
        :class:`CheckpointStats` is returned — the synchronous facade
        path, valid only from *outside* the simulation.  With
        ``blocking=False`` the call returns the checkpoint *generator*
        for DES embedding (``yield from ck.checkpoint(blocking=False)``
        inside a simulated process, or ``engine.process(...)``).

        ``only`` restricts the chunk set (``nvchkptid``); the commit
        still covers only what was staged.
        """
        if blocking:
            proc = self.ctx.engine.process(
                self._checkpoint_proc(only), name=f"{self.tag}:ckpt"
            )
            self.ctx.engine.run()
            return proc.value
        return self._checkpoint_proc(only)

    def _trace_decisions(self, all_persistent: List[Chunk], to_copy: List[Chunk]) -> None:
        now = self.ctx.engine.now
        copying = {c.chunk_id for c in to_copy}
        pname = self.decision_policy.name
        for chunk in all_persistent:
            BUS.emit(
                PolicyDecisionEvent(
                    t=now,
                    actor=str(self.rank),
                    chunk=chunk.name,
                    decision=(
                        "copy_at_checkpoint" if chunk.chunk_id in copying else "skip"
                    ),
                    policy=pname,
                )
            )

    def _checkpoint_proc(self, only: Optional[Iterable[Chunk]] = None):
        """The checkpoint generator body behind :meth:`checkpoint`."""
        engine = self.ctx.engine
        dest = self.destination
        stats = CheckpointStats(start=engine.now, policy=self.policy.mode)
        labels = dict(
            actor=str(self.rank),
            stream="local",
            phase="coordinated",
            destination=dest.name,
            tenant=self.tenant,
        )
        if self.precopy is not None:
            self.precopy.pause()
            yield from self.precopy.drain()
        if self.timeline is not None:
            self.timeline.begin(self.rank, tl.LOCAL_CKPT, engine.now)
        try:
            fire(
                "local.begin",
                allocator=self.allocator,
                store=self.ctx.nvmm.store,
                rank=self.rank,
            )
            all_persistent = list(
                only if only is not None else self.allocator.persistent_chunks()
            )
            to_copy = self._chunks_to_copy(only)
            stats.chunks_skipped = len(all_persistent) - len(to_copy)
            if BUS.active:
                self._trace_decisions(all_persistent, to_copy)
            for chunk in to_copy:
                if chunk.state_local is not ChunkState.IDLE:
                    raise CheckpointError(
                        f"chunk {chunk.name!r} busy ({chunk.state_local}) during coordinated step"
                    )
                fire("local.copy.before", chunk=chunk, rank=self.rank)
                chunk.set_state("local", ChunkState.CHECKPOINTING)
                try:
                    wire, logical = yield from copy_chunk(
                        engine,
                        chunk,
                        dest,
                        self.codec,
                        incremental=self.policy.incremental,
                        tag=f"{self.tag}:lckpt",
                        labels=labels,
                        after_write=self._copied,
                    )
                finally:
                    chunk.set_state("local", ChunkState.IDLE)
                if dest.two_version:
                    fire("local.stage.after", chunk=chunk, rank=self.rank)
                stats.bytes_copied += wire
                stats.bytes_saved += chunk.nbytes - logical
                stats.chunks_copied += 1
                if self.tracks_dirty:
                    chunk.mark_precopied("local")
                else:
                    chunk.set_dirty("local", False)
            # -- commit: flush data, flip versions, persist metadata,
            # flush.  The commit covers every chunk with staged data —
            # the ones this step copied AND the ones the pre-copy
            # engine staged during the interval ('All chunks are marked
            # as committed after the library ensures that data is
            # flushed to NVM', §V).
            fire("local.commit.before_data_flush", rank=self.rank)
            flush_cost = dest.flush()
            yield engine.timeout(flush_cost)
            fire("local.commit.after_data_flush", rank=self.rank)
            if dest.two_version:
                dest.commit(
                    all_persistent,
                    with_checksum=self.with_checksums,
                    on_commit=lambda chunk: fire(
                        "local.commit.after_flip", chunk=chunk, rank=self.rank
                    ),
                )
            if self.codec is not None and dest.block_store is not None:
                # the digest index commits with the data it describes:
                # after the version flip, before the metadata flush
                # (codec.store.commit.* crash points fire inside)
                dest.block_store.commit()
            dest.persist_metadata()
            fire("local.commit.before_meta_flush", rank=self.rank)
            flush_cost2 = dest.flush()
            yield engine.timeout(flush_cost2)
            stats.flush_cost = flush_cost + flush_cost2
            fire(
                "local.commit.done",
                allocator=self.allocator,
                store=self.ctx.nvmm.store,
                rank=self.rank,
            )
            if BUS.active:
                BUS.emit(
                    CommitEvent(
                        t=engine.now,
                        actor=str(self.rank),
                        chunks_committed=(
                            len(all_persistent) if dest.two_version else stats.chunks_copied
                        ),
                        bytes_committed=stats.bytes_copied,
                        flush_cost=stats.flush_cost,
                        destination=dest.name,
                        tenant=self.tenant,
                    )
                )
        finally:
            if self.timeline is not None:
                self.timeline.end(self.rank, tl.LOCAL_CKPT, engine.now)
        stats.end = engine.now
        self._finish_interval(stats)
        return stats

    def _copied(self, chunk: Chunk) -> bool:
        """The coordinated copy's write completed: it always lands."""
        fire("local.copy.after", chunk=chunk, rank=self.rank)
        return True

    # ------------------------------------------------------------------
    # Interval bookkeeping.
    # ------------------------------------------------------------------

    def _finish_interval(self, stats: CheckpointStats) -> None:
        # the pre-copy window closes when the *next coordinated step
        # begins*, so the threshold interval is compute-only time
        # (ckpt-end to next ckpt-start), not end-to-end
        interval = stats.start - self.last_checkpoint_end
        if self.threshold is not None:
            self.threshold.observe_interval(interval, self.allocator.checkpoint_bytes)
        if self.prediction is not None:
            self.prediction.end_interval()
        self.last_checkpoint_end = stats.end
        self.checkpoints_done += 1
        self.history.append(stats)
        if self.precopy is not None:
            self.precopy.begin_interval()
            self.precopy.resume()
        for fn in self.on_complete:
            fn(stats)

    # ------------------------------------------------------------------
    # Accounting.
    # ------------------------------------------------------------------

    @property
    def total_coordinated_bytes(self) -> int:
        return sum(s.bytes_copied for s in self.history)

    @property
    def total_precopy_bytes(self) -> int:
        return self.precopy.stats.bytes_copied if self.precopy is not None else 0

    @property
    def total_bytes_saved(self) -> int:
        """Coordinated-step bytes incremental extents did NOT move."""
        return sum(s.bytes_saved for s in self.history)

    @property
    def total_bytes_to_nvm(self) -> int:
        """All checkpoint traffic to NVM, incl. redundant pre-copies —
        the 'total data copied' series of Figs. 7/8."""
        return self.total_coordinated_bytes + self.total_precopy_bytes

    @property
    def total_checkpoint_time(self) -> float:
        """T_lcl: summed coordinated (blocking) checkpoint time."""
        return sum(s.duration for s in self.history)

    def fault_overhead(self) -> float:
        """Total protection-fault cost incurred by the application due
        to chunk protection (charged by the app model to compute)."""
        faults = sum(c.fault_count for c in self.allocator.chunks())
        return faults * self.policy.fault_cost


#: the historical name of the per-rank coordinated checkpointer
LocalCheckpointer = CheckpointEngine
