"""Background re-sync of committed chunks to a (new) buddy.

After an orphan is re-paired by the
:class:`~repro.resilience.directory.BuddyDirectory`, every committed
chunk must be re-sent before the node is protected again.  The
:class:`ResyncTask` DES process drains the helper's (re-)filled stream
queue at the helper's paced rate (same pacing as the remote pre-copy
stream, so the re-sync does not flood the fabric), staging each chunk
on the new target and committing everything at the end — one atomic
buddy-side version flip, exactly like a coordinated round.

Each chunk moves through the copy step
(:func:`~repro.core.copystep.copy_chunk`) as a raw whole-chunk payload
to the helper's buddy destination.

The helper's normal rounds are paused for the duration (the round and
the re-sync would race on the same queue); they resume when the task
finishes or aborts.  Chunks committed locally *during* the re-sync are
queued by the usual notify hooks and get drained too.

A task is generation-guarded: if the helper is retargeted again
mid-re-sync (the new buddy also died), the stale task stops silently
and leaves control to the task spawned for the newer pairing.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..core.copystep import copy_chunk
from ..errors import TransferCancelled, TransferFailed
from ..metrics import timeline as tl
from ..metrics.timeline import Timeline
from ..metrics.trace import BUS, ResyncAbortedEvent

__all__ = ["ResyncTask"]


class ResyncTask:
    """One paced re-sync of a helper's committed chunks."""

    def __init__(
        self,
        helper,
        *,
        timeline: Optional[Timeline] = None,
        failure_limit: int = 25,
        retry_pause: float = 2.0,
        on_complete: Optional[Callable[["ResyncTask"], None]] = None,
        on_abort: Optional[Callable[["ResyncTask"], None]] = None,
    ) -> None:
        self.helper = helper
        self.timeline = timeline
        #: consecutive send failures before the task gives up
        self.failure_limit = failure_limit
        #: pause after a failed send before trying the next chunk
        self.retry_pause = retry_pause
        self.on_complete = on_complete
        #: fired only when the task gives up on its *failure budget*
        #: (not when a newer retarget makes it stale) — the node is
        #: still unprotected and callers must escalate, e.g. keep it
        #: in degraded mode
        self.on_abort = on_abort
        self.bytes_sent = 0
        self.chunks_sent = 0
        self.completed = False
        self.aborted = False
        #: the abort was a failure-budget exhaustion (vs. staleness)
        self.failure_limited = False
        self.start = None
        self.end = None
        #: pairing generation this task belongs to
        self.epoch = helper.epoch

    def _stale(self) -> bool:
        return self.helper.epoch != self.epoch

    def run(self):
        """Generator process: drain, stage, commit, hand back."""
        helper = self.helper
        engine = helper.ctx.engine
        helper.pause_rounds()
        self.start = engine.now
        failures = 0
        try:
            while not helper._stop and not self._stale():
                item = helper._pop()
                if item is None:
                    break
                pid, chunk = item
                t0 = engine.now
                try:
                    # a copy that lands after a retarget went to the
                    # *old* buddy: it is not staged, and the task for
                    # the new pairing owns the queue now
                    yield from copy_chunk(
                        engine,
                        chunk,
                        helper.destinations[pid],
                        None,
                        incremental=False,
                        tag="resync",
                        labels=helper.copy_labels(pid, "resync"),
                        before_write=lambda wire: helper._charge_cpu(wire, streamed=True),
                        after_write=lambda _chunk: not self._stale(),
                    )
                except (TransferCancelled, TransferFailed):
                    helper._queue.setdefault((pid, chunk.chunk_id), chunk)
                    failures += 1
                    if failures >= self.failure_limit:
                        self.aborted = True
                        self.failure_limited = True
                        if BUS.active:
                            BUS.emit(
                                ResyncAbortedEvent(
                                    t=engine.now,
                                    actor=helper.owner,
                                    failures=failures,
                                    bytes_sent=self.bytes_sent,
                                    chunks_sent=self.chunks_sent,
                                )
                            )
                        if self.on_abort is not None:
                            self.on_abort(self)
                        return self
                    yield engine.timeout(self.retry_pause)
                    continue
                failures = 0
                if self._stale():
                    break
                helper._record_replicated(pid, chunk)
                chunk.set_dirty("remote", False)
                self.bytes_sent += chunk.nbytes
                self.chunks_sent += 1
                # pace like the stream: never faster than pace_rate
                yield from helper.pace(t0, chunk.nbytes, helper.pace_rate)
            if helper._stop or self._stale():
                self.aborted = True
                return self
            # buddy-side commit: one atomic version flip per rank
            for target in helper.targets.values():
                if target._staged:
                    cost = target.commit()
                    if cost > 0:
                        yield engine.timeout(cost)
            self.completed = True
        finally:
            self.end = engine.now
            # record (not begin/end): overlapping stale/fresh tasks for
            # one helper must not race on the timeline's open-phase map
            if self.timeline is not None and self.end > self.start:
                self.timeline.record(helper.owner, tl.RESYNC, self.start, self.end)
            # only the task owning the current pairing unpauses
            if not self._stale():
                helper.resume_rounds()
            if self.completed and self.on_complete is not None:
                self.on_complete(self)
        return self

    @property
    def duration(self) -> float:
        if self.start is None or self.end is None:
            return 0.0
        return self.end - self.start
