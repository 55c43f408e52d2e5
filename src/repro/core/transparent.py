"""Transparent (whole-address-space) checkpointing — the §VIII
generalization.

§II contrasts application-initiated checkpoints (only declared data
structures) with transparent ones (the entire process address space,
no application changes), and §VIII claims the NVM-as-virtual-memory
design "can be generalized to transparent checkpoint mechanisms".
This module is that generalization: a :class:`TransparentCheckpointer`
captures a process's full address space through the same NVM substrate
— shadow regions, two-version commit, restart metadata — with no
Table-III calls from the application.

What the paper warns about falls out measurably: the checkpoint volume
is the address-space size, not the (much smaller) set of live data
structures, and without application knowledge there is no chunk-level
modification schedule to exploit — every checkpoint copies everything
(or pays page-granular fault tracking, the §IV strawman).  The
``bench_transparent.py`` harness quantifies both against the
application-initiated path.
"""

from __future__ import annotations

from typing import List, Optional

from ..alloc.nvmalloc import NVAllocator
from ..config import PrecopyPolicy
from ..errors import CheckpointError
from ..metrics.timeline import Timeline
from ..units import MiB, align_up
from .context import NodeContext
from .engine import CheckpointStats, LocalCheckpointer

__all__ = ["TransparentCheckpointer"]

#: transparent snapshots are segmented so copies interleave with other
#: bus traffic the way a real pipelined address-space walk would.
SEGMENT_BYTES = 64 * MiB


class TransparentCheckpointer:
    """Checkpoints a whole simulated process address space.

    ``address_space_bytes`` is the process footprint (heap + stacks +
    globals + buffers) — typically a small multiple of the
    application's *declared* checkpoint size, which is exactly the
    paper's argument for the application-initiated approach.
    """

    def __init__(
        self,
        ctx: NodeContext,
        pid: str,
        address_space_bytes: int,
        *,
        two_versions: bool = True,
        page_tracking: bool = False,
        timeline: Optional[Timeline] = None,
    ) -> None:
        if address_space_bytes <= 0:
            raise CheckpointError("address space must be non-empty")
        self.ctx = ctx
        self.pid = pid
        self.address_space_bytes = address_space_bytes
        self.page_tracking = page_tracking
        # the address space is held as phantom segments: transparent
        # checkpointing never knows the application's data structures
        self._alloc = NVAllocator(
            f"{pid}/xparent",
            ctx.nvmm,
            ctx.dram,
            two_versions=two_versions,
            phantom=True,
            clock=lambda: ctx.engine.now,
        )
        n_segments = max(1, align_up(address_space_bytes, SEGMENT_BYTES) // SEGMENT_BYTES)
        seg_size = address_space_bytes // n_segments
        remainder = address_space_bytes - seg_size * n_segments
        self.segments = []
        for i in range(n_segments):
            size = seg_size + (remainder if i == n_segments - 1 else 0)
            seg = self._alloc.nvalloc(f"as_{i:04d}", size)
            seg.page_granular_protection = page_tracking
            self.segments.append(seg)
        # no pre-copy: there is no application modification schedule to
        # learn from; page tracking is the only (costly) alternative
        policy = PrecopyPolicy(
            mode=PrecopyPolicy.NONE,
            granularity="page" if page_tracking else "chunk",
        )
        self._ck = LocalCheckpointer(
            ctx, self._alloc, policy, timeline=timeline, tag=f"{pid}:xparent"
        )
        if page_tracking:
            # incremental transparent checkpointing re-protects the
            # whole space after every snapshot; the next interval's
            # writes then fault per page (the §IV cost)
            self._ck.on_complete.append(self._reprotect)

    def _reprotect(self, stats) -> None:
        for seg in self.segments:
            seg.protected = True

    # ------------------------------------------------------------------
    # The snapshot.
    # ------------------------------------------------------------------

    def mark_activity(self, written_bytes: Optional[int] = None) -> int:
        """Account application execution since the last snapshot: the
        process wrote *written_bytes* somewhere in its address space
        (default: everything — the conservative transparent
        assumption).  Returns protection faults taken (nonzero only
        with page tracking)."""
        if written_bytes is None:
            written_bytes = self.address_space_bytes
        remaining = written_bytes
        faults = 0
        for seg in self.segments:
            if remaining <= 0:
                break
            n = min(seg.nbytes, remaining)
            faults += seg.touch(n)
            remaining -= n
        return faults

    def checkpoint(self, *, blocking: bool = True):
        """Snapshot the full address space.  ``blocking=True`` (the
        default) runs to completion on the context's engine and returns
        :class:`CheckpointStats`; ``blocking=False`` returns the DES
        generator for embedding in a larger simulation."""
        return self._ck.checkpoint(blocking=blocking)

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    @property
    def checkpoint_bytes(self) -> int:
        return self._alloc.checkpoint_bytes

    @property
    def history(self) -> List[CheckpointStats]:
        return self._ck.history

    @property
    def total_bytes_to_nvm(self) -> int:
        return self._ck.total_bytes_to_nvm

    def fault_overhead(self) -> float:
        return self._ck.fault_overhead()
