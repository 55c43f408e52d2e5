"""XOR-parity remote redundancy — the erasure-coding extension.

The paper's related work points at erasure coding (Plank et al.) as
the classic answer to replication's memory cost: instead of mirroring
every rank's checkpoint on a buddy (1x extra space and interconnect
volume), a *parity group* of K ranks stores one XOR parity block per
chunk set on a remote node (1/K extra space).  Recovery of a failed
member reads the K-1 survivors' committed data plus the parity.

This module implements chunk-aligned XOR parity groups on top of the
same NVM/RDMA substrate:

* :class:`XorParityGroup` — builds and maintains parity blocks over
  the member ranks' committed chunk versions, stores them in the
  parity node's NVM (two versions, crash-safe like everything else);
* :meth:`reconstruct` — rebuilds one member's chunk from the survivors
  and the parity (works on real payloads; phantom mode accounts sizes).

Trade-off quantified in ``benchmarks/bench_erasure_remote.py``: K x
less remote space and interconnect volume, at the cost of touching
K-1 survivors at recovery time (and a window in which a second failure
in the group is unrecoverable — the classic RAID-5 argument).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..alloc.chunk import Chunk
from ..alloc.nvmalloc import NVAllocator
from ..errors import AllocationError, CheckpointError
from .context import NodeContext

__all__ = ["XorParityGroup"]


class XorParityGroup:
    """One parity group: K member ranks + a parity store on a remote
    node's NVM."""

    def __init__(
        self,
        members: List[NVAllocator],
        parity_ctx: NodeContext,
        group_id: str = "pg0",
    ) -> None:
        if len(members) < 2:
            raise CheckpointError("a parity group needs at least 2 members")
        self.members = members
        self.parity_ctx = parity_ctx
        self.group_id = group_id
        self.pid = f"parity:{group_id}"
        self.n_versions = 2
        #: chunk name -> committed parity version (-1 = none)
        self.committed: Dict[str, int] = {}
        self._staged: Dict[str, int] = {}
        self.parity_bytes_written = 0

    # ------------------------------------------------------------------
    # Helpers.
    # ------------------------------------------------------------------

    def _region_name(self, chunk_name: str, version: int) -> str:
        return f"{chunk_name}#p{version}"

    def _common_chunks(self) -> List[str]:
        """Chunk names present in every member (parity is computed per
        aligned chunk set; unaligned chunks fall back to replication)."""
        sets = [
            {c.name for c in m.persistent_chunks() if c.committed_version >= 0}
            for m in self.members
        ]
        return sorted(set.intersection(*sets)) if sets else []

    def _member_chunk(self, member: NVAllocator, name: str) -> Chunk:
        return member.chunk(name)

    def _chunk_size(self, name: str) -> int:
        return max(self._member_chunk(m, name).nbytes for m in self.members)

    def _inprogress(self, name: str) -> int:
        cur = self.committed.get(name, -1)
        return 1 - cur if cur >= 0 else 0

    def _parity_payload(self, name: str, exclude: Optional[NVAllocator] = None) -> np.ndarray:
        """XOR of the members' *committed* payloads for chunk *name*
        (optionally excluding one member — used by reconstruction)."""
        size = self._chunk_size(name)
        acc = np.zeros(size, dtype=np.uint8)
        for member in self.members:
            if member is exclude:
                continue
            chunk = self._member_chunk(member, name)
            if chunk.phantom:
                continue  # phantom mode: sizes only
            data = chunk.committed_region().read(0, chunk.nbytes)
            acc[: len(data)] ^= data
        return acc

    # ------------------------------------------------------------------
    # Parity build / commit.
    # ------------------------------------------------------------------

    @property
    def parity_bytes_per_round(self) -> int:
        """Remote volume of one parity round: one chunk-set, not K."""
        return sum(self._chunk_size(n) for n in self._common_chunks())

    def update_parity(self) -> int:
        """Recompute and stage parity blocks for every aligned chunk;
        returns bytes written to the parity node's NVM.  (Transfer
        *timing* is the caller's concern — benches charge the fabric
        with ``parity_bytes_per_round``.)"""
        nvmm = self.parity_ctx.nvmm
        written = 0
        for name in self._common_chunks():
            size = self._chunk_size(name)
            v = self._inprogress(name)
            rname = self._region_name(name, v)
            phantom = any(self._member_chunk(m, name).phantom for m in self.members)
            try:
                region = nvmm.region(self.pid, rname)
            except AllocationError:  # not mapped yet
                region = nvmm.nvmmap(self.pid, rname, size, phantom=phantom)
            else:
                if region.nbytes != size:
                    nvmm.nvmrealloc(self.pid, rname, size)
            if phantom:
                written += region.write_phantom(0, size)
            else:
                written += region.write(0, self._parity_payload(name))
            self._staged[name] = v
        self.parity_bytes_written += written
        return written

    def commit(self) -> float:
        """Flush the parity store and flip the committed pointers."""
        cost = self.parity_ctx.nvmm.cache_flush()
        for name, v in self._staged.items():
            self.committed[name] = v
        self._staged.clear()
        self.parity_ctx.nvmm.store.put_meta(
            f"parity/{self.group_id}", {"committed": dict(self.committed)}
        )
        cost += self.parity_ctx.nvmm.cache_flush()
        return cost

    # ------------------------------------------------------------------
    # Reconstruction.
    # ------------------------------------------------------------------

    def reconstruct(self, lost_member: NVAllocator, chunk_name: str) -> np.ndarray:
        """Rebuild *lost_member*'s committed payload of *chunk_name*
        from the K-1 survivors plus the committed parity block."""
        if lost_member not in self.members:
            raise CheckpointError(f"{lost_member.pid!r} is not in parity group {self.group_id!r}")
        v = self.committed.get(chunk_name, -1)
        if v < 0:
            raise CheckpointError(
                f"no committed parity for chunk {chunk_name!r} in group {self.group_id!r}"
            )
        region = self.parity_ctx.nvmm.region(self.pid, self._region_name(chunk_name, v))
        parity = region.read(0, region.nbytes)
        survivors = self._parity_payload(chunk_name, exclude=lost_member)
        out = parity.copy()
        out[: len(survivors)] ^= survivors
        size = self._member_chunk(lost_member, chunk_name).nbytes
        return out[:size]

    @property
    def recovery_read_bytes(self) -> int:
        """Bytes that must be read to reconstruct one member: the
        survivors' data plus the parity (the replication scheme reads
        only the member's own size — erasure's recovery tax)."""
        total = 0
        for name in self._common_chunks():
            total += self._chunk_size(name) * len(self.members)  # K-1 survivors + parity
        return total

    @property
    def space_per_member_ratio(self) -> float:
        """Remote space relative to full replication: 1/K."""
        return 1.0 / len(self.members)
