"""One simulated compute node: context + ranks + checkpoint machinery.

A node owns a :class:`~repro.core.context.NodeContext` (devices, NVM
bus, CPU cores, kernel manager over its own persistent store) and the
per-rank state: allocator, application binding, local checkpointer.
The remote helper is attached by the cluster builder once buddies are
known.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..alloc.nvmalloc import NVAllocator
from ..apps.base import ApplicationModel, RankBinding
from ..config import CheckpointConfig, NodeConfig
from ..core.context import NodeContext, make_standalone_context
from ..core.engine import LocalCheckpointer
from ..core.remote import RemoteHelper
from ..memory.persistence import InMemoryStore
from ..metrics.timeline import Timeline
from ..net.interconnect import Fabric
from ..sim.engine import Engine

__all__ = ["ClusterNode", "RankState"]


@dataclass
class RankState:
    """Everything belonging to one application rank."""

    rank: str
    rank_index: int
    node_id: int
    allocator: NVAllocator
    binding: RankBinding
    checkpointer: LocalCheckpointer


class ClusterNode:
    """One node of the simulated testbed."""

    def __init__(
        self,
        node_id: int,
        engine: Engine,
        config: NodeConfig,
        *,
        nvm_write_bandwidth: Optional[float] = None,
    ) -> None:
        self.node_id = node_id
        self.engine = engine
        self.node_config = config
        self.nvm_write_bandwidth = nvm_write_bandwidth
        self.ctx: NodeContext = make_standalone_context(
            config=config,
            store=InMemoryStore(),
            engine=engine,
            name=f"n{node_id}",
            nvm_write_bandwidth=nvm_write_bandwidth,
        )
        self.ranks: List[RankState] = []
        self.helper: Optional[RemoteHelper] = None
        self.failed = False
        self.incarnation = 0

    # ------------------------------------------------------------------
    # Rank construction.
    # ------------------------------------------------------------------

    def add_rank(
        self,
        rank_index: int,
        app: ApplicationModel,
        ckpt_config: CheckpointConfig,
        *,
        fabric: Optional[Fabric] = None,
        neighbors=(),
        timeline: Optional[Timeline] = None,
        phantom: bool = True,
        destination_factory=None,
        tenant: str = "",
    ) -> RankState:
        """*destination_factory* is ``(ctx, rank, allocator) -> Destination``
        selecting the checkpoint backend (default: the node's NVM shadow
        arena).  *tenant* attributes the rank's checkpoint traffic in
        multi-tenant runs."""
        rank = f"r{rank_index}"
        allocator = NVAllocator(
            rank,
            self.ctx.nvmm,
            self.ctx.dram,
            two_versions=ckpt_config.two_versions,
            phantom=phantom,
            clock=lambda: self.engine.now,
        )
        binding = RankBinding(
            rank=rank,
            node_id=self.node_id,
            allocator=allocator,
            engine=self.engine,
            fabric=fabric,
            neighbors=neighbors,
            fault_cost=ckpt_config.precopy.fault_cost,
        )
        app.allocate(binding, rank_index)
        checkpointer = LocalCheckpointer(
            self.ctx,
            allocator,
            ckpt_config.precopy,
            destination=(
                destination_factory(self.ctx, rank, allocator)
                if destination_factory is not None
                else None
            ),
            timeline=timeline,
            with_checksums=ckpt_config.checksums,
            tenant=tenant,
        )
        state = RankState(
            rank=rank,
            rank_index=rank_index,
            node_id=self.node_id,
            allocator=allocator,
            binding=binding,
            checkpointer=checkpointer,
        )
        self.ranks.append(state)
        return state

    # ------------------------------------------------------------------
    # Failure handling.
    # ------------------------------------------------------------------

    def replace_hardware(self) -> None:
        """Hard failure: the node is swapped for a spare — fresh
        devices, fresh (empty) NVM store, fresh context.  All rank
        state must be rebuilt by the caller (the runner restores data
        from the buddy)."""
        self.incarnation += 1
        self.ctx = make_standalone_context(
            config=self.node_config,
            store=InMemoryStore(),
            engine=self.engine,
            name=f"n{self.node_id}v{self.incarnation}",
            nvm_write_bandwidth=self.nvm_write_bandwidth,
        )
        self.ranks = []
        self.helper = None
        self.failed = False

    def crash_volatile(self) -> None:
        """Soft failure: volatile state dies, NVM store survives
        (unflushed writes roll back)."""
        self.ctx.nvmm.store.crash()
        for state in self.ranks:
            self.ctx.nvmm.crash_process(state.rank)

    # ------------------------------------------------------------------
    # Accounting.
    # ------------------------------------------------------------------

    @property
    def checkpoint_bytes(self) -> int:
        return sum(s.allocator.checkpoint_bytes for s in self.ranks)

    def total_bytes_to_nvm(self) -> int:
        return sum(s.checkpointer.total_bytes_to_nvm for s in self.ranks)

    def total_coordinated_bytes(self) -> int:
        return sum(s.checkpointer.total_coordinated_bytes for s in self.ranks)

    def total_precopy_bytes(self) -> int:
        return sum(s.checkpointer.total_precopy_bytes for s in self.ranks)
