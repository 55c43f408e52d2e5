"""The cluster builder: engine + topology + fabric + populated nodes.

Mirrors the paper's testbed by default (8 nodes x 12 cores, 40 Gb/s
IB) but everything scales: rank count, NVM bandwidth (the Fig. 7-9
x-axis), intervals, pre-copy policy.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..apps.base import ApplicationModel
from ..config import CheckpointConfig, ClusterConfig
from ..core.remote import RemoteHelper
from ..errors import ClusterError
from ..metrics.timeline import Timeline
from ..net.interconnect import Fabric
from ..net.topology import Topology
from ..sim.engine import Engine
from ..sim.rng import RngStreams
from .node import ClusterNode, RankState

__all__ = ["Cluster"]


class Cluster:
    """A fully wired simulated testbed."""

    def __init__(
        self,
        config: Optional[ClusterConfig] = None,
        *,
        nvm_write_bandwidth: Optional[float] = None,
        seed: int = 0,
    ) -> None:
        self.config = config or ClusterConfig()
        self.engine = Engine()
        self.rng = RngStreams(seed)
        self.topology = Topology(self.config.nodes, self.config.racks)
        self.fabric = Fabric(self.engine, self.config.nodes, self.config.interconnect)
        self.timeline = Timeline()
        self.nodes: List[ClusterNode] = [
            ClusterNode(
                i,
                self.engine,
                self.config.node,
                nvm_write_bandwidth=nvm_write_bandwidth,
            )
            for i in range(self.config.nodes)
        ]
        self.app: Optional[ApplicationModel] = None
        self.ckpt_config: Optional[CheckpointConfig] = None
        self._built = False
        # the build's choices, reused when a hard failure rebuilds a
        # node (see :meth:`add_node`)
        self._n_nodes_used = self.config.nodes
        self._phantom = True
        self._destination_factory = None
        self._compression = None
        self._tenancy: Dict[str, str] = {}
        #: rank states and remote helpers a hard failure replaced: no
        #: longer part of the cluster, but the work they did before the
        #: failure stays in the run's totals
        self.retired_ranks: List[RankState] = []
        self.retired_helpers: List[RemoteHelper] = []

    # ------------------------------------------------------------------
    # Population.
    # ------------------------------------------------------------------

    def build(
        self,
        app: ApplicationModel,
        ckpt_config: CheckpointConfig,
        *,
        ranks_per_node: Optional[int] = None,
        n_nodes_used: Optional[int] = None,
        phantom: bool = True,
        with_remote: bool = True,
        pfs=None,
        compression=None,
        tenancy: Optional[Dict[str, str]] = None,
    ) -> "Cluster":
        """Distribute ranks over nodes and attach checkpoint machinery.

        ``ranks_per_node`` defaults to the node's core count minus one
        when a helper core is reserved (the paper dedicates a core to
        the checkpoint helper).

        ``pfs`` (a :class:`repro.baselines.pfs.PfsModel`) switches the
        coordinated checkpoints to the traditional PFS path: every rank
        writes through the globally shared I/O resource instead of its
        node-local NVM (the baseline the paper's introduction motivates
        against).

        ``tenancy`` maps rank names (``"r0"``, ``"r1"``, ...) to tenant
        names: each rank's checkpoint traffic — local engine, pre-copy
        and the remote helper stream — is stamped with its tenant on
        every ``chunk.copied``/``commit`` trace event, and the runner
        aggregates per-tenant byte/commit metering."""
        if self._built:
            raise ClusterError("cluster already built")
        self.app = app
        self.ckpt_config = ckpt_config
        n_nodes = n_nodes_used or self.config.nodes
        if n_nodes > self.config.nodes:
            raise ClusterError(f"{n_nodes} nodes requested, only {self.config.nodes} exist")
        if ranks_per_node is None:
            reserve = 1 if (ckpt_config.helper_core and with_remote) else 0
            ranks_per_node = self.config.node.cores - reserve
        self._n_nodes_used = n_nodes
        self._phantom = phantom
        if pfs is not None:
            from ..core.destination import PfsDestination

            self._destination_factory = (
                lambda ctx, rank, alloc: PfsDestination(pfs, rank, ctx, alloc)
            )
        self._compression = compression
        self._tenancy = dict(tenancy or {})
        for node in self.nodes[:n_nodes]:
            buddy_id = None
            if with_remote:
                buddy_id = self.topology.buddy_of(node.node_id)
                if buddy_id >= n_nodes:
                    buddy_id = (node.node_id + 1) % n_nodes
            first = node.node_id * ranks_per_node
            self.add_node(node, range(first, first + ranks_per_node), buddy_id)
        self._built = True
        return self

    def add_node(
        self,
        node: ClusterNode,
        rank_indices,
        buddy_id: Optional[int],
        *,
        resilience=None,
    ) -> None:
        """Give *node* the ranks *rank_indices* with the build's
        choices and, unless *buddy_id* is None, a remote helper paired
        with node *buddy_id*.  Used by :meth:`build` and by hard-failure
        recovery (which passes the node's retrying transport)."""
        neighbors = [
            n
            for n in self.topology.neighbors(node.node_id, degree=2)
            if n < self._n_nodes_used
        ]
        for rank_index in rank_indices:
            node.add_rank(
                rank_index,
                self.app,
                self.ckpt_config,
                fabric=self.fabric,
                neighbors=neighbors,
                timeline=self.timeline,
                phantom=self._phantom,
                destination_factory=self._destination_factory,
                tenant=self._tenancy.get(f"r{rank_index}", ""),
            )
        if buddy_id is None:
            return
        node.helper = RemoteHelper(
            node.node_id,
            node.ctx,
            self.fabric,
            buddy_id,
            self.nodes[buddy_id].ctx,
            [s.allocator for s in node.ranks],
            self.ckpt_config,
            timeline=self.timeline,
            compression=self._compression,
            resilience=resilience,
            tenants={
                s.rank: s.checkpointer.tenant for s in node.ranks if s.checkpointer.tenant
            },
        )
        # the remote stream's prediction rhythm follows each rank's
        # local checkpoints
        for state in node.ranks:
            state.checkpointer.on_complete.append(
                self._make_local_ckpt_hook(node, state.rank)
            )

    def _make_local_ckpt_hook(self, node: ClusterNode, rank: str):
        def hook(stats) -> None:
            if node.helper is not None:
                node.helper.notify_local_checkpoint(rank)

        return hook

    # ------------------------------------------------------------------
    # Access.
    # ------------------------------------------------------------------

    @property
    def active_nodes(self) -> List[ClusterNode]:
        return [n for n in self.nodes if n.ranks]

    def all_ranks(self) -> List[RankState]:
        out: List[RankState] = []
        for node in self.nodes:
            out.extend(node.ranks)
        return out

    @property
    def n_ranks(self) -> int:
        return sum(len(n.ranks) for n in self.nodes)

    def node_of_rank(self, rank: str) -> ClusterNode:
        for node in self.nodes:
            for s in node.ranks:
                if s.rank == rank:
                    return node
        raise ClusterError(f"unknown rank {rank!r}")

    def helpers(self) -> List[RemoteHelper]:
        return [n.helper for n in self.nodes if n.helper is not None]

    def ranks_ever(self) -> List[RankState]:
        """Every rank state that ran: the current ones, then the ones
        retired by hard failures."""
        return self.all_ranks() + self.retired_ranks

    def helpers_ever(self) -> List[RemoteHelper]:
        """Every remote helper that ran, current ones first."""
        return self.helpers() + self.retired_helpers

    # ------------------------------------------------------------------
    # Aggregate accounting.
    # ------------------------------------------------------------------

    def total_bytes_to_nvm(self) -> int:
        return sum(s.checkpointer.total_bytes_to_nvm for s in self.ranks_ever())

    def total_remote_bytes(self) -> int:
        return sum(h.total_remote_bytes for h in self.helpers_ever())

    def checkpoint_bytes(self) -> int:
        return sum(n.checkpoint_bytes for n in self.nodes)
