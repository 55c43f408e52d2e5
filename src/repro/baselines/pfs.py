"""Parallel-file-system checkpointing — the traditional baseline.

The paper's introduction motivates multi-level NVM checkpointing
against PFS-based checkpointing (citing its I/O-bandwidth limits and
contention, and Moody et al.'s 30-40% multilevel gains).  This module
models the PFS as what it is at checkpoint time: one *globally shared*
I/O resource all ranks contend on, plus per-operation metadata costs
(open/create on a shared metadata server).

``PfsModel`` is the shared substrate;
:class:`~repro.core.destination.PfsDestination` wraps it as a
checkpoint backend so the same coordinator code drives PFS-target
checkpoints.
"""

from __future__ import annotations

from ..sim.engine import Engine
from ..sim.events import Event
from ..sim.resources import BandwidthResource
from ..units import GB_per_sec, msec

__all__ = ["PfsModel"]


class PfsModel:
    """A cluster-wide parallel file system.

    * ``aggregate_bandwidth`` — total I/O bandwidth of the storage
      system, shared by *every* writer in the job (the defining
      difference from node-local NVM, whose bandwidth scales with
      nodes);
    * ``metadata_latency`` — per-file-operation cost on the metadata
      server (create/open at each checkpoint write).
    """

    def __init__(
        self,
        engine: Engine,
        aggregate_bandwidth: float = GB_per_sec(4.0),
        metadata_latency: float = msec(5.0),
        name: str = "pfs",
    ) -> None:
        self.engine = engine
        self.resource = BandwidthResource(engine, aggregate_bandwidth, name=name)
        self.metadata_latency = metadata_latency
        self.file_ops = 0

    def write(self, nbytes: float, tag: str = "") -> Event:
        """One checkpoint-file write: metadata op, then the data
        transfer through the shared pipe."""
        self.file_ops += 1
        done = self.engine.event(name=f"pfs.write({nbytes:.0f})")

        def start_transfer() -> None:
            ev = self.resource.transfer(nbytes, tag=tag)

            def finish(inner: Event) -> None:
                if inner.ok:
                    done.succeed(None)
                else:
                    done.fail(inner.exception)  # type: ignore[arg-type]

            ev.add_callback(finish)

        self.engine.call_at(self.engine.now + self.metadata_latency, start_transfer)
        return done

    @property
    def total_bytes(self) -> float:
        return self.resource.total_bytes
