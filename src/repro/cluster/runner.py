"""End-to-end experiment runner.

Drives a built :class:`~repro.cluster.cluster.Cluster` through N
application iterations with coordinated local checkpoints, background
remote checkpointing, and (optionally) injected failures with full
recovery:

* **soft failure** — the node's volatile state dies; after a reboot
  delay every rank reloads its committed checkpoint from node-local
  NVM (transfers simulated on the NVM buses) and the run rolls back to
  the last locally-committed iteration;
* **hard failure** — the node is replaced with fresh hardware; its
  ranks' state is fetched from the buddy's committed remote copies
  over the fabric, survivors reload locally, and the run rolls back to
  the last *remotely*-captured iteration (the K(I+t_lcl)/2 recompute
  term of §III);
* **transient failure** — a link flap: the node's checkpoint-path
  connectivity drops for the event's outage window and heals on its
  own.  No state is lost and the application keeps computing, but
  in-flight remote transfers tear down and the resilience layer
  (:mod:`repro.resilience`) must retry them.

When the checkpoint config's :class:`~repro.config.ResilienceConfig`
is enabled *and* failures are injected, the runner wires the
resilience layer in: per-node retrying transports around the helpers'
RDMA sends, buddy heartbeat monitors, a live
:class:`~repro.resilience.directory.BuddyDirectory` that re-pairs
orphaned nodes, paced background re-sync of committed chunks to the
new buddy, and per-node degraded-mode controllers that drop to
local-only checkpointing (with a model-re-solved interval) while a
node has no healthy remote target.

Simulation-scale note: in cluster runs chunks are *phantom* (sizes and
dirty state, no payloads) and soft restart reuses the in-memory rank
objects, charging the restart transfers; the object-level
crash-and-rebuild path is exercised by the functional API tests
instead.  Timing, traffic and rollback behaviour — what the paper's
evaluation measures — are fully simulated here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from ..config import FailureConfig, PrecopyPolicy
from ..errors import ClusterError, ProcessKilled
from ..metrics import timeline as tl
from ..sim.rng import RngStreams
from . import phases
from .cluster import Cluster
from .failures import FailureEvent, FailureInjector
from .mpi import Barrier
from .node import ClusterNode, RankState

__all__ = ["ClusterRunner", "RunResult"]

# Re-exported for backward compatibility: the recovery-phase logic
# (and its timing constants) lives in repro.cluster.phases.
SOFT_REBOOT_DELAY = phases.SOFT_REBOOT_DELAY
HARD_REPLACE_DELAY = phases.HARD_REPLACE_DELAY


@dataclass
class RunResult:
    """Everything a benchmark needs from one run."""

    app_name: str = ""
    policy_mode: str = ""
    remote_precopy: bool = False
    n_ranks: int = 0
    n_nodes: int = 0
    iterations: int = 0
    total_time: float = 0.0
    #: pure-compute seconds per iteration (the app model's target)
    compute_per_iteration: float = 0.0

    # -- local checkpointing --
    coordinated_bytes: int = 0
    local_precopy_bytes: int = 0
    #: coordinated bytes page-granular extents did NOT move
    bytes_saved: int = 0
    total_nvm_bytes: int = 0
    local_ckpt_time_avg: float = 0.0  # mean coordinated duration per rank-ckpt
    local_ckpt_time_total: float = 0.0  # T_lcl averaged over ranks
    local_checkpoints: int = 0
    fault_time_total: float = 0.0

    # -- remote checkpointing --
    remote_rounds: int = 0
    remote_round_bytes: int = 0
    remote_precopy_bytes: int = 0
    helper_utilization: float = 0.0
    rounds_behind: int = 0

    # -- fabric --
    fabric_peak_window_bytes: float = 0.0
    #: peak per-window volume of checkpoint traffic only (Fig. 10)
    fabric_ckpt_peak_window_bytes: float = 0.0
    fabric_app_bytes: float = 0.0
    fabric_ckpt_bytes: float = 0.0
    #: checkpoint-traffic bytes per window over the run (Fig. 10 series)
    fabric_series: List[Tuple[float, float]] = field(default_factory=list)

    # -- failures --
    soft_failures: int = 0
    hard_failures: int = 0
    transient_failures: int = 0
    recovery_time: float = 0.0
    iterations_recomputed: int = 0

    # -- resilience layer --
    #: retried transfer attempts across all node transports
    transfer_retries: int = 0
    #: transfers that exhausted their retry budget
    transfers_abandoned: int = 0
    #: per-attempt stall timeouts that cancelled and re-issued a flow
    transfer_timeouts: int = 0
    heartbeats_sent: int = 0
    #: buddy down-transitions observed by the health monitors
    buddy_down_detections: int = 0
    #: orphan re-pairings performed by the buddy directory
    buddy_repairs: int = 0
    resyncs_completed: int = 0
    resync_bytes: int = 0
    degraded_entries: int = 0
    degraded_time_total: float = 0.0

    # -- online policy autotuning --
    autotune_switches: int = 0
    autotune_nudges: int = 0
    #: final per-rank policy modes, comma-joined and deduplicated
    autotune_final_policy: str = ""

    # -- payload codec (delta/dedup representation layer) --
    #: set when a non-raw codec was configured; gates the extra
    #: ``codec`` block in :meth:`to_dict` so raw runs (goldens, caches,
    #: sweeps) stay byte-identical
    codec: bool = False
    codec_name: str = "raw"
    #: pre-encoding bytes the copy paths would have moved raw
    codec_logical_bytes: int = 0
    #: bytes actually charged to the NVM bus / fabric
    codec_wire_bytes: int = 0
    #: delta payloads' genuinely-changed bytes
    codec_delta_bytes: int = 0
    codec_blocks_new: int = 0
    codec_blocks_ref: int = 0

    # -- elastic membership / live migration --
    #: set when the run had a membership schedule; gates the extra
    #: ``membership`` block in :meth:`to_dict` so runs without elastic
    #: membership (goldens, caches, sweeps) stay byte-identical
    elastic: bool = False
    membership_joins: int = 0
    membership_drains: int = 0
    membership_departs: int = 0
    migrations_planned: int = 0
    migrations_completed: int = 0
    migrations_aborted: int = 0
    migration_batches: int = 0
    migration_bytes: int = 0
    #: batches delayed because checkpoint latency neared the SLO
    migration_slo_pauses: int = 0
    migration_throttled_batches: int = 0
    #: worst per-interval coordinated-checkpoint latency observed
    migration_max_ckpt_latency: float = 0.0
    #: re-sync tasks that exhausted their failure budget (node left
    #: degraded) — also surfaced as ``resync.aborted`` trace events
    resyncs_aborted: int = 0

    # -- multi-tenant metering --
    #: set when any rank carried a tenant label; gates the extra
    #: ``tenants`` block in :meth:`to_dict` so untenanted runs
    #: (goldens, caches, sweeps) stay byte-identical
    tenants: bool = False
    #: tenant -> {ranks, checkpoints, coordinated_bytes, precopy_bytes,
    #: bytes_saved} aggregated over the tenant's ranks
    tenant_metering: Dict[str, Dict[str, float]] = field(default_factory=dict)

    # -- engine throughput --
    #: DES items (events + callbacks) the engine dispatched for this
    #: run.  Host-dependent denominator for the bench ``scale`` block;
    #: deliberately NOT part of ``to_dict()`` so cached records, sweep
    #: CSVs and golden fixtures stay byte-identical across hosts.
    sim_events: int = 0

    timeline: object = None

    @property
    def ideal_time(self) -> float:
        """Lower bound: compute only, no checkpoints/contention."""
        return self.iterations * self.compute_per_iteration

    def efficiency_vs(self, ideal: "RunResult") -> float:
        """The paper's efficiency metric: ideal runtime / actual."""
        if self.total_time <= 0:
            return 0.0
        return ideal.total_time / self.total_time

    @property
    def checkpoint_overhead_fraction(self) -> float:
        """(actual - ideal) / ideal against the analytic lower bound."""
        ideal = self.ideal_time
        if ideal <= 0:
            return 0.0
        return (self.total_time - ideal) / ideal

    def to_dict(self) -> dict:
        """JSON-friendly summary of the run — the canonical record the
        execution engine caches, shards and flattens into sweep CSVs."""
        from ..units import to_GB, to_MB

        out = {
            "app": self.app_name,
            "policy": self.policy_mode,
            "remote_precopy": self.remote_precopy,
            "n_nodes": self.n_nodes,
            "n_ranks": self.n_ranks,
            "iterations": self.iterations,
            "total_time_s": self.total_time,
            "ideal_time_s": self.ideal_time,
            "overhead_fraction": self.checkpoint_overhead_fraction,
            "local": {
                "checkpoints": self.local_checkpoints,
                "avg_blocking_s": self.local_ckpt_time_avg,
                "coordinated_gb": to_GB(self.coordinated_bytes),
                "precopy_gb": to_GB(self.local_precopy_bytes),
                "saved_gb": to_GB(self.bytes_saved),
                "fault_time_s": self.fault_time_total,
            },
            "remote": {
                "rounds": self.remote_rounds,
                "round_gb": to_GB(self.remote_round_bytes),
                "stream_gb": to_GB(self.remote_precopy_bytes),
                "helper_utilization": self.helper_utilization,
            },
            "fabric": {
                "ckpt_peak_1s_mb": to_MB(self.fabric_ckpt_peak_window_bytes),
                "app_gb": to_GB(self.fabric_app_bytes),
                "ckpt_gb": to_GB(self.fabric_ckpt_bytes),
            },
            "failures": {
                "soft": self.soft_failures,
                "hard": self.hard_failures,
                "transient": self.transient_failures,
                "recovery_s": self.recovery_time,
                "iterations_recomputed": self.iterations_recomputed,
            },
            "resilience": {
                "transfer_retries": self.transfer_retries,
                "transfer_timeouts": self.transfer_timeouts,
                "transfers_abandoned": self.transfers_abandoned,
                "heartbeats": self.heartbeats_sent,
                "buddy_down_detections": self.buddy_down_detections,
                "buddy_repairs": self.buddy_repairs,
                "resyncs_completed": self.resyncs_completed,
                "resync_gb": to_GB(self.resync_bytes),
                "degraded_entries": self.degraded_entries,
                "degraded_time_s": self.degraded_time_total,
            },
            "autotune": {
                "switches": self.autotune_switches,
                "nudges": self.autotune_nudges,
                "final_policy": self.autotune_final_policy,
            },
        }
        if self.codec:
            blocks = self.codec_blocks_new + self.codec_blocks_ref
            out["codec"] = {
                "name": self.codec_name,
                "logical_gb": to_GB(self.codec_logical_bytes),
                "wire_gb": to_GB(self.codec_wire_bytes),
                "saved_gb": to_GB(
                    max(0, self.codec_logical_bytes - self.codec_wire_bytes)
                ),
                "delta_changed_gb": to_GB(self.codec_delta_bytes),
                "blocks_new": self.codec_blocks_new,
                "blocks_ref": self.codec_blocks_ref,
                "dedup_hit_rate": self.codec_blocks_ref / blocks if blocks else 0.0,
            }
        if self.elastic:
            out["membership"] = {
                "joins": self.membership_joins,
                "drains": self.membership_drains,
                "departs": self.membership_departs,
                "migrations_planned": self.migrations_planned,
                "migrations_completed": self.migrations_completed,
                "migrations_aborted": self.migrations_aborted,
                "migration_batches": self.migration_batches,
                "migration_gb": to_GB(self.migration_bytes),
                "slo_pauses": self.migration_slo_pauses,
                "throttled_batches": self.migration_throttled_batches,
                "max_ckpt_latency_s": self.migration_max_ckpt_latency,
                "resyncs_aborted": self.resyncs_aborted,
            }
        if self.tenants:
            out["tenants"] = {
                name: {
                    "ranks": int(m["ranks"]),
                    "checkpoints": int(m["checkpoints"]),
                    "coordinated_gb": to_GB(m["coordinated_bytes"]),
                    "precopy_gb": to_GB(m["precopy_bytes"]),
                    "saved_gb": to_GB(m["bytes_saved"]),
                }
                for name, m in sorted(self.tenant_metering.items())
            }
        return out


class ClusterRunner:
    """Drives one cluster through one experiment."""

    def __init__(
        self,
        cluster: Cluster,
        *,
        local_checkpoints: bool = True,
        failure_config: Optional[FailureConfig] = None,
        fail_until_iteration: Optional[int] = None,
        archive=None,
        injector=None,
        membership=None,
    ) -> None:
        if cluster.app is None or cluster.ckpt_config is None:
            raise ClusterError("cluster must be built before running")
        self.cluster = cluster
        self.app = cluster.app
        self.ckpt_config = cluster.ckpt_config
        self.local_checkpoints = local_checkpoints
        self.failure_config = failure_config
        self.fail_until_iteration = fail_until_iteration
        #: optional third-tier archiver (repro.core.archive.ArchiveTier)
        self.archive = archive
        #: ``injector`` accepts any object with the FailureInjector
        #: surface (peek/next_failure/injected) — e.g. a
        #: :class:`~repro.cluster.failures.ScriptedInjector`
        self.injector = injector
        if self.injector is None and failure_config is not None:
            self.injector = FailureInjector(
                failure_config,
                len(cluster.active_nodes),
                RngStreams(failure_config.seed),
            )
        self.barrier = Barrier(cluster.engine, cluster.n_ranks, name="ckpt-barrier")
        self.committed_iteration = 0
        self._committed_log: List[Tuple[float, int]] = [(0.0, 0)]
        self.recovery_time = 0.0
        self.iterations_recomputed = 0
        self.soft_failures = 0
        self.hard_failures = 0
        self.transient_failures = 0
        self._end_time = None
        self._bg_procs = []
        #: per-rank OnlinePolicyTuner instances (autotuned runs only)
        self.tuners: List = []
        # -- resilience layer (wired in _start_background when enabled) --
        self.directory = None
        self.transports: Dict[int, object] = {}
        self.monitors: Dict[int, object] = {}
        self.controllers: Dict[int, object] = {}
        self._resyncing: Dict[int, object] = {}
        self._deferred_orphans: List[int] = []
        #: cached peeked failure so interleaved segment restarts never
        #: skip or duplicate an injector event
        self._pending_failure: Optional[FailureEvent] = None
        self.resyncs_completed = 0
        self.resync_bytes = 0
        self.resyncs_aborted = 0
        # -- elastic membership / live migration --
        #: planned join/drain schedule (sequence of MembershipEvent)
        self._membership_schedule = list(membership) if membership else []
        self.membership_controller = None
        self.slo_guard = None
        self._migrations: List = []
        self.migrations_completed = 0
        self.migrations_aborted = 0
        self.migration_bytes_total = 0

    @property
    def resilience_active(self) -> bool:
        """The resilience layer only activates for runs that inject
        failures or play a membership schedule: without either there is
        nothing to survive or rebalance and the run stays byte-identical
        to the pre-resilience runner."""
        return (
            (self.injector is not None or bool(self._membership_schedule))
            and self.ckpt_config.resilience.enabled
            and any(n.helper is not None for n in self.cluster.active_nodes)
        )

    @property
    def migration_enabled(self) -> bool:
        """Live migration / incremental-failover bookkeeping is opt-in
        (``resilience.migration.enabled``) so the default failover path
        stays byte-identical to the pre-migration runner."""
        return (
            self.directory is not None
            and self.ckpt_config.resilience.migration.enabled
        )

    # ------------------------------------------------------------------
    # Public entry point.
    # ------------------------------------------------------------------

    def run(self, iterations: int) -> RunResult:
        engine = self.cluster.engine
        self._start_background()
        job = engine.process(self._job(iterations), name="job")
        # if the job dies (bug or unhandled failure), make sure the
        # background timers stop so engine.run() can drain
        job.add_callback(lambda ev: self._stop_background())
        engine.run()
        if not job.ok:
            raise job.exception  # type: ignore[misc]
        for proc in self._bg_procs:
            if proc.triggered and not proc.ok and not isinstance(
                proc.exception, ProcessKilled
            ):
                raise proc.exception  # a background helper died
        return self._collect(iterations)

    # ------------------------------------------------------------------
    # Background machinery.
    # ------------------------------------------------------------------

    def _start_background(self) -> None:
        engine = self.cluster.engine
        if self.local_checkpoints:
            for state in self.cluster.all_ranks():
                state.checkpointer.start_background()
            acfg = getattr(self.ckpt_config, "autotune", None)
            if acfg is not None and acfg.enabled and not self.tuners:
                from ..core.autotune import OnlinePolicyTuner

                for i, state in enumerate(self.cluster.all_ranks()):
                    tuner = OnlinePolicyTuner.from_config(
                        state.checkpointer, acfg, seed_offset=i
                    )
                    self.tuners.append(tuner.attach())
        for node in self.cluster.active_nodes:
            if node.helper is not None:
                self._bg_procs.append(
                    engine.process(node.helper.run(), name=f"{node.helper.owner}:rounds")
                )
        if self.resilience_active:
            self._start_resilience()
        if self._membership_schedule and self.directory is not None:
            self._start_membership()
        if self.archive is not None:
            self._bg_procs.append(engine.process(self.archive.run(), name="archive"))

    def _start_resilience(self) -> None:
        from ..resilience import (
            BuddyDirectory,
            DegradedModeController,
            HealthMonitor,
            ResilientTransport,
            RetryPolicy,
        )

        engine = self.cluster.engine
        rcfg = self.ckpt_config.resilience
        policy = RetryPolicy.from_config(rcfg)
        participants = [
            n.node_id for n in self.cluster.active_nodes if n.helper is not None
        ]
        self.directory = BuddyDirectory(self.cluster.topology, participants)
        for node in self.cluster.active_nodes:
            if node.helper is None:
                continue
            nid = node.node_id
            # the directory mirrors the pairing the cluster actually
            # built (Cluster.build and BuddyDirectory share the same
            # fallback rule, but the helper is the source of truth)
            self.directory._buddy[nid] = node.helper.buddy_id
            transport = ResilientTransport(nid, self.cluster.rng, policy)
            self.transports[nid] = transport
            node.helper.resilience = transport
            self.controllers[nid] = DegradedModeController(
                nid,
                clock=lambda: engine.now,
                normal_interval=self.ckpt_config.local_interval,
                solve_interval=self._make_degraded_solver(nid),
                timeline=self.cluster.timeline,
                on_enter=self._make_interval_hook(nid),
                on_exit=self._make_interval_hook(nid),
            )
            monitor = HealthMonitor(
                nid,
                node.helper.buddy_id,
                self.cluster.fabric,
                interval=rcfg.heartbeat_interval,
                timeout=rcfg.heartbeat_timeout,
                miss_threshold=rcfg.heartbeat_miss_threshold,
                payload_bytes=rcfg.heartbeat_bytes,
                on_down=self._make_on_down(nid),
                on_up=self._make_on_up(nid),
            )
            self.monitors[nid] = monitor
            self._bg_procs.append(engine.process(monitor.run(), name=f"n{nid}:hb"))

    def _start_membership(self) -> None:
        from ..resilience.migration import MigrationPlanner, SloGuard
        from .membership import MembershipController

        engine = self.cluster.engine
        mcfg = self.ckpt_config.resilience.migration
        self.slo_guard = SloGuard(
            latency_slo=mcfg.slo_checkpoint_latency,
            risk_fraction=mcfg.slo_risk_fraction,
            throttle_fraction=mcfg.slo_throttle_fraction,
        )
        for state in self.cluster.all_ranks():
            self._attach_slo_observer(state)
        planner = None
        launch = None
        if mcfg.enabled:
            planner = MigrationPlanner(
                self.directory,
                fits=lambda orphan, cand, pending: phases.buddy_capacity_ok(
                    self, orphan, cand, pending
                ),
            )
            launch = lambda plan, done: phases.start_migration(self, plan, done)
        self.membership_controller = MembershipController(
            engine,
            self.directory,
            self._membership_schedule,
            planner=planner,
            launch_migration=launch,
        )
        self._bg_procs.append(
            engine.process(self.membership_controller.run(), name="membership")
        )

    def _attach_slo_observer(self, state) -> None:
        """Feed every coordinated-checkpoint duration of this rank into
        the SLO guard (re-attached for replacement ranks after a hard
        failure)."""
        guard = self.slo_guard
        if guard is None:
            return
        state.checkpointer.on_complete.append(
            lambda stats, g=guard: g.observe(stats.duration)
        )

    def _make_interval_hook(self, node_id: int):
        """Apply a (degraded or restored) local interval to the node's
        checkpoint machinery — the helper's pacing config follows it."""

        def apply(interval: float) -> None:
            node = self.cluster.nodes[node_id]
            if node.helper is not None:
                node.helper.config = replace(
                    node.helper.config, local_interval=interval
                )

        return apply

    def _make_degraded_solver(self, node_id: int):
        """Re-solve the local interval for local-only operation from
        the §III model with this run's actual parameters."""

        def solve() -> float:
            normal = self.ckpt_config.local_interval
            rcfg = self.ckpt_config.resilience
            node = self.cluster.nodes[node_id]
            try:
                from ..models.notation import ModelParams
                from ..resilience.degraded import degraded_local_interval

                fc = self.failure_config
                ckpt_bytes = max(
                    (s.allocator.checkpoint_bytes for s in node.ranks), default=0
                )
                nvm_bw = (
                    node.nvm_write_bandwidth
                    or self.cluster.config.node.nvm.write_bandwidth
                )
                params = ModelParams(
                    compute_time=max(1.0, self.app.iteration_compute_time) * 100.0,
                    checkpoint_bytes=max(1.0, float(ckpt_bytes)),
                    nvm_bw_per_core=nvm_bw,
                    remote_bw=self.cluster.config.interconnect.effective_bandwidth,
                    local_interval=normal,
                    remote_interval=self.ckpt_config.remote_interval,
                    mtbf_local=fc.mtbf_local if fc is not None else 3600.0,
                    mtbf_remote=fc.mtbf_remote if fc is not None else 14400.0,
                )
                return degraded_local_interval(
                    params, min_interval=rcfg.degraded_min_interval
                )
            except (ValueError, ZeroDivisionError):
                return max(rcfg.degraded_min_interval, normal / 2.0)

        return solve

    def _make_on_down(self, node_id: int):
        """Heartbeat monitor declared the buddy unreachable: drop to
        local-only checkpointing until it comes back or a re-pair +
        re-sync completes.  Idempotent vs. the runner's own (omniscient)
        hard-failure handling."""

        def on_down(buddy_id: int) -> None:
            ctrl = self.controllers.get(node_id)
            if ctrl is not None:
                ctrl.enter("buddy-unreachable")
            helper = self.cluster.nodes[node_id].helper
            if helper is not None:
                helper.pause_rounds()

        return on_down

    def _make_on_up(self, node_id: int):
        def on_up(buddy_id: int) -> None:
            if node_id in self._resyncing:
                # a re-sync owns the recovery; it exits degraded mode
                # itself when the chunks are re-covered
                return
            ctrl = self.controllers.get(node_id)
            if ctrl is not None:
                ctrl.exit()
            helper = self.cluster.nodes[node_id].helper
            if helper is not None:
                helper.resume_rounds()

        return on_up

    def _stop_background(self) -> None:
        for tuner in self.tuners:
            tuner.detach()
        for state in self.cluster.all_ranks():
            state.checkpointer.stop_background()
        for node in self.cluster.active_nodes:
            if node.helper is not None:
                node.helper.stop()
        for monitor in self.monitors.values():
            monitor.stop()
        if self.archive is not None:
            self.archive.stop()

    # ------------------------------------------------------------------
    # The job loop.
    # ------------------------------------------------------------------

    def _job(self, iterations: int):
        engine = self.cluster.engine
        it = 0
        while it < iterations:
            procs = [
                engine.process(self._segment(state, it), name=f"{state.rank}.it{it}")
                for state in self.cluster.all_ranks()
            ]
            seg_done = engine.all_of(procs)
            restart_segment = False
            while not restart_segment:
                waits = [seg_done]
                next_fail: Optional[FailureEvent] = None
                if self.injector is not None and (
                    self.fail_until_iteration is None or it < self.fail_until_iteration
                ):
                    # cache the peeked event: segment restarts and
                    # transient handling must neither skip nor
                    # duplicate injector draws
                    if self._pending_failure is None:
                        self._pending_failure = self.injector.peek()
                    next_fail = self._pending_failure
                    if not math.isfinite(next_fail.time):
                        # ScriptedInjector exhausted: never arm a timer
                        # at t=inf (it would drag the engine clock out)
                        next_fail = None
                    elif next_fail.time > engine.now:
                        waits.append(engine.timeout(next_fail.time - engine.now))
                    # a failure "due" in the past fires immediately
                    else:
                        waits.append(engine.timeout(0.0))
                idx, _ = yield engine.any_of(waits)
                if idx == 0:
                    it += 1
                    if self.local_checkpoints:
                        self.committed_iteration = it
                        self._committed_log.append((engine.now, it))
                    break
                assert next_fail is not None
                self.injector.next_failure()  # consume the event
                self._pending_failure = None
                if next_fail.is_transient:
                    # the application keeps computing through a link
                    # flap; only the checkpoint path is affected
                    self._apply_transient(next_fail)
                    continue
                yield from self._handle_failure(next_fail, procs)
                it = self.committed_iteration
                restart_segment = True
        for ctrl in self.controllers.values():
            ctrl.finalize()
        # record the finish line *before* winding background timers
        # down (their final timer ticks advance virtual time past the
        # application's end otherwise)
        self._end_time = self.cluster.engine.now
        self._stop_background()
        return it

    def _segment(self, state: RankState, iteration: int):
        """One rank's iteration segment (see :func:`phases.segment`)."""
        return phases.segment(self, state, iteration)

    # ------------------------------------------------------------------
    # Failure handling — the phase logic lives in repro.cluster.phases;
    # these thin delegates keep the historical method surface.
    # ------------------------------------------------------------------

    def _apply_transient(self, ev: FailureEvent) -> None:
        phases.apply_transient(self, ev)

    def _handle_failure(self, ev: FailureEvent, procs):
        return phases.handle_failure(self, ev, procs)

    def _buddy_capacity_ok(self, orphan_id: int, candidate_id: int) -> bool:
        return phases.buddy_capacity_ok(self, orphan_id, candidate_id)

    def _orphan_failover(self, dead: ClusterNode) -> None:
        phases.orphan_failover(self, dead)

    def _repair_orphan(self, orphan_id: int, new_buddy: int) -> None:
        phases.repair_orphan(self, orphan_id, new_buddy)

    def _resync_proc(self, node_id: int, task):
        return phases.resync_proc(self, node_id, task)

    def _recover_soft(self, node: ClusterNode):
        return phases.recover_soft(self, node)

    def _fetch_source_for(self, node: ClusterNode, old_helper) -> int:
        return phases.fetch_source_for(self, node, old_helper)

    def _recover_hard(self, node: ClusterNode):
        return phases.recover_hard(self, node)

    # ------------------------------------------------------------------
    # Result collection.
    # ------------------------------------------------------------------

    def _collect(self, iterations: int) -> RunResult:
        cluster = self.cluster
        engine = cluster.engine
        ranks = cluster.all_ranks()
        n_ranks = len(ranks)
        res = RunResult(
            app_name=self.app.name,
            policy_mode=self.ckpt_config.precopy.mode,
            remote_precopy=self.ckpt_config.remote_precopy,
            n_ranks=n_ranks,
            n_nodes=len(cluster.active_nodes),
            iterations=iterations,
            total_time=engine.now if self._end_time is None else self._end_time,
            compute_per_iteration=self.app.iteration_compute_time,
            sim_events=engine.events_processed,
            timeline=cluster.timeline,
        )
        # local: the totals count the work of ranks a hard failure
        # replaced too (their slot's time is shared by old and new)
        worked = cluster.ranks_ever()
        all_stats = [s for state in worked for s in state.checkpointer.history]
        res.local_checkpoints = len(all_stats)
        res.coordinated_bytes = sum(state.checkpointer.total_coordinated_bytes for state in worked)
        res.local_precopy_bytes = sum(state.checkpointer.total_precopy_bytes for state in worked)
        res.bytes_saved = sum(state.checkpointer.total_bytes_saved for state in worked)
        res.total_nvm_bytes = res.coordinated_bytes + res.local_precopy_bytes
        if all_stats:
            res.local_ckpt_time_avg = sum(s.duration for s in all_stats) / len(all_stats)
        res.local_ckpt_time_total = (
            sum(state.checkpointer.total_checkpoint_time for state in worked) / max(1, n_ranks)
        )
        res.fault_time_total = sum(state.binding.fault_time for state in worked)
        # multi-tenant metering: aggregate the per-rank counters by the
        # tenant label stamped at build time (untenanted ranks meter
        # under "" only if mixed with labelled ones)
        if any(state.checkpointer.tenant for state in ranks):
            res.tenants = True
            for state in worked:
                ck = state.checkpointer
                m = res.tenant_metering.setdefault(
                    ck.tenant,
                    {
                        "ranks": 0,
                        "checkpoints": 0,
                        "coordinated_bytes": 0,
                        "precopy_bytes": 0,
                        "bytes_saved": 0,
                    },
                )
                m["checkpoints"] += len(ck.history)
                m["coordinated_bytes"] += ck.total_coordinated_bytes
                m["precopy_bytes"] += ck.total_precopy_bytes
                m["bytes_saved"] += ck.total_bytes_saved
            for state in ranks:
                res.tenant_metering[state.checkpointer.tenant]["ranks"] += 1
        # remote (utilization: the current helpers only)
        helpers = cluster.helpers()
        worked_helpers = cluster.helpers_ever()
        res.remote_rounds = sum(len(h.history) for h in worked_helpers)
        res.remote_round_bytes = sum(h.total_round_bytes for h in worked_helpers)
        res.remote_precopy_bytes = sum(h.total_precopy_bytes for h in worked_helpers)
        res.rounds_behind = sum(h.rounds_behind for h in worked_helpers)
        t_end = engine.now if self._end_time is None else self._end_time
        if helpers and t_end > 0:
            res.helper_utilization = sum(
                h.helper_utilization(t_end) for h in helpers
            ) / len(helpers)
        # payload codec (local engines + remote helpers share counters)
        codec_on = [
            s.codec
            for s in [state.checkpointer for state in worked] + worked_helpers
            if getattr(s, "codec", None) is not None
        ]
        if codec_on:
            res.codec = True
            res.codec_name = codec_on[0].name
            res.codec_logical_bytes = sum(c.logical_bytes for c in codec_on)
            res.codec_wire_bytes = sum(c.wire_bytes for c in codec_on)
            res.codec_delta_bytes = sum(c.delta_bytes for c in codec_on)
            res.codec_blocks_new = sum(c.blocks_new for c in codec_on)
            res.codec_blocks_ref = sum(c.blocks_ref for c in codec_on)
        # fabric
        CKPT_KINDS = ["rckpt", "rprecopy", "rfetch", "resync", "migrate"]
        res.fabric_peak_window_bytes = cluster.fabric.peak_window_usage(1.0, t_end)
        res.fabric_ckpt_peak_window_bytes = cluster.fabric.peak_window_usage(
            1.0, t_end, kinds=CKPT_KINDS
        )
        res.fabric_app_bytes = cluster.fabric.total_bytes(":app")
        res.fabric_ckpt_bytes = (
            cluster.fabric.total_bytes(":rckpt") + cluster.fabric.total_bytes(":rprecopy")
        )
        res.fabric_series = cluster.fabric.windowed_usage(
            max(1.0, t_end / 200), t_end, kinds=CKPT_KINDS
        )
        # failures
        res.soft_failures = self.soft_failures
        res.hard_failures = self.hard_failures
        res.transient_failures = self.transient_failures
        res.recovery_time = self.recovery_time
        res.iterations_recomputed = self.iterations_recomputed
        # resilience
        for transport in self.transports.values():
            res.transfer_retries += transport.stats.retries
            res.transfer_timeouts += transport.stats.timeouts
            res.transfers_abandoned += transport.stats.abandoned
        for monitor in self.monitors.values():
            res.heartbeats_sent += monitor.stats.beats
            res.buddy_down_detections += monitor.stats.detections
        for ctrl in self.controllers.values():
            res.degraded_entries += ctrl.entries
            res.degraded_time_total += ctrl.degraded_time
        if self.directory is not None:
            res.buddy_repairs = len(self.directory.repairs)
        res.resyncs_completed = self.resyncs_completed
        res.resync_bytes = self.resync_bytes
        res.resyncs_aborted = self.resyncs_aborted
        # elastic membership / live migration
        ctrl = self.membership_controller
        if ctrl is not None:
            res.elastic = True
            res.membership_joins = ctrl.joins
            res.membership_drains = ctrl.drains
            res.membership_departs = ctrl.departs
            res.migrations_planned = ctrl.plans_issued
        res.migrations_completed = self.migrations_completed
        res.migrations_aborted = self.migrations_aborted
        res.migration_bytes = self.migration_bytes_total
        res.migration_batches = sum(t.batches for t in self._migrations)
        res.migration_slo_pauses = sum(t.slo_pauses for t in self._migrations)
        res.migration_throttled_batches = sum(
            t.throttled_batches for t in self._migrations
        )
        if self.slo_guard is not None:
            res.migration_max_ckpt_latency = self.slo_guard.max_latency
        # autotuning
        if self.tuners:
            res.autotune_switches = sum(len(t.switches) for t in self.tuners)
            res.autotune_nudges = sum(t.nudges for t in self.tuners)
            res.autotune_final_policy = ",".join(
                sorted({t.current for t in self.tuners})
            )
        return res
