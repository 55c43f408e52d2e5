"""Per-phase logic of a cluster run.

The orchestration shell — process lifecycle, the job loop, background
machinery, result collection — lives in
:mod:`repro.cluster.runner`.  This module holds what happens *inside*
a run: the compute/barrier/checkpoint segment every rank executes each
iteration, and the failure phases (transient outage, soft reboot, hard
replace, orphan re-pairing and background re-sync).

Every function takes the :class:`~repro.cluster.runner.ClusterRunner`
as its first argument and operates on its state; the runner exposes
thin delegating methods so existing callers (and tests) are
unaffected.  Generator functions are DES fragments — drive them with
``yield from``.
"""

from __future__ import annotations

from ..metrics import timeline as tl
from .failures import FailureEvent
from .node import ClusterNode, RankState

__all__ = [
    "SOFT_REBOOT_DELAY",
    "HARD_REPLACE_DELAY",
    "segment",
    "apply_transient",
    "handle_failure",
    "buddy_capacity_ok",
    "orphan_failover",
    "repair_orphan",
    "resync_proc",
    "start_migration",
    "migration_proc",
    "recover_soft",
    "fetch_source_for",
    "recover_hard",
]

#: seconds a node takes to reboot after a soft failure before it can
#: fetch its checkpoint (OS + process respawn).
SOFT_REBOOT_DELAY = 5.0
#: seconds to swap in replacement hardware after a hard failure.
HARD_REPLACE_DELAY = 30.0


# ----------------------------------------------------------------------
# The per-iteration segment.
# ----------------------------------------------------------------------


def segment(runner, state: RankState, iteration: int):
    """One rank's iteration: compute (+writes +communication), a
    global barrier, then the coordinated local checkpoint."""
    t0 = runner.cluster.engine.now
    yield from runner.app.compute_iteration(state.binding, iteration)
    runner.cluster.timeline.record(
        state.rank, tl.COMPUTE, t0, runner.cluster.engine.now
    )
    yield runner.barrier.wait()
    if runner.local_checkpoints:
        yield from state.checkpointer.checkpoint(blocking=False)


# ----------------------------------------------------------------------
# Failure phases.
# ----------------------------------------------------------------------


def apply_transient(runner, ev: FailureEvent) -> None:
    """A link flap on one node's checkpoint path: fail its in-flight
    checkpoint transfers, fail-fast new ones, and schedule the heal."""
    engine = runner.cluster.engine
    fabric = runner.cluster.fabric
    runner.transient_failures += 1
    node_id = ev.node
    fabric.begin_outage(node_id)
    end = engine.now + ev.duration
    engine.call_at(end, lambda: fabric.end_outage(node_id))
    if runner.cluster.timeline is not None:
        runner.cluster.timeline.record(f"n{node_id}", tl.OUTAGE, engine.now, end)


def handle_failure(runner, ev: FailureEvent, procs):
    engine = runner.cluster.engine
    t0 = engine.now
    node = runner.cluster.nodes[ev.node]
    # stop the world: kill rank processes, break the barrier, tear
    # down in-flight traffic
    for p in procs:
        p.kill()
    runner.barrier.reset()
    for n in runner.cluster.active_nodes:
        n.ctx.nvm_bus.cancel_matching(None)
    for lp in runner.cluster.fabric.links:
        lp.egress.cancel_matching(None)
        lp.ingress.cancel_matching(None)
    for state in runner.cluster.all_ranks():
        if state.checkpointer.precopy is not None:
            state.checkpointer.precopy.pause()
    if ev.kind == "soft":
        runner.soft_failures += 1
        yield from recover_soft(runner, node)
        rollback = runner.committed_iteration
    else:
        runner.hard_failures += 1
        if runner.directory is not None:
            runner.directory.mark_failed(node.node_id)
            # until the replacement boots, the node is unreachable
            # on the checkpoint path (heartbeats to it fail fast)
            runner.cluster.fabric.begin_outage(node.node_id)
            orphan_failover(runner, node)
        rollback = yield from recover_hard(runner, node)
    runner.iterations_recomputed += max(0, runner.committed_iteration - rollback)
    runner.committed_iteration = rollback
    # reset chunk dirty state: DRAM now matches the rollback point.
    # With migration bookkeeping on, a chunk whose current buddy holds
    # its latest commit generation is *provably* still covered (rollback
    # restores committed state, which is exactly what was streamed), so
    # only epoch-mismatched chunks re-dirty — the incremental-failover
    # saving.  Without it, conservatively re-dirty everything.
    held_by_pid = {}
    if runner.migration_enabled:
        for n in runner.cluster.active_nodes:
            h = n.helper
            if h is None:
                continue
            held = h._replicated.get(h.buddy_id, {})
            for a in h.ranks:
                held_by_pid[a.pid] = (h, held)
    for state in runner.cluster.all_ranks():
        entry = held_by_pid.get(state.allocator.pid)
        for chunk in state.allocator.chunks():
            fresh = chunk.committed_version < 0
            chunk.set_dirty("local", fresh)
            if entry is None:
                chunk.set_dirty("remote", True)
            else:
                h, held = entry
                key = (state.allocator.pid, chunk.chunk_id)
                chunk.set_dirty("remote", held.get(key) != h._dirty_epoch.get(key, 0))
            chunk.protected = not fresh
            chunk.begin_interval()
        if state.checkpointer.precopy is not None:
            state.checkpointer.precopy.begin_interval()
            state.checkpointer.precopy.resume()
        state.checkpointer.last_checkpoint_end = engine.now
    # the dirty-state reset above re-dirtied chunks; nodes mid-re-sync
    # must re-cover them through the same drain
    for nid in runner._resyncing:
        h = runner.cluster.nodes[nid].helper
        if h is not None:
            if runner.migration_enabled:
                h.enqueue_unreplicated()
            else:
                h.enqueue_all()
    runner.recovery_time += engine.now - t0
    if runner.cluster.timeline is not None:
        runner.cluster.timeline.record(f"n{ev.node}", tl.RESTART, t0, engine.now)


def buddy_capacity_ok(runner, orphan_id: int, candidate_id: int, pending=()) -> bool:
    """Can the candidate's NVM hold the orphan's remote copies on
    top of what it already hosts?  Re-pairing doubles the buddy
    load, and on capacity-tight configs the only viable host is the
    (empty) replacement hardware — the deferred-repair path.
    ``pending`` names sources a planner sweep has already routed onto
    the candidate; their copies are in flight but not yet on the
    device, so the gate must hold for the combined footprint."""
    n_versions = 2 if runner.ckpt_config.two_versions else 1
    needed = 0
    for nid in (orphan_id, *pending):
        helper = runner.cluster.nodes[nid].helper
        if helper is None:
            continue
        needed += n_versions * sum(
            sum(c.nbytes for c in a.persistent_chunks()) for a in helper.ranks
        )
    return runner.cluster.nodes[candidate_id].ctx.nvmm.device.free >= needed


def orphan_failover(runner, dead: ClusterNode) -> None:
    """Nodes whose buddy just died hard: enter degraded mode, then
    re-pair to a healthy neighbor where one exists (a re-sync
    rebuilds protection in the background).  With no healthy
    candidate (2-node cluster) the repair waits for the
    replacement hardware."""
    for n in runner.cluster.active_nodes:
        h = n.helper
        if n is dead or h is None or h.buddy_id != dead.node_id:
            continue
        ctrl = runner.controllers.get(n.node_id)
        if ctrl is not None:
            ctrl.enter("buddy-failed")
        h.pause_rounds()
        new_buddy = runner.directory.repair(
            n.node_id, fits=lambda o, c: buddy_capacity_ok(runner, o, c)
        )
        if new_buddy is None:
            runner._deferred_orphans.append(n.node_id)
        else:
            repair_orphan(runner, n.node_id, new_buddy)


def repair_orphan(runner, orphan_id: int, new_buddy: int) -> None:
    """Re-point an orphan's helper (and monitor) at its new buddy
    and start the background re-sync of committed chunks."""
    from ..resilience import ResyncTask

    engine = runner.cluster.engine
    node = runner.cluster.nodes[orphan_id]
    helper = node.helper
    if helper is None:
        return
    # with migration bookkeeping on, failing over to a buddy that was
    # streamed to before re-sends only the chunks whose commit
    # generation moved — not the full footprint
    helper.retarget(
        new_buddy,
        runner.cluster.nodes[new_buddy].ctx,
        incremental=runner.migration_enabled,
    )
    monitor = runner.monitors.get(orphan_id)
    if monitor is not None:
        monitor.retarget(new_buddy)
    rcfg = runner.ckpt_config.resilience
    task = ResyncTask(
        helper,
        timeline=runner.cluster.timeline,
        failure_limit=rcfg.resync_failure_limit,
    )
    runner._resyncing[orphan_id] = task
    runner._bg_procs.append(
        engine.process(
            resync_proc(runner, orphan_id, task), name=f"n{orphan_id}:resync"
        )
    )


def resync_proc(runner, node_id: int, task):
    try:
        yield from task.run()
    finally:
        if runner._resyncing.get(node_id) is task:
            del runner._resyncing[node_id]
    if task.completed:
        runner.resyncs_completed += 1
        runner.resync_bytes += task.bytes_sent
        ctrl = runner.controllers.get(node_id)
        if ctrl is not None:
            ctrl.exit()
    elif task.failure_limited:
        # the failure budget ran out (not a newer retarget): the node
        # is still unprotected — keep it in degraded mode until a later
        # repair or recovery succeeds
        runner.resyncs_aborted += 1
        ctrl = runner.controllers.get(node_id)
        if ctrl is not None:
            ctrl.enter("resync-aborted")


def start_migration(runner, plan, done) -> bool:
    """Launch a bounded-batch live migration for one plan (the
    membership controller's hook).  Returns False when the plan can no
    longer start — source helper gone, or its pairing already moved on
    from what the planner saw."""
    from ..resilience.migration import MigrationTask

    engine = runner.cluster.engine
    node = runner.cluster.nodes[plan.node]
    helper = node.helper
    if helper is None or helper.buddy_id != plan.from_buddy:
        return False
    if plan.node in runner._resyncing:
        # a re-sync owns the helper's queue right now; migrating the
        # pairing out from under it would race the drain
        return False
    mcfg = runner.ckpt_config.resilience.migration

    def on_cutover(task) -> None:
        runner.migrations_completed += 1
        runner.migration_bytes_total += task.bytes_sent
        runner.directory.rebind(plan.node, plan.to_buddy)
        monitor = runner.monitors.get(plan.node)
        if monitor is not None:
            monitor.retarget(plan.to_buddy)
        done(plan, True)

    def on_abort(task) -> None:
        runner.migrations_aborted += 1
        done(plan, False)

    task = MigrationTask(
        helper,
        plan,
        runner.cluster.nodes[plan.to_buddy].ctx,
        batch_bytes=mcfg.batch_bytes,
        guard=runner.slo_guard,
        timeline=runner.cluster.timeline,
        check_interval=mcfg.slo_check_interval,
        pace_fraction=mcfg.pace_fraction,
        failure_limit=mcfg.failure_limit,
        retry_pause=mcfg.retry_pause,
        on_cutover=on_cutover,
        on_abort=on_abort,
    )
    runner._migrations.append(task)
    runner._bg_procs.append(
        engine.process(
            migration_proc(runner, task),
            name=f"n{plan.node}:migrate->{plan.to_buddy}",
        )
    )
    return True


def migration_proc(runner, task):
    yield from task.run()


def recover_soft(runner, node: ClusterNode):
    """Reboot + all ranks reload their committed local checkpoint."""
    engine = runner.cluster.engine
    node.ctx.nvmm.store.crash()  # unflushed writes die with the node
    yield engine.timeout(SOFT_REBOOT_DELAY)
    factor = (
        runner.failure_config.local_restart_factor if runner.failure_config else 1.0
    )
    fetches = []
    for n in runner.cluster.active_nodes:
        fetches.extend(
            n.ctx.nvm_bus.transfer_many(
                [
                    (state.allocator.checkpoint_bytes * factor, f"{state.rank}:restart")
                    for state in n.ranks
                ]
            )
        )
    if fetches:
        yield engine.all_of(fetches)


def fetch_source_for(runner, node: ClusterNode, old_helper) -> int:
    """Which node holds the dead node's remote copies (and becomes
    the replacement's buddy)?  The live directory when resilience is
    on; otherwise the helper's own pairing, falling back to the
    topology — never an index into ``active_nodes`` (which can
    self-pair or point at a dead slot)."""
    if runner.directory is not None:
        repaired = runner.directory.repair(
            node.node_id, fits=lambda o, c: buddy_capacity_ok(runner, o, c)
        )
        if repaired is not None:
            return repaired
    if old_helper is not None:
        return old_helper.buddy_id
    buddy_id = runner.cluster.topology.buddy_of(node.node_id)
    if buddy_id != node.node_id and runner.cluster.nodes[buddy_id].ranks:
        return buddy_id
    others = [
        n.node_id for n in runner.cluster.active_nodes if n.node_id != node.node_id
    ]
    if not others:
        return node.node_id
    n_nodes = runner.cluster.topology.n_nodes
    return min(others, key=lambda m: (m - node.node_id) % n_nodes)


def recover_hard(runner, node: ClusterNode):
    """Replace the node, refetch its ranks' state from the buddy,
    survivors reload locally; roll back to the remote capture."""
    engine = runner.cluster.engine
    # which iteration did the buddy last capture for this node?
    rollback = 0
    if not node.ranks:
        # a rank-less buddy host (a spare admitted via membership) lost
        # no application state: survivors keep their committed progress
        # and only the copies it hosted must be re-covered (failover)
        rollback = runner.committed_iteration
    elif node.helper is not None and node.helper.history:
        last_start = node.helper.history[-1].start
        for t, it in runner._committed_log:
            if t <= last_start:
                rollback = it
    old_helper = node.helper
    old_rank_indices = [s.rank_index for s in node.ranks]
    # a rank-less node has no state to fetch — and asking the directory
    # would spuriously re-pair it as a source
    buddy_id = fetch_source_for(runner, node, old_helper) if node.ranks else None
    # stop machinery owned by the dead node
    for state in node.ranks:
        state.checkpointer.stop_background()
    if old_helper is not None:
        old_helper.stop()
    # the dead node's ranks and helper leave the cluster; their work
    # up to the failure still counts in the run's totals
    runner.cluster.retired_ranks.extend(node.ranks)
    if old_helper is not None:
        runner.cluster.retired_helpers.append(old_helper)
    # replacement hardware
    yield engine.timeout(HARD_REPLACE_DELAY)
    node.replace_hardware()
    if runner.directory is not None:
        runner.directory.mark_recovered(node.node_id)
        runner.cluster.fabric.end_outage(node.node_id)
    # rebuild ranks (and the helper, if the node had one) on the fresh
    # node with the cluster's build choices
    runner.cluster.add_node(
        node,
        old_rank_indices,
        buddy_id if old_helper is not None else None,
        resilience=runner.transports.get(node.node_id),
    )
    # fetch the dead node's state from the buddy; survivors reload locally
    factor = (
        runner.failure_config.remote_restart_factor if runner.failure_config else 1.0
    )
    fetches = []
    for state in node.ranks:
        fetches.append(
            runner.cluster.fabric.transfer(
                buddy_id,
                node.node_id,
                state.allocator.checkpoint_bytes * factor,
                tag=f"{state.rank}:rfetch",
            )
        )
    for n in runner.cluster.active_nodes:
        if n is node:
            continue
        fetches.extend(
            n.ctx.nvm_bus.transfer_many(
                [
                    (state.allocator.checkpoint_bytes, f"{state.rank}:restart")
                    for state in n.ranks
                ]
            )
        )
    if fetches:
        yield engine.all_of(fetches)
    # new background machinery for the replacement node
    if node.helper is not None:
        runner._bg_procs.append(
            engine.process(node.helper.run(), name=f"{node.helper.owner}:rounds")
        )
        for state in node.ranks:
            runner._attach_slo_observer(state)
        if runner.directory is not None:
            runner.directory._buddy[node.node_id] = buddy_id
            monitor = runner.monitors.get(node.node_id)
            if monitor is not None:
                # retarget resets health silently (no up-transition
                # fires), so leave degraded mode explicitly: the
                # replacement has a healthy buddy again
                monitor.retarget(buddy_id)
            ctrl = runner.controllers.get(node.node_id)
            if ctrl is not None:
                ctrl.exit()
    if runner.local_checkpoints:
        for state in node.ranks:
            state.checkpointer.start_background()
    if runner.directory is not None:
        # orphans that had no healthy re-pair candidate wait for
        # the replacement: repair them now (typically back onto the
        # replacement hardware)
        deferred, runner._deferred_orphans = runner._deferred_orphans, []
        for orphan_id in deferred:
            new_buddy = runner.directory.repair(
                orphan_id, fits=lambda o, c: buddy_capacity_ok(runner, o, c)
            )
            if new_buddy is not None:
                repair_orphan(runner, orphan_id, new_buddy)
            else:
                runner._deferred_orphans.append(orphan_id)
    else:
        # helpers that used the dead node as their buddy lost their
        # remote copies: re-point them at the replacement hardware
        for n in runner.cluster.active_nodes:
            h = n.helper
            if h is not None and h.buddy_id == node.node_id and n is not node:
                # every remote copy on the dead buddy is gone:
                # everything must be re-sent
                h.retarget(node.node_id, node.ctx, reason="buddy hardware replaced")
    return rollback
