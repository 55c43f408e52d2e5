"""Runner and cluster edge cases: buddy loss, consecutive failures,
PFS-mode interplay, degenerate configurations."""

from dataclasses import replace

import pytest

from repro.apps import SyntheticModel
from repro.baselines import PfsModel, precopy_config
from repro.cluster import Cluster, ClusterRunner, FailureEvent, ScriptedInjector
from repro.config import CheckpointConfig, ClusterConfig, FailureConfig, PrecopyPolicy
from repro.core import CompressionModel
from repro.core.destination import PfsDestination
from repro.errors import ClusterError
from repro.units import GB_per_sec


def tiny_app(**kw):
    defaults = dict(checkpoint_mb_per_rank=20, chunk_mb=10,
                    iteration_compute_time=10.0, comm_mb_per_iteration=5)
    defaults.update(kw)
    return SyntheticModel(**defaults)


class TestBuddyLossRecovery:
    def test_hard_failure_resets_surviving_helpers_targets(self):
        """When a node dies, helpers that used it as their buddy lose
        their remote copies; the runner re-points them and re-queues
        everything."""
        fc = FailureConfig(mtbf_local=1e9, mtbf_remote=110.0, seed=13)
        cluster = Cluster(ClusterConfig(nodes=2), nvm_write_bandwidth=GB_per_sec(2.0), seed=13)
        cluster.build(tiny_app(), precopy_config(10, 30), ranks_per_node=2)
        runner = ClusterRunner(cluster, failure_config=fc, fail_until_iteration=3)
        res = runner.run(6)
        assert res.hard_failures >= 1
        assert res.iterations == 6
        # with 2 nodes each is the other's buddy: the survivor's helper
        # must now target the replacement context
        dead = next(n for n in cluster.nodes if n.incarnation > 0)
        survivor = next(n for n in cluster.nodes if n is not dead)
        assert survivor.helper is not None
        assert all(t.dst_ctx is dead.ctx for t in survivor.helper.targets.values())

    def test_remote_protection_reestablished_after_buddy_loss(self):
        """After the replacement, later rounds repopulate the remote
        copies on the new hardware."""
        fc = FailureConfig(mtbf_local=1e9, mtbf_remote=110.0, seed=13)
        cluster = Cluster(ClusterConfig(nodes=2), nvm_write_bandwidth=GB_per_sec(2.0), seed=13)
        cluster.build(tiny_app(), precopy_config(10, 30), ranks_per_node=2)
        runner = ClusterRunner(cluster, failure_config=fc, fail_until_iteration=3)
        res = runner.run(8)
        # whichever nodes survived to the end, the rounds after the
        # last replacement must have repopulated the remote copies
        committed = [
            v
            for node in cluster.nodes
            if node.helper is not None
            for t in node.helper.targets.values()
            for v in t.committed.values()
        ]
        assert committed and all(v >= 0 for v in committed)


    def test_buddy_replacement_keeps_codec_block_store(self):
        """Without the resilience layer, a survivor whose buddy was
        replaced is re-pointed at the new hardware through the helper's
        retarget, which also gives the fresh targets the codec's digest
        index: page-granular codec copies to the replacement work."""
        cfg = precopy_config(10, 30)
        cfg = replace(
            cfg,
            precopy=replace(cfg.precopy, codec="auto", copy_granularity="page"),
            resilience=replace(cfg.resilience, enabled=False),
        )
        cluster = Cluster(ClusterConfig(nodes=2), nvm_write_bandwidth=GB_per_sec(2.0), seed=13)
        cluster.build(tiny_app(), cfg, ranks_per_node=2)
        runner = ClusterRunner(
            cluster, injector=ScriptedInjector([FailureEvent(time=25.0, node=1, kind="hard")])
        )
        res = runner.run(6)
        assert res.hard_failures == 1
        survivor = cluster.nodes[0]
        assert all(
            t.dst_ctx is cluster.nodes[1].ctx for t in survivor.helper.targets.values()
        )
        for dest in survivor.helper.destinations.values():
            assert dest.block_store is not None
        # the survivor's rounds after the replacement re-covered it
        assert all(
            v >= 0 for t in survivor.helper.targets.values() for v in t.committed.values()
        )


def run_with_replaced_node(**build_kw):
    """2 nodes x 2 ranks; node 0 fails hard after its first checkpoint
    and is rebuilt on replacement hardware."""
    cluster = Cluster(ClusterConfig(nodes=2), nvm_write_bandwidth=GB_per_sec(2.0), seed=3)
    cluster.build(tiny_app(checkpoint_mb_per_rank=4, chunk_mb=2), precopy_config(10, 30),
                  ranks_per_node=2, **build_kw)
    runner = ClusterRunner(
        cluster, injector=ScriptedInjector([FailureEvent(time=25.0, node=0, kind="hard")])
    )
    res = runner.run(4)
    assert res.hard_failures == 1 and cluster.nodes[0].incarnation == 1
    return cluster, res


class TestNodeRebuild:
    """A hard failure rebuilds the node's ranks and helper with the
    choices the cluster was built with."""

    def test_rebuilt_ranks_keep_pfs_backend(self):
        cluster = Cluster(ClusterConfig(nodes=2), seed=3)
        pfs = PfsModel(cluster.engine, aggregate_bandwidth=GB_per_sec(5.0))
        cluster.build(tiny_app(checkpoint_mb_per_rank=4, chunk_mb=2), precopy_config(10, 30),
                      ranks_per_node=2, pfs=pfs, with_remote=False)
        runner = ClusterRunner(
            cluster, injector=ScriptedInjector([FailureEvent(time=25.0, node=0, kind="hard")])
        )
        assert runner.run(4).hard_failures == 1
        assert cluster.nodes[0].incarnation == 1
        for state in cluster.all_ranks():
            assert isinstance(state.checkpointer.destination, PfsDestination)

    def test_rebuilt_helper_keeps_compression(self):
        model = CompressionModel(phantom_ratio=0.6)
        cluster, _ = run_with_replaced_node(compression=model)
        assert cluster.nodes[0].helper.compression is model
        assert cluster.nodes[0].helper.total_remote_bytes > 0

    def test_rebuilt_ranks_keep_tenants(self):
        tenancy = {"r0": "gold", "r1": "bronze", "r2": "gold", "r3": "bronze"}
        cluster, _ = run_with_replaced_node(tenancy=tenancy)
        assert {s.rank: s.checkpointer.tenant for s in cluster.all_ranks()} == tenancy
        assert cluster.nodes[0].helper.tenants == {"r0": "gold", "r1": "bronze"}

    def test_rebuilt_ranks_keep_real_payloads(self):
        cluster, _ = run_with_replaced_node(phantom=False)
        for state in cluster.nodes[0].ranks:
            assert not state.allocator.phantom
            assert all(not c.phantom for c in state.allocator.chunks())


class TestConsecutiveFailures:
    def test_back_to_back_failures_still_complete(self):
        fc = FailureConfig(mtbf_local=60.0, mtbf_remote=240.0, seed=9)
        cluster = Cluster(ClusterConfig(nodes=2), nvm_write_bandwidth=GB_per_sec(2.0), seed=9)
        cluster.build(tiny_app(), precopy_config(10, 30), ranks_per_node=2)
        runner = ClusterRunner(cluster, failure_config=fc, fail_until_iteration=4)
        res = runner.run(6)
        assert res.iterations == 6
        assert res.soft_failures + res.hard_failures >= 2

    def test_recompute_accounting_never_negative(self):
        fc = FailureConfig(mtbf_local=80.0, mtbf_remote=320.0, seed=9)
        cluster = Cluster(ClusterConfig(nodes=2), nvm_write_bandwidth=GB_per_sec(2.0), seed=9)
        cluster.build(tiny_app(), precopy_config(10, 30), ranks_per_node=2)
        runner = ClusterRunner(cluster, failure_config=fc, fail_until_iteration=4)
        res = runner.run(6)
        assert res.iterations_recomputed >= 0
        assert res.recovery_time >= 0


class TestDegenerateConfigs:
    def test_single_iteration(self):
        cluster = Cluster(ClusterConfig(nodes=2), seed=1)
        cluster.build(tiny_app(), precopy_config(10, 30), ranks_per_node=1)
        res = ClusterRunner(cluster).run(1)
        assert res.iterations == 1
        assert res.local_checkpoints == 2

    def test_zero_iterations(self):
        cluster = Cluster(ClusterConfig(nodes=2), seed=1)
        cluster.build(tiny_app(), precopy_config(10, 30), ranks_per_node=1)
        res = ClusterRunner(cluster).run(0)
        assert res.iterations == 0
        assert res.total_time == 0.0

    def test_run_before_build_rejected(self):
        cluster = Cluster(ClusterConfig(nodes=2), seed=1)
        with pytest.raises(ClusterError):
            ClusterRunner(cluster)

    def test_single_rank_cluster(self):
        cluster = Cluster(ClusterConfig(nodes=2), seed=1)
        cluster.build(tiny_app(), precopy_config(10, 30), ranks_per_node=1,
                      n_nodes_used=1, with_remote=False)
        res = ClusterRunner(cluster).run(2)
        assert res.n_ranks == 1
        assert res.iterations == 2

    def test_remote_interval_longer_than_run(self):
        """No remote round ever fires; the run still terminates."""
        cluster = Cluster(ClusterConfig(nodes=2), seed=1)
        cluster.build(tiny_app(), precopy_config(10, 1e6), ranks_per_node=2)
        res = ClusterRunner(cluster).run(2)
        assert res.remote_rounds == 0
        assert res.iterations == 2

    def test_no_communication_app(self):
        app = tiny_app(comm_mb_per_iteration=0)
        cluster = Cluster(ClusterConfig(nodes=2), seed=1)
        cluster.build(app, precopy_config(10, 30), ranks_per_node=2)
        res = ClusterRunner(cluster).run(2)
        assert res.fabric_app_bytes == 0.0

    def test_write_once_only_app(self):
        """Everything is written once: after the first checkpoint the
        coordinated steps are empty."""
        app = tiny_app(write_once_fraction=1.0)
        cluster = Cluster(ClusterConfig(nodes=2), seed=1)
        cluster.build(app, precopy_config(10, 30), ranks_per_node=2, with_remote=False)
        res = ClusterRunner(cluster).run(3)
        # only the first checkpoint carries data
        per_ckpt = res.coordinated_bytes + res.local_precopy_bytes
        assert per_ckpt == cluster.checkpoint_bytes()


class TestSeedIsolation:
    def test_different_seeds_differ_under_failures(self):
        def run(seed):
            fc = FailureConfig(mtbf_local=100.0, mtbf_remote=400.0, seed=seed)
            cluster = Cluster(ClusterConfig(nodes=2), seed=seed)
            cluster.build(tiny_app(), precopy_config(10, 30), ranks_per_node=2)
            return ClusterRunner(cluster, failure_config=fc,
                                 fail_until_iteration=3).run(4)

        a = run(13)
        b = run(14)
        assert (a.total_time, a.soft_failures, a.hard_failures) != (
            b.total_time, b.soft_failures, b.hard_failures
        )
