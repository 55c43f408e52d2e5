"""The background pre-copy engine: eligibility by policy, staleness,
redundancy accounting, pause/drain."""

import pytest

from repro.alloc import NVAllocator
from repro.config import PrecopyPolicy
from repro.core import LocalCheckpointer, PrecopyEngine, make_standalone_context
from repro.core.prediction import PredictionTable
from repro.core.threshold import ThresholdEstimator
from repro.errors import SimulationError
from repro.metrics.trace import BUS
from repro.units import MB


def make_rig(mode="cpc", n_chunks=2, chunk_mb=10):
    ctx = make_standalone_context(name="pc")
    alloc = NVAllocator("p0", ctx.nvmm, ctx.dram, phantom=True, clock=lambda: ctx.engine.now)
    chunks = [alloc.nvalloc(f"c{i}", MB(chunk_mb)) for i in range(n_chunks)]
    threshold = ThresholdEstimator(ctx.effective_nvm_bw_per_core()) if mode in ("dcpc", "dcpcp") else None
    prediction = PredictionTable() if mode == "dcpcp" else None
    engine = PrecopyEngine(
        ctx,
        chunks=alloc.persistent_chunks,
        policy=PrecopyPolicy(mode=mode),
        threshold=threshold,
        prediction=prediction,
    )
    return ctx, alloc, chunks, engine


class TestCPC:
    def test_copies_dirty_chunks_in_background(self):
        ctx, alloc, chunks, engine = make_rig("cpc")
        ctx.engine.process(engine.run())
        ctx.engine.run(until=60.0)
        assert all(not c.dirty_local for c in chunks)
        assert engine.stats.copies == len(chunks)
        assert engine.stats.bytes_copied == sum(c.nbytes for c in chunks)

    def test_largest_chunk_first(self):
        ctx = make_standalone_context(name="pc")
        alloc = NVAllocator("p0", ctx.nvmm, ctx.dram, phantom=True)
        small = alloc.nvalloc("small", MB(1))
        big = alloc.nvalloc("big", MB(50))
        order = []
        engine = PrecopyEngine(
            ctx, chunks=alloc.persistent_chunks, policy=PrecopyPolicy(mode="cpc"),
        )
        sink = BUS.subscribe(lambda ev: order.append(ev.chunk), kinds=["chunk.copied"])
        try:
            ctx.engine.process(engine.run())
            ctx.engine.run(until=30.0)
        finally:
            BUS.unsubscribe(sink)
        assert order[0] == "big"

    def test_redirtied_chunk_recopied(self):
        ctx, alloc, chunks, engine = make_rig("cpc", n_chunks=1)
        proc = ctx.engine.process(engine.run())

        def app():
            yield ctx.engine.timeout(5.0)  # let the first copy land
            chunks[0].touch()
            yield ctx.engine.timeout(5.0)

        ctx.engine.process(app())
        ctx.engine.run(until=20.0)
        assert engine.stats.copies == 2
        assert engine.stats.redundant_copies == 1
        assert engine.stats.faults_induced == 1

    def test_stale_copy_detected(self):
        """A write landing mid-copy leaves the chunk dirty."""
        ctx, alloc, chunks, engine = make_rig("cpc", n_chunks=1, chunk_mb=100)
        ctx.engine.process(engine.run())

        def app():
            yield ctx.engine.timeout(0.05)  # copy of 100MB in flight
            chunks[0].touch()

        ctx.engine.process(app())
        ctx.engine.run(until=30.0)
        assert engine.stats.stale_copies >= 1
        # the final state is still clean: the engine retried
        assert not chunks[0].dirty_local

    def test_protection_applied_after_copy(self):
        ctx, alloc, chunks, engine = make_rig("cpc", n_chunks=1)
        ctx.engine.process(engine.run())
        ctx.engine.run(until=10.0)
        assert chunks[0].protected

    def test_non_persistent_chunks_ignored(self):
        ctx = make_standalone_context(name="pc")
        alloc = NVAllocator("p0", ctx.nvmm, ctx.dram, phantom=True)
        alloc.nvalloc("scratch", MB(1), pflag=False)
        engine = PrecopyEngine(
            ctx, chunks=alloc.chunks, policy=PrecopyPolicy(mode="cpc")
        )
        ctx.engine.process(engine.run())
        ctx.engine.run(until=5.0)
        assert engine.stats.copies == 0


class TestDelayedModes:
    def test_dcpc_idle_during_learning(self):
        ctx, alloc, chunks, engine = make_rig("dcpc")
        ctx.engine.process(engine.run())
        ctx.engine.run(until=30.0)
        assert engine.stats.copies == 0  # no threshold learned yet

    def test_dcpc_starts_after_threshold(self):
        ctx, alloc, chunks, engine = make_rig("dcpc", chunk_mb=1)
        assert engine.threshold is not None
        engine.threshold.observe_interval(10.0, MB(2))
        engine.begin_interval()
        ctx.engine.process(engine.run())
        ctx.engine.run(until=engine.threshold.threshold() - 0.5)
        assert engine.stats.copies == 0
        ctx.engine.run(until=11.0)
        assert engine.stats.copies == 2

    def test_dcpcp_requires_prediction(self):
        ctx = make_standalone_context(name="pc")
        alloc = NVAllocator("p0", ctx.nvmm, ctx.dram, phantom=True)
        with pytest.raises(SimulationError):
            PrecopyEngine(
                ctx, chunks=alloc.persistent_chunks,
                policy=PrecopyPolicy(mode="dcpcp"),
                threshold=ThresholdEstimator(1.0),
            )

    def test_dcpc_requires_threshold(self):
        ctx = make_standalone_context(name="pc")
        alloc = NVAllocator("p0", ctx.nvmm, ctx.dram, phantom=True)
        with pytest.raises(SimulationError):
            PrecopyEngine(
                ctx, chunks=alloc.persistent_chunks, policy=PrecopyPolicy(mode="dcpc")
            )

    def test_dcpcp_withholds_hot_chunk(self):
        """A hot chunk predicted to be modified 3x per interval is not
        pre-copied until its 3rd modification arrives."""
        ctx, alloc, chunks, engine = make_rig("dcpcp", n_chunks=1, chunk_mb=1)
        hot = chunks[0]
        engine.wire_chunks()
        assert engine.threshold is not None and engine.prediction is not None
        # learning interval: 3 modifications observed
        engine.prediction.begin_interval()
        for _ in range(3):
            hot.touch()
        engine.prediction.end_interval()
        engine.threshold.observe_interval(10.0, MB(1))
        engine.begin_interval()
        ctx.engine.process(engine.run())

        def app():
            yield ctx.engine.timeout(9.0)  # well past T_p
            hot.touch()
            yield ctx.engine.timeout(0.5)
            assert engine.stats.copies == 0  # 1 of 3 mods seen
            hot.touch()
            yield ctx.engine.timeout(0.5)
            assert engine.stats.copies == 0
            hot.touch()  # 3rd mod: now eligible
            yield ctx.engine.timeout(1.0)

        proc = ctx.engine.process(app())
        ctx.engine.run(until=30.0)
        assert proc.ok
        assert engine.stats.copies == 1


class TestLifecycle:
    def test_pause_blocks_copies(self):
        ctx, alloc, chunks, engine = make_rig("cpc")
        engine.pause()
        ctx.engine.process(engine.run())
        ctx.engine.run(until=10.0)
        assert engine.stats.copies == 0
        engine.resume()
        ctx.engine.run(until=20.0)
        assert engine.stats.copies == len(chunks)

    def test_drain_waits_for_inflight(self):
        ctx, alloc, chunks, engine = make_rig("cpc", n_chunks=1, chunk_mb=200)
        ctx.engine.process(engine.run())

        def coordinator():
            yield ctx.engine.timeout(0.05)  # big copy in flight
            engine.pause()
            yield from engine.drain()
            return ctx.engine.now

        proc = ctx.engine.process(coordinator())
        ctx.engine.run(until=60.0)
        # drain returned only after the 200MB copy finished (~0.4s+)
        assert proc.value > 0.3

    def test_stop_ends_run(self):
        ctx, alloc, chunks, engine = make_rig("cpc")
        proc = ctx.engine.process(engine.run())
        engine.stop()
        ctx.engine.run(until=5.0)
        assert proc.triggered

    def test_double_run_rejected(self):
        ctx, alloc, chunks, engine = make_rig("cpc")
        ctx.engine.process(engine.run())
        bad = ctx.engine.process(engine.run())
        ctx.engine.run(until=0.1)
        assert isinstance(bad.exception, SimulationError)

    def test_begin_interval_settles_prediction_outcomes(self):
        ctx, alloc, chunks, engine = make_rig("dcpcp", n_chunks=1)
        assert engine.prediction is not None
        engine.wire_chunks()
        engine._pending_clean[chunks[0].chunk_id] = chunks[0]
        engine.begin_interval()
        assert engine.prediction.accuracy() == 1.0  # recorded as a hit
