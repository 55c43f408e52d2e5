"""Differential property test of the pre-copy engine's incremental
eligible index.

The engine keeps its eligible chunks in a heap updated from chunk
state changes.  The reference below is the selection it replaced: on
every step, walk the dirty index in insertion order, drop the chunks
that went clean, ask the policy about each remaining idle chunk and
keep the first of the largest.  Random sequences of writes, cleans,
direct dirty-bit sets, copy-state changes, interval boundaries, resizes
and clock advances must make both pick the same chunk (or ``None``) at
every step, for all four policies and both streams.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.alloc import NVAllocator
from repro.alloc.chunk import ChunkState
from repro.config import PrecopyPolicy
from repro.core import PrecopyEngine, make_standalone_context
from repro.core.prediction import PredictionTable
from repro.core.threshold import ThresholdEstimator
from repro.units import MB

MODES = ["none", "cpc", "dcpc", "dcpcp"]


def reference_precopies(policy, chunk, now: float, interval_start: float) -> bool:
    """The four modes' pre-copy rule, written out independently of the
    policy classes."""
    if policy.name == "none":
        return False
    if policy.name == "cpc":
        return True
    thr = policy.threshold
    if thr is None:
        ready = interval_start
    elif not thr.learned:
        ready = float("inf")
    else:
        ready = interval_start + thr.threshold()
    if now + 1e-12 < ready:
        return False
    if policy.name == "dcpcp" and policy.prediction is not None:
        return policy.prediction.eligible(chunk)
    return True


class FullScan:
    """The rescanning selector, driven by the same chunk writes."""

    def __init__(self, engine: PrecopyEngine, chunks) -> None:
        self.engine = engine
        self.dirty = {}
        for chunk in chunks:
            chunk.on_dirty.append(self._on_dirty)
            if chunk.persistent and engine._is_dirty(chunk):
                self.dirty[chunk.chunk_id] = chunk

    def _on_dirty(self, chunk, now: float) -> None:
        if chunk.persistent:
            self.dirty[chunk.chunk_id] = chunk

    def select(self, now: float):
        engine = self.engine
        best = None
        for cid, chunk in list(self.dirty.items()):
            if not engine._is_dirty(chunk):
                del self.dirty[cid]
                continue
            if chunk.get_state(engine.stream) is not ChunkState.IDLE:
                continue
            if not reference_precopies(
                engine.decision_policy, chunk, now, engine.interval_start
            ):
                continue
            if best is None or chunk.nbytes > best.nbytes:
                best = chunk
        return best


chunk_index = st.integers(0, 7)
events = st.lists(
    st.one_of(
        st.tuples(st.just("write"), chunk_index),
        st.tuples(st.just("clean"), chunk_index),
        st.tuples(st.just("set_dirty"), chunk_index, st.booleans()),
        st.tuples(
            st.just("state"),
            chunk_index,
            st.sampled_from(list(ChunkState)),
        ),
        st.tuples(st.just("resize"), chunk_index, st.sampled_from([1, 2])),
        st.tuples(st.just("advance"), st.sampled_from([0.5, 4.0, 11.0])),
        st.just(("begin",)),
        st.just(("end",)),
        st.just(("step",)),
        st.just(("step",)),
    ),
    min_size=1,
    max_size=80,
)


@pytest.mark.parametrize("stream", ["local", "remote"])
@pytest.mark.parametrize("mode", MODES)
@given(
    sizes=st.lists(st.sampled_from([1, 2]), min_size=2, max_size=8),
    transient=st.sets(st.integers(0, 7), max_size=2),
    script=events,
)
@settings(max_examples=200, deadline=None)
# an interval boundary must re-ask DCPCP's prediction for a chunk that
# saw no write since it entered the heap
@example(
    sizes=[1, 1],
    transient=set(),
    script=[("write", 0), ("end",), ("write", 0), ("step",), ("begin",), ("advance", 11.0)],
)
def test_incremental_index_picks_what_a_full_scan_picks(
    mode, stream, sizes, transient, script
):
    ctx = make_standalone_context(name="prop")
    alloc = NVAllocator("p0", ctx.nvmm, ctx.dram, phantom=True, clock=lambda: ctx.engine.now)
    chunks = [
        alloc.nvalloc(f"c{i}", MB(mb), pflag=i not in transient)
        for i, mb in enumerate(sizes)
    ]
    threshold = (
        ThresholdEstimator(ctx.effective_nvm_bw_per_core())
        if mode in ("dcpc", "dcpcp")
        else None
    )
    prediction = PredictionTable() if mode == "dcpcp" else None
    engine = PrecopyEngine(
        ctx,
        chunks=alloc.chunks,
        policy=PrecopyPolicy(mode=mode),
        stream=stream,
        threshold=threshold,
        prediction=prediction,
    )
    engine.wire_chunks()
    reference = FullScan(engine, alloc.chunks())
    for event in script:
        kind = event[0]
        if kind in ("write", "clean", "set_dirty", "state", "resize"):
            chunk = chunks[event[1] % len(chunks)]
        if kind == "write":
            chunk.touch()
        elif kind == "clean":
            chunk.mark_precopied(stream)
        elif kind == "set_dirty":
            chunk.set_dirty(stream, event[2])
        elif kind == "state":
            chunk.set_state(stream, event[2])
        elif kind == "resize":
            alloc.nvrealloc(chunk.name, MB(event[2]))
        elif kind == "advance":
            ctx.engine.run(until=ctx.engine.now + event[1])
        elif kind == "begin":
            engine.begin_interval()
        elif kind == "end":
            if threshold is not None:
                threshold.observe_interval(10.0, alloc.checkpoint_bytes)
            if prediction is not None:
                prediction.end_interval()
        else:
            now = ctx.engine.now
            expected = reference.select(now)
            assert engine._next_eligible(now) is expected
    # one last step so every script ends compared
    assert engine._next_eligible(ctx.engine.now) is reference.select(ctx.engine.now)
