"""Host-time spans around the calls into each layer of ``repro``.

:func:`instrument` wraps the public functions of every layer from the
outside (no ``repro`` source changes) and restores them on exit.  Each
wrapped call records one span: name, host start and end, parent span
and cell id.  A generator method records one span per *resumption*,
because that is when its body runs; the call that creates the
generator only counts as a call.  Spans stay in memory
(:class:`SpanRecorder`) and :meth:`SpanRecorder.save` writes them when
the run ends.

Self time is a span's duration minus the time its child spans cover;
the recorder keeps it per name as the spans close, along with the
inclusive time of the outermost span of each name and the call count.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
from array import array
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Tuple

#: span name -> (module, attribute path) of the wrapped function
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("exec.cell", "repro.exec.grid", "run_cell"),
    ("cluster.build", "repro.cluster.cluster", "Cluster.build"),
    ("cluster.run", "repro.cluster.runner", "ClusterRunner.run"),
    ("sim.engine.run", "repro.sim.engine", "Engine.run"),
    ("sim.bandwidth.transfer", "repro.sim.resources", "BandwidthResource.transfer"),
    ("sim.bandwidth.transfer_many", "repro.sim.resources", "BandwidthResource.transfer_many"),
    ("core.precopy.run", "repro.core.precopy", "PrecopyEngine.run"),
    ("core.engine.checkpoint", "repro.core.engine", "CheckpointEngine.checkpoint"),
    ("core.codec.stage", "repro.core.codec", "BlockStore.stage"),
    ("core.codec.commit", "repro.core.codec", "BlockStore.commit"),
    ("core.remote.run", "repro.core.remote", "RemoteHelper.run"),
    ("core.remote.remote_checkpoint", "repro.core.remote", "RemoteHelper.remote_checkpoint"),
    ("memory.nvmm.nvmmap", "repro.memory.nvmm", "NVMKernelManager.nvmmap"),
    ("memory.store.put_meta", "repro.memory.persistence", "InMemoryStore.put_meta"),
    ("memory.store.flush", "repro.memory.persistence", "InMemoryStore.flush"),
    ("alloc.nvalloc", "repro.alloc.nvmalloc", "NVAllocator.nvalloc"),
    ("resilience.resilient_put", "repro.resilience.retry", "resilient_put"),
)

#: functions imported by name into other modules: wrapped wherever a
#: ``repro`` module holds them, since that is where callers look them up
BY_NAME: Tuple[Tuple[str, str, str], ...] = (
    ("net.rdma_put", "repro.net.rdma", "rdma_put"),
    ("net.rdma_get", "repro.net.rdma", "rdma_get"),
)

#: ``decide`` is wrapped on every policy class in this registry
POLICY_REGISTRY = ("repro.core.policy", "POLICIES")
DECIDE = "core.policy.decide"

#: layer of a span name: its longest matching prefix here
LAYERS = (
    "exec", "cluster", "sim", "core.engine", "core.precopy", "core.policy",
    "core.codec", "core.remote", "memory", "alloc", "net", "resilience",
)


def layer_of(name: str) -> str:
    best = ""
    for layer in LAYERS:
        if (name == layer or name.startswith(layer + ".")) and len(layer) > len(best):
            best = layer
    return best


@dataclass
class NameStats:
    calls: int = 0
    spans: int = 0
    #: inclusive host seconds of the outermost spans of this name
    host_s: float = 0.0
    self_s: float = 0.0
    nbytes: float = 0.0
    depth: int = 0


class SpanRecorder:
    """In-memory span log plus per-name aggregates."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.stats: List[NameStats] = []
        self.cell = -1
        # one entry per span, in start order
        self.name_id = array("H")
        self.cell_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        # open spans: [span index, name id, start, child seconds]
        self._stack: List[list] = []

    def name_id_of(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.stats.append(NameStats())
        return nid

    def enter(self, nid: int) -> None:
        stack = self._stack
        idx = len(self.start)
        self.name_id.append(nid)
        self.cell_id.append(self.cell)
        self.parent.append(stack[-1][0] if stack else -1)
        self.stats[nid].depth += 1
        now = perf_counter()
        self.start.append(now)
        self.end.append(now)
        stack.append([idx, nid, now, 0.0])

    def exit(self) -> None:
        now = perf_counter()
        idx, nid, start, child = self._stack.pop()
        self.end[idx] = now
        dur = now - start
        st = self.stats[nid]
        st.spans += 1
        st.self_s += dur - child
        st.depth -= 1
        if st.depth == 0:
            st.host_s += dur
        if self._stack:
            self._stack[-1][3] += dur

    def __len__(self) -> int:
        return len(self.start)

    def get(self, name: str) -> NameStats:
        nid = self._ids.get(name)
        return self.stats[nid] if nid is not None else NameStats()

    def layer_self_s(self) -> Dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, st in zip(self.names, self.stats):
            out[layer_of(name)] += st.self_s
        return out

    def save(self, path: str) -> None:
        """Write every span as numpy arrays (``.npz``)."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.uint16),
            cell_id=np.frombuffer(self.cell_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def _timed_generator(rec: SpanRecorder, nid: int, gen):
    """Drive *gen*, recording one span per resumption."""
    value, exc = None, None
    while True:
        rec.enter(nid)
        try:
            out = gen.throw(exc) if exc is not None else gen.send(value)
        except StopIteration as stop:
            return stop.value
        finally:
            rec.exit()
        value, exc = None, None
        try:
            value = yield out
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as err:  # delivered into the inner generator
            exc = err


def _nbytes_arg(args, kwargs) -> float:
    """``nbytes`` of an ``rdma_put``/``rdma_get`` call."""
    return float(args[3] if len(args) > 3 else kwargs["nbytes"])


def _wrap(rec: SpanRecorder, name: str, fn: Callable, count_bytes: bool = False) -> Callable:
    nid = rec.name_id_of(name)
    stats = rec.stats[nid]
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            stats.calls += 1
            return _timed_generator(rec, nid, fn(*args, **kwargs))

        gen_wrapper._span_original = fn
        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stats.calls += 1
        if count_bytes:
            stats.nbytes += _nbytes_arg(args, kwargs)
        rec.enter(nid)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.exit()
        if inspect.isgenerator(out):
            # e.g. CheckpointEngine.checkpoint(blocking=False)
            return _timed_generator(rec, nid, out)
        return out

    wrapper._span_original = fn
    return wrapper


class Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, bool, object]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        own = attr in vars(owner)
        self._undo.append((owner, attr, own, vars(owner).get(attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, own, old in reversed(self._undo):
            if own:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)
        self._undo.clear()


def _resolve(module: str, path: str) -> Tuple[object, str]:
    owner: object = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def _unwrapped(fn: Callable) -> Callable:
    """The function under one of this module's wrappers."""
    return getattr(fn, "_span_original", fn)


@contextlib.contextmanager
def instrument(rec: SpanRecorder) -> Iterator[SpanRecorder]:
    """Wrap every layer's public functions for the duration of the
    block, recording into *rec*."""
    patches = Patches()
    try:
        for name, module, path in TARGETS:
            owner, attr = _resolve(module, path)
            # a staticmethod/classmethod would need its descriptor kept;
            # every target is a plain function or method
            patches.set(owner, attr, _wrap(rec, name, vars(owner)[attr]))
        for name, module, attr in BY_NAME:
            original = getattr(importlib.import_module(module), attr)
            wrapped = _wrap(rec, name, original, count_bytes=True)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("repro") and vars(mod).get(attr) is original:
                    patches.set(mod, attr, wrapped)
        owner, attr = _resolve(*POLICY_REGISTRY)
        for cls in getattr(owner, attr).values():
            # wrap the method the class resolves to, once per class, so a
            # subclass inheriting ``decide`` is not timed twice
            patches.set(cls, "decide", _wrap(rec, DECIDE, _unwrapped(cls.decide)))
        yield rec
    finally:
        patches.restore()
