"""The span recorder and the layer wrappers, on toy functions and on
the real ``repro`` modules (no simulation is run here)."""

import importlib
import time

import pytest

from perfbench import spans
from perfbench.spans import SpanRecorder, _wrap, instrument


def test_self_time_excludes_children():
    rec = SpanRecorder()

    def inner():
        time.sleep(0.02)

    wrapped_inner = _wrap(rec, "net.inner", inner)

    def outer():
        time.sleep(0.01)
        wrapped_inner()
        wrapped_inner()

    _wrap(rec, "sim.outer", outer)()
    o, i = rec.get("sim.outer"), rec.get("net.inner")
    assert (o.calls, i.calls, len(rec)) == (1, 2, 3)
    assert i.host_s >= 0.04
    assert o.host_s == pytest.approx(o.self_s + i.host_s)
    assert 0.01 <= o.self_s < 0.03
    assert list(rec.parent) == [-1, 0, 0]
    assert rec.layer_self_s()["net"] == pytest.approx(i.self_s)


def test_generator_is_timed_per_resumption():
    rec = SpanRecorder()

    def proc(n):
        got = []
        for k in range(n):
            got.append((yield k))
        return got

    gen = _wrap(rec, "core.precopy.run", proc)(3)
    assert (rec.get("core.precopy.run").calls, len(rec)) == (1, 0)  # creating runs nothing
    assert next(gen) == 0
    assert gen.send("a") == 1
    assert gen.send("b") == 2
    with pytest.raises(StopIteration) as stop:
        gen.send("c")
    assert stop.value.value == ["a", "b", "c"]
    assert rec.get("core.precopy.run").spans == 4
    assert rec.get("core.precopy.run").calls == 1


def test_generator_passes_throw_and_close_through():
    rec = SpanRecorder()
    seen = []

    def proc():
        try:
            yield 1
        except KeyError:
            seen.append("thrown")
        try:
            yield 2
        finally:
            seen.append("closed")

    gen = _wrap(rec, "core.remote.run", proc)()
    next(gen)
    assert gen.throw(KeyError("x")) == 2
    gen.close()
    assert seen == ["thrown", "closed"]
    assert not rec._stack


def _targets():
    out = []
    for _, module, path in spans.TARGETS:
        owner, attr = spans._resolve(module, path)
        out.append((owner, attr, vars(owner)[attr]))
    return out


def test_instrument_wraps_call_sites_and_restores():
    policy = importlib.import_module("repro.core.policy")
    before = _targets()
    decide = {cls: vars(cls).get("decide") for cls in policy.POLICIES.values()}
    rdma = importlib.import_module("repro.net.rdma")
    put, get = rdma.rdma_put, rdma.rdma_get
    sites = {
        "repro.core.remote": "rdma_put",
        "repro.resilience.retry": "rdma_put",
        "repro.resilience.migration": "rdma_put",
        "repro.core.restart": "rdma_get",
    }
    with instrument(SpanRecorder()):
        for owner, attr, original in before:
            assert vars(owner)[attr] is not original
        for cls in policy.POLICIES.values():
            assert cls.decide._span_original is not None
        for module, attr in sites.items():
            assert getattr(importlib.import_module(module), attr) not in (put, get)
    assert _targets() == before
    assert {cls: vars(cls).get("decide") for cls in policy.POLICIES.values()} == decide
    for module, attr in sites.items():
        assert getattr(importlib.import_module(module), attr) in (put, get)
