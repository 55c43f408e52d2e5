"""Structured trace bus: typed checkpoint-pipeline events, pluggable sinks.

Every layer of the checkpoint pipeline — the engine's chunk walk, the
policy's per-chunk decisions, commits, the resilience layer's retries
and failovers — emits a typed event to a process-global
:class:`TraceBus`.  Sinks subscribe to the bus:

* :class:`RingBufferSink` — bounded in-memory tail for tests/debugging;
* :class:`JsonlSink` — newline-delimited JSON stream (``bench --trace``);
* :class:`CounterSink` — event/decision counters (bench baseline record);
* :class:`TimelineSink` — adapts copy spans onto a
  :class:`~repro.metrics.timeline.Timeline`.

Emission with zero sinks attached is a single truthiness check, so the
simulation hot path pays nothing when tracing is off.  The bus is
per-process.  Pool workers (:mod:`repro.exec.pool`) start with no sinks
attached: a grid run with ``run_grid(trace=...)`` has each worker
capture its cells' events on its own bus and ship them back with the
results, and the parent writes them in submission order.  Sinks the
parent attaches directly see only events emitted in the parent
process.
"""

from __future__ import annotations

import json
from collections import deque
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    IO,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

from ..errors import ConfigError
from .timeline import Timeline

__all__ = [
    "TRACE_VERSION",
    "TraceEvent",
    "PolicyDecisionEvent",
    "ChunkCopiedEvent",
    "CodecDecisionEvent",
    "CommitEvent",
    "RetryEvent",
    "FailoverEvent",
    "AutotuneSwitchEvent",
    "MembershipChangeEvent",
    "MigrationPlannedEvent",
    "MigrationBatchEvent",
    "MigrationCutoverEvent",
    "MigrationAbortEvent",
    "ResyncAbortedEvent",
    "TenantAdmissionEvent",
    "TenantPreemptEvent",
    "TenantThrottleEvent",
    "TenantSloEvent",
    "TraceSink",
    "RingBufferSink",
    "JsonlSink",
    "CounterSink",
    "TimelineSink",
    "CallbackSink",
    "TraceBus",
    "BUS",
    "event_from_record",
    "read_trace",
]

#: schema version of the Jsonl wire format.  Bump when an event gains,
#: loses or renames a field; register an upgrader in
#: :data:`_UPGRADERS` when old traces can be mechanically converted.
#: Version 2 added the elastic-membership kinds (``membership.change``,
#: ``migration.*``, ``resync.aborted``); every version-1 kind is
#: unchanged, so the 1->2 upgrader is the identity.
#: Version 3 added the payload-codec layer: ``chunk.copied`` gained
#: ``codec`` (representation that crossed the wire) and
#: ``logical_bytes`` (pre-encoding size), plus the new
#: ``codec.decision`` kind.  The 2->3 upgrader stamps old copies as
#: ``codec="raw"`` with ``logical_bytes=nbytes``.
#: Version 4 added the multi-tenant QoS layer: ``chunk.copied`` and
#: ``commit`` gained ``tenant`` (empty for untenanted runs), plus the
#: new ``tenant.admission`` / ``tenant.preempt`` / ``tenant.throttle``
#: / ``tenant.slo`` kinds.  Old records parse unchanged (the field
#: defaults to ``""``), so the 3->4 upgrader is the identity.
TRACE_VERSION = 4


# ---------------------------------------------------------------------------
# Events.  All frozen, all JSON-serializable via dataclasses.asdict.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TraceEvent:
    """Base event: simulated timestamp plus the emitting actor."""

    t: float
    actor: str

    @property
    def kind(self) -> str:
        """Stable wire name, e.g. ``policy.decision``."""
        return _KINDS[type(self)]

    def to_record(self) -> Dict[str, Any]:
        rec = {"kind": self.kind}
        rec.update(asdict(self))
        return rec


@dataclass(frozen=True)
class PolicyDecisionEvent(TraceEvent):
    """One ``CheckpointPolicy.decide`` outcome for one chunk."""

    chunk: str
    decision: str  # Decision.value: precopy | copy_at_checkpoint | skip
    policy: str  # policy registry name: none | cpc | dcpc | dcpcp


@dataclass(frozen=True)
class ChunkCopiedEvent(TraceEvent):
    """One chunk's data landed at a destination (t is the span end)."""

    chunk: str
    nbytes: int
    start: float  # span begin (t is the end)
    stream: str  # local | remote
    #: coordinated | precopy, and for the remote stream also resync (a
    #: background re-sync to a re-paired buddy) or migration (a live
    #: migration batch to a new buddy) — the timeline kinds of those
    #: phases
    phase: str
    destination: str = ""
    #: pages moved by this copy (page-granular mode counts only the
    #: stale extents; chunk-granular mode counts the whole chunk)
    pages: int = 0
    #: chunk bytes NOT moved thanks to incremental extents (0 for
    #: whole-chunk copies)
    bytes_saved: int = 0
    #: payload representation that crossed the wire (raw | delta | dedup;
    #: "raw" for every copy made with the codec layer off)
    codec: str = "raw"
    #: pre-encoding size of the moved extents; ``nbytes`` is the wire
    #: size, so ``logical_bytes - nbytes`` is the codec's saving
    logical_bytes: int = 0
    #: owning tenant in multi-tenant runs ("" for untenanted runs)
    tenant: str = ""


@dataclass(frozen=True)
class CodecDecisionEvent(TraceEvent):
    """The per-chunk codec policy weighed the candidate representations
    and picked one (emitted only by the ``auto`` codec, which is the
    only codec that *has* alternatives to weigh)."""

    chunk: str
    #: winning representation: full | delta | dedup
    chosen: str
    #: candidate wire costs in bytes (what each representation would
    #: have moved for this chunk's dirty extents)
    raw_bytes: int
    delta_bytes: int
    dedup_bytes: int
    #: compressibility probe result (zlib ratio; -1.0 when unmeasured,
    #: e.g. phantom chunks with no readable content)
    entropy: float = -1.0
    #: dirty density: dirty bytes / chunk bytes
    density: float = 0.0


@dataclass(frozen=True)
class CommitEvent(TraceEvent):
    """A commit point: staged versions flipped and metadata persisted."""

    chunks_committed: int
    bytes_committed: int
    flush_cost: float
    destination: str = ""
    #: owning tenant in multi-tenant runs ("" for untenanted runs)
    tenant: str = ""


@dataclass(frozen=True)
class RetryEvent(TraceEvent):
    """The resilience transport re-attempting a failed transfer."""

    target: str
    attempt: int
    delay: float
    reason: str = ""


@dataclass(frozen=True)
class FailoverEvent(TraceEvent):
    """A buddy/destination switch (orphan re-pair, degraded entry...)."""

    from_target: str
    to_target: str
    reason: str = ""


@dataclass(frozen=True)
class AutotuneSwitchEvent(TraceEvent):
    """The online policy tuner changed (or nudged) the active policy
    between two checkpoint intervals."""

    from_policy: str
    to_policy: str
    #: "bandit" for a mode switch, "nudge" for a threshold-margin nudge
    reason: str = "bandit"
    #: reward (negative cost) the closing interval earned
    reward: float = 0.0


@dataclass(frozen=True)
class MembershipChangeEvent(TraceEvent):
    """A planned membership event was applied by the
    :class:`~repro.cluster.membership.MembershipController`."""

    node: int
    #: "join" | "drain" | "depart"
    action: str
    #: re-pairings / migrations the event triggered
    moves: int = 0


@dataclass(frozen=True)
class MigrationPlannedEvent(TraceEvent):
    """The planner derived one per-node migration from the live
    buddy directory (source node's copies move between buddies)."""

    node: int
    from_target: str
    to_target: str
    #: "join" | "drain" | "failover"
    reason: str
    chunks: int = 0
    nbytes: int = 0


@dataclass(frozen=True)
class MigrationBatchEvent(TraceEvent):
    """One bounded migration batch staged and committed on the new
    buddy (t is the span end)."""

    seq: int
    chunks: int
    nbytes: int
    start: float
    #: batch ran at reduced pace because latency neared the SLO
    throttled: bool = False


@dataclass(frozen=True)
class MigrationCutoverEvent(TraceEvent):
    """Atomic buddy-ownership switch after the final batch commit."""

    from_target: str
    to_target: str
    batches: int
    nbytes: int


@dataclass(frozen=True)
class MigrationAbortEvent(TraceEvent):
    """A migration gave up before cutover; ownership stays with the
    old buddy (or falls back to a full re-sync on failover)."""

    reason: str
    batches: int = 0
    nbytes: int = 0


@dataclass(frozen=True)
class ResyncAbortedEvent(TraceEvent):
    """A :class:`~repro.resilience.resync.ResyncTask` exhausted its
    failure budget: the node stays unprotected (degraded) until the
    next repair attempt."""

    failures: int
    bytes_sent: int = 0
    chunks_sent: int = 0


@dataclass(frozen=True)
class TenantAdmissionEvent(TraceEvent):
    """The admission controller ruled on one checkpoint-job request."""

    tenant: str
    #: "admit" | "queue" | "reject"
    decision: str
    #: partition the job was placed on ("" when queued/rejected)
    partition: str = ""
    #: why (capacity | slo_risk | queue_full | ...)
    reason: str = ""
    #: jobs waiting behind this decision
    queue_depth: int = 0


@dataclass(frozen=True)
class TenantPreemptEvent(TraceEvent):
    """A best-effort tenant's running job was preempted to protect a
    guaranteed tenant's SLO."""

    tenant: str
    victim_job: str = ""
    #: guaranteed tenant whose deadline forced the preemption
    beneficiary: str = ""
    reason: str = ""


@dataclass(frozen=True)
class TenantThrottleEvent(TraceEvent):
    """A tenant ran below its demand for *duration* seconds because the
    fair-share allocator capped it (contention, not idleness)."""

    tenant: str
    duration: float
    #: share of device bandwidth the tenant held while throttled
    share: float = 0.0


@dataclass(frozen=True)
class TenantSloEvent(TraceEvent):
    """Per-tenant SLO summary at scenario end."""

    tenant: str
    jobs: int
    met: int
    attainment: float
    #: the interval/RPO target the attainment was scored against
    target: float = 0.0


_KINDS: Dict[type, str] = {
    PolicyDecisionEvent: "policy.decision",
    ChunkCopiedEvent: "chunk.copied",
    CodecDecisionEvent: "codec.decision",
    CommitEvent: "commit",
    RetryEvent: "retry",
    FailoverEvent: "failover",
    AutotuneSwitchEvent: "autotune.switch",
    MembershipChangeEvent: "membership.change",
    MigrationPlannedEvent: "migration.planned",
    MigrationBatchEvent: "migration.batch",
    MigrationCutoverEvent: "migration.cutover",
    MigrationAbortEvent: "migration.aborted",
    ResyncAbortedEvent: "resync.aborted",
    TenantAdmissionEvent: "tenant.admission",
    TenantPreemptEvent: "tenant.preempt",
    TenantThrottleEvent: "tenant.throttle",
    TenantSloEvent: "tenant.slo",
}

#: kind -> event class (the reader's inverse of :data:`_KINDS`)
_CLASSES: Dict[str, type] = {kind: cls for cls, kind in _KINDS.items()}


# ---------------------------------------------------------------------------
# Reading traces back (the replay engine's input path).
# ---------------------------------------------------------------------------

#: header-record wire name (never an event kind)
_HEADER_KIND = "trace.header"

def _upgrade_1_to_2(record: Dict[str, Any]) -> Dict[str, Any]:
    """Version 2 only *added* event kinds; every version-1 record is
    already a valid version-2 record."""
    return record


def _upgrade_2_to_3(record: Dict[str, Any]) -> Dict[str, Any]:
    """Version-2 copies predate the codec layer: every byte that moved
    was a raw byte, so wire size and logical size coincide."""
    if record.get("kind") == "chunk.copied":
        record = dict(record)
        record.setdefault("codec", "raw")
        record.setdefault("logical_bytes", record.get("nbytes", 0))
    return record


def _upgrade_3_to_4(record: Dict[str, Any]) -> Dict[str, Any]:
    """Version 4 only *added* kinds and defaulted fields (``tenant``);
    every version-3 record is already a valid version-4 record."""
    return record


#: version -> record upgrader to the *next* version.  Old traces walk
#: the chain until they reach :data:`TRACE_VERSION`.
_UPGRADERS: Dict[int, Callable[[Dict[str, Any]], Dict[str, Any]]] = {
    1: _upgrade_1_to_2,
    2: _upgrade_2_to_3,
    3: _upgrade_3_to_4,
}


def event_from_record(record: Dict[str, Any]) -> TraceEvent:
    """Rebuild the typed event from one Jsonl record.

    Unknown kinds and unknown fields raise :class:`ConfigError` — a
    trace that does not round-trip losslessly must never be silently
    replayed.
    """
    rec = dict(record)
    kind = rec.pop("kind", None)
    cls = _CLASSES.get(kind)
    if cls is None:
        raise ConfigError(
            f"unknown trace event kind {kind!r}; known kinds: "
            f"{', '.join(sorted(_CLASSES))}"
        )
    names = {f.name for f in fields(cls)}
    unknown = set(rec) - names
    if unknown:
        raise ConfigError(
            f"trace record of kind {kind!r} carries unknown fields "
            f"{sorted(unknown)} (schema drift? re-capture the trace or "
            f"register an upgrader)"
        )
    return cls(**rec)


def read_trace(
    target: str | IO[str],
) -> Tuple[Dict[str, Any], List[TraceEvent]]:
    """Load a Jsonl trace written by :class:`JsonlSink`.

    Returns ``(meta, events)`` where *meta* is the header's metadata
    dict (the capturing run's resolved config, if the writer recorded
    one).  The first line must be a ``trace.header`` record whose
    ``trace_version`` matches :data:`TRACE_VERSION` after any
    registered upgraders run; anything else raises a clear
    :class:`ConfigError` rather than replaying garbage.
    """
    if isinstance(target, str):
        with open(target, "r", encoding="utf-8") as fh:
            return read_trace(fh)
    first = target.readline()
    if not first.strip():
        raise ConfigError("empty trace stream (no trace.header line)")
    try:
        header = json.loads(first)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"trace header is not valid JSON: {exc}") from None
    if not isinstance(header, dict) or header.get("kind") != _HEADER_KIND:
        raise ConfigError(
            "trace stream has no trace.header first line; this trace "
            "predates the versioned schema — re-capture it (bench "
            "--trace / experiment --trace write the header)"
        )
    version = header.get("trace_version")
    upgraders: List[Callable[[Dict[str, Any]], Dict[str, Any]]] = []
    while isinstance(version, int) and version != TRACE_VERSION:
        upgrade = _UPGRADERS.get(version)
        if upgrade is None:
            break
        upgraders.append(upgrade)
        version += 1
    if version != TRACE_VERSION:
        raise ConfigError(
            f"trace_version {header.get('trace_version')!r} is not "
            f"supported (reader speaks {TRACE_VERSION} and no upgrade "
            f"path is registered)"
        )
    meta = header.get("meta") or {}
    events: List[TraceEvent] = []
    for line in target:
        if not line.strip():
            continue
        rec = json.loads(line)
        for upgrade in upgraders:
            rec = upgrade(rec)
        events.append(event_from_record(rec))
    return meta, events


# ---------------------------------------------------------------------------
# Sinks.
# ---------------------------------------------------------------------------


class TraceSink:
    """Receives every event emitted while attached to the bus."""

    def handle(self, event: TraceEvent) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:
        """Flush/release resources; detaching does not call this."""


class RingBufferSink(TraceSink):
    """Keeps the last *capacity* events in memory (``capacity=None``
    keeps everything — replay captures must never truncate)."""

    def __init__(self, capacity: Optional[int] = 4096) -> None:
        self.events: Deque[TraceEvent] = deque(maxlen=capacity)

    def handle(self, event: TraceEvent) -> None:
        self.events.append(event)

    def of_kind(self, kind: str) -> List[TraceEvent]:
        return [e for e in self.events if e.kind == kind]


class JsonlSink(TraceSink):
    """Streams each event as one JSON line to a file or file object.

    The first line written is always a ``trace.header`` record carrying
    :data:`TRACE_VERSION` and the optional *meta* dict (conventionally
    the capturing run's resolved config), so :func:`read_trace` can
    reject schema-mismatched streams instead of replaying garbage.
    """

    def __init__(
        self, target: str | IO[str], *, meta: Optional[Dict[str, Any]] = None
    ) -> None:
        if isinstance(target, str):
            self._fh: IO[str] = open(target, "w")
            self._owns = True
        else:
            self._fh = target
            self._owns = False
        header = {
            "kind": _HEADER_KIND,
            "trace_version": TRACE_VERSION,
            "meta": meta or {},
        }
        self._fh.write(json.dumps(header, sort_keys=True) + "\n")

    def handle(self, event: TraceEvent) -> None:
        self._fh.write(json.dumps(event.to_record(), sort_keys=True) + "\n")

    def close(self) -> None:
        self._fh.flush()
        if self._owns:
            self._fh.close()


class CounterSink(TraceSink):
    """Counts events by kind; policy decisions also by decision value."""

    def __init__(self) -> None:
        self.by_kind: Dict[str, int] = {}
        self.decisions: Dict[str, int] = {}

    def handle(self, event: TraceEvent) -> None:
        self.by_kind[event.kind] = self.by_kind.get(event.kind, 0) + 1
        if isinstance(event, PolicyDecisionEvent):
            self.decisions[event.decision] = self.decisions.get(event.decision, 0) + 1


class CallbackSink(TraceSink):
    """Feeds matching events to a callback — the bus's *subscriber*
    form, used by online consumers (e.g. the policy autotuner) that
    want live statistics, not storage.  ``kinds=None`` receives every
    event; otherwise only the listed wire names."""

    def __init__(
        self,
        callback: Callable[[TraceEvent], None],
        kinds: Optional[Iterable[str]] = None,
    ) -> None:
        self._callback = callback
        self._kinds = frozenset(kinds) if kinds is not None else None

    def handle(self, event: TraceEvent) -> None:
        if self._kinds is None or event.kind in self._kinds:
            self._callback(event)


class TimelineSink(TraceSink):
    """Adapts :class:`ChunkCopiedEvent` spans onto a Timeline, so a
    trace-driven run can render the same Figure-5 diagrams as the
    directly-instrumented paths."""

    #: (stream, phase) -> timeline kind
    _PHASE_KINDS = {
        ("local", "coordinated"): "local_ckpt",
        ("local", "precopy"): "precopy",
        ("remote", "coordinated"): "remote_ckpt",
        ("remote", "precopy"): "remote_precopy",
    }

    def __init__(self, timeline: Optional[Timeline] = None) -> None:
        self.timeline = timeline if timeline is not None else Timeline()

    def handle(self, event: TraceEvent) -> None:
        if not isinstance(event, ChunkCopiedEvent):
            return
        kind = self._PHASE_KINDS.get((event.stream, event.phase), event.phase)
        self.timeline.record(event.actor, kind, event.start, event.t)


# ---------------------------------------------------------------------------
# The bus.
# ---------------------------------------------------------------------------


class TraceBus:
    """Fan-out of trace events to the attached sinks.

    ``emit`` is called from simulation hot paths, so the no-sink case
    must stay one attribute load and one truthiness test.
    """

    def __init__(self) -> None:
        self._sinks: List[TraceSink] = []

    @property
    def active(self) -> bool:
        """True when at least one sink is attached — lets emitters skip
        building event objects entirely."""
        return bool(self._sinks)

    def emit(self, event: TraceEvent) -> None:
        if not self._sinks:
            return
        for sink in self._sinks:
            sink.handle(event)

    def attach(self, sink: TraceSink) -> TraceSink:
        self._sinks.append(sink)
        return sink

    def detach(self, sink: TraceSink) -> None:
        if sink in self._sinks:
            self._sinks.remove(sink)

    def subscribe(
        self,
        callback: Callable[[TraceEvent], None],
        kinds: Optional[Iterable[str]] = None,
    ) -> CallbackSink:
        """Attach a callback subscriber for the given event kinds and
        return its sink handle (pass it to :meth:`unsubscribe`)."""
        sink = CallbackSink(callback, kinds)
        self.attach(sink)
        return sink

    def unsubscribe(self, sink: TraceSink) -> None:
        self.detach(sink)

    @contextmanager
    def capture(self, sink: Optional[TraceSink] = None) -> Iterator[TraceSink]:
        """Attach *sink* (default: a fresh ring buffer) for the scope of
        a ``with`` block."""
        s = sink if sink is not None else RingBufferSink()
        self.attach(s)
        try:
            yield s
        finally:
            self.detach(s)


#: the process-global bus every pipeline layer emits to
BUS = TraceBus()
