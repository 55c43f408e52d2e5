"""DCPCP: delayed pre-copy with prediction (§IV, Figure 6).

Some chunks ("hot chunks" — e.g. Lammps' 3-D result array) are
modified until the very end of a compute iteration; pre-copying them
early just wastes NVM bandwidth on repeated copies.  The paper's fix is
a **prediction table**: during a learning interval (the first
checkpoint interval) the runtime counts how many times each chunk is
modified and records the *order* of modifications as a small state
machine.  In later intervals a dirty chunk is withheld from pre-copy
until its remaining-modification counter reaches zero; a wrong
prediction is harmless — the chunk is simply copied during the
coordinated checkpoint (correctness never depends on the predictor).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..alloc.chunk import Chunk

__all__ = ["PredictionTable", "ModificationStateMachine"]


class ModificationStateMachine:
    """The chunk-modification-order state machine of Figure 6.

    States are chunk ids; a transition ``a -> b`` is recorded whenever a
    modification of chunk *b* directly follows one of chunk *a* within
    an interval.  Counts accumulate over learning intervals; the
    machine exposes the most likely successor of each chunk and a DOT
    rendering for reports.
    """

    def __init__(self) -> None:
        #: transition counts: (from_chunk, to_chunk) -> count
        self.transitions: Dict[Tuple[int, int], int] = {}
        self._last: Optional[int] = None

    def observe(self, chunk_id: int) -> None:
        """Record one modification event (in arrival order)."""
        if self._last is not None:
            key = (self._last, chunk_id)
            self.transitions[key] = self.transitions.get(key, 0) + 1
        self._last = chunk_id

    def reset_position(self) -> None:
        """Interval boundary: the next observation starts a new walk."""
        self._last = None

    def successors(self, chunk_id: int) -> List[Tuple[int, int]]:
        """``(next_chunk, count)`` pairs sorted by decreasing count."""
        out = [(b, n) for (a, b), n in self.transitions.items() if a == chunk_id]
        out.sort(key=lambda t: (-t[1], t[0]))
        return out

    def predict_next(self, chunk_id: int) -> Optional[int]:
        succ = self.successors(chunk_id)
        return succ[0][0] if succ else None

    def to_dot(self, names: Optional[Dict[int, str]] = None) -> str:
        """Graphviz rendering (Fig. 6 reproduction)."""
        lines = ["digraph chunk_modifications {"]
        for (a, b), n in sorted(self.transitions.items()):
            la = names.get(a, str(a)) if names else str(a)
            lb = names.get(b, str(b)) if names else str(b)
            lines.append(f'  "{la}" -> "{lb}" [label="{n}"];')
        lines.append("}")
        return "\n".join(lines)


@dataclass
class _ChunkPrediction:
    """Learned per-chunk modification behaviour."""

    expected_mods: float = 0.0
    intervals_seen: int = 0
    hits: int = 0
    misses: int = 0


class PredictionTable:
    """Per-chunk modification counters + the order state machine.

    Lifecycle per checkpoint interval:

    1. ``begin_interval()`` at the start of each compute phase;
    2. ``observe(chunk)`` for every dirtying write (wired to the
       chunk's ``on_dirty`` observers by the pre-copy engine);
    3. ``eligible(chunk)`` consulted by DCPCP before pre-copying;
    4. ``end_interval()`` at the coordinated checkpoint — updates the
       learned counts (exponentially smoothed so the predictor adapts
       'to deal with application changes across iterations').
    """

    def __init__(self, smoothing: float = 0.5) -> None:
        if not 0.0 < smoothing <= 1.0:
            raise ValueError("smoothing must be in (0, 1]")
        self.smoothing = smoothing
        self.table: Dict[int, _ChunkPrediction] = {}
        self.machine = ModificationStateMachine()
        self._interval_mods: Dict[int, int] = {}
        self.intervals_completed = 0
        #: bumped at both interval boundaries, where :meth:`eligible`
        #: can change for every chunk at once (between them it changes
        #: only for the chunk passed to :meth:`observe`)
        self.epoch = 0

    # -- interval lifecycle -------------------------------------------------

    def begin_interval(self) -> None:
        self._interval_mods.clear()
        self.machine.reset_position()
        self.epoch += 1

    def observe(self, chunk: Chunk) -> None:
        cid = chunk.chunk_id
        self._interval_mods[cid] = self._interval_mods.get(cid, 0) + 1
        self.machine.observe(cid)

    def end_interval(self) -> None:
        """Fold this interval's counts into the learned expectations."""
        for cid, count in self._interval_mods.items():
            pred = self.table.setdefault(cid, _ChunkPrediction())
            if pred.intervals_seen == 0:
                pred.expected_mods = float(count)
            else:
                s = self.smoothing
                pred.expected_mods = s * count + (1.0 - s) * pred.expected_mods
            pred.intervals_seen += 1
        self.intervals_completed += 1
        self._interval_mods.clear()
        self.machine.reset_position()
        self.epoch += 1

    # -- queries ---------------------------------------------------------------

    @property
    def learning(self) -> bool:
        """True during the first interval (no predictions yet)."""
        return self.intervals_completed == 0

    def expected_mods(self, chunk: Chunk) -> float:
        pred = self.table.get(chunk.chunk_id)
        return pred.expected_mods if pred else 0.0

    def mods_so_far(self, chunk: Chunk) -> int:
        return self._interval_mods.get(chunk.chunk_id, 0)

    def remaining_mods(self, chunk: Chunk) -> float:
        """Predicted modifications still to come this interval; the
        chunk is worth pre-copying once this reaches zero."""
        return max(0.0, self.expected_mods(chunk) - self.mods_so_far(chunk))

    def eligible(self, chunk: Chunk) -> bool:
        """DCPCP eligibility: pre-copy only when the chunk is not
        expected to be written again this interval.  During the
        learning interval nothing is predicted, so everything is
        eligible (plain delayed pre-copy behaviour)."""
        if self.learning:
            return True
        return self.remaining_mods(chunk) <= 0.0

    def record_outcome(self, chunk: Chunk, was_redundant: bool) -> None:
        """Accuracy accounting: a pre-copy was *redundant* if the chunk
        was dirtied again before the coordinated checkpoint."""
        pred = self.table.setdefault(chunk.chunk_id, _ChunkPrediction())
        if was_redundant:
            pred.misses += 1
        else:
            pred.hits += 1

    def accuracy(self) -> float:
        hits = sum(p.hits for p in self.table.values())
        total = hits + sum(p.misses for p in self.table.values())
        return hits / total if total else 1.0

    def snapshot(self) -> Dict[int, float]:
        """Chunk id -> expected modification count (for reports)."""
        return {cid: p.expected_mods for cid, p in self.table.items()}
