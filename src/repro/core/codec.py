"""Payload representation layer: delta encoding + content-addressed dedup.

PR 5 made the copy path extent-granular, but every extent still ships
as raw full bytes.  This module changes the *unit of transfer*: the
dirty-chunk walk plans a :class:`Payload` — FULL raw bytes, a DELTA
against the committed shadow version, or DEDUP references into a
content-addressed :class:`BlockStore` — and the destination charges
the payload's *wire* bytes instead of the raw extent bytes.  Staging
still materializes full content into the NVM shadow regions (the same
"payloads are stored decompressed on the buddy" semantics the
compression model established), so the two-version crash protocol and
restart paths are untouched; the codec only changes what crosses the
bus/fabric plus the digest index used to prove identity.

Two operating modes share one codec implementation:

* **exact mode** (``encode_bytes`` / ``decode_bytes``): real byte
  buffers in, encoded representation out, byte-exact round trip.  Used
  by the property suite, restart digest verification and the demo.
* **planning mode** (``plan``): accounting over a chunk's dirty
  extents — works for phantom (size-only) chunks through the
  deterministic :class:`ContentModel` and for real chunks through
  blake2b block digests.  This is the DES hot path, so everything is
  vectorized numpy.

Calibration: the phantom content model's ``novelty`` fraction (the
probability a write actually changes a block's content) follows the
fine-grained-update literature — Cohen et al.'s in-cache-line logging
and the JASS technique menu both report that steady-state HPC writes
rewrite a large fraction of bytes with unchanged values — and mirrors
this repo's existing ``CompressionModel.phantom_ratio = 0.6`` style of
a single documented modeling constant per write pattern.
"""

from __future__ import annotations

import hashlib
import struct
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import CheckpointError, CodecError, ConfigError, MemoryError_
from ..faults.crashpoints import fire

__all__ = [
    "DEFAULT_BLOCK",
    "DIGEST_META_BYTES",
    "DELTA_HEADER_BYTES",
    "Payload",
    "BlockStore",
    "ContentModel",
    "EntropyProbe",
    "Codec",
    "RawCodec",
    "DeltaCodec",
    "DedupCodec",
    "AutoCodec",
    "CODECS",
    "codec_names",
    "resolve_codec",
    "blocks_of_extents",
    "covered_bytes",
    "block_digests",
    "content_digest",
    "current_digests",
    "ensure_content_model",
    "PATTERN_NOVELTY",
]

#: default content block (one page — staleness is page-granular, so
#: blocks and stale runs align except at the chunk tail)
DEFAULT_BLOCK = 4096
#: wire cost of one manifest entry (8B digest + chunk/offset/len
#: bookkeeping a real store would persist per referenced block)
DIGEST_META_BYTES = 48
#: wire cost of one delta run header (offset + length + base check)
DELTA_HEADER_BYTES = 16

# splitmix64 finalizer constants (vectorized deterministic hashing)
_K1 = np.uint64(0x9E3779B97F4A7C15)
_K2 = np.uint64(0xBF58476D1CE4E5B9)
_K3 = np.uint64(0x94D049BB133111EB)
_U0 = np.uint64(0)
_U1 = np.uint64(1)


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over a uint64 array (wraps mod 2^64)."""
    x = np.asarray(x, dtype=np.uint64)
    x = (x ^ (x >> np.uint64(30))) * _K2
    x = (x ^ (x >> np.uint64(27))) * _K3
    return x ^ (x >> np.uint64(31))


def content_digest(data) -> int:
    """blake2b/8 digest of a full buffer as a nonzero uint64 int."""
    h = hashlib.blake2b(bytes(data), digest_size=8).digest()
    return int.from_bytes(h, "little") or 1


def block_digests(data, block: int = DEFAULT_BLOCK) -> np.ndarray:
    """blake2b/8 digest per *block* of *data* as a uint64 array.

    Zero digests are remapped to 1 so 0 stays the "absent" sentinel in
    slot maps.
    """
    mv = memoryview(bytes(data))
    n = max(1, -(-len(mv) // block)) if len(mv) else 0
    out = np.empty(n, dtype=np.uint64)
    for i in range(n):
        h = hashlib.blake2b(mv[i * block : (i + 1) * block], digest_size=8).digest()
        out[i] = int.from_bytes(h, "little") or 1
    return out


def blocks_of_extents(
    extents: Optional[List[tuple]], block: int, nbytes: int
) -> np.ndarray:
    """Indices (int64) of the blocks touched by *extents* (``None`` =
    the whole chunk)."""
    nblocks = max(1, -(-nbytes // block))
    if extents is None:
        return np.arange(nblocks, dtype=np.int64)
    mask = np.zeros(nblocks, dtype=bool)
    for off, n in extents:
        if n <= 0:
            continue
        mask[off // block : -(-(off + n) // block)] = True
    return np.flatnonzero(mask).astype(np.int64)


def covered_bytes(
    extents: Optional[List[tuple]], block: int, nbytes: int
) -> np.ndarray:
    """Per-block byte coverage (int64, full length) of *extents*."""
    nblocks = max(1, -(-nbytes // block))
    cov = np.zeros(nblocks, dtype=np.int64)
    if extents is None:
        extents = [(0, nbytes)]
    for off, n in extents:
        if n <= 0:
            continue
        b0 = off // block
        b1 = -(-(off + n) // block)
        cov[b0:b1] += block
        cov[b0] -= off - b0 * block
        cov[b1 - 1] -= b1 * block - (off + n)
    return cov


# ---------------------------------------------------------------------------
# Deterministic content evolution for phantom chunks.
# ---------------------------------------------------------------------------

#: per-write-pattern novelty defaults (fraction of a write that lands
#: as genuinely new content).  write_once data is effectively static;
#: staged chunks rework the same slices with mostly-unchanged values;
#: hot result arrays churn hardest.
PATTERN_NOVELTY = {
    "write_once": 0.05,
    "per_iter": 0.55,
    "staged": 0.35,
    "hot": 0.70,
}
DEFAULT_NOVELTY = 0.5


class ContentModel:
    """Models *what the bytes are* for a phantom (size-only) chunk.

    Each block keeps a write counter and a content **epoch**; a write
    bumps the epoch with probability ``novelty`` (decided by a
    deterministic splitmix64 hash of ``(salt, block, write#)``, so runs
    are exactly reproducible).  A block's digest is a pure function of
    ``(salt, block, epoch)`` — two checkpoints of an unchanged block
    therefore yield the same digest, which is what dedup exploits.
    """

    __slots__ = ("nbytes", "block", "nblocks", "novelty", "salt", "_writes", "_epochs", "_threshold")

    def __init__(
        self,
        nbytes: int,
        *,
        block: int = DEFAULT_BLOCK,
        novelty: float = DEFAULT_NOVELTY,
        salt: int = 0,
    ) -> None:
        self.nbytes = nbytes
        self.block = block
        # clamp below 1.0 so a changed block's delta is always strictly
        # cheaper than re-shipping it raw
        self.novelty = min(max(float(novelty), 0.0), 0.95)
        self.nblocks = max(1, -(-nbytes // block))
        self.salt = np.uint64(salt & 0xFFFFFFFFFFFFFFFF)
        self._writes = np.zeros(self.nblocks, dtype=np.uint64)
        self._epochs = np.zeros(self.nblocks, dtype=np.uint64)
        self._threshold = np.uint64(int(self.novelty * 2**32))

    def record_write(self, offset: int, nbytes: int) -> None:
        """Account an application write: every touched block's write
        counter bumps; its epoch bumps iff the hash says this write
        changed the content."""
        if nbytes <= 0:
            return
        b0 = offset // self.block
        b1 = min(self.nblocks, -(-(offset + nbytes) // self.block))
        if b1 <= b0:
            return
        idx = np.arange(b0, b1, dtype=np.uint64)
        w = self._writes[b0:b1] + _U1
        self._writes[b0:b1] = w
        u = _mix64(self.salt ^ (idx * _K1) ^ (w * _K3))
        changed = (u >> np.uint64(32)) < self._threshold
        self._epochs[b0:b1][changed] += _U1

    def digests(self, idx: np.ndarray) -> np.ndarray:
        """Current content digest (nonzero uint64) of each block in *idx*."""
        idx = np.asarray(idx, dtype=np.int64)
        u = idx.astype(np.uint64)
        d = _mix64(self.salt ^ ((u + _U1) * _K1) ^ ((self._epochs[idx] + _U1) * _K2))
        return np.where(d == _U0, _U1, d)


def current_digests(chunk, idx: np.ndarray, block: int = DEFAULT_BLOCK) -> np.ndarray:
    """Content digests of *idx* blocks as of *now* (phantom: content
    model; real: blake2b over the DRAM bytes).

    Publishing paths call this at stage time rather than reusing the
    digests planned before the transfer: staging re-reads the stale
    runs, so writes that raced the copy land in the staged version and
    the published digests must describe what actually landed.
    """
    model = ensure_content_model(chunk, block=block)
    if model is not None:
        return model.digests(idx)
    assert chunk.dram is not None
    idx = np.asarray(idx, dtype=np.int64)
    out = np.empty(len(idx), dtype=np.uint64)
    mv = memoryview(chunk.dram)
    for j, i in enumerate(idx):
        lo = int(i) * block
        h = hashlib.blake2b(mv[lo : lo + block], digest_size=8).digest()
        out[j] = int.from_bytes(h, "little") or 1
    return out


def ensure_content_model(chunk, *, block: int = DEFAULT_BLOCK) -> Optional[ContentModel]:
    """Attach (lazily) a :class:`ContentModel` to a phantom chunk.

    Real chunks return ``None`` — their digests come from the actual
    DRAM bytes.  The novelty knob comes from ``chunk.content_novelty``
    (set by the application model from the chunk's write pattern) with
    a documented default.
    """
    if not chunk.phantom:
        return None
    model = getattr(chunk, "_content", None)
    if model is None or model.nbytes != chunk.nbytes or model.block != block:
        model = ContentModel(
            chunk.nbytes,
            block=block,
            novelty=getattr(chunk, "content_novelty", DEFAULT_NOVELTY),
            salt=content_digest(chunk.name.encode()),
        )
        chunk._content = model
    return model


# ---------------------------------------------------------------------------
# Entropy probe (shared compressibility measurement — satellite 1).
# ---------------------------------------------------------------------------


class EntropyProbe:
    """Measures (and caches) how compressible a chunk's bytes are.

    One zlib level-1 pass over a bounded sample, cached by
    ``(incarnation, total_mods)`` *per chunk id*: the incarnation
    counter bumps whenever a chunk's identity-to-content mapping breaks
    (free/realloc, restore-from-committed, lazy-restart migration,
    resize), so stale ratios can never outlive the buffer they
    measured — the bug the old ``(chunk_id, total_mods)`` cache in
    :class:`repro.core.compression.CompressionModel` had.
    """

    SAMPLE_BYTES = 256 * 1024

    def __init__(self, default_ratio: float = 0.6) -> None:
        self.default_ratio = default_ratio
        #: chunk_id -> ((incarnation, total_mods), measured ratio)
        self._cache: Dict[int, Tuple[Tuple[int, int], float]] = {}
        self.measurements = 0

    def ratio_for(self, chunk) -> float:
        if chunk.phantom or chunk.dram is None:
            return self.default_ratio
        key = (chunk.incarnation, chunk.total_mods)
        hit = self._cache.get(chunk.chunk_id)
        if hit is not None and hit[0] == key:
            return hit[1]
        sample = chunk.dram[: self.SAMPLE_BYTES]
        ratio = min(1.0, len(zlib.compress(sample.tobytes(), 1)) / max(1, len(sample)))
        self._cache[chunk.chunk_id] = (key, ratio)
        self.measurements += 1
        return ratio

    def forget(self, chunk_id: int) -> None:
        self._cache.pop(chunk_id, None)


# ---------------------------------------------------------------------------
# Content-addressed block store.
# ---------------------------------------------------------------------------


class BlockStore:
    """Refcounted content-addressed index over committed block digests.

    The store is pure metadata: full content lives in the NVM shadow
    regions as before; the index proves block identity so planning can
    skip bytes that are already resident.  It is double-buffering
    aware — one digest map per ``(chunk, version slot)`` — and commits
    transactionally: ``stage`` during a round, ``commit`` at the
    coordinated commit point (between the data flush and the metadata
    flush), ``abort``/``begin_round`` to discard a crashed round.

    Everything is vectorized: the global index is a sorted uint64
    digest array with a parallel refcount array, and commits merge via
    ``np.unique`` + ``searchsorted`` into freshly built arrays that are
    swapped in atomically (a crash mid-commit leaves either the old or
    a rebuildable state — see :meth:`rebuild`).
    """

    def __init__(self, *, block: int = DEFAULT_BLOCK) -> None:
        self.block = block
        self._digests = np.empty(0, dtype=np.uint64)  # sorted, unique
        self._counts = np.empty(0, dtype=np.int64)  # parallel, all > 0
        #: (chunk_name, slot) -> per-block committed digest (0 = absent)
        self._slots: Dict[Tuple[str, int], np.ndarray] = {}
        self._staged: List[Tuple[str, int, np.ndarray, np.ndarray]] = []
        #: digest -> raw block bytes (exact mode only; planning mode
        #: never stores content)
        self._payloads: Dict[int, bytes] = {}
        self.commits = 0

    # -- queries -----------------------------------------------------------

    @property
    def unique_blocks(self) -> int:
        return len(self._digests)

    @property
    def total_refs(self) -> int:
        return int(self._counts.sum()) if len(self._counts) else 0

    def has(self, digest: int) -> bool:
        return self.refcount(digest) > 0

    def refcount(self, digest: int) -> int:
        i = int(np.searchsorted(self._digests, np.uint64(digest)))
        if i < len(self._digests) and self._digests[i] == np.uint64(digest):
            return int(self._counts[i])
        return 0

    def contains(self, digests: np.ndarray) -> np.ndarray:
        """Vectorized membership of *digests* in the committed index."""
        digests = np.asarray(digests, dtype=np.uint64)
        if len(self._digests) == 0 or len(digests) == 0:
            return np.zeros(len(digests), dtype=bool)
        pos = np.searchsorted(self._digests, digests)
        pos = np.minimum(pos, len(self._digests) - 1)
        return self._digests[pos] == digests

    def slot_digests(self, name: str, slot: int) -> Optional[np.ndarray]:
        """The committed digest map for ``(name, slot)`` or ``None``."""
        return self._slots.get((name, slot))

    # -- round lifecycle ---------------------------------------------------

    def begin_round(self) -> None:
        """Drop any staleness left by a crashed round."""
        self._staged.clear()

    def stage(self, name: str, slot: int, idx: np.ndarray, digests: np.ndarray) -> None:
        """Queue digest updates for *idx* blocks of ``(name, slot)``;
        applied (and refcounted) only at :meth:`commit`."""
        idx = np.asarray(idx, dtype=np.int64)
        digests = np.asarray(digests, dtype=np.uint64)
        if len(idx) != len(digests):
            raise CheckpointError("block-store stage: index/digest length mismatch")
        if len(idx):
            # last write wins when one stage names a block twice —
            # otherwise commit would refcount a digest the slot map
            # never holds
            _, last_rev = np.unique(idx[::-1], return_index=True)
            sel = len(idx) - 1 - last_rev
            self._staged.append((name, slot, idx[sel], digests[sel]))

    def abort(self) -> None:
        self._staged.clear()

    def commit(self) -> int:
        """Apply every staged update transactionally; returns the
        number of block entries committed.

        Fires the ``codec.store.commit.*`` crash points: ``before`` is
        clean (nothing applied), ``mid`` is torn (slot maps updated but
        the refcount index not yet swapped — :meth:`rebuild` recovers),
        ``done`` is clean-after.
        """
        fire("codec.store.commit.before")
        if not self._staged:
            fire("codec.store.commit.mid")
            fire("codec.store.commit.done")
            return 0
        inc: List[np.ndarray] = []
        dec: List[np.ndarray] = []
        n_entries = 0
        for name, slot, idx, digests in self._staged:
            cur = self._ensure_slot(name, slot, int(idx.max()) + 1)
            old = cur[idx]
            dec.append(old[old != _U0])
            inc.append(digests)
            cur[idx] = digests
            n_entries += len(idx)
        fire("codec.store.commit.mid")
        self._apply(np.concatenate(inc), np.concatenate(dec) if dec else np.empty(0, np.uint64))
        self._staged.clear()
        self.commits += 1
        fire("codec.store.commit.done")
        return n_entries

    def _ensure_slot(self, name: str, slot: int, nblocks: int) -> np.ndarray:
        cur = self._slots.get((name, slot))
        if cur is None:
            cur = np.zeros(nblocks, dtype=np.uint64)
            self._slots[(name, slot)] = cur
        elif len(cur) < nblocks:
            grown = np.zeros(nblocks, dtype=np.uint64)
            grown[: len(cur)] = cur
            cur = grown
            self._slots[(name, slot)] = cur
        return cur

    def _apply(self, inc: np.ndarray, dec: np.ndarray) -> None:
        u_inc, c_inc = np.unique(inc, return_counts=True)
        merged = np.union1d(self._digests, u_inc)
        counts = np.zeros(len(merged), dtype=np.int64)
        if len(self._digests):
            counts[np.searchsorted(merged, self._digests)] = self._counts
        counts[np.searchsorted(merged, u_inc)] += c_inc
        if len(dec):
            u_dec, c_dec = np.unique(dec, return_counts=True)
            pos = np.searchsorted(merged, u_dec)
            present = (pos < len(merged)) & (merged[np.minimum(pos, len(merged) - 1)] == u_dec)
            if not present.all():
                raise CheckpointError("block-store decref of an unknown digest")
            counts[pos] -= c_dec
        if (counts < 0).any():
            raise CheckpointError("block-store refcount went negative")
        keep = counts > 0
        # build-then-swap: both arrays replaced in one step
        self._digests, self._counts = merged[keep], counts[keep]

    def rebuild(self) -> None:
        """Crash recovery: re-derive the refcount index from the slot
        maps (the maps are the durable truth; the index is a cache)."""
        live = [v[v != _U0] for v in self._slots.values()]
        alld = np.concatenate(live) if live else np.empty(0, np.uint64)
        self._digests, self._counts = np.unique(alld, return_counts=True)
        self._counts = self._counts.astype(np.int64)
        self._staged.clear()

    def drop_chunk(self, name: str) -> None:
        """Free/realloc: dereference every slot of *name*."""
        gone = [k for k in self._slots if k[0] == name]
        if not gone:
            return
        dec = np.concatenate([self._slots[k][self._slots[k] != _U0] for k in gone])
        for k in gone:
            del self._slots[k]
        if len(dec):
            self._apply(np.empty(0, np.uint64), dec)

    # -- exact-mode content (property tests / demo / verification) --------

    def put_bytes(self, digest: int, data: bytes) -> None:
        self._payloads.setdefault(int(digest), bytes(data))

    def get_bytes(self, digest: int) -> bytes:
        try:
            return self._payloads[int(digest)]
        except KeyError:
            raise CodecError(f"block store has no content for digest {digest:#x}")


# ---------------------------------------------------------------------------
# Payload: the unit of transfer.
# ---------------------------------------------------------------------------


@dataclass
class Payload:
    """What one chunk's checkpoint round actually puts on the wire."""

    kind: str  # "full" | "delta" | "dedup"
    codec: str  # codec that produced it ("raw", "delta", "dedup", "auto")
    logical_bytes: int  # pre-codec bytes (what raw would have shipped)
    wire_bytes: int  # bytes actually charged to the bus/fabric
    extents: Optional[List[tuple]] = None
    blocks: int = 0  # blocks covered
    blocks_new: int = 0  # blocks whose content must ship
    blocks_ref: int = 0  # blocks satisfied by store references
    changed_bytes: int = 0  # delta: bytes that differ from the base
    slot: int = -1  # planning: version slot the digests publish into
    base_slot: int = -1  # delta: version slot used as the base
    base_digest: int = 0  # exact mode: digest of the base buffer
    data: Optional[bytes] = None  # exact mode: encoded representation
    block_index: Optional[np.ndarray] = None  # planning: covered block idx
    block_digests: Optional[np.ndarray] = None  # planning: their digests
    candidates: Optional[Dict[str, int]] = None  # auto: wire per candidate
    entropy: float = -1.0  # probe ratio at decision time (-1 = unmeasured)
    density: float = 0.0  # dirty density (logical / chunk bytes)

    @property
    def saved_bytes(self) -> int:
        return max(0, self.logical_bytes - self.wire_bytes)


# ---------------------------------------------------------------------------
# Codecs.
# ---------------------------------------------------------------------------


class Codec:
    """Base codec: both the exact byte transform and the DES planner."""

    name = "raw"

    # -- exact mode --------------------------------------------------------

    def encode_bytes(
        self,
        data,
        *,
        base=None,
        store: Optional[BlockStore] = None,
        block: int = DEFAULT_BLOCK,
    ) -> Payload:
        raise NotImplementedError

    def decode_bytes(
        self,
        payload: Payload,
        *,
        base=None,
        store: Optional[BlockStore] = None,
    ) -> bytes:
        raise NotImplementedError

    # -- planning mode -----------------------------------------------------

    def plan(
        self,
        chunk,
        extents: Optional[List[tuple]],
        *,
        store: BlockStore,
        slot: int,
        base_slot: int = -1,
        name: Optional[str] = None,
        probe: Optional[EntropyProbe] = None,
    ) -> Payload:
        raise NotImplementedError

    # shared planning helpers ---------------------------------------------

    def _coverage(self, chunk, extents, block):
        idx = blocks_of_extents(extents, block, chunk.nbytes)
        cov = covered_bytes(extents, block, chunk.nbytes)
        return idx, cov, int(cov.sum())

    def _digests_for(self, chunk, idx: np.ndarray, block: int) -> np.ndarray:
        """Current content digests of *idx* blocks at planning time."""
        return current_digests(chunk, idx, block)


class RawCodec(Codec):
    """Identity: wire == logical.  The default and golden baseline."""

    name = "raw"

    def encode_bytes(self, data, *, base=None, store=None, block=DEFAULT_BLOCK) -> Payload:
        raw = bytes(data)
        return Payload(
            kind="full", codec=self.name, logical_bytes=len(raw), wire_bytes=len(raw), data=raw
        )

    def decode_bytes(self, payload, *, base=None, store=None) -> bytes:
        if payload.data is None:
            raise CodecError("raw payload carries no data")
        return payload.data

    def plan(self, chunk, extents, *, store, slot, base_slot=-1, name=None, probe=None) -> Payload:
        logical = chunk.nbytes if extents is None else int(sum(n for _, n in extents))
        return Payload(
            kind="full",
            codec=self.name,
            logical_bytes=logical,
            wire_bytes=logical,
            extents=extents,
            density=logical / max(1, chunk.nbytes),
        )


class DeltaCodec(Codec):
    """XOR-delta against the committed shadow version.

    Exact mode packs changed runs as ``(u64 offset, u32 length)``
    headers plus the XOR bytes; decode verifies the base's digest
    before applying (delta-against-wrong-base must fail loudly, not
    corrupt silently).
    """

    name = "delta"
    _RUN = struct.Struct("<QI")

    def encode_bytes(self, data, *, base=None, store=None, block=DEFAULT_BLOCK) -> Payload:
        raw = bytes(data)
        if base is None:
            raise CodecError("delta encode requires a base buffer")
        base_b = bytes(base)
        if len(base_b) != len(raw):
            raise CodecError(
                f"delta base length {len(base_b)} != data length {len(raw)}"
            )
        a = np.frombuffer(raw, dtype=np.uint8)
        b = np.frombuffer(base_b, dtype=np.uint8)
        neq = a != b
        # run boundaries of the changed mask
        edges = np.flatnonzero(np.diff(neq.astype(np.int8)))
        starts = list((edges + 1)[~neq[edges]]) if len(edges) else []
        ends = list((edges + 1)[neq[edges]]) if len(edges) else []
        if len(neq) and neq[0]:
            starts.insert(0, 0)
        if len(neq) and neq[-1]:
            ends.append(len(neq))
        parts = []
        changed = 0
        for s, e in zip(starts, ends):
            parts.append(self._RUN.pack(s, e - s))
            parts.append((a[s:e] ^ b[s:e]).tobytes())
            changed += e - s
        packed = b"".join(parts)
        return Payload(
            kind="delta",
            codec=self.name,
            logical_bytes=len(raw),
            wire_bytes=len(packed) + DELTA_HEADER_BYTES,
            changed_bytes=changed,
            base_digest=content_digest(base_b),
            data=packed,
        )

    def decode_bytes(self, payload, *, base=None, store=None) -> bytes:
        if base is None:
            raise CodecError("delta decode requires the base buffer")
        base_b = bytes(base)
        if content_digest(base_b) != payload.base_digest:
            raise CodecError("delta base mismatch: digest differs from encode-time base")
        out = bytearray(base_b)
        data = payload.data or b""
        pos = 0
        while pos < len(data):
            off, n = self._RUN.unpack_from(data, pos)
            pos += self._RUN.size
            xor = data[pos : pos + n]
            pos += n
            for i in range(n):
                out[off + i] ^= xor[i]
        return bytes(out)

    def plan(self, chunk, extents, *, store, slot, base_slot=-1, name=None, probe=None) -> Payload:
        block = store.block
        cname = name or chunk.name
        idx, cov, logical = self._coverage(chunk, extents, block)
        digests = self._digests_for(chunk, idx, block)
        base = store.slot_digests(cname, base_slot) if base_slot >= 0 else None
        payload = Payload(
            kind="delta",
            codec=self.name,
            logical_bytes=logical,
            wire_bytes=logical,
            extents=extents,
            blocks=len(idx),
            base_slot=base_slot,
            block_index=idx,
            block_digests=digests,
            density=logical / max(1, chunk.nbytes),
        )
        if base is None or len(idx) == 0:
            # no committed base: ship full (but still publish digests
            # so the next round has a base)
            payload.kind = "full"
            return payload
        based = np.zeros(len(idx), dtype=np.uint64)
        inb = idx < len(base)
        based[inb] = base[idx[inb]]
        unchanged = based == digests
        changed_cov = cov[idx[~unchanged]]
        changed_bytes = self._changed_bytes(chunk, idx[~unchanged], changed_cov, block, base_slot)
        wire = int(changed_bytes + len(idx) * DELTA_HEADER_BYTES)
        payload.wire_bytes = min(wire, logical)
        payload.changed_bytes = int(changed_bytes)
        payload.blocks_ref = int(unchanged.sum())
        payload.blocks_new = int((~unchanged).sum())
        return payload

    def _changed_bytes(self, chunk, changed_idx, changed_cov, block, base_slot) -> int:
        """Bytes that actually differ within the changed blocks: exact
        XOR count for real chunks with a readable committed region,
        novelty-scaled coverage for phantom chunks."""
        if len(changed_idx) == 0:
            return 0
        model = getattr(chunk, "_content", None)
        if chunk.phantom:
            novelty = model.novelty if model is not None else DEFAULT_NOVELTY
            return int(round(float(changed_cov.sum()) * novelty))
        try:
            base = chunk.versions[base_slot].read(0, chunk.nbytes)
        except (MemoryError_, IndexError) as exc:
            # a committed base that cannot be read is a corrupt shadow,
            # not a reason to guess at the delta
            raise CodecError(
                f"delta base of chunk {chunk.name!r} (version slot {base_slot}) "
                f"is unreadable: {exc}"
            ) from exc
        total = 0
        for i, covb in zip(changed_idx, changed_cov):
            lo = int(i) * block
            hi = min(lo + block, chunk.nbytes)
            total += int(np.count_nonzero(chunk.dram[lo:hi] != base[lo:hi]))
        return total


class DedupCodec(Codec):
    """Content-addressed dedup: blocks already in the store ship as
    digest references; only novel blocks ship bytes.

    Exact mode packs per block: ``flag(1) + digest(8)`` for a ref, or
    ``flag(1) + digest(8) + len(4) + bytes`` for a new block (which is
    also published to the store so later encodes can reference it).
    """

    name = "dedup"
    _HDR = struct.Struct("<BQI")

    def encode_bytes(self, data, *, base=None, store=None, block=DEFAULT_BLOCK) -> Payload:
        if store is None:
            raise CodecError("dedup encode requires a block store")
        raw = bytes(data)
        mv = memoryview(raw)
        parts = []
        new = ref = 0
        nblocks = max(1, -(-len(raw) // block)) if raw else 0
        for i in range(nblocks):
            blk = mv[i * block : (i + 1) * block]
            dg = content_digest(blk)
            if store.has(dg) or dg in store._payloads:
                parts.append(self._HDR.pack(1, dg, 0))
                ref += 1
            else:
                parts.append(self._HDR.pack(0, dg, len(blk)))
                parts.append(bytes(blk))
                store.put_bytes(dg, bytes(blk))
                new += 1
        packed = b"".join(parts)
        return Payload(
            kind="dedup",
            codec=self.name,
            logical_bytes=len(raw),
            wire_bytes=len(packed),
            blocks=nblocks,
            blocks_new=new,
            blocks_ref=ref,
            data=packed,
        )

    def decode_bytes(self, payload, *, base=None, store=None) -> bytes:
        if store is None:
            raise CodecError("dedup decode requires a block store")
        data = payload.data or b""
        out = bytearray()
        pos = 0
        while pos < len(data):
            flag, dg, n = self._HDR.unpack_from(data, pos)
            pos += self._HDR.size
            if flag:
                blk = store.get_bytes(dg)
            else:
                blk = data[pos : pos + n]
                pos += n
                if content_digest(blk) != dg:
                    raise CodecError("dedup block digest mismatch on decode")
            out += blk
        return bytes(out[: payload.logical_bytes])

    def plan(self, chunk, extents, *, store, slot, base_slot=-1, name=None, probe=None) -> Payload:
        block = store.block
        idx, cov, logical = self._coverage(chunk, extents, block)
        digests = self._digests_for(chunk, idx, block)
        hits = store.contains(digests)
        new_bytes = int(cov[idx[~hits]].sum())
        wire = new_bytes + len(idx) * DIGEST_META_BYTES
        return Payload(
            kind="dedup",
            codec=self.name,
            logical_bytes=logical,
            wire_bytes=min(int(wire), logical) if logical else int(wire),
            extents=extents,
            blocks=len(idx),
            blocks_new=int((~hits).sum()),
            blocks_ref=int(hits.sum()),
            base_slot=base_slot,
            block_index=idx,
            block_digests=digests,
            density=logical / max(1, chunk.nbytes),
        )


class AutoCodec(Codec):
    """The per-chunk policy axis: plan delta and dedup, score them
    against raw by wire bytes, pick the cheapest.  Observed entropy
    (real chunks, via the shared probe) and dirty density are recorded
    on the payload for the ``codec.decision`` trace event."""

    name = "auto"

    def __init__(self) -> None:
        self._delta = DeltaCodec()
        self._dedup = DedupCodec()
        self._raw = RawCodec()

    def encode_bytes(self, data, *, base=None, store=None, block=DEFAULT_BLOCK) -> Payload:
        options = [self._raw.encode_bytes(data, block=block)]
        if base is not None:
            options.append(self._delta.encode_bytes(data, base=base, block=block))
        if store is not None:
            options.append(self._dedup.encode_bytes(data, store=store, block=block))
        best = min(options, key=lambda p: p.wire_bytes)
        best.candidates = {p.codec: p.wire_bytes for p in options}
        return best

    def decode_bytes(self, payload, *, base=None, store=None) -> bytes:
        inner = {"raw": self._raw, "delta": self._delta, "dedup": self._dedup}[
            payload.codec if payload.codec != self.name else payload.kind
        ]
        return inner.decode_bytes(payload, base=base, store=store)

    def plan(self, chunk, extents, *, store, slot, base_slot=-1, name=None, probe=None) -> Payload:
        raw = self._raw.plan(chunk, extents, store=store, slot=slot)
        delta = self._delta.plan(
            chunk, extents, store=store, slot=slot, base_slot=base_slot, name=name
        )
        dedup = self._dedup.plan(
            chunk, extents, store=store, slot=slot, base_slot=base_slot, name=name
        )
        best = min((raw, delta, dedup), key=lambda p: p.wire_bytes)
        if best is raw and dedup.block_index is not None:
            # raw won this round, but publish the digests anyway so the
            # *next* round has a dedup/delta base to win against
            best = Payload(
                kind="full",
                codec="raw",
                logical_bytes=raw.logical_bytes,
                wire_bytes=raw.wire_bytes,
                extents=extents,
                blocks=dedup.blocks,
                base_slot=base_slot,
                block_index=dedup.block_index,
                block_digests=dedup.block_digests,
                density=raw.density,
            )
        best.candidates = {
            "raw": raw.wire_bytes,
            "delta": delta.wire_bytes,
            "dedup": dedup.wire_bytes,
        }
        if probe is not None:
            best.entropy = probe.ratio_for(chunk)
        return best


CODECS = {
    "raw": RawCodec,
    "delta": DeltaCodec,
    "dedup": DedupCodec,
    "auto": AutoCodec,
}


def codec_names() -> List[str]:
    return sorted(CODECS)


def resolve_codec(name: str) -> Codec:
    try:
        cls = CODECS[name]
    except KeyError:
        raise ConfigError(f"unknown codec {name!r}; expected one of {codec_names()}")
    return cls()
