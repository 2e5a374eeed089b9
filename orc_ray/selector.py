"""Per-column-chunk codec auto-selection.

Re-creates the reference writer's encoding decisions as an explicit,
deterministic selector:
- integer sub-mode choice inside RLEv2 happens per 512-value scope in the
  kernel itself (determineEncoding, runlengthintegerwriterv2.go:265-402);
- THIS module picks between whole-stream codecs (rle2 vs delta-of-values
  rle2 vs frame-of-reference) and between dictionary/direct/FSST string
  layouts — the analogue of useDictionaryEncoding
  (/root/reference/treewriter.go:694-707) extended with measured-size
  tie-breaks.

``choose_int_codec`` is a pure function of chunk-local statistics
(sampled for large chunks). ``SelectorState`` adds a warm-start cache per
(source, stream): an encode job's tasks on one worker share it and only
re-measure every ``RECHECK_EVERY`` chunks, matching ORC's stripe-granular
stability. Decode is always correct, because the chosen codec is recorded
in the stream meta. But a partition's bytes can depend on which partitions
the same worker encoded earlier in the job, so a retried or resumed
partition may re-encode to different (equally valid) bytes.
"""

from __future__ import annotations

import functools

import numpy as np

from .codecs import CHUNKED_KINDS, forpack, fsst, outer_kind, planar, rle2
from .config import EncoderConfig

# streams larger than this are chosen on a sample: 16k is ample to
# separate codecs (they differ by >5% when they differ at all) and keeps
# the 4-candidate trial encode out of the profile
SAMPLE_VALUES = 16_384
# SelectorState re-evaluates a cached per-(source, stream) choice every
# this many chunks (stripe-granular stability like ORC's writer)
RECHECK_EVERY = 8


def _sample(values: np.ndarray, max_n: int) -> np.ndarray:
    """Deterministic sample of ~max_n values as CONTIGUOUS blocks spread
    across the stream. A strided single-value sample destroys the local
    structure (runs, ramps, plane stationarity) that run-length and
    frame-of-reference codecs exploit — measured on the bench corpus it
    inverts the codec ranking (planar reads 1.9 B/val on a strided sample
    vs 1.0 on the real stream). Block sampling preserves within-block
    structure; the handful of block seams is noise."""
    n = len(values)
    if n <= max_n:
        return values
    nblocks = 16
    block = max(1, max_n // nblocks)
    starts = (np.arange(nblocks, dtype=np.int64) * (n - block)) // max(nblocks - 1, 1)
    return np.concatenate([values[s: s + block] for s in starts])


def _delta_view(values: np.ndarray) -> np.ndarray:
    """Global first-order deltas (invertible by int64 cumsum regardless of
    row boundaries). Deltas of int32 inputs stay int32 only when the value
    range guarantees no wraparound."""
    if values.dtype == np.int32 and len(values):
        vmn, vmx = int(values.min()), int(values.max())
        if vmx - vmn > 2**31 - 1:
            values = values.astype(np.int64)
    d = np.empty_like(values)
    if len(values):
        d[0] = values[0]
        np.subtract(values[1:], values[:-1], out=d[1:])
    return d


# --- user-extension surface (SURVEY §2.10) ----------------------------------
# Pluggable int codecs: the Ray analogue of the reference's
# IntegerWriter/IntegerReader interfaces + factory dispatch
# (treewriter.go:190-205, treereader.go:117-126, treewriterfactory.go).
# A registered id participates in measured-size auto-selection when listed
# in EncoderConfig.int_candidates and round-trips through the manifest by
# id. Registration is process-local: in a Ray job, register from a module
# imported on the workers too (the same contract as any Ray UDF plugin).
_BUILTIN_INT_CODECS = ("rle2", "rle2_delta", "for", "planar", "bytes")
# ids with special-cased handling ANYWHERE in stream/blob records (e.g.
# _BlobWriter.add never outer-compresses 'fsst' or a chunked kind, which
# are already entropy-coded): a user codec under one of these names would
# get silently different write-path behavior, so they are reserved too.
_RESERVED_CODEC_IDS = _BUILTIN_INT_CODECS + tuple(CHUNKED_KINDS) + (
    "fsst", "none",                     # blob compression gates
    "dict", "int", "direct", "binary",  # encoding names in stream meta
)
_INT_CODEC_REGISTRY: dict[str, tuple] = {}


def register_int_codec(codec_id: str, encoder, decoder) -> None:
    """Register a custom whole-stream int codec.

    encoder(values: np.ndarray[int], signed: bool) -> bytes
    decoder(buf: bytes, signed: bool, n: int, out_dtype) -> np.ndarray
        (must return at least the first ``n`` values of the stream)
    """
    if codec_id in _RESERVED_CODEC_IDS:
        raise ValueError(f"cannot override reserved codec id {codec_id!r}")
    _INT_CODEC_REGISTRY[codec_id] = (encoder, decoder)


def unregister_int_codec(codec_id: str) -> None:
    _INT_CODEC_REGISTRY.pop(codec_id, None)


def encode_int_stream(values: np.ndarray, codec: str, signed: bool) -> bytes:
    if codec == "rle2":
        return rle2.encode(values, signed)
    if codec == "rle2_delta":
        return rle2.encode(_delta_view(values), True)
    if codec == "for":
        return forpack.encode(values)
    if codec == "planar":
        return planar.encode(values)
    if codec == "bytes":
        return np.ascontiguousarray(values, dtype=np.int64).tobytes()
    if codec in _INT_CODEC_REGISTRY:
        return _INT_CODEC_REGISTRY[codec][0](values, signed)
    raise ValueError(f"unknown int codec {codec!r}")


def decode_int_stream(buf: bytes, codec: str, signed: bool, n: int,
                      out_dtype=np.int64) -> np.ndarray:
    if codec == "rle2":
        return rle2.decode(buf, signed, n, out_dtype=out_dtype)
    if codec == "rle2_delta":
        return np.cumsum(rle2.decode(buf, True, n), dtype=np.int64)
    if codec == "for":
        return forpack.decode(buf)
    if codec == "planar":
        return planar.decode(buf, out_dtype=out_dtype)
    if codec == "bytes":
        return np.frombuffer(buf, dtype=np.int64, count=n)
    if codec in _INT_CODEC_REGISTRY:
        return _INT_CODEC_REGISTRY[codec][1](buf, signed, n, out_dtype)
    raise ValueError(f"unknown int codec {codec!r}")


def choose_int_codec(
    values: np.ndarray,
    signed: bool,
    config: EncoderConfig,
    candidates: tuple[str, ...] | None = None,
) -> str:
    """Pick the cheapest codec by measured size on a deterministic sample."""
    candidates = candidates or config.int_candidates
    if len(candidates) == 1 or len(values) == 0:
        return candidates[0]
    s = _sample(values, SAMPLE_VALUES)
    # measure what actually hits disk: the outer block-compression stage
    # keeps the smaller of (raw, compressed) per stream, and codecs differ
    # sharply in how compressible their output is (byte-planes vs
    # odd-width packs) — so measure with the SAME outer kind the writer
    # will use
    kind = outer_kind(config.outer_compression)[1]
    best, best_size = None, None
    sizes: dict[str, int] = {}
    for c in candidates:
        try:
            enc = encode_int_stream(s, c, signed)
            size = len(enc)
            if kind is not None:
                size = min(size, len(kind.module.compress(enc)))
        except Exception:
            continue
        if best_size is None or size < best_size:
            best, best_size = c, size
        sizes[c] = size
    if best in ("rle2", "rle2_delta") and config.rle2_speed_tolerance > 0:
        # speed-biased tie-break: rle2's scope loop runs ~50x slower than
        # the vectorized codecs (for/planar/bytes), so when one of those is
        # within the tolerance of rle2's measured size, take it. In
        # practice this only flips small side streams (LENGTH, n_tok —
        # <0.5% of stripe bytes each) where rle2's edge is a rounding
        # error on the file but ~1/3 of encode CPU.
        vec = [(sz, c) for c, sz in sizes.items()
               if c not in ("rle2", "rle2_delta")]
        if vec:
            vsz, vc = min(vec)
            if vsz <= best_size * (1.0 + config.rle2_speed_tolerance):
                return vc
    return best or candidates[0]


class CardinalitySketch:
    """Small HyperLogLog (2^p registers) over 64-bit value hashes — the
    mergeable per-block sketch behind ``approx_distinct_words``.
    Vectorized add; standard bias-corrected estimate."""

    def __init__(self, p: int = 10):
        self.p = p
        self.m = 1 << p
        self.regs = np.zeros(self.m, dtype=np.uint8)

    def add_hashes(self, h: np.ndarray) -> None:
        if not len(h):
            return
        h = np.ascontiguousarray(h, dtype=np.uint64)
        idx = (h >> np.uint64(64 - self.p)).astype(np.int64)
        rest = (h << np.uint64(self.p)) | np.uint64(1 << (self.p - 1))
        # rank = leading zeros of the remaining bits + 1
        from .codecs.bitpack import bit_length_u64

        rank = (65 - bit_length_u64(rest)).astype(np.uint8)
        np.maximum.at(self.regs, idx, rank)

    def estimate(self) -> float:
        m = float(self.m)
        inv = np.power(2.0, -self.regs.astype(np.float64))
        raw = 0.7213 / (1 + 1.079 / m) * m * m / inv.sum()
        zeros = int((self.regs == 0).sum())
        if raw <= 2.5 * m and zeros:
            return m * np.log(m / zeros)  # linear counting for small n
        return float(raw)


class SelectorState:
    """Warm-start cache of one encode job on one worker: remembers the
    winning codec per (group, stream) and only re-measures every Nth chunk.
    Cached choices make a stripe's bytes depend on the stripes encoded
    before it with the same state."""

    def __init__(self, config: EncoderConfig):
        self.config = config
        self._choice: dict[tuple[str, str], str] = {}
        self._count: dict[tuple[str, str], int] = {}

    def _due(self, key: tuple[str, str]) -> bool:
        """Count one use of ``key``; True when it has no cached entry or
        its entry is due for re-measuring (every RECHECK_EVERY-th use)."""
        cnt = self._count.get(key, 0)
        self._count[key] = cnt + 1
        return key not in self._choice or cnt % RECHECK_EVERY == 0

    def choose_int(
        self,
        group: str,
        stream: str,
        values: np.ndarray,
        signed: bool,
        candidates: tuple[str, ...] | None = None,
    ) -> str:
        key = (group, stream)
        if self._due(key):
            self._choice[key] = choose_int_codec(values, signed, self.config,
                                                 candidates)
        return self._choice[key]

    def blob_codec(self, group: str, column: str) -> str | None:
        """Cached string-blob codec for (group, column), or None when a
        full-trial re-measure is due. A full trial compresses with every
        candidate, so later stripes encode only the cached winner."""
        key = (group, f"blob:{column}")
        return None if self._due(key) else self._choice[key]

    def record_blob_choice(self, group: str, column: str, codec: str) -> None:
        self._choice[(group, f"blob:{column}")] = codec

    def fsst_table(self, group: str, column: str, sample_fn):
        """The FSST symbol table for (group, column), as a callable that
        trains it on its first call; a retrain is due every Nth use. On
        a due use ``sample_fn()`` takes that chunk's training sample, so
        a trial that never needs the table (``fsst.may_fit`` ruled FSST
        out) trains nothing, and a later chunk that does need it trains
        on that same sample. The table is serialized into every stream,
        so blobs stay self-contained and a retrained table never
        invalidates previously committed stripes."""
        key = (group, f"fsst:{column}")
        if self._due(key):
            sample = sample_fn()
            self._choice[key] = functools.cache(lambda: fsst.train(*sample))
        return self._choice[key]
