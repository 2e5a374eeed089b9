"""Encoder configuration.

Defaults mirror the reference writer's structural constants
(/root/reference/writer.go:18-27) where they carry over; stripe sizing is
expressed in tokens (the dominant payload) rather than buffered bytes
because the input's cost driver is the ragged ``tokens`` list column.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class EncoderConfig:
    # stripe cut: a stripe closes when it holds ~this many token values
    # (200 MiB of int32 tokens ~= 50M; small default keeps test stripes real)
    stripe_target_tokens: int = 4_000_000
    # candidates for integer DATA streams, in preference order on ties
    int_candidates: tuple[str, ...] = ("rle2", "rle2_delta", "for", "planar")
    # string blob handling: measured-size choice between candidates, in
    # list order, a later one winning only when strictly smaller ("zlib"
    # remains supported; zstd-1 measures both smaller and ~6x faster than
    # flate-6 on the corpus's string blobs). The chunked kinds run first;
    # FSST then stops once the exact bytes so far plus ceil(len / longest
    # symbol) for each string left exceed what raw and they produce, so
    # the choice is the same as encoding every candidate in full.
    string_blob_candidates: tuple[str, ...] = ("fsst", "zstd", "none")
    # outer chunked block compression over each encoded stream (ORC's
    # CompressionKind, compressioncodec.go): "auto" tries zstd per stream
    # and keeps it only when it shrinks the stream; a kind named in
    # codecs.CHUNKED_KINDS forces that kind; "none" never compresses.
    # ORC's proto enumerates ZSTD alongside ZLIB/SNAPPY; zstd-1 measures
    # ~11x faster than the reference's flate-6 at <2% size cost on the
    # token corpus, so it is the default kind (the <=-reference size bar
    # is asserted on measured bytes_per_token, not per-stream).
    outer_compression: str = "auto"
    # seek points: record a (value position, byte offset) index entry per
    # stream every this-many values (writer.go:27 DefaultRowIndexStride),
    # enabling partial-stripe row-range decode; 0 disables
    row_index_stride: int = 10_000
    # prefer a vectorized codec (for/planar/bytes) over rle2 when its
    # measured size is within this fraction of rle2's: rle2's per-scope
    # loop is ~50x slower, and the streams where rle2 wins narrowly
    # (LENGTH/n_tok) are <0.5% of stripe bytes. 0 restores pure
    # smallest-size selection.
    rle2_speed_tolerance: float = 0.15
    # columns that get a per-stripe BLOOM_FILTER stream (the orc.proto
    # stream kind the reference never implements): point lookups read only
    # the filter's byte range to rule a stripe out. Opt-in — the filter
    # costs ~10 bits per distinct value of blob space.
    bloom_columns: tuple[str, ...] = ()
    # user-defined key/value metadata persisted alongside the manifests
    # (the writer.go:96-104 AddUserMetadata analogue): provenance tags,
    # pipeline versions, etc. Surfaced by manifest_summary and CLI stats.
    user_metadata: dict = field(default_factory=dict)
    # record a crc32 of each blob's bytes in its manifest meta (Apache ORC
    # has no file checksums at all — this exceeds the reference). Measured
    # ~3% of single-core encode (crc32 ~4.5 GB/s over the cache-warm
    # COMPRESSED bytes, ~1/4 of raw), less at bus-bound concurrency;
    # enables fsck integrity scans and opt-in decode-time validation
    # (decode_blob(validate=True)) that fail fast on bit-rot or torn
    # writes instead of surfacing as opaque codec errors downstream.
    blob_checksum: bool = True

    @classmethod
    def size_priority(cls, **overrides) -> "EncoderConfig":
        """Smallest-output mode: pure measured-size codec selection
        (``rle2_speed_tolerance=0`` — no vectorized-codec tie-break) and
        the reference's chunked flate-6 as the outer stage instead of
        zstd-1 (the round-4 speed default costs ~2% bytes/token; flate-6
        costs ~11x the outer CPU).  Reclaims the full round-3 size point;
        the default config remains the speed-balanced mode. BASELINE.md
        documents both."""
        d = {"rle2_speed_tolerance": 0.0, "outer_compression": "zlib"}
        d.update(overrides)
        return cls(**d)

