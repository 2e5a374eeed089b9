"""Stripe encode/decode: one Arrow table chunk -> encoded blob + manifest row.

Re-creates the reference's stripe write/read paths
(writeStripe /root/reference/writer.go:320-481; getStripe + TreeReaders
/root/reference/reader.go:369-456, /root/reference/treereader.go) on Arrow:
every column becomes a set of named byte streams (PRESENT/DATA/LENGTH/
DICT_DATA — streamname.go:29-36), streams are concatenated into one blob,
and a JSON-able ``meta`` dict plays the role of the stripe footer (stream
directory, per-column encoding + statistics).

Column mappings (SURVEY.md §2.2):
- int / date / timestamp -> DATA int stream, codec auto-selected
  (rle2 | rle2_delta | for)                                (C17/C18/C19)
- bool -> boolean bitstream over byte RLE                  (C10/C11)
- float32/64 -> raw IEEE-754 little-endian                 (C16)
- string/binary -> dictionary (sorted, distinct/total <= 0.49) or direct;
  blob optionally FSST or a chunked kind (zstd/zlib/snappy) (C12-C15, C21)
- list<int> -> LENGTH stream (diff of offsets) + child DATA (C23)
- nulls -> PRESENT boolean stream, suppressed when the chunk has no nulls
  (C26; only non-null values enter DATA, like BaseTreeWriter)
- optional outer chunked compression per stream (codecs.CHUNKED_KINDS) (C27)

No Ray imports here: pure (pyarrow, numpy) so it unit-tests standalone and
runs unchanged inside ``map_batches`` tasks.
"""

from __future__ import annotations

import base64
from zlib import crc32 as _zlib_crc32

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import schema as _schema_mod
from .codecs import CHUNKED_KINDS, byterle, chunked, fsst, outer_kind, rle2
from .codecs.dictionary import dictionary_encode, string_blob, strings_from_blob
from .config import EncoderConfig
from .selector import (
    SelectorState,
    choose_int_codec,
    decode_int_stream,
    encode_int_stream,
)

FORMAT_VERSION = 1

_INT_TYPES = {
    pa.int8(): 8, pa.int16(): 16, pa.int32(): 32, pa.int64(): 64,
    pa.uint8(): 8, pa.uint16(): 16, pa.uint32(): 32, pa.uint64(): 64,
}


def _is_int_like(t: pa.DataType) -> bool:
    return (
        pa.types.is_integer(t)
        or pa.types.is_date(t)
        or pa.types.is_timestamp(t)
        or pa.types.is_time(t)
    )


def _int_view(arr: pa.Array) -> np.ndarray:
    """Zero-copy int64 view of an int-like array's values buffer (null slots
    contain garbage; callers mask them)."""
    t = arr.type
    if pa.types.is_timestamp(t) or pa.types.is_date64(t) or pa.types.is_time64(t):
        storage = np.int64
    elif pa.types.is_date32(t) or pa.types.is_time32(t):
        storage = np.int32
    else:
        storage = np.dtype(t.to_pandas_dtype())
    buf = arr.buffers()[1]
    vals = np.frombuffer(buf, dtype=storage, count=arr.offset + len(arr))[arr.offset:]
    if vals.dtype == np.int32:
        return vals  # rle2 has a native 32-bit path; others upcast lazily
    return vals.astype(np.int64, copy=False)


def _validity(arr: pa.Array) -> np.ndarray | None:
    if arr.null_count == 0:
        return None
    vb = arr.buffers()[0]
    bits = np.unpackbits(np.frombuffer(vb, dtype=np.uint8), bitorder="little")
    return bits[arr.offset: arr.offset + len(arr)].astype(bool)


class _BlobWriter:
    # streams below this raw size never get seek-point indexes (whole-read
    # is already cheap)
    MIN_INDEX_BYTES = 4096

    def __init__(self, outer: str, row_index_stride: int = 0):
        self.buf = bytearray()
        self.streams: list[dict] = []
        self.auto = outer == "auto"
        self.outer_name, self.outer_kind = outer_kind(outer)
        self.stride = row_index_stride

    def add(self, column: str, kind: str, codec: str, data,
            index_values: np.ndarray | None = None, **extra) -> None:
        """Append one stream. ``data`` is its bytes, or a list of buffers
        whose concatenation is the stream: planar passes its header and
        (k, n) plane matrix, which the outer kind compresses without the
        joined stream (2-3x the compressed size on token data) ever
        existing."""
        parts = data if isinstance(data, list) else [data]
        head = parts[0]
        raw_len = sum(len(p) for p in parts)
        rec = {"column": column, "kind": kind, "codec": codec,
               "raw_length": raw_len}
        # seek points (T5/ROW_INDEX analogue, positionrecorder.go:1-12):
        # every `stride` values record the (value pos, raw byte offset) of
        # the containing run; delta streams also record the running value
        # before each entry so a range decode can re-base its cumsum
        seekable = False
        if (self.stride and raw_len >= self.MIN_INDEX_BYTES
                and (codec == "rle2"
                     or (codec == "rle2_delta" and index_values is not None))):
            # delta streams only get an index when the caller provides the
            # original values (the re-base prefixes); recording vindex
            # without vprefix would invite silently-wrong range decodes
            entries = rle2.run_index(head, self.stride)
            if len(entries) > 1:
                rec["vindex"] = [[int(v), int(b)] for v, b in entries]
                seekable = True
                if codec == "rle2_delta":
                    rec["vprefix"] = [
                        int(index_values[v - 1]) if v > 0 else 0
                        for v, _ in entries
                    ]
        # "for" streams are analytically seekable (fixed width) — store the
        # tiny header params so a range decode never reads chunk 0 for them
        if codec == "for" and raw_len >= self.MIN_INDEX_BYTES and self.stride:
            from .codecs import forpack

            n_, vmin_, width_, hdr_ = forpack.parse_header(head[:24])
            rec["for_header"] = [int(n_), int(vmin_), int(width_), int(hdr_)]
            seekable = True
        # planar streams: value i of plane p is at byte hdr + p*n + i —
        # analytically seekable the same way, one range per plane
        if codec == "planar" and raw_len >= self.MIN_INDEX_BYTES and self.stride:
            from .codecs import planar as _planar

            n_, vmin_, k_, hdr_ = _planar.parse_header(head[:24])
            rec["planar_header"] = [int(n_), int(vmin_), int(k_), int(hdr_)]
            seekable = True
        # raw fixed-width payloads (float streams) are analytically
        # seekable too: byte range of values [lo, hi) is pure math — mark
        # them so an outer kind gets a chunk index for range reads
        if codec == "bytes" and raw_len >= self.MIN_INDEX_BYTES and self.stride:
            seekable = True
        # codec-level chunked compression (string blobs): chunk index
        # enables raw range reads when paired with a byte_index
        blob_kind = CHUNKED_KINDS.get(codec)
        if blob_kind is not None and "byte_index" in extra:
            rec["chunk_offsets"] = chunked.chunk_offsets(head)
            rec["chunk_size"] = chunked.DEFAULT_CHUNK
        outer = "none"
        # fsst and chunked-blob payloads are already entropy-coded AND were
        # already measured against block compression in _encode_blob —
        # recompressing only burns CPU without improving the size bar.
        # "auto" keeps its kind only where it shrinks the stream; a forced
        # kind always keeps it (the per-chunk original fallback inside the
        # framing handles incompressible chunks, reference semantics)
        if (raw_len > 0 and self.outer_kind is not None
                and codec != "fsst" and blob_kind is None):
            indexed = seekable or "byte_index" in extra
            chunk = (self.outer_kind.seek_chunk if indexed
                     else chunked.DEFAULT_CHUNK)
            z = self.outer_kind.module.compress_parts(parts, chunk_size=chunk)
            if not self.auto or len(z) < raw_len:
                parts, outer = [z], self.outer_name
                if indexed:
                    rec["chunk_offsets"] = chunked.chunk_offsets(z)
                    rec["chunk_size"] = chunk
        rec.update({"offset": len(self.buf),
                    "length": sum(len(p) for p in parts), "outer": outer})
        rec.update(extra)
        self.streams.append(rec)
        for p in parts:
            self.buf += memoryview(p)


def _decompress_outer(data: bytes, rec: dict, outer: str) -> bytes:
    kind = CHUNKED_KINDS.get(rec.get("outer", outer))
    if kind is None or rec["raw_length"] == 0:
        return data
    return kind.module.decompress(data, rec["raw_length"],
                                  rec.get("chunk_size", chunked.DEFAULT_CHUNK))


def _stream_bytes(blob: bytes, rec: dict, outer: str) -> bytes:
    data = blob[rec["offset"]: rec["offset"] + rec["length"]]
    return _decompress_outer(data, rec, outer)


def read_stream_from_file(path: str, meta: dict, column: str, kind: str) -> bytes | None:
    """Read + decompress ONE named stream's byte range from a blob file.
    Point lookups use this to fetch just a stripe's BLOOM_FILTER bytes —
    the stripe is ruled in/out without reading its data streams."""
    outer = meta.get("outer", "none")
    for rec in meta["streams"]:
        if rec["column"] == column and rec["kind"] == kind:
            from .state import storage

            data = storage.read_file_range(path, rec["offset"], rec["length"])
            return _decompress_outer(data, rec, outer)
    return None


# ---------------------------------------------------------------------------
# blob codecs for byte payloads (string data / dictionary data)
# ---------------------------------------------------------------------------

def _encode_blob(
    blob: bytes, lengths: np.ndarray, config: EncoderConfig,
    selector: SelectorState | None = None, group: str = "", column: str = "",
) -> tuple[str, bytes, np.ndarray]:
    """Choose fsst, a chunked kind or none for a string byte payload by size.
    Returns (codec, payload, lengths_for_stream) — with FSST the LENGTH
    stream carries compressed lengths. When a selector actor is present the
    trained FSST symbol table is reused across chunks of the same
    (source, column) and retrained every Nth chunk (tables are serialized
    into each stream, so blobs stay self-contained)."""
    candidates = config.string_blob_candidates
    if len(blob) == 0:
        return "none", blob, lengths
    arr = np.frombuffer(blob, dtype=np.uint8)
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    full_trial = True
    if selector is not None:
        cached = selector.blob_codec(group, column)
        if cached is not None:
            # encode only the cached winner; the free raw-size compare
            # below still falls back to "none" if this chunk degenerates,
            # and the recheck cadence re-runs the full trial periodically
            candidates = (cached,)
            full_trial = False
    best = ("none", blob, lengths, len(blob))
    for cand in candidates:
        if cand in CHUNKED_KINDS:
            z = CHUNKED_KINDS[cand].module.compress(blob)
            if len(z) < best[3]:
                best = (cand, z, lengths, len(z))
        elif cand == "fsst":
            if selector is not None:
                table = selector.fsst_table(
                    group, column,
                    lambda: fsst.train(arr, offsets, config.fsst_iterations),
                )
                comp, comp_lens = fsst.compress(table, arr, offsets)
            else:
                comp, comp_lens = fsst.compress_auto(arr, offsets,
                                                     config.fsst_iterations)
            if len(comp) < best[3]:
                best = ("fsst", comp, comp_lens, len(comp))
    if selector is not None and full_trial:
        selector.record_blob_choice(group, column, best[0])
    return best[0], best[1], best[2]


def _decode_blob(codec: str, payload: bytes, lengths: np.ndarray) -> tuple[bytes, np.ndarray]:
    if codec == "none":
        return payload, lengths
    if codec in CHUNKED_KINDS:
        return (CHUNKED_KINDS[codec].module.decompress(
            payload, int(np.sum(lengths))), lengths)
    if codec == "fsst":
        return fsst.decompress(payload, lengths)
    raise ValueError(f"unknown blob codec {codec!r}")


# ---------------------------------------------------------------------------
# encode
# ---------------------------------------------------------------------------

def encode_table(
    table: pa.Table,
    config: EncoderConfig | None = None,
    selector: SelectorState | None = None,
    group: str = "",
) -> tuple[bytes, dict]:
    """Encode a table chunk into (blob bytes, meta dict). ``group`` keys the
    stateful selector cache (e.g. the partition's dominant source)."""
    config = config or EncoderConfig()
    table = table.combine_chunks()
    w = _BlobWriter(config.outer_compression, config.row_index_stride)
    columns_meta = []
    for i, name in enumerate(table.column_names):
        arr = table.column(name)
        if isinstance(arr, pa.ChunkedArray):
            arr = arr.combine_chunks() if arr.num_chunks != 1 else arr.chunk(0)
        # char(n)/varchar(n) length semantics (treewriter.go:543): the DDL
        # parser leaves the bound as an orc:type field annotation; enforce
        # truncate/pad here so the stored bytes already satisfy the type.
        bounded = _schema_mod.bounded_string_spec(table.schema.field(i))
        if bounded is not None:
            arr = _schema_mod.enforce_bounded(arr, *bounded)
        col_meta = _encode_column(name, arr, w, config, selector, group)
        if bounded is not None:
            col_meta["orc_type"] = f"{bounded[0]}({bounded[1]})"
        columns_meta.append(col_meta)
    meta = {
        "format": FORMAT_VERSION,
        "num_rows": table.num_rows,
        "index_stride": config.row_index_stride,
        "outer": config.outer_compression,
        "schema_b64": base64.b64encode(table.schema.serialize().to_pybytes()).decode(),
        "columns": columns_meta,
        "streams": w.streams,
    }
    blob = bytes(w.buf)
    if config.blob_checksum:
        # integrity record (the reference's ORC format has none): crc32 of
        # the final blob bytes, validated by decode_blob(validate=True)
        # and the fsck pipeline; meta-carried so the manifest schema is
        # unchanged and legacy manifests stay readable.
        meta["crc32"] = _zlib_crc32(blob)
    return blob, meta


def _select_int(
    selector: SelectorState | None,
    group: str,
    stream_key: str,
    values: np.ndarray,
    signed: bool,
    config: EncoderConfig,
    candidates: tuple[str, ...] | None = None,
) -> str:
    if selector is not None:
        return selector.choose_int(group, stream_key, values, signed, candidates)
    return choose_int_codec(values, signed, config, candidates)


def _add_int_stream(
    w: _BlobWriter, name: str, kind: str, codec: str, vals: np.ndarray,
    signed: bool, index_values: np.ndarray | None = None, **extra,
) -> None:
    """Route an int stream to the writer: planar hands over its header and
    plane matrix as parts (compressed in place, no joined raw stream);
    every other codec its encoded bytes."""
    if codec == "planar":
        from .codecs import planar as _planar

        header, planes = _planar.encode_parts(vals)
        data = [header] if planes is None else [header, planes.reshape(-1)]
    else:
        data = encode_int_stream(vals, codec, signed)
    w.add(name, kind, codec, data, signed=signed, index_values=index_values,
          **extra)


def _int_stats(vals: np.ndarray) -> dict:
    if len(vals) == 0:
        return {"num_values": 0}
    return {
        "num_values": int(len(vals)),
        "min": int(vals.min()),
        "max": int(vals.max()),
        "sum": int(vals.sum(dtype=np.int64)),  # wraps like the reference's int64 sum
    }


def _encode_column(
    name: str,
    arr: pa.Array,
    w: _BlobWriter,
    config: EncoderConfig,
    selector: SelectorState | None,
    group: str,
) -> dict:
    t = arr.type
    meta: dict = {"name": name, "type": str(t), "null_count": int(arr.null_count)}
    valid = _validity(arr)
    if valid is not None:
        w.add(name, "PRESENT", "boolrle", byterle.encode_bools(valid))

    if pa.types.is_timestamp(t):
        # ORC split codec (C18): DATA = seconds since 2015-01-01 (signed),
        # SECONDARY = nanos with packed trailing-zero count (formatNanos)
        from .codecs.timestamp import split_unit

        vals = _int_view(arr)
        if valid is not None:
            vals = vals[valid]
        secs_rel, fmt_nanos = split_unit(vals, t.unit)
        codec = _select_int(selector, group, f"{name}:DATA", secs_rel, True, config)
        _add_int_stream(w, name, "DATA", codec, secs_rel, True,
                        index_values=secs_rel)
        n_codec = _select_int(selector, group, f"{name}:SECONDARY", fmt_nanos,
                              False, config, ("rle2", "for", "planar"))
        w.add(name, "SECONDARY", n_codec,
              encode_int_stream(fmt_nanos, n_codec, False), signed=False)
        meta["encoding"] = "timestamp"
        meta["unit"] = t.unit
        meta["stats"] = _int_stats(np.asarray(vals, dtype=np.int64))
        return meta

    if _is_int_like(t):
        vals = _int_view(arr)
        if valid is not None:
            vals = vals[valid]
        signed = not pa.types.is_unsigned_integer(t)
        codec = _select_int(selector, group, f"{name}:DATA", vals, signed, config)
        _add_int_stream(w, name, "DATA", codec, vals, signed,
                        index_values=vals)
        if name in config.bloom_columns and len(vals):
            from .codecs import bloom

            w.add(name, "BLOOM_FILTER", "bloom",
                  bloom.build(bloom.hash_ints(np.unique(vals))))
        meta["encoding"] = "int"
        meta["stats"] = _int_stats(vals)
        return meta

    if pa.types.is_boolean(t):
        bits = arr.to_numpy(zero_copy_only=False)
        if valid is not None:
            bits = bits[valid]
        bits = bits.astype(bool)
        w.add(name, "DATA", "boolrle", byterle.encode_bools(bits))
        meta["encoding"] = "bool"
        meta["stats"] = {"num_values": int(len(bits)), "true_count": int(bits.sum())}
        return meta

    if pa.types.is_floating(t):
        vals = arr.to_numpy(zero_copy_only=False)
        if valid is not None:
            vals = vals[valid]
        w.add(name, "DATA", "bytes", np.ascontiguousarray(vals).tobytes())
        meta["encoding"] = "float"
        meta["stats"] = {"num_values": int(len(vals))}
        if len(vals):
            meta["stats"].update(min=float(np.min(vals)), max=float(np.max(vals)),
                                 sum=float(np.sum(vals)))
        return meta

    if pa.types.is_string(t) or pa.types.is_large_string(t) or \
            pa.types.is_binary(t) or pa.types.is_large_binary(t):
        return _encode_string_column(name, arr, valid, w, config, selector, group, meta)

    if pa.types.is_list(t) or pa.types.is_large_list(t):
        return _encode_list_column(name, arr, valid, w, config, selector, group, meta)

    if pa.types.is_struct(t):
        # C22: struct = PRESENT + children (treewriter.go:304-384). Children
        # are encoded full-length (Arrow keeps child slots under null
        # structs), so reassembly is exact.
        children_meta = []
        for i, field in enumerate(t):
            child = arr.field(i)
            children_meta.append(
                _encode_column(f"{name}.{field.name}", child, w, config,
                               selector, group)
            )
        meta["encoding"] = "struct"
        meta["children"] = children_meta
        meta["stats"] = {"num_values": len(arr) - arr.null_count}
        return meta

    if pa.types.is_map(t):
        return _encode_map_column(name, arr, valid, w, config, selector, group, meta)

    if pa.types.is_decimal128(t):
        # C20 (decimal): the reference only READS decimals (its writer has
        # no decimal case, treewriterfactory.go:13-104); here both
        # directions work. decimal128 splits into lo/hi int64 halves — hi
        # is almost always a sign-extension and RLEs to nothing.
        # (decimal256 falls through to the explicit unsupported error.)
        vals = arr
        if valid is not None:
            vals = arr.drop_null()
        n = len(vals)
        buf = vals.buffers()[1]
        halves = np.frombuffer(buf, dtype=np.int64,
                               count=(vals.offset + n) * 2)[vals.offset * 2:]
        lo = np.ascontiguousarray(halves[0::2])
        hi = np.ascontiguousarray(halves[1::2])
        lo_codec = _select_int(selector, group, f"{name}:DATA", lo, True, config)
        _add_int_stream(w, name, "DATA", lo_codec, lo, True)
        hi_codec = _select_int(selector, group, f"{name}:SECONDARY", hi, True,
                               config, ("rle2", "for", "planar"))
        w.add(name, "SECONDARY", hi_codec, encode_int_stream(hi, hi_codec, True),
              signed=True)
        meta["encoding"] = "decimal"
        meta["precision"] = t.precision
        meta["scale"] = t.scale
        meta["stats"] = {"num_values": n}
        return meta

    if pa.types.is_union(t):
        # C25 (union, treewriter.go:1033-1132): byte-RLE tag stream + one
        # recursively-encoded child per variant holding that variant's
        # values in row order. Dense unions are canonicalized (per-tag
        # running offsets) — value-identical round-trip.
        if t.mode != "dense":
            raise NotImplementedError("sparse unions not supported")
        tags = np.frombuffer(arr.buffers()[1], dtype=np.int8,
                             count=arr.offset + len(arr))[arr.offset:]
        w.add(name, "DATA", "byterle",
              byterle.encode_bytes(tags.view(np.uint8)))
        children_meta = []
        for i, field in enumerate(t):
            tc = int(t.type_codes[i])
            rows = np.flatnonzero(tags == tc)
            offs = np.frombuffer(arr.buffers()[2], dtype=np.int32,
                                 count=arr.offset + len(arr))[arr.offset:]
            child_vals = arr.field(i).take(pa.array(offs[rows], type=pa.int64()))
            children_meta.append(
                _encode_column(f"{name}.{field.name}", child_vals, w, config,
                               selector, group))
        meta["encoding"] = "union"
        meta["type_codes"] = [int(c) for c in t.type_codes]
        meta["children"] = children_meta
        meta["stats"] = {"num_values": len(arr)}
        return meta

    raise NotImplementedError(f"column type not supported yet: {t}")


def _encode_string_column(name, arr, valid, w, config, selector, group, meta) -> dict:
    is_binary = pa.types.is_binary(arr.type) or pa.types.is_large_binary(arr.type)
    if valid is not None:
        arr = arr.drop_null()
    n = len(arr)
    distinct = int(pc.count_distinct(arr).as_py()) if n else 0
    use_dict = (not is_binary) and n > 0 and distinct / n <= config.dict_threshold
    if use_dict:
        indexes, dict_blob, dict_lengths = dictionary_encode(arr)
        idx_codec = _select_int(selector, group, f"{name}:DICTIDX", indexes, False,
                                config, ("rle2", "for", "planar"))
        w.add(name, "DATA", idx_codec, encode_int_stream(indexes, idx_codec, False),
              signed=False)
        blob_codec, payload, lens = _encode_blob(dict_blob, dict_lengths, config,
                                                 selector, group, f"{name}:DICT")
        w.add(name, "DICT_DATA", blob_codec, payload, dict_size=len(dict_lengths))
        w.add(name, "LENGTH", "rle2", encode_int_stream(lens, "rle2", False),
              signed=False)
        meta["encoding"] = "dict"
    else:
        blob, lengths = string_blob(arr)
        blob_codec, payload, lens = _encode_blob(blob, lengths, config,
                                                 selector, group, name)
        extra = {}
        stride = w.stride
        if (stride and len(lens) > stride
                and len(payload) >= _BlobWriter.MIN_INDEX_BYTES):
            # byte offset of every stride-th value into the raw payload:
            # lets a row-range decode read only that slice of the blob
            boff = np.zeros(len(lens) + 1, dtype=np.int64)
            np.cumsum(lens, out=boff[1:])
            if blob_codec == "none" or blob_codec in CHUNKED_KINDS:
                extra["byte_index"] = [int(x) for x in boff[:-1:stride]]
                if blob_codec in CHUNKED_KINDS:
                    extra["blob_raw_length"] = len(blob)
            elif blob_codec == "fsst":
                # fsst LENGTH entries ARE compressed lengths, so their
                # cumsum indexes the token bytes directly; the symbol
                # table header sits in front of them (its size = payload
                # minus total token bytes)
                hlen = len(payload) - int(lens.sum())
                extra["byte_index"] = [hlen + int(x)
                                       for x in boff[:-1:stride]]
                extra["fsst_header_len"] = hlen
        w.add(name, "DATA", blob_codec, payload, **extra)
        len_codec = _select_int(selector, group, f"{name}:LENGTH", lens, False,
                                config, ("rle2", "for", "planar"))
        w.add(name, "LENGTH", len_codec, encode_int_stream(lens, len_codec, False),
              signed=False)
        meta["encoding"] = "binary" if is_binary else "direct"
    if name in config.bloom_columns and n and not is_binary:
        from .codecs import bloom

        w.add(name, "BLOOM_FILTER", "bloom",
              bloom.build(bloom.hash_strings(pc.unique(arr))))
    stats = {"num_values": n, "distinct": distinct}
    if n and not is_binary:
        mm = pc.min_max(arr)
        stats["min"] = mm["min"].as_py()
        stats["max"] = mm["max"].as_py()
        stats["sum_lengths"] = int(pc.sum(pc.binary_length(arr)).as_py() or 0)
    meta["stats"] = stats
    return meta


def _encode_list_column(name, arr, valid, w, config, selector, group, meta) -> dict:
    """C23 (list, treewriter.go:722-804): LENGTH stream + recursively
    encoded child — ANY child type (ints keep the flat zero-copy fast
    path; strings/floats/structs/nested lists/nullable children all go
    through _encode_column like the reference's recursive tree writers)."""
    t = arr.type
    if valid is not None:
        arr = arr.drop_null()
    off_dtype = np.int64 if pa.types.is_large_list(t) else np.int32
    offsets = np.frombuffer(arr.buffers()[1], dtype=off_dtype)[
        arr.offset: arr.offset + len(arr) + 1
    ].astype(np.int64)
    child = arr.values.slice(int(offsets[0]), int(offsets[-1] - offsets[0]))
    lengths = np.diff(offsets)
    len_codec = _select_int(selector, group, f"{name}:LENGTH", lengths, False,
                            config, ("rle2", "for", "planar"))
    w.add(name, "LENGTH", len_codec, encode_int_stream(lengths, len_codec, False),
          signed=False)
    meta["encoding"] = "list"
    meta["stats"] = {
        "num_values": int(len(lengths)),
        "total_elements": int(lengths.sum()),
    }
    stride = config.row_index_stride
    if stride and len(lengths) > stride:
        # row-stride element offsets: lets a row-range decode locate the
        # child DATA value range without decoding every LENGTH before it
        rel = offsets - offsets[0]
        meta["elem_offsets"] = [int(x) for x in rel[::stride]]
    if _is_int_like(child.type) and not pa.types.is_timestamp(child.type) \
            and child.null_count == 0:
        # hot path (e.g. the tokens column): flat int stream, no recursion
        vals = _int_view(child)
        signed = not pa.types.is_unsigned_integer(child.type)
        codec = _select_int(selector, group, f"{name}:DATA", vals, signed, config)
        _add_int_stream(w, name, "DATA", codec, vals, signed,
                        index_values=vals)
        meta["stats"].update(
            {f"elem_{k}": v for k, v in _int_stats(vals).items()
             if k != "num_values"})
    else:
        meta["child"] = _encode_column(f"{name}._elem", child, w, config,
                                       selector, group)
    return meta


def _encode_map_column(name, arr, valid, w, config, selector, group, meta) -> dict:
    """C24 (map, treewriter.go:806-904): LENGTH stream + recursively
    encoded key and value children — mirrors the list path with two
    children."""
    if valid is not None:
        arr = arr.drop_null()
    offsets = np.frombuffer(arr.buffers()[1], dtype=np.int32)[
        arr.offset: arr.offset + len(arr) + 1
    ].astype(np.int64)
    lengths = np.diff(offsets)
    keys = arr.keys.slice(int(offsets[0]), int(offsets[-1] - offsets[0]))
    items = arr.items.slice(int(offsets[0]), int(offsets[-1] - offsets[0]))
    len_codec = _select_int(selector, group, f"{name}:LENGTH", lengths, False,
                            config, ("rle2", "for", "planar"))
    w.add(name, "LENGTH", len_codec, encode_int_stream(lengths, len_codec, False),
          signed=False)
    meta["encoding"] = "map"
    stride = config.row_index_stride
    if stride and len(lengths) > stride:
        rel = offsets - offsets[0]
        meta["elem_offsets"] = [int(x) for x in rel[::stride]]
    meta["key"] = _encode_column(f"{name}._key", keys, w, config, selector, group)
    meta["value"] = _encode_column(f"{name}._value", items, w, config,
                                   selector, group)
    meta["stats"] = {
        "num_values": int(len(lengths)),
        "total_entries": int(lengths.sum()),
    }
    return meta


# ---------------------------------------------------------------------------
# decode
# ---------------------------------------------------------------------------

class BlobIntegrityError(ValueError):
    """A stripe blob's bytes do not match the crc32 its manifest recorded
    at encode time (bit-rot, torn write, or wrong file)."""


def decode_blob(blob: bytes, meta: dict, columns: list[str] | None = None,
                validate: bool = False) -> pa.Table:
    """Rebuild the Arrow table from a blob + meta (column projection reads
    only the projected columns' streams, like Reader.Select, cursor.go:29-45).

    ``validate=True`` checks the blob's crc32 against the one recorded in
    meta at encode time (when present — legacy manifests predate it) and
    raises :class:`BlobIntegrityError` on mismatch, instead of letting
    corruption surface as an opaque codec error or silent wrong data."""
    if validate:
        expect = meta.get("crc32")
        if expect is not None and _zlib_crc32(blob) != expect:
            raise BlobIntegrityError(
                f"blob checksum mismatch: {len(blob)} bytes, expected "
                f"crc32 {expect:#010x}, got {_zlib_crc32(blob):#010x}")
    schema = pa.ipc.read_schema(pa.py_buffer(base64.b64decode(meta["schema_b64"])))
    outer = meta.get("outer", "none")
    n_rows = meta["num_rows"]
    streams = {}
    for rec in meta["streams"]:
        streams[(rec["column"], rec["kind"])] = rec

    names = columns if columns is not None else [c["name"] for c in meta["columns"]]
    cols_meta = {c["name"]: c for c in meta["columns"]}

    def fetch(rec: dict) -> bytes:
        return _stream_bytes(blob, rec, outer)

    out_arrays = []
    out_fields = []
    for name in names:
        cm = cols_meta[name]
        field = schema.field(name)
        arr = _decode_column(fetch, cm, field.type, streams, n_rows)
        out_arrays.append(arr)
        out_fields.append(field)
    return pa.Table.from_arrays(out_arrays, schema=pa.schema(out_fields))


def _get(fetch, streams, column, kind) -> bytes | None:
    rec = streams.get((column, kind))
    if rec is None:
        return None
    return fetch(rec)


def _rec(streams, column, kind) -> dict | None:
    return streams.get((column, kind))


def _decode_column(fetch, cm, t, streams, n_rows) -> pa.Array:
    name = cm["name"]
    null_count = cm.get("null_count", 0)
    valid = None
    if null_count:
        pbuf = _get(fetch, streams, name, "PRESENT")
        valid = byterle.decode_bools(pbuf, n_rows)
    n_vals = n_rows - null_count

    enc = cm["encoding"]
    if enc == "struct":
        children = []
        for i, field in enumerate(t):
            child_n = n_rows  # children are full-length
            children.append(
                _decode_column(fetch, cm["children"][i], field.type, streams,
                               child_n)
            )
        mask = None if valid is None else ~valid
        return pa.StructArray.from_arrays(
            children, fields=list(t),
            mask=pa.array(mask) if mask is not None else None,
        )
    if enc == "timestamp":
        from .codecs.timestamp import join_unit

        rec = _rec(streams, name, "DATA")
        secs_rel = decode_int_stream(fetch(rec),
                                     rec["codec"], True, n_vals)
        srec = _rec(streams, name, "SECONDARY")
        fmt_nanos = decode_int_stream(fetch(srec),
                                      srec["codec"], False, n_vals)
        vals = join_unit(secs_rel, fmt_nanos, cm["unit"])
        return _int_array(vals, t, valid, n_rows)
    if enc == "int":
        rec = _rec(streams, name, "DATA")
        # decode straight into 32-bit when the target type guarantees the
        # values fit — halves the hottest streams' memory traffic
        out_dtype = np.int64
        if rec["codec"] in ("rle2", "planar") and pa.types.is_integer(t):
            bits = t.bit_width
            if (bits <= 32 and pa.types.is_signed_integer(t)) or bits <= 16:
                out_dtype = np.int32
        vals = decode_int_stream(
            fetch(rec), rec["codec"],
            rec.get("signed", True), n_vals, out_dtype=out_dtype
        )
        return _int_array(vals, t, valid, n_rows)
    if enc == "bool":
        rec = _rec(streams, name, "DATA")
        bits = byterle.decode_bools(fetch(rec), n_vals)
        if valid is None:
            return pa.array(bits, type=pa.bool_())
        return _scatter_array(bits, valid, pa.bool_())
    if enc == "float":
        rec = _rec(streams, name, "DATA")
        dtype = np.float32 if t == pa.float32() else np.float64
        vals = np.frombuffer(fetch(rec), dtype=dtype)
        if valid is None:
            return pa.array(vals, type=t)
        return _scatter_array(vals, valid, t)
    if enc == "dict":
        rec = _rec(streams, name, "DATA")
        indexes = decode_int_stream(fetch(rec), rec["codec"], False, n_vals)
        dict_rec = _rec(streams, name, "DICT_DATA")
        dict_size = dict_rec["dict_size"]
        len_rec = _rec(streams, name, "LENGTH")
        lens = decode_int_stream(fetch(len_rec), len_rec["codec"], False, dict_size)
        dblob, dlens = _decode_blob(dict_rec["codec"], fetch(dict_rec), lens)
        dict_arr = strings_from_blob(dblob, dlens)
        vals_arr = dict_arr.take(pa.array(indexes, type=pa.int64()))
        if valid is None:
            return vals_arr.cast(t) if vals_arr.type != t else vals_arr
        return _scatter_strings(vals_arr, valid, t)
    if enc in ("direct", "binary"):
        len_rec = _rec(streams, name, "LENGTH")
        lens = decode_int_stream(fetch(len_rec), len_rec["codec"], False, n_vals)
        data_rec = _rec(streams, name, "DATA")
        dblob, dlens = _decode_blob(data_rec["codec"], fetch(data_rec), lens)
        vals_arr = strings_from_blob(dblob, dlens)
        if enc == "binary":
            vals_arr = vals_arr.cast(pa.binary())
        if valid is None:
            return vals_arr.cast(t) if vals_arr.type != t else vals_arr
        return _scatter_strings(vals_arr, valid, t)
    if enc == "list":
        len_rec = _rec(streams, name, "LENGTH")
        lens = decode_int_stream(fetch(len_rec), len_rec["codec"], False, n_vals)
        total = int(lens.sum())
        if "child" in cm:  # recursive child (any type, nullable too)
            child = _decode_column(fetch, cm["child"], t.value_type, streams,
                                   total)
        else:  # flat int fast path (e.g. tokens)
            data_rec = _rec(streams, name, "DATA")
            child_np = np.dtype(t.value_type.to_pandas_dtype()) \
                if pa.types.is_integer(t.value_type) else np.int64
            out_dtype = np.int32 if (child_np == np.int32 and data_rec["codec"]
                                     in ("rle2", "planar")) else np.int64
            vals = decode_int_stream(fetch(data_rec), data_rec["codec"],
                                     data_rec.get("signed", True), total,
                                     out_dtype=out_dtype)
            child = _int_array(vals, t.value_type, None, total)
        if pa.types.is_large_list(t):
            offsets = np.zeros(n_vals + 1, dtype=np.int64)
            np.cumsum(lens, out=offsets[1:])
            out = pa.LargeListArray.from_arrays(pa.array(offsets, type=pa.int64()), child)
        else:
            offsets = np.zeros(n_vals + 1, dtype=np.int32)
            np.cumsum(lens, out=offsets[1:])
            out = pa.ListArray.from_arrays(pa.array(offsets, type=pa.int32()), child)
        return out if valid is None else _scatter_generic(out, valid)
    if enc == "map":
        len_rec = _rec(streams, name, "LENGTH")
        lens = decode_int_stream(fetch(len_rec),
                                 len_rec["codec"], False, n_vals)
        total = int(lens.sum())
        keys = _decode_column(fetch, cm["key"], t.key_type, streams, total)
        items = _decode_column(fetch, cm["value"], t.item_type, streams, total)
        offsets = np.zeros(n_vals + 1, dtype=np.int32)
        np.cumsum(lens, out=offsets[1:])
        out = pa.MapArray.from_arrays(pa.array(offsets, type=pa.int32()),
                                      keys, items)
        if out.type != t:  # restore field names lost by from_arrays
            out = out.cast(t)
        return out if valid is None else _scatter_generic(out, valid)
    if enc == "decimal":
        rec = _rec(streams, name, "DATA")
        lo = decode_int_stream(fetch(rec), rec["codec"],
                               True, n_vals)
        srec = _rec(streams, name, "SECONDARY")
        hi = decode_int_stream(fetch(srec), srec["codec"],
                               True, n_vals)
        if valid is not None:
            lo_f = np.zeros(n_rows, dtype=np.int64)
            hi_f = np.zeros(n_rows, dtype=np.int64)
            lo_f[valid] = lo
            hi_f[valid] = hi
            lo, hi = lo_f, hi_f
        halves = np.empty(n_rows * 2, dtype=np.int64)
        halves[0::2] = lo
        halves[1::2] = hi
        vbuf = None
        if valid is not None:
            vbuf = pa.py_buffer(np.packbits(valid, bitorder="little").tobytes())
        return pa.Array.from_buffers(
            t, n_rows, [vbuf, pa.py_buffer(halves.tobytes())],
            null_count=n_rows - n_vals if valid is not None else 0)
    if enc == "union":
        rec = _rec(streams, name, "DATA")
        tags = byterle.decode_bytes(fetch(rec), n_rows) \
            .view(np.int8)
        children = []
        for i, field in enumerate(t):
            tc = cm["type_codes"][i]
            cn = int((tags == tc).sum())
            children.append(_decode_column(fetch, cm["children"][i], field.type,
                                           streams, cn))
        # canonical dense offsets: running count per tag
        offsets = np.zeros(n_rows, dtype=np.int32)
        for i in range(len(t)):
            m = tags == cm["type_codes"][i]
            offsets[m] = np.arange(int(m.sum()), dtype=np.int32)
        return pa.UnionArray.from_dense(
            pa.array(tags, type=pa.int8()),
            pa.array(offsets, type=pa.int32()),
            children,
            [f.name for f in t],
            cm["type_codes"],
        )
    raise ValueError(f"unknown encoding {enc!r}")


def _scatter_generic(dense: pa.Array, valid: np.ndarray) -> pa.Array:
    """Re-insert nulls into any dense array via take with null indexes."""
    n = len(valid)
    idx = np.full(n, -1, dtype=np.int64)
    idx[valid] = np.arange(len(dense), dtype=np.int64)
    return dense.take(pa.array(idx, type=pa.int64(), mask=~valid))


def _int_array(vals: np.ndarray, t: pa.DataType, valid, n_rows) -> pa.Array:
    """int64 values -> Arrow array of the original int-like type."""
    if pa.types.is_timestamp(t) or pa.types.is_date64(t) or pa.types.is_time64(t):
        base = pa.array(vals, type=pa.int64())
        out = base.view(t)
    elif pa.types.is_date32(t) or pa.types.is_time32(t):
        out = pa.array(vals.astype(np.int32), type=pa.int32()).view(t)
    else:
        out = pa.array(vals.astype(np.dtype(t.to_pandas_dtype()), copy=False), type=t)
    if valid is None:
        return out
    return _scatter_typed(out, valid, t, vals)


def _scatter_array(vals: np.ndarray, valid: np.ndarray, t: pa.DataType) -> pa.Array:
    full = np.zeros(len(valid), dtype=vals.dtype)
    full[valid] = vals
    return pa.array(full, type=t, mask=~valid)


def _scatter_typed(dense: pa.Array, valid: np.ndarray, t, vals: np.ndarray) -> pa.Array:
    if pa.types.is_timestamp(t) or pa.types.is_date64(t) or pa.types.is_time64(t):
        full = np.zeros(len(valid), dtype=np.int64)
        full[valid] = vals
        return pa.array(full, type=pa.int64(), mask=~valid).view(t)
    if pa.types.is_date32(t) or pa.types.is_time32(t):
        full = np.zeros(len(valid), dtype=np.int32)
        full[valid] = vals.astype(np.int32)
        return pa.array(full, type=pa.int32(), mask=~valid).view(t)
    full = np.zeros(len(valid), dtype=np.dtype(t.to_pandas_dtype()))
    full[valid] = vals.astype(full.dtype)
    return pa.array(full, type=t, mask=~valid)


def _scatter_strings(dense: pa.Array, valid: np.ndarray, t) -> pa.Array:
    """Re-insert nulls into a dense string/binary array."""
    taken = _scatter_generic(dense, valid)
    return taken.cast(t) if taken.type != t else taken


# ---------------------------------------------------------------------------
# row-range decode (intra-stripe seek points, T5 / cursor.go:179-198)
# ---------------------------------------------------------------------------

class RangeReader:
    """Byte-range access to a blob (bytes or a file path) that counts the
    bytes actually touched — the unit the seek-point tests assert on."""

    def __init__(self, src):
        self._bytes = src if isinstance(src, (bytes, bytearray, memoryview)) else None
        self._path = src if isinstance(src, str) else None
        self.bytes_read = 0

    def read(self, offset: int, length: int) -> bytes:
        self.bytes_read += length
        if self._bytes is not None:
            return bytes(self._bytes[offset: offset + length])
        with open(self._path, "rb") as f:
            f.seek(offset)
            return f.read(length)


def _raw_range(reader: RangeReader, rec: dict, raw_lo: int, raw_hi: int) -> bytes:
    """Read raw stream bytes [raw_lo, raw_hi) touching only the needed
    byte range (through the outer chunk index when present)."""
    raw_hi = min(raw_hi, rec["raw_length"])
    if raw_lo >= raw_hi:
        return b""
    kind = CHUNKED_KINDS.get(rec.get("outer", "none"))
    if kind is None:
        return reader.read(rec["offset"] + raw_lo, raw_hi - raw_lo)
    offs = rec.get("chunk_offsets")
    if offs is None:  # no chunk index: whole-stream decompress
        data = reader.read(rec["offset"], rec["length"])
        return kind.module.decompress(
            data, rec["raw_length"],
            rec.get("chunk_size", chunked.DEFAULT_CHUNK))[raw_lo:raw_hi]
    csize = rec["chunk_size"]
    c0 = raw_lo // csize
    c1 = min((raw_hi + csize - 1) // csize, len(offs))
    byte_lo = offs[c0]
    byte_hi = offs[c1] if c1 < len(offs) else rec["length"]
    data = reader.read(rec["offset"] + byte_lo, byte_hi - byte_lo)
    # every covered chunk is csize raw bytes except the stream's tail
    raw = kind.module.decompress(
        data, min(c1 * csize, rec["raw_length"]) - c0 * csize, csize)
    return raw[raw_lo - c0 * csize: raw_hi - c0 * csize]


def _int_range(reader: RangeReader, rec: dict, lo: int, hi: int,
               out_dtype=np.int64) -> np.ndarray:
    """Decode values [lo, hi) of an int stream, reading only the covering
    runs when the stream has seek points."""
    import bisect

    vindex = rec.get("vindex")
    codec = rec["codec"]
    if codec == "rle2_delta" and vindex is not None and "vprefix" not in rec:
        vindex = None  # no re-base prefixes: fall back to full decode
    # fixed-width layouts range-read through the outer chunk index; an
    # outer-compressed stream without one decodes whole
    ranged = (rec.get("outer", "none") not in CHUNKED_KINDS
              or "chunk_offsets" in rec)
    if codec == "for" and ranged:
        # fixed-width packing: the byte range of [lo, hi) is pure math
        from .codecs import forpack

        if "for_header" in rec:
            n, vmin, width, hdr = rec["for_header"]
        else:
            head = _raw_range(reader, rec, 0, min(24, rec["raw_length"]))
            n, vmin, width, hdr = forpack.parse_header(head)
        hi = min(hi, n)
        byte_lo, byte_hi, lo2 = forpack.range_bytes(lo, hi, width, hdr)
        payload = _raw_range(reader, rec, byte_lo, byte_hi)
        vals = forpack.decode_range(payload, lo2, lo, hi, vmin, width)
        return vals.astype(out_dtype, copy=False)
    if codec == "planar" and ranged:
        from .codecs import planar

        if "planar_header" in rec:
            n, vmin, k, hdr = rec["planar_header"]
        else:
            head = _raw_range(reader, rec, 0, min(24, rec["raw_length"]))
            n, vmin, k, hdr = planar.parse_header(head)
        hi = min(hi, n)
        payloads = [_raw_range(reader, rec, blo, bhi)
                    for blo, bhi in planar.plane_ranges(lo, hi, n, k, hdr)]
        vals = planar.decode_range(payloads, lo, hi, vmin,
                                   out_dtype=out_dtype)
        return vals.astype(out_dtype, copy=False)
    if vindex is None or codec not in ("rle2", "rle2_delta"):
        data = _raw_range(reader, rec, 0, rec["raw_length"])
        vals = decode_int_stream(data, codec, rec.get("signed", True), hi,
                                 out_dtype=out_dtype)
        return vals[lo:hi]
    vpos = [e[0] for e in vindex]
    i = bisect.bisect_right(vpos, lo) - 1
    run_v, run_b = vindex[i]
    j = bisect.bisect_left(vpos, hi)
    byte_hi = vindex[j][1] if j < len(vindex) else rec["raw_length"]
    data = _raw_range(reader, rec, run_b, byte_hi)
    need = hi - run_v
    if codec == "rle2":
        vals = rle2.decode(data, rec.get("signed", True), need,
                           out_dtype=out_dtype)
        return vals[lo - run_v: need]
    # rle2_delta: re-base the cumsum at the entry's running value
    deltas = rle2.decode(data, True, need)
    prefix = rec["vprefix"][i]
    vals = np.cumsum(deltas, dtype=np.int64) + np.int64(prefix)
    return vals[lo - run_v: need]


def decode_blob_rows(src, meta: dict, row_start: int, row_count: int,
                     columns: list[str] | None = None) -> tuple[pa.Table, int]:
    """Decode only rows [row_start, row_start+row_count) of a stripe blob,
    touching only the byte ranges the seek-point indexes say are needed
    (int/list/string fast paths; columns with nulls or exotic encodings
    fall back to full-stream reads of just their own streams). ``src`` is
    blob bytes or a file path. Returns (table, bytes_touched)."""
    reader = RangeReader(src)
    schema = pa.ipc.read_schema(pa.py_buffer(base64.b64decode(meta["schema_b64"])))
    outer = meta.get("outer", "none")
    n_rows = meta["num_rows"]
    lo = max(0, row_start)
    hi = min(n_rows, row_start + row_count)
    streams = {(r["column"], r["kind"]): r for r in meta["streams"]}
    names = columns if columns is not None else [c["name"] for c in meta["columns"]]
    cols_meta = {c["name"]: c for c in meta["columns"]}

    def fetch_full(rec: dict) -> bytes:
        data = reader.read(rec["offset"], rec["length"])
        return _decompress_outer(data, rec, outer)

    stride = meta.get("index_stride", 0)
    out_arrays, out_fields = [], []
    for name in names:
        cm = cols_meta[name]
        field = schema.field(name)
        arr = _decode_column_rows(reader, fetch_full, cm, field.type, streams,
                                  n_rows, lo, hi, stride)
        out_arrays.append(arr)
        out_fields.append(field)
    return (pa.Table.from_arrays(out_arrays, schema=pa.schema(out_fields)),
            reader.bytes_read)


def _decode_column_rows(reader, fetch_full, cm, t, streams, n_rows, lo, hi,
                        stride):
    name = cm["name"]
    enc = cm["encoding"]
    n_out = hi - lo
    # fallback: decode the column fully (its own streams only), slice rows
    def full():
        return _decode_column(fetch_full, cm, t, streams, n_rows).slice(
            lo, hi - lo)

    if enc == "struct":
        # recurse per child: struct children are full-length (they carry
        # their own PRESENT), so the row range maps through unchanged and
        # each child keeps whatever byte-sparse path its encoding has
        children = [
            _decode_column_rows(reader, fetch_full, cm["children"][i],
                                field.type, streams, n_rows, lo, hi, stride)
            for i, field in enumerate(t)]
        mask = None
        if cm.get("null_count", 0):
            prec = streams.get((name, "PRESENT"))
            if prec is None:
                return full()
            valid = byterle.decode_bools(fetch_full(prec), n_rows)
            mask = pa.array(~valid[lo:hi])
        return pa.StructArray.from_arrays(children, fields=list(t), mask=mask)
    valid_slice = None
    vlo, vhi = lo, hi
    if cm.get("null_count", 0):
        # PRESENT-aware range decode (reference: treewriter.go:69-92 /
        # cursor.go:179-198 record present positions in ROW_INDEX): the
        # present stream is tiny (n_rows BITS raw, byte-RLE'd smaller), so
        # scan it whole — its own bytes only — then map the row range to
        # the VALUE range of the data streams, which keep their seek-point
        # byte-sparse reads. Without this every nullable column lost the
        # ~3% byte-touch property to a full-stream fallback.
        prec = streams.get((name, "PRESENT"))
        if prec is None or enc not in ("int", "direct", "binary", "dict",
                                       "float", "timestamp", "decimal",
                                       "list", "map"):
            return full()
        valid = byterle.decode_bools(fetch_full(prec), n_rows)
        valid_slice = valid[lo:hi]
        vlo = int(valid[:lo].sum())
        vhi = vlo + int(valid_slice.sum())
        if vhi == vlo:  # every requested row is null
            return pa.nulls(n_out, type=t)
    if enc == "int":
        rec = streams[(name, "DATA")]
        out_dtype = np.int64
        if rec["codec"] in ("rle2", "planar") and pa.types.is_integer(t):
            bits = t.bit_width
            if (bits <= 32 and pa.types.is_signed_integer(t)) or bits <= 16:
                out_dtype = np.int32
        vals = _int_range(reader, rec, vlo, vhi, out_dtype)
        return _int_array(vals, t, valid_slice, n_out)
    if enc == "timestamp":
        from .codecs.timestamp import join_unit

        rec = streams[(name, "DATA")]
        srec = streams[(name, "SECONDARY")]
        secs = _int_range(reader, rec, vlo, vhi)
        fmt = _int_range(reader, srec, vlo, vhi)
        vals = join_unit(secs, fmt, cm["unit"])
        return _int_array(vals, t, valid_slice, n_out)
    if enc == "float":
        rec = streams[(name, "DATA")]
        dtype = np.float32 if t == pa.float32() else np.float64
        isz = np.dtype(dtype).itemsize
        raw = _raw_range(reader, rec, vlo * isz, vhi * isz)
        vals = np.frombuffer(raw, dtype=dtype)
        if valid_slice is None:
            return pa.array(vals, type=t)
        return _scatter_array(vals, valid_slice, t)
    if enc in ("direct", "binary"):
        len_rec = streams[(name, "LENGTH")]
        data_rec = streams[(name, "DATA")]
        bindex = data_rec.get("byte_index")
        blob_kind = CHUNKED_KINDS.get(data_rec["codec"])
        if bindex is None or (blob_kind is None
                              and data_rec["codec"] not in ("none", "fsst")):
            return full()
        # one LENGTH range read covers both the partial-sum head and the
        # requested values (avoids decompressing the same chunks twice);
        # byte_index entries are per stride VALUES, so the math below runs
        # in value space (== row space when the column has no nulls)
        stride_rows = stride or max(n_rows, 1)
        k = min(vlo // stride_rows, len(bindex) - 1)
        base_val = k * stride_rows
        both = _int_range(reader, len_rec, base_val, vhi)
        head = both[: vlo - base_val]
        lens = both[vlo - base_val:]
        b0 = bindex[k] + int(head.sum())
        nbytes = int(lens.sum())
        if blob_kind is not None:
            # codec-level chunked block compression: range through its
            # chunk index (the shim re-labels it as an outer stage, which
            # shares the exact same framing)
            shim = dict(data_rec)
            shim["outer"] = data_rec["codec"]
            shim["raw_length"] = data_rec["blob_raw_length"]
            blob = _raw_range(reader, shim, b0, b0 + nbytes)
        else:
            blob = _raw_range(reader, data_rec, b0, b0 + nbytes)
        if data_rec["codec"] == "fsst":
            # symbol table (tiny header) + only the covering token-byte
            # slice; lens here are the COMPRESSED lengths from the LENGTH
            # stream, exactly what decompress_with_table consumes
            head_b = _raw_range(reader, data_rec, 0,
                                data_rec["fsst_header_len"])
            ftable, _ = fsst.SymbolTable.deserialize(head_b, 0)
            dblob, dlens = fsst.decompress_with_table(
                ftable, np.frombuffer(blob, dtype=np.uint8), lens)
            vals_arr = strings_from_blob(dblob, dlens)
        else:
            vals_arr = strings_from_blob(blob, lens)
        if valid_slice is not None:
            return _scatter_strings(vals_arr, valid_slice, t)
        return vals_arr.cast(t) if not pa.types.is_string(t) else vals_arr
    if enc == "dict":
        rec = streams[(name, "DATA")]
        indexes = _int_range(reader, rec, vlo, vhi)
        dict_rec = streams[(name, "DICT_DATA")]
        dict_size = dict_rec["dict_size"]
        len_rec = streams[(name, "LENGTH")]
        lens = decode_int_stream(fetch_full(len_rec), len_rec["codec"], False,
                                 dict_size)
        dblob, dlens = _decode_blob(dict_rec["codec"], fetch_full(dict_rec), lens)
        dict_arr = strings_from_blob(dblob, dlens)
        taken = dict_arr.take(pa.array(indexes, type=pa.int64()))
        if valid_slice is not None:
            return _scatter_strings(taken, valid_slice, t)
        return taken
    if enc == "decimal":
        lo64 = _int_range(reader, streams[(name, "DATA")], vlo, vhi)
        hi64 = _int_range(reader, streams[(name, "SECONDARY")], vlo, vhi)
        if valid_slice is not None:
            lo_f = np.zeros(n_out, dtype=np.int64)
            hi_f = np.zeros(n_out, dtype=np.int64)
            lo_f[valid_slice] = lo64
            hi_f[valid_slice] = hi64
            lo64, hi64 = lo_f, hi_f
        halves = np.empty(n_out * 2, dtype=np.int64)
        halves[0::2] = lo64
        halves[1::2] = hi64
        vbuf = None
        null_count = 0
        if valid_slice is not None:
            vbuf = pa.py_buffer(
                np.packbits(valid_slice, bitorder="little").tobytes())
            null_count = n_out - int(valid_slice.sum())
        return pa.Array.from_buffers(
            t, n_out, [vbuf, pa.py_buffer(halves.tobytes())],
            null_count=null_count)
    if enc in ("list", "map") and "elem_offsets" in cm:
        # locate the child VALUE range via the row-stride element-offset
        # anchors (one LENGTH range read covers the partial-sum head and
        # the requested lengths), then either range-read the flat int
        # child directly or recurse — nested children keep whatever
        # byte-sparse paths their own encodings have
        len_rec = streams[(name, "LENGTH")]
        eoffs = cm["elem_offsets"]
        stride_vals = stride or max(n_rows, 1)
        k = min(vlo // stride_vals, len(eoffs) - 1)
        base_val = k * stride_vals
        both = _int_range(reader, len_rec, base_val, vhi)
        head = both[: vlo - base_val]
        lens = both[vlo - base_val:]
        el0 = eoffs[k] + int(head.sum())
        el1 = el0 + int(lens.sum())
        items = None
        if enc == "list" and "child" not in cm:
            data_rec = streams[(name, "DATA")]
            child_np = np.dtype(t.value_type.to_pandas_dtype()) \
                if pa.types.is_integer(t.value_type) else np.int64
            out_dtype = np.int32 if (child_np == np.int32
                                     and data_rec["codec"] == "rle2") \
                else np.int64
            vals = _int_range(reader, data_rec, el0, el1, out_dtype)
            child = _int_array(vals, t.value_type, None, el1 - el0)
        elif enc == "list":
            total = cm["stats"]["total_elements"]
            child = _decode_column_rows(reader, fetch_full, cm["child"],
                                        t.value_type, streams, total,
                                        el0, el1, stride)
        else:
            total = cm["stats"]["total_entries"]
            child = _decode_column_rows(reader, fetch_full, cm["key"],
                                        t.key_type, streams, total,
                                        el0, el1, stride)
            items = _decode_column_rows(reader, fetch_full, cm["value"],
                                        t.item_type, streams, total,
                                        el0, el1, stride)
        offsets = np.zeros(len(lens) + 1, dtype=np.int64)
        np.cumsum(lens, out=offsets[1:])
        if enc == "map":
            out = pa.MapArray.from_arrays(
                pa.array(offsets.astype(np.int32), type=pa.int32()),
                child, items)
            if out.type != t:  # restore field names lost by from_arrays
                out = out.cast(t)
        elif pa.types.is_large_list(t):
            out = pa.LargeListArray.from_arrays(
                pa.array(offsets, type=pa.int64()), child)
        else:
            out = pa.ListArray.from_arrays(
                pa.array(offsets.astype(np.int32), type=pa.int32()), child)
        if valid_slice is not None:
            return _scatter_generic(out, valid_slice)
        return out
    return full()
