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
  (rle2 | rle2_delta | for | planar)                       (C17/C18/C19)
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
import functools
from zlib import crc32 as _zlib_crc32

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import schema as _schema_mod
from .codecs import (BLOB_CHUNK, CHUNKED_KINDS, byterle, chunked, forpack,
                     fsst, outer_kind, planar, rle2)
from .codecs.dictionary import (DICTIONARY_THRESHOLD, dictionary_encode,
                                string_blob, strings_from_blob, value_offsets)
from .config import EncoderConfig
from .selector import SelectorState, decode_int_stream, encode_int_stream
from .state import storage

FORMAT_VERSION = 1

# candidates of the side int streams (SECONDARY, LENGTH, dictionary
# indexes): no delta codec
_SIDE = ("rle2", "for", "planar")
# fixed-width int layouts: the raw bytes of values [lo, hi) are pure math
# on a tiny header, which the stream record keeps as "<codec>_header"
_RANGE_CODECS = {"for": forpack, "planar": planar}

def _is_int_like(t: pa.DataType) -> bool:
    return (
        pa.types.is_integer(t)
        or pa.types.is_date(t)
        or pa.types.is_timestamp(t)
        or pa.types.is_time(t)
    )


def _storage_type(t: pa.DataType) -> pa.DataType:
    """The fixed-width Arrow type whose values buffer type ``t`` shares:
    int64 for timestamps, date64 and time64, int32 for date32 and time32,
    ``t`` itself otherwise."""
    if pa.types.is_timestamp(t) or pa.types.is_date64(t) or pa.types.is_time64(t):
        return pa.int64()
    if pa.types.is_date32(t) or pa.types.is_time32(t):
        return pa.int32()
    return t


def _int_view(arr: pa.Array) -> np.ndarray:
    """Zero-copy int64 view of an int-like array's values buffer (null slots
    contain garbage; callers mask them)."""
    storage = np.dtype(_storage_type(arr.type).to_pandas_dtype())
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
        indexable = self.stride and raw_len >= self.MIN_INDEX_BYTES
        if indexable and codec in ("rle2", "rle2_delta"):
            entries = rle2.run_index(head, self.stride)
            if len(entries) > 1:
                rec["vindex"] = [[int(v), int(b)] for v, b in entries]
                seekable = True
                if codec == "rle2_delta":
                    # the running value before each entry, so a range
                    # decode can re-base its cumsum there
                    rec["vprefix"] = [
                        int(index_values[v - 1]) if v > 0 else 0
                        for v, _ in entries
                    ]
        # fixed-width layouts (for, planar, raw float bytes) are
        # analytically seekable: for and planar keep their header here, so
        # a range decode never reads chunk 0 for it, and every one of them
        # gets a chunk index under an outer kind
        if indexable and (codec in _RANGE_CODECS or codec == "bytes"):
            seekable = True
            if codec in _RANGE_CODECS:
                rec[f"{codec}_header"] = [
                    int(x) for x in _RANGE_CODECS[codec].parse_header(head[:24])]
        # codec-level chunked compression (string payloads): the chunk
        # size is recorded on every such stream, and the chunk index,
        # paired with a byte_index, enables raw range reads
        blob_kind = CHUNKED_KINDS.get(codec)
        if blob_kind is not None:
            if "byte_index" in extra:
                rec["chunk_offsets"] = chunked.chunk_offsets(head)
            rec["chunk_size"] = BLOB_CHUNK
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


# ---------------------------------------------------------------------------
# blob codecs for byte payloads (string data / dictionary data)
# ---------------------------------------------------------------------------

def _encode_blob(
    blob: bytes, lengths: np.ndarray, config: EncoderConfig,
    selector: SelectorState | None = None, group: str = "", column: str = "",
) -> tuple[str, bytes, np.ndarray]:
    """Choose fsst, a chunked kind or none for a string byte payload by size.
    Returns (codec, payload, lengths_for_stream) — with FSST the LENGTH
    stream carries compressed lengths. A chunked kind compresses in
    ``BLOB_CHUNK`` chunks, so a row-range read decompresses about its
    rows' bytes. The FSST trial gets a size limit
    from raw and the chunked kinds; it trains no table when a table-free
    bound (``fsst.may_fit``) already exceeds the limit, and it is
    abandoned once it cannot win, so the choice equals encoding every
    candidate in full. When selector state is present the FSST symbol
    table is reused across chunks of the same (source, column) and
    retrained every Nth chunk, from that chunk's sample and only when a
    trial needs it (tables are serialized into each stream, so blobs stay
    self-contained). Without a caller's state a fresh one runs exactly
    the full trial."""
    if len(blob) == 0:
        return "none", blob, lengths
    selector = selector or SelectorState(config)
    arr = np.frombuffer(blob, dtype=np.uint8)
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    # a cached winner is the only candidate encoded; the free raw-size
    # compare below still falls back to "none" if this chunk degenerates,
    # and the recheck cadence re-runs the full trial periodically
    cached = selector.blob_codec(group, column)
    candidates = config.string_blob_candidates if cached is None else (cached,)
    # the chunked kinds first: they are cheap, and their sizes bound FSST,
    # which may then stop as soon as it cannot win. Candidates still rank
    # in list order, a later one replacing the best only when strictly
    # smaller, and everything must beat raw.
    sized = {cand: (CHUNKED_KINDS[cand].module.compress(blob, BLOB_CHUNK),
                    lengths)
             for cand in candidates if cand in CHUNKED_KINDS}
    if "fsst" in candidates:
        at = candidates.index("fsst")
        limit = min([len(blob) - 1]
                    + [len(sized[c][0]) - 1 for c in candidates[:at] if c in sized]
                    + [len(sized[c][0]) for c in candidates[at + 1:] if c in sized])
        table = selector.fsst_table(group, column,
                                    lambda: fsst.train_sample(arr, offsets))
        # the table is trained only if some table could fit the limit
        if fsst.may_fit(arr, offsets, limit):
            comp = fsst.compress(table(), arr, offsets, limit=limit)
            if comp is not None:
                sized["fsst"] = comp
    best = ("none", blob, lengths)
    for cand in candidates:
        if cand in sized and len(sized[cand][0]) < len(best[1]):
            best = (cand, *sized[cand])
    if cached is None:
        selector.record_blob_choice(group, column, best[0])
    return best[0], best[1], best[2]


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
    stateful selector cache (e.g. the partition's dominant source); without
    a caller's state a fresh one measures every stream, as a first use
    always does."""
    config = config or EncoderConfig()
    selector = selector or SelectorState(config)
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


def _int_stream(
    w: _BlobWriter, selector: SelectorState, group: str, name: str,
    kind: str, vals: np.ndarray, signed: bool,
    candidates: tuple[str, ...] | None = None,
) -> None:
    """Select, pack and add one int stream: the one path every int stream
    of a stripe takes. The selector picks the codec per (group,
    ``name:kind``); a single candidate is taken as is, without a lookup. Planar hands over its
    header and plane matrix as parts, which the outer kind compresses
    without the joined stream ever existing; every other codec its encoded
    bytes. The values go along so a delta stream's seek index can record
    its re-base prefixes."""
    if candidates is not None and len(candidates) == 1:
        codec = candidates[0]
    else:
        codec = selector.choose_int(group, f"{name}:{kind}", vals, signed,
                                    candidates)
    if codec == "planar":
        header, planes = planar.encode_parts(vals)
        data = [header] if planes is None else [header, planes.reshape(-1)]
    else:
        data = encode_int_stream(vals, codec, signed)
    w.add(name, kind, codec, data, index_values=vals, signed=signed)


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
        _int_stream(w, selector, group, name, "DATA", secs_rel, True)
        _int_stream(w, selector, group, name, "SECONDARY", fmt_nanos, False,
                    _SIDE)
        meta["encoding"] = "timestamp"
        meta["unit"] = t.unit
        meta["stats"] = _int_stats(np.asarray(vals, dtype=np.int64))
        return meta

    if _is_int_like(t):
        vals = _int_view(arr)
        if valid is not None:
            vals = vals[valid]
        _int_stream(w, selector, group, name, "DATA", vals,
                    not pa.types.is_unsigned_integer(t))
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

    if pa.types.is_list(t) or pa.types.is_large_list(t) or pa.types.is_map(t):
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
        _int_stream(w, selector, group, name, "DATA", lo, True)
        _int_stream(w, selector, group, name, "SECONDARY", hi, True, _SIDE)
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
    # the column's one hash pass: it counts the distinct values and, for a
    # dictionary column, is the encoding itself
    denc = pc.dictionary_encode(arr) if n else None
    distinct = len(denc.dictionary) if n else 0
    use_dict = (not is_binary) and n > 0 and distinct / n <= DICTIONARY_THRESHOLD
    if use_dict:
        indexes, dict_blob, dict_lengths = dictionary_encode(denc)
        _int_stream(w, selector, group, name, "DATA", indexes, False, _SIDE)
        blob_codec, payload, lens = _encode_blob(dict_blob, dict_lengths, config,
                                                 selector, group, f"{name}:DICT")
        w.add(name, "DICT_DATA", blob_codec, payload, dict_size=len(dict_lengths))
        _int_stream(w, selector, group, name, "LENGTH", lens, False, ("rle2",))
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
        _int_stream(w, selector, group, name, "LENGTH", lens, False, _SIDE)
        meta["encoding"] = "binary" if is_binary else "direct"
    if name in config.bloom_columns and n and not is_binary:
        from .codecs import bloom

        w.add(name, "BLOOM_FILTER", "bloom",
              bloom.build(bloom.hash_strings(denc.dictionary)))
    stats = {"num_values": n, "distinct": distinct}
    if n and not is_binary:
        # the distinct values hold the same extremes as the rows
        mm = pc.min_max(denc.dictionary)
        stats["min"] = mm["min"].as_py()
        stats["max"] = mm["max"].as_py()
        offsets = value_offsets(arr)
        stats["sum_lengths"] = int(offsets[-1] - offsets[0])
    meta["stats"] = stats
    return meta


def _encode_list_column(name, arr, valid, w, config, selector, group, meta) -> dict:
    """C23 (list, treewriter.go:722-804) and C24 (map, treewriter.go:
    806-904): LENGTH stream + recursively encoded children — ANY child
    type for a list (ints keep the flat zero-copy fast path; strings/
    floats/structs/nested lists/nullable children all go through
    _encode_column like the reference's recursive tree writers), a key and
    a value child for a map."""
    t = arr.type
    is_map = pa.types.is_map(t)
    if valid is not None:
        arr = arr.drop_null()
    offsets = value_offsets(arr)
    e0, n_elems = int(offsets[0]), int(offsets[-1] - offsets[0])
    lengths = np.diff(offsets)
    _int_stream(w, selector, group, name, "LENGTH", lengths, False, _SIDE)
    meta["encoding"] = "map" if is_map else "list"
    meta["stats"] = {
        "num_values": int(len(lengths)),
        "total_entries" if is_map else "total_elements": int(lengths.sum()),
    }
    stride = config.row_index_stride
    if stride and len(lengths) > stride:
        # row-stride element offsets: lets a row-range decode locate the
        # child value range without decoding every LENGTH before it
        rel = offsets - offsets[0]
        meta["elem_offsets"] = [int(x) for x in rel[::stride]]
    if is_map:
        meta["key"] = _encode_column(f"{name}._key", arr.keys.slice(e0, n_elems),
                                     w, config, selector, group)
        meta["value"] = _encode_column(f"{name}._value",
                                       arr.items.slice(e0, n_elems), w, config,
                                       selector, group)
        meta["stats"] = meta.pop("stats")  # a map's stats follow its children
        return meta
    child = arr.values.slice(e0, n_elems)
    if _is_int_like(child.type) and not pa.types.is_timestamp(child.type) \
            and child.null_count == 0:
        # hot path (e.g. the tokens column): flat int stream, no recursion
        vals = _int_view(child)
        _int_stream(w, selector, group, name, "DATA", vals,
                    not pa.types.is_unsigned_integer(child.type))
        meta["stats"].update(
            {f"elem_{k}": v for k, v in _int_stats(vals).items()
             if k != "num_values"})
    else:
        meta["child"] = _encode_column(f"{name}._elem", child, w, config,
                                       selector, group)
    return meta


# ---------------------------------------------------------------------------
# decode: one column decoder over row ranges (intra-stripe seek points,
# T5 / cursor.go:179-198); a whole-stripe decode is the range [0, num_rows)
# ---------------------------------------------------------------------------

class BlobIntegrityError(ValueError):
    """A stripe blob's bytes do not match the crc32 its manifest recorded
    at encode time (bit-rot, torn write, or wrong file)."""


class RangeReader:
    """Byte-range access to a blob (bytes, or a path read through the
    storage backend) that counts the bytes actually touched — the unit the
    seek-point tests assert on. A path is opened once, at the first read,
    and serves every range until the reader's ``with`` block ends, which
    closes it. ``span`` is the last compressed (offset, length) span
    ``_raw_range`` decompressed through this reader and its raw bytes, so
    planes that share a chunk, read one after the other, decompress it
    once; it holds one span at a time."""

    def __init__(self, src):
        self._src = src
        self._file = None
        self.span = (None, None)
        self.bytes_read = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self._file is not None:
            self._file.close()

    def read(self, offset: int, length: int) -> bytes:
        self.bytes_read += length
        if not isinstance(self._src, str):
            return bytes(self._src[offset: offset + length])
        if self._file is None:
            self._file = storage.open_ranged(self._src)
        return self._file.read_at(length, offset)


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
    return _decode_rows(RangeReader(blob), meta, 0, meta["num_rows"], columns)


def decode_blob_rows(src, meta: dict, row_start: int, row_count: int,
                     columns: list[str] | None = None) -> tuple[pa.Table, int]:
    """Decode only rows [row_start, row_start+row_count) of a stripe blob.
    Every stream is read over the byte range its seek-point index says
    covers those rows; a stream without the index that range math needs
    (PRESENT, bool data, union tags, dictionaries, small or unindexed
    streams) is read whole, and no other stream is touched. ``src`` is
    blob bytes or a path read through the storage backend. Returns
    (table, bytes_touched)."""
    lo = max(0, row_start)
    hi = min(meta["num_rows"], row_start + row_count)
    with RangeReader(src) as reader:
        return _decode_rows(reader, meta, lo, hi, columns), reader.bytes_read


def read_stream_from_file(path: str, meta: dict, column: str, kind: str) -> bytes | None:
    """Read + decompress ONE named stream's byte range from a blob file.
    Point lookups use this to fetch just a stripe's BLOOM_FILTER bytes —
    the stripe is ruled in/out without reading its data streams."""
    rec = _stream_dir(meta).get((column, kind))
    with RangeReader(path) as reader:  # opens the file only to read
        return None if rec is None else _raw_range(reader, rec)


def _stream_dir(meta: dict) -> dict:
    """(column, kind) -> stream record; a record without its own outer
    kind inherits the stripe's."""
    outer = meta.get("outer", "none")
    return {(r["column"], r["kind"]): r if "outer" in r else {**r, "outer": outer}
            for r in meta["streams"]}


@functools.lru_cache(maxsize=64)
def _schema(schema_b64: str) -> pa.Schema:
    """The Arrow schema a stripe's meta records (parsed once per text)."""
    return pa.ipc.read_schema(pa.py_buffer(base64.b64decode(schema_b64)))


def _decode_rows(reader: RangeReader, meta: dict, lo: int, hi: int,
                 columns: list[str] | None) -> pa.Table:
    """Rows [lo, hi) of the projected columns: the one function behind both
    decode_blob and decode_blob_rows."""
    schema = _schema(meta["schema_b64"])
    streams = _stream_dir(meta)
    stride = meta.get("index_stride", 0)
    cols_meta = {c["name"]: c for c in meta["columns"]}
    fields = [schema.field(name)
              for name in (columns if columns is not None else cols_meta)]
    arrays = [_decode_column_rows(reader, streams, stride, cols_meta[f.name],
                                  f.type, meta["num_rows"], lo, hi)
              for f in fields]
    return pa.Table.from_arrays(arrays, schema=pa.schema(fields))


def _raw_range(reader: RangeReader, rec: dict, raw_lo: int = 0,
               raw_hi: int | None = None):
    """Raw stream bytes [raw_lo, raw_hi) (default: the whole stream),
    touching only the covering byte range — through the outer chunk index
    when the stream has one. The one place decode undoes outer
    compression."""
    raw_len = rec["raw_length"]
    raw_hi = raw_len if raw_hi is None else min(raw_hi, raw_len)
    if raw_lo >= raw_hi:
        return b""
    kind = CHUNKED_KINDS.get(rec["outer"])
    if kind is None:
        return reader.read(rec["offset"] + raw_lo, raw_hi - raw_lo)
    csize = rec.get("chunk_size", chunked.DEFAULT_CHUNK)
    offs = rec.get("chunk_offsets")
    if offs is None:  # no chunk index: decompress the whole stream
        base, byte_lo, byte_hi, raw_n = 0, 0, rec["length"], raw_len
    else:
        c0 = raw_lo // csize
        c1 = min(-(-raw_hi // csize), len(offs))
        base = c0 * csize
        byte_lo = offs[c0]
        byte_hi = offs[c1] if c1 < len(offs) else rec["length"]
        # every covered chunk is csize raw bytes except the stream's tail
        raw_n = min(c1 * csize, raw_len) - base
    span = (rec["offset"] + byte_lo, byte_hi - byte_lo)
    last, raw = reader.span
    if last != span:
        raw = kind.module.decompress(reader.read(*span), raw_n, csize)
        if raw_lo != 0 or raw_hi != raw_len:  # a whole stream is read once
            reader.span = (span, raw)
    if raw_lo == base and raw_hi == base + raw_n:
        return raw
    return raw[raw_lo - base: raw_hi - base]


def _int_range(reader: RangeReader, rec: dict, lo: int, hi: int, n: int,
               out_dtype=np.int64) -> np.ndarray:
    """Values [lo, hi) of an int stream of ``n`` values. A strict sub-range
    reads only its covering bytes where the layout (for, planar) or the
    seek points (rle2) allow; the whole stream, or one with no such path,
    is read once and decoded by decode_int_stream."""
    import bisect

    codec = rec["codec"]
    part = lo > 0 or hi < n
    mod = _RANGE_CODECS.get(codec)
    if mod is not None and part:
        # fixed-width layouts range-read through the outer chunk index; an
        # outer-compressed stream without one is decompressed whole, once
        # for its header and ranges (RangeReader.span), and only [lo, hi)
        # decoded
        n, vmin, width, hdr = (rec.get(f"{codec}_header")
                               or mod.parse_header(_raw_range(reader, rec, 0, 24)))
        hi = min(hi, n)
        payloads = [_raw_range(reader, rec, blo, bhi)
                    for blo, bhi in mod.plane_ranges(lo, hi, n, width, hdr)]
        vals = (planar.decode_range(payloads, lo, hi, vmin, out_dtype=out_dtype)
                if mod is planar
                else forpack.decode_range(payloads, lo, hi, vmin, width))
        return vals.astype(out_dtype, copy=False)
    vindex = rec.get("vindex") if part else None
    if vindex is None or (codec == "rle2_delta" and "vprefix" not in rec):
        # no seek points, or a delta stream without its re-base prefixes:
        # decode from the start
        vals = decode_int_stream(_raw_range(reader, rec), codec,
                                 rec.get("signed", True), hi,
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


def _out_dtype(codec: str, t: pa.DataType):
    """int32 where the codec decodes natively at 32 bits and type ``t``
    guarantees the values fit — halves the hottest streams' memory
    traffic; int64 otherwise."""
    if codec in ("rle2", "planar") and pa.types.is_integer(t) and (
            t.bit_width <= 16
            or (t.bit_width <= 32 and pa.types.is_signed_integer(t))):
        return np.int32
    return np.int64


def _payload(reader: RangeReader, rec: dict, raw_length: int | None,
             lo: int = 0, hi: int | None = None):
    """Raw bytes [lo, hi) of a string payload stream of ``raw_length``
    decoded bytes. A payload of a chunked kind is read as if the kind were
    the stream's outer stage (the framing is the same), so it decompresses
    only its covering chunks, at the stream's recorded ``chunk_size``; any
    other payload is read as stored."""
    if rec["codec"] in CHUNKED_KINDS:
        rec = dict(rec, outer=rec["codec"], raw_length=raw_length)
    return _raw_range(reader, rec, lo, hi)


def _decode_blob(reader: RangeReader, rec: dict,
                 lengths: np.ndarray) -> tuple[bytes, np.ndarray]:
    """A whole string payload stream decoded: (value bytes, value
    lengths); ``lengths`` are the LENGTH stream's values (compressed
    lengths under fsst)."""
    if rec["codec"] == "fsst":
        return fsst.decompress(_raw_range(reader, rec), lengths)
    return _payload(reader, rec, int(lengths.sum())), lengths


def _strings_range(reader: RangeReader, data_rec: dict, len_rec: dict,
                   lo: int, hi: int, n: int, stride: int) -> pa.Array:
    """Strings [lo, hi) of a direct string column's ``n`` values. With a
    byte_index, one LENGTH read from the covering index entry gives the
    payload byte range of [lo, hi), and only that range is read; a DATA
    stream without one is read and decoded whole."""
    codec = data_rec["codec"]
    bindex = data_rec.get("byte_index")
    if bindex is None:
        lens = _int_range(reader, len_rec, 0, n, n)
        return strings_from_blob(*_decode_blob(reader, data_rec, lens)).slice(
            lo, hi - lo)
    # byte_index entries are per stride VALUES (== rows when the column
    # has no nulls)
    k = min(lo // stride, len(bindex) - 1)
    base = k * stride
    both = _int_range(reader, len_rec, base, hi, n)
    lens = both[lo - base:]
    b0 = bindex[k] + int(both[: lo - base].sum())
    b1 = b0 + int(lens.sum())
    blob = _payload(reader, data_rec, data_rec.get("blob_raw_length"), b0, b1)
    if codec != "fsst":
        return strings_from_blob(blob, lens)
    # symbol table (a small header) + only the covering token bytes; lens
    # are the COMPRESSED lengths decompress_with_table consumes
    head = _raw_range(reader, data_rec, 0, data_rec["fsst_header_len"])
    table, _ = fsst.SymbolTable.deserialize(head, 0)
    return strings_from_blob(*fsst.decompress_with_table(
        table, np.frombuffer(blob, dtype=np.uint8), lens))


def _decode_column_rows(reader: RangeReader, streams: dict, stride: int,
                        cm: dict, t: pa.DataType, n_rows: int, lo: int,
                        hi: int) -> pa.Array:
    """Rows [lo, hi) of one column whose streams hold ``n_rows`` rows; each
    stream is read through the helper that knows its range math."""
    name = cm["name"]
    enc = cm["encoding"]
    n_out = hi - lo
    n_vals = n_rows - cm.get("null_count", 0)  # values in the data streams
    valid = None
    vlo, vhi = lo, hi  # the rows' value range in the data streams
    if cm.get("null_count", 0):
        # PRESENT-aware range decode (treewriter.go:69-92 / cursor.go:179-198
        # record present positions in ROW_INDEX): the present stream is
        # tiny (n_rows BITS raw, byte-RLE'd smaller), so it is read whole
        # and maps the row range to the VALUE range of the data streams,
        # which keep their seek-point byte-sparse reads
        present = byterle.decode_bools(
            _raw_range(reader, streams[(name, "PRESENT")]), hi)
        valid = present[lo:]
        vlo = int(np.count_nonzero(present[:lo]))
        vhi = vlo + int(np.count_nonzero(valid))
    if enc == "struct":
        # struct children are full-length (they carry their own PRESENT),
        # so the row range maps through unchanged
        children = [
            _decode_column_rows(reader, streams, stride, cm["children"][i],
                                field.type, n_rows, lo, hi)
            for i, field in enumerate(t)]
        return pa.StructArray.from_arrays(
            children, fields=list(t),
            mask=None if valid is None else pa.array(~valid))
    if valid is not None and vhi == vlo:  # every requested row is null
        return pa.nulls(n_out, type=t)
    if enc == "int":
        rec = streams[(name, "DATA")]
        vals = _int_range(reader, rec, vlo, vhi, n_vals,
                          _out_dtype(rec["codec"], t))
        return _int_array(vals, t, valid)
    if enc == "timestamp":
        from .codecs.timestamp import join_unit

        secs = _int_range(reader, streams[(name, "DATA")], vlo, vhi, n_vals)
        fmt = _int_range(reader, streams[(name, "SECONDARY")], vlo, vhi,
                         n_vals)
        return _int_array(join_unit(secs, fmt, cm["unit"]), t, valid)
    if enc == "bool":
        bits = byterle.decode_bools(
            _raw_range(reader, streams[(name, "DATA")]), vhi)[vlo:]
        return _int_array(bits, t, valid)
    if enc == "float":
        dtype = np.dtype(t.to_pandas_dtype())
        vals = np.frombuffer(_raw_range(reader, streams[(name, "DATA")],
                                        vlo * dtype.itemsize,
                                        vhi * dtype.itemsize), dtype=dtype)
        return _int_array(vals, t, valid)
    if enc in ("dict", "direct", "binary"):
        if enc == "dict":
            indexes = _int_range(reader, streams[(name, "DATA")], vlo, vhi,
                                 n_vals)
            dict_rec = streams[(name, "DICT_DATA")]
            size = dict_rec["dict_size"]
            lens = _int_range(reader, streams[(name, "LENGTH")], 0, size, size)
            dictionary = strings_from_blob(*_decode_blob(reader, dict_rec,
                                                         lens))
            # one gather builds exactly the rows read, nulls included
            vals = dictionary.take(_int_array(indexes, pa.int64(), valid))
        else:
            vals = _strings_range(reader, streams[(name, "DATA")],
                                  streams[(name, "LENGTH")], vlo, vhi,
                                  n_vals, stride)
            if valid is not None:
                vals = _scatter_generic(vals, valid)
        return vals if vals.type == t else vals.cast(t)
    if enc == "decimal":
        lo64 = _int_range(reader, streams[(name, "DATA")], vlo, vhi, n_vals)
        hi64 = _int_range(reader, streams[(name, "SECONDARY")], vlo, vhi,
                          n_vals)
        vbuf = None
        null_count = 0
        if valid is not None:
            lo_f = np.zeros(n_out, dtype=np.int64)
            hi_f = np.zeros(n_out, dtype=np.int64)
            lo_f[valid] = lo64
            hi_f[valid] = hi64
            lo64, hi64 = lo_f, hi_f
            vbuf = pa.py_buffer(np.packbits(valid, bitorder="little").tobytes())
            null_count = n_out - (vhi - vlo)
        halves = np.empty(n_out * 2, dtype=np.int64)
        halves[0::2] = lo64
        halves[1::2] = hi64
        return pa.Array.from_buffers(
            t, n_out, [vbuf, pa.py_buffer(halves.tobytes())],
            null_count=null_count)
    if enc in ("list", "map"):
        # locate the child VALUE range through the row-stride element
        # offsets (a column without them anchors at element 0): one LENGTH
        # read covers the partial-sum head and the requested lengths
        eoffs = cm.get("elem_offsets", [0])
        k = min(vlo // max(stride, 1), len(eoffs) - 1)
        base = k * stride
        both = _int_range(reader, streams[(name, "LENGTH")], base, vhi, n_vals)
        lens = both[vlo - base:]
        el0 = eoffs[k] + int(both[: vlo - base].sum())
        el1 = el0 + int(lens.sum())
        if enc == "map":
            total = cm["stats"]["total_entries"]
            keys = _decode_column_rows(reader, streams, stride, cm["key"],
                                       t.key_type, total, el0, el1)
            items = _decode_column_rows(reader, streams, stride, cm["value"],
                                        t.item_type, total, el0, el1)
            offsets = np.zeros(len(lens) + 1, dtype=np.int32)
            np.cumsum(lens, out=offsets[1:])
            out = pa.MapArray.from_arrays(pa.array(offsets), keys, items)
            if out.type != t:  # restore field names lost by from_arrays
                out = out.cast(t)
        else:
            total = cm["stats"]["total_elements"]
            if "child" in cm:  # recursive child (any type, nullable too)
                child = _decode_column_rows(reader, streams, stride,
                                            cm["child"], t.value_type, total,
                                            el0, el1)
            else:  # flat int fast path (e.g. tokens)
                rec = streams[(name, "DATA")]
                vals = _int_range(reader, rec, el0, el1, total,
                                  _out_dtype(rec["codec"], t.value_type))
                child = _int_array(vals, t.value_type, None)
            large = pa.types.is_large_list(t)
            offsets = np.zeros(len(lens) + 1,
                               dtype=np.int64 if large else np.int32)
            np.cumsum(lens, out=offsets[1:])
            out = (pa.LargeListArray if large else pa.ListArray).from_arrays(
                pa.array(offsets), child)
        return out if valid is None else _scatter_generic(out, valid)
    if enc == "union":
        # the tag stream is read whole; each child decodes the range of its
        # own values that rows [lo, hi) hold, and the dense offsets are
        # rebuilt as a running count per tag
        tags_all = byterle.decode_bytes(
            _raw_range(reader, streams[(name, "DATA")]), n_rows).view(np.int8)
        tags = tags_all[lo:hi]
        children = []
        for i, field in enumerate(t):
            tc = cm["type_codes"][i]
            c0 = int(np.count_nonzero(tags_all[:lo] == tc))
            children.append(_decode_column_rows(
                reader, streams, stride, cm["children"][i], field.type,
                int(np.count_nonzero(tags_all == tc)), c0,
                c0 + int(np.count_nonzero(tags == tc))))
        return pa.UnionArray.from_dense(
            pa.array(tags, type=pa.int8()),
            pa.array(_union_offsets(tags, cm["type_codes"])), children,
            [f.name for f in t], cm["type_codes"])
    raise ValueError(f"unknown encoding {enc!r}")


def _union_offsets(tags: np.ndarray, codes) -> np.ndarray:
    """Dense-union offsets: each slot's running count among the slots
    that carry its tag."""
    offsets = np.zeros(len(tags), dtype=np.int32)
    for tc in codes:
        m = tags == tc
        offsets[m] = np.arange(int(np.count_nonzero(m)), dtype=np.int32)
    return offsets


def _scatter_generic(dense: pa.Array, valid: np.ndarray) -> pa.Array:
    """Re-insert nulls into any dense array via take with null indexes."""
    n = len(valid)
    idx = np.full(n, -1, dtype=np.int64)
    idx[valid] = np.arange(len(dense), dtype=np.int64)
    return dense.take(pa.array(idx, type=pa.int64(), mask=~valid))


def _int_array(vals: np.ndarray, t: pa.DataType, valid) -> pa.Array:
    """Decoded fixed-width values (ints of an int-like type, floats,
    bools) -> Arrow array of type ``t``, with nulls re-inserted where
    ``valid`` is False."""
    storage = _storage_type(t)
    vals = np.ascontiguousarray(vals, dtype=storage.to_pandas_dtype())
    # t over the values' own buffer, no conversion — except bools, which
    # numpy keeps one byte each and Arrow packs one bit each
    if valid is None and t != pa.bool_():
        return pa.Array.from_buffers(t, len(vals), [None, pa.py_buffer(vals)])
    out = (pa.array(vals, type=storage) if valid is None
           else _scatter_array(vals, valid, storage))
    return out if storage == t else out.view(t)


def _scatter_array(vals: np.ndarray, valid: np.ndarray, t: pa.DataType) -> pa.Array:
    full = np.zeros(len(valid), dtype=vals.dtype)
    full[valid] = vals
    return pa.array(full, type=t, mask=~valid)

