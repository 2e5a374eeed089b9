"""Foreign Apache ORC file reader (conformance / import path).

Reads *real* ORC files — the Apache format, as written by Hive/Java/C++/
pyarrow — and decodes them through this repo's already-vector-exact codec
kernels (``codecs.rle1/rle2/byterle/varint`` and ``codecs.CHUNKED_KINDS``).
This closes SURVEY.md §2 S9: the reference validates itself against 26 golden
example files (/root/reference/orc_test.go:14-131 decodes
examples/*.orc against examples/expected/*.jsn.gz); this module lets the
engine ingest the same corpus — and any existing ORC lake — natively.

Format layout per the ORC spec (re-derived from /root/reference/reader.go:
76-170 tail parse, :369-456 stripe stream mapping, and
/root/reference/proto/orc.proto message definitions):

    [3-byte magic "ORC"] [stripes ...] [metadata] [footer] [postscript] [psLen:1]

Every protobuf section and every stream is independently chunk-compressed
with the file's CompressionKind using 3-byte ``(len<<1)|isOriginal``
headers (compressioncodec.go:302-314) — the framing ``codecs/chunked.py``
implements once for the engine's own format and for this reader.

The protobuf decode is a hand-rolled proto2 wire reader (~60 lines): the
five messages we need are tiny and fixed, so a generated-code dependency
buys nothing.

Scale note: tail parsing is a driver-side metadata read (two small range
reads); row decode parallelizes per stripe via ``read_orc`` which maps
stripe descriptors through ``map_batches`` tasks, so a multi-file import
scales with (files × stripes), never single-threaded on the driver.
"""

from __future__ import annotations

import datetime
import struct
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa

from ..codecs import CHUNKED_KINDS, byterle, chunked, rle1, rle2
from ..codecs.dictionary import strings_from_blob
from ..codecs.timestamp import BASE_SECONDS, parse_nanos
from ..codecs.varint import read_vulong
from ..stripe import _int_array, _scatter_generic, _union_offsets

# ---------------------------------------------------------------------------
# proto2 wire-format reader


def _pb_fields(buf: bytes | memoryview) -> dict[int, list]:
    """Parse one proto2 message into {field_number: [raw values]}.

    Varint fields -> int; length-delimited -> memoryview; fixed64/32 ->
    int (little-endian).  Unknown fields are kept (and ignored by callers).
    """
    out: dict[int, list] = {}
    mv = memoryview(buf)
    pos = 0
    n = len(mv)
    while pos < n:
        key, pos = read_vulong(mv, pos)
        fnum = key >> 3
        wt = key & 7
        if wt == 0:
            val, pos = read_vulong(mv, pos)
        elif wt == 2:
            ln, pos = read_vulong(mv, pos)
            val = mv[pos: pos + ln]
            pos += ln
        elif wt == 1:
            val = int.from_bytes(mv[pos: pos + 8], "little")
            pos += 8
        elif wt == 5:
            val = int.from_bytes(mv[pos: pos + 4], "little")
            pos += 4
        else:
            raise OrcFormatError(f"unsupported proto wire type {wt}")
        out.setdefault(fnum, []).append(val)
    return out


def _pb_one(f: dict, num: int, default=None):
    v = f.get(num)
    return v[0] if v else default


def _vu(n: int) -> bytes:
    from ..codecs.varint import write_vulong

    out = bytearray()
    write_vulong(out, n)
    return bytes(out)


def _pb_packed_uints(f: dict, num: int) -> list[int]:
    """repeated uint32/uint64 that may be packed (wt 2) or unpacked (wt 0)."""
    out: list[int] = []
    for v in f.get(num, []):
        if isinstance(v, int):
            out.append(v)
        else:
            pos = 0
            while pos < len(v):
                x, pos = read_vulong(v, pos)
                out.append(x)
    return out


class OrcFormatError(ValueError):
    pass


class OrcUnsupportedError(NotImplementedError):
    """File uses a feature this reader does not support (e.g. LZO)."""


# ---------------------------------------------------------------------------
# chunked decompression (shared 3-byte-header framing, per-codec blocks)

def _lz4_block_decompress(src: bytes) -> bytes:
    """Pure-python LZ4 *block* format decoder (token / literals / match
    copies).  Only used for the conformance corpus — files are ~100 KiB."""
    out = bytearray()
    i = 0
    n = len(src)
    while i < n:
        token = src[i]
        i += 1
        lit = token >> 4
        if lit == 15:
            while True:
                b = src[i]
                i += 1
                lit += b
                if b != 255:
                    break
        out += src[i: i + lit]
        i += lit
        if i >= n:  # last sequence has no match part
            break
        offset = src[i] | (src[i + 1] << 8)
        i += 2
        if offset == 0:
            raise OrcFormatError("lz4: zero match offset")
        ml = token & 15
        if ml == 15:
            while True:
                b = src[i]
                i += 1
                ml += b
                if b != 255:
                    break
        ml += 4
        start = len(out) - offset
        if offset >= ml:  # non-overlapping: slice copy
            out += out[start: start + ml]
        else:
            for j in range(ml):
                out.append(out[start + j])
    return bytes(out)


def _lzo1x_decompress(src: bytes) -> bytes:
    """Pure-python LZO1X block decoder, per the publicly documented stream
    format (Linux Documentation/lzo.txt).  The decoder is a 4-state
    machine: ``state`` = number of literals the previous instruction
    copied (0-3, or 4 meaning ">=4"), which disambiguates the 0..15
    opcodes.  Only used for the conformance corpus — files are ~100 KiB,
    so the per-byte loop is irrelevant."""
    out = bytearray()
    i = 0
    n = len(src)
    state = 0

    def copy_match(dist: int, length: int) -> None:
        start = len(out) - dist
        if start < 0:
            raise OrcFormatError("lzo: match distance before stream start")
        if dist >= length:
            out.extend(out[start: start + length])
        else:  # overlapping run: byte-forward copy is the semantics
            for j in range(length):
                out.append(out[start + j])

    if n and src[0] > 17:  # leading literal run: length = byte - 17
        t = src[0] - 17
        i = 1
        out += src[i: i + t]
        i += t
        state = 4 if t >= 4 else t
    while i < n:
        t = src[i]
        i += 1
        if t < 16:
            if state == 0:  # long literal run
                length = t
                if length == 0:
                    while src[i] == 0:
                        length += 255
                        i += 1
                    length += src[i]
                    i += 1
                    length += 15
                length += 3
                out += src[i: i + length]
                i += length
                state = 4
                continue
            d = (t >> 2) & 3
            s = t & 3
            h = src[i]
            i += 1
            if state == 4:  # copy 3 bytes from 2..3 kB distance
                copy_match((h << 2) + d + 2049, 3)
            else:  # state 1..3: copy 2 bytes from <=1 kB distance
                copy_match((h << 2) + d + 1, 2)
        elif t >= 64:  # copy 3-4 (01LDDDSS) or 5-8 (1LLDDDSS) bytes, <=2 kB
            length = 5 + ((t >> 5) & 3) if t >= 128 else 3 + ((t >> 5) & 1)
            s = t & 3
            h = src[i]
            i += 1
            copy_match((h << 3) + ((t >> 2) & 7) + 1, length)
        elif t >= 32:  # 001LLLLL: block within 16 kB
            length = t & 31
            if length == 0:
                while src[i] == 0:
                    length += 255
                    i += 1
                length += src[i]
                i += 1
                length += 31
            length += 2
            le = src[i] | (src[i + 1] << 8)
            i += 2
            s = le & 3
            copy_match((le >> 2) + 1, length)
        else:  # 0001HLLL: block within 16..48 kB, or end-of-stream
            length = t & 7
            if length == 0:
                while src[i] == 0:
                    length += 255
                    i += 1
                length += src[i]
                i += 1
                length += 7
            length += 2
            le = src[i] | (src[i + 1] << 8)
            i += 2
            s = le & 3
            dist = 16384 + ((t & 8) << 11) + (le >> 2)
            if dist == 16384:
                break  # end-of-stream marker (17 0 0)
            copy_match(dist, length)
        out += src[i: i + s]
        i += s
        state = s
    return bytes(out)


def _zstd_frame_decompress(src: bytes) -> bytes:
    """One zstd frame of unknown content size: stream-decompress through
    pyarrow's bundled zstd (no frame-header content-size field needed)."""
    stream = pa.input_stream(pa.py_buffer(src), compression="zstd")
    return stream.read()


# per-chunk block decoders of the kinds only foreign files use, called by
# the shared chunk loop as block(payload, raw_size). A foreign zstd chunk's
# raw size is unknown, so it decodes as a self-describing frame instead of
# through zstdchunk.
_FOREIGN_BLOCKS = {
    3: lambda src, _n: _lzo1x_decompress(src),
    4: lambda src, _n: _lz4_block_decompress(src),
    CHUNKED_KINDS["zstd"].orc_kind:
        lambda src, _n: _zstd_frame_decompress(src),
}
_KINDS_BY_ID = {k.orc_kind: k for k in CHUNKED_KINDS.values()}


def _decompress(data: bytes | memoryview, kind: int) -> bytes:
    if kind == 0:
        return bytes(data)
    if kind in _FOREIGN_BLOCKS:
        return chunked.decompress(data, _FOREIGN_BLOCKS[kind])
    if kind in _KINDS_BY_ID:
        return _KINDS_BY_ID[kind].module.decompress(data)
    raise OrcUnsupportedError(f"compression kind {kind} is not supported")


# ---------------------------------------------------------------------------
# schema tree

def _unzig(v: int) -> int:
    return (v >> 1) ^ -(v & 1)


class _TsMs(int):
    """A timestamp statistic: epoch-milliseconds int, tagged with which
    proto fields it came from.  ``utc=True`` means the tz-unambiguous
    minimumUtc/maximumUtc fields (orc.proto TimestampStatistics 3/4,
    ORC-135+ writers); ``utc=False`` means the legacy writer-local
    min/max (fields 1/2), which need the stripe's writerTimezone to map
    to an instant.  Subclassing int keeps generic stats consumers
    (row_index tuples, CLI stats) working unchanged — comparisons with
    non-numeric predicate values still raise TypeError and fall into the
    existing never-prune guards."""

    utc: bool

    def __new__(cls, v: int, utc: bool):
        o = super().__new__(cls, v)
        o.utc = utc
        return o


# conservative slack when mapping timestamp statistics to decode-frame
# epoch-ns bounds: ±1 s covers the pre-1970 ceiling-second decode quirk
# and the writer's ms-floor; local-frame stats get ±2 h extra for any
# DST/transition anomaly beyond the two fold offsets
_TS_SLACK_NS = 1_000_000_000
_TS_LOCAL_SLACK_NS = 2 * 3600 * 1_000_000_000


def _ts_pred_ns(v):
    """Predicate value -> epoch-ns int in the decode frame (UTC-instant
    stored as tz-naive ``timestamp[ns]``), or None when the value isn't
    datetime-like (no pruning then; the exact filter is authoritative)."""
    import datetime as _dt
    try:
        if isinstance(v, pa.Scalar):
            if not pa.types.is_timestamp(v.type) or v.value is None:
                return None
            mult = {"s": 10**9, "ms": 10**6, "us": 10**3, "ns": 1}[v.type.unit]
            return int(v.value) * mult
        if isinstance(v, np.datetime64):
            return int(v.astype("datetime64[ns]").astype(np.int64))
        if isinstance(v, _dt.datetime):
            if v.tzinfo is not None:
                d = v - _dt.datetime(1970, 1, 1, tzinfo=_dt.timezone.utc)
            else:
                d = v - _dt.datetime(1970, 1, 1)
            return int(d / _dt.timedelta(microseconds=1)) * 1000
    except (TypeError, ValueError, OverflowError, KeyError):
        return None
    return None


def _ts_stat_bounds_ns(lo, hi, tzname):
    """Map a (min, max) pair of ``_TsMs`` statistics to conservative
    decode-frame epoch-ns bounds ``(lo_ns, hi_ns)``; a side is None when
    it cannot be bounded safely (never prune on it).  UTC-field stats map
    directly (± slack); legacy writer-local stats are wall-clock ms and
    need ``tzname`` — both DST folds are tried and the bounds widened so
    no real transition can make pruning drop rows."""
    lo_ns = hi_ns = None
    if isinstance(lo, _TsMs):
        if lo.utc:
            lo_ns = int(lo) * 10**6 - _TS_SLACK_NS
        elif tzname:
            off = _tz_offsets_ms(int(lo), tzname)
            if off is not None:
                lo_ns = (int(lo) - off[1]) * 10**6 \
                    - _TS_SLACK_NS - _TS_LOCAL_SLACK_NS
    if isinstance(hi, _TsMs):
        if hi.utc:
            hi_ns = (int(hi) + 1) * 10**6 + _TS_SLACK_NS
        elif tzname:
            off = _tz_offsets_ms(int(hi), tzname)
            if off is not None:
                hi_ns = (int(hi) + 1 - off[0]) * 10**6 \
                    + _TS_SLACK_NS + _TS_LOCAL_SLACK_NS
    return lo_ns, hi_ns


def _tz_offsets_ms(wall_ms: int, tzname: str):
    """(min, max) UTC offset in ms a wall-clock instant ``wall_ms`` can
    carry in ``tzname`` (both DST folds), or None when the zone is
    unknown in this environment."""
    import datetime as _dt
    try:
        from zoneinfo import ZoneInfo
        tz = ZoneInfo(tzname)
        # a corrupt / far-out-of-range stat overflows datetime; treat it
        # as "cannot convert" (caller then never prunes) instead of
        # crashing the whole plan
        wall = _dt.datetime(1970, 1, 1) + _dt.timedelta(milliseconds=wall_ms)
        offs = []
        for fold in (0, 1):
            o = wall.replace(tzinfo=tz, fold=fold).utcoffset()
            offs.append(int(o / _dt.timedelta(milliseconds=1)))
    except Exception:
        return None
    return min(offs), max(offs)


def _stats_min_max(cs: dict, kind: int):
    """(min, max) from one ColumnStatistics message for comparable kinds
    (orc.proto:22-63 field numbers); (None, None) otherwise."""
    if kind in (1, 2, 3, 4):  # byte/short/int/long -> IntegerStatistics
        sub = _pb_one(cs, 2)
        if sub is not None:
            f = _pb_fields(sub)
            lo, hi = _pb_one(f, 1), _pb_one(f, 2)
            return (_unzig(lo) if lo is not None else None,
                    _unzig(hi) if hi is not None else None)
    elif kind in (5, 6):  # float/double -> DoubleStatistics (fixed64)
        sub = _pb_one(cs, 3)
        if sub is not None:
            f = _pb_fields(sub)
            lo, hi = _pb_one(f, 1), _pb_one(f, 2)
            u = struct.Struct("<d")
            return (u.unpack(int.to_bytes(lo, 8, "little"))[0]
                    if lo is not None else None,
                    u.unpack(int.to_bytes(hi, 8, "little"))[0]
                    if hi is not None else None)
    elif kind in (7, 16, 17):  # string/varchar/char -> StringStatistics
        sub = _pb_one(cs, 4)
        if sub is not None:
            f = _pb_fields(sub)
            lo, hi = _pb_one(f, 1), _pb_one(f, 2)
            return (bytes(lo).decode() if lo is not None else None,
                    bytes(hi).decode() if hi is not None else None)
    elif kind == 15:  # date -> DateStatistics (sint32 days)
        sub = _pb_one(cs, 7)
        if sub is not None:
            f = _pb_fields(sub)
            lo, hi = _pb_one(f, 1), _pb_one(f, 2)
            return (_unzig(lo) if lo is not None else None,
                    _unzig(hi) if hi is not None else None)
    elif kind == 9:  # timestamp -> TimestampStatistics (sint64 epoch-ms)
        sub = _pb_one(cs, 9)
        if sub is not None:
            f = _pb_fields(sub)
            # prefer the tz-unambiguous UTC fields when the writer set
            # them; tag which frame each side came from so pushdown can
            # map ms -> decode-frame ns safely (_ts_stat_bounds_ns)
            lo_u, hi_u = _pb_one(f, 3), _pb_one(f, 4)
            lo_l, hi_l = _pb_one(f, 1), _pb_one(f, 2)
            lo = (_TsMs(_unzig(lo_u), True) if lo_u is not None
                  else _TsMs(_unzig(lo_l), False) if lo_l is not None
                  else None)
            hi = (_TsMs(_unzig(hi_u), True) if hi_u is not None
                  else _TsMs(_unzig(hi_l), False) if hi_l is not None
                  else None)
            return (lo, hi)
    return (None, None)


@dataclass
class OrcType:
    column: int  # column id == index in footer types list
    kind: int
    subtypes: list[int] = field(default_factory=list)
    field_names: list[str] = field(default_factory=list)
    max_length: int = 0
    precision: int = 0
    scale: int = 0
    children: list["OrcType"] = field(default_factory=list)

    def subtree_columns(self) -> list[int]:
        out = [self.column]
        for c in self.children:
            out.extend(c.subtree_columns())
        return out


def _parse_types(raw_types: list) -> OrcType:
    nodes = []
    for i, tbuf in enumerate(raw_types):
        f = _pb_fields(tbuf)
        nodes.append(OrcType(
            column=i,
            kind=_pb_one(f, 1, 0),
            subtypes=_pb_packed_uints(f, 2),
            field_names=[bytes(v).decode() for v in f.get(3, [])],
            max_length=_pb_one(f, 4, 0),
            precision=_pb_one(f, 5, 0),
            scale=_pb_one(f, 6, 0),
        ))
    for node in nodes:
        node.children = [nodes[s] for s in node.subtypes]
    return nodes[0]


def _may_match(kind: int, lo, hi, plo, phi, tzname) -> bool:
    """The one statistics-pruning test: False when column statistics
    (lo, hi) of ORC type ``kind`` prove no value lies in [plo, phi];
    True otherwise.  Missing or incomparable statistics never prune.
    Timestamp statistics are epoch-ms while the exact filter compares in
    decode-frame ns, so kind 9 maps both sides through the explicit
    converters (``tzname``, the writerTimezone, is only needed for
    writer-local statistics), never the generic compare."""
    if kind == 9:
        plo_ns, phi_ns = _ts_pred_ns(plo), _ts_pred_ns(phi)
        if plo_ns is None or phi_ns is None:
            return True
        lo_ns, hi_ns = _ts_stat_bounds_ns(lo, hi, tzname)
        return not ((hi_ns is not None and hi_ns < plo_ns)
                    or (lo_ns is not None and lo_ns > phi_ns))
    try:
        return lo is None or hi is None or not (hi < plo or lo > phi)
    except TypeError:
        return True  # stats/predicate type mismatch: never prune on it


# ---------------------------------------------------------------------------
# footer / stripe metadata

_KIND_PRESENT = 0
_KIND_DATA = 1
_KIND_LENGTH = 2
_KIND_DICT_DATA = 3
_KIND_SECONDARY = 5
_KIND_ROW_INDEX = 6
_ENC_DIRECT = 0
_ENC_DICTIONARY = 1
_ENC_DIRECT_V2 = 2
_ENC_DICTIONARY_V2 = 3


@dataclass
class StripeInfo:
    offset: int
    index_length: int
    data_length: int
    footer_length: int
    number_of_rows: int


@dataclass
class _StripeView:
    """One stripe footer, parsed once: the stream directory
    ``(column, kind) -> (file offset, length)`` in footer order, the
    ColumnEncodings ``column -> (kind, dictionary size)`` and the
    writerTimezone (orc.proto StripeFooter fields 1-3)."""
    streams: dict[tuple[int, int], tuple[int, int]]
    encodings: dict[int, tuple[int, int]]
    timezone: str | None


class ORCFile:
    """Parsed tail of an Apache ORC file; decodes stripes to Arrow."""

    def __init__(self, path_or_data: str | bytes):
        if isinstance(path_or_data, (bytes, bytearray, memoryview)):
            data = bytes(path_or_data)
            self.path = None
        else:
            # memory-map instead of fh.read(): a read_orc stripe task
            # constructs an ORCFile and touches ONLY its stripe's byte
            # ranges plus the tail — an eager whole-file read made every
            # stripe task pay O(file size), i.e. O(stripes x file size)
            # aggregate read amplification per file
            import mmap

            self.path = path_or_data
            with open(path_or_data, "rb") as fh:
                import os

                if os.fstat(fh.fileno()).st_size < 4:
                    # mmap raises ValueError on zero-byte files; keep the
                    # contract that malformed inputs raise OrcFormatError
                    raise OrcFormatError("missing ORC magic")
                data = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        self._data = data
        if len(data) < 4 or data[:3] != b"ORC":
            raise OrcFormatError("missing ORC magic")
        ps_len = data[-1]
        ps = _pb_fields(data[-1 - ps_len: -1])
        magic = _pb_one(ps, 8000)
        if magic is not None and bytes(magic) != b"ORC":
            raise OrcFormatError("bad postscript magic")
        self.compression = _pb_one(ps, 2, 0)
        self.compression_block = _pb_one(ps, 3, 0)
        self.version = _pb_packed_uints(ps, 4)
        if self.version and self.version[0] > 0:
            raise OrcUnsupportedError(f"ORC file version {self.version} > 0.x")
        footer_len = _pb_one(ps, 1, 0)
        meta_len = _pb_one(ps, 5, 0)
        tail_start = len(data) - 1 - ps_len - footer_len
        footer = _pb_fields(_decompress(data[tail_start: tail_start + footer_len],
                                        self.compression))
        # raw Type buffers, kept so stripe work items can carry the schema
        # to decode tasks without a per-stripe tail re-parse (stripe_spec)
        self._set_schema(b"".join(
            b"\x22" + _vu(len(t)) + bytes(t) for t in footer.get(4, [])))
        self.number_of_rows = _pb_one(footer, 6, 0)
        self.row_index_stride = _pb_one(footer, 8, 0)
        self.stripes: list[StripeInfo] = []
        for sbuf in footer.get(3, []):
            f = _pb_fields(sbuf)
            self.stripes.append(StripeInfo(
                offset=_pb_one(f, 1, 0), index_length=_pb_one(f, 2, 0),
                data_length=_pb_one(f, 3, 0), footer_length=_pb_one(f, 4, 0),
                number_of_rows=_pb_one(f, 5, 0)))
        self.user_metadata = {}
        for mbuf in footer.get(5, []):
            f = _pb_fields(mbuf)
            name = _pb_one(f, 1)
            if name is not None:
                self.user_metadata[bytes(name).decode()] = bytes(_pb_one(f, 2, b""))
        # Metadata (stripe stats) section sits immediately before the
        # footer; parsed lazily by stripe_statistics() for pushdown
        self._meta_section = (tail_start - meta_len, meta_len)
        self._stripe_stats: list[dict] | None = None

    def _set_schema(self, raw_types: bytes) -> None:
        """Schema tree plus the top-level column map ``name -> OrcType``
        (a non-struct root is the single column ``_value``)."""
        self._raw_types = raw_types
        self.schema = s = _parse_types(_pb_fields(raw_types).get(4, []))
        self.top_columns = (dict(zip(s.field_names, s.children))
                            if s.kind == 12 else {"_value": s})
        self._views: dict[int, _StripeView] = {}

    # -- public API ---------------------------------------------------------

    def stripe_spec(self, i: int) -> dict:
        """Self-contained work item for stripe ``i``: everything a decode
        task needs (stripe extent + compression + serialized schema) so it
        seeks straight to the stripe instead of re-parsing the file tail —
        at a 100k-stripe lake the per-stripe tail parse is O(stripes)
        redundant footer reads (object-store round trips)."""
        st = self.stripes[i] if i >= 0 else StripeInfo(0, 0, 0, 0, 0)
        return {
            "path": self.path, "stripe": i, "offset": st.offset,
            "index_length": st.index_length, "data_length": st.data_length,
            "footer_length": st.footer_length,
            "number_of_rows": st.number_of_rows,
            "compression": self.compression,
            "compression_block": self.compression_block,
            "row_index_stride": self.row_index_stride,
            "types": self._raw_types,
        }

    @classmethod
    def from_stripe_spec(cls, spec: dict) -> "ORCFile":
        """Rebuild a single-stripe view from a ``stripe_spec`` work item
        WITHOUT touching the file tail (mmap only; stripe byte ranges are
        read on demand).  The spec's stripe becomes index 0."""
        import mmap

        self = cls.__new__(cls)
        self.path = spec["path"]
        with open(self.path, "rb") as fh:
            self._data = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        self.compression = spec["compression"]
        self.compression_block = spec["compression_block"]
        self.version = [0, 12]
        self._set_schema(bytes(spec["types"]))
        self.row_index_stride = spec["row_index_stride"]
        self.number_of_rows = spec["number_of_rows"]
        self.stripes = [] if spec["stripe"] < 0 else [StripeInfo(
            offset=spec["offset"], index_length=spec["index_length"],
            data_length=spec["data_length"],
            footer_length=spec["footer_length"],
            number_of_rows=spec["number_of_rows"])]
        self.user_metadata = {}
        self._meta_section = (0, 0)
        self._stripe_stats = None
        return self

    def _select(self, columns: list[str] | None) -> list[tuple[str, OrcType]]:
        """(name, type) of the top-level columns in ``columns``, in schema
        order (all of them for None); ValueError names unknown ones."""
        if columns is None:
            return list(self.top_columns.items())
        unknown = [c for c in columns if c not in self.top_columns]
        if unknown:
            raise ValueError(f"unknown ORC column(s) {unknown}; "
                             f"{self.path or 'the file'} has "
                             f"{list(self.top_columns)}")
        return [(nm, t) for nm, t in self.top_columns.items() if nm in columns]

    def arrow_schema(self, columns: list[str] | None = None) -> pa.Schema:
        return pa.schema([pa.field(nm, _arrow_type(t))
                          for nm, t in self._select(columns)])

    def _stripe_view(self, i: int) -> _StripeView:
        """Stripe ``i``'s footer, decompressed and parsed on first use."""
        view = self._views.get(i)
        if view is None:
            st = self.stripes[i]
            sf_off = st.offset + st.index_length + st.data_length
            sf = _pb_fields(_decompress(
                self._data[sf_off: sf_off + st.footer_length],
                self.compression))
            streams = {}
            off = st.offset
            for sbuf in sf.get(1, []):
                f = _pb_fields(sbuf)
                ln = _pb_one(f, 3, 0)
                streams[(_pb_one(f, 2, 0), _pb_one(f, 1, 0))] = (off, ln)
                off += ln
            encodings = {}
            for ci, cbuf in enumerate(sf.get(2, [])):
                f = _pb_fields(cbuf)
                encodings[ci] = (_pb_one(f, 1, 0), _pb_one(f, 2, 0))
            tz = _pb_one(sf, 3)
            view = self._views[i] = _StripeView(
                streams, encodings, None if tz is None else bytes(tz).decode())
        return view

    def _stream(self, i: int, col: int, kind: int) -> bytes | None:
        """One whole decompressed stream of stripe ``i``, or None."""
        rng = self._stripe_view(i).streams.get((col, kind))
        if rng is None:
            return None
        off, ln = rng
        return _decompress(self._data[off: off + ln], self.compression)

    def stripe_statistics(self) -> list[dict]:
        """Per-stripe top-level column statistics from the file tail's
        Metadata section (proto/orc.proto:185-191, the same stats the
        reference's columnstatistics.go accumulates): one dict per stripe
        mapping column name -> (min, max, number_of_values, has_null).
        min/max are None for types without comparable stats (or when the
        writer omitted them).  Timestamps are epoch-milliseconds, dates
        epoch-days — the proto's own units.  Returns [] when the file has
        no Metadata section.  Drives stripe-skipping predicate pushdown in
        ``read_orc`` (the foreign-file analogue of
        ``pipelines.decode.decode_dataset_filtered``)."""
        if self._stripe_stats is not None:
            return self._stripe_stats
        start, ln = self._meta_section
        if ln <= 0:
            self._stripe_stats = []
            return self._stripe_stats
        meta = _pb_fields(_decompress(self._data[start: start + ln],
                                      self.compression))
        out: list[dict] = []
        for sbuf in meta.get(1, []):  # StripeStatistics
            cols = _pb_fields(sbuf).get(1, [])  # repeated ColumnStatistics
            st: dict = {}
            for nm, t in self.top_columns.items():
                if t.column >= len(cols):
                    continue
                cs = _pb_fields(cols[t.column])
                lo, hi = _stats_min_max(cs, t.kind)
                st[nm] = (lo, hi, _pb_one(cs, 1, 0), bool(_pb_one(cs, 10, 0)))
            out.append(st)
        self._stripe_stats = out
        return out

    def _stripe_may_match(self, i: int, column: str, lo, hi) -> bool:
        """Stripe-statistics test for ``lo <= column <= hi`` (see
        ``_may_match``).  Planning stays tail-only: the stripe footer is
        read only when a timestamp statistic is in the writer-local
        frame and so needs the writerTimezone."""
        stats = self.stripe_statistics()
        s = stats[i].get(column) if i < len(stats) else None
        if s is None:
            return True
        local = any(isinstance(v, _TsMs) and not v.utc for v in s[:2])
        return _may_match(self.top_columns[column].kind, s[0], s[1], lo, hi,
                          self.writer_timezone(i) if local else None)

    def writer_timezone(self, i: int = 0) -> str | None:
        """StripeFooter.writerTimezone (orc.proto field 3).  The reference
        ignores it (why its own suite skips the US/Pacific files); correct
        instant decode requires it."""
        return self._stripe_view(i).timezone if self.stripes else None

    def bloom_index(self, i: int, column: str):
        """Parsed BLOOM_FILTER / BLOOM_FILTER_UTF8 index for ``column`` in
        stripe ``i``, or None when the stripe carries none.  Touches only
        the stripe's index region (a few KB at the stripe head) — the
        point of blooms is skipping the DATA region unread."""
        from .orcbloom import BloomFilterIndex

        t = self.top_columns.get(column)
        if t is None:
            return None
        # the first bloom stream of the column in footer order
        kind = next((k for c, k in self._stripe_view(i).streams
                     if c == t.column and k in (7, 8)), None)
        if kind is None:
            return None
        return BloomFilterIndex.parse(self._stream(i, t.column, kind))

    def bloom_might_contain(self, i: int, column: str, value) -> bool:
        """Equality-lookup stripe test: False means the stripe's bloom
        filters PROVE no row can equal ``value`` (safe to skip unread);
        True means maybe (no filter, unsupported type, or a hit).

        Timestamp columns: modern (``utf8``-lineage) writers hash
        ``value.getTime()`` — the UTC-instant epoch-MILLISECONDS floor,
        frame-independent (validated against pyarrow/ORC-C++ written
        filters: 100% present-ms hits, 0% on us/ns/shifted frames) — so
        datetime-like predicate values convert through ``_ts_pred_ns``
        and probe their ms floor.  Legacy/unknown lineages and files
        without a writerTimezone hashed unrecoverable frames: never skip."""
        from .orcbloom import probe_hashes

        t = self.top_columns.get(column)
        if t is None:
            return True
        kind = t.kind
        if kind == 9:
            if self.writer_timezone(i) is None:
                return True
            if not isinstance(value, (int, np.integer)):
                ns = _ts_pred_ns(value)
                if ns is None:
                    return True
                value = ns // 10**6  # floor, as java.util.Date.getTime
        idx = self.bloom_index(i, column)
        if idx is None:
            return True
        if kind == 9 and idx.lineage != "utf8":
            return True  # pre-UTF8 writers: hash frame not pinned
        # lineage-aware: a known writer layout pins ONE integer hash
        # (full skipping power); unknown layouts probe both candidates
        hashes = probe_hashes(value, kind, idx.lineage)
        return idx.might_contain(hashes) if hashes else True

    def _decode_rows(self, i: int, columns: list[str] | None, n: int,
                     seek: dict | None = None,
                     skips: dict | None = None) -> pa.Table:
        """``n`` rows of the selected columns of stripe ``i``, decoded
        from the stripe start or, with a ``_seek_plan``, from a row-group
        start: ``seek`` maps (col, kind) -> (chunk_offset,
        decompressed_offset), and those streams are decompressed FROM the
        chunk offset only (chunked compression headers are
        self-contained) and sliced at the decompressed offset — the byte
        half of row-index positions; ``skips`` is the other half."""
        cols = self._select(columns)
        root = self.schema
        wanted = {root.column}.union(*(t.subtree_columns() for _, t in cols))
        view = self._stripe_view(i)
        seek = seek or {}
        streams: dict[tuple[int, int], bytes] = {}
        for key, (off, ln) in view.streams.items():
            if key[1] > _KIND_SECONDARY or key[0] not in wanted:
                continue
            pos = seek.get(key)
            if pos is None:
                streams[key] = _decompress(self._data[off: off + ln],
                                           self.compression)
            elif self.compression == 0:
                streams[key] = bytes(self._data[off + pos[0]: off + ln])
            else:
                streams[key] = _decompress(self._data[off + pos[0]: off + ln],
                                           self.compression)[pos[1]:]
        base_epoch = BASE_SECONDS
        if view.timezone is not None:
            from zoneinfo import ZoneInfo
            base_epoch = int(datetime.datetime(
                2015, 1, 1, tzinfo=ZoneInfo(view.timezone)).timestamp())
        dec = _StripeDecoder(streams, view.encodings, base_epoch, skips or {})
        if root.kind != 12:
            return pa.table({"_value": dec.decode(root, n)})
        if not dec.present(root.column, n).all():
            raise OrcUnsupportedError("null rows at root struct")
        return pa.table({nm: dec.decode(t, n) for nm, t in cols})

    def read_stripe(self, i: int, columns: list[str] | None = None) -> pa.Table:
        return self._decode_rows(i, columns, self.stripes[i].number_of_rows)

    def row_index(self, i: int, colid: int):
        """Parsed ROW_INDEX for one column of stripe ``i``: a list of
        (positions, (min, max, num_values, has_null)) per row group —
        positions per proto RowIndexEntry (orc.proto:180-183; the
        reference exposes the same stream via cursor.go:178-196 but never
        consumes positions).  None when the stripe carries no index."""
        raw = self._stream(i, colid, _KIND_ROW_INDEX)
        if raw is None:
            return None
        kind_of = next((t.kind for t in _iter_types(self.schema)
                        if t.column == colid), None)
        out = []
        for ebuf in _pb_fields(raw).get(1, []):
            e = _pb_fields(ebuf)
            pos = _pb_packed_uints(e, 1)
            stats = (None, None, 0, False)
            sbuf = _pb_one(e, 2)
            if sbuf is not None and kind_of is not None:
                cs = _pb_fields(sbuf)
                lo, hi = _stats_min_max(cs, kind_of)
                stats = (lo, hi, _pb_one(cs, 1, 0), bool(_pb_one(cs, 10, 0)))
            out.append((pos, stats))
        return out

    def _seek_plan(self, i: int, columns: list[str] | None, group: int):
        """(seek_bytes, skips) to start decoding stripe ``i`` at row group
        ``group``: per-stream (chunk, decompressed-offset) byte positions
        and per-stream value/bit skip counts, from each needed column's
        ROW_INDEX positions consumed in the writer's recorder order
        (present bitfield first, then the kind's streams — the order
        treewriter.go:69-90 emits them in).  Raises OrcUnsupportedError
        for kinds/encodings without seek support (nested types)."""
        view = self._stripe_view(i)
        root = self.schema
        cols = [t for _, t in self._select(columns)]
        if root.kind == 12:
            cols.append(root)  # root PRESENT (if any) must seek too
        nc = 2 if self.compression else 1  # buffered positions per stream
        seek: dict[tuple[int, int], tuple[int, int]] = {}
        skips: dict[tuple[int, int], int] = {}

        def layout(t: OrcType) -> list[tuple[int, str]]:
            k, enc = t.kind, view.encodings.get(t.column, (_ENC_DIRECT, 0))[0]
            out = []
            if (t.column, _KIND_PRESENT) in view.streams:
                out.append((_KIND_PRESENT, "bitfield"))
            if k == 12:
                if t is not root:
                    raise OrcUnsupportedError("seek into nested struct")
                return out
            if k == 0:
                out.append((_KIND_DATA, "bitfield"))
            elif k == 1:
                out.append((_KIND_DATA, "byterle"))
            elif k in (2, 3, 4, 15):
                out.append((_KIND_DATA, "intrle"))
            elif k in (5, 6):
                out.append((_KIND_DATA, "raw"))
            elif k in (7, 8, 16, 17):
                if enc in (_ENC_DICTIONARY, _ENC_DICTIONARY_V2):
                    out.append((_KIND_DATA, "intrle"))
                else:
                    out.append((_KIND_DATA, "raw"))
                    out.append((_KIND_LENGTH, "intrle"))
            elif k == 9:
                out.append((_KIND_DATA, "intrle"))
                out.append((_KIND_SECONDARY, "intrle"))
            elif k == 14:
                out.append((_KIND_DATA, "raw"))
                out.append((_KIND_SECONDARY, "intrle"))
            else:
                raise OrcUnsupportedError(f"seek into type kind {k}")
            return out

        for t in cols:
            lay = layout(t)
            if not lay:
                continue
            ri = self.row_index(i, t.column)
            if ri is None or group >= len(ri):
                raise OrcUnsupportedError("missing ROW_INDEX")
            pos, _ = ri[group]
            p = 0
            for kind, cls in lay:
                need = nc + {"raw": 0, "intrle": 1,
                             "byterle": 1, "bitfield": 2}[cls]
                if p + need > len(pos):
                    raise OrcUnsupportedError("short positions list")
                vals = pos[p: p + need]
                p += need
                byte_pos = (vals[0], vals[1]) if self.compression else \
                    (vals[0], 0)
                seek[(t.column, kind)] = byte_pos
                if cls == "intrle" or cls == "byterle":
                    skips[(t.column, kind)] = int(vals[nc])
                elif cls == "bitfield":
                    skips[(t.column, kind)] = int(vals[nc]) * 8 + int(vals[nc + 1])
        return seek, skips

    def read_rows(self, i: int, row_lo: int, row_hi: int,
                  columns: list[str] | None = None) -> pa.Table:
        """Rows [row_lo, row_hi) of stripe ``i`` (stripe-relative) via
        ROW_INDEX seek: decoding starts at the enclosing row-group
        boundary — streams are decompressed from the recorded chunk
        offset and decoded from the recorded run position — instead of at
        the stripe start.  Decodes from the stripe start when the file has
        no usable index or a selected column's type has no seek support
        (nested types)."""
        n = self.stripes[i].number_of_rows
        row_lo = min(max(0, row_lo), n)
        row_hi = max(row_lo, min(row_hi, n))
        if row_hi == row_lo:
            return self.arrow_schema(columns).empty_table()
        stride = self.row_index_stride
        g0 = row_lo // stride if stride else 0
        plan = ()
        if g0:
            try:
                plan = self._seek_plan(i, columns, g0)
            except OrcUnsupportedError:
                g0 = 0
        start = g0 * stride
        return self._decode_rows(i, columns, row_hi - start,
                                 *plan).slice(row_lo - start)

    def read(self, columns: list[str] | None = None) -> pa.Table:
        if not self.stripes:
            return self.arrow_schema(columns).empty_table()
        return pa.concat_tables(
            [self.read_stripe(i, columns) for i in range(len(self.stripes))])


def _arrow_type(t: OrcType) -> pa.DataType:
    k = t.kind
    if k == 0:
        return pa.bool_()
    if k == 1:
        return pa.int8()
    if k == 2:
        return pa.int16()
    if k == 3:
        return pa.int32()
    if k == 4:
        return pa.int64()
    if k == 5:
        return pa.float32()
    if k == 6:
        return pa.float64()
    if k in (7, 16, 17):
        return pa.string()
    if k == 8:
        return pa.binary()
    if k == 9:
        return pa.timestamp("ns")
    if k == 10:
        return pa.list_(_arrow_type(t.children[0]))
    if k == 11:
        return pa.map_(_arrow_type(t.children[0]), _arrow_type(t.children[1]))
    if k == 12:
        return pa.struct([
            pa.field(nm, _arrow_type(ch))
            for nm, ch in zip(t.field_names, t.children)])
    if k == 13:
        # trailing "_null" child carries union-level nulls (ORC PRESENT):
        # Arrow dense unions have no top-level validity, and (tag, null
        # value) must stay distinguishable from a null union slot.
        return pa.dense_union(
            [pa.field(str(i), _arrow_type(ch)) for i, ch in enumerate(t.children)]
            + [pa.field("_null", pa.null())])
    if k == 14:
        prec = t.precision or 38
        return pa.decimal128(min(prec, 38), t.scale)
    if k == 15:
        return pa.date32()
    raise OrcUnsupportedError(f"type kind {k}")


def _iter_types(t: OrcType):
    yield t
    for ch in t.children:
        yield from _iter_types(ch)


class _StripeDecoder:
    """Recursive column-tree decoder over a stripe's decompressed streams.

    A seeked read (``read_rows``) gets streams byte-sliced at row-index
    positions.  The byte half of a position lands at a run-header
    boundary inside the stream; ``skips`` carries the other half per
    (col, kind) — how far INTO that run the row group starts: values for
    RLE streams, bits (bytes*8 + bit) for bitfield streams.  Each decode
    reads skip + n entries and drops the skip prefix.  Dictionary-global
    streams (DICT_DATA and a dict column's LENGTH) have no positions, are
    loaded whole, and never appear in ``skips``; a whole-stripe read has
    no skips at all."""

    def __init__(self, streams: dict[tuple[int, int], bytes],
                 encodings: dict[int, tuple[int, int]], base_epoch: int,
                 skips: dict[tuple[int, int], int]):
        self.streams = streams
        self.encodings = encodings
        self.base_epoch = base_epoch  # epoch secs of 2015-01-01 00:00 writer-local
        self.skips = skips

    def _ints(self, col: int, kind: int, n: int, signed: bool) -> np.ndarray:
        if n == 0:
            return np.empty(0, np.int64)
        s = self.skips.get((col, kind), 0)
        buf = self.streams.get((col, kind), b"")
        enc = self.encodings.get(col, (_ENC_DIRECT, 0))[0]
        rle = rle2 if enc in (_ENC_DIRECT_V2, _ENC_DICTIONARY_V2) else rle1
        return rle.decode(buf, signed, n + s)[s:]

    def _bools(self, col: int, kind: int, n: int) -> np.ndarray:
        s = self.skips.get((col, kind), 0)
        return byterle.decode_bools(self.streams.get((col, kind), b""), n + s)[s:]

    def _bytes(self, col: int, n: int) -> np.ndarray:
        s = self.skips.get((col, _KIND_DATA), 0)
        return byterle.decode_bytes(
            self.streams.get((col, _KIND_DATA), b""), n + s)[s:]

    def present(self, col: int, n: int) -> np.ndarray:
        if (col, _KIND_PRESENT) not in self.streams or n == 0:
            return np.ones(n, dtype=bool)
        return self._bools(col, _KIND_PRESENT, n)

    def decode(self, t: OrcType, n: int) -> pa.Array:
        """Decode column subtree ``t`` with ``n`` value slots at this level."""
        present = self.present(t.column, n)
        nv = int(np.count_nonzero(present))
        valid = None if nv == n else present
        k, col = t.kind, t.column
        if k == 0:
            vals = self._bools(col, _KIND_DATA, nv)
        elif k == 1:
            vals = self._bytes(col, nv).view(np.int8)
        elif k in (2, 3, 4, 15):  # ints and dates (days)
            vals = self._ints(col, _KIND_DATA, nv, signed=True)
        elif k in (5, 6):
            vals = np.frombuffer(self.streams.get((col, _KIND_DATA), b""),
                                 dtype="<f4" if k == 5 else "<f8", count=nv)
        elif k == 9:
            secs = self._ints(col, _KIND_DATA, nv, signed=True)
            ns_part = parse_nanos(
                self._ints(col, _KIND_SECONDARY, nv, signed=False))
            abs_secs = self.base_epoch + secs
            # Java ORC quirk: pre-1970 values with nonzero nanos store the
            # *ceiling* second; readers subtract one second when
            # seconds < 0 && nanos > 0 (TreeReaderFactory semantics).
            # pyarrow's Arrow->ORC adapter instead stores trunc-division
            # seconds with NEGATIVE nanos (two's-complement in the
            # "unsigned" SECONDARY stream, arithmetic-shift-decoded by
            # parse_nanos) and no ceiling fixup — the plain sum is already
            # the instant, so the fixup must never fire on negative nanos.
            abs_secs = abs_secs - ((abs_secs < 0) & (ns_part > 0))
            vals = abs_secs * 1_000_000_000 + ns_part
        elif k in (7, 8, 16, 17):
            vals = self._strings(t, nv)
            if k == 8:
                vals = vals.view(pa.binary() if vals.type == pa.string()
                                 else pa.large_binary())
            return vals if valid is None else _scatter_generic(vals, valid)
        elif k == 14:
            return self._decimal(t, n, nv, present)
        elif k in (10, 11):
            lengths = self._ints(col, _KIND_LENGTH, nv, signed=False)
            kids = [self.decode(ch, int(lengths.sum())) for ch in t.children]
            offsets = np.zeros(nv + 1, dtype=np.int32)
            np.cumsum(lengths, out=offsets[1:])
            if k == 10:
                out = pa.ListArray.from_arrays(pa.array(offsets), kids[0])
            else:
                keys = kids[0]
                if keys.null_count:  # map keys must be non-null in Arrow
                    keys = keys.fill_null(
                        "" if pa.types.is_string(keys.type) else 0)
                out = pa.MapArray.from_arrays(pa.array(offsets), keys, kids[1])
            return out if valid is None else _scatter_generic(out, valid)
        elif k == 12:
            # ORC struct children only hold values where the struct is
            # present: scatter them out to the struct's n slots
            kids = [self.decode(ch, nv) for ch in t.children]
            if valid is not None:
                kids = [_scatter_generic(ch, valid) for ch in kids]
            return pa.StructArray.from_arrays(
                kids, names=t.field_names or [str(i) for i in range(len(kids))],
                mask=None if valid is None else pa.array(~valid))
        elif k == 13:
            return self._union(t, n, nv, present)
        else:
            raise OrcUnsupportedError(f"type kind {k}")
        return _int_array(vals, _arrow_type(t), valid)

    def _strings(self, t: OrcType, nv: int) -> pa.Array:
        """The ``nv`` present values of a string/binary column as strings."""
        enc, dict_size = self.encodings.get(t.column, (_ENC_DIRECT, 0))
        if enc in (_ENC_DICTIONARY, _ENC_DICTIONARY_V2):
            dictionary = strings_from_blob(
                self.streams.get((t.column, _KIND_DICT_DATA), b""),
                self._ints(t.column, _KIND_LENGTH, dict_size, signed=False))
            ids = self._ints(t.column, _KIND_DATA, nv, signed=False)
            return dictionary.take(pa.array(ids, type=pa.int64()))
        return strings_from_blob(
            self.streams.get((t.column, _KIND_DATA), b""),
            self._ints(t.column, _KIND_LENGTH, nv, signed=False))

    def _decimal(self, t, n, nv, present) -> pa.Array:
        buf = np.frombuffer(self.streams.get((t.column, _KIND_DATA), b""),
                            dtype=np.uint8)
        scales = self._ints(t.column, _KIND_SECONDARY, nv, signed=True)
        tscale = t.scale if (t.scale or t.precision) else (
            int(scales.max()) if nv else 0)
        prec = min(t.precision or 38, 38)
        dtype = pa.decimal128(max(prec, tscale + 1), tscale)
        # unbounded base-128 zigzag varints (decimal.go:49-72): the last
        # byte of each has its high bit clear
        ends = np.flatnonzero(buf < 0x80)[:nv]
        if len(ends) < nv:
            raise OrcFormatError(f"column {t.column}: decimal stream is truncated")
        starts = np.zeros(nv, dtype=np.int64)
        starts[1:] = ends[:-1] + 1
        nbytes = ends - starts + 1
        # up to 9 bytes hold 63 bits, so the mantissa fits an int64
        fast = nbytes <= 9
        u = np.zeros(nv, dtype=np.uint64)
        for j in range(int(nbytes[fast].max(initial=0))):
            at = fast & (nbytes > j)
            u[at] |= (buf[starts[at] + j] & 0x7F).astype(np.uint64) \
                << np.uint64(7 * j)
        mant = ((u >> np.uint64(1)).view(np.int64)
                ^ -(u & np.uint64(1)).view(np.int64))
        fast &= scales == tscale
        if dtype.precision < 19:
            fast &= np.abs(mant) < 10 ** dtype.precision
        # decimal128 words: the low int64 and its sign extension
        words = np.zeros((n, 2), dtype=np.int64)
        rows = np.flatnonzero(present)
        words[rows[fast], 0] = mant[fast]
        words[rows[fast], 1] = mant[fast] >> 63
        slow = np.flatnonzero(~fast)
        if len(slow):
            words[rows[slow]] = self._decimal_words(buf, starts[slow], ends[slow],
                                                    scales[slow], tscale, dtype)
        validity = None if nv == n else \
            pa.py_buffer(np.packbits(present, bitorder="little"))
        return pa.Array.from_buffers(dtype, n, [validity, pa.py_buffer(words)],
                                     null_count=n - nv)

    @staticmethod
    def _decimal_words(buf, starts, ends, scales, tscale, dtype) -> np.ndarray:
        """decimal128 words of the values the int64 path cannot take: wide
        mantissas, and scales other than the column's (rounded half-even)."""
        from decimal import MAX_PREC, Context, Decimal

        # the default decimal context rounds at 28 significant digits;
        # decimal128 mantissas carry up to 38 — rescale under a wide
        # context or low digits are silently lost
        ctx = Context(prec=MAX_PREC)
        vals = []
        for lo, hi, s in zip(starts.tolist(), ends.tolist(), scales.tolist()):
            u = 0
            for b in reversed(buf[lo: hi + 1].tolist()):
                u = (u << 7) | (b & 0x7F)
            m = (u >> 1) ^ -(u & 1)
            vals.append(Decimal(m).scaleb(-s, context=ctx)
                        .scaleb(tscale, context=ctx)
                        .to_integral_value().scaleb(-tscale, context=ctx))
        # pa.array checks each value against the type's precision
        arr = pa.array(vals, type=dtype)
        return np.frombuffer(arr.buffers()[1], dtype=np.int64).reshape(-1, 2)

    def _union(self, t, n, nv, present) -> pa.Array:
        tags = self._bytes(t.column, nv)
        children = [self.decode(ch, int((tags == i).sum()))
                    for i, ch in enumerate(t.children)]
        # dedicated "_null" child carries union-level nulls (see _arrow_type)
        null_code = len(t.children)
        full_tags = np.full(n, null_code, dtype=np.int8)
        full_tags[present] = tags.view(np.int8)
        children.append(pa.nulls(n - nv))
        return pa.UnionArray.from_dense(
            pa.array(full_tags, type=pa.int8()),
            pa.array(_union_offsets(full_tags, range(null_code + 1))),
            children,
            field_names=[str(i) for i in range(len(t.children))] + ["_null"])


# ---------------------------------------------------------------------------
# Ray Data API

# above this many files, read_orc's tail-parse planning runs as its own
# distributed map_batches stage instead of a serial driver loop
_PLAN_INLINE_MAX = 16


def _read_stripe_pruned(fl: ORCFile, i: int, want, predicate) -> pa.Table:
    """Row-group-level pushdown inside one stripe-decode task: prune row
    groups whose ROW_INDEX statistics exclude [lo, hi], then decode only
    the surviving contiguous span via ``read_rows`` (seeked at the first
    candidate group's recorded positions).  Exact filtering still happens
    in the caller — this only bounds what gets decoded."""
    pcol, lo, hi = predicate
    t = fl._select([pcol])[0][1]
    stride = fl.row_index_stride
    nrows = fl.stripes[i].number_of_rows
    ri = fl.row_index(i, t.column) if stride else None
    if not ri or len(ri) < -(-nrows // stride):
        # no index, or a short one (fewer entries than row groups): don't
        # trust it
        return fl.read_stripe(i, want)
    tz = fl.writer_timezone(i)
    keep = [g for g, (_, (gmin, gmax, _, _)) in enumerate(ri)
            if _may_match(t.kind, gmin, gmax, lo, hi, tz)]
    if not keep:
        empty = fl.arrow_schema(want).empty_table()
        return empty.select(want) if want is not None else empty
    row_lo = keep[0] * stride
    row_hi = min(nrows, (keep[-1] + 1) * stride)
    if row_lo == 0 and row_hi == nrows:
        return fl.read_stripe(i, want)
    return fl.read_rows(i, row_lo, row_hi, want)


def read_orc(paths: str | list[str], columns: list[str] | None = None,
             predicate: tuple | None = None):
    """Read Apache ORC file(s) as a ``ray.data.Dataset``, one decode task
    per stripe.  Tail parse (metadata only) runs on the driver for small
    file lists and is itself distributed above ``_PLAN_INLINE_MAX`` paths
    — at lake scale (100k+ files) a serial driver loop over tails would
    be the bottleneck, so planning becomes a ``map_batches`` stage that
    streams (path, stripe) work items straight into the decode stage.

    ``predicate=(column, lo, hi)`` keeps rows with lo <= column <= hi:
    stripes whose file-tail statistics prove an empty intersection are
    skipped without reading a single payload byte (the foreign-file
    analogue of ``decode_dataset_filtered``'s manifest-stats pushdown);
    surviving stripes filter exactly, vectorized.  Point predicates
    (lo == hi) additionally probe the stripes' BLOOM_FILTER index streams
    when the writer attached them — an equality lookup then reads only a
    few KB of index per non-matching stripe (the foreign-file analogue of
    the native ``point_lookup``).

    An empty ``paths`` raises ValueError, and so does a column (projected
    or in the predicate) that a file lacks, naming the file: on the
    driver, before any decode task runs. Above ``_PLAN_INLINE_MAX`` paths
    that means the planning stage runs here, in ``read_orc``."""
    import ray
    import ray.data

    if isinstance(paths, str):
        paths = [paths]
    if not paths:
        raise ValueError("read_orc: paths is empty")
    pcol = predicate[0] if predicate else None
    want = columns
    if predicate and columns is not None and pcol not in columns:
        want = list(columns) + [pcol]
    need = list(want or []) + ([pcol] if predicate else [])
    first = ORCFile(paths[0])
    first._select(need)  # ValueError on the driver for an unknown column

    def _filter_exact(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        _, lo, hi = predicate
        mask = pc.and_(pc.greater_equal(t.column(pcol), lo),
                       pc.less_equal(t.column(pcol), hi))
        t = t.filter(mask)
        return t.select(columns) if columns is not None else t

    _SPEC_INT_COLS = ("stripe", "offset", "index_length", "data_length",
                      "footer_length", "number_of_rows", "compression",
                      "compression_block", "row_index_stride")

    def _spec_table(items: list[dict]) -> pa.Table:
        cols = {"path": pa.array([it["path"] for it in items], pa.string())}
        for c in _SPEC_INT_COLS:
            cols[c] = pa.array([it[c] for it in items], pa.int64())
        cols["types"] = pa.array([it["types"] for it in items], pa.binary())
        # a planning task's ValueError, raised again on the driver
        cols["error"] = pa.array([it.get("error") for it in items], pa.string())
        return pa.table(cols)

    def _plan_one(f: ORCFile) -> list[dict]:
        """Tail-only planning for one file: SELF-CONTAINED stripe work
        items (stripe extent + compression + serialized schema) after
        stats/bloom pruning — decode tasks seek straight to their stripe,
        never re-parsing the file tail (one tail read per file total).
        stripe == -1 is the typed-empty sentinel (a stripeless file, or
        schema anchoring when everything was pruned)."""
        f._select(need)
        # timestamp point predicates probe too: bloom_might_contain
        # converts datetime-likes to the UTC-ms floor and only trusts
        # the pinned utf8 lineage (never skips otherwise)
        point = predicate is not None and predicate[1] == predicate[2]
        items: list[dict] = []
        for i in range(len(f.stripes)):
            if predicate and not f._stripe_may_match(i, *predicate):
                continue  # stats prove no row can match
            if point and not f.bloom_might_contain(i, pcol, predicate[1]):
                continue  # bloom filters prove no row can match
            items.append(f.stripe_spec(i))
        return items

    def _decode(batch: pa.Table) -> pa.Table:
        tables = []
        for row in batch.to_pylist():
            # self-contained spec: NO tail re-parse per stripe task
            fl = ORCFile.from_stripe_spec(row)
            if row["stripe"] < 0:  # typed-empty sentinel
                t = fl.arrow_schema().empty_table()
                if want is not None:
                    t = t.select(want)
            elif predicate is not None:
                t = _read_stripe_pruned(fl, 0, want, predicate)
            else:
                t = fl.read_stripe(0, want)
                if want is not None:
                    # read_stripe returns schema order; the sentinel block
                    # is in user order — normalize (zero-copy) so every
                    # block of the Dataset has identical column order
                    t = t.select(want)
            tables.append(_filter_exact(t) if predicate else t)
        return pa.concat_tables(tables)

    if len(paths) > _PLAN_INLINE_MAX:
        # distributed planning; one sentinel item anchors the output
        # schema even when pruning removes every stripe
        def _plan_batch(b: pa.Table) -> pa.Table:
            items: list[dict] = []
            for p in b.column("path").to_pylist():
                f = ORCFile(p)
                try:
                    items.extend(_plan_one(f))
                except ValueError as e:
                    items.append({**f.stripe_spec(-1), "error": str(e)})
            return _spec_table(items)
        plan_src = ray.data.from_arrow(
            pa.table({"path": pa.array(paths, pa.string())}))
        planned = plan_src.map_batches(_plan_batch, batch_format="pyarrow",
                                       batch_size=32).materialize()
        # a file that lacks a column fails here, before any decode task
        bad = planned.filter(expr="is_valid(error)").take(1)
        if bad:
            raise ValueError(bad[0]["error"])
        sentinel = ray.data.from_arrow(_spec_table([first.stripe_spec(-1)]))
        items = planned.union(sentinel)
    else:
        work = _plan_one(first)
        for p in paths[1:]:
            work.extend(_plan_one(ORCFile(p)))
        if not work:  # every stripe pruned (or all files stripeless)
            work = [first.stripe_spec(-1)]
        items = ray.data.from_arrow(_spec_table(work))

    return items.map_batches(_decode, batch_format="pyarrow", batch_size=1)
