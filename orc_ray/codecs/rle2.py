"""ORC RLEv2 integer codec (short-repeat / direct / patched-base / delta).

From-scratch numpy re-creation of the reference's RLEv2 writer/reader
(/root/reference/runlengthintegerwriterv2.go:9-788,
/root/reference/runlengthintegerreaderv2.go:36-426). The reference is a
per-value state machine; here the same segmentation is derived up-front
from the whole array in array passes (``_segment_bounds``), every
variable scope goes through one vectorized determineEncoding pass
(``_encode_var_ragged``), and every run's header and bit payload is
built per width group, not per run. Output is byte-identical to the
reference writer (validated against its test vectors in
tests/test_rle2.py).

Reading has one run-header walk (``_scan_runs``): ``decode`` unpacks the
runs it lists, and ``run_index`` turns its run counts into seek points.
Bit payloads unpack through ``bitpack.unpack_rows``.

Segmentation semantics re-created (runlengthintegerwriterv2.go:87-212):
- >=3 consecutive equal values form a "fixed run"; when the 3rd equal value
  arrives inside a variable run, the preceding variable prefix is flushed
  first (the tail carve-out, lines 121-141).
- fixed runs of 3..10 -> SHORT_REPEAT; 11..512 -> DELTA with fixed delta 0;
  runs longer than 512 flush in 512-value chunks, a 1-2 value remainder
  joins the following variable run.
- variable runs flush at 512 values; encoding chosen by determineEncoding
  (lines 265-402): fixed-delta / monotonic -> DELTA, 90th/100th percentile
  zigzag width gap > 1 -> PATCHED_BASE (patch budget ~5%, lines 415-517)
  unless the scope's |min| needs more than 56 bits (ORC's
  BASE_VALUE_LIMIT), else DIRECT at the aligned 100th-percentile width.
"""

from __future__ import annotations

import math

import numpy as np

from .bitpack import (
    DECODE_BIT_WIDTH,
    _CLOSEST_ALIGNED,
    _CLOSEST_FIXED,
    _ENCODE_BW,
    bit_length_u64,
    decode_bit_width,
    get_closest_fixed_bits,
    pack_bits,
    unpack_bits,
    unpack_rows,
)

# plain-list width table for the run-header walk (list index beats a numpy
# scalar index ~10x in a hot Python loop)
_DBW_LIST = [int(w) for w in DECODE_BIT_WIDTH]
# per width code, the largest value representable at that width (uint64):
# searchsorted(_WIDTH_UPPER, x) == encodeBitWidth(findClosestNumBits(x))
_WIDTH_UPPER = np.array(
    [(1 << int(w)) - 1 if w < 64 else (1 << 64) - 1 for w in DECODE_BIT_WIDTH],
    dtype=np.uint64,
)
_WIDTH_UPPER32 = np.array(
    [min((1 << int(w)) - 1, (1 << 32) - 1) for w in DECODE_BIT_WIDTH],
    dtype=np.uint32,
)
from .varint import (
    zigzag_decode,
    zigzag_encode,
    zigzag_encode32,
)

_U64 = np.uint64
_I64 = np.int64

MIN_REPEAT = 3
MAX_SHORT_REPEAT = 10
MAX_SCOPE = 512

# 2-bit encoding tags (runlengthintegerreaderv2.go:29-34)
SHORT_REPEAT = 0
DIRECT = 1
PATCHED_BASE = 2
DELTA = 3


def _u64(v: int) -> int:
    return v & 0xFFFFFFFFFFFFFFFF


def _as_i64(v: int) -> int:
    v = _u64(v)
    return v - (1 << 64) if v >> 63 else v


# ---------------------------------------------------------------------------
# encode
# ---------------------------------------------------------------------------

# a run header is one row of this many bytes: 4 single bytes, a big-endian
# value of up to 8 bytes (SHORT_REPEAT value, PATCHED_BASE base) and two
# varints of up to 10 bytes (DELTA first value and delta)
_BE, _V1, _V2, _HEAD_W = 4, 12, 22, 32
# PATCHED_BASE stores the base in at most 8 bytes, sign bit included; a
# scope with |min| at or above this goes DIRECT (ORC's BASE_VALUE_LIMIT)
_BASE_LIMIT = _U64(1 << 56)


def encode(values: np.ndarray, signed: bool) -> bytes:
    """Encode an int64 array into an RLEv2 byte stream.

    ``_segment_bounds`` cuts the stream into fixed runs and variable
    scopes, and ``_encode_var_ragged`` classifies every variable scope at
    once. Every run's header is a row of one byte matrix and every payload
    is bit-packed in per-width groups, so encoding takes array passes
    over values and runs; Python loops only over distinct widths and the
    log2(runs) steps of ``_segment_bounds``.

    int32 inputs whose value range fits 32-bit delta arithmetic stay in
    32-bit end-to-end (identical output bytes, half the memory traffic —
    the dominant cost for token streams under many concurrent workers)."""
    values = np.asarray(values)
    if values.dtype == np.int32 and len(values):
        vmn = int(values.min())
        vmx = int(values.max())
        if (vmx - vmn) <= 2**31 - 1 and (signed or vmn >= 0):
            v = np.ascontiguousarray(values)
        else:
            v = np.ascontiguousarray(values, dtype=_I64)
    else:
        v = np.ascontiguousarray(values, dtype=_I64)
    kind, starts, ends = _segment_bounds(v)
    out = _RunWriter(len(kind))
    # fixed runs: SHORT_REPEAT for 3..10 values, DELTA with fixed delta 0
    # otherwise (writer Flush/variable-branch paths)
    fixed = np.flatnonzero(kind == 0)
    if len(fixed):
        val = v[starts[fixed]].astype(_I64)
        length = ends[fixed] - starts[fixed]
        sr = length <= MAX_SHORT_REPEAT
        rep = zigzag_encode(val[sr]) if signed else val[sr].view(_U64)
        nbytes = np.maximum((bit_length_u64(rep) + 7) // 8, 1)
        out.byte(fixed[sr], 0, (SHORT_REPEAT << 6) | ((nbytes - 1) << 3)
                 | (length[sr] - MIN_REPEAT))
        out.big_endian(fixed[sr], rep, nbytes)
        out.delta(fixed[~sr], 0, length[~sr], val[~sr],
                  np.zeros_like(val[~sr]), signed)
    var = np.flatnonzero(kind == 1)
    if len(var):
        _encode_var_ragged(v, starts[var], ends[var], signed, out, var)
    return out.bytes()


class _RunWriter:
    """Output of ``n`` runs in stream order: each run's header bytes are
    the marked cells of its row of a byte matrix, followed by up to two
    bit-packed payload ranges (data, then PATCHED_BASE patch entries)."""

    def __init__(self, n: int):
        self.head = np.zeros((n, _HEAD_W), dtype=np.uint8)
        self.used = np.zeros((n, _HEAD_W), dtype=bool)
        # (slot, run) -> (byte start, byte length) in the packed buffers
        self.payload = np.zeros((2, n, 2), dtype=np.int64)
        self.packed: list[bytes] = []
        self.size = 0

    def byte(self, rows, col: int, value) -> None:
        self.head[rows, col] = value
        self.used[rows, col] = True

    def start(self, rows, tag: int, code, length) -> None:
        """The two leading bytes: tag, width code and run length - 1."""
        run = length - 1
        self.byte(rows, 0, (tag << 6) | (code << 1) | (run >> 8))
        self.byte(rows, 1, run & 0xFF)

    def big_endian(self, rows, x: np.ndarray, nbytes: np.ndarray) -> None:
        self.head[rows, _BE:_V1] = x.astype(">u8").view(np.uint8).reshape(-1, 8)
        self.used[rows, _BE:_V1] = np.arange(8) >= 8 - nbytes[:, None]

    def varint(self, rows, col: int, x: np.ndarray) -> None:
        """Unsigned LEB128 of each uint64 in ``x``: 1-10 bytes."""
        groups = x[:, None] >> (7 * np.arange(10)).astype(_U64)
        more = groups[:, 1:] != 0
        self.head[rows, col: col + 10] = groups & _U64(0x7F)
        self.head[rows, col: col + 9] |= np.uint8(0x80) * more
        self.used[rows, col] = True
        self.used[rows, col + 1: col + 10] = more

    def delta(self, rows, code, length, first, delta, signed: bool) -> None:
        """DELTA header: first value and first delta as varints."""
        if not len(rows):
            return
        self.start(rows, DELTA, code, length)
        self.varint(rows, _V1, zigzag_encode(first) if signed
                    else first.view(_U64))
        self.varint(rows, _V2, zigzag_encode(delta))

    def pack(self, slot: int, rows, values, starts, lens, widths) -> None:
        """Bit-pack each run's ``values[start: start + len]`` at its width,
        byte-aligned per run, one ``pack_bits`` call per distinct width."""
        for fb in np.unique(widths).tolist():
            sel = widths == fb
            packed, at, nbytes = _group_pack(values, starts[sel], lens[sel], fb)
            self.payload[slot, rows[sel]] = np.stack(
                [self.size + at, nbytes], axis=1)
            self.packed.append(packed)
            self.size += len(packed)

    def bytes(self) -> bytes:
        hlen = self.used.sum(axis=1)
        hstart = self.size + np.cumsum(hlen) - hlen
        src = np.concatenate([np.frombuffer(b"".join(self.packed), np.uint8),
                              self.head[self.used]])
        starts = np.stack([hstart, self.payload[0, :, 0],
                           self.payload[1, :, 0]], axis=1).ravel()
        lens = np.stack([hlen, self.payload[0, :, 1],
                         self.payload[1, :, 1]], axis=1).ravel()
        return src[_ragged_arange(starts, lens)].tobytes()


def _encode_var_ragged(v, starts, ends, signed: bool, out: _RunWriter,
                       rows: np.ndarray) -> None:
    """Vectorized determineEncoding + emit for k >= 1 variable scopes of
    any sizes, written to ``out`` as its runs ``rows``. Stats follow
    runlengthintegerwriterv2.go:265-402 exactly."""
    k = len(starts)
    narrow = v.dtype == np.int32
    lengths = ends - starts
    total = int(lengths.sum())
    off = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(lengths, out=off[1:])
    seg_of = np.repeat(np.arange(k, dtype=np.int32), lengths)
    # scopes that tile the whole array need no gather
    V = v if total == len(v) else v[_ragged_arange(starts, lengths)]
    if narrow:
        ZZ = zigzag_encode32(V) if signed else V.view(np.uint32)
    else:
        ZZ = zigzag_encode(V) if signed else V.view(_U64)

    # per-scope percentile widths from ragged histograms; width code found
    # by one searchsorted against the 32 encodable-width upper bounds
    # (findClosestNumBits + encodeBitWidth fused, no float temps); key math
    # kept in int32 to halve the traffic of these full-length temporaries
    codes = np.searchsorted(
        _WIDTH_UPPER32 if narrow else _WIDTH_UPPER, ZZ, side="left"
    ).astype(np.int32, copy=False)
    hist = np.bincount(seg_of * np.int32(32) + codes, minlength=k * 32).reshape(k, 32)
    zz100 = _pct_width(hist, lengths, 1.0)
    zz90 = _pct_width(hist, lengths, 0.9)

    # delta stats: boundary gaps neutralized per reduction
    is_first = np.zeros(total, dtype=bool)
    is_first[off[:-1][lengths > 0]] = True
    D = np.empty(total, dtype=V.dtype)
    D[0] = 0
    np.subtract(V[1:], V[:-1], out=D[1:])
    # initial delta per scope (scopes of length 1 get 0)
    has2 = lengths >= 2
    initial = np.zeros(k, dtype=V.dtype)
    first_pos = off[:-1]
    initial[has2] = D[first_pos[has2] + 1]
    # is_fixed: every in-scope delta equals initial (a constant scope too)
    eq_init = D == initial[seg_of]
    eq_init[is_first] = True
    is_fixed = np.logical_and.reduceat(eq_init, off[:-1])
    # monotonicity from delta signs (valid wherever safe-subtract holds;
    # unsafe scopes go DIRECT regardless, matching the reference's ordering)
    geq = D >= 0
    leq = D <= 0
    geq[is_first] = True
    leq[is_first] = True
    is_inc = np.logical_and.reduceat(geq, off[:-1])
    is_dec = np.logical_and.reduceat(leq, off[:-1])
    vmin = np.minimum.reduceat(V, off[:-1]).astype(_I64)
    if narrow:
        # the 32-bit path is only entered when the global range fits int32
        # delta arithmetic, so int64 subtraction can never overflow
        safe = np.ones(k, dtype=bool)
    else:
        vmax = np.maximum.reduceat(V, off[:-1])
        diff = vmax - vmin
        safe = ((vmax ^ vmin) >= 0) | ((vmax ^ diff) >= 0)
    short = lengths <= MIN_REPEAT
    mono = (initial != 0) & (is_inc | is_dec)

    direct = short | ~safe | (~is_fixed & ~mono & (zz100 - zz90 <= 1))
    mono &= ~direct & ~is_fixed
    first = V[off[:-1]].astype(_I64)
    initial = initial.astype(_I64)
    # constant and fixed-delta scopes
    fd = ~direct & is_fixed
    out.delta(rows[fd], 0, lengths[fd], first[fd], initial[fd], signed)
    # PATCHED_BASE candidates, or DIRECT when the 95th/100th percentile
    # base-reduced widths tie (or the base is too wide to store)
    cand = np.flatnonzero(~direct & ~mono & ~is_fixed)
    if len(cand):
        direct[cand[_patched_base(V, off[cand], lengths[cand], vmin[cand],
                                  out, rows[cand])]] = True

    # DIRECT scopes at the aligned 100th-percentile zigzag width
    d = np.flatnonzero(direct)
    fb = _CLOSEST_ALIGNED[zz100[d]]
    out.start(rows[d], DIRECT, _ENCODE_BW[fb], lengths[d])
    out.pack(0, rows[d], ZZ, off[d], lengths[d], fb)

    # monotonic DELTA scopes: the absolute deltas after the first
    m = np.flatnonzero(mono)
    if len(m):
        absD = np.abs(D)
        tail_starts = off[m] + 2
        tail_lens = lengths[m] - 2
        tail_max = _ragged_max(absD, tail_starts, tail_lens)
        dmax = np.maximum(initial[m], tail_max.astype(_I64))
        fb = _CLOSEST_ALIGNED[DECODE_BIT_WIDTH[np.searchsorted(
            _WIDTH_UPPER, dmax.view(_U64))]]
        fb = np.where(fb == 1, 2, fb)
        out.delta(rows[m], _ENCODE_BW[fb], lengths[m], first[m], initial[m],
                  signed)
        out.pack(0, rows[m], absD, tail_starts, tail_lens, fb)


def _patched_base(V, starts, lengths, vmin, out: _RunWriter,
                  rows: np.ndarray) -> np.ndarray:
    """preparePatchedBlob + writePatchedBaseValues
    (runlengthintegerwriterv2.go:415-517, 609-699) for every candidate
    scope at once. Writes the PATCHED_BASE runs and returns the mask of
    candidates that go DIRECT instead."""
    k = len(starts)
    seg = np.repeat(np.arange(k), lengths)
    BR = (V[_ragged_arange(starts, lengths)].astype(_I64)
          - vmin[seg]).view(_U64)
    hist = np.bincount(seg * 32 + np.searchsorted(_WIDTH_UPPER, BR),
                       minlength=k * 32).reshape(k, 32)
    br95 = _pct_width(hist, lengths, 0.95)
    br100 = _pct_width(hist, lengths, 1.0)
    mag = np.abs(vmin).view(_U64)
    go = (br100 != br95) & (mag < _BASE_LIMIT)
    keep = go[seg]
    BR, seg = BR[keep], (np.cumsum(go) - 1)[seg[keep]]
    lengths, vmin, mag, rows = lengths[go], vmin[go], mag[go], rows[go]
    br95, br100 = br95[go], br100[go]
    k = len(rows)
    if k == 0:
        return ~go
    off = np.cumsum(lengths) - lengths

    # a 64-bit patch width is cut to 56 over an 8-bit reduced width
    pw = _CLOSEST_FIXED[br100 - br95]
    wide = pw == 64
    pw[wide] = 56
    fb = np.where(wide, 8, br95)
    fbv = fb[seg].astype(_U64)
    over = np.flatnonzero(BR >> fbv)  # at least one per scope
    oseg = seg[over]
    patch = BR[over] >> fbv[over]
    BR &= (_U64(1) << fbv) - _U64(1)
    # gaps are relative to the previous patched index (first one absolute);
    # gaps over 255 take 255-gap, 0-patch escape entries before their patch
    gap = over - off[oseg]
    later = np.flatnonzero(oseg[1:] == oseg[:-1]) + 1
    gap[later] -= over[later - 1] - off[oseg[later]]
    npatch = np.bincount(oseg, minlength=k)
    pfirst = np.cumsum(npatch) - npatch
    pgw = np.minimum(_CLOSEST_FIXED[bit_length_u64(
        np.maximum.reduceat(gap, pfirst).view(_U64))], 8)
    esc = np.where(gap > 255, (gap - 1) // 255, 0)
    entries = esc + 1
    pwv = pw[oseg].astype(_U64)
    gvp = np.repeat(_U64(255) << pwv, entries)
    gvp[np.cumsum(entries) - 1] = ((gap - 255 * esc).astype(_U64) << pwv) | patch
    n_gvp = np.add.reduceat(entries, pfirst)

    nbytes = (_CLOSEST_FIXED[bit_length_u64(mag)] + 8) // 8
    base = mag | ((vmin < 0).astype(_U64) << (8 * nbytes - 1).astype(_U64))
    out.start(rows, PATCHED_BASE, _ENCODE_BW[fb], lengths)
    out.byte(rows, 2, ((nbytes - 1) << 5) | _ENCODE_BW[pw])
    out.byte(rows, 3, ((pgw - 1) << 5) | n_gvp)
    out.big_endian(rows, base, nbytes)
    out.pack(0, rows, BR, off, lengths, fb)
    out.pack(1, rows, gvp, np.cumsum(n_gvp) - n_gvp, n_gvp,
             _CLOSEST_FIXED[pgw + pw])
    return ~go


def _ragged_arange(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The ranges ``starts[i] .. starts[i] + lens[i]``, concatenated."""
    ends = np.cumsum(lens)
    return (np.repeat(starts - (ends - lens), lens)
            + np.arange(int(ends[-1]) if len(ends) else 0))


def _group_pack(values: np.ndarray, starts: np.ndarray, lens: np.ndarray,
                fb: int) -> tuple[bytes, np.ndarray, np.ndarray]:
    """Pack many ragged scopes at the same width in ONE pack_bits call.
    Each scope is zero-padded to a whole number of bytes' worth of values,
    so it starts on a byte and its last byte ends in zero bits, as when
    packed alone. Returns (packed bytes, per-scope byte start, per-scope
    byte length)."""
    pl = lens + (-lens) % (8 // math.gcd(fb, 8))
    doff = np.cumsum(pl) - pl
    out = np.zeros(int(pl.sum()), dtype=values.dtype)
    out[_ragged_arange(doff, lens)] = values[_ragged_arange(starts, lens)]
    if out.dtype == np.int32:
        out = out.view(np.uint32)
    return pack_bits(out, fb), doff * fb // 8, (lens * fb + 7) // 8


def _ragged_max(values: np.ndarray, starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Per-scope max over non-contiguous ranges via paired reduceat."""
    k = len(starts)
    idx = np.empty(2 * k, dtype=np.int64)
    idx[0::2] = starts
    idx[1::2] = starts + lens
    if idx[-1] >= len(values):
        res = np.maximum.reduceat(values, idx[:-1])
    else:
        res = np.maximum.reduceat(values, idx)
    return res[0::2]


def _pct_width(hist: np.ndarray, lengths: np.ndarray, p: float) -> np.ndarray:
    """Per-scope percentileBits (utils.go:233-260) from (k, 32) width-code
    histograms: the width at which more than (1 - p) of the values,
    counted from the widest, are reached."""
    cum = np.cumsum(hist[:, ::-1], axis=1)
    j = np.argmax(cum > lengths.astype(np.float64)[:, None] * (1.0 - p), axis=1)
    return DECODE_BIT_WIDTH[31 - j]


def _swallowed(d: np.ndarray) -> np.ndarray:
    """Values of a fixed run taken by the 512-value cuts of the ``d``
    variable values before it: a cut that starts at most 509 values
    before the run stops at it (the run's 3rd value carves it out), one
    that starts 510 or 511 values before it runs 1-2 values in."""
    return np.maximum((d + 2) // MAX_SCOPE * MAX_SCOPE - d, 0)


def _segment_bounds(v: np.ndarray):
    """(kind, start, end) arrays of the runs the reference state machine
    flushes, kind 0 = fixed run and 1 = variable scope, in array passes.

    Between maximal runs of >= MIN_REPEAT equal values ("big" runs), the
    variable values are cut into 512-value scopes from their start; the
    last cut may swallow 1-2 values of the next big run. The rest of that
    run is cut into 512-value fixed runs, and a 1-2 value leftover opens
    the next variable span. So run j's leftover is a function of run
    j-1's, tabulated for leftovers 0-2 and prefix-composed by doubling."""
    n = len(v)
    bounds = np.concatenate(([0], np.flatnonzero(v[1:] != v[:-1]) + 1, [n]))
    big = np.diff(bounds) >= MIN_REPEAT
    t, u = bounds[:-1][big], bounds[1:][big]
    gap = t - np.concatenate(([0], u[:-1]))
    # left[j, x]: what run j leaves over when run j - 1 left x
    rest = (u - t)[:, None] - _swallowed(gap[:, None] + np.arange(3))
    left = np.where(rest % MAX_SCOPE < MIN_REPEAT, rest % MAX_SCOPE, 0)
    step = 1
    while step < len(left):
        left[step:] = np.take_along_axis(left[step:], left[:-step], axis=1)
        step *= 2
    # left[:, 0] is now what each run leaves over. Boundaries: variable span start a, fixed run start, ..., a, n
    a = np.concatenate(([0], u - left[:, 0]))
    bnd = np.empty(2 * len(a), dtype=np.int64)
    bnd[0::2] = a
    bnd[1::2] = np.append(t + _swallowed(t - a[:-1]), n)
    rlen = np.diff(bnd)
    nchunk = (rlen + MAX_SCOPE - 1) // MAX_SCOPE
    rid = np.repeat(np.arange(len(rlen)), nchunk)
    starts = bnd[rid] + MAX_SCOPE * _ragged_arange(np.zeros_like(nchunk), nchunk)
    return 1 - rid % 2, starts, np.minimum(starts + MAX_SCOPE, bnd[rid + 1])


def _segments(v: np.ndarray):
    """``_segment_bounds`` as (kind, start, end) tuples."""
    return zip(*(a.tolist() for a in _segment_bounds(v)))


# ---------------------------------------------------------------------------
# decode
# ---------------------------------------------------------------------------

def run_index(buf: bytes, stride: int) -> list[tuple[int, int]]:
    """Seek-point index for an RLEv2 stream: for every `stride` values,
    the (value position, byte offset) of the run containing that stride
    boundary. Mirrors ORC's ROW_INDEX positions (positionrecorder.go:1-12,
    writer.go:337-384): decode can start at any entry's byte offset and
    skip (boundary - value position) values. Header walk only — O(#runs),
    never unpacks payloads."""
    _, pos, cnt, _, _, _ = _scan_runs(buf)
    starts = np.zeros(len(cnt) + 1, dtype=np.int64)
    np.cumsum(cnt, out=starts[1:])
    bounds = np.arange(0, starts[-1], stride, dtype=np.int64)
    r = np.searchsorted(starts, bounds, side="right") - 1
    return list(zip(starts[r].tolist(), pos[r].tolist()))


def _scan_runs(buf: bytes, n: int | None = None):
    """Walk the run headers of an RLEv2 stream, stopping after ``n`` values
    when given. Returns per-run int64 arrays (tag, byte position, count,
    width) — width is the bit width, 0 for a fixed-delta DELTA run, and
    the value's byte count for SHORT_REPEAT — plus, per DELTA run in
    order, the byte positions of its two header varints' terminators.
    Varints are <= 10 bytes: a tight byte scan for the terminators beats
    parsing them here; ``decode`` batch-parses them."""
    size = len(buf)
    # flat per-field lists (cheap scalar appends; np.array over an int
    # list is far faster than over a tuple list)
    tags = []
    positions = []
    counts = []
    widths = []
    t_add = tags.append; p_add = positions.append
    c_add = counts.append; w_add = widths.append
    dbw = _DBW_LIST
    delta_e1 = []; delta_e2 = []
    d1_add = delta_e1.append; d2_add = delta_e2.append
    pos = 0
    total = 0
    while pos < size and (n is None or total < n):
        first = buf[pos]
        tag = first >> 6
        if tag == DELTA:
            fbo = (first >> 1) & 0x1F
            fb = dbw[fbo] if fbo != 0 else 0
            cnt = ((first & 0x1) << 8 | buf[pos + 1]) + 1
            e1 = pos + 2
            while buf[e1] >= 0x80:
                e1 += 1
            e2 = e1 + 1
            while buf[e2] >= 0x80:
                e2 += 1
            d1_add(e1); d2_add(e2)
            t_add(tag); p_add(pos); c_add(cnt); w_add(fb)
            pos = e2 + 1
            if fb != 0:
                pos += ((cnt - 2) * fb + 7) // 8
        elif tag == DIRECT:
            fb = dbw[(first >> 1) & 0x1F]
            cnt = ((first & 0x1) << 8 | buf[pos + 1]) + 1
            t_add(tag); p_add(pos); c_add(cnt); w_add(fb)
            pos += 2 + (cnt * fb + 7) // 8
        elif tag == SHORT_REPEAT:
            sz = ((first >> 3) & 0x7) + 1
            cnt = (first & 0x7) + MIN_REPEAT
            t_add(tag); p_add(pos); c_add(cnt); w_add(sz)
            pos += 1 + sz
        else:  # PATCHED_BASE
            fb = dbw[(first >> 1) & 0x1F]
            cnt = ((first & 0x1) << 8 | buf[pos + 1]) + 1
            third = buf[pos + 2]
            base_bytes = ((third >> 5) & 0x7) + 1
            patch_width = dbw[third & 0x1F]
            fourth = buf[pos + 3]
            patch_gap_width = ((fourth >> 5) & 0x7) + 1
            pll = fourth & 0x1F
            gvp_w = get_closest_fixed_bits(patch_width + patch_gap_width)
            t_add(tag); p_add(pos); c_add(cnt); w_add(fb)
            pos += 4 + base_bytes + (cnt * fb + 7) // 8 + (pll * gvp_w + 7) // 8
        total += cnt
    return tuple(np.array(a, dtype=np.int64)
                 for a in (tags, positions, counts, widths, delta_e1, delta_e2))


def _batch_vulongs(raw: np.ndarray, starts: np.ndarray,
                   ends: np.ndarray) -> np.ndarray:
    """Vectorized LEB128 decode of k varints given their [start, end] byte
    ranges (``end`` = the terminator byte, < 0x80). One gather + a 7-bit
    Horner combine instead of k Python byte loops."""
    k = len(starts)
    if k == 0:
        return np.empty(0, dtype=_U64)
    L = (ends - starts + 1).astype(np.int64)
    width = int(L.max())
    pad = np.zeros(len(raw) + width, dtype=np.uint8)
    pad[: len(raw)] = raw
    mat = pad[starts[:, None] + np.arange(width)]
    mask = np.arange(width)[None, :] < L[:, None]
    sep = (mat & 0x7F).astype(_U64) * mask
    val = np.zeros(k, dtype=_U64)
    for j in range(width - 1, -1, -1):
        val = (val << _U64(7)) | sep[:, j]
    return val


def decode(buf: bytes, signed: bool, n: int | None = None,
           out_dtype=np.int64) -> np.ndarray:
    """Decode an RLEv2 byte stream to an integer array (``out_dtype`` may be
    int32 when the caller knows values fit — halves the output traffic for
    token streams). Stops after ``n`` values when given, else consumes the
    whole buffer.

    One header walk (``_scan_runs``, shared with ``run_index``) collects
    every run's tag, position, count and width. DIRECT and DELTA runs then
    decode in groups of equal (width, count), one ``unpack_rows`` call per
    group, with the DELTA header varints batch-parsed by
    ``_batch_vulongs``; SHORT_REPEAT runs decode in one batch per value
    width; only the rare PATCHED_BASE runs decode one by one."""
    raw = np.frombuffer(buf, dtype=np.uint8)
    tags, pos_a, cnt_a, w_a, e1, e2 = _scan_runs(buf, n)
    starts = np.zeros(len(tags) + 1, dtype=np.int64)
    np.add.accumulate(cnt_a, out=starts[1:])
    total = int(starts[-1])
    out = np.empty(total, dtype=out_dtype)
    # a tag the stream does not use costs one bincount slot, no array pass
    present = np.bincount(tags, minlength=4)
    # DIRECT: one unpack per (width, count) group
    if present[DIRECT]:
        direct_idx = (tags == DIRECT).nonzero()[0]
        for w, c, sel in _groups(w_a[direct_idx], cnt_a[direct_idx]):
            grp = direct_idx[sel]
            nb = (c * w + 7) // 8
            vals = unpack_rows(raw[pos_a[grp][:, None] + 2 + np.arange(nb)], w, c)
            dec = zigzag_decode(vals) if signed else vals.view(_I64)
            scatter = starts[grp][:, None] + np.arange(c)
            out[scatter.ravel()] = dec.ravel()
    # DELTA: batch the header varints, then one unpack + row-cumsum per
    # (width, count) group
    if present[DELTA]:
        di = (tags == DELTA).nonzero()[0]
        u1 = _batch_vulongs(raw, pos_a[di] + 2, e1)
        first_vals = zigzag_decode(u1) if signed else u1.view(_I64)
        delta_bases = zigzag_decode(_batch_vulongs(raw, e1 + 1, e2))
        data_start = e2 + 1
        for w, c, sel in _groups(w_a[di], cnt_a[di]):
            grp = di[sel]
            fv = first_vals[sel]
            db = delta_bases[sel]
            if w == 0:
                # fixed-delta runs: value_i = first + i * delta
                vals2d = fv[:, None] + db[:, None] * np.arange(c, dtype=_I64)
            else:
                nb = ((c - 2) * w + 7) // 8
                gather = data_start[sel][:, None] + np.arange(nb)
                absd = unpack_rows(raw[gather], w, c - 2).view(_I64)
                steps = np.empty((len(grp), c), dtype=_I64)
                steps[:, 0] = fv
                steps[:, 1] = db
                sign = np.where(db >= 0, _I64(1), _I64(-1))
                steps[:, 2:] = absd * sign[:, None]
                vals2d = np.cumsum(steps, axis=1)
            scatter = starts[grp][:, None] + np.arange(c)
            out[scatter.ravel()] = vals2d.ravel()
    # SHORT_REPEAT: batch big-endian value gather per byte-width, then one
    # ragged repeat/scatter for all runs
    if present[SHORT_REPEAT]:
        sr_idx = (tags == SHORT_REPEAT).nonzero()[0]
        vals_u = np.zeros(len(sr_idx), dtype=_U64)
        srw = w_a[sr_idx]
        for w in _distinct(srw):
            m = srw == w
            gather = pos_a[sr_idx][m][:, None] + 1 + np.arange(w)
            mat = raw[gather].astype(_U64)
            v = np.zeros(len(mat), dtype=_U64)
            for j in range(w):
                v = (v << _U64(8)) | mat[:, j]
            vals_u[m] = v
        dec = (zigzag_decode(vals_u) if signed
               else vals_u.view(_I64)).astype(out_dtype, copy=False)
        cnts = cnt_a[sr_idx]
        tot = int(cnts.sum())
        pos0 = np.repeat(starts[sr_idx], cnts)
        intra = np.arange(tot) - np.repeat(np.cumsum(cnts) - cnts, cnts)
        out[pos0 + intra] = np.repeat(dec, cnts)
    # PATCHED_BASE (rare), per run
    if present[PATCHED_BASE]:
        for i in (tags == PATCHED_BASE).nonzero()[0]:
            s = starts[i]
            arr, _ = _read_patched_base(buf, int(pos_a[i]))
            out[s: s + len(arr)] = arr
    if n is not None and total > n:
        out = out[:n]
    return out


def _distinct(keys: np.ndarray):
    """The distinct values of ``keys`` as ints. A few are found in Python:
    ``np.unique`` alone costs more than the rest of a short stream's
    decode."""
    return set(keys.tolist()) if len(keys) <= 64 else np.unique(keys).tolist()


def _groups(widths: np.ndarray, counts: np.ndarray):
    """(width, count, mask) for each distinct (width, count) pair of some
    runs: one ``unpack_rows`` call each."""
    keys = widths * 1024 + counts
    for key in _distinct(keys):
        yield key >> 10, key & 1023, keys == key


def _read_patched_base(buf, pos):
    first = buf[pos]
    fb = decode_bit_width((first >> 1) & 0x1F)
    l = ((first & 0x1) << 8 | buf[pos + 1]) + 1
    third = buf[pos + 2]
    base_bytes = ((third >> 5) & 0x7) + 1
    patch_width = decode_bit_width(third & 0x1F)
    fourth = buf[pos + 3]
    patch_gap_width = ((fourth >> 5) & 0x7) + 1
    patch_list_length = fourth & 0x1F
    pos += 4
    base = int.from_bytes(buf[pos: pos + base_bytes], "big")
    pos += base_bytes
    sign_mask = 1 << (base_bytes * 8 - 1)
    if base & sign_mask:
        base = -(base & ~sign_mask)

    unpacked, pos = unpack_bits(buf, fb, l, pos)
    gvp_width = get_closest_fixed_bits(patch_width + patch_gap_width)
    gvp, pos = unpack_bits(buf, gvp_width, patch_list_length, pos)

    out = unpacked.view(_I64) + np.int64(base)
    # apply patches: entries are (gap << patch_width) | patch; gap==255 &&
    # patch==0 entries are escapes adding 255 to the running gap
    patch_mask = _U64((1 << patch_width) - 1)
    gaps = (gvp >> _U64(patch_width)).astype(np.int64)
    patches = (gvp & patch_mask).astype(_U64)
    idx = 0
    i = 0
    while i < len(gvp):
        gap = 0
        while i < len(gvp) and gaps[i] == 255 and patches[i] == 0:
            gap += 255
            i += 1
        if i >= len(gvp):
            break
        gap += int(gaps[i])
        idx += gap
        out[idx] += _as_i64(int(patches[i]) << fb)
        i += 1
    return out, pos
