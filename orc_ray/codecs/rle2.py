"""ORC RLEv2 integer codec (short-repeat / direct / patched-base / delta).

From-scratch numpy re-creation of the reference's RLEv2 writer/reader
(/root/reference/runlengthintegerwriterv2.go:9-788,
/root/reference/runlengthintegerreaderv2.go:36-426). The reference is a
per-value state machine; here the same segmentation semantics are derived
up-front from the whole array (vectorized run detection), then every
variable scope goes through one vectorized determineEncoding pass
(``_encode_var_ragged``). Output is byte-identical to the reference writer
(validated against its test vectors in tests/test_rle2.py).

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
  zigzag width gap > 1 -> PATCHED_BASE (patch budget ~5%, lines 415-517),
  else DIRECT at the aligned 100th-percentile width.
"""

from __future__ import annotations

import numpy as np

from .bitpack import (
    DECODE_BIT_WIDTH,
    _CLOSEST_ALIGNED,
    decode_bit_width,
    encode_bit_width,
    get_closest_aligned_fixed_bits,
    get_closest_fixed_bits,
    pack_bits,
    percentile_bits,
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
    write_vslong,
    write_vulong,
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

def encode(values: np.ndarray, signed: bool) -> bytes:
    """Encode an int64 array into an RLEv2 byte stream.

    Fixed runs are emitted by ``_emit_fixed``. Every variable scope, however
    many there are, goes through ``_encode_var_ragged``: one pass over the
    concatenated scope values classifies them all, then DIRECT and
    monotonic DELTA scopes are bit-packed in per-width groups.

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
    segs = list(_segments(v))
    pieces: list[bytes | None] = [None] * len(segs)
    var_idx = [i for i, (k, s, e) in enumerate(segs) if k == 1]
    if var_idx:
        starts = np.array([segs[i][1] for i in var_idx], dtype=np.int64)
        ends = np.array([segs[i][2] for i in var_idx], dtype=np.int64)
        for idx, piece in zip(var_idx, _encode_var_ragged(v, starts, ends, signed)):
            pieces[idx] = piece
    for i, (kind, s, e) in enumerate(segs):
        if kind == 0:
            out = bytearray()
            _emit_fixed(out, int(v[s]), e - s, signed)
            pieces[i] = bytes(out)
    return b"".join(pieces)


def _encode_var_ragged(
    v: np.ndarray, starts: np.ndarray, ends: np.ndarray, signed: bool
) -> list[bytes]:
    """Vectorized determineEncoding + emit for k >= 1 variable scopes of
    any sizes. Stats follow runlengthintegerwriterv2.go:265-402 exactly."""
    k = len(starts)
    narrow = v.dtype == np.int32
    lengths = ends - starts
    total = int(lengths.sum())
    off = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(lengths, out=off[1:])
    seg_of = np.repeat(np.arange(k, dtype=np.int32), lengths)
    if total == len(v):
        V = v  # scopes tile the whole array: no gather needed
    else:
        flat_idx = starts[seg_of] + (np.arange(total, dtype=np.int64) - off[:-1][seg_of])
        V = v[flat_idx]
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
    zz100, zz90 = _pct_from_hist_ragged(hist, lengths)

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
    # is_fixed: every in-scope delta equals initial
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
    vmin = np.minimum.reduceat(V, off[:-1])
    vmax = np.maximum.reduceat(V, off[:-1])
    if narrow:
        # the 32-bit path is only entered when the global range fits int32
        # delta arithmetic, so int64 subtraction can never overflow
        safe = np.ones(k, dtype=bool)
    else:
        diff = vmax - vmin
        safe = ((vmax ^ vmin) >= 0) | ((vmax ^ diff) >= 0)
    const = vmin == vmax
    short = lengths <= MIN_REPEAT
    mono = (initial != 0) & (is_inc | is_dec)

    direct = short | ~safe | (~const & ~is_fixed & ~mono & (zz100 - zz90 <= 1))
    mono &= ~direct & ~const & ~is_fixed

    pieces: list[bytes | None] = [None] * k

    # DIRECT scopes: group-pack per aligned width. Scopes whose bit count
    # isn't byte-aligned get zero padding values appended (identical bytes
    # to per-scope packing, which zero-pads the final byte).
    direct_idx = np.flatnonzero(direct)
    if len(direct_idx):
        fbs = _CLOSEST_ALIGNED[zz100[direct_idx]]
        for fb in np.unique(fbs):
            fb = int(fb)
            rows = direct_idx[fbs == fb]
            packed, byte_off = _group_pack(ZZ, off[rows], lengths[rows], fb)
            for j, r in enumerate(rows):
                run = int(lengths[r]) - 1
                header = bytes([
                    (DIRECT << 6) | (encode_bit_width(fb) << 1) | ((run & 0x100) >> 8),
                    run & 0xFF,
                ])
                pieces[r] = header + packed[byte_off[j]: byte_off[j + 1]]

    # DELTA-var scopes (monotonic): group the abs-delta tails by width too
    mono_emit = np.flatnonzero(mono)
    if len(mono_emit):
        absD = np.abs(D)
        tail_starts = off[mono_emit] + 2
        tail_lens = lengths[mono_emit] - 2
        tail_max = _ragged_max(absD, tail_starts, tail_lens)
        dmax = np.maximum(initial[mono_emit].astype(_I64), tail_max.astype(_I64))
        codes_d = np.searchsorted(_WIDTH_UPPER, dmax.view(_U64))
        fbs_d = _CLOSEST_ALIGNED[DECODE_BIT_WIDTH[codes_d]]
        fbs_d = np.where(fbs_d == 1, 2, fbs_d)
        for fb in np.unique(fbs_d):
            fb = int(fb)
            rows = mono_emit[fbs_d == fb]
            packed, byte_off = _group_pack(absD, tail_starts[fbs_d == fb],
                                           tail_lens[fbs_d == fb], fb)
            for j, r in enumerate(rows):
                out = bytearray()
                run = int(lengths[r]) - 1
                out.append((DELTA << 6) | (encode_bit_width(fb) << 1) | ((run & 0x100) >> 8))
                out.append(run & 0xFF)
                if signed:
                    write_vslong(out, int(V[off[r]]))
                else:
                    write_vulong(out, int(V[off[r]]))
                write_vslong(out, int(initial[r]))
                out.extend(packed[byte_off[j]: byte_off[j + 1]])
                pieces[r] = bytes(out)

    # the rest: constant and fixed-delta scopes, then PATCHED_BASE
    # candidates (DIRECT when the 95th/100th base-reduced widths tie)
    for r in np.flatnonzero(~direct & ~mono):
        out = bytearray()
        if const[r]:
            _emit_delta_fixed(out, int(vmin[r]), 0, int(lengths[r]), signed)
        elif is_fixed[r]:
            _emit_delta_fixed(out, int(V[off[r]]), int(initial[r]), int(lengths[r]), signed)
        else:
            base_red = (V[off[r]: off[r + 1]].astype(_I64) - vmin[r]).view(_U64)
            br95 = percentile_bits(base_red, 0.95)
            br100 = percentile_bits(base_red, 1.0)
            if br100 - br95 != 0:
                _emit_patched_base(out, base_red, int(vmin[r]), br95, br100)
            else:
                _emit_direct(out, ZZ[off[r]: off[r + 1]], int(zz100[r]))
        pieces[r] = bytes(out)
    return pieces  # type: ignore[return-value]


def _group_pack(values: np.ndarray, starts: np.ndarray, lens: np.ndarray,
                fb: int) -> tuple[bytes, np.ndarray]:
    """Pack many ragged scopes at the same width in ONE pack_bits call.
    Scopes are zero-padded to byte boundaries (bit-identical to per-scope
    packing, whose final byte is zero-padded). Returns (packed bytes,
    per-scope byte offsets)."""
    k = len(starts)
    pads = ((-(lens * fb)) % 8) // fb
    pl = lens + pads
    doff = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(pl, out=doff[1:])
    soff = np.zeros(k + 1, dtype=np.int64)
    np.cumsum(lens, out=soff[1:])
    stotal = int(soff[-1])
    out = np.zeros(int(doff[-1]), dtype=values.dtype)
    pos = np.arange(stotal, dtype=np.int64) - np.repeat(soff[:-1], lens)
    src = np.repeat(starts, lens) + pos
    dst = np.repeat(doff[:-1], lens) + pos
    out[dst] = values[src]
    if out.dtype == np.int32:
        out = out.view(np.uint32)
    packed = pack_bits(out, fb)
    return packed, doff * fb // 8


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


def _pct_from_hist_ragged(hist: np.ndarray, lengths: np.ndarray):
    """Per-scope 100th and 90th percentileBits from (k, 32) width-code
    histograms."""
    cum = np.cumsum(hist[:, ::-1], axis=1)
    j100 = np.argmax(cum > 0, axis=1)
    j90 = np.argmax(cum > lengths.astype(np.float64)[:, None] * (1.0 - 0.9), axis=1)
    return DECODE_BIT_WIDTH[31 - j100], DECODE_BIT_WIDTH[31 - j90]


def _segments(v: np.ndarray):
    """Yield (kind, start, end) with kind 0=fixed-run, 1=variable, matching
    the reference state machine's flush boundaries. Single vectorized run
    detection, then a pointer walk over the BIG (>=MIN_REPEAT) runs only —
    O(#big runs + #segments) Python steps, never O(#values): short runs
    can't start a fixed segment, so their boundaries are irrelevant."""
    n = len(v)
    if n == 0:
        return
    if n == 1:
        yield (1, 0, 1)
        return
    change_idx = np.flatnonzero(v[1:] != v[:-1])
    run_bounds = np.empty(len(change_idx) + 2, dtype=np.int64)
    run_bounds[0] = 0
    run_bounds[1:-1] = change_idx + 1
    run_bounds[-1] = n
    big = (run_bounds[1:] - run_bounds[:-1]) >= MIN_REPEAT
    big_starts = run_bounds[:-1][big].tolist()  # python ints: fast iteration
    big_ends = run_bounds[1:][big].tolist()
    nbig = len(big_starts)

    c = 0
    bi = 0  # first big run with end > c
    bj = 0  # next big run with start > current variable-span start
    while c < n:
        while bi < nbig and big_ends[bi] <= c:
            bi += 1
        if bi < nbig and big_starts[bi] <= c:
            # c is inside a big run (at its start, or at a post-512-cut tail)
            L = big_ends[bi] - c
            if L >= MIN_REPEAT:
                while L >= MAX_SCOPE:
                    yield (0, c, c + MAX_SCOPE)
                    c += MAX_SCOPE
                    L -= MAX_SCOPE
                if L >= MIN_REPEAT:
                    yield (0, c, c + L)
                    c += L
                    continue
                if L == 0:
                    continue
            # 1-2 leftover equal values fall into the variable span
        s = c
        while bj < nbig and big_starts[bj] <= s:
            bj += 1
        t = big_starts[bj] if bj < nbig else -1
        while True:
            if t != -1 and t + 2 <= s + MAX_SCOPE - 1:
                # carve-out: flush variable prefix, fixed run continues at t
                yield (1, s, t)
                c = t
                break
            e = min(s + MAX_SCOPE, n)
            yield (1, s, e)
            c = e
            if e == n or (t != -1 and e >= t):
                # hit the end, or the 512-cut swallowed the start of run t:
                # outer loop re-evaluates the remaining tail of that run
                break
            s = e
            while bj < nbig and big_starts[bj] <= s:
                bj += 1
            t = big_starts[bj] if bj < nbig else -1


def _emit_fixed(out: bytearray, val: int, length: int, signed: bool) -> None:
    """Fixed run of `length` (3..512) equal values: SHORT_REPEAT for 3..10,
    DELTA(fixed 0) otherwise (writer Flush/variable-branch paths)."""
    if length <= MAX_SHORT_REPEAT:
        rep = zigzag_encode(np.array([val], dtype=_I64))[0] if signed else _u64(val)
        rep = int(rep)
        width = get_closest_fixed_bits(rep.bit_length())
        nbytes = (width + 7) // 8 if width % 8 else width // 8
        header = (SHORT_REPEAT << 6) | ((nbytes - 1) << 3) | (length - MIN_REPEAT)
        out.append(header)
        out.extend(rep.to_bytes(8, "big")[8 - nbytes:])
    else:
        _emit_delta_fixed(out, val, 0, length, signed)


def _emit_delta_fixed(out: bytearray, first: int, delta: int, length: int, signed: bool) -> None:
    """DELTA run with fixed delta (width code 0)."""
    run = length - 1
    out.append((DELTA << 6) | ((run & 0x100) >> 8))
    out.append(run & 0xFF)
    if signed:
        write_vslong(out, first)
    else:
        write_vulong(out, first)
    write_vslong(out, delta)


def _emit_direct(out: bytearray, zz: np.ndarray, zz100: int) -> None:
    fb = get_closest_aligned_fixed_bits(zz100)
    run = len(zz) - 1
    out.append((DIRECT << 6) | (encode_bit_width(fb) << 1) | ((run & 0x100) >> 8))
    out.append(run & 0xFF)
    out.extend(pack_bits(zz, fb))


def _emit_patched_base(out: bytearray, base_red: np.ndarray, vmin: int, br95: int, br100: int) -> None:
    """preparePatchedBlob + writePatchedBaseValues
    (runlengthintegerwriterv2.go:415-517, 609-699)."""
    n = len(base_red)
    patch_width = get_closest_fixed_bits(br100 - br95)
    if patch_width == 64:
        patch_width = 56
        br95 = 8
    mask = (1 << br95) - 1

    br = base_red.copy()
    over = np.flatnonzero(br > _U64(mask))
    patches = (br[over] >> _U64(br95)).astype(_U64)
    br[over] &= _U64(mask)
    # gaps are relative to the previous patched index (first one is absolute)
    gaps = np.diff(np.concatenate(([0], over))).astype(np.int64) if len(over) else np.empty(0, np.int64)
    max_gap = int(gaps.max()) if len(gaps) else 0

    if max_gap == 0 and len(gaps) != 0:
        patch_gap_width = 1
    else:
        patch_gap_width = get_closest_fixed_bits(_u64(max_gap).bit_length())
    extra = 0
    if patch_gap_width > 8:
        patch_gap_width = 8
        extra = 2 if max_gap == 511 else 1
    # build gap-vs-patch entries, splitting gaps > 255 into 255-gap/0-patch escapes
    gvp: list[int] = []
    for g, p in zip(gaps.tolist(), patches.tolist()):
        while g > 255:
            gvp.append(255 << patch_width)
            g -= 255
        gvp.append((g << patch_width) | int(p))
    patch_length = len(gvp)
    assert patch_length == len(gaps) + extra

    run = n - 1
    fb = br95
    out.append((PATCHED_BASE << 6) | (encode_bit_width(fb) << 1) | ((run & 0x100) >> 8))
    out.append(run & 0xFF)

    base = vmin
    is_neg = base < 0
    if is_neg:
        base = -base
    base_width = get_closest_fixed_bits(_u64(base).bit_length()) + 1
    base_bytes = base_width // 8 if base_width % 8 == 0 else base_width // 8 + 1
    if is_neg:
        base |= 1 << (base_bytes * 8 - 1)
    out.append(((base_bytes - 1) << 5) | encode_bit_width(patch_width))
    out.append(((patch_gap_width - 1) << 5) | patch_length)
    out.extend(_u64(base).to_bytes(8, "big")[8 - base_bytes:])
    out.extend(pack_bits(br, get_closest_fixed_bits(fb)))
    out.extend(
        pack_bits(
            np.array(gvp, dtype=_U64),
            get_closest_fixed_bits(patch_gap_width + patch_width),
        )
    )


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
