"""Vectorized MSB-first bit packing at the ORC fixed bit widths.

Re-creation of the reference's pack/unpack kernels
(/root/reference/utils.go:271-343 writeInts + unrolled fast paths 345-702,
readInts 752-804 + unrolled 806-1177) as numpy array kernels instead of
per-value shift loops. Bits are written MSB-first within each value and
packed contiguously across bytes; a trailing partial byte is zero-padded in
its low bits (identical to the reference's flush).

Width tables re-create /root/reference/utils.go:48-141 (5-bit width codes,
closest fixed / closest aligned widths).
"""

from __future__ import annotations

import math

import numpy as np

_U64 = np.uint64
_U8 = np.uint8

# Widths encodable in the 5-bit header code, in code order (codes 0..31).
DECODE_BIT_WIDTH = np.array(
    list(range(1, 25)) + [26, 28, 30, 32, 40, 48, 56, 64], dtype=np.int64
)
assert len(DECODE_BIT_WIDTH) == 32

# width (0..64) -> header code
_ENCODE_BW = np.zeros(65, dtype=np.int64)
for _code, _w in enumerate(DECODE_BIT_WIDTH):
    _ENCODE_BW[_w] = _code
# widths not directly encodable round up to the next encodable width's code
for _w in range(1, 65):
    if _ENCODE_BW[_w] == 0 and _w != 1:
        # find next encodable width >= w
        _nxt = int(DECODE_BIT_WIDTH[np.searchsorted(DECODE_BIT_WIDTH, _w)])
        _ENCODE_BW[_w] = _ENCODE_BW[_nxt]

# width (0..64) -> closest encodable fixed width (>= width, 0 -> 1)
_CLOSEST_FIXED = np.zeros(65, dtype=np.int64)
_CLOSEST_FIXED[0] = 1
for _w in range(1, 65):
    _CLOSEST_FIXED[_w] = int(DECODE_BIT_WIDTH[np.searchsorted(DECODE_BIT_WIDTH, _w)])

_ALIGNED = np.array([1, 2, 4, 8, 16, 24, 32, 40, 48, 56, 64], dtype=np.int64)
_CLOSEST_ALIGNED = np.zeros(65, dtype=np.int64)
_CLOSEST_ALIGNED[0] = 1
for _w in range(1, 65):
    _CLOSEST_ALIGNED[_w] = int(_ALIGNED[np.searchsorted(_ALIGNED, _w)])


def encode_bit_width(w: int) -> int:
    return int(_ENCODE_BW[w])


def decode_bit_width(code: int) -> int:
    return int(DECODE_BIT_WIDTH[code])


def get_closest_fixed_bits(w: int) -> int:
    return int(_CLOSEST_FIXED[w])


def get_closest_aligned_fixed_bits(w: int) -> int:
    return int(_CLOSEST_ALIGNED[w])


def bit_length_u64(x: np.ndarray) -> np.ndarray:
    """Per-element bit length of a uint64 array (0 -> 0). Uses frexp on the
    32-bit halves (float64 represents uint32 exactly, so the exponent IS the
    bit length) — branch-free and ~10x faster than mask-shift loops."""
    x = np.ascontiguousarray(x, dtype=_U64)
    hi = (x >> _U64(32)).astype(np.float64)
    lo = (x & _U64(0xFFFFFFFF)).astype(np.float64)
    e_hi = np.frexp(hi)[1]
    e_lo = np.frexp(lo)[1]
    return np.where(hi != 0, e_hi + 32, e_lo).astype(np.int64)


def closest_fixed_bits_arr(x_u64: np.ndarray) -> np.ndarray:
    """Vectorized findClosestNumBits (utils.go:262-269): bit length rounded
    up to an encodable fixed width (0 -> 1)."""
    return _CLOSEST_FIXED[bit_length_u64(x_u64)]


def percentile_bits(x_u64: np.ndarray, p: float) -> int:
    """Vectorized percentileBits (utils.go:233-260): width such that at
    least p of the values fit, walking the 32-bin width histogram from the
    top."""
    widths = closest_fixed_bits_arr(x_u64)
    hist = np.bincount(_ENCODE_BW[widths], minlength=32)
    per_len = float(len(x_u64)) * (1.0 - p)
    for i in range(31, -1, -1):
        per_len -= float(hist[i])
        if per_len < 0:
            return int(DECODE_BIT_WIDTH[i])
    return 0


# big-endian views for the widths that are whole machine words
_BE_WORD = {8: np.dtype(">u1"), 16: np.dtype(">u2"), 32: np.dtype(">u4"),
            64: np.dtype(">u8")}


def pack_bits(vals: np.ndarray, width: int) -> bytes:
    """Pack the low ``width`` bits of each value, MSB-first, contiguous
    across bytes. uint32 input stays uint32 for width <= 32 (half the
    memory traffic on int32 token streams); other dtypes go through
    uint64. Bits above ``width`` are masked off."""
    wide = _U64 if vals.dtype != np.uint32 or width > 32 else np.uint32
    vals = np.ascontiguousarray(vals, dtype=wide)
    n = len(vals)
    if n == 0:
        return b""
    size = vals.itemsize
    if width < 8 * size:
        vals = vals & wide((1 << width) - 1)
    word = _BE_WORD.get(width)
    if word is not None:
        return vals.astype(word).tobytes()
    if width % 8 == 0:
        be = vals.byteswap().view(_U8).reshape(n, size)[:, size - width // 8:]
        return np.ascontiguousarray(be).tobytes()
    return _pack_odd(vals, width)


def _pack_odd(vals: np.ndarray, width: int) -> bytes:
    """Odd-width packer via byte-aligned groups: g = 8/gcd(width,8) values
    occupy exactly g*width/8 output bytes, so each value j in a group
    contributes fixed byte-slices — O(width) vectorized shift/OR passes over
    n/g-length arrays instead of an (n, width) bit matrix (which costs
    ~width*8 bytes of intermediate traffic per value and falls off a cliff
    on multi-million-value stripes)."""
    n = len(vals)
    g = 8 // math.gcd(width, 8)
    ngrp = (n + g - 1) // g
    if ngrp * g != n:
        vals = np.concatenate([vals, np.zeros(ngrp * g - n, dtype=vals.dtype)])
    v2 = vals.reshape(ngrp, g)
    out = np.zeros((ngrp, g * width // 8), dtype=_U8)
    wide = vals.dtype
    for j in range(g):
        vj = v2[:, j]
        bit0 = j * width
        for b in range(bit0 // 8, (bit0 + width - 1) // 8 + 1):
            s = (bit0 + width) - (8 * b + 8)
            part = (vj >> wide.type(s)) if s >= 0 else (vj << wide.type(-s))
            out[:, b] |= (part & wide.type(0xFF)).astype(_U8)
    return out.tobytes()[: (n * width + 7) // 8]


def unpack_bits(buf, width: int, count: int, offset: int = 0) -> tuple[np.ndarray, int]:
    """Unpack ``count`` uint64 values of ``width`` bits from ``buf`` starting
    at byte ``offset``. Returns (values, new_offset). The bit stream always
    starts on a byte boundary (each RLE run is byte-aligned)."""
    nbytes = (count * width + 7) // 8
    raw = np.frombuffer(buf, dtype=_U8, count=nbytes, offset=offset)
    return unpack_rows(raw.reshape(1, nbytes), width, count)[0], offset + nbytes


# a matrix of at most this many bytes per group-loop pass (g, below)
# unpacks one bit per byte and sums the bits against these weights
# (2^63 .. 2^0): a few array calls in all, where the group loop makes
# about g * (width / 8 + 1), each over the whole matrix. The bitwise
# path's cost grows with the bytes alone, so the crossover grows with g:
# timed on one core over every width but 8/16/32/64 and matrices of
# 512 B - 12 KB, this cutoff took 34.0 ms for the whole grid, a flat
# 4096-byte one 39.0, the bitwise path alone 35.4, the group loop alone
# 67.7, and the faster path in every cell 30.9
_BITWISE_BYTES = 1024
_BIT_WEIGHTS = np.uint64(1) << np.arange(63, -1, -1, dtype=_U64)


def unpack_rows(data: np.ndarray, width: int, count: int) -> np.ndarray:
    """Unpack a C-contiguous (k, nbytes) uint8 matrix, one byte-aligned run
    of ``count`` values of ``width`` bits per row (nbytes = ceil(count *
    width / 8)), to a (k, count) uint64 matrix."""
    k, nbytes = data.shape
    if count == 0:
        return np.empty((k, 0), dtype=_U64)
    word = _BE_WORD.get(width)
    if word is not None:
        return data.view(word).astype(_U64)
    g = 8 // math.gcd(width, 8)
    if data.size <= _BITWISE_BYTES * g:
        bits = np.unpackbits(data, axis=1, count=count * width)
        return bits.reshape(k, count, width) @ _BIT_WEIGHTS[64 - width:]
    # inverse of _pack_odd (and of the whole-byte packing, g = 1) —
    # byte-aligned groups of g values, each value rebuilt from
    # <= width//8 + 2 byte-slices (vectorized); the k rows' groups stack
    # into one (k * ngrp, gb) matrix
    ngrp = (count + g - 1) // g
    gb = g * width // 8
    if ngrp * gb != nbytes:
        padded = np.zeros((k, ngrp * gb), dtype=_U8)
        padded[:, :nbytes] = data
        data = padded
    m = data.reshape(k * ngrp, gb).astype(_U64)
    out2 = np.zeros((k * ngrp, g), dtype=_U64)
    mask = (_U64(1) << _U64(width)) - _U64(1)
    for j in range(g):
        bit0 = j * width
        acc = out2[:, j]
        for b in range(bit0 // 8, (bit0 + width - 1) // 8 + 1):
            s = (bit0 + width) - (8 * b + 8)
            if s >= 0:
                acc |= m[:, b] << _U64(s)
            else:
                acc |= m[:, b] >> _U64(-s)
        acc &= mask
    return out2.reshape(k, ngrp * g)[:, :count]
