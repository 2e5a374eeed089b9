"""Frame-of-reference + bit-pack codec.

Standalone FOR codec (the non-patched core of the reference's PATCHED_BASE
sub-mode, /root/reference/runlengthintegerwriterv2.go:609-699): subtract the
chunk minimum, bit-pack the residuals at the max residual width. Unlike
RLEv2 it has no run adaptivity — it wins on near-uniform distributions
(e.g. token ids) where RLEv2's per-512-scope headers cost more than they
save, and it decodes faster (one unpack, no chunk walk).

Layout: varint(n) + vslong(min) + u8(width) + packed residuals.
"""

from __future__ import annotations

import math

import numpy as np

from .bitpack import pack_bits, unpack_bits
from .varint import read_vslong, read_vulong, write_vslong, write_vulong

_U64 = np.uint64
_I64 = np.int64


def encode(values: np.ndarray) -> bytes:
    if values.dtype in (np.int32, np.uint32):
        v32 = np.ascontiguousarray(values)
    else:
        v32 = None
        values = np.ascontiguousarray(values, dtype=_I64)
    v = v32 if v32 is not None else values
    out = bytearray()
    write_vulong(out, len(v))
    if len(v) == 0:
        return bytes(out)
    vmin = int(v.min())
    vmax = int(v.max())
    write_vslong(out, vmin)
    span = vmax - vmin  # python ints: no overflow
    width = max(1, span.bit_length())
    out.append(width)
    if v32 is not None:
        # int32/uint32 input: residuals stay in 32-bit space (span < 2^32
        # by construction), halving the packer's memory traffic
        residuals = v32.view(np.uint32) - np.uint32(vmin & 0xFFFFFFFF)
        out.extend(pack_bits(residuals, width))
        return bytes(out)
    # residuals computed mod 2^64: exact since 0 <= residual <= span < 2^64
    residuals = v.view(_U64) - np.uint64(vmin & 0xFFFFFFFFFFFFFFFF)
    out.extend(pack_bits(residuals, width))
    return bytes(out)


def decode(buf: bytes) -> np.ndarray:
    n, pos = read_vulong(buf, 0)
    if n == 0:
        return np.empty(0, dtype=_I64)
    vmin, pos = read_vslong(buf, pos)
    width = buf[pos]
    pos += 1
    residuals, pos = unpack_bits(buf, width, n, pos)
    return (residuals + np.uint64(vmin & 0xFFFFFFFFFFFFFFFF)).view(_I64)


def parse_header(head: bytes) -> tuple[int, int, int, int]:
    """(n, vmin, width, header_size) from the first bytes of a FOR stream.
    Fixed-width packing makes the codec analytically seekable: value i
    occupies bits [i*width, (i+1)*width) after the header — no stored
    index needed (the ROW_INDEX analogue for this codec is pure math)."""
    n, pos = read_vulong(head, 0)
    if n == 0:
        return 0, 0, 0, pos
    vmin, pos = read_vslong(head, pos)
    width = head[pos]
    return n, vmin, width, pos + 1


def _aligned_start(lo: int, width: int) -> int:
    """The first value at or before ``lo`` whose bits start on a byte."""
    step = 8 // math.gcd(width, 8)
    return (lo // step) * step


def plane_ranges(lo: int, hi: int, n: int, width: int,
                 header: int) -> list[tuple[int, int]]:
    """The raw-byte range [byte_lo, byte_hi) covering values [lo, hi), as
    a one-plane list (the shape of :func:`planar.plane_ranges`): it starts
    at the byte-aligned value at or before ``lo``."""
    return [(header + (_aligned_start(lo, width) * width) // 8,
             header + (hi * width + 7) // 8)]


def decode_range(payloads: list[bytes], lo: int, hi: int, vmin: int,
                 width: int) -> np.ndarray:
    """Decode values [lo, hi) from the one payload :func:`plane_ranges`
    names."""
    lo2 = _aligned_start(lo, width)
    residuals, _ = unpack_bits(payloads[0], width, hi - lo2, 0)
    vals = (residuals + np.uint64(vmin & 0xFFFFFFFFFFFFFFFF)).view(_I64)
    return vals[lo - lo2:]
