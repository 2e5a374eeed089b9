"""Frame-of-reference + byte-plane split codec ("planar").

Same FOR model as :mod:`forpack` (subtract the chunk minimum), but instead
of bit-packing the residuals at an odd width it stores them as
``ceil(width/8)`` byte planes: plane p holds byte p (little-endian) of every
residual, concatenated plane-after-plane. The point is the OUTER chunked
zlib stage (compressioncodec.go analogue): odd-width bit-packed data is
byte-misaligned, so deflate finds no byte matches and only its Huffman pass
gains ~25%; splitting into planes gives each 256 KiB zlib chunk a single
stationary byte distribution (the high plane of token ids is highly
skewed), compressing ~30% smaller AND faster on the same data. Decode adds
the k shifted planes tile by tile in an L2-sized scratch. The layout is
analytically seekable like FOR: value i of plane p lives at byte
``header + p*n + i`` — no stored index needed.

Layout: varint(n) + vslong(min) + u8(n_planes) + n_planes * n bytes.
"""

from __future__ import annotations

import numpy as np

from .varint import read_vslong, read_vulong, write_vslong, write_vulong

_U64 = np.uint64
_I64 = np.int64
_U8 = np.uint8

# encode and decode tile: 64k values = 256 KiB u32 / 512 KiB u64 scratch,
# sized to sit in L2 while its byte lanes are peeled or added
_TILE = 1 << 16


def encode_parts(values: np.ndarray) -> tuple[bytes, np.ndarray | None]:
    """Fused-path entry: ``(header, planes)`` where ``planes`` is the
    C-contiguous ``(k, n)`` uint8 plane matrix (``None`` for the empty
    stream). ``header + planes.tobytes()`` equals :func:`encode`'s output,
    but the caller can feed the plane buffer straight into a chunked block
    compressor (zstdchunk.compress_parts) so the joined stream — 2-3x the
    compressed size on token data — is never materialized."""
    if values.dtype in (np.int32, np.uint32):
        v = np.ascontiguousarray(values)
        narrow = True
    else:
        v = np.ascontiguousarray(values, dtype=_I64)
        narrow = False
    out = bytearray()
    write_vulong(out, len(v))
    if len(v) == 0:
        return bytes(out), None
    vmin = int(v.min())
    vmax = int(v.max())
    write_vslong(out, vmin)
    span = vmax - vmin  # python ints: no overflow
    k = max(1, (span.bit_length() + 7) // 8)
    out.append(k)
    if narrow and k <= 4:
        src = v.view(np.uint32)
        base = np.uint32(vmin & 0xFFFFFFFF)
    else:
        src = v.view(_U64)
        base = _U64(vmin & 0xFFFFFFFFFFFFFFFF)
    n = len(src)
    width = src.dtype.itemsize
    planes = np.empty((k, n), dtype=_U8)
    # fused + cache-tiled: subtract the FOR base into a tile-sized scratch
    # (stays in L2) and peel its byte lanes from there, instead of
    # materializing the full residual array and re-reading it k times with
    # a 4/8-byte stride — one DRAM pass over the source total (measured
    # ~25% faster single-thread at 9M values, and it is the traffic, not
    # the ALU, that the 32-way contended runs are bound on)
    tile = _TILE
    tmp = np.empty(min(tile, n), dtype=src.dtype)
    for s in range(0, n, tile):
        e = min(n, s + tile)
        t = tmp[: e - s]
        np.subtract(src[s:e], base, out=t)
        lanes = t.view(_U8).reshape(e - s, width)
        for p in range(k):
            planes[p, s:e] = lanes[:, p]
    return bytes(out), planes


def encode(values: np.ndarray) -> bytes:
    header, planes = encode_parts(values)
    if planes is None:
        return header
    return header + planes.tobytes()


def decode(buf: bytes, out_dtype=np.int64) -> np.ndarray:
    n, pos = read_vulong(buf, 0)
    if n == 0:
        return np.empty(0, dtype=out_dtype)
    vmin, pos = read_vslong(buf, pos)
    k = buf[pos]
    pos += 1
    planes = np.frombuffer(buf, dtype=_U8, count=k * n, offset=pos).reshape(k, n)
    return _assemble(planes, vmin, out_dtype)


def _assemble(planes, vmin: int, out_dtype=np.int64) -> np.ndarray:
    """Values from the k uint8 planes of their residuals (``planes[p]`` is
    plane p). Per tile: ``plane0 + vmin``, then ``+= plane_p << 8p`` —
    the planes hold disjoint bytes of (v - vmin), so adding equals OR-ing
    and the result is exact mod 2^32 or 2^64. Each plane is read once and
    the output written once; the shifts and adds stay in L2."""
    k = len(planes)
    n = len(planes[0])
    # int32 output: the caller guarantees the true values fit (they were
    # encoded from an int32 column), so mod-2^32 arithmetic is exact — half
    # the memory traffic of the 64-bit assemble on the hottest stream
    wt = np.uint32 if out_dtype == np.int32 and k <= 4 else _U64
    res = np.empty(n, dtype=wt)
    base = wt(vmin & (0xFFFFFFFF if wt is np.uint32 else 0xFFFFFFFFFFFFFFFF))
    tmp = np.empty(min(_TILE, n), dtype=wt)
    for s in range(0, n, _TILE):
        e = min(n, s + _TILE)
        r = res[s:e]
        np.add(planes[0][s:e], base, out=r, dtype=wt, casting="unsafe")
        for p in range(1, k):
            t = tmp[: e - s]
            np.left_shift(planes[p][s:e], wt(8 * p), out=t, dtype=wt,
                          casting="unsafe")
            r += t
    if wt is np.uint32:
        return res.view(np.int32)
    out = res.view(_I64)
    return out if out_dtype == np.int64 else out.astype(out_dtype, copy=False)


def parse_header(head: bytes) -> tuple[int, int, int, int]:
    """(n, vmin, n_planes, header_size) from the first bytes of a planar
    stream. Value i of plane p is at byte header_size + p*n + i — the
    codec is analytically seekable, like FOR."""
    n, pos = read_vulong(head, 0)
    if n == 0:
        return 0, 0, 0, pos
    vmin, pos = read_vslong(head, pos)
    return n, vmin, head[pos], pos + 1


def plane_ranges(lo: int, hi: int, n: int, k: int,
                 header: int) -> list[tuple[int, int]]:
    """The k raw-byte ranges [byte_lo, byte_hi) covering values [lo, hi)."""
    return [(header + p * n + lo, header + p * n + hi) for p in range(k)]


def decode_range(plane_payloads: list[bytes], lo: int, hi: int,
                 vmin: int, out_dtype=np.int64) -> np.ndarray:
    """Decode values [lo, hi) from the per-plane payload byte slices."""
    planes = [np.frombuffer(payload, dtype=_U8, count=hi - lo)
              for payload in plane_payloads]
    return _assemble(planes, vmin, out_dtype)
