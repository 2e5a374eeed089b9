"""Snappy block codec. The reference only decodes snappy
(/root/reference/compressioncodec.go:222-284); its encoder is
unimplemented (:286-300) and SetCompression rejects snappy for writes
(writer.go:70-87). Here BOTH directions exist: the decoder for foreign
streams, and a greedy hash-table encoder so ``outer_compression="snappy"``
is a real write path.

Implements the raw snappy block format (public format description:
google/snappy format_description.txt): varint uncompressed length, then
tagged elements — 2-bit tag: 00 literal, 01/10/11 copies with 1/2/4-byte
little-endian offsets. ORC frames these blocks in chunks like every other
kind (:mod:`chunked`). Pure Python: this is a compatibility path, not a
hot kernel (our own streams use zstd, zlib or none unless snappy is
explicitly configured)."""

from __future__ import annotations

from . import chunked
from .chunked import DEFAULT_CHUNK


def decompress_raw(data) -> bytes:
    """Decompress one raw snappy block."""
    # varint uncompressed length
    n = 0
    shift = 0
    pos = 0
    while True:
        b = data[pos]
        n |= (b & 0x7F) << shift
        pos += 1
        if not b & 0x80:
            break
        shift += 7
    out = bytearray()
    size = len(data)
    while pos < size:
        tag = data[pos]
        pos += 1
        kind = tag & 0x3
        if kind == 0:  # literal
            length = (tag >> 2) + 1
            if length > 60:
                extra = length - 60
                length = int.from_bytes(data[pos: pos + extra], "little") + 1
                pos += extra
            out += data[pos: pos + length]
            pos += length
            continue
        if kind == 1:  # copy, 1-byte offset
            length = ((tag >> 2) & 0x7) + 4
            offset = ((tag >> 5) << 8) | data[pos]
            pos += 1
        elif kind == 2:  # copy, 2-byte offset
            length = (tag >> 2) + 1
            offset = int.from_bytes(data[pos: pos + 2], "little")
            pos += 2
        else:  # copy, 4-byte offset
            length = (tag >> 2) + 1
            offset = int.from_bytes(data[pos: pos + 4], "little")
            pos += 4
        if offset == 0:
            raise ValueError("snappy: zero copy offset")
        start = len(out) - offset
        if start < 0:
            raise ValueError("snappy: offset before start")
        # overlapping copies are byte-at-a-time by definition
        if offset >= length:
            out += out[start: start + length]
        else:
            for i in range(length):
                out.append(out[start + i])
    if len(out) != n:
        raise ValueError(f"snappy: size mismatch {len(out)} != {n}")
    return bytes(out)


def _emit_literal(out: bytearray, data: bytes, s: int, e: int) -> None:
    while s < e:
        length = min(e - s, 1 << 24)  # arbitrary split bound, format-legal
        lm1 = length - 1
        if lm1 < 60:
            out.append(lm1 << 2)
        elif lm1 < (1 << 8):
            out.append(60 << 2)
            out.append(lm1)
        elif lm1 < (1 << 16):
            out.append(61 << 2)
            out += lm1.to_bytes(2, "little")
        else:
            out.append(62 << 2)
            out += lm1.to_bytes(3, "little")
        out += data[s: s + length]
        s += length


def _emit_copy(out: bytearray, offset: int, length: int) -> None:
    # copies carry <=64 bytes each; callers pass length >= 4. Never leave
    # a 1-3 byte tail (some decoders reject sub-4 copies): rebalance the
    # split so the final piece is always >= 4
    while length > 0:
        step = min(length, 64)
        if 0 < length - step < 4:
            step = length - 4  # length is 65..67 here, so step >= 61
        if offset < (1 << 16):
            out.append(0x2 | ((step - 1) << 2))
            out += offset.to_bytes(2, "little")
        else:
            out.append(0x3 | ((step - 1) << 2))
            out += offset.to_bytes(4, "little")
        length -= step


def compress_raw(data: bytes) -> bytes:
    """Compress one raw snappy block: greedy 4-byte hash-table matcher
    with snappy's skip-ahead acceleration on incompressible input."""
    n = len(data)
    out = bytearray()
    v = n
    while v >= 0x80:
        out.append((v & 0x7F) | 0x80)
        v >>= 7
    out.append(v)
    if n < 4:
        if n:
            _emit_literal(out, data, 0, n)
        return bytes(out)
    table: dict[bytes, int] = {}
    pos = 0
    lit_start = 0
    limit = n - 4
    skip = 32  # snappy heuristic: 1 extra skipped byte per 32 misses
    while pos <= limit:
        key = data[pos: pos + 4]
        cand = table.get(key, -1)
        table[key] = pos
        if cand < 0:
            pos += 1 + ((skip - 32) >> 5)
            skip += 1
            continue
        skip = 32
        m = 4
        maxm = n - pos
        while m < maxm and data[cand + m] == data[pos + m]:
            # chunked extension: compare 32-byte slices first
            if m + 32 <= maxm and data[cand + m: cand + m + 32] == data[pos + m: pos + m + 32]:
                m += 32
                continue
            m += 1
        _emit_literal(out, data, lit_start, pos)
        _emit_copy(out, pos - cand, m)
        pos += m
        lit_start = pos
    _emit_literal(out, data, lit_start, n)
    return bytes(out)


def _compress_block(chunk) -> bytes:
    return compress_raw(bytes(chunk))  # the matcher hashes bytes slices


def _decompress_block(payload, raw_n: int | None) -> bytes:
    return decompress_raw(payload)


def compress(data, chunk_size: int = DEFAULT_CHUNK) -> bytes:
    return chunked.compress_parts([data], _compress_block, chunk_size)


def compress_parts(parts, chunk_size: int = DEFAULT_CHUNK) -> bytes:
    return chunked.compress_parts(parts, _compress_block, chunk_size)


def decompress(data, raw_length: int | None = None,
               chunk_size: int = DEFAULT_CHUNK) -> bytearray:
    return chunked.decompress(data, _decompress_block, raw_length, chunk_size)
