"""ORC chunked snappy: raw snappy blocks in the shared chunk framing.

The reference only decodes snappy (compressioncodec.go:222-284); its
encoder is unimplemented (:286-300) and SetCompression rejects snappy for
writes (writer.go:70-87). Here both directions run through pyarrow's
bundled C++ snappy, framed by :mod:`chunked` like every other kind, so
``outer_compression="snappy"`` is a real write path and foreign snappy
streams decode natively.

A raw snappy block starts with the varint of its uncompressed length.
pyarrow pads its output to whatever size it is asked for, so decode sizes
each block from that varint, never from the caller's expected size: a
chunk whose true size disagrees with the stream's ``raw_length`` then
fails in :func:`chunked.decompress` instead of reading as padded bytes.
"""

from __future__ import annotations

import pyarrow as pa

from . import chunked
from .chunked import DEFAULT_CHUNK
from .varint import read_vulong

_CODEC = pa.Codec("snappy")


def _compress_block(chunk) -> pa.Buffer:
    return _CODEC.compress(chunk)


def _decompress_block(payload, raw_n: int | None) -> memoryview:
    n = read_vulong(payload, 0)[0]
    if n > 32 * len(payload):  # a copy element turns 3 bytes into <= 64
        raise ValueError(f"snappy: block of {len(payload)} bytes claims {n}")
    # pa.Buffer's memoryview is format 'b'; cast('B') is zero-copy
    return memoryview(_CODEC.decompress(payload, n)).cast("B")


def compress(data, chunk_size: int = DEFAULT_CHUNK) -> bytes:
    return chunked.compress_parts([data], _compress_block, chunk_size)


def compress_parts(parts, chunk_size: int = DEFAULT_CHUNK) -> bytes:
    return chunked.compress_parts(parts, _compress_block, chunk_size)


def decompress(data, raw_length: int | None = None,
               chunk_size: int = DEFAULT_CHUNK) -> bytearray:
    return chunked.decompress(data, _decompress_block, raw_length, chunk_size)
