"""ORC chunked zlib: raw-DEFLATE blocks in the shared chunk framing.

Re-creation of /root/reference/compressioncodec.go:169-217 (flate encoder
with per-chunk "keep original if compression grows the data"); the
framing and 256 KiB chunking (buffererwriter.go:10-173) live in
:mod:`chunked`. Raw DEFLATE (no zlib wrapper), like the reference's flate
streams.
"""

from __future__ import annotations

import zlib

from . import chunked
from .chunked import DEFAULT_CHUNK

# flate level of the "zlib" outer kind and string-blob codec: 6 = the
# reference's flate default and the best size; level 1 trades <1% size for
# ~25% single-node throughput but makes the pipeline more memory-bound
# (worse multi-worker scaling on shared-bus hosts)
LEVEL = 6


def _compress_block(chunk) -> bytes:
    comp = zlib.compressobj(LEVEL, zlib.DEFLATED, -15)
    return comp.compress(chunk) + comp.flush()


def _decompress_block(payload, raw_n: int | None) -> bytes:
    return zlib.decompress(payload, -15, raw_n or zlib.DEF_BUF_SIZE)


def compress(data, chunk_size: int = DEFAULT_CHUNK) -> bytes:
    return chunked.compress_parts([data], _compress_block, chunk_size)


def compress_parts(parts, chunk_size: int = DEFAULT_CHUNK) -> bytes:
    return chunked.compress_parts(parts, _compress_block, chunk_size)


def decompress(data, raw_length: int | None = None,
               chunk_size: int = DEFAULT_CHUNK) -> bytearray:
    return chunked.decompress(data, _decompress_block, raw_length, chunk_size)
