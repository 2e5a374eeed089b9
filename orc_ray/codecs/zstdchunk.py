"""ORC chunked zstd: zstd blocks in the shared chunk framing.

Apache ORC's own CompressionKind enumerates ZSTD alongside ZLIB/SNAPPY
(proto/orc.proto CompressionKind); the reference implements only the
zlib/snappy kinds (compressioncodec.go:169-284), so this module is the
format's zstd kind realized over pyarrow's bundled C++ zstd, framed by
:mod:`chunked` like every other kind.

Why it exists: measured on the bench token corpus, zstd level 1 compresses
the dominant planar stream at ~620 MB/s vs chunked zlib-6's ~55 MB/s at a
size cost under 2%, and decompresses ~5x faster. Unlike deflate, zstd
frames do not self-describe length to the pyarrow API, so decode takes the
stream's known raw length (recorded per stream in the manifest).
"""

from __future__ import annotations

import pyarrow as pa

from . import chunked
from .chunked import DEFAULT_CHUNK

# zstd level of the "zstd" outer kind and string-blob codec; 1 = ~620
# MB/s/core on planar planes, within 0.3% of level 9's size on the bench
# corpus
LEVEL = 1

_CODEC = pa.Codec("zstd", compression_level=LEVEL)


def _compress_block(chunk) -> pa.Buffer:
    return _CODEC.compress(chunk)


def _decompress_block(payload, raw_n: int) -> memoryview:
    # pa.Buffer's memoryview is format 'b'; cast('B') is zero-copy
    return memoryview(_CODEC.decompress(payload, raw_n)).cast("B")


def compress(data, chunk_size: int = DEFAULT_CHUNK) -> bytes:
    return chunked.compress_parts([data], _compress_block, chunk_size)


def compress_parts(parts, chunk_size: int = DEFAULT_CHUNK) -> bytes:
    """Compress ``b"".join(parts)`` without joining: the fused encode
    path, so per-stream intermediate buffers (e.g. planar's concatenated
    planes) never exist."""
    return chunked.compress_parts(parts, _compress_block, chunk_size)


def decompress(data, raw_length: int,
               chunk_size: int = DEFAULT_CHUNK) -> bytearray:
    """Decompress a chunked-zstd stream of ``raw_length`` raw bytes (the
    manifest's ``raw_length``): zstd needs each chunk's exact output size,
    which is ``chunk_size`` for every chunk except the tail."""
    return chunked.decompress(data, _decompress_block, raw_length, chunk_size)


def decompress_chunks(data, raw_sizes) -> bytearray:
    """Decompress consecutive chunks whose raw sizes are known, e.g. a
    slice of a stream cut at chunk boundaries through its chunk-offset
    index. Every size but the last must be the stream's chunk size."""
    return chunked.decompress(data, _decompress_block, int(sum(raw_sizes)),
                              max(raw_sizes, default=DEFAULT_CHUNK))
