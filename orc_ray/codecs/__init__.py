"""Pure numpy codec kernels (no Ray imports) for the encoder stack.

Codec ids used in stripe manifests map to these modules:

==============  =============================================================
id              kernel
==============  =============================================================
``rle2``        ORC RLEv2 integer stream (signed/unsigned)
``rle2_delta``  RLEv2 over first-order deltas within rows (token streams)
``for``         frame-of-reference + bit-pack
``planar``      frame-of-reference + byte-plane split (token streams)
``bytes``       raw little-endian fixed-width integers
``dict``        sorted dictionary (indexes stream + dict blob + lengths)
``direct_str``  concatenated UTF-8 + lengths stream
``fsst``        FSST symbol-table compression of a byte blob
``byterle``     ORC byte-level RLE
``boolrle``     boolean bitstream over byte RLE (validity/PRESENT)
``zlib``        ORC chunked zlib (default outer kind of size-priority mode)
``zstd``        ORC chunked zstd, pyarrow's codec (default outer kind)
``snappy``      ORC chunked snappy, pyarrow's codec (opt-in outer kind)
==============  =============================================================

The three chunked kinds share one framing (:mod:`chunked`) and one module
interface, ``compress(data, chunk_size)``, ``compress_parts(parts,
chunk_size)`` and ``decompress(data, raw_length, chunk_size)``. Three
chunk sizes are in use: 256 KiB for streams without a seek index, the
kind's ``seek_chunk`` for seekable outer streams and :data:`BLOB_CHUNK`
for string payloads.
:data:`CHUNKED_KINDS` is the one place their names are listed; every
writer, reader and the selector look a kind up there.
"""

from __future__ import annotations

from types import ModuleType
from typing import NamedTuple

from . import snappyblock, zlibchunk, zstdchunk
from .chunked import DEFAULT_CHUNK


class ChunkedKind(NamedTuple):
    """One chunked compression kind. Every kind's blocks run in native
    code (zlib, or pyarrow's zstd and snappy), so the selector measures
    int codecs under whichever kind the writer compresses with."""

    module: ModuleType  # looked up per call, so wrapped attributes are seen
    orc_kind: int       # CompressionKind id in orc.proto
    seek_chunk: int     # raw chunk size of streams that get a chunk index


CHUNKED_KINDS = {
    "zlib": ChunkedKind(zlibchunk, 1, DEFAULT_CHUNK),
    "snappy": ChunkedKind(snappyblock, 2, DEFAULT_CHUNK),
    # seekable streams compress in smaller chunks so a row-range read
    # rounds to 64 KiB per covered plane/slice instead of 256 KiB —
    # measured +0.4% size on token planes for ~4x tighter range reads
    "zstd": ChunkedKind(zstdchunk, 5, 64 * 1024),
}

# raw chunk size of a string payload (a direct column's DATA, a
# dictionary's DICT_DATA) under every chunked kind: a 1-64-row long-docs
# read decompresses 16.9 KB of doc_id instead of the 209.5 KB one 256 KiB
# chunk held, and the encoded bytes fell (-0.04% long-docs, -0.77%
# short-docs). Streams that record no chunk_size were written with
# chunked.DEFAULT_CHUNK.
BLOB_CHUNK = 16 * 1024

# "auto" compresses with this kind and keeps it only where it shrinks the
# stream; "none" never compresses
AUTO_KIND = "zstd"
OUTER_SETTINGS = ("auto", "none", *CHUNKED_KINDS)


def outer_kind(setting: str) -> tuple[str, ChunkedKind | None]:
    """(kind name, kind) that an ``outer_compression`` setting compresses
    with; ``("none", None)`` for "none"."""
    if setting not in OUTER_SETTINGS:
        raise ValueError(f"unknown outer compression {setting!r}; expected "
                         f"one of {', '.join(OUTER_SETTINGS)}")
    name = AUTO_KIND if setting == "auto" else setting
    return name, CHUNKED_KINDS.get(name)
