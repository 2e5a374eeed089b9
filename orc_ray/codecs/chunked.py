"""ORC chunked block-compression framing, shared by every compression kind.

Every ORC CompressionKind cuts a stream into chunks of at most
``chunk_size`` raw bytes (256 KiB by default, writer.go:25; this engine
writes smaller chunks where reads seek: ``ChunkedKind.seek_chunk`` and
``codecs.BLOB_CHUNK``) and puts each behind a 3-byte little-endian header
``(stored_len << 1) | isOriginal`` (compressioncodec.go:302-314); a chunk
whose compressed form is not smaller is stored as is. Only the per-chunk block codec differs between
kinds, so the codec modules (:mod:`zlibchunk`, :mod:`zstdchunk`,
:mod:`snappyblock`) supply block functions and build their public
``compress``/``compress_parts``/``decompress`` on the two loops here.
Every chunk can be found through :func:`chunk_offsets` and decoded on its
own, which is what range reads rely on.
"""

from __future__ import annotations

DEFAULT_CHUNK = 256 * 1024  # writer.go:25 DefaultCompressionChunkSize
MAX_CHUNK = 2 ** 23  # header length field is 23 bits


def header(length: int, original: bool) -> bytes:
    v = (length << 1) | (1 if original else 0)
    return bytes([v & 0xFF, (v >> 8) & 0xFF, (v >> 16) & 0xFF])


def _read_header(mv, pos: int) -> tuple[int, bool]:
    h = mv[pos] | (mv[pos + 1] << 8) | (mv[pos + 2] << 16)
    return h >> 1, bool(h & 1)


def chunk_offsets(data) -> list[int]:
    """Compressed byte offset of each chunk (raw offsets are implicit:
    chunk i covers raw bytes [i*chunk_size, (i+1)*chunk_size)). Stored in
    stream metadata so range reads can decompress only covering chunks."""
    mv = memoryview(data)
    out = []
    pos = 0
    while pos < len(mv):
        out.append(pos)
        pos += 3 + _read_header(mv, pos)[0]
    return out


def compress_parts(parts, block, chunk_size: int = DEFAULT_CHUNK) -> bytes:
    """Chunked compress over a list of buffers, byte-identical to
    compressing ``b"".join(parts)`` but without materializing the joined
    stream: chunks that fall inside one part go to ``block`` zero-copy as
    a memoryview of it; only the rare part-spanning chunk is assembled in
    a small scratch. ``block(chunk) -> bytes-like`` compresses one chunk."""
    if chunk_size > MAX_CHUNK:
        raise ValueError(f"chunk size {chunk_size} exceeds {MAX_CHUNK}")
    views = [memoryview(p).cast("B") for p in parts if len(p)]
    total = sum(len(v) for v in views)
    out = bytearray()
    pi = 0          # current part index
    po = 0          # offset inside current part
    done = 0
    while done < total:
        want = min(chunk_size, total - done)
        if po + want <= len(views[pi]):
            chunk = views[pi][po: po + want]
            po += want
        else:  # spans parts: assemble once in a scratch
            scratch = bytearray(want)
            filled = 0
            while filled < want:
                take = min(want - filled, len(views[pi]) - po)
                scratch[filled: filled + take] = views[pi][po: po + take]
                filled += take
                po += take
                if po == len(views[pi]) and filled < want:
                    pi += 1
                    po = 0
            chunk = memoryview(scratch)
        if po == len(views[pi]) and pi + 1 < len(views):
            pi += 1
            po = 0
        cd = block(chunk)
        n = memoryview(cd).nbytes
        if n >= want:
            out += header(want, True)
            out += chunk
        else:
            out += header(n, False)
            out += cd
        done += want
    return bytes(out)


def decompress(data, block, raw_length: int | None = None,
               chunk_size: int = DEFAULT_CHUNK):
    """Decompress a chunked stream. ``block(payload, raw_n)`` decodes one
    compressed chunk whose raw size is ``raw_n``.

    With the stream's ``raw_length`` known (every stream this engine
    writes records it), each chunk's raw size is ``chunk_size`` except the
    tail's, and chunks are written straight into one preallocated buffer:
    growing a buffer instead costs a second pass over every decoded byte.
    Without it (foreign ORC streams, whose chunk sizes are unknown) the
    output is appended and ``raw_n`` is None. A stream of one chunk returns
    that chunk's bytes as they are (bytes or a memoryview), without the
    copy. Every result is bytes-like: ``np.frombuffer``, slicing and
    indexing behave like bytes."""
    mv = memoryview(data)
    pos = 0
    if raw_length is not None and 0 < raw_length <= chunk_size:
        length, original = _read_header(mv, 0)
        if 3 + length == len(mv):
            out = mv[3:] if original else block(mv[3:], raw_length)
            if len(out) == raw_length:  # else the loop below raises
                return out
    if raw_length is None:
        out = bytearray()
        while pos < len(mv):
            length, original = _read_header(mv, pos)
            payload = mv[pos + 3: pos + 3 + length]
            out += payload if original else block(payload, None)
            pos += 3 + length
        return out
    out = bytearray(raw_length)
    outmv = memoryview(out)
    wpos = 0
    while pos < len(mv):
        length, original = _read_header(mv, pos)
        payload = mv[pos + 3: pos + 3 + length]
        raw_n = min(chunk_size, raw_length - wpos)
        outmv[wpos: wpos + raw_n] = (payload if original
                                     else block(payload, raw_n))
        pos += 3 + length
        wpos += raw_n
    return out
