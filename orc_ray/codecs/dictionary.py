"""Sorted string dictionary encode/decode.

Re-creation of the reference's DICTIONARY_V2 string path
(/root/reference/treewriter.go:543-720, /root/reference/dictionary_v2.go:14-59,
decode /root/reference/treereader.go:312-430): distinct values are sorted
lexicographically (byte order), the dictionary is emitted as concatenated
UTF-8 bytes + a LENGTH stream, and per-row values become dictionary indexes.
Vectorized via pyarrow dictionary_encode + an argsort remap instead of the
reference's per-value hash-map inserts.

The dictionary-vs-direct decision is ``DICTIONARY_THRESHOLD`` below
(/root/reference/treewriter.go:533-538, 694-707), applied by both string
writers: ``stripe._encode_string_column`` and ``sources.orcwriter``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# dictionary iff distinct/total <= this (treewriter.go:537)
DICTIONARY_THRESHOLD = 0.49


def dictionary_encode(arr: pa.Array) -> tuple[np.ndarray, bytes, np.ndarray]:
    """Return (indexes int64, dict_blob bytes, dict_lengths int64) with the
    dictionary sorted lexicographically. An already dictionary-encoded
    array is used as it is, without hashing it again."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    denc = arr if pa.types.is_dictionary(arr.type) else pc.dictionary_encode(arr)
    dict_arr = denc.dictionary
    indices = denc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    order = pc.sort_indices(dict_arr).to_numpy()  # byte-lexicographic
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order), dtype=np.int64)
    new_indices = rank[indices]
    sorted_dict = dict_arr.take(pa.array(order))
    blob, lengths = string_blob(sorted_dict)
    return new_indices, blob, lengths


def string_blob(arr: pa.Array) -> tuple[bytes, np.ndarray]:
    """Concatenated UTF-8 bytes + per-value lengths from an Arrow string
    array's offsets/data buffers (zero-copy; handles sliced arrays)."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if pa.types.is_large_string(arr.type) or pa.types.is_large_binary(arr.type):
        off_dtype = np.int64
    else:
        off_dtype = np.int32
    buffers = arr.buffers()
    offsets = np.frombuffer(buffers[1], dtype=off_dtype)[
        arr.offset: arr.offset + len(arr) + 1
    ]
    data = np.frombuffer(buffers[2], dtype=np.uint8) if buffers[2] is not None else np.empty(0, np.uint8)
    blob = data[offsets[0]: offsets[-1]].tobytes()
    lengths = np.diff(offsets).astype(np.int64)
    return blob, lengths


def strings_from_blob(blob: bytes, lengths: np.ndarray) -> pa.Array:
    """Rebuild an Arrow string array from concatenated bytes + lengths
    without per-value Python loops. A blob of 2^31 bytes or more needs
    64-bit offsets, so it becomes a large_string array."""
    large = len(blob) >= 2**31
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64 if large else np.int32)
    np.cumsum(lengths, out=offsets[1:])
    return pa.Array.from_buffers(
        pa.large_string() if large else pa.string(), len(lengths),
        [None, pa.py_buffer(offsets), pa.py_buffer(blob)])


def string_hashes64(arr: pa.Array) -> np.ndarray:
    """64-bit per-value polynomial hashes of a string column (vectorized
    from the offsets/data buffers) — feeds cardinality sketches."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    blob, lengths = string_blob(arr)
    data = np.frombuffer(blob, dtype=np.uint8)
    n = len(lengths)
    if len(data) == 0:
        return np.zeros(n, dtype=np.uint64)
    off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=off[1:])
    pos = np.arange(len(data), dtype=np.int64) - np.repeat(off[:-1], lengths)
    maxlen = int(lengths.max()) if n else 1
    P = np.uint64(0x100000001B3)
    table = np.empty(max(maxlen, 1), dtype=np.uint64)
    table[0] = 1
    if maxlen > 1:
        np.cumprod(np.full(maxlen - 1, P, dtype=np.uint64), out=table[1:])
    terms = (data.astype(np.uint64) + np.uint64(0x9E3779B9)) * table[pos]
    out = np.full(n, np.uint64(0xCBF29CE484222325), dtype=np.uint64)
    nz = lengths > 0
    if nz.any():
        out[nz] += np.add.reduceat(terms, off[:-1][nz])
    # final avalanche (splitmix-style)
    out ^= out >> np.uint64(30)
    out *= np.uint64(0xBF58476D1CE4E5B9)
    out ^= out >> np.uint64(27)
    return out


def dictionary_decode(indexes: np.ndarray, blob: bytes, lengths: np.ndarray) -> pa.Array:
    """Rebuild the column as an Arrow DictionaryArray (no value
    materialization; downstream casts to plain string only if asked)."""
    dict_arr = strings_from_blob(blob, lengths)
    return pa.DictionaryArray.from_arrays(
        pa.array(indexes.astype(np.int32), type=pa.int32()), dict_arr
    )
