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


def one_chunk(col) -> pa.Array:
    """The column as one Arrow array, copying only when it has 0 or 2+
    chunks (combine_chunks copies even a single chunk)."""
    if isinstance(col, pa.ChunkedArray):
        return col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()
    return col


def value_offsets(arr: pa.Array) -> np.ndarray:
    """The len(arr)+1 value offsets of a string, binary, list or map
    array as int64, read from its offsets buffer (a sliced array's own
    window, not rebased to 0)."""
    t = arr.type
    large = (pa.types.is_large_string(t) or pa.types.is_large_binary(t)
             or pa.types.is_large_list(t))
    return np.frombuffer(arr.buffers()[1], dtype=np.int64 if large else np.int32)[
        arr.offset: arr.offset + len(arr) + 1
    ].astype(np.int64)


def string_bytes(col) -> tuple[np.ndarray, np.ndarray]:
    """(value bytes, offsets from 0) of a string or binary column: a
    zero-copy uint8 view of the bytes the values use and their int64
    offsets (len+1). A dictionary column is cast to its values first."""
    arr = one_chunk(col)
    if pa.types.is_dictionary(arr.type):
        arr = arr.cast(arr.type.value_type)
    offsets = value_offsets(arr)
    buf = arr.buffers()[2]
    data = np.frombuffer(buf, dtype=np.uint8) if buf is not None else np.empty(0, np.uint8)
    return data[offsets[0]: offsets[-1]], offsets - offsets[0]


def string_blob(arr: pa.Array) -> tuple[bytes, np.ndarray]:
    """Concatenated UTF-8 bytes + per-value int64 lengths of a string
    column."""
    data, offsets = string_bytes(arr)
    return data.tobytes(), np.diff(offsets)


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


# --- polynomial byte-segment hash ------------------------------------------
_U64 = np.uint64
_P = _U64(0x100000001B3)  # FNV-ish odd multiplier
_K = _U64(0x9E3779B97F4A7C15)
_PINV = _U64(pow(int(_P), -1, 1 << 64))  # P is odd => invertible mod 2^64

# segments hash in L2-sized tiles against tile-sized tables: position i =
# t*T + r has P^i = PB^t * POW[r] with PB = P^T, so one tile's products sit
# in a scratch buffer and only per-segment sums leave it. No value-count
# sized array is built: each would cost a DRAM pass per stripe, and cached
# power tables grow to hundreds of MB per process. POW/INV/GEO hold P^r,
# P^-r and sum_{i<r} P^i for r <= T: 1.5 MB in all.
_SHIFT = 16
_T = 1 << _SHIFT


def _pow_mod64(base: np.uint64, exp: np.ndarray) -> np.ndarray:
    """base**exp mod 2^64, vectorized binary exponentiation."""
    result = np.ones(len(exp), dtype=_U64)
    b = int(base)
    e = exp.astype(_U64)
    maxe = int(e.max()) if len(e) else 0
    bit = 0
    while (1 << bit) <= maxe:
        mask = (e >> _U64(bit)) & _U64(1) == 1
        result[mask] *= _U64(b)
        b = (b * b) & 0xFFFFFFFFFFFFFFFF
        bit += 1
    return result


def _powers(base: np.uint64, n: int) -> np.ndarray:
    """[base^0 .. base^(n-1)] mod 2^64."""
    out = np.ones(n, dtype=_U64)
    np.cumprod(np.full(n - 1, base, dtype=_U64), out=out[1:])
    return out


_POW = _powers(_P, _T + 1)
_INV = _powers(_PINV, _T + 1)
_GEO = np.zeros(_T + 1, dtype=_U64)
np.cumsum(_POW[:-1], out=_GEO[1:])


def _poly_hash_segments(values: np.ndarray, offsets: np.ndarray,
                        k: np.uint64 = _K) -> np.ndarray:
    """Per-segment hash sum((v+k) * P^pos_in_segment) mod 2^64 (0 for an
    empty segment) — the one polynomial kernel behind the string hashes,
    row hashes and rolling fingerprints.

    Computed as P^(-start) * sum(v_i * P^i) over GLOBAL positions i plus
    k * sum_{j<len} P^j — bit-identical to the per-segment formulation (P
    odd => P^-1 exists mod 2^64) with no per-value position gather. The
    global sums are built tile by tile: each tile's products are reduced
    at the segment starts inside it (plus the head of a segment the tile
    opens inside) and scaled by PB^t."""
    n = len(offsets) - 1
    m = len(values)
    out = np.zeros(n, dtype=_U64)
    if m == 0:
        return out
    lengths = np.diff(offsets)
    nz = lengths > 0
    starts = offsets[:-1][nz]
    lengths = lengths[nz]
    # per call: PB^q, PB^-q and sum_{q'<q} PB^q' for every block q <= m/T
    nt = (m + _T - 1) // _T
    blk = _powers(_POW[_T], nt + 1)
    blk_inv = _powers(_INV[_T], nt + 1)
    blk_geo = np.zeros(nt + 1, dtype=_U64)
    np.cumsum(blk[:-1], out=blk_geo[1:])
    # segments [first[t], first[t+1]) start inside tile t
    first = np.searchsorted(starts, np.arange(nt + 1) * _T).tolist()
    seg = np.zeros(len(starts), dtype=_U64)
    scratch = np.empty(min(_T, m), dtype=_U64)
    for t in range(nt):
        s = t * _T
        buf = scratch[: min(m - s, _T)]
        # the cast-assign sign-extends signed values mod 2^64; a separate
        # in-L2 multiply beats one casting multiply
        buf[...] = values[s: s + len(buf)]
        buf *= _POW[: len(buf)]
        i0, i1 = first[t], first[t + 1]
        local = starts[i0:i1] - s
        # a tile that opens inside segment i0-1 adds its head to it
        head = int(i0 == i1 or local[0] != 0)
        if head:
            local = np.concatenate(([0], local))
        sums = np.add.reduceat(buf, local)
        sums *= blk[t]
        seg[i0 - head: i1] += sums
    seg *= blk_inv[starts >> _SHIFT] * _INV[starts & (_T - 1)]
    q = lengths >> _SHIFT
    seg += _U64(k) * (_GEO[_T] * blk_geo[q] + blk[q] * _GEO[lengths & (_T - 1)])
    out[nz] = seg
    return out


def string_hashes64(arr: pa.Array) -> np.ndarray:
    """64-bit per-value hashes of a string column — feeds cardinality
    sketches, bloom filters and hash partitioning: an FNV seed plus the
    polynomial kernel over the value bytes, then a splitmix-style
    avalanche."""
    data, offsets = string_bytes(arr)
    if len(data) == 0:
        # a column without a single byte hashes every value to 0, unlike
        # an empty value among others (pinned: written blooms hold these)
        return np.zeros(len(offsets) - 1, dtype=_U64)
    out = _poly_hash_segments(data, offsets, _U64(0x9E3779B9))
    out += _U64(0xCBF29CE484222325)
    out ^= out >> _U64(30)
    out *= _U64(0xBF58476D1CE4E5B9)
    out ^= out >> _U64(27)
    return out


def dictionary_decode(indexes: np.ndarray, blob: bytes, lengths: np.ndarray) -> pa.Array:
    """Rebuild the column as an Arrow DictionaryArray (no value
    materialization; downstream casts to plain string only if asked)."""
    dict_arr = strings_from_blob(blob, lengths)
    return pa.DictionaryArray.from_arrays(
        pa.array(indexes.astype(np.int32), type=pa.int32()), dict_arr
    )
