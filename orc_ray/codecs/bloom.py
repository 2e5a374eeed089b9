"""Per-stripe bloom filters for point-lookup data skipping.

ORC defines a BLOOM_FILTER stream kind (/root/reference/proto/orc.proto:
102-119) that the reference never emits or reads — only the enum exists.
Real ORC writers attach per-row-group bloom filters over column values so
readers can skip row groups for equality predicates without touching DATA
streams. Re-created here at stripe granularity, Ray-Data-first: the
filter is one more named stream inside the blob, a point lookup reads
ONLY its (offset, length) byte range from the blob file, and full column
decode happens only for stripes the filter cannot rule out.

Layout (little-endian): ``u32 k | u32 reserved | u64 m_bits | bits``.
Probing is Kirsch-Mitzenmacher double hashing g_i = h1 + i*h2 over one
vectorized 64-bit polynomial hash (h2 = splitmix64 remix, forced odd so
it is a full-cycle stride for the power-of-two m). All build/query paths
are numpy-vectorized over the whole value array.
"""

from __future__ import annotations

import struct

import numpy as np
import pyarrow as pa

_U64 = np.uint64
_HEADER = struct.Struct("<IIQ")
DEFAULT_BITS_PER_VALUE = 10  # fpp ~0.9% at k=7
DEFAULT_K = 7


_GAMMA = _U64(0x9E3779B97F4A7C15)  # splitmix64's state increment


def splitmix64(h: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer, a bijective 64-bit mix of a uint64
    array (the input is left as it is)."""
    h = h ^ (h >> _U64(30))
    h *= _U64(0xBF58476D1CE4E5B9)
    h ^= h >> _U64(27)
    h *= _U64(0x94D049BB133111EB)
    h ^= h >> _U64(31)
    return h


def hash_ints(vals: np.ndarray) -> np.ndarray:
    """64-bit hashes of an int array (any int dtype)."""
    return splitmix64(vals.astype(np.int64).view(_U64) + _GAMMA)


def hash_strings(arr: pa.Array) -> np.ndarray:
    """64-bit hashes of a string column (vectorized, zero-copy buffers)."""
    from .dictionary import string_hashes64

    return string_hashes64(arr)


def _probe_positions(h: np.ndarray, m_bits: int, k: int) -> np.ndarray:
    h1 = h.astype(_U64)
    h2 = splitmix64((h1 ^ _U64(0xD6E8FEB86659FD93)) + _GAMMA) | _U64(1)
    steps = np.arange(k, dtype=_U64)
    idx = h1[:, None] + steps[None, :] * h2[:, None]
    return (idx & _U64(m_bits - 1)).astype(np.int64)


def build(hashes: np.ndarray,
          bits_per_value: int = DEFAULT_BITS_PER_VALUE,
          k: int = DEFAULT_K) -> bytes:
    """Serialize a bloom filter over pre-hashed values."""
    n = max(1, len(hashes))
    m_bits = 1 << max(6, int(np.ceil(np.log2(n * bits_per_value))))
    pos = _probe_positions(hashes, m_bits, k).reshape(-1)
    dense = np.zeros(m_bits, dtype=bool)
    dense[pos] = True
    bits = np.packbits(dense, bitorder="little")
    return _HEADER.pack(k, 0, m_bits) + bits.tobytes()


def might_contain(filt: bytes, hashes: np.ndarray) -> np.ndarray:
    """Per-value membership test; True = possibly present."""
    k, _, m_bits = _HEADER.unpack_from(filt, 0)
    bits = np.frombuffer(filt, dtype=np.uint8, offset=_HEADER.size)
    if len(hashes) == 0:
        return np.zeros(0, dtype=bool)
    pos = _probe_positions(hashes, int(m_bits), int(k))
    got = (bits[pos >> 3] >> (pos & 7).astype(np.uint8)) & 1
    return got.all(axis=1)
