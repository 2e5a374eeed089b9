"""Vectorized text hashing kernels shared by the dedup / text-analysis
operators (no Python-per-row loops — everything runs over the batch's
concatenated Arrow string buffers, read through
``codecs.dictionary.string_bytes``).

Two word-hash families:

- ``string_hashes64`` (codecs/dictionary.py): the engine's one 64-bit
  polynomial byte-segment kernel, ``_poly_hash_segments``, with an FNV
  seed and an avalanche. Used where only internal consistency matters
  (MinHash shingles).
- ``word_hashes31`` + ``mix64``: a 31-bit polynomial hash mod (2^31-1)
  expanded to 64 bits by a multiply+xor-shift mix. Deliberately simple so
  a DuckDB oracle can reproduce it bit-for-bit over ASCII text (the SQL
  fragment builders live here too). Used by the SimHash operator so
  ``simhash_pairs`` is oracle-checkable.

Reference parity note: the reference engine (scritchley/orc) has no text
operators; these support the LLM-data-pipeline extensions mandated by the
build brief (dedup, fingerprinting, token counting).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..codecs.dictionary import one_chunk, string_bytes, string_hashes64

P31 = (1 << 31) - 1
MIX_K = 0x9E3779B97F4A7C15
_U64 = np.uint64

# 131^i mod (2^31-1), grown on demand (word length is the index)
_POW131 = np.array([pow(131, i, P31) for i in range(64)], dtype=np.uint64)


def _pow131(n: int) -> np.ndarray:
    global _POW131
    if n > len(_POW131):
        _POW131 = np.array([pow(131, i, P31) for i in range(n)], dtype=np.uint64)
    return _POW131


def flat_words(texts) -> tuple[pa.Array, np.ndarray]:
    """Split every doc on single spaces (same semantics as Python's
    ``s.split(' ')``, including empty words for runs of spaces) and return
    (flat word array over the whole batch, words-per-doc counts)."""
    lst = pc.split_pattern(one_chunk(texts), " ")
    counts = pc.list_value_length(lst).to_numpy(zero_copy_only=False).astype(np.int64)
    return lst.flatten(), counts


HASH_MAX_WORD = 256  # positions beyond this are ignored on BOTH sides


def word_hashes31(flat: pa.Array) -> np.ndarray:
    """SQL-mirrorable 31-bit polynomial hash per word:
    h(w) = sum_{i < 256} (byte_i + 7) * 131^i  mod (2^31 - 1).

    Only the first HASH_MAX_WORD bytes contribute — exactly matching the
    SQL mirror, whose power-table CTE (sql_pows_cte) covers positions
    0..255 and whose inner join drops later positions. Bytewise, which
    equals the DuckDB mirror's codepoint-wise ``ord()`` only for ASCII
    text (the sandbox corpus is ASCII; the oracle compare would surface
    any drift)."""
    blob, off = string_bytes(flat)
    lengths = np.diff(off)
    n = len(lengths)
    if len(blob) == 0:
        return np.zeros(n, dtype=np.uint64)
    pos = np.arange(len(blob), dtype=np.int64) - np.repeat(off[:-1], lengths)
    pows = _pow131(min(int(lengths.max()), HASH_MAX_WORD))
    # (byte+7) < 2^9, pow < 2^31, word len <= 256 -> sum < 2^48: no overflow
    inb = pos < HASH_MAX_WORD
    terms = np.zeros(len(blob), dtype=np.uint64)
    terms[inb] = (blob[inb].astype(np.uint64) + _U64(7)) * pows[pos[inb]]
    out = np.zeros(n, dtype=np.uint64)
    nz = lengths > 0
    if nz.any():
        out[nz] = np.add.reduceat(terms, off[:-1][nz])
    return out % _U64(P31)


def mix64(h31: np.ndarray) -> np.ndarray:
    """Expand a 31-bit hash to 64 well-spread bits: m = h*K mod 2^64;
    g = m xor (m >> 31). Exactly mirrored in SQL by sql_mix64()."""
    m = h31.astype(np.uint64) * _U64(MIX_K)  # uint64 wraparound == mod 2^64
    return m ^ (m >> _U64(31))


# --- SQL fragment builders (DuckDB oracle mirrors) -------------------------

def sql_pows_cte(max_len: int = HASH_MAX_WORD) -> str:
    """CTE rows (i, 131^i mod 2^31-1) for word positions 0..max_len-1.
    The inner join against this table truncates words at max_len
    positions — word_hashes31 applies the identical truncation, so the
    two sides agree on arbitrarily long tokens."""
    vals = ", ".join(f"({i}, {pow(131, i, P31)})" for i in range(max_len))
    return f"pows(i, p) AS (VALUES {vals})"

def sql_wordhash31(word_src_cte: str, word_col: str = "w") -> str:
    """CTE chain computing h31 per distinct word of ``word_src_cte``
    (which must expose column ``w``); yields CTE ``g64`` with (w, g)
    where g is the mixed 64-bit UBIGINT hash."""
    return f"""
terms AS (
  SELECT {word_col}, SUM(CAST(ord(substr({word_col}, c.i + 1, 1)) + 7 AS BIGINT) * pw.p) AS s
  FROM {word_src_cte}, unnest(range(0, len({word_col}))) AS c(i)
  JOIN pows pw ON pw.i = c.i
  GROUP BY {word_col}
),
h31 AS (
  SELECT {word_col}, COALESCE(s, 0) % 2147483647 AS h
  FROM {word_src_cte} LEFT JOIN terms USING ({word_col})
),
g64 AS (
  SELECT {word_col},
         xor(CAST(m AS UBIGINT), CAST(m // 2147483648 AS UBIGINT)) AS g
  FROM (SELECT {word_col},
               (CAST(h AS HUGEINT) * {MIX_K}) % 18446744073709551616 AS m
        FROM h31)
)"""


# --- shingles (MinHash feature sets) ---------------------------------------

def shingle_sets(texts, k: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """Per-doc sets of k-word-shingle hashes, fully vectorized.

    Returns (flat sorted-unique shingle hashes, per-doc offsets into it;
    offsets has len(docs)+1 entries). Docs with fewer than k words get an
    empty set (they can never pair — mirrors the SQL oracle's behavior).
    """
    flat, counts = flat_words(texts)
    wh = string_hashes64(flat)
    ndocs = len(counts)
    woff = np.zeros(ndocs + 1, dtype=np.int64)
    np.cumsum(counts, out=woff[1:])
    total = int(woff[-1])
    if total < k:
        return np.empty(0, np.uint64), np.zeros(ndocs + 1, np.int64)
    # sliding-window polynomial combination over k terms (uint64 wraparound):
    # s(p) = sum_i wh[p+i] * C^(k-1-i)
    C = 0x100000001B3
    nwin = total - k + 1
    s = np.zeros(nwin, dtype=np.uint64)
    for i in range(k):
        s = s * _U64(C) + wh[i: nwin + i]
    # a window starting at p belongs to doc d and is valid iff it does not
    # cross the doc boundary: p <= woff[d+1] - k
    starts = s.shape[0]
    doc_of = np.repeat(np.arange(ndocs, dtype=np.int64), counts)[:starts]
    valid = np.arange(starts, dtype=np.int64) <= woff[doc_of + 1] - k
    sv = s[valid]
    dv = doc_of[valid]
    # per-doc unique via one global lexsort (doc-major, then value)
    order = np.lexsort((sv, dv))
    sv = sv[order]
    dv = dv[order]
    if len(sv):
        keep = np.empty(len(sv), dtype=bool)
        keep[0] = True
        keep[1:] = (dv[1:] != dv[:-1]) | (sv[1:] != sv[:-1])
        sv = sv[keep]
        dv = dv[keep]
    per_doc = np.bincount(dv, minlength=ndocs).astype(np.int64)
    offsets = np.zeros(ndocs + 1, dtype=np.int64)
    np.cumsum(per_doc, out=offsets[1:])
    return sv, offsets


# --- SimHash ---------------------------------------------------------------

def simhash_signatures(texts) -> np.ndarray:
    """64-bit SimHash per doc over the SQL-mirrorable word hash: bit b is
    set iff sum over word occurrences of (2*bit_b(g(word)) - 1) > 0."""
    flat, counts = flat_words(texts)
    g = mix64(word_hashes31(flat))
    ndocs = len(counts)
    woff = np.zeros(ndocs + 1, dtype=np.int64)
    np.cumsum(counts, out=woff[1:])
    shifts = np.arange(64, dtype=np.uint64)
    # (+1/-1) contribution matrix, summed per doc segment (int32 keeps the
    # temporaries half-sized; safe for docs up to 2^31 words)
    bits = ((g[:, None] >> shifts[None, :]) & _U64(1)).astype(np.int32)
    contrib = bits * 2 - 1
    sums = np.zeros((ndocs, 64), dtype=np.int32)
    nz = counts > 0
    if nz.any():
        sums[nz] = np.add.reduceat(contrib, woff[:-1][nz], axis=0)
    weights = _U64(1) << shifts
    return ((sums > 0).astype(np.uint64) * weights[None, :]).sum(
        axis=1, dtype=np.uint64)


_POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized popcount for uint64 arrays (numpy<2 has no
    bitwise_count)."""
    if len(x) == 0:
        return np.zeros(0, dtype=np.int64)
    b = np.ascontiguousarray(x, dtype=np.uint64).view(np.uint8)
    return _POP8[b].reshape(len(x), 8).sum(axis=1).astype(np.int64)


# --- BPE-ish token counting ------------------------------------------------

_WORDCHAR = np.zeros(256, dtype=bool)
for _c in (b"abcdefghijklmnopqrstuvwxyz"
           b"ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_"):
    _WORDCHAR[_c] = True
_SPACE = np.zeros(256, dtype=bool)
for _c in b" \t\n\r\x0b\x0c":
    _SPACE[_c] = True


def bpe_token_counts(texts) -> np.ndarray:
    """Per-doc count of matches of ``[A-Za-z0-9_]+|[^A-Za-z0-9_\\s]`` —
    computed as (# word-char runs) + (# non-word non-space chars) over the
    batch's concatenated byte buffer. ASCII-only fast path; non-ASCII
    batches fall back to the compiled regex per doc."""
    arr = one_chunk(texts)
    blob, off = string_bytes(arr)
    lengths = np.diff(off)
    n = len(lengths)
    if len(blob) == 0:
        return np.zeros(n, dtype=np.int64)
    if blob.max() >= 0x80:  # multi-byte chars: bytewise classes are wrong
        import re

        rx = re.compile(r"[A-Za-z0-9_]+|[^A-Za-z0-9_\s]")
        return np.array([len(rx.findall(t)) for t in arr.to_pylist()],
                        dtype=np.int64)
    isw = _WORDCHAR[blob]
    punct = ~isw & ~_SPACE[blob]
    run_start = isw.copy()
    run_start[1:] &= ~isw[:-1]
    run_start[off[:-1][lengths > 0]] = isw[off[:-1][lengths > 0]]  # doc starts
    units = run_start.astype(np.int64) + punct.astype(np.int64)
    out = np.zeros(n, dtype=np.int64)
    nz = lengths > 0
    if nz.any():
        out[nz] = np.add.reduceat(units, off[:-1][nz])
    return out
