"""Text analysis stages: token counting, quality scoring, language ID,
document fingerprinting.

Each is a vectorized per-batch transform over the ``documents`` table.
Where an exact DuckDB mirror exists it is defined alongside (used by the
correctness oracle); heuristics without a SQL equivalent (language ID) get
rows-only checks.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..codecs.dictionary import _poly_hash_segments, string_bytes

# --- token counting --------------------------------------------------------

# BPE-ish pre-tokenizer: word pieces or single non-space punctuation
TOKEN_RE = re.compile(r"[A-Za-z0-9_]+|[^A-Za-z0-9_\s]")
TOKEN_RE_SQL = "[A-Za-z0-9_]+|[^A-Za-z0-9_ \\t\\n]"


def token_count_batch(batch: pa.Table) -> pa.Table:
    """Words (space-separated) and BPE-ish tokens (TOKEN_RE) per doc. The
    token count is computed vectorized over the batch's concatenated byte
    buffer (texthash.bpe_token_counts) — equivalent to len(findall) of
    TOKEN_RE but with no per-row Python; the regex remains only as the
    non-ASCII fallback inside the kernel."""
    from .texthash import bpe_token_counts

    ws = pc.count_substring(batch.column("text"), " ")
    return pa.table({
        "doc_id": batch.column("doc_id").cast(pa.int64()),
        "n_words": pc.add(ws, 1).cast(pa.int64()),
        "n_bpe_tokens": pa.array(bpe_token_counts(batch.column("text")),
                                 type=pa.int64()),
    })


SQL_TOKEN_COUNT = (
    "SELECT doc_id, len(string_split(text, ' ')) AS n_words, "
    f"len(regexp_extract_all(text, '{TOKEN_RE_SQL}')) AS n_bpe_tokens "
    "FROM documents"
)


# --- quality scoring -------------------------------------------------------

STOPWORDS = ("the", "a", "of", "and", "to", "in", "is", "it")


def quality_batch(batch: pa.Table) -> pa.Table:
    """Purely arithmetic quality features so the SQL mirror is exact:
    n_chars, n_words, mean_word_len (x1000, integer), stopword_hits,
    upper-bounded length score."""
    text = batch.column("text")
    n_chars = pc.utf8_length(text).cast(pa.int64())
    n_words = pc.add(pc.count_substring(text, " "), 1).cast(pa.int64())
    mean_wl = pc.cast(
        pc.divide(
            pc.multiply(pc.subtract(n_chars, pc.subtract(n_words, 1)), 1000),
            n_words,
        ),
        pa.int64(),
    )
    stop_hits = None
    for w in STOPWORDS:
        h = pc.count_substring(text, f" {w} ").cast(pa.int64())
        stop_hits = h if stop_hits is None else pc.add(stop_hits, h)
    length_score = pc.min_element_wise(n_words, 100).cast(pa.int64())
    return pa.table({
        "doc_id": batch.column("doc_id").cast(pa.int64()),
        "n_chars": n_chars,
        "n_words": n_words,
        "mean_word_len_x1000": mean_wl,
        "stopword_hits": stop_hits,
        "length_score": length_score,
    })


# count_substring(text, pat) == (len(text)-len(replace(text,pat,'')))/len(pat)
_stop_terms = " + ".join(
    f"(len(text) - len(replace(text, ' {w} ', ''))) // {len(w) + 2}"
    for w in STOPWORDS
)
SQL_QUALITY = (
    "SELECT doc_id, length(text) AS n_chars, "
    "len(string_split(text, ' ')) AS n_words, "
    "(length(text) - (len(string_split(text, ' ')) - 1)) * 1000 "
    "  // len(string_split(text, ' ')) AS mean_word_len_x1000, "
    f"CAST({_stop_terms} AS BIGINT) AS stopword_hits, "
    "CAST(least(len(string_split(text, ' ')), 100) AS BIGINT) AS length_score "
    "FROM documents"
)


# --- language ID (n-gram heuristic; no SQL mirror) -------------------------

_LANG_MARKERS = {
    "en": (" the ", " and ", " of ", " is "),
    "es": (" el ", " la ", " de ", " que "),
    "de": (" der ", " die ", " und ", " ist "),
    "fr": (" le ", " la ", " et ", " est "),
    "zh": ("的", "了", "是", "我"),
}


def langid_batch(batch: pa.Table) -> pa.Table:
    """Marker-frequency heuristic; scores computed vectorized per batch."""
    text = batch.column("text")
    langs = list(_LANG_MARKERS)
    scores = np.zeros((len(langs), batch.num_rows), dtype=np.int64)
    for i, lang in enumerate(langs):
        for m in _LANG_MARKERS[lang]:
            scores[i] += pc.count_substring(text, m).to_numpy(
                zero_copy_only=False
            ).astype(np.int64)
    best = np.argmax(scores, axis=0)
    none = scores.sum(axis=0) == 0
    pred = np.array(langs, dtype=object)[best]
    pred[none] = "unknown"
    return pa.table({
        "doc_id": batch.column("doc_id").cast(pa.int64()),
        "pred_lang": pa.array(pred.tolist(), type=pa.string()),
    })


def _sql_marker_count(marker: str) -> str:
    """DuckDB expression for pc.count_substring(text, marker): both count
    non-overlapping occurrences left-to-right."""
    esc = marker.replace("'", "''")
    return (f"(length(text) - length(replace(text, '{esc}', '')))"
            f" // length('{esc}')")


def _build_langid_sql() -> str:
    """Exact mirror of langid_batch: per-language marker-count sums, argmax
    with first-in-dict tie order, 'unknown' when every score is zero."""
    langs = list(_LANG_MARKERS)
    score_exprs = ", ".join(
        "(" + " + ".join(_sql_marker_count(m) for m in _LANG_MARKERS[lang])
        + f") AS s_{lang}"
        for lang in langs
    )
    all_zero = " AND ".join(f"s_{lang} = 0" for lang in langs)
    cases = []
    for i, lang in enumerate(langs):
        rest = langs[i + 1:]
        if rest:
            cond = " AND ".join(f"s_{lang} >= s_{r}" for r in rest)
            cases.append(f"WHEN {cond} THEN '{lang}'")
        else:
            cases.append(f"ELSE '{lang}'")
    case_sql = " ".join(cases)
    return (
        f"WITH s AS (SELECT doc_id, {score_exprs} FROM documents) "
        f"SELECT doc_id, CASE WHEN {all_zero} THEN 'unknown' "
        f"{case_sql} END AS pred_lang FROM s"
    )


# --- fingerprinting --------------------------------------------------------

def fingerprint_batch(batch: pa.Table) -> pa.Table:
    """md5 content fingerprint (SQL-mirrorable) + a 64-bit rolling
    Karp-Rabin hash (vectorized) for streaming dedup keys."""
    texts = batch.column("text")
    md5s = [hashlib.md5(t.encode()).hexdigest() for t in texts.to_pylist()]
    roll = _rolling_hash(texts)
    return pa.table({
        "doc_id": batch.column("doc_id").cast(pa.int64()),
        "md5": pa.array(md5s, type=pa.string()),
        "rolling64": pa.array(roll, type=pa.uint64()),
    })


def _rolling_hash(text: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """Per-doc sum((byte + 0x9E37) * P^pos) mod 2^64, P = 1099511628211."""
    return _poly_hash_segments(*string_bytes(text), np.uint64(0x9E37))


SQL_FINGERPRINT = "SELECT doc_id, md5(text) AS md5 FROM documents"

SQL_LANGID = _build_langid_sql()
