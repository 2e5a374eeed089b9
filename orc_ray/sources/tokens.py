"""Token-table inputs.

The engine's input shape (BASELINE.json input_hint) is
``(doc_id: string, tokens: list<int32>, n_tok: int32, source: string)``.
Two deterministic ways to obtain it in the sandbox:

1. ``tokenize_documents`` — derive it from the driver's ``documents`` table
   with a byte-level tokenizer whose exact SQL mirror runs in DuckDB (used
   by the correctness oracle):

     tokens = list_transform(string_split(text, ' '),
                w -> CASE WHEN length(w) = 0 THEN 0
                     ELSE (length(w) * 131 + unicode(w)) % 50257 END)
     doc_id = source || '-' || lpad(CAST(doc_id AS VARCHAR), 12, '0')

   (texts are ASCII, so unicode(first char) == first byte.)

2. ``synthesize_tokens`` — the FIXTURES.md F1 recipe at arbitrary scale for
   benchmarks: Zipf-weighted sources, lognormal n_tok with a heavy tail,
   token lists mixing uniform ids / repeated runs / monotone ramps so every
   RLEv2 sub-mode is exercised.

Both are pure vectorized pyarrow/numpy batch transforms, usable directly in
``Dataset.map_batches``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..codecs.dictionary import string_bytes

VOCAB = 50257

TOKENIZE_SQL_EXPR = (
    "list_transform(string_split(text, ' '), "
    "w -> CASE WHEN length(w) = 0 THEN 0 "
    "ELSE (length(w) * 131 + unicode(w)) % 50257 END)"
)
DOC_ID_SQL_EXPR = "source || '-' || lpad(CAST(doc_id AS VARCHAR), 12, '0')"


def tokenize_text_column(text: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized tokenizer over an Arrow string column.

    Words are single-space splits (consecutive spaces yield empty words,
    exactly like DuckDB string_split). Token id of word w:
    ``0 if len(w)==0 else (len(w)*131 + first_byte(w)) % VOCAB``.
    Returns (token_values int32, n_tok int64 per row).
    """
    blob, offsets = string_bytes(text)
    n = len(offsets) - 1

    space_pos = np.flatnonzero(blob == 32)
    # word k spans [starts[k], ends[k]) after merging doc and space boundaries
    starts = np.sort(np.concatenate([offsets[:-1], space_pos + 1]))
    ends = np.sort(np.concatenate([space_pos, offsets[1:]]))
    wlen = ends - starts
    pad = np.zeros(len(blob) + 1, dtype=np.uint8)
    pad[: len(blob)] = blob
    first = pad[starts].astype(np.int64)
    tok = np.where(wlen == 0, 0, (wlen * 131 + first) % VOCAB).astype(np.int32)

    doc_of_space = np.searchsorted(offsets, space_pos, side="right") - 1
    n_tok = np.bincount(doc_of_space, minlength=n).astype(np.int64) + 1
    return tok, n_tok


def _doc_id_strings(source: pa.Array, doc_id: pa.Array) -> pa.Array:
    """source || '-' || lpad(doc_id, 12, '0'), vectorized via numpy str ops."""
    src = np.asarray(source.to_numpy(zero_copy_only=False), dtype=object)
    ids = doc_id.to_numpy(zero_copy_only=False)
    padded = np.char.zfill(ids.astype("U12"), 12)
    out = np.char.add(np.char.add(src.astype("U32"), "-"), padded)
    return pa.array(out.tolist(), type=pa.string())


def tokenize_documents(batch: pa.Table) -> pa.Table:
    """documents batch (doc_id, text, source, ...) -> token table batch."""
    tok, n_tok = tokenize_text_column(batch.column("text"))
    n = batch.num_rows
    offsets = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(n_tok, out=offsets[1:])
    tokens = pa.ListArray.from_arrays(
        pa.array(offsets, type=pa.int32()), pa.array(tok, type=pa.int32())
    )
    src = batch.column("source")
    if isinstance(src, pa.ChunkedArray):
        src = src.combine_chunks()
    did = batch.column("doc_id")
    if isinstance(did, pa.ChunkedArray):
        did = did.combine_chunks()
    return pa.table({
        "doc_id": _doc_id_strings(src, did),
        "tokens": tokens,
        "n_tok": pa.array(n_tok.astype(np.int32), type=pa.int32()),
        "source": src.cast(pa.string()),
    })


# ---------------------------------------------------------------------------
# synthetic F1 table
# ---------------------------------------------------------------------------

SOURCES = np.array(["web", "books", "code", "wiki", "news", "forum", "paper", "chat"])
_SOURCE_WEIGHTS = 1.0 / np.arange(1, len(SOURCES) + 1) ** 1.5
_SOURCE_WEIGHTS /= _SOURCE_WEIGHTS.sum()


def synthesize_tokens(
    num_rows: int,
    seed: int = 42,
    row_offset: int = 0,
    mean_log: float = 5.0,
    sigma_log: float = 1.2,
    max_tok: int = 65_536,
) -> pa.Table:
    """Deterministic F1 token table (FIXTURES.md). ``row_offset`` makes
    shard generation reproducible: shard k of size m uses
    ``row_offset=k*m`` and identical global content."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, row_offset]))
    n = num_rows
    src_idx = rng.choice(len(SOURCES), size=n, p=_SOURCE_WEIGHTS)
    n_tok = np.clip(rng.lognormal(mean_log, sigma_log, n), 1, max_tok).astype(np.int64)
    total = int(n_tok.sum())
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(n_tok, out=offsets[1:])

    mode = rng.integers(0, 4, size=n)  # 0,1: uniform  2: runs  3: ramps
    pos_row = np.repeat(np.arange(n), n_tok)
    pos_in_row = np.arange(total, dtype=np.int64) - np.repeat(offsets[:-1], n_tok)
    vals = np.empty(total, dtype=np.int64)
    mode_per_pos = mode[pos_row]

    m_uniform = mode_per_pos <= 1
    vals[m_uniform] = rng.integers(0, VOCAB, size=int(m_uniform.sum()))
    row_val = rng.integers(0, VOCAB, size=n)
    m_runs = mode_per_pos == 2
    vals[m_runs] = row_val[pos_row[m_runs]]
    row_start = rng.integers(0, VOCAB, size=n)
    m_ramp = mode_per_pos == 3
    vals[m_ramp] = (row_start[pos_row[m_ramp]] + pos_in_row[m_ramp]) % VOCAB

    ids = np.arange(row_offset, row_offset + n)
    doc_id = np.char.add(
        np.char.add(SOURCES[src_idx].astype("U8"), "-"),
        np.char.zfill(ids.astype("U12"), 12),
    )
    tokens = pa.ListArray.from_arrays(
        pa.array(offsets.astype(np.int32), type=pa.int32()),
        pa.array(vals.astype(np.int32), type=pa.int32()),
    )
    return pa.table({
        "doc_id": pa.array(doc_id.tolist(), type=pa.string()),
        "tokens": tokens,
        "n_tok": pa.array(n_tok.astype(np.int32), type=pa.int32()),
        "source": pa.array(SOURCES[src_idx].tolist(), type=pa.string()),
    })


def write_synthetic_shards(
    out_dir: str,
    num_rows: int,
    num_shards: int,
    seed: int = 42,
    rows_per_row_group: int = 2048,
    **kwargs,
) -> list[str]:
    """Materialize the synthetic table as parquet shards (bench input)."""
    import os

    import pyarrow.parquet as pq

    os.makedirs(out_dir, exist_ok=True)
    per = num_rows // num_shards
    jobs = []
    for k in range(num_shards):
        rows = per if k < num_shards - 1 else num_rows - per * (num_shards - 1)
        jobs.append((out_dir, k, rows, k * per, seed,
                     rows_per_row_group, kwargs))
    if num_rows >= 1_000_000 and num_shards > 1:
        # shards are independent (seed + row_offset determinism) — large
        # corpora synthesize in parallel processes
        import multiprocessing as mp

        with mp.get_context("spawn").Pool(min(num_shards, 8)) as pool:
            return pool.map(_write_one_shard, jobs)
    return [_write_one_shard(j) for j in jobs]


def _write_one_shard(job) -> str:
    import os

    import pyarrow.parquet as pq

    out_dir, k, rows, row_offset, seed, rows_per_row_group, kwargs = job
    t = synthesize_tokens(rows, seed=seed, row_offset=row_offset, **kwargs)
    path = os.path.join(out_dir, f"tokens-{k:05d}.parquet")
    tmp = path + ".tmp"
    pq.write_table(t, tmp, row_group_size=rows_per_row_group)
    os.replace(tmp, path)
    return path
