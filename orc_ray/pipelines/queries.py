"""Driver-facing query pipelines over the sandbox test tables.

Each function takes ``sf_dir`` and returns a Dataset / pyarrow Table whose
exact SQL mirror is defined next to it (consumed by __ray_entry__.py's
``oracle_sql``). Ray is assumed to be initialised by the caller.

All aggregates follow the scalable pattern: vectorized partial aggregation
inside ``map_batches`` (combiner), tiny final reduce — never a full-data
shuffle (SURVEY.md §2.5 mapping).
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..codecs.dictionary import one_chunk, value_offsets
from ..config import EncoderConfig
from ..sources.tokens import DOC_ID_SQL_EXPR, TOKENIZE_SQL_EXPR, tokenize_documents
from ..state import manifest as mf
from .decode import decode_dataset
from .encode import encode_dataset_streaming

_TOKENIZED_FROM = (
    f"(SELECT {DOC_ID_SQL_EXPR} AS doc_id, source, "
    f"{TOKENIZE_SQL_EXPR} AS toks, "
    "len(string_split(text, ' ')) AS n_tok FROM documents)"
)


def tokens_dataset(sf_dir: str):
    """documents -> token table as a streaming Dataset."""
    import ray.data

    return ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text", "source"],
    ).map_batches(tokenize_documents, batch_format="pyarrow")


def _work_dir(sf_dir: str, name: str) -> str:
    key = os.path.basename(os.path.normpath(sf_dir))
    return os.path.join("/tmp", "orc_ray_work", key, name)


def encoded_dir(sf_dir: str, fresh: bool = True) -> str:
    """Encode the derived token table (streaming path); returns out_dir."""
    out = _work_dir(sf_dir, "encoded")
    if fresh and os.path.isdir(out):
        shutil.rmtree(out)
    cfg = EncoderConfig(stripe_target_tokens=500_000)
    man = encode_dataset_streaming(tokens_dataset(sf_dir), out, cfg,
                                   batch_rows=4096)
    man.materialize()
    return out


# --- q: tokenize_stats -----------------------------------------------------

def q_tokenize_stats(sf_dir: str):
    """Per-source token stats: vectorized partial aggregation per batch
    (combiner), then a tree-reduce final merge in one worker task —
    partials never materialize on the driver."""
    import ray.data

    ds = tokens_dataset(sf_dir)

    def partial(b: pa.Table) -> pa.Table:
        return b.group_by("source").aggregate(
            [("n_tok", "count"), ("n_tok", "sum"), ("n_tok", "min"), ("n_tok", "max")]
        )

    # tree-reduce final merge in a worker task (partials are tiny: one row
    # per (batch, source)); no driver materialization, no hash-shuffle
    # actor spin-up
    parts = ds.map_batches(partial, batch_format="pyarrow")

    def merge(b: pa.Table) -> pa.Table:
        agg = b.group_by("source").aggregate([
            ("n_tok_count", "sum"), ("n_tok_sum", "sum"),
            ("n_tok_min", "min"), ("n_tok_max", "max"),
        ])
        return pa.table({
            "source": agg.column("source"),
            "n_docs": agg.column("n_tok_count_sum").cast(pa.int64()),
            "sum_n_tok": agg.column("n_tok_sum_sum").cast(pa.int64()),
            "min_n_tok": agg.column("n_tok_min_min").cast(pa.int64()),
            "max_n_tok": agg.column("n_tok_max_max").cast(pa.int64()),
        }).sort_by("source")

    return parts.repartition(1).map_batches(merge, batch_format="pyarrow")


SQL_TOKENIZE_STATS = (
    "SELECT source, count(*) AS n_docs, CAST(sum(n_tok) AS BIGINT) AS sum_n_tok, "
    "min(n_tok) AS min_n_tok, max(n_tok) AS max_n_tok "
    f"FROM {_TOKENIZED_FROM} GROUP BY source ORDER BY source"
)


# --- q: roundtrip_tokens ---------------------------------------------------

def _row_summaries(batch: pa.Table) -> pa.Table:
    """Per-row scalar fingerprints of the tokens list (sum/min/max/first/
    last) — list columns summarized so the oracle compare stays scalar."""
    col = one_chunk(batch.column("tokens"))
    offsets = value_offsets(col)
    vals = col.values.slice(int(offsets[0]), int(offsets[-1] - offsets[0]))
    v = vals.to_numpy(zero_copy_only=False).astype(np.int64)
    off = offsets - offsets[0]
    lengths = np.diff(off)
    starts = off[:-1]
    nz = lengths > 0
    tok_sum = np.zeros(len(lengths), dtype=np.int64)
    tok_min = np.zeros(len(lengths), dtype=np.int64)
    tok_max = np.zeros(len(lengths), dtype=np.int64)
    if nz.any():
        tok_sum[nz] = np.add.reduceat(v, starts[nz])
        tok_min[nz] = np.minimum.reduceat(v, starts[nz])
        tok_max[nz] = np.maximum.reduceat(v, starts[nz])
    pad = np.concatenate([v, [0]])
    tok_first = pad[starts]
    tok_last = pad[np.maximum(off[1:] - 1, starts)]
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "source": batch.column("source"),
        "n_tok": batch.column("n_tok").cast(pa.int64()),
        "tok_sum": pa.array(tok_sum, type=pa.int64()),
        "tok_min": pa.array(tok_min, type=pa.int64()),
        "tok_max": pa.array(tok_max, type=pa.int64()),
        "tok_first": pa.array(tok_first, type=pa.int64()),
        "tok_last": pa.array(tok_last, type=pa.int64()),
    })


def q_roundtrip_tokens(sf_dir: str):
    """Full encode -> decode round-trip; rows summarized from the DECODED
    table, so any decode corruption breaks the oracle compare."""
    out = encoded_dir(sf_dir, fresh=True)
    return decode_dataset(out).map_batches(
        _row_summaries, batch_format="pyarrow")


SQL_ROUNDTRIP_TOKENS = (
    "SELECT doc_id, source, n_tok, "
    "CAST(list_aggregate(toks, 'sum') AS BIGINT) AS tok_sum, "
    "CAST(list_aggregate(toks, 'min') AS BIGINT) AS tok_min, "
    "CAST(list_aggregate(toks, 'max') AS BIGINT) AS tok_max, "
    "toks[1] AS tok_first, toks[-1] AS tok_last "
    f"FROM {_TOKENIZED_FROM}"
)


# --- q: export_roundtrip (distributed parquet sink) -------------------------

def q_export_roundtrip(sf_dir: str):
    """Encoded dir -> streamed decode -> ``Dataset.write_parquet`` directory
    (the distributed sink; one file per output block, nothing on the
    driver) -> read the exported parquet back -> per-row summaries. Any
    corruption in decode OR the sink breaks the oracle compare."""
    import ray.data

    enc = _work_dir(sf_dir, "encoded")
    if not os.path.isdir(mf.manifest_dir(enc)):
        encoded_dir(sf_dir, fresh=True)
    out = _work_dir(sf_dir, "exported_parquet")
    shutil.rmtree(out, ignore_errors=True)
    decode_dataset(enc).write_parquet(out)
    return ray.data.read_parquet(out).map_batches(
        _row_summaries, batch_format="pyarrow")


SQL_EXPORT_ROUNDTRIP = SQL_ROUNDTRIP_TOKENS


# --- q: manifest_stats -----------------------------------------------------

def q_manifest_stats(sf_dir: str) -> pa.Table:
    """File-level statistics merged from per-stripe manifest stats (the
    columnstatistics.go:106-163 analogue): totals must equal a direct scan."""
    import json

    out = _work_dir(sf_dir, "encoded")
    if not os.path.isdir(mf.manifest_dir(out)):
        encoded_dir(sf_dir, fresh=True)
    man = mf.read_manifest(out)
    num_rows = 0
    sum_n_tok = 0
    min_n_tok = None
    max_n_tok = None
    for mj in man.column("meta_json").to_pylist():
        meta = json.loads(mj)
        for cm in meta["columns"]:
            if cm["name"] == "n_tok":
                st = cm["stats"]
                num_rows += st["num_values"]
                sum_n_tok += st["sum"]
                min_n_tok = st["min"] if min_n_tok is None else min(min_n_tok, st["min"])
                max_n_tok = st["max"] if max_n_tok is None else max(max_n_tok, st["max"])
    return pa.table({
        "num_docs": pa.array([num_rows], type=pa.int64()),
        "sum_n_tok": pa.array([sum_n_tok], type=pa.int64()),
        "min_n_tok": pa.array([min_n_tok], type=pa.int64()),
        "max_n_tok": pa.array([max_n_tok], type=pa.int64()),
    })


SQL_MANIFEST_STATS = (
    "SELECT count(*) AS num_docs, CAST(sum(n_tok) AS BIGINT) AS sum_n_tok, "
    "min(n_tok) AS min_n_tok, max(n_tok) AS max_n_tok "
    f"FROM {_TOKENIZED_FROM}"
)


# --- q: bool_stats ---------------------------------------------------------

def q_bool_stats(sf_dir: str) -> pa.Table:
    """documents -> derive a bool column -> stripe encode -> file-level
    column-statistics merge (A6: the bool bucket/true_count merge the
    reference stubs out, columnstatistics.go:224-241). The merged footer
    stats must equal a direct SQL aggregation of the source."""
    import ray.data

    out = _work_dir(sf_dir, "encoded_bool")
    if os.path.isdir(out):
        shutil.rmtree(out)

    def derive(b: pa.Table) -> pa.Table:
        n_chars = b.column("n_chars").cast(pa.int64())
        return pa.table({
            "doc_id": b.column("doc_id").cast(pa.int64()),
            "is_long": pc.greater_equal(n_chars, 300),
            "n_chars": n_chars,
        })

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["doc_id", "n_chars"])
    src = ds.map_batches(derive, batch_format="pyarrow")
    cfg = EncoderConfig(stripe_target_tokens=500_000)
    encode_dataset_streaming(src, out, cfg, batch_rows=4096).materialize()
    st = mf.column_stats(out)
    return pa.table({
        "num_docs": pa.array([st["is_long"]["num_values"]], type=pa.int64()),
        "true_count": pa.array([st["is_long"]["true_count"]], type=pa.int64()),
        "min_n_chars": pa.array([st["n_chars"]["min"]], type=pa.int64()),
        "max_n_chars": pa.array([st["n_chars"]["max"]], type=pa.int64()),
        "sum_n_chars": pa.array([st["n_chars"]["sum"]], type=pa.int64()),
    })


SQL_BOOL_STATS = (
    "SELECT count(*) AS num_docs, "
    "CAST(sum(CASE WHEN n_chars >= 300 THEN 1 ELSE 0 END) AS BIGINT) "
    "AS true_count, "
    "CAST(min(n_chars) AS BIGINT) AS min_n_chars, "
    "CAST(max(n_chars) AS BIGINT) AS max_n_chars, "
    "CAST(sum(n_chars) AS BIGINT) AS sum_n_chars "
    "FROM documents"
)


# --- q: projection ---------------------------------------------------------

def q_decode_projection(sf_dir: str):
    """Column-pruned decode (Select/cursor analogue): only source + n_tok
    streams are read from the blobs."""
    out = _work_dir(sf_dir, "encoded")
    if not os.path.isdir(mf.manifest_dir(out)):
        encoded_dir(sf_dir, fresh=True)

    def cast_ntok(b: pa.Table) -> pa.Table:
        return pa.table({
            "source": b.column("source"),
            "n_tok": b.column("n_tok").cast(pa.int64()),
        })

    return decode_dataset(out, columns=["source", "n_tok"]).map_batches(
        cast_ntok, batch_format="pyarrow"
    )


SQL_DECODE_PROJECTION = f"SELECT source, n_tok FROM {_TOKENIZED_FROM}"


# --- q: decode_filter (predicate pushdown over stripe stats) ---------------

def q_decode_filter(sf_dir: str):
    """Predicate-pushdown decode: stripes whose manifest [min,max] n_tok
    range can't intersect the predicate are skipped without reading their
    blobs; survivors decode + filter exactly."""
    from .decode import decode_dataset_filtered

    out = _work_dir(sf_dir, "encoded")
    if not os.path.isdir(mf.manifest_dir(out)):
        encoded_dir(sf_dir, fresh=True)

    def shape(b: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": b.column("doc_id"),
            "source": b.column("source"),
            "n_tok": b.column("n_tok").cast(pa.int64()),
        })

    return decode_dataset_filtered(
        out, "n_tok", 40, 70, columns=["doc_id", "source", "n_tok"],
    ).map_batches(shape, batch_format="pyarrow")


SQL_DECODE_FILTER = (
    f"SELECT doc_id, source, n_tok FROM {_TOKENIZED_FROM} "
    "WHERE n_tok BETWEEN 40 AND 70"
)


# --- q: point_lookup (bloom-filter data skipping) ---------------------------

def q_point_lookup(sf_dir: str):
    """Equality point lookup through BLOOM_FILTER streams (the orc.proto
    stream kind the reference never implements): encode with a doc_id
    bloom, then look up 3 doc_ids — stripes are ruled out by stats or by
    reading ONLY the filter's byte range; survivors decode + filter."""
    import pyarrow.parquet as pq

    from ..sources.tokens import _doc_id_strings
    from .decode import point_lookup

    out = _work_dir(sf_dir, "encoded_bloom")
    if os.path.isdir(out):
        shutil.rmtree(out)
    cfg = EncoderConfig(stripe_target_tokens=500_000,
                        bloom_columns=("doc_id",))
    encode_dataset_streaming(tokens_dataset(sf_dir), out, cfg,
                             batch_rows=4096).materialize()
    raw = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                        columns=["doc_id", "source"],
                        filters=[("doc_id", "in", [3, 120, 333])])
    vals = _doc_id_strings(raw.column("source").combine_chunks(),
                           raw.column("doc_id").combine_chunks()).to_pylist()

    def shape(b: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": b.column("doc_id"),
            "source": b.column("source"),
            "n_tok": b.column("n_tok").cast(pa.int64()),
        })

    return point_lookup(out, "doc_id", sorted(vals),
                        columns=["doc_id", "source", "n_tok"]).map_batches(shape, batch_format="pyarrow")


SQL_POINT_LOOKUP = (
    f"SELECT doc_id, source, n_tok FROM (SELECT {DOC_ID_SQL_EXPR} AS doc_id, "
    "source, len(string_split(text, ' ')) AS n_tok, "
    "documents.doc_id AS raw_id FROM documents) "
    "WHERE raw_id IN (3, 120, 333)"
)


# --- q: events_roundtrip ---------------------------------------------------

def q_events_roundtrip(sf_dir: str):
    """Encode -> decode the events table (timestamps, doubles, strings,
    ints) and return every column unchanged: a full-fidelity round-trip
    check on a non-token driver table."""
    import ray.data

    out = _work_dir(sf_dir, "encoded_events")
    if os.path.isdir(out):
        shutil.rmtree(out)
    ds = ray.data.read_parquet(os.path.join(sf_dir, "events.parquet"))
    cfg = EncoderConfig(stripe_target_tokens=500_000)
    encode_dataset_streaming(ds, out, cfg, batch_rows=4096).materialize()
    return decode_dataset(out)


SQL_EVENTS_ROUNDTRIP = ("SELECT event_id, ts, user_id, event_type, value, props "
                        "FROM events")


# --- q: words_roundtrip (list<string> codec through the full gate) ---------

def q_words_roundtrip(sf_dir: str):
    """documents -> add a list<string> words column -> stripe encode ->
    decode -> summarize back to scalars. Exercises the recursive list
    child codec (C23 for non-int children) end-to-end."""
    import ray.data

    out = _work_dir(sf_dir, "encoded_words")
    if os.path.isdir(out):
        shutil.rmtree(out)

    def add_words(b: pa.Table) -> pa.Table:
        words = pc.split_pattern(b.column("text"), " ")
        return pa.table({
            "doc_id": b.column("doc_id").cast(pa.int64()),
            "words": words,
        })

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["doc_id", "text"])
    src = ds.map_batches(add_words, batch_format="pyarrow")
    cfg = EncoderConfig(stripe_target_tokens=500_000)
    encode_dataset_streaming(src, out, cfg, batch_rows=4096).materialize()

    def summarize(b: pa.Table) -> pa.Table:
        words = b.column("words")
        if isinstance(words, pa.ChunkedArray):
            words = words.combine_chunks()
        n = pc.list_value_length(words).cast(pa.int64())
        first = pc.list_element(words, 0)
        lens = n.to_numpy(zero_copy_only=False)
        flat = words.flatten()
        off = np.zeros(len(lens) + 1, dtype=np.int64)
        np.cumsum(lens, out=off[1:])
        last = flat.take(pa.array(off[1:] - 1, type=pa.int64()))
        return pa.table({
            "doc_id": b.column("doc_id").cast(pa.int64()),
            "n_words": n,
            "first_word": first,
            "last_word": last,
        })

    return decode_dataset(out).map_batches(
        summarize, batch_format="pyarrow")


SQL_WORDS_ROUNDTRIP = (
    "SELECT doc_id, CAST(len(string_split(text, ' ')) AS BIGINT) AS n_words, "
    "(string_split(text, ' '))[1] AS first_word, "
    "(string_split(text, ' '))[-1] AS last_word FROM documents"
)


# --- q: map_roundtrip (map codec through the full gate) --------------------

def q_map_roundtrip(sf_dir: str):
    """events -> build a map<string,int64> column -> stripe encode ->
    decode -> extract back to scalars. Exercises the map codec (C24)
    end-to-end."""
    import ray.data

    out = _work_dir(sf_dir, "encoded_map")
    if os.path.isdir(out):
        shutil.rmtree(out)

    def add_map(b: pa.Table) -> pa.Table:
        n = b.num_rows
        # half_towards_infinity == DuckDB round()'s half-away-from-zero;
        # Arrow's default half-to-even would silently diverge on ties
        # (e.g. 0.0125*1000.0 == 12.5 exactly)
        v1000 = pc.cast(pc.round(pc.multiply(b.column("value"), 1000.0),
                                 round_mode="half_towards_infinity"),
                        pa.int64())
        offsets = pa.array(np.arange(n + 1, dtype=np.int32), type=pa.int32())
        m = pa.MapArray.from_arrays(offsets, b.column("event_type").combine_chunks()
                                    if isinstance(b.column("event_type"), pa.ChunkedArray)
                                    else b.column("event_type"), v1000.combine_chunks()
                                    if isinstance(v1000, pa.ChunkedArray) else v1000)
        return pa.table({
            "event_id": b.column("event_id").cast(pa.int64()),
            "kv": m,
        })

    ds = ray.data.read_parquet(os.path.join(sf_dir, "events.parquet"),
                               columns=["event_id", "event_type", "value"])
    src = ds.map_batches(add_map, batch_format="pyarrow")
    cfg = EncoderConfig(stripe_target_tokens=500_000)
    encode_dataset_streaming(src, out, cfg, batch_rows=4096).materialize()

    def extract(b: pa.Table) -> pa.Table:
        kv = b.column("kv")
        if isinstance(kv, pa.ChunkedArray):
            kv = kv.combine_chunks()
        return pa.table({
            "event_id": b.column("event_id").cast(pa.int64()),
            "k": kv.keys,
            "v": kv.items.cast(pa.int64()),
        })

    return decode_dataset(out).map_batches(
        extract, batch_format="pyarrow")


SQL_MAP_ROUNDTRIP = (
    "SELECT event_id, event_type AS k, "
    "CAST(round(value * 1000) AS BIGINT) AS v FROM events"
)


# --- q: union_roundtrip (dense union codec through the full gate) -----------

def q_union_roundtrip(sf_dir: str):
    """events -> build a dense union<i: int64, s: string> column (even
    event_ids carry the rounded value, odd ones the event type) -> stripe
    encode -> decode -> flatten back to (tag, i_val, s_val) scalars the
    oracle can mirror with CASE expressions. Exercises the union codec
    (C25) end-to-end through the Ray encode/decode gate."""
    import ray.data

    out = _work_dir(sf_dir, "encoded_union")
    if os.path.isdir(out):
        shutil.rmtree(out)

    def add_union(b: pa.Table) -> pa.Table:
        eid = b.column("event_id").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        v1000 = pc.cast(pc.round(pc.multiply(b.column("value"), 1000.0),
                                 round_mode="half_towards_infinity"),
                        pa.int64())
        even = (eid % 2) == 0
        types = np.where(even, 0, 1).astype(np.int8)
        offsets = np.empty(len(eid), dtype=np.int32)
        offsets[even] = np.arange(int(even.sum()), dtype=np.int32)
        offsets[~even] = np.arange(int((~even).sum()), dtype=np.int32)
        i_child = v1000.combine_chunks() if isinstance(
            v1000, pa.ChunkedArray) else v1000
        s_all = b.column("event_type").combine_chunks() if isinstance(
            b.column("event_type"), pa.ChunkedArray) \
            else b.column("event_type")
        ua = pa.UnionArray.from_dense(
            pa.array(types), pa.array(offsets, type=pa.int32()),
            [i_child.filter(pa.array(even)), s_all.filter(pa.array(~even))],
            field_names=["i", "s"])
        return pa.table({
            "event_id": b.column("event_id").cast(pa.int64()),
            "u": ua,
        })

    ds = ray.data.read_parquet(os.path.join(sf_dir, "events.parquet"),
                               columns=["event_id", "event_type", "value"])
    src = ds.map_batches(add_union, batch_format="pyarrow")
    cfg = EncoderConfig(stripe_target_tokens=500_000)
    encode_dataset_streaming(src, out, cfg, batch_rows=4096).materialize()

    def extract(b: pa.Table) -> pa.Table:
        u = b.column("u")
        if isinstance(u, pa.ChunkedArray):
            u = u.combine_chunks()
        tag = np.asarray(u.type_codes)
        offs = np.asarray(u.offsets)
        n = len(u)
        mi = tag == 0
        ivals = u.field(0).to_numpy(zero_copy_only=False)
        i_out = np.zeros(n, dtype=np.int64)
        i_out[mi] = ivals[offs[mi]]
        s_idx = pa.array(np.where(~mi, offs, 0).astype(np.int64), mask=mi)
        return pa.table({
            "event_id": b.column("event_id").cast(pa.int64()),
            "tag": pa.array(tag, type=pa.int8()),
            "i_val": pa.array(i_out, type=pa.int64(), mask=~mi),
            "s_val": u.field(1).take(s_idx),
        })

    # extract runs INSIDE the decode task (postprocess): Ray cannot
    # serialize slice views of dense-union arrays, so the union column
    # must be flattened before the block leaves the decode worker
    return decode_dataset(out, postprocess=extract)


SQL_UNION_ROUNDTRIP = (
    "SELECT event_id, CAST(event_id % 2 AS TINYINT) AS tag, "
    "CASE WHEN event_id % 2 = 0 THEN CAST(round(value * 1000) AS BIGINT) "
    "END AS i_val, "
    "CASE WHEN event_id % 2 = 1 THEN event_type END AS s_val FROM events"
)


def q_orc_import(sf_dir: str):
    """Foreign-ORC ingest (SURVEY.md §2 S9 closure): write the events
    table to a real Apache-ORC file (pyarrow writer, zlib, small stripes
    so the decode fans out) and read it back through the foreign-ORC
    reader's distributed per-stripe path. Oracle: the source table."""
    import hashlib

    import pyarrow.orc as paorc
    import pyarrow.parquet as pq

    from ..sources.orcfile import read_orc

    src = os.path.join(sf_dir, "events.parquet")
    t = pq.read_table(src)
    dst = os.path.join("/tmp", "orc_ray_work",
                       f"import_{hashlib.md5(src.encode()).hexdigest()[:8]}.orc")
    os.makedirs(os.path.dirname(dst), exist_ok=True)
    paorc.write_table(t, dst, compression="zlib", stripe_size=64 * 1024)
    schema = t.schema

    def recast(b: pa.Table) -> pa.Table:
        return b.cast(schema)  # ORC carries ns timestamps; source is us

    return read_orc(dst).map_batches(recast, batch_format="pyarrow")


SQL_ORC_IMPORT = "SELECT event_id, ts, user_id, event_type, value, props FROM events"


def q_orc_pushdown(sf_dir: str):
    """Foreign-ORC predicate pushdown (the foreign-file analogue of S2's
    stat-pruned decode_filter): write the events table to a real
    Apache-ORC file sorted by user_id in small stripes — so the file
    tail's per-stripe ColumnStatistics carry disjoint user_id ranges —
    then read it back through ``read_orc(predicate=...)``, which skips
    every stripe whose stats prove an empty intersection before a single
    payload byte is read and applies the exact vectorized filter on the
    survivors. Oracle: the same range filter in SQL on the source table."""
    import hashlib

    import pyarrow.orc as paorc
    import pyarrow.parquet as pq

    from ..sources.orcfile import read_orc

    src = os.path.join(sf_dir, "events.parquet")
    t = pq.read_table(src).sort_by("user_id")
    dst = os.path.join("/tmp", "orc_ray_work",
                       f"pushdn_{hashlib.md5(src.encode()).hexdigest()[:8]}.orc")
    os.makedirs(os.path.dirname(dst), exist_ok=True)
    paorc.write_table(t, dst, compression="zlib", stripe_size=64 * 1024)
    schema = t.select(["event_id", "ts", "user_id", "value"]).schema

    def recast(b: pa.Table) -> pa.Table:
        return b.cast(schema)  # ORC carries ns timestamps; source is us

    ds = read_orc(dst, columns=["event_id", "ts", "user_id", "value"],
                  predicate=("user_id", 2, 4))
    return ds.map_batches(recast, batch_format="pyarrow")


SQL_ORC_PUSHDOWN = ("SELECT event_id, ts, user_id, value FROM events "
                    "WHERE user_id BETWEEN 2 AND 4")


def q_orc_export(sf_dir: str):
    """Apache-ORC *export* (VERDICT r4 missing #1, the reverse of
    ingest-orc): stream the events table through the engine's own ORC
    writer (``export_orc_dataset`` — distributed, content-addressed part
    files) and read the result back with PYARROW's ORC reader — the
    ecosystem cross-check proving the exported files are real ORC, not
    merely self-consistent. Oracle: the source table."""
    import hashlib

    import pyarrow.orc as paorc
    import pyarrow.parquet as pq
    import ray.data

    from .export_orc import export_orc_dataset

    src = os.path.join(sf_dir, "events.parquet")
    out = os.path.join("/tmp", "orc_ray_work",
                       f"export_{hashlib.md5(src.encode()).hexdigest()[:8]}")
    schema = pq.read_schema(src)
    ds = ray.data.read_parquet(src)
    man = export_orc_dataset(ds, out, compression="zlib", batch_rows=2000)
    paths = []
    for b in man.iter_batches(batch_format="pyarrow", batch_size=None):
        paths.extend(b.column("path").to_pylist())

    def readback(b: pa.Table) -> pa.Table:
        tabs = [paorc.ORCFile(p).read() for p in b.column("path").to_pylist()]
        return pa.concat_tables(tabs).cast(schema)  # ORC ts is ns; src us

    return ray.data.from_items(
        [{"path": p} for p in sorted(paths)]
    ).map_batches(readback, batch_format="pyarrow", batch_size=1)


SQL_ORC_EXPORT = "SELECT event_id, ts, user_id, event_type, value, props FROM events"
