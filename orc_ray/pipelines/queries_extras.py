"""Driver-facing queries for the training-data-pipeline operators
(text analysis, dedup, similarity search, multimodal) with their DuckDB
oracle SQL where expressible. Consumed by __ray_entry__.py."""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..codecs.dictionary import string_hashes64
from ..functions import ann, dedup, multimodal
from ..functions.text import (
    SQL_FINGERPRINT,
    SQL_LANGID,
    SQL_QUALITY,
    SQL_TOKEN_COUNT,
    fingerprint_batch,
    langid_batch,
    quality_batch,
    token_count_batch,
)
from .encode import by_key, cluster_cpus


def _docs_ds(sf_dir: str, columns: list[str]):
    """documents table, ALWAYS column-pruned at the read: text dominates
    bytes, so a caller that only needs (doc_id, n_chars) must not drag it
    off storage (the 100-TB unpruned-scan rule)."""
    import ray.data

    return ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                                 columns=columns)


def _emb_ds(sf_dir: str, columns: list[str]):
    import ray.data

    return ray.data.read_parquet(os.path.join(sf_dir, "embeddings.parquet"),
                                 columns=columns)


# --- text analysis ---------------------------------------------------------

def q_token_count(sf_dir: str):
    return _docs_ds(sf_dir, ["doc_id", "text"]).map_batches(
        token_count_batch, batch_format="pyarrow")


SQL_Q_TOKEN_COUNT = SQL_TOKEN_COUNT


def q_quality(sf_dir: str):
    return _docs_ds(sf_dir, ["doc_id", "text"]).map_batches(quality_batch, batch_format="pyarrow")


SQL_Q_QUALITY = SQL_QUALITY


def q_langid(sf_dir: str):
    """Marker-frequency language ID; the scores are plain substring
    counts + first-max argmax, mirrored exactly in SQL_LANGID."""
    return _docs_ds(sf_dir, ["doc_id", "text"]).map_batches(
        langid_batch, batch_format="pyarrow")


SQL_Q_LANGID = SQL_LANGID


def q_fingerprint(sf_dir: str):
    def md5_only(b: pa.Table) -> pa.Table:
        t = fingerprint_batch(b)
        return t.select(["doc_id", "md5"])

    return _docs_ds(sf_dir, ["doc_id", "text"]).map_batches(md5_only, batch_format="pyarrow")


SQL_Q_FINGERPRINT = SQL_FINGERPRINT


def q_decontaminate(sf_dir: str):
    """Benchmark decontamination: flag documents containing any phrase
    from a (small, broadcast) contamination set — here the 2-word prefixes
    of two designated benchmark docs. The phrase list rides the closure
    (broadcast-small-side, never a shuffle join); the scan is a vectorized
    literal-substring match per phrase."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    raw = pq.read_table(os.path.join(sf_dir, "documents.parquet"),
                        columns=["doc_id", "text"],
                        filters=[("doc_id", "in", [7, 42])])
    phrases = [" ".join(t.split(" ")[:2]) for t in raw.column("text").to_pylist()]

    def scan(b: pa.Table) -> pa.Table:
        text = b.column("text")
        hits = None
        for p in phrases:
            m = pc.cast(pc.match_substring(text, p), pa.int64())
            hits = m if hits is None else pc.add(hits, m)
        t = pa.table({
            "doc_id": b.column("doc_id").cast(pa.int64()),
            "n_hits": hits,
        })
        return t.filter(pc.greater(t.column("n_hits"), 0))

    return _docs_ds(sf_dir, ["doc_id", "text"]).map_batches(scan, batch_format="pyarrow")


SQL_Q_DECONTAMINATE = (
    "WITH phrases AS (SELECT array_to_string((string_split(text, ' '))[1:2], ' ') "
    "AS p FROM documents WHERE doc_id IN (7, 42)) "
    "SELECT d.doc_id, count(*) AS n_hits FROM documents d "
    "JOIN phrases ON contains(d.text, phrases.p) GROUP BY d.doc_id"
)


def q_sample_stratified(sf_dir: str):
    """Deterministic hash-based stratified sampling (the reproducible
    alternative to random sampling for training-data subsetting): keep a
    doc iff the hex prefix of md5(text) falls under its source's rate —
    pure per-batch filter, no shuffle, identical output on any cluster
    shape or resume."""
    import pyarrow.compute as pc

    heavy = {"src0", "src1", "src2"}

    def sample(b: pa.Table) -> pa.Table:
        t = fingerprint_batch(b)
        prefix = pc.utf8_slice_codeunits(t.column("md5"), 0, 2)
        src = b.column("source")
        thresh = pc.if_else(pc.is_in(src, value_set=pa.array(sorted(heavy))),
                            pa.scalar("80"), pa.scalar("28"))
        keep = pc.less(prefix, thresh)
        out = pa.table({
            "doc_id": t.column("doc_id"),
            "source": src,
        })
        return out.filter(keep)

    return _docs_ds(sf_dir, ["doc_id", "text", "source"]).map_batches(sample, batch_format="pyarrow")


SQL_Q_SAMPLE = (
    "SELECT doc_id, source FROM documents "
    "WHERE substr(md5(text), 1, 2) < "
    "CASE WHEN source IN ('src0','src1','src2') THEN '80' ELSE '28' END"
)


# Above this vocabulary cardinality q_word_df_score flips from a
# driver-broadcast dict to a distributed hash-join on word: an
# open-vocabulary web corpus has an unbounded word set, and pulling the
# full df table to the driver (take_all) would OOM it.
WORD_DF_BROADCAST_MAX_VOCAB = 1_000_000


def q_word_df_score(sf_dir: str,
                    max_broadcast_vocab: int = WORD_DF_BROADCAST_MAX_VOCAB):
    """Corpus-statistics quality scoring (CCNet-style): pass 1 builds the
    word -> document-frequency table with a keyed exchange on word over
    per-batch-distinct (doc, word, cnt) triples.  The scoring pass is then
    auto-selected by the (now known) vocabulary cardinality:

    * bounded vocab (<= ``max_broadcast_vocab``): the df table is pulled
      once and broadcast as a dict in the scoring stage's ``fn_kwargs``
      (unpickled once per task); every token resolves through per-batch
      ``dictionary_encode`` — the dict is probed once per DISTINCT word
      per batch.  No shuffle.
    * open vocab: the per-doc distinct word-count triples go through one
      keyed exchange on ``word``, where each partition counts the df of
      its words and emits (doc, cnt*df, cnt) partials; per-doc means come
      from a second exchange on doc_id.  Nothing vocabulary-sized ever
      lands on the driver.

    Both paths produce identical (doc_id, mean_df_x1000) rows (same SQL
    oracle; pytest forces the open-vocabulary path and cross-checks)."""
    import pyarrow.compute as pc

    docs = _docs_ds(sf_dir, ["doc_id", "text"])

    def word_counts(b: pa.Table) -> pa.Table:
        words = pc.split_pattern(b.column("text"), " ")
        if isinstance(words, pa.ChunkedArray):
            words = words.combine_chunks()
        n = pc.list_value_length(words).to_numpy(zero_copy_only=False)
        doc = np.repeat(b.column("doc_id").to_numpy(zero_copy_only=False)
                        .astype(np.int64), n)
        t = pa.table({"doc_id": pa.array(doc), "word": words.flatten()})
        # a doc lives in exactly one batch, so per-batch distinct == global
        return t.group_by(["doc_id", "word"]).aggregate([("word", "count")])

    def word_df(g: pa.Table) -> pa.Table:
        # a (doc, word) pair occurs once, so a word's rows are its docs
        t = g.group_by(["word"]).aggregate([("doc_id", "count")])
        return pa.table({"word": t.column("word"),
                         "df": t.column("doc_id_count")})

    # (word, df) = number of docs containing word
    wc = docs.map_batches(word_counts, batch_format="pyarrow")
    df_ds = by_key(wc, "word", word_df)
    nvocab = df_ds.count()

    if nvocab > max_broadcast_vocab:
        # --- open-vocabulary path: df counted next to the triples -------
        def doc_partials(g: pa.Table) -> pa.Table:
            codes = g.column("word").combine_chunks().dictionary_encode() \
                .indices.to_numpy(zero_copy_only=False)
            df = np.bincount(codes)[codes]
            cnt = g.column("word_count").to_numpy(zero_copy_only=False) \
                .astype(np.int64)
            return pa.table({
                "doc_id": g.column("doc_id").cast(pa.int64()),
                "s": pa.array(cnt * df), "n": pa.array(cnt),
            }).group_by(["doc_id"]).aggregate([("s", "sum"), ("n", "sum")])

        def finish(g: pa.Table) -> pa.Table:
            t = g.group_by(["doc_id"]).aggregate([("s_sum", "sum"),
                                                  ("n_sum", "sum")])
            s = t.column("s_sum_sum").to_numpy(zero_copy_only=False)
            n = t.column("n_sum_sum").to_numpy(zero_copy_only=False)
            return pa.table({
                "doc_id": t.column("doc_id").cast(pa.int64()),
                "mean_df_x1000": pa.array(s * 1000 // n, type=pa.int64()),
            })

        return by_key(by_key(wc, "word", doc_partials), "doc_id", finish)

    # --- bounded-vocabulary path: broadcast dict, zero shuffle ----------
    df_rows = df_ds.take_all()

    def score(b: pa.Table, df: dict) -> pa.Table:
        words = pc.split_pattern(b.column("text"), " ")
        if isinstance(words, pa.ChunkedArray):
            words = words.combine_chunks()
        n = pc.list_value_length(words).to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        flat = words.flatten().dictionary_encode()
        uniq_df = np.array([df.get(w, 0)
                            for w in flat.dictionary.to_pylist()],
                           dtype=np.int64)
        tok_df = uniq_df[flat.indices.to_numpy(zero_copy_only=False)]
        off = np.zeros(len(n) + 1, dtype=np.int64)
        np.cumsum(n, out=off[1:])
        sums = np.add.reduceat(tok_df, off[:-1])
        return pa.table({
            "doc_id": b.column("doc_id").cast(pa.int64()),
            "mean_df_x1000": pa.array(sums * 1000 // n, type=pa.int64()),
        })

    return docs.map_batches(
        score, fn_kwargs={"df": {r["word"]: r["df"] for r in df_rows}},
        batch_format="pyarrow")


SQL_Q_WORD_DF_SCORE = (
    "WITH w AS (SELECT doc_id, unnest(string_split(text, ' ')) AS word "
    "           FROM documents), "
    "dfreq AS (SELECT word, count(DISTINCT doc_id) AS df FROM w GROUP BY word) "
    "SELECT doc_id, CAST((sum(df) * 1000) // count(*) AS BIGINT) "
    "AS mean_df_x1000 FROM w JOIN dfreq USING (word) GROUP BY doc_id"
)


def q_topk_docs(sf_dir: str):
    """Top-k largest documents: distributed multi-key sort + limit (the
    Dataset sort/limit surface; deterministic via the doc_id tiebreak).
    At scale the sort is Ray's range-partitioned shuffle over ONLY the two
    key columns."""
    ds = _docs_ds(sf_dir, ["doc_id", "n_chars"]).map_batches(
        lambda b: pa.table({
            "doc_id": b.column("doc_id").cast(pa.int64()),
            "n_chars": b.column("n_chars").cast(pa.int64()),
        }), batch_format="pyarrow")
    return ds.sort(["n_chars", "doc_id"], descending=[True, False]).limit(10)


SQL_Q_TOPK_DOCS = (
    "SELECT doc_id, n_chars FROM documents "
    "ORDER BY n_chars DESC, doc_id LIMIT 10"
)


def q_prepare_corpus(sf_dir: str):
    """The composed training-data-prep pipeline, end-to-end through the
    encoder: quality filter -> exact dedup -> tokenize -> stripe-encode ->
    file-level stats from the manifests (never a full decode). The dedup
    is one keyed exchange on the md5 digest that keeps the min-doc_id row
    of each digest — no driver-side set, no broadcast assumption about
    the dup rate; document text crosses exactly one partitioned
    exchange."""
    import shutil

    import pyarrow.compute as pc
    import ray.data

    from ..config import EncoderConfig
    from ..state import manifest as mf
    from .encode import encode_dataset_streaming
    from .queries import _work_dir, tokenize_documents

    out = _work_dir(sf_dir, "encoded_prepared")
    if os.path.isdir(out):
        shutil.rmtree(out)

    docs = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text", "source", "n_chars"])

    def filt(b: pa.Table) -> pa.Table:
        t = b.filter(pc.greater_equal(b.column("n_chars").cast(pa.int64()), 150))
        return pa.table({
            "doc_id": t.column("doc_id").cast(pa.int64()),
            "text": t.column("text"),
            "source": t.column("source"),
            "md5": fingerprint_batch(t).column("md5"),
        })

    def first_per_digest(g: pa.Table) -> pa.Table:
        codes = g.column("md5").combine_chunks().dictionary_encode() \
            .indices.to_numpy(zero_copy_only=False)
        order = np.lexsort((g.column("doc_id").to_numpy(), codes))
        sc = codes[order]
        first = order[np.r_[True, sc[1:] != sc[:-1]]] if len(sc) else order
        return g.take(pa.array(first)).drop_columns(["md5"])

    surviving = by_key(docs.map_batches(filt, batch_format="pyarrow"),
                       "md5", first_per_digest)
    tokens = surviving.map_batches(tokenize_documents, batch_format="pyarrow")
    cfg = EncoderConfig(stripe_target_tokens=500_000)
    encode_dataset_streaming(tokens, out, cfg, batch_rows=4096).materialize()
    st = mf.column_stats(out)["n_tok"]
    return pa.table({
        "num_docs": pa.array([st["num_values"]], type=pa.int64()),
        "sum_n_tok": pa.array([st["sum"]], type=pa.int64()),
    })


SQL_Q_PREPARE_CORPUS = (
    "WITH filt AS (SELECT doc_id, text FROM documents WHERE n_chars >= 150), "
    "keep AS (SELECT min(doc_id) AS doc_id FROM filt GROUP BY md5(text)) "
    "SELECT count(*) AS num_docs, "
    "CAST(sum(len(string_split(text, ' '))) AS BIGINT) AS sum_n_tok "
    "FROM filt JOIN keep USING (doc_id)"
)


def q_source_quantiles(sf_dir: str):
    """Exact distributed quantiles (median + p90 of doc length per
    source) WITHOUT sorting the data: the combiner reduces each batch to a
    (source, value) -> count histogram — bounded by the value domain, not
    the row count — and the tiny final merge walks each source's
    cumulative histogram to the quantile_disc index (ceil(q*n) - 1). The
    scalable alternative to a full sort for bounded-domain quantiles."""
    import ray.data

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["source", "n_chars"])

    def partial(b: pa.Table) -> pa.Table:
        t = pa.table({"source": b.column("source"),
                      "n_chars": b.column("n_chars").cast(pa.int64())})
        return t.group_by(["source", "n_chars"]).aggregate([([], "count_all")])

    parts = ds.map_batches(partial, batch_format="pyarrow")

    def final(b: pa.Table) -> pa.Table:
        agg = b.group_by(["source", "n_chars"]).aggregate(
            [("count_all", "sum")])
        src = agg.column("source").dictionary_encode().combine_chunks()
        codes = src.indices.to_numpy(zero_copy_only=False)
        vals = agg.column("n_chars").to_numpy(zero_copy_only=False)
        cnts = agg.column("count_all_sum").to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        order = np.lexsort((vals, codes))
        scode, sval, scnt = codes[order], vals[order], cnts[order]
        starts = np.flatnonzero(np.r_[True, scode[1:] != scode[:-1]])
        ends = np.append(starts[1:], len(scode))
        out_src, med, p90 = [], [], []
        names = src.dictionary.to_pylist()
        for s, e in zip(starts, ends):  # one iteration per SOURCE (tiny)
            cum = np.cumsum(scnt[s:e])
            n = int(cum[-1])
            med.append(int(sval[s + np.searchsorted(
                cum, int(np.ceil(0.5 * n)))]))
            p90.append(int(sval[s + np.searchsorted(
                cum, int(np.ceil(0.9 * n)))]))
            out_src.append(names[scode[s]])
        return pa.table({
            "source": pa.array(out_src, type=pa.string()),
            "median_n_chars": pa.array(med, type=pa.int64()),
            "p90_n_chars": pa.array(p90, type=pa.int64()),
        })

    return parts.repartition(1).map_batches(final, batch_format="pyarrow")


SQL_Q_SOURCE_QUANTILES = (
    "SELECT source, CAST(quantile_disc(n_chars, 0.5) AS BIGINT) "
    "AS median_n_chars, CAST(quantile_disc(n_chars, 0.9) AS BIGINT) "
    "AS p90_n_chars FROM documents GROUP BY source"
)


def _top3_per_source(b: pa.Table) -> pa.Table:
    """Keep the top-3 rows per source by (n_chars DESC, doc_id ASC),
    fully vectorized: one lexsort, group starts via flatnonzero, rank =
    position minus group start."""
    if b.num_rows == 0:
        return pa.table({"source": pa.array([], type=pa.string()),
                         "doc_id": pa.array([], type=pa.int64()),
                         "n_chars": pa.array([], type=pa.int64())})
    src = b.column("source").combine_chunks().dictionary_encode()
    codes = src.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    did = b.column("doc_id").cast(pa.int64()).to_numpy(zero_copy_only=False)
    nch = b.column("n_chars").cast(pa.int64()).to_numpy(zero_copy_only=False)
    order = np.lexsort((did, -nch, codes))
    sc = codes[order]
    starts = np.flatnonzero(np.r_[True, sc[1:] != sc[:-1]])
    group_of = np.cumsum(np.r_[0, np.diff(sc) != 0])
    rank = np.arange(len(sc)) - starts[group_of]
    keep = order[rank < 3]
    keep.sort()  # preserve input order within the batch (deterministic)
    return pa.table({
        "source": b.column("source").take(pa.array(keep)),
        "doc_id": pa.array(did[keep], type=pa.int64()),
        "n_chars": pa.array(nch[keep], type=pa.int64()),
    })


def q_group_topk(sf_dir: str):
    """Grouped top-k (3 longest docs per source) WITHOUT a global sort:
    a per-batch partial top-3 combiner shrinks each block to <=3 rows per
    source it contains, then the survivors hash-partition on source and
    the SAME vectorized kernel finishes each partition. Only candidate
    rows ever shuffle; the pattern scales to any source cardinality
    (unlike a single-driver merge) and any row count (unlike sort+limit
    per group)."""
    import ray.data

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["doc_id", "source", "n_chars"])
    partials = ds.map_batches(_top3_per_source, batch_format="pyarrow")
    return by_key(partials, "source", _top3_per_source)


SQL_Q_GROUP_TOPK = (
    "SELECT source, doc_id, n_chars FROM documents "
    "QUALIFY row_number() OVER "
    "(PARTITION BY source ORDER BY n_chars DESC, doc_id) <= 3"
)


def q_distinct_pairs(sf_dir: str):
    """DISTINCT over a composite key as a two-level combiner: each batch
    reduces to its unique (source, lang) pairs — bounded by the key
    domain, not the row count — and one tiny final pass dedupes the
    survivors. The `unique` operator without materializing the dataset
    or shuffling raw rows."""
    import ray.data

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["source", "lang"])

    def uniq(b: pa.Table) -> pa.Table:
        return b.group_by(["source", "lang"]).aggregate([])

    return ds.map_batches(uniq, batch_format="pyarrow") \
        .repartition(1).map_batches(uniq, batch_format="pyarrow")


SQL_Q_DISTINCT_PAIRS = "SELECT DISTINCT source, lang FROM documents"


def _vocab_part_counts(parts, num_parts: int):
    """Hash-partition word-set partials on the word and count distinct
    words inside each partition independently: a word lands in exactly
    ONE partition, so the per-partition counts sum exactly and no single
    task ever holds the full vocabulary."""
    def count_group(g: pa.Table) -> pa.Table:
        n = g.group_by(["word"]).aggregate([]).num_rows
        return pa.table({"part_vocab": pa.array([n], type=pa.int64())})

    return by_key(parts, "word", count_group, parts=num_parts)


def q_vocab_size(sf_dir: str, num_parts: int | None = None):
    """Exact corpus vocabulary size via the two-level distinct combiner:
    each batch reduces its token stream to the batch-local word set
    (bounded by vocabulary, not token count).  The final merge is
    level-selected like _merge_partials: small corpora tree-reduce the
    survivors in one task; above _TWO_LEVEL_MERGE_BYTES of input (an
    open-vocabulary corpus whose word set can exceed one worker's heap)
    the partials hash-partition on a word-hash key and each partition
    counts its distinct words independently — only the per-partition
    COUNTS (one int each) meet in the final row.  The exact companion to
    q_approx_distinct_words (the sketch is still the 100-TB default)."""
    import ray.data

    from ..functions.texthash import flat_words

    src = os.path.join(sf_dir, "documents.parquet")
    ds = ray.data.read_parquet(src, columns=["text"])
    num_parts = _merge_parts(num_parts, _input_bytes(src))

    def uniq_words(b: pa.Table) -> pa.Table:
        flat, _ = flat_words(b.column("text"))
        return pa.table({"word": flat}).group_by(["word"]).aggregate([])

    parts = ds.map_batches(uniq_words, batch_format="pyarrow")

    if num_parts <= 1:
        def count_distinct(b: pa.Table) -> pa.Table:
            n = b.group_by(["word"]).aggregate([]).num_rows
            return pa.table({"vocab_size": pa.array([n], type=pa.int64())})

        return parts.repartition(1).map_batches(count_distinct,
                                                batch_format="pyarrow")

    def total(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        n = pc.sum(b.column("part_vocab")).as_py() or 0
        return pa.table({"vocab_size": pa.array([n], type=pa.int64())})

    return _vocab_part_counts(parts, num_parts) \
        .repartition(1).map_batches(total, batch_format="pyarrow")


SQL_Q_VOCAB_SIZE = (
    "SELECT count(DISTINCT word) AS vocab_size FROM "
    "(SELECT unnest(string_split(text, ' ')) AS word FROM documents)"
)


_HLL_P = 12


def q_approx_distinct_words(sf_dir: str):
    """Approximate vocabulary size as a MERGEABLE SKETCH aggregate: each
    batch emits one 4 KiB HyperLogLog register row regardless of row
    count, the final merge is an elementwise register max — the estimate
    is bit-identical to a single-pass sketch no matter how blocks split.
    At 100 TB this moves kilobytes per block where the exact operator's
    shuffle grows with vocabulary; rows-only driver check, accuracy vs
    the exact count asserted in pytest (HLL p=12 -> ~1.6% rse)."""
    import ray.data

    from ..functions.texthash import flat_words
    from ..selector import CardinalitySketch

    ds = ray.data.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                               columns=["text"])

    def sketch_batch(b: pa.Table) -> pa.Table:
        flat, _ = flat_words(b.column("text"))
        sk = CardinalitySketch(p=_HLL_P)
        sk.add_hashes(string_hashes64(flat))
        return pa.table({"regs": pa.array([sk.regs.tobytes()],
                                          type=pa.binary())})

    def merge(b: pa.Table) -> pa.Table:
        raw = b.column("regs").combine_chunks()
        regs = np.frombuffer(b"".join(raw.to_pylist()), dtype=np.uint8) \
            .reshape(-1, 1 << _HLL_P)
        sk = CardinalitySketch(p=_HLL_P)
        sk.regs = regs.max(axis=0)
        return pa.table({"approx_distinct_words": pa.array(
            [int(round(sk.estimate()))], type=pa.int64())})

    return ds.map_batches(sketch_batch, batch_format="pyarrow") \
        .repartition(1).map_batches(merge, batch_format="pyarrow")


# --- dedup -----------------------------------------------------------------

def q_dedup_exact(sf_dir: str):
    """Exact dedup: a keyed exchange on the md5 key, keep min(doc_id).
    Only (md5, doc_id) pairs shuffle — never the text."""
    def keys(b: pa.Table) -> pa.Table:
        t = fingerprint_batch(b)
        return t.select(["doc_id", "md5"])

    def keep_min(g: pa.Table) -> pa.Table:
        t = g.group_by(["md5"]).aggregate([("doc_id", "min"),
                                           ("doc_id", "count")])
        return pa.table({
            "md5": t.column("md5"),
            "keep_doc_id": t.column("doc_id_min").cast(pa.int64()),
            "dup_count": t.column("doc_id_count").cast(pa.int64()),
        })

    ds = _docs_ds(sf_dir, ["doc_id", "text"]).map_batches(keys, batch_format="pyarrow")
    return by_key(ds, "md5", keep_min)


SQL_Q_DEDUP_EXACT = (
    "SELECT md5(text) AS md5, min(doc_id) AS keep_doc_id, "
    "count(*) AS dup_count FROM documents GROUP BY md5(text)"
)


def q_ngram_dedup_pairs(sf_dir: str):
    """MinHash(128) + LSH(32x4) + exact shingle-Jaccard verify; equals the
    exact >=0.8 pair set (miss probability < 1e-7 at the threshold)."""
    return dedup.minhash_dedup_pairs(
        _docs_ds(sf_dir, ["doc_id", "text"]), threshold=0.8)


SQL_Q_NGRAM_DEDUP = """
WITH words AS (SELECT doc_id, string_split(text,' ') AS w FROM documents),
sh AS (SELECT DISTINCT doc_id, array_to_string(w[i:i+2], ' ') AS s
       FROM words, unnest(range(1, len(w)-1)) AS t(i)),
cnt AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
inter AS (SELECT a.doc_id AS da, b.doc_id AS db, count(*) AS i
          FROM sh a JOIN sh b ON a.s = b.s AND a.doc_id < b.doc_id
          GROUP BY 1, 2)
SELECT da AS doc_a, db AS doc_b,
       (i * 1000) // (ca.n + cb.n - i) AS jaccard_x1000
FROM inter
JOIN cnt ca ON ca.doc_id = da JOIN cnt cb ON cb.doc_id = db
WHERE i * 1000 >= 800 * (ca.n + cb.n - i)
ORDER BY doc_a, doc_b
"""


def q_dedup_keep(sf_dir: str):
    """Near-dup keep-one-representative dedup: transitive closure over the
    minhash >=0.8 pair set (already bit-exact vs the SQL shingle-Jaccard
    oracle), assigning every doc the min doc_id of its connected component.
    Docs with no near-dup point at themselves; survivors are the rows with
    doc_id == rep_doc_id.

    Oracle note: equality with the exact recursive-CTE closure assumes the
    LSH banding recalls every Jaccard>=0.8 pair. That holds on the driver
    corpus (verified pairs are themselves oracle-checked bit-exact), but
    LSH recall is probabilistic in general — if the corpus or hash seed
    changes and a true pair slips a band, the closure diverges from the
    CTE even though both sides are internally correct."""
    pairs = dedup.minhash_dedup_pairs(
        _docs_ds(sf_dir, ["doc_id", "text"]), threshold=0.8)
    return dedup.dedup_cluster_reps(_docs_ds(sf_dir, ["doc_id"]), pairs)


SQL_Q_DEDUP_KEEP = """
WITH RECURSIVE pairs AS (
  WITH words AS (SELECT doc_id, string_split(text,' ') AS w FROM documents),
  sh AS (SELECT DISTINCT doc_id, array_to_string(w[i:i+2], ' ') AS s
         FROM words, unnest(range(1, len(w)-1)) AS t(i)),
  cnt AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
  inter AS (SELECT a.doc_id AS da, b.doc_id AS db, count(*) AS i
            FROM sh a JOIN sh b ON a.s = b.s AND a.doc_id < b.doc_id
            GROUP BY 1, 2)
  SELECT da AS doc_a, db AS doc_b FROM inter
  JOIN cnt ca ON ca.doc_id = da JOIN cnt cb ON cb.doc_id = db
  WHERE i * 1000 >= 800 * (ca.n + cb.n - i)
),
edges AS (SELECT doc_a AS a, doc_b AS b FROM pairs
          UNION SELECT doc_b, doc_a FROM pairs),
reach(a, b) AS (
  SELECT a, b FROM edges
  UNION
  SELECT r.a, e.b FROM reach r JOIN edges e ON r.b = e.a WHERE e.b <> r.a
)
SELECT d.doc_id,
       least(d.doc_id, coalesce(min(r.b), d.doc_id)) AS rep_doc_id
FROM documents d LEFT JOIN reach r ON r.a = d.doc_id
GROUP BY d.doc_id
"""


def q_simhash(sf_dir: str):
    """SimHash near-dup pairs (hamming <= 3), fully distributed: signature
    map_batches -> 16-bit chunk banding groupby (lossless by pigeonhole)
    -> vectorized per-run hamming -> distributed pair dedup. The word hash
    is SQL-mirrorable, so this is oracle-checked bit-for-bit."""
    return dedup.simhash_dedup_pairs(
        _docs_ds(sf_dir, ["doc_id", "text"]), max_hamming=3)


SQL_Q_SIMHASH = dedup.sql_simhash_pairs(3)


def q_embedding_neardup(sf_dir: str):
    """Exact cosine near-dup pairs, distributed over block-pair tiles
    (no driver-side table read; see dedup.embedding_near_pairs_ds)."""
    return dedup.embedding_near_pairs_ds(_emb_ds(sf_dir, ["vec_id", "embedding"]), threshold=0.3,
                                         nblocks=8)


def q_embedding_neardup_ivf(sf_dir: str):
    """Approximate IVF-bucketed near-dup (the 100-TB scale path): vectors
    multi-assigned to their 2 nearest centroids, pairs found within
    buckets only — rows-only driver check; recall vs the exact operator is
    asserted in pytest."""
    return dedup.embedding_near_pairs_ivf(_emb_ds(sf_dir, ["vec_id", "embedding"]), threshold=0.3,
                                          ncentroids=8, nassign=2)


SQL_Q_EMB_NEARDUP = (
    "SELECT a.vec_id AS vec_a, b.vec_id AS vec_b "
    "FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id "
    "WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.3"
)


# --- similarity search -----------------------------------------------------

def _query_vectors(sf_dir: str) -> pa.Table:
    # predicate pushed into the parquet read: only row groups that can
    # contain vec_id < 10 are scanned, never the whole table
    return pq.read_table(os.path.join(sf_dir, "embeddings.parquet"),
                         filters=[("vec_id", "<", 10)])


def q_ann_topk(sf_dir: str):
    return ann.brute_force_topk(_emb_ds(sf_dir, ["vec_id", "embedding"]),
                                _query_vectors(sf_dir), k=5)


SQL_Q_ANN_TOPK = """
SELECT query_id, vec_id, rank, cosine_x1e4 FROM (
  SELECT q.vec_id AS query_id, v.vec_id AS vec_id,
         row_number() OVER (
             PARTITION BY q.vec_id
             ORDER BY list_cosine_similarity(q.embedding, v.embedding) DESC,
                      v.vec_id) AS rank,
         CAST(round(list_cosine_similarity(q.embedding, v.embedding) * 10000)
              AS BIGINT) AS cosine_x1e4
  FROM embeddings q JOIN embeddings v ON v.vec_id != q.vec_id
  WHERE q.vec_id < 10
) WHERE rank <= 5 ORDER BY query_id, rank
"""


def q_ann_ivf(sf_dir: str):
    """IVF approximate top-k — rows-only check (approximation is the point);
    recall vs brute force asserted in pytest instead."""
    return ann.ivf_topk(_emb_ds(sf_dir, ["vec_id", "embedding"]),
                        _query_vectors(sf_dir), k=5)


# --- multimodal ------------------------------------------------------------

def q_media_decode(sf_dir: str):
    """Media decode over REAL encoded payloads (PNG images + PCM WAV
    audio, decoded by the dependency-free numpy codecs) — rows-only
    driver check; pixel/sample-level content is asserted in
    tests/test_multimodal_real.py."""
    import ray.data

    media = multimodal.synthesize_real_media(64, seed=42)
    # shard the input so decode runs as several tasks (from_arrow yields
    # ONE block otherwise)
    ds = ray.data.from_arrow(media).repartition(8)
    return multimodal.decode_media_dataset(ds, mode=multimodal.REAL)


# --- windowed aggregate ----------------------------------------------------

# raw-input size above which the final partial merge switches from a
# single tree-reduce task to a hash-partitioned per-key merge (the
# (user x window) result of a 100-TB event stream does not fit one task)
_TWO_LEVEL_MERGE_BYTES = 256 << 20


def _input_bytes(path: str) -> int:
    if os.path.isdir(path):
        return sum(os.path.getsize(os.path.join(r, f))
                   for r, _, fs in os.walk(path) for f in fs)
    return os.path.getsize(path)


def _merge_parts(num_parts: int | None, input_bytes: int | None) -> int:
    """Partitions of a final merge: ``num_parts`` when given, else one
    below _TWO_LEVEL_MERGE_BYTES of raw input and one per CPU (at least
    two) above it."""
    if num_parts is not None:
        return num_parts
    if input_bytes is not None and input_bytes > _TWO_LEVEL_MERGE_BYTES:
        return max(2, cluster_cpus())
    return 1


def _merge_partials(parts, merge_fn, part_col: str,
                    num_parts: int | None = None,
                    input_bytes: int | None = None):
    """Final merge of already-combined partial-aggregate rows.

    Level selection (``_merge_parts``): with one partition, the partials —
    metadata-sized after the in-batch combiner — tree-reduce inside ONE
    worker task (`repartition(1)`). With more, the merge is a ``by_key``
    exchange on ``part_col`` (a key lands in exactly one partition) and
    merges each partition independently, so no single task ever holds
    the full (group x window) result and the output stays partitioned.
    """
    num_parts = _merge_parts(num_parts, input_bytes)
    if num_parts <= 1:
        return parts.repartition(1).map_batches(merge_fn, batch_format="pyarrow")
    return by_key(parts, part_col, merge_fn, parts=num_parts)


def tumbling_window_agg(ds, num_parts: int | None = None,
                        input_bytes: int | None = None):
    """Tumbling 1-hour window aggregate over an events dataset: partial
    aggregation per batch (combiner), then a threshold-selected one- or
    two-level merge of the partials — raw events never shuffle."""

    def partial(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        hour = pc.floor_temporal(b.column("ts"), unit="hour")
        # half_towards_infinity matches DuckDB round() on ties (the SQL
        # mirror); Arrow's default is half-to-even
        v1000 = pc.cast(pc.round(pc.multiply(b.column("value"), 1000.0),
                                 round_mode="half_towards_infinity"),
                        pa.int64())
        t = pa.table({
            "user_id": b.column("user_id"),
            "window_start": hour,
            "v1000": v1000,
        })
        return t.group_by(["user_id", "window_start"]).aggregate(
            [("v1000", "count"), ("v1000", "sum")]
        )

    parts = ds.map_batches(partial, batch_format="pyarrow")

    def merge(b: pa.Table) -> pa.Table:
        agg = b.group_by(["user_id", "window_start"]).aggregate(
            [("v1000_count", "sum"), ("v1000_sum", "sum")]
        )
        return pa.table({
            "user_id": agg.column("user_id").cast(pa.int64()),
            "window_start": agg.column("window_start").cast(pa.timestamp("us")),
            "n_events": agg.column("v1000_count_sum").cast(pa.int64()),
            "sum_value_x1000": agg.column("v1000_sum_sum").cast(pa.int64()),
        })

    return _merge_partials(parts, merge, "user_id",
                           num_parts=num_parts, input_bytes=input_bytes)


def q_window_agg(sf_dir: str):
    """Driver entry for the tumbling window aggregate; see
    tumbling_window_agg. Sums are over per-row-rounded integer values so
    the mirror is bit-exact."""
    import ray.data

    path = os.path.join(sf_dir, "events.parquet")
    ds = ray.data.read_parquet(path, columns=["user_id", "ts", "value"])
    return tumbling_window_agg(ds, input_bytes=_input_bytes(path))


SQL_Q_WINDOW_AGG = (
    "SELECT user_id, date_trunc('hour', ts) AS window_start, "
    "count(*) AS n_events, "
    "CAST(sum(CAST(round(value * 1000) AS BIGINT)) AS BIGINT) AS sum_value_x1000 "
    "FROM events GROUP BY user_id, date_trunc('hour', ts) "
    "ORDER BY user_id, window_start"
)


# --- as-of (lag) join ------------------------------------------------------

def _view_purchase(b: pa.Table) -> pa.Table:
    """Events pruned to the view and purchase streams BEFORE the shuffle;
    event_type becomes an int8 tag (0 = view, 1 = purchase) so no
    strings move."""
    import pyarrow.compute as pc

    t = b.filter(pc.is_in(b.column("event_type"),
                          value_set=pa.array(["view", "purchase"])))
    return pa.table({
        "event_id": t.column("event_id"),
        "user_id": t.column("user_id"),
        "ts": t.column("ts"),
        "tag": pc.cast(pc.equal(t.column("event_type"), "purchase"),
                       pa.int8()),
    })


def q_asof_lag(sf_dir: str):
    """Per-user as-of self-join: each event paired with the most recent
    prior event of the same user. NEVER group by the raw user_id (that
    calls Python once per user — tens of millions of interpreter calls at
    scale); instead ``by_key`` on user_id (the one wide shuffle, 64
    partitions), then one lexsort per partition and a run-boundary-masked
    vectorized lag — the canonical composition for as-of/range joins that
    Ray Data lacks natively."""
    import ray.data

    ds = ray.data.read_parquet(os.path.join(sf_dir, "events.parquet"),
                               columns=["event_id", "user_id", "ts"])

    def lag_partition(g: pa.Table) -> pa.Table:
        n = g.num_rows
        if n == 0:
            return pa.table({"event_id": pa.array([], type=pa.int64()),
                             "prev_event_id": pa.array([], type=pa.int64())})
        ev = g.column("event_id").to_numpy(zero_copy_only=False)
        ts = g.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        uid = g.column("user_id").to_numpy(zero_copy_only=False)
        order = np.lexsort((ev, ts, uid))  # PARTITION BY uid ORDER BY ts, ev
        sev = ev[order]
        suid = uid[order]
        prev = np.zeros(n, dtype=np.int64)
        prev[1:] = sev[:-1]
        has_prev = np.zeros(n, dtype=bool)
        has_prev[1:] = suid[1:] == suid[:-1]  # null at each user-run start
        return pa.table({
            "event_id": pa.array(sev, type=pa.int64()),
            "prev_event_id": pa.array(prev, type=pa.int64(), mask=~has_prev),
        })

    return by_key(ds, "user_id", lag_partition)


SQL_Q_ASOF_LAG = (
    "SELECT event_id, lag(event_id) OVER "
    "(PARTITION BY user_id ORDER BY ts, event_id) AS prev_event_id "
    "FROM events"
)


def q_asof_join(sf_dir: str):
    """Two-stream as-of join (attribution): each purchase event paired
    with the user's most recent STRICTLY PRIOR view event. Same
    fixed-partition composition as q_asof_lag — filter to the two streams
    at the read (nothing else shuffles), hash-partition on user, one
    lexsort + vectorized running-maximum per partition; Python is called
    64 times total, never per user."""
    import ray.data

    ds = ray.data.read_parquet(os.path.join(sf_dir, "events.parquet"),
                               columns=["event_id", "user_id", "ts",
                                        "event_type"])

    def asof_partition(g: pa.Table) -> pa.Table:
        n = g.num_rows
        empty = pa.table({"event_id": pa.array([], type=pa.int64()),
                          "prev_view_id": pa.array([], type=pa.int64())})
        if n == 0:
            return empty
        ev = g.column("event_id").to_numpy(zero_copy_only=False)
        ts = g.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        uid = g.column("user_id").to_numpy(zero_copy_only=False)
        tag = g.column("tag").to_numpy(zero_copy_only=False)
        order = np.lexsort((ev, ts, uid))
        sev, suid, stag = ev[order], uid[order], tag[order]
        idx = np.arange(n, dtype=np.int64)
        vidx = np.where(stag == 0, idx, -1)
        acc = np.maximum.accumulate(vidx)
        last_excl = np.empty(n, dtype=np.int64)  # last view index at j < i
        last_excl[0] = -1
        last_excl[1:] = acc[:-1]
        boundary = np.zeros(n, dtype=bool)
        boundary[0] = True
        boundary[1:] = suid[1:] != suid[:-1]
        run_start = np.maximum.accumulate(np.where(boundary, idx, 0))
        valid = last_excl >= run_start  # view must be in the SAME user run
        is_p = stag == 1
        if not is_p.any():
            return empty
        prev = sev[np.maximum(last_excl, 0)[is_p]]
        return pa.table({
            "event_id": pa.array(sev[is_p], type=pa.int64()),
            "prev_view_id": pa.array(prev, type=pa.int64(),
                                     mask=~valid[is_p]),
        })

    return by_key(ds.map_batches(_view_purchase, batch_format="pyarrow"),
                  "user_id", asof_partition)


SQL_Q_ASOF_JOIN = (
    "SELECT event_id, prev_view_id FROM ("
    "  SELECT event_id, event_type, "
    "         last_value(view_id IGNORE NULLS) OVER ("
    "             PARTITION BY user_id ORDER BY ts, event_id "
    "             ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING"
    "         ) AS prev_view_id "
    "  FROM (SELECT event_id, user_id, ts, event_type, "
    "               CASE WHEN event_type = 'view' THEN event_id END AS view_id "
    "        FROM events)"
    ") WHERE event_type = 'purchase'"
)


def q_range_join(sf_dir: str):
    """Banded range join (attribution window count): for each purchase,
    how many of the SAME user's views fall in the 2 h before it. The
    composition Ray Data lacks natively: filter both streams at the read,
    hash-partition on user, then — per partition — sort each stream once
    and answer every purchase with two vectorized searchsorted calls over
    a (dense-user, time-offset) composite key whose per-user blocks the
    window can never cross. No per-user or per-purchase Python."""
    import ray.data

    ds = ray.data.read_parquet(os.path.join(sf_dir, "events.parquet"),
                               columns=["event_id", "user_id", "ts",
                                        "event_type"])
    window_us = 2 * 3600 * 1_000_000

    def count_window(g: pa.Table) -> pa.Table:
        empty = pa.table({"event_id": pa.array([], type=pa.int64()),
                          "n_views_2h": pa.array([], type=pa.int64())})
        if g.num_rows == 0:
            return empty
        ev = g.column("event_id").to_numpy(zero_copy_only=False)
        ts = g.column("ts").cast(pa.timestamp("us")).cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        uid = g.column("user_id").to_numpy(zero_copy_only=False)
        tag = g.column("tag").to_numpy(zero_copy_only=False)
        is_p = tag == 1
        if not is_p.any():
            return empty
        v_uid, v_ts = uid[~is_p], ts[~is_p]
        p_uid, p_ts, p_ev = uid[is_p], ts[is_p], ev[is_p]
        if len(v_uid) == 0:
            return pa.table({"event_id": pa.array(p_ev, type=pa.int64()),
                             "n_views_2h": pa.array(np.zeros(len(p_ev), np.int64))})
        tmin = int(ts.min())
        span = int(ts.max()) - tmin + window_us + 2
        uniq = np.unique(uid)
        assert len(uniq) * span < (1 << 62), "composite key would overflow"
        d_v = np.searchsorted(uniq, v_uid).astype(np.int64)
        d_p = np.searchsorted(uniq, p_uid).astype(np.int64)
        key_v = np.sort(d_v * span + (v_ts - tmin))
        off_lo = np.clip(p_ts - window_us - tmin, 0, span - 1)
        off_hi = p_ts - tmin  # strict <, side="left"
        lo = np.searchsorted(key_v, d_p * span + off_lo, side="left")
        hi = np.searchsorted(key_v, d_p * span + off_hi, side="left")
        return pa.table({
            "event_id": pa.array(p_ev, type=pa.int64()),
            "n_views_2h": pa.array(hi - lo, type=pa.int64()),
        })

    return by_key(ds.map_batches(_view_purchase, batch_format="pyarrow"),
                  "user_id", count_window)


SQL_Q_RANGE_JOIN = (
    "SELECT p.event_id, count(v.event_id) AS n_views_2h "
    "FROM events p LEFT JOIN events v "
    "  ON v.user_id = p.user_id AND v.event_type = 'view' "
    " AND v.ts >= p.ts - INTERVAL '2 hours' AND v.ts < p.ts "
    "WHERE p.event_type = 'purchase' GROUP BY p.event_id"
)


def q_sessionize(sf_dir: str):
    """Gap-based session windows (6 h inactivity closes a session) — the
    third streaming-window kind next to tumbling/sliding. Same
    fixed-partition composition: sessions never span users, users never
    span partitions, so one lexsort + boundary cumsum per partition
    assigns every session id and aggregates it with reduceat — no per-user
    or per-session Python."""
    import ray.data

    ds = ray.data.read_parquet(os.path.join(sf_dir, "events.parquet"),
                               columns=["event_id", "user_id", "ts"])
    gap_us = 6 * 3600 * 1_000_000

    def sessionize(g: pa.Table) -> pa.Table:
        n = g.num_rows
        if n == 0:
            return pa.table({
                "user_id": pa.array([], type=pa.int64()),
                "session_id": pa.array([], type=pa.int64()),
                "n_events": pa.array([], type=pa.int64()),
                "session_start": pa.array([], type=pa.timestamp("us")),
                "session_end": pa.array([], type=pa.timestamp("us")),
            })
        ev = g.column("event_id").to_numpy(zero_copy_only=False)
        ts = g.column("ts").cast(pa.timestamp("us")).cast(pa.int64()) \
            .to_numpy(zero_copy_only=False)
        uid = g.column("user_id").to_numpy(zero_copy_only=False)
        order = np.lexsort((ev, ts, uid))
        sts, suid = ts[order], uid[order]
        idx = np.arange(n, dtype=np.int64)
        new_user = np.zeros(n, dtype=bool)
        new_user[0] = True
        new_user[1:] = suid[1:] != suid[:-1]
        new_s = new_user.copy()
        new_s[1:] |= (sts[1:] - sts[:-1]) > gap_us
        cs = np.cumsum(new_s)
        run_start = np.maximum.accumulate(np.where(new_user, idx, 0))
        sid = cs - (cs[run_start] - 1)  # 1-based per user
        starts = np.flatnonzero(new_s)
        ends = np.append(starts[1:], n) - 1
        return pa.table({
            "user_id": pa.array(suid[starts], type=pa.int64()),
            "session_id": pa.array(sid[starts], type=pa.int64()),
            "n_events": pa.array(ends - starts + 1, type=pa.int64()),
            "session_start": pa.array(sts[starts]).cast(pa.timestamp("us")),
            "session_end": pa.array(sts[ends]).cast(pa.timestamp("us")),
        })

    return by_key(ds, "user_id", sessionize)


SQL_Q_SESSIONIZE = (
    "WITH marked AS ("
    "  SELECT user_id, ts, event_id, "
    "    CASE WHEN lag(ts) OVER w IS NULL "
    "         OR ts - lag(ts) OVER w > INTERVAL '6 hours' THEN 1 ELSE 0 END "
    "    AS new_s FROM events "
    "  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)), "
    "sess AS ("
    "  SELECT user_id, ts, "
    "    CAST(sum(new_s) OVER (PARTITION BY user_id ORDER BY ts, event_id "
    "         ROWS UNBOUNDED PRECEDING) AS BIGINT) AS session_id "
    "  FROM marked) "
    "SELECT user_id, session_id, count(*) AS n_events, "
    "min(ts) AS session_start, max(ts) AS session_end "
    "FROM sess GROUP BY user_id, session_id"
)


def sliding_window_agg(ds, num_parts: int | None = None,
                       input_bytes: int | None = None):
    """Sliding-window aggregate (1 h window, 30 min slide): each event is
    expanded to its two covering windows inside the batch combiner, then
    the same threshold-selected partial merge as the tumbling window —
    raw events never shuffle, only (user, window) partials do."""
    import pyarrow.compute as pc

    half_us = 1_800_000_000  # 30 min in microseconds

    def partial(b: pa.Table) -> pa.Table:
        us = b.column("ts").cast(pa.timestamp("us")).cast(pa.int64())
        w1 = pc.multiply(pc.divide(us, half_us), half_us)  # int floor-div
        w0 = pc.subtract(w1, half_us)
        v1000 = pc.cast(pc.round(pc.multiply(b.column("value"), 1000.0),
                                 round_mode="half_towards_infinity"),
                        pa.int64())
        uid = b.column("user_id")
        in_w0 = pa.table({"user_id": uid, "window_start": w0, "v1000": v1000})
        in_w1 = in_w0.set_column(1, "window_start", w1)
        expanded = pa.concat_tables([in_w0, in_w1])
        return expanded.group_by(["user_id", "window_start"]).aggregate(
            [("v1000", "count"), ("v1000", "sum")]
        )

    parts = ds.map_batches(partial, batch_format="pyarrow")

    def merge(b: pa.Table) -> pa.Table:
        agg = b.group_by(["user_id", "window_start"]).aggregate(
            [("v1000_count", "sum"), ("v1000_sum", "sum")]
        )
        return pa.table({
            "user_id": agg.column("user_id").cast(pa.int64()),
            "window_start": agg.column("window_start").cast(pa.timestamp("us")),
            "n_events": agg.column("v1000_count_sum").cast(pa.int64()),
            "sum_value_x1000": agg.column("v1000_sum_sum").cast(pa.int64()),
        })

    return _merge_partials(parts, merge, "user_id",
                           num_parts=num_parts, input_bytes=input_bytes)


def q_sliding_window(sf_dir: str):
    """Driver entry for the sliding-window aggregate; see
    sliding_window_agg."""
    import ray.data

    path = os.path.join(sf_dir, "events.parquet")
    ds = ray.data.read_parquet(path, columns=["user_id", "ts", "value"])
    return sliding_window_agg(ds, input_bytes=_input_bytes(path))


SQL_Q_SLIDING_WINDOW = (
    "WITH expanded AS ("
    "  SELECT user_id, "
    "         unnest([time_bucket(INTERVAL '30 minutes', ts), "
    "                 time_bucket(INTERVAL '30 minutes', ts) "
    "                 - INTERVAL '30 minutes']) AS window_start, "
    "         CAST(round(value * 1000) AS BIGINT) AS v1000 "
    "  FROM events) "
    "SELECT user_id, window_start, count(*) AS n_events, "
    "CAST(sum(v1000) AS BIGINT) AS sum_value_x1000 "
    "FROM expanded GROUP BY user_id, window_start"
)
