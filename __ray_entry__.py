"""Driver contract for the graft builder (Ray Data target).

The driver's verify calls ``entry()`` as a smoke check (Ray is already
initialised, local mode), runs each ``queries()[name](sf_dir)`` at
sf=0.01 and compares it against the matching ``oracle_sql()[name]`` via
DuckDB (row-count + schema + order-insensitive value-hash ->
CORRECTNESS_r{N}.json).

Ray is initialised by the driver BEFORE this module is imported: nothing
here (or in orc_ray) calls ``ray.init()`` / ``ray.shutdown()``.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001: read documents ->
    tokenize (map_batches) -> stripe-encode to blobs+manifests (Ray tasks)
    -> decode from manifests -> verify token-array equality -> return the
    decoded Dataset."""
    from orc_ray.pipelines.decode import decode_dataset
    from orc_ray.pipelines.queries import encoded_dir, tokens_dataset
    from orc_ray.pipelines.verify import verify_encoded

    sf_dir = "/root/testdata/sf0.001"
    out = encoded_dir(sf_dir, fresh=True)
    res = verify_encoded(tokens_dataset(sf_dir), out)
    assert res["match"], f"round-trip mismatch: {res}"
    return decode_dataset(out)


def queries() -> dict[str, Callable[[str], Any]]:
    from orc_ray.pipelines import queries as q
    from orc_ray.pipelines import queries_extras as x
    from orc_ray.pipelines import queries_relational as r

    return {
        # core encoder stack (SURVEY.md §2)
        "tokenize_stats": q.q_tokenize_stats,
        "roundtrip_tokens": q.q_roundtrip_tokens,
        "export_roundtrip": q.q_export_roundtrip,
        "manifest_stats": q.q_manifest_stats,
        "decode_projection": q.q_decode_projection,
        "decode_filter": q.q_decode_filter,
        "point_lookup": q.q_point_lookup,
        "events_roundtrip": q.q_events_roundtrip,
        "words_roundtrip": q.q_words_roundtrip,
        "map_roundtrip": q.q_map_roundtrip,
        "union_roundtrip": q.q_union_roundtrip,
        "bool_stats": q.q_bool_stats,
        "orc_import": q.q_orc_import,
        "orc_pushdown": q.q_orc_pushdown,
        "orc_export": q.q_orc_export,
        # text analysis
        "token_count": x.q_token_count,
        "quality_score": x.q_quality,
        "langid": x.q_langid,
        "fingerprint": x.q_fingerprint,
        "decontaminate": x.q_decontaminate,
        "sample_stratified": x.q_sample_stratified,
        "word_df_score": x.q_word_df_score,
        "source_quantiles": x.q_source_quantiles,
        "topk_docs": x.q_topk_docs,
        "group_topk": x.q_group_topk,
        "distinct_pairs": x.q_distinct_pairs,
        "vocab_size": x.q_vocab_size,
        "approx_distinct_words": x.q_approx_distinct_words,
        # dedup family
        "dedup_exact": x.q_dedup_exact,
        "prepare_corpus": x.q_prepare_corpus,
        "ngram_dedup_pairs": x.q_ngram_dedup_pairs,
        "dedup_keep": x.q_dedup_keep,
        "simhash_pairs": x.q_simhash,
        "embedding_neardup": x.q_embedding_neardup,
        "embedding_neardup_ivf": x.q_embedding_neardup_ivf,
        "window_agg": x.q_window_agg,
        "sliding_window": x.q_sliding_window,
        "sessionize": x.q_sessionize,
        "asof_lag": x.q_asof_lag,
        "asof_join": x.q_asof_join,
        "range_join": x.q_range_join,
        # relational analytics (TPC-H-shaped tables)
        "pricing_summary": r.q_pricing_summary,
        "order_revenue": r.q_order_revenue,
        "region_rollup": r.q_region_rollup,
        "dormant_customers": r.q_dormant_customers,
        # similarity search
        "ann_topk": x.q_ann_topk,
        "ann_ivf": x.q_ann_ivf,
        # multimodal plumbing
        "media_decode": x.q_media_decode,
    }


def oracle_sql() -> dict[str, str]:
    from orc_ray.pipelines import queries as q
    from orc_ray.pipelines import queries_extras as x
    from orc_ray.pipelines import queries_relational as r

    return {
        "tokenize_stats": q.SQL_TOKENIZE_STATS,
        "roundtrip_tokens": q.SQL_ROUNDTRIP_TOKENS,
        "export_roundtrip": q.SQL_EXPORT_ROUNDTRIP,
        "manifest_stats": q.SQL_MANIFEST_STATS,
        "decode_projection": q.SQL_DECODE_PROJECTION,
        "decode_filter": q.SQL_DECODE_FILTER,
        "point_lookup": q.SQL_POINT_LOOKUP,
        "events_roundtrip": q.SQL_EVENTS_ROUNDTRIP,
        "words_roundtrip": q.SQL_WORDS_ROUNDTRIP,
        "map_roundtrip": q.SQL_MAP_ROUNDTRIP,
        "union_roundtrip": q.SQL_UNION_ROUNDTRIP,
        "bool_stats": q.SQL_BOOL_STATS,
        "orc_import": q.SQL_ORC_IMPORT,
        "orc_pushdown": q.SQL_ORC_PUSHDOWN,
        "orc_export": q.SQL_ORC_EXPORT,
        "token_count": x.SQL_Q_TOKEN_COUNT,
        "quality_score": x.SQL_Q_QUALITY,
        "langid": x.SQL_Q_LANGID,
        "fingerprint": x.SQL_Q_FINGERPRINT,
        "decontaminate": x.SQL_Q_DECONTAMINATE,
        "sample_stratified": x.SQL_Q_SAMPLE,
        "word_df_score": x.SQL_Q_WORD_DF_SCORE,
        "source_quantiles": x.SQL_Q_SOURCE_QUANTILES,
        "topk_docs": x.SQL_Q_TOPK_DOCS,
        "group_topk": x.SQL_Q_GROUP_TOPK,
        "distinct_pairs": x.SQL_Q_DISTINCT_PAIRS,
        "vocab_size": x.SQL_Q_VOCAB_SIZE,
        # approx_distinct_words: HLL sketch -> rows-only (pytest accuracy)
        "dedup_exact": x.SQL_Q_DEDUP_EXACT,
        "prepare_corpus": x.SQL_Q_PREPARE_CORPUS,
        "ngram_dedup_pairs": x.SQL_Q_NGRAM_DEDUP,
        "dedup_keep": x.SQL_Q_DEDUP_KEEP,
        "simhash_pairs": x.SQL_Q_SIMHASH,
        "embedding_neardup": x.SQL_Q_EMB_NEARDUP,
        "pricing_summary": r.SQL_Q_PRICING_SUMMARY,
        "order_revenue": r.SQL_Q_ORDER_REVENUE,
        "region_rollup": r.SQL_Q_REGION_ROLLUP,
        "dormant_customers": r.SQL_Q_DORMANT_CUSTOMERS,
        "ann_topk": x.SQL_Q_ANN_TOPK,
        "window_agg": x.SQL_Q_WINDOW_AGG,
        "sliding_window": x.SQL_Q_SLIDING_WINDOW,
        "sessionize": x.SQL_Q_SESSIONIZE,
        "asof_lag": x.SQL_Q_ASOF_LAG,
        "asof_join": x.SQL_Q_ASOF_JOIN,
        "range_join": x.SQL_Q_RANGE_JOIN,
        # ann_ivf / embedding_neardup_ivf / media_decode: approximate or
        # stubbed-codec ops -> rows-only checks (asserted in pytest instead)
    }
