"""Tests for the vectorized text-hash kernels (texthash.py) and the
round-2 distributed dedup pipelines: kernel parity vs naive references,
DuckDB oracle parity for simhash/langid, distributed vs local agreement."""

import re
import string

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from orc_ray.functions import dedup
from orc_ray.functions import texthash as th

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def docs():
    return pq.read_table(f"{SF}/documents.parquet")


def _wh31_naive(w: str) -> int:
    h = 0
    for i, b in enumerate(w.encode()):
        h = (h + (b + 7) * pow(131, i, th.P31)) % th.P31
    return h


def _mix_naive(h: int) -> int:
    m = (h * th.MIX_K) % (1 << 64)
    return m ^ (m >> 31)


FUZZ = None


def _fuzz_texts(n=150, seed=7):
    global FUZZ
    if FUZZ is None:
        rng = np.random.default_rng(seed)
        alph = list(string.ascii_letters + string.digits
                    + "_ .,!?()[]{}<>-+=;:'\"" + "   ")
        FUZZ = ["".join(rng.choice(alph, size=rng.integers(0, 120)))
                for _ in range(n)]
    return FUZZ


def test_word_hashes31_matches_naive():
    texts = _fuzz_texts() + ["", "a", "a  b", "hello world"]
    arr = pa.array(texts)
    flat, counts = th.flat_words(arr)
    assert counts.tolist() == [len(t.split(" ")) for t in texts]
    got = th.word_hashes31(flat)
    exp = [_wh31_naive(w) for t in texts for w in t.split(" ")]
    assert got.tolist() == exp


def test_mix64_matches_naive():
    h = np.array([0, 1, 12345, th.P31 - 1], dtype=np.uint64)
    got = th.mix64(h)
    assert [int(g) for g in got] == [_mix_naive(int(x)) for x in h]


def test_simhash_signatures_match_naive():
    texts = _fuzz_texts()[:40]
    sims = th.simhash_signatures(pa.array(texts))
    for t, s in zip(texts, sims):
        gs = [_mix_naive(_wh31_naive(w)) for w in t.split(" ")]
        v = [0] * 64
        for g in gs:
            for b in range(64):
                v[b] += 1 if (g >> b) & 1 else -1
        exp = sum(1 << b for b in range(64) if v[b] > 0)
        assert int(s) == exp


def test_bpe_token_counts_match_regex():
    rx = re.compile(r"[A-Za-z0-9_]+|[^A-Za-z0-9_\s]")
    texts = _fuzz_texts() + ["", "  ", "a.b", "__x__ 9!", "\tq\nz"]
    got = th.bpe_token_counts(pa.array(texts))
    assert got.tolist() == [len(rx.findall(t)) for t in texts]


def test_bpe_token_counts_non_ascii_fallback():
    rx = re.compile(r"[A-Za-z0-9_]+|[^A-Za-z0-9_\s]")
    texts = ["héllo wörld", "的了是我 abc", "mixed é."]
    got = th.bpe_token_counts(pa.array(texts))
    assert got.tolist() == [len(rx.findall(t)) for t in texts]


def test_shingle_sets_match_naive():
    texts = _fuzz_texts()[:50] + ["a b", "a b c", "a b c a b c"]
    sv, off = th.shingle_sets(pa.array(texts), k=3)
    for i, t in enumerate(texts):
        ws = t.split(" ")
        exp = (len(set(tuple(ws[j: j + 3]) for j in range(len(ws) - 2)))
               if len(ws) >= 3 else 0)
        seg = sv[off[i]: off[i + 1]]
        assert len(seg) == exp, t
        if len(seg) > 1:  # sorted unique within each doc
            assert (np.diff(seg.astype(np.uint64)) > np.uint64(0)).all()


def test_popcount64():
    rng = np.random.default_rng(3)
    x = rng.integers(0, 1 << 63, 500).astype(np.uint64)
    assert (th.popcount64(x) == [bin(int(v)).count("1") for v in x]).all()


# --- DuckDB oracle parity (no Ray needed) ----------------------------------

def test_simhash_sql_oracle_parity(docs):
    import duckdb

    con = duckdb.connect()
    con.register("documents", docs)
    oracle = con.sql(dedup.sql_simhash_pairs(3)).arrow()
    sigs = dedup.simhash_batch(docs)
    mine = dedup.simhash_near_pairs(sigs, max_hamming=3)
    assert mine.to_pylist() == oracle.to_pylist()


def test_langid_sql_oracle_parity(docs):
    import duckdb

    from orc_ray.functions.text import SQL_LANGID, langid_batch

    con = duckdb.connect()
    con.register("documents", docs)
    oracle = con.sql(SQL_LANGID).arrow()
    mine = langid_batch(docs)
    o = dict(zip(oracle.column("doc_id").to_pylist(),
                 oracle.column("pred_lang").to_pylist()))
    m = dict(zip(mine.column("doc_id").to_pylist(),
                 mine.column("pred_lang").to_pylist()))
    assert m == o


# --- distributed pipelines (Ray) -------------------------------------------

def test_minhash_dedup_distributed_matches_exact_jaccard(ray_session):
    import duckdb
    import ray.data

    from orc_ray.pipelines.queries_extras import SQL_Q_NGRAM_DEDUP

    ds = ray.data.read_parquet(f"{SF}/documents.parquet")
    res = dedup.minhash_dedup_pairs(ds, threshold=0.8)
    mine = pa.concat_tables(
        list(res.iter_batches(batch_format="pyarrow", batch_size=None)))
    con = duckdb.connect()
    con.sql("CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{SF}/documents.parquet')")
    oracle = con.sql(SQL_Q_NGRAM_DEDUP).arrow()
    key = lambda r: (r["doc_a"], r["doc_b"])
    assert sorted(mine.to_pylist(), key=key) == sorted(oracle.to_pylist(), key=key)


def test_minhash_dedup_join_path_matches_broadcast(ray_session):
    """verify='join' (double hash join, no broadcast) must produce the
    same pair set as the default broadcast path."""
    import ray.data

    ds = ray.data.read_parquet(f"{SF}/documents.parquet")
    res_b = dedup.minhash_dedup_pairs(ds, threshold=0.8)
    mine_b = pa.concat_tables(
        list(res_b.iter_batches(batch_format="pyarrow", batch_size=None)))
    res_j = dedup.minhash_dedup_pairs(ds, threshold=0.8, verify="join")
    mine_j = pa.concat_tables(
        list(res_j.iter_batches(batch_format="pyarrow", batch_size=None)))
    key = lambda r: (r["doc_a"], r["doc_b"])
    assert sorted(mine_j.to_pylist(), key=key) == \
        sorted(mine_b.to_pylist(), key=key)


def test_shingle_k_parameter():
    """shingle_sets with k != 3 (was hardcoded): windows must not cross
    doc boundaries and counts must be max(0, words - k + 1) for distinct
    words."""
    texts = pa.array(["a b c d e", "x y", "p q r s"])
    for k in (2, 3, 4):
        _, off = th.shingle_sets(texts, k=k)
        counts = np.diff(off).tolist()
        assert counts == [max(0, 5 - k + 1), max(0, 2 - k + 1),
                          max(0, 4 - k + 1)]


def test_skew_guard_warns_not_silent():
    """A bucket run above MAX_RUN must emit a RuntimeWarning and be
    counted, never dropped silently."""
    import warnings

    n = dedup.MAX_RUN + 8
    group = pa.table({
        "doc_id": pa.array(np.arange(n), type=pa.int64()),
        "bucket": pa.array(np.zeros(n, dtype=np.int64)),
        "part": pa.array(np.zeros(n, dtype=np.int64)),
    })
    before = len(dedup._SKIPPED_RUNS)
    with warnings.catch_warnings(record=True) as w:
        warnings.simplefilter("always")
        out = dedup.partition_candidates(group)
    assert out.num_rows == 0
    assert any("degenerate bucket run" in str(x.message) for x in w)
    assert len(dedup._SKIPPED_RUNS) == before + 1


def test_simhash_dedup_distributed_matches_local(ray_session, docs):
    import ray.data

    ds = ray.data.read_parquet(f"{SF}/documents.parquet")
    res = dedup.simhash_dedup_pairs(ds, max_hamming=3)
    mine = pa.concat_tables(
        list(res.iter_batches(batch_format="pyarrow", batch_size=None)))
    local = dedup.simhash_near_pairs(dedup.simhash_batch(docs), max_hamming=3)
    key = lambda r: (r["doc_a"], r["doc_b"])
    assert sorted(mine.to_pylist(), key=key) == sorted(local.to_pylist(), key=key)


def test_embedding_neardup_distributed_matches_local(ray_session):
    import ray.data

    embs = pq.read_table(f"{SF}/embeddings.parquet")
    local = dedup.embedding_near_pairs(embs, threshold=0.3)
    ds = ray.data.read_parquet(f"{SF}/embeddings.parquet")
    res = dedup.embedding_near_pairs_ds(ds, threshold=0.3, nblocks=4)
    mine = pa.concat_tables(
        list(res.iter_batches(batch_format="pyarrow", batch_size=None)))
    key = lambda r: (r["vec_a"], r["vec_b"])
    assert sorted(mine.to_pylist(), key=key) == sorted(local.to_pylist(), key=key)


def test_embedding_neardup_ivf_recall(ray_session):
    import ray.data

    embs = pq.read_table(f"{SF}/embeddings.parquet")
    exact = set(zip(*[dedup.embedding_near_pairs(embs, 0.3).column(c).to_pylist()
                      for c in ("vec_a", "vec_b")]))
    ds = ray.data.read_parquet(f"{SF}/embeddings.parquet")
    res = dedup.embedding_near_pairs_ivf(ds, threshold=0.3, ncentroids=8,
                                         nassign=2)
    approx = pa.concat_tables(
        list(res.iter_batches(batch_format="pyarrow", batch_size=None)))
    ap = set(zip(approx.column("vec_a").to_pylist(),
                 approx.column("vec_b").to_pylist()))
    assert ap <= exact  # within-bucket verification is exact
    recall = len(ap & exact) / len(exact) if exact else 1.0
    assert recall >= 0.5, f"IVF near-dup recall {recall}"


def test_embedding_neardup_ds_descending_ids(ray_session):
    """Regression (round-2 review): cross-block pairs must survive when
    vec_ids are not ascending in block order."""
    import ray.data

    rng = np.random.default_rng(0)
    emb = rng.normal(size=(40, 16)).astype(np.float32)
    emb[36] = emb[4] + 1e-6
    t = pa.table({
        "vec_id": pa.array(np.arange(40)[::-1], type=pa.int64()),
        "embedding": pa.array([list(map(float, r)) for r in emb],
                              type=pa.list_(pa.float32())),
    })
    local = dedup.embedding_near_pairs(t, threshold=0.99)
    dist = dedup.embedding_near_pairs_ds(ray.data.from_arrow(t),
                                         threshold=0.99, nblocks=4)
    got = pa.concat_tables(
        list(dist.iter_batches(batch_format="pyarrow", batch_size=None)))
    key = lambda tb: sorted(zip(tb.column("vec_a").to_pylist(),
                                tb.column("vec_b").to_pylist()))
    assert key(got) == key(local)
    assert len(key(got)) >= 1


def test_long_word_hash_truncation_matches_sql():
    """Words longer than HASH_MAX_WORD hash identically on both sides
    (Python truncates; the SQL power-table join drops late positions)."""
    import duckdb

    # two docs whose single word differs ONLY beyond position 256: with
    # consistent truncation both sides see identical signatures (hamming
    # 0 -> pair found by both); without it the Python side would hash the
    # tails, produce different signatures, and the compare would diverge
    prefix = "x" * th.HASH_MAX_WORD
    texts = [f"{prefix}AAAA", f"{prefix}BBBB"]
    t = pa.table({"doc_id": pa.array([1, 2], type=pa.int64()),
                  "text": pa.array(texts)})
    con = duckdb.connect()
    con.register("documents", t)
    oracle = con.sql(dedup.sql_simhash_pairs(3)).arrow()
    sigs = dedup.simhash_batch(t)
    mine = dedup.simhash_near_pairs(sigs, max_hamming=3)
    assert mine.to_pylist() == oracle.to_pylist()
    assert mine.num_rows == 1 and mine.column("hamming")[0].as_py() == 0


def test_dedup_degenerate_corpus(ray_session):
    """Adversarial probe: empty texts, one-word docs, and a 300-copy
    identical cluster through minhash + simhash — skew guards and
    empty-shingle edges must neither crash nor drop the cluster (300 is
    far under MAX_RUN)."""
    import warnings

    import ray.data

    n_cluster = 300
    texts = ([""] * 5 + ["word"] * 5
             + ["the exact same duplicated document text body here"] * n_cluster
             + [f"unique filler text number {i} with its own words {i * 7}"
                for i in range(20)])
    t = pa.table({
        "doc_id": pa.array(range(len(texts)), type=pa.int64()),
        "text": pa.array(texts),
    })
    ds = ray.data.from_arrow(t).repartition(4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no skew-guard warning expected
        res = dedup.minhash_dedup_pairs(ds, threshold=0.8)
        mine = pa.concat_tables(
            list(res.iter_batches(batch_format="pyarrow", batch_size=None)))
    # the identical cluster yields all C(300,2) pairs at jaccard 1000
    cluster_ids = set(range(10, 10 + n_cluster))
    got = [r for r in mine.to_pylist()
           if r["doc_a"] in cluster_ids and r["doc_b"] in cluster_ids]
    assert len(got) == n_cluster * (n_cluster - 1) // 2
    assert all(r["jaccard_x1000"] == 1000 for r in got)
    # no pair may involve an empty doc (no shingles => no candidates)
    assert all(r["doc_a"] >= 5 and r["doc_b"] >= 5 for r in mine.to_pylist())

    sh = dedup.simhash_dedup_pairs(ray.data.from_arrow(t).repartition(4),
                                   max_hamming=3)
    sh_t = pa.concat_tables(
        list(sh.iter_batches(batch_format="pyarrow", batch_size=None)))
    sh_pairs = {(r["doc_a"], r["doc_b"]) for r in sh_t.to_pylist()}
    # identical docs have hamming 0: the full cluster must be present
    assert {(10, 11), (10, 12), (308, 309)} <= sh_pairs


def test_component_reps_closure():
    """Union-find closure: chains, a separate 2-cluster, and ids absent
    from any pair must resolve to component-min representatives."""
    import numpy as np

    a = np.array([1, 5, 2, 40], dtype=np.int64)
    b = np.array([5, 9, 3, 12], dtype=np.int64)
    ids, reps = dedup._component_reps(a, b)
    got = dict(zip(ids.tolist(), reps.tolist()))
    assert got == {1: 1, 5: 1, 9: 1, 2: 2, 3: 2, 12: 12, 40: 12}


def test_dedup_keep_matches_recursive_sql(ray_session):
    """q_dedup_keep (pairs -> transitive closure -> broadcast rep lookup)
    must equal the DuckDB recursive-CTE oracle on the fixture corpus.

    Recall assumption: equality with the EXACT closure holds because
    minhash_dedup_pairs' LSH banding (32 bands x 4 rows) misses a true
    Jaccard>=0.8 pair with probability < 1e-7 per pair — effectively
    never on this fixture, but probabilistic in general.  If the corpus,
    shingling, or hash seeds change and this test flakes, the miss
    probability math in dedup.minhash_dedup_pairs is the first suspect
    (the pairs themselves are exact-verified; only *recall* is
    probabilistic)."""
    import duckdb

    from orc_ray.pipelines.queries_extras import SQL_Q_DEDUP_KEEP, q_dedup_keep

    res = q_dedup_keep(SF)
    mine = pa.concat_tables(
        list(res.iter_batches(batch_format="pyarrow", batch_size=None)))
    con = duckdb.connect()
    con.sql("CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{SF}/documents.parquet')")
    oracle = con.sql(SQL_Q_DEDUP_KEEP).arrow()
    key = lambda r: r["doc_id"]
    assert sorted(mine.to_pylist(), key=key) == sorted(oracle.to_pylist(), key=key)
    # survivors: every rep must be a fixed point (rep of a rep is itself)
    rep_of = {r["doc_id"]: r["rep_doc_id"] for r in mine.to_pylist()}
    assert all(rep_of[v] == v for v in set(rep_of.values()))
