"""Every functions/ stage, the broadcast-using queries, the keyed-exchange
joins and the encode, checksum, fsck, compaction and decode stages finish
on a 1-CPU Ray cluster.

A stage that holds its CPU for the whole job (an actor pool) starves the
read that feeds it when the cluster has one CPU, and the job never ends.
The checks run in a subprocess with ``ray.init(num_cpus=1)`` under a hard
timeout, on tiny generated inputs, and each result is compared with a
local or DuckDB computation of the same thing.

Run directly: ``python tests/test_one_cpu.py DIR [stages|encode|joins]``
writes the inputs to DIR and runs that group of checks (default
``stages``).
"""

import os
import signal
import subprocess
import sys
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

TIMEOUT_S = 240
# TPC-H-shaped tables and documents for the queries checked against DuckDB
SF = "/root/testdata/sf0.001"

_WORDS = (["the", "and", "of", "is", "el", "la", "de", "que", "der", "die",
           "und", "ist", "le", "et", "est"] + [f"w{i}" for i in range(60)])


def _write_inputs(d: str) -> None:
    rng = np.random.default_rng(7)
    texts = [" ".join(rng.choice(_WORDS, int(rng.integers(12, 30))))
             for _ in range(60)]
    for i in range(10):  # near-duplicates: last word changed
        w = texts[i].split(" ")
        w[-1] = "zz"
        texts.append(" ".join(w))
    texts += [texts[3], texts[3] + " zz"]  # a 4-doc cluster around doc 3
    pq.write_table(pa.table({
        "doc_id": pa.array(np.arange(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    }), os.path.join(d, "documents.parquet"), row_group_size=16)

    emb = rng.normal(size=(60, 8)).astype(np.float32)
    emb = np.vstack([emb, emb[:6] + 1e-3 * rng.normal(size=(6, 8))
                     .astype(np.float32)])
    pq.write_table(pa.table({
        "vec_id": pa.array(np.arange(len(emb)), pa.int64()),
        "embedding": pa.array([list(map(float, r)) for r in emb],
                              pa.list_(pa.float32())),
    }), os.path.join(d, "embeddings.parquet"), row_group_size=16)

    pq.write_table(pa.table({
        "r_regionkey": pa.array(np.arange(5), pa.int32()),
        "r_name": pa.array([f"R{i}" for i in range(5)], pa.string()),
    }), os.path.join(d, "region.parquet"))
    pq.write_table(pa.table({
        "n_nationkey": pa.array(np.arange(25), pa.int32()),
        "n_regionkey": pa.array(np.arange(25) % 5, pa.int32()),
    }), os.path.join(d, "nation.parquet"))
    pq.write_table(pa.table({
        "c_nationkey": pa.array(rng.integers(0, 25, 200), pa.int32()),
        "c_acctbal": pa.array(np.round(rng.uniform(-999, 9999, 200), 2)),
    }), os.path.join(d, "customer.parquet"), row_group_size=50)


def _rows(t, cols=None) -> list:
    if not isinstance(t, pa.Table):
        batches = list(t.iter_batches(batch_format="pyarrow",
                                      batch_size=None))
        t = pa.concat_tables(batches)
    cols = cols or sorted(t.column_names)
    return sorted(zip(*[t.column(c).to_pylist() for c in cols]))


def _exact_minhash_pairs(docs: pa.Table, threshold: float) -> list:
    from orc_ray.functions import dedup

    sets = dedup.shingle_sketch_batch(docs)
    sv, off = dedup._sketch_arrays(sets)
    ids = sets.column("doc_id").to_pylist()
    out = []
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            a, b = sv[off[i]:off[i + 1]], sv[off[j]:off[j + 1]]
            inter = len(np.intersect1d(a, b))
            union = len(a) + len(b) - inter
            if union and inter * 1000 >= round(threshold * 1000) * union:
                out.append((ids[i], ids[j], inter * 1000 // union))
    return sorted(out)


def _topk_reference(emb: pa.Table, queries: pa.Table, k: int) -> list:
    from orc_ray.functions.ann import _emb_matrix, _unit

    e, ids = _emb_matrix(emb)
    q, qids = _emb_matrix(queries)
    sims = _unit(q) @ _unit(e).T
    out = []
    for qi, qid in enumerate(qids):
        order = [j for j in np.lexsort((ids, -sims[qi])) if ids[j] != qid]
        out += [(int(qid), int(ids[j]), r)
                for r, j in enumerate(order[:k], 1)]
    return sorted(out)


def _check_all(d: str) -> None:
    import duckdb
    import ray
    import ray.data

    from orc_ray.functions import ann, dedup, multimodal
    from orc_ray.pipelines import queries_extras as qe
    from orc_ray.pipelines import queries_relational as qr

    _write_inputs(d)
    ray.init(address="local", num_cpus=1, include_dashboard=False)
    docs = pq.read_table(os.path.join(d, "documents.parquet"))
    embs = pq.read_table(os.path.join(d, "embeddings.parquet"))
    queries = embs.slice(0, 5)
    t0 = time.perf_counter()

    def done(name: str) -> None:
        print(f"{name} ok {time.perf_counter() - t0:.1f}s", flush=True)

    def docs_ds():
        return ray.data.read_parquet(os.path.join(d, "documents.parquet"))

    def emb_ds():
        return ray.data.read_parquet(os.path.join(d, "embeddings.parquet"))

    top = ann.brute_force_topk(emb_ds(), queries, k=3)
    want = _topk_reference(embs, queries, 3)
    assert _rows(top, ["query_id", "vec_id", "rank"]) == want
    done("brute_force_topk")
    # probing every bucket makes IVF exact
    ivf = ann.ivf_topk(emb_ds(), queries, k=3, ncentroids=4, nprobe=4)
    assert _rows(ivf) == _rows(top)
    done("ivf_topk")

    exact = _exact_minhash_pairs(docs, 0.8)
    assert len(exact) >= 10
    pairs = dedup.minhash_dedup_pairs(docs_ds(), threshold=0.8)
    assert _rows(pairs, ["doc_a", "doc_b", "jaccard_x1000"]) == exact
    done("minhash_dedup_pairs")
    a = np.array([p[0] for p in exact])
    b = np.array([p[1] for p in exact])
    members, reps = dedup._component_reps(a, b)
    rep_of = dict(zip(members.tolist(), reps.tolist()))
    reps_ds = dedup.dedup_cluster_reps(docs_ds(), pairs)
    assert _rows(reps_ds, ["doc_id", "rep_doc_id"]) == sorted(
        (i, rep_of.get(i, i)) for i in range(docs.num_rows))
    done("dedup_cluster_reps")

    near = _rows(dedup.embedding_near_pairs(embs, threshold=0.95))
    assert len(near) >= 6
    got = dedup.embedding_near_pairs_ds(emb_ds(), threshold=0.95, nblocks=3)
    assert _rows(got) == near
    done("embedding_near_pairs_ds")
    # assigning every vector to every bucket makes IVF exact
    got = dedup.embedding_near_pairs_ivf(emb_ds(), threshold=0.95,
                                         ncentroids=4, nassign=4)
    assert _rows(got) == near
    done("embedding_near_pairs_ivf")

    media = multimodal.synthesize_real_media(12, seed=5)
    got = multimodal.decode_media_dataset(
        ray.data.from_arrow(media).repartition(3), mode=multimodal.REAL,
        batch_size=4)
    local = multimodal.decode_media(media, mode=multimodal.REAL)
    assert _rows(got, ["media_id", "features"]) == _rows(
        local, ["media_id", "features"])
    done("decode_media_dataset")

    con = duckdb.connect()
    for name in ("documents", "customer", "nation", "region"):
        con.sql(f"CREATE VIEW {name} AS SELECT * FROM "
                f"read_parquet('{os.path.join(d, name + '.parquet')}')")
    for name, fn, sql in [
            ("q_token_count", qe.q_token_count, qe.SQL_Q_TOKEN_COUNT),
            ("q_langid", qe.q_langid, qe.SQL_Q_LANGID),
            ("q_word_df_score", qe.q_word_df_score, qe.SQL_Q_WORD_DF_SCORE),
            ("q_region_rollup", qr.q_region_rollup, qr.SQL_Q_REGION_ROLLUP)]:
        assert _rows(fn(d)) == _rows(con.sql(sql).arrow()), name
        done(name)
    ray.shutdown()


def _chain_graph() -> tuple[np.ndarray, np.ndarray]:
    """20 stars plus a 30-node chain (its diameter forces several label
    propagation rounds), as (doc_a, doc_b) with doc_a < doc_b."""
    rng = np.random.default_rng(3)
    edges = [(c * 100, c * 100 + i) for c in range(20) for i in range(1, 8)]
    edges += [(5000 + i, 5000 + i + 1) for i in range(30)]
    rng.shuffle(edges)
    return (np.array([min(e) for e in edges], np.int64),
            np.array([max(e) for e in edges], np.int64))


def _check_joins(d: str) -> None:
    """Every query and stage that joins two keyed sides (or counts per key
    across blocks), each compared with DuckDB or a local computation."""
    import duckdb
    import ray
    import ray.data

    from orc_ray.functions import dedup
    from orc_ray.pipelines import queries_extras as qe
    from orc_ray.pipelines import queries_relational as qr

    _write_inputs(d)
    ray.init(address="local", num_cpus=1, include_dashboard=False)
    docs = pq.read_table(os.path.join(d, "documents.parquet"))
    t0 = time.perf_counter()

    def done(name: str) -> None:
        print(f"{name} ok {time.perf_counter() - t0:.1f}s", flush=True)

    def docs_ds():
        return ray.data.read_parquet(os.path.join(d, "documents.parquet"))

    sf = duckdb.connect()
    for name in ("customer", "orders", "documents"):
        sf.sql(f"CREATE VIEW {name} AS SELECT * FROM "
               f"read_parquet('{os.path.join(SF, name + '.parquet')}')")
    for name, fn, sql in [
            ("q_dormant_customers", qr.q_dormant_customers,
             qr.SQL_Q_DORMANT_CUSTOMERS),
            ("q_prepare_corpus", qe.q_prepare_corpus,
             qe.SQL_Q_PREPARE_CORPUS)]:
        assert _rows(fn(SF)) == _rows(sf.sql(sql).arrow()), name
        done(name)

    con = duckdb.connect()
    con.sql("CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{os.path.join(d, 'documents.parquet')}')")
    got = qe.q_word_df_score(d, max_broadcast_vocab=0)
    assert _rows(got) == _rows(con.sql(qe.SQL_Q_WORD_DF_SCORE).arrow())
    done("q_word_df_score")

    exact = _exact_minhash_pairs(docs, 0.8)
    pairs = dedup.minhash_dedup_pairs(docs_ds(), threshold=0.8,
                                      verify="join")
    assert _rows(pairs, ["doc_a", "doc_b", "jaccard_x1000"]) == exact
    done("minhash_dedup_pairs")
    members, reps = dedup._component_reps(
        np.array([p[0] for p in exact]), np.array([p[1] for p in exact]))
    rep_of = dict(zip(members.tolist(), reps.tolist()))
    reps_ds = dedup.dedup_cluster_reps(docs_ds(), pairs, max_driver_pairs=0)
    assert _rows(reps_ds, ["doc_id", "rep_doc_id"]) == sorted(
        (i, rep_of.get(i, i)) for i in range(docs.num_rows))
    done("dedup_cluster_reps")

    a, b = _chain_graph()
    labels = dedup.component_labels_ds(ray.data.from_arrow(pa.table({
        "doc_a": pa.array(a), "doc_b": pa.array(b)})))
    ids, reps = dedup._component_reps(a, b)
    assert _rows(labels, ["node", "label"]) == sorted(
        zip(ids.tolist(), reps.tolist()))
    done("component_labels_ds")
    ray.shutdown()


def _check_encode(d: str) -> None:
    """The encode-side stages on a multi-partition token corpus. encode_job's
    blobs must equal an in-process encode of the same plan, partition by
    partition in order, through one selector state."""
    import hashlib

    import ray

    from orc_ray.config import EncoderConfig
    from orc_ray.pipelines.compact import compact_job
    from orc_ray.pipelines.decode import decode_dataset
    from orc_ray.pipelines.encode import encode_job, encode_partitions
    from orc_ray.pipelines.verify import (checksum_encoded, checksum_table,
                                          fsck_encoded)
    from orc_ray.sources.planner import plan_partitions
    from orc_ray.sources.tokens import synthesize_tokens
    from orc_ray.state import manifest as mf

    table = synthesize_tokens(600, seed=17, mean_log=4.0)
    paths = []
    for k in range(3):
        paths.append(os.path.join(d, f"tokens-{k}.parquet"))
        pq.write_table(table.slice(200 * k, 200), paths[-1],
                       row_group_size=50)
    cfg = EncoderConfig(stripe_target_tokens=6_000)
    part_tokens = 12_000
    want = checksum_table(table)
    ray.init(address="local", num_cpus=1, include_dashboard=False)
    t0 = time.perf_counter()

    def done(name: str) -> None:
        print(f"{name} ok {time.perf_counter() - t0:.1f}s", flush=True)

    def digests(out: str) -> dict:
        bdir = mf.blobs_dir(out)
        return {f: hashlib.sha256(open(os.path.join(bdir, f), "rb").read())
                .hexdigest() for f in sorted(os.listdir(bdir))}

    out = os.path.join(d, "enc")
    summary = encode_job(paths, out, cfg, partition_target_tokens=part_tokens)
    assert summary["planned_partitions"] >= 6, summary
    done("encode_job")
    assert checksum_encoded(out) == want
    done("checksum_encoded")
    fsck = fsck_encoded(out)
    assert fsck["bad"] == 0 and fsck["ok"] == fsck["blobs"] > 0, fsck
    done("fsck_encoded")
    dst = os.path.join(d, "compacted")
    comp = compact_job(out, dst, cfg, target_tokens=4 * part_tokens)
    assert comp["stripes_after"] > 0 and checksum_encoded(dst) == want, comp
    done("compact_job")
    assert decode_dataset(out).count() == table.num_rows
    done("decode_dataset")
    ray.shutdown()

    ref = os.path.join(d, "ref")
    mf.ensure_dirs(ref)
    specs = pa.Table.from_pylist(
        [s.to_dict() for s in plan_partitions(paths, part_tokens)])
    encode_partitions(specs, ref, cfg, job="in-process")
    assert digests(out) == digests(ref)
    done("blob digests")


def _kill_group(pgid: int) -> None:
    """SIGKILL what is left of a process group (Ray's daemons)."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _run_at_one_cpu(tmp_path, group: str) -> str:
    """Run a check group in a fresh interpreter under TIMEOUT_S; its
    stdout. The interpreter leads its own process group, and the whole
    group is killed when it ends or times out, so no Ray process it
    started outlives the check."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [root] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                  if p]))
    env.pop("RAY_ADDRESS", None)
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), str(tmp_path), group],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        _kill_group(proc.pid)
        out, _ = proc.communicate()
        raise AssertionError(
            f"not finished in {TIMEOUT_S} s at 1 CPU; passed so far:\n"
            f"{out or ''}") from None
    finally:
        _kill_group(proc.pid)
    assert proc.returncode == 0, out + err
    return out


def test_stages_finish_at_one_cpu(tmp_path):
    assert _run_at_one_cpu(tmp_path, "stages").count(" ok ") == 11


def test_encode_stages_at_one_cpu(tmp_path):
    assert _run_at_one_cpu(tmp_path, "encode").count(" ok ") == 6


def test_joins_finish_at_one_cpu(tmp_path):
    assert _run_at_one_cpu(tmp_path, "joins").count(" ok ") == 6


if __name__ == "__main__":
    {"stages": _check_all, "encode": _check_encode, "joins": _check_joins}[
        sys.argv[2] if len(sys.argv) > 2 else "stages"](sys.argv[1])
