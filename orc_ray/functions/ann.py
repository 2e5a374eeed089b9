"""Similarity search over an embedding column (list<float>).

- ``brute_force_topk``: exact top-k cosine. The query matrix rides the
  stage's ``fn_kwargs`` (Ray Data stores a stage's function and arguments
  in the object store once per operator; numpy arrays come back zero-copy
  in each task), each batch does one float64 matmul and emits its local
  top-k; the driver merges partial top-ks (k x queries rows —
  metadata-sized). This is the baseline and the oracle-checkable path.
- ``ivf_topk``: scale path — a kmeans-lite coarse quantizer trained on a
  sample (stateful setup, once), vectors bucketed by nearest centroid, and
  queries probe only ``nprobe`` buckets. Approximate -> rows-only check.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def _round_half_away(x: float) -> int:
    """Match DuckDB round(): ties go away from zero (np.floor(x+0.5) would
    round -12.5 to -12 instead of -13)."""
    return int(np.copysign(np.floor(abs(x) + 0.5), x))


def _emb_matrix(batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    col = batch.column("embedding")
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    vals = col.values.to_numpy(zero_copy_only=False).astype(np.float64)
    dim = len(col[0]) if len(col) else 0
    emb = vals.reshape(len(col), dim)
    ids = batch.column("vec_id").to_numpy(zero_copy_only=False).astype(np.int64)
    return emb, ids


def _unit(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=1)
    n[n == 0] = 1.0
    return m / n[:, None]


def _topk_rows(q_ids, cand_ids, sims) -> pa.Table:
    return pa.table({
        "query_id": pa.array(q_ids, type=pa.int64()),
        "vec_id": pa.array(cand_ids, type=pa.int64()),
        "cosine": pa.array(sims, type=pa.float64()),
    })


def partial_topk(batch: pa.Table, q_ids: np.ndarray, q_unit: np.ndarray,
                 k: int) -> pa.Table:
    """map_batches task: the batch-local top-k of every query."""
    emb, ids = _emb_matrix(batch)
    sims = q_unit @ _unit(emb).T  # (nq, batch)
    k = min(k, sims.shape[1])
    part = np.argpartition(-sims, k - 1, axis=1)[:, :k]
    return _topk_rows(np.repeat(q_ids, k), ids[part].ravel(),
                      np.take_along_axis(sims, part, axis=1).ravel())


def train_sample(ds, id_col: str = "vec_id", target: int = 4096) -> pa.Table:
    """Deterministic hash-stratified training sample for coarse
    quantizers.  A head sample (``ds.limit``) is biased when the table is
    sorted/clustered by source — the first blocks share one distribution
    and recall quietly degrades.  Hashing the id column (Knuth
    multiplicative) picks rows uniformly across the whole table at the
    same cost, and the keep-rate is derived from the (metadata-only)
    count so roughly ``target`` rows survive."""
    n = ds.count()
    rate = min(1.0, (target * 1.25) / max(n, 1))
    thresh = np.uint64(int(rate * 2 ** 32))

    def pick(b: pa.Table) -> pa.Table:
        ids = b.column(id_col).to_numpy(zero_copy_only=False).astype(np.uint64)
        h = (ids * np.uint64(2654435761)) & np.uint64(0xFFFFFFFF)
        return b.filter(pa.array(h < thresh))

    rows = ds.map_batches(pick, batch_format="pyarrow").limit(target).take_all()
    return pa.Table.from_pylist(rows)


def _merge_topk(parts: list[dict], k: int) -> pa.Table:
    """Driver merge of the partial top-ks (k x queries rows per task):
    drop self matches, order by (cosine desc, vec_id), keep k."""
    rows = []
    if parts:
        t = pa.Table.from_pylist(parts)
        qs = t.column("query_id").to_numpy(zero_copy_only=False)
        vs = t.column("vec_id").to_numpy(zero_copy_only=False)
        cs = t.column("cosine").to_numpy(zero_copy_only=False)
        for q in np.unique(qs):
            m = (qs == q) & (vs != q)
            order = np.lexsort((vs[m], -cs[m]))[:k]
            for rank, idx in enumerate(order, 1):
                rows.append({
                    "query_id": int(q),
                    "vec_id": int(vs[m][idx]),
                    "rank": rank,
                    "cosine_x1e4": _round_half_away(cs[m][idx] * 1e4),
                })
    return pa.Table.from_pylist(rows, schema=pa.schema([
        ("query_id", pa.int64()), ("vec_id", pa.int64()),
        ("rank", pa.int64()), ("cosine_x1e4", pa.int64()),
    ]))


def brute_force_topk(ds, query_table: pa.Table, k: int = 10) -> pa.Table:
    """Exact top-k (excluding self-matches) as (query_id, vec_id, rank,
    cosine_x1e4)."""
    q_emb, q_ids = _emb_matrix(query_table)
    parts = ds.map_batches(
        partial_topk,
        fn_kwargs={"q_ids": q_ids, "q_unit": _unit(q_emb), "k": k + 1},
        batch_format="pyarrow",
    ).take_all()
    return _merge_topk(parts, k)


# --- IVF (approximate, scale path) ----------------------------------------

class IVFIndex:
    """kmeans-lite coarse quantizer: train on a sample, assign vectors to
    centroids; query probes the nprobe nearest buckets."""

    def __init__(self, ncentroids: int = 16, iters: int = 8, seed: int = 0):
        self.ncentroids = ncentroids
        self.iters = iters
        self.seed = seed
        self.centroids: np.ndarray | None = None

    def train(self, sample: np.ndarray) -> None:
        rng = np.random.default_rng(self.seed)
        unit = _unit(sample)
        idx = rng.choice(len(unit), size=min(self.ncentroids, len(unit)),
                         replace=False)
        cents = unit[idx].copy()
        for _ in range(self.iters):
            assign = np.argmax(unit @ cents.T, axis=1)
            for c in range(len(cents)):
                m = assign == c
                if m.any():
                    v = unit[m].mean(axis=0)
                    n = np.linalg.norm(v)
                    if n > 0:
                        cents[c] = v / n
        self.centroids = cents

    def assign(self, emb: np.ndarray) -> np.ndarray:
        return np.argmax(_unit(emb) @ self.centroids.T, axis=1)


def ivf_partial_topk(batch: pa.Table, q_ids: np.ndarray,
                     q_unit: np.ndarray, centroids: np.ndarray,
                     probe: np.ndarray, k: int) -> pa.Table:
    """map_batches task of the distributed IVF search: assign the batch's
    vectors to buckets and score ONLY the rows inside each query's probed
    buckets — the data-skipping that makes IVF the scale path."""
    emb, ids = _emb_matrix(batch)
    unit = _unit(emb)
    assign = np.argmax(unit @ centroids.T, axis=1)
    rows_q, rows_n, rows_s = [], [], []
    for qi in range(len(q_ids)):
        m = np.isin(assign, probe[qi])
        if not m.any():
            continue
        cand_ids = ids[m]
        sims = q_unit[qi] @ unit[m].T
        kk = min(k, len(cand_ids))
        part = np.argpartition(-sims, kk - 1)[:kk] if len(sims) > kk else \
            np.arange(len(sims))
        rows_q.extend([int(q_ids[qi])] * len(part))
        rows_n.extend(cand_ids[part].tolist())
        rows_s.extend(sims[part].tolist())
    return _topk_rows(rows_q, rows_n, rows_s)


def ivf_topk(ds, query_table: pa.Table, k: int = 10, ncentroids: int = 16,
             nprobe: int = 4) -> pa.Table:
    """Approximate top-k, distributed: a kmeans-lite coarse quantizer is
    trained on a sample (driver, tiny), centroids + probe sets ride the
    stage's arguments (stored once per Dataset operator), and every batch
    scores only the rows falling in probed buckets (ivf_partial_topk);
    partial top-ks merge on the driver (k x queries rows — metadata-sized).
    The full embedding table is never materialized."""
    sample = train_sample(ds)
    s_emb, _ = _emb_matrix(sample)
    index = IVFIndex(ncentroids=ncentroids)
    index.train(s_emb)

    q_emb, q_ids = _emb_matrix(query_table)
    q_unit = _unit(q_emb)
    probe = np.argsort(-(q_unit @ index.centroids.T), axis=1)[:, :nprobe]
    parts = ds.map_batches(
        ivf_partial_topk,
        fn_kwargs={"q_ids": q_ids, "q_unit": q_unit,
                   "centroids": index.centroids, "probe": probe, "k": k + 1},
        batch_format="pyarrow",
    ).take_all()
    return _merge_topk(parts, k)
