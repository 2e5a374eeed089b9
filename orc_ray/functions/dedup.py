"""Deduplication operators over the ``documents`` table — all distributed,
nothing text-amplified, no driver-side compute.

- exact:      md5(text) key -> hash-partitioned group-by, keep min(doc_id)
              (queries_extras.q_dedup_exact; only (md5, doc_id) shuffles)
- minhash:    3-word shingles -> 128 minhashes -> 32 bands x 4 rows -> LSH.
              The shuffle carries ONLY (doc_id, bucket) rows (16 bytes each
              — never the text); candidate pairs are generated vectorized
              inside a fixed number of hash partitions. Default verify:
              the metadata-sized candidate set dedupes on the driver, its
              sketches are recomputed for just those docs, broadcast once,
              and verified vectorized; verify="join" keeps everything
              distributed (keyed pair dedup + two keyed co-groups with
              the sketch table). Output equals the exact
              >= threshold pair set (band-miss probability < 1e-7 at 0.8).
- simhash:    64-bit simhash over a SQL-mirrorable word hash
              (texthash.word_hashes31 + mix64) -> 4x16-bit chunk banding
              (exact for hamming <= 3 by pigeonhole) -> distributed pair
              generation + dedup. Oracle-checkable (SQL_SIMHASH builder).
- embedding:  cosine >= threshold near-dup pairs: exact all-pairs
              distributed over block pairs (each task scores one block x
              block tile; the quadratic work is inherent to the exact
              operator), plus an IVF-bucketed approximate scale path.

Scale notes: candidate/pair tables are metadata-sized; the only wide ops
are ``by_key`` exchanges (pipelines/encode.py) on band partitions and
pairs. Skewed
buckets (giant runs of one band key) are processed vectorized with bounded
block temporaries; only degenerate runs (identical clusters larger than
MAX_RUN for minhash, 16x that for simhash — where the pair OUTPUT itself
is quadratically huge) are dropped, far above any real dup-cluster size.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..codecs.bloom import splitmix64
from ..codecs.dictionary import string_bytes
from ..pipelines.encode import by_key, work_units
from .texthash import (
    mix64,
    popcount64,
    shingle_sets,
    simhash_signatures,
    sql_pows_cte,
    sql_wordhash31,
)

NUM_HASHES = 128
BANDS = 32
ROWS_PER_BAND = NUM_HASHES // BANDS
_MERSENNE = (1 << 61) - 1
_U64 = np.uint64
# partitions of the band-key rows: the bucket shuffle keys on them, so
# the (tiny) band rows meet in a bounded number of vectorized calls
N_PARTS = 64
# skew guard: a band-bucket run larger than this is almost certainly a
# degenerate constant column, not a dup cluster; far above test-scale sizes
MAX_RUN = 4096


def _skip_run(kind: str, size: int, limit: int) -> None:
    """A run above the skew guard is never dropped silently: warn (visible
    in Ray worker logs) and count, so output divergence from the exact
    pair set is diagnosable. Tests read _SKIPPED_RUNS."""
    import warnings

    _SKIPPED_RUNS.append((kind, size))
    warnings.warn(
        f"{kind}: skipping degenerate bucket run of {size} docs "
        f"(> {limit}); its pairs are omitted from the output",
        RuntimeWarning, stacklevel=3,
    )


_SKIPPED_RUNS: list[tuple[str, int]] = []

_rng = np.random.default_rng(12345)
_A = (_rng.integers(1, _MERSENNE, NUM_HASHES, dtype=np.int64)).astype(np.uint64)
_B = (_rng.integers(0, _MERSENNE, NUM_HASHES, dtype=np.int64)).astype(np.uint64)


# --- stage 1: sketches (doc_id, shingle set) -------------------------------

def shingle_sketch_batch(batch: pa.Table, k: int = 3) -> pa.Table:
    """documents batch -> (doc_id, shingles:binary) — the per-doc
    sorted-unique k-word-shingle hash set as raw uint64 little-endian
    bytes (one flat binary value per doc, cheap to shuffle and slice),
    fully vectorized."""
    sv, off = shingle_sets(batch.column("text"), k=k)
    byte_off = (off * 8).astype(np.int32)
    shingles = pa.BinaryArray.from_buffers(
        pa.binary(), len(off) - 1,
        [None, pa.py_buffer(byte_off.tobytes()),
         pa.py_buffer(np.ascontiguousarray(sv).tobytes())],
    )
    return pa.table({
        "doc_id": batch.column("doc_id").cast(pa.int64()),
        "shingles": shingles,
    })


_A_ODD = _A | _U64(1)  # odd multipliers -> bijections on Z/2^64
_SIG_EMPTY = _U64(0xFFFFFFFFFFFFFFFF)


def minhash_signature(shingles: np.ndarray) -> np.ndarray:
    """128 minhashes via multiply-shift permutations h_i(x) = a_i*x + b_i
    over Z/2^64 (odd a_i => bijective; min-wise behavior equivalent to the
    classic mod-Mersenne form but ~10x faster — uint64 modulo has no
    vectorized path in numpy). Single-doc helper; the batched path is
    _signatures_from_sets."""
    if not len(shingles):
        return np.full(NUM_HASHES, _SIG_EMPTY, dtype=np.uint64)
    x = shingles[:, None].astype(np.uint64)
    hv = x * _A_ODD[None, :] + _B[None, :]
    return hv.min(axis=0)


def _signatures_from_sets(sv: np.ndarray, off: np.ndarray) -> np.ndarray:
    """(ndocs, 128) minhash matrix from flat shingle sets; inner-blocked so
    the (shingles x 128) temporary stays ~64 MB."""
    ndocs = len(off) - 1
    sig = np.full((ndocs, NUM_HASHES), _SIG_EMPTY, dtype=np.uint64)
    if len(sv) == 0:
        return sig
    BLOCK = 65536
    d = 0
    while d < ndocs:
        e = d
        while e < ndocs and off[e + 1] - off[d] <= BLOCK:
            e += 1
        e = max(e, d + 1)  # a single huge doc still gets processed
        seg = sv[off[d]: off[e]]
        if len(seg):
            hv = seg[:, None].astype(np.uint64) * _A_ODD[None, :] + _B[None, :]
            starts = (off[d: e] - off[d]).astype(np.int64)
            nz = np.diff(off[d: e + 1]) > 0
            if nz.any():
                sig[d: e][nz] = np.minimum.reduceat(hv, starts[nz], axis=0)
        d = e
    return sig


def _sketch_arrays(batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of shingle_sketch_batch: flat uint64 shingles + offsets,
    zero-copy from the binary column's buffers."""
    return _binary_sets(batch.column("shingles"))


def band_rows_batch(batch: pa.Table, k: int = 3) -> pa.Table:
    """Batch -> LSH band rows (doc_id, bucket, part). 32 rows per doc,
    24 bytes each — the ONLY thing the LSH shuffle carries. Accepts either
    raw documents (text) or an already-sketched batch (shingles), so the
    pipeline computes shingles exactly once. Docs with no shingles emit
    nothing (they can never pair, mirroring the oracle)."""
    if "shingles" in batch.column_names:
        sv, off = _sketch_arrays(batch)
    else:
        sv, off = shingle_sets(batch.column("text"), k=k)
    doc_ids = batch.column("doc_id").cast(pa.int64()).to_numpy(
        zero_copy_only=False)
    sig = _signatures_from_sets(sv, off)
    nonempty = np.diff(off) > 0
    sig = sig[nonempty]
    ids = doc_ids[nonempty]
    n = len(ids)
    if n == 0:
        return pa.table({
            "doc_id": pa.array([], type=pa.int64()),
            "bucket": pa.array([], type=pa.int64()),
            "part": pa.array([], type=pa.int64()),
        })
    bands = sig.reshape(n, BANDS, ROWS_PER_BAND)
    P = _U64(0x100000001B3)
    key = np.arange(BANDS, dtype=np.uint64)[None, :] + _U64(0x9E3779B9)
    for r in range(ROWS_PER_BAND):
        key = key * P + bands[:, :, r]
    key = splitmix64(key)
    return pa.table({
        "doc_id": pa.array(np.repeat(ids, BANDS), type=pa.int64()),
        "bucket": pa.array(key.reshape(-1).view(np.int64), type=pa.int64()),
        "part": pa.array(
            (key.reshape(-1) % _U64(N_PARTS)).astype(np.int64), type=pa.int64()),
    })


# --- stage 2: candidate pairs per hash partition ---------------------------

def _emit_run_pairs(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All unordered pairs (a<b by doc_id) of one bucket run, vectorized."""
    u = np.unique(ids)
    m = len(u)
    if m < 2:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    ii, jj = np.triu_indices(m, k=1)
    return u[ii], u[jj]


def partition_candidates(group: pa.Table) -> pa.Table:
    """One hash partition of band rows -> unique candidate (doc_a, doc_b)
    pairs. Sort by bucket, find equal-key runs, emit pairs per run."""
    b = group.column("bucket").to_numpy(zero_copy_only=False)
    d = group.column("doc_id").to_numpy(zero_copy_only=False)
    order = np.argsort(b, kind="stable")
    b = b[order]
    d = d[order]
    bounds = np.flatnonzero(np.diff(b)) + 1
    starts = np.concatenate([[0], bounds])
    ends = np.concatenate([bounds, [len(b)]])
    aa, bb = [], []
    for s, e in zip(starts, ends):
        if e - s < 2:
            continue
        if e - s > MAX_RUN:
            _skip_run("minhash-lsh", int(e - s), MAX_RUN)
            continue
        pa_, pb_ = _emit_run_pairs(d[s:e])
        if len(pa_):
            aa.append(pa_)
            bb.append(pb_)
    if not aa:
        return pa.table({"doc_a": pa.array([], type=pa.int64()),
                         "doc_b": pa.array([], type=pa.int64())})
    a = np.concatenate(aa)
    bcol = np.concatenate(bb)
    # dedupe within the partition (same pair from several buckets)
    key = np.stack([a, bcol], axis=1)
    key = np.unique(key, axis=0)
    return pa.table({"doc_a": pa.array(key[:, 0], type=pa.int64()),
                     "doc_b": pa.array(key[:, 1], type=pa.int64())})


# --- stage 3: exact-Jaccard verification -----------------------------------

def _gather_segments(flat: np.ndarray, off: np.ndarray,
                     idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``idx`` of a ragged (flat values, offsets) set table -> new
    (flat, offsets), fully vectorized (repeat + position arithmetic)."""
    idx = np.asarray(idx, dtype=np.int64)
    lens = off[idx + 1] - off[idx]
    out_off = np.zeros(len(idx) + 1, dtype=np.int64)
    np.cumsum(lens, out=out_off[1:])
    total = int(out_off[-1])
    pos = (np.arange(total, dtype=np.int64)
           - np.repeat(out_off[:-1], lens)
           + np.repeat(off[idx], lens))
    return flat[pos], out_off


def _pair_intersections(sv_a, off_a, sv_b, off_b):
    """Per-pair intersection sizes of sorted-unique uint64 sets, vectorized
    across ALL pairs at once: tag every value with its pair index, one
    lexsort, count adjacent equal values within a pair (duplicates can only
    be cross-side because each side is unique). Returns (inter, union,
    jaccard_x1000) int64 arrays."""
    npairs = len(off_a) - 1
    la = np.diff(off_a)
    lb = np.diff(off_b)
    pid = np.concatenate([
        np.repeat(np.arange(npairs, dtype=np.int64), la),
        np.repeat(np.arange(npairs, dtype=np.int64), lb),
    ])
    vals = np.concatenate([sv_a, sv_b])
    order = np.lexsort((vals, pid))
    pid = pid[order]
    vals = vals[order]
    dup = (pid[1:] == pid[:-1]) & (vals[1:] == vals[:-1])
    inter = np.bincount(pid[1:][dup], minlength=npairs).astype(np.int64)
    union = la + lb - inter
    jac = np.zeros(npairs, dtype=np.int64)
    nz = union > 0
    jac[nz] = inter[nz] * 1000 // union[nz]
    return inter, union, jac


def _binary_sets(col) -> tuple[np.ndarray, np.ndarray]:
    """Zero-copy (flat uint64 values, offsets) view of a binary column of
    packed little-endian uint64 sets."""
    blob, byte_off = string_bytes(col)
    return np.frombuffer(np.ascontiguousarray(blob), dtype=np.uint64), byte_off // 8


def verify_pairs_batch(batch: pa.Table, threshold: float = 0.8) -> pa.Table:
    """(doc_a, doc_b, sh_a, sh_b) rows -> verified pairs with exact
    integer-math Jaccard (mirrors the SQL oracle); batch-vectorized, no
    per-row Arrow decode."""
    thr_x1000 = int(round(threshold * 1000))
    sv_a, off_a = _binary_sets(batch.column("sh_a"))
    sv_b, off_b = _binary_sets(batch.column("sh_b"))
    da = batch.column("doc_a").to_numpy(zero_copy_only=False)
    db = batch.column("doc_b").to_numpy(zero_copy_only=False)
    inter, union, jac = _pair_intersections(sv_a, off_a, sv_b, off_b)
    keep = (union > 0) & (inter * 1000 >= thr_x1000 * union)
    return _pairs_table(da[keep], db[keep], jac[keep])


def _verify_with_store(batch: pa.Table, ids: np.ndarray, off: np.ndarray,
                       flat: np.ndarray, threshold: float) -> pa.Table:
    """map_batches task: verify candidate pairs against the candidates-only
    sketch store (sorted doc ids + one ragged flat/offset array pair) —
    searchsorted + segment gather + the batched intersection kernel."""
    if batch.num_rows == 0:
        return _pairs_table([], [], [])
    thr_x1000 = int(round(threshold * 1000))
    da = batch.column("doc_a").to_numpy(zero_copy_only=False)
    db = batch.column("doc_b").to_numpy(zero_copy_only=False)
    sv_a, off_a = _gather_segments(flat, off, np.searchsorted(ids, da))
    sv_b, off_b = _gather_segments(flat, off, np.searchsorted(ids, db))
    inter, union, jac = _pair_intersections(sv_a, off_a, sv_b, off_b)
    keep = (union > 0) & (inter * 1000 >= thr_x1000 * union)
    return _pairs_table(da[keep], db[keep], jac[keep])


def _sketch_candidates(batch: pa.Table, wanted: np.ndarray) -> pa.Table:
    """Filter a documents batch down to the candidate ids and sketch JUST
    those docs — the candidate set is metadata-sized, so this recompute is
    far cheaper than materializing a full-corpus sketch table just to look
    up a handful of rows."""
    ids = batch.column("doc_id").cast(pa.int64()).to_numpy(
        zero_copy_only=False)
    mask = np.isin(ids, wanted)
    if not mask.any():
        return pa.table({"doc_id": pa.array([], pa.int64()),
                         "shingles": pa.array([], pa.binary())})
    return shingle_sketch_batch(batch.filter(pa.array(mask)))


def _dedupe_pair_partition(g: pa.Table, col_a: str = "doc_a",
                           col_b: str = "doc_b") -> pa.Table:
    a = g.column(col_a).to_numpy(zero_copy_only=False)
    c = g.column(col_b).to_numpy(zero_copy_only=False)
    key = np.unique(np.stack([a, c], axis=1), axis=0)
    return pa.table({col_a: pa.array(key[:, 0], type=pa.int64()),
                     col_b: pa.array(key[:, 1], type=pa.int64())})


def _sketch_of_key(g: pa.Table) -> tuple[pa.Table, pa.Array]:
    """One partition of a (key, other, sh_a, sh) co-group of pair rows
    (``other`` set) and sketch rows (``sh`` set) -> the pair rows whose
    key has a sketch, and that sketch."""
    is_pair = pc.is_valid(g.column("other"))
    pairs, sk = g.filter(is_pair), g.filter(pc.invert(is_pair))
    ids = sk.column("key").to_numpy(zero_copy_only=False)
    order = np.argsort(ids, kind="stable")
    keys = pairs.column("key").to_numpy(zero_copy_only=False)
    pos = np.minimum(np.searchsorted(ids[order], keys), max(len(ids) - 1, 0))
    hit = ids[order][pos] == keys if len(ids) else np.zeros(len(keys), bool)
    return (pairs.filter(pa.array(hit)),
            sk.column("sh").take(pa.array(order[pos[hit]])))


def minhash_dedup_pairs(ds, threshold: float = 0.8,
                        verify: str = "broadcast"):
    """Scale-safe LSH near-dup pipeline (see module docstring). Returns a
    Dataset of (doc_a, doc_b, jaccard_x1000) with doc_a < doc_b (an
    unordered pair set — the oracle compare is order-insensitive).

    verify="broadcast" (default): band rows are computed straight from the
    documents (no full-corpus sketch table, no materialize barrier); the
    candidate pair set (metadata-sized: O(near-dup docs)) is deduped on
    the driver, the candidates' sketches are recomputed for just those
    docs and broadcast once (the verify stage's ``fn_kwargs``), and
    verification is a plain vectorized map_batches. verify="join": the
    pairs co-group with the full sketch table twice instead, once keyed
    on doc_a and once on doc_b, and the second co-group verifies — no
    broadcast at all; use when the dup rate is so extreme the candidate
    store itself would be large."""
    import ray.data as rd

    if verify == "join":
        # sketches are consumed by bands AND both co-groups: compute once,
        # keep in the (spillable) object store, in the co-group schema
        # (key, other, sh_a, sh): a sketch row has only key and sh
        def sketch_rows(b: pa.Table) -> pa.Table:
            t = shingle_sketch_batch(b)
            return pa.table({
                "key": t.column("doc_id"),
                "other": pa.nulls(t.num_rows, pa.int64()),
                "sh_a": pa.nulls(t.num_rows, pa.binary()),
                "sh": t.column("shingles"),
            })

        sketches = ds.map_batches(sketch_rows, batch_format="pyarrow",
                                  batch_size=1024).materialize()
        bands = sketches.map_batches(
            lambda b: band_rows_batch(pa.table({
                "doc_id": b.column("key"), "shingles": b.column("sh")})),
            batch_format="pyarrow", batch_size=1024)
        cand = by_key(bands, "part", partition_candidates)
        # partition_candidates deduped within its band partition; a
        # keyed pass on doc_a dedupes across partitions
        cand = by_key(cand, "doc_a", _dedupe_pair_partition)
        if cand.count() == 0:
            return rd.from_arrow(_pairs_table([], [], []))

        def with_sh_a(g: pa.Table) -> pa.Table:
            pairs, sh = _sketch_of_key(g)
            return pa.table({"key": pairs.column("other"),
                             "other": pairs.column("key"), "sh_a": sh,
                             "sh": pa.nulls(pairs.num_rows, pa.binary())})

        def verify_b(g: pa.Table) -> pa.Table:
            pairs, sh = _sketch_of_key(g)
            return verify_pairs_batch(pa.table({
                "doc_a": pairs.column("other"), "doc_b": pairs.column("key"),
                "sh_a": pairs.column("sh_a"), "sh_b": sh}), threshold)

        by_a = cand.map_batches(
            lambda b: pa.table({
                "key": b.column("doc_a"), "other": b.column("doc_b"),
                "sh_a": pa.nulls(b.num_rows, pa.binary()),
                "sh": pa.nulls(b.num_rows, pa.binary())}),
            batch_format="pyarrow")
        by_b = by_key(by_a.union(sketches), "key", with_sh_a)
        return by_key(by_b.union(sketches), "key", verify_b)

    # broadcast (default): one streaming pass docs -> bands -> per-part
    # candidates; pair dedup on the driver over the metadata-sized
    # candidate table (it is fetched to the driver anyway to build the
    # broadcast store, so no distributed dedup op is spun up)
    bands = ds.map_batches(band_rows_batch, batch_format="pyarrow",
                           batch_size=1024)
    cand_parts = by_key(bands, "part", partition_candidates)
    ct = pa.concat_tables(
        list(cand_parts.iter_batches(batch_format="pyarrow", batch_size=None))
        or [pa.table({"doc_a": pa.array([], pa.int64()),
                      "doc_b": pa.array([], pa.int64())})])
    if ct.num_rows == 0:
        return rd.from_arrow(_pairs_table([], [], []))
    pairs = np.unique(np.stack([
        ct.column("doc_a").to_numpy(zero_copy_only=False),
        ct.column("doc_b").to_numpy(zero_copy_only=False)], axis=1), axis=0)
    matched = ds.map_batches(_sketch_candidates,
                             fn_kwargs={"wanted": np.unique(pairs)},
                             batch_format="pyarrow")
    # broadcast store: sorted ids + one ragged (flat, offsets) array pair
    id_chunks, flat_chunks, len_chunks = [], [], []
    for b in matched.iter_batches(batch_format="pyarrow", batch_size=None):
        if b.num_rows == 0:
            continue
        sv, off = _sketch_arrays(b)
        id_chunks.append(b.column("doc_id").to_numpy(zero_copy_only=False))
        flat_chunks.append(sv)
        len_chunks.append(np.diff(off))
    ids = np.concatenate(id_chunks)
    lens = np.concatenate(len_chunks)
    off = np.zeros(len(ids) + 1, dtype=np.int64)
    np.cumsum(lens, out=off[1:])
    order = np.argsort(ids)
    flat_s, off_s = _gather_segments(np.concatenate(flat_chunks), off, order)
    cand_ds = rd.from_arrow(pa.table({
        "doc_a": pa.array(pairs[:, 0], type=pa.int64()),
        "doc_b": pa.array(pairs[:, 1], type=pa.int64())}))
    # from_arrow yields ONE block; split it so verify runs as several
    # tasks (pairs are metadata-sized, the repartition is trivial)
    n_blocks = max(2, min(8, (len(pairs) + 511) // 512))
    return cand_ds.repartition(n_blocks).map_batches(
        _verify_with_store,
        fn_kwargs={"ids": ids[order], "off": off_s, "flat": flat_s,
                   "threshold": threshold},
        batch_format="pyarrow")


def exact_jaccard(a: np.ndarray, b: np.ndarray) -> float:
    inter = len(np.intersect1d(a, b, assume_unique=True))
    union = len(a) + len(b) - inter
    return inter / union if union else 1.0


def _pairs_table(a, b, j) -> pa.Table:
    return pa.table({
        "doc_a": pa.array(a, type=pa.int64()),
        "doc_b": pa.array(b, type=pa.int64()),
        "jaccard_x1000": pa.array(j, type=pa.int64()),
    })


# --- cluster closure (keep-one-representative dedup) ------------------------

def _component_reps(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Connected components over an undirected pair set: returns (sorted
    member doc_ids, the min doc_id of each member's component). Union-find
    with path halving over compacted indices; the pair set is metadata-sized
    (O(near-dup docs)), so the loop cost is bounded by the same contract the
    broadcast verify path already relies on."""
    ids = np.unique(np.concatenate([a, b]))
    n = len(ids)
    parent = np.arange(n, dtype=np.int64)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    ia = np.searchsorted(ids, a)
    ib = np.searchsorted(ids, b)
    for x, y in zip(ia.tolist(), ib.tolist()):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
    roots = np.fromiter((find(i) for i in range(n)), dtype=np.int64, count=n)
    # ids is sorted, so the min doc of a component is the id at the smallest
    # member index = the root index itself after min-directed unions; still
    # compute it defensively via a scatter-min
    reps = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(reps, roots, ids)
    return ids, reps[roots]


def _attach_rep(batch: pa.Table, ids: np.ndarray,
                reps: np.ndarray) -> pa.Table:
    """map_batches task: map each doc_id to its cluster representative
    (itself when it is in no near-dup pair)."""
    col = batch.column("doc_id")
    if col.null_count:
        # a null would come back as float64 NaN and silently astype to
        # a garbage id — fail loudly instead
        raise ValueError("dedup_cluster_reps: doc_id column contains nulls")
    d = col.to_numpy(zero_copy_only=False).astype(np.int64)
    rep = d.copy()
    if len(ids):
        pos = np.minimum(np.searchsorted(ids, d), len(ids) - 1)
        hit = ids[pos] == d
        rep[hit] = reps[pos[hit]]
    return pa.table({
        "doc_id": pa.array(d, type=pa.int64()),
        "rep_doc_id": pa.array(rep, type=pa.int64()),
    })


def _propagate(g: pa.Table) -> pa.Table:
    """One partition of a label round: edge rows (node, nbr) and label
    rows (node, label). Each node takes the min label offered to it,
    keeps it (an ``own`` row) and offers it to every neighbor."""
    node = g.column("node").to_numpy(zero_copy_only=False)
    is_edge = pc.is_valid(g.column("nbr")).to_numpy(zero_copy_only=False)
    lbl = g.column("label").fill_null(0).to_numpy(zero_copy_only=False)
    ln, ll = node[~is_edge], lbl[~is_edge]
    order = np.lexsort((ll, ln))
    ln, ll = ln[order], ll[order]
    first = np.r_[True, ln[1:] != ln[:-1]] if len(ln) else np.zeros(0, bool)
    uk, ul = ln[first], ll[first]
    en = node[is_edge]
    enbr = g.column("nbr").to_numpy(zero_copy_only=False)[is_edge]
    # every edge's node has a label row: the seed offers each node itself
    offer = ul[np.searchsorted(uk, en)] if len(uk) else ul[:0]
    return _label_rows(np.concatenate([uk, enbr]),
                       np.concatenate([ul, offer]),
                       np.arange(len(uk) + len(en)) < len(uk))


def _kept(b: pa.Table) -> pa.Table:
    """The (node, label) rows a label round kept."""
    return b.filter(b.column("own")).select(["node", "label"])


def _label_rows(node, label, own) -> pa.Table:
    n = len(node)
    return pa.table({
        "node": pa.array(node, type=pa.int64()),
        "nbr": pa.nulls(n, pa.int64()),
        "label": pa.array(label, type=pa.int64()),
        "own": pa.array(own, type=pa.bool_()),
    })


def component_labels_ds(pairs_ds, max_rounds: int = 64):
    """Distributed connected components over a pair Dataset by iterated
    min-label propagation: each round co-groups the symmetric edge set
    with the labels offered in the round before (one ``by_key`` on the
    node), and each node keeps the min it was offered and offers it to
    its neighbors — only int64 rows ever shuffle, never doc payloads.
    Converges in O(component diameter) rounds (2-3 for the star/clique
    graphs near-dup pair sets form); the sum of the kept labels is the
    fixpoint detector (strictly decreasing until converged). Returns a
    Dataset (node, label) where label = min doc_id of the node's
    component, covering every node that appears in a pair.

    This is the open-ended-scale path for ``dedup_cluster_reps``: a
    pathologically dup-heavy corpus makes the pair set proportional to
    the corpus, where a driver-side union-find would OOM."""
    def edge_rows(b: pa.Table) -> pa.Table:
        a = b.column("doc_a").cast(pa.int64()).combine_chunks()
        c = b.column("doc_b").cast(pa.int64()).combine_chunks()
        n = 2 * b.num_rows
        return pa.table({
            "node": pa.concat_arrays([a, c]),
            "nbr": pa.concat_arrays([c, a]),
            "label": pa.nulls(n, pa.int64()),
            "own": pa.array(np.zeros(n, dtype=bool)),
        })

    def seed_rows(b: pa.Table) -> pa.Table:
        # round 0 offers: every node itself and each of its neighbors
        node = b.column("node").to_numpy(zero_copy_only=False)
        nbr = b.column("nbr").to_numpy(zero_copy_only=False)
        return _label_rows(np.concatenate([node, node]),
                           np.concatenate([node, nbr]),
                           np.zeros(2 * len(node), dtype=bool))

    edges = pairs_ds.map_batches(edge_rows, batch_format="pyarrow") \
        .materialize()
    # a union feeding by_key keeps the blocks of both sides, so the
    # offers are cut back to the edges' block count every round
    nblocks = max(1, edges.num_blocks())
    offers = edges.map_batches(seed_rows, batch_format="pyarrow")
    prev_sum = None
    for _ in range(max_rounds):
        offers = by_key(edges.union(offers), "node", _propagate) \
            .repartition(nblocks).materialize()
        new_sum = offers.map_batches(_kept, batch_format="pyarrow") \
            .sum("label")
        if new_sum == prev_sum:
            break
        prev_sum = new_sum
    return offers.map_batches(_kept, batch_format="pyarrow")


# Above this many pairs the driver-side union-find flips to the
# distributed label-propagation path (the pair graph is no longer
# "metadata-sized" and pulling it to the driver risks OOM).
DRIVER_CLOSURE_MAX_PAIRS = 2_000_000


def dedup_cluster_reps(docs_ds, pairs_ds,
                       max_driver_pairs: int = DRIVER_CLOSURE_MAX_PAIRS):
    """Keep-one-representative near-dup dedup: transitive closure over a
    near-dup pair Dataset (e.g. minhash_dedup_pairs), assigning every doc
    its cluster representative — the min doc_id of its connected component.
    Survivors of the dedup are exactly the rows where
    ``doc_id == rep_doc_id``; the full assignment is returned so callers can
    also rewrite foreign keys to the representative.

    Scale shape: the pair graph is metadata-sized (near-dup docs only), so
    closure runs driver-side in one union-find pass and the (ids, reps)
    arrays ride the lookup stage's ``fn_kwargs``; the corpus streams
    through that stage as Ray tasks and never materializes.
    """
    import logging

    pairs = pairs_ds.select_columns(["doc_a", "doc_b"]).materialize()
    n_pairs = pairs.count()
    if n_pairs > max_driver_pairs:
        # open-ended scale: distributed min-label propagation; the pair
        # graph never lands on the driver
        logging.getLogger(__name__).info(
            "dedup_cluster_reps: %d pairs > %d, using distributed "
            "connected components", n_pairs, max_driver_pairs)
        # co-group docs (label null) with the labels; a doc in no pair
        # is its own representative
        labels = component_labels_ds(pairs).map_batches(
            lambda b: pa.table({"doc_id": b.column("node"),
                                "label": b.column("label")}),
            batch_format="pyarrow")
        docs = docs_ds.select_columns(["doc_id"]).map_batches(
            lambda b: pa.table({"doc_id": b.column("doc_id").cast(pa.int64()),
                                "label": pa.nulls(b.num_rows, pa.int64())}),
            batch_format="pyarrow")

        def attach(g: pa.Table) -> pa.Table:
            is_doc = pc.is_null(g.column("label"))
            lbl = g.filter(pc.invert(is_doc))
            ids = lbl.column("doc_id").to_numpy(zero_copy_only=False)
            order = np.argsort(ids)
            return _attach_rep(g.filter(is_doc), ids[order], lbl.column(
                "label").to_numpy(zero_copy_only=False)[order])

        return by_key(docs.union(labels), "doc_id", attach)

    tbls = list(pairs.iter_batches(batch_format="pyarrow", batch_size=None))
    if tbls:
        pt = pa.concat_tables(tbls)
        a = pt.column("doc_a").to_numpy(zero_copy_only=False).astype(np.int64)
        b = pt.column("doc_b").to_numpy(zero_copy_only=False).astype(np.int64)
    else:
        a = b = np.empty(0, dtype=np.int64)
    ids, reps = _component_reps(a, b) if len(a) else (
        np.empty(0, np.int64), np.empty(0, np.int64))
    return docs_ds.select_columns(["doc_id"]).map_batches(
        _attach_rep, fn_kwargs={"ids": ids, "reps": reps},
        batch_format="pyarrow")


# --- simhash ---------------------------------------------------------------

def simhash_batch(batch: pa.Table) -> pa.Table:
    """documents batch -> (doc_id, simhash) with the SQL-mirrorable
    signature (texthash.simhash_signatures; stored as int64 bit pattern)."""
    sims = simhash_signatures(batch.column("text"))
    return pa.table({
        "doc_id": batch.column("doc_id").cast(pa.int64()),
        "simhash": pa.array(sims.view(np.int64), type=pa.int64()),
    })


def simhash_chunk_rows(batch: pa.Table) -> pa.Table:
    """(doc_id, simhash) -> 4 rows per doc keyed by (chunk index, 16-bit
    chunk value): any pair within hamming<=3 shares at least one chunk
    exactly (pigeonhole over 4 chunks), so the banding is lossless."""
    d = batch.column("doc_id").to_numpy(zero_copy_only=False)
    s = batch.column("simhash").to_numpy(zero_copy_only=False).view(np.uint64)
    keys = []
    for c in range(4):
        chunk = (s >> _U64(16 * c)) & _U64(0xFFFF)
        keys.append((_U64(c) << _U64(16)) | chunk)
    key = np.concatenate(keys)
    return pa.table({
        "doc_id": pa.array(np.tile(d, 4), type=pa.int64()),
        "simhash": pa.array(np.tile(s.view(np.int64), 4), type=pa.int64()),
        "chunk_key": pa.array(key.view(np.int64), type=pa.int64()),
        "part": pa.array((splitmix64(key) % _U64(N_PARTS)).astype(np.int64),
                         type=pa.int64()),
    })


def _run_hamming_pairs(ids, sims, max_hamming):
    """All pairs within one chunk run at hamming <= k, block-vectorized.
    Block size shrinks for huge runs so the xor/popcount temporaries stay
    ~100 MB even on degenerate inputs."""
    m = len(ids)
    aa, bb, hh = [], [], []
    BLOCK = max(64, min(1024, (12 << 20) // max(m, 1)))
    for s0 in range(0, m, BLOCK):
        lhs = sims[s0: s0 + BLOCK]
        x = lhs[:, None] ^ sims[None, :]
        ham = popcount64(x.reshape(-1)).reshape(x.shape)
        li, rj = np.nonzero(ham <= max_hamming)
        gi = li + s0
        keep = ids[gi] < ids[rj]
        gi, rj = gi[keep], rj[keep]
        if len(gi):
            aa.append(ids[gi])
            bb.append(ids[rj])
            hh.append(ham[gi - s0, rj])
    if not aa:
        e = np.empty(0, np.int64)
        return e, e, e
    return np.concatenate(aa), np.concatenate(bb), np.concatenate(hh)


def partition_simhash_pairs(group: pa.Table, max_hamming: int = 3) -> pa.Table:
    """One hash partition of chunk rows -> (doc_a, doc_b, hamming) pairs
    (deduped within the partition)."""
    k = group.column("chunk_key").to_numpy(zero_copy_only=False)
    d = group.column("doc_id").to_numpy(zero_copy_only=False)
    s = group.column("simhash").to_numpy(zero_copy_only=False).view(np.uint64)
    order = np.argsort(k, kind="stable")
    k, d, s = k[order], d[order], s[order]
    bounds = np.flatnonzero(np.diff(k)) + 1
    starts = np.concatenate([[0], bounds])
    ends = np.concatenate([bounds, [len(k)]])
    aa, bb, hh = [], [], []
    for s0, e0 in zip(starts, ends):
        if e0 - s0 < 2:
            continue
        if e0 - s0 > MAX_RUN * 16:
            # degenerate-input guard only (a >65536-doc identical cluster):
            # the pair OUTPUT itself is quadratic there, so no algorithm
            # emits it cheaply; real dup clusters are orders smaller
            _skip_run("simhash", int(e0 - s0), MAX_RUN * 16)
            continue
        pa_, pb_, ph_ = _run_hamming_pairs(d[s0:e0], s[s0:e0], max_hamming)
        if len(pa_):
            aa.append(pa_)
            bb.append(pb_)
            hh.append(ph_)
    if not aa:
        return pa.table({"doc_a": pa.array([], type=pa.int64()),
                         "doc_b": pa.array([], type=pa.int64()),
                         "hamming": pa.array([], type=pa.int64())})
    a = np.concatenate(aa)
    b = np.concatenate(bb)
    h = np.concatenate(hh)
    key = np.stack([a, b, h], axis=1)
    key = np.unique(key, axis=0)
    return pa.table({"doc_a": pa.array(key[:, 0], type=pa.int64()),
                     "doc_b": pa.array(key[:, 1], type=pa.int64()),
                     "hamming": pa.array(key[:, 2], type=pa.int64())})


def _dedupe_simhash_partition(g: pa.Table) -> pa.Table:
    key = np.unique(np.stack([
        g.column("doc_a").to_numpy(zero_copy_only=False),
        g.column("doc_b").to_numpy(zero_copy_only=False),
        g.column("hamming").to_numpy(zero_copy_only=False)], axis=1), axis=0)
    return pa.table({"doc_a": pa.array(key[:, 0], type=pa.int64()),
                     "doc_b": pa.array(key[:, 1], type=pa.int64()),
                     "hamming": pa.array(key[:, 2], type=pa.int64())})


def simhash_dedup_pairs(ds, max_hamming: int = 3):
    """Distributed simhash near-dup: signatures -> chunk banding exchange ->
    vectorized per-run hamming -> distributed pair dedup. Exact (the
    banding is lossless for hamming <= 3 over 4 chunks); output is an
    unordered pair set. Cross-partition pair dedup is a keyed pass on
    doc_a (hamming is a pure function of the pair, so a plain unique
    suffices)."""
    sigs = ds.map_batches(
        lambda b: simhash_chunk_rows(simhash_batch(b)),
        batch_format="pyarrow")
    pairs = by_key(sigs, "part",
                   lambda g: partition_simhash_pairs(g, max_hamming))
    return by_key(pairs, "doc_a", _dedupe_simhash_partition)


def simhash_near_pairs(table: pa.Table, max_hamming: int = 3) -> pa.Table:
    """Local (single-table) variant of the chunk-banded simhash pairing —
    used by unit tests; the distributed path is simhash_dedup_pairs."""
    t = simhash_chunk_rows(table)
    out = partition_simhash_pairs(t, max_hamming)
    idx = pc.sort_indices(out, sort_keys=[("doc_a", "ascending"),
                                          ("doc_b", "ascending")])
    return out.take(idx)


def sql_simhash_pairs(max_hamming: int = 3) -> str:
    """DuckDB mirror of simhash_dedup_pairs over the documents view."""
    bit_exprs = " + ".join(
        f"CASE WHEN SUM(cnt * CASE WHEN (g >> {b}) & 1 = 1 THEN 1 ELSE -1 END)"
        f" > 0 THEN CAST({1 << b} AS UBIGINT) ELSE CAST(0 AS UBIGINT) END"
        for b in range(64)
    )
    return f"""
WITH {sql_pows_cte(256)},
dw AS (
  SELECT doc_id, w, count(*) AS cnt
  FROM (SELECT doc_id, unnest(string_split(text, ' ')) AS w FROM documents)
  GROUP BY doc_id, w
),
uw AS (SELECT DISTINCT w FROM dw),
{sql_wordhash31('uw').lstrip()},
sims AS (
  SELECT doc_id, {bit_exprs} AS simhash
  FROM dw JOIN g64 USING (w) GROUP BY doc_id
)
SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
       CAST(bit_count(xor(a.simhash, b.simhash)) AS BIGINT) AS hamming
FROM sims a JOIN sims b ON a.doc_id < b.doc_id
WHERE bit_count(xor(a.simhash, b.simhash)) <= {max_hamming}
ORDER BY doc_a, doc_b
"""


# --- embedding near-dup ----------------------------------------------------

def _unit_matrix(table: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    col = table.column("embedding")
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    vals = col.flatten().to_numpy(zero_copy_only=False).astype(np.float64)
    dim = len(col[0]) if len(col) else 1
    emb = vals.reshape(len(col), dim)
    norms = np.linalg.norm(emb, axis=1)
    norms[norms == 0] = 1.0
    ids = table.column("vec_id").to_numpy(zero_copy_only=False).astype(np.int64)
    return emb / norms[:, None], ids


def _score_tiles(batch: pa.Table, refs: list, threshold: float) -> pa.Table:
    """map_batches task of the distributed exact all-pairs: score each
    (block_i x block_j) tile of the similarity matrix in the batch. Blocks
    are fetched from the object store and unit-normalized once per call,
    so a task holding several tiles of one block reuses it."""
    import ray

    blocks: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def block(i: int):
        if i not in blocks:
            if len(blocks) > 6:  # bound task memory
                blocks.pop(next(iter(blocks)))
            blocks[i] = _unit_matrix(ray.get(refs[i]))
        return blocks[i]

    aa, bb = [], []
    for bi, bj in zip(batch.column("bi").to_pylist(),
                      batch.column("bj").to_pylist()):
        ui, ii = block(bi)
        uj, jj = block(bj)
        if len(ii) == 0 or len(jj) == 0:
            continue
        sims = ui @ uj.T
        li, rj = np.nonzero(sims >= threshold)
        a = ii[li]
        b = jj[rj]
        if bi == bj:
            # both orders present in the square tile: keep one
            keep = a < b
            aa.append(a[keep])
            bb.append(b[keep])
        else:
            # a cross tile sees each unordered pair exactly once;
            # normalize (ids need not be ascending in block order)
            lo_ = np.minimum(a, b)
            hi_ = np.maximum(a, b)
            keep = lo_ != hi_
            aa.append(lo_[keep])
            bb.append(hi_[keep])
    if not aa:
        return pa.table({"vec_a": pa.array([], type=pa.int64()),
                         "vec_b": pa.array([], type=pa.int64())})
    # pair membership only: float similarity values are not emitted
    # because SQL engines accumulate float32 cosines in a different
    # order (not bit-stable across engines)
    return pa.table({"vec_a": pa.array(np.concatenate(aa), type=pa.int64()),
                     "vec_b": pa.array(np.concatenate(bb), type=pa.int64())})


def embedding_near_pairs_ds(ds, threshold: float = 0.95, nblocks: int = 8):
    """Distributed EXACT cosine near-dup: repartition the embeddings into
    nblocks, materialize block refs in the object store, and score every
    (i<=j) block tile in parallel. O(n^2/nblocks) memory per task; the
    quadratic compute is inherent to the exact operator (the approximate
    scale path is embedding_near_pairs_ivf). Returns a sorted Dataset of
    (vec_a, vec_b)."""
    refs = ds.repartition(nblocks).to_arrow_refs()
    n = len(refs)
    tiles = [{"bi": i, "bj": j} for i in range(n) for j in range(i, n)]
    return work_units(tiles).map_batches(
        _score_tiles, fn_kwargs={"refs": refs, "threshold": threshold},
        batch_size=None, batch_format="pyarrow")


def _assign_buckets(batch: pa.Table, centroids: np.ndarray,
                    nassign: int) -> pa.Table:
    """map_batches task: (bucket, vec_id, embedding) rows, one per vector
    and each of its nassign nearest IVF centroids."""
    unit, ids = _unit_matrix(batch)
    top = np.argsort(-(unit @ centroids.T), axis=1)[:, :nassign]
    n, a = top.shape
    emb_col = batch.column("embedding")
    if isinstance(emb_col, pa.ChunkedArray):
        emb_col = emb_col.combine_chunks()
    idx = np.repeat(np.arange(n), a)
    return pa.table({
        "bucket": pa.array(top.reshape(-1), type=pa.int64()),
        "vec_id": pa.array(np.repeat(ids, a), type=pa.int64()),
        "embedding": emb_col.take(pa.array(idx)),
    })


def embedding_near_pairs_ivf(ds, threshold: float = 0.95, ncentroids: int = 16,
                             nassign: int = 2):
    """Approximate scale path: assign every vector to its nassign nearest
    IVF centroids, group by bucket, exact-verify within buckets,
    distributed pair dedup. Near pairs co-locate with high probability;
    recall is asserted in pytest (rows-only driver check)."""
    from .ann import IVFIndex, _emb_matrix, train_sample

    sample = train_sample(ds)
    s_emb, _ = _emb_matrix(sample)
    index = IVFIndex(ncentroids=ncentroids)
    index.train(s_emb)

    def bucket_pairs(group: pa.Table) -> pa.Table:
        bucket = group.column("bucket").to_numpy(zero_copy_only=False)
        keys = [np.empty((0, 2), np.int64)]
        for k in np.unique(bucket):
            unit, ids = _unit_matrix(group.filter(pa.array(bucket == k)))
            li, rj = np.nonzero(unit @ unit.T >= threshold)
            a, b = ids[li], ids[rj]
            keys.append(np.stack([a[a < b], b[a < b]], axis=1))
        key = np.unique(np.concatenate(keys), axis=0)
        return pa.table({"vec_a": pa.array(key[:, 0], type=pa.int64()),
                         "vec_b": pa.array(key[:, 1], type=pa.int64())})

    assigned = ds.map_batches(
        _assign_buckets,
        fn_kwargs={"centroids": index.centroids, "nassign": nassign},
        batch_format="pyarrow")

    pairs = by_key(assigned, "bucket", bucket_pairs)
    # cross-bucket pair dedup (multi-assign finds a pair in up to nassign^2
    # buckets): a keyed unique on vec_a
    return by_key(pairs, "vec_a",
                  lambda g: _dedupe_pair_partition(g, "vec_a", "vec_b"))


def embedding_near_pairs(table: pa.Table, threshold: float = 0.95) -> pa.Table:
    """Local exact all-pairs (unit tests / tiny inputs); the distributed
    paths are embedding_near_pairs_ds / _ivf."""
    unit, ids = _unit_matrix(table)
    aa, bb = [], []
    block = 512
    for s in range(0, len(unit), block):
        sims = unit[s: s + block] @ unit.T
        li, rj = np.nonzero(sims >= threshold)
        a = ids[s + li]
        b = ids[rj]
        keep = a < b
        aa.append(a[keep])
        bb.append(b[keep])
    if not aa:
        return pa.table({"vec_a": pa.array([], type=pa.int64()),
                         "vec_b": pa.array([], type=pa.int64())})
    a = np.concatenate(aa)
    b = np.concatenate(bb)
    key = np.unique(np.stack([a, b], axis=1), axis=0)
    return pa.table({"vec_a": pa.array(key[:, 0], type=pa.int64()),
                     "vec_b": pa.array(key[:, 1], type=pa.int64())})

