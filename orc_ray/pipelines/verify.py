"""Round-trip verification: per-row token-array equality at scale.

The per-row invariant (BASELINE.json input_hint) is token-array equality
between input and decoded output. Rows may be re-ordered across partitions,
so verification is order-insensitive: every row gets a 64-bit content hash
(position-sensitive polynomial over its tokens, mixed with doc_id bytes,
n_tok and source), and the multiset of row hashes is compared through
commutative reductions (count / sum mod 2^64 / xor). Both sides stream
through task-compute ``map_batches``; only (count, sum, xor) triples reach
the driver — no materialization, no shuffle (cf. SURVEY.md §2.7:
verification keyed on content, not a distributed join).

Small-scale tests additionally do exact row-by-row comparison after a sort.
"""

from __future__ import annotations

import json

import numpy as np
import pyarrow as pa

# the polynomial kernel and its constants live with the string hash in
# codecs.dictionary; the row-hash tests reach _T, _PINV and _pow_mod64 here
from ..codecs.dictionary import (  # noqa: F401
    _K,
    _P,
    _PINV,
    _T,
    _U64,
    _poly_hash_segments,
    _pow_mod64,
    one_chunk,
    string_bytes,
    value_offsets,
)


def row_hashes(batch: pa.Table) -> np.ndarray:
    """64-bit per-row content hash over the token-table columns present."""
    n = batch.num_rows
    h = np.full(n, _K, dtype=_U64)
    if "tokens" in batch.column_names:
        col = one_chunk(batch.column("tokens"))
        offsets = value_offsets(col)
        vals_arr = col.values.slice(int(offsets[0]), int(offsets[-1] - offsets[0]))
        # native dtype flows straight into the hash: int32 sign-extends to
        # the same uint64 terms as the old int64 widening, at half the
        # memory traffic on the hottest stream
        vals = vals_arr.to_numpy(zero_copy_only=False)
        h = h * _P + _poly_hash_segments(vals, offsets - offsets[0])
    for name in ("doc_id", "source"):
        if name in batch.column_names:
            h = h * _P + _poly_hash_segments(*string_bytes(batch.column(name)))
    if "n_tok" in batch.column_names:
        v = batch.column("n_tok").to_numpy(zero_copy_only=False).astype(np.int64)
        h = h * _P + v.view(_U64)
    return h


def _partial(batch: pa.Table) -> pa.Table:
    h = row_hashes(batch)
    return pa.table({
        "count": pa.array([len(h)], type=pa.int64()),
        "hsum": pa.array([int(h.sum(dtype=_U64))], type=pa.uint64()),
        "hxor": pa.array([int(np.bitwise_xor.reduce(h)) if len(h) else 0], type=pa.uint64()),
    })


def _fold(parts: list[dict]) -> dict:
    """Combine (count, hsum, hxor) partials into one checksum."""
    hsum = 0
    hxor = 0
    for p in parts:
        hsum = (hsum + int(p["hsum"])) & 0xFFFFFFFFFFFFFFFF
        hxor ^= int(p["hxor"])
    return {"count": sum(p["count"] for p in parts), "hsum": hsum,
            "hxor": hxor}


def checksum_dataset(ds) -> dict:
    """Streaming multiset checksum of a token Dataset."""
    return _fold(ds.map_batches(_partial, batch_format="pyarrow").take_all())


def checksum_table(t: pa.Table) -> dict:
    h = row_hashes(t)
    return {
        "count": len(h),
        "hsum": int(h.sum(dtype=_U64)),
        "hxor": int(np.bitwise_xor.reduce(h)) if len(h) else 0,
    }


def verify_roundtrip(original_ds, decoded_ds) -> dict:
    a = checksum_dataset(original_ds)
    b = checksum_dataset(decoded_ds)
    return {"match": a == b, "original": a, "decoded": b}


class _DecodeChecksum:
    """Fused decode+checksum task body: decoded stripes are hashed inside
    the same task, so the full decoded data never crosses the object store
    (only (count, sum, xor) triples do)."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir

    def __call__(self, batch: pa.Table) -> pa.Table:
        from .decode import decode_stripes

        outs = [_partial(t) for t in decode_stripes(batch, self.out_dir)]
        if not outs:
            return _partial(pa.table({"count": pa.array([], type=pa.int64())})).slice(0, 0)
        return pa.concat_tables(outs)


def decode_checksum(batch: pa.Table, out_dir: str) -> pa.Table:
    """checksum_encoded's task function."""
    return _DecodeChecksum(out_dir)(batch)


def checksum_encoded(out_dir: str) -> dict:
    """Streaming checksum of an encoded directory (decode fused in).

    The work units are per-partition manifest FILES (decode.manifest_units):
    reading thousands of sub-megabyte manifests through
    ``ray.data.read_parquet`` cost seconds of fan-out AND fixed the task
    granularity at one coarse block per read task (ragged multi-round
    tail); path items make both the fan-out and the tail quantum cheap."""
    from .decode import manifest_units
    from .encode import task_stage

    return _fold(task_stage(manifest_units(out_dir), decode_checksum,
                            out_dir=out_dir).take_all())


def verify_encoded(original_ds, out_dir: str) -> dict:
    """Round-trip check of an encoded dir against its source Dataset."""
    a = checksum_dataset(original_ds)
    b = checksum_encoded(out_dir)
    return {"match": a == b, "original": a, "decoded": b}


_FSCK_SCHEMA = pa.schema([
    ("partition_id", pa.int64()),
    ("stripe_id", pa.int64()),
    ("blob_path", pa.string()),
    ("status", pa.string()),   # ok | no_crc | missing | size_mismatch | crc_mismatch
    ("detail", pa.string()),
])


def _check_blobs(man: pa.Table, blobs_dir: str):
    """fsck rows for the blobs one manifest lists. Reads blob BYTES only
    (no decode) — the lake health check is pure sequential I/O + crc32
    (~2 GB/s/core), an order of magnitude cheaper than a decode pass."""
    import zlib

    from ..state import storage

    cols = ["partition_id", "stripe_id", "blob_path", "encoded_bytes",
            "meta_json"]
    for row in man.select(cols).to_pylist():
        path = storage.join(blobs_dir, row["blob_path"])
        base = {"partition_id": row["partition_id"],
                "stripe_id": row["stripe_id"],
                "blob_path": row["blob_path"]}
        try:
            blob = storage.read_file(path)
        except (FileNotFoundError, OSError) as e:
            yield {**base, "status": "missing", "detail": str(e)}
            continue
        if len(blob) != row["encoded_bytes"]:
            yield {**base, "status": "size_mismatch",
                   "detail": f"manifest says {row['encoded_bytes']} "
                             f"bytes, file has {len(blob)}"}
            continue
        expect = json.loads(row["meta_json"]).get("crc32")
        if expect is None:
            yield {**base, "status": "no_crc",
                   "detail": "legacy manifest predates blob checksums"}
            continue
        got = zlib.crc32(blob)
        if got != expect:
            yield {**base, "status": "crc_mismatch",
                   "detail": f"expected {expect:#010x}, got {got:#010x}"}
        else:
            yield {**base, "status": "ok", "detail": ""}


def fsck_shards(batch: pa.Table, out_dir: str) -> pa.Table:
    """fsck task: crc-scan the blobs listed by the manifest files of
    ``batch``'s ``path`` column."""
    from ..state import manifest as mf

    blobs_dir = mf.blobs_dir(out_dir)
    rows = []
    for path in batch.column("path").to_pylist():
        rows.extend(_check_blobs(mf.read_manifest_file(path), blobs_dir))
    if not rows:
        return _FSCK_SCHEMA.empty_table()
    return pa.Table.from_pylist(rows, schema=_FSCK_SCHEMA)


def fsck_encoded(out_dir: str, max_bad: int = 100) -> dict:
    """Streaming integrity scan of an encoded directory: every blob is
    checked for existence, manifest-recorded size, and crc32 (when the
    manifest carries one). Returns ``{"blobs", "ok", "no_crc", "bad",
    "bad_rows"}`` where ``bad_rows`` holds up to ``max_bad`` offending
    (partition, stripe, path, status, detail) rows — metadata-sized, so a
    100k-stripe lake returns a summary, not a blob list."""
    from .decode import manifest_file_items
    from .encode import task_stage

    items = manifest_file_items(out_dir)
    if not items:
        return {"blobs": 0, "ok": 0, "no_crc": 0, "bad": 0, "bad_rows": []}
    checked = task_stage(items, fsck_shards, out_dir=out_dir)

    def _summarize(batch: pa.Table) -> pa.Table:
        status = batch.column("status").to_pylist()
        bad = [i for i, s in enumerate(status)
               if s not in ("ok", "no_crc")]
        return pa.table({
            "blobs": pa.array([batch.num_rows], type=pa.int64()),
            "ok": pa.array([status.count("ok")], type=pa.int64()),
            "no_crc": pa.array([status.count("no_crc")], type=pa.int64()),
            "bad": pa.array([len(bad)], type=pa.int64()),
            "bad_rows_json": pa.array([json.dumps(
                [batch.slice(i, 1).to_pylist()[0] for i in bad[:max_bad]]
            )], type=pa.string()),
        })

    parts = checked.map_batches(_summarize, batch_format="pyarrow").take_all()
    out = {"blobs": 0, "ok": 0, "no_crc": 0, "bad": 0, "bad_rows": []}
    for p in parts:
        out["blobs"] += int(p["blobs"])
        out["ok"] += int(p["ok"])
        out["no_crc"] += int(p["no_crc"])
        out["bad"] += int(p["bad"])
        if len(out["bad_rows"]) < max_bad:
            out["bad_rows"].extend(
                json.loads(p["bad_rows_json"])[: max_bad - len(out["bad_rows"])])
    return out
