"""Stripe compaction: merge undersized stripes into full-size ones.

Streaming ingest (encode_dataset_streaming) and tiny input shards leave
datasets with many small stripes; small stripes waste manifest rows,
dictionary/FSST tables and zlib warm-up, and make decode fan-out ragged.
The reference has no analogue (its writer is one process, one file); table
formats call this job "compaction" / OPTIMIZE.

Ray-Data-first design: the plan is driver-side over manifest METADATA only
(stripe sizes, never data); each output partition is an independent task
that decodes its input stripes, re-encodes at the target size and commits
atomically to the destination manifest — so compaction is resumable
exactly like encode (re-run skips committed partitions) and the source
directory is never mutated.
"""

from __future__ import annotations

import json
import uuid

import pyarrow as pa

from ..config import EncoderConfig
from ..state import manifest as mf
from ..state import storage
from .decode import decode_stripes
from .encode import _encode_stripes, job_selector, task_stage


def plan_compaction(man: pa.Table, target_tokens: int) -> list[dict]:
    """Greedy bin stripes (in manifest order) by cumulative token count —
    falls back to raw bytes for token-less tables. Metadata-only."""
    rows = sorted(man.to_pylist(),
                  key=lambda r: (r["partition_id"], r["stripe_id"]))
    use_tokens = any(r["num_tokens"] for r in rows)
    # bytes fallback: pick a byte budget with the same ratio the token
    # budget has to the default (4 bytes/token of int32 payload)
    target = target_tokens if use_tokens else target_tokens * 4
    bins: list[dict] = []
    cur: list[dict] = []
    acc = 0
    for r in rows:
        w = r["num_tokens"] if use_tokens else r["raw_bytes"]
        if cur and acc + w > target:
            bins.append({"pid": len(bins), "stripes": cur})
            cur, acc = [], 0
        cur.append(r)
        acc += w
    if cur:
        bins.append({"pid": len(bins), "stripes": cur})
    return bins


def compact_bins(bins: pa.Table, src_dir: str, dst_dir: str,
                 config: EncoderConfig, job: str) -> pa.Table:
    """compact_job's task function: one output partition per input row.
    Selector state carries across one job's tasks like encode_job's."""
    selector = job_selector(job, config)
    all_rows: list[dict] = []
    for row in bins.to_pylist():
        pid = int(row["pid"])
        mpath = mf.manifest_path(dst_dir, pid)
        if storage.exists(mpath):  # resume / retried task
            # route through the storage backend — a raw pq.read_table
            # cannot resolve subtree+local:// / object-store URIs
            all_rows.extend(mf.read_manifest_file(mpath).to_pylist())
            continue
        stripes = json.loads(row["stripes_json"])
        man = pa.table({
            "blob_path": pa.array([s["blob_path"] for s in stripes]),
            "meta_json": pa.array([s["meta_json"] for s in stripes]),
        })
        # validate=True: compaction rewrites blobs, so a corrupt source
        # stripe must fail the task loudly here — silently re-encoding it
        # would launder bit-rot into a fresh checksum
        table = pa.concat_tables(
            list(decode_stripes(man, src_dir, validate=True))).combine_chunks()
        rows = _encode_stripes(
            table, pid, dst_dir, config, selector,
            {"file": f"compact:{src_dir}", "row_start": -1,
             "row_count": table.num_rows},
        )
        mf.commit_partition(dst_dir, pid, rows)
        all_rows.extend(rows)
    if not all_rows:
        return mf.MANIFEST_SCHEMA.empty_table()
    return pa.Table.from_pylist(all_rows, schema=mf.MANIFEST_SCHEMA)


def compact_job(
    src_dir: str,
    dst_dir: str,
    config: EncoderConfig | None = None,
    target_tokens: int | None = None,
) -> dict:
    """Compact an encoded directory into ``dst_dir``. Returns a summary
    {stripes_before, stripes_after, bytes_before, bytes_after}."""
    config = config or EncoderConfig()
    if target_tokens is None:
        target_tokens = config.stripe_target_tokens
    man = mf.read_manifest(src_dir)
    bins = plan_compaction(man, target_tokens)
    mf.ensure_dirs(dst_dir)
    kv = mf.read_user_metadata(src_dir)
    if kv:
        mf.write_user_metadata(dst_dir, kv)
    items = [{"pid": b["pid"],
              "stripes_json": json.dumps(b["stripes"], separators=(",", ":"))}
             for b in bins]
    out_man = task_stage(items, compact_bins, src_dir=src_dir,
                         dst_dir=dst_dir, config=config,
                         job=uuid.uuid4().hex).materialize()
    enc_after = sum(r["encoded_bytes"] for r in out_man.take_all())
    return {
        "partitions": len(bins),
        "stripes_before": man.num_rows,
        "stripes_after": out_man.count(),
        "bytes_before": int(pa.compute.sum(man.column("encoded_bytes")).as_py()),
        "bytes_after": int(enc_after),
    }
