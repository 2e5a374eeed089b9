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

import pyarrow as pa

from ..config import EncoderConfig
from ..selector import SelectorState
from ..state import manifest as mf
from .decode import StripeDecoder, clamp_concurrency
from .encode import _default_concurrency, _encode_stripes


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


class CompactionWorker:
    """Actor-pool stage: one output partition per input row. Selector
    state persists across partitions like the encode pool's."""

    def __init__(self, src_dir: str, dst_dir: str, config: EncoderConfig):
        self.src_dir = src_dir
        self.dst_dir = dst_dir
        self.config = config
        self.selector = SelectorState(self.config)
        # validate=True: compaction rewrites blobs, so a corrupt source
        # stripe must fail the task loudly here — silently re-encoding it
        # would launder bit-rot into a fresh checksum
        self.dec = StripeDecoder(src_dir, validate=True)

    def __call__(self, bins: pa.Table) -> pa.Table:
        import pyarrow.parquet as pq

        all_rows: list[dict] = []
        for row in bins.to_pylist():
            pid = int(row["pid"])
            mpath = mf.manifest_path(self.dst_dir, pid)
            from ..state import storage

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
            table = pa.concat_tables(list(self.dec(man))).combine_chunks()
            rows = _encode_stripes(
                table, pid, self.dst_dir, self.config, self.selector,
                {"file": f"compact:{self.src_dir}", "row_start": -1,
                 "row_count": table.num_rows},
            )
            mf.commit_partition(self.dst_dir, pid, rows)
            all_rows.extend(rows)
        if not all_rows:
            return mf.MANIFEST_SCHEMA.empty_table()
        return pa.Table.from_pylist(all_rows, schema=mf.MANIFEST_SCHEMA)


def compact_job(
    src_dir: str,
    dst_dir: str,
    config: EncoderConfig | None = None,
    target_tokens: int | None = None,
    concurrency: int | tuple[int, int] | None = None,
) -> dict:
    """Compact an encoded directory into ``dst_dir``. Returns a summary
    {stripes_before, stripes_after, bytes_before, bytes_after}."""
    import ray.data

    config = config or EncoderConfig()
    if target_tokens is None:
        target_tokens = config.stripe_target_tokens
    if concurrency is None:
        concurrency = _default_concurrency()
    man = mf.read_manifest(src_dir)
    bins = plan_compaction(man, target_tokens)
    mf.ensure_dirs(dst_dir)
    kv = mf.read_user_metadata(src_dir)
    if kv:
        mf.write_user_metadata(dst_dir, kv)
    items = [{"pid": b["pid"],
              "stripes_json": json.dumps(b["stripes"], separators=(",", ":"))}
             for b in bins]
    ds = ray.data.from_items(items, override_num_blocks=len(items))
    out_man = ds.map_batches(
        CompactionWorker,
        fn_constructor_kwargs={"src_dir": src_dir, "dst_dir": dst_dir,
                               "config": config},
        batch_size=None,
        batch_format="pyarrow",
        concurrency=clamp_concurrency(concurrency, len(items)),
        num_cpus=1,
    ).materialize()
    enc_after = sum(r["encoded_bytes"] for r in out_man.take_all())
    return {
        "partitions": len(bins),
        "stripes_before": man.num_rows,
        "stripes_after": out_man.count(),
        "bytes_before": int(pa.compute.sum(man.column("encoded_bytes")).as_py()),
        "bytes_after": int(enc_after),
    }
