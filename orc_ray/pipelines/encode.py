"""Encode pipelines: Parquet token shards -> stripe blobs + manifests.

Two paths share the stripe encoder core (stripe.py):

1. ``encode_job`` — the flagship checkpointable path. A deterministic
   size-aware plan (sources/planner.py, reads only ``n_tok``) yields
   partition specs; ``work_units(specs)`` fans them out to task-compute
   ``map_batches`` (one block per spec, up to 8 blocks per CPU).
   Codec-selector state (SURVEY.md §2.3 T4) lives in a per-process slot
   keyed by a job id, so it carries across one job's tasks on a worker
   and never into the next job. Each task reads its row range (only
   overlapping row groups), cuts stripes by token budget, writes blobs
   then commits a per-partition manifest atomically. Resume skips
   partitions whose manifest exists; retried tasks are idempotent
   (deterministic partition ids + atomic rename).

2. ``encode_dataset_streaming`` — pure streaming over any token Dataset
   (``ds.map_batches(encode_stream_batch)``): stripes are cut inside each
   batch; partition ids are content-derived (crc32 of first doc_id + row
   count), giving best-effort skip-if-done semantics. Use when the input
   isn't Parquet or was already transformed mid-pipeline.

Neither path materializes the dataset: blobs/manifests are written inside
tasks; only manifest rows (metadata-sized) flow back.
"""

from __future__ import annotations

import json
import uuid
import zlib as _zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..config import EncoderConfig
from ..selector import SelectorState
from ..sources.planner import plan_partitions, read_partition
from ..state import manifest as mf
from ..state import storage
from ..stripe import encode_table

# a stripe also closes at this many rows (writer.go:21
# DefaultStripeTargetRowCount)
STRIPE_TARGET_ROWS = 1_048_576


def cluster_cpus() -> int:
    """CPUs in the Ray cluster; 8 when Ray is not initialized yet (the
    first Dataset a stage builds starts it)."""
    import ray

    try:
        return int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        return 8


def work_units(items: list[dict]):
    """``from_items`` Dataset of a stage's work units: one block, so one
    task, per unit, up to 8 blocks per cluster CPU; past that a block
    carries several units. Launching a task costs a few ms, so one task
    per unit would make a many-unit job on a small cluster mostly launch
    overhead; 8 per CPU still keeps the tail short."""
    import ray.data

    blocks = max(1, min(len(items), 8 * cluster_cpus()))
    return ray.data.from_items(items, override_num_blocks=blocks)


# (job id, selector) of the job this process last encoded for
_SELECTOR: tuple[str, SelectorState] | None = None


def job_selector(job: str, config: EncoderConfig) -> SelectorState:
    """The selector state of ``job`` in this process: one job's tasks on a
    worker share it, and the first task of another job starts afresh.

    There is one slot, so only one job per worker keeps its warm start.
    When two jobs interleave tasks on a worker (two lazy streaming encodes
    in one pipeline, or a compaction beside an encode), each switch starts
    a fresh selector: the bytes still decode, but codec choices and sizes
    then depend on how the tasks were scheduled."""
    global _SELECTOR
    if _SELECTOR is None or _SELECTOR[0] != job:
        _SELECTOR = (job, SelectorState(config))
    return _SELECTOR[1]


def split_stripes(table: pa.Table, config: EncoderConfig) -> list[pa.Table]:
    """Cut a table into stripe slices by cumulative token budget + row cap
    (the analogue of writer.go:166-172's size-or-rows stripe cut). A single
    row over budget becomes its own stripe."""
    if "n_tok" in table.column_names:
        cost = table.column("n_tok").to_numpy(zero_copy_only=False).astype(np.int64)
    else:
        cost = np.ones(table.num_rows, dtype=np.int64)
    budget = config.stripe_target_tokens
    n = table.num_rows
    if n == 0:
        return []
    cum = np.cumsum(cost)
    out = []
    s = 0
    while s < n:
        base = int(cum[s - 1]) if s else 0
        e = int(np.searchsorted(cum, base + budget, side="right"))
        e = min(max(e, s + 1), n, s + STRIPE_TARGET_ROWS)
        out.append(table.slice(s, e - s))
        s = e
    return out


def _dominant_source(stripe: pa.Table) -> str:
    if "source" not in stripe.column_names or stripe.num_rows == 0:
        return ""
    vc = pc.value_counts(stripe.column("source"))
    counts = vc.field("counts").to_numpy(zero_copy_only=False)
    return str(vc.field("values")[int(np.argmax(counts))].as_py())


def _raw_bytes(table: pa.Table) -> int:
    total = 0
    for col in table.columns:
        for chunk in col.chunks:
            for buf in chunk.buffers():
                if buf is not None:
                    total += buf.size
    return total


def _encode_stripes(
    table: pa.Table,
    pid: int,
    out_dir: str,
    config: EncoderConfig,
    selector: SelectorState,
    lineage: dict,
) -> list[dict]:
    rows = []
    for si, stripe in enumerate(split_stripes(table, config)):
        stripe = stripe.combine_chunks()
        group = _dominant_source(stripe)
        blob, meta = encode_table(stripe, config, selector=selector, group=group)
        rel = mf.write_blob_atomic(out_dir, pid, si, blob)
        n_tok = (
            int(pc.sum(stripe.column("n_tok")).as_py() or 0)
            if "n_tok" in stripe.column_names else 0
        )
        doc_ids = stripe.column("doc_id") if "doc_id" in stripe.column_names else None
        rows.append({
            "partition_id": pid,
            "stripe_id": si,
            "blob_path": rel,
            "num_rows": stripe.num_rows,
            "num_tokens": n_tok,
            "raw_bytes": _raw_bytes(stripe),
            "encoded_bytes": len(blob),
            "input_file": lineage.get("file", ""),
            "row_start": lineage.get("row_start", -1),
            "row_count": lineage.get("row_count", stripe.num_rows),
            "first_doc_id": str(doc_ids[0].as_py()) if doc_ids is not None and len(doc_ids) else "",
            "last_doc_id": str(doc_ids[-1].as_py()) if doc_ids is not None and len(doc_ids) else "",
            "meta_json": json.dumps(meta, separators=(",", ":")),
        })
    return rows


class PartitionEncoder:
    """Body of one encode task: encodes the partition specs of a batch
    with the job's selector state (see ``job_selector``)."""

    def __init__(self, out_dir: str, config: EncoderConfig, job: str):
        self.out_dir = out_dir
        self.config = config
        self.selector = job_selector(job, config)

    def __call__(self, specs: pa.Table) -> pa.Table:
        all_rows: list[dict] = []
        for spec in specs.to_pylist():
            pid = int(spec["pid"])
            tag = mf.lineage_tag(spec["file"], spec["row_start"],
                                 spec["row_count"])
            mpath = mf.manifest_path(self.out_dir, pid, tag)
            if storage.exists(mpath):  # retried task: already committed
                all_rows.extend(mf.read_manifest_file(mpath).to_pylist())
                continue
            table = read_partition(spec)
            rows = _encode_stripes(
                table, pid, self.out_dir, self.config, self.selector,
                {"file": spec["file"], "row_start": spec["row_start"],
                 "row_count": spec["row_count"]},
            )
            mf.commit_partition(self.out_dir, pid, rows, tag=tag)
            all_rows.extend(rows)
        if not all_rows:
            return mf.MANIFEST_SCHEMA.empty_table()
        return pa.Table.from_pylist(all_rows, schema=mf.MANIFEST_SCHEMA)


def encode_partitions(specs: pa.Table, out_dir: str, config: EncoderConfig,
                      job: str) -> pa.Table:
    """encode_job's task function."""
    return PartitionEncoder(out_dir, config, job)(specs)


def encode_job(
    paths: list[str],
    out_dir: str,
    config: EncoderConfig | None = None,
    resume: bool = True,
    partition_target_tokens: int | None = None,
) -> dict:
    """Plan + run the full encode job; returns the manifest summary.

    resume=True skips committed partitions after validating their recorded
    lineage against the current plan (appending files that sort after the
    existing ones is safe; any other input change fails loudly).
    resume=False rebuilds: committed manifests are removed first so the
    whole plan re-encodes (blobs are overwritten atomically by name)."""
    import ray

    config = config or EncoderConfig()
    mf.ensure_dirs(out_dir)
    if not resume:
        mdir = mf.manifest_dir(out_dir)
        for name in storage.listdir(mdir):
            if name.endswith(".parquet"):
                storage.remove(storage.join(mdir, name))
    if config.user_metadata:
        mf.write_user_metadata(out_dir, config.user_metadata)
    target = partition_target_tokens or config.stripe_target_tokens
    specs = plan_partitions(paths, target)
    done = mf.completed_tags(out_dir) if resume else {}
    if done:
        # pids are positions in the (sorted-paths) plan, so they are only
        # meaningful for THIS plan. Validate each committed partition's
        # recorded lineage against the current spec: appends (new files
        # sorting last) keep old pids valid; removals/renames/reorders
        # make them stale and MUST fail loudly — silently skipping a pid
        # whose content changed would drop data.
        # listdir-only validation: each committed manifest's filename
        # carries a crc32 of its lineage triple; an untagged manifest
        # (streaming encode, compaction) never matches a plan spec
        by_pid = {s.pid: s for s in specs}
        stale = [pid for pid, tag in sorted(done.items())
                 if pid not in by_pid or tag != mf.lineage_tag(
                     by_pid[pid].file, by_pid[pid].row_start,
                     by_pid[pid].row_count)]
        if stale:
            raise ValueError(
                f"resume: {len(stale)} committed partition(s) (first: pid "
                f"{stale[0]}) no longer match the current plan — the input "
                "file set changed in a non-append way (removed/renamed/"
                "reordered files). Encode into a fresh out_dir, or rerun "
                "with resume=False to rebuild from scratch.")
    todo = [s.to_dict() for s in specs if s.pid not in done]
    result = {"planned_partitions": len(specs), "skipped": len(specs) - len(todo)}
    if todo:
        # a task may encode several specs; each partition still commits
        # its own manifest, so resume granularity stays one partition
        man = work_units(todo).map_batches(
            encode_partitions,
            fn_kwargs={"out_dir": out_dir, "config": config,
                       "job": uuid.uuid4().hex},
            batch_size=None,
            batch_format="pyarrow",
            num_cpus=1,
        )
        mm = man.materialize()  # manifest rows only: metadata-sized
        if not result["skipped"]:
            # every manifest row is already in hand: summarize directly
            # instead of re-opening every per-partition manifest file (a
            # per-partition driver cost that grows with corpus size)
            import pyarrow as _pa

            t = _pa.concat_tables(ray.get(mm.to_arrow_refs()))
            result.update(mf.summarize_rows(t))
            um = mf.read_user_metadata(out_dir)
            if um:
                result["user_metadata"] = um
            return result
    result.update(mf.manifest_summary(out_dir, codec_histogram=False))
    return result


def encode_stream_batch(batch: pa.Table, out_dir: str, config: EncoderConfig,
                        job: str) -> pa.Table:
    """encode_dataset_streaming's task function."""
    if batch.num_rows == 0:
        return mf.MANIFEST_SCHEMA.empty_table()
    first = str(batch.column(0)[0].as_py())
    pid = _zlib.crc32(f"{first}:{batch.num_rows}".encode())
    mpath = mf.manifest_path(out_dir, pid)
    if storage.exists(mpath):
        return mf.read_manifest_file(mpath)
    rows = _encode_stripes(batch, pid, out_dir, config,
                           job_selector(job, config), {})
    mf.commit_partition(out_dir, pid, rows)
    return pa.Table.from_pylist(rows, schema=mf.MANIFEST_SCHEMA)


def encode_dataset_streaming(
    ds,
    out_dir: str,
    config: EncoderConfig | None = None,
    batch_rows: int = 65_536,
):
    """Streaming encode of any token Dataset; returns the manifest Dataset
    (lazy — consume it to drive the pipeline)."""
    config = config or EncoderConfig()
    mf.ensure_dirs(out_dir)
    if config.user_metadata:
        mf.write_user_metadata(out_dir, config.user_metadata)
    return ds.map_batches(
        encode_stream_batch,
        fn_kwargs={"out_dir": out_dir, "config": config,
                   "job": uuid.uuid4().hex},
        batch_size=batch_rows,
        batch_format="pyarrow",
        num_cpus=1,
    )
