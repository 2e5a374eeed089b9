"""Decode pipeline: manifests -> stripe blobs -> Arrow batches.

The analogue of Reader/Cursor (reader.go:335-338, cursor.go:29-176): the
manifest parquet directory is the footer; ``decode_dataset`` fans the
per-partition manifest FILES out to task-compute ``map_batches`` (each
task reads its tiny manifest parquets, then decodes the stripes they
list; ``encode.work_units`` gives each file its own block up to 8 blocks
per CPU, and a one-CPU cluster one block for all). Feeding file paths
instead of
``ray.data.read_parquet`` rows matters at scale: a run with thousands of
partitions would otherwise spend seconds fanning out sub-megabyte
ReadParquet tasks whose block layout (one coarse block per read task) also
fixes the decode task granularity.
Column projection decodes only the selected columns' streams (Select,
cursor.go:38-41). Each stripe yields one output block, so block sizes
track stripe sizes and the stream stays bounded.
"""

from __future__ import annotations

import json

import pyarrow as pa

from ..state import manifest as mf
from ..stripe import decode_blob
from .encode import cluster_cpus, task_stage


def decode_stripes(batch: pa.Table, out_dir: str,
                   columns: list[str] | None = None, postprocess=None,
                   validate: bool = False):
    """Decode task: yields one table per stripe. ``batch`` holds manifest
    rows (``blob_path``, ``meta_json``) or a ``path`` column naming
    manifest files, each of which is read here and its stripes decoded —
    so no driver-side manifest scan happens at all.

    ``postprocess`` is applied to each decoded stripe table INSIDE the
    task — it lets callers flatten types Ray cannot re-serialize as slice
    views (dense unions) before the block ever leaves the worker.
    ``validate`` crc-checks each blob before decoding (BlobIntegrityError
    names the blob); off by default — fsck is the bulk integrity scan."""
    from ..state import storage

    if "path" in batch.column_names:
        for path in batch.column("path").to_pylist():
            man = mf.read_manifest_file(path, columns=["blob_path", "meta_json"])
            yield from decode_stripes(man, out_dir, columns, postprocess,
                                      validate)
        return
    blobs_dir = mf.blobs_dir(out_dir)
    for row in batch.select(["blob_path", "meta_json"]).to_pylist():
        blob = storage.read_file(storage.join(blobs_dir, row["blob_path"]))
        meta = json.loads(row["meta_json"])
        try:
            t = decode_blob(blob, meta, columns=columns, validate=validate)
        except Exception as e:
            e.add_note(f"while decoding blob {row['blob_path']}")
            raise
        yield postprocess(t) if postprocess is not None else t


def manifest_file_items(out_dir: str) -> list[dict]:
    """Per-partition manifest files as from_items rows (the decode fan-out
    work units)."""
    from ..state import storage

    mdir = mf.manifest_dir(out_dir)
    return [{"path": storage.join(mdir, f)}
            for f in sorted(storage.listdir(mdir)) if f.endswith(".parquet")]


def manifest_units(out_dir: str) -> list[dict]:
    """Decode work units. Big directories fan out manifest-file paths (no
    driver-side manifest scan); directories with fewer manifest files than
    cluster CPUs fall back to per-stripe manifest ROWS (each file lists
    several stripes) so every CPU still gets work — the driver read of a
    handful of tiny files is free."""
    items = manifest_file_items(out_dir)
    if len(items) >= cluster_cpus():
        return items
    return mf.read_manifest(out_dir).select(
        ["blob_path", "meta_json"]).to_pylist()


def decode_dataset(
    out_dir: str,
    columns: list[str] | None = None,
    postprocess=None,
    validate: bool = False,
):
    """Lazy decoded Dataset over an encoded directory. ``postprocess``
    (optional table->table callable) runs inside each decode task on every
    stripe table before the block is emitted — required when the decoded
    schema contains dense unions, whose slice views Ray cannot serialize.
    ``validate=True`` crc-checks each blob before decoding it."""
    return task_stage(manifest_units(out_dir), decode_stripes,
                      out_dir=out_dir, columns=columns,
                      postprocess=postprocess, validate=validate)


def _stripe_stat_range(meta: dict, column: str):
    """(min, max) of a top-level column from a stripe's meta stats, or
    None when the column has no recorded range."""
    for cm in meta["columns"]:
        if cm["name"] == column:
            st = cm.get("stats", {})
            if "min" in st and "max" in st:
                return st["min"], st["max"]
    return None


def _with_column(columns: list[str] | None, column: str) -> list[str] | None:
    """A projection that also holds ``column`` (None: every column)."""
    if columns is None:
        return None
    return list(dict.fromkeys(list(columns) + [column]))


def decode_dataset_filtered(
    out_dir: str,
    column: str,
    lo,
    hi,
    columns: list[str] | None = None,
):
    """Predicate-pushdown decode: rows with lo <= column <= hi. Stripes
    whose manifest [min, max] range cannot intersect the predicate are
    skipped WITHOUT reading their blobs (the stripe-stats analogue of
    ORC's predicate pushdown over file/stripe statistics); surviving
    stripes decode and filter exactly, vectorized."""
    import pyarrow.compute as pc

    man = mf.read_manifest(out_dir)
    keep = []
    for i, mj in enumerate(man.column("meta_json").to_pylist()):
        rng = _stripe_stat_range(json.loads(mj), column)
        if rng is None or (rng[1] >= lo and rng[0] <= hi):
            keep.append(i)
    pruned = man.take(pa.array(keep, type=pa.int64()))

    def in_range(t: pa.Table) -> pa.Table:
        mask = pc.and_(pc.greater_equal(t.column(column), lo),
                       pc.less_equal(t.column(column), hi))
        ft = t.filter(mask)
        return ft.select(columns) if columns is not None else ft

    return task_stage(pruned.select(["blob_path", "meta_json"]).to_pylist(),
                      decode_stripes, out_dir=out_dir,
                      columns=_with_column(columns, column),
                      postprocess=in_range)


def _value_hashes(values: list):
    """Bloom-filter hashes of the lookup values."""
    import numpy as np

    from ..codecs import bloom

    if not values:
        raise ValueError("point lookup: values must not be empty")
    if isinstance(values[0], str):
        h = bloom.hash_strings(pa.array(values, type=pa.string()))
        if "" in values:
            # a stripe hashes "" to 0 when its column holds no byte, else
            # to the seed hash: probe both (the exact filter drops extras)
            h = np.concatenate([h, bloom.hash_strings(pa.array([""])),
                                bloom.hash_strings(pa.array(["", "."]))[:1]])
        return h
    return bloom.hash_ints(np.asarray(values, dtype=np.int64))


def _lookup_stripe(blobs_dir: str, blob_path: str, meta: dict, column: str,
                   values: list, hashes, columns: list[str] | None):
    """Point-lookup one stripe: (matching table | None, prune reason).

    Three escalating touches — stripe stats (zero I/O), the BLOOM_FILTER
    stream's byte range only, then a full column decode + filter for
    stripes the filter cannot rule out."""
    import pyarrow.compute as pc

    from ..codecs import bloom
    from ..stripe import decode_blob, read_stream_from_file

    rng = _stripe_stat_range(meta, column)
    if rng is not None and not any(rng[0] <= v <= rng[1] for v in values):
        return None, "stats"
    from ..state import storage

    path = storage.join(blobs_dir, blob_path)
    filt = read_stream_from_file(path, meta, column, "BLOOM_FILTER")
    if filt is not None and not bloom.might_contain(filt, hashes).any():
        return None, "bloom"
    blob = storage.read_file(path)
    t = decode_blob(blob, meta, columns=columns)
    ft = t.filter(pc.is_in(t.column(column), value_set=pa.array(values)))
    return (ft if ft.num_rows else None), "decoded"


def _lookups(man: pa.Table, out_dir: str, column: str, values: list, hashes,
             columns: list[str] | None):
    """(matching table | None, prune reason) of each manifest row's
    stripe, in manifest order."""
    blobs_dir = mf.blobs_dir(out_dir)
    for row in man.select(["blob_path", "meta_json"]).to_pylist():
        yield _lookup_stripe(blobs_dir, row["blob_path"],
                             json.loads(row["meta_json"]), column, values,
                             hashes, columns)


def lookup_stripes(man: pa.Table, out_dir: str, column: str, values: list,
                   hashes, columns: list[str] | None):
    """point_lookup's task function: manifest rows in, matching rows out.
    Pruning happens inside the task (distributed), never on the driver."""
    out = [t for t, _ in _lookups(man, out_dir, column, values, hashes,
                                  columns) if t is not None]
    if out:
        yield pa.concat_tables(out)


def point_lookup(
    out_dir: str,
    column: str,
    values: list,
    columns: list[str] | None = None,
):
    """Equality point lookup over an encoded directory: every stripe is
    ruled out by stats or its bloom filter's byte range where possible;
    only surviving stripes decode. Returns a Dataset of matching rows."""
    hashes = _value_hashes(values)
    man = mf.read_manifest(out_dir).select(["blob_path", "meta_json"])
    return task_stage(man.to_pylist(), lookup_stripes, out_dir=out_dir,
                      column=column, values=values, hashes=hashes,
                      columns=_with_column(columns, column))


def point_lookup_local(out_dir: str, column: str, values: list,
                       columns: list[str] | None = None):
    """Driver-side point lookup with prune diagnostics (tests/CLI): returns
    (table | None, {"stats": n, "bloom": n, "decoded": n})."""
    counts = {"stats": 0, "bloom": 0, "decoded": 0}
    out = []
    for t, reason in _lookups(mf.read_manifest(out_dir), out_dir, column,
                              values, _value_hashes(values),
                              _with_column(columns, column)):
        counts[reason] += 1
        if t is not None:
            out.append(t)
    return (pa.concat_tables(out) if out else None), counts


def decode_row_ranges(man: pa.Table, out_dir: str,
                      columns: list[str] | None = None):
    """Row-range decode task: each manifest row arrives with a per-stripe
    (row_lo, row_cnt) sub-range; the seek-point indexes mean only the
    covering byte ranges of each blob file are read."""
    from ..state import storage
    from ..stripe import decode_blob_rows

    blobs_dir = mf.blobs_dir(out_dir)
    cols = ["blob_path", "meta_json", "row_lo", "row_cnt"]
    for row in man.select(cols).to_pylist():
        meta = json.loads(row["meta_json"])
        path = storage.join(blobs_dir, row["blob_path"])
        table, _ = decode_blob_rows(path, meta, row["row_lo"], row["row_cnt"],
                                    columns=columns)
        yield table


def plan_row_ranges(man: pa.Table, row_start: int, row_count: int) -> list[dict]:
    """Map a global row range onto per-stripe sub-ranges (rows in manifest
    order: partition_id, stripe_id). Shared by read_rows and the CLI."""
    import numpy as np

    order = np.lexsort((man.column("stripe_id").to_numpy(),
                        man.column("partition_id").to_numpy()))
    starts = np.zeros(len(order) + 1, dtype=np.int64)
    # ufunc methods, not the np.* wrappers: a point read plans on every call
    np.add.accumulate(man.column("num_rows").to_numpy()[order],
                      out=starts[1:])
    lo, hi = row_start, row_start + row_count
    # stripe i is picked when it ends after lo (starts[i + 1] > lo) and
    # starts before hi (starts[i] < hi): one run of stripes, a zero-row
    # stripe inside the range too. starts[0] is 0, so one searchsorted
    # finds both ends.
    a, b = starts.searchsorted([lo + 1, hi]).tolist()
    picked = []
    for i in range(max(0, a - 1), min(b, len(order))):
        s, e, j = int(starts[i]), int(starts[i + 1]), int(order[i])
        picked.append({
            "blob_path": man.column("blob_path")[j].as_py(),
            "meta_json": man.column("meta_json")[j].as_py(),
            "row_lo": max(0, lo - s),
            "row_cnt": min(e, hi) - max(s, lo),
        })
    return picked


def read_rows(
    out_dir: str,
    row_start: int,
    row_count: int,
    columns: list[str] | None = None,
):
    """Decode only global rows [row_start, row_start+row_count) of an
    encoded dataset. The manifest maps the range to (stripe, intra-stripe
    range) pairs and the seek-point indexes (T5) keep reads to the
    covering byte ranges — the cursor.go:179-198 partial-stripe read,
    distributed."""
    man = mf.read_manifest(out_dir)
    picked = plan_row_ranges(man, row_start, row_count)
    if not picked:
        return None
    return task_stage(picked, decode_row_ranges, out_dir=out_dir,
                      columns=columns)


def decode_table(out_dir: str, columns: list[str] | None = None) -> pa.Table:
    """Driver-side decode of a (small) encoded directory without Ray — used
    by tests and tools (the orc2csv analogue)."""
    tables = list(decode_stripes(mf.read_manifest(out_dir), out_dir, columns))
    return pa.concat_tables(tables) if tables else None
