"""Distributed Apache-ORC export: ``ray.data.Dataset`` -> a directory of
real ORC part files, one per batch, written task-side.

The reverse of ``ingest-orc``: a user migrating OFF this engine (or
publishing to a Hive/Presto/pyarrow consumer) streams any Dataset —
including ``decode_dataset`` over the native format — through
``export_orc_dataset`` and gets an ORC lake the whole ecosystem reads.
The reference's writer is single-threaded per file by design
(/root/reference/writer.go:30-54); here each Ray task assembles a whole
file from one Arrow batch, so export throughput scales with partitions
and no driver materialization happens at any size.

Part names are CONTENT-ADDRESSED (md5 of the finished file bytes — a
32-bit crc would birthday-collide near ~77k parts and silently drop a
distinct batch), so a retried task rewrites the identical name —
idempotent under Ray task retry, and a re-run over identical input is a
no-op per part (the same resume-by-naming contract the native encoder's
manifests use).  Consequence, by design: two BYTE-IDENTICAL batches
coalesce into one part file (content addressing cannot distinguish "my
retried self" from "an identical twin" without task identity, and retry
idempotence is the harder correctness requirement); the returned
manifest still carries one row per input batch, so
``sum(num_rows)`` counts source rows while the directory holds each
unique part once.
"""

from __future__ import annotations

import hashlib
import io
import os

import pyarrow as pa

from ..sources.orcwriter import write_orc_file
from ..state import storage


def _write_part(batch: pa.Table, out_dir: str, compression: str) -> pa.Table:
    buf = io.BytesIO()
    info = write_orc_file(batch, buf, compression=compression)
    data = buf.getvalue()
    tag = hashlib.md5(data).hexdigest()
    name = f"part-{tag}-{batch.num_rows}.orc"
    path = storage.join(out_dir, name)
    if not storage.exists(path):  # content-addressed: retries are no-ops
        storage.write_file_atomic(path, data)
    return pa.table({
        "path": pa.array([path], pa.string()),
        "num_rows": pa.array([batch.num_rows], pa.int64()),
        "bytes": pa.array([len(data)], pa.int64()),
        "stripes": pa.array([info["stripes"]], pa.int64()),
    })


def export_orc_dataset(ds, out_dir: str, *, compression: str = "zlib",
                       batch_rows: int | None = 128 * 1024):
    """Stream ``ds`` into ``out_dir`` as ORC part files; returns the part
    manifest as a Dataset (path, num_rows, bytes, stripes) — consume it to
    drive the export.  ``batch_rows`` sizes one output file (one stripe
    per <=1Mi rows inside, writer.go:21 semantics)."""
    storage.makedirs(out_dir)

    def write(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table({"path": pa.array([], pa.string()),
                             "num_rows": pa.array([], pa.int64()),
                             "bytes": pa.array([], pa.int64()),
                             "stripes": pa.array([], pa.int64())})
        return _write_part(batch, out_dir, compression)

    return ds.map_batches(write, batch_format="pyarrow",
                          batch_size=batch_rows)
