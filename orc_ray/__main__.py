"""CLI entry points (the tools/orc2csv analogue, /root/reference/tools/
orc2csv/main.go:19-66, generalized).

  python -m orc_ray encode  --input 'shards/*.parquet' --out enc_dir
  python -m orc_ray decode  --dir enc_dir --out out.csv [--columns a,b]
  python -m orc_ray stats   --dir enc_dir
  python -m orc_ray schema  --dir enc_dir

These commands own their Ray session (guarded; the driver contract never
routes through here).
"""

from __future__ import annotations

import argparse
import datetime
import glob
import json
import sys


def _ensure_ray(cpus: int | None):
    import ray

    if not ray.is_initialized():
        kwargs = {"address": "local", "include_dashboard": False}
        if cpus:
            kwargs["num_cpus"] = cpus
        ray.init(**kwargs)


def cmd_encode(args) -> int:
    from .config import EncoderConfig
    from .pipelines.encode import encode_job

    _ensure_ray(args.cpus)
    paths = sorted(glob.glob(args.input))
    if not paths:
        print(f"no inputs match {args.input}", file=sys.stderr)
        return 1
    meta = {}
    for kv in args.meta or []:
        if "=" not in kv:
            print(f"--meta expects key=value, got {kv!r}", file=sys.stderr)
            return 1
        k, v = kv.split("=", 1)
        meta[k] = v
    cfg = EncoderConfig(stripe_target_tokens=args.stripe_tokens,
                        user_metadata=meta)
    summary = encode_job(paths, args.out, cfg, resume=not args.no_resume)
    print(json.dumps(summary, indent=2))
    return 0


def cmd_decode(args) -> int:
    from .pipelines.decode import decode_table

    columns = args.columns.split(",") if args.columns else None
    if args.rows:
        # seek-point path: reads only the byte ranges covering the range
        import pyarrow as pa

        from .pipelines.decode import decode_row_ranges, plan_row_ranges
        from .state import manifest as mf

        start_s, count_s = args.rows.split(":")
        picked = plan_row_ranges(mf.read_manifest(args.dir), int(start_s),
                                 int(count_s))
        table = pa.concat_tables(decode_row_ranges(
            pa.Table.from_pylist(picked), args.dir, columns)) if picked else None
    else:
        table = decode_table(args.dir, columns=columns)
    if table is None:
        print("empty encoded dir", file=sys.stderr)
        return 1
    return _write_table(table, args.out)


def _write_table(table, out: str) -> int:
    """Write ``table`` to ``out`` by its suffix: .parquet as it is, .csv
    without the columns CSV cannot hold (nested and binary; noted on
    stderr)."""
    import pyarrow as pa

    if out.endswith(".parquet"):
        import pyarrow.parquet as pq

        pq.write_table(table, out)
    elif out.endswith(".csv"):
        import pyarrow.csv as pacsv

        drop = [f.name for f in table.schema
                if pa.types.is_nested(f.type) or pa.types.is_binary(f.type)
                or pa.types.is_large_binary(f.type)]
        if drop:
            print(f"note: dropping non-csv columns {drop}", file=sys.stderr)
            table = table.drop_columns(drop)
        pacsv.write_csv(table, out)
    else:
        print("out must end in .csv or .parquet", file=sys.stderr)
        return 1
    print(f"wrote {table.num_rows} rows to {out}")
    return 0


def cmd_export(args) -> int:
    """Distributed sink: stream-decode the encoded dir and write a
    partitioned Parquet DIRECTORY (one file per output block) via
    ``Dataset.write_parquet`` — blocks track stripe sizes, nothing
    materializes on the driver. The resumable-output counterpart of
    ``decode`` (which builds one driver-side table/file)."""
    from .pipelines.decode import decode_dataset

    _ensure_ray(args.cpus)
    columns = args.columns.split(",") if args.columns else None
    ds = decode_dataset(args.dir, columns=columns)
    ds.write_parquet(args.out)
    print(f"exported {args.dir} -> {args.out}")
    return 0


def cmd_compact(args) -> int:
    """Merge undersized stripes into full-size ones (resumable; the source
    directory is never mutated)."""
    from .config import EncoderConfig
    from .pipelines.compact import compact_job

    _ensure_ray(args.cpus)
    cfg = EncoderConfig(stripe_target_tokens=args.stripe_tokens)
    res = compact_job(args.dir, args.out, cfg)
    print(json.dumps(res, indent=2))
    return 0


def cmd_lookup(args) -> int:
    """Equality point lookup via stripe stats + BLOOM_FILTER byte ranges
    (driver-side; prints prune counters and matching rows as CSV)."""
    from .pipelines.decode import point_lookup_local

    values: list = args.value
    if args.int:
        values = [int(v) for v in values]
    columns = args.columns.split(",") if args.columns else None
    table, counts = point_lookup_local(args.dir, args.column, values, columns)
    print(json.dumps(counts), file=sys.stderr)
    if table is None:
        print("no matches", file=sys.stderr)
        return 1
    import io

    import pyarrow.csv as pacsv

    buf = io.BytesIO()
    pacsv.write_csv(table, buf)
    sys.stdout.write(buf.getvalue().decode())
    return 0


def cmd_stats(args) -> int:
    from .state.manifest import column_stats, manifest_summary

    summary = manifest_summary(args.dir)
    if args.columns:
        summary["column_stats"] = column_stats(args.dir)
    print(json.dumps(summary, indent=2))
    return 0


def cmd_fsck(args) -> int:
    """Distributed integrity scan of an encoded directory: every blob is
    checked for existence, manifest-recorded size, and crc32. Bytes-only
    (no decode) — the cheap lake health check to run before trusting a
    resume or after a storage incident. Exit 2 if anything is bad."""
    from .pipelines.verify import fsck_encoded

    _ensure_ray(args.cpus)
    out = fsck_encoded(args.dir, max_bad=args.max_bad)
    print(json.dumps(out, indent=2))
    return 2 if out["bad"] else 0


def cmd_ingest_orc(args) -> int:
    """Ingest a foreign Apache-ORC lake into the engine's native encoded
    format as ONE streaming pipeline: distributed per-stripe ORC decode
    (read_orc) feeding the streaming stripe encoder — no intermediate
    files, no driver materialization. The complete switch-over story for
    a user of the reference library: their existing ORC data lands as
    blobs + manifests with stats, seek points and resume."""
    from .config import EncoderConfig
    from .pipelines.encode import encode_dataset_streaming
    from .sources.orcfile import read_orc

    _ensure_ray(args.cpus)
    paths = sorted(glob.glob(args.input)) or [args.input]
    cols = args.columns.split(",") if args.columns else None
    ds = read_orc(paths, columns=cols)
    man = encode_dataset_streaming(
        ds, args.out, EncoderConfig(stripe_target_tokens=args.stripe_tokens))
    rows = enc = 0
    for b in man.iter_batches(batch_format="pyarrow", batch_size=None):
        rows += sum(b.column("num_rows").to_pylist())
        enc += sum(b.column("encoded_bytes").to_pylist())
    print(json.dumps({"files": len(paths), "rows": rows,
                      "encoded_bytes": enc, "out": args.out}))
    return 0


def cmd_export_orc(args) -> int:
    """Export to a real Apache-ORC lake (the reverse of ingest-orc):
    either a native encoded dir (--dir, streamed through decode_dataset)
    or parquet shards (--input) fan out one content-addressed ORC part
    file per batch, readable by pyarrow/Hive/Presto and our own reader."""
    from .pipelines.export_orc import export_orc_dataset

    _ensure_ray(args.cpus)
    if bool(args.dir) == bool(args.input):
        print("export-orc needs exactly one of --dir / --input",
              file=sys.stderr)
        return 1
    if args.dir:
        from .pipelines.decode import decode_dataset

        cols = args.columns.split(",") if args.columns else None
        ds = decode_dataset(args.dir, columns=cols)
    else:
        import ray.data

        paths = sorted(glob.glob(args.input)) or [args.input]
        cols = args.columns.split(",") if args.columns else None
        ds = ray.data.read_parquet(paths, columns=cols)
    man = export_orc_dataset(ds, args.out, compression=args.compression,
                             batch_rows=args.rows_per_file)
    files = rows = size = 0
    for b in man.iter_batches(batch_format="pyarrow", batch_size=None):
        files += b.num_rows
        rows += sum(b.column("num_rows").to_pylist())
        size += sum(b.column("bytes").to_pylist())
    print(json.dumps({"files": files, "rows": rows, "bytes": size,
                      "out": args.out}))
    return 0


def cmd_schema(args) -> int:
    import base64
    import pyarrow as pa

    from .schema import schema_ddl
    from .state.manifest import read_manifest

    man = read_manifest(args.dir)
    if not man.num_rows:
        print("empty encoded dir", file=sys.stderr)
        return 1
    meta = json.loads(man.column("meta_json")[0].as_py())
    schema = pa.ipc.read_schema(pa.py_buffer(base64.b64decode(meta["schema_b64"])))
    print(schema_ddl(schema))
    return 0


def cmd_import_orc(args) -> int:
    """Decode a foreign Apache-ORC file to parquet/csv (or print info)."""
    import pyarrow as pa

    from .sources.orcfile import ORCFile

    f = ORCFile(args.file)
    if args.out is None:
        info = {
            "rows": f.number_of_rows,
            "stripes": len(f.stripes),
            "compression": f.compression,
            "schema": {nm: str(ty) for nm, ty in zip(
                f.arrow_schema().names, f.arrow_schema().types)},
            "writer_timezone": f.writer_timezone(0),
        }
        print(json.dumps(info, indent=2))
        return 0
    cols = args.columns.split(",") if args.columns else None
    if args.filter:
        import pyarrow.compute as pc

        # COL:LO:HI, or COL:LO..HI when the bounds themselves contain
        # colons (ISO timestamps).  The 3-way colon split is the primary
        # syntax and wins whenever it parses — bounds that merely
        # CONTAIN ".." (e.g. relative paths) must not trip the range form
        try:
            col, lo, hi = args.filter.split(":")
        except ValueError:
            if ".." not in args.filter:
                raise SystemExit(
                    f"bad --filter {args.filter!r}: want COL:LO:HI or "
                    "COL:LO..HI")
            col, rng = args.filter.split(":", 1)
            lo, hi = rng.split("..", 1)
        from .sources.orcfile import _read_stripe_pruned

        ctype = f._select([col])[0][1]

        def _coerce(v: str):
            # ISO-datetime parsing ONLY for timestamp columns — a string
            # column holding date-shaped strings must keep string bounds
            casts = ((int, float, datetime.datetime.fromisoformat)
                     if ctype.kind == 9 else (int, float))
            for cast in casts:
                try:
                    return cast(v)
                except ValueError:
                    pass
            return v

        lo, hi = _coerce(lo), _coerce(hi)
        keep = [i for i in range(len(f.stripes))
                if f._stripe_may_match(i, col, lo, hi)]
        n_stat = len(f.stripes) - len(keep)
        if lo == hi:  # point lookup: bloom streams too (kind 9 converts
            # datetime predicates to UTC-ms inside bloom_might_contain)
            keep = [i for i in keep if f.bloom_might_contain(i, col, lo)]
        print(f"pruned {len(f.stripes) - len(keep)}/{len(f.stripes)} "
              f"stripes ({n_stat} by statistics, "
              f"{len(f.stripes) - len(keep) - n_stat} by bloom)",
              file=sys.stderr)
        want = cols if cols is None or col in cols else cols + [col]
        # within surviving stripes, ROW_INDEX row-group stats prune
        # further and decode seeks to the candidate span
        parts = [_read_stripe_pruned(f, i, want, (col, lo, hi))
                 for i in keep]
        table = (pa.concat_tables(parts) if parts
                 else f.arrow_schema().empty_table())
        table = table.filter(pc.and_(
            pc.greater_equal(table.column(col), lo),
            pc.less_equal(table.column(col), hi)))
        if cols is not None:
            table = table.select(cols)
    else:
        table = f.read(columns=cols)
    return _write_table(table, args.out)


def main(argv=None) -> int:
    from .codecs import CHUNKED_KINDS

    ap = argparse.ArgumentParser(prog="orc_ray")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("encode", help="parquet shards -> stripe blobs + manifests")
    p.add_argument("--input", required=True, help="glob of parquet shards")
    p.add_argument("--out", required=True)
    p.add_argument("--stripe-tokens", type=int, default=4_000_000)
    p.add_argument("--no-resume", action="store_true")
    p.add_argument("--cpus", type=int, default=None)
    p.add_argument("--meta", action="append", default=[], metavar="K=V",
                   help="user metadata key=value (repeatable; shown by stats)")
    p.set_defaults(fn=cmd_encode)

    p = sub.add_parser("decode", help="encoded dir -> csv/parquet")
    p.add_argument("--dir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--columns", default="")
    p.add_argument("--rows", default="",
                   help="START:COUNT row range (seek-point partial read)")
    p.set_defaults(fn=cmd_decode)

    p = sub.add_parser("export",
                       help="encoded dir -> partitioned parquet directory "
                       "(distributed, streaming)")
    p.add_argument("--dir", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--columns", default="")
    p.add_argument("--cpus", type=int, default=None)
    p.set_defaults(fn=cmd_export)

    p = sub.add_parser("compact",
                       help="merge undersized stripes to target size "
                       "(new dir; resumable)")
    p.add_argument("--dir", required=True, help="source encoded dir")
    p.add_argument("--out", required=True, help="destination encoded dir")
    p.add_argument("--stripe-tokens", type=int, default=4_000_000)
    p.add_argument("--cpus", type=int, default=None)
    p.set_defaults(fn=cmd_compact)

    p = sub.add_parser("lookup",
                       help="equality point lookup (stats + bloom pruning)")
    p.add_argument("--dir", required=True)
    p.add_argument("--column", required=True)
    p.add_argument("--int", action="store_true", help="values are integers")
    p.add_argument("--columns", default="")
    p.add_argument("value", nargs="+")
    p.set_defaults(fn=cmd_lookup)

    p = sub.add_parser("stats", help="manifest summary")
    p.add_argument("--dir", required=True)
    p.add_argument("--columns", action="store_true",
                   help="include file-level merged per-column statistics")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("ingest-orc",
                       help="stream a foreign ORC lake into the native "
                       "encoded format (blobs + manifests)")
    p.add_argument("input", help="ORC file or glob")
    p.add_argument("--out", required=True, help="output encoded directory")
    p.add_argument("--columns", default=None, help="comma-separated projection")
    p.add_argument("--stripe-tokens", type=int, default=2_000_000)
    p.add_argument("--cpus", type=int, default=None)
    p.set_defaults(fn=cmd_ingest_orc)

    p = sub.add_parser("export-orc",
                       help="native encoded dir or parquet -> real "
                       "Apache-ORC part files (distributed, streaming)")
    p.add_argument("--dir", default="", help="native encoded dir input")
    p.add_argument("--input", default="", help="parquet glob input")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--columns", default="")
    p.add_argument("--compression", default="zlib",
                   choices=["none", *CHUNKED_KINDS])
    p.add_argument("--rows-per-file", type=int, default=128 * 1024)
    p.add_argument("--cpus", type=int, default=None)
    p.set_defaults(fn=cmd_export_orc)

    p = sub.add_parser("import-orc",
                       help="decode a foreign Apache-ORC file (info/parquet/csv)")
    p.add_argument("file")
    p.add_argument("--out", default=None,
                   help="output path (.parquet or .csv); omit to print file info")
    p.add_argument("--columns", default=None, help="comma-separated projection")
    p.add_argument("--filter", default=None, metavar="COL:LO:HI",
                   help="keep rows with LO <= COL <= HI; stripes whose "
                   "file statistics exclude the range are never read")
    p.set_defaults(fn=cmd_import_orc)

    p = sub.add_parser("schema", help="print encoded dataset schema as DDL")
    p.add_argument("--dir", required=True)
    p.set_defaults(fn=cmd_schema)

    p = sub.add_parser(
        "fsck",
        help="blob integrity scan (existence + size + crc32, no decode)")
    p.add_argument("--dir", required=True)
    p.add_argument("--cpus", type=int, default=None)
    p.add_argument("--max-bad", type=int, default=100,
                   help="cap on offending rows returned in the report")
    p.set_defaults(fn=cmd_fsck)

    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
