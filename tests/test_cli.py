"""CLI smoke tests (python -m orc_ray ...)."""

import json
import os

import pyarrow.parquet as pq

from orc_ray.__main__ import main
from orc_ray.sources.tokens import write_synthetic_shards


def test_cli_encode_decode_stats_schema(ray_session, tmp_path, capsys):
    d = tmp_path / "in"
    write_synthetic_shards(str(d), num_rows=300, num_shards=2, seed=5)
    enc = str(tmp_path / "enc")

    assert main(["encode", "--input", f"{d}/*.parquet", "--out", enc,
                 "--stripe-tokens", "50000"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["num_rows"] == 300

    csv_path = str(tmp_path / "out.csv")
    assert main(["decode", "--dir", enc, "--out", csv_path,
                 "--columns", "doc_id,n_tok,source"]) == 0
    lines = open(csv_path).read().strip().splitlines()
    assert len(lines) == 301  # header + rows

    pq_path = str(tmp_path / "out.parquet")
    assert main(["decode", "--dir", enc, "--out", pq_path]) == 0
    t = pq.read_table(pq_path)
    assert t.num_rows == 300 and "tokens" in t.column_names

    capsys.readouterr()
    assert main(["stats", "--dir", enc]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["num_rows"] == 300 and stats["bytes_per_token"] > 0

    assert main(["schema", "--dir", enc]) == 0
    ddl = capsys.readouterr().out.strip().splitlines()[-1]
    assert ddl.startswith("struct<doc_id:string,tokens:array<int>")


def test_cli_export_partitioned_parquet(ray_session, tmp_path, capsys):
    import pyarrow as pa

    d = tmp_path / "in"
    write_synthetic_shards(str(d), num_rows=300, num_shards=2, seed=5)
    enc = str(tmp_path / "enc")
    assert main(["encode", "--input", f"{d}/*.parquet", "--out", enc,
                 "--stripe-tokens", "50000"]) == 0
    capsys.readouterr()

    out_dir = str(tmp_path / "exported")
    assert main(["export", "--dir", enc, "--out", out_dir]) == 0
    files = [f for f in os.listdir(out_dir) if f.endswith(".parquet")]
    assert files  # a directory of parquet files, not one giant file
    t = pq.read_table(out_dir)
    assert t.num_rows == 300
    src = pa.concat_tables([pq.read_table(str(p)) for p in sorted(d.glob("*.parquet"))])
    # token arrays round-trip bit-identical through encode -> export
    assert sorted(t.column("doc_id").to_pylist()) == sorted(src.column("doc_id").to_pylist())
    by_id = dict(zip(t.column("doc_id").to_pylist(), t.column("tokens").to_pylist()))
    src_by_id = dict(zip(src.column("doc_id").to_pylist(), src.column("tokens").to_pylist()))
    assert by_id == src_by_id


def test_cli_compact_and_lookup(ray_session, tmp_path, capsys):
    import ray.data

    from orc_ray.config import EncoderConfig
    from orc_ray.pipelines.encode import encode_dataset_streaming
    from orc_ray.sources.tokens import synthesize_tokens

    t = synthesize_tokens(1500, seed=51)
    src = str(tmp_path / "src")
    cfg = EncoderConfig(stripe_target_tokens=20_000, bloom_columns=("doc_id",))
    encode_dataset_streaming(ray.data.from_arrow(t), src, cfg,
                             batch_rows=128).materialize()

    dst = str(tmp_path / "dst")
    assert main(["compact", "--dir", src, "--out", dst,
                 "--stripe-tokens", "300000"]) == 0
    res = json.loads(capsys.readouterr().out)
    assert res["stripes_after"] < res["stripes_before"]

    want = t.column("doc_id")[42].as_py()
    assert main(["lookup", "--dir", src, "--column", "doc_id",
                 "--columns", "doc_id,n_tok", want]) == 0
    got = capsys.readouterr().out.strip().splitlines()
    assert got[0] == '"doc_id","n_tok"'
    assert any(want in line for line in got[1:])
    # a value that exists nowhere: exit 1, no matches
    assert main(["lookup", "--dir", src, "--column", "doc_id",
                 "absent-id"]) == 1
