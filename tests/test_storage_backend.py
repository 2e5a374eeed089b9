"""Pluggable storage backend (state/storage.py, VERDICT r4 missing #2).

Runs the full encode -> decode -> resume -> lookup -> export loop with the
out_dir addressed as a ``subtree+local://`` URI — every blob and manifest
byte then routes through pyarrow.fs in whichever Ray worker touches it
(the object-store code path), against a shared local directory so results
are independently checkable with plain os calls."""

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from orc_ray.config import EncoderConfig
from orc_ray.pipelines.decode import decode_table
from orc_ray.pipelines.encode import encode_job
from orc_ray.sources.tokens import write_synthetic_shards
from orc_ray.state import manifest as mf
from orc_ray.state import storage


def _uri(base: str, rel: str = "") -> str:
    return f"subtree+local://{base}//{rel}" if rel else \
        f"subtree+local://{base}//enc"


def test_storage_primitives(tmp_path):
    base = str(tmp_path)
    uri = f"subtree+local://{base}//d1/d2"
    storage.makedirs(uri)
    assert os.path.isdir(tmp_path / "d1" / "d2")
    f = f"{uri}/a.bin"
    storage.write_file_atomic(f, b"hello world")
    assert storage.exists(f)
    assert storage.read_file(f) == b"hello world"
    assert storage.read_file_range(f, 6, 5) == b"world"
    assert storage.listdir(uri) == ["a.bin"]
    # tmp files never linger after an atomic write
    assert sorted(os.listdir(tmp_path / "d1" / "d2")) == ["a.bin"]
    storage.remove(f)
    assert not storage.exists(f)
    assert storage.listdir(f"{uri}/missing") == []
    # local fast path unchanged
    storage.write_file_atomic(str(tmp_path / "x.bin"), b"x")
    assert storage.read_file(str(tmp_path / "x.bin")) == b"x"


def test_join_preserves_uri():
    assert storage.join("/a/b", "c") == "/a/b/c"
    u = storage.join("subtree+local:///base//enc", "blobs", "p.strp")
    assert u == "subtree+local:///base//enc/blobs/p.strp"
    assert storage.join("s3://bucket/enc", "manifest") == \
        "s3://bucket/enc/manifest"


def test_encode_decode_resume_through_fs_backend(ray_session, tmp_path):
    """The whole native pipeline over the pyarrow.fs backend: encode
    commits blobs+manifests through the URI, decode reads them back
    identically, resume skips committed partitions, and the on-disk layout
    matches what the local path would produce."""
    shards = write_synthetic_shards(str(tmp_path / "in"), num_rows=2000,
                                    num_shards=2, seed=11,
                                    rows_per_row_group=256)
    out = _uri(str(tmp_path))
    cfg = EncoderConfig(stripe_target_tokens=100_000)
    s1 = encode_job(shards, out, cfg)
    assert s1["num_rows"] == 2000 and s1["skipped"] == 0
    # physical layout exists under the subtree base
    assert os.path.isdir(tmp_path / "enc" / "blobs")
    mans = os.listdir(tmp_path / "enc" / "manifest")
    assert any(m.endswith(".parquet") for m in mans)
    # decode through the URI == decode of the same dir through local path
    t_fs = decode_table(out).sort_by("doc_id")
    t_local = decode_table(str(tmp_path / "enc")).sort_by("doc_id")
    assert t_fs.equals(t_local)
    src = pa.concat_tables([pq.read_table(p) for p in shards])
    assert t_fs.num_rows == src.num_rows
    assert t_fs.column("tokens").combine_chunks().equals(
        src.sort_by("doc_id").column("tokens").combine_chunks())
    # resume: a second run skips every partition
    s2 = encode_job(shards, out, cfg)
    assert s2["skipped"] == s2["planned_partitions"]
    # summary/stats surfaces work over the URI too
    summ = mf.manifest_summary(out, codec_histogram=False)
    assert summ["num_rows"] == 2000


def test_point_lookup_through_fs_backend(ray_session, tmp_path):
    """The range-read path (bloom stream fetch) works through pyarrow.fs."""
    from orc_ray.pipelines.decode import point_lookup

    shards = write_synthetic_shards(str(tmp_path / "in"), num_rows=1000,
                                    num_shards=1, seed=3,
                                    rows_per_row_group=256)
    out = _uri(str(tmp_path))
    encode_job(shards, out, EncoderConfig(stripe_target_tokens=50_000))
    src = pq.read_table(shards[0])
    want = src.column("doc_id")[5].as_py()
    got = pa.concat_tables(point_lookup(out, "doc_id", [want]).iter_batches(
        batch_format="pyarrow", batch_size=None))
    assert got.num_rows == 1
    assert got.column("doc_id")[0].as_py() == want


def test_read_rows_through_fs_backend(ray_session, tmp_path):
    """Row-range reads fetch their byte ranges through the backend: the
    distributed read_rows and the CLI's decode --rows both return the
    same rows over the URI as a full decode does."""
    from orc_ray.__main__ import main
    from orc_ray.pipelines.decode import read_rows

    shards = write_synthetic_shards(str(tmp_path / "in"), num_rows=1200,
                                    num_shards=1, seed=7,
                                    rows_per_row_group=256)
    out = _uri(str(tmp_path))
    encode_job(shards, out, EncoderConfig(stripe_target_tokens=20_000))
    assert len(mf.read_manifest(out)) > 1  # the range spans stripes
    full = decode_table(out)
    exp = full.slice(100, 700).sort_by("doc_id")
    got = pa.concat_tables(read_rows(out, 100, 700)
                           .iter_batches(batch_format="pyarrow",
                                         batch_size=None))
    assert got.sort_by("doc_id").equals(exp)
    pq_path = str(tmp_path / "rows.parquet")
    assert main(["decode", "--dir", out, "--out", pq_path,
                 "--rows", "100:700"]) == 0
    assert pq.read_table(pq_path).sort_by("doc_id").equals(exp)


def test_export_orc_through_fs_backend(ray_session, tmp_path):
    """ORC part files land through the backend as well."""
    import pyarrow.orc as paorc
    import ray.data

    from orc_ray.pipelines.export_orc import export_orc_dataset

    shards = write_synthetic_shards(str(tmp_path / "in"), num_rows=500,
                                    num_shards=1, seed=5,
                                    rows_per_row_group=256)
    out = f"subtree+local://{tmp_path}//lake"
    man = export_orc_dataset(ray.data.read_parquet(shards), out,
                             batch_rows=200)
    n = sum(sum(b.column("num_rows").to_pylist())
            for b in man.iter_batches(batch_format="pyarrow",
                                      batch_size=None))
    assert n == 500
    parts = sorted(os.listdir(tmp_path / "lake"))
    assert parts and all(p.endswith(".orc") for p in parts)
    got = pa.concat_tables([paorc.ORCFile(str(tmp_path / "lake" / p)).read()
                            for p in parts])
    assert got.num_rows == 500
