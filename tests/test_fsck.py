"""Blob integrity: crc32 recorded at encode (meta-carried, no manifest
schema change), opt-in decode-time validation, and the distributed fsck
scan (existence + size + crc, bytes-only). Apache ORC has no checksums at
all, so this whole surface exceeds the reference (writer.go has no
checksum path)."""

import glob
import json
import os

import pytest

from orc_ray.config import EncoderConfig
from orc_ray.pipelines.decode import decode_dataset
from orc_ray.pipelines.encode import encode_job
from orc_ray.pipelines.verify import fsck_encoded
from orc_ray.sources.tokens import write_synthetic_shards
from orc_ray.state import manifest as mf
from orc_ray.stripe import BlobIntegrityError, decode_blob, encode_table


@pytest.fixture(scope="module")
def encoded_dir(tmp_path_factory, ray_session):
    d = tmp_path_factory.mktemp("fsck")
    paths = write_synthetic_shards(str(d / "in"), num_rows=1200,
                                   num_shards=2, seed=11)
    out = str(d / "enc")
    encode_job(paths, out, EncoderConfig(stripe_target_tokens=60_000))
    return out


def _blob_paths(out_dir):
    return sorted(glob.glob(os.path.join(mf.blobs_dir(out_dir), "*")))


def test_encode_records_crc32(encoded_dir):
    man = mf.read_manifest(encoded_dir)
    metas = [json.loads(m) for m in man.column("meta_json").to_pylist()]
    assert metas and all("crc32" in m for m in metas)
    # and it is the crc of the actual blob bytes
    import zlib

    row = man.to_pylist()[0]
    blob = open(os.path.join(mf.blobs_dir(encoded_dir),
                             row["blob_path"]), "rb").read()
    assert zlib.crc32(blob) == json.loads(row["meta_json"])["crc32"]


def test_decode_blob_validate_catches_flip():
    import pyarrow as pa

    t = pa.table({"doc_id": ["a", "b"], "n_tok": [3, 4]})
    blob, meta = encode_table(t, EncoderConfig())
    assert decode_blob(blob, meta, validate=True).equals(t)
    bad = bytearray(blob)
    bad[len(bad) // 2] ^= 0x40
    with pytest.raises(BlobIntegrityError):
        decode_blob(bytes(bad), meta, validate=True)
    # legacy meta without a crc: validate=True must not fail
    meta_legacy = {k: v for k, v in meta.items() if k != "crc32"}
    assert decode_blob(blob, meta_legacy, validate=True).equals(t)


def test_checksum_disabled_by_config():
    import pyarrow as pa

    t = pa.table({"n_tok": [1, 2, 3]})
    _, meta = encode_table(t, EncoderConfig(blob_checksum=False))
    assert "crc32" not in meta


def test_fsck_clean_dir(ray_session, encoded_dir):
    rep = fsck_encoded(encoded_dir)
    assert rep["blobs"] > 0
    assert rep["ok"] == rep["blobs"]
    assert rep["bad"] == 0 and rep["no_crc"] == 0 and rep["bad_rows"] == []


def test_fsck_and_validate_catch_corruption(ray_session, encoded_dir,
                                            tmp_path):
    import shutil

    out = str(tmp_path / "enc_bad")
    shutil.copytree(encoded_dir, out)
    blobs = _blob_paths(out)
    # bit-flip one blob, truncate another, delete a third
    flip = blobs[0]
    data = bytearray(open(flip, "rb").read())
    data[len(data) // 3] ^= 0x01
    open(flip, "wb").write(bytes(data))
    trunc = blobs[1]
    open(trunc, "wb").write(open(trunc, "rb").read()[:-7])
    # re-truncate reads the already-truncated bytes; read original first
    missing = blobs[2]
    os.remove(missing)

    rep = fsck_encoded(out)
    assert rep["bad"] == 3
    statuses = {r["blob_path"]: r["status"] for r in rep["bad_rows"]}
    assert statuses[os.path.basename(flip)] == "crc_mismatch"
    assert statuses[os.path.basename(trunc)] == "size_mismatch"
    assert statuses[os.path.basename(missing)] == "missing"
    assert rep["ok"] == rep["blobs"] - 3

    # decode-time validation names the flipped blob
    import ray

    with pytest.raises(ray.exceptions.RayTaskError) as ei:
        decode_dataset(out, validate=True).materialize()
    assert "BlobIntegrityError" in str(ei.value) or isinstance(
        ei.value.cause, BlobIntegrityError)


def test_fsck_truncation_uses_original_bytes(tmp_path, ray_session):
    """Truncating below the manifest size is size_mismatch, not crc —
    pinned separately so the two failure modes stay distinguishable."""
    paths = write_synthetic_shards(str(tmp_path / "in"), num_rows=300,
                                   num_shards=1, seed=3)
    out = str(tmp_path / "enc")
    encode_job(paths, out, EncoderConfig(stripe_target_tokens=1_000_000))
    blob = _blob_paths(out)[0]
    raw = open(blob, "rb").read()
    open(blob, "wb").write(raw[:-1])
    rep = fsck_encoded(out)
    assert rep["bad"] == 1 and rep["bad_rows"][0]["status"] == "size_mismatch"


def test_fsck_legacy_manifest_counts_no_crc(tmp_path, ray_session):
    paths = write_synthetic_shards(str(tmp_path / "in"), num_rows=300,
                                   num_shards=1, seed=5)
    out = str(tmp_path / "enc")
    encode_job(paths, out, EncoderConfig(stripe_target_tokens=1_000_000,
                                         blob_checksum=False))
    rep = fsck_encoded(out)
    assert rep["blobs"] > 0
    assert rep["no_crc"] == rep["blobs"] and rep["bad"] == 0


def test_compaction_refuses_corrupt_source(tmp_path, ray_session):
    """Compaction validates the blobs it rewrites — bit-rot must fail the
    task, not get re-encoded under a fresh checksum."""
    import ray

    from orc_ray.pipelines.compact import compact_job

    paths = write_synthetic_shards(str(tmp_path / "in"), num_rows=600,
                                   num_shards=1, seed=9)
    src = str(tmp_path / "enc")
    encode_job(paths, src, EncoderConfig(stripe_target_tokens=20_000))
    blob = _blob_paths(src)[0]
    data = bytearray(open(blob, "rb").read())
    data[len(data) // 2] ^= 0x02
    open(blob, "wb").write(bytes(data))
    with pytest.raises(ray.exceptions.RayTaskError):
        compact_job(src, str(tmp_path / "compacted"),
                    EncoderConfig(stripe_target_tokens=1_000_000))
