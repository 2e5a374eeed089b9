"""Compaction: small stripes merge to target size, content is preserved
bit-for-bit, and the job resumes like encode."""

import os

import pyarrow as pa
import pytest

from orc_ray.config import EncoderConfig
from orc_ray.pipelines.compact import compact_job, plan_compaction
from orc_ray.pipelines.encode import encode_dataset_streaming
from orc_ray.pipelines.verify import checksum_encoded, checksum_table
from orc_ray.sources.tokens import synthesize_tokens
from orc_ray.state import manifest as mf


@pytest.fixture()
def small_stripe_dir(ray_session, tmp_path):
    import ray.data

    t = synthesize_tokens(2000, seed=41)
    src = str(tmp_path / "src")
    cfg = EncoderConfig(stripe_target_tokens=20_000,
                        user_metadata={"origin": "test"})
    encode_dataset_streaming(ray.data.from_arrow(t), src, cfg,
                             batch_rows=128).materialize()
    return t, src


def test_compact_merges_and_preserves_content(small_stripe_dir, tmp_path):
    t, src = small_stripe_dir
    dst = str(tmp_path / "dst")
    res = compact_job(src, dst, EncoderConfig(stripe_target_tokens=400_000))
    assert res["stripes_after"] < res["stripes_before"] / 4
    assert res["stripes_after"] == mf.read_manifest(dst).num_rows
    # bit-identical content through the multiset checksum
    assert checksum_encoded(dst) == checksum_table(t)
    # larger stripes compress no worse
    assert res["bytes_after"] <= res["bytes_before"] * 1.02
    # user metadata carried over
    assert mf.read_user_metadata(dst) == {"origin": "test"}


def test_compact_resume_skips_committed(small_stripe_dir, tmp_path):
    t, src = small_stripe_dir
    dst = str(tmp_path / "dst2")
    cfg = EncoderConfig(stripe_target_tokens=100_000)
    res1 = compact_job(src, dst, cfg)
    assert res1["partitions"] > 1
    # delete ONE partition manifest; re-run must restore only that one and
    # leave the rest untouched (mtime unchanged)
    victim = mf.manifest_path(dst, 0)
    keep = mf.manifest_path(dst, 1)
    mtime_keep = os.path.getmtime(keep)
    os.remove(victim)
    res2 = compact_job(src, dst, cfg)
    assert os.path.exists(victim)
    assert os.path.getmtime(keep) == mtime_keep
    assert res2["stripes_after"] == res1["stripes_after"]
    assert checksum_encoded(dst) == checksum_table(t)


def test_plan_compaction_bins_by_tokens():
    man = pa.table({
        "partition_id": pa.array([0, 0, 1, 1, 2], type=pa.int64()),
        "stripe_id": pa.array([0, 1, 0, 1, 0], type=pa.int64()),
        "num_tokens": pa.array([50, 60, 40, 30, 100], type=pa.int64()),
        "raw_bytes": pa.array([1, 1, 1, 1, 1], type=pa.int64()),
        "blob_path": pa.array(["a", "b", "c", "d", "e"]),
        "meta_json": pa.array(["{}"] * 5),
        "encoded_bytes": pa.array([1] * 5, type=pa.int64()),
    })
    bins = plan_compaction(man, target_tokens=100)
    sizes = [sum(s["num_tokens"] for s in b["stripes"]) for b in bins]
    assert sum(len(b["stripes"]) for b in bins) == 5
    # greedy: [50,60]->110? no: 50 then 60 overflows -> [50],[60,40],[30,...]
    assert all(s <= 130 for s in sizes)
    assert [b["pid"] for b in bins] == list(range(len(bins)))
