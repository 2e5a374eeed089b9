"""End-to-end Ray Data pipeline tests: plan -> encode -> manifest ->
decode -> verify (token-array equality), resume semantics (FIXTURES.md F5),
streaming encode path, and the size-aware planner under skew."""

import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from orc_ray.config import EncoderConfig
from orc_ray.pipelines.decode import decode_dataset, decode_table
from orc_ray.pipelines.encode import encode_dataset_streaming, encode_job, split_stripes
from orc_ray.pipelines.verify import checksum_dataset, checksum_table, verify_roundtrip
from orc_ray.sources.planner import plan_partitions, read_partition
from orc_ray.sources.tokens import synthesize_tokens, write_synthetic_shards
from orc_ray.state import manifest as mf


@pytest.fixture(scope="module")
def token_shards(tmp_path_factory):
    d = tmp_path_factory.mktemp("tokens")
    paths = write_synthetic_shards(str(d), num_rows=4000, num_shards=4,
                                   seed=7, rows_per_row_group=256)
    return paths


def test_planner_respects_target(token_shards):
    specs = plan_partitions(token_shards, target_tokens=200_000)
    assert len(specs) > 1
    total_rows = sum(s.row_count for s in specs)
    assert total_rows == 4000
    # contiguity & determinism
    specs2 = plan_partitions(token_shards, target_tokens=200_000)
    assert [s.to_dict() for s in specs] == [s.to_dict() for s in specs2]
    # no partition (except single-row ones) wildly exceeds target
    for s in specs:
        assert s.est_tokens <= 2 * 200_000 or s.row_count == 1


def test_planner_skew_giant_doc(tmp_path):
    # one doc bigger than the whole target must land in its own partition
    t = synthesize_tokens(50, seed=1)
    giant = synthesize_tokens(1, seed=2, mean_log=11.5, sigma_log=0.01)  # ~1e5 tokens
    table = pa.concat_tables([t, giant, t]).combine_chunks()
    p = str(tmp_path / "skew.parquet")
    pq.write_table(table, p, row_group_size=16)
    specs = plan_partitions([p], target_tokens=30_000)
    big = [s for s in specs if s.row_count == 1 and s.est_tokens > 30_000]
    assert big, "giant doc should be isolated"
    got = pa.concat_tables([read_partition(s.to_dict()) for s in specs])
    assert got.num_rows == table.num_rows
    assert checksum_table(got) == checksum_table(table)


def test_split_stripes_budget():
    t = synthesize_tokens(500, seed=3)
    cfg = EncoderConfig(stripe_target_tokens=20_000)
    stripes = split_stripes(t, cfg)
    assert sum(s.num_rows for s in stripes) == 500
    n_tok = t.column("n_tok").to_numpy()
    for s in stripes:
        tok = int(np.sum(s.column("n_tok").to_numpy()))
        assert tok <= 20_000 or s.num_rows == 1
    assert len(stripes) >= int(n_tok.sum()) // 20_000


def test_size_priority_mode(ray_session, token_shards, tmp_path):
    """VERDICT r4 ask #6: EncoderConfig.size_priority() (pure measured-
    size selection + flate-6 outer) must produce no more bytes than the
    speed-balanced default on the same input, and decode back
    bit-identically."""
    out_bal = str(tmp_path / "bal")
    out_sz = str(tmp_path / "sz")
    bal = encode_job(token_shards, out_bal,
                     EncoderConfig(stripe_target_tokens=100_000))
    sz = encode_job(token_shards, out_sz,
                    EncoderConfig.size_priority(stripe_target_tokens=100_000))
    assert sz["encoded_bytes"] <= bal["encoded_bytes"]
    a = decode_table(out_sz).sort_by("doc_id")
    b = decode_table(out_bal).sort_by("doc_id")
    assert a.equals(b)


def test_encode_decode_verify_e2e(ray_session, token_shards, tmp_path):
    import ray.data

    out = str(tmp_path / "enc")
    cfg = EncoderConfig(stripe_target_tokens=100_000)
    summary = encode_job(token_shards, out, cfg)
    assert summary["num_rows"] == 4000
    assert summary["encoded_bytes"] < summary["raw_bytes"]
    assert summary["bytes_per_token"] < 2.5  # int32 tokens: must beat 4 B/token

    original = ray.data.read_parquet(token_shards)
    decoded = decode_dataset(out)
    res = verify_roundtrip(original, decoded)
    assert res["match"], res

    # exact per-row equality after sort (small scale)
    dt = decode_table(out).sort_by("doc_id")
    ot = pq.read_table(token_shards[0])
    for p in token_shards[1:]:
        ot = pa.concat_tables([ot, pq.read_table(p)])
    ot = ot.sort_by("doc_id")
    assert dt.column("tokens").to_pylist() == ot.column("tokens").to_pylist()
    assert dt.column("doc_id").to_pylist() == ot.column("doc_id").to_pylist()


def test_column_projection_pipeline(ray_session, token_shards, tmp_path):
    out = str(tmp_path / "enc")
    encode_job(token_shards, out, EncoderConfig(stripe_target_tokens=100_000))
    t = decode_table(out, columns=["source", "n_tok"])
    assert t.column_names == ["source", "n_tok"]
    assert t.num_rows == 4000


def test_resume_skips_completed(ray_session, token_shards, tmp_path):
    out = str(tmp_path / "enc")
    cfg = EncoderConfig(stripe_target_tokens=100_000)
    s1 = encode_job(token_shards, out, cfg)
    assert s1["skipped"] == 0

    # simulate partial failure: drop 3 partitions' manifests + blobs
    done = sorted(mf.completed_tags(out))
    victims = done[:3]
    mdir = mf.manifest_dir(out)
    for pid in victims:
        for n in os.listdir(mdir):  # manifest names carry a lineage tag
            if n.startswith(f"part-{pid:06d}") and n.endswith(".parquet"):
                os.remove(os.path.join(mdir, n))
        for f in os.listdir(mf.blobs_dir(out)):
            if f.startswith(f"part-{pid:06d}-"):
                os.remove(os.path.join(mf.blobs_dir(out), f))
    before = {
        f: os.path.getmtime(os.path.join(mf.blobs_dir(out), f))
        for f in os.listdir(mf.blobs_dir(out))
    }
    s2 = encode_job(token_shards, out, cfg)
    assert s2["skipped"] == s1["planned_partitions"] - 3
    # untouched partitions were not re-encoded
    after = {
        f: os.path.getmtime(os.path.join(mf.blobs_dir(out), f))
        for f in os.listdir(mf.blobs_dir(out))
    }
    for f, mt in before.items():
        assert after[f] == mt
    # and the result is complete + correct
    assert checksum_table(decode_table(out))["count"] == 4000


def test_streaming_encode_path(ray_session, token_shards, tmp_path):
    import ray.data

    out = str(tmp_path / "enc_stream")
    ds = ray.data.read_parquet(token_shards)
    man = encode_dataset_streaming(
        ds, out, EncoderConfig(stripe_target_tokens=150_000), batch_rows=512,
    )
    man.materialize()
    original = ray.data.read_parquet(token_shards)
    decoded = decode_dataset(out)
    assert verify_roundtrip(original, decoded)["match"]


def test_manifest_summary_reports_codecs(ray_session, token_shards, tmp_path):
    out = str(tmp_path / "enc")
    encode_job(token_shards, out, EncoderConfig(stripe_target_tokens=100_000))
    summary = mf.manifest_summary(out)
    hist = summary["stream_bytes_by_codec"]
    assert any(k.startswith("tokens:DATA:") for k in hist)
    assert any(k.startswith("source:DATA:") for k in hist)


def test_predicate_pushdown_prunes_stripes(ray_session, tmp_path):
    """decode_dataset_filtered skips stripes whose stats exclude the
    predicate (n_tok sorted -> disjoint stripe ranges -> real pruning)."""
    import json

    import ray.data

    from orc_ray.pipelines.decode import (
        _stripe_stat_range,
        decode_dataset_filtered,
    )

    n = 20_000
    lens = np.sort(np.random.default_rng(5).integers(1, 200, n)).astype(np.int32)
    off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lens, out=off[1:])
    vals = np.random.default_rng(6).integers(0, 50257, int(off[-1])).astype(np.int32)
    t = pa.table({
        "doc_id": pa.array(np.arange(n), type=pa.int64()),
        "tokens": pa.ListArray.from_arrays(
            pa.array(off.astype(np.int32), type=pa.int32()),
            pa.array(vals, type=pa.int32())),
        "n_tok": pa.array(lens, type=pa.int32()),
        "source": pa.array(["s"] * n),
    })
    out = str(tmp_path / "enc")
    cfg = EncoderConfig(stripe_target_tokens=100_000)
    encode_dataset_streaming(ray.data.from_arrow(t), out, cfg,
                             batch_rows=5_000).materialize()
    man = mf.read_manifest(out)
    lo, hi = 150, 180
    kept = sum(
        1 for mj in man.column("meta_json").to_pylist()
        if (r := _stripe_stat_range(json.loads(mj), "n_tok")) is None
        or (r[1] >= lo and r[0] <= hi)
    )
    assert kept < man.num_rows, "sorted input must allow stripe pruning"
    ds = decode_dataset_filtered(out, "n_tok", lo, hi,
                                 columns=["doc_id", "n_tok"])
    got = pa.concat_tables(
        list(ds.iter_batches(batch_format="pyarrow", batch_size=None)))
    exp_mask = (lens >= lo) & (lens <= hi)
    assert got.num_rows == int(exp_mask.sum())
    assert sorted(got.column("doc_id").to_pylist()) == \
        list(np.flatnonzero(exp_mask))


def test_user_metadata_roundtrip(ray_session, token_shards, tmp_path):
    """AddUserMetadata analogue: key/value pairs set on the config must
    survive to manifest_summary (and the file commits before encoding)."""
    out = str(tmp_path / "enc_meta")
    cfg = EncoderConfig(stripe_target_tokens=100_000,
                        user_metadata={"pipeline": "unit-test", "v": "3"})
    encode_job(token_shards, out, cfg)
    assert mf.read_user_metadata(out) == {"pipeline": "unit-test", "v": "3"}
    summary = mf.manifest_summary(out, codec_histogram=False)
    assert summary["user_metadata"] == {"pipeline": "unit-test", "v": "3"}


def test_file_level_column_stats_merge(tmp_path):
    """A6: file-level column-statistics merge across stripes, including the
    bool bucket/true_count merge the reference stubs out
    (columnstatistics.go:224-241). Additive fields add, min/max fold,
    null_count feeds has_null."""
    import json as _json

    from orc_ray.stripe import encode_table

    out = str(tmp_path / "enc_stats")
    mf.ensure_dirs(out)
    rng = np.random.default_rng(7)
    rows = []
    exp_true = exp_vals = 0
    exp_min, exp_max, exp_sum = None, None, 0
    for stripe in range(3):
        n = 400
        flags = rng.integers(0, 2, n).astype(bool)
        ints = rng.integers(-1000, 1000, n)
        fmask = rng.random(n) < 0.1
        floats = pa.array(
            np.where(fmask, np.nan, rng.random(n)), type=pa.float64(),
            mask=fmask)
        t = pa.table({
            "flag": pa.array(flags),
            "score": pa.array(ints, type=pa.int64()),
            "ratio": floats,
        })
        blob, meta = encode_table(t)
        rel = mf.write_blob_atomic(out, 0, stripe, blob)
        rows.append({
            "partition_id": 0, "stripe_id": stripe, "blob_path": rel,
            "num_rows": n, "num_tokens": 0, "raw_bytes": t.nbytes,
            "encoded_bytes": len(blob), "input_file": "synth",
            "row_start": stripe * n, "row_count": n,
            "first_doc_id": "", "last_doc_id": "",
            "meta_json": _json.dumps(meta, separators=(",", ":")),
        })
        exp_true += int(flags.sum())
        exp_vals += n
        exp_min = int(ints.min()) if exp_min is None else min(exp_min, int(ints.min()))
        exp_max = int(ints.max()) if exp_max is None else max(exp_max, int(ints.max()))
        exp_sum += int(ints.sum())
    mf.commit_partition(out, 0, rows)

    stats = mf.column_stats(out)
    assert stats["flag"]["true_count"] == exp_true
    assert stats["flag"]["num_values"] == exp_vals
    assert not stats["flag"]["has_null"]
    assert stats["score"]["min"] == exp_min
    assert stats["score"]["max"] == exp_max
    assert stats["score"]["sum"] == exp_sum
    assert stats["ratio"]["has_null"]
    assert stats["ratio"]["num_values"] < exp_vals


def test_resume_append_new_shard(ray_session, tmp_path):
    """Appending input files that sort AFTER the existing ones resumes
    cleanly: old partitions skip (lineage-validated), only new encode."""
    d = tmp_path / "in"
    write_synthetic_shards(str(d), num_rows=1000, num_shards=2, seed=61)
    paths = sorted(str(p) for p in d.glob("*.parquet"))
    out = str(tmp_path / "enc")
    cfg = EncoderConfig(stripe_target_tokens=100_000)
    s1 = encode_job(paths, out, cfg)

    extra = synthesize_tokens(300, seed=62)
    new_path = str(d / "zz-appended.parquet")
    pq.write_table(extra, new_path)
    s2 = encode_job(paths + [new_path], out, cfg)
    assert s2["skipped"] == s1["planned_partitions"]
    assert s2["planned_partitions"] > s1["planned_partitions"]
    got = decode_table(out)
    assert got.num_rows == 1000 + 300


def test_resume_detects_plan_change(ray_session, tmp_path):
    """An input file that sorts BEFORE the committed ones shifts every
    pid; resume must refuse instead of silently skipping wrong data."""
    d = tmp_path / "in"
    write_synthetic_shards(str(d), num_rows=1000, num_shards=2, seed=63)
    paths = sorted(str(p) for p in d.glob("*.parquet"))
    out = str(tmp_path / "enc")
    cfg = EncoderConfig(stripe_target_tokens=100_000)
    encode_job(paths, out, cfg)

    first = synthesize_tokens(200, seed=64)
    new_path = str(d / "aa-prepended.parquet")
    pq.write_table(first, new_path)
    with pytest.raises(ValueError, match="no longer match"):
        encode_job([new_path] + paths, out, cfg)
    # resume=False rebuilds the changed plan from scratch
    s = encode_job([new_path] + paths, out, cfg, resume=False)
    assert s["skipped"] == 0
    assert decode_table(out).num_rows == 1200


def test_resume_rejects_untagged_manifest(ray_session, tmp_path):
    """An untagged manifest (what the streaming encoder and compaction
    commit) never records a plan's lineage: resume over it must refuse as
    a stale plan, not skip the partition."""
    from orc_ray.pipelines.encode import _encode_stripes
    from orc_ray.selector import SelectorState

    d = tmp_path / "in"
    write_synthetic_shards(str(d), num_rows=500, num_shards=1, seed=65)
    paths = sorted(str(p) for p in d.glob("*.parquet"))
    out = str(tmp_path / "enc")
    cfg = EncoderConfig(stripe_target_tokens=100_000)
    mf.ensure_dirs(out)
    rows = _encode_stripes(pq.read_table(paths[0]), 0, out, cfg,
                           SelectorState(cfg), {})
    mf.commit_partition(out, 0, rows)
    assert os.listdir(mf.manifest_dir(out)) == ["part-000000.parquet"]
    with pytest.raises(ValueError, match="no longer match"):
        encode_job(paths, out, cfg, resume=True)
    assert os.listdir(mf.manifest_dir(out)) == ["part-000000.parquet"]


def _one_source_table(tokens: np.ndarray, name: str) -> pa.Table:
    """100-token rows, every row from source 'web'."""
    n = len(tokens) // 100
    return pa.table({
        "doc_id": pa.array([f"{name}-{i:06d}" for i in range(n)]),
        "tokens": pa.ListArray.from_arrays(
            pa.array(np.arange(n + 1, dtype=np.int32) * 100),
            pa.array(tokens[: n * 100].astype(np.int32))),
        "n_tok": pa.array(np.full(n, 100, dtype=np.int32)),
        "source": pa.array(["web"] * n),
    })


def test_selector_state_does_not_leak_across_jobs(tmp_path):
    """Two encode jobs in one worker process: the second job's codec
    choices must not start from the first job's cached ones. Job A's
    sorted tokens pick rle2_delta for tokens:DATA, job B's pick planar;
    B's blobs must equal an encode of B with a fresh SelectorState."""
    import hashlib

    from orc_ray.pipelines.encode import _encode_stripes, encode_partitions
    from orc_ray.selector import SelectorState

    rng = np.random.default_rng(0)
    a = _one_source_table(np.sort(rng.integers(0, 50_000, 20_000)), "a")
    b = _one_source_table(synthesize_tokens(400, seed=5).column("tokens")
                          .combine_chunks().values.to_numpy()[:60_000], "b")
    cfg = EncoderConfig(stripe_target_tokens=20_000)

    def encode(t: pa.Table, name: str, job: str):
        path = str(tmp_path / f"{name}.parquet")
        pq.write_table(t, path)
        spec = plan_partitions([path], 10**9)[0].to_dict()
        out = str(tmp_path / f"enc-{name}")
        mf.ensure_dirs(out)
        man = encode_partitions(pa.Table.from_pylist([spec]), out, cfg, job)
        return spec, out, man

    def token_codecs(man: pa.Table) -> list[str]:
        return [s["codec"] for mj in man.column("meta_json").to_pylist()
                for s in json.loads(mj)["streams"]
                if (s["column"], s["kind"]) == ("tokens", "DATA")]

    def digests(out: str, man: pa.Table) -> list[str]:
        return [hashlib.sha256(open(os.path.join(mf.blobs_dir(out), p),
                                    "rb").read()).hexdigest()
                for p in man.column("blob_path").to_pylist()]

    _, _, man_a = encode(a, "a", "job-a")
    spec_b, out_b, man_b = encode(b, "b", "job-b")
    assert token_codecs(man_a) == ["rle2_delta"]
    out_f = str(tmp_path / "enc-fresh")
    mf.ensure_dirs(out_f)
    man_f = pa.Table.from_pylist(
        _encode_stripes(read_partition(spec_b), 0, out_f, cfg,
                        SelectorState(cfg), {}),
        schema=mf.MANIFEST_SCHEMA)
    assert token_codecs(man_f) == ["planar"] * 3
    assert token_codecs(man_b) == token_codecs(man_f)
    assert digests(out_b, man_b) == digests(out_f, man_f)


def test_decode_starts_ray_when_not_initialized(tmp_path):
    """decode_dataset and checksum_encoded work as the first Ray call in a
    process: choosing the decode feed must not need a running cluster."""
    import subprocess
    import sys

    from orc_ray.pipelines.encode import _encode_stripes
    from orc_ray.selector import SelectorState

    out = str(tmp_path / "enc")
    cfg = EncoderConfig(stripe_target_tokens=5_000)
    table = synthesize_tokens(300, seed=9)
    mf.ensure_dirs(out)
    mf.commit_partition(out, 0, _encode_stripes(table, 0, out, cfg,
                                                SelectorState(cfg), {}))
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = (
        "import sys, ray\n"
        "from orc_ray.pipelines.decode import decode_dataset\n"
        "from orc_ray.pipelines.verify import checksum_encoded\n"
        "assert not ray.is_initialized()\n"
        "n = decode_dataset(sys.argv[1]).count()\n"
        "print(n, checksum_encoded(sys.argv[1])['count'])\n"
        "ray.shutdown()\n"
    )
    env = dict(os.environ, RAY_ADDRESS="local", PYTHONPATH=os.pathsep.join(
        [root] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                  if p]))
    res = subprocess.run([sys.executable, "-c", code, out], cwd=root, env=env,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split()[-2:] == [str(table.num_rows)] * 2


def test_work_units_block_per_unit_up_to_cap(ray_session):
    """Each work unit gets its own block (one task) until the cap of 8
    blocks per cluster CPU; past it blocks carry several units."""
    from orc_ray.pipelines.encode import cluster_cpus, work_units

    cap = 8 * cluster_cpus()
    items = [{"i": i} for i in range(cap + 50)]
    assert work_units(items[:5]).num_blocks() == 5
    ds = work_units(items)
    assert ds.num_blocks() == cap
    assert sorted(r["i"] for r in ds.take_all()) == list(range(cap + 50))


def test_work_units_one_block_at_one_cpu(ray_session, monkeypatch):
    """A one-CPU cluster gets a single block, so one task, for all of a
    stage's units, and every unit is still in it."""
    from orc_ray.pipelines import encode

    monkeypatch.setattr(encode, "cluster_cpus", lambda: 1)
    for n in (1, 9, 500):
        ds = encode.work_units([{"i": i} for i in range(n)])
        assert ds.num_blocks() == 1
        assert sorted(r["i"] for r in ds.take_all()) == list(range(n))


def test_cluster_cpus_before_ray_starts():
    """Before Ray starts, cluster_cpus is the CPU count ray.init detects."""
    import subprocess
    import sys

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = (
        "import ray\n"
        "from orc_ray.pipelines.encode import cluster_cpus\n"
        "assert not ray.is_initialized()\n"
        "before = cluster_cpus()\n"
        "ray.init(address='local', include_dashboard=False)\n"
        "print(before, int(ray.cluster_resources()['CPU']), cluster_cpus())\n"
        "ray.shutdown()\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [root] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                  if p]))
    res = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    before, after, again = res.stdout.split()[-3:]
    assert before == after == again
