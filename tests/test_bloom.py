"""BLOOM_FILTER streams: codec-level fpp, stripe wiring, and point-lookup
pruning (the orc.proto stream kind the reference never implements)."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from orc_ray.codecs import bloom
from orc_ray.config import EncoderConfig
from orc_ray.pipelines.decode import point_lookup_local
from orc_ray.pipelines.encode import encode_dataset_streaming
from orc_ray.sources.tokens import synthesize_tokens
from orc_ray.state import manifest as mf


def test_bloom_strings_no_false_negatives_and_low_fpp():
    rng = np.random.default_rng(11)
    present = [f"doc-{i:08d}" for i in range(1000)]
    absent = [f"other-{i:08d}" for i in range(10000)]
    filt = bloom.build(bloom.hash_strings(pa.array(present)))
    hits = bloom.might_contain(filt, bloom.hash_strings(pa.array(present)))
    assert hits.all(), "bloom filters never have false negatives"
    fp = bloom.might_contain(filt, bloom.hash_strings(pa.array(absent)))
    assert fp.mean() < 0.03, f"fpp too high: {fp.mean()}"
    # ints too
    ivals = rng.integers(0, 1 << 40, size=500)
    fi = bloom.build(bloom.hash_ints(ivals))
    assert bloom.might_contain(fi, bloom.hash_ints(ivals)).all()
    probe = bloom.might_contain(
        fi, bloom.hash_ints(rng.integers(1 << 41, 1 << 42, size=5000)))
    assert probe.mean() < 0.03


def test_bloom_empty_and_tiny():
    filt = bloom.build(bloom.hash_strings(pa.array([], type=pa.string())))
    assert not bloom.might_contain(
        filt, bloom.hash_strings(pa.array(["x"]))).any()
    one = bloom.build(bloom.hash_strings(pa.array(["only"])))
    assert bloom.might_contain(one, bloom.hash_strings(pa.array(["only"]))).all()


def test_point_lookup_prunes_stripes(ray_session, tmp_path):
    import ray.data

    t = synthesize_tokens(3000, seed=21)
    out = str(tmp_path / "enc_bloom")
    cfg = EncoderConfig(stripe_target_tokens=30_000,
                        bloom_columns=("doc_id", "n_tok"))
    encode_dataset_streaming(ray.data.from_arrow(t), out, cfg,
                             batch_rows=256).materialize()
    man = mf.read_manifest(out)
    n_stripes = man.num_rows
    assert n_stripes > 10

    want_ids = [t.column("doc_id")[i].as_py() for i in (5, 1500, 2999)]
    got, counts = point_lookup_local(out, "doc_id", want_ids,
                                     columns=["doc_id", "n_tok"])
    assert got is not None
    assert sorted(got.column("doc_id").to_pylist()) == sorted(want_ids)
    # doc_id strings interleave sources, so stats ranges overlap across
    # stripes — the bloom filter must do the ruling-out
    assert counts["bloom"] > 0
    assert counts["decoded"] <= len(want_ids) + 2
    assert counts["stats"] + counts["bloom"] + counts["decoded"] == n_stripes

    # expected match set from the raw table for an int lookup
    probe_ntok = int(t.column("n_tok")[77].as_py())
    exp = t.filter(pc.equal(t.column("n_tok"),
                            pa.scalar(probe_ntok, type=t.column("n_tok").type)))
    got2, counts2 = point_lookup_local(out, "n_tok", [probe_ntok],
                                       columns=["doc_id", "n_tok"])
    assert got2.num_rows == exp.num_rows
    assert counts2["stats"] + counts2["bloom"] > 0


def test_point_lookup_distributed_matches_local(ray_session, tmp_path):
    import ray.data

    from orc_ray.pipelines.decode import point_lookup

    t = synthesize_tokens(1200, seed=22)
    out = str(tmp_path / "enc_bloom_ray")
    cfg = EncoderConfig(stripe_target_tokens=30_000, bloom_columns=("doc_id",))
    encode_dataset_streaming(ray.data.from_arrow(t), out, cfg,
                             batch_rows=256).materialize()
    want = [t.column("doc_id")[i].as_py() for i in (0, 600, 1199)]
    ds = point_lookup(out, "doc_id", want, columns=["doc_id", "source"])
    rows = ds.take_all()
    assert sorted(r["doc_id"] for r in rows) == sorted(want)


def test_bloom_absent_without_config(tmp_path):
    from orc_ray.stripe import encode_table

    t = synthesize_tokens(300, seed=23)
    _, meta = encode_table(t, EncoderConfig())
    kinds = {s["kind"] for s in meta["streams"]}
    assert "BLOOM_FILTER" not in kinds
    _, meta2 = encode_table(t, EncoderConfig(bloom_columns=("doc_id",)))
    kinds2 = {(s["column"], s["kind"]) for s in meta2["streams"]}
    assert ("doc_id", "BLOOM_FILTER") in kinds2


def test_point_lookup_rejects_empty_values(tmp_path):
    """An empty ``values`` list is a caller error, raised by both lookup
    entry points in the calling process before any Ray work."""
    from orc_ray.pipelines.decode import point_lookup
    from orc_ray.pipelines.encode import _encode_stripes
    from orc_ray.selector import SelectorState

    out = str(tmp_path / "enc")
    cfg = EncoderConfig(bloom_columns=("doc_id",))
    mf.ensure_dirs(out)
    rows = _encode_stripes(synthesize_tokens(200, seed=24), 0, out, cfg,
                           SelectorState(cfg), {})
    mf.commit_partition(out, 0, rows)
    for lookup in (point_lookup, point_lookup_local):
        with pytest.raises(ValueError, match="values"):
            lookup(out, "doc_id", [])


def test_point_lookup_empty_string(ray_session, tmp_path):
    """A bloom filter holds "" as 0 when its stripe's column has no byte at
    all and as the seed hash otherwise; a lookup for "" finds both kinds of
    stripe, alone or next to a value that is absent."""
    from orc_ray.pipelines.decode import point_lookup
    from orc_ray.pipelines.encode import _encode_stripes
    from orc_ray.selector import SelectorState

    mixed = synthesize_tokens(200, seed=25)
    src = mixed.column("source").to_pylist()
    src[7] = ""
    mixed = mixed.set_column(3, "source", pa.array(src, pa.string()))
    empty = synthesize_tokens(30, seed=26)
    empty = empty.set_column(3, "source", pa.array([""] * 30, pa.string()))
    out = str(tmp_path / "enc")
    cfg = EncoderConfig(bloom_columns=("source",))
    mf.ensure_dirs(out)
    for pid, t in enumerate((mixed, empty)):
        mf.commit_partition(out, pid, _encode_stripes(
            t, pid, out, cfg, SelectorState(cfg), {}))
    assert mf.read_manifest(out).num_rows == 2
    want = sorted([mixed.column("doc_id")[7].as_py()]
                  + empty.column("doc_id").to_pylist())
    for values in ([""], ["", "zzz-none"]):
        got, counts = point_lookup_local(out, "source", values,
                                         columns=["doc_id"])
        assert sorted(got.column("doc_id").to_pylist()) == want, values
        assert counts == {"stats": 0, "bloom": 0, "decoded": 2}, values
        rows = point_lookup(out, "source", values,
                            columns=["doc_id"]).take_all()
        assert sorted(r["doc_id"] for r in rows) == want, values
