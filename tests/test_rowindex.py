"""Seek-point (ROW_INDEX analogue) tests: partial-stripe row-range decode
must be byte-sparse — a 10k-row read from a 1M-row stripe touches <5% of
the blob (reference positionrecorder.go:1-12, writer.go:337-384,
cursor.go:179-198)."""

import os

import numpy as np
import pyarrow as pa
import pytest

from orc_ray.config import EncoderConfig
from orc_ray.stripe import (RangeReader, decode_blob, decode_blob_rows,
                             encode_table)

BIG_RANGES = [(612345, 10000), (0, 10000), (995000, 5000), (7, 3),
              (999999, 1), (0, 1_000_000)]


@pytest.fixture(scope="module")
def big_stripe():
    rng = np.random.default_rng(7)
    n = 1_000_000
    lens = rng.integers(1, 40, n)
    total = int(lens.sum())
    vals = rng.integers(0, 50257, total).astype(np.int32)
    off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lens, out=off[1:])
    tokens = pa.ListArray.from_arrays(
        pa.array(off.astype(np.int32), type=pa.int32()),
        pa.array(vals, type=pa.int32()))
    t = pa.table({
        "doc_id": pa.array(np.arange(n), type=pa.int64()),
        "tokens": tokens,
        "n_tok": pa.array(lens.astype(np.int32), type=pa.int32()),
        "source": pa.array(
            np.array(["web", "book", "code", "wiki"])[rng.integers(0, 4, n)]),
        "title": pa.array([f"doc-{i:07d}" for i in range(n)]),
    })
    cfg = EncoderConfig(stripe_target_tokens=10**9)
    blob, meta = encode_table(t, cfg)
    return t, bytes(blob), meta


def _check_ranges(t, blob, meta, ranges):
    """Each (r0, cnt) row range decodes to exactly that slice of ``t``
    (types, values and nulls); (0, num_rows) is the whole stripe."""
    for r0, cnt in ranges:
        sub, _ = decode_blob_rows(blob, meta, r0, cnt)
        assert sub.num_rows == cnt
        for c in t.column_names:
            exp = t.column(c).slice(r0, cnt).combine_chunks()
            assert exp.equals(sub.column(c).combine_chunks()), (c, r0, cnt)


def test_range_decode_correct_at_boundaries(big_stripe):
    t, blob, meta = big_stripe
    _check_ranges(t, blob, meta, BIG_RANGES)


@pytest.fixture(scope="module")
def big_stripe_dir(big_stripe, tmp_path_factory):
    """big_stripe's blob as a file: (directory, file name)."""
    d = tmp_path_factory.mktemp("blob")
    (d / "stripe.strp").write_bytes(big_stripe[1])
    return str(d), "stripe.strp"


@pytest.mark.parametrize("uri", [False, True])
def test_path_source_matches_bytes(big_stripe, big_stripe_dir, uri):
    """A blob read through its path (a local file, or a pyarrow.fs URI)
    decodes every range as its bytes do, touching the same bytes; both
    backends hand the decoders ``bytes``."""
    _, blob, meta = big_stripe
    d, name = big_stripe_dir
    path = f"subtree+local://{d}//{name}" if uri else os.path.join(d, name)
    with RangeReader(path) as reader:
        got = reader.read(100, 37)
    assert type(got) is bytes and got == blob[100:137]
    for r0, cnt in BIG_RANGES:
        want, touched = decode_blob_rows(blob, meta, r0, cnt)
        got, got_touched = decode_blob_rows(path, meta, r0, cnt)
        assert got.equals(want) and got_touched == touched, (r0, cnt)


def test_path_read_opens_blob_once(big_stripe, big_stripe_dir, monkeypatch):
    """One decode_blob_rows call serves all its byte ranges from a single
    open of the blob file."""
    import builtins

    from orc_ray import stripe

    _, _, meta = big_stripe
    path = os.path.join(*big_stripe_dir)
    opened, ranges = [], []
    real_os_open, real_open = os.open, builtins.open
    real_read = stripe.RangeReader.read
    monkeypatch.setattr(os, "open", lambda p, *a, **k: opened.append(p)
                        or real_os_open(p, *a, **k))
    monkeypatch.setattr(builtins, "open", lambda p, *a, **k: opened.append(p)
                        or real_open(p, *a, **k))
    monkeypatch.setattr(stripe.RangeReader, "read", lambda self, o, n:
                        ranges.append(o) or real_read(self, o, n))
    decode_blob_rows(path, meta, 612345, 64)
    assert len(ranges) > 5 and opened == [path]


def test_path_reads_leave_no_descriptor_open(big_stripe, big_stripe_dir,
                                             tmp_path):
    """A thousand path reads, and reads of a truncated blob that fail,
    leave the process's open descriptors as they were."""
    t, blob, meta = big_stripe
    path = os.path.join(*big_stripe_dir)
    short = str(tmp_path / "short.strp")
    with open(short, "wb") as f:
        f.write(blob[: len(blob) // 2])
    before = sorted(os.listdir("/proc/self/fd"))
    for i in range(1000):
        r0 = (i * 7919) % t.num_rows
        sub, _ = decode_blob_rows(path, meta, r0, 3, columns=["n_tok", "source"])
        assert sub.num_rows == min(3, t.num_rows - r0)
    for _ in range(3):
        with pytest.raises(Exception):
            decode_blob_rows(short, meta, t.num_rows - 10, 5)
    assert sorted(os.listdir("/proc/self/fd")) == before


def test_planes_sharing_a_chunk_decompress_it_once(monkeypatch):
    """The planes of a planar stream lie in one outer chunk when the stream
    is short; a row-range read decompresses each covering chunk once."""
    from orc_ray.codecs import planar, zstdchunk
    from orc_ray.sources.tokens import synthesize_tokens
    from orc_ray.stripe import _stream_dir

    t = synthesize_tokens(4000, seed=1, mean_log=5.0)
    blob, meta = encode_table(t, EncoderConfig())
    rec = _stream_dir(meta)[("n_tok", "DATA")]
    n, _, k, hdr = rec["planar_header"]
    assert rec["codec"] == "planar" and rec["outer"] == "zstd" and k == 2
    lo, hi = 1000, 1032
    csize = rec["chunk_size"]
    chunks = {c for blo, bhi in planar.plane_ranges(lo, hi, n, k, hdr)
              for c in range(blo // csize, -(-bhi // csize))}
    calls = []
    real = zstdchunk._decompress_block
    monkeypatch.setattr(zstdchunk, "_decompress_block",
                        lambda p, raw_n: calls.append(raw_n) or real(p, raw_n))
    sub, _ = decode_blob_rows(blob, meta, lo, hi - lo, columns=["n_tok"])
    assert sub.column("n_tok").equals(t.column("n_tok").slice(lo, hi - lo))
    assert len(calls) == len(chunks) == 1


def test_string_payload_range_read_decompresses_small_chunks(monkeypatch):
    """A 1-64-row read of a zstd direct string column decompresses at most
    two payload chunks of at most 16 KiB each, not the whole payload."""
    from orc_ray.codecs import zstdchunk
    from orc_ray.sources.tokens import synthesize_tokens
    from orc_ray.stripe import _stream_dir

    t = synthesize_tokens(20_000, seed=2, mean_log=1.0).select(["doc_id"])
    # no outer kind: every zstd block decompressed is a payload chunk
    blob, meta = encode_table(t, EncoderConfig(outer_compression="none"))
    rec = _stream_dir(meta)[("doc_id", "DATA")]
    assert rec["codec"] == "zstd" and "byte_index" in rec
    assert rec["blob_raw_length"] > 64 * 1024
    calls = []
    real = zstdchunk._decompress_block
    monkeypatch.setattr(zstdchunk, "_decompress_block",
                        lambda p, raw_n: calls.append(raw_n) or real(p, raw_n))
    rng = np.random.default_rng(4)
    for _ in range(40):
        n = int(rng.integers(1, 65))
        lo = int(rng.integers(0, t.num_rows - n + 1))
        calls.clear()
        sub, _ = decode_blob_rows(blob, meta, lo, n)
        assert sub.column("doc_id").equals(t.column("doc_id").slice(lo, n))
        assert 1 <= len(calls) <= 2 and max(calls) <= 16 * 1024, (lo, calls)


@pytest.mark.parametrize("stride", [10_000, 0])
def test_string_payloads_in_256k_chunks_still_decode(monkeypatch, stride):
    """Stripes written with 256 KiB string payload chunks, as older
    writers wrote them: ``chunk_size`` 262144 where the payload has a
    byte_index, no ``chunk_size`` elsewhere (every dictionary payload, and
    every payload at stride 0). A direct and a nullable dictionary column
    decode whole and by row range to exactly the input."""
    from orc_ray import stripe
    from orc_ray.codecs import CHUNKED_KINDS, chunked

    rng = np.random.default_rng(9)
    n = 30_000
    vocab = np.array([f"word-{i:05d}-{'x' * (i % 13)}" for i in range(8000)])
    t = pa.table({
        "title": pa.array([f"title-{v:09d}" for v in rng.integers(0, 10**9, n)]),
        "word": pa.array(vocab[rng.integers(0, len(vocab), n)],
                         mask=rng.random(n) < 0.05),
    })
    cfg = EncoderConfig(string_blob_candidates=("zstd", "none"),
                        row_index_stride=stride)
    monkeypatch.setattr(stripe, "BLOB_CHUNK", chunked.DEFAULT_CHUNK)
    blob, meta = encode_table(t, cfg)
    monkeypatch.undo()
    payloads = [r for r in meta["streams"] if r["codec"] in CHUNKED_KINDS]
    assert {(r["column"], r["kind"]) for r in payloads} == {
        ("title", "DATA"), ("word", "DICT_DATA")}
    for rec in payloads:
        if "byte_index" not in rec:
            del rec["chunk_size"]
    title = stripe._stream_dir(meta)[("title", "DATA")]
    assert ("byte_index" in title) == bool(stride)
    if stride:
        # two 256 KiB chunks, read back through the recorded chunk size
        assert title["chunk_size"] == chunked.DEFAULT_CHUNK
        assert len(title["chunk_offsets"]) == 2
    assert decode_blob(blob, meta).equals(t)
    for r0, cnt in [(0, 1), (1000, 64), (16_380, 40), (17_470, 9),
                    (n - 33, 33), (5, n - 10)]:
        sub, _ = decode_blob_rows(blob, meta, r0, cnt)
        assert sub.equals(t.slice(r0, cnt)), (r0, cnt)


def test_range_decode_is_byte_sparse(big_stripe):
    t, blob, meta = big_stripe
    sub, touched = decode_blob_rows(blob, meta, 612345, 10000)
    assert sub.num_rows == 10000
    frac = touched / len(blob)
    assert frac < 0.05, f"10k of 1M rows touched {frac:.1%} of the blob"


def test_range_decode_column_projection(big_stripe):
    t, blob, meta = big_stripe
    sub, touched = decode_blob_rows(blob, meta, 500000, 1000,
                                    columns=["n_tok"])
    assert sub.column_names == ["n_tok"]
    assert sub.column("n_tok").to_pylist() == \
        t.slice(500000, 1000).column("n_tok").to_pylist()
    assert touched / len(blob) < 0.01  # single small column: ~one chunk


def test_full_decode_unaffected_by_indexes(big_stripe):
    t, blob, meta = big_stripe
    assert decode_blob(blob, meta).equals(t)


def test_pipeline_read_rows(ray_session, tmp_path):
    import ray.data

    from orc_ray.pipelines.decode import read_rows
    from orc_ray.pipelines.encode import encode_dataset_streaming

    rng = np.random.default_rng(3)
    n = 30_000
    lens = rng.integers(1, 30, n)
    off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lens, out=off[1:])
    vals = rng.integers(0, 50257, int(off[-1])).astype(np.int32)
    t = pa.table({
        "doc_id": pa.array(np.arange(n), type=pa.int64()),
        "tokens": pa.ListArray.from_arrays(
            pa.array(off.astype(np.int32), type=pa.int32()),
            pa.array(vals, type=pa.int32())),
        "n_tok": pa.array(lens.astype(np.int32), type=pa.int32()),
        "source": pa.array(["s"] * n),
    })
    out = str(tmp_path / "enc")
    cfg = EncoderConfig(stripe_target_tokens=100_000, row_index_stride=1000)
    encode_dataset_streaming(ray.data.from_arrow(t), out, cfg,
                             batch_rows=10_000).materialize()
    ds = read_rows(out, 12_345, 4_321)
    got = pa.concat_tables(
        list(ds.iter_batches(batch_format="pyarrow", batch_size=None)))
    assert got.num_rows == 4_321
    # rows come back in manifest order; compare as a doc_id-keyed set
    got_ids = sorted(got.column("doc_id").to_pylist())
    # streaming path preserves input order per batch; global ids are unique
    assert len(set(got_ids)) == 4_321
    by_id = {r["doc_id"]: r for r in got.to_pylist()}
    exp = t.slice(12_345, 4_321).to_pylist() if got_ids == list(
        range(12_345, 12_345 + 4_321)) else None
    if exp is not None:
        for r in exp:
            assert by_id[r["doc_id"]]["tokens"] == r["tokens"]
            assert by_id[r["doc_id"]]["n_tok"] == r["n_tok"]


@pytest.fixture(scope="module")
def nullable_stripe():
    rng = np.random.default_rng(21)
    n = 1_000_000
    null_mask = rng.random(n) < 0.1
    ints = rng.integers(0, 1 << 30, n)
    floats = rng.random(n)
    srcs = np.array(["web", "book", "code", "wiki"])[rng.integers(0, 4, n)]
    ts = (1735689600_000_000 + rng.integers(0, 10**9, n)).astype("datetime64[us]")
    t = pa.table({
        "i": pa.array(ints, type=pa.int64(), mask=null_mask),
        "f": pa.array(floats, type=pa.float64(), mask=null_mask),
        "s": pa.array([f"value-{v:09d}" for v in ints], type=pa.string(),
                      mask=null_mask),
        "dct": pa.array(srcs.tolist(), type=pa.string(), mask=null_mask),
        "ts": pa.array(ts, type=pa.timestamp("us"), mask=null_mask),
    })
    cfg = EncoderConfig(stripe_target_tokens=10**9)
    blob, meta = encode_table(t, cfg)
    return t, bytes(blob), meta


def test_nullable_range_decode_correct(nullable_stripe):
    t, blob, meta = nullable_stripe
    _check_ranges(t, blob, meta, [(612345, 10000), (0, 1000), (999000, 1000),
                                  (7, 3), (0, t.num_rows)])


def test_nullable_range_decode_is_byte_sparse(nullable_stripe):
    """PRESENT-aware range decode: a nullable column must keep the
    byte-sparse property (the present stream is scanned whole but it is
    bits-per-row tiny; the data streams range-read)."""
    t, blob, meta = nullable_stripe
    sub, touched = decode_blob_rows(blob, meta, 612345, 10000)
    assert sub.num_rows == 10000
    frac = touched / len(blob)
    assert frac < 0.10, f"10k of 1M nullable rows touched {frac:.1%}"


def test_fsst_string_range_decode_byte_sparse():
    """An FSST-coded direct string stream must range-read through its
    byte_index (symbol-table header + covering token-byte slice), not
    whole-read the blob."""
    n = 400_000
    vals = np.arange(n) * 7919 % (1 << 30)
    t = pa.table({"doc_id": pa.array(
        [f"doc/shard-{v:09d}/part" for v in vals], type=pa.string())})
    cfg = EncoderConfig(stripe_target_tokens=10**9,
                        string_blob_candidates=("fsst",))
    blob, meta = encode_table(t, cfg)
    codecs = {s["column"]: s["codec"] for s in meta["streams"]
              if s["kind"] == "DATA"}
    assert codecs["doc_id"] == "fsst"
    sub, touched = decode_blob_rows(bytes(blob), meta, 250_000, 5000)
    assert sub.column("doc_id").to_pylist() == \
        t.slice(250_000, 5000).column("doc_id").to_pylist()
    assert touched / len(blob) < 0.05, f"touched {touched/len(blob):.1%}"


def test_range_decode_fallback_types():
    """Encodings whose range decode reads a stream whole (PRESENT, bool
    bitstreams, union tags) or recurses into children (structs, unions),
    plus nullable ints and decimals, decode every row range exactly, the
    whole stripe included."""
    import decimal as D

    n = 5000
    rng = np.random.default_rng(11)
    tags = (np.arange(n) % 3 == 0).astype(np.int8)
    t = pa.table({
        "i": pa.array([None if k % 7 == 0 else k for k in range(n)],
                      type=pa.int64()),
        "st": pa.array([{"a": k, "b": f"s{k % 5}"} for k in range(n)],
                       type=pa.struct([("a", pa.int64()), ("b", pa.string())])),
        "st_null": pa.array(
            [None if k % 9 == 0 else {"a": k, "b": f"s{k % 5}"}
             for k in range(n)],
            type=pa.struct([("a", pa.int64()), ("b", pa.string())])),
        "d": pa.array([D.Decimal(k) / 100 for k in range(n)],
                      type=pa.decimal128(20, 2)),
        "bl": pa.array((rng.integers(0, 2, n) == 1).tolist(), type=pa.bool_()),
        "bl_null": pa.array(
            [None if k % 11 == 0 else bool(k % 3) for k in range(n)],
            type=pa.bool_()),
        "f": pa.array(rng.random(n), type=pa.float64()),
        "u": pa.UnionArray.from_dense(
            pa.array(tags),
            pa.array(np.cumsum(tags == 0) * (tags == 0)
                     + np.cumsum(tags == 1) * (tags == 1) - 1,
                     type=pa.int32()),
            [pa.array(np.arange(n) * 3, type=pa.int64()),
             pa.array([f"u{k}" for k in range(n)])],
            ["num", "txt"], [0, 1]),
    })
    cfg = EncoderConfig(stripe_target_tokens=10**9, row_index_stride=500)
    blob, meta = encode_table(t, cfg)
    for (r0, cnt) in [(1234, 700), (0, 10), (4990, 10), (0, n)]:
        sub, _ = decode_blob_rows(bytes(blob), meta, r0, cnt)
        exp = t.slice(r0, cnt)
        for c in t.column_names:
            assert exp.column(c).combine_chunks().to_pylist() == \
                sub.column(c).combine_chunks().to_pylist(), (c, r0)


@pytest.fixture(scope="module")
def exotic_stripe():
    """binary / decimal / struct columns at 1M rows: the encodings that
    gained range paths after round 3 (binary rides the direct string
    path, decimal range-reads its lo/hi int64 streams, struct recurses
    into per-child range decodes)."""
    rng = np.random.default_rng(33)
    n = 1_000_000
    ints = rng.integers(0, 1 << 30, n)
    null_mask = rng.random(n) < 0.1
    payload = pa.array(
        [f"blob-{v:012d}".encode() for v in ints], type=pa.binary())
    dec = pa.Array.from_buffers(
        pa.decimal128(20, 2), n,
        [None, pa.py_buffer(np.column_stack(
            [ints.astype(np.int64),
             np.zeros(n, dtype=np.int64)]).tobytes())])
    t = pa.table({
        "bin": payload,
        "bin_null": pa.array(
            [f"b{v:08d}".encode() for v in ints], type=pa.binary(),
            mask=null_mask),
        "dec": dec,
        "st": pa.StructArray.from_arrays(
            [pa.array(ints, type=pa.int64()),
             pa.array([f"s-{v:09d}" for v in ints], type=pa.string())],
            names=["a", "b"]),
    })
    cfg = EncoderConfig(stripe_target_tokens=10**9)
    blob, meta = encode_table(t, cfg)
    return t, bytes(blob), meta


def test_exotic_range_decode_correct(exotic_stripe):
    t, blob, meta = exotic_stripe
    _check_ranges(t, blob, meta, [(612345, 10000), (0, 1000), (999000, 1000),
                                  (7, 3), (0, t.num_rows)])


def test_exotic_range_decode_is_byte_sparse(exotic_stripe):
    t, blob, meta = exotic_stripe
    for col, cap in [("bin", 0.05), ("bin_null", 0.10), ("dec", 0.05),
                     ("st", 0.05)]:
        sub, touched = decode_blob_rows(blob, meta, 612345, 10000,
                                        columns=[col])
        assert sub.num_rows == 10000
        frac = touched / len(blob)
        assert frac < cap, f"{col}: 10k of 1M rows touched {frac:.1%}"


@pytest.fixture(scope="module")
def nested_stripe():
    """map and recursive-child list columns at 400k rows: the generic
    LENGTH-anchored range path (elem_offsets -> child value range ->
    per-child recursion)."""
    rng = np.random.default_rng(44)
    n = 400_000
    lens = rng.integers(1, 5, n)
    total = int(lens.sum())
    off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lens, out=off[1:])
    words = pa.array([f"w{v:06d}" for v in rng.integers(0, 99_991, total)])
    lst = pa.ListArray.from_arrays(
        pa.array(off.astype(np.int32), type=pa.int32()), words)
    null_mask = rng.random(n) < 0.1
    ints = rng.integers(0, 1 << 20, n)
    lst_null = pa.ListArray.from_arrays(
        pa.array(off.astype(np.int32), type=pa.int32()),
        pa.array(rng.integers(0, 1 << 20, total), type=pa.int64()))
    lst_null = lst_null.filter(pa.array(~null_mask)).take(
        pa.array(np.clip(np.cumsum(~null_mask) - 1, 0, None), type=pa.int64()))
    lst_null = pa.ListArray.from_arrays(
        pa.array(lst_null.offsets), lst_null.values, mask=pa.array(null_mask))
    mp = pa.MapArray.from_arrays(
        pa.array(np.arange(0, 2 * n + 1, 2, dtype=np.int32), type=pa.int32()),
        pa.array([f"k{v % 7}" for v in range(2 * n)]),
        pa.array(np.arange(2 * n), type=pa.int64()))
    t = pa.table({"words": lst, "ln": lst_null, "kv": mp,
                  "i": pa.array(ints, type=pa.int64())})
    cfg = EncoderConfig(stripe_target_tokens=10**9)
    blob, meta = encode_table(t, cfg)
    return t, bytes(blob), meta


def test_nested_range_decode_correct(nested_stripe):
    t, blob, meta = nested_stripe
    _check_ranges(t, blob, meta, [(212345, 5000), (0, 1000), (399000, 1000),
                                  (7, 3), (0, t.num_rows)])


def test_nested_range_decode_is_byte_sparse(nested_stripe):
    t, blob, meta = nested_stripe
    for col, cap in [("words", 0.08), ("ln", 0.12), ("kv", 0.08)]:
        sub, touched = decode_blob_rows(blob, meta, 212345, 5000,
                                        columns=[col])
        assert sub.num_rows == 5000
        frac = touched / len(blob)
        assert frac < cap, f"{col}: 5k of 400k rows touched {frac:.1%}"


def _outer_table() -> pa.Table:
    rng = np.random.default_rng(3)
    n = 20_000
    lens = rng.integers(1, 30, n)
    off = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(lens, out=off[1:])
    vals = rng.integers(0, 50257, int(off[-1])).astype(np.int32)
    return pa.table({
        "doc_id": pa.array(np.arange(n) * 7, type=pa.int64()),
        "tokens": pa.ListArray.from_arrays(pa.array(off), pa.array(vals)),
        "score": pa.array(rng.normal(size=n)),
        "title": pa.array([f"doc-{i:07d}" for i in range(n)]),
    })


def _assert_rows(t, blob, meta):
    n = t.num_rows
    for r0, cnt in [(0, 37), (n // 2, 37), (n - 37, 37), (0, n)]:
        sub, _ = decode_blob_rows(blob, meta, r0, cnt)
        for c in t.column_names:
            assert sub.column(c).to_pylist() == \
                t.column(c).slice(r0, cnt).to_pylist(), (c, r0)


@pytest.mark.parametrize("outer", ["none", "zlib", "zstd", "snappy", "auto"])
def test_range_decode_every_outer_kind(outer):
    """Row ranges read through every outer kind's chunk index: seekable
    streams of each chunked kind record chunk offsets, so the first,
    middle and last rows decode from their own chunks."""
    t = _outer_table()
    cfg = EncoderConfig(outer_compression=outer, row_index_stride=1000)
    blob, meta = encode_table(t, cfg)
    if outer != "none":
        assert any("chunk_offsets" in r for r in meta["streams"]
                   if r["outer"] != "none")
    _assert_rows(t, blob, meta)


def test_range_decode_snappy_without_chunk_index():
    """Snappy streams written without chunk offsets (older writers) still
    read row ranges, through whole-stream decompress."""
    t = _outer_table()
    cfg = EncoderConfig(outer_compression="snappy", row_index_stride=1000)
    blob, meta = encode_table(t, cfg)
    stripped = 0
    for rec in meta["streams"]:
        if rec["outer"] == "snappy" and "chunk_offsets" in rec:
            del rec["chunk_offsets"], rec["chunk_size"]
            stripped += 1
    assert stripped
    _assert_rows(t, blob, meta)


def _plan_reference(man, row_start, row_count):
    """plan_row_ranges as a plain loop over the sorted manifest: the
    reference the numpy planner is pinned against."""
    order = sorted(range(man.num_rows), key=lambda i: (
        man.column("partition_id")[i].as_py(),
        man.column("stripe_id")[i].as_py()))
    rows = man.take(pa.array(order, type=pa.int64()))
    counts = np.asarray(rows.column("num_rows").to_pylist(), dtype=np.int64)
    starts = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    lo, hi = row_start, row_start + row_count
    picked = []
    for i in range(len(counts)):
        s, e = int(starts[i]), int(starts[i + 1])
        if e <= lo or s >= hi:
            continue
        picked.append({
            "blob_path": rows.column("blob_path")[i].as_py(),
            "meta_json": rows.column("meta_json")[i].as_py(),
            "row_lo": max(0, lo - s),
            "row_cnt": min(e, hi) - max(s, lo),
        })
    return picked


def test_plan_row_ranges_matches_reference_loop():
    """Randomized manifests in shuffled row order and in several chunks,
    with zero-row stripes; ranges that start or end on a stripe edge, span
    three stripes, hold no rows, or start past the last row."""
    from orc_ray.pipelines.decode import plan_row_ranges

    rng = np.random.default_rng(12)
    for trial in range(60):
        n = int(rng.integers(1, 14))
        pids = np.sort(rng.integers(0, 5, n))
        sids = np.zeros(n, dtype=np.int64)
        for i in range(1, n):
            sids[i] = sids[i - 1] + 1 if pids[i] == pids[i - 1] else 0
        counts = rng.integers(0, 40, n) * (rng.random(n) > 0.25)
        perm = rng.permutation(n)
        man = pa.table({
            "partition_id": pa.array(pids[perm], pa.int64()),
            "stripe_id": pa.array(sids[perm], pa.int64()),
            "blob_path": [f"p{pids[i]}-s{sids[i]}" for i in perm],
            "num_rows": pa.array(counts[perm], pa.int64()),
            "meta_json": [f"{{\"i\": {i}}}" for i in perm],
        })
        cut = int(rng.integers(0, n + 1))
        man = pa.concat_tables([man.slice(0, cut), man.slice(cut)])
        edges = np.concatenate([[0], np.cumsum(counts)]).tolist()
        total = edges[-1]
        ranges = [(0, total), (total, 5), (total + 3, 1), (0, 0)]
        for _ in range(12):
            a = int(rng.integers(0, total + 2))
            ranges += [(a, int(rng.integers(0, 70))), (a, 0)]
        for j in range(len(edges)):
            e = edges[j]
            ranges += [(e, int(rng.integers(1, 30))),
                       (max(0, e - 7), 7)]
            if j + 3 < len(edges):  # three stripes, edge to edge and inside
                ranges += [(e, edges[j + 3] - e),
                           (e + 1, max(0, edges[j + 3] - e - 2))]
        for r0, cnt in ranges:
            assert plan_row_ranges(man, r0, cnt) == \
                _plan_reference(man, r0, cnt), (trial, r0, cnt)


def test_delta_decimal_range_read_seeks():
    """A monotone decimal's DATA stream is coded rle2_delta; its seek
    index records the re-base prefixes, so a 10-row read decodes from the
    covering index entry and touches only part of the blob."""
    n = 50_000
    rng = np.random.default_rng(3)
    lo = np.cumsum(rng.integers(1, 1000, n)).astype(np.int64)
    dec = pa.Array.from_buffers(
        pa.decimal128(18, 2), n,
        [None, pa.py_buffer(np.column_stack(
            [lo, np.zeros(n, dtype=np.int64)]).tobytes())])
    t = pa.table({"d": dec})
    blob, meta = encode_table(t, EncoderConfig())
    data = next(s for s in meta["streams"] if s["kind"] == "DATA")
    assert data["codec"] == "rle2_delta"
    sub, touched = decode_blob_rows(blob, meta, 45_000, 10)
    assert sub.equals(t.slice(45_000, 10))
    assert touched < len(blob) / 2
