"""Stripe encode/decode round-trips on the token-table schema and on the
wider type matrix (FIXTURES.md F1/F4; reference e2e writer_test.go:29-327)."""

import numpy as np
import pyarrow as pa
import pytest

from orc_ray.config import EncoderConfig
from orc_ray.selector import SelectorState
from orc_ray.stripe import decode_blob, encode_table


def make_token_table(n=2000, seed=42):
    rng = np.random.default_rng(seed)
    sources = np.array([f"src{i}" for i in range(8)])
    src = sources[rng.integers(0, 8, n)]
    n_tok = np.clip(rng.lognormal(4.0, 1.0, n).astype(np.int32), 1, 5000)
    doc_id = np.array([f"{s}-{i:012d}" for i, s in enumerate(src)])
    parts = []
    for i in range(n):
        k = int(n_tok[i])
        mode = i % 3
        if mode == 0:
            parts.append(rng.integers(0, 50257, k, dtype=np.int32))
        elif mode == 1:
            parts.append(np.full(k, rng.integers(0, 50257), dtype=np.int32))
        else:
            start = int(rng.integers(0, 1000))
            parts.append((start + np.arange(k) % 40000).astype(np.int32))
    values = np.concatenate(parts)
    offsets = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(n_tok, out=offsets[1:])
    tokens = pa.ListArray.from_arrays(pa.array(offsets), pa.array(values, type=pa.int32()))
    return pa.table({
        "doc_id": pa.array(doc_id.tolist(), type=pa.string()),
        "tokens": tokens,
        "n_tok": pa.array(n_tok, type=pa.int32()),
        "source": pa.array(src.tolist(), type=pa.string()),
    })


def _roundtrip(table, config=None):
    blob, meta = encode_table(table, config)
    out = decode_blob(blob, meta)
    assert out.schema == table.schema
    assert out.equals(table)
    return blob, meta


def test_token_table_roundtrip():
    table = make_token_table()
    blob, meta = _roundtrip(table)
    raw = sum(
        buf.size for col in table.columns for chunk in col.chunks
        for buf in chunk.buffers() if buf is not None
    )
    assert len(blob) < raw  # must actually compress
    cols = {c["name"]: c for c in meta["columns"]}
    assert cols["source"]["encoding"] == "dict"  # 8 distinct / 2000
    assert cols["doc_id"]["encoding"] == "direct"  # unique -> above 0.49
    assert cols["tokens"]["encoding"] == "list"
    assert cols["n_tok"]["stats"]["sum"] == int(np.sum(table["n_tok"].to_numpy()))


def test_token_table_roundtrip_with_selector_state():
    table = make_token_table(500)
    cfg = EncoderConfig()
    sel = SelectorState(cfg)
    for _ in range(3):  # repeated chunks exercise the warm cache
        blob, meta = encode_table(table, cfg, selector=sel, group="src0")
        out = decode_blob(blob, meta)
        assert out.equals(table)


def test_outer_zlib_roundtrip():
    table = make_token_table(300)
    _roundtrip(table, EncoderConfig(outer_compression="zlib"))


def test_column_projection():
    table = make_token_table(200)
    blob, meta = encode_table(table)
    out = decode_blob(blob, meta, columns=["n_tok", "source"])
    assert out.column_names == ["n_tok", "source"]
    assert out.column("n_tok").to_pylist() == table.column("n_tok").to_pylist()
    assert out.column("source").to_pylist() == table.column("source").to_pylist()


def test_type_matrix_roundtrip():
    n = 500
    rng = np.random.default_rng(1)
    table = pa.table({
        "i8": pa.array(rng.integers(-128, 128, n, dtype=np.int64), type=pa.int8()),
        "i16": pa.array(rng.integers(-1000, 1000, n), type=pa.int16()),
        "i32": pa.array(rng.integers(-(2**31), 2**31, n), type=pa.int32()),
        "i64": pa.array(rng.integers(-(2**62), 2**62, n), type=pa.int64()),
        "u32": pa.array(rng.integers(0, 2**32, n), type=pa.uint32()),
        "f32": pa.array(rng.random(n).astype(np.float32), type=pa.float32()),
        "f64": pa.array(rng.random(n), type=pa.float64()),
        "b": pa.array(rng.random(n) < 0.5, type=pa.bool_()),
        "s": pa.array([f"value-{i % 37}" for i in range(n)], type=pa.string()),
        "bin": pa.array([bytes([i % 256, 255 - i % 256]) for i in range(n)], type=pa.binary()),
        "d32": pa.array(rng.integers(0, 20000, n).astype("datetime64[D]"), type=pa.date32()),
        "ts": pa.array(rng.integers(0, 2**40, n), type=pa.timestamp("us")),
    })
    _roundtrip(table)


def test_nulls_every_fifth_row():
    # writer_test.go:372-437 analogue
    n = 100
    ints = [None if i % 5 == 0 else i for i in range(n)]
    strs = [None if i % 5 == 0 else f"s{i % 9}" for i in range(n)]
    bools = [None if i % 3 == 0 else (i % 2 == 0) for i in range(n)]
    floats = [None if i % 7 == 0 else i * 1.5 for i in range(n)]
    table = pa.table({
        "i": pa.array(ints, type=pa.int64()),
        "s": pa.array(strs, type=pa.string()),
        "b": pa.array(bools, type=pa.bool_()),
        "f": pa.array(floats, type=pa.float64()),
    })
    _roundtrip(table)


def test_all_null_column():
    table = pa.table({"i": pa.array([None] * 50, type=pa.int64())})
    _roundtrip(table)


def test_constant_int_column():
    # writer_test.go:264-327 analogue
    table = pa.table({"int1": pa.array([42] * 10, type=pa.int64())})
    blob, meta = _roundtrip(table)
    assert len(blob) < 24


def test_empty_strings_and_high_cardinality():
    n = 400
    table = pa.table({
        "lowcard": pa.array([["a", "bb", ""][i % 3] for i in range(n)]),
        "highcard": pa.array([f"u{i:08d}" for i in range(n)]),
    })
    blob, meta = _roundtrip(table)
    cols = {c["name"]: c for c in meta["columns"]}
    assert cols["lowcard"]["encoding"] == "dict"
    assert cols["highcard"]["encoding"] == "direct"


def test_sliced_table_roundtrip():
    table = make_token_table(300).slice(37, 150)
    _roundtrip(table)


def test_large_list_roundtrip():
    vals = pa.array(np.arange(1000), type=pa.int64())
    offsets = pa.array(np.arange(0, 1001, 10), type=pa.int64())
    lst = pa.LargeListArray.from_arrays(offsets, vals)
    table = pa.table({"ll": lst})
    _roundtrip(table)


def test_timestamp_split_codec_roundtrip():
    import pyarrow.parquet as pq

    t = pq.read_table("/root/testdata/sf0.001/events.parquet")
    blob, meta = encode_table(t)
    out = decode_blob(blob, meta)
    assert out.equals(t.combine_chunks())
    cols = {c["name"]: c for c in meta["columns"]}
    assert cols["ts"]["encoding"] == "timestamp"
    kinds = {(s["column"], s["kind"]) for s in meta["streams"]}
    assert ("ts", "SECONDARY") in kinds


def test_tz_aware_timestamp_roundtrip():
    """tz-aware timestamps survive encode/decode with type AND values.

    The reference records a writer timezone per stripe footer
    (writer.go:418-451) so readers can reconstruct wall-clock values;
    this engine reaches the same end lossless-ly by serializing the full
    Arrow schema (including the timestamp tz) into the manifest — Arrow
    tz-aware values are epoch-UTC, so the split codec (C18) needs no
    tz math and the restored type re-attaches the zone exactly."""
    base = 1_700_000_000_000_000
    vals = pa.array(np.arange(base, base + 5_000_000, 1000), type=pa.int64())
    for unit, tz in [("us", "America/New_York"), ("ns", "UTC"),
                     ("us", None), ("s", "+05:30")]:
        arr = (vals if unit != "s"
               else pa.array(np.arange(base // 10**6, base // 10**6 + 5000),
                             type=pa.int64())).cast(pa.timestamp(unit, tz=tz))
        table = pa.table({"ts": arr})
        blob, meta = encode_table(table)
        out = decode_blob(blob, meta)
        assert out.column("ts").type == pa.timestamp(unit, tz=tz)
        assert out.equals(table.combine_chunks())


def test_nested_struct_roundtrip():
    # writer_test.go:39 nested-structs schema shape
    rng = np.random.default_rng(4)
    n = 500
    inner2 = pa.StructArray.from_arrays(
        [pa.array(rng.integers(0, 100, n), type=pa.int32())], names=["int2"])
    inner = pa.StructArray.from_arrays(
        [pa.array(rng.random(n)), inner2], names=["double2", "nested"])
    t = pa.table({
        "string1": pa.array([f"s{i % 7}" for i in range(n)]),
        "int1": pa.array(rng.integers(0, 1000, n), type=pa.int32()),
        "nested": inner,
    })
    _roundtrip(t)


def test_nullable_struct_roundtrip():
    s = pa.array(
        [{"a": 1, "b": "x"}, None, {"a": 3, "b": None}] * 20,
        type=pa.struct([("a", pa.int64()), ("b", pa.string())]),
    )
    _roundtrip(pa.table({"st": s}))


def test_nullable_list_and_typed_children_roundtrip():
    """Round 2: list<string>, list<float>, nested lists, null entries at
    every level (reference treewriter.go:722-804 recursive child encode)."""
    t = pa.table({
        "ls": pa.array([["a", "bb", None], ["x"], None, [], ["zz", "a"]] * 40,
                       type=pa.list_(pa.string())),
        "lf": pa.array([[1.5, 2.5], None, [0.0], [], [3.25]] * 40,
                       type=pa.list_(pa.float64())),
        "ll": pa.array([[[1, 2], [3]], [[4]], None, [], [[5, 6, 7]]] * 40,
                       type=pa.list_(pa.list_(pa.int64()))),
        "lb": pa.array([[True, None], [], None, [False], [True]] * 40,
                       type=pa.list_(pa.bool_())),
    })
    _roundtrip(t)


def test_map_roundtrip():
    """C24 (treewriter.go:806-904): LENGTH + key/value children."""
    t = pa.table({
        "props": pa.array([[("a", 1), ("b", 2)], [], None, [("z", 9)]] * 50,
                          type=pa.map_(pa.string(), pa.int64())),
        "m2": pa.array([[("k", "v")], [("x", "y"), ("w", None)], [], None] * 50,
                       type=pa.map_(pa.string(), pa.string())),
    })
    _roundtrip(t)


def test_decimal128_roundtrip():
    """C20: the reference reads decimals only (no writer case); here both
    directions work via lo/hi int64 split streams."""
    import decimal as D

    t = pa.table({
        "d": pa.array(
            [D.Decimal("123.45"), None, D.Decimal("-9999999999999999.99"),
             D.Decimal("0.01")] * 60, type=pa.decimal128(38, 2)),
        "d2": pa.array(
            [D.Decimal("1.50"), D.Decimal("2.50"), D.Decimal("3.00"),
             D.Decimal("-4.75")] * 60, type=pa.decimal128(10, 2)),
    })
    _roundtrip(t)


def test_dense_union_roundtrip():
    """C25 (treewriter.go:1033-1132): byte-RLE tags + per-variant children
    (canonical dense offsets)."""
    ty_i = pa.array([7, 8, 9], type=pa.int64())
    ty_s = pa.array(["a", "b"], type=pa.string())
    tags = pa.array([0, 1, 0, 0, 1], type=pa.int8())
    offsets = pa.array([0, 0, 1, 2, 1], type=pa.int32())
    u = pa.UnionArray.from_dense(tags, offsets, [ty_i, ty_s], ["i", "s"], [0, 1])
    _roundtrip(pa.table({"u": u}))


def test_list_string_fsst_path_roundtrip():
    rng = np.random.default_rng(0)
    words = ["alpha", "beta", "gamma", "delta", "epsilon", None]
    big = [
        [words[rng.integers(0, 6)] for _ in range(rng.integers(0, 8))]
        if rng.random() > 0.1 else None
        for _ in range(5000)
    ]
    _roundtrip(pa.table({"meta": pa.array(big, type=pa.list_(pa.string()))}))


def test_registered_int_codec_roundtrip():
    """User-extension surface (SURVEY §2.10): a custom int codec registered
    via selector.register_int_codec participates in codec selection, is
    recorded in the manifest by id, and decodes through the normal gate.
    Analogue of the reference's pluggable IntegerWriter/IntegerReader +
    factory dispatch (treewriter.go:190-205, treereaderfactory.go)."""
    import pytest

    from orc_ray import selector as sel_mod
    from orc_ray.config import EncoderConfig

    KEY = np.uint64(0xA5A5A5A5A5A5A5A5)

    def enc(values, signed):
        v = np.ascontiguousarray(values, dtype=np.int64)
        return (v.view(np.uint64) ^ KEY).tobytes()

    def dec(buf, signed, n, out_dtype):
        u = np.frombuffer(buf, dtype=np.uint64, count=n) ^ KEY
        return u.view(np.int64).astype(out_dtype, copy=False)

    for reserved in ("rle2", "zstd"):
        with pytest.raises(ValueError):
            sel_mod.register_int_codec(reserved, enc, dec)

    sel_mod.register_int_codec("xor64", enc, dec)
    try:
        n = 2000
        rng = np.random.default_rng(7)
        table = pa.table({
            "v": pa.array(rng.integers(-(2**40), 2**40, n), type=pa.int64()),
        })
        cfg = EncoderConfig(int_candidates=("xor64",))
        blob, meta = encode_table(table, cfg)
        rec = [s for s in meta["streams"]
               if s["column"] == "v" and s["kind"] == "DATA"][0]
        assert rec["codec"] == "xor64"
        out = decode_blob(blob, meta)
        assert out.equals(table)
        # measured-size selection: against rle2 on random 40-bit ints the
        # registered raw-xor codec must at least be considered without error
        cfg2 = EncoderConfig(int_candidates=("rle2", "xor64"))
        blob2, meta2 = encode_table(table, cfg2)
        assert decode_blob(blob2, meta2).equals(table)
    finally:
        sel_mod.unregister_int_codec("xor64")
    # after unregistration the manifest id must fail loudly, not silently
    with pytest.raises(ValueError):
        decode_blob(blob, meta)


def test_unknown_outer_compression_rejected():
    """A misspelled outer kind fails loudly instead of silently writing
    uncompressed streams."""
    table = pa.table({"v": pa.array([1, 2, 3], type=pa.int64())})
    with pytest.raises(ValueError, match="auto, none, zlib, snappy, zstd"):
        encode_table(table, EncoderConfig(outer_compression="zstd1"))
