"""Pinned encoder output: a fixed seeded table must encode to the same
bytes under both shipped configs and under the opt-in snappy outer kind,
and exported ORC files must not change under any compression kind.
Refactors of the write path are judged by these digests — a change here
means the on-disk format moved."""

import hashlib
import io
import json

import numpy as np
import pyarrow as pa
import pytest

from orc_ray.config import EncoderConfig
from orc_ray.pipelines.encode import split_stripes
from orc_ray.selector import SelectorState
from orc_ray.sources.orcwriter import write_orc_file
from orc_ray.sources.tokens import synthesize_tokens
from orc_ray.stripe import decode_blob, decode_blob_rows, encode_table

# (sha256 of blob, sha256 of meta_json) per stripe, in stripe order
PINNED = {
    "default": [
        ("d65c13f1e72fe443ae2d19d81029af0dcf49808ac8b3d963677ebcf5de9b34ac",
         "5fc5b85d89350e96384cfc77878335fb7953c9330dfec3cbfd018e4f4a4541e9"),
        ("baff56ce0609c286684a930985fc701ca5d964e74fb97c687db4f25a7e912797",
         "32c9fb131690fa4c551e1cd48e522949ec0fa9dc5d092f73d353b6da621d58d4"),
        ("b605a19dbd19da05b9d8b0c9a5bfa03914bc016d2487cfe657857032d5ea6330",
         "af05c4cd00566c175ea13658acb4baf03b7db63db305386a141b884efe07bf35"),
        ("85bdf7549fe9125f413cd389bb8f2dea22f91c16bac414b8b680b8f56e1a94d3",
         "6c75e2b80f041e73ad463ef936bb66495e4f262824fa131d4563e6df0a186e7e"),
    ],
    "size_priority": [
        ("d616c9d7a1747eaa913684faf1272c087964d574150189558b1fd69616d8d91b",
         "a091ed9fd7880d2d0b0fade673627f2434e0fd2ef440b69283f391cd2d99ced4"),
        ("e339b0c99279bc7076ed7ba9d5f890280d89a5c70ec2872c8156809fe4579738",
         "191c2473c7c4d3b8c3eea268a818bf5eec4553962f2651fea88c7626211eb8ed"),
        ("d31b90bd24291b4089ddb7b60681f2b5c7217423a026e023464c967210682bda",
         "20ccaea49d36b50d5334b92337a1ded5f8ab988893e1721cdbc4f6182fbdba98"),
        ("be147d80a33d5c99d131886a1c1cd1f849ff9abff9b5642336f418cc89789f1f",
         "e362b32f3e1faeb62d73ee9fd83037bd9739e43841386c04929fa965b0e90878"),
    ],
    # FSST against raw only, so doc_id's DATA stream is an FSST stream
    "fsst": [
        ("417aa9fc0139588596c02350bc69de9e88f20ae9a7c9d05fd079c9fff7307d54",
         "d981d2b4efaa765a83c02b3958f1d91c70f30237fc9103b1bdd2a0316d465bd1"),
        ("c0033842ef5ae3ad1e568534db3493dc2dc4ee5d163fb3100dec5b8592b506ff",
         "b20d2213921290d33f9356cb297a972a7554699e5d8f3b6515dc2f82f345df24"),
        ("474422654cd046f13325be15f51daa777e556129ceaf78523337191d0c2dee52",
         "3a5985584032bef6031a56acf4b00a76672db2dacafea3b27c28f7b44b6c396d"),
        ("14c70be99220a3523070240e6e15bec7d923243a9e75f9cf1f66ef793846f621",
         "3b93a9b5eeb5dffabd1f9f3be173b042066791e5b258c520c5b1d36aff1e2d6d"),
    ],
}

# sha256 of the blob only, per stripe: the meta may gain chunk indexes
# on seekable streams without the stored bytes moving
PINNED_BLOBS = {
    "snappy": [
        "549b6b2c8a6201badc1d42f822031e7023b462b85ea8ce3a38d6e1b5da9c4a4a",
        "d538d2aadd6a7cc841f6e3249cfdace03dc730b4681d31d17e2a7e4cb5d23edf",
        "2089fa4ce1cd58e50c37a8aa57f831f57a2950e2856b9a921e6ec01bcdec0864",
        "3859489ee9e1d79dfb01e7447d7048656ef6a0b45b0a62fa87139ada31aae52b",
    ],
}

# sha256 of the whole exported ORC file per CompressionKind
PINNED_ORC = {
    "none": "e156d2322a3438c396b296de896d8f8c9796d05321740959a19efd7dce2c776e",
    "zlib": "9cd8e29b66e6de89886fd74881c1bae9c5937352a59dd07cdd8a28a666d614d4",
    "snappy": "d36ebdd81313e5a681e38e6d4027a85664769aa5751dca65508df011ed4ed8e9",
    "zstd": "74c6245f429b5286ed173880b878c4cf08446ab1895d696d9f29543960cf03d0",
}

CONFIGS = {
    "default": lambda: EncoderConfig(stripe_target_tokens=100_000),
    "size_priority": lambda: EncoderConfig.size_priority(
        stripe_target_tokens=100_000),
    "snappy": lambda: EncoderConfig(stripe_target_tokens=100_000,
                                    outer_compression="snappy"),
    "fsst": lambda: EncoderConfig(stripe_target_tokens=100_000,
                                  string_blob_candidates=("fsst", "none")),
}


def _digests(config: EncoderConfig) -> list[tuple[str, str]]:
    # doc_id, tokens, n_tok, source; ~330k tokens -> 4 stripes, each with
    # seek indexes on its token stream
    table = synthesize_tokens(3000, seed=11, mean_log=4.0)
    selector = SelectorState(config)
    out = []
    for stripe in split_stripes(table, config):
        blob, meta = encode_table(stripe.combine_chunks(), config,
                                  selector=selector, group="web")
        # serialized exactly as the manifest's meta_json column
        meta_json = json.dumps(meta, separators=(",", ":"))
        out.append((hashlib.sha256(blob).hexdigest(),
                    hashlib.sha256(meta_json.encode()).hexdigest()))
    return out


@pytest.mark.parametrize("name", sorted(PINNED))
def test_encoder_output_pinned(name):
    assert _digests(CONFIGS[name]()) == PINNED[name]


@pytest.mark.parametrize("name", sorted(PINNED_BLOBS))
def test_encoder_blobs_pinned(name):
    assert [b for b, _ in _digests(CONFIGS[name]())] == PINNED_BLOBS[name]


# One column of every kind the encoder writes, two 16k-row stripes, so
# seek indexes are written: (blob, meta_json) sha256 per stripe, encoded
# with one SelectorState across the stripes ("<config>/selector") and with
# none ("<config>/none")
PINNED_ALL_KINDS = {
    "default/none": [
        ("71160a2348012a39891d37c4064792664f21258b17d0d7ee2d6af5acdf6dfc9d",
         "77113618e0f19fc91aed92acc69bf13fe42afe4548114752d3bf346253464972"),
        ("67724a52ecae948899701876648ca6bb9f3440f0dd27ae1c1875baa7fdfbb2bc",
         "e3ed1d546e3a9a049f949aae2ec154cb76e0013078308663a10f42290279ca56"),
    ],
    "default/selector": [
        ("71160a2348012a39891d37c4064792664f21258b17d0d7ee2d6af5acdf6dfc9d",
         "77113618e0f19fc91aed92acc69bf13fe42afe4548114752d3bf346253464972"),
        ("4660b4039b6d5c89793640e6f03ba9673d1cd4793002fe2ad81250907d611ba6",
         "2a55e6df57e478c7403b90dc0ec175cf2f63eb98a18ea63222e688cd860e93a9"),
    ],
    "size_priority/none": [
        ("150cd87fc11f5c10d103d50e1b1185ca4ab28b64c2b08dbc94f52b8a3e0cef67",
         "0963b6e3401a74ffe864f2f782f31662bfc892ade7647cf20aeabc84a7c08764"),
        ("b890bc44a34e5322e5b1b5c856eb6ccc581aa187eb838c2d12914366718a6ce0",
         "c4440cda402ca0044845a33e826f56934f3a4932d552f50b0d5ba08622931340"),
    ],
    "size_priority/selector": [
        ("150cd87fc11f5c10d103d50e1b1185ca4ab28b64c2b08dbc94f52b8a3e0cef67",
         "0963b6e3401a74ffe864f2f782f31662bfc892ade7647cf20aeabc84a7c08764"),
        ("e2e858815a2930544f67601e68bad604bd845eabfd1cbcbe3f79613d0f1c9a27",
         "ee4e4a71f8490050504db7239d0aec5610166b49797c39e10adef3a8b12cd225"),
    ],
    "snappy/none": [
        ("1736c48552e41ae366c171ec7ac04b3144f6b1ffed21ec7fc2985d3f6d519172",
         "4d9e17e68c6732c80bf833e449c9227e401c4b51dc75f58a6a37d1f92b5b8729"),
        ("0690752e2763dcaa3d767f50ab8e8543072f6a18d1b3a5ba80df272544e3d652",
         "83d71bb63c71b980382e4ec07909f002cc756870fd21143657c363a4be03abc3"),
    ],
    "snappy/selector": [
        ("1736c48552e41ae366c171ec7ac04b3144f6b1ffed21ec7fc2985d3f6d519172",
         "4d9e17e68c6732c80bf833e449c9227e401c4b51dc75f58a6a37d1f92b5b8729"),
        ("3f291c228d2fdb36212501554e4616428d8e151d78e5f353cbf611aedaf994a1",
         "01aeaab344a1d67b2935610ad1fef2a8b74c359b7db220482b808dfddac06f06"),
    ],
}


def _all_kinds_table(n=32_000, seed=23):
    rng = np.random.default_rng(seed)

    def nulls(p):
        return rng.random(n) < p

    def offsets(max_len):
        off = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(rng.integers(0, max_len + 1, n), out=off[1:])
        return pa.array(off), int(off[-1])

    words = np.array(["alpha", "beta", "gamma", "delta", "epsilon", "zeta"])
    l32_off, l32_n = offsets(8)
    ls_off, ls_n = offsets(4)
    l64_off, l64_n = offsets(6)
    map_off, map_n = offsets(3)
    dec = rng.integers(-10**12, 10**12, n)
    tags = rng.integers(0, 2, n).astype(np.int8)
    return pa.table({
        "i64": pa.array(rng.integers(-10**6, 10**6, n), mask=nulls(0.1)),
        "u16": pa.array(rng.integers(0, 1 << 16, n).astype(np.uint16)),
        "day": pa.array((18_000 + np.cumsum(rng.integers(0, 2, n)))
                        .astype(np.int32), type=pa.date32()),
        "ts": pa.array(1_600_000_000_000_000
                       + np.cumsum(rng.integers(0, 10**7, n)),
                       type=pa.timestamp("us"), mask=nulls(0.05)),
        "flag": pa.array(rng.random(n) < 0.3, mask=nulls(0.1)),
        "score": pa.array(rng.normal(size=n), mask=nulls(0.1)),
        "word": pa.array(words[rng.integers(0, len(words), n)]),
        "title": pa.array([f"title-{v:09d}" for v in rng.integers(0, 10**9, n)],
                          mask=nulls(0.1)),
        "raw": pa.array([rng.bytes(int(k)) for k in rng.integers(0, 12, n)],
                        type=pa.binary()),
        "l32": pa.ListArray.from_arrays(
            l32_off, pa.array(rng.integers(0, 50_000, l32_n).astype(np.int32))),
        "lstr": pa.ListArray.from_arrays(
            ls_off, pa.array(words[rng.integers(0, len(words), ls_n)])),
        "l64": pa.ListArray.from_arrays(
            l64_off, pa.array(rng.integers(-10**9, 10**9, l64_n),
                              mask=rng.random(l64_n) < 0.2)),
        "kv": pa.MapArray.from_arrays(
            map_off, pa.array(words[rng.integers(0, len(words), map_n)]),
            pa.array(rng.integers(0, 10**6, map_n))),
        "st": pa.StructArray.from_arrays(
            [pa.array(rng.integers(0, 1000, n).astype(np.int32)),
             pa.array(words[rng.integers(0, len(words), n)])],
            names=["a", "b"], mask=pa.array(nulls(0.1))),
        "dec": pa.Array.from_buffers(
            pa.decimal128(18, 2), n,
            [pa.py_buffer(np.packbits(rng.random(n) >= 0.1, bitorder="little")),
             pa.py_buffer(np.column_stack([dec, dec >> 63]).tobytes())]),
        "u": pa.UnionArray.from_dense(
            pa.array(tags),
            pa.array(np.where(tags == 0, np.cumsum(tags == 0),
                              np.cumsum(tags == 1)).astype(np.int32) - 1),
            [pa.array(rng.integers(0, 10**6, int((tags == 0).sum()))),
             pa.array(words[rng.integers(0, len(words),
                                         int((tags == 1).sum()))])],
            ["num", "txt"], [0, 1]),
    })


def _all_kinds_digests(config: EncoderConfig, with_selector: bool):
    table = _all_kinds_table()
    selector = SelectorState(config) if with_selector else None
    out = []
    for lo in range(0, table.num_rows, 16_000):
        blob, meta = encode_table(table.slice(lo, 16_000), config,
                                  selector=selector, group="g")
        meta_json = json.dumps(meta, separators=(",", ":"))
        out.append((hashlib.sha256(blob).hexdigest(),
                    hashlib.sha256(meta_json.encode()).hexdigest()))
    return out


@pytest.mark.parametrize("name", sorted(PINNED_ALL_KINDS))
def test_every_column_kind_pinned(name):
    config, mode = name.split("/")
    assert _all_kinds_digests(CONFIGS[config](), mode == "selector") == \
        PINNED_ALL_KINDS[name]


def test_every_column_kind_round_trips():
    table = _all_kinds_table().slice(0, 16_000)
    blob, meta = encode_table(table, EncoderConfig())
    assert decode_blob(blob, meta).equals(table)
    for lo, cnt in [(0, 10), (9_995, 10), (12_345, 700), (15_990, 10)]:
        sub, _ = decode_blob_rows(blob, meta, lo, cnt)
        assert sub.equals(table.slice(lo, cnt)), (lo, cnt)


def _orc_table() -> pa.Table:
    # token columns plus a nullable float and a bool column, so the file
    # carries PRESENT, DATA, LENGTH and dictionary streams
    table = synthesize_tokens(500, seed=7)
    rng = np.random.default_rng(7)
    n = table.num_rows
    floats = pa.array(rng.normal(size=n), mask=rng.random(n) < 0.1)
    return (table.append_column("score", floats)
            .append_column("flag", pa.array(rng.random(n) < 0.3)))


@pytest.mark.parametrize("compression", sorted(PINNED_ORC))
def test_orc_export_pinned(compression):
    buf = io.BytesIO()
    write_orc_file(_orc_table(), buf, compression=compression)
    assert hashlib.sha256(buf.getvalue()).hexdigest() == \
        PINNED_ORC[compression]
