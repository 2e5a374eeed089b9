"""RLEv2 codec tests: byte-exact vectors from the reference test suite
(/root/reference/runlengthintegerwriterv2_test.go:10-118,
/root/reference/runlengthintegerreaderv2_test.go:26-36) plus randomized and
adversarial round-trips (FIXTURES.md F2/F3)."""

import hashlib

import numpy as np
import pyarrow as pa
import pytest

from orc_ray.codecs import rle2
from orc_ray.codecs.varint import (
    zigzag_decode,
    zigzag_encode,
    zigzag_decode_scalar,
    zigzag_encode_scalar,
)

# --- byte-exact vectors (reference writer must be reproduced exactly) -----

PATCHED_INPUT = [20, 2, 3, 2, 1, 3, 17, 71, 35, 2, 1, 139, 2, 2,
    3, 1783, 475, 2, 1, 1, 3, 1, 3, 2, 32, 1, 2, 3, 1, 8, 30, 1, 3, 414, 1,
    1, 135, 3, 3, 1, 414, 2, 1, 2, 2, 594, 2, 5, 6, 4, 11, 1, 2, 2, 1, 1,
    52, 4, 1, 2, 7, 1, 17, 334, 1, 2, 1, 2, 2, 6, 1, 266, 1, 2, 217, 2, 6,
    2, 13, 2, 2, 1, 2, 3, 5, 1, 2, 1, 7244, 11813, 1, 33, 2, -13, 1, 2, 3,
    13, 1, 92, 3, 13, 5, 14, 9, 141, 12, 6, 15, 25, 1, 1, 1, 46, 2, 1, 1,
    141, 3, 1, 1, 1, 1, 2, 1, 4, 34, 5, 78, 8, 1, 2, 2, 1, 9, 10, 2, 1, 4,
    13, 1, 5, 4, 4, 19, 5, 1, 1, 1, 68, 33, 399, 1, 1885, 25, 5, 2, 4, 1,
    1, 2, 16, 1, 2966, 3, 1, 1, 25501, 1, 1, 1, 66, 1, 3, 8, 131, 14, 5, 1,
    2, 2, 1, 1, 8, 1, 1, 2, 1, 5, 9, 2, 3, 112, 13, 2, 2, 1, 5, 10, 3, 1,
    1, 13, 2, 3, 4, 1, 3, 1, 1, 2, 1, 1, 2, 4, 2, 207, 1, 1, 2, 4, 3, 3, 2,
    2, 16]

PATCHED_EXPECTED = bytes([144, 109, 4, 164, 141, 16, 131, 194, 0, 240, 112,
    64, 60, 84, 24, 3, 193, 201, 128, 120, 60, 33, 4, 244, 3, 193, 192, 224,
    128, 56, 32, 15, 22, 131, 129, 225, 0, 112, 84, 86, 14, 8, 106, 193, 192,
    228, 160, 64, 32, 14, 213, 131, 193, 192, 240, 121, 124, 30, 18, 9, 132,
    67, 0, 224, 120, 60, 28, 14, 32, 132, 65, 192, 240, 160, 56, 61, 91, 7,
    3, 193, 192, 240, 120, 76, 29, 23, 7, 3, 220, 192, 240, 152, 60, 52, 15,
    7, 131, 129, 225, 0, 144, 56, 30, 14, 44, 140, 129, 194, 224, 120, 0, 28,
    15, 8, 6, 129, 198, 144, 128, 104, 36, 27, 11, 38, 131, 33, 48, 224, 152,
    60, 111, 6, 183, 3, 112, 0, 1, 78, 5, 46, 2, 1, 1, 141, 3, 1, 1, 138, 22,
    0, 65, 1, 4, 0, 225, 16, 209, 192, 4, 16, 8, 36, 16, 3, 48, 1, 3, 13, 33,
    0, 176, 0, 1, 94, 18, 0, 68, 0, 33, 1, 143, 0, 1, 7, 93, 0, 25, 0, 5, 0,
    2, 0, 4, 0, 1, 0, 1, 0, 2, 0, 16, 0, 1, 11, 150, 0, 3, 0, 1, 0, 1, 99,
    157, 0, 1, 140, 54, 0, 162, 1, 130, 0, 16, 112, 67, 66, 0, 2, 4, 0, 0,
    224, 0, 1, 0, 16, 64, 16, 91, 198, 1, 2, 0, 32, 144, 64, 0, 12, 2, 8, 24,
    0, 64, 0, 1, 0, 0, 8, 48, 51, 128, 0, 2, 12, 16, 32, 32, 71, 128, 19, 76])


VECTORS = [
    # (signed, input, expected bytes)
    (False, PATCHED_INPUT, PATCHED_EXPECTED),
    (False, [23713, 43806, 57005, 48879],
     bytes([0x5E, 0x03, 0x5C, 0xA1, 0xAB, 0x1E, 0xDE, 0xAD, 0xBE, 0xEF])),
    (False, [2, 3, 5, 7, 11, 13, 17, 19, 23, 29],
     bytes([0xC6, 0x09, 0x02, 0x02, 0x22, 0x42, 0x42, 0x46])),
    (False, [10000] * 5, bytes([0x0A, 0x27, 0x10])),
    (False, [1, 1, 1, 1, 1, 0, 1, 0, 1, 0, 0, 1, 1, 1, 1],
     bytes([2, 1, 64, 5, 80, 1, 1])),
]


@pytest.mark.parametrize("signed,data,expected", VECTORS)
def test_reference_byte_vectors(signed, data, expected):
    arr = np.array(data, dtype=np.int64)
    got = rle2.encode(arr, signed)
    assert got == expected
    back = rle2.decode(got, signed)
    np.testing.assert_array_equal(back, arr)


def test_patched_base_decode_vector():
    # decoder-only vector: runlengthintegerreaderv2_test.go:26-36
    buf = bytes([0x8E, 0x09, 0x2B, 0x21, 0x07, 0xD0, 0x1E, 0x00, 0x14, 0x70,
                 0x28, 0x32, 0x3C, 0x46, 0x50, 0x5A, 0xFC, 0xE8])
    expected = [2030, 2000, 2020, 1000000, 2040, 2050, 2060, 2070, 2080, 2090]
    got = rle2.decode(buf, False)
    np.testing.assert_array_equal(got, expected)


def test_zigzag_vectors():
    # utils_test.go:45-61
    vals = np.array([0, -1, 1, -2, 2, -3, 3, -4, 4], dtype=np.int64)
    enc = zigzag_encode(vals)
    np.testing.assert_array_equal(enc, np.arange(9, dtype=np.uint64))
    np.testing.assert_array_equal(zigzag_decode(enc), vals)
    for v in [0, -1, 1, 2**62, -(2**62), 2**63 - 1, -(2**63)]:
        assert zigzag_decode_scalar(zigzag_encode_scalar(v)) == v


# --- randomized / adversarial round-trips (FIXTURES.md F3) ----------------

def _roundtrip(arr, signed):
    buf = rle2.encode(arr, signed)
    back = rle2.decode(buf, signed)
    np.testing.assert_array_equal(back, arr)
    return buf


def test_random_int63_signed_unsigned():
    rng = np.random.default_rng(42)
    arr = rng.integers(0, 2**62, size=100_000, dtype=np.int64)
    _roundtrip(arr, True)
    _roundtrip(arr, False)


def test_random_full_range_signed():
    rng = np.random.default_rng(7)
    arr = rng.integers(-(2**63), 2**63 - 1, size=50_000, dtype=np.int64)
    _roundtrip(arr, True)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 10, 11, 511, 512, 513, 514, 1024, 1030])
@pytest.mark.parametrize("c", [0, 1, -1, 7, 123456789, -(2**62)])
def test_all_equal(n, c):
    arr = np.full(n, c, dtype=np.int64)
    _roundtrip(arr, True)
    if c >= 0:
        buf = _roundtrip(arr, False)
        if 3 <= n <= 10:
            assert buf[0] >> 6 == rle2.SHORT_REPEAT


@pytest.mark.parametrize("step", [1, 3, -2, 100, -1])
def test_monotone_ramps(step):
    arr = np.arange(2000, dtype=np.int64) * step + 5000
    buf = _roundtrip(arr, True)
    # fixed delta collapses whole scopes: 2000 values in 4 chunks, tiny output
    assert len(buf) < 50


def test_mixed_step_monotone():
    rng = np.random.default_rng(3)
    arr = np.cumsum(rng.integers(0, 9, size=5000)).astype(np.int64)
    _roundtrip(arr, True)
    _roundtrip(arr, False)


def test_outliers_force_patched_base():
    rng = np.random.default_rng(11)
    arr = rng.integers(0, 100, size=512, dtype=np.int64)
    arr[::57] = 1_000_000  # ~2% outliers
    buf = _roundtrip(arr, False)
    assert buf[0] >> 6 == rle2.PATCHED_BASE


def test_patched_base_gap_gt_255():
    # single outlier at the end of the scope -> gap 511 escape entries
    arr = np.ones(512, dtype=np.int64)
    arr[0] = 2
    arr[511] = 1_000_000
    # break up runs so it stays a variable run
    arr[1::2] = 3
    _roundtrip(arr, False)


def test_patched_base_single_outlier_first():
    arr = np.ones(512, dtype=np.int64)
    arr[1::2] = 2
    arr[0] = 1 << 40
    _roundtrip(arr, False)


def test_width_edges():
    vals = []
    for w in list(range(1, 25)) + [26, 28, 30, 32, 40, 48, 56, 63]:
        vals.extend([(1 << w) - 1, 1 << (w - 1), 3])
    arr = np.array(vals, dtype=np.int64)
    _roundtrip(arr, False)
    _roundtrip(arr, True)
    _roundtrip(-arr, True)


def test_int64_extremes():
    arr = np.array([2**63 - 1, -(2**63), 0, -1, 1, 2**63 - 1, -(2**63), 5, 6, 7],
                   dtype=np.int64)
    _roundtrip(arr, True)


def test_runs_embedded_in_noise():
    rng = np.random.default_rng(5)
    parts = []
    for i in range(50):
        parts.append(rng.integers(0, 1000, size=rng.integers(1, 40)))
        parts.append(np.full(rng.integers(3, 600), int(rng.integers(0, 100))))
    arr = np.concatenate(parts).astype(np.int64)
    _roundtrip(arr, False)
    _roundtrip(arr, True)


def test_short_runs_of_two():
    # pairs must NOT become fixed runs (min repeat is 3)
    arr = np.array([5, 5, 9, 9, 2, 2, 7, 7, 1, 1], dtype=np.int64)
    _roundtrip(arr, False)


def test_empty_and_single():
    assert rle2.encode(np.empty(0, dtype=np.int64), True) == b""
    _roundtrip(np.array([42], dtype=np.int64), False)
    _roundtrip(np.array([-42], dtype=np.int64), True)


# --- pinned output over a seeded corpus -----------------------------------

PIN_COUNTS = (1, 2, 3, 4, 5, 10, 11, 12, 511, 512, 513, 1500, 5000, 20000)
PIN_STRIDES = (7, 100, 1000)
PIN_SHAPES = ("random_narrow", "random_wide", "equal_runs", "noisy_runs",
              "ramp_up", "ramp_down", "ramp_wide", "ramp_fixed", "outliers",
              "extremes")
PIN_VARIANTS = ((True, np.int64), (False, np.int64),
                (True, np.int32), (False, np.int32))


def _pin_values(shape, n, signed, dtype, rng):
    """One corpus stream. Unsigned streams hold only non-negative values;
    int32 streams only values that fit int32."""
    top = 2**62 if dtype == np.int64 else 2**30
    lo = -(top // 4) if signed else 0
    if shape == "random_narrow":
        v = rng.integers(0, 100, n)
    elif shape == "random_wide":
        v = rng.integers(lo, top, n)
    elif shape == "equal_runs":
        lens = rng.integers(1, 700, n)
        v = np.repeat(rng.integers(lo // 8, top // 8, n), lens)[:n]
    elif shape == "noisy_runs":
        lens = rng.integers(1, 12, n)
        v = np.repeat(rng.integers(0, 6, n), lens)[:n]
    elif shape in ("ramp_up", "ramp_down"):
        v = np.cumsum(rng.integers(0, 9, n)) + 5000
        if shape == "ramp_down":
            v = v[-1] + 5000 - v
    elif shape == "ramp_wide":
        v = np.cumsum(rng.integers(0, top // 40000, n))
    elif shape == "ramp_fixed":
        v = np.arange(n) * 3 + 17
    elif shape == "outliers":
        v = rng.integers(0, 100, n)
        v[rng.random(n) < 0.02] = 1_000_000
    else:  # extremes
        info = np.iinfo(dtype)
        pool = [info.max, 0, 1, 2, info.max - 1]
        if signed:
            pool += [info.min, -1, info.min + 1]
        v = np.array(pool)[rng.integers(0, len(pool), n)]
    return np.asarray(v, dtype=np.int64).astype(dtype)


def _pin_digest(shape, n):
    rng = np.random.default_rng([n, PIN_SHAPES.index(shape)])
    h = hashlib.sha256()
    for signed, dtype in PIN_VARIANTS:
        arr = _pin_values(shape, n, signed, dtype, rng)
        buf = rle2.encode(arr, signed)
        np.testing.assert_array_equal(rle2.decode(buf, signed), arr)
        h.update(len(buf).to_bytes(4, "little") + buf)
        for s in PIN_STRIDES:
            h.update(repr(rle2.run_index(buf, s)).encode())
    return h.hexdigest()[:16]


# first 16 hex digits of the sha256 over the 4 variants' encodings and
# run indexes, per shape, in PIN_COUNTS order
PINNED_RLE2 = {
    "random_narrow": [
        "2cd5be9001e95e39", "e8f1cc723e1c42d6", "0f047a5edb1a6675", "59c4a029213152cb",
        "448dc7afefb00122", "e8637a0dd5c4ff64", "8282bcf2ce2170af", "612d83afa47cb52e",
        "a42e93d1c866b1b4", "c8294462599a9141", "e36b2c4eeb7f46f0", "2487d0b9dbd27486",
        "442634a71e1ea9df", "f793c2ad24bdb1f8",
    ],
    "random_wide": [
        "e992c67ee93d3b72", "abf18daf8a363b91", "f3a0fa67834f7cd2", "be4f70a1f1eeacde",
        "863df13a652514c7", "23eee1b6b1e193bf", "b1745b83196fb6e2", "321c879e2fb0b5a5",
        "905568d9aa6fadfb", "b325c1549378afd8", "0dc565e2f16d2976", "7e44c2912d779003",
        "f6f975c2ec4e2fff", "ed93e6e83a025cfd",
    ],
    "equal_runs": [
        "62fe5b871fd53bde", "bb274237099997ae", "d2f2699177533f5e", "434af44a4b20b386",
        "0d524bef48e8ee3c", "fe41f7c235f96b8b", "68ac8bb13c71d586", "cdcd46774135c2c7",
        "dd8ed8db0ac1dcd3", "dfa6e61ea3b7a431", "af127ae477fd8094", "e50725b1aff7dd55",
        "cac3e5102f08fda5", "2837677aa4608d85",
    ],
    "noisy_runs": [
        "fb08adee2078a04c", "cd286ec261f63cfe", "521562df05829eb8", "4eac1924431c3d67",
        "61e70ab37223ce9d", "d74033cb5bd5c272", "cc46ec73be92f754", "494685faa1efb515",
        "98139f602b626c2a", "675bd1ad15747252", "074d88510f26e885", "3595c1dc363e053a",
        "251ddbb9904816e8", "42ddbf771bfc591b",
    ],
    "ramp_up": [
        "9139ee1c7057c902", "6929a46819438038", "db9b472655515ed6", "d2c77fc8240ef487",
        "464ddf4ba7c33c56", "e27d5578433689fa", "fc9fb5c500399736", "259ff2d4128a6d99",
        "29cca95becdd3c9e", "f28313c4f3c8963e", "da1766410ce8fec1", "21ba36ddd26e0180",
        "cb283b39e260c1ad", "c5ea69f5f84eb997",
    ],
    "ramp_down": [
        "a28821cfa5c71322", "21712d3cdfaa0674", "26855a88e77b77db", "3019712a2280b963",
        "f851829ce9fd3fb2", "202a775db1e0385c", "8a87a9c7136a9283", "543edff3ed8863a8",
        "32c4ed4e7197b786", "dde075793d6f3fc2", "02bc601a984845d8", "18ecea630f670563",
        "dd90efc695e31e4f", "220a9596c8f4d2b0",
    ],
    "ramp_wide": [
        "50445df6f4ff17b5", "5dc2672078205184", "dea75c462a0a01df", "6f3df100a1b9ba06",
        "eb7de1b07da56190", "843526141b6bbb24", "27008b53315fe418", "4c8a586f99bf816a",
        "29cc9139edae0fba", "af7d36d62e18305b", "49441472b0917f14", "405c64d7b300d94e",
        "27bc90a9eebe6443", "50d3a674a03deabf",
    ],
    "ramp_fixed": [
        "765b2b0c7cba5a66", "67749ddba1b5ace5", "bcdd4ef7c0180adb", "30dffbfc2f720b11",
        "f94989befbae7fa3", "9b207b520246f4d4", "592faada88fc7688", "03753d48d13d7fd1",
        "d6ad86d5233226f5", "2675d4d84fe4f72d", "f23dd079ea740686", "c333edef1fcc4fb3",
        "c1484689e5751b8c", "de0c3d8dd47d0bad",
    ],
    "outliers": [
        "fa2439b011c60f1d", "5997f6facdb460f3", "030ab9aa277b11ad", "7a48e990ccb619e8",
        "7764967422c475c5", "4a5faca25fb13393", "383b25a3b550b668", "6dd384c4ebac8dac",
        "91640018cd3cc277", "4c346e91d31b1834", "4fd25841a37c6620", "aeec96a244eb7a81",
        "68f0080d8a42f751", "2f6e8881d71508bd",
    ],
    "extremes": [
        "6088544a7489e3c2", "64cc4d871bad4ce4", "3ebd1185a43c3777", "20d5d697dca03630",
        "3095c8d43461f462", "52765153a44e260c", "8a9fa20e99ffc891", "3bbfc46dc21c3d0b",
        "a387653b280160b2", "d5cb21a4c0609d07", "dc5e56556a32e61a", "3e6f54177ce5c806",
        "73a7a206002a57c1", "6c4f3aa6933ff97d",
    ],
}


@pytest.mark.parametrize("shape", PIN_SHAPES)
def test_encoding_and_run_index_pinned(shape):
    """Encoded bytes and seek points over a seeded corpus: every sub-mode,
    0 to several hundred variable scopes per stream, signed and unsigned,
    int32 and int64 input.

    The digests were taken when streams with 1-3 variable scopes went
    through a scalar encoder and streams with 4 or more through
    ``_encode_var_ragged``, which now encodes both. Three of the five
    reference byte vectors above hold a single variable scope, so they
    now check the grouped encoder too."""
    got = [_pin_digest(shape, n) for n in PIN_COUNTS]
    assert got == PINNED_RLE2[shape]


def test_pin_corpus_scope_counts():
    """The corpus reaches streams with 1-3 and with 4+ variable scopes,
    and every run tag."""
    nvar = set()
    tags = set()
    for shape in PIN_SHAPES:
        for n in PIN_COUNTS:
            rng = np.random.default_rng([n, PIN_SHAPES.index(shape)])
            for signed, dtype in PIN_VARIANTS:
                arr = _pin_values(shape, n, signed, dtype, rng)
                nvar.add(sum(k for k, _, _ in rle2._segments(arr)))
                buf = rle2.encode(arr, signed)
                tags.update(buf[off] >> 6 for _, off in rle2.run_index(buf, 1))
    assert {1, 2, 3} <= nvar and max(nvar) >= 4
    assert tags == {rle2.SHORT_REPEAT, rle2.DIRECT, rle2.PATCHED_BASE,
                    rle2.DELTA}


# --- cross-check against pyarrow's C++ ORC reader and writer --------------

def _submode_table(n=5000):
    """int64 columns each built to force one RLEv2 sub-mode, plus one
    with fewer than 4 variable scopes."""
    rng = np.random.default_rng(2024)
    nrep = n // 3 + 1
    rep = np.repeat(np.arange(nrep) * 7 + 1, rng.integers(3, 11, nrep))[:n]
    outl = rng.integers(0, 100, n)
    outl[::50] = 1_000_000_007
    few = np.full(n, -3)
    few[:900] = rng.integers(-500, 500, 900)
    return pa.table({
        "short_repeat": rep.astype(np.int64),
        "direct": rng.integers(-(2**40), 2**40, n),
        "patched_base": outl.astype(np.int64),
        "delta": np.cumsum(rng.integers(1, 9, n)).astype(np.int64),
        "few_scopes": few.astype(np.int64),
    })


_FORCED_TAG = {"short_repeat": rle2.SHORT_REPEAT, "direct": rle2.DIRECT,
               "patched_base": rle2.PATCHED_BASE, "delta": rle2.DELTA}


@pytest.mark.parametrize("rows", [5000, 40])
def test_submodes_crosscheck_pyarrow_orc(tmp_path, rows):
    """The golden ORC corpus may be absent, so pyarrow's C++ ORC is the
    independent RLEv2 implementation: our writer's file reads back through
    it, and its file reads back through ours, for every sub-mode."""
    import pyarrow.orc as paorc

    from orc_ray.sources.orcfile import ORCFile
    from orc_ray.sources.orcwriter import write_orc_file

    table = _submode_table().slice(0, rows)
    for name, tag in _FORCED_TAG.items():
        buf = rle2.encode(table.column(name).to_numpy(), True)
        tags = {buf[off] >> 6 for _, off in rle2.run_index(buf, 1)}
        assert tag in tags, name
    few = table.column("few_scopes").to_numpy()
    assert 0 < sum(k for k, _, _ in rle2._segments(few)) < 4

    ours = str(tmp_path / "ours.orc")
    write_orc_file(table, ours, compression="none")
    assert paorc.read_table(ours).equals(table)
    theirs = str(tmp_path / "theirs.orc")
    paorc.write_table(table, theirs, compression="uncompressed")
    assert ORCFile(theirs).read().equals(table)
