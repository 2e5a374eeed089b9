"""Planar (FOR + byte-plane split) codec: round-trip, seekability, and
selector integration. The codec exists because the outer chunked-zlib stage
(compressioncodec.go analogue) compresses byte-aligned planes ~30% smaller
than odd-width bit-packed residuals on token-id distributions."""

import numpy as np
import pytest

from orc_ray.codecs import planar
from orc_ray.config import EncoderConfig
from orc_ray.selector import choose_int_codec, decode_int_stream, encode_int_stream


@pytest.mark.parametrize("dtype", [np.int32, np.int64, np.uint32])
@pytest.mark.parametrize("span,base", [(1, 0), (200, -100), (70_000, 0),
                                       (2**31 - 1, -2**30)])
def test_roundtrip(dtype, span, base):
    if dtype == np.uint32 and base < 0:
        base = 0
    rng = np.random.default_rng(42)
    v = rng.integers(base, base + span, 10_000).astype(dtype)
    out = planar.decode(planar.encode(v))
    assert out.dtype == np.int64
    assert np.array_equal(out, v.astype(np.int64))


def test_empty_and_single():
    assert len(planar.decode(planar.encode(np.empty(0, dtype=np.int64)))) == 0
    one = np.array([-7], dtype=np.int64)
    assert np.array_equal(planar.decode(planar.encode(one)), one)


def test_wide_span_int64():
    v = np.array([-2**40, 0, 2**40, 12345], dtype=np.int64)
    assert np.array_equal(planar.decode(planar.encode(v)), v)


def test_range_decode_matches_slice():
    rng = np.random.default_rng(7)
    v = rng.integers(0, 50_257, 5_000).astype(np.int32)
    buf = planar.encode(v)
    n, vmin, k, hdr = planar.parse_header(buf[:24])
    assert n == len(v)
    lo, hi = 1234, 2345
    payloads = [buf[a:b] for a, b in planar.plane_ranges(lo, hi, n, k, hdr)]
    # the range read touches exactly k*(hi-lo) payload bytes
    assert sum(len(p) for p in payloads) == k * (hi - lo)
    got = planar.decode_range(payloads, lo, hi, vmin)
    assert np.array_equal(got, v[lo:hi].astype(np.int64))


def test_selector_dispatch():
    v = np.arange(1000, dtype=np.int64)
    buf = encode_int_stream(v, "planar", True)
    assert np.array_equal(decode_int_stream(buf, "planar", True, len(v)), v)


def test_selector_prefers_planar_on_tokenlike_data_post_zlib():
    """Uniform token ids in [0, 50k): odd-width FOR beats planar pre-
    compression, but planar wins after an outer DEFLATE stage (its Huffman
    pass exploits the skewed high plane) — the selector must measure the
    post-outer size with the outer kind the writer will use."""
    rng = np.random.default_rng(3)
    v = rng.integers(0, 50_257, 200_000).astype(np.int32)
    cfg = EncoderConfig(outer_compression="zlib")
    choice = choose_int_codec(v, False, cfg)
    assert choice == "planar"
    # with the outer stage disabled the raw-size ranking returns
    cfg_raw = EncoderConfig(outer_compression="none")
    assert choose_int_codec(v, False, cfg_raw) != "planar"


def test_selector_prefers_planar_on_mixed_corpus_post_zstd():
    """The default outer kind (zstd): on the bench corpus's mixed
    uniform/run/ramp token streams, plane-splitting exposes the run and
    ramp bytes to the block compressor and planar must win the measured
    choice (a strided sample used to invert this ranking — block sampling
    keeps the local structure the measurement depends on)."""
    from orc_ray.sources.tokens import synthesize_tokens

    t = synthesize_tokens(5_000, seed=42)
    v = t.column("tokens").combine_chunks().values.to_numpy(
        zero_copy_only=False).astype(np.int32)
    cfg = EncoderConfig()
    assert cfg.outer_compression == "auto"  # auto = measured zstd
    assert choose_int_codec(v, False, cfg) == "planar"


@pytest.mark.parametrize("base", [0, -100, 2**20])
def test_int32_assemble_path(base):
    """out_dtype=int32 assembles in 32-bit space and matches the 64-bit
    decode exactly (the hot token-stream path)."""
    rng = np.random.default_rng(11)
    v = (rng.integers(0, 50_257, 20_000) + base).astype(np.int32)
    buf = planar.encode(v)
    got32 = planar.decode(buf, out_dtype=np.int32)
    assert got32.dtype == np.int32
    assert np.array_equal(got32, v)
    assert np.array_equal(got32.astype(np.int64), planar.decode(buf))
    # range decode takes the same 32-bit path
    n, vmin, k, hdr = planar.parse_header(buf[:24])
    lo, hi = 111, 3333
    payloads = [buf[a:b] for a, b in planar.plane_ranges(lo, hi, n, k, hdr)]
    got_r = planar.decode_range(payloads, lo, hi, vmin, out_dtype=np.int32)
    assert got_r.dtype == np.int32
    assert np.array_equal(got_r, v[lo:hi])


_N_AT_TILES = [1, planar._TILE - 1, planar._TILE, planar._TILE + 1,
               2 * planar._TILE + 3]


@pytest.mark.parametrize("n", _N_AT_TILES)
@pytest.mark.parametrize("dtype,k", [(np.int64, k) for k in range(1, 9)]
                         + [(np.int32, k) for k in range(1, 5)])
def test_tiled_assemble_roundtrip(dtype, k, n):
    """Every plane count at both output widths, at and around the tile
    size: values span [lo, lo + 2^(8k)) with a negative minimum (k=8 is
    the full int64 span), and both the whole-stream and the range decode
    return the encoder's input."""
    lo = -(1 << (8 * k - 1))
    hi = lo + (1 << (8 * k)) - 1
    rng = np.random.default_rng(k * 1000 + n)
    v = rng.integers(lo, hi, n, endpoint=True, dtype=np.int64)
    v[0] = lo
    v[-1] = hi if n > 1 else lo
    v = v.astype(dtype)
    buf = planar.encode(v)
    size, vmin, planes, hdr = planar.parse_header(buf[:24])
    assert (size, vmin, planes) == (n, lo, k if n > 1 else 1)
    got = planar.decode(buf, out_dtype=dtype)
    assert got.dtype == dtype
    assert np.array_equal(got, v)
    edge = planar._TILE
    for a, b in [(0, n), (edge - 5, min(n, edge + 7)), (n - 1, n)]:
        if not 0 <= a < b:
            continue
        payloads = [buf[x:y] for x, y in
                    planar.plane_ranges(a, b, n, planes, hdr)]
        got_r = planar.decode_range(payloads, a, b, vmin, out_dtype=dtype)
        assert got_r.dtype == dtype
        assert np.array_equal(got_r, v[a:b]), (a, b)
