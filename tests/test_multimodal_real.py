"""Real media codecs (VERDICT r4 #7): the PNG/WAV decode behind
the media decoder's REAL mode is content-checked — decoded dimensions,
exact pixel round-trips (all filter types, palette), sample round-trips,
and feature vectors derived from real pixel/sample content through the
Ray task stage."""

import hashlib
import struct
import zlib

import numpy as np
import pyarrow as pa
import pytest

from orc_ray.functions import multimodal
from orc_ray.functions.pngcodec import (CodecError, decode_png, decode_wav,
                                        encode_png, encode_wav,
                                        resize_nearest)


@pytest.mark.parametrize("shape", [(13, 17), (8, 8, 3), (5, 31, 4),
                                   (24, 3, 2), (1, 1), (1, 1, 3)])
def test_png_roundtrip_exact(shape):
    rng = np.random.default_rng(sum(shape))
    img = rng.integers(0, 256, shape, dtype=np.uint8)
    out = decode_png(encode_png(img))
    np.testing.assert_array_equal(out, img)


def _filtered_png(img: np.ndarray, ftype: int) -> bytes:
    """Hand-build a PNG whose every scanline uses filter ``ftype`` —
    forward-filtering per the spec so the decoder's unfilter is tested
    against an independent implementation."""
    h, w, c = img.shape
    bpp = c
    flat = img.reshape(h, w * c).astype(np.int16)
    rows = []
    prev = np.zeros(w * c, np.int16)
    for y in range(h):
        cur = flat[y]
        left = np.concatenate([np.zeros(bpp, np.int16), cur[:-bpp]])
        ul = np.concatenate([np.zeros(bpp, np.int16), prev[:-bpp]])
        if ftype == 0:
            enc = cur
        elif ftype == 1:
            enc = cur - left
        elif ftype == 2:
            enc = cur - prev
        elif ftype == 3:
            enc = cur - ((left + prev) >> 1)
        else:  # Paeth
            p = left + prev - ul
            pa_ = np.abs(p - left)
            pb = np.abs(p - prev)
            pc_ = np.abs(p - ul)
            pred = np.where((pa_ <= pb) & (pa_ <= pc_), left,
                            np.where(pb <= pc_, prev, ul))
            enc = cur - pred
        rows.append(bytes([ftype]) + (enc & 0xFF).astype(np.uint8).tobytes())
        prev = cur
    raw = b"".join(rows)
    ihdr = struct.pack(">IIBBBBB", w, h, 8, {3: 2, 4: 6, 1: 0, 2: 4}[c],
                       0, 0, 0)

    def chunk(tag, body):
        return (struct.pack(">I", len(body)) + tag + body
                + struct.pack(">I", zlib.crc32(tag + body)))

    return (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr)
            + chunk(b"IDAT", zlib.compress(raw)) + chunk(b"IEND", b""))


@pytest.mark.parametrize("ftype", [0, 1, 2, 3, 4])
def test_png_all_filter_types_decode(ftype):
    rng = np.random.default_rng(ftype + 10)
    img = rng.integers(0, 256, (11, 9, 3), dtype=np.uint8)
    out = decode_png(_filtered_png(img, ftype))
    np.testing.assert_array_equal(out, img)


def test_png_palette_and_trns():
    rng = np.random.default_rng(7)
    plte = rng.integers(0, 256, (16, 3), dtype=np.uint8)
    idx = rng.integers(0, 16, (10, 12), dtype=np.uint8)
    ihdr = struct.pack(">IIBBBBB", 12, 10, 8, 3, 0, 0, 0)
    raw = b"".join(b"\x00" + idx[y].tobytes() for y in range(10))

    def chunk(tag, body):
        return (struct.pack(">I", len(body)) + tag + body
                + struct.pack(">I", zlib.crc32(tag + body)))

    base = (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr)
            + chunk(b"PLTE", plte.tobytes()))
    tail = chunk(b"IDAT", zlib.compress(raw)) + chunk(b"IEND", b"")
    out = decode_png(base + tail)
    np.testing.assert_array_equal(out, plte[idx])

    trns = np.arange(16, dtype=np.uint8) * 17
    out_a = decode_png(base + chunk(b"tRNS", trns.tobytes()) + tail)
    assert out_a.shape == (10, 12, 4)
    np.testing.assert_array_equal(out_a[..., :3], plte[idx])
    np.testing.assert_array_equal(out_a[..., 3], trns[idx])


def test_png_rejects_malformed():
    with pytest.raises(CodecError):
        decode_png(b"not a png at all")
    rng = np.random.default_rng(0)
    good = encode_png(rng.integers(0, 256, (4, 4), dtype=np.uint8))
    with pytest.raises(CodecError):
        decode_png(good[:20])  # truncated
    # 16-bit depth unsupported
    ihdr = struct.pack(">IIBBBBB", 2, 2, 16, 0, 0, 0, 0)

    def chunk(tag, body):
        return (struct.pack(">I", len(body)) + tag + body
                + struct.pack(">I", zlib.crc32(tag + body)))

    bad = (b"\x89PNG\r\n\x1a\n" + chunk(b"IHDR", ihdr)
           + chunk(b"IDAT", zlib.compress(b"\x00" * 10))
           + chunk(b"IEND", b""))
    with pytest.raises(CodecError):
        decode_png(bad)


def test_resize_nearest():
    img = np.arange(24, dtype=np.uint8).reshape(4, 6)
    small = resize_nearest(img, 2, 3)
    assert small.shape == (2, 3)
    np.testing.assert_array_equal(small, img[[0, 2]][:, [0, 2, 4]])
    up = resize_nearest(img, 8, 6)
    assert up.shape == (8, 6)


@pytest.mark.parametrize("ch", [1, 2])
def test_wav_roundtrip(ch):
    rng = np.random.default_rng(ch)
    s = rng.integers(-30000, 30000, (500, ch), dtype=np.int16).squeeze()
    got, rate = decode_wav(encode_wav(s, 22050))
    assert rate == 22050
    np.testing.assert_array_equal(got, s)


def test_wav_rejects_malformed():
    with pytest.raises(CodecError):
        decode_wav(b"RIFFxxxxJUNK")
    with pytest.raises(CodecError):
        decode_wav(b"plainly not audio")


def test_media_decoder_real_content(ray_session):
    """End-to-end through the Ray task stage: REAL-mode features
    must equal pixel/sample math done directly on the decoded payloads —
    dimensions and a content digest, not just row counts."""
    import ray.data

    media = multimodal.synthesize_real_media(32, seed=9)
    ds = ray.data.from_arrow(media).repartition(4)
    out = multimodal.decode_media_dataset(
        ds, mode=multimodal.REAL, batch_size=8).take_all()
    assert len(out) == 32
    rows = {r["media_id"]: r for r in out}
    meta = {r["media_id"]: r for r in media.to_pylist()}
    digest = hashlib.sha256()
    for mid in sorted(rows):
        feats = np.asarray(rows[mid]["features"], np.float32)
        assert feats.shape == (32,)
        m = meta[mid]
        if m["kind"] == "image":
            img = decode_png(m["payload"])
            # decoded dimensions must match the table's metadata
            assert img.shape[0] == m["height"] and img.shape[1] == m["width"]
            if img.ndim == 2:
                grey = img.astype(np.float32)
            elif img.shape[2] == 2:
                grey = img[..., 0].astype(np.float32)
            else:
                grey = img[..., :3].astype(np.float32).mean(axis=2)
            want = (resize_nearest(grey, 4, 8) / 255.0).astype(
                np.float32).ravel()
        else:
            s, rate = decode_wav(m["payload"])
            assert rate == m["sample_rate"] and len(s) == m["n_frames"]
            x = s.astype(np.float64)
            want = np.asarray(
                [np.sqrt((g * g).mean()) if len(g) else 0.0
                 for g in np.array_split(x, 32)], np.float32) / 32768.0
        np.testing.assert_allclose(feats, want, rtol=1e-6)
        digest.update(feats.tobytes())
    # pin the full feature content (any codec regression flips this)
    assert digest.hexdigest() == EXPECTED_DIGEST


# filled by the first verified run below; regenerate deliberately if the
# synthesizer or feature definition changes
EXPECTED_DIGEST = \
    "f7ae9f75141bae6ca1152ab64f6ca7edbf8ad9b231aeba13f004645a80e443b0"


def test_media_decoder_real_video_raises():
    with pytest.raises(NotImplementedError):
        multimodal.decode_one("video", b"\x00\x01", mode=multimodal.REAL)


def test_q_media_decode_runs_real(ray_session):
    from orc_ray.pipelines.queries_extras import q_media_decode

    out = q_media_decode("/root/testdata/sf0.001")
    rows = out.take_all() if hasattr(out, "take_all") else out
    assert len(rows) == 64


def test_media_decoder_grey_alpha_uses_luminance():
    """Grey+alpha PNGs: features come from channel 0 only — a fully
    opaque alpha plane must not shift them."""
    rng = np.random.default_rng(3)
    grey = rng.integers(0, 256, (16, 16), dtype=np.uint8)
    ga = np.dstack([grey, np.full((16, 16), 255, np.uint8)])
    f_ga = multimodal.decode_one("image", encode_png(ga),
                                 mode=multimodal.REAL)
    f_g = multimodal.decode_one("image", encode_png(grey),
                                mode=multimodal.REAL)
    np.testing.assert_array_equal(f_ga, f_g)
