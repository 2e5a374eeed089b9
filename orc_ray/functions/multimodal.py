"""Multimodal column stages: image/audio/video as opaque binary columns.

Three codec modes.  ``REAL`` actually decodes payloads — PNG images and
RIFF/PCM WAV audio via the dependency-free numpy codecs in
``pngcodec.py`` — and derives content features from real pixels/samples
(video containers have no codec in this environment and raise).
``DETERMINISTIC_FAKE`` produces a seeded fake "decoded" tensor from the
payload digest; ``STRICT`` raises NotImplementedError.  All the
Ray-side plumbing is identical and tested across modes: typed schema
(binary payload + metadata struct columns), plain batch functions run as
Ray tasks, small batch sizes for large payloads, and a stable output
layout (fixed-size feature vectors).

At 100 TB ``batch_size`` is sized so payload x batch fits a worker's
heap; a heavier decoder (libpng / ffmpeg / soundfile) plugs into
``decode_one``.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

MEDIA_SCHEMA = pa.schema([
    ("media_id", pa.int64()),
    ("kind", pa.string()),          # image | audio | video
    ("payload", pa.binary()),       # opaque encoded bytes
    ("width", pa.int32()),          # metadata travels as typed columns
    ("height", pa.int32()),
    ("sample_rate", pa.int32()),
    ("n_frames", pa.int32()),
])

DETERMINISTIC_FAKE = "fake"
STRICT = "strict"
REAL = "real"


def synthesize_media(n: int = 64, seed: int = 42) -> pa.Table:
    """Deterministic fake media table for tests (payload = seeded bytes)."""
    rng = np.random.default_rng(seed)
    kinds = np.array(["image", "audio", "video"])[rng.integers(0, 3, n)]
    payloads = [rng.integers(0, 256, int(rng.integers(64, 4096)),
                             dtype=np.uint8).tobytes() for _ in range(n)]
    return pa.table({
        "media_id": pa.array(np.arange(n), type=pa.int64()),
        "kind": pa.array(kinds.tolist(), type=pa.string()),
        "payload": pa.array(payloads, type=pa.binary()),
        "width": pa.array(rng.integers(16, 512, n).astype(np.int32)),
        "height": pa.array(rng.integers(16, 512, n).astype(np.int32)),
        "sample_rate": pa.array(np.full(n, 16000, dtype=np.int32)),
        "n_frames": pa.array(rng.integers(1, 300, n).astype(np.int32)),
    }).cast(MEDIA_SCHEMA)


def synthesize_real_media(n: int = 64, seed: int = 42) -> pa.Table:
    """Deterministic media table whose payloads are REAL encoded files:
    seeded-gradient PNG images and seeded-sine PCM WAVs, with metadata
    matching the encoded content (so a real decode can be checked
    against width/height/sample_rate)."""
    from .pngcodec import encode_png, encode_wav

    rng = np.random.default_rng(seed)
    rows = {k: [] for k in ("media_id", "kind", "payload", "width",
                            "height", "sample_rate", "n_frames")}
    for i in range(n):
        if i % 2 == 0:
            h, w = int(rng.integers(8, 64)), int(rng.integers(8, 64))
            c = int(rng.choice([1, 3, 4]))
            yy, xx = np.mgrid[0:h, 0:w]
            base = ((yy * 7 + xx * 13 + i) % 256).astype(np.uint8)
            img = base if c == 1 else np.dstack(
                [(base + 31 * k) % 256 for k in range(c)]).astype(np.uint8)
            rows["kind"].append("image")
            rows["payload"].append(encode_png(img))
            rows["width"].append(w)
            rows["height"].append(h)
            rows["sample_rate"].append(0)
            rows["n_frames"].append(1)
        else:
            rate = 16000
            n_s = int(rng.integers(400, 4000))
            t = np.arange(n_s, dtype=np.float64)
            freq = 100.0 + (i % 17) * 50.0
            s = (np.sin(2 * np.pi * freq * t / rate)
                 * 12000).astype(np.int16)
            rows["kind"].append("audio")
            rows["payload"].append(encode_wav(s, rate))
            rows["width"].append(0)
            rows["height"].append(0)
            rows["sample_rate"].append(rate)
            rows["n_frames"].append(n_s)
        rows["media_id"].append(i)
    return pa.table({
        "media_id": pa.array(rows["media_id"], pa.int64()),
        "kind": pa.array(rows["kind"], pa.string()),
        "payload": pa.array(rows["payload"], pa.binary()),
        "width": pa.array(rows["width"], pa.int32()),
        "height": pa.array(rows["height"], pa.int32()),
        "sample_rate": pa.array(rows["sample_rate"], pa.int32()),
        "n_frames": pa.array(rows["n_frames"], pa.int32()),
    }).cast(MEDIA_SCHEMA)


FEATURE_DIM = 32


def decode_one(kind: str, payload: bytes,
               mode: str = DETERMINISTIC_FAKE) -> np.ndarray:
    """Decode one payload -> fixed-size feature vector.

    ``mode=REAL`` decodes real payloads — PNG via ``pngcodec.decode_png``
    (features: 4x8 nearest-resized greyscale grid, /255) and WAV via
    ``pngcodec.decode_wav`` (features: RMS over 32 equal segments,
    /32768); video raises (no container codec in this environment).
    ``mode=DETERMINISTIC_FAKE`` derives a seeded feature vector from the
    payload digest (stable across runs/workers). ``mode=STRICT`` raises.
    """
    if mode == REAL:
        from . import pngcodec

        if kind == "image":
            img = pngcodec.decode_png(payload)
            if img.ndim == 2:
                grey = img.astype(np.float32)
            elif img.shape[2] == 2:
                # grey+alpha: luminance is channel 0 — averaging in
                # the alpha plane would corrupt the features
                grey = img[..., 0].astype(np.float32)
            else:
                grey = img[..., :3].astype(np.float32).mean(axis=2)
            grid = pngcodec.resize_nearest(grey, 4, 8)
            return (grid / 255.0).astype(np.float32).ravel()
        if kind == "audio":
            s, _rate = pngcodec.decode_wav(payload)
            x = (s.astype(np.float64) if s.ndim == 1
                 else s.astype(np.float64).mean(axis=1))
            segs = np.array_split(x, FEATURE_DIM)
            rms = [np.sqrt((g * g).mean()) if len(g) else 0.0
                   for g in segs]
            return (np.asarray(rms, np.float32) / 32768.0)
        raise NotImplementedError(
            f"no {kind} container codec in this environment; plug "
            "ffmpeg/pyav into decode_one")
    if mode == STRICT:
        raise NotImplementedError(
            f"no {kind} codec in this environment; install PIL/ffmpeg "
            "and implement decode_one"
        )
    if mode != DETERMINISTIC_FAKE:
        raise ValueError(mode)
    digest = hashlib.sha256(payload).digest()
    seed = int.from_bytes(digest[:8], "little")
    rng = np.random.default_rng(seed)
    return rng.standard_normal(FEATURE_DIM).astype(np.float32)


def decode_media(batch: pa.Table, mode: str = DETERMINISTIC_FAKE) -> pa.Table:
    """Media batch -> (media_id, kind, payload_bytes, features)."""
    kinds = batch.column("kind").to_pylist()
    payloads = batch.column("payload").to_pylist()
    feats = np.vstack([
        decode_one(k, p, mode) for k, p in zip(kinds, payloads)
    ]) if batch.num_rows else np.empty((0, FEATURE_DIM), np.float32)
    flat = pa.array(feats.ravel(), type=pa.float32())
    offsets = pa.array(
        np.arange(0, (batch.num_rows + 1) * FEATURE_DIM, FEATURE_DIM,
                  dtype=np.int32))
    return pa.table({
        "media_id": batch.column("media_id"),
        "kind": batch.column("kind"),
        "payload_bytes": pa.array(
            [len(p) for p in payloads], type=pa.int64()),
        "features": pa.ListArray.from_arrays(offsets, flat),
    })


def sample_frames(batch: pa.Table, stride: int = 30) -> pa.Table:
    """Video stage: pick every ``stride``-th frame index (metadata-only here;
    a real implementation would pyav-decode just those frames)."""
    n_frames = batch.column("n_frames").to_numpy(zero_copy_only=False)
    idx_lists = [list(range(0, int(n), stride)) for n in n_frames]
    return pa.table({
        "media_id": batch.column("media_id"),
        "sampled_frames": pa.array(idx_lists, type=pa.list_(pa.int32())),
        "n_sampled": pa.array([len(x) for x in idx_lists], type=pa.int64()),
    })


def decode_media_dataset(ds, mode: str = DETERMINISTIC_FAKE,
                         batch_size: int = 16):
    """Media decode as Ray tasks: small batches, because payloads are
    large."""
    return ds.map_batches(decode_media, fn_kwargs={"mode": mode},
                          batch_size=batch_size, batch_format="pyarrow")
