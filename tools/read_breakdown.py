"""Where the time and bytes of a point read go.

  python tools/read_breakdown.py --dir D [--reads N] [--seed S]

Runs N seeded reads of 1-64 rows over the encoded directory D the way
``orc_ray decode --rows`` and perfbench's read op do: ``plan_row_ranges``,
then ``decode_blob_rows`` on each picked stripe's blob path. Each read's
start and length are drawn as perfbench's ``read_plan`` draws them.

It prints the median microseconds per read of the whole read, of planning
and of each top-level column (its ``_decode_column_rows`` call), then per
stream (``column:KIND``) the mean per read of ``RangeReader.read`` calls,
bytes those calls touched, raw bytes decompressed (the output of
``chunked.decompress``, which every outer kind and every chunked string
payload goes through) and microseconds spent in ``chunked.decompress``.

The engine functions are wrapped in this process only; no engine code
changes. The first 20 reads warm caches and are not counted.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from orc_ray import stripe  # noqa: E402
from orc_ray.codecs import chunked  # noqa: E402
from orc_ray.pipelines import decode  # noqa: E402
from orc_ray.state import manifest as mf  # noqa: E402
from orc_ray.state import storage  # noqa: E402

WARMUP = 20


class Ledger:
    """Per-read counters filled by the wrappers below."""

    def __init__(self):
        self.us = defaultdict(float)      # layer -> microseconds
        # stream -> calls, bytes, raw bytes, decompress microseconds
        self.io = defaultdict(lambda: [0, 0, 0, 0.0])
        self.stream: list[str] = []       # the _raw_range calls now open
        self.last = "?"                   # the stream _raw_range read last
        self.depth = 0                    # _decode_column_rows nesting


def install(led: Ledger) -> None:
    plan, column = decode.plan_row_ranges, stripe._decode_column_rows
    raw_range, read = stripe._raw_range, stripe.RangeReader.read
    decompress = chunked.decompress

    def timed_plan(*a, **k):
        t0 = time.perf_counter()
        try:
            return plan(*a, **k)
        finally:
            led.us["plan_row_ranges"] += (time.perf_counter() - t0) * 1e6

    def timed_column(reader, streams, stride, cm, *a):
        led.depth += 1
        t0 = time.perf_counter()
        try:
            return column(reader, streams, stride, cm, *a)
        finally:
            led.depth -= 1
            if led.depth == 0:
                led.us[f"column {cm['name']}"] += (
                    time.perf_counter() - t0) * 1e6

    def named_range(reader, rec, *a, **k):
        led.last = f"{rec['column']}:{rec['kind']}"
        led.stream.append(led.last)
        try:
            return raw_range(reader, rec, *a, **k)
        finally:
            led.stream.pop()

    def counted_read(self, offset, length):
        c = led.io[led.stream[-1] if led.stream else led.last]
        c[0] += 1
        c[1] += length
        return read(self, offset, length)

    def counted_decompress(*a, **k):
        # a string blob's own codec decompresses after _raw_range returns
        t0 = time.perf_counter()
        out = decompress(*a, **k)
        c = led.io[led.stream[-1] if led.stream else led.last]
        c[2] += len(out)
        c[3] += (time.perf_counter() - t0) * 1e6
        return out

    decode.plan_row_ranges = timed_plan
    stripe._decode_column_rows = timed_column
    stripe._raw_range = named_range
    stripe.RangeReader.read = counted_read
    chunked.decompress = counted_decompress


def one_read(man, blobs: str, start: int, n: int) -> int:
    rows = 0
    for p in decode.plan_row_ranges(man, start, n):
        t, _ = stripe.decode_blob_rows(
            storage.join(blobs, p["blob_path"]), json.loads(p["meta_json"]),
            p["row_lo"], p["row_cnt"])
        rows += t.num_rows
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--dir", required=True, help="encoded directory")
    ap.add_argument("--reads", type=int, default=500)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)

    man = mf.read_manifest(args.dir)
    blobs = mf.blobs_dir(args.dir)
    total_rows = int(np.asarray(man.column("num_rows")).sum())
    rng = np.random.default_rng(args.seed)
    led = Ledger()
    install(led)
    per_read: list[tuple[float, dict, dict]] = []
    for k in range(WARMUP + args.reads):
        n = int(rng.integers(1, 65))
        start = int(rng.integers(0, total_rows - n + 1))
        led.us.clear()
        led.io.clear()
        led.last = "?"
        t0 = time.perf_counter()
        got = one_read(man, blobs, start, n)
        wall = (time.perf_counter() - t0) * 1e6
        if got != n:
            raise SystemExit(f"read {start}:{start + n} returned {got} rows")
        if k >= WARMUP:
            per_read.append((wall, dict(led.us),
                             {s: list(c) for s, c in led.io.items()}))

    print(f"{args.reads} reads (seed {args.seed}) over {total_rows} rows in "
          f"{man.num_rows} stripes of {args.dir}")
    layers = sorted({name for _, us, _ in per_read for name in us},
                    key=lambda s: (s != "plan_row_ranges", s))
    print(f"{'median us/read':<32}{np.median([w for w, _, _ in per_read]):>10.1f}"
          "  whole read")
    for name in layers:
        med = np.median([us.get(name, 0.0) for _, us, _ in per_read])
        print(f"{name:<32}{med:>10.1f}")
    print()
    print(f"{'stream':<32}{'reads/read':>12}{'KB touched':>12}"
          f"{'KB raw':>12}{'us inflate':>12}")
    streams = sorted({s for _, _, io in per_read for s in io})
    for s in streams:
        c = np.mean([io.get(s, [0, 0, 0, 0.0]) for _, _, io in per_read],
                    axis=0)
        print(f"{s:<32}{c[0]:>12.2f}{c[1] / 1e3:>12.1f}{c[2] / 1e3:>12.1f}"
              f"{c[3]:>12.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
