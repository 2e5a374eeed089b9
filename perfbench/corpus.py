"""Seeded benchmark inputs and their reference checksums.

Shards are generated in this process with ``synthesize_tokens`` (no worker
pool), written as Parquet, and hashed with the engine's own row hash so
every decode and every row read can be checked against the input.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1


@dataclass
class Corpus:
    paths: list[str]          # shard files, in the planner's order
    rows: int
    tokens: int
    raw_bytes: int            # Arrow buffer bytes of the generated tables
    checksum: dict            # multiset checksum, as checksum_encoded gives
    row_hashes: np.ndarray    # per-row hash in global row order (uint64)


def generate(out_dir: str, rows: int, shards: int, seed: int,
             mean_log: float, rows_per_row_group: int = 4096) -> Corpus:
    """Write ``shards`` Parquet files holding ``rows`` F1 rows drawn from
    ``seed`` and return them with their reference checksums. The same
    arguments always produce the same files."""
    import pyarrow.parquet as pq

    from orc_ray.pipelines.verify import row_hashes
    from orc_ray.sources.tokens import synthesize_tokens

    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    per = rows // shards
    paths, hashes = [], []
    tokens = raw = 0
    for k in range(shards):
        n = per if k < shards - 1 else rows - per * (shards - 1)
        t = synthesize_tokens(n, seed=seed, row_offset=k * per,
                              mean_log=mean_log)
        path = os.path.join(out_dir, f"shard-{k:03d}.parquet")
        pq.write_table(t, path, row_group_size=rows_per_row_group)
        paths.append(path)
        hashes.append(row_hashes(t))
        tokens += int(np.asarray(t.column("n_tok")).sum())
        raw += t.nbytes
    h = np.concatenate(hashes)
    checksum = {
        "count": len(h),
        "hsum": int(h.sum(dtype=np.uint64)) & _MASK64,
        "hxor": int(np.bitwise_xor.reduce(h)),
    }
    return Corpus(paths, rows, tokens, raw, checksum, h)


def read_plan(rng: np.random.Generator, rows: int, max_rows: int = 64):
    """One seeded random read: (global row start, row count)."""
    n = int(rng.integers(1, max_rows + 1))
    start = int(rng.integers(0, rows - n + 1))
    return start, n
