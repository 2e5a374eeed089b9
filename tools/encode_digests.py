"""Digest the encoder's output on both perfbench corpora.

  python tools/encode_digests.py [CHECKOUT]

Imports ``orc_ray`` and ``perfbench`` from CHECKOUT (default: the
checkout this script sits in), so the same script digests a parent
checkout and the head and the two outputs can be diffed. For each corpus
in ``perfbench.session.WORKLOADS`` it builds the shards the way
``perfbench.corpus.generate`` does (``SHARDS`` shards, seed 1), cuts each
with ``split_stripes`` and encodes every stripe with ``encode_table``,
one ``SelectorState`` per shard and the stripe's dominant source as the
selector group, as an encode job's task does. That runs under
``EncoderConfig()``, ``EncoderConfig.size_priority()`` and (``bloom``)
``EncoderConfig(bloom_columns=("doc_id", "source", "n_tok"))``, so the
string and int bloom-filter streams are digested too.

Prints one line per corpus and config: the sha256 over every stripe's
(blob sha256, compact ``meta_json`` sha256) in order, the stripe count,
the encoded bytes and the encode seconds (``encode_table`` only). An
encode refactor that must not move bytes leaves every digest as it was.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time

SEED = 1


def main() -> None:
    root = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else
                           os.path.dirname(os.path.dirname(
                               os.path.abspath(__file__))))
    sys.path.insert(0, root)
    from orc_ray.config import EncoderConfig
    from orc_ray.pipelines.encode import _dominant_source, split_stripes
    from orc_ray.selector import SelectorState
    from orc_ray.sources.tokens import synthesize_tokens
    from orc_ray.stripe import encode_table
    from perfbench.session import SHARDS, WORKLOADS

    configs = {"default": EncoderConfig(),
               "size_priority": EncoderConfig.size_priority(),
               "bloom": EncoderConfig(
                   bloom_columns=("doc_id", "source", "n_tok"))}
    print(f"checkout {root}")
    for workload, spec in WORKLOADS.items():
        per = spec["rows"] // SHARDS
        shards = [synthesize_tokens(
            per if k < SHARDS - 1 else spec["rows"] - per * (SHARDS - 1),
            seed=SEED, row_offset=k * per, mean_log=spec["mean_log"])
            for k in range(SHARDS)]
        for name, config in configs.items():
            combined = hashlib.sha256()
            stripes = nbytes = 0
            seconds = 0.0
            for shard in shards:
                selector = SelectorState(config)
                for stripe in split_stripes(shard, config):
                    t0 = time.perf_counter()
                    blob, meta = encode_table(
                        stripe, config, selector=selector,
                        group=_dominant_source(stripe))
                    seconds += time.perf_counter() - t0
                    meta_json = json.dumps(meta, separators=(",", ":"))
                    combined.update(hashlib.sha256(blob).digest())
                    combined.update(
                        hashlib.sha256(meta_json.encode()).digest())
                    stripes += 1
                    nbytes += len(blob)
            print(f"{workload:<11} {name:<13} {combined.hexdigest()} "
                  f"stripes={stripes} bytes={nbytes} "
                  f"encode_s={seconds:.2f}", flush=True)


if __name__ == "__main__":
    main()
