"""Benchmark harness.

Headline pipeline: deterministic synthetic token table (FIXTURES.md F1,
volume scaled from the sf dir) -> size-aware plan -> actor-pool stripe
encode (blobs + manifests) -> streaming decode + checksum verify. Also runs
the reference-stack configuration (RLEv2 + dict + outer zlib, no FSST/FOR —
the exact algorithm set of scritchley/orc) on the same input to report the
compressed-size ratio vs the reference.

Prints ONE JSON line:
  {"metric": "...", "value": <total sec>, "unit": "sec",
   "queries": {...per-phase sec...}, "sf": ..., "num_cpus": N, ...extras}

--scaling: runs the encode phase at two cpu counts (default 8 and 32 = N and
4N, --scaling-cpus picks the pair) in fresh processes on the same input and
reports both throughputs + scaling efficiency — the sandbox substitute for
the N vs 4N node criterion. (Both 8v32 and 4v16 saturate progressively more
of this VM's SINGLE memory bus at the high end — the in-run memcpy control
quantifies that ceiling; a real 4N-node cluster has 4N buses.)
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

DEFAULT_SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
DEFAULT_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", os.cpu_count() or 1))

# bench I/O lives on tmpfs: /tmp here is a ~100MB/s virtio disk that floors
# the 32-way wall clock; fall back to it only if /dev/shm is missing
BENCH_BASE = "/dev/shm/orc_ray_bench" if os.path.isdir("/dev/shm") \
    else "/tmp/orc_ray_bench"

# rows of the synthetic table per sf tier (~300 tokens/row mean). sf0.1 is
# sized so per-core work amortizes fixed costs (plan + actor-pool startup)
# and the 8-vs-32-cpu scaling measurement reflects the compute, not setup.
ROWS_BY_SF = {"sf0.001": 2_000, "sf0.01": 30_000, "sf0.1": 3_000_000}


def sf_name(sf_dir: str) -> str:
    return os.path.basename(os.path.normpath(sf_dir))


def _memcpy_worker(start_ts):
    import time as _t

    import numpy as np

    a = np.random.default_rng(0).integers(0, 100, 8_000_000).astype(np.int32)
    b = np.empty_like(a)
    np.copyto(b, a)
    # barrier on a shared wall-clock instant: without it, pool-startup
    # stagger lets short measurements run back-to-back instead of
    # concurrently and the "contended" reading is silently uncontended
    while _t.time() < start_ts:
        _t.sleep(0.005)
    t0 = _t.perf_counter()
    n = 0
    while _t.perf_counter() - t0 < 2.0:
        np.copyto(b, a)
        a[0] += 1
        n += 1
    return a.nbytes * 2 * n / (_t.perf_counter() - t0) / 1e9


def memcpy_control(nproc: int) -> float:
    """Per-process memcpy GB/s at nproc TRULY CONCURRENT workers (barrier
    start + fixed 2s window) — the hardware's own per-core memory ceiling
    at that concurrency. The ratio between two levels bounds what ANY
    bandwidth-bound workload can score on this single-bus box; a real
    4N-node cluster has 4N buses."""
    import multiprocessing as mp
    import time as _t

    ctx = mp.get_context("spawn")
    start = _t.time() + max(4.0, 0.2 * nproc)
    with ctx.Pool(nproc) as p:
        rates = p.map(_memcpy_worker, [start] * nproc)
    return sum(rates) / len(rates)


def bench_input(sf_dir: str, rows_override: int | None = None) -> tuple[list[str], str]:
    """Materialize (once) the deterministic synthetic shards for this sf."""
    from orc_ray.sources.tokens import write_synthetic_shards

    name = sf_name(sf_dir)
    rows = rows_override or ROWS_BY_SF.get(name, 30_000)
    # keyed by row count so an overridden-rows corpus (e.g. the 4x scaling
    # input) coexists with the default one instead of wiping it
    d = f"{BENCH_BASE}/{name}/input-{rows}"
    marker = os.path.join(d, f".complete-{rows}")
    if not os.path.exists(marker):
        import shutil

        if os.path.isdir(d):
            shutil.rmtree(d)
        write_synthetic_shards(d, num_rows=rows, num_shards=16, seed=42,
                               rows_per_row_group=4096)
        open(marker, "w").close()
    paths = sorted(
        os.path.join(d, f) for f in os.listdir(d) if f.endswith(".parquet")
    )
    return paths, name


def run_headline(sf_dir: str, num_cpus: int, phases=("encode", "decode", "reference"),
                 rows_override: int | None = None) -> dict:
    import ray

    from orc_ray.config import EncoderConfig
    from orc_ray.pipelines.encode import encode_job
    from orc_ray.pipelines.verify import checksum_encoded

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=num_cpus, include_dashboard=False)

    paths, name = bench_input(sf_dir, rows_override)
    out: dict = {"sf": name, "num_cpus": num_cpus, "queries": {}}
    enc_dir = f"{BENCH_BASE}/{name}/encoded-{num_cpus}"
    import shutil

    # steady-state methodology: a tiny warm-up job first so worker-process
    # imports and allocator pools are excluded from the throughput numbers
    # (a one-time per-node cost that amortizes to zero at 100 TB scale)
    from orc_ray.sources.tokens import write_synthetic_shards

    wdir = f"{BENCH_BASE}/{name}/warm_in"
    if not os.path.isdir(wdir):
        write_synthetic_shards(wdir, num_rows=3000, num_shards=8, seed=9)
    wpaths = sorted(os.path.join(wdir, f) for f in os.listdir(wdir)
                    if f.endswith(".parquet"))
    wout = f"{BENCH_BASE}/{name}/warm_out-{num_cpus}"
    shutil.rmtree(wout, ignore_errors=True)
    # small stripe target -> enough partitions that the warm job's actor
    # pool spans every CPU (a 2-partition warm job leaves 30 worker
    # processes cold and their import cost lands in the timed run)
    encode_job(wpaths, wout, EncoderConfig(stripe_target_tokens=25_000))
    # ... and a checksum pass over it warms the decode actor pool the same
    # way (fresh actor processes = one import of orc_ray/numpy/pyarrow per
    # worker, a per-node one-time cost that amortizes to zero at scale but
    # was landing inside the timed decode_verify phase)
    checksum_encoded(wout)
    shutil.rmtree(wout, ignore_errors=True)

    if "encode" in phases:
        if os.path.isdir(enc_dir):
            shutil.rmtree(enc_dir)
        cfg = EncoderConfig(stripe_target_tokens=2_000_000)
        t0 = time.perf_counter()
        summary = encode_job(paths, enc_dir, cfg)
        enc_sec = time.perf_counter() - t0
        out["queries"]["encode"] = round(enc_sec, 3)
        out["encode_raw_gb"] = round(summary["raw_bytes"] / 1e9, 4)
        out["encode_gbps"] = round(summary["raw_bytes"] / 1e9 / enc_sec, 4)
        out["num_tokens"] = summary["num_tokens"]
        out["bytes_per_token"] = round(summary["bytes_per_token"], 4)
        out["encoded_bytes"] = summary["encoded_bytes"]

    if "decode" in phases:
        t0 = time.perf_counter()
        cs = checksum_encoded(enc_dir)
        dec_sec = time.perf_counter() - t0
        out["queries"]["decode_verify"] = round(dec_sec, 3)
        out["decode_gbps"] = round(out.get("encode_raw_gb", 0) / dec_sec, 4)
        out["decoded_rows"] = cs["count"]

    if "size_mode" in phases:
        # size-priority mode (EncoderConfig.size_priority): pure measured-
        # size selection, no rle2 speed-bias — reports what the engine
        # compresses to when bytes, not throughput, are the objective
        sz_dir = f"{BENCH_BASE}/{name}/encoded-size-{num_cpus}"
        if os.path.isdir(sz_dir):
            shutil.rmtree(sz_dir)
        t0 = time.perf_counter()
        sz_summary = encode_job(paths, sz_dir,
                                EncoderConfig.size_priority(
                                    stripe_target_tokens=2_000_000))
        out["queries"]["encode_size_mode"] = round(time.perf_counter() - t0, 3)
        out["bytes_per_token_size_mode"] = round(
            sz_summary["bytes_per_token"], 4)
        shutil.rmtree(sz_dir, ignore_errors=True)

    if "reference" in phases:
        # reference algorithm stack: RLEv2 ints, dict/direct strings,
        # chunked zlib over streams — no FSST, no FOR (scritchley/orc's
        # exact codec set; our RLEv2 kernels are byte-identical to it)
        ref_dir = f"{BENCH_BASE}/{name}/encoded-ref-{num_cpus}"
        if os.path.isdir(ref_dir):
            shutil.rmtree(ref_dir)
        ref_cfg = EncoderConfig(
            stripe_target_tokens=2_000_000,
            int_candidates=("rle2",),
            string_blob_candidates=("none",),
            outer_compression="zlib",  # flate-6, the reference's default
        )
        t0 = time.perf_counter()
        ref_summary = encode_job(paths, ref_dir, ref_cfg)
        out["queries"]["encode_reference_stack"] = round(time.perf_counter() - t0, 3)
        out["ref_bytes_per_token"] = round(ref_summary["bytes_per_token"], 4)
        if "bytes_per_token" in out:
            out["size_vs_reference"] = round(
                out["bytes_per_token"] / ref_summary["bytes_per_token"], 4
            )
        shutil.rmtree(ref_dir, ignore_errors=True)
    return out


def run_oracle_queries(sf_dir: str, out: dict) -> None:
    """Time the driver-contract queries at this sf dir."""
    import __ray_entry__ as e

    for name, fn in e.queries().items():
        t0 = time.perf_counter()
        res = fn(sf_dir)
        # drive lazy datasets to completion
        if hasattr(res, "count"):
            res.count()
        out["queries"][name] = round(time.perf_counter() - t0, 3)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sf-dir", default=DEFAULT_SF_DIR)
    ap.add_argument("--cpus", type=int, default=DEFAULT_CPUS)
    ap.add_argument("--scaling", action="store_true",
                    help="run encode at two cpu counts in fresh processes")
    ap.add_argument("--scaling-cpus", default="8,32",
                    help="N,4N cpu pair for --scaling")
    ap.add_argument("--phases",
                    default="encode,decode,size_mode,reference,queries")
    ap.add_argument("--rows", type=int, default=0,
                    help="override synthetic corpus rows")
    ap.add_argument("--scaling-rows", type=int, default=0,
                    help="optional corpus-rows override for --scaling")
    ap.add_argument("--scaling-repeats", type=int, default=3,
                    help="fresh-process runs per cpu count; the MEDIAN paired "
                    "efficiency is the headline, best + all samples disclosed "
                    "(this VM's timing noise is +-30%%)")
    ap.add_argument("--json-out", default="")
    args = ap.parse_args()

    if args.scaling:
        # INTERLEAVED pairs: this VM's effective capacity drifts ~2x over
        # tens of minutes (hypervisor co-tenancy), so a lo-run and a hi-run
        # measured back-to-back share a noise regime; each repetition
        # yields one paired efficiency and we report the distribution.
        lo, hi = (int(x) for x in args.scaling_cpus.split(","))
        samples: dict[int, list[float]] = {lo: [], hi: []}
        times: dict[int, list[float]] = {lo: [], hi: []}
        pair_effs: list[float] = []
        for _rep in range(max(1, args.scaling_repeats)):
            for cpus in (lo, hi):
                tmp = f"{BENCH_BASE}/scaling-{cpus}.json"
                env = dict(os.environ, RAY_GRAFT_CPUS=str(cpus))
                subprocess.run(
                    [sys.executable, os.path.abspath(__file__), "--sf-dir", args.sf_dir,
                     "--cpus", str(cpus), "--phases", "encode", "--json-out", tmp]
                    + (["--rows", str(args.scaling_rows)] if args.scaling_rows else []),
                    check=True, env=env, capture_output=True,
                )
                r = json.load(open(tmp))
                samples[cpus].append(r["encode_gbps"])
                times[cpus].append(r["queries"]["encode"])
            pair_effs.append(
                (samples[hi][-1] / samples[lo][-1]) / (hi / lo))
        best_pair = max(range(len(pair_effs)), key=lambda i: pair_effs[i])
        # headline "value" is the MEDIAN paired efficiency, not the best —
        # a best-of-N headline systematically inflates on this noisy host;
        # the best pair + full distribution stay disclosed as extra fields
        med_eff = sorted(pair_effs)[len(pair_effs) // 2]
        med_pair = min(range(len(pair_effs)),
                       key=lambda i: abs(pair_effs[i] - med_eff))
        # hardware control: per-core memcpy capacity at the same two
        # concurrency levels — the single-box ceiling for any
        # bandwidth-touching workload (4N real nodes have 4N buses)
        bw_lo = memcpy_control(lo)
        bw_hi = memcpy_control(hi)
        bus_ceiling = bw_hi / bw_lo  # per-core capacity retained at hi-way
        line = {
            "metric": "encode_scaling_efficiency",
            "value": round(med_eff, 4),
            "value_best": round(pair_effs[best_pair], 4),
            "unit": "ratio", "sf": sf_name(args.sf_dir),
            "throughput_gbps": {str(lo): samples[lo][med_pair],
                                str(hi): samples[hi][med_pair]},
            "pair_efficiencies": [round(e, 4) for e in pair_effs],
            "throughput_samples_gbps": {str(c): samples[c] for c in (lo, hi)},
            "memcpy_gbps_per_proc": {str(lo): round(bw_lo, 2),
                                     str(hi): round(bw_hi, 2)},
            "bus_ceiling_ratio": round(bus_ceiling, 4),
            "value_bus_normalized": round(med_eff / bus_ceiling, 4),
            "value_best_bus_normalized": round(
                pair_effs[best_pair] / bus_ceiling, 4),
            "queries": {f"encode_cpus{lo}": times[lo][med_pair],
                        f"encode_cpus{hi}": times[hi][med_pair]},
            "num_cpus": hi,
            "note": ("headline scaling measurement in BASELINE.md used "
                     "--scaling-rows 12000000: at the default 3M-row corpus "
                     "~5s of fixed cost (plan, pool ramp, tail) per run "
                     "depresses the hi-cpu side ~0.1 of efficiency"),
        }
        print(json.dumps(line))
        return

    phases = tuple(args.phases.split(","))
    # in-run hardware control: single-core memcpy bandwidth right now.
    # This VM's effective capacity swings >10x with hypervisor co-tenancy
    # (quiet windows read 15-22 GB/s, contended ones <1); recording it in
    # the same JSON line lets a single-shot measurement be read against
    # the quiet-window numbers in BASELINE.md instead of as engine drift.
    # Same methodology as memcpy_control(): preallocated src+dst,
    # copyto into existing pages, read+write bytes both counted. (An
    # earlier version timed `arr.copy()` on a fresh 200MB array, which
    # measures page-fault/zeroing cost, not memcpy — it read 4-8x lower
    # than the true ceiling and made quiet windows look contended.)
    import numpy as _np
    _a = _np.ones(200_000_000, dtype=_np.uint8)
    _b = _np.empty_like(_a)
    _np.copyto(_b, _a)  # fault in both buffers before timing
    _best = float("inf")
    for _ in range(3):
        _t0 = time.perf_counter()
        _np.copyto(_b, _a)
        _best = min(_best, time.perf_counter() - _t0)
    box_memcpy = _a.nbytes * 2 / _best / 1e9
    del _a, _b

    out = run_headline(args.sf_dir, args.cpus,
                       tuple(p for p in phases if p != "queries"),
                       rows_override=args.rows or None)
    out["box_memcpy_gbps_1core"] = round(box_memcpy, 2)
    if "queries" in phases:
        run_oracle_queries(args.sf_dir, out)

    # encode_size_mode is a DIAGNOSTIC second encode of the same input
    # (size-priority config); excluding it keeps the headline total
    # comparable across rounds that predate the two-mode report
    total = sum(v for k, v in out["queries"].items()
                if k != "encode_size_mode")
    line = {
        "metric": "encode+decode+verify wall time (headline token pipeline)",
        "value": round(total, 3),
        "unit": "sec",
        **out,
    }
    js = json.dumps(line)
    if args.json_out:
        with open(args.json_out, "w") as f:
            f.write(js)
    print(js)

    import ray

    ray.shutdown()


if __name__ == "__main__":
    main()
