"""One benchmark session: start Ray, set up a workload, measure it, check
every output against the input, and write the result as JSON.

Run by ``run.py`` in its own process group; not meant to be started by
hand. Usage:
  python3 -m perfbench.session --workload W --seed N --seconds S
      --trace 0|1 --work DIR --ray-tmp DIR --result FILE
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

from . import corpus, trace

GB = 1e9
MB = 1e6

# rows: corpus size; mean_log: lognormal mean of log(tokens per row);
# warm_rows: size of the warm-up corpus
WORKLOADS = {
    "long-docs": {"rows": 100_000, "mean_log": 5.0, "warm_rows": 2_000},
    "short-docs": {"rows": 400_000, "mean_log": 1.5, "warm_rows": 20_000},
}
SHARDS = 4
PREPARE_REPS = 3        # set-up repetitions; setup_s reports their median
MIN_ITERS = 3           # loop iterations, whatever --seconds says
READS_PER_ITER = 500    # row reads after each decode+verify
READ_CHUNK = 250        # row reads between moves of the reading thread
OP_TIMEOUT_S = 60.0     # one operation longer than this is a hang
SETTLE_TIMEOUT_S = 30.0
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)


def nproc() -> int:
    """CPU count as nproc(1) reports it: OMP_NUM_THREADS when set, else
    the CPUs this process may run on."""
    try:
        n = int(os.environ.get("OMP_NUM_THREADS", ""))
        if n > 0:
            return n
    except ValueError:
        pass
    return len(os.sched_getaffinity(0))


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it."""
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= 10:
            return p
    return 50.0


class Watchdog:
    """Declares an operation hung after ``timeout`` seconds: ``on_hang``
    records the failure and ends the process instead of waiting on it.
    It polls once a second, so arming it costs the timed call nothing."""

    def __init__(self, on_hang):
        self._on_hang = on_hang
        self._deadline = None
        self._label = ""
        threading.Thread(target=self._watch, daemon=True).start()

    def arm(self, label: str, timeout: float = OP_TIMEOUT_S) -> None:
        self._label, self._deadline = label, time.monotonic() + timeout

    def disarm(self) -> None:
        self._deadline = None

    def _watch(self) -> None:
        while True:
            time.sleep(1.0)
            deadline = self._deadline
            if deadline is not None and time.monotonic() > deadline:
                self._on_hang(self._label)


class RssSampler:
    """Peak summed RSS of this process and its Ray workers while the block
    runs, sampled by a ``perfbench.rss`` child process."""

    def __enter__(self):
        self.peak = 0
        self._proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.rss", str(os.getpid())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc):
        out, _ = self._proc.communicate("", timeout=OP_TIMEOUT_S)
        self.peak = int(out)
        return False


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) ticks of all CPUs since boot, from /proc/stat."""
    with open("/proc/stat") as f:
        ticks = [int(x) for x in f.readline().split()[1:]]
    return ticks[7], sum(ticks)


def _import_check() -> str:
    import orc_ray

    return os.path.dirname(os.path.dirname(os.path.abspath(orc_ray.__file__)))


class Session:
    def __init__(self, args):
        self.workload = args.workload
        self.cfg = WORKLOADS[args.workload]
        self.seed = args.seed
        self.seconds = args.seconds
        self.work = os.path.abspath(args.work)
        self.root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        self.result_path = args.result
        self.cpus = nproc()
        self.rec = trace.Recorder() if args.trace else None
        self.ray_tmp = os.path.abspath(args.ray_tmp)
        self.trace_dir = os.path.join(self.work, "trace")
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.settle_s = 0.0
        self.steal_share = 0.0
        self.enc_s: list[float] = []
        self.dec_s: list[float] = []
        self.read_s: list[float] = []
        self.read_chunks = 0
        self.read_rows = 0
        self.read_bytes = 0
        self.encoded_bytes = 0
        self.streams: dict = {}
        self.watchdog = Watchdog(self._hang)

    # -- failure accounting -------------------------------------------------

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)
        print(f"perfbench: FAILED {what}", file=sys.stderr, flush=True)

    def _hang(self, label: str) -> None:
        self.fail(f"{label}: no result after {OP_TIMEOUT_S:.0f} s")
        self.write_result({})
        os._exit(1)

    def write_result(self, body: dict) -> None:
        out = {"attempted": self.attempted, "failed": self.failed,
               "errors": self.errors, **body}
        tmp = self.result_path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(out, f)
        os.replace(tmp, self.result_path)

    # -- Ray ----------------------------------------------------------------

    def start_ray(self) -> float:
        import ray

        t0 = time.perf_counter()
        os.environ["PYTHONPATH"] = os.pathsep.join(
            [self.root] + [p for p in os.environ.get("PYTHONPATH", "")
                           .split(os.pathsep) if p])
        os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
        os.environ["RAY_TMPDIR"] = self.ray_tmp
        kwargs = {}
        if self.rec is not None:
            os.makedirs(self.trace_dir, exist_ok=True)
            os.environ[trace.TRACE_DIR_ENV] = self.trace_dir
            kwargs["runtime_env"] = {
                "worker_process_setup_hook": "perfbench.trace.worker_setup"}
        ray.init(address="local", num_cpus=self.cpus, include_dashboard=False,
                 object_store_memory=256 * 1024 * 1024,
                 _temp_dir=self.ray_tmp, log_to_driver=False,
                 logging_level=logging.WARNING, **kwargs)
        import ray.data

        ray.data.DataContext.get_current().enable_progress_bars = False
        logging.getLogger("ray.data").setLevel(logging.WARNING)
        # the workers must import the engine from this checkout
        self.watchdog.arm("worker import check")
        try:
            where = ray.get(ray.remote(_import_check).remote(),
                            timeout=OP_TIMEOUT_S)
        finally:
            self.watchdog.disarm()
        if os.path.realpath(where) != os.path.realpath(self.root):
            raise RuntimeError(f"Ray workers import orc_ray from {where}")
        if self.rec is not None:
            trace.install(self.rec)
        return time.perf_counter() - t0

    def settle(self) -> None:
        """Wait, untimed, until the previous job's actors have released
        their CPUs. Ray Data frees an actor pool only when its executor is
        garbage collected; without this a job could wait for a cyclic GC
        pass to free the CPU its pool needs."""
        import ray

        t0 = time.perf_counter()
        gc.collect()
        while (ray.available_resources().get("CPU", 0) < self.cpus
               and time.perf_counter() - t0 < SETTLE_TIMEOUT_S):
            time.sleep(0.01)
        self.settle_s += time.perf_counter() - t0

    # -- operations ---------------------------------------------------------

    def timed(self, kind: str | None, fn):
        """Run one operation under the watchdog: (seconds, result), or None
        when it raised. ``kind`` names its span in a traced run."""
        self.attempted += 1
        self.watchdog.arm(kind or "warm-up")
        try:
            t0 = time.perf_counter()
            if self.rec is not None and kind is not None:
                with self.rec.span(f"bench.{kind}"):
                    out = fn()
            else:
                out = fn()
            return time.perf_counter() - t0, out
        except Exception as e:  # any engine error is a failed operation
            self.fail(f"{kind or 'warm-up'}: {e!r}")
            return None
        finally:
            self.watchdog.disarm()

    def encode(self, c: corpus.Corpus, out_dir: str, kind: str | None):
        from orc_ray.pipelines import encode as enc

        shutil.rmtree(out_dir, ignore_errors=True)
        self.settle()
        r = self.timed(kind, lambda: enc.encode_job(c.paths, out_dir))
        if r is None:
            return None
        s = r[1]
        if s.get("num_rows") != c.rows or s.get("num_tokens") != c.tokens:
            self.fail(f"encode: summary has {s.get('num_rows')} rows, "
                      f"{s.get('num_tokens')} tokens; input has {c.rows}, "
                      f"{c.tokens}")
            return None
        self.encoded_bytes = s["encoded_bytes"]
        return r[0]

    def decode_verify(self, c: corpus.Corpus, out_dir: str,
                      kind: str | None):
        from orc_ray.pipelines import verify

        self.settle()
        r = self.timed(kind, lambda: verify.checksum_encoded(out_dir))
        if r is None:
            return None
        if r[1] != c.checksum:
            self.fail(f"decode+verify: checksum {r[1]} != input "
                      f"{c.checksum}")
            return None
        return r[0]

    def open_manifest(self, out_dir: str):
        from orc_ray.state import manifest as mf

        return mf.read_manifest(out_dir), mf.blobs_dir(out_dir)

    @staticmethod
    def _read(man, blobs: str, start: int, n: int):
        """The ``orc_ray decode --rows`` path: plan, then seek-read each
        covering stripe range."""
        import pyarrow as pa

        from orc_ray import stripe
        from orc_ray.pipelines import decode

        parts, touched = [], 0
        for p in decode.plan_row_ranges(man, start, n):
            sub, b = stripe.decode_blob_rows(
                os.path.join(blobs, p["blob_path"]),
                json.loads(p["meta_json"]), p["row_lo"], p["row_cnt"])
            parts.append(sub)
            touched += b
        return pa.concat_tables(parts), touched

    def read(self, c: corpus.Corpus, man, blobs: str, rng,
             kind: str | None) -> None:
        from orc_ray.pipelines.verify import row_hashes

        start, n = corpus.read_plan(rng, c.rows)
        r = self.timed(kind, lambda: self._read(man, blobs, start, n))
        if r is None:
            return
        (table, touched) = r[1]
        got = row_hashes(table)
        if table.num_rows != n or not np.array_equal(
                got, c.row_hashes[start: start + n]):
            self.fail(f"read rows {start}:{start + n}: decoded rows differ "
                      "from the input")
            return
        if kind is not None:
            self.read_s.append(r[0])
            self.read_rows += n
            self.read_bytes += touched

    def record_streams(self, out_dir: str) -> None:
        """Encoded bytes per stream and FSST wins, read from the manifest."""
        man, _ = self.open_manifest(out_dir)
        total = tokens_data = fsst = 0
        for mj in man.column("meta_json").to_pylist():
            for s in json.loads(mj)["streams"]:
                total += s["length"]
                if s["column"] == "tokens" and s["kind"] == "DATA":
                    tokens_data += s["length"]
                fsst += s["codec"] == "fsst"
        self.streams = {"tokens_data_share": tokens_data / total,
                        "fsst_wins": fsst}

    # -- the session --------------------------------------------------------

    def run(self) -> int:
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        ray_start_s = self.start_ray()
        warmup_s = self.warm_up()
        prepare = []
        for _ in range(PREPARE_REPS):
            t0 = time.perf_counter()
            c = corpus.generate(os.path.join(self.work, "in"),
                                self.cfg["rows"], SHARDS, self.seed,
                                self.cfg["mean_log"])
            prepare.append(time.perf_counter() - t0)
        setup = {"ray_start_s": ray_start_s, "warmup_s": warmup_s,
                 "prepare_s": statistics.median(prepare)}
        self.settle()  # the set-up's last actors must not count as memory
        steal0, total0 = cpu_ticks()
        with RssSampler() as rss:
            self.measure(c)
        steal1, total1 = cpu_ticks()
        # the share of CPU time the hypervisor gave to other guests, so a
        # run slowed by the host can be told from a slower program
        self.steal_share = (steal1 - steal0) / max(1, total1 - total0)
        # a failed run reports its failures, not figures
        self.write_result({} if self.failed else
                          self.report(c, setup, rss.peak))
        import ray

        ray.shutdown()
        return 0 if self.failed == 0 else 1

    def warm_up(self) -> float:
        """Untimed first jobs: Ray Data's bookkeeping actors, worker
        imports, this process's zstd codec and row-hash power tables."""
        t0 = time.perf_counter()
        c = corpus.generate(os.path.join(self.work, "warm-in"),
                            self.cfg["warm_rows"], SHARDS, self.seed + 1,
                            self.cfg["mean_log"])
        out = os.path.join(self.work, "warm-enc")
        if self.encode(c, out, None) is not None:
            self.decode_verify(c, out, None)
            man, blobs = self.open_manifest(out)
            rng = np.random.default_rng(self.seed)
            for _ in range(8):
                self.read(c, man, blobs, rng, None)
        shutil.rmtree(out, ignore_errors=True)
        return time.perf_counter() - t0

    def encode_and_verify(self, c: corpus.Corpus, out_dir: str) -> bool:
        enc_s = self.encode(c, out_dir, "encode")
        if enc_s is None:
            return False
        dec_s = self.decode_verify(c, out_dir, "decode")
        if dec_s is None:
            return False
        self.enc_s.append(enc_s)
        self.dec_s.append(dec_s)
        if not self.streams:
            self.record_streams(out_dir)
        return True

    def measure(self, c: corpus.Corpus) -> None:
        """The closed loop: encode, decode+verify, then row reads over the
        new directory, until ``seconds`` passed and ``MIN_ITERS`` ran."""
        rng = np.random.default_rng([self.seed, 1])
        t0 = time.perf_counter()
        i = 0
        while i < MIN_ITERS or time.perf_counter() - t0 < self.seconds:
            out = os.path.join(self.work, f"enc-{i}")
            if self.encode_and_verify(c, out):
                self.read_batch(c, out, rng)
            shutil.rmtree(out, ignore_errors=True)
            i += 1

    def read_batch(self, c: corpus.Corpus, out_dir: str, rng) -> None:
        """``READS_PER_ITER`` seeded row reads through one manifest. They
        wait until the decode job's actors are gone: right after a job
        they would time Ray's teardown. The reading thread moves to the
        next allowed CPU every ``READ_CHUNK`` reads: vCPUs of a shared host
        differ in speed, and a thread left where it started would give each
        run the speed of one of them."""
        self.settle()
        man, blobs = self.open_manifest(out_dir)
        cpus = sorted(os.sched_getaffinity(0))
        try:
            for k in range(READS_PER_ITER):
                if k % READ_CHUNK == 0:
                    os.sched_setaffinity(
                        0, {cpus[self.read_chunks % len(cpus)]})
                    self.read_chunks += 1
                self.read(c, man, blobs, rng, "read")
        finally:
            # threads started later, such as Ray Data's, inherit the mask
            os.sched_setaffinity(0, cpus)

    # -- results ------------------------------------------------------------

    def report(self, c: corpus.Corpus, setup: dict, peak_rss: int) -> dict:
        def med(xs):
            return statistics.median(xs) if xs else float("nan")

        reads_ms = [s * 1e3 for s in self.read_s]
        tail_p = tail_percentile(len(reads_ms))
        e2e = {
            "encode_gbps": c.raw_bytes / GB / med(self.enc_s),
            "decode_verify_gbps": c.raw_bytes / GB / med(self.dec_s),
            "bytes_per_token": self.encoded_bytes / c.tokens,
            "read_ms_p50": float(np.percentile(reads_ms, 50)),
            "reads_per_s": len(reads_ms) / sum(self.read_s),
            "peak_rss_mb": peak_rss / MB,
            "setup_s": sum(setup.values()),
        }
        detail = {
            "workload": self.workload, "seed": self.seed, "cpus": self.cpus,
            "rows": c.rows, "tokens": c.tokens, "raw_bytes": c.raw_bytes,
            "encoded_bytes": self.encoded_bytes,
            "encode_s": self.enc_s, "decode_verify_s": self.dec_s,
            # the tail is reported here, unbounded: on a shared host its
            # run-to-run spread is wider than any bound a metric may have
            "read_ms_tail": float(np.percentile(reads_ms, tail_p)),
            "read_ms_tail_percentile": tail_p,
            "read_samples": len(reads_ms),
            "reads_bytes_per_row": self.read_bytes / self.read_rows,
            "settle_s": self.settle_s, "host_steal_share": self.steal_share,
            **setup, **self.streams,
        }
        body = {"e2e": e2e, "detail": detail}
        if self.rec is not None:
            body["layers"] = self.layer_metrics(detail)
        return body

    def layer_metrics(self, detail: dict) -> dict:
        spans = self.rec.take() + trace.load_spans(self.trace_dir)
        an = trace.Analysis(spans, os.getpid())
        print(trace.layer_table(an), flush=True)
        out = {}
        for name, kind, span_names, field, scale in LAYER_SPANS:
            out[name] = sum(an.per_op(kind, s, field, scale)
                            for s in span_names)
        for kind in ("encode", "decode"):
            p50, mx, cov = an.task_stats(kind)
            out[f"{kind}.task_s_p50"] = p50
            out[f"{kind}.task_s_max"] = mx
            out[f"trace.{kind}_task_coverage"] = cov
            n = an.n_ops(kind)
            out[f"{kind}.orchestration_s"] = \
                an.orch_ns[kind] / 1e9 / n if n else 0.0
        out["trace.read_coverage"] = an.read_coverage()
        lookups = sum(an.calls("encode", f"selector.SelectorState.{m}")
                      for m in ("choose_int", "blob_codec", "fsst_table"))
        trials = (an.calls("encode", "selector.choose_int_codec")
                  + an.count("encode", "selector.SelectorState.blob_codec")
                  + an.calls("encode", "fsst.train"))
        n_enc = an.n_ops("encode")
        out["selector.trials"] = trials / n_enc if n_enc else 0.0
        out["selector.cache_hit_ratio"] = \
            1 - trials / lookups if lookups else 0.0
        out["fsst.wins"] = self.streams.get("fsst_wins", 0)
        out["bytes.tokens_data_share"] = self.streams.get(
            "tokens_data_share", 0.0)
        out["reads.bytes_per_row"] = detail["reads_bytes_per_row"]
        for k in ("ray_start_s", "warmup_s", "prepare_s"):
            out[f"setup.{k}"] = detail[k]
        jobs = n_enc + an.n_ops("decode")
        out["settle.wait_s"] = self.settle_s / jobs if jobs else 0.0
        return out


_S, _N, _M = 1e-9, 1.0, 1e-6
# (metric, op kind, spans summed, aggregate field, scale); fields index
# trace.Analysis.agg rows: 0 calls, 1 inclusive ns, 2 self ns, 3 work, 4
# compressed bytes. Every value is per operation of that kind.
LAYER_SPANS = (
    ("planner.plan_s", "encode", ("planner.plan_partitions",), 1, _S),
    ("planner.read_s", "encode", ("planner.read_partition",), 1, _S),
    ("planner.read_mb", "encode", ("planner.read_partition",), 3, _M),
    ("encode.cut_s", "encode", ("encode.split_stripes",), 1, _S),
    ("selector.choose_s", "encode", ("selector.SelectorState.choose_int",),
     1, _S),
    ("planar.encode_parts_s", "encode", ("planar.encode_parts",), 1, _S),
    ("planar.values", "encode", ("planar.encode_parts",), 3, _N),
    ("planar.decode_s", "decode", ("planar.decode",), 1, _S),
    ("planar.decode_range_s", "read", ("planar.decode_range",), 1, _S),
    ("zstd.compress_s", "encode",
     ("zstdchunk.compress", "zstdchunk.compress_parts"), 1, _S),
    ("zstd.in_mb", "encode",
     ("zstdchunk.compress", "zstdchunk.compress_parts"), 3, _M),
    ("zstd.out_mb", "encode",
     ("zstdchunk.compress", "zstdchunk.compress_parts"), 4, _M),
    ("zstd.decompress_s", "decode",
     ("zstdchunk.decompress", "zstdchunk.decompress_chunks"), 1, _S),
    ("fsst.train_s", "encode", ("fsst.train",), 1, _S),
    ("fsst.compress_s", "encode", ("fsst.compress", "fsst.compress_auto"),
     1, _S),
    ("dictionary.hash_s", "encode", ("dictionary.string_hashes64",), 1, _S),
    ("dictionary.encode_s", "encode", ("dictionary.dictionary_encode",), 1,
     _S),
    ("rle2.encode_s", "encode", ("rle2.encode",), 1, _S),
    ("rle2.decode_s", "decode", ("rle2.decode",), 1, _S),
    ("stripe.encode_table_s", "encode", ("stripe.encode_table",), 1, _S),
    ("stripe.decode_blob_s", "decode", ("stripe.decode_blob",), 1, _S),
    ("stripe.decode_blob_rows_s", "read", ("stripe.decode_blob_rows",), 1,
     _S),
    ("stripe.range_reads", "read", ("stripe.RangeReader.read",), 0, _N),
    ("stripe.range_mb", "read", ("stripe.RangeReader.read",), 3, _M),
    ("manifest.blob_write_s", "encode", ("manifest.write_blob_atomic",), 1,
     _S),
    ("manifest.commit_s", "encode", ("manifest.commit_partition",), 1, _S),
    ("manifest.read_s", "decode",
     ("manifest.read_manifest", "manifest.read_manifest_file"), 1, _S),
    ("storage.read_s", "decode",
     ("storage.read_file", "storage.read_file_range"), 1, _S),
    ("storage.read_mb", "decode",
     ("storage.read_file", "storage.read_file_range"), 3, _M),
    ("verify.row_hash_s", "decode", ("verify.row_hashes",), 1, _S),
    ("decode.plan_row_ranges_s", "read", ("decode.plan_row_ranges",), 1,
     _S),
)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True)
    ap.add_argument("--ray-tmp", required=True)
    ap.add_argument("--result", required=True)
    return Session(ap.parse_args()).run()


if __name__ == "__main__":
    sys.exit(main())
