"""Span recorder for the traced benchmark run.

The engine is not modified: ``install`` replaces public functions of the
``orc_ray`` modules, from outside, with wrappers that record one span per
call (name, start, end, parent, time covered by child spans, and a work
count such as bytes). Spans stay in memory. A Ray worker appends its spans
to ``<trace dir>/spans-<pid>.jsonl`` each time an outermost span ends,
because actor processes can be killed without running exit handlers; the
session process keeps its spans until the session ends. ``worker_setup``
is the Ray ``worker_process_setup_hook`` that installs the wrappers in
workers.

``Analysis`` attributes every span to the benchmark operation (an encode
job, a decode+verify pass, or one row read) whose interval contains it.
All processes run on one host, so their ``perf_counter_ns`` readings share
CLOCK_MONOTONIC and can be compared.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time

import numpy as np

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"


def _arg(args, kwargs, i, name):
    return kwargs[name] if name in kwargs else args[i]


def _nbytes(x) -> int:
    return memoryview(x).nbytes


# (layer, module, attribute, counter). A counter maps (args, kwargs,
# result) to the call's work: an int (raw bytes handled, values packed, or
# 1 for a selector trial) or a pair (raw bytes, compressed bytes).
TARGETS = (
    ("sources.planner", "orc_ray.sources.planner", "plan_partitions", None),
    ("sources.planner", "orc_ray.sources.planner", "read_partition",
     lambda a, k, r: r.nbytes),
    ("pipelines.encode", "orc_ray.pipelines.encode", "encode_job", None),
    ("pipelines.encode", "orc_ray.pipelines.encode", "split_stripes", None),
    ("pipelines.encode", "orc_ray.pipelines.encode",
     "PartitionEncoder.__call__", None),
    ("selector", "orc_ray.selector", "SelectorState.choose_int", None),
    ("selector", "orc_ray.selector", "SelectorState.blob_codec",
     lambda a, k, r: int(r is None)),
    ("selector", "orc_ray.selector", "SelectorState.fsst_table", None),
    ("selector", "orc_ray.selector", "choose_int_codec", None),
    ("codecs.planar", "orc_ray.codecs.planar", "encode_parts",
     lambda a, k, r: len(_arg(a, k, 0, "values"))),
    ("codecs.planar", "orc_ray.codecs.planar", "decode", None),
    ("codecs.planar", "orc_ray.codecs.planar", "decode_range", None),
    ("codecs.zstdchunk", "orc_ray.codecs.zstdchunk", "compress",
     lambda a, k, r: (_nbytes(_arg(a, k, 0, "data")), len(r))),
    ("codecs.zstdchunk", "orc_ray.codecs.zstdchunk", "compress_parts",
     lambda a, k, r: (sum(_nbytes(p) for p in _arg(a, k, 0, "parts")),
                      len(r))),
    ("codecs.zstdchunk", "orc_ray.codecs.zstdchunk", "decompress",
     lambda a, k, r: (len(r), _nbytes(_arg(a, k, 0, "data")))),
    ("codecs.zstdchunk", "orc_ray.codecs.zstdchunk", "decompress_chunks",
     lambda a, k, r: (len(r), _nbytes(_arg(a, k, 0, "data")))),
    ("codecs.fsst", "orc_ray.codecs.fsst", "train", None),
    ("codecs.fsst", "orc_ray.codecs.fsst", "compress", None),
    ("codecs.fsst", "orc_ray.codecs.fsst", "compress_auto", None),
    ("codecs.fsst", "orc_ray.codecs.fsst", "decompress", None),
    ("codecs.dictionary", "orc_ray.codecs.dictionary", "string_hashes64",
     None),
    ("codecs.dictionary", "orc_ray.codecs.dictionary", "dictionary_encode",
     None),
    ("codecs.rle2", "orc_ray.codecs.rle2", "encode", None),
    ("codecs.rle2", "orc_ray.codecs.rle2", "decode", None),
    ("stripe", "orc_ray.stripe", "encode_table", None),
    ("stripe", "orc_ray.stripe", "decode_blob", None),
    ("stripe", "orc_ray.stripe", "decode_blob_rows",
     lambda a, k, r: r[1]),
    ("stripe", "orc_ray.stripe", "RangeReader.read",
     lambda a, k, r: _arg(a, k, 2, "length")),
    ("state.manifest", "orc_ray.state.manifest", "write_blob_atomic", None),
    ("state.manifest", "orc_ray.state.manifest", "commit_partition", None),
    ("state.manifest", "orc_ray.state.manifest", "read_manifest", None),
    ("state.manifest", "orc_ray.state.manifest", "read_manifest_file", None),
    ("state.storage", "orc_ray.state.storage", "read_file",
     lambda a, k, r: len(r)),
    ("state.storage", "orc_ray.state.storage", "read_file_range",
     lambda a, k, r: len(r)),
    ("pipelines.verify", "orc_ray.pipelines.verify", "row_hashes", None),
    ("pipelines.verify", "orc_ray.pipelines.verify", "checksum_encoded",
     None),
    ("pipelines.verify", "orc_ray.pipelines.verify",
     "_DecodeChecksum.__call__", None),
    ("pipelines.decode", "orc_ray.pipelines.decode", "plan_row_ranges",
     None),
)

LAYER_OF = {f"{mod.rsplit('.', 1)[-1]}.{attr}": layer
            for layer, mod, attr, _ in TARGETS}

# spans that run in the session process while Ray tasks do the work: their
# time not covered by task spans is Ray orchestration, not work of their
# own layer
JOB_SPANS = {"encode.encode_job": "encode.PartitionEncoder.__call__",
             "verify.checksum_encoded": "verify._DecodeChecksum.__call__"}
OP_KINDS = ("encode", "decode", "read")
# layer self times should account for at least this share of the time they
# sit under; the rest is Ray orchestration or untraced code
COVERAGE_MIN = 0.9


class _Span:
    """One open span; ``work`` holds the call's (raw, compressed) counts."""

    __slots__ = ("rec", "name", "frame", "parent", "t0", "work")

    def __init__(self, rec: "Recorder", name: str):
        self.rec = rec
        self.name = name
        self.work = (0, 0)

    def __enter__(self):
        stack = self.rec._stack()
        self.frame = [next(self.rec._ids), 0]  # span id, ns in child spans
        self.parent = stack[-1][0] if stack else 0
        stack.append(self.frame)
        self.t0 = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter_ns()
        rec = self.rec
        stack = rec._stack()
        stack.pop()
        if stack:
            stack[-1][1] += t1 - self.t0
        rec.spans.append((self.frame[0], self.parent, self.name, self.t0, t1,
                          self.frame[1], *self.work))
        if not stack and rec.flush_path:
            rec.flush()
        return False


class Recorder:
    """Collects spans of the calls made in one process."""

    def __init__(self, flush_path: str | None = None):
        self.spans: list[tuple] = []
        self.flush_path = flush_path
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def wrap(self, name: str, fn, count=None):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with _Span(rec, name) as sp:
                out = fn(*args, **kwargs)
                if count is not None:
                    n = count(args, kwargs, out)
                    sp.work = n if isinstance(n, tuple) else (n, 0)
                return out

        wrapper.__perfbench_wrapped__ = fn
        return wrapper

    def take(self) -> list[dict]:
        spans, self.spans = self.spans, []
        pid = os.getpid()
        return [{"pid": pid, "id": s[0], "parent": s[1], "name": s[2],
                 "t0": s[3], "t1": s[4], "child_ns": s[5], "n": s[6],
                 "m": s[7]}
                for s in spans]

    def flush(self) -> None:
        spans = self.take()
        if spans:
            with open(self.flush_path, "a") as f:
                f.write("".join(json.dumps(s) + "\n" for s in spans))


def install(rec: Recorder) -> None:
    """Wrap every target. Modules that imported a target by name get the
    wrapper too, so calls through either binding are recorded."""
    replaced = {}
    for _layer, modname, attr, count in TARGETS:
        mod = importlib.import_module(modname)
        owner, fname = mod, attr
        if "." in attr:
            cls, fname = attr.split(".")
            owner = getattr(mod, cls)
        fn = owner.__dict__[fname] if isinstance(owner, type) \
            else getattr(owner, fname)
        if hasattr(fn, "__perfbench_wrapped__"):
            continue
        w = rec.wrap(f"{modname.rsplit('.', 1)[-1]}.{attr}", fn, count)
        setattr(owner, fname, w)
        if owner is mod:
            replaced[id(fn)] = (fn, w)
    for name, mod in list(sys.modules.items()):
        if not name.startswith("orc_ray") or mod is None:
            continue
        for k, v in list(vars(mod).items()):
            hit = replaced.get(id(v))
            if hit is not None and hit[0] is v:
                setattr(mod, k, hit[1])


def worker_setup() -> None:
    """Ray worker_process_setup_hook: trace this worker's calls."""
    import atexit

    path = os.path.join(os.environ[TRACE_DIR_ENV],
                        f"spans-{os.getpid()}.jsonl")
    rec = Recorder(flush_path=path)
    install(rec)
    atexit.register(rec.flush)


def load_spans(trace_dir: str) -> list[dict]:
    spans = []
    for name in sorted(os.listdir(trace_dir)):
        if name.startswith("spans-") and name.endswith(".jsonl"):
            with open(os.path.join(trace_dir, name)) as f:
                spans.extend(json.loads(line) for line in f if line.strip())
    return spans


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def _union_ns(intervals) -> int:
    total, end = 0, None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def _pct(values, q):
    return float(np.percentile(values, q)) if values else 0.0


class Analysis:
    """Per-operation-kind aggregates of one traced session."""

    def __init__(self, spans: list[dict], main_pid: int):
        ops = sorted((s for s in spans if s["pid"] == main_pid
                      and s["name"].startswith("bench.")),
                     key=lambda s: s["t0"])
        self.ops = {k: [o for o in ops if o["name"] == f"bench.{k}"]
                    for k in OP_KINDS}
        starts = [o["t0"] for o in ops]
        by_op: dict[int, list[dict]] = {id(o): [] for o in ops}
        for s in spans:
            if s["name"].startswith("bench."):
                continue
            i = bisect.bisect_right(starts, s["t0"]) - 1
            if i >= 0 and s["t1"] <= ops[i]["t1"]:
                by_op[id(ops[i])].append(s)
        # agg[kind][name] = [calls, incl_ns, self_ns, n, m]
        self.agg = {k: {} for k in OP_KINDS}
        self.tasks = {k: [] for k in OP_KINDS}
        self.orch_ns = {k: 0 for k in OP_KINDS}
        self.wall_ns = {k: sum(o["t1"] - o["t0"] for o in self.ops[k])
                        for k in OP_KINDS}
        for op in ops:
            kind = op["name"][len("bench."):]
            inner = by_op[id(op)]
            agg = self.agg[kind]
            for s in inner:
                dur = s["t1"] - s["t0"]
                own = dur - s["child_ns"]
                task = JOB_SPANS.get(s["name"])
                if task is not None and s["pid"] == main_pid:
                    # worker task time inside this job is not this
                    # process's work
                    busy = _union_ns((t["t0"], t["t1"]) for t in inner
                                     if t["name"] == task
                                     and t["pid"] != main_pid)
                    own = max(0, own - busy)
                    self.orch_ns[kind] += own
                    continue
                a = agg.setdefault(s["name"], [0, 0, 0, 0, 0])
                a[0] += 1
                a[1] += dur
                a[2] += own
                a[3] += s["n"]
                a[4] += s["m"]
                if s["name"] in JOB_SPANS.values():
                    self.tasks[kind].append(s)
            # the benchmark's own span: time outside every engine call
            bench_own = op["t1"] - op["t0"] - op["child_ns"]
            a = agg.setdefault(op["name"], [0, 0, 0, 0, 0])
            a[0] += 1
            a[1] += op["t1"] - op["t0"]
            a[2] += bench_own

    def n_ops(self, kind: str) -> int:
        return len(self.ops[kind])

    def per_op(self, kind: str, name: str, field: int, scale=1e-9) -> float:
        n = self.n_ops(kind)
        a = self.agg[kind].get(name)
        return (a[field] * scale / n) if (a and n) else 0.0

    def calls(self, kind: str, name: str) -> int:
        a = self.agg[kind].get(name)
        return a[0] if a else 0

    def count(self, kind: str, name: str) -> int:
        a = self.agg[kind].get(name)
        return a[3] if a else 0

    def task_stats(self, kind: str) -> tuple[float, float, float]:
        """(p50 s, max s, coverage) of the worker tasks of ``kind`` ops.
        Coverage is the share of task wall time spent inside traced calls
        below the task span, i.e. accounted for by a named layer."""
        ts = self.tasks[kind]
        if not ts:
            return 0.0, 0.0, 0.0
        durs = [(t["t1"] - t["t0"]) / 1e9 for t in ts]
        covered = sum(t["child_ns"] for t in ts)
        wall = sum(t["t1"] - t["t0"] for t in ts)
        return _pct(durs, 50), max(durs), covered / wall if wall else 0.0

    def read_coverage(self) -> float:
        ops = self.ops["read"]
        wall = sum(o["t1"] - o["t0"] for o in ops)
        return sum(o["child_ns"] for o in ops) / wall if wall else 0.0

    def layers(self, kind: str) -> list[tuple[str, float, float, int]]:
        """[(layer, self s per op, share of op wall, bytes per op)]."""
        n = self.n_ops(kind)
        wall = self.wall_ns[kind]
        if not n or not wall:
            return []
        acc: dict[str, list] = {}
        for name, (_c, _incl, own, cnt, _m) in self.agg[kind].items():
            layer = "benchmark" if name.startswith("bench.") \
                else LAYER_OF.get(name, name)
            a = acc.setdefault(layer, [0, 0])
            a[0] += own
            if name in _BYTE_SPANS:
                a[1] += cnt
        if self.orch_ns[kind]:
            acc["ray.orchestration"] = [self.orch_ns[kind], 0]
        rows = [(layer, own / 1e9 / n, own / wall, b // n)
                for layer, (own, b) in acc.items()]
        return sorted(rows, key=lambda r: -r[1])


_BYTE_SPANS = {"planner.read_partition", "zstdchunk.compress",
               "zstdchunk.compress_parts", "zstdchunk.decompress",
               "zstdchunk.decompress_chunks", "stripe.RangeReader.read",
               "storage.read_file", "storage.read_file_range"}


def layer_table(an: Analysis) -> str:
    lines = []
    for kind in OP_KINDS:
        rows = an.layers(kind)
        if not rows:
            continue
        n = an.n_ops(kind)
        lines.append(f"layer table: {kind} ({n} ops, "
                     f"{an.wall_ns[kind] / 1e9 / n * 1e3:.2f} ms/op)")
        lines.append(f"  {'layer':<22}{'self s/op':>12}{'share':>8}"
                     f"{'MB/s':>10}")
        for layer, s, share, b in rows:
            mbps = f"{b / 1e6 / s:10.1f}" if b and s else f"{'':>10}"
            lines.append(f"  {layer:<22}{s:12.5f}{share:8.1%}{mbps}")
        cov = an.read_coverage() if kind == "read" else an.task_stats(kind)[2]
        where = "read calls" if kind == "read" else "worker tasks"
        verdict = "ok" if cov >= COVERAGE_MIN else "LOW"
        lines.append(f"  traced layers cover {cov:.1%} of {where} wall time "
                     f"({verdict}, bar {COVERAGE_MIN:.0%})")
    return "\n".join(lines)
