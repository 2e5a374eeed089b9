"""orc_ray benchmark: one command per workload, end-to-end metrics, and a
traced per-layer table.

  python3 perfbench/run.py --workload long-docs|short-docs
      --seed N --seconds S --trace 0|1

Run from the repository root. One client drives the engine in a closed
loop. The inputs are generated from ``--seed``. Every decode+verify result
is compared with the input checksum and every row read with the input
rows' hashes; a mismatch, an error or a hung operation counts as a failed
operation and makes the exit code 1.

``--trace 0`` measures the end-to-end metrics with no tracing. ``--trace 1``
runs the workload twice for ``S/2`` seconds each, untraced and then traced,
and reports the per-layer metrics plus the tracing overhead (traced against
untraced end to end). The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the line before it
holds the details: failed share, errors, CPU count, rows, tokens, raw and
encoded bytes, per-iteration times, and the read tail with its percentile
and sample count.

Each session runs as a child process in its own process group under a
deadline; when it ends, whatever it left running in that group is killed
and every descendant is reaped.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".pbw")
DEADLINE_S = 150.0      # leaves the clean-up time within 180 s
CHILD_EXIT_GRACE_S = 20.0
PR_SET_CHILD_SUBREAPER = 36
# Ray puts its sockets at <temp dir>/session_<date>_<time>_<usec>_<pid>/
# sockets/plasma_store, and an AF_UNIX path holds at most 107 bytes
RAY_SOCKET_SUFFIX = 66
AF_UNIX_MAX = 107
# end-to-end metrics whose traced/untraced ratio is the tracing overhead
OVERHEAD_OF = ("encode_gbps", "decode_verify_gbps", "read_ms_p50")


def _become_subreaper() -> None:
    """Make this process the parent of every orphaned descendant, so that
    ``_stop_group`` can reap the Ray processes the session started."""
    ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0,
                                            0, 0)


def _stop_group(pgid: int) -> None:
    """Kill what the session left in its process group and reap every
    descendant, the session included."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    end = time.monotonic() + CHILD_EXIT_GRACE_S
    while time.monotonic() < end:
        try:
            if os.waitpid(-1, os.WNOHANG)[0] == 0:
                time.sleep(0.05)
        except ChildProcessError:
            return


def ray_temp_dir() -> str:
    """Ray's temp dir: inside the work dir, unless the checkout path is so
    long that Ray's socket paths would not fit; then a fresh system temp
    dir, which the caller removes."""
    d = os.path.join(WORK, "r")
    if len(d.encode()) + RAY_SOCKET_SUFFIX <= AF_UNIX_MAX:
        return d
    return tempfile.mkdtemp(prefix="pbray-")


def run_session(args, trace: bool, seconds: float, deadline: float,
                ray_tmp: str):
    """Run one session; its result dict, or None when it produced none."""
    result = os.path.join(WORK, f"result-{int(trace)}.json")
    cmd = [sys.executable, "-m", "perfbench.session",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(int(trace)),
           "--work", os.path.join(WORK, f"s{int(trace)}"),
           "--ray-tmp", ray_tmp, "--result", result]
    env = dict(os.environ, PYTHONPATH=ROOT, RAY_USAGE_STATS_ENABLED="0")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return {"attempted": 1, "failed": 1,
                "errors": ["session: no result before the deadline"]}
    finally:
        _stop_group(proc.pid)
        proc.wait()
    if not os.path.exists(result):
        return None
    with open(result) as f:
        return json.load(f)


def _terminate(*_) -> None:
    signal.signal(signal.SIGTERM, signal.SIG_IGN)  # let the clean-up finish
    sys.exit(1)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        ap.error(f"unknown workload {args.workload!r}")
    if not os.path.isfile(os.path.join(ROOT, "orc_ray", "__init__.py")):
        print("perfbench: no orc_ray package next to the benchmark",
              file=sys.stderr)
        return 2

    # a terminated benchmark still stops its session (see run_session)
    signal.signal(signal.SIGTERM, _terminate)
    _become_subreaper()
    deadline = time.monotonic() + DEADLINE_S
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    phases = [(False, args.seconds)]
    if args.trace:
        phases = [(False, args.seconds / 2), (True, args.seconds / 2)]
    results = []
    ray_tmp = ray_temp_dir()
    try:
        for trace, seconds in phases:
            r = run_session(args, trace, seconds, deadline, ray_tmp)
            if r is None:
                print("perfbench: session ended without a result",
                      file=sys.stderr)
                return 1
            results.append(r)
            if r["failed"]:
                break
    finally:
        if not ray_tmp.startswith(WORK + os.sep):
            shutil.rmtree(ray_tmp, ignore_errors=True)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    ok = failed == 0
    metrics = {}
    if ok:
        if args.trace:
            plain, traced = results[0]["e2e"], results[1]["e2e"]
            better = {m["name"]: m["better"] for m in spec["end_to_end"]}
            values = dict(results[1]["layers"])
            for name in OVERHEAD_OF:
                ratio = plain[name] / traced[name] \
                    if better[name] == "higher" else traced[name] / plain[name]
                values[f"trace.overhead_{name}"] = ratio - 1
            wanted = spec["per_layer"]
        else:
            values = results[0]["e2e"]
            wanted = spec["end_to_end"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in wanted}
    detail = {"failed_share": failed / max(1, attempted),
              "errors": [e for r in results for e in r["errors"]],
              **results[-1].get("detail", {})}
    print("perfbench detail: " + json.dumps(detail), flush=True)
    print(json.dumps({"correct": ok, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
