"""Run perfbench parent/head pairs and summarize them.

  python tools/ab_pairs.py --parent DIR --head DIR --workload W
      --seeds 1-10 [--claim METRIC] [--log FILE] [--from-log]

Each seed is one pair: ``perfbench/run.py --workload W --seed N --seconds
25 --trace 0`` runs in the parent checkout and in the head checkout, the
parent first on odd seeds and the head first on even ones, so a drift in
the machine's speed falls on both sides alike. Every run appends its raw
last stdout line (the result JSON) to the log, one JSON record per run;
``--from-log`` summarizes a log instead of running.

The summary prints, per pair, the head/parent ratio of every end-to-end
metric, then per metric each side's median and quartiles. It flags a
metric whose head median is worse than the parent's by more than its
``BENCHMARK.json`` bound (``WORSE``), or whose spread, (q3 - q1) / median
with quartiles as ``statistics.quantiles(values, n=4)``, is wider than the
bound on either side (``SPREAD``). With ``--claim``, it prints how many
pairs the head won on that metric and whether the median gain exceeds both
the parent's interquartile range and the metric's bound. Only
``perfbench/`` and ``BENCHMARK.json`` of the checkouts are used.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

SECONDS = 25


def parse_seeds(text: str) -> list[int]:
    """``"1-10"`` or ``"3,5,7"`` (or a mix) as a list of seeds."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(checkout: str, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    return {"seed": seed, "exit": proc.returncode,
            "wall_s": round(time.monotonic() - t0, 1),
            "last_line": lines[-1] if lines else ""}


def result_of(rec: dict) -> dict | None:
    """The run's result JSON, or None when its last line is not one."""
    try:
        return json.loads(rec["last_line"])
    except json.JSONDecodeError:
        return None


def metric_value(entry) -> float | None:
    """A metric's number: run.py prints each as ``{"value", "unit"}``."""
    v = entry.get("value") if isinstance(entry, dict) else entry
    return float(v) if isinstance(v, (int, float)) else None


def _quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return q1, med, q3


def _better(spec: dict, head: float, parent: float) -> bool:
    return head > parent if spec["better"] == "higher" else head < parent


def summarize(records: list[dict], spec: dict, claim: str | None) -> None:
    """Print the pair table, the per-metric summary and the claim."""
    pairs: dict[int, dict] = {}
    for r in records:
        pairs.setdefault(r["seed"], {})[r["side"]] = r
    seeds = sorted(s for s, p in pairs.items() if len(p) == 2)
    metrics = spec["end_to_end"]
    names = [m["name"] for m in metrics]
    results = {(s, side): result_of(pairs[s][side]) or {}
               for s in seeds for side in ("parent", "head")}

    def value(s: int, side: str, name: str) -> float | None:
        v = results[s, side].get("metrics", {}).get(name)
        return metric_value(v)

    print("seed  first   " + "  ".join(f"{n:>18s}" for n in names))
    for s in seeds:
        first = "parent" if s % 2 else "head"
        cells = []
        for n in names:
            h, p = value(s, "head", n), value(s, "parent", n)
            cells.append(f"{h / p:18.3f}" if h is not None and p else
                         f"{'-':>18s}")
        print(f"{s:4d}  {first:6s}  " + "  ".join(cells))

    for side in ("parent", "head"):
        att = sum(results[s, side].get("attempted", 0) for s in seeds)
        bad = sum(results[s, side].get("failed", 0) for s in seeds)
        none = sum(not results[s, side] for s in seeds)
        print(f"{side}: {bad}/{att} operations failed, "
              f"{none} runs without a result")
    print()
    print(f"{'metric':20s} {'parent median [q1, q3]':>34s} "
          f"{'head median [q1, q3]':>34s} {'head/parent':>11s}  flags")
    for m in metrics:
        n = m["name"]
        ps = [v for s in seeds if (v := value(s, "parent", n)) is not None]
        hs = [v for s in seeds if (v := value(s, "head", n)) is not None]
        if not ps or not hs:
            print(f"{n:20s} (no values)")
            continue
        pq, hq = _quartiles(ps), _quartiles(hs)
        ratio = hq[1] / pq[1] if pq[1] else float("nan")
        worse = (1 - ratio) if m["better"] == "higher" else (ratio - 1)
        spread = [(q[2] - q[0]) / q[1] if q[1] else 0.0 for q in (pq, hq)]
        out = []
        if worse > m["bound"]:
            out.append("WORSE")
        if max(spread) > m["bound"]:
            out.append(f"SPREAD({spread[0]:.2f}/{spread[1]:.2f})")
        print(f"{n:20s} {pq[1]:12.4g} [{pq[0]:.4g}, {pq[2]:.4g}]"
              f"{'':4s}{hq[1]:12.4g} [{hq[0]:.4g}, {hq[2]:.4g}]"
              f"{ratio:11.3f}  {' '.join(out)}")
    if claim:
        m = next(m for m in metrics if m["name"] == claim)
        both = [(value(s, "head", claim), value(s, "parent", claim))
                for s in seeds]
        both = [(h, p) for h, p in both if h is not None and p is not None]
        if not both:
            print(f"\nclaim {claim}: no pair has values")
            return
        wins = sum(_better(m, h, p) for h, p in both)
        pq = _quartiles([p for _, p in both])
        hmed = statistics.median(h for h, _ in both)
        gain = hmed - pq[1] if m["better"] == "higher" else pq[1] - hmed
        rel = gain / pq[1] if pq[1] else 0.0
        iqr = pq[2] - pq[0]
        ok = wins >= 0.9 * len(both) and gain > iqr and rel > m["bound"]
        print(f"\nclaim {claim}: head won {wins} of {len(both)} pairs; "
              f"median gain {gain:.4g} ({rel:+.1%}) against parent IQR "
              f"{iqr:.4g} and bound {m['bound']:.0%}: "
              f"{'HOLDS' if ok else 'DOES NOT HOLD'}")


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--head", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=parse_seeds)
    ap.add_argument("--claim")
    ap.add_argument("--log", help="default: ab_pairs_<workload>.log")
    ap.add_argument("--from-log", action="store_true",
                    help="summarize the log instead of running")
    args = ap.parse_args(argv)
    log = args.log or f"ab_pairs_{args.workload}.log"
    with open(os.path.join(args.head, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.claim and args.claim not in {m["name"]
                                         for m in spec["end_to_end"]}:
        ap.error(f"--claim {args.claim!r} is no end-to-end metric")
    records: list[dict] = []
    if args.from_log:
        with open(log) as f:
            records = [json.loads(line) for line in f if line.strip()]
        records = [r for r in records if r.get("workload") == args.workload
                   and r["seed"] in args.seeds]
    else:
        for seed in args.seeds:
            order = ["parent", "head"] if seed % 2 else ["head", "parent"]
            for side in order:
                rec = run_one(getattr(args, side), args.workload, seed)
                rec.update(side=side, workload=args.workload)
                records.append(rec)
                with open(log, "a") as f:
                    f.write(json.dumps(rec) + "\n")
                m = (result_of(rec) or {}).get("metrics", {})
                print(f"seed {seed} {side}: exit {rec['exit']}, "
                      f"{rec['wall_s']} s, "
                      + ", ".join(f"{k}={metric_value(v):.4g}"
                                  for k, v in m.items()),
                      flush=True)
        print()
    summarize(records, spec, args.claim)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
