"""Peak resident memory of a benchmark session, sampled from a separate
process so that reading /proc never holds the session's GIL while it
times a call.

  python3 -m perfbench.rss SESSION_PID

samples the summed RSS of the session process and every busy Ray worker
(``ray::*`` but not ``ray::IDLE``) in its process group until stdin
closes, then prints the peak in bytes.
"""

from __future__ import annotations

import os
import select
import sys
import time

INTERVAL_S = 0.25
RESCAN_S = 1.0
PAGE = os.sysconf("SC_PAGE_SIZE")


def workers(pgid: int) -> list[int]:
    pids = []
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat", "rb") as f:
                fields = f.read().rsplit(b")", 1)[1].split()
            if int(fields[2]) != pgid:
                continue
            with open(f"/proc/{d}/cmdline", "rb") as f:
                cmd = f.read(9)
            # idle pooled workers come and go with Ray's timing, not the load
            if cmd.startswith(b"ray::") and cmd != b"ray::IDLE":
                pids.append(int(d))
        except (OSError, IndexError, ValueError):
            continue
    return pids


def rss(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/statm", "rb") as f:
            return int(f.read().split()[1]) * PAGE
    except (OSError, IndexError, ValueError):
        return 0


def main() -> int:
    session = int(sys.argv[1])
    pgid = os.getpgid(session)
    pids, scanned, peak = [], 0.0, 0
    while True:
        now = time.monotonic()
        if now - scanned >= RESCAN_S:
            pids, scanned = workers(pgid), now
        peak = max(peak, rss(session) + sum(rss(p) for p in pids))
        if select.select([sys.stdin], [], [], INTERVAL_S)[0]:
            break  # stdin closed: the timed phase is over
    print(peak, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
