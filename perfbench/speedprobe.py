"""Host-speed probe: a fixed mix of interpreter and numpy work, timed every INTERVAL_S on one CPU.

    python3 perfbench/speedprobe.py --cpu 0 --out samples.txt --max-seconds 175

run.py starts it pinned to the CPU the workers are pinned to, so each sample
says how fast that CPU ran the same instructions at that moment.  A shared
host changes that speed by up to 1.8x, for seconds to minutes at a time,
and a worker's times move with it; run.py divides them by the probe times
taken while they ran.  The probe does the kinds of work vc2lab does:
arithmetic in the interpreter, dict lookups, and small integer matrix
products and elimination-style row operations mod 3 in numpy, on a working set small enough to stay in the
CPU's caches.  It imports nothing from vc2lab, so a change to the program
cannot change the probe.  It is timed in thread CPU time, so a probe that
waits for the worker it shares the CPU with is not counted slow.  One probe
costs about 2 ms every 80 ms, about 2.5% of the CPU, the same on every run.  Samples are `<monotonic time> <probe
seconds>` lines, written when the probe is stopped (SIGTERM), when its
parent exits, or after --max-seconds.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import random
import time

import numpy as np

INTERVAL_S = 0.08
_rng = np.random.default_rng(0)
_A = _rng.integers(0, 3, (31, 31))
_B = _rng.integers(0, 3, (31, 31))
_TABLE = {i: i * 7 for i in range(4_000)}
_KEYS = [random.Random(1).randrange(4_000) for _ in range(3_000)]


def _probe() -> int:
    acc = 0
    for i in range(4_000):
        acc = (acc * 31 + i) % 1_000_003
    for key in _KEYS:
        acc += _TABLE[key]
    x = _A
    for _ in range(20):
        x = (x @ _B) % 3
        x[0, 0] = 1
    for _ in range(2):  # row operations of an elimination sweep: many small numpy calls
        a = _A.copy()
        for c in range(31):
            np.nonzero(a[c:, c])
            a[c:, c:] = (a[c:, c:] + np.outer(a[c:, c], a[c, c:])) % 3
        acc += int(a[30, 30])
    return acc + int(x[1, 1])


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--cpu", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--max-seconds", type=float, required=True)
    args = ap.parse_args(argv)

    os.sched_setaffinity(0, {args.cpu})
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    parent = os.getppid()
    end = time.monotonic() + args.max_seconds
    samples = []
    try:
        while time.monotonic() < end and os.getppid() == parent:
            time.sleep(INTERVAL_S)
            at = time.monotonic()
            started = time.thread_time()
            _probe()
            samples.append((at, time.thread_time() - started))
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)  # a second stop must not cut the write short
        with open(args.out, "w") as f:
            f.writelines(f"{at:.6f} {d:.9f}\n" for at, d in samples)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
