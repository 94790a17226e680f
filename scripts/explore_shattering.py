#!/usr/bin/env python3
"""Random search for quadratically shattered pairs beyond the certified constructions.

Example:
    # try to quadratically shatter random small pairs by one pattern scan over the grid cells
    python scripts/explore_shattering.py vc2-random --p 3 --n 5 --k 2 --tries 200

The exact VC-dimension of a small set is a vc2lab command:
    vc2lab vc-dim --p 3 --n 3 --set qgs --k-max 5
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from vc2lab.cli import RunConfig, _oracle
from vc2lab.shatter import QuadShatterCertificate, vc2_shatters


def cmd_vc2_random(args) -> int:
    a = _oracle(RunConfig("vc2-random", p=args.p, n=args.n, extra={"set": args.set}))
    rng = np.random.default_rng(args.seed)
    zero = np.zeros((1, args.n), dtype=np.int64)
    best = None
    for trial in range(args.tries):
        xs = np.vstack([zero] + [rng.integers(0, args.p, args.n) for _ in range(args.k - 1)])
        ys = np.vstack([zero] + [rng.integers(0, args.p, args.n) for _ in range(args.k - 1)])
        res = vc2_shatters(a, xs, ys)
        if isinstance(res, QuadShatterCertificate):
            print(f"trial {trial}: shattered pair found")
            print(f"  X = {xs.tolist()}")
            print(f"  Y = {ys.tolist()}")
            return 0
        best = res if best is None or res.missing > best.missing else best
    deepest = -1 if best is None else best.missing
    print(f"no shattered pair in {args.tries} trials; deepest failure at map index {deepest}")
    return 1


def main() -> int:
    ap = argparse.ArgumentParser()
    sub = ap.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("vc2-random")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--set", choices=["gs", "qgs"], default="qgs")
    sp.add_argument("--k", type=int, default=2, choices=[1, 2, 3])
    sp.add_argument("--tries", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_vc2_random)

    args = ap.parse_args()
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
