#!/usr/bin/env python3
"""Search hooks for exploring shattering beyond the certified values.

Examples:
    # exact VC-dimension of the quadratic set on a small group
    python scripts/explore_shattering.py vc --p 3 --n 3 --set qgs --k-max 5

    # try to quadratically shatter random small pairs by one pattern scan over the grid cells
    python scripts/explore_shattering.py vc2-random --p 3 --n 5 --k 2 --tries 200
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from vc2lab.fp import FieldCtx
from vc2lab.gs import GsSet, QgsSet
from vc2lab.highrank import build_trace_basis
from vc2lab.shatter import QuadShatterCertificate, vc2_shatters, vc_dim


def cmd_vc(args) -> int:
    ctx = FieldCtx(args.p)
    a = GsSet(ctx, args.n) if args.set == "gs" else QgsSet(build_trace_basis(ctx, args.n))
    res = vc_dim(a, k_max=args.k_max)
    print(f"vc-dim({args.set}, p={args.p}, n={args.n}) = {res.dim}")
    if res.certificate:
        print(f"witness set: {res.certificate.S.tolist()}")
    return 0


def cmd_vc2_random(args) -> int:
    ctx = FieldCtx(args.p)
    a = GsSet(ctx, args.n) if args.set == "gs" else QgsSet(build_trace_basis(ctx, args.n))
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

    sp = sub.add_parser("vc")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--set", choices=["gs", "qgs"], default="gs")
    sp.add_argument("--k-max", type=int, default=5)
    sp.set_defaults(fn=cmd_vc)

    sp = sub.add_parser("vc2-random")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--set", choices=["gs", "qgs"], default="qgs")
    sp.add_argument("--k", type=int, default=2, choices=[1, 2, 3])
    sp.add_argument("--tries", type=int, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_vc2_random)

    args = ap.parse_args()
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
