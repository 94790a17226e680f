#!/usr/bin/env python3
"""Run every headline verification and drop the certificates in one directory.

Usage: python scripts/reproduce.py [--out DIR] [--seed N] [--skip-slow]

Each step is a list of vc2lab commands run through vc2lab.cli.dispatch, the
same call `vc2lab <command> ...` makes, so every certificate is verified before
it is written.  A step fails when a command raises or reports outcome fail: it
prints the step and exits with status 1.  The slowest part is the pair of k=3
pipelines at n=31 (under a second each); everything else is near-instant.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from vc2lab.cli import RunConfig, dispatch

LINEAR = [(3, 3), (3, 4), (3, 5), (5, 2), (5, 3), (7, 2)]


def steps(out: Path, seed: int, skip_slow: bool) -> list:
    """(name, commands, one-line summary of their reports or None) per headline verification."""
    pipelines = [(3, 13, 2)] if skip_slow else [(3, 13, 2), (3, 31, 3), (5, 31, 3)]
    return [
        ("VC-dimension of the linear set",
         [RunConfig("vc-dim", p=p, n=n, extra={"k_max": 4, "cert": str(out / f"vc_witness_p{p}_n{n}.json")})
          for p, n in LINEAR],
         lambda reports: f"values: {dict(zip(LINEAR, (r.value for r in reports)))}"),
        ("full-rank basis checks",
         [RunConfig("basis", p=p, n=n, extra={"mode": "exhaustive"}) for p in (3, 5, 7) for n in range(1, 5)]
         + [RunConfig("basis", p=3, n=31, seed=seed, extra={"mode": "sampled", "count": 10_000})],
         None),
        ("atom census at p=3, n=9 (l=2, q=2)",
         [RunConfig("atom-census", p=3, n=9, extra={"l": 2, "q": 2})],
         lambda reports: "{atoms} atoms, sizes {min_size}..{max_size}".format(**reports[0].value)),
        *[(f"quadratic shattering pipeline k={k} at p={p}, n={n}",
           [RunConfig("vc2-verify", p=p, n=n, k=k, seed=seed, extra={"cert": str(out / f"vc2_k{k}_p{p}_n{n}.json")})],
           lambda reports: f"{reports[0].value['maps_realized']} maps -> {reports[0].certificate}")
          for p, n, k in pipelines],
        ("forced-zero probe at p=3, n=5",
         [RunConfig("prop32-check", p=3, n=5, seed=seed, extra={"instances": 20})],
         lambda reports: "checked={instances} vacuous={vacuous}".format(
             instances=reports[0].value["instances"] - reports[0].value["vacuous"], vacuous=reports[0].value["vacuous"])),
        ("biclique bound chain and constructive search",
         [RunConfig("br-bound", extra={"r": r}) for r in range(1, 101)]
         + [RunConfig("ramsey-find", seed=s, extra={"m": 501, "n_right": 501, "r": 5}) for s in range(20)],
         None),
    ]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="out")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--skip-slow", action="store_true")
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    for name, configs, summary in steps(out, args.seed, args.skip_slow):
        print(f"— {name}")
        t0 = time.perf_counter()
        reports = []
        for cfg in configs:
            try:
                reports.append(dispatch(cfg))
            except Exception as exc:
                print(f"FAILED: {name}: {cfg.command}: {exc}")
                return 1
            if reports[-1].outcome == "fail":
                print(f"FAILED: {name}: {cfg.command} {reports[-1].params}: {reports[-1].value}")
                return 1
        print(f"  ok ({time.perf_counter() - t0:.1f}s) {summary(reports) if summary else ''}")

    print(f"all verifications passed; certificates in {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
