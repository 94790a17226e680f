#!/usr/bin/env python3
"""Run every headline verification and drop the certificates in one directory.

Usage: python scripts/reproduce.py [--out DIR] [--seed N] [--skip-slow]

The slowest part is the pair of k=3 pipelines at n=31 (under a second each);
everything else is near-instant.  A failed check prints its step and exits
with status 1 (also under python -O).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from vc2lab import certs
from vc2lab.fp import FieldCtx
from vc2lab.gs import GsSet, QgsSet
from vc2lab.highrank import build_trace_basis, check_high_rank
from vc2lab.shatter import QuadShatterCertificate, vc_dim
from vc2lab.factor import QuadraticFactor, atom_census, construct_shatter_pair, forced_zero_probe, realize_maps
from vc2lab.ramsey import br_upper_bound, find_mono_biclique, random_colouring


class Step:
    """One headline verification: prints its name, then its time, or the check that failed."""

    def __init__(self, name):
        self.name = name
        print(f"— {name}")
        self.t0 = time.perf_counter()

    def require(self, ok, detail=""):
        """Stop with exit status 1, naming this step, unless ok holds."""
        if not ok:
            print(f"FAILED: {self.name}" + (f": {detail}" if detail else ""))
            sys.exit(1)

    def done(self, detail=""):
        print(f"  ok ({time.perf_counter() - self.t0:.1f}s) {detail}")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="out")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--skip-slow", action="store_true")
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    st = Step("VC-dimension of the linear set")
    values = {}
    for p, n in [(3, 3), (3, 4), (3, 5), (5, 2), (5, 3), (7, 2)]:
        a = GsSet(FieldCtx(p), n)
        res = vc_dim(a, k_max=4)
        values[(p, n)] = res.dim
        if res.certificate:
            doc = certs.shatter_certificate_doc(res.certificate, a)
            (out / f"vc_witness_p{p}_n{n}.json").write_bytes(certs.dumps(doc))
    st.done(f"values: {values}")

    st = Step("full-rank basis checks")
    for p in (3, 5, 7):
        for n in range(1, 5):
            st.require(check_high_rank(build_trace_basis(FieldCtx(p), n), mode="exhaustive") is None, f"p={p}, n={n}")
    st.require(check_high_rank(build_trace_basis(FieldCtx(3), 31), mode="sampled", count=10_000, seed=args.seed) is None,
               "p=3, n=31 sampled")
    st.done()

    st = Step("atom census at p=3, n=9 (l=2, q=2)")
    ctx3 = FieldCtx(3)
    basis9 = build_trace_basis(ctx3, 9)
    factor = QuadraticFactor(ctx3, np.eye(2, 9, dtype=np.int64), (1, 2))
    census = atom_census(factor, basis9)
    st.done(f"{len(census)} atoms, sizes {min(census.values())}..{max(census.values())}")

    pipelines = [(3, 13, 2)] if args.skip_slow else [(3, 13, 2), (3, 31, 3), (5, 31, 3)]
    for p, n, k in pipelines:
        st = Step(f"quadratic shattering pipeline k={k} at p={p}, n={n}")
        basis = build_trace_basis(FieldCtx(p), n)
        c = construct_shatter_pair(basis, k, seed=args.seed)
        a = QgsSet(basis)
        # realize_maps raises unless every grid checks out; the certificate is re-verified below
        found = realize_maps(c, np.arange(1 << (k * k)), seed=args.seed)
        cert = QuadShatterCertificate(c.X, c.Y, found)
        doc = certs.quad_certificate_doc(cert, a)
        path = out / f"vc2_k{k}_p{p}_n{n}.json"
        path.write_bytes(certs.dumps(doc))
        check = certs.verify_certificate(certs.loads(path.read_bytes()))
        st.require(check.ok, check.detail)
        st.done(f"{len(cert.witnesses)} maps -> {path}")

    st = Step("forced-zero probe at p=3, n=5")
    results = forced_zero_probe(build_trace_basis(FieldCtx(3), 5), instances=20, seed=args.seed)
    st.require(all(r.ok for r in results), "an instance failed")
    vac = sum(r.vacuous for r in results)
    st.done(f"checked={len(results) - vac} vacuous={vac}")

    st = Step("biclique bound chain and constructive search")
    st.require(all(br_upper_bound(r).value == 4 * r ** 3 + 1 for r in range(1, 101)), "bound is not 4r^3+1")
    for seed in range(20):
        col = random_colouring(501, 501, 5, seed=seed)
        w = find_mono_biclique(col, 3, 3)
        st.require(w is not None and w.verify(col), f"seed {seed}")
    st.done()

    print(f"all verifications passed; certificates in {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
