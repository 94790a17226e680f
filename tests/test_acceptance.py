"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (visible under pytest -s or in the
captured output) and enforces its own wall-clock budget.
"""

import time

import numpy as np
import pytest

from vc2lab import certs
from vc2lab.fp import FieldCtx
from vc2lab.gs import ExplicitSet, GsSet, QgsSet
from vc2lab.highrank import build_trace_basis, check_high_rank
from vc2lab.shatter import QuadShatterCertificate, vc_dim
from vc2lab.factor import (
    QuadraticFactor,
    atom_census,
    construct_shatter_pair,
    forced_zero_probe,
    realize_maps,
)
from vc2lab.ramsey import br_upper_bound, find_mono_biclique, random_colouring

ctx3 = FieldCtx(3)
ctx5 = FieldCtx(5)
ctx7 = FieldCtx(7)


def realized_shatter(c):
    """The certificate of the shifts realize_maps finds for every map of the construction's grid.

    realize_maps checks every grid before it returns; callers also pass the
    certificate's document through certs.verify_certificate.
    """
    found = realize_maps(c, np.arange(1 << (c.k * c.k)), seed=0)
    return QuadShatterCertificate(c.X, c.Y, found)


def report(name: str, ok: bool, elapsed: float, budget: float, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}: {elapsed:.1f}s (budget {budget:.0f}s) {detail}")
    assert ok, f"{name}: {detail}"
    assert elapsed < budget, f"{name} exceeded budget: {elapsed:.1f}s >= {budget}s"


def test_c01_linear_vc_dimension_p3():
    t0 = time.perf_counter()
    dims = {n: vc_dim(GsSet(ctx3, n), k_max=4).dim for n in (3, 4, 5)}
    elapsed = time.perf_counter() - t0
    report("vc-dim GS(3,n) = 3 for n in {3,4,5}", all(d == 3 for d in dims.values()),
           elapsed, 3 * 300, f"dims={dims}")


def test_c02_linear_vc_dimension_larger_primes():
    t0 = time.perf_counter()
    dims = {}
    for ctx, n in ((ctx5, 2), (ctx5, 3), (ctx7, 2)):
        t1 = time.perf_counter()
        dims[(ctx.p, n)] = vc_dim(GsSet(ctx, n), k_max=4).dim
        assert time.perf_counter() - t1 < 60
    elapsed = time.perf_counter() - t0
    report("vc-dim GS(p,n) = 2 for (5,2),(5,3),(7,2)", all(d == 2 for d in dims.values()),
           elapsed, 180, f"dims={dims}")


def test_c03_k2_pipeline():
    t0 = time.perf_counter()
    basis = build_trace_basis(ctx3, 13)
    c = construct_shatter_pair(basis, 2, seed=0)
    a = QgsSet(basis)
    cert = realized_shatter(c)
    doc = certs.loads(certs.dumps(certs.quad_certificate_doc(cert, a)))
    ok = len(cert.witnesses) == 16 and certs.verify_certificate(doc).ok
    elapsed = time.perf_counter() - t0
    report("k=2 grid fully realized at p=3, n=13", ok, elapsed, 60)


@pytest.mark.parametrize("p", [3, 5])
def test_c04_k3_pipeline(p):
    t0 = time.perf_counter()
    ctx = FieldCtx(p)
    basis = build_trace_basis(ctx, 31)
    c = construct_shatter_pair(basis, 3, seed=0)
    a = QgsSet(basis)
    cert = realized_shatter(c)
    doc = certs.loads(certs.dumps(certs.quad_certificate_doc(cert, a)))
    ok = len(cert.witnesses) == 512 and certs.verify_certificate(doc).ok
    elapsed = time.perf_counter() - t0
    report(f"k=3 grid fully realized at p={p}, n=31", ok, elapsed, 600)


def test_c05_high_rank_basis_checks():
    t0 = time.perf_counter()
    ok = True
    for p in (3, 5, 7):
        for n in range(1, 5):
            basis = build_trace_basis(FieldCtx(p), n)
            ok = ok and check_high_rank(basis, mode="exhaustive") is None
    basis31 = build_trace_basis(ctx3, 31)
    ok = ok and check_high_rank(basis31, mode="sampled", count=10_000, seed=1) is None
    elapsed = time.perf_counter() - t0
    report("full-rank checks: exhaustive p<=7 n<=4, sampled 1e4 at p=3 n=31", ok, elapsed, 60)


def test_c06_expansion_identity_bulk():
    t0 = time.perf_counter()
    basis = build_trace_basis(ctx3, 9)
    mats = basis.mats
    rng = np.random.default_rng(123)
    count = 100_000
    xs = rng.integers(0, 3, (count, 9)).astype(np.int64)
    ys = rng.integers(0, 3, (count, 9)).astype(np.int64)
    zs = rng.integers(0, 3, (count, 9)).astype(np.int64)
    ts = rng.integers(0, 9, count)
    ok = True
    for t in range(9):
        sel = ts == t
        m = mats[t]

        def q(v):
            return np.einsum("ij,jk,ik->i", v, m, v) % 3

        lhs = q((xs[sel] + ys[sel] + zs[sel]) % 3)
        rhs = (q((xs[sel] + zs[sel]) % 3) + q((ys[sel] + zs[sel]) % 3) - q(zs[sel])
               + 2 * np.einsum("ij,jk,ik->i", xs[sel], m, ys[sel])) % 3
        ok = ok and bool((lhs == rhs).all())
    elapsed = time.perf_counter() - t0
    report("value expansion identity on 1e5 random instances", ok, elapsed, 10)


def test_c07_atom_census_bound():
    t0 = time.perf_counter()
    basis = build_trace_basis(ctx3, 9)
    census = atom_census(QuadraticFactor(basis, np.eye(2, 9, dtype=np.int64), (1, 2)))  # raises on violation
    ok = len(census) == 81 and min(census.values()) > 0
    elapsed = time.perf_counter() - t0
    report("atom census bound at p=3, n=9, l=2, q=2", ok, elapsed, 60,
           f"sizes {min(census.values())}..{max(census.values())}")


def test_c08_ramsey_bound_and_constructive_search():
    t0 = time.perf_counter()
    ok = all(br_upper_bound(r).value == 4 * r ** 3 + 1 for r in range(1, 101))
    for seed in range(100):
        col = random_colouring(501, 501, 5, seed=seed)
        w = find_mono_biclique(col, 3, 3)
        ok = ok and w is not None and w.verify(col)
    elapsed = time.perf_counter() - t0
    report("bound chain r in [1,100] + 100 colourings of K_{501,501}", ok, elapsed, 120)


def test_c09a_forced_zero_property_suite():
    t0 = time.perf_counter()
    basis = build_trace_basis(ctx3, 5)
    results = forced_zero_probe(basis, instances=20, seed=1)
    ok = all(r.ok for r in results)
    vacuous = sum(1 for r in results if r.vacuous)
    checked = len(results) - vacuous
    elapsed = time.perf_counter() - t0
    report("forced-zero conclusions on 20 seeded instances", ok and checked > 0, elapsed, 120,
           f"checked={checked} vacuous={vacuous}")


def test_c09b_certificate_fuzzing():
    from test_certs import _mutations

    t0 = time.perf_counter()
    a = GsSet(ctx3, 3)
    from vc2lab.shatter import shatters

    s = [(0, 0, 0), (0, 1, 2), (0, 2, 1)]
    sdoc = certs.loads(certs.dumps(certs.shatter_certificate_doc(shatters(a, s), a)))
    basis = build_trace_basis(ctx3, 13)
    c = construct_shatter_pair(basis, 2, seed=0)
    qa = QgsSet(basis)
    qcert = realized_shatter(c)
    qdoc = certs.loads(certs.dumps(certs.quad_certificate_doc(qcert, qa)))
    # the unmutated documents pass, so every rejection below is the mutation's
    originals_pass = all(certs.verify_certificate(doc).ok for doc in (sdoc, qdoc))

    rng = np.random.default_rng(99)
    rejected = 0
    for doc in (sdoc, qdoc):
        gen = _mutations(doc, rng)
        for _ in range(5_000):
            if not certs.verify_certificate(next(gen)).ok:
                rejected += 1
    elapsed = time.perf_counter() - t0
    report("1e4 fuzzed certificate mutations rejected", originals_pass and rejected == 10_000, elapsed, 300,
           f"originals_pass={originals_pass} rejected={rejected}/10000")


def test_c10_oracle_equivalence():
    from test_shatter import vc_dim_naive

    t0 = time.perf_counter()
    ok = True
    for ctx, n in ((ctx3, 2), (ctx5, 1)):
        rng = np.random.default_rng(ctx.p)
        for _ in range(50):
            a = ExplicitSet(ctx, n, rng.random(ctx.p ** n) < rng.uniform(0.2, 0.8))
            ok = ok and vc_dim(a, k_max=5).dim == vc_dim_naive(a)
    elapsed = time.perf_counter() - t0
    report("pruned search agrees with the naive oracle on 100 random sets", ok, elapsed, 60)
