import json
from pathlib import Path

import numpy as np
import pytest

from vc2lab.fp import FieldCtx, _rank_array, _rref, derive_rng, ranks_to_digits
from vc2lab.highrank import (
    HighRankBasis,
    IrreduciblePoly,
    _is_irreducible,
    _nonzero_rows,
    build_irreducible,
    build_trace_basis,
    check_high_rank,
)

ctx3 = FieldCtx(3)
ctx5 = FieldCtx(5)
ctx7 = FieldCtx(7)


def test_build_irreducible_examples():
    assert build_irreducible(ctx3, 1).coeffs == (0, 1)  # x
    assert build_irreducible(ctx3, 2).coeffs == (1, 0, 1)  # x^2 + 1
    assert build_irreducible(ctx5, 2).coeffs == (2, 0, 1)  # x^2 + 2


def test_irreducible_poly_rejects_reducible():
    with pytest.raises(ValueError):
        IrreduciblePoly(ctx3, (0, 0, 1))  # x^2
    with pytest.raises(ValueError):
        IrreduciblePoly(ctx5, (1, 0, 1))  # x^2 + 1 = (x-2)(x+2) mod 5


def _monic(idx, p, n):
    """The monic polynomial of degree n whose low coefficients are the base-p digits of idx."""
    coeffs = []
    for _ in range(n):
        coeffs.append(idx % p)
        idx //= p
    return tuple(coeffs) + (1,)


def _remainder(f, g, p):
    """f mod g for a monic g, little-endian coefficient lists."""
    f = list(f)
    while len(f) >= len(g):
        c = f[-1]
        shift = len(f) - len(g)
        for i, gi in enumerate(g):
            f[shift + i] = (f[shift + i] - c * gi) % p
        f.pop()
    return f


def _is_irreducible_reference(coeffs, p):
    """Trial division by every monic polynomial of degree 1 .. n // 2."""
    n = len(coeffs) - 1
    return not any(
        not any(_remainder(coeffs, _monic(idx, p, d), p))
        for d in range(1, n // 2 + 1)
        for idx in range(p ** d)
    )


@pytest.mark.parametrize("p,n", [(3, d) for d in range(1, 7)] + [(5, d) for d in range(1, 5)]
                         + [(7, d) for d in range(1, 5)])
def test_irreducibility_tests_agree(p, n):
    # every monic polynomial of degree n
    for idx in range(p ** n):
        coeffs = _monic(idx, p, n)
        assert _is_irreducible(coeffs, p) == _is_irreducible_reference(coeffs, p)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_build_irreducible_is_first_candidate(p):
    for n in range(1, 11):
        if p ** n > 10 ** 5:
            break
        first = next(c for c in (_monic(i, p, n) for i in range(p ** n)) if _is_irreducible_reference(c, p))
        assert build_irreducible(FieldCtx(p), n).coeffs == first


@pytest.mark.parametrize("name", ["k3_p3_n31.json", "k3_p5_n31.json", "k2_p3_n13.json"])
def test_build_irreducible_matches_benchmark_certificates(name):
    # the extension polynomials recorded in the benchmark's golden certificates
    doc = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "data" / name).read_text())
    assert list(build_irreducible(FieldCtx(doc["p"]), doc["n"]).coeffs) == doc["set"]["poly"]


def test_trace_basis_degree_one():
    b = build_trace_basis(ctx3, 1)
    assert b.mats.tolist() == [[[1]]]


def test_trace_basis_symmetry_and_independence():
    for p, n in [(3, 3), (5, 2), (7, 3), (3, 4)]:
        b = build_trace_basis(FieldCtx(p), n)
        assert b.mats.shape == (n, n, n) and b.mats.dtype == np.int64 and not b.mats.flags.writeable
        assert (b.mats == b.mats.transpose(0, 2, 1)).all()
        assert _rank_array(b.mats.reshape(n, -1), p) == n


def test_trace_basis_deterministic():
    a = build_trace_basis(ctx3, 5)
    b = build_trace_basis(ctx3, 5)
    assert a.poly == b.poly and np.array_equal(a.mats, b.mats)


def test_exhaustive_high_rank_small():
    # oracle: rank of every nonzero combination, all 26 of them at p=3, n=3
    b = build_trace_basis(ctx3, 3)
    assert check_high_rank(b, mode="exhaustive") is None


@pytest.mark.parametrize("p,n", [(3, 2), (3, 4), (5, 2), (5, 3), (7, 2), (7, 3)])
def test_exhaustive_high_rank_sweep(p, n):
    b = build_trace_basis(FieldCtx(p), n)
    assert check_high_rank(b, mode="exhaustive") is None


def test_high_rank_failure_witness():
    # I and diag(1, p-1) at p=3: the sum is diag(2, 0) with rank 1
    poly = build_irreducible(ctx3, 2)
    mats = np.array([[[1, 0], [0, 1]], [[1, 0], [0, 2]]])
    bad = HighRankBasis(ctx3, 2, poly, mats)
    witness = check_high_rank(bad, mode="exhaustive")
    assert witness is not None and witness.dtype == np.int64
    combo = (witness[0] * mats[0] + witness[1] * mats[1]) % 3
    assert _rank_array(combo, 3) < 2
    assert witness.tolist() == [1, 1]
    # sampled mode reports the lexicographically smallest failure among its draws
    witness = check_high_rank(bad, mode="sampled", count=50, seed=0)
    assert witness.dtype == np.int64 and witness.tolist() == [1, 1]


def test_planted_failure_same_witness_in_every_mode():
    # n = 9 trace matrices with M_1 replaced so that the combination planted = (1, 2, 0, 1, 0, 0, 2, 1, 1)
    # is the rank-1 matrix v v^T; other combinations with a nonzero first coefficient may fail too
    p, n = 3, 9
    mats = build_trace_basis(ctx3, n).mats.copy()
    planted = np.array([1, 2, 0, 1, 0, 0, 2, 1, 1])
    v = np.array([1, 0, 2, 2, 1, 0, 1, 1, 2])
    mats[0] = (np.outer(v, v) - np.tensordot(planted[1:], mats[1:], axes=1)) % p
    bad = HighRankBasis(ctx3, n, build_irreducible(ctx3, n), mats)
    assert _rank_array(np.tensordot(planted, bad.mats, axes=1) % p, p) == 1
    # reference: the first failing combination in rank order, ranked by the full reduction
    lams = ranks_to_digits(np.arange(1, p ** n), p, n)
    _, pivots = _rref((lams @ bad.mats.reshape(n, -1) % p).reshape(-1, n, n), p)
    want = lams[np.flatnonzero((pivots >= 0).sum(axis=-1) < n)[0]].tolist()
    assert check_high_rank(bad, mode="exhaustive").tolist() == want
    # 10^5 draws from the 3^9 - 1 nonzero combinations miss a given one with probability e^-5
    assert check_high_rank(bad, mode="sampled", count=100_000, seed=0).tolist() == want


@pytest.mark.parametrize("n", [1, 2, 3, 9, 31])
@pytest.mark.parametrize("p", [3, 5, 7, 101])
def test_nonzero_rows_match_one_draw_per_row(p, n):
    # the sampled check's block draws against the loop of one draw per coefficient vector;
    # at n = 1 about one row in p is zero, so the block is topped up
    for seed in range(20):
        block, loop = derive_rng(seed, "high-rank-check", 0), derive_rng(seed, "high-rank-check", 0)
        got = np.concatenate([_nonzero_rows(block, m, n, p) for m in (7, 50, 1)])
        want = []
        while len(want) < len(got):
            lam = loop.integers(0, p, size=n)
            if lam.any():
                want.append(lam)
        assert got.dtype == np.int64 and np.array_equal(got, np.array(want))
        assert block.integers(0, 1 << 40) == loop.integers(0, 1 << 40)  # both streams end at the same place


def test_exhaustive_limit_enforced():
    b = build_trace_basis(ctx3, 13)
    with pytest.raises(ValueError):
        check_high_rank(b, mode="exhaustive")


def test_sampled_high_rank_n31():
    b = build_trace_basis(ctx3, 31)
    assert check_high_rank(b, mode="sampled", count=2_000, seed=1) is None


def test_sampled_high_rank_n7():
    b = build_trace_basis(ctx3, 7)
    assert check_high_rank(b, mode="sampled", count=500, seed=3) is None


def test_basis_rejects_dependent_matrices():
    poly = build_irreducible(ctx3, 2)
    swap = [[0, 1], [1, 0]]
    HighRankBasis(ctx3, 2, poly, [swap, [[1, 0], [0, 2]]])
    with pytest.raises(ValueError, match="dependent"):
        HighRankBasis(ctx3, 2, poly, [swap, [[0, 2], [2, 0]]])


def test_basis_json_round_trip():
    b = build_trace_basis(ctx5, 3)
    doc = b.to_json()
    back = HighRankBasis.from_json(doc)
    assert np.array_equal(back.mats, b.mats) and back.poly.coeffs == b.poly.coeffs
    assert back.to_json() == doc
    assert doc["mats"][0] == {"p": 5, "rows": b.mats[0].tolist()}


def test_basis_checks_outside_input():
    poly = build_irreducible(ctx3, 2)
    good = [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]
    # entries are normalized mod p; the stored array is a read-only copy
    given = np.array(good) + 3
    b = HighRankBasis(ctx3, 2, poly, given)
    assert b.mats.tolist() == good and not b.mats.flags.writeable and given.flags.writeable
    for bad, match in [
        (good[:1], "integer array"),
        ([[[1, 0, 0], [0, 1, 0]]] * 2, "integer array"),
        (np.array(good, dtype=float), "integer array"),
        ([[[1, 0], [0, 1]], [[0, 1], [2, 0]]], "symmetric"),
    ]:
        with pytest.raises(ValueError, match=match):
            HighRankBasis(ctx3, 2, poly, bad)


def test_basis_json_rejects_foreign_field_and_bad_shape():
    doc = build_trace_basis(ctx3, 2).to_json()
    # F_7 rows, entries 5 and 6, inside an F_3 basis document
    foreign = json.loads(json.dumps(doc))
    foreign["mats"][0] = {"p": 7, "rows": [[5, 6], [6, 5]]}
    with pytest.raises(ValueError, match="basis field"):
        HighRankBasis.from_json(foreign)
    for mats in (doc["mats"][:1], [doc["mats"][0], {"p": 3, "rows": [[1, 0]]}],
                 [doc["mats"][0], {"p": 3, "rows": [[1, 0], [0]]}]):
        with pytest.raises(ValueError):
            HighRankBasis.from_json({**doc, "mats": mats})


def test_basis_rejects_p_beyond_int64():
    # 2^63 + 29 is a prime FieldCtx accepts, but its residues overflow the int64 basis array
    big = FieldCtx(9223372036854775837)
    with pytest.raises(ValueError, match="2\\^63"):
        build_trace_basis(big, 2)
    with pytest.raises(ValueError, match="2\\^63"):
        HighRankBasis(big, 1, IrreduciblePoly(big, (0, 1)), np.array([[[big.p - 1]]], dtype=object))
