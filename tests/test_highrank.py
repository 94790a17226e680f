import json
import random
from pathlib import Path

import numpy as np
import pytest

from vc2lab.fp import FieldCtx, _rank_array, _rref, derive_rng, ranks_to_digits
from vc2lab import highrank
from vc2lab.highrank import (
    HighRankBasis,
    IrreduciblePoly,
    _frobenius_images,
    _irreducible_rows,
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


# The list-polynomial Ben-Or test that highrank ran before its array test, kept verbatim
# as a second reference: little-endian coefficient lists, coeffs[i] multiplies x**i.


def _ptrim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _pmod(a: list[int], f: list[int], p: int) -> list[int]:
    """a mod f, trimmed; each step touches only the nonzero coefficients of f."""
    a = list(a)
    df = len(f) - 1
    inv_lead = pow(f[-1], p - 2, p)
    terms = [(i, fi) for i, fi in enumerate(f[:-1]) if fi]
    for top in range(len(a) - 1, df - 1, -1):
        coef = (a[top] * inv_lead) % p
        if coef:
            shift = top - df
            for i, fi in terms:
                a[shift + i] = (a[shift + i] - coef * fi) % p
    return _ptrim(a[:df])


def _pmulmod(a: list[int], b: list[int], f: list[int], p: int) -> list[int]:
    return _pmod(_pmul(a, b, p), f, p)


def _ppowmod(base: list[int], e: int, f: list[int], p: int) -> list[int]:
    result = [1]
    acc = _pmod(list(base), f, p)
    while True:
        if e & 1:
            result = _pmulmod(result, acc, f, p)
        e >>= 1
        if not e:
            return result
        acc = _pmulmod(acc, acc, f, p)


def _pgcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _ptrim(list(a)), _ptrim(list(b))
    while b:
        a, b = b, _pmod(a, b, p)
        b = _ptrim(b)
    if a:
        inv = pow(a[-1], p - 2, p)
        a = [(c * inv) % p for c in a]
    return a


def _is_irreducible_ben_or(coeffs: tuple[int, ...], p: int) -> bool:
    """Ben-Or's irreducibility test (FOCS 1981).

    A monic f of degree n is irreducible iff gcd(f, x^(p^k) - x) = 1 for every
    k <= n/2.  x^(p^k) - x is the product of the monic irreducibles whose degree
    divides k, so a reducible f is rejected at the degree of its smallest factor
    (Gao and Panario 1997); k = 1 is the root test.
    """
    f = list(coeffs)
    t = [0, 1]
    for _ in range((len(f) - 1) // 2):
        # x**(p**k) mod f, one Frobenius step at a time
        t = _ppowmod(t, p, f, p)
        if len(_pgcd(f, _minus_x(t, p), p)) > 1:
            return False
    return True


def _minus_x(a: list[int], p: int) -> list[int]:
    """The polynomial a - x, trimmed."""
    a = a + [0] * (2 - len(a))
    a[1] -= 1
    return _ptrim([c % p for c in a])


def _trace_basis_reference(poly, n, p):
    """build_trace_basis's matrices from the power-basis traces it computed before Newton's identities."""
    f = list(poly.coeffs)

    # theta^k mod f as coefficient vectors, k = 0 .. 4n-4
    powers = [[1]]
    for _ in range(max(4 * n - 4, 0)):
        nxt = _pmod([0] + powers[-1], f, p)
        powers.append(nxt)

    def coeff(vec: list[int], i: int) -> int:
        return vec[i] if i < len(vec) else 0

    # s[k] = Tr(theta^k) = trace of the multiplication-by-theta^k matrix
    s = np.array([sum(coeff(powers[k + i], i) for i in range(n)) % p for k in range(3 * n - 2)], dtype=np.int64)
    # a Hankel array: M_t[i][j] = s[t + i + j], t counted from 0
    idx = np.arange(n)
    return s[idx[:, None, None] + idx[None, :, None] + idx[None, None, :]]


@pytest.mark.parametrize("p,n", [(3, d) for d in range(1, 7)] + [(5, d) for d in range(1, 5)]
                         + [(7, d) for d in range(1, 5)] + [(11, d) for d in range(1, 4)]
                         + [(13, d) for d in range(1, 4)])
def test_irreducibility_tests_agree(p, n):
    # every monic polynomial of degree n
    for idx in range(p ** n):
        coeffs = _monic(idx, p, n)
        assert _is_irreducible(coeffs, p) == _is_irreducible_reference(coeffs, p)


@pytest.mark.parametrize("p,n_max", [(3, 8), (5, 5), (7, 4)])
def test_block_test_matches_ben_or_exhaustively(p, n_max):
    # every monic polynomial of each degree up to n_max, as one block
    for n in range(1, n_max + 1):
        polys = [_monic(idx, p, n) for idx in range(p ** n)]
        assert _irreducible_rows(np.array(polys), p).tolist() == [_is_irreducible_ben_or(c, p) for c in polys]


@pytest.mark.parametrize("p", [251, 257])
def test_block_test_is_a_root_test_below_degree_4(p):
    # a monic polynomial of degree 2 or 3 is irreducible iff it has no root: 2,000 seeded ones
    # of each degree, either side of the switch between the two root tests
    rng = random.Random(p)
    for n in (2, 3):
        polys = np.array([_random_monic(rng, p, n) for _ in range(2000)])
        values = sum(polys[:, i, None] * np.arange(p) ** i for i in range(n + 1)) % p
        assert _irreducible_rows(polys, p).tolist() == values.all(axis=1).tolist()


def _reciprocal(coeffs, p):
    """The monic reciprocal x^n f(1/x) / f(0) of f, irreducible when f is and f(0) != 0."""
    inv = pow(coeffs[0], p - 2, p)
    return tuple(c * inv % p for c in reversed(coeffs))


def _random_monic(rng, p, n):
    return tuple(rng.randrange(p) for _ in range(n)) + (1,)


def _random_irreducible(rng, p, n):
    return next(c for c in iter(lambda: _random_monic(rng, p, n), None) if _is_irreducible(c, p))


# matmul_mod's products run in float64 at p = 3, 5, 13, 251 and 257, in int64 at 268435399
# (below 2^28) for n <= 7, and in Python integers at 2^31 - 1, 2^61 - 1 and 2^63 + 29, whose
# residues need object arrays.  The root test evaluates f on F_p up to p = 251 and is a gcd
# from p = 257 on
@pytest.mark.parametrize("p,degrees", [(3, (12, 31, 48, 64)), (5, (12, 31, 48, 64)), (13, (12, 31, 48, 64)),
                                       (251, (2, 3, 4, 6, 12)), (257, (2, 3, 4, 6, 12)),
                                       (268435399, (2, 3, 4, 6)), ((1 << 31) - 1, (2, 3, 4, 6)),
                                       ((1 << 61) - 1, (2, 3, 4)), (9223372036854775837, (2, 3, 4))])
def test_block_test_on_random_and_constructed_polynomials(p, degrees):
    rng, verdicts = random.Random(p), set()
    dtype = np.int64 if p < 1 << 63 else object
    for n in degrees:
        # random monic polynomials, and below 2^8 the canonical irreducible, against Ben-Or
        polys = [_random_monic(rng, p, n) for _ in range(8)]
        if p < 1 << 8:
            polys.append(build_irreducible(FieldCtx(p), n).coeffs)
        want = [_is_irreducible_ben_or(c, p) for c in polys]
        # then x h, which has the root 0; for even n g g* for an irreducible g of degree n / 2
        # and its reciprocal g*, which has no root and x^(p^(n/2)) = x mod g g*; and for 6 | n
        # the product of irreducibles of degree n / 6, n / 3 and n / 2, whose lcm is n, so
        # that only the gcd rejects it
        polys.append((0,) + _random_monic(rng, p, n - 1))
        if n % 2 == 0:
            g = _random_irreducible(rng, p, n // 2)
            polys.append(tuple(_pmul(list(g), list(_reciprocal(g, p)), p)))
        if n % 6 == 0:
            g = [1]
            for d in (n // 6, n // 3, n // 2):
                g = _pmul(g, list(_random_irreducible(rng, p, d)), p)
            polys.append(tuple(g))
        want += [False] * (len(polys) - len(want))
        assert _irreducible_rows(np.array(polys, dtype=dtype), p).tolist() == want
        assert [_is_irreducible(c, p) for c in polys] == want
        verdicts.update(want)
    assert verdicts == {False, True}


@pytest.mark.parametrize("p,n", [(3, 12), (3, 31), (5, 30), (13, 31), (257, 6), ((1 << 61) - 1, 4)])
def test_frobenius_images_match_the_step_by_step_chain(p, n):
    # x^(p^k) mod f from the squares of the Frobenius matrix Q, against t <- t^p mod f taken k
    # times from t = x; Q is built column by column as x^(p i) mod f, and the k cover every bit
    # pattern up to n: n itself, its prime cofactors, 1, 2 and one more
    rng = random.Random(p * 1000 + n)
    dtype = np.int64 if p < 1 << 63 else object
    polys = [list(_random_monic(rng, p, n)) for _ in range(3)]
    ks = sorted({n, 1, 2, n // 2 + 1, *(n // r for r in range(2, n) if n % r == 0)}, reverse=True)
    q = np.zeros((len(polys), n, n), dtype=dtype)
    want = np.zeros((len(ks), len(polys), n), dtype=dtype)
    for r, f in enumerate(polys):
        for i in range(n):
            col = _ppowmod([0, 1], p * i, f, p)
            q[r, :len(col), i] = col
        t = [0, 1]
        for k in range(1, n + 1):
            t = _ppowmod(t, p, f, p)
            if k in ks:
                want[ks.index(k), r, :len(t)] = t
    got = _frobenius_images(q, ks, p)
    assert got.shape == want.shape and (got == want).all()


@pytest.mark.parametrize("p", [3, 13])
def test_block_test_runs_every_gcd(p):
    # irreducible factors of degree 2, 6, 6, 6 and 10: no root, the lcm is 30 and every degree is
    # even, so gcd(f, x^(p^15) - x) = 1 and only the gcds for 30 / 3 and 30 / 5 reject f
    rng, f = random.Random(p), [1]
    for d in (2, 6, 6, 6, 10):
        f = _pmul(f, list(_random_irreducible(rng, p, d)), p)
    polys = [tuple(f), build_irreducible(FieldCtx(p), 30).coeffs]
    assert _irreducible_rows(np.array(polys), p).tolist() == [False, True]


def _record_matmul_shapes(monkeypatch):
    """Patch highrank's matmul_mod to record the shape of its left operand; returns the list."""
    shapes, product = [], highrank.matmul_mod
    monkeypatch.setattr(highrank, "matmul_mod", lambda a, b, p: shapes.append(np.shape(a)) or product(a, b, p))
    return shapes


@pytest.mark.parametrize("p,n", [(3, 12), (13, 31), (257, 4)])
def test_block_test_stops_when_no_row_passes_the_root_test(monkeypatch, p, n):
    # seeded blocks of random monic polynomials against Ben-Or, then a block of multiples of x,
    # all with the root 0: its verdicts are all False, and nothing runs on an empty stack
    rng = random.Random(p * 100 + n)
    shapes = _record_matmul_shapes(monkeypatch)
    for _ in range(3):
        polys = [_random_monic(rng, p, n) for _ in range(6)]
        assert _irreducible_rows(np.array(polys), p).tolist() == [_is_irreducible_ben_or(c, p) for c in polys]
    rooted = [(0,) + _random_monic(rng, p, n - 1) for _ in range(6)]
    assert _irreducible_rows(np.array(rooted), p).tolist() == [False] * 6
    assert shapes and all(s[0] for s in shapes)


def test_build_irreducible_skips_blocks_without_survivors(monkeypatch):
    # at (13, 31) the first block of 8 candidates has no row without a root
    blocks = []
    monkeypatch.setattr(highrank, "_irreducible_rows", lambda f, p: blocks.append(f) or _irreducible_rows(f, p))
    shapes = _record_matmul_shapes(monkeypatch)
    poly = build_irreducible(FieldCtx(13), 31)
    assert not _irreducible_rows(blocks[0], 13).any()
    assert shapes and all(s[0] for s in shapes)
    assert IrreduciblePoly(FieldCtx(13), poly.coeffs) == poly


def test_build_irreducible_tests_the_winner_once(monkeypatch):
    # blocks of 8 and 32 candidates at (3, 31), and no second, one-row test of the winner
    sizes = []
    block_test = highrank._irreducible_rows
    monkeypatch.setattr(highrank, "_irreducible_rows", lambda f, p: sizes.append(len(f)) or block_test(f, p))
    poly = build_irreducible(ctx3, 31)
    assert sizes == [8, 32]
    checked = IrreduciblePoly(ctx3, poly.coeffs)
    assert poly == checked and hash(poly) == hash(checked) and len(poly.coeffs) - 1 == 31


@pytest.mark.parametrize("p", [3, 5, 7, 13])
def test_trace_basis_matches_power_basis_reference(p):
    # n up to 40 includes n divisible by p, where s_0 = Tr(1) = n = 0: (3, 9), (5, 25), (13, 26), ...
    for n in range(1, 41):
        b = build_trace_basis(FieldCtx(p), n)
        assert np.array_equal(b.mats, _trace_basis_reference(b.poly, n, p))


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_build_irreducible_is_first_candidate(p):
    for n in range(1, 11):
        if p ** n > 10 ** 5:
            break
        first = next(c for c in (_monic(i, p, n) for i in range(p ** n)) if _is_irreducible_reference(c, p))
        assert build_irreducible(FieldCtx(p), n).coeffs == first


@pytest.mark.parametrize("p,n", [(101, 4), (251, 4), (251, 6), (257, 4), (257, 6), ((1 << 61) - 1, 3),
                                 (9223372036854775837, 2)])
def test_build_irreducible_is_first_candidate_at_large_p(p, n):
    # either side of the switch between the two root tests, then Python-integer products
    # and, at 2^63 + 29, object arrays
    first = next(c for c in (_monic(i, p, n) for i in range(p ** n)) if _is_irreducible_ben_or(c, p))
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


def _first_failure(lams, mats, p, order):
    """The first index in order whose combination of mats falls short of full rank, each combination
    ranked by its own reduced form."""
    n = len(mats)
    return next(i for i in order if (_rref(np.tensordot(lams[i], mats, axes=1) % p, p)[1] >= 0).sum() < n)


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
    want = lams[_first_failure(lams, bad.mats, p, range(len(lams)))].tolist()
    assert check_high_rank(bad, mode="exhaustive").tolist() == want
    # 10^5 draws from the 3^9 - 1 nonzero combinations miss a given one with probability e^-5
    assert check_high_rank(bad, mode="sampled", count=100_000, seed=0).tolist() == want


@pytest.mark.parametrize("mode,n", [("exhaustive", 9), ("sampled", 31)])
def test_planted_failure_past_the_first_batch(mode, n):
    # M_1 is edited so that one combination planted, with a nonzero first coefficient, is the rank-1
    # matrix v v^T; every failing combination has a nonzero first coefficient, so in exhaustive order
    # (ranks from 3^8 on) and, at seed 2, among the sampled draws the witness lies past the first batch
    p, seed = 3, 2
    batch = highrank.RANK_BATCH_ENTRIES // (n * n)
    if mode == "exhaustive":
        lams = ranks_to_digits(np.arange(1, p ** n), p, n)
        planted = lams[p ** (n - 1) + 6]  # (1, 0, ..., 0, 2, 1)
    else:
        lams = _nonzero_rows(derive_rng(seed, "high-rank-check", 0), 2 * batch, n, p)
        # the smallest draw with a nonzero first coefficient, draw 700 of 1,090
        planted = lams[min(np.flatnonzero(lams[:, 0]), key=lambda i: tuple(lams[i]))]
    v = np.random.default_rng(n).integers(0, p, n)
    mats = build_trace_basis(ctx3, n).mats.copy()
    mats[0] = pow(int(planted[0]), p - 2, p) * (np.outer(v, v) - np.tensordot(planted[1:], mats[1:], axes=1)) % p
    bad = HighRankBasis(ctx3, n, build_irreducible(ctx3, n), mats)
    # reference: the first failure by the full reduction, in rank order or, sampled, in the draws'
    # lexicographic order (a stable sort: equal draws keep their draw order)
    if mode == "exhaustive":
        want = _first_failure(lams, bad.mats, p, range(len(lams)))
    else:
        want = _first_failure(lams, bad.mats, p, sorted(range(len(lams)), key=lambda i: tuple(lams[i])))
        assert lams[want].tolist() == planted.tolist()
    assert want >= batch
    assert check_high_rank(bad, mode=mode, count=len(lams), seed=seed).tolist() == lams[want].tolist()


def _rank_reference(rows, p):
    """Rank over F_p of a matrix of Python integers, by Gaussian elimination with row swaps."""
    rows, rank = [list(r) for r in rows], 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] % p), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        rows[rank] = [x * inv % p for x in rows[rank]]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c]
            rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


# the combinations' float64 sums, at most n (p-1)^2, are reduced in int32 at p = 37, n = 31
# (40,176 >= 2^15) and in int64 at p = 65537, n = 4 (2^34 >= 2^31); p = 37 stores them in the
# int16 buffer, p = 65537 in an int64 one
@pytest.mark.parametrize("p,n", [(37, 31), (65537, 4)])
def test_planted_failure_beyond_int16_products(p, n):
    ctx, seed, count = FieldCtx(p), 5, 32
    lams = _nonzero_rows(derive_rng(seed, "high-rank-check", 0), count, n, p)
    planted = lams[np.flatnonzero(lams[:, 0])[-1]]
    v = np.random.default_rng(n).integers(0, p, n)
    mats = build_trace_basis(ctx, n).mats.copy()
    mats[0] = pow(int(planted[0]), p - 2, p) * (np.outer(v, v) - np.tensordot(planted[1:], mats[1:], axes=1)) % p
    bad = HighRankBasis(ctx, n, build_irreducible(ctx, n), mats)
    # reference: each draw's combination in Python integers, ranked one at a time
    rows = bad.mats.tolist()
    fails = [tuple(lam) for lam in lams.tolist()
             if _rank_reference([[sum(c * m[i][j] for c, m in zip(lam, rows)) for j in range(n)]
                                 for i in range(n)], p) < n]
    assert tuple(planted.tolist()) in fails
    assert check_high_rank(bad, mode="sampled", count=count, seed=seed).tolist() == list(min(fails))


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


@pytest.mark.parametrize("count", [0, -4])
def test_sampled_check_rejects_empty_runs(count):
    # no draw checks nothing and must not report a pass
    with pytest.raises(ValueError, match="count >= 1"):
        check_high_rank(build_trace_basis(ctx3, 5), mode="sampled", count=count)


def test_exhaustive_check_rejects_count_below_1():
    # exhaustive mode draws nothing, but a count below 1 is a misuse there too
    with pytest.raises(ValueError, match="count >= 1"):
        check_high_rank(build_trace_basis(ctx3, 3), mode="exhaustive", count=-5)


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


@pytest.mark.parametrize("edit", [
    lambda d: d.__setitem__("p", 3.0),
    lambda d: d.__setitem__("n", "2"),
    lambda d: d["poly"].__setitem__(0, 1.0),
    lambda d: d["mats"][1].__setitem__("p", 3.9),
    lambda d: d["mats"][0]["rows"][0].__setitem__(1, 0.5),
], ids=["p", "n", "poly", "mat-p", "entry"])
def test_basis_json_reads_integers_strictly(edit):
    doc = json.loads(json.dumps(build_trace_basis(ctx3, 2).to_json()))
    HighRankBasis.from_json(doc)
    edit(doc)
    with pytest.raises(ValueError, match="expected an integer"):
        HighRankBasis.from_json(doc)


def test_basis_rejects_p_beyond_int64():
    # 2^63 + 29 is a prime FieldCtx accepts, but its residues overflow the int64 basis array
    big = FieldCtx(9223372036854775837)
    with pytest.raises(ValueError, match="2\\^63"):
        build_trace_basis(big, 2)
    with pytest.raises(ValueError, match="2\\^63"):
        HighRankBasis(big, 1, IrreduciblePoly(big, (0, 1)), np.array([[[big.p - 1]]], dtype=object))
