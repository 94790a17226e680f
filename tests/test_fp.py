import itertools
import math
import random

import numpy as np
import pytest
from child import refusals_in_child
from hypothesis import example, given, settings, strategies as st

from vc2lab.fp import (
    PRIME_BOUND,
    FieldCtx,
    _PCG_MULT,
    _is_prime,
    _blas_dtype,
    _inv_array,
    _narrow_dtype,
    _rank_array,
    _rank_dtype,
    _rref,
    add_mod,
    affine_solver,
    as_points,
    derive_rng,
    derive_rng_states,
    digits_to_ranks,
    iter_group_chunks,
    lemire_draws,
    mat_rank,
    matmul_mod,
    orth_complement,
    quad_forms,
    ranks_to_digits,
    shifted_ranks,
    solve_affine,
)

primes = st.sampled_from([3, 5, 7])


def rand_matrix(p, rows, cols, rng):
    return rng.integers(0, p, (rows, cols))


def test_field_ctx_rejects_non_primes():
    for bad in (0, 1, 2, 4, 9, 15):
        with pytest.raises(ValueError):
            FieldCtx(bad)


def test_is_prime_matches_trial_division():
    small = [q for q in range(2, 448) if all(q % d for d in range(2, q))]  # the primes up to sqrt(2 * 10^5)
    for m in range(200_000):
        assert _is_prime(m) == (m >= 2 and all(m % q for q in small if q * q <= m)), m


def test_is_prime_rejects_strong_pseudoprimes():
    # strong pseudoprimes to the prime bases up to 7, 23 and 37 respectively
    for m in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not _is_prime(m)
        with pytest.raises(ValueError):
            FieldCtx(m)


def test_field_ctx_accepts_large_primes():
    for p in (2 ** 31 - 1, 4294967311, 2 ** 61 - 1):
        assert FieldCtx(p).p == p


@pytest.mark.parametrize("dtype,p", [
    pytest.param(np.int8, 3, id="int8-3"), pytest.param(np.int8, 127, id="int8-127"),
    pytest.param(np.int16, 131, id="int16-131"), pytest.param(np.int16, 32749, id="int16-32749"),
    *[pytest.param(np.int64, p, id=str(p)) for p in (3, 4294967311, 2 ** 62 + 135, 2 ** 63 - 25)],
])
def test_add_mod_exact(dtype, p):
    rng = random.Random(p)
    vals = [0, 1, p - 2, p - 1] + [rng.randrange(p) for _ in range(60)]
    a = np.array(vals, dtype=dtype)
    got = add_mod(a[:, None], a[None, :], p)
    assert got.dtype == dtype
    assert got.tolist() == [[(x + y) % p for y in vals] for x in vals]


def test_field_ctx_rejects_p_beyond_prime_bound():
    for p in (PRIME_BOUND, 2 ** 89 - 1):
        with pytest.raises(ValueError, match=str(PRIME_BOUND)):
            FieldCtx(p)


def test_scalar_inverse_examples():
    assert _inv_array(np.array([2, 0]), 3).tolist() == [2, 0]
    assert _inv_array(np.array([3, 0]), 5).tolist() == [2, 0]
    assert _inv_array(np.array([1, 0]), 7).tolist() == [1, 0]
    assert _inv_array(np.array([2, 0]), TOP_P).tolist() == [(TOP_P + 1) // 2, 0]
    # beyond 2^15 there is no table, and no inverse
    for p in (32771, BIG_P):
        with pytest.raises(ValueError, match="2\\^15"):
            _inv_array(np.array([2, 0]), p)


# a table lookup up to 32749, the largest prime below 2^15; refused from 32771 on
@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 97, 32749, 32771, 65537])
def test_scalar_inverse_exhaustive(p):
    a = np.arange(p, dtype=np.int64)
    if p >= 1 << 15:
        with pytest.raises(ValueError, match="2\\^15"):
            _inv_array(a, p)
        return
    inv = _inv_array(a, p)
    assert inv[0] == 0 and (inv[1:] >= 0).all() and (inv[1:] * a[1:] % p == 1).all()


def test_mat_rank_examples():
    assert mat_rank(np.eye(3, dtype=np.int64), 3) == 3
    assert mat_rank(np.zeros((4, 4), dtype=np.int64), 5) == 0
    assert mat_rank(np.array([[1, 2], [2, 4]]), 5) == 1


# the largest prime the elimination kernels take: their inverse table holds p < 2^15
TOP_P = 32749
# (p - 1)^2 > 2^63 here, far beyond that table: every elimination kernel refuses it
BIG_P = 4294967311


def test_mat_rank_exact_at_large_p():
    # 2 x 3 matrices at TOP_P rank in int64, the drift (p-1)^2 + 2p past int16
    row = [3, 5, 7]
    assert _rank_dtype(2, 3, TOP_P) is np.int64
    assert mat_rank(np.array([row, [(TOP_P - 1) * c % TOP_P for c in row]]), TOP_P) == 1
    assert mat_rank(np.array([row, [TOP_P - 1, 0, 1]]), TOP_P) == 2


def _dot(u, v, p):
    return sum(int(a) * int(b) for a, b in zip(u, v)) % p


@pytest.mark.parametrize("seed", range(10))
def test_solvers_exact_at_large_p(seed):
    # checked with Python-int dot products only, at the largest p the inverse table holds
    p = TOP_P
    rnd = random.Random(seed)
    rows = [[rnd.choice((0, 1, p - 1, rnd.randrange(p))) for _ in range(5)] for _ in range(3)]
    a = np.array(rows, dtype=np.int64)
    for u in orth_complement(a, p).tolist():
        assert all(_dot(u, r, p) == 0 for r in rows)
        assert next(c for c in u if c) == 1
    b = [rnd.randrange(p) for _ in range(3)]
    sol = solve_affine(a, np.array(b, dtype=np.int64), p)
    if sol is None:
        assert mat_rank(a, p) < 3
        return
    particular, null_basis = sol
    assert [_dot(r, particular.tolist(), p) for r in rows] == b
    assert len(null_basis) == 5 - mat_rank(a, p)
    for v in null_basis.tolist():
        assert all(_dot(r, v, p) == 0 for r in rows)
    if mat_rank(a, p) == 3:
        transform, nb = affine_solver(a, p)
        x = [_dot(t_row, b, p) for t_row in transform.tolist()]
        assert [_dot(r, x, p) for r in rows] == b
        assert all(_dot(r, v, p) == 0 for r in rows for v in nb.tolist())


def _rref_reference(rows, p):
    """Scalar Gauss-Jordan elimination on Python ints, with the kernel's pivot rules."""
    a = [[int(e) % p for e in row] for row in rows]
    pivots = []
    r = 0
    for c in range(len(a[0]) if a else 0):
        i = next((i for i in range(r, len(a)) if a[i][c]), None)
        if i is None:
            continue
        a[r], a[i] = a[i], a[r]
        inv = pow(a[r][c], p - 2, p)
        a[r] = [e * inv % p for e in a[r]]
        for j in range(len(a)):
            if j != r and a[j][c]:
                f = a[j][c]
                a[j] = [(e - f * pe) % p for e, pe in zip(a[j], a[r])]
        pivots.append(c)
        r += 1
    return a, pivots


def _reference_matrix(rnd, p, shape, rank_deficient):
    rows, cols = shape
    a = [[rnd.choice((0, 1, p - 1, rnd.randrange(p))) for _ in range(cols)] for _ in range(rows)]
    if rank_deficient and rows > 1:
        # the last row is a combination of the others
        c = [rnd.randrange(p) for _ in range(rows - 1)]
        a[-1] = [sum(ci * a[i][j] for i, ci in enumerate(c)) % p for j in range(cols)]
    return a


@given(p=st.sampled_from([3, 5, 7, TOP_P]), shape=st.sampled_from(["square", "wide", "tall"]),
       size=st.integers(1, 5), rank_deficient=st.booleans(), batch=st.integers(1, 6), seed=st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_rref_matches_scalar_reference(p, shape, size, rank_deficient, batch, seed):
    rnd = random.Random(seed)
    dims = {"square": (size, size), "wide": (size, size + 2), "tall": (size + 2, size)}[shape]
    mats = [_reference_matrix(rnd, p, dims, rank_deficient) for _ in range(batch)]
    ranks = _rank_array(np.array(mats, dtype=np.int64), p)
    assert ranks.shape == (batch,)
    for k, m in enumerate(mats):
        want, want_piv = _rref_reference(m, p)
        rref, pivots = _rref(np.array(m, dtype=np.int64), p)
        assert rref.shape == dims and pivots.shape == (dims[0],)
        assert rref.tolist() == want
        assert pivots.tolist() == want_piv + [-1] * (dims[0] - len(want_piv))
        assert ranks[k] == len(want_piv)


# 181 ranks in int16 up to min(r, c) = 2 (180^2 + 2 * 181 < 2^15) and in int64 from 3 on; 191 never in
# int16; 3 and 5 rank in int8 at these sizes
@given(p=st.sampled_from([3, 5, 181, 191, TOP_P]), rows=st.integers(0, 7), cols=st.integers(0, 7),
       rank_deficient=st.booleans(), batch=st.integers(0, 6), seed=st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_rank_mode_matches_scalar_reference(p, rows, cols, rank_deficient, batch, seed):
    rnd = random.Random(seed)
    mats = [_reference_matrix(rnd, p, (rows, cols), rank_deficient) for _ in range(batch)]
    stack = np.array(mats, dtype=np.int64).reshape(batch, rows, cols)
    ranks = _rank_array(stack, p)
    assert ranks.shape == (batch,)
    for k, m in enumerate(mats):
        assert ranks[k] == len(_rref_reference(m, p)[1]) == mat_rank(stack[k], p)


def _echelon_stack(rnd, p, rows, cols, pivot_sets):
    """One (rows, cols) matrix per set of pivot columns: an echelon form with those pivots,
    times a random invertible matrix on the left, so its reduced form has exactly those pivots."""
    out = []
    for cs in pivot_sets:
        e = np.zeros((rows, cols), dtype=np.int64)
        for r, c in enumerate(cs):
            e[r, c] = rnd.randrange(1, p)
            e[r, c + 1:] = [rnd.choice((0, 1, p - 1, rnd.randrange(p))) for _ in range(c + 1, cols)]
        while True:
            left = [[rnd.randrange(p) for _ in range(rows)] for _ in range(rows)]
            if len(_rref_reference(left, p)[1]) == rows:
                break
        out.append((np.array(left, dtype=np.int64) @ e % p).tolist())
    return out


@given(p=st.sampled_from([3, 5, 181, TOP_P]), rows=st.integers(1, 6), extra_cols=st.integers(-2, 5),
       data=st.data(), seed=st.integers(0, 10_000))
@settings(max_examples=120, deadline=None)
def test_rank_stack_leaves_at_several_depths(p, rows, extra_cols, data, seed):
    # full-rank and deficient matrices in one stack, the first missing pivot of each in a column
    # of its own, so matrices leave the stack at several depths; wide stacks (r < c) included
    cols = max(1, rows + extra_cols)
    subsets = st.lists(st.integers(0, cols - 1), unique=True, max_size=min(rows, cols)).map(sorted)
    pivot_sets = data.draw(st.lists(subsets, min_size=1, max_size=8))
    mats = _echelon_stack(random.Random(seed), p, rows, cols, pivot_sets)
    ranks = _rank_array(np.array(mats, dtype=np.int64), p)
    for m, cs, rank in zip(mats, pivot_sets, ranks.tolist()):
        assert _rref_reference(m, p)[1] == cs and rank == len(cs)


@pytest.mark.parametrize("p", [3, 181, BIG_P])
def test_rank_stack_without_recursion(p):
    # a single (64, 4096) matrix never splits; 64 (2, 200) matrices whose pivots diverge leave at
    # 64 depths; BIG_P is refused before any elimination
    if p == BIG_P:
        with pytest.raises(ValueError, match="2\\^15"):
            _rank_array(np.zeros((64, 2, 200), dtype=np.int64), p)
        return
    rnd = random.Random(p)
    cs = sorted(rnd.sample(range(4096), 60))
    wide = np.array(_echelon_stack(rnd, p, 64, 4096, [cs])[0], dtype=np.int64)
    assert _rank_array(wide, p) == 60 and (_rref(wide, p)[1] >= 0).sum() == 60
    sets = [[c] if k % 2 else [c, c + 1 + k % 7] for k, c in enumerate(range(0, 192, 3))]
    stack = np.array(_echelon_stack(rnd, p, 2, 200, sets), dtype=np.int64)
    assert _rank_array(stack, p).tolist() == [len(s) for s in sets]


@pytest.mark.parametrize("shape", [(1, 9), (9, 1), (40, 1)])
def test_rank_at_int16_boundary(shape):
    # 181 is the largest prime ranked in int16, and only up to min(r, c) = 2; entries 0, 1 and p - 1
    rnd = np.random.default_rng(shape[0])
    mats = rnd.choice([0, 1, 180], size=(200, *shape))
    assert _rank_dtype(*shape, 181) == np.int16
    assert _rank_array(mats, 181).tolist() == [len(_rref_reference(m.tolist(), 181)[1]) for m in mats]


def _max_drift_matrix(p, size):
    """L U mod p for L unit lower triangular and U upper triangular, every other entry of both p - 1:
    each pivot's update subtracts f row = (p-1)^2 from every entry below and right of it, so the last
    entry takes the most updates an entry can, size - 1 of the largest size."""
    low = np.tril(np.full((size, size), p - 1), -1) + np.eye(size, dtype=np.int64)
    return low @ np.triu(np.full((size, size), p - 1)) % p


@pytest.mark.parametrize("size", [9, 31, 40])
def test_rank_mode_drift_at_p3(size):
    # up to 40 pivots of unreduced updates; low-rank products B C and full random matrices in one batch
    rnd = np.random.default_rng(size)
    mats = [rnd.integers(0, 3, (size, k)) @ rnd.integers(0, 3, (k, size)) % 3 for k in range(0, size + 1, 4)]
    mats += [np.full((size, size), 2), rnd.integers(0, 3, (size, size)), _max_drift_matrix(3, size)]
    ranks = _rank_array(np.array(mats), 3)
    assert ranks.tolist() == [len(_rref_reference(m.tolist(), 3)[1]) for m in mats]


# the int8 and int16 tiers meet at p = 3 between 31 x 31 and 32 x 32 and at p = 5 between 8 x 8 and 9 x 9;
# at 10 x 10 the drift of p = 5, 9 * 16, no longer fits int8
@pytest.mark.parametrize("p,size,dtype", [(3, 31, np.int8), (3, 32, np.int16), (5, 8, np.int8), (5, 9, np.int16),
                                          (5, 10, np.int16)])
def test_rank_at_int8_tier_edges(p, size, dtype):
    assert _rank_dtype(size, size, p) == dtype
    rnd = np.random.default_rng(size * p)
    drift = _max_drift_matrix(p, size)
    # the upper triangular U with its first row moved last: the pivot row is 0 in every pivot column
    # but the last, so each of those pivots adds a row below; low-rank products B C; random matrices
    mats = [drift, np.roll(drift, -1, axis=0), np.roll(np.triu(np.full((size, size), p - 1)), -1, axis=0)]
    mats += [rnd.integers(0, p, (size, k)) @ rnd.integers(0, p, (k, size)) % p for k in range(1, size, 3)]
    mats += [rnd.choice([0, 1, p - 1], size=(size, size)) for _ in range(8)]
    ranks = _rank_array(np.array(mats), p)
    assert ranks.tolist() == [len(_rref_reference(m.tolist(), p)[1]) for m in mats]
    assert ranks.tolist() == [int((_rref(m, p)[1] >= 0).sum()) for m in mats]
    assert ranks[:3].tolist() == [size] * 3


# the largest primes that rank r x 1 and 1 x c stacks in int8, (p-1)^2 + 2p < 2^7, and in int16
@pytest.mark.parametrize("p,dtype", [(11, np.int8), (13, np.int16), (181, np.int16), (191, np.int64)])
@pytest.mark.parametrize("shape", [(1, 9), (9, 1), (40, 1), (1, 40)])
def test_rank_of_single_row_and_column_stacks(p, dtype, shape):
    assert _rank_dtype(*shape, p) == dtype
    mats = np.random.default_rng(p).choice([0, 1, p - 1], size=(200, *shape), p=[0.6, 0.2, 0.2])
    assert _rank_array(mats, p).tolist() == [len(_rref_reference(m.tolist(), p)[1]) for m in mats]


def test_rank_mode_drift_at_p181():
    # rank-3 products of factors with entries 1 and p - 1: updates near 180^2 pile up past the int16 range
    # (int16 gives a wrong rank for a few of these 300), and the rank drops to 3 only if every entry is exact
    rnd = np.random.default_rng(181)
    mats = rnd.choice([1, 180], size=(300, 4, 3)) @ rnd.choice([1, 180], size=(300, 3, 4)) % 181
    assert _rank_array(mats, 181).tolist() == [len(_rref_reference(m.tolist(), 181)[1]) for m in mats]


def test_rank_mode_dtype():
    # the smallest exact dtype for B = max(min(r, c) - 1, 1) (p-1)^2 + 2p: int8 while B < 2^7, int16
    # while B < 2^15, then int64; p beyond the inverse table is refused
    for p, shape, dtype in [(3, (31, 31), np.int8), (3, (32, 32), np.int16), (3, (40, 40), np.int16),
                            (5, (8, 8), np.int8), (5, (9, 9), np.int16), (11, (2, 9), np.int8),
                            (11, (3, 9), np.int16), (13, (1, 9), np.int16), (181, (1, 9), np.int16),
                            (181, (9, 1), np.int16), (181, (2, 9), np.int16), (181, (3, 9), np.int64),
                            (191, (1, 9), np.int64), (TOP_P, (2, 3), np.int64)]:
        assert _rank_dtype(*shape, p) == dtype
    with pytest.raises(ValueError, match="2\\^15"):
        _rank_dtype(2, 3, BIG_P)


@pytest.mark.parametrize("shape", [(0, 4), (3, 0), (0, 0), (0, 3, 4), (2, 0, 4), (2, 3, 0), (0, 0, 0)])
@pytest.mark.parametrize("p", [3, BIG_P])
def test_empty_stacks(shape, p):
    a = np.zeros(shape, dtype=np.int64)
    if p == BIG_P:
        # refused before any elimination, even of nothing
        with pytest.raises(ValueError, match="2\\^15"):
            _rank_array(a, p)
        with pytest.raises(ValueError, match="2\\^15"):
            _rref(np.zeros(shape[-2:], dtype=np.int64), p)
        return
    ranks = _rank_array(a, p)
    assert ranks.shape == shape[:-2] and not ranks.any()
    # _rref reduces the stack's matrices one at a time
    for m in a.reshape(math.prod(shape[:-2]), *shape[-2:]):
        out, pivots = _rref(m, p)
        assert out.shape == m.shape and pivots.shape == m.shape[:1] and (pivots == -1).all()


@pytest.mark.parametrize("p", [3, 5, 181, BIG_P])
@pytest.mark.parametrize("seed", range(4))
def test_rref_reduces_unreduced_and_negative_input(p, seed):
    # entries outside [0, p), negative ones included, give the reduced input's forms and pivots,
    # and the caller's array is left as it was
    rnd = random.Random(seed)
    mats = [_reference_matrix(rnd, p, (4, 5), seed % 2 == 1) for _ in range(3)]
    reduced = np.array(mats, dtype=np.int64)
    lifts = np.array([[[rnd.randrange(-1000, 1000) for _ in range(5)] for _ in range(4)] for _ in range(3)], dtype=np.int64)
    unreduced = reduced + lifts * p
    if p == BIG_P:
        # refused before the input is read, let alone reduced
        with pytest.raises(ValueError, match="2\\^15"):
            _rref(unreduced[0], p)
        with pytest.raises(ValueError, match="2\\^15"):
            _rank_array(unreduced, p)
        return
    before = unreduced.copy()
    for r, u in zip(reduced, unreduced):
        want, want_piv = _rref(r, p)
        got, got_piv = _rref(u, p)
        assert np.array_equal(got_piv, want_piv) and got.tolist() == want.tolist()
    assert np.array_equal(unreduced, before)
    assert _rank_array(unreduced, p).tolist() == _rank_array(reduced, p).tolist()


@given(p=primes, n=st.integers(1, 5), seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_rank_equals_transpose_rank(p, n, seed):
    rng = np.random.default_rng(seed)
    m = rand_matrix(p, n, n, rng)
    assert mat_rank(m, p) == mat_rank(m.T, p)


def test_solve_affine_examples():
    particular, null_basis = solve_affine(np.eye(3, dtype=np.int64), np.array([1, 2, 0]), 3)
    assert particular.tolist() == [1, 2, 0] and null_basis.shape == (0, 3)

    assert solve_affine(np.array([[0]]), np.array([1]), 3) is None

    particular, null_basis = solve_affine(np.array([[1, 1]]), np.array([0]), 3)
    assert particular.tolist() == [0, 0]
    assert null_basis.tolist() == [[1, 2]]
    # oracle: enumerate all 9 vectors of F_3^2
    solutions = {(a, b) for a in range(3) for b in range(3) if (a + b) % 3 == 0}
    assert solutions == {(0, 0), (1, 2), (2, 1)}


def test_solve_affine_dimension_mismatch():
    with pytest.raises(ValueError):
        solve_affine(np.array([[1, 0]]), np.array([1, 0]), 3)


@given(p=primes, rows=st.integers(1, 4), cols=st.integers(1, 5), seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_affine_solution_parametrizes_solution_set(p, rows, cols, seed):
    rng = np.random.default_rng(seed)
    a = rand_matrix(p, rows, cols, rng)
    b = rng.integers(0, p, rows)
    sol = solve_affine(a, b, p)
    brute = [
        tuple(int(c) for c in v)
        for v in ranks_to_digits(np.arange(p ** cols), p, cols)
        if ((a @ v) % p == b).all()
    ]
    if sol is None:
        assert brute == []
        return
    # every parametrized point solves, and the count matches exactly
    particular, null_basis = sol
    dim = len(null_basis)
    got = set()
    for r in range(p ** dim):
        coeffs = ranks_to_digits(np.array([r]), p, dim)[0] if dim else np.zeros(0, dtype=np.int64)
        got.add(tuple(int(x) for x in (particular + coeffs @ null_basis) % p))
    assert got == set(brute)


def test_orth_complement_examples():
    assert orth_complement(np.array([[1, 0, 0]]), 3).tolist() == [[0, 1, 0], [0, 0, 1]]
    # no constraints: the whole space, as the identity
    assert orth_complement(np.zeros((0, 2), dtype=np.int64), 3).tolist() == [[1, 0], [0, 1]]
    assert orth_complement(np.array([[1, 1]]), 3).tolist() == [[1, 2]]


@given(p=primes, n=st.integers(1, 5), k=st.integers(0, 3), seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_orth_complement_involution(p, n, k, seed):
    rng = np.random.default_rng(seed)
    vs = rng.integers(0, p, (k, n))
    comp = orth_complement(vs, p)
    back = orth_complement(comp, p)
    # span(back) == span(vs): mutual containment via rank tests
    r_vs = mat_rank(vs, p)
    assert back.shape == (r_vs, n)
    assert mat_rank(np.concatenate([vs, back]), p) == r_vs


def test_null_space_vectors_are_canonical():
    m = np.array([[2, 1, 3]])
    null_basis = orth_complement(m, 5)
    assert null_basis.shape == (2, 3)
    for v in null_basis:
        assert v[np.flatnonzero(v)[0]] == 1
        assert not (m @ v % 5).any()


def test_rank_encoding_round_trip():
    for p, n in [(3, 4), (5, 3)]:
        total = p ** n
        ranks = np.arange(total)
        digits = ranks_to_digits(ranks, p, n)
        assert (digits_to_ranks(digits, p) == ranks).all()
        assert digits[total - 1].tolist() == [p - 1] * n
        # rank order is lexicographic on coordinates
        assert digits[0].tolist() < digits[1].tolist() < digits[2].tolist()


@pytest.mark.parametrize("p,n,chunk", [
    (3, 1, 1), (3, 1, 2), (3, 1, 100), (5, 3, 1), (5, 3, 4), (5, 3, 24), (5, 3, 25), (5, 3, 124),
    (3, 4, 10), (3, 4, 81), (3, 4, 1 << 16), (7, 2, 0), (101, 2, 5_000), (3, 10, 1 << 15),
])
def test_iter_group_chunks_covers_the_group_in_rank_order(p, n, chunk):
    blocks = list(iter_group_chunks(p, n, chunk))
    assert np.array_equal(np.concatenate([b for _, b in blocks]), ranks_to_digits(np.arange(p ** n), p, n))
    sizes = [len(b) for _, b in blocks]
    assert [s for s, _ in blocks] == [sum(sizes[:i]) for i in range(len(sizes))]
    assert all(b.dtype == np.int64 and len(b) <= max(chunk, 1) for _, b in blocks)


@pytest.mark.parametrize("p,n", [(3, 1), (3, 4), (5, 3), (7, 2), (11, 1), (13, 2)])
def test_shifted_ranks_matches_add_mod(p, n):
    rng = np.random.default_rng(p * 100 + n)
    # a zero offset row, then the largest residues, then random rows
    offsets = np.vstack([np.zeros((1, n), dtype=np.int64), np.full((1, n), p - 1), rng.integers(0, p, (5, n))])
    digits = ranks_to_digits(np.arange(p ** n), p, n)
    got = shifted_ranks(offsets, p)
    assert got.dtype == np.min_scalar_type(p ** n - 1) and got.shape == (len(offsets), p ** n)
    for row, o in zip(got, offsets):
        assert np.array_equal(row, digits_to_ranks(add_mod(digits, o, p), p))
    assert np.array_equal(got[0], np.arange(p ** n))
    assert shifted_ranks(offsets[:0], p).shape == (0, p ** n)


def test_as_points_checks_shape_and_reduces():
    # every coordinate reduced mod p, a negative one and one beyond int64 included
    pts = as_points([[1, -1, 5], [2 ** 70, 7, 0]], 5, 3)
    assert pts.dtype == np.int64 and pts.tolist() == [[1, 4, 0], [2 ** 70 % 5, 2, 0]]
    assert not pts.flags.writeable
    assert as_points(np.array([[3, 4]], dtype=np.uint64), 3, 2).tolist() == [[0, 1]]
    assert as_points([], 3, 4).shape == (0, 4)
    for bad in ([[1, 2]], [[1, 2, 3, 4]], [1, 2, 3], [[[1, 2, 3]]], [[1, 2, 3], [1, 2]], [[1.0, 2.0, 3.0]], [["1", "2", "3"]]):
        with pytest.raises(ValueError):
            as_points(bad, 5, 3)
    with pytest.raises(ValueError):
        as_points([[1]], 2 ** 89 - 1, 1)


@given(p=primes, rows=st.integers(1, 4), cols=st.integers(1, 6), seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_affine_solver_matches_solve_affine(p, rows, cols, seed):
    rng = np.random.default_rng(seed)
    a = rand_matrix(p, rows, cols, rng)
    if mat_rank(a, p) < rows:
        with pytest.raises(ValueError):
            affine_solver(a, p)
        return
    transform, nb = affine_solver(a, p)
    for _ in range(3):
        b = rng.integers(0, p, rows)
        particular, null_basis = solve_affine(a, b, p)
        assert (transform @ b % p).tolist() == particular.tolist()
        assert nb.tolist() == null_basis.tolist()


# float64 covers 3, 5 and 131071 with n <= 2 (n^2 (p-1)^3 just below 2^53 at n = 2);
# int64 covers 131071 with n >= 3, 2097169, and 2^31 - 1 with n = 1;
# quad_forms takes n^2 (p-1)^3 < 2^53: 131071 up to n = 2, the others at n = 0 only, and 2^89 - 1,
# whose residues overflow int64, never.
QF_PRIMES = [3, 5, 131071, 2097169, 2 ** 31 - 1, 2 ** 89 - 1]


def _quad_forms_reference(points, mats, p):
    return [[sum(x[i] * m[i][j] * x[j] for i in range(len(x)) for j in range(len(x))) % p for m in mats]
            for x in points]


def _residues(rnd, p, shape):
    """Random residues with the extremes 0, 1, p - 1 over-represented, as int64 or, for the refused
    p >= 2^63, object."""
    flat = [rnd.choice((0, 1, p - 1, rnd.randrange(p))) for _ in range(int(np.prod(shape)))]
    return np.array(flat, dtype=np.int64 if p < 1 << 63 else object).reshape(shape)


@given(p=st.sampled_from(QF_PRIMES), m=st.integers(0, 5), n=st.integers(0, 6), t=st.integers(0, 4),
       seed=st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
@example(p=131071, m=1, n=0, t=2, seed=0)  # once returned a nonzero form for the empty point
def test_quad_forms_matches_python_ints(p, m, n, t, seed):
    rnd = random.Random(seed)
    points, mats = _residues(rnd, p, (m, n)), _residues(rnd, p, (t, n, n))
    if max(n * n * (p - 1) ** 3, p) >= 1 << 53:
        with pytest.raises(ValueError, match="2\\^53"):
            quad_forms(points, mats, p)
        return
    got = quad_forms(points, mats, p)
    assert got.shape == (m, t)
    assert got.tolist() == _quad_forms_reference(points.tolist(), mats.tolist(), p)


@pytest.mark.parametrize("p", QF_PRIMES)
@pytest.mark.parametrize("n", [1, 2, 3, 31])
def test_quad_forms_extreme_entries(p, n):
    # every entry p - 1: the largest value each product and partial sum can take; refused where
    # that is 2^53 or more
    dtype = np.int64 if p < 1 << 63 else object
    points = np.full((2, n), p - 1, dtype=dtype)
    mats = np.full((2, n, n), p - 1, dtype=dtype)
    if n * n * (p - 1) ** 3 >= 1 << 53:
        with pytest.raises(ValueError, match="2\\^53"):
            quad_forms(points, mats, p)
        return
    want = (n * n * (p - 1) ** 3) % p
    assert quad_forms(points, mats, p).tolist() == [[want, want], [want, want]]


@given(p=st.sampled_from(QF_PRIMES[:-1] + [2 ** 61 - 1, 2 ** 63 - 25]), lead=st.integers(0, 3),
       m=st.integers(0, 4), k=st.integers(0, 6), r=st.integers(0, 4), seed=st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
@example(p=2 ** 89 - 1, lead=0, m=2, k=0, r=3, seed=0)  # an empty inner dimension, p itself past 2^53
def test_matmul_mod_matches_python_ints(p, lead, m, k, r, seed):
    # a stack of lead matrices (none for lead = 0) times one matrix; refused once k (p-1)^2 or p
    # reaches 2^53
    rnd = random.Random(seed)
    a = _residues(rnd, p, (lead, m, k) if lead else (m, k))
    b = _residues(rnd, p, (k, r))
    if max(k * (p - 1) ** 2, p) >= 1 << 53:
        with pytest.raises(ValueError, match="2\\^53"):
            matmul_mod(a, b, p)
        return
    got = matmul_mod(a, b, p)
    want = [[[sum(int(x) * int(y) for x, y in zip(row, col)) % p for col in b.T.tolist()] for row in mat]
            for mat in (a.tolist() if lead else [a.tolist()])]
    assert got.dtype == np.int64
    assert (got.tolist() if lead else [got.tolist()]) == want


def _largest_odd_sum(k, p):
    """(k-1)(p-1)^2 + (p-2)^2: the largest odd row-by-column sum over k residues, which float64 rounds past 2^53."""
    return (k - 1) * (p - 1) ** 2 + (p - 2) ** 2


def _float64_boundary_primes(k):
    """The largest prime p with k (p-1)^2 < 2^53, inside matmul_mod's float64 limit, and the smallest
    prime whose largest odd sum reaches 2^53, which matmul_mod refuses."""
    q = math.isqrt(((1 << 53) - 1) // k)  # the largest p - 1 inside the limit
    below = next(m for m in range(q + 1, 2, -1) if _is_prime(m))
    above = next(m for m in range(q + 2, 4 * q) if _is_prime(m) and _largest_odd_sum(k, m) >= 1 << 53)
    assert k * (below - 1) ** 2 < 1 << 53 <= _largest_odd_sum(k, above)
    return below, above


@pytest.mark.parametrize("k", [1, 2, 3, 31, 1000])
def test_matmul_mod_at_float64_limit(k):
    rnd = random.Random(k)
    for p in _float64_boundary_primes(k):
        # the first row and column reach the largest odd sum, the rest are random residues
        a = _residues(rnd, p, (3, k))
        b = _residues(rnd, p, (k, 2))
        a[0], b[:, 0] = p - 1, p - 1
        a[0, -1] = b[-1, 0] = p - 2
        assert int(a[0] @ b[:, 0]) == _largest_odd_sum(k, p)
        if k * (p - 1) ** 2 >= 1 << 53:
            with pytest.raises(ValueError, match="2\\^53"):
                matmul_mod(a, b, p)
            continue
        got = matmul_mod(a, b, p)
        assert got.dtype == np.int64
        assert got.tolist() == [[sum(int(x) * int(y) for x, y in zip(row, col)) % p for col in b.T.tolist()]
                                for row in a.tolist()]


def test_narrow_dtype_holds_bound_and_p():
    assert _narrow_dtype((1 << 15) - 1, 3) is np.int16
    assert _narrow_dtype(1 << 15, 3) is np.int32
    assert _narrow_dtype((1 << 31) - 1, 3) is np.int32
    assert _narrow_dtype(1 << 31, 3) is np.int64
    assert _narrow_dtype((1 << 53) - 1, 3) is np.int64
    # an empty product's bound is 0, but _mod reduces by p as a scalar of the array's dtype
    assert _narrow_dtype(0, 131071) is np.int32
    assert _narrow_dtype(0, 2 ** 31) is np.int64


def test_blas_dtype_tiers():
    # nonnegative integer sums are exact in float32 below 2^24 and in float64 below 2^53
    assert _blas_dtype((1 << 24) - 1) is np.float32
    assert _blas_dtype(1 << 24) is np.float64
    assert _blas_dtype((1 << 53) - 1) is np.float64
    # beyond, no float dtype holds the sums, and the products are refused
    with pytest.raises(ValueError, match="2\\^53"):
        _blas_dtype(1 << 53)


# with every entry p - 1, n^2 (p-1)^3 at n = 64 is just below 2^24 for p = 13 (float32) and exactly 2^24
# for p = 17 (float64); at p = 19 one odd entry in a point and in a form makes an odd form above 2^24,
# which float32 would round
@pytest.mark.parametrize("p,blas", [(13, np.float32), (17, np.float64), (19, np.float64)])
def test_quad_forms_and_matmul_mod_at_float32_limit(p, blas):
    n = 64
    assert _blas_dtype(n * n * (p - 1) ** 3) is blas
    points, mats = np.full((3, n), p - 1), np.full((2, n, n), p - 1)
    points[1, 0] = mats[1, 0, 0] = p - 2
    points[2] = np.random.default_rng(p).integers(0, p, n)
    want = _quad_forms_reference(points.tolist(), mats.tolist(), p)
    assert quad_forms(points, mats, p).tolist() == want
    # matmul_mod on the same operands, as the (3, n) by (n, n) products of the points and the forms
    got = matmul_mod(points, mats, p)
    want = [[[sum(x * m[i][j] for i, x in enumerate(pt)) % p for j in range(n)] for pt in points.tolist()]
            for m in mats.tolist()]
    assert got.tolist() == want


# matmul_mod's own float32 limit, k (p-1)^2 < 2^24: at p = 17 an inner dimension of 2^16 - 1 stays below it,
# and 2^16 + 1 reaches it with an odd sum, (k-1)(p-1)^2 + (p-2)^2 = 2^24 + 225, that float32 would round
@pytest.mark.parametrize("k,blas", [((1 << 16) - 1, np.float32), ((1 << 16) + 1, np.float64)])
def test_matmul_mod_at_float32_limit(k, blas):
    p = 17
    assert _blas_dtype(k * (p - 1) ** 2) is blas
    a, b = np.full((2, k), p - 1), np.full((k, 2), p - 1)
    a[0, -1] = b[-1, 0] = p - 2
    a[1] = np.random.default_rng(k).integers(0, p, k)
    want = [[sum(int(x) * int(y) for x, y in zip(row, col)) % p for col in b.T.tolist()] for row in a.tolist()]
    assert int(a[0] @ b[:, 0]) == _largest_odd_sum(k, p)
    assert matmul_mod(a, b, p).tolist() == want


def _primes_either_side(size, limit):
    """The largest prime p >= 3 with size(p) < limit, when there is one, and the smallest prime
    with size(p) >= limit; size increases with p and size(2) < limit."""
    lo, hi = 2, 3
    while size(hi) < limit:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:  # size(lo) < limit <= size(hi)
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if size(mid) < limit else (lo, mid)
    below = next((m for m in range(lo, 2, -1) if _is_prime(m)), None)
    above = next(m for m in itertools.count(hi) if _is_prime(m))
    return [q for q in (below, above) if q]


# matmul_mod reduces its float64 sums, at most k (p-1)^2, in int16 below 2^15 and in int32 below
# 2^31; quad_forms its forms, at most n^2 (p-1)^3, likewise.  Each limit is tested at the primes on
# either side of it, with the largest sum reached and at least 512 entries, the size from which
# fp._mod reduces by floor division
@given(limit=st.sampled_from([1 << 15, 1 << 31]), k=st.integers(1, 40), seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_matmul_mod_at_narrow_dtype_limits(limit, k, seed):
    rnd = random.Random(seed)
    for p in _primes_either_side(lambda q: k * (q - 1) ** 2, limit):
        a, b = _residues(rnd, p, (2, 16, k)), _residues(rnd, p, (k, 20))
        a[0, 0], b[:, 0] = p - 1, p - 1  # the sum k (p-1)^2
        got = matmul_mod(a, b, p)
        want = [[[sum(int(x) * int(y) for x, y in zip(row, col)) % p for col in b.T.tolist()] for row in mat]
                for mat in a.tolist()]
        assert got.dtype == np.int64 and got.tolist() == want


@given(limit=st.sampled_from([1 << 15, 1 << 31]), n=st.integers(1, 8), seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_quad_forms_at_narrow_dtype_limits(limit, n, seed):
    rnd = random.Random(seed)
    for p in _primes_either_side(lambda q: n * n * (q - 1) ** 3, limit):
        points, mats = _residues(rnd, p, (200, n)), _residues(rnd, p, (3, n, n))
        points[0], mats[0] = p - 1, p - 1  # the form n^2 (p-1)^3
        got = quad_forms(points, mats, p)
        assert got.dtype == np.int64
        assert got.tolist() == _quad_forms_reference(points.tolist(), mats.tolist(), p)


@pytest.mark.parametrize("p", [131071, 2 ** 89 - 1])
@pytest.mark.parametrize("rows", [3, 200])
def test_empty_products_at_large_p(p, rows):
    # k = 0 and n = 0: every sum is 0, reduced in a dtype that must still hold p, by % below
    # 512 entries and by floor division from there on; a p of 2^53 or more is refused
    dtype = np.int64 if p < 1 << 63 else object
    if p >= 1 << 53:
        with pytest.raises(ValueError, match="2\\^53"):
            matmul_mod(np.zeros((rows, 0), dtype=dtype), np.zeros((0, 3), dtype=dtype), p)
        with pytest.raises(ValueError, match="2\\^53"):
            quad_forms(np.zeros((rows, 0), dtype=dtype), np.zeros((3, 0, 0), dtype=dtype), p)
        return
    got = matmul_mod(np.zeros((rows, 0), dtype=dtype), np.zeros((0, 3), dtype=dtype), p)
    assert got.dtype == dtype and got.tolist() == [[0] * 3] * rows
    got = quad_forms(np.zeros((rows, 0), dtype=dtype), np.zeros((3, 0, 0), dtype=dtype), p)
    assert got.dtype == np.int64 and got.tolist() == [[0] * 3] * rows


def _stream_seeds() -> list[int]:
    """Seeds at the edges of the 32-bit word derive_rng keeps, beyond it and below 0, then seeded
    ones of every size up to 64 bits and either sign, 10^4 distinct seeds in all."""
    seeds = dict.fromkeys([0, 1, 2 ** 31 - 1, 2 ** 31, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 5, 2 ** 40 + 3, 2 ** 64 + 1,
                           10 ** 30, -1, -2, -(2 ** 31), -(2 ** 32), -(2 ** 63)])
    rnd = random.Random(7)
    while len(seeds) < 10_000:
        seeds[rnd.choice((1, -1)) * rnd.getrandbits(rnd.randrange(1, 65))] = None
    return list(seeds)


_STREAM_SEEDS = _stream_seeds()


@pytest.mark.parametrize("key,count", [
    (("find-in-atom",), len(_STREAM_SEEDS)),  # a string key
    (("planted-instance", 2, 1), len(_STREAM_SEEDS)),  # string and ints, the pool's last words
    (("shatter-pair", -3), 2_000),
    ((0xFFFFFFFF + 7,), 2_000),
    ((), 2_000),
])
def test_derive_rng_states_are_derive_rng_streams(key, count):
    seeds = _STREAM_SEEDS[:count]
    assert derive_rng_states(seeds, *key) == [derive_rng(s, *key).bit_generator.state for s in seeds]
    # an installed state draws what derive_rng draws
    rng = np.random.Generator(np.random.PCG64(0))
    for s, state in list(zip(seeds, derive_rng_states(seeds, *key)))[:20]:
        rng.bit_generator.state = state
        assert rng.integers(0, 5, size=50).tolist() == derive_rng(s, *key).integers(0, 5, size=50).tolist()


def test_derive_rng_states_refuse_a_key_beyond_the_entropy_pool():
    assert derive_rng_states([], "a", 1, 2) == []
    with pytest.raises(ValueError, match="a key of 4 parts overflows the 4-word entropy pool"):
        derive_rng_states([0, 1], "a", 1, 2, 3)


def _buffer(gen):
    """A generator's has_uint32 buffer as lemire_draws keeps it: the spare half, or None."""
    state = gen.bit_generator.state
    return state["uinteger"] if state["has_uint32"] else None


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 31, 101, 251])
def test_lemire_draws_are_generator_integers(p):
    # several streams drawn together in rounds of random sizes, odd and empty ones included: every
    # row is what the stream's own generator draws, and each stream ends in its generator's state;
    # every other generator starts with a spare half in its buffer, so the streams' halves differ
    rnd = random.Random(p)
    seeds = list(range(12))
    refs = [derive_rng(s, "lemire", p) for s in seeds]
    for ref in refs[1::2]:
        ref.integers(0, 1 << 32, dtype=np.uint32)  # one word, its raw word's high half left buffered
    streams = [np.random.PCG64(0) for _ in seeds]
    for stream, ref in zip(streams, refs):
        stream.state = {**ref.bit_generator.state, "has_uint32": 0, "uinteger": 0}
    halves = [_buffer(ref) for ref in refs]
    for _ in range(40):
        count = rnd.choice([0, 1, rnd.randint(2, 9), 2 * rnd.randint(1, 40) + 1, 2 * rnd.randint(1, 40)])
        got, halves = lemire_draws(streams, halves, p, count)
        assert got.dtype == np.uint8 and got.shape == (len(seeds), count)
        for row, ref in zip(got, refs):
            assert np.array_equal(row, ref.integers(0, p, size=count, dtype=np.uint32))
    assert {h is None for h in halves} == {True, False}
    for stream, half, ref in zip(streams, halves, refs):
        assert stream.state["state"] == ref.bit_generator.state["state"] and half == _buffer(ref)


def _pcg64_before(output: int, steps: int, inc: int) -> dict:
    """A PCG64 state whose raw output `steps` draws on (0: the next draw) is output.

    PCG64 steps its LCG state s -> s a + inc mod 2^128 and outputs the XSL-RR of the new state:
    (hi ^ lo) rotated right by hi >> 58.  The state after the step is built from the output with
    any hi, and the LCG is run backwards from it steps + 1 times."""
    hi = 0x0123456789ABCDEF
    rot = hi >> 58
    lo = (output << rot | output >> (64 - rot)) & (2 ** 64 - 1) ^ hi
    state = hi << 64 | lo
    for _ in range(steps + 1):
        state = (state - inc) * pow(_PCG_MULT, -1, 2 ** 128) % 2 ** 128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}


@pytest.mark.parametrize("p", [3, 5, 31, 251])
@pytest.mark.parametrize("output", [0xFFFFFFFF00000000, 0])  # a rejected low half, then both halves
@pytest.mark.parametrize("steps,half,count", [(0, None, 6), (0, None, 7), (0, 0x9E3779B9, 6), (3, None, 12),
                                              (3, 0x9E3779B9, 9), (2, None, 5)])
def test_lemire_draws_redo_a_rejected_word(p, output, steps, half, count):
    # the word 0 gives w p mod 2^32 = 0 < 2^32 mod p, so Lemire's rule rejects it at every odd p:
    # the generator skips it, while the plain multiply-shift would keep it
    state = _pcg64_before(output, steps, 0xDA3E39CB94B95BDB)
    ref, stream = np.random.Generator(np.random.PCG64(0)), np.random.PCG64(0)
    ref.bit_generator.state = {**state, "has_uint32": int(half is not None), "uinteger": half or 0}
    stream.state = state
    assert stream.random_raw(steps + 1)[-1] == output
    stream.state = state
    want = ref.integers(0, p, size=count, dtype=np.uint32)
    got, (after,) = lemire_draws([stream], [half], p, count)
    assert np.array_equal(got[0], want)
    assert stream.state["state"] == ref.bit_generator.state["state"] and after == _buffer(ref)
    # the multiply-shift of the first count words alone differs
    probe = np.random.PCG64(0)
    probe.state = state
    words = ([half] if half is not None else []) + [h for w in probe.random_raw(count).tolist()
                                                   for h in (w & 0xFFFFFFFF, w >> 32)]
    assert [w * p >> 32 for w in words[:count]] != want.tolist()


def test_lemire_draws_refuse_p_beyond_exact_float64():
    stream = np.random.PCG64(0)
    for p in (0, 1, 1 << 21, 1 << 32):
        with pytest.raises(ValueError, match=rf"bounded draws need 2 <= p < 2\^21; got p = {p}$"):
            lemire_draws([stream], [None], p, 4)
    assert stream.state == np.random.PCG64(0).state


_EYE = "np.eye(3, dtype=np.int64)"


# Each kernel takes the largest prime inside the range its dtypes hold exactly and refuses the first
# one beyond it, and 2^61 - 1, whose inverse table alone would take 2^64 bytes, before any arithmetic
@pytest.mark.parametrize("call,size,limit", [
    ("fp._inv_array(np.arange(3), p)", lambda q: q, 1 << 15),
    (f"fp._rref({_EYE}, p)", lambda q: q, 1 << 15),
    (f"fp._rank_array({_EYE}[None], p)", lambda q: q, 1 << 15),
    (f"fp.matmul_mod({_EYE}, {_EYE}, p)", lambda q: 3 * (q - 1) ** 2, 1 << 53),
    (f"fp.quad_forms({_EYE}, {_EYE}[None], p)", lambda q: 9 * (q - 1) ** 3, 1 << 53),
], ids=["_inv_array", "_rref", "_rank_array", "matmul_mod", "quad_forms"])
def test_kernel_refuses_the_first_p_beyond_its_range(call, size, limit):
    below, first = _primes_either_side(size, limit)
    got = refusals_in_child(call, [below, first, 2 ** 61 - 1])
    bound = "2^15" if limit == 1 << 15 else "2^53"
    assert got[0] == "ok" and all(bound in line for line in got[1:]), got
