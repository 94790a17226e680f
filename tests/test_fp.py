import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vc2lab.fp import (
    FieldCtx,
    FpMatrix,
    FpVector,
    affine_solver,
    basis_vector,
    digits_to_ranks,
    mat_rank,
    null_space,
    orth_complement,
    quad_forms,
    ranks_to_digits,
    scalar_inverse,
    solve_affine,
    vector_from_rank,
    vector_rank,
)

ctx3 = FieldCtx(3)
ctx5 = FieldCtx(5)
ctx7 = FieldCtx(7)

primes = st.sampled_from([3, 5, 7])


def rand_matrix(ctx, rows, cols, rng):
    return FpMatrix(ctx, tuple(tuple(int(v) for v in rng.integers(0, ctx.p, cols)) for _ in range(rows)))


def test_field_ctx_rejects_non_primes():
    for bad in (0, 1, 2, 4, 9, 15):
        with pytest.raises(ValueError):
            FieldCtx(bad)


def test_scalar_inverse_examples():
    assert scalar_inverse(ctx3, 2) == 2
    assert scalar_inverse(ctx5, 3) == 2
    assert scalar_inverse(ctx7, 1) == 1


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 97])
def test_scalar_inverse_exhaustive(p):
    ctx = FieldCtx(p)
    for a in range(1, p):
        assert (scalar_inverse(ctx, a) * a) % p == 1
    with pytest.raises(ValueError):
        scalar_inverse(ctx, 0)


def test_mat_rank_examples():
    assert mat_rank(FpMatrix(ctx3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))) == 3
    assert mat_rank(FpMatrix(ctx5, tuple((0,) * 4 for _ in range(4)))) == 0
    assert mat_rank(FpMatrix(ctx5, ((1, 2), (2, 4)))) == 1


@given(p=primes, n=st.integers(1, 5), seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_rank_equals_transpose_rank(p, n, seed):
    ctx = FieldCtx(p)
    rng = np.random.default_rng(seed)
    m = rand_matrix(ctx, n, n, rng)
    assert mat_rank(m) == mat_rank(m.transpose())


def test_solve_affine_examples():
    eye = FpMatrix(ctx3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    sol = solve_affine(eye, FpVector(ctx3, (1, 2, 0)))
    assert sol.particular.coords == (1, 2, 0) and sol.null_basis == ()

    assert solve_affine(FpMatrix(ctx3, ((0,),)), FpVector(ctx3, (1,))) is None

    sol = solve_affine(FpMatrix(ctx3, ((1, 1),)), FpVector(ctx3, (0,)))
    assert sol.particular.coords == (0, 0)
    assert [v.coords for v in sol.null_basis] == [(1, 2)]
    # oracle: enumerate all 9 vectors of F_3^2
    solutions = {(a, b) for a in range(3) for b in range(3) if (a + b) % 3 == 0}
    assert solutions == {(0, 0), (1, 2), (2, 1)}


def test_solve_affine_dimension_mismatch():
    with pytest.raises(ValueError):
        solve_affine(FpMatrix(ctx3, ((1, 0),)), FpVector(ctx3, (1, 0)))


@given(p=primes, rows=st.integers(1, 4), cols=st.integers(1, 5), seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_affine_solution_parametrizes_solution_set(p, rows, cols, seed):
    ctx = FieldCtx(p)
    rng = np.random.default_rng(seed)
    a = rand_matrix(ctx, rows, cols, rng)
    b = FpVector(ctx, tuple(int(v) for v in rng.integers(0, p, rows)))
    sol = solve_affine(a, b)
    arr = a.as_array()
    brute = [
        tuple(int(c) for c in v)
        for v in ranks_to_digits(np.arange(p ** cols), p, cols)
        if ((arr @ v) % p == b.as_array()).all()
    ]
    if sol is None:
        assert brute == []
        return
    # every parametrized point solves, and the count matches exactly
    dim = len(sol.null_basis)
    got = set()
    for r in range(p ** dim):
        coeffs = ranks_to_digits(np.array([r]), p, dim)[0] if dim else np.zeros(0, dtype=np.int64)
        pt = sol.particular.as_array().copy()
        for c, nb in zip(coeffs, sol.null_basis):
            pt = (pt + int(c) * nb.as_array()) % p
        got.add(tuple(int(x) for x in pt))
    assert got == set(brute)


def test_orth_complement_examples():
    basis = orth_complement([basis_vector(ctx3, 3, 0)])
    assert [v.coords for v in basis] == [(0, 1, 0), (0, 0, 1)]
    assert len(orth_complement([], ctx=ctx3, n=2)) == 2
    assert [v.coords for v in orth_complement([FpVector(ctx3, (1, 1))])] == [(1, 2)]


@given(p=primes, n=st.integers(1, 5), k=st.integers(0, 3), seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_orth_complement_involution(p, n, k, seed):
    ctx = FieldCtx(p)
    rng = np.random.default_rng(seed)
    vs = [FpVector(ctx, tuple(int(v) for v in rng.integers(0, p, n))) for _ in range(k)]
    comp = orth_complement(vs, ctx=ctx, n=n)
    back = orth_complement(comp, ctx=ctx, n=n)
    # span(back) == span(vs): mutual containment via rank tests
    vs_arr = [v.as_array() for v in vs if not v.is_zero()]
    if not vs_arr:
        assert back == []
        return
    stacked = np.stack(vs_arr)
    from vc2lab.fp import _rank_array

    r_vs = _rank_array(stacked, p)
    both = np.concatenate([stacked, np.stack([v.as_array() for v in back])]) if back else stacked
    assert _rank_array(both, p) == r_vs
    assert len(back) == r_vs


def test_null_space_vectors_are_canonical():
    m = FpMatrix(ctx5, ((2, 1, 3),))
    for v in null_space(m):
        first = next(c for c in v.coords if c != 0)
        assert first == 1
        assert m.mul_vec(v).is_zero()


def test_rank_encoding_round_trip():
    for p, n in [(3, 4), (5, 3)]:
        ctx = FieldCtx(p)
        total = p ** n
        ranks = np.arange(total)
        digits = ranks_to_digits(ranks, p, n)
        assert (digits_to_ranks(digits, p) == ranks).all()
        v = vector_from_rank(ctx, n, total - 1)
        assert vector_rank(v) == total - 1
        # rank order is lexicographic on coordinates
        assert digits[0].tolist() < digits[1].tolist() < digits[2].tolist()


def test_vector_matrix_json_round_trip():
    v = FpVector(ctx5, (1, 4, 0))
    assert FpVector.from_json(v.to_json()) == v
    m = FpMatrix(ctx5, ((1, 2), (3, 4)))
    assert FpMatrix.from_json(m.to_json()) == m


@given(p=primes, rows=st.integers(1, 4), cols=st.integers(1, 6), seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_affine_solver_matches_solve_affine(p, rows, cols, seed):
    ctx = FieldCtx(p)
    rng = np.random.default_rng(seed)
    a = rand_matrix(ctx, rows, cols, rng)
    if mat_rank(a) < rows:
        with pytest.raises(ValueError):
            affine_solver(a)
        return
    transform, nb = affine_solver(a)
    for _ in range(3):
        b = FpVector(ctx, tuple(int(v) for v in rng.integers(0, p, rows)))
        sol = solve_affine(a, b)
        assert tuple(int(c) for c in transform @ b.as_array() % p) == sol.particular.coords
        assert [tuple(int(c) for c in row) for row in nb] == [v.coords for v in sol.null_basis]


# float64 covers 3, 5 and 131071 with n <= 2 (n^2 (p-1)^3 just below 2^53 at n = 2);
# int64 covers 131071 with n >= 3, 2097169, and 2^31 - 1 with n = 1;
# Python integers cover 2^31 - 1 with n >= 2 and 2^89 - 1, whose residues overflow int64.
QF_PRIMES = [3, 5, 131071, 2097169, 2 ** 31 - 1, 2 ** 89 - 1]


def _quad_forms_reference(points, mats, p):
    return [[sum(x[i] * m[i][j] * x[j] for i in range(len(x)) for j in range(len(x))) % p for m in mats]
            for x in points]


def _residues(rnd, p, shape):
    """Random residues with the extremes 0, 1, p - 1 over-represented, as int64 or object."""
    flat = [rnd.choice((0, 1, p - 1, rnd.randrange(p))) for _ in range(int(np.prod(shape)))]
    return np.array(flat, dtype=np.int64 if p < 1 << 63 else object).reshape(shape)


@given(p=st.sampled_from(QF_PRIMES), m=st.integers(0, 5), n=st.integers(0, 6), t=st.integers(0, 4),
       seed=st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_quad_forms_matches_python_ints(p, m, n, t, seed):
    rnd = random.Random(seed)
    points, mats = _residues(rnd, p, (m, n)), _residues(rnd, p, (t, n, n))
    got = quad_forms(points, mats, p)
    assert got.shape == (m, t)
    assert got.tolist() == _quad_forms_reference(points.tolist(), mats.tolist(), p)


@pytest.mark.parametrize("p", QF_PRIMES)
@pytest.mark.parametrize("n", [1, 2, 3, 31])
def test_quad_forms_extreme_entries(p, n):
    # every entry p - 1: the largest value each product and partial sum can take
    dtype = np.int64 if p < 1 << 63 else object
    points = np.full((2, n), p - 1, dtype=dtype)
    mats = np.full((2, n, n), p - 1, dtype=dtype)
    want = (n * n * (p - 1) ** 3) % p
    assert quad_forms(points, mats, p).tolist() == [[want, want], [want, want]]
