import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vc2lab.fp import FieldCtx, digits_to_ranks, matmul_mod, orth_complement, quad_forms, ranks_to_digits
from vc2lab.gs import ExplicitSet, GsSet, QgsSet, _leading_one, _polar, cross_terms
from vc2lab.highrank import BASIS_P_BOUND, build_trace_basis

ctx3 = FieldCtx(3)
ctx5 = FieldCtx(5)


def test_fnz_examples():
    # membership is decided by the first nonzero coordinate alone
    assert not GsSet(ctx3, 3).contains((0, 0, 0))
    assert not GsSet(ctx3, 3).contains((0, 2, 1))
    assert GsSet(ctx3, 3).contains((0, 1, 2))
    assert GsSet(ctx5, 2).contains((1, 0))


def test_gs_contains_examples():
    a = GsSet(ctx3, 3)
    assert not a.contains((0, 0, 0))
    assert a.contains((0, 1, 2))
    assert not a.contains((2, 1, 0))


def test_gs_count_f3_4():
    # oracle: exhaustive count; sum of 3**(4-i) for i = 1..4 is 40
    a = GsSet(ctx3, 4)
    assert int(a.membership_table().sum()) == 40
    assert sum(3 ** (4 - i) for i in range(1, 5)) == 40


def _gs_reference(coords):
    """Scalar GS rule: the first nonzero coordinate exists and equals 1."""
    return next((c for c in coords if c), 0) == 1


def _horner_rank(coords, p):
    r = 0
    for c in coords:
        r = r * p + c
    return r


def test_gs_vectorized_matches_scalar():
    a = GsSet(ctx5, 3)
    digits = ranks_to_digits(np.arange(5 ** 3), 5, 3)
    vec = a.contains_digits(digits)
    for r in range(5 ** 3):
        coords = tuple(int(c) for c in digits[r])
        ref = _gs_reference(coords)
        assert bool(vec[r]) == ref
        assert a.contains(coords) == ref


def test_explicit_set_matches_scalar():
    table = np.random.default_rng(3).random(5 ** 3) < 0.4
    a = ExplicitSet(ctx5, 3, table)
    digits = ranks_to_digits(np.arange(5 ** 3), 5, 3)
    vec = a.contains_digits(digits)
    for r in range(5 ** 3):
        coords = tuple(int(c) for c in digits[r])
        ref = bool(table[_horner_rank(coords, 5)])
        assert bool(vec[r]) == ref
        assert a.contains(coords) == ref


@pytest.fixture(scope="module")
def qgs5():
    return QgsSet(build_trace_basis(ctx3, 5))


def test_eval_q_examples(qgs5):
    zero = np.zeros(5, dtype=np.int64)
    for t in range(1, 6):
        assert qgs5.eval_q(t, zero) == 0
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.integers(0, 3, 5)
        t = int(rng.integers(1, 6))
        assert qgs5.eval_q(t, -x) == qgs5.eval_q(t, x)
    with pytest.raises(ValueError):
        qgs5.eval_q(0, zero)
    with pytest.raises(ValueError):
        qgs5.eval_q(6, zero)


def test_qgs_contains_examples(qgs5):
    zero = np.zeros(5, dtype=np.int64)
    assert not qgs5.contains(zero)
    rng = np.random.default_rng(7)
    seen_one = seen_two = False
    for _ in range(300):
        x = rng.integers(0, 3, 5)
        q1 = qgs5.eval_q(1, x)
        if q1 == 1:
            assert qgs5.contains(x)
            seen_one = True
        elif q1 == 2:
            assert not qgs5.contains(x)
            seen_two = True
    assert seen_one and seen_two


def test_qgs_vectorized_matches_scalar(qgs5):
    digits = ranks_to_digits(np.arange(3 ** 5), 3, 5)
    vec = qgs5.contains_digits(digits)
    for r in range(0, 3 ** 5, 7):
        assert vec[r] == qgs5.contains(digits[r])


def test_qgs_depends_only_on_value_sequence(qgs5):
    table = qgs5.membership_table()
    digits = ranks_to_digits(np.arange(3 ** 5), 3, 5)
    seqs = {}
    for r in range(3 ** 5):
        key = tuple(quad_forms(digits[r:r + 1], qgs5.basis.mats, 3)[0].tolist())
        if key in seqs:
            assert table[r] == seqs[key]
        else:
            seqs[key] = table[r]


def test_cross_term_examples(qgs5):
    rng = np.random.default_rng(11)
    x, y = rng.integers(0, 3, (20, 5)), rng.integers(0, 3, (20, 5))
    mats = qgs5.basis.mats
    assert not cross_terms(x, np.zeros((1, 5), dtype=np.int64), mats, 3).any()
    assert np.array_equal(cross_terms(x, y, mats, 3), cross_terms(y, x, mats, 3).transpose(1, 0, 2))


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_zero_cross_terms_are_the_complement_of_the_polar_forms(p, n):
    # 2 x^T M_t y = (2 M_t x) . y, so the y with every cross-term zero are exactly the y orthogonal to
    # every polar form: the identity behind the construction's H*, the blind sampler and the plant
    mats = build_trace_basis(FieldCtx(p), n).mats
    group = ranks_to_digits(np.arange(p ** n), p, n)
    rng = np.random.default_rng(p * 10 + n)
    for _ in range(6):
        x = rng.integers(0, p, (int(rng.integers(1, 4)), n))
        for t in range(n + 1):
            zero = ~cross_terms(x, group, mats[:t], p).any(axis=(0, 2))
            space = orth_complement(_polar(mats[:t], x, p).reshape(-1, n), p)
            span = digits_to_ranks(matmul_mod(ranks_to_digits(np.arange(p ** len(space)), p, len(space)), space, p), p)
            assert set(np.flatnonzero(zero).tolist()) == set(span.tolist())


@given(seed=st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_expansion_identity(seed):
    basis = build_trace_basis(ctx3, 4)
    a = QgsSet(basis)
    rng = np.random.default_rng(seed)
    x, y, z = (rng.integers(0, 3, 4) for _ in range(3))
    t = int(rng.integers(1, 5))
    lhs = a.eval_q(t, x + y + z)
    rhs = (a.eval_q(t, x + z) + a.eval_q(t, y + z) - a.eval_q(t, z) + int(cross_terms(x[None], y[None], basis.mats[t - 1:t], 3)[0, 0, 0])) % 3
    assert lhs == rhs


def test_expansion_identity_bulk():
    # vectorized form of the same identity over a large random batch
    basis = build_trace_basis(ctx3, 9)
    mats = basis.mats
    rng = np.random.default_rng(0)
    count = 20_000
    xs = rng.integers(0, 3, (count, 9)).astype(np.int64)
    ys = rng.integers(0, 3, (count, 9)).astype(np.int64)
    zs = rng.integers(0, 3, (count, 9)).astype(np.int64)
    ts = rng.integers(0, 9, count)
    for t in range(9):
        sel = ts == t
        m = mats[t]
        q = lambda v: np.einsum("ij,jk,ik->i", v, m, v) % 3
        lhs = q((xs[sel] + ys[sel] + zs[sel]) % 3)
        rhs = (q((xs[sel] + zs[sel]) % 3) + q((ys[sel] + zs[sel]) % 3) - q(zs[sel])
               + 2 * np.einsum("ij,jk,ik->i", xs[sel], m, ys[sel])) % 3
        assert (lhs == rhs).all()


# (p, n) for the translate kernel: small fields, 251, the largest p of a quadratic set, where
# quad_forms runs in float64, and two large p where only the linear set is built
_TRANSLATE_FIELDS = [(3, 4), (5, 3), (7, 2), (13, 2), (251, 3), (2 ** 31 - 1, 2), (2 ** 61 - 1, 2)]


@st.composite
def _translate_case(draw):
    """An oracle, w in [1, 20] cells and m in [0, 12] shifts, with a zero shift and coinciding cells drawn
    often, as int64 rows or, for p <= 127, often as the int8 rows the pattern scan passes."""
    p, n = draw(st.sampled_from(_TRANSLATE_FIELDS))
    kinds = ["gs"] + (["qgs"] if p < BASIS_P_BOUND else []) + (["explicit"] if p ** n <= 10 ** 4 else [])
    kind = draw(st.sampled_from(kinds))
    ctx = FieldCtx(p)
    if kind == "gs":
        a = GsSet(ctx, n)
    elif kind == "qgs":
        a = QgsSet(build_trace_basis(ctx, n))
    else:
        bits = draw(st.lists(st.booleans(), min_size=p ** n, max_size=p ** n))
        a = ExplicitSet(ctx, n, np.array(bits))
    row = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    cells = draw(st.lists(row, min_size=1, max_size=20))
    shifts = draw(st.lists(row, max_size=12))
    if draw(st.booleans()):
        shifts.append([0] * n)
    if len(cells) > 1 and draw(st.booleans()):
        cells[-1] = cells[0]
    dtype = np.int8 if p <= 127 and draw(st.booleans()) else np.int64
    as_rows = lambda rows: np.array(rows, dtype=dtype).reshape(len(rows), n)
    return a, as_rows(cells), as_rows(shifts)


def _translate_reference(a, cell, shift) -> bool:
    """Membership of cell + shift in Python integers: the table at the Horner rank for an ExplicitSet,
    else the first nonzero coordinate (GS) or the first nonzero sum v_i M_ij v_j mod p (QGS)."""
    v = [(int(c) + int(z)) % a.p for c, z in zip(cell, shift)]
    if isinstance(a, ExplicitSet):
        return bool(a.table[_horner_rank(v, a.p)])
    return _gs_reference(_forms_reference(a, v) if isinstance(a, QgsSet) else v)


def _forms_reference(a, v) -> list:
    """Q_1(v), ..., Q_n(v) in Python integers."""
    return [sum(v[i] * m[i][j] * v[j] for i in range(a.n) for j in range(a.n)) % a.p for m in a.basis.mats.tolist()]


@settings(max_examples=200, deadline=None)
@given(case=_translate_case())
def test_contains_translates_matches_scalar_rule(case):
    a, cells, shifts = case
    got = a.contains_translates(cells, shifts)
    assert got.dtype == bool and got.shape == (len(shifts), len(cells))
    assert got.tolist() == [[_translate_reference(a, c, z) for c in cells] for z in shifts]


def test_leading_one_rule():
    # p = 5: an all-zero row, a leading p - 1, a leading 1 after zeros, a leading 1 followed by p - 1
    rows = np.array([[0, 0, 0], [4, 1, 1], [0, 0, 1], [1, 4, 4], [0, 2, 1]], dtype=np.int8)
    assert _leading_one(rows).tolist() == [False, False, True, True, False]
    # stacked leading axes, and an empty one
    stacked = np.stack([rows, rows[::-1], np.roll(rows, 1, axis=1)]).astype(np.int64)
    assert _leading_one(stacked).tolist() == [[_gs_reference(r) for r in block] for block in stacked.tolist()]
    assert _leading_one(stacked[:, :0]).shape == (3, 0)


def test_explicit_set_round_trip():
    table = np.zeros(9, dtype=bool)
    table[[1, 3, 4]] = True
    a = ExplicitSet(ctx3, 2, table)
    assert a.contains((0, 1))
    assert not a.contains((0, 0))
    digits = ranks_to_digits(np.arange(9), 3, 2)
    assert (a.contains_digits(digits) == table).all()


def test_forms_and_membership_exact_at_large_p():
    # the largest p of a quadratic set: n^2 (p - 1)^3 > 2^24, so the forms leave float32 for float64
    p, n = 251, 3
    ctx = FieldCtx(p)
    a = QgsSet(build_trace_basis(ctx, n))
    mats = a.basis.mats.tolist()

    def q(t, v):
        return sum(v[i] * mats[t][i][j] * v[j] for i in range(n) for j in range(n)) % p

    rng = np.random.default_rng(p)
    pts = [[int(c) for c in row] for row in rng.integers(0, p, (200, n))]
    # scaling x by c multiplies every Q_t(x) by c^2: make every other point a member
    squares = np.arange(p, dtype=np.int64) ** 2 % p
    for v in pts[::2]:
        w = q(0, v)
        roots = np.flatnonzero(squares == pow(w, -1, p)) if w else []
        if len(roots):
            v[:] = [int(roots[0]) * c % p for c in v]
    members = 0
    batched = a.contains_digits(np.array(pts, dtype=np.int64))
    for v, y, in_batch in zip(pts, pts[1:] + pts[:1], batched):
        ref = tuple(q(t, v) for t in range(n))
        assert tuple(quad_forms(np.array([v]), a.basis.mats, p)[0].tolist()) == ref
        assert tuple(a.eval_q(t, v) for t in range(1, n + 1)) == ref
        member = next((r for r in ref if r), 0) == 1
        members += member
        assert a.contains(v) == bool(in_batch) == member
        cross = tuple(2 * sum(v[i] * mats[t][i][j] * y[j] for i in range(n) for j in range(n)) % p for t in range(n))
        assert tuple(cross_terms(np.array([v]), np.array([y]), a.basis.mats, p)[0, 0].tolist()) == cross
    assert members >= 20
