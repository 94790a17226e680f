import functools
import random
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from vc2lab.fp import (
    FieldCtx,
    derive_rng,
    digits_to_ranks,
    iter_group_chunks,
    mat_rank,
    matmul_mod,
    orth_complement,
    quad_forms,
    ranks_to_digits,
    solve_affine,
)
from vc2lab.gs import QgsSet, cross_terms
from vc2lab.highrank import HighRankBasis, IrreduciblePoly, _is_irreducible, _nonzero_rows, build_trace_basis
from vc2lab.shatter import ContainmentMap, QuadShatterCertificate, vc2_realizes
from vc2lab.factor import (
    ATOM_EXHAUST_LIMIT,
    QuadraticFactor,
    _predicted_cells,
    atom_census,
    _construction_linear_polys,
    check_forced_zeros,
    construct_shatter_pair,
    cross_terms_vanish_below,
    derive_seed_for_map,
    find_in_atom,
    find_in_atoms,
    forced_zero_probe,
    planted_qualifying_sets,
    random_zero_cross_term_sets,
    realize_map,
    realize_maps,
    target_table,
    zero_forcing_map,
)
import targets_reference
from vc2lab import factor
from vc2lab.certs import CheckResult

ctx3 = FieldCtx(3)


@pytest.fixture(scope="module")
def basis9():
    return build_trace_basis(ctx3, 9)


@pytest.fixture(scope="module")
def basis13():
    return build_trace_basis(ctx3, 13)


@pytest.fixture(scope="module")
def basis5():
    return build_trace_basis(ctx3, 5)


@pytest.mark.parametrize("lin,indices,message", [
    (np.zeros((0, 3), dtype=np.int64), (0,), r"quadratic index 0 outside \[1, 3\]"),
    (np.zeros((0, 3), dtype=np.int64), (1, 4), r"quadratic index 4 outside \[1, 3\]"),
    ([(1, 0)], (1,), r"expected points with 3 coordinates each, got an array of shape \(1, 2\)"),
    (np.zeros((0, 3), dtype=np.int64), (1, 1), "quadratic indices must be distinct"),
    ([(1, 1, 0), (2, 2, 0)], (), "linear polynomials must be independent"),
], ids=["index 0", "index n + 1", "n - 1 coordinates", "repeated index", "dependent forms"])
def test_factor_is_checked_against_its_basis_once_at_construction(lin, indices, message):
    with pytest.raises(ValueError, match=message):
        QuadraticFactor(build_trace_basis(ctx3, 3), lin, indices)


def _atom_label(f, basis, x):
    """The factor's values at the point x, linear values first."""
    p = basis.ctx.p
    mats = basis.mats[[t - 1 for t in f.quad_indices]]
    return tuple(matmul_mod(f.linear_polys, x, p).tolist() + quad_forms(np.array([x]), mats, p)[0].tolist())


def test_atom_label_examples(basis9):
    f = QuadraticFactor(basis9, np.eye(1, 9, dtype=np.int64), (1,))
    assert _atom_label(f, basis9, np.zeros(9, dtype=np.int64)) == (0, 0)
    assert _atom_label(f, basis9, np.array((2,) + (0,) * 8))[0] == 2


def test_find_in_atom_round_trip(basis9):
    f = QuadraticFactor(basis9, np.eye(2, 9, dtype=np.int64), (1, 2))
    for rank in range(0, 81, 5):
        vals = []
        r = rank
        for _ in range(4):
            vals.append(r % 3)
            r //= 3
        x = find_in_atom(f, vals, seed=rank)
        assert _atom_label(f, basis9, x) == tuple(vals)


def test_find_in_atom_rejects_high_complexity(basis5):
    f = QuadraticFactor(basis5, np.eye(2, 5, dtype=np.int64), (1,))
    # complexity 3 >= 5/2: not guaranteed non-empty
    with pytest.raises(ValueError):
        find_in_atom(f, (0, 0, 0))


def _find_in_atom_full_scan(f, basis, label, seed):
    """find_in_atom's search in full coordinates: build every candidate point, test its Q-values.

    The sampled branch draws in batches of 2048 rows, then 8 times more per
    batch up to 2^17, a schedule unlike find_in_atom's; the two agree because
    the generator yields the same rows however the draws are split.
    """
    p, n = basis.ctx.p, basis.n
    l = len(f.linear_polys)
    if l:
        part, nb = solve_affine(f.linear_polys, np.array(label[:l], dtype=np.int64), p)
    else:
        part, nb = np.zeros(n, dtype=np.int64), np.eye(n, dtype=np.int64)
    mats = [basis.mats[t - 1].tolist() for t in f.quad_indices]
    target = list(label[l:])

    def scan(alphas):
        for alpha in alphas:
            z = [int(c) for c in (part + alpha @ nb) % p]
            if [sum(z[i] * m[i][j] * z[j] for i in range(n) for j in range(n)) % p for m in mats] == target:
                return np.array(z, dtype=np.int64)
        return None

    dim = nb.shape[0]
    if p ** dim <= ATOM_EXHAUST_LIMIT:
        for _, alphas in iter_group_chunks(p, dim):
            z = scan(alphas)
            if z is not None:
                return z
        return None
    rng = derive_rng(seed, "find-in-atom")
    batch = 2048
    while True:
        z = scan(rng.integers(0, p, size=(batch, dim)).astype(np.int64))
        if z is not None:
            return z
        batch = min(batch * 8, 1 << 17)


def _random_factor(p, n, l, q, seed):
    """A factor with l random linear forms and q random quadratic indices, and a random label;
    None when the linear forms are dependent."""
    ctx = FieldCtx(p)
    basis = build_trace_basis(ctx, n)
    rng = np.random.default_rng(seed)
    # one draw per linear form
    lin = np.array([rng.integers(0, p, n) for _ in range(l)], dtype=np.int64).reshape(l, n)
    if l and mat_rank(lin, p) != l:
        return None
    f = QuadraticFactor(basis, lin, tuple(int(t) for t in rng.choice(np.arange(1, n + 1), q, replace=False)))
    label = tuple(int(v) for v in rng.integers(0, p, l + q))
    return f, basis, label


def _extra_labels(p, l, q, seed, count):
    """count further (label values, seed) pairs for a factor with l linear and q quadratic forms."""
    rng = np.random.default_rng(seed + 1)
    return [(tuple(int(v) for v in rng.integers(0, p, l + q)), int(rng.integers(0, 10_000))) for _ in range(count)]


@given(p=st.sampled_from([3, 5]), n=st.sampled_from([9, 13]), l=st.integers(0, 5), q=st.integers(0, 3),
       seed=st.integers(0, 10_000), extra=st.integers(0, 4))
@example(p=3, n=9, l=2, q=2, seed=1, extra=3)  # exhaustive branch: 3^7 candidates
# sampled branch: 5^10 > ATOM_EXHAUST_LIMIT; first hit at draw 237, the extra labels' at draws 182, 1, 185, 102
@example(p=5, n=13, l=3, q=3, seed=2, extra=4)
# first hit at draw 436: the 64- and 256-row chunks both miss; the extra labels hit at draws 216, 10, 62, 11
@example(p=5, n=13, l=3, q=3, seed=7, extra=4)
@settings(max_examples=30, deadline=None)
def test_find_in_atom_matches_full_coordinate_scan(p, n, l, q, seed, extra):
    """find_in_atom, and find_in_atoms on a batch of extra labels besides, label by label."""
    assume(2 * (l + q) < n)
    case = _random_factor(p, n, l, q, seed)
    assume(case is not None)
    f, basis, label = case
    z = find_in_atom(f, label, seed=seed)
    assert _atom_label(f, basis, z) == label
    assert np.array_equal(z, _find_in_atom_full_scan(f, basis, label, seed))
    batch = [(label, seed)] + _extra_labels(p, l, q, seed, extra)
    zs = find_in_atoms(f, [vals for vals, _ in batch], [s for _, s in batch])
    assert len(zs) == len(batch) and np.array_equal(zs[0], z)
    for z, (vals, s) in zip(zs[1:], batch[1:]):
        assert np.array_equal(z, _find_in_atom_full_scan(f, basis, vals, s))


def test_find_in_atom_budget_counts_draws(monkeypatch):
    # sampled branch whose first hit is draw 436 (0-based), alone and in a batch with
    # labels whose first hits are draws 216, 10, 62 and 11
    import vc2lab.factor as factor

    f, basis, label = _random_factor(5, 13, 3, 3, 7)
    batch = [(label, 7)] + _extra_labels(5, 3, 3, 7, 4)
    labels, seeds = [vals for vals, _ in batch], [s for _, s in batch]
    want = find_in_atom(f, label, seed=7)
    wants = [find_in_atom(f, vals, seed=s) for vals, s in zip(labels, seeds)]
    for budget in (0, 1, 64, 100, 436):
        monkeypatch.setattr(factor, "ATOM_SAMPLE_BUDGET", budget)
        with pytest.raises(RuntimeError, match=rf"^sampling budget exhausted after {budget} draws$"):
            find_in_atom(f, label, seed=7)
        with pytest.raises(RuntimeError, match=rf"^sampling budget exhausted after {budget} draws$"):
            find_in_atoms(f, labels, seeds)
    monkeypatch.setattr(factor, "ATOM_SAMPLE_BUDGET", 437)
    assert np.array_equal(find_in_atom(f, label, seed=7), want)
    for z, w in zip(find_in_atoms(f, labels, seeds), wants):
        assert np.array_equal(z, w)


class _TrackedGenerator(np.random.Generator):
    """A generator that a weakref can follow."""


def _tracked_search(monkeypatch):
    """Patch factor to record each stream installed in a pooled generator, the generators made for
    the pool (followed by weakrefs) and the row count of each quad_forms call.

    A generator is made where the pool has no spare one: the hook then stocks the spare list with a
    new tracked generator, which factor._pooled_generator takes and sets to the label's state.
    Returns the list of installed states, the count of made generators alive as each one is made,
    and the row counts.
    """
    pooled, forms = factor._pooled_generator, factor.quad_forms
    refs, installed, alive, rows = [], [], [], []

    def tracked_generator(spare, state):
        if not spare:
            spare.append(_TrackedGenerator(np.random.PCG64(0)))
            refs.append(weakref.ref(spare[-1]))
            alive.append(sum(r() is not None for r in refs))
        installed.append(state)
        return pooled(spare, state)

    def counted_forms(points, mats, p):
        rows.append(len(points))
        return forms(points, mats, p)

    monkeypatch.setattr(factor, "_pooled_generator", tracked_generator)
    monkeypatch.setattr(factor, "quad_forms", counted_forms)
    return installed, alive, rows


REFILL_LABELS = 10


# ATOM_EVAL_CHUNK = 256 pools 4 labels of 64 draws, so ten labels refill the pool; exhaust=False
# lowers ATOM_EXHAUST_LIMIT so that every factor is sampled
@given(p=st.sampled_from([3, 5]), n=st.sampled_from([9, 13]), l=st.integers(0, 5), q=st.integers(0, 3),
       seed=st.integers(0, 10_000), order=st.permutations(range(REFILL_LABELS)),
       size=st.integers(1, REFILL_LABELS), exhaust=st.booleans())
@example(p=5, n=13, l=3, q=3, seed=7, order=list(range(REFILL_LABELS)), size=REFILL_LABELS, exhaust=True)
@example(p=5, n=13, l=3, q=0, seed=2, order=list(range(REFILL_LABELS))[::-1], size=REFILL_LABELS, exhaust=True)
@example(p=5, n=13, l=0, q=0, seed=3, order=list(range(REFILL_LABELS)), size=7, exhaust=False)
@example(p=5, n=13, l=0, q=3, seed=4, order=list(range(REFILL_LABELS)), size=REFILL_LABELS, exhaust=True)
@example(p=3, n=9, l=0, q=2, seed=5, order=list(range(REFILL_LABELS))[::-1], size=6, exhaust=False)
@settings(max_examples=25, deadline=None)
def test_find_in_atoms_refills_its_pool(p, n, l, q, seed, order, size, exhaust):
    """Labels in shuffled order and in subsets, beyond one pool: each gets its point alone,
    every evaluation stays within ATOM_EVAL_CHUNK rows and at most a pool of generators lives."""
    assume(2 * (l + q) < n)
    case = _random_factor(p, n, l, q, seed)
    assume(case is not None)
    f, basis, label = case
    batch = [(label, seed)] + _extra_labels(p, l, q, seed, REFILL_LABELS - 1)
    picked = [batch[i] for i in order[:size]]
    with pytest.MonkeyPatch.context() as mp:
        if not exhaust:
            mp.setattr(factor, "ATOM_EXHAUST_LIMIT", 0)
        alone = [find_in_atom(f, vals, seed=s) for vals, s in picked]
        mp.setattr(factor, "ATOM_EVAL_CHUNK", 256)
        installed, alive, rows = _tracked_search(mp)
        got = find_in_atoms(f, [vals for vals, _ in picked], [s for _, s in picked])
    assert len(got) == size
    for z, w, (vals, _) in zip(got, alone, picked):
        assert np.array_equal(z, w) and _atom_label(f, basis, z) == vals
    sampled = p ** (n - l) > factor.ATOM_EXHAUST_LIMIT or not exhaust
    # one stream per sampled label, its own, and the pool of 256 // 64 fills up but never overflows
    assert installed == ([derive_rng(s, "find-in-atom").bit_generator.state for _, s in picked] if sampled else [])
    pool = min(size, 256 // factor.ATOM_DRAW_CHUNK) if sampled else 0
    assert len(alive) == pool and max(alive, default=0) == pool
    assert max(rows) <= 256


def test_find_in_atoms_late_label_exhausts_its_own_budget(monkeypatch):
    # a pool of 2: the labels whose first hits are draws 10 and 11 settle in the first round, the
    # one whose first hit is draw 436 joins in the second, and the last label joins long before
    # it settles, so its last draws come in the larger rounds of the emptied queue; with a budget
    # above 216 only it runs out, the others hitting at draws 216 and 62
    f, basis, label = _random_factor(5, 13, 3, 3, 7)
    extra = _extra_labels(5, 3, 3, 7, 4)
    batch = [extra[1], extra[3], (label, 7), extra[0], extra[2]]
    labels, seeds = [vals for vals, _ in batch], [s for _, s in batch]
    alone = [find_in_atom(f, vals, seed=s) for vals, s in batch]
    monkeypatch.setattr(factor, "ATOM_EVAL_CHUNK", 128)
    installed, alive, rows = _tracked_search(monkeypatch)
    for budget in (217, 300, 436):
        monkeypatch.setattr(factor, "ATOM_SAMPLE_BUDGET", budget)
        with pytest.raises(RuntimeError, match=rf"^sampling budget exhausted after {budget} draws$"):
            find_in_atoms(f, labels, seeds)
    monkeypatch.setattr(factor, "ATOM_SAMPLE_BUDGET", 437)
    for z, w in zip(find_in_atoms(f, labels, seeds), alone):
        assert np.array_equal(z, w)
    # each of the four runs installs every label's stream, in two generators that never grow more
    assert len(installed) == 4 * len(batch) and len(alive) == 4 * 2 and max(alive) == 2 and max(rows) <= 128


def test_find_in_atoms_argument_checks(basis9):
    f = QuadraticFactor(basis9, np.eye(2, 9, dtype=np.int64), (1, 2))
    assert find_in_atoms(f, [], []) == []
    with pytest.raises(ValueError, match="one seed per label"):
        find_in_atoms(f, [(0, 0, 0, 0)], [1, 2])
    with pytest.raises(ValueError, match="label length mismatch"):
        find_in_atoms(f, [(0, 0, 0)], [1])


def test_atom_census_trivial_factors(basis9):
    b3 = build_trace_basis(ctx3, 3)
    assert list(atom_census(QuadraticFactor(b3, np.zeros((0, 3), dtype=np.int64), ())).values()) == [27]
    census = atom_census(QuadraticFactor(b3, np.eye(1, 3, dtype=np.int64), ()))
    assert sorted(census.values()) == [9, 9, 9]


def test_atom_census_bound_sweep(basis9):
    # every (l, q) combination with l, q <= 2 over the same basis
    for l in range(3):
        for q in range(3):
            f = QuadraticFactor(basis9, np.eye(l, 9, dtype=np.int64), tuple(range(1, q + 1)))
            census = atom_census(f)
            assert len(census) == 3 ** (l + q)
            if l + q * 2 < 9:
                assert min(census.values()) > 0


def test_atom_census_rejects_label_space_over_cap():
    # p**n = 3**14 is within the census cap, but a counts array of 3**28 labels would need 166 TiB
    b = build_trace_basis(ctx3, 14)
    f = QuadraticFactor(b, np.eye(14, 14, dtype=np.int64), tuple(range(1, 15)))
    with pytest.raises(ValueError, match=r"too many atom labels for an exhaustive census \(p\*\*D = 3\*\*28 > 1,000,000\)"):
        atom_census(f)


def test_atom_census_refuses_the_first_label_count_over_the_cap_before_counting(monkeypatch):
    # 3**12 = 531,441 labels are within CENSUS_MAX_LABELS = 10**6 and 3**13 = 1,594,323 are not; the
    # refusal comes before any point of the group is enumerated or evaluated
    assert 3 ** 12 <= factor.CENSUS_MAX_LABELS < 3 ** 13
    b = build_trace_basis(ctx3, 13)
    f = QuadraticFactor(b, np.eye(13, 13, dtype=np.int64), ())

    def no_work(*args, **kwargs):
        raise AssertionError("the census started counting")

    monkeypatch.setattr(factor, "iter_group_chunks", no_work)
    monkeypatch.setattr(factor, "quad_forms", no_work)
    with pytest.raises(ValueError, match=r"\(p\*\*D = 3\*\*13 > 1,000,000\)"):
        atom_census(f)


def test_atom_census_single_quadratic_level_sets(basis9):
    f = QuadraticFactor(basis9, np.zeros((0, 9), dtype=np.int64), (1,))
    census = atom_census(f)
    assert len(census) == 3
    assert sum(census.values()) == 3 ** 9
    for size in census.values():
        assert (size - 3 ** 8) ** 2 <= 3 ** 9


# ---------------------------------------------------------------------------
# Target tables.
# ---------------------------------------------------------------------------


def _tables_equal_the_scalar_reference(k, p):
    """The array table on every map equals the scalar reference row for row, and predicts the map."""
    table = target_table(np.arange(1 << (k * k)), k, p)
    for idx, rows in enumerate(table.tolist()):
        phi = ContainmentMap.from_index(k - 1, idx)
        tv = targets_reference.target_values(phi, p)
        assert rows == [list(tv.q), *map(list, tv.a), *map(list, tv.b)]
        assert targets_reference.predicted_grid(tv, p) == phi


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_k2_tables_cover_all_maps(p):
    _tables_equal_the_scalar_reference(2, p)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_k3_tables_cover_all_maps(p):
    _tables_equal_the_scalar_reference(3, p)


def test_target_table_takes_indices_in_any_order():
    idx = [511, 0, 77, 77, 300]
    assert np.array_equal(target_table(idx, 3, 5), target_table(np.arange(512), 3, 5)[idx])
    assert target_table([], 3, 5).shape == (0, 5, 3)


@functools.cache
def _full_target_table(k, p):
    return target_table(np.arange(1 << (k * k)), k, p)


@given(k=st.sampled_from([2, 3]), p=st.sampled_from([3, 5, 7, 13]), raw=st.lists(st.integers(0, 511), max_size=60))
@example(k=3, p=5, raw=[])
@example(k=2, p=3, raw=[15, 0, 15, 7, 7, 0])
@example(k=3, p=13, raw=[511, 510, 0, 511, 300, 1, 300])
@settings(max_examples=40, deadline=None)
def test_target_table_on_any_index_list_matches_the_full_table(k, p, raw):
    # each case sees only the maps of the list that no earlier case matched, so which maps
    # reach a case depends on the list; a map's case and symmetry must not
    idx = [i % (1 << (k * k)) for i in raw]
    assert np.array_equal(target_table(idx, k, p), _full_target_table(k, p)[idx])


def test_predicted_grid_rejects_an_all_zero_cell():
    tv = targets_reference.TargetValues(2, (0, 1), ((0, 2),), ((0, 2),))  # a + b - q = (0, 3) at the interior cell
    with pytest.raises(ValueError, match=r"cell \(1,1\) has an all-zero value prefix"):
        targets_reference.predicted_grid(tv, 3)
    _, defined = _predicted_cells(np.array([[tv.q, *tv.a, *tv.b]]), 3)
    assert defined[0].tolist() == [[True, True], [True, False]]


def test_target_values_reject_partial_maps(basis13):
    partial = ContainmentMap(1, ((True, None), (False, True)))
    with pytest.raises(ValueError, match="partial map has no index"):
        realize_map(construct_shatter_pair(basis13, 2, seed=0), partial, seed=0)


@pytest.mark.parametrize("k,idx", [(0, 1), (3, 0)])
def test_target_tables_name_the_supported_grid_sizes(k, idx):
    with pytest.raises(ValueError, match="only the 2 x 2 and 3 x 3 grids are supported"):
        target_table([idx], k + 1, 3)


@pytest.mark.parametrize("idx", [-1, 16, 1 << 40])
def test_target_table_rejects_indices_out_of_range(idx):
    with pytest.raises(ValueError, match=r"map index outside \[0, 16\)"):
        target_table([0, idx], 2, 3)


def test_a_corrupted_case_table_raises_before_any_search(basis13, monkeypatch):
    import vc2lab.factor as factor

    case = factor._CASES[2][0]

    def corrupted(g, p):
        # map 5's value rows are moved one step, so its predicted grid is no longer map 5
        mask, vals = case(g, p)
        five = (g.reshape(4, -1).T == np.ravel(ContainmentMap.from_index(1, 5).verdicts)).all(axis=1)
        return mask, vals + five[:, None, None]

    def no_search(*args, **kwargs):
        raise AssertionError("find_in_atoms ran on a corrupted table")

    c = construct_shatter_pair(basis13, 2, seed=0)
    monkeypatch.setattr(factor, "_CASES", {**factor._CASES, 2: (corrupted,)})
    monkeypatch.setattr(factor, "find_in_atoms", no_search)
    with pytest.raises(RuntimeError, match="case table bug: predicted grid mismatch at map index 5"):
        realize_maps(c, np.arange(16), seed=0)
    with pytest.raises(RuntimeError, match="case table bug"):
        target_table([5], 2, 3)
    # a case that matches no map leaves every map unmatched
    monkeypatch.setattr(factor, "_CASES", {**factor._CASES, 2: (lambda g, p: (np.zeros(g.shape[2], bool), case(g, p)[1]),)})
    with pytest.raises(RuntimeError, match="no case matched map index 0"):
        realize_maps(c, np.arange(16), seed=0)
    # on the 3 x 3 grid, one k=3 case with every value moved one step
    cases = list(factor._CASES[3])
    cases[4] = lambda g, p: (lambda mask, vals: (mask, vals + 1))(*factor._case_33(g, p))
    monkeypatch.setattr(factor, "_CASES", {**factor._CASES, 3: tuple(cases)})
    with pytest.raises(RuntimeError, match="case table bug: predicted grid mismatch"):
        target_table(np.arange(512), 3, 5)


# ---------------------------------------------------------------------------
# Construction and realization.
# ---------------------------------------------------------------------------


def test_construct_pair_k2_invariants(basis13):
    c = construct_shatter_pair(basis13, 2, seed=0)
    assert len(c.X) == 2 and len(c.Y) == 2
    assert not c.X[0].any() and not c.Y[0].any()
    assert not (c.X.flags.writeable or c.Y.flags.writeable or c.factor.linear_polys.flags.writeable)
    assert len(c.factor.linear_polys) == 4
    assert c.factor.complexity == 6
    assert not cross_terms(c.X[1:2], c.Y[1:2], basis13.mats[:2], 3).any()


def test_construct_pair_deterministic(basis13):
    c1 = construct_shatter_pair(basis13, 2, seed=42)
    c2 = construct_shatter_pair(basis13, 2, seed=42)
    assert np.array_equal(c1.X, c2.X) and np.array_equal(c1.Y, c2.Y)


def test_construct_pair_size_limits(basis13):
    with pytest.raises(ValueError):
        construct_shatter_pair(basis13, 3, seed=0)  # needs n >= 31
    with pytest.raises(ValueError):
        construct_shatter_pair(basis13, 4, seed=0)


def _all_maps(k):
    return [ContainmentMap.from_index(k - 1, idx) for idx in range(1 << (k * k))]


def test_k2_pipeline_realizes_all_maps(basis13):
    c = construct_shatter_pair(basis13, 2, seed=0)
    a = QgsSet(basis13)
    found = realize_maps(c, np.arange(16), seed=0)
    cert = QuadShatterCertificate(c.X, c.Y, found)
    assert len(cert.witnesses) == 16
    # independent re-check of a few witnesses
    for idx in (0, 7, 15):
        phi = ContainmentMap.from_index(1, idx)
        assert vc2_realizes(a, c.X, c.Y, phi, cert.witnesses[idx])


def _label_for_map(c, phi):
    """The atom label realize_maps searches for phi, computed point by point and form by form."""
    p = c.factor.basis.ctx.p
    q, *targets = target_table([phi.to_index()], c.k, p)[0].tolist()
    a = QgsSet(c.factor.basis)
    lin = [
        (targ[t] - q[t] - a.eval_q(t + 1, u)) % p
        for u, targ in zip(list(c.X[1:]) + list(c.Y[1:]), targets)
        for t in range(c.k)
    ]
    return tuple(lin + q)


@pytest.mark.parametrize("k,n", [(2, 13), (3, 31)])  # k=2: exhaustive branch; k=3: sampled
@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("seed", [0, 1])
def test_realize_maps_equals_per_map_search(k, n, p, seed):
    c = construct_shatter_pair(build_trace_basis(FieldCtx(p), n), k, seed=seed)
    maps = _all_maps(k)
    got = realize_maps(c, np.arange(len(maps)), seed=seed)
    assert len(got) == len(maps)
    for phi, z in zip(maps, got):
        want = find_in_atom(c.factor, _label_for_map(c, phi), seed=derive_seed_for_map(seed, phi.to_index()))
        assert np.array_equal(z, want)


def test_realize_maps_rejects_a_corrupted_target_table(basis13, monkeypatch):
    import vc2lab.factor as factor

    c = construct_shatter_pair(basis13, 2, seed=0)
    honest = factor.target_table
    # map 5 is given map 6's targets, so its atom holds shifts realizing map 6 instead
    monkeypatch.setattr(factor, "target_table",
                        lambda idx, k, p: honest([6 if i == 5 else i for i in idx], k, p))
    with pytest.raises(RuntimeError, match="realization failed verification"):
        realize_maps(c, np.arange(16), seed=0)
    assert len(realize_maps(c, range(5), seed=0)) == 5


def test_realize_maps_rejects_a_grid_size_mismatch(basis13):
    c = construct_shatter_pair(basis13, 2, seed=0)
    assert realize_maps(c, [], seed=0) == []
    with pytest.raises(ValueError, match="grid does not match"):
        realize_map(c, ContainmentMap.from_index(2, 0), seed=0)
    # an index of the 3 x 3 grid is outside the 2 x 2 grid's indices
    with pytest.raises(ValueError, match=r"map index outside \[0, 16\)"):
        realize_maps(c, [0, 16], seed=0)


def test_realize_map_deterministic(basis13):
    c = construct_shatter_pair(basis13, 2, seed=1)
    phi = ContainmentMap.from_index(1, 9)
    assert np.array_equal(realize_map(c, phi, seed=5), realize_map(c, phi, seed=5))


# ---------------------------------------------------------------------------
# Forced-zero checks.
# ---------------------------------------------------------------------------


def test_zero_forcing_map_shape():
    phi = zero_forcing_map()
    comp = {(0, 1), (0, 2), (1, 0), (2, 0), (2, 3), (3, 2)}
    assert phi.verdicts[0][0] is None
    for i in range(4):
        for j in range(4):
            if (i, j) == (0, 0):
                continue
            assert phi.verdicts[i][j] == ((i, j) not in comp)
    assert not phi.is_total()


def test_forced_zero_probe_mixed_outcomes(basis5):
    results = forced_zero_probe(basis5, instances=8, seed=1)
    assert all(r.ok for r in results)
    assert any(r.vacuous for r in results)
    assert any(not r.vacuous for r in results)


@pytest.mark.parametrize("instances", [0, -1])
def test_forced_zero_probe_rejects_empty_runs(basis5, instances):
    # a run of no instance checks nothing and must not report a pass
    with pytest.raises(ValueError, match="instances must be at least 1"):
        forced_zero_probe(basis5, instances=instances)


def test_planted_instances_admit_realizers(basis5):
    got = planted_qualifying_sets(basis5, seed=3)
    assert got is not None
    x, y = got
    # level-1 cross-terms vanish on the whole grid
    assert not cross_terms(x, y, basis5.mats[:1], 3).any()


def _planted_qualifying_sets_reference(basis, seed=0):
    """The planted search as one mat_rank call and a full-group digit-sum pass per translate."""
    a = QgsSet(basis)
    p, n = basis.ctx.p, basis.n
    total = p ** n
    rng = derive_rng(seed, "planted-instance", 2, 1)
    table = a.membership_table()
    digits = ranks_to_digits(np.arange(total, dtype=np.int64), p, n)
    zero_q = (quad_forms(digits, basis.mats[:1], p) == 0).all(axis=1)
    phi = zero_forcing_map().verdicts

    # the verdicts of columns 1..3 of phi, column j in row j - 1
    col_want = np.array([[row[j] for row in phi] for j in (1, 2, 3)], dtype=bool)

    def rank_of(vec: np.ndarray) -> np.ndarray:
        return digits_to_ranks(vec % p, p)

    for _ in range(256):
        # x_1, x_2 independent; x_3 a further nonzero combination of them
        x12 = _nonzero_rows(rng, 2, n, p)
        if mat_rank(x12, p) != 2:
            continue
        c1, c2 = int(rng.integers(0, p)), int(rng.integers(0, p))
        x3 = (c1 * x12[0] + c2 * x12[1]) % p
        if not x3.any() or (x12 == x3).all(axis=1).any():
            continue
        x_ranks = rank_of(np.vstack([x12, x3]))

        # feasibility of each shift z (forced zeros at z and x_i + z, row verdicts), before the y-side subspace
        z_ok = zero_q.copy()
        for i, xr in enumerate(x_ranks, start=1):
            shifted = rank_of(digits + digits[xr])
            z_ok &= zero_q[shifted] & (table[shifted] == phi[i][0])
        order = np.flatnonzero(z_ok)
        if order.size == 0:
            continue
        space = orth_complement(matmul_mod(x12, basis.mats[:1], p).reshape(-1, n), p)
        if not len(space):
            continue
        sub = matmul_mod(ranks_to_digits(np.arange(p ** len(space), dtype=np.int64), p, len(space)), space, p)
        sub_r = rank_of(sub)
        order = order[rng.permutation(order.size)]
        for z_r in order[:64]:
            z_d = digits[z_r]
            # row i: ranks of x_i + s + z over the subspace points s, with x_0 = 0
            at = np.stack([rank_of(sub + z_d), *(rank_of(sub + digits[xr] + z_d) for xr in x_ranks)])
            free = zero_q[at[0]] & (sub_r != 0)
            pools = [np.flatnonzero(free & (table[at] == want[:, None]).all(axis=0)) for want in col_want]
            if any(pool.size == 0 for pool in pools):
                continue
            ys: list[int] = []
            for pool in pools:
                pick = [int(sub_r[s]) for s in pool if int(sub_r[s]) not in ys]
                if not pick:
                    ys = []
                    break
                ys.append(pick[int(rng.integers(0, len(pick)))])
            if len(ys) != 3:
                continue
            # rank 0 is the origin
            x, y = digits[[0, *x_ranks]], digits[[0, *ys]]
            if cross_terms_vanish_below(a, x, y, 2):
                return x, y
    return None


# only p = 3 with n >= 5 yields instances at these sizes; the rest exercise the search up to None.
# (3,4) and (5,4) run out all 256 tries at every seed, and so does (3,5) at seed 9.
PLANTED_SEEDS = {
    (3, 5): [*range(8), 9], (3, 6): range(8), (5, 3): range(8), (7, 3): range(8),
    (3, 4): range(12), (5, 4): range(12), (3, 7): range(12),
}


@pytest.mark.parametrize("p,n", list(PLANTED_SEEDS))
def test_planted_qualifying_sets_match_reference(p, n):
    basis = build_trace_basis(FieldCtx(p), n)
    found = set()
    for seed in PLANTED_SEEDS[(p, n)]:
        got = planted_qualifying_sets(basis, seed=seed)
        want = _planted_qualifying_sets_reference(basis, seed=seed)
        if want is None:
            assert got is None
        else:
            found.add(seed)
            assert got is not None
            assert all(g.dtype == w.dtype and np.array_equal(g, w) for g, w in zip(got, want))
    if (p, n) == (3, 5):
        assert 9 not in found and len(found) == 8


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 101])
def test_integer_draws_do_not_depend_on_their_split(p):
    # the planted search reads its tries ahead in one block and then advances the stream by
    # the values it used; that keeps its instances only while rng.integers(0, p) gives the
    # same values, and leaves the same state, however the draws are split into calls
    rnd = random.Random(p)
    for seed in range(20):
        sizes = [rnd.choice([None, rnd.randint(1, 50)]) for _ in range(rnd.randint(1, 30))]
        split = derive_rng(seed, "split", p)
        parts = [np.atleast_1d(split.integers(0, p, size=k)) for k in sizes]
        whole = derive_rng(seed, "split", p)
        block = whole.integers(0, p, size=sum(1 if k is None else k for k in sizes))
        assert np.array_equal(np.concatenate(parts), block)
        assert split.bit_generator.state == whole.bit_generator.state


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 101, 65537, 2 ** 31 - 1, 3_000_000_019])
def test_32_bit_draws_match_int64_draws(p):
    # find_in_atoms draws its candidate rows as uint32, for every p a basis admits (below 2^8,
    # far below 2^32), and random_colouring its colours as int32; each keeps its stream only while
    # integers(low, low + p) in these dtypes gives the int64 values and leaves the same state,
    # with calls of all the dtypes mixed in one stream
    rnd = random.Random(p)
    dtypes = [np.uint32, np.int64] + [np.int32] * (p < 1 << 31)
    for seed in range(20):
        mixed, wide = derive_rng(seed, "int32", p), derive_rng(seed, "int32", p)
        for _ in range(rnd.randint(1, 30)):
            dtype, low = rnd.choice(dtypes), rnd.choice([0, 1])
            size = rnd.choice([None, rnd.randint(1, 50), (rnd.randint(1, 8), rnd.randint(1, 19))])
            got = mixed.integers(low, low + p, size=size, dtype=dtype)
            assert np.asarray(got).dtype == dtype
            assert np.array_equal(got, wide.integers(low, low + p, size=size))
        assert mixed.bit_generator.state == wide.bit_generator.state


def _forced_zero_conclusions_reference(a, x, y, m, z):
    """check_forced_zeros past its hypothesis checks, one eval_q call per point and level."""
    def conclusion_holds(t):
        if a.eval_q(t, z) != 0:
            return f"Q_{t}(z) = {a.eval_q(t, z)} != 0"
        for i in range(1, 4):
            if a.eval_q(t, (x[i] + z) % a.p) != 0:
                return f"Q_{t}(x_{i}+z) != 0"
            if a.eval_q(t, (y[i] + z) % a.p) != 0:
                return f"Q_{t}(y_{i}+z) != 0"
        return None

    for t in range(1, m):
        bad = conclusion_holds(t)
        if bad:
            return CheckResult(False, f"forced zero violated below m: {bad}")
    mu = set(cross_terms(x[1:], y[1:], a.basis.mats[m - 1:m], a.p).ravel().tolist())
    if len(mu) == 1:
        val = next(iter(mu))
        if val != 0:
            return CheckResult(False, f"constant level-{m} cross-term is {val}, not 0")
        bad = conclusion_holds(m)
        if bad:
            return CheckResult(False, f"forced zero violated at m: {bad}")
        return CheckResult(True, "conclusions hold; level-m cross-terms constant and zero")
    return CheckResult(True, "conclusions hold below m; level-m cross-terms not constant")


@pytest.mark.parametrize("p,n", [(3, 3), (3, 4), (5, 3), (7, 2)])
def test_check_forced_zeros_reports_the_first_failure_of_the_scalar_checks(monkeypatch, p, n):
    # with both hypothesis checks passed by fiat, arbitrary points fail the conclusions at every
    # point and level, and the one quad_forms call must name the failure the scalar loop names
    monkeypatch.setattr(factor, "cross_terms_vanish_below", lambda *args: True)
    monkeypatch.setattr(factor, "vc2_realizes", lambda *args: True)
    a = QgsSet(build_trace_basis(FieldCtx(p), n))
    rng = np.random.default_rng(p * 100 + n)
    details = set()
    for _ in range(300):
        x, y = (np.vstack([np.zeros((1, n), dtype=np.int64), rng.integers(0, p, size=(3, n))]) for _ in "xy")
        z, m = rng.integers(0, p, size=n), int(rng.integers(1, n + 1))
        # zero points and repeated y's make level-m cross-terms constant and Q-values zero, so the
        # level-m conclusions and both passes are reached too
        x[1:] *= rng.random() < 0.8
        y[1:] = y[1] * (rng.random() < 0.5) if rng.random() < 0.7 else y[1:]
        z *= rng.random() < 0.7
        got = check_forced_zeros(a, x, y, m, z)
        assert got == _forced_zero_conclusions_reference(a, x, y, m, z)
        details.add(got.detail.split(" != ")[0].split(" = ")[0])
    assert len(details) >= 9


def test_check_forced_zeros_inapplicable_without_hypothesis(basis5):
    a = QgsSet(basis5)
    x, y = random_zero_cross_term_sets(basis5, 1, seed=0)
    z = np.zeros(5, dtype=np.int64)
    grid_ok = vc2_realizes(a, x, y, zero_forcing_map(), z)
    if not grid_ok:
        with pytest.raises(ValueError):
            check_forced_zeros(a, x, y, 1, z)


def test_products_exact_at_large_p():
    # 251, the largest p a basis takes, on a made-up basis of extreme entries
    p, n = 251, 4
    ctx = FieldCtx(p)
    rnd = random.Random(0)
    poly = None
    while poly is None:
        coeffs = tuple(rnd.randrange(p) for _ in range(n)) + (1,)
        poly = IrreduciblePoly(ctx, coeffs) if _is_irreducible(coeffs, p) else None
    entries = lambda: rnd.choice((0, 1, p - 1, rnd.randrange(p)))
    mats = []
    for _ in range(n):
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = entries()
        mats.append(m)
    basis = HighRankBasis(ctx, n, poly, np.array(mats, dtype=np.int64))

    def mat_vec(m, v):
        return [sum(m[i][j] * v[j] for j in range(n)) % p for i in range(n)]

    pts = [[entries() for _ in range(n)] for _ in range(4)]
    got = matmul_mod(np.array(pts, dtype=np.int64), basis.mats, p)
    assert got.tolist() == [[mat_vec(m, v) for v in pts] for m in mats]

    xs, ys = np.array(pts[:2], dtype=np.int64), np.array(pts[2:], dtype=np.int64)
    lin = _construction_linear_polys(basis, 2, xs, ys)
    assert lin.tolist() == [[2 * c % p for c in mat_vec(m, v)] for v in pts for m in mats[:2]]

    def cross(t, x, y):
        return 2 * sum(x[i] * mats[t][i][j] * y[j] for i in range(n) for j in range(n)) % p

    a = QgsSet(basis)
    x, y = random_zero_cross_term_sets(basis, 2, seed=0)
    x_list, y_list = x.tolist(), y.tolist()
    assert all(cross(0, u, v) == 0 for u in x_list for v in y_list)
    for m in (2, 3, 4):
        want = all(cross(t, u, v) == 0 for t in range(m - 1) for u in x_list for v in y_list)
        assert cross_terms_vanish_below(a, x, y, m) == want
    # points with nonzero level-1 cross-terms
    assert cross_terms_vanish_below(a, pts[:2], pts[2:], 2) == all(
        cross(0, u, v) == 0 for u in pts[:2] for v in pts[2:])
