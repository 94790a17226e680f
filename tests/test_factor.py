import random

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
from vc2lab.gs import QgsSet
from vc2lab.highrank import HighRankBasis, IrreduciblePoly, _is_irreducible, _nonzero_rows, build_trace_basis
from vc2lab.shatter import ContainmentMap, QuadShatterCertificate, vc2_realizes
from vc2lab.factor import (
    ATOM_EXHAUST_LIMIT,
    AtomLabel,
    QuadraticFactor,
    atom_census,
    atom_label,
    check_cross_term_range,
    _construction_linear_polys,
    check_forced_zeros,
    construct_shatter_pair,
    cross_terms_vanish_below,
    derive_seed_for_map,
    find_in_atom,
    find_in_atoms,
    forced_zero_probe,
    planted_qualifying_sets,
    predicted_grid,
    random_zero_cross_term_sets,
    realize_map,
    realize_maps,
    target_values_for_map,
    zero_forcing_map,
)

ctx3 = FieldCtx(3)
ctx5 = FieldCtx(5)


@pytest.fixture(scope="module")
def basis9():
    return build_trace_basis(ctx3, 9)


@pytest.fixture(scope="module")
def basis13():
    return build_trace_basis(ctx3, 13)


@pytest.fixture(scope="module")
def basis5():
    return build_trace_basis(ctx3, 5)


def test_factor_rejects_dependent_linears():
    with pytest.raises(ValueError):
        QuadraticFactor(ctx3, [(1, 1, 0), (2, 2, 0)], ())
    with pytest.raises(ValueError):
        QuadraticFactor(ctx3, np.zeros((0, 3), dtype=np.int64), (1, 1))


def test_atom_label_examples(basis9):
    f = QuadraticFactor(ctx3, np.eye(1, 9, dtype=np.int64), (1,))
    zero = np.zeros(9, dtype=np.int64)
    assert atom_label(f, basis9, zero).values == (0, 0)
    x = (2,) + (0,) * 8
    assert atom_label(f, basis9, x).values[0] == 2


def test_find_in_atom_round_trip(basis9):
    f = QuadraticFactor(ctx3, np.eye(2, 9, dtype=np.int64), (1, 2))
    for rank in range(0, 81, 5):
        vals = []
        r = rank
        for _ in range(4):
            vals.append(r % 3)
            r //= 3
        label = AtomLabel(tuple(vals))
        x = find_in_atom(f, basis9, label, seed=rank)
        assert atom_label(f, basis9, x) == label


def test_find_in_atom_rejects_high_complexity(basis5):
    f = QuadraticFactor(ctx3, np.eye(2, 5, dtype=np.int64), (1,))
    # complexity 3 >= 5/2: not guaranteed non-empty
    with pytest.raises(ValueError):
        find_in_atom(f, basis5, AtomLabel((0, 0, 0)))


def _find_in_atom_full_scan(f, basis, label, seed):
    """find_in_atom's search in full coordinates: build every candidate point, test its Q-values.

    The sampled branch draws in batches of 2048 rows, then 8 times more per
    batch up to 2^17, a schedule unlike find_in_atom's; the two agree because
    the generator yields the same rows however the draws are split.
    """
    p, n = basis.ctx.p, basis.n
    l = len(f.linear_polys)
    if l:
        part, nb = solve_affine(f.linear_polys, np.array(label.values[:l], dtype=np.int64), p)
    else:
        part, nb = np.zeros(n, dtype=np.int64), np.eye(n, dtype=np.int64)
    mats = [basis.mats[t - 1].tolist() for t in f.quad_indices]
    target = list(label.values[l:])

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
    f = QuadraticFactor(ctx, lin, tuple(int(t) for t in rng.choice(np.arange(1, n + 1), q, replace=False)))
    label = AtomLabel(tuple(int(v) for v in rng.integers(0, p, l + q)))
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
    z = find_in_atom(f, basis, label, seed=seed)
    assert atom_label(f, basis, z) == label
    assert np.array_equal(z, _find_in_atom_full_scan(f, basis, label, seed))
    batch = [(label.values, seed)] + _extra_labels(p, l, q, seed, extra)
    zs = find_in_atoms(f, basis, [vals for vals, _ in batch], [s for _, s in batch])
    assert len(zs) == len(batch) and np.array_equal(zs[0], z)
    for z, (vals, s) in zip(zs[1:], batch[1:]):
        assert np.array_equal(z, _find_in_atom_full_scan(f, basis, AtomLabel(vals), s))


def test_find_in_atom_budget_counts_draws(monkeypatch):
    # sampled branch whose first hit is draw 436 (0-based), alone and in a batch with
    # labels whose first hits are draws 216, 10, 62 and 11
    import vc2lab.factor as factor

    f, basis, label = _random_factor(5, 13, 3, 3, 7)
    batch = [(label.values, 7)] + _extra_labels(5, 3, 3, 7, 4)
    labels, seeds = [vals for vals, _ in batch], [s for _, s in batch]
    want = find_in_atom(f, basis, label, seed=7)
    wants = [find_in_atom(f, basis, AtomLabel(vals), seed=s) for vals, s in zip(labels, seeds)]
    for budget in (0, 1, 64, 100, 436):
        monkeypatch.setattr(factor, "ATOM_SAMPLE_BUDGET", budget)
        with pytest.raises(RuntimeError, match=rf"^sampling budget exhausted after {budget} draws$"):
            find_in_atom(f, basis, label, seed=7)
        with pytest.raises(RuntimeError, match=rf"^sampling budget exhausted after {budget} draws$"):
            find_in_atoms(f, basis, labels, seeds)
    monkeypatch.setattr(factor, "ATOM_SAMPLE_BUDGET", 437)
    assert np.array_equal(find_in_atom(f, basis, label, seed=7), want)
    for z, w in zip(find_in_atoms(f, basis, labels, seeds), wants):
        assert np.array_equal(z, w)


def test_find_in_atoms_argument_checks(basis9):
    f = QuadraticFactor(ctx3, np.eye(2, 9, dtype=np.int64), (1, 2))
    assert find_in_atoms(f, basis9, [], []) == []
    with pytest.raises(ValueError, match="one seed per label"):
        find_in_atoms(f, basis9, [(0, 0, 0, 0)], [1, 2])
    with pytest.raises(ValueError, match="label length mismatch"):
        find_in_atoms(f, basis9, [(0, 0, 0)], [1])


def test_atom_census_trivial_factors(basis9):
    b3 = build_trace_basis(ctx3, 3)
    assert list(atom_census(QuadraticFactor(ctx3, np.zeros((0, 3), dtype=np.int64), ()), b3).values()) == [27]
    census = atom_census(QuadraticFactor(ctx3, np.eye(1, 3, dtype=np.int64), ()), b3)
    assert sorted(census.values()) == [9, 9, 9]


def test_atom_census_bound_sweep(basis9):
    # every (l, q) combination with l, q <= 2 over the same basis
    for l in range(3):
        for q in range(3):
            f = QuadraticFactor(ctx3, np.eye(l, 9, dtype=np.int64), tuple(range(1, q + 1)))
            census = atom_census(f, basis9)
            assert len(census) == 3 ** (l + q)
            if l + q * 2 < 9:
                assert min(census.values()) > 0


def test_atom_census_rejects_label_space_over_cap():
    # p**n = 3**14 is within the census cap, but a counts array of 3**28 labels would need 166 TiB
    b = build_trace_basis(ctx3, 14)
    f = QuadraticFactor(ctx3, np.eye(14, 14, dtype=np.int64), tuple(range(1, 15)))
    with pytest.raises(ValueError, match="too many atom labels"):
        atom_census(f, b)


def test_atom_census_single_quadratic_level_sets(basis9):
    f = QuadraticFactor(ctx3, np.zeros((0, 9), dtype=np.int64), (1,))
    census = atom_census(f, basis9)
    assert len(census) == 3
    assert sum(census.values()) == 3 ** 9
    for size in census.values():
        assert (size - 3 ** 8) ** 2 <= 3 ** 9


# ---------------------------------------------------------------------------
# Target tables.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [3, 5, 7])
def test_k2_tables_cover_all_maps(p):
    for idx in range(16):
        phi = ContainmentMap.from_index(1, idx)
        tv = target_values_for_map(phi, p)
        assert predicted_grid(tv, p).verdicts == phi.verdicts


@pytest.mark.parametrize("p", [3, 5, 7])
def test_k3_tables_cover_all_maps(p):
    for idx in range(512):
        phi = ContainmentMap.from_index(2, idx)
        tv = target_values_for_map(phi, p)
        assert predicted_grid(tv, p).verdicts == phi.verdicts


def test_target_values_reject_partial_maps():
    with pytest.raises(ValueError):
        target_values_for_map(zero_forcing_map(), 3)


# ---------------------------------------------------------------------------
# Construction and realization.
# ---------------------------------------------------------------------------


def test_construct_pair_k2_invariants(basis13):
    c = construct_shatter_pair(basis13, 2, seed=0)
    assert len(c.X) == 2 and len(c.Y) == 2
    assert not c.X[0].any() and not c.Y[0].any()
    assert not (c.X.flags.writeable or c.h_star.flags.writeable or c.factor.linear_polys.flags.writeable)
    assert len(c.factor.linear_polys) == 4
    assert c.factor.complexity == 6
    a = QgsSet(basis13)
    for t in (1, 2):
        assert a.cross_term(t, c.X[1], c.Y[1]) == 0


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
    found = realize_maps(c, _all_maps(2), seed=0)
    cert = QuadShatterCertificate(c.X, c.Y, found)
    assert len(cert.witnesses) == 16
    # independent re-check of a few witnesses
    for idx in (0, 7, 15):
        phi = ContainmentMap.from_index(1, idx)
        assert vc2_realizes(a, c.X, c.Y, phi, cert.witnesses[idx])


def _label_for_map(c, phi):
    """The atom label realize_maps searches for phi, computed point by point and form by form."""
    p = c.basis.ctx.p
    tv = target_values_for_map(phi, p)
    a = QgsSet(c.basis)
    lin = [
        (targ[t] - tv.q[t] - a.eval_q(t + 1, u)) % p
        for u, targ in zip(list(c.X[1:]) + list(c.Y[1:]), list(tv.a) + list(tv.b))
        for t in range(c.k)
    ]
    return AtomLabel(tuple(lin) + tv.q)


@pytest.mark.parametrize("k,n", [(2, 13), (3, 31)])  # k=2: exhaustive branch; k=3: sampled
@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("seed", [0, 1])
def test_realize_maps_equals_per_map_search(k, n, p, seed):
    c = construct_shatter_pair(build_trace_basis(FieldCtx(p), n), k, seed=seed)
    maps = _all_maps(k)
    got = realize_maps(c, maps, seed=seed)
    assert len(got) == len(maps)
    for phi, z in zip(maps, got):
        want = find_in_atom(c.factor, c.basis, _label_for_map(c, phi), seed=derive_seed_for_map(seed, phi))
        assert np.array_equal(z, want)


def test_realize_maps_rejects_a_corrupted_target_table(basis13, monkeypatch):
    import vc2lab.factor as factor

    c = construct_shatter_pair(basis13, 2, seed=0)
    honest = factor.target_values_for_map
    # map 5 is given map 6's targets, so its atom holds shifts realizing map 6 instead
    monkeypatch.setattr(factor, "target_values_for_map",
                        lambda phi, p: honest(ContainmentMap.from_index(1, 6) if phi.to_index() == 5 else phi, p))
    with pytest.raises(RuntimeError, match="realization failed verification"):
        realize_maps(c, _all_maps(2), seed=0)
    assert len(realize_maps(c, _all_maps(2)[:5], seed=0)) == 5


def test_realize_maps_rejects_a_grid_size_mismatch(basis13):
    c = construct_shatter_pair(basis13, 2, seed=0)
    assert realize_maps(c, [], seed=0) == []
    with pytest.raises(ValueError, match="grid does not match"):
        realize_maps(c, [ContainmentMap.from_index(2, 0)], seed=0)


def test_realize_map_deterministic(basis13):
    c = construct_shatter_pair(basis13, 2, seed=1)
    phi = ContainmentMap.from_index(1, 9)
    assert np.array_equal(realize_map(c, phi, seed=5), realize_map(c, phi, seed=5))


def test_construction_doc_round_trip(basis13):
    from vc2lab.factor import construction_doc, construction_from_doc
    from vc2lab import certs

    c = construct_shatter_pair(basis13, 2, seed=3)
    doc = certs.loads(certs.dumps(construction_doc(c)))
    back = construction_from_doc(doc)
    assert np.array_equal(back.X, c.X) and np.array_equal(back.Y, c.Y)
    assert back.factor.ctx == c.factor.ctx and back.factor.quad_indices == c.factor.quad_indices
    assert np.array_equal(back.factor.linear_polys, c.factor.linear_polys)
    # the reloaded construction still drives realization
    phi = ContainmentMap.from_index(1, 11)
    a = QgsSet(basis13)
    assert vc2_realizes(a, back.X, back.Y, phi, realize_map(back, phi, seed=0))
    # tampering with a point breaks the invariant verification
    doc["Y"][1][0] = (doc["Y"][1][0] + 1) % 3
    with pytest.raises(ValueError):
        construction_from_doc(doc)


@pytest.mark.parametrize("edit,message", [
    (lambda d: d["X"][0].__setitem__(0, 1), "origin"),
    (lambda d: d["Y"][0].__setitem__(3, 2), "origin"),
    (lambda d: d["X"].pop(), "k = 2 points"),
    (lambda d: d["Y"].append([0] * 13), "k = 2 points"),
    (lambda d: d["factor"]["linear"].reverse(), "linear forms"),
    (lambda d: d["factor"]["linear"][2].__setitem__(0, (d["factor"]["linear"][2][0] + 1) % 3), "linear forms"),
    (lambda d: d["factor"].__setitem__("quad", [2, 1]), "quadratic indices"),
    (lambda d: d["factor"].__setitem__("quad", [1]), "quadratic indices"),
    (lambda d: d.__setitem__("k", 4), "k must be 2 or 3"),
], ids=["x0", "y0", "short-X", "long-Y", "reordered-linear", "edited-linear", "quad-order", "quad-short", "k"])
def test_construction_from_doc_rejects(basis13, edit, message):
    from vc2lab.factor import construction_doc, construction_from_doc
    from vc2lab import certs

    doc = certs.loads(certs.dumps(construction_doc(construct_shatter_pair(basis13, 2, seed=3))))
    construction_from_doc(doc)
    edit(doc)
    with pytest.raises(ValueError, match=message):
        construction_from_doc(doc)


# ---------------------------------------------------------------------------
# Forced-zero checks and the cross-term range.
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
    a = QgsSet(basis5)
    got = planted_qualifying_sets(basis5, seed=3)
    assert got is not None
    x, y = got
    # level-1 cross-terms vanish on the whole grid
    for xi in x:
        for yj in y:
            assert a.cross_term(1, xi, yj) == 0


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


# only p = 3 with n >= 5 yields instances at these sizes; the rest exercise the search up to None
@pytest.mark.parametrize("p,n", [(3, 5), (3, 6), (5, 3), (7, 3)])
def test_planted_qualifying_sets_match_reference(p, n):
    basis = build_trace_basis(FieldCtx(p), n)
    for seed in range(8):
        got = planted_qualifying_sets(basis, seed=seed)
        want = _planted_qualifying_sets_reference(basis, seed=seed)
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert all(g.dtype == w.dtype and np.array_equal(g, w) for g, w in zip(got, want))


def test_check_forced_zeros_inapplicable_without_hypothesis(basis5):
    a = QgsSet(basis5)
    x, y = random_zero_cross_term_sets(basis5, 1, seed=0)
    z = np.zeros(5, dtype=np.int64)
    grid_ok = vc2_realizes(a, x, y, zero_forcing_map(), z)
    if not grid_ok:
        with pytest.raises(ValueError):
            check_forced_zeros(a, x, y, 1, z)


def test_cross_term_range_p3_vacuous(basis5):
    a = QgsSet(basis5)
    x, y = random_zero_cross_term_sets(basis5, 1, seed=2)
    res = check_cross_term_range(a, x, y, 1)
    assert res.ok  # every residue mod 3 lies in {-2..2}


def test_cross_term_range_p7_detects_outlier():
    basis = build_trace_basis(FieldCtx(7), 3)
    a = QgsSet(basis)
    zero = (0, 0, 0)
    # search a pair with 2 x^T M_1 y outside {-2..2} mod 7, i.e. in {3, 4}
    rng = np.random.default_rng(0)
    found = None
    while found is None:
        x = rng.integers(0, 7, 3)
        y = rng.integers(0, 7, 3)
        if a.cross_term(1, x, y) in (3, 4):
            found = (x, y)
    x, y = found
    res = check_cross_term_range(a, (zero, x), (zero, y), 1)
    assert not res.ok


def test_products_exact_at_large_p():
    # n (p - 1)^2 >= 2^63: a matrix-vector product summed in plain int64 wraps at this p
    p, n = 2 ** 61 - 1, 4
    assert n * (p - 1) ** 2 >= 1 << 63
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
