import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vc2lab.fp import FieldCtx, add_mod, as_points, digits_to_ranks, ranks_to_digits
from vc2lab.gs import ExplicitSet, GsSet, QgsSet
from vc2lab.highrank import build_trace_basis
from vc2lab import shatter
from vc2lab.shatter import (
    ContainmentMap,
    NotShattered,
    QuadShatterCertificate,
    MAX_SET_SIZE,
    ShatterCertificate,
    VcDimResult,
    _pattern_scan,
    _row_index,
    _row_keys,
    _translate_table,
    grid_verdicts,
    realizing_shifts,
    shatters,
    vc2_realizes,
    vc2_shatters,
    vc_dim,
)

ctx3 = FieldCtx(3)
ctx5 = FieldCtx(5)


def explicit(ctx, n, seed, density=0.5):
    rng = np.random.default_rng(seed)
    return ExplicitSet(ctx, n, rng.random(ctx.p ** n) < density)


def check_certificate(a, cert: ShatterCertificate):
    for mask, y in enumerate(cert.witnesses):
        for i, v in enumerate(cert.S):
            assert a.contains(v + y) == bool(mask >> i & 1)


def test_pattern_signature_singleton():
    a = GsSet(ctx3, 2)
    inside = (1, 0)
    outside = (2, 0)
    zero = (0, 0)
    assert pattern_signature(a, [zero], inside) == 1
    assert pattern_signature(a, [zero], outside) == 0


def test_three_point_set_is_shattered():
    a = GsSet(ctx3, 3)
    s = [(0, 0, 0), (0, 1, 2), (0, 2, 1)]
    cert = shatters(a, s)
    assert isinstance(cert, ShatterCertificate)
    check_certificate(a, cert)


def test_pair_with_named_witness_pool():
    a = GsSet(ctx5, 2)
    s = [(0, 0), (0, 1)]
    cert = shatters(a, s)
    assert isinstance(cert, ShatterCertificate)
    pool = [(0, 0), (1, 0), (4, 0), (0, 1)]
    assert {pattern_signature(a, s, y) for y in pool} == {0, 1, 2, 3}


def test_four_point_sets_not_shattered_in_gs34():
    a = GsSet(ctx3, 4)
    rng = np.random.default_rng(2)
    for _ in range(5):
        ranks = rng.choice(3 ** 4 - 1, size=3, replace=False) + 1
        s = ranks_to_digits(np.concatenate([[0], ranks]), 3, 4)
        result = shatters(a, s)
        if isinstance(result, NotShattered):
            assert 0 <= result.missing < 16


@pytest.mark.parametrize("p,n,density", [(3, 2, 0.3), (127, 2, 0.3), (131, 2, 0.3), (3, 10, 0.03)])
def test_pattern_scan_matches_python_int_loop(p, n, density):
    # p = 127 is the widest int8 scan, p = 131 the narrowest int16 one; the sparse set in
    # F_3^10 first meets two patterns in the second and third of the scan's three blocks
    # and never meets the all-in one, so that scan runs to the end
    rng = np.random.default_rng(p + n)
    a = ExplicitSet(FieldCtx(p), n, rng.random(p ** n) < density)
    s = ranks_to_digits(rng.choice(p ** n, size=4, replace=False), p, n)
    points = s.tolist()
    want = [-1] * 16
    for y in range(p ** n):
        y_digits = [y // p ** (n - 1 - i) % p for i in range(n)]
        mask = 0
        for i, point in enumerate(points):
            rank = sum((u + v) % p * p ** (n - 1 - j) for j, (u, v) in enumerate(zip(point, y_digits)))
            mask |= int(a.table[rank]) << i
        if want[mask] < 0:
            want[mask] = y
    assert _pattern_scan(a, s).tolist() == want


@pytest.mark.parametrize("which", ["gs53", "qgs34", "qgs53"])
def test_pattern_scan_of_green_sanders_sets_matches_python_int_loop(which):
    # membership of each sum in Python integers: the first nonzero coordinate (GS), or the first
    # nonzero Q_t by eval_q (QGS), is 1
    a = _VC2_SETS[which]()
    p, n = a.p, a.n

    def member(x):
        values = x if isinstance(a, GsSet) else (a.eval_q(t, x) for t in range(1, n + 1))
        return next((v for v in values if v), 0) == 1

    rng = np.random.default_rng(p * 10 + n)
    s = ranks_to_digits(rng.choice(p ** n, size=4, replace=False), p, n)
    want = [-1] * 16
    for y in range(p ** n):
        y_digits = [y // p ** (n - 1 - i) % p for i in range(n)]
        mask = sum(member([(u + v) % p for u, v in zip(point, y_digits)]) << i for i, point in enumerate(s.tolist()))
        if want[mask] < 0:
            want[mask] = y
    assert _pattern_scan(a, s).tolist() == want


@given(seed=st.integers(0, 2_000))
@settings(max_examples=40, deadline=None)
def test_monotone_under_subsets(seed):
    a = explicit(ctx3, 2, seed)
    rng = np.random.default_rng(seed + 1)
    ranks = rng.choice(9, size=3, replace=False)
    s = ranks_to_digits(ranks, 3, 2)
    if isinstance(shatters(a, s), ShatterCertificate):
        for drop in range(3):
            sub = [v for i, v in enumerate(s) if i != drop]
            assert isinstance(shatters(a, sub), ShatterCertificate)


@given(seed=st.integers(0, 2_000), shift=st.integers(0, 8))
@settings(max_examples=40, deadline=None)
def test_translation_invariance(seed, shift):
    a = explicit(ctx3, 2, seed)
    rng = np.random.default_rng(seed + 7)
    ranks = rng.choice(9, size=2, replace=False)
    s = ranks_to_digits(ranks, 3, 2)
    t = ranks_to_digits([shift], 3, 2)[0]
    res = shatters(a, s)
    moved = shatters(a, s + t)
    assert isinstance(res, ShatterCertificate) == isinstance(moved, ShatterCertificate)
    if isinstance(res, ShatterCertificate):
        # witnesses for the translated set are witnesses of the original shifted by -t
        for mask, y in enumerate(moved.witnesses):
            assert pattern_signature(a, s, y + t) == mask


@pytest.mark.parametrize("p,n", [(3, 2), (5, 1)])
def test_vc_dim_matches_naive_oracle(p, n):
    ctx = FieldCtx(p)
    for seed in range(25):
        a = explicit(ctx, n, seed)
        assert vc_dim(a, k_max=5).dim == vc_dim_naive(a)


def _distinct_count_rows(ext, width):
    """Number of distinct values in each row of ext, whose entries lie in [0, width)."""
    rows = ext.shape[0]
    offsets = (np.arange(rows, dtype=np.int64) * width)[:, None]
    counts = np.bincount((ext + offsets).ravel(), minlength=rows * width)
    return (counts.reshape(rows, width) > 0).sum(axis=1)


def _vc_dim_reference(a, k_max):
    """The full-frontier search: builds every shattered level-set through 0 at each level,
    pruning a candidate v unless every other level-subset through 0 of s + {v} is in the
    frontier, and certifies the first set of the last non-empty level."""
    p, n = a.p, a.n
    total = p ** n
    table = a.membership_table()
    if not table.any() or table.all():
        return VcDimResult(0, None)
    tt = _translate_table(table, p, n)

    def certificate_for(ranks):
        cert = shatters(a, ranks_to_digits(ranks, p, n))
        assert isinstance(cert, ShatterCertificate)
        return cert

    frontier = [((0,), tt[0].astype(np.int16))]
    level = 1
    while level < k_max:
        prev_keys = {frozenset(s) for s, _ in frontier}
        bit = np.int16(1 << level)
        nxt = []
        width = 1 << (level + 1)
        for s, pat in frontier:
            base = frozenset(s)
            cands = []
            for v in range(s[-1] + 1, total):
                if level >= 2 and any(frozenset((base - {e}) | {v}) not in prev_keys for e in s[1:]):
                    continue
                cands.append(v)
            if not cands:
                continue
            cands = np.array(cands, dtype=np.int64)
            ext = pat[None, :] + bit * tt[cands].astype(np.int16)
            full = _distinct_count_rows(ext, width) == width
            for row in np.flatnonzero(full):
                nxt.append((s + (int(cands[row]),), ext[row]))
        if not nxt:
            return VcDimResult(level, certificate_for(frontier[0][0]))
        frontier = nxt
        level += 1
    return VcDimResult(level, certificate_for(frontier[0][0]))


def pattern_signature(a, s, y) -> int:
    """Reference: bitmask with bit i set iff s[i] + y lands in the set."""
    s, y = as_points(s, a.p, a.n), as_points([y], a.p, a.n)
    if len(s) > MAX_SET_SIZE:
        raise ValueError("set too large")
    return int(a.contains_digits(add_mod(s, y, a.p)) @ (1 << np.arange(len(s))))


def vc_dim_naive(a) -> int:
    """Reference oracle: test every subset of the group against every translate.

    Exponential; intended only for tiny groups in cross-checks.
    """
    from itertools import combinations

    p, n = a.p, a.n
    total = p ** n
    if total > 16:
        raise ValueError("naive oracle limited to groups of size <= 16")
    elems = ranks_to_digits(np.arange(total), p, n)
    best = 0
    for k in range(1, total + 1):
        found = False
        for s in combinations(elems, k):
            achieved = set()
            for y in elems:
                achieved.add(pattern_signature(a, s, y))
                if len(achieved) == 1 << k:
                    break
            if len(achieved) == 1 << k:
                found = True
                break
        if not found:
            break
        best = k
    return best


# (_CHUNK_ENTRIES, _FIRST_CHUNK): the module's chunking, one frontier set per chunk, one chunk per level
CHUNKINGS = [(shatter._CHUNK_ENTRIES, shatter._FIRST_CHUNK), (1, 1), (1 << 62, 1 << 62)]


@pytest.mark.parametrize("p,n", [(3, 2), (5, 1), (3, 3), (5, 2), (7, 2)])
def test_vc_dim_matches_full_frontier_reference(monkeypatch, p, n):
    ctx = FieldCtx(p)
    rng = np.random.default_rng(100 * p + n)
    for _ in range(8):
        a = ExplicitSet(ctx, n, rng.random(p ** n) < rng.uniform(0.1, 0.9))
        for k_max in range(1, 6):
            want = _vc_dim_reference(a, k_max)
            for entries, first in CHUNKINGS:
                monkeypatch.setattr(shatter, "_CHUNK_ENTRIES", entries)
                monkeypatch.setattr(shatter, "_FIRST_CHUNK", first)
                got = vc_dim(a, k_max=k_max)
                assert got.dim == want.dim
                if want.certificate is None:
                    assert got.certificate is None
                else:
                    assert np.array_equal(got.certificate.S, want.certificate.S)
                    assert np.array_equal(got.certificate.witnesses, want.certificate.witnesses)


def test_row_index_matches_tuple_dict_beyond_radix_keys():
    # rows of 13 ranks below 6000: a mixed-radix int64 key of such a row wraps (6000**12 > 2**63)
    rng = np.random.default_rng(0)
    rows = np.sort([rng.choice(6000, 13, replace=False) for _ in range(400)], axis=1)
    rows[:50, -1] = 5999
    rows[50:100, 0] = 0
    rows[100:150] = rows[150:200]
    rows[100:150, -1] = np.minimum(rows[100:150, -1] + 1, 5999)
    rows = np.unique(rows, axis=0)
    where = {tuple(r): i for i, r in enumerate(rows.tolist())}
    bumped = rows.copy()
    bumped[np.arange(len(rows)), rng.integers(0, 13, len(rows))] ^= 1
    queries = np.concatenate((rows, bumped, np.zeros((1, 13), dtype=np.int64), np.full((1, 13), 5999)))
    keys = _row_keys(rows)
    got = _row_index(keys, queries)
    assert got.tolist() == [where.get(tuple(q), -1) for q in queries.tolist()]
    assert (got[:len(rows)] == np.arange(len(rows))).all()


def test_vc_dim_gs_values():
    assert vc_dim(GsSet(ctx3, 3), k_max=4).dim == 3
    assert vc_dim(GsSet(ctx5, 2), k_max=4).dim == 2
    # full group: no translate ever leaves the set
    assert vc_dim(ExplicitSet(ctx3, 2, np.ones(9, dtype=bool))).dim == 0
    # computed value, not asserted from any external source
    assert vc_dim(GsSet(ctx3, 2), k_max=4).dim == 2


def test_vc_dim_qgs_small_group():
    # computed on the full 27-element group; regression-pinned
    a = QgsSet(build_trace_basis(ctx3, 3))
    assert vc_dim(a, k_max=4).dim == 3


def test_all_maps_enumeration():
    maps = [ContainmentMap.from_index(1, idx) for idx in range(16)]
    assert len(maps) == 16
    assert maps[0].to_index() == 0 and maps[15].to_index() == 15


def test_vc_dim_certificate_is_sound():
    a = GsSet(ctx3, 3)
    res = vc_dim(a, k_max=4)
    assert res.dim == 3 and res.certificate is not None
    check_certificate(a, res.certificate)


def test_containment_map_index_round_trip():
    for k in (1, 2, 3):
        for idx in (0, 1, (1 << ((k + 1) ** 2)) - 1):
            phi = ContainmentMap.from_index(k, idx)
            assert phi.to_index() == idx
    # index 0 is the all-in-set map
    phi = ContainmentMap.from_index(1, 0)
    assert all(v for row in phi.verdicts for v in row)
    assert ContainmentMap.from_index(0, 0).verdicts == ((True,),)


@pytest.mark.parametrize("k,idx,message", [
    (2, 512, r"map index 512 outside \[0, 512\)"),
    (2, -1, r"map index -1 outside \[0, 512\)"),
    (1, 1 << 40, r"outside \[0, 16\)"),
    (-1, 0, "grid size k = -1 is negative"),
    (-3, 0, "grid size k = -3 is negative"),
])
def test_containment_map_from_index_rejects_out_of_range_input(k, idx, message):
    with pytest.raises(ValueError, match=message):
        ContainmentMap.from_index(k, idx)


@pytest.mark.parametrize("which", ["gs", "qgs", "explicit"])
@pytest.mark.parametrize("shifts", [0, 1, 5])
def test_grid_verdicts_match_pointwise_contains(which, shifts):
    """Cell (i, j) of grid z, in column i |y| + j, is contains(x_i + y_j + z); zero shifts give no rows."""
    p, n = 3, 4
    a = {"gs": GsSet(ctx3, n), "qgs": QgsSet(build_trace_basis(ctx3, n)), "explicit": explicit(ctx3, n, seed=2)}[which]
    rng = np.random.default_rng(shifts)
    x, y, zs = (rng.integers(0, p, size=(m, n)) for m in (3, 2, shifts))
    got = grid_verdicts(a, x, y, zs)
    assert got.shape == (shifts, 6)
    for z, row in zip(zs, got):
        assert row.tolist() == [a.contains((xi + yj + z) % p) for xi in x for yj in y]


@pytest.mark.parametrize("which", ["gs", "qgs", "explicit"])
def test_realizing_shifts_match_per_shift_scan(which):
    """The mask equals vc2_realizes at every z, for total maps, partial maps and a map with no assigned cell."""
    p, n = {"gs": (5, 3), "qgs": (3, 5), "explicit": (3, 4)}[which]
    ctx = FieldCtx(p)
    a = {"gs": lambda: GsSet(ctx, n), "qgs": lambda: QgsSet(build_trace_basis(ctx, n)),
         "explicit": lambda: explicit(ctx, n, seed=4)}[which]()
    table = a.membership_table()
    zs = ranks_to_digits(np.arange(p ** n), p, n)
    rng = np.random.default_rng(p * 10 + n)
    for k in (1, 2):
        x, y = rng.integers(0, p, size=(k + 1, n)), rng.integers(0, p, size=(k + 1, n))
        side = k + 1
        maps = [ContainmentMap.from_index(k, int(rng.integers(0, 1 << side * side))) for _ in range(2)]
        maps.append(ContainmentMap(k, tuple(tuple(None for _ in range(side)) for _ in range(side))))
        for phi in maps[:2]:
            rows = [list(r) for r in phi.verdicts]
            for i, j in rng.integers(0, side, size=(side, 2)).tolist():
                rows[i][j] = None
            maps.append(ContainmentMap(k, tuple(tuple(r) for r in rows)))
        for phi in maps:
            got = realizing_shifts(a, table, x, y, phi)
            assert got.tolist() == [vc2_realizes(a, x, y, phi, z) for z in zs]
    assert realizing_shifts(a, table, x, y, maps[2]).all()
    # a grid of the wrong size is rejected, not truncated to the cells it shares with phi
    with pytest.raises(ValueError, match="grid size mismatch"):
        realizing_shifts(a, table, x[:2], y[:2], maps[0])


@pytest.mark.parametrize("which", ["gs34", "qgs35"])
def test_translate_table_matches_membership(which):
    a = {"gs34": lambda: GsSet(ctx3, 4), "qgs35": lambda: QgsSet(build_trace_basis(ctx3, 5))}[which]()
    p, n = a.p, a.n
    digits = ranks_to_digits(np.arange(p ** n), p, n)
    tt = _translate_table(a.membership_table(), p, n)
    assert tt.dtype == np.uint8 and tt.shape == (p ** n, p ** n)
    for v, row in enumerate(tt):
        assert np.array_equal(row, a.contains_digits(add_mod(digits, digits[v], p)))


def test_translate_table_peak_memory():
    # GS(3,7): the table is 2187^2 bytes (4.8 MB); the translates of each block are ranked
    # digit by digit, never as a (rows, p^n, n) array of sums
    import tracemalloc

    table = GsSet(ctx3, 7).membership_table()
    tracemalloc.start()
    try:
        tt = _translate_table(table, 3, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tt.shape == (3 ** 7, 3 ** 7)
    assert peak < 40 * 2 ** 20


def test_vc2_realizes_trivial_cases():
    basis = build_trace_basis(ctx3, 5)
    a = QgsSet(basis)
    zero = np.zeros(5, dtype=np.int64)
    out_map = ContainmentMap(0, ((False,),))
    in_map = ContainmentMap(0, ((True,),))
    assert vc2_realizes(a, [zero], [zero], out_map, zero)
    assert not vc2_realizes(a, [zero], [zero], in_map, zero)


def test_vc2_realizes_exact_below_2_63():
    # p = 2^63 - 25, GS(p, 1) = {1}: only the cell (1, 1), 2(p - 1) + 3 = 1 mod p, lies in the
    # set; summed in int64 before the reduction it wraps to -49, which is p - 49 mod p
    ctx = FieldCtx(2 ** 63 - 25)
    pts = [(0,), (ctx.p - 1,)]
    phi = ContainmentMap(1, ((False, False), (False, True)))
    assert vc2_realizes(GsSet(ctx, 1), pts, pts, phi, (3,))


@pytest.mark.parametrize("bad", [[(1,), (2,)], [(0, 0, 0, 0), (0, 1, 2, 0)]], ids=["1-coordinate", "4-coordinate"])
def test_wrong_length_points_raise(bad):
    # points of F_3^3 with 1 or 4 coordinates were broadcast against the others, not rejected
    a = GsSet(ctx3, 3)
    zero, phi = (0, 0, 0), ContainmentMap.from_index(1, 0)
    with pytest.raises(ValueError):
        shatters(a, bad)
    with pytest.raises(ValueError):
        pattern_signature(a, [zero], bad[1])
    with pytest.raises(ValueError):
        vc2_realizes(a, bad, [zero, zero], phi, zero)
    with pytest.raises(ValueError):
        vc2_realizes(a, [zero, zero], [zero, zero], phi, bad[1])


def test_vc2_shatters_empty_set_fails_at_all_in_map():
    a = ExplicitSet(ctx3, 2, np.zeros(9, dtype=bool))
    zero = (0, 0)
    v = (0, 1)
    assert vc2_shatters(a, [zero, v], [zero, v]) == NotShattered(0)


def _disjoint_grids(k):
    """A set of F_3^n in which every map on the [0, k-1]^2 grid has its own known shift.

    X = {0, e_1, ..}, Y = {0, e_k, ..}, and the shift of map idx writes idx in base 3
    on the last m coordinates, so no two maps' grids share a point; the set holds
    exactly the in-set cells of every map's grid.
    """
    p, maps = 3, 1 << (k * k)
    m = next(m for m in range(1, 10) if p ** m >= maps)
    n = 2 * (k - 1) + m
    eye = np.eye(n, dtype=np.int64)
    x = np.vstack([np.zeros((1, n), dtype=np.int64), eye[:k - 1]])
    y = np.vstack([np.zeros((1, n), dtype=np.int64), eye[k - 1:2 * (k - 1)]])
    shifts = np.zeros((maps, n), dtype=np.int64)
    shifts[:, n - m:] = ranks_to_digits(np.arange(maps), p, m)
    table = np.zeros(p ** n, dtype=bool)
    for idx, z in enumerate(shifts):
        for c in range(k * k):
            if not (idx >> c) & 1:
                table[digits_to_ranks(((x[c // k] + y[c % k] + z) % p)[None], p)] = True
    return ExplicitSet(ctx3, n, table), x, y, shifts


def _vc2_reference(a, x, y):
    """Per-map search in index order: each map's first realizing shift in rank order, or the
    first map with none."""
    k, p, n = len(x), a.p, a.n
    table = a.membership_table()
    first = []
    for idx in range(1 << (k * k)):
        hits = np.flatnonzero(realizing_shifts(a, table, x, y, ContainmentMap.from_index(k - 1, idx)))
        if hits.size == 0:
            return NotShattered(idx)
        first.append(hits[0])
    return ranks_to_digits(np.array(first), p, n)


def _random_pairs(p, n, k, seed, count):
    """count seeded (X, Y) pairs with x_0 = y_0 = 0; every third pair has y_1 = x_1, so that its
    cells (0, 1) and (1, 0) coincide."""
    rng = np.random.default_rng(seed)
    for t in range(count):
        x, y = (np.vstack([np.zeros((1, n), dtype=np.int64), rng.integers(0, p, size=(k - 1, n))]) for _ in "xy")
        if k > 1 and t % 3 == 0:
            y[1] = x[1]
        yield x, y


_VC2_SETS = {
    "gs34": lambda: GsSet(ctx3, 4),
    "gs53": lambda: GsSet(ctx5, 3),
    "qgs34": lambda: QgsSet(build_trace_basis(ctx3, 4)),
    "qgs53": lambda: QgsSet(build_trace_basis(ctx5, 3)),
    "qgs36": lambda: QgsSet(build_trace_basis(ctx3, 6)),
    "explicit34": lambda: explicit(ctx3, 4, seed=6),
    "explicit72": lambda: ExplicitSet(FieldCtx(7), 2, np.random.default_rng(7).random(49) < 0.5),
}


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("which", sorted(_VC2_SETS))
def test_vc2_shatters_matches_per_map_reference(which, k):
    """The cell scan's witnesses are each map's first realizing shift in rank order, and a failure
    names the smallest map index with no shift, also where cells coincide."""
    a = _VC2_SETS[which]()
    pairs = _random_pairs(a.p, a.n, k, seed=k * 100 + a.p * 10 + a.n, count=12)
    coinciding = shattered = 0
    for x, y in pairs:
        cells = add_mod(x[:, None], y[None, :], a.p).reshape(-1, a.n)
        coinciding += len(np.unique(cells, axis=0)) < len(cells)
        got, want = vc2_shatters(a, x, y), _vc2_reference(a, x, y)
        if isinstance(want, NotShattered):
            assert got == want
        else:
            shattered += 1
            assert isinstance(got, QuadShatterCertificate)
            assert np.array_equal(got.witnesses, want)
            assert np.array_equal(got.X, x) and np.array_equal(got.Y, y)
    assert coinciding > 0 or k == 1
    # GS shatters no k=2 pair here, and a group of fewer than 512 points no k=3 grid
    assert shattered > 0 or k == 3 or which.startswith("gs")


@pytest.mark.parametrize("k", [1, 2, 3])
def test_vc2_shatters_disjoint_grids(k):
    """Every map has a shift of its own, so the scan certifies all of them; at k=3 (p^n = 3^10)
    the per-map reference runs on 16 seeded maps only."""
    a, x, y, shifts = _disjoint_grids(k)
    res = vc2_shatters(a, x, y)
    assert isinstance(res, QuadShatterCertificate)
    maps = np.arange(len(shifts))
    assert (grid_verdicts(a, x, y, res.witnesses) == (maps[:, None] >> np.arange(k * k) & 1 == 0)).all()
    table = a.membership_table()
    sample = maps if k < 3 else np.random.default_rng(k).choice(maps, size=16, replace=False)
    for idx in sample.tolist():
        hits = np.flatnonzero(realizing_shifts(a, table, x, y, ContainmentMap.from_index(k - 1, idx)))
        assert digits_to_ranks(res.witnesses[idx][None], a.p)[0] == hits[0]


def test_vc2_shatters_exhaustive_small_group():
    # a dense random set on F_3^3 quadratically shatters k=1 trivially
    a = explicit(ctx3, 3, seed=5)
    zero = (0, 0, 0)
    res = vc2_shatters(a, [zero], [zero])
    assert isinstance(res, QuadShatterCertificate)
    assert len(res.witnesses) == 2
