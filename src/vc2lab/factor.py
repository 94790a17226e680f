"""Quadratic factors, atom search, and the k=2 / k=3 quadratic-shattering constructions.

A quadratic factor partitions F_p^n into the joint level sets (atoms) of
linear polynomials z -> v^T z and quadratic polynomials Q_t(z) = z^T M_t z
drawn from a high-rank basis.  When the complexity D = l + q is below n/2,
every atom is non-empty and has size within p**(n/2) of p**(n-D).

The shattering constructions pick points X, Y whose pairwise cross-terms
2 x^T M_t y vanish, so the value grid Q(x_i + y_j + z) is an affine function
of the per-point values Q(x_i + z), Q(y_j + z), Q(z); prescribing those
values cell-by-cell reduces "realize this containment map" to "find a point
in a prescribed atom".  The prescriptions come from one array kernel,
target_table, over cases keyed by the shape of the map after grid
symmetries (swapping the two nonzero x indices, the two nonzero y indices,
or the roles of X and Y); each case is a mask plus lookup tables keyed by
the cells it branches on.

Points, point sets and linear forms are int64 arrays of residues, one per
row (see fp.as_points); the dataclasses below hold them read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Sequence

import numpy as np

from .certs import CheckResult
from .fp import (
    add_mod,
    affine_solver,
    as_points,
    derive_rng,
    derive_rng_states,
    digits_to_ranks,
    freeze_points,
    iter_group_chunks,
    mat_rank,
    matmul_mod,
    orth_complement,
    quad_forms,
    ranks_to_digits,
    shifted_ranks,
)
from .gs import QgsSet, _leading_one, cross_terms
from .highrank import HighRankBasis
from .shatter import ContainmentMap, grid_verdicts, realizing_shifts, vc2_realizes

# Exhaustive atom search is used while the affine subspace stays this small;
# beyond it, seeded sampling hits a target of q quadratic values at rate p**-q.
ATOM_EXHAUST_LIMIT = 1 << 21
ATOM_SAMPLE_BUDGET = 10 ** 7
ATOM_EVAL_CHUNK = 1 << 12  # candidate rows evaluated at once, which bounds peak memory
ATOM_DRAW_CHUNK = 64  # candidate rows each label draws per round of sampling


@dataclass(frozen=True, eq=False)
class QuadraticFactor:
    """Joint level-set partition data over a basis: linear forms plus indices of its quadratic forms.

    linear_polys holds one form per row, an (l, n) array (l may be 0); the
    factor keeps a read-only copy reduced mod p.
    """

    basis: HighRankBasis
    linear_polys: np.ndarray
    quad_indices: tuple[int, ...]  # distinct 1-based indices into basis.mats

    def __post_init__(self) -> None:
        p, n = self.basis.ctx.p, self.basis.n
        if len(set(self.quad_indices)) != len(self.quad_indices):
            raise ValueError("quadratic indices must be distinct")
        for t in self.quad_indices:
            if not 1 <= t <= n:
                raise ValueError(f"quadratic index {t} outside [1, {n}]")
        lin = as_points(self.linear_polys, p, n)  # one form of n coordinates per row
        if len(lin) and mat_rank(lin, p) != len(lin):
            raise ValueError("linear polynomials must be independent")
        object.__setattr__(self, "linear_polys", lin)

    @property
    def complexity(self) -> int:
        return len(self.linear_polys) + len(self.quad_indices)

    @cached_property
    def _affine(self) -> tuple[np.ndarray, np.ndarray]:
        """(T, N): the points with linear values b are T b + alpha N mod p.

        Row-reduced once per factor.
        """
        return affine_solver(self.linear_polys, self.basis.ctx.p)


def find_in_atom(f: QuadraticFactor, label: Sequence[int], seed: int = 0) -> np.ndarray:
    """A point in the atom of label, linear values first: find_in_atoms for the one label."""
    return find_in_atoms(f, [label], [seed])[0]


def find_in_atoms(
    f: QuadraticFactor,
    labels: Sequence[Sequence[int]] | np.ndarray,
    seeds: Sequence[int],
) -> list[np.ndarray]:
    """A point in each label's atom, by solving the linear part then searching.

    labels holds one label's values per row, linear values first, and
    seeds one seed per label.  The linear constraints yield an affine
    subspace part + span(N); it is enumerated exhaustively in rank order
    while small (deterministic, seeds ignored), otherwise sampled with a
    stream derived from the label's seed, so each label gets the point a
    search for it alone would give; a label still unmatched after
    ATOM_SAMPLE_BUDGET draws of its own (read at call time) raises
    RuntimeError.
    Candidates are tested in null-space coordinates: Q_t(part + alpha N) =
    alpha A_t alpha^T + alpha . 2 N M_t part^T + Q_t(part) with A_t =
    N M_t N^T shared by every label (M_t is symmetric), so one evaluation
    serves a block of candidates from many labels, and only the matching
    point is ever built.  Each evaluation takes an (owners, rows, dim)
    block, or the exhaustive search's one chunk of rows shared by every
    owner: the first target's shared form is evaluated once per row, each
    owner's linear term and constant applied to its rows, and it rejects
    all but about 1/p of them; each later target is evaluated on the rows
    that met the ones before it.  The first hits become points in one product.
    Sampling keeps a pool of at most ATOM_EVAL_CHUNK // ATOM_DRAW_CHUNK
    labels: each round every pooled label draws ATOM_DRAW_CHUNK rows from
    its generator (in uint32, the same values as int64 draws) and one
    evaluation tests them all; settled labels leave and the next labels
    join, each taking a settled label's generator (or a new one while the
    pool fills) set to its own stream's state.  Every label's state, the
    one derive_rng(seed, "find-in-atom") starts from, comes from one
    fp.derive_rng_states pass.  Once no label is left to join, the rest
    draw ATOM_EVAL_CHUNK // (labels left) rows a round.  Every pooled label
    draws as many rows in a round, at most what the label that has drawn
    most has left of its budget.  So at most a pool's worth of generators
    is ever made, and at most ATOM_EVAL_CHUNK candidate rows are evaluated
    at once; the exhaustive search takes the labels in groups of a pool's
    size.
    Requires complexity < n/2 so that non-emptiness is guaranteed.
    """
    n, p = f.basis.n, f.basis.ctx.p
    d = f.complexity
    if 2 * d >= n:
        raise ValueError("nonemptiness not guaranteed: complexity must be < n/2")
    if len(seeds) != len(labels):
        raise ValueError("one seed per label expected")
    if not len(labels):
        return []
    vals = np.asarray(labels, dtype=np.int64)
    if vals.ndim != 2 or vals.shape[1] != d:
        raise ValueError("label length mismatch")
    l = len(f.linear_polys)
    transform, nb = f._affine
    parts = vals[:, :l] @ transform.T % p
    dim = nb.shape[0]
    target = vals[:, l:]
    mats = f.basis.mats[[t - 1 for t in f.quad_indices]]
    nm = matmul_mod(nb, mats, p)
    shared = matmul_mod(nm, nb.T, p)
    cross = matmul_mod(nm, parts.T, p)
    linear = np.ascontiguousarray(add_mod(cross, cross, p).transpose(0, 2, 1))  # (q, labels, dim)
    const = quad_forms(parts, mats, p)
    found: list[np.ndarray | None] = [None] * len(vals)

    def settle(alphas: np.ndarray, owners: np.ndarray) -> None:
        """Record each owner's first hit among its rows of alphas, in draw order: an (owners, rows, dim)
        block, or (1, rows, dim) for rows every owner shares, whose shared forms are evaluated once."""
        keep = np.ones((len(owners), alphas.shape[1]), dtype=bool)
        if len(mats):
            got = quad_forms(alphas.reshape(-1, dim), shared[:1], p)[:, 0].reshape(alphas.shape[:2])
            got = got + matmul_mod(alphas, linear[0][owners][:, :, None], p)[..., 0] + const[owners, :1]
            keep = got % p == target[owners, :1]
        # row-major, so each owner's rows stay in draw order
        o, rows = np.nonzero(keep)
        a = np.broadcast_to(alphas, (*keep.shape, dim))[o, rows]
        for t in range(1, len(mats)):
            w = owners[o]
            got = quad_forms(a, shared[t:t + 1], p)[:, 0] + np.einsum("rd,rd->r", a, linear[t][w]) + const[w, t]
            sel = got % p == target[w, t]
            a, o = a[sel], o[sel]
        hit, first = np.unique(o, return_index=True)
        points = add_mod(parts[owners[hit]], matmul_mod(a[first], nb, p), p)
        for i, z in zip(owners[hit].tolist(), points):
            found[i] = z

    group = ATOM_EVAL_CHUNK // ATOM_DRAW_CHUNK
    if p ** dim <= ATOM_EXHAUST_LIMIT:
        for start in range(0, len(vals), group):
            pending = np.arange(start, min(start + group, len(vals)))
            for _, alphas in iter_group_chunks(p, dim, ATOM_EVAL_CHUNK // len(pending)):
                settle(alphas[None], pending)
                pending = pending[[found[i] is None for i in pending.tolist()]]
                if not pending.size:
                    break
            else:
                raise RuntimeError("atom is empty despite the complexity bound; basis invariant violated")
        return found

    # The generator yields the same rows however the draws are split, and in
    # uint32 as in int64 (both take numpy's 32-bit bounded draws below 2^32, and
    # a basis has p < 2^8), so the first hit does not depend on the round sizes
    # or on which labels share an evaluation.
    states = derive_rng_states(seeds, "find-in-atom")
    live: dict[int, np.random.Generator] = {}  # pooled label -> its generator, in joining order
    spare: list[np.random.Generator] = []  # the generators of settled labels
    tried = [0] * len(vals)
    joined = 0
    while live or joined < len(vals):
        while len(live) < group and joined < len(vals):
            live[joined] = _pooled_generator(spare, states[joined])
            joined += 1
        spent = next((i for i in live if tried[i] >= ATOM_SAMPLE_BUDGET), None)
        if spent is not None:
            raise RuntimeError(f"sampling budget exhausted after {tried[spent]} draws")
        size = ATOM_DRAW_CHUNK if joined < len(vals) else ATOM_EVAL_CHUNK // len(live)
        size = min(size, ATOM_SAMPLE_BUDGET - max(tried[i] for i in live))
        settle(np.stack([rng.integers(0, p, size=(size, dim), dtype=np.uint32) for rng in live.values()]),
               np.array(list(live)))
        for i in list(live):
            tried[i] += size
            if found[i] is not None:
                spare.append(live.pop(i))
    return found


def _pooled_generator(spare: list[np.random.Generator], state: dict) -> np.random.Generator:
    """A generator set to state (see fp.derive_rng_states): one taken from spare, else a new one."""
    rng = spare.pop() if spare else np.random.Generator(np.random.PCG64(0))  # its seed is replaced at once
    rng.bit_generator.state = state
    return rng


CENSUS_MAX_GROUP = 10 ** 7  # the census labels every point of the group
# A census report costs about 0.4 KB of memory and 4 us per label: 923,521 labels at
# p = 31, n = 4 (l = q = 2) peaked at 349 MB and took 3.3 s in atom-census.
CENSUS_MAX_LABELS = 10 ** 6


def atom_census(f: QuadraticFactor) -> dict[tuple[int, ...], int]:
    """Exact atom sizes over the whole group (p**n <= CENSUS_MAX_GROUP), one count per label (p**D <= CENSUS_MAX_LABELS).

    Keys are the labels as tuples, linear values first.  Checks
    |size - p**(n-D)| <= p**(n/2) for every label, including labels of
    empty atoms; a violation raises.
    """
    p, n = f.basis.ctx.p, f.basis.n
    if p ** n > CENSUS_MAX_GROUP:
        raise ValueError(f"group too large for an exhaustive census (p**n > {CENSUS_MAX_GROUP})")
    d = f.complexity
    if p ** d > CENSUS_MAX_LABELS:
        raise ValueError(f"too many atom labels for an exhaustive census (p**D = {p}**{d} > {CENSUS_MAX_LABELS:,})")
    mats = f.basis.mats[[t - 1 for t in f.quad_indices]]
    counts = np.zeros(p ** d, dtype=np.int64)
    mult = np.array([p ** (d - 1 - i) for i in range(d)], dtype=np.int64)
    for _, block in iter_group_chunks(p, n):
        labels = np.concatenate([block @ f.linear_polys.T % p, quad_forms(block, mats, p)], axis=1)
        counts += np.bincount(labels @ mult, minlength=p ** d)
    # |count - p**(n-d)| <= p**(n/2), compared in squared integers
    dev = counts - p ** (n - d)  # at most p**n <= CENSUS_MAX_GROUP, so dev^2 fits int64
    if ((dev * dev) > p ** n).any():
        bad = int(np.argmax((dev * dev) > p ** n))
        raise ValueError(f"atom size bound violated at label rank {bad}: size {int(counts[bad])}")
    labels = ranks_to_digits(np.arange(p ** d), p, d).tolist()
    return {tuple(label): count for label, count in zip(labels, counts.tolist())}


# ---------------------------------------------------------------------------
# Construction of the shattered pair (X, Y) and its factor.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ShatterPairConstruction:
    """Points X, Y with vanishing cross-terms plus the factor that steers shifts.

    X and Y are read-only point arrays.
    """

    k: int
    X: np.ndarray
    Y: np.ndarray
    factor: QuadraticFactor

    def __post_init__(self) -> None:
        freeze_points(self, "X", "Y")


def _construction_linear_polys(basis: HighRankBasis, k: int, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Rows 2 M_t u, point by point over xs then ys, t = 1..k within each point."""
    p, n = basis.ctx.p, basis.n
    # M_t is symmetric, so u M_t = M_t u
    mu = matmul_mod(np.concatenate([xs, ys]), basis.mats[:k], p).transpose(1, 0, 2).reshape(-1, n)
    return add_mod(mu, mu, p)


def construct_shatter_pair(basis: HighRankBasis, k: int, seed: int = 0) -> ShatterPairConstruction:
    """Build X = {0, x_1, ..}, Y = {0, y_1, ..} with the zero-cross-term property.

    The x's are arbitrary independent points; the y's come from the subspace
    H* = H_x intersect M_1^{-1} H_x ... M_k^{-1} H_x, where
    H_x = <M_i x_j>^perp.  Membership u in M_i^{-1} H_x is equivalent to
    u being orthogonal to every M_i M_{i'} x_j, so H* is cut out by the
    vectors M_i x_j and M_i M_{i'} x_j.  All invariants (independence of the
    2k(k-1) forms, vanishing cross-terms) are verified before returning;
    the construction retries with fresh seeded draws if a degenerate choice
    slips through.
    """
    if k not in (2, 3):
        raise ValueError("k must be 2 or 3")
    n = basis.n
    n_min = 13 if k == 2 else 31
    if n < n_min:
        raise ValueError(f"k={k} construction requires n >= {n_min}")
    p = basis.ctx.p
    mats = basis.mats[:k]
    npts = k - 1
    rng = derive_rng(seed, "shatter-pair", k)

    def independent(rows: np.ndarray, cand: np.ndarray) -> bool:
        """cand is nonzero and outside the span of the independent rows."""
        return cand.any() and (len(rows) == 0 or mat_rank(np.vstack([rows, cand]), p) == len(rows) + 1)

    for _ in range(64):
        xs = np.zeros((0, n), dtype=np.int64)
        while len(xs) < npts:
            cand = rng.integers(0, p, size=n)
            if independent(xs, cand):
                xs = np.vstack([xs, cand])
        # H_x is cut out by the M_t x_j, H* by those and the M_t' M_t x_j
        hx_rows = matmul_mod(xs, mats, p).reshape(-1, n)
        hstar_rows = np.vstack([hx_rows, matmul_mod(hx_rows, mats, p).reshape(-1, n)])
        h_star = orth_complement(hstar_rows, p)
        if len(h_star) < npts:
            continue
        ys = np.zeros((0, n), dtype=np.int64)
        attempts = 0
        while len(ys) < npts and attempts < 64:
            attempts += 1
            cand = matmul_mod(rng.integers(0, p, size=len(h_star)), h_star, p)
            if independent(ys, cand):
                ys = np.vstack([ys, cand])
        if len(ys) < npts:
            continue
        if cross_terms(xs, ys, mats, p).any():
            continue
        try:
            factor = QuadraticFactor(basis, _construction_linear_polys(basis, k, xs, ys), tuple(range(1, k + 1)))
        except ValueError:  # QuadraticFactor refuses the draw when the 2k(k-1) linear forms are dependent
            continue
        zero = np.zeros((1, n), dtype=np.int64)
        return ShatterPairConstruction(k, np.vstack([zero, xs]), np.vstack([zero, ys]), factor)
    raise RuntimeError("could not build a verified construction; basis invariant suspect")


# ---------------------------------------------------------------------------
# Target value tables: from a containment map to prescribed Q-values.
# ---------------------------------------------------------------------------


def _predicted_cells(vals: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The first-nonzero verdict of every grid cell of each target block, and whether it is defined.

    vals is an (m, 2k-1, k) block of rows q, a_i, b_j (see target_table).
    The cell (i, j) carries a_i + b_j - q with a_0 = b_0 = q, so the
    boundary cells carry a_i, b_j and q themselves; a cell whose values are
    all zero has no verdict.  Both results are (m, k, k) boolean arrays.
    """
    k = vals.shape[2]
    q = vals[:, :1]
    a, b = np.concatenate([q, vals[:, 1:k]], axis=1), np.concatenate([q, vals[:, k:]], axis=1)
    cells = (a[:, :, None] + b[:, None] - q[:, None]) % p
    return _leading_one(cells), (cells != 0).any(axis=3)


# The cases below read a batch of grid images g, a (k, k, images) boolean array
# with g[i][j] True where the cell (i, j) lies in the set.  Each returns the
# images it matches and, per image, its value rows q, a_1.., b_1.. as an
# (images, 2k-1, k) array of small integers.


def _s(v: np.ndarray) -> np.ndarray:
    """The leading value that puts a cell in the set (1) or outside it (2)."""
    return np.where(v, 1, 2)


def _vec(*entries) -> np.ndarray:
    """A value row per image from entries that are ints or per-image arrays."""
    return np.stack(np.broadcast_arrays(*entries), axis=-1)


def _rows(*rows) -> np.ndarray:
    """Value rows, each a tuple of ints or an (images, k) array, stacked to (images, rows, k)."""
    return np.stack(np.broadcast_arrays(*map(np.asarray, rows)), axis=-2)


def _pick(table: dict, *cells: np.ndarray) -> np.ndarray:
    """table[key] per image, the key being the tuple of the given cells' verdicts (one cell: its verdict)."""
    lut = np.array([table[key if len(cells) > 1 else key[0]] for key in product((False, True), repeat=len(cells))])
    return lut[sum(c.astype(np.intp) << (len(cells) - 1 - i) for i, c in enumerate(cells))]


def _case_k2(g, p):
    """The 2 x 2 grid: the interior cell agrees with its row's boundary cell, else its column's, else neither."""
    row, col = g[1][1] == g[1][0], g[1][1] == g[0][1]
    sa, sb = _s(g[1][0]), _s(g[0][1])
    neither = _pick({True: ((2, 0), (-1, 0)), False: ((1, 0), (1, 0))}, g[1][1])
    ab = np.where(row[:, None, None], _rows(_vec(sa, 0), _vec(0, sb)),
                  np.where(col[:, None, None], _rows(_vec(0, sa), _vec(sb, 0)), neither))
    return np.ones_like(row), np.concatenate([_vec(0, _s(g[0][0]))[:, None], ab], axis=1)


def _case_const_row(g, p):
    """Row 1 constant including its boundary cell."""
    q_a2 = _pick({  # keyed by (g[2][0], g[0][0])
        (False, True): ((0, 1, 1), (0, 2, 2)),
        (True, True): ((0, 0, 1), (0, 1, 2)),
        (True, False): ((0, 0, -1), (0, 1, 0)),
        (False, False): ((0, -1, 1), (0, 0, 2)),
    }, g[2][0], g[0][0])
    bsel = {  # keyed by (g[0][j], g[2][j])
        (True, True): (0, 0, 1),
        (False, True): (0, 0, 2),
        (True, False): (0, 1, 0),
        (False, False): (0, -1, 1),
    }
    a1 = _vec(np.where(g[1][0], 1, -1), 0, 0)
    return ((g[1][0] == g[1][1]) & (g[1][1] == g[1][2]),
            _rows(q_a2[:, 0], a1, q_a2[:, 1], *(_pick(bsel, g[0][j], g[2][j]) for j in (1, 2))))


def _case_const_rows_interior(g, p):
    """Both interior rows constant: per-row verdicts decouple."""
    rows = {  # keyed by (g[0][0], g[i][0], g[i][1])
        (True, False, True): (2, 0, 0),
        (True, True, True): (1, 1, 0),
        (True, True, False): (0, 1, 0),
        (True, False, False): (0, 2, 0),
        (False, False, True): (-1, 1, 0),
        (False, False, False): (-1, 2, 0),
        (False, True, False): (1, 0, 0),
        (False, True, True): (0, 1, 0),
    }
    a = (_pick(rows, g[0][0], g[i][0], g[i][1]) for i in (1, 2))
    b = (_vec(0, 0, _s(g[0][j])) for j in (1, 2))
    return ((g[1][1] == g[1][2]) & (g[2][1] == g[2][2]),
            _rows(_vec(np.where(g[0][0], 1, -1), 0, 0), *a, *b))


def _three_one_pattern(g) -> np.ndarray:
    """Interior cells: (1,1) = (1,2) = (2,1) != (2,2), with row-1 boundary off."""
    return (g[1][0] != g[1][1]) & (g[1][1] == g[1][2]) & (g[1][2] == g[2][1]) & (g[2][1] != g[2][2])


def _case_31(g, p):
    z1 = np.where(g[0][0], 1, -1)
    a1 = _pick({  # keyed by (g[0][0], g[1][1])
        (True, True): (2, 0, 0),
        (True, False): (0, 1, 0),
        (False, False): (1, 0, 0),
        (False, True): (0, 2, 0),
    }, g[0][0], g[1][1])
    brow = {  # keyed by (g[0][j], g[2][j])
        (True, False): (0, 1, 0),
        (True, True): (0, 0, 1),
        (False, True): (0, 0, 2),
        (False, False): (0, -1, 2),
    }
    return (_three_one_pattern(g) & (g[2][0] == g[0][0]),
            _rows(_vec(z1, 0, 0), a1, _vec(z1, 1, 0), *(_pick(brow, g[0][j], g[2][j]) for j in (1, 2))))


def _case_32(g, p):
    pat_q = _pick({  # keyed by (g[2][0], g[0][1], g[0][0]): the pattern of b_j's first two values, then q
        (True, True, False): ((1, 0, 0), (2, 0, 0)),
        (True, True, True): ((0, 1, 0), (1, 1, 0)),
        (True, False, False): ((-1, 2, 0), (0, 2, 0)),
        (True, False, True): ((0, 2, 0), (1, 2, 0)),
        (False, False, False): ((0, 2, 0), (-1, 2, 0)),
        (False, False, True): ((2, 0, 0), (1, 0, 0)),
        (False, True, True): ((1, 1, 0), (0, 1, 0)),
        (False, True, False): ((0, 1, 0), (-1, 1, 0)),
    }, g[2][0], g[0][1], g[0][0])
    a1 = _pick({  # keyed by (g[2][0], g[1][1])
        (True, False): (0, 0, 1),
        (True, True): (2, 0, 0),
        (False, True): (0, 0, 2),
        (False, False): (1, 0, 0),
    }, g[2][0], g[1][1])
    a2 = _vec(np.where(g[2][0], 1, -1), 0, 0)
    b = (pat_q[:, 0] + _vec(0, 0, _s(g[2][j])) for j in (1, 2))
    return _three_one_pattern(g) & (g[0][1] == g[0][2]), _rows(pat_q[:, 1], a1, a2, *b)


def _case_33(g, p):
    """The grid (u, u, not u), (u, not u, not u), (not u, not u, u) with u = g[0][0]."""
    shape = np.array([[1, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=bool)[:, :, None]
    return (g == (shape == g[0][0])).all(axis=(0, 1)), _pick({
        True: ((0, 0, 1), (0, 1, 0), (2, 0, 0), (0, 1, 0), (-1, 0, 0)),
        False: ((0, 0, 2), (0, 2, 0), (1, 0, 0), (0, -1, 0), (1, 0, 0)),
    }, g[0][0])


def _diagonal(g) -> np.ndarray:
    return (g[1][1] == g[2][2]) & (g[1][2] == g[2][1]) & (g[1][1] != g[1][2])


def _case_41(g, p):
    a2_b2 = _pick({True: ((1, 0, 0), (-1, 1, 0)), False: ((-1, 0, 0), (2, 0, 0))}, g[2][0])
    return (_diagonal(g) & g[0][1] & g[1][1] & (g[0][1] != g[0][2]),
            _rows(_vec(0, 0, _s(g[0][0])), _vec(0, 0, _s(g[1][0])), a2_b2[:, 0], (1, 2, 0), a2_b2[:, 1]))


def _case_42(g, p):
    return _diagonal(g) & g[0][1] & g[1][1] & (g[0][1] == g[0][2]) & (g[1][0] == g[2][0]), _pick({
        # keyed by (g[1][0], g[0][0]): rows q, a_1, a_2, b_1, b_2
        (True, True): ((0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 0, 0), (0, 1, 0)),
        (True, False): ((0, 0, 2), (0, 1, 0), (1, 0, 0), (1, 0, 0), (0, 1, 0)),
        (False, True): ((0, 0, 1), (-1, 1, 1), (-1, 0, 0), (1, 0, 0), (1, 1, 0)),
        (False, False): ((0, 0, -1), (-1, 1, 0), (-1, 0, 1), (1, 0, 0), (1, 1, 0)),
    }, g[1][0], g[0][0])


def _case_43(g, p):
    """Diagonal interior with every off-origin boundary cell outside the set.

    No grid symmetry can bring such a map into the reach of the other
    diagonal cases, so it gets its own prescription.
    """
    if p == 3:
        al = ((0, 2, 0), (2, 0, 0))
        be_diag = ((0, 2, 0), (2, 0, 0))  # sums: (0,4)->in, (2,2)->out, (4,0)->in
    else:
        al = ((2, 0, 0), (-1, 0, 0))
        be_diag = ((-1, 0, 0), (2, 0, 0))  # sums: (1,0)->in, (4,0)->out, (-2,0)->out
    be = _pick({True: be_diag, False: be_diag[::-1]}, g[1][1])
    w = _vec(0, 0, _s(g[0][0]))[:, None]  # the last value of every row
    return (_diagonal(g) & ~(g[0][1] | g[0][2] | g[1][0] | g[2][0]),
            _rows((0, 0, 0), *al, be[:, 0], be[:, 1]) + w)


def _sym_cells(t: bool, sx: bool, sy: bool) -> list[int]:
    """For each image cell i*3 + j, the map cell it shows under one grid symmetry of the 3 x 3 case.

    The symmetry optionally transposes (swaps the roles of X and Y), then
    swaps x_1/x_2 (rows 1, 2), then y_1/y_2 (columns 1, 2).
    """
    r = lambda i, swap: (0, 2, 1)[i] if swap else i
    return [r(j, sy) * 3 + r(i, sx) if t else r(i, sx) * 3 + r(j, sy) for i in range(3) for j in range(3)]


_SYMS = {2: np.arange(4)[None], 3: np.array([_sym_cells(*s) for s in product((False, True), repeat=3)])}
_CASES = {
    2: (_case_k2,),
    3: (_case_const_row, _case_const_rows_interior, _case_31, _case_32, _case_33, _case_41, _case_42, _case_43),
}


def target_table(indices, k: int, p: int) -> np.ndarray:
    """Prescribed Q-values realizing each map index on the [0, k-1]^2 grid, all maps at once.

    Row m of the (maps, 2k-1, k) result holds, reduced mod p, the values of
    Q_1..Q_k that map indices[m] prescribes at z (q), at x_i + z (a_i) and
    at y_j + z (b_j), in that order.  A map takes the first case in _CASES
    order that matches one of its images, images in _SYMS order, and the
    symmetry is undone by permuting the rows; each case is evaluated only
    on the maps no earlier case matched.  Self-certifying: every map's
    predicted grid (see _predicted_cells) must equal the map, and an unmatched
    or mispredicted map raises RuntimeError (a table transcription bug).
    """
    if k not in _CASES:
        raise ValueError(f"only the 2 x 2 and 3 x 3 grids are supported, not {k} x {k}")
    idx = np.asarray(indices, dtype=np.int64).reshape(-1)
    if ((idx < 0) | (idx >= 1 << k * k)).any():
        raise ValueError(f"map index outside [0, {1 << k * k})")
    cells = ((idx[:, None] >> np.arange(k * k)) & 1) == 0  # True: the cell lies in the set
    syms = _SYMS[k]
    bound = [i * k for i in range(k)] + list(range(1, k))  # the cells of q, a_i, b_j
    # under symmetry s, an image's value row r belongs to the map's row undo[s][r]
    undo = np.array([[bound.index(src[c]) for c in bound] for src in syms.tolist()])
    out = np.zeros((len(idx), 2 * k - 1, k), dtype=np.int64)
    todo = np.arange(len(idx))  # the maps no case has matched yet, the only ones the next case sees
    for case in _CASES[k]:
        if not todo.size:
            break
        g = cells[todo][:, syms].reshape(-1, k, k).transpose(1, 2, 0)  # images map by map, _SYMS order within
        mask, vals = case(g, p)
        mask = mask.reshape(len(todo), len(syms))
        hit = mask.any(axis=1)
        sym = mask[hit].argmax(axis=1)
        out[todo[hit][:, None], undo[sym]] = vals.reshape(len(todo), len(syms), 2 * k - 1, k)[hit, sym]
        todo = todo[~hit]
    if todo.size:
        raise RuntimeError(f"no case matched map index {idx[todo[0]]}")
    out %= p
    verdicts, defined = _predicted_cells(out, p)
    bad = ~(defined & (verdicts == cells.reshape(-1, k, k))).all(axis=(1, 2))
    if bad.any():
        raise RuntimeError(f"case table bug: predicted grid mismatch at map index {idx[bad.argmax()]}")
    return out


def realize_map(c: ShatterPairConstruction, phi: ContainmentMap, seed: int = 0) -> np.ndarray:
    """A shift z realizing the total map phi on the construction's grid: realize_maps for its index."""
    if phi.k + 1 != c.k:
        raise ValueError("map grid does not match the construction size")
    return realize_maps(c, [phi.to_index()], seed)[0]


def realize_maps(c: ShatterPairConstruction, indices: Sequence[int] | np.ndarray, seed: int = 0) -> list[np.ndarray]:
    """A shift realizing each map, given by its index (ContainmentMap.to_index), found inside the
    atom its target values select.

    The atom label subtracts, per point u and form index t, both the shift
    value q_t and the point's own value Q_t(u) from the target.  All atoms
    are searched in one find_in_atoms call, the map of index i with the seed
    derive_seed_for_map(seed, i), after one target_table call has checked
    every index, built every map's targets and self-checked them, and every
    grid is re-verified against direct membership in one call before
    returning.
    """
    idx = np.asarray(indices, dtype=np.int64).reshape(-1)
    if not idx.size:
        return []
    basis, k, p = c.factor.basis, c.k, c.factor.basis.ctx.p
    vals = target_table(idx, k, p)
    own = quad_forms(np.concatenate([c.X[1:], c.Y[1:]]), basis.mats[:k], p)
    lin = (vals[:, 1:] - vals[:, :1] - own) % p
    labels = np.concatenate([lin.reshape(len(idx), -1), vals[:, 0]], axis=1)
    zs = np.array(find_in_atoms(c.factor, labels, [derive_seed_for_map(seed, i) for i in idx.tolist()]))
    want = ((idx[:, None] >> np.arange(k * k)) & 1) == 0  # bit i k + j set: cell (i, j) is a complement cell
    if (grid_verdicts(QgsSet(basis), c.X, c.Y, zs) != want).any():
        raise RuntimeError("realization failed verification: case table or atom search bug")
    return list(zs)


def derive_seed_for_map(seed: int, index: int) -> int:
    """The atom-search seed of the map with this index (ContainmentMap.to_index, the key of
    target_table and of the certificate's witnesses) under the run's seed; find_in_atoms turns
    it into the map's stream."""
    return (int(seed) * 0x1F1F1F1F + int(index)) & 0x7FFFFFFF


# ---------------------------------------------------------------------------
# Property checkers: forced zero values and the cross-term range.
# ---------------------------------------------------------------------------

PROBE_MAX_GROUP = 10 ** 5  # forced_zero_probe scans every shift and builds the digits of every point


def zero_forcing_map() -> ContainmentMap:
    """The partial map on [0,3]^2 whose realizations have forced zero Q-values.

    Complement cells sit at (0,1), (0,2), (1,0), (2,0), (2,3), (3,2); the
    cell (0,0) is left unassigned (either choice works).
    """
    comp = {(0, 1), (0, 2), (1, 0), (2, 0), (2, 3), (3, 2)}
    rows = tuple(
        tuple(None if (i, j) == (0, 0) else (i, j) not in comp for j in range(4))
        for i in range(4)
    )
    return ContainmentMap(3, rows)


def cross_terms_vanish_below(a: QgsSet, x, y, m: int) -> bool:
    """Whether 2 x^T M_t y = 0 for every point x in x, y in y and t < m."""
    x, y = as_points(x, a.p, a.n), as_points(y, a.p, a.n)
    return m <= 1 or not cross_terms(x, y, a.basis.mats[:m - 1], a.p).any()


def check_forced_zeros(a: QgsSet, x, y, m: int, z) -> CheckResult:
    """Check the forced conclusions for a shift realizing the zero-forcing map.

    Requires: cross-terms 2 x_i^T M_t y_j vanish for all t < m on the grid,
    and z realizes the map (with either value at (0,0)).  Then every
    Q_t(z), Q_t(x_i + z), Q_t(y_j + z) for t < m and i, j in [1,3] must be 0;
    if the level-m cross-terms are constant over [1,3]^2, the same must hold
    at t = m and the constant must be 0.
    """
    x, y, z = as_points(x, a.p, a.n), as_points(y, a.p, a.n), as_points([z], a.p, a.n)[0]
    if len(x) != 4 or len(y) != 4 or x[0].any() or y[0].any():
        raise ValueError("expected X, Y of size 4 with x_0 = y_0 = 0")
    if not 1 <= m <= a.n:
        raise ValueError("m out of range")
    if not cross_terms_vanish_below(a, x, y, m):
        raise ValueError("inapplicable: cross-terms below m do not vanish")
    phi = zero_forcing_map()
    if not vc2_realizes(a, x, y, phi, z):
        raise ValueError("inapplicable: z does not realize the zero-forcing map")

    # Q_t for every t <= m at z = x_0 + z, x_1 + z, y_1 + z, ..., x_3 + z, y_3 + z: the order of the checks
    names = ["z", *(f"{v}_{i}+z" for i in range(1, 4) for v in "xy")]
    points = add_mod(np.vstack([x[0], *(v[i] for i in range(1, 4) for v in (x, y))]), z, a.p)
    q = quad_forms(points, a.basis.mats[:m], a.p)

    def conclusion_holds(t: int) -> str | None:
        bad = np.flatnonzero(q[:, t - 1])
        if not bad.size:
            return None
        if bad[0] == 0:
            return f"Q_{t}(z) = {q[0, t - 1]} != 0"
        return f"Q_{t}({names[bad[0]]}) != 0"

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


def random_zero_cross_term_sets(basis: HighRankBasis, m: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Seeded point arrays (X, Y) of size 4, x_0 = y_0 = 0, with vanishing cross-terms below level m.

    The three further points of each side are distinct and nonzero, so the
    group needs at least 4 points; a smaller one raises ValueError.  When
    256 tries of x's leave no three distinct nonzero y's (as at m = 2 in
    F_3^3, where the y-side subspace has at most 2 nonzero points),
    RuntimeError names the group.
    """
    p, n = basis.ctx.p, basis.n
    if p ** n < 4:
        raise ValueError(f"X and Y need 4 distinct points; F_{p}^{n} has {p ** n}")
    rng = derive_rng(seed, "qualifying-sets", m)
    npts = 3
    zero = np.zeros((1, n), dtype=np.int64)

    def fresh(rows: np.ndarray, cand: np.ndarray) -> bool:
        """cand is nonzero and not yet among rows."""
        return cand.any() and not (rows == cand).all(axis=1).any()

    for _ in range(256):
        xs = zero[:0]
        while len(xs) < npts:
            cand = rng.integers(0, p, size=n)
            if fresh(xs, cand):
                xs = np.vstack([xs, cand])
        space = orth_complement(matmul_mod(xs, basis.mats[:max(m - 1, 0)], p).reshape(-1, n), p)
        if not len(space):
            continue
        ys = zero[:0]
        attempts = 0
        while len(ys) < npts and attempts < 128:
            attempts += 1
            cand = matmul_mod(rng.integers(0, p, size=len(space)), space, p)
            if fresh(ys, cand):
                ys = np.vstack([ys, cand])
        if len(ys) < npts:
            continue
        x, y = np.vstack([zero, xs]), np.vstack([zero, ys])
        if cross_terms_vanish_below(QgsSet(basis), x, y, m):
            return x, y
    raise RuntimeError(f"no qualifying sets in F_{p}^{n} after 256 tries")


def _planted_tables(basis: HighRankBasis) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The membership table of QGS(basis), the digits of every point and the mask of Q_1 = 0, by rank."""
    p, n = basis.ctx.p, basis.n
    digits = ranks_to_digits(np.arange(p ** n, dtype=np.int64), p, n)
    return QgsSet(basis).membership_table(), digits, quad_forms(digits, basis.mats[:1], p)[:, 0] == 0


def _draw_x_tries(rng: np.random.Generator, p: int, n: int, count: int) -> tuple[list, int]:
    """The x triples of the planted search's next count tries, read ahead without moving rng.

    A try draws rows of n residues until two are nonzero, x_1 and x_2 (the
    rows highrank._nonzero_rows gives); when they are independent it draws
    c_1 and c_2, and x_3 = c_1 x_1 + c_2 x_2 must be nonzero and differ from
    both.  Every value is an rng.integers(0, p) draw, and numpy's bounded
    int64 draws are the same values, leaving the same generator state,
    however they are split into calls; so the tries are read from one block
    drawn ahead, and rng is set back.  Returns (index, values drawn up to
    the end of the try, [x_1, x_2, x_3]) for each try whose x's pass, and
    the values all count tries drew, for the caller to advance rng by.
    """
    state = rng.bit_generator.state
    vals: list[int] = []
    pos = 0

    def take(k: int) -> list[int]:
        nonlocal pos
        while len(vals) < pos + k:
            vals.extend(rng.integers(0, p, size=count * (2 * n + 2)).tolist())
        pos += k
        return vals[pos - k:pos]

    passed = []
    for k in range(count):
        rows: list[list[int]] = []
        while len(rows) < 2:
            row = take(n)
            if any(row):
                rows.append(row)
        x1, x2 = rows
        # independent iff some 2x2 minor is nonzero, a minor on x_1's first nonzero column if any is
        i = next(j for j, v in enumerate(x1) if v)
        if not any((x1[i] * v - x2[i] * u) % p for u, v in zip(x1, x2)):
            continue
        c1, c2 = take(2)
        x3 = [(c1 * u + c2 * v) % p for u, v in zip(x1, x2)]
        if any(x3) and x3 != x1 and x3 != x2:
            passed.append((k, pos, [x1, x2, x3]))
    rng.bit_generator.state = state
    return passed, pos


def _first_feasible_try(basis: HighRankBasis, digits: np.ndarray, good: list, passed: list) -> tuple | None:
    """The first try of passed (see _draw_x_tries) with a feasible shift z and a nonzero y-side subspace.

    z is feasible when x_i + z lies in good[i] for i = 0, ..., 3, x_0 = 0;
    one fp.shifted_ranks call gives the translates of every try.  The
    y-side subspace is the kernel of lin = the rows M_1 x_1, M_1 x_2, and
    u's coset of it is keyed by the rank of lin u.  Returns (index, values
    drawn, [x_1, x_2, x_3], their translates, the feasible shifts, lin, the
    coset of every point) or None.
    """
    if not passed:
        return None
    p, n = basis.ctx.p, basis.n
    xs = np.array([rows for _, _, rows in passed], dtype=np.int64)
    shifted = shifted_ranks(xs.reshape(-1, n), p).reshape(len(passed), 3, len(digits))
    z_ok = good[0] & good[1][shifted[:, 0]] & good[2][shifted[:, 1]] & good[3][shifted[:, 2]]
    for (k, end, _), x, sh, ok in zip(passed, xs, shifted, z_ok):
        if ok.any():
            lin = matmul_mod(x[:2], basis.mats[:1], p)[0]
            coset = digits_to_ranks(matmul_mod(digits, lin.T, p), p)
            # coset 0 is the kernel itself
            if np.count_nonzero(coset == 0) > 1:
                return k, end, x, sh, np.flatnonzero(ok), lin, coset
    return None


def _plant(basis: HighRankBasis, tables: tuple, seed: int) -> tuple[np.ndarray, np.ndarray] | None:
    """planted_qualifying_sets on the basis's _planted_tables."""
    a = QgsSet(basis)
    p, n = basis.ctx.p, basis.n
    table, digits, zero_q = tables
    rng = derive_rng(seed, "planted-instance", 2, 1)
    phi = zero_forcing_map().verdicts
    # a shift z is feasible when Q_1 vanishes at z and at each x_i + z, and x_i + z has the verdict of cell (i, 0)
    good = [zero_q, *(zero_q & (table == phi[i][0]) for i in (1, 2, 3))]
    # code(u) holds the membership of x_i + u in bit i (x_0 = 0) and Q_1(u) = 0 in bit 4; the pool of y_j is
    # the nonzero s of the y-side subspace with code(z + s) = want[j - 1], from the verdicts of column j
    want = [16 + sum(phi[i][j] << i for i in range(4)) for j in (1, 2, 3)]
    code_0 = table.view(np.uint8) + (zero_q.view(np.uint8) << 4)

    tries, batch = 0, 1
    while tries < 256:
        size = min(batch, 256 - tries)
        # the tries double from 1 to 8 while their translates stay within about 2^14 entries
        if 2 * batch <= 8 and 3 * (2 * batch) * len(table) <= 1 << 14:
            batch *= 2
        passed, drawn = _draw_x_tries(rng, p, n, size)
        found = _first_feasible_try(basis, digits, good, passed)
        if found is None:
            rng.integers(0, p, size=drawn)
            tries += size
            continue
        k, end, xs, shifted, order, lin, coset = found
        rng.integers(0, p, size=end)
        tries += k + 1

        order = order[rng.permutation(order.size)][:64]
        code = code_0.copy()
        for i in range(3):
            code += table[shifted[i]].view(np.uint8) << (i + 1)
        # z + s over the subspace points s is z's coset, so a pool is nonempty iff z's coset holds a point
        # with its code other than z itself
        full = np.ones(order.size, dtype=bool)
        for w in want:
            hit = code == w
            full &= np.bincount(coset[hit], minlength=p ** len(lin))[coset[order]] > hit[order]
        if not full.any():
            continue
        # the subspace points s in the order of their coefficients on the orth_complement basis
        space = orth_complement(lin, p)
        sub_r = digits_to_ranks(matmul_mod(digits[:p ** len(space), n - len(space):], space, p), p)
        free = sub_r != 0
        grid = np.vstack([np.zeros(n, dtype=np.int64), xs])
        for z_r in order[full]:
            codes = code[shifted_ranks(digits[z_r:z_r + 1], p)[0, sub_r]]
            ys: list[int] = []
            for w in want:
                pick = sub_r[free & (codes == w)]
                for y in ys:
                    pick = pick[pick != y]
                if not pick.size:
                    ys = []
                    break
                ys.append(int(pick[rng.integers(0, pick.size)]))
            if len(ys) != 3:
                continue
            # rank 0 is the origin
            x, y = grid, digits[[0, *ys]]
            if cross_terms_vanish_below(a, x, y, 2):
                return x, y
    return None


def planted_qualifying_sets(basis: HighRankBasis, seed: int = 0) -> tuple[np.ndarray, np.ndarray] | None:
    """Qualifying point arrays (X, Y) for the level m = 2, built around a planted realizing shift.

    Level-1 cross-terms are forced to vanish, so the instance satisfies the
    probe hypothesis at m = 2.  The x's are taken inside a 2-dimensional
    span to keep the y-side subspace large: x_1, x_2 are drawn until they
    are independent mod p, and x_3 is a further combination of them.  Up to
    256 tries are tested in batches read ahead from the seeded stream (see
    _draw_x_tries), 1, 2, 4 and then 8 tries while their translates stay
    small, so each try draws what a loop of one try at a time would.  The
    first try with a feasible shift scans at most 64 of them in a seeded
    order; the shifts whose three y-pools are nonempty, read at once from
    counts over the cosets of the y-side subspace, pick their y's in turn.
    Returns None when the seeded search fails.
    """
    return _plant(basis, _planted_tables(basis), seed)


@dataclass(frozen=True)
class ForcedZeroInstance:
    index: int
    m: int
    realizing_shifts: int
    vacuous: bool
    ok: bool
    detail: str


def forced_zero_probe(basis: HighRankBasis, instances: int = 20, seed: int = 0) -> list[ForcedZeroInstance]:
    """Exhaustive shift search over seeded qualifying (X, Y) instances.

    Even-numbered instances check the level m = 1 and odd-numbered ones
    m = 2.  Odd-numbered instances are planted so that at least one
    realizing shift exists, and drawn blind when the plant fails;
    even-numbered ones are drawn blind and usually admit none.  The group
    must have between 4 and PROBE_MAX_GROUP points.  Every z realizing the
    zero-forcing map (under either assignment of the free corner) is
    checked; instances with no realizing z are recorded as vacuous passes.
    """
    if instances < 1:
        raise ValueError(f"instances must be at least 1, got {instances}")
    a = QgsSet(basis)
    p, n = a.p, a.n
    if p ** n > PROBE_MAX_GROUP:
        raise ValueError(f"group too large for the forced-zero probe (p**n > {PROBE_MAX_GROUP})")
    tables = _planted_tables(basis)
    table = tables[0]
    out = []
    phi = zero_forcing_map()
    for idx in range(instances):
        m = 1 + idx % 2
        planted = _plant(basis, tables, seed * 1000 + idx) if m == 2 else None
        if planted is not None:
            x, y = planted
        else:
            x, y = random_zero_cross_term_sets(basis, m, seed=seed * 1000 + idx)
        # phi leaves the (0,0) corner unassigned, so one scan yields the shifts for both of its verdicts
        realizers = ranks_to_digits(np.flatnonzero(realizing_shifts(a, table, x, y, phi)), p, n)
        if not len(realizers):
            out.append(ForcedZeroInstance(idx, m, 0, True, True, "vacuous: no realizing shift"))
            continue
        verdict = CheckResult(True, "")
        for z in realizers:
            verdict = check_forced_zeros(a, x, y, m, z)
            if not verdict.ok:
                break
        out.append(ForcedZeroInstance(idx, m, len(realizers), False, verdict.ok,
                                      verdict.detail or "all realizing shifts satisfy the conclusions"))
    return out
