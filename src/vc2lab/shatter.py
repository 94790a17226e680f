"""Shattering search: VC-dimension by translates, quadratic shattering by shifts.

shatters and vc2_shatters scan the translates in rank order until every
pattern is met.  vc_dim grows sets through 0 only from shattered sets
(shattering is monotone under subsets and translation invariant): s + {v} is
shattered iff v + y lies in the set for some but not all translates y of each
pattern class of s, which counts over a translate table decide.  Points are
(m, n) int64 arrays of residues, one point per row (see fp.as_points).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .fp import FieldCtx, _blas_dtype, add_mod, as_points, freeze_points, iter_group_chunks, ranks_to_digits, shifted_ranks


class MembershipOracle(Protocol):
    """Total membership predicate on F_p^n: a set implements contains_translates (see vc2lab.gs)."""

    ctx: FieldCtx

    @property
    def p(self) -> int: ...

    @property
    def n(self) -> int: ...

    def contains(self, x) -> bool: ...

    def contains_digits(self, digits: np.ndarray) -> np.ndarray: ...

    def contains_translates(self, cells: np.ndarray, shifts: np.ndarray) -> np.ndarray: ...

    def membership_table(self) -> np.ndarray: ...


# the largest set shatters takes and the largest grid side vc2_shatters takes; the verifier
# replays certificates within the same bounds
MAX_SET_SIZE = 20
MAX_GRID_K = 3
MAX_GROUP_ENUM = 10 ** 8
# vc_dim materializes an N x N translate table; keep it modest.
MAX_VCDIM_GROUP = 6000


@dataclass(frozen=True)
class ContainmentMap:
    """Verdict grid on [0, k]^2; True means the cell lands in the set.

    None marks an unassigned cell of a partial map.
    """

    k: int
    verdicts: tuple[tuple[bool | None, ...], ...]

    def __post_init__(self) -> None:
        if len(self.verdicts) != self.k + 1 or any(len(r) != self.k + 1 for r in self.verdicts):
            raise ValueError("verdict grid must be (k+1) x (k+1)")

    def is_total(self) -> bool:
        return all(v is not None for row in self.verdicts for v in row)

    def to_index(self) -> int:
        """Bit (i*(k+1)+j) set means the cell (i, j) is a complement cell.

        Index 0 is therefore the all-in-set map.
        """
        if not self.is_total():
            raise ValueError("partial map has no index")
        side = self.k + 1
        idx = 0
        for i in range(side):
            for j in range(side):
                if not self.verdicts[i][j]:
                    idx |= 1 << (i * side + j)
        return idx

    @staticmethod
    def from_index(k: int, idx: int) -> "ContainmentMap":
        side = k + 1
        if k < 0:
            raise ValueError(f"grid size k = {k} is negative")
        if not 0 <= idx < 1 << side * side:
            raise ValueError(f"map index {idx} outside [0, {1 << side * side})")
        rows = tuple(
            tuple(not (idx >> (i * side + j)) & 1 for j in range(side))
            for i in range(side)
        )
        return ContainmentMap(k, rows)


@dataclass(frozen=True, eq=False)
class ShatterCertificate:
    """One translate witness per subset bitmask; bit i covers S[i].  Read-only point arrays."""

    S: np.ndarray
    witnesses: np.ndarray

    def __post_init__(self) -> None:
        freeze_points(self, "S", "witnesses")
        if len(self.witnesses) != 1 << len(self.S):
            raise ValueError("need one witness per subset")


@dataclass(frozen=True)
class NotShattered:
    # shatters: the smallest unachieved subset bitmask; vc2_shatters: the smallest map index with no shift
    missing: int


@dataclass(frozen=True, eq=False)
class QuadShatterCertificate:
    """One shift witness per containment map index on the [0, k-1]^2 grid.  Read-only point arrays."""

    X: np.ndarray
    Y: np.ndarray
    witnesses: np.ndarray

    def __post_init__(self) -> None:
        freeze_points(self, "X", "Y", "witnesses")
        k = len(self.X)
        if len(self.Y) != k:
            raise ValueError("X and Y must have equal size")
        if len(self.witnesses) != 1 << (k * k):
            raise ValueError("need one witness per containment map")


@dataclass(frozen=True)
class VcDimResult:
    dim: int
    certificate: ShatterCertificate | None


def _pattern_scan(a: MembershipOracle, s_digits: np.ndarray) -> np.ndarray:
    """First translate rank achieving each bitmask (-1 where unachieved), stopping once all are.

    Each block of translates is one contains_translates call on the cells, bit i of a pattern
    covering s_digits[i].  Enumerates at most MAX_GROUP_ENUM translates, the one group-size guard
    of shatters and vc2_shatters; cells and translates are passed in the narrowest signed dtype
    holding -p, int8 for p <= 127, in which fp.add_mod sums them."""
    p, n = a.p, a.n
    if p ** n > MAX_GROUP_ENUM:
        raise ValueError(f"group too large to enumerate translates (p**n > {MAX_GROUP_ENUM})")
    k = s_digits.shape[0]
    first = np.full(1 << k, -1, dtype=np.int64)
    dtype = np.min_scalar_type(-p)
    cells, weights = s_digits.astype(dtype), 1 << np.arange(k)
    for start, block in iter_group_chunks(p, n, 1 << 15):
        pat = a.contains_translates(cells, block.astype(dtype)) @ weights
        uniq, idx = np.unique(pat, return_index=True)
        for u, i in zip(uniq, idx):
            if first[u] < 0:
                first[u] = start + i
        if (first >= 0).all():
            break
    return first


def shatters(a: MembershipOracle, s) -> ShatterCertificate | NotShattered:
    """Find a translate witness per subset of s, or the smallest missing bitmask."""
    if len(s) == 0:
        raise ValueError("empty candidate set")
    if len(s) > MAX_SET_SIZE:
        raise ValueError(f"|S| must be <= {MAX_SET_SIZE}")
    s = as_points(s, a.p, a.n)
    first = _pattern_scan(a, s)
    missing = np.flatnonzero(first < 0)
    if missing.size:
        return NotShattered(int(missing[0]))
    return ShatterCertificate(s, ranks_to_digits(first, a.p, a.n))


def _translate_table(table: np.ndarray, p: int, n: int) -> np.ndarray:
    """T[v, y] = table[rank(v + y)], as a uint8 0/1 matrix, from blocks of at most 2^18 ranks (512 KB
    of uint16 at most, as p^n <= MAX_VCDIM_GROUP), the largest array built beside T."""
    total = table.shape[0]
    digits = ranks_to_digits(np.arange(total, dtype=np.int64), p, n)
    out = np.empty((total, total), dtype=np.uint8)
    block = max(1, (1 << 18) // max(total, 1))
    for v0 in range(0, total, block):
        out[v0:v0 + block] = table[shifted_ranks(digits[v0:v0 + block], p)]
    return out


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """Each row of ranks (all below 2^16) as one bytes key: big-endian uint16 bytes compare as
    the rows do lexicographically, so the keys sort, and searchsorted, exactly at every width."""
    rows = np.ascontiguousarray(rows, dtype=">u2")
    return rows.view(np.dtype((np.void, 2 * rows.shape[1]))).ravel()


def _row_index(keys: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Index of each row of rows in the non-empty sorted key array keys (from _row_keys), -1 where
    absent."""
    q = _row_keys(rows)
    idx = np.minimum(np.searchsorted(keys, q), keys.size - 1)
    return np.where(keys[idx] == q, idx, -1)


def _all_last_axis(flags: np.ndarray) -> np.ndarray:
    """flags.all(axis=-1) for a C-contiguous bool array whose last axis has a power-of-two length.

    numpy reduces a short last axis one element at a time, so up to 8 flags are read at once as
    one little-endian word, all of whose bytes are 1 exactly when all of its flags are True."""
    width = min(flags.shape[-1], 8)
    return (flags.view(f"<u{width}") == int.from_bytes(b"\x01" * width, "little")).all(axis=-1)


# vc_dim's frontier sets per chunk: at most _CHUNK_ENTRIES one-hot entries (translates x sets x
# classes), but at least one set.  At the last level chunks start at _FIRST_CHUNK sets and grow 4x,
# so a search that hits early does not pay for the whole level
_CHUNK_ENTRIES = 1 << 19
_FIRST_CHUNK = 8
# rows of tt per count GEMM: neither the float32 row block nor its product exceeds _GEMM_ENTRIES
_GEMM_ENTRIES = 1 << 17


def vc_dim(a: MembershipOracle, k_max: int = 4) -> VcDimResult:
    """Largest k <= k_max with a shattered k-set, plus a certificate for it.

    Only candidate sets containing 0 are searched (any shattered set has a
    shattered translate through 0), and v extends a level-set s only if every
    other level-subset through 0 of s + {v} is already shattered.  Sets are
    searched in lexicographic rank order, so the certificate is for the first
    shattered set of the largest size found; at k_max the search stops there.

    Each level runs in array passes over chunks of frontier sets.  A chunk's
    candidate masks come from one sorted-key lookup per sub-prefix, and the
    class counts of all its (set, candidate) pairs from float32 GEMMs of
    translate rows against the indicator columns of all classes but the last
    of each set, whose count is |A| minus the others'; every count is at
    most p^n < 2^24, so each is exact.  Hits are taken in (set, candidate)
    order, the order of a loop over sets and then candidates, so the
    certificate does not depend on the chunking.
    """
    p, n = a.p, a.n
    total = p ** n
    if total > MAX_VCDIM_GROUP:
        raise ValueError(f"group too large for the vc_dim table search (p**n > {MAX_VCDIM_GROUP})")
    if not 1 <= k_max <= 14:
        raise ValueError(f"k_max must be in [1, 14], got {k_max}")
    table = a.membership_table()
    if not table.any() or table.all():
        return VcDimResult(0, None)
    tt = _translate_table(table, p, n)
    # every count is at most |A| <= p^n, so the count GEMMs run in _blas_dtype's float32
    members, blas = int(table.sum()), _blas_dtype(total)

    def certificate_for(ranks) -> ShatterCertificate:
        cert = shatters(a, ranks_to_digits(ranks, p, n))
        if not isinstance(cert, ShatterCertificate):
            raise RuntimeError(f"frontier set {tuple(ranks)} is not shattered: table search and pattern scan disagree")
        return cert

    # every shattered level-set through 0, as sorted rank rows in lexicographic order;
    # patterns are rebuilt from tt when needed, so the frontier holds ranks only
    frontier = np.zeros((1, 1), dtype=np.int64)
    ys = np.arange(total, dtype=np.int64)
    for level in range(1, k_max):
        # masks[g, v]: the g-th (level-1)-prefix of the frontier, extended by v, is in the frontier;
        # rows sharing a prefix are adjacent, since the frontier is sorted.  The extra last row is
        # all False, the mask of a prefix not in the frontier (index -1)
        starts = np.ones(frontier.shape[0], dtype=bool)
        starts[1:] = False
        for j in range(level - 1):
            starts[1:] |= frontier[1:, j] != frontier[:-1, j]
        masks = np.zeros((int(starts.sum()) + 1, total), dtype=bool)
        masks[np.cumsum(starts) - 1, frontier[:, -1]] = True
        keys = _row_keys(frontier[starts, :-1])
        last = level + 1 == k_max
        most = max(1, _CHUNK_ENTRIES // (total << level))
        size = min(_FIRST_CHUNK, most) if last else most
        nxt = []
        c0 = 0
        while c0 < frontier.shape[0]:
            sets = frontier[c0:c0 + size]
            c0 += size
            size = min(4 * size, most)
            m = sets.shape[0]
            # ok[c, v]: v > max(s_c) and every other level-subset through 0 of s_c + {v} is shattered
            ok = ys > sets[:, -1:]
            for i in range(1, level):
                ok &= masks[_row_index(keys, np.delete(sets, i, axis=1))]
            cands = np.flatnonzero(ok.any(axis=0))
            if cands.size == 0:
                continue
            # s is shattered, so s + {v} is shattered iff v + y is in the set for some but not all y
            # in each class Y_P of translates with pattern P on s; class sizes are one bincount.  The
            # counts of a set's classes sum to |A|, so only the first w = 2^level - 1 are multiplied:
            # column c w + P of onehot marks the translates of class P < w of set c, and the last
            # class marks the spare column cols, which no GEMM reads
            pat = tt[sets[:, 0]].astype(np.int64)
            for j in range(1, level):
                pat += tt[sets[:, j]].astype(np.int64) << j
            w = (1 << level) - 1
            cols, sid = m * w, np.arange(m, dtype=np.int64)[:, None]
            sizes = np.bincount(((sid << level) + pat).ravel(), minlength=m << level).reshape(m, w + 1).astype(blas)
            onehot = np.zeros((total, cols + 1), dtype=blas)
            onehot.ravel()[np.where(pat == w, cols, sid * w + pat) + ys * (cols + 1)] = 1
            # hit[c, j]: cands[j] extends set c; each row block of tt multiplies only the columns of
            # the sets with a candidate in it, a contiguous run
            hit = ok[:, cands]
            rows = max(1, _GEMM_ENTRIES // max(total, cols))
            for r0 in range(0, cands.size, rows):
                live = np.flatnonzero(hit[:, r0:r0 + rows].any(axis=1))
                lo, hi = live[0], live[-1] + 1
                block = tt[cands[r0:r0 + rows]].astype(blas) @ onehot[:, lo * w:hi * w]
                count = np.empty((block.shape[0], hi - lo, w + 1), dtype=blas)
                count[..., :w] = block.reshape(-1, hi - lo, w)
                count[..., w] = members - count[..., :w].sum(axis=-1)
                hit[lo:hi, r0:r0 + rows] &= _all_last_axis((count > 0) & (count < sizes[lo:hi])).T
            # hits in row-major (set, v) order, the order of a loop over sets and then candidates
            hit_set, hit_v = np.nonzero(hit)
            if hit_set.size and last:
                return VcDimResult(k_max, certificate_for(np.append(sets[hit_set[0]], cands[hit_v[0]])))
            if hit_set.size:
                grown = np.empty((hit_set.size, level + 1), dtype=np.int64)
                grown[:, :level] = sets.take(hit_set, axis=0)
                grown[:, level] = cands[hit_v]
                nxt.append(grown)
        if not nxt:
            return VcDimResult(level, certificate_for(frontier[0]))
        frontier = np.concatenate(nxt)
    return VcDimResult(k_max, certificate_for(frontier[0]))


def grid_verdicts(a: MembershipOracle, x: np.ndarray, y: np.ndarray, zs: np.ndarray) -> np.ndarray:
    """(m, |x| |y|) membership of x_i + y_j + z for the m rows z of zs, cell (i, j) in column i |y| + j.

    x, y and zs are residue rows (see fp.as_points); every grid goes through one contains_translates
    call on the cells x_i + y_j, so no (m |x| |y|, n) array of sums is formed.
    """
    return a.contains_translates(add_mod(x[:, None], y[None, :], a.p).reshape(-1, a.n), zs)


def _assigned_cells(a: MembershipOracle, x, y, phi: ContainmentMap) -> tuple[np.ndarray, np.ndarray]:
    """The cells x_i + y_j that phi assigns, in row-major grid order, and the verdicts it wants there."""
    p, n = a.p, a.n
    x, y = as_points(x, p, n), as_points(y, p, n)
    if len(x) != phi.k + 1 or len(y) != phi.k + 1:
        raise ValueError("grid size mismatch between X, Y and phi")
    verdicts = [v for row in phi.verdicts for v in row]
    assigned = np.array([v is not None for v in verdicts], dtype=bool)
    return add_mod(x[:, None], y[None, :], p).reshape(-1, n)[assigned], np.array([bool(v) for v in verdicts])[assigned]


def vc2_realizes(a: MembershipOracle, x, y, phi: ContainmentMap, z) -> bool:
    """True iff membership of x_i + y_j + z matches phi on every assigned cell."""
    z = as_points([z], a.p, a.n)
    cells, want = _assigned_cells(a, x, y, phi)
    return bool((a.contains_translates(cells, z)[0] == want).all())


def realizing_shifts(a: MembershipOracle, table: np.ndarray, x, y, phi: ContainmentMap) -> np.ndarray:
    """Mask over F_p^n in rank order: True at each z realizing phi on the grid x_i + y_j + z.

    table is a.membership_table(), which callers compute once; unassigned
    cells of a partial phi impose nothing.  The assigned cells are gathered
    from table in blocks of at most 2^20 translates.
    """
    p, n = a.p, a.n
    cells, want = _assigned_cells(a, x, y, phi)
    ok = np.ones(p ** n, dtype=bool)
    block = max(1, (1 << 20) // p ** n)
    for c0 in range(0, len(cells), block):
        ok &= (table[shifted_ranks(cells[c0:c0 + block], p)] == want[c0:c0 + block, None]).all(axis=0)
    return ok


def vc2_shatters(a: MembershipOracle, x, y) -> QuadShatterCertificate | NotShattered:
    """Witness every containment map on the [0, k-1]^2 grid, or report the first map with no shift.

    X and Y have size k with x_0 = y_0 = 0.  One pattern scan runs over the k^2
    cells x_i + y_j, cell (i, j) in row i k + j: a shift z realizes map idx iff
    the pattern of the cells + z is full ^ idx, since a set bit of idx marks a
    complement cell.  Coinciding cells need no check of their own: no shift
    separates them, so no map that does is ever witnessed.
    """
    k = len(x)
    if len(y) != k:
        raise ValueError("X and Y must have equal size")
    if not 1 <= k <= MAX_GRID_K:
        raise ValueError(f"grid size k must be between 1 and {MAX_GRID_K}")
    p, n = a.p, a.n
    x, y = as_points(x, p, n), as_points(y, p, n)
    if x[0].any() or y[0].any():
        raise ValueError("x_0 and y_0 must both be 0")
    full = (1 << (k * k)) - 1
    first = _pattern_scan(a, add_mod(x[:, None], y[None, :], p).reshape(-1, n))[full ^ np.arange(full + 1)]
    missing = np.flatnonzero(first < 0)
    if missing.size:
        return NotShattered(int(missing[0]))
    return QuadShatterCertificate(x, y, ranks_to_digits(first, p, n))
