"""Shattering search: VC-dimension by translates, quadratic shattering by shifts.

The linear search enumerates every translate y once per candidate set,
collects the achieved pattern bitmasks, and tests completeness; candidate
sets are grown only from already-shattered sets (shattering is monotone
under subsets), with the representative fixed to contain 0 (shattering is
translation invariant).  Points are (m, n) int64 arrays of residues, one
point per row (see fp.as_points); a single point is a length-n row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .fp import FieldCtx, add_mod, as_points, freeze_points, iter_group_chunks, ranks_to_digits, shifted_ranks


class MembershipOracle(Protocol):
    """Total membership predicate on F_p^n."""

    ctx: FieldCtx

    @property
    def p(self) -> int: ...

    @property
    def n(self) -> int: ...

    def contains(self, x) -> bool: ...

    def contains_digits(self, digits: np.ndarray) -> np.ndarray: ...

    def contains_translates(self, cells: np.ndarray, shifts: np.ndarray) -> np.ndarray: ...

    def membership_table(self) -> np.ndarray: ...


MAX_SET_SIZE = 20
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

    Enumerates at most MAX_GROUP_ENUM translates, the one group-size guard of
    shatters and vc2_shatters; add_mod runs in the narrowest signed dtype holding -p, int8 for p <= 127."""
    p, n = a.p, a.n
    if p ** n > MAX_GROUP_ENUM:
        raise ValueError(f"group too large to enumerate translates (p**n > {MAX_GROUP_ENUM})")
    k = s_digits.shape[0]
    first = np.full(1 << k, -1, dtype=np.int64)
    dtype = np.min_scalar_type(-p)
    s_digits = s_digits.astype(dtype)
    for start, block in iter_group_chunks(p, n, 1 << 15):
        block = block.astype(dtype)
        pat = np.zeros(block.shape[0], dtype=np.int64)
        for i in range(k):
            pat |= a.contains_digits(add_mod(block, s_digits[i], p)).astype(np.int64) << i
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
    """T[v, y] = table[rank(v + y)], as a uint8 0/1 matrix."""
    total = table.shape[0]
    digits = ranks_to_digits(np.arange(total, dtype=np.int64), p, n)
    out = np.empty((total, total), dtype=np.uint8)
    block = max(1, (1 << 20) // max(total, 1))
    for v0 in range(0, total, block):
        out[v0:v0 + block] = table[shifted_ranks(digits[v0:v0 + block], p)]
    return out


def vc_dim(a: MembershipOracle, k_max: int = 4) -> VcDimResult:
    """Largest k <= k_max with a shattered k-set, plus a certificate for it.

    Only candidate sets containing 0 are searched (any shattered set has a
    shattered translate through 0), and v extends a level-set s only if every
    other level-subset through 0 of s + {v} is already shattered.  Sets are
    searched in lexicographic rank order, so the certificate is for the first
    shattered set of the largest size found; at k_max the search stops there.
    """
    p, n = a.p, a.n
    total = p ** n
    if total > MAX_VCDIM_GROUP:
        raise ValueError(f"group too large for the vc_dim table search (p**n > {MAX_VCDIM_GROUP})")
    if not 1 <= k_max <= 14:
        raise ValueError("k_max out of range")
    table = a.membership_table()
    if not table.any() or table.all():
        return VcDimResult(0, None)
    tt = _translate_table(table, p, n)

    def certificate_for(ranks) -> ShatterCertificate:
        cert = shatters(a, ranks_to_digits(ranks, p, n))
        if not isinstance(cert, ShatterCertificate):
            raise RuntimeError(f"frontier set {tuple(ranks)} is not shattered: table search and pattern scan disagree")
        return cert

    # every shattered level-set through 0, as sorted rank rows in lexicographic order;
    # patterns are rebuilt from tt when needed, so the frontier holds ranks only
    frontier = np.zeros((1, 1), dtype=np.int64)
    for level in range(1, k_max):
        # masks[g, v]: the g-th (level-1)-prefix of the frontier, extended by v, is in the frontier;
        # rows sharing a prefix are adjacent, since the frontier is sorted
        starts = np.ones(frontier.shape[0], dtype=bool)
        starts[1:] = (frontier[1:, :-1] != frontier[:-1, :-1]).any(axis=1)
        masks = np.zeros((int(starts.sum()), total), dtype=bool)
        masks[np.cumsum(starts) - 1, frontier[:, -1]] = True
        mask_of = dict(zip(map(tuple, frontier[starts, :-1].tolist()), masks))
        weights = np.int16(1) << np.arange(level, dtype=np.int16)
        classes = np.arange(1 << level, dtype=np.int16)
        above, none = np.arange(total), np.zeros(total, dtype=bool)
        nxt = []
        for s in frontier.tolist():
            ok = above > s[-1]
            for i in range(1, level):
                ok &= mask_of.get(tuple(s[:i] + s[i + 1:]), none)
            cands = np.flatnonzero(ok)
            if cands.size == 0:
                continue
            # s is shattered, so s + {v} is shattered iff v + y is in the set for some but not all y
            # in each class Y_P of translates with pattern P on s; count[j, P] counts them for
            # v = cands[j], all in one float64 GEMM, exact since each count is at most p**n < 2**53
            pat = weights @ tt[s]
            onehot = (pat[:, None] == classes).astype(np.float64)
            count = (tt[cands].astype(np.float64) @ onehot).astype(np.int64)
            hits = cands[((count > 0) & (count < np.bincount(pat, minlength=classes.size))).all(axis=1)]
            if hits.size and level + 1 == k_max:
                return VcDimResult(k_max, certificate_for(s + [hits[0]]))
            if hits.size:
                nxt.append(np.column_stack((np.broadcast_to(s, (hits.size, level)), hits)))
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


def vc2_realizes(a: MembershipOracle, x, y, phi: ContainmentMap, z) -> bool:
    """True iff membership of x_i + y_j + z matches phi on every assigned cell."""
    x, y, z = as_points(x, a.p, a.n), as_points(y, a.p, a.n), as_points([z], a.p, a.n)
    if len(x) != phi.k + 1 or len(y) != phi.k + 1:
        raise ValueError("grid size mismatch between X, Y and phi")
    want = [v for row in phi.verdicts for v in row]
    return all(w is None or w == got for w, got in zip(want, grid_verdicts(a, x, y, z)[0].tolist()))


def realizing_shifts(a: MembershipOracle, table: np.ndarray, x, y, phi: ContainmentMap) -> np.ndarray:
    """Mask over F_p^n in rank order: True at each z realizing phi on the grid x_i + y_j + z.

    table is a.membership_table(), which callers compute once; unassigned
    cells of a partial phi impose nothing.  The assigned cells are gathered
    from table in blocks of at most 2^20 translates.
    """
    p, n = a.p, a.n
    x, y = as_points(x, p, n), as_points(y, p, n)
    if len(x) != phi.k + 1 or len(y) != phi.k + 1:
        raise ValueError("grid size mismatch between X, Y and phi")
    verdicts = [v for row in phi.verdicts for v in row]
    assigned = np.array([v is not None for v in verdicts], dtype=bool)
    cells = add_mod(x[:, None], y[None, :], p).reshape(-1, n)[assigned]
    want = np.array([bool(v) for v in verdicts])[assigned]
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
    if not 1 <= k <= 3:
        raise ValueError("grid size k must be between 1 and 3")
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
