"""Membership oracles for the linear and quadratic Green-Sanders sets.

GS(p, n) contains the vectors whose first nonzero coordinate equals 1.
QGS(p, n) contains the vectors whose first nonzero value in the sequence
Q_1(x), ..., Q_n(x) equals 1, where Q_t(x) = x^T M_t x for a basis
M_1, ..., M_n of symmetric matrices with the full-rank-combination property.

Each oracle answers membership of residue rows (contains_digits) and of
translates: contains_translates(cells, shifts) is the (m, w) membership of
cells[j] + shifts[i], the replay of a certificate's cells under its witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fp import FieldCtx, add_mod, as_points, digits_to_ranks, iter_group_chunks, matmul_mod, quad_forms
from .highrank import HighRankBasis


def _contains(a, x) -> bool:
    """Membership of one point, as a one-row contains_digits call."""
    return bool(a.contains_digits(as_points([x], a.p, a.n))[0])


def _contains_translates(a, cells: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """(m, w) membership of cells[j] + shifts[i], one contains_digits call on the m shifts per cell."""
    out = np.empty((len(shifts), len(cells)), dtype=bool)
    for j, c in enumerate(cells):
        out[:, j] = a.contains_digits(add_mod(shifts, c, a.p))
    return out


def _membership_table(a) -> np.ndarray:
    """Membership of every vector of F_p^n, indexed by rank."""
    out = np.empty(a.p ** a.n, dtype=bool)
    for start, block in iter_group_chunks(a.p, a.n):
        out[start:start + block.shape[0]] = a.contains_digits(block)
    return out


def cross_terms(x: np.ndarray, y: np.ndarray, mats: np.ndarray, p: int) -> np.ndarray:
    """(|x|, |y|, t) array of 2 x^T M y mod p over the rows of x and y and the t matrices.

    By polarization, Q(x + y) - Q(x) - Q(y), from one quad_forms call.
    """
    sums = add_mod(x[:, None], y[None, :], p).reshape(-1, x.shape[1])
    q = quad_forms(np.concatenate([sums, x, y]), mats, p)
    qs, qx, qy = np.split(q, [len(sums), len(sums) + len(x)])
    return ((qs.reshape(len(x), len(y), len(mats)) - qx[:, None]) % p - qy[None, :]) % p


@dataclass(frozen=True)
class GsSet:
    """The linear Green-Sanders set in F_p^n."""

    ctx: FieldCtx
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")

    @property
    def p(self) -> int:
        return self.ctx.p

    contains = _contains

    def contains_digits(self, digits: np.ndarray) -> np.ndarray:
        """Vectorized membership for an (m, n) coordinate block."""
        nz = digits != 0
        has = nz.any(axis=1)
        first = np.argmax(nz, axis=1)
        vals = digits[np.arange(digits.shape[0]), first]
        return has & (vals == 1)

    contains_translates = _contains_translates
    membership_table = _membership_table


@dataclass(frozen=True)
class QgsSet:
    """The quadratic Green-Sanders set determined by a high-rank basis."""

    basis: HighRankBasis

    @property
    def ctx(self) -> FieldCtx:
        return self.basis.ctx

    @property
    def p(self) -> int:
        return self.basis.ctx.p

    @property
    def n(self) -> int:
        return self.basis.n

    def _forms(self, t: int, points: np.ndarray) -> np.ndarray:
        """Q_t on each row of points, t in [1, n]."""
        if not 1 <= t <= self.n:
            raise ValueError(f"form index {t} out of range [1, {self.n}]")
        return quad_forms(points, self.basis.mats[t - 1:t], self.p)[:, 0]

    def eval_q(self, t: int, x) -> int:
        """Q_t(x) = x^T M_t x mod p, with t in [1, n]."""
        return int(self._forms(t, as_points([x], self.p, self.n))[0])

    contains = _contains

    def contains_digits(self, digits: np.ndarray) -> np.ndarray:
        """Vectorized membership of residue rows (see fp.as_points): scan Q_1, Q_2, ... short-circuiting per row."""
        m = digits.shape[0]
        member = np.zeros(m, dtype=bool)
        undecided = np.ones(m, dtype=bool)
        for t in range(1, self.n + 1):
            if not undecided.any():
                break
            idx = np.flatnonzero(undecided)
            q = self._forms(t, digits[idx])
            hit = q != 0
            member[idx[hit]] = q[hit] == 1
            undecided[idx[hit]] = False
        return member

    def contains_translates(self, cells: np.ndarray, shifts: np.ndarray) -> np.ndarray:
        """(m, w) membership of cells[j] + shifts[i] for residue rows cells (w, n) and shifts (m, n).

        By polarization Q_t(c + z) = Q_t(c) + 2 (M_t c).z + Q_t(z), exact mod p since each M_t
        is symmetric.  Q_t(c) and 2 M_t c are formed for all levels at once; each level of the
        scan then costs one form per shift and one (shifts x n) (n x w) product, not one form
        per cell, and a shift leaves the scan once each of its cells is decided.
        """
        p, mats = self.p, self.basis.mats
        member = np.zeros((len(shifts), len(cells)), dtype=bool)
        qc = quad_forms(cells, mats, p)  # (w, n): Q_t(c_j) at [j, t - 1]
        twice = matmul_mod(mats, add_mod(cells, cells, p).T, p)  # (n, n, w): 2 M_t c_j in column j of [t - 1]
        # the shifts still in the scan: their rows of member, their coordinates, their undecided cells
        rows, z, open_ = np.arange(len(shifts)), shifts, np.ones_like(member)
        for t in range(self.n):
            q = add_mod(add_mod(matmul_mod(z, twice[t], p), qc[:, t], p), quad_forms(z, mats[t:t + 1], p), p)
            member[rows] |= open_ & (q == 1)
            open_ &= q == 0
            keep = open_.any(axis=1)
            if not keep.any():
                break
            rows, z, open_ = rows[keep], z[keep], open_[keep]
        return member

    membership_table = _membership_table


@dataclass(frozen=True, eq=False)
class ExplicitSet:
    """Membership oracle backed by an explicit bitset over group ranks."""

    ctx: FieldCtx
    n: int
    table: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.table, dtype=bool)
        if t.shape != (self.ctx.p ** self.n,):
            raise ValueError("table must cover the whole group")
        t.flags.writeable = False
        object.__setattr__(self, "table", t)

    @property
    def p(self) -> int:
        return self.ctx.p

    contains = _contains

    def contains_digits(self, digits: np.ndarray) -> np.ndarray:
        return self.table[digits_to_ranks(digits, self.p)]

    contains_translates = _contains_translates

    def membership_table(self) -> np.ndarray:
        return self.table
