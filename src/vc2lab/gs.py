"""Membership oracles for the linear and quadratic Green-Sanders sets.

A point lies in GS(p, n) when its first nonzero coordinate equals 1, and in
QGS(p, n) when the first nonzero value of Q_1(x), ..., Q_n(x) equals 1, where
Q_t(x) = x^T M_t x for a basis M_1, ..., M_n of symmetric matrices with the
full-rank-combination property; _leading_one is that rule.  Each set implements
one membership method, contains_translates(cells, shifts), the (m, w)
membership of cells[j] + shifts[i]; contains_digits (the translates of the
origin), contains and membership_table are shared functions built on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fp import FieldCtx, _mod, add_mod, as_points, digits_to_ranks, iter_group_chunks, matmul_mod, quad_forms
from .highrank import HighRankBasis


def _leading_one(values: np.ndarray) -> np.ndarray:
    """The membership rule along the last axis: the first nonzero value is 1 (an all-zero row reads 0)."""
    return np.take_along_axis(values, (values != 0).argmax(axis=-1)[..., None], axis=-1)[..., 0] == 1


def _polar(mats: np.ndarray, x: np.ndarray, p: int) -> np.ndarray:
    """(t, n, w) array of the polar forms 2 M_t x mod p: column j of [t] is 2 M_t x_j for the rows x_j of x."""
    return matmul_mod(mats, add_mod(x, x, p).T, p)


def _contains(a, x) -> bool:
    """Membership of one point, as a one-row contains_digits call."""
    return bool(a.contains_digits(as_points([x], a.p, a.n))[0])


def _contains_digits(a, digits: np.ndarray) -> np.ndarray:
    """Membership of residue rows (see fp.as_points): the translates of the origin."""
    return a.contains_translates(np.zeros((1, a.n), dtype=digits.dtype), digits)[:, 0]


def _membership_table(a) -> np.ndarray:
    """Membership of every vector of F_p^n, indexed by rank."""
    out = np.empty(a.p ** a.n, dtype=bool)
    for start, block in iter_group_chunks(a.p, a.n):
        out[start:start + block.shape[0]] = a.contains_digits(block)
    return out


def cross_terms(x: np.ndarray, y: np.ndarray, mats: np.ndarray, p: int) -> np.ndarray:
    """(|x|, |y|, t) array of 2 x^T M y mod p over the rows of x and y and the t matrices."""
    return matmul_mod(y, _polar(mats, x, p), p).transpose(2, 1, 0)


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

    def contains_translates(self, cells: np.ndarray, shifts: np.ndarray) -> np.ndarray:
        """(m, w) membership of cells[j] + shifts[i] for residue rows cells (w, n) and shifts (m, n):
        the leading-value rule on the coordinates of the (m, w, n) sums."""
        return _leading_one(add_mod(shifts[:, None], cells[None], self.p))

    contains = _contains
    contains_digits = _contains_digits
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

    def eval_q(self, t: int, x) -> int:
        """Q_t(x) = x^T M_t x mod p, with t in [1, n]."""
        if not 1 <= t <= self.n:
            raise ValueError(f"form index {t} out of range [1, {self.n}]")
        return int(quad_forms(as_points([x], self.p, self.n), self.basis.mats[t - 1:t], self.p)[0, 0])

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
        twice = _polar(mats, cells, p)  # (n, n, w): 2 M_t c_j in column j of [t - 1]
        # the shifts still in the scan: their rows of member, their coordinates, their undecided cells
        rows, z, open_ = np.arange(len(shifts)), shifts, np.ones_like(member)
        for t in range(self.n):
            q = _mod(matmul_mod(z, twice[t], p) + qc[:, t] + quad_forms(z, mats[t:t + 1], p), p)
            member[rows] |= open_ & (q == 1)
            open_ &= q == 0
            keep = open_.any(axis=1)
            if not keep.any():
                break
            rows, z, open_ = rows[keep], z[keep], open_[keep]
        return member

    contains = _contains
    contains_digits = _contains_digits
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

    def contains_translates(self, cells: np.ndarray, shifts: np.ndarray) -> np.ndarray:
        """(m, w) membership of cells[j] + shifts[i]: the table at the ranks of the (m, w, n) sums."""
        return self.table[digits_to_ranks(add_mod(shifts[:, None], cells[None], self.p), self.p)]

    contains = _contains
    contains_digits = _contains_digits

    def membership_table(self) -> np.ndarray:
        return self.table
