"""Scalar reference for the k=2 / k=3 target-value tables in vc2lab.factor.

One map at a time: each k=3 case is a function of the verdict grid g
(g[i][j] True when the cell (i, j) lies in the set) that returns the
prescribed values or None when the map does not have its shape.  A map takes
the first case in _CASES_K3 order that matches one of its images, images in
_SYMS order, and the symmetry is then undone on the values.  The array
kernel factor.target_table must agree with target_values on every map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from vc2lab.shatter import ContainmentMap


@dataclass(frozen=True)
class TargetValues:
    """Prescribed Q_{1..k} values at z (q), x_i + z (a), y_j + z (b)."""

    k: int
    q: tuple[int, ...]
    a: tuple[tuple[int, ...], ...]
    b: tuple[tuple[int, ...], ...]


def _fnz_verdict(vals: Sequence[int], p: int) -> bool | None:
    for v in vals:
        if v % p != 0:
            return v % p == 1
    return None


def predicted_grid(tv: TargetValues, p: int) -> ContainmentMap:
    """Membership verdicts implied by the targets alone, via the first-nonzero rule.

    The grid cell (i, j) carries a_i + b_j - q, the boundary cells carry
    a_i, b_j, q themselves.  Raises if any cell is left with an all-zero
    prefix.
    """
    k = tv.k

    def cell(i: int, j: int) -> tuple[int, ...]:
        if i == 0 and j == 0:
            return tv.q
        if j == 0:
            return tv.a[i - 1]
        if i == 0:
            return tv.b[j - 1]
        return tuple((ai + bj - qq) % p for ai, bj, qq in zip(tv.a[i - 1], tv.b[j - 1], tv.q))

    rows = []
    for i in range(k):
        row = []
        for j in range(k):
            v = _fnz_verdict(cell(i, j), p)
            if v is None:
                raise ValueError(f"cell ({i},{j}) has an all-zero value prefix")
            row.append(v)
        rows.append(tuple(row))
    return ContainmentMap(k - 1, tuple(rows))

def _res(p: int, *vals: int) -> tuple[int, ...]:
    """The residues of vals mod p."""
    return tuple(v % p for v in vals)


def _targets_k2(g, p: int) -> TargetValues:
    s = lambda v: 1 if v else 2
    q = _res(p, 0, s(g[0][0]))
    if g[1][1] == g[1][0]:
        a, b = _res(p, s(g[1][0]), 0), _res(p, 0, s(g[0][1]))
    elif g[1][1] == g[0][1]:
        a, b = _res(p, 0, s(g[1][0])), _res(p, s(g[0][1]), 0)
    elif g[1][1]:
        a, b = _res(p, 2, 0), _res(p, -1, 0)
    else:
        a, b = _res(p, 1, 0), _res(p, 1, 0)
    return TargetValues(2, q, (a,), (b,))


# Grid symmetries for the 3 x 3 case: optionally transpose (swap the roles of
# X and Y), then swap x_1/x_2 (rows 1,2), then swap y_1/y_2 (columns 1,2).

_SYMS = [(t, sx, sy) for t in (False, True) for sx in (False, True) for sy in (False, True)]


def _apply_sym(g, sym):
    t, sx, sy = sym
    if t:
        g = tuple(tuple(g[j][i] for j in range(3)) for i in range(3))
    if sx:
        g = (g[0], g[2], g[1])
    if sy:
        g = tuple((row[0], row[2], row[1]) for row in g)
    return g


def _undo_sym_targets(tv: TargetValues, sym) -> TargetValues:
    t, sx, sy = sym
    a, b = list(tv.a), list(tv.b)
    if sy:
        b[0], b[1] = b[1], b[0]
    if sx:
        a[0], a[1] = a[1], a[0]
    if t:
        a, b = b, a
    return TargetValues(tv.k, tv.q, tuple(a), tuple(b))


def _case_const_row(g, p):
    """Row 1 constant including its boundary cell."""
    if not (g[1][0] == g[1][1] == g[1][2]):
        return None

    a1 = _res(p, 1 if g[1][0] else -1, 0, 0)
    q, a2 = {
        (False, True): (_res(p, 0, 1, 1), _res(p, 0, 2, 2)),
        (True, True): (_res(p, 0, 0, 1), _res(p, 0, 1, 2)),
        (True, False): (_res(p, 0, 0, -1), _res(p, 0, 1, 0)),
        (False, False): (_res(p, 0, -1, 1), _res(p, 0, 0, 2)),
    }[(g[2][0], g[0][0])]
    bsel = {
        (True, True): _res(p, 0, 0, 1),
        (False, True): _res(p, 0, 0, 2),
        (True, False): _res(p, 0, 1, 0),
        (False, False): _res(p, 0, -1, 1),
    }
    b = tuple(bsel[(g[0][j], g[2][j])] for j in (1, 2))
    return TargetValues(3, q, (a1, a2), b)


def _case_const_rows_interior(g, p):
    """Both interior rows constant: per-row verdicts decouple."""
    if not (g[1][1] == g[1][2] and g[2][1] == g[2][2]):
        return None

    q1 = 1 if g[0][0] else -1
    rows = {
        1: {
            (False, True): _res(p, 2, 0, 0),
            (True, True): _res(p, 1, 1, 0),
            (True, False): _res(p, 0, 1, 0),
            (False, False): _res(p, 0, 2, 0),
        },
        -1: {
            (False, True): _res(p, -1, 1, 0),
            (False, False): _res(p, -1, 2, 0),
            (True, False): _res(p, 1, 0, 0),
            (True, True): _res(p, 0, 1, 0),
        },
    }[q1]
    a = tuple(rows[(g[i][0], g[i][1])] for i in (1, 2))
    b = tuple(_res(p, 0, 0, 1 if g[0][j] else 2) for j in (1, 2))
    return TargetValues(3, _res(p, q1, 0, 0), a, b)


def _three_one_pattern(g) -> bool:
    """Interior cells: (1,1) = (1,2) = (2,1) != (2,2), with row-1 boundary off."""
    return g[1][0] != g[1][1] and g[1][1] == g[1][2] == g[2][1] and g[2][1] != g[2][2]


def _case_31(g, p):
    if not _three_one_pattern(g) or g[2][0] != g[0][0]:
        return None

    z1 = 1 if g[0][0] else -1
    q = _res(p, z1, 0, 0)
    a2 = _res(p, z1, 1, 0)
    a1 = {
        (1, True): _res(p, 2, 0, 0),
        (1, False): _res(p, 0, 1, 0),
        (-1, False): _res(p, 1, 0, 0),
        (-1, True): _res(p, 0, 2, 0),
    }[(z1, g[1][1])]
    brow = {
        (True, False): (1, 0),
        (True, True): (0, 1),
        (False, True): (0, 2),
        (False, False): (-1, 2),
    }
    b = tuple(_res(p, 0, *brow[(g[0][j], g[2][j])]) for j in (1, 2))
    return TargetValues(3, q, (a1, a2), b)


def _case_32(g, p):
    if not _three_one_pattern(g) or g[0][1] != g[0][2]:
        return None

    zeta = 1 if g[2][0] else -1
    eps = -zeta
    a2 = _res(p, zeta, 0, 0)
    rows = {
        (-1, True, False): ((1, 0), _res(p, 2, 0, 0)),
        (-1, True, True): ((0, 1), _res(p, 1, 1, 0)),
        (-1, False, False): ((-1, 2), _res(p, 0, 2, 0)),
        (-1, False, True): ((0, 2), _res(p, 1, 2, 0)),
        (1, False, False): ((0, 2), _res(p, -1, 2, 0)),
        (1, False, True): ((2, 0), _res(p, 1, 0, 0)),
        (1, True, True): ((1, 1), _res(p, 0, 1, 0)),
        (1, True, False): ((0, 1), _res(p, -1, 1, 0)),
    }
    pat, q = rows[(eps, g[0][1], g[0][0])]
    b = tuple(_res(p, pat[0], pat[1], 1 if g[2][j] else 2) for j in (1, 2))
    a1 = {
        (-1, False): _res(p, 0, 0, 1),
        (-1, True): _res(p, 2, 0, 0),
        (1, True): _res(p, 0, 0, 2),
        (1, False): _res(p, 1, 0, 0),
    }[(eps, g[1][1])]
    return TargetValues(3, q, (a1, a2), b)


def _case_33(g, p):
    if not _three_one_pattern(g):
        return None
    u = g[0][0]
    expected = (
        (u, u, not u),
        (u, not u, not u),
        (not u, not u, u),
    )
    if g != expected:
        return None

    if u:
        return TargetValues(3, _res(p, 0, 0, 1), (_res(p, 0, 1, 0), _res(p, 2, 0, 0)),
                            (_res(p, 0, 1, 0), _res(p, -1, 0, 0)))
    return TargetValues(3, _res(p, 0, 0, 2), (_res(p, 0, 2, 0), _res(p, 1, 0, 0)),
                        (_res(p, 0, -1, 0), _res(p, 1, 0, 0)))


def _diagonal(g) -> bool:
    return g[1][1] == g[2][2] and g[1][2] == g[2][1] and g[1][1] != g[1][2]


def _case_41(g, p):
    if not _diagonal(g) or not (g[0][1] and g[1][1]) or g[0][1] == g[0][2]:
        return None

    q = _res(p, 0, 0, 1 if g[0][0] else 2)
    a1 = _res(p, 0, 0, 1 if g[1][0] else 2)
    b1 = _res(p, 1, 2, 0)
    if g[2][0]:
        a2, b2 = _res(p, 1, 0, 0), _res(p, -1, 1, 0)
    else:
        a2, b2 = _res(p, -1, 0, 0), _res(p, 2, 0, 0)
    return TargetValues(3, q, (a1, a2), (b1, b2))


def _case_42(g, p):
    if not _diagonal(g) or not (g[0][1] and g[1][1]):
        return None
    if g[0][1] != g[0][2] or g[1][0] != g[2][0]:
        return None

    if g[1][0]:
        q = _res(p, 0, 0, 1 if g[0][0] else 2)
        a = (_res(p, 0, 1, 0), _res(p, 1, 0, 0))
        b = (_res(p, 1, 0, 0), _res(p, 0, 1, 0))
    elif g[0][0]:
        q = _res(p, 0, 0, 1)
        a = (_res(p, -1, 1, 1), _res(p, -1, 0, 0))
        b = (_res(p, 1, 0, 0), _res(p, 1, 1, 0))
    else:
        q = _res(p, 0, 0, -1)
        a = (_res(p, -1, 1, 0), _res(p, -1, 0, 1))
        b = (_res(p, 1, 0, 0), _res(p, 1, 1, 0))
    return TargetValues(3, q, a, b)


def _case_43(g, p):
    """Diagonal interior with every off-origin boundary cell outside the set.

    No grid symmetry can bring such a map into the reach of the other
    diagonal cases, so it gets its own prescription.
    """
    if not _diagonal(g) or g[0][1] or g[0][2] or g[1][0] or g[2][0]:
        return None

    w = 1 if g[0][0] else 2
    if p == 3:
        al = ((0, 2), (2, 0))
        be_diag = ((0, 2), (2, 0))  # sums: (0,4)->in, (2,2)->out, (4,0)->in
    else:
        al = ((2, 0), (p - 1, 0))
        be_diag = ((p - 1, 0), (2, 0))  # sums: (1,0)->in, (4,0)->out, (-2,0)->out
    be = be_diag if g[1][1] else (be_diag[1], be_diag[0])
    q = _res(p, 0, 0, w)
    a = tuple(_res(p, x0, x1, w) for x0, x1 in al)
    b = tuple(_res(p, y0, y1, w) for y0, y1 in be)
    return TargetValues(3, q, a, b)


_CASES_K3 = (
    _case_const_row,
    _case_const_rows_interior,
    _case_31,
    _case_32,
    _case_33,
    _case_41,
    _case_42,
    _case_43,
)


def target_values(phi: ContainmentMap, p: int) -> TargetValues:
    """Prescribed Q-values realizing the total map phi on the 2 x 2 or 3 x 3 grid, reduced mod p."""
    g = phi.verdicts
    if phi.k == 1:
        tv = _targets_k2(g, p)
    else:
        images = [(sym, _apply_sym(g, sym)) for sym in _SYMS]
        tv = next(_undo_sym_targets(got, sym) for case in _CASES_K3 for sym, img in images
                  if (got := case(img, p)) is not None)
    if predicted_grid(tv, p).verdicts != phi.verdicts:
        raise RuntimeError(f"case table bug: predicted grid mismatch at map index {phi.to_index()}")
    return tv
