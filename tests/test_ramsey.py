from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vc2lab.ramsey import (
    BipartiteColouring,
    BicliqueWitness,
    _dominant_colours,
    br_upper_bound,
    density_biclique_guarantee,
    find_mono_biclique,
    random_colouring,
)


def test_density_guarantee_examples():
    assert density_biclique_guarantee(21, 500, Fraction(1, 5), 3, 2)
    assert density_biclique_guarantee(5, 10, Fraction(1), 3, 3)
    assert not density_biclique_guarantee(2, 100, Fraction(1, 2), 3, 3)
    with pytest.raises(ValueError):
        density_biclique_guarantee(5, 10, Fraction(0), 3, 3)
    with pytest.raises(ValueError):
        density_biclique_guarantee(5, 10, Fraction(3, 2), 3, 3)


@given(
    m=st.integers(2, 40),
    n=st.integers(1, 400),
    num=st.integers(1, 4),
    den=st.integers(4, 8),
    q=st.integers(2, 4),
    s=st.integers(2, 4),
)
@settings(max_examples=120, deadline=None)
def test_density_guarantee_monotone_in_n(m, n, num, den, q, s):
    rho = Fraction(num, den)
    if rho > 1:
        rho = Fraction(1)
    if density_biclique_guarantee(m, n, rho, q, s):
        assert density_biclique_guarantee(m, n + 1, rho, q, s)
        assert density_biclique_guarantee(m, 2 * n, rho, q, s)


def test_br_bound_values():
    assert br_upper_bound(5).value == 501
    assert br_upper_bound(2).value == 33
    assert br_upper_bound(1).value == 5
    with pytest.raises(ValueError):
        br_upper_bound(0)


def test_br_bound_chain_first_hundred():
    for r in range(1, 101):
        bound = br_upper_bound(r)
        assert bound.value == 4 * r ** 3 + 1
        assert all(holds == "True" for _, holds in bound.checks)


def test_monochromatic_all_ones():
    c = BipartiteColouring(3, 3, 1, np.ones((3, 3), dtype=np.int32))
    w = find_mono_biclique(c, 3, 3)
    assert w is not None and w.colour == 1 and w.verify(c)


def test_too_small_returns_none():
    c = BipartiteColouring(2, 2, 2, np.ones((2, 2), dtype=np.int32))
    assert find_mono_biclique(c, 3, 3) is None


@pytest.mark.parametrize("q,s", [(0, 1), (1, 0), (-1, 3)])
def test_empty_biclique_side_rejected(q, s):
    # a K_{0,s} is vacuously monochromatic, so a search for one used to report a witness
    c = BipartiteColouring(3, 3, 1, np.ones((3, 3), dtype=np.int32))
    with pytest.raises(ValueError, match=r"q, s >= 1"):
        find_mono_biclique(c, q, s)


def test_constructive_path_on_guaranteed_regime():
    for seed in range(5):
        col = random_colouring(501, 501, 5, seed=seed)
        w = find_mono_biclique(col, 3, 3)
        assert w is not None and w.verify(col)
        assert len(w.left) == 3 and len(w.right) == 3


def test_constructive_deterministic():
    col = random_colouring(501, 501, 5, seed=11)
    w1 = find_mono_biclique(col, 3, 3)
    w2 = find_mono_biclique(col, 3, 3)
    assert w1 == w2


def _constructive_33_reference(colouring):
    """The constructive K_{3,3} search with int64 common-neighbourhood counts and the
    first pair read from the full upper triangle."""
    n, r = colouring.n, colouring.r
    dom = _dominant_colours(colouring)
    c = int(np.argmax(np.bincount(dom, minlength=r + 1)[1:]) + 1)
    left_class = np.flatnonzero(dom == c)
    h = colouring.colours[left_class] == c
    deg_right = h.sum(axis=0)
    y = int(np.argmax(deg_right))
    if deg_right[y] < 4 * r + 1:
        return None
    nbrs = np.flatnonzero(h[:, y])[: 4 * r + 1]
    hh = h[nbrs].astype(np.int64)
    hh[:, y] = 0
    pairs = np.argwhere(np.triu(hh.T @ hh >= 3, k=1))
    if pairs.size == 0:
        return None
    j1, j2 = (int(v) for v in pairs[0])
    shared = np.flatnonzero(hh[:, j1] & hh[:, j2])[:3]
    return BicliqueWitness(tuple(int(left_class[nbrs[i]]) for i in shared), tuple(sorted((j1, j2, y))), c)


@pytest.mark.parametrize("m,n,r,seeds", [
    (501, 501, 5, range(20)),  # the colourings of the small-search benchmark at seed 0
    (33, 33, 2, range(10)),
    (109, 109, 3, range(10)),
    (257, 257, 4, range(5)),
    (40, 33, 2, range(5)),
])
def test_constructive_matches_int64_reference(m, n, r, seeds):
    for seed in seeds:
        col = random_colouring(m, n, r, seed=seed)
        want = _constructive_33_reference(col)
        assert want is not None
        assert find_mono_biclique(col, 3, 3) == want


def test_fallback_path_small_regime():
    # below the guaranteed size: fall back to direct search
    col = random_colouring(40, 40, 2, seed=4)
    w = find_mono_biclique(col, 2, 2)
    assert w is not None and w.verify(col)


def test_witness_verify_rejects_wrong_colour():
    c = BipartiteColouring(3, 3, 2, np.ones((3, 3), dtype=np.int32))
    w = BicliqueWitness((0, 1, 2), (0, 1, 2), 2)
    assert not w.verify(c)


def test_colouring_text_round_trip():
    col = random_colouring(4, 6, 3, seed=9)
    back = BipartiteColouring.from_text(col.to_text())
    assert back.m == 4 and back.n == 6 and back.r == 3
    assert (back.colours == col.colours).all()


@pytest.mark.parametrize("text", ["", " \n\n"], ids=["empty", "blank lines"])
def test_colouring_text_without_header_rejected(text):
    with pytest.raises(ValueError, match="empty colouring"):
        BipartiteColouring.from_text(text)


def test_colouring_validation():
    with pytest.raises(ValueError):
        BipartiteColouring(2, 2, 2, np.zeros((2, 2), dtype=np.int32))
    with pytest.raises(ValueError):
        BipartiteColouring(2, 2, 2, np.full((2, 3), 1, dtype=np.int32))
