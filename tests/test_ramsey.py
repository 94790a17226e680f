
import numpy as np
import pytest

from vc2lab import ramsey
from vc2lab.ramsey import (
    BipartiteColouring,
    BicliqueWitness,
    _dominant_colours,
    br_upper_bound,
    find_mono_biclique,
    random_colouring,
)


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


def test_scan_charge_leaves_the_first_colour_its_whole_budget(monkeypatch):
    # MAX_CELLS admits a colouring whose one scan costs the whole FALLBACK_WORK_CAP; a cap of m n
    # stands in for it here, and the first colour must still be searched
    assert ramsey.MAX_CELLS <= ramsey.FALLBACK_WORK_CAP
    col = random_colouring(200, 200, 10, seed=0)
    want = find_mono_biclique(col, 2, 2)
    monkeypatch.setattr(ramsey, "FALLBACK_WORK_CAP", 200 * 200)
    assert want is not None and find_mono_biclique(col, 2, 2) == want


def test_witness_verify_rejects_wrong_colour():
    c = BipartiteColouring(3, 3, 2, np.ones((3, 3), dtype=np.int32))
    w = BicliqueWitness((0, 1, 2), (0, 1, 2), 2)
    assert not w.verify(c)


def test_colouring_text_round_trip():
    col = random_colouring(4, 6, 3, seed=9)
    back = BipartiteColouring.from_text(col.to_text())
    assert back.m == 4 and back.n == 6 and back.r == 3
    assert (back.colours == col.colours).all()


@pytest.mark.parametrize("m,n", [(0, 5), (3, 0), (0, 0)])
def test_colouring_text_round_trip_without_edges(m, n):
    # to_text writes the header alone for m = 0 and blank rows for n = 0
    text = random_colouring(m, n, 3, seed=9).to_text()
    back = BipartiteColouring.from_text(text)
    assert (back.m, back.n, back.r) == (m, n, 3) and back.colours.shape == (m, n)
    assert back.to_text() == text


def test_colouring_text_missing_rows_rejected():
    with pytest.raises(ValueError, match="m x n"):
        BipartiteColouring.from_text("3 5 2\n")


@pytest.mark.parametrize("text", ["", " \n\n"], ids=["empty", "blank lines"])
def test_colouring_text_without_header_rejected(text):
    with pytest.raises(ValueError, match="empty colouring"):
        BipartiteColouring.from_text(text)


def test_colouring_validation():
    with pytest.raises(ValueError):
        BipartiteColouring(2, 2, 2, np.zeros((2, 2), dtype=np.int32))
    with pytest.raises(ValueError):
        BipartiteColouring(2, 2, 2, np.full((2, 3), 1, dtype=np.int32))


def test_colours_are_checked_before_the_int32_cast():
    # 2^32 + 1 would wrap to colour 1
    with pytest.raises(ValueError, match=r"colours must lie in \[1, r\]"):
        BipartiteColouring(1, 1, 5, np.array([[(1 << 32) + 1]]))
    top = (1 << 31) - 1
    col = BipartiteColouring.from_text(f"1 2 {top}\n{top} 1\n")
    assert col.colours.dtype == np.int32 and col.colours.tolist() == [[top, 1]]
    assert random_colouring(2, 2, top, seed=0).colours.max() <= top


@pytest.mark.parametrize("m,n,r,message", [
    (-1, 3, 2, "m = -1"), (3, -2, 2, "n = -2"), (3, 3, 0, "r = 0"), (0, 0, -1, "r = -1"),
    (1, 1, 1 << 31, r"\[1, 2\^31\), the int32 colours' range, got r = 2147483648"),
])
def test_colouring_sizes_rejected(m, n, r, message):
    with pytest.raises(ValueError, match=message):
        random_colouring(m, n, r)
    with pytest.raises(ValueError, match=message):
        BipartiteColouring(m, n, r, np.ones((max(m, 0), max(n, 0)), dtype=np.int32))
    with pytest.raises(ValueError, match=message):
        BipartiteColouring.from_text(f"{m} {n} {r}\n")
