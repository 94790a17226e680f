"""Constructive monochromatic-biclique search and the 4r^3 + 1 bound arithmetic.

The guaranteed path for a K_{3,3} in an r-coloured K_{N,N} with N >= 4r^3 + 1:
every left vertex has a colour on at least ceil(N/r) of its edges
("dominant"); some colour is dominant for at least 4r^2 + 1 left vertices;
inside that colour class a right vertex of degree at least 4r + 1 exists,
and the induced subgraph on its neighbourhood is dense enough to force a
K_{3,2}, which the high-degree vertex completes to a K_{3,3}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .fp import derive_rng


# colouring cells m n; in ramsey-find (x86-64 VM, ru_maxrss) K_{10001,10001} peaks at about 650 MB
# on the constructive path and K_{10000,10000} at about 800 MB in the direct search
MAX_CELLS = 10 ** 8
COLOUR_BOUND = 1 << 31  # colours are int32, so r < 2^31


def _check_sizes(m: int, n: int, r: int) -> None:
    """Refuses sizes no colouring has, and colourings beyond MAX_CELLS, before any allocation."""
    if m < 0 or n < 0:
        raise ValueError(f"m and n must be at least 0, got m = {m}, n = {n}")
    if not 1 <= r < COLOUR_BOUND:
        raise ValueError(f"r must lie in [1, 2^31), the int32 colours' range, got r = {r}")
    if m * n > MAX_CELLS:
        raise ValueError(f"a colouring of K_{{{m},{n}}} has {m * n} cells, beyond the cap of {MAX_CELLS}")


@dataclass(frozen=True, eq=False)
class BipartiteColouring:
    """r-colouring of the complete bipartite graph K_{m,n}; colours are 1-based."""

    m: int
    n: int
    r: int
    colours: np.ndarray

    def __post_init__(self) -> None:
        _check_sizes(self.m, self.n, self.r)
        c = np.asarray(self.colours)
        if c.shape != (self.m, self.n):
            raise ValueError("colour array must be m x n")
        if c.size and (c.min() < 1 or c.max() > self.r):  # before the int32 cast, which would wrap
            raise ValueError("colours must lie in [1, r]")
        c = c.astype(np.int32, copy=False)
        c.flags.writeable = False
        object.__setattr__(self, "colours", c)

    def to_text(self) -> str:
        rows = (" ".join(map(str, row)) for row in self.colours.tolist())
        return "\n".join([f"{self.m} {self.n} {self.r}", *rows]) + "\n"

    @staticmethod
    def from_text(text: str) -> "BipartiteColouring":
        """The header 'm n r', then m rows of n colours, each checked against [1, r] before it fills its int32 row."""
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ValueError("empty colouring: expected a header line 'm n r'")
        m, n, r = (int(t) for t in lines[0].split())
        _check_sizes(m, n, r)
        # to_text writes no row for m = 0, and for n = 0 blank rows, which the filter above drops
        if len(lines) - 1 != (m if n else 0):
            raise ValueError(f"colour array must be m x n: expected {m} rows of {n} colours, got {len(lines) - 1}")
        colours = np.empty((m, n), dtype=np.int32)
        for i, ln in enumerate(lines[1:]):
            tokens = ln.split()
            if len(tokens) != n:
                raise ValueError(f"colour array must be m x n: row {i} holds {len(tokens)} colours, not {n}")
            try:
                row = np.array(tokens, dtype=np.int64)
            except OverflowError:  # a token beyond int64, so beyond r: a row that fails the range check
                row = np.zeros(1, dtype=np.int64)
            if row.min() < 1 or row.max() > r:
                raise ValueError(f"colours must lie in [1, r]: row {i} holds a colour outside [1, {r}]")
            colours[i] = row
        return BipartiteColouring(m, n, r, colours)


def random_colouring(m: int, n: int, r: int, seed: int = 0) -> BipartiteColouring:
    _check_sizes(m, n, r)
    rng = derive_rng(seed, "colouring")
    # numpy draws int32 and int64 below 2^32 alike, so these are the int64 stream's values
    return BipartiteColouring(m, n, r, rng.integers(1, r + 1, size=(m, n), dtype=np.int32))


@dataclass(frozen=True)
class BicliqueWitness:
    """A monochromatic complete bipartite subgraph: q left and s right vertices."""

    left: tuple[int, ...]
    right: tuple[int, ...]
    colour: int

    def verify(self, colouring: BipartiteColouring) -> bool:
        return all(int(colouring.colours[u, v]) == self.colour for u in self.left for v in self.right)


def _dominant_colours(colouring: BipartiteColouring) -> np.ndarray:
    """Per left vertex, the smallest colour on at least ceil(n/r) of its edges."""
    m, n, r = colouring.m, colouring.n, colouring.r
    thresh = -(-n // r)
    counts = np.zeros((m, r + 1), dtype=np.int64)  # column 0 stays empty: colours are 1-based
    for c in range(1, r + 1):
        counts[:, c] = np.count_nonzero(colouring.colours == c, axis=1)
    heavy = counts >= thresh
    dom = np.argmax(heavy, axis=1)
    if not heavy[np.arange(m), dom].all():
        raise AssertionError("pigeonhole failure: some vertex has no dominant colour")
    return dom


def _constructive_33(colouring: BipartiteColouring) -> BicliqueWitness | None:
    m, n, r = colouring.m, colouring.n, colouring.r
    dom = _dominant_colours(colouring)
    tally = np.bincount(dom, minlength=r + 1)
    c = int(np.argmax(tally[1:]) + 1)
    left_class = np.flatnonzero(dom == c)
    h = colouring.colours[left_class] == c  # |X'| x n incidence of colour c
    deg_right = h.sum(axis=0)
    y = int(np.argmax(deg_right))
    if deg_right[y] < 4 * r + 1:
        return None
    nbrs = np.flatnonzero(h[:, y])[: 4 * r + 1]
    hh = h[nbrs].copy()
    hh[:, y] = False
    # the first pair j1 < j2 in row-major order with at least 3 common neighbours inside the
    # class; each row of counts is one float64 product, exact since a count is at most 4r + 1
    g = hh.T.astype(np.float64, order="C")
    for j1 in range(n - 1):
        later = np.flatnonzero((g[j1 + 1:] @ g[j1]).astype(np.int64) >= 3)
        if later.size:
            j2 = j1 + 1 + int(later[0])
            break
    else:
        return None
    shared = np.flatnonzero(hh[:, j1] & hh[:, j2])[:3]
    left = tuple(int(left_class[nbrs[i]]) for i in shared)
    right = tuple(sorted((j1, j2, y)))
    witness = BicliqueWitness(left, right, c)
    if not witness.verify(colouring):
        raise AssertionError("constructed witness failed colour verification")
    return witness


FALLBACK_WORK_CAP = 10 ** 8  # neighbour visits, q-subsets and m n per colour searched; then the search gives up


def _fallback_search(colouring: BipartiteColouring, q: int, s: int) -> BicliqueWitness | None:
    """Direct search, processing right vertices in decreasing colour-degree order."""
    m, n = colouring.m, colouring.n
    if m < q or n < s:
        return None
    work = 0
    for c in np.unique(colouring.colours).tolist():  # a colour on no edge holds no biclique
        graph = colouring.colours == c
        degs = graph.sum(axis=0)
        order = sorted(range(n), key=lambda v: (-int(degs[v]), v))
        seen: dict[tuple[int, ...], list[int]] = {}
        for v in order:
            nbrs = np.flatnonzero(graph[:, v])
            work += int(nbrs.size)
            if nbrs.size < q:
                continue
            for combo in combinations(map(int, nbrs), q):
                work += 1
                if work > FALLBACK_WORK_CAP:
                    return None
                bucket = seen.setdefault(combo, [])
                bucket.append(v)
                if len(bucket) == s:
                    witness = BicliqueWitness(combo, tuple(sorted(bucket)), c)
                    if not witness.verify(colouring):
                        raise AssertionError("fallback witness failed verification")
                    return witness
        # the colour's m n scan, charged once it is searched so that it never spends that colour's budget
        work += m * n
        if work > FALLBACK_WORK_CAP:
            return None
    return None


def find_mono_biclique(colouring: BipartiteColouring, q: int, s: int) -> BicliqueWitness | None:
    """Monochromatic K_{q,s}, via the constructive path when it is guaranteed.

    For (q, s) = (3, 3) and both sides at least 4r^3 + 1 the constructive
    route always succeeds; otherwise a capped direct search runs and "none
    found" is a legitimate outcome.  q and s must be at least 1.
    """
    if q < 1 or s < 1:
        raise ValueError(f"a biclique needs q, s >= 1, got q={q}, s={s}")
    r = colouring.r
    guaranteed = q == 3 and s == 3 and min(colouring.m, colouring.n) >= 4 * r ** 3 + 1
    if guaranteed:
        witness = _constructive_33(colouring)
        if witness is None:
            raise AssertionError("constructive path failed inside the guaranteed regime")
        return witness
    return _fallback_search(colouring, q, s)


@dataclass(frozen=True)
class BrBound:
    r: int
    value: int
    checks: tuple[tuple[str, str], ...]  # (description, exact statement) pairs


def br_upper_bound(r: int) -> BrBound:
    """The bound 4r^3 + 1 plus the exact arithmetic chain backing it at this r.

    Checks, in exact rational arithmetic with q = 4r + 1 and rho = 1/r:
    the degree condition q > 2r, the lower bound rho * q > 4, and
    C(q, 3) / 4 < 4r^3 (which implies the biclique-guarantee inequality,
    since C(rho * q, 3) > 4 once rho * q > 4).
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    q = 4 * r + 1
    rho = Fraction(1, r)
    checks = []
    cond1 = q > 2 * r
    checks.append((f"degree condition: {q} > {2 * r}", str(cond1)))
    cond2 = rho * q > 4
    checks.append((f"density floor: {rho * q} > 4", str(cond2)))
    lhs = Fraction(q * (q - 1) * (q - 2), 6) / 4
    cond3 = lhs < 4 * r ** 3
    checks.append((f"count bound: {lhs} < {4 * r ** 3}", str(cond3)))
    if not (cond1 and cond2 and cond3):
        raise ValueError(f"arithmetic chain fails at r={r}")
    return BrBound(r, 4 * r ** 3 + 1, tuple(checks))
