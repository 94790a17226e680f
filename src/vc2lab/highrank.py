"""Bases of symmetric matrices over F_p whose nonzero combinations all have full rank.

The construction goes through the field extension F_{p^n} = F_p[theta]/(f):
M_t is the Gram matrix of the bilinear form (u, v) -> Tr(theta^(t-1) * u * v)
in the power basis {1, theta, ..., theta^(n-1)}.  A nonzero combination of
the M_t is the Gram matrix of Tr(a * u * v) for some a != 0, which is
nondegenerate in odd characteristic, hence of rank n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fp import FieldCtx, _matmul_residues, _rank_array, as_int, derive_rng, matmul_mod, ranks_to_digits


def _mpow(a: np.ndarray, e: int, p: int) -> np.ndarray:
    """a^e mod p for a stack of square matrices and e >= 1, by repeated squaring."""
    if e == 1:
        return a
    half = _mpow(matmul_mod(a, a, p), e >> 1, p)
    return matmul_mod(half, a, p) if e & 1 else half


def _krylov(a: np.ndarray, v: np.ndarray, p: int) -> np.ndarray:
    """Stacked n x n matrices whose column i is a^i v mod p, from log2(n) doublings."""
    n, cols = a.shape[-1], v[..., None]
    while True:
        cols = np.concatenate([cols, matmul_mod(a, cols, p)], axis=-1)
        if cols.shape[-1] >= n:
            return cols[..., :n]
        a = matmul_mod(a, a, p)


def _frobenius_images(q: np.ndarray, ks: list[int], p: int) -> np.ndarray:
    """x^(p^k) mod f for each k >= 1 of ks, a (len(ks), m, n) array, from the Frobenius matrices q of f.

    q is (m, n, n), column i of q[r] holding x^(p i) mod the r-th f, so q^k x = x^(p^k).  The
    powers q^(2^j) are squared up to the largest k, and each one is applied to the columns of the
    k with bit j set: about log2(max ks) products and as many squarings, not max(ks) steps.
    """
    m, n = q.shape[0], q.shape[-1]
    need = np.array(ks)
    cols = np.zeros((m, n, len(ks)), dtype=q.dtype)
    cols[:, 1] = 1  # the polynomial x
    for j in range(int(need.max()).bit_length()):
        if j:
            q = matmul_mod(q, q, p)
        sel = np.flatnonzero(need >> j & 1)
        if sel.size:
            cols[..., sel] = matmul_mod(q, cols[..., sel], p)
    return cols.transpose(2, 0, 1)


def _irreducible_rows(f: np.ndarray, p: int) -> np.ndarray:
    """Which rows of f, (m, n + 1) little-endian coefficients of monic f of degree n, are irreducible.

    Rabin's test (SIAM J. Comput. 1980): x^(p^n) = x mod f and gcd(f, x^(p^(n/q)) - x) = 1
    for each prime q | n, with the cheapest rejections first, each on the rows left (none
    after the root test if no row is left):
    1. a root, which about two canonical candidates in three have: for p < 256 f is
       evaluated on all of F_p, beyond that gcd(f, x^p - x) = 1 is tested as in 3;
    2. x^(p^n) = Q^n x, from the squares Q^(2^j) (see _frobenius_images): a reducible f
       without a root passes only if n is composite and the degree of each factor divides n;
    3. for composite n, x^(p^(n/q)) != x for each prime q | n, from the same squares, then one gcd, of f
       and the product of the x^(p^(n/q)) - x mod f, as a nonsingular multiplication matrix.
    Q, whose column i is x^(p i) mod f, is built from powers of the multiplication-by-x^p matrix.
    Products are fp.matmul_mod's.
    """
    m, n = f.shape[0], f.shape[1] - 1
    if n == 1:
        return np.ones(m, dtype=bool)
    small = p < 256
    comp = np.zeros((m, n, n), dtype=f.dtype)
    comp[:, np.arange(1, n), np.arange(n - 1)] = 1
    comp[:, :, -1] = -f[:, :n] % p  # multiplication by x mod f
    if small:
        powers = np.array([[pow(a, i, p) for a in range(p)] for i in range(n + 1)])
        ok = matmul_mod(f, powers, p).all(axis=1)
    else:
        xp = _mpow(comp, p, p)
        ok = _rank_array(xp - comp, p) == n
    live, unit = np.flatnonzero(ok), np.eye(n, dtype=f.dtype)
    if not live.size:
        return ok
    xp = _mpow(comp[live], p, p) if small else xp[live]
    q = _krylov(xp, np.broadcast_to(unit[0], (live.size, n)), p)
    ks = [n // r for r in range(2, n) if n % r == 0 and all(r % s for s in range(2, r))]
    ts = _frobenius_images(q, [n, *ks], p)
    passed = (ts[0] == unit[1]).all(axis=1)
    ok[live] = passed
    rest = live[passed]
    if ks and rest.size:
        g = (ts[1:, passed] - unit[1]) % p
        # x^(p^k) = x for a k < n already means every factor has degree dividing k
        ok[rest] = g.any(axis=2).all(axis=0)
        rest, g = rest[ok[rest]], g[:, ok[rest]]
    if ks and rest.size:
        h = g[0]  # prod_k (x^(p^k) - x) mod f, whose gcd with f is 1 iff each factor's is
        for gk in g[1:]:
            h = matmul_mod(_krylov(comp[rest], h, p), gk[..., None], p)[..., 0]
        ok[rest] = _rank_array(_krylov(comp[rest], h, p), p) == n
    return ok


def _is_irreducible(coeffs: tuple[int, ...], p: int) -> bool:
    """Whether the monic polynomial with these coefficients is irreducible: the block test on one row."""
    return bool(_irreducible_rows(np.array([coeffs], dtype=np.int64 if p < 1 << 63 else object), p)[0])


@dataclass(frozen=True)
class IrreduciblePoly:
    """Monic irreducible polynomial over F_p, little-endian coefficients."""

    ctx: FieldCtx
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(int(c) % self.ctx.p for c in self.coeffs))
        if len(self.coeffs) < 2 or self.coeffs[-1] != 1:
            raise ValueError("polynomial must be monic of degree >= 1")
        if not _is_irreducible(self.coeffs, self.ctx.p):
            raise ValueError("polynomial is reducible")


def build_irreducible(ctx: FieldCtx, n: int) -> IrreduciblePoly:
    """Smallest monic irreducible of degree n, enumerating low coefficients fastest.

    Candidates are ordered by the integer sum(c_i * p**i) over the non-leading
    coefficients, so x**2 + 2 precedes x**2 + x + 1 for p = 5.  They are tested
    in blocks of 8, 32, 128, ... candidates, at most about 2^18 matrix entries each.
    """
    if n < 1:
        raise ValueError("degree must be >= 1")
    p = ctx.p
    lo, size = 0, 8
    while True:
        # candidate c has the base-p digits of c as coefficients, only the low d of them nonzero
        d = min(n, 1 + int(math.log(lo + size, p)))
        rows = np.zeros((size, n + 1), dtype=np.int64 if p < 1 << 63 else object)
        rows[:, :d] = np.arange(lo, lo + size, dtype=rows.dtype)[:, None] // np.array([p ** i for i in range(d)]) % p
        rows[:, n] = 1
        hit = np.flatnonzero(_irreducible_rows(rows, p))
        if hit.size:
            poly = object.__new__(IrreduciblePoly)  # the winner passed the constructor's test just now
            poly.__dict__.update(ctx=ctx, coeffs=tuple(int(c) for c in rows[hit[0]]))
            return poly
        lo, size = lo + size, min(4 * size, max(8, (1 << 18) // n ** 2))


def _check_int64_field(ctx: FieldCtx) -> None:
    if ctx.p >= 1 << 63:
        raise ValueError(f"quadratic bases need p < 2^63, whose residues fit the int64 basis array; got p = {ctx.p}")


@dataclass(frozen=True, eq=False)
class HighRankBasis:
    """n symmetric n x n matrices, every nonzero combination of full rank n.

    mats is one read-only (n, n, n) int64 array of residues; mats[t - 1] is M_t.
    """

    ctx: FieldCtx
    n: int
    poly: IrreduciblePoly
    mats: np.ndarray

    def __post_init__(self) -> None:
        p, n = self.ctx.p, self.n
        _check_int64_field(self.ctx)
        mats = np.asarray(self.mats)
        if mats.shape != (n, n, n) or mats.dtype.kind not in "iuO":
            raise ValueError(f"expected an ({n}, {n}, {n}) integer array of matrices")
        mats = (mats % p).astype(np.int64)
        if not (mats == mats.transpose(0, 2, 1)).all():
            raise ValueError("matrices must be symmetric")
        if _rank_array(mats.reshape(n, -1), p) != n:
            raise ValueError("matrices are linearly dependent")
        mats.flags.writeable = False
        object.__setattr__(self, "mats", mats)

    def to_json(self) -> dict:
        return {
            "p": self.ctx.p,
            "n": self.n,
            "poly": list(self.poly.coeffs),
            "mats": [{"p": self.ctx.p, "rows": m.tolist()} for m in self.mats],
        }

    @staticmethod
    def from_json(doc: dict) -> "HighRankBasis":
        ctx = FieldCtx(as_int(doc["p"]))
        if any(as_int(m["p"]) != ctx.p for m in doc["mats"]):
            raise ValueError("every matrix must be over the basis field")
        return HighRankBasis(
            ctx,
            as_int(doc["n"]),
            IrreduciblePoly(ctx, tuple(as_int(c) for c in doc["poly"])),
            np.array([[[as_int(e) for e in row] for row in m["rows"]] for m in doc["mats"]], dtype=object),
        )


@lru_cache(maxsize=64)
def build_trace_basis(ctx: FieldCtx, n: int) -> HighRankBasis:
    """Gram matrices of (u, v) -> Tr(theta^(t-1) u v) in the power basis.

    Deterministic: the extension uses the polynomial from build_irreducible,
    so two runs produce identical matrices.  Results are cached; everything
    returned is immutable.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_int64_field(ctx)
    p = ctx.p
    poly = build_irreducible(ctx, n)
    a = poly.coeffs
    # s[k] = Tr(theta^k), the power sums of the roots of f, by Newton's identities:
    # s_0 = n, s_k = -(k a_(n-k) [k <= n] + sum over 1 <= j <= min(k - 1, n) of a_(n-j) s_(k-j))
    terms = [(j, a[n - j]) for j in range(1, n + 1) if a[n - j]]
    s = [n % p]
    for k in range(1, 3 * n - 2):
        s.append(-(sum(c * s[k - j] for j, c in terms if j < k) + (k * a[n - k] if k <= n else 0)) % p)
    s = np.array(s, dtype=np.int64)
    # a Hankel array: M_t[i][j] = s[t + i + j], t counted from 0
    idx = np.arange(n)
    return HighRankBasis(ctx, n, poly, s[idx[:, None, None] + idx[None, :, None] + idx[None, None, :]])


def _nonzero_rows(rng: np.random.Generator, m: int, n: int, p: int) -> np.ndarray:
    """m nonzero rows of n residues: a block draw with the zero rows dropped, topped up
    until full.  The generator yields the same rows however the draws are split, so
    these are the rows a loop of one draw per row, skipping zero rows, would give."""
    rows = np.zeros((0, n), dtype=np.int64)
    while len(rows) < m:
        block = rng.integers(0, p, size=(m - len(rows), n))
        rows = np.concatenate([rows, block[block.any(axis=1)]])
    return rows


# check_high_rank ranks about 2^19 matrix entries per _rank_array call, and builds them
# 2^17 entries at a time, so no 2^19-entry int64 or float64 product is formed
RANK_BATCH_ENTRIES = 1 << 19
PRODUCT_ENTRIES = 1 << 17
# the largest group, p**n, whose nonzero combinations an exhaustive check_high_rank runs through
EXHAUSTIVE_LIMIT = 10 ** 6


def check_high_rank(
    basis: HighRankBasis,
    mode: str = "exhaustive",
    count: int = 10_000,
    seed: int = 0,
) -> np.ndarray | None:
    """Verify that every checked nonzero combination has rank n.

    Returns None on pass, or the offending coefficient vector, an int64 row,
    on failure (the lexicographically smallest one among the failures found).
    Exhaustive mode requires p**n <= EXHAUSTIVE_LIMIT; sampled mode checks count
    draws.  count must be at least 1 in either mode.
    The combinations are built a chunk at a time by fp._matmul_residues, whose
    float64 products are reduced in the narrowest dtype that holds them (int16
    at p = 3, n = 31) and stored in an int16 buffer for p < 2^15, so no int64
    product is formed there.
    """
    if count < 1:
        raise ValueError(f"check_high_rank needs count >= 1, got {count}")
    p, n = basis.ctx.p, basis.n
    batch, chunk = max(1, RANK_BATCH_ENTRIES // (n * n)), max(1, PRODUCT_ENTRIES // (n * n))
    flat = basis.mats.reshape(n, n * n)
    combos = np.empty((batch, n, n), dtype=np.int16 if p < 1 << 15 else np.int64)

    def failing(lams: np.ndarray) -> np.ndarray:
        """Indices of the coefficient rows whose combination has rank below n."""
        out = combos[:len(lams)]
        for lo in range(0, len(lams), chunk):
            out[lo:lo + chunk] = _matmul_residues(lams[lo:lo + chunk], flat, p).reshape(-1, n, n)
        return np.flatnonzero(_rank_array(out, p) != n)

    if mode == "exhaustive":
        total = p ** n
        if total > EXHAUSTIVE_LIMIT:
            raise ValueError(f"exhaustive check infeasible: p**n > {EXHAUSTIVE_LIMIT}")
        for lo in range(1, total, batch):
            lams = ranks_to_digits(np.arange(lo, min(lo + batch, total), dtype=np.int64), p, n)
            bad = failing(lams)
            if bad.size:
                return lams[bad[0]]
        return None
    if mode != "sampled":
        raise ValueError("mode must be 'exhaustive' or 'sampled'")

    rng = derive_rng(seed, "high-rank-check", 0)
    failures: list[tuple[int, ...]] = []
    done = 0
    while done < count:
        # drawn only when its batch runs
        lams = _nonzero_rows(rng, min(batch, count - done), n, p)
        done += len(lams)
        failures += [tuple(int(x) for x in lams[i]) for i in failing(lams)]
    if failures:
        return np.array(min(failures), dtype=np.int64)
    return None
