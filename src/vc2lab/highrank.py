"""Bases of symmetric matrices over F_p whose nonzero combinations all have full rank.

The construction goes through the field extension F_{p^n} = F_p[theta]/(f):
M_t is the Gram matrix of the bilinear form (u, v) -> Tr(theta^(t-1) * u * v)
in the power basis {1, theta, ..., theta^(n-1)}.  A nonzero combination of
the M_t is the Gram matrix of Tr(a * u * v) for some a != 0, which is
nondegenerate in odd characteristic, hence of rank n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fp import FieldCtx, _rank_array, derive_rng, matmul_mod, ranks_to_digits

# Polynomials are little-endian coefficient lists: coeffs[i] multiplies x**i.


def _ptrim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(out)


def _pmod(a: list[int], f: list[int], p: int) -> list[int]:
    """a mod f, trimmed; each step touches only the nonzero coefficients of f."""
    a = list(a)
    df = len(f) - 1
    inv_lead = pow(f[-1], p - 2, p)
    terms = [(i, fi) for i, fi in enumerate(f[:-1]) if fi]
    for top in range(len(a) - 1, df - 1, -1):
        coef = (a[top] * inv_lead) % p
        if coef:
            shift = top - df
            for i, fi in terms:
                a[shift + i] = (a[shift + i] - coef * fi) % p
    return _ptrim(a[:df])


def _pmulmod(a: list[int], b: list[int], f: list[int], p: int) -> list[int]:
    return _pmod(_pmul(a, b, p), f, p)


def _ppowmod(base: list[int], e: int, f: list[int], p: int) -> list[int]:
    result = [1]
    acc = _pmod(list(base), f, p)
    while True:
        if e & 1:
            result = _pmulmod(result, acc, f, p)
        e >>= 1
        if not e:
            return result
        acc = _pmulmod(acc, acc, f, p)


def _pgcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _ptrim(list(a)), _ptrim(list(b))
    while b:
        a, b = b, _pmod(a, b, p)
        b = _ptrim(b)
    if a:
        inv = pow(a[-1], p - 2, p)
        a = [(c * inv) % p for c in a]
    return a


def _is_irreducible(coeffs: tuple[int, ...], p: int) -> bool:
    """Ben-Or's irreducibility test (FOCS 1981).

    A monic f of degree n is irreducible iff gcd(f, x^(p^k) - x) = 1 for every
    k <= n/2.  x^(p^k) - x is the product of the monic irreducibles whose degree
    divides k, so a reducible f is rejected at the degree of its smallest factor
    (Gao and Panario 1997); k = 1 is the root test.
    """
    f = list(coeffs)
    t = [0, 1]
    for _ in range((len(f) - 1) // 2):
        # x**(p**k) mod f, one Frobenius step at a time
        t = _ppowmod(t, p, f, p)
        if len(_pgcd(f, _minus_x(t, p), p)) > 1:
            return False
    return True


def _minus_x(a: list[int], p: int) -> list[int]:
    """The polynomial a - x, trimmed."""
    a = a + [0] * (2 - len(a))
    a[1] -= 1
    return _ptrim([c % p for c in a])


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

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def build_irreducible(ctx: FieldCtx, n: int) -> IrreduciblePoly:
    """Smallest monic irreducible of degree n, enumerating low coefficients fastest.

    Candidates are ordered by the integer sum(c_i * p**i) over the non-leading
    coefficients, so x**2 + 2 precedes x**2 + x + 1 for p = 5.
    """
    if n < 1:
        raise ValueError("degree must be >= 1")
    p = ctx.p
    for idx in range(p ** n):
        coeffs = []
        rem = idx
        for _ in range(n):
            coeffs.append(rem % p)
            rem //= p
        coeffs.append(1)
        try:
            return IrreduciblePoly(ctx, tuple(coeffs))
        except ValueError:  # reducible
            continue
    raise AssertionError("unreachable: irreducibles exist in every degree")


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
        ctx = FieldCtx(int(doc["p"]))
        if any(int(m["p"]) != ctx.p for m in doc["mats"]):
            raise ValueError("every matrix must be over the basis field")
        return HighRankBasis(
            ctx,
            int(doc["n"]),
            IrreduciblePoly(ctx, tuple(int(c) for c in doc["poly"])),
            np.array([[[int(e) for e in row] for row in m["rows"]] for m in doc["mats"]], dtype=object),
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
    f = list(poly.coeffs)

    # theta^k mod f as coefficient vectors, k = 0 .. 4n-4
    powers = [[1]]
    for _ in range(max(4 * n - 4, 0)):
        nxt = _pmod([0] + powers[-1], f, p)
        powers.append(nxt)

    def coeff(vec: list[int], i: int) -> int:
        return vec[i] if i < len(vec) else 0

    # s[k] = Tr(theta^k) = trace of the multiplication-by-theta^k matrix
    s = np.array([sum(coeff(powers[k + i], i) for i in range(n)) % p for k in range(3 * n - 2)], dtype=np.int64)
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


def check_high_rank(
    basis: HighRankBasis,
    mode: str = "exhaustive",
    count: int = 10_000,
    seed: int = 0,
) -> np.ndarray | None:
    """Verify that every checked nonzero combination has rank n.

    Returns None on pass, or the offending coefficient vector, an int64 row,
    on failure (the lexicographically smallest one among the failures found).
    Exhaustive mode requires p**n <= 10**6.
    """
    p, n = basis.ctx.p, basis.n
    # combinations are ranked in batches of about 2^17 matrix entries
    batch = max(1, (1 << 17) // (n * n))
    flat = basis.mats.reshape(n, n * n)

    def failing(lams: np.ndarray) -> np.ndarray:
        """Indices of the coefficient rows whose combination has rank below n."""
        combos = matmul_mod(lams, flat, p).reshape(-1, n, n)
        return np.flatnonzero(_rank_array(combos, p) != n)

    if mode == "exhaustive":
        total = p ** n
        if total > 10 ** 6:
            raise ValueError("exhaustive check infeasible: p**n > 1e6")
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
