"""Arithmetic and dense linear algebra over the prime field F_p, p an odd prime.

Residues live in the canonical range [0, p).  A point of F_p^n is a
length-n int64 row and a set of points an (m, n) int64 array of residues;
as_points checks and reduces the points a caller passes.  Elimination has
two loops.  _rref computes the reduced row echelon form of one matrix;
affine solving, null spaces and orthogonal complements run on it.  It
uses leftmost-pivot / first-nonzero-row tie-breaking, and null-space vectors
are scaled so their first nonzero coordinate is 1, which makes solved
systems, orthogonal complements and every downstream certificate
bit-identical across runs and platforms.  It runs in int64 for p < 2^15,
the range of the inverse table (_inv_array) both loops divide by.

Ranks (_rank_array) of a stack of matrices (a leading batch axis) come
from forward elimination with delayed modular reduction and no row swaps.
The matrices of a stack share their pivot row, the first row of what is
left of them; a matrix whose pivot row is 0 in the pivot column adds the
first row below that is not, a row operation that leaves the rank alone.
Each column reduces only the pivot column and the pivot row mod p; the
rows below take f * row with f and row in [0, p) and no reduction, so an
entry drifts by at most (p-1)^2 per update.  The k-th pivot's update acts
on the (r-k) x (c-k) block left after it, so an (r, c) matrix stores the
results of at most min(r, c) - 1 updates: every entry stays in
(-(min(r, c) - 1) (p-1)^2 - p, p) through the floor division that
reduces it, and a pivot-row sum stays below 2p.  A matrix without a pivot
in a column leaves the stack, and what is left of it is ranked as a stack
of its own.  With B = max(min(r, c) - 1, 1) (p-1)^2 + 2p, ranks run in
int8 while B < 2^7 (p = 3 to 31 x 31, p = 5 to 8 x 8), int16 while
B < 2^15, int64 beyond.  Both loops reduce arrays of 512 entries or more
by floor division, x - p (x // p), since numpy divides by a scalar with
SIMD but computes % one element at a time.

Quadratic forms are evaluated by one batched kernel, quad_forms, in BLAS
while n^2 (p-1)^3 < 2^53.  Products mod p, matmul_mod, follow the same
rule with bound k (p-1)^2 for inner dimension k.  Both take residues in
[0, p), which is what makes these bounds hold: every partial sum is a
nonnegative integer at most the bound, so float32 holds it exactly below
2^24 and float64 below 2^53 (_blas_dtype), and sgemm runs 2-3x faster
than dgemm on the repository's shapes (one thread of a 2-vCPU x86-64 VM).
A BLAS result is cast to the narrowest of int16, int32 and int64 that
holds its bound and p (_narrow_dtype) and reduced there by floor division,
which int16 does 5-12 times faster than int64 % at 64k-512k entries
(numpy 2.4, the same VM).  Delayed reduction and exact floating-point
products are the ideas of FFLAS-FFPACK (Dumas, Giorgi, Pernet, ACM TOMS
2008).

Each kernel raises ValueError before any arithmetic when p, or its bound,
lies beyond what its dtypes hold exactly: _inv_array, _rref and
_rank_array for p >= 2^15, matmul_mod and quad_forms for a bound (or p)
of 2^53 or more.  Quadratic bases take p < 2^8 (highrank), where neither
limit is reached.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_13, the least strong pseudoprime to all of _MR_BASES (Sorenson and
# Webster, Math. Comp. 2017): below it the Miller-Rabin test on those bases is exact.
PRIME_BOUND = 3317044064679887385961981


def _is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin; exact for m < PRIME_BOUND."""
    if m < 2:
        return False
    for b in _MR_BASES:
        if m % b == 0:
            return m == b
    d, r = m - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for b in _MR_BASES:
        x = pow(b, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldCtx:
    """The prime field F_p.  Validated eagerly: p must be an odd prime below PRIME_BOUND."""

    p: int

    def __post_init__(self) -> None:
        if isinstance(self.p, int) and self.p >= PRIME_BOUND:
            raise ValueError(f"p must be below {PRIME_BOUND}, the bound to which the primality test is exact")
        if not isinstance(self.p, int) or self.p < 3 or not _is_prime(self.p):
            raise ValueError(f"p must be an odd prime, got {self.p!r}")


def as_points(rows, p: int, n: int) -> np.ndarray:
    """Points from a caller as a read-only (m, n) int64 array of residues mod p.

    rows is an array or a sequence of m coordinate sequences, an empty one
    meaning no points; every coordinate, an integer, is reduced mod p.
    Raises ValueError for any other shape, for entries that are not
    integers, and for p >= 2^63, whose residues int64 cannot hold.
    """
    if p >= 1 << 63:
        raise ValueError(f"points are int64 residues, so p must be below 2^63; got p = {p}")
    a = np.asarray(rows)
    if a.shape == (0,):
        a = np.zeros((0, n), dtype=np.int64)
    if a.ndim != 2 or a.shape[1] != n:
        raise ValueError(f"expected points with {n} coordinates each, got an array of shape {a.shape}")
    if a.dtype.kind not in "iuO":
        raise ValueError(f"point coordinates must be integers, got {a.dtype}")
    a = (a % p).astype(np.int64)
    a.flags.writeable = False
    return a


def freeze_points(obj, *names: str) -> None:
    """Replace each named point-array field of a frozen dataclass by a read-only int64 copy."""
    for name in names:
        a = np.array(getattr(obj, name), dtype=np.int64)
        a.flags.writeable = False
        object.__setattr__(obj, name, a)


def add_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(a + b) mod p for residues in [0, p), in their signed dtype if it holds -p (int8 for
    p <= 127): a - (p - b) lies in (-p, p), where a + b could wrap, and one add of p reduces it."""
    d = a - (p - b)
    d += (d < 0).astype(d.dtype) * d.dtype.type(p)
    return d


# ---------------------------------------------------------------------------
# Row reduction and derived solvers.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=16)
def _inv_table(p: int) -> np.ndarray:
    """Read-only int16 table of the inverses mod p < 2^15, indexed by residue; 0 maps to 0."""
    table = np.array([pow(a, p - 2, p) for a in range(p)], dtype=np.int16)
    table.flags.writeable = False
    return table


def _check_inverse_field(p: int) -> None:
    """Refuse p >= 2^15, beyond the inverse table that every elimination divides by."""
    if p >= 1 << 15:
        raise ValueError(f"elimination mod p inverts by a table of p < 2^15 entries; got p = {p}")


def _inv_array(x: np.ndarray, p: int) -> np.ndarray:
    """Elementwise inverse of residues mod p < 2^15, 0 mapping to 0, by table lookup."""
    _check_inverse_field(p)
    return _inv_table(p)[x]


def _blas_dtype(bound: int) -> type:
    """The float dtype in which BLAS sums nonnegative integers up to bound exactly: float32 below
    2^24, float64 below 2^53.  Raises ValueError beyond, where no float dtype holds the sums."""
    if bound >= 1 << 53:
        raise ValueError(f"sums up to {bound} are beyond float64's exact integers, 2^53")
    return np.float32 if bound < 1 << 24 else np.float64


def _narrow_dtype(bound: int, p: int) -> type:
    """The narrowest of int16, int32 and int64 holding every integer up to bound and p itself, which
    _mod reduces by as a scalar of the array's dtype; both are below 2^53 (_blas_dtype)."""
    top = max(bound, p)
    return np.int16 if top < 1 << 15 else np.int32 if top < 1 << 31 else np.int64


def _mod(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p in [0, p).  numpy divides an integer array by a scalar with SIMD but computes %
    one element at a time, so from 512 entries on x is reduced as x - p (x // p), three calls
    that give the same residues; p (x // p) needs the dtype to hold x - p + 1.  Smaller arrays
    take the one call of %."""
    if x.size < 512:
        return x % p
    return x - p * (x // p)


def _holds_residues(a: np.ndarray, p: int) -> bool:
    """Whether a is a numpy integer array of residues in [0, p): two reductions, min and max,
    where % p would cost one division per element."""
    return a.dtype.kind in "iu" and (a.size == 0 or a.min() >= 0 and a.max() < p)


def _residues(a: np.ndarray, p: int) -> np.ndarray:
    """An integer array as residues mod p: a itself when it holds only residues, otherwise
    reduced in int64."""
    if _holds_residues(a, p):
        return a
    return _mod(a.astype(np.int64, copy=False), p)


def _rref(a: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row echelon form mod p of one (r, c) matrix.

    Pivots are chosen leftmost-column-first and, within a column, the first
    row (top to bottom) at or below the next pivot row with a nonzero entry.
    Deterministic by design.  Returns the reduced matrix and its (r,) pivot
    columns: row i holds the pivot in pivots[i], -1 from the rank on.  The
    arithmetic runs in int64, which holds every product of two residues;
    p >= 2^15 raises ValueError (_inv_array).
    """
    _check_inverse_field(p)
    a = _residues(np.asarray(a), p).astype(np.int64)  # always a copy
    n_rows, n_cols = a.shape
    pivots = np.full(n_rows, -1, dtype=np.int64)
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        nz = np.flatnonzero(a[r:, c])
        if not nz.size:
            continue
        # every row from r down is zero left of column c, so only columns c: change
        i = r + nz[0]
        row = _mod(a[i, c:] * _inv_array(a[i, c:c + 1], p), p)
        # row i takes the row r it displaces, and row r the scaled pivot row after the elimination
        a[i, c:] = a[r, c:]
        a[:, c:] = _mod(a[:, c:] - a[:, c:c + 1] * row, p)
        a[r, c:] = row
        pivots[r] = c
        r += 1
    return a, pivots


def _rank_dtype(n_rows: int, n_cols: int, p: int) -> type:
    """_rank_array's dtype for (r, c) matrices, from the drift bound B = max(min(r, c) - 1, 1) (p-1)^2
    + 2p (see the module docstring): int8 while B < 2^7, int16 while B < 2^15, int64 beyond.  p must
    be below 2^15 (_inv_array), so B < 2^63 for every matrix with fewer than 2^33 rows or columns."""
    _check_inverse_field(p)
    bound = max(min(n_rows, n_cols) - 1, 1) * (p - 1) ** 2 + 2 * p
    return np.int8 if bound < 1 << 7 else np.int16 if bound < 1 << 15 else np.int64


def _rank_array(a: np.ndarray, p: int) -> np.ndarray:
    """Ranks mod p of a stack of matrices, shape (..., r, c) -> (...).

    Forward elimination with delayed reduction, a shared pivot row and no
    row swaps (see the module docstring).  The k-th pivot's update acts on
    the (r-k) x (c-k) block below and right of it, so no stored entry takes
    more than min(r, c) - 1 updates of at most (p-1)^2 each; the update
    factors f are cast to the stack's dtype (_rank_dtype), which that drift
    bound fits, so every product runs in it.  Stacks that split off wait on
    a work-list, so no depth of splitting recurses.  p >= 2^15 raises
    ValueError (_rank_dtype).
    """
    a = np.asarray(a)
    lead, (n_rows, n_cols) = a.shape[:-2], a.shape[-2:]
    count = math.prod(lead)
    dtype = _rank_dtype(n_rows, n_cols, p)
    a = _residues(a.reshape(count, n_rows, n_cols), p)
    ranks = np.zeros(count, dtype=np.int64)
    # (stack, its rank so far, its matrices' indices), each stack laid out (r, c, batch)
    work = [(a.transpose(1, 2, 0).astype(dtype, order="C"), 0, np.arange(count))] if count else []
    while work:
        a, rank, ids = work.pop()
        scratch = np.empty(a.size, dtype=dtype)  # the products f * row, reused by every column
        while a.shape[0] and a.shape[1]:
            col = _mod(a[:, 0], p)
            nz = col != 0
            has = nz.any(axis=0)
            if not has.all():
                if not has.any():
                    a = a[:, 1:]
                    continue
                # the matrices without a pivot here leave, to be ranked from the next column on
                work.append((a[:, 1:, ~has], rank, ids[~has]))
                a, col, nz, ids = a[:, :, has], col[:, has], nz[:, has], ids[has]
            # row 0 is the pivot row; where its entry is 0 it takes row i, the first with a nonzero one
            i = nz.argmax(axis=0)
            if i.any():
                pick = np.arange(i.size)
                piv = col[i, pick]
                row = _mod(_mod(a[i, 1:, pick].T, p) + (i > 0) * _mod(a[0, 1:], p), p)
            else:
                piv, row = col[0], _mod(a[0, 1:], p)
            # the rows below take f * row with f and row in [0, p): nothing else is reduced
            f = _mod(col[1:] * _inv_array(piv, p), p).astype(dtype, copy=False)
            a = a[1:, 1:]
            prod = scratch[:a.size].reshape(a.shape)
            np.multiply(f[:, None], row, out=prod)
            a -= prod
            rank += 1
        ranks[ids] = rank
    return ranks.reshape(lead)


def mat_rank(a: np.ndarray, p: int) -> int:
    """Rank of one matrix over F_p."""
    return int(_rank_array(a, p))


def _null_basis_from_rref(rref: np.ndarray, pivots: np.ndarray, p: int) -> np.ndarray:
    """One canonical null-space vector per free column of one reduced matrix, as rows.

    Each vector is scaled so that its first nonzero coordinate equals 1.
    """
    n_cols = rref.shape[1]
    pivot_cols = pivots[pivots >= 0]
    is_free = np.ones(n_cols, dtype=bool)
    is_free[pivot_cols] = False
    free = np.flatnonzero(is_free)
    out = np.zeros((free.size, n_cols), dtype=rref.dtype)
    out[np.arange(free.size), free] = 1
    out[:, pivot_cols] = (-rref[:pivot_cols.size, free] % p).T
    first = out[np.arange(free.size), (out != 0).argmax(axis=1)]
    return out * _inv_array(first, p)[:, None] % p


def solve_affine(a: np.ndarray, b: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Solve A x = b over F_p.

    Returns (particular, null_basis): the solution set is particular +
    rowspan(null_basis), with exactly p**len(null_basis) elements.  Returns
    None when the system is inconsistent.
    """
    a, b = np.asarray(a), np.asarray(b)
    n_rows, n_cols = a.shape
    if b.shape != (n_rows,):
        raise ValueError("dimension mismatch: A has %d rows, b has shape %s" % (n_rows, b.shape))
    rref, pivots = _rref(np.concatenate([a, b.reshape(-1, 1)], axis=1), p)
    if n_cols in pivots:
        return None
    x = np.zeros(n_cols, dtype=np.int64)
    x[pivots[pivots >= 0]] = rref[pivots >= 0, n_cols]
    return x, _null_basis_from_rref(rref[:, :n_cols], pivots, p)


def affine_solver(a: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(T, N) with {x : A x = b} = T b + rowspan(N) mod p for every b; A of full row rank.

    One row reduction of [A | I] serves every right-hand side: the pivots of
    rref([A | b]) all lie in A's columns, so the row operations do not depend
    on b and the right block of rref([A | I]) maps b to the reduced b.  T b
    mod p and the rows of N are bit-identical to solve_affine(a, b, p)'s
    particular solution and null basis.
    """
    n_rows, n_cols = np.shape(a)
    rref, pivots = _rref(np.concatenate([a, np.eye(n_rows, dtype=np.int64)], axis=1), p)
    if (pivots >= n_cols).any():
        raise ValueError("affine_solver needs a matrix of full row rank")
    transform = np.zeros((n_cols, n_rows), dtype=np.int64)
    transform[pivots[pivots >= 0]] = rref[pivots >= 0, n_cols:]
    return transform, _null_basis_from_rref(rref[:, :n_cols], pivots, p)


def orth_complement(vs: np.ndarray, p: int) -> np.ndarray:
    """Rows spanning {u : <u, v> = 0 for every row v of vs}, an (m, n) array; m = 0 gives the identity."""
    rref, pivots = _rref(vs, p)
    return _null_basis_from_rref(rref, pivots, p)


def _matmul_residues(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for residue arrays, in the narrow dtype it was reduced in (see matmul_mod)."""
    a, b = np.asarray(a), np.asarray(b)
    # the sums are at most k (p-1)^2; the dtype must also hold p itself, which matters at k = 0
    bound = max(a.shape[-1] * (p - 1) ** 2, p)
    blas = _blas_dtype(bound)
    # every sum is an integer the float dtype holds exactly, and so does the narrow dtype
    return _mod((a.astype(blas) @ b.astype(blas)).astype(_narrow_dtype(bound, p)), p)


def matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for arrays of residues in [0, p), with numpy's matmul broadcasting, as int64.

    Float32 BLAS while each row-by-column sum, at most k (p-1)^2 for inner
    dimension k, stays below 2^24, float64 while it stays below 2^53,
    either then reduced in the narrowest of int16, int32 and int64 that
    holds that bound and p; a bound of 2^53 or more raises ValueError
    (_blas_dtype).  An entry outside [0, p) can break the bound and round,
    so callers reduce first.
    """
    return _matmul_residues(a, b, p).astype(np.int64, copy=False)


# ---------------------------------------------------------------------------
# Quadratic forms.
# ---------------------------------------------------------------------------

def quad_forms(points: np.ndarray, mats: np.ndarray, p: int) -> np.ndarray:
    """(m, t) array of x^T M x mod p, for each row x of points and each of the t forms.

    points is (m, n) and mats is (t, n, n), both with entries in [0, p): an
    entry outside it can break the bounds below and wrap, so callers reduce
    first.  One GEMM multiplies the points by the forms stacked side by
    side, then each row of the product is dotted with its point.  Every
    partial sum is an integer at most n^2 (p-1)^3, which float32 holds
    exactly below 2^24 and float64 below 2^53; the forms are then reduced
    in the narrowest of int16, int32 and int64 that holds that bound and p,
    and returned as int64.  A bound, or a p, of 2^53 or more raises
    ValueError (_blas_dtype).
    """
    points, mats = np.asarray(points), np.asarray(mats)
    m, n = points.shape
    t = mats.shape[0]
    bound = max(n * n * (p - 1) ** 3, p)  # the dtype must also hold p itself, which matters at n = 0
    blas = _blas_dtype(bound)
    if n == 0:
        # every form of an empty point is 0, with no zero-length product or einsum to trust
        return np.zeros((m, t), dtype=np.int64)
    pts = points.astype(blas)
    w = (pts @ mats.transpose(1, 0, 2).reshape(n, t * n).astype(blas)).reshape(m, t, n)
    return _mod(np.einsum("mtn,mn->mt", w, pts).astype(_narrow_dtype(bound, p)), p).astype(np.int64)


# ---------------------------------------------------------------------------
# Group-element enumeration: vectors of F_p^n <-> integer ranks.
#
# rank(x) = sum_i x_i * p**(n-1-i), so rank order equals lexicographic order
# on coordinate tuples, with the first coordinate most significant.
# ---------------------------------------------------------------------------

def rank_powers(p: int, n: int) -> np.ndarray:
    return np.array([p ** (n - 1 - i) for i in range(n)], dtype=np.int64)


def ranks_to_digits(ranks: np.ndarray, p: int, n: int) -> np.ndarray:
    """Decode integer ranks into an (m, n) array of coordinates."""
    ranks = np.asarray(ranks, dtype=np.int64)
    out = np.empty((ranks.shape[0], n), dtype=np.int64)
    rem = ranks.copy()
    for i in range(n - 1, -1, -1):
        out[:, i] = rem % p
        rem //= p
    return out


def digits_to_ranks(digits: np.ndarray, p: int) -> np.ndarray:
    """The rank of each vector along the last axis of digits, so stacked blocks rank at once."""
    digits = np.asarray(digits, dtype=np.int64)
    return digits @ rank_powers(p, digits.shape[-1])


def shifted_ranks(offsets: np.ndarray, p: int) -> np.ndarray:
    """(m, p**n) array: row i holds rank(offsets[i] + z) for every z of F_p^n in rank order.

    offsets is an (m, n) array of residues.  The ranks are built one digit at a time, most
    significant first, so no (m, p**n, n) array of sums is ever formed.  Every partial rank is
    below p**n, so they are built and returned in the narrowest unsigned dtype holding
    p**n - 1; every caller only gathers with them.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    m, n = offsets.shape
    digits = ((offsets[:, :, None] + np.arange(p)) % p).astype(np.min_scalar_type(p ** n - 1))
    out = np.zeros((m, 1), dtype=digits.dtype)
    for j in range(n):
        out = (out[:, :, None] * p + digits[:, j, None, :]).reshape(m, out.shape[1] * p)
    return out


def iter_group_chunks(p: int, n: int, chunk: int = 1 << 16):
    """Yield (start_rank, digit_block) over all of F_p^n in rank order, as fresh int64 blocks of
    at most max(chunk, 1) rows: whole runs of the low j digits, for the largest j <= n with
    p**j <= chunk, copied from one table, so only the high digits are decoded per block."""
    j = 0
    while j < n and p ** (j + 1) <= chunk:
        j += 1
    run = p ** j
    per_block = max(1, chunk // run)
    low = np.tile(ranks_to_digits(np.arange(run, dtype=np.int64), p, j), (per_block, 1))
    highs = p ** (n - j)
    for hi in range(0, highs, per_block):
        count = min(per_block, highs - hi)
        block = np.empty((count * run, n), dtype=np.int64)
        high = ranks_to_digits(np.arange(hi, hi + count, dtype=np.int64), p, n - j)
        block[:, :n - j] = np.repeat(high, run, axis=0)
        block[:, n - j:] = low[:count * run]
        yield hi * run, block


# ---------------------------------------------------------------------------
# Deterministic per-module PRNG streams.
# ---------------------------------------------------------------------------

def derive_rng(seed: int, *key: object) -> np.random.Generator:
    """A PRNG stream keyed by (seed, *key); strings are hashed stably."""
    parts = [int(seed) & 0xFFFFFFFF]
    for k in key:
        if isinstance(k, str):
            parts.append(zlib.crc32(k.encode("utf-8")))
        else:
            parts.append(int(k) & 0xFFFFFFFF)
    return np.random.default_rng(np.random.SeedSequence(parts))


# The constants of numpy's SeedSequence hash (an entropy pool of 4 uint32 words) and of
# PCG64's LCG step; NEP 19 fixes SeedSequence -> PCG64 seeding bit for bit.
_POOL_SIZE = 4
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = 0xFFFFFFFF, (1 << 128) - 1


def _hash_round(value: np.ndarray, mult: int, step: int) -> tuple[np.ndarray, int]:
    """One SeedSequence hash round on uint32 words: xor mult, times the next multiplier, xor-shift."""
    mult_next = mult * step & _MASK32
    value = (value ^ np.uint32(mult)) * np.uint32(mult_next)
    return value ^ value >> np.uint32(16), mult_next


def derive_rng_states(seeds, *key: object) -> list[dict]:
    """derive_rng(s, *key).bit_generator.state for every seed s of seeds, from one array pass.

    SeedSequence's pool hash and generate_state(4, uint64) run on every
    seed at once in wrapping uint32 arithmetic; PCG64's seeding (state 0,
    one LCG step, add the seed, one more step) runs in Python integers.  A
    state is installed by assigning it to a PCG64's state.  The entropy
    words (the seed and one per key part) must fit SeedSequence's pool of 4,
    so a key of more than 3 parts raises ValueError.
    """
    words = [zlib.crc32(k.encode("utf-8")) if isinstance(k, str) else int(k) & _MASK32 for k in key]
    if 1 + len(words) > _POOL_SIZE:
        raise ValueError(f"a key of {len(key)} parts overflows the {_POOL_SIZE}-word entropy pool")
    entropy = np.zeros((_POOL_SIZE, len(seeds)), dtype=np.uint32)
    entropy[0] = [int(s) & _MASK32 for s in seeds]
    entropy[1:1 + len(words)] = np.array(words, dtype=np.uint32)[:, None]
    pool, mult = [], _HASH_INIT_A
    for w in entropy:
        value, mult = _hash_round(w, mult, _HASH_MULT_A)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, mult = _hash_round(pool[src], mult, _HASH_MULT_A)
                mixed = np.uint32(_MIX_MULT_L) * pool[dst] - np.uint32(_MIX_MULT_R) * value
                pool[dst] = mixed ^ mixed >> np.uint32(16)
    # generate_state(4, uint64): 8 uint32 words cycling through the pool, paired little-endian
    out, mult = [], _HASH_INIT_B
    for i in range(2 * _POOL_SIZE):
        value, mult = _hash_round(pool[i % _POOL_SIZE], mult, _HASH_MULT_B)
        out.append(value.astype(np.uint64))
    seed_hi, seed_lo, inc_hi, inc_lo = (out[2 * j] | out[2 * j + 1] << np.uint64(32) for j in range(4))
    states = []
    for s_hi, s_lo, i_hi, i_lo in zip(seed_hi.tolist(), seed_lo.tolist(), inc_hi.tolist(), inc_lo.tolist()):
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0})
    return states


def lemire_draws(streams, halves, p: int, count: int) -> tuple[np.ndarray, list]:
    """count residues in [0, p) from each PCG64 bit generator of streams, as a (streams, count)
    array in the narrowest unsigned dtype, and each stream's spare half after the draws.

    Row i is Generator(streams[i]).integers(0, p, size=count, dtype=np.uint32) for a generator
    whose has_uint32 buffer holds halves[i] (None when empty), and the stream's raw state after
    the call is what that generator's would be, buffer included: numpy splits each 64-bit raw
    word into two 32-bit words, the low half first, and keeps the high half for the next word it
    needs.  Each word w gives floor(w p / 2^32) unless (w p mod 2^32) < 2^32 mod p, when it is
    rejected and the next word is drawn (Lemire, ACM TOMACS 2019; numpy's
    buffered_bounded_lemire_uint32).  The words come from one random_raw call per stream and
    are reduced in one array pass: w p / 2^32 is exact in float64 while w p < 2^53, and
    w p mod 2^32 is the wrapping uint32 product.  A row holds a rejected word with probability
    below count p / 2^32; it is redone from that word on in a scalar loop.  Requires
    2 <= p < 2^21.
    """
    if not 2 <= p < 1 << 21:
        raise ValueError(f"bounded draws need 2 <= p < 2^21; got p = {p}")
    words = np.empty((len(streams), count + 1), dtype=np.uint32)  # count words, then any spare half
    after = []
    for row, stream, half in zip(words, streams, halves):
        skip = half is not None
        if skip:
            row[0] = half
        raw = stream.random_raw((count - skip + 1) // 2).astype("<u8", copy=False).view("<u4")
        row[skip:skip + raw.size] = raw
        after.append(int(row[count]) if (count - skip) % 2 else None)
    words = words[:, :count]
    out = (words * (p / (1 << 32))).astype(np.uint8 if p <= 1 << 8 else np.uint16 if p <= 1 << 16 else np.uint32)
    threshold = (1 << 32) % p
    rejected = words * np.uint32(p) < threshold
    for i in np.flatnonzero(rejected.any(axis=1)).tolist():
        start = int(rejected[i].argmax())
        queue, vals, half = words[i, start + 1:].tolist()[::-1], [], after[i]
        while start + len(vals) < count:
            if queue:
                w = queue.pop()
            elif half is not None:
                w, half = half, None
            else:
                raw = int(streams[i].random_raw())
                w, half = raw & _MASK32, raw >> 32
            if w * p & _MASK32 >= threshold:
                vals.append(w * p >> 32)
        out[i, start:] = vals
        after[i] = half
    return out, after
