"""Serializable shattering certificates and their independent re-checker.

The verifier searches for no witness: it rebuilds the membership oracle
from the document, evaluates memberships pointwise, and checks pattern/map
coverage.  Both kinds are replayed the same way, as translates of cells: a
shatter document's cells are S, with key pattern; a vc2 document is replayed
as its k^2 cells x_i + y_j, with key full ^ idx for map idx.  Every number in
a document is read as an integer (operator.index: bools count as 1/0, floats
and digit strings are malformed).  Witness coordinates are read as one int64
array when every row holds n integers that fit int64, else row by row up to
the first bad row, and replayed in blocks of at most _BLOCK_ROWS witnesses,
each block one contains_translates call on the cells.  A document's set is
gs or qgs, any other kind is malformed.  A qgs oracle is
rebuilt by rerunning build_trace_basis's canonical polynomial search and
matching the recorded polynomial, which is why QGS_MAX_P exists (ROADMAP
item 1 would check the recorded polynomial instead).  It does not import
factor's search code.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass
from itertools import chain
from operator import index
from typing import Any

import numpy as np

from .fp import FieldCtx, _holds_residues, add_mod
from .gs import GsSet, QgsSet
from .highrank import build_trace_basis
from .shatter import MAX_GRID_K, MAX_SET_SIZE, QuadShatterCertificate, ShatterCertificate


def oracle_spec(a) -> dict:
    if isinstance(a, GsSet):
        return {"kind": "gs"}
    if isinstance(a, QgsSet):
        return {"kind": "qgs", "poly": list(a.basis.poly.coeffs)}
    raise TypeError(f"cannot serialize oracle of type {type(a).__name__}")


# The verifier's limits, checked before any oracle is rebuilt.  Points and shifts
# are replayed as int64 residues, exact for every p below P_BOUND.  A qgs set is
# rebuilt by the canonical search for its extension polynomial, whose time grows
# with p and n: over every p <= 31 and n <= 64 build_trace_basis took at most
# 0.34 s of CPU time (p = 31, n = 62) on a 2-vCPU x86-64 VM with one BLAS thread,
# and below highrank.BASIS_P_BOUND = 2^8 at most 14.5 s (p = 251, n = 60).
P_BOUND = 1 << 63
QGS_MAX_P = 31
QGS_MAX_N = 64

# Witnesses per contains_translates call while a certificate is replayed.  On the
# verify-replay benchmark (2-vCPU x86-64 VM), whose documents hold at most 512
# witnesses, 1,024 and 4,096 (one call per document) took 0.152-0.157 s and 256
# 0.161-0.166 s; at n = 31 a block of 1,024 shifts is a 254 KB int64 array.
_BLOCK_ROWS = 1024

_MALFORMED = (KeyError, OverflowError, TypeError, ValueError)


@dataclass(frozen=True)
class CheckResult:
    """A verdict and its one-line detail."""

    ok: bool
    detail: str


class LimitExceeded(ValueError):
    """A certificate outside the verifier's documented limits."""


def oracle_from_spec(spec: dict, p: int, n: int):
    if not isinstance(spec, dict):
        raise ValueError("set description must be an object")
    ctx = FieldCtx(p)
    kind = spec.get("kind")
    if kind == "gs":
        return GsSet(ctx, n)
    if kind == "qgs":
        if p > QGS_MAX_P or n > QGS_MAX_N:
            raise LimitExceeded(f"qgs set beyond the verifier's limits p <= {QGS_MAX_P}, n <= {QGS_MAX_N}")
        basis = build_trace_basis(ctx, n)
        if list(basis.poly.coeffs) != [index(c) for c in spec["poly"]]:
            raise ValueError("certificate polynomial does not match the canonical construction")
        return QgsSet(basis)
    raise ValueError(f"unknown oracle kind {kind!r}")


def shatter_certificate_doc(cert: ShatterCertificate, a) -> dict:
    """The document of a certificate found for the set a."""
    return {
        "kind": "shatter",
        "p": a.p,
        "n": a.n,
        "set": oracle_spec(a),
        "S": cert.S.tolist(),
        "witnesses": [
            {"pattern": mask, "y": y} for mask, y in enumerate(cert.witnesses.tolist())
        ],
    }


def quad_certificate_doc(cert: QuadShatterCertificate, a) -> dict:
    """The document of a certificate found for the set a."""
    return {
        "kind": "vc2",
        "p": a.p,
        "n": a.n,
        "set": oracle_spec(a),
        "X": cert.X.tolist(),
        "Y": cert.Y.tolist(),
        "witnesses": [
            {"phi": idx, "z": z} for idx, z in enumerate(cert.witnesses.tolist())
        ],
    }


def _vec(p: int, coords, n: int) -> np.ndarray:
    """One point of a document as an int64 row, each coordinate read as an integer and reduced mod p."""
    coords = [index(c) % p for c in coords]
    if len(coords) != n:
        raise ValueError("coordinate length mismatch")
    return np.array(coords, dtype=np.int64)


def _rows(p: int, raw: list, n: int) -> tuple[np.ndarray, Exception | None]:
    """The points raw as one (m, n) int64 array of residues, and the error of its first bad row.

    When every row has length n and holds only integers that fit int64, the
    rows are read in one step by array('q'), which reads integers only (bools
    as 1/0), and reduced with one % p unless they are residues already.
    numpy never guesses their dtype: it would read a string among them as a
    fixed-width unicode array, every element as wide as the longest string.  Anything else (ragged or nested
    rows, floats, strings, None, integers beyond int64) is read row by row by
    _vec, and the array stops before the first row that raises.
    """
    try:
        if set(map(len, raw)) <= {n}:
            flat = np.frombuffer(array("q", list(chain.from_iterable(raw))), dtype=np.int64).reshape(len(raw), n)
            return (flat if _holds_residues(flat, p) else flat % p), None
    except _MALFORMED:
        pass
    rows, failure = [], None
    for coords in raw:
        try:
            rows.append(_vec(p, coords, n))
        except _MALFORMED as exc:
            failure = exc
            break
    return np.array(rows, dtype=np.int64).reshape(len(rows), n), failure


def _verify(doc: dict, kind: str) -> CheckResult:
    """Replay a shatter or vc2 document as translates of its cells.

    A shatter document's cells are S, and the witness for pattern key must
    realize key.  A vc2 document's cells are x_i + y_j, cell (i, j) in row
    i k + j, and the witness for map key must realize full ^ key: bit i k + j
    of a map index marks cell (i, j) outside the set.  Witness keys are read
    in document order up to the first bad one, and their coordinates are then
    read as one array up to the first bad row (see _rows); the witnesses read
    are replayed in blocks of at most _BLOCK_ROWS witnesses, so a mismatch is
    reported before a bad witness that comes after it.
    """
    p, n = index(doc["p"]), index(doc["n"])
    if p >= P_BOUND:
        raise LimitExceeded("p exceeds the verifier's limit p < 2^63")
    FieldCtx(p)  # p must be an odd prime before the set description is read
    a = oracle_from_spec(doc["set"], p, n)
    if kind == "shatter":
        s = [_vec(p, row, n) for row in doc["S"]]
        if not 1 <= len(s) <= MAX_SET_SIZE:
            return CheckResult(False, "set size out of range")
        cells, key, coords, name, noun, flip = np.stack(s), "pattern", "y", "pattern", "patterns", 0
    else:
        x = [_vec(p, row, n) for row in doc["X"]]
        y = [_vec(p, row, n) for row in doc["Y"]]
        k = len(x)
        if len(y) != k or not 1 <= k <= MAX_GRID_K:
            return CheckResult(False, "grid size invalid")
        if x[0].any() or y[0].any():
            return CheckResult(False, "x_0 and y_0 must be zero")
        cells = add_mod(np.stack(x)[:, None, :], np.stack(y)[None, :, :], p).reshape(k * k, n)
        key, coords, name, noun, flip = "phi", "z", "map index", "maps", (1 << (k * k)) - 1
    width = len(cells)
    seen = {}  # key -> coordinates as written, in document order
    failure = None
    try:
        for w in doc["witnesses"]:
            idx = index(w[key])
            if not 0 <= idx < (1 << width):
                failure = CheckResult(False, f"{name} {idx} out of range")
                break
            if idx in seen:
                failure = CheckResult(False, f"{name} {idx} appears twice")
                break
            seen[idx] = w[coords]
    except _MALFORMED as exc:
        failure = exc
    keys = list(seen)
    shifts, bad_row = _rows(p, list(seen.values()), n)
    if bad_row is not None:  # the bad row comes before any failure of the key loop
        keys, failure = keys[:len(shifts)], bad_row
    wants = [idx ^ flip for idx in keys]  # Python ints: no numpy xor loop to map in
    weights = 1 << np.arange(width)
    for lo in range(0, len(keys), _BLOCK_ROWS):
        actual = a.contains_translates(cells, shifts[lo:lo + _BLOCK_ROWS]) @ weights
        bad = np.flatnonzero(actual != np.array(wants[lo:lo + _BLOCK_ROWS]))
        if bad.size:
            idx, got = keys[lo + bad[0]], int(actual[bad[0]])
            if kind == "shatter":
                return CheckResult(False, f"witness for pattern {idx} realizes {got}")
            wrong = got ^ idx ^ flip
            cell = (wrong & -wrong).bit_length() - 1  # the first wrong cell in row-major order
            return CheckResult(False, f"map {idx} mismatched at cell ({cell // k},{cell % k})")
    if isinstance(failure, Exception):
        raise failure
    if failure is not None:
        return failure
    if len(seen) != 1 << width:
        return CheckResult(False, f"coverage incomplete: {len(seen)} of {1 << width} {noun}")
    return CheckResult(True, f"all {1 << width} {noun} witnessed")


def verify_certificate(doc: Any) -> CheckResult:
    """Re-check a certificate document by membership evaluation only; never raises on bad input."""
    if not isinstance(doc, dict):
        return CheckResult(False, f"malformed certificate: expected an object, got {type(doc).__name__}")
    try:
        kind = doc.get("kind")
        if kind in ("shatter", "vc2"):
            return _verify(doc, kind)
        return CheckResult(False, f"unknown certificate kind {kind!r}")
    except LimitExceeded as exc:
        return CheckResult(False, str(exc))
    except _MALFORMED as exc:
        return CheckResult(False, f"malformed certificate: {exc}")


def dumps(doc: dict) -> bytes:
    """Canonical bytes: sorted keys, compact separators, trailing newline."""
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


def loads(data: bytes | str) -> Any:
    return json.loads(data)
