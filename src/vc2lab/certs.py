"""Serializable shattering certificates and their independent re-checker.

The verifier searches for no witness: it rebuilds the membership oracle
from the document, evaluates memberships pointwise, and checks pattern/map
coverage.  A qgs oracle is rebuilt by rerunning build_trace_basis's canonical
polynomial search and matching the recorded polynomial, which is why
QGS_MAX_P exists (ROADMAP item 1 would check the recorded polynomial instead).
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .fp import FieldCtx, add_mod
from .gs import ExplicitSet, GsSet, QgsSet
from .highrank import build_trace_basis
from .shatter import QuadShatterCertificate, ShatterCertificate
from .factor import CheckResult


def oracle_spec(a) -> dict:
    if isinstance(a, GsSet):
        return {"kind": "gs"}
    if isinstance(a, QgsSet):
        return {"kind": "qgs", "poly": list(a.basis.poly.coeffs)}
    if isinstance(a, ExplicitSet):
        return {"kind": "explicit", "bits_hex": np.packbits(a.table).tobytes().hex()}
    raise TypeError(f"cannot serialize oracle of type {type(a).__name__}")


# The verifier's limits, checked before any oracle is rebuilt.  Points and shifts
# are replayed as int64 residues, exact for every p below P_BOUND.  A qgs set is
# rebuilt by the canonical search for its extension polynomial, whose time grows
# with p and n: within the limits below it took at most 0.40 s (p = 11, n = 55) on
# a 2-vCPU x86-64 VM, beyond them 9 s (p = 127, n = 64) or 15 s (p = 10^6 + 3, n = 4).
P_BOUND = 1 << 63
QGS_MAX_P = 13
QGS_MAX_N = 64

# membership rows per batched call while a certificate is replayed
_BLOCK_ROWS = 4096

_MALFORMED = (KeyError, OverflowError, TypeError, ValueError)


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
        if list(basis.poly.coeffs) != [int(c) for c in spec["poly"]]:
            raise ValueError("certificate polynomial does not match the canonical construction")
        return QgsSet(basis)
    if kind == "explicit":
        bits = np.unpackbits(np.frombuffer(bytes.fromhex(spec["bits_hex"]), dtype=np.uint8))
        # p**n >= 2**n, so the first test bounds n before p**n is formed
        if n >= bits.size.bit_length() or bits.size < p ** n:
            raise ValueError("explicit bitset too short")
        return ExplicitSet(ctx, n, bits[:p ** n].astype(bool))
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
    """One point of a document as an int64 row, each coordinate reduced as a Python integer."""
    coords = [int(c) % p for c in coords]
    if len(coords) != n:
        raise ValueError("coordinate length mismatch")
    return np.array(coords, dtype=np.int64)


def _open(doc: dict):
    """p, n and the rebuilt oracle of a certificate."""
    p, n = int(doc["p"]), int(doc["n"])
    if p >= P_BOUND:
        raise LimitExceeded("p exceeds the verifier's limit p < 2^63")
    FieldCtx(p)  # p must be an odd prime before the set description is read
    return p, n, oracle_from_spec(doc["set"], p, n)


def _replay(a, base: np.ndarray, witnesses, parse, mismatch) -> CheckResult | None:
    """The first failing witness in document order, or None.

    parse(w) turns one witness into (key, shift coordinates), returns a
    CheckResult for a bad key, or raises for a malformed witness.  Witnesses are
    parsed in order up to the first bad one; the parsed ones are then replayed
    at the points base + shift in blocks of at most _BLOCK_ROWS membership rows.
    mismatch(keys, verdicts) gets a block's keys and its (witnesses, len(base))
    verdicts and returns a CheckResult for the first witness whose verdicts do
    not match its key, or None.  A mismatch is reported before a bad witness
    that comes after it.
    """
    keys, shifts = [], []
    failure = None
    try:
        for w in witnesses:
            got = parse(w)
            if isinstance(got, CheckResult):
                failure = got
                break
            keys.append(got[0])
            shifts.append(got[1])
    except _MALFORMED as exc:
        failure = exc
    cells, n = base.shape
    per_block = max(1, _BLOCK_ROWS // cells)
    for lo in range(0, len(keys), per_block):
        m = min(per_block, len(keys) - lo)
        block = np.array(shifts[lo:lo + m], dtype=np.int64).reshape(m, 1, n)
        verdicts = a.contains_digits(add_mod(base[None], block, a.p).reshape(m * cells, n))
        bad = mismatch(np.array(keys[lo:lo + m], dtype=np.int64), verdicts.reshape(m, cells))
        if bad is not None:
            return bad
    if isinstance(failure, Exception):
        raise failure
    return failure


def _verify_shatter(doc: dict) -> CheckResult:
    p, n, a = _open(doc)
    s = [_vec(p, row, n) for row in doc["S"]]
    k = len(s)
    if not 1 <= k <= 20:
        return CheckResult(False, "set size out of range")
    seen = set()

    def parse(w):
        mask = int(w["pattern"])
        if not 0 <= mask < (1 << k):
            return CheckResult(False, f"pattern {mask} out of range")
        if mask in seen:
            return CheckResult(False, f"pattern {mask} appears twice")
        y = _vec(p, w["y"], n)
        seen.add(mask)
        return mask, y

    def mismatch(masks, verdicts):
        actual = verdicts @ (1 << np.arange(k))
        bad = np.flatnonzero(actual != masks)
        if bad.size:
            return CheckResult(False, f"witness for pattern {masks[bad[0]]} realizes {actual[bad[0]]}")
        return None

    failure = _replay(a, np.stack(s), doc["witnesses"], parse, mismatch)
    if failure is not None:
        return failure
    if len(seen) != 1 << k:
        return CheckResult(False, f"coverage incomplete: {len(seen)} of {1 << k} patterns")
    return CheckResult(True, f"all {1 << k} patterns witnessed")


def _verify_vc2(doc: dict) -> CheckResult:
    p, n, a = _open(doc)
    x = [_vec(p, row, n) for row in doc["X"]]
    y = [_vec(p, row, n) for row in doc["Y"]]
    k = len(x)
    if len(y) != k or not 1 <= k <= 3:
        return CheckResult(False, "grid size invalid")
    if x[0].any() or y[0].any():
        return CheckResult(False, "x_0 and y_0 must be zero")
    # the cells x_i + y_j as one (k*k, n) block, cell (i, j) in row i*k + j
    xs, ys = np.stack(x), np.stack(y)
    grid = add_mod(xs[:, None, :], ys[None, :, :], p).reshape(k * k, n)
    seen = set()

    def parse(w):
        idx = int(w["phi"])
        if not 0 <= idx < (1 << (k * k)):
            return CheckResult(False, f"map index {idx} out of range")
        if idx in seen:
            return CheckResult(False, f"map index {idx} appears twice")
        z = _vec(p, w["z"], n)
        seen.add(idx)
        return idx, z

    def mismatch(idxs, verdicts):
        # ContainmentMap.from_index: bit i*k + j of the index set means cell (i, j) lies outside
        want = (idxs[:, None] >> np.arange(k * k)) & 1 == 0
        wrong = verdicts != want
        rows = np.flatnonzero(wrong.any(axis=1))
        if rows.size:
            cell = int(np.argmax(wrong[rows[0]]))
            return CheckResult(False, f"map {idxs[rows[0]]} mismatched at cell ({cell // k},{cell % k})")
        return None

    failure = _replay(a, grid, doc["witnesses"], parse, mismatch)
    if failure is not None:
        return failure
    if len(seen) != 1 << (k * k):
        return CheckResult(False, f"coverage incomplete: {len(seen)} of {1 << (k * k)} maps")
    return CheckResult(True, f"all {1 << (k * k)} maps witnessed")


def verify_certificate(doc: Any) -> CheckResult:
    """Re-check a certificate document by membership evaluation only; never raises on bad input."""
    if not isinstance(doc, dict):
        return CheckResult(False, f"malformed certificate: expected an object, got {type(doc).__name__}")
    try:
        kind = doc.get("kind")
        if kind == "shatter":
            return _verify_shatter(doc)
        if kind == "vc2":
            return _verify_vc2(doc)
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
