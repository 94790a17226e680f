"""Serializable shattering certificates and their independent re-checker.

The verifier never searches: it rebuilds the membership oracle from the
document (the quadratic oracle is reconstructed from the extension
polynomial alone, so the matrices are re-derived rather than trusted),
evaluates memberships pointwise, and checks pattern/map coverage.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .fp import FieldCtx, FpVector, add_mod
from .gs import ExplicitSet, GsSet, QgsSet
from .highrank import build_trace_basis
from .shatter import ContainmentMap, QuadShatterCertificate, ShatterCertificate
from .factor import CheckResult


def oracle_spec(a) -> dict:
    if isinstance(a, GsSet):
        return {"kind": "gs"}
    if isinstance(a, QgsSet):
        return {"kind": "qgs", "poly": list(a.basis.poly.coeffs)}
    if isinstance(a, ExplicitSet):
        return {"kind": "explicit", "bits_hex": np.packbits(a.table).tobytes().hex()}
    raise TypeError(f"cannot serialize oracle of type {type(a).__name__}")


def oracle_from_spec(spec: dict, p: int, n: int):
    if not isinstance(spec, dict):
        raise ValueError("set description must be an object")
    ctx = FieldCtx(p)
    kind = spec.get("kind")
    if kind == "gs":
        return GsSet(ctx, n)
    if kind == "qgs":
        basis = build_trace_basis(ctx, n)
        if list(basis.poly.coeffs) != [int(c) for c in spec["poly"]]:
            raise ValueError("certificate polynomial does not match the canonical construction")
        return QgsSet(basis)
    if kind == "explicit":
        bits = np.unpackbits(np.frombuffer(bytes.fromhex(spec["bits_hex"]), dtype=np.uint8))
        total = p ** n
        if bits.size < total:
            raise ValueError("explicit bitset too short")
        return ExplicitSet(ctx, n, bits[:total].astype(bool))
    raise ValueError(f"unknown oracle kind {kind!r}")


def shatter_certificate_doc(cert: ShatterCertificate, a) -> dict:
    p = cert.S[0].ctx.p
    n = cert.S[0].n
    return {
        "kind": "shatter",
        "p": p,
        "n": n,
        "set": oracle_spec(a),
        "S": [list(v.coords) for v in cert.S],
        "witnesses": [
            {"pattern": mask, "y": list(y.coords)} for mask, y in enumerate(cert.witnesses)
        ],
    }


def quad_certificate_doc(cert: QuadShatterCertificate, a) -> dict:
    p = cert.X[0].ctx.p
    n = cert.X[0].n
    return {
        "kind": "vc2",
        "p": p,
        "n": n,
        "set": oracle_spec(a),
        "X": [list(v.coords) for v in cert.X],
        "Y": [list(v.coords) for v in cert.Y],
        "witnesses": [
            {"phi": idx, "z": list(z.coords)} for idx, z in enumerate(cert.witnesses)
        ],
    }


def _vec(ctx: FieldCtx, coords, n: int) -> FpVector:
    coords = [int(c) for c in coords]
    if len(coords) != n:
        raise ValueError("coordinate length mismatch")
    return FpVector(ctx, tuple(coords))


def _verify_shatter(doc: dict) -> CheckResult:
    p, n = int(doc["p"]), int(doc["n"])
    ctx = FieldCtx(p)
    a = oracle_from_spec(doc["set"], p, n)
    s = [_vec(ctx, row, n) for row in doc["S"]]
    k = len(s)
    if not 1 <= k <= 20:
        return CheckResult(False, "set size out of range")
    s_arr = np.stack([v.as_array() for v in s])
    bits = 1 << np.arange(k)
    seen = {}
    for w in doc["witnesses"]:
        mask = int(w["pattern"])
        if not 0 <= mask < (1 << k):
            return CheckResult(False, f"pattern {mask} out of range")
        if mask in seen:
            return CheckResult(False, f"pattern {mask} appears twice")
        y = _vec(ctx, w["y"], n)
        seen[mask] = y
        actual = int(a.contains_digits(add_mod(s_arr, y.as_array(), p)) @ bits)
        if actual != mask:
            return CheckResult(False, f"witness for pattern {mask} realizes {actual}")
    if len(seen) != 1 << k:
        return CheckResult(False, f"coverage incomplete: {len(seen)} of {1 << k} patterns")
    return CheckResult(True, f"all {1 << k} patterns witnessed")


def _verify_vc2(doc: dict) -> CheckResult:
    p, n = int(doc["p"]), int(doc["n"])
    ctx = FieldCtx(p)
    a = oracle_from_spec(doc["set"], p, n)
    x = [_vec(ctx, row, n) for row in doc["X"]]
    y = [_vec(ctx, row, n) for row in doc["Y"]]
    k = len(x)
    if len(y) != k or not 1 <= k <= 3:
        return CheckResult(False, "grid size invalid")
    if not (x[0].is_zero() and y[0].is_zero()):
        return CheckResult(False, "x_0 and y_0 must be zero")
    # the cells x_i + y_j as one (k*k, n) block, cell (i, j) in row i*k + j
    xs, ys = np.stack([v.as_array() for v in x]), np.stack([v.as_array() for v in y])
    grid = add_mod(xs[:, None, :], ys[None, :, :], p).reshape(k * k, n)
    seen = set()
    for w in doc["witnesses"]:
        idx = int(w["phi"])
        if not 0 <= idx < (1 << (k * k)):
            return CheckResult(False, f"map index {idx} out of range")
        if idx in seen:
            return CheckResult(False, f"map index {idx} appears twice")
        seen.add(idx)
        phi = ContainmentMap.from_index(k - 1, idx)
        z = _vec(ctx, w["z"], n)
        want = np.array([v for row in phi.verdicts for v in row])
        bad = np.flatnonzero(a.contains_digits(add_mod(grid, z.as_array(), p)) != want)
        if bad.size:
            return CheckResult(False, f"map {idx} mismatched at cell ({bad[0] // k},{bad[0] % k})")
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
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        return CheckResult(False, f"malformed certificate: {exc}")


def dumps(doc: dict) -> bytes:
    """Canonical bytes: sorted keys, compact separators, trailing newline."""
    return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


def loads(data: bytes | str) -> Any:
    return json.loads(data)
