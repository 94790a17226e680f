import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vc2lab
from vc2lab import certs
from vc2lab.fp import FieldCtx, FpVector
from vc2lab.gs import ExplicitSet, GsSet, QgsSet
from vc2lab.highrank import build_trace_basis
from vc2lab.shatter import shatters, vc2_shatters, ShatterCertificate
from vc2lab.factor import CheckResult, construct_shatter_pair, realize_map

ctx3 = FieldCtx(3)


@pytest.fixture(scope="module")
def shatter_doc():
    a = GsSet(ctx3, 3)
    s = [FpVector(ctx3, (0, 0, 0)), FpVector(ctx3, (0, 1, 2)), FpVector(ctx3, (0, 2, 1))]
    cert = shatters(a, s)
    assert isinstance(cert, ShatterCertificate)
    return certs.loads(certs.dumps(certs.shatter_certificate_doc(cert, a)))


@pytest.fixture(scope="module")
def vc2_doc():
    basis = build_trace_basis(ctx3, 13)
    c = construct_shatter_pair(basis, 2, seed=0)
    a = QgsSet(basis)
    cert = vc2_shatters(a, c.X, c.Y, lambda phi: realize_map(c, phi, seed=0))
    return certs.loads(certs.dumps(certs.quad_certificate_doc(cert, a)))


_VERIFY_STDIN = (
    "import sys; from vc2lab import certs; "
    "r = certs.verify_certificate(certs.loads(sys.stdin.read())); print(r.ok, r.detail)"
)


def _verdict_in_child(doc) -> bool:
    """verify_certificate's verdict on doc, from a child process with a time limit, so a
    verifier that hangs fails the calling test instead of blocking the suite."""
    src = str(Path(vc2lab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", _VERIFY_STDIN], input=certs.dumps(doc),
                         capture_output=True, timeout=10, env=env, check=True)
    return out.stdout.split()[0] == b"True"


def test_shatter_certificate_at_p_2_61_minus_1_gets_a_verdict():
    # GS(p, 1) = {1}: the translate 2 takes 0 out of the set and 1 puts it in
    doc = {"kind": "shatter", "p": 2 ** 61 - 1, "n": 1, "set": {"kind": "gs"}, "S": [[0]],
           "witnesses": [{"pattern": 0, "y": [2]}, {"pattern": 1, "y": [1]}]}
    assert _verdict_in_child(doc)


def test_shatter_verdicts_exact_below_2_63():
    # p = 2^63 - 25: the witness 52 moves p - 1 to 51, outside GS(p, 1) = {1}; an int64 sum
    # wraps to 2^63 + 26 - 2^64, which is 1 mod p
    p = 2 ** 63 - 25
    doc = {"kind": "shatter", "p": p, "n": 1, "set": {"kind": "gs"}, "S": [[p - 1]],
           "witnesses": [{"pattern": 0, "y": [3]}, {"pattern": 1, "y": [2]}]}
    assert _verdict_in_child(doc)
    doc["witnesses"][1]["y"] = [52]
    assert not _verdict_in_child(doc)


def test_emitted_shatter_certificate_verifies(shatter_doc):
    res = certs.verify_certificate(shatter_doc)
    assert res.ok, res.detail


def test_emitted_vc2_certificate_verifies(vc2_doc):
    res = certs.verify_certificate(vc2_doc)
    assert res.ok, res.detail


def test_explicit_oracle_round_trip():
    rng = np.random.default_rng(3)
    a = ExplicitSet(ctx3, 2, rng.random(9) < 0.5)
    spec = certs.oracle_spec(a)
    back = certs.oracle_from_spec(spec, 3, 2)
    assert (back.membership_table() == a.membership_table()).all()


def test_unknown_kind_rejected():
    assert not certs.verify_certificate({"kind": "nope"}).ok
    assert not certs.verify_certificate({}).ok


def test_malformed_document_rejected(shatter_doc):
    import copy

    doc = copy.deepcopy(shatter_doc)
    del doc["witnesses"]
    assert not certs.verify_certificate(doc).ok
    doc = copy.deepcopy(shatter_doc)
    doc["S"][0] = [0, 0]  # wrong length
    assert not certs.verify_certificate(doc).ok


def _mutations(doc, rng):
    """Yield semantically-breaking mutations of a certificate document."""
    import copy

    kind = doc["kind"]
    key, coord_key = ("pattern", "y") if kind == "shatter" else ("phi", "z")
    n_wit = len(doc["witnesses"])
    while True:
        kind_pick = rng.integers(0, 3)
        out = copy.deepcopy(doc)
        if kind_pick == 0:
            # flip one bit of a stored pattern or map index: the stored point
            # then witnesses a different pattern than claimed
            i = int(rng.integers(0, n_wit))
            width = 3 if kind == "shatter" else 4
            out["witnesses"][i][key] ^= 1 << int(rng.integers(0, width))
            out["witnesses"][i][key] %= n_wit
        elif kind_pick == 1:
            # drop a witness: coverage becomes incomplete
            i = int(rng.integers(0, n_wit))
            del out["witnesses"][i]
        else:
            # overwrite one witness entry with another: duplicate + missing
            i = int(rng.integers(0, n_wit))
            j = int(rng.integers(0, n_wit))
            if i == j:
                continue
            out["witnesses"][i] = copy.deepcopy(out["witnesses"][j])
        yield out


def test_fuzzed_mutations_rejected(shatter_doc, vc2_doc):
    rng = np.random.default_rng(2024)
    for doc in (shatter_doc, vc2_doc):
        gen = _mutations(doc, rng)
        for _ in range(500):
            mutated = next(gen)
            assert not certs.verify_certificate(mutated).ok
    # documents of the wrong JSON type, whole or in part, fail instead of raising
    hostile = [[], "x", 3, None, {**shatter_doc, "set": []}, {**shatter_doc, "set": "gs"},
               {**vc2_doc, "set": [1]}, {**shatter_doc, "witnesses": [[0]]},
               {**shatter_doc, "witnesses": [{"pattern": float("inf"), "y": [0, 0, 0]}]}]
    for doc in hostile:
        res = certs.verify_certificate(doc)
        assert isinstance(res, CheckResult) and not res.ok


def test_dumps_deterministic(shatter_doc):
    assert certs.dumps(shatter_doc) == certs.dumps(certs.loads(certs.dumps(shatter_doc)))
