import ast
import copy
import hashlib
import importlib.util
import sys
from datetime import timedelta
from operator import index
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from child import run_in_child
from hypothesis import given, settings, strategies as st

import vc2lab
from vc2lab import certs, cli
from vc2lab.fp import FieldCtx, add_mod, ranks_to_digits
from vc2lab.gs import ExplicitSet, GsSet, QgsSet
from vc2lab.highrank import build_trace_basis
from vc2lab.shatter import (ContainmentMap, NotShattered, QuadShatterCertificate, realizing_shifts, shatters,
                            ShatterCertificate, vc2_shatters, vc_dim)
from vc2lab.factor import CheckResult, construct_shatter_pair, realize_maps

ctx3 = FieldCtx(3)


def _shatter_base() -> dict:
    a = GsSet(ctx3, 3)
    cert = shatters(a, [(0, 0, 0), (0, 1, 2), (0, 2, 1)])
    assert isinstance(cert, ShatterCertificate)
    return certs.loads(certs.dumps(certs.shatter_certificate_doc(cert, a)))


def _vc2_base() -> dict:
    basis = build_trace_basis(ctx3, 13)
    c = construct_shatter_pair(basis, 2, seed=0)
    a = QgsSet(basis)
    found = realize_maps(c, np.arange(16), seed=0)
    cert = QuadShatterCertificate(c.X, c.Y, found)
    return certs.loads(certs.dumps(certs.quad_certificate_doc(cert, a)))


def _qgs_shatter_base() -> dict:
    a = QgsSet(build_trace_basis(ctx3, 5))
    cert = vc_dim(a).certificate
    assert isinstance(cert, ShatterCertificate)
    return certs.loads(certs.dumps(certs.shatter_certificate_doc(cert, a)))


# the emitted documents, built once; tests edit deep copies of them
_BASES = {"shatter": _shatter_base(), "vc2": _vc2_base(), "qgs-shatter": _qgs_shatter_base()}


@pytest.fixture(scope="module")
def shatter_doc():
    return _BASES["shatter"]


@pytest.fixture(scope="module")
def vc2_doc():
    return _BASES["vc2"]


_VERIFY_STDIN = (
    "import sys; from vc2lab import certs; "
    "r = certs.verify_certificate(certs.loads(sys.stdin.read())); print(r.ok, r.detail)"
)


def _result_in_child(doc, max_address_space: int | None = None) -> tuple[bool, str]:
    """verify_certificate's verdict and detail on doc, from a child process (see child.run_in_child)."""
    out = run_in_child(_VERIFY_STDIN, stdin=certs.dumps(doc), max_address_space=max_address_space)
    ok, _, detail = out.strip().partition(" ")
    return ok == "True", detail


def _verdict_in_child(doc) -> bool:
    return _result_in_child(doc)[0]


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


# p = 2^64 - 59 is prime; GS(p, 1) = {1}
_P_BEYOND = 2 ** 64 - 59


@pytest.mark.parametrize("doc", [
    {"kind": "shatter", "p": _P_BEYOND, "n": 1, "set": {"kind": "gs"}, "S": [[0]],
     "witnesses": [{"pattern": 0, "y": [2]}, {"pattern": 1, "y": [1]}]},
    {"kind": "vc2", "p": _P_BEYOND, "n": 1, "set": {"kind": "gs"}, "X": [[0]], "Y": [[0]],
     "witnesses": [{"phi": 0, "z": [1]}, {"phi": 1, "z": [0]}]},
])
def test_certificate_beyond_p_limit_fails_naming_the_limit(doc):
    # both documents are sound; at p = 2^63 - 25 the same certificates pass
    assert certs.P_BOUND == 2 ** 63
    assert _result_in_child(doc) == (False, "p exceeds the verifier's limit p < 2^63")
    assert _verdict_in_child({**doc, "p": 2 ** 63 - 25})


def _qgs_doc(p: int, n: int) -> dict:
    return {"kind": "vc2", "p": p, "n": n, "set": {"kind": "qgs", "poly": [1] * (n + 1)},
            "X": [[0] * n], "Y": [[0] * n], "witnesses": []}


@pytest.mark.parametrize("p,n", [(3, 400), (2 ** 31 - 1, 13), (37, 2)])
def test_qgs_certificate_beyond_limits_fails_at_once(p, n):
    limits = f"p <= {certs.QGS_MAX_P}, n <= {certs.QGS_MAX_N}"
    assert _result_in_child(_qgs_doc(p, n)) == (False, f"qgs set beyond the verifier's limits {limits}")


def test_qgs_certificate_at_limits_gets_a_verdict():
    # the basis is rebuilt, and the made-up polynomial is then rejected
    assert _result_in_child(_qgs_doc(certs.QGS_MAX_P, certs.QGS_MAX_N)) == (
        False, "malformed certificate: certificate polynomial does not match the canonical construction")


def test_emitted_shatter_certificate_verifies(shatter_doc):
    res = certs.verify_certificate(shatter_doc)
    assert res.ok, res.detail


def test_emitted_vc2_certificate_verifies(vc2_doc):
    res = certs.verify_certificate(vc2_doc)
    assert res.ok, res.detail


def test_explicit_oracle_kind_rejected(shatter_doc, tmp_path, capsys):
    # no command writes a set other than gs or qgs, and the verifier reads no other
    with pytest.raises(TypeError):
        certs.oracle_spec(ExplicitSet(ctx3, 2, np.arange(9) % 2 == 0))
    doc = {**shatter_doc, "set": {"kind": "explicit", "bits_hex": "ff" * 4}}
    assert certs.verify_certificate(doc) == CheckResult(False, "malformed certificate: unknown oracle kind 'explicit'")
    path = tmp_path / "explicit.json"
    path.write_bytes(certs.dumps(doc))
    assert cli.main(["verify-certificate", str(path)]) == 1
    assert "unknown oracle kind 'explicit'" in capsys.readouterr().out


def test_size_bounds_shared_with_the_search(shatter_doc, vc2_doc):
    # 20 points and k = 3 are the largest the search takes and the verifier replays
    a = GsSet(ctx3, 3)
    points = ranks_to_digits(np.arange(21), 3, 3)
    assert isinstance(shatters(a, points[:20]), NotShattered)
    with pytest.raises(ValueError, match=r"\|S\| must be <= 20"):
        shatters(a, points)
    doc = {**shatter_doc, "S": points[:20].tolist(), "witnesses": []}
    assert certs.verify_certificate(doc) == CheckResult(False, f"coverage incomplete: 0 of {1 << 20} patterns")
    assert certs.verify_certificate({**doc, "S": points.tolist()}) == CheckResult(False, "set size out of range")
    grid = ranks_to_digits(np.arange(4), 3, 3)
    assert isinstance(vc2_shatters(a, grid[:3], grid[:3]), (NotShattered, QuadShatterCertificate))
    with pytest.raises(ValueError, match="grid size k must be between 1 and 3"):
        vc2_shatters(a, grid, grid)
    grid = ranks_to_digits(np.arange(4), 3, vc2_doc["n"]).tolist()
    doc = {**vc2_doc, "X": grid[:3], "Y": grid[:3], "witnesses": []}
    assert certs.verify_certificate(doc) == CheckResult(False, "coverage incomplete: 0 of 512 maps")
    assert certs.verify_certificate({**doc, "X": grid, "Y": grid}) == CheckResult(False, "grid size invalid")


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


def _package_imports(path: Path) -> set[str]:
    """The vc2lab modules a source file imports, relatively or by absolute name."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "vc2lab"):
            module = (node.module or "").removeprefix("vc2lab").lstrip(".")
            out |= {module} if module else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            out |= {alias.name.removeprefix("vc2lab.") for alias in node.names if alias.name.startswith("vc2lab")}
    return out


def test_verifier_imports_no_search_code():
    assert _package_imports(Path(certs.__file__)) == {"fp", "gs", "highrank", "shatter"}
    assert vc2lab.CheckResult is vc2lab.factor.CheckResult is certs.CheckResult


def test_dumps_deterministic(shatter_doc):
    assert certs.dumps(shatter_doc) == certs.dumps(certs.loads(certs.dumps(shatter_doc)))


# The per-witness replay loops the batched verifier replaced; it must agree with them exactly.
# Like the verifier, they read every number of a document as an integer (bools as 1/0).

def _reference_shatter(doc: dict) -> CheckResult:
    p, n = index(doc["p"]), index(doc["n"])
    FieldCtx(p)
    a = certs.oracle_from_spec(doc["set"], p, n)
    s = [certs._vec(p, row, n) for row in doc["S"]]
    k = len(s)
    if not 1 <= k <= 20:
        return CheckResult(False, "set size out of range")
    s_arr = np.stack(s)
    bits = 1 << np.arange(k)
    seen = {}
    for w in doc["witnesses"]:
        mask = index(w["pattern"])
        if not 0 <= mask < (1 << k):
            return CheckResult(False, f"pattern {mask} out of range")
        if mask in seen:
            return CheckResult(False, f"pattern {mask} appears twice")
        y = certs._vec(p, w["y"], n)
        seen[mask] = y
        actual = int(a.contains_digits(add_mod(s_arr, y, p)) @ bits)
        if actual != mask:
            return CheckResult(False, f"witness for pattern {mask} realizes {actual}")
    if len(seen) != 1 << k:
        return CheckResult(False, f"coverage incomplete: {len(seen)} of {1 << k} patterns")
    return CheckResult(True, f"all {1 << k} patterns witnessed")


def _reference_vc2(doc: dict) -> CheckResult:
    p, n = index(doc["p"]), index(doc["n"])
    FieldCtx(p)
    a = certs.oracle_from_spec(doc["set"], p, n)
    x = [certs._vec(p, row, n) for row in doc["X"]]
    y = [certs._vec(p, row, n) for row in doc["Y"]]
    k = len(x)
    if len(y) != k or not 1 <= k <= 3:
        return CheckResult(False, "grid size invalid")
    if x[0].any() or y[0].any():
        return CheckResult(False, "x_0 and y_0 must be zero")
    xs, ys = np.stack(x), np.stack(y)
    grid = add_mod(xs[:, None, :], ys[None, :, :], p).reshape(k * k, n)
    seen = set()
    for w in doc["witnesses"]:
        idx = index(w["phi"])
        if not 0 <= idx < (1 << (k * k)):
            return CheckResult(False, f"map index {idx} out of range")
        if idx in seen:
            return CheckResult(False, f"map index {idx} appears twice")
        seen.add(idx)
        phi = ContainmentMap.from_index(k - 1, idx)
        z = certs._vec(p, w["z"], n)
        want = np.array([v for row in phi.verdicts for v in row])
        bad = np.flatnonzero(a.contains_digits(add_mod(grid, z, p)) != want)
        if bad.size:
            return CheckResult(False, f"map {idx} mismatched at cell ({bad[0] // k},{bad[0] % k})")
    if len(seen) != 1 << (k * k):
        return CheckResult(False, f"coverage incomplete: {len(seen)} of {1 << (k * k)} maps")
    return CheckResult(True, f"all {1 << (k * k)} maps witnessed")


def _reference_verify(doc) -> CheckResult:
    try:
        return (_reference_shatter if doc["kind"] == "shatter" else _reference_vc2)(doc)
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        return CheckResult(False, f"malformed certificate: {exc}")


def _load_workloads():
    """perfbench/workloads.py, loaded read-only; it names the documents verify-replay replays."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def test_verify_replay_verdicts_pinned(tmp_path):
    # the golden certificates pass and every seeded mutant fails, with the reference's detail
    workloads = _load_workloads()
    golden = {workloads.DATA / name for name in workloads.GOLDEN}
    for name, digest in workloads.GOLDEN.items():
        assert hashlib.sha256((workloads.DATA / name).read_bytes()).hexdigest() == digest, name
    cmds = workloads._verify_replay(tmp_path, 0)
    assert len(cmds) == len(golden) + 2 * workloads.MUTATIONS_PER_CERT
    for cmd in cmds:
        path = Path(cmd.config.extra["path"])
        report = cli.dispatch(cmd.config)
        assert cmd.check(report) is None, (path.name, report.value)
        assert (report.outcome == "pass") == (path in golden), (path.name, report.value)
        assert CheckResult(report.outcome == "pass", report.value) == _reference_verify(certs.loads(path.read_bytes()))


# the shipped block size among them, so the replay as shipped is tested too
_BLOCK_SIZES = sorted({1, 5, certs._BLOCK_ROWS, 4096})


@pytest.mark.parametrize("block_rows", _BLOCK_SIZES)
def test_coinciding_cells_fail_at_first_separating_map(block_rows):
    # x_1 = y_1 = v, so cells (0,1) and (1,0) coincide; {0, v, 2v} is shattered by GS(3,3) translates
    a = GsSet(ctx3, 3)
    xs = ys = [[0, 0, 0], [0, 1, 2]]
    table = a.membership_table()
    witnesses = []
    for idx in range(16):
        z = [0, 0, 0]
        if (idx >> 1 & 1) == (idx >> 2 & 1):
            hits = np.flatnonzero(realizing_shifts(a, table, xs, ys, ContainmentMap.from_index(1, idx)))
            z = ranks_to_digits(hits[:1], 3, 3)[0].tolist()
        witnesses.append({"phi": idx, "z": z})
    doc = {"kind": "vc2", "p": 3, "n": 3, "set": {"kind": "gs"}, "X": xs, "Y": ys, "witnesses": witnesses}
    with mock.patch.object(certs, "_BLOCK_ROWS", block_rows):
        res = certs.verify_certificate(doc)
    assert res == _reference_verify(doc)
    assert res.detail.startswith("map 2 mismatched at cell ")  # 2 is the least index with bit 1 != bit 2


# A callable edits the witness's own row; each of those rows leaves the verifier's one-array read.
_BAD_COORDS = [None, "x", 7, ["a"], [[0]], {"0": 1}, [float("nan")],
               lambda row: [2 ** 63] + row[1:], lambda row: row[:-1] + [-2 ** 63 - 1],
               lambda row: [2.0] + row[1:], lambda row: ["1"] + row[1:], lambda row: row + [0],
               lambda row: [[c] for c in row]]
_BAD_KEYS = [None, "x", [1], {"a": 1}, float("nan"), float("inf")]
_BAD_WITNESSES = [None, "w", 3, [], {}]
_EDITS = ["flip", "drop", "dup", "range", "swap", "bad_coords", "short", "bad_key", "no_coords",
          "bad_witness", "mismatch_then_bad"]


@st.composite
def _edited(draw, doc):
    """doc with one to four witness edits; witnesses stay in document order."""
    out = copy.deepcopy(doc)
    key, ck = ("pattern", "y") if doc["kind"] == "shatter" else ("phi", "z")
    wits = out["witnesses"]
    width = (len(wits) - 1).bit_length()
    for _ in range(draw(st.integers(1, 4))):
        if len(wits) < 2:
            break
        i, j = draw(st.lists(st.integers(0, len(wits) - 1), min_size=2, max_size=2, unique=True))
        edit = draw(st.sampled_from(_EDITS))
        w = wits[i] if isinstance(wits[i], dict) else {}
        if edit == "flip" and type(w.get(key)) is int:
            w[key] ^= 1 << draw(st.integers(0, width - 1))
        elif edit == "drop":
            del wits[i]
        elif edit == "dup":
            wits[i] = copy.deepcopy(wits[j])
        elif edit == "range":
            w[key] = draw(st.sampled_from([-1, len(doc["witnesses"]), 2 ** 70]))
        elif edit == "swap":
            w[ck] = copy.deepcopy(wits[j].get(ck) if isinstance(wits[j], dict) else None)
        elif edit == "bad_coords":
            bad = draw(st.sampled_from(_BAD_COORDS))
            if not callable(bad):
                w[ck] = bad
            elif isinstance(w.get(ck), list):
                w[ck] = bad(w[ck])
        elif edit == "short" and isinstance(w.get(ck), list):
            w[ck] = w[ck][:-1]
        elif edit == "bad_key":
            w[key] = draw(st.sampled_from(_BAD_KEYS))
        elif edit == "no_coords":
            w.pop(ck, None)
        elif edit == "bad_witness":
            wits[i] = draw(st.sampled_from(_BAD_WITNESSES))
        elif edit == "mismatch_then_bad" and isinstance(wits[min(i, j)], dict):
            # the earlier witness takes another's shift, so its key mismatches; the later one is malformed
            i, j = min(i, j), max(i, j)
            wits[i][ck] = copy.deepcopy(doc["witnesses"][(i + 1) % len(doc["witnesses"])][ck])
            wits[j] = {key: wits[j].get(key) if isinstance(wits[j], dict) else 0, ck: ["x"]}
    return out


@settings(max_examples=300, deadline=None)
@given(doc=st.sampled_from(["shatter", "vc2"]).flatmap(lambda which: _edited(_BASES[which])),
       block_rows=st.sampled_from(_BLOCK_SIZES))
def test_batched_replay_matches_per_witness_reference(doc, block_rows):
    with mock.patch.object(certs, "_BLOCK_ROWS", block_rows):
        assert certs.verify_certificate(doc) == _reference_verify(doc)


@pytest.mark.parametrize("block_rows", _BLOCK_SIZES)
def test_mismatch_reported_before_later_malformed_witness(vc2_doc, block_rows):
    doc = copy.deepcopy(vc2_doc)
    doc["witnesses"][3]["z"] = copy.deepcopy(doc["witnesses"][4]["z"])
    doc["witnesses"][9]["z"] = ["x"]
    with mock.patch.object(certs, "_BLOCK_ROWS", block_rows):
        res = certs.verify_certificate(doc)
    assert res == _reference_verify(doc)
    assert not res.ok and res.detail.startswith("map 3 mismatched")


@pytest.mark.parametrize("block_rows", _BLOCK_SIZES)
@pytest.mark.parametrize("edit", [lambda r: [float(r[0])] + r[1:], lambda r: [str(r[0])] + r[1:],
                                  lambda r: r + [0], lambda r: [r[:1]] + r[1:]])
def test_malformed_row_wins_over_later_bad_key(shatter_doc, block_rows, edit):
    # witness 2's row is read before witness 6's out-of-range key would be
    doc = copy.deepcopy(shatter_doc)
    doc["witnesses"][2]["y"] = edit(doc["witnesses"][2]["y"])
    doc["witnesses"][6]["pattern"] = 8
    with mock.patch.object(certs, "_BLOCK_ROWS", block_rows):
        res = certs.verify_certificate(doc)
    assert res == _reference_verify(doc)
    assert res.detail.startswith("malformed certificate: ")
    # a row beyond int64 with the same residues is read row by row, and the key error stands
    doc["witnesses"][2]["y"] = [c + (3 << 62) for c in shatter_doc["witnesses"][2]["y"]]
    with mock.patch.object(certs, "_BLOCK_ROWS", block_rows):
        assert certs.verify_certificate(doc) == CheckResult(False, "pattern 8 out of range") == _reference_verify(doc)


@pytest.mark.parametrize("which", ["qgs"])
def test_twenty_cells_over_several_blocks_match_per_witness_reference(which):
    # 20 cells of F_3^8 and more than two blocks of witnesses, each the first translate with its pattern
    # (GsSet gives only 41 distinct 20-cell patterns in F_3^8, too few for three blocks)
    rng = np.random.default_rng(20)
    a = QgsSet(build_trace_basis(ctx3, 8))
    s = ranks_to_digits(rng.choice(3 ** 8, 20, replace=False), 3, 8)
    ys = ranks_to_digits(np.arange(3 ** 8), 3, 8)
    patterns = a.contains_translates(s, ys) @ (1 << np.arange(20))
    keys, first = np.unique(patterns, return_index=True)
    count = 2 * certs._BLOCK_ROWS + 3
    assert len(keys) > count
    witnesses = [{"pattern": int(key), "y": ys[i].tolist()} for key, i in zip(keys[:count], first[:count])]
    doc = {"kind": "shatter", "p": 3, "n": 8, "set": certs.oracle_spec(a), "S": s.tolist(), "witnesses": witnesses}
    res = certs.verify_certificate(doc)
    assert res == _reference_verify(doc) == CheckResult(False, f"coverage incomplete: {count} of {1 << 20} patterns")
    # a mismatch in the last block only
    witnesses[-1]["y"], witnesses[-2]["y"] = witnesses[-2]["y"], witnesses[-1]["y"]
    res = certs.verify_certificate(doc)
    assert res == _reference_verify(doc)
    assert res.detail.startswith(f"witness for pattern {witnesses[-2]['pattern']} realizes ")


def test_witness_rows_read_as_residues():
    # residues are read as they are; any other int64 row, hostile values included, is reduced by %
    assert certs._rows(5, [[0, 4, 2], [1, 3, 0]], 3)[0].tolist() == [[0, 4, 2], [1, 3, 0]]
    rows, failure = certs._rows(5, [[-1, 5, 2 ** 63 - 1], [-2 ** 63, 9, 4]], 3)
    assert failure is None and rows.tolist() == [[4, 0, (2 ** 63 - 1) % 5], [(-2 ** 63) % 5, 4, 4]]


def test_long_string_coordinate_among_many_witnesses_rejected_in_bounded_memory():
    # 1,024 witnesses of GS(3, 5); numpy would read a 100,000-character string among their rows as
    # 5,120 unicode elements of 400 KB each (2 GB), so the rows must reach numpy only as integers
    s = ranks_to_digits(np.arange(10), 3, 5).tolist()
    witnesses = [{"pattern": mask, "y": [0] * 5} for mask in range(1 << 10)]
    witnesses[0]["y"] = ["1" * 100_000, 0, 0, 0, 0]
    doc = {"kind": "shatter", "p": 3, "n": 5, "set": {"kind": "gs"}, "S": s, "witnesses": witnesses}
    res = _result_in_child(doc, max_address_space=1 << 30)
    assert res == (False, _reference_verify(doc).detail)
    assert res[1].startswith("malformed certificate: ")


def _gs_3_5() -> dict:
    """A shipped shatter certificate for GS(3, 5), read-only."""
    return certs.loads((Path(__file__).resolve().parents[1] / "perfbench" / "data" / "vcdim_gs_3_5.json").read_bytes())


# every number the verifier reads, written as a float or a digit string; int() would truncate or parse it
@pytest.mark.parametrize("field,edit,got", [
    ("p", lambda d: d.update(p=3.0), "float"),
    ("n", lambda d: d.update(n="5"), "str"),
    ("pattern", lambda d: d["witnesses"][3].update(pattern=3.0), "float"),
    ("y", lambda d: d["witnesses"][0].update(y=[c + 0.7 for c in d["witnesses"][0]["y"]]), "float"),
    ("y", lambda d: d["witnesses"][0].update(y=[str(c) for c in d["witnesses"][0]["y"]]), "str"),
    ("S", lambda d: d["S"].__setitem__(0, [c + 0.5 for c in d["S"][0]]), "float"),
])
def test_non_integer_shatter_fields_rejected(field, edit, got):
    doc = _gs_3_5()
    assert certs.verify_certificate(doc) == CheckResult(True, "all 8 patterns witnessed")
    edit(doc)
    want = CheckResult(False, f"malformed certificate: '{got}' object cannot be interpreted as an integer")
    assert certs.verify_certificate(doc) == want == _reference_verify(doc)


@pytest.mark.parametrize("field,edit", [
    ("phi", lambda d: d["witnesses"][5].update(phi="5")),
    ("z", lambda d: d["witnesses"][5]["z"].__setitem__(0, d["witnesses"][5]["z"][0] + 0.0)),
    ("X", lambda d: d["X"][1].__setitem__(2, str(d["X"][1][2]))),
    ("Y", lambda d: d["Y"][1].__setitem__(0, d["Y"][1][0] + 0.0)),
    ("poly", lambda d: d["set"]["poly"].__setitem__(0, d["set"]["poly"][0] + 0.0)),
])
def test_non_integer_vc2_fields_rejected(vc2_doc, field, edit):
    doc = copy.deepcopy(vc2_doc)
    edit(doc)
    res = certs.verify_certificate(doc)
    assert not res.ok and res.detail.startswith("malformed certificate: ")
    assert res.detail.endswith("object cannot be interpreted as an integer")
    assert res == _reference_verify(doc)


def test_boolean_coordinates_read_as_one_and_zero(shatter_doc):
    doc = copy.deepcopy(shatter_doc)
    for w in doc["witnesses"]:
        w["y"] = [bool(c) if c < 2 else c for c in w["y"]]
    kinds = {tuple(type(c) for c in w["y"]) for w in doc["witnesses"]}
    assert (bool,) * 3 in kinds and any(int in t and bool in t for t in kinds)  # bool rows and mixed rows
    assert certs.verify_certificate(doc) == CheckResult(True, "all 8 patterns witnessed") == _reference_verify(doc)


# offsets that keep every residue mod 3: a negative coordinate, p + c, and beyond int64 either way
@pytest.mark.parametrize("offset", [-3, 3, 3 << 62, -(3 << 62)])
@pytest.mark.parametrize("which", ["shatter", "vc2"])
def test_out_of_range_coordinates_get_the_verdict_of_their_residues(shatter_doc, vc2_doc, which, offset):
    doc = shatter_doc if which == "shatter" else vc2_doc
    points, ck = (["S"], "y") if which == "shatter" else (["X", "Y"], "z")

    def shifted(d):
        d = copy.deepcopy(d)
        for key in points:
            d[key] = [[c + offset for c in row] for row in d[key]]
        for w in d["witnesses"]:
            w[ck] = [c + offset for c in w[ck]]
        return d

    want = CheckResult(True, "all 8 patterns witnessed" if which == "shatter" else "all 16 maps witnessed")
    assert certs.verify_certificate(doc) == want
    assert certs.verify_certificate(shifted(doc)) == want
    # a wrong witness gets the same detail whichever representatives the document writes
    bad = copy.deepcopy(doc)
    bad["witnesses"][5][ck][0] = (bad["witnesses"][5][ck][0] + 1) % 3
    want = CheckResult(False, "witness for pattern 5 realizes 7" if which == "shatter"
                       else "map 5 mismatched at cell (0,0)")
    assert certs.verify_certificate(bad) == want
    assert certs.verify_certificate(shifted(bad)) == want == _reference_verify(shifted(bad))


_WORDS = ["kind", "shatter", "vc2", "set", "gs", "qgs", "explicit", "poly", "bits_hex", "p", "n",
          "S", "X", "Y", "witnesses", "pattern", "y", "phi", "z"]
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6) | st.sampled_from(_WORDS),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(_WORDS) | st.text(max_size=4),
                                                                inner, max_size=5),
    max_leaves=16,
)


def _paths(node, path=()):
    """Every position in a JSON value, the root first."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


@st.composite
def _structural_edit(draw, doc):
    """doc with one to three of: a node replaced by arbitrary JSON, deleted, or copied over another."""
    out = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(out))
        path = draw(st.sampled_from(paths))
        if not path:
            out = draw(_JSON)
            continue
        parent = out
        for key in path[:-1]:
            parent = parent[key]
        edit = draw(st.sampled_from(["replace", "delete", "copy"]))
        if edit == "replace":
            parent[path[-1]] = draw(_JSON)
        elif edit == "delete":
            del parent[path[-1]]
        else:
            source = out
            for key in draw(st.sampled_from(paths)):
                source = source[key]
            parent[path[-1]] = copy.deepcopy(source)
    return out


@settings(max_examples=300, deadline=timedelta(seconds=10))
@given(doc=_JSON)
def test_verify_certificate_total_on_arbitrary_json(doc):
    assert isinstance(certs.verify_certificate(doc), CheckResult)


@settings(max_examples=300, deadline=timedelta(seconds=10))
@given(data=st.data(), which=st.sampled_from(["shatter", "vc2", "qgs-shatter"]))
def test_verify_certificate_total_on_edited_documents(data, which):
    assert isinstance(certs.verify_certificate(data.draw(_structural_edit(_BASES[which]))), CheckResult)
