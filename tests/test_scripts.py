"""The scripts under scripts/, loaded in-process.

`explore_shattering.py vc2-random` draws seeded (X, Y) pairs and reports the
first quadratically shattered one, or the deepest failing map index; its
output is pinned, so a change to the VC₂ search that moves a witness, the
failure order or the draw shows up here.  `reproduce.py --skip-slow` must
pass and write certificates that verify, and a failing step must stop it.
"""

import argparse
import importlib.util
import sys
from pathlib import Path

import pytest

from vc2lab import certs
from vc2lab.cli import RunConfig


def _load_script(name):
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _found(trial, x1, y1):
    zero = [0, 0, 0, 0, 0]
    return f"trial {trial}: shattered pair found\n  X = {[zero, x1]}\n  Y = {[zero, y1]}\n"


# (3,5), k=2, qgs, 100 tries: every seed finds a shattered pair
K2 = {
    0: _found(0, [2, 1, 1, 0, 0], [0, 0, 0, 0, 2]),
    1: _found(0, [1, 1, 2, 2, 0], [0, 2, 2, 0, 0]),
    2: _found(0, [2, 0, 0, 0, 1], [2, 1, 0, 1, 1]),
    3: _found(0, [2, 0, 0, 0, 0], [2, 2, 1, 0, 0]),
    4: _found(0, [2, 2, 2, 1, 2], [2, 2, 0, 1, 1]),
    5: _found(0, [2, 2, 0, 2, 1], [1, 1, 0, 2, 0]),
    6: _found(1, [0, 1, 1, 2, 2], [0, 2, 2, 1, 0]),
    7: _found(0, [2, 1, 2, 2, 1], [2, 2, 0, 0, 0]),
    8: _found(0, [2, 0, 0, 2, 0], [0, 1, 2, 1, 2]),
    9: _found(0, [1, 2, 2, 0, 0], [1, 2, 2, 1, 2]),
}

# (3,6), k=3, qgs, 100 tries: no seed finds one; the deepest failing map index
K3 = {0: 22, 1: 17, 2: 13, 3: 13}


@pytest.fixture(scope="module")
def explore():
    return _load_script("explore_shattering")


def _run(explore, capsys, n, k, seed):
    args = argparse.Namespace(p=3, n=n, set="qgs", k=k, tries=100, seed=seed)
    code = explore.cmd_vc2_random(args)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("seed", sorted(K2))
def test_vc2_random_k2_pinned(explore, capsys, seed):
    assert _run(explore, capsys, 5, 2, seed) == (0, K2[seed])


@pytest.mark.parametrize("seed", sorted(K3))
def test_vc2_random_k3_pinned(explore, capsys, seed):
    want = f"no shattered pair in 100 trials; deepest failure at map index {K3[seed]}\n"
    assert _run(explore, capsys, 6, 3, seed) == (1, want)


def test_reproduce_skip_slow_writes_verified_certificates(capsys, monkeypatch, tmp_path):
    reproduce = _load_script("reproduce")
    monkeypatch.setattr(sys, "argv", ["reproduce.py", "--skip-slow", "--out", str(tmp_path)])
    assert reproduce.main() == 0
    assert "all verifications passed" in capsys.readouterr().out
    witnesses = [f"vc_witness_p{p}_n{n}.json" for p, n in [(3, 3), (3, 4), (3, 5), (5, 2), (5, 3), (7, 2)]]
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(witnesses + ["vc2_k2_p3_n13.json"])
    for path in tmp_path.iterdir():
        assert certs.verify_certificate(certs.loads(path.read_bytes())).ok, path.name


@pytest.mark.parametrize("config,detail", [
    # a reported fail outcome: four points of F_3^2 that GS(3,2) does not shatter
    (RunConfig("shatter-check", p=3, n=2, extra={"points": "0 0;1 0;2 0;0 1"}), "shatter-check {"),
    # a raised error
    (RunConfig("br-bound", extra={"r": 0}), "br-bound: r must be >= 1"),
], ids=["fail-outcome", "raised"])
def test_reproduce_stops_at_a_failing_step(capsys, monkeypatch, tmp_path, config, detail):
    reproduce = _load_script("reproduce")
    monkeypatch.setattr(reproduce, "steps", lambda out, seed, skip_slow: [
        ("a passing step", [RunConfig("br-bound", extra={"r": 1})], None),
        ("a failing step", [config], None),
        ("a step never reached", [RunConfig("br-bound", extra={"r": 2})], None),
    ])
    monkeypatch.setattr(sys, "argv", ["reproduce.py", "--out", str(tmp_path)])
    assert reproduce.main() == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4 and lines[0] == "— a passing step" and lines[2] == "— a failing step"
    assert lines[3].startswith(f"FAILED: a failing step: {detail}")
