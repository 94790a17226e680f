"""Pinned output of scripts/explore_shattering.py, loaded in-process.

`vc2-random` draws seeded (X, Y) pairs and reports the first quadratically
shattered one, or the deepest failing map index.  A change to the VC₂ search
that moves a witness, the failure order or the draw shows up here.
"""

import argparse
import importlib.util
from pathlib import Path

import pytest


def _load_explore():
    path = Path(__file__).resolve().parents[1] / "scripts" / "explore_shattering.py"
    spec = importlib.util.spec_from_file_location("explore_shattering", path)
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
    return _load_explore()


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
