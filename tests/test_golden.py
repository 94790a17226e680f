"""Pinned certificate bytes: the seed-0 vc2-verify certificates must not change.

A change to the search, the kernels or the serialization that alters any
witness shows up here as a digest mismatch.
"""

import hashlib

import pytest

from vc2lab.cli import main

GOLDEN = {
    (2, 3, 13): "1e4593887b01f28b00173db0d142886291e913d2165127b3604cc9c91f6b83fb",
    (3, 3, 31): "41e9ddb9e4f2837c44a340b75e2a786f20ab3c146aa86ff161c25cd5320a9632",
    (3, 5, 31): "edb242eeef78189bd83d19b7bda550e72957c30f72cda8db6ee3235ece9f1c8d",
}


@pytest.mark.parametrize("k,p,n,threads", [(*key, 1) for key in GOLDEN] + [(3, 3, 31, 2)])
def test_seed0_certificate_digest(tmp_path, capsys, k, p, n, threads):
    cert = tmp_path / "cert.json"
    code = main(["vc2-verify", "--p", str(p), "--n", str(n), "--k", str(k), "--seed", "0",
                 "--threads", str(threads), "--cert", str(cert)])
    capsys.readouterr()
    assert code == 0
    assert hashlib.sha256(cert.read_bytes()).hexdigest() == GOLDEN[(k, p, n)]
