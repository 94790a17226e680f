"""Pinned output bytes: seed-0 vc2-verify, vc-dim, shatter-check and basis certificates,
seed-1 k=3 vc2-verify certificates, a construction file and the prop32-check and
atom-census reports must not change.

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


@pytest.mark.parametrize("k,p,n", list(GOLDEN))
def test_seed0_certificate_digest(tmp_path, capsys, k, p, n):
    cert = tmp_path / "cert.json"
    code = main(["vc2-verify", "--p", str(p), "--n", str(n), "--k", str(k), "--seed", "0", "--cert", str(cert)])
    capsys.readouterr()
    assert code == 0
    assert hashlib.sha256(cert.read_bytes()).hexdigest() == GOLDEN[(k, p, n)]


# A second seed: the k=3 atom search draws other candidate streams, so a change that
# keeps the seed-0 bytes by chance still shows here.
SEED1_GOLDEN = {
    (3, 3, 31): "11409c1f420397ebcf97619d691ac29e6e55f5fcff825ab0dcd45c2226aac222",
    (3, 5, 31): "a8ce6c96574c0e476941a28ee729c625f94e877e53e61faf52ebc3999d87d3d7",
}


@pytest.mark.parametrize("k,p,n", list(SEED1_GOLDEN))
def test_seed1_certificate_digest(tmp_path, capsys, k, p, n):
    cert = tmp_path / "cert.json"
    code = main(["vc2-verify", "--p", str(p), "--n", str(n), "--k", str(k), "--seed", "1", "--cert", str(cert)])
    capsys.readouterr()
    assert code == 0
    assert hashlib.sha256(cert.read_bytes()).hexdigest() == SEED1_GOLDEN[(k, p, n)]


CONSTRUCTION_GOLDEN = "ff8e74f905a1d6c31fe19d730ff03008d45744ed717a31fb16a90254ef64aeb1"


def test_construction_file_digest(tmp_path, capsys):
    cons = tmp_path / "construction.json"
    code = main(["vc2-verify", "--p", "3", "--n", "13", "--k", "2", "--construction", str(cons)])
    capsys.readouterr()
    assert code == 0
    assert hashlib.sha256(cons.read_bytes()).hexdigest() == CONSTRUCTION_GOLDEN


VCDIM_GOLDEN = {
    ("gs", 3, 3): "bea45cdf67626731e8916f026d1285c6413a5a61c9e29c680e76b39c35c2b039",
    ("gs", 3, 4): "6fd302b754eea76fcc9dec267017f2e19240628afe669bdb8f2b4f79ae4c1f39",
    ("gs", 3, 5): "c26792b0c9b1e75197457281dad043d55bedfa4b8589236138e9a93f6f9f799f",
    ("gs", 5, 2): "fc4dc6a0a75394eadff53a24ac56935ec3acc820e2b9ff148c35c50c06d38964",
    ("gs", 5, 3): "6c4675ef41bf5a6b2b388fe22653d915582dead5d4931f7f2d2304cd71a79eb8",
    ("gs", 7, 2): "56ce270995ff752493fe048cb754c4c96acc6d9f8c933945ecfcb4602b9b73ea",
    ("qgs", 3, 5): "b2db84aa9dec3426aee9c3e35a9cf7cf9e5073aef65e5b97229a7619ec47550f",
}


@pytest.mark.parametrize("which,p,n", list(VCDIM_GOLDEN))
def test_vc_dim_certificate_digest(tmp_path, capsys, which, p, n):
    cert = tmp_path / "cert.json"
    code = main(["vc-dim", "--p", str(p), "--n", str(n), "--set", which, "--k-max", "4", "--cert", str(cert)])
    capsys.readouterr()
    assert code == 0
    assert hashlib.sha256(cert.read_bytes()).hexdigest() == VCDIM_GOLDEN[(which, p, n)]


# the points carry out-of-range coordinates, which the certificate records reduced mod p
SHATTER_GOLDEN = "fadbcd632cd80d75744be08a60e876ae975c71505ed286dee9680d5e7b1b4bbd"


def test_shatter_check_certificate_digest(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    code = main(["shatter-check", "--p", "3", "--n", "3", "--points", "0 0 0;0 1 -1;3 2 4", "--cert", str(cert)])
    capsys.readouterr()
    assert code == 0
    assert hashlib.sha256(cert.read_bytes()).hexdigest() == SHATTER_GOLDEN


BASIS_GOLDEN = "89b81b33dc66eb72e1550c917175dbb1f54b93e3788ae1971cf036a6e8b8f4d0"


def test_basis_file_digest(tmp_path, capsys):
    cert = tmp_path / "basis.json"
    code = main(["basis", "--p", "3", "--n", "9", "--cert", str(cert)])
    capsys.readouterr()
    assert code == 0
    assert hashlib.sha256(cert.read_bytes()).hexdigest() == BASIS_GOLDEN


# Reports pinned by their stdout: prop32-check runs both zero-cross-term samplers
# (at seed 0, 9 of its 20 instances are checked, not vacuous), and other seeds and
# primes draw other planted instances; atom-census the exact census.
REPORT_GOLDEN = {
    ("prop32-check", 3, 5, 0): "aee06f75034a1394b7bb35c7ea483cd7353525a4bcb3e33b0f2748f6f9a937b2",
    ("prop32-check", 3, 5, 1): "deadacc822d420f543198622803443f6b4cccdc05a1a8cad037e5e99c4b785c3",
    ("prop32-check", 3, 5, 2): "6680f642f5d1113835ee13ee6921cdb510f3e294f679a25b00305c13f3590b0a",
    ("prop32-check", 3, 5, 3): "0c3163541796f627d50ba4ed26506a11cec356f493b2f71d939bf80c1e57e5df",
    ("prop32-check", 5, 3, 0): "5032d5695eea6f531d105f10d677e0b4271b0395d09df188d6be9ba4ce090ec7",
    ("prop32-check", 7, 3, 0): "8481c9e9220dfa49e8eef7e863a0797483a71b33ea91be162c3c2e372fed7c21",
    ("atom-census", 3, 9, 0): "82910919d9136177ce29ffd0ca6a5758fc2e70501b2b317455b00be998df7af4",
}


@pytest.mark.parametrize("command,p,n,seed", list(REPORT_GOLDEN))
def test_report_digest(capsys, command, p, n, seed):
    code = main([command, "--p", str(p), "--n", str(n), "--seed", str(seed), "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == REPORT_GOLDEN[(command, p, n, seed)]
