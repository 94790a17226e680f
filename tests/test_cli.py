import argparse
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vc2lab
from vc2lab import certs
from vc2lab.cli import RunConfig, _build_parser, _config_from_args, dispatch, emit_report, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out


def test_vc_dim_command(capsys):
    code, out = run(capsys, "vc-dim", "--p", "3", "--n", "3", "--set", "gs", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == 3


def test_vc_dim_csv_row(capsys):
    code, out = run(capsys, "vc-dim", "--p", "3", "--n", "3", "--format", "csv")
    assert code == 0
    assert out.strip() == "gs,3,3,3"


def test_br_bound_command(capsys):
    code, out = run(capsys, "br-bound", "--r", "5", "--format", "json")
    assert code == 0
    assert json.loads(out)["value"] == 501


def test_unknown_command_usage_error(capsys):
    code = main(["definitely-not-a-command"])
    assert code != 0


def test_invalid_prime_rejected(capsys):
    code = main(["vc-dim", "--p", "4", "--n", "2"])
    assert code == 2


def test_shatter_check_pass_and_fail(capsys, tmp_path):
    cert = tmp_path / "cert.json"
    code, _ = run(capsys, "shatter-check", "--p", "3", "--n", "3",
                  "--points", "0 0 0;0 1 2;0 2 1", "--cert", str(cert))
    assert code == 0
    assert certs.verify_certificate(certs.loads(cert.read_bytes())).ok

    code, out = run(capsys, "shatter-check", "--p", "3", "--n", "2",
                    "--points", "0 0;1 0;2 0;0 1", "--format", "json")
    assert code == 1
    assert "missing_pattern" in out


def test_verify_certificate_round_trip(capsys, tmp_path):
    cert = tmp_path / "vc2.json"
    code, _ = run(capsys, "vc2-verify", "--p", "3", "--n", "13", "--k", "2", "--cert", str(cert))
    assert code == 0
    code, _ = run(capsys, "verify-certificate", str(cert))
    assert code == 0

    doc = json.loads(cert.read_text())
    doc["witnesses"][5]["z"][0] = (doc["witnesses"][5]["z"][0] + 1) % 3
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, _ = run(capsys, "verify-certificate", str(bad))
    assert code == 1


def test_rerun_is_byte_identical(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _ = run(capsys, "vc2-verify", "--p", "3", "--n", "13", "--k", "2",
                      "--seed", "7", "--cert", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_certificate_failing_self_verification_is_not_written(capsys, tmp_path, monkeypatch):
    # a verifier limit below every prime makes the verifier refuse the k=2 certificate
    monkeypatch.setattr(certs, "QGS_MAX_P", 2)
    cert = tmp_path / "vc2.json"
    code = main(["vc2-verify", "--p", "3", "--n", "13", "--k", "2", "--cert", str(cert)])
    err = capsys.readouterr().err
    assert code == 2
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        f"error: emitted certificate failed self-verification: qgs set beyond the verifier's limits "
        f"p <= 2, n <= {certs.QGS_MAX_N}"
    ]
    assert not cert.exists()


def test_vc2_verify_with_a_wrong_shift_exits_2_and_writes_nothing(capsys, tmp_path, monkeypatch):
    import vc2lab.factor as factor

    # map 5 is given map 6's targets, so the shift found for it realizes map 6 instead
    honest = factor.target_table
    monkeypatch.setattr(factor, "target_table",
                        lambda idx, k, p: honest([6 if i == 5 else i for i in idx], k, p))
    cert = tmp_path / "vc2.json"
    code = main(["vc2-verify", "--k", "2", "--p", "3", "--n", "13", "--cert", str(cert)])
    err = capsys.readouterr().err
    assert code == 2
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: realization failed verification: case table or atom search bug"
    ]
    assert not cert.exists()


def test_report_output_file(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, _ = run(capsys, "br-bound", "--r", "2", "--format", "json", "--output", str(out_path))
    assert code == 0
    assert json.loads(out_path.read_text())["value"] == 33


def test_emit_report_excludes_wall_time():
    from vc2lab.cli import RunReport

    rep = RunReport(command="x", params={}, outcome="pass", wall_time_s=1.23)
    for fmt in ("json", "csv", "text"):
        assert b"1.23" not in emit_report(rep, fmt)


def test_atom_census_command(capsys):
    code, out = run(capsys, "atom-census", "--p", "3", "--n", "9", "--l", "1", "--q", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["outcome"] == "pass" and doc["value"]["atoms"] == 9


def test_prop32_check_command(capsys):
    code, out = run(capsys, "prop32-check", "--p", "3", "--n", "5", "--instances", "4",
                    "--seed", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["outcome"] == "pass"


def test_ramsey_find_command(capsys, tmp_path):
    code, out = run(capsys, "ramsey-find", "--m", "101", "--n", "101", "--r", "2",
                    "--seed", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["outcome"] == "pass"
    # from a file
    from vc2lab.ramsey import random_colouring

    col = random_colouring(60, 60, 2, seed=5)
    path = tmp_path / "col.txt"
    path.write_text(col.to_text())
    code, out = run(capsys, "ramsey-find", "--file", str(path), "--q", "2", "--s", "2", "--format", "json")
    assert code == 0


@pytest.mark.parametrize("argv", [["--r", "3"], ["--m", "5", "--r", "3"], ["--m", "5", "--n", "5"]])
def test_ramsey_find_without_colouring_is_usage_error(capsys, argv):
    code = main(["ramsey-find", *argv])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ramsey-find needs --file") and err.count("\n") == 1


def test_basis_command(capsys, tmp_path):
    path = tmp_path / "basis.json"
    code, _ = run(capsys, "basis", "--p", "3", "--n", "3", "--cert", str(path))
    assert code == 0
    from vc2lab.highrank import HighRankBasis

    doc = json.loads(path.read_text())
    basis = HighRankBasis.from_json(doc)
    assert basis.n == 3


def test_every_flag_reaches_the_config():
    # each subcommand given every one of its flags at once: a RunConfig field or an extra key holds each
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    own = {f.name for f in dataclasses.fields(RunConfig)}
    for name, parser in sub.choices.items():
        flags = [a for a in parser._actions if a.dest != "help"]
        argv, want = [name], {}
        for a in flags:
            text = str(a.choices[0]) if a.choices else "7"
            argv += [*a.option_strings[:1], text]
            want[a.dest] = a.type(text) if a.type else text
        cfg = _config_from_args(_build_parser().parse_args(argv))
        got = {dest: getattr(cfg, dest) if dest in own else cfg.extra[dest] for dest in want}
        assert got == want, name
        assert set(cfg.extra) == set(want) - own, name


QGS_COMMANDS = [
    ["basis", "--p", "3"],
    ["vc2-verify", "--p", "3", "--k", "3"],
    ["atom-census", "--p", "3"],
    ["prop32-check", "--p", "3"],
    ["vc-dim", "--p", "3", "--set", "qgs"],
    ["shatter-check", "--p", "3", "--set", "qgs", "--points", "0"],
]


@pytest.mark.parametrize("argv", QGS_COMMANDS, ids=[a[0] for a in QGS_COMMANDS])
def test_qgs_commands_refuse_n_beyond_the_limit(capsys, argv):
    # n = 20001 once asked the irreducibility test for an (8, n, n) array
    for n in (certs.QGS_MAX_N + 1, 20001):
        assert main([*argv, "--n", str(n)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: n = {n} is beyond the quadratic set's limit n <= {certs.QGS_MAX_N}\n"


def test_dispatch_rejects_unknown():
    with pytest.raises(ValueError):
        dispatch(RunConfig(command="nope"))


# One misuse per subcommand.
MISUSE = [
    ["basis", "--p", "x", "--n", "3"],
    # the thread count flag is gone; it is an unrecognized argument like any other
    ["basis", "--p", "3", "--n", "3", "--threads", "0"],
    ["vc-dim", "--p", "3", "--n", "3", "--threads", "-1"],
    ["vc-dim", "--p", "3"],
    ["shatter-check", "--p", "3", "--n", "3"],
    # points that do not have n coordinates
    ["shatter-check", "--p", "3", "--n", "3", "--points", "1;2"],
    ["shatter-check", "--p", "3", "--n", "3", "--points", "0 0 0 0;0 1 2 0"],
    ["vc2-verify", "--p", "3", "--n", "13", "--k", "4"],
    ["atom-census", "--p", "3", "--n", "9", "--l", "x"],
    # a group within the census cap whose 3**28 atom labels are not
    ["atom-census", "--p", "3", "--n", "14", "--l", "14", "--q", "14"],
    ["prop32-check", "--p", "3", "--n", "5", "--instances"],
    # beyond the probe's group cap, also for a single, blind instance
    ["prop32-check", "--p", "3", "--n", "11", "--instances", "1"],
    # runs that would check nothing
    ["basis", "--p", "3", "--n", "5", "--mode", "sampled", "--count", "0"],
    ["basis", "--p", "3", "--n", "3", "--count", "-5"],
    ["prop32-check", "--p", "3", "--n", "5", "--instances", "0"],
    # negative factor sizes
    ["atom-census", "--p", "3", "--n", "5", "--q", "-1"],
    ["atom-census", "--p", "3", "--n", "5", "--l", "-1"],
    ["ramsey-find", "--m", "x"],
    ["ramsey-find", "--m", "3", "--n", "3", "--r", "1", "--q", "0"],
    # colourings of negative size or with no colour
    ["ramsey-find", "--m", "3", "--n", "3", "--r", "0"],
    ["ramsey-find", "--m", "-1", "--n", "3", "--r", "2"],
    ["ramsey-find", "--m", "3", "--n", "-1", "--r", "2"],
    ["br-bound"],
    # a report file in a directory that does not exist
    ["br-bound", "--r", "2", "--output", "no-such-dir/report.txt"],
    ["verify-certificate"],
    ["verify-certificate", "no-such-file.json"],
    ["basis", "--p", "3", "--n", "3", "--format", "xml"],
    ["no-such-command"],
    [],
    # a prime FieldCtx accepts whose residues overflow the int64 basis array
    ["basis", "--p", "9223372036854775837", "--n", "2"],
]


@pytest.mark.parametrize("argv", MISUSE, ids=[" ".join(a) for a in MISUSE])
def test_misuse_exits_2_with_one_error_line(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1


@pytest.mark.parametrize("argv,message", [
    (["atom-census", "--p", "3", "--n", "5", "--q", "-1"], "q = -1"),
    (["atom-census", "--p", "3", "--n", "5", "--l", "-1"], "l = -1"),
])
def test_atom_census_names_a_negative_size(capsys, argv, message):
    assert main(argv) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("text", ["", "\n  \n", "3 3 2\n"], ids=["empty", "blank lines", "header only"])
def test_ramsey_find_rejects_a_colouring_file_without_rows(capsys, tmp_path, text):
    path = tmp_path / "colouring.txt"
    path.write_text(text)
    code = main(["ramsey-find", "--file", str(path)])
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1


def test_prop32_check_names_the_group_without_qualifying_sets(capsys):
    # in F_3^3 three distinct nonzero x's leave a y-side subspace of at most 2 nonzero points
    code = main(["prop32-check", "--p", "3", "--n", "3"])
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert out.err == "error: no qualifying sets in F_3^3 after 256 tries\n"


def test_prop32_check_refuses_a_group_below_4_points_in_a_child():
    # F_3^1 has 2 nonzero points, where X and Y each need 3: the blind sampler drew forever.
    # A child process with a time limit makes a regression fail this test instead of hanging it.
    src = str(Path(vc2lab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-m", "vc2lab.cli", "prop32-check", "--p", "3", "--n", "1"],
                         capture_output=True, timeout=30, env=env)
    assert out.returncode == 2
    assert out.stdout == b""
    assert out.stderr.decode() == "error: X and Y need 4 distinct points; F_3^1 has 3\n"
