import argparse
import ast
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from child import run_in_child

import vc2lab
from vc2lab import certs, cli, ramsey
from vc2lab.cli import _COMMANDS, RunConfig, _build_parser, _config_from_args, dispatch, emit_report, main


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
    # a verifier that refuses every document refuses the k=2 certificate
    monkeypatch.setattr(certs, "verify_certificate", lambda doc: certs.CheckResult(False, "refused for the test"))
    cert = tmp_path / "vc2.json"
    code = main(["vc2-verify", "--p", "3", "--n", "13", "--k", "2", "--cert", str(cert)])
    err = capsys.readouterr().err
    assert code == 2
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: emitted certificate failed self-verification: refused for the test"
    ]
    assert not cert.exists()


@pytest.mark.parametrize("argv", [
    ["vc2-verify", "--k", "2", "--n", "13"],
    ["vc-dim", "--set", "qgs", "--n", "3"],
    ["shatter-check", "--set", "qgs", "--n", "2", "--points", "0 0;0 1"],
], ids=["vc2-verify", "vc-dim", "shatter-check"])
def test_qgs_cert_beyond_the_verifiers_p_limit_is_refused_before_any_search(capsys, tmp_path, argv):
    # vc2-verify at k = 2, n = 13, p = 37 once ran the whole pipeline before its self-check refused it
    cert = tmp_path / "cert.json"
    t0 = time.perf_counter()
    assert main([*argv, "--p", "37", "--cert", str(cert)]) == 2
    assert time.perf_counter() - t0 < 1
    assert capsys.readouterr() == ("", f"error: --cert: p = 37 is beyond the verifier's qgs limit "
                                       f"p <= {certs.QGS_MAX_P}\n")
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


_MAIN_IN_CHILD = """
import sys, time
from vc2lab.cli import main
sys.stderr = sys.stdout
t0 = time.perf_counter()
code = main(sys.argv[1:])
print(code, time.perf_counter() - t0 < 1)
"""


@pytest.mark.parametrize("source", ["flags", "file"])
def test_ramsey_find_refuses_a_colouring_beyond_the_cell_cap_in_a_child(tmp_path, source):
    # K_{100000,100000} once ended in numpy's allocation traceback, exit 1, under a 3 GB address-space cap;
    # a file's header is checked before its rows are parsed: this row is no integer
    path = tmp_path / "colouring.txt"
    path.write_text("100000 100000 5\nx\n")
    argv = ["--m", "100000", "--n", "100000", "--r", "5"] if source == "flags" else ["--file", str(path)]
    out = run_in_child(_MAIN_IN_CHILD, ("ramsey-find", *argv), max_address_space=1 << 30)
    assert out == (f"error: a colouring of K_{{100000,100000}} has {10 ** 10} cells, beyond the cap of "
                   f"{ramsey.MAX_CELLS}\n2 True\n")


@pytest.mark.parametrize("argv", [
    # each colour's m x n scan counts toward FALLBACK_WORK_CAP: r = 20,000 once took 40 s
    ["--m", "501", "--n", "501", "--r", "20000"],
    # more colours than cells: only the colours on some edge are scanned, so r costs nothing here
    ["--m", "2", "--n", "2", "--r", "1000000000", "--q", "2", "--s", "2"],
], ids=["K501,501 r=20000", "K2,2 r=10^9"])
def test_ramsey_find_gives_up_within_the_work_cap_at_many_colours(capsys, argv):
    t0 = time.perf_counter()
    code, out = run(capsys, "ramsey-find", *argv, "--format", "json")
    assert time.perf_counter() - t0 < 2
    assert code == 1 and json.loads(out)["value"] == "none found"


def test_basis_command(capsys, tmp_path):
    path = tmp_path / "basis.json"
    code, _ = run(capsys, "basis", "--p", "3", "--n", "3", "--cert", str(path))
    assert code == 0
    from vc2lab.fp import FieldCtx
    from vc2lab.highrank import build_trace_basis

    assert json.loads(path.read_text()) == build_trace_basis(FieldCtx(3), 3).to_json()


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


@pytest.mark.parametrize("argv", QGS_COMMANDS, ids=[a[0] for a in QGS_COMMANDS])
def test_qgs_commands_refuse_p_beyond_the_basis_bound(capsys, argv):
    # 257, the first prime past 2^8, and 10^6 + 3, whose canonical search once took 9.3 s at n = 4
    for p in (257, 10 ** 6 + 3):
        t0 = time.perf_counter()
        assert main([argv[0], "--p", str(p), *argv[3:], "--n", "1"]) == 2
        assert time.perf_counter() - t0 < 1
        assert capsys.readouterr() == ("", f"error: quadratic bases need p < 2^8; got p = {p}\n")


K3_P17_DIGEST = "2ad40d48c00841377609bbc40bd2eaa87037d347b056edcfdd80dc0905529f76"


def test_k3_certificate_above_p_13_verifies(tmp_path):
    # p = 17 lay beyond the verifier's old qgs limit p <= 13; the certificate is verified before it
    # is written, and once more here from its bytes, which are pinned: no other k = 3 certificate
    # this far above the benchmark's primes is built by the tests
    cert = tmp_path / "k3_p17.json"
    assert main(["vc2-verify", "--p", "17", "--n", "31", "--k", "3", "--cert", str(cert)]) == 0
    assert hashlib.sha256(cert.read_bytes()).hexdigest() == K3_P17_DIGEST
    doc = certs.loads(cert.read_bytes())
    assert (doc["p"], doc["n"], len(doc["witnesses"])) == (17, 31, 512)
    assert certs.verify_certificate(doc).ok


def test_dispatch_rejects_unknown():
    with pytest.raises(ValueError):
        dispatch(RunConfig(command="nope"))


def test_parser_subcommands_are_the_dispatched_commands():
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(_COMMANDS)


def test_dispatch_stamps_the_command_and_seed_that_ran():
    report = dispatch(RunConfig("br-bound", seed=9, extra={"r": 2}))
    assert (report.command, report.seed) == ("br-bound", 9)
    # no handler names a command or seed of its own
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    stamped = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
               and getattr(node.func, "id", None) == "RunReport"
               and {kw.arg for kw in node.keywords} & {"command", "seed"}]
    assert stamped == []


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
    # the construction file is gone; its flag is an unrecognized argument like any other
    ["vc2-verify", "--p", "3", "--n", "13", "--k", "2", "--construction", "x"],
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
    # the first prime past the quadratic basis bound p < 2^8, on every command that builds a basis
    ["basis", "--p", "257", "--n", "3"],
    ["vc2-verify", "--p", "257", "--n", "13", "--k", "2"],
    ["atom-census", "--p", "257", "--n", "2"],
    ["prop32-check", "--p", "257", "--n", "2"],
    ["vc-dim", "--p", "257", "--n", "2", "--set", "qgs"],
    ["shatter-check", "--p", "257", "--n", "2", "--set", "qgs", "--points", "0 0;0 1"],
]


@pytest.mark.parametrize("argv", MISUSE, ids=[" ".join(a) for a in MISUSE])
def test_misuse_exits_2_with_one_error_line(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert out.err.startswith("error: ") and out.err.count("\n") == 1


# Refused by a group cap after the basis is built: the error line alone, without the even-n warning
# that a run on the same set prints once it is done
@pytest.mark.parametrize("argv,err", [
    (["vc-dim", "--p", "3", "--n", "64", "--set", "qgs"],
     "error: group too large for the vc_dim table search (p**n > 6000)\n"),
    (["shatter-check", "--p", "3", "--n", "64", "--set", "qgs", "--points", " ".join(["0"] * 64)],
     "error: group too large to enumerate translates (p**n > 100000000)\n"),
    (["atom-census", "--p", "3", "--n", "64"], "error: group too large for an exhaustive census (p**n > 10000000)\n"),
], ids=["vc-dim", "shatter-check", "atom-census"])
def test_group_cap_refusal_is_one_stderr_line(capsys, argv, err):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize("k_max", [0, 15])
def test_vc_dim_k_max_out_of_range_names_the_range(capsys, k_max):
    assert main(["vc-dim", "--p", "3", "--n", "3", "--k-max", str(k_max)]) == 2
    assert capsys.readouterr() == ("", f"error: k_max must be in [1, 14], got {k_max}\n")


def test_even_n_warning_follows_a_finished_run(capsys):
    assert main(["vc-dim", "--p", "3", "--n", "2", "--set", "qgs", "--format", "csv"]) == 0
    out = capsys.readouterr()
    assert out.out == "qgs,3,2,2\n"
    assert out.err.splitlines()[0] == "warning: quadratic set with even n; existence is only asserted for odd n"


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


@pytest.mark.parametrize("argv,text,message", [
    # once a traceback, exit 1: the int32 cast ran before the range check
    ([], "1 1 5\n99999999999\n", "colours must lie in [1, r]: row 0 holds a colour outside [1, 5]"),
    ([], f"1 2 5\n1 {10 ** 20}\n", "colours must lie in [1, r]: row 0 holds a colour outside [1, 5]"),
    ([], "2 2 5\n1 2\n3\n", "colour array must be m x n: row 1 holds 1 colours, not 2"),
    ([], "2 2 5\n1 2\n3 x\n", "invalid literal for int() with base 10: 'x'"),
    # once numpy's wording, 'high is out of bounds for int32'
    (["--m", "3", "--n", "3", "--r", "3000000000"], None, "r must lie in [1, 2^31), the int32 colours' range, got r = 3000000000"),
], ids=["beyond int32", "beyond int64", "ragged", "bad token", "r beyond int32"])
def test_ramsey_find_refuses_colours_beyond_int32_in_one_line(capsys, tmp_path, argv, text, message):
    if text is not None:
        path = tmp_path / "colouring.txt"
        path.write_text(text)
        argv = ["--file", str(path)]
    assert main(["ramsey-find", *argv]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"error: {message}\n"


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
