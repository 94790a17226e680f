"""Batch command-line frontend.

Every verification and search is a subcommand producing a human-readable
summary plus, where applicable, a machine-checkable JSON certificate.  All
randomness derives from the single --seed flag through per-module streams,
so re-running a command reproduces the same certificate bytes.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import certs
from .factor import (
    QuadraticFactor,
    atom_census,
    construct_shatter_pair,
    construction_doc,
    forced_zero_probe,
    realize_maps,
)
from .fp import FieldCtx, as_points
from .gs import GsSet, QgsSet
from .highrank import EXHAUSTIVE_LIMIT, HighRankBasis, build_trace_basis, check_high_rank
from .ramsey import BipartiteColouring, br_upper_bound, find_mono_biclique, random_colouring
from .shatter import QuadShatterCertificate, ShatterCertificate, shatters, vc_dim


@dataclass(frozen=True)
class RunConfig:
    command: str
    p: int | None = None
    n: int | None = None
    k: int | None = None
    seed: int = 0
    output: str | None = None
    format: str = "text"
    extra: dict = field(default_factory=dict)


@dataclass
class RunReport:
    command: str
    params: dict
    outcome: str  # "pass", "fail", or a value echo
    value: object = None
    certificate: str | None = None
    seed: int = 0
    details: list = field(default_factory=list)
    wall_time_s: float = 0.0  # informational; excluded from serialized bytes


def emit_report(report: RunReport, fmt: str) -> bytes:
    """Deterministic serialization; wall time is deliberately left out."""
    if fmt == "json":
        doc = {
            "command": report.command,
            "params": report.params,
            "outcome": report.outcome,
            "value": report.value,
            "certificate": report.certificate,
            "seed": report.seed,
            "details": report.details,
        }
        return (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for row in report.details or [[report.command, report.outcome]]:
            writer.writerow(row)
        return buf.getvalue().encode()
    if fmt == "text":
        lines = [f"command: {report.command}"]
        for key in sorted(report.params):
            lines.append(f"  {key}: {report.params[key]}")
        lines.append(f"outcome: {report.outcome}")
        if report.value is not None:
            lines.append(f"value: {report.value}")
        if report.certificate:
            lines.append(f"certificate: {report.certificate}")
        lines.append(f"seed: {report.seed}")
        return ("\n".join(lines) + "\n").encode()
    raise ValueError(f"unknown format {fmt!r}")


def _write_cert(path: str | None, doc: dict) -> str | None:
    if path is None:
        return None
    data = certs.dumps(doc)
    check = certs.verify_certificate(certs.loads(data))
    if not check.ok:
        raise RuntimeError(f"emitted certificate failed self-verification: {check.detail}")
    Path(path).write_bytes(data)
    return path


def _basis(cfg: RunConfig) -> HighRankBasis:
    """The canonical basis over F_p^n, refused for n beyond the verifier's qgs limit.

    No certificate on a larger basis verifies, and its cost grows as about n^3:
    built in a child process at p = 3 on a 2-vCPU x86-64 VM, n = 64 takes 0.03 s
    of CPU and 39 MB, n = 128 0.9 s and 81 MB, n = 256 6.5 s and 418 MB, and at
    n = 20001 the irreducibility test asks for an (8, n, n) array.  p is not
    bounded here.
    """
    if cfg.n > certs.QGS_MAX_N:
        raise ValueError(f"n = {cfg.n} is beyond the quadratic set's limit n <= {certs.QGS_MAX_N}")
    return build_trace_basis(FieldCtx(cfg.p), cfg.n)


def _oracle(cfg: RunConfig):
    which = cfg.extra.get("set", "gs")
    if which == "gs":
        return GsSet(FieldCtx(cfg.p), cfg.n)
    if which == "qgs":
        basis = _basis(cfg)
        if cfg.n % 2 == 0:
            print("warning: quadratic set with even n; existence is only asserted for odd n", file=sys.stderr)
        return QgsSet(basis)
    raise ValueError(f"unknown set {which!r}")


def _cmd_basis(cfg: RunConfig) -> RunReport:
    basis = _basis(cfg)
    if cfg.n % 2 == 0:
        print("warning: even n; the full-rank basis is only asserted to exist for odd n", file=sys.stderr)
    mode = cfg.extra.get("mode", "exhaustive" if cfg.p ** cfg.n <= EXHAUSTIVE_LIMIT else "sampled")
    witness = check_high_rank(basis, mode=mode, count=cfg.extra.get("count", 10_000), seed=cfg.seed)
    path = cfg.extra.get("cert")
    if path:
        Path(path).write_bytes(certs.dumps(basis.to_json()))
    ok = witness is None
    return RunReport(
        command="basis",
        params={"p": cfg.p, "n": cfg.n, "mode": mode},
        outcome="pass" if ok else "fail",
        value=None if ok else witness.tolist(),
        certificate=path,
        seed=cfg.seed,
        details=[["basis", cfg.p, cfg.n, mode, "pass" if ok else "fail"]],
    )


def _cmd_vc_dim(cfg: RunConfig) -> RunReport:
    a = _oracle(cfg)
    res = vc_dim(a, k_max=cfg.extra.get("k_max", 4))
    path = None
    if res.certificate is not None:
        path = _write_cert(cfg.extra.get("cert"), certs.shatter_certificate_doc(res.certificate, a))
    return RunReport(
        command="vc-dim",
        params={"p": cfg.p, "n": cfg.n, "set": cfg.extra.get("set", "gs")},
        outcome=str(res.dim),
        value=res.dim,
        certificate=path,
        seed=cfg.seed,
        details=[[cfg.extra.get("set", "gs"), cfg.p, cfg.n, res.dim]],
    )


def _parse_points(text: str, p: int, n: int) -> np.ndarray:
    """Semicolon-separated points of n coordinates each, as an (m, n) array of residues."""
    rows = [[int(t) for t in part.replace(",", " ").split()] for part in text.split(";") if part.strip()]
    return as_points(rows, p, n)


def _cmd_shatter_check(cfg: RunConfig) -> RunReport:
    a = _oracle(cfg)
    pts = _parse_points(cfg.extra["points"], cfg.p, cfg.n)
    result = shatters(a, pts)
    ok = isinstance(result, ShatterCertificate)
    path = _write_cert(cfg.extra.get("cert"), certs.shatter_certificate_doc(result, a)) if ok else None
    return RunReport(
        command="shatter-check",
        params={"p": cfg.p, "n": cfg.n, "set": cfg.extra.get("set", "gs"), "size": len(pts)},
        outcome="pass" if ok else "fail",
        value=None if ok else {"missing_pattern": result.missing},
        certificate=path,
        seed=cfg.seed,
        details=[["shatter", cfg.p, cfg.n, len(pts), "pass" if ok else f"missing={result.missing}"]],
    )


def _cmd_vc2_verify(cfg: RunConfig) -> RunReport:
    basis = _basis(cfg)
    construction = construct_shatter_pair(basis, cfg.k, seed=cfg.seed)
    # realize_maps checks every grid, and _write_cert verifies the certificate independently
    found = realize_maps(construction, np.arange(1 << (cfg.k * cfg.k)), seed=cfg.seed)
    cert = QuadShatterCertificate(construction.X, construction.Y, found)
    cons_path = cfg.extra.get("construction")
    if cons_path:
        Path(cons_path).write_bytes(certs.dumps(construction_doc(construction)))
    path = _write_cert(cfg.extra.get("cert"), certs.quad_certificate_doc(cert, QgsSet(basis)))
    n_maps = len(cert.witnesses)
    return RunReport(
        command="vc2-verify",
        params={"p": cfg.p, "n": cfg.n, "k": cfg.k},
        outcome="pass",
        value={"maps_realized": n_maps},
        certificate=path,
        seed=cfg.seed,
        details=[["vc2", cfg.p, cfg.n, cfg.k, n_maps, "pass"]],
    )


def _cmd_atom_census(cfg: RunConfig) -> RunReport:
    basis = _basis(cfg)
    l, q = cfg.extra.get("l", 2), cfg.extra.get("q", 2)
    if l < 0 or q < 0:
        raise ValueError(f"--l and --q must be at least 0, got l = {l}, q = {q}")
    factor = QuadraticFactor(basis.ctx, np.eye(l, cfg.n, dtype=np.int64), tuple(range(1, q + 1)))
    census = atom_census(factor, basis)
    sizes = sorted(census.values())
    return RunReport(
        command="atom-census",
        params={"p": cfg.p, "n": cfg.n, "l": l, "q": q},
        outcome="pass",
        value={"atoms": len(census), "min_size": sizes[0], "max_size": sizes[-1]},
        seed=cfg.seed,
        details=[[",".join(map(str, label)), count] for label, count in sorted(census.items())],
    )


def _cmd_prop32_check(cfg: RunConfig) -> RunReport:
    basis = _basis(cfg)
    instances = cfg.extra.get("instances", 20)
    results = forced_zero_probe(basis, instances=instances, seed=cfg.seed)
    ok = all(r.ok for r in results)
    vacuous = sum(1 for r in results if r.vacuous)
    return RunReport(
        command="prop32-check",
        params={"p": cfg.p, "n": cfg.n, "instances": instances},
        outcome="pass" if ok else "fail",
        value={"instances": len(results), "vacuous": vacuous},
        seed=cfg.seed,
        details=[[r.index, r.m, r.realizing_shifts, "vacuous" if r.vacuous else "checked", "pass" if r.ok else r.detail] for r in results],
    )


def _cmd_ramsey_find(cfg: RunConfig) -> RunReport:
    file = cfg.extra.get("file")
    if file:
        colouring = BipartiteColouring.from_text(Path(file).read_text())
    else:
        missing = [flag for flag, key in (("--m", "m"), ("--n", "n_right"), ("--r", "r")) if key not in cfg.extra]
        if missing:
            raise ValueError(f"ramsey-find needs --file or all of --m, --n, --r (missing {', '.join(missing)})")
        colouring = random_colouring(cfg.extra["m"], cfg.extra["n_right"], cfg.extra["r"], seed=cfg.seed)
    q, s = cfg.extra.get("q", 3), cfg.extra.get("s", 3)
    witness = find_mono_biclique(colouring, q, s)
    found = witness is not None
    return RunReport(
        command="ramsey-find",
        params={"m": colouring.m, "n": colouring.n, "r": colouring.r, "q": q, "s": s},
        outcome="pass" if found else "fail",
        value={"left": list(witness.left), "right": list(witness.right), "colour": witness.colour} if found else "none found",
        seed=cfg.seed,
        details=[["ramsey", colouring.m, colouring.n, colouring.r, witness.colour if found else "none"]],
    )


def _cmd_br_bound(cfg: RunConfig) -> RunReport:
    bound = br_upper_bound(cfg.extra["r"])
    return RunReport(
        command="br-bound",
        params={"r": bound.r},
        outcome=str(bound.value),
        value=bound.value,
        seed=cfg.seed,
        details=[[desc, holds] for desc, holds in bound.checks],
    )


def _cmd_verify_certificate(cfg: RunConfig) -> RunReport:
    doc = certs.loads(Path(cfg.extra["path"]).read_bytes())
    result = certs.verify_certificate(doc)
    return RunReport(
        command="verify-certificate",
        params={"path": cfg.extra["path"]},
        outcome="pass" if result.ok else "fail",
        value=result.detail,
        seed=cfg.seed,
        details=[["verify", cfg.extra["path"], "pass" if result.ok else result.detail]],
    )


_COMMANDS = {
    "basis": _cmd_basis,
    "vc-dim": _cmd_vc_dim,
    "shatter-check": _cmd_shatter_check,
    "vc2-verify": _cmd_vc2_verify,
    "atom-census": _cmd_atom_census,
    "prop32-check": _cmd_prop32_check,
    "ramsey-find": _cmd_ramsey_find,
    "br-bound": _cmd_br_bound,
    "verify-certificate": _cmd_verify_certificate,
}


def dispatch(cfg: RunConfig) -> RunReport:
    """Run exactly one command; parameter errors raise ValueError."""
    if cfg.command not in _COMMANDS:
        raise ValueError(f"unknown command {cfg.command!r}")
    started = time.perf_counter()
    report = _COMMANDS[cfg.command](cfg)
    report.wall_time_s = time.perf_counter() - started
    return report


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one `error:` line and exit status 2, without the usage block."""

    def error(self, message: str):
        self.exit(2, f"error: {self.prog}: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--format", choices=["json", "csv", "text"], default="text")
    common.add_argument("--output", help="write the report here instead of stdout")

    parser = _Parser(prog="vc2lab")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, **kwargs):
        sp = sub.add_parser(name, parents=[common], **kwargs)
        return sp

    sp = add("basis", help="build the full-rank basis and check it")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--mode", choices=["exhaustive", "sampled"])
    sp.add_argument("--count", type=int)
    sp.add_argument("--cert")

    sp = add("vc-dim", help="compute the VC-dimension by pruned shattering search")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--set", choices=["gs", "qgs"])
    sp.add_argument("--k-max", type=int)
    sp.add_argument("--cert")

    sp = add("shatter-check", help="test whether a specific point set is shattered")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--set", choices=["gs", "qgs"])
    sp.add_argument("--points", required=True, help="semicolon-separated vectors, e.g. '0 0 0;0 1 2'")
    sp.add_argument("--cert")

    sp = add("vc2-verify", help="run the k=2 or k=3 quadratic shattering pipeline")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--k", type=int, choices=[2, 3], required=True)
    sp.add_argument("--cert")
    sp.add_argument("--construction")

    sp = add("atom-census", help="exact atom sizes for a small quadratic factor")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--l", type=int)
    sp.add_argument("--q", type=int)

    sp = add("prop32-check", help="forced-zero checks over seeded qualifying instances")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--instances", type=int)

    sp = add("ramsey-find", help="find a monochromatic biclique in a colouring")
    sp.add_argument("--m", type=int)
    sp.add_argument("--n", dest="n_right", type=int)
    sp.add_argument("--r", type=int)
    sp.add_argument("--q", type=int)
    sp.add_argument("--s", type=int)
    sp.add_argument("--file", help="read the colouring from a file instead of generating one")

    sp = add("br-bound", help="the 4r^3+1 bound with its arithmetic chain")
    sp.add_argument("--r", type=int, required=True)

    sp = add("verify-certificate", help="independently re-check a certificate file")
    sp.add_argument("path")

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """Flags named after a RunConfig field fill it; every other flag given goes to extra."""
    given = {key: value for key, value in vars(args).items() if value is not None}
    own = {f.name for f in fields(RunConfig)}
    return RunConfig(**{key: value for key, value in given.items() if key in own},
                     extra={key: value for key, value in given.items() if key not in own})


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _config_from_args(args)
        report = dispatch(cfg)
        payload = emit_report(report, cfg.format)
        if cfg.output:
            Path(cfg.output).write_bytes(payload)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not cfg.output:
        sys.stdout.write(payload.decode())
    print(f"# wall_time_s={report.wall_time_s:.3f}", file=sys.stderr)
    return 0 if report.outcome != "fail" else 1


if __name__ == "__main__":
    raise SystemExit(main())
