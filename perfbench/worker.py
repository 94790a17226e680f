"""One benchmark worker: set up a workload, warm up, run timed (and traced) passes.

Started by run.py as a fresh process, so its set-up pays what a fresh
`vc2lab` process pays.  It writes one JSON line to stdout: the monotonic
time at which the workload's inputs were ready and, unless --setup-only,
the raw measurements.  Everything else goes to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACED_PASSES = 2  # two, so every count can be checked for drift


def _import_vc2lab():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import vc2lab

    if Path(vc2lab.__file__).resolve().parent != src / "vc2lab":
        raise SystemExit(f"error: imported vc2lab from {vc2lab.__file__}, not from this checkout")


def _run_command(cmd, clear_cache, tracer=None):
    """Time one dispatch from a cold basis cache; returns (seconds, report or None, error or None)."""
    from vc2lab.cli import dispatch

    clear_cache()
    started = time.perf_counter()
    try:
        if tracer is None:
            report = dispatch(cmd.config)
        else:
            report = tracer.span(f"cli.dispatch.{cmd.name}", dispatch, cmd.config)
    except Exception as exc:  # a raising command is a failed command, not a crashed benchmark
        elapsed = time.perf_counter() - started
        traceback.print_exc()
        return elapsed, None, f"raised {type(exc).__name__}: {exc}"
    return time.perf_counter() - started, report, None


@dataclass
class Pass:
    """The outcome of one pass over a workload's command list."""

    seconds: float = 0.0
    by_command: dict[str, float] = field(default_factory=dict)  # seconds per command name
    # (command name, monotonic start, seconds) per command, so run.py can
    # match each command with the speed-probe samples taken while it ran
    windows: list[tuple[str, float, float]] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)  # certificate file name -> SHA-256


def _one_pass(commands, clear_cache, tracer=None) -> Pass:
    out = Pass()
    for cmd in commands:
        at = time.monotonic()
        seconds, report, error = _run_command(cmd, clear_cache, tracer)
        out.windows.append((cmd.name, at, seconds))
        out.seconds += seconds
        out.by_command[cmd.name] = out.by_command.get(cmd.name, 0.0) + seconds
        if error is None:
            try:
                error = cmd.check(report)
            except (KeyError, TypeError, ValueError) as exc:
                error = f"unexpected report value {report.value!r}: {exc!r}"
        if error is None and cmd.cert is not None:
            out.digests[cmd.cert.name] = hashlib.sha256(cmd.cert.read_bytes()).hexdigest()
        if error is not None:
            out.failures.append(f"{cmd.label}: {error}")
    return out


def _check_certificates(passes: list[Pass], work: Path, seed: int) -> list[str]:
    """Golden digests where they apply; elsewhere an independent re-verification.

    Every pass must also emit the same bytes as the first.
    """
    from vc2lab import certs
    from workloads import DEFAULT_SEED, GOLDEN, SEED_FREE

    problems = []
    first = passes[0].digests
    for p in passes[1:]:
        for name, digest in p.digests.items():
            if first.get(name) != digest:
                problems.append(f"{name}: bytes differ between passes")
    for name, digest in sorted(first.items()):
        golden = GOLDEN.get(name)
        if golden is not None and (seed == DEFAULT_SEED or name in SEED_FREE):
            status = "golden" if digest == golden else f"MISMATCH (golden {golden})"
            if digest != golden:
                problems.append(f"{name}: digest {digest} differs from golden {golden}")
        else:
            path = work / name
            result = certs.verify_certificate(certs.loads(path.read_bytes()))
            status = "re-verified" if result.ok else f"REJECTED ({result.detail})"
            if not result.ok:
                problems.append(f"{name}: re-verification failed: {result.detail}")
        print(f"certificate {name} sha256 {digest} {status}", file=sys.stderr)
    return problems


def _blas_info() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        return {"name": "unknown", "version": None}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans", help="where the traced passes' spans go (JSON lines)")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--cpu", type=int, required=True, help="the CPU to pin to, shared with the speed probe")
    args = ap.parse_args(argv)

    os.sched_setaffinity(0, {args.cpu})

    protocol = sys.stdout
    sys.stdout = sys.stderr  # keep stray prints off the protocol stream

    _import_vc2lab()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import numpy as np
    import vc2lab
    from vc2lab.highrank import build_trace_basis
    from workloads import WORKLOADS, warmup

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    work = Path(args.workdir)
    commands = WORKLOADS[args.workload](work, args.seed)
    # CLOCK_MONOTONIC is shared by all processes, so run.py can subtract its own spawn time
    result = {"ready_monotonic": time.monotonic()}
    if args.setup_only:
        protocol.write(json.dumps(result) + "\n")
        return 0

    clear_cache = build_trace_basis.cache_clear
    warm_commands = warmup(work, args.seed)
    warm = _one_pass(warm_commands, clear_cache)

    passes: list[Pass] = []
    started = time.perf_counter()
    while True:
        passes.append(_one_pass(commands, clear_cache))
        elapsed = time.perf_counter() - started
        # stop before a pass that would end past --seconds; always run at least one
        if elapsed + elapsed / len(passes) > args.seconds:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    traced: list[Pass] = []
    layer: list[dict] = []
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            for i in range(TRACED_PASSES):
                tracer.open_pass(i)
                try:
                    traced.append(_one_pass(commands, clear_cache, tracer))
                finally:
                    tracer.close_pass()
        finally:
            tracer.uninstall()
        layer = [tracer.pass_metrics(i) for i in range(TRACED_PASSES)]
        if args.spans:
            tracer.write(args.spans)

    result.update({
        "passes": [asdict(p) for p in passes],
        "traced_passes": [asdict(p) for p in traced],
        "layer": layer,
        "warmup_failures": warm.failures,
        "certificate_problems": _check_certificates(passes, work, args.seed),
        "commands_per_pass": len(commands),
        "warmup_commands": len(warm_commands),
        "peak_rss_mb": rss_mb,
        "record": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas": _blas_info(),
        },
    })
    protocol.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
