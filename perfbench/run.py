"""Certificate-pipeline benchmark for vc2lab.

    python3 perfbench/run.py --workload k3-pipeline --seed 0 --seconds 15 --trace 0

Run from the root of a checkout.  Each command of the workload goes through
`vc2lab.cli.dispatch` in a fresh worker process, one at a time (a closed loop
with one client, `--threads 1`, BLAS pinned to one thread), with the basis
cache cleared before each command so it pays what a fresh CLI process pays.
The workers and `speedprobe.py` share one CPU, and every end-to-end time is
stated at a reference speed of that CPU (see HostSpeed).  Every output is
checked.  With `--trace 0` the end-to-end metrics are
printed; with `--trace 1` the worker also runs two traced passes and the
per-layer metrics are printed.  The last stdout line is a JSON object whose
metrics are the ones BENCHMARK.json lists; the full record goes to
`.perfbench/<workload>-seed<seed>-trace<t>.json`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().parent / "worker.py"
PROBE = Path(__file__).resolve().parent / "speedprobe.py"
OUT = ROOT / ".perfbench"
SETUP_SAMPLES = 7  # fresh workers per run, spread around the timed worker; setup_s is their median
DEADLINE_S = 170.0
BLAS_THREADS = "1"
# Times are stated at the host speed at which one speed-probe loop takes
# REF_PROBE_S; each interval is scaled by REF_PROBE_S / the mean probe time
# of at least MIN_PROBES samples taken while it ran (or nearest to it).
REF_PROBE_S = 0.002
MIN_PROBES = 8

# Every per-layer metric the traced pass prints, with its unit.  BENCHMARK.json
# lists the subset that is measured on every workload.
LAYER_METRICS = [
    ("fp.rank.calls", "count"), ("fp.rank.s", "s"),
    ("fp.solve_affine.calls", "count"), ("fp.solve_affine.s", "s"), ("fp.orth_complement.s", "s"),
    ("highrank.build_trace_basis.calls", "count"), ("highrank.build_trace_basis.s", "s"),
    ("highrank.build_irreducible.s", "s"), ("highrank.check_high_rank.s", "s"),
    ("highrank.check_high_rank.self_s", "s"),
    ("gs.contains.calls", "count"), ("gs.contains.s", "s"), ("gs.contains_digits.calls", "count"),
    ("gs.contains_digits.rows", "count"), ("gs.contains_digits.s", "s"), ("gs.membership_table.s", "s"),
    ("shatter.vc_dim.s", "s"), ("shatter.vc_dim.self_s", "s"), ("shatter.shatters.s", "s"),
    ("shatter.vc2_shatters.self_s", "s"), ("shatter.vc2_realizes.calls", "count"),
    ("shatter.vc2_realizes.s", "s"),
    ("factor.construct_shatter_pair.s", "s"), ("factor.realize_map.calls", "count"),
    ("factor.realize_map.s", "s"), ("factor.realize_map.p50_s", "s"), ("factor.realize_map.p99_s", "s"),
    ("factor.find_in_atom.calls", "count"), ("factor.find_in_atom.s", "s"),
    ("factor.find_in_atom.self_s", "s"), ("factor.forced_zero_probe.s", "s"),
    ("ramsey.find_mono_biclique.calls", "count"), ("ramsey.find_mono_biclique.s", "s"),
    ("certs.verify_certificate.calls", "count"), ("certs.verify_certificate.s", "s"),
    ("certs.verify_certificate.accepted", "count"), ("certs.verify_certificate.rejected", "count"),
    ("certs.oracle_from_spec.s", "s"), ("certs.dumps.calls", "count"), ("certs.dumps.bytes", "bytes"),
    ("certs.dumps.s", "s"), ("cli.dispatch.s", "s"), ("cli.dispatch.self_s", "s"),
    ("trace_overhead_frac", "ratio"),
]
COUNT_SUFFIXES = (".calls", ".rows", ".bytes", ".accepted", ".rejected")
LAYERS = ("fp", "highrank", "gs", "shatter", "factor", "ramsey", "certs", "cli")


class BenchError(Exception):
    pass


class HostSpeed:
    """The speed probe's samples, used to state a timed interval at the reference speed."""

    def __init__(self, path: Path):
        rows = [tuple(map(float, line.split())) for line in path.read_text().splitlines()]
        if len(rows) < MIN_PROBES:
            raise BenchError(f"the speed probe took {len(rows)} samples, fewer than {MIN_PROBES}")
        self.rows = rows

    def scale(self, start: float, seconds: float) -> float:
        inside = [d for at, d in self.rows if start <= at <= start + seconds]
        if len(inside) < MIN_PROBES:
            mid = start + seconds / 2
            inside = [d for _, d in sorted(self.rows, key=lambda r: abs(r[0] - mid))[:MIN_PROBES]]
        return seconds * REF_PROBE_S / statistics.fmean(inside)

    def scale_pass(self, p: dict) -> tuple[float, dict[str, float]]:
        """A pass's scaled seconds, in total and per command name."""
        by_command: dict[str, float] = {}
        for name, start, seconds in p["windows"]:
            by_command[name] = by_command.get(name, 0.0) + self.scale(start, seconds)
        return sum(by_command.values()), by_command


def _summary(values: list[float]) -> dict:
    values = sorted(values)
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def _spawn(args: argparse.Namespace, cpu: int, deadline: float, setup_only: bool, spans: Path | None = None):
    """Run one worker in a fresh work directory; returns (spawn time, setup seconds, its JSON result)."""
    (OUT / "work").mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=OUT / "work"))
    try:
        return _run_worker(args, cpu, work, deadline, setup_only, spans)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_worker(args, cpu: int, work: Path, deadline: float, setup_only: bool, spans: Path | None):
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--workdir", str(work),
           "--cpu", str(cpu)]
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS, VC2LAB_THREADS="1")
    spawned = time.monotonic()
    try:
        # subprocess.run kills and reaps the worker if the timeout expires
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the {DEADLINE_S:.0f} s deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    result = json.loads(lines[-1])
    return spawned, result["ready_monotonic"] - spawned, result


def _with_probe(cpu: int, run):
    """Call run() while the speed probe samples `cpu`; returns (run's result, HostSpeed)."""
    (OUT / "work").mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=OUT / "work"))
    out = work / "speed.txt"
    probe = subprocess.Popen([sys.executable, str(PROBE), "--cpu", str(cpu), "--out", str(out),
                              "--max-seconds", str(DEADLINE_S + 5)], cwd=ROOT)
    try:
        try:
            time.sleep(0.2)  # let the probe start before the first set-up sample
            result = run()
        finally:
            probe.terminate()
            try:
                probe.wait(timeout=10)
            except subprocess.TimeoutExpired:
                probe.kill()
                probe.wait()
        if probe.returncode != 0:
            raise BenchError(f"the speed probe exited with code {probe.returncode}")
        return result, HostSpeed(out)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None  # not a git checkout; src_sha256 identifies the sources
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_sha256() -> str:
    """Digest of the program's sources, so checkouts without git history can be compared."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _layer_summary(layer: list[dict], failed_passes: set[int]) -> dict:
    kept = [m for i, m in enumerate(layer) if i not in failed_passes]
    out = {}
    for name in sorted({k for m in kept for k in m}):
        values = [m.get(name, 0) for m in kept]
        # passes whose counts drifted are dropped, so the kept ones agree exactly
        out[name] = {"median": values[0], "n": len(values)} if name.endswith(COUNT_SUFFIXES) else _summary(values)
    return out


def _count_drift(layer: list[dict]) -> set[int]:
    """Traced passes whose exact counts differ from the first traced pass."""
    def counts(m):
        return {k: v for k, v in m.items() if k.endswith(COUNT_SUFFIXES)}
    return {i for i, m in enumerate(layer) if i and counts(m) != counts(layer[0])}


def _workers(args: argparse.Namespace, cpu: int, deadline: float):
    """The set-up samples and the timed worker; returns ([(spawn time, setup seconds)], its result)."""
    spans = OUT / f"{args.workload}-spans.jsonl" if args.trace else None  # latest traced run only
    # set-up samples before and after the timed worker, so one slow spell of
    # the host does not cover all of them
    before = SETUP_SAMPLES // 2
    setup = [_spawn(args, cpu, deadline, setup_only=True)[:2] for _ in range(before)]
    spawned, seconds, res = _spawn(args, cpu, deadline, setup_only=False, spans=spans)
    setup.append((spawned, seconds))
    setup += [_spawn(args, cpu, deadline, setup_only=True)[:2] for _ in range(SETUP_SAMPLES - 1 - before)]
    return setup, res


def measure(args: argparse.Namespace) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    # one CPU for every worker and the speed probe, so the probe sees the CPU they ran on
    cpu = min(os.sched_getaffinity(0))
    (setup_raw, res), speed = _with_probe(cpu, lambda: _workers(args, cpu, deadline))
    setup = [speed.scale(at, seconds) for at, seconds in setup_raw]

    passes, traced = res["passes"], res["traced_passes"]
    drift = _count_drift(res["layer"])
    failures = [f for p in passes + traced for f in p["failures"]]
    failures += [f"warm-up {f}" for f in res["warmup_failures"]]
    failures += [f"certificate {f}" for f in res["certificate_problems"]]
    failures += [f"traced pass {i}: exact counts differ from traced pass 0" for i in sorted(drift)]
    per_pass = res["commands_per_pass"]
    attempted = per_pass * (len(passes) + len(traced)) + res["warmup_commands"]
    failed = len(failures) - len(drift) + per_pass * len(drift)

    scaled = [speed.scale_pass(p) for p in passes]
    # each time metric keeps its unscaled seconds under "raw"
    end_to_end = {"run_s": dict(_summary([s for s, _ in scaled]), unit="s",
                                raw=_summary([p["seconds"] for p in passes]))}
    for name in passes[0]["by_command"]:
        key = name.replace("-", "_") + "_s"
        end_to_end[key] = dict(_summary([by[name] for _, by in scaled]), unit="s", command=name,
                               raw=_summary([p["by_command"][name] for p in passes]))
    end_to_end["setup_s"] = dict(_summary(setup), unit="s", raw=_summary([s for _, s in setup_raw]))
    end_to_end["peak_rss_mb"] = dict(_summary([res["peak_rss_mb"]]), unit="MB")
    end_to_end["fail_frac"] = dict(_summary([failed / attempted]), unit="ratio")

    per_layer = {}
    if args.trace:
        per_layer = _layer_summary(res["layer"], drift)
        kept = [speed.scale_pass(p)[0] for i, p in enumerate(traced) if i not in drift]
        untraced = end_to_end["run_s"]["median"]
        per_layer["trace_overhead_frac"] = _summary([(statistics.median(kept) - untraced) / untraced])

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "record": dict(res["record"], git_sha=_git_sha(), src_sha256=_src_sha256(),
                       nproc=len(os.sched_getaffinity(0)), cpu=cpu, blas_threads=int(BLAS_THREADS), threads=1,
                       ref_probe_s=REF_PROBE_S, probe_samples=len(speed.rows),
                       probe_median_s=statistics.median(d for _, d in speed.rows),
                       passes=len(passes), traced_passes=len(traced)),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }


def _print_report(result: dict) -> None:
    r = result["record"]
    print(f"workload {result['workload']}  seed {result['seed']}  seconds {result['seconds']}  "
          f"trace {result['trace']}")
    print(f"record  git {r['git_sha']}  src {r['src_sha256'][:16]}  python {r['python']}  "
          f"numpy {r['numpy']}  blas {r['blas']['name']} {r['blas']['version']} x{r['blas_threads']} threads  "
          f"nproc {r['nproc']}  --threads {r['threads']}  passes {r['passes']}  traced {r['traced_passes']}")
    print(f"times are stated at the speed where the probe takes {r['ref_probe_s'] * 1e3:.3f} ms; "
          f"its median here was {r['probe_median_s'] * 1e3:.3f} ms over {r['probe_samples']} samples on CPU {r['cpu']}")
    for name, m in result["end_to_end"].items():
        raw = f"  raw {m['raw']['median']:.6f}" if "raw" in m else ""
        print(f"{name:28s} {m['median']:12.6f} {m['unit']:6s} q1 {m['q1']:.6f}  q3 {m['q3']:.6f}  n {m['n']}{raw}")
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    if not result["trace"]:
        return
    layer = result["per_layer"]
    units = dict(LAYER_METRICS)
    extra = sorted(k for k in layer if k.startswith("cli.dispatch.") and k.endswith(".self_s")
                   and k != "cli.dispatch.self_s")
    for name in [n for n, _ in LAYER_METRICS] + extra:
        print(f"{name:36s} {layer.get(name, {}).get('median', 0):14.6f} {units.get(name, 's')}")
    # where each command's traced time went: self time by layer, against its untraced time
    for m in result["end_to_end"].values():
        cmd = m.get("command")
        traced = layer.get(f"cli.dispatch.{cmd}.s")
        if traced is None:
            continue
        parts = "  ".join(f"{lay} {layer[key]['median']:.3f}" for lay in LAYERS
                          if (key := f"by_layer.cli.dispatch.{cmd}.{lay}") in layer)
        print(f"{cmd} traced {traced['median']:.3f} s = self time by layer: {parts}  "
              f"(untraced {m['raw']['median']:.3f} s unscaled, "
              f"overhead {traced['median'] / m['raw']['median'] - 1:+.1%})")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "vc2lab" / "__init__.py").is_file():
        print(f"error: no vc2lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _print_report(result)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(result, indent=1))

    source = result["per_layer"] if args.trace else result["end_to_end"]
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in listed:
        name = m["name"]
        if name in source:
            value = source[name]["median"]
        elif name.endswith(COUNT_SUFFIXES):
            value = 0  # the layer was not called on this workload
        else:
            print(f"error: metric {name} was not measured", file=sys.stderr)
            return 1
        metrics[name] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
