"""The benchmark's workloads: seeded lists of vc2lab commands with their expected outcomes.

Each command is one `vc2lab.cli.dispatch(RunConfig(...))` call, the same work
a `vc2lab <command> ...` process does after argument parsing.  A check
returns None when the report is the expected one, or the reason it is not.
Importing this module imports vc2lab; the worker puts the checkout's `src/`
on the path first.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from vc2lab.cli import RunConfig, RunReport
from vc2lab.ramsey import BicliqueWitness, random_colouring

DEFAULT_SEED = 0
DATA = Path(__file__).resolve().parent / "data"

# SHA-256 of every certificate the workloads emit, keyed by file name.  The
# vc2-verify digests hold at DEFAULT_SEED only; vc-dim takes no seed, so its
# digests hold at every seed.  perfbench/data holds the same bytes, which is
# what verify-replay replays.
GOLDEN = {
    "k3_p3_n31.json": "41e9ddb9e4f2837c44a340b75e2a786f20ab3c146aa86ff161c25cd5320a9632",
    "k3_p5_n31.json": "edb242eeef78189bd83d19b7bda550e72957c30f72cda8db6ee3235ece9f1c8d",
    "k2_p3_n13.json": "1e4593887b01f28b00173db0d142886291e913d2165127b3604cc9c91f6b83fb",
    "vcdim_gs_3_3.json": "bea45cdf67626731e8916f026d1285c6413a5a61c9e29c680e76b39c35c2b039",
    "vcdim_gs_3_4.json": "6fd302b754eea76fcc9dec267017f2e19240628afe669bdb8f2b4f79ae4c1f39",
    "vcdim_gs_3_5.json": "c26792b0c9b1e75197457281dad043d55bedfa4b8589236138e9a93f6f9f799f",
    "vcdim_gs_5_2.json": "fc4dc6a0a75394eadff53a24ac56935ec3acc820e2b9ff148c35c50c06d38964",
    "vcdim_gs_5_3.json": "6c4675ef41bf5a6b2b388fe22653d915582dead5d4931f7f2d2304cd71a79eb8",
    "vcdim_gs_7_2.json": "56ce270995ff752493fe048cb754c4c96acc6d9f8c933945ecfcb4602b9b73ea",
    "vcdim_qgs_3_5.json": "b2db84aa9dec3426aee9c3e35a9cf7cf9e5073aef65e5b97229a7619ec47550f",
}
SEED_FREE = {name for name in GOLDEN if name.startswith("vcdim_")}

RAMSEY_SEEDS = 20
MUTATIONS_PER_CERT = 12
MUTATION_KINDS = ("dropped", "duplicated", "re-indexed")


@dataclass(frozen=True)
class Command:
    label: str
    config: RunConfig
    check: Callable[[RunReport], str | None]
    cert: Path | None = None  # certificate the command writes, if any

    @property
    def name(self) -> str:
        return self.config.command


def _outcome(expected: str):
    def check(report: RunReport) -> str | None:
        return None if report.outcome == expected else f"outcome {report.outcome!r}, expected {expected!r}: {report.value}"
    return check


def _vc_dim(expected: int):
    def check(report: RunReport) -> str | None:
        return None if report.value == expected else f"VC-dimension {report.value}, expected {expected}"
    return check


def _vc2(k: int):
    def check(report: RunReport) -> str | None:
        if report.outcome != "pass":
            return f"outcome {report.outcome!r}: {report.value}"
        if report.value != {"maps_realized": 1 << (k * k)}:
            return f"unexpected value {report.value}"
        return None
    return check


def _prop32(report: RunReport) -> str | None:
    if report.outcome != "pass":
        return f"outcome {report.outcome!r}"
    if report.value["vacuous"] >= report.value["instances"]:
        return "every instance was vacuous"
    return None


def _ramsey(m: int, n: int, r: int, seed: int):
    def check(report: RunReport) -> str | None:
        if report.outcome != "pass":
            return f"outcome {report.outcome!r}"
        v = report.value
        witness = BicliqueWitness(tuple(v["left"]), tuple(v["right"]), v["colour"])
        if not witness.verify(random_colouring(m, n, r, seed=seed)):
            return "biclique witness is not monochromatic"
        return None
    return check


def _vc_dim_cmd(work: Path, p: int, n: int, which: str, expected: int) -> Command:
    cert = work / f"vcdim_{which}_{p}_{n}.json"
    extra = {"set": which, "k_max": 4, "cert": str(cert)}
    return Command(f"vc-dim {which.upper()}({p},{n})", RunConfig("vc-dim", p=p, n=n, extra=extra),
                   _vc_dim(expected), cert)


def _vc2_cmd(work: Path, p: int, n: int, k: int, seed: int) -> Command:
    cert = work / f"k{k}_p{p}_n{n}.json"
    return Command(f"vc2-verify k={k} p={p} n={n}",
                   RunConfig("vc2-verify", p=p, n=n, k=k, seed=seed, extra={"cert": str(cert)}),
                   _vc2(k), cert)


def _ramsey_cmd(m: int, n: int, r: int, seed: int) -> Command:
    return Command(f"ramsey-find K_{m},{n} r={r} seed={seed}",
                   RunConfig("ramsey-find", seed=seed, extra={"m": m, "n_right": n, "r": r}),
                   _ramsey(m, n, r, seed))


def _verify_cmd(path: Path, expected: str) -> Command:
    return Command(f"verify-certificate {path.name}",
                   RunConfig("verify-certificate", extra={"path": str(path)}), _outcome(expected))


def _mutate(doc: dict, kind: str, rng: random.Random) -> dict:
    """A copy of a vc2 certificate with one witness dropped, duplicated or re-indexed."""
    doc = json.loads(json.dumps(doc))
    wits = doc["witnesses"]
    i = rng.randrange(len(wits))
    if kind == "dropped":
        del wits[i]
    elif kind == "duplicated":
        wits.insert(i + 1, dict(wits[i]))
    else:
        wits[i]["phi"] = rng.choice([j for j in range(len(wits)) if j != wits[i]["phi"]])
    return doc


def _k3_pipeline(work: Path, seed: int) -> list[Command]:
    return [_vc2_cmd(work, p, 31, 3, seed) for p in (3, 5)]


def _small_search(work: Path, seed: int) -> list[Command]:
    cmds = [_vc_dim_cmd(work, p, n, "gs", 3) for p, n in ((3, 3), (3, 4), (3, 5))]
    cmds += [_vc_dim_cmd(work, p, n, "gs", 2) for p, n in ((5, 2), (5, 3), (7, 2))]
    cmds.append(_vc_dim_cmd(work, 3, 5, "qgs", 4))
    cmds.append(Command("prop32-check p=3 n=5", RunConfig("prop32-check", p=3, n=5, seed=seed,
                                                          extra={"instances": 20}), _prop32))
    cmds += [_ramsey_cmd(501, 501, 5, seed * 1000 + i) for i in range(RAMSEY_SEEDS)]
    cmds.append(_vc2_cmd(work, 3, 13, 2, seed))
    return cmds


def _basis_check(work: Path, seed: int) -> list[Command]:
    return [
        Command("basis p=3 n=31 sampled 10^4", RunConfig("basis", p=3, n=31, seed=seed,
                                                         extra={"mode": "sampled", "count": 10_000}), _outcome("pass")),
        Command("basis p=3 n=9 exhaustive", RunConfig("basis", p=3, n=9, seed=seed,
                                                      extra={"mode": "exhaustive"}), _outcome("pass")),
    ]


def _verify_replay(work: Path, seed: int) -> list[Command]:
    rng = random.Random(seed)
    cmds = []
    for name, digest in GOLDEN.items():
        data = (DATA / name).read_bytes()
        if hashlib.sha256(data).hexdigest() != digest:
            raise RuntimeError(f"perfbench/data/{name} does not match its golden digest")
        cmds.append(_verify_cmd(DATA / name, "pass"))
    for name in ("k3_p3_n31.json", "k3_p5_n31.json"):
        doc = json.loads((DATA / name).read_bytes())
        for i in range(MUTATIONS_PER_CERT):
            kind = MUTATION_KINDS[i % len(MUTATION_KINDS)]
            path = work / f"mutant_{i:02d}_{kind}_{name}"
            path.write_text(json.dumps(_mutate(doc, kind, rng), sort_keys=True, separators=(",", ":")))
            cmds.append(_verify_cmd(path, "fail"))
    return cmds


def warmup(work: Path, seed: int) -> list[Command]:
    """One small command of each kind, run once untimed before the first timed pass."""
    k2 = _vc2_cmd(work, 3, 13, 2, seed)
    return [
        k2,
        _vc_dim_cmd(work, 3, 4, "gs", 3),
        Command("basis p=3 n=5 exhaustive", RunConfig("basis", p=3, n=5, extra={"mode": "exhaustive"}),
                _outcome("pass")),
        Command("prop32-check p=3 n=5", RunConfig("prop32-check", p=3, n=5, seed=seed, extra={"instances": 2}),
                _outcome("pass")),
        _ramsey_cmd(501, 501, 5, seed),
        _verify_cmd(k2.cert, "pass"),
    ]


WORKLOADS = {
    "k3-pipeline": _k3_pipeline,
    "small-search": _small_search,
    "basis-check": _basis_check,
    "verify-replay": _verify_replay,
}
