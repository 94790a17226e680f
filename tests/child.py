"""Run Python source in a child process, for tests that must survive a hang or a huge allocation.

The child imports vc2lab from this checkout, gets a time limit, and optionally an address-space
cap (RLIMIT_AS), so a call that hangs or allocates far too much fails the calling test instead of
blocking the suite or exhausting the machine's memory.
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
from pathlib import Path

import vc2lab


def run_in_child(source: str, args: tuple[str, ...] = (), stdin: bytes | None = None, timeout: float = 10,
                 max_address_space: int | None = None) -> str:
    """The stdout of `python -c source *args`; a nonzero exit or the timeout raises."""
    src = str(Path(vc2lab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    cap = None
    if max_address_space is not None:
        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (max_address_space, max_address_space))
    out = subprocess.run([sys.executable, "-c", source, *args], input=stdin,
                         capture_output=True, timeout=timeout, env=env, check=True, preexec_fn=cap)
    return out.stdout.decode()


_REFUSALS = """
import sys
import numpy as np
from vc2lab import fp, highrank
for p in map(int, sys.argv[1:]):
    try:
        {call}
        print("ok")
    except ValueError as exc:
        print(exc)
"""


def refusals_in_child(call: str, primes: list[int]) -> list[str]:
    """For each p of primes, "ok" when call (with fp, highrank and np in scope) returns at p, else its
    ValueError's message, from a child capped at 1 GB, so that an allocation of anything like p
    entries at a large p fails the calling test."""
    out = run_in_child(_REFUSALS.format(call=call), tuple(map(str, primes)), timeout=30, max_address_space=1 << 30)
    return out.splitlines()
