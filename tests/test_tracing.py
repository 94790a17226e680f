"""The benchmark's tracer (perfbench/tracing.py) binds package functions by name.

A refactor that renames or drops one of them breaks `perfbench/run.py
--trace 1`; this test makes that a tier-1 failure.
"""

import importlib.util
import sys
from pathlib import Path

import vc2lab.certs  # noqa: F401  (the tracer binds names in every vc2lab module)
import vc2lab.cli  # noqa: F401
import numpy as np

from vc2lab.fp import FieldCtx, mat_rank
from vc2lab.gs import GsSet


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(targets):
    out = {}
    for _, module_name, attr, _ in targets:
        owner = sys.modules[module_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            out[attr] = vars(getattr(owner, cls_name))[meth]
        else:
            out[attr] = getattr(owner, attr)
    return out


def test_tracer_installs_and_uninstalls():
    tracing = _load_tracing()
    before = _bindings(tracing.TARGETS)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = _bindings(tracing.TARGETS)
        assert all(during[attr] is not before[attr] for attr in before)
        ctx = FieldCtx(3)
        tracer.open_pass(0)
        assert mat_rank(np.array([[1, 2], [2, 1]]), 3) == 1
        assert GsSet(ctx, 2).contains((0, 1))
        tracer.close_pass()
        counts = tracer.pass_metrics(0)
        assert counts["fp.rank.calls"] == 1
        assert counts["gs.contains.calls"] == 1
        assert counts["gs.contains_digits.rows"] == 1
    finally:
        tracer.uninstall()
    after = _bindings(tracing.TARGETS)
    assert all(after[attr] is before[attr] for attr in before)
