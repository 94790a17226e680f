"""Spans and counters at vc2lab's module boundaries, recorded from outside the package.

`Tracer.install()` replaces every binding of each traced function: the
defining module's global, each `from .x import f` copy in the other vc2lab
modules, and methods on their classes.  Nothing under `src/` changes, and
`uninstall()` puts the originals back.  Spans are kept in memory and only
while a pass is open; aggregation happens after the run.  One span stack
serves the whole process, which holds because the benchmark runs every
command with `--threads 1`.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import Counter, defaultdict

# (span name, defining module, attribute or "Class.method", extra counters)
# The extra counters map a counter suffix to f(args, result) -> int.
_ROWS = {"rows": lambda args, result: int(args[1].shape[0])}
_VERDICT = {
    "accepted": lambda args, result: int(bool(result.ok)),
    "rejected": lambda args, result: int(not result.ok),
}
_BYTES = {"bytes": lambda args, result: len(result)}

TARGETS = [
    ("fp.rank", "vc2lab.fp", "_rank_array", None),
    ("fp.solve_affine", "vc2lab.fp", "solve_affine", None),
    ("fp.orth_complement", "vc2lab.fp", "orth_complement", None),
    ("highrank.build_trace_basis", "vc2lab.highrank", "build_trace_basis", None),
    ("highrank.build_irreducible", "vc2lab.highrank", "build_irreducible", None),
    ("highrank.check_high_rank", "vc2lab.highrank", "check_high_rank", None),
    *[("gs.contains", "vc2lab.gs", f"{cls}.contains", None) for cls in ("GsSet", "QgsSet", "ExplicitSet")],
    *[("gs.contains_digits", "vc2lab.gs", f"{cls}.contains_digits", _ROWS) for cls in ("GsSet", "QgsSet", "ExplicitSet")],
    *[("gs.membership_table", "vc2lab.gs", f"{cls}.membership_table", None) for cls in ("GsSet", "QgsSet", "ExplicitSet")],
    ("shatter.vc_dim", "vc2lab.shatter", "vc_dim", None),
    ("shatter.shatters", "vc2lab.shatter", "shatters", None),
    ("shatter.vc2_shatters", "vc2lab.shatter", "vc2_shatters", None),
    ("shatter.vc2_realizes", "vc2lab.shatter", "vc2_realizes", None),
    ("factor.construct_shatter_pair", "vc2lab.factor", "construct_shatter_pair", None),
    ("factor.realize_map", "vc2lab.factor", "realize_map", None),
    ("factor.find_in_atom", "vc2lab.factor", "find_in_atom", None),
    ("factor.forced_zero_probe", "vc2lab.factor", "forced_zero_probe", None),
    ("ramsey.find_mono_biclique", "vc2lab.ramsey", "find_mono_biclique", None),
    ("certs.verify_certificate", "vc2lab.certs", "verify_certificate", _VERDICT),
    ("certs.oracle_from_spec", "vc2lab.certs", "oracle_from_spec", None),
    ("certs.dumps", "vc2lab.certs", "dumps", _BYTES),
]


class Tracer:
    def __init__(self) -> None:
        # (id, name, start, end, parent id, pass id, self seconds, root span name)
        self.spans: list[tuple] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self._stack: list[list] = []  # [id, start, seconds covered by children, root name]
        self._next_id = 0
        self._pass: int | None = None
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def open_pass(self, pass_id: int) -> None:
        self._pass = pass_id

    def close_pass(self) -> None:
        self._pass = None

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named `name` (plain call when no pass is open)."""
        if self._pass is None:
            return fn(*args, **kwargs)
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        root = self._stack[0][3] if self._stack else name
        frame = [span_id, time.perf_counter(), 0.0, root]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            dur = end - frame[1]
            if self._stack:
                self._stack[-1][2] += dur
            self.spans.append((span_id, name, frame[1], end, parent, self._pass, dur - frame[2], root))
            self.counts[self._pass][f"{name}.calls"] += 1

    # -- binding replacement --------------------------------------------------

    def _wrapper(self, name: str, fn, extra):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = tracer.span(name, fn, *args, **kwargs)
            if extra and tracer._pass is not None:
                counts = tracer.counts[tracer._pass]
                for suffix, count in extra.items():
                    counts[f"{name}.{suffix}"] += count(args, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "vc2lab" or key.startswith("vc2lab.")]
        for name, module_name, attr, extra in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patched.append((cls, meth, original))
                setattr(cls, meth, self._wrapper(name, original, extra))
                continue
            original = getattr(owner, attr)
            traced = self._wrapper(name, original, extra)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, traced)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    # -- output ---------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, pass_id, _, _ in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                     "parent": parent, "pass": pass_id}) + "\n")

    def pass_metrics(self, pass_id: int) -> dict[str, float]:
        """Inclusive (.s) and self (.self_s) seconds per span name, plus the pass's counts.

        `by_layer.<root>.<layer>` is the self time of a layer's spans under
        the root span `<root>` (one dispatched command).
        """
        out: dict[str, float] = defaultdict(float)
        realize = []
        for _, name, start, end, _, span_pass, self_s, root in self.spans:
            if span_pass != pass_id:
                continue
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += self_s
            out[f"by_layer.{root}.{name.split('.')[0]}"] += self_s
            if name == "factor.realize_map":
                realize.append(end - start)
            if name.startswith("cli.dispatch."):
                out["cli.dispatch.s"] += end - start
                out["cli.dispatch.self_s"] += self_s
        if realize:
            realize.sort()
            out["factor.realize_map.p50_s"] = _percentile(realize, 0.50)
            out["factor.realize_map.p99_s"] = _percentile(realize, 0.99)
        out.update(self.counts[pass_id])
        return dict(out)


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(1, math.ceil(len(sorted_values) * q)) - 1]
