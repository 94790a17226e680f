"""Invariants of the shipped code are explicit checks: `python -O` strips every `assert` statement."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_no_assert_statements_in_src_or_scripts():
    found = []
    for path in sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("scripts/**/*.py")]):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.relative_to(ROOT)}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
