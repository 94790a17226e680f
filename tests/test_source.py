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


def test_verifier_imports_no_search_module():
    # certs rebuilds oracles and replays witnesses; the atom search in factor stays out of it
    tree = ast.parse((ROOT / "src/vc2lab/certs.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("vc2lab")):
            module = (node.module or "").removeprefix("vc2lab").lstrip(".")
            imported |= {module} if module else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {alias.name.removeprefix("vc2lab.") for alias in node.names if alias.name.startswith("vc2lab")}
    assert imported == {"fp", "gs", "highrank", "shatter"}
