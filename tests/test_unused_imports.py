"""Tooling guard: no module under src/ or tests/ imports a name it never uses."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source: str) -> list[str]:
    """`line: name` for each imported name the module never mentions.
    `__future__` imports and names listed in a literal `__all__` are exempt."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            if isinstance(node.value, (ast.List, ast.Tuple)):
                used.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return [f"{line}: {name}" for name, line in sorted(imported.items()) if name not in used]


def test_guard_flags_an_unused_import():
    source = "from __future__ import annotations\nimport os, sys\nfrom math import comb\n"
    source += "__all__ = ['comb']\nprint(sys.argv)\n"
    assert unused_imports(source) == ["2: os"]


def test_no_unused_imports():
    paths = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")])
    assert paths
    found = {
        str(path.relative_to(ROOT)): names
        for path in paths
        if (names := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}
