"""Tooling guard: every name the package exports is one that the package
itself calls.  Public API that only tests use belongs in `tests/helpers.py`."""

import ast
from pathlib import Path

import rigidity_forge

SRC = Path(__file__).resolve().parents[1] / "src" / "rigidity_forge"

# exported although no module under src/ refers to them
ALLOWED = {
    # the README's library tour builds standard graphs with these
    "complete_graph",
    "cycle_graph",
    "complete_bipartite_graph",
    # perfbench's combinatorics.covered_subsets hook reads its arguments
    "covered_subset_count",
}


def referenced_names(source: str) -> set[str]:
    """The identifiers a module refers to, as a bare name or as an attribute
    (`_lib("x").f(...)` refers to f).  Strings, docstrings included, do not count."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_guard_sees_names_and_attributes_but_not_strings():
    source = '"""f, g and h."""\nimport m\n\n\ndef g():\n    return m.f(x) + _lib("m").h()\n'
    assert referenced_names(source) == {"m", "x", "f", "_lib", "h"}


def test_every_exported_name_resolves_and_has_a_caller_in_src():
    exported = [name for names in rigidity_forge._EXPORTS.values() for name in names]
    for name in exported:
        getattr(rigidity_forge, name)
    used = set().union(*(referenced_names(path.read_text(encoding="utf-8"))
                         for path in SRC.glob("*.py") if path.name != "__init__.py"))
    assert ALLOWED <= set(exported)
    assert sorted(set(exported) - used - ALLOWED) == []
