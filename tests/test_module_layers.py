"""Tooling guard: each module under src/ imports only the package modules of
the layers below it, so that loading one command's module loads no module
that command does not use."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "rigidity_forge"
PACKAGE = "rigidity_forge"

# the package modules each module may import; PACKAGE is the lazy namespace
# of __init__, which loads a module when one of its names is first read
LAYERS = {
    "__init__": set(),
    "graph_core": set(),
    "modlinalg": set(),
    "combinatorics": {"graph_core"},
    "constructions": {"graph_core"},
    "rigidity": {"graph_core", "modlinalg"},
    "global_rigidity": {"graph_core", "modlinalg", "rigidity"},
    "experiments": {"combinatorics", "constructions", "global_rigidity", "graph_core",
                    "modlinalg", "rigidity"},
    "cli": {PACKAGE, "graph_core", "modlinalg"},
}


def package_imports(source: str) -> set[str]:
    """The package modules a module imports, relative or absolute, wherever
    the import stands.  A name imported from the package itself counts as
    its module when it is one, and as PACKAGE otherwise."""
    modules = {path.stem for path in SRC.glob("*.py")}
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == PACKAGE:
                    found.add(parts[1] if len(parts) > 1 else PACKAGE)
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level:
                parts = [PACKAGE, *filter(None, parts)]
            if parts[0] != PACKAGE:
                continue
            if len(parts) > 1:
                found.add(parts[1])
            else:
                found.update(a.name if a.name in modules else PACKAGE for a in node.names)
    return found


def test_guard_reads_relative_absolute_and_local_imports():
    source = ("import os\nimport rigidity_forge as rf\nfrom .rigidity import Cover\n"
              "from . import modlinalg, generic_rank\n"
              "def f():\n    from rigidity_forge.graph_core import Graph\n")
    assert package_imports(source) == {PACKAGE, "rigidity", "modlinalg", "graph_core"}


def test_every_module_imports_only_the_layers_below_it():
    imports = {path.stem: package_imports(path.read_text(encoding="utf-8"))
               for path in SRC.glob("*.py")}
    assert set(imports) == set(LAYERS)
    assert {m: sorted(found - LAYERS[m]) for m, found in imports.items() if found - LAYERS[m]} == {}
