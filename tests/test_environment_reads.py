"""Tooling guard: no module under src/ reads the process environment.  Every
setting of a run comes from its command line, so a run is reproduced from
that line alone."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(source: str) -> list[str]:
    """`line: name` for each mention of an `os` environment accessor, as a
    bare name, an attribute or an imported name.  Strings do not count."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        else:
            continue
        found += [(node.lineno, name) for name in names if name in ENVIRONMENT_NAMES]
    return [f"{line}: {name}" for line, name in sorted(found)]


def test_guard_sees_attributes_imports_and_names_but_not_strings():
    source = '"""os.environ"""\nimport os\nfrom os import environ\n\n'
    source += 'a = os.environ.get("X")\nb = os.getenv("Y")\nc = environ["Z"]\n'
    assert environment_reads(source) == ["3: environ", "5: environ", "6: getenv", "7: environ"]


def test_no_module_under_src_reads_the_environment():
    paths = sorted(SRC.rglob("*.py"))
    assert paths
    found = {
        str(path.relative_to(SRC)): names
        for path in paths
        if (names := environment_reads(path.read_text(encoding="utf-8")))
    }
    assert found == {}
