"""Tooling guard: every name the package exports, and every public method of
`Graph`, is one that the package itself calls.  Public API that only tests
use belongs in `tests/helpers.py`."""

import ast
from pathlib import Path

import pytest

import rigidity_forge
from rigidity_forge.graph_core import Graph

SRC = Path(__file__).resolve().parents[1] / "src" / "rigidity_forge"

# exported although no module under src/ refers to them
ALLOWED = {
    # the README's library tour builds a standard graph with it
    "complete_bipartite_graph",
    # perfbench's combinatorics.covered_subsets hook reads its arguments
    "covered_subset_count",
    # perfbench's modlinalg.left_kernel_basis hook wraps it; the tests' exact
    # kernel route calls it
    "left_kernel_basis",
}


def referenced_names(source: str) -> set[str]:
    """The identifiers a module refers to, as a bare name or as an attribute
    (`rf.f(...)` refers to f).  Strings, docstrings included, do not count."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_guard_sees_names_and_attributes_but_not_strings():
    source = '"""f, g and h."""\nimport m\n\n\ndef g():\n    return m.f(x) + rf.h()\n'
    assert referenced_names(source) == {"m", "x", "f", "rf", "h"}


def test_every_exported_name_resolves_and_has_a_caller_in_src():
    exported = [name for names in rigidity_forge._EXPORTS.values() for name in names]
    for name in exported:
        getattr(rigidity_forge, name)
    used = set().union(*(referenced_names(path.read_text(encoding="utf-8"))
                         for path in SRC.glob("*.py") if path.name != "__init__.py"))
    assert ALLOWED <= set(exported)
    assert sorted(set(exported) - used - ALLOWED) == []


def test_every_public_graph_method_has_a_caller_outside_graph_core():
    public = sorted(name for name, attr in vars(Graph).items()
                    if not name.startswith("_") and (callable(attr) or isinstance(attr, property)))
    used = set().union(*(referenced_names(path.read_text(encoding="utf-8"))
                         for path in SRC.glob("*.py") if path.name != "graph_core.py"))
    assert "sorted_edges" in public and "edge_count" in public
    assert [name for name in public if name not in used] == []


def package_reads(source: str) -> set[str]:
    """The attributes a module reads from the name `rf`, the CLI's name for
    the package."""
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "rf"}


def test_every_name_the_cli_reads_from_the_package_is_exported():
    # a name missing from _EXPORTS would fail only when its command first runs
    assert package_reads("rf.f(m.g, rf.h)") == {"f", "h"}
    reads = package_reads((SRC / "cli.py").read_text(encoding="utf-8"))
    exported = {name for names in rigidity_forge._EXPORTS.values() for name in names}
    assert reads and sorted(reads - exported) == []


ROOT = SRC.parents[1]

# optional parameters that no call under src/, bench/ or perfbench/ passes
UNPASSED_ALLOWED = {
    # perfbench's combinatorics.covered_subsets hook reads it (ROADMAP item 21)
    ("combinatorics.covered_subset_count", "method"),
}


def optional_parameters(module: str, source: str) -> list[tuple[str, str, list[str], set[str]]]:
    """Each function the source defines, as the name a call reaches it by
    (its class's for an `__init__`), its qualified name, the parameters a
    call binds by position (a method's first is bound already), and those
    with a default."""
    found = []

    def visit(node, cls=None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, ast.FunctionDef):
                args = child.args
                positional = [a.arg for a in args.posonlyargs + args.args]
                optional = set(positional[len(positional) - len(args.defaults):])
                optional |= {a.arg for a, default in zip(args.kwonlyargs, args.kw_defaults) if default}
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in child.decorator_list)
                if cls is not None and not static:
                    positional = positional[1:]
                qualified = ".".join(filter(None, (module, cls, child.name)))
                key = cls if child.name == "__init__" else child.name
                found.append((key, qualified, positional, optional))
                visit(child)
            else:
                visit(child, cls)

    visit(ast.parse(source))
    return found


def passed_parameters(source: str, defs) -> set[tuple[str, str]]:
    """The (function, parameter) pairs of `defs` that some call in the source
    passes, by position or by keyword; `*args` and `**kwargs` pass all they
    can reach.  A call reaches a function by bare name or attribute."""
    passed = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        for qualified, positional, optional in defs.get(name, ()):
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {kw.arg for kw in node.keywords}
            reach = set(positional if starred else positional[:len(node.args)])
            reach |= optional if None in keywords else keywords
            passed |= {(qualified, p) for p in optional & reach}
    return passed


def unpassed_parameters(modules: dict[str, str], callers: list[str]) -> set[tuple[str, str]]:
    """The (function, parameter) pairs of the modules' optional parameters
    that no caller source passes."""
    defs: dict[str, list] = {}
    for module, source in modules.items():
        for key, *entry in optional_parameters(module, source):
            defs.setdefault(key, []).append(entry)
    optional = {(q, p) for entries in defs.values() for q, _, params in entries for p in params}
    return optional - set().union(*(passed_parameters(source, defs) for source in callers))


def test_settings_reader_sees_positions_keywords_and_constructors():
    source = (
        "class C:\n"
        "    def __init__(self, a, b=1, c=2):\n        pass\n\n"
        "    def m(self, x=0, *, y=1):\n        pass\n\n"
        "    @staticmethod\n    def s(u=0):\n        pass\n\n"
        "def f(a, b=0, c=1, *, d=2):\n"
        "    return C(0, 5).m(y=3) + f(1, 2, d=4) + C.s(*rest) + g(**kw)\n\n"
        "def g(e=0):\n    pass\n"
    )
    assert unpassed_parameters({"mod": source}, [source]) == {("mod.C.__init__", "c"), ("mod.C.m", "x"),
                                                              ("mod.f", "c")}
    unpassed = unpassed_parameters({"mod": source}, ["f(c=1)", "C(1, 2, 3)"])
    assert {("mod.C.m", "y"), ("mod.g", "e")} <= unpassed and ("mod.f", "c") not in unpassed


def test_every_optional_parameter_is_passed_by_some_caller():
    # a parameter that only tests set is a knob the program never turns
    modules = {path.stem: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    callers = [path.read_text(encoding="utf-8") for top in ("src", "bench", "perfbench")
               for path in sorted((ROOT / top).rglob("*.py"))]
    unpassed = unpassed_parameters(modules, callers)
    assert UNPASSED_ALLOWED <= unpassed
    assert sorted(unpassed - UNPASSED_ALLOWED) == []


def parameters_named(source: str, name: str) -> list[str]:
    """The functions and lambdas of a source that take a parameter of this name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs + [a for a in (args.vararg, args.kwarg) if a]
            if any(a.arg == name for a in every):
                found.append(getattr(node, "name", "<lambda>"))
    return found


def assigned_names(source: str) -> set[str]:
    """The names a source binds at module level by assignment."""
    names = set()
    for node in ast.parse(source).body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        names |= {target.id for target in targets if isinstance(target, ast.Name)}
    return names


# each setting the verdict layer reads from one module constant: the
# constant, the module defining it, and the functions still allowed to take
# the setting as a parameter (a module name allows all of its functions)
FIXED_SETTINGS = {
    # one field, read at each call: no function takes a modulus
    "p": ("DEFAULT_PRIME", "modlinalg", set()),
    # generic_rank's count is the one perfbench's trials_requested counter
    # reads; it hands that count on to the placement stream
    "trials": ("TRIALS", "modlinalg", {"rigidity.generic_rank", "rigidity.placements"}),
}


def test_guard_reads_parameters_and_module_constants():
    assert parameters_named("def f(g, p=5):\n    return lambda p: p\n\ndef h(q, *, p):\n    pass\n",
                            "p") == ["f", "h", "<lambda>"]
    assert assigned_names("A = 1\nB: int = 2\nC, D = 3, 4\n\ndef f():\n    E = 5\n") == {"A", "B"}


@pytest.mark.parametrize("setting", FIXED_SETTINGS)
def test_a_fixed_setting_is_one_constant_not_a_parameter(setting):
    constant, home, allowed = FIXED_SETTINGS[setting]
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SRC.glob("*.py")}
    taking = {f"{module}.{name}" for module, source in sources.items()
              for name in parameters_named(source, setting) if module not in allowed}
    assert sorted(taking - allowed) == []
    assert [module for module, source in sources.items() if constant in assigned_names(source)] == [home]


def test_the_field_is_taken_on_trust():
    # with one prime field, nothing needs a primality test
    defined = {node.name for node in ast.walk(ast.parse((SRC / "modlinalg.py").read_text(encoding="utf-8")))
               if isinstance(node, ast.FunctionDef)}
    assert "is_prime" not in defined
