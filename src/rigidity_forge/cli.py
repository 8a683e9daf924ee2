"""Command-line front end with canonical JSON output.

A generator (gen-*) prints its graph as edge-list text, so it can be piped
back in; every other command prints one JSON object.  Reruns with the same
seed are byte-identical except for the runtime_ms field.  Exit codes: 0 for
success, 1 for a failed check-* assertion, 2 for usage or input errors.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from collections.abc import Callable, Mapping
from types import MappingProxyType, SimpleNamespace
from typing import NamedTuple

# hashlib's own fallbacks: the digest is the same, but hashlib would first
# load OpenSSL's _hashlib, the largest import of a call
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256

import rigidity_forge as rf

from .graph_core import Graph, parse_graph
from .modlinalg import DEFAULT_PRIME, MASK64, TRIALS, make_rng

SCHEMA = "rigidity-forge/1"


def _check_settings(args: SimpleNamespace) -> None:
    """Refuse a dimension or seed, where the command takes one, that no command can run with."""
    if getattr(args, "dim", 1) < 1:
        raise ValueError("dimension must be at least 1")
    if not (0 <= getattr(args, "seed", 0) <= MASK64):
        raise ValueError("seed must be a 64-bit unsigned integer")


def _jsonable(obj):
    """Recursively convert results to JSON-friendly values."""
    if hasattr(obj, "_fields"):  # a result NamedTuple: an object, not an array
        return {f: _jsonable(v) for f, v in zip(obj._fields, obj)}
    # a Fraction, recognised by duck type so that the CLI need not import `fractions`
    if hasattr(obj, "denominator") and not isinstance(obj, int):
        return f"{obj.numerator}/{obj.denominator}" if obj.denominator != 1 else str(obj.numerator)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    return obj


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read input: {exc}") from None


def _csv_ints(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from None


def _gpi(g: Graph, args: SimpleNamespace) -> dict:
    if args.ordering is not None:
        order = _csv_ints(args.ordering)
    else:
        order = list(range(g.n))
        make_rng(args.seed).shuffle(order)
    res = rf.build_gpi(g, args.dim, order)
    return {
        "ordering": order,
        "edge_count": res.edge_count,
        "edges": res.subgraph.sorted_edges(),
        "trace": res.steps,
    }


def _clique_system(text: str, args: SimpleNamespace):
    try:
        payload = json.loads(text)
        n, d, sets = payload["n"], payload["d"], [list(h) for h in payload["sets"]]
        # type(x) is int: JSON integers only, so no float, bool or string is truncated
        if not all(type(x) is int for x in (n, d, *(x for h in sets for x in h))):
            raise TypeError("n, d and set members must be integers")
        args.dim = d  # the system's dimension joins the namespace, printed as a flag's is
        return rf.CliqueSystem(n, d, sets)
    except (KeyError, TypeError, json.JSONDecodeError) as exc:
        raise ValueError(f"bad clique-system JSON: {exc}") from None


class Command(NamedTuple):
    """Everything the driver needs to know about one command."""

    help: str
    #: run(input, args): the input is a parsed Graph, the raw text or None,
    #: as `reads` says.  A generator's runner returns a Graph, printed as its
    #: edge list; any other runner's report is printed as the JSON result.
    #: Runners look library names up on the package (`rf`) at call time, which
    #: imports a name's module on first access, so a process loads only its
    #: command's modules and a patched module attribute (a tracer, a test
    #: double) is the one called.
    run: Callable
    reads: str | None = "graph"  # "graph", "text" or None
    flags: Mapping[str, dict] = MappingProxyType({})  # flag -> add_argument kwargs
    pick: str | None = None  # the report field printed as the result (None: all but its tag)
    check: str | None = None  # report field added to the result; False exits 1

    @property
    def all_flags(self) -> dict[str, dict]:
        """flag -> add_argument kwargs of every flag the command takes, in help order."""
        return self.flags | (_INPUT if self.reads else {})


_DIM = {"--dim": {"type": int, "default": 2, "help": "dimension d (default 2)"}}
_DRAWS = _DIM | {"--seed": {"type": int, "default": 0, "help": "64-bit seed (default 0)"}}
_INPUT = {"--input": {"default": "-", "help": "graph file or - for stdin"}}
_INT = {"type": int, "required": True}
_PAIR = {"--u": _INT, "--v": _INT}

COMMANDS = {
    "rank": Command("generic rigidity matroid rank",
        lambda g, a: rf.generic_rank(g, a.dim, seed=a.seed), flags=_DRAWS, pick="rank"),
    "rigid": Command("generic rigidity verdict",
        lambda g, a: rf.is_rigid(g, a.dim, a.seed), flags=_DRAWS, pick="value"),
    "globally-rigid": Command("generic global rigidity verdict",
        lambda g, a: rf.is_globally_rigid(g, a.dim, a.seed),
        flags=_DRAWS, pick="value"),
    "linked": Command("is the pair {u,v} linked",
        lambda g, a: rf.is_linked(g, a.dim, a.u, a.v, a.seed),
        flags=_DRAWS | _PAIR, pick="value"),
    "redundant": Command("t-redundant rigidity verdict",
        lambda g, a: rf.is_t_redundantly_rigid(g, a.dim, a.t, a.seed),
        flags=_DRAWS | {"--t": _INT}),
    "connectivity": Command("exact vertex connectivity", lambda g, a: rf.vertex_connectivity(g)),
    "gpi": Command("build the ordered subgraph", _gpi, flags=_DRAWS | {"--ordering": {
        "default": None, "help": "comma-separated permutation; default seeded shuffle"}}),
    "expected-gpi": Command("exact expected ordered-subgraph size",
        lambda g, a: rf.exact_expected_gpi_edges(g, a.dim), flags=_DIM),
    "gen-ly": Command("generate the split-clique non-rigid family",
        lambda _, a: rf.lovasz_yemini_family(a.dim, a.s),
        reads=None, flags=_DIM | {"--s": _INT | {"help": "base graph size"}}),
    "gen-sharpness": Command("generate the matched-cliques redundancy example",
        lambda _, a: rf.sharpness_example(a.dim), reads=None, flags=_DIM),
    "gen-harary": Command("generate the k-connected k-regular circulant",
        lambda _, a: rf.harary_graph(a.k, a.s),
        reads=None, flags={"--k": _INT, "--s": _INT}),
    "comblemma": Command("verify the covered-subset bound on a clique system (JSON input)",
        lambda text, a: rf.verify_comblemma(_clique_system(text, a), a.m),
        reads="text", flags={"--m": _INT}),
    "mdk": Command("sharp rank density m_{d,k}",
        lambda _, a: rf.m_dk(a.dim, a.k),
        reads=None, flags=_DIM | {"--k": _INT}),
    "grn-bound": Command("lower bound on the best nontrivial globally rigid dimension",
        lambda g, a: rf.grn_lower_bound(g.n, g.edge_count)),
    "check-theorem1": Command("assert: d(d+1)-connected implies rigid",
        lambda g, a: rf.theorem1_spot_check(g, a.dim, a.seed),
        flags=_DRAWS, check="passed"),
    "check-theorem2": Command("assert: d(d+1)-connected implies globally rigid",
        lambda g, a: rf.theorem2_spot_check(g, a.dim, a.seed),
        flags=_DRAWS, check="passed"),
    "check-theorem9": Command("assert the sharp redundancy constants",
        lambda _, a: rf.theorem9_check(a.dim, a.seed),
        reads=None, flags=_DRAWS, check="passed"),
    "check-theorem10": Command("assert the m_{d,k} rank lower bound",
        lambda g, a: rf.theorem10_check(g, a.dim, a.seed),
        flags=_DRAWS, check="passed"),
    "check-lemma6": Command("assert ordered subgraphs are independent when no non-edge is linked",
        lambda g, a: rf.lemma6_property_check(g, a.dim, a.seed),
        flags=_DRAWS, check="passed"),
    "check-lemma7-hyp": Command("check the expected-size lemma hypotheses",
        lambda g, a: rf.check_lemma7_hypotheses(g, a.dim), flags=_DIM, check="all_ok"),
    "wgl": Command("sufficient condition for weak global linkedness",
        lambda g, a: rf.wgl_sufficient(g, a.dim, a.u, a.v, _csv_ints(a.v0), a.seed),
        flags=_DRAWS | _PAIR | {"--v0": {
            "required": True, "help": "comma-separated vertex set containing u and v"}}, pick="value"),
}


def build_parser(names=COMMANDS):
    """The parser with a subparser for each named command (default: all)."""
    import argparse

    class Parser(argparse.ArgumentParser):
        """argparse that reports usage errors as JSON on stdout, exit code 2."""

        def error(self, message: str):  # noqa: D102 - argparse hook
            print(json.dumps({"schema": SCHEMA, "error": message}, sort_keys=True))
            raise SystemExit(2)

    parser = Parser(prog="rigidity-forge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in names:
        p = sub.add_parser(name, help=COMMANDS[name].help)
        for flag, spec in COMMANDS[name].all_flags.items():
            p.add_argument(flag, **spec)
    return parser


def parse_direct(argv: list[str]) -> SimpleNamespace | None:
    """The namespace argparse builds for `<command> --flag value ...`, without
    argparse; None for anything else (help, abbreviated or `--x=v` flags, a
    value other than `-` starting with `-`, a missing required flag, a bad
    value), which argparse then parses or reports."""
    if not argv or argv[0] not in COMMANDS:
        return None
    specs = COMMANDS[argv[0]].all_flags
    values = {"command": argv[0]} | {flag[2:]: spec.get("default") for flag, spec in specs.items()}
    tokens = iter(argv[1:])
    for flag in tokens:
        spec = specs.get(flag)
        if spec is None:
            return None
        value = next(tokens, None)
        # a lone "-" is a value to argparse too; other "-..." tokens follow its rules
        if value is None or (value.startswith("-") and value != "-"):
            return None
        if "type" in spec:
            try:
                value = spec["type"](value)
            except ValueError:
                return None
        values[flag[2:]] = value
    if any(spec.get("required") and values[flag[2:]] is None for flag, spec in specs.items()):
        return None
    return SimpleNamespace(**values)


def _load(cmd: Command, args: SimpleNamespace) -> tuple[Graph | str | None, str | None]:
    """The command's input and its digest (a graph's is of its canonical edge list)."""
    if cmd.reads is None:
        return None, None
    text = _read_input(args.input)
    if cmd.reads == "graph":
        g = parse_graph(text)
        return g, sha256(g.to_edge_list().encode()).hexdigest()[:16]
    return text, sha256(text.encode()).hexdigest()[:16]


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parse_direct(argv)
    if args is None:
        # a named command needs only its own subparser; --help, no arguments
        # and an unknown command get the full parser and its listing
        names = argv[:1] if argv and argv[0] in COMMANDS else COMMANDS
        args = SimpleNamespace(**vars(build_parser(names).parse_args(argv)))
    cmd = COMMANDS[args.command]
    try:
        _check_settings(args)
        started = time.perf_counter()
        source, digest = _load(cmd, args)
        report = cmd.run(source, args)
        if isinstance(report, Graph):  # a generator
            sys.stdout.write(report.to_edge_list())
            return 0
        result = _jsonable(report)
        # a randomized report carries its own tag; an exact command's answer is certain
        randomized = isinstance(result, dict) and "confidence" in result
        confidence = result.pop("confidence") if randomized else "certain"
        if cmd.pick:
            result = result[cmd.pick]
        code = 0
        if cmd.check:
            result[cmd.check] = getattr(report, cmd.check)
            code = 1 if result[cmd.check] is False else 0
        params = {key: value for key, value in vars(args).items() if key in ("dim", "seed")}
        payload = {
            "schema": SCHEMA,
            "command": args.command,
            "input_digest": digest,
            # the settings the command ran with: its own dim and seed, and the draws of a randomized one
            "params": params | ({"trials": TRIALS, "prime": DEFAULT_PRIME} if randomized else {}),
            "result": result,
            "confidence": confidence,
            "runtime_ms": int((time.perf_counter() - started) * 1000),
        }
        print(json.dumps(payload, sort_keys=True))
        return code
    # deep inputs overflow the recursion limit and infinite JSON numbers
    # overflow int(): both are input errors, not failed checks
    except (ValueError, OverflowError, RecursionError) as exc:
        print(json.dumps({"schema": SCHEMA, "command": args.command, "error": str(exc)}, sort_keys=True))
        return 2


def console_main() -> None:
    code = main()
    gc.freeze()  # shutdown's collections skip a frozen heap: the OS frees it whole
    raise SystemExit(code)


if __name__ == "__main__":
    console_main()
