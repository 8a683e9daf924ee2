"""Command-line front end with canonical JSON output.

Every invocation prints one JSON object (generators default to raw
edge-list text so they can be piped back in).  Reruns with the same seed
are byte-identical except for the runtime_ms field.  Exit codes: 0 for
success, 1 for a failed check-* assertion, 2 for usage or input errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import time
from fractions import Fraction

from . import combinatorics, constructions, experiments, global_rigidity, rigidity
from .combinatorics import CliqueSystem
from .graph_core import Graph, GraphParseError, parse_graph, vertex_connectivity
from .modlinalg import DEFAULT_PRIME, MASK64, is_prime, make_rng

SCHEMA = "rigidity-forge/1"

ENV_PREFIX = "RIGIDITY_FORGE_"

GENERATOR_COMMANDS = ("gen-ly", "gen-sharpness", "gen-harary")


class CliError(ValueError):
    pass


@dataclasses.dataclass(frozen=True)
class CliConfig:
    dim: int
    prime: int
    seed: int
    trials: int
    input: str
    fmt: str

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise CliError("dimension must be at least 1")
        if self.trials < 1:
            raise CliError("trials must be at least 1")
        if self.prime <= (1 << 32):
            raise CliError("modulus must exceed 2^32 for negligible failure odds")
        if self.prime >= (1 << 64):
            raise CliError("modulus must be below 2^64, where the primality test is exact")
        if not is_prime(self.prime):
            raise CliError(f"modulus {self.prime} is not prime")
        if not (0 <= self.seed <= MASK64):
            raise CliError("seed must be a 64-bit unsigned integer")
        if self.fmt not in ("json", "text"):
            raise CliError(f"unknown format {self.fmt!r}")


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage errors as JSON on stdout, exit code 2."""

    def error(self, message: str):  # noqa: D102 - argparse hook
        print(json.dumps({"schema": SCHEMA, "error": message}, sort_keys=True))
        raise SystemExit(2)


def _env(name: str, fallback: str | None) -> str | None:
    return os.environ.get(ENV_PREFIX + name, fallback)


def _resolve_config(args: argparse.Namespace) -> CliConfig:
    def pick(flag, env_name, default, conv):
        if flag is not None:
            return conv(flag)
        env_val = _env(env_name, None)
        if env_val is not None:
            return conv(env_val)
        return default

    fmt_default = "text" if args.command in GENERATOR_COMMANDS else "json"
    try:
        return CliConfig(
            dim=pick(args.dim, "DIM", 2, int),
            prime=pick(args.prime, "PRIME", DEFAULT_PRIME, int),
            seed=pick(args.seed, "SEED", 0, int),
            trials=pick(args.trials, "TRIALS", 2, int),
            input=getattr(args, "input", "-") or "-",
            fmt=pick(args.fmt, "FORMAT", fmt_default, str),
        )
    except ValueError as exc:
        raise CliError(str(exc)) from None


def jsonable(obj):
    """Recursively convert results to JSON-friendly values."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}" if obj.denominator != 1 else str(obj.numerator)
    if isinstance(obj, Graph):
        return {"n": obj.n, "m": obj.edge_count, "edges": [list(e) for e in obj.sorted_edges()]}
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(x) for x in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(jsonable(x) for x in obj)
    return obj


def _read_input(cfg: CliConfig) -> str:
    if cfg.input == "-":
        return sys.stdin.read()
    try:
        with open(cfg.input, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read input: {exc}") from None


def _read_graph(cfg: CliConfig) -> tuple[Graph, str]:
    g = parse_graph(_read_input(cfg))
    digest = hashlib.sha256(g.to_edge_list().encode()).hexdigest()[:16]
    return g, digest


def _csv_ints(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise CliError(f"expected comma-separated integers, got {text!r}") from None


# -- command handlers ------------------------------------------------------
# each returns (result, confidence, input_digest, exit_code)


def _cmd_rank(args, cfg):
    g, digest = _read_graph(cfg)
    rep = rigidity.generic_rank(g, cfg.dim, cfg.trials, cfg.seed, cfg.prime)
    return rep.rank, rep.confidence, digest, 0


def _cmd_rigid(args, cfg):
    g, digest = _read_graph(cfg)
    v = rigidity.is_rigid(g, cfg.dim, cfg.trials, cfg.seed, cfg.prime)
    return v.value, v.confidence, digest, 0


def _cmd_globally_rigid(args, cfg):
    g, digest = _read_graph(cfg)
    v = global_rigidity.is_globally_rigid(g, cfg.dim, cfg.trials, cfg.seed, cfg.prime)
    return v.value, v.confidence, digest, 0


def _cmd_linked(args, cfg):
    g, digest = _read_graph(cfg)
    v = rigidity.is_linked(g, cfg.dim, args.u, args.v, cfg.trials, cfg.seed, cfg.prime)
    return v.value, v.confidence, digest, 0


def _cmd_redundant(args, cfg):
    g, digest = _read_graph(cfg)
    rep = rigidity.is_t_redundantly_rigid(g, cfg.dim, args.t, cfg.trials, cfg.seed, cfg.prime)
    result = {
        "value": rep.value,
        "witness": jsonable(rep.witness),
        "subsets_checked": rep.subsets_checked,
    }
    return result, rep.confidence, digest, 0


def _cmd_connectivity(args, cfg):
    g, digest = _read_graph(cfg)
    return vertex_connectivity(g), "certain", digest, 0


def _cmd_gpi(args, cfg):
    g, digest = _read_graph(cfg)
    if args.ordering:
        order = _csv_ints(args.ordering)
    else:
        order = list(range(g.n))
        make_rng(cfg.seed).shuffle(order)
    res = constructions.build_gpi(g, cfg.dim, order)
    result = {
        "ordering": order,
        "edge_count": res.edge_count,
        "edges": [list(e) for e in res.subgraph.sorted_edges()],
        "trace": jsonable(list(res.steps)),
    }
    return result, "certain", digest, 0


def _cmd_expected_gpi(args, cfg):
    g, digest = _read_graph(cfg)
    value = combinatorics.exact_expected_gpi_edges(g, cfg.dim, args.degree_cap)
    return jsonable(value), "certain", digest, 0


def _cmd_gen_ly(args, cfg):
    g, _cover = constructions.lovasz_yemini_family(cfg.dim, args.s)
    return {"n": g.n, "m": g.edge_count, "edge_list": g.to_edge_list()}, "certain", None, 0


def _cmd_gen_sharpness(args, cfg):
    g = constructions.sharpness_example(cfg.dim)
    return {"n": g.n, "m": g.edge_count, "edge_list": g.to_edge_list()}, "certain", None, 0


def _cmd_gen_harary(args, cfg):
    g = constructions.harary_graph(args.k, args.s)
    return {"n": g.n, "m": g.edge_count, "edge_list": g.to_edge_list()}, "certain", None, 0


def _cmd_comblemma(args, cfg):
    text = _read_input(cfg)
    digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    try:
        payload = json.loads(text)
        system = CliqueSystem(
            int(payload["n"]),
            int(payload.get("d", cfg.dim)),
            tuple(frozenset(int(x) for x in h) for h in payload["sets"]),
        )
    except (KeyError, TypeError, json.JSONDecodeError) as exc:
        raise CliError(f"bad clique-system JSON: {exc}") from None
    report = combinatorics.verify_comblemma(system, args.m)
    return jsonable(report), "certain", digest, 0


def _cmd_mdk(args, cfg):
    return jsonable(combinatorics.m_dk(cfg.dim, args.k)), "certain", None, 0


def _cmd_grn_bound(args, cfg):
    g, digest = _read_graph(cfg)
    return combinatorics.grn_lower_bound(g.n, g.edge_count), "certain", digest, 0


def _assert_exit(passed) -> int:
    return 1 if passed is False else 0


def _cmd_check_theorem1(args, cfg):
    g, digest = _read_graph(cfg)
    rep = experiments.theorem1_spot_check(g, cfg.dim, cfg.trials, cfg.seed, cfg.prime)
    return jsonable(rep), "whp", digest, _assert_exit(rep.passed)


def _cmd_check_theorem2(args, cfg):
    g, digest = _read_graph(cfg)
    rep = experiments.theorem2_spot_check(g, cfg.dim, cfg.trials, cfg.seed, cfg.prime)
    return jsonable(rep), "whp", digest, _assert_exit(rep.passed)


def _cmd_check_theorem9(args, cfg):
    rep = experiments.theorem9_check(cfg.dim, cfg.trials, cfg.seed, cfg.prime, args.allow_large)
    return jsonable(rep) | {"passed": rep.passed}, "whp", None, _assert_exit(rep.passed)


def _cmd_check_theorem10(args, cfg):
    g, digest = _read_graph(cfg)
    rep = experiments.theorem10_check(g, cfg.dim, cfg.trials, cfg.seed, cfg.prime)
    return jsonable(rep), "whp", digest, _assert_exit(rep.passed)


def _cmd_check_lemma6(args, cfg):
    g, digest = _read_graph(cfg)
    rep = experiments.lemma6_property_check(
        g, cfg.dim, args.orderings, cfg.trials, cfg.seed, cfg.prime
    )
    return jsonable(rep) | {"passed": rep.passed}, "whp", digest, _assert_exit(rep.passed)


def _cmd_check_lemma7_hyp(args, cfg):
    g, digest = _read_graph(cfg)
    rep = experiments.check_lemma7_hypotheses(g, cfg.dim)
    return jsonable(rep) | {"all_ok": rep.all_ok}, "certain", digest, _assert_exit(rep.all_ok)


def _cmd_wgl(args, cfg):
    g, digest = _read_graph(cfg)
    v = global_rigidity.wgl_sufficient(
        g, cfg.dim, args.u, args.v, _csv_ints(args.v0), cfg.trials, cfg.seed, cfg.prime
    )
    return v.value, v.confidence, digest, 0


HANDLERS = {
    "rank": _cmd_rank,
    "rigid": _cmd_rigid,
    "globally-rigid": _cmd_globally_rigid,
    "linked": _cmd_linked,
    "redundant": _cmd_redundant,
    "connectivity": _cmd_connectivity,
    "gpi": _cmd_gpi,
    "expected-gpi": _cmd_expected_gpi,
    "gen-ly": _cmd_gen_ly,
    "gen-sharpness": _cmd_gen_sharpness,
    "gen-harary": _cmd_gen_harary,
    "comblemma": _cmd_comblemma,
    "mdk": _cmd_mdk,
    "grn-bound": _cmd_grn_bound,
    "check-theorem1": _cmd_check_theorem1,
    "check-theorem2": _cmd_check_theorem2,
    "check-theorem9": _cmd_check_theorem9,
    "check-theorem10": _cmd_check_theorem10,
    "check-lemma6": _cmd_check_lemma6,
    "check-lemma7-hyp": _cmd_check_lemma7_hyp,
    "wgl": _cmd_wgl,
}


def build_parser() -> _Parser:
    parser = _Parser(prog="rigidity-forge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--dim", type=int, default=None, help="dimension d (default 2)")
        p.add_argument("--seed", type=int, default=None, help="64-bit seed (default 0)")
        p.add_argument("--trials", type=int, default=None, help="randomized trials (default 2)")
        p.add_argument("--prime", type=int, default=None, help="field modulus (default 2^61-1)")
        p.add_argument("--input", default="-", help="graph file or - for stdin")
        p.add_argument(
            "--format", dest="fmt", choices=("json", "text"), default=None,
            help="output format (generators default to text, the rest to json)",
        )
        return p

    add("rank", "generic rigidity matroid rank")
    add("rigid", "generic rigidity verdict")
    add("globally-rigid", "generic global rigidity verdict")
    p = add("linked", "is the pair {u,v} linked")
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--v", type=int, required=True)
    p = add("redundant", "t-redundant rigidity verdict")
    p.add_argument("--t", type=int, required=True)
    add("connectivity", "exact vertex connectivity")
    p = add("gpi", "build the ordered subgraph")
    p.add_argument("--ordering", default=None, help="comma-separated permutation; default seeded shuffle")
    p = add("expected-gpi", "exact expected ordered-subgraph size")
    p.add_argument("--degree-cap", type=int, default=20)
    p = add("gen-ly", "generate the split-clique non-rigid family")
    p.add_argument("--s", type=int, required=True, help="base graph size")
    add("gen-sharpness", "generate the matched-cliques redundancy example")
    p = add("gen-harary", "generate the k-connected k-regular circulant")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p = add("comblemma", "verify the covered-subset bound on a clique system (JSON input)")
    p.add_argument("--m", type=int, required=True)
    p = add("mdk", "sharp rank density m_{d,k}")
    p.add_argument("--k", type=int, required=True)
    add("grn-bound", "lower bound on the best nontrivial globally rigid dimension")
    add("check-theorem1", "assert: d(d+1)-connected implies rigid")
    add("check-theorem2", "assert: d(d+1)-connected implies globally rigid")
    p = add("check-theorem9", "assert the sharp redundancy constants")
    p.add_argument("--allow-large", action="store_true", help="permit d > 2 (slow)")
    add("check-theorem10", "assert the m_{d,k} rank lower bound")
    p = add("check-lemma6", "assert ordered subgraphs are independent when no non-edge is linked")
    p.add_argument("--orderings", type=int, default=20)
    add("check-lemma7-hyp", "check the expected-size lemma hypotheses")
    p = add("wgl", "sufficient condition for weak global linkedness")
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--v0", required=True, help="comma-separated vertex set containing u and v")
    return parser


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True))
        return
    result = payload.get("result")
    if isinstance(result, dict) and "edge_list" in result:
        sys.stdout.write(result["edge_list"])
        return
    for key in ("command", "result", "confidence", "seed"):
        if key in payload:
            value = payload[key]
            if isinstance(value, (dict, list)):
                value = json.dumps(value, sort_keys=True)
            print(f"{key}: {value}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
        started = time.perf_counter()
        result, confidence, digest, code = HANDLERS[args.command](args, cfg)
        runtime_ms = int((time.perf_counter() - started) * 1000)
        payload = {
            "schema": SCHEMA,
            "command": args.command,
            "input_digest": digest,
            "params": {
                "dim": cfg.dim,
                "trials": cfg.trials,
                "prime": cfg.prime,
            },
            "result": result,
            "confidence": confidence,
            "seed": cfg.seed,
            "runtime_ms": runtime_ms,
        }
        _emit(payload, cfg.fmt)
        return code
    except (CliError, GraphParseError, ValueError) as exc:
        print(json.dumps({"schema": SCHEMA, "command": args.command, "error": str(exc)}, sort_keys=True))
        return 2


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
