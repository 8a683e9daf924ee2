"""Per-layer tracing from outside the program.

The layers are the modules of ``rigidity_forge``.  :class:`Tracer` replaces
every public module-level function with a wrapper that records a span
(name, start, end, parent) and rebinds every module's reference to that
function, so ``rigidity.rank_of_rows`` and ``modlinalg.rank_of_rows`` both
lead to one wrapper.  Per-element helpers (``has_edge``, ``neighbors``,
``neighbor_mask``, ``degree``, ``normalize_edge``) stay unwrapped to keep
the overhead low.  The format helpers ``parse_edge_list`` and
``parse_graph6`` stay unwrapped so that ``parse_graph``'s self time is the
whole parse.  The field set-up helpers ``is_prime`` and ``make_rng`` stay
unwrapped because every command calls them while validating its flags, and
wrapping them would credit ``modlinalg`` with calls on workloads that do no
linear algebra.

A counter whose function a later change deletes, or whose hook no longer
fits the function's arguments, is reported as absent instead of failing
the run.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import Counter, defaultdict
from math import comb

LAYERS = (
    "cli",
    "graph_core",
    "modlinalg",
    "rigidity",
    "global_rigidity",
    "constructions",
    "combinatorics",
    "experiments",
)
PACKAGE = "rigidity_forge"
UNWRAPPED = {"is_prime", "make_rng", "normalize_edge", "parse_edge_list", "parse_graph6"}
WRAPPED_METHODS = (("graph_core", "Graph", "sorted_edges"),)

Span = tuple[str, float, float, int]


# -- hooks: counts read from a traced call's arguments and result ------------


def _cells(matrix) -> int:
    return matrix.rows * matrix.cols


def _hook_rank_of_rows(t, outermost, a, result):
    if outermost:
        t.counts["modlinalg.elim_cells"] += len(a["rows"]) * a["cols"]
    if t.active["rigidity.generic_rank"]:
        t.counts["rigidity.generic_rank.eliminations"] += 1


def _hook_rank(t, outermost, a, result):
    if outermost:
        t.counts["modlinalg.elim_cells"] += _cells(a["m"])


def _hook_left_kernel_basis(t, outermost, a, result):
    if outermost:
        t.counts["modlinalg.elim_cells"] += _cells(a["m"])
    t.counts["modlinalg.kernel_dim_sum"] += len(result)


def _hook_left_kernel_sample(t, outermost, a, result):
    if outermost:
        t.counts["modlinalg.elim_cells"] += _cells(a["m"])
    if t.active["global_rigidity.stress_matrix_rank"]:
        t.counts["global_rigidity.stress_trials"] += 1


def _hook_generic_rank(t, outermost, a, result):
    t.counts["rigidity.trials_requested"] += a["trials"]


def _hook_redundancy(t, outermost, a, result):
    t.counts["rigidity.redundancy_subsets"] += result.subsets_checked


def _hook_stress_rank(t, outermost, a, result):
    t.counts["global_rigidity.stress_hits"] += result.omega_rank >= result.target


def _hook_covered_subsets(t, outermost, a, result):
    if a["method"] == "enumerate":
        t.counts["combinatorics.covered_subsets"] += comb(a["system"].n, a["m"])


HOOKS = {
    "modlinalg.rank_of_rows": _hook_rank_of_rows,
    "modlinalg.rank": _hook_rank,
    "modlinalg.left_kernel_basis": _hook_left_kernel_basis,
    "modlinalg.left_kernel_sample": _hook_left_kernel_sample,
    "rigidity.generic_rank": _hook_generic_rank,
    "rigidity.is_t_redundantly_rigid": _hook_redundancy,
    "global_rigidity.stress_matrix_rank": _hook_stress_rank,
    "combinatorics.covered_subset_count": _hook_covered_subsets,
}

#: Every counter a hook feeds, with the hooks it needs.
COUNTER_HOOKS = {
    "modlinalg.elim_cells": ("modlinalg.rank_of_rows", "modlinalg.rank",
                             "modlinalg.left_kernel_basis", "modlinalg.left_kernel_sample"),
    "modlinalg.kernel_dim_sum": ("modlinalg.left_kernel_basis",),
    "rigidity.generic_rank.eliminations": ("modlinalg.rank_of_rows", "rigidity.generic_rank"),
    "rigidity.trials_requested": ("rigidity.generic_rank",),
    "rigidity.redundancy_subsets": ("rigidity.is_t_redundantly_rigid",),
    "global_rigidity.stress_trials": ("modlinalg.left_kernel_sample",
                                      "global_rigidity.stress_matrix_rank"),
    "global_rigidity.stress_hits": ("global_rigidity.stress_matrix_rank",),
    "combinatorics.covered_subsets": ("combinatorics.covered_subset_count",),
}


class Tracer:
    """Installs span-recording wrappers into a package and removes them."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.counts: Counter = Counter()
        self.active: Counter = Counter()  # open spans, by function and by layer
        self.wrapped: set[str] = set()
        self.broken_hooks: set[str] = set()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        layer = name.split(".", 1)[0]
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None
        spans, stack, active, clock = self.spans, self._stack, self.active, time.perf_counter

        def traced(*args, **kwargs):
            outermost = not active[layer]
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            active[layer] += 1
            active[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[layer] -= 1
                active[name] -= 1
                spans[idx] = (name, start, end, parent)
            if hook is not None and name not in self.broken_hooks:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    hook(self, outermost, bound.arguments, result)
                except Exception:  # the program changed shape: report the counter absent
                    self.broken_hooks.add(name)
            return result

        self.wrapped.add(name)
        return traced

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        replacement = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and attr not in UNWRAPPED):
                    replacement[obj] = self.wrap(f"{layer}.{attr}", obj)
        for mod in [importlib.import_module(PACKAGE), *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replacement:
                    self._set(mod, attr, replacement[obj])
        for layer, cls_name, meth in WRAPPED_METHODS:
            cls = getattr(modules[layer], cls_name, None)
            fn = getattr(cls, meth, None) if cls is not None else None
            if inspect.isfunction(fn):
                self._set(cls, meth, self.wrap(f"{layer}.{cls_name}.{meth}", fn))

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def counter(self, name: str):
        """A hook-fed count, or None when a hook it needs is missing or broken."""
        needs = COUNTER_HOOKS[name]
        if any(h not in self.wrapped or h in self.broken_hooks for h in needs):
            return None
        return self.counts[name]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def _ratio(num, den):
    if num is None or den is None:
        return None
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float | int | None]:
    """Per-layer metrics of one traced pass; None marks an absent metric."""
    spans = tracer.spans
    calls: Counter = Counter()
    self_s: dict[str, float] = defaultdict(float)
    for (name, *_), own in zip(spans, self_times(spans)):
        layer = name.split(".", 1)[0]
        calls[name] += 1
        calls[layer] += 1
        self_s[name] += own
        self_s[layer] += own

    def fn(name, stat):
        if name not in tracer.wrapped:
            return None
        return calls[name] if stat == "calls" else self_s[name]

    out: dict[str, float | int | None] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.calls"] = calls[layer]
    for name in ("modlinalg.rank_of_rows", "modlinalg.left_kernel_basis"):
        out[f"{name}.calls"] = fn(name, "calls")
        out[f"{name}.self_s"] = fn(name, "self_s")
    out["modlinalg.elim_cells"] = tracer.counter("modlinalg.elim_cells")
    out["modlinalg.kernel_dim_sum"] = tracer.counter("modlinalg.kernel_dim_sum")
    out["rigidity.generic_rank.calls"] = fn("rigidity.generic_rank", "calls")
    out["rigidity.trial_use_ratio"] = _ratio(
        tracer.counter("rigidity.generic_rank.eliminations"),
        tracer.counter("rigidity.trials_requested"))
    out["rigidity.is_linked.calls"] = fn("rigidity.is_linked", "calls")
    out["rigidity.redundancy_subsets"] = tracer.counter("rigidity.redundancy_subsets")
    out["global_rigidity.stress_matrix_rank.calls"] = fn("global_rigidity.stress_matrix_rank", "calls")
    out["global_rigidity.stress_hit_ratio"] = _ratio(
        tracer.counter("global_rigidity.stress_hits"),
        tracer.counter("global_rigidity.stress_trials"))
    out["graph_core.vertex_connectivity.calls"] = fn("graph_core.vertex_connectivity", "calls")
    out["graph_core.vertex_connectivity.self_s"] = fn("graph_core.vertex_connectivity", "self_s")
    out["graph_core.Graph.sorted_edges.calls"] = fn("graph_core.Graph.sorted_edges", "calls")
    out["graph_core.parse_graph.self_s"] = fn("graph_core.parse_graph", "self_s")
    out["combinatorics.covered_subsets"] = tracer.counter("combinatorics.covered_subsets")
    out["combinatorics.exact_expected_gpi_edges.self_s"] = fn(
        "combinatorics.exact_expected_gpi_edges", "self_s")
    out["constructions.build_gpi.calls"] = fn("constructions.build_gpi", "calls")
    return out
