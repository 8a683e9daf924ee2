"""Combinatorial rigidity in arbitrary dimension: matroid ranks, rigidity
and global-rigidity verdicts, graph constructions and counting bounds.

Each exported name imports its module on first access (PEP 562), so that
importing one submodule, such as the CLI, does not import the others."""

import importlib

_EXPORTS = {
    "combinatorics": ("CliqueSystem", "check_lemma7_hypotheses", "covered_subset_count",
                      "exact_expected_gpi_edges", "grn_lower_bound", "m_dk", "verify_comblemma"),
    "constructions": ("GpiResult", "GpiStep", "build_gpi", "harary_graph", "lovasz_yemini_family",
                      "sharpness_example", "sharpness_matching"),
    "experiments": ("lemma6_property_check", "theorem10_check", "theorem1_spot_check",
                    "theorem2_spot_check", "theorem9_check"),
    "global_rigidity": ("StressCertificate", "is_globally_rigid", "stress_matrix",
                        "stress_matrix_rank", "wgl_sufficient"),
    "graph_core": ("Graph", "GraphParseError", "as_vertex_set", "complete_bipartite_graph",
                   "complete_graph", "cycle_graph", "induced_subgraph", "iter_maximal_cliques",
                   "maximal_cliques", "parse_graph", "path_avoiding", "vertex_connectivity"),
    "modlinalg": ("DEFAULT_PRIME", "ModMatrix", "RowBasis", "left_kernel_basis",
                  "left_kernel_sample", "make_rng", "rank"),
    "rigidity": ("Cover", "RankReport", "Verdict", "cover_rank_bound", "generic_rank",
                 "generic_rank_cap", "is_independent", "is_linked", "is_rigid",
                 "is_t_redundantly_rigid", "linked_pairs"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    # resolved on every access and never stored here, so a rebound module
    # attribute (a tracer, a test double) is the one returned
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
