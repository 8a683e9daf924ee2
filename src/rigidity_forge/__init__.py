"""Combinatorial rigidity in arbitrary dimension: matroid ranks, rigidity
and global-rigidity verdicts, graph constructions and counting bounds."""

from .combinatorics import (
    CliqueSystem,
    covered_subset_count,
    exact_expected_gpi_edges,
    grn_lower_bound,
    m_dk,
    verify_comblemma,
)
from .constructions import (
    GpiResult,
    GpiStep,
    build_gpi,
    harary_graph,
    lovasz_yemini_family,
    one_extension,
    sharpness_example,
    sharpness_matching,
    zero_extension,
)
from .global_rigidity import (
    StressCertificate,
    globally_rigid_deletions,
    is_globally_rigid,
    stress_matrix,
    stress_matrix_rank,
    wgl_sufficient,
)
from .graph_core import (
    Graph,
    GraphParseError,
    as_vertex_set,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    induced_subgraph,
    is_connected,
    maximal_cliques,
    parse_graph,
    path_avoiding,
    vertex_connectivity,
)
from .modlinalg import (
    DEFAULT_PRIME,
    ModMatrix,
    RowBasis,
    left_kernel_basis,
    left_kernel_sample,
    make_rng,
    rank,
)
from .rigidity import (
    Cover,
    RankReport,
    Verdict,
    cover_rank_bound,
    generic_rank,
    generic_rank_cap,
    is_independent,
    is_linked,
    is_rigid,
    is_t_redundantly_rigid,
    linked_pairs,
)

__version__ = "0.1.0"
