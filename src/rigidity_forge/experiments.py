"""Theorem-level harness: spot checks of the connectivity-implies-rigidity
results.

The spot checks treat the underlying theorems as ground truth: a failure on
an applicable input means an implementation bug (or an astronomically
unlikely rank miss, cleared by rerunning with a fresh seed).  A report's tag
is the weakest of the verdicts it rests on; exact connectivity is certain.
"""

from __future__ import annotations

import itertools
from math import comb
from typing import TYPE_CHECKING, NamedTuple

from .combinatorics import m_dk
from .constructions import build_gpi, sharpness_example, sharpness_matching
from .global_rigidity import is_globally_rigid
from .graph_core import Edge, Graph, vertex_connectivity
from .modlinalg import make_rng
from .rigidity import (CERTAIN, WHP, Verdict, generic_rank_cap, is_independent, is_rigid,
                       is_t_redundantly_rigid, linked_pairs, settled)

if TYPE_CHECKING:
    from fractions import Fraction

#: The seeded orderings one lemma 6 check builds and tests.
ORDERINGS = 20


def _weakest(tags) -> str:
    """The tag of a report that rests on verdicts with these tags."""
    return WHP if WHP in tags else CERTAIN


class SpotCheckReport(NamedTuple):
    status: str  # "checked" or "inapplicable"
    connectivity: int
    threshold: int
    verdict: Verdict | None
    passed: bool | None
    confidence: str


def _connectivity_spot_check(verdict, g, d, seed) -> SpotCheckReport:
    kappa = vertex_connectivity(g)
    threshold = d * (d + 1)
    if kappa < threshold:
        return SpotCheckReport("inapplicable", kappa, threshold, None, None, CERTAIN)
    v = verdict(g, d, seed)
    return SpotCheckReport("checked", kappa, threshold, v, v.value, v.confidence)


def theorem1_spot_check(g: Graph, d: int, seed: int = 0) -> SpotCheckReport:
    """d(d+1)-connected graphs must be rigid; inapplicable below threshold."""
    return _connectivity_spot_check(is_rigid, g, d, seed)


def theorem2_spot_check(g: Graph, d: int, seed: int = 0) -> SpotCheckReport:
    """d(d+1)-connected graphs must be globally rigid."""
    return _connectivity_spot_check(is_globally_rigid, g, d, seed)


class Theorem9Report(NamedTuple):
    """Redundancy profile of the two-cliques-plus-matching example."""

    dim: int
    redundantly_rigid: bool
    over_deletion_nonrigid: bool
    redundantly_globally_rigid: bool
    gr_witness: tuple[Edge, ...] | None
    boundary_rigid: bool
    boundary_not_globally_rigid: bool
    confidence: str

    @property
    def passed(self) -> bool:
        return (self.redundantly_rigid and self.over_deletion_nonrigid and self.redundantly_globally_rigid
                and self.boundary_rigid and self.boundary_not_globally_rigid)


def theorem9_check(d: int = 2, seed: int = 0) -> Theorem9Report:
    """Exercise the sharp redundancy constants on the matched-cliques example.

    Deleting any C(d+1,2) edges must keep it rigid and any C(d+1,2)-1 edges
    must keep it globally rigid; one more matching edge breaks each property.
    Only the plane is checked: above it the subset enumerations cannot
    finish, so d > 2 is refused with their count.  Global rigidity is read
    off 3-connectivity and redundant rigidity, with no stress matrix:
    redundancy plus kappa >= 5 certifies every deletion, and only when
    either fails are the deletions scanned for a witness.
    """
    if d < 2:
        raise ValueError("requires dimension >= 2")
    if d > 2:  # the example has (d(d+1))^2 edges
        raise ValueError(f"d = {d} cannot finish: the redundancy test alone would check "
                         f"C({(d * (d + 1)) ** 2}, {comb(d + 1, 2)}) edge subsets")
    g = sharpness_example(d)
    matching = sharpness_matching(d)
    c = comb(d + 1, 2)

    verdicts = []  # every verdict the report rests on

    def seen(v: Verdict) -> Verdict:
        verdicts.append(v)
        return v

    red = seen(is_t_redundantly_rigid(g, d, c + 1, seed))
    over = seen(is_rigid(g.remove_edges(matching[: c + 1]), d, seed))
    deletions = itertools.combinations(g.sorted_edges(), c - 1)
    boundary = g.remove_edges(matching[:c])
    # Every G - S is globally rigid if each is redundantly rigid, which red
    # certifies, and 3-connected, which kappa(G) >= 5 certifies: an edge
    # deletion lowers kappa by at most 1; otherwise the scan decides
    every_gr = red.value and vertex_connectivity(g, c + 2) >= c + 2
    gr_witness = None
    if not every_gr:
        gr_witness = next((gone for gone in deletions if not seen(is_globally_rigid(
            g.remove_edges(gone), 2, seed)).value), None)
    # boundary less matching[c] is the graph `over` tests: if that is not
    # rigid, the boundary is not redundantly rigid, so not globally rigid
    boundary_gr = over.value and seen(is_globally_rigid(boundary, 2, seed)).value
    boundary_rigid = seen(is_rigid(boundary, d, seed)).value
    return Theorem9Report(d, red.value, not over.value, gr_witness is None, gr_witness, boundary_rigid,
                          not boundary_gr, _weakest(v.confidence for v in verdicts))


class Theorem10Report(NamedTuple):
    status: str  # "checked" or "inapplicable"
    connectivity: int
    rank: int | None
    bound: Fraction | None
    passed: bool | None
    confidence: str


def theorem10_check(g: Graph, d: int, seed: int = 0) -> Theorem10Report:
    """k-connected non-rigid graphs have rank at least m_{d,k} |V|.  The
    rigidity verdict is computed only for 1 <= k < d(d+1), where the bound
    applies."""
    if d < 1:
        raise ValueError("dimension must be at least 1")
    kappa = vertex_connectivity(g)
    # kappa is exact and a rigid verdict certain, so inapplicability is certain
    if not 1 <= kappa < d * (d + 1) or (rigid := is_rigid(g, d, seed)).value:
        return Theorem10Report("inapplicable", kappa, None, None, None, CERTAIN)
    bound = m_dk(d, kappa) * g.n
    # the rank is a certain lower bound: a pass rests on the rigidity verdict alone
    confidence = _weakest((rigid.confidence, settled(rigid.rank, generic_rank_cap(g.n, d), bound)))
    return Theorem10Report("checked", kappa, rigid.rank, bound, rigid.rank >= bound, confidence)


class Lemma6Report(NamedTuple):
    status: str  # "checked" or "inapplicable"
    linked_nonedge: Edge | None
    orderings_checked: int
    all_independent: bool | None
    confidence: str

    @property
    def passed(self) -> bool | None:
        return None if self.status == "inapplicable" else self.all_independent


def lemma6_property_check(g: Graph, d: int, seed: int = 0) -> Lemma6Report:
    """When no non-adjacent pair is linked, every ordered subgraph must be
    independent.  The hypothesis scan is exhaustive over non-edges, hence
    the n <= 40 bound.  A linked non-edge, the first in lexicographic order,
    makes the check inapplicable; otherwise seeded ordered subgraphs are
    tested for independence.  Requires d >= 2, as the ordered subgraph does."""
    if g.n > 40:
        raise ValueError("hypothesis verification is limited to n <= 40")
    if d < 2:
        raise ValueError("ordered construction requires dimension >= 2")
    rng = make_rng(seed)
    nonedges = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)]
    verdicts = linked_pairs(g, d, nonedges, rng.getrandbits(64))
    pair = next(((uv, v) for uv, v in zip(nonedges, verdicts) if v.value), None)
    if pair is not None:
        return Lemma6Report("inapplicable", pair[0], 0, None, pair[1].confidence)
    order = list(range(g.n))
    for built in range(1, ORDERINGS + 1):
        rng.shuffle(order)
        verdicts.append(is_independent(build_gpi(g, d, order).subgraph, d, rng.getrandbits(64)))
        if not verdicts[-1].value:
            break
    tag = _weakest(v.confidence for v in verdicts)
    return Lemma6Report("checked", None, built, verdicts[-1].value, tag)
