"""Outputs pinned at sizes where the elimination order matters.

The golden files cover only small kernels.  These constants were recorded
before the rows and columns were fed last-first and before the redundancy
scan walked prefixes; any change to them is a change of output.
"""

import hashlib
import json
import random

import pytest

from rigidity_forge.constructions import lovasz_yemini_family, sharpness_example
from rigidity_forge.modlinalg import DEFAULT_PRIME, ModMatrix, left_kernel_basis, left_kernel_sample
from rigidity_forge.rigidity import RedundancyReport, is_t_redundantly_rigid, placements

from helpers import random_graph

P = DEFAULT_PRIME


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def test_left_kernel_basis_of_ly_2_16():
    g = lovasz_yemini_family(2, 16)[0]
    rows, _ = next(placements(g, 2, 1, 1, P))
    basis = left_kernel_basis(ModMatrix(rows, 2 * g.n, P))
    assert (g.n, g.edge_count, len(basis)) == (80, 200, 48)
    assert digest(basis) == "89226c7912c3c841bfe7bcf011c8c1ed247398ca9aec49c779b5c4ca1f641792"


def test_stress_of_a_48_vertex_graph():
    g = random_graph(random.Random(48), 48, 0.4)
    rows, _ = next(placements(g, 3, 1, 2, P))
    stress = left_kernel_sample(ModMatrix(rows, 3 * g.n, P), 5)
    assert g.edge_count == 432 and all(stress)
    assert digest(stress) == "03d2af4ea860eead2382d4e463ce20f0b235e8d7ae3ab14ce6af1c1e68ab0598"


MATCHING = ((0, 6), (1, 7), (2, 8), (3, 9))


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize(
    "t, trials, report",
    [
        (5, 1, RedundancyReport(False, "whp", MATCHING, 28972)),
        (4, 2, RedundancyReport(True, "certain", None, 7140)),
    ],
    ids=["t5-trials1", "t4-trials2"],
)
def test_sharpness_redundancy_reports(t, trials, report, seed):
    assert is_t_redundantly_rigid(sharpness_example(2), 2, t, trials=trials, seed=seed) == report
