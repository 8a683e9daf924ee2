"""Acceptance suite: one test per release criterion, each asserting its
stated tolerances and printing a single pass/fail line (run with -s to see
them live).

Three criteria pin CLI outputs in ``golden/criterion_12.json``,
``golden/scans.json`` and ``golden/counting.json``.  A change of output
regenerates all three with ``PYTHONPATH=src python tests/test_acceptance.py``
(run from the repository root, or with ``tests`` on the path), which prints
the file and argv of each record it changed, and a count per file.
"""

import io
import json
import math
import random
import re
import tempfile
import time
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction
from math import comb
from pathlib import Path

from rigidity_forge import rigidity
from rigidity_forge.cli import main as cli_main
from rigidity_forge.combinatorics import (
    exact_expected_gpi_edges,
    m_dk,
    verify_comblemma,
)
from rigidity_forge.constructions import (
    build_gpi,
    lovasz_yemini_family,
    sharpness_example,
    sharpness_matching,
)
from rigidity_forge.experiments import theorem9_check, theorem10_check
from rigidity_forge.global_rigidity import is_globally_rigid, stress_matrix_rank
from rigidity_forge.graph_core import (
    Graph,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    vertex_connectivity,
)
from rigidity_forge.rigidity import (
    generic_rank,
    generic_rank_cap,
    is_independent,
    is_rigid,
    is_t_redundantly_rigid,
)

from helpers import (
    brute_force_expected_gpi,
    monte_carlo_gpi,
    one_extension,
    random_clique_system,
    random_graph,
    zero_extension,
)


@contextmanager
def criterion(name: str, budget_s: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if budget_s is not None and elapsed >= budget_s:
        print(f"ACCEPTANCE {name}: FAIL (runtime {elapsed:.2f}s >= {budget_s:g}s)")
        raise AssertionError(f"{name}: runtime budget exceeded")
    budget = f" < {budget_s:g}s" if budget_s is not None else ""
    print(f"ACCEPTANCE {name}: PASS [{elapsed:.2f}s{budget}]")


def test_criterion_01_rank_values():
    with criterion("1 (rank characterization values)", budget_s=1.0):
        assert generic_rank(complete_graph(6), 2).rank == 9
        assert generic_rank(complete_graph(5), 3).rank == 9
        assert generic_rank(cycle_graph(4), 2).rank == 4


def test_criterion_02_split_clique_family():
    with criterion("2 (split-clique family, s=8)", budget_s=10.0):
        g = lovasz_yemini_family(2, 8)
        assert g.n == 40
        assert vertex_connectivity(g) == 5
        assert rigidity._cover_first(g, 2)[1] == 76
        assert Fraction(76) == Fraction(19, 10) * 40
        assert generic_rank(g, 2).rank == 76
        assert not is_rigid(g, 2).value


def test_criterion_03_boundary_case():
    with criterion("3 (boundary s=6 certifies nothing)"):
        g = lovasz_yemini_family(2, 6)
        bound = rigidity._cover_first(g, 2)[1]
        assert bound == 57 == 2 * 30 - 3
        assert m_dk(2, 5) * g.n == Fraction(57)  # exact rational equality
        assert bound == generic_rank_cap(g.n, 2)  # not strictly below the cap


def test_criterion_04_ordered_subgraphs_of_complete_graphs():
    with criterion("4 (ordered subgraphs of K_n)", budget_s=30.0):
        rng = random.Random(0)
        for d in (2, 3, 4):
            for n in range(d + 1, 13):
                g = complete_graph(n)
                expected = d * n - comb(d + 1, 2)
                for _ in range(20):
                    order = list(range(n))
                    rng.shuffle(order)
                    res = build_gpi(g, d, order)
                    assert res.edge_count == expected
                    assert is_independent(
                        res.subgraph, d, seed=rng.getrandbits(64)
                    ).value


def test_criterion_05_extension_growth_preserves_independence():
    with criterion("5 (extension growth, 200 runs)", budget_s=60.0):
        rng = random.Random(1)
        for _ in range(200):
            d = rng.choice((2, 3))
            g = complete_graph(d + 1)
            for _ in range(5):
                assert is_independent(g, d, seed=rng.getrandbits(64)).value
                if rng.random() < 0.5:
                    g = zero_extension(g, d, rng.sample(range(g.n), d))
                else:
                    a, b = rng.choice(g.sorted_edges())
                    pool = [w for w in range(g.n) if w not in (a, b)]
                    g = one_extension(g, d, (a, b), rng.sample(pool, d - 1))
            assert is_independent(g, d, seed=rng.getrandbits(64)).value


def test_criterion_06_expected_subgraph_size():
    with criterion("6 (expected ordered-subgraph size)", budget_s=60.0):
        k77 = complete_bipartite_graph(7, 7)
        exact = exact_expected_gpi_edges(k77, 2)
        assert exact == Fraction(63, 2) and exact >= 2 * 14

        small_suite = [
            (cycle_graph(4), 2),
            (cycle_graph(5), 2),
            (cycle_graph(6), 2),
            (complete_graph(4), 2),
            (complete_graph(5), 2),
            (complete_graph(6), 2),
            (complete_graph(7), 2),
            (complete_graph(4).remove_edges([(0, 1)]), 2),
            (complete_bipartite_graph(3, 3), 2),
            (complete_bipartite_graph(2, 3), 2),
            (Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (1, 4), (2, 4), (3, 4)]), 2),
            (Graph(5, [(0, 1), (2, 3), (3, 4), (2, 4)]), 2),
            (complete_graph(6).remove_edges([(0, 1)]), 3),
            (cycle_graph(6), 3),
        ]
        for g, d in small_suite:
            assert exact_expected_gpi_edges(g, d) == brute_force_expected_gpi(g, d)

        stats = monte_carlo_gpi(k77, 2, trials=10**4, seed=0)
        assert abs(stats.mean - float(exact)) <= stats.half_width_99

        assert exact_expected_gpi_edges(complete_graph(10), 2) == 17


def test_criterion_07_clique_system_fuzz():
    with criterion("7 (counting-bound fuzz, 10^4 systems)", budget_s=60.0):
        rng = random.Random(42)
        systems = 0
        while systems < 10**4:
            d = rng.choice((2, 3, 4))
            n = rng.randint(d + 2, 12)
            system = random_clique_system(rng, n, d)
            systems += 1
            for m in range(d + 1, n):
                report = verify_comblemma(system, m)
                assert report.status == "checked" and report.holds


def test_criterion_08_sharp_redundancy_profile():
    with criterion("8 (sharp redundancy profile, d=2)", budget_s=300.0):
        g = sharpness_example(2)
        assert vertex_connectivity(g) == 6

        rep = is_t_redundantly_rigid(g, 2, 4)
        assert rep.value and rep.subsets_checked == 7140

        matching = sharpness_matching(2)
        assert not is_rigid(g.remove_edges(matching[:4]), 2).value

        full = theorem9_check(2)
        assert full.redundantly_rigid
        assert full.over_deletion_nonrigid
        assert full.redundantly_globally_rigid, full.gr_witness
        assert full.boundary_rigid
        assert full.boundary_not_globally_rigid
        assert full.passed


def test_criterion_09_connectivity_implies_rigidity_spot_checks():
    with criterion("9 (connectivity spot checks)", budget_s=120.0):
        k66 = complete_bipartite_graph(6, 6)
        assert vertex_connectivity(k66) == 6
        assert is_rigid(k66, 2).value
        assert is_globally_rigid(k66, 2).value
        assert is_globally_rigid(sharpness_example(2), 2).value

        rng = random.Random(7)
        found = 0
        while found < 20:
            n = rng.randint(12, 30)
            g = random_graph(rng, n, 0.55)
            if vertex_connectivity(g) < 6:
                continue
            found += 1
            seed = rng.getrandbits(64)
            assert is_rigid(g, 2, seed=seed).value
            assert is_globally_rigid(g, 2, seed=seed).value


def test_criterion_10_rank_density_equality_family():
    with criterion("10 (sharp rank density)"):
        density = m_dk(2, 5)
        for s in (8, 10, 12):
            g = lovasz_yemini_family(2, s)
            assert vertex_connectivity(g) == 5
            rank = generic_rank(g, 2).rank
            assert rank == math.ceil(density * g.n)
            report = theorem10_check(g, 2)
            assert report.status == "checked" and report.passed
        assert Fraction(generic_rank(cycle_graph(4), 2).rank) >= m_dk(2, 2) * 4


def test_criterion_11_global_rigidity_certificate_sanity():
    with criterion("11 (certificate sanity)", budget_s=5.0):
        for d in (2, 3):
            assert is_globally_rigid(complete_graph(d + 2), d).value
        assert not is_globally_rigid(complete_graph(4).remove_edges([(0, 1)]), 2).value
        assert not is_globally_rigid(cycle_graph(4), 2).value
        cert = stress_matrix_rank(complete_graph(4), 2)
        assert cert.omega_rank == 1 == cert.target == 4 - 2 - 1


GOLDEN_OUTPUTS = Path(__file__).parent / "golden" / "criterion_12.json"


def criterion_12_invocations(tmp_path):
    """The criterion-12 command lines, their input files written to tmp_path."""
    k4 = tmp_path / "k4.txt"
    k4.write_text(complete_graph(4).to_edge_list())
    c4 = tmp_path / "c4.txt"
    c4.write_text(cycle_graph(4).to_edge_list())
    k66 = tmp_path / "k66.txt"
    k66.write_text(complete_bipartite_graph(6, 6).to_edge_list())
    system = tmp_path / "sys.json"
    system.write_text(json.dumps({"n": 6, "d": 2, "sets": [[0, 1, 2]]}))
    k4, c4, k66, system = str(k4), str(c4), str(k66), str(system)
    return [
        ("rank", "--input", k4, "--seed", "11"),
        ("rigid", "--input", k4, "--seed", "11"),
        ("globally-rigid", "--input", k66, "--seed", "11"),
        ("linked", "--u", "0", "--v", "2", "--input", c4, "--seed", "11"),
        ("redundant", "--t", "2", "--input", k4, "--seed", "11"),
        ("connectivity", "--input", k66),
        ("gpi", "--input", k4, "--seed", "11"),
        ("expected-gpi", "--input", k4),
        ("gen-ly", "--dim", "2", "--s", "8"),
        ("gen-sharpness", "--dim", "2"),
        ("gen-harary", "--k", "5", "--s", "8"),
        ("comblemma", "--m", "3", "--input", system),
        ("mdk", "--k", "5"),
        ("grn-bound", "--input", k66),
        ("check-theorem1", "--input", k66, "--seed", "11"),
        ("check-theorem2", "--input", k66, "--seed", "11"),
        ("check-theorem9", "--dim", "2", "--seed", "11"),
        ("check-theorem10", "--input", c4, "--seed", "11"),
        ("check-lemma6", "--input", c4, "--seed", "11"),
        ("check-lemma7-hyp", "--input", k66),
        ("wgl", "--u", "0", "--v", "2", "--v0", "0,1,2,3", "--input", c4, "--seed", "11"),
    ]


def scrub_runtime(out: str) -> str:
    return re.sub(r'"runtime_ms": \d+', "", out)


def test_criterion_12_byte_identical_reruns(capsys, tmp_path):
    with criterion("12 (deterministic reports)"):
        for argv in criterion_12_invocations(tmp_path):
            code_a = cli_main(list(argv))
            out_a = capsys.readouterr().out
            code_b = cli_main(list(argv))
            out_b = capsys.readouterr().out
            assert code_a == code_b
            assert scrub_runtime(out_a) == scrub_runtime(out_b), argv


def cli_runs(tmp_path, invocations) -> list[dict]:
    """Exit code and runtime-free stdout of each command line."""
    runs = []
    for argv in invocations:
        with redirect_stdout(io.StringIO()) as out:
            code = cli_main(list(argv))
        label = " ".join(a.replace(str(tmp_path) + "/", "") for a in argv)
        runs.append({"argv": label, "code": code, "stdout": scrub_runtime(out.getvalue())})
    return runs


def golden_outputs(tmp_path) -> dict:
    """Exit code and runtime-free stdout of every criterion-12 command line,
    plus the stress vectors of a few certificates, which no command prints."""
    runs = cli_runs(tmp_path, criterion_12_invocations(tmp_path))
    stresses = {
        "complete_graph(5), d=2": stress_matrix_rank(complete_graph(5), 2),
        "sharpness_example(2), d=2": stress_matrix_rank(sharpness_example(2), 2),
        "complete_graph(6), d=3, seed=5": stress_matrix_rank(complete_graph(6), 3, seed=5),
    }
    return {"cli": runs, "stress": {k: list(c.stress) for k, c in stresses.items()}}


def test_criterion_12_outputs_match_golden_file(tmp_path):
    # the stress vectors reach no CLI output, so only this pin catches a
    # changed kernel basis or placement draw order
    expected = json.loads(GOLDEN_OUTPUTS.read_text())
    actual = golden_outputs(tmp_path)
    for want, got in zip(expected["cli"], actual["cli"]):
        assert got == want
    assert len(actual["cli"]) == len(expected["cli"])
    assert actual["stress"] == expected["stress"]


SCAN_GOLDEN_OUTPUTS = Path(__file__).parent / "golden" / "scans.json"


def scan_invocations(tmp_path):
    """Command lines that scan many pairs or edge deletions of one graph, at
    seeds 1 and 2, their input files written to tmp_path."""
    inputs = {
        "c20.txt": cycle_graph(20),
        "c40.txt": cycle_graph(40),
        "k12-e.txt": complete_graph(12).remove_edges([(2, 9)]),
        "sharpness.txt": sharpness_example(2),
    }
    for name, g in inputs.items():
        (tmp_path / name).write_text(g.to_edge_list())
    c20, c40, k12e, sharp = (str(tmp_path / name) for name in inputs)
    out = []
    for seed in ("1", "2"):
        out += [
            ("check-lemma6", "--input", c20, "--seed", seed),
            ("check-lemma6", "--input", c40, "--seed", seed),
            ("check-theorem9", "--dim", "2", "--seed", seed),
            ("linked", "--u", "0", "--v", "20", "--input", c40, "--seed", seed),
            ("linked", "--u", "3", "--v", "17", "--input", c40, "--seed", seed),
            ("linked", "--u", "2", "--v", "9", "--input", k12e, "--seed", seed),
            ("redundant", "--t", "3", "--input", sharp, "--seed", seed),
            ("redundant", "--t", "4", "--input", sharp, "--seed", seed),
        ]
    return out


def test_scan_outputs_match_golden_file(tmp_path):
    # written by the per-pair and per-deletion code that the shared-placement
    # scans replaced
    expected = json.loads(SCAN_GOLDEN_OUTPUTS.read_text())
    actual = cli_runs(tmp_path, scan_invocations(tmp_path))
    for want, got in zip(expected, actual):
        assert got == want
    assert len(actual) == len(expected)


COUNTING_GOLDEN_OUTPUTS = Path(__file__).parent / "golden" / "counting.json"


def counting_invocations(tmp_path):
    """Command lines of the counting layer, their input files written to
    tmp_path: `comblemma` on seeded admissible systems (d = 4 at m = n//2,
    d = 5 and 6 at every m in [d+1, 2d-4]) and on one system that breaks the
    hypotheses; `expected-gpi` and `check-lemma7-hyp` on K14..K17, K_{7,7}
    and two seeded random graphs on 21 vertices, whose degrees are therefore
    within the `expected-gpi` cap of 20."""
    rng = random.Random(909)
    cases = [(n, 4, n // 2) for n in (18, 19, 20, 21)]
    cases += [(n, d, m) for d, n in ((5, 16), (6, 18)) for m in range(d + 1, 2 * d - 3)]
    out = []
    for i, (n, d, m) in enumerate(cases):
        system = random_clique_system(rng, n, d, max_sets=6)
        path = tmp_path / f"system{i}.json"
        path.write_text(json.dumps({"n": n, "d": d, "sets": [sorted(h) for h in system.sets]}))
        out.append(("comblemma", "--m", str(m), "--input", str(path)))
    overlapping = tmp_path / "overlapping.json"  # |H_0 ∩ H_1| = 3 > d-2
    overlapping.write_text(json.dumps({"n": 12, "d": 4, "sets": [[0, 1, 2, 3, 4, 5], [2, 3, 4, 6, 7, 8]]}))
    out.append(("comblemma", "--m", "6", "--input", str(overlapping)))
    graphs = {f"k{n}.txt": complete_graph(n) for n in (14, 15, 16, 17)}
    graphs["k77.txt"] = complete_bipartite_graph(7, 7)
    graphs["random-sparse.txt"] = random_graph(rng, 21, 0.5)
    graphs["random-dense.txt"] = random_graph(rng, 21, 0.85)
    for name, g in graphs.items():
        path = str(tmp_path / name)
        (tmp_path / name).write_text(g.to_edge_list())
        out.append(("expected-gpi", "--input", path))
        out.append(("check-lemma7-hyp", "--input", path))
    out.append(("expected-gpi", "--dim", "3", "--input", str(tmp_path / "random-dense.txt")))
    return out


def test_counting_outputs_match_golden_file(tmp_path):
    # written by the code that enumerated covered subsets and neighbourhood
    # cliques, before the closed form and the clique polynomial replaced it
    expected = json.loads(COUNTING_GOLDEN_OUTPUTS.read_text())
    actual = cli_runs(tmp_path, counting_invocations(tmp_path))
    for want, got in zip(expected, actual):
        assert got == want
    assert len(actual) == len(expected)


#: each acceptance golden file, and the outputs it pins from input files written to a directory
GOLDEN_FILES = {
    GOLDEN_OUTPUTS: golden_outputs,
    SCAN_GOLDEN_OUTPUTS: lambda tmp_path: cli_runs(tmp_path, scan_invocations(tmp_path)),
    COUNTING_GOLDEN_OUTPUTS: lambda tmp_path: cli_runs(tmp_path, counting_invocations(tmp_path)),
}


def keyed_records(outputs) -> dict[str, object]:
    """A golden file's records by name: each CLI run by its argv, and each
    stress vector of criterion 12 by its certificate."""
    runs, stresses = (outputs["cli"], outputs["stress"]) if isinstance(outputs, dict) else (outputs, {})
    return {run["argv"]: run for run in runs} | {f"stress {k}": v for k, v in stresses.items()}


def regenerate(golden: Path, outputs) -> list[str]:
    """Rewrite a golden file with `outputs`; return the name of each record
    that differs from, or is missing in, the file as it was."""
    old = keyed_records(json.loads(golden.read_text())) if golden.exists() else {}
    golden.write_text(json.dumps(outputs, indent=1) + "\n")
    return [name for name, record in keyed_records(outputs).items() if old.get(name) != record]


def test_regenerate_reports_only_the_records_that_changed(tmp_path):
    golden, inputs = tmp_path / "golden.json", tmp_path / "inputs"
    inputs.mkdir()
    outputs = {"cli": cli_runs(inputs, criterion_12_invocations(inputs)[:3]), "stress": {"a": [1, 2]}}
    assert regenerate(golden, outputs) == [run["argv"] for run in outputs["cli"]] + ["stress a"]  # all new
    assert regenerate(golden, outputs) == []
    assert json.loads(golden.read_text()) == outputs
    outputs["cli"][1]["code"], outputs["stress"]["a"] = 1, [2, 1]
    assert regenerate(golden, outputs) == [outputs["cli"][1]["argv"], "stress a"]
    assert regenerate(golden, outputs["cli"]) == []  # a list of runs is keyed by argv alike


if __name__ == "__main__":
    for path, pinned in GOLDEN_FILES.items():
        with tempfile.TemporaryDirectory() as tmp:
            outputs = pinned(Path(tmp))
        changed = regenerate(path, outputs)
        for name in changed:
            print(path.name, name)
        print(f"{path.name}: {len(changed)} of {len(keyed_records(outputs))} records changed")
