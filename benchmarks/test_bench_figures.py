"""Figures 2, 3, 5, 6 and 7: running-example artifacts.

Regenerates every running-example figure of the paper and pins the
worked numbers (Fig. 7's dist = 3.08).  DOT artifacts land in the
pytest session's results directory (see ``conftest.write_result``).
"""

import pytest

from conftest import write_result

from repro.constraints import ConstraintSet, MaxDistinctClassAttribute
from repro.core.checker import GroupChecker
from repro.core.dfg_candidates import dfg_candidates
from repro.core.distance import DistanceFunction
from repro.core.exclusive import merge_exclusive_candidates
from repro.core.gecco import Gecco, GeccoConfig
from repro.datasets.running_example import PAPER_OPTIMAL_GROUPS
from repro.eventlog.dfg import compute_dfg
from repro.eventlog.events import ROLE_KEY
from repro.experiments.figures import (
    bipartite_to_dot,
    dfg_to_dot,
    dot_with_alternatives,
)


@pytest.fixture(scope="module")
def role_constraints():
    return ConstraintSet([MaxDistinctClassAttribute(ROLE_KEY, 1)])


def test_fig2_low_level_dfg(running_log, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    dot = dfg_to_dot(compute_dfg(running_log), title="Fig2")
    write_result("fig2_running_example_dfg.dot", dot)
    assert '"rej" -> "rcp"' in dot  # the loop back


def test_fig3_abstracted_dfg(running_log, role_constraints, benchmark):
    result = benchmark.pedantic(
        Gecco(role_constraints, GeccoConfig()).abstract,
        args=(running_log,),
        rounds=2,
        iterations=1,
    )
    dot = dfg_to_dot(compute_dfg(result.abstracted_log), title="Fig3")
    write_result("fig3_abstracted_dfg.dot", dot)
    assert result.distance == pytest.approx(3.0833333, abs=1e-6)


def test_fig5_candidate_iterations(running_log, role_constraints, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    """Fig. 5's narrative, as candidate-set facts."""
    result = dfg_candidates(running_log, role_constraints)
    narrative = [
        "Fig. 5 (DFG-based candidate computation on the running example):",
        f"  candidates found: {len(result.groups)}",
        f"  iterations: {result.stats.iterations}",
        "  length-2 clerk paths found: [prio,inf], [prio,arv], [inf,arv]",
        "  violating path skipped: [acc,inf] (different roles)",
        "  distant pair never checked: {rcp, arv}",
    ]
    text = "\n".join(narrative)
    write_result("fig5_candidates.txt", text)
    print("\n" + text)
    assert frozenset({"prio", "inf", "arv"}) in result.groups
    assert frozenset({"rcp", "arv"}) not in result.groups
    assert frozenset({"acc", "inf"}) not in result.groups


def test_fig6_behavioral_alternatives(running_log, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    dfg = compute_dfg(running_log)
    singletons = [frozenset({cls}) for cls in running_log.classes]
    assert dfg.equal_pre_post(frozenset({"ckc"}), singletons) == [frozenset({"ckt"})]
    dot = dot_with_alternatives(
        dfg,
        alternatives=[frozenset({"ckc", "ckt"})],
        exclusives=[frozenset({"acc", "rej"})],
        title="Fig6",
    )
    write_result("fig6_alternatives.dot", dot)
    assert "color=blue" in dot and "color=red" in dot


def test_fig7_bipartite_optimum(running_log, role_constraints, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    checker = GroupChecker(running_log, role_constraints)
    distance = DistanceFunction(running_log, checker.instances)
    candidates = dfg_candidates(running_log, role_constraints, checker=checker).groups
    candidates, _ = merge_exclusive_candidates(running_log, candidates, checker)

    distances = {group: distance.group_distance(group) for group in candidates}
    dot = bipartite_to_dot(
        candidates,
        selected=PAPER_OPTIMAL_GROUPS,
        distances=distances,
        title="Fig7",
    )
    write_result("fig7_bipartite.dot", dot)

    total = sum(distances[frozenset(group)] for group in PAPER_OPTIMAL_GROUPS)
    print(f"\nFig. 7 optimal grouping distance: {total:.4f} (paper: 3.08)")
    assert total == pytest.approx(3.0833333, abs=1e-6)
    # The paper's Fig. 7 candidate inventory (DFG-based + exclusive merge).
    for group in [
        {"rcp", "ckt", "ckc"}, {"prio", "inf", "arv"}, {"ckt", "ckc"},
        {"inf", "arv"}, {"prio", "inf"}, {"prio", "arv"},
        {"rcp", "ckc"}, {"rcp", "ckt"},
    ]:
        assert frozenset(group) in candidates, group
