"""Figures 1 and 8: the loan-application case study (paper §VI-D).

Regenerates both figures on the synthetic loan log: the 80/20 DFG of
the low-level log (Fig. 1 — spaghetti) and the 80/20 DFG after
origin-constrained abstraction (Fig. 8 — system-pure activities with
visible inter-system flow).  DOT artifacts land in the pytest session's
results directory (see ``conftest.write_result``).
"""

from conftest import write_result

from repro.constraints import (
    ConstraintSet,
    MaxDistinctClassAttribute,
    MaxGroupSize,
)
from repro.core.gecco import Gecco, GeccoConfig
from repro.datasets.loan_process import ORIGIN_OF
from repro.eventlog.dfg import compute_dfg
from repro.experiments.figures import dfg_to_dot


def test_fig1_spaghetti_dfg(loan_log, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    dfg = compute_dfg(loan_log)
    filtered = dfg.filtered(0.8)
    dot = dfg_to_dot(dfg, keep_fraction=0.8, title="Fig1")
    write_result("fig1_loan_8020_dfg.dot", dot)
    print(
        f"\nFig. 1: loan log 80/20 DFG has {len(filtered.edge_counts)} edges "
        f"over {len(dfg.nodes)} classes (paper: 160 edges over 24 classes)"
    )
    # Spaghetti shape: far more edges than classes even after filtering.
    assert len(filtered.edge_counts) > len(dfg.nodes)


def test_fig8_abstracted_dfg(loan_log, benchmark):
    constraints = ConstraintSet(
        [MaxGroupSize(8), MaxDistinctClassAttribute("origin", 1)]
    )
    config = GeccoConfig(strategy="dfg", beam_width="auto", label_attribute="origin")

    result = benchmark.pedantic(
        Gecco(constraints, config).abstract, args=(loan_log,), rounds=1, iterations=1
    )
    assert result.feasible

    abstracted_dfg = compute_dfg(result.abstracted_log)
    dot = dfg_to_dot(abstracted_dfg, keep_fraction=0.8, title="Fig8")
    write_result("fig8_abstracted_8020_dfg.dot", dot)

    summary = [
        f"Fig. 8: {len(result.grouping)} origin-pure activities "
        f"(paper: 7), abstracted 80/20 DFG has "
        f"{len(abstracted_dfg.filtered(0.8).edge_counts)} edges",
    ]
    for group in sorted(result.grouping, key=lambda g: sorted(g)[0]):
        summary.append(
            f"  {result.grouping.label_of(group):<18} {{{', '.join(sorted(group))}}}"
        )
    text = "\n".join(summary)
    write_result("fig8_grouping.txt", text)
    print("\n" + text)

    # Shape assertions per the paper's discussion.
    assert len(result.grouping) < len(loan_log.classes) / 2
    for group in result.grouping:
        assert len({ORIGIN_OF[cls] for cls in group}) == 1
    original_edges = len(compute_dfg(loan_log).edge_counts)
    assert len(abstracted_dfg.edge_counts) < original_edges


def test_unconstrained_abstraction_mixes_origins(loan_log, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    """§VI-D's closing point: without constraints, systems get mixed."""
    result = Gecco(
        ConstraintSet([MaxGroupSize(8)]),
        GeccoConfig(strategy="dfg", beam_width="auto"),
    ).abstract(loan_log)
    assert result.feasible
    mixed = [
        group
        for group in result.grouping
        if len({ORIGIN_OF[cls] for cls in group}) > 1
    ]
    assert mixed, "expected unconstrained abstraction to mix origin systems"
