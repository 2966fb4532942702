"""Unit tests for Step 2: optimal grouping selection."""

import pytest

from repro.core.checker import GroupChecker
from repro.core.dfg_candidates import dfg_candidates
from repro.core.distance import DistanceFunction
from repro.core.exclusive import merge_exclusive_candidates
from repro.core.selection import select_optimal_grouping
from repro.datasets import PAPER_OPTIMAL_GROUPS
from repro.exceptions import SolverError
from repro.mip.result import SolverStatus


@pytest.fixture(scope="module")
def running_candidates(running_log, role_constraints):
    checker = GroupChecker(running_log, role_constraints)
    candidates = dfg_candidates(running_log, role_constraints, checker=checker).groups
    merged, _ = merge_exclusive_candidates(running_log, candidates, checker)
    return merged


class TestPaperOptimum:
    @pytest.mark.parametrize("backend", ["scipy", "bnb"])
    def test_finds_fig7_grouping(self, running_log, running_candidates, backend):
        distance = DistanceFunction(running_log)
        result = select_optimal_grouping(
            running_log, running_candidates, distance, backend=backend
        )
        assert result.feasible
        assert set(result.grouping.groups) == set(PAPER_OPTIMAL_GROUPS)
        assert result.objective == pytest.approx(3.0833333, abs=1e-6)

    def test_backends_agree(self, running_log, running_candidates):
        distance = DistanceFunction(running_log)
        scipy_result = select_optimal_grouping(
            running_log, running_candidates, distance, backend="scipy"
        )
        bnb_result = select_optimal_grouping(
            running_log, running_candidates, distance, backend="bnb"
        )
        assert scipy_result.objective == pytest.approx(bnb_result.objective)


class TestCardinality:
    def test_max_groups_bound(self, running_log, running_candidates):
        distance = DistanceFunction(running_log)
        result = select_optimal_grouping(
            running_log, running_candidates, distance, max_groups=4
        )
        assert result.feasible
        assert len(result.grouping) <= 4

    def test_min_groups_bound(self, running_log, running_candidates):
        distance = DistanceFunction(running_log)
        result = select_optimal_grouping(
            running_log, running_candidates, distance, min_groups=6
        )
        assert result.feasible
        assert len(result.grouping) >= 6

    def test_infeasible_cardinality(self, running_log, running_candidates):
        distance = DistanceFunction(running_log)
        result = select_optimal_grouping(
            running_log, running_candidates, distance, max_groups=1
        )
        assert not result.feasible
        assert result.status is SolverStatus.INFEASIBLE


class TestInfeasibility:
    def test_missing_class_coverage(self, running_log):
        distance = DistanceFunction(running_log)
        candidates = {frozenset({"rcp"})}  # covers one of eight classes
        result = select_optimal_grouping(running_log, candidates, distance)
        assert not result.feasible

    def test_unknown_backend(self, running_log, running_candidates):
        distance = DistanceFunction(running_log)
        with pytest.raises(SolverError):
            select_optimal_grouping(
                running_log, running_candidates, distance, backend="gurobi"
            )

    def test_result_counts_candidates(self, running_log, running_candidates):
        distance = DistanceFunction(running_log)
        result = select_optimal_grouping(running_log, running_candidates, distance)
        assert result.num_candidates == len(running_candidates)


class TestTiming:
    def test_seconds_cover_canonicalization(
        self, running_log, running_candidates, monkeypatch
    ):
        """``seconds`` is read after the lex-min tie-break, not before it."""
        import time

        from repro.core import selection

        canonicalize = selection.lexmin_optimal_selection

        def slow_canonicalize(*args, **kwargs):
            time.sleep(0.2)
            return canonicalize(*args, **kwargs)

        monkeypatch.setattr(selection, "lexmin_optimal_selection", slow_canonicalize)
        result = select_optimal_grouping(
            running_log, running_candidates, DistanceFunction(running_log), backend="bnb"
        )
        assert result.feasible
        assert result.seconds >= 0.2


class TestCanonicalAborts:
    def test_monolithic_abort_is_counted(self, running_log, role_constraints, monkeypatch):
        """A tie-break out of nodes is counted, not dropped (monolithic path)."""
        import functools

        from repro.core import selection
        from repro.core.gecco import Gecco, GeccoConfig

        config = GeccoConfig(selection="monolithic", solver="bnb")
        clean = Gecco(role_constraints, config).abstract(running_log)
        assert clean.selection_stats.canonical_aborts == 0
        monkeypatch.setattr(
            selection,
            "lexmin_optimal_selection",
            functools.partial(selection.lexmin_optimal_selection, node_limit=1),
        )
        aborted = Gecco(role_constraints, config).abstract(running_log)
        assert aborted.selection_stats.canonical_aborts == 1
        assert aborted.selection_stats.as_dict()["canonical_aborts"] == 1
        assert aborted.distance == pytest.approx(clean.distance)
