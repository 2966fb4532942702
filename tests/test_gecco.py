"""Unit tests for the Gecco facade (configs, pipeline, infeasibility)."""

import pytest

from repro.constraints import (
    ConstraintSet,
    MaxDistinctClassAttribute,
    MaxGroups,
    MaxGroupSize,
    MinGroups,
    MinInstanceAggregate,
)
from repro.core.gecco import Gecco, GeccoConfig
from repro.datasets import PAPER_OPTIMAL_GROUPS
from repro.eventlog.events import ROLE_KEY
from repro.exceptions import ConstraintError, InfeasibleProblemError


class TestConfigValidation:
    def test_defaults_are_valid(self):
        config = GeccoConfig()
        assert config.strategy == "dfg"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"strategy": "quantum"},
            {"instance_policy": "bogus"},
            {"abstraction_strategy": "middle"},
            {"solver": "gurobi"},
            {"beam_width": "wide"},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConstraintError):
            GeccoConfig(**kwargs)

    def test_named_configurations(self):
        assert GeccoConfig.exhaustive().strategy == "exhaustive"
        assert GeccoConfig.dfg_unlimited().beam_width is None
        assert GeccoConfig.dfg_adaptive().beam_width == "auto"


class TestPipeline:
    def test_reproduces_paper_grouping(self, running_log, role_constraints):
        result = Gecco(role_constraints, GeccoConfig(strategy="dfg")).abstract(
            running_log
        )
        assert result.feasible
        assert set(result.grouping.groups) == set(PAPER_OPTIMAL_GROUPS)
        assert result.distance == pytest.approx(3.0833333, abs=1e-6)
        assert result.size_reduction == pytest.approx(0.5)

    def test_constraint_list_coerced(self, running_log):
        gecco = Gecco([MaxDistinctClassAttribute(ROLE_KEY, 1)])
        assert isinstance(gecco.constraints, ConstraintSet)
        assert gecco.abstract(running_log).feasible

    def test_exhaustive_no_worse_than_dfg(self, running_log, role_constraints):
        dfg = Gecco(role_constraints, GeccoConfig(strategy="dfg")).abstract(running_log)
        exh = Gecco(role_constraints, GeccoConfig.exhaustive()).abstract(running_log)
        assert exh.feasible and dfg.feasible
        assert exh.distance <= dfg.distance + 1e-9

    def test_grouping_constraints_enforced(self, running_log, role_constraints):
        constraints = ConstraintSet(
            list(role_constraints.constraints) + [MinGroups(5)]
        )
        result = Gecco(constraints).abstract(running_log)
        assert result.feasible
        assert len(result.grouping) >= 5

    def test_timings_recorded(self, running_log, role_constraints):
        result = Gecco(role_constraints).abstract(running_log)
        assert result.timings.total > 0
        assert result.timings.candidates >= 0
        assert result.timings.selection >= 0

    def test_exclusive_merging_toggle(self, running_log, role_constraints):
        with_merge = Gecco(
            role_constraints, GeccoConfig(exclusive_merging=True)
        ).abstract(running_log)
        without = Gecco(
            role_constraints, GeccoConfig(exclusive_merging=False)
        ).abstract(running_log)
        # Without the Alg. 3 pass, {rcp, ckc, ckt} is unreachable.
        assert with_merge.num_candidates > without.num_candidates
        assert without.distance >= with_merge.distance

    def test_bnb_solver_agrees(self, running_log, role_constraints):
        scipy_result = Gecco(role_constraints, GeccoConfig(solver="scipy")).abstract(
            running_log
        )
        bnb_result = Gecco(role_constraints, GeccoConfig(solver="bnb")).abstract(
            running_log
        )
        assert scipy_result.distance == pytest.approx(bnb_result.distance)

    def test_start_complete_strategy(self, running_log, role_constraints):
        result = Gecco(
            role_constraints, GeccoConfig(abstraction_strategy="start_complete")
        ).abstract(running_log)
        classes = {
            event.event_class
            for trace in result.abstracted_log
            for event in trace
        }
        assert any(cls.endswith("_s") for cls in classes)


class TestInfeasibility:
    @pytest.fixture
    def impossible(self):
        # Every instance must total an absurd duration: nothing qualifies,
        # so no candidate covers any class.
        return ConstraintSet([MinInstanceAggregate("duration", "sum", 1e12)])

    def test_returns_original_log_with_report(self, running_log, impossible):
        result = Gecco(impossible).abstract(running_log)
        assert not result.feasible
        assert result.grouping is None
        assert result.abstracted_log is running_log
        assert result.infeasibility is not None
        assert result.infeasibility.uncovered_classes

    @pytest.mark.parametrize("engine", ["compiled", "python"])
    def test_timings_include_diagnosis(self, running_log, impossible, engine):
        result = Gecco(impossible, GeccoConfig(engine=engine)).abstract(
            running_log
        )
        timings = result.timings
        assert timings.diagnosis > 0.0
        assert timings.abstraction == 0.0
        assert timings.total == (
            timings.candidates
            + timings.exclusive
            + timings.selection
            + timings.diagnosis
        )

    def test_feasible_problem_spends_nothing_on_diagnosis(
        self, running_log, role_constraints
    ):
        result = Gecco(role_constraints).abstract(running_log)
        assert result.feasible
        assert result.timings.diagnosis == 0.0

    def test_raise_on_infeasible(self, running_log, impossible):
        gecco = Gecco(impossible, GeccoConfig(raise_on_infeasible=True))
        with pytest.raises(InfeasibleProblemError) as excinfo:
            gecco.abstract(running_log)
        assert excinfo.value.report is not None

    def test_infeasible_cardinality(self, running_log):
        constraints = ConstraintSet([MaxGroupSize(2), MaxGroups(2)])
        result = Gecco(constraints).abstract(running_log)
        assert not result.feasible  # 8 classes cannot fit in 2 groups of <= 2


class TestLabelAttribute:
    def test_groups_labeled_by_shared_attribute(self, running_log, role_constraints):
        config = GeccoConfig(label_attribute=ROLE_KEY)
        result = Gecco(role_constraints, config).abstract(running_log)
        labels = set(result.grouping.labels.values())
        assert any(label.startswith("clerk_Activity") for label in labels)
