"""Pickle and JSON round-trips of everything the worker pool ships."""

import pickle

import pytest

from repro.constraints import ConstraintSet, MaxGroups, MaxGroupSize
from repro.constraints.parser import parse_constraint
from repro.constraints.sets import InfeasibilityReport
from repro.core.gecco import Gecco, GeccoConfig
from repro.core.grouping import Grouping
from repro.service.serialization import (
    grouping_from_dict,
    grouping_to_dict,
    log_from_dict,
    log_to_dict,
    result_from_dict,
    result_signature,
    result_to_dict,
)
from tests.test_service_fingerprint import SPEC_SAMPLES


def logs_equal(a, b) -> bool:
    """Structural equality of two event logs (EventLog lacks __eq__)."""
    return (
        a.attributes == b.attributes
        and len(a) == len(b)
        and all(ta == tb for ta, tb in zip(a, b))
    )


@pytest.fixture(scope="module")
def running_result(running_log, role_constraints):
    return Gecco(role_constraints, GeccoConfig(strategy="dfg")).abstract(running_log)


@pytest.fixture(scope="module")
def loan_result(loan_log):
    constraints = ConstraintSet([MaxGroupSize(5)])
    return Gecco(constraints, GeccoConfig(beam_width="auto")).abstract(loan_log)


@pytest.fixture(scope="module")
def infeasible_result(running_log):
    # One group of at most two classes cannot cover eight classes.
    constraints = ConstraintSet([MaxGroups(1), MaxGroupSize(2)])
    return Gecco(constraints).abstract(running_log)


class TestPickleRoundTrip:
    @pytest.mark.parametrize(
        "fixture", ["running_result", "loan_result", "infeasible_result"]
    )
    def test_result_pickles(self, fixture, request):
        result = request.getfixturevalue(fixture)
        clone = pickle.loads(pickle.dumps(result))
        assert result_signature(clone) == result_signature(result)
        assert clone.feasible == result.feasible
        assert clone.engine == result.engine
        assert logs_equal(clone.abstracted_log, result.abstracted_log)

    def test_grouping_pickles(self, running_result):
        grouping = running_result.grouping
        clone = pickle.loads(pickle.dumps(grouping))
        assert set(clone.groups) == set(grouping.groups)
        assert clone.labels == grouping.labels

    def test_infeasibility_report_pickles(self, infeasible_result):
        report = infeasible_result.infeasibility
        assert report is not None
        clone = pickle.loads(pickle.dumps(report))
        assert clone == report

    @pytest.mark.parametrize("spec", SPEC_SAMPLES, ids=lambda s: s["type"])
    def test_every_constraint_type_pickles(self, spec):
        constraint = parse_constraint(spec)
        clone = pickle.loads(pickle.dumps(constraint))
        assert type(clone) is type(constraint)
        assert clone.describe() == constraint.describe()

    def test_constraint_set_pickles(self):
        original = ConstraintSet([parse_constraint(s) for s in SPEC_SAMPLES])
        clone = pickle.loads(pickle.dumps(original))
        assert clone.to_json() == original.to_json()
        assert len(clone.instance_based) == len(original.instance_based)


class TestJsonRoundTrip:
    @pytest.mark.parametrize(
        "fixture", ["running_result", "loan_result", "infeasible_result"]
    )
    def test_result_json(self, fixture, request):
        result = request.getfixturevalue(fixture)
        clone = result_from_dict(result_to_dict(result))
        assert result_signature(clone) == result_signature(result)
        assert clone.num_candidates == result.num_candidates
        assert clone.timings.total == result.timings.total
        if result.candidate_stats is not None:
            assert type(clone.candidate_stats) is type(result.candidate_stats)
        if result.infeasibility is not None:
            assert clone.infeasibility == result.infeasibility

    def test_log_json_preserves_timestamps(self, loan_log):
        clone = log_from_dict(log_to_dict(loan_log))
        assert logs_equal(clone, loan_log)
        assert clone[0][0].timestamp == loan_log[0][0].timestamp

    def test_grouping_json_preserves_labels(self, running_log):
        universe = sorted(running_log.classes)
        groups = [universe[:3], universe[3:]]
        grouping = Grouping(
            groups, universe, labels={frozenset(universe[:3]): "Custom"}
        )
        clone = grouping_from_dict(grouping_to_dict(grouping))
        assert set(clone.groups) == set(grouping.groups)
        assert clone.labels == grouping.labels

    def test_infeasibility_json(self):
        report = InfeasibilityReport(
            uncovered_classes=["x"],
            class_constraint_violations={"y": ["|g| <= 1"]},
            instance_violation_fractions={"c": {"x": 0.5}},
        )
        from repro.service.serialization import (
            infeasibility_from_dict,
            infeasibility_to_dict,
        )

        assert infeasibility_from_dict(infeasibility_to_dict(report)) == report

    def test_result_without_logs_is_compact_but_not_rebuildable(self, running_result):
        from repro.exceptions import ReproError

        compact = result_to_dict(running_result, include_logs=False)
        assert compact["abstracted_log"] is None
        with pytest.raises(ReproError):
            result_from_dict(compact)

    def test_exclusive_stats_round_trip(self, running_result):
        stats = running_result.exclusive_stats
        assert stats is not None and stats.merges_added >= 1
        clone = result_from_dict(result_to_dict(running_result))
        assert clone.exclusive_stats == stats

    def test_rows_without_diagnosis_timing_still_load(self, infeasible_result):
        """Rows written before ``StepTimings.diagnosis`` load it as 0.0."""
        data = result_to_dict(infeasible_result)
        assert data["timings"]["diagnosis"] > 0.0
        del data["timings"]["diagnosis"]
        clone = result_from_dict(data)
        assert clone.timings.diagnosis == 0.0
        assert result_signature(clone) == result_signature(infeasible_result)

    def test_rows_without_exclusive_stats_still_load(self, running_result):
        """Rows written before the field existed rebuild with ``None``."""
        data = result_to_dict(running_result)
        del data["exclusive_stats"]
        clone = result_from_dict(data)
        assert clone.exclusive_stats is None
        # Accounting, not output: the signature ignores it.
        assert result_signature(clone) == result_signature(running_result)
