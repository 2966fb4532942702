"""Unit tests for grouping-level constraints and lazy selection."""

import pytest

from repro.constraints import ConstraintSet
from repro.constraints.instancebased import MaxInstanceAggregate
from repro.core.candidates import exhaustive_candidates
from repro.core.checker import GroupChecker
from repro.core.dfg_candidates import dfg_candidates
from repro.core.distance import DistanceFunction
from repro.core.exclusive import merge_exclusive_candidates
from repro.core.grouping_constraints import (
    MaxGroupSizeSpread,
    MaxMeanAggregateOverGrouping,
    MaxViolatingGroups,
)
from repro.core.instances import InstanceIndex
from repro.core.lazy_selection import select_with_grouping_rules
from repro.core.selection import select_optimal_grouping
from repro.eventlog.events import Event, log_from_variants
from repro.exceptions import ConstraintError, SolverError
from repro.mip.result import SolverStatus


def instance_of(*specs):
    return [Event(cls, attrs) for cls, attrs in specs]


class TestRules:
    def test_mean_aggregate_rule(self):
        rule = MaxMeanAggregateOverGrouping("cost", "sum", 100.0)
        cheap = {frozenset({"a"}): [instance_of(("a", {"cost": 50}))]}
        pricey = {frozenset({"a"}): [instance_of(("a", {"cost": 500}))]}
        assert rule.check(cheap)
        assert not rule.check(pricey)

    def test_mean_aggregate_vacuous(self):
        rule = MaxMeanAggregateOverGrouping("cost", "sum", 1.0)
        assert rule.check({frozenset({"a"}): [instance_of(("a", {}))]})
        assert rule.check({})

    def test_max_violating_groups(self):
        inner = MaxInstanceAggregate("cost", "sum", 100)
        rule = MaxViolatingGroups(inner, budget=1)
        good = [instance_of(("a", {"cost": 10}))]
        bad = [instance_of(("a", {"cost": 999}))]
        assert rule.check({frozenset({"a"}): bad, frozenset({"b"}): good})
        assert not rule.check({frozenset({"a"}): bad, frozenset({"b"}): bad})

    def test_max_violating_validation(self):
        inner = MaxInstanceAggregate("cost", "sum", 100)
        with pytest.raises(ConstraintError):
            MaxViolatingGroups(inner, budget=-1)
        with pytest.raises(ConstraintError):
            MaxViolatingGroups("nope", budget=1)

    def test_size_spread(self):
        rule = MaxGroupSizeSpread(1)
        balanced = {frozenset({"a", "b"}): [], frozenset({"c"}): []}
        lopsided = {frozenset({"a", "b", "c"}): [], frozenset({"d"}): []}
        assert rule.check(balanced)
        assert not rule.check(lopsided)
        assert rule.check({})

    def test_describe(self):
        assert "spread" not in MaxGroupSizeSpread(2).describe()
        assert "<= 2" in MaxGroupSizeSpread(2).describe()


@pytest.fixture(scope="module")
def selection_inputs(running_log, role_constraints):
    checker = GroupChecker(running_log, role_constraints)
    distance = DistanceFunction(running_log, checker.instances)
    candidates = dfg_candidates(running_log, role_constraints, checker=checker).groups
    candidates, _ = merge_exclusive_candidates(running_log, candidates, checker)
    return candidates, distance, checker.instances


class TestLazySelection:
    @pytest.mark.parametrize("backend", ["scipy", "bnb"])
    def test_no_rules_matches_plain_selection(
        self, running_log, selection_inputs, backend
    ):
        candidates, distance, index = selection_inputs
        lazy = select_with_grouping_rules(
            running_log, candidates, distance, rules=[], backend=backend
        )
        plain = select_optimal_grouping(
            running_log, candidates, distance, backend=backend
        )
        assert lazy.feasible
        assert lazy.objective == pytest.approx(plain.objective)
        assert lazy.iterations == 1
        assert lazy.cuts_added == 0

    @pytest.mark.parametrize("backend", ["scipy", "bnb"])
    def test_spread_rule_forces_different_grouping(
        self, running_log, selection_inputs, backend
    ):
        candidates, distance, index = selection_inputs
        # The unconstrained optimum has groups of sizes {3, 3, 1, 1}:
        # spread 2.  Forbid that shape.
        rule = MaxGroupSizeSpread(1)
        result = select_with_grouping_rules(
            running_log,
            candidates,
            distance,
            rules=[rule],
            instance_index=index,
            backend=backend,
        )
        assert result.feasible
        sizes = [len(group) for group in result.grouping]
        assert max(sizes) - min(sizes) <= 1
        assert result.cuts_added >= 1
        assert result.rejected_groupings

    def test_costlier_than_unconstrained(self, running_log, selection_inputs):
        candidates, distance, index = selection_inputs
        unconstrained = select_optimal_grouping(running_log, candidates, distance)
        constrained = select_with_grouping_rules(
            running_log,
            candidates,
            distance,
            rules=[MaxGroupSizeSpread(1)],
            instance_index=index,
        )
        assert constrained.objective >= unconstrained.objective - 1e-9

    def test_infeasible_when_rules_unsatisfiable(self, running_log, selection_inputs):
        candidates, distance, index = selection_inputs
        # Budget of zero violating groups under an impossible inner
        # constraint rejects every grouping; the cut loop must exhaust
        # the (finite) groupings and report infeasibility.
        impossible = MaxViolatingGroups(
            MaxInstanceAggregate("duration", "sum", -1.0), budget=0
        )
        result = select_with_grouping_rules(
            running_log,
            candidates,
            distance,
            rules=[impossible],
            instance_index=index,
            max_iterations=10_000,
        )
        assert not result.feasible
        assert result.status is SolverStatus.INFEASIBLE

    def test_iteration_cap(self, running_log, selection_inputs):
        candidates, distance, index = selection_inputs
        impossible = MaxViolatingGroups(
            MaxInstanceAggregate("duration", "sum", -1.0), budget=0
        )
        with pytest.raises(SolverError):
            select_with_grouping_rules(
                running_log,
                candidates,
                distance,
                rules=[impossible],
                instance_index=index,
                max_iterations=2,
            )

    def test_unknown_backend(self, running_log, selection_inputs):
        candidates, distance, _ = selection_inputs
        with pytest.raises(SolverError):
            select_with_grouping_rules(
                running_log, candidates, distance, rules=[], backend="cplex"
            )

    def test_cost_ties_resolve_to_the_lexmin_grouping(self):
        """Equal-cost optima resolve like the plain Step-2 paths, on both backends."""
        log = log_from_variants([["a", "e", "b"], ["c", "a", "b"]])
        candidates = set(exhaustive_candidates(log, ConstraintSet([])).groups)
        distance = DistanceFunction(log)
        plain = select_optimal_grouping(log, candidates, distance)
        assert set(plain.grouping.groups) == {
            frozenset({"a", "b", "e"}),
            frozenset({"c"}),
        }
        for backend in ("bnb", "scipy"):
            lazy = select_with_grouping_rules(
                log, candidates, distance, rules=[], backend=backend
            )
            assert set(lazy.grouping.groups) == set(plain.grouping.groups), backend
            assert lazy.objective == plain.objective == 1.5

    def test_backends_agree_under_a_rule(self):
        """A seeded sweep: bnb and HiGHS return the same rule-abiding grouping."""
        import random

        rule = MaxGroupSizeSpread(1)
        for seed in range(60):
            rng = random.Random(seed)
            classes = "abcdef"[: rng.randint(3, 6)]
            log = log_from_variants(
                [
                    rng.sample(classes, rng.randint(1, len(classes)))
                    for _ in range(rng.randint(2, 4))
                ]
            )
            candidates = set(exhaustive_candidates(log, ConstraintSet([])).groups)
            distance = DistanceFunction(log)
            groups = {
                backend: set(
                    select_with_grouping_rules(
                        log, candidates, distance, rules=[rule], backend=backend
                    ).grouping.groups
                )
                for backend in ("bnb", "scipy")
            }
            assert groups["bnb"] == groups["scipy"], seed

    def test_mean_cost_rule_end_to_end(self, running_log, selection_inputs):
        candidates, distance, index = selection_inputs
        rule = MaxMeanAggregateOverGrouping("duration", "avg", 1e9)  # loose
        result = select_with_grouping_rules(
            running_log, candidates, distance, rules=[rule], instance_index=index
        )
        assert result.feasible
        assert result.cuts_added == 0
