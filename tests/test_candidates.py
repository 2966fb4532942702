"""Unit tests for exhaustive candidate computation (Algorithm 1)."""

import pytest

from repro.constraints import (
    CannotLink,
    ConstraintSet,
    MaxDistinctClassAttribute,
    MaxGroupSize,
    MinGroupSize,
    MinInstanceAggregate,
    MustLink,
)
from repro.core.candidates import exhaustive_candidates
from repro.core.checker import GroupChecker
from repro.eventlog.events import ROLE_KEY, log_from_variants


class TestBasics:
    def test_unconstrained_candidates_are_co_occurring_subsets(self):
        log = log_from_variants([["a", "b"], ["b", "c"]])
        result = exhaustive_candidates(log, ConstraintSet([]))
        assert frozenset({"a", "b"}) in result.groups
        assert frozenset({"b", "c"}) in result.groups
        # a and c never co-occur -> {a, c} and {a, b, c} are not candidates.
        assert frozenset({"a", "c"}) not in result.groups
        assert frozenset({"a", "b", "c"}) not in result.groups

    def test_singletons_always_candidates_when_allowed(self, running_log):
        result = exhaustive_candidates(running_log, ConstraintSet([]))
        for cls in running_log.classes:
            assert frozenset({cls}) in result.groups

    def test_running_example_contains_paper_groups(self, running_log, role_constraints):
        result = exhaustive_candidates(running_log, role_constraints)
        assert frozenset({"prio", "inf", "arv"}) in result.groups
        # {rcp, ckc} and {rcp, ckt} co-occur and share the clerk role.
        assert frozenset({"rcp", "ckc"}) in result.groups
        assert frozenset({"rcp", "ckt"}) in result.groups
        # Manager/clerk mixes are excluded by the role constraint.
        assert frozenset({"acc", "prio"}) not in result.groups


class TestAntiMonotonicPruning:
    def test_max_size_respected(self, running_log):
        constraints = ConstraintSet([MaxGroupSize(2)])
        result = exhaustive_candidates(running_log, constraints)
        assert all(len(group) <= 2 for group in result.groups)

    def test_cannot_link_respected(self, running_log):
        constraints = ConstraintSet([CannotLink("rcp", "acc")])
        result = exhaustive_candidates(running_log, constraints)
        assert all(
            not ({"rcp", "acc"} <= set(group)) for group in result.groups
        )

    def test_pruning_matches_unpruned_results(self, running_log):
        """Anti-monotonic pruning must not change the candidate set.

        We compare against a brute-force enumeration of all co-occurring
        subsets checked directly.
        """
        constraints = ConstraintSet([MaxGroupSize(3), CannotLink("rcp", "prio")])
        result = exhaustive_candidates(running_log, constraints)

        import itertools

        checker = GroupChecker(running_log, constraints)
        classes = sorted(running_log.classes)
        brute = set()
        for size in range(1, len(classes) + 1):
            for combo in itertools.combinations(classes, size):
                group = frozenset(combo)
                if running_log.occurs(group) and checker.holds(group):
                    brute.add(group)
        assert result.groups == brute


class TestMonotonicPruning:
    def test_min_size_mode_finds_supergroups(self, running_log):
        constraints = ConstraintSet([MinGroupSize(2)])
        result = exhaustive_candidates(running_log, constraints)
        assert all(len(group) >= 2 for group in result.groups)
        assert frozenset({"rcp", "ckc"}) in result.groups

    def test_monotonic_subset_prunes_recorded(self, running_log):
        constraints = ConstraintSet([MinGroupSize(2)])
        result = exhaustive_candidates(running_log, constraints)
        assert result.stats.subset_prunes > 0

    def test_monotonic_matches_brute_force(self, running_log):
        constraints = ConstraintSet(
            [MinInstanceAggregate("duration", "sum", 20.0)]
        )
        result = exhaustive_candidates(running_log, constraints)

        import itertools

        checker = GroupChecker(running_log, constraints)
        classes = sorted(running_log.classes)
        brute = set()
        for size in range(1, len(classes) + 1):
            for combo in itertools.combinations(classes, size):
                group = frozenset(combo)
                if running_log.occurs(group) and checker.holds(group):
                    brute.add(group)
        assert result.groups == brute


class TestNonMonotonic:
    def test_must_link_candidates(self, running_log):
        constraints = ConstraintSet([MustLink("inf", "arv")])
        result = exhaustive_candidates(running_log, constraints)
        for group in result.groups:
            assert ("inf" in group) == ("arv" in group)
        assert frozenset({"inf", "arv"}) in result.groups


class TestTimeout:
    def test_timeout_returns_partial_results(self, running_log, role_constraints):
        result = exhaustive_candidates(running_log, role_constraints, timeout=0.0)
        assert result.stats.timed_out

    def test_no_timeout_flag_on_normal_run(self, running_log, role_constraints):
        result = exhaustive_candidates(running_log, role_constraints)
        assert not result.stats.timed_out
        assert result.stats.iterations >= 1
        assert result.stats.seconds >= 0


class TestStats:
    def test_checker_sharing(self, running_log, role_constraints):
        checker = GroupChecker(running_log, role_constraints)
        exhaustive_candidates(running_log, role_constraints, checker=checker)
        assert checker.cache_size() > 0


class TestMixedMonotonicityCompleteness:
    """Alg. 1 under an anti-monotonic size bound plus a monotonic sum bound.

    Set M pairs ``MaxGroupSize(8)`` (anti-monotonic) with ``sum(duration)
    >= 101`` (monotonic), so the set's checking mode is ANTI_MONOTONIC
    and only groups satisfying *every* constraint are expanded.  A group
    whose subsets all fail the monotonic bound is then never generated,
    although it occurs and holds.
    """

    GROUP = frozenset({"act_00", "act_01"})

    @staticmethod
    def _problem():
        from repro.datasets import TreeSpec, enrich_log, playout, random_tree
        from repro.experiments.configs import constraint_set_for_log

        log = enrich_log(playout(random_tree(TreeSpec(7), seed=2), 30, seed=2), seed=2)
        return log, constraint_set_for_log("M", log)

    def test_missed_group_occurs_and_holds(self):
        log, constraints = self._problem()
        assert log.occurs(self.GROUP)
        assert GroupChecker(log, constraints).holds(self.GROUP)

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "Alg. 1 defect: with one anti-monotonic constraint the checking "
            "mode is ANTI_MONOTONIC, so groups that fail the monotonic "
            "sum(duration) >= 101 bound are never expanded and their "
            "satisfying supersets are never generated"
        ),
    )
    @pytest.mark.parametrize("engine", ["python", "compiled"])
    def test_missed_group_is_a_candidate(self, engine):
        log, constraints = self._problem()
        if engine == "compiled":
            from repro.core.encoding import (
                HAVE_NUMPY,
                CompiledInstanceIndex,
                CompiledLog,
            )

            if not HAVE_NUMPY:
                pytest.skip("the compiled engine needs numpy")
            compiled = CompiledLog(log)
            checker = GroupChecker(
                log, constraints, CompiledInstanceIndex(log, compiled)
            )
            result = exhaustive_candidates(
                log, constraints, checker=checker, compiled=compiled
            )
        else:
            result = exhaustive_candidates(log, constraints)
        assert self.GROUP in result.groups
