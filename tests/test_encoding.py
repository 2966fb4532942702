"""Unit tests for the integer-encoded engine (``repro.core.encoding``)."""

import pytest

from repro.constraints import ConstraintSet
from repro.core.dfg_candidates import dfg_candidates
from repro.core.distance import DistanceFunction
from repro.core.encoding import (
    HAVE_NUMPY,
    CompiledDfgOps,
    CompiledDistanceFunction,
    CompiledInstanceIndex,
    CompiledLog,
)
from repro.core.instances import InstanceIndex, instances_in_log
from repro.eventlog.dfg import compute_dfg
from repro.eventlog.events import EventLog, Trace, log_from_variants
from repro.exceptions import EventLogError, GroupingError

pytestmark = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")


@pytest.fixture(scope="module")
def small_log():
    return log_from_variants(
        [
            ["a", "b", "c", "d"],
            ["a", "b", "a", "c"],
            ["b", "d"],
            ["c"],
        ]
    )


class TestCompiledLog:
    def test_class_interning_is_sorted_and_dense(self, small_log):
        compiled = CompiledLog(small_log)
        assert compiled.classes == ["a", "b", "c", "d"]
        assert compiled.class_to_id == {"a": 0, "b": 1, "c": 2, "d": 3}
        assert compiled.num_traces == 4
        assert compiled.all_ids.tolist() == [0, 1, 2, 3, 0, 1, 0, 2, 1, 3, 2]

    def test_mask_round_trip(self, small_log):
        compiled = CompiledLog(small_log)
        group = frozenset({"a", "c"})
        mask = compiled.mask_of(group)
        assert mask == (1 << 0) | (1 << 2)
        assert compiled.group_of(mask) == group

    def test_mask_ignores_foreign_classes(self, small_log):
        compiled = CompiledLog(small_log)
        assert compiled.mask_of({"a", "zz"}) == compiled.mask_of({"a"})

    def test_occurs_matches_reference(self, small_log):
        compiled = CompiledLog(small_log)
        import itertools

        for r in (1, 2, 3):
            for combo in itertools.combinations("abcd", r):
                assert compiled.occurs(combo) == small_log.occurs(combo), combo
        assert not compiled.occurs([])
        assert not compiled.occurs(["zz"])
        assert not compiled.occurs(["a", "zz"])

    def test_extend_cooccurring_is_posting_intersection(self, small_log):
        compiled = CompiledLog(small_log)
        mask_a = compiled.mask_of({"a"})
        bits = compiled.extend_cooccurring(mask_a, compiled.class_bit("b"))
        # Traces 0 and 1 contain both a and b.
        assert bits == (1 << 0) | (1 << 1)
        # {a, b, d}: only trace 0.
        bits = compiled.extend_cooccurring(
            compiled.mask_of({"a", "b"}), compiled.class_bit("d")
        )
        assert bits == 1 << 0

    def test_instances_reject_unknown_policy(self, small_log):
        compiled = CompiledLog(small_log)
        with pytest.raises(EventLogError):
            compiled.instances({"a"}, policy="bogus")

    def test_repeat_split_matches_paper_example(self, running_log):
        """inst(σ4, {rcp, ckc, ckt}) = {⟨rcp, ckc⟩, ⟨rcp, ckt⟩}."""
        compiled = CompiledLog(running_log)
        group = frozenset({"rcp", "ckc", "ckt"})
        pairs, distinct = compiled.instances(group, policy="repeat")
        assert pairs == instances_in_log(running_log, group, policy="repeat")
        assert distinct == [len(p) for _, p in pairs]

    def test_empty_log(self):
        log = EventLog([Trace([])])
        compiled = CompiledLog(log)
        pairs, distinct = compiled.instances({"a"})
        assert pairs == [] and distinct == []
        assert not compiled.occurs({"a"})


class TestCompiledInstanceIndex:
    def test_is_drop_in_for_instance_index(self, running_log):
        reference = InstanceIndex(running_log)
        compiled = CompiledInstanceIndex(running_log)
        group = frozenset({"rcp", "ckc", "ckt"})
        assert compiled.positions(group) == reference.positions(group)
        assert compiled.count(group) == reference.count(group)
        ref_events = reference.events(group)
        com_events = compiled.events(group)
        assert [
            [e.event_class for e in inst] for inst in com_events
        ] == [[e.event_class for e in inst] for inst in ref_events]
        assert compiled.cache_size() == 1

    def test_rejects_foreign_compiled_log(self, running_log, loan_log):
        with pytest.raises(GroupingError):
            CompiledInstanceIndex(running_log, CompiledLog(loan_log))

    def test_prime_fills_cache(self, running_log):
        index = CompiledInstanceIndex(running_log)
        groups = [frozenset({"rcp"}), frozenset({"ckc", "ckt"})]
        index.prime(groups)
        assert index.cache_size() == 2
        for group in groups:
            assert index.positions(group) == instances_in_log(
                running_log, group
            )


class TestCompiledDistance:
    def test_requires_compiled_index(self, running_log):
        with pytest.raises(GroupingError):
            CompiledDistanceFunction(running_log, InstanceIndex(running_log))

    def test_fig7_value(self, running_log):
        from repro.datasets import PAPER_OPTIMAL_GROUPS

        reference = DistanceFunction(running_log)
        compiled = CompiledDistanceFunction(running_log)
        assert compiled.grouping_distance(PAPER_OPTIMAL_GROUPS) == pytest.approx(
            3.0833333, abs=1e-6
        )
        assert compiled.grouping_distance(
            PAPER_OPTIMAL_GROUPS
        ) == reference.grouping_distance(PAPER_OPTIMAL_GROUPS)

    def test_empty_group_raises(self, running_log):
        with pytest.raises(GroupingError):
            CompiledDistanceFunction(running_log).group_distance(frozenset())

    def test_group_without_instances_scores_unary_penalty(self):
        log = log_from_variants([["a"], ["b"]])
        compiled = CompiledDistanceFunction(log)
        assert compiled.group_distance({"a", "b"}) == DistanceFunction(
            log
        ).group_distance({"a", "b"})


class TestCompiledDfgOps:
    def test_matches_graph_neighborhoods(self, running_log):
        graph = compute_dfg(running_log)
        ops = CompiledDfgOps(CompiledLog(running_log), graph)
        import itertools

        classes = sorted(running_log.classes)
        groups = [
            frozenset(c)
            for r in (1, 2)
            for c in itertools.combinations(classes, r)
        ]
        for group in groups:
            assert ops.pre(group) == graph.pre(group), group
            assert ops.post(group) == graph.post(group), group
        for a, b in itertools.combinations(groups[: len(classes)], 2):
            assert ops.exclusive(a, b) == graph.exclusive(a, b), (a, b)

    def test_equal_pre_post_matches_graph(self, running_log):
        graph = compute_dfg(running_log)
        ops = CompiledDfgOps(CompiledLog(running_log), graph)
        candidates = dfg_candidates(running_log, ConstraintSet([])).groups
        for group in candidates:
            preset, postset = ops.signature(group)
            assert (
                ops.compiled.group_of(preset),
                ops.compiled.group_of(postset),
            ) == graph.signature(group), group
            matches = [
                other
                for other in candidates
                if other != group and ops.signature(other) == ops.signature(group)
            ]
            assert matches == graph.equal_pre_post(group, candidates), group


class TestEventLogOccursCache:
    def test_single_class(self, small_log):
        assert small_log.occurs(["a"])
        assert small_log.occurs(frozenset({"c"}))
        assert not small_log.occurs(["nope"])

    def test_empty_intersection_is_cached_and_false(self):
        log = log_from_variants([["a", "b"], ["c", "d"]])
        assert not log.occurs(["a", "c"])
        # The empty result is memoized, not recomputed.
        assert log._group_trace_sets[frozenset({"a", "c"})] == frozenset()
        assert log.traces_containing(["a", "c"]) == []

    def test_child_reuses_cached_parent_intersection(self):
        log = log_from_variants([["a", "b", "c"], ["a", "b"], ["c"]])
        assert log.occurs(["a", "b"])
        assert log.occurs(["a", "b", "c"])
        assert log._group_trace_sets[frozenset({"a", "b", "c"})] == frozenset({0})
        assert log.traces_containing(["a", "b"]) == [0, 1]

    def test_append_invalidates_cache(self):
        from repro.eventlog.events import Event

        log = log_from_variants([["a", "b"]])
        assert not log.occurs(["a", "c"])
        log.append(Trace([Event("a"), Event("c")]))
        assert log.occurs(["a", "c"])
        assert log.traces_containing(["a", "c"]) == [1]

    def test_empty_group_never_occurs(self, small_log):
        assert not small_log.occurs([])
        assert small_log.traces_containing([]) == []
