"""Unit tests for the integer-encoded engine (``repro.core.encoding``)."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.core.instances import POLICIES, InstanceIndex, instances_in_log
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

    def test_summaries_are_arrays_and_accessors_python_ints(self, running_log):
        index = CompiledInstanceIndex(running_log)
        group = frozenset({"ckc", "ckt", "rcp"})
        stats = index.stats(group)
        # Kept arrays are int32 (the log has < 2**31 events); derived
        # ones come from the int64 per-event tables.
        for name in ("hit_ids", "starts", "counts", "distincts"):
            assert getattr(stats, name).dtype.name == "int32"
        assert stats.distincts is stats.counts  # ``repeat``: all distinct
        for name in ("trace_ids", "firsts", "lasts", "positions"):
            assert getattr(stats, name).dtype.name == "int64"
        assert stats.cohesion.dtype.name == "float64"
        pairs = index.positions(group)
        assert {type(trace) for trace, _ in pairs} == {int}
        assert {type(p) for _, positions in pairs for p in positions} == {int}
        assert {type(d) for d in index.distinct_counts(group)} == {int}


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


def _sequential_total(values):
    total = 0.0
    for value in values:
        total += value
    return total


#: ``np.sum`` adds this pairwise (eight partial sums): each partial sum
#: keeps its 2**-53 terms, while the left-to-right loop rounds every one
#: of them away against 1.0.
PAIRWISE_DIFFERS = [1.0] + [2.0**-53] * 15


class TestEq1Accumulation:
    def test_pinned_vector_separates_sum_from_accumulate(self):
        import numpy as np

        values = np.array(PAIRWISE_DIFFERS)
        assert float(np.add.accumulate(values)[-1]) == _sequential_total(
            PAIRWISE_DIFFERS
        )
        assert float(np.sum(values)) != _sequential_total(PAIRWISE_DIFFERS)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.floats(
                min_value=0.0, max_value=1e6, allow_nan=False, allow_subnormal=True
            ),
            min_size=1,
            max_size=300,
        )
    )
    def test_accumulate_is_the_left_to_right_loop(self, values):
        import numpy as np

        accumulated = float(np.add.accumulate(np.array(values))[-1])
        expected = _sequential_total(values)
        assert accumulated.hex() == expected.hex()

    @pytest.fixture(scope="class")
    def long_log(self):
        from repro.datasets.playout import playout
        from repro.datasets.process_tree import TreeSpec, random_tree

        tree = random_tree(TreeSpec(num_activities=5), seed=7)
        return playout(tree, 1100, seed=7)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_bitwise_equal_on_large_groups(self, long_log, policy):
        compiled_index = CompiledInstanceIndex(long_log, policy=policy)
        compiled = CompiledDistanceFunction(long_log, compiled_index)
        reference = DistanceFunction(
            long_log, InstanceIndex(long_log, policy=policy)
        )
        classes = sorted(long_log.classes)
        groups = [
            frozenset(combo)
            for size in (1, 2, 3)
            for combo in itertools.combinations(classes, size)
        ]
        compiled.prime(groups)
        large = [g for g in groups if compiled_index.count(g) >= 1000]
        assert len(large) >= 10
        for group in large:
            value = compiled.group_distance(group)
            assert math.isfinite(value)
            assert value.hex() == reference.group_distance(group).hex(), sorted(
                group
            )


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
