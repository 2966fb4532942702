"""Differential tests for the columnar attribute engine.

The attribute columns of :mod:`repro.core.columns` promise *identical*
verdicts to the reference event-materialized constraint checking — for
every aggregate, the loose ``AtLeastFraction`` wrappers, missing and
non-numeric attributes, vacuous instances, and timestamp-less logs —
plus byte-identical outputs from the bitmask exhaustive frontier and
the compiled Step-3 abstraction.  This suite checks those promises on
the paper's logs, adversarially constructed attribute patterns, and
hypothesis-generated logs.
"""

import dataclasses
import itertools
import random
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints import (
    AtLeastFraction,
    ConstraintSet,
    MaxConsecutiveGap,
    MaxDistinctInstanceAttribute,
    MaxEventsPerClass,
    MaxGroupSize,
    MaxInstanceAggregate,
    MaxInstanceDuration,
    MinDistinctInstanceAttribute,
    MinEventsPerClass,
    MinInstanceAggregate,
    MinInstanceDuration,
)
from repro.core.abstraction import STRATEGIES, abstract_log
from repro.core.candidates import exhaustive_candidates
from repro.core.checker import GroupChecker
from repro.core.encoding import (
    HAVE_NUMPY,
    CompiledInstanceIndex,
    CompiledLog,
)
from repro.core.gecco import Gecco, GeccoConfig
from repro.core.instances import POLICIES, InstanceIndex
from repro.eventlog.events import Event, EventLog, Trace

pytestmark = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")


def _synthetic_log(num_classes, num_traces, seed=42):
    """An attribute-enriched synthetic log (the scaling workloads' shape)."""
    from repro.datasets.attributes import enrich_log
    from repro.datasets.playout import playout
    from repro.datasets.process_tree import TreeSpec, random_tree

    tree = random_tree(TreeSpec(num_activities=num_classes), seed=seed)
    return enrich_log(playout(tree, num_traces, seed=seed), seed=seed)


def _groups_upto(log, max_size=3, limit=200):
    classes = sorted(log.classes)
    combos = [
        frozenset(combo)
        for size in range(1, max_size + 1)
        for combo in itertools.combinations(classes, size)
    ]
    if len(combos) > limit:
        combos = random.Random(20220731).sample(combos, limit)
    return combos


def _assert_same_verdicts(log, constraints, groups=None, policy="repeat"):
    reference = GroupChecker(log, constraints, InstanceIndex(log, policy=policy))
    compiled = GroupChecker(
        log, constraints, CompiledInstanceIndex(log, policy=policy)
    )
    for group in groups or _groups_upto(log):
        assert reference.holds(group) == compiled.holds(group), sorted(group)
    return compiled


def _attribute_log():
    """A log exercising every awkward attribute pattern at once.

    Missing attributes, non-numeric and bool values under numeric keys,
    NaN/inf values, huge ints, unhashable values, events without
    timestamps, and an exactly-threshold-summing pair.
    """
    t = lambda s: datetime(2022, 5, 10, 12, 0, s, tzinfo=timezone.utc)  # noqa: E731
    return EventLog(
        [
            Trace(
                [
                    Event("a", {"x": 3.5, "time:timestamp": t(0)}),
                    Event("b", {"x": "text"}),  # non-numeric carrier
                    Event("c", {}),  # missing everything
                ]
            ),
            Trace(
                [
                    Event("a", {"x": True, "y": 1}),  # bool is not numeric
                    Event("b", {"x": float("nan"), "time:timestamp": t(5)}),
                    Event("c", {"x": float("inf"), "time:timestamp": t(2)}),
                ]
            ),
            Trace(
                [
                    Event("a", {"x": 0.1, "time:timestamp": t(10)}),
                    Event("b", {"x": 0.2, "time:timestamp": t(10)}),
                    Event("c", {"x": -0.3000000000000000444}),
                ]
            ),
            Trace(
                [
                    Event("a", {"u": [1, 2]}),  # unhashable value
                    Event("b", {"big": 10**400}),  # overflows float()
                    Event("c", {"y": 7}),
                ]
            ),
        ]
    )


class TestKernelParity:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize(
        "constraint",
        [
            MinInstanceAggregate("x", "sum", 0.3),
            MaxInstanceAggregate("x", "sum", 3.5),
            MinInstanceAggregate("x", "avg", 0.15),
            MaxInstanceAggregate("x", "avg", 0.15),
            MinInstanceAggregate("x", "min", 0.1),
            MaxInstanceAggregate("x", "max", 3.5),
            MinInstanceAggregate("x", "count", 1),
            MaxInstanceAggregate("x", "count", 2),
            MinInstanceAggregate("x", "distinct", 1),
            MaxInstanceAggregate("x", "distinct", 2),
            MaxInstanceAggregate("y", "sum", 5.0),
            MaxDistinctInstanceAttribute("x", 2),
            MinDistinctInstanceAttribute("x", 1),
            MaxInstanceDuration(6.0),
            MinInstanceDuration(3.0),
            MaxConsecutiveGap(4.0),
            MaxEventsPerClass(1),
            MinEventsPerClass(1),
            AtLeastFraction(MaxInstanceAggregate("x", "sum", 0.3), 0.5),
            AtLeastFraction(MaxInstanceDuration(3.0), 0.7),
        ],
    )
    def test_awkward_attributes_identical(self, constraint, policy):
        log = _attribute_log()
        _assert_same_verdicts(
            log, ConstraintSet([constraint]), policy=policy
        )

    def test_exact_threshold_sum_falls_back_to_sequential(self):
        # 0.1 + 0.2 sums to 0.30000000000000004; a threshold exactly at
        # the sequential sum must certify via the reference arithmetic.
        log = _attribute_log()
        group = frozenset(["a", "b"])
        threshold = 0.1 + 0.2
        for constraint in (
            MinInstanceAggregate("x", "sum", threshold),
            MaxInstanceAggregate("x", "sum", threshold),
            MinInstanceAggregate("x", "avg", threshold / 2),
        ):
            _assert_same_verdicts(
                log, ConstraintSet([constraint]), groups=[group]
            )

    def test_unhashable_and_overflow_fall_back(self):
        # Groups untouched by the bad values get identical verdicts via
        # the event-materialized fallback; groups carrying them raise
        # the same exception the reference raises.
        log = _attribute_log()
        constraints = ConstraintSet(
            [
                MaxDistinctInstanceAttribute("u", 1),
                MaxInstanceAggregate("big", "max", 1e300),
            ]
        )
        checker = _assert_same_verdicts(
            log, constraints, groups=[frozenset(["c"])]
        )
        assert checker.fallback_checks > 0
        assert checker.kernel_checks == 0
        for group, error in (
            (frozenset(["a"]), TypeError),  # [1, 2] is unhashable
            (frozenset(["b"]), OverflowError),  # 10**400 overflows float()
        ):
            reference = GroupChecker(log, constraints, InstanceIndex(log))
            compiled = GroupChecker(
                log, constraints, CompiledInstanceIndex(log)
            )
            with pytest.raises(error):
                reference.holds(group)
            with pytest.raises(error):
                compiled.holds(group)

    def test_timestampless_log_is_vacuous(self, running_log):
        constraints = ConstraintSet(
            [MaxInstanceDuration(1.0), MaxConsecutiveGap(1.0), MinInstanceDuration(9.0)]
        )
        checker = _assert_same_verdicts(running_log, constraints)
        assert checker.kernel_checks > 0

    def test_mixed_naive_aware_timestamps_fall_back(self):
        log = EventLog(
            [
                Trace([Event("a", {"time:timestamp": datetime(2022, 1, 1)})]),
                Trace(
                    [
                        Event(
                            "b",
                            {
                                "time:timestamp": datetime(
                                    2022, 1, 2, tzinfo=timezone.utc
                                )
                            },
                        )
                    ]
                ),
            ]
        )
        # Event() normalizes construction-time stamps; force a naive one.
        log[0][0].attributes["time:timestamp"] = datetime(2022, 1, 1)
        compiled = CompiledLog(log)
        assert compiled.columns().timestamps() is None
        _assert_same_verdicts(
            log,
            ConstraintSet([MaxInstanceDuration(10.0)]),
            groups=[frozenset(["a"]), frozenset(["b"])],
        )

    def test_custom_subclass_never_kernelized(self, running_log):
        class Flaky(MaxEventsPerClass):
            def check_instance(self, instance, group):
                return len(instance) % 2 == 0

        checker = _assert_same_verdicts(
            running_log,
            ConstraintSet([Flaky(1)]),
            groups=_groups_upto(running_log, max_size=2, limit=40),
        )
        assert checker.kernel_checks == 0

    @pytest.mark.parametrize("policy", POLICIES)
    def test_paper_sets_identical_on_enriched_logs(self, policy):
        from repro.experiments.configs import constraint_set_for_log

        log = _synthetic_log(8, 30)
        for name in ("A", "M", "N", "C2"):
            constraints = constraint_set_for_log(name, log)
            checker = _assert_same_verdicts(
                log,
                constraints,
                groups=_groups_upto(log, max_size=3, limit=120),
                policy=policy,
            )
            assert checker.kernel_checks > 0


class TestExhaustiveFrontier:
    @pytest.mark.parametrize("set_name", ["A", "M", "N", "BL1"])
    def test_exhaustive_identical(self, set_name):
        from repro.experiments.configs import constraint_set_for_log

        log = _synthetic_log(8, 25)
        constraints = constraint_set_for_log(set_name, log)
        reference = exhaustive_candidates(log, constraints)
        compiled = CompiledLog(log)
        checker = GroupChecker(
            log, constraints, CompiledInstanceIndex(log, compiled)
        )
        result = exhaustive_candidates(
            log, constraints, checker=checker, compiled=compiled
        )
        assert result.groups == reference.groups
        assert result.stats.iterations == reference.stats.iterations
        assert result.stats.groups_checked == reference.stats.groups_checked
        assert result.stats.groups_expanded == reference.stats.groups_expanded
        assert result.stats.subset_prunes == reference.stats.subset_prunes

    @pytest.mark.parametrize("set_name", ["A", "M", "N", "BL1", "C2"])
    def test_check_level_matches_per_group_loop(self, set_name):
        """Batched ``check_level`` ≡ one ``holds`` call per group."""
        from repro.experiments.configs import constraint_set_for_log

        log = _synthetic_log(8, 25)
        constraints = constraint_set_for_log(set_name, log)
        compiled = CompiledLog(log)
        runs = {}
        for variant in ("batched", "per_group"):
            checker = GroupChecker(
                log, constraints, CompiledInstanceIndex(log, compiled)
            )
            if variant == "per_group":
                checker.check_level = lambda entries, c=checker: [
                    c.holds_given_satisfying_subset(group)
                    if pruned
                    else c.holds(group)
                    for group, pruned in entries
                ]
            result = exhaustive_candidates(
                log, constraints, checker=checker, compiled=compiled
            )
            runs[variant] = (
                result.groups,
                dataclasses.replace(result.stats, seconds=0.0),
                checker.checks_performed,
                checker.kernel_checks,
                checker._cache,
            )
        assert runs["batched"][0], "no candidates: the frontier never ran"
        assert runs["batched"] == runs["per_group"]

    def test_exhaustive_running_example(self, running_log, role_constraints):
        reference = exhaustive_candidates(running_log, role_constraints)
        compiled = CompiledLog(running_log)
        result = exhaustive_candidates(
            running_log, role_constraints, compiled=compiled
        )
        assert result.groups == reference.groups

    @pytest.mark.parametrize("strategy", ["exhaustive", "dfg"])
    @pytest.mark.parametrize("set_name", ["A", "M", "N"])
    def test_pipeline_strategy_engine_matrix_identical(self, set_name, strategy):
        from repro.experiments.configs import constraint_set_for_log

        log = _synthetic_log(7, 20)
        constraints = constraint_set_for_log(set_name, log)
        config = {"strategy": strategy}
        if strategy == "dfg":
            config["beam_width"] = "auto"
        results = {}
        for engine in ("python", "compiled"):
            results[engine] = Gecco(
                constraints, GeccoConfig(engine=engine, **config)
            ).abstract(log)
        ref, com = results["python"], results["compiled"]
        assert ref.feasible == com.feasible
        assert ref.num_candidates == com.num_candidates
        if ref.feasible:
            assert set(ref.grouping.groups) == set(com.grouping.groups)
            assert ref.distance == com.distance
            for ref_trace, com_trace in zip(
                ref.abstracted_log, com.abstracted_log
            ):
                assert list(ref_trace) == list(com_trace)
                assert ref_trace.attributes == com_trace.attributes


class TestCompiledAbstraction:
    @staticmethod
    def _assert_logs_byte_identical(reference, compiled):
        # Key order counts too: batch rows and pickles keep dict order.
        assert list(reference.attributes.items()) == list(
            compiled.attributes.items()
        )
        assert len(reference) == len(compiled)
        for ref_trace, com_trace in zip(reference, compiled):
            assert list(ref_trace.attributes.items()) == list(
                com_trace.attributes.items()
            )
            assert len(ref_trace) == len(com_trace)
            for ref_event, com_event in zip(ref_trace, com_trace):
                assert ref_event.event_class == com_event.event_class
                assert list(ref_event.attributes) == list(com_event.attributes)
                assert ref_event.attributes == com_event.attributes
                for key, value in ref_event.attributes.items():
                    assert repr(value) == repr(com_event.attributes[key])

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_abstraction_byte_identical(self, loan_log, strategy, policy):
        grouping = (
            Gecco(
                ConstraintSet([MaxGroupSize(4)]),
                GeccoConfig(beam_width="auto"),
            )
            .abstract(loan_log)
            .grouping
        )
        reference = abstract_log(
            loan_log,
            grouping,
            InstanceIndex(loan_log, policy=policy),
            strategy=strategy,
        )
        compiled = abstract_log(
            loan_log,
            grouping,
            CompiledInstanceIndex(loan_log, policy=policy),
            strategy=strategy,
        )
        self._assert_logs_byte_identical(reference, compiled)

    @pytest.mark.parametrize(
        "stamps, foreign",
        [
            (("01/02/2022 10:00", "01/02/2022 11:00"), True),
            ((datetime(2022, 1, 2, 10), datetime(2022, 1, 2, 11)), False),
        ],
        ids=["non-datetime", "naive"],
    )
    def test_non_datetime_stamps_fall_back_to_reference(self, stamps, foreign):
        # Stamps forced in after construction.  The reference emits
        # provenance for *any* non-None timestamp value, so non-datetime
        # stamps route Step 3 to that path; naive ones stay compiled,
        # where ``Event`` must still make the emitted stamp UTC-aware.
        log = EventLog(
            [
                Trace(
                    [
                        Event("a", {}),
                        Event("b", {}),
                    ]
                )
            ]
        )
        for event, stamp in zip(log[0], stamps):
            event.attributes["time:timestamp"] = stamp
        from repro.core.grouping import Grouping

        grouping = Grouping([frozenset(["a", "b"])], log.classes)
        index = CompiledInstanceIndex(log)
        assert index.compiled.columns().timestamps().has_foreign_stamps is foreign
        for strategy in STRATEGIES:
            reference = abstract_log(
                log, grouping, InstanceIndex(log), strategy=strategy
            )
            compiled = abstract_log(log, grouping, index, strategy=strategy)
            self._assert_logs_byte_identical(reference, compiled)

    def test_timestamp_ties_pick_the_same_event(self):
        stamp = datetime(2022, 5, 10, tzinfo=timezone.utc)
        log = EventLog(
            [
                Trace(
                    [
                        Event("a", {"time:timestamp": stamp, "tag": 1}),
                        Event("b", {"time:timestamp": stamp, "tag": 2}),
                    ]
                )
            ]
        )
        from repro.core.grouping import Grouping

        grouping = Grouping([frozenset(["a", "b"])], log.classes)
        for strategy in STRATEGIES:
            reference = abstract_log(
                log, grouping, InstanceIndex(log), strategy=strategy
            )
            compiled = abstract_log(
                log, grouping, CompiledInstanceIndex(log), strategy=strategy
            )
            self._assert_logs_byte_identical(reference, compiled)


class TestFuzzKernels:
    @given(
        data=st.data(),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_fuzz_attribute_verdicts_identical(self, data, seed):
        rng = random.Random(seed)
        classes = ["a", "b", "c", "d"]
        traces = []
        for _ in range(rng.randint(1, 6)):
            events = []
            clock = 0
            for _ in range(rng.randint(1, 10)):
                attrs = {}
                if rng.random() < 0.7:
                    attrs["v"] = rng.choice(
                        [rng.uniform(-5, 5), rng.randint(-3, 3), "str", True]
                    )
                if rng.random() < 0.6:
                    clock += rng.randint(0, 5000)
                    attrs["time:timestamp"] = datetime.fromtimestamp(
                        clock, tz=timezone.utc
                    )
                events.append(Event(rng.choice(classes), attrs))
            traces.append(Trace(events))
        log = EventLog(traces)
        how = data.draw(
            st.sampled_from(["sum", "avg", "min", "max", "count", "distinct"])
        )
        threshold = data.draw(
            st.sampled_from([-2.0, 0.0, 1.0, 2.5, 5.0])
        )
        constraints = ConstraintSet(
            [
                MinInstanceAggregate("v", how, threshold),
                MaxInstanceAggregate("v", how, threshold),
                MaxInstanceDuration(2500.0),
                MaxConsecutiveGap(2000.0),
                MaxEventsPerClass(2),
                AtLeastFraction(MinInstanceAggregate("v", how, threshold), 0.5),
            ]
        )
        policy = data.draw(st.sampled_from(POLICIES))
        _assert_same_verdicts(
            log,
            constraints,
            groups=_groups_upto(log, max_size=3, limit=30),
            policy=policy,
        )


class TestExtractionMemo:
    def test_python_engine_scans_each_instance_once_per_key(self):
        from repro.constraints import aggregates

        scans = 0

        class CountingDict(dict):
            def __contains__(self, key):
                nonlocal scans
                scans += 1
                return super().__contains__(key)

        events = [Event("a", {"duration": 1.0}), Event("b", {"duration": 2.0})]
        for event in events:
            event.attributes = CountingDict(event.attributes)
        instance = events
        aggregates._extraction_cache.clear()
        first = aggregates.aggregate(instance, "duration", "sum")
        probes_after_first = scans
        second = aggregates.aggregate(instance, "duration", "avg")
        assert (first, second) == (3.0, 1.5)
        # The second aggregate reuses the memoized extraction.
        assert scans == probes_after_first

    def test_memo_is_identity_safe(self):
        from repro.constraints import aggregates

        aggregates._extraction_cache.clear()
        one = [Event("a", {"k": 1.0})]
        two = [Event("a", {"k": 2.0})]
        assert aggregates.aggregate(one, "k", "sum") == 1.0
        assert aggregates.aggregate(two, "k", "sum") == 2.0
        assert aggregates.aggregate(one, "k", "sum") == 1.0
