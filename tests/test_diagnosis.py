"""Kernel vs. reference infeasibility diagnosis (paper §V-C).

``ConstraintSet.diagnose`` takes its per-class violation counts from a
counter.  On the compiled engine, ``GroupChecker.count_violations``
counts them on the Step-1 kernels over the stacked singleton
instances; the reference ``count_violations`` checks every instance of
every singleton with ``check_instance``.  The two reports must be
equal, dict insertion order included, on the Table V grid and on every
fallback route (no ``codes`` column, mixed naive/aware stamps, unknown
constraint subclasses, the group-dependent ``MinEventsPerClass``
kernel, loose wrappers) — and on the pure-Python engine, where the
checker's counter is the reference loop itself.
"""

from datetime import datetime, timedelta, timezone

import pytest

from repro.constraints import (
    AtLeastFraction,
    ConstraintSet,
    MaxConsecutiveGap,
    MaxDistinctInstanceAttribute,
    MaxEventsPerClass,
    MaxGroupSize,
    MaxInstanceAggregate,
    MaxInstanceDuration,
    MinEventsPerClass,
    MinInstanceAggregate,
    MinInstanceDuration,
)
from repro.core.checker import GroupChecker
from repro.core.encoding import HAVE_NUMPY, CompiledInstanceIndex
from repro.core.instances import InstanceIndex
from repro.datasets.collection import TABLE_III_SPECS, build_log
from repro.eventlog.events import ROLE_KEY, TIMESTAMP_KEY, Event, EventLog, Trace
from repro.experiments.configs import constraint_set_for_log

pytestmark = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")

#: The Table V sets with instance-based constraints.
INSTANCE_SETS = ("A", "M", "N", "C1", "C2")


def _reports(log, constraints, policy="repeat"):
    """``(kernel report, reference report, compiled index)`` for one cell."""
    index = CompiledInstanceIndex(log, policy=policy)
    checker = GroupChecker(log, constraints, index)
    args = (log, checker.class_attributes, index.events, ())
    kernel = constraints.diagnose(*args, counter=checker.count_violations)
    reference = constraints.diagnose(
        log, checker.class_attributes, InstanceIndex(log, policy=policy).events, ()
    )
    return kernel, reference, index


def _assert_reports_equal(kernel, reference):
    assert kernel == reference
    # ``summary()`` breaks ties by insertion order: pin it too.
    fractions = kernel.instance_violation_fractions
    expected = reference.instance_violation_fractions
    assert list(fractions) == list(expected)
    for key in expected:
        assert list(fractions[key].items()) == list(expected[key].items())
    assert list(kernel.class_constraint_violations) == list(
        reference.class_constraint_violations
    )
    assert kernel.summary() == reference.summary()


@pytest.fixture(scope="module")
def table_v_logs():
    return {
        spec.name: build_log(spec, max_traces=50, max_classes=10)
        for spec in TABLE_III_SPECS
    }


class TestTableVGrid:
    @pytest.mark.parametrize("set_name", INSTANCE_SETS)
    def test_kernel_report_equals_reference(self, table_v_logs, set_name):
        findings = 0
        for log in table_v_logs.values():
            constraints = constraint_set_for_log(set_name, log)
            kernel, reference, index = _reports(log, constraints)
            _assert_reports_equal(kernel, reference)
            findings += len(reference.instance_violation_fractions)
            # Every constraint here has a kernel: no event materialized.
            assert not index._events_cache
        if set_name != "A":
            assert findings, "the grid must exercise violating instances"

    @pytest.mark.parametrize("policy", ["none", "gap"])
    def test_multi_event_singleton_instances(self, table_v_logs, policy):
        # Under ``none``/``gap`` singleton instances span several events,
        # so the distinct, duration, gap and per-class kernels can fail.
        constraints = ConstraintSet(
            [
                MaxGroupSize(8),
                MaxDistinctInstanceAttribute(ROLE_KEY, 1),
                MaxInstanceDuration(3600.0),
                MinInstanceDuration(60.0),
                MaxConsecutiveGap(600.0),
                MaxEventsPerClass(1),
                MinEventsPerClass(2),
            ]
        )
        findings = 0
        for name in ("sepsis", "bpic12", "road_fines"):
            kernel, reference, _ = _reports(
                table_v_logs[name], constraints, policy
            )
            _assert_reports_equal(kernel, reference)
            findings += len(reference.instance_violation_fractions)
        assert findings >= 3


def _fallback_log(naive_trace=None, unhashable=False):
    base = datetime(2024, 1, 1, tzinfo=timezone.utc)
    traces = []
    for t in range(6):
        events = []
        for position, cls in enumerate("abcab"[: 3 + t % 3]):
            attributes = {
                "cost": float(10 * t + position),
                "tag": [t] if unhashable and position == 1 else f"v{t % 2}",
                TIMESTAMP_KEY: base + timedelta(minutes=7 * t + 3 * position),
            }
            events.append(Event(cls, attributes))
        traces.append(Trace(events))
    if naive_trace is not None:
        # Event() normalizes construction-time stamps; force naive ones.
        for event in traces[naive_trace]:
            stamp = event.attributes[TIMESTAMP_KEY]
            event.attributes[TIMESTAMP_KEY] = stamp.replace(tzinfo=None)
    return EventLog(traces)


class _CappedCost(MaxInstanceAggregate):
    """A subclass: unknown to the kernel compiler, so no kernel."""


class TestFallbacks:
    def test_unhashable_values_have_no_codes_column(self):
        # The codes column is unavailable, so the kernel counter falls
        # back to the reference loop and raises its error.
        log = _fallback_log(unhashable=True)
        constraints = ConstraintSet(
            [
                MaxInstanceAggregate("cost", "sum", 25.0),
                MaxDistinctInstanceAttribute("tag", 1),
            ]
        )
        index = CompiledInstanceIndex(log)
        checker = GroupChecker(log, constraints, index)
        assert index.compiled.columns().codes("tag") is None
        for counter in (checker.count_violations, None):
            with pytest.raises(TypeError, match="unhashable"):
                constraints.diagnose(
                    log, None, index.events, (), counter=counter
                )

    def test_mixed_naive_and_aware_stamps(self):
        log = _fallback_log(naive_trace=4)
        constraints = ConstraintSet(
            [MinInstanceDuration(1.0), MaxInstanceAggregate("cost", "max", 30.0)]
        )
        # Each ``repeat`` singleton instance holds one stamp, so the
        # reference never compares a naive with an aware stamp.
        kernel, reference, index = _reports(log, constraints)
        _assert_reports_equal(kernel, reference)
        assert index.compiled.columns().timestamps() is None
        assert len(kernel.instance_violation_fractions) == 2

    def test_unknown_subclass(self):
        log = _fallback_log()
        constraints = ConstraintSet(
            [_CappedCost("cost", "sum", 20.0), MinInstanceAggregate("cost", "min", 5.0)]
        )
        kernel, reference, _ = _reports(log, constraints, "none")
        _assert_reports_equal(kernel, reference)
        assert len(kernel.instance_violation_fractions) == 2

    def test_min_events_per_class_runs_per_singleton(self):
        log = _fallback_log()
        constraints = ConstraintSet(
            [MinEventsPerClass(2), MinEventsPerClass(2, classes=["a", "z"])]
        )
        kernel, reference, index = _reports(log, constraints, "none")
        _assert_reports_equal(kernel, reference)
        assert kernel.instance_violation_fractions
        assert not index._events_cache

    def test_loose_wrappers(self):
        log = _fallback_log()
        constraints = ConstraintSet(
            [
                AtLeastFraction(MaxInstanceAggregate("cost", "avg", 20.0), 0.5),
                AtLeastFraction(
                    AtLeastFraction(MaxConsecutiveGap(300.0), 0.9), 0.5
                ),
                AtLeastFraction(MinEventsPerClass(2), 0.5),
            ]
        )
        kernel, reference, index = _reports(log, constraints, "none")
        _assert_reports_equal(kernel, reference)
        assert len(kernel.instance_violation_fractions) == 3
        assert not index._events_cache

    def test_duplicate_descriptions_keep_reference_overwrite(self):
        log = _fallback_log()
        constraints = ConstraintSet(
            [
                MaxInstanceAggregate("cost", "sum", 20.0),
                MinInstanceAggregate("cost", "sum", 1e9),
                MaxInstanceAggregate("cost", "sum", 20.0),
            ]
        )
        kernel, reference, _ = _reports(log, constraints, "none")
        _assert_reports_equal(kernel, reference)


class TestPythonEngine:
    def test_counter_is_the_reference_loop(self, table_v_logs):
        log = table_v_logs["bpic15"]
        constraints = constraint_set_for_log("C2", log)
        index = InstanceIndex(log)
        checker = GroupChecker(log, constraints, index)
        report = constraints.diagnose(
            log, None, index.events, (), counter=checker.count_violations
        )
        kernel, reference, _ = _reports(log, constraints)
        _assert_reports_equal(report, reference)
        _assert_reports_equal(kernel, report)
