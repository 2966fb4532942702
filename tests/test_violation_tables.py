"""Per-type violation tables across the Table II instance constraints.

Each row is one instance (the single-class events of one trace) and the
number of the listed constraints it violates, at vectors around each
threshold: below, at, above, and vacuous (no carrier of the attribute).
The count must match exactly under the reference ``check_instance`` and
under the columnar kernels' ``verdict_array`` — the per-instance
verdicts that Step 1's loose wrappers and the infeasibility diagnosis
count.  The reference half needs no numpy.
"""

from datetime import datetime, timedelta, timezone

import pytest

from repro.constraints import (
    AtLeastFraction,
    MaxConsecutiveGap,
    MaxDistinctInstanceAttribute,
    MaxEventsPerClass,
    MaxInstanceAggregate,
    MaxInstanceDuration,
    MinDistinctInstanceAttribute,
    MinEventsPerClass,
    MinInstanceAggregate,
    MinInstanceDuration,
)
from repro.core.encoding import HAVE_NUMPY
from repro.eventlog.events import TIMESTAMP_KEY, Event, EventLog, Trace

GROUP = frozenset(["a"])
EPOCH = datetime(2024, 1, 1, tzinfo=timezone.utc)

ENGINES = [
    "reference",
    pytest.param(
        "kernel",
        marks=pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed"),
    ),
]


def _count_constraints_violated(constraints, instance):
    violated = 0
    for constraint in constraints:
        if not constraint.check_instance(instance, GROUP):
            violated += 1
    return violated


def _count_kernel_violations(constraints, instance):
    import numpy as np

    from repro.core.columns import compile_instance_kernels
    from repro.core.encoding import CompiledInstanceIndex

    log = EventLog([Trace(instance)])
    index = CompiledInstanceIndex(log, policy="none")
    stats = index.stats(GROUP)
    assert len(stats) == 1
    violated = 0
    for _, kernel in compile_instance_kernels(constraints, index.compiled):
        assert kernel is not None
        verdicts = kernel.verdict_array(stats, GROUP)
        violated += int(np.count_nonzero(~verdicts))
    return violated


def _violations(engine, constraints, instance):
    if engine == "reference":
        return _count_constraints_violated(constraints, instance)
    return _count_kernel_violations(constraints, instance)


def _valued(values, key="x"):
    """One ``a`` event per value; ``None`` is an event without ``key``."""
    return [
        Event("a", {} if value is None else {key: value}) for value in values
    ]


def _stamped(seconds):
    """One ``a`` event per offset; ``None`` is an event without a stamp."""
    return [
        Event(
            "a",
            {} if offset is None else {TIMESTAMP_KEY: EPOCH + timedelta(seconds=offset)},
        )
        for offset in seconds
    ]


def _bounds(how, threshold):
    """The lower and the upper bound of one aggregate at one threshold."""
    return [
        MinInstanceAggregate("x", how, threshold),
        MaxInstanceAggregate("x", how, threshold),
    ]


#: ``(how, threshold, values, violations)``: a vector below the
#: threshold violates the lower bound, one above it the upper bound.
AGGREGATE_TABLE = [
    ("sum", 10.0, [4.0, 5.0], 1),
    ("sum", 10.0, [4.0, 6.0], 0),
    ("sum", 10.0, [5.0, 6.0], 1),
    ("sum", 10.0, [None, None], 0),
    ("avg", 10.0, [9.0, 9.0], 1),
    ("avg", 10.0, [8.0, 12.0], 0),
    ("avg", 10.0, [11.0, 11.0, None], 1),
    ("avg", 10.0, [None], 0),
    ("min", 10.0, [9.0, 20.0], 1),
    ("min", 10.0, [10.0, 20.0], 0),
    ("min", 10.0, [11.0, 20.0], 1),
    ("min", 10.0, ["text", None], 0),
    ("max", 10.0, [1.0, 9.0], 1),
    ("max", 10.0, [1.0, 10.0], 0),
    ("max", 10.0, [1.0, 11.0], 1),
    ("max", 10.0, [True, None], 0),
    # count and distinct are 0, not vacuous, without a carrier.
    ("count", 2.0, ["p", None], 1),
    ("count", 2.0, ["p", "p"], 0),
    ("count", 2.0, ["p", "q", "r"], 1),
    ("count", 2.0, [None, None], 1),
    ("distinct", 2.0, ["p", "p"], 1),
    ("distinct", 2.0, ["p", "q", "p"], 0),
    ("distinct", 2.0, ["p", "q", "r"], 1),
    ("distinct", 2.0, [None], 1),
]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("how, threshold, values, expected", AGGREGATE_TABLE)
def test_aggregate_bounds(engine, how, threshold, values, expected):
    constraints = _bounds(how, threshold)
    assert _violations(engine, constraints, _valued(values)) == expected


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize(
    "values, expected",
    [(["p"], 1), (["p", "q"], 0), (["p", "q", 1.0, "p"], 1), ([None], 1)],
)
def test_distinct_bounds(engine, values, expected):
    constraints = [
        MinDistinctInstanceAttribute("x", 2),
        MaxDistinctInstanceAttribute("x", 2),
    ]
    assert _violations(engine, constraints, _valued(values)) == expected


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize(
    "seconds, expected",
    [
        ([0, 30], 1),
        ([0, 60], 0),
        ([90, 0, 30], 1),
        ([0], 1),  # one stamp spans 0 s, below the lower bound
        ([None, None], 0),
    ],
)
def test_duration_bounds(engine, seconds, expected):
    constraints = [MinInstanceDuration(60.0), MaxInstanceDuration(60.0)]
    assert _violations(engine, constraints, _stamped(seconds)) == expected


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize(
    "seconds, expected",
    [([0, 30, 60], 0), ([0, 60], 0), ([0, 30, 91], 1), ([0, None], 0)],
)
def test_consecutive_gap(engine, seconds, expected):
    constraints = [MaxConsecutiveGap(60.0)]
    assert _violations(engine, constraints, _stamped(seconds)) == expected


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize(
    "events, expected",
    [(1, 1), (2, 0), (3, 1)],
)
def test_events_per_class_bounds(engine, events, expected):
    constraints = [MinEventsPerClass(2), MaxEventsPerClass(2)]
    assert _violations(engine, constraints, _valued([None] * events)) == expected


@pytest.mark.parametrize("engine", ENGINES)
def test_events_per_class_vacuous_targets(engine):
    # No target class in the group: nothing to require.
    constraints = [MinEventsPerClass(2, classes=["b"])]
    assert _violations(engine, constraints, _valued([None])) == 0


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("how, threshold, values, expected", AGGREGATE_TABLE)
def test_loose_wrappers_judge_like_the_inner_constraint(
    engine, how, threshold, values, expected
):
    # A loose wrapper judges each instance with its (innermost) inner
    # constraint; only the group-level fold differs.
    lower, upper = _bounds(how, threshold)
    constraints = [
        AtLeastFraction(lower, 0.5),
        AtLeastFraction(AtLeastFraction(upper, 0.9), 0.5),
    ]
    assert _violations(engine, constraints, _valued(values)) == expected
