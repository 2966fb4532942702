"""Property-based tests (hypothesis) on core invariants."""

import random

from hypothesis import given, settings, strategies as st

from repro.core.candidates import exhaustive_candidates
from repro.core.checker import GroupChecker
from repro.core.distance import DistanceFunction, interrupts
from repro.core.grouping import Grouping
from repro.core.instances import instances_in_trace
from repro.core.selection import build_program, select_optimal_grouping
from repro.constraints import ConstraintSet, MaxGroupSize
from repro.eventlog import xes
from repro.eventlog.dfg import compute_dfg
from repro.eventlog.events import Event, EventLog, Trace, log_from_variants
from repro.mip.branch_and_bound import PartitionProgram, SetPartitionSolver
from repro.mip import scipy_backend

# -- strategies ----------------------------------------------------------------

CLASSES = ["a", "b", "c", "d", "e"]

variant_strategy = st.lists(
    st.sampled_from(CLASSES), min_size=1, max_size=8
)

log_strategy = st.lists(variant_strategy, min_size=1, max_size=8).map(
    log_from_variants
)

group_strategy = st.sets(st.sampled_from(CLASSES), min_size=1, max_size=5).map(
    frozenset
)


# -- instance invariants ---------------------------------------------------------


@given(variant=variant_strategy, group=group_strategy)
def test_instances_partition_the_projection(variant, group):
    """The instances of a group partition the projected positions, in order."""
    trace = Trace([Event(cls) for cls in variant])
    instances = instances_in_trace(trace, group)
    flattened = [position for instance in instances for position in instance]
    expected = [
        index for index, cls in enumerate(variant) if cls in group
    ]
    assert flattened == expected


@given(variant=variant_strategy, group=group_strategy)
def test_repeat_split_instances_have_distinct_classes(variant, group):
    trace = Trace([Event(cls) for cls in variant])
    for instance in instances_in_trace(trace, group):
        classes = [trace[p].event_class for p in instance]
        assert len(classes) == len(set(classes))


@given(variant=variant_strategy, group=group_strategy)
def test_interrupts_bounded_by_span(variant, group):
    trace = Trace([Event(cls) for cls in variant])
    for instance in instances_in_trace(trace, group):
        assert 0 <= interrupts(instance) <= len(variant)


# -- distance invariants ----------------------------------------------------------


@given(log=log_strategy, group=group_strategy)
@settings(max_examples=60)
def test_distance_non_negative(log, group):
    assert DistanceFunction(log).group_distance(group) >= 0.0


@given(log=log_strategy)
@settings(max_examples=40)
def test_singleton_distance_exactly_one_when_present(log):
    distance = DistanceFunction(log)
    for cls in log.classes:
        assert distance.group_distance({cls}) == 1.0


@given(log=log_strategy, groups=st.lists(group_strategy, min_size=1, max_size=4))
@settings(max_examples=40)
def test_grouping_distance_is_sum(log, groups):
    distance = DistanceFunction(log)
    assert abs(
        distance.grouping_distance(groups)
        - sum(distance.group_distance(g) for g in groups)
    ) < 1e-9


# -- candidate invariants ----------------------------------------------------------


@given(log=log_strategy)
@settings(max_examples=25, deadline=None)
def test_candidates_occur_and_satisfy_constraints(log):
    constraints = ConstraintSet([MaxGroupSize(3)])
    result = exhaustive_candidates(log, constraints)
    checker = GroupChecker(log, constraints)
    for group in result.groups:
        assert log.occurs(group)
        assert len(group) <= 3
        assert checker.holds(group)


@given(log=log_strategy)
@settings(max_examples=25, deadline=None)
def test_dfg_edges_imply_co_occurrence(log):
    dfg = compute_dfg(log)
    for a, b in dfg.edge_counts:
        assert log.occurs({a, b})


# -- selection / MIP invariants -----------------------------------------------------


@given(log=log_strategy)
@settings(max_examples=25, deadline=None)
def test_selected_grouping_is_exact_cover(log):
    constraints = ConstraintSet([])
    candidates = exhaustive_candidates(log, constraints).groups
    distance = DistanceFunction(log)
    result = select_optimal_grouping(log, candidates, distance, backend="bnb")
    assert result.feasible
    covered = sorted(cls for group in result.grouping for cls in group)
    assert covered == sorted(log.classes)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_backends_agree_on_random_partitions(seed):
    rng = random.Random(seed)
    universe = [f"c{i}" for i in range(rng.randint(2, 6))]
    candidates = [frozenset({cls}) for cls in universe]
    for _ in range(rng.randint(0, 10)):
        size = rng.randint(1, len(universe))
        candidates.append(frozenset(rng.sample(universe, size)))
    candidates = list(dict.fromkeys(candidates))
    costs = [round(rng.uniform(0.0, 2.0), 3) for _ in candidates]

    partition = PartitionProgram.encode(universe, candidates, costs)
    bnb = SetPartitionSolver(partition).solve()
    program = build_program(partition)
    hi = scipy_backend.solve(program)
    assert bnb.status == hi.status
    if bnb.is_optimal:
        assert abs(bnb.objective - hi.objective) < 1e-6


# -- grouping invariants -------------------------------------------------------------


@given(log=log_strategy)
@settings(max_examples=30)
def test_singleton_grouping_always_valid(log):
    grouping = Grouping([[cls] for cls in log.classes], log.classes)
    assert len(grouping) == len(log.classes)


# -- serialization invariants ----------------------------------------------------------


@given(log=log_strategy)
@settings(max_examples=30)
def test_xes_roundtrip_preserves_variants(log):
    recovered = xes.loads(xes.dumps(log))
    assert [t.variant() for t in recovered] == [t.variant() for t in log]
