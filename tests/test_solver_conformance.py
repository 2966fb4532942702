"""Solver conformance & property harness for the Step-2 frontier.

Locks down the solver-frontier behaviors against a brute-force oracle:

* **LP-relaxation bound admissibility** — the count-aware dual-price
  lower bound of :class:`~repro.mip.branch_and_bound.SetPartitionSolver`
  never exceeds the cheapest completion of any partial solution on
  hypothesis-generated weighted set-partitioning instances, so enabling
  it can never change the returned selection.
* **Reduced-cost fixing** — the lex-min tie-break, with candidates
  dropped by their reduced costs, still returns the oracle's lex-min
  optimum.
* **Backend conformance** — ``bnb``, ``bnb + LP``, and HiGHS produce
  byte-identical canonical groupings (the lex-min tie-break) for every
  instance, including tied costs, Eq. 5 count bounds, and infeasible
  programs.
"""

from __future__ import annotations

import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import SolverError
from repro.mip import scipy_backend
from repro.mip.branch_and_bound import (
    SetPartitionSolver,
    lexmin_optimal_selection,
    lp_prices,
)
from repro.mip.result import SolverStatus
from repro.selection2 import Component, portfolio, solve_component
from repro.selection2.stats import SelectionStats

needs_scipy = pytest.mark.skipif(
    not scipy_backend.HAVE_SCIPY, reason="scipy (HiGHS) not installed"
)


# -- instance generation & reference oracle -----------------------------


def feasible_covers(classes, candidates, costs, min_count=None, max_count=None):
    """Every exact cover within the count bounds, as ``(cost, positions)``."""
    universe = frozenset(classes)
    n = len(candidates)
    for bits in range(1 << n):
        positions = [i for i in range(n) if bits >> i & 1]
        if min_count is not None and len(positions) < min_count:
            continue
        if max_count is not None and len(positions) > max_count:
            continue
        covered: set = set()
        total = 0.0
        disjoint = True
        for position in positions:
            if covered & candidates[position]:
                disjoint = False
                break
            covered |= candidates[position]
            total += costs[position]
        if disjoint and covered == universe:
            yield total, positions


def brute_force(classes, candidates, costs, min_count=None, max_count=None):
    """``(cost, lex-min positions)`` of the optimal exact cover, or ``None``.

    Exhaustive enumeration over candidate subsets; costs are multiples
    of 0.5 so equal-cost comparisons are float-exact and the lex-min
    argmin among the optima is well-defined.
    """
    return min(
        feasible_covers(classes, candidates, costs, min_count, max_count),
        default=None,
    )


@st.composite
def partition_instances(draw):
    """Random weighted set-partitioning instances, biased toward ties.

    Candidates are in the repo's canonical order (sorted by sorted
    member tuple); costs come from a small half-integer grid so
    equal-cost optima are common and the lex-min tie-break is
    exercised, not just tolerated.
    """
    num_classes = draw(st.integers(min_value=2, max_value=6))
    classes = [f"c{i}" for i in range(num_classes)]
    groups = draw(
        st.lists(
            st.sets(st.sampled_from(classes), min_size=1),
            min_size=1,
            max_size=10,
        )
    )
    if draw(st.booleans()):
        groups.extend({cls} for cls in classes)  # guarantee feasibility
    candidates = sorted(
        {frozenset(group) for group in groups}, key=lambda g: sorted(g)
    )
    costs = [
        draw(st.integers(min_value=0, max_value=6)) / 2.0 for _ in candidates
    ]
    max_count = draw(
        st.one_of(st.none(), st.integers(min_value=1, max_value=num_classes))
    )
    min_count = draw(
        st.one_of(
            st.none(),
            st.integers(min_value=1, max_value=num_classes),
            st.just(max_count),  # min == max: an exact-count program
        )
    )
    return classes, candidates, costs, min_count, max_count


def _component(classes, candidates, costs) -> Component:
    return Component(
        classes=tuple(classes),
        candidates=tuple(candidates),
        costs=tuple(costs),
    )


def _dense_instance(num_classes=14, num_candidates=160, seed=7):
    """A dense instance whose bnb tree is big enough for LP cuts."""
    rng = random.Random(seed)
    classes = [f"c{i:02d}" for i in range(num_classes)]
    candidates = [frozenset([cls]) for cls in classes]
    seen = set(candidates)
    while len(candidates) < num_candidates:
        group = frozenset(rng.sample(classes, rng.randint(2, 4)))
        if group not in seen:
            seen.add(group)
            candidates.append(group)
    costs = [round(rng.uniform(1.0, 6.0) * 2) / 2.0 for _ in candidates]
    return classes, candidates, costs


def _canonical_positions(
    solver_result, classes, candidates, costs, min_count, max_count
):
    positions = sorted(
        int(name[1:])
        for name in solver_result.selected()
        if name.startswith("g")
    )
    canonical = lexmin_optimal_selection(
        sorted(classes),
        list(candidates),
        list(costs),
        target=sum(costs[position] for position in positions),
        min_count=min_count,
        max_count=max_count,
    )
    return canonical if canonical is not None else positions


# -- LP bound admissibility ---------------------------------------------


@needs_scipy
@settings(max_examples=60, deadline=None)
@given(partition_instances())
def test_lp_bound_is_admissible(instance):
    classes, candidates, costs, min_count, max_count = instance
    solver = SetPartitionSolver(
        universe=classes,
        candidates=candidates,
        costs=costs,
        min_count=min_count,
        max_count=max_count,
    )
    solver._solve_lp_relaxation()
    if solver.prices is None:
        return  # LP unavailable/failed: nothing to certify
    for cost, positions in feasible_covers(
        classes, candidates, costs, min_count, max_count
    ):
        # Admissibility at the root and at every partial node on the
        # way to any feasible cover: the count-aware dual bound never
        # exceeds the cost of the rest of that cover.
        for bits in range(1 << len(positions)):
            picked = [p for i, p in enumerate(positions) if bits >> i & 1]
            covered = frozenset().union(*(candidates[p] for p in picked))
            rest = cost - sum(costs[p] for p in picked)
            assert solver._dual_bound(covered, len(picked)) <= rest + 1e-9


@needs_scipy
@settings(max_examples=60, deadline=None)
@given(partition_instances())
def test_lp_bound_preserves_exact_solution(instance):
    classes, candidates, costs, min_count, max_count = instance
    plain = SetPartitionSolver(
        universe=classes, candidates=candidates, costs=costs,
        min_count=min_count, max_count=max_count,
    ).solve()
    bounded = SetPartitionSolver(
        universe=classes, candidates=candidates, costs=costs,
        min_count=min_count, max_count=max_count, lp_bound=True,
    ).solve()
    assert plain.status is bounded.status
    if plain.status is SolverStatus.OPTIMAL:
        assert _canonical_positions(
            plain, classes, candidates, costs, min_count, max_count
        ) == _canonical_positions(
            bounded, classes, candidates, costs, min_count, max_count
        )
        assert bounded.nodes_explored <= plain.nodes_explored


@settings(max_examples=80, deadline=None)
@given(partition_instances())
def test_fixed_lexmin_matches_brute_force(instance):
    """Reduced-cost fixing never drops a candidate of the lex-min optimum.

    Runs with and without scipy: without it there are no prices, so the
    search runs unfixed and must still agree with the oracle.
    """
    classes, candidates, costs, min_count, max_count = instance
    reference = brute_force(classes, candidates, costs, min_count, max_count)
    if reference is None:
        return
    target, expected = reference
    prices = lp_prices(classes, candidates, costs, min_count, max_count)
    for shared in (prices, None):
        assert lexmin_optimal_selection(
            classes, candidates, costs, target,
            min_count=min_count, max_count=max_count, prices=shared,
        ) == expected


def test_lp_bound_strictly_reduces_nodes():
    if not scipy_backend.HAVE_SCIPY:
        pytest.skip("scipy (HiGHS) not installed")
    classes, candidates, costs = _dense_instance()
    plain = SetPartitionSolver(
        universe=classes, candidates=candidates, costs=costs
    ).solve()
    bounded = SetPartitionSolver(
        universe=classes, candidates=candidates, costs=costs, lp_bound=True
    ).solve()
    assert plain.status is SolverStatus.OPTIMAL
    assert bounded.status is SolverStatus.OPTIMAL
    assert bounded.objective == pytest.approx(plain.objective)
    assert bounded.lp_bound_cuts > 0
    assert bounded.nodes_explored < plain.nodes_explored
    assert plain.lp_bound_cuts == 0


def test_lp_bound_off_without_scipy(monkeypatch):
    """The LP path degrades to the cost-share bound when scipy is absent."""
    monkeypatch.setattr(scipy_backend, "HAVE_SCIPY", False)
    classes, candidates, costs = _dense_instance(num_classes=8, num_candidates=40)
    solver = SetPartitionSolver(
        universe=classes, candidates=candidates, costs=costs, lp_bound=True
    )
    outcome = solver.solve()
    assert outcome.status is SolverStatus.OPTIMAL
    assert outcome.lp_bound_cuts == 0
    assert solver.prices is None


# -- backend conformance (bnb ± LP ≡ HiGHS, lex-min stability) ----------


@needs_scipy
@settings(max_examples=60, deadline=None)
@given(partition_instances())
def test_backends_byte_identical(instance):
    classes, candidates, costs, min_count, max_count = instance
    component = _component(classes, candidates, costs)
    reference = brute_force(classes, candidates, costs, min_count, max_count)
    outcomes = {
        backend: solve_component(
            component, backend=backend, min_count=min_count, max_count=max_count
        )
        for backend in ("bnb", "scipy", "auto")
    }
    bounded = SetPartitionSolver(
        universe=classes, candidates=candidates, costs=costs,
        min_count=min_count, max_count=max_count, lp_bound=True,
    ).solve()

    if reference is None:
        for backend, solution in outcomes.items():
            assert solution.status == SolverStatus.INFEASIBLE.value, backend
        assert bounded.status is SolverStatus.INFEASIBLE
        return

    expected_cost, expected_positions = reference
    expected_groups = tuple(
        tuple(sorted(candidates[position])) for position in expected_positions
    )
    for backend, solution in outcomes.items():
        assert solution.is_optimal, backend
        assert solution.canonical, backend
        assert solution.objective == pytest.approx(expected_cost), backend
        # Byte-identical groupings: the canonical lex-min optimum,
        # regardless of which backend produced it.
        assert solution.groups == expected_groups, backend
    assert _canonical_positions(
        bounded, classes, candidates, costs, min_count, max_count
    ) == list(expected_positions)


@needs_scipy
@settings(max_examples=40, deadline=None)
@given(partition_instances(), st.randoms(use_true_random=False))
def test_lexmin_stable_under_candidate_shuffle(instance, rng):
    """The selected *groups* ignore the order candidates were generated in.

    Any presentation order, once canonically sorted (as every call site
    sorts), yields the same lex-min optimum — ties are broken by group
    content, never by arrival order.
    """
    classes, candidates, costs, min_count, max_count = instance
    paired = list(zip(candidates, costs))
    rng.shuffle(paired)
    resorted = sorted(paired, key=lambda pair: sorted(pair[0]))
    shuffled = _component(
        classes, [pair[0] for pair in resorted], [pair[1] for pair in resorted]
    )
    original = solve_component(
        _component(classes, candidates, costs), backend="bnb",
        min_count=min_count, max_count=max_count,
    )
    again = solve_component(
        shuffled, backend="bnb", min_count=min_count, max_count=max_count
    )
    assert original.status == again.status
    assert original.groups == again.groups


@needs_scipy
def test_fixing_drops_candidates_and_keeps_the_lexmin(monkeypatch):
    classes, candidates, costs = _dense_instance(num_classes=9, num_candidates=48)
    optimum = SetPartitionSolver(
        universe=classes, candidates=candidates, costs=costs
    ).solve()
    prices = lp_prices(classes, candidates, costs)
    survivors = [
        position
        for position, group in enumerate(candidates)
        if prices.floor + prices.reduced_cost(group, costs[position])
        <= optimum.objective + 1e-9 + prices.margin
    ]
    assert len(survivors) < len(candidates) // 2
    fixed = lexmin_optimal_selection(
        classes, candidates, costs, optimum.objective, prices=prices
    )
    monkeypatch.setattr(scipy_backend, "HAVE_SCIPY", False)
    plain = lexmin_optimal_selection(classes, candidates, costs, optimum.objective)
    assert plain is not None
    assert fixed == plain
    assert set(fixed) <= set(survivors)


#: The grouping of the loan log (80 traces) under BL4 (exactly 12
#: groups) with DFGk, as the monolithic HiGHS solve picks it.
LOAN_BL4_GROUPS = [
    ('A_Accepted', 'W_CompleteApp'),
    ('A_Cancelled', 'O_Cancelled'),
    ('A_Complete', 'A_Validating'),
    ('A_Concept', 'A_Create', 'A_Submitted'),
    ('A_Denied', 'O_Refused'),
    ('A_Incomplete', 'O_Returned', 'W_CallIncomplete'),
    ('A_Pending', 'O_Accepted'),
    ('O_Create', 'O_Created', 'O_SentMail'),
    ('O_SentOnline', 'W_CallOffers'),
    ('W_AssessFraud',),
    ('W_HandleLeads',),
    ('W_ValidateApp',),
]


@needs_scipy
def test_loan_bl4_exact_count_canonicalizes():
    """An exact-count program whose unfixed tie-break ran out of nodes."""
    from repro import Gecco, GeccoConfig
    from repro.datasets import loan_application_log
    from repro.experiments.configs import constraint_set_for_log

    log = loan_application_log(num_traces=80)
    result = Gecco(
        constraint_set_for_log("BL4", log), GeccoConfig.dfg_adaptive()
    ).abstract(log)
    assert result.selection_stats.canonical_aborts == 0
    assert sorted(
        tuple(sorted(group)) for group in result.grouping.groups
    ) == LOAN_BL4_GROUPS


# -- the auto policy -----------------------------------------------------


def test_auto_without_scipy_reports_the_bnb_error(monkeypatch):
    """Without HiGHS to fall back to, bnb's own budget error surfaces."""
    monkeypatch.setattr(scipy_backend, "HAVE_SCIPY", False)
    classes, candidates, costs = _dense_instance(
        num_classes=16, num_candidates=220, seed=11
    )
    component = _component(classes, candidates, costs)
    with pytest.raises(SolverError, match="time limit") as caught:
        solve_component(component, backend="auto", time_limit=1e-6)
    assert "requires scipy" not in str(caught.value)


def test_forced_canonical_abort_is_counted(monkeypatch):
    """A tie-break that runs out of nodes keeps the solver's pick, visibly."""
    classes, candidates, costs = _dense_instance(num_classes=8, num_candidates=30)
    component = _component(classes, candidates, costs)
    clean = solve_component(component, backend="auto")
    assert clean.canonical
    monkeypatch.setattr(
        portfolio,
        "lexmin_optimal_selection",
        functools.partial(lexmin_optimal_selection, node_limit=1),
    )
    aborted = solve_component(component, backend="auto")
    assert aborted.is_optimal and not aborted.canonical
    assert aborted.objective == pytest.approx(clean.objective)
    stats = SelectionStats()
    stats.record_solution(clean)
    stats.record_solution(aborted)
    assert stats.canonical_aborts == 1
    assert SelectionStats.from_dict(stats.as_dict()).canonical_aborts == 1


# -- stats surfacing ----------------------------------------------------


def test_selection_stats_fold_race_and_lp_counters():
    stats = SelectionStats()
    from repro.selection2.portfolio import ComponentSolution

    stats.record_solution(
        ComponentSolution(
            status=SolverStatus.OPTIMAL.value,
            groups=(("a",),),
            objective=1.0,
            nodes=7,
            lp_cuts=3,
            canonical=False,
        )
    )
    stats.record_solution(
        ComponentSolution(
            status=SolverStatus.OPTIMAL.value,
            groups=(("b",),),
            objective=1.0,
            nodes=5,
        )
    )
    rendered = stats.as_dict()
    assert rendered["nodes_explored"] == 12
    assert rendered["lp_bound_cuts"] == 3
    assert rendered["canonical_aborts"] == 1
    back = SelectionStats.from_dict(rendered)
    assert back.nodes == 12
    assert back.lp_bound_cuts == 3
    assert back.canonical_aborts == 1
    # Records written before the counter existed read 0 aborts.
    rendered.pop("canonical_aborts")
    rendered["race_winner"] = {"scipy": 1}
    assert SelectionStats.from_dict(rendered).canonical_aborts == 0
