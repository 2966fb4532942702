"""Differential + unit suite for the decomposed Step-2 pipeline.

The contract under test: ``GeccoConfig(selection="decomposed")`` is
byte-identical to ``selection="monolithic"`` on every workload, across
both exact backends, with and without Eq. 5 cardinality bounds, and on
infeasible programs.  Plus unit coverage of the subsystem's layers:
decomposer, presolver (with certificate verification), portfolio,
coordination DP, caching, and parallel dispatch.
"""

import pytest

from repro.constraints import (
    ConstraintSet,
    MaxDistinctClassAttribute,
    MaxGroups,
    MaxGroupSize,
    MinGroups,
)
from repro.core.distance import DistanceFunction
from repro.core.gecco import Gecco, GeccoConfig
from repro.core.selection import select_optimal_grouping
from repro.eventlog.events import ROLE_KEY, Event, EventLog, Trace
from repro.exceptions import ConstraintError, SolverError
from repro.mip.branch_and_bound import SetPartitionSolver
from repro.mip.result import SolverStatus
from repro.selection2 import (
    Component,
    decompose,
    greedy_incumbent,
    merge_fronts,
    presolve,
    select_decomposed,
    solve_component,
    verify_certificate,
)
from repro.selection2.pipeline import component_cache_key
from repro.service import ArtifactCache, LogRef, AbstractionJob, SequentialExecutor
from repro.service.serialization import result_signature


def _constraint_grid():
    return [
        ("role", ConstraintSet([MaxDistinctClassAttribute(ROLE_KEY, 1)])),
        ("BL1", ConstraintSet([MaxGroupSize(8), MaxGroupSize(5)])),
        ("Gr", ConstraintSet([MaxGroupSize(8), MaxGroups(3)])),
        ("min6", ConstraintSet([MaxGroupSize(8), MinGroups(6)])),
        ("infeasible", ConstraintSet([MaxGroupSize(8), MaxGroups(1)])),
    ]


class TestDifferential:
    """Decomposed ≡ monolithic, byte for byte, per backend."""

    @pytest.mark.parametrize("backend", ["scipy", "bnb"])
    @pytest.mark.parametrize(
        "set_name", [name for name, _ in _constraint_grid()]
    )
    def test_running_example_all_sets(self, running_log, set_name, backend):
        constraints = dict(_constraint_grid())[set_name]
        mono = Gecco(
            constraints, GeccoConfig(selection="monolithic", solver=backend)
        ).abstract(running_log)
        dec = Gecco(
            constraints, GeccoConfig(selection="decomposed", solver=backend)
        ).abstract(running_log)
        assert result_signature(dec) == result_signature(mono)
        assert mono.selection_stats.canonical_aborts == 0
        assert dec.selection_stats.canonical_aborts == 0

    @pytest.mark.parametrize("backend", ["scipy", "bnb"])
    @pytest.mark.parametrize("set_name", ["role", "Gr"])
    def test_loan_log(self, loan_log, set_name, backend):
        constraints = dict(_constraint_grid())[set_name]
        mono = Gecco(
            constraints, GeccoConfig(selection="monolithic", solver=backend)
        ).abstract(loan_log)
        dec = Gecco(
            constraints, GeccoConfig(selection="decomposed", solver=backend)
        ).abstract(loan_log)
        assert result_signature(dec) == result_signature(mono)
        assert dec.selection_stats.mode == "decomposed"
        assert mono.selection_stats.canonical_aborts == 0
        assert dec.selection_stats.canonical_aborts == 0

    def test_synthetic_log(self, small_synthetic_log):
        constraints = ConstraintSet([MaxGroupSize(5)])
        mono = Gecco(
            constraints, GeccoConfig(selection="monolithic")
        ).abstract(small_synthetic_log)
        dec = Gecco(
            constraints, GeccoConfig(selection="decomposed")
        ).abstract(small_synthetic_log)
        assert result_signature(dec) == result_signature(mono)
        assert dec.selection_stats.canonical_aborts == 0

    def test_auto_portfolio_matches_exact_backends(self, running_log):
        constraints = ConstraintSet([MaxDistinctClassAttribute(ROLE_KEY, 1)])
        mono = Gecco(
            constraints, GeccoConfig(selection="monolithic", solver="scipy")
        ).abstract(running_log)
        auto = Gecco(
            constraints, GeccoConfig(selection="decomposed", solver="auto")
        ).abstract(running_log)
        assert set(auto.grouping.groups) == set(mono.grouping.groups)
        assert auto.distance == pytest.approx(mono.distance)
        assert auto.selection_stats.backends_used
        assert auto.selection_stats.canonical_aborts == 0

    def test_stats_recorded_on_result(self, running_log):
        constraints = ConstraintSet([MaxDistinctClassAttribute(ROLE_KEY, 1)])
        result = Gecco(constraints, GeccoConfig()).abstract(running_log)
        stats = result.selection_stats
        assert stats.mode == "decomposed"
        assert stats.num_components >= 1
        assert stats.solves + stats.cache_hits >= stats.num_components
        mono = Gecco(
            constraints, GeccoConfig(selection="monolithic", solver="bnb")
        ).abstract(running_log)
        assert mono.selection_stats.mode == "monolithic"
        assert mono.selection_stats.backend == "bnb"
        assert mono.selection_stats.nodes > 0


def _two_cluster_log() -> EventLog:
    """Two class clusters that never co-occur (a,b) / (c,d,e)."""
    traces = [
        Trace([Event(c, {ROLE_KEY: "x"}) for c in ("a", "b")])
        for _ in range(4)
    ] + [
        Trace([Event(c, {ROLE_KEY: "y"}) for c in ("c", "d", "e")])
        for _ in range(4)
    ]
    return EventLog(traces)


def _cluster_candidates():
    return {
        frozenset({"a"}),
        frozenset({"b"}),
        frozenset({"a", "b"}),
        frozenset({"c"}),
        frozenset({"d"}),
        frozenset({"e"}),
        frozenset({"c", "d"}),
        frozenset({"c", "d", "e"}),
    }


class TestMultiComponentBounds:
    """Eq. 5 coordination across genuinely independent components."""

    @pytest.mark.parametrize("backend", ["scipy", "bnb"])
    @pytest.mark.parametrize(
        "min_groups,max_groups",
        [(None, None), (None, 2), (None, 3), (4, None), (2, 4), (5, 5), (None, 1)],
    )
    def test_matches_monolithic(self, backend, min_groups, max_groups):
        log = _two_cluster_log()
        candidates = _cluster_candidates()
        distance = DistanceFunction(log)
        mono = select_optimal_grouping(
            log, candidates, distance,
            min_groups=min_groups, max_groups=max_groups, backend=backend,
        )
        dec = select_decomposed(
            log, candidates, distance,
            min_groups=min_groups, max_groups=max_groups, backend=backend,
        )
        assert dec.status == mono.status
        assert dec.feasible == mono.feasible
        if mono.feasible:
            assert set(dec.grouping.groups) == set(mono.grouping.groups)
            assert dec.objective == mono.objective  # bitwise, same sum order
            assert dec.stats.num_components == 2
            assert mono.canonical and dec.stats.canonical_aborts == 0

    def test_missing_coverage_is_infeasible(self):
        log = _two_cluster_log()
        candidates = {frozenset({"a"}), frozenset({"b"})}  # c,d,e uncovered
        distance = DistanceFunction(log)
        result = select_decomposed(log, candidates, distance)
        assert not result.feasible
        assert result.status is SolverStatus.INFEASIBLE
        assert "without covering candidate" in result.solver_message

    def test_unknown_backend_rejected(self):
        log = _two_cluster_log()
        distance = DistanceFunction(log)
        with pytest.raises(SolverError):
            select_decomposed(log, _cluster_candidates(), distance, backend="gurobi")


class _StubDistance:
    """A distance function with fully controlled group costs."""

    def __init__(self, costs):
        self._costs = {frozenset(group): cost for group, cost in costs.items()}

    def group_distance(self, group):
        return self._costs[frozenset(group)]


class TestCanonicalTieBreak:
    """Equal-cost optima resolve to one deterministic (lex-min) winner."""

    def _tied_program(self):
        log = EventLog([Trace([Event(c) for c in "abcd"]) for _ in range(2)])
        candidates = {
            frozenset({"a", "b"}),
            frozenset({"c", "d"}),
            frozenset({"a", "c"}),
            frozenset({"b", "d"}),
        }
        # Both perfect matchings cost exactly 2.0 — a genuine tie.
        distance = _StubDistance({group: 1.0 for group in candidates})
        return log, candidates, distance

    def test_lexmin_search_prefers_earliest_candidates(self):
        from repro.mip.branch_and_bound import lexmin_optimal_selection

        candidates = [
            frozenset({"a", "b"}),  # 0  (sorted-group order)
            frozenset({"a", "c"}),  # 1
            frozenset({"b", "d"}),  # 2
            frozenset({"c", "d"}),  # 3
        ]
        chosen = lexmin_optimal_selection(
            "abcd", candidates, [1.0] * 4, target=2.0
        )
        assert chosen == [0, 3]

    @pytest.mark.parametrize("backend", ["scipy", "bnb"])
    def test_all_paths_agree_on_tie(self, backend):
        log, candidates, distance = self._tied_program()
        mono = select_optimal_grouping(log, candidates, distance, backend=backend)
        dec = select_decomposed(log, candidates, distance, backend=backend)
        expected = {frozenset({"a", "b"}), frozenset({"c", "d"})}  # lex-min
        assert set(mono.grouping.groups) == expected
        assert set(dec.grouping.groups) == expected
        assert mono.objective == dec.objective == 2.0

    def test_merge_fronts_breaks_cost_ties_lexicographically(self):
        def solution(classes, cost):
            return solve_component(
                Component(
                    tuple(classes),
                    tuple(frozenset({c}) for c in classes),
                    tuple([cost / len(classes)] * len(classes)),
                ),
                backend="bnb",
            )

        fronts = [
            {1: solution("a", 1.0), 2: solution("pq", 2.0)},
            {1: solution("z", 2.0), 2: solution("xy", 1.0)},
        ]
        ranks = {"a": (0,), "pq": (4, 5), "z": (9,), "xy": (6, 7)}

        def order_key(sol):
            return ranks["".join(cls for group in sol.groups for cls in group)]

        # Totals of 3 tie at cost 3.0 two ways; (a + xy) = positions
        # (0, 6, 7) beats (pq + z) = (4, 5, 9).
        chosen = merge_fronts(fronts, 3, 3, order_key=order_key)
        assert chosen == [1, 2]


class TestDecomposer:
    def test_splits_independent_clusters(self):
        candidates = sorted(_cluster_candidates(), key=sorted)
        costs = [float(len(group)) for group in candidates]
        components, uncovered = decompose("abcde", candidates, costs)
        assert not uncovered
        assert [component.classes for component in components] == [
            ("a", "b"),
            ("c", "d", "e"),
        ]
        assert components[0].num_candidates == 3
        assert components[1].num_candidates == 5

    def test_reports_uncovered_classes(self):
        components, uncovered = decompose(
            ["a", "b", "z"], [frozenset({"a", "b"})], [1.0]
        )
        assert uncovered == ["z"]
        assert len(components) == 1

    def test_digest_is_content_addressed(self):
        component = Component(("a", "b"), (frozenset({"a", "b"}),), (1.5,))
        twin = Component(("a", "b"), (frozenset({"a", "b"}),), (1.5,))
        other = Component(("a", "b"), (frozenset({"a", "b"}),), (2.5,))
        assert component.digest() == twin.digest()
        assert component.digest() != other.digest()
        assert component_cache_key(component, None, 2, "bnb") != component_cache_key(
            component, None, 3, "bnb"
        )


class TestPresolve:
    def test_duplicate_merge_keeps_cheapest(self):
        candidates = [frozenset({"a"}), frozenset({"a"}), frozenset({"b"})]
        costs = [2.0, 1.0, 1.0]
        outcome = presolve(["a", "b"], candidates, costs)
        assert outcome.counts()["duplicates_merged"] == 1
        # The deduped singletons become sole coverers and are fixed —
        # with the *cheap* copy's cost.
        assert outcome.fixed == [frozenset({"a"}), frozenset({"b"})]
        assert outcome.fixed_costs == [1.0, 1.0]
        assert verify_certificate(outcome, ["a", "b"], candidates, costs)

    def test_forced_fixing_cascades(self):
        # 'a' is only covered by {a,b}; fixing it removes {b,c}, which
        # forces {c} next.
        candidates = [
            frozenset({"a", "b"}),
            frozenset({"b", "c"}),
            frozenset({"c"}),
        ]
        costs = [1.0, 1.0, 3.0]
        outcome = presolve(["a", "b", "c"], candidates, costs)
        assert outcome.fixed == [frozenset({"a", "b"}), frozenset({"c"})]
        assert outcome.classes == ()
        assert outcome.counts()["forced_fixed"] == 2
        assert verify_certificate(outcome, ["a", "b", "c"], candidates, costs)

    def test_forced_fixing_detects_infeasibility(self):
        # Fixing {a,b} (sole coverer of 'a') removes {b,c}, the sole
        # coverer of 'c'.
        candidates = [frozenset({"a", "b"}), frozenset({"b", "c"})]
        outcome = presolve(["a", "b", "c"], candidates, [1.0, 1.0])
        assert outcome.infeasible_reason is not None
        assert "c" in outcome.infeasible_reason

    def test_domination_is_strict(self):
        singles = [frozenset({"a"}), frozenset({"b"})]
        pair = frozenset({"a", "b"})
        # Strictly pricier pair: eliminated.
        outcome = presolve(["a", "b"], singles + [pair], [1.0, 1.0, 3.0])
        assert pair not in outcome.candidates
        assert outcome.counts()["dominated_removed"] == 1
        assert verify_certificate(
            outcome, ["a", "b"], singles + [pair], [1.0, 1.0, 3.0]
        )
        # Equal-cost pair: kept (it may be part of an optimal tie).
        outcome = presolve(["a", "b"], singles + [pair], [1.0, 1.0, 2.0])
        assert pair in outcome.candidates

    def test_domination_disabled_under_max_groups(self):
        singles = [frozenset({"a"}), frozenset({"b"})]
        pair = frozenset({"a", "b"})
        outcome = presolve(
            ["a", "b"], singles + [pair], [1.0, 1.0, 9.0], allow_domination=False
        )
        assert pair in outcome.candidates

    def test_tampered_certificate_fails(self):
        singles = [frozenset({"a"}), frozenset({"b"})]
        pair = frozenset({"a", "b"})
        costs = [1.0, 1.0, 3.0]
        outcome = presolve(["a", "b"], singles + [pair], costs)
        with pytest.raises(AssertionError):
            # Claim the pair cost less than its singleton split.
            verify_certificate(outcome, ["a", "b"], singles + [pair], [1.0, 1.0, 1.0])


class TestPortfolioAndCoordination:
    def _component(self):
        return Component(
            classes=("a", "b", "c"),
            candidates=(
                frozenset({"a"}),
                frozenset({"a", "b"}),
                frozenset({"b"}),
                frozenset({"c"}),
            ),
            costs=(1.0, 1.5, 1.0, 0.5),
        )

    def test_backends_agree_on_component(self):
        component = self._component()
        for min_count, max_count in ((None, None), (2, None), (None, 2)):
            scipy_sol = solve_component(
                component, backend="scipy", min_count=min_count, max_count=max_count
            )
            bnb_sol = solve_component(
                component, backend="bnb", min_count=min_count, max_count=max_count
            )
            assert scipy_sol.objective == pytest.approx(bnb_sol.objective)
            assert scipy_sol.groups == bnb_sol.groups

    def test_greedy_incumbent_is_feasible_warm_start(self):
        component = self._component()
        incumbent = greedy_incumbent(component)
        assert incumbent is not None
        positions, cost = incumbent
        covered = set()
        for position in positions:
            group = component.candidates[position]
            assert not (covered & group)
            covered |= group
        assert covered == set(component.classes)
        # Warm-started search returns the same optimum as cold.
        warm = SetPartitionSolver(
            universe=component.classes,
            candidates=component.candidates,
            costs=component.costs,
            incumbent=incumbent,
        ).solve()
        cold = SetPartitionSolver(
            universe=component.classes,
            candidates=component.candidates,
            costs=component.costs,
        ).solve()
        assert warm.objective == pytest.approx(cold.objective)

    def test_invalid_incumbent_rejected(self):
        component = self._component()
        with pytest.raises(SolverError):
            SetPartitionSolver(
                universe=component.classes,
                candidates=component.candidates,
                costs=component.costs,
                incumbent=([0, 1], 2.5),  # overlapping groups
            )

    def test_merge_fronts_respects_bounds(self):
        def sol(objective):
            return solve_component(
                Component(("z",), (frozenset({"z"}),), (objective,)), backend="bnb"
            )

        fronts = [
            {1: sol(5.0), 2: sol(3.0)},
            {1: sol(4.0), 3: sol(1.0)},
        ]
        # Unbounded: cheapest combination (2 + 3 groups, cost 4).
        assert merge_fronts(fronts, None, None) == [2, 3]
        # Max 4 total: forced away from the global optimum.
        assert merge_fronts(fronts, None, 4) == [1, 3]
        # Min 5 total: only (2, 3) qualifies.
        assert merge_fronts(fronts, 5, None) == [2, 3]
        # Impossible window.
        assert merge_fronts(fronts, None, 1) is None

    def test_time_limited_bnb_raises(self):
        import itertools

        classes = tuple(f"c{i}" for i in range(16))
        pairs = [
            frozenset(pair) for pair in itertools.combinations(classes, 2)
        ]
        solver = SetPartitionSolver(
            universe=classes,
            candidates=pairs,
            costs=[1.0 + (hash(min(p)) % 7) / 10 for p in pairs],
            time_limit=1e-4,
        )
        with pytest.raises(SolverError, match="time limit"):
            solver.solve()


class TestSelectionCacheAndParallel:
    def test_selection_tier_reused_across_bound_sweep(self):
        log = _two_cluster_log()
        candidates = _cluster_candidates()
        distance = DistanceFunction(log)
        cache = ArtifactCache()
        first = select_decomposed(
            log, candidates, distance, max_groups=3, cache=cache
        )
        again = select_decomposed(
            log, candidates, distance, max_groups=3, cache=cache
        )
        assert first.feasible and again.feasible
        assert again.stats.cache_hits > 0
        assert again.stats.solves == 0
        # A different bound still reuses the per-count cells it shares.
        widened = select_decomposed(
            log, candidates, distance, max_groups=4, cache=cache
        )
        assert widened.stats.cache_hits > 0

    def test_timed_out_solves_are_not_cached(self, monkeypatch):
        """A timeout is not a proof — it must never poison the tier."""
        from repro.mip.result import SolverStatus
        from repro.selection2 import pipeline, portfolio

        component = Component(("a",), (frozenset({"a"}),), (1.0,))
        timed_out = portfolio.ComponentSolution(
            status=SolverStatus.ERROR.value, backend="scipy", message="time limit"
        )
        cache = ArtifactCache()
        monkeypatch.setattr(
            portfolio, "solve_component", lambda *args, **kwargs: timed_out
        )
        solution, hit = pipeline.solve_component_task(
            component, None, None, "scipy", 0.001, cache=cache
        )
        assert not hit and not solution.is_optimal
        assert cache.stats.selection.stores == 0
        monkeypatch.undo()
        # The real solve afterwards caches its optimality proof.
        solution, _ = pipeline.solve_component_task(
            component, None, None, "scipy", None, cache=cache
        )
        assert solution.is_optimal
        assert cache.stats.selection.stores == 1

    def test_executor_dispatch_matches_inline(self):
        log = _two_cluster_log()
        candidates = _cluster_candidates()
        distance = DistanceFunction(log)
        inline = select_decomposed(log, candidates, distance)
        routed = select_decomposed(
            log, candidates, distance, executor=SequentialExecutor()
        )
        assert set(routed.grouping.groups) == set(inline.grouping.groups)
        assert routed.objective == inline.objective

    def test_run_job_shares_selection_tier_across_jobs(self, running_log):
        from repro.service import run_job

        cache = ArtifactCache()
        constraints = ConstraintSet([MaxDistinctClassAttribute(ROLE_KEY, 1)])
        jobs = [
            AbstractionJob(
                log=LogRef.builtin("running_example"),
                constraints=ConstraintSet(
                    [MaxDistinctClassAttribute(ROLE_KEY, 1), MaxGroups(bound)]
                ),
            )
            for bound in (5, 6)
        ]
        run_job(jobs[0], cache)
        before = cache.stats.selection.hits
        run_job(jobs[1], cache)
        assert cache.stats.selection.hits > before
        del constraints

    def test_config_validation(self):
        with pytest.raises(ConstraintError):
            GeccoConfig(selection="fractal")
        with pytest.raises(ConstraintError):
            GeccoConfig(selection_workers=0)
        assert GeccoConfig(solver="auto").solver == "auto"
