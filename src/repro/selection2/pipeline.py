"""The decomposed Step-2 pipeline: decompose → presolve → solve → recombine.

:func:`select_decomposed` is the drop-in replacement for
:func:`repro.core.selection.select_optimal_grouping` behind
``GeccoConfig(selection="decomposed")``:

1. **presolve** the full program (duplicate merge, forced singleton
   fixing, dominated-group elimination — certified to preserve the
   optimal set, see :mod:`repro.selection2.presolve`);
2. **decompose** the residual into candidate-overlap components
   (:mod:`repro.selection2.decompose`);
3. **solve** each component with the backend portfolio
   (:mod:`repro.selection2.portfolio`) — in parallel via a
   :mod:`repro.service` executor when one is supplied (or ``workers >
   1``), and against the selection-artifact cache tier when a
   :class:`~repro.service.cache.ArtifactCache` is supplied, so repeated
   constraint sweeps reuse solved components;
4. **recombine** the component optima — with the coordination layer of
   :mod:`repro.selection2.coordinate` when global Eq. 5 bounds couple
   the components — into one optimal grouping.

The recombined grouping is byte-identical to the monolithic solve on
the same backend (enforced by ``tests/test_selection_decomposed.py``):
explicit backends run cold and uncapped exactly like the monolithic
path, the objective is re-summed in the monolithic order, and when the
program is a single component with cardinality bounds it is handed to
the backend as one bounded program rather than enumerated.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.distance import DistanceFunction
from repro.core.grouping import Grouping
from repro.core.selection import SelectionResult
from repro.eventlog.events import EventLog
from repro.exceptions import SolverError
from repro.mip.branch_and_bound import PartitionProgram
from repro.mip.result import SolverStatus
from repro.selection2 import coordinate, portfolio
from repro.selection2.decompose import Component, content_digest, decompose
from repro.selection2.presolve import presolve
from repro.selection2.stats import SelectionStats

#: Backends accepted by the decomposed pipeline.
DECOMPOSED_BACKENDS = ("scipy", "bnb", "auto")


@dataclass
class DecomposedSelectionResult(SelectionResult):
    """A :class:`~repro.core.selection.SelectionResult` plus solver stats."""

    stats: SelectionStats | None = field(default=None)


def component_cache_key(
    component: Component,
    min_count: int | None,
    max_count: int | None,
    backend: str,
) -> str:
    """Selection-artifact cache key of one component solve cell."""
    return content_digest(
        {
            "component": component.digest(),
            "min": min_count,
            "max": max_count,
            "backend": backend,
        }
    )


def solve_component_task(
    component: Component,
    min_count: int | None,
    max_count: int | None,
    backend: str,
    time_limit: float | None,
    cache=None,
    deadline=None,
) -> "tuple[portfolio.ComponentSolution, bool]":
    """Solve one component cell against a selection cache.

    This is the unit of work dispatched through the service executors
    (:meth:`~repro.service.executor.PoolExecutor.submit_call` passes the
    worker-local cache as ``cache``).  Returns ``(solution, from_cache)``.

    ``deadline`` (a :class:`~repro.service.resilience.Deadline`) caps
    the solver's time limit to the remaining budget; cache hits are
    served even when the budget is gone (they cost nothing and are the
    same bytes regardless).
    """
    if cache is not None:
        key = component_cache_key(component, min_count, max_count, backend)
        hit = cache.get_selection(key)
        if hit is not None:
            return hit, True
    solution = portfolio.solve_component(
        component,
        backend=backend,
        min_count=min_count,
        max_count=max_count,
        time_limit=time_limit,
        deadline=deadline,
    )
    if cache is not None:
        _store_proof(cache, key, solution)
    return solution, False


def _store_proof(cache, key: str, solution) -> None:
    """Put a proved cell (optimal or infeasible) into the selection tier.

    Proofs hold for any time budget.  A timeout or solver error must not
    poison the long-lived tier: the key has no time-limit component.
    """
    if solution.status in (
        SolverStatus.OPTIMAL.value,
        SolverStatus.INFEASIBLE.value,
    ):
        cache.put_selection(key, solution)


def _infeasible(
    message: str, stats: SelectionStats, num_candidates: int, started: float
) -> DecomposedSelectionResult:
    stats.seconds = time.perf_counter() - started
    return DecomposedSelectionResult(
        grouping=None,
        objective=None,
        status=SolverStatus.INFEASIBLE,
        seconds=stats.seconds,
        num_candidates=num_candidates,
        solver_message=message,
        backend=stats.backend,
        stats=stats,
    )


def _deadline_guard(solution: "portfolio.ComponentSolution", deadline) -> None:
    """Fail typed when a deadline-capped solve ran out of budget.

    A solver timeout under a deadline-derived cap must never flow into
    the infeasible path (that would *return a different result* than
    the unbudgeted run — an infeasibility verdict the program does not
    actually have).  Genuine infeasibility proofs hold for any budget
    and pass through untouched.
    """
    if (
        deadline is not None
        and not solution.is_optimal
        and solution.status != SolverStatus.INFEASIBLE.value
        and deadline.expired()
    ):
        from repro.service.resilience import DeadlineExceeded

        raise DeadlineExceeded(
            f"component solve exhausted the deadline budget "
            f"(solver status: {solution.status})"
        )


def _run_tasks(
    tasks: "list[tuple[Component, int | None, int | None]]",
    backend: str,
    time_limit: float | None,
    cache,
    executor,
    workers: int,
    stats: SelectionStats,
    deadline=None,
) -> "list[portfolio.ComponentSolution]":
    """Solve all task cells, in parallel when an executor is available.

    Each cell is looked up in ``cache`` once, here, and stored once solved.
    """
    solutions: list = [None] * len(tasks)
    keys: list = [None] * len(tasks)
    pending: list[int] = []
    for position, (component, min_count, max_count) in enumerate(tasks):
        if cache is not None:
            key = keys[position] = component_cache_key(
                component, min_count, max_count, backend
            )
            hit = cache.get_selection(key)
            if hit is not None:
                solutions[position] = hit
                stats.cache_hits += 1
                continue
        pending.append(position)
    stats.cache_misses += len(pending)

    own_executor = False
    if executor is None and workers > 1 and len(pending) > 1:
        from repro.service.executor import PoolExecutor

        executor = PoolExecutor(workers=min(workers, len(pending)))
        own_executor = True
    try:
        if executor is not None and len(pending) > 1:
            handles = [
                (
                    position,
                    executor.submit_call(
                        solve_component_task,
                        tasks[position][0],
                        tasks[position][1],
                        tasks[position][2],
                        backend,
                        time_limit,
                        deadline=deadline,
                    ),
                )
                for position in pending
            ]
            for position, handle in handles:
                solution, worker_hit = handle.result()
                _deadline_guard(solution, deadline)
                if worker_hit:
                    stats.cache_hits += 1
                    stats.cache_misses -= 1
                else:
                    stats.record_solution(solution)
                solutions[position] = solution
                if cache is not None:
                    _store_proof(cache, keys[position], solution)
        else:
            for position in pending:
                component, min_count, max_count = tasks[position]
                solution, _hit = solve_component_task(
                    component, min_count, max_count, backend, time_limit,
                    deadline=deadline,
                )
                _deadline_guard(solution, deadline)
                stats.record_solution(solution)
                solutions[position] = solution
                if cache is not None:
                    _store_proof(cache, keys[position], solution)
    finally:
        if own_executor:
            executor.shutdown()
    for solution in solutions:
        if solution is not None and solution.backend:
            if solution.backend not in stats.backends_used:
                stats.backends_used.append(solution.backend)
    return solutions


def select_decomposed(
    log: EventLog,
    candidates: "set[frozenset[str]]",
    distance: DistanceFunction,
    min_groups: int | None = None,
    max_groups: int | None = None,
    backend: str = "scipy",
    time_limit: float | None = None,
    workers: int = 1,
    cache=None,
    executor=None,
    deadline=None,
) -> DecomposedSelectionResult:
    """Decomposed Step 2: pick the distance-minimal exact cover.

    Drop-in equivalent of
    :func:`repro.core.selection.select_optimal_grouping` (same optimum,
    same grouping) built on the decompose → presolve → portfolio-solve →
    recombine pipeline.

    Parameters
    ----------
    backend:
        ``"scipy"``, ``"bnb"``, or ``"auto"`` (the per-component
        portfolio of :mod:`repro.selection2.portfolio`).
    time_limit:
        Per-component-solve budget in seconds, identical on the inline
        and executor paths (the monolithic solver applies the same
        value to its single solve).
    workers:
        When > 1 and no ``executor`` is given, component solves fan out
        over a transient :class:`~repro.service.executor.PoolExecutor`.
    cache:
        Optional :class:`~repro.service.cache.ArtifactCache`; solved
        components land in its selection tier keyed by content digest,
        so constraint sweeps over one log reuse them.
    executor:
        Optional service executor whose ``submit_call`` dispatches the
        component solves (its workers consult their own caches).  Any
        executor honoring the protocol works: the in-process
        :class:`~repro.service.executor.PoolExecutor` or a broker-backed
        :class:`~repro.service.dist.executor.DistributedExecutor`, which
        fans component solves out over a multi-host fleet whose workers
        memoize cells in their own selection tiers (shared on disk when
        the fleet points at one ``--cache-dir``).
    deadline:
        Optional :class:`~repro.service.resilience.Deadline`: caps each
        component solve's time limit to the remaining budget and raises
        :class:`~repro.service.resilience.DeadlineExceeded` when the
        budget runs out mid-selection.  Never degrades the result — a
        run that finishes under deadline returns exactly the grouping
        the unbudgeted run would.
    """
    if backend not in DECOMPOSED_BACKENDS:
        raise SolverError(
            f"unknown Step-2 backend {backend!r}; use one of {DECOMPOSED_BACKENDS}"
        )
    started = time.perf_counter()
    universe = log.classes
    ordered = sorted(candidates, key=lambda group: sorted(group))
    costs = distance.costs(ordered)
    program = PartitionProgram.encode(universe, ordered, costs)
    stats = SelectionStats(
        mode="decomposed",
        backend=backend,
        num_candidates=len(ordered),
        workers=workers,
    )

    pre = presolve(program, allow_domination=max_groups is None)
    stats.presolve = pre.counts()
    if pre.infeasible_reason is not None:
        return _infeasible(pre.infeasible_reason, stats, len(ordered), started)

    fixed_count = len(pre.fixed)
    residual_min = None if min_groups is None else max(0, min_groups - fixed_count)
    residual_max = None if max_groups is None else max_groups - fixed_count
    if residual_max is not None and residual_max < 0:
        return _infeasible(
            f"{fixed_count} forced groups already exceed max_groups={max_groups}",
            stats,
            len(ordered),
            started,
        )

    components, uncovered = decompose(pre)
    if uncovered:
        return _infeasible(
            f"classes without covering candidate: {uncovered}",
            stats,
            len(ordered),
            started,
        )
    stats.num_components = len(components)
    stats.component_shape = [
        [component.num_classes, component.num_candidates] for component in components
    ]

    if components:
        envelopes = [portfolio.count_bounds(component) for component in components]
        floor_total = sum(k_min for k_min, _ in envelopes)
        ceiling_total = sum(k_max for _, k_max in envelopes)
        if residual_min is not None and residual_min <= floor_total:
            residual_min = None  # every exact cover already meets the bound
        if residual_max is not None and residual_max >= ceiling_total:
            residual_max = None
    elif residual_min is not None and residual_min > 0:
        return _infeasible(
            f"all classes fixed by presolve but min_groups={min_groups} "
            f"needs {residual_min} more groups",
            stats,
            len(ordered),
            started,
        )

    bounded = residual_min is not None or residual_max is not None
    position_of = {group: position for position, group in enumerate(program.candidates)}

    def positions(groups):
        return [position_of[program.bits.mask(group)] for group in groups]

    selected = [position_of[group] for group in pre.fixed]

    if components and not bounded:
        tasks = [(component, None, None) for component in components]
        solutions = _run_tasks(
            tasks, backend, time_limit, cache, executor, workers, stats,
            deadline=deadline,
        )
        for component, solution in zip(components, solutions):
            if not solution.is_optimal:
                first = program.bits.names(component.classes)[0]
                return _infeasible(
                    f"component {first}…: {solution.message or solution.status}",
                    stats,
                    len(ordered),
                    started,
                )
            selected.extend(positions(solution.groups))
    elif components and len(components) == 1:
        # One bounded component: hand the bounds to the backend directly
        # (structurally the monolithic program, minus presolve removals).
        tasks = [(components[0], residual_min, residual_max)]
        solutions = _run_tasks(
            tasks, backend, time_limit, cache, executor, workers, stats,
            deadline=deadline,
        )
        solution = solutions[0]
        if not solution.is_optimal:
            return _infeasible(
                solution.message or f"bounded component {solution.status}",
                stats,
                len(ordered),
                started,
            )
        selected.extend(positions(solution.groups))
    elif components:
        # Eq. 5 coordination: per-component count enumeration, then a
        # knapsack-style merge over the (objective, #groups) fronts.
        tasks: list[tuple[Component, int | None, int | None]] = []
        spans: list[tuple[int, int]] = []
        for position, component in enumerate(components):
            k_lo, k_hi = envelopes[position]
            if residual_max is not None:
                others_floor = floor_total - k_lo
                k_hi = min(k_hi, residual_max - others_floor)
            spans.append((k_lo, k_hi))
            for count in range(k_lo, k_hi + 1):
                tasks.append((component, count, count))
        solutions = _run_tasks(
            tasks, backend, time_limit, cache, executor, workers, stats,
            deadline=deadline,
        )
        fronts: list[dict[int, portfolio.ComponentSolution]] = []
        cursor = 0
        for position, component in enumerate(components):
            k_lo, k_hi = spans[position]
            front = {}
            for count in range(k_lo, k_hi + 1):
                solution = solutions[cursor]
                cursor += 1
                if solution.is_optimal:
                    front[count] = solution
            fronts.append(front)
        chosen = coordinate.merge_fronts(
            fronts,
            residual_min,
            residual_max,
            order_key=lambda solution: tuple(sorted(positions(solution.groups))),
        )
        if chosen is None:
            return _infeasible(
                f"no per-component group counts meet "
                f"min_groups={min_groups}, max_groups={max_groups}",
                stats,
                len(ordered),
                started,
            )
        for front, count in zip(fronts, chosen):
            selected.extend(positions(front[count].groups))

    # Recombine in the monolithic path's group order (ascending positions,
    # i.e. sorted member tuples): the grouping's rendered label order and
    # the objective's float-summation order must both match byte-for-byte.
    selected.sort()
    grouping = Grouping([ordered[position] for position in selected], universe)
    objective = sum(costs[position] for position in selected)
    stats.seconds = time.perf_counter() - started
    return DecomposedSelectionResult(
        grouping=grouping,
        objective=objective,
        status=SolverStatus.OPTIMAL,
        seconds=stats.seconds,
        num_candidates=len(ordered),
        backend=backend,
        nodes=stats.nodes,
        stats=stats,
    )
