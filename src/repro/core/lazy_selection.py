"""Lazy-constraint selection: Step 2 under grouping-level constraints.

Grouping-level rules (:mod:`repro.core.grouping_constraints`) judge a
*complete* grouping and cannot be linearized into the Step-2 MIP.  The
standard remedy is lazy constraints: solve the relaxation, test the
incumbent against the rules, and — when violated — add a **no-good
cut** excluding exactly that selection before re-solving:

    Σ_{i ∈ S} selected_i  <=  |S| - 1        (S = the violating selection)

Iterating yields the cheapest grouping satisfying both the per-group
constraints (already baked into the candidate set) and the
grouping-level rules, since groupings are enumerated in order of
non-decreasing distance.

Both Step-2 backends are supported: the HiGHS backend receives the cut
as an explicit linear constraint; the branch-and-bound backend receives
the excluded selections as forbidden solutions.  The rules judge the
canonical lex-min optimum among the selections not cut yet, so both
backends walk the same groupings.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.distance import DistanceFunction
from repro.core.grouping import Grouping
from repro.core.grouping_constraints import GroupingConstraintRule
from repro.core.instances import InstanceIndex
from repro.core.selection import BACKENDS, build_program
from repro.eventlog.events import EventLog
from repro.exceptions import SolverError
from repro.mip.branch_and_bound import PartitionProgram, SetPartitionSolver
from repro.mip.branch_and_bound import lexmin_optimal_selection
from repro.mip.model import LE
from repro.mip.result import SolverStatus
from repro.mip import scipy_backend


@dataclass
class LazySelectionResult:
    """Outcome of the lazy-constraint selection loop."""

    grouping: Grouping | None
    objective: float | None
    status: SolverStatus
    iterations: int = 0
    cuts_added: int = 0
    rejected_groupings: list[list[frozenset[str]]] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def feasible(self) -> bool:
        return self.status is SolverStatus.OPTIMAL and self.grouping is not None


class _ForbiddenAwareSolver(SetPartitionSolver):
    """Branch-and-bound solver that rejects a set of known selections."""

    def __init__(self, *args, forbidden: list[frozenset[int]] | None = None, **kwargs):
        super().__init__(*args, **kwargs)
        self._forbidden = forbidden or []

    def _search(self, covered, selection, cost):
        # Reject complete solutions matching a forbidden selection by
        # inflating their cost check at the leaf.
        if covered == self.universe:
            if frozenset(selection) in self._forbidden:
                self._nodes += 1
                return
        super()._search(covered, selection, cost)


def select_with_grouping_rules(
    log: EventLog,
    candidates: set[frozenset[str]],
    distance: DistanceFunction,
    rules: list[GroupingConstraintRule],
    instance_index: InstanceIndex | None = None,
    min_groups: int | None = None,
    max_groups: int | None = None,
    backend: str = "scipy",
    max_iterations: int = 200,
) -> LazySelectionResult:
    """Find the cheapest grouping satisfying the grouping-level ``rules``.

    ``max_iterations`` bounds the number of no-good cuts; hitting it
    raises :class:`SolverError` (each cut excludes one grouping, so the
    bound also caps worst-case work).
    """
    if backend not in BACKENDS:
        raise SolverError(f"unknown backend {backend!r}; use one of {BACKENDS}")
    started = time.perf_counter()
    index = instance_index or InstanceIndex(log)
    universe = log.classes
    ordered = sorted(candidates, key=lambda group: sorted(group))
    costs = distance.costs(ordered)
    partition = PartitionProgram.encode(universe, ordered, costs)

    cuts: list[frozenset[int]] = []
    rejected: list[list[frozenset[str]]] = []

    for iteration in range(1, max_iterations + 1):
        prices = None
        if backend == "bnb":
            solver = _ForbiddenAwareSolver(
                partition,
                min_count=min_groups,
                max_count=max_groups,
                forbidden=cuts,
            )
            outcome = solver.solve()
            prices = solver.prices
        else:
            program = build_program(partition, min_groups, max_groups)
            for cut in cuts:
                program.add_constraint(
                    {f"g{i}": 1.0 for i in cut}, LE, float(len(cut) - 1),
                    name="no-good",
                )
            outcome = scipy_backend.solve(program)

        if outcome.status is not SolverStatus.OPTIMAL:
            return LazySelectionResult(
                grouping=None,
                objective=None,
                status=outcome.status,
                iterations=iteration,
                cuts_added=len(cuts),
                rejected_groupings=rejected,
                seconds=time.perf_counter() - started,
            )

        positions = sorted(
            int(name[1:]) for name in outcome.selected() if name.startswith("g")
        )
        target = sum(costs[position] for position in positions)
        canonical = lexmin_optimal_selection(
            partition, target, min_groups, max_groups, prices=prices, forbidden=cuts
        )
        if canonical is not None:
            positions = canonical
        selected = [ordered[position] for position in positions]
        grouping_instances = {group: index.events(group) for group in selected}
        if all(rule.check(grouping_instances) for rule in rules):
            grouping = Grouping(selected, universe)
            objective = sum(costs[position] for position in positions)
            return LazySelectionResult(
                grouping=grouping,
                objective=objective,
                status=SolverStatus.OPTIMAL,
                iterations=iteration,
                cuts_added=len(cuts),
                rejected_groupings=rejected,
                seconds=time.perf_counter() - started,
            )
        rejected.append(list(selected))
        cuts.append(frozenset(positions))

    raise SolverError(
        f"lazy selection exceeded {max_iterations} iterations "
        f"({len(cuts)} groupings rejected)"
    )
