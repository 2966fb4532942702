"""Solver portfolio: one deterministic backend policy per component.

Each overlap-graph component is a small weighted set-partitioning
program, solved by one of two backends:

* the specialized branch-and-bound solver
  (:mod:`repro.mip.branch_and_bound`), with near-zero call overhead and
  count-aware LP prices as its lower bound;
* HiGHS (:mod:`repro.mip.scipy_backend`), which pays a fixed
  model-building cost per call but never runs out of nodes.

``backend="auto"`` runs **every** component on a warm-started, node-
and time-capped branch-and-bound.  Components with more than
:data:`AUTO_BNB_MAX_CANDIDATES` candidates solve the LP relaxation up
front, smaller ones only once the search has spent
:data:`~repro.mip.branch_and_bound.LP_ACTIVATION_NODES` nodes.  HiGHS
runs only when that budget runs out; without scipy there is no node cap
and the branch-and-bound's own budget errors propagate.  The warm start
is a greedy incumbent (cheapest cost-per-class exact cover), which
tightens the initial upper bound and prunes most of the tree on easy
components.

Every optimum is then canonicalized by
:func:`~repro.mip.branch_and_bound.lexmin_optimal_selection`, which
reuses the branch-and-bound's LP prices to drop every candidate whose
reduced cost rules it out of an optimal cover.  A canonicalization that
still runs out of nodes keeps the backend's own selection and says so
(``canonical=False``, counted as ``SelectionStats.canonical_aborts``).

Explicitly requested backends run exactly like the monolithic path —
cold, uncapped — so decomposed and monolithic solves stay
byte-identical per backend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.exceptions import SolverError
from repro.mip import scipy_backend
from repro.mip.branch_and_bound import SetPartitionSolver, lexmin_optimal_selection
from repro.mip.result import SolverStatus
from repro.selection2.decompose import Component

#: Components with more than this many candidates solve the LP
#: relaxation before the ``auto``-mode branch-and-bound starts; the
#: monolithic ``auto`` path sends larger programs to HiGHS instead.
AUTO_BNB_MAX_CANDIDATES = 96

#: Node budget for the ``auto``-mode branch-and-bound attempt; exceeding
#: it falls back to HiGHS instead of failing.
AUTO_BNB_NODE_LIMIT = 200_000


@dataclass(frozen=True)
class ComponentSolution:
    """Outcome of solving one component (possibly count-constrained).

    ``groups`` are the selected candidate groups as sorted tuples (the
    representation is cache- and pickle-friendly); ``objective`` is
    their summed cost; ``nodes`` counts branch-and-bound nodes (0 for
    HiGHS); ``backend`` names the solver that produced the solution.
    ``lp_cuts`` counts prunes decided only by the LP-relaxation bound;
    ``canonical`` records whether the groups are the lex-min optimum
    (``False`` only when the canonicalization budget ran out).
    """

    status: str
    groups: tuple[tuple[str, ...], ...] = ()
    objective: float | None = None
    nodes: int = 0
    backend: str = ""
    message: str = ""
    lp_cuts: int = 0
    canonical: bool = True

    @property
    def is_optimal(self) -> bool:
        """Whether the component was solved to proven optimality."""
        return self.status == SolverStatus.OPTIMAL.value


def choose_backend(num_classes: int, num_candidates: int) -> str:
    """Monolithic ``auto`` heuristic: branch-and-bound for small programs.

    Without scipy every component goes to the dependency-free
    branch-and-bound solver (slower on large dense components, but the
    pipeline stays fully functional).
    """
    del num_classes  # the candidate count dominates the bnb frontier
    if not scipy_backend.HAVE_SCIPY:
        return "bnb"
    return "bnb" if num_candidates <= AUTO_BNB_MAX_CANDIDATES else "scipy"


def greedy_incumbent(
    component: Component,
    min_count: int | None = None,
    max_count: int | None = None,
) -> tuple[list[int], float] | None:
    """A feasible exact cover by cheapest cost-per-class greedy choice.

    Repeatedly selects, among candidates fully inside the uncovered
    classes, the one with the lowest cost share (ties broken by sorted
    member tuple for determinism).  Returns ``(positions, cost)`` or
    ``None`` when the greedy run dead-ends or violates the count
    bounds — the incumbent is an upper bound only, never required.
    """
    names = component.bits.names
    uncovered = component.classes
    chosen: list[int] = []
    total = 0.0
    while uncovered:
        best: tuple[float, int] | None = None
        outside = ~uncovered
        for position, (group, cost) in enumerate(
            zip(component.candidates, component.costs)
        ):
            if group & outside:
                continue
            share = cost / group.bit_count()
            if best is None or share < best[0] or (
                share == best[0] and names(group) < names(component.candidates[best[1]])
            ):
                best = (share, position)
        if best is None:
            return None
        position = best[1]
        chosen.append(position)
        total += component.costs[position]
        uncovered &= ~component.candidates[position]
    if min_count is not None and len(chosen) < min_count:
        return None
    if max_count is not None and len(chosen) > max_count:
        return None
    return chosen, total


def _from_solver_result(
    outcome,
    component: Component,
    backend: str,
    min_count: int | None,
    max_count: int | None,
    prices=None,
) -> ComponentSolution:
    if outcome.status is not SolverStatus.OPTIMAL:
        return ComponentSolution(
            status=outcome.status.value,
            nodes=outcome.nodes_explored,
            backend=backend,
            message=outcome.message,
            lp_cuts=outcome.lp_bound_cuts,
        )
    positions = sorted(
        int(name[1:]) for name in outcome.selected() if name.startswith("g")
    )
    # Canonical tie-break (see lexmin_optimal_selection): per-component
    # lex-min selections compose to the global lex-min, which is what
    # the monolithic path returns — so equal-cost optima cannot make
    # decomposed and monolithic solves diverge.
    target = sum(component.costs[position] for position in positions)
    canonical = lexmin_optimal_selection(
        component,
        target=target,
        min_count=min_count,
        max_count=max_count,
        prices=prices,
    )
    if canonical is not None:
        positions = canonical
    groups = tuple(
        component.bits.names(component.candidates[position]) for position in positions
    )
    return ComponentSolution(
        status=SolverStatus.OPTIMAL.value,
        groups=groups,
        objective=sum(component.costs[position] for position in positions),
        nodes=outcome.nodes_explored,
        backend=backend,
        message=outcome.message,
        lp_cuts=outcome.lp_bound_cuts,
        canonical=canonical is not None,
    )


def _solve_bnb(
    component: Component,
    min_count: int | None,
    max_count: int | None,
    node_limit: int | None = None,
    time_limit: float | None = None,
    warm_start: bool = False,
    lp_bound: bool | None = None,
) -> ComponentSolution:
    incumbent = (
        greedy_incumbent(component, min_count, max_count) if warm_start else None
    )
    solver = SetPartitionSolver(
        component,
        min_count=min_count,
        max_count=max_count,
        incumbent=incumbent,
        time_limit=time_limit,
        lp_bound=lp_bound,
        **({"node_limit": node_limit} if node_limit is not None else {}),
    )
    return _from_solver_result(
        solver.solve(), component, "bnb", min_count, max_count, solver.prices
    )


def _solve_scipy(
    component: Component,
    min_count: int | None,
    max_count: int | None,
    time_limit: float | None,
) -> ComponentSolution:
    from repro.core.selection import build_program

    program = build_program(component, min_groups=min_count, max_groups=max_count)
    return _from_solver_result(
        scipy_backend.solve(program, time_limit=time_limit),
        component,
        "scipy",
        min_count,
        max_count,
    )


def solve_component(
    component: Component,
    backend: str = "scipy",
    min_count: int | None = None,
    max_count: int | None = None,
    time_limit: float | None = None,
    deadline=None,
) -> ComponentSolution:
    """Solve one component with the requested backend (or the portfolio).

    ``backend`` is ``"scipy"``, ``"bnb"``, or ``"auto"``.  Explicit
    backends replicate the monolithic solver behavior exactly (no warm
    start, default node limit, HiGHS-only time limits).  ``"auto"``
    runs every component on a warm-started, node- and time-capped
    branch-and-bound and falls back to HiGHS when that budget runs out;
    without scipy the branch-and-bound has no node cap and its own
    budget errors propagate.

    ``deadline`` (a :class:`~repro.service.resilience.Deadline`) checks
    the remaining end-to-end budget at entry and caps ``time_limit`` to
    it — including on the otherwise-uncapped explicit ``"bnb"`` path.
    A solve that runs out of the capped budget fails typed
    (:class:`~repro.service.resilience.DeadlineExceeded`), never by
    degrading the solution: any solve that *finishes* returns exactly
    what the unbudgeted run would.
    """
    if backend not in ("bnb", "scipy", "auto"):
        raise SolverError(
            f"unknown component backend {backend!r}; use 'scipy', 'bnb', or 'auto'"
        )
    bnb_time_limit = None
    if deadline is not None:
        deadline.check("component solve")
        time_limit = deadline.cap(time_limit)
        bnb_time_limit = time_limit
    try:
        if backend == "bnb":
            return _solve_bnb(
                component, min_count, max_count, time_limit=bnb_time_limit
            )
        if backend == "scipy":
            return _solve_scipy(component, min_count, max_count, time_limit)
        try:
            return _solve_bnb(
                component,
                min_count,
                max_count,
                node_limit=AUTO_BNB_NODE_LIMIT if scipy_backend.HAVE_SCIPY else None,
                time_limit=time_limit,
                warm_start=True,
                lp_bound=(
                    True if component.num_candidates > AUTO_BNB_MAX_CANDIDATES else None
                ),
            )
        except SolverError:
            if not scipy_backend.HAVE_SCIPY:
                raise
        return _solve_scipy(component, min_count, max_count, time_limit)
    except SolverError:
        # A budget-exhausted solver under a deadline cap is a deadline
        # failure, not a solver defect — surface it typed.
        if deadline is not None and deadline.expired():
            from repro.service.resilience import DeadlineExceeded

            raise DeadlineExceeded(
                "component solve exhausted the deadline budget"
            ) from None
        raise


def count_bounds(component: Component) -> tuple[int, int]:
    """Feasible-count envelope ``(k_min, k_max)`` of a component.

    Any exact cover uses at least ``⌈classes / largest candidate⌉`` and
    at most ``|classes|`` groups; counts outside the envelope need not
    be enumerated when building Eq. 5 Pareto fronts.
    """
    largest = max((group.bit_count() for group in component.candidates), default=1)
    k_min = math.ceil(component.num_classes / largest) if component.num_classes else 0
    return k_min, component.num_classes
