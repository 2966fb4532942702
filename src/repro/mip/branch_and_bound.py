"""Self-contained branch-and-bound solver for weighted set partitioning.

GECCO's Step-2 MIP is a *weighted exact cover*: pick disjoint candidate
groups covering every event class exactly once at minimal total
distance, optionally with bounds on the number of picked groups
(paper Eqs. 3–5).  This solver exploits that structure directly and
serves both as a Gurobi-free fallback and as an independent oracle to
cross-check the HiGHS backend in tests.

Search strategy
---------------
* **Branching**: always extend the uncovered class with the fewest
  compatible candidates (minimum-remaining-values), trying candidates
  in ascending cost-per-class order so good incumbents appear early.
* **Bounding**: the cost of covering the remaining classes is bounded
  from below by the sum, over uncovered classes, of the cheapest
  *cost share* ``cost(g)/|g|`` among candidates containing the class —
  admissible because any partition charges each class exactly its
  group's share, which is at least the class's minimum share.
* **LP-relaxation bounding** (scipy-gated): on programs where the
  search survives past an activation node budget, the LP relaxation of
  the covering program *with its Eq. 5 count rows* is solved once
  (:func:`lp_prices`).  Its prices — one ``y_c`` per class and
  ``μ_lo, μ_hi ≥ 0`` for the ``min``/``max`` count rows — are corrected
  to exact dual feasibility (every reduced cost
  ``cost(g) − y(g) − μ_lo + μ_hi`` is ≥ 0, verified with
  :func:`math.fsum`), so a partial solution with ``m`` groups needs at
  least ``Σ_{c uncovered} y_c + max(min − m, 0)·μ_lo − (max − m)·μ_hi``
  more cost, less a float-summation safety margin.  That bound replaces
  the cost shares wherever it is tighter.  Without scipy the solver
  silently keeps the cost-share bound; either way the returned
  selection is *identical* (an admissible bound never prunes the first
  optimum in DFS order, and adoption requires strict improvement).
* **Cardinality pruning**: a partial solution with ``m`` groups is
  pruned when ``m`` exceeds the maximum, when even one group per
  remaining class cannot reach the minimum, or when the remaining
  classes cannot be covered with few enough groups given the largest
  candidate size.

The same prices make the lex-min tie-break cheap
(:func:`lexmin_optimal_selection`): a candidate whose reduced cost
lifts the LP bound above the optimum is in no optimal cover, so it is
dropped before the tie-break search runs.
"""

from __future__ import annotations

import math
import sys
import time
from collections.abc import Sequence
from dataclasses import dataclass

from repro.exceptions import SolverError
from repro.mip.result import SolverResult, SolverStatus

#: How often (in nodes) the search checks its wall-clock deadline.
_TIME_CHECK_INTERVAL = 1024

#: ``lp_bound=None`` (auto) solves the LP relaxation only once the
#: search has burned this many nodes, and the lex-min tie-break only
#: once its plain search has: easy instances never pay the linprog
#: call, hard ones amortize it over deep pruning.
LP_ACTIVATION_NODES = 2048


@dataclass(frozen=True)
class LPPrices:
    """Exactly dual-feasible prices of the covering LP with count rows.

    ``classes`` maps each class to its price ``y_c``; ``at_least`` and
    ``at_most`` are the prices ``μ_lo, μ_hi ≥ 0`` of the ``Σx ≥ min``
    and ``Σx ≤ max`` rows (0 without the row).  Every candidate's
    :meth:`reduced_cost` is ≥ 0, so an exact cover ``S`` within the
    count bounds costs at least ``floor + Σ_{g ∈ S} reduced_cost(g)``,
    where ``floor = Σ_c y_c + min·μ_lo − max·μ_hi``.  ``margin`` bounds
    the float-summation error of every comparison made against these
    prices (plain per-node sums, and the searches' running costs).
    """

    classes: dict[str, float]
    at_least: float
    at_most: float
    floor: float
    margin: float

    def reduced_cost(self, group, cost: float) -> float:
        """``cost − y(group) − μ_lo + μ_hi``, correctly rounded."""
        return math.fsum(
            [cost, -self.at_least, self.at_most]
            + [-self.classes[cls] for cls in group]
        )


def lp_prices(
    universe: Sequence[str],
    candidates: Sequence[frozenset[str]],
    costs: Sequence[float],
    min_count: int | None = None,
    max_count: int | None = None,
) -> LPPrices | None:
    """Solve the covering LP plus its count rows; return exact prices.

    HiGHS's duals are only feasible up to its tolerances.  They are
    corrected to exact dual feasibility: each violated candidate's
    violation is spread over its member classes (each class absorbs the
    worst per-class share among its violated groups), then the
    fsum-measured residual is shaved off every class, rounding down.
    ``None`` when scipy is unavailable or the LP fails (infeasible
    count rows, numerical trouble): callers keep their cost-share
    bounds.
    """
    from repro.mip import scipy_backend

    if not scipy_backend.HAVE_SCIPY or not candidates:
        return None
    np = scipy_backend.np
    classes = sorted(set(universe))
    rows = {cls: row for row, cls in enumerate(classes)}
    count_rows = [
        (sign, sign * float(bound))
        for sign, bound in ((-1.0, min_count), (1.0, max_count))
        if bound is not None
    ]
    try:
        from scipy.optimize import linprog

        matrix = np.zeros((len(classes), len(candidates)))
        for position, candidate in enumerate(candidates):
            for cls in candidate:
                matrix[rows[cls], position] = 1.0
        outcome = linprog(
            np.asarray(costs, dtype=float),
            A_ub=(
                np.array([[sign] * len(candidates) for sign, _ in count_rows])
                if count_rows
                else None
            ),
            b_ub=[rhs for _, rhs in count_rows] if count_rows else None,
            A_eq=matrix,
            b_eq=np.ones(len(classes)),
            bounds=(0, None),
            method="highs",
        )
        if outcome.status != 0 or outcome.eqlin is None:
            return None
        prices = {cls: float(outcome.eqlin.marginals[rows[cls]]) for cls in classes}
        # ``linprog`` reports ≤-row marginals as ≤ 0; the count prices
        # are their negations.
        count_prices = (
            [max(0.0, -float(value)) for value in outcome.ineqlin.marginals]
            if count_rows
            else []
        )
    except Exception:  # pragma: no cover - defensive: LP is optional
        return None
    at_least = count_prices[0] if min_count is not None else 0.0
    at_most = count_prices[-1] if max_count is not None else 0.0

    def slacks(prices):
        return [
            math.fsum(
                [costs[position], -at_least, at_most]
                + [-prices[cls] for cls in candidate]
            )
            for position, candidate in enumerate(candidates)
        ]

    reduction = dict.fromkeys(classes, 0.0)
    for candidate, slack in zip(candidates, slacks(prices)):
        if slack < 0:
            share = -slack / len(candidate)
            for cls in candidate:
                reduction[cls] = max(reduction[cls], share)
    prices = {cls: prices[cls] - reduction[cls] for cls in classes}
    residual = -min(slacks(prices))
    if residual > 0.0:
        # Rounding down makes every class drop by at least the residual.
        prices = {
            cls: math.nextafter(value - residual, -math.inf)
            for cls, value in prices.items()
        }
        if min(slacks(prices)) < 0.0:  # pragma: no cover - by construction
            return None
    lower = (min_count or 0) * at_least
    upper = (max_count or 0) * at_most
    scale = math.fsum(
        [abs(value) for value in prices.values()]
        + [lower, upper, len(classes) * max(costs)]
    )
    return LPPrices(
        classes=prices,
        at_least=at_least,
        at_most=at_most,
        floor=math.fsum(list(prices.values()) + [lower, -upper]),
        margin=4.0 * (len(classes) + 3) * sys.float_info.epsilon * scale,
    )


class SetPartitionSolver:
    """Branch-and-bound solver for one weighted set-partitioning instance.

    Parameters
    ----------
    universe:
        Event classes that must each be covered exactly once.
    candidates:
        Candidate groups (subsets of the universe).
    costs:
        Cost per candidate, parallel to ``candidates``.  Costs must be
        non-negative for the bound to be admissible.
    min_count / max_count:
        Optional bounds on the number of selected candidates.
    node_limit:
        Safety valve on explored search nodes.
    incumbent:
        Optional warm start ``(positions, cost)`` — a known feasible
        selection (e.g. a greedy cover) whose cost seeds the upper
        bound, so the search starts pruning immediately.  The incumbent
        is validated (disjoint, exactly covering, within the count
        bounds); the search returns it unchanged only when nothing
        strictly cheaper exists.
    time_limit:
        Optional wall-clock budget in seconds; exceeding it raises
        :class:`SolverError` (the portfolio layer catches this and
        falls back to another backend).
    lp_bound:
        ``True`` solves the LP relaxation up front for dual-price
        bounds, ``False`` keeps the cost-share bound only, ``None``
        (default) activates the LP lazily after
        :data:`LP_ACTIVATION_NODES` search nodes.  Ignored (cost-share
        only) when scipy is unavailable; the returned selection is
        identical in every case.  The prices, once solved, stay on
        :attr:`prices` for the lex-min tie-break to reuse.
    """

    def __init__(
        self,
        universe: Sequence[str],
        candidates: Sequence[frozenset[str]],
        costs: Sequence[float],
        min_count: int | None = None,
        max_count: int | None = None,
        node_limit: int = 2_000_000,
        incumbent: "tuple[Sequence[int], float] | None" = None,
        time_limit: float | None = None,
        lp_bound: bool | None = None,
    ):
        if len(candidates) != len(costs):
            raise SolverError("candidates and costs must have equal length")
        if any(cost < 0 for cost in costs):
            raise SolverError("set-partition costs must be non-negative")
        self.universe = tuple(sorted(set(universe)))
        self.candidates = [frozenset(candidate) for candidate in candidates]
        for candidate in self.candidates:
            if not candidate <= set(self.universe):
                raise SolverError(
                    f"candidate {sorted(candidate)} is not a subset of the universe"
                )
            if not candidate:
                raise SolverError("empty candidate group")
        self.costs = [float(cost) for cost in costs]
        self.min_count = min_count
        self.max_count = max_count
        self.node_limit = node_limit

        self._by_class: dict[str, list[int]] = {cls: [] for cls in self.universe}
        for position, candidate in enumerate(self.candidates):
            for cls in candidate:
                self._by_class[cls].append(position)
        # Candidates per class in ascending cost-per-class order.
        for cls, positions in self._by_class.items():
            positions.sort(key=lambda p: self.costs[p] / len(self.candidates[p]))
        self._min_share = {
            cls: min(
                (self.costs[p] / len(self.candidates[p]) for p in positions),
                default=math.inf,
            )
            for cls, positions in self._by_class.items()
        }
        self._max_candidate_size = max(
            (len(candidate) for candidate in self.candidates), default=1
        )

        self._best_cost = math.inf
        self._best_selection: list[int] | None = None
        self._nodes = 0
        self._time_limit = time_limit
        self._deadline: float | None = None
        self._lp_bound = lp_bound
        self._lp_tried = False
        self._lp_cuts = 0
        #: The LP relaxation's exact prices once solved; ``None`` before
        #: (and for good when scipy is missing or the LP failed).
        self.prices: LPPrices | None = None
        if incumbent is not None:
            self._adopt_incumbent(incumbent)

    def _adopt_incumbent(self, incumbent: "tuple[Sequence[int], float]") -> None:
        """Validate a warm-start selection and seed the upper bound."""
        positions = list(incumbent[0])
        covered: set[str] = set()
        cost = 0.0
        for position in positions:
            if not 0 <= position < len(self.candidates):
                raise SolverError(f"incumbent references candidate {position}")
            group = self.candidates[position]
            if covered & group:
                raise SolverError("incumbent selection is not disjoint")
            covered |= group
            cost += self.costs[position]
        if covered != set(self.universe):
            raise SolverError("incumbent selection does not cover the universe")
        if self.min_count is not None and len(positions) < self.min_count:
            raise SolverError("incumbent selection violates min_count")
        if self.max_count is not None and len(positions) > self.max_count:
            raise SolverError("incumbent selection violates max_count")
        self._best_cost = cost
        self._best_selection = positions

    # -- public API ----------------------------------------------------------

    def solve(self) -> SolverResult:
        """Run the search; returns an optimal selection or infeasibility."""
        if any(not positions for positions in self._by_class.values()):
            missing = [cls for cls, pos in self._by_class.items() if not pos]
            return SolverResult(
                SolverStatus.INFEASIBLE,
                message=f"classes without covering candidate: {missing}",
            )
        if not self.universe:
            feasible_empty = (self.min_count or 0) <= 0
            if feasible_empty:
                return SolverResult(SolverStatus.OPTIMAL, objective=0.0, values={})
            return SolverResult(
                SolverStatus.INFEASIBLE, message="empty universe cannot meet min_count"
            )
        if self._time_limit is not None:
            self._deadline = time.perf_counter() + self._time_limit
        if self._lp_bound is True:
            self._solve_lp_relaxation()
        self._search(frozenset(), [], 0.0)
        if self._best_selection is None:
            return SolverResult(
                SolverStatus.INFEASIBLE,
                nodes_explored=self._nodes,
                lp_bound_cuts=self._lp_cuts,
                message="exhausted search without feasible partition",
            )
        values = {f"g{p}": 0 for p in range(len(self.candidates))}
        for position in self._best_selection:
            values[f"g{position}"] = 1
        return SolverResult(
            SolverStatus.OPTIMAL,
            objective=self._best_cost,
            values=values,
            nodes_explored=self._nodes,
            lp_bound_cuts=self._lp_cuts,
        )

    def selected_groups(self, result: SolverResult) -> list[frozenset[str]]:
        """Decode a result's selected variables back into groups."""
        return [
            self.candidates[int(name[1:])]
            for name in result.selected()
        ]

    # -- LP-relaxation bound -------------------------------------------------

    def _solve_lp_relaxation(self) -> None:
        """Solve the LP relaxation once (see :func:`lp_prices`)."""
        self._lp_tried = True
        self.prices = lp_prices(
            self.universe, self.candidates, self.costs,
            self.min_count, self.max_count,
        )

    # -- search --------------------------------------------------------------

    def _lower_bound(self, covered: frozenset[str]) -> float:
        return sum(
            self._min_share[cls] for cls in self.universe if cls not in covered
        )

    def _dual_bound(self, covered: frozenset[str], count: int) -> float:
        prices = self.prices
        assert prices is not None
        bound = (
            sum(prices.classes[cls] for cls in self.universe if cls not in covered)
            - prices.margin
        )
        if self.min_count is not None:
            bound += max(self.min_count - count, 0) * prices.at_least
        if self.max_count is not None:
            bound -= (self.max_count - count) * prices.at_most
        return bound

    def _cardinality_prunes(self, covered: frozenset[str], count: int) -> bool:
        remaining = len(self.universe) - len(covered)
        if self.max_count is not None:
            # Even the largest candidates cannot cover the rest within budget.
            needed = math.ceil(remaining / self._max_candidate_size)
            if count + needed > self.max_count:
                return True
        if self.min_count is not None:
            # Each further group covers at least one class.
            if count + remaining < self.min_count:
                return True
        return False

    def _search(
        self, covered: frozenset[str], selection: list[int], cost: float
    ) -> None:
        self._nodes += 1
        if self._nodes > self.node_limit:
            raise SolverError(
                f"branch-and-bound node limit ({self.node_limit}) exceeded"
            )
        if (
            self._nodes % _TIME_CHECK_INTERVAL == 0
            and self._deadline is not None
            and time.perf_counter() > self._deadline
        ):
            raise SolverError(
                f"branch-and-bound time limit ({self._time_limit}s) exceeded"
            )
        if (
            self._lp_bound is None
            and not self._lp_tried
            and self._nodes >= LP_ACTIVATION_NODES
        ):
            self._solve_lp_relaxation()
        if len(covered) == len(self.universe):
            count = len(selection)
            if self.min_count is not None and count < self.min_count:
                return
            if self.max_count is not None and count > self.max_count:
                return
            if cost < self._best_cost:
                self._best_cost = cost
                self._best_selection = list(selection)
            return
        share_bound = self._lower_bound(covered)
        bound = share_bound
        if self.prices is not None:
            dual_bound = self._dual_bound(covered, len(selection))
            if dual_bound > bound:
                bound = dual_bound
        if cost + bound >= self._best_cost:
            if cost + share_bound < self._best_cost:
                self._lp_cuts += 1  # only the LP price made this prune
            return
        if self._cardinality_prunes(covered, len(selection)):
            return

        # Branch on the uncovered class with the fewest compatible options.
        branch_class = None
        branch_options: list[int] | None = None
        for cls in self.universe:
            if cls in covered:
                continue
            options = [
                position
                for position in self._by_class[cls]
                if not (self.candidates[position] & covered)
            ]
            if not options:
                return  # dead end: class can no longer be covered
            if branch_options is None or len(options) < len(branch_options):
                branch_class, branch_options = cls, options
                if len(options) == 1:
                    break
        assert branch_options is not None and branch_class is not None
        for position in branch_options:
            candidate = self.candidates[position]
            selection.append(position)
            self._search(covered | candidate, selection, cost + self.costs[position])
            selection.pop()


class _CanonicalAbort(Exception):
    """Internal: the canonicalization search ran out of node budget."""


def lexmin_optimal_selection(
    universe: Sequence[str],
    candidates: Sequence[frozenset[str]],
    costs: Sequence[float],
    target: float,
    min_count: int | None = None,
    max_count: int | None = None,
    node_limit: int = 2_000_000,
    tolerance: float = 1e-9,
    prices: LPPrices | None = None,
) -> list[int] | None:
    """The lexicographically-smallest optimal selection of a solved program.

    Given the proven optimal objective ``target`` of a weighted
    set-partitioning program, find — among all selections of cost
    ``<= target + tolerance`` that exactly cover ``universe`` within the
    count bounds — the one whose sorted candidate positions are
    lexicographically smallest.  This is the **canonical tie-break**
    shared by the monolithic and decomposed Step-2 paths: equal-cost
    optima exist in real programs, different solvers (or the same
    solver on a permuted matrix) break them differently, and the
    byte-identity contract between the paths needs one deterministic
    winner.  Because the first difference between two unions of
    disjoint-support selections lies inside their symmetric difference,
    per-component lex-min selections compose to the global lex-min —
    canonicalizing each overlap component independently yields exactly
    this function's answer on the full program.

    **Reduced-cost fixing.**  With exact LP prices (see
    :class:`LPPrices`), a selection containing ``g`` costs at least
    ``floor + reduced_cost(g)``, so every ``g`` for which that exceeds
    ``target + tolerance`` (plus the float margin) is dropped before the
    search.  The survivors keep their order, so their lex-min is the
    lex-min over all candidates.  ``prices`` shares a solver's prices
    (:attr:`SetPartitionSolver.prices`); without them the plain search
    runs first and the LP is solved only once it has spent
    :data:`LP_ACTIVATION_NODES` nodes.  Without scipy there is no
    fixing and the search runs unchanged.

    Depth-first over positions in ascending order, trying *include*
    before *exclude*, pruned by the optimal-cost bound (only
    optimal-cost paths survive), cost-share lower bounds, count
    envelopes, and per-class coverage horizons.  Returns ``None`` when
    the ``node_limit`` budget is exhausted (callers keep the solver's
    own selection in that case).
    """
    from repro.mip import scipy_backend

    classes = sorted(set(universe))
    if not classes:
        return []
    limit = target + tolerance
    survivors = range(len(candidates))
    try:
        if prices is None and scipy_backend.HAVE_SCIPY:
            try:
                return _lexmin_search(
                    classes, candidates, costs, survivors, limit,
                    min_count, max_count, min(node_limit, LP_ACTIVATION_NODES),
                )
            except _CanonicalAbort:
                if node_limit <= LP_ACTIVATION_NODES:
                    raise
            prices = lp_prices(classes, candidates, costs, min_count, max_count)
        if prices is not None:
            cutoff = limit + prices.margin
            survivors = [
                position
                for position in survivors
                if prices.floor
                + prices.reduced_cost(candidates[position], costs[position])
                <= cutoff
            ]
        return _lexmin_search(
            classes, candidates, costs, survivors, limit,
            min_count, max_count, node_limit,
        )
    except _CanonicalAbort:
        return None


def _lexmin_search(
    classes: list[str],
    candidates: Sequence[frozenset[str]],
    costs: Sequence[float],
    order: Sequence[int],
    limit: float,
    min_count: int | None,
    max_count: int | None,
    node_limit: int,
) -> list[int] | None:
    """The lex-min search over the candidate positions in ``order``.

    Raises :class:`_CanonicalAbort` past ``node_limit`` nodes.
    """
    total = len(classes)
    count = len(order)
    min_share: dict[str, float] = dict.fromkeys(classes, math.inf)
    last_index: dict[str, int] = dict.fromkeys(classes, -1)
    largest = 1
    for index, position in enumerate(order):
        candidate = candidates[position]
        largest = max(largest, len(candidate))
        share = costs[position] / len(candidate)
        for cls in candidate:
            if share < min_share[cls]:
                min_share[cls] = share
            last_index[cls] = index
    nodes = 0

    def _search(index, covered, selected, cost, selection):
        # The exclude branch iterates (recursing per skipped candidate
        # would overflow the stack on large programs); only the include
        # branch recurses, bounding the depth by the partition size.
        nonlocal nodes
        remaining = total - len(covered)
        while True:
            nodes += 1
            if nodes > node_limit:
                raise _CanonicalAbort
            if remaining == 0:
                if min_count is not None and selected < min_count:
                    return None
                if max_count is not None and selected > max_count:
                    return None
                return list(selection)
            if index == count:
                return None
            bound = 0.0
            for cls in classes:
                if cls not in covered:
                    if last_index[cls] < index:
                        return None  # the class can no longer be covered
                    bound += min_share[cls]
            if cost + bound > limit:
                return None
            if (
                max_count is not None
                and selected + math.ceil(remaining / largest) > max_count
            ):
                return None
            if min_count is not None and selected + remaining < min_count:
                return None
            position = order[index]
            candidate = candidates[position]
            if not (candidate & covered) and cost + costs[position] <= limit:
                selection.append(position)
                found = _search(
                    index + 1,
                    covered | candidate,
                    selected + 1,
                    cost + costs[position],
                    selection,
                )
                if found is not None:
                    return found
                selection.pop()
            index += 1

    return _search(0, frozenset(), 0, 0.0, [])
