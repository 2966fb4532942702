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
dropped before the tie-break search runs.  Programs arrive encoded
(:class:`PartitionProgram`), so every class set is an integer mask.
"""

from __future__ import annotations

import math
import sys
import time
from collections.abc import Collection, Iterable, Sequence
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


def bits_of(mask: int) -> list[int]:
    """The single-bit masks set in ``mask``, in ascending order."""
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low)
        mask ^= low
    return bits


class ClassEncoder:
    """Step 2's one class-to-bit map: bit ``i`` is ``classes[i]``.

    ``classes`` is the sorted universe, so ascending bit order is sorted
    class order (the order float sums over classes run in) and no mask
    depends on ``PYTHONHASHSEED``.
    """

    def __init__(self, universe: Iterable[str]):
        self.classes: tuple[str, ...] = tuple(sorted(set(universe)))
        self._bit = {cls: 1 << index for index, cls in enumerate(self.classes)}
        #: The mask of the whole universe.
        self.full = (1 << len(self.classes)) - 1

    def mask(self, group: Iterable[str]) -> int:
        """The mask of ``group``; a class outside the universe is an error."""
        mask = 0
        for cls in group:
            bit = self._bit.get(cls)
            if bit is None:
                raise SolverError(f"class {cls!r} is not in the universe")
            mask |= bit
        return mask

    def names(self, mask: int) -> tuple[str, ...]:
        """The classes of ``mask``, sorted."""
        return tuple(self.classes[bit.bit_length() - 1] for bit in bits_of(mask))


@dataclass(frozen=True)
class PartitionProgram:
    """A weighted set-partitioning program on class bitmasks: cover the
    ``classes`` mask exactly once with ``candidates`` masks of ``costs``.
    """

    bits: ClassEncoder
    classes: int
    candidates: tuple[int, ...]
    costs: tuple[float, ...]

    @classmethod
    def encode(cls, universe: Iterable[str], candidates: Iterable, costs: Iterable):
        """Encode a program over ``universe`` from class-set candidates."""
        bits = ClassEncoder(universe)
        return cls(bits, bits.full, tuple(map(bits.mask, candidates)), tuple(costs))

    @property
    def num_classes(self) -> int:
        """Size of the class universe to cover."""
        return self.classes.bit_count()

    @property
    def num_candidates(self) -> int:
        """Number of candidate groups."""
        return len(self.candidates)


@dataclass(frozen=True)
class LPPrices:
    """Exactly dual-feasible prices of the covering LP with count rows.

    ``classes`` maps each class bit to its price ``y_c``; ``at_least`` and
    ``at_most`` are the prices ``μ_lo, μ_hi ≥ 0`` of the ``Σx ≥ min``
    and ``Σx ≤ max`` rows (0 without the row).  Every candidate's
    :meth:`reduced_cost` is ≥ 0, so an exact cover ``S`` within the
    count bounds costs at least ``floor + Σ_{g ∈ S} reduced_cost(g)``,
    where ``floor = Σ_c y_c + min·μ_lo − max·μ_hi``.  ``margin`` bounds
    the float-summation error of every comparison made against these
    prices (plain per-node sums, and the searches' running costs).
    ``reduced`` holds every candidate's reduced cost, by position.
    """

    classes: dict[int, float]
    at_least: float
    at_most: float
    floor: float
    margin: float
    reduced: tuple[float, ...] = ()

    def reduced_cost(self, group: int, cost: float) -> float:
        """``cost − y(group) − μ_lo + μ_hi``, correctly rounded."""
        return math.fsum(
            [cost, -self.at_least, self.at_most]
            + [-self.classes[bit] for bit in bits_of(group)]
        )


def lp_prices(
    program: PartitionProgram,
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

    candidates, costs = program.candidates, program.costs
    if not scipy_backend.HAVE_SCIPY or not candidates:
        return None
    np = scipy_backend.np
    classes = bits_of(program.classes)
    row_of = {bit: row for row, bit in enumerate(classes)}
    #: Each candidate's classes as LP rows (ascending).
    members = [[row_of[bit] for bit in bits_of(candidate)] for candidate in candidates]
    count_rows = [
        (sign, sign * float(bound))
        for sign, bound in ((-1.0, min_count), (1.0, max_count))
        if bound is not None
    ]
    try:
        from scipy.optimize import linprog

        matrix = np.zeros((len(classes), len(candidates)))
        matrix[
            [row for rows in members for row in rows],
            [position for position, rows in enumerate(members) for _ in rows],
        ] = 1.0
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
        prices = [float(value) for value in outcome.eqlin.marginals]
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
            math.fsum([cost, -at_least, at_most] + [-prices[row] for row in rows])
            for cost, rows in zip(costs, members)
        ]

    reduction = [0.0] * len(classes)
    for rows, slack in zip(members, slacks(prices)):
        if slack < 0:
            share = -slack / len(rows)
            for row in rows:
                reduction[row] = max(reduction[row], share)
    prices = [price - cut for price, cut in zip(prices, reduction)]
    reduced = slacks(prices)
    residual = -min(reduced)
    if residual > 0.0:
        # Rounding down makes every class drop by at least the residual.
        prices = [math.nextafter(value - residual, -math.inf) for value in prices]
        reduced = slacks(prices)
        if min(reduced) < 0.0:  # pragma: no cover - by construction
            return None
    lower = (min_count or 0) * at_least
    upper = (max_count or 0) * at_most
    scale = math.fsum(
        [abs(value) for value in prices] + [lower, upper, len(classes) * max(costs)]
    )
    return LPPrices(
        classes=dict(zip(classes, prices)),
        at_least=at_least,
        at_most=at_most,
        floor=math.fsum(prices + [lower, -upper]),
        margin=4.0 * (len(classes) + 3) * sys.float_info.epsilon * scale,
        reduced=tuple(reduced),
    )


class SetPartitionSolver:
    """Branch-and-bound solver for one weighted set-partitioning instance.

    Parameters
    ----------
    program:
        The encoded program: every class of ``program.classes`` must be
        covered exactly once by disjoint candidates.  Costs must be
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
        program: PartitionProgram,
        min_count: int | None = None,
        max_count: int | None = None,
        node_limit: int = 2_000_000,
        incumbent: "tuple[Sequence[int], float] | None" = None,
        time_limit: float | None = None,
        lp_bound: bool | None = None,
    ):
        if len(program.candidates) != len(program.costs):
            raise SolverError("candidates and costs must have equal length")
        if program.costs and min(program.costs) < 0:
            raise SolverError("set-partition costs must be non-negative")
        self.program = program
        self.universe = program.classes
        self.candidates = list(program.candidates)
        outside = ~self.universe
        for candidate in self.candidates:
            if candidate & outside:
                raise SolverError(
                    f"candidate {list(program.bits.names(candidate))} "
                    "is not a subset of the universe"
                )
            if not candidate:
                raise SolverError("empty candidate group")
        self.costs = [float(cost) for cost in program.costs]
        self.min_count = min_count
        self.max_count = max_count
        self.node_limit = node_limit

        sizes = [candidate.bit_count() for candidate in self.candidates]
        shares = [cost / size for cost, size in zip(self.costs, sizes)]
        # Candidates per class in ascending cost-per-class order (ties by
        # position): fill the class lists in one stably sorted pass.
        by_class: dict[int, list[tuple[int, int]]] = {
            bit: [] for bit in bits_of(self.universe)
        }
        for position in sorted(range(len(shares)), key=shares.__getitem__):
            candidate = rest = self.candidates[position]
            while rest:
                low = rest & -rest
                by_class[low].append((position, candidate))
                rest ^= low
        #: ``(class bit, [(position, mask), ...])`` in ascending bit order.
        self._by_class = list(by_class.items())
        #: ``(class bit, cheapest cost share)`` in ascending bit order.
        self._min_share = [
            (bit, shares[options[0][0]] if options else math.inf)
            for bit, options in self._by_class
        ]
        self._num_classes = len(by_class)
        self._max_candidate_size = max(sizes, default=1)

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
        covered = 0
        cost = 0.0
        for position in positions:
            if not 0 <= position < len(self.candidates):
                raise SolverError(f"incumbent references candidate {position}")
            group = self.candidates[position]
            if covered & group:
                raise SolverError("incumbent selection is not disjoint")
            covered |= group
            cost += self.costs[position]
        if covered != self.universe:
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
        bare = sum(bit for bit, options in self._by_class if not options)
        if bare:
            missing = list(self.program.bits.names(bare))
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
        self._search(0, [], 0.0)
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
            frozenset(self.program.bits.names(self.candidates[int(name[1:])]))
            for name in result.selected()
        ]

    # -- LP-relaxation bound -------------------------------------------------

    def _solve_lp_relaxation(self) -> None:
        """Solve the LP relaxation once (see :func:`lp_prices`)."""
        self._lp_tried = True
        self.prices = lp_prices(self.program, self.min_count, self.max_count)

    # -- search --------------------------------------------------------------

    def _lower_bound(self, covered: int) -> float:
        return sum(share for bit, share in self._min_share if not covered & bit)

    def _dual_bound(self, covered: int, count: int) -> float:
        prices = self.prices
        assert prices is not None
        bound = (
            sum(price for bit, price in prices.classes.items() if not covered & bit)
            - prices.margin
        )
        if self.min_count is not None:
            bound += max(self.min_count - count, 0) * prices.at_least
        if self.max_count is not None:
            bound -= (self.max_count - count) * prices.at_most
        return bound

    def _cardinality_prunes(self, covered: int, count: int) -> bool:
        remaining = self._num_classes - covered.bit_count()
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

    def _search(self, covered: int, selection: list[int], cost: float) -> None:
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
        if covered == self.universe:
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

        # Branch on the uncovered class with the fewest compatible options
        # (the first in ascending bit order on ties).
        branch_options: list[int] | None = None
        for bit, options_of in self._by_class:
            if covered & bit:
                continue
            options = [position for position, mask in options_of if not mask & covered]
            if not options:
                return  # dead end: class can no longer be covered
            if branch_options is None or len(options) < len(branch_options):
                branch_options = options
                if len(options) == 1:
                    break
        assert branch_options is not None
        candidates, costs = self.candidates, self.costs
        for position in branch_options:
            selection.append(position)
            self._search(
                covered | candidates[position], selection, cost + costs[position]
            )
            selection.pop()


class _CanonicalAbort(Exception):
    """Internal: the canonicalization search ran out of node budget."""


def lexmin_optimal_selection(
    program: PartitionProgram,
    target: float,
    min_count: int | None = None,
    max_count: int | None = None,
    node_limit: int = 2_000_000,
    tolerance: float = 1e-9,
    prices: LPPrices | None = None,
    forbidden: Collection[frozenset[int]] = (),
) -> list[int] | None:
    """The lexicographically-smallest optimal selection of a solved program.

    Given the proven optimal objective ``target`` of a weighted
    set-partitioning program, find — among all selections of cost
    ``<= target + tolerance`` that exactly cover ``program.classes``
    within the count bounds and are not ``forbidden`` (position sets
    cut as no-goods) — the one whose sorted candidate positions are
    lexicographically smallest.  This is the **canonical tie-break**
    shared by the Step-2 paths: equal-cost
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

    if not program.classes:
        return []
    limit = target + tolerance
    survivors = range(len(program.candidates))
    try:
        if prices is None and scipy_backend.HAVE_SCIPY:
            try:
                return _lexmin_search(
                    program, survivors, limit, min_count, max_count,
                    min(node_limit, LP_ACTIVATION_NODES), forbidden,
                )
            except _CanonicalAbort:
                if node_limit <= LP_ACTIVATION_NODES:
                    raise
            prices = lp_prices(program, min_count, max_count)
        if prices is not None:
            cutoff = limit + prices.margin
            survivors = [
                position
                for position in survivors
                if prices.floor + prices.reduced[position] <= cutoff
            ]
        return _lexmin_search(
            program, survivors, limit, min_count, max_count, node_limit, forbidden,
        )
    except _CanonicalAbort:
        return None


def _lexmin_search(
    program: PartitionProgram,
    order: Sequence[int],
    limit: float,
    min_count: int | None,
    max_count: int | None,
    node_limit: int,
    forbidden: Collection[frozenset[int]] = (),
) -> list[int] | None:
    """The lex-min search over the candidate positions in ``order``.

    Raises :class:`_CanonicalAbort` past ``node_limit`` nodes.
    """
    candidates, costs = program.candidates, program.costs
    classes = bits_of(program.classes)
    total = len(classes)
    count = len(order)
    min_share = dict.fromkeys(classes, math.inf)
    last_index = dict.fromkeys(classes, -1)
    largest = 1
    for index, position in enumerate(order):
        candidate = candidates[position]
        size = candidate.bit_count()
        largest = max(largest, size)
        share = costs[position] / size
        for bit in bits_of(candidate):
            if share < min_share[bit]:
                min_share[bit] = share
            last_index[bit] = index
    horizon = [(bit, last_index[bit], min_share[bit]) for bit in classes]
    nodes = 0

    def _search(index, covered, selected, cost, selection):
        # The exclude branch iterates (recursing per skipped candidate
        # would overflow the stack on large programs); only the include
        # branch recurses, bounding the depth by the partition size.
        nonlocal nodes
        remaining = total - covered.bit_count()
        while True:
            nodes += 1
            if nodes > node_limit:
                raise _CanonicalAbort
            if remaining == 0:
                if min_count is not None and selected < min_count:
                    return None
                if max_count is not None and selected > max_count:
                    return None
                if forbidden and frozenset(selection) in forbidden:
                    return None
                return list(selection)
            if index == count:
                return None
            bound = 0.0
            for bit, last, share in horizon:
                if not covered & bit:
                    if last < index:
                        return None  # the class can no longer be covered
                    bound += share
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

    return _search(0, 0, 0, 0.0, [])
