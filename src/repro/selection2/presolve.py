"""Presolver: optimality-preserving reductions of the Step-2 program.

Three reductions shrink a weighted set-partitioning program before it
reaches a solver, each with a replayable *certificate* entry proving it
preserves the set of optimal solutions:

* **duplicate-column merge** — candidates with an identical class set
  keep only the cheapest copy (first in order on cost ties).  Safe
  because any solution using a pricier duplicate is improved (or left
  equal) by swapping in the kept copy.
* **forced singleton fixing** — a class covered by exactly one
  candidate forces that candidate into *every* feasible partition; the
  candidate is fixed, its classes leave the universe, and every
  candidate overlapping it (which could never be selected alongside it)
  is dropped.  Iterated to a fixpoint.  This preserves the feasible set
  exactly, so it is safe under any Eq. 5 cardinality bound — the fixed
  groups simply count toward the bound.
* **dominated-group elimination** — a multi-class candidate ``g`` is
  dropped when every one of its classes has a singleton candidate and
  the singletons' total cost is *strictly* below ``cost(g)``: any
  partition containing ``g`` is strictly improved by the singleton
  split, so no optimal solution contains ``g``.  The split increases
  the group count, so this reduction is only applied when no
  ``max_groups`` bound is active (a larger count can never hurt a
  ``min_groups`` bound).

Strict inequalities (with a small float margin) matter: eliminating a
candidate that merely *ties* an alternative could change which of
several equally-optimal groupings the backend returns, breaking the
byte-identity contract with the monolithic solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.mip.branch_and_bound import PartitionProgram, bits_of

#: Float margin for the strict-domination test: ``cover + MARGIN < cost``.
DOMINATION_MARGIN = 1e-9


@dataclass(frozen=True)
class Reduction:
    """One certificate entry: a reduction plus its justification.

    ``kind`` is ``"duplicate"``, ``"forced"``, or ``"dominated"``;
    ``group`` the candidate concerned (removed, or fixed for
    ``"forced"``); ``reason`` carries the kind-specific evidence that
    :func:`verify_certificate` replays.
    """

    kind: str
    group: tuple[str, ...]
    cost: float
    reason: tuple[tuple[str, object], ...] = ()

    def reason_dict(self) -> dict:
        """The justification payload as a mapping."""
        return dict(self.reason)


@dataclass(frozen=True)
class PresolveOutcome(PartitionProgram):
    """Residual program plus everything the presolver decided.

    The inherited ``classes``/``candidates``/``costs`` describe what is
    left to optimize; ``fixed`` groups (masks) are part of every
    feasible partition of the original program.  ``infeasible_reason``
    is set when fixing exposed an uncoverable class (the program has no
    feasible partition at all).
    """

    fixed: list[int] = field(default_factory=list)
    fixed_costs: list[float] = field(default_factory=list)
    reductions: list[Reduction] = field(default_factory=list)
    infeasible_reason: str | None = None

    def counts(self) -> dict[str, int]:
        """Reduction counters by kind (for :class:`SelectionStats`)."""
        tally = {"duplicates_merged": 0, "forced_fixed": 0, "dominated_removed": 0}
        kinds = {"duplicate": "duplicates_merged", "forced": "forced_fixed",
                 "dominated": "dominated_removed"}
        for reduction in self.reductions:
            tally[kinds[reduction.kind]] += 1
        return tally


def presolve(
    program: PartitionProgram, allow_domination: bool = True
) -> PresolveOutcome:
    """Reduce a set-partitioning program, preserving its optimal set.

    ``allow_domination`` must be ``False`` when an Eq. 5 ``max_groups``
    bound is active (see the module docstring).  Candidates must all be
    subsets of ``program.classes``; classes without any covering
    candidate are reported via ``infeasible_reason``.
    """
    names = program.bits.names
    candidates, costs = program.candidates, program.costs
    reductions: list[Reduction] = []

    # Duplicate-column merge (identical class sets keep the cheapest).
    best_of: dict[int, int] = {}
    for position, (group, cost) in enumerate(zip(candidates, costs)):
        kept = best_of.get(group)
        if kept is None or cost < costs[kept]:
            best_of[group] = position
    live_candidates: list[int] = []
    live_costs: list[float] = []
    for position, (group, cost) in enumerate(zip(candidates, costs)):
        if best_of[group] == position:
            live_candidates.append(group)
            live_costs.append(cost)
        else:
            reductions.append(
                Reduction(
                    kind="duplicate",
                    group=names(group),
                    cost=cost,
                    reason=(("kept_cost", costs[best_of[group]]),),
                )
            )

    remaining = program.classes
    fixed: list[int] = []
    fixed_costs: list[float] = []

    infeasible_reason: str | None = None
    changed = True
    while changed and infeasible_reason is None:
        changed = False
        # Forced singleton fixing to a fixpoint.
        while True:
            once = twice = 0
            for group in live_candidates:
                twice |= once & group
                once |= group
            bare = remaining & ~once
            if bare:
                infeasible_reason = (
                    f"classes without covering candidate: {list(names(bare))}"
                )
                break
            sole = remaining & ~twice
            if not sole:
                break
            forced = sole & -sole  # the first class with one coverer
            position = next(
                position
                for position, group in enumerate(live_candidates)
                if group & forced
            )
            group = live_candidates[position]
            fixed.append(group)
            fixed_costs.append(live_costs[position])
            reductions.append(
                Reduction(
                    kind="forced",
                    group=names(group),
                    cost=live_costs[position],
                    reason=(("class", names(forced)[0]),),
                )
            )
            remaining &= ~group
            survivors = [
                (other, cost)
                for other, cost in zip(live_candidates, live_costs)
                if not (other & group)
            ]
            live_candidates = [group for group, _ in survivors]
            live_costs = [cost for _, cost in survivors]
            changed = True
        if infeasible_reason is not None:
            break

        if not allow_domination:
            continue
        # Dominated-group elimination via strictly cheaper singleton splits.
        singleton_cost = {
            group: cost
            for group, cost in zip(live_candidates, live_costs)
            if not group & (group - 1)
        }
        singles = 0
        for group in singleton_cost:
            singles |= group
        survivors = []
        for group, cost in zip(live_candidates, live_costs):
            if group & (group - 1) and not group & ~singles:
                split_cost = sum(singleton_cost[bit] for bit in bits_of(group))
                if split_cost + DOMINATION_MARGIN < cost:
                    reductions.append(
                        Reduction(
                            kind="dominated",
                            group=names(group),
                            cost=cost,
                            reason=(("singleton_cover_cost", split_cost),),
                        )
                    )
                    changed = True
                    continue
            survivors.append((group, cost))
        live_candidates = [group for group, _ in survivors]
        live_costs = [cost for _, cost in survivors]

    return PresolveOutcome(
        program.bits,
        remaining,
        tuple(live_candidates),
        tuple(live_costs),
        fixed=fixed,
        fixed_costs=fixed_costs,
        reductions=reductions,
        infeasible_reason=infeasible_reason,
    )


def verify_certificate(
    outcome: PresolveOutcome,
    program: PartitionProgram,
    allow_domination: bool = True,
) -> bool:
    """Replay a presolve certificate against the original program.

    Checks every recorded reduction's justification — duplicates had a
    kept copy at most as expensive, forced groups were the sole coverer
    of their witness class among then-live candidates, dominated groups
    had a strictly cheaper all-singleton split — and that the residual
    program is exactly the original minus the recorded removals.
    Returns ``True`` when the certificate is sound; raises
    ``AssertionError`` (with the failing reduction) otherwise.
    """
    encode = program.bits.mask
    cost_of: dict[int, float] = {}
    for group, cost in zip(program.candidates, program.costs):
        known = cost_of.get(group)
        if known is None or cost < known:
            cost_of[group] = cost

    live = dict(cost_of)
    fixed_classes = 0
    for reduction in outcome.reductions:
        group = encode(reduction.group)
        reason = reduction.reason_dict()
        if reduction.kind == "duplicate":
            assert cost_of[group] <= reduction.cost, (
                "duplicate merge kept a pricier copy",
                reduction,
            )
        elif reduction.kind == "forced":
            witness = encode([reason["class"]])
            coverers = [other for other in live if witness & other]
            assert coverers == [group], ("forced group not unique coverer", reduction)
            assert live[group] == reduction.cost, (
                "forced group cost does not match the program",
                reduction,
            )
            fixed_classes |= group
            live = {
                other: cost for other, cost in live.items() if not (other & group)
            }
        elif reduction.kind == "dominated":
            assert allow_domination, ("domination disabled but recorded", reduction)
            assert live.get(group) == reduction.cost, (
                "dominated group cost does not match the program",
                reduction,
            )
            split_cost = sum(live[bit] for bit in bits_of(group))
            assert split_cost + DOMINATION_MARGIN < reduction.cost, (
                "dominated group not strictly beaten by singletons",
                reduction,
            )
            live.pop(group, None)
        else:  # pragma: no cover - kinds are fixed above
            raise AssertionError(f"unknown reduction kind {reduction.kind!r}")

    if outcome.infeasible_reason is None:
        assert outcome.classes == program.classes & ~fixed_classes, (
            "residual universe mismatch"
        )
        assert set(zip(outcome.candidates, outcome.costs)) == set(live.items()), (
            "residual candidates mismatch"
        )
    return True
