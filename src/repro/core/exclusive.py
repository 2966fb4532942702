"""Exclusive-candidate merging (paper Algorithm 3, Fig. 6).

Generally, classes that never co-occur in a trace are not grouped
(``occurs`` filters them out).  The exception: *proper behavioral
alternatives* — groups with identical DFG pre- and postsets and no
edges between them, like the running example's ``{ckc}`` / ``{ckt}``.
Merging alternatives reduces log complexity without losing behavioral
information, so this post pass extends the candidate set with such
merges, with their pre/post extensions (e.g. ``{rcp, ckc, ckt}`` once
``{rcp, ckc}`` and ``{rcp, ckt}`` are candidates), and — via the work
stack — with iteratively larger unions of three or more alternatives.

Only class-based constraints are (re)checked for merged groups:
instance-based constraints cannot be newly violated when merging
exclusive groups, because no trace contains classes from both sides, so
the merged group's instances are exactly the union of the parts'
instances (paper §V-B).

Alternatives are looked up in a *signature index*: a dict from each
group's (preset, postset) signature (``graph.signature``) to the groups
of the growing candidate set that share it.  The input candidates enter
it in the ``(len, sorted)`` order the pass walks, and every merge and
extension is appended as it lands, so a lookup returns exactly the
groups a rescan of the whole set would match, in a fixed order.  Which
extensions land depends on that order, so fixing it keeps the output
independent of set iteration order, and hence of ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.checker import GroupChecker
from repro.eventlog.dfg import DirectlyFollowsGraph, compute_dfg
from repro.eventlog.events import EventLog


@dataclass
class ExclusiveStats:
    """Bookkeeping of one exclusive-merge pass."""

    pairs_checked: int = 0
    merges_added: int = 0
    extensions_added: int = 0
    seconds: float = 0.0

    def counters(self) -> dict:
        """The deterministic counts, without ``seconds``.

        Batch rows and the trace ``solve`` event carry these, so
        recomputed rows compare equal; the pass's time is already in
        ``StepTimings.exclusive``.
        """
        return {
            "pairs_checked": self.pairs_checked,
            "merges_added": self.merges_added,
            "extensions_added": self.extensions_added,
        }


def merge_exclusive_candidates(
    log: EventLog,
    candidates: set[frozenset[str]],
    checker: GroupChecker,
    dfg: DirectlyFollowsGraph | None = None,
    compiled=None,
) -> tuple[set[frozenset[str]], ExclusiveStats]:
    """Extend ``candidates`` with merges of behavioral alternatives (Alg. 3).

    Returns the extended candidate set (a new set; the input is not
    mutated) together with pass statistics.  When ``compiled`` (a
    :class:`~repro.core.encoding.CompiledLog`) is given, the DFG
    neighborhood queries run on precomputed class bitmasks via
    :class:`~repro.core.encoding.CompiledDfgOps` — same API, same
    results, without per-query set algebra over edge tuples.
    """
    started = time.perf_counter()
    dfg = dfg or compute_dfg(log)
    if compiled is not None:
        from repro.core.encoding import CompiledDfgOps

        graph = CompiledDfgOps(compiled, dfg)
    else:
        graph = dfg
    stats = ExclusiveStats()
    result: set[frozenset[str]] = set()
    # Signature index over ``result``: each (preset, postset) key lists
    # the groups sharing it in the order they entered ``result``.
    index: dict[object, list[frozenset[str]]] = {}

    def add(group: frozenset[str]) -> None:
        result.add(group)
        index.setdefault(graph.signature(group), []).append(group)

    ordered = sorted(candidates, key=lambda g: (len(g), sorted(g)))
    for group in ordered:
        add(group)
    seen_groups: set[frozenset[str]] = set()

    for group in ordered:
        if group in seen_groups:
            continue
        equiv_groups = [
            other for other in index[graph.signature(group)] if other != group
        ]
        equiv_groups.append(group)
        pairs_to_check: list[tuple[frozenset[str], frozenset[str]]] = []
        for i, group_i in enumerate(equiv_groups):
            for group_j in equiv_groups[i + 1 :]:
                pairs_to_check.append((group_i, group_j))

        while pairs_to_check:
            group_i, group_j = pairs_to_check.pop()
            merged = group_i | group_j
            stats.pairs_checked += 1
            if merged in result:
                continue
            if not graph.exclusive(group_i, group_j):
                continue
            if not checker.holds_class_only(merged):
                continue
            add(merged)
            stats.merges_added += 1

            # Extend the merge with the shared pre/post context when the
            # corresponding extensions of both parts were candidates.
            preset = graph.pre(group_i)
            postset = graph.post(group_i)
            both = preset | postset
            if (both | group_i) in result and (both | group_j) in result:
                if checker.holds_class_only(both | merged):
                    if (both | merged) not in result:
                        add(both | merged)
                        stats.extensions_added += 1
            elif (preset | group_i) in result and (preset | group_j) in result:
                if checker.holds_class_only(preset | merged):
                    if (preset | merged) not in result:
                        add(preset | merged)
                        stats.extensions_added += 1
            elif (postset | group_i) in result and (postset | group_j) in result:
                if checker.holds_class_only(postset | merged):
                    if (postset | merged) not in result:
                        add(postset | merged)
                        stats.extensions_added += 1

            # Iteratively larger unions of three or more alternatives.
            for group_k in equiv_groups:
                if group_k != group_i and group_k != group_j:
                    pairs_to_check.append((merged, group_k))
            equiv_groups.append(merged)

        seen_groups.update(equiv_groups)

    stats.seconds = time.perf_counter() - started
    return result, stats
