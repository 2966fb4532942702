"""Directly-follows graphs (DFGs) over event logs.

A DFG has the event classes of a log as vertices and an edge ``a -> b``
whenever some trace contains an event of class ``a`` immediately
followed by one of class ``b`` (paper §III-A).  Edges carry their
directly-follows frequency, which the mining substrate and the spectral
partitioning baseline both need.

Beyond plain construction, this module provides the group-level
neighborhood operations used by Algorithm 3 (exclusive-candidate
merging): pre/post sets of groups, the ``(preset, postset)``
``signature`` whose equality identifies *behavioral alternatives*
(Fig. 6), and the ``exclusive`` edge check.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.eventlog.events import EventLog


@dataclass
class DirectlyFollowsGraph:
    """A weighted directly-follows graph.

    Attributes
    ----------
    nodes:
        Event classes of the underlying log (including classes that
        never participate in any directly-follows pair, e.g. in
        single-event traces).
    edge_counts:
        Mapping ``(a, b) -> frequency`` of the directly-follows relation.
    start_counts / end_counts:
        How often each class starts / ends a trace (needed by process
        discovery).
    """

    nodes: frozenset[str]
    edge_counts: dict[tuple[str, str], int] = field(default_factory=dict)
    start_counts: dict[str, int] = field(default_factory=dict)
    end_counts: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        self._successor_map: dict[str, frozenset[str]] | None = None
        self._predecessor_map: dict[str, frozenset[str]] | None = None

    def _adjacency(self) -> tuple[dict, dict]:
        """Cached successor/predecessor maps.

        Built once from ``edge_counts`` (which is never mutated after
        construction — filtering returns a new graph), so repeated
        neighborhood queries avoid rescanning the full edge dict.
        """
        if self._successor_map is None:
            successors: dict[str, set[str]] = {}
            predecessors: dict[str, set[str]] = {}
            for source, target in self.edge_counts:
                successors.setdefault(source, set()).add(target)
                predecessors.setdefault(target, set()).add(source)
            self._successor_map = {
                node: frozenset(members) for node, members in successors.items()
            }
            self._predecessor_map = {
                node: frozenset(members) for node, members in predecessors.items()
            }
        return self._successor_map, self._predecessor_map

    # -- basic queries -------------------------------------------------

    @property
    def edges(self) -> set[tuple[str, str]]:
        """The set of directly-follows edges."""
        return set(self.edge_counts)

    def has_edge(self, source: str, target: str) -> bool:
        """Return ``True`` iff ``source`` is ever directly followed by ``target``."""
        return (source, target) in self.edge_counts

    def frequency(self, source: str, target: str) -> int:
        """Directly-follows frequency of ``(source, target)`` (0 if absent)."""
        return self.edge_counts.get((source, target), 0)

    def successors(self, node: str) -> frozenset[str]:
        """Classes that ever directly follow ``node``."""
        return self._adjacency()[0].get(node, frozenset())

    def predecessors(self, node: str) -> frozenset[str]:
        """Classes that ``node`` ever directly follows."""
        return self._adjacency()[1].get(node, frozenset())

    # -- group-level neighborhoods (Algorithm 3) ------------------------

    def pre(self, group: Iterable[str]) -> frozenset[str]:
        """Preset of a group: external predecessors of its members."""
        members = frozenset(group)
        preset: set[str] = set()
        for node in members:
            preset.update(self.predecessors(node))
        return frozenset(preset - members)

    def post(self, group: Iterable[str]) -> frozenset[str]:
        """Postset of a group: external successors of its members."""
        members = frozenset(group)
        postset: set[str] = set()
        for node in members:
            postset.update(self.successors(node))
        return frozenset(postset - members)

    def exclusive(self, group_a: Iterable[str], group_b: Iterable[str]) -> bool:
        """Return ``True`` iff no DFG edge connects ``group_a`` and ``group_b``.

        This is the paper's efficient exclusiveness check of Alg. 3
        line 11: two groups are treated as exclusive when the DFG has
        no edge from one to the other in either direction.
        """
        members_a = frozenset(group_a)
        members_b = frozenset(group_b)
        if members_a & members_b:
            return False
        for a in members_a:
            for b in members_b:
                if (a, b) in self.edge_counts or (b, a) in self.edge_counts:
                    return False
        return True

    def signature(self, group: Iterable[str]) -> tuple[frozenset[str], frozenset[str]]:
        """The group's ``(preset, postset)``: the key of Alg. 3's index.

        Two groups with equal signatures are *behavioral alternatives*
        (Fig. 6): merging them loses no behavioral information.  Both
        sets exclude the group's own members, so e.g. ``{ckc}`` and
        ``{ckt}`` match when both are preceded by ``{rcp}`` and followed
        by ``{acc, rej}``.
        """
        members = frozenset(group)
        return self.pre(members), self.post(members)

    def equal_pre_post(
        self, group: Iterable[str], candidates: Iterable[frozenset[str]]
    ) -> list[frozenset[str]]:
        """Groups among ``candidates`` sharing ``group``'s :meth:`signature`.

        The one-group Fig. 6 query, in ``candidates`` order; Alg. 3
        indexes the whole candidate set by signature instead.
        """
        group = frozenset(group)
        reference = self.signature(group)
        return [
            other
            for other in map(frozenset, candidates)
            if other != group and self.signature(other) == reference
        ]

    # -- filtered views --------------------------------------------------

    def filtered(self, keep_fraction: float) -> "DirectlyFollowsGraph":
        """Return a copy keeping only the ``keep_fraction`` most frequent edges.

        An 80/20 DFG (Fig. 1 / Fig. 8) is ``filtered(0.8)``.  Ties are
        broken deterministically by edge name.
        """
        if not 0.0 < keep_fraction <= 1.0:
            raise ValueError(f"keep_fraction must be in (0, 1], got {keep_fraction}")
        ranked = sorted(
            self.edge_counts.items(), key=lambda item: (-item[1], item[0])
        )
        kept = ranked[: max(1, round(len(ranked) * keep_fraction))] if ranked else []
        return DirectlyFollowsGraph(
            nodes=self.nodes,
            edge_counts=dict(kept),
            start_counts=dict(self.start_counts),
            end_counts=dict(self.end_counts),
        )

    def __repr__(self) -> str:
        return f"DirectlyFollowsGraph({len(self.nodes)} nodes, {len(self.edge_counts)} edges)"


def compute_dfg(log: EventLog) -> DirectlyFollowsGraph:
    """Compute the directly-follows graph of ``log`` (paper §III-A)."""
    edge_counts: dict[tuple[str, str], int] = {}
    start_counts: dict[str, int] = {}
    end_counts: dict[str, int] = {}
    for trace in log:
        classes = trace.classes
        if not classes:
            continue
        start_counts[classes[0]] = start_counts.get(classes[0], 0) + 1
        end_counts[classes[-1]] = end_counts.get(classes[-1], 0) + 1
        for current_cls, next_cls in zip(classes, classes[1:]):
            edge = (current_cls, next_cls)
            edge_counts[edge] = edge_counts.get(edge, 0) + 1
    return DirectlyFollowsGraph(
        nodes=log.classes,
        edge_counts=edge_counts,
        start_counts=start_counts,
        end_counts=end_counts,
    )
