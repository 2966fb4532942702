"""The GECCO distance measure (paper §IV-B, Eq. 1 and Eq. 2).

For a group ``g`` with instances ``inst(L, g)`` the distance is::

    dist(g, L) = ( Σ_ξ [ interrupts(ξ)/|ξ| + missing(ξ, g)/|g| ] ) / N  +  1/|g|

with ``N = |inst(L, g)|``.  The three ingredients:

* ``interrupts(ξ)`` — events from *other* instances interspersed
  between the first and last event of ``ξ`` (cohesion);
* ``missing(ξ, g)`` — event classes of ``g`` absent from ``ξ``
  (correlation);
* ``1/|g|`` — a constant penalty favoring larger groups over unary ones.

The placement of the ``1/|g|`` term (outside the instance average) was
validated against the paper's Fig. 7, whose optimal grouping of the
running example is reported with ``dist = 3.08``: our implementation
reproduces 3.083... exactly (see ``tests/test_distance.py``).

The distance of a grouping is the sum of its groups' distances (Eq. 2).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.core.instances import InstanceIndex
from repro.eventlog.events import EventLog
from repro.exceptions import GroupingError


def interrupts(positions: list[int]) -> int:
    """Number of foreign events inside the span of an instance.

    ``positions`` are the instance's event indices within its trace;
    every index strictly between the first and last that is not part of
    the instance belongs to some other instance and counts as an
    interruption.
    """
    if len(positions) < 2:
        return 0
    span = positions[-1] - positions[0] + 1
    return span - len(positions)


def missing(positions_classes: Iterable[str], group: frozenset[str]) -> int:
    """Number of group classes absent from an instance."""
    present = set(positions_classes)
    return len(group - present)


class DistanceFunction:
    """Cached evaluation of Eq. 1 / Eq. 2 over one log.

    The function shares an :class:`InstanceIndex` with constraint
    checking; per-group distances are additionally memoized because the
    beam search of Algorithm 2 sorts candidate paths by distance and
    revisits groups frequently.
    """

    def __init__(self, log: EventLog, instance_index: InstanceIndex | None = None):
        self.log = log
        self.instances = instance_index or InstanceIndex(log)
        if self.instances.log is not log:
            raise GroupingError("instance index was built for a different log")
        self._cache: dict[frozenset[str], float] = {}

    def group_distance(self, group: Iterable[str]) -> float:
        """``dist(g, L)`` per Eq. 1.

        Groups without instances (never co-occurring classes that slip
        past ``occurs``, e.g. merged exclusive alternatives before
        their instances are computed) have no defined cohesion term;
        following the vacuous-satisfaction convention their distance is
        the unary penalty ``1/|g|`` alone.
        """
        group = frozenset(group)
        if not group:
            raise GroupingError("cannot compute distance of an empty group")
        if group in self._cache:
            return self._cache[group]
        instances = self.instances.positions(group)
        size = len(group)
        if not instances:
            value = 1.0 / size
        else:
            total = 0.0
            for trace_index, positions in instances:
                trace = self.log[trace_index]
                instance_classes = [trace[p].event_class for p in positions]
                total += interrupts(positions) / len(positions)
                total += missing(instance_classes, group) / size
            value = total / len(instances) + 1.0 / size
        self._cache[group] = value
        return value

    def costs(self, groups: Sequence[Iterable[str]]) -> list[float]:
        """Step 2's cost vector: :meth:`group_distance` of each group, in order."""
        return [self.group_distance(group) for group in groups]

    def grouping_distance(self, grouping: Iterable[Iterable[str]]) -> float:
        """``dist(G, L)`` per Eq. 2: the sum over the grouping's groups."""
        return sum(self.group_distance(group) for group in grouping)

    def cache_size(self) -> int:
        """Number of memoized group distances (introspection/tests)."""
        return len(self._cache)
