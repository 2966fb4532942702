"""Alternative distance functions for the log-abstraction objective.

The paper notes (§IV-B) that GECCO is *"largely independent of a
specific distance function"*.  This module makes that concrete: every
measure below implements the same ``group_distance`` protocol as
:class:`repro.core.distance.DistanceFunction` and can be passed to
Step 2 unchanged.  All of them preserve the two structural properties
Step 2's branch-and-bound backend relies on: non-negativity and a
strictly positive score for singleton groups (so that merging remains
attractive and costs admit per-class lower bounds).

* :class:`FrequencyWeightedDistance` — Eq. 1 with instances weighted by
  how much behavior they represent (an interrupted instance in a
  frequent variant hurts more than one in a rare variant);
* :class:`JaccardDistance` — a pure co-occurrence measure: one minus
  the mean pairwise Jaccard similarity of the classes' trace sets,
  plus the ``1/|g|`` unary penalty (ignores ordering entirely);
* :class:`EntropyDistance` — penalizes groups whose instances realize
  many distinct orderings (high behavioral entropy means the group
  hides rather than abstracts structure).

``benchmarks/test_bench_alt_distance.py`` compares the groupings these
objectives select.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from collections.abc import Iterable

from repro.core.distance import DistanceFunction, interrupts, missing
from repro.exceptions import GroupingError


class _CachedDistance(DistanceFunction):
    """Shared memoization and instance plumbing for the alternatives.

    Inherits the log, instance index, memo, ``costs`` and
    ``grouping_distance`` of :class:`DistanceFunction`; each alternative
    supplies only :meth:`_compute`.
    """

    def group_distance(self, group: Iterable[str]) -> float:
        group = frozenset(group)
        if not group:
            raise GroupingError("cannot compute distance of an empty group")
        if group not in self._cache:
            self._cache[group] = self._compute(group)
        return self._cache[group]

    def _compute(self, group: frozenset[str]) -> float:  # pragma: no cover
        raise NotImplementedError


class FrequencyWeightedDistance(_CachedDistance):
    """Eq. 1 with variant-frequency weighting of instances."""

    def _compute(self, group: frozenset[str]) -> float:
        instances = self.instances.positions(group)
        size = len(group)
        if not instances:
            return 1.0 / size
        variant_weight = Counter(
            self.log[trace_index].variant() for trace_index, _ in instances
        )
        total_weight = 0.0
        total = 0.0
        for trace_index, positions in instances:
            trace = self.log[trace_index]
            weight = variant_weight[trace.variant()]
            classes = [trace[p].event_class for p in positions]
            total += weight * (
                interrupts(positions) / len(positions)
                + missing(classes, group) / size
            )
            total_weight += weight
        return total / total_weight + 1.0 / size


class JaccardDistance(_CachedDistance):
    """One minus mean pairwise Jaccard of trace sets, plus 1/|g|."""

    def _compute(self, group: frozenset[str]) -> float:
        membership = self.log.traces_by_class
        members = sorted(group)
        if len(members) == 1:
            return 1.0
        similarities = []
        for cls_a, cls_b in itertools.combinations(members, 2):
            traces_a = membership.get(cls_a, frozenset())
            traces_b = membership.get(cls_b, frozenset())
            union = traces_a | traces_b
            if not union:
                similarities.append(0.0)
            else:
                similarities.append(len(traces_a & traces_b) / len(union))
        mean_similarity = sum(similarities) / len(similarities)
        return (1.0 - mean_similarity) + 1.0 / len(members)


class EntropyDistance(_CachedDistance):
    """Normalized ordering entropy of the group's instances, plus 1/|g|."""

    def _compute(self, group: frozenset[str]) -> float:
        instances = self.instances.positions(group)
        size = len(group)
        if not instances:
            return 1.0 / size
        orderings = Counter()
        for trace_index, positions in instances:
            trace = self.log[trace_index]
            orderings[tuple(trace[p].event_class for p in positions)] += 1
        total = sum(orderings.values())
        entropy = -sum(
            (count / total) * math.log2(count / total)
            for count in orderings.values()
        )
        normalizer = math.log2(total) if total > 1 else 1.0
        normalized = entropy / normalizer if normalizer > 0 else 0.0
        return normalized + 1.0 / size


#: Name -> class, for CLIs and benches.
ALTERNATIVE_DISTANCES = {
    "frequency": FrequencyWeightedDistance,
    "jaccard": JaccardDistance,
    "entropy": EntropyDistance,
}
