"""Integer-encoded hot-path engine: the ``compiled`` pipeline backend.

GECCO's Step 1 spends nearly all of its time answering three questions
for thousands of candidate groups: *where are the group's instances*
(:func:`repro.core.instances.instances_in_log`), *what is the group's
distance* (Eq. 1), and *does the group co-occur in some trace*
(``occurs``).  The pure-Python reference implementations answer them by
walking :class:`~repro.eventlog.events.Event` objects — one attribute
lookup per event per group.  This module removes the object layer from
the hot path once per log:

* :class:`CompiledLog` interns the event classes of a log to dense
  integer IDs and stores every trace as a contiguous ``numpy`` array of
  class IDs (one concatenated CSR-style buffer for the whole log).
  Groups become **integer bitmasks over class IDs** and trace sets
  become **integer bitmasks over trace indices** (a bitset posting
  list per class), so ``occurs`` is a single ``&``.  Compiling walks
  the events once; the tables, bitsets, DFG and attribute columns are
  array work on that one flat list.
* :meth:`CompiledLog.stats_batch` detects the instances of *many*
  groups in one vectorized sweep: a boolean class-membership matrix is
  indexed with the log's class-ID buffer, a single ``np.nonzero``
  yields every (group, position) hit, and the three splitting policies
  (``repeat`` / ``none`` / ``gap``) become boolean boundary masks over
  the flat hit list.  The result per group is a
  :class:`GroupInstances`: int32 views into the sweep's kept arrays
  (hit ids, instance starts and counts, distinct classes where they
  differ from the counts; int64 for logs of 2**31 events or more).
  Owning trace, first/last position and the Eq. 1 cohesion term are
  derived from them on access.  Eq. 1, the instance-constraint
  kernels, the infeasibility diagnosis and Step 3 all read these
  arrays; the reference ``(trace index, positions)`` form is
  materialized lazily, only where a consumer needs Python lists.
* :class:`CompiledInstanceIndex` and :class:`CompiledDistanceFunction`
  are drop-in replacements for :class:`~repro.core.instances.InstanceIndex`
  and :class:`~repro.core.distance.DistanceFunction` built on top of
  the compiled log.  They return **byte-identical** instances and
  **bitwise-identical** Eq. 1 distances: the per-instance terms are the
  same correctly-rounded divisions as the reference loop, accumulated
  left to right by ``np.add.accumulate`` (sequential by definition,
  unlike the pairwise ``np.sum``) — which is what lets the beam search
  of Algorithm 2 produce the same candidate sets on either engine.
  The index keeps the Eq. 1 values every distance function over it
  computes, and drops its summaries past :data:`_INDEX_BYTE_BUDGET`,
  so one index can serve every problem on its log.
* :class:`CompiledDfgOps` mirrors the group-level DFG neighborhood API
  (``pre`` / ``post`` / ``exclusive`` / ``signature``) on class
  bitmasks so Algorithm 3's exclusive-candidate merging shares the
  same encoding.

``numpy`` is optional at import time: :data:`HAVE_NUMPY` reports its
availability, and the pipeline facade falls back to the pure-Python
engine when it is missing.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable, Sequence

from repro.core.distance import DistanceFunction
from repro.core.instances import POLICIES, InstanceIndex
from repro.eventlog.dfg import DirectlyFollowsGraph
from repro.eventlog.events import EventLog
from repro.exceptions import EventLogError, GroupingError

try:  # pragma: no cover - exercised implicitly by the engine selection
    import numpy as np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover
    np = None
    HAVE_NUMPY = False

#: Number of groups extracted per vectorized sweep; bounds the boolean
#: membership matrix to ``_BATCH_GROUPS * total_events`` bytes.
_BATCH_GROUPS = 256

#: Upper bound on memoized co-occurrence / mask entries per compiled
#: log; an unbounded DFG∞ search probes huge numbers of throwaway
#: frontier groups, so the caches reset rather than growing without
#: bound (mirrors ``_OCCURS_CACHE_LIMIT`` on ``EventLog``).
_COOCCUR_CACHE_LIMIT = 1 << 17

#: Bytes of cached instance summaries past which
#: :meth:`CompiledInstanceIndex.prime` drops them all; a dropped summary
#: is detected again on demand, so outputs cannot change.  The largest
#: index a gated benchmark workload builds (bpic17 on ``long_logs``)
#: holds about 17 MB, so 64 MiB leaves 4x headroom and no benchmark
#: run resets.
_INDEX_BYTE_BUDGET = 64 << 20


def _require_numpy() -> None:
    if not HAVE_NUMPY:
        raise EventLogError(
            "the compiled engine requires numpy; install it or select "
            "GeccoConfig(engine='python')"
        )


class GroupInstances:
    """Summary of one group's instances in a log, as numpy arrays.

    Only what detection produces is kept, in the compiled log's index
    dtype (int32 below 2**31 events, int64 otherwise): ``hit_ids``, the
    group's global event indexes (into ``CompiledLog.all_ids``) in
    reference order (ascending trace, then position); ``starts`` and
    ``counts``, instance ``i`` being hits ``starts[i] : starts[i] +
    counts[i]``; and ``distincts``, the distinct classes per instance,
    which *is* ``counts`` wherever the two cannot differ.  All are views
    into the arrays of the detection sweep that produced them.

    ``trace_ids``, ``firsts``, ``lasts``, ``positions`` (int64) and
    ``cohesion`` (float64) are derived on every access from the kept
    arrays and the log's per-event trace and position tables, so a
    consumer reads each once.  The reference-format accessors
    :meth:`pairs` and :meth:`distinct_list` build Python lists lazily.
    """

    __slots__ = (
        "hit_ids", "starts", "counts", "distincts", "_trace_of", "_local_of", "_pairs"
    )

    def __init__(self, hit_ids, starts, counts, distincts, trace_of, local_of):
        self.hit_ids = hit_ids
        self.starts = starts
        self.counts = counts
        self.distincts = distincts
        self._trace_of = trace_of
        self._local_of = local_of
        self._pairs: list[tuple[int, list[int]]] | None = None

    def __len__(self) -> int:
        return len(self.counts)

    @property
    def trace_ids(self):
        """The owning trace index of each instance."""
        return self._trace_of[self.hit_ids[self.starts]]

    @property
    def firsts(self):
        """Each instance's first position within its trace."""
        return self._local_of[self.hit_ids[self.starts]]

    @property
    def lasts(self):
        """Each instance's last position within its trace."""
        return self._local_of[self.hit_ids[self.starts + self.counts - 1]]

    @property
    def positions(self):
        """The group's flat event positions within their traces."""
        return self._local_of[self.hit_ids]

    @property
    def cohesion(self):
        """Eq. 1 cohesion term ``interrupts(ξ)/|ξ|`` per instance.

        Interrupts are 0 for single-event instances; the reference
        divides the same integers, so the floats are bitwise identical.
        """
        counts = self.counts
        return np.where(counts >= 2, self.lasts - self.firsts + 1 - counts, 0) / counts

    def segments(self):
        """Instance segmentation over the flat hit list.

        Returns ``(starts, counts)``: hits ``starts[i] : starts[i] +
        counts[i]`` of :attr:`hit_ids` are instance ``i``.
        """
        return self.starts, self.counts

    def pairs(self) -> list[tuple[int, list[int]]]:
        """The instances as ``(trace index, positions)``, reference format."""
        if self._pairs is None:
            flat = self.positions.tolist()
            result: list[tuple[int, list[int]]] = []
            start = 0
            for trace_index, count in zip(
                self.trace_ids.tolist(), self.counts.tolist()
            ):
                end = start + count
                result.append((trace_index, flat[start:end]))
                start = end
            self._pairs = result
        return self._pairs

    def distinct_list(self) -> list[int]:
        """Distinct-class counts per instance, parallel to :meth:`pairs`."""
        return self.distincts.tolist()


def _empty_instances() -> GroupInstances:
    ints = np.zeros(0, dtype=np.int32)
    table = np.zeros(0, dtype=np.int64)
    return GroupInstances(ints, ints, ints, ints, table, table)


_EMPTY_INSTANCES = _empty_instances() if HAVE_NUMPY else None


def _buffer_bytes(arrays) -> int:
    """Bytes of the distinct buffers under ``arrays`` (views resolved)."""
    buffers = {}
    for array in arrays:
        while isinstance(array.base, np.ndarray):
            array = array.base
        buffers[id(array)] = array.nbytes
    return sum(buffers.values())


def _first_seen_counts(keys, name) -> dict:
    """``{name(key): count}`` over ``keys``, in order of first occurrence."""
    unique, firsts, counts = np.unique(keys, return_index=True, return_counts=True)
    order = np.argsort(firsts)
    return dict(zip(map(name, unique[order].tolist()), counts[order].tolist()))


class CompiledLog:
    """An event log compiled to integer arrays and bitmask indexes.

    The compilation is one walk over the events, into :attr:`events`;
    tables, bitsets, DFG and columns are array work.  Afterwards no hot
    path touches :class:`~repro.eventlog.events.Event` objects.  Event
    classes are interned in sorted order so IDs — and therefore group
    bitmasks — are deterministic for a given log.
    """

    def __init__(self, log: EventLog):
        _require_numpy()
        self.log = log
        self.classes: list[str] = sorted(log.classes)
        self.class_to_id: dict[str, int] = {
            cls: index for index, cls in enumerate(self.classes)
        }
        self.num_classes = len(self.classes)
        self.num_traces = len(log)

        #: Every event in CSR order (``all_ids`` order): the one walk.
        self.events = [event for trace in log.traces for event in trace]
        total_events = len(self.events)
        lengths = np.fromiter(map(len, log.traces), np.int64, self.num_traces)
        to_id = self.class_to_id
        self.all_ids = np.fromiter(
            (to_id[event.event_class] for event in self.events), np.int64, total_events
        )
        #: ``offsets[t]:offsets[t+1]`` slices trace ``t`` out of ``all_ids``.
        self.offsets = np.zeros(self.num_traces + 1, dtype=np.int64)
        np.cumsum(lengths, out=self.offsets[1:])
        # Per-event lookup tables shared by every extraction sweep.
        self._trace_of_event = np.repeat(
            np.arange(self.num_traces, dtype=np.int64), lengths
        )
        self._local_of_event = np.arange(total_events, dtype=np.int64) - np.repeat(
            self.offsets[:-1], lengths
        )
        #: dtype of the arrays instance summaries keep (event indexes fit).
        self._index_dtype = np.int32 if total_events < 2**31 else np.int64
        # Sorted (class, trace) keys: equal neighbours are one class
        # recurring in one trace.
        width = max(self.num_traces, 1)
        keys = self.all_ids * width + self._trace_of_event
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        same = np.flatnonzero(keys[1:] == keys[:-1])
        #: True where the event's class occurs more than once in its trace
        #: (only such events can trigger instance splits / duplicates).
        self._event_repeats = np.zeros(total_events, dtype=bool)
        self._event_repeats[order[same]] = self._event_repeats[order[same + 1]] = True
        classes, traces = np.divmod(np.delete(keys, same + 1), width)
        packed = np.zeros((self.num_classes, (self.num_traces + 7) // 8), np.uint8)
        bits = (1 << (traces & 7)).astype(np.uint8)
        np.bitwise_or.at(packed, (classes, traces >> 3), bits)
        #: Per-class bitset posting list: bit ``t`` set iff trace ``t``
        #: contains the class.
        self.class_trace_bits = [int.from_bytes(row, "little") for row in packed]
        self._row_bounds = np.arange(_BATCH_GROUPS + 1, dtype=np.int64)
        self._all_traces_mask = (1 << self.num_traces) - 1
        # Group-mask -> trace-bitset cache for the incremental ``occurs``
        # path; seeded with the singleton posting lists.
        self._cooccur: dict[int, int] = {
            1 << class_id: bits for class_id, bits in enumerate(self.class_trace_bits)
        }
        self._mask_cache: dict[frozenset[str], int] = {}
        self._columns = None
        self._dfg: DirectlyFollowsGraph | None = None

    def columns(self):
        """The log's per-event attribute columns (lazily built, cached).

        See :class:`repro.core.columns.AttributeColumns`: one array per
        attribute key, aligned to the CSR event buffer, powering the
        vectorized instance-constraint kernels and the compiled Step-3
        abstraction.
        """
        if self._columns is None:
            from repro.core.columns import AttributeColumns

            self._columns = AttributeColumns(self)
        return self._columns

    def dfg(self) -> DirectlyFollowsGraph:
        """The log's DFG from the class-ID arrays (cached); equal to
        :func:`~repro.eventlog.dfg.compute_dfg`, dict order included."""
        if self._dfg is None:
            ids, width, name = self.all_ids, self.num_classes, self.classes
            # Pair (i, i + 1) lies within a trace iff event i + 1 starts none.
            pairs = np.flatnonzero(self._local_of_event[1:] != 0)
            nonempty = self.offsets[1:] > self.offsets[:-1]
            firsts, lasts = self.offsets[:-1][nonempty], self.offsets[1:][nonempty] - 1
            self._dfg = DirectlyFollowsGraph(
                nodes=self.log.classes,
                edge_counts=_first_seen_counts(
                    ids[pairs] * width + ids[pairs + 1],
                    lambda key: (name[key // width], name[key % width]),
                ),
                start_counts=_first_seen_counts(ids[firsts], name.__getitem__),
                end_counts=_first_seen_counts(ids[lasts], name.__getitem__),
            )
        return self._dfg

    # -- group <-> bitmask conversions -----------------------------------

    def class_bit(self, cls: str) -> int:
        """The singleton bitmask of ``cls`` (KeyError for foreign classes)."""
        return 1 << self.class_to_id[cls]

    def mask_of(self, group: Iterable[str]) -> int:
        """Bitmask of ``group``'s classes (foreign classes are ignored)."""
        group = frozenset(group)
        cached = self._mask_cache.get(group)
        if cached is None:
            cached = 0
            for cls in group:
                class_id = self.class_to_id.get(cls)
                if class_id is not None:
                    cached |= 1 << class_id
            if len(self._mask_cache) >= _COOCCUR_CACHE_LIMIT:
                self._mask_cache.clear()
            self._mask_cache[group] = cached
        return cached

    def group_of(self, mask: int) -> frozenset[str]:
        """The class set encoded by ``mask``."""
        members = []
        while mask:
            low = mask & -mask
            members.append(self.classes[low.bit_length() - 1])
            mask ^= low
        return frozenset(members)

    @property
    def nbytes(self) -> int:
        """Bytes of the arrays, bitsets, event list and columns built so far.

        Part of ``resident_artifact_bytes`` in the service-layer
        artifact cache's snapshots (:mod:`repro.service.cache`), next to
        :attr:`CompiledInstanceIndex.nbytes`, so operators can see what
        the artifact tier holds; eviction itself is entry-count bounded.
        """
        arrays = (
            self.offsets,
            self.all_ids,
            self._trace_of_event,
            self._local_of_event,
            self._event_repeats,
            self._row_bounds,
        )
        total = sum(int(array.nbytes) for array in arrays)
        total += sum(
            (bits.bit_length() + 7) // 8 for bits in self.class_trace_bits
        )
        total += sys.getsizeof(self.events)
        if self._columns is not None:
            total += self._columns.nbytes
        return total

    # -- co-occurrence (the ``occurs`` predicate) -------------------------

    def _cooccur_insert(self, mask: int, bits: int) -> None:
        """Memoize a trace bitset, resetting the cache at the size bound.

        The singleton posting lists are re-seeded after a reset so the
        incremental parent-extension path stays warm.
        """
        cache = self._cooccur
        if len(cache) >= _COOCCUR_CACHE_LIMIT:
            cache.clear()
            for class_id, posting in enumerate(self.class_trace_bits):
                cache[1 << class_id] = posting
        cache[mask] = bits

    def cooccurring_traces(self, mask: int) -> int:
        """Bitset of traces containing *all* classes of ``mask`` (cached).

        A cached strict-subset result is extended by one posting-list
        intersection when available (the candidate searches always grow
        groups by one class, so the parent is virtually always cached);
        otherwise the member posting lists are intersected directly.
        """
        if mask == 0:
            return 0
        cached = self._cooccur.get(mask)
        if cached is not None:
            return cached
        remaining = mask
        while remaining:
            low = remaining & -remaining
            parent = self._cooccur.get(mask ^ low)
            if parent is not None:
                bits = parent & self.class_trace_bits[low.bit_length() - 1]
                self._cooccur_insert(mask, bits)
                return bits
            remaining ^= low
        bits = self._all_traces_mask
        remaining = mask
        while remaining and bits:
            low = remaining & -remaining
            bits &= self.class_trace_bits[low.bit_length() - 1]
            remaining ^= low
        self._cooccur_insert(mask, bits)
        return bits

    def extend_cooccurring(self, parent_mask: int, cls_bit: int) -> int:
        """Trace bitset of ``parent_mask | cls_bit`` via one intersection."""
        child_mask = parent_mask | cls_bit
        cached = self._cooccur.get(child_mask)
        if cached is not None:
            return cached
        bits = self.cooccurring_traces(parent_mask) & self.class_trace_bits[
            cls_bit.bit_length() - 1
        ]
        self._cooccur_insert(child_mask, bits)
        return bits

    def occurs_mask(self, mask: int) -> bool:
        """``occurs(g, L)`` on a group bitmask."""
        return mask != 0 and self.cooccurring_traces(mask) != 0

    def occurs(self, group: Iterable[str]) -> bool:
        """``occurs(g, L)`` on a class set (foreign classes never occur)."""
        group = frozenset(group)
        if not group:
            return False
        for cls in group:
            if cls not in self.class_to_id:
                return False
        return self.occurs_mask(self.mask_of(group))

    # -- vectorized instance detection ------------------------------------

    def instances(
        self, group: Iterable[str], policy: str = "repeat", gap_limit: int = 3
    ) -> tuple[list[tuple[int, list[int]]], list[int]]:
        """Instances of one group: ``(trace index, positions)`` + distinct counts.

        The pairs are byte-identical to
        :func:`repro.core.instances.instances_in_log`; the parallel list
        holds each instance's number of distinct classes (what Eq. 1's
        ``missing`` term needs), computed for free during detection.
        """
        stats = self.stats_batch([frozenset(group)], policy, gap_limit)[0]
        return stats.pairs(), stats.distinct_list()

    def stats_batch(
        self,
        groups: Sequence[frozenset[str]],
        policy: str = "repeat",
        gap_limit: int = 3,
    ) -> list[GroupInstances]:
        """Detect the instances of many groups in vectorized sweeps.

        One boolean membership matrix per batch of ``_BATCH_GROUPS``
        groups is indexed with the whole log's class-ID buffer; a single
        ``np.nonzero`` then yields every (group, event) hit in group-
        major, position-ascending order — exactly the iteration order of
        the reference implementation.  The splitting policies become
        boolean instance-boundary masks over the flat hit list; only
        hits whose class actually recurs within its trace (precomputed
        per event) ever need duplicate handling.
        """
        return self._detect(groups, policy, gap_limit)[0]

    def _detect(self, groups, policy, gap_limit):
        """:meth:`stats_batch` plus the bytes of the arrays the summaries view."""
        if policy not in POLICIES:
            raise EventLogError(
                f"unknown instance policy {policy!r}; use one of {POLICIES}"
            )
        results: list[GroupInstances] = [None] * len(groups)  # type: ignore[list-item]
        if not groups:
            return results, 0
        if self.num_classes == 0 or self.all_ids.size == 0:
            return [_EMPTY_INSTANCES for _ in groups], 0
        nbytes = 0
        for start in range(0, len(groups), _BATCH_GROUPS):
            batch = groups[start : start + _BATCH_GROUPS]
            nbytes += self._extract_batch(batch, start, policy, gap_limit, results)
        return results, nbytes

    def _extract_batch(self, batch, base, policy, gap_limit, results) -> int:
        if self.num_classes <= 64:
            # Unpack the group bitmasks directly into the membership
            # matrix — no per-group python loop.
            masks = np.array(
                [self.mask_of(group) for group in batch], dtype=np.uint64
            )
            membership = (
                masks[:, None] >> np.arange(self.num_classes, dtype=np.uint64)
            ) & np.uint64(1) != 0
        else:
            membership = np.zeros((len(batch), self.num_classes), dtype=bool)
            for row, group in enumerate(batch):
                ids = [
                    self.class_to_id[cls]
                    for cls in group
                    if cls in self.class_to_id
                ]
                if ids:
                    membership[row, ids] = True
        group_idx, event_idx = np.nonzero(membership[:, self.all_ids])
        total = group_idx.size
        if total == 0:
            for row in range(len(batch)):
                results[base + row] = _EMPTY_INSTANCES
            return 0
        trace_of = self._trace_of_event[event_idx]

        # One segment per (group, trace) pair; instances never span
        # segments, so every policy starts from the segment boundaries.
        seg_change = np.empty(total, dtype=bool)
        seg_change[0] = True
        np.not_equal(trace_of[1:], trace_of[:-1], out=seg_change[1:])
        np.logical_or(
            seg_change[1:], group_idx[1:] != group_idx[:-1], out=seg_change[1:]
        )

        # Hits whose class recurs within its trace are the only ones that
        # can repeat inside a segment; everything else skips duplicate
        # handling entirely.
        repeat_candidates = self._event_repeats[event_idx]
        has_repeats = bool(repeat_candidates.any())

        if policy == "repeat":
            boundaries = self._repeat_boundaries(
                seg_change, repeat_candidates, has_repeats, event_idx
            )
        elif policy == "none":
            boundaries = seg_change
        else:  # policy == "gap"
            local = self._local_of_event[event_idx]
            boundaries = seg_change.copy()
            gap_split = (local[1:] - local[:-1] - 1) > gap_limit
            boundaries[1:] |= gap_split & ~seg_change[1:]

        inst_starts = np.flatnonzero(boundaries)
        dtype = self._index_dtype
        counts = np.diff(inst_starts, append=total).astype(dtype)
        # ``repeat`` instances are all-distinct by construction; for the
        # other policies a repeat-free batch is too.
        distincts = counts
        if policy != "repeat" and has_repeats:
            duplicates = self._duplicates_per_instance(
                group_idx,
                trace_of,
                repeat_candidates,
                event_idx,
                boundaries,
                inst_starts,
                inst_starts.size,
            )
            if duplicates.any():
                distincts = counts - duplicates.astype(dtype)

        inst_group = group_idx[inst_starts]
        bounds = self._row_bounds[: len(batch) + 1]
        hit_bounds = np.searchsorted(group_idx, bounds)
        inst_bounds = np.searchsorted(inst_group, bounds).tolist()
        # From the group's first hit.
        starts = (inst_starts - hit_bounds[inst_group]).astype(dtype)
        hit_ids = event_idx.astype(dtype, copy=False)
        hit_bounds = hit_bounds.tolist()
        tables = self._trace_of_event, self._local_of_event
        for row in range(len(batch)):
            i0, i1 = inst_bounds[row], inst_bounds[row + 1]
            if i0 == i1:
                results[base + row] = _EMPTY_INSTANCES
            else:
                h0, h1 = hit_bounds[row], hit_bounds[row + 1]
                row_counts = counts[i0:i1]
                results[base + row] = GroupInstances(
                    hit_ids[h0:h1],
                    starts[i0:i1],
                    row_counts,
                    row_counts if distincts is counts else distincts[i0:i1],
                    *tables,
                )
        return _buffer_bytes((hit_ids, starts, counts, distincts))

    def _repeat_boundaries(
        self, seg_change, repeat_candidates, has_repeats, event_idx
    ):
        """Boundary mask for the ``repeat`` policy.

        A new instance starts whenever a class re-occurs within the
        current one.  Only segments holding a recurring class are split:
        a stable sort gives each hit's next same-class hit, whose reverse
        running minimum is the first repeat at or after it (past the
        segment: none); pointer jumps from each segment start, one vector
        step per instance, mark the boundaries.
        """
        if not has_repeats:
            return seg_change
        seg_bounds = np.append(np.flatnonzero(seg_change), seg_change.size)
        flagged = np.flatnonzero(repeat_candidates)
        dirty = np.unique(np.searchsorted(seg_bounds, flagged, "right")) - 1
        starts = seg_bounds[dirty]
        lengths = seg_bounds[dirty + 1] - starts
        # The dirty segments' hits, renumbered 0..total-1.
        local_starts = np.cumsum(lengths) - lengths
        total = int(lengths.sum())
        hits = np.repeat(starts - local_starts, lengths) + np.arange(total)
        keys = np.repeat(np.arange(dirty.size) * self.num_classes, lengths)
        keys += self.all_ids[event_idx[hits]]
        order = np.argsort(keys, kind="stable")
        same = np.flatnonzero(np.diff(keys[order]) == 0)
        next_hit = np.full(total, total)
        next_hit[order[same]] = order[same + 1]
        first_repeat = np.minimum.accumulate(next_hit[::-1])[::-1]
        boundaries = seg_change.copy()
        current, ends = local_starts, local_starts + lengths
        while current.size:
            current = first_repeat[current]
            live = current < ends
            current, ends = current[live], ends[live]
            boundaries[hits[current]] = True
        return boundaries

    def _duplicates_per_instance(
        self,
        group_idx,
        trace_of,
        repeat_candidates,
        event_idx,
        boundaries,
        inst_starts,
        num_instances,
    ):
        """Per-instance duplicate-class counts (``none`` / ``gap`` policies).

        Only hits flagged as potential repeats participate: a stable
        sort of those hits by (group, trace, class) makes consecutive
        occurrences adjacent; a hit whose previous same-class occurrence
        falls inside the same instance is a duplicate.
        """
        flagged = np.flatnonzero(repeat_candidates)
        keys = (
            group_idx[flagged] * np.int64(self.num_traces) + trace_of[flagged]
        ) * np.int64(self.num_classes) + self.all_ids[event_idx[flagged]]
        order = np.argsort(keys, kind="stable")
        ordered = keys[order]
        same = ordered[1:] == ordered[:-1]
        duplicates = flagged[order[1:][same]]
        previous = flagged[order[:-1][same]]
        inst_id = np.cumsum(boundaries) - 1
        within = previous >= inst_starts[inst_id[duplicates]]
        return np.bincount(
            inst_id[duplicates[within]], minlength=num_instances
        )

    def __repr__(self) -> str:
        return (
            f"CompiledLog({self.num_traces} traces, {self.all_ids.size} events, "
            f"{self.num_classes} classes)"
        )


class CompiledInstanceIndex(InstanceIndex):
    """Drop-in :class:`InstanceIndex` backed by a :class:`CompiledLog`.

    ``positions`` / ``events`` / ``count`` keep their reference
    semantics (and exact output format); detection runs through the
    vectorized batch path, and :meth:`prime` lets the beam search
    extract a whole frontier of groups in one sweep.  What it caches
    (the summaries, bounded in bytes, and :attr:`eq1`) is a pure function
    of (log, group, policy), so one index serves every problem on its log.
    """

    def __init__(
        self,
        log: EventLog,
        compiled: CompiledLog | None = None,
        policy: str = "repeat",
        gap_limit: int = 3,
    ):
        super().__init__(log, policy=policy, gap_limit=gap_limit)
        if compiled is not None and compiled.log is not log:
            raise GroupingError("compiled log was built for a different log")
        self.compiled = compiled or CompiledLog(log)
        self._stats_cache: dict[frozenset[str], GroupInstances] = {}
        self._nbytes = 0
        #: Eq. 1 value per group; resets at ``_COOCCUR_CACHE_LIMIT`` entries.
        self.eq1: dict[frozenset[str], float] = {}
        #: How often :meth:`prime` dropped the summaries at the byte budget.
        self.resets = 0

    def stats(self, group: frozenset[str]) -> GroupInstances:
        """The group's instance summary (cached)."""
        group = frozenset(group)
        cached = self._stats_cache.get(group)
        if cached is None:
            self.prime([group])
            cached = self._stats_cache[group]
        return cached

    def prime(self, groups: Sequence[frozenset[str]]) -> None:
        """Batch-detect all not-yet-cached groups in one vectorized sweep.

        Past :data:`_INDEX_BYTE_BUDGET` cached bytes, it first drops every
        summary and the event lists materialized from them.
        """
        if self._nbytes > _INDEX_BYTE_BUDGET:
            self._stats_cache.clear()
            self._events_cache.clear()
            self._nbytes = 0
            self.resets += 1
        missing = [group for group in groups if group not in self._stats_cache]
        if not missing:
            return
        extracted, nbytes = self.compiled._detect(
            missing, self.policy, self.gap_limit
        )
        for group, stats in zip(missing, extracted):
            self._stats_cache[group] = stats
        self._nbytes += nbytes

    def positions(self, group: frozenset[str]) -> list[tuple[int, list[int]]]:
        return self.stats(group).pairs()

    def distinct_counts(self, group: frozenset[str]) -> list[int]:
        """Per-instance distinct-class counts, parallel to :meth:`positions`."""
        return self.stats(group).distinct_list()

    def count(self, group: frozenset[str]) -> int:
        return len(self.stats(group))

    def cache_size(self) -> int:
        return len(self._stats_cache)

    @property
    def nbytes(self) -> int:
        """Bytes held by the cached instance summaries.

        A summary's kept arrays are views into the arrays of the
        detection sweep that produced it, shared by every group of that
        sweep; the count grows by each sweep's kept buffers once, as its
        summaries are cached, and returns to 0 when :meth:`prime` drops
        them.  Derived arrays and lazily built reference lists are not
        counted.
        """
        return self._nbytes


def _eq1_from_stats(stats: GroupInstances, size: int) -> float:
    """Eq. 1 on an instance summary, replaying the reference arithmetic.

    Same divisions on the same integers as
    :meth:`repro.core.distance.DistanceFunction.group_distance`,
    interleaved ``[cohesion_0, missing_0, cohesion_1, ...]`` in its
    accumulation order.  ``np.add.accumulate`` adds left to right, so
    its last element is the reference loop's total bit for bit
    (``np.sum`` and ``reduceat`` sum pairwise and are not).
    """
    num_instances = len(stats)
    if num_instances == 0:
        return 1.0 / size
    terms = np.empty(2 * num_instances)
    terms[0::2] = stats.cohesion
    np.divide(size - stats.distincts, size, out=terms[1::2])
    return float(np.add.accumulate(terms)[-1]) / num_instances + 1.0 / size


class CompiledDistanceFunction(DistanceFunction):
    """Eq. 1 on precomputed instance summaries (no ``Event`` access).

    The heavy part — locating every instance of every group — runs
    through the compiled log's vectorized batch detection
    (:meth:`prime`); the remaining per-instance accumulation replays the
    reference implementation's arithmetic on plain integers, keeping the
    returned floats bitwise identical so the beam ordering of
    Algorithm 2 is preserved exactly.  The memo is the index's
    :attr:`~CompiledInstanceIndex.eq1`, so every distance function over
    one index shares its values.
    """

    def __init__(self, log: EventLog, instance_index: CompiledInstanceIndex | None = None):
        if instance_index is None:
            instance_index = CompiledInstanceIndex(log)
        if not isinstance(instance_index, CompiledInstanceIndex):
            raise GroupingError(
                "CompiledDistanceFunction requires a CompiledInstanceIndex"
            )
        super().__init__(log, instance_index)
        self._cache = instance_index.eq1

    def _remember(self, group: frozenset[str], value: float) -> None:
        """Memoize one value, resetting the shared memo at its size bound."""
        if len(self._cache) >= _COOCCUR_CACHE_LIMIT:
            self._cache.clear()
        self._cache[group] = value

    @property
    def _singletons_are_unit(self) -> bool:
        """Whether singleton groups score exactly 1.0 without detection.

        Under the ``repeat`` policy a singleton's instances are all
        single events (the class re-occurring starts a new instance), so
        every cohesion and missing term is exactly ``0.0`` and Eq. 1
        reduces to ``0.0/N + 1/1 = 1.0`` — bitwise identical to the
        reference accumulation of zero terms.  Not true for ``none`` /
        ``gap``, where multi-event singleton instances can interrupt.
        """
        return self.instances.policy == "repeat"

    def prime(self, groups: Sequence[frozenset[str]]) -> None:
        """Batch-compute distances for ``groups`` in one detection sweep."""
        singleton_unit = self._singletons_are_unit
        missing: list[frozenset[str]] = []
        seen: set[frozenset[str]] = set()
        for group in groups:
            group = frozenset(group)
            if group in self._cache or group in seen:
                continue
            if singleton_unit and len(group) == 1:
                self._remember(group, 1.0)
                continue
            seen.add(group)
            missing.append(group)
        if not missing:
            return
        self.instances.prime(missing)
        for group in missing:
            self._remember(
                group, _eq1_from_stats(self.instances.stats(group), len(group))
            )

    def costs(self, groups: Sequence[Iterable[str]]) -> list[float]:
        """Step 2's cost vector, uncached groups primed in batched sweeps."""
        groups = [frozenset(group) for group in groups]
        self.prime(groups)
        return [self.group_distance(group) for group in groups]

    def group_distance(self, group: Iterable[str]) -> float:
        group = frozenset(group)
        if not group:
            raise GroupingError("cannot compute distance of an empty group")
        cached = self._cache.get(group)
        if cached is not None:
            return cached
        if len(group) == 1 and self._singletons_are_unit:
            value = 1.0
        else:
            value = _eq1_from_stats(self.instances.stats(group), len(group))
        self._remember(group, value)
        return value


class CompiledDfgOps:
    """Group-level DFG neighborhoods on class bitmasks (Algorithm 3).

    Exposes the same ``pre`` / ``post`` / ``exclusive`` / ``signature``
    API as :class:`~repro.eventlog.dfg.DirectlyFollowsGraph` (signatures
    are bitmask pairs here), so the exclusive-merging pass can use
    either interchangeably.  Per-class predecessor/successor bitmasks
    are precomputed once; every group query is then a handful of
    integer operations.
    """

    def __init__(self, compiled: CompiledLog, graph: DirectlyFollowsGraph):
        self.compiled = compiled
        self.graph = graph
        succ = [0] * compiled.num_classes
        pred = [0] * compiled.num_classes
        to_id = compiled.class_to_id
        for source, target in graph.edge_counts:
            source_id = to_id.get(source)
            target_id = to_id.get(target)
            if source_id is None or target_id is None:
                continue
            succ[source_id] |= 1 << target_id
            pred[target_id] |= 1 << source_id
        self._succ = succ
        self._pred = pred
        self._neighborhood_cache: dict[int, tuple[int, int]] = {}

    def _neighborhood(self, mask: int) -> tuple[int, int]:
        """Raw (predecessors, successors) bitmask union over members."""
        cached = self._neighborhood_cache.get(mask)
        if cached is not None:
            return cached
        preds = 0
        succs = 0
        remaining = mask
        while remaining:
            low = remaining & -remaining
            class_id = low.bit_length() - 1
            preds |= self._pred[class_id]
            succs |= self._succ[class_id]
            remaining ^= low
        result = (preds, succs)
        self._neighborhood_cache[mask] = result
        return result

    def pre(self, group: Iterable[str]) -> frozenset[str]:
        """Preset of a group: external predecessors of its members."""
        mask = self.compiled.mask_of(group)
        preds, _ = self._neighborhood(mask)
        return self.compiled.group_of(preds & ~mask)

    def post(self, group: Iterable[str]) -> frozenset[str]:
        """Postset of a group: external successors of its members."""
        mask = self.compiled.mask_of(group)
        _, succs = self._neighborhood(mask)
        return self.compiled.group_of(succs & ~mask)

    def exclusive(self, group_a: Iterable[str], group_b: Iterable[str]) -> bool:
        """``True`` iff no DFG edge connects the two (disjoint) groups."""
        mask_a = self.compiled.mask_of(group_a)
        mask_b = self.compiled.mask_of(group_b)
        if mask_a & mask_b:
            return False
        if self._neighborhood(mask_a)[1] & mask_b:
            return False
        if self._neighborhood(mask_b)[1] & mask_a:
            return False
        return True

    def signature(self, group: Iterable[str]) -> tuple[int, int]:
        """The group's ``(preset, postset)`` as class bitmasks.

        Two groups' signatures are equal exactly when their
        :meth:`~repro.eventlog.dfg.DirectlyFollowsGraph.signature`
        frozensets are: the key of Alg. 3's signature index.
        """
        mask = self.compiled.mask_of(group)
        preds, succs = self._neighborhood(mask)
        return preds & ~mask, succs & ~mask
