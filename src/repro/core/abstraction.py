"""Step 3: creating the abstracted event log (paper §V-D).

Given a grouping, every trace is rewritten in terms of its *activity
instances* — the instances of the grouping's groups within the trace.
Two strategies are offered:

* ``"complete"`` — each activity instance is represented by a single
  event at the position of its last (completing) low-level event; this
  is the common projection-style abstraction (``σ^c`` in the paper);
* ``"start_complete"`` — instances spanning more than one event emit a
  start event (``<label>_s``) at their first event's position and a
  completion event (``<label>_c``) at their last; single-event
  instances emit one plain ``<label>`` event.  This strategy preserves
  interleaving between activities (``σ^{s+c}``), at the price of longer
  traces.

Abstracted events carry provenance attributes: the member classes of
their group (``gecco:group``), the number of low-level events in the
instance (``gecco:instance_size``), and — when the low-level events are
timestamped — the instance's first/last timestamps.

Two implementations share this module.  The reference path rewrites one
trace at a time from materialized instance positions.  When the
instance index is a :class:`~repro.core.encoding.CompiledInstanceIndex`,
:func:`abstract_log` instead builds the abstracted traces from the
compiled engine's instance span arrays: per group, the first/last
positions and event counts come straight from vectorized detection, and
the provenance timestamps are located by exact integer-microsecond
segment reductions over the log's timestamp column
(:mod:`repro.core.columns`).  Every emitted event's (trace, position,
start-before-complete) key goes into one array, a single ``np.lexsort``
orders the events of all traces at once, and each output trace is a
slice of that order — the emitted events are byte-for-byte identical,
only the per-event scans and per-trace sorts are gone.
"""

from __future__ import annotations

from repro.core.grouping import Grouping
from repro.core.instances import InstanceIndex
from repro.eventlog.events import TIMESTAMP_KEY, Event, EventLog, Trace
from repro.exceptions import GroupingError

#: Supported abstraction strategies.
STRATEGIES = ("complete", "start_complete")

GROUP_ATTRIBUTE = "gecco:group"
SIZE_ATTRIBUTE = "gecco:instance_size"
LIFECYCLE_ATTRIBUTE = "lifecycle:transition"


def _instance_attributes(trace: Trace, positions: list[int], group: frozenset[str]) -> dict:
    attributes = {
        GROUP_ATTRIBUTE: ",".join(sorted(group)),
        SIZE_ATTRIBUTE: len(positions),
    }
    stamps = [
        trace[p].timestamp for p in positions if trace[p].timestamp is not None
    ]
    if stamps:
        attributes[TIMESTAMP_KEY] = max(stamps)
        attributes["gecco:start_timestamp"] = min(stamps)
    return attributes


def abstract_trace(
    trace: Trace,
    grouping: Grouping,
    instance_index: InstanceIndex,
    trace_index: int,
    strategy: str = "complete",
) -> Trace:
    """Abstract one trace according to ``grouping``.

    ``instance_index`` must be built over the log containing ``trace``
    at ``trace_index`` (sharing it across the pipeline avoids
    recomputing instances per group).
    """
    if strategy not in STRATEGIES:
        raise GroupingError(f"unknown abstraction strategy {strategy!r}; use one of {STRATEGIES}")
    # Collect all activity instances I_σ with their spans.
    instances: list[tuple[list[int], frozenset[str]]] = []
    for group in grouping:
        for owner_index, positions in instance_index.positions(group):
            if owner_index == trace_index:
                instances.append((positions, group))

    emitted: list[tuple[int, int, Event]] = []  # (position, order, event)
    for positions, group in instances:
        label = grouping.label_of(group)
        attributes = _instance_attributes(trace, positions, group)
        if strategy == "complete" or len(positions) == 1:
            event = Event(label, {**attributes, LIFECYCLE_ATTRIBUTE: "complete"})
            emitted.append((positions[-1], 1, event))
        else:
            start_attributes = dict(attributes)
            start_attributes[LIFECYCLE_ATTRIBUTE] = "start"
            if "gecco:start_timestamp" in start_attributes:
                start_attributes[TIMESTAMP_KEY] = start_attributes["gecco:start_timestamp"]
            start = Event(f"{label}_s", start_attributes)
            complete = Event(f"{label}_c", {**attributes, LIFECYCLE_ATTRIBUTE: "complete"})
            emitted.append((positions[0], 0, start))
            emitted.append((positions[-1], 1, complete))

    emitted.sort(key=lambda item: (item[0], item[1]))
    return Trace([event for _, _, event in emitted], dict(trace.attributes))


def abstract_log(
    log: EventLog,
    grouping: Grouping,
    instance_index: InstanceIndex | None = None,
    strategy: str = "complete",
) -> EventLog:
    """Abstract every trace of ``log`` according to ``grouping`` (Step 3)."""
    if strategy not in STRATEGIES:
        raise GroupingError(
            f"unknown abstraction strategy {strategy!r}; use one of {STRATEGIES}"
        )
    if grouping.universe != log.classes:
        raise GroupingError(
            "grouping does not cover this log's event classes "
            f"(grouping universe {sorted(grouping.universe)}, log classes {sorted(log.classes)})"
        )
    index = instance_index or InstanceIndex(log)
    traces = _abstract_traces_compiled(log, grouping, index, strategy)
    if traces is None:
        traces = [
            abstract_trace(trace, grouping, index, trace_index, strategy=strategy)
            for trace_index, trace in enumerate(log)
        ]
    attributes = dict(log.attributes)
    attributes["gecco:abstraction_strategy"] = strategy
    return EventLog(traces, attributes)


def _abstract_traces_compiled(log, grouping, index, strategy):
    """Step 3 from compiled instance spans (``None`` = use the reference).

    Per group, the instance spans (owning trace, first/last position,
    event count) come from the compiled index's vectorized detection;
    the provenance timestamps are found by integer-microsecond argmin /
    argmax over the timestamp column, then the *original* ``datetime``
    objects are emitted — so every attribute, including tie-breaks
    between equal stamps, matches the reference byte-for-byte.  The
    ``(trace, position, order)`` key of the emitted events is total (a
    grouping partitions the classes, so no two events of one trace
    share a position and order), which makes one ``np.lexsort`` over
    all groups' keys equal to the reference's per-trace sorts.
    """
    from repro.core import encoding

    if not encoding.HAVE_NUMPY or not isinstance(
        index, encoding.CompiledInstanceIndex
    ):
        return None
    compiled = index.compiled
    column = compiled.columns().timestamps()
    if column is None or column.has_foreign_stamps:
        # Mixed naive/aware timestamps have no common timeline, and
        # non-datetime stamp values pass the reference's weaker
        # ``timestamp is not None`` provenance test; the reference path
        # reproduces the exact semantics (including its errors) there.
        return None
    import numpy as np

    # ``Event._adopt`` skips ``Event.__init__``'s checks, so it needs
    # valid labels and aware stamps: a naive stamp forced into an event
    # after construction still gets its UTC from ``Event``.
    adopt = column.aware and all(
        isinstance(label, str) and label for label in grouping.labels.values()
    )
    new_event = Event._adopt if adopt else Event
    events: list[Event] = []
    # Sort keys of ``events``, one array per emission block.
    owners, places, orders = [], [], []
    big = np.iinfo(np.int64).max
    objects = column.objects
    for group in grouping:
        label = grouping.label_of(group)
        group_attr = ",".join(sorted(group))
        stats = index.stats(group)
        num_instances = len(stats)
        if not num_instances:
            continue
        starts, counts = stats.segments()
        hits = stats.hit_ids
        flags = column.mask[hits]
        if flags.any():
            us = column.us[hits]
            seg_ids = np.repeat(
                np.arange(num_instances, dtype=np.int64), counts
            )
            order = np.arange(hits.size, dtype=np.int64)
            highs = np.maximum.reduceat(
                np.where(flags, us, np.iinfo(np.int64).min), starts
            )
            lows = np.minimum.reduceat(np.where(flags, us, big), starts)
            # First hit attaining the extreme — ``max``/``min`` on the
            # reference's stamp list keep the first of equals.
            last_at = np.minimum.reduceat(
                np.where(flags & (us == highs[seg_ids]), order, big), starts
            )
            first_at = np.minimum.reduceat(
                np.where(flags & (us == lows[seg_ids]), order, big), starts
            )
            stamped = np.add.reduceat(flags.astype(np.int64), starts) > 0
            last_stamps = [objects[i] for i in hits[last_at[stamped]].tolist()]
            first_stamps = [
                objects[i] for i in hits[first_at[stamped]].tolist()
            ]
            stamped = stamped.tolist()
        else:
            stamped = [False] * num_instances
        stamp_at = 0
        starts_emitted: list[Event] = []
        for count, has_stamp in zip(counts.tolist(), stamped):
            attributes = {GROUP_ATTRIBUTE: group_attr, SIZE_ATTRIBUTE: count}
            if has_stamp:
                attributes[TIMESTAMP_KEY] = last_stamps[stamp_at]
                attributes["gecco:start_timestamp"] = first_stamps[stamp_at]
                stamp_at += 1
            if strategy == "complete" or count == 1:
                attributes[LIFECYCLE_ATTRIBUTE] = "complete"
                events.append(new_event(label, attributes))
                continue
            start_attributes = dict(attributes)
            start_attributes[LIFECYCLE_ATTRIBUTE] = "start"
            if has_stamp:
                start_attributes[TIMESTAMP_KEY] = start_attributes[
                    "gecco:start_timestamp"
                ]
            starts_emitted.append(new_event(f"{label}_s", start_attributes))
            attributes[LIFECYCLE_ATTRIBUTE] = "complete"
            events.append(new_event(f"{label}_c", attributes))
        trace_ids = stats.trace_ids
        owners.append(trace_ids)
        places.append(stats.lasts)
        orders.append(np.ones(num_instances, dtype=np.int8))
        if starts_emitted:
            multi = counts > 1
            events.extend(starts_emitted)
            owners.append(trace_ids[multi])
            places.append(stats.firsts[multi])
            orders.append(np.zeros(len(starts_emitted), dtype=np.int8))
    bounds = [0] * (len(log) + 1)
    if events:
        owner = np.concatenate(owners)
        ordering = np.lexsort(
            (np.concatenate(orders), np.concatenate(places), owner)
        )
        events = [events[i] for i in ordering.tolist()]
        bounds = np.searchsorted(owner[ordering], np.arange(len(bounds))).tolist()
    return [
        Trace._adopt(events[lo:hi], dict(trace.attributes))
        for trace, lo, hi in zip(log, bounds, bounds[1:])
    ]
