"""Core event model: :class:`Event`, :class:`Trace`, and :class:`EventLog`.

This module implements the event model of the paper's §III-A.  An event
has an *event class* (its type, written ``e.C`` in the paper) and a set
of data attributes capturing its context (timestamp, executing role,
cost, ...).  A trace is a finite sequence of events belonging to one
case; an event log is a collection of traces.

The model deliberately mirrors the XES standard closely enough that XES
round-tripping (see :mod:`repro.eventlog.xes`) is lossless for the
attribute types GECCO uses: strings, integers, floats, booleans and
timestamps.
"""

from __future__ import annotations

import copy
from collections.abc import Iterable, Iterator, Mapping, Sequence
from datetime import datetime, timezone
from typing import Any

from repro.exceptions import EventLogError

#: Attribute key conventionally holding the event class (XES uses
#: ``concept:name``; we accept both spellings when importing).
CLASS_KEY = "concept:name"

#: Attribute key conventionally holding the event timestamp.
TIMESTAMP_KEY = "time:timestamp"

#: Attribute key conventionally holding the executing role/resource.
ROLE_KEY = "org:role"

#: Upper bound on memoized ``occurs`` trace-set entries per log; the
#: candidate searches probe huge numbers of throwaway frontier groups,
#: so the cache resets rather than growing without bound.
_OCCURS_CACHE_LIMIT = 1 << 17


def _ensure_datetime(value: Any) -> Any:
    """Normalize timestamp-ish values to timezone-aware ``datetime``.

    Numbers are interpreted as POSIX seconds; ISO strings are parsed.
    Anything else is returned unchanged (the caller may store arbitrary
    attribute values under non-timestamp keys).
    """
    if isinstance(value, datetime):
        if value.tzinfo is None:
            return value.replace(tzinfo=timezone.utc)
        return value
    if isinstance(value, (int, float)):
        return datetime.fromtimestamp(float(value), tz=timezone.utc)
    if isinstance(value, str):
        try:
            parsed = datetime.fromisoformat(value)
        except ValueError:
            return value
        if parsed.tzinfo is None:
            parsed = parsed.replace(tzinfo=timezone.utc)
        return parsed
    return value


class Event:
    """A single recorded event.

    Parameters
    ----------
    event_class:
        The type of the event (``e.C`` in the paper), e.g. ``"rcp"``.
    attributes:
        Mapping of data attributes (``e.D``).  The timestamp, if given
        under :data:`TIMESTAMP_KEY`, is normalized to a timezone-aware
        ``datetime``.
    """

    __slots__ = ("event_class", "attributes")

    def __init__(self, event_class: str, attributes: Mapping[str, Any] | None = None):
        if not isinstance(event_class, str) or not event_class:
            raise EventLogError(f"event class must be a non-empty string, got {event_class!r}")
        self.event_class = event_class
        attrs = dict(attributes) if attributes else {}
        if TIMESTAMP_KEY in attrs:
            attrs[TIMESTAMP_KEY] = _ensure_datetime(attrs[TIMESTAMP_KEY])
        self.attributes = attrs

    @classmethod
    def _adopt(cls, event_class: str, attributes: dict) -> "Event":
        """Build an event that owns ``attributes``, without the checks.

        Preconditions, unchecked: ``event_class`` is a non-empty
        ``str``; ``attributes`` is a ``dict`` no one else holds; its
        timestamp, if any, is already a timezone-aware ``datetime``.
        """
        event = cls.__new__(cls)
        event.event_class = event_class
        event.attributes = attributes
        return event

    # -- attribute access -------------------------------------------------

    def get(self, key: str, default: Any = None) -> Any:
        """Return attribute ``key`` or ``default`` if absent."""
        return self.attributes.get(key, default)

    def __getitem__(self, key: str) -> Any:
        return self.attributes[key]

    def __contains__(self, key: str) -> bool:
        return key in self.attributes

    @property
    def timestamp(self):
        """The event timestamp (``None`` if the log carries none)."""
        return self.attributes.get(TIMESTAMP_KEY)

    @property
    def role(self):
        """The executing role (``None`` if the log carries none)."""
        return self.attributes.get(ROLE_KEY)

    # -- misc --------------------------------------------------------------

    def copy(self) -> "Event":
        """Return a deep copy of this event."""
        return Event(self.event_class, copy.deepcopy(self.attributes))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return (
            self.event_class == other.event_class
            and self.attributes == other.attributes
        )

    def __hash__(self):
        # Events are identity-hashable: the paper's model states no event
        # occurs in more than one trace, so object identity is the most
        # faithful notion of "the same event".
        return object.__hash__(self)

    def __repr__(self) -> str:
        return f"Event({self.event_class!r}, {self.attributes!r})"


class Trace(Sequence[Event]):
    """A single execution of a process: an ordered sequence of events."""

    __slots__ = ("events", "attributes")

    def __init__(
        self,
        events: Iterable[Event] = (),
        attributes: Mapping[str, Any] | None = None,
    ):
        self.events: list[Event] = list(events)
        for event in self.events:
            if not isinstance(event, Event):
                raise EventLogError(f"trace elements must be Event, got {type(event).__name__}")
        self.attributes = dict(attributes) if attributes else {}

    @classmethod
    def _adopt(cls, events: list, attributes: dict) -> "Trace":
        """Build a trace that owns ``events`` and ``attributes``, unchecked.

        Preconditions: ``events`` is a ``list`` of :class:`Event` and
        ``attributes`` a ``dict``, neither held by anyone else.
        """
        trace = cls.__new__(cls)
        trace.events = events
        trace.attributes = attributes
        return trace

    # -- sequence protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Trace(self.events[index], self.attributes)
        return self.events[index]

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    # -- derived views -----------------------------------------------------

    @property
    def case_id(self) -> str | None:
        """The case identifier, when recorded (XES ``concept:name``)."""
        return self.attributes.get(CLASS_KEY)

    @property
    def classes(self) -> list[str]:
        """Event classes in occurrence order (the trace *variant*)."""
        return [event.event_class for event in self.events]

    @property
    def class_set(self) -> frozenset[str]:
        """Set of distinct event classes occurring in this trace."""
        return frozenset(event.event_class for event in self.events)

    def variant(self) -> tuple[str, ...]:
        """The control-flow variant of this trace as a hashable tuple."""
        return tuple(self.classes)

    def project(self, classes: Iterable[str]) -> "Trace":
        """Return the sub-trace of events whose class is in ``classes``."""
        wanted = frozenset(classes)
        return Trace(
            [event for event in self.events if event.event_class in wanted],
            self.attributes,
        )

    def append(self, event: Event) -> None:
        """Append ``event`` to the trace."""
        if not isinstance(event, Event):
            raise EventLogError(f"expected Event, got {type(event).__name__}")
        self.events.append(event)

    def copy(self) -> "Trace":
        """Return a deep copy of this trace."""
        return Trace([event.copy() for event in self.events], copy.deepcopy(self.attributes))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return self.events == other.events and self.attributes == other.attributes

    def __repr__(self) -> str:
        preview = ", ".join(self.classes[:8])
        ellipsis = ", ..." if len(self.events) > 8 else ""
        return f"Trace(<{preview}{ellipsis}>, case_id={self.case_id!r})"


class EventLog(Sequence[Trace]):
    """An event log: a collection of traces plus log-level attributes.

    The log also exposes the derived views that GECCO's algorithms need
    repeatedly — the event-class universe ``C_L``, per-class frequencies,
    and per-class trace membership (used for the ``occurs`` co-occurrence
    check of Algorithms 1 and 2).  These views are computed lazily and
    cached; mutating the trace list through :meth:`append` invalidates
    the caches.  :meth:`repro.core.gecco.Gecco.abstract` keeps its
    compiled artifacts here too and also sees a ``Trace.append``; no view
    sees an in-place edit of an event.  A log pickles as its traces and
    attributes only.
    """

    __slots__ = (
        "traces",
        "attributes",
        "_classes",
        "_class_counts",
        "_traces_by_class",
        "_group_trace_sets",
        "_artifacts",
    )

    def __init__(
        self,
        traces: Iterable[Trace] = (),
        attributes: Mapping[str, Any] | None = None,
    ):
        self.traces: list[Trace] = list(traces)
        for trace in self.traces:
            if not isinstance(trace, Trace):
                raise EventLogError(f"log elements must be Trace, got {type(trace).__name__}")
        self.attributes = dict(attributes) if attributes else {}
        self._invalidate()

    def _invalidate(self) -> None:
        self._classes: frozenset[str] | None = None
        self._class_counts: dict[str, int] | None = None
        self._traces_by_class: dict[str, frozenset[int]] | None = None
        self._group_trace_sets: dict[frozenset[str], frozenset[int]] = {}
        # Pipeline artifacts by instance policy, owned by ``Gecco.abstract``.
        self._artifacts: dict = {}

    def __getstate__(self):
        return {"traces": self.traces, "attributes": self.attributes}

    def __setstate__(self, state):
        if isinstance(state, tuple):  # ``(None, slots)``: pickled with every view
            state = state[1]
        self.traces = state["traces"]
        self.attributes = state["attributes"]
        self._invalidate()

    # -- sequence protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self.traces)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return EventLog(self.traces[index], self.attributes)
        return self.traces[index]

    def __iter__(self) -> Iterator[Trace]:
        return iter(self.traces)

    def append(self, trace: Trace) -> None:
        """Append ``trace`` to the log (invalidates cached views)."""
        if not isinstance(trace, Trace):
            raise EventLogError(f"expected Trace, got {type(trace).__name__}")
        self.traces.append(trace)
        self._invalidate()

    # -- derived views -----------------------------------------------------

    @property
    def classes(self) -> frozenset[str]:
        """The event-class universe ``C_L`` of this log."""
        if self._classes is None:
            self._classes = frozenset(
                event.event_class for trace in self.traces for event in trace
            )
        return self._classes

    @property
    def class_counts(self) -> dict[str, int]:
        """Number of events per event class."""
        if self._class_counts is None:
            counts: dict[str, int] = {}
            for trace in self.traces:
                for event in trace:
                    counts[event.event_class] = counts.get(event.event_class, 0) + 1
            self._class_counts = counts
        return dict(self._class_counts)

    @property
    def traces_by_class(self) -> dict[str, frozenset[int]]:
        """Map each event class to the set of trace indices containing it.

        This powers the ``occurs(g, L)`` co-occurrence check: a group
        ``g`` occurs in the log iff the intersection of its classes'
        trace sets is non-empty.
        """
        if self._traces_by_class is None:
            membership: dict[str, set[int]] = {}
            for index, trace in enumerate(self.traces):
                for cls in trace.class_set:
                    membership.setdefault(cls, set()).add(index)
            self._traces_by_class = {
                cls: frozenset(indices) for cls, indices in membership.items()
            }
        return dict(self._traces_by_class)

    def _group_trace_set(self, group: frozenset[str]) -> frozenset[int]:
        """Traces containing all classes of ``group``, memoized per group.

        The candidate searches filter every frontier group through
        ``occurs``; frontier groups extend an already-filtered parent by
        one class, so when a parent's trace set is cached the child
        costs a single posting-list intersection.  Cold groups fall back
        to intersecting the member posting lists smallest-first.  The
        cache is dropped whenever the trace list mutates and resets when
        it reaches :data:`_OCCURS_CACHE_LIMIT` entries.
        """
        cached = self._group_trace_sets.get(group)
        if cached is not None:
            return cached
        if len(self._group_trace_sets) >= _OCCURS_CACHE_LIMIT:
            self._group_trace_sets.clear()
        if self._traces_by_class is None:
            self.traces_by_class  # build the per-class posting lists
        membership = self._traces_by_class
        result: frozenset[int] | None = None
        if len(group) > 1:
            for cls in group:
                parent = self._group_trace_sets.get(group - {cls})
                if parent is not None:
                    result = parent & membership.get(cls, frozenset())
                    break
        if result is None:
            postings = sorted(
                (membership.get(cls, frozenset()) for cls in group), key=len
            )
            result = postings[0]
            for posting in postings[1:]:
                if not result:
                    break
                result = result & posting
        self._group_trace_sets[group] = result
        return result

    def occurs(self, group: Iterable[str]) -> bool:
        """Return ``True`` iff some trace contains *all* classes of ``group``.

        This is the paper's ``occurs(g, L)`` predicate (Alg. 1 line 13,
        Alg. 2 line 29).
        """
        group = frozenset(group)
        if not group:
            return False
        return bool(self._group_trace_set(group))

    def traces_containing(self, group: Iterable[str]) -> list[int]:
        """Indices of traces containing all classes of ``group``."""
        group = frozenset(group)
        if not group:
            return []
        return sorted(self._group_trace_set(group))

    @property
    def event_count(self) -> int:
        """Total number of events in the log."""
        return sum(len(trace) for trace in self.traces)

    def copy(self) -> "EventLog":
        """Return a deep copy of this log."""
        return EventLog([trace.copy() for trace in self.traces], copy.deepcopy(self.attributes))

    def __repr__(self) -> str:
        return (
            f"EventLog({len(self.traces)} traces, {self.event_count} events, "
            f"{len(self.classes)} classes)"
        )


def log_from_variants(
    variants: Mapping[Sequence[str], int] | Iterable[Sequence[str]],
    attributes_per_class: Mapping[str, Mapping[str, Any]] | None = None,
) -> EventLog:
    """Build a log from control-flow variants.

    Parameters
    ----------
    variants:
        Either a mapping from a class sequence to its trace count, or an
        iterable of class sequences (each yielding one trace).
    attributes_per_class:
        Optional per-class event attributes copied onto every event of
        that class (convenient for class-level attributes such as roles).
    """
    if isinstance(variants, Mapping):
        items = [(tuple(variant), count) for variant, count in variants.items()]
    else:
        items = [(tuple(variant), 1) for variant in variants]
    per_class = attributes_per_class or {}
    traces = []
    case = 0
    for variant, count in items:
        for _ in range(count):
            events = [Event(cls, per_class.get(cls, {})) for cls in variant]
            traces.append(Trace(events, {CLASS_KEY: f"case_{case}"}))
            case += 1
    return EventLog(traces)
