"""Lossless JSON round-trips for pipeline inputs and outputs.

The worker pool ships :class:`~repro.core.gecco.AbstractionResult`
objects between processes (pickle) and the artifact cache persists them
on disk (JSON); both require every result member to survive a
round-trip.  This module owns the JSON side: typed encoding of
attribute values (datetimes, sets, tuples carry explicit tags), event
logs, groupings, infeasibility reports, and whole results.

:func:`result_signature` renders the *output* portion of a result —
everything except wall-clock timings and search statistics — as
canonical JSON, which is how the test-suite and the benchmarks assert
that pool execution is byte-identical to sequential execution.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from datetime import datetime
from typing import Any

from repro.constraints.sets import InfeasibilityReport
from repro.core.candidates import CandidateStats
from repro.core.dfg_candidates import BeamStats
from repro.core.exclusive import ExclusiveStats
from repro.core.gecco import AbstractionResult, StepTimings
from repro.core.grouping import Grouping
from repro.eventlog.events import Event, EventLog, Trace
from repro.exceptions import ReproError
from repro.selection2.stats import SelectionStats

#: Schema tag written into serialized results.
RESULT_SCHEMA = "gecco-result/1"

#: Candidate-statistics classes by serialization tag.
_STATS_TYPES = {"CandidateStats": CandidateStats, "BeamStats": BeamStats}


def _stats_to_dict(stats) -> dict | None:
    if not isinstance(stats, CandidateStats):
        return None
    return {"$stats": type(stats).__name__, **asdict(stats)}


def _stats_from_dict(data: dict) -> CandidateStats:
    payload = dict(data)
    tag = payload.pop("$stats", "CandidateStats")
    cls = _STATS_TYPES.get(tag)
    if cls is None:
        raise ReproError(f"unknown candidate-stats type {tag!r}")
    return cls(**payload)


# -- attribute values -------------------------------------------------------


def encode_value(value: Any) -> Any:
    """Encode one attribute value into JSON-able data (typed tags)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, datetime):
        return {"$dt": value.isoformat()}
    if isinstance(value, (set, frozenset)):
        return {"$set": sorted((encode_value(item) for item in value), key=repr)}
    if isinstance(value, tuple):
        return {"$tuple": [encode_value(item) for item in value]}
    if isinstance(value, list):
        return [encode_value(item) for item in value]
    if isinstance(value, dict):
        return {str(key): encode_value(item) for key, item in value.items()}
    raise ReproError(
        f"cannot serialize attribute value of type {type(value).__name__}: {value!r}"
    )


def decode_value(value: Any) -> Any:
    """Invert :func:`encode_value`."""
    if isinstance(value, list):
        return [decode_value(item) for item in value]
    if isinstance(value, dict):
        if set(value) == {"$dt"}:
            return datetime.fromisoformat(value["$dt"])
        if set(value) == {"$set"}:
            return frozenset(decode_value(item) for item in value["$set"])
        if set(value) == {"$tuple"}:
            return tuple(decode_value(item) for item in value["$tuple"])
        return {key: decode_value(item) for key, item in value.items()}
    return value


def _encode_attributes(attributes: dict) -> dict:
    return {str(key): encode_value(value) for key, value in attributes.items()}


def _decode_attributes(data: dict) -> dict:
    return {key: decode_value(value) for key, value in data.items()}


# -- event logs -------------------------------------------------------------


def log_to_dict(log: EventLog) -> dict:
    """Serialize an event log (traces, events, all attribute levels).

    :func:`repro.service.fingerprint.log_digest` hashes this same
    shape — extend both together when the event model grows a field.
    """
    return {
        "attributes": _encode_attributes(log.attributes),
        "traces": [
            {
                "attributes": _encode_attributes(trace.attributes),
                "events": [
                    [event.event_class, _encode_attributes(event.attributes)]
                    for event in trace
                ],
            }
            for trace in log
        ],
    }


def log_from_dict(data: dict) -> EventLog:
    """Rebuild an event log from :func:`log_to_dict` output."""
    traces = [
        Trace(
            [Event(cls, _decode_attributes(attrs)) for cls, attrs in entry["events"]],
            _decode_attributes(entry.get("attributes", {})),
        )
        for entry in data["traces"]
    ]
    return EventLog(traces, _decode_attributes(data.get("attributes", {})))


# -- groupings and reports --------------------------------------------------


def grouping_to_dict(grouping: Grouping) -> dict:
    """Serialize a grouping (groups, universe, labels) in sorted order."""
    groups = sorted(sorted(group) for group in grouping.groups)
    return {
        "groups": groups,
        "universe": sorted(grouping.universe),
        "labels": [
            [sorted(group), grouping.labels[group]] for group in grouping.groups
        ],
    }


def grouping_from_dict(data: dict) -> Grouping:
    """Rebuild a grouping from :func:`grouping_to_dict` output."""
    labels = {
        frozenset(group): label for group, label in data.get("labels", [])
    }
    return Grouping(data["groups"], data["universe"], labels or None)


def infeasibility_to_dict(report: InfeasibilityReport) -> dict:
    """Serialize an infeasibility report (plain data already)."""
    return asdict(report)


def infeasibility_from_dict(data: dict) -> InfeasibilityReport:
    """Rebuild an infeasibility report."""
    return InfeasibilityReport(**data)


# -- results ----------------------------------------------------------------


def result_to_dict(result: AbstractionResult, include_logs: bool = True) -> dict:
    """Serialize a pipeline result.

    ``include_logs=False`` drops the (potentially large) embedded logs —
    useful for compact batch rows; such dicts cannot be fed back to
    :func:`result_from_dict`.
    """
    return {
        "schema": RESULT_SCHEMA,
        "feasible": result.feasible,
        "distance": result.distance,
        "num_candidates": result.num_candidates,
        "engine": result.engine,
        "grouping": (
            grouping_to_dict(result.grouping) if result.grouping is not None else None
        ),
        "timings": asdict(result.timings),
        "candidate_stats": _stats_to_dict(result.candidate_stats),
        "selection_stats": (
            result.selection_stats.as_dict()
            if isinstance(result.selection_stats, SelectionStats)
            else None
        ),
        "exclusive_stats": (
            asdict(result.exclusive_stats)
            if result.exclusive_stats is not None
            else None
        ),
        "infeasibility": (
            infeasibility_to_dict(result.infeasibility)
            if result.infeasibility is not None
            else None
        ),
        "abstracted_log": log_to_dict(result.abstracted_log) if include_logs else None,
        "original_log": (
            log_to_dict(result.original_log)
            if include_logs and result.original_log is not None
            else None
        ),
    }


def result_from_dict(data: dict) -> AbstractionResult:
    """Rebuild a result from :func:`result_to_dict` output."""
    if data.get("schema") != RESULT_SCHEMA:
        raise ReproError(
            f"unknown result schema {data.get('schema')!r}; expected {RESULT_SCHEMA!r}"
        )
    if data.get("abstracted_log") is None:
        raise ReproError("result was serialized without logs; cannot rebuild")
    return AbstractionResult(
        abstracted_log=log_from_dict(data["abstracted_log"]),
        grouping=(
            grouping_from_dict(data["grouping"])
            if data.get("grouping") is not None
            else None
        ),
        distance=data.get("distance"),
        feasible=data["feasible"],
        num_candidates=data["num_candidates"],
        timings=StepTimings(**data.get("timings", {})),
        candidate_stats=(
            _stats_from_dict(data["candidate_stats"])
            if data.get("candidate_stats") is not None
            else None
        ),
        selection_stats=(
            SelectionStats.from_dict(data["selection_stats"])
            if data.get("selection_stats") is not None
            else None
        ),
        exclusive_stats=(
            ExclusiveStats(**data["exclusive_stats"])
            if data.get("exclusive_stats") is not None
            else None
        ),
        infeasibility=(
            infeasibility_from_dict(data["infeasibility"])
            if data.get("infeasibility") is not None
            else None
        ),
        original_log=(
            log_from_dict(data["original_log"])
            if data.get("original_log") is not None
            else None
        ),
        engine=data.get("engine"),
    )


def result_signature(result: AbstractionResult) -> str:
    """Canonical JSON of a result's *outputs* (no timings, no stats).

    Two runs of the same job produce equal signatures iff they produced
    the same abstraction — the equality the executor tests assert.
    """
    data = result_to_dict(result, include_logs=True)
    data.pop("timings", None)
    data.pop("candidate_stats", None)
    data.pop("selection_stats", None)  # solver accounting, not output
    data.pop("exclusive_stats", None)  # Alg. 3 accounting, not output
    return json.dumps(data, sort_keys=True, separators=(",", ":"))
