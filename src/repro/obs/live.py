"""The one trace reducer: tail fleet traces, fold them into stats.

``repro top`` and ``repro doctor`` (:mod:`repro.obs.doctor`) both fold
trace events here, so both commands count a trace the same way:

* :class:`TraceFollower` — incremental tail over one or more trace
  files.  Each file gets a resumable byte cursor; a partially written
  last line is carried in a buffer until its newline arrives (writers
  are line-atomic, but the reader may race the ``os.write``);
  truncation and size-based rotation (``<path>`` → ``<path>.1``, see
  :class:`~repro.obs.trace.TraceWriter`) are detected by a shrinking
  size, in which case the rotated segment's unread tail is drained
  before the cursor resets.  The trace's other segments
  (:func:`~repro.obs.trace.trace_segments`) are read once up front; a
  ``.gz`` path is never tailed.  Each ``poll()`` returns only the *new*
  events, merged across files in ``(ts, writer, mono)`` order.
* :class:`LiveAggregator` — the only fold over trace events, O(delta)
  per ``feed``: failure taxonomy, stage latency samples, throughput
  and deadline burn rate, queue depth, cache tiers, offenders, span
  trees, worker liveness, hot jobs and incidents.
  ``window=None`` keeps everything: that is
  :func:`~repro.obs.doctor.analyze_trace`.
* :func:`render_top` / :func:`main_top` — the ``repro top`` terminal
  dashboard: plain ANSI redraw (no curses), plus ``--once``/``--json``
  snapshot modes for scripting and CI.

Traces without span fields (pre-span writers) feed through unchanged —
the aggregator keys on fingerprints/task ids and timestamps, and span
counters simply stay at zero.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter, deque

from repro.exceptions import ReproError
from repro.obs.trace import (
    _merge_key, _number, parse_trace_bytes, read_trace, trace_segments,
)

#: Schema tag of `repro top --json` snapshots.
TOP_SCHEMA = "gecco-top/2"

#: Events that are always incidents.  Failed ``done`` events,
#: heartbeat errors and redelivered claims are incidents too.
_INCIDENT_EVENTS = frozenset((
    "released", "quarantined", "requeued", "shed", "deadline_exceeded",
    "degraded", "worker_restart", "supervisor_slot_quarantined",
))

#: Events that end a job, and with it the job's queue mark.
_TERMINAL_EVENTS = frozenset(("done", "shed", "deadline_exceeded", "quarantined"))

#: Recursion guard for corrupt traces with parent cycles.
_MAX_SPAN_DEPTH = 64


def _reason_class(reason) -> str:
    """Collapse free-text quarantine reasons into stable classes."""
    text = str(reason or "").lower()
    if "deserialize" in text or "poison" in text or "pickle" in text:
        return "poison_payload"
    if "attempt" in text or "exhaust" in text or "budget" in text:
        return "attempts_exhausted"
    return "other"


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile on a sorted copy (no numpy needed)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


def _stage_summary(samples: list[float]) -> dict:
    return {
        "count": len(samples),
        "total_s": round(sum(samples), 6),
        "p50_s": round(_percentile(samples, 0.50), 6),
        "p99_s": round(_percentile(samples, 0.99), 6),
    }


class _Cursor:
    """One followed file: byte offset, torn-line carry, rotation state."""

    __slots__ = ("path", "offset", "buffer", "primed")

    def __init__(self, path: str, offset: int = 0):
        self.path = path
        self.offset = offset
        self.buffer = b""
        self.primed = False


class TraceFollower:
    """Incrementally tail one or more trace files as an ordered stream.

    Parameters
    ----------
    paths:
        Trace files to follow (they may not exist yet — a file appears
        when its writer first emits).
    cursors:
        Optional ``{path: byte_offset}`` mapping (from a previous
        follower's :meth:`cursors`) to resume from instead of reading
        from the start.  Resumed cursors skip the pre-existing rotated
        segments too (they were read by the original follower).
    """

    def __init__(self, paths, cursors: dict | None = None):
        self._cursors = []
        for path in paths:
            cursor = _Cursor(str(path))
            if cursors is not None and str(path) in cursors:
                cursor.offset = int(cursors[str(path)])
                cursor.primed = True
            self._cursors.append(cursor)

    def cursors(self) -> dict:
        """Resumable ``{path: byte_offset}`` snapshot of the cursors."""
        return {cursor.path: cursor.offset for cursor in self._cursors}

    def _prime(self, cursor: _Cursor) -> list[dict]:
        """First poll of one file: its other segments, and a ``.gz`` path whole."""
        cursor.primed = True
        events: list[dict] = []
        for segment in trace_segments(cursor.path):
            if segment != cursor.path or segment.endswith(".gz"):
                events.extend(read_trace(segment))
        return events

    def _drain_rotated_tail(self, cursor: _Cursor) -> list[dict]:
        """The main file shrank: finish the rotated generation first.

        Size-based rotation renames the file to ``<path>.1``, so the
        bytes past our cursor live there now; anything already in the
        carry buffer is contiguous with that tail.  A bare truncation
        (no ``.1``, or one shorter than our offset) just drops the
        carry buffer — those bytes are gone.
        """
        events: list[dict] = []
        rotated = cursor.path + ".1"
        try:
            size = os.stat(rotated).st_size
        except OSError:
            size = -1
        if size >= cursor.offset:
            try:
                with open(rotated, "rb") as fh:
                    fh.seek(cursor.offset)
                    tail = fh.read()
            except OSError:
                tail = b""
            events.extend(parse_trace_bytes(cursor.buffer + tail))
        cursor.buffer = b""
        cursor.offset = 0
        return events

    def _poll_one(self, cursor: _Cursor) -> list[dict]:
        events: list[dict] = []
        if not cursor.primed:
            events.extend(self._prime(cursor))
        if cursor.path.endswith(".gz"):
            return events
        try:
            size = os.stat(cursor.path).st_size
        except OSError:
            return events
        if size < cursor.offset:
            events.extend(self._drain_rotated_tail(cursor))
        try:
            with open(cursor.path, "rb") as fh:
                fh.seek(cursor.offset)
                chunk = fh.read()
        except OSError:
            return events
        cursor.offset += len(chunk)
        data = cursor.buffer + chunk
        head, newline, tail = data.rpartition(b"\n")
        if newline:
            cursor.buffer = tail
            events.extend(parse_trace_bytes(head))
        else:
            cursor.buffer = data
        return events

    def poll(self) -> list[dict]:
        """New events since the last poll, merged in stream order."""
        events: list[dict] = []
        for cursor in self._cursors:
            events.extend(self._poll_one(cursor))
        events.sort(key=_merge_key)
        return events


class LiveAggregator:
    """The trace fold behind ``repro top`` and ``repro doctor``.

    ``feed(events)`` costs O(len(events)); timestamps come from the
    events, so replaying a recorded trace yields the snapshot the live
    run showed.  A finite ``window`` (seconds of trace time) drops done
    outcomes, deadline misses, stage samples and incidents older than
    ``last_ts - window`` at each :meth:`snapshot`; ``window=None`` drops
    nothing.  Rules:

    * Queue marks, keyed ``task_id or fingerprint``: a job's first
      ``submitted`` or ``queued`` sets one, each ``claimed`` adds a
      ``queue_wait`` sample, and the job's terminal event (``done``,
      ``shed``, ``deadline_exceeded``, ``quarantined``) clears it.
      Queue depth counts the marks not yet claimed; a ``queued`` that
      carries a broker task id drops the fingerprint's mark, so a
      distributed job is counted once.
    * A redelivery (a claim with ``attempt > 0``) was voluntary when a
      ``released`` for the same key is still unmatched, else its lease
      expired.  A ``done`` failed on ``error`` or ``ok: false``, a
      ``heartbeat`` on ``error``.
    * Numeric fields count only as an int or a float; a ``timings`` or
      ``stats`` value that is not a dict is ignored.
    """

    def __init__(self, window: float | None = 60.0):
        self.window = None if window is None else float(window)
        self.events = 0
        self.last_ts = 0.0
        self.event_counts: Counter = Counter()
        #: Scalar tallies: releases, heartbeat errors, sweep moves,
        #: job failures and both redelivery kinds.
        self.counts: Counter = Counter()
        #: Tallies by cause, in the doctor's taxonomy order.
        self.causes: dict[str, Counter] = {name: Counter() for name in (
            "retries", "quarantines", "sheds", "deadline_exceeded", "degraded")}
        self.tier_hits: Counter = Counter()
        self.cache_totals: dict[str, Counter] = {}
        self.redelivered_jobs: Counter = Counter()
        self.job_trouble: Counter = Counter()
        self.worker_rows: list[dict] = []
        self.workers: dict[str, dict] = {}
        #: queue key -> [marked-at ts, claimed yet].
        self._marks: dict[str, list] = {}
        self._release_budget: Counter = Counter()
        #: stage -> deque of (ts, seconds), in event order.
        self._stages: dict[str, deque] = {}
        self._done_window: deque = deque()  # (ts, ok)
        self._miss_window: deque = deque()  # (ts, stage)
        #: (ts, entry) in event order; entries are the doctor's timeline.
        self.incidents: deque = deque()
        self._hot: Counter = Counter()
        self.span_events = 0
        self._span_nodes: dict[str, dict] = {}
        self._span_notes: dict[str, list[str]] = {}
        self._trace_ids: set = set()

    def feed(self, events) -> int:
        """Absorb a batch of trace events; returns how many were fed."""
        fed = 0
        for event in events:
            self._feed_one(event)
            fed += 1
        return fed

    def _sample(self, stage: str, ts: float, seconds) -> None:
        if _number(seconds, None) is not None:
            self._stages.setdefault(stage, deque()).append((ts, float(seconds)))

    def _feed_span(self, event: dict, name: str) -> None:
        span_id, parent = event.get("span_id"), event.get("parent_span")
        if span_id is None and parent is None:
            return
        self.span_events += 1
        if event.get("trace_id"):
            self._trace_ids.add(event["trace_id"])
        if span_id is None:
            self._span_notes.setdefault(parent, []).append(name)
        elif span_id not in self._span_nodes:
            fingerprint = event.get("fingerprint")
            self._span_nodes[span_id] = {
                "event": name, "parent_span": parent, "worker": event.get("worker"),
                "fingerprint": str(fingerprint)[:12] if fingerprint else None,
                "seconds": _number(event.get("seconds"), None),
            }

    def _feed_one(self, event: dict) -> None:
        name = event.get("event")
        if not isinstance(name, str):
            return
        ts = float(_number(event.get("ts"), 0.0))
        self.events += 1
        self.last_ts = max(self.last_ts, ts)
        self.event_counts[name] += 1
        worker = event.get("worker")
        if worker is not None:
            record = self.workers.setdefault(
                str(worker),
                {"pid": event.get("pid"), "last_ts": ts, "exited": False, "done": 0},
            )
            record["last_ts"] = max(record["last_ts"], ts)
        self._feed_span(event, name)
        task_id, fingerprint = event.get("task_id"), event.get("fingerprint")
        if fingerprint is not None:
            self._hot[str(fingerprint)[:12]] += 1
        key = task_id or fingerprint
        trouble_key = fingerprint or task_id
        incident = name in _INCIDENT_EVENTS
        trouble = name in ("quarantined", "deadline_exceeded")
        if name in ("submitted", "queued") and key is not None:
            self._marks.setdefault(key, [ts, False])
            if name == "queued" and fingerprint is not None and key != fingerprint:
                self._marks.pop(fingerprint, None)
        elif name == "claimed":
            mark = self._marks.get(key) if key is not None else None
            if mark is not None:
                mark[1] = True
                self._sample("queue_wait", ts, max(0.0, ts - mark[0]))
            if _number(event.get("attempt")) > 0:
                incident = True
                budget_key = key or "?"
                self.redelivered_jobs[fingerprint or budget_key] += 1
                if self._release_budget[budget_key] > 0:
                    self._release_budget[budget_key] -= 1
                    self.counts["redeliveries_released"] += 1
                else:
                    self.counts["redeliveries_lease_expired"] += 1
        elif name == "released":
            self._release_budget[key or "?"] += 1
            self.counts["releases"] += 1
        elif name in ("artifact_build", "solve"):
            self._sample(name, ts, event.get("seconds"))
            timings = event.get("timings") if name == "solve" else None
            if isinstance(timings, dict):
                for stage, seconds in timings.items():
                    self._sample(f"solve_{stage}", ts, seconds)
        elif name == "done":
            failed = bool(event.get("error")) or event.get("ok") is False
            self._sample("job_total", ts, event.get("seconds"))
            self._done_window.append((ts, not failed))
            if worker is not None:
                self.workers[str(worker)]["done"] += 1
            if failed:
                incident = trouble = True
                self.counts["job_failures"] += 1
        elif name == "quarantined":
            self.causes["quarantines"][_reason_class(event.get("reason"))] += 1
        elif name == "shed":
            self.causes["sheds"][str(event.get("cause", "overload"))] += 1
        elif name == "deadline_exceeded":
            stage = str(event.get("stage", "?"))
            self.causes["deadline_exceeded"][stage] += 1
            self._miss_window.append((ts, stage))
        elif name == "retry":
            cause = f'{event.get("op", "?")}:{event.get("cause", "?")}'
            self.causes["retries"][cause] += 1
        elif name == "degraded":
            self.causes["degraded"][str(event.get("cause", "?"))] += 1
        elif name == "heartbeat" and event.get("error"):
            incident = True
            self.counts["heartbeat_errors"] += 1
        elif name == "requeued":
            self.counts["requeue_sweep_moves"] += _number(event.get("count"))
        elif name == "cache_hit":
            self.tier_hits[str(event.get("tier", "?"))] += 1
        elif name == "worker_exit":
            self._feed_worker_exit(event)
        if name in _TERMINAL_EVENTS and key is not None:
            self._marks.pop(key, None)
        if trouble and trouble_key is not None:
            self.job_trouble[trouble_key] += 1
        if incident:
            entry = {
                "ts": ts, "event": name, "task_id": task_id,
                "fingerprint": fingerprint, "worker": worker,
                "attempt": event.get("attempt"),
                "reason": event.get("reason") or event.get("cause") or event.get("stage"),
                "error": event.get("error") or None,
                **{k: event.get(k) for k in ("count", "slot", "exitcode")},
            }
            self.incidents.append((ts, {k: v for k, v in entry.items() if v is not None}))

    def _feed_worker_exit(self, event: dict) -> None:
        worker = event.get("worker")
        if worker is not None:
            self.workers[str(worker)]["exited"] = True
        stats = event.get("stats")
        if not isinstance(stats, dict):
            stats = {}
        counts = {k: _number(stats.get(k)) for k in (
            "completed", "failed", "quarantined", "released", "requeued",
            "broker_errors", "heartbeat_errors")}
        self.worker_rows.append({
            "worker": stats.get("worker") or event.get("worker", "?"),
            "trouble_score": sum(
                v for k, v in counts.items() if k not in ("completed", "requeued")
            ),
            **counts,
        })
        cache = stats.get("cache")
        for tier, counters in (cache.items() if isinstance(cache, dict) else ()):
            if isinstance(counters, dict):
                totals = self.cache_totals.setdefault(str(tier), Counter())
                for counter, value in counters.items():
                    totals[counter] += _number(value)

    def _prune(self) -> None:
        if self.window is None:
            return
        cutoff = self.last_ts - self.window
        for queue in (self._done_window, self._miss_window, self.incidents,
                      *self._stages.values()):
            while queue and queue[0][0] < cutoff:
                queue.popleft()

    def taxonomy(self) -> dict:
        """The failure taxonomy, in the doctor's report shape."""
        by = {name: dict(sorted(table.items())) for name, table in self.causes.items()}
        return {
            "retries": by["retries"],
            "redeliveries": {
                "released": self.counts["redeliveries_released"],
                "lease_expired": self.counts["redeliveries_lease_expired"],
            },
            "requeue_sweep_moves": self.counts["requeue_sweep_moves"],
            "releases": self.counts["releases"],
            "heartbeat_errors": self.counts["heartbeat_errors"],
            "quarantines": by["quarantines"],
            "sheds": by["sheds"],
            "deadline_exceeded": by["deadline_exceeded"],
            "degraded": by["degraded"],
            "job_failures": self.counts["job_failures"],
            "worker_restarts": self.event_counts["worker_restart"],
            "slot_quarantines": self.event_counts["supervisor_slot_quarantined"],
        }

    def latency(self) -> dict:
        """Per-stage count/total/p50/p99; ``queue_wait`` first, always."""
        names = sorted(self._stages.keys() - {"queue_wait"})
        return {
            name: _stage_summary([s for _, s in self._stages.get(name, ())])
            for name in ["queue_wait", *names]
        }

    def spans(self, max_trees: int = 10) -> dict:
        """Exact parent/child span trees, rooted at ``submitted`` spans.

        A span's node is the first event carrying its ``span_id``;
        events carrying only a ``parent_span`` annotate that node.
        """
        nodes = self._span_nodes
        children: dict[str, list[str]] = {sid: [] for sid in nodes}
        roots = []
        for sid, node in nodes.items():
            parent = node["parent_span"]
            if parent is None or parent not in nodes:
                roots.append(sid)
            elif parent != sid:
                children[parent].append(sid)

        def depth(sid: str, budget: int = _MAX_SPAN_DEPTH) -> int:
            if budget <= 0:
                return 0
            return 1 + max(
                (depth(child, budget - 1) for child in children[sid]), default=0
            )

        def export(sid: str, budget: int = _MAX_SPAN_DEPTH) -> dict:
            node = nodes[sid]
            entry = {"event": node["event"], "span_id": sid}
            for key in ("fingerprint", "worker", "seconds"):
                if node[key] is not None:
                    entry[key] = node[key]
            if self._span_notes.get(sid):
                entry["annotations"] = list(self._span_notes[sid])
            if children[sid] and budget > 0:
                entry["children"] = [
                    export(child, budget - 1) for child in children[sid]
                ]
            return entry

        submit_roots = [sid for sid in roots if nodes[sid]["event"] == "submitted"]
        return {
            "traced_jobs": len(submit_roots),
            "span_events": self.span_events,
            "traces": len(self._trace_ids),
            "max_depth": max((depth(sid) for sid in roots), default=0),
            "trees": [export(sid) for sid in (submit_roots or roots)[:max_trees]],
        }

    def snapshot(self) -> dict:
        """JSON-ready rolling view (the ``repro top --json`` payload)."""
        self._prune()
        window_done = len(self._done_window)
        window_ok = sum(1 for _, ok in self._done_window if ok)
        window_misses = len(self._miss_window)
        outcomes = window_done + window_misses
        workers = {
            name: {
                "pid": record.get("pid"),
                "last_seen_ts": record["last_ts"],
                "age_s": max(0.0, self.last_ts - record["last_ts"]),
                "alive": not record["exited"],
                "done": record["done"],
            }
            for name, record in sorted(self.workers.items())
        }
        taxonomy = self.taxonomy()
        flat = {
            f"redeliveries_{kind}": count
            for kind, count in taxonomy.pop("redeliveries").items()
        }
        for key, value in taxonomy.items():
            flat[key] = sum(value.values()) if isinstance(value, dict) else value
        spans = self.spans(max_trees=0)
        incidents = list(self.incidents)[-32:]  # the newest, oldest first
        return {
            "schema": TOP_SCHEMA,
            "events": self.events,
            "window_s": self.window,
            "last_ts": self.last_ts,
            "throughput": {
                "window_done": window_done,
                "window_ok": window_ok,
                "window_errors": window_done - window_ok,
                "done_per_s": window_done / self.window if self.window else 0.0,
            },
            "queue_depth": sum(1 for _, claimed in self._marks.values() if not claimed),
            "stages": {k: v for k, v in self.latency().items() if v["count"]},
            "workers": workers,
            "taxonomy": {
                **dict(sorted(flat.items())),
                "quarantine_reasons": taxonomy["quarantines"],
                "shed_causes": taxonomy["sheds"],
            },
            "slo": {
                "window_deadline_misses": window_misses,
                "burn_rate": window_misses / outcomes if outcomes else 0.0,
            },
            "spans": {
                "events_with_span": spans["span_events"],
                **{k: spans[k] for k in ("traces", "traced_jobs", "max_depth")},
            },
            "hot_jobs": [
                {"fingerprint": fingerprint, "events": count}
                for fingerprint, count in self._hot.most_common(5)
            ],
            "incidents": [entry for _, entry in incidents],
        }


def _fmt_seconds(value: float) -> str:
    if value < 0.001:
        return f"{value * 1e6:.0f}µs"
    if value < 1.0:
        return f"{value * 1e3:.1f}ms"
    return f"{value:.2f}s"


def render_top(snapshot: dict, color: bool = True) -> str:
    """Render one dashboard frame as plain text (ANSI when ``color``)."""
    bold = "\x1b[1m" if color else ""
    dim = "\x1b[2m" if color else ""
    red = "\x1b[31m" if color else ""
    reset = "\x1b[0m" if color else ""
    through = snapshot["throughput"]
    slo = snapshot["slo"]
    lines = [
        f"{bold}repro top{reset} — {snapshot['events']} events, "
        f"window {snapshot['window_s']:.0f}s, "
        f"{through['window_done']} done "
        f"({through['window_errors']} err, "
        f"{through['done_per_s']:.2f}/s), "
        f"queue depth {snapshot['queue_depth']}, "
        f"deadline burn {slo['burn_rate']:.0%}",
    ]
    spans = snapshot["spans"]
    if spans["events_with_span"]:
        lines.append(
            f"{dim}spans: {spans['traces']} traces, "
            f"{spans['events_with_span']} span events, "
            f"max depth {spans['max_depth']}{reset}"
        )
    if snapshot["stages"]:
        lines.append(f"{bold}stages{reset}")
        for stage, stats in snapshot["stages"].items():
            lines.append(
                f"  {stage:<16} n={stats['count']:<6} "
                f"p50={_fmt_seconds(stats['p50_s']):<8} "
                f"p99={_fmt_seconds(stats['p99_s'])}"
            )
    if snapshot["workers"]:
        lines.append(f"{bold}workers{reset}")
        for name, record in snapshot["workers"].items():
            state = "up" if record["alive"] else "exited"
            mark = "" if record["alive"] else dim
            lines.append(
                f"  {mark}{name:<28} {state:<7} done={record['done']:<5} "
                f"seen {record['age_s']:.1f}s ago{reset}"
            )
    if snapshot["hot_jobs"]:
        lines.append(f"{bold}hot jobs{reset}")
        for job in snapshot["hot_jobs"]:
            lines.append(f"  {job['fingerprint']:<14} {job['events']} events")
    taxonomy = {
        key: value
        for key, value in snapshot["taxonomy"].items()
        if isinstance(value, int) and value
    }
    if taxonomy:
        lines.append(
            f"{bold}taxonomy{reset} "
            + " ".join(f"{key}={value}" for key, value in taxonomy.items())
        )
    if snapshot["incidents"]:
        lines.append(f"{bold}incidents{reset} (newest last)")
        for incident in snapshot["incidents"][-8:]:
            where = f" [{incident['worker']}]" if incident.get("worker") else ""
            detail = incident.get("reason") or incident.get("error") or " ".join(
                f"{key}={incident[key]}"
                for key in ("count", "slot", "exitcode", "attempt")
                if key in incident
            )
            what = f": {detail}" if detail else ""
            lines.append(
                f"  {red}{incident['event']:<18}{reset}{where}{what}"
            )
    return "\n".join(lines)


def main_top(
    paths,
    once: bool = False,
    as_json: bool = False,
    interval: float = 1.0,
    window: float = 60.0,
    iterations: int | None = None,
    out=None,
) -> int:
    """The ``repro top`` entry point; returns a process exit code.

    ``--once`` polls the follower a single time (reading everything
    currently on disk) and prints one frame — with ``--json``, the
    :meth:`LiveAggregator.snapshot` dict, which is what CI asserts on;
    a path with no segment on disk raises :class:`ReproError` there,
    as for ``repro doctor``.  Otherwise: poll/feed/redraw every
    ``interval`` seconds until interrupted (or ``iterations`` frames,
    for tests), waiting for files that do not exist yet.
    """
    out = out if out is not None else sys.stdout
    if once:
        for path in paths:
            if not trace_segments(path):
                raise ReproError(f"no trace file at {path}")
    follower = TraceFollower(paths)
    aggregator = LiveAggregator(window=window)
    color = (not as_json) and hasattr(out, "isatty") and out.isatty()
    frame = 0
    try:
        while True:
            aggregator.feed(follower.poll())
            frame += 1
            snapshot = aggregator.snapshot()
            if as_json:
                print(json.dumps(snapshot, indent=2), file=out, flush=True)
            else:
                prefix = "" if once else "\x1b[H\x1b[2J"
                print(prefix + render_top(snapshot, color=color), file=out, flush=True)
            if once or (iterations is not None and frame >= iterations):
                break
            time.sleep(interval)
    except KeyboardInterrupt:
        pass
    return 0
