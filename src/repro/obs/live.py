"""Live trace ingestion: tail fleet traces into rolling-window stats.

The doctor (:mod:`repro.obs.doctor`) re-reads whole trace files after
a run; this module turns the same JSONL streams into a **live control
surface**:

* :class:`TraceFollower` — incremental tail over one or more trace
  files.  Each file gets a resumable byte cursor; a partially written
  last line is carried in a buffer until its newline arrives (writers
  are line-atomic, but the reader may race the ``os.write``);
  truncation and size-based rotation (``<path>`` → ``<path>.1``, see
  :class:`~repro.obs.trace.TraceWriter`) are detected by a shrinking
  size, in which case the rotated segment's unread tail is drained
  before the cursor resets.  Pre-existing rotated/compressed segments
  (``<path>.1``, ``<path>.1.gz``) are read once up front.  Each
  ``poll()`` returns only the *new* events, merged across files in
  ``(ts, writer, mono)`` order — no full re-read between refreshes.
* :class:`LiveAggregator` — maintains the doctor's headline stats
  incrementally, O(delta) per ``feed``: throughput and SLO
  deadline-miss burn rate over a rolling window, per-stage latency
  percentiles via fixed-bucket streaming histograms
  (:class:`~repro.obs.metrics.Histogram`), the failure taxonomy with
  voluntary-release vs lease-expiry redelivery attribution, queue
  depth, worker liveness, hot jobs, and a recent-incident ring.
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
import threading
import time
from collections import Counter, deque

from repro.obs.doctor import _reason_class
from repro.obs.metrics import Histogram
from repro.obs.trace import _merge_key, parse_trace_bytes, read_trace

#: Schema tag of `repro top --json` snapshots.
TOP_SCHEMA = "gecco-top/1"

#: Events surfaced in the incident ring (newest last).
_INCIDENT_EVENTS = (
    "released",
    "quarantined",
    "requeued",
    "shed",
    "deadline_exceeded",
    "degraded",
    "worker_restart",
    "supervisor_slot_quarantined",
)


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
        """First poll of one file: drain pre-existing rotated segments."""
        cursor.primed = True
        events: list[dict] = []
        for rotated in (cursor.path + ".1.gz", cursor.path + ".1"):
            if os.path.exists(rotated):
                events.extend(read_trace(rotated))
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


def _span_depth(event: dict, parents: dict) -> int:
    """Tree depth of one span-bearing event (root submit span = 1)."""
    depth, parent = 1, event.get("parent_span")
    while parent is not None and depth < 64:
        depth += 1
        parent = parents.get(parent)
    return depth


class LiveAggregator:
    """Rolling-window doctor stats maintained incrementally.

    ``feed(events)`` costs O(len(events)); ``snapshot()`` costs
    O(window contents + buckets), never O(trace).  Timestamps come
    from the events themselves (not the wall clock), so replaying a
    recorded trace yields the same snapshot the live run showed.
    """

    def __init__(self, window: float = 60.0):
        self.window = float(window)
        self.events = 0
        self.last_ts = 0.0
        self.event_counts: Counter = Counter()
        self._lock = threading.Lock()
        self._stage_hist: dict[str, Histogram] = {}
        #: queue key (task_id or fingerprint) -> queued-at wall ts.
        self._queued_at: dict[str, float] = {}
        self._released_budget: Counter = Counter()
        self.taxonomy: Counter = Counter()
        self.quarantine_reasons: Counter = Counter()
        self.shed_causes: Counter = Counter()
        self.workers: dict[str, dict] = {}
        self._done_window: deque = deque()      # (ts, ok)
        self._miss_window: deque = deque()      # ts of deadline misses
        self._incidents: deque = deque(maxlen=32)
        self._hot: Counter = Counter()
        self.span_events = 0
        self.max_span_depth = 0
        self._span_parents: dict[str, str | None] = {}
        self._trace_ids: set = set()

    def _hist(self, stage: str) -> Histogram:
        hist = self._stage_hist.get(stage)
        if hist is None:
            hist = Histogram(stage, "", self._lock)
            self._stage_hist[stage] = hist
        return hist

    def feed(self, events) -> int:
        """Absorb a batch of trace events; returns how many were fed."""
        fed = 0
        for event in events:
            self._feed_one(event)
            fed += 1
        return fed

    def _feed_one(self, event: dict) -> None:
        name = event.get("event")
        if not isinstance(name, str):
            return
        ts = float(event.get("ts", 0.0) or 0.0)
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
        span_id = event.get("span_id")
        if span_id is not None or event.get("parent_span") is not None:
            self.span_events += 1
            if span_id is not None:
                self._span_parents[span_id] = event.get("parent_span")
            self.max_span_depth = max(
                self.max_span_depth, _span_depth(event, self._span_parents)
            )
        trace_id = event.get("trace_id")
        if trace_id is not None and len(self._trace_ids) < 100_000:
            self._trace_ids.add(trace_id)
        fingerprint = event.get("fingerprint")
        if fingerprint is not None:
            self._hot[str(fingerprint)[:12]] += 1
        key = event.get("task_id") or fingerprint
        if name == "queued" and key is not None:
            self._queued_at[key] = ts
        elif name == "claimed":
            if key is not None:
                queued_ts = self._queued_at.pop(key, None)
                if queued_ts is not None and ts >= queued_ts:
                    self._hist("queue_wait").observe(ts - queued_ts)
            attempt = event.get("attempt") or 0
            if attempt > 0:
                task_id = event.get("task_id")
                if task_id is not None and self._released_budget.get(task_id, 0) > 0:
                    self._released_budget[task_id] -= 1
                    self.taxonomy["redeliveries_released"] += 1
                else:
                    self.taxonomy["redeliveries_lease_expired"] += 1
        elif name in ("artifact_build", "solve"):
            seconds = event.get("seconds")
            if isinstance(seconds, (int, float)):
                self._hist(name).observe(float(seconds))
        elif name == "done":
            # A queued job may die (shed/quarantine) without a claim;
            # drop its pending queue mark so depth doesn't drift.
            if key is not None:
                self._queued_at.pop(key, None)
            ok = event.get("ok", event.get("error") is None)
            seconds = event.get("seconds")
            if isinstance(seconds, (int, float)):
                self._hist("job_total").observe(float(seconds))
            self._done_window.append((ts, bool(ok)))
            if not ok:
                self.taxonomy["job_failures"] += 1
            if worker is not None:
                self.workers[str(worker)]["done"] += 1
        elif name == "released":
            task_id = event.get("task_id")
            if task_id is not None:
                self._released_budget[task_id] += 1
            self.taxonomy["releases"] += 1
        elif name == "quarantined":
            self.taxonomy["quarantines"] += 1
            self.quarantine_reasons[_reason_class(event.get("reason"))] += 1
        elif name == "shed":
            if key is not None:
                self._queued_at.pop(key, None)
            self.taxonomy["sheds"] += 1
            self.shed_causes[str(event.get("cause") or "other")] += 1
        elif name == "deadline_exceeded":
            if key is not None:
                self._queued_at.pop(key, None)
            self.taxonomy["deadline_exceeded"] += 1
            self._miss_window.append(ts)
        elif name == "retry":
            self.taxonomy["retries"] += 1
        elif name == "degraded":
            self.taxonomy["degraded"] += 1
        elif name == "heartbeat":
            if event.get("error") is not None:
                self.taxonomy["heartbeat_errors"] += 1
        elif name == "requeued":
            self.taxonomy["requeue_sweep_moves"] += int(event.get("count", 1) or 1)
        elif name == "worker_restart":
            self.taxonomy["worker_restarts"] += 1
        elif name == "supervisor_slot_quarantined":
            self.taxonomy["slot_quarantines"] += 1
        elif name == "worker_exit":
            if worker is not None:
                self.workers[str(worker)]["exited"] = True
                stats = event.get("stats")
                if isinstance(stats, dict):
                    self.workers[str(worker)]["stats"] = {
                        k: v for k, v in stats.items() if not isinstance(v, dict)
                    }
        if name in _INCIDENT_EVENTS or (
            name == "done" and event.get("ok") is False
        ) or (name == "heartbeat" and event.get("error") is not None):
            self._incidents.append(
                {
                    "ts": ts,
                    "event": name,
                    "worker": worker,
                    "detail": event.get("reason")
                    or event.get("cause")
                    or event.get("error")
                    or event.get("stage")
                    or (f"count={event.get('count')}" if name == "requeued" else None)
                    or (
                        f"slot={event.get('slot')} exit={event.get('exitcode')}"
                        if name in ("worker_restart",
                                    "supervisor_slot_quarantined")
                        else None
                    ),
                    "task": (event.get("task_id") or "")[:12] or None,
                }
            )

    def _prune(self) -> None:
        cutoff = self.last_ts - self.window
        while self._done_window and self._done_window[0][0] < cutoff:
            self._done_window.popleft()
        while self._miss_window and self._miss_window[0] < cutoff:
            self._miss_window.popleft()

    def snapshot(self) -> dict:
        """JSON-ready rolling view (the ``repro top --json`` payload)."""
        self._prune()
        window_done = len(self._done_window)
        window_ok = sum(1 for _, ok in self._done_window if ok)
        window_misses = len(self._miss_window)
        stages = {}
        for stage, hist in sorted(self._stage_hist.items()):
            count = hist.count()
            if count:
                stages[stage] = {
                    "count": count,
                    "p50_s": hist.quantile(0.5),
                    "p99_s": hist.quantile(0.99),
                }
        workers = {}
        for name, record in sorted(self.workers.items()):
            workers[name] = {
                "pid": record.get("pid"),
                "last_seen_ts": record["last_ts"],
                "age_s": max(0.0, self.last_ts - record["last_ts"]),
                "alive": not record["exited"],
                "done": record["done"],
            }
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
            "queue_depth": len(self._queued_at),
            "stages": stages,
            "workers": workers,
            "taxonomy": {
                **{k: int(v) for k, v in sorted(self.taxonomy.items())},
                "quarantine_reasons": dict(sorted(self.quarantine_reasons.items())),
                "shed_causes": dict(sorted(self.shed_causes.items())),
            },
            "slo": {
                "window_deadline_misses": window_misses,
                "burn_rate": (
                    window_misses / (window_done + window_misses)
                    if (window_done + window_misses)
                    else 0.0
                ),
            },
            "spans": {
                "events_with_span": self.span_events,
                "traces": len(self._trace_ids),
                "max_depth": self.max_span_depth,
            },
            "hot_jobs": [
                {"fingerprint": fingerprint, "events": count}
                for fingerprint, count in self._hot.most_common(5)
            ],
            "incidents": list(self._incidents),
        }


def _fmt_seconds(value) -> str:
    if value is None:
        return "-"
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
            what = f": {incident['detail']}" if incident.get("detail") else ""
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
    :meth:`LiveAggregator.snapshot` dict, which is what CI asserts on.
    Otherwise: poll/feed/redraw every ``interval`` seconds until
    interrupted (or ``iterations`` frames, for tests).
    """
    out = out if out is not None else sys.stdout
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
