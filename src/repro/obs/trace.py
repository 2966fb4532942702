"""Structured JSONL tracing for the executor fleet.

One :class:`TraceWriter` per process appends one JSON object per line
to a shared trace file.  Every event carries:

* ``schema`` — the trace schema tag (:data:`TRACE_SCHEMA`), stamped on
  the first event each writer emits so merged fleet traces stay
  self-describing;
* ``event`` — one of :data:`TRACE_EVENTS`;
* ``ts`` — wall-clock epoch seconds (cross-process orderable);
* ``mono`` — ``time.monotonic()`` seconds (same-process interval
  arithmetic, immune to clock steps);
* ``pid`` — the emitting process id;
* ``worker`` — the emitting worker's fleet name, when it has one;

plus event-specific fields (job ``fingerprint``, ``task_id``,
``attempt``, cache ``tier``, ``seconds`` stage timings, failure
``reason``/``cause`` strings — see ``docs/observability.md`` for the
full schema table).

Span fields: executors mint a ``trace_id`` (one per submitted job) and
a ``span_id`` per lifecycle phase, with ``parent_span`` linking child
phases to the phase that spawned them — the submit span is the root,
the worker's claim opens a child span, and stage events
(``artifact_build``/``solve``) nest under the claim.  Span context
rides inside the pickled job payload across brokers and pool pipes, so
one job's cross-process lifecycle reassembles into an exact tree
(:func:`repro.obs.doctor.analyze_trace`) instead of a timestamp guess.
Traces without span fields (pre-span writers) stay fully parseable;
consumers fall back to timestamp ordering.

Crash-safety and interleaving: each event is a single ``os.write`` to
a file descriptor opened with ``O_APPEND``, so POSIX guarantees the
line lands contiguously even when pool workers, fleet workers, and the
submitting executor all write to the same file; a process that dies
mid-run loses at most the event it was formatting.  The reader side
(:func:`read_trace`) skips torn or corrupt lines instead of raising,
and :func:`merge_traces` reassembles a fleet-wide timeline from many
per-host files by wall-clock order.

Writers **never raise** into the hot path: tracing is an observer, and
a full disk or revoked permission must not fail jobs that would
otherwise succeed.  Failed appends are counted on
``TraceWriter.dropped`` and otherwise ignored.
"""

from __future__ import annotations

import binascii
import gzip
import json
import os
import threading
import time

from repro.exceptions import ReproError

#: Trace schema tag; bump when event fields change incompatibly.
#: Span fields (``trace_id``/``span_id``/``parent_span``) are additive
#: and optional, so span-bearing traces keep the same tag.
TRACE_SCHEMA = "gecco-trace/1"

#: The job-lifecycle vocabulary.  Writers may emit only these names;
#: the doctor ignores unknown events (forward compatibility) but the
#: schema round-trip test pins this exact set.
TRACE_EVENTS = (
    "submitted",          # executor accepted a job (fingerprint known)
    "queued",             # job entered a queue (pool scheduler / broker)
    "claimed",            # a worker took the job (carries attempt number)
    "heartbeat",          # lease renewal outcome (errors / fail-fast only)
    "requeued",           # lease-expired tasks swept back to the queue
    "released",           # worker voluntarily handed a claim back
    "quarantined",        # poisonous/exhausted task parked (with reason)
    "shed",               # admission control refused the job (with cause)
    "deadline_exceeded",  # job failed its deadline (with stage)
    "cache_hit",          # a cache tier answered (tier: artifacts/results/
                          #   selection/disk_results/disk_selection)
    "artifact_build",     # per-log artifacts built (seconds)
    "solve",              # the abstraction computation ran (stage seconds)
    "retry",              # a resilience retry fired (op + cause)
    "degraded",           # DegradingExecutor fell back a tier
    "done",               # terminal job outcome (ok/error/cached, seconds)
    "worker_exit",        # final WorkerStats of one worker loop
    "metrics_endpoint",   # a /metrics server bound (host, port, url)
    "worker_restart",     # supervisor respawned a crashed worker slot
    "supervisor_started",  # repro fleet supervisor came up (slots, broker)
    "supervisor_slot_quarantined",  # crash-looping slot taken out of service
    "supervisor_exit",    # supervisor drained (restart totals per slot)
)


def new_trace_id() -> str:
    """Mint a 128-bit hex trace id (one per submitted job)."""
    return binascii.hexlify(os.urandom(16)).decode("ascii")


def new_span_id() -> str:
    """Mint a 64-bit hex span id (one per lifecycle phase)."""
    return binascii.hexlify(os.urandom(8)).decode("ascii")


_SPAN_CONTEXT = threading.local()


def current_span() -> tuple[str, str] | None:
    """The active ``(trace_id, span_id)`` for this thread, if any."""
    stack = getattr(_SPAN_CONTEXT, "stack", None)
    return stack[-1] if stack else None


def child_span_id() -> str | None:
    """A fresh span id when a span scope is active, else ``None``.

    Stage emitters use this so span fields appear only on traced runs:
    ``None`` fields are elided by :meth:`TraceWriter.emit`, keeping
    untraced and pre-span trace formats unchanged.
    """
    return new_span_id() if current_span() is not None else None


class span_scope:
    """Context manager that makes ``(trace_id, span_id)`` ambient.

    While active, :meth:`TraceWriter.emit` stamps ``trace_id`` and
    ``parent_span`` onto events that don't carry them explicitly, so
    deeply nested emitters (cache tiers, the solver stage timer) join
    the job's span tree without threading ids through every signature.
    A ``None`` ``trace_id`` makes the scope a no-op, which keeps call
    sites free of conditionals.
    """

    def __init__(self, trace_id: str | None, span_id: str | None):
        self._active = trace_id is not None and span_id is not None
        self._trace_id = trace_id
        self._span_id = span_id

    def __enter__(self) -> "span_scope":
        if self._active:
            stack = getattr(_SPAN_CONTEXT, "stack", None)
            if stack is None:
                stack = _SPAN_CONTEXT.stack = []
            stack.append((self._trace_id, self._span_id))
        return self

    def __exit__(self, *exc_info) -> None:
        if self._active:
            stack = getattr(_SPAN_CONTEXT, "stack", None)
            if stack:
                stack.pop()


class TraceWriter:
    """Append-only, multi-process-safe JSONL event writer.

    Parameters
    ----------
    path:
        The trace file; created on first emit, opened ``O_APPEND`` so
        concurrent writers interleave whole lines.
    worker:
        Optional fleet name stamped on every event this writer emits.
    rotate_mb:
        Optional size cap in MiB.  When an append would push the file
        past the cap, the writer atomically renames it to ``<path>.1``
        (one rotated generation, overwriting any previous one) and
        starts a fresh file.  Concurrent writers on the same path
        detect the rename via inode comparison and re-open; a handful
        of stragglers landing in the rotated segment is harmless
        because readers merge both segments.

    A writer is cheap to construct (the file opens lazily) and safe to
    share across threads; cross-process sharing means each process
    constructs its own writer on the same path.
    """

    def __init__(self, path, worker: str | None = None, rotate_mb: float | None = None):
        self.path = str(path)
        self.worker = worker
        self.emitted = 0
        #: Events lost to I/O errors (disk full, permissions); tracing
        #: is best-effort and never raises into the traced code.
        self.dropped = 0
        self.rotations = 0
        #: Public so executors can propagate the rotation policy to the
        #: writers their worker processes open on the same path.
        self.rotate_mb = rotate_mb
        self._rotate_bytes = (
            int(rotate_mb * 1024 * 1024) if rotate_mb and rotate_mb > 0 else None
        )
        self._fd: int | None = None
        self._lock = threading.Lock()
        self._stamped = False

    def emit(self, event: str, **fields) -> None:
        """Append one event; ``None``-valued fields are elided.

        When a :class:`span_scope` is active on the calling thread,
        ``trace_id`` and ``parent_span`` are stamped from it unless the
        caller supplied them explicitly — a caller-passed ``span_id``
        with no ``parent_span`` means "this event opens a child span
        of the ambient one".
        """
        record: dict = {"ts": time.time(), "mono": time.monotonic(), "event": event}
        if not self._stamped:
            record["schema"] = TRACE_SCHEMA
        record["pid"] = os.getpid()
        if self.worker is not None:
            record["worker"] = self.worker
        ambient = current_span()
        if ambient is not None:
            if fields.get("trace_id") is None:
                fields["trace_id"] = ambient[0]
            if fields.get("parent_span") is None:
                fields["parent_span"] = ambient[1]
        for key, value in fields.items():
            if value is not None:
                record[key] = value
        try:
            line = json.dumps(record, separators=(",", ":"), default=str) + "\n"
            data = line.encode("utf-8")
        except Exception:
            self.dropped += 1
            return
        with self._lock:
            try:
                if self._fd is None:
                    self._fd = os.open(
                        self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
                    )
                if self._rotate_bytes is not None:
                    self._maybe_rotate(len(data))
                os.write(self._fd, data)
            except Exception:
                self.dropped += 1
                return
            self._stamped = True
            self.emitted += 1

    def _maybe_rotate(self, incoming: int) -> None:
        """Rotate ``path`` → ``path.1`` when the cap would be crossed.

        Called under the lock with the fd open.  Another process may
        have rotated already: if our fd no longer backs ``path`` (the
        inode moved), re-open instead of rotating a fresh file away.
        """
        here = os.fstat(self._fd)
        try:
            on_disk = os.stat(self.path)
        except OSError:
            on_disk = None
        if on_disk is None or on_disk.st_ino != here.st_ino:
            os.close(self._fd)
            self._fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
            here = os.fstat(self._fd)
        if here.st_size > 0 and here.st_size + incoming > self._rotate_bytes:
            os.replace(self.path, self.path + ".1")
            os.close(self._fd)
            self._fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
            self.rotations += 1

    def close(self) -> None:
        """Close the file descriptor (further emits reopen it)."""
        with self._lock:
            if self._fd is not None:
                try:
                    os.close(self._fd)
                except Exception:
                    pass
                self._fd = None

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def as_tracer(trace, worker: str, rotate_mb: float | None = None):
    """Coerce a ``trace`` option (a JSONL path or a writer) to a writer.

    ``None`` and existing writers pass through unchanged; a path opens a
    new :class:`TraceWriter` that stamps ``worker`` on its events.
    """
    if trace is None or hasattr(trace, "emit"):
        return trace
    return TraceWriter(trace, worker=worker, rotate_mb=rotate_mb)


def trace_segments(path) -> list[str]:
    """All on-disk segments of one logical trace, oldest first.

    Rotation produces ``<path>.1`` (optionally compressed offline to
    ``<path>.1.gz``); ``<path>`` itself may also have been compressed
    to ``<path>.gz`` after a run.  Only segments that exist are
    returned, so the common unrotated case is just ``[path]``.
    """
    path = str(path)
    candidates = [path + ".1.gz", path + ".1", path + ".gz", path]
    if path.endswith(".gz"):
        base = path[: -len(".gz")]
        candidates = [base + ".1.gz", base + ".1", path]
    return [p for p in candidates if os.path.exists(p)]


def read_trace(path) -> list[dict]:
    """Parse one trace file; skip torn or corrupt lines.

    A trace written by a crashing fleet may end mid-line or carry a
    line mangled by an interleaving bug on a non-POSIX filesystem; the
    reader's job is forensics, so it salvages every parseable event
    rather than raising on the first bad byte.  Paths ending in
    ``.gz`` are decompressed transparently (truncated archives yield
    the events that decompressed cleanly).
    """
    path = str(path)
    try:
        if path.endswith(".gz"):
            with gzip.open(path, "rb") as fh:
                raw = fh.read()
        else:
            with open(path, "rb") as fh:
                raw = fh.read()
    except (OSError, EOFError):
        return []
    return parse_trace_bytes(raw)


def _number(value, default=0):
    """``value`` if it is an int or a float (a bool is neither), else ``default``."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return value
    return default


def parse_trace_bytes(raw: bytes) -> list[dict]:
    """Parse raw JSONL trace bytes, salvaging every well-formed line.

    A record needs a string ``event`` and a numeric ``ts`` if any; the
    rest are skipped like torn lines, so they cannot break the merge.
    """
    events: list[dict] = []
    for line in raw.split(b"\n"):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict) and isinstance(record.get("event"), str):
            if _number(record.get("ts", 0.0), None) is not None:
                events.append(record)
    return events


def _merge_key(event: dict) -> tuple:
    """Stable cross-host ordering: ``(ts, writer, mono)``.

    ``mono`` values from different processes are not comparable, so
    they may only break ties *within* one writer — keyed here as
    ``(worker, pid)`` — never across writers.  A pure-``ts`` sort
    would interleave same-millisecond events from one writer out of
    emission order whenever another writer's event landed between
    them.
    """
    return (
        event.get("ts", 0.0),
        (str(event.get("worker", "")), str(event.get("pid", ""))),
        _number(event.get("mono"), 0.0),
    )


def merge_traces(paths) -> list[dict]:
    """Merge fleet trace files into one wall-clock-ordered timeline.

    Each path is expanded to its rotated/compressed segments
    (:func:`trace_segments`), so a rotated trace contributes both
    generations.  The merge is a stable sort by :func:`_merge_key`.
    A path with no segment on disk raises :class:`ReproError`: an
    absent trace is not an empty, healthy one.
    """
    events: list[dict] = []
    seen: set[str] = set()
    for path in paths:
        segments = trace_segments(path)
        if not segments:
            raise ReproError(f"no trace file at {path}")
        for segment in segments:
            if segment in seen:
                continue
            seen.add(segment)
            events.extend(read_trace(segment))
    events.sort(key=_merge_key)
    return events
