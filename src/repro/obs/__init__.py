"""``repro.obs`` — fleet observability: tracing, metrics, forensics.

The executor stack (:mod:`repro.service`) emits rich runtime signals —
scheduler and affinity counters, requeue/quarantine events, cache-tier
hits, selection stats, admission sheds, chaos outcomes — that used to
die in per-process ``stats()`` dicts the moment a worker exited.  This
package turns them into three durable, zero-dependency surfaces:

* :mod:`~repro.obs.trace` — **structured tracing**: a
  :class:`TraceWriter` appends one JSONL event per job-lifecycle
  transition (``submitted``/``queued``/``claimed``/``heartbeat``/
  ``requeued``/``released``/``quarantined``/``shed``/
  ``deadline_exceeded``/``cache_hit``/``artifact_build``/``solve``/
  ``done``/``worker_exit``) with wall and monotonic timestamps, job
  fingerprint, worker id and pid, attempt number, and per-stage
  timings.  Appends are line-atomic (one ``O_APPEND`` write per
  event), so any number of processes — pool workers, fleet workers on
  other hosts via a shared directory, the submitting executor — can
  interleave into one file that :mod:`~repro.obs.doctor` reassembles.
  Wired in with ``--trace PATH`` on ``repro batch``/``serve``/
  ``worker`` and ``trace=`` on
  :func:`~repro.service.batch.make_executor`.
* :mod:`~repro.obs.metrics` — **metrics**: a lock-cheap
  :class:`MetricsRegistry` (counters, gauges, histograms with fixed
  bucket bounds) rendered in the Prometheus text exposition format and
  scraped from a ``/metrics`` endpoint (:class:`MetricsServer`) on
  ``repro serve --metrics-port`` and ``repro worker --metrics-port``.
  :func:`sync_executor_stats` absorbs the ad-hoc executor ``stats()``
  dicts (scheduler, broker, admission, workers, cache tiers) into the
  registry on every scrape.
* :mod:`~repro.obs.doctor` — **failure forensics**: ``repro doctor
  <trace.jsonl ...>`` merges fleet traces, folds them with the live
  aggregator below with no window, and reports a failure taxonomy,
  top-offender jobs and workers, per-stage latency percentiles,
  cache-tier hit rates, exact span trees, and an incident timeline —
  as JSON or text.  ``--recommend`` adds an evidence-backed tuning
  engine (:func:`recommend`) that cites the counts behind every
  suggestion.
* :mod:`~repro.obs.live` — **the one trace reducer**: a resumable
  :class:`TraceFollower` tails growing (and rotating) trace files by
  byte cursor, and a :class:`LiveAggregator` folds events into the
  counters both commands report (exact nearest-rank p50/p99 per
  stage, failure taxonomy, queue depth, worker liveness, deadline burn
  rate); ``repro top`` renders its rolling-window snapshot as an ANSI
  dashboard or ``--once --json`` machine output.

Since spans landed, every ``submit`` mints ``trace_id``/``span_id``
and the ids ride inside the pickled job through broker queues and
pool pipes, so one job's cross-process lifecycle reassembles as a
tree (``submitted`` → ``claimed`` → ``artifact_build``/``solve``)
rather than a flat timestamp ordering.

Tracing is **off-by-default-free**: with no tracer configured the hot
paths pay a ``None`` check, and with one configured results stay
byte-identical to an untraced run (tracing never touches computation —
enforced by the differential tests in ``tests/test_obs.py``).
"""

from repro.obs.doctor import analyze_trace, recommend, render_report
from repro.obs.live import (
    TOP_SCHEMA,
    LiveAggregator,
    TraceFollower,
    main_top,
    render_top,
)
from repro.obs.metrics import (
    MetricsRegistry,
    MetricsServer,
    sync_executor_stats,
    sync_worker_stats,
)
from repro.obs.trace import (
    TRACE_EVENTS,
    TRACE_SCHEMA,
    TraceWriter,
    merge_traces,
    new_span_id,
    new_trace_id,
    read_trace,
    span_scope,
    trace_segments,
)

__all__ = [
    "LiveAggregator",
    "MetricsRegistry",
    "MetricsServer",
    "TOP_SCHEMA",
    "TRACE_EVENTS",
    "TRACE_SCHEMA",
    "TraceFollower",
    "TraceWriter",
    "analyze_trace",
    "main_top",
    "merge_traces",
    "new_span_id",
    "new_trace_id",
    "read_trace",
    "recommend",
    "render_report",
    "render_top",
    "span_scope",
    "trace_segments",
    "sync_executor_stats",
    "sync_worker_stats",
]
