"""The distributed worker loop behind ``repro worker --broker URL``.

A worker is one process anywhere in the fleet: it connects to the
broker, claims tasks under a lease, heartbeats from a helper thread
while computing (so long jobs survive their visibility timeout), runs
the task against a worker-local
:class:`~repro.service.cache.ArtifactCache`, and completes the task
with a pickled result envelope.  Pointing every worker's cache at the
same ``--cache-dir`` turns the on-disk store into the fleet's shared
result tier: a cold fleet converges to one computation per distinct
job and (with affinity routing, which brokers apply by default) at
most one artifact build per (worker, log).

Failure semantics:

* a task whose payload does not deserialize is **quarantined** (error
  result recorded, task parked for inspection) — one bad manifest row
  cannot crash-loop the fleet;
* a task whose computation raises completes with an **error envelope**
  — the submitting executor re-raises it from ``handle.result()``;
* a worker that dies mid-task stops heartbeating, its lease expires,
  and any party's :meth:`~repro.service.dist.broker.Broker.requeue_expired`
  sweep redelivers the task (bounded by ``max_attempts``).
"""

from __future__ import annotations

import os
import pickle
import signal
import socket
import threading
import time
from dataclasses import dataclass, field

from repro.obs.trace import as_tracer, new_span_id, span_scope
from repro.service.cache import ArtifactCache
from repro.service.dist.broker import (
    DEFAULT_MAX_ATTEMPTS,
    Broker,
    Claim,
    connect_broker,
    encode_result_flagged,
)
from repro.service.resilience import RetryPolicy


def default_worker_id() -> str:
    """A fleet-unique worker name: ``<hostname>-<pid>``."""
    return f"{socket.gethostname()}-{os.getpid()}"


@dataclass
class WorkerStats:
    """Counters of one worker loop's lifetime."""

    worker: str = ""
    completed: int = 0
    failed: int = 0
    quarantined: int = 0
    stale_completions: int = 0
    requeued: int = 0
    released: int = 0
    broker_errors: int = 0
    heartbeat_errors: int = 0
    cache: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """Plain-data rendering for logs and tests."""
        return {
            "worker": self.worker,
            "completed": self.completed,
            "failed": self.failed,
            "quarantined": self.quarantined,
            "stale_completions": self.stale_completions,
            "requeued": self.requeued,
            "released": self.released,
            "broker_errors": self.broker_errors,
            "heartbeat_errors": self.heartbeat_errors,
            "cache": dict(self.cache),
        }


class _Heartbeat:
    """Renews a claim's lease from a helper thread while a task runs.

    Broker errors during a beat are counted via ``on_error`` and
    retried on the next interval; ``max_misses`` *consecutive* failed
    beats fail the lease fast (``lost`` flips and renewal stops, so
    the lease expires and the task is redelivered) instead of silently
    renewing nothing while a partitioned broker heals.
    """

    def __init__(
        self,
        broker: Broker,
        claim: Claim,
        lease: float,
        on_error=None,
        max_misses: int = 5,
    ):
        self._broker = broker
        self._claim = claim
        self._lease = lease
        self._on_error = on_error
        self._max_misses = max_misses
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self.lost = False
        self.misses = 0

    def _run(self) -> None:
        interval = max(self._lease / 3.0, 0.02)
        consecutive = 0
        while not self._stop.wait(interval):
            try:
                if not self._broker.heartbeat(self._claim, self._lease):
                    self.lost = True
                    return
                consecutive = 0
            except Exception as exc:
                # A transient broker hiccup must not kill the task; the
                # next beat retries, and a truly lost lease is absorbed
                # by the at-least-once completion semantics.
                consecutive += 1
                self.misses += 1
                if self._on_error is not None:
                    self._on_error(exc)
                if consecutive >= self._max_misses:
                    self.lost = True
                    return

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)


#: Sentinel for "deserialize the payload yourself" in run_claimed_task.
_DECODE = object()


def decode_claimed_payload(claim: Claim):
    """Deserialize a claim's payload, raising :class:`_PoisonPayload`.

    Split out of :func:`run_claimed_task` so the worker loop can read
    the span context a job payload carries (``trace_id``/``span_id``
    minted at submit) *before* emitting its ``claimed`` event, without
    deserializing twice.
    """
    try:
        return pickle.loads(claim.envelope.payload)
    except Exception as exc:
        # Deserialization failures are the *caller's* signal to
        # quarantine; encode them distinctly so it can tell.
        raise _PoisonPayload(f"payload does not deserialize: {exc!r}") from exc


def run_claimed_task(
    claim: Claim, cache: ArtifactCache, worker: str, work=_DECODE
) -> tuple[bytes, bool]:
    """Execute one claimed task; return ``(result envelope, ok)``.

    ``job`` payloads run through :func:`repro.service.executor.run_job`
    (full cache discipline: result tier, shared artifacts, selection
    tier); ``call`` payloads run ``fn(*args, cache=cache, **kwargs)``
    exactly like pool workers do for ``submit_call``.  Exceptions are
    captured into an error envelope (``ok=False``), never raised — the
    flag spares callers re-deserializing the (potentially large)
    envelope just to learn the outcome.  ``work`` accepts an
    already-deserialized payload (from
    :func:`decode_claimed_payload`); by default it is decoded here.
    """
    if work is _DECODE:
        work = decode_claimed_payload(claim)
    try:
        if claim.envelope.kind == "job":
            from repro.service.executor import run_job

            result, cached = run_job(work, cache)
            return encode_result_flagged(
                value=result, cached=cached, worker=worker,
                worker_stats=cache.snapshot(),
            )
        fn, args, kwargs = work
        value = fn(*args, cache=cache, **kwargs)
        return encode_result_flagged(
            value=value, worker=worker, worker_stats=cache.snapshot()
        )
    except Exception as exc:
        try:
            pickle.dumps(exc)
            picklable: "BaseException | None" = exc
        except Exception:
            picklable = None
        record = {
            "ok": False,
            "value": None,
            "error": f"{type(exc).__name__}: {exc}",
            "exception": picklable,
            "cached": False,
            "worker": worker,
            "worker_stats": cache.snapshot(),
        }
        return pickle.dumps(record), False


class _PoisonPayload(Exception):
    """A claimed payload that cannot even be deserialized."""


def worker_loop(
    broker: "Broker | str",
    cache: ArtifactCache | None = None,
    cache_dir=None,
    worker_id: str | None = None,
    lease: float = 60.0,
    poll_interval: float = 0.2,
    max_tasks: int | None = None,
    idle_exit: float | None = None,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    retry: RetryPolicy | None = None,
    heartbeat_max_misses: int = 5,
    trace=None,
    trace_rotate_mb: float | None = None,
    stats: WorkerStats | None = None,
    observer=None,
) -> WorkerStats:
    """Claim-and-run tasks until stopped; return lifetime counters.

    Parameters
    ----------
    broker:
        A broker instance or URL (``fs://`` or a bare directory path).
    cache / cache_dir:
        The worker-local artifact cache, or the shared on-disk store
        directory to back a fresh one with (the fleet's result tier).
    worker_id:
        Fleet-unique name; default ``<hostname>-<pid>``.
    lease:
        Visibility timeout per claim; a heartbeat thread renews it at
        ``lease/3`` while a task runs.
    poll_interval:
        Idle sleep between empty claim attempts.
    max_tasks:
        Stop after this many completed tasks (``None`` = unbounded).
    idle_exit:
        Stop after this many seconds without work (``None`` = never).
    max_attempts:
        Delivery budget before an undeliverable task is quarantined.
    retry:
        The :class:`~repro.service.resilience.RetryPolicy` used for the
        broker claim and complete calls (default: 3 attempts seeded by
        the worker id, so concurrent workers desynchronize their
        backoff).  Exhausted retries never kill the loop — a failed
        claim round just polls again, a failed complete leaves the
        lease to expire and the task to be redelivered.
    heartbeat_max_misses:
        Consecutive heartbeat failures before the lease is failed fast
        (renewal stops; the task is redelivered after lease expiry).
    trace:
        Optional trace file path or
        :class:`~repro.obs.trace.TraceWriter` — the loop then records
        ``claimed`` / ``retry`` / ``heartbeat`` / ``released`` /
        ``quarantined`` / ``requeued`` / ``done`` events and a final
        ``worker_exit`` carrying the full :class:`WorkerStats` (so
        ``repro doctor`` can attribute lease losses per worker even
        when stdout is lost).
    trace_rotate_mb:
        When ``trace`` is a path, rotate the trace file past this many
        megabytes (``None`` = never; ignored when a ready-made writer
        is passed — set ``rotate_mb`` on the writer instead).
    stats:
        Optional externally-owned :class:`WorkerStats` the loop counts
        into — the hook the ``repro worker --metrics-port`` sidecar
        scrapes live counters through while the loop runs.
    observer:
        Optional ``observer(outcome, seconds)`` callback fired after
        each completed task (``outcome`` is ``"ok"`` or ``"error"``) —
        how ``repro worker --metrics-port`` feeds its
        ``repro_job_duration_seconds`` histogram and
        ``repro_jobs_total`` counters per event instead of per scrape.
        Exceptions from the observer are swallowed.

    The loop exits on: broker stop flag, ``max_tasks``, ``idle_exit``,
    ``KeyboardInterrupt``, or — when running in a process main thread —
    SIGTERM/SIGINT.  Signals drain gracefully: the current job runs to
    completion and is completed on the broker, affinity holds are
    released, and the final ``worker_exit`` trace event is written,
    instead of dying mid-lease and costing the fleet a redelivery.
    """
    owns_broker = isinstance(broker, str)
    if owns_broker:
        broker = connect_broker(broker)
    if cache is None:
        cache = ArtifactCache(disk_dir=cache_dir)
    if stats is None:
        stats = WorkerStats(worker=worker_id or default_worker_id())
    elif not stats.worker:
        stats.worker = worker_id or default_worker_id()
    tracer = as_tracer(trace, worker=stats.worker, rotate_mb=trace_rotate_mb)
    if tracer is not None and getattr(cache, "tracer", None) is None:
        cache.tracer = tracer
    if retry is None:
        retry = RetryPolicy(
            attempts=3, base_delay=poll_interval, seed=stats.worker
        )

    def count_broker_error(exc, attempt=0, op="claim"):
        stats.broker_errors += 1
        if tracer is not None:
            tracer.emit(
                "retry", op=op, attempt=attempt,
                cause=f"{type(exc).__name__}: {exc}",
            )

    def count_heartbeat_error(exc):
        stats.heartbeat_errors += 1
        if tracer is not None:
            tracer.emit("heartbeat", error=f"{type(exc).__name__}: {exc}")

    # Graceful drain on SIGTERM/SIGINT: the handler only raises a flag
    # checked at the loop top, so the in-flight job finishes, completes
    # on the broker, and the finally block below still releases
    # affinity holds and writes the final worker_exit event.  Signals
    # can only be trapped from a process main thread (tests run
    # worker_loop on helper threads) — elsewhere the loop still exits
    # via the broker stop flag or KeyboardInterrupt.
    drain = {"signal": None}
    previous_handlers = {}

    def _request_drain(signum, frame):  # pragma: no cover - signal path
        drain["signal"] = signum

    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            previous_handlers[signum] = signal.signal(signum, _request_drain)
        except ValueError:
            break  # not the main thread; leave handlers untouched

    idle_since = time.time()
    try:
        while True:
            if drain["signal"] is not None or broker.stop_requested():
                break
            try:
                moved = broker.requeue_expired(max_attempts=max_attempts)
                stats.requeued += moved
                if moved and tracer is not None:
                    tracer.emit("requeued", count=moved, by="worker_sweep")
            except Exception:
                pass  # hygiene sweep only; claiming is the loop's job
            try:
                claim = retry.call(
                    broker.claim, stats.worker, lease,
                    key="claim", on_retry=count_broker_error,
                )
            except Exception:
                # A transient broker hiccup (NFS stall, brief
                # disk-full) must not kill the worker even past the
                # retry budget: back off one poll interval and start
                # a fresh claim round.
                stats.broker_errors += 1
                time.sleep(poll_interval)
                continue
            if claim is None:
                if idle_exit is not None and time.time() - idle_since >= idle_exit:
                    break
                time.sleep(poll_interval)
                continue
            idle_since = time.time()
            # Deserialize before the claimed event so a job payload's
            # span context (minted at submit, carried in the pickle)
            # lands on every event of this claim; poison is remembered
            # and handled under the heartbeat below.
            work, poison = None, None
            try:
                work = decode_claimed_payload(claim)
            except _PoisonPayload as exc:
                poison = exc
            trace_id = (
                getattr(work, "trace_id", None)
                if claim.envelope.kind == "job"
                else None
            )
            submit_span = getattr(work, "span_id", None) if trace_id else None
            claim_span = new_span_id() if trace_id else None
            if tracer is not None:
                tracer.emit(
                    "claimed",
                    task_id=claim.envelope.task_id,
                    kind=claim.envelope.kind,
                    attempt=claim.envelope.attempts,
                    affinity=claim.envelope.affinity,
                    trace_id=trace_id,
                    span_id=claim_span,
                    parent_span=submit_span,
                )
            task_started = time.perf_counter()
            with _Heartbeat(
                broker, claim, lease,
                on_error=count_heartbeat_error,
                max_misses=heartbeat_max_misses,
            ) as beat:
                if poison is None:
                    with span_scope(trace_id, claim_span):
                        payload, ok = run_claimed_task(
                            claim, cache, stats.worker, work=work
                        )
                else:
                    # A payload that does not deserialize may be a
                    # transient corruption (bit-flip in flight) rather
                    # than a poisonous manifest row: while delivery
                    # attempts remain, hand it back for redelivery and
                    # only quarantine once the budget is spent (or the
                    # broker does not support voluntary release).
                    released = False
                    if claim.envelope.attempts + 1 < max_attempts:
                        try:
                            released = broker.release(claim)
                        except Exception:
                            stats.broker_errors += 1
                    if released:
                        stats.released += 1
                        if tracer is not None:
                            tracer.emit(
                                "released",
                                task_id=claim.envelope.task_id,
                                attempt=claim.envelope.attempts,
                                reason=str(poison),
                            )
                        continue
                    try:
                        broker.quarantine(claim, str(poison))
                    except Exception:
                        stats.broker_errors += 1
                    stats.quarantined += 1
                    if tracer is not None:
                        tracer.emit(
                            "quarantined",
                            task_id=claim.envelope.task_id,
                            attempt=claim.envelope.attempts,
                            reason=str(poison),
                        )
                    continue
            if tracer is not None and beat.lost:
                tracer.emit(
                    "heartbeat",
                    task_id=claim.envelope.task_id,
                    error="lease lost (heartbeat fail-fast)",
                    misses=beat.misses,
                    trace_id=trace_id,
                    parent_span=claim_span,
                )
            try:
                fresh = retry.call(
                    broker.complete, claim, payload,
                    key="complete",
                    on_retry=lambda exc, attempt: count_broker_error(
                        exc, attempt, op="complete"
                    ),
                )
            except Exception:
                # A computed result is too expensive to discard over a
                # failed write, but the retry budget is spent: the
                # lease lapses and the task is redelivered to another
                # worker.
                stats.broker_errors += 1
                continue
            if not fresh:
                stats.stale_completions += 1
            if ok:
                stats.completed += 1
            else:
                stats.failed += 1
            if observer is not None:
                try:
                    observer(
                        "ok" if ok else "error",
                        time.perf_counter() - task_started,
                    )
                except Exception:
                    pass
            if tracer is not None:
                tracer.emit(
                    "done",
                    task_id=claim.envelope.task_id,
                    kind=claim.envelope.kind,
                    attempt=claim.envelope.attempts,
                    seconds=time.perf_counter() - task_started,
                    ok=ok,
                    stale=not fresh,
                    trace_id=trace_id,
                    parent_span=claim_span,
                )
            if max_tasks is not None and stats.completed >= max_tasks:
                break
            idle_since = time.time()
    except KeyboardInterrupt:
        pass
    finally:
        for signum, handler in previous_handlers.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, TypeError):
                pass
        # Hand owned logs back so queued same-log tasks are not stalled
        # until the (long) affinity ownership lease expires.
        try:
            broker.release_affinities(stats.worker)
        except Exception:
            pass
        stats.cache = cache.snapshot()
        if tracer is not None:
            # The exit stats used to be print-only and lost with stdout;
            # persisting them lets the doctor attribute lease losses
            # (heartbeat_errors/released/broker_errors) per worker.
            tracer.emit(
                "worker_exit",
                stats=stats.as_dict(),
                drained_by=(
                    signal.Signals(drain["signal"]).name
                    if drain["signal"] is not None
                    else None
                ),
            )
        if owns_broker:
            broker.close()
    return stats


def spawn_worker_process(
    broker_url: str,
    cache_dir=None,
    lease: float = 60.0,
    poll_interval: float = 0.05,
    mp_context: str | None = None,
    trace: str | None = None,
    trace_rotate_mb: float | None = None,
):
    """Start a local :func:`worker_loop` in a child process.

    The executor uses this to make ``repro batch --broker URL`` /
    ``DistributedExecutor(workers=N)`` self-contained; remote hosts
    join the same broker with ``repro worker --broker URL`` instead.
    ``trace`` is a shared trace file path — the child opens its own
    line-atomic writer on it.  Returns the started
    :class:`multiprocessing.Process`.
    """
    import multiprocessing

    if mp_context is None:
        methods = multiprocessing.get_all_start_methods()
        mp_context = "fork" if "fork" in methods else "spawn"
    context = multiprocessing.get_context(mp_context)
    process = context.Process(
        target=_worker_process_main,
        args=(broker_url, str(cache_dir) if cache_dir is not None else None,
              lease, poll_interval, trace, trace_rotate_mb),
        daemon=True,
    )
    process.start()
    return process


def _worker_process_main(
    broker_url: str,
    cache_dir: str | None,
    lease: float,
    poll_interval: float,
    trace: str | None = None,
    trace_rotate_mb: float | None = None,
) -> None:
    worker_loop(
        broker_url, cache_dir=cache_dir, lease=lease,
        poll_interval=poll_interval, trace=trace,
        trace_rotate_mb=trace_rotate_mb,
    )
