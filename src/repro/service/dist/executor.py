"""``DistributedExecutor``: the executor protocol over a broker queue.

Same contract as :class:`~repro.service.executor.PoolExecutor` and
:class:`~repro.service.executor.SequentialExecutor` — ``submit`` /
``submit_call`` / ``map`` / ``stats`` / ``shutdown``, future-like
handles, priorities, bounded-queue backpressure, in-flight request
coalescing — but the workers are **processes anywhere**: local children
spawned by the executor (``workers=N``), and/or remote ``repro worker
--broker URL`` loops on other hosts, all draining one
:class:`~repro.service.dist.broker.Broker`.  The submit front door and
completion bookkeeping are the pool's (one dispatch core); this module
is only the broker transport.

The parent side never blocks a thread per task: ``submit`` pickles the
job into the broker, a single poller thread watches for result
envelopes and completes the handles, and the shared on-disk
:class:`~repro.service.cache.ArtifactCache` store (``disk_dir``) gives
the whole fleet one persistent result tier.  Affinity keys (the job's
artifact log prefix, digested) ride on every envelope so brokers route
the jobs on one log to the worker that first claimed it while that
worker is free, and let an idle worker steal them while it is busy —
the in-process pool's work-conserving, cache-aware rule, with at most
one artifact build per (worker, log).

Fault tolerance is inherited from the broker contract: a worker that
dies mid-job stops heartbeating, the poller's periodic
``requeue_expired`` sweep redelivers the task to a surviving worker,
and a task that keeps killing workers is quarantined with an error
result after ``max_attempts`` deliveries (the awaiting handle raises
instead of hanging).
"""

from __future__ import annotations

import pickle
import threading
import time

from repro.exceptions import ReproError
from repro.service import fingerprint as fp
from repro.service.cache import ArtifactCache
from repro.service.dist.broker import (
    DEFAULT_MAX_ATTEMPTS,
    Broker,
    TaskEnvelope,
    connect_broker,
    decode_result,
    new_task_id,
)
from repro.service.dist.worker import spawn_worker_process
from repro.service.executor import _DispatchCore, _Task, job_prefix
from repro.service.jobs import AbstractionJob
from repro.service.resilience import AdmissionController


def job_affinity_key(job: AbstractionJob) -> str:
    """Digest the job's artifact log prefix into a broker affinity key.

    Jobs sharing a key share their expensive per-log artifacts; brokers
    prefer the key's owner for them, so the fleet builds each log's
    artifacts at most once per worker (the distributed twin of the
    pool's prefix routing).
    """
    return fp.digest_text("|".join(str(part) for part in job_prefix(job)))[:16]


class DistributedExecutor(_DispatchCore):
    """Executor over a broker-backed, possibly multi-host worker fleet.

    Parameters
    ----------
    broker:
        A broker URL (``fs:///shared/dir`` or a bare path) or a
        connected :class:`~repro.service.dist.broker.Broker` instance.
    workers:
        Local worker processes to spawn against the broker (0 = rely
        on external ``repro worker`` processes entirely).
    cache:
        Parent-side :class:`ArtifactCache`; repeat submissions are
        served from it without touching the broker.
    disk_dir:
        Shared on-disk store directory — the fleet's persistent result
        tier.  Pass the same directory to every worker (``repro worker
        --cache-dir``); locally spawned workers inherit it.
    lease:
        Visibility timeout for claims; workers heartbeat at a third of
        it, and tasks of dead workers are requeued once it lapses.
    poll_interval:
        Parent-side result polling cadence (also the spawned workers'
        idle claim cadence).
    max_pending:
        Bound on queued-plus-running tasks; ``submit`` blocks once the
        bound is reached (backpressure towards producers).
    max_attempts:
        Delivery budget per task before it is quarantined.
    max_load / admission:
        Admission control (see :mod:`repro.service.resilience`), same
        contract as the pool's: past ``max_load`` in-flight tasks, the
        lowest-priority job is shed with a typed
        :class:`~repro.service.resilience.Overloaded` failure (the
        incoming job itself when nothing in flight ranks below it);
        ``admission`` supplies per-tenant token-bucket quotas.  A shed
        job's broker task is orphaned — its (discarded) result is
        reclaimed by the broker's stale-result sweep.  Generic calls
        are exempt.
    trace:
        A JSONL trace path (shared with spawned workers, who open their
        own writers on it) or a :class:`~repro.obs.trace.TraceWriter`.
    """

    def __init__(
        self,
        broker: "Broker | str",
        workers: int = 0,
        cache: ArtifactCache | None = None,
        disk_dir=None,
        lease: float = 60.0,
        poll_interval: float = 0.05,
        max_pending: int | None = None,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        max_load: int | None = None,
        admission: AdmissionController | None = None,
        trace=None,
    ):
        if workers < 0:
            raise ReproError(f"workers must be >= 0, got {workers}")
        super().__init__(
            cache, disk_dir, max_pending, max_load, admission, trace,
            tracer_name="dist-executor",
        )
        self._owns_broker = isinstance(broker, str)
        self.broker = connect_broker(broker) if self._owns_broker else broker
        self.lease = lease
        self.poll_interval = poll_interval
        self.max_attempts = max_attempts
        self._last_requeue = 0.0
        self._requeues = 0
        self._processes = []
        if workers:
            if not self.broker.url:
                raise ReproError(
                    "spawning local workers needs a broker with a URL "
                    "(construct the executor from a broker URL)"
                )
            self.broker.clear_stop()
            self._processes = [
                spawn_worker_process(
                    self.broker.url,
                    cache_dir=disk_dir,
                    lease=lease,
                    poll_interval=poll_interval,
                    trace=getattr(self.tracer, "path", None),
                    trace_rotate_mb=getattr(self.tracer, "rotate_mb", None),
                )
                for _ in range(workers)
            ]
        self._poller = threading.Thread(target=self._poll_loop, daemon=True)
        self._poller.start()

    # -- transport ---------------------------------------------------------

    def _prepare(self, task: _Task) -> None:
        job = task.job
        task.envelope = TaskEnvelope(
            task_id=new_task_id(),
            kind=task.kind,
            payload=pickle.dumps(task.payload),
            priority=task.priority,
            affinity=job_affinity_key(job) if job is not None else None,
        )

    def _launch(self, task: _Task) -> None:
        """Hand the envelope to the broker; a failed put unregisters and raises."""
        with self._lock:
            if task.seq not in self._tasks:  # shed or shut down meanwhile
                return
        try:
            self.broker.put(task.envelope)
        except Exception as exc:
            # Fail the handle too, so jobs coalesced onto it never hang.
            self._release(task)
            task.handle._fail(exc)
            raise
        job = task.job
        if job is not None and self.tracer is not None:
            self.tracer.emit(
                "queued",
                fingerprint=task.handle.fingerprint,
                task_id=task.envelope.task_id,
                priority=task.priority,
                affinity=task.envelope.affinity,
                trace_id=job.trace_id,
                parent_span=job.span_id,
            )

    def _poll_loop(self) -> None:
        while True:
            with self._lock:
                if self._closed:
                    return
                pending = list(self._tasks.values())
            progressed = False
            for task in pending:
                task_id = task.envelope.task_id
                try:
                    payload = self.broker.get_result(task_id)
                except Exception:
                    payload = None
                if payload is None:
                    # Deadline fail-fast: an expired job never hangs its
                    # awaiter, even with zero workers on the broker.  A
                    # result that *did* arrive in budget is delivered
                    # normally below.
                    deadline_at = task.job.deadline_at if task.job is not None else None
                    if deadline_at is not None and time.time() >= deadline_at:
                        self._expire(
                            task, "awaiting_result",
                            "deadline exceeded awaiting distributed result "
                            f"for task {task_id[:12]}",
                            task_id=task_id,
                        )
                        progressed = True
                    continue
                progressed = True
                try:
                    self.broker.forget_result(task_id)
                except Exception:
                    pass
                if self._release(task):
                    self._deliver_record(task, payload)
            now = time.time()
            if now - self._last_requeue >= max(self.lease / 2.0, 0.05):
                self._last_requeue = now
                try:
                    moved = self.broker.requeue_expired(
                        max_attempts=self.max_attempts
                    )
                    self._requeues += moved
                    if moved and self.tracer is not None:
                        self.tracer.emit("requeued", count=moved, by="executor_sweep")
                except Exception:
                    pass
            if not progressed:
                time.sleep(self.poll_interval)

    def _deliver_record(self, task: _Task, payload: bytes) -> None:
        """Turn one result envelope into a handle completion/failure."""
        try:
            record = decode_result(payload)
        except Exception as exc:
            self._deliver(
                task, error=ReproError(f"broker returned an undecodable result: {exc}")
            )
            return
        worker = record.get("worker") or "?"
        if record.get("worker_stats"):
            self._record_worker(worker, record["worker_stats"])
        error = None
        if not record["ok"]:
            error = record.get("exception")
            if error is None:
                error = ReproError(str(record.get("error") or "task failed"))
        job = task.job
        if self.tracer is not None:
            self.tracer.emit(
                "done",
                fingerprint=task.handle.fingerprint if job is not None else None,
                kind=task.kind,
                cached=bool(record.get("cached")),
                by=worker,
                error=(
                    None
                    if record["ok"]
                    else str(record.get("error") or "task failed")
                ),
                trace_id=job.trace_id if job is not None else None,
                parent_span=job.span_id if job is not None else None,
            )
        self._deliver(task, record.get("value"), bool(record.get("cached")), error)

    # -- introspection / lifecycle ----------------------------------------

    def _scheduler_stats_locked(self) -> dict:
        return {
            "inflight": len(self._tasks),
            "requeues": self._requeues,
            "local_workers": len(self._processes),
        }

    def stats(self) -> dict:
        """Parent cache + broker depth + latest per-worker snapshots."""
        stats = super().stats()
        try:
            stats["broker"] = self.broker.stats()
        except Exception as exc:
            # An unreachable broker must not look like an idle one:
            # surface the failure as a string instead of empty depths.
            stats["broker"] = {"broker_error": f"{type(exc).__name__}: {exc}"}
        return stats

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work; stop spawned workers; fail leftovers.

        Locally spawned workers are stopped via the broker's
        cooperative stop flag (briefly visible to external workers on
        the same broker) and terminated if they do not exit in time.
        Handles still in flight fail with a shutdown error rather than
        hanging forever.
        """
        if not self._close():
            return
        if self._processes:
            try:
                self.broker.request_stop()
            except Exception:
                pass
            deadline = time.time() + (10.0 if wait else 0.5)
            for process in self._processes:
                process.join(timeout=max(0.0, deadline - time.time()))
            for process in self._processes:
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=2.0)
            try:
                self.broker.clear_stop()
            except Exception:
                pass
        if wait:
            self._poller.join(timeout=5.0)
        if self._owns_broker:
            self.broker.close()
