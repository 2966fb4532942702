"""Executors: the submit/poll/await runtime over the artifact cache.

Two interchangeable executors run :class:`~repro.service.jobs.AbstractionJob`
objects:

* :class:`SequentialExecutor` — deterministic, in-process; jobs run at
  submit time.  The reference for tests and the ``--sequential`` CLI
  path.
* :class:`PoolExecutor` — a ``multiprocessing`` worker pool with
  priorities, a bounded pending queue for backpressure, and per-worker
  artifact reuse: each worker process keeps its own
  :class:`~repro.service.cache.ArtifactCache` so the per-log artifacts
  are built at most once per (worker, log) and every further job on
  that log pays only the constraint-dependent work.

The pool and :class:`~repro.service.dist.executor.DistributedExecutor`
share one dispatch core (:class:`_DispatchCore`): the submit front door
(parent-cache hits, tenant quotas, ``max_load`` shedding, coalescing,
``max_pending`` backpressure) and completion bookkeeping.  Each keeps
only its transport — here, a priority heap feeding per-worker
sub-pools.

The pool schedules **cache-aware and work-conserving**: each worker is
its own single-process sub-pool, and jobs are routed by their artifact
prefix (:func:`job_prefix`).  The top queued task always runs as soon
as a worker is free: the first job on a log claims the least-claimed
free worker, a later job goes to that owner when it is free, and to
the least-claimed free worker when the owner is busy (a *steal*, which
leaves the prefix with its owner).  An idle worker therefore never
waits behind a busy one, at the price of at most one artifact build
per (worker, log).  A worker whose process dies is replaced by a fresh
one that owns no prefix.  The ``scheduler`` block of
:meth:`PoolExecutor.stats` counts the routing.

Both executors also accept generic work via ``submit_call``: the
function runs with the executor's cache injected as a ``cache`` keyword
(the worker-local cache in the pool), which is how
:func:`repro.selection2.select_decomposed` fans component solves out
over the same machinery.

Both share :func:`run_job`, which implements the cache discipline: full
fingerprint → finished result; log prefix → shared per-log artifacts;
selection tier → solved Step-2 components; otherwise compute, then
populate the tiers.  Handles returned by ``submit``/``submit_call`` are
future-like (``done()`` to poll, ``result()`` to await).
"""

from __future__ import annotations

import functools
import heapq
import itertools
import multiprocessing
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from repro.constraints.aggregates import clear_extraction_cache
from repro.core.gecco import AbstractionResult, Gecco, prepare_artifacts, resolve_engine
from repro.exceptions import ReproError
from repro.obs.trace import (
    as_tracer,
    child_span_id,
    new_span_id,
    new_trace_id,
    span_scope,
)
from repro.service.cache import ArtifactCache
from repro.service.jobs import AbstractionJob
from repro.service.resilience import AdmissionController, DeadlineExceeded, Overloaded


def mint_submit_span(job: AbstractionJob, tracer) -> None:
    """Open the root span of one submit on a tracing executor.

    The trace id is minted once per job and survives re-submission
    (degrading fallback re-submits the same object to a lower tier, so
    both attempts share one trace); the span id is re-minted per
    submit, making each tier's lifecycle its own root span.  Without a
    tracer the job stays span-free and the whole trace keeps the
    pre-span format.
    """
    if tracer is None:
        return
    if job.trace_id is None:
        job.trace_id = new_trace_id()
    job.span_id = new_span_id()


def run_job(
    job: AbstractionJob, cache: ArtifactCache, tracer=None
) -> tuple[AbstractionResult, bool]:
    """Run one job against a cache; return ``(result, from_cache)``.

    The cache discipline of the whole runtime lives here:

    1. a full-fingerprint hit serves the finished result directly;
    2. otherwise the per-log artifacts are looked up under the
       fingerprint's log prefix and built (once) on a miss;
    3. the pipeline consults the cache's selection tier for solved
       Step-2 components (decomposed mode);
    4. the freshly computed result is stored under the full fingerprint.

    A job with a :attr:`~repro.service.jobs.AbstractionJob.deadline_ms`
    budget is checked at the stage boundaries (start, artifact build,
    and inside the pipeline) and raises
    :class:`~repro.service.resilience.DeadlineExceeded` once expired —
    outputs are never degraded to fit the budget, so whatever result is
    produced stays byte-identical to the unbudgeted run.

    ``tracer`` (a :class:`~repro.obs.trace.TraceWriter`, or the cache's
    own ``tracer`` attribute when omitted) records ``artifact_build``,
    ``solve``, and ``deadline_exceeded`` events; tracing observes
    timings only and never alters the computation.
    """
    if tracer is None:
        tracer = getattr(cache, "tracer", None)
    deadline = job.deadline()
    if deadline is not None and deadline.expired():
        if tracer is not None:
            tracer.emit("deadline_exceeded", stage="job start")
        deadline.check("job start")
    fingerprint = job.fingerprint()
    hit = cache.get_result(fingerprint.full)
    if hit is not None:
        return hit, True
    config = job.config
    engine = resolve_engine(config.engine)
    key = fingerprint.artifact_key(config.instance_policy, engine)
    artifacts = cache.get_artifacts(key)
    if artifacts is None:
        if deadline is not None and deadline.expired():
            if tracer is not None:
                tracer.emit(
                    "deadline_exceeded",
                    fingerprint=fingerprint.full,
                    stage="artifact build",
                )
            deadline.check("artifact build")
        log = job.log.resolve()
        build_started = time.perf_counter()
        artifacts = prepare_artifacts(log, config)
        if tracer is not None:
            tracer.emit(
                "artifact_build",
                fingerprint=fingerprint.full,
                seconds=time.perf_counter() - build_started,
                span_id=child_span_id(),
            )
        cache.put_artifacts(key, artifacts)
        cache.count_artifact_build()
    else:
        # Reuse the log the artifacts were built from — content-equal
        # by construction (the prefix key contains the log digest), and
        # it keeps one set of warmed per-log caches per worker.
        log = artifacts.log
    try:
        solve_started = time.perf_counter()
        result = Gecco(job.constraints, config).abstract(
            log, artifacts, selection_cache=cache, deadline=deadline
        )
        if tracer is not None:
            timings = result.timings
            tracer.emit(
                "solve",
                fingerprint=fingerprint.full,
                seconds=time.perf_counter() - solve_started,
                span_id=child_span_id(),
                timings={
                    "candidates": timings.candidates,
                    "exclusive": timings.exclusive,
                    "selection": timings.selection,
                    "abstraction": timings.abstraction,
                },
                engine=result.engine,
                num_candidates=result.num_candidates,
                selection_stats=(
                    result.selection_stats.as_dict()
                    if result.selection_stats is not None
                    else None
                ),
                exclusive_stats=(
                    result.exclusive_stats.counters()
                    if result.exclusive_stats is not None
                    else None
                ),
            )
        cache.put_result(fingerprint.full, result)
    except DeadlineExceeded as exc:
        if tracer is not None:
            tracer.emit(
                "deadline_exceeded", fingerprint=fingerprint.full, stage=str(exc)
            )
        raise
    finally:
        # The python-engine aggregate memo pins instance event lists;
        # drop them at the job boundary — failed jobs included — so
        # retired logs don't accumulate in long-lived workers.
        clear_extraction_cache()
    return result, False


class JobHandle:
    """Future-like handle of one submitted job (poll or await)."""

    __slots__ = (
        "job",
        "fingerprint",
        "cached",
        "_event",
        "_result",
        "_error",
        "_lock",
        "_followers",
    )

    def __init__(self, job: AbstractionJob, fingerprint: str):
        self.job = job
        self.fingerprint = fingerprint
        #: Whether the result came from a cache (or a coalesced
        #: in-flight computation); ``None`` until done.
        self.cached: bool | None = None
        self._event = threading.Event()
        self._result: AbstractionResult | None = None
        self._error: BaseException | None = None
        self._lock = threading.Lock()
        self._followers: list["JobHandle"] = []

    def done(self) -> bool:
        """Poll: has the job finished (successfully or not)?"""
        return self._event.is_set()

    def result(self, timeout: float | None = None) -> AbstractionResult:
        """Await the result, re-raising any worker-side failure."""
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"job {self.job.job_id or self.fingerprint[:12]} did not "
                f"finish within {timeout}s"
            )
        if self._error is not None:
            raise self._error
        return self._result

    def _attach(self, follower: "JobHandle") -> None:
        """Coalesce ``follower`` onto this in-flight computation."""
        with self._lock:
            if not self._event.is_set():
                self._followers.append(follower)
                return
        # Already finished — mirror the outcome immediately.
        if self._error is not None:
            follower._fail(self._error)
        else:
            follower._complete(self._result, True)

    def _complete(self, result: AbstractionResult, cached: bool) -> None:
        with self._lock:
            self._result = result
            self.cached = cached
            self._event.set()
            followers, self._followers = self._followers, []
        for follower in followers:
            follower._complete(result, True)

    def _fail(self, error: BaseException) -> None:
        with self._lock:
            self._error = error
            self._event.set()
            followers, self._followers = self._followers, []
        for follower in followers:
            follower._fail(error)


class CallHandle:
    """Future-like handle of one generic ``submit_call`` task."""

    __slots__ = ("label", "_event", "_value", "_error")

    def __init__(self, label: str = "call"):
        self.label = label
        self._event = threading.Event()
        self._value = None
        self._error: BaseException | None = None

    def done(self) -> bool:
        """Poll: has the call finished (successfully or not)?"""
        return self._event.is_set()

    def result(self, timeout: float | None = None):
        """Await the call's return value, re-raising its failure."""
        if not self._event.wait(timeout):
            raise TimeoutError(f"call {self.label} did not finish within {timeout}s")
        if self._error is not None:
            raise self._error
        return self._value

    def _complete(self, value, cached: bool = False) -> None:
        del cached  # call results have no cache provenance
        self._value = value
        self._event.set()

    def _fail(self, error: BaseException) -> None:
        self._error = error
        self._event.set()


def _fingerprinted_handle(job: AbstractionJob) -> JobHandle:
    """Build a job's handle, failing it when fingerprinting fails.

    Fingerprinting resolves and digests the log, so an unreadable log
    file surfaces here; submit never raises for a bad job — the error
    is delivered through the handle like any worker-side failure.
    """
    try:
        return JobHandle(job, job.fingerprint().full)
    except Exception as exc:
        handle = JobHandle(job, "invalid")
        handle._fail(exc)
        return handle


def job_prefix(job: AbstractionJob) -> tuple:
    """The job's artifact-cache log prefix: its routing key.

    Jobs sharing a prefix share their expensive per-log artifacts.  The
    pool routes on it directly; the distributed executor digests it into
    a broker affinity key.
    """
    config = job.config
    engine = resolve_engine(config.engine, warn=False)
    return job.fingerprint().artifact_key(config.instance_policy, engine)


class SequentialExecutor:
    """Deterministic in-process executor (jobs run at submit time)."""

    def __init__(self, cache: ArtifactCache | None = None, tracer=None):
        self.cache = cache if cache is not None else ArtifactCache()
        self.tracer = tracer
        if tracer is not None and getattr(self.cache, "tracer", None) is None:
            self.cache.tracer = tracer

    def submit(self, job: AbstractionJob, priority: int | None = None) -> JobHandle:
        """Run ``job`` now; the returned handle is already done."""
        handle = _fingerprinted_handle(job)
        if handle.done():  # fingerprinting failed (e.g. unreadable log)
            return handle
        tracer = self.tracer
        mint_submit_span(job, tracer)
        if tracer is not None:
            tracer.emit(
                "submitted",
                fingerprint=handle.fingerprint,
                kind="job",
                trace_id=job.trace_id,
                span_id=job.span_id,
            )
        started = time.perf_counter()
        try:
            with span_scope(job.trace_id, job.span_id):
                result, cached = run_job(job, self.cache, tracer=tracer)
        except Exception as exc:
            if tracer is not None:
                tracer.emit(
                    "done",
                    fingerprint=handle.fingerprint,
                    seconds=time.perf_counter() - started,
                    error=f"{type(exc).__name__}: {exc}",
                    trace_id=job.trace_id,
                    parent_span=job.span_id,
                )
            handle._fail(exc)
        else:
            if tracer is not None:
                tracer.emit(
                    "done",
                    fingerprint=handle.fingerprint,
                    seconds=time.perf_counter() - started,
                    cached=cached,
                    trace_id=job.trace_id,
                    parent_span=job.span_id,
                )
            handle._complete(result, cached)
        return handle

    def submit_call(self, fn, *args, priority: int | None = None, **kwargs) -> CallHandle:
        """Run ``fn(*args, cache=self.cache, **kwargs)`` now.

        The generic-task twin of :meth:`submit`: the executor's cache is
        injected as the ``cache`` keyword, mirroring what pool workers
        do with their worker-local caches.
        """
        del priority  # sequential: everything runs immediately
        handle = CallHandle(getattr(fn, "__name__", "call"))
        try:
            value = fn(*args, cache=self.cache, **kwargs)
        except Exception as exc:
            handle._fail(exc)
        else:
            handle._complete(value)
        return handle

    def map(self, jobs) -> list[AbstractionResult]:
        """Run jobs in order; return their results."""
        return [self.submit(job).result() for job in jobs]

    def stats(self) -> dict:
        """Cache counters (mirrors :meth:`PoolExecutor.stats`)."""
        return {"parent": self.cache.snapshot(), "workers": {}}

    def shutdown(self, wait: bool = True) -> None:
        """No-op, for API parity with the pool."""

    def __enter__(self) -> "SequentialExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


# -- worker-process side ----------------------------------------------------

#: The per-worker cache; living at module level so it survives across
#: jobs dispatched to the same worker process.
_WORKER_CACHE: ArtifactCache | None = None


def _pool_worker_init(
    max_artifacts: int,
    max_results: int,
    disk_dir: str | None,
    trace_path: str | None = None,
    trace_rotate_mb: float | None = None,
):
    global _WORKER_CACHE
    _WORKER_CACHE = ArtifactCache(
        max_artifacts=max_artifacts, max_results=max_results, disk_dir=disk_dir
    )
    if trace_path is not None:
        from repro.obs.trace import TraceWriter

        # The O_APPEND discipline makes one shared file safe across all
        # pool workers and the parent; run_job picks the tracer up from
        # the cache attribute.  Rotation is inode-checked, so any of
        # the writers may rotate and the others follow.
        _WORKER_CACHE.tracer = TraceWriter(
            trace_path, worker=f"pool-{os.getpid()}", rotate_mb=trace_rotate_mb
        )


def _pool_worker_run(job: AbstractionJob, claim_span: str | None = None):
    cache = _WORKER_CACHE
    if cache is None:  # pragma: no cover - initializer always runs
        raise ReproError("worker cache was not initialized")
    # The claim span (minted parent-side when the job was dispatched)
    # becomes ambient, so the worker's stage and cache events nest
    # under it even though they're emitted in another process.
    with span_scope(job.trace_id, claim_span or job.span_id):
        result, cached = run_job(job, cache)
    return result, cached, os.getpid(), cache.snapshot()


def _pool_worker_call(fn, args, kwargs):
    cache = _WORKER_CACHE
    if cache is None:  # pragma: no cover - initializer always runs
        raise ReproError("worker cache was not initialized")
    value = fn(*args, cache=cache, **kwargs)
    return value, os.getpid(), cache.snapshot()


#: Task kinds.
_KIND_JOB, _KIND_CALL = "job", "call"


@dataclass(eq=False)
class _Task:
    """One job or generic call registered with a dispatch core."""

    kind: str
    handle: object
    #: The job, or a call's ``(fn, args, kwargs)``.
    payload: object
    priority: int = 0
    #: Registration order: among equal priorities the earlier task ranks
    #: first, and the later one is shed first.
    seq: int = 0
    #: Set once a worker holds the task; started tasks are never shed,
    #: and shutdown lets them finish.
    started: bool = False
    #: Pool transport: the routing key (a job's artifact prefix).
    prefix: "tuple | None" = None
    #: Distributed transport: the broker envelope.
    envelope: object = None
    claimed_at: "float | None" = None
    claim_span: "str | None" = None

    @property
    def job(self) -> "AbstractionJob | None":
        return self.payload if self.kind == _KIND_JOB else None


class _DispatchCore:
    """The submit front door and bookkeeping of the parallel executors.

    The core serves parent-cache hits, applies tenant quotas and
    ``max_load`` shedding, coalesces identical in-flight jobs, blocks at
    ``max_pending``, and settles finished tasks.  All bounds are
    checked, and a task is registered, in one critical section, so
    concurrent submitters can never overshoot them.  Shutdown fails
    every task no worker has started.

    A transport moves registered tasks to workers and back.  It
    implements :meth:`_prepare` (called without the lock; may be slow),
    :meth:`_launch` (called once the task is registered; emits
    ``queued``), :meth:`_scheduler_stats_locked` and ``shutdown``, and
    settles each task with :meth:`_release` then :meth:`_deliver`.
    """

    def __init__(self, cache, disk_dir, max_pending, max_load, admission, trace,
                 tracer_name: str):
        if max_pending is not None and max_pending < 1:
            raise ReproError(f"max_pending must be >= 1, got {max_pending}")
        self.cache = cache if cache is not None else ArtifactCache(disk_dir=disk_dir)
        if admission is None and max_load is not None:
            admission = AdmissionController(max_load=max_load)
        self.admission = admission
        # trace accepts a path (worker processes open their own O_APPEND
        # writers on it) or an existing parent-side TraceWriter.
        self.tracer = as_tracer(trace, worker=tracer_name)
        if self.tracer is not None and getattr(self.cache, "tracer", None) is None:
            self.cache.tracer = self.tracer
        self._max_pending = max_pending
        self._lock = threading.Lock()
        self._space = threading.Condition(self._lock)
        self._seq = itertools.count(1)
        #: seq -> every registered task, queued or running (the load).
        self._tasks: dict[int, _Task] = {}
        #: fingerprint -> primary in-flight handle (request coalescing).
        self._active: dict[str, JobHandle] = {}
        self._worker_stats: dict[str, dict] = {}
        self._closed = False

    # -- submission --------------------------------------------------------

    def submit(self, job: AbstractionJob, priority: int | None = None) -> JobHandle:
        """Enqueue ``job``; higher ``priority`` runs first.

        A parent cache hit completes the handle immediately, without
        occupying a slot or charging the tenant's quota; an identical
        in-flight job coalesces (one computation, many awaiters).
        Blocks while ``max_pending`` tasks are queued or running.

        With admission control configured, policy outcomes never raise
        from ``submit``: a shed job's handle fails with a typed
        :class:`~repro.service.resilience.Overloaded`, an expired job's
        with :class:`~repro.service.resilience.DeadlineExceeded`.
        """
        job.deadline()  # pin the absolute budget at submit time
        handle = _fingerprinted_handle(job)  # resolves/digests in the parent
        if handle.done():  # fingerprinting failed (e.g. unreadable log)
            return handle
        tracer = self.tracer
        mint_submit_span(job, tracer)
        if tracer is not None:
            tracer.emit(
                "submitted",
                fingerprint=handle.fingerprint,
                kind="job",
                trace_id=job.trace_id,
                span_id=job.span_id,
            )
        hit = self.cache.get_result(handle.fingerprint)
        if hit is not None:
            if tracer is not None:
                tracer.emit(
                    "done",
                    fingerprint=handle.fingerprint,
                    cached=True,
                    trace_id=job.trace_id,
                    parent_span=job.span_id,
                )
            handle._complete(hit, True)
            return handle
        if self.admission is not None and not self.admission.admit(job.tenant):
            self._shed(
                job, handle, "tenant_quota",
                f"tenant {job.tenant!r} is over its admission quota",
            )
            return handle
        task = _Task(_KIND_JOB, handle, job, job.priority if priority is None else priority)
        if self._register(task):
            self._launch(task)
        return handle

    def submit_call(self, fn, *args, priority: int = 0, **kwargs) -> CallHandle:
        """Enqueue a generic call; a worker runs it with its cache injected.

        ``fn`` must be picklable (a module-level function) and accept a
        ``cache`` keyword — the worker-local
        :class:`~repro.service.cache.ArtifactCache` is injected, which
        is how Step-2 component solves reuse each worker's selection
        tier.  Calls share the priority order and the backpressure
        bound with jobs but have no routing key (any free worker), and
        are never shed — shedding a Step-2 component solve would fail a
        job already admitted.
        """
        handle = CallHandle(getattr(fn, "__name__", "call"))
        task = _Task(_KIND_CALL, handle, (fn, args, kwargs), priority)
        if self._register(task):
            self._launch(task)
        return handle

    def map(self, jobs) -> list[AbstractionResult]:
        """Submit all jobs, await all results (submission order)."""
        handles = [self.submit(job) for job in jobs]
        return [handle.result() for handle in handles]

    def _register(self, task: _Task) -> bool:
        """Admit and register ``task``, checking every bound under one lock.

        Returns ``False`` when a job coalesced onto an in-flight twin or
        was shed itself.  Blocks while ``max_pending`` tasks are
        registered; raises :class:`ReproError` once shut down.
        """
        self._prepare(task)
        job = task.job
        max_load = (
            self.admission.max_load
            if job is not None and self.admission is not None
            else None
        )
        victims: list[_Task] = []
        try:
            with self._space:
                while True:
                    if self._closed:
                        raise ReproError("executor is shut down")
                    if job is not None:
                        primary = self._active.get(task.handle.fingerprint)
                        if primary is not None:
                            primary._attach(task.handle)
                            return False
                    if max_load is not None and len(self._tasks) >= max_load:
                        self.admission.count_load_shed()
                        victim = self._evict_lowest_locked(task.priority)
                        if victim is None:
                            break
                        victims.append(victim)
                    if self._max_pending is None or len(self._tasks) < self._max_pending:
                        task.seq = next(self._seq)
                        self._tasks[task.seq] = task
                        if job is not None:
                            self._active[task.handle.fingerprint] = task.handle
                        return True
                    self._space.wait()
        finally:
            for victim in victims:
                self._shed(
                    victim.payload, victim.handle, "max_load_evicted",
                    f"shed at max_load={max_load} by higher-priority submission",
                )
        self._shed(
            job, task.handle, "max_load", f"executor at max_load={max_load}; job shed"
        )
        return False

    def _evict_lowest_locked(self, rank: int) -> "_Task | None":
        """Unregister the lowest-priority waiting *job* ranking below ``rank``.

        The victim of a load shed: lowest priority, latest registered on
        ties.  Returns ``None`` when nothing waiting ranks strictly
        below ``rank`` (the incoming job is then the victim) — ties
        favor the registered job, keeping shed order deterministic.
        Generic calls and started tasks are never evicted.
        """
        victim = max(
            (
                task
                for task in self._tasks.values()
                if task.kind == _KIND_JOB and not task.started
            ),
            key=lambda task: (-task.priority, task.seq),
            default=None,
        )
        if victim is None or victim.priority >= rank:
            return None
        self._release_locked(victim)
        return victim

    def _shed(self, job: AbstractionJob, handle: JobHandle, cause: str,
              message: str) -> None:
        """Fail a job's handle with a typed :class:`Overloaded`."""
        if self.tracer is not None:
            self.tracer.emit(
                "shed",
                fingerprint=handle.fingerprint,
                cause=cause,
                trace_id=job.trace_id,
                parent_span=job.span_id,
            )
        handle._fail(Overloaded(message))

    # -- transport hooks ---------------------------------------------------

    def _prepare(self, task: _Task) -> None:
        """Attach transport data to a task about to register."""

    def _launch(self, task: _Task) -> None:
        """Start moving a registered task towards a worker."""
        raise NotImplementedError

    def _scheduler_stats_locked(self) -> dict:
        """The transport's ``scheduler`` block of :meth:`stats`."""
        raise NotImplementedError

    # -- completion --------------------------------------------------------

    def _release_locked(self, task: _Task) -> bool:
        """Unregister ``task``; ``False`` when something else already did."""
        if self._tasks.pop(task.seq, None) is None:
            return False
        if task.kind == _KIND_JOB:
            self._active.pop(task.handle.fingerprint, None)
        self._space.notify_all()
        return True

    def _release(self, task: _Task) -> bool:
        with self._space:
            return self._release_locked(task)

    def _deliver(self, task: _Task, value=None, cached: bool = False,
                 error: BaseException | None = None) -> None:
        """Settle a released task's handle; job results enter the parent cache."""
        if error is not None:
            task.handle._fail(error)
            return
        if task.kind == _KIND_JOB:
            try:
                self.cache.put_result(task.handle.fingerprint, value)
            except Exception:
                # Bookkeeping is best-effort: the computed result must
                # reach the awaiter even if parent-side caching fails.
                pass
        task.handle._complete(value, cached)

    def _expire(self, task: _Task, stage: str, message: str, **fields) -> None:
        """Fail a job whose deadline ran out before a worker finished it."""
        if not self._release(task):
            return
        job = task.payload
        if self.tracer is not None:
            self.tracer.emit(
                "deadline_exceeded",
                fingerprint=task.handle.fingerprint,
                stage=stage,
                trace_id=job.trace_id,
                parent_span=job.span_id,
                **fields,
            )
        task.handle._fail(DeadlineExceeded(message))

    def _record_worker(self, worker, snapshot: dict) -> None:
        with self._lock:
            self._worker_stats[str(worker)] = dict(snapshot)

    # -- introspection / lifecycle ----------------------------------------

    def stats(self) -> dict:
        """Parent cache counters plus the latest per-worker snapshots."""
        with self._lock:
            workers = {key: dict(snap) for key, snap in self._worker_stats.items()}
            scheduler = self._scheduler_stats_locked()
        totals = {
            "artifact_builds": sum(
                s.get("artifact_builds", 0) for s in workers.values()
            ),
            "result_hits": sum(
                s.get("results", {}).get("hits", 0) for s in workers.values()
            ),
            "result_misses": sum(
                s.get("results", {}).get("misses", 0) for s in workers.values()
            ),
            "artifact_hits": sum(
                s.get("artifacts", {}).get("hits", 0) for s in workers.values()
            ),
            "selection_hits": sum(
                s.get("selection", {}).get("hits", 0) for s in workers.values()
            ),
        }
        stats = {
            "parent": self.cache.snapshot(),
            "workers": workers,
            "workers_total": totals,
            "scheduler": scheduler,
        }
        if self.admission is not None:
            stats["admission"] = self.admission.snapshot()
        return stats

    def _close(self) -> bool:
        """Refuse new work and fail every task no worker has started.

        Returns ``False`` when the executor was already closed.
        """
        with self._space:
            if self._closed:
                return False
            self._closed = True
            leftovers = [task for task in self._tasks.values() if not task.started]
            for task in leftovers:
                self._release_locked(task)
            self._space.notify_all()
        for task in leftovers:
            task.handle._fail(ReproError("executor is shut down"))
        return True

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


class PoolExecutor(_DispatchCore):
    """Multiprocessing executor: priorities, backpressure, worker caches.

    Parameters
    ----------
    workers:
        Worker-process count (default: CPU count, at least 2).  Each
        worker is its own single-process sub-pool, which is what makes
        cache-aware routing possible.
    cache:
        Parent-side :class:`ArtifactCache` used to serve repeat
        submissions without touching a worker at all.
    max_pending:
        Bound on queued-plus-running tasks; ``submit`` blocks once the
        bound is reached (backpressure towards producers).
    disk_dir:
        Optional shared on-disk result store; both the parent cache and
        every worker cache read and write it.
    mp_context:
        ``multiprocessing`` start method.  Default: ``"fork"`` where
        available (cheap worker startup on Linux), else ``"spawn"``
        (Windows, macOS).
    max_load / admission:
        Admission control (see :mod:`repro.service.resilience`).
        ``max_load`` bounds queued-plus-running tasks: past the bound,
        the lowest-priority queued job is shed with a typed
        :class:`~repro.service.resilience.Overloaded` failure (the
        incoming job itself when nothing queued ranks below it) instead
        of queuing unboundedly.  ``admission`` supplies per-tenant
        token-bucket quotas (and may carry ``max_load`` itself).
        Generic calls are exempt — shedding a Step-2 component solve
        would fail a job already admitted.
    trace:
        A JSONL trace path (each worker process opens its own writer on
        it) or an existing :class:`~repro.obs.trace.TraceWriter`.
    """

    def __init__(
        self,
        workers: int | None = None,
        cache: ArtifactCache | None = None,
        max_pending: int | None = None,
        disk_dir=None,
        mp_context: str | None = None,
        worker_max_artifacts: int = 8,
        worker_max_results: int = 64,
        max_load: int | None = None,
        admission: AdmissionController | None = None,
        trace=None,
    ):
        if mp_context is None:
            methods = multiprocessing.get_all_start_methods()
            mp_context = "fork" if "fork" in methods else "spawn"
        self.workers = workers if workers is not None else max(2, os.cpu_count() or 2)
        if self.workers < 1:
            raise ReproError(f"workers must be >= 1, got {workers}")
        super().__init__(
            cache, disk_dir, max_pending, max_load, admission, trace,
            tracer_name=f"pool-parent-{os.getpid()}",
        )
        #: Builds one worker's single-process sub-pool (also a
        #: replacement for a worker whose process died).
        self._new_pool = functools.partial(
            ProcessPoolExecutor,
            max_workers=1,
            mp_context=multiprocessing.get_context(mp_context),
            initializer=_pool_worker_init,
            initargs=(
                worker_max_artifacts,
                worker_max_results,
                str(disk_dir) if disk_dir is not None else None,
                getattr(self.tracer, "path", None),
                getattr(self.tracer, "rotate_mb", None),
            ),
        )
        self._pools = [self._new_pool() for _ in range(self.workers)]
        #: Queued tasks as ``(-priority, seq, task)``; entries of tasks
        #: shed or failed while queued are skipped when popped.
        self._heap: list[tuple] = []
        self._busy = [False] * self.workers
        #: Prefixes each worker owns (the least-claimed worker claims).
        self._claims = [0] * self.workers
        self._prefix_owner: dict[tuple, int] = {}
        self._affinity_hits = 0
        self._prefix_claims = 0
        self._steals = 0
        self._respawns = 0

    def _prepare(self, task: _Task) -> None:
        if task.kind == _KIND_JOB:
            task.prefix = job_prefix(task.payload)

    def _launch(self, task: _Task) -> None:
        with self._lock:
            if task.seq not in self._tasks:  # shed or shut down meanwhile
                return
            heapq.heappush(self._heap, (-task.priority, task.seq, task))
            job = task.job
            if job is not None and self.tracer is not None:
                self.tracer.emit(
                    "queued",
                    fingerprint=task.handle.fingerprint,
                    trace_id=job.trace_id,
                    parent_span=job.span_id,
                )
        self._dispatch()

    # -- scheduling --------------------------------------------------------

    def _pick_locked(self) -> "tuple[_Task, int] | None":
        """Pop the top queued task and choose its worker.

        Work-conserving: while a worker is free, the top live task is
        always dispatched.  Its prefix owner runs it when free; an
        unowned prefix is claimed by the least-claimed free worker; a
        call, or a job whose owner is busy, runs on the least-claimed
        free worker — a steal, which leaves the prefix with its owner.
        """
        free = [index for index, busy in enumerate(self._busy) if not busy]
        if not free:
            return None
        while self._heap:
            task = heapq.heappop(self._heap)[2]
            if task.seq in self._tasks:
                break
        else:
            return None
        owner = self._prefix_owner.get(task.prefix)
        if owner is not None and not self._busy[owner]:
            self._affinity_hits += 1
            return task, owner
        worker = min(free, key=lambda index: (self._claims[index], index))
        if owner is not None:
            self._steals += 1
        elif task.prefix is not None:
            self._prefix_owner[task.prefix] = worker
            self._claims[worker] += 1
            self._prefix_claims += 1
        return task, worker

    def _respawn_locked(self, worker: int, pool, error) -> "ProcessPoolExecutor | None":
        """Replace ``worker``'s sub-pool ``pool`` if ``error`` says it broke.

        A :class:`BrokenProcessPool` means the worker's process died;
        the fresh one owns no prefix (its cache is empty).  Returns the
        broken pool for the caller to shut down outside the lock, or
        ``None`` when nothing was replaced: another error, a pool
        already replaced, or an executor shut down.
        """
        if (
            not isinstance(error, BrokenProcessPool)
            or self._closed
            or self._pools[worker] is not pool
        ):
            return None
        self._pools[worker] = self._new_pool()
        self._prefix_owner = {
            prefix: owner
            for prefix, owner in self._prefix_owner.items()
            if owner != worker
        }
        self._claims[worker] = 0
        self._respawns += 1
        return pool

    def _dispatch(self) -> None:
        """Feed queued work to free workers.

        Pops and submits one task at a time, releasing the lock around
        the sub-pool ``submit``: ``add_done_callback`` may invoke
        ``_on_done`` inline (already-failed future on a broken pool),
        and ``_on_done`` re-acquires the non-reentrant lock.  A task
        whose ``submit`` finds the worker's process dead never started:
        the worker is replaced and the task queued again.
        """
        while True:
            with self._space:
                picked = self._pick_locked()
                if picked is None:
                    return
                task, worker = picked
                task.started = True
                self._busy[worker] = True
                pool = self._pools[worker]
            job = task.job
            if job is not None:
                # A job whose budget ran out while queued fails typed at
                # dispatch instead of occupying a worker to no purpose.
                deadline = job.deadline()
                if deadline is not None and deadline.expired():
                    with self._space:
                        self._busy[worker] = False
                    self._expire(
                        task, "queued",
                        "deadline exceeded while queued "
                        f"(over budget by {-deadline.remaining():.3f}s)",
                    )
                    continue
            if self.tracer is not None:
                task.claimed_at = time.perf_counter()
                if job is not None and job.trace_id is not None:
                    task.claim_span = new_span_id()
                self.tracer.emit(
                    "claimed",
                    fingerprint=task.handle.fingerprint if job is not None else None,
                    kind=task.kind,
                    pool_worker=worker,
                    attempt=0,
                    trace_id=job.trace_id if job is not None else None,
                    span_id=task.claim_span,
                    parent_span=job.span_id if job is not None else None,
                )
            try:
                if job is not None:
                    future = pool.submit(_pool_worker_run, job, task.claim_span)
                else:
                    fn, args, kwargs = task.payload
                    future = pool.submit(_pool_worker_call, fn, args, kwargs)
            except Exception as exc:  # a broken or shut-down sub-pool
                with self._space:
                    self._busy[worker] = False
                    broken = self._respawn_locked(worker, pool, exc)
                    if broken is not None:
                        task.started = False
                        heapq.heappush(self._heap, (-task.priority, task.seq, task))
                    else:
                        self._release_locked(task)
                if broken is not None:
                    broken.shutdown(wait=False)
                    continue
                if self._closed:
                    exc = ReproError("executor is shut down")
                self._deliver(task, error=exc)
                continue
            future.add_done_callback(
                lambda future, task=task, worker=worker, pool=pool: self._on_done(
                    task, worker, pool, future
                )
            )

    def _on_done(self, task: _Task, worker: int, pool, future) -> None:
        try:
            payload, error = future.result(), None
        except BaseException as exc:  # noqa: BLE001 - relayed to the awaiter
            payload, error = None, exc
        with self._space:
            self._busy[worker] = False
            self._release_locked(task)
            # The task that was running when the process died still
            # fails: retrying a task that kills its worker would loop.
            broken = self._respawn_locked(worker, pool, error)
        if broken is not None:
            broken.shutdown(wait=False)
        self._dispatch()
        job = task.job
        seconds = (
            time.perf_counter() - task.claimed_at
            if task.claimed_at is not None
            else None
        )
        if error is not None:
            if self.tracer is not None:
                self.tracer.emit(
                    "done",
                    fingerprint=task.handle.fingerprint if job is not None else None,
                    kind=task.kind,
                    seconds=seconds,
                    error=f"{type(error).__name__}: {error}",
                    trace_id=job.trace_id if job is not None else None,
                    parent_span=job.span_id if job is not None else None,
                )
            self._deliver(task, error=error)
            return
        if job is None:
            value, pid, worker_snapshot = payload
            cached = False
        else:
            value, cached, pid, worker_snapshot = payload
            if self.tracer is not None:
                self.tracer.emit(
                    "done",
                    fingerprint=task.handle.fingerprint,
                    seconds=seconds,
                    cached=cached,
                    pool_pid=pid,
                    trace_id=job.trace_id,
                    parent_span=job.span_id,
                )
        self._record_worker(pid, worker_snapshot)
        self._deliver(task, value, cached)

    # -- introspection / lifecycle ----------------------------------------

    def _scheduler_stats_locked(self) -> dict:
        return {
            "prefix_claims": self._prefix_claims,
            "affinity_hits": self._affinity_hits,
            "steals": self._steals,
            "worker_respawns": self._respawns,
        }

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work, fail queued work, and shut the pool down.

        Running tasks finish (``wait`` blocks until they have); queued
        handles fail with ``ReproError("executor is shut down")``.
        """
        self._close()
        for pool in self._pools:
            pool.shutdown(wait=wait)
