"""``repro.service`` — the parallel, cache-backed abstraction runtime.

The batch pipeline (:class:`~repro.core.gecco.Gecco`) solves one
problem per call; this package turns it into a *servable* runtime that
amortizes work across requests:

* :mod:`~repro.service.jobs` — the job model: content-addressed
  :class:`AbstractionJob` (log reference × constraints × config) with
  canonical fingerprints;
* :mod:`~repro.service.cache` — the two-tier :class:`ArtifactCache`:
  per-log artifacts shared across constraint sets, finished results
  served without recomputation, optional on-disk persistence;
* :mod:`~repro.service.executor` — :class:`PoolExecutor`
  (multiprocessing, priorities, backpressure, per-worker artifact
  reuse) and the deterministic :class:`SequentialExecutor`;
* :mod:`~repro.service.dist` — :class:`DistributedExecutor`: the same
  executor protocol, and the pool's dispatch core, over a filesystem
  broker queue, scaling the fleet across processes and hosts with
  leases, heartbeats, and dead-worker requeue;
* :mod:`~repro.service.batch` — ``repro batch`` / ``repro serve``
  entry-point machinery (JSONL manifests, line-JSON serve loop);
* :mod:`~repro.service.resilience` — deadlines, admission control,
  retry policies, and circuit-breaker tier degradation
  (:class:`Deadline`, :class:`AdmissionController`,
  :class:`RetryPolicy`, :class:`DegradingExecutor`, and the typed
  :class:`DeadlineExceeded` / :class:`Overloaded` failures);
* :mod:`~repro.service.serialization` — lossless pickle/JSON
  round-trips for every object that crosses a process boundary.

Observability for the whole stack — structured JSONL tracing
(``--trace``), a Prometheus ``/metrics`` endpoint, and the ``repro
doctor`` forensics analyzer — lives in :mod:`repro.obs` and threads
through here via ``make_executor(..., trace=...)``.

Quickstart::

    from repro.service import AbstractionJob, LogRef, PoolExecutor
    from repro.constraints import ConstraintSet, MaxGroupSize

    job = AbstractionJob(
        log=LogRef.builtin("loan:80"),
        constraints=ConstraintSet([MaxGroupSize(5)]),
    )
    with PoolExecutor(workers=4) as pool:
        handle = pool.submit(job)
        result = handle.result()      # == Gecco(...).abstract(log)
"""

from repro.service.batch import (
    BatchReport,
    load_manifest,
    make_executor,
    run_batch,
    serve_loop,
    serve_socket,
)
from repro.service.cache import ArtifactCache, CacheStats, TierStats
from repro.service.dist import DistributedExecutor, connect_broker, worker_loop
from repro.service.fsck import fsck_broker, fsck_report, fsck_store
from repro.service.journal import IntegrityError, RunJournal
from repro.service.executor import (
    CallHandle,
    JobHandle,
    PoolExecutor,
    SequentialExecutor,
    run_job,
)
from repro.service.jobs import (
    BUILTIN_LOGS,
    AbstractionJob,
    JobFingerprint,
    LogRef,
)
from repro.service.resilience import (
    AdmissionController,
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    DegradingExecutor,
    Overloaded,
    RetryPolicy,
    TokenBucket,
)
from repro.service.serialization import (
    grouping_from_dict,
    grouping_to_dict,
    log_from_dict,
    log_to_dict,
    result_from_dict,
    result_signature,
    result_to_dict,
)
from repro.service.supervisor import FleetSupervisor, run_fleet

__all__ = [
    "AbstractionJob",
    "AdmissionController",
    "ArtifactCache",
    "BatchReport",
    "BUILTIN_LOGS",
    "CacheStats",
    "CallHandle",
    "CircuitBreaker",
    "Deadline",
    "DeadlineExceeded",
    "DegradingExecutor",
    "DistributedExecutor",
    "FleetSupervisor",
    "IntegrityError",
    "connect_broker",
    "JobFingerprint",
    "JobHandle",
    "LogRef",
    "Overloaded",
    "PoolExecutor",
    "RetryPolicy",
    "RunJournal",
    "SequentialExecutor",
    "TierStats",
    "TokenBucket",
    "fsck_broker",
    "fsck_report",
    "fsck_store",
    "grouping_from_dict",
    "grouping_to_dict",
    "load_manifest",
    "log_from_dict",
    "log_to_dict",
    "make_executor",
    "result_from_dict",
    "result_signature",
    "result_to_dict",
    "run_batch",
    "run_fleet",
    "run_job",
    "serve_loop",
    "serve_socket",
    "worker_loop",
]
