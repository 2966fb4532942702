"""``repro.service.dist`` — the distributed executor backend.

The in-process :class:`~repro.service.executor.PoolExecutor` scales to
one host's cores; this package scales the same job model across
processes and hosts.  The pieces:

* :mod:`~repro.service.dist.broker` — the broker contract
  (:class:`TaskEnvelope`, :class:`Broker`, :func:`connect_broker`):
  durable queues with atomic claims, leases + heartbeats,
  visibility-timeout requeue of dead workers' tasks, quarantine for
  poisonous entries, and cache-affinity routing;
* :mod:`~repro.service.dist.fsbroker` /
  :mod:`~repro.service.dist.sqlitebroker` — two zero-dependency broker
  implementations (shared directory with atomic renames; one SQLite
  WAL file with row locks);
* :mod:`~repro.service.dist.worker` — the ``repro worker --broker URL``
  claim-and-run loop;
* :mod:`~repro.service.dist.chaos` — :class:`ChaosBroker`, a seedable
  fault-injecting proxy over any broker (deterministic resilience
  drills; ``repro worker --chaos-seed N ...``);
* :mod:`~repro.service.dist.executor` — :class:`DistributedExecutor`,
  the broker transport under the pool's dispatch core (``submit``,
  ``submit_call``, coalescing, priorities, backpressure).

Quickstart (one shared directory, two local workers)::

    from repro.service import AbstractionJob, LogRef
    from repro.service.dist import DistributedExecutor

    with DistributedExecutor("fs:///shared/queue", workers=2,
                             disk_dir="/shared/cache") as pool:
        handle = pool.submit(AbstractionJob(log=LogRef.builtin("loan:80"),
                                            constraints=constraints))
        result = handle.result()   # byte-identical to Gecco(...).abstract

Remote hosts join the same fleet with ``repro worker --broker
fs:///shared/queue --cache-dir /shared/cache``.
"""

from repro.service.dist.broker import (
    Broker,
    Claim,
    TaskEnvelope,
    connect_broker,
    decode_result,
    encode_result,
    encode_result_flagged,
    new_task_id,
)
from repro.service.dist.chaos import (
    ChaosBroker,
    ChaosConfig,
    ChaosError,
    DiskFaultInjector,
)
from repro.service.dist.executor import DistributedExecutor, job_affinity_key
from repro.service.dist.fsbroker import FilesystemBroker
from repro.service.dist.sqlitebroker import SQLiteBroker
from repro.service.dist.worker import (
    WorkerStats,
    default_worker_id,
    run_claimed_task,
    spawn_worker_process,
    worker_loop,
)

__all__ = [
    "Broker",
    "ChaosBroker",
    "ChaosConfig",
    "ChaosError",
    "Claim",
    "DiskFaultInjector",
    "DistributedExecutor",
    "FilesystemBroker",
    "SQLiteBroker",
    "TaskEnvelope",
    "WorkerStats",
    "connect_broker",
    "decode_result",
    "default_worker_id",
    "encode_result",
    "encode_result_flagged",
    "job_affinity_key",
    "new_task_id",
    "run_claimed_task",
    "spawn_worker_process",
    "worker_loop",
]
