"""The broker contract: durable task queues the distributed runtime rides on.

A broker is a (possibly multi-host) task queue with at-least-once
delivery and crash recovery.  The executor side
(:class:`~repro.service.dist.executor.DistributedExecutor`) *puts*
:class:`TaskEnvelope` objects and polls for results; the worker side
(:func:`~repro.service.dist.worker.worker_loop`) *claims* tasks under a
lease, heartbeats while computing, and *completes* them with a pickled
result envelope.  The life cycle of one task::

    put -> queued -> claim (lease) -> [heartbeat ...] -> complete -> result
                        |                                    ^
                        | lease expires (worker died)        |
                        +---> requeue (attempts+1) ----------+
                        |
                        +---> quarantine (attempts exhausted, or the
                              payload would not even deserialize)

Delivery is **at least once**: a worker that stalls past its lease gets
its task requeued, and the original worker may still finish and call
``complete`` — the runtime stays correct because jobs are
content-addressed (identical inputs produce identical results, so a
duplicate completion is a harmless overwrite) and ``complete`` reports
staleness so duplicates can be counted.

Two zero-dependency implementations ship in this package —
:class:`~repro.service.dist.fsbroker.FilesystemBroker` (atomic-rename
claims on a shared directory) and
:class:`~repro.service.dist.sqlitebroker.SQLiteBroker` (row locks in
one WAL database file).  :func:`connect_broker` maps broker URLs
(``fs://…``, ``sqlite://…``, or a bare directory path) to instances.
"""

from __future__ import annotations

import pickle
import uuid
from dataclasses import dataclass, field

from repro.exceptions import ReproError

#: Task kinds carried by an envelope: a pickled
#: :class:`~repro.service.jobs.AbstractionJob`, or a pickled
#: ``(fn, args, kwargs)`` generic call (the ``submit_call`` twin).
TASK_KINDS = ("job", "call")

#: Default number of deliveries before a task is quarantined.
DEFAULT_MAX_ATTEMPTS = 3


@dataclass
class TaskEnvelope:
    """One queued unit of work, as it travels through a broker.

    Attributes
    ----------
    task_id:
        Unique id assigned at submission (uuid hex).
    kind:
        ``"job"`` or ``"call"`` (see :data:`TASK_KINDS`).
    payload:
        The pickled work item.
    priority:
        Higher dispatches first (ties break by enqueue order).
    affinity:
        Optional cache-affinity key (the job's artifact log prefix,
        digested): brokers route all tasks sharing a key to the worker
        that first claimed it, so per-log artifacts are built once per
        fleet instead of once per (worker, log).
    attempts:
        Deliveries so far; maintained by the broker on requeue.
    """

    task_id: str
    kind: str
    payload: bytes
    priority: int = 0
    affinity: str | None = None
    attempts: int = 0

    def __post_init__(self):
        if self.kind not in TASK_KINDS:
            raise ReproError(f"unknown task kind {self.kind!r}; use {TASK_KINDS}")


@dataclass
class Claim:
    """A claimed task: the envelope plus the worker's lease on it."""

    envelope: TaskEnvelope
    worker: str
    deadline: float
    #: Broker-private bookkeeping (e.g. the claimed file name).
    token: object = field(default=None, repr=False)


def new_task_id() -> str:
    """Mint a unique task id."""
    return uuid.uuid4().hex


def encode_result_flagged(
    value=None,
    error: str | None = None,
    cached: bool = False,
    worker: str = "",
    worker_stats: dict | None = None,
) -> tuple[bytes, bool]:
    """Pickle one result envelope; return ``(payload, ok)``.

    ``ok`` is ``True`` only for a successfully encoded success
    envelope: values that refuse to pickle degrade to an error
    envelope instead of poisoning the result channel, and the flag
    spares callers re-deserializing the payload to learn the outcome.
    """
    record = {
        "ok": error is None,
        "value": value,
        "error": error,
        "cached": cached,
        "worker": worker,
        "worker_stats": worker_stats or {},
    }
    try:
        return pickle.dumps(record), record["ok"]
    except Exception as exc:  # unpicklable value: degrade, don't poison
        record.update(ok=False, value=None, error=f"result not picklable: {exc}")
        return pickle.dumps(record), False


def encode_result(
    value=None,
    error: str | None = None,
    cached: bool = False,
    worker: str = "",
    worker_stats: dict | None = None,
) -> bytes:
    """Pickle one result envelope (success when ``error`` is ``None``)."""
    return encode_result_flagged(value, error, cached, worker, worker_stats)[0]


def decode_result(payload: bytes) -> dict:
    """Unpickle a result envelope written by :func:`encode_result`."""
    record = pickle.loads(payload)
    if not isinstance(record, dict) or "ok" not in record:
        raise ReproError("malformed result envelope")
    return record


class Broker:
    """Abstract broker API (see the module docstring for the life cycle).

    Implementations must make :meth:`claim` exclusive (two workers never
    both hold a live lease on one task), :meth:`requeue_expired`
    idempotent under concurrent calls (an expired task requeues exactly
    once), and :meth:`complete` last-write-wins atomic.
    """

    #: The URL this broker was connected from (what worker processes
    #: re-connect with); set by :func:`connect_broker` / constructors.
    url: str = ""

    def put(self, envelope: TaskEnvelope) -> None:
        """Enqueue a task."""
        raise NotImplementedError

    def claim(self, worker: str, lease: float) -> Claim | None:
        """Atomically claim the best queued task, or ``None``.

        Tasks whose affinity key is owned by a *different* live worker
        are skipped (their owner will take them); claiming a task with
        an unowned affinity key acquires the key for ``worker``.
        """
        raise NotImplementedError

    def heartbeat(self, claim: Claim, lease: float) -> bool:
        """Extend the claim's lease; ``False`` when the claim was lost."""
        raise NotImplementedError

    def complete(self, claim: Claim, payload: bytes) -> bool:
        """Finish a claimed task with a result envelope.

        Returns ``False`` when the claim had already been requeued or
        finished elsewhere (a duplicate delivery) — the result payload
        is still recorded (identical by content-addressing), so this is
        accounting, not an error.
        """
        raise NotImplementedError

    def release(self, claim: Claim) -> bool:
        """Hand a claimed task back for redelivery (attempts + 1).

        The voluntary twin of lease expiry: a worker that cannot make
        progress on a claim for a *transient* reason — e.g. the payload
        arrived corrupted in flight — releases it so another delivery
        can succeed, instead of quarantining a possibly-good task on
        first sight.  Returns ``True`` when the task went back to the
        queue, ``False`` when the claim was already gone (requeued or
        finished elsewhere) or the broker does not support voluntary
        release — in which case lease expiry requeues it eventually,
        so ``False`` is safe to ignore.
        """
        del claim
        return False

    def quarantine(self, claim: Claim, reason: str) -> None:
        """Park a poisonous claimed task and record an error result.

        Used for payloads that fail to deserialize and for tasks whose
        delivery attempts are exhausted: the task leaves the queue (no
        crash-loop) but stays inspectable, and an error result unblocks
        any executor awaiting it.
        """
        raise NotImplementedError

    def get_result(self, task_id: str) -> bytes | None:
        """Fetch (without consuming) a finished task's result envelope."""
        raise NotImplementedError

    def forget_result(self, task_id: str) -> None:
        """Drop a consumed result (executor-side cleanup)."""
        raise NotImplementedError

    def release_affinities(self, worker: str) -> None:
        """Release every affinity key ``worker`` owns (clean exit).

        Affinity ownership leases outlive task leases by design; a
        worker that exits cleanly must hand its logs back immediately
        so queued same-log tasks are not stalled until the ownership
        lease runs out.
        """
        raise NotImplementedError

    def requeue_expired(self, max_attempts: int = DEFAULT_MAX_ATTEMPTS) -> int:
        """Requeue lease-expired tasks (quarantining exhausted ones).

        Returns the number of tasks moved.  Safe to call from any
        process at any time; concurrent calls requeue each expired task
        exactly once.
        """
        raise NotImplementedError

    def request_stop(self) -> None:
        """Ask every worker polling this broker to exit its loop."""
        raise NotImplementedError

    def clear_stop(self) -> None:
        """Withdraw a previous stop request (e.g. on executor start)."""
        raise NotImplementedError

    def stop_requested(self) -> bool:
        """Whether workers have been asked to stop."""
        raise NotImplementedError

    def stats(self) -> dict:
        """Queue depth counters: queued/claimed/results/quarantined."""
        raise NotImplementedError

    def close(self) -> None:
        """Release broker resources (connections, handles)."""

    def __enter__(self) -> "Broker":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def connect_broker(url: str) -> Broker:
    """Open the broker a URL names.

    Accepted forms:

    * ``fs:///shared/dir`` or a bare directory path — the
      zero-dependency filesystem queue (any shared POSIX directory:
      local disk for same-host fleets, NFS for multi-host);
    * ``sqlite:///path/to/queue.db`` — the zero-dependency SQLite
      queue (one WAL database file; same-host fleets only — WAL's
      shared-memory index does not work across machines).

    Any other scheme raises :class:`~repro.exceptions.ReproError`.
    """
    if url.startswith("sqlite://"):
        from repro.service.dist.sqlitebroker import SQLiteBroker

        path = url[len("sqlite://"):]
        if not path:
            raise ReproError("sqlite broker URL needs a path: sqlite:///dir/queue.db")
        return SQLiteBroker(path, url=url)
    if "://" in url and not url.startswith("fs://"):
        raise ReproError(
            f"unknown broker URL scheme {url.split('://', 1)[0]!r} "
            "(use fs:// or sqlite://)"
        )
    from repro.service.dist.fsbroker import FilesystemBroker

    path = url[len("fs://"):] if url.startswith("fs://") else url
    if not path:
        raise ReproError("fs broker URL needs a directory: fs:///shared/dir")
    return FilesystemBroker(path, url=url)
