"""The zero-dependency SQLite broker: one WAL database file as the queue.

The whole queue state lives in a single SQLite file — tasks, leases,
results, affinity ownership, and the stop flag — so a fleet of
processes on **one host** coordinates through row locks instead of
directory renames.  The broker runs in WAL mode, whose shared-memory
index only works between processes on the same machine (SQLite
documents WAL as unsupported over NFS and other network filesystems) —
for multi-host fleets use the ``fs://`` broker on a shared directory
instead.  ``BEGIN IMMEDIATE`` transactions make
claiming exclusive: exactly one worker turns a ``queued`` row into a
``claimed`` one, and exactly one requeue sweep turns an expired
``claimed`` row back (guarded by a state+worker match, so concurrent
sweeps cannot double-requeue).  WAL mode keeps readers (result polling)
off the writers' lock path.

Semantics are identical to
:class:`~repro.service.dist.fsbroker.FilesystemBroker`; the broker
tests run the same contract suite over both.
"""

from __future__ import annotations

import sqlite3
import threading
import time
from pathlib import Path

from repro.service.dist.broker import (
    DEFAULT_MAX_ATTEMPTS,
    Broker,
    Claim,
    TaskEnvelope,
    encode_result,
)

#: See :data:`repro.service.dist.fsbroker._AFFINITY_LEASE_FACTOR`.
_AFFINITY_LEASE_FACTOR = 5.0


def _affinity_deadline(lease: float, now: float) -> float:
    """When an affinity ownership acquired or refreshed at ``now`` expires."""
    return now + max(lease * _AFFINITY_LEASE_FACTOR, 10.0)


_SCHEMA = """
CREATE TABLE IF NOT EXISTS tasks (
    task_id        TEXT PRIMARY KEY,
    kind           TEXT NOT NULL,
    payload        BLOB NOT NULL,
    priority       INTEGER NOT NULL DEFAULT 0,
    affinity       TEXT,
    attempts       INTEGER NOT NULL DEFAULT 0,
    state          TEXT NOT NULL DEFAULT 'queued',
    worker         TEXT,
    lease_deadline REAL,
    seq            INTEGER
);
CREATE INDEX IF NOT EXISTS tasks_claim
    ON tasks (state, priority DESC, seq ASC);
CREATE TABLE IF NOT EXISTS results (
    task_id TEXT PRIMARY KEY,
    payload BLOB NOT NULL,
    created REAL NOT NULL DEFAULT 0
);
CREATE TABLE IF NOT EXISTS quarantine (
    task_id TEXT PRIMARY KEY,
    reason  TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS affinity (
    key      TEXT PRIMARY KEY,
    worker   TEXT NOT NULL,
    deadline REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS control (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
"""


class SQLiteBroker(Broker):
    """Task queue in one SQLite database (see the module docstring).

    ``result_ttl`` bounds the results table: orphaned duplicate results
    (see :class:`~repro.service.dist.fsbroker.FilesystemBroker`) are
    garbage-collected by the requeue sweep once older than the TTL.
    """

    def __init__(
        self, path: "str | Path", url: str | None = None,
        result_ttl: float = 3600.0,
    ):
        self.path = Path(path)
        self.url = url if url is not None else f"sqlite://{path}"
        self.result_ttl = result_ttl
        self._last_result_sweep = 0.0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()  # one connection, many executor threads
        self._db = sqlite3.connect(
            str(self.path), timeout=30.0, check_same_thread=False,
            isolation_level=None,
        )
        with self._lock:
            self._db.execute("PRAGMA journal_mode=WAL")
            self._db.execute("PRAGMA synchronous=NORMAL")
            self._db.execute("PRAGMA busy_timeout=30000")
            self._db.executescript(_SCHEMA)

    # -- internals ---------------------------------------------------------

    def _immediate(self):
        """Start an exclusive-writer transaction (caller holds the lock)."""
        self._db.execute("BEGIN IMMEDIATE")

    def _foreign_owner_locked(self, key: str, worker: str, now: float) -> str | None:
        """The live worker other than ``worker`` owning ``key``, if any."""
        row = self._db.execute(
            "SELECT worker, deadline FROM affinity WHERE key = ?", (key,)
        ).fetchone()
        if row is None or row[0] == worker or row[1] <= now:
            return None
        return row[0]

    def _holds_lease_locked(self, worker: str, now: float) -> bool:
        """Whether ``worker`` holds a live claim on some task."""
        return self._db.execute(
            "SELECT EXISTS (SELECT 1 FROM tasks WHERE state = 'claimed' "
            "AND worker = ? AND lease_deadline > ?)",
            (worker, now),
        ).fetchone()[0] == 1

    def _acquire_affinity_locked(
        self, key: str, worker: str, lease: float, now: float
    ) -> None:
        deadline = _affinity_deadline(lease, now)
        self._db.execute(
            "INSERT INTO affinity (key, worker, deadline) VALUES (?, ?, ?) "
            "ON CONFLICT(key) DO UPDATE SET worker = ?, deadline = ?",
            (key, worker, deadline, worker, deadline),
        )

    # -- Broker API --------------------------------------------------------

    def put(self, envelope: TaskEnvelope) -> None:
        """Enqueue a task row (``seq`` preserves FIFO within a priority)."""
        with self._lock:
            self._immediate()
            try:
                row = self._db.execute(
                    "SELECT COALESCE(MAX(seq), 0) + 1 FROM tasks"
                ).fetchone()
                self._db.execute(
                    "INSERT OR REPLACE INTO tasks "
                    "(task_id, kind, payload, priority, affinity, attempts, "
                    " state, seq) VALUES (?, ?, ?, ?, ?, ?, 'queued', ?)",
                    (
                        envelope.task_id, envelope.kind, envelope.payload,
                        envelope.priority, envelope.affinity,
                        envelope.attempts, row[0],
                    ),
                )
                self._db.execute("COMMIT")
            except BaseException:
                self._db.execute("ROLLBACK")
                raise

    def claim(self, worker: str, lease: float) -> Claim | None:
        """Claim the best queued row we may run (see :meth:`Broker.claim`)."""
        now = time.time()
        with self._lock:
            self._immediate()
            try:
                # Duplicate deliveries of finished tasks: drop them in
                # one statement instead of a per-row probe.
                self._db.execute(
                    "DELETE FROM tasks WHERE state = 'queued' AND task_id IN "
                    "(SELECT task_id FROM results)"
                )
                # Scan without payloads (they can be megabytes of
                # pickled inline logs); fetch only the chosen row's.
                rows = self._db.execute(
                    "SELECT task_id, kind, priority, affinity, attempts "
                    "FROM tasks WHERE state = 'queued' "
                    "ORDER BY priority DESC, seq ASC"
                ).fetchall()
                for task_id, kind, priority, affinity, attempts in rows:
                    if affinity is not None:
                        owner = self._foreign_owner_locked(affinity, worker, now)
                        if owner is None:
                            self._acquire_affinity_locked(affinity, worker, lease, now)
                        elif not self._holds_lease_locked(owner, now):
                            continue  # the idle owner takes it at its next poll
                    deadline = now + lease
                    self._db.execute(
                        "UPDATE tasks SET state = 'claimed', worker = ?, "
                        "lease_deadline = ? WHERE task_id = ?",
                        (worker, deadline, task_id),
                    )
                    payload = self._db.execute(
                        "SELECT payload FROM tasks WHERE task_id = ?", (task_id,)
                    ).fetchone()[0]
                    self._db.execute("COMMIT")
                    envelope = TaskEnvelope(
                        task_id=task_id, kind=kind, payload=payload,
                        priority=priority, affinity=affinity, attempts=attempts,
                    )
                    return Claim(
                        envelope=envelope, worker=worker, deadline=deadline
                    )
                self._db.execute("COMMIT")
                return None
            except BaseException:
                self._db.execute("ROLLBACK")
                raise

    def heartbeat(self, claim: Claim, lease: float) -> bool:
        """Extend the row's lease while we still own the claim."""
        now = time.time()
        with self._lock:
            self._immediate()
            try:
                cursor = self._db.execute(
                    "UPDATE tasks SET lease_deadline = ? "
                    "WHERE task_id = ? AND state = 'claimed' AND worker = ?",
                    (now + lease, claim.envelope.task_id, claim.worker),
                )
                alive = cursor.rowcount == 1
                if alive and claim.envelope.affinity is not None:
                    # Refresh only a key we own: a steal never takes it.
                    self._db.execute(
                        "UPDATE affinity SET deadline = ? "
                        "WHERE key = ? AND worker = ?",
                        (
                            _affinity_deadline(lease, now),
                            claim.envelope.affinity, claim.worker,
                        ),
                    )
                self._db.execute("COMMIT")
            except BaseException:
                self._db.execute("ROLLBACK")
                raise
        if alive:
            claim.deadline = now + lease
        return alive

    def complete(self, claim: Claim, payload: bytes) -> bool:
        """Record the result; delete the task row when still ours."""
        with self._lock:
            self._immediate()
            try:
                self._db.execute(
                    "INSERT OR REPLACE INTO results (task_id, payload, created) "
                    "VALUES (?, ?, ?)",
                    (claim.envelope.task_id, payload, time.time()),
                )
                cursor = self._db.execute(
                    "DELETE FROM tasks WHERE task_id = ? AND state = 'claimed' "
                    "AND worker = ?",
                    (claim.envelope.task_id, claim.worker),
                )
                fresh = cursor.rowcount == 1
                self._db.execute("COMMIT")
                return fresh
            except BaseException:
                self._db.execute("ROLLBACK")
                raise

    def release(self, claim: Claim) -> bool:
        """Hand a claimed row back for redelivery (``attempts + 1``).

        Guarded by the same state+worker match as the expiry sweep's
        requeue UPDATE, so a release racing a sweep requeues the task
        exactly once.
        """
        with self._lock:
            self._immediate()
            try:
                row = self._db.execute(
                    "SELECT COALESCE(MAX(seq), 0) + 1 FROM tasks"
                ).fetchone()
                cursor = self._db.execute(
                    "UPDATE tasks SET state = 'queued', worker = NULL, "
                    "lease_deadline = NULL, attempts = attempts + 1, seq = ? "
                    "WHERE task_id = ? AND state = 'claimed' AND worker = ?",
                    (row[0], claim.envelope.task_id, claim.worker),
                )
                released = cursor.rowcount == 1
                self._db.execute("COMMIT")
                return released
            except BaseException:
                self._db.execute("ROLLBACK")
                raise

    def quarantine(self, claim: Claim, reason: str) -> None:
        """Park a poisonous claimed row; record an error result."""
        task_id = claim.envelope.task_id
        with self._lock:
            self._immediate()
            try:
                self._db.execute("DELETE FROM tasks WHERE task_id = ?", (task_id,))
                self._db.execute(
                    "INSERT OR REPLACE INTO quarantine (task_id, reason) "
                    "VALUES (?, ?)",
                    (task_id, reason),
                )
                self._db.execute(
                    "INSERT OR REPLACE INTO results (task_id, payload, created) "
                    "VALUES (?, ?, ?)",
                    (task_id, encode_result(
                        error=f"task quarantined: {reason}", worker=claim.worker
                    ), time.time()),
                )
                self._db.execute("COMMIT")
            except BaseException:
                self._db.execute("ROLLBACK")
                raise

    def requeue_expired(self, max_attempts: int = DEFAULT_MAX_ATTEMPTS) -> int:
        """Requeue lease-expired rows; quarantine exhausted ones."""
        now = time.time()
        moved = 0
        with self._lock:
            self._immediate()
            try:
                expired = self._db.execute(
                    "SELECT task_id, attempts, affinity, worker FROM tasks "
                    "WHERE state = 'claimed' AND lease_deadline <= ?",
                    (now,),
                ).fetchall()
                for task_id, attempts, affinity, worker in expired:
                    # Release the dead claimant's affinity hold so the
                    # redelivery is claimable immediately.
                    if affinity is not None and worker is not None:
                        self._db.execute(
                            "DELETE FROM affinity WHERE key = ? AND worker = ?",
                            (affinity, worker),
                        )
                    if attempts + 1 >= max_attempts:
                        self._db.execute(
                            "DELETE FROM tasks WHERE task_id = ?", (task_id,)
                        )
                        self._db.execute(
                            "INSERT OR REPLACE INTO quarantine (task_id, reason) "
                            "VALUES (?, ?)",
                            (task_id,
                             f"delivery attempts exhausted ({attempts + 1})"),
                        )
                        self._db.execute(
                            "INSERT OR REPLACE INTO results "
                            "(task_id, payload, created) VALUES (?, ?, ?)",
                            (task_id, encode_result(
                                error=(
                                    f"task {task_id} exceeded {max_attempts} "
                                    "delivery attempts (worker crash loop?)"
                                )
                            ), time.time()),
                        )
                    else:
                        row = self._db.execute(
                            "SELECT COALESCE(MAX(seq), 0) + 1 FROM tasks"
                        ).fetchone()
                        self._db.execute(
                            "UPDATE tasks SET state = 'queued', worker = NULL, "
                            "lease_deadline = NULL, attempts = ?, seq = ? "
                            "WHERE task_id = ? AND state = 'claimed'",
                            (attempts + 1, row[0], task_id),
                        )
                    moved += 1
                if self.result_ttl is not None and (
                    now - self._last_result_sweep >= self.result_ttl / 10.0
                ):
                    # Garbage-collect orphaned duplicate results (see
                    # the class docstring).
                    self._last_result_sweep = now
                    self._db.execute(
                        "DELETE FROM results WHERE created > 0 AND created <= ?",
                        (now - self.result_ttl,),
                    )
                self._db.execute("COMMIT")
            except BaseException:
                self._db.execute("ROLLBACK")
                raise
        return moved

    def release_affinities(self, worker: str) -> None:
        """Release every affinity key ``worker`` owns (clean exit)."""
        with self._lock:
            self._immediate()
            try:
                self._db.execute(
                    "DELETE FROM affinity WHERE worker = ?", (worker,)
                )
                self._db.execute("COMMIT")
            except BaseException:
                self._db.execute("ROLLBACK")
                raise

    def get_result(self, task_id: str) -> bytes | None:
        """Fetch a finished task's result envelope (``None`` while pending)."""
        with self._lock:
            row = self._db.execute(
                "SELECT payload FROM results WHERE task_id = ?", (task_id,)
            ).fetchone()
        return None if row is None else row[0]

    def forget_result(self, task_id: str) -> None:
        """Delete a consumed result row."""
        with self._lock:
            self._immediate()
            try:
                self._db.execute(
                    "DELETE FROM results WHERE task_id = ?", (task_id,)
                )
                self._db.execute("COMMIT")
            except BaseException:
                self._db.execute("ROLLBACK")
                raise

    def request_stop(self) -> None:
        """Raise the cooperative stop flag."""
        with self._lock:
            self._immediate()
            try:
                self._db.execute(
                    "INSERT OR REPLACE INTO control (key, value) "
                    "VALUES ('stop', '1')"
                )
                self._db.execute("COMMIT")
            except BaseException:
                self._db.execute("ROLLBACK")
                raise

    def clear_stop(self) -> None:
        """Lower the stop flag."""
        with self._lock:
            self._immediate()
            try:
                self._db.execute("DELETE FROM control WHERE key = 'stop'")
                self._db.execute("COMMIT")
            except BaseException:
                self._db.execute("ROLLBACK")
                raise

    def stop_requested(self) -> bool:
        """Whether the stop flag is raised."""
        with self._lock:
            row = self._db.execute(
                "SELECT value FROM control WHERE key = 'stop'"
            ).fetchone()
        return row is not None

    def stats(self) -> dict:
        """Row-count counters per state."""
        with self._lock:
            queued = self._db.execute(
                "SELECT COUNT(*) FROM tasks WHERE state = 'queued'"
            ).fetchone()[0]
            claimed = self._db.execute(
                "SELECT COUNT(*) FROM tasks WHERE state = 'claimed'"
            ).fetchone()[0]
            results = self._db.execute("SELECT COUNT(*) FROM results").fetchone()[0]
            quarantined = self._db.execute(
                "SELECT COUNT(*) FROM quarantine"
            ).fetchone()[0]
        return {
            "backend": "sqlite",
            "queued": queued,
            "claimed": claimed,
            "results": results,
            "quarantined": quarantined,
        }

    def close(self) -> None:
        """Close the database connection."""
        with self._lock:
            self._db.close()
