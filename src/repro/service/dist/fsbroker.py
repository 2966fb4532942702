"""The zero-dependency filesystem broker: a queue made of atomic renames.

Any shared POSIX directory (local disk for a same-host fleet, NFS for a
multi-host one) becomes a task queue::

    <root>/
      queue/       one file per queued task; the *name* carries all
                   scheduling metadata (priority, enqueue time,
                   attempts, kind, affinity key, task id) so claiming
                   never has to open payloads it will not run
      claimed/     tasks currently leased to a worker
      leases/      <task_id>.json — {worker, deadline}; the lease clock
      results/     <task_id>.res — pickled result envelopes
      quarantine/  parked task files, each with a <file name>.reason
                   sidecar, and corrupt results as <task_id>.res.bad
      affinity/    <key>.json — cache-affinity ownership leases
      tmp/         staging for atomic writes
      stop         cooperative shutdown flag for worker loops

Exclusivity comes from ``os.rename`` being atomic within a filesystem:
claiming moves ``queue/<name>`` to ``claimed/<name>`` and exactly one
renamer wins; requeueing a lease-expired task moves it back (with
``attempts+1`` baked into the new name) and exactly one requeuer wins,
so concurrent :meth:`~FilesystemBroker.requeue_expired` sweeps cannot
duplicate a task.  Results and leases are staged in ``tmp/`` and
renamed into place, so readers never observe partial writes.

Task payloads and result envelopes additionally carry a sha256 frame
(``CHK1:<hex>\\n`` prefix, see :mod:`repro.service.journal`) verified
on every read: a torn or bit-rotted payload is quarantined (with an
error result, so waiting executors fail fast) instead of being handed
to a worker, and a corrupt result file is replaced by an explicit
error envelope instead of crashing the submitter's decode.  Unframed
payloads written by older builds still pass through unverified.

This module owns the layout: the live paths and :func:`scan_directory`
(``repro fsck --broker``) share one *park* primitive (move a bad task
file into ``quarantine/``) and one *heal* primitive (replace a corrupt
result by an error envelope).
"""

from __future__ import annotations

import json
import os
import pickle
import time
import uuid
from dataclasses import dataclass
from pathlib import Path

from repro.service.dist.broker import (
    DEFAULT_MAX_ATTEMPTS,
    Broker,
    Claim,
    TaskEnvelope,
    encode_result,
)
from repro.service.journal import (
    IntegrityError,
    frame_bytes,
    stale_tmp_files,
    sweep_stale_tmp,
    unframe_bytes,
)

#: Priority is encoded as ``_PRIORITY_OFFSET - priority`` so that an
#: ascending directory sort yields highest-priority-first.
_PRIORITY_OFFSET = 1 << 31

#: How much longer than a task lease an affinity (per-log worker
#: ownership) lease lives: idle gaps between two jobs on the same log
#: should not cede the log's warmed artifacts to another worker.
_AFFINITY_LEASE_FACTOR = 5.0


@dataclass
class _EntryMeta:
    """Scheduling metadata parsed from a queue entry's file name."""

    name: str
    priority: int
    enqueued_ns: int
    attempts: int
    kind: str
    affinity: str | None
    task_id: str


def _entry_name(
    priority: int, enqueued_ns: int, attempts: int, kind: str,
    affinity: str | None, task_id: str,
) -> str:
    """Render a queue entry name (sortable: priority then FIFO)."""
    return (
        f"{_PRIORITY_OFFSET - priority:010d}.{enqueued_ns:020d}."
        f"{attempts:02d}.{kind}.{affinity or '-'}.{task_id}.task"
    )


def _parse_entry_name(name: str) -> _EntryMeta | None:
    """Parse a queue entry name; ``None`` when it is not one of ours."""
    parts = name.split(".")
    if len(parts) != 7 or parts[6] != "task":
        return None
    try:
        inverted, enqueued_ns, attempts = int(parts[0]), int(parts[1]), int(parts[2])
    except ValueError:
        return None
    kind, affinity, task_id = parts[3], parts[4], parts[5]
    if kind not in ("job", "call") or not task_id:
        return None
    return _EntryMeta(
        name=name,
        priority=_PRIORITY_OFFSET - inverted,
        enqueued_ns=enqueued_ns,
        attempts=attempts,
        kind=kind,
        affinity=None if affinity == "-" else affinity,
        task_id=task_id,
    )


class FilesystemBroker(Broker):
    """Task queue over a shared directory (see the module docstring).

    ``result_ttl`` bounds the results tier: at-least-once delivery can
    leave orphaned result files (a redelivered duplicate completing
    after the submitter consumed the original and moved on), so the
    requeue sweep garbage-collects results older than the TTL.  Live
    results are consumed by their executor within a poll interval of
    being written, orders of magnitude below any sane TTL.
    """

    def __init__(
        self, root: "str | Path", url: str | None = None,
        result_ttl: float = 3600.0,
    ):
        self.root = Path(root)
        self.url = url if url is not None else str(root)
        self.result_ttl = result_ttl
        self._last_result_sweep = 0.0
        for sub in ("queue", "claimed", "leases", "results", "quarantine",
                    "affinity", "tmp"):
            (self.root / sub).mkdir(parents=True, exist_ok=True)

    # -- atomic primitives -------------------------------------------------

    def _stage(self, data: bytes) -> Path:
        staging = self.root / "tmp" / f"{uuid.uuid4().hex}.tmp"
        staging.write_bytes(data)
        return staging

    def _write_atomic(self, path: Path, data: bytes) -> None:
        os.replace(self._stage(data), path)

    def _create_atomic(self, path: Path, data: bytes) -> bool:
        """Write ``path`` only when it does not exist yet (``False`` if it does)."""
        staging = self._stage(data)
        try:
            os.link(staging, path)
        except FileExistsError:
            return False
        finally:
            self._unlink_quiet(staging)
        return True

    @staticmethod
    def _read_json(path: Path) -> dict | None:
        """A lease/affinity record; ``None`` unless an object with a numeric deadline."""
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        well_formed = isinstance(record, dict) and isinstance(
            record.get("deadline", 0.0), (int, float))
        return record if well_formed else None

    @staticmethod
    def _unlink_quiet(path: Path) -> bool:
        try:
            path.unlink()
        except OSError:
            return False
        return True

    def _held_elsewhere(self, path: Path, worker: str | None) -> bool:
        """Whether ``path`` records a live ownership by another worker.

        ``worker=None`` counts every live record, whatever it names.
        """
        current = self._read_json(path)
        return (
            current is not None
            and current.get("worker") != worker
            and current.get("deadline", 0.0) > time.time()
        )

    def _take_ownership(self, path: Path, record: dict, refresh: bool = False) -> bool:
        """Create (or take over an expired) ``{worker, deadline}`` file.

        The shared primitive behind task leases and affinity ownership:
        exclusive create wins outright; an existing file is taken over
        only when it is expired or unreadable, or — with ``refresh``,
        for affinity keys — already ours.  A live task lease is never
        taken over, whatever worker it names: two processes started
        with one worker id must not take each other's claims.  The
        create hard-links a fully written staging file into place: a
        racing claimant must never read a half-written file, count it
        unreadable and take over the live ownership it records.
        """
        mine = record["worker"] if refresh else None
        if self._held_elsewhere(path, mine):
            return False
        data = json.dumps(record).encode("utf-8")
        if self._create_atomic(path, data):
            return True
        if self._held_elsewhere(path, mine):
            return False
        self._write_atomic(path, data)
        return True

    # -- lease files -------------------------------------------------------

    def _lease_path(self, task_id: str) -> Path:
        return self.root / "leases" / f"{task_id}.json"

    def _lease_record(self, worker: str, lease: float, name: str) -> dict:
        return {"worker": worker, "deadline": time.time() + lease, "name": name}

    def _try_take_lease(self, task_id: str, worker: str, lease: float,
                        name: str) -> dict | None:
        """Take the task's lease: the record written, or ``None`` when it is held."""
        record = self._lease_record(worker, lease, name)
        return record if self._take_ownership(self._lease_path(task_id), record) else None

    def _release_lease_if_mine(self, task_id: str, record: dict) -> None:
        """Drop the task's lease only when it still holds ``record``.

        A claimant that lost the queue->claimed rename race must not
        unlink unconditionally: the rename winner has re-asserted the
        lease by then — possibly under the same worker id — and deleting
        it would make the winner's claim look expired (requeued while
        healthy).
        """
        path = self._lease_path(task_id)
        if self._read_json(path) == record:
            self._unlink_quiet(path)

    def _holds(self, claim: Claim) -> bool:
        """Whether the task's lease still records ``claim`` (worker and entry)."""
        current = self._read_json(self._lease_path(claim.envelope.task_id))
        return (
            current is not None
            and current.get("worker") == claim.worker
            and current.get("name") == claim.token
        )

    # -- requeue, park and heal --------------------------------------------

    def _requeue(self, meta: _EntryMeta) -> bool:
        """Requeue a claimed entry (``attempts + 1``); ``False`` if the rename loses."""
        fresh = _entry_name(
            meta.priority, time.time_ns(), meta.attempts + 1,
            meta.kind, meta.affinity, meta.task_id,
        )
        try:
            os.rename(self.root / "claimed" / meta.name, self.root / "queue" / fresh)
        except OSError:
            return False
        return True

    def _park(self, path: Path, reason: str, error: str | None = None,
              worker: str = "") -> bool:
        """Move a bad task file into ``quarantine/``; ``False`` when the rename loses.

        Only the rename winner writes the ``<file name>.reason`` sidecar
        and — given ``error`` and a task entry name — an error result,
        so executors awaiting the task fail fast.  The error never
        replaces an existing result: that is a finished task's answer.
        Callers holding the task's lease drop it themselves.
        """
        try:
            os.rename(path, self.root / "quarantine" / path.name)
        except OSError:
            return False
        self._write_atomic(
            self.root / "quarantine" / f"{path.name}.reason", reason.encode("utf-8")
        )
        meta = _parse_entry_name(path.name)
        if error is not None and meta is not None:
            self._create_atomic(
                self.root / "results" / f"{meta.task_id}.res",
                frame_bytes(encode_result(error=error, worker=worker)),
            )
        return True

    def _heal(self, task_id: str, exc: IntegrityError) -> bytes:
        """Replace a result that failed its checksum by an error envelope.

        The corrupt file moves to ``quarantine/<task_id>.res.bad`` for
        post-mortem; the replacement gives repeated polls one
        consistent answer.  Returns the replacement envelope.
        """
        path = self.root / "results" / f"{task_id}.res"
        try:
            os.replace(path, self.root / "quarantine" / f"{path.name}.bad")
        except OSError:
            pass
        replacement = encode_result(
            error=f"result for task {task_id} failed its checksum: {exc}"
        )
        self._write_atomic(path, frame_bytes(replacement))
        return replacement

    # -- affinity ownership ------------------------------------------------

    def _affinity_path(self, key: str) -> Path:
        return self.root / "affinity" / f"{key}.json"

    def _acquire_affinity(self, key: str, worker: str, lease: float) -> bool:
        """Acquire/refresh per-log ownership; ``False`` when owned elsewhere."""
        deadline = time.time() + max(lease * _AFFINITY_LEASE_FACTOR, 10.0)
        return self._take_ownership(
            self._affinity_path(key), {"worker": worker, "deadline": deadline},
            refresh=True,
        )

    def _refresh_affinity(self, key: str, worker: str, lease: float) -> None:
        current = self._read_json(self._affinity_path(key))
        if current is not None and current.get("worker") == worker:
            self._acquire_affinity(key, worker, lease)

    def _leaseholders(self) -> set[str]:
        """The workers holding a live lease on some task."""
        try:
            names = os.listdir(self.root / "leases")
        except OSError:
            return set()
        now = time.time()
        holders = set()
        for name in names:
            record = self._read_json(self.root / "leases" / name)
            if record is not None and record.get("deadline", 0.0) > now:
                holders.add(record.get("worker"))
        return holders

    def _release_affinity_of(self, key: str, worker: str) -> None:
        """Drop ``worker``'s ownership of ``key`` (it is presumed dead)."""
        path = self._affinity_path(key)
        current = self._read_json(path)
        if current is not None and current.get("worker") == worker:
            self._unlink_quiet(path)

    def release_affinities(self, worker: str) -> None:
        """Release every affinity key ``worker`` owns (clean exit)."""
        try:
            names = os.listdir(self.root / "affinity")
        except OSError:
            return
        for name in names:
            if name.endswith(".json"):
                self._release_affinity_of(name[: -len(".json")], worker)

    # -- Broker API --------------------------------------------------------

    def put(self, envelope: TaskEnvelope) -> None:
        """Enqueue a task (payload file named by its scheduling metadata)."""
        name = _entry_name(
            envelope.priority, time.time_ns(), envelope.attempts,
            envelope.kind, envelope.affinity, envelope.task_id,
        )
        self._write_atomic(self.root / "queue" / name, frame_bytes(envelope.payload))

    def claim(self, worker: str, lease: float) -> Claim | None:
        """Claim the best queued task we may run (see :meth:`Broker.claim`).

        Exclusivity comes from lease-then-rename (see the module doc).
        """
        queue_dir = self.root / "queue"
        try:
            names = sorted(os.listdir(queue_dir))
        except OSError:
            return None
        busy = None  # leaseholders, read at the first foreign-owned key
        for name in names:
            if name.endswith(".tmp"):
                continue
            meta = _parse_entry_name(name)
            if meta is None:
                # Foreign junk in the queue directory: park it so the
                # claim scan never trips over it again.
                self._park(queue_dir / name, "unparsable queue entry")
                continue
            # A duplicate delivery of an already-finished task: drop it,
            # and its lease unless a live claim holds it (the finisher
            # may still be completing: ``complete`` reads the lease).
            if (self.root / "results" / f"{meta.task_id}.res").exists():
                self._unlink_quiet(queue_dir / name)
                if not self._held_elsewhere(self._lease_path(meta.task_id), None):
                    self._unlink_quiet(self._lease_path(meta.task_id))
                continue
            if meta.affinity is not None and not self._acquire_affinity(
                meta.affinity, worker, lease
            ):
                # Owned by another live worker: steal only from a busy
                # owner; an idle one takes the task at its next poll.
                owner = self._read_json(self._affinity_path(meta.affinity))
                if busy is None:
                    busy = self._leaseholders()
                if owner is None or owner.get("worker") not in busy:
                    continue
            record = self._try_take_lease(meta.task_id, worker, lease, name)
            if record is None:
                continue
            try:
                os.rename(queue_dir / name, self.root / "claimed" / name)
            except OSError:
                self._release_lease_if_mine(meta.task_id, record)
                continue
            # We own the claim now; assert the lease unconditionally in
            # case a racing claimant took it over (expired) between
            # take and rename.
            record = self._lease_record(worker, lease, name)
            self._write_atomic(self._lease_path(meta.task_id), json.dumps(record).encode())
            try:
                payload = unframe_bytes((self.root / "claimed" / name).read_bytes())
            except OSError:
                # Requeued from under us in the same instant; let go.
                self._release_lease_if_mine(meta.task_id, record)
                continue
            except IntegrityError as exc:
                # Torn or corrupted payload: never hand it to a worker.
                reason = f"payload checksum failed: {exc}"
                if self._park(self.root / "claimed" / name, reason,
                              f"task quarantined: {reason}", worker):
                    self._unlink_quiet(self._lease_path(meta.task_id))
                continue
            envelope = TaskEnvelope(
                task_id=meta.task_id, kind=meta.kind, payload=payload,
                priority=meta.priority, affinity=meta.affinity,
                attempts=meta.attempts,
            )
            return Claim(
                envelope=envelope, worker=worker,
                deadline=time.time() + lease, token=name,
            )
        return None

    def heartbeat(self, claim: Claim, lease: float) -> bool:
        """Renew the task lease (and affinity); ``False`` once the claim is lost."""
        task_id = claim.envelope.task_id
        if not self._holds(claim):
            return False
        if not (self.root / "claimed" / str(claim.token)).exists():
            return False  # requeued from under us
        record = self._lease_record(claim.worker, lease, str(claim.token))
        self._write_atomic(self._lease_path(task_id), json.dumps(record).encode())
        if claim.envelope.affinity is not None:
            self._refresh_affinity(claim.envelope.affinity, claim.worker, lease)
        claim.deadline = time.time() + lease
        return True

    def complete(self, claim: Claim, payload: bytes) -> bool:
        """Record the result; clean up the claim when it is still ours."""
        task_id = claim.envelope.task_id
        self._write_atomic(
            self.root / "results" / f"{task_id}.res", frame_bytes(payload)
        )
        fresh = self._holds(claim)
        if fresh:
            self._unlink_quiet(self.root / "claimed" / str(claim.token))
            self._unlink_quiet(self._lease_path(task_id))
        return fresh

    def release(self, claim: Claim) -> bool:
        """Hand a claimed task back for redelivery (``attempts + 1``).

        The voluntary twin of the :meth:`requeue_expired` rename: only
        the rename winner requeues, so a concurrent expiry sweep cannot
        double-deliver the task.
        """
        if not self._holds(claim):
            return False  # claim already lost; expiry handles the task
        meta = _parse_entry_name(str(claim.token))
        if meta is None or not self._requeue(meta):
            return False  # requeued/finished from under us
        self._unlink_quiet(self._lease_path(meta.task_id))
        return True

    def quarantine(self, claim: Claim, reason: str) -> None:
        """Park a poisonous claimed task; record an error result.

        A stale claim — its task was requeued and is held elsewhere —
        parks nothing: the claimed entry it names is gone.
        """
        if self._park(self.root / "claimed" / str(claim.token), reason,
                      f"task quarantined: {reason}", claim.worker):
            self._unlink_quiet(self._lease_path(claim.envelope.task_id))

    def requeue_expired(self, max_attempts: int = DEFAULT_MAX_ATTEMPTS) -> int:
        """Requeue lease-expired claimed tasks; exactly once per task.

        A task whose delivery attempts are exhausted is quarantined
        (with an error result, so awaiting executors fail fast) instead
        of crash-looping through the fleet.
        """
        claimed_dir = self.root / "claimed"
        moved = 0
        try:
            names = list(os.listdir(claimed_dir))
        except OSError:
            return 0
        now = time.time()
        for name in names:
            meta = _parse_entry_name(name)
            if meta is None:
                continue
            lease = self._read_json(self._lease_path(meta.task_id))
            if lease is not None and lease.get("deadline", 0.0) > now:
                continue  # live claim
            # The claimant is presumed dead: release its hold on the
            # task's affinity key too, so the redelivered task does not
            # wait out the (longer) affinity lease before another
            # worker may claim it.
            if meta.affinity is not None and lease is not None:
                self._release_affinity_of(meta.affinity, lease.get("worker", ""))
            attempts = meta.attempts + 1
            if attempts >= max_attempts:
                if not self._park(
                    claimed_dir / name,
                    f"delivery attempts exhausted ({attempts})",
                    f"task {meta.task_id} exceeded {max_attempts} "
                    "delivery attempts (worker crash loop?)",
                ):
                    continue  # another requeuer won
            elif not self._requeue(meta):
                continue  # another requeuer won
            self._unlink_quiet(self._lease_path(meta.task_id))
            moved += 1
        self._sweep_stale_results(now)
        return moved

    def _sweep_stale_results(self, now: float) -> None:
        """Garbage-collect orphaned result files past ``result_ttl``."""
        if self.result_ttl is None or now - self._last_result_sweep < (
            self.result_ttl / 10.0
        ):
            return
        self._last_result_sweep = now
        try:
            names = os.listdir(self.root / "results")
        except OSError:
            return
        for name in names:
            path = self.root / "results" / name
            try:
                if now - path.stat().st_mtime > self.result_ttl:
                    path.unlink()
            except OSError:
                continue

    def get_result(self, task_id: str) -> bytes | None:
        """Read a finished task's result envelope (``None`` while pending).

        A result that fails its checksum frame (torn write, bit rot) is
        moved to ``quarantine/`` for post-mortem and replaced in place
        by an explicit error envelope, so the waiting executor fails
        fast with a clear message instead of crashing on a truncated
        pickle — and repeated polls see a consistent answer.
        """
        path = self.root / "results" / f"{task_id}.res"
        try:
            raw = path.read_bytes()
        except OSError:
            return None
        try:
            return unframe_bytes(raw)
        except IntegrityError as exc:
            return self._heal(task_id, exc)

    def forget_result(self, task_id: str) -> None:
        """Delete a consumed result file."""
        self._unlink_quiet(self.root / "results" / f"{task_id}.res")

    def request_stop(self) -> None:
        """Raise the cooperative stop flag for worker loops."""
        self._write_atomic(self.root / "stop", b"stop")

    def clear_stop(self) -> None:
        """Lower the stop flag (new executors reuse old broker dirs)."""
        self._unlink_quiet(self.root / "stop")

    def stop_requested(self) -> bool:
        """Whether the stop flag is raised."""
        return (self.root / "stop").exists()

    def stats(self) -> dict:
        """Live directory-depth counters."""
        def count(sub: str, suffix: str) -> int:
            try:
                return sum(
                    1 for name in os.listdir(self.root / sub)
                    if name.endswith(suffix)
                )
            except OSError:
                return 0

        return {
            "backend": "fs",
            "queued": count("queue", ".task"),
            "claimed": count("claimed", ".task"),
            "results": count("results", ".res"),
            "quarantined": count("quarantine", ".task"),
        }


def _task_file_fault(path: Path) -> str | None:
    """Why a queue/claimed file cannot run (``None``: it can); OSError if unreadable."""
    if _parse_entry_name(path.name) is None:
        return "unparsable entry name"
    try:
        payload = unframe_bytes(path.read_bytes())
    except IntegrityError as exc:
        return f"payload checksum failed: {exc}"
    try:
        pickle.loads(payload)
    except Exception as exc:  # noqa: BLE001 - any decode failure
        return f"payload does not decode: {exc}"
    return None


def scan_directory(
    root: "str | Path", *, repair: bool = True, tmp_max_age: float = 0.0
) -> dict:
    """Verify (and repair) a broker directory offline; see ``fsck_broker``.

    Repairs go through the live paths' park and heal primitives.  With
    ``repair=False`` nothing is created, moved or removed — not even the
    sub-directories a :class:`FilesystemBroker` would create.
    """
    root = Path(root)
    report: dict = {
        "root": str(root),
        "present": (root / "queue").is_dir(),
        "scanned": 0,
        "ok": 0,
        "quarantined": [],
        "orphaned_leases_removed": [],
        "expired_affinities_removed": [],
        "tmp_removed": [],
    }
    if not report["present"]:
        return report
    broker = FilesystemBroker(root) if repair else None
    live_tasks = set()
    for sub in ("queue", "claimed"):
        for path in sorted((root / sub).glob("*")):
            if not path.is_file() or path.name.endswith(".tmp"):
                continue
            report["scanned"] += 1
            try:
                reason = _task_file_fault(path)
            except OSError:
                continue  # claimed/ can race a live worker; skip
            if reason is None:
                live_tasks.add(_parse_entry_name(path.name).task_id)
                report["ok"] += 1
            elif broker is None or broker._park(
                path, reason, f"task quarantined by fsck: {reason}"
            ):
                report["quarantined"].append(
                    {"path": str(path.relative_to(root)), "error": reason}
                )

    for path in sorted((root / "results").glob("*.res")):
        report["scanned"] += 1
        task_id = path.name[: -len(".res")]
        try:
            unframe_bytes(path.read_bytes())
        except OSError:
            continue
        except IntegrityError as exc:
            if broker is not None:
                broker._heal(task_id, exc)
            report["quarantined"].append(
                {"path": str(path.relative_to(root)),
                 "error": f"result checksum failed: {exc}"}
            )
            continue
        report["ok"] += 1
        live_tasks.add(task_id)

    # A lease whose task has no queue/claimed entry and no result is
    # orphaned (its owner died mid-claim); an unreadable one is dropped.
    for path in sorted((root / "leases").glob("*.json")):
        if (
            FilesystemBroker._read_json(path) is not None
            and path.name[: -len(".json")] in live_tasks
        ):
            continue
        if broker is None or broker._unlink_quiet(path):
            report["orphaned_leases_removed"].append(str(path.relative_to(root)))

    now = time.time()
    for path in sorted((root / "affinity").glob("*.json")):
        record = FilesystemBroker._read_json(path)
        if record is not None and record.get("deadline", 0.0) > now:
            continue
        if broker is None or broker._unlink_quiet(path):
            report["expired_affinities_removed"].append(str(path.relative_to(root)))

    tidy = sweep_stale_tmp if repair else stale_tmp_files
    report["tmp_removed"] = tidy(
        root / "tmp", max_age=tmp_max_age, patterns=("*.tmp",)
    )
    removed = ("quarantined", "orphaned_leases_removed", "expired_affinities_removed")
    report["repaired"] = sum(len(report[key]) for key in removed) if repair else 0
    return report
