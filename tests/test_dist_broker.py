"""Broker contract tests over the zero-dependency filesystem broker.

The distributed runtime's correctness rests on four broker
guarantees exercised here:

* **exclusive claims** — two workers never both hold a live lease;
* **exactly-once requeue** — a lease-expired task is redelivered once,
  however many concurrent ``requeue_expired`` sweeps observe it, and a
  task that exhausts its delivery budget is quarantined with an error
  result instead of crash-looping;
* **idempotent duplicate delivery** — a stale completion (the original
  worker finishing after its lease lapsed) is recorded, reported as
  stale, and never corrupts the result channel; queued duplicates of a
  finished task are dropped at claim time;
* **work-conserving affinity** — a key's tasks go to its owner while
  the owner is free, and to any claimer while the owner holds a live
  claim; such a steal never takes the key.
"""

import pickle
import sys
import threading
import time

import pytest

from repro.exceptions import ReproError
from repro.service.dist.broker import (
    TaskEnvelope,
    connect_broker,
    decode_result,
    encode_result,
    new_task_id,
)
from repro.service.dist.fsbroker import FilesystemBroker
from repro.service.dist.worker import default_worker_id, worker_loop
from repro.service.fsck import fsck_report
from repro.service.journal import frame_bytes


@pytest.fixture(params=["fs"])
def broker(tmp_path):
    """A filesystem broker on a fresh directory (``fs`` labels the ids)."""
    made = FilesystemBroker(tmp_path / "queue")
    yield made
    made.close()


def _task(payload=b"", priority=0, affinity=None, kind="call"):
    return TaskEnvelope(
        task_id=new_task_id(),
        kind=kind,
        payload=payload or pickle.dumps((_noop, (), {})),
        priority=priority,
        affinity=affinity,
    )


def _noop(*args, cache=None, **kwargs):
    """Module-level no-op task body (picklable)."""
    return "ok"


def _boom(*args, cache=None, **kwargs):
    """Module-level failing task body (picklable)."""
    raise ValueError("boom")


class TestQueueBasics:
    def test_priority_then_fifo_order(self, broker):
        low = _task(priority=0)
        first_high = _task(priority=5)
        second_high = _task(priority=5)
        for envelope in (low, first_high, second_high):
            broker.put(envelope)
        claimed = [broker.claim("w", lease=30.0).envelope.task_id for _ in range(3)]
        assert claimed == [first_high.task_id, second_high.task_id, low.task_id]

    def test_claims_are_exclusive(self, broker):
        task = _task()
        broker.put(task)
        first = broker.claim("w1", lease=30.0)
        second = broker.claim("w2", lease=30.0)
        assert first is not None and first.envelope.task_id == task.task_id
        assert second is None

    def test_empty_queue_claims_none(self, broker):
        assert broker.claim("w", lease=30.0) is None

    def test_complete_records_result(self, broker):
        task = _task()
        broker.put(task)
        claim = broker.claim("w", lease=30.0)
        assert broker.complete(claim, encode_result(value=41)) is True
        record = decode_result(broker.get_result(task.task_id))
        assert record["ok"] and record["value"] == 41
        broker.forget_result(task.task_id)
        assert broker.get_result(task.task_id) is None
        assert broker.stats()["claimed"] == 0

    def test_stop_flag_round_trip(self, broker):
        assert not broker.stop_requested()
        broker.request_stop()
        assert broker.stop_requested()
        broker.clear_stop()
        assert not broker.stop_requested()


class TestLeaseExpiry:
    def test_expired_lease_requeues_exactly_once(self, broker):
        task = _task()
        broker.put(task)
        claim = broker.claim("dead-worker", lease=0.05)
        assert claim is not None
        time.sleep(0.1)
        # Two concurrent sweeps must redeliver the task exactly once.
        moved = broker.requeue_expired() + broker.requeue_expired()
        assert moved == 1
        assert broker.stats()["queued"] == 1 and broker.stats()["claimed"] == 0
        redelivered = broker.claim("live-worker", lease=30.0)
        assert redelivered.envelope.task_id == task.task_id
        assert redelivered.envelope.attempts == 1

    def test_live_lease_is_not_requeued(self, broker):
        broker.put(_task())
        broker.claim("w", lease=30.0)
        assert broker.requeue_expired() == 0
        assert broker.stats()["claimed"] == 1

    def test_heartbeat_extends_the_lease(self, broker):
        broker.put(_task())
        claim = broker.claim("w", lease=0.15)
        for _ in range(4):
            time.sleep(0.05)
            assert broker.heartbeat(claim, lease=0.15) is True
        assert broker.requeue_expired() == 0

    def test_heartbeat_reports_lost_claim(self, broker):
        broker.put(_task())
        claim = broker.claim("w", lease=0.05)
        time.sleep(0.1)
        assert broker.requeue_expired() == 1
        assert broker.heartbeat(claim, lease=30.0) is False

    def test_stale_quarantine_leaves_a_requeued_task_alone(self, broker):
        # A worker whose lease expired may still try to park the task;
        # by then another worker holds it, so the park must do nothing.
        task = _task()
        broker.put(task)
        stale = broker.claim("w1", lease=0.05)
        time.sleep(0.1)
        assert broker.requeue_expired() == 1
        fresh = broker.claim("w2", lease=60.0)
        broker.quarantine(stale, "poison")
        assert broker.get_result(task.task_id) is None
        assert broker.heartbeat(fresh, lease=60.0) is True
        assert broker.complete(fresh, encode_result(value=1)) is True

    @pytest.mark.parametrize("first_lease", [30.0, 0.01], ids=["live", "expired"])
    def test_same_worker_id_never_takes_a_live_lease(self, tmp_path, first_lease):
        # Two processes started with one --worker-id race for one task:
        # B takes the lease, A claims before B's rename.  A live lease
        # is never taken over (A gets nothing and B's claim holds); an
        # expired one is (B's rename then loses, and its cleanup must
        # not delete the lease A wrote).
        a = FilesystemBroker(tmp_path / "queue")
        b = FilesystemBroker(tmp_path / "queue")
        a.put(_task())
        seen = []
        take = b._try_take_lease

        def take_then_race(*args):
            taken = take(*args)
            time.sleep(0.05)
            seen.append(a.claim("w", lease=30.0))
            return taken

        b._try_take_lease = take_then_race
        claims = [claim for claim in [b.claim("w", lease=first_lease), *seen]
                  if claim is not None]
        assert len(claims) == 1
        (winner,) = claims
        owner = a if seen[0] is not None else b
        assert owner.heartbeat(winner, lease=30.0) is True
        assert owner.complete(winner, encode_result(value=1)) is True
        assert a.stats()["claimed"] == 0

    def test_exhausted_attempts_quarantine_with_error_result(self, broker):
        task = _task()
        broker.put(task)
        for attempt in range(3):
            claim = broker.claim(f"dying-{attempt}", lease=0.05)
            assert claim is not None, f"attempt {attempt} found no task"
            time.sleep(0.1)
            broker.requeue_expired(max_attempts=3)
        stats = broker.stats()
        assert stats["queued"] == 0 and stats["claimed"] == 0
        assert stats["quarantined"] == 1
        record = decode_result(broker.get_result(task.task_id))
        assert not record["ok"] and "attempts" in record["error"]


class TestDuplicateDelivery:
    def test_stale_completion_is_recorded_but_flagged(self, broker):
        task = _task()
        broker.put(task)
        slow = broker.claim("slow-worker", lease=0.05)
        time.sleep(0.1)
        assert broker.requeue_expired() == 1
        fast = broker.claim("fast-worker", lease=30.0)
        assert fast.envelope.task_id == task.task_id
        assert broker.complete(fast, encode_result(value="fast")) is True
        # The slow worker finishes afterwards: stale, but harmless.
        assert broker.complete(slow, encode_result(value="slow")) is False
        assert decode_result(broker.get_result(task.task_id))["ok"]
        assert broker.stats()["claimed"] == 0

    def test_queued_duplicate_of_finished_task_is_dropped(self, broker):
        task = _task()
        broker.put(task)
        claim = broker.claim("w", lease=30.0)
        broker.complete(claim, encode_result(value=1))
        # The same task id arrives again (redelivery after a partition).
        broker.put(
            TaskEnvelope(
                task_id=task.task_id, kind=task.kind, payload=task.payload
            )
        )
        assert broker.claim("w", lease=30.0) is None
        assert broker.stats()["queued"] == 0

    def test_dropping_a_finished_duplicate_keeps_the_live_lease(self, tmp_path):
        broker = FilesystemBroker(tmp_path / "queue")
        task = _task()
        broker.put(task)
        claim = broker.claim("finisher", lease=30.0)
        broker.put(
            TaskEnvelope(task_id=task.task_id, kind=task.kind, payload=task.payload)
        )
        # The finisher is mid-``complete``: its result is written, and
        # it has yet to read its lease to clean up the claimed entry.
        broker._write_atomic(
            broker.root / "results" / f"{task.task_id}.res",
            frame_bytes(encode_result(value=1)),
        )
        assert broker.claim("other", lease=30.0) is None  # the twin is dropped
        assert broker.complete(claim, encode_result(value=1)) is True
        assert broker.stats()["queued"] == 0 and broker.stats()["claimed"] == 0


class TestAffinity:
    def test_affinity_key_sticks_to_first_claimant(self, broker):
        first, second = _task(affinity="abc123"), _task(affinity="abc123")
        broker.put(first)
        broker.put(second)
        owner_claim = broker.claim("owner", lease=30.0)
        assert owner_claim.envelope.task_id == first.task_id
        broker.complete(owner_claim, encode_result(value=1))
        # The owner is live and free: another worker skips the owned
        # key, and the owner picks it up at its next poll.
        assert broker.claim("other", lease=30.0) is None
        assert broker.claim("owner", lease=30.0).envelope.task_id == second.task_id

    def test_idle_worker_steals_from_a_busy_owner(self, broker):
        tasks = [_task(affinity="abc123") for _ in range(3)]
        for task in tasks[:2]:
            broker.put(task)
        owner_claim = broker.claim("owner", lease=30.0)
        # The owner holds a live claim, so another worker runs its next
        # same-key task instead of idling behind it.
        stolen = broker.claim("other", lease=30.0)
        assert stolen is not None and stolen.envelope.task_id == tasks[1].task_id
        assert broker.heartbeat(stolen, lease=30.0)
        broker.complete(stolen, encode_result(value=2))
        broker.complete(owner_claim, encode_result(value=1))
        # Neither the steal nor its heartbeat took the key: with both
        # workers free, the next same-key task still waits for the owner.
        broker.put(tasks[2])
        assert broker.claim("other", lease=30.0) is None
        assert broker.claim("owner", lease=30.0).envelope.task_id == tasks[2].task_id

    def test_concurrent_claimers_share_busy_owners_backlogs(self, broker):
        # More claimers than cores on two keys: while each key's owner
        # holds a claim the others steal its backlog, and claims stay
        # exclusive (a lost update would hand one task out twice).
        tasks = [_task(affinity=f"log-{index % 2}") for index in range(40)]
        for task in tasks:
            broker.put(task)
        claimed: dict[str, list[str]] = {}
        lock = threading.Lock()
        barrier = threading.Barrier(4, timeout=10)

        def claimer(name):
            own = connect_broker(broker.url)
            deadline = time.monotonic() + 30
            try:
                barrier.wait()
                while len(claimed) < len(tasks) and time.monotonic() < deadline:
                    claim = own.claim(name, lease=30.0)
                    if claim is None:  # only idle owners' tasks are left
                        time.sleep(0.001)
                        continue
                    with lock:
                        claimed.setdefault(claim.envelope.task_id, []).append(name)
                    time.sleep(0.005)  # hold the claim: this worker is busy
                    own.complete(claim, encode_result(value=name))
            finally:
                own.close()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=claimer, args=(f"w{index}",))
                for index in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(claimed) == sorted(task.task_id for task in tasks)
        assert all(len(names) == 1 for names in claimed.values())
        assert len({names[0] for names in claimed.values()}) > 2
        assert broker.stats()["queued"] == 0 and broker.stats()["claimed"] == 0

    def test_dead_worker_releases_its_affinity_hold(self, broker):
        # Affinity ownership leases are much longer than task leases;
        # requeueing a dead worker's task must release its hold so the
        # redelivery is claimable *immediately*, not after the affinity
        # lease runs out.
        task = _task(affinity="sticky")
        broker.put(task)
        assert broker.claim("dead-worker", lease=0.05) is not None
        time.sleep(0.1)
        assert broker.requeue_expired() == 1
        rescued = broker.claim("survivor", lease=30.0)
        assert rescued is not None and rescued.envelope.task_id == task.task_id

    def test_clean_worker_exit_releases_affinity(self, broker):
        # A worker that exits cleanly (max_tasks/idle_exit/stop) must
        # hand its logs back immediately; otherwise queued same-log
        # tasks stall until the long affinity ownership lease expires.
        first, second = _task(affinity="hot-log"), _task(affinity="hot-log")
        broker.put(first)
        worker_loop(broker, lease=30.0, poll_interval=0.01, max_tasks=1,
                    idle_exit=0.5)
        broker.put(second)
        rescued = broker.claim("successor", lease=30.0)
        assert rescued is not None and rescued.envelope.task_id == second.task_id

    def test_unrelated_affinity_keys_spread(self, broker):
        broker.put(_task(affinity="log-a"))
        broker.put(_task(affinity="log-b"))
        assert broker.claim("w1", lease=30.0) is not None
        assert broker.claim("w2", lease=30.0) is not None


class TestCorruptEntries:
    def test_unpicklable_payload_is_quarantined_not_crash_looped(self, broker):
        broker.put(_task(payload=b"\x00this is not a pickle"))
        good = _task()
        broker.put(good)
        stats = worker_loop(
            broker, lease=5.0, poll_interval=0.01, idle_exit=0.5, max_attempts=3
        )
        # The first deliveries might be transient corruption, so they
        # are released for redelivery; the poison burns its delivery
        # budget and quarantines instead of crash-looping the loop.
        assert stats.released == 2
        assert stats.quarantined == 1
        assert stats.completed == 1  # the loop survived and ran the good task
        assert broker.stats()["quarantined"] == 1
        assert decode_result(broker.get_result(good.task_id))["ok"]

    @pytest.mark.parametrize(
        "record", ["[]", "7", '"w"', "{torn", '{"worker": "w0", "deadline": "soon"}'])
    def test_unreadable_affinity_file_is_taken_over(self, broker, record):
        # Anything but a JSON object with a numeric deadline is an
        # unreadable ownership record: the claim takes the key over
        # instead of failing on it.
        task = _task(affinity="log")
        (broker.root / "affinity" / "log.json").write_text(record)
        broker.put(task)
        claim = broker.claim("w", lease=30.0)
        assert claim is not None and claim.envelope.task_id == task.task_id

    def test_foreign_file_in_fs_queue_is_parked(self, tmp_path):
        broker = FilesystemBroker(tmp_path / "queue")
        (tmp_path / "queue" / "queue" / "not-a-task.json").write_text("{}")
        assert broker.claim("w", lease=30.0) is None
        assert broker.stats()["quarantined"] == 0  # only .task files count
        assert not (tmp_path / "queue" / "queue" / "not-a-task.json").exists()

    def test_failing_task_completes_with_error_envelope(self, broker):
        task = TaskEnvelope(
            task_id=new_task_id(), kind="call",
            payload=pickle.dumps((_boom, (), {})),
        )
        broker.put(task)
        stats = worker_loop(
            broker, lease=5.0, poll_interval=0.01, max_tasks=1, idle_exit=0.2
        )
        assert stats.failed == 1 and stats.quarantined == 0
        record = decode_result(broker.get_result(task.task_id))
        assert not record["ok"] and "boom" in record["error"]
        assert isinstance(record.get("exception"), ValueError)


class TestResultHygiene:
    def test_orphaned_results_are_garbage_collected(self, tmp_path):
        # A redelivered duplicate can complete after the submitter
        # consumed the original result and moved on; the orphan must
        # not accumulate forever in the shared store.
        broker = FilesystemBroker(tmp_path / "queue", result_ttl=0.05)
        task = _task()
        broker.put(task)
        claim = broker.claim("w", lease=30.0)
        broker.complete(claim, encode_result(value=1))
        assert broker.stats()["results"] == 1
        time.sleep(0.1)
        broker.requeue_expired()
        assert broker.stats()["results"] == 0


class TestWorkerResilience:
    def test_transient_claim_errors_do_not_kill_the_loop(self, broker):
        task = _task()
        broker.put(task)
        original_claim = broker.claim
        hiccups = {"left": 2}

        def flaky_claim(worker, lease):
            if hiccups["left"]:
                hiccups["left"] -= 1
                raise OSError("transient broker hiccup")
            return original_claim(worker, lease)

        broker.claim = flaky_claim
        stats = worker_loop(
            broker, lease=5.0, poll_interval=0.01, max_tasks=1, idle_exit=1.0
        )
        broker.claim = original_claim
        assert stats.completed == 1
        assert stats.broker_errors == 2
        assert decode_result(broker.get_result(task.task_id))["ok"]

    def test_transient_complete_error_is_retried(self, broker):
        task = _task()
        broker.put(task)
        original_complete = broker.complete
        hiccups = {"left": 1}

        def flaky_complete(claim, payload):
            if hiccups["left"]:
                hiccups["left"] -= 1
                raise OSError("transient broker hiccup")
            return original_complete(claim, payload)

        broker.complete = flaky_complete
        stats = worker_loop(
            broker, lease=5.0, poll_interval=0.01, max_tasks=1, idle_exit=1.0
        )
        broker.complete = original_complete
        assert stats.completed == 1
        assert stats.broker_errors == 1
        assert decode_result(broker.get_result(task.task_id))["ok"]


    def test_worker_loops_on_threads_get_distinct_default_names(self):
        # Leases are owned by name: two loops sharing one could take
        # over and then drop each other's task leases.
        names = []
        both_alive = threading.Barrier(2, timeout=10)

        def name_loop():
            both_alive.wait()
            names.append(default_worker_id())

        threads = [threading.Thread(target=name_loop) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(set(names + [default_worker_id()])) == 3


class TestEnvelopes:
    def test_unpicklable_value_degrades_to_error(self):
        record = decode_result(encode_result(value=lambda: None))
        assert not record["ok"] and "picklable" in record["error"]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ReproError):
            TaskEnvelope(task_id="x", kind="mystery", payload=b"")


class TestConnectBroker:
    def test_fs_url_and_bare_path(self, tmp_path):
        for url in (f"fs://{tmp_path}/a", str(tmp_path / "b")):
            made = connect_broker(url)
            assert isinstance(made, FilesystemBroker)
            assert made.url == url

    @pytest.mark.parametrize(
        "url",
        ["kafka://nope", "redis://localhost:6379/0", "sqlite:///q.db"],
        ids=["kafka", "redis", "sqlite"],
    )
    def test_unknown_scheme_rejected(self, url):
        with pytest.raises(ReproError, match="unknown broker URL scheme"):
            connect_broker(url)

    @pytest.mark.parametrize("url, directory, error", [
        ("fs://", None, "needs a directory"),
        ("sqlite:///q.db", None, "unknown broker URL scheme"),
        ("redis://h", None, "unknown broker URL scheme"),
        ("fs://{tmp}/queue", "{tmp}/queue", None),
        ("{tmp}/queue", "{tmp}/queue", None),
    ], ids=["fs-without-directory", "sqlite", "redis", "fs", "bare-path"])
    def test_fsck_resolves_urls_like_connect_broker(
        self, tmp_path, url, directory, error
    ):
        # fsck must open exactly the directory a worker would, and
        # refuse exactly the URLs connect_broker refuses.
        url = url.format(tmp=tmp_path)
        if error is not None:
            with pytest.raises(ReproError, match=error):
                connect_broker(url)
            with pytest.raises(ReproError, match=error):
                fsck_report(broker=url)
            return
        directory = directory.format(tmp=tmp_path)
        with connect_broker(url) as made:
            assert str(made.root) == directory
        assert fsck_report(broker=url)["broker"]["root"] == directory
