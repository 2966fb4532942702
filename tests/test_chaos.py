"""Seeded chaos drills: the executor stack under injected broker faults.

:class:`~repro.service.dist.chaos.ChaosBroker` replays a deterministic
fault schedule (claim failures, dropped heartbeats, duplicated and
delayed completions, corrupt first-delivery payloads) over a real
broker.  Under every schedule the invariants must hold: every job
completes exactly once with results byte-identical to the sequential
reference, nothing is lost, nothing good is quarantined, and the queue
drains clean.
"""

import pickle
import threading
import time

import pytest

from repro.constraints import ConstraintSet, MaxDistinctClassAttribute, MaxGroupSize
from repro.eventlog.events import ROLE_KEY
from repro.service import AbstractionJob, LogRef, SequentialExecutor
from repro.service.dist import (
    ChaosBroker,
    ChaosConfig,
    ChaosError,
    Claim,
    DistributedExecutor,
    TaskEnvelope,
    connect_broker,
    decode_result,
    new_task_id,
    worker_loop,
)
from repro.service.dist.worker import _Heartbeat
from repro.service.serialization import result_signature


def _jobs():
    return [
        AbstractionJob(
            log=LogRef.builtin("running_example"),
            constraints=ConstraintSet([MaxGroupSize(3)]),
            job_id="re-size3",
        ),
        AbstractionJob(
            log=LogRef.builtin("running_example"),
            constraints=ConstraintSet([MaxGroupSize(5)]),
            job_id="re-size5",
        ),
        AbstractionJob(
            log=LogRef.builtin("running_example"),
            constraints=ConstraintSet([MaxDistinctClassAttribute(ROLE_KEY, 1)]),
            job_id="re-roles",
        ),
    ]


def _broker_url(tmp_path):
    return f"fs://{tmp_path / 'queue'}"


#: The adversarial (but recoverable) schedule the identity drill runs.
_DRILL = dict(
    claim_failure_rate=0.15,
    heartbeat_drop_rate=0.2,
    complete_duplicate_rate=0.2,
    complete_delay_rate=0.25,
    complete_delay_polls=2,
    corrupt_claim_rate=0.2,
)


class TestSeededSchedules:
    # ``broker_kind`` only labels the backend under test in the ids.
    @pytest.mark.parametrize("broker_kind", ["fs"])
    @pytest.mark.parametrize("seed", [11, 23, 37])
    def test_byte_identity_and_exactly_once_under_chaos(
        self, tmp_path, broker_kind, seed
    ):
        jobs = _jobs()
        reference = {
            job.job_id: result_signature(SequentialExecutor().submit(job).result())
            for job in jobs
        }
        inner = connect_broker(_broker_url(tmp_path))
        broker = ChaosBroker(inner, ChaosConfig(seed=seed, **_DRILL))
        executor = DistributedExecutor(
            broker, workers=0, lease=5.0, poll_interval=0.02
        )
        worker_stats = []
        workers = [
            threading.Thread(
                target=lambda: worker_stats.append(
                    worker_loop(broker, lease=5.0, poll_interval=0.02)
                ),
                daemon=True,
            )
            for _ in range(2)
        ]
        try:
            for thread in workers:
                thread.start()
            handles = [(job, executor.submit(job)) for job in jobs]
            for job, handle in handles:
                # "No job lost": every handle resolves well before the
                # timeout, whatever the schedule injected.
                result = handle.result(timeout=120)
                assert result_signature(result) == reference[job.job_id]
        finally:
            broker.request_stop()
            for thread in workers:
                thread.join(timeout=20)
            executor.shutdown()
        assert not any(thread.is_alive() for thread in workers)
        # Exactly once, nothing stranded: the queue drained completely
        # and no good job was quarantined by an injected fault.
        state = broker.stats()
        assert state["queued"] == 0
        assert state["claimed"] == 0
        assert state["quarantined"] == 0
        assert sum(stats.quarantined for stats in worker_stats) == 0
        inner.close()

    def test_same_seed_same_schedule(self):
        class _Dummy:
            url = ""

        config = ChaosConfig(seed=42, claim_failure_rate=0.5,
                             heartbeat_drop_rate=0.5)
        first = ChaosBroker(_Dummy(), config)
        second = ChaosBroker(_Dummy(), config)
        rolls = [
            (op, rate)
            for _ in range(50)
            for op, rate in (("claim", 0.5), ("heartbeat", 0.5))
        ]
        assert [first._roll(op, rate) for op, rate in rolls] == [
            second._roll(op, rate) for op, rate in rolls
        ]
        # A different seed draws a different schedule.
        third = ChaosBroker(_Dummy(), ChaosConfig(seed=43, claim_failure_rate=0.5,
                                                  heartbeat_drop_rate=0.5))
        assert [first._roll(op, rate) for op, rate in rolls] != [
            third._roll(op, rate) for op, rate in rolls
        ]


def _echo_call(value, cache=None):
    """Module-level call body (picklable by reference)."""
    return value


class TestCorruptPayloads:
    def test_corrupt_first_delivery_is_released_then_completed_clean(
        self, tmp_path
    ):
        inner = connect_broker(_broker_url(tmp_path))
        broker = ChaosBroker(inner, ChaosConfig(seed=1, corrupt_claim_rate=1.0))
        task_id = new_task_id()
        broker.put(TaskEnvelope(
            task_id=task_id, kind="call",
            payload=pickle.dumps((_echo_call, ("payload-ok",), {})),
        ))
        stats = worker_loop(
            broker, lease=5.0, poll_interval=0.01, max_tasks=1, idle_exit=10.0
        )
        # First delivery arrived corrupted -> voluntary release; the
        # redelivery (attempts=1) is exempt from corruption and runs.
        assert stats.released == 1
        assert stats.completed == 1
        assert stats.quarantined == 0
        record = decode_result(broker.get_result(task_id))
        assert record["ok"] is True and record["value"] == "payload-ok"
        assert broker.stats()["chaos"]["corrupt_claims"] == 1
        inner.close()

    def test_truly_poisonous_payload_quarantines_after_attempts(self, tmp_path):
        broker = connect_broker(_broker_url(tmp_path))
        task_id = new_task_id()
        broker.put(TaskEnvelope(task_id=task_id, kind="call",
                                payload=b"\xffnot-a-pickle"))
        stats = worker_loop(
            broker, lease=5.0, poll_interval=0.01, idle_exit=0.5,
            max_attempts=3,
        )
        # Two voluntary releases burn the delivery budget; the third
        # delivery quarantines instead of crash-looping the fleet.
        assert stats.released == 2
        assert stats.quarantined == 1
        assert broker.stats()["quarantined"] == 1
        record = decode_result(broker.get_result(task_id))
        assert record["ok"] is False and "quarantined" in record["error"]
        broker.close()

    @pytest.mark.parametrize("broker_kind", ["fs"])
    def test_release_requeues_with_attempts_plus_one(self, tmp_path, broker_kind):
        broker = connect_broker(_broker_url(tmp_path))
        broker.put(TaskEnvelope(task_id=new_task_id(), kind="call",
                                payload=b"x"))
        claim = broker.claim("w1", lease=5.0)
        assert claim is not None and claim.envelope.attempts == 0
        assert broker.release(claim) is True
        assert broker.release(claim) is False  # claim already gone
        redelivered = broker.claim("w2", lease=5.0)
        assert redelivered is not None
        assert redelivered.envelope.attempts == 1
        broker.close()


class TestWorkerResilience:
    def test_claim_failures_are_retried_not_fatal(self, tmp_path):
        inner = connect_broker(_broker_url(tmp_path))
        broker = ChaosBroker(inner, ChaosConfig(seed=5, claim_failure_rate=1.0))
        stats_box = []
        thread = threading.Thread(
            target=lambda: stats_box.append(
                worker_loop(broker, lease=5.0, poll_interval=0.01)
            ),
            daemon=True,
        )
        thread.start()
        time.sleep(0.4)
        broker.request_stop()
        thread.join(timeout=10)
        assert not thread.is_alive()
        (stats,) = stats_box
        # Every claim raised ChaosError; the loop absorbed them all.
        assert stats.broker_errors > 0
        assert stats.completed == 0 and stats.quarantined == 0
        inner.close()

    def test_heartbeat_counts_misses_and_fails_lease_fast(self):
        class _PartitionedBroker:
            def heartbeat(self, claim, lease):
                raise ChaosError("injected heartbeat drop")

        claim = Claim(
            envelope=TaskEnvelope(task_id="t", kind="call", payload=b"x"),
            worker="w", deadline=0.0,
        )
        errors = []
        beat = _Heartbeat(
            _PartitionedBroker(), claim, lease=0.06,
            on_error=errors.append, max_misses=2,
        )
        with beat:
            deadline = time.time() + 5.0
            while not beat.lost and time.time() < deadline:
                time.sleep(0.01)
        # Two consecutive misses fail the lease fast: renewal stops, so
        # the lease expires and the task is redelivered elsewhere.
        assert beat.lost is True
        assert beat.misses == 2
        assert len(errors) == 2

    def test_heartbeat_miss_counter_surfaces_in_worker_stats(self, tmp_path):
        inner = connect_broker(_broker_url(tmp_path))
        broker = ChaosBroker(inner, ChaosConfig(seed=9, heartbeat_drop_rate=1.0))
        broker.put(TaskEnvelope(
            task_id=new_task_id(), kind="call",
            payload=pickle.dumps((_sleep_then_echo, (0.2, "ok"), {})),
        ))
        # lease=0.15 -> heartbeat interval 0.05; every beat drops while
        # the 0.2s task runs, so the miss counter must move.
        stats = worker_loop(
            broker, lease=0.15, poll_interval=0.01, max_tasks=1,
            idle_exit=10.0, heartbeat_max_misses=100,
        )
        assert stats.completed == 1
        assert stats.heartbeat_errors > 0
        inner.close()


def _sleep_then_echo(seconds, value, cache=None):
    """Module-level slow call body (picklable by reference)."""
    time.sleep(seconds)
    return value


class TestChaosConfig:
    def test_rates_validated(self):
        with pytest.raises(Exception, match="must be in"):
            ChaosConfig(claim_failure_rate=1.5)

    def test_any_faults_and_transparent_proxy(self, tmp_path):
        assert not ChaosConfig().any_faults()
        assert ChaosConfig(put_failure_rate=0.1).any_faults()
        inner = connect_broker(_broker_url(tmp_path))
        broker = ChaosBroker(inner)  # all-zero rates: pure delegation
        task_id = new_task_id()
        broker.put(TaskEnvelope(task_id=task_id, kind="call", payload=b"x"))
        claim = broker.claim("w", lease=5.0)
        assert claim is not None and claim.envelope.payload == b"x"
        assert broker.heartbeat(claim, 5.0) is True
        assert broker.complete(claim, b"done") is True
        assert broker.get_result(task_id) == b"done"
        assert broker.stats()["chaos"]["claim_failures"] == 0
        inner.close()

    def test_from_args_reads_cli_namespace(self):
        import argparse

        namespace = argparse.Namespace(
            chaos_seed=7, chaos_claim_failure_rate=0.3,
            chaos_heartbeat_drop_rate=0.0, chaos_complete_duplicate_rate=0.0,
            chaos_complete_delay_rate=0.0, chaos_corrupt_claim_rate=0.1,
            chaos_put_failure_rate=0.0,
        )
        config = ChaosConfig.from_args(namespace)
        assert config.seed == 7
        assert config.claim_failure_rate == 0.3
        assert config.corrupt_claim_rate == 0.1
        assert ChaosConfig.from_args(argparse.Namespace()) == ChaosConfig()
