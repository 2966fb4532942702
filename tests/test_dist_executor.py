"""DistributedExecutor: byte-identity with sequential + multi-host semantics.

The distributed backend must be a transparent transport: a fleet of
broker-fed workers has to produce exactly what the deterministic
in-process executor produces, build each log's artifacts at most once
per worker, coalesce duplicate submissions, and survive a worker dying
mid-job.
"""

import threading

import pytest

from repro.constraints import ConstraintSet, MaxDistinctClassAttribute, MaxGroupSize
from repro.datasets import running_example_log
from repro.eventlog.events import ROLE_KEY
from repro.exceptions import ReproError
from repro.service import (
    AbstractionJob,
    LogRef,
    SequentialExecutor,
    run_batch,
)
from repro.service.dist import DistributedExecutor, connect_broker, job_affinity_key
from repro.service.dist.worker import worker_loop
from repro.service.serialization import result_signature


def _jobs():
    """A small manifest: two distinct logs, several constraint sets each."""
    from repro.eventlog.events import EventLog

    # A genuinely different log (a prefix of the running example):
    # content-addressing keys by log *content*, so a byte-identical
    # inline copy would share fingerprints with the builtin reference.
    inline = LogRef.inline(
        EventLog(list(running_example_log())[:3]), name="re-prefix"
    )
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
        AbstractionJob(
            log=inline,
            constraints=ConstraintSet([MaxGroupSize(4)]),
            job_id="inline-size4",
        ),
    ]


def _dist_executor(tmp_path, name, workers=2, **kwargs):
    kwargs.setdefault("lease", 5.0)
    kwargs.setdefault("poll_interval", 0.02)
    return DistributedExecutor(
        f"fs://{tmp_path / name}", workers=workers,
        disk_dir=tmp_path / f"{name}-cache", **kwargs
    )


class TestByteIdentity:
    def test_two_worker_fleet_matches_sequential(self, tmp_path):
        jobs = _jobs()
        sequential = [SequentialExecutor().submit(job).result() for job in jobs]
        with _dist_executor(tmp_path, "q") as pool:
            distributed = pool.map(jobs)
            stats = pool.stats()
        for mine, reference in zip(distributed, sequential):
            assert result_signature(mine) == result_signature(reference)
            assert mine.distance == reference.distance
            assert sorted(sorted(group) for group in mine.grouping.groups) == sorted(
                sorted(group) for group in reference.grouping.groups
            )
        # Affinity routing: an idle worker may steal a busy owner's
        # job, so artifacts are built at most once per (worker, log).
        assert stats["workers_total"]["artifact_builds"] <= 2 * 2

    def test_run_batch_over_a_broker(self, tmp_path):
        jobs = _jobs()[:2]
        reference = run_batch([job for job in jobs], workers=1)
        report = run_batch(
            jobs, broker=f"fs://{tmp_path / 'q'}", workers=2,
            disk_dir=tmp_path / "cache",
        )
        assert [row["id"] for row in report.rows] == [
            row["id"] for row in reference.rows
        ]
        for mine, theirs in zip(report.rows, reference.rows):
            for key in ("fingerprint", "feasible", "distance", "groups",
                        "num_candidates", "engine"):
                assert mine[key] == theirs[key], key


class TestCaching:
    def test_duplicate_submissions_coalesce(self, tmp_path):
        job_a, job_b = _jobs()[0], _jobs()[0]
        with _dist_executor(tmp_path, "q", workers=1) as pool:
            first = pool.submit(job_a)
            second = pool.submit(job_b)  # identical fingerprint
            assert first.result(timeout=60) is second.result(timeout=60)
            third = pool.submit(_jobs()[0])  # after completion: cache hit
            assert third.result(timeout=60) is first.result()
            assert third.cached is True

    def test_warm_disk_store_serves_a_cold_executor(self, tmp_path):
        job = _jobs()[0]
        with _dist_executor(tmp_path, "q") as pool:
            cold = pool.submit(job).result(timeout=60)
        # Fresh executor + fresh broker, same disk store: the parent
        # cache reads the fleet's shared result tier, no worker runs.
        with DistributedExecutor(
            f"fs://{tmp_path / 'q2'}", workers=0,
            disk_dir=tmp_path / "q-cache", poll_interval=0.02,
        ) as warm_pool:
            handle = warm_pool.submit(job)
            assert handle.result(timeout=5) is not None
            assert handle.cached is True
            assert result_signature(handle.result()) == result_signature(cold)


class TestFaultTolerance:
    def test_worker_crash_mid_job_is_requeued_and_finished(self, tmp_path):
        broker_url = f"fs://{tmp_path / 'q'}"
        job = _jobs()[0]
        with DistributedExecutor(
            broker_url, workers=0, lease=0.2, poll_interval=0.02
        ) as pool:
            handle = pool.submit(job)
            # A "worker" claims the job and dies silently (no heartbeat,
            # no completion): its lease must expire, the executor's
            # requeue sweep must redeliver, and a healthy late-joining
            # worker must finish the job.
            crasher = connect_broker(broker_url)
            crashed_claim = crasher.claim("crashed-worker", lease=0.2)
            assert crashed_claim is not None
            survivor = threading.Thread(
                target=worker_loop,
                args=(broker_url,),
                kwargs=dict(lease=5.0, poll_interval=0.02, max_tasks=1,
                            idle_exit=10.0),
                daemon=True,
            )
            survivor.start()
            result = handle.result(timeout=60)
            survivor.join(timeout=10)
            assert result.feasible
            assert crashed_claim.envelope.attempts == 0
            crasher.close()

    def test_failing_call_raises_at_the_handle(self, tmp_path):
        with _dist_executor(tmp_path, "q", workers=1) as pool:
            handle = pool.submit_call(_raise_value_error)
            with pytest.raises(ValueError, match="deliberate"):
                handle.result(timeout=60)

    def test_submit_after_shutdown_is_rejected(self, tmp_path):
        pool = _dist_executor(tmp_path, "q", workers=0)
        pool.shutdown()
        with pytest.raises(ReproError, match="shut down"):
            pool.submit(_jobs()[0])


class TestSubmitCallFanOut:
    def test_selection_components_fan_out_over_the_fleet(self, tmp_path):
        from repro.core.distance import DistanceFunction
        from repro.eventlog.events import Event, EventLog, Trace
        from repro.selection2 import select_decomposed

        # Two class clusters that never co-occur: two genuinely
        # independent Step-2 components, solved on different workers.
        traces = [
            Trace([Event(name, {ROLE_KEY: "x"}) for name in ("a", "b")])
            for _ in range(4)
        ] + [
            Trace([Event(name, {ROLE_KEY: "y"}) for name in ("c", "d", "e")])
            for _ in range(4)
        ]
        log = EventLog(traces)
        candidates = {
            frozenset({"a"}), frozenset({"b"}), frozenset({"a", "b"}),
            frozenset({"c"}), frozenset({"d"}), frozenset({"e"}),
            frozenset({"c", "d"}), frozenset({"c", "d", "e"}),
        }
        distance = DistanceFunction(log)
        inline = select_decomposed(log, candidates, distance)
        with _dist_executor(tmp_path, "q", workers=2) as pool:
            routed = select_decomposed(log, candidates, distance, executor=pool)
        assert routed.grouping is not None
        assert set(routed.grouping.groups) == set(inline.grouping.groups)
        assert routed.objective == inline.objective


def _raise_value_error(*args, cache=None, **kwargs):
    """Module-level failing call body (picklable by reference)."""
    raise ValueError("deliberate failure")


class TestAffinityKeys:
    def test_same_log_same_key_distinct_logs_distinct_keys(self):
        jobs = _jobs()
        assert job_affinity_key(jobs[0]) == job_affinity_key(jobs[1])
        assert job_affinity_key(jobs[0]) != job_affinity_key(jobs[3])
