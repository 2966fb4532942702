"""The executor contract, checked once for each transport.

``PoolExecutor`` and ``DistributedExecutor`` share one dispatch core: the
submit front door (parent-cache hits, tenant quotas, ``max_load``
shedding, coalescing, backpressure) and completion bookkeeping.  Every
test here runs against both transports, each with one worker unless it
checks routing, so a front-door behaviour can never hold for one and
silently break on the other.
"""

import dataclasses
import pickle
import threading
import time

import pytest

import repro.service.dist.executor as dist_executor
import repro.service.executor as pool_executor
from repro.constraints import ConstraintSet, MaxGroupSize
from repro.exceptions import ReproError
from repro.obs.trace import read_trace
from repro.service import (
    AbstractionJob,
    ArtifactCache,
    LogRef,
    PoolExecutor,
    SequentialExecutor,
)
from repro.service.dist import DistributedExecutor
from repro.service.dist.broker import Claim, TaskEnvelope, decode_result, new_task_id
from repro.service.dist.worker import run_claimed_task
from repro.service.resilience import AdmissionController, Overloaded
from repro.service.serialization import result_signature

TRANSPORTS = ("pool", "dist")

#: Where each transport computes a job's routing key: without the lock,
#: before the task registers.
ROUTING_KEY = {
    "pool": (pool_executor, "job_prefix"),
    "dist": (dist_executor, "job_affinity_key"),
}


def _job(size=3, **kwargs):
    return AbstractionJob(
        log=LogRef.builtin("running_example"),
        constraints=ConstraintSet([MaxGroupSize(size)]),
        job_id=f"re-size{size}",
        **kwargs,
    )


def _frozen_clock() -> float:
    """Admission clock that never advances: token buckets never refill."""
    return 0.0


def _hold(seconds, cache=None):
    """Occupy a worker (module-level: picklable by reference)."""
    time.sleep(seconds)
    return "slept"


def _outcome(handle, timeout=60):
    """``"ok"``, ``"shed"`` or ``"shut down"``; anything else re-raises."""
    try:
        handle.result(timeout=timeout)
    except Overloaded:
        return "shed"
    except ReproError as exc:
        if "executor is shut down" not in str(exc):
            raise
        return "shut down"
    return "ok"


@pytest.fixture(params=TRANSPORTS)
def transport(request):
    return request.param


@pytest.fixture
def make(transport, tmp_path):
    """Build executors (one worker by default) of the parametrized transport."""
    made = []

    def build(workers=1, **kwargs):
        if transport == "pool":
            executor = PoolExecutor(workers=workers, **kwargs)
        else:
            executor = DistributedExecutor(
                f"fs://{tmp_path / f'q{len(made)}'}", workers=workers,
                lease=5.0, poll_interval=0.02, **kwargs,
            )
        made.append(executor)
        return executor

    yield build
    for executor in made:
        executor.shutdown()


def test_identical_inflight_jobs_coalesce(make):
    executor = make()
    first = executor.submit(_job(3))
    second = executor.submit(_job(3))  # same fingerprint, new object
    assert first.result(timeout=60) is second.result(timeout=60)
    assert second.cached is True
    third = executor.submit(_job(3))  # after completion: a parent-cache hit
    assert third.done() and third.cached is True


def test_two_workers_on_one_log_match_sequential(make):
    # Work-conserving affinity: while the log's owner is busy the other
    # worker steals, so each worker builds the log's artifacts at most
    # once and every result stays byte-identical.
    jobs = [_job(size) for size in (2, 3, 4, 5, 6)]
    executor = make(workers=2)
    handles = [executor.submit(job) for job in jobs]
    results = [handle.result(timeout=120) for handle in handles]
    sequential = SequentialExecutor()
    assert [result_signature(result) for result in results] == [
        result_signature(sequential.submit(job).result()) for job in jobs
    ]
    assert executor.stats()["workers_total"]["artifact_builds"] <= 2 * 1


@pytest.mark.parametrize("kind", ["builtin", "inline"])
def test_results_carry_the_submitters_own_log(make, kind):
    # Workers send results back without the input log; the dispatch
    # core puts back the job's own, resolved when it was fingerprinted.
    ref = LogRef.builtin("running_example")
    if kind == "inline":
        ref = LogRef.inline(ref.resolve())
    jobs = [
        AbstractionJob(log=ref, constraints=ConstraintSet([MaxGroupSize(size)]))
        for size in (3, 5)
    ]
    executor = make()
    results = [
        handle.result(timeout=60) for handle in [executor.submit(job) for job in jobs]
    ]
    sequential = SequentialExecutor()
    for job, result in zip(jobs, results):
        assert result.original_log is job.log.resolve()
        assert result_signature(result) == result_signature(
            sequential.submit(job).result()
        )


def _worker_sends(transport, job, cache, monkeypatch):
    """The result a worker of ``transport`` sends back for ``job``."""
    job = pickle.loads(pickle.dumps(job))  # as the worker receives it
    if transport == "pool":
        monkeypatch.setattr(pool_executor, "_WORKER_CACHE", cache)
        return pool_executor._pool_worker_run(job)[0]
    envelope = TaskEnvelope(new_task_id(), "job", pickle.dumps(job))
    payload, ok = run_claimed_task(Claim(envelope, "w", 0.0), cache, "w")
    assert ok
    return decode_result(payload)["value"]


def test_workers_send_results_without_the_input_log(transport, monkeypatch):
    job = AbstractionJob(
        log=LogRef.inline(LogRef.builtin("running_example").resolve()),
        constraints=ConstraintSet([MaxGroupSize(3)]),
    )
    cache = ArtifactCache()
    for attempt in ("computed", "result-tier hit"):
        sent = _worker_sends(transport, job, cache, monkeypatch)
        assert sent.original_log is None, attempt
        kept = cache.get_result(job.fingerprint().full)
        assert kept.original_log is not None, attempt
        restored = dataclasses.replace(sent, original_log=kept.original_log)
        assert result_signature(restored) == result_signature(kept), attempt


def test_priorities_dispatch_high_first(make, tmp_path):
    trace = tmp_path / "trace.jsonl"
    executor = make(trace=trace)
    # Hold the only worker so both jobs are queued when it frees up.
    blocker = executor.submit_call(_hold, 0.3)
    low = executor.submit(_job(4), priority=0)
    high = executor.submit(_job(5), priority=10)
    assert low.result(timeout=60).feasible and high.result(timeout=60).feasible
    assert blocker.result(timeout=60) == "slept"
    solved = [
        event["fingerprint"] for event in read_trace(trace)
        if event["event"] == "solve"
    ]
    assert solved == [high.fingerprint, low.fingerprint]


def test_submit_after_shutdown_rejected(make):
    executor = make()
    executor.shutdown()
    with pytest.raises(ReproError, match="shut down"):
        executor.submit(_job())


def test_tenant_quota_sheds_typed(make):
    control = AdmissionController(quotas={"acme": (1.0, 0.0)}, clock=_frozen_clock)
    executor = make(admission=control)
    first = executor.submit(_job(3, tenant="acme"))
    second = executor.submit(_job(5, tenant="acme"))
    with pytest.raises(Overloaded, match="admission quota"):
        second.result(timeout=30)
    assert first.result(timeout=60).feasible


def test_cache_hits_are_served_without_charging_quota(make):
    control = AdmissionController(quotas={"acme": (1.0, 0.0)}, clock=_frozen_clock)
    executor = make(admission=control)
    executor.submit(_job(3, tenant="acme")).result(timeout=60)
    repeat = executor.submit(_job(3, tenant="acme"))
    assert repeat.result(timeout=30).feasible
    assert repeat.cached is True


def test_max_load_sheds_lowest_priority_waiting_job(make):
    executor = make(max_load=2)
    blocker = executor.submit_call(_hold, 0.8)
    low = executor.submit(_job(3), priority=0)
    high = executor.submit(_job(5), priority=5)
    with pytest.raises(Overloaded, match="shed at max_load"):
        low.result(timeout=30)
    assert high.result(timeout=60).feasible
    assert blocker.result(timeout=60) == "slept"
    assert executor.stats()["admission"]["shed_load"] == 1


def test_max_load_sheds_incoming_when_nothing_ranks_below(make):
    executor = make(max_load=1)
    blocker = executor.submit_call(_hold, 0.5)
    incoming = executor.submit(_job(3), priority=0)
    with pytest.raises(Overloaded, match="job shed"):
        incoming.result(timeout=30)
    assert blocker.result(timeout=60) == "slept"


def test_concurrent_submitters_never_exceed_max_load(make, transport, monkeypatch):
    submitters, admitted = 4, 2
    executor = make(max_load=admitted + 1)
    blocker = executor.submit_call(_hold, 0.5)
    # Hold every submitter at its routing-key computation, so all of
    # them pass the front door's earlier checks before any registers.
    barrier = threading.Barrier(submitters, timeout=10)
    module, name = ROUTING_KEY[transport]
    routing_key = getattr(module, name)

    def held(job):
        try:
            barrier.wait()
        except threading.BrokenBarrierError:
            pass
        return routing_key(job)

    monkeypatch.setattr(module, name, held)
    handles = [None] * submitters

    def submit(index):
        handles[index] = executor.submit(_job(3 + index))

    threads = [
        threading.Thread(target=submit, args=(index,)) for index in range(submitters)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    outcomes = [_outcome(handle) for handle in handles]
    assert outcomes.count("shed") == submitters - admitted
    assert outcomes.count("ok") == admitted
    assert executor.stats()["admission"]["shed_load"] == submitters - admitted
    assert blocker.result(timeout=60) == "slept"


@pytest.mark.parametrize("wait", [True, False], ids=["wait", "nowait"])
def test_shutdown_fails_queued_handles_typed(make, wait):
    executor = make()
    blocker = executor.submit_call(_hold, 0.5)
    queued = [executor.submit(_job(size)) for size in (3, 4, 5)]
    executor.shutdown(wait=wait)
    assert [_outcome(handle) for handle in queued] == ["shut down"] * 3
    # The pool lets a running task finish; the distributed executor
    # cannot tell running from queued and fails both.
    assert _outcome(blocker) in ("ok", "shut down")

