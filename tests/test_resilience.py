"""The resilience layer: deadlines, admission control, retries, breakers.

Resilience decides *whether and where* a job runs, never *what* it
computes: a job that fits its budget is byte-identical to the
unbudgeted run, a job that does not fails **typed**
(:class:`DeadlineExceeded` / :class:`Overloaded`) — never a hang,
never a silently degraded result.
"""

import json
import socket
import threading
import time

import pytest

from repro.constraints import ConstraintSet, MaxGroupSize
from repro.exceptions import ReproError
from repro.service import (
    AbstractionJob,
    LogRef,
    PoolExecutor,
    SequentialExecutor,
    make_executor,
    serve_socket,
)
from repro.service.dist import DistributedExecutor
from repro.service.dist.worker import worker_loop
from repro.service.resilience import (
    AdmissionController,
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
    Deadline,
    DeadlineExceeded,
    DegradingExecutor,
    Overloaded,
    RetryPolicy,
    TokenBucket,
)
from repro.service.serialization import result_signature


class FakeClock:
    """A hand-cranked monotonic clock for deterministic policy tests."""

    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _job(size=3, **kwargs):
    return AbstractionJob(
        log=LogRef.builtin("running_example"),
        constraints=ConstraintSet([MaxGroupSize(size)]),
        job_id=f"re-size{size}",
        **kwargs,
    )


def _sequential_signature(job) -> str:
    """The reference result that admission must never change."""
    return result_signature(SequentialExecutor().submit(job).result())


def _expired_job(size=3, **kwargs):
    """A job whose pinned deadline is already five seconds in the past."""
    job = _job(size, deadline_ms=1.0, **kwargs)
    job.deadline_at = time.time() - 5.0
    return job


# -- Deadline ----------------------------------------------------------------


class TestDeadline:
    def test_after_ms_pins_an_absolute_instant(self):
        deadline = Deadline.after_ms(1500.0, now=1000.0)
        assert deadline.at == 1001.5
        assert deadline.remaining(now=1000.5) == pytest.approx(1.0)
        assert not deadline.expired(now=1001.0)
        assert deadline.expired(now=1001.5)

    def test_check_raises_typed_with_stage_and_overrun(self):
        deadline = Deadline(at=time.time() - 2.0)
        with pytest.raises(DeadlineExceeded, match="before artifact build"):
            deadline.check("artifact build")
        assert isinstance(DeadlineExceeded("x"), ReproError)

    def test_cap_bounds_solver_time_limits(self):
        generous = Deadline(at=time.time() + 100.0)
        assert generous.cap(5.0) == 5.0
        tight = Deadline(at=time.time() + 0.5)
        assert tight.cap(100.0) <= 0.5
        # Expired: a tiny positive limit, never zero/negative (the
        # stage-boundary check is what surfaces expiry).
        expired = Deadline(at=time.time() - 1.0)
        assert 0.0 < expired.cap(100.0) <= 1e-3
        assert expired.cap(None) > 0.0

    def test_job_pins_deadline_once_and_roundtrips(self):
        job = _job(deadline_ms=5000.0, tenant="acme")
        before = time.time()
        first = job.deadline()
        assert before + 4.0 < first.at < before + 6.0
        assert job.deadline().at == first.at  # pinned, not re-derived
        row = job.to_dict()
        assert row["deadline_ms"] == 5000.0 and row["tenant"] == "acme"
        clone = AbstractionJob.from_dict(row)
        assert clone.deadline_ms == 5000.0 and clone.tenant == "acme"

    def test_policy_fields_do_not_enter_the_fingerprint(self):
        assert (
            _job().fingerprint().full
            == _job(deadline_ms=1000.0, tenant="acme").fingerprint().full
        )

    def test_deadline_ms_must_be_positive(self):
        with pytest.raises(ReproError, match="deadline_ms"):
            _job(deadline_ms=-1.0)


# -- RetryPolicy -------------------------------------------------------------


class TestRetryPolicy:
    def test_delays_are_deterministic_and_bounded(self):
        policy = RetryPolicy(attempts=5, base_delay=0.05, multiplier=2.0,
                             max_delay=0.3, jitter=0.5, seed="x")
        delays = [policy.delay(attempt, key="k") for attempt in range(5)]
        assert delays == [policy.delay(attempt, key="k") for attempt in range(5)]
        assert delays != [RetryPolicy(seed="y", attempts=5, max_delay=0.3)
                          .delay(a, key="k") for a in range(5)]
        for attempt, delay in enumerate(delays):
            base = min(0.05 * 2.0 ** attempt, 0.3)
            assert base <= delay <= base * 1.5

    def test_call_retries_then_succeeds(self):
        attempts, slept, retried = [], [], []
        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise OSError("transient")
            return "done"
        policy = RetryPolicy(attempts=3, base_delay=0.01)
        value = policy.call(
            flaky, key="op",
            on_retry=lambda exc, attempt: retried.append(attempt),
            sleep=slept.append,
        )
        assert value == "done"
        assert len(attempts) == 3 and retried == [0, 1]
        assert slept == [policy.delay(0, "op"), policy.delay(1, "op")]

    def test_exhausted_attempts_reraise_the_last_failure(self):
        def always(): raise OSError("permanent")
        with pytest.raises(OSError, match="permanent"):
            RetryPolicy(attempts=2, base_delay=0.0).call(
                always, sleep=lambda _: None
            )

    def test_non_retryable_types_propagate_immediately(self):
        calls = []
        def wrong_type():
            calls.append(1)
            raise ValueError("not transient")
        with pytest.raises(ValueError):
            RetryPolicy(attempts=5, base_delay=0.0).call(
                wrong_type, retry_on=(OSError,), sleep=lambda _: None
            )
        assert len(calls) == 1

    def test_invalid_policy_rejected(self):
        with pytest.raises(ReproError):
            RetryPolicy(attempts=0)


# -- TokenBucket / AdmissionController ---------------------------------------


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(capacity=2.0, refill_rate=1.0, clock=clock)
        assert bucket.try_acquire() and bucket.try_acquire()
        assert not bucket.try_acquire()  # burst spent
        clock.advance(1.0)
        assert bucket.try_acquire()  # one token refilled
        clock.advance(100.0)
        assert bucket.available() == pytest.approx(2.0)  # capped at capacity

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ReproError):
            TokenBucket(capacity=0.0, refill_rate=1.0)


class TestAdmissionController:
    def test_per_tenant_quotas_and_counters(self):
        clock = FakeClock()
        control = AdmissionController(
            quotas={"acme": (1.0, 0.0)}, clock=clock
        )
        assert control.admit("acme")
        assert not control.admit("acme")  # quota spent, never refills
        assert control.admit("other")  # no bucket, never throttled
        assert control.admit(None)
        snapshot = control.snapshot()
        assert snapshot["admitted"] == 3 and snapshot["shed_quota"] == 1

    def test_default_quota_covers_unknown_tenants(self):
        control = AdmissionController(
            default_quota=(1.0, 0.0), clock=FakeClock()
        )
        assert control.admit("anyone")
        assert not control.admit("anyone")
        assert control.admit("fresh-tenant")  # its own lazy bucket

    def test_invalid_max_load_rejected(self):
        with pytest.raises(ReproError):
            AdmissionController(max_load=0)


# -- CircuitBreaker ----------------------------------------------------------


class TestCircuitBreaker:
    def test_trips_after_threshold_and_probes_half_open(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=2, reset_timeout=10.0,
                                 clock=clock)
        assert breaker.state == BREAKER_CLOSED and breaker.allow()
        breaker.record_failure()
        assert breaker.state == BREAKER_CLOSED
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN and breaker.trips == 1
        assert not breaker.allow()
        clock.advance(10.0)
        assert breaker.state == BREAKER_HALF_OPEN
        assert breaker.allow()  # the single probe
        assert not breaker.allow()  # everyone else still rejected
        breaker.record_success()
        assert breaker.state == BREAKER_CLOSED and breaker.allow()

    def test_half_open_failure_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=5.0,
                                 clock=clock)
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_failure()  # probe failed
        assert breaker.state == BREAKER_OPEN and breaker.trips == 2
        assert breaker.snapshot()["state"] == BREAKER_OPEN


# -- DegradingExecutor -------------------------------------------------------


class _StubExecutor:
    """A recording in-memory stand-in for an executor tier."""

    def __init__(self, fail=False):
        self.fail = fail
        self.submissions = 0
        self.shutdowns = 0

    def submit(self, job, priority=None):
        self.submissions += 1
        if self.fail:
            raise ConnectionError("broker unreachable")
        return ("handled", job)

    def submit_call(self, fn, *args, priority=0, **kwargs):
        return self.submit(fn)

    def stats(self):
        return {"stub": True}

    def shutdown(self, wait=True):
        self.shutdowns += 1


class TestDegradingExecutor:
    def test_failures_fall_back_then_trip_the_breaker(self):
        clock = FakeClock()
        primary = _StubExecutor(fail=True)
        fallback = _StubExecutor()
        wrapper = DegradingExecutor(
            primary, lambda: fallback,
            breaker=CircuitBreaker(failure_threshold=2, reset_timeout=60.0,
                                   clock=clock),
        )
        assert wrapper.submit("job-1") == ("handled", "job-1")
        assert wrapper.submit("job-2") == ("handled", "job-2")
        assert primary.submissions == 2 and fallback.submissions == 2
        # Breaker now open: the primary is out of the request path.
        assert wrapper.submit("job-3") == ("handled", "job-3")
        assert primary.submissions == 2 and fallback.submissions == 3
        stats = wrapper.stats()
        assert stats["resilience"]["breaker"]["state"] == BREAKER_OPEN
        assert stats["resilience"]["degraded_submissions"] == 3
        assert stats["resilience"]["fallback_active"] is True
        wrapper.shutdown()
        assert primary.shutdowns == 1 and fallback.shutdowns == 1

    def test_healthy_primary_never_builds_the_fallback(self):
        primary = _StubExecutor()
        built = []
        with DegradingExecutor(primary, lambda: built.append(1)) as wrapper:
            assert wrapper.submit("job") == ("handled", "job")
            assert wrapper.stats()["resilience"]["fallback_active"] is False
        assert not built

    def test_policy_failures_do_not_count_against_the_breaker(self):
        class _Shedding(_StubExecutor):
            def submit(self, job, priority=None):
                raise Overloaded("max_load")

        wrapper = DegradingExecutor(
            _Shedding(), _StubExecutor,
            breaker=CircuitBreaker(failure_threshold=1, clock=FakeClock()),
        )
        with pytest.raises(Overloaded):
            wrapper.submit("job")
        assert wrapper.breaker.state == BREAKER_CLOSED


# -- deadline propagation through the executors ------------------------------


def _sleep_call(seconds, cache=None):
    """Module-level worker-occupying call (picklable by reference)."""
    time.sleep(seconds)
    return "slept"


class TestExecutorDeadlines:
    def test_sequential_expired_deadline_fails_typed(self):
        handle = SequentialExecutor().submit(_expired_job())
        with pytest.raises(DeadlineExceeded):
            handle.result()

    def test_generous_deadline_is_byte_identical(self):
        reference = SequentialExecutor().submit(_job()).result()
        budgeted = SequentialExecutor().submit(
            _job(deadline_ms=60_000.0)
        ).result()
        assert result_signature(budgeted) == result_signature(reference)

    def test_pipeline_checks_deadline_at_entry(self):
        from repro.core.gecco import Gecco
        from repro.datasets import running_example_log

        with pytest.raises(DeadlineExceeded, match="pipeline start"):
            Gecco(ConstraintSet([MaxGroupSize(3)])).abstract(
                running_example_log(), deadline=Deadline(at=time.time() - 1.0)
            )

    def test_pool_job_expired_while_queued_fails_at_dispatch(self):
        with PoolExecutor(workers=1) as pool:
            blocker = pool.submit_call(_sleep_call, 0.6)
            queued = pool.submit(_job(deadline_ms=100.0))
            with pytest.raises(DeadlineExceeded, match="while queued"):
                queued.result(timeout=30)
            assert blocker.result(timeout=30) == "slept"

    def test_distributed_no_workers_never_hangs(self, tmp_path):
        with DistributedExecutor(
            f"fs://{tmp_path / 'q'}", workers=0, poll_interval=0.02
        ) as pool:
            handle = pool.submit(_job(deadline_ms=200.0))
            started = time.perf_counter()
            with pytest.raises(DeadlineExceeded):
                handle.result(timeout=30)
            assert time.perf_counter() - started < 10.0


# -- admission control on the executors --------------------------------------


class TestExecutorAdmission:
    def test_pool_sheds_lowest_priority_job_at_max_load(self):
        with PoolExecutor(workers=1, max_load=2) as pool:
            blocker = pool.submit_call(_sleep_call, 0.8)
            low = pool.submit(_job(3), priority=0)
            high = pool.submit(_job(5), priority=5)
            with pytest.raises(Overloaded, match="shed at max_load"):
                low.result(timeout=30)
            admitted = high.result(timeout=60)
            assert blocker.result(timeout=30) == "slept"
            assert pool.stats()["admission"]["shed_load"] == 1
        assert result_signature(admitted) == _sequential_signature(_job(5))

    def test_pool_sheds_incoming_when_nothing_ranks_below(self):
        with PoolExecutor(workers=1, max_load=1) as pool:
            blocker = pool.submit_call(_sleep_call, 0.5)
            incoming = pool.submit(_job(3), priority=0)
            with pytest.raises(Overloaded, match="job shed"):
                incoming.result(timeout=30)
            assert blocker.result(timeout=30) == "slept"

    def test_pool_tenant_quota_sheds_typed(self):
        control = AdmissionController(
            quotas={"acme": (1.0, 0.0)}, clock=FakeClock()
        )
        with PoolExecutor(workers=1, admission=control) as pool:
            first = pool.submit(_job(3, tenant="acme"))
            second = pool.submit(_job(5, tenant="acme"))
            with pytest.raises(Overloaded, match="admission quota"):
                second.result(timeout=30)
            assert first.result(timeout=60).feasible

    def test_cache_hits_are_served_without_charging_quota(self):
        control = AdmissionController(
            quotas={"acme": (1.0, 0.0)}, clock=FakeClock()
        )
        with PoolExecutor(workers=1, admission=control) as pool:
            pool.submit(_job(3, tenant="acme")).result(timeout=60)
            repeat = pool.submit(_job(3, tenant="acme"))
            assert repeat.result(timeout=30).feasible
            assert repeat.cached is True

    def test_distributed_sheds_at_max_load(self, tmp_path):
        # No workers: submitted jobs stay in flight, so the load bound
        # is hit deterministically.
        broker_url = f"fs://{tmp_path / 'q'}"
        with DistributedExecutor(
            broker_url, workers=0, poll_interval=0.02, max_load=1,
        ) as pool:
            low = pool.submit(_job(3), priority=0)
            high = pool.submit(_job(5), priority=5)
            with pytest.raises(Overloaded, match="shed at max_load"):
                low.result(timeout=30)
            assert not high.done()
            assert pool.stats()["admission"]["shed_load"] == 1
            # A late-joining worker runs the admitted job.
            worker = threading.Thread(
                target=worker_loop,
                args=(broker_url,),
                kwargs=dict(poll_interval=0.02, max_tasks=1, idle_exit=10.0),
                daemon=True,
            )
            worker.start()
            admitted = high.result(timeout=60)
            worker.join(timeout=30)
            assert not worker.is_alive()
        assert result_signature(admitted) == _sequential_signature(_job(5))

    def test_make_executor_wires_degradation_and_admission(self, tmp_path):
        executor = make_executor(
            workers=0, broker=f"fs://{tmp_path / 'q'}", max_load=4
        )
        try:
            assert isinstance(executor, DegradingExecutor)
            assert executor.primary.admission.max_load == 4
            assert "resilience" in executor.stats()
        finally:
            executor.shutdown()
        plain = make_executor(
            workers=0, broker=f"fs://{tmp_path / 'q2'}", degrade=False
        )
        try:
            assert isinstance(plain, DistributedExecutor)
        finally:
            plain.shutdown()


# -- serve loop socket timeout -----------------------------------------------


class TestServeSocketTimeout:
    def test_hung_client_is_dropped_and_serving_continues(self):
        executor = SequentialExecutor()
        # Ephemeral port; on_bound fires once the socket is listening,
        # so connecting never races the bind.
        bound = []
        listening = threading.Event()

        def on_bound(address):
            bound.append(address)
            listening.set()

        served = []
        server = threading.Thread(
            target=lambda: served.append(
                serve_socket("127.0.0.1", 0, executor,
                             max_requests=1, conn_timeout=0.3,
                             on_bound=on_bound)
            ),
            daemon=True,
        )
        server.start()
        assert listening.wait(timeout=10)
        port = bound[0][1]
        # A client that connects and then goes silent: without the
        # connection timeout this would block the accept loop forever.
        hung = socket.create_connection(("127.0.0.1", port), timeout=5)
        time.sleep(0.5)  # past conn_timeout: the server must move on
        healthy = socket.create_connection(("127.0.0.1", port), timeout=5)
        healthy.sendall(b'{"op": "ping"}\n')
        response = json.loads(healthy.makefile("r").readline())
        assert response == {"ok": True, "pong": True}
        healthy.close()
        hung.close()
        server.join(timeout=10)
        assert served == [1]
