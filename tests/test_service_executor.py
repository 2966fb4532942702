"""Executor behavior: sequential/pool equivalence, coalescing, offload."""

import heapq
import random
import time

import pytest

from repro.constraints import ConstraintSet, MaxDistinctClassAttribute, MaxGroupSize
from repro.core import encoding
from repro.core.gecco import Gecco, GeccoConfig
from repro.eventlog.events import ROLE_KEY, Event, Trace
from repro.exceptions import ReproError
from repro.service import (
    AbstractionJob,
    LogRef,
    PoolExecutor,
    SequentialExecutor,
    result_signature,
)


def jobs_grid():
    """Running example × three constraint sets, loan × two sets."""
    jobs = []
    for bound in (3, 4, 5):
        jobs.append(
            AbstractionJob(
                log=LogRef.builtin("running_example"),
                constraints=ConstraintSet([MaxGroupSize(8), MaxGroupSize(bound)]),
                job_id=f"re-{bound}",
            )
        )
    for bound in (4, 5):
        jobs.append(
            AbstractionJob(
                log=LogRef.builtin("loan:20"),
                constraints=ConstraintSet([MaxGroupSize(bound)]),
                config=GeccoConfig(beam_width="auto"),
                job_id=f"loan-{bound}",
            )
        )
    return jobs


def _hold_worker(seconds, cache=None):
    """Occupy a pool worker (module-level: picklable by reference)."""
    time.sleep(seconds)
    return seconds


class TestSequentialExecutor:
    def test_matches_direct_pipeline(self):
        executor = SequentialExecutor()
        for job in jobs_grid():
            served = executor.submit(job).result()
            direct = Gecco(job.constraints, job.config).abstract(job.log.resolve())
            assert result_signature(served) == result_signature(direct)

    def test_handle_protocol(self):
        executor = SequentialExecutor()
        handle = executor.submit(jobs_grid()[0])
        assert handle.done()
        assert handle.cached is False
        repeat = executor.submit(jobs_grid()[0])
        assert repeat.cached is True
        assert result_signature(repeat.result()) == result_signature(handle.result())

    def test_error_is_raised_on_await(self, tmp_path):
        executor = SequentialExecutor()
        handle = executor.submit(
            AbstractionJob(
                log=LogRef.path(str(tmp_path / "missing.xes")),
                constraints=ConstraintSet([MaxGroupSize(5)]),
            )
        )
        assert handle.done()
        with pytest.raises(Exception):
            handle.result()


class TestPoolExecutor:
    def test_pool_byte_identical_to_sequential(self):
        jobs = jobs_grid()
        sequential = SequentialExecutor()
        expected = [result_signature(sequential.submit(job).result()) for job in jobs]
        with PoolExecutor(workers=2) as pool:
            handles = [pool.submit(job) for job in jobs]
            actual = [result_signature(handle.result(timeout=300)) for handle in handles]
        assert actual == expected

    def test_parent_cache_serves_repeats(self):
        job = jobs_grid()[0]
        with PoolExecutor(workers=2) as pool:
            first = pool.submit(job)
            first.result(timeout=300)
            repeat = pool.submit(job)
            assert repeat.done()  # no round-trip to a worker
            assert repeat.cached is True

    def test_inflight_coalescing(self):
        job = jobs_grid()[1]
        with PoolExecutor(workers=2) as pool:
            first = pool.submit(job)
            second = pool.submit(job)
            a = first.result(timeout=300)
            b = second.result(timeout=300)
        assert result_signature(a) == result_signature(b)
        assert second.cached is True

    def test_worker_artifact_reuse_counters(self):
        jobs = jobs_grid()[:3]  # one log, three constraint sets
        with PoolExecutor(workers=1) as pool:
            for handle in [pool.submit(job) for job in jobs]:
                handle.result(timeout=300)
            totals = pool.stats()["workers_total"]
        assert totals["artifact_builds"] == 1
        assert totals["artifact_hits"] == 2

    def test_priorities_dispatch_high_first(self):
        _base, lo, hi = jobs_grid()[:3]
        with PoolExecutor(workers=1) as pool:
            # Hold the only worker so both jobs are queued when it
            # frees up: the priority heap must then dispatch hi first.
            blocker = pool.submit_call(_hold_worker, 0.3)
            handles = {
                "lo": pool.submit(lo, priority=0),
                "hi": pool.submit(hi, priority=10),
            }
            order = []
            deadline = time.time() + 300
            while len(order) < 2 and time.time() < deadline:
                for name, handle in handles.items():
                    if handle.done() and name not in order:
                        order.append(name)
                time.sleep(0.0005)
            blocker.result(timeout=300)
        assert order == ["hi", "lo"]

    def test_worker_error_propagates(self, tmp_path):
        bad = AbstractionJob(
            log=LogRef.path(str(tmp_path / "nope.csv")),
            constraints=ConstraintSet([MaxGroupSize(5)]),
        )
        with PoolExecutor(workers=1) as pool:
            handle = pool.submit(bad)
            with pytest.raises(Exception):
                handle.result(timeout=300)

    def test_submit_after_shutdown_rejected(self):
        pool = PoolExecutor(workers=1)
        pool.shutdown()
        with pytest.raises(ReproError):
            pool.submit(jobs_grid()[0])

    def test_affinity_routes_log_to_one_worker(self):
        """Cache-aware scheduling: the first job on a log claims its
        prefix, and every later job on it either goes to the prefix's
        owner (a hit) or, while the owner is busy, to a free worker (a
        steal) — so builds stay within workers × logs."""
        jobs = jobs_grid()  # 3 running-example jobs + 2 loan jobs
        num_logs, workers = 2, 2
        with PoolExecutor(workers=workers) as pool:
            for handle in [pool.submit(job) for job in jobs]:
                handle.result(timeout=300)
            stats = pool.stats()
        scheduler = stats["scheduler"]
        assert scheduler["prefix_claims"] == num_logs
        assert stats["workers_total"]["artifact_builds"] <= workers * num_logs
        assert scheduler["affinity_hits"] + scheduler["steals"] == len(jobs) - num_logs
        assert scheduler["worker_respawns"] == 0

    def test_submit_call_runs_on_workers_with_cache(self):
        from repro.selection2 import Component, solve_component_task

        component = Component.encode(
            universe=("x", "y"),
            candidates=(frozenset({"x"}), frozenset({"y"}), frozenset({"x", "y"})),
            costs=(1.0, 1.0, 0.5),
        )
        with PoolExecutor(workers=1) as pool:
            first = pool.submit_call(
                solve_component_task, component, None, None, "bnb", None
            )
            solution, cached = first.result(timeout=300)
            assert not cached
            assert solution.groups == ((("x", "y"),))
            # Same cell again: served from the worker's selection tier.
            repeat = pool.submit_call(
                solve_component_task, component, None, None, "bnb", None
            )
            _solution, cached = repeat.result(timeout=300)
            assert cached
            assert pool.stats()["workers_total"]["selection_hits"] >= 1

    def test_submit_call_sequential_uses_own_cache(self):
        from repro.selection2 import Component, solve_component_task

        component = Component.encode(
            universe=("x",), candidates=(frozenset({"x"}),), costs=(1.0,)
        )
        executor = SequentialExecutor()
        _, cached = executor.submit_call(
            solve_component_task, component, None, None, "bnb", None
        ).result()
        assert not cached
        _, cached = executor.submit_call(
            solve_component_task, component, None, None, "bnb", None
        ).result()
        assert cached
        assert executor.cache.stats.selection.hits == 1

    def test_map_preserves_submission_order(self):
        jobs = jobs_grid()
        with PoolExecutor(workers=2) as pool:
            results = pool.map(jobs)
        sequential = SequentialExecutor()
        expected = [sequential.submit(job).result() for job in jobs]
        assert [result_signature(r) for r in results] == [
            result_signature(r) for r in expected
        ]


def _queue(pool, prefix, priority=0):
    """Register a queued task by hand; no worker process is involved."""
    from repro.service.executor import _KIND_CALL, _KIND_JOB, _Task

    seq = next(pool._seq)
    kind = _KIND_CALL if prefix is None else _KIND_JOB
    task = _Task(kind, None, None, priority, seq=seq, prefix=prefix)
    pool._tasks[seq] = task
    heapq.heappush(pool._heap, (-priority, seq, task))
    return task


class TestWorkConservingPick:
    """``PoolExecutor._pick_locked`` driven by hand with ``_busy`` set:
    sub-pools start no process until a task is submitted, and none is."""

    @pytest.fixture
    def pool(self):
        pool = PoolExecutor(workers=3)
        yield pool
        pool._tasks.clear()  # the hand-made tasks have no handles to fail
        pool.shutdown()

    def test_free_owner_runs_its_prefix(self, pool):
        pool._prefix_owner[("log-a",)] = 2
        pool._claims[2] = 1
        task = _queue(pool, ("log-a",))
        with pool._lock:
            assert pool._pick_locked() == (task, 2)
        scheduler = pool.stats()["scheduler"]
        assert scheduler["affinity_hits"] == 1 and scheduler["steals"] == 0

    def test_busy_owner_loses_the_task_to_the_least_claimed_free_worker(self, pool):
        pool._prefix_owner.update({("log-a",): 0, ("log-b",): 1})
        pool._claims[:] = [1, 1, 0]
        pool._busy[0] = True
        task = _queue(pool, ("log-a",))
        with pool._lock:
            assert pool._pick_locked() == (task, 2)
        scheduler = pool.stats()["scheduler"]
        assert scheduler["steals"] == 1 and scheduler["affinity_hits"] == 0
        # A steal runs the task without taking its prefix.
        assert pool._prefix_owner[("log-a",)] == 0
        assert pool._claims == [1, 1, 0]

    def test_unowned_prefix_is_claimed_by_the_least_claimed_free_worker(self, pool):
        pool._claims[:] = [0, 2, 1]
        pool._busy[0] = True
        task = _queue(pool, ("log-c",))
        with pool._lock:
            assert pool._pick_locked() == (task, 2)
        assert pool._prefix_owner[("log-c",)] == 2
        assert pool._claims == [0, 2, 2]
        assert pool.stats()["scheduler"]["prefix_claims"] == 1

    def test_top_live_task_always_dispatches_while_a_worker_is_free(self, pool):
        rng = random.Random(19)
        prefixes = [("log-a",), ("log-b",), ("log-c",), None]
        for _ in range(300):
            pool._tasks.clear()
            pool._heap.clear()
            pool._busy[:] = [rng.random() < 0.5 for _ in range(pool.workers)]
            pool._prefix_owner = {
                prefix: rng.randrange(pool.workers)
                for prefix in prefixes[:-1] if rng.random() < 0.7
            }
            queued = [
                _queue(pool, rng.choice(prefixes), rng.randrange(3))
                for _ in range(rng.randrange(5))
            ]
            for task in queued:
                if rng.random() < 0.3:  # shed while queued: a stale entry
                    del pool._tasks[task.seq]
            live = [task for task in queued if task.seq in pool._tasks]
            with pool._lock:
                picked = pool._pick_locked()
            if all(pool._busy) or not live:
                assert picked is None
                continue
            task, worker = picked
            assert task is min(live, key=lambda t: (-t.priority, t.seq))
            assert not pool._busy[worker]


class TestArtifactGuards:
    def test_mismatched_log_rejected(self, running_log, loan_log):
        from repro.core.gecco import prepare_artifacts
        from repro.exceptions import ConstraintError

        config = GeccoConfig()
        artifacts = prepare_artifacts(loan_log, config)
        with pytest.raises(ConstraintError, match="different log"):
            Gecco(ConstraintSet([MaxGroupSize(5)]), config).abstract(
                running_log, artifacts
            )

    def test_mismatched_policy_rejected(self, running_log):
        from repro.core.gecco import prepare_artifacts
        from repro.exceptions import ConstraintError

        artifacts = prepare_artifacts(running_log, GeccoConfig())
        config = GeccoConfig(instance_policy="none")
        with pytest.raises(ConstraintError, match="do not match config"):
            Gecco(ConstraintSet([MaxGroupSize(5)]), config).abstract(
                running_log, artifacts
            )

    def test_matching_prebuilt_artifacts_accepted(self, running_log):
        from repro.core.gecco import prepare_artifacts

        config = GeccoConfig()
        artifacts = prepare_artifacts(running_log, config)
        constraints = ConstraintSet([MaxGroupSize(5)])
        shared = Gecco(constraints, config).abstract(running_log, artifacts)
        fresh = Gecco(constraints, config).abstract(running_log)
        assert result_signature(shared) == result_signature(fresh)


class TestEngineFallback:
    def test_fallback_warns_and_records_engine(self, running_log, monkeypatch):
        monkeypatch.setattr(encoding, "HAVE_NUMPY", False)
        constraints = ConstraintSet([MaxGroupSize(5)])
        with pytest.warns(RuntimeWarning, match="numpy is unavailable"):
            result = Gecco(constraints, GeccoConfig(engine="compiled")).abstract(
                running_log
            )
        assert result.engine == "python"
        assert result.feasible

    def test_no_warning_when_python_requested(self, running_log, recwarn):
        constraints = ConstraintSet([MaxGroupSize(5)])
        result = Gecco(constraints, GeccoConfig(engine="python")).abstract(running_log)
        assert result.engine == "python"
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_compiled_engine_recorded(self, running_log):
        if not encoding.HAVE_NUMPY:
            pytest.skip("numpy unavailable")
        constraints = ConstraintSet([MaxGroupSize(5)])
        result = Gecco(constraints, GeccoConfig(engine="compiled")).abstract(running_log)
        assert result.engine == "compiled"


class TestRunnerExecutorRouting:
    def test_rows_match_sequential_runner(self, running_log):
        from repro.experiments.runner import run_experiment

        logs = {"running_example": running_log}
        sets = ("BL1", "Gr")
        approaches = ("DFGk", "BLG")
        plain = run_experiment(logs, sets, approaches, candidate_timeout=30.0)
        routed = run_experiment(
            logs,
            sets,
            approaches,
            candidate_timeout=30.0,
            executor=SequentialExecutor(),
        )
        assert len(plain.rows) == len(routed.rows)
        for a, b in zip(plain.rows, routed.rows):
            assert (a.log_name, a.constraint_set, a.approach) == (
                b.log_name,
                b.constraint_set,
                b.approach,
            )
            assert a.solved == b.solved
            assert a.size_red == b.size_red
            assert a.complexity_red == b.complexity_red
            assert a.silhouette == b.silhouette
            assert a.num_groups == b.num_groups
            assert a.num_candidates == b.num_candidates


class TestStreamingOffload:
    def _drifting_stream(self):
        """A stream that changes behavior midway (forces re-grouping)."""
        phase_a = [
            Trace([Event(c, {ROLE_KEY: "clerk"}) for c in ("a", "b", "c")])
            for _ in range(12)
        ]
        phase_b = [
            Trace([Event(c, {ROLE_KEY: "clerk"}) for c in ("x", "y", "z")])
            for _ in range(12)
        ]
        return phase_a + phase_b

    def test_offloaded_regrouping_adopted(self):
        from repro.streaming.abstractor import StreamingAbstractor

        constraints = ConstraintSet([MaxDistinctClassAttribute(ROLE_KEY, 1)])
        streamer = StreamingAbstractor(
            constraints,
            GeccoConfig(strategy="dfg"),
            window_size=20,
            min_traces=5,
            check_every=1,
            drift_threshold=0.2,
            executor=SequentialExecutor(),
        )
        for trace in self._drifting_stream():
            streamer.process(trace)
        streamer.flush()
        assert streamer.grouping is not None
        assert streamer.stats.regroupings >= 1
        assert streamer.epochs
        # The adopted grouping covers the latest phase's classes.
        covered = {cls for group in streamer.grouping for cls in group}
        assert {"x", "y", "z"} <= covered

    def test_offload_matches_synchronous_grouping(self):
        from repro.streaming.abstractor import StreamingAbstractor

        constraints = ConstraintSet([MaxDistinctClassAttribute(ROLE_KEY, 1)])

        def build(executor):
            return StreamingAbstractor(
                constraints,
                GeccoConfig(strategy="dfg"),
                window_size=20,
                min_traces=5,
                check_every=1,
                drift_threshold=0.2,
                executor=executor,
            )

        synchronous = build(None)
        offloaded = build(SequentialExecutor())
        for trace in self._drifting_stream():
            synchronous.process(trace)
            offloaded.process(trace)
        offloaded.flush()
        assert synchronous.grouping is not None and offloaded.grouping is not None
        assert set(synchronous.grouping.groups) == set(offloaded.grouping.groups)
