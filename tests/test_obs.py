"""The observability layer: trace writer, metrics registry, doctor.

Three properties matter and are tested here:

1. **Crash-safe tracing** — every emitted line is a complete JSON
   record even when many processes append to the same file, and a
   torn/corrupt line never breaks the reader.
2. **Zero distortion** — tracing is observational: results with
   ``--trace`` on are byte-identical to results with it off.
3. **Faithful forensics** — ``repro doctor`` reconstructs the failure
   taxonomy (retries, redeliveries, quarantines, sheds, deadline
   misses) exactly from the event stream.
"""

import json
import multiprocessing
import os
import urllib.request

import pytest

from repro.constraints import ConstraintSet, MaxGroups, MaxGroupSize
from repro.obs import (
    TRACE_EVENTS,
    TRACE_SCHEMA,
    MetricsRegistry,
    MetricsServer,
    TraceWriter,
    analyze_trace,
    merge_traces,
    read_trace,
    render_report,
    sync_executor_stats,
    sync_worker_stats,
)
from repro.service import (
    AbstractionJob,
    LogRef,
    PoolExecutor,
    SequentialExecutor,
    run_batch,
)
from repro.service.dist.worker import WorkerStats


def _job(bound=3, log="loan:15"):
    return AbstractionJob(
        log=LogRef.builtin(log),
        constraints=ConstraintSet([MaxGroupSize(bound)]),
    )


class TestTraceWriter:
    def test_schema_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with TraceWriter(path, worker="w1") as tracer:
            tracer.emit("submitted", fingerprint="abc", attempt=0)
            tracer.emit("done", fingerprint="abc", seconds=0.5, cached=False)
        events = read_trace(path)
        assert [e["event"] for e in events] == ["submitted", "done"]
        first, second = events
        # Schema tag stamps the writer's first record only.
        assert first["schema"] == TRACE_SCHEMA
        assert "schema" not in second
        for event in events:
            assert event["worker"] == "w1"
            assert event["pid"] == os.getpid()
            assert isinstance(event["ts"], float)
            assert isinstance(event["mono"], float)
        assert second["seconds"] == 0.5
        assert second["cached"] is False

    def test_every_event_name_is_known(self):
        # The doctor's taxonomy keys off these names; keep them stable.
        for name in (
            "submitted", "queued", "claimed", "heartbeat", "requeued",
            "released", "quarantined", "shed", "deadline_exceeded",
            "cache_hit", "artifact_build", "solve", "done", "worker_exit",
            "metrics_endpoint", "worker_restart", "supervisor_started",
            "supervisor_slot_quarantined", "supervisor_exit",
        ):
            assert name in TRACE_EVENTS

    def test_none_fields_are_dropped(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with TraceWriter(path) as tracer:
            tracer.emit("done", error=None, seconds=1.0)
        (event,) = read_trace(path)
        assert "error" not in event
        assert event["seconds"] == 1.0

    def test_never_raises_on_unwritable_path(self, tmp_path):
        target = tmp_path / "not-a-dir" / "trace.jsonl"
        tracer = TraceWriter(target)
        tracer.emit("submitted")  # must not raise
        tracer.emit("done")
        assert tracer.dropped == 2
        tracer.close()

    def test_reader_skips_torn_and_corrupt_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with TraceWriter(path) as tracer:
            tracer.emit("submitted")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("{not json}\n")
            handle.write('{"event": "done", "ts": 1.0, "mono": 1.0}\n')
            handle.write('{"event": "torn", "ts"')  # crash mid-write
        events = read_trace(path)
        assert [e["event"] for e in events] == ["submitted", "done"]


def _append_events(path, worker, count):
    with TraceWriter(path, worker=worker) as tracer:
        for i in range(count):
            tracer.emit("heartbeat", seq=i)


class TestMultiProcessAppend:
    def test_interleaved_appends_reassemble(self, tmp_path):
        """N processes appending concurrently never tear a line."""
        path = tmp_path / "trace.jsonl"
        workers, per_worker = 4, 50
        ctx = multiprocessing.get_context("spawn")
        procs = [
            ctx.Process(
                target=_append_events, args=(str(path), f"w{i}", per_worker)
            )
            for i in range(workers)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        events = read_trace(path)
        assert len(events) == workers * per_worker
        for name in (f"w{i}" for i in range(workers)):
            seqs = [e["seq"] for e in events if e["worker"] == name]
            assert sorted(seqs) == list(range(per_worker))

    def test_merge_traces_orders_by_timestamp(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        a.write_text(
            '{"event": "done", "ts": 2.0, "mono": 2.0}\n', encoding="utf-8"
        )
        b.write_text(
            '{"event": "submitted", "ts": 1.0, "mono": 1.0}\n'
            '{"event": "claimed", "ts": 3.0, "mono": 3.0}\n',
            encoding="utf-8",
        )
        merged = merge_traces([a, b])
        assert [e["event"] for e in merged] == ["submitted", "done", "claimed"]


def _synthetic_fault_trace():
    """A handcrafted trace exercising every taxonomy branch."""
    ts = [0.0]

    def event(name, **fields):
        ts[0] += 0.01
        return {"event": name, "ts": ts[0], "mono": ts[0], "pid": 1, **fields}

    return [
        # Claim failures surface as retry events (chaos claim faults).
        event("retry", op="claim", attempt=0, cause="ChaosError: claim"),
        event("retry", op="claim", attempt=1, cause="ChaosError: claim"),
        event("retry", op="complete", attempt=0, cause="BrokerError: io"),
        # Corrupt payload: voluntary release, then redelivery (attempt>0).
        event("claimed", task_id="t1", attempt=0, worker="w1"),
        event("released", task_id="t1", attempt=0, reason="corrupt payload"),
        event("claimed", task_id="t1", attempt=1, worker="w2"),
        event("done", task_id="t1", ok=True, seconds=0.5, worker="w2"),
        # Dropped heartbeats: lease expiry redelivery (no release first).
        event("heartbeat", error="ChaosError: dropped", worker="w3"),
        event("claimed", task_id="t2", attempt=0, worker="w3"),
        event("requeued", count=1, by="worker_sweep"),
        event("claimed", task_id="t2", attempt=1, worker="w1"),
        event("done", task_id="t2", ok=True, seconds=0.4, worker="w1"),
        # Poison payload: attempts exhausted, quarantined.
        event("claimed", task_id="t3", attempt=2, worker="w1"),
        event(
            "quarantined", task_id="t3", attempt=2,
            reason="payload does not deserialize: poison",
        ),
        # Load shedding and deadline misses.
        event("shed", cause="max_load", fingerprint="f4"),
        event("deadline_exceeded", stage="queued", fingerprint="f5"),
        event("done", fingerprint="f6", error="ValueError: boom", seconds=0.1),
    ]


class TestDoctor:
    def test_taxonomy_on_synthetic_trace(self):
        report = analyze_trace(_synthetic_fault_trace())
        taxonomy = report["taxonomy"]
        assert taxonomy["retries"] == {
            "claim:ChaosError: claim": 2,
            "complete:BrokerError: io": 1,
        }
        # t1 was released then reclaimed -> voluntary; t2's and t3's
        # reclaims had no matching release -> lease expiry.
        assert taxonomy["redeliveries"]["released"] == 1
        assert taxonomy["redeliveries"]["lease_expired"] == 2
        assert taxonomy["requeue_sweep_moves"] == 1
        assert taxonomy["releases"] == 1
        assert taxonomy["heartbeat_errors"] == 1
        assert taxonomy["quarantines"] == {"poison_payload": 1}
        assert taxonomy["sheds"] == {"max_load": 1}
        assert taxonomy["deadline_exceeded"] == {"queued": 1}
        assert taxonomy["job_failures"] == 1

    def test_latency_and_render(self, tmp_path):
        events = _synthetic_fault_trace()
        path = tmp_path / "trace.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            for event in events:
                handle.write(json.dumps(event) + "\n")
        report = analyze_trace([path])
        totals = report["latency"]["job_total"]
        assert totals["count"] == 3
        assert totals["p50_s"] == pytest.approx(0.4)
        text = render_report(report)
        assert "repro doctor" in text
        assert "poison_payload" in text
        assert "max_load" in text

    def test_accepts_multiple_paths(self, tmp_path):
        events = _synthetic_fault_trace()
        half = len(events) // 2
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for path, chunk in ((a, events[:half]), (b, events[half:])):
            with open(path, "w", encoding="utf-8") as handle:
                for event in chunk:
                    handle.write(json.dumps(event) + "\n")
        report = analyze_trace([a, b])
        assert report["events"] == len(events)

    def test_missing_trace_is_an_error(self, tmp_path, capsys):
        from repro.cli import main

        present = tmp_path / "a.jsonl"
        with open(present, "w", encoding="utf-8") as handle:
            for event in _synthetic_fault_trace():
                handle.write(json.dumps(event) + "\n")
        missing = tmp_path / "missing.jsonl"
        code = main(["doctor", str(present), str(missing), "--recommend"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(missing) in err


class TestMetrics:
    def test_prometheus_exposition_format(self):
        registry = MetricsRegistry()
        jobs = registry.counter("repro_jobs_total", "Jobs run")
        jobs.inc(status="ok")
        jobs.inc(2, status="error")
        depth = registry.gauge("repro_queue_depth", "Queue depth")
        depth.set(7)
        lat = registry.histogram(
            "repro_solve_seconds", "Solve latency", buckets=(0.1, 1.0)
        )
        lat.observe(0.05)
        lat.observe(0.5)
        lat.observe(5.0)
        text = registry.render()
        assert "# HELP repro_jobs_total Jobs run" in text
        assert "# TYPE repro_jobs_total counter" in text
        assert 'repro_jobs_total{status="ok"} 1' in text
        assert 'repro_jobs_total{status="error"} 2' in text
        assert "repro_queue_depth 7" in text
        assert 'repro_solve_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_solve_seconds_bucket{le="1"} 2' in text
        assert 'repro_solve_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_solve_seconds_count 3" in text

    def test_registry_is_idempotent_but_kind_safe(self):
        registry = MetricsRegistry()
        a = registry.counter("repro_x", "x")
        assert registry.counter("repro_x", "x") is a
        with pytest.raises(ValueError):
            registry.gauge("repro_x", "x")

    def test_sync_executor_stats_flattens(self):
        registry = MetricsRegistry()
        sync_executor_stats(
            registry,
            {
                "queued": 3,
                "mode": "distributed",
                "cache": {"artifacts": {"hits": 5, "misses": 1}},
                "workers": {"123": {"hits": 2}},
            },
        )
        text = registry.render()
        assert "repro_queued 3" in text
        assert "repro_cache_artifacts_hits 5" in text
        assert 'repro_mode_info{value="distributed"} 1' in text
        assert 'repro_worker_cache{counter="hits",worker="123"} 2' in text

    def test_sync_worker_stats(self):
        registry = MetricsRegistry()
        stats = WorkerStats(worker="w1")
        stats.completed = 4
        stats.cache = {"artifacts": {"hits": 3, "misses": 1}}
        sync_worker_stats(registry, stats)
        text = registry.render()
        assert 'repro_worker_completed{worker="w1"} 4' in text
        assert (
            'repro_worker_cache{counter="artifacts_hits",worker="w1"} 3'
            in text
        )

    def test_http_endpoint_scrapes(self):
        registry = MetricsRegistry()
        registry.gauge("repro_up", "liveness").set(1)
        refreshed = []
        with MetricsServer(
            registry, port=0, refresh=lambda: refreshed.append(1)
        ) as server:
            body = urllib.request.urlopen(server.url, timeout=5).read()
            assert b"repro_up 1" in body
            assert refreshed  # refresh hook ran before render
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(
                    server.url.rsplit("/", 1)[0] + "/nope", timeout=5
                )
            assert server.scrapes >= 1


class TestTracingIsObservational:
    def test_sequential_results_byte_identical_with_trace(self, tmp_path):
        from repro.service.serialization import result_signature

        job = _job(bound=3)
        plain = SequentialExecutor().submit(job).result()
        trace = tmp_path / "trace.jsonl"
        with TraceWriter(trace) as tracer:
            traced = SequentialExecutor(tracer=tracer).submit(job).result()
        assert result_signature(traced) == result_signature(plain)
        events = read_trace(trace)
        assert {"submitted", "solve", "done"} <= {e["event"] for e in events}

    def test_solve_event_carries_diagnosis_time(self, tmp_path):
        # One group of at most two classes cannot cover eight classes.
        job = AbstractionJob(
            log=LogRef.builtin("running_example"),
            constraints=ConstraintSet([MaxGroups(1), MaxGroupSize(2)]),
        )
        trace = tmp_path / "trace.jsonl"
        with TraceWriter(trace) as tracer:
            result = SequentialExecutor(tracer=tracer).submit(job).result()
        assert not result.feasible
        (solve,) = [e for e in read_trace(trace) if e["event"] == "solve"]
        assert solve["timings"]["diagnosis"] == result.timings.diagnosis > 0.0
        latency = analyze_trace([trace])["latency"]
        assert latency["solve_diagnosis"]["count"] == 1

    def test_batch_rows_identical_with_trace(self, tmp_path):
        manifest = tmp_path / "jobs.jsonl"
        rows = [
            {
                "id": f"j{k}",
                "log": "loan:15",
                "constraints": [{"type": "max_group_size", "bound": k}],
            }
            for k in (3, 4)
        ]
        manifest.write_text(
            "".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8"
        )
        from repro.service import load_manifest

        jobs = load_manifest(manifest)
        plain = run_batch(jobs, workers=1)
        trace = tmp_path / "trace.jsonl"
        traced = run_batch(jobs, workers=1, trace=trace)
        keep = (
            "id", "log", "fingerprint", "cached", "feasible",
            "distance", "num_candidates", "num_groups", "engine",
        )
        strip = lambda row: {k: row.get(k) for k in keep}
        assert [strip(r) for r in traced.rows] == [
            strip(r) for r in plain.rows
        ]
        events = read_trace(trace)
        assert events
        # Step-2 counters ride on batch rows and the trace ``solve`` event.
        solves = [e for e in events if e["event"] == "solve"]
        assert solves
        for stats in [r["selection"] for r in traced.rows] + [
            e["selection_stats"] for e in solves
        ]:
            assert stats["canonical_aborts"] == 0

    def test_pool_executor_traces_lifecycle(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        with PoolExecutor(workers=2, trace=trace) as pool:
            handles = [pool.submit(_job(bound=k)) for k in (3, 4)]
            for handle in handles:
                handle.result()
        events = read_trace(trace)
        names = {e["event"] for e in events}
        assert {"submitted", "queued", "claimed", "done"} <= names
        done = [e for e in events if e["event"] == "done"]
        assert all("seconds" in e for e in done)
