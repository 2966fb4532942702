"""The live observability plane: spans, streaming ingestion, top, recommend.

Four properties matter and are tested here:

1. **Exact lineage** — every executor tier mints a span at submit and
   the ids survive pickling through broker queues and pool pipes, so
   the doctor nests a claimed job's worker-side events under its
   submit span (no timestamp heuristics).
2. **Incremental ingestion** — :class:`TraceFollower` never re-reads
   bytes it has seen: torn lines are carried, truncation and
   size-based rotation are survived, cursors resume across followers.
3. **Honest degradation** — traces from the pre-span writer format
   still parse; the spans section is empty and everything else falls
   back to timestamp ordering.
4. **Evidence-backed advice** — ``repro doctor --recommend`` fires
   exactly past its documented thresholds and stays silent on a
   healthy trace.
"""

import gzip
import io
import json

import pytest

from repro.constraints import ConstraintSet, MaxGroupSize
from repro.obs import (
    LiveAggregator,
    TOP_SCHEMA,
    TraceFollower,
    TraceWriter,
    analyze_trace,
    merge_traces,
    read_trace,
    recommend,
    render_top,
    trace_segments,
)
from repro.obs.doctor import RECOMMEND_THRESHOLDS, main_doctor, render_report
from repro.obs.live import main_top
from repro.service import (
    AbstractionJob,
    LogRef,
    PoolExecutor,
    SequentialExecutor,
    run_batch,
    serve_loop,
)
from repro.service.cache import ArtifactCache


def _job(bound=3, log="loan:15"):
    return AbstractionJob(
        log=LogRef.builtin(log),
        constraints=ConstraintSet([MaxGroupSize(bound)]),
    )


def _write_events(path, events, worker="w1"):
    with TraceWriter(path, worker=worker) as tracer:
        for event in events:
            name = event.pop("event")
            tracer.emit(name, **event)


# ---------------------------------------------------------------------------
# TraceWriter rotation + segment-aware readers
# ---------------------------------------------------------------------------


class TestRotation:
    def test_rotates_past_size_and_readers_merge(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        writer = TraceWriter(path, worker="w1", rotate_mb=0.0005)  # ~512 B
        for index in range(50):
            writer.emit("queued", task_id=f"t{index}", filler="x" * 40)
        writer.close()
        assert writer.rotations >= 1
        rotated = tmp_path / "trace.jsonl.1"
        assert rotated.exists()
        segments = trace_segments(str(path))
        assert str(rotated) in segments and segments[-1] == str(path)
        # One rotated generation is kept, so readers see a bounded,
        # contiguous, correctly ordered tail of the stream ending at
        # the newest event — never an interleaved or duplicated view.
        ids = [e["task_id"] for e in merge_traces([path])]
        assert 0 < len(ids) < 50
        first = int(ids[0][1:])
        assert ids == [f"t{i}" for i in range(first, 50)]

    def test_gz_segments_are_read(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        _write_events(str(path) + ".plain", [
            {"event": "queued", "task_id": "old"},
        ])
        with open(str(path) + ".plain", "rb") as fh:
            blob = fh.read()
        with gzip.open(str(path) + ".1.gz", "wb") as fh:
            fh.write(blob)
        _write_events(path, [{"event": "queued", "task_id": "new"}])
        events = merge_traces([path])
        assert {e["task_id"] for e in events} == {"old", "new"}

    def test_merge_orders_by_ts_then_writer_then_mono(self, tmp_path):
        # Two writers with interleaved wall timestamps: mono must only
        # break ties within one writer, never order across writers.
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        rows_a = [
            {"ts": 1.0, "mono": 100.0, "event": "queued", "task_id": "a1"},
            {"ts": 3.0, "mono": 101.0, "event": "queued", "task_id": "a2"},
        ]
        rows_b = [
            {"ts": 2.0, "mono": 5.0, "event": "queued", "task_id": "b1"},
            {"ts": 2.0, "mono": 6.0, "event": "queued", "task_id": "b2"},
        ]
        for path, rows in ((a, rows_a), (b, rows_b)):
            with open(path, "w", encoding="utf-8") as fh:
                for row in rows:
                    fh.write(json.dumps(row) + "\n")
        events = merge_traces([a, b])
        assert [e["task_id"] for e in events] == ["a1", "b1", "b2", "a2"]


# ---------------------------------------------------------------------------
# TraceFollower: incremental, torn lines, truncation, rotation, resume
# ---------------------------------------------------------------------------


class TestTraceFollower:
    def test_incremental_poll_returns_only_new_events(self, tmp_path):
        path = tmp_path / "t.jsonl"
        writer = TraceWriter(path, worker="w1")
        writer.emit("queued", task_id="t1")
        follower = TraceFollower([path])
        assert [e["task_id"] for e in follower.poll()] == ["t1"]
        assert follower.poll() == []
        writer.emit("queued", task_id="t2")
        assert [e["task_id"] for e in follower.poll()] == ["t2"]
        writer.close()

    def test_missing_file_then_appearing(self, tmp_path):
        path = tmp_path / "t.jsonl"
        follower = TraceFollower([path])
        assert follower.poll() == []
        _write_events(path, [{"event": "queued", "task_id": "t1"}])
        assert [e["task_id"] for e in follower.poll()] == ["t1"]

    def test_torn_line_is_carried_until_newline(self, tmp_path):
        path = tmp_path / "t.jsonl"
        line = json.dumps({"ts": 1.0, "mono": 1.0, "event": "queued",
                           "task_id": "t1"}) + "\n"
        with open(path, "w") as fh:
            fh.write(line[:10])
            fh.flush()
            follower = TraceFollower([path])
            assert follower.poll() == []
            fh.write(line[10:])
            fh.flush()
        assert [e["task_id"] for e in follower.poll()] == ["t1"]

    def test_truncation_resets_cursor(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _write_events(path, [{"event": "queued", "task_id": "t1"}])
        follower = TraceFollower([path])
        follower.poll()
        path.write_text("")  # bare truncation, no rotated segment
        assert follower.poll() == []
        _write_events(path, [{"event": "queued", "task_id": "t2"}])
        assert [e["task_id"] for e in follower.poll()] == ["t2"]

    def test_rotation_tail_is_drained_in_order(self, tmp_path):
        path = tmp_path / "t.jsonl"
        writer = TraceWriter(path, worker="w1", rotate_mb=0.0005)
        writer.emit("queued", task_id="t0")
        follower = TraceFollower([path])
        follower.poll()
        seen = []
        for index in range(1, 50):
            writer.emit("queued", task_id=f"t{index}", filler="x" * 40)
            seen.extend(e["task_id"] for e in follower.poll())
        writer.close()
        seen.extend(e["task_id"] for e in follower.poll())
        assert writer.rotations >= 1
        assert seen == [f"t{i}" for i in range(1, 50)]  # nothing lost/dup

    def test_compressed_only_segment_is_read_whole_once(self, tmp_path):
        path = tmp_path / "t.jsonl"
        plain = tmp_path / "plain.jsonl"
        _write_events(plain, [
            {"event": "queued", "task_id": "t1"},
            {"event": "claimed", "task_id": "t1"},
        ])
        with gzip.open(str(path) + ".gz", "wb") as fh:
            fh.write(plain.read_bytes())
        assert analyze_trace([str(path)])["events"] == 2
        for followed in (path, str(path) + ".gz"):
            follower = TraceFollower([followed])
            assert [e["event"] for e in follower.poll()] == ["queued", "claimed"]
            assert follower.poll() == []

    def test_cursors_resume_across_followers(self, tmp_path):
        path = tmp_path / "t.jsonl"
        writer = TraceWriter(path, worker="w1")
        writer.emit("queued", task_id="t1")
        first = TraceFollower([path])
        first.poll()
        writer.emit("queued", task_id="t2")
        writer.close()
        resumed = TraceFollower([path], cursors=first.cursors())
        assert [e["task_id"] for e in resumed.poll()] == ["t2"]


# ---------------------------------------------------------------------------
# Span propagation end-to-end (the doctor's exact nesting)
# ---------------------------------------------------------------------------


class TestSpanPropagation:
    def test_sequential_spans_nest_under_submit(self, tmp_path):
        path = tmp_path / "t.jsonl"
        executor = SequentialExecutor(
            ArtifactCache(), tracer=TraceWriter(path, worker="seq")
        )
        executor.submit(_job(2)).result()
        executor.shutdown()
        report = analyze_trace([str(path)])
        spans = report["spans"]
        assert spans["traced_jobs"] == 1
        assert spans["max_depth"] == 2
        root = spans["trees"][0]
        assert root["event"] == "submitted"
        assert "done" in root["annotations"]
        assert {child["event"] for child in root["children"]} >= {"solve"}

    def test_pool_spans_cross_process(self, tmp_path):
        path = tmp_path / "t.jsonl"
        executor = PoolExecutor(workers=2, trace=str(path))
        handles = [executor.submit(_job(b)) for b in (2, 3)]
        for handle in handles:
            handle.result()
        executor.shutdown()
        events = merge_traces([path])
        by_trace = {}
        for event in events:
            if event.get("trace_id"):
                by_trace.setdefault(event["trace_id"], []).append(event)
        assert len(by_trace) == 2
        for trace_events in by_trace.values():
            submits = [e for e in trace_events if e["event"] == "submitted"]
            assert len(submits) == 1 and submits[0].get("parent_span") is None
            claims = [e for e in trace_events if e["event"] == "claimed"]
            assert claims and all(
                c["parent_span"] == submits[0]["span_id"] for c in claims
            )
        spans = analyze_trace(events)["spans"]
        assert spans["traced_jobs"] == 2
        assert spans["max_depth"] >= 2

    def test_distributed_spans_reach_depth_three(self, tmp_path):
        path = tmp_path / "t.jsonl"
        run_batch(
            [_job(2)], workers=1,
            broker=f"fs://{tmp_path}/q", disk_dir=str(tmp_path / "cache"),
            trace=str(path),
        )
        spans = analyze_trace([str(path)])["spans"]
        assert spans["traced_jobs"] == 1
        # submitted -> claimed -> artifact_build/solve
        assert spans["max_depth"] == 3
        root = spans["trees"][0]
        claimed = root["children"][0]
        assert claimed["event"] == "claimed"
        assert {grand["event"] for grand in claimed["children"]} >= {"solve"}

    def test_spans_never_leak_into_manifest_or_fingerprint(self):
        job = _job(2)
        bare = job.fingerprint().full
        job.trace_id, job.span_id = "deadbeef" * 4, "deadbeef" * 2
        assert job.fingerprint().full == bare
        assert "trace_id" not in job.to_dict()


# ---------------------------------------------------------------------------
# LiveAggregator + repro top
# ---------------------------------------------------------------------------


def _views(events):
    """What ``repro doctor`` and ``repro top`` report, in one vocabulary."""
    report = analyze_trace(events)
    aggregator = LiveAggregator()
    aggregator.feed(events)
    snap = aggregator.snapshot()
    tax, top = report["taxonomy"], snap["taxonomy"]
    wait = report["latency"]["queue_wait"]
    top_wait = snap["stages"].get("queue_wait", {"count": 0, "p50_s": 0.0})
    doctor_view = {
        "sheds": tax["sheds"],
        "requeue_moves": tax["requeue_sweep_moves"],
        "job_failures": tax["job_failures"],
        "heartbeat_errors": tax["heartbeat_errors"],
        "redeliveries": tax["redeliveries"],
        "quarantines": tax["quarantines"],
        "queue_wait": (wait["count"], wait["p50_s"]),
        "max_depth": report["spans"]["max_depth"],
    }
    top_view = {
        "sheds": top["shed_causes"],
        "requeue_moves": top["requeue_sweep_moves"],
        "job_failures": top["job_failures"],
        "heartbeat_errors": top["heartbeat_errors"],
        "redeliveries": {
            "released": top["redeliveries_released"],
            "lease_expired": top["redeliveries_lease_expired"],
        },
        "quarantines": top["quarantine_reasons"],
        "queue_wait": (top_wait["count"], top_wait["p50_s"]),
        "max_depth": snap["spans"]["max_depth"],
    }
    return doctor_view, top_view


def _assert_views(events, expected):
    doctor, top = _views(events)
    assert doctor == top
    assert {key: doctor[key] for key in expected} == expected


#: One row per rule: events, then the answer both views must give.
#: The first ten pin rules a trace leaves room for two readings of;
#: the rest carry malformed field values, which are skipped, not fatal.
RULES = [
    pytest.param(
        [{"ts": 1.0, "event": "shed", "fingerprint": "f1"}],
        {"sheds": {"overload": 1}},
        id="shed-without-cause",
    ),
    pytest.param(
        [{"ts": 1.0, "event": "requeued", "by": "worker_sweep"}],
        {"requeue_moves": 0},
        id="requeued-without-count",
    ),
    pytest.param(
        [{"ts": 1.0, "event": "done", "fingerprint": "f1", "error": ""}],
        {"job_failures": 0},
        id="done-with-empty-error",
    ),
    pytest.param(
        [{"ts": 1.0, "event": "done", "fingerprint": "f1", "ok": True,
          "error": "x"}],
        {"job_failures": 1},
        id="done-ok-with-error",
    ),
    pytest.param(
        [{"ts": 1.0, "event": "heartbeat", "worker": "w1", "error": ""}],
        {"heartbeat_errors": 0},
        id="heartbeat-with-empty-error",
    ),
    pytest.param(
        [{"ts": 1.0, "event": "released", "fingerprint": "f1"},
         {"ts": 2.0, "event": "claimed", "fingerprint": "f1", "attempt": 1}],
        {"redeliveries": {"released": 1, "lease_expired": 0}},
        id="release-matched-by-fingerprint",
    ),
    pytest.param(
        [{"ts": 1.0, "event": "submitted", "fingerprint": "f1"},
         {"ts": 1.5, "event": "queued", "fingerprint": "f1"},
         {"ts": 2.0, "event": "claimed", "fingerprint": "f1", "attempt": 0}],
        {"queue_wait": (1, 1.0)},
        id="queue-wait-from-submit",
    ),
    pytest.param(
        [{"ts": 1.0, "event": "queued", "task_id": "t1"},
         {"ts": 2.0, "event": "claimed", "task_id": "t1", "attempt": 0},
         {"ts": 4.0, "event": "claimed", "task_id": "t1", "attempt": 1}],
        {"queue_wait": (2, 1.0),
         "redeliveries": {"released": 0, "lease_expired": 1}},
        id="every-claim-samples-queue-wait",
    ),
    pytest.param(
        [{"ts": 1.0, "event": "queued", "task_id": "t1"},
         {"ts": 2.0, "event": "done", "task_id": "t1"},
         {"ts": 3.0, "event": "claimed", "task_id": "t1", "attempt": 1}],
        {"queue_wait": (0, 0.0)},
        id="terminal-event-clears-queue-mark",
    ),
    pytest.param(
        [{"ts": 1.0, "event": "claimed", "span_id": "c", "parent_span": "s"},
         {"ts": 2.0, "event": "submitted", "span_id": "s"}],
        {"max_depth": 2},
        id="child-span-before-parent",
    ),
    pytest.param(
        [{"ts": 1.0, "event": "done", "fingerprint": "f1", "seconds": "slow"}],
        {"job_failures": 0},
        id="done-seconds-not-a-number",
    ),
    pytest.param(
        [{"ts": 1.0, "event": "solve", "fingerprint": "f1", "seconds": 0.5,
          "timings": {"candidates": None}}],
        {"job_failures": 0},
        id="solve-timing-null",
    ),
    pytest.param(
        [{"ts": 1.0, "event": "claimed", "task_id": "t1", "attempt": None}],
        {"redeliveries": {"released": 0, "lease_expired": 0}},
        id="claimed-attempt-null",
    ),
    pytest.param(
        [{"ts": 1.0, "event": "requeued", "count": "3"}],
        {"requeue_moves": 0},
        id="requeued-count-string",
    ),
    pytest.param(
        [{"ts": 1.0, "event": "worker_exit", "worker": "w1", "stats": [1, 2]}],
        {"job_failures": 0},
        id="worker-exit-stats-list",
    ),
    pytest.param(
        [{"ts": 1.0, "event": "queued", "task_id": "t1"},
         {"ts": None, "event": "claimed", "task_id": "t1", "attempt": 0}],
        {"queue_wait": (1, 0.0)},
        id="claimed-ts-null",
    ),
    pytest.param(
        [{"ts": 1.0, "event": "claimed", "task_id": "t1", "attempt": "1"}],
        {"redeliveries": {"released": 0, "lease_expired": 0}},
        id="claimed-attempt-string",
    ),
]


class TestLiveAggregator:
    @pytest.mark.parametrize("events, expected", RULES)
    def test_rule_table(self, events, expected):
        _assert_views(events, expected)

    def test_snapshot_over_real_trace(self, tmp_path):
        path = tmp_path / "t.jsonl"
        run_batch([_job(2), _job(3)], workers=1, trace=str(path))
        aggregator = LiveAggregator(window=3600)
        aggregator.feed(TraceFollower([path]).poll())
        snap = aggregator.snapshot()
        assert snap["schema"] == TOP_SCHEMA
        assert snap["spans"]["traces"] == 2
        assert "solve" in snap["stages"]
        assert snap["stages"]["solve"]["p50_s"] is not None
        text = render_top(snap, color=False)
        assert "repro top" in text and "solve" in text

    def test_redelivery_attribution_matches_doctor(self):
        _assert_views(
            [
                {"ts": 1.0, "event": "released", "task_id": "t1"},
                {"ts": 2.0, "event": "claimed", "task_id": "t1", "attempt": 1},
                {"ts": 3.0, "event": "claimed", "task_id": "t2", "attempt": 1},
            ],
            {"redeliveries": {"released": 1, "lease_expired": 1}},
        )

    @pytest.mark.parametrize(
        "reason, bucket",
        [
            ("payload does not deserialize: truncated frame", "poison_payload"),
            ("poison payload", "poison_payload"),
            ("pickle error", "poison_payload"),
            ("attempt budget exhausted", "attempts_exhausted"),
            ("max attempts reached", "attempts_exhausted"),
            ("lease lost", "other"),
            (None, "other"),
        ],
    )
    def test_quarantine_reason_buckets_match_doctor(self, reason, bucket):
        event = {"ts": 1.0, "event": "quarantined", "task_id": "t1"}
        if reason is not None:
            event["reason"] = reason
        _assert_views([event], {"quarantines": {bucket: 1}})

    def test_queue_depth_counts_each_job_once(self):
        # A distributed job: submitted by fingerprint, queued by task id.
        aggregator = LiveAggregator()
        aggregator.feed([
            {"ts": 1.0, "event": "submitted", "fingerprint": "f1"},
            {"ts": 1.1, "event": "queued", "fingerprint": "f1", "task_id": "t1"},
        ])
        assert aggregator.snapshot()["queue_depth"] == 1
        aggregator.feed([
            {"ts": 2.0, "event": "claimed", "task_id": "t1", "attempt": 0},
        ])
        assert aggregator.snapshot()["queue_depth"] == 0

    def test_main_top_once_json(self, tmp_path, capsys):
        path = tmp_path / "t.jsonl"
        run_batch([_job(2)], workers=1, trace=str(path))
        buffer = io.StringIO()
        assert main_top([str(path)], once=True, as_json=True, out=buffer) == 0
        snap = json.loads(buffer.getvalue())
        assert snap["schema"] == TOP_SCHEMA
        assert snap["events"] > 0

    def test_main_top_once_on_missing_path_is_an_error(self, tmp_path, capsys):
        from repro.cli import main

        missing = tmp_path / "missing.jsonl"
        assert main(["top", str(missing), "--once", "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: no trace file at {missing}\n"


# ---------------------------------------------------------------------------
# Doctor: edge cases, legacy traces, recommendations
# ---------------------------------------------------------------------------


class TestDoctorEdgeCases:
    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        report = analyze_trace([str(path)])
        assert report["events"] == 0
        assert report["spans"] == {
            "traced_jobs": 0, "span_events": 0, "traces": 0,
            "max_depth": 0, "trees": [],
        }
        assert recommend(report) == []
        render_report(report)  # must not raise

    def test_worker_exit_only(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _write_events(path, [{
            "event": "worker_exit",
            "stats": {"worker": "w1", "completed": 0, "failed": 0},
        }])
        report = analyze_trace([str(path)])
        assert report["events"] == 1
        assert report["offenders"]["workers"][0]["worker"] == "w1"
        assert recommend(report) == []

    def test_single_event_span(self):
        events = [{"ts": 1.0, "event": "submitted", "trace_id": "t" * 32,
                   "span_id": "s" * 16}]
        spans = analyze_trace(events)["spans"]
        assert spans == {
            "traced_jobs": 1, "span_events": 1, "traces": 1,
            "max_depth": 1,
            "trees": [{"event": "submitted", "span_id": "s" * 16}],
        }

    def test_legacy_pre_span_trace_degrades_to_timestamps(self, tmp_path):
        # PR 7-format events: no trace_id/span_id/parent_span fields.
        path = tmp_path / "legacy.jsonl"
        rows = [
            {"ts": 1.0, "mono": 1.0, "event": "queued", "task_id": "t1"},
            {"ts": 2.0, "mono": 2.0, "event": "claimed", "task_id": "t1",
             "attempt": 0},
            {"ts": 3.0, "mono": 3.0, "event": "done", "task_id": "t1",
             "seconds": 1.0, "ok": True},
        ]
        with open(path, "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row) + "\n")
        report = analyze_trace([str(path)])
        assert report["spans"]["traced_jobs"] == 0
        assert report["spans"]["trees"] == []
        # Timestamp-ordered analyses still work.
        assert report["latency"]["queue_wait"]["count"] == 1
        assert report["latency"]["job_total"]["count"] == 1
        aggregator = LiveAggregator()
        aggregator.feed(TraceFollower([path]).poll())
        snap = aggregator.snapshot()
        assert snap["spans"]["events_with_span"] == 0
        assert snap["stages"]["queue_wait"]["count"] == 1


    def test_non_numeric_ts_lines_are_skipped(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"event": "queued", "ts": 1.0, "task_id": "t1"}\n'
            '{"event": "done", "ts": null}\n'
            '{"event": "done", "ts": "2"}\n'
            '{"event": "queued", "ts": 1.0, "mono": "x", "task_id": "t2"}\n'
            '{"event": "claimed", "ts": 3.0, "task_id": "t1"}\n',
            encoding="utf-8",
        )
        assert main(["doctor", str(path), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["events"] == 3
        assert report["latency"]["queue_wait"]["count"] == 1
        assert main(["top", str(path), "--once", "--json"]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["events"] == 3
        assert snap["stages"]["queue_wait"]["count"] == 1


class TestRecommend:
    def _base(self, **overrides):
        report = analyze_trace([])
        for path, value in overrides.items():
            section, _, key = path.partition(".")
            report[section][key] = value
        return report

    def test_lease_tuning_threshold_boundary(self):
        floor = RECOMMEND_THRESHOLDS["lease_expired_min"]
        below = self._base()
        below["taxonomy"]["redeliveries"] = {
            "lease_expired": floor - 1, "released": 0,
        }
        assert all(r["id"] != "lease_tuning" for r in recommend(below))
        at = self._base()
        at["taxonomy"]["redeliveries"] = {
            "lease_expired": floor, "released": 0,
        }
        recs = recommend(at)
        rec = next(r for r in recs if r["id"] == "lease_tuning")
        assert rec["evidence"]["redeliveries_lease_expired"] == floor
        assert str(floor) in rec["message"]

    def test_lease_tuning_not_fired_when_releases_dominate(self):
        report = self._base()
        report["taxonomy"]["redeliveries"] = {
            "lease_expired": 2, "released": 5,
        }
        assert all(r["id"] != "lease_tuning" for r in recommend(report))

    def test_max_attempts_fires_on_poison_redelivery_mix(self):
        report = self._base()
        report["taxonomy"]["releases"] = 2
        report["taxonomy"]["quarantines"] = {"poison_payload": 1}
        rec = next(
            r for r in recommend(report) if r["id"] == "max_attempts_tuning"
        )
        assert rec["evidence"] == {
            "releases": 2, "quarantines_poison_payload": 1,
        }

    def test_disk_cache_sizing_needs_enough_lookups(self):
        report = self._base()
        floor = RECOMMEND_THRESHOLDS["cache_lookups_min"]
        report["cache"]["hit_rates"] = {"disk_results": 0.1}
        report["cache"]["lookups"] = {"disk_results": floor - 1}
        assert recommend(report) == []
        report["cache"]["lookups"] = {"disk_results": floor}
        recs = recommend(report)
        assert recs[0]["id"] == "disk_cache_sizing:disk_results"
        # Memory tiers are never flagged (they are bounded by design).
        report["cache"]["hit_rates"] = {"results": 0.0}
        report["cache"]["lookups"] = {"results": 1000}
        assert recommend(report) == []

    def test_worker_scaling_on_queue_wait_ratio(self):
        report = self._base()
        report["latency"]["queue_wait"] = {
            "count": RECOMMEND_THRESHOLDS["queue_wait_count_min"],
            "total_s": 5.0, "p50_s": 1.0, "p99_s": 2.0,
        }
        report["latency"]["solve"] = {
            "count": 5, "total_s": 1.0, "p50_s": 0.2, "p99_s": 0.4,
        }
        rec = next(r for r in recommend(report) if r["id"] == "worker_scaling")
        assert rec["evidence"]["queue_wait_p50_s"] == 1.0
        # At exactly the ratio (not past it) the rule stays silent.
        report["latency"]["queue_wait"]["p50_s"] = (
            RECOMMEND_THRESHOLDS["queue_wait_ratio"] * 0.2
        )
        assert all(r["id"] != "worker_scaling" for r in recommend(report))

    def test_shedding_rule_cites_causes(self):
        report = self._base()
        report["taxonomy"]["sheds"] = {"max_load_evicted": 2, "tenant_quota": 1}
        rec = next(
            r for r in recommend(report) if r["id"] == "admission_shedding"
        )
        assert rec["evidence"]["sheds"] == {
            "max_load_evicted": 2, "tenant_quota": 1,
        }

    def test_healthy_real_trace_yields_no_recommendations(self, tmp_path):
        path = tmp_path / "t.jsonl"
        run_batch([_job(2), _job(3)], workers=1, trace=str(path))
        report = analyze_trace([str(path)])
        assert recommend(report) == []
        rendered = main_doctor([str(path)], recommend_flag=True)
        assert "trace looks healthy" in rendered

    def test_main_doctor_json_includes_recommendations(self, tmp_path):
        path = tmp_path / "t.jsonl"
        _write_events(path, [
            {"event": "released", "task_id": "t1"},
            {"event": "quarantined", "task_id": "t1",
             "reason": "deserialize failed"},
        ])
        payload = json.loads(
            main_doctor([str(path)], as_json=True, recommend_flag=True)
        )
        ids = [r["id"] for r in payload["recommendations"]]
        assert "max_attempts_tuning" in ids


# ---------------------------------------------------------------------------
# Metrics observers (serve + worker wiring contract)
# ---------------------------------------------------------------------------


class TestObservers:
    def test_serve_loop_observer_sees_job_responses_only(self):
        executor = SequentialExecutor(ArtifactCache())
        request = json.dumps({
            "log": "loan:15",
            "constraints": [{"type": "max_group_size", "bound": 3}],
        })
        source = io.StringIO(
            json.dumps({"op": "ping"}) + "\n"
            + request + "\n"
            + json.dumps({"op": "shutdown"}) + "\n"
        )
        seen = []
        served = serve_loop(source, io.StringIO(), executor, observer=seen.append)
        executor.shutdown()
        assert served == 3
        assert len(seen) == 3  # every response passes through the hook
        job_rows = [r for r in seen if "fingerprint" in r]
        assert len(job_rows) == 1 and job_rows[0]["ok"]

    def test_serve_loop_observer_errors_are_swallowed(self):
        executor = SequentialExecutor(ArtifactCache())
        source = io.StringIO(json.dumps({"op": "ping"}) + "\n")

        def explode(_response):
            raise RuntimeError("observer bug")

        assert serve_loop(source, io.StringIO(), executor, observer=explode) == 1
        executor.shutdown()

    def test_worker_loop_observer_gets_outcome_and_seconds(self, tmp_path):
        import pickle

        from repro.service.dist.broker import TaskEnvelope, connect_broker
        from repro.service.dist.worker import worker_loop

        broker = connect_broker(f"fs://{tmp_path}/q")
        broker.put(TaskEnvelope(
            task_id="t1", kind="job", payload=pickle.dumps(_job(2)),
        ))
        outcomes = []
        worker_loop(
            broker, cache_dir=str(tmp_path / "cache"),
            max_tasks=1, poll_interval=0.01,
            observer=lambda outcome, seconds: outcomes.append(
                (outcome, seconds)
            ),
        )
        broker.close()
        assert len(outcomes) == 1
        outcome, seconds = outcomes[0]
        assert outcome == "ok" and seconds > 0
