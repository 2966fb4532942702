"""Batch manifests, the `repro batch` CLI, and the serve loop."""

import io
import json

import pytest

from repro.cli import main
from repro.exceptions import ReproError
from repro.service import (
    SequentialExecutor,
    load_manifest,
    run_batch,
    serve_loop,
    serve_socket,
)


def write_manifest(path, rows):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("# test manifest\n\n")
        for row in rows:
            handle.write(json.dumps(row) + "\n")


MANIFEST_ROWS = [
    {
        "id": "tight",
        "log": "running_example",
        "constraints": [{"type": "max_group_size", "bound": 3}],
    },
    {
        "log": "running_example",
        "constraints": [{"type": "max_group_size", "bound": 5}],
        "config": {"beam_width": "auto"},
    },
    {
        "id": "loan",
        "log": "loan:15",
        "constraints": [{"type": "max_group_size", "bound": 4}],
    },
]


class TestLoadManifest:
    def test_rows_ids_and_comments(self, tmp_path):
        manifest = tmp_path / "jobs.jsonl"
        write_manifest(manifest, MANIFEST_ROWS)
        jobs = load_manifest(manifest)
        assert [job.job_id for job in jobs] == ["tight", "job-4", "loan"]

    def test_invalid_json_line_rejected(self, tmp_path):
        manifest = tmp_path / "bad.jsonl"
        manifest.write_text('{"log": "running_example"\n', encoding="utf-8")
        with pytest.raises(ReproError, match="line 1"):
            load_manifest(manifest)

    def test_empty_manifest_rejected(self, tmp_path):
        manifest = tmp_path / "empty.jsonl"
        manifest.write_text("# nothing here\n", encoding="utf-8")
        with pytest.raises(ReproError, match="no jobs"):
            load_manifest(manifest)

    def test_unknown_job_field_rejected(self, tmp_path):
        manifest = tmp_path / "odd.jsonl"
        manifest.write_text(
            json.dumps({"log": "running_example", "constraints": [], "oops": 1}) + "\n",
            encoding="utf-8",
        )
        with pytest.raises(ReproError, match="oops"):
            load_manifest(manifest)


class TestRunBatch:
    def test_rows_in_manifest_order_and_accounting(self, tmp_path):
        manifest = tmp_path / "jobs.jsonl"
        write_manifest(manifest, MANIFEST_ROWS)
        jobs = load_manifest(manifest)
        report = run_batch(jobs, workers=1)
        assert [row["id"] for row in report.rows] == ["tight", "job-4", "loan"]
        assert all(row["feasible"] for row in report.rows)
        # Two distinct logs -> exactly two artifact builds.
        assert report.artifact_builds() == 2
        assert report.cache_hits() == 0
        assert report.jobs_per_second > 0

    def test_warm_executor_serves_from_cache(self, tmp_path):
        manifest = tmp_path / "jobs.jsonl"
        write_manifest(manifest, MANIFEST_ROWS)
        jobs = load_manifest(manifest)
        executor = SequentialExecutor()
        cold = run_batch(jobs, executor=executor)
        warm = run_batch(jobs, executor=executor)
        assert warm.cache_hits() == len(jobs)
        assert [r["fingerprint"] for r in warm.rows] == [
            r["fingerprint"] for r in cold.rows
        ]

    def test_recomputed_rows_equal_but_for_provenance(self, tmp_path):
        """Two cold runs give equal rows once cached/seconds/selection go.

        The Alg. 3 ``exclusive`` column carries only counters, so it
        takes part in the comparison.
        """
        manifest = tmp_path / "jobs.jsonl"
        write_manifest(manifest, MANIFEST_ROWS[:2])

        def masked(rows):
            return [
                {k: v for k, v in row.items()
                 if k not in ("cached", "seconds", "selection")}
                for row in rows
            ]

        first = run_batch(load_manifest(manifest), workers=1).rows
        second = run_batch(load_manifest(manifest), workers=1).rows
        assert masked(first) == masked(second)
        assert set(first[0]["exclusive"]) == {
            "pairs_checked", "merges_added", "extensions_added"
        }

    def test_output_jsonl(self, tmp_path):
        manifest = tmp_path / "jobs.jsonl"
        out = tmp_path / "results.jsonl"
        write_manifest(manifest, MANIFEST_ROWS)
        run_batch(load_manifest(manifest), workers=1, output=out)
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 3
        assert {"id", "fingerprint", "cached", "feasible", "groups"} <= set(rows[0])


class TestBatchCli:
    def test_end_to_end_sequential(self, tmp_path, capsys):
        manifest = tmp_path / "jobs.jsonl"
        out = tmp_path / "results.jsonl"
        write_manifest(manifest, MANIFEST_ROWS)
        code = main(["batch", str(manifest), "--output", str(out)])
        assert code == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert [row["id"] for row in rows] == ["tight", "job-4", "loan"]
        assert capsys.readouterr().err.startswith("batch: 3 jobs (3 solved")

    def test_end_to_end_workers_and_disk_cache(self, tmp_path, capsys):
        manifest = tmp_path / "jobs.jsonl"
        cache_dir = tmp_path / "cache"
        write_manifest(manifest, MANIFEST_ROWS[:2])
        code = main(
            ["batch", str(manifest), "--workers", "2", "--cache-dir", str(cache_dir)]
        )
        assert code == 0
        captured = capsys.readouterr()
        cold_rows = [json.loads(line) for line in captured.out.splitlines()]
        assert all(row["feasible"] for row in cold_rows)
        assert list(cache_dir.glob("*/*.json"))  # disk store populated

        # Second run (fresh process-level caches) is served from disk.
        code = main(["batch", str(manifest), "--cache-dir", str(cache_dir)])
        assert code == 0
        warm_rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert all(row["cached"] for row in warm_rows)
        assert [r["fingerprint"] for r in warm_rows] == [
            r["fingerprint"] for r in cold_rows
        ]

    def test_include_log_embeds_abstracted_log(self, tmp_path, capsys):
        manifest = tmp_path / "jobs.jsonl"
        write_manifest(manifest, MANIFEST_ROWS[:1])
        assert main(["batch", str(manifest), "--include-log"]) == 0
        row = json.loads(capsys.readouterr().out.splitlines()[0])
        assert row["abstracted_log"]["traces"]


class TestServeLoop:
    def run_requests(self, requests):
        source = io.StringIO("".join(json.dumps(r) + "\n" for r in requests))
        sink = io.StringIO()
        executor = SequentialExecutor()
        served = serve_loop(source, sink, executor)
        responses = [json.loads(line) for line in sink.getvalue().splitlines()]
        return served, responses

    def test_run_stats_shutdown(self):
        served, responses = self.run_requests(
            [
                {"op": "ping"},
                {
                    "log": "running_example",
                    "constraints": [{"type": "max_group_size", "bound": 5}],
                },
                {"op": "stats"},
                {"op": "shutdown"},
                {"op": "ping"},  # never reached
            ]
        )
        assert served == 4
        assert responses[0] == {"ok": True, "pong": True}
        assert responses[1]["ok"] and responses[1]["feasible"]
        assert responses[2]["stats"]["parent"]["artifact_builds"] == 1
        assert responses[3] == {"ok": True, "bye": True}

    def test_repeat_request_served_from_cache(self):
        job = {
            "log": "running_example",
            "constraints": [{"type": "max_group_size", "bound": 5}],
        }
        _served, responses = self.run_requests([job, job])
        assert responses[0]["cached"] is False
        assert responses[1]["cached"] is True
        assert responses[0]["groups"] == responses[1]["groups"]

    def test_errors_are_in_band(self):
        served, responses = self.run_requests(
            [
                "not an object",
                {"op": "explode"},
                {"log": "no_such_builtin", "constraints": []},
                {"op": "shutdown"},
            ]
        )
        assert served == 4
        assert [r["ok"] for r in responses] == [False, False, False, True]
        assert "error" in responses[2]

    def test_invalid_json_line_survives(self):
        source = io.StringIO('{"op": "ping"}\n{broken\n{"op": "shutdown"}\n')
        sink = io.StringIO()
        served = serve_loop(source, sink, SequentialExecutor())
        responses = [json.loads(line) for line in sink.getvalue().splitlines()]
        assert served == 3
        assert responses[1]["ok"] is False


class TestServeSocket:
    def test_empty_connection_survives_and_shutdown_stops(self):
        import socket
        import threading
        import time

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()

        served_box = []
        thread = threading.Thread(
            target=lambda: served_box.append(
                serve_socket("127.0.0.1", port, SequentialExecutor(), max_requests=10)
            ),
            daemon=True,
        )
        thread.start()

        def connect():
            deadline = time.time() + 30
            while True:
                try:
                    return socket.create_connection(("127.0.0.1", port), timeout=5)
                except OSError:
                    if time.time() > deadline:
                        raise
                    time.sleep(0.05)

        # A client that connects and sends nothing must not stop the server.
        connect().close()

        with connect() as conn:
            stream = conn.makefile("rw", encoding="utf-8")
            stream.write(json.dumps({"op": "ping"}) + "\n")
            stream.flush()
            assert json.loads(stream.readline()) == {"ok": True, "pong": True}
            # The shutdown op must stop the whole server.
            stream.write(json.dumps({"op": "shutdown"}) + "\n")
            stream.flush()
            assert json.loads(stream.readline())["bye"] is True
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert served_box == [2]
