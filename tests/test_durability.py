"""Durability drills: crash-resumable runs, self-healing stores, fleets.

Three layers of the durability story, each tested end to end:

* the **run journal** — ``repro batch --run-dir`` appends every
  finished row line-atomically; a SIGKILL at any seeded point loses at
  most the in-flight row, and ``--resume`` replays journaled rows
  *verbatim* (zero recomputation) before computing only the rest;
* **store integrity** — disk-store entries and fs-broker payloads
  carry embedded checksums; corruption (torn writes, bit rot) is
  detected on read, quarantined, and transparently recomputed, and
  ``repro fsck`` repairs a whole directory offline;
* the **supervised fleet** — ``repro fleet`` restarts crashed workers
  under seeded backoff, quarantines crash-looping slots, and drains
  gracefully on SIGTERM, with every decision visible to the doctor.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.constraints import ConstraintSet, MaxGroupSize
from repro.exceptions import ReproError
from repro.obs.doctor import analyze_trace, recommend
from repro.obs.live import LiveAggregator
from repro.obs.trace import read_trace
from repro.service import (
    AbstractionJob,
    ArtifactCache,
    LogRef,
    FleetSupervisor,
    RetryPolicy,
    RunJournal,
    fsck_report,
    fsck_store,
    run_batch,
    run_job,
)
from repro.service.dist import DistributedExecutor, connect_broker
from repro.service.dist.chaos import ChaosConfig, DiskFaultInjector
from repro.service.dist.fsbroker import FilesystemBroker
from repro.service.dist.worker import spawn_worker_process
from repro.service.journal import (
    FRAME_MAGIC,
    IntegrityError,
    frame_bytes,
    manifest_digest,
    seal,
    sweep_stale_tmp,
    unframe_bytes,
    verify_seal,
)


def _jobs(n: int = 4):
    return [
        AbstractionJob(
            log=LogRef.builtin("running_example"),
            constraints=ConstraintSet([MaxGroupSize(bound)]),
            job_id=f"re-{bound}",
        )
        for bound in range(2, 2 + n)
    ]


def _masked(value):
    """Rows with wall-clock fields dropped (the only nondeterminism)."""
    if isinstance(value, dict):
        return {k: _masked(v) for k, v in value.items()
                if k not in ("seconds", "timings")}
    if isinstance(value, list):
        return [_masked(v) for v in value]
    return value


class TestIntegrityPrimitives:
    def test_seal_round_trip_and_tamper(self):
        payload = seal({"a": 1, "b": [2, 3]})
        assert "integrity" in payload
        assert verify_seal(dict(payload)) == {"a": 1, "b": [2, 3]}
        payload["a"] = 999
        with pytest.raises(IntegrityError):
            verify_seal(payload)

    def test_legacy_unsealed_payload_passes_through(self):
        assert verify_seal({"a": 1}) == {"a": 1}

    def test_frame_round_trip_and_tamper(self):
        data = b"some pickled payload \x00\xff"
        framed = frame_bytes(data)
        assert framed.startswith(FRAME_MAGIC)
        assert unframe_bytes(framed) == data
        with pytest.raises(IntegrityError):
            unframe_bytes(framed[:-2] + b"xx")

    def test_unframed_legacy_bytes_pass_through(self):
        assert unframe_bytes(b"legacy") == b"legacy"

    def test_stale_tmp_sweep_keeps_fresh_files(self, tmp_path):
        stale = tmp_path / "a.tmp"
        fresh = tmp_path / "b.tmp"
        keeper = tmp_path / "data.json"
        for path in (stale, fresh, keeper):
            path.write_text("x")
        old = time.time() - 3600
        os.utime(stale, (old, old))
        removed = sweep_stale_tmp(tmp_path, max_age=300.0)
        assert [Path(p).name for p in removed] == ["a.tmp"]
        assert not stale.exists() and fresh.exists() and keeper.exists()


class TestRunJournal:
    def test_append_load_round_trip_latest_wins(self, tmp_path):
        with RunJournal(tmp_path) as journal:
            journal.append("j1", "fp1", {"job_id": "j1", "v": 1})
            journal.append("j2", "fp2", {"job_id": "j2", "v": 2})
            journal.append("j1", "fp1", {"job_id": "j1", "v": 3})
        rows = RunJournal(tmp_path).load()
        assert rows[("j1", "fp1")] == {"job_id": "j1", "v": 3}
        assert rows[("j2", "fp2")] == {"job_id": "j2", "v": 2}

    def test_torn_and_corrupt_lines_are_skipped(self, tmp_path):
        with RunJournal(tmp_path) as journal:
            journal.append("j1", "fp1", {"v": 1})
            journal.append("j2", "fp2", {"v": 2})
        path = tmp_path / "journal.jsonl"
        lines = path.read_bytes().splitlines(keepends=True)
        # Flip a byte inside the first row's payload, tear the second.
        corrupt = lines[0].replace(b'"v":1', b'"v":7')
        path.write_bytes(corrupt + lines[1][: len(lines[1]) // 2])
        journal = RunJournal(tmp_path)
        assert journal.load() == {}
        assert journal.skipped == 2

    def test_fresh_run_refuses_existing_journal(self, tmp_path):
        digest = manifest_digest([("j1", "fp1")])
        with RunJournal(tmp_path) as journal:
            journal.check_manifest(digest, resume=False)
            journal.append("j1", "fp1", {"v": 1})
        with pytest.raises(ReproError, match="--resume"):
            RunJournal(tmp_path).check_manifest(digest, resume=False)

    def test_resume_refuses_different_manifest(self, tmp_path):
        with RunJournal(tmp_path) as journal:
            journal.check_manifest(manifest_digest([("a", "f1")]), resume=True)
        with pytest.raises(ReproError, match="manifest"):
            RunJournal(tmp_path).check_manifest(
                manifest_digest([("b", "f2")]), resume=True
            )


#: Driver for the kill drills: run a journalled batch in a child that
#: SIGKILLs itself the moment the journal holds K rows.  Deterministic
#: crash points without timing races.
_KILL_DRIVER = """
import json, os, signal, sys
from repro.constraints import ConstraintSet, MaxGroupSize
from repro.service import AbstractionJob, LogRef, run_batch
from repro.service.journal import RunJournal

kill_after = int(sys.argv[1])
run_dir = sys.argv[2]
out = sys.argv[3]
n = int(sys.argv[4])

_original = RunJournal.append
def _append_then_die(self, job_id, fingerprint, row):
    _original(self, job_id, fingerprint, row)
    if kill_after and sum(1 for _ in open(self.path)) >= kill_after:
        os.kill(os.getpid(), signal.SIGKILL)
RunJournal.append = _append_then_die

jobs = [
    AbstractionJob(
        log=LogRef.builtin("running_example"),
        constraints=ConstraintSet([MaxGroupSize(bound)]),
        job_id=f"re-{bound}",
    )
    for bound in range(2, 2 + n)
]
run_batch(jobs, run_dir=run_dir, output=out)
"""


class TestKillResume:
    N = 4

    def _run_killed(self, tmp_path, kill_after: int):
        run_dir = tmp_path / f"run-k{kill_after}"
        out = tmp_path / f"out-k{kill_after}.jsonl"
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", _KILL_DRIVER, str(kill_after),
             str(run_dir), str(out), str(self.N)],
            env=env, capture_output=True, timeout=120,
        )
        return run_dir, out, proc

    @pytest.mark.parametrize("kill_after", [1, 2, 3])
    def test_sigkill_then_resume_is_byte_identical(self, tmp_path, kill_after):
        jobs = _jobs(self.N)
        reference = run_batch(jobs).rows

        run_dir, out, proc = self._run_killed(tmp_path, kill_after)
        assert proc.returncode == -signal.SIGKILL
        assert not out.exists()  # output is finalized atomically, or not at all
        journaled = sum(1 for _ in open(run_dir / "journal.jsonl"))
        assert journaled == kill_after

        report = run_batch(_jobs(self.N), run_dir=run_dir, resume=True,
                           output=out)
        assert report.journal["replayed"] == kill_after
        assert report.journal["computed"] == self.N - kill_after
        resumed = [json.loads(line) for line in open(out)]
        assert _masked(resumed) == _masked(reference)
        # Replayed rows are verbatim: byte-identical to the journal copy.
        rows = RunJournal(run_dir).load()
        for row in resumed[:kill_after]:
            assert rows[(row["id"], row["fingerprint"])] == row

    def test_second_resume_replays_everything(self, tmp_path):
        run_dir = tmp_path / "run"
        first = run_batch(_jobs(self.N), run_dir=run_dir)
        second = run_batch(_jobs(self.N), run_dir=run_dir, resume=True)
        assert second.journal["replayed"] == self.N
        assert second.journal["computed"] == 0
        # Full replay is fully byte-identical, wall clock included.
        assert second.rows == first.rows

    def test_fresh_run_on_dirty_dir_raises(self, tmp_path):
        run_dir = tmp_path / "run"
        run_batch(_jobs(2), run_dir=run_dir)
        with pytest.raises(ReproError, match="--resume"):
            run_batch(_jobs(2), run_dir=run_dir)


class TestStoreSelfHealing:
    def test_bit_rot_is_quarantined_and_recomputed(self, tmp_path):
        store = tmp_path / "store"
        cache = ArtifactCache(disk_dir=store)
        job = _jobs(1)[0]
        result, _ = run_job(job, cache)
        fingerprint = job.fingerprint().full

        # Valid JSON, silently altered content: only the checksum sees it.
        path = next(p for p in store.glob("*/*.json")
                    if "selection" not in p.parts)
        entry = json.loads(path.read_text())
        entry["seconds"] = 123456.0
        path.write_text(json.dumps(entry))

        fresh = ArtifactCache(disk_dir=store)
        assert fresh.get_result(fingerprint) is None
        assert fresh.stats.disk_quarantined == 1
        assert list(store.glob("quarantine/*.bad"))
        # Recompute repairs the store in place.
        run_job(job, fresh)
        healed = ArtifactCache(disk_dir=store)
        assert healed.get_result(fingerprint) is not None

    def test_startup_sweeps_stale_tmp(self, tmp_path):
        store = tmp_path / "store"
        store.mkdir()
        stale = store / "leftover.tmp"
        stale.write_text("{")
        old = time.time() - 3600
        os.utime(stale, (old, old))
        cache = ArtifactCache(disk_dir=store)
        assert cache.tmp_swept == 1
        assert not stale.exists()

    def test_torn_write_injection_heals_on_read(self, tmp_path):
        store = tmp_path / "store"
        injector = DiskFaultInjector(seed=7, torn_rate=1.0)
        cache = ArtifactCache(disk_dir=store, disk_writer=injector.write_json_atomic)
        job = _jobs(1)[0]
        run_job(job, cache)
        assert injector.injected["torn"] >= 1

        fresh = ArtifactCache(disk_dir=store)
        assert fresh.get_result(job.fingerprint().full) is None
        assert fresh.stats.disk_quarantined >= 1

    def test_enospc_injection_degrades_without_failing(self, tmp_path):
        store = tmp_path / "store"
        injector = DiskFaultInjector(seed=7, enospc_rate=1.0)
        cache = ArtifactCache(disk_dir=store, disk_writer=injector.write_json_atomic)
        job = _jobs(1)[0]
        result, _ = run_job(job, cache)  # must not raise
        assert injector.injected["enospc"] >= 1
        assert result is not None
        assert not list(store.glob("*/*.json"))

    def test_fsck_store_repairs_and_converges(self, tmp_path):
        store = tmp_path / "store"
        cache = ArtifactCache(disk_dir=store)
        for job in _jobs(3):
            run_job(job, cache)
        entries = [p for p in store.glob("*/*.json") if "selection" not in p.parts]
        entries[0].write_text("{torn")
        entries[1].write_bytes(entries[1].read_bytes().replace(b'"seconds"', b'"sekonds"'))
        stale = store / "x.tmp"
        stale.write_text("{")
        os.utime(stale, (time.time() - 3600,) * 2)

        report = fsck_store(store, repair=True)
        assert len(report["quarantined"]) == 2
        assert report["repaired"] == 2
        assert len(report["tmp_removed"]) == 1
        # Second pass: clean bill of health.
        again = fsck_store(store, repair=True)
        assert again["quarantined"] == []
        assert again["already_quarantined"] == 2


class TestBrokerIntegrity:
    def _enqueue(self, broker, payload=b"payload"):
        from repro.service.dist.broker import TaskEnvelope, new_task_id

        envelope = TaskEnvelope(task_id=new_task_id(), kind="call",
                                payload=payload)
        broker.put(envelope)
        return envelope

    def test_queue_payloads_are_framed_on_disk(self, tmp_path):
        broker = FilesystemBroker(tmp_path / "q")
        self._enqueue(broker, b"hello")
        (entry,) = list((tmp_path / "q" / "queue").iterdir())
        assert entry.read_bytes().startswith(FRAME_MAGIC)
        claim = broker.claim("w1", lease=5.0)
        assert claim.envelope.payload == b"hello"

    def test_corrupt_queue_payload_is_quarantined_not_delivered(self, tmp_path):
        broker = FilesystemBroker(tmp_path / "q")
        self._enqueue(broker, b"rotten")
        good = self._enqueue(broker, b"good")
        for entry in (tmp_path / "q" / "queue").iterdir():
            data = entry.read_bytes()
            if data.endswith(b"rotten"):
                entry.write_bytes(data[:-3] + b"XXX")
        claim = broker.claim("w1", lease=5.0)
        assert claim is not None
        assert claim.envelope.payload == b"good"
        assert claim.envelope.task_id == good.task_id
        assert list((tmp_path / "q" / "quarantine").iterdir())

    def test_corrupt_result_becomes_typed_error(self, tmp_path):
        from repro.service.dist.broker import decode_result, encode_result

        broker = FilesystemBroker(tmp_path / "q")
        envelope = self._enqueue(broker)
        claim = broker.claim("w1", lease=5.0)
        broker.complete(claim, encode_result(value=41))
        (result_file,) = list((tmp_path / "q" / "results").iterdir())
        result_file.write_bytes(result_file.read_bytes()[:-4] + b"XXXX")
        payload = broker.get_result(envelope.task_id)
        assert payload is not None
        decoded = decode_result(payload)
        assert "checksum" in (decoded.get("error") or "")
        assert list((tmp_path / "q" / "quarantine").glob("*.res.bad"))

    def test_fsck_report_covers_store_and_broker(self, tmp_path):
        import pickle

        broker = FilesystemBroker(tmp_path / "q")
        self._enqueue(broker, pickle.dumps({"kind": "call"}))
        store = tmp_path / "store"
        cache = ArtifactCache(disk_dir=store)
        run_job(_jobs(1)[0], cache)
        report = fsck_report(cache_dir=store, broker=f"fs://{tmp_path / 'q'}")
        assert report["schema"] == "gecco-fsck/1"
        assert report["totals"]["quarantined"] == 0
        assert report["store"]["scanned"] >= 1
        assert report["broker"]["scanned"] >= 1

    def test_report_only_fsck_lists_stale_tmp_files_and_keeps_them(self, tmp_path):
        store = tmp_path / "store"
        (store / "ab").mkdir(parents=True)
        FilesystemBroker(tmp_path / "q")
        staging = [store / "x.tmp", store / "ab" / "y.tmp",
                   tmp_path / "q" / "tmp" / "z.tmp"]
        old = time.time() - 3600
        for path in staging:
            path.write_text("{")
            os.utime(path, (old, old))
        report = fsck_report(cache_dir=store, broker=f"fs://{tmp_path / 'q'}",
                             repair=False)
        # Listed as what a repair would remove, but left on disk.
        assert report["store"]["tmp_removed"] == ["ab/y.tmp", "x.tmp"]
        assert report["broker"]["tmp_removed"] == ["z.tmp"]
        assert report["totals"]["tmp_removed"] == 3
        assert all(path.exists() for path in staging)


class TestGracefulShutdown:
    def test_worker_drains_on_sigterm(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        url = f"fs://{tmp_path / 'q'}"
        connect_broker(url).close()  # create the directory layout
        process = spawn_worker_process(url, lease=5.0, poll_interval=0.02,
                                       trace=str(trace))
        try:
            deadline = time.time() + 10
            while not trace.exists() and time.time() < deadline:
                time.sleep(0.02)
            time.sleep(0.2)  # let the loop install its signal handlers
            os.kill(process.pid, signal.SIGTERM)
            process.join(timeout=10)
            assert process.exitcode == 0
        finally:
            if process.is_alive():
                process.kill()
                process.join(timeout=5)
        events = read_trace(trace)
        (exit_event,) = [e for e in events if e["event"] == "worker_exit"]
        assert exit_event["drained_by"] == "SIGTERM"


class TestFleetSupervisor:
    def test_chaos_kills_are_restarted_and_jobs_survive(self, tmp_path):
        url = f"fs://{tmp_path / 'q'}"
        trace = tmp_path / "trace.jsonl"
        jobs = _jobs(3)
        with DistributedExecutor(url, workers=0, lease=5.0,
                                 poll_interval=0.02) as executor:
            handles = [executor.submit(job) for job in jobs]
            supervisor = FleetSupervisor(
                url, workers=2, lease=5.0, poll_interval=0.02,
                trace=str(trace), idle_exit=1.0, check_interval=0.05,
                max_restarts=50, restart_window=0.5,
                backoff=RetryPolicy(attempts=10**6, base_delay=0.01,
                                    max_delay=0.05, seed="drill"),
                chaos=ChaosConfig(seed=3, kill_rate=1.0),
            )
            report = supervisor.run()
            results = [handle.result(timeout=10) for handle in handles]
        assert all(result is not None for result in results)
        assert report["restarts"] >= 1
        assert report["drained_by"] == "idle"
        events = read_trace(trace)
        names = [e["event"] for e in events]
        assert "supervisor_started" in names
        assert "worker_restart" in names
        assert "supervisor_exit" in names

    def test_crash_loop_quarantines_the_slot(self, tmp_path, monkeypatch):
        # Workers that die instantly: the fork children inherit the patch.
        import repro.service.dist.worker as worker_mod

        def _die_immediately(*args, **kwargs):
            os._exit(3)

        monkeypatch.setattr(worker_mod, "worker_loop", _die_immediately)
        url = f"fs://{tmp_path / 'q'}"
        trace = tmp_path / "trace.jsonl"
        supervisor = FleetSupervisor(
            url, workers=1, max_restarts=2, restart_window=30.0,
            check_interval=0.02, trace=str(trace), mp_context="fork",
            backoff=RetryPolicy(attempts=10**6, base_delay=0.01,
                                max_delay=0.02, seed="loop"),
        )
        report = supervisor.run()
        assert report["quarantined_slots"] == [0]
        assert report["drained_by"] == "all_slots_quarantined"
        assert report["slots"][0]["last_exitcode"] == 3
        names = [e["event"] for e in read_trace(trace)]
        assert names.count("worker_restart") == 1
        assert "supervisor_slot_quarantined" in names

        # The doctor turns the same trace into a crash-loop diagnosis.
        doctor = analyze_trace(read_trace(trace))
        assert doctor["taxonomy"]["worker_restarts"] == 1
        assert doctor["taxonomy"]["slot_quarantines"] == 1
        recs = recommend(doctor)
        assert any(rec["id"] == "crash_loop" for rec in recs)


class TestObservabilityOfRestarts:
    _EVENTS = [
        {"event": "worker_restart", "ts": 1.0, "slot": 0, "exitcode": -9,
         "restarts": 1, "backoff_s": 0.2},
        {"event": "worker_restart", "ts": 2.0, "slot": 0, "exitcode": -9,
         "restarts": 2, "backoff_s": 0.4},
        {"event": "worker_restart", "ts": 3.0, "slot": 1, "exitcode": 1,
         "restarts": 1, "backoff_s": 0.2},
        {"event": "supervisor_slot_quarantined", "ts": 4.0, "slot": 0,
         "restarts": 3, "window_s": 30.0, "exitcode": -9},
    ]

    def test_doctor_counts_and_recommends(self):
        report = analyze_trace(list(self._EVENTS))
        assert report["taxonomy"]["worker_restarts"] == 3
        assert report["taxonomy"]["slot_quarantines"] == 1
        timeline_events = [entry["event"] for entry in report["timeline"]]
        assert "worker_restart" in timeline_events
        assert any(rec["id"] == "crash_loop" for rec in recommend(report))

    def test_top_surfaces_restart_incidents(self):
        aggregator = LiveAggregator(window=60.0)
        aggregator.feed(list(self._EVENTS))
        snapshot = aggregator.snapshot()
        assert snapshot["taxonomy"]["worker_restarts"] == 3
        assert snapshot["taxonomy"]["slot_quarantines"] == 1
        incidents = [i["event"] for i in snapshot["incidents"]]
        assert "worker_restart" in incidents
        assert "supervisor_slot_quarantined" in incidents
