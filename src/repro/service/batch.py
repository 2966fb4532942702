"""Batch and serve entry points: JSONL manifests in, JSONL results out.

``repro batch`` turns a manifest — one JSON job per line, see
:meth:`~repro.service.jobs.AbstractionJob.from_dict` for the row
format — into a results file, fanning the jobs out over a
:class:`~repro.service.executor.PoolExecutor` (or the deterministic
sequential executor).  ``repro serve`` runs the same machinery as a
long-lived request/response loop over line-delimited JSON on
stdin/stdout or a TCP socket, so a warm cache keeps serving repeat
traffic without recomputation.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable

from repro.exceptions import ReproError
from repro.obs.trace import as_tracer
from repro.service.executor import PoolExecutor, SequentialExecutor
from repro.service.jobs import AbstractionJob, share_log_refs
from repro.service.resilience import DeadlineExceeded, Overloaded
from repro.service.serialization import result_to_dict


def load_manifest(source: "str | Path | IO | Iterable[str]") -> list[AbstractionJob]:
    """Parse a JSONL job manifest.

    Blank lines and ``#`` comment lines are skipped.  Jobs without an
    explicit ``id`` are named ``job-<line number>``.
    """
    if isinstance(source, (str, Path)):
        lines: Iterable[str] = Path(source).read_text(encoding="utf-8").splitlines()
    elif hasattr(source, "read"):
        lines = source.read().splitlines()
    else:
        lines = source
    jobs = []
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ReproError(f"manifest line {number} is not valid JSON: {exc}") from exc
        job = AbstractionJob.from_dict(row)
        if job.job_id is None:
            job.job_id = f"job-{number}"
        jobs.append(job)
    if not jobs:
        raise ReproError("manifest contains no jobs")
    return share_log_refs(jobs)


def job_row(job: AbstractionJob, result, cached: bool, seconds: float,
            include_log: bool = False) -> dict:
    """One JSONL result row for a finished job.

    ``seconds`` is whatever duration the caller measured for this job —
    batch rows report the job's own pipeline time (0.0 when served
    from a cache), serve responses report request wall time.
    """
    row = {
        "id": job.job_id,
        "log": job.log.describe(),
        "fingerprint": job.fingerprint().full,
        "cached": cached,
        "seconds": seconds,
        "feasible": result.feasible,
        "distance": result.distance,
        "num_candidates": result.num_candidates,
        "num_groups": len(result.grouping) if result.grouping is not None else None,
        "engine": result.engine,
        "selection": (
            result.selection_stats.as_dict()
            if getattr(result, "selection_stats", None) is not None
            else None
        ),
        "exclusive": (
            result.exclusive_stats.counters()
            if getattr(result, "exclusive_stats", None) is not None
            else None
        ),
        "groups": (
            sorted(sorted(group) for group in result.grouping)
            if result.grouping is not None
            else None
        ),
    }
    if result.infeasibility is not None:
        row["infeasibility"] = result.infeasibility.summary()
    if include_log:
        from repro.service.serialization import log_to_dict

        row["abstracted_log"] = log_to_dict(result.abstracted_log)
    return row


@dataclass
class BatchReport:
    """Outcome of one batch run."""

    rows: list[dict] = field(default_factory=list)
    seconds: float = 0.0
    stats: dict = field(default_factory=dict)
    #: Journal accounting for ``run_dir`` runs: how many rows were
    #: replayed verbatim from the journal vs computed this run, plus
    #: torn/invalid journal lines dropped on load.
    journal: dict = field(default_factory=dict)

    @property
    def jobs_per_second(self) -> float:
        return len(self.rows) / self.seconds if self.seconds > 0 else 0.0

    def solved(self) -> int:
        """Number of jobs whose abstraction problem was feasible."""
        return sum(1 for row in self.rows if row["feasible"])

    def cache_hits(self) -> int:
        """Number of jobs served from a cache instead of computed."""
        return sum(1 for row in self.rows if row["cached"])

    def artifact_builds(self) -> int:
        """Per-log artifact builds across the parent and all workers."""
        parent = self.stats.get("parent", {}).get("artifact_builds", 0)
        workers = self.stats.get("workers_total", {}).get("artifact_builds", 0)
        return parent + workers


def make_executor(
    workers: int = 1,
    cache=None,
    disk_dir=None,
    max_pending: int | None = None,
    broker: str | None = None,
    max_load: int | None = None,
    admission=None,
    degrade: bool = True,
    trace=None,
    trace_rotate_mb: float | None = None,
):
    """Build the executor the CLI flags describe.

    Without a ``broker``: 1 worker means the deterministic
    :class:`SequentialExecutor`, more means a :class:`PoolExecutor`.
    With a broker URL (``fs://``, ``sqlite://``): a
    :class:`~repro.service.dist.executor.DistributedExecutor` that
    spawns ``workers`` local worker processes against the broker
    (``workers=0`` relies entirely on external ``repro worker``
    processes joined to the same URL), wrapped — unless
    ``degrade=False`` — in a
    :class:`~repro.service.resilience.DegradingExecutor` so repeated
    broker failures trip a circuit breaker and jobs fall back to a
    local tier (pool when ``workers > 1``, else sequential) instead of
    erroring.  ``max_load`` / ``admission`` configure admission
    control and load shedding on the pool and distributed tiers (see
    :mod:`repro.service.resilience`); the sequential tier runs at
    submit time and cannot overload, so they are ignored there.
    ``trace`` (a JSONL path or a
    :class:`~repro.obs.trace.TraceWriter`) threads structured tracing
    through whichever executor is built — see :mod:`repro.obs`;
    ``trace_rotate_mb`` caps the trace file size by rotating it to
    ``<path>.1`` (the policy propagates to worker-process writers on
    the same path).
    """
    if trace_rotate_mb:
        import os as _os

        name = "dist-executor" if broker is not None else (
            "sequential" if workers <= 1 else f"pool-parent-{_os.getpid()}"
        )
        trace = as_tracer(trace, worker=name, rotate_mb=trace_rotate_mb)
    if broker is not None:
        from repro.service.dist.executor import DistributedExecutor
        from repro.service.resilience import DegradingExecutor

        primary = DistributedExecutor(
            broker,
            workers=workers,
            cache=cache,
            disk_dir=disk_dir,
            max_pending=max_pending,
            max_load=max_load,
            admission=admission,
            trace=trace,
        )
        if not degrade:
            return primary
        if workers > 1:
            def fallback_factory(workers=workers, disk_dir=disk_dir, trace=trace):
                return PoolExecutor(workers=workers, disk_dir=disk_dir, trace=trace)
        else:
            def fallback_factory(disk_dir=disk_dir, trace=trace):
                from repro.service.cache import ArtifactCache

                return SequentialExecutor(
                    ArtifactCache(disk_dir=disk_dir),
                    tracer=as_tracer(trace, worker="fallback-sequential"),
                )
        return DegradingExecutor(primary, fallback_factory, tracer=primary.tracer)
    if workers <= 1:
        from repro.service.cache import ArtifactCache

        return SequentialExecutor(
            cache or ArtifactCache(disk_dir=disk_dir),
            tracer=as_tracer(trace, worker="sequential"),
        )
    return PoolExecutor(
        workers=workers,
        cache=cache,
        disk_dir=disk_dir,
        max_pending=max_pending,
        max_load=max_load,
        admission=admission,
        trace=trace,
    )


def run_batch(
    jobs: list[AbstractionJob],
    executor=None,
    workers: int = 1,
    output: "str | Path | IO | None" = None,
    include_log: bool = False,
    disk_dir=None,
    broker: str | None = None,
    max_load: int | None = None,
    trace=None,
    trace_rotate_mb: float | None = None,
    run_dir: "str | Path | None" = None,
    resume: bool = False,
) -> BatchReport:
    """Run a list of jobs and collect (optionally write) result rows.

    Rows are emitted in manifest order regardless of completion order,
    so batch output is reproducible — whichever executor ran them
    (sequential, pool, or a broker-backed distributed fleet when
    ``broker`` is given).  The executor is shut down only when it was
    created here.

    Typed resilience outcomes — a job shed by admission control
    (:class:`~repro.service.resilience.Overloaded`) or failed by its
    deadline (:class:`~repro.service.resilience.DeadlineExceeded`) —
    become error rows (``"error"`` key, ``"feasible": false``) instead
    of aborting the whole batch; any other failure still propagates.

    ``run_dir`` makes the run crash-resumable: every completed row is
    appended line-atomically to ``<run_dir>/journal.jsonl`` (see
    :class:`~repro.service.journal.RunJournal`) the moment it finishes.
    With ``resume=True`` journaled rows are emitted *verbatim* — zero
    recomputation, not even a cache lookup — and only the remaining
    jobs are submitted.  Error rows are deliberately not journaled, so
    shed or deadline-failed jobs get a fresh attempt on resume.  The
    ``output`` file is staged to ``<output>.partial`` and atomically
    finalized, so a kill mid-write never leaves a half-written results
    file in place.
    """
    owns_executor = executor is None
    if executor is None:
        executor = make_executor(
            workers=workers, disk_dir=disk_dir, broker=broker,
            max_load=max_load, trace=trace, trace_rotate_mb=trace_rotate_mb,
        )
    journal = None
    replayed: dict = {}
    if run_dir is not None:
        from repro.service.journal import RunJournal, manifest_digest

        journal = RunJournal(Path(run_dir))
        keys = [(job.job_id, job.fingerprint().full) for job in jobs]
        journal.check_manifest(manifest_digest(keys), resume=resume)
        if resume:
            replayed = journal.load()
    else:
        keys = [(job.job_id, job.fingerprint().full) for job in jobs]
    report = BatchReport()
    started = time.perf_counter()
    computed = 0
    try:
        submitted = [
            None if key in replayed else executor.submit(job)
            for key, job in zip(keys, jobs)
        ]
        for key, job, handle in zip(keys, jobs, submitted):
            if handle is None:
                report.rows.append(replayed[key])
                continue
            try:
                result = handle.result()
            except (DeadlineExceeded, Overloaded) as exc:
                report.rows.append({
                    "id": job.job_id,
                    "log": job.log.describe(),
                    "fingerprint": key[1],
                    "cached": False,
                    "seconds": 0.0,
                    "feasible": False,
                    "error": f"{type(exc).__name__}: {exc}",
                })
                continue
            cached = bool(handle.cached)
            # Per-row seconds: the job's own pipeline time — wall time
            # from submit would be order-dependent (it includes waiting
            # on every earlier row in this ordered collection loop).
            seconds = 0.0 if cached else result.timings.total
            row = job_row(job, result, cached, seconds, include_log)
            if journal is not None:
                journal.append(key[0], key[1], row)
            computed += 1
            report.rows.append(row)
        report.seconds = time.perf_counter() - started
        report.stats = executor.stats()
    finally:
        if journal is not None:
            journal.close()
        if owns_executor:
            executor.shutdown()
    if journal is not None:
        report.journal = {
            "replayed": len(replayed),
            "computed": computed,
            "skipped_lines": journal.skipped,
        }
    if output is not None:
        _write_rows(report.rows, output)
    return report


def _write_rows(rows: list[dict], target: "str | Path | IO") -> None:
    """Write result rows; path targets are staged and atomically renamed."""
    if hasattr(target, "write"):
        for row in rows:
            target.write(json.dumps(row) + "\n")
        return
    import os

    target = Path(target)
    partial = target.with_name(target.name + ".partial")
    with open(partial, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")
    os.replace(partial, target)


# -- serve loop -------------------------------------------------------------


def _serve_one(line: str, executor) -> tuple[dict, bool]:
    """Handle one request line; return ``(response, keep_going)``."""
    try:
        request = json.loads(line)
    except json.JSONDecodeError as exc:
        return {"ok": False, "error": f"invalid JSON: {exc}"}, True
    if not isinstance(request, dict):
        return {"ok": False, "error": "request must be a JSON object"}, True
    op = request.get("op", "run")
    if op == "shutdown":
        return {"ok": True, "bye": True}, False
    if op == "ping":
        return {"ok": True, "pong": True}, True
    if op == "stats":
        return {"ok": True, "stats": executor.stats()}, True
    if op != "run":
        return {"ok": False, "error": f"unknown op {op!r}"}, True
    payload = {key: value for key, value in request.items() if key != "op"}
    try:
        job = AbstractionJob.from_dict(payload)
        started = time.perf_counter()
        handle = executor.submit(job)
        result = handle.result()
        seconds = time.perf_counter() - started
    except Exception as exc:  # noqa: BLE001 - reported in-band, loop survives
        return {"ok": False, "error": str(exc)}, True
    row = job_row(job, result, bool(handle.cached), seconds)
    return {"ok": True, **row}, True


def _notify(observer, response: dict) -> None:
    """Best-effort per-response callback (metrics); never raises."""
    if observer is None:
        return
    try:
        observer(response)
    except Exception:
        pass


def serve_loop(input_stream: IO, output_stream: IO, executor,
               observer=None) -> int:
    """Serve line-delimited JSON requests until EOF or ``shutdown``.

    Requests: a job row (optionally with ``"op": "run"``), or control
    operations ``{"op": "stats"}``, ``{"op": "ping"}``,
    ``{"op": "shutdown"}``.  One JSON response per line; errors are
    reported in-band (``{"ok": false, ...}``) and never kill the loop.
    Returns the number of requests served.

    ``observer``, when given, is called with each response dict after
    it is written — the hook ``repro serve --metrics-port`` uses to
    feed its per-request duration histogram and outcome counters.
    Observer exceptions are swallowed.
    """
    served = 0
    for line in input_stream:
        if not line.strip():
            continue
        response, keep_going = _serve_one(line, executor)
        output_stream.write(json.dumps(response) + "\n")
        output_stream.flush()
        served += 1
        _notify(observer, response)
        if not keep_going:
            break
    return served


def serve_socket(
    host: str,
    port: int,
    executor,
    max_requests: int | None = None,
    conn_timeout: float | None = 30.0,
    on_bound=None,
    observer=None,
) -> int:
    """Serve the same protocol over TCP, one client at a time.

    The server keeps accepting connections (clients that connect and
    send nothing are harmless) until a client sends
    ``{"op": "shutdown"}`` or ``max_requests`` requests were served.
    Returns the number of requests served.  Intended for smoke tests
    and single-tenant deployments; heavy multi-tenant traffic should
    front several ``repro serve`` processes with a real load balancer
    (see ROADMAP).

    ``conn_timeout`` bounds how long one connection may sit idle
    between request lines (seconds; ``None`` disables): because the
    loop serves one client at a time, a hung client that connects and
    then goes silent would otherwise block the accept loop forever.  A
    timed-out connection is dropped and the server moves to the next
    ``accept``; requests already served on it are kept.

    ``port`` 0 binds an ephemeral port; ``on_bound`` (when given) is
    called with the server's actual ``(host, port)`` once the socket
    is listening, so callers can connect without racing the bind.
    ``observer`` is the same per-response metrics hook as on
    :func:`serve_loop`.
    """
    import socket

    served = 0
    stopped = False
    with socket.create_server((host, port)) as server:
        if on_bound is not None:
            on_bound(server.getsockname()[:2])
        while not stopped and (max_requests is None or served < max_requests):
            connection, _address = server.accept()
            with connection:
                connection.settimeout(conn_timeout)
                reader = connection.makefile("r", encoding="utf-8")
                writer = connection.makefile("w", encoding="utf-8")
                try:
                    for line in reader:
                        if not line.strip():
                            continue
                        response, keep_going = _serve_one(line, executor)
                        writer.write(json.dumps(response) + "\n")
                        writer.flush()
                        served += 1
                        _notify(observer, response)
                        if not keep_going:
                            stopped = True
                            break
                        if max_requests is not None and served >= max_requests:
                            break
                except (TimeoutError, socket.timeout, OSError):
                    # Idle or broken client: drop it, keep accepting.
                    continue
    return served
