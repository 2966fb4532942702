"""Command-line interface: ``gecco`` / ``python -m repro``.

Subcommands
-----------
``abstract``
    Abstract a log (XES or CSV) under a JSON constraint specification
    and write the abstracted log::

        gecco abstract log.xes --constraints constraints.json \
            --strategy dfg --output abstracted.xes

``stats``
    Print the Table III statistics of a log.

``dfg``
    Print a log's DFG as DOT (optionally 80/20-filtered).

``demo``
    Run the paper's running example end to end and print the groups.

``constraint-types``
    List the constraint types accepted in JSON specifications.

``batch``
    Run a JSONL manifest of abstraction jobs through the service
    runtime (:mod:`repro.service`) — multi-core, cache-backed::

        gecco batch jobs.jsonl --workers 4 --output results.jsonl

``serve``
    Long-lived line-JSON request/response loop (stdin/stdout, or a TCP
    socket with ``--port``) over a warm artifact cache.

``worker``
    Join a distributed fleet: claim and run jobs from a broker queue
    until stopped (see ``docs/operations.md``)::

        gecco worker --broker fs:///shared/queue --cache-dir /shared/cache

    ``batch`` and ``serve`` accept the same ``--broker URL`` to
    dispatch through the distributed executor instead of the
    in-process pool.

``fleet``
    Supervise ``N`` local worker processes against one broker:
    crashed workers are restarted with seeded backoff, crash-looping
    slots are quarantined, and SIGTERM drains the fleet gracefully::

        gecco fleet --workers 4 --broker fs:///shared/queue \
            --cache-dir /shared/cache --trace /shared/trace.jsonl

``fsck``
    Scan (and repair) a disk store and/or an fs-broker directory:
    checksum-verify every entry, quarantine corruption, drop orphaned
    leases and stale staging files::

        gecco fsck --cache-dir /shared/cache --broker fs:///shared/queue --json

``doctor``
    Offline failure forensics over the structured traces that
    ``batch`` / ``serve`` / ``worker`` write with ``--trace PATH``
    (see :mod:`repro.obs` and ``docs/observability.md``)::

        gecco doctor /shared/trace.jsonl worker-host2.jsonl --json

    ``--recommend`` appends evidence-backed tuning suggestions.
    ``serve`` and ``worker`` additionally expose live counters in
    Prometheus text format with ``--metrics-port N`` (scrape
    ``http://127.0.0.1:N/metrics``; ``0`` binds an ephemeral port
    that is printed and traced).

``top``
    Live dashboard over the same traces while the fleet is running —
    tails the files incrementally (rotation-aware) and renders
    rolling-window stage latencies, worker liveness, queue depth, and
    the failure taxonomy::

        gecco top /shared/trace.jsonl            # refresh loop
        gecco top /shared/trace.jsonl --once --json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.constraints.parser import known_constraint_types, parse_constraints
from repro.core.gecco import Gecco, GeccoConfig
from repro.eventlog import csv_io, xes
from repro.eventlog.dfg import compute_dfg
from repro.eventlog.events import EventLog
from repro.eventlog.statistics import describe
from repro.exceptions import ReproError
from repro.experiments.figures import dfg_to_dot


def _load_log(path: str) -> EventLog:
    suffix = Path(path).suffix.lower()
    if suffix == ".xes":
        return xes.load(path)
    if suffix == ".csv":
        return csv_io.read_csv(path)
    raise ReproError(f"unsupported log format {suffix!r} (use .xes or .csv)")


def _save_log(log: EventLog, path: str) -> None:
    suffix = Path(path).suffix.lower()
    if suffix == ".xes":
        xes.dump(log, path)
    elif suffix == ".csv":
        csv_io.write_csv(log, path)
    else:
        raise ReproError(f"unsupported output format {suffix!r} (use .xes or .csv)")


def _cmd_abstract(args: argparse.Namespace) -> int:
    log = _load_log(args.log)
    specs = json.loads(Path(args.constraints).read_text(encoding="utf-8"))
    constraints = parse_constraints(specs)
    beam_width: int | str | None
    if args.beam_width == "auto":
        beam_width = "auto"
    elif args.beam_width is None:
        beam_width = None
    else:
        beam_width = int(args.beam_width)
    config = GeccoConfig(
        strategy=args.strategy,
        beam_width=beam_width,
        abstraction_strategy=args.abstraction,
        solver=args.solver,
        selection=args.selection,
        selection_workers=args.selection_workers,
        candidate_timeout=args.timeout,
        engine=args.engine,
    )
    result = Gecco(constraints, config).abstract(log)
    if not result.feasible:
        print("INFEASIBLE: no grouping satisfies the constraints.", file=sys.stderr)
        if result.infeasibility is not None:
            print(result.infeasibility.summary(), file=sys.stderr)
        return 2
    print(f"grouping ({len(result.grouping)} groups, dist={result.distance:.3f}):")
    for group in sorted(result.grouping, key=lambda g: sorted(g)[0]):
        print(f"  {result.grouping.label_of(group)}: {{{', '.join(sorted(group))}}}")
    if args.output:
        _save_log(result.abstracted_log, args.output)
        print(f"abstracted log written to {args.output}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    stats = describe(_load_log(args.log))
    for key, value in stats.as_row().items():
        print(f"{key}: {value}")
    print(f"Events: {stats.num_events}")
    return 0


def _cmd_dfg(args: argparse.Namespace) -> int:
    log = _load_log(args.log)
    print(dfg_to_dot(compute_dfg(log), keep_fraction=args.keep, title=args.log))
    return 0


def _cmd_demo(_args: argparse.Namespace) -> int:
    from repro.constraints import ConstraintSet, MaxDistinctClassAttribute
    from repro.datasets import running_example_log
    from repro.eventlog.events import ROLE_KEY

    log = running_example_log()
    constraints = ConstraintSet([MaxDistinctClassAttribute(ROLE_KEY, 1)])
    result = Gecco(constraints, GeccoConfig(strategy="dfg")).abstract(log)
    print("running example, constraint |g.role| <= 1 (paper Fig. 7):")
    print(f"  distance: {result.distance:.3f} (paper reports 3.08)")
    for group in sorted(result.grouping, key=lambda g: sorted(g)[0]):
        print(f"  {result.grouping.label_of(group)}: {{{', '.join(sorted(group))}}}")
    for trace, abstracted in zip(log, result.abstracted_log):
        original = ", ".join(event.event_class for event in trace)
        lifted = ", ".join(event.event_class for event in abstracted)
        print(f"  <{original}>  ->  <{lifted}>")
    return 0


def _cmd_discover(args: argparse.Namespace) -> int:
    log = _load_log(args.log)
    if args.algorithm == "inductive":
        from repro.mining.inductive import inductive_miner, tree_size

        tree = inductive_miner(log)
        print(f"process tree ({tree_size(tree)} nodes):")
        print(f"  {tree!r}")
    elif args.algorithm == "alpha":
        from repro.mining.alpha import alpha_miner
        from repro.mining.petri import petri_to_dot, token_replay

        net = alpha_miner(log)
        replay = token_replay(net, log)
        print(f"{net}; replay fitness {replay.fitness:.3f} "
              f"({replay.fitting_traces}/{replay.total_traces} traces fit)")
        if args.dot:
            print(petri_to_dot(net, title=args.log))
    else:
        from repro.mining.complexity import complexity_report
        from repro.mining.discovery import discover_model

        model = discover_model(log)
        report = complexity_report(model)
        print(f"{model}; CFC {report.cfc}, size {report.size}, "
              f"CNC {report.cnc:.2f}")
    return 0


def _cmd_suggest(args: argparse.Namespace) -> int:
    from repro.constraints.suggestion import suggest_constraints

    log = _load_log(args.log)
    suggestions = suggest_constraints(log, limit=args.limit)
    if not suggestions:
        print("no constraint suggestions for this log")
        return 0
    print(f"suggested constraints for {args.log}:")
    for suggestion in suggestions:
        print(f"  {suggestion.describe()}")
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from repro.experiments.reproduce import reproduce_all

    summary = reproduce_all(
        args.output,
        max_traces=args.max_traces,
        max_classes=args.max_classes,
        candidate_timeout=args.timeout,
        include_exhaustive=not args.no_exhaustive,
    )
    print(summary.describe())
    return 0


def _cmd_constraint_types(_args: argparse.Namespace) -> int:
    for name in known_constraint_types():
        print(name)
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    from repro.service import load_manifest, run_batch

    jobs = load_manifest(args.manifest)
    if args.deadline_ms is not None:
        # A batch-wide default budget; manifest rows with their own
        # deadline_ms keep it.
        for job in jobs:
            if job.deadline_ms is None:
                job.deadline_ms = args.deadline_ms
    report = run_batch(
        jobs,
        workers=args.workers,
        output=args.output,
        include_log=args.include_log,
        disk_dir=args.cache_dir,
        broker=args.broker,
        max_load=args.max_load,
        trace=args.trace,
        trace_rotate_mb=args.trace_rotate_mb,
        run_dir=args.run_dir,
        resume=args.resume,
    )
    if args.output is None:
        for row in report.rows:
            print(json.dumps(row))
    print(
        f"batch: {len(report.rows)} jobs ({report.solved()} solved, "
        f"{report.cache_hits()} served from cache) in {report.seconds:.2f}s "
        f"({report.jobs_per_second:.2f} jobs/s, workers={args.workers}); "
        f"artifact builds={report.artifact_builds()}",
        file=sys.stderr,
    )
    if report.journal:
        print(
            f"journal: replayed={report.journal['replayed']} "
            f"computed={report.journal['computed']} "
            f"skipped_lines={report.journal['skipped_lines']} "
            f"(run dir {args.run_dir})",
            file=sys.stderr,
        )
    if args.output:
        print(f"results written to {args.output}", file=sys.stderr)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import make_executor, serve_loop, serve_socket

    executor = make_executor(
        workers=args.workers,
        disk_dir=args.cache_dir,
        broker=args.broker,
        max_load=args.max_load,
        trace=args.trace,
        trace_rotate_mb=args.trace_rotate_mb,
    )
    metrics_server = None
    observer = None
    if args.metrics_port is not None:
        from repro.obs import MetricsRegistry, MetricsServer, sync_executor_stats

        registry = MetricsRegistry()
        durations = registry.histogram(
            "repro_job_duration_seconds",
            "end-to-end seconds per served job (cache hits included)",
        )
        outcomes = registry.counter(
            "repro_jobs_total", "served jobs by outcome (ok/cached/error)"
        )

        def observer(response, _hist=durations, _count=outcomes):
            # Control responses (ping/stats/shutdown) carry no job row.
            if response.get("ok"):
                if "fingerprint" not in response:
                    return
                outcome = "cached" if response.get("cached") else "ok"
            else:
                outcome = "error"
            _count.inc(outcome=outcome)
            _hist.observe(float(response.get("seconds") or 0.0))

        metrics_server = MetricsServer(
            registry,
            port=args.metrics_port,
            refresh=lambda: sync_executor_stats(registry, executor.stats()),
        )
        print(f"metrics endpoint on {metrics_server.url}", file=sys.stderr)
        tracer = getattr(executor, "tracer", None)
        if tracer is not None:
            tracer.emit(
                "metrics_endpoint",
                port=metrics_server.port,
                url=metrics_server.url,
            )
    try:
        if args.port is not None:
            print(
                f"serving on {args.host}:{args.port} (workers={args.workers})",
                file=sys.stderr,
            )
            served = serve_socket(
                args.host,
                args.port,
                executor,
                max_requests=args.max_requests,
                conn_timeout=args.conn_timeout,
                observer=observer,
            )
        else:
            served = serve_loop(sys.stdin, sys.stdout, executor,
                                observer=observer)
    finally:
        if metrics_server is not None:
            metrics_server.close()
        executor.shutdown()
    print(f"served {served} requests", file=sys.stderr)
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.service.cache import ArtifactCache
    from repro.service.dist.chaos import ChaosBroker, ChaosConfig
    from repro.service.dist.worker import WorkerStats, default_worker_id, worker_loop

    print(
        f"worker joining broker {args.broker} "
        f"(lease={args.lease}s, cache_dir={args.cache_dir})",
        file=sys.stderr,
    )
    broker = args.broker
    chaos = ChaosConfig.from_args(args)
    if chaos.any_faults():
        from repro.service.dist.broker import connect_broker

        print(
            f"chaos: injecting faults with seed={chaos.seed} "
            "(fault schedules are deterministic per seed)",
            file=sys.stderr,
        )
        broker = ChaosBroker(connect_broker(args.broker), chaos)
    cache = ArtifactCache(disk_dir=args.cache_dir)
    stats = WorkerStats(worker=args.worker_id or default_worker_id())
    tracer = None
    if args.trace is not None:
        from repro.obs.trace import TraceWriter

        tracer = TraceWriter(
            args.trace, worker=stats.worker,
            rotate_mb=args.trace_rotate_mb,
        )
    metrics_server = None
    observer = None
    if args.metrics_port is not None:
        from repro.obs import MetricsRegistry, MetricsServer, sync_worker_stats

        registry = MetricsRegistry()
        durations = registry.histogram(
            "repro_job_duration_seconds",
            "seconds per completed task on this worker",
        )
        outcomes = registry.counter(
            "repro_jobs_total", "completed tasks by outcome (ok/error)"
        )

        def observer(outcome, seconds, _hist=durations, _count=outcomes):
            _count.inc(outcome=outcome)
            _hist.observe(seconds)

        def refresh():
            stats.cache = cache.snapshot()
            sync_worker_stats(registry, stats)

        metrics_server = MetricsServer(
            registry, port=args.metrics_port, refresh=refresh
        )
        print(f"metrics endpoint on {metrics_server.url}", file=sys.stderr)
        if tracer is not None:
            tracer.emit(
                "metrics_endpoint",
                port=metrics_server.port,
                url=metrics_server.url,
            )
    try:
        stats = worker_loop(
            broker,
            cache=cache,
            worker_id=args.worker_id,
            lease=args.lease,
            poll_interval=args.poll_interval,
            max_tasks=args.max_tasks,
            idle_exit=args.idle_exit,
            max_attempts=args.max_attempts,
            trace=tracer if tracer is not None else args.trace,
            stats=stats,
            observer=observer,
        )
    finally:
        if metrics_server is not None:
            metrics_server.close()
        if broker is not args.broker:
            broker.close()
    print(
        f"worker {stats.worker} exiting: {stats.completed} completed, "
        f"{stats.failed} failed, {stats.quarantined} quarantined, "
        f"{stats.requeued} requeued for the fleet",
        file=sys.stderr,
    )
    print(json.dumps(stats.as_dict()))
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.service.dist.chaos import ChaosConfig
    from repro.service.supervisor import FleetSupervisor

    chaos = ChaosConfig.from_args(args)
    print(
        f"fleet: supervising {args.workers} workers on {args.broker} "
        f"(crash-loop policy: {args.max_restarts} restarts "
        f"in {args.restart_window}s quarantines the slot)",
        file=sys.stderr,
    )
    if chaos.any_faults():
        print(
            f"chaos: injecting faults with seed={chaos.seed} "
            "(fault schedules are deterministic per seed)",
            file=sys.stderr,
        )
    supervisor = FleetSupervisor(
        args.broker,
        workers=args.workers,
        cache_dir=args.cache_dir,
        lease=args.lease,
        poll_interval=args.poll_interval,
        trace=args.trace,
        trace_rotate_mb=args.trace_rotate_mb,
        restart_window=args.restart_window,
        max_restarts=args.max_restarts,
        idle_exit=args.idle_exit,
        chaos=chaos if chaos.any_faults() else None,
        drain_timeout=args.drain_timeout,
    )
    report = supervisor.run()
    print(
        f"fleet drained ({report['drained_by']}): "
        f"{report['restarts']} restarts, "
        f"{len(report['quarantined_slots'])} slots quarantined",
        file=sys.stderr,
    )
    print(json.dumps(report))
    return 0 if not report["quarantined_slots"] else 3


def _cmd_fsck(args: argparse.Namespace) -> int:
    from repro.service.fsck import fsck_report, render_fsck

    report = fsck_report(
        cache_dir=args.cache_dir, broker=args.broker,
        repair=not args.no_repair,
    )
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(render_fsck(report))
    totals = report["totals"]
    if totals["quarantined"] and args.no_repair:
        return 4  # rot found and left in place
    return 0


def _cmd_doctor(args: argparse.Namespace) -> int:
    from repro.obs.doctor import main_doctor

    out = main_doctor(
        args.traces, as_json=args.json, recommend_flag=args.recommend
    )
    print(out, end="" if out.endswith("\n") else "\n")
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.obs.live import main_top

    return main_top(
        args.traces,
        once=args.once,
        as_json=args.json,
        interval=args.interval,
        window=args.window,
    )


def _add_chaos_args(parser: argparse.ArgumentParser) -> None:
    """Attach the shared deterministic fault-injection flag group."""
    chaos = parser.add_argument_group(
        "chaos", "deterministic fault injection (resilience drills; "
        "all rates in [0, 1], 0 = off)"
    )
    chaos.add_argument(
        "--chaos-seed", type=int, default=0,
        help="fault schedule seed (same seed = same schedule)",
    )
    chaos.add_argument(
        "--chaos-claim-failure-rate", type=float, default=0.0,
        help="probability a claim call fails",
    )
    chaos.add_argument(
        "--chaos-heartbeat-drop-rate", type=float, default=0.0,
        help="probability a heartbeat is dropped",
    )
    chaos.add_argument(
        "--chaos-complete-duplicate-rate", type=float, default=0.0,
        help="probability a completion is delivered twice",
    )
    chaos.add_argument(
        "--chaos-complete-delay-rate", type=float, default=0.0,
        help="probability a result is withheld for a few polls",
    )
    chaos.add_argument(
        "--chaos-corrupt-claim-rate", type=float, default=0.0,
        help="probability a first-delivery payload is corrupted in flight",
    )
    chaos.add_argument(
        "--chaos-put-failure-rate", type=float, default=0.0,
        help="probability an enqueue is refused",
    )
    chaos.add_argument(
        "--chaos-kill-rate", type=float, default=0.0,
        help="probability the worker SIGKILLs itself right after a "
        "first-delivery claim (crash-recovery drills)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="gecco",
        description="Constraint-driven abstraction of low-level event logs (ICDE 2022).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    abstract = sub.add_parser("abstract", help="abstract a log under constraints")
    abstract.add_argument("log", help="input log (.xes or .csv)")
    abstract.add_argument("--constraints", required=True, help="JSON constraint spec")
    abstract.add_argument("--output", help="output log path (.xes or .csv)")
    abstract.add_argument(
        "--strategy", choices=("dfg", "exhaustive"), default="dfg"
    )
    abstract.add_argument(
        "--beam-width", default=None, help="beam width k, an int or 'auto'"
    )
    abstract.add_argument(
        "--engine",
        choices=("compiled", "python"),
        default="compiled",
        help="pipeline engine: integer-encoded hot path or pure-Python reference",
    )
    abstract.add_argument(
        "--abstraction", choices=("complete", "start_complete"), default="complete"
    )
    abstract.add_argument(
        "--solver",
        choices=("scipy", "bnb", "auto"),
        default="auto",
        help="Step-2 backend ('auto', the default, lets the portfolio pick per component)",
    )
    abstract.add_argument(
        "--selection",
        choices=("decomposed", "monolithic"),
        default="decomposed",
        help="Step-2 mode: decomposed overlap-graph pipeline or single MIP",
    )
    abstract.add_argument(
        "--selection-workers",
        type=int,
        default=1,
        help="worker processes for parallel Step-2 component solving",
    )
    abstract.add_argument("--timeout", type=float, default=None)
    abstract.set_defaults(handler=_cmd_abstract)

    stats = sub.add_parser("stats", help="print log statistics")
    stats.add_argument("log")
    stats.set_defaults(handler=_cmd_stats)

    dfg = sub.add_parser("dfg", help="print a log's DFG as DOT")
    dfg.add_argument("log")
    dfg.add_argument("--keep", type=float, default=1.0, help="edge keep fraction")
    dfg.set_defaults(handler=_cmd_dfg)

    demo = sub.add_parser("demo", help="run the paper's running example")
    demo.set_defaults(handler=_cmd_demo)

    discover = sub.add_parser("discover", help="discover a process model")
    discover.add_argument("log")
    discover.add_argument(
        "--algorithm", choices=("dfg", "alpha", "inductive"), default="dfg"
    )
    discover.add_argument("--dot", action="store_true", help="print DOT (alpha)")
    discover.set_defaults(handler=_cmd_discover)

    suggest = sub.add_parser(
        "suggest", help="suggest interesting constraints for a log"
    )
    suggest.add_argument("log")
    suggest.add_argument("--limit", type=int, default=None)
    suggest.set_defaults(handler=_cmd_suggest)

    reproduce = sub.add_parser(
        "reproduce", help="regenerate every evaluation artifact"
    )
    reproduce.add_argument("--output", default="reproduction_results")
    reproduce.add_argument("--max-traces", type=int, default=50)
    reproduce.add_argument("--max-classes", type=int, default=10)
    reproduce.add_argument("--timeout", type=float, default=20.0)
    reproduce.add_argument(
        "--no-exhaustive",
        action="store_true",
        help="skip the slow Exh configuration",
    )
    reproduce.set_defaults(handler=_cmd_reproduce)

    types = sub.add_parser("constraint-types", help="list JSON constraint types")
    types.set_defaults(handler=_cmd_constraint_types)

    batch = sub.add_parser(
        "batch", help="run a JSONL job manifest through the service runtime"
    )
    batch.add_argument("manifest", help="JSONL manifest (one job per line)")
    batch.add_argument(
        "--workers", type=int, default=1, help="worker processes (1 = sequential)"
    )
    batch.add_argument("--output", help="results JSONL path (default: stdout)")
    batch.add_argument(
        "--cache-dir", help="persistent on-disk result cache directory"
    )
    batch.add_argument(
        "--include-log",
        action="store_true",
        help="embed the abstracted log in each result row",
    )
    batch.add_argument(
        "--broker",
        help="dispatch through a distributed broker (fs:// or sqlite:// "
        "URL); --workers then counts local fleet workers "
        "(0 = external workers only)",
    )
    batch.add_argument(
        "--deadline-ms", type=float, default=None,
        help="wall-clock budget per job (ms); jobs that cannot finish "
        "in budget fail typed instead of running on (manifest rows "
        "with their own deadline_ms keep it)",
    )
    batch.add_argument(
        "--max-load", type=int, default=None,
        help="bound on queued+running jobs; past it the lowest-priority "
        "job is shed with a typed Overloaded error row",
    )
    batch.add_argument(
        "--trace",
        help="append structured JSONL lifecycle events to this file "
        "(analyze with `repro doctor`)",
    )
    batch.add_argument(
        "--trace-rotate-mb", type=float, default=None,
        help="rotate the trace file to <path>.1 past this many MB "
        "(default: never)",
    )
    batch.add_argument(
        "--run-dir",
        help="journal completed rows line-atomically into "
        "DIR/journal.jsonl so the run survives crashes "
        "(rerun with --resume to pick up where it died)",
    )
    batch.add_argument(
        "--resume",
        action="store_true",
        help="replay journaled rows from --run-dir verbatim and compute "
        "only what is missing (requires the same manifest)",
    )
    batch.set_defaults(handler=_cmd_batch)

    serve = sub.add_parser(
        "serve", help="serve abstraction jobs over stdin/stdout or TCP"
    )
    serve.add_argument(
        "--workers", type=int, default=1, help="worker processes (1 = sequential)"
    )
    serve.add_argument("--cache-dir", help="persistent on-disk result cache directory")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=None, help="serve over TCP instead")
    serve.add_argument(
        "--max-requests", type=int, default=None, help="stop after N requests (TCP)"
    )
    serve.add_argument(
        "--broker",
        help="dispatch through a distributed broker (fs:// or sqlite:// "
        "URL) instead of the in-process pool",
    )
    serve.add_argument(
        "--max-load", type=int, default=None,
        help="bound on queued+running jobs; past it the lowest-priority "
        "job is shed with a typed Overloaded response",
    )
    serve.add_argument(
        "--conn-timeout", type=float, default=30.0,
        help="idle seconds before a silent TCP client is dropped "
        "(the loop serves one client at a time)",
    )
    serve.add_argument(
        "--trace",
        help="append structured JSONL lifecycle events to this file "
        "(analyze with `repro doctor`)",
    )
    serve.add_argument(
        "--trace-rotate-mb", type=float, default=None,
        help="rotate the trace file to <path>.1 past this many MB "
        "(default: never)",
    )
    serve.add_argument(
        "--metrics-port", type=int, default=None,
        help="serve Prometheus metrics on this port (0 = ephemeral; "
        "the chosen port is printed and traced)",
    )
    serve.set_defaults(handler=_cmd_serve)

    worker = sub.add_parser(
        "worker", help="join a distributed fleet: run jobs from a broker queue"
    )
    worker.add_argument(
        "--broker", required=True,
        help="broker URL: fs:///shared/dir or sqlite:///path.db",
    )
    worker.add_argument(
        "--cache-dir",
        help="shared on-disk result store (point the whole fleet at one)",
    )
    worker.add_argument("--worker-id", help="fleet-unique name (default host-pid)")
    worker.add_argument(
        "--lease", type=float, default=60.0,
        help="claim visibility timeout in seconds (heartbeats renew it)",
    )
    worker.add_argument(
        "--poll-interval", type=float, default=0.2,
        help="idle seconds between claim attempts",
    )
    worker.add_argument(
        "--max-tasks", type=int, default=None, help="exit after N completed tasks"
    )
    worker.add_argument(
        "--idle-exit", type=float, default=None,
        help="exit after this many seconds without work",
    )
    worker.add_argument(
        "--max-attempts", type=int, default=3,
        help="deliveries before an undeliverable task is quarantined",
    )
    worker.add_argument(
        "--trace",
        help="append structured JSONL lifecycle events to this file "
        "(analyze with `repro doctor`)",
    )
    worker.add_argument(
        "--trace-rotate-mb", type=float, default=None,
        help="rotate the trace file to <path>.1 past this many MB "
        "(default: never)",
    )
    worker.add_argument(
        "--metrics-port", type=int, default=None,
        help="serve Prometheus metrics on this port (0 = ephemeral; "
        "the chosen port is printed and traced)",
    )
    _add_chaos_args(worker)
    worker.set_defaults(handler=_cmd_worker)

    fleet = sub.add_parser(
        "fleet",
        help="supervise N local workers: restart crashes, quarantine "
        "crash loops, drain on SIGTERM",
    )
    fleet.add_argument(
        "--broker", required=True,
        help="broker URL: fs:///shared/dir or sqlite:///path.db",
    )
    fleet.add_argument(
        "--workers", type=int, default=2, help="supervised worker slots"
    )
    fleet.add_argument(
        "--cache-dir",
        help="shared on-disk result store (point the whole fleet at one)",
    )
    fleet.add_argument(
        "--lease", type=float, default=60.0,
        help="claim visibility timeout per worker (seconds)",
    )
    fleet.add_argument(
        "--poll-interval", type=float, default=0.2,
        help="idle seconds between a worker's claim attempts",
    )
    fleet.add_argument(
        "--restart-window", type=float, default=30.0,
        help="crash-loop window: this many seconds bound the restart count",
    )
    fleet.add_argument(
        "--max-restarts", type=int, default=3,
        help="restarts of one slot within the window before it is "
        "quarantined (taken out of service)",
    )
    fleet.add_argument(
        "--idle-exit", type=float, default=None,
        help="drain once the broker has been empty this many seconds "
        "(default: run until SIGTERM)",
    )
    fleet.add_argument(
        "--drain-timeout", type=float, default=10.0,
        help="seconds workers get to finish their current job on drain",
    )
    fleet.add_argument(
        "--trace",
        help="append supervisor + worker lifecycle events to this file "
        "(analyze with `repro doctor`)",
    )
    fleet.add_argument(
        "--trace-rotate-mb", type=float, default=None,
        help="rotate the trace file to <path>.1 past this many MB "
        "(default: never)",
    )
    _add_chaos_args(fleet)
    fleet.set_defaults(handler=_cmd_fleet)

    fsck = sub.add_parser(
        "fsck",
        help="scan and repair a disk store and/or fs-broker directory",
    )
    fsck.add_argument(
        "--cache-dir", help="disk store directory to verify (checksums + schema)"
    )
    fsck.add_argument(
        "--broker",
        help="fs:// broker URL or directory to verify (payload frames, "
        "leases, staging files)",
    )
    fsck.add_argument(
        "--json", action="store_true", help="emit the full report as JSON"
    )
    fsck.add_argument(
        "--no-repair", action="store_true",
        help="report only; leave corrupt entries and stale files in place "
        "(exit 4 when rot is found)",
    )
    fsck.set_defaults(handler=_cmd_fsck)

    doctor = sub.add_parser(
        "doctor", help="analyze trace files: failure taxonomy, latency, offenders"
    )
    doctor.add_argument(
        "traces", nargs="+",
        help="trace JSONL files (merged by timestamp before analysis)",
    )
    doctor.add_argument(
        "--json", action="store_true", help="emit the full report as JSON"
    )
    doctor.add_argument(
        "--recommend", action="store_true",
        help="append evidence-backed tuning recommendations",
    )
    doctor.set_defaults(handler=_cmd_doctor)

    top = sub.add_parser(
        "top", help="live dashboard over growing trace files"
    )
    top.add_argument(
        "traces", nargs="+",
        help="trace JSONL files to follow (rotated segments included)",
    )
    top.add_argument(
        "--once", action="store_true",
        help="render one snapshot and exit instead of refreshing",
    )
    top.add_argument(
        "--json", action="store_true",
        help="emit machine-readable snapshots instead of the dashboard",
    )
    top.add_argument(
        "--interval", type=float, default=1.0,
        help="seconds between refreshes (default 1)",
    )
    top.add_argument(
        "--window", type=float, default=60.0,
        help="rolling statistics window in seconds (default 60)",
    )
    top.set_defaults(handler=_cmd_top)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
