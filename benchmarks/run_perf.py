#!/usr/bin/env python
"""Dual-engine performance runner: tracks the pipeline's perf trajectory.

Runs the scaling and ablation workloads through the full GECCO pipeline
on both engines (``python`` reference and integer-encoded ``compiled``,
see :mod:`repro.core.encoding`) and writes a machine-readable
``benchmarks/results/BENCH_pipeline.json`` with per-step wall-clock
timings (:class:`~repro.core.gecco.StepTimings`), candidate counts, and
python/compiled speedup ratios.  Every run also cross-checks that both
engines produced identical candidates, distances, and groupings.

Usage::

    PYTHONPATH=src python benchmarks/run_perf.py            # full sweep
    PYTHONPATH=src python benchmarks/run_perf.py --quick    # CI smoke

The headline number is ``summary.median_speedup_candidates_scaling_classes``
— the median Step-1 (candidate computation) speedup of the compiled
engine over the reference on the ``scaling_classes`` workloads.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.constraints import (  # noqa: E402
    ConstraintSet,
    MaxDistinctClassAttribute,
    MaxGroups,
    MaxGroupSize,
)
from repro.core import encoding  # noqa: E402
from repro.core.checker import GroupChecker  # noqa: E402
from repro.core.dfg_candidates import default_beam_width, dfg_candidates  # noqa: E402
from repro.core.encoding import HAVE_NUMPY  # noqa: E402
from repro.core.exclusive import merge_exclusive_candidates  # noqa: E402
from repro.core.gecco import Gecco, GeccoConfig, prepare_artifacts  # noqa: E402
from repro.core.selection import select_optimal_grouping  # noqa: E402
from repro.datasets import loan_application_log, running_example_log  # noqa: E402
from repro.eventlog.events import ROLE_KEY  # noqa: E402
from repro.selection2 import select_decomposed  # noqa: E402
from repro.datasets.attributes import enrich_log  # noqa: E402
from repro.datasets.playout import playout  # noqa: E402
from repro.datasets.process_tree import TreeSpec, random_tree  # noqa: E402
from repro.experiments.configs import constraint_set_for_log  # noqa: E402
from repro.service import (  # noqa: E402
    AbstractionJob,
    LogRef,
    Overloaded,
    SequentialExecutor,
    make_executor,
    result_signature,
)
from repro.service.jobs import share_log_refs  # noqa: E402

ENGINES = ("python", "compiled")

DEFAULT_OUTPUT = Path(__file__).resolve().parent / "results" / "BENCH_pipeline.json"


@dataclass
class Workload:
    """One benchmark problem: a log builder plus a constraint set."""

    name: str
    family: str
    build_log: object
    constraint_set: str
    beam_width: object = "auto"
    params: dict = field(default_factory=dict)

    def make(self):
        log = self.build_log()
        constraints = constraint_set_for_log(self.constraint_set, log)
        return log, constraints


def _synthetic(num_classes: int, num_traces: int, seed: int = 42):
    tree = random_tree(TreeSpec(num_activities=num_classes), seed=seed)
    return enrich_log(playout(tree, num_traces, seed=seed), seed=seed)


def build_workloads(quick: bool) -> list[Workload]:
    class_counts = (6, 10) if quick else (6, 8, 10, 12, 14)
    trace_counts = (25,) if quick else (25, 50, 100, 200)
    workloads = [
        Workload(
            name=f"scaling_classes/{num_classes}",
            family="scaling_classes",
            build_log=lambda n=num_classes: _synthetic(n, 40),
            constraint_set="BL1",
            params={"num_classes": num_classes, "num_traces": 40},
        )
        for num_classes in class_counts
    ]
    workloads += [
        Workload(
            name=f"scaling_traces/{num_traces}",
            family="scaling_traces",
            build_log=lambda n=num_traces: _synthetic(10, n),
            constraint_set="A",
            params={"num_classes": 10, "num_traces": num_traces},
        )
        for num_traces in trace_counts
    ]
    # Ablation-style workloads on the paper's logs.
    workloads.append(
        Workload(
            name="ablation/running_example_BL1",
            family="ablation",
            build_log=running_example_log,
            constraint_set="BL1",
            params={"log": "running_example"},
        )
    )
    if not quick:
        workloads.append(
            Workload(
                name="ablation/loan_BL1",
                family="ablation",
                build_log=lambda: loan_application_log(num_traces=80),
                constraint_set="BL1",
                params={"log": "loan_80"},
            )
        )
        workloads.append(
            Workload(
                name="ablation/loan_BL1_dfginf",
                family="ablation",
                build_log=lambda: loan_application_log(num_traces=40),
                constraint_set="BL1",
                beam_width=None,
                params={"log": "loan_40", "beam": "unlimited"},
            )
        )
    return workloads


def _signature(result):
    """Output fingerprint used to prove engine equivalence."""
    grouping = (
        tuple(sorted(tuple(sorted(group)) for group in result.grouping.groups))
        if result.grouping is not None
        else None
    )
    return (result.feasible, result.num_candidates, result.distance, grouping)


def run_workload(workload: Workload, repeats: int) -> dict:
    record = {
        "name": workload.name,
        "family": workload.family,
        "constraint_set": workload.constraint_set,
        "beam_width": workload.beam_width,
        "params": workload.params,
        "engines": {},
    }
    signatures = {}
    for engine in ENGINES:
        best = None
        best_total = None
        for _ in range(repeats):
            log, constraints = workload.make()
            config = GeccoConfig(
                strategy="dfg", beam_width=workload.beam_width, engine=engine
            )
            result = Gecco(constraints, config).abstract(log)
            if best is None or result.timings.candidates < best.timings.candidates:
                best = result
            if best_total is None or result.timings.total < best_total:
                best_total = result.timings.total
        signatures[engine] = _signature(best)
        record["engines"][engine] = {
            "timings": asdict(best.timings),
            "total_seconds": best_total,
            "num_candidates": best.num_candidates,
            "distance": best.distance,
            "feasible": best.feasible,
        }
    python_candidates = record["engines"]["python"]["timings"]["candidates"]
    compiled_candidates = record["engines"]["compiled"]["timings"]["candidates"]
    record["speedup_candidates"] = (
        python_candidates / compiled_candidates if compiled_candidates > 0 else None
    )
    record["speedup_total"] = (
        record["engines"]["python"]["total_seconds"]
        / record["engines"]["compiled"]["total_seconds"]
        if record["engines"]["compiled"]["total_seconds"] > 0
        else None
    )
    record["outputs_match"] = signatures["python"] == signatures["compiled"]
    return record


def batch_manifest_rows(quick: bool) -> list[dict]:
    """The batch workload: (log × constraint set) jobs in manifest form.

    The full set is the acceptance workload of the service runtime: a
    20-job manifest over the running example and the loan log, several
    class-based and grouping constraint sets each.
    """
    logs = ("running_example",) if quick else ("running_example", "loan:60")
    size_bounds = (3, 5) if quick else (2, 3, 4, 5, 6)
    group_bounds = (3,) if quick else (3, 4, 5, 6, 7)
    rows = []
    for log_spec in logs:
        for bound in size_bounds:
            rows.append(
                {
                    "id": f"{log_spec}/size{bound}",
                    "log": log_spec,
                    "constraints": [{"type": "max_group_size", "bound": bound}],
                    "config": {"beam_width": "auto"},
                }
            )
        for bound in group_bounds:
            rows.append(
                {
                    "id": f"{log_spec}/groups{bound}",
                    "log": log_spec,
                    "constraints": [
                        {"type": "max_group_size", "bound": 8},
                        {"type": "max_groups", "bound": bound},
                    ],
                    "config": {"beam_width": "auto"},
                }
            )
    return rows


def run_batch_benchmark(quick: bool) -> dict:
    """Throughput of the service runtime: 1 vs N workers, cold vs warm.

    Every run is cross-checked against a sequential reference (a fresh
    ``Gecco.abstract`` per job, no artifact sharing): the runtime must
    be byte-identical, merely faster.
    """
    rows = batch_manifest_rows(quick)
    jobs = share_log_refs([AbstractionJob.from_dict(row) for row in rows])
    num_logs = len({job.log.digest() for job in jobs})

    started = time.perf_counter()
    reference = [
        result_signature(Gecco(job.constraints, job.config).abstract(job.log.resolve()))
        for job in jobs
    ]
    sequential_seconds = time.perf_counter() - started

    record = {
        "num_jobs": len(jobs),
        "num_logs": num_logs,
        "sequential_reference_seconds": sequential_seconds,
        "sequential_reference_jobs_per_second": len(jobs) / sequential_seconds,
        "runs": {},
    }
    worker_counts = (1, 2) if quick else (1, 4)
    for workers in worker_counts:
        executor = make_executor(workers=workers)
        try:
            cold_started = time.perf_counter()
            cold_results = executor.map(jobs)
            cold_seconds = time.perf_counter() - cold_started

            warm_started = time.perf_counter()
            warm_results = executor.map(jobs)
            warm_seconds = time.perf_counter() - warm_started
            stats = executor.stats()
        finally:
            executor.shutdown()

        builds = stats["parent"]["artifact_builds"] + stats.get(
            "workers_total", {}
        ).get("artifact_builds", 0)
        run = {
            "cold_seconds": cold_seconds,
            "cold_jobs_per_second": len(jobs) / cold_seconds,
            "warm_seconds": warm_seconds,
            "warm_jobs_per_second": len(jobs) / warm_seconds,
            "warm_speedup": cold_seconds / warm_seconds if warm_seconds > 0 else None,
            "byte_identical_cold": [result_signature(r) for r in cold_results]
            == reference,
            "byte_identical_warm": [result_signature(r) for r in warm_results]
            == reference,
            "artifact_builds": builds,
            # Exactly one build per (worker, log): sequential builds each
            # log's artifacts once; a pool builds them at most once per
            # worker that saw the log.
            "artifacts_built_once_per_log": (
                builds == num_logs
                if workers == 1
                else num_logs <= builds <= workers * num_logs
            ),
            "cache": stats,
        }
        record["runs"][f"workers_{workers}"] = run
        print(
            f"batch workers={workers}: cold={cold_seconds:6.2f}s "
            f"({run['cold_jobs_per_second']:6.2f} jobs/s) "
            f"warm={warm_seconds:6.3f}s ({run['warm_jobs_per_second']:8.2f} jobs/s) "
            f"warm_speedup={run['warm_speedup']:6.1f}x "
            f"identical={run['byte_identical_cold'] and run['byte_identical_warm']} "
            f"builds={builds}/{num_logs} logs"
        )
    return record


def run_dist_benchmark(quick: bool) -> dict:
    """The distributed backend: broker fleets vs the sequential reference.

    Three runs per worker count over a filesystem broker — **cold**
    (fresh fleet, empty store), **warm** (same executor, parent cache),
    and **store-warm** (fresh executor + fresh broker on the same disk
    store, zero workers: everything must come from the fleet's shared
    result tier).  Every run is checked byte-identical to a sequential
    reference, and the cold fleet must converge to at most one artifact
    build per log (affinity routing).
    """
    import tempfile

    rows = batch_manifest_rows(quick)
    jobs = share_log_refs([AbstractionJob.from_dict(row) for row in rows])
    num_logs = len({job.log.digest() for job in jobs})

    started = time.perf_counter()
    reference = [
        result_signature(Gecco(job.constraints, job.config).abstract(job.log.resolve()))
        for job in jobs
    ]
    sequential_seconds = time.perf_counter() - started

    record = {
        "broker": "fs",
        "num_jobs": len(jobs),
        "num_logs": num_logs,
        "sequential_reference_seconds": sequential_seconds,
        "runs": {},
    }
    worker_counts = (1, 2) if quick else (1, 4)
    for workers in worker_counts:
        with tempfile.TemporaryDirectory(prefix="gecco-dist-bench-") as tmp:
            store = Path(tmp) / "store"
            executor = make_executor(
                workers=workers, broker=f"fs://{tmp}/queue", disk_dir=store
            )
            try:
                cold_started = time.perf_counter()
                cold_results = executor.map(jobs)
                cold_seconds = time.perf_counter() - cold_started

                warm_started = time.perf_counter()
                warm_results = executor.map(jobs)
                warm_seconds = time.perf_counter() - warm_started
                stats = executor.stats()
            finally:
                executor.shutdown()

            store_warm = make_executor(
                workers=0, broker=f"fs://{tmp}/queue2", disk_dir=store
            )
            try:
                store_started = time.perf_counter()
                store_results = store_warm.map(jobs)
                store_seconds = time.perf_counter() - store_started
            finally:
                store_warm.shutdown()

        builds = stats.get("workers_total", {}).get("artifact_builds", 0)
        run = {
            "cold_seconds": cold_seconds,
            "cold_jobs_per_second": len(jobs) / cold_seconds,
            "warm_seconds": warm_seconds,
            "warm_jobs_per_second": len(jobs) / warm_seconds,
            "store_warm_seconds": store_seconds,
            "byte_identical_cold": [result_signature(r) for r in cold_results]
            == reference,
            "byte_identical_warm": [result_signature(r) for r in warm_results]
            == reference,
            "byte_identical_store_warm": [
                result_signature(r) for r in store_results
            ]
            == reference,
            "fleet_artifact_builds": builds,
            # Affinity routing: one artifact build per log across the
            # whole fleet, regardless of worker count.
            "one_build_per_log": builds == num_logs,
            "requeues": stats.get("scheduler", {}).get("requeues", 0),
            "cache": stats,
        }
        record["runs"][f"workers_{workers}"] = run
        identical = (
            run["byte_identical_cold"]
            and run["byte_identical_warm"]
            and run["byte_identical_store_warm"]
        )
        print(
            f"dist workers={workers}: cold={cold_seconds:6.2f}s "
            f"({run['cold_jobs_per_second']:6.2f} jobs/s) "
            f"warm={warm_seconds:6.3f}s store_warm={store_seconds:6.3f}s "
            f"identical={identical} builds={builds}/{num_logs} logs"
        )
    return record


def _percentile(values: "list[float]", fraction: float) -> "float | None":
    """Nearest-rank percentile; ``None`` on an empty sample."""
    if not values:
        return None
    ordered = sorted(values)
    index = min(len(ordered) - 1, round(fraction * (len(ordered) - 1)))
    return ordered[index]


def run_resilience_benchmark(quick: bool) -> dict:
    """Admission control under overload: latency and shed behaviour.

    Offers 1x/2x/4x the executor's bounded load, with and without
    admission control.  With a ``max_load`` bound the executor sheds
    the excess as typed ``Overloaded`` and keeps admitted latency
    flat; without the bound everything completes but queueing
    stretches the tail.  Every job that completes is cross-checked
    byte-identical against the sequential reference — resilience
    decides *whether* a job runs, never *what it computes*.
    """
    workers = 2
    base_load = 4 if quick else 6
    log_ref = LogRef.builtin("running_example")

    combos = [[MaxGroupSize(bound)] for bound in range(2, 10)]
    combos += [[MaxGroups(bound)] for bound in range(2, 10)]
    combos += [
        [MaxGroupSize(size), MaxGroups(groups)]
        for size in range(3, 7)
        for groups in range(3, 7)
    ]
    # Distinct constraint sets -> distinct fingerprints, so submissions
    # are never coalesced away and the offered load is real.
    all_jobs = [
        AbstractionJob(
            log=log_ref,
            constraints=ConstraintSet(combo),
            job_id=f"overload-{index}",
        )
        for index, combo in enumerate(combos[: base_load * 4])
    ]
    sequential = SequentialExecutor()
    reference = {
        job.fingerprint().full: result_signature(sequential.submit(job).result())
        for job in all_jobs
    }

    record = {"workers": workers, "max_load": base_load, "runs": {}}
    matched = True
    for multiplier in (1, 2, 4):
        offered = all_jobs[: base_load * multiplier]
        cell = {}
        for label, max_load in (
            ("with_admission", base_load),
            ("without_admission", None),
        ):
            executor = make_executor(workers=workers, max_load=max_load)
            latencies: "list[float]" = []
            shed = 0
            started = time.perf_counter()
            try:
                handles = [(job, executor.submit(job)) for job in offered]
                for job, handle in handles:
                    try:
                        result = handle.result()
                    except Overloaded:
                        shed += 1
                        continue
                    latencies.append(time.perf_counter() - started)
                    if result_signature(result) != reference[job.fingerprint().full]:
                        matched = False
            finally:
                executor.shutdown()
            cell[label] = {
                "offered": len(offered),
                "completed": len(latencies),
                "shed": shed,
                "shed_rate": shed / len(offered),
                "p50_latency_seconds": _percentile(latencies, 0.50),
                "p99_latency_seconds": _percentile(latencies, 0.99),
            }
            print(
                f"resilience {multiplier}x {label:18s}: "
                f"offered={len(offered):3d} completed={len(latencies):3d} "
                f"shed={shed:3d} "
                f"p50={(cell[label]['p50_latency_seconds'] or 0.0):6.3f}s "
                f"p99={(cell[label]['p99_latency_seconds'] or 0.0):6.3f}s"
            )
        record["runs"][f"overload_{multiplier}x"] = cell
    record["outputs_match"] = matched
    return record


def run_observability_benchmark(quick: bool) -> dict:
    """Tracing overhead: the `--trace` path must stay observational.

    Runs the same job set through fresh sequential executors with
    tracing off and on (JSONL writer appending to a real file) and
    compares paired wall clocks plus result signatures.  The
    contract this holds the runtime to: byte-identical outputs and
    single-digit-percent overhead — tracing is one ``os.write`` per
    lifecycle transition, never a second code path.
    """
    import tempfile

    from repro.obs import TraceWriter, read_trace
    from repro.service.cache import ArtifactCache

    # The synthetic log gives run times stable enough (~±2%) to
    # resolve a low-single-digit overhead; the loan logs vary ±10%
    # run to run under identical work, which swamps the signal.
    log_ref = LogRef.builtin("synthetic:8x150@1")
    combos = [[MaxGroupSize(bound)] for bound in range(2, 8)]
    combos += [[MaxGroups(bound)] for bound in range(4, 10)]
    jobs = [
        AbstractionJob(
            log=log_ref,
            constraints=ConstraintSet(combo),
            job_id=f"obs-{index}",
        )
        for index, combo in enumerate(combos)
    ]
    repeats = 4 if quick else 8

    def run_once(tracer) -> "tuple[float, list[str]]":
        # A fresh cache per run: identical work on both arms, no
        # cross-run warm hits to flatter either side.
        executor = SequentialExecutor(cache=ArtifactCache(), tracer=tracer)
        started = time.perf_counter()
        signatures = [
            result_signature(executor.submit(job).result()) for job in jobs
        ]
        return time.perf_counter() - started, signatures

    plain_times: "list[float]" = []
    traced_times: "list[float]" = []
    ratios: "list[float]" = []
    _, reference = run_once(None)  # untimed warmup (imports, allocator)
    matched = True
    trace_events = 0
    with tempfile.TemporaryDirectory() as tmp:
        for repeat in range(repeats):
            trace_path = Path(tmp) / f"trace-{repeat}.jsonl"
            # Each repeat is one back-to-back plain/traced pair, so
            # the ratio cancels slow drift; the pair's order alternates
            # so run-ordering effects (page cache, allocator growth)
            # cannot systematically flatter either arm.  The reported
            # overhead is the median of the per-pair ratios.
            arms = ["plain", "traced"] if repeat % 2 == 0 else ["traced", "plain"]
            for arm in arms:
                if arm == "plain":
                    seconds, signatures = run_once(None)
                    plain_times.append(seconds)
                else:
                    with TraceWriter(trace_path) as tracer:
                        seconds, signatures = run_once(tracer)
                    traced_times.append(seconds)
                    trace_events = len(read_trace(trace_path))
                if signatures != reference:
                    matched = False
            ratios.append(traced_times[-1] / plain_times[-1])
    plain_median = statistics.median(plain_times)
    traced_median = statistics.median(traced_times)
    overhead = statistics.median(ratios) - 1.0
    record = {
        "jobs": len(jobs),
        "repeats": repeats,
        "plain_seconds": plain_median,
        "traced_seconds": traced_median,
        "overhead_fraction": overhead,
        "trace_events_per_run": trace_events,
        "outputs_match": matched,
    }
    print(
        f"observability: {len(jobs)} jobs plain={plain_median:6.3f}s "
        f"traced={traced_median:6.3f}s overhead={overhead * 100:+5.2f}% "
        f"events={trace_events} match={matched}"
    )
    return record


def run_durability_benchmark(quick: bool) -> dict:
    """Journal overhead and resume payoff: `--run-dir` must be cheap.

    Runs the same manifest through ``run_batch`` plain and journalled
    (one line-atomic ``O_APPEND`` write per finished row) in
    alternating pairs and reports the median paired overhead, which
    the durability contract keeps in the low single digits.  Then the
    resume path: re-running a completed run directory with
    ``resume=True`` must replay every row *verbatim* — byte-identical
    rows, zero recomputation — which is what makes crash recovery
    effectively free.
    """
    import tempfile

    from repro.service import run_batch

    log_ref = LogRef.builtin("synthetic:8x150@1")
    combos = [[MaxGroupSize(bound)] for bound in range(2, 8)]
    combos += [[MaxGroups(bound)] for bound in range(4, 10)]
    jobs = [
        AbstractionJob(
            log=log_ref,
            constraints=ConstraintSet(combo),
            job_id=f"dur-{index}",
        )
        for index, combo in enumerate(combos)
    ]
    # More pairs than the tracing benchmark: these runs are ~2x
    # shorter, so the paired-ratio estimator needs more samples to
    # resolve a low-single-digit overhead.  Still < 4s in quick mode.
    repeats = 8 if quick else 16

    def masked(rows: "list[dict]") -> "list[dict]":
        return [
            {k: v for k, v in row.items()
             if k not in ("cached", "seconds", "selection")}
            for row in rows
        ]

    def run_once(run_dir=None, resume: bool = False):
        started = time.perf_counter()
        report = run_batch(jobs, run_dir=run_dir, resume=resume)
        return time.perf_counter() - started, report

    _, warm = run_once()  # untimed warmup (imports, allocator)
    reference = masked(warm.rows)
    plain_times: "list[float]" = []
    durable_times: "list[float]" = []
    ratios: "list[float]" = []
    matched = True
    durable_rows: "list[dict]" = []
    with tempfile.TemporaryDirectory() as tmp:
        for repeat in range(repeats):
            # Back-to-back alternating pairs, same discipline as the
            # tracing benchmark: the paired ratio cancels slow drift.
            arms = ["plain", "durable"] if repeat % 2 == 0 else ["durable", "plain"]
            for arm in arms:
                if arm == "plain":
                    seconds, report = run_once()
                    plain_times.append(seconds)
                else:
                    seconds, report = run_once(Path(tmp) / f"run-{repeat}")
                    durable_times.append(seconds)
                    durable_rows = report.rows
                if masked(report.rows) != reference:
                    matched = False
            ratios.append(durable_times[-1] / plain_times[-1])
        # Resume the last journalled run: everything replays verbatim.
        last_dir = Path(tmp) / f"run-{repeats - 1}"
        resume_seconds, resumed = run_once(last_dir, resume=True)
        replayed = resumed.journal["replayed"]
        recomputed = resumed.journal["computed"]
        if resumed.rows != durable_rows or recomputed:
            matched = False
    plain_median = statistics.median(plain_times)
    durable_median = statistics.median(durable_times)
    overhead = statistics.median(ratios) - 1.0
    cold_seconds = durable_times[-1]
    record = {
        "jobs": len(jobs),
        "repeats": repeats,
        "plain_seconds": plain_median,
        "durable_seconds": durable_median,
        "overhead_fraction": overhead,
        "cold_seconds": cold_seconds,
        "resume_seconds": resume_seconds,
        "resume_speedup": (
            cold_seconds / resume_seconds if resume_seconds > 0 else None
        ),
        "replayed": replayed,
        "recomputed": recomputed,
        "outputs_match": matched,
    }
    print(
        f"durability: {len(jobs)} jobs plain={plain_median:6.3f}s "
        f"journalled={durable_median:6.3f}s overhead={overhead * 100:+5.2f}% "
        f"resume={resume_seconds:6.3f}s ({replayed} replayed, "
        f"{recomputed} recomputed) match={matched}"
    )
    return record


def run_attribute_benchmark(quick: bool) -> dict:
    """Instance-constraint checking: columnar kernels vs event walks.

    The workload is the access pattern of Step 1 under the paper's
    instance-based sets (A = role-distinct, M/N = duration aggregates,
    C2 = all three): every group of a DFGk-like population is checked
    against the set, python engine vs compiled columns.  Verdicts must
    match exactly; the record tracks the checking-time speedup.
    """
    import itertools

    from repro.core.encoding import CompiledInstanceIndex
    from repro.core.instances import InstanceIndex

    sizes = (50,) if quick else (100, 200)
    set_names = ("A", "M") if quick else ("A", "M", "N", "C2")
    cells = []
    mismatched = []
    for num_traces in sizes:
        log = _synthetic(10, num_traces)
        classes = sorted(log.classes)
        groups = [
            frozenset(combo)
            for size in (1, 2, 3)
            for combo in itertools.combinations(classes, size)
        ]
        for set_name in set_names:
            constraints = constraint_set_for_log(set_name, log)
            timings = {}
            verdicts = {}
            for engine in ENGINES:
                if engine == "compiled":
                    index = CompiledInstanceIndex(log)
                    index.prime(groups)  # pipeline state: spans pre-extracted
                else:
                    index = InstanceIndex(log)
                checker = GroupChecker(log, constraints, index)
                started = time.perf_counter()
                verdicts[engine] = [checker.holds(group) for group in groups]
                timings[engine] = time.perf_counter() - started
            if verdicts["python"] != verdicts["compiled"]:
                mismatched.append(f"traces{num_traces}/{set_name}")
            cell = {
                "name": f"scaling_traces/{num_traces}/{set_name}",
                "num_groups": len(groups),
                "python_seconds": timings["python"],
                "compiled_seconds": timings["compiled"],
                "speedup": (
                    timings["python"] / timings["compiled"]
                    if timings["compiled"] > 0
                    else None
                ),
            }
            cells.append(cell)
            rendered = (
                f"{cell['speedup']:5.2f}x" if cell["speedup"] is not None else "  n/a"
            )
            print(
                f"attributes {cell['name']:28s} python={timings['python'] * 1e3:8.2f}ms "
                f"compiled={timings['compiled'] * 1e3:8.2f}ms "
                f"speedup={rendered}"
            )
    speedups = [cell["speedup"] for cell in cells if cell["speedup"]]
    return {
        "cells": cells,
        "median_speedup": statistics.median(speedups) if speedups else None,
        "outputs_match": not mismatched,
        "mismatched_cells": mismatched,
    }


def run_abstraction_benchmark(quick: bool) -> dict:
    """Step-3 abstraction: compiled instance spans vs the reference walk.

    Abstracts the largest scaling workload under both strategies with a
    warm instance index (the pipeline state after Step 1), python vs
    compiled, asserting byte-identical abstracted logs.
    """
    from repro.core.abstraction import STRATEGIES, abstract_log
    from repro.core.encoding import CompiledInstanceIndex
    from repro.core.instances import InstanceIndex

    num_traces = 50 if quick else 200
    log = _synthetic(10, num_traces)
    constraints = constraint_set_for_log("BL1", log)
    grouping = Gecco(constraints, GeccoConfig(beam_width="auto")).abstract(log).grouping
    repeats = 1 if quick else 5
    cells = []
    mismatched = []
    for strategy in STRATEGIES:
        timings = {}
        outputs = {}
        for engine in ENGINES:
            index = (
                CompiledInstanceIndex(log)
                if engine == "compiled"
                else InstanceIndex(log)
            )
            abstract_log(log, grouping, index, strategy=strategy)  # warm
            best = None
            for _ in range(repeats):
                started = time.perf_counter()
                outputs[engine] = abstract_log(
                    log, grouping, index, strategy=strategy
                )
                elapsed = time.perf_counter() - started
                best = elapsed if best is None else min(best, elapsed)
            timings[engine] = best
        identical = all(
            ref_trace.attributes == com_trace.attributes
            and list(ref_trace) == list(com_trace)
            for ref_trace, com_trace in zip(
                outputs["python"], outputs["compiled"]
            )
        )
        if not identical:
            mismatched.append(strategy)
        cell = {
            "name": f"scaling_traces/{num_traces}/{strategy}",
            "python_seconds": timings["python"],
            "compiled_seconds": timings["compiled"],
            "speedup": (
                timings["python"] / timings["compiled"]
                if timings["compiled"] > 0
                else None
            ),
        }
        cells.append(cell)
        rendered = (
            f"{cell['speedup']:5.2f}x" if cell["speedup"] is not None else "  n/a"
        )
        print(
            f"abstraction {cell['name']:32s} python={timings['python'] * 1e3:7.2f}ms "
            f"compiled={timings['compiled'] * 1e3:7.2f}ms "
            f"speedup={rendered} identical={identical}"
        )
    speedups = [cell["speedup"] for cell in cells if cell["speedup"]]
    return {
        "largest_workload": f"scaling_traces/{num_traces}",
        "cells": cells,
        "median_speedup": statistics.median(speedups) if speedups else None,
        "outputs_match": not mismatched,
        "mismatched_cells": mismatched,
    }


def _step2_problem(log, constraints):
    """Build one Step-2 instance: the candidate set and distance of a log."""
    config = GeccoConfig(strategy="dfg", beam_width="auto")
    artifacts = prepare_artifacts(log, config)
    checker = GroupChecker(log, constraints, artifacts.instance_index)
    distance = encoding.CompiledDistanceFunction(log, artifacts.instance_index)
    result = dfg_candidates(
        log,
        constraints,
        beam_width=default_beam_width(log),
        checker=checker,
        distance=distance,
        dfg=artifacts.dfg,
        compiled=artifacts.compiled,
    )
    candidates, _stats = merge_exclusive_candidates(
        log, set(result.groups), checker, artifacts.dfg, compiled=artifacts.compiled
    )
    return candidates, distance


def run_frontier_benchmark(quick: bool) -> dict:
    """Frontier-batched constraint checking vs per-group dispatch.

    Times Step 1's exhaustive walk under the paper's instance-based
    sets with ``GroupChecker.check_level`` batching each search level
    into one stacked segment reduction per kernel, against a shim that
    replays the old one-``holds``-call-per-group loop on the same
    compiled engine.  Candidate sets must be identical.
    """
    from repro.core.candidates import exhaustive_candidates
    from repro.core.encoding import CompiledInstanceIndex

    grid = [(60, "A")] if quick else [(100, "A"), (100, "M"), (300, "A"), (300, "M")]
    repeats = 1 if quick else 3
    totals = {"sequential": 0.0, "batched": 0.0}
    cells = []
    mismatched = []
    for num_traces, set_name in grid:
        log = _synthetic(10, num_traces)
        constraints = constraint_set_for_log(set_name, log)
        artifacts = prepare_artifacts(log, GeccoConfig(strategy="dfg"))
        timings = {}
        groups = {}
        for variant in ("sequential", "batched"):
            for _ in range(repeats):
                checker = GroupChecker(
                    log, constraints, CompiledInstanceIndex(log, artifacts.compiled)
                )
                if variant == "sequential":
                    checker.check_level = lambda entries, _c=checker: [
                        _c.holds_given_satisfying_subset(group)
                        if pruned
                        else _c.holds(group)
                        for group, pruned in entries
                    ]
                started = time.perf_counter()
                result = exhaustive_candidates(
                    log, constraints, checker=checker, compiled=artifacts.compiled
                )
                elapsed = time.perf_counter() - started
                if variant not in timings or elapsed < timings[variant]:
                    timings[variant] = elapsed
                groups[variant] = result.groups
            totals[variant] += timings[variant]
        name = f"scaling_traces/{num_traces}/{set_name}"
        if groups["sequential"] != groups["batched"]:
            mismatched.append(name)
        cell = {
            "name": name,
            "num_candidates": len(groups["batched"]),
            "sequential_seconds": timings["sequential"],
            "batched_seconds": timings["batched"],
            "speedup": (
                timings["sequential"] / timings["batched"]
                if timings["batched"] > 0
                else None
            ),
        }
        cells.append(cell)
        print(
            f"frontier  {name:32s} seq={timings['sequential'] * 1e3:7.1f}ms "
            f"batched={timings['batched'] * 1e3:7.1f}ms "
            f"speedup={cell['speedup']:5.2f}x "
            f"candidates={cell['num_candidates']}"
        )
    return {
        "cells": cells,
        "totals_seconds": totals,
        "speedup": (
            totals["sequential"] / totals["batched"]
            if totals["batched"] > 0
            else None
        ),
        "outputs_match": not mismatched,
        "mismatched_cells": mismatched,
    }


def run_selection_benchmark(quick: bool, workers: int = 4) -> dict:
    """Step-2 timings: monolithic vs decomposed, sequential vs pooled.

    The workload is a constraint-set *sweep* on the ``scaling_classes``
    grid: per log, the candidate phase runs once, then ``max_groups``
    bounds are swept over the same candidate set — the access pattern
    the selection-artifact cache is built for.  Two constraint bases
    per log: ``BL1`` (typically one overlap component; the decomposed
    win comes from presolve + the bnb portfolio) and a role-clustered
    base (multiple components; adds Eq. 5 coordination, parallel
    component solving, and cross-bound cache reuse).  Every decomposed
    cell is cross-checked against the monolithic grouping.
    """
    from repro.service import ArtifactCache, PoolExecutor

    sizes = (6, 10) if quick else (6, 8, 10, 12, 14)
    bounds = (3, 4) if quick else (3, 4, 5, 6, 7)
    grids = []
    for num_classes in sizes:
        log = _synthetic(num_classes, 40)
        grids.append(
            (
                f"scaling_classes/{num_classes}/BL1",
                log,
                ConstraintSet([MaxGroupSize(8), MaxGroupSize(5)]),
            )
        )
        grids.append(
            (
                f"scaling_classes/{num_classes}/role",
                log,
                ConstraintSet(
                    [MaxGroupSize(8), MaxDistinctClassAttribute(ROLE_KEY, 1)]
                ),
            )
        )

    modes = {
        "monolithic": None,
        "decomposed_seq": {"backend": "scipy"},
        "decomposed_auto": {"backend": "auto"},
        "decomposed_pool": {"backend": "auto", "pooled": True},
    }
    totals = {mode: 0.0 for mode in modes}
    counters = {
        mode: {"nodes": 0, "lp_bound_cuts": 0, "canonical_aborts": 0}
        for mode in modes
    }
    cells = []
    mismatched = []
    pool = PoolExecutor(workers=workers)
    caches = {mode: ArtifactCache() for mode in modes if mode != "monolithic"}
    try:
        for name, log, base in grids:
            candidates, distance = _step2_problem(log, base)
            cell = {
                "name": name,
                "num_candidates": len(candidates),
                "bounds": list(bounds),
                "modes": {},
            }
            reference = {}
            for mode, options in modes.items():
                elapsed = 0.0
                components = None
                cell_counters = {"nodes": 0, "lp_bound_cuts": 0, "canonical_aborts": 0}
                for bound in bounds:
                    started = time.perf_counter()
                    if options is None:
                        outcome = select_optimal_grouping(
                            log, candidates, distance, max_groups=bound
                        )
                        cell_counters["nodes"] += outcome.nodes
                        cell_counters["lp_bound_cuts"] += outcome.lp_cuts
                        cell_counters["canonical_aborts"] += not outcome.canonical
                    else:
                        outcome = select_decomposed(
                            log,
                            candidates,
                            distance,
                            max_groups=bound,
                            backend=options["backend"],
                            cache=caches[mode],
                            executor=pool if options.get("pooled") else None,
                        )
                        components = outcome.stats.num_components
                        cell_counters["nodes"] += outcome.stats.nodes
                        cell_counters["lp_bound_cuts"] += outcome.stats.lp_bound_cuts
                        cell_counters["canonical_aborts"] += (
                            outcome.stats.canonical_aborts
                        )
                    elapsed += time.perf_counter() - started
                    key = (name, bound)
                    signature = (
                        outcome.feasible,
                        None
                        if outcome.grouping is None
                        else tuple(
                            sorted(
                                tuple(sorted(group))
                                for group in outcome.grouping.groups
                            )
                        ),
                    )
                    if options is None:
                        reference[key] = signature
                    elif reference[key] != signature:
                        mismatched.append(f"{name}/max{bound}/{mode}")
                totals[mode] += elapsed
                for key, value in cell_counters.items():
                    counters[mode][key] += value
                cell["modes"][mode] = {"seconds": elapsed, **cell_counters}
                if components is not None:
                    cell["modes"][mode]["components"] = components
            cells.append(cell)
            print(
                f"selection {name:32s} mono={cell['modes']['monolithic']['seconds'] * 1e3:7.1f}ms "
                f"dec={cell['modes']['decomposed_seq']['seconds'] * 1e3:7.1f}ms "
                f"auto={cell['modes']['decomposed_auto']['seconds'] * 1e3:7.1f}ms "
                f"pool={cell['modes']['decomposed_pool']['seconds'] * 1e3:7.1f}ms "
                f"components={cell['modes']['decomposed_auto'].get('components')}"
            )
    finally:
        pool.shutdown()

    frontier = run_frontier_benchmark(quick)
    mismatched += [f"frontier/{cell}" for cell in frontier["mismatched_cells"]]

    def speedup(mode):
        return totals["monolithic"] / totals[mode] if totals[mode] > 0 else None

    return {
        "workers_pooled": workers,
        "bounds_sweep": list(bounds),
        "cells": cells,
        "totals_seconds": totals,
        "solver_counters": counters,
        "speedup_decomposed_seq": speedup("decomposed_seq"),
        "speedup_decomposed_auto": speedup("decomposed_auto"),
        "speedup_decomposed_pool": speedup("decomposed_pool"),
        "frontier": frontier,
        "outputs_match": not mismatched,
        "mismatched_cells": mismatched,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small CI-smoke workload set"
    )
    parser.add_argument(
        "--repeats", type=int, default=None, help="timing repeats (best-of)"
    )
    parser.add_argument(
        "--output", type=Path, default=DEFAULT_OUTPUT, help="JSON output path"
    )
    args = parser.parse_args(argv)

    if not HAVE_NUMPY:
        print("numpy unavailable: compiled engine cannot run", file=sys.stderr)
        return 1

    repeats = args.repeats if args.repeats is not None else (1 if args.quick else 5)
    if repeats < 1:
        parser.error(f"--repeats must be >= 1, got {repeats}")
    workloads = build_workloads(args.quick)
    records = []
    for workload in workloads:
        started = time.perf_counter()
        record = run_workload(workload, repeats)
        elapsed = time.perf_counter() - started
        records.append(record)
        speedup = record["speedup_candidates"]
        rendered = f"{speedup:5.2f}x" if speedup is not None else "  n/a"
        print(
            f"{workload.name:32s} step1 python="
            f"{record['engines']['python']['timings']['candidates'] * 1e3:8.2f}ms "
            f"compiled={record['engines']['compiled']['timings']['candidates'] * 1e3:8.2f}ms "
            f"speedup={rendered} match={record['outputs_match']} "
            f"({elapsed:.1f}s)"
        )

    attribute_record = run_attribute_benchmark(args.quick)
    abstraction_record = run_abstraction_benchmark(args.quick)
    batch_record = run_batch_benchmark(args.quick)
    dist_record = run_dist_benchmark(args.quick)
    selection_record = run_selection_benchmark(args.quick)
    resilience_record = run_resilience_benchmark(args.quick)
    observability_record = run_observability_benchmark(args.quick)
    durability_record = run_durability_benchmark(args.quick)

    scaling_speedups = [
        r["speedup_candidates"]
        for r in records
        if r["family"] == "scaling_classes" and r["speedup_candidates"]
    ]
    all_speedups = [r["speedup_candidates"] for r in records if r["speedup_candidates"]]
    mismatches = [r["name"] for r in records if not r["outputs_match"]]
    mismatches += [
        f"batch/{name}"
        for name, run in batch_record["runs"].items()
        if not (run["byte_identical_cold"] and run["byte_identical_warm"])
    ]
    mismatches += [
        f"dist/{name}"
        for name, run in dist_record["runs"].items()
        if not (
            run["byte_identical_cold"]
            and run["byte_identical_warm"]
            and run["byte_identical_store_warm"]
        )
    ]
    mismatches += [f"selection/{cell}" for cell in selection_record["mismatched_cells"]]
    mismatches += [f"attributes/{cell}" for cell in attribute_record["mismatched_cells"]]
    mismatches += [
        f"abstraction/{cell}" for cell in abstraction_record["mismatched_cells"]
    ]
    if not resilience_record["outputs_match"]:
        mismatches.append("resilience/completed-jobs")
    if not observability_record["outputs_match"]:
        mismatches.append("observability/traced-run")
    if not durability_record["outputs_match"]:
        mismatches.append("durability/journalled-run")
    report = {
        "schema": "gecco-perf/1",
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "quick": args.quick,
        "repeats": repeats,
        "workloads": records,
        "attributes": attribute_record,
        "abstraction": abstraction_record,
        "batch": batch_record,
        "dist": dist_record,
        "selection": selection_record,
        "resilience": resilience_record,
        "observability": observability_record,
        "durability": durability_record,
        "summary": {
            "median_speedup_candidates_scaling_classes": (
                statistics.median(scaling_speedups) if scaling_speedups else None
            ),
            "median_speedup_candidates_all": (
                statistics.median(all_speedups) if all_speedups else None
            ),
            "median_speedup_attribute_checking": attribute_record[
                "median_speedup"
            ],
            "median_speedup_abstraction": abstraction_record["median_speedup"],
            "median_speedup_total_scaling_traces": (
                statistics.median(
                    r["speedup_total"]
                    for r in records
                    if r["family"] == "scaling_traces" and r["speedup_total"]
                )
                if any(r["family"] == "scaling_traces" for r in records)
                else None
            ),
            # The scaling claim: end-to-end ratio on the largest
            # scaling_traces workload (constraint set A), where the
            # engine-independent Step-2 share is smallest.
            "speedup_total_scaling_traces_largest": max(
                (
                    r["speedup_total"]
                    for r in records
                    if r["family"] == "scaling_traces" and r["speedup_total"]
                ),
                default=None,
            ),
            "batch_warm_speedup": max(
                (run["warm_speedup"] or 0.0)
                for run in batch_record["runs"].values()
            ),
            "dist_one_build_per_log": all(
                run["one_build_per_log"] for run in dist_record["runs"].values()
            ),
            "selection_speedup_decomposed_pool": selection_record[
                "speedup_decomposed_pool"
            ],
            "selection_speedup_frontier": selection_record["frontier"]["speedup"],
            "resilience_shed_rate_4x_with_admission": resilience_record["runs"][
                "overload_4x"
            ]["with_admission"]["shed_rate"],
            "observability_overhead_fraction": observability_record[
                "overhead_fraction"
            ],
            "durability_overhead_fraction": durability_record[
                "overhead_fraction"
            ],
            "durability_resume_speedup": durability_record["resume_speedup"],
            "outputs_match": not mismatches,
            "mismatched_workloads": mismatches,
        },
    }
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    median = report["summary"]["median_speedup_candidates_scaling_classes"]
    print(
        "\nmedian step-1 speedup (scaling_classes): "
        + (f"{median:.2f}x" if median is not None else "n/a")
    )
    print(f"report written to {args.output}")
    if mismatches:
        print(f"ENGINE MISMATCH on: {', '.join(mismatches)}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
