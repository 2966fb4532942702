"""The benchmark's four workloads, generated from ``--seed``.

Each in-process workload is a list of :class:`Problem` (one
``Gecco.abstract`` call each); ``batch_pool`` is a 20-job manifest for
the service tier.  No problem carries a wall-clock budget: Step 1 runs
without ``candidate_timeout`` and Step 2 without ``solver_time_limit``,
so every output is a function of the inputs alone.

How the seed enters: the logs are the fixed draws the paper tables and
the test suite use (the Table III specs' own seeds, the case-study loan
log's seed 17), and ``seed`` shuffles the trace order of every log and
the order of the problems in a pass.  The outputs must not depend on
either order, so one reference serves every seed.  Drawing new logs per
seed instead moved ``loan_sweep``'s median latency by 64% (IQR over
median, five seeds), more than any regression bound could absorb.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.constraints import ConstraintSet, MaxGroups, MaxGroupSize
from repro.core.gecco import GeccoConfig
from repro.datasets import loan_application_log, running_example_log
from repro.datasets.collection import TABLE_III_SPECS, build_log
from repro.eventlog.events import EventLog
from repro.experiments.configs import ALL_SET_NAMES, constraint_set_for_log
from repro.service import AbstractionJob, LogRef

#: The logs whose size the ``long_logs`` workload keeps at 5000 traces.
LONG_LOG_NAMES = ("road_fines", "bpic17", "bpic12", "sepsis")

#: Constraint sets of ``long_logs``: anti-monotonic, non-monotonic, baseline.
LONG_LOG_SETS = ("A", "N", "BL1")


@dataclass
class Problem:
    """One abstraction problem: a log, a constraint set and a config."""

    pid: str
    log: EventLog
    constraints: ConstraintSet
    config: GeccoConfig


def shuffled(log: EventLog, rng: random.Random) -> EventLog:
    """The same traces in a random order."""
    traces = list(log.traces)
    rng.shuffle(traces)
    return EventLog(traces, log.attributes)


def _problems(logs: dict, set_names, config: GeccoConfig, seed: int) -> list[Problem]:
    rng = random.Random(seed)
    problems = []
    for name, log in logs.items():
        log = shuffled(log, rng)
        problems += [
            Problem(f"{name}/{set_name}", log, constraint_set_for_log(set_name, log), config)
            for set_name in set_names
        ]
    rng.shuffle(problems)
    return problems


def collection_exh(seed: int) -> list[Problem]:
    """Table V: 13 logs (50 traces, 10 classes) × 10 sets, Exh."""
    logs = {
        spec.name: build_log(spec, max_traces=50, max_classes=10)
        for spec in TABLE_III_SPECS
    }
    return _problems(logs, ALL_SET_NAMES, GeccoConfig.exhaustive(), seed)


def loan_sweep(seed: int) -> list[Problem]:
    """The case study: the 80-trace loan log × all 10 sets, DFGk."""
    logs = {"loan": loan_application_log(num_traces=80)}
    return _problems(logs, ALL_SET_NAMES, GeccoConfig.dfg_adaptive(), seed)


def long_logs(seed: int) -> list[Problem]:
    """Four logs at 5000 traces (10 classes) × {A, N, BL1}, DFGk."""
    logs = {
        spec.name: build_log(spec, max_traces=5000, max_classes=10)
        for spec in TABLE_III_SPECS
        if spec.name in LONG_LOG_NAMES
    }
    return _problems(logs, LONG_LOG_SETS, GeccoConfig.dfg_adaptive(), seed)


def batch_logs(seed: int) -> dict[str, EventLog]:
    """The manifest's logs: the running example and the 60-trace loan log."""
    rng = random.Random(seed)
    return {
        "running_example": shuffled(running_example_log(), rng),
        "loan:60": shuffled(loan_application_log(num_traces=60), rng),
    }


def batch_jobs(logs: dict[str, EventLog]) -> list[AbstractionJob]:
    """The 20-job service manifest (size and group-count sweeps per log).

    Fresh job objects on every call, so each cold pass fingerprints its
    logs again.
    """
    jobs = []
    for name, log in logs.items():
        ref = LogRef.inline(log, name)
        for bound in (2, 3, 4, 5, 6):
            jobs.append(
                AbstractionJob(
                    log=ref,
                    constraints=ConstraintSet([MaxGroupSize(bound)]),
                    config=GeccoConfig(beam_width="auto"),
                    job_id=f"{name}/size{bound}",
                )
            )
        for bound in (3, 4, 5, 6, 7):
            jobs.append(
                AbstractionJob(
                    log=ref,
                    constraints=ConstraintSet([MaxGroupSize(8), MaxGroups(bound)]),
                    config=GeccoConfig(beam_width="auto"),
                    job_id=f"{name}/groups{bound}",
                )
            )
    return jobs


def batch_problems(logs: dict[str, EventLog]) -> list[Problem]:
    """The manifest's jobs as in-process problems (the pool's reference)."""
    return [
        Problem(job.job_id, job.log.resolve(), job.constraints, job.config)
        for job in batch_jobs(logs)
    ]


IN_PROCESS = {
    "collection_exh": collection_exh,
    "loan_sweep": loan_sweep,
    "long_logs": long_logs,
}
