"""Experiment runner: abstraction problems → measured result rows.

One *abstraction problem* is a (log, constraint set) pair (the paper
builds 121 of them from 13 logs × 10 sets).  The runner solves problems
with a GECCO configuration or a baseline and records the paper's
measures: feasibility (Solved), size reduction (S.red), complexity
reduction (C.red), silhouette coefficient (Sil.), and runtime.
"""

from __future__ import annotations

import time
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.baselines.graph_query import abstract_with_graph_query
from repro.baselines.greedy import abstract_with_greedy
from repro.baselines.partitioning import abstract_with_partitioning
from repro.core.gecco import AbstractionResult, Gecco, GeccoConfig
from repro.eventlog.events import EventLog
from repro.exceptions import ReproError
from repro.experiments.configs import applicable, constraint_set_for_log
from repro.measures.reduction import complexity_reduction, size_reduction
from repro.measures.silhouette import silhouette_coefficient

#: Approach identifiers accepted by :func:`solve_problem`.
APPROACHES = ("Exh", "DFGinf", "DFGk", "BLQ", "BLP", "BLG")


@dataclass
class ProblemResult:
    """Measures of one solved (or unsolved) abstraction problem."""

    log_name: str
    constraint_set: str
    approach: str
    solved: bool
    size_red: float | None = None
    complexity_red: float | None = None
    silhouette: float | None = None
    seconds: float = 0.0
    num_groups: int | None = None
    num_candidates: int | None = None
    error: str = ""


@dataclass
class ExperimentReport:
    """All problem results of one experiment run."""

    rows: list[ProblemResult] = field(default_factory=list)

    def filtered(self, **criteria) -> list[ProblemResult]:
        """Rows matching all keyword criteria (attribute equality)."""
        selected = self.rows
        for key, value in criteria.items():
            selected = [row for row in selected if getattr(row, key) == value]
        return selected

    def aggregate(
        self, rows: list[ProblemResult] | None = None
    ) -> dict[str, float]:
        """Paper-style aggregation: Solved over all rows, rest over solved."""
        rows = self.rows if rows is None else rows
        if not rows:
            return {"Solved": 0.0, "S. red.": 0.0, "C. red.": 0.0, "Sil.": 0.0, "T(s)": 0.0}
        solved = [row for row in rows if row.solved]

        def mean(values: list[float]) -> float:
            return sum(values) / len(values) if values else 0.0

        return {
            "Solved": len(solved) / len(rows),
            "S. red.": mean([row.size_red for row in solved if row.size_red is not None]),
            "C. red.": mean(
                [row.complexity_red for row in solved if row.complexity_red is not None]
            ),
            "Sil.": mean([row.silhouette for row in solved if row.silhouette is not None]),
            "T(s)": mean([row.seconds for row in solved]),
        }


def _gecco_config(approach: str, **overrides) -> GeccoConfig:
    if approach == "Exh":
        return GeccoConfig.exhaustive(**overrides)
    if approach == "DFGinf":
        return GeccoConfig.dfg_unlimited(**overrides)
    if approach == "DFGk":
        return GeccoConfig.dfg_adaptive(**overrides)
    raise ReproError(f"not a GECCO approach: {approach!r}")


def _row_from_result(
    log: EventLog,
    constraint_set_name: str,
    approach: str,
    log_name: str,
    result: AbstractionResult | None,
    seconds: float,
    error: str = "",
) -> ProblemResult:
    """Turn one pipeline outcome into a measured result row."""
    if result is None or not result.feasible or result.grouping is None:
        return ProblemResult(
            log_name=log_name,
            constraint_set=constraint_set_name,
            approach=approach,
            solved=False,
            seconds=seconds,
            num_candidates=None if result is None else result.num_candidates,
            error=error,
        )

    grouping = result.grouping
    return ProblemResult(
        log_name=log_name,
        constraint_set=constraint_set_name,
        approach=approach,
        solved=True,
        size_red=size_reduction(len(grouping), len(log.classes)),
        complexity_red=complexity_reduction(log, result.abstracted_log),
        silhouette=silhouette_coefficient(log, grouping),
        seconds=seconds,
        num_groups=len(grouping),
        num_candidates=result.num_candidates,
    )


def solve_problem(
    log: EventLog,
    constraint_set_name: str,
    approach: str,
    log_name: str = "log",
    candidate_timeout: float | None = 60.0,
    seed: int = 0,
    config_overrides: dict | None = None,
) -> ProblemResult:
    """Solve one abstraction problem and measure the outcome.

    ``config_overrides`` are extra :class:`GeccoConfig` fields applied
    to the GECCO approaches (ignored by baselines) — e.g.
    ``{"selection": "monolithic"}`` or ``{"solver": "auto"}`` to sweep
    Step-2 configurations over the same problem grid.
    """
    if approach not in APPROACHES:
        raise ReproError(f"unknown approach {approach!r}; use one of {APPROACHES}")
    constraints = constraint_set_for_log(constraint_set_name, log)
    started = time.perf_counter()
    result: AbstractionResult | None = None
    error = ""
    try:
        if approach in ("Exh", "DFGinf", "DFGk"):
            config = _gecco_config(
                approach,
                candidate_timeout=candidate_timeout,
                **(config_overrides or {}),
            )
            result = Gecco(constraints, config).abstract(log)
        elif approach == "BLQ":
            result = abstract_with_graph_query(log, constraints)
        elif approach == "BLP":
            result = abstract_with_partitioning(
                log, max(1, len(log.classes) // 2), seed=seed
            )
        elif approach == "BLG":
            result = abstract_with_greedy(log, constraints)
    except ReproError as exc:
        error = str(exc)
    seconds = time.perf_counter() - started
    return _row_from_result(
        log, constraint_set_name, approach, log_name, result, seconds, error
    )


def run_experiment(
    logs: dict[str, EventLog],
    constraint_set_names: Iterable[str],
    approaches: Iterable[str],
    candidate_timeout: float | None = 60.0,
    executor=None,
    config_overrides: dict | None = None,
) -> ExperimentReport:
    """Cross product of logs × constraint sets × approaches.

    Inapplicable combinations (per :func:`repro.experiments.configs.applicable`,
    e.g. BL3 on logs without class-level attributes) are skipped, as in
    the paper.

    Without an executor the cells run in-process on the given log
    objects, so every cell on a log with the same instance policy
    reuses the artifacts the first one compiled (see
    :meth:`~repro.core.gecco.Gecco.abstract`).  ``executor`` optionally
    routes the GECCO cells of the grid through a :mod:`repro.service`
    executor (e.g. a :class:`~repro.service.executor.PoolExecutor`):
    every (log × constraint set × configuration) cell becomes an
    :class:`~repro.service.jobs.AbstractionJob`, so the grid fans out
    across cores and each worker shares per-log artifacts between its
    cells through its artifact cache.  Baseline approaches always run
    in-process.  Row order matches the sequential path; ``seconds`` of
    executor rows is the pipeline time measured inside the job
    (:attr:`~repro.core.gecco.StepTimings.total`), not parent wall time.

    ``config_overrides`` apply extra :class:`GeccoConfig` fields to all
    GECCO cells of the grid (see :func:`solve_problem`).
    """
    report = ExperimentReport()
    if executor is None:
        for approach in approaches:
            for set_name in constraint_set_names:
                for log_name, log in logs.items():
                    if not applicable(set_name, log):
                        continue
                    report.rows.append(
                        solve_problem(
                            log,
                            set_name,
                            approach,
                            log_name=log_name,
                            candidate_timeout=candidate_timeout,
                            config_overrides=config_overrides,
                        )
                    )
        return report

    from repro.service.jobs import AbstractionJob, LogRef

    refs = {name: LogRef.inline(log, name=name) for name, log in logs.items()}
    cells = []
    for approach in approaches:
        for set_name in constraint_set_names:
            for log_name, log in logs.items():
                if not applicable(set_name, log):
                    continue
                handle = None
                if approach in ("Exh", "DFGinf", "DFGk"):
                    job = AbstractionJob(
                        log=refs[log_name],
                        constraints=constraint_set_for_log(set_name, log),
                        config=_gecco_config(
                            approach,
                            candidate_timeout=candidate_timeout,
                            **(config_overrides or {}),
                        ),
                        job_id=f"{approach}/{set_name}/{log_name}",
                    )
                    handle = executor.submit(job)
                cells.append((approach, set_name, log_name, handle))
    for approach, set_name, log_name, handle in cells:
        log = logs[log_name]
        if handle is None:
            report.rows.append(
                solve_problem(
                    log,
                    set_name,
                    approach,
                    log_name=log_name,
                    candidate_timeout=candidate_timeout,
                    config_overrides=config_overrides,
                )
            )
            continue
        error = ""
        result: AbstractionResult | None = None
        try:
            result = handle.result()
        except ReproError as exc:
            error = str(exc)
        seconds = result.timings.total if result is not None else 0.0
        report.rows.append(
            _row_from_result(
                log, set_name, approach, log_name, result, seconds, error
            )
        )
    return report
