"""The GECCO facade: configuration, pipeline, and result objects.

:class:`Gecco` wires the three steps of the approach together
(Fig. 4): candidate computation (exhaustive or DFG-based, optionally
followed by exclusive-candidate merging), MIP-based selection of an
optimal grouping, and abstraction of the log.  The result object
carries the abstracted log, the grouping, the achieved distance, and
per-step timings; when the problem is infeasible it carries the
original log plus an :class:`~repro.constraints.sets.InfeasibilityReport`
so users can refine their constraints (paper §V-C).

Typical use::

    from repro import Gecco, GeccoConfig
    from repro.constraints import ConstraintSet, MaxDistinctClassAttribute

    constraints = ConstraintSet([MaxDistinctClassAttribute("org:role", 1)])
    result = Gecco(constraints, GeccoConfig(strategy="dfg")).abstract(log)
    result.abstracted_log   # the high-level log
    result.grouping         # the chosen groups

**Engine selection.**  Step 1 can run on two interchangeable engines
(``GeccoConfig(engine=...)``):

* ``"compiled"`` (default) — the integer-encoded hot path of
  :mod:`repro.core.encoding`: event classes are interned to integer IDs
  once per log, instance detection is vectorized with ``numpy``, groups
  and trace sets are bitmasks, and the beam search extends co-occurrence
  checks incrementally.  Identical candidates, distances, and groupings
  as the reference engine (enforced by
  ``tests/test_engine_differential.py``).  Requires ``numpy``; when
  ``numpy`` is unavailable the pipeline falls back to ``"python"`` with
  a ``RuntimeWarning`` and records the effective engine on the result
  (:attr:`AbstractionResult.engine`).
* ``"python"`` — the pure-Python reference implementation.  Pick it to
  cross-check results, to debug, or on deployments without ``numpy``.

**Artifact sharing.**  The expensive per-log artifacts (the compiled
log, the instance index with its Eq. 1 values, and the DFG) depend only
on the log, the instance policy, and the engine — not on the
constraints.  On the compiled engine :meth:`Gecco.abstract` keeps them
on the log object, a derived view like ``EventLog.classes``, so every
later call on that log with the same instance policy reuses them.
Callers that hold logs by content rather than by object (the service
runtime of :mod:`repro.service`) build them with
:func:`prepare_artifacts` and pass them to :meth:`Gecco.abstract`.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import astuple, dataclass, field

from repro.constraints.sets import ConstraintSet, InfeasibilityReport
from repro.core import encoding
from repro.core.abstraction import STRATEGIES, abstract_log
from repro.core.candidates import CandidateResult, exhaustive_candidates
from repro.core.checker import GroupChecker
from repro.core.dfg_candidates import default_beam_width, dfg_candidates
from repro.core.distance import DistanceFunction
from repro.core.exclusive import merge_exclusive_candidates
from repro.core.grouping import Grouping
from repro.core.instances import POLICIES, InstanceIndex
from repro.core.selection import SOLVER_CHOICES, select_optimal_grouping
from repro.eventlog.dfg import compute_dfg
from repro.eventlog.events import EventLog
from repro.exceptions import ConstraintError, InfeasibleProblemError

#: Step-1 strategies.
STEP1_STRATEGIES = ("exhaustive", "dfg")

#: Pipeline engines (see the module docstring).
ENGINES = ("compiled", "python")

#: Step-2 selection modes: the paper-literal single MIP, or the
#: decomposed pipeline of :mod:`repro.selection2`.
SELECTION_MODES = ("monolithic", "decomposed")


@dataclass
class GeccoConfig:
    """Configuration of the GECCO pipeline.

    Attributes
    ----------
    strategy:
        Step-1 instantiation: ``"exhaustive"`` (Alg. 1) or ``"dfg"``
        (Alg. 2).
    beam_width:
        Beam width ``k`` for the DFG strategy.  ``None`` = unlimited
        (the paper's DFG∞); ``"auto"`` = ``5 * |C_L|`` (the paper's
        DFGk); an integer sets ``k`` explicitly.
    exclusive_merging:
        Whether to run the Algorithm-3 post pass (default ``True``).
    instance_policy:
        Instance-splitting policy (see :mod:`repro.core.instances`).
    abstraction_strategy:
        ``"complete"`` or ``"start_complete"`` (Step 3).
    solver:
        Step-2 backend: ``"auto"`` (default — the portfolio of
        :mod:`repro.selection2.portfolio`: in decomposed mode a
        warm-started, node-capped branch-and-bound per component with
        HiGHS when the cap is hit; in monolithic mode branch-and-bound
        for small programs and HiGHS for large ones; identical
        groupings either way), ``"scipy"`` (always HiGHS), or
        ``"bnb"``.
    selection:
        Step-2 mode: ``"decomposed"`` (default — the
        :mod:`repro.selection2` pipeline: overlap-graph decomposition,
        certified presolve, per-component portfolio, Eq. 5 coordination)
        or ``"monolithic"`` (the paper-literal single MIP).  Both return
        byte-identical groupings (enforced by
        ``tests/test_selection_decomposed.py``).
    selection_workers:
        Worker processes for parallel component solving in decomposed
        mode (1 = in-process).  Values > 1 spin up a transient pool per
        solve; long-running callers should instead pass an executor to
        :func:`repro.selection2.select_decomposed` directly.
    candidate_timeout:
        Wall-clock budget (seconds) for Step 1; on expiry GECCO
        continues with the candidates found so far (paper §VI-A).
    solver_time_limit:
        Optional time limit for the MIP backend.
    raise_on_infeasible:
        Raise :class:`InfeasibleProblemError` instead of returning the
        original log when no feasible grouping exists.
    label_attribute:
        Optional event-attribute key; groups whose classes share a
        single value of it are labeled ``<value>_Activity_<i>``
        (used for the case study's origin-system labels, Fig. 8).
    distance:
        The objective to minimize: ``"eq1"`` (the paper's Eq. 1,
        default) or one of the alternatives in
        :mod:`repro.core.alt_distance` (``"frequency"``, ``"jaccard"``,
        ``"entropy"``) — §IV-B notes the approach is largely
        independent of the concrete distance function.
    engine:
        ``"compiled"`` (integer-encoded hot path, default) or
        ``"python"`` (pure-Python reference); see the module docstring.
        ``"compiled"`` degrades to ``"python"`` with a ``RuntimeWarning``
        when numpy is missing; the result records the effective engine.
    """

    strategy: str = "dfg"
    beam_width: int | str | None = None
    exclusive_merging: bool = True
    instance_policy: str = "repeat"
    abstraction_strategy: str = "complete"
    solver: str = "auto"
    selection: str = "decomposed"
    selection_workers: int = 1
    candidate_timeout: float | None = None
    solver_time_limit: float | None = None
    raise_on_infeasible: bool = False
    label_attribute: str | None = None
    distance: str = "eq1"
    engine: str = "compiled"

    def __post_init__(self):
        if self.engine not in ENGINES:
            raise ConstraintError(
                f"unknown engine {self.engine!r}; use one of {ENGINES}"
            )
        if self.strategy not in STEP1_STRATEGIES:
            raise ConstraintError(
                f"unknown strategy {self.strategy!r}; use one of {STEP1_STRATEGIES}"
            )
        if self.instance_policy not in POLICIES:
            raise ConstraintError(
                f"unknown instance policy {self.instance_policy!r}; use one of {POLICIES}"
            )
        if self.abstraction_strategy not in STRATEGIES:
            raise ConstraintError(
                f"unknown abstraction strategy {self.abstraction_strategy!r}; "
                f"use one of {STRATEGIES}"
            )
        if self.solver not in SOLVER_CHOICES:
            raise ConstraintError(
                f"unknown solver {self.solver!r}; use one of {SOLVER_CHOICES}"
            )
        if self.selection not in SELECTION_MODES:
            raise ConstraintError(
                f"unknown selection mode {self.selection!r}; "
                f"use one of {SELECTION_MODES}"
            )
        if self.selection_workers < 1:
            raise ConstraintError(
                f"selection_workers must be >= 1, got {self.selection_workers}"
            )
        if isinstance(self.beam_width, str) and self.beam_width != "auto":
            raise ConstraintError(
                f"beam_width must be an int, None, or 'auto', got {self.beam_width!r}"
            )
        if isinstance(self.beam_width, int) and self.beam_width < 1:
            raise ConstraintError(f"beam_width must be >= 1, got {self.beam_width}")
        for name in ("candidate_timeout", "solver_time_limit"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ConstraintError(f"{name} must be >= 0, got {value}")
        from repro.core.alt_distance import ALTERNATIVE_DISTANCES

        known_distances = ("eq1", *ALTERNATIVE_DISTANCES)
        if self.distance not in known_distances:
            raise ConstraintError(
                f"unknown distance {self.distance!r}; use one of {known_distances}"
            )

    # -- named configurations of the paper's evaluation --------------------

    @classmethod
    def exhaustive(cls, **overrides) -> "GeccoConfig":
        """The paper's Exh configuration."""
        return cls(strategy="exhaustive", **overrides)

    @classmethod
    def dfg_unlimited(cls, **overrides) -> "GeccoConfig":
        """The paper's DFG∞ configuration (no beam pruning)."""
        return cls(strategy="dfg", beam_width=None, **overrides)

    @classmethod
    def dfg_adaptive(cls, **overrides) -> "GeccoConfig":
        """The paper's DFGk configuration (``k = 5 * |C_L|``)."""
        return cls(strategy="dfg", beam_width="auto", **overrides)


def resolve_engine(engine: str, warn: bool = True) -> str:
    """The engine that will actually run for a requested ``engine``.

    Warns (``RuntimeWarning``) when the compiled engine is requested but
    numpy is unavailable, instead of degrading silently; ``warn=False``
    suppresses the warning for purely informational probes (e.g. the
    scheduler computing a job's cache prefix).
    """
    if engine == "compiled" and not encoding.HAVE_NUMPY:
        if warn:
            warnings.warn(
                "engine='compiled' requested but numpy is unavailable; "
                "falling back to the pure-Python reference engine",
                RuntimeWarning,
                stacklevel=2,
            )
        return "python"
    return engine


@dataclass
class PipelineArtifacts:
    """Per-log artifacts shared by every problem on the same log.

    Building these is the constraint-independent part of a pipeline run:
    the compiled encoding, the instance index, and the DFG depend only
    on ``(log, instance_policy, engine)``.  :meth:`Gecco.abstract`
    accepts a prebuilt instance so that batch callers (the
    :mod:`repro.service` runtime) pay the cost once per log instead of
    once per job; without one, the compiled engine keeps the bundle it
    builds on the log object for the next call.  A bundle is never
    edited: a kept one is rebuilt after ``EventLog.append`` or
    ``Trace.append``.
    """

    engine: str
    instance_policy: str
    log: EventLog
    compiled: object | None
    instance_index: InstanceIndex
    dfg: dict


def prepare_artifacts(log: EventLog, config: "GeccoConfig") -> PipelineArtifacts:
    """Build the shareable per-log artifacts for ``config``.

    The compiled engine takes the DFG from :meth:`CompiledLog.dfg`.
    """
    engine = resolve_engine(config.engine)
    if engine == "compiled":
        compiled = encoding.CompiledLog(log)
        instance_index: InstanceIndex = encoding.CompiledInstanceIndex(
            log, compiled, policy=config.instance_policy
        )
    else:
        compiled = None
        instance_index = InstanceIndex(log, policy=config.instance_policy)
    return PipelineArtifacts(
        engine=engine,
        instance_policy=config.instance_policy,
        log=log,
        compiled=compiled,
        instance_index=instance_index,
        dfg=compute_dfg(log) if compiled is None else compiled.dfg(),
    )


@dataclass
class StepTimings:
    """Wall-clock seconds per pipeline step.

    ``diagnosis`` is the time :meth:`ConstraintSet.diagnose` took on an
    infeasible problem (0.0 when the problem is feasible).
    """

    candidates: float = 0.0
    exclusive: float = 0.0
    selection: float = 0.0
    abstraction: float = 0.0
    diagnosis: float = 0.0

    @property
    def total(self) -> float:
        return sum(astuple(self))


@dataclass
class AbstractionResult:
    """Everything GECCO produced for one abstraction problem."""

    abstracted_log: EventLog
    grouping: Grouping | None
    distance: float | None
    feasible: bool
    num_candidates: int
    timings: StepTimings = field(default_factory=StepTimings)
    candidate_stats: object | None = None
    infeasibility: InfeasibilityReport | None = None
    original_log: EventLog | None = None
    #: The engine that actually ran (``"compiled"`` or ``"python"``);
    #: differs from the requested one after a numpy fallback.
    engine: str | None = None
    #: Step-2 solver accounting (:class:`repro.selection2.stats.SelectionStats`):
    #: mode, backends, components, presolve reductions, nodes, cache hits.
    selection_stats: object | None = None
    #: Alg. 3 accounting (:class:`repro.core.exclusive.ExclusiveStats`:
    #: pairs checked, merges and extensions added, seconds); ``None``
    #: when exclusive merging is off.
    exclusive_stats: object | None = None

    @property
    def size_reduction(self) -> float | None:
        """``1 - |G| / |C_L|``, the paper's size-reduction measure."""
        if self.grouping is None:
            return None
        return 1.0 - self.grouping.size_reduction


class Gecco:
    """The GECCO approach (Fig. 4): candidates → selection → abstraction.

    The paper's three-step pipeline as one reusable object: Step 1
    computes constraint-satisfying candidate groups of event classes
    (``strategy="dfg"`` beam search or ``"exhaustive"``), Step 2 selects
    the distance-minimal exact cover by MIP, Step 3 rewrites the log at
    the higher abstraction level.

    Parameters
    ----------
    constraints:
        The user's :class:`~repro.constraints.sets.ConstraintSet` ``R``
        (a plain iterable of constraints is wrapped automatically).
    config:
        Optional :class:`GeccoConfig`; defaults cover the paper's DFG
        configuration on the compiled engine.

    Example
    -------
    >>> from repro import Gecco, GeccoConfig
    >>> from repro.constraints import ConstraintSet, MaxGroupSize
    >>> from repro.datasets import running_example_log
    >>> result = Gecco(ConstraintSet([MaxGroupSize(3)])).abstract(
    ...     running_example_log())
    >>> result.feasible
    True
    """

    def __init__(self, constraints: ConstraintSet, config: GeccoConfig | None = None):
        if not isinstance(constraints, ConstraintSet):
            constraints = ConstraintSet(constraints)
        self.constraints = constraints
        self.config = config or GeccoConfig()

    # -- pipeline -----------------------------------------------------------

    def abstract(
        self,
        log: EventLog,
        artifacts: PipelineArtifacts | None = None,
        selection_cache=None,
        deadline=None,
    ) -> AbstractionResult:
        """Run the full pipeline on ``log``.

        ``artifacts`` may carry prebuilt per-log artifacts (from
        :func:`prepare_artifacts`); they must match the configuration's
        instance policy and effective engine.  Without them the compiled
        engine keeps the artifacts it builds on ``log`` and reuses them
        on later calls with the same instance policy; those calls see
        ``EventLog.append`` and ``Trace.append`` but, like
        ``EventLog.classes``, no in-place edit of an event's class or
        attributes.  The python engine builds fresh artifacts on every
        call.  ``selection_cache`` is an
        optional :class:`~repro.service.cache.ArtifactCache` whose
        selection tier memoizes solved Step-2 components across jobs
        (the service runtime passes its per-worker cache here).

        ``deadline`` is an optional
        :class:`~repro.service.resilience.Deadline`: the pipeline
        checks it at each step boundary and raises
        :class:`~repro.service.resilience.DeadlineExceeded` once the
        budget runs out.  The check points never alter what a run that
        *does* finish computes — in particular the Step-1 candidate
        timeout is **not** derived from the deadline (a capped timeout
        would change which candidates are found, breaking byte-identity
        with the unbudgeted run), and Step-2 solver time limits are
        only capped where the decomposed path can fail typed instead of
        returning a different result.
        """
        config = self.config
        timings = StepTimings()
        if deadline is not None:
            deadline.check("pipeline start")
        if artifacts is None:
            artifacts = self._log_artifacts(log)
        else:
            expected = resolve_engine(config.engine)
            if (
                artifacts.engine != expected
                or artifacts.instance_policy != config.instance_policy
            ):
                raise ConstraintError(
                    f"artifacts built for engine={artifacts.engine!r}/"
                    f"policy={artifacts.instance_policy!r} do not match config "
                    f"engine={expected!r}/policy={config.instance_policy!r}"
                )
            if artifacts.log is not log and (
                len(artifacts.log) != len(log)
                or artifacts.log.classes != log.classes
                or artifacts.log.event_count != log.event_count
            ):
                raise ConstraintError(
                    "artifacts were built from a different log (trace count, "
                    "class universe, or event count differs)"
                )
        compiled = artifacts.compiled
        instance_index = artifacts.instance_index
        checker = GroupChecker(log, self.constraints, instance_index)
        if config.distance == "eq1":
            if compiled is not None:
                distance = encoding.CompiledDistanceFunction(log, instance_index)
            else:
                distance = DistanceFunction(log, instance_index)
        else:
            from repro.core.alt_distance import ALTERNATIVE_DISTANCES

            distance = ALTERNATIVE_DISTANCES[config.distance](log, instance_index)
        dfg = artifacts.dfg

        # Step 1: candidate computation.
        started = time.perf_counter()
        candidate_result = self._compute_candidates(
            log, checker, distance, dfg, compiled
        )
        timings.candidates = time.perf_counter() - started

        candidates = set(candidate_result.groups)
        exclusive_stats = None
        if deadline is not None:
            deadline.check("exclusive merging (step 1 done)")
        if config.exclusive_merging:
            started = time.perf_counter()
            candidates, exclusive_stats = merge_exclusive_candidates(
                log, candidates, checker, dfg, compiled=compiled
            )
            timings.exclusive = time.perf_counter() - started

        # Step 2: optimal grouping.
        if deadline is not None:
            deadline.check("selection (step 2)")
        started = time.perf_counter()
        if config.selection == "decomposed":
            from repro.selection2 import select_decomposed

            selection = select_decomposed(
                log,
                candidates,
                distance,
                min_groups=self.constraints.min_groups,
                max_groups=self.constraints.max_groups,
                backend=config.solver,
                time_limit=config.solver_time_limit,
                workers=config.selection_workers,
                cache=selection_cache,
                deadline=deadline,
            )
        else:
            selection = select_optimal_grouping(
                log,
                candidates,
                distance,
                min_groups=self.constraints.min_groups,
                max_groups=self.constraints.max_groups,
                backend=config.solver,
                time_limit=config.solver_time_limit,
            )
        timings.selection = time.perf_counter() - started
        selection_stats = self._selection_stats(selection, len(candidates))

        if not selection.feasible:
            started = time.perf_counter()
            report = self.constraints.diagnose(
                log,
                checker.class_attributes,
                instance_index.events,
                candidates,
                counter=checker.count_violations,
            )
            timings.diagnosis = time.perf_counter() - started
            if config.raise_on_infeasible:
                raise InfeasibleProblemError(
                    "no grouping satisfies the constraints:\n" + report.summary(),
                    report=report,
                )
            # Paper §V-C: return the initial log with diagnostics.
            return AbstractionResult(
                abstracted_log=log,
                grouping=None,
                distance=None,
                feasible=False,
                num_candidates=len(candidates),
                timings=timings,
                candidate_stats=candidate_result.stats,
                infeasibility=report,
                original_log=log,
                engine=artifacts.engine,
                selection_stats=selection_stats,
                exclusive_stats=exclusive_stats,
            )

        grouping = selection.grouping
        if config.label_attribute is not None:
            grouping = self._relabel_by_attribute(grouping, checker)

        # Step 3: abstraction.
        if deadline is not None:
            deadline.check("abstraction (step 3)")
        started = time.perf_counter()
        abstracted = abstract_log(
            log,
            grouping,
            instance_index,
            strategy=config.abstraction_strategy,
        )
        timings.abstraction = time.perf_counter() - started

        return AbstractionResult(
            abstracted_log=abstracted,
            grouping=grouping,
            distance=selection.objective,
            feasible=True,
            num_candidates=len(candidates),
            timings=timings,
            candidate_stats=candidate_result.stats,
            original_log=log,
            engine=artifacts.engine,
            selection_stats=selection_stats,
            exclusive_stats=exclusive_stats,
        )

    # -- helpers ------------------------------------------------------------

    def _log_artifacts(self, log: EventLog) -> PipelineArtifacts:
        """The artifacts of ``log``: on the compiled engine, from the log's
        memo (by instance policy).  A first build, or a memo built at other
        trace or event counts, starts from fresh derived views."""
        config = self.config
        if resolve_engine(config.engine, warn=False) != "compiled":
            return prepare_artifacts(log, config)
        built = next(iter(log._artifacts.values()), None)
        counts = (len(log), sum(map(len, log.traces)))
        if built is None or (built.compiled.num_traces, built.compiled.all_ids.size) != counts:
            log._invalidate()  # a ``Trace.append`` is invisible to the log
        memo = log._artifacts
        artifacts = memo.get(config.instance_policy)
        if artifacts is None:
            artifacts = memo[config.instance_policy] = prepare_artifacts(log, config)
        return artifacts

    def _selection_stats(self, selection, num_candidates: int):
        """The Step-2 stats record (built here for monolithic solves)."""
        stats = getattr(selection, "stats", None)
        if stats is not None:
            return stats
        from repro.selection2.stats import SelectionStats

        return SelectionStats(
            mode="monolithic",
            backend=selection.backend or self.config.solver,
            backends_used=[selection.backend] if selection.backend else [],
            num_components=1,
            num_candidates=num_candidates,
            solves=1,
            nodes=selection.nodes,
            lp_bound_cuts=selection.lp_cuts,
            canonical_aborts=int(not selection.canonical),
            seconds=selection.seconds,
        )

    def _compute_candidates(
        self, log, checker, distance, dfg, compiled=None
    ) -> CandidateResult:
        config = self.config
        if config.strategy == "exhaustive":
            return exhaustive_candidates(
                log,
                self.constraints,
                checker=checker,
                timeout=config.candidate_timeout,
                compiled=compiled,
            )
        beam_width = config.beam_width
        if beam_width == "auto":
            beam_width = default_beam_width(log)
        return dfg_candidates(
            log,
            self.constraints,
            beam_width=beam_width,
            checker=checker,
            distance=distance,
            dfg=dfg,
            timeout=config.candidate_timeout,
            compiled=compiled,
        )

    def _relabel_by_attribute(self, grouping: Grouping, checker: GroupChecker) -> Grouping:
        """Prefix multi-class group labels with a shared attribute value."""
        key = self.config.label_attribute
        labels: dict[frozenset[str], str] = {}
        counters: dict[str, int] = {}
        for group in sorted(grouping.groups, key=lambda g: sorted(g)[0]):
            if len(group) == 1:
                continue
            values: set = set()
            for cls in group:
                values.update(checker.class_attributes.get(cls, {}).get(key, frozenset()))
            if len(values) == 1:
                prefix = str(next(iter(values)))
                counters[prefix] = counters.get(prefix, 0) + 1
                labels[group] = f"{prefix}_Activity_{counters[prefix]}"
        return grouping.relabel(labels) if labels else grouping
