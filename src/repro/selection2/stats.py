"""Step-2 solver statistics: what the selection layer actually did.

Every Step-2 solve — monolithic or decomposed — produces a
:class:`SelectionStats` record: which backend(s) ran, how the program
decomposed, what presolve removed, how much search the branch-and-bound
backend spent, and how often the selection-artifact cache served a
component without solving it.  The record rides on
:attr:`~repro.core.gecco.AbstractionResult.selection_stats`, survives
the JSON round-trip of :mod:`repro.service.serialization`, and surfaces
in ``repro batch`` output rows and ``BENCH_pipeline.json``.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class SelectionStats:
    """Accounting of one Step-2 solve.

    Attributes
    ----------
    mode:
        ``"monolithic"`` (one MIP over all candidates) or
        ``"decomposed"`` (the :mod:`repro.selection2` pipeline).
    backend:
        The requested backend (``"scipy"``, ``"bnb"``, or ``"auto"``).
    backends_used:
        The backends that actually solved something (the ``auto``
        portfolio runs ``bnb`` and falls back to ``scipy`` per component
        when the node cap is hit).
    num_components:
        Independent overlap-graph components the program split into
        (1 for monolithic solves).
    num_candidates:
        Candidate count of the full program, before presolve.
    presolve:
        Reduction counters — ``duplicates_merged``,
        ``dominated_removed``, ``forced_fixed`` (see
        :mod:`repro.selection2.presolve`); empty for monolithic solves.
    solves:
        Backend invocations, including per-count Pareto solves under
        Eq. 5 bounds.
    nodes:
        Total branch-and-bound nodes explored (0 when only HiGHS ran);
        surfaced as ``nodes_explored`` in :meth:`as_dict`.
    lp_bound_cuts:
        Branch-and-bound prunes decided only by the LP-relaxation dual
        bound (the cost-share bound alone would have kept searching).
    races:
        Always 0: the bnb-vs-HiGHS race is gone, and the field stays
        only because older readers (and records) still carry it.
    canonical_aborts:
        Solves whose lex-min tie-break ran out of nodes, so the groups
        are the backend's own optimum rather than the canonical one
        (``ComponentSolution.canonical=False``, or the monolithic
        ``lexmin_optimal_selection`` returning ``None``).
    cache_hits / cache_misses:
        Selection-artifact tier accounting (component solutions served
        from / missing in the :class:`~repro.service.cache.ArtifactCache`).
    seconds:
        Wall-clock time of the whole Step-2 phase.
    workers:
        Worker processes used for parallel component solving.
    component_shape:
        ``[classes, candidates]`` per component, in component order.
    """

    mode: str = "monolithic"
    backend: str = "scipy"
    backends_used: list[str] = field(default_factory=list)
    num_components: int = 1
    num_candidates: int = 0
    presolve: dict[str, int] = field(default_factory=dict)
    solves: int = 0
    nodes: int = 0
    lp_bound_cuts: int = 0
    # Read by name by the per-layer benchmark spans; kept at 0.
    races: int = 0
    canonical_aborts: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    seconds: float = 0.0
    workers: int = 1
    component_shape: list[list[int]] = field(default_factory=list)

    def record_solution(self, solution) -> None:
        """Fold one freshly solved component's counters into the record."""
        self.solves += 1
        self.nodes += solution.nodes
        self.lp_bound_cuts += getattr(solution, "lp_cuts", 0)
        self.canonical_aborts += not getattr(solution, "canonical", True)

    def as_dict(self) -> dict:
        """Plain-data rendering for batch rows, JSON stores, benchmarks."""
        return {
            "mode": self.mode,
            "backend": self.backend,
            "backends_used": list(self.backends_used),
            "num_components": self.num_components,
            "num_candidates": self.num_candidates,
            "presolve": dict(self.presolve),
            "solves": self.solves,
            "nodes": self.nodes,
            "nodes_explored": self.nodes,
            "lp_bound_cuts": self.lp_bound_cuts,
            "races": self.races,
            "canonical_aborts": self.canonical_aborts,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "seconds": self.seconds,
            "workers": self.workers,
            "component_shape": [list(shape) for shape in self.component_shape],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SelectionStats":
        """Rebuild a record from :meth:`as_dict` output.

        ``nodes_explored`` is an alias of ``nodes`` in the JSON form;
        unknown keys are dropped and missing ones take their defaults, so
        older records (``race_winner``, no ``canonical_aborts``) load too.
        """
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416 - explicit
        return cls(**{key: value for key, value in data.items() if key in known})
