"""``repro.selection2`` — decomposed, parallel, cache-backed Step 2.

The paper solves Step 2 as one monolithic weighted set-partitioning MIP
(§V-C, Eqs. 3–5).  This package replaces that with a scalable pipeline:

* :mod:`~repro.selection2.decompose` — split the program by connected
  components of the candidate-overlap graph;
* :mod:`~repro.selection2.presolve` — certified optimality-preserving
  reductions (duplicate merge, forced singleton fixing, dominated-group
  elimination);
* :mod:`~repro.selection2.portfolio` — one deterministic per-component
  backend policy: warm-started branch-and-bound with count-aware LP
  prices, HiGHS only when its node cap is hit, and a lex-min tie-break
  made cheap by reduced-cost fixing;
* :mod:`~repro.selection2.coordinate` — exact handling of the global
  Eq. 5 cardinality bounds across components (per-component Pareto
  fronts of (objective, #groups) merged by dynamic program);
* :mod:`~repro.selection2.pipeline` — the orchestration, with parallel
  component solving through the :mod:`repro.service` executors and a
  selection-artifact cache tier for constraint sweeps.

Selected via ``GeccoConfig(selection="decomposed")`` (the default);
``selection="monolithic"`` keeps the paper-literal single MIP.
"""

from repro.selection2.coordinate import merge_fronts
from repro.selection2.decompose import Component, decompose
from repro.selection2.pipeline import (
    DECOMPOSED_BACKENDS,
    DecomposedSelectionResult,
    component_cache_key,
    select_decomposed,
    solve_component_task,
)
from repro.selection2.portfolio import (
    ComponentSolution,
    choose_backend,
    greedy_incumbent,
    solve_component,
)
from repro.selection2.presolve import (
    PresolveOutcome,
    Reduction,
    presolve,
    verify_certificate,
)
from repro.selection2.stats import SelectionStats

__all__ = [
    "Component",
    "ComponentSolution",
    "DECOMPOSED_BACKENDS",
    "DecomposedSelectionResult",
    "PresolveOutcome",
    "Reduction",
    "SelectionStats",
    "choose_backend",
    "component_cache_key",
    "decompose",
    "greedy_incumbent",
    "merge_fronts",
    "presolve",
    "select_decomposed",
    "solve_component",
    "solve_component_task",
    "verify_certificate",
]
