"""End-to-end Step-2 optimality oracle on seeded generator logs.

For every seeded log (5–8 classes, 30 traces), every Table IV set and
both Step-1 strategies, the candidates come from the pure-Python Step 1
(``exhaustive_candidates`` or ``dfg_candidates``, then Alg. 3's
``merge_exclusive_candidates``).  An independent oracle enumerates every
exact cover of the class universe among them with plain set algebra,
applies the Eq. 5 group-count bounds, costs each cover with the
pure-Python Eq. 1 distances summed in sorted group order, and picks,
among the covers within ``1e-9`` of the optimum, the one whose sorted
candidate positions (global order: sorted member tuples) are
lexicographically smallest — the documented tie-break.

``Gecco.abstract`` must agree with it on both engines, both selection
modes and the ``auto``/``bnb``/``scipy`` solvers: the same feasibility,
the same groups and a bitwise-equal distance.  This checks Step 2 on the
candidates Step 1 returned, not Step 1's completeness.
"""

from __future__ import annotations

import pytest

from repro.core.checker import GroupChecker
from repro.core.candidates import exhaustive_candidates
from repro.core.dfg_candidates import dfg_candidates
from repro.core.distance import DistanceFunction
from repro.core.encoding import HAVE_NUMPY
from repro.core.exclusive import merge_exclusive_candidates
from repro.core.gecco import Gecco, GeccoConfig
from repro.core.instances import InstanceIndex
from repro.datasets import TreeSpec, enrich_log, playout, random_tree
from repro.eventlog.dfg import compute_dfg
from repro.experiments.configs import ALL_SET_NAMES, constraint_set_for_log
from repro.mip.scipy_backend import HAVE_SCIPY

#: ``(classes, seed)`` of the generator logs.
LOGS = ((5, 5), (6, 6), (7, 7), (8, 8))

#: ``(engine, selection, solver)`` cells checked per problem: both
#: selection modes with each exact backend on the compiled engine, the
#: decomposed portfolio (monolithic ``auto`` only picks one of the two
#: backends), and the default configuration on the pure-Python engine.
SOLVER_MATRIX = (
    ("compiled", "decomposed", "auto"),
    ("compiled", "decomposed", "bnb"),
    ("compiled", "decomposed", "scipy"),
    ("compiled", "monolithic", "bnb"),
    ("compiled", "monolithic", "scipy"),
    ("python", "decomposed", "auto"),
)

_LOG_CACHE: dict = {}


def _log(num_classes: int, seed: int):
    key = (num_classes, seed)
    if key not in _LOG_CACHE:
        _LOG_CACHE[key] = enrich_log(
            playout(random_tree(TreeSpec(num_classes), seed), 30, seed), seed=seed
        )
    return _LOG_CACHE[key]


def _reference_candidates(log, constraints, strategy: str) -> set[frozenset[str]]:
    """Step 1 plus Alg. 3 on the pure-Python engine."""
    index = InstanceIndex(log)
    checker = GroupChecker(log, constraints, index)
    dfg = compute_dfg(log)
    if strategy == "exhaustive":
        result = exhaustive_candidates(log, constraints, checker=checker)
    else:
        result = dfg_candidates(
            log,
            constraints,
            checker=checker,
            distance=DistanceFunction(log, index),
            dfg=dfg,
        )
    merged, _stats = merge_exclusive_candidates(
        log, set(result.groups), checker, dfg
    )
    return merged


def _exact_covers(universe, candidates):
    """Every exact cover of ``universe``, as ascending candidate positions."""
    containing = {
        cls: [p for p, group in enumerate(candidates) if cls in group]
        for cls in universe
    }

    def extend(uncovered, chosen):
        if not uncovered:
            yield tuple(sorted(chosen))
            return
        first = min(uncovered)
        for position in containing[first]:
            group = candidates[position]
            if group <= uncovered:
                yield from extend(uncovered - group, chosen + [position])

    yield from extend(frozenset(universe), [])


def oracle(log, constraints, candidates):
    """``(groups, distance)`` of the lex-min optimal cover, or ``None``."""
    ordered = sorted(candidates, key=sorted)
    distance = DistanceFunction(log)
    costs = [distance.group_distance(group) for group in ordered]
    low, high = constraints.min_groups, constraints.max_groups
    covers = [
        (sum(costs[p] for p in cover), cover)
        for cover in _exact_covers(log.classes, ordered)
        if (low is None or len(cover) >= low) and (high is None or len(cover) <= high)
    ]
    if not covers:
        return None
    optimum = min(cost for cost, _ in covers)
    cost, cover = min(
        ((cost, cover) for cost, cover in covers if cost <= optimum + 1e-9),
        key=lambda entry: entry[1],
    )
    return {ordered[p] for p in cover}, cost


@pytest.mark.parametrize("strategy", ["exhaustive", "dfg"])
@pytest.mark.parametrize("set_name", ALL_SET_NAMES)
@pytest.mark.parametrize("num_classes,seed", LOGS)
def test_pipeline_matches_the_cover_oracle(num_classes, seed, set_name, strategy):
    log = _log(num_classes, seed)
    constraints = constraint_set_for_log(set_name, log)
    expected = oracle(
        log, constraints, _reference_candidates(log, constraints, strategy)
    )
    for engine, selection, solver in SOLVER_MATRIX:
        if engine == "compiled" and not HAVE_NUMPY:
            continue
        if solver == "scipy" and not HAVE_SCIPY:
            continue
        cell = (engine, selection, solver)
        result = Gecco(
            constraints,
            GeccoConfig(
                strategy=strategy, engine=engine, selection=selection, solver=solver
            ),
        ).abstract(log)
        assert result.feasible == (expected is not None), cell
        if expected is None:
            continue
        groups, distance = expected
        assert set(result.grouping.groups) == groups, cell
        assert result.distance == distance, cell
