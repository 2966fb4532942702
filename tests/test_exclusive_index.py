"""Alg. 3's signature index against the rescan it replaced.

:func:`rescan_merge` is the exclusive-merge pass as it was before the
signature index: every lookup rescans the whole, growing candidate set
for the groups with the same preset and postset.  It keeps that set in
an insertion-ordered dict seeded in the pass's ``(len, sorted)`` order,
so its matches come out in the order the index keeps and its output
does not depend on ``PYTHONHASHSEED``.  Presets and postsets come from
``DirectlyFollowsGraph.pre``/``post``, never from ``signature``.

The cells are the Table V collection (13 Table III logs at 50 traces
and 10 classes) under all ten constraint sets with DFGk, plus Exh on
:data:`EXH_LOGS`.  On every cell both engines' Alg. 3 must return the
oracle's candidates and counters.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.candidates import exhaustive_candidates
from repro.core.checker import GroupChecker
from repro.core.dfg_candidates import default_beam_width, dfg_candidates
from repro.core.encoding import (
    HAVE_NUMPY,
    CompiledDistanceFunction,
    CompiledInstanceIndex,
    CompiledLog,
)
from repro.core.exclusive import ExclusiveStats, merge_exclusive_candidates
from repro.datasets.collection import TABLE_III_SPECS, build_log
from repro.eventlog.dfg import compute_dfg
from repro.experiments.configs import ALL_SET_NAMES, constraint_set_for_log

pytestmark = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")

#: Logs whose Exh cells are checked as well, picked by candidate count
#: so that the quadratic oracle stays fast.
EXH_LOGS = ("bpic14", "wabo", "road_fines")


def rescan_merge(candidates, checker, dfg):
    """Alg. 3 with one full rescan of the candidate set per lookup."""
    stats = ExclusiveStats()
    ordered = sorted(candidates, key=lambda g: (len(g), sorted(g)))
    result = dict.fromkeys(ordered)
    neighborhoods: dict[frozenset[str], tuple] = {}

    def pre_post(group):
        if group not in neighborhoods:
            neighborhoods[group] = (dfg.pre(group), dfg.post(group))
        return neighborhoods[group]

    seen: set[frozenset[str]] = set()
    for group in ordered:
        if group in seen:
            continue
        equiv = [
            other
            for other in result
            if other != group and pre_post(other) == pre_post(group)
        ]
        equiv.append(group)
        pairs = [(a, b) for i, a in enumerate(equiv) for b in equiv[i + 1 :]]
        while pairs:
            group_i, group_j = pairs.pop()
            merged = group_i | group_j
            stats.pairs_checked += 1
            if merged in result or not dfg.exclusive(group_i, group_j):
                continue
            if not checker.holds_class_only(merged):
                continue
            result[merged] = None
            stats.merges_added += 1
            preset, postset = pre_post(group_i)
            for context in (preset | postset, preset, postset):
                if (context | group_i) in result and (context | group_j) in result:
                    extension = context | merged
                    if (
                        checker.holds_class_only(extension)
                        and extension not in result
                    ):
                        result[extension] = None
                        stats.extensions_added += 1
                    break
            pairs += [(merged, k) for k in equiv if k != group_i and k != group_j]
            equiv.append(merged)
        seen.update(equiv)
    return set(result), stats


def _counters(stats: ExclusiveStats) -> tuple[int, int, int]:
    return stats.pairs_checked, stats.merges_added, stats.extensions_added


@pytest.fixture(scope="module")
def table3_logs():
    return {
        spec.name: build_log(spec, max_traces=50, max_classes=10)
        for spec in TABLE_III_SPECS
    }


def _check_every_set(log, strategy: str) -> None:
    """Oracle checks on one log under every constraint set."""
    compiled = CompiledLog(log)
    index = CompiledInstanceIndex(log, compiled)
    distance = CompiledDistanceFunction(log, index)
    dfg = compute_dfg(log)
    for set_name in ALL_SET_NAMES:
        constraints = constraint_set_for_log(set_name, log)
        checker = GroupChecker(log, constraints, index)
        if strategy == "Exh":
            step1 = exhaustive_candidates(
                log, constraints, checker=checker, compiled=compiled
            )
        else:
            step1 = dfg_candidates(
                log,
                constraints,
                beam_width=default_beam_width(log),
                checker=checker,
                distance=distance,
                dfg=dfg,
                compiled=compiled,
            )
        expected, expected_stats = rescan_merge(step1.groups, checker, dfg)
        for engine_log in (None, compiled):
            merged, stats = merge_exclusive_candidates(
                log, step1.groups, checker, dfg, compiled=engine_log
            )
            assert merged == expected, (set_name, engine_log)
            assert _counters(stats) == _counters(expected_stats), set_name


@pytest.mark.parametrize("log_name", [spec.name for spec in TABLE_III_SPECS])
def test_dfgk_cells_match_rescan(table3_logs, log_name):
    _check_every_set(table3_logs[log_name], "DFGk")


@pytest.mark.parametrize("log_name", EXH_LOGS)
def test_exh_cells_match_rescan(table3_logs, log_name):
    _check_every_set(table3_logs[log_name], "Exh")


_BPIC14_CELL = """
import hashlib

from repro import Gecco, GeccoConfig
from repro.datasets.collection import TABLE_III_SPECS, build_log
from repro.experiments.configs import constraint_set_for_log
from repro.service.serialization import result_signature

spec = next(spec for spec in TABLE_III_SPECS if spec.name == "bpic14")
log = build_log(spec, max_traces=50, max_classes=10)
for set_name in ("A", "BL1"):
    for engine in ("compiled", "python"):
        config = GeccoConfig.dfg_adaptive(engine=engine)
        result = Gecco(constraint_set_for_log(set_name, log), config).abstract(log)
        digest = hashlib.sha256(result_signature(result).encode()).hexdigest()
        print(set_name, engine, result.num_candidates, digest[:16])
"""


def test_bpic14_dfgk_identical_under_hash_seeds():
    """Which Alg. 3 extensions land must not follow set iteration order."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    runs = []
    for seed in range(4):
        env = dict(os.environ, PYTHONHASHSEED=str(seed))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        runs.append(
            subprocess.Popen(
                [sys.executable, "-c", _BPIC14_CELL],
                env=env,
                stdout=subprocess.PIPE,
                text=True,
            )
        )
    outputs = [run.communicate(timeout=300)[0] for run in runs]
    assert [run.returncode for run in runs] == [0] * 4
    assert len(set(outputs)) == 1, outputs
    counts = {line.split()[0]: int(line.split()[2]) for line in outputs[0].splitlines()}
    assert counts == {"A": 176, "BL1": 147}
