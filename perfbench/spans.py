"""Spans around the public functions of each GECCO layer.

The traced benchmark run replaces the module-level public functions of
every layer with thin wrappers (:func:`traced`) that record one span per
call — ``{id, name, start, end, parent, thread, attrs}`` — in memory.
Nothing in ``src/`` changes: the wrappers sit at the layers' own call
boundaries, and counters are read only from what those calls take and
return (``CandidateStats``, the ``GroupChecker`` passed as ``checker=``,
the ``ExclusiveStats`` Alg. 3 returns, ``AbstractionResult.selection_stats``,
and ``lexmin_optimal_selection`` returning ``None``).

Spans opened on a thread other than the main one (the auto portfolio
canonicalizes on its race threads) take the main thread's innermost
open span as parent, so they stay inside their problem's tree.  Layer
seconds come from :func:`partition`, which splits each problem's wall
time into disjoint shares, innermost layer first: shares never go
negative and always sum to the problem's wall time, and the share no
span covers is reported as ``unattributed``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager

#: Layer name -> the public functions (``module:qualname``) it covers.
LAYER_FUNCTIONS = {
    "problem": ["repro.core.gecco:Gecco.abstract"],
    "artifacts": ["repro.core.gecco:prepare_artifacts"],
    "step1": [
        "repro.core.candidates:exhaustive_candidates",
        "repro.core.dfg_candidates:dfg_candidates",
    ],
    "alg3": ["repro.core.exclusive:merge_exclusive_candidates"],
    "step2": [
        "repro.selection2.pipeline:select_decomposed",
        "repro.core.selection:select_optimal_grouping",
    ],
    "step2.presolve": ["repro.selection2.presolve:presolve"],
    "step2.decompose": ["repro.selection2.decompose:decompose"],
    "step2.solve": ["repro.selection2.portfolio:solve_component"],
    "step2.canonicalize": ["repro.mip.branch_and_bound:lexmin_optimal_selection"],
    "step2.coordinate": ["repro.selection2.coordinate:merge_fronts"],
    "diagnose": ["repro.constraints.sets:ConstraintSet.diagnose"],
    "step3": ["repro.core.abstraction:abstract_log"],
}

#: Partition priority: a stretch of time covered by several spans is
#: charged to the first layer listed here (the innermost one).
PRIORITY = (
    "step2.canonicalize",
    "step2.solve",
    "step2.coordinate",
    "step2.decompose",
    "step2.presolve",
    "step2",
    "artifacts",
    "step1",
    "alg3",
    "diagnose",
    "step3",
)


def _step1_attrs(args, kwargs, result) -> dict:
    stats = result.stats
    attrs = {
        "groups_checked": stats.groups_checked,
        "subset_prunes": stats.subset_prunes,
        "candidates": len(result.groups),
        "timed_out": bool(stats.timed_out),
    }
    checker = kwargs.get("checker")
    if checker is not None:
        attrs["kernel_checks"] = checker.kernel_checks
        attrs["fallback_checks"] = checker.fallback_checks
        attrs["checks_performed"] = checker.checks_performed
    return attrs


def _alg3_attrs(args, kwargs, result) -> dict:
    _candidates, stats = result
    return {
        "pairs_checked": stats.pairs_checked,
        "merges_added": stats.merges_added,
        "extensions_added": stats.extensions_added,
    }


def _canonicalize_attrs(args, kwargs, result) -> dict:
    return {"aborted": result is None}


def _problem_attrs(args, kwargs, result) -> dict:
    attrs = {"feasible": bool(result.feasible)}
    stats = result.selection_stats
    if stats is not None:
        attrs.update(
            components=stats.num_components,
            nodes=stats.nodes,
            lp_bound_cuts=stats.lp_bound_cuts,
            races=stats.races,
            cache_hits=stats.cache_hits,
            cache_misses=stats.cache_misses,
        )
    return attrs


_ATTRS = {
    "problem": _problem_attrs,
    "step1": _step1_attrs,
    "alg3": _alg3_attrs,
    "step2.canonicalize": _canonicalize_attrs,
}


class SpanRecorder:
    """Thread-safe, in-memory span store."""

    def __init__(self):
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._ids = itertools.count(1)
        self._main = threading.main_thread().ident

    def open(self, name: str) -> dict:
        ident = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(ident, [])
            if stack:
                parent = stack[-1]
            else:
                main = self._stacks.get(self._main)
                parent = main[-1] if main and ident != self._main else None
            span = {
                "id": next(self._ids),
                "name": name,
                "parent": parent,
                "thread": threading.current_thread().name,
                "start": time.perf_counter(),
                "end": None,
                "attrs": {},
            }
            stack.append(span["id"])
            self.spans.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        with self._lock:
            self._stacks[threading.get_ident()].pop()

    def write(self, path) -> None:
        """Write every span as one JSON line, with its per-thread self time."""
        spans = settled(self.spans)
        selfs = self_times(spans)
        with open(path, "w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps({**span, "self": selfs[span["id"]]}) + "\n")


def settled(spans: list[dict]) -> list[dict]:
    """Spans with the still-open ones ending now, marked ``open``.

    When the auto portfolio's race is won by branch-and-bound, the
    HiGHS racer thread is abandoned and may still be canonicalizing
    after its problem returned.
    """
    now = time.perf_counter()
    return [
        span
        if span["end"] is not None
        else {**span, "end": now, "attrs": {**span["attrs"], "open": True}}
        for span in spans
    ]


def _wrap(recorder: SpanRecorder, name: str, function):
    extract = _ATTRS.get(name)

    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        span = recorder.open(name)
        try:
            result = function(*args, **kwargs)
        except BaseException as error:
            span["attrs"]["error"] = type(error).__name__
            raise
        finally:
            recorder.close(span)
        if extract is not None:
            span["attrs"].update(extract(args, kwargs, result))
        return result

    return wrapper


@contextmanager
def traced(recorder: SpanRecorder):
    """Wrap every layer function for the duration of the block.

    A module-level function is replaced in every ``repro`` module that
    binds it (``from x import f`` copies the binding), a method on its
    class.  Everything is restored on exit.
    """
    patches: list[tuple[object, str, object]] = []
    targets = []
    for name, functions in LAYER_FUNCTIONS.items():
        for target in functions:
            module_name, qualname = target.split(":")
            targets.append((name, importlib.import_module(module_name), qualname))
    try:
        for name, module, qualname in targets:
            if "." in qualname:
                class_name, attribute = qualname.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[attribute]
                patches.append((owner, attribute, original))
                setattr(owner, attribute, _wrap(recorder, name, original))
                continue
            original = getattr(module, qualname)
            wrapper = _wrap(recorder, name, original)
            for other in list(sys.modules.values()):
                other_name = getattr(other, "__name__", "") or ""
                if other_name != "repro" and not other_name.startswith("repro."):
                    continue
                for attribute, value in list(vars(other).items()):
                    if value is original:
                        patches.append((other, attribute, original))
                        setattr(other, attribute, wrapper)
        yield recorder
    finally:
        for owner, attribute, original in reversed(patches):
            setattr(owner, attribute, original)


# -- reduction -------------------------------------------------------------


def _union_length(intervals) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Per-span self time: duration minus same-thread children's union."""
    children: dict[int, list[tuple[float, float]]] = {}
    thread_of = {span["id"]: span["thread"] for span in spans}
    for span in spans:
        parent = span["parent"]
        if parent is not None and thread_of.get(parent) == span["thread"]:
            children.setdefault(parent, []).append((span["start"], span["end"]))
    return {
        span["id"]: (span["end"] - span["start"])
        - _union_length(children.get(span["id"], ()))
        for span in spans
    }


def partition(window: tuple[float, float], labelled) -> dict[str, float]:
    """Split ``window`` into disjoint per-label seconds.

    ``labelled`` holds ``(label, start, end)``; each stretch of the
    window goes to the covering label that comes first in
    :data:`PRIORITY`, and stretches no label covers to
    ``"unattributed"``.  The shares sum to the window's length.
    """
    low, high = window
    rank = {label: index for index, label in enumerate(PRIORITY)}
    cuts = {low, high}
    clipped = []
    for label, start, end in labelled:
        start, end = max(start, low), min(end, high)
        if end > start:
            clipped.append((rank[label], start, end))
            cuts.update((start, end))
    shares = {label: 0.0 for label in PRIORITY}
    shares["unattributed"] = 0.0
    points = sorted(cuts)
    for left, right in zip(points, points[1:]):
        middle = (left + right) / 2
        covering = [r for r, start, end in clipped if start <= middle < end]
        label = PRIORITY[min(covering)] if covering else "unattributed"
        shares[label] += right - left
    return shares


def problem_trees(spans: list[dict]) -> list[tuple[dict, list[dict]]]:
    """Group spans under the ``problem`` span each descends from."""
    by_id = {span["id"]: span for span in spans}
    trees: dict[int, list[dict]] = {}
    roots = []
    for span in spans:
        if span["name"] == "problem" and span["parent"] is None:
            roots.append(span)
            trees[span["id"]] = []
    for span in spans:
        node = span
        while node["parent"] is not None:
            node = by_id[node["parent"]]
        if node is not span and node["id"] in trees:
            trees[node["id"]].append(span)
    return [(root, trees[root["id"]]) for root in roots]


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer totals over every traced problem (seconds and counts)."""
    totals: dict[str, float] = {label: 0.0 for label in PRIORITY}
    totals["unattributed"] = 0.0
    counts = {
        "artifacts.calls": 0,
        "diagnose.calls": 0,
        "step1.groups_checked": 0,
        "step1.subset_prunes": 0,
        "step1.candidates": 0,
        "step1.timed_out": 0,
        "alg3.pairs_checked": 0,
        "alg3.merges_added": 0,
        "alg3.extensions_added": 0,
        "step2.components": 0,
        "step2.nodes": 0,
        "step2.lp_bound_cuts": 0,
        "step2.races": 0,
        "step2.canonical_aborts": 0,
    }
    kernel = fallback = cache_hits = cache_lookups = 0
    wall = canonicalize_busy = 0.0
    for root, members in problem_trees(settled(spans)):
        window = (root["start"], root["end"])
        wall += window[1] - window[0]
        shares = partition(
            window, [(span["name"], span["start"], span["end"]) for span in members]
        )
        for label, seconds in shares.items():
            totals[label] += seconds
        attrs = root["attrs"]
        counts["step2.components"] += attrs.get("components", 0)
        counts["step2.nodes"] += attrs.get("nodes", 0)
        counts["step2.lp_bound_cuts"] += attrs.get("lp_bound_cuts", 0)
        counts["step2.races"] += attrs.get("races", 0)
        cache_hits += attrs.get("cache_hits", 0)
        cache_lookups += attrs.get("cache_hits", 0) + attrs.get("cache_misses", 0)
        for span in members:
            name, span_attrs = span["name"], span["attrs"]
            if name == "artifacts":
                counts["artifacts.calls"] += 1
            elif name == "diagnose":
                counts["diagnose.calls"] += 1
            elif name == "step1":
                for key in ("groups_checked", "subset_prunes", "candidates"):
                    counts[f"step1.{key}"] += span_attrs.get(key, 0)
                counts["step1.timed_out"] += int(span_attrs.get("timed_out", False))
                kernel += span_attrs.get("kernel_checks", 0)
                fallback += span_attrs.get("fallback_checks", 0)
            elif name == "alg3":
                for key in ("pairs_checked", "merges_added", "extensions_added"):
                    counts[f"alg3.{key}"] += span_attrs.get(key, 0)
            elif name == "step2.canonicalize":
                canonicalize_busy += min(span["end"], window[1]) - max(
                    span["start"], window[0]
                )
                counts["step2.canonical_aborts"] += int(span_attrs.get("aborted", False))
    step2_total = sum(
        seconds for label, seconds in totals.items() if label.startswith("step2")
    )
    metrics = {
        "artifacts.s": totals["artifacts"],
        "step1.s": totals["step1"],
        "step1.kernel_share": kernel / (kernel + fallback) if kernel + fallback else 0.0,
        "alg3.s": totals["alg3"],
        "step2.s": step2_total,
        "step2.presolve.s": totals["step2.presolve"],
        "step2.decompose.s": totals["step2.decompose"],
        "step2.solve.s": totals["step2.solve"],
        "step2.canonicalize.s": totals["step2.canonicalize"],
        "step2.canonicalize.busy_s": canonicalize_busy,
        "step2.coordinate.s": totals["step2.coordinate"],
        "step2.self.s": totals["step2"],
        "step2.cache_hit_share": cache_hits / cache_lookups if cache_lookups else 0.0,
        "diagnose.s": totals["diagnose"],
        "step3.s": totals["step3"],
        "unattributed.s": totals["unattributed"],
        "unattributed_share": totals["unattributed"] / wall if wall else 0.0,
        "traced_wall.s": wall,
    }
    metrics.update(counts)
    return metrics


def nesting_errors(spans: list[dict]) -> list[str]:
    """Spans that end outside their same-thread parent, or lost their parent.

    A span still open on the main thread is an error; one still open on
    an abandoned race thread is not, and is not checked further.
    """
    main = threading.main_thread().name
    by_id = {span["id"]: span for span in spans}
    errors = []
    for span in spans:
        if span["end"] is None:
            if span["thread"] == main:
                errors.append(f"span {span['id']} ({span['name']}) never closed")
            continue
        parent_id = span["parent"]
        if parent_id is None:
            if span["name"] != "problem":
                errors.append(f"span {span['id']} ({span['name']}) has no parent")
            continue
        parent = by_id.get(parent_id)
        if parent is None:
            errors.append(f"span {span['id']} ({span['name']}) lost parent {parent_id}")
        elif parent["thread"] == span["thread"] and not (
            parent["start"] <= span["start"] <= span["end"] <= parent["end"]
        ):
            errors.append(
                f"span {span['id']} ({span['name']}) escapes parent "
                f"{parent_id} ({parent['name']})"
            )
        elif span["start"] < parent["start"]:
            errors.append(
                f"span {span['id']} ({span['name']}) starts before parent {parent_id}"
            )
    return errors
