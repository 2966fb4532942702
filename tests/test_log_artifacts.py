"""A log's compiled artifacts as a derived view of the log.

On the compiled engine, :meth:`Gecco.abstract` keeps the compiled log,
the instance index and its Eq. 1 values on the ``EventLog`` it was
given, so later calls on that log object reuse them.  Every cached
value is a pure function of (log, group, policy); these tests hold the
shared run to a fresh one on ``log.copy()``, with the index's byte
budget forced low and after the edits a later call must see.  They
also pin how a log pickles: traces and attributes only.
"""

import copyreg
import io
import pickle
import random

import pytest

from repro.constraints import ConstraintSet, MaxDistinctClassAttribute, MaxGroupSize
from repro.core import encoding
from repro.core.encoding import HAVE_NUMPY
from repro.core.gecco import Gecco, GeccoConfig
from repro.datasets import running_example_log
from repro.datasets.collection import TABLE_III_SPECS, build_log
from repro.eventlog.events import ROLE_KEY, Event, EventLog, Trace
from repro.experiments.configs import ALL_SET_NAMES, constraint_set_for_log
from repro.service import LogRef
from repro.service.serialization import result_signature

pytestmark = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")

CONFIGS = {"Exh": GeccoConfig.exhaustive, "DFGk": GeccoConfig.dfg_adaptive}
POLICY_ROWS = [(policy, label) for policy in ("repeat", "none", "gap") for label in CONFIGS]


def _signature(log, set_name, config):
    constraints = constraint_set_for_log(set_name, log)
    return result_signature(Gecco(constraints, config).abstract(log))


def _shared_and_fresh(log, config, seed):
    """Signatures of all 10 sets on ``log`` itself and on fresh copies."""
    set_names = list(ALL_SET_NAMES)
    random.Random(seed).shuffle(set_names)
    shared = {name: _signature(log, name, config) for name in set_names}
    fresh = {name: _signature(log.copy(), name, config) for name in set_names}
    return shared, fresh


# -- shared artifacts equal fresh ones --------------------------------------

# Each Table III log meets one of the six (policy, strategy) pairs in
# turn, so each pair meets two or three logs; the full 78-row product
# takes about 20 s.  CI runs the whole ``repeat`` grid both ways.
GRID = [
    (spec, *POLICY_ROWS[index % len(POLICY_ROWS)])
    for index, spec in enumerate(TABLE_III_SPECS)
]


@pytest.mark.parametrize(
    "spec, policy, label",
    GRID,
    ids=[f"{spec.name}-{policy}-{label}" for spec, policy, label in GRID],
)
def test_shared_artifacts_equal_fresh(spec, policy, label):
    log = build_log(spec, max_traces=50, max_classes=6)
    config = CONFIGS[label](instance_policy=policy)
    shared, fresh = _shared_and_fresh(log, config, seed=spec.name)
    assert shared == fresh
    index = log._artifacts[policy].instance_index
    assert index.resets == 0 and index.eq1


@pytest.mark.parametrize(
    "policy, label, budget",
    [("repeat", "Exh", 2048), ("gap", "DFGk", 4096), ("none", "Exh", 1)],
)
def test_byte_budget_resets_keep_outputs(monkeypatch, policy, label, budget):
    monkeypatch.setattr(encoding, "_INDEX_BYTE_BUDGET", budget)
    prime = encoding.CompiledInstanceIndex.prime
    sizes = []

    def measured(index, groups):
        before, resets = index.nbytes, index.resets
        prime(index, groups)
        # ``nbytes`` is what the index kept (0 after a reset) plus this sweep.
        kept = 0 if index.resets > resets else before
        sizes.append((index.nbytes, kept))

    monkeypatch.setattr(encoding.CompiledInstanceIndex, "prime", measured)
    log = build_log(TABLE_III_SPECS[4], max_traces=50, max_classes=6)
    shared, fresh = _shared_and_fresh(log, CONFIGS[label](instance_policy=policy), 7)
    assert shared == fresh
    assert log._artifacts[policy].instance_index.resets > 0
    assert all(kept <= budget for _, kept in sizes)
    assert max(nbytes for nbytes, _ in sizes) > budget


# -- edits a later call sees ------------------------------------------------


def _append_event(cls):
    def edit(log):
        log[0].append(Event(cls, {ROLE_KEY: "clerk"}))

    return edit


def _append_trace(log):
    log.append(Trace([Event("zzz", {ROLE_KEY: "clerk"}), Event("acc")]))


def _read_classes(log):
    log.classes


def _abstract(log):
    return Gecco(
        ConstraintSet([MaxGroupSize(3), MaxDistinctClassAttribute(ROLE_KEY, 1)]),
        GeccoConfig.exhaustive(),
    ).abstract(log)


@pytest.mark.parametrize(
    "steps",
    [
        [_abstract, _append_event("zzz")],
        [_read_classes, _append_event("zzz")],
        [_abstract, _append_event("acc")],
        [_abstract, _append_trace],
        [_abstract, _append_event("zzz"), _abstract, _append_event("acc")],
    ],
    ids=[
        "new-class-after-call",
        "new-class-after-classes",
        "existing-class-after-call",
        "trace-after-call",
        "both-between-calls",
    ],
)
def test_later_call_sees_appends(steps):
    log = running_example_log()
    for step in steps:
        step(log)
    expected = result_signature(_abstract(log.copy()))
    assert result_signature(_abstract(log)) == expected


def test_python_engine_keeps_no_artifacts():
    log = running_example_log()
    config = GeccoConfig.exhaustive(engine="python")
    Gecco(ConstraintSet([MaxGroupSize(3)]), config).abstract(log)
    assert log._artifacts == {}


# -- pickling ---------------------------------------------------------------


class _SlotStatePickler(pickle.Pickler):
    """Pickles a log as ``object.__reduce_ex__`` did before ``__getstate__``:
    ``(None, {slot: value})`` with every derived view."""

    def reducer_override(self, obj):
        if type(obj) is not EventLog:
            return NotImplemented
        slots = {
            name: getattr(obj, name)
            for name in ("traces", "attributes", "_classes", "_class_counts",
                         "_traces_by_class", "_group_trace_sets")
        }
        return copyreg.__newobj__, (EventLog,), (None, slots)


def _parent_form(log):
    buffer = io.BytesIO()
    _SlotStatePickler(buffer, pickle.HIGHEST_PROTOCOL).dump(log)
    return buffer.getvalue()


@pytest.mark.parametrize("engine", ["compiled", "python"])
def test_pickled_size_ignores_derived_views(engine):
    log = build_log(TABLE_III_SPECS[1], max_traces=60, max_classes=8)
    before = len(pickle.dumps(log, pickle.HIGHEST_PROTOCOL))
    config = GeccoConfig.exhaustive(engine=engine)
    Gecco(ConstraintSet([MaxGroupSize(3)]), config).abstract(log)
    assert len(pickle.dumps(log, pickle.HIGHEST_PROTOCOL)) == before
    assert log._group_trace_sets or log._artifacts  # views were filled


def test_slot_state_pickles_still_load():
    log = running_example_log()
    log.traces_containing({"acc"})  # fill a view, as a used log had
    loaded = pickle.loads(_parent_form(log))
    assert loaded.traces == log.traces and loaded.attributes == log.attributes
    assert loaded._classes is None and loaded._artifacts == {}
    assert result_signature(_abstract(loaded)) == result_signature(_abstract(log))


def test_log_ref_digests_unchanged_by_pickling():
    log = running_example_log()
    digest = LogRef.inline(log).digest()
    _abstract(log)
    for copy in (
        log,
        pickle.loads(pickle.dumps(log)),
        pickle.loads(_parent_form(log)),
        pickle.loads(pickle.dumps(LogRef.inline(log))).resolve(),
    ):
        assert LogRef.inline(copy).digest() == digest
