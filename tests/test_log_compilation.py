"""Identity tests for compiling a log without per-event loops.

:class:`~repro.core.encoding.CompiledLog` walks the events once and
derives everything else on arrays: the repeat flags and trace bitsets
from one sort, the DFG from the class-ID buffer, every attribute column
from one comprehension over the flat attribute dicts, and the
``repeat`` policy's instance split from a next-repeat search with
pointer jumps.  Each is checked here against the per-event / per-hit
loop it replaced, kept below as the reference, and against
:func:`~repro.eventlog.dfg.compute_dfg` and
:func:`~repro.core.instances.instances_in_log`.
"""

import itertools
import random
from collections import Counter
from datetime import datetime, timedelta, timezone

import pytest

from repro.core.encoding import HAVE_NUMPY, CompiledInstanceIndex, CompiledLog
from repro.core.instances import instances_in_log
from repro.datasets.collection import TABLE_III_SPECS, build_log
from repro.eventlog.dfg import compute_dfg
from repro.eventlog.events import TIMESTAMP_KEY, Event, EventLog, Trace

pytestmark = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")

if HAVE_NUMPY:
    import numpy as np


def _log(*variants):
    return EventLog([Trace([Event(cls) for cls in variant]) for variant in variants])


def _random_log(rng, alphabet, max_traces=12, max_length=30):
    return EventLog(
        [
            Trace([Event(rng.choice(alphabet)) for _ in range(rng.randint(0, max_length))])
            for _ in range(rng.randint(0, max_traces))
        ]
    )


# -- the per-event and per-hit loops the arrays replaced ------------------


def _reference_tables(compiled):
    """``_event_repeats`` and ``class_trace_bits``, built trace by trace."""
    flags = []
    bits = [0] * compiled.num_classes
    for trace_index, trace in enumerate(compiled.log):
        ids = [compiled.class_to_id[event.event_class] for event in trace]
        occurrences = Counter(ids)
        flags.extend(occurrences[class_id] > 1 for class_id in ids)
        for class_id in set(ids):
            bits[class_id] |= 1 << trace_index
    return flags, bits


def _seen_set_boundaries(compiled, seg_change, repeat_candidates, event_idx):
    """The ``repeat`` split as a seen-set walk over each dirty segment."""
    boundaries = seg_change.copy()
    seg_index = np.cumsum(seg_change) - 1
    seg_starts = np.flatnonzero(seg_change)
    seg_ends = np.append(seg_starts[1:], seg_change.size)
    class_list = compiled.all_ids[event_idx].tolist()
    for seg in np.unique(seg_index[repeat_candidates]).tolist():
        seen = 0
        for hit in range(int(seg_starts[seg]), int(seg_ends[seg])):
            bit = 1 << class_list[hit]
            if seen & bit:
                boundaries[hit] = True
                seen = 0
            seen |= bit
    return boundaries


def _events(log):
    for trace in log:
        yield from trace


def _reference_numeric(log, key):
    total = log.event_count
    values = np.zeros(total)
    mask = np.zeros(total, dtype=bool)
    try:
        for index, event in enumerate(_events(log)):
            value = event.attributes.get(key)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            values[index] = float(value)
            mask[index] = True
    except (OverflowError, ValueError):
        return None
    return values, mask


def _reference_presence(log, key):
    return np.array([key in event.attributes for event in _events(log)], dtype=bool)


def _reference_codes(log, key):
    total = log.event_count
    codes = np.zeros(total, dtype=np.int64)
    mask = np.zeros(total, dtype=bool)
    interned = {}
    try:
        for index, event in enumerate(_events(log)):
            if key not in event.attributes:
                continue
            codes[index] = interned.setdefault(event.attributes[key], len(interned))
            mask[index] = True
    except TypeError:
        return None
    return codes, mask, len(interned)


def _reference_timestamps(log):
    total = log.event_count
    us = np.zeros(total, dtype=np.int64)
    mask = np.zeros(total, dtype=bool)
    objects = [None] * total
    epoch = None
    foreign = False
    for index, event in enumerate(_events(log)):
        value = event.attributes.get(TIMESTAMP_KEY)
        if not isinstance(value, datetime):
            if value is not None:
                foreign = True
            continue
        aware = value.tzinfo is not None
        if epoch is None:
            epoch = datetime(1970, 1, 1, tzinfo=timezone.utc) if aware else datetime(1970, 1, 1)
        elif aware != (epoch.tzinfo is not None):
            return None
        delta = value - epoch
        us[index] = (delta.days * 86400 + delta.seconds) * 10**6 + delta.microseconds
        mask[index] = True
        objects[index] = value
    return us, mask, objects, foreign


def _recount_index_bytes(index):
    """A full walk over the buffers the cached summaries keep."""
    buffers = {}
    for stats in index._stats_cache.values():
        for name in ("hit_ids", "starts", "counts", "distincts"):
            array = getattr(stats, name)
            while isinstance(array.base, np.ndarray):
                array = array.base
            buffers[id(array)] = array.nbytes
    return sum(buffers.values())


# -- encoding tables ------------------------------------------------------


@pytest.mark.parametrize(
    "log",
    [
        EventLog([]),
        _log([]),
        _log([], ["a", "b", "a"], [], [], ["b"], []),
        _log(["a"], ["a", "a", "a"], ["b", "a", "b", "c"]),
        _log(*(["a", "b"] if t % 3 else ["b", "b"] for t in range(70))),
        _log(*([] if t % 5 == 0 else ["x", "y", "x"][: t % 4] for t in range(130))),
    ],
    ids=["no-traces", "one-empty-trace", "empty-traces", "repeats", "70-traces", "130-traces"],
)
def test_repeat_flags_and_trace_bitsets_match_per_trace_construction(log):
    compiled = CompiledLog(log)
    flags, bits = _reference_tables(compiled)
    assert compiled._event_repeats.tolist() == flags
    assert compiled.class_trace_bits == bits
    assert compiled.all_ids.size == len(flags) == log.event_count


def test_tables_match_on_random_logs():
    rng = random.Random(2101)
    for _ in range(150):
        alphabet = "abcdefgh"[: rng.randint(1, 8)]
        compiled = CompiledLog(_random_log(rng, alphabet, max_traces=90, max_length=8))
        flags, bits = _reference_tables(compiled)
        assert compiled._event_repeats.tolist() == flags
        assert compiled.class_trace_bits == bits


# -- the DFG --------------------------------------------------------------


def _assert_dfg_identical(log):
    compiled = CompiledLog(log).dfg()
    reference = compute_dfg(log)
    assert compiled.nodes == reference.nodes
    for field in ("edge_counts", "start_counts", "end_counts"):
        assert list(getattr(compiled, field).items()) == list(
            getattr(reference, field).items()
        ), field


@pytest.mark.parametrize(
    "variants",
    [
        [],
        [[]],
        [[], ["a", "b"], ["b", "c"]],
        [["a", "b"], ["b", "c"], []],
        [["a", "b"], [], [], ["c", "a"], [], []],
        [["a"], ["b"], ["a"]],
        [["a", "a", "a"], ["b", "b"], ["a", "b", "b", "a"]],
        [["a", "b", "c"], ["d"], ["c", "b", "a"], ["d"]],
    ],
    ids=[
        "empty-log",
        "one-empty-trace",
        "leading-empty",
        "trailing-empty",
        "consecutive-empty",
        "single-event-traces",
        "self-loops",
        "class-only-in-single-event-traces",
    ],
)
def test_dfg_matches_compute_dfg(variants):
    _assert_dfg_identical(_log(*variants))


@pytest.mark.parametrize("spec", TABLE_III_SPECS, ids=lambda spec: spec.name)
def test_dfg_matches_compute_dfg_on_table_iii_logs(spec):
    _assert_dfg_identical(build_log(spec, max_traces=50))


def test_dfg_is_built_once():
    compiled = CompiledLog(_log(["a", "b"]))
    assert compiled.dfg() is compiled.dfg()


# -- attribute columns ----------------------------------------------------

_UTC = timezone.utc
_PLUS_5 = timezone(timedelta(hours=5, minutes=30))
_MINUS_8 = timezone(timedelta(hours=-8))


class _Stamp(datetime):
    """A ``datetime`` subclass (as some loaders produce)."""


def _stamped_log(stamps):
    """One event per stamp; ``None`` omits the attribute.

    Stamps are set after construction, so naive ``datetime`` values
    survive ``Event``'s normalization.
    """
    events = []
    for index, stamp in enumerate(stamps):
        event = Event("abc"[index % 3])
        if stamp is not None:
            event.attributes[TIMESTAMP_KEY] = stamp
        events.append(event)
    return EventLog([Trace(events[:2]), Trace([]), Trace(events[2:])])


@pytest.mark.parametrize(
    "stamps",
    [
        [],
        [datetime(2022, 5, 10, 12, 0, 0, 123456, tzinfo=_UTC)] * 4,
        [datetime(2022, 5, 10, 12, minute, tzinfo=_PLUS_5) for minute in range(5)],
        [datetime(2022, 5, 10, tzinfo=_MINUS_8), datetime(2022, 5, 10, tzinfo=_UTC)],
        [datetime(1900, 1, 1, 0, 0, 0, 1), datetime(1969, 12, 31, 23, 59, 59, 999999)],
        [datetime(1, 1, 1, tzinfo=_UTC), datetime(9999, 12, 31, 23, 59, 59, 999999, tzinfo=_UTC)],
        [datetime(2022, 1, 1), None, datetime(2022, 1, 2), None],
        [datetime(2022, 1, 1), datetime(2022, 1, 1, tzinfo=_UTC)],
        [None, datetime(2022, 1, 1, tzinfo=_UTC), "not a date", datetime(2022, 1, 2)],
        [datetime(2022, 1, 1, tzinfo=_UTC), "not a date", 17, None],
        ["not a date", ["a", "list"]],
        [None, None, None],
        [_Stamp(2022, 1, 1, tzinfo=_UTC), datetime(2022, 1, 2, tzinfo=_UTC)],
    ],
    ids=[
        "no-events",
        "aware-utc",
        "non-utc-offset",
        "mixed-offsets",
        "naive-pre-1970",
        "aware-extremes",
        "naive-with-missing",
        "mixed-naive-aware",
        "mixed-with-foreign",
        "aware-with-foreign",
        "only-foreign",
        "only-missing",
        "datetime-subclass",
    ],
)
def test_timestamps_match_the_event_loop(stamps):
    log = _stamped_log(stamps)
    column = CompiledLog(log).columns().timestamps()
    reference = _reference_timestamps(log)
    if reference is None:
        assert column is None
        return
    us, mask, objects, foreign = reference
    assert column.us.tolist() == us.tolist()
    assert column.mask.tolist() == mask.tolist()
    assert len(column.objects) == len(objects)
    assert all(a is b for a, b in zip(column.objects, objects))
    assert column.has_foreign_stamps == foreign


def _valued_log(values):
    """One event per value under key ``"k"``; a ``_MISSING`` entry omits it."""
    events = [
        Event("ab"[index % 2], {} if value is _MISSING else {"k": value, "other": index})
        for index, value in enumerate(values)
    ]
    return EventLog([Trace(events[:1]), Trace(events[1:])])


_MISSING = object()


@pytest.mark.parametrize(
    "values",
    [
        [],
        [1.5, 2, -3.25, 0],
        [True, False, 1, 0.5],
        [10**400, 1.0],
        [2**70, -(2**80), 3],
        [np.float64(0.1), np.int64(7), 2] if HAVE_NUMPY else [],
        [float("nan"), float("inf"), -float("inf"), 1.0],
        ["x", 1, "x", 1.0, True, None],
        [None, _MISSING, 4, None, _MISSING],
        [[1, 2], 3],
        [(1, 2), (1, 2), frozenset({1}), 1],
        [{"a": 1}, _MISSING],
        [_MISSING, _MISSING],
    ],
    ids=[
        "no-events",
        "plain-numbers",
        "bools",
        "int-beyond-float",
        "big-ints-in-range",
        "numpy-scalars",
        "non-finite",
        "mixed-types",
        "none-and-missing",
        "unhashable-list",
        "hashable-containers",
        "unhashable-dict",
        "all-missing",
    ],
)
def test_columns_match_the_event_loops(values):
    log = _valued_log(values)
    columns = CompiledLog(log).columns()

    numeric = columns.numeric("k")
    reference = _reference_numeric(log, "k")
    if reference is None:
        assert numeric is None
    else:
        # Bitwise, so NaN values compare too.
        assert numeric.values.tobytes() == reference[0].tobytes()
        assert numeric.mask.tolist() == reference[1].tolist()

    assert columns.presence("k").tolist() == _reference_presence(log, "k").tolist()

    codes = columns.codes("k")
    reference = _reference_codes(log, "k")
    if reference is None:
        assert codes is None
    else:
        assert codes.codes.tolist() == reference[0].tolist()
        assert codes.mask.tolist() == reference[1].tolist()
        assert codes.num_codes == reference[2]


@pytest.mark.parametrize("spec", TABLE_III_SPECS[:4], ids=lambda spec: spec.name)
def test_columns_match_the_event_loops_on_table_iii_logs(spec):
    log = build_log(spec, max_traces=50)
    columns = CompiledLog(log).columns()
    keys = sorted({key for event in _events(log) for key in event.attributes})
    for key in keys:
        reference = _reference_numeric(log, key)
        numeric = columns.numeric(key)
        assert (numeric is None) == (reference is None), key
        if numeric is not None:
            assert numeric.values.tobytes() == reference[0].tobytes(), key
        assert columns.presence(key).tolist() == _reference_presence(log, key).tolist()
        reference = _reference_codes(log, key)
        codes = columns.codes(key)
        assert (codes is None) == (reference is None), key
        if codes is not None:
            assert codes.codes.tolist() == reference[0].tolist(), key
    stamps = columns.timestamps()
    us, mask, objects, foreign = _reference_timestamps(log)
    assert stamps.us.tolist() == us.tolist() and stamps.mask.tolist() == mask.tolist()
    assert stamps.objects == objects and stamps.has_foreign_stamps == foreign


# -- the ``repeat`` split -------------------------------------------------


def _checked_sweeps(compiled):
    """Make ``compiled`` compare every ``repeat`` split with the walk."""
    split = compiled._repeat_boundaries
    checked = []

    def compare(seg_change, repeat_candidates, has_repeats, event_idx):
        boundaries = split(seg_change, repeat_candidates, has_repeats, event_idx)
        if has_repeats:
            expected = _seen_set_boundaries(
                compiled, seg_change, repeat_candidates, event_idx
            )
        else:
            expected = seg_change
        assert boundaries.tolist() == expected.tolist()
        checked.append(has_repeats)
        return boundaries

    compiled._repeat_boundaries = compare
    return checked


def _assert_split_identical(log, groups):
    compiled = CompiledLog(log)
    checked = _checked_sweeps(compiled)
    for group, stats in zip(groups, compiled.stats_batch(groups, "repeat")):
        assert stats.pairs() == instances_in_log(log, group, policy="repeat"), sorted(group)
        starts, counts = stats.segments()
        assert starts.tolist() == (np.cumsum(counts) - counts).tolist()
    return checked


def _all_groups(classes, extra=()):
    groups = [
        frozenset(combo)
        for size in range(1, len(classes) + 1)
        for combo in itertools.combinations(classes, size)
    ]
    return groups + [frozenset(group) for group in extra]


def _random_logs():
    """The 120 seeded random logs, each with all groups of its alphabet."""
    rng = random.Random(2102)
    for _ in range(120):
        alphabet = "abcdefgh"[: rng.randint(1, 8)]
        log = _random_log(rng, alphabet)
        yield log, _all_groups(alphabet, extra=[{"a", "zz"}, {"zz"}])


def test_repeat_split_matches_the_walk_on_random_logs():
    repeats_seen = 0
    for log, groups in _random_logs():
        repeats_seen += sum(_assert_split_identical(log, groups))
    assert repeats_seen > 50


@pytest.mark.parametrize(
    "variants, groups",
    [
        ([["a", "b"] * 150], [{"a"}, {"a", "b"}, {"b"}]),
        ([["a", "b", "a", "c"] * 60, ["c"] * 250], [{"a", "b"}, {"c"}, {"a", "b", "c"}]),
        ([["a"] * 5, [], ["b", "a", "b", "a"]], [{"a", "foreign"}, {"a", "b", "foreign"}]),
        ([["a", "b", "c"], ["c", "b", "a", "a"]], [{"a", "b", "c"}, {"b"}]),
    ],
    ids=["300-hit-segment", "deep-and-shallow", "foreign-classes", "no-deep-repeats"],
)
def test_repeat_split_matches_the_walk(variants, groups):
    groups = [frozenset(group) for group in groups]
    assert any(_assert_split_identical(_log(*variants), groups))


def test_repeat_split_beyond_64_classes():
    rng = random.Random(2103)
    alphabet = [f"c{index:02d}" for index in range(70)]
    log = EventLog(
        [
            Trace([Event(rng.choice(alphabet[: rng.choice([5, 70])])) for _ in range(40)])
            for _ in range(25)
        ]
    )
    groups = [frozenset(rng.sample(alphabet, rng.randint(1, 30))) for _ in range(60)]
    groups += [frozenset(alphabet[:5]), frozenset(alphabet)]
    assert any(_assert_split_identical(log, groups))


# -- derived summary arrays -----------------------------------------------


def _sweep_formulas(compiled, stats):
    """The arrays the detection sweep built per group before they were
    derived: gathers of the per-event tables at every hit, read at the
    instance boundaries, on int64 throughout."""
    hits = stats.hit_ids.astype(np.int64)
    starts = stats.starts.astype(np.int64)
    counts = stats.counts.astype(np.int64)
    local = compiled._local_of_event[hits]
    firsts = local[starts]
    lasts = local[starts + counts - 1]
    return {
        "trace_ids": compiled._trace_of_event[hits][starts],
        "firsts": firsts,
        "lasts": lasts,
        "positions": local,
        "cohesion": np.where(counts >= 2, lasts - firsts + 1 - counts, 0) / counts,
    }


@pytest.mark.parametrize("policy", ["repeat", "none", "gap"])
def test_derived_arrays_match_the_sweep_formulas(policy):
    split_distincts = 0
    for log, groups in _random_logs():
        compiled = CompiledLog(log)
        for group, stats in zip(groups, compiled.stats_batch(groups, policy)):
            for name, expected in _sweep_formulas(compiled, stats).items():
                derived = getattr(stats, name)
                assert derived.dtype == expected.dtype, name
                assert derived.tobytes() == expected.tobytes(), (name, sorted(group))
            split_distincts += stats.distincts is not stats.counts
    assert (split_distincts > 0) == (policy != "repeat")


def test_summaries_widen_to_int64_past_two_billion_events():
    log = build_log(TABLE_III_SPECS[2], max_traces=40)
    groups = _all_groups(sorted(log.classes)[:6])
    narrow = CompiledLog(log)
    wide = CompiledLog(log)
    wide._index_dtype = np.int64  # what a log of 2**31 events or more gets
    for small, large in zip(narrow.stats_batch(groups, "gap"), wide.stats_batch(groups, "gap")):
        assert small.hit_ids.dtype.name == "int32" and large.hit_ids.dtype.name == "int64"
        assert small.pairs() == large.pairs()
        assert small.distinct_list() == large.distinct_list()
        assert small.cohesion.tobytes() == large.cohesion.tobytes()


# -- byte accounting ------------------------------------------------------


def test_index_byte_count_equals_a_full_recount():
    log = build_log(TABLE_III_SPECS[0], max_traces=60)
    index = CompiledInstanceIndex(log)
    classes = sorted(log.classes)
    assert index.nbytes == 0
    index.prime([frozenset(pair) for pair in itertools.combinations(classes[:5], 2)])
    index.stats(frozenset(classes[:3]))
    index.stats(frozenset(classes[:3]))  # cached: no new sweep
    index.prime([frozenset({classes[0]}), frozenset({"foreign"})])
    for group in list(index._stats_cache):
        index.stats(group).segments()
    assert index.nbytes == _recount_index_bytes(index) > 0


def test_compiled_log_bytes_count_the_columns():
    log = build_log(TABLE_III_SPECS[1], max_traces=60)
    compiled = CompiledLog(log)
    base = compiled.nbytes
    assert base >= compiled.all_ids.nbytes + 8 * len(compiled.events)
    columns = compiled.columns()
    stamps = columns.timestamps()
    key = next(
        key
        for key in sorted({key for event in compiled.events for key in event.attributes})
        if columns.numeric(key) is not None
    )
    numeric = columns.numeric(key)
    grown = compiled.nbytes - base
    assert grown >= (
        stamps.us.nbytes
        + stamps.mask.nbytes
        + 8 * len(stamps.objects)
        + numeric.values.nbytes
        + numeric.mask.nbytes
    )
