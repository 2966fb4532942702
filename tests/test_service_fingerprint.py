"""Fingerprints: canonical JSON, log digests, job content addresses."""

import json
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.constraints import ConstraintSet, MaxGroupSize
from repro.constraints.parser import constraint_to_spec, parse_constraint
from repro.core.gecco import GeccoConfig
from repro.datasets import running_example_log
from repro.exceptions import ReproError
from repro.service import AbstractionJob, LogRef
from repro.service.fingerprint import canonical_json, log_digest
from repro.service.jobs import config_from_dict, config_to_dict

SPEC_SAMPLES = [
    {"type": "max_groups", "bound": 4},
    {"type": "min_groups", "bound": 2},
    {"type": "exact_groups", "count": 3},
    {"type": "max_group_size", "bound": 8},
    {"type": "min_group_size", "bound": 1},
    {"type": "cannot_link", "class_a": "a", "class_b": "b"},
    {"type": "must_link", "class_a": "a", "class_b": "b"},
    {"type": "max_distinct_class_attribute", "key": "org:role", "bound": 1},
    {"type": "min_distinct_class_attribute", "key": "org:role", "bound": 1},
    {"type": "required_classes", "allowed": ["a", "b", "c"]},
    {"type": "max_instance_aggregate", "key": "cost", "how": "sum", "threshold": 500.0},
    {"type": "min_instance_aggregate", "key": "cost", "how": "sum", "threshold": 1.0},
    {"type": "max_distinct_instance_attribute", "key": "org:role", "bound": 3},
    {"type": "min_distinct_instance_attribute", "key": "doc", "bound": 2},
    {"type": "max_instance_duration", "seconds": 600.0},
    {"type": "min_instance_duration", "seconds": 1.0},
    {"type": "max_consecutive_gap", "seconds": 60.0},
    {"type": "max_events_per_class", "bound": 2},
    {"type": "min_events_per_class", "bound": 1, "classes": ["a", "b"]},
    {
        "type": "max_instance_aggregate",
        "key": "cost",
        "how": "sum",
        "threshold": 500.0,
        "fraction": 0.95,
    },
]


class TestCanonicalJson:
    def test_key_order_irrelevant(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_whitespace_free(self):
        rendered = canonical_json({"a": [1, 2], "b": "x"})
        assert " " not in rendered

    def test_sets_ordered(self):
        assert canonical_json(frozenset("cab")) == '["a","b","c"]'

    def test_unknown_objects_hashable(self):
        rendered = canonical_json({"x": object})
        assert rendered.startswith('{"x":{"$repr"')


class TestLogDigest:
    def test_equal_content_equal_digest(self):
        assert log_digest(running_example_log()) == log_digest(running_example_log())

    def test_content_changes_digest(self, running_log):
        mutated = running_log.copy()
        mutated[0][0].attributes["extra"] = 1
        assert log_digest(mutated) != log_digest(running_log)


class TestConstraintSpecs:
    @pytest.mark.parametrize("spec", SPEC_SAMPLES, ids=lambda s: s["type"])
    def test_spec_round_trip(self, spec):
        constraint = parse_constraint(spec)
        rebuilt_spec = constraint_to_spec(constraint)
        # Round-trips to an equivalent constraint with an identical spec.
        assert constraint_to_spec(parse_constraint(rebuilt_spec)) == rebuilt_spec
        for key, value in spec.items():
            assert rebuilt_spec[key] == value


class TestConstraintSetCanonicalJson:
    def test_shuffled_orders_identical_json(self):
        constraints = [parse_constraint(spec) for spec in SPEC_SAMPLES]
        reference = ConstraintSet(list(constraints)).to_json()
        rng = random.Random(7)
        for _ in range(5):
            shuffled = list(constraints)
            rng.shuffle(shuffled)
            assert ConstraintSet(shuffled).to_json() == reference

    def test_whitespace_stable(self):
        text = ConstraintSet(
            [parse_constraint({"type": "max_group_size", "bound": 3})]
        ).to_json()
        assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":"))

    def test_json_round_trip(self):
        original = ConstraintSet([parse_constraint(spec) for spec in SPEC_SAMPLES])
        rebuilt = ConstraintSet.from_json(original.to_json())
        assert rebuilt.to_json() == original.to_json()
        assert len(rebuilt) == len(original)


class TestJobFingerprint:
    def _job(self, shuffle_seed=None, config=None):
        specs = [
            {"type": "max_group_size", "bound": 8},
            {"type": "max_groups", "bound": 4},
            {"type": "cannot_link", "class_a": "rcp", "class_b": "as"},
        ]
        if shuffle_seed is not None:
            random.Random(shuffle_seed).shuffle(specs)
        return AbstractionJob(
            log=LogRef.builtin("running_example"),
            constraints=ConstraintSet([parse_constraint(s) for s in specs]),
            config=config or GeccoConfig(),
        )

    def test_constraint_order_irrelevant(self):
        assert self._job(1).fingerprint() == self._job(2).fingerprint()

    def test_partial_config_equals_full_default(self):
        partial = config_from_dict({"strategy": "dfg"})
        assert (
            self._job(config=partial).fingerprint()
            == self._job(config=GeccoConfig()).fingerprint()
        )

    def test_config_changes_fingerprint(self):
        a = self._job(config=GeccoConfig(beam_width=3)).fingerprint()
        b = self._job(config=GeccoConfig(beam_width=4)).fingerprint()
        assert a.log == b.log and a.constraints == b.constraints
        assert a.config != b.config and a.full != b.full

    def test_log_prefix_shared_across_constraint_sets(self):
        base = self._job(1).fingerprint()
        other = AbstractionJob(
            log=LogRef.builtin("running_example"),
            constraints=ConstraintSet(
                [parse_constraint({"type": "max_group_size", "bound": 2})]
            ),
        ).fingerprint()
        assert base.log == other.log
        assert base.full != other.full
        assert base.artifact_key("repeat", "compiled") == other.artifact_key(
            "repeat", "compiled"
        )

    def test_stable_across_processes(self):
        """The content address survives a fresh interpreter (new hash seed)."""
        script = (
            "from repro.service import AbstractionJob, LogRef\n"
            "from repro.constraints.parser import parse_constraints\n"
            "from repro.core.gecco import GeccoConfig\n"
            "job = AbstractionJob(log=LogRef.builtin('running_example'),\n"
            "    constraints=parse_constraints([\n"
            "        {'type': 'max_groups', 'bound': 4},\n"
            "        {'type': 'max_group_size', 'bound': 8},\n"
            "        {'type': 'cannot_link', 'class_a': 'rcp', 'class_b': 'as'},\n"
            "    ]), config=GeccoConfig())\n"
            "print(job.fingerprint().full)\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        outputs = set()
        for seed in ("0", "4242"):
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env={"PYTHONPATH": src, "PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin"},
                check=True,
            )
            outputs.add(proc.stdout.strip())
        assert outputs == {self._job().fingerprint().full}


class TestLogRef:
    def test_unknown_builtin_rejected(self):
        with pytest.raises(ReproError):
            LogRef.builtin("no_such_log")

    def test_from_spec_distinguishes_kinds(self, tmp_path):
        assert LogRef.from_spec("loan:40").kind == "builtin"
        assert LogRef.from_spec(str(tmp_path / "x.xes")).kind == "path"
        with pytest.raises(ReproError):
            LogRef.from_spec("mystery")

    def test_path_digest_matches_inline(self, tmp_path, running_log):
        from repro.eventlog import xes

        target = tmp_path / "log.xes"
        xes.dump(running_log, target)
        assert LogRef.path(str(target)).digest() == LogRef.inline(running_log).digest()

    @pytest.mark.parametrize("kind, encodes", [("inline", 1), ("builtin", 0)])
    def test_jobs_sharing_a_ref_encode_its_log_at_most_once(
        self, running_log, log_codec, kind, encodes
    ):
        ref = (
            LogRef.inline(running_log)
            if kind == "inline"
            else LogRef.builtin("running_example")
        )
        jobs = [
            AbstractionJob(log=ref, constraints=ConstraintSet([MaxGroupSize(bound)]))
            for bound in (2, 3, 4)
        ]
        for job in jobs:
            job.fingerprint()
        sizes = [len(pickle.dumps(job)) for job in jobs]
        assert log_codec == {"dumps": encodes, "loads": 0}
        # Builtin references ship no event data.
        log_bytes = len(pickle.dumps(running_log, pickle.HIGHEST_PROTOCOL))
        assert (min(sizes) > log_bytes) is (kind == "inline")

    def test_unpickled_inline_ref_decodes_only_on_resolve(self, running_log, log_codec):
        ref = LogRef.inline(running_log)
        digest = ref.digest()  # fingerprinting memoizes it before dispatch
        clone = pickle.loads(pickle.dumps(ref))
        assert clone.digest() == digest
        assert log_codec["loads"] == 0
        log = clone.resolve()
        assert clone.resolve() is log and log_codec["loads"] == 1
        assert log_digest(log) == digest
        assert clone.to_dict() == ref.to_dict()

    def test_old_form_state_with_the_log_still_resolves(self, running_log):
        # A durable queue written before the bytes form holds the log
        # itself in the third slot of the state.
        clone = LogRef.__new__(LogRef)
        clone.__setstate__(("inline", "old", running_log, None))
        assert clone.resolve() is running_log
        again = pickle.loads(pickle.dumps(clone))
        assert again.digest() == log_digest(running_log)

    def test_config_dict_round_trip(self):
        config = GeccoConfig(strategy="exhaustive", beam_width="auto", solver="bnb")
        assert config_from_dict(config_to_dict(config)) == config

    def test_config_unknown_field_rejected(self):
        with pytest.raises(ReproError):
            config_from_dict({"no_such_option": 1})
