"""Shared fixtures for the test suite."""

from __future__ import annotations

import pickle
from types import SimpleNamespace

import pytest

from repro.constraints import ConstraintSet, MaxDistinctClassAttribute, MaxGroupSize
from repro.datasets import (
    build_log,
    loan_application_log,
    running_example_log,
)
from repro.datasets.collection import TABLE_III_SPECS
from repro.eventlog.events import ROLE_KEY


@pytest.fixture(scope="session")
def running_log():
    """The paper's running example (Table I)."""
    return running_example_log()


@pytest.fixture(scope="session")
def role_constraints():
    """The running example's role constraint (one role per group)."""
    return ConstraintSet([MaxDistinctClassAttribute(ROLE_KEY, 1)])


@pytest.fixture(scope="session")
def small_synthetic_log():
    """A small seeded synthetic log (16 classes, 40 traces)."""
    spec = next(spec for spec in TABLE_III_SPECS if spec.name == "sepsis")
    return build_log(spec, max_traces=40)


@pytest.fixture(scope="session")
def loan_log():
    """A scaled-down case-study loan log."""
    return loan_application_log(num_traces=80)


@pytest.fixture
def size_cap_constraints():
    """The evaluation's base constraint |g| <= 8."""
    return ConstraintSet([MaxGroupSize(8)])


@pytest.fixture
def log_codec(monkeypatch):
    """Count the inline-log encodes and decodes :class:`LogRef` makes."""
    from repro.service import jobs

    calls = {"dumps": 0, "loads": 0}

    def counted(name):
        def call(*args, **kwargs):
            calls[name] += 1
            return getattr(pickle, name)(*args, **kwargs)

        return call

    monkeypatch.setattr(
        jobs, "pickle",
        SimpleNamespace(
            HIGHEST_PROTOCOL=pickle.HIGHEST_PROTOCOL,
            dumps=counted("dumps"),
            loads=counted("loads"),
        ),
    )
    return calls
