"""Shared fixtures for the benchmark harness.

The benchmarks regenerate every table and figure of the paper's
evaluation on the scaled synthetic collection (the paper's testbed ran
single problems for hours; the scaled runs keep the harness
laptop-sized while preserving the comparisons' *shape*).  Each bench
prints its rendered artifact and writes it with :func:`write_result`
into a ``results`` directory of the pytest session's temporary tree
(``--basetemp=DIR`` fixes where).  Several artifacts carry wall-clock
columns, so test runs leave the snapshot committed under
``benchmarks/results/`` untouched.  To refresh that snapshot, run e.g.
``PYTHONPATH=src python -m pytest benchmarks --basetemp=/tmp/bench``
and copy ``/tmp/bench/results0/*`` into ``benchmarks/results/``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

_SRC = str(Path(__file__).parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.datasets.collection import build_collection  # noqa: E402
from repro.datasets.loan_process import loan_application_log  # noqa: E402
from repro.datasets.running_example import running_example_log  # noqa: E402

#: Scale of the benchmark collection (see module docstring).
MAX_TRACES = 50
MAX_CLASSES = 10

#: This session's artifact directory, set by the ``results_dir`` fixture.
_results_dir: Path | None = None


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark's timer.

    Table/figure regeneration is deterministic and often expensive, so
    one round is enough; routing it through ``benchmark`` keeps every
    artifact-producing test alive under ``--benchmark-only``.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def write_result(name: str, text: str) -> Path:
    """Persist a rendered benchmark artifact in this session's results dir."""
    path = _results_dir / name
    path.write_text(text + "\n", encoding="utf-8")
    return path


@pytest.fixture(scope="session", autouse=True)
def results_dir(tmp_path_factory) -> Path:
    """Where :func:`write_result` puts this session's artifacts."""
    global _results_dir
    _results_dir = tmp_path_factory.mktemp("results")
    return _results_dir


@pytest.fixture(scope="session")
def collection():
    """The scaled 13-log synthetic collection."""
    return build_collection(max_traces=MAX_TRACES, max_classes=MAX_CLASSES)


@pytest.fixture(scope="session")
def full_width_collection():
    """The collection with original class counts (traces still capped)."""
    return build_collection(max_traces=MAX_TRACES, max_classes=None)


@pytest.fixture(scope="session")
def loan_log():
    """The case-study loan log."""
    return loan_application_log(num_traces=300)


@pytest.fixture(scope="session")
def running_log():
    """The paper's running example."""
    return running_example_log()
