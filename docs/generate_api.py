"""Generate ``docs/api.md`` from the public API's docstrings.

The API reference is *generated, not written*: every documented item
below is imported, its signature taken from ``inspect.signature`` and
its text from the live docstring, so the page cannot drift from the
code without ``docs/check.py`` (and the CI ``docs-check`` job) noticing
— the checker regenerates the page in memory and diffs it against the
committed file.

Usage::

    PYTHONPATH=src python docs/generate_api.py        # rewrite docs/api.md
    PYTHONPATH=src python docs/generate_api.py --check  # exit 1 when stale
"""

from __future__ import annotations

import importlib
import inspect
import sys
from pathlib import Path

#: The curated public surface: ``(module, name, one-line role)`` per
#: section.  Order is presentation order in docs/api.md.
API_SECTIONS: "list[tuple[str, list[tuple[str, str, str]]]]" = [
    (
        "Pipeline",
        [
            ("repro.core.gecco", "Gecco",
             "the three-step abstraction pipeline"),
            ("repro.core.gecco", "GeccoConfig",
             "every pipeline knob, with defaults"),
            ("repro.core.gecco", "AbstractionResult",
             "what a pipeline run returns"),
            ("repro.constraints.sets", "ConstraintSet",
             "the user's constraint set R"),
        ],
    ),
    (
        "Service runtime",
        [
            ("repro.service.jobs", "AbstractionJob",
             "one content-addressed unit of servable work"),
            ("repro.service.jobs", "LogRef",
             "a resolvable, digestible reference to an event log"),
            ("repro.service.cache", "ArtifactCache",
             "the three-tier cache behind every executor"),
            ("repro.service.executor", "SequentialExecutor",
             "deterministic in-process reference executor"),
            ("repro.service.executor", "PoolExecutor",
             "one-host multiprocessing executor"),
            ("repro.service.batch", "run_batch",
             "JSONL manifest in, JSONL results out"),
            ("repro.service.batch", "load_manifest",
             "parse a JSONL job manifest"),
        ],
    ),
    (
        "Distributed backend",
        [
            ("repro.service.dist.executor", "DistributedExecutor",
             "the executor protocol over a broker queue"),
            ("repro.service.dist.broker", "connect_broker",
             "broker URL -> broker instance"),
            ("repro.service.dist.broker", "Broker",
             "the broker contract all queue backends implement"),
            ("repro.service.dist.broker", "TaskEnvelope",
             "one queued unit of work"),
            ("repro.service.dist.worker", "worker_loop",
             "the claim-and-run loop behind `repro worker`"),
        ],
    ),
    (
        "Resilience",
        [
            ("repro.service.resilience", "Deadline",
             "an absolute wall-clock budget threaded through a job"),
            ("repro.service.resilience", "RetryPolicy",
             "bounded exponential backoff with deterministic jitter"),
            ("repro.service.resilience", "AdmissionController",
             "token-bucket tenant quotas plus bounded-load shedding"),
            ("repro.service.resilience", "CircuitBreaker",
             "closed/open/half-open failure gate"),
            ("repro.service.resilience", "DegradingExecutor",
             "automatic tier degradation behind a circuit breaker"),
            ("repro.service.dist.chaos", "ChaosConfig",
             "a seeded deterministic fault schedule"),
            ("repro.service.dist.chaos", "ChaosBroker",
             "fault-injecting proxy over any broker"),
        ],
    ),
    (
        "Durability",
        [
            ("repro.service.journal", "RunJournal",
             "the crash-resumable batch journal behind `--run-dir`"),
            ("repro.service.journal", "seal",
             "embed a checksum in a JSON payload"),
            ("repro.service.journal", "verify_seal",
             "verify and strip an embedded checksum"),
            ("repro.service.fsck", "fsck_store",
             "offline disk-store verify/repair"),
            ("repro.service.fsck", "fsck_broker",
             "offline fs-broker verify/repair"),
            ("repro.service.supervisor", "FleetSupervisor",
             "restart, quarantine, and drain a local worker fleet"),
            ("repro.service.dist.chaos", "DiskFaultInjector",
             "seeded ENOSPC and torn-write injection for disk stores"),
        ],
    ),
    (
        "Observability",
        [
            ("repro.obs.trace", "TraceWriter",
             "crash-safe line-atomic JSONL lifecycle tracing"),
            ("repro.obs.trace", "read_trace",
             "parse a trace file, skipping torn lines"),
            ("repro.obs.trace", "merge_traces",
             "reassemble per-process traces into one timeline"),
            ("repro.obs.metrics", "MetricsRegistry",
             "counters, gauges, histograms; Prometheus text out"),
            ("repro.obs.metrics", "MetricsServer",
             "the `/metrics` HTTP endpoint behind `--metrics-port`"),
            ("repro.obs.doctor", "analyze_trace",
             "trace events in, forensic report out"),
            ("repro.obs.doctor", "render_report",
             "the human rendering behind `repro doctor`"),
        ],
    ),
]

_HEADER = """\
# API reference

*Generated from docstrings by `docs/generate_api.py` — do not edit by
hand; run `PYTHONPATH=src python docs/generate_api.py` after changing a
docstring.  The CI `docs-check` job fails when this page is stale.*

The architecture behind these classes is described in
[architecture.md](architecture.md); day-2 operation of the runtime in
[operations.md](operations.md).
"""


def _signature_of(item) -> str:
    """Best-effort signature text (classes sign their ``__init__``)."""
    try:
        return str(inspect.signature(item))
    except (TypeError, ValueError):
        return "(...)"


def _item_markdown(module_name: str, name: str, role: str) -> str:
    """Render one documented item (and a class's public methods)."""
    module = importlib.import_module(module_name)
    item = getattr(module, name)
    lines = [f"### `{name}` — {role}", ""]
    lines.append(f"`{module_name}.{name}{_signature_of(item)}`")
    lines.append("")
    doc = inspect.getdoc(item) or "(undocumented)"
    lines.append("```text")
    lines.append(doc)
    lines.append("```")
    if inspect.isclass(item):
        # A private base class (e.g. the executors' dispatch core) is
        # part of its public subclasses' surface.
        members: dict = {}
        for klass in reversed(item.__mro__):
            if klass is item or klass.__name__.startswith("_"):
                members.update(vars(klass))
        methods = [
            (method_name, method)
            for method_name, method in members.items()
            if not method_name.startswith("_") and inspect.isfunction(method)
        ]
        for method_name, method in methods:
            summary = (inspect.getdoc(method) or "").strip().splitlines()
            first_line = summary[0] if summary else "(undocumented)"
            lines.append(
                f"- **`.{method_name}{_signature_of(method)}`** — {first_line}"
            )
        properties = [
            (prop_name, prop)
            for prop_name, prop in members.items()
            if not prop_name.startswith("_") and isinstance(prop, property)
        ]
        for prop_name, prop in properties:
            summary = (inspect.getdoc(prop.fget) or "").strip().splitlines()
            first_line = summary[0] if summary else "(undocumented)"
            lines.append(f"- **`.{prop_name}`** (property) — {first_line}")
    lines.append("")
    return "\n".join(lines)


def render_api_page() -> str:
    """Build the whole docs/api.md content as a string."""
    parts = [_HEADER]
    for section, items in API_SECTIONS:
        parts.append(f"## {section}\n")
        for module_name, name, role in items:
            parts.append(_item_markdown(module_name, name, role))
    return "\n".join(parts)


def main(argv: "list[str] | None" = None) -> int:
    """Write (or with ``--check`` verify) ``docs/api.md``."""
    argv = sys.argv[1:] if argv is None else argv
    target = Path(__file__).resolve().parent / "api.md"
    fresh = render_api_page()
    if "--check" in argv:
        current = target.read_text(encoding="utf-8") if target.exists() else ""
        if current != fresh:
            print(
                "docs/api.md is stale; regenerate with "
                "`PYTHONPATH=src python docs/generate_api.py`",
                file=sys.stderr,
            )
            return 1
        print("docs/api.md is up to date")
        return 0
    target.write_text(fresh, encoding="utf-8")
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
