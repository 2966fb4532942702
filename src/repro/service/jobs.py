"""The job model: log references and content-addressed abstraction jobs.

An :class:`AbstractionJob` is one unit of servable work — a log
reference plus a :class:`~repro.constraints.sets.ConstraintSet` plus a
:class:`~repro.core.gecco.GeccoConfig`.  Its :meth:`fingerprint` is the
content address the whole runtime is keyed by:

* ``log`` — digest of the resolved log's content,
* ``constraints`` — digest of the set's canonical JSON
  (:meth:`ConstraintSet.to_json`, order- and whitespace-stable),
* ``config`` — digest of the normalized (defaults-filled) config,
* ``full`` — the three combined.

The ``log`` component doubles as the cache *prefix* under which the
expensive per-log artifacts (compiled log, instance index, DFG) are
shared by every job on the same log, whatever its constraints.

A :class:`LogRef` names a log without necessarily holding it: builtin
datasets (``running_example``, ``loan:80``, ``synthetic:10x40``), files
(``.xes``/``.csv``), or inline :class:`~repro.eventlog.events.EventLog`
objects.  References resolve lazily and pickle compactly — builtin and
path references re-resolve inside worker processes instead of shipping
event data over the pipe.  An inline reference crosses the pipe as the
pickled bytes of its log, encoded once per reference however many jobs
share it; the receiving side decodes them only on
:meth:`LogRef.resolve`, which a worker calls only to build artifacts.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any

from repro.constraints.sets import ConstraintSet
from repro.core.gecco import GeccoConfig
from repro.eventlog.events import EventLog
from repro.exceptions import ReproError
from repro.service import fingerprint as fp
from repro.service import serialization

#: Log-reference kinds.
LOG_REF_KINDS = ("builtin", "path", "inline")


def _build_running_example(arg: str | None) -> EventLog:
    from repro.datasets import running_example_log

    if arg:
        raise ReproError("builtin log 'running_example' takes no argument")
    return running_example_log()


def _build_loan(arg: str | None) -> EventLog:
    from repro.datasets import loan_application_log

    return loan_application_log(num_traces=int(arg) if arg else 300)


def _build_synthetic(arg: str | None) -> EventLog:
    from repro.datasets.attributes import enrich_log
    from repro.datasets.playout import playout
    from repro.datasets.process_tree import TreeSpec, random_tree

    spec = arg or "10x40"
    seed = 42
    if "@" in spec:
        spec, seed_text = spec.split("@", 1)
        seed = int(seed_text)
    try:
        classes_text, traces_text = spec.split("x", 1)
        num_classes, num_traces = int(classes_text), int(traces_text)
    except ValueError:
        raise ReproError(
            f"synthetic log spec must look like '10x40' or '10x40@7', got {arg!r}"
        ) from None
    tree = random_tree(TreeSpec(num_activities=num_classes), seed=seed)
    return enrich_log(playout(tree, num_traces, seed=seed), seed=seed)


#: Builtin dataset name -> builder taking the optional ``name:arg`` part.
BUILTIN_LOGS = {
    "running_example": _build_running_example,
    "loan": _build_loan,
    "synthetic": _build_synthetic,
}


class LogRef:
    """A resolvable, digestible reference to an event log.

    Pickling an inline reference ships ``pickle.dumps(log)`` bytes,
    encoded on the first pickling and memoized; an unpickled reference
    keeps them undecoded until :meth:`resolve`.  The bytes, like the
    digest, are a snapshot taken at first use: mutating an inline log
    after submitting it was never supported.
    """

    __slots__ = ("kind", "spec", "_log", "_blob", "_digest")

    def __init__(self, kind: str, spec: str | None = None, log: EventLog | None = None):
        if kind not in LOG_REF_KINDS:
            raise ReproError(f"unknown log reference kind {kind!r}; use {LOG_REF_KINDS}")
        if kind == "inline" and log is None:
            raise ReproError("inline log references need the log object")
        self.kind = kind
        self.spec = spec
        self._log = log
        self._blob: bytes | None = None
        self._digest: str | None = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def builtin(cls, spec: str) -> "LogRef":
        """Reference a builtin dataset, e.g. ``"loan:80"``."""
        name = spec.split(":", 1)[0]
        if name not in BUILTIN_LOGS:
            raise ReproError(
                f"unknown builtin log {name!r}; known: {sorted(BUILTIN_LOGS)}"
            )
        return cls("builtin", spec)

    @classmethod
    def path(cls, path: str) -> "LogRef":
        """Reference a log file (``.xes`` or ``.csv``)."""
        return cls("path", str(path))

    @classmethod
    def inline(cls, log: EventLog, name: str = "inline") -> "LogRef":
        """Wrap an in-memory log."""
        return cls("inline", name, log)

    @classmethod
    def from_spec(cls, spec: str) -> "LogRef":
        """Parse a manifest log field: a builtin name or a file path."""
        name = spec.split(":", 1)[0]
        if name in BUILTIN_LOGS:
            return cls.builtin(spec)
        if Path(spec).suffix.lower() in (".xes", ".csv"):
            return cls.path(spec)
        raise ReproError(
            f"log reference {spec!r} is neither a builtin "
            f"({sorted(BUILTIN_LOGS)}) nor an .xes/.csv path"
        )

    # -- resolution --------------------------------------------------------

    def resolve(self) -> EventLog:
        """Load/build the referenced log (memoized per reference)."""
        if self._log is None:
            if self.kind == "builtin":
                name, _, arg = (self.spec or "").partition(":")
                self._log = BUILTIN_LOGS[name](arg or None)
            elif self.kind == "path":
                from repro.eventlog import csv_io, xes

                suffix = Path(self.spec).suffix.lower()
                if suffix == ".xes":
                    self._log = xes.load(self.spec)
                elif suffix == ".csv":
                    self._log = csv_io.read_csv(self.spec)
                else:
                    raise ReproError(
                        f"unsupported log format {suffix!r} (use .xes or .csv)"
                    )
            else:
                self._log = pickle.loads(self._blob)
        return self._log

    def digest(self) -> str:
        """Content digest of the resolved log (memoized)."""
        if self._digest is None:
            self._digest = fp.log_digest(self.resolve())
        return self._digest

    def describe(self) -> str:
        """Short human-readable name for logs and batch rows."""
        return f"{self.kind}:{self.spec}"

    # -- serialization / pickling -----------------------------------------

    def to_dict(self) -> dict:
        """Manifest rendering: a spec string, or embedded event data."""
        if self.kind == "inline":
            return {
                "kind": "inline",
                "name": self.spec,
                "log": serialization.log_to_dict(self.resolve()),
            }
        return {"kind": self.kind, "spec": self.spec}

    @classmethod
    def from_dict(cls, data: "dict | str") -> "LogRef":
        """Parse a manifest log field (string spec or mapping)."""
        if isinstance(data, str):
            return cls.from_spec(data)
        kind = data.get("kind")
        if kind == "inline":
            return cls.inline(
                serialization.log_from_dict(data["log"]), data.get("name", "inline")
            )
        if kind == "builtin":
            return cls.builtin(data["spec"])
        if kind == "path":
            return cls.path(data["spec"])
        return cls.from_spec(data["spec"])

    def __getstate__(self):
        # Builtin/path references re-resolve in the receiving process;
        # only inline references ship their event data, as bytes encoded
        # once.  The digest travels along so workers never recompute it.
        if self.kind == "inline" and self._blob is None:
            self._blob = pickle.dumps(self._log, pickle.HIGHEST_PROTOCOL)
        return (self.kind, self.spec, self._blob, self._digest)

    def __setstate__(self, state):
        self.kind, self.spec, data, self._digest = state
        self._log, self._blob = None, data
        if isinstance(data, EventLog):  # a payload queued before the bytes form
            self._log, self._blob = data, None

    def __repr__(self) -> str:
        return f"LogRef({self.describe()})"


def config_to_dict(config: GeccoConfig) -> dict:
    """Normalized (defaults-filled) plain-data rendering of a config."""
    return {f.name: getattr(config, f.name) for f in fields(config)}


def config_from_dict(data: dict) -> GeccoConfig:
    """Build a config from a (possibly partial) mapping."""
    known = {f.name for f in fields(GeccoConfig)}
    unknown = set(data) - known
    if unknown:
        raise ReproError(f"unknown config fields {sorted(unknown)}")
    return GeccoConfig(**data)


def share_log_refs(jobs: "list[AbstractionJob]") -> "list[AbstractionJob]":
    """Make jobs with the same builtin/path log share one :class:`LogRef`.

    Manifest parsing builds one reference per row; since a reference
    memoizes its resolved log and digest per *instance*, sharing them
    means each distinct log is parsed and hashed once at fingerprint
    time instead of once per job.  Inline references keep their own
    logs.  Returns ``jobs`` (mutated in place) for chaining.
    """
    shared: dict[tuple, LogRef] = {}
    for job in jobs:
        if job.log.kind != "inline":
            key = (job.log.kind, job.log.spec)
            job.log = shared.setdefault(key, job.log)
    return jobs


@dataclass(frozen=True)
class JobFingerprint:
    """The content address of a job, componentwise and combined."""

    log: str
    constraints: str
    config: str

    @property
    def full(self) -> str:
        """Digest of the full job (log × constraints × config)."""
        return fp.combine_digests(self.log, self.constraints, self.config)

    def artifact_key(self, instance_policy: str, engine: str) -> tuple:
        """Cache key of the shared per-log artifacts (the log *prefix*)."""
        return (self.log, instance_policy, engine)


@dataclass
class AbstractionJob:
    """One servable abstraction problem.

    ``deadline_ms`` and ``tenant`` are *policy* fields: they decide
    whether and where the job runs (deadline enforcement, admission
    control), never what it computes — so neither enters the
    :meth:`fingerprint` and two jobs differing only in policy share
    one cache entry.
    """

    log: LogRef
    constraints: ConstraintSet
    config: GeccoConfig = field(default_factory=GeccoConfig)
    job_id: str | None = None
    priority: int = 0
    #: End-to-end wall-clock budget in milliseconds (``None`` = none).
    deadline_ms: float | None = None
    #: Admission-control tenant for per-tenant quotas (``None`` = anonymous).
    tenant: str | None = None
    #: Absolute epoch deadline, pinned at submit time by :meth:`deadline`.
    #: Epoch (not monotonic) so the instant survives pickling into pool
    #: workers and broker queues.  Runtime-only: never in the manifest.
    deadline_at: float | None = field(default=None, compare=False)
    #: Span context, minted at submit by the tracing executor and
    #: carried inside the pickled payload through broker queues and
    #: pool pipes so worker-side events join the submit span's tree.
    #: Runtime-only policy fields like ``deadline_at``: never in the
    #: manifest, never in the fingerprint.
    trace_id: str | None = field(default=None, compare=False)
    span_id: str | None = field(default=None, compare=False)
    _fingerprint: JobFingerprint | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self):
        if not isinstance(self.log, LogRef):
            raise ReproError(f"job log must be a LogRef, got {type(self.log).__name__}")
        if not isinstance(self.constraints, ConstraintSet):
            self.constraints = ConstraintSet(self.constraints)
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ReproError(f"deadline_ms must be > 0, got {self.deadline_ms}")

    def deadline(self):
        """The job's :class:`~repro.service.resilience.Deadline`, or ``None``.

        First call pins the absolute instant (``now + deadline_ms``);
        executors call this at submit so the budget covers queueing,
        claim, artifact build, and solve — not just compute time.
        """
        if self.deadline_ms is None:
            return None
        from repro.service.resilience import Deadline

        if self.deadline_at is None:
            self.deadline_at = Deadline.after_ms(self.deadline_ms).at
        return Deadline(at=self.deadline_at)

    def fingerprint(self) -> JobFingerprint:
        """The job's content address (memoized)."""
        if self._fingerprint is None:
            self._fingerprint = JobFingerprint(
                log=self.log.digest(),
                constraints=fp.digest_text(self.constraints.to_json()),
                config=fp.digest_text(fp.canonical_json(config_to_dict(self.config))),
            )
        return self._fingerprint

    # -- manifest rendering ------------------------------------------------

    def to_dict(self) -> dict:
        """One manifest row (JSON-able)."""
        row: dict[str, Any] = {
            "log": self.log.to_dict() if self.log.kind == "inline" else self.log.spec,
            "constraints": self.constraints.to_specs(),
            "config": config_to_dict(self.config),
        }
        if self.job_id is not None:
            row["id"] = self.job_id
        if self.priority:
            row["priority"] = self.priority
        if self.deadline_ms is not None:
            row["deadline_ms"] = self.deadline_ms
        if self.tenant is not None:
            row["tenant"] = self.tenant
        return row

    @classmethod
    def from_dict(cls, row: dict) -> "AbstractionJob":
        """Parse one manifest row.

        Required: ``log`` (spec string or mapping) and ``constraints``
        (a list of parser specifications).  Optional: ``config`` (a
        partial :class:`GeccoConfig` mapping), ``id``, ``priority``,
        ``deadline_ms``, ``tenant``.
        """
        from repro.constraints.parser import parse_constraints

        unknown = set(row) - {
            "log", "constraints", "config", "id", "priority",
            "deadline_ms", "tenant",
        }
        if unknown:
            raise ReproError(f"unknown job fields {sorted(unknown)}")
        if "log" not in row:
            raise ReproError(f"job row lacks 'log': {row}")
        if "constraints" not in row:
            raise ReproError(f"job row lacks 'constraints': {row}")
        deadline_ms = row.get("deadline_ms")
        return cls(
            log=LogRef.from_dict(row["log"]),
            constraints=parse_constraints(row["constraints"]),
            config=config_from_dict(row.get("config", {})),
            job_id=row.get("id"),
            priority=int(row.get("priority", 0)),
            deadline_ms=float(deadline_ms) if deadline_ms is not None else None,
            tenant=row.get("tenant"),
        )
