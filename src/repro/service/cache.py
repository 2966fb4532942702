"""The artifact cache: per-log artifacts, finished results, components.

Three tiers, all content-addressed by components of the job fingerprint
(:class:`~repro.service.jobs.JobFingerprint`) or by content digests:

* **artifact tier** — keyed by the fingerprint's *log prefix*
  ``(log digest, instance policy, engine)``; holds the expensive
  constraint-independent :class:`~repro.core.gecco.PipelineArtifacts`
  (compiled log, instance index, DFG) so every job on the same log
  shares one build;
* **result tier** — keyed by the *full* fingerprint; holds finished
  :class:`~repro.core.gecco.AbstractionResult` objects so repeated jobs
  are served without recomputation.  Optionally backed by an on-disk
  store (JSON, via :mod:`repro.service.serialization` and the atomic
  writers of :mod:`repro.experiments.persistence`) that survives
  process restarts and is shared between workers;
* **selection tier** — keyed by the content digest of one Step-2
  component solve cell (:func:`repro.selection2.component_cache_key`);
  holds solved :class:`~repro.selection2.portfolio.ComponentSolution`
  objects so constraint-set sweeps over one log reuse Step-2 work
  across jobs.  When a disk store is configured, *proved* cells
  (optimal / infeasible — never timeouts or solver errors, which must
  not poison a persistent tier) are also written under
  ``selection/<2ch>/<digest>.json`` and survive restarts.

The on-disk store accepts optional **budgets**: a TTL (entries older
than ``disk_ttl`` seconds since last use are expired on read and on
enforcement sweeps) and size bounds (``disk_max_entries`` /
``disk_max_bytes``) enforced by least-recently-used eviction (file
mtimes, refreshed on every disk hit, are the recency clock).  The TTL
covers every entry; the size bounds apply **per tier** — results and
selection cells each honor the configured limits independently (total
disk use is bounded by twice the byte budget), so a burst of tiny
selection cells can never evict expensive finished results.

Every tier is one :class:`_Tier`: a bounded LRU map with per-tier
hit/miss/eviction counters (they surface in batch reports and executor
``stats()``) that the two persisted tiers back with sealed JSON files
under their :data:`STORE_TIERS` directory.  This module owns that
layout: ``repro fsck`` scans a store through :data:`STORE_TIERS`,
:func:`store_entries` and :func:`quarantine_store_entry`.  All
operations are thread-safe (the pool executor's completion callbacks
run on a helper thread).
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.core.gecco import AbstractionResult
from repro.experiments.persistence import read_json, write_json_atomic
from repro.service.journal import seal, sweep_stale_tmp, verify_seal
from repro.service.resilience import RetryPolicy
from repro.service.serialization import result_from_dict, result_to_dict

#: Component-solve outcomes that may enter the persistent selection
#: store: proofs hold for any time budget, timeouts/errors do not.
_PERSISTABLE_SELECTION_STATUSES = ("optimal", "infeasible")

#: Default retry policy for disk-store writes: a transient write
#: failure (NFS stall, brief disk-full, antivirus lock) gets a couple
#: of quick backed-off retries before the tier degrades to best-effort.
_DISK_WRITE_RETRY = RetryPolicy(
    attempts=3, base_delay=0.02, max_delay=0.25, seed="cache-disk"
)


def _selection_to_dict(solution) -> dict | None:
    """JSON form of a proved ComponentSolution; ``None`` if not persistable."""
    from repro.selection2.portfolio import ComponentSolution

    if not isinstance(solution, ComponentSolution):
        return None
    if solution.status not in _PERSISTABLE_SELECTION_STATUSES:
        return None
    return {
        "schema": "gecco-selection/1",
        "status": solution.status,
        "groups": [list(group) for group in solution.groups],
        "objective": solution.objective,
        "nodes": solution.nodes,
        "backend": solution.backend,
        "message": solution.message,
        "lp_cuts": solution.lp_cuts,
        "canonical": solution.canonical,
    }


def _selection_from_dict(payload: dict):
    """Rebuild a ComponentSolution from its JSON form (raises if foreign)."""
    from repro.selection2.portfolio import ComponentSolution

    if payload.get("schema") != "gecco-selection/1":
        raise ValueError(f"unknown selection entry schema: {payload.get('schema')!r}")
    # ``canonical`` is persisted: a replayed non-canonical optimum must
    # not pass for the lex-min one.
    return ComponentSolution(
        status=payload["status"],
        groups=tuple(tuple(group) for group in payload["groups"]),
        objective=payload["objective"],
        nodes=int(payload["nodes"]),
        backend=payload["backend"],
        message=payload.get("message", ""),
        lp_cuts=int(payload.get("lp_cuts", 0)),
        canonical=bool(payload.get("canonical", True)),
    )


#: The persisted tiers of a disk store: tier name -> ``(directory,
#: encode, decode)``.  Entries live at ``<directory>/<2ch>/<key>.json``
#: (``""`` is the store root); ``encode`` returns a value's JSON payload,
#: or ``None`` for a value that must not persist, and ``decode`` rebuilds
#: a value from a payload (raising on a foreign one).
STORE_TIERS = {
    "results": ("", result_to_dict, result_from_dict),
    "selection": ("selection", _selection_to_dict, _selection_from_dict),
}


def store_entries(root: Path, directory: str):
    """The persisted entries of the tier stored under ``root / directory``.

    The root tier's two-level glob cannot match the three-level
    selection layout, and quarantined files carry a ``.bad`` suffix, so
    the :data:`STORE_TIERS` globs partition the store.
    """
    return (Path(root) / directory).glob("*/*.json")


def quarantine_store_entry(root: Path, path: Path) -> bool:
    """Move a corrupt store entry to ``<root>/quarantine/<name>.bad``.

    Quarantined files keep their content (the ``.bad`` suffix keeps the
    tier globs from picking them up again) for post-mortem while the
    original slot is freed — the next put repairs it, so a corrupt
    entry costs exactly one recomputation.  When the move fails the
    entry is deleted instead; returns whether the slot was freed.
    """
    quarantine = Path(root) / "quarantine"
    try:
        quarantine.mkdir(parents=True, exist_ok=True)
        os.replace(path, quarantine / (path.name + ".bad"))
    except OSError:
        try:
            path.unlink()
        except OSError:
            return False
    return True


@dataclass
class TierStats:
    """Hit/miss accounting of one cache tier."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0

    def as_dict(self) -> dict:
        """Plain-data rendering for snapshots and benchmark records."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
        }


@dataclass
class CacheStats:
    """All counters of an :class:`ArtifactCache`."""

    artifacts: TierStats = field(default_factory=TierStats)
    results: TierStats = field(default_factory=TierStats)
    disk: TierStats = field(default_factory=TierStats)
    selection: TierStats = field(default_factory=TierStats)
    #: Number of times per-log artifacts were actually *built* (cache
    #: misses that led to a :func:`~repro.core.gecco.prepare_artifacts`
    #: call); the acceptance check "artifacts computed exactly once per
    #: log" reads this.
    artifact_builds: int = 0
    #: Disk entries that failed their checksum or failed to parse and
    #: were moved to ``<disk_dir>/quarantine/`` (the next put repairs
    #: the slot, so a corrupt entry costs one recomputation).
    disk_quarantined: int = 0

    def as_dict(self) -> dict:
        """Plain-data rendering for snapshots and benchmark records."""
        return {
            "artifacts": self.artifacts.as_dict(),
            "results": self.results.as_dict(),
            "disk": self.disk.as_dict(),
            "selection": self.selection.as_dict(),
            "artifact_builds": self.artifact_builds,
            "disk_quarantined": self.disk_quarantined,
        }

    def merge(self, other: "CacheStats") -> None:
        """Accumulate another stats object (e.g. from a worker process)."""
        for mine, theirs in (
            (self.artifacts, other.artifacts),
            (self.results, other.results),
            (self.disk, other.disk),
            (self.selection, other.selection),
        ):
            mine.hits += theirs.hits
            mine.misses += theirs.misses
            mine.stores += theirs.stores
            mine.evictions += theirs.evictions
        self.artifact_builds += other.artifact_builds
        self.disk_quarantined += getattr(other, "disk_quarantined", 0)


@dataclass
class _Tier:
    """One cache tier: a bounded LRU map, optionally persisted on disk.

    ``directory`` is the tier's :data:`STORE_TIERS` directory (``""`` is
    the store root) and ``None`` keeps the tier in memory only;
    ``encode``/``decode`` are its :data:`STORE_TIERS` converters.
    ``footprint`` estimates the tier's ``(entries, bytes)`` on disk in
    this process: ``None`` until a budget sweep seeds it, then grown by
    every write, so puts skip the glob+stat sweep while clearly under
    budget (best-effort across processes: each process sweeps once its
    own estimate crosses the configured bounds).
    """

    name: str
    capacity: int
    stats: TierStats
    directory: str | None = None
    encode: Callable | None = None
    decode: Callable | None = None
    entries: OrderedDict = field(default_factory=OrderedDict)
    footprint: tuple[int, int] | None = None
    last_sweep: float = 0.0


class ArtifactCache:
    """Bounded, thread-safe, two-tier cache keyed by fingerprint parts.

    Parameters
    ----------
    max_artifacts:
        Artifact-tier capacity (per-log bundles are large: the compiled
        log — arrays, flat event list and attribute columns — is
        ``CompiledLog.nbytes`` bytes, and the instance index grows with
        use up to its byte budget of 64 MiB, past which it drops its
        summaries — keep this small).
    max_results:
        Result-tier capacity.
    max_selections:
        Selection-tier capacity (solved Step-2 components; entries are
        tiny — tuples of class names plus an objective).
    disk_dir:
        Optional directory for the persistent result store.  Results
        are written as ``<prefix>/<fingerprint>.json``; reads fall back
        to disk on a memory miss and repopulate the memory tier.
    disk_ttl:
        Optional time-to-live (seconds) for disk entries: entries idle
        longer than this are expired (a disk hit refreshes the clock).
    disk_max_entries / disk_max_bytes:
        Optional size budgets for the disk store, enforced by
        least-recently-used eviction.  Each limit applies **per tier**:
        the results tier and the selection tier independently honor
        the configured bound, so total disk use can reach twice the
        byte budget — size the volume accordingly.
    disk_retry:
        The :class:`~repro.service.resilience.RetryPolicy` applied to
        disk-store writes (transient filesystem failures are retried
        with backoff before the tier degrades to best-effort).
    """

    def __init__(
        self,
        max_artifacts: int = 8,
        max_results: int = 256,
        max_selections: int = 2048,
        disk_dir: "str | Path | None" = None,
        disk_ttl: float | None = None,
        disk_max_entries: int | None = None,
        disk_max_bytes: int | None = None,
        disk_retry: RetryPolicy | None = None,
        disk_writer=None,
    ):
        if max_artifacts < 1 or max_results < 1 or max_selections < 1:
            raise ValueError("cache capacities must be >= 1")
        if disk_ttl is not None and disk_ttl <= 0:
            raise ValueError("disk_ttl must be positive")
        if disk_max_entries is not None and disk_max_entries < 1:
            raise ValueError("disk_max_entries must be >= 1")
        if disk_max_bytes is not None and disk_max_bytes < 1:
            raise ValueError("disk_max_bytes must be >= 1")
        self._disk_dir = Path(disk_dir) if disk_dir is not None else None
        self._disk_ttl = disk_ttl
        self._disk_max_entries = disk_max_entries
        self._disk_max_bytes = disk_max_bytes
        budgets = (disk_ttl, disk_max_entries, disk_max_bytes)
        self._budgeted = any(bound is not None for bound in budgets)
        self._disk_retry = disk_retry if disk_retry is not None else _DISK_WRITE_RETRY
        # Injection point for the atomic JSON writer — chaos tests swap
        # in a fault injector (ENOSPC, torn writes); see
        # :class:`repro.service.dist.chaos.DiskFaultInjector`.
        self._disk_writer = disk_writer if disk_writer is not None else write_json_atomic
        self._lock = threading.Lock()
        self.stats = CacheStats()
        persisted = STORE_TIERS if disk_dir is not None else {}
        self._artifacts = _Tier("artifacts", max_artifacts, self.stats.artifacts)
        self._results = _Tier("results", max_results, self.stats.results,
                              *persisted.get("results", ()))
        self._selections = _Tier("selection", max_selections, self.stats.selection,
                                 *persisted.get("selection", ()))
        #: Stale ``*.tmp`` staging files deleted by the startup sweep —
        #: writers killed between ``mkstemp`` and ``os.replace`` leak
        #: them; sweeping only files older than five minutes keeps a
        #: concurrent live writer's staging file safe.
        self.tmp_swept = (
            len(sweep_stale_tmp(self._disk_dir))
            if self._disk_dir is not None
            else 0
        )
        #: Optional :class:`~repro.obs.trace.TraceWriter`; when set,
        #: every tier hit emits a ``cache_hit`` event (tier ∈
        #: ``artifacts`` / ``results`` / ``selection`` /
        #: ``disk_results`` / ``disk_selection``).  Emission happens
        #: outside the cache lock — tracing observes, it never blocks
        #: the tiers.
        self.tracer = None

    def _trace_hit(self, tier: str, key) -> None:
        tracer = self.tracer
        if tracer is not None:
            tracer.emit("cache_hit", tier=tier, key=str(key))

    # -- the tiers -----------------------------------------------------------

    def get_artifacts(self, key: tuple):
        """Look up the per-log artifact bundle for a prefix ``key``."""
        return self._get(self._artifacts, key)

    def put_artifacts(self, key: tuple, bundle) -> None:
        """Store a per-log artifact bundle under its prefix ``key``."""
        self._put(self._artifacts, key, bundle)

    def count_artifact_build(self) -> None:
        """Record that per-log artifacts were computed from scratch."""
        with self._lock:
            self.stats.artifact_builds += 1

    def get_selection(self, key: str):
        """Look up a solved Step-2 component cell; memory first, then disk."""
        return self._get(self._selections, key)

    def put_selection(self, key: str, solution) -> None:
        """Store a solved Step-2 component cell (memory, and disk for proofs)."""
        self._put(self._selections, key, solution)

    def get_result(self, fingerprint: str) -> AbstractionResult | None:
        """Look up a finished result; memory first, then disk."""
        return self._get(self._results, fingerprint)

    def put_result(self, fingerprint: str, result: AbstractionResult) -> None:
        """Store a finished result (memory, and disk when configured)."""
        self._put(self._results, fingerprint, result)

    def _path(self, tier: _Tier, key: str) -> Path:
        return self._disk_dir / tier.directory / key[:2] / f"{key}.json"

    def _remember(self, tier: _Tier, key, value) -> None:
        """Insert into the memory map as most recent (caller holds the lock)."""
        tier.entries[key] = value
        tier.entries.move_to_end(key)
        while len(tier.entries) > tier.capacity:
            tier.entries.popitem(last=False)
            tier.stats.evictions += 1

    def _get(self, tier: _Tier, key):
        """Memory first; on a miss, the tier's disk entry repopulates memory."""
        with self._lock:
            value = tier.entries.get(key)
            if value is not None:
                tier.entries.move_to_end(key)
                tier.stats.hits += 1
            else:
                tier.stats.misses += 1
        if value is not None:
            self._trace_hit(tier.name, key)
            return value
        if tier.directory is None:
            return None
        path = self._path(tier, key)
        try:
            idle = time.time() - path.stat().st_mtime
        except OSError:  # no such entry
            with self._lock:
                self.stats.disk.misses += 1
            return None
        if self._disk_ttl is not None and idle > self._disk_ttl:
            try:
                path.unlink()
            except OSError:
                pass
            with self._lock:
                self.stats.disk.misses += 1
                self.stats.disk.evictions += 1
            return None
        try:
            value = tier.decode(verify_seal(read_json(path)))
        except Exception:
            # A stale, truncated, corrupt (checksums are verified by
            # ``verify_seal``) or old-schema entry must never take the
            # service down: treat it as a miss and quarantine the file
            # so the next put repairs the slot.
            quarantined = quarantine_store_entry(self._disk_dir, path)
            with self._lock:
                self.stats.disk.misses += 1
                self.stats.disk_quarantined += quarantined
            return None
        try:
            os.utime(path)  # a hit refreshes the entry's LRU/TTL clock
        except OSError:
            pass
        with self._lock:
            self.stats.disk.hits += 1
            self._remember(tier, key, value)
        self._trace_hit(f"disk_{tier.name}", key)
        return value

    def _put(self, tier: _Tier, key, value) -> None:
        """Store in memory, and once on disk when the tier persists ``value``."""
        with self._lock:
            self._remember(tier, key, value)
            tier.stats.stores += 1
        if tier.directory is None:
            return
        path = self._path(tier, key)
        if path.exists():
            return
        try:
            payload = tier.encode(value)
            if payload is None:
                # Not persistable (e.g. a timeout, or a foreign object
                # placed in the memory tier) — never write it.
                return
            # Transient write failures retry with backoff; a
            # serialization error (non-OSError) fails once.
            self._disk_retry.call(
                self._disk_writer, seal(payload), path, key=key,
                retry_on=(OSError,),
            )
        except Exception:
            # Best-effort tier: a full disk or a result with
            # JSON-unserializable attribute values must not fail the
            # job — it is already served from memory.
            return
        try:
            written = path.stat().st_size
        except OSError:
            written = 0
        with self._lock:
            self.stats.disk.stores += 1
            if tier.footprint is not None:
                entries, size = tier.footprint
                tier.footprint = (entries + 1, size + written)
        if self._sweep_needed(tier):
            self._enforce_disk_budget(tier)

    def _sweep_needed(self, tier: _Tier) -> bool:
        """Whether a put into ``tier`` must pay the glob+stat sweep.

        Sweeping on every put would make a k-entry run quadratic in
        filesystem stats.  The tier's footprint estimate skips sweeps
        while clearly under the size budgets; TTL hygiene runs at most
        every half-TTL (read-side expiry stays exact regardless).
        """
        if not self._budgeted:
            return False
        with self._lock:
            footprint, last_sweep = tier.footprint, tier.last_sweep
        if footprint is None:
            return True  # seed the estimate with one real sweep
        entries, size = footprint
        if self._disk_max_entries is not None and entries > self._disk_max_entries:
            return True
        if self._disk_max_bytes is not None and size > self._disk_max_bytes:
            return True
        return (
            self._disk_ttl is not None
            and time.time() - last_sweep >= self._disk_ttl / 2
        )

    def _enforce_disk_budget(self, tier: _Tier) -> None:
        """Expire TTL-dead entries of ``tier`` and evict LRU ones past the budgets.

        The budgets apply per tier (see the class docstring), so each
        put only re-scans the tier it wrote to.  Entries are visited
        oldest (least recently used) first; the TTL-dead ones form a
        prefix of that order, so one pass evicts them and then the LRU
        entries past the size budgets.
        """
        entries = []
        for path in store_entries(self._disk_dir, tier.directory):
            try:
                status = path.stat()
            except OSError:
                continue
            entries.append((status.st_mtime, status.st_size, path))
        entries.sort()
        now = time.time()
        kept, total = len(entries), sum(size for _, size, _ in entries)
        evicted = 0
        for mtime, size, path in entries:
            if not (
                (self._disk_ttl is not None and now - mtime > self._disk_ttl)
                or (self._disk_max_entries is not None and kept > self._disk_max_entries)
                or (self._disk_max_bytes is not None and total > self._disk_max_bytes)
            ):
                break
            try:
                path.unlink()
                evicted += 1
            except OSError:
                pass
            kept, total = kept - 1, total - size
        with self._lock:
            self.stats.disk.evictions += evicted
            tier.footprint = (kept, total)
            tier.last_sweep = now

    # -- maintenance -------------------------------------------------------

    def clear(self, memory_only: bool = True) -> None:
        """Drop cached entries (the disk store survives by default)."""
        tiers = (self._artifacts, self._results, self._selections)
        with self._lock:
            for tier in tiers:
                tier.entries.clear()
        if memory_only:
            return
        for tier in tiers:
            if tier.directory is not None:
                for path in store_entries(self._disk_dir, tier.directory):
                    path.unlink()
                tier.footprint = None

    def __len__(self) -> int:
        with self._lock:
            return len(self._results.entries)

    def snapshot(self) -> dict:
        """Plain-data counters for reports and benchmarks.

        ``resident_artifact_bytes`` sums, over resident bundles, the
        compiled log (:attr:`~repro.core.encoding.CompiledLog.nbytes`:
        its arrays, its flat event list and the attribute columns built
        so far) and the instance summaries cached so far
        (:attr:`~repro.core.encoding.CompiledInstanceIndex.nbytes`, a
        running count, by far the larger part once jobs have run); DFGs,
        the events themselves and the pure-Python engine's indexes are
        excluded.  Neither count walks the cached summaries.
        ``index_resets`` sums the times those indexes dropped their
        summaries at their byte budget
        (:attr:`~repro.core.encoding.CompiledInstanceIndex.resets`).
        """
        with self._lock:
            data = self.stats.as_dict()
            data["resident_results"] = len(self._results.entries)
            data["resident_artifacts"] = len(self._artifacts.entries)
            data["resident_selections"] = len(self._selections.entries)
            resident_bytes = resets = 0
            for bundle in self._artifacts.entries.values():
                for part in ("compiled", "instance_index"):
                    owner = getattr(bundle, part, None)
                    resident_bytes += getattr(owner, "nbytes", 0) or 0
                index = getattr(bundle, "instance_index", None)
                resets += getattr(index, "resets", 0)
            data["resident_artifact_bytes"] = resident_bytes
            data["index_resets"] = resets
            return data
