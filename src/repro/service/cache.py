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
  ``selection/<digest>.json`` and survive restarts.

The on-disk store accepts optional **budgets**: a TTL (entries older
than ``disk_ttl`` seconds since last use are expired on read and on
enforcement sweeps) and size bounds (``disk_max_entries`` /
``disk_max_bytes``) enforced by least-recently-used eviction (file
mtimes, refreshed on every disk hit, are the recency clock).  The TTL
covers every entry; the size bounds apply **per tier** — results and
selection cells each honor the configured limits independently (total
disk use is bounded by twice the byte budget), so a burst of tiny
selection cells can never evict expensive finished results.

All memory tiers are bounded LRU maps; hit/miss/eviction counters are
kept per tier and surface in batch reports and executor ``stats()``.
All operations are thread-safe (the pool executor's completion
callbacks run on a helper thread).
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path

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
        self._artifacts: OrderedDict[tuple, object] = OrderedDict()
        self._results: OrderedDict[str, AbstractionResult] = OrderedDict()
        self._selections: OrderedDict[str, object] = OrderedDict()
        self._max_artifacts = max_artifacts
        self._max_results = max_results
        self._max_selections = max_selections
        self._disk_dir = Path(disk_dir) if disk_dir is not None else None
        self._disk_ttl = disk_ttl
        self._disk_max_entries = disk_max_entries
        self._disk_max_bytes = disk_max_bytes
        self._disk_retry = disk_retry if disk_retry is not None else _DISK_WRITE_RETRY
        # Injection point for the atomic JSON writer — chaos tests swap
        # in a fault injector (ENOSPC, torn writes); see
        # :class:`repro.service.dist.chaos.DiskFaultInjector`.
        self._disk_writer = disk_writer if disk_writer is not None else write_json_atomic
        # In-process footprint estimate of the selection tier,
        # ``(entries, bytes)``; ``None`` until the first enforcement
        # sweep seeds it from disk.  Lets a decomposed run that stores
        # many tiny proved cells skip the glob+stat sweep while clearly
        # under budget (best-effort across processes: each process
        # sweeps once its own estimate crosses the configured bounds).
        self._selection_footprint: tuple[int, int] | None = None
        self._last_selection_ttl_sweep = 0.0
        self._lock = threading.Lock()
        self.stats = CacheStats()
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

    def _quarantine_disk_entry(self, path: Path) -> None:
        """Move a corrupt disk entry to ``<disk_dir>/quarantine/``.

        Quarantined files keep their content (suffixed ``.bad`` so the
        tier globs never pick them up again) for post-mortem while the
        original slot is freed — the next put repairs it, so a corrupt
        entry costs exactly one recomputation.  ``repro fsck`` reports
        and ages them out.
        """
        quarantine = self._disk_dir / "quarantine"
        try:
            quarantine.mkdir(parents=True, exist_ok=True)
            os.replace(path, quarantine / (path.name + ".bad"))
        except OSError:
            try:
                path.unlink()
            except OSError:
                return
        with self._lock:
            self.stats.disk_quarantined += 1

    # -- artifact tier (log-prefix keyed) ---------------------------------

    def get_artifacts(self, key: tuple):
        """Look up the per-log artifact bundle for a prefix ``key``."""
        with self._lock:
            bundle = self._artifacts.get(key)
            if bundle is None:
                self.stats.artifacts.misses += 1
                return None
            self._artifacts.move_to_end(key)
            self.stats.artifacts.hits += 1
        self._trace_hit("artifacts", key)
        return bundle

    def put_artifacts(self, key: tuple, bundle) -> None:
        """Store a per-log artifact bundle under its prefix ``key``."""
        with self._lock:
            self._artifacts[key] = bundle
            self._artifacts.move_to_end(key)
            self.stats.artifacts.stores += 1
            while len(self._artifacts) > self._max_artifacts:
                self._artifacts.popitem(last=False)
                self.stats.artifacts.evictions += 1

    def count_artifact_build(self) -> None:
        """Record that per-log artifacts were computed from scratch."""
        with self._lock:
            self.stats.artifact_builds += 1

    # -- selection tier (component-digest keyed) --------------------------

    def _selection_disk_path(self, key: str) -> Path:
        return self._disk_dir / "selection" / key[:2] / f"{key}.json"

    def get_selection(self, key: str):
        """Look up a solved Step-2 component cell; memory first, then disk."""
        with self._lock:
            solution = self._selections.get(key)
            if solution is not None:
                self._selections.move_to_end(key)
                self.stats.selection.hits += 1
            else:
                self.stats.selection.misses += 1
        if solution is not None:
            self._trace_hit("selection", key)
            return solution
        if self._disk_dir is None:
            return None
        path = self._selection_disk_path(key)
        if not path.exists():
            with self._lock:
                self.stats.disk.misses += 1
            return None
        if self._expired(path):
            try:
                path.unlink()
            except OSError:
                pass
            with self._lock:
                self.stats.disk.misses += 1
                self.stats.disk.evictions += 1
            return None
        try:
            solution = _selection_from_dict(verify_seal(read_json(path)))
        except Exception:
            # Corrupt, truncated, or old-schema entry (checksums are
            # verified by ``verify_seal``): treat as a miss and
            # quarantine the file so the next put repairs the slot
            # (same as the result tier).
            self._quarantine_disk_entry(path)
            with self._lock:
                self.stats.disk.misses += 1
            return None
        try:
            os.utime(path)  # a hit refreshes the entry's LRU/TTL clock
        except OSError:
            pass
        with self._lock:
            self.stats.disk.hits += 1
            self._store_selection_locked(key, solution)
        self._trace_hit("disk_selection", key)
        return solution

    def put_selection(self, key: str, solution) -> None:
        """Store a solved Step-2 component cell (memory, and disk for proofs)."""
        with self._lock:
            self._store_selection_locked(key, solution)
            self.stats.selection.stores += 1
        if self._disk_dir is None:
            return
        payload = _selection_to_dict(solution)
        if payload is None:
            # Not a persistable proof (e.g. a timeout, or a foreign
            # object placed in the memory tier) — never write it.
            return
        path = self._selection_disk_path(key)
        if not path.exists():
            try:
                self._disk_retry.call(
                    self._disk_writer, seal(payload), path, key=key,
                    retry_on=(OSError,),
                )
            except Exception:
                return  # best-effort tier, same as results
            try:
                written = path.stat().st_size
            except OSError:
                written = 0
            with self._lock:
                self.stats.disk.stores += 1
                if self._selection_footprint is not None:
                    entries_est, bytes_est = self._selection_footprint
                    self._selection_footprint = (
                        entries_est + 1,
                        bytes_est + written,
                    )
            if self._selection_sweep_needed():
                self._enforce_disk_budget("selection")

    def _selection_sweep_needed(self) -> bool:
        """Whether a selection put must pay the glob+stat sweep.

        Decomposed runs persist many tiny proved cells; sweeping on
        every put would make a k-component job quadratic in filesystem
        stats.  The in-process footprint estimate skips sweeps while
        clearly under the size budgets; TTL hygiene runs at most every
        half-TTL (read-side expiry stays exact regardless).
        """
        if (
            self._disk_ttl is None
            and self._disk_max_entries is None
            and self._disk_max_bytes is None
        ):
            return False
        with self._lock:
            footprint = self._selection_footprint
            last_ttl_sweep = self._last_selection_ttl_sweep
        if footprint is None:
            return True  # seed the estimate with one real sweep
        entries_est, bytes_est = footprint
        if (
            self._disk_max_entries is not None
            and entries_est > self._disk_max_entries
        ):
            return True
        if self._disk_max_bytes is not None and bytes_est > self._disk_max_bytes:
            return True
        if self._disk_ttl is not None:
            return time.time() - last_ttl_sweep >= self._disk_ttl / 2
        return False

    def _store_selection_locked(self, key: str, solution) -> None:
        self._selections[key] = solution
        self._selections.move_to_end(key)
        while len(self._selections) > self._max_selections:
            self._selections.popitem(last=False)
            self.stats.selection.evictions += 1

    # -- result tier (full-fingerprint keyed) -----------------------------

    def _disk_path(self, fingerprint: str) -> Path:
        return self._disk_dir / fingerprint[:2] / f"{fingerprint}.json"

    def _expired(self, path: Path) -> bool:
        """Whether a disk entry has outlived the TTL budget."""
        if self._disk_ttl is None:
            return False
        try:
            age = time.time() - path.stat().st_mtime
        except OSError:
            return True
        return age > self._disk_ttl

    def get_result(self, fingerprint: str) -> AbstractionResult | None:
        """Look up a finished result; memory first, then disk."""
        with self._lock:
            result = self._results.get(fingerprint)
            if result is not None:
                self._results.move_to_end(fingerprint)
                self.stats.results.hits += 1
            else:
                self.stats.results.misses += 1
        if result is not None:
            self._trace_hit("results", fingerprint)
            return result
        if self._disk_dir is None:
            return None
        path = self._disk_path(fingerprint)
        if not path.exists():
            with self._lock:
                self.stats.disk.misses += 1
            return None
        if self._expired(path):
            try:
                path.unlink()
            except OSError:
                pass
            with self._lock:
                self.stats.disk.misses += 1
                self.stats.disk.evictions += 1
            return None
        try:
            result = result_from_dict(verify_seal(read_json(path)))
        except Exception:
            # A stale, truncated, or corrupt store entry (checksums are
            # verified by ``verify_seal``) must never take the service
            # down — treat as miss and quarantine the bad file so the
            # next put_result repairs the slot.
            self._quarantine_disk_entry(path)
            with self._lock:
                self.stats.disk.misses += 1
            return None
        try:
            os.utime(path)  # a hit refreshes the entry's LRU/TTL clock
        except OSError:
            pass
        with self._lock:
            self.stats.disk.hits += 1
            self._store_result_locked(fingerprint, result)
        self._trace_hit("disk_results", fingerprint)
        return result

    def put_result(self, fingerprint: str, result: AbstractionResult) -> None:
        """Store a finished result (memory, and disk when configured)."""
        with self._lock:
            self._store_result_locked(fingerprint, result)
            self.stats.results.stores += 1
        if self._disk_dir is not None:
            path = self._disk_path(fingerprint)
            if not path.exists():
                try:
                    # Transient write failures retry with backoff; a
                    # serialization error (non-OSError) fails once.
                    self._disk_retry.call(
                        self._disk_writer, seal(result_to_dict(result)), path,
                        key=fingerprint, retry_on=(OSError,),
                    )
                except Exception:
                    # Best-effort tier: a full disk or a result with
                    # JSON-unserializable attribute values must not fail
                    # the job — it is already served from memory.
                    return
                with self._lock:
                    self.stats.disk.stores += 1
                self._enforce_disk_budget("results")

    def _enforce_disk_budget(self, tier: str | None = None) -> None:
        """Expire TTL-dead entries and evict LRU ones past the budgets.

        The TTL covers every persisted entry; the entry/byte budgets
        are enforced per tier (results and selection cells each honor
        the configured limits independently), so a burst of tiny
        selection cells can never evict expensive finished results.
        ``tier`` limits the sweep to ``"results"`` or ``"selection"``
        — each put only re-scans the tier it wrote to, keeping a
        many-component decomposed run linear in filesystem stats.
        """
        if self._disk_dir is None:
            return
        if (
            self._disk_ttl is None
            and self._disk_max_entries is None
            and self._disk_max_bytes is None
        ):
            return
        swept = ("results", "selection") if tier is None else (tier,)
        tiers: dict[str, list] = {name: [] for name in swept}
        for name in swept:
            for path in self._disk_entries(name):
                try:
                    status = path.stat()
                except OSError:
                    continue
                tiers[name].append((status.st_mtime, status.st_size, path))
        evicted = 0
        now = time.time()
        for entries in tiers.values():
            entries.sort()  # oldest (least recently used) first
            if self._disk_ttl is not None:
                live = []
                for mtime, size, path in entries:
                    if now - mtime > self._disk_ttl:
                        try:
                            path.unlink()
                            evicted += 1
                        except OSError:
                            pass
                    else:
                        live.append((mtime, size, path))
                entries[:] = live
            total_bytes = sum(size for _, size, _ in entries)
            while entries and (
                (
                    self._disk_max_entries is not None
                    and len(entries) > self._disk_max_entries
                )
                or (
                    self._disk_max_bytes is not None
                    and total_bytes > self._disk_max_bytes
                )
            ):
                _mtime, size, path = entries.pop(0)
                try:
                    path.unlink()
                    evicted += 1
                except OSError:
                    pass
                total_bytes -= size
        with self._lock:
            if evicted:
                self.stats.disk.evictions += evicted
            survivors = tiers.get("selection")
            if survivors is not None:
                self._selection_footprint = (
                    len(survivors),
                    sum(size for _, size, _ in survivors),
                )
                if self._disk_ttl is not None:
                    self._last_selection_ttl_sweep = now

    def _store_result_locked(self, fingerprint: str, result: AbstractionResult) -> None:
        self._results[fingerprint] = result
        self._results.move_to_end(fingerprint)
        while len(self._results) > self._max_results:
            self._results.popitem(last=False)
            self.stats.results.evictions += 1

    # -- maintenance -------------------------------------------------------

    def _disk_entries(self, tier: str | None = None):
        """Persisted entries of ``tier`` (``None`` = both tiers).

        Result entries live at ``<2ch>/<fingerprint>.json``, selection
        entries at ``selection/<2ch>/<digest>.json``; the two-level
        glob cannot match the three-level selection layout, so the
        patterns partition the store.
        """
        if tier in (None, "results"):
            yield from self._disk_dir.glob("*/*.json")
        if tier in (None, "selection"):
            yield from self._disk_dir.glob("selection/*/*.json")

    def clear(self, memory_only: bool = True) -> None:
        """Drop cached entries (the disk store survives by default)."""
        with self._lock:
            self._artifacts.clear()
            self._results.clear()
            self._selections.clear()
        if not memory_only and self._disk_dir is not None:
            for path in self._disk_entries():
                path.unlink()

    def __len__(self) -> int:
        with self._lock:
            return len(self._results)

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
            data["resident_results"] = len(self._results)
            data["resident_artifacts"] = len(self._artifacts)
            data["resident_selections"] = len(self._selections)
            resident_bytes = resets = 0
            for bundle in self._artifacts.values():
                for part in ("compiled", "instance_index"):
                    owner = getattr(bundle, part, None)
                    resident_bytes += getattr(owner, "nbytes", 0) or 0
                index = getattr(bundle, "instance_index", None)
                resets += getattr(index, "resets", 0)
            data["resident_artifact_bytes"] = resident_bytes
            data["index_resets"] = resets
            return data
