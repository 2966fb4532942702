"""Integrity scan & repair for disk stores and fs-broker directories.

``repro fsck`` is the offline counterpart of the self-healing read
paths: the cache and broker already quarantine corrupt entries the
moment a reader trips over them, but a large store can hold rot that
nothing has read yet, and killed writers leak staging files and
orphaned leases that no read path ever visits.  This module walks the
whole tree at once:

* :func:`fsck_store` — verify every disk-store entry (result and
  selection tiers) against its embedded sha256 seal *and* its schema
  (an entry that checksums but no longer parses is just as dead),
  quarantine failures, and delete stale ``*.tmp`` staging files;
* :func:`fsck_broker` — verify queue/claimed payload frames and
  result envelopes of a :class:`~repro.service.dist.fsbroker.FilesystemBroker`
  directory, drop leases (task and affinity) that outlived their task
  or their deadline, and clear staging junk.

Both are pure functions over a directory returning a JSON-ready
report; ``repair=False`` turns every repair into a dry-run count.
Run fsck against a store only when no fleet is actively writing to it
— the staging-file sweep assumes any ``*.tmp`` it sees is dead.
"""

from __future__ import annotations

import json
import os
import pickle
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.exceptions import ReproError
from repro.experiments.persistence import read_json
from repro.service.journal import (
    IntegrityError,
    stale_tmp_files,
    sweep_stale_tmp,
    unframe_bytes,
    verify_seal,
)

#: Schema tag stamped on fsck reports.
FSCK_SCHEMA = "gecco-fsck/1"


def _quarantine_into(root: Path, path: Path, repair: bool) -> str:
    """Move a corrupt entry to ``<root>/quarantine/<name>.bad``."""
    rel = str(path.relative_to(root))
    if repair:
        quarantine = root / "quarantine"
        quarantine.mkdir(parents=True, exist_ok=True)
        try:
            os.replace(path, quarantine / (path.name + ".bad"))
        except OSError:
            pass
    return rel


def _verify_store_entry(path: Path, parser) -> Optional[str]:
    """Return an error string when a store entry is corrupt, else None."""
    try:
        payload = verify_seal(read_json(path))
    except IntegrityError as exc:
        return f"checksum: {exc}"
    except Exception as exc:  # noqa: BLE001 - any read/parse failure is rot
        return f"unreadable: {exc}"
    try:
        parser(payload)
    except Exception as exc:  # noqa: BLE001
        return f"schema: {exc}"
    return None


def fsck_store(
    disk_dir: "str | Path",
    *,
    repair: bool = True,
    tmp_max_age: float = 0.0,
) -> Dict[str, Any]:
    """Scan (and repair) an :class:`~repro.service.cache.ArtifactCache` disk store.

    Every result entry (``<2ch>/<fingerprint>.json``) and selection
    entry (``selection/<2ch>/<digest>.json``) is checksum-verified and
    re-parsed; failures move to ``quarantine/`` (suffixed ``.bad``) so
    the next put repairs the slot.  Stale ``*.tmp`` staging files are
    deleted (``tmp_max_age=0`` means *all* of them — offline use only);
    with ``repair=False`` they are only listed.
    """
    from repro.service.cache import _selection_from_dict
    from repro.service.serialization import result_from_dict

    root = Path(disk_dir)
    report: Dict[str, Any] = {
        "root": str(root),
        "present": root.is_dir(),
        "scanned": 0,
        "ok": 0,
        "quarantined": [],
        "tmp_removed": [],
        "already_quarantined": 0,
    }
    if not report["present"]:
        return report
    # The two-level glob cannot match the three-level selection layout
    # and quarantined files carry a ``.bad`` suffix, so the patterns
    # partition the store (same invariant as ArtifactCache._disk_entries).
    tiers = (
        (root.glob("*/*.json"), result_from_dict),
        (root.glob("selection/*/*.json"), _selection_from_dict),
    )
    for entries, parser in tiers:
        for path in sorted(entries):
            if path.relative_to(root).parts[0] == "quarantine":
                continue
            report["scanned"] += 1
            error = _verify_store_entry(path, parser)
            if error is None:
                report["ok"] += 1
                continue
            rel = _quarantine_into(root, path, repair)
            report["quarantined"].append({"path": rel, "error": error})
    report["already_quarantined"] = sum(
        1 for _ in root.glob("quarantine/*.bad")
    )
    tidy = sweep_stale_tmp if repair else stale_tmp_files
    report["tmp_removed"] = tidy(root, max_age=tmp_max_age)
    report["repaired"] = len(report["quarantined"]) if repair else 0
    return report


def fsck_broker(
    broker: "str | Path",
    *,
    repair: bool = True,
    tmp_max_age: float = 0.0,
) -> Dict[str, Any]:
    """Scan (and repair) a filesystem-broker directory.

    Checks, per sub-directory:

    * ``queue/`` and ``claimed/`` — entry names must parse and payload
      checksum frames must verify; the payload must also unpickle
      (undecodable tasks would only crash a worker later).  An inline
      log inside stays undecoded bytes: the frame's checksum covers
      them.  Failures move to ``quarantine/`` with a ``.reason``
      sidecar;
    * ``results/`` — envelope frames must verify; corrupt results move
      to quarantine and are replaced by explicit error envelopes (the
      same self-healing the live read path applies);
    * ``leases/`` — a lease whose task has no queue/claimed entry and
      no pending result is orphaned (its owner died mid-claim) and is
      dropped; unreadable lease files are dropped too;
    * ``affinity/`` — expired ownership leases are dropped;
    * ``tmp/`` — staging files are deleted.

    With ``repair=False`` nothing is touched: each list names what a
    repair would remove or quarantine.

    ``broker`` is resolved by
    :func:`~repro.service.dist.broker.broker_directory`, the rule
    :func:`~repro.service.dist.broker.connect_broker` uses.
    """
    from repro.service.dist.broker import broker_directory, encode_result
    from repro.service.dist.fsbroker import _parse_entry_name
    from repro.service.journal import frame_bytes

    root = broker_directory(broker)
    report: Dict[str, Any] = {
        "root": str(root),
        "present": (root / "queue").is_dir(),
        "scanned": 0,
        "ok": 0,
        "quarantined": [],
        "orphaned_leases_removed": [],
        "expired_affinities_removed": [],
        "tmp_removed": [],
    }
    if not report["present"]:
        return report

    def quarantine_entry(path: Path, reason: str) -> None:
        rel = str(path.relative_to(root))
        if repair:
            target = root / "quarantine" / path.name
            try:
                os.replace(path, target)
            except OSError:
                return
            try:
                (root / "quarantine" / f"{path.name}.reason").write_bytes(
                    reason.encode("utf-8")
                )
            except OSError:
                pass
            meta = _parse_entry_name(path.name)
            if meta is not None:
                # Fail any executor still waiting on this task.
                result = root / "results" / f"{meta.task_id}.res"
                if not result.exists():
                    try:
                        result.write_bytes(
                            frame_bytes(
                                encode_result(
                                    error=f"task quarantined by fsck: {reason}"
                                )
                            )
                        )
                    except OSError:
                        pass
        report["quarantined"].append({"path": rel, "error": reason})

    live_tasks = set()
    for sub in ("queue", "claimed"):
        for path in sorted((root / sub).glob("*")):
            if not path.is_file() or path.name.endswith(".tmp"):
                continue
            meta = _parse_entry_name(path.name)
            if meta is None:
                report["scanned"] += 1
                quarantine_entry(path, "unparsable entry name")
                continue
            report["scanned"] += 1
            try:
                payload = unframe_bytes(path.read_bytes())
            except IntegrityError as exc:
                quarantine_entry(path, f"payload checksum failed: {exc}")
                continue
            except OSError:
                continue  # claimed/ can race a live worker; skip
            try:
                pickle.loads(payload)
            except Exception as exc:  # noqa: BLE001 - any decode failure
                quarantine_entry(path, f"payload does not decode: {exc}")
                continue
            live_tasks.add(meta.task_id)
            report["ok"] += 1

    for path in sorted((root / "results").glob("*.res")):
        report["scanned"] += 1
        try:
            unframe_bytes(path.read_bytes())
        except IntegrityError as exc:
            rel = str(path.relative_to(root))
            if repair:
                task_id = path.name[: -len(".res")]
                try:
                    os.replace(path, root / "quarantine" / f"{path.name}.bad")
                except OSError:
                    pass
                try:
                    path.write_bytes(
                        frame_bytes(
                            encode_result(
                                error=(
                                    f"result for task {task_id} failed its "
                                    f"checksum: {exc}"
                                )
                            )
                        )
                    )
                except OSError:
                    pass
            report["quarantined"].append(
                {"path": rel, "error": f"result checksum failed: {exc}"}
            )
            continue
        except OSError:
            continue
        report["ok"] += 1
        live_tasks.add(path.name[: -len(".res")])

    for path in sorted((root / "leases").glob("*.json")):
        task_id = path.name[: -len(".json")]
        try:
            record = json.loads(path.read_text("utf-8"))
        except (OSError, ValueError):
            record = None
        if record is not None and task_id in live_tasks:
            continue
        rel = str(path.relative_to(root))
        if repair:
            try:
                path.unlink()
            except OSError:
                continue
        report["orphaned_leases_removed"].append(rel)

    now = time.time()
    for path in sorted((root / "affinity").glob("*.json")):
        try:
            record = json.loads(path.read_text("utf-8"))
        except (OSError, ValueError):
            record = {}
        if isinstance(record, dict) and record.get("deadline", 0.0) > now:
            continue
        rel = str(path.relative_to(root))
        if repair:
            try:
                path.unlink()
            except OSError:
                continue
        report["expired_affinities_removed"].append(rel)

    tidy = sweep_stale_tmp if repair else stale_tmp_files
    report["tmp_removed"] = tidy(
        root / "tmp", max_age=tmp_max_age, patterns=("*.tmp",)
    )
    report["repaired"] = (
        len(report["quarantined"])
        + len(report["orphaned_leases_removed"])
        + len(report["expired_affinities_removed"])
        if repair
        else 0
    )
    return report


def fsck_report(
    cache_dir: "str | Path | None" = None,
    broker: "str | Path | None" = None,
    *,
    repair: bool = True,
) -> Dict[str, Any]:
    """Combined ``repro fsck`` report over a store and/or a broker dir."""
    if cache_dir is None and broker is None:
        raise ReproError("fsck needs --cache-dir and/or --broker to scan")
    report: Dict[str, Any] = {"schema": FSCK_SCHEMA, "repair": repair}
    totals = {"scanned": 0, "quarantined": 0, "repaired": 0, "tmp_removed": 0}
    if cache_dir is not None:
        store = fsck_store(cache_dir, repair=repair)
        report["store"] = store
        totals["scanned"] += store["scanned"]
        totals["quarantined"] += len(store["quarantined"])
        totals["repaired"] += store.get("repaired", 0)
        totals["tmp_removed"] += len(store["tmp_removed"])
    if broker is not None:
        broker_report = fsck_broker(broker, repair=repair)
        report["broker"] = broker_report
        totals["scanned"] += broker_report["scanned"]
        totals["quarantined"] += len(broker_report["quarantined"])
        totals["repaired"] += broker_report.get("repaired", 0)
        totals["tmp_removed"] += len(broker_report["tmp_removed"])
    report["totals"] = totals
    return report


def render_fsck(report: Dict[str, Any]) -> str:
    """Human-readable rendering of an fsck report."""
    lines: List[str] = []
    mode = "repair" if report.get("repair", True) else "dry-run"
    for section in ("store", "broker"):
        part = report.get(section)
        if part is None:
            continue
        lines.append(f"{section}: {part['root']} ({mode})")
        if not part.get("present", False):
            lines.append("  not present — nothing to scan")
            continue
        lines.append(
            f"  scanned {part['scanned']} entries, {part['ok']} ok, "
            f"{len(part['quarantined'])} quarantined, "
            f"{len(part['tmp_removed'])} stale tmp files removed"
        )
        for bad in part["quarantined"]:
            lines.append(f"    quarantined {bad['path']}: {bad['error']}")
        for extra_key in ("orphaned_leases_removed", "expired_affinities_removed"):
            for rel in part.get(extra_key, []):
                label = extra_key.replace("_", " ").replace(" removed", "")
                lines.append(f"    removed {label}: {rel}")
    totals = report.get("totals", {})
    lines.append(
        f"totals: scanned={totals.get('scanned', 0)} "
        f"quarantined={totals.get('quarantined', 0)} "
        f"repaired={totals.get('repaired', 0)} "
        f"tmp_removed={totals.get('tmp_removed', 0)}"
    )
    return "\n".join(lines)
