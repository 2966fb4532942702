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

from pathlib import Path
from typing import Any, Dict, List

from repro.exceptions import ReproError
from repro.experiments.persistence import read_json
from repro.service.journal import (
    IntegrityError,
    stale_tmp_files,
    sweep_stale_tmp,
    verify_seal,
)

#: Schema tag stamped on fsck reports.
FSCK_SCHEMA = "gecco-fsck/1"


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
    from repro.service.cache import (
        STORE_TIERS,
        quarantine_store_entry,
        store_entries,
    )

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
    for directory, _encode, decode in STORE_TIERS.values():
        for path in sorted(store_entries(root, directory)):
            report["scanned"] += 1
            error = None
            try:
                payload = verify_seal(read_json(path))
            except IntegrityError as exc:
                error = f"checksum: {exc}"
            except Exception as exc:  # noqa: BLE001 - any read failure is rot
                error = f"unreadable: {exc}"
            else:
                try:
                    decode(payload)
                except Exception as exc:  # noqa: BLE001
                    error = f"schema: {exc}"
            if error is None:
                report["ok"] += 1
                continue
            report["quarantined"].append(
                {"path": str(path.relative_to(root)), "error": error}
            )
            if repair:
                quarantine_store_entry(root, path)
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
    from repro.service.dist.broker import broker_directory
    from repro.service.dist.fsbroker import scan_directory

    return scan_directory(
        broker_directory(broker), repair=repair, tmp_max_age=tmp_max_age
    )


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
    for section, target, scan in (
        ("store", cache_dir, fsck_store), ("broker", broker, fsck_broker)
    ):
        if target is None:
            continue
        part = report[section] = scan(target, repair=repair)
        totals["scanned"] += part["scanned"]
        totals["quarantined"] += len(part["quarantined"])
        totals["repaired"] += part.get("repaired", 0)
        totals["tmp_removed"] += len(part["tmp_removed"])
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
