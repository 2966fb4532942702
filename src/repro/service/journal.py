"""Durability primitives: run journals, checksums, and tmp hygiene.

This module is the bottom layer of the durability subsystem:

* :class:`RunJournal` — a crash-resumable record of completed batch
  rows.  Every finished manifest row is appended as one line-atomic
  JSONL record (same ``O_APPEND`` + single-``os.write`` discipline as
  :class:`repro.obs.trace.TraceWriter`), so a ``SIGKILL`` at any byte
  offset loses at most the torn final line — which the reader detects
  (each line embeds a sha256 over its canonical body) and silently
  drops, causing only that row to be recomputed on resume.
* :func:`seal` / :func:`verify_seal` — embed / verify a sha256
  checksum inside a JSON payload (used by the disk store tiers).
* :func:`frame_bytes` / :func:`unframe_bytes` — prefix / verify a
  sha256 frame on opaque byte payloads (used by the filesystem
  broker's queue entries and result files).
* :func:`stale_tmp_files` / :func:`sweep_stale_tmp` — list / delete
  ``*.tmp`` staging files leaked by killed writers (shared by the
  disk-store startup sweep and ``repro fsck``).

Nothing here imports the rest of the service layer, so the cache,
broker, and batch modules can all depend on it without cycles.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.exceptions import ReproError

#: Schema tag stamped on every journal line.
JOURNAL_SCHEMA = "gecco-journal/1"

#: Schema tag of the run metadata file (``run.json``).
RUN_SCHEMA = "gecco-run/1"

#: Key under which :func:`seal` embeds the checksum in a JSON payload.
INTEGRITY_KEY = "integrity"

#: Byte-frame magic for opaque payloads (broker queue entries/results).
FRAME_MAGIC = b"CHK1:"


class IntegrityError(ReproError):
    """A stored payload failed its embedded checksum."""


def _canonical(payload: Any) -> bytes:
    """Canonical JSON encoding used for all digests in this module."""

    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )


def payload_digest(payload: Any) -> str:
    """sha256 hex digest of *payload*'s canonical JSON encoding."""

    return hashlib.sha256(_canonical(payload)).hexdigest()


def seal(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Return a copy of *payload* with an embedded sha256 checksum.

    The digest covers the canonical JSON encoding of the payload
    *without* the ``integrity`` key, so sealing is idempotent and the
    checksum can be verified by stripping the key and re-hashing.
    """

    body = {k: v for k, v in payload.items() if k != INTEGRITY_KEY}
    sealed = dict(body)
    sealed[INTEGRITY_KEY] = {
        "algo": "sha256",
        "digest": payload_digest(body),
    }
    return sealed


def verify_seal(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Verify a sealed payload and return it without the checksum.

    Payloads written before checksums existed carry no ``integrity``
    key and are passed through unverified (backward compatible).
    Raises :class:`IntegrityError` on a digest mismatch or a malformed
    integrity stanza.
    """

    if not isinstance(payload, dict):
        raise IntegrityError("sealed payload is not a JSON object")
    tag = payload.get(INTEGRITY_KEY)
    if tag is None:
        return payload
    body = {k: v for k, v in payload.items() if k != INTEGRITY_KEY}
    if not isinstance(tag, dict) or tag.get("algo") != "sha256":
        raise IntegrityError("unsupported integrity stanza")
    expected = tag.get("digest")
    actual = payload_digest(body)
    if actual != expected:
        raise IntegrityError(
            "checksum mismatch: expected %s got %s" % (expected, actual)
        )
    return body


def frame_bytes(data: bytes) -> bytes:
    """Prefix *data* with a sha256 frame (``CHK1:<hex>\\n``)."""

    digest = hashlib.sha256(data).hexdigest().encode("ascii")
    return FRAME_MAGIC + digest + b"\n" + data


def unframe_bytes(data: bytes) -> bytes:
    """Verify and strip a :func:`frame_bytes` prefix.

    Unframed payloads (written before checksums existed) are returned
    as-is.  A framed payload whose digest does not match — a torn or
    corrupted write — raises :class:`IntegrityError`.
    """

    if not data.startswith(FRAME_MAGIC):
        return data
    header_end = data.find(b"\n", len(FRAME_MAGIC))
    if header_end < 0:
        raise IntegrityError("truncated checksum frame")
    expected = data[len(FRAME_MAGIC):header_end].decode("ascii", "replace")
    body = data[header_end + 1:]
    actual = hashlib.sha256(body).hexdigest()
    if actual != expected:
        raise IntegrityError(
            "checksum mismatch: expected %s got %s" % (expected, actual)
        )
    return body


def stale_tmp_files(
    root: Path,
    *,
    max_age: float = 300.0,
    patterns: Iterable[str] = ("*.tmp", "*/*.tmp", "*/*/*.tmp"),
) -> List[str]:
    """List ``*.tmp`` staging files under *root* older than *max_age*.

    Atomic writers stage into ``<name><random>.tmp`` siblings and
    ``os.replace`` into place; a writer killed between the two leaks
    the staging file forever.  The age threshold keeps a concurrently
    *live* writer's staging file out of the list — pass ``max_age=0``
    only from an offline tool like ``repro fsck``.

    Returns the (relative) paths, sorted; nothing is touched.
    """

    root = Path(root)
    if not root.is_dir():
        return []
    stale: List[str] = []
    cutoff = time.time() - max_age
    for pattern in patterns:
        for path in root.glob(pattern):
            try:
                if not path.is_file():
                    continue
                if max_age > 0 and path.stat().st_mtime > cutoff:
                    continue
            except OSError:
                continue
            stale.append(str(path.relative_to(root)))
    return sorted(stale)


def sweep_stale_tmp(
    root: Path,
    *,
    max_age: float = 300.0,
    patterns: Iterable[str] = ("*.tmp", "*/*.tmp", "*/*/*.tmp"),
) -> List[str]:
    """Delete the staging files :func:`stale_tmp_files` lists.

    Returns the (relative) paths removed, sorted.
    """

    removed: List[str] = []
    for rel in stale_tmp_files(root, max_age=max_age, patterns=patterns):
        try:
            (Path(root) / rel).unlink()
        except OSError:
            continue
        removed.append(rel)
    return removed


def manifest_digest(jobs: Iterable[Tuple[str, str]]) -> str:
    """Digest identifying a manifest: sha256 over ``(id, fingerprint)``.

    Guards ``--resume`` against replaying a journal written for a
    different manifest: the digest covers job ids *and* fingerprints
    in manifest order, so editing a row, reordering, or re-pinning a
    log all invalidate the journal.
    """

    hasher = hashlib.sha256()
    for job_id, fingerprint in jobs:
        hasher.update(job_id.encode("utf-8"))
        hasher.update(b"\x00")
        hasher.update(fingerprint.encode("utf-8"))
        hasher.update(b"\x01")
    return hasher.hexdigest()


class RunJournal:
    """Append-only, crash-tolerant record of completed batch rows.

    Layout of a run directory::

        <run_dir>/
          run.json        # {"schema", "manifest_digest", "jobs"} — atomic
          journal.jsonl   # one sealed record per completed row — O_APPEND

    Each journal line is ``{"record": {...}, "sha256": <hex>}`` where
    the digest covers the record's canonical JSON.  Lines are written
    with a single ``os.write`` on an ``O_APPEND`` descriptor, so
    concurrent appends never interleave and a crash tears at most the
    final line — which :meth:`load` detects and drops.
    """

    def __init__(self, run_dir: Path) -> None:
        self.run_dir = Path(run_dir)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.path = self.run_dir / "journal.jsonl"
        self.run_file = self.run_dir / "run.json"
        self._fd: Optional[int] = None
        self._lock = threading.Lock()
        #: Lines dropped by :meth:`load` (torn or checksum-invalid).
        self.skipped = 0

    # -- run metadata ------------------------------------------------

    def read_run_info(self) -> Optional[Dict[str, Any]]:
        """Return the ``run.json`` stanza, or ``None`` if absent/torn."""

        try:
            payload = json.loads(self.run_file.read_text("utf-8"))
        except (OSError, ValueError):
            return None
        if not isinstance(payload, dict):
            return None
        return payload

    def write_run_info(self, digest: str, jobs: int) -> None:
        """Atomically record the manifest this journal belongs to."""

        payload = {
            "schema": RUN_SCHEMA,
            "manifest_digest": digest,
            "jobs": jobs,
        }
        tmp = self.run_file.with_name(self.run_file.name + ".partial")
        tmp.write_text(
            json.dumps(payload, sort_keys=True, indent=2) + "\n", "utf-8"
        )
        os.replace(tmp, self.run_file)

    def check_manifest(self, digest: str, *, resume: bool) -> None:
        """Validate the run dir against the manifest being run.

        * resume with a mismatched digest → :class:`ReproError` (the
          journal belongs to a different manifest);
        * a *fresh* run over a directory that already journaled rows →
          :class:`ReproError` (refuse to silently discard progress —
          pass ``--resume`` or choose a new directory).
        """

        info = self.read_run_info()
        if resume:
            if info is not None and info.get("manifest_digest") != digest:
                raise ReproError(
                    "run dir %s was journaled for a different manifest "
                    "(digest %s != %s); use a fresh --run-dir"
                    % (self.run_dir, info.get("manifest_digest"), digest)
                )
        else:
            if self.path.exists() and self.path.stat().st_size > 0:
                raise ReproError(
                    "run dir %s already holds a journal; pass --resume to "
                    "continue it or point --run-dir at a fresh directory"
                    % self.run_dir
                )
        if info is None or info.get("manifest_digest") != digest:
            self.write_run_info(digest, 0)

    # -- appending ---------------------------------------------------

    def _ensure_fd(self) -> int:
        if self._fd is None:
            self._fd = os.open(
                self.path,
                os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                0o644,
            )
        return self._fd

    def append(self, job_id: str, fingerprint: str, row: Dict[str, Any]) -> None:
        """Journal one completed row (line-atomic, durable on return)."""

        record = {
            "schema": JOURNAL_SCHEMA,
            "id": job_id,
            "fingerprint": fingerprint,
            "row": row,
        }
        digest = hashlib.sha256(_canonical(record)).hexdigest()
        line = (
            json.dumps(
                {"record": record, "sha256": digest},
                sort_keys=True,
                separators=(",", ":"),
            )
            + "\n"
        ).encode("utf-8")
        with self._lock:
            os.write(self._ensure_fd(), line)

    def close(self) -> None:
        """Close the append fd (the journal can be reopened by append)."""
        with self._lock:
            if self._fd is not None:
                try:
                    os.close(self._fd)
                finally:
                    self._fd = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- reading -----------------------------------------------------

    def load(self) -> Dict[Tuple[str, str], Dict[str, Any]]:
        """Replay the journal into ``{(id, fingerprint): row}``.

        Torn final lines (from a mid-write kill) and checksum-invalid
        lines are counted in :attr:`skipped` and dropped — their rows
        are simply recomputed by the resuming run.  Later entries for
        the same key win (a row journaled twice by a crash between
        append and collection is harmless).
        """

        entries: Dict[Tuple[str, str], Dict[str, Any]] = {}
        self.skipped = 0
        try:
            raw = self.path.read_bytes()
        except OSError:
            return entries
        for line in raw.splitlines():
            if not line.strip():
                continue
            try:
                parsed = json.loads(line.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                self.skipped += 1
                continue
            record = parsed.get("record") if isinstance(parsed, dict) else None
            if not isinstance(record, dict):
                self.skipped += 1
                continue
            digest = hashlib.sha256(_canonical(record)).hexdigest()
            if digest != parsed.get("sha256"):
                self.skipped += 1
                continue
            if record.get("schema") != JOURNAL_SCHEMA:
                self.skipped += 1
                continue
            job_id = record.get("id")
            fingerprint = record.get("fingerprint")
            row = record.get("row")
            if (
                not isinstance(job_id, str)
                or not isinstance(fingerprint, str)
                or not isinstance(row, dict)
            ):
                self.skipped += 1
                continue
            entries[(job_id, fingerprint)] = row
        return entries
