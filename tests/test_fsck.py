"""``repro fsck`` rule tables: one row per kind of rot, in both modes.

Each broker row seeds one kind of rot into an otherwise healthy
filesystem-broker directory; each store row seeds one corrupt entry
into an ``ArtifactCache`` disk store.  A row asserts the report entry
fsck files for it and, in repair mode, the files it leaves behind; in
report-only mode the report is the same and the tree is untouched.
"""

import json
import pickle
import time

import pytest

from repro.service import ArtifactCache, fsck_store
from repro.service.dist.broker import TaskEnvelope, decode_result, encode_result
from repro.service.dist.fsbroker import FilesystemBroker
from repro.service.fsck import fsck_broker
from repro.service.journal import frame_bytes, seal, unframe_bytes


def _tree(root):
    """Every path under ``root`` with its bytes (``None`` for directories)."""
    return {
        str(path.relative_to(root)): None if path.is_dir() else path.read_bytes()
        for path in root.rglob("*")
    }


def _put(broker, task_id, payload=None):
    broker.put(TaskEnvelope(
        task_id=task_id, kind="call",
        payload=pickle.dumps(("call", 1)) if payload is None else payload,
    ))
    (name,) = [p.name for p in (broker.root / "queue").glob(f"*.{task_id}.task")]
    return name


def _write(broker, rel, data):
    (broker.root / rel).write_bytes(data if isinstance(data, bytes) else data.encode())


def _lease(deadline_in=60.0):
    return json.dumps({"worker": "w", "deadline": time.time() + deadline_in})


# Each seed returns what fsck must report for the rot it planted:
# ``quarantined`` maps a path to the start of its error, ``made`` maps a
# file a repair writes to a text it must contain (for ``.res`` files,
# the error of the result envelope), and ``gone`` lists what a repair
# removes.


def _corrupt_queue_frame(broker):
    name = _put(broker, "t1")
    entry = broker.root / "queue" / name
    entry.write_bytes(entry.read_bytes()[:-3] + b"XXX")
    reason = "payload checksum failed"
    return dict(
        quarantined={f"queue/{name}": reason},
        made={f"quarantine/{name}": "", f"quarantine/{name}.reason": reason,
              "results/t1.res": f"task quarantined by fsck: {reason}"},
        gone=[f"queue/{name}"],
    )


def _undecodable_payload(broker):
    name = _put(broker, "t1", payload=b"\x00not a pickle")
    reason = "payload does not decode"
    return dict(
        quarantined={f"queue/{name}": reason},
        made={f"quarantine/{name}": "", f"quarantine/{name}.reason": reason,
              "results/t1.res": f"task quarantined by fsck: {reason}"},
        gone=[f"queue/{name}"],
    )


def _unparsable_name(broker):
    _write(broker, "queue/junk.task", "junk")
    return dict(
        quarantined={"queue/junk.task": "unparsable entry name"},
        made={"quarantine/junk.task": "junk",
              "quarantine/junk.task.reason": "unparsable entry name"},
        gone=["queue/junk.task"],
    )


def _corrupt_result(broker):
    _write(broker, "results/t1.res", frame_bytes(encode_result(value=1))[:-4] + b"XXXX")
    return dict(
        quarantined={"results/t1.res": "result checksum failed"},
        made={"quarantine/t1.res.bad": "",
              "results/t1.res": "result for task t1 failed its checksum"},
    )


def _orphaned_lease(broker):
    _write(broker, "leases/t9.json", _lease())
    return dict(leases=["leases/t9.json"], gone=["leases/t9.json"])


def _unreadable_lease(broker):
    _put(broker, "t1")
    _write(broker, "leases/t1.json", "{torn")
    return dict(ok=1, leases=["leases/t1.json"], gone=["leases/t1.json"])


def _non_object_lease(broker):
    _put(broker, "t1")
    _write(broker, "leases/t1.json", "[]")
    return dict(ok=1, leases=["leases/t1.json"], gone=["leases/t1.json"])


def _expired_affinity(broker):
    _write(broker, "affinity/k.json", _lease(deadline_in=-1.0))
    return dict(affinities=["affinity/k.json"], gone=["affinity/k.json"])


def _unreadable_affinity(broker):
    _write(broker, "affinity/k.json", "{torn")
    return dict(affinities=["affinity/k.json"], gone=["affinity/k.json"])


def _non_object_affinity(broker):
    _write(broker, "affinity/k.json", "[]")
    return dict(affinities=["affinity/k.json"], gone=["affinity/k.json"])


def _non_numeric_deadline(broker):
    _write(broker, "affinity/k.json", '{"worker": "w", "deadline": "soon"}')
    return dict(affinities=["affinity/k.json"], gone=["affinity/k.json"])


def _stale_tmp(broker):
    _write(broker, "tmp/x.tmp", "{")
    return dict(tmp=["x.tmp"], gone=["tmp/x.tmp"])


BROKER_ROT = {
    "corrupt-queue-frame": _corrupt_queue_frame,
    "undecodable-payload": _undecodable_payload,
    "unparsable-entry-name": _unparsable_name,
    "corrupt-result": _corrupt_result,
    "orphaned-lease": _orphaned_lease,
    "unreadable-lease": _unreadable_lease,
    "non-object-lease": _non_object_lease,
    "expired-affinity": _expired_affinity,
    "unreadable-affinity": _unreadable_affinity,
    "non-object-affinity": _non_object_affinity,
    "non-numeric-deadline": _non_numeric_deadline,
    "stale-tmp": _stale_tmp,
}


def _healthy_broker(root):
    """A broker directory holding one claimed task, one result, one live affinity."""
    broker = FilesystemBroker(root)
    broker.put(TaskEnvelope(task_id="live", kind="call", payload=pickle.dumps(1),
                            affinity="log"))
    assert broker.claim("w", lease=60.0) is not None
    _write(broker, "results/done.res", frame_bytes(encode_result(value=1)))
    return broker


@pytest.mark.parametrize("repair", [True, False], ids=["repair", "report-only"])
@pytest.mark.parametrize("rot", sorted(BROKER_ROT))
def test_fsck_broker_rule(tmp_path, rot, repair):
    broker = _healthy_broker(tmp_path / "q")
    expect = BROKER_ROT[rot](broker)
    quarantined = expect.get("quarantined", {})
    before = _tree(broker.root)

    report = fsck_broker(broker.root, repair=repair)

    # The healthy claimed task and result are always scanned and ok; so
    # is, in repair mode, the error result written for a quarantined task.
    ok = 2 + expect.get("ok", 0) + sum(
        repair and rel.startswith("results/") and rel not in quarantined
        for rel in expect.get("made", {})
    )
    assert report["scanned"] == ok + len(quarantined)
    assert report["ok"] == ok
    assert {bad["path"] for bad in report["quarantined"]} == set(quarantined)
    for bad in report["quarantined"]:
        assert bad["error"].startswith(quarantined[bad["path"]])
    assert report["orphaned_leases_removed"] == expect.get("leases", [])
    assert report["expired_affinities_removed"] == expect.get("affinities", [])
    assert report["tmp_removed"] == expect.get("tmp", [])
    removed = (len(quarantined) + len(expect.get("leases", []))
               + len(expect.get("affinities", [])))
    assert report["repaired"] == (removed if repair else 0)
    if not repair:
        assert _tree(broker.root) == before
        return
    for rel in expect.get("gone", []):
        assert not (broker.root / rel).exists(), rel
    for rel, text in expect.get("made", {}).items():
        data = (broker.root / rel).read_bytes()
        if rel.endswith(".res"):
            data = decode_result(unframe_bytes(data))["error"].encode()
        assert text.encode() in data, (rel, data)
    # The healthy entries are untouched, and a second pass is clean.
    assert len(list((broker.root / "claimed").glob("*.task"))) == 1
    assert (broker.root / "leases" / "live.json").exists()
    assert (broker.root / "affinity" / "log.json").exists()
    again = fsck_broker(broker.root, repair=True)
    assert again["quarantined"] == []
    assert again["repaired"] == 0


def test_report_only_fsck_creates_nothing_in_a_partial_directory(tmp_path):
    root = tmp_path / "q"
    (root / "queue").mkdir(parents=True)
    (root / "queue" / "junk.task").write_text("junk")
    (root / "leases").mkdir()
    (root / "leases" / "t1.json").write_text(_lease())
    before = _tree(root)
    report = fsck_broker(root, repair=False)
    assert [bad["path"] for bad in report["quarantined"]] == ["queue/junk.task"]
    assert report["orphaned_leases_removed"] == ["leases/t1.json"]
    assert _tree(root) == before


def _selection_entry(objective):
    from repro.selection2.portfolio import ComponentSolution

    return ComponentSolution(status="optimal", groups=(("a", "b"),),
                             objective=objective, nodes=1, backend="bnb")


STORE_ROT = {
    "torn": ("unreadable: ", lambda path: path.write_text("{torn")),
    "checksum": ("checksum: ", lambda path: path.write_text(
        path.read_text().replace('"objective": 2.0', '"objective": 3.0'))),
    "schema": ("schema: ", lambda path: path.write_text(
        json.dumps(seal({"schema": "gecco-unknown/9"})))),
}


@pytest.mark.parametrize("repair", [True, False], ids=["repair", "report-only"])
@pytest.mark.parametrize("tier", ["results", "selection"])
@pytest.mark.parametrize("rot", sorted(STORE_ROT))
def test_fsck_store_rule(tmp_path, rot, tier, repair):
    store = tmp_path / "store"
    cache = ArtifactCache(disk_dir=store)
    cache.put_selection("aa11", _selection_entry(1.0))  # the healthy control
    cache.put_selection("cd34", _selection_entry(2.0))
    rel = "selection/cd/cd34.json"
    if tier == "results":
        (store / "cd").mkdir()
        (store / "selection/cd/cd34.json").rename(store / "cd" / "cd34.json")
        rel = "cd/cd34.json"
    error, rot_entry = STORE_ROT[rot]
    rot_entry(store / rel)
    before = _tree(store)

    report = fsck_store(store, repair=repair)

    assert (report["scanned"], report["ok"]) == (2, 1)
    (bad,) = report["quarantined"]
    assert bad["path"] == rel and bad["error"].startswith(error)
    assert report["repaired"] == (1 if repair else 0)
    if not repair:
        assert _tree(store) == before
        return
    assert not (store / rel).exists()
    assert (store / "quarantine" / "cd34.json.bad").exists()
    assert fsck_store(store)["quarantined"] == []
