"""``repro doctor`` — offline forensics over merged fleet traces.

The doctor turns raw trace events (:mod:`repro.obs.trace`) into the
questions an operator actually asks after a bad night:

* **what failed, and why** — a taxonomy of retries (by op and cause),
  requeues (lease expiry vs voluntary release), quarantines (by
  reason), admission sheds (by cause), and deadline failures (by
  stage);
* **who is hurting** — top-offender jobs (most redeliveries and
  failures) and workers (quarantines, heartbeat errors, broker errors,
  from their final ``worker_exit`` stats);
* **where the time goes** — p50/p99 of queue wait (a job's first
  ``submitted`` or ``queued`` → each ``claimed``), artifact build,
  solve and its stages, and end-to-end job latency;
* **is the cache working** — hit counts per tier from ``cache_hit``
  events plus true hit *rates* from worker cache snapshots;
* **when it happened** — a chronological incident timeline;
* **what to change** — :func:`recommend` turns the taxonomy, latency,
  and cache sections into evidence-backed tuning suggestions
  (``repro doctor --recommend``), each citing the counts that
  triggered it.

Span-bearing traces (``trace_id``/``span_id``/``parent_span``) get a
``spans`` section with exact parent/child trees: every claimed job's
worker-side events nest under its submit span.  Pre-span traces parse
unchanged, with an empty ``spans`` section.

The events are folded by :class:`~repro.obs.live.LiveAggregator`, the
reducer behind ``repro top``, with no window; its docstring states the
attribution rules.  Redeliveries split into voluntary releases and
lease expiry — with a ``heartbeat`` error in between, heartbeat loss
rather than worker death — which is the fault vocabulary the chaos
harness (:mod:`repro.service.dist.chaos`) injects, so a seeded chaos
drill can assert every injected fault class lands in its bucket.
"""

from __future__ import annotations

import json
from collections import Counter as TallyCounter

from repro.obs.live import LiveAggregator
from repro.obs.trace import merge_traces

#: Doctor report schema tag.
DOCTOR_SCHEMA = "gecco-doctor/1"


def analyze_trace(paths_or_events) -> dict:
    """Merge traces and distill them into one forensics report dict.

    Accepts a list of trace file paths, or (for tests and embedding) a
    pre-merged list of event dicts.  The events are folded by
    ``repro top``'s reducer with no window
    (:class:`~repro.obs.live.LiveAggregator` with ``window=None``), so
    both commands count a trace the same way; this function only
    shapes the aggregator's counters, stage samples, span nodes and
    incidents into the report.  Returns a JSON-ready report; see
    ``docs/observability.md`` for the field reference.
    """
    if paths_or_events and isinstance(paths_or_events[0], dict):
        events = paths_or_events
    else:
        events = merge_traces(paths_or_events)
    trace = LiveAggregator(window=None)
    trace.feed(events)

    hit_rates = {}
    lookups = {}
    for tier, counters in sorted(trace.cache_totals.items()):
        hits, misses = counters["hits"], counters["misses"]
        if hits + misses:
            hit_rates[tier] = round(hits / (hits + misses), 4)
            lookups[tier] = int(hits + misses)
    # Redelivered jobs first: ``most_common`` breaks ties by that order.
    job_trouble = TallyCounter(trace.redelivered_jobs)
    job_trouble.update(trace.job_trouble)
    worker_trouble = sorted(
        trace.worker_rows, key=lambda w: (-w["trouble_score"], str(w["worker"]))
    )
    return {
        "schema": DOCTOR_SCHEMA,
        "events": trace.events,
        "event_counts": dict(sorted(trace.event_counts.items())),
        "workers": sorted(name for name in trace.workers if name),
        "taxonomy": trace.taxonomy(),
        "latency": trace.latency(),
        "cache": {
            "tier_hits": dict(sorted(trace.tier_hits.items())),
            "hit_rates": hit_rates,
            "lookups": lookups,
        },
        "spans": trace.spans(),
        "offenders": {
            "jobs": [
                {"job": job, "trouble_score": score}
                for job, score in job_trouble.most_common(10)
            ],
            "workers": worker_trouble[:10],
        },
        "timeline": [entry for _, entry in trace.incidents],
    }


#: Evidence thresholds for :func:`recommend`.  Kept as one flat table
#: so the boundary tests and the docs cite the same numbers.
RECOMMEND_THRESHOLDS = {
    "lease_expired_min": 2,       # lease redeliveries before lease advice
    "poison_min": 1,              # poison quarantines before payload advice
    "released_min": 1,            # voluntary releases paired with poison
    "attempts_exhausted_min": 1,  # attempt-budget quarantines
    "shed_min": 1,                # admission sheds before capacity advice
    "cache_lookups_min": 20,      # lookups before judging a tier's hit rate
    "cache_hit_rate_max": 0.5,    # below this the disk tier is undersized
    "queue_wait_ratio": 2.0,      # queue-wait p50 vs solve p50 multiple
    "queue_wait_count_min": 5,    # queue-wait samples before scaling advice
    "worker_restart_min": 3,      # supervisor restarts before crash advice
    "slot_quarantine_min": 1,     # quarantined fleet slots (always advise)
}


def recommend(report: dict) -> list[dict]:
    """Turn an :func:`analyze_trace` report into tuning suggestions.

    Every recommendation is evidence-backed: the rule only fires past
    the :data:`RECOMMEND_THRESHOLDS` floor and the returned dict cites
    the exact counts that triggered it, so an operator can check the
    arithmetic before touching a flag.  A healthy trace returns ``[]``.
    """
    thresholds = RECOMMEND_THRESHOLDS
    tax = report.get("taxonomy", {})
    latency = report.get("latency", {})
    cache = report.get("cache", {})
    recs: list[dict] = []

    redeliveries = tax.get("redeliveries", {})
    lease_expired = redeliveries.get("lease_expired", 0)
    released = redeliveries.get("released", 0)
    heartbeat_errors = tax.get("heartbeat_errors", 0)
    if (
        lease_expired >= thresholds["lease_expired_min"]
        and lease_expired >= released
    ):
        recs.append({
            "id": "lease_tuning",
            "severity": "warning",
            "message": (
                f"{lease_expired} redelivery(ies) came from lease expiry "
                f"vs {released} voluntary release(s)"
                + (
                    f" with {heartbeat_errors} heartbeat error(s)"
                    if heartbeat_errors
                    else ""
                )
                + "; raise --lease or shorten the heartbeat interval so "
                "healthy workers keep their claims."
            ),
            "evidence": {
                "redeliveries_lease_expired": lease_expired,
                "redeliveries_released": released,
                "heartbeat_errors": heartbeat_errors,
            },
        })

    quarantines = tax.get("quarantines", {})
    poison = quarantines.get("poison_payload", 0)
    releases = tax.get("releases", 0)
    if (
        poison >= thresholds["poison_min"]
        and releases >= thresholds["released_min"]
    ):
        recs.append({
            "id": "max_attempts_tuning",
            "severity": "warning",
            "message": (
                f"{releases} payload release(s) ended in {poison} poison "
                "quarantine(s): the redelivery budget is being spent on "
                "undecodable payloads. Inspect the quarantine directory; "
                "if corruption is transient, raise --max-attempts, "
                "otherwise fix the producer."
            ),
            "evidence": {
                "releases": releases,
                "quarantines_poison_payload": poison,
            },
        })

    exhausted = quarantines.get("attempts_exhausted", 0)
    if exhausted >= thresholds["attempts_exhausted_min"]:
        recs.append({
            "id": "attempts_exhausted",
            "severity": "warning",
            "message": (
                f"{exhausted} task(s) burned their full attempt budget "
                "before quarantine; inspect those jobs for crash loops "
                "before raising --max-attempts."
            ),
            "evidence": {"quarantines_attempts_exhausted": exhausted},
        })

    hit_rates = cache.get("hit_rates", {})
    lookups = cache.get("lookups", {})
    for tier in sorted(hit_rates):
        if not tier.startswith("disk"):
            continue
        rate = hit_rates[tier]
        seen = lookups.get(tier, 0)
        if (
            seen >= thresholds["cache_lookups_min"]
            and rate < thresholds["cache_hit_rate_max"]
        ):
            recs.append({
                "id": f"disk_cache_sizing:{tier}",
                "severity": "info",
                "message": (
                    f"cache tier {tier} hit only {rate:.0%} of {seen} "
                    "lookup(s); raise --disk-max-entries/--disk-max-bytes "
                    "so warm results survive eviction."
                ),
                "evidence": {"tier": tier, "hit_rate": rate,
                             "lookups": seen},
            })

    queue_wait = latency.get("queue_wait", {})
    solve = latency.get("solve", {})
    wait_p50 = queue_wait.get("p50_s", 0.0)
    solve_p50 = solve.get("p50_s", 0.0)
    if (
        queue_wait.get("count", 0) >= thresholds["queue_wait_count_min"]
        and solve.get("count", 0) > 0
        and solve_p50 > 0
        and wait_p50 > thresholds["queue_wait_ratio"] * solve_p50
    ):
        recs.append({
            "id": "worker_scaling",
            "severity": "info",
            "message": (
                f"median queue wait {wait_p50:.3f}s is more than "
                f"{thresholds['queue_wait_ratio']:.0f}x the median solve "
                f"time {solve_p50:.3f}s over {queue_wait['count']} "
                "sample(s); add workers (or raise --workers) to drain "
                "the queue faster."
            ),
            "evidence": {
                "queue_wait_p50_s": wait_p50,
                "solve_p50_s": solve_p50,
                "queue_wait_count": queue_wait.get("count", 0),
            },
        })

    restarts = tax.get("worker_restarts", 0)
    slot_quarantines = tax.get("slot_quarantines", 0)
    if (
        slot_quarantines >= thresholds["slot_quarantine_min"]
        or restarts >= thresholds["worker_restart_min"]
    ):
        recs.append({
            "id": "crash_loop",
            "severity": "warning",
            "message": (
                f"the supervisor restarted workers {restarts} time(s) and "
                f"quarantined {slot_quarantines} slot(s); workers are "
                "dying repeatedly. Check the quarantine directory for the "
                "poisonous task a crash loop chases, and worker stderr "
                "for OOM kills, before re-enabling the slots."
            ),
            "evidence": {
                "worker_restarts": restarts,
                "slot_quarantines": slot_quarantines,
            },
        })

    sheds = tax.get("sheds", {})
    shed_total = sum(sheds.values())
    if shed_total >= thresholds["shed_min"]:
        recs.append({
            "id": "admission_shedding",
            "severity": "info",
            "message": (
                f"{shed_total} submission(s) were shed "
                f"({', '.join(f'{k}={v}' for k, v in sorted(sheds.items()))}); "
                "raise --max-load / per-tenant quotas or add capacity if "
                "this load is expected."
            ),
            "evidence": {"sheds": dict(sorted(sheds.items()))},
        })

    return recs


def render_report(report: dict) -> str:
    """Human-readable rendering of an :func:`analyze_trace` report."""
    lines: list[str] = []
    out = lines.append
    out(f"repro doctor — {report['events']} events from "
        f"{len(report['workers'])} worker(s)")
    out("")
    out("Event counts:")
    for name, count in report["event_counts"].items():
        out(f"  {name:<18} {count}")
    tax = report["taxonomy"]
    out("")
    out("Failure taxonomy:")
    out(f"  redeliveries       lease_expired={tax['redeliveries']['lease_expired']} "
        f"released={tax['redeliveries']['released']}")
    out(f"  requeue sweeps     moved {tax['requeue_sweep_moves']} task(s)")
    out(f"  voluntary releases {tax['releases']}")
    out(f"  heartbeat errors   {tax['heartbeat_errors']}")
    if tax.get("worker_restarts") or tax.get("slot_quarantines"):
        out(f"  worker restarts    {tax.get('worker_restarts', 0)} "
            f"(slots quarantined: {tax.get('slot_quarantines', 0)})")
    for label, table in (
        ("retries", tax["retries"]),
        ("quarantines", tax["quarantines"]),
        ("sheds", tax["sheds"]),
        ("deadline_exceeded", tax["deadline_exceeded"]),
        ("degraded", tax["degraded"]),
    ):
        if table:
            out(f"  {label}:")
            for key, count in table.items():
                out(f"    {key:<28} {count}")
    out(f"  job failures       {tax['job_failures']}")
    out("")
    out("Latency (seconds):")
    for stage, summary in report["latency"].items():
        out(f"  {stage:<16} n={summary['count']:<5} "
            f"p50={summary['p50_s']:.4f} p99={summary['p99_s']:.4f} "
            f"total={summary['total_s']:.3f}")
    cache = report["cache"]
    if cache["tier_hits"] or cache["hit_rates"]:
        out("")
        out("Cache:")
        for tier, hits in cache["tier_hits"].items():
            out(f"  hits[{tier}] = {hits}")
        for tier, rate in cache["hit_rates"].items():
            out(f"  hit_rate[{tier}] = {rate:.2%}")
    spans = report.get("spans") or {}
    if spans.get("span_events"):
        out("")
        out(f"Spans: {spans['span_events']} span-bearing event(s), "
            f"{spans['traced_jobs']} traced job(s), "
            f"max depth {spans['max_depth']}")

        def walk(node: dict, indent: int) -> None:
            label = node["event"]
            extra = []
            if node.get("worker"):
                extra.append(str(node["worker"]))
            if node.get("fingerprint"):
                extra.append(node["fingerprint"])
            if node.get("seconds") is not None:
                extra.append(f"{node['seconds']:.4f}s")
            if node.get("annotations"):
                extra.append("+" + ",".join(node["annotations"]))
            out("  " * indent + f"  {label} [{node['span_id'][:8]}]"
                + (" " + " ".join(extra) if extra else ""))
            for child in node.get("children", ()):
                walk(child, indent + 1)

        for tree in spans.get("trees", ())[:5]:
            walk(tree, 0)
    offenders = report["offenders"]
    if offenders["jobs"]:
        out("")
        out("Top-offender jobs:")
        for entry in offenders["jobs"]:
            out(f"  {entry['job'][:40]:<42} trouble={entry['trouble_score']}")
    if offenders["workers"]:
        out("")
        out("Workers:")
        for w in offenders["workers"]:
            out(f"  {w['worker']:<28} completed={w['completed']} "
                f"failed={w['failed']} quarantined={w['quarantined']} "
                f"released={w['released']} hb_err={w['heartbeat_errors']} "
                f"broker_err={w['broker_errors']}")
    if report["timeline"]:
        out("")
        out("Incident timeline:")
        for entry in report["timeline"][:50]:
            what = entry.get("reason", "")
            who = entry.get("worker", "")
            ref = entry.get("task_id") or entry.get("fingerprint") or ""
            attempt = entry.get("attempt")
            tag = f" attempt={attempt}" if attempt is not None else ""
            out(f"  {entry['ts']:.3f} {entry['event']:<18} {ref[:16]:<16} "
                f"{who}{tag} {what}".rstrip())
        if len(report["timeline"]) > 50:
            out(f"  ... {len(report['timeline']) - 50} more")
    if "recommendations" in report:
        out("")
        recs = report["recommendations"]
        if recs:
            out("Recommendations:")
            for rec in recs:
                out(f"  [{rec['severity']}] {rec['id']}")
                out(f"    {rec['message']}")
                evidence = ", ".join(
                    f"{k}={v}" for k, v in rec["evidence"].items()
                )
                out(f"    evidence: {evidence}")
        else:
            out("Recommendations: none — trace looks healthy.")
    return "\n".join(lines) + "\n"


def main_doctor(paths, as_json: bool = False,
                recommend_flag: bool = False) -> str:
    """The ``repro doctor`` entry point body (CLI wires argv to this)."""
    report = analyze_trace(list(paths))
    if recommend_flag:
        report["recommendations"] = recommend(report)
    if as_json:
        return json.dumps(report, indent=2, sort_keys=False) + "\n"
    return render_report(report)
