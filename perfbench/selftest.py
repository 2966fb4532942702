#!/usr/bin/env python3
"""Reduced-size self-test of the benchmark runner.

Runs every workload on one or two of its problems (the pool on two
jobs), plain and traced, and checks what the full runs rely on: outputs
match the pure-Python oracle, an injected signature mismatch is counted
as a failure, spans nest, cross-thread spans stay in their problem's
tree, and the layer shares sum to the traced wall time.  Takes about a
minute; the full-size workloads never run here.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import math
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


class SelfTest:
    def __init__(self):
        self.errors: list[str] = []

    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            self.errors.append(message)


def check_statistics(test: SelfTest, run) -> None:
    test.expect(run.quantile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.5, "quantile interpolates")
    test.expect(run.tail_quantile(130) == 0.9, "p90 with >= 100 samples")
    test.expect(run.tail_quantile(10) == 0.5, "median when no tail has 10 beyond")
    test.expect(math.isclose(run.tail_quantile(40), 0.75), "p75 of 40 samples")


def check_cross_thread_spans(test: SelfTest, spans) -> None:
    """A span opened on another thread joins the main thread's tree."""
    recorder = spans.SpanRecorder()
    problem = recorder.open("problem")
    step2 = recorder.open("step2")
    solve = recorder.open("step2.solve")

    opened = threading.Event()

    def racer():
        span = recorder.open("step2.canonicalize")
        opened.set()
        time.sleep(0.02)
        recorder.close(span)

    thread = threading.Thread(target=racer)
    thread.start()
    opened.wait(timeout=5)
    canonical = recorder.open("step2.canonicalize")
    time.sleep(0.01)
    recorder.close(canonical)
    thread.join(timeout=5)
    test.expect(not thread.is_alive(), "racer thread finished")
    recorder.close(solve)
    recorder.close(step2)
    recorder.close(problem)
    test.expect(not spans.nesting_errors(recorder.spans), "synthetic spans nest")
    other = [s for s in recorder.spans if s["thread"] != problem["thread"]]
    test.expect(
        len(other) == 1 and other[0]["parent"] == solve["id"],
        "cross-thread span takes the main thread's innermost span as parent",
    )
    metrics = spans.layer_metrics(recorder.spans)
    test.expect(
        all(value >= 0 for value in metrics.values()), "no negative layer share"
    )
    test.expect(
        metrics["step2.canonicalize.busy_s"] > metrics["step2.canonicalize.s"],
        "summed canonicalize busy time exceeds its wall-clock union",
    )
    shares = metrics["step2.s"] + metrics["unattributed.s"]
    test.expect(
        math.isclose(shares, metrics["traced_wall.s"], rel_tol=1e-9),
        "layer shares sum to the problem's wall time",
    )


LAYER_SHARES = (
    "artifacts.s", "step1.s", "alg3.s", "step2.s", "diagnose.s", "step3.s",
    "unattributed.s",
)


def check_in_process(test: SelfTest, run, name: str, problems) -> None:
    expected = run.oracle_hashes(problems)
    metrics, _record, outcomes = run.run_in_process(name, problems, 1, trace=False)
    outcomes.verify(expected)
    test.expect(not outcomes.failures, f"{name}: outputs match the oracle {outcomes.failures}")
    for key in ("problems_per_s", "problem_p50_s", "warm_problems_per_s", "peak_rss_mb"):
        test.expect(metrics[key] > 0, f"{name}: {key} is positive")

    tampered = dict(expected)
    tampered[problems[0].pid] = "0" * 16
    before = len(outcomes.failures)
    outcomes.verify(tampered)
    test.expect(
        len(outcomes.failures) == before + 1,
        f"{name}: an injected signature mismatch counts as one failure",
    )

    layers, record, traced = run.run_in_process(name, problems, 1, trace=True)
    traced.verify(expected)
    test.expect(not traced.failures, f"{name}: traced outputs match the oracle")
    test.expect(record["span_count"] > 0, f"{name}: spans recorded")
    test.expect(not record["nesting_errors"], f"{name}: {record['nesting_errors'][:3]}")
    test.expect(layers["step1.s"] > 0 and layers["step2.s"] > 0, f"{name}: layers timed")
    total = sum(layers[key] for key in LAYER_SHARES)
    test.expect(
        math.isclose(total, layers["traced_wall.s"], rel_tol=1e-6),
        f"{name}: layer shares {total} sum to traced wall {layers['traced_wall.s']}",
    )
    test.expect(layers["trace.problems_per_s"] > 0, f"{name}: traced rate reported")


def check_pool(test: SelfTest, run, workloads) -> None:
    logs = workloads.batch_logs(0)
    jobs = [job for job in workloads.batch_jobs(logs) if job.job_id.startswith("running")]
    jobs = jobs[:2]
    problems = [p for p in workloads.batch_problems(logs) if p.pid in {j.job_id for j in jobs}]
    expected = run.oracle_hashes(problems)
    run.OUT.mkdir(parents=True, exist_ok=True)
    trace_path = run.OUT / "trace-selftest.jsonl"
    trace_path.unlink(missing_ok=True)
    outcomes = run.Outcomes()
    latencies: list[float] = []
    executor = run.start_pool(trace_path)
    try:
        wall = run.cold_pass(executor, jobs, outcomes, latencies)
        stats = executor.stats()
    finally:
        executor.shutdown()
    outcomes.verify(expected)
    test.expect(not outcomes.failures, f"pool: results equal in-process {outcomes.failures}")
    test.expect(len(latencies) == len(jobs) and wall > 0, "pool: latencies measured")
    layers = run.batch_layers(trace_path, wall, stats)
    test.expect(layers["artifact_builds"] >= 1, "pool: artifact builds counted")
    test.expect(layers["step1.s"] > 0, "pool: layer seconds read from the job trace")
    test.expect(
        0 < layers["worker_busy_share.max"] <= 1.0 + 1e-6, "pool: busy share in (0, 1]"
    )


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import run
    import spans
    import workloads

    test = SelfTest()
    check_statistics(test, run)
    check_cross_thread_spans(test, spans)
    check_in_process(test, run, "collection_exh", workloads.collection_exh(0)[:2])
    loan = workloads.loan_sweep(0)
    check_in_process(test, run, "loan_sweep", [p for p in loan if p.pid == "loan/BL1"])
    check_in_process(test, run, "long_logs", workloads.long_logs(0)[:1])
    check_pool(test, run, workloads)
    for error in test.errors:
        print(f"FAIL {error}")
    print("selftest ok" if not test.errors else f"selftest: {len(test.errors)} failures")
    return 1 if test.errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
