"""The fleet supervisor behind ``repro fleet --workers N --broker URL``.

A crashed ``repro worker`` stays dead until a human restarts it; the
supervisor closes that gap.  It spawns ``workers`` worker processes
against one broker and babysits them:

* a slot whose process dies is **restarted** after a seeded
  :class:`~repro.service.resilience.RetryPolicy` backoff (per-slot
  keys, so a mass crash does not respawn the whole fleet in lockstep);
* a slot that crashes ``max_restarts`` times within
  ``restart_window`` seconds is a **crash loop**: the slot is
  quarantined — taken out of service and reported — instead of burning
  CPU respawning a worker that will die again (the broker's own
  ``max_attempts`` budget separately quarantines the *task* a crash
  loop chases);
* SIGTERM/SIGINT **drain gracefully**: the supervisor raises the
  broker's cooperative stop flag, every worker finishes its current
  job (see the worker loop's own signal handling) and exits, and only
  stragglers past ``drain_timeout`` are terminated;
* everything is traced — ``supervisor_started``, ``worker_restart``
  (slot, exit code, restart count), ``supervisor_slot_quarantined``,
  and ``supervisor_exit`` events land in the same trace file as the
  workers' events, so ``repro doctor`` and ``repro top`` see restarts
  next to the lease churn they cause.

The supervisor holds no job state: exactly-once semantics come
entirely from the broker (leases, requeue sweeps, attempt budgets),
so killing and restarting the supervisor itself is always safe.
"""

from __future__ import annotations

import os
import signal
import time
from collections import deque
from dataclasses import dataclass, field

from repro.obs.trace import as_tracer
from repro.service.dist.broker import connect_broker
from repro.service.resilience import RetryPolicy

#: Default backoff between a slot's death and its respawn.
_RESTART_BACKOFF = RetryPolicy(
    attempts=1_000_000, base_delay=0.2, max_delay=5.0, seed="fleet-restart"
)


@dataclass
class _Slot:
    """One supervised worker slot."""

    index: int
    process: object = None
    restarts: int = 0
    last_exitcode: "int | None" = None
    quarantined: bool = False
    next_spawn_at: float = 0.0
    history: deque = field(default_factory=deque)

    def as_dict(self) -> dict:
        return {
            "slot": self.index,
            "restarts": self.restarts,
            "last_exitcode": self.last_exitcode,
            "quarantined": self.quarantined,
        }


def _fleet_worker_main(
    broker_url: str,
    cache_dir: "str | None",
    lease: float,
    poll_interval: float,
    trace: "str | None",
    trace_rotate_mb: "float | None",
    chaos=None,
) -> None:
    """Entry point of one supervised worker process."""
    from repro.service.dist.worker import worker_loop

    broker = connect_broker(broker_url)
    if chaos is not None and chaos.any_faults():
        from repro.service.dist.chaos import ChaosBroker

        broker = ChaosBroker(broker, chaos)
    try:
        worker_loop(
            broker, cache_dir=cache_dir, lease=lease,
            poll_interval=poll_interval, trace=trace,
            trace_rotate_mb=trace_rotate_mb,
        )
    finally:
        broker.close()


class FleetSupervisor:
    """Spawn, monitor, restart, and drain a local worker fleet.

    Parameters
    ----------
    broker_url:
        The broker every worker connects to (``fs://`` or a bare
        directory path).
    workers:
        Number of supervised slots.
    cache_dir / lease / poll_interval / trace / trace_rotate_mb:
        Passed through to each slot's
        :func:`~repro.service.dist.worker.worker_loop`.
    restart_window / max_restarts:
        Crash-loop policy: ``max_restarts`` restarts of one slot within
        ``restart_window`` seconds quarantine the slot.
    backoff:
        :class:`~repro.service.resilience.RetryPolicy` whose
        :meth:`~repro.service.resilience.RetryPolicy.delay` schedules
        respawns (attempt = the slot's restart count, key = the slot
        index — deterministic, desynchronized across slots).
    idle_exit:
        Drain automatically once the broker has had no queued or
        claimed tasks for this many seconds (``None`` = run until
        signalled).  This is how batch drivers and tests bound a fleet.
    chaos:
        Optional :class:`~repro.service.dist.chaos.ChaosConfig` each
        worker wraps its broker connection in (``--chaos-kill-rate``
        turns the fleet into its own crash test).
    drain_timeout:
        Seconds to wait for workers to finish their current job after
        the stop flag is raised before terminating them.
    """

    def __init__(
        self,
        broker_url: str,
        workers: int = 2,
        cache_dir=None,
        lease: float = 60.0,
        poll_interval: float = 0.05,
        trace=None,
        trace_rotate_mb: "float | None" = None,
        restart_window: float = 30.0,
        max_restarts: int = 3,
        backoff: "RetryPolicy | None" = None,
        idle_exit: "float | None" = None,
        chaos=None,
        drain_timeout: float = 10.0,
        check_interval: float = 0.1,
        mp_context: "str | None" = None,
    ):
        if workers < 1:
            raise ValueError("fleet needs at least one worker slot")
        if max_restarts < 1:
            raise ValueError("max_restarts must be >= 1")
        self.broker_url = broker_url
        self.workers = workers
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self.lease = lease
        self.poll_interval = poll_interval
        self.trace = trace
        self.trace_rotate_mb = trace_rotate_mb
        self.restart_window = restart_window
        self.max_restarts = max_restarts
        self.backoff = backoff if backoff is not None else _RESTART_BACKOFF
        self.idle_exit = idle_exit
        self.chaos = chaos
        self.drain_timeout = drain_timeout
        self.check_interval = check_interval
        self._mp_context = mp_context
        self._slots = [_Slot(index=i) for i in range(workers)]
        self._stop_signal: "int | None" = None
        self._stop_requested = False
        self._tracer = None

    # -- control -----------------------------------------------------

    def request_stop(self) -> None:
        """Ask the supervisor to drain (thread-safe, used by tests)."""
        self._stop_requested = True

    # -- internals ---------------------------------------------------

    def _emit(self, event: str, **fields) -> None:
        if self._tracer is not None:
            self._tracer.emit(event, **fields)

    def _spawn(self, slot: _Slot) -> None:
        import multiprocessing

        context_name = self._mp_context
        if context_name is None:
            methods = multiprocessing.get_all_start_methods()
            context_name = "fork" if "fork" in methods else "spawn"
        context = multiprocessing.get_context(context_name)
        trace = self.trace if not hasattr(self.trace, "emit") else None
        process = context.Process(
            target=_fleet_worker_main,
            args=(
                self.broker_url, self.cache_dir, self.lease,
                self.poll_interval,
                str(trace) if trace is not None else None,
                self.trace_rotate_mb, self.chaos,
            ),
            daemon=True,
        )
        process.start()
        slot.process = process

    def _note_death(self, slot: _Slot, now: float, draining: bool) -> None:
        """Handle one dead slot process: restart, or quarantine."""
        exitcode = slot.process.exitcode
        slot.process.join(timeout=0)
        slot.process = None
        slot.last_exitcode = exitcode
        if draining:
            return
        slot.restarts += 1
        slot.history.append(now)
        while slot.history and now - slot.history[0] > self.restart_window:
            slot.history.popleft()
        if len(slot.history) >= self.max_restarts:
            slot.quarantined = True
            self._emit(
                "supervisor_slot_quarantined",
                slot=slot.index,
                restarts=slot.restarts,
                window_s=self.restart_window,
                exitcode=exitcode,
            )
            return
        delay = self.backoff.delay(slot.restarts - 1, key=f"slot-{slot.index}")
        slot.next_spawn_at = now + delay
        self._emit(
            "worker_restart",
            slot=slot.index,
            exitcode=exitcode,
            restarts=slot.restarts,
            backoff_s=round(delay, 4),
        )

    def _drain(self, broker) -> None:
        """Raise the stop flag and wait for workers to finish cleanly."""
        try:
            broker.request_stop()
        except Exception:
            pass
        deadline = time.time() + self.drain_timeout
        for slot in self._slots:
            process = slot.process
            if process is None:
                continue
            process.join(timeout=max(0.0, deadline - time.time()))
            if process.is_alive():
                process.terminate()
                process.join(timeout=2.0)
            if process.is_alive():
                process.kill()
                process.join(timeout=2.0)
            slot.last_exitcode = process.exitcode
            slot.process = None

    # -- main loop ---------------------------------------------------

    def run(self) -> dict:
        """Supervise until drained; return the fleet report."""
        self._tracer = as_tracer(
            self.trace,
            worker=f"supervisor-{os.getpid()}",
            rotate_mb=self.trace_rotate_mb,
        )
        previous_handlers = {}

        def _handle(signum, frame):  # pragma: no cover - signal path
            self._stop_signal = signum

        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                previous_handlers[signum] = signal.signal(signum, _handle)
            except ValueError:
                break  # not the main thread (tests); rely on request_stop
        broker = connect_broker(self.broker_url)
        raised_stop = False
        drained_by = "all_slots_quarantined"
        self._emit(
            "supervisor_started",
            workers=self.workers,
            broker=self.broker_url,
            max_restarts=self.max_restarts,
            restart_window_s=self.restart_window,
        )
        idle_since = time.time()
        try:
            for slot in self._slots:
                self._spawn(slot)
            while True:
                if self._stop_signal is not None:
                    drained_by = signal.Signals(self._stop_signal).name
                    break
                if self._stop_requested:
                    drained_by = "stop_requested"
                    break
                now = time.time()
                for slot in self._slots:
                    if slot.quarantined:
                        continue
                    if slot.process is None:
                        if now >= slot.next_spawn_at:
                            self._spawn(slot)
                        continue
                    if not slot.process.is_alive():
                        self._note_death(slot, now, draining=False)
                if all(slot.quarantined for slot in self._slots):
                    break
                if self.idle_exit is not None:
                    try:
                        stats = broker.stats()
                        busy = stats.get("queued", 0) + stats.get("claimed", 0)
                    except Exception:
                        busy = 1
                    if busy:
                        idle_since = now
                    elif now - idle_since >= self.idle_exit:
                        drained_by = "idle"
                        break
                time.sleep(self.check_interval)
            raised_stop = True
            self._drain(broker)
        finally:
            for signum, handler in previous_handlers.items():
                try:
                    signal.signal(signum, handler)
                except (ValueError, TypeError):
                    pass
            if raised_stop:
                # Leave the broker dir reusable for the next fleet.
                try:
                    broker.clear_stop()
                except Exception:
                    pass
            report = {
                "schema": "gecco-fleet/1",
                "broker": self.broker_url,
                "workers": self.workers,
                "drained_by": drained_by,
                "restarts": sum(slot.restarts for slot in self._slots),
                "quarantined_slots": [
                    slot.index for slot in self._slots if slot.quarantined
                ],
                "slots": [slot.as_dict() for slot in self._slots],
            }
            self._emit(
                "supervisor_exit",
                drained_by=drained_by,
                restarts=report["restarts"],
                quarantined_slots=report["quarantined_slots"],
            )
            try:
                broker.close()
            except Exception:
                pass
        return report


def run_fleet(broker_url: str, **kwargs) -> dict:
    """Convenience wrapper: build a :class:`FleetSupervisor` and run it."""
    return FleetSupervisor(broker_url, **kwargs).run()
