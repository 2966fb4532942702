"""Lock-cheap metrics registry with a Prometheus-text ``/metrics`` endpoint.

The executor stack already counts everything that matters — scheduler
dispatches, affinity hits, cache tiers, admission sheds, requeues,
breaker state — but each component keeps its own ``stats()`` dict.
This module gives them one home:

* :class:`Counter` / :class:`Gauge` / :class:`Histogram` — the three
  instrument kinds, each supporting label sets (``inc(1, worker="w0")``)
  behind a single registry lock held only for a dict update;
* :class:`MetricsRegistry` — creates instruments idempotently and
  renders the whole set in the Prometheus text exposition format
  (version 0.0.4: ``# HELP``/``# TYPE`` headers, ``le`` buckets with
  ``+Inf``, ``_sum``/``_count`` series);
* :func:`sync_executor_stats` / :func:`sync_worker_stats` — absorb the
  ad-hoc ``stats()`` dicts (executor scheduler/admission/broker/cache,
  per-worker snapshots, :class:`~repro.service.dist.worker.WorkerStats`)
  into gauges, called before every scrape so the endpoint always
  reflects live state;
* :class:`MetricsServer` — a daemon-thread ``http.server`` bound to
  ``--metrics-port`` on ``repro serve`` / ``repro worker`` that answers
  ``GET /metrics``.

Zero dependencies, and instruments are safe to update from any thread.
"""

from __future__ import annotations

import threading

#: Default histogram bucket upper bounds (seconds) — spans the fast
#: cache-hit path (sub-millisecond) through multi-minute solves.
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
    30.0, 60.0, 120.0, 300.0,
)


def _label_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


def _format_labels(key: tuple, extra: str = "") -> str:
    parts = [f'{name}="{_escape(value)}"' for name, value in key]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _escape(value) -> str:
    return str(value).replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


class _Scalar:
    """One number per label set; the body :class:`Counter` and :class:`Gauge` share."""

    def __init__(self, name: str, help: str, lock: threading.Lock):
        self.name = name
        self.help = help
        self._lock = lock
        self._values: dict[tuple, float] = {}

    def inc(self, value: float = 1.0, /, **labels) -> None:
        """Add ``value`` (default 1) to the series for ``labels``."""
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + value

    def value(self, **labels) -> float:
        """Current value for ``labels`` (0 when never touched)."""
        return self._values.get(_label_key(labels), 0.0)

    def render(self) -> list[str]:
        """Exposition-format lines for this instrument."""
        lines = [f"# HELP {self.name} {self.help}", f"# TYPE {self.name} {self.kind}"]
        for key in sorted(self._values):
            lines.append(
                f"{self.name}{_format_labels(key)} "
                f"{_format_value(self._values[key])}"
            )
        if not self._values:
            lines.append(f"{self.name} 0")
        return lines


class Counter(_Scalar):
    """A monotonically increasing value, optionally per label set."""

    kind = "counter"


class Gauge(_Scalar):
    """A value that can go up and down, optionally per label set."""

    kind = "gauge"

    def set(self, value: float, /, **labels) -> None:
        """Replace the series for ``labels`` with ``value``."""
        with self._lock:
            self._values[_label_key(labels)] = value


class Histogram:
    """Cumulative-bucket histogram with fixed upper bounds.

    Bounds are fixed at construction (Prometheus convention), so an
    observation is one pass over a short tuple plus two adds — cheap
    enough for per-job timing in the hot path.
    """

    kind = "histogram"

    def __init__(
        self, name: str, help: str, lock: threading.Lock, buckets=DEFAULT_BUCKETS
    ):
        self.name = name
        self.help = help
        self.buckets = tuple(sorted(buckets))
        self._lock = lock
        # per label set: ([count per bound] + [+Inf count], sum, count)
        self._series: dict[tuple, list] = {}

    def observe(self, value: float, /, **labels) -> None:
        """Record one observation of ``value`` for ``labels``."""
        key = _label_key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = [[0] * (len(self.buckets) + 1), 0.0, 0]
                self._series[key] = series
            counts, _, _ = series
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    counts[i] += 1
            counts[-1] += 1
            series[1] += value
            series[2] += 1

    def count(self, **labels) -> int:
        """Number of observations recorded for ``labels``."""
        series = self._series.get(_label_key(labels))
        return series[2] if series else 0

    def render(self) -> list[str]:
        """Exposition-format lines: ``_bucket``/``_sum``/``_count``."""
        lines = [f"# HELP {self.name} {self.help}", f"# TYPE {self.name} histogram"]
        for key in sorted(self._series):
            counts, total, n = self._series[key]
            for i, bound in enumerate(self.buckets):
                le = 'le="%s"' % _format_value(bound)
                lines.append(
                    f"{self.name}_bucket{_format_labels(key, le)} {counts[i]}"
                )
            inf_le = 'le="+Inf"'
            lines.append(
                f"{self.name}_bucket{_format_labels(key, inf_le)} {counts[-1]}"
            )
            lines.append(f"{self.name}_sum{_format_labels(key)} {_format_value(total)}")
            lines.append(f"{self.name}_count{_format_labels(key)} {n}")
        return lines


class MetricsRegistry:
    """A named set of instruments rendered as one Prometheus page.

    Instrument constructors are idempotent: asking for an existing name
    returns the existing instrument (and raises if the kind differs),
    so call sites do not need to coordinate registration order.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._instruments: dict[str, object] = {}

    def _get(self, cls, name: str, help: str, **kwargs):
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                return existing
            instrument = cls(name, help, self._lock, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        """Create (or return the existing) :class:`Counter` ``name``."""
        return self._get(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Create (or return the existing) :class:`Gauge` ``name``."""
        return self._get(Gauge, name, help)

    def histogram(self, name: str, help: str = "", buckets=DEFAULT_BUCKETS) -> Histogram:
        """Create (or return the existing) :class:`Histogram` ``name``."""
        return self._get(Histogram, name, help, buckets=buckets)

    def render(self) -> str:
        """The full registry in Prometheus text exposition format."""
        lines: list[str] = []
        for name in sorted(self._instruments):
            lines.extend(self._instruments[name].render())
        return "\n".join(lines) + "\n"


def _flatten(prefix: str, value, out: list):
    """Flatten a nested stats dict into (dotted_path, number) pairs."""
    if isinstance(value, dict):
        for key, sub in value.items():
            _flatten(f"{prefix}_{key}" if prefix else str(key), sub, out)
    elif isinstance(value, bool):
        out.append((prefix, 1.0 if value else 0.0))
    elif isinstance(value, (int, float)):
        out.append((prefix, float(value)))


def sync_executor_stats(registry: MetricsRegistry, stats: dict) -> None:
    """Mirror an executor ``stats()`` dict into the registry as gauges.

    Numeric leaves become ``repro_<dotted_path>`` gauges; the
    ``workers`` list (per-worker cache snapshots from the pool) becomes
    ``repro_worker_cache_<counter>{worker="N"}`` series; non-numeric
    leaves (mode strings, ``broker_error`` messages) become ``_info``
    gauges carrying the text as a label, the Prometheus idiom for
    string-valued state.
    """
    workers = stats.get("workers")
    scalar = {k: v for k, v in stats.items() if k != "workers"}
    pairs: list = []
    _flatten("", scalar, pairs)
    for path, value in pairs:
        registry.gauge(f"repro_{path}", "Executor stats mirror.").set(value)
    for key, value in scalar.items():
        if isinstance(value, str):
            registry.gauge(
                f"repro_{key}_info", "String-valued executor state."
            ).set(1.0, value=value)
    if isinstance(workers, dict):
        worker_items = list(workers.items())
    elif isinstance(workers, list):
        worker_items = list(enumerate(workers))
    else:
        worker_items = []
    if worker_items:
        gauge = registry.gauge(
            "repro_worker_cache", "Per-pool-worker cache counters."
        )
        for name, snapshot in worker_items:
            if not isinstance(snapshot, dict):
                continue
            pairs = []
            _flatten("", snapshot, pairs)
            for path, value in pairs:
                gauge.set(value, worker=str(name), counter=path)


def sync_worker_stats(registry: MetricsRegistry, stats) -> None:
    """Mirror one :class:`~repro.service.dist.worker.WorkerStats` into gauges.

    Accepts the dataclass or its ``as_dict()`` form; every counter
    becomes ``repro_worker_<name>{worker="<id>"}`` so a fleet of
    workers scraped by one collector stays distinguishable.
    """
    record = stats.as_dict() if hasattr(stats, "as_dict") else dict(stats)
    worker = str(record.pop("worker", "") or "")
    cache = record.pop("cache", {}) or {}
    for key, value in record.items():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            registry.gauge(
                f"repro_worker_{key}", "Worker loop lifetime counter."
            ).set(float(value), worker=worker)
    pairs: list = []
    _flatten("", cache, pairs)
    for path, value in pairs:
        registry.gauge(
            "repro_worker_cache", "Per-pool-worker cache counters."
        ).set(value, worker=worker, counter=path)


class MetricsServer:
    """A daemon-thread HTTP endpoint answering ``GET /metrics``.

    Parameters
    ----------
    registry:
        The :class:`MetricsRegistry` to render per scrape.
    host / port:
        Bind address; ``port=0`` picks a free port (read it back from
        ``self.port``).
    refresh:
        Optional zero-argument callable run before each render —
        the hook :func:`sync_executor_stats` rides in on, so gauges
        mirror live executor state at scrape time rather than at
        server start.
    """

    def __init__(self, registry: MetricsRegistry, host: str = "127.0.0.1",
                 port: int = 0, refresh=None):
        import http.server

        self.registry = registry
        self.refresh = refresh
        self.scrapes = 0
        server_self = self

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_GET(self):  # noqa: N802 (http.server API)
                if self.path.split("?")[0].rstrip("/") not in ("", "/metrics"):
                    self.send_error(404)
                    return
                try:
                    if server_self.refresh is not None:
                        server_self.refresh()
                    body = server_self.registry.render().encode("utf-8")
                except Exception as exc:
                    self.send_error(500, f"{type(exc).__name__}: {exc}")
                    return
                server_self.scrapes += 1
                self.send_response(200)
                self.send_header(
                    "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
                )
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):  # quiet: scrapes are not news
                del args

        self._server = http.server.ThreadingHTTPServer((host, port), Handler)
        self.host, self.port = self._server.server_address[:2]
        self._thread = threading.Thread(
            target=self._server.serve_forever, daemon=True,
            name=f"metrics-server:{self.port}",
        )
        self._thread.start()

    @property
    def url(self) -> str:
        """The scrape URL, with the bound (possibly ephemeral) port."""
        return f"http://{self.host}:{self.port}/metrics"

    def close(self) -> None:
        """Stop serving and join the server thread."""
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5.0)

    def __enter__(self) -> "MetricsServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
