"""Serving metrics: the one store behind ``/stats`` and ``/metrics``.

:class:`MetricsRegistry` holds every count and gauge the serving layer
publishes — service, worker pool and HTTP server alike — as *labeled*
series (``registry.counter("requests_total", endpoint="sample_table")``):
one per ``(name, sorted-label-set)``.  It is rendered two ways and copied
nowhere: as ``name{key="value"}`` snapshot keys in the JSON ``/stats``
payload (whose named keys are read out of that same snapshot), and as
native series by ``repro.obs.prom`` for the ``/metrics`` Prometheus text.

One :class:`LatencyHistogram` per endpoint records every observed request
duration as ``count / total_s / max_s`` plus a fixed-bucket cumulative
histogram — the same schema in-process and over the wire, so dashboards
need a single decoder.  Buckets are upper bounds in seconds; each
observation lands in the first bucket whose bound is >= the duration (the
last bucket is unbounded), Prometheus-style cumulative counts.

Everything here is thread-safe and append-only: recorders never reset, so
deltas between two snapshots are always meaningful.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

#: Upper bucket bounds in seconds; the implicit final bucket is +inf.
LATENCY_BUCKETS_S = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
                     0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)

def _label_key(labels: dict) -> tuple:
    """The canonical label set: sorted ``(key, value)`` string pairs."""
    return tuple(sorted((str(key), str(value)) for key, value in labels.items()))


def format_series(name: str, labels: tuple) -> str:
    """Render ``name{key="value",...}`` for JSON snapshots (no labels → name)."""

    if not labels:
        return name
    rendered = ",".join('{}="{}"'.format(key, value) for key, value in labels)
    return "{}{{{}}}".format(name, rendered)


def series_key(name: str, **labels) -> str:
    """The snapshot key of one series, as it appears in ``/stats``."""
    return format_series(name, _label_key(labels))


class _Value:
    """A lock-guarded number, zero until first written."""

    __slots__ = ("_lock", "_value")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0

    @property
    def value(self):
        with self._lock:
            return self._value


class Counter(_Value):
    """A thread-safe monotonic counter.

    Bare ``int += 1`` from multiple threads happens to survive under the
    GIL today, but the resilience counters (restarts, retries, deadline
    kills, breaker trips) are incremented from collector, monitor, and
    request threads at once — this makes the increment explicit and safe.
    """

    __slots__ = ()

    def increment(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount


class Gauge(_Value):
    """A thread-safe instantaneous value (last write wins).

    Values keep their type, so an integer gauge (bytes, a worker count)
    reads back and renders as an integer.
    """

    __slots__ = ()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def set_max(self, value: float) -> None:
        """Keep the high-water mark (peak RSS, queue and batch watermarks)."""
        with self._lock:
            if value > self._value:
                self._value = value


class LatencyHistogram:
    """Monotonic latency accumulator with fixed buckets."""

    def __init__(self, buckets=LATENCY_BUCKETS_S):
        self.buckets = tuple(buckets)
        self._lock = threading.Lock()
        self.count = 0
        self.total_s = 0.0
        self.max_s = 0.0
        self._bucket_counts = [0] * (len(self.buckets) + 1)

    def observe(self, seconds: float) -> None:
        seconds = max(float(seconds), 0.0)
        index = len(self.buckets)
        for position, bound in enumerate(self.buckets):
            if seconds <= bound:
                index = position
                break
        with self._lock:
            self.count += 1
            self.total_s += seconds
            if seconds > self.max_s:
                self.max_s = seconds
            self._bucket_counts[index] += 1

    @contextmanager
    def time(self):
        """Context manager recording the elapsed wall time of the block."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.observe(time.perf_counter() - started)

    def quantile(self, q: float) -> float:
        """Approximate quantile, linearly interpolated within its bucket.

        The *q*-quantile rank is located in the cumulative bucket counts,
        then positioned inside the winning bucket assuming observations are
        uniform across it: ``lower + (rank - seen_before) / in_bucket *
        (upper - lower)``.  The overflow bucket has no finite upper bound,
        so ranks landing there report ``max_s``.  Returns 0.0 before any
        observation.  (The previous behaviour — returning the bare bucket
        upper bound — over-reported mid-bucket quantiles by up to a whole
        bucket width.)
        """
        with self._lock:
            total = self.count
            max_s = self.max_s
            counts = list(self._bucket_counts)
        if total == 0:
            return 0.0
        rank = max(1, int(q * total + 0.5))
        seen = 0
        for position, bucket_count in enumerate(counts):
            if bucket_count == 0:
                continue
            if seen + bucket_count >= rank:
                if position >= len(self.buckets):
                    return max_s
                lower = self.buckets[position - 1] if position > 0 else 0.0
                upper = self.buckets[position]
                fraction = (rank - seen) / bucket_count
                return lower + fraction * (upper - lower)
            seen += bucket_count
        return max_s

    def snapshot(self) -> dict:
        """The wire schema: count/total/max plus cumulative bucket counts."""
        with self._lock:
            counts = list(self._bucket_counts)
            out = {
                "count": self.count,
                "total_s": self.total_s,
                "max_s": self.max_s,
            }
        cumulative = []
        seen = 0
        for bucket_count in counts:
            seen += bucket_count
            cumulative.append(seen)
        out["buckets_s"] = list(self.buckets)
        out["cumulative_counts"] = cumulative
        return out


class MetricsRegistry:
    """Named histograms plus labeled counters/gauges, created on first use."""

    def __init__(self):
        self._lock = threading.Lock()
        self._histograms: dict[str, LatencyHistogram] = {}
        self._counters: dict[str, dict[tuple, Counter]] = {}
        self._gauges: dict[str, dict[tuple, Gauge]] = {}

    def histogram(self, name: str) -> LatencyHistogram:
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = LatencyHistogram()
            return histogram

    def counter(self, name: str, **labels) -> Counter:
        return self._metric(self._counters, Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._metric(self._gauges, Gauge, name, labels)

    def _metric(self, store: dict, kind, name: str, labels: dict):
        key = _label_key(labels)
        with self._lock:
            series = store.setdefault(name, {})
            metric = series.get(key)
            if metric is None:
                metric = series[key] = kind()
            return metric

    def snapshot(self) -> dict:
        with self._lock:
            items = list(self._histograms.items())
        return {name: histogram.snapshot() for name, histogram in items}

    def counter_series(self) -> dict:
        """``{name: [(label_pairs, value), ...]}`` for the Prometheus renderer."""
        return self._series(self._counters)

    def gauge_series(self) -> dict:
        return self._series(self._gauges)

    def _series(self, store: dict) -> dict:
        with self._lock:
            names = {name: list(series.items()) for name, series in store.items()}
        return {name: [(labels, metric.value) for labels, metric in series]
                for name, series in names.items()}

    def counters_snapshot(self) -> dict:
        """``{'name{key="value"}': value}`` — the JSON ``/stats`` rendering."""
        return _flatten(self.counter_series())

    def gauges_snapshot(self) -> dict:
        return _flatten(self.gauge_series())


def _flatten(series_by_name: dict) -> dict:
    return {format_series(name, labels): value
            for name, series in sorted(series_by_name.items())
            for labels, value in sorted(series)}
