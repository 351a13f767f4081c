"""Prometheus text-format exposition (version 0.0.4) for the metrics plane.

Renders a :class:`~repro.serving.metrics.MetricsRegistry` — labeled
counters, gauges and latency histograms (as native ``_bucket{le=...}`` /
``_sum`` / ``_count`` series).  The registry is the only source: ``GET
/metrics`` and the JSON ``GET /stats`` are two renderings of the same
series, so every count is typed ``counter`` and per-worker values carry a
``worker`` label.  No external client library: the format is plain text and
this writer emits only the subset the registry needs.
"""

from __future__ import annotations

import re

__all__ = ["CONTENT_TYPE", "prometheus_text"]

CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_OK = re.compile(r"[^a-zA-Z0-9_]")


def _metric_name(raw: str, prefix: str) -> str:
    name = _NAME_OK.sub("_", raw)
    if not name or not (name[0].isalpha() or name[0] == "_"):
        name = "_" + name
    return prefix + name


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(labels: tuple, extra: tuple = ()) -> str:
    pairs = tuple(labels) + tuple(extra)
    if not pairs:
        return ""
    body = ",".join(
        '{}="{}"'.format(key, _escape_label(str(value))) for key, value in pairs
    )
    return "{" + body + "}"


def _format_value(value: float) -> str:
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def prometheus_text(registry, prefix: str = "repro_") -> str:
    """Render the registry as Prometheus text."""

    lines: list[str] = []

    for kind, families in (("counter", registry.counter_series()),
                           ("gauge", registry.gauge_series())):
        for name, series in sorted(families.items()):
            metric = _metric_name(name, prefix)
            lines.append("# TYPE {} {}".format(metric, kind))
            for labels, value in sorted(series):
                lines.append("{}{} {}".format(metric, _render_labels(labels),
                                              _format_value(value)))

    histograms = registry.snapshot()
    if histograms:
        metric = _metric_name("latency_seconds", prefix)
        lines.append("# TYPE {} histogram".format(metric))
        for endpoint, snap in sorted(histograms.items()):
            label = (("endpoint", endpoint),)
            bounds = list(snap["buckets_s"]) + ["+Inf"]
            for bound, cumulative in zip(bounds, snap["cumulative_counts"]):
                le = bound if bound == "+Inf" else repr(float(bound))
                lines.append(
                    "{}_bucket{} {}".format(
                        metric, _render_labels(label, (("le", le),)), cumulative
                    )
                )
            lines.append(
                "{}_sum{} {}".format(metric, _render_labels(label), _format_value(snap["total_s"]))
            )
            lines.append(
                "{}_count{} {}".format(metric, _render_labels(label), snap["count"])
            )

    return "\n".join(lines) + "\n"
