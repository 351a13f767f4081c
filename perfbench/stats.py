"""Pure arithmetic of the benchmark: percentiles, span self time, key reuse.

Everything here works on plain numbers and span dicts (the
``repro.obs.trace`` record shape: ``trace_id``, ``span_id``,
``parent_id``, ``name``, ``start_us``, ``duration_us``, ``attrs``), so it
is unit-tested on hand-built inputs without running the program.
"""

from __future__ import annotations

from collections import defaultdict


def percentile(values, q: float) -> float:
    """The *q*-th percentile (0..100) with linear interpolation between ranks.

    Same definition as ``numpy.percentile(..., method="linear")``.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must lie in [0, 100]")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def covered_us(start: int, end: int, intervals) -> int:
    """Length of ``[start, end)`` covered by the union of *intervals*."""
    clipped = sorted((max(start, a), min(end, b)) for a, b in intervals
                     if min(end, b) > max(start, a))
    total = 0
    cursor = start
    for a, b in clipped:
        if b <= cursor:
            continue
        total += b - max(a, cursor)
        cursor = b
    return total


def link_roots(spans, roots) -> list[dict]:
    """Parent each parentless span to the root span of the same trace.

    *roots* maps ``trace_id`` to the span id of a root recorded elsewhere
    (the benchmark's client span); a server span whose request carried
    that trace id as ``X-Request-Id`` starts its own parentless tree, and
    this stitches it under the client span.  Spans are copied, not mutated.
    """
    linked = []
    for span in spans:
        root = roots.get(span["trace_id"])
        if span["parent_id"] is None and root is not None and root != span["span_id"]:
            span = dict(span, parent_id=root)
        linked.append(span)
    return linked


def self_times(spans) -> dict[str, int]:
    """Self time of every span: its duration minus the union of its children.

    Children that run in parallel (blocks on two workers) are merged before
    subtraction, so a parent is never charged negative time; children are
    clipped to the parent's interval.  Returns ``{span_id: microseconds}``.
    """
    children = defaultdict(list)
    for span in spans:
        if span["parent_id"] is not None:
            end = span["start_us"] + span["duration_us"]
            children[span["parent_id"]].append((span["start_us"], end))
    out = {}
    for span in spans:
        start = span["start_us"]
        end = start + span["duration_us"]
        out[span["span_id"]] = span["duration_us"] - covered_us(
            start, end, children.get(span["span_id"], ()))
    return out


def key_reuse(key_sets, lanes: int) -> tuple[int, float]:
    """Distinct keys over a window of scoring calls, and the share reused.

    *key_sets* holds the distinct keys each call saw; *lanes* is the total
    number of lanes those calls scored.  A lane whose key an earlier lane
    already had would be a score-cache hit, so the reuse ratio is
    ``1 - distinct / lanes``.
    """
    distinct = set()
    for keys in key_sets:
        distinct.update(keys)
    if lanes <= 0:
        return len(distinct), 0.0
    return len(distinct), 1.0 - len(distinct) / lanes
