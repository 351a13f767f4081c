"""Turn a traced run's spans into the per-layer metrics.

Layer times are self times (a span's duration minus the part its child
spans cover), summed per layer and divided by the number of traced
samples — requests for the HTTP workloads, fit iterations (one miss plus
one hit) for ``fit_registry`` — so they read as milliseconds per sample
and stay comparable when throughput changes the sample count.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from perfbench import stats

#: per-layer metric -> the span names whose self time it sums
SELF_TIME_MS = {
    "engine.choose_ms": ("engine.choose",),
    "stage.sample_ms": ("stage.sample",),
    "stage.generate_ms": ("stage.generate",),
    "stage.decode_ms": ("stage.decode",),
    "pool.queue_wait_ms": ("pool.queue_wait",),
    "worker.task_ms": ("worker.task",),
    "wire.encode_ms": ("wire.encode",),
    "wire.decode_ms": ("wire.decode",),
    "server.queue_wait_ms": ("server.queue_wait",),
    "server.request_self_ms": ("server.request",),
    "server.render_ms": ("server.table_payload", "server.json_encode"),
    "service.self_ms": ("service.sample_table", "service.sample_database"),
    "schema.sample_children_ms": ("schema.sample_children",),
    "great.sample_conditional_ms": ("great.sample_conditional",),
    "great.sample_ms": ("great.sample",),
    "schema.assembly_ms": ("schema.sample_database",),
    "frame.table_build_ms": ("frame.table_build",),
    "fit.prepare_ms": ("fit.prepare",),
    "fit.enhance_ms": ("fit.enhance",),
    "fit.connect_ms": ("fit.connect",),
    "stats.association_ms": ("stats.association",),
    "stage.encode_ms": ("stage.encode",),
    "fit.tokenize_ms": ("fit.tokenize",),
    "fit.fine_tune_ms": ("fit.fine_tune", "stage.fine_tune"),
    "fit.score_corpus_ms": ("fit.score_corpus",),
    "fit.synthesizer_ms": ("fit.synthesizer",),
    "registry.fingerprint_ms": ("registry.fingerprint",),
    "registry.save_ms": ("registry.save", "registry.put"),
    "registry.load_ms": ("registry.load",),
}

#: the rest of the per-layer metrics and their units
OTHER_UNITS = {
    "engine.choose_calls": "count",
    "engine.lanes_scored": "count",
    "engine.distinct_keys": "count",
    "engine.key_reuse_ratio": "ratio",
    "blocks_per_request": "count",
    "worker.busy_ratio": "ratio",
    "worker.restarts": "count",
    "wire.bytes_per_row": "bytes",
    "service.cache_hit_ratio": "ratio",
    "server.rejected": "count",
    "training.object_fallbacks": "count",
    "registry.bytes_written": "bytes",
    "registry.hit_ms": "ms",
    "setup.load_ms": "ms",
    "setup.worker_ready_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.overhead_spread": "ratio",
    "trace.samples": "count",
    "unattributed_share": "ratio",
    "error_rate": "ratio",
}

UNITS = dict({name: "ms" for name in SELF_TIME_MS}, **OTHER_UNITS)

#: distinct scoring keys are counted over the first this many traced
#: samples, so the count does not grow with throughput
KEY_WINDOW = 16


def per_layer(spans, roots, samples: int, busy_wall_s: float = 0.0,
              workers: int = 2) -> dict[str, float]:
    """Per-layer metrics from the spans of *samples* traced samples.

    *roots* maps each traced sample's trace id to its root span id (the
    benchmark's own span around the request or fit).  Spans of other
    traces (warm-up, set-up) are ignored here.  *busy_wall_s* is the wall
    time the traced samples ran over, the base of ``worker.busy_ratio``.
    """
    spans = stats.link_roots([s for s in spans if s["trace_id"] in roots], roots)
    own = stats.self_times(spans)
    by_name: dict[str, int] = defaultdict(int)
    for span in spans:
        by_name[span["name"]] += own[span["span_id"]]
    per = max(samples, 1)
    out = {metric: sum(by_name.get(name, 0) for name in names) / 1000.0 / per
           for metric, names in SELF_TIME_MS.items()}

    root_ids = set(roots.values())
    root_spans = [s for s in spans if s["span_id"] in root_ids]
    root_total = sum(s["duration_us"] for s in root_spans)
    out["unattributed_share"] = (sum(own[s["span_id"]] for s in root_spans) / root_total
                                 if root_total else 0.0)

    chooses = [s for s in spans if s["name"] == "engine.choose"]
    out["engine.choose_calls"] = len(chooses) / per
    out["engine.lanes_scored"] = sum(s["attrs"].get("lanes", 0) for s in chooses) / per
    first = {root["trace_id"] for root in
             sorted(root_spans, key=lambda s: s["start_us"])[:KEY_WINDOW]}
    window = [s for s in chooses if s["trace_id"] in first]
    distinct, reuse = stats.key_reuse(
        [s["attrs"].get("keys", ()) for s in window],
        sum(s["attrs"].get("lanes", 0) for s in window))
    out["engine.distinct_keys"] = float(distinct)
    out["engine.key_reuse_ratio"] = reuse

    tasks = [s for s in spans if s["name"] == "worker.task"]
    out["blocks_per_request"] = len(tasks) / per
    out["worker.busy_ratio"] = (sum(s["duration_us"] for s in tasks) / 1e6
                                / (workers * busy_wall_s) if busy_wall_s > 0 else 0.0)
    encodes = [s for s in spans if s["name"] == "wire.encode"]
    rows = sum(s["attrs"].get("rows", 0) for s in encodes)
    out["wire.bytes_per_row"] = (sum(s["attrs"].get("bytes", 0) for s in encodes) / rows
                                 if rows else 0.0)
    out["training.object_fallbacks"] = float(sum(
        1 for s in spans if s["name"] == "fit.fine_tune"
        and s["attrs"].get("engine") == "object"))
    out["registry.bytes_written"] = sum(
        s["attrs"].get("bytes", 0) for s in spans
        if s["name"] == "registry.put" and s["attrs"].get("written")) / per
    out["trace.samples"] = float(samples)
    return out


def overhead(ratios) -> dict[str, float]:
    """Tracing overhead from interleaved pairs of traced ÷ untraced throughput.

    ``trace.overhead_ratio`` is the median pair; ``trace.overhead_spread``
    the range of the pairs as a share of it.
    """
    median = statistics.median(ratios)
    return {"trace.overhead_ratio": median,
            "trace.overhead_spread": (max(ratios) - min(ratios)) / median if median else 0.0}


def setup_layers(spans) -> dict[str, float]:
    """``setup.*`` from the cold-start spans of a traced server.

    ``setup.load_ms`` is the mean bundle load over the server and its
    workers; ``setup.worker_ready_ms`` the front end's wait for every
    worker to report a verified cold start.  Both are whole durations:
    set-up spans are roots outside any request.
    """
    loads = [s["duration_us"] for s in spans if s["name"] == "store.load_bundle"]
    ready = [s["duration_us"] for s in spans if s["name"] == "setup.worker_ready"]
    return {
        "setup.load_ms": sum(loads) / len(loads) / 1000.0 if loads else 0.0,
        "setup.worker_ready_ms": sum(ready) / len(ready) / 1000.0 if ready else 0.0,
    }
