"""Synthesis serving layer (the serve-many half of train-once / serve-many).

:class:`SynthesisService` loads a fitted-pipeline bundle once (see
:mod:`repro.store`) and answers ``sample(n, seed, conditions)`` requests:
block-sharded full-table sampling that is bit-identical across worker
counts, coalesced conditioned-row sampling that merges concurrent requests
into one batched engine pass, whole-database sampling from ``multitable``
bundles, and an LRU result cache keyed by ``(bundle digest, request)`` and
bounded by compressed result bytes.

Work runs in exactly one of two places: inline on the calling thread (the
default ``executor="thread"``, one shard — also the ``degraded_mode=
"serial"`` fallback), or a process :class:`~repro.serving.workers.WorkerPool`
that runs the same deterministic work units on ``shards`` bundle-loaded
worker processes (``ServingConfig(executor="process")``).  Around the
service sit the asyncio HTTP front end
:class:`~repro.serving.server.SynthesisServer` with bounded-queue
backpressure, and the :mod:`~repro.serving.metrics` latency histograms both
read paths report in one schema.

The heavy modules (server, workers) resolve lazily so importing the
service does not pull in asyncio/multiprocessing plumbing.
"""

from repro.serving.metrics import (LATENCY_BUCKETS_S, Gauge, LatencyHistogram,
                                   MetricsRegistry)
from repro.serving.service import (
    DeadlineExceeded,
    LruCache,
    PoolDegraded,
    RowRequest,
    ServingConfig,
    ServingError,
    SynthesisService,
    derive_seed,
    process_peak_rss_bytes,
)

_LAZY = {
    "IncompleteStream": "repro.serving.server",
    "SynthesisServer": "repro.serving.server",
    "request_json": "repro.serving.server",
    "request_json_stream": "repro.serving.server",
    "run_server": "repro.serving.server",
    "table_payload": "repro.serving.server",
    "WorkerPool": "repro.serving.workers",
}

__all__ = sorted([
    "LATENCY_BUCKETS_S",
    "Gauge",
    "LatencyHistogram",
    "LruCache",
    "DeadlineExceeded",
    "MetricsRegistry",
    "PoolDegraded",
    "RowRequest",
    "ServingConfig",
    "ServingError",
    "SynthesisService",
    "derive_seed",
    "process_peak_rss_bytes",
] + list(_LAZY))


def __getattr__(name):
    try:
        module_name = _LAZY[name]
    except KeyError:
        raise AttributeError("module {!r} has no attribute {!r}".format(__name__, name))
    from importlib import import_module

    return getattr(import_module(module_name), name)
