"""Synthesis serving: load a bundle once, answer sampling requests forever.

:class:`SynthesisService` is the serve-many half of the train-once /
serve-many split.  It wraps a :class:`~repro.pipelines.base.FittedPipeline`
(usually loaded from a :mod:`repro.store` bundle) and serves two request
shapes without ever retraining:

* :meth:`~SynthesisService.sample_table` — a full synthetic flat table of
  ``n`` subjects.  The request is decomposed into fixed-size *blocks*, each
  sampled with a deterministically derived seed (:func:`derive_seed`), so
  the output is a pure function of ``(bundle, n, seed, block_size)`` — a
  run spread across ``W`` worker processes is bit-identical to the inline
  run, for any ``W``.
* :meth:`~SynthesisService.sample_rows` — ``n`` conditioned rows from the
  child synthesizer (e.g. "rows for a user with these contextual
  attributes").  Concurrent requests are coalesced: a leader thread drains
  the pending queue and advances *every* request's lanes through **one**
  batched engine pass per column (one dense-mass/candidate-scoring call for
  the merged batch).  Each request draws from its own named RNG stream, so
  a request's output never depends on what it was batched with.
* :meth:`~SynthesisService.sample_database` — a whole synthetic multi-table
  database from a loaded ``multitable`` bundle (see :mod:`repro.schema`).
  The per-table seeds are ``SeedSequence``-derived inside the synthesizer,
  so a worker process returns the identical database to the inline run.

Work runs in one of two places: inline on the calling thread
(``executor="thread"``, the default, always one shard), or on a process
:class:`~repro.serving.workers.WorkerPool` of ``shards`` bundle-loaded
workers (``executor="process"``).  The inline path is also the
``degraded_mode="serial"`` fallback when the pool's breaker is open.

Results are memoised in an LRU cache keyed by ``(bundle digest, request)``
— identical requests against the same artifact are served from memory.
Results are held as zlib-compressed NPZ bytes and the cache is bounded by
their exact size (``ServingConfig.cache_bytes``), not entry count, so one
huge table cannot silently pin the memory a thousand small results would
fit in.
"""

from __future__ import annotations

import sys
import threading
import time
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.frame.ops import concat_rows
from repro.frame.table import Table
from repro.llm.engine import _choose_indices, derive_seed
from repro.obs import trace as obs
from repro.pipelines.base import TABLE_BLOCK_STREAM, FittedPipeline, block_plan
from repro.pipelines.multitable import FittedMultiTablePipeline
from repro.serving.metrics import MetricsRegistry, series_key
from repro.store.tablefmt import decode_table, encode_table


class ServingError(RuntimeError):
    """A request the loaded bundle cannot serve."""


class DeadlineExceeded(ServingError):
    """A request missed its ``timeout_s`` deadline (HTTP 503, retryable)."""


class PoolDegraded(ServingError):
    """The worker pool's crash-loop breaker is open (HTTP 503, retryable)."""


#: Named sub-streams of the request seed (table blocks vs row requests), so
#: the two request shapes never share RNG state.  Table blocks use the
#: pipeline layer's shared stream so streaming writers reproduce served
#: tables exactly.
_TABLE_STREAM = TABLE_BLOCK_STREAM
_ROWS_STREAM = 13

#: Each ``stats()`` count and the registry series it reads, in ``/stats``
#: order, as ``key: (kind, series name, labels)``.  The service creates
#: every series at zero, so ``/metrics`` lists them from the first scrape.
_STATS_SERIES = {
    "table_requests": ("counter", "requests_total", {"endpoint": "sample_table"}),
    "row_requests": ("counter", "row_requests", {}),
    "database_requests": ("counter", "requests_total", {"endpoint": "sample_database"}),
    "coalesced_batches": ("counter", "coalesced_batches", {}),
    "coalesced_requests_max": ("gauge", "coalesced_requests_max", {}),
    "streamed_requests": ("counter", "requests_total", {"endpoint": "sample_table_stream"}),
    "streamed_chunks": ("counter", "streamed_chunks", {}),
    "streamed_rows": ("counter", "streamed_rows", {}),
    "degraded_fallbacks": ("counter", "degraded_fallbacks", {}),
    "cache_hits": ("counter", "cache_hits", {}),
    "cache_misses": ("counter", "cache_misses", {}),
    "cache_bytes_used": ("gauge", "cache_bytes_used", {}),
}


def process_peak_rss_bytes() -> int | None:
    """This process's peak resident set size in bytes (``None`` if unknown).

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; other platforms
    report whatever the libc says, so only the two known unit conventions
    are trusted.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - exercised on macOS only
        return int(peak)
    return int(peak) * 1024


def pack_result(value):
    """A result as the cache holds it: each table zlib-compressed NPZ bytes.

    *value* is a table or a name → table mapping.  Compressed bytes are a
    few times smaller than the live table and their ``len`` is their exact
    size, so a fast request path fills the byte budget with many results
    rather than a few fat objects.
    """
    if isinstance(value, dict):
        return {name: pack_result(table) for name, table in value.items()}
    return zlib.compress(encode_table(value), 1)


def unpack_result(packed):
    """Inverse of :func:`pack_result` (the exact tables, backends included)."""
    if isinstance(packed, dict):
        return {name: unpack_result(blob) for name, blob in packed.items()}
    return decode_table(zlib.decompress(packed))


def packed_bytes(packed) -> int:
    """Exact byte size of a :func:`pack_result` value."""
    if isinstance(packed, dict):
        return sum(len(blob) for blob in packed.values())
    return len(packed)


@dataclass(frozen=True)
class ServingConfig:
    """Knobs of the serving layer.

    ``shards`` is the worker-process count of the process executor (the
    output is identical for every value — only throughput changes);
    ``block_size`` the number of
    synthetic subjects per independently seeded block; ``cache_bytes`` the
    byte budget of the LRU result cache, counted in compressed result
    bytes (0 disables caching);
    ``batch_window_s`` how long a coalescing leader waits for followers
    before draining the queue.

    ``executor`` picks where the sampling work runs: ``"thread"`` runs it
    inline on the calling thread (one shard; ``shards > 1`` is rejected),
    ``"process"`` across a :class:`repro.serving.workers` worker-process
    pool of ``shards`` bundle-loaded workers (requires loading the service
    from a bundle path or a registry).  ``mmap`` makes bundle loads
    memory-map the n-gram count tables instead of copying them — with
    process workers the tables then share one page-cache copy.

    Resilience knobs (process executor; see the README's "Failure model &
    operations"): ``timeout_s`` is the default per-request deadline
    (``None`` = no deadline; requests can override), ``retries`` the
    re-dispatch budget for tasks orphaned by a worker death (seed-derived
    work units make every retry bit-identical), ``retry_backoff_s`` the
    base of the exponential backoff between attempts.  ``breaker_threshold``
    worker deaths within ``breaker_window_s`` trip the crash-loop breaker
    (0 disables it); while open, ``degraded_mode`` decides whether requests
    fall back to in-process serial sampling (``"serial"`` — identical
    output, slower) or fail fast with :class:`PoolDegraded`
    (``"fail_fast"``).  ``faults`` is a :mod:`repro.faults` plan shipped to
    worker processes for chaos testing.

    ``trace`` arms the process-global tracer (:mod:`repro.obs.trace`) with a
    sink spec — ``"stderr"``, ``"ring"``/``"ring:N"`` (in-memory, served at
    ``GET /trace``) or a file path for JSON lines.  Worker processes buffer
    their spans and ship them back on the result pipe, so one request yields
    one stitched trace across the pool.  ``None`` (the default) leaves
    tracing disabled: every span site degrades to a no-op.
    """

    shards: int = 1
    block_size: int = 256
    cache_bytes: int = 64 * 2**20
    batch_window_s: float = 0.002
    executor: str = "thread"
    mmap: bool = False
    timeout_s: float | None = None
    retries: int = 2
    retry_backoff_s: float = 0.05
    breaker_threshold: int = 5
    breaker_window_s: float = 30.0
    breaker_cooldown_s: float = 5.0
    degraded_mode: str = "serial"
    faults: str | None = None
    trace: str | None = None

    def __post_init__(self):
        if self.shards < 1:
            raise ValueError("shards must be at least 1")
        if self.block_size < 1:
            raise ValueError("block_size must be at least 1")
        if self.cache_bytes < 0:
            raise ValueError("cache_bytes must be non-negative")
        if self.batch_window_s < 0:
            raise ValueError("batch_window_s must be non-negative")
        if self.executor not in ("thread", "process"):
            raise ValueError('executor must be "thread" or "process"')
        if self.shards > 1 and self.executor != "process":
            raise ValueError(
                'shards={} needs executor="process" (the inline executor runs '
                'one shard); pass executor="process" or shards=1'.format(self.shards))
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive (or None for no deadline)")
        if self.retries < 0:
            raise ValueError("retries must be non-negative")
        if self.retry_backoff_s < 0:
            raise ValueError("retry_backoff_s must be non-negative")
        if self.breaker_threshold < 0:
            raise ValueError("breaker_threshold must be non-negative (0 disables)")
        if self.breaker_window_s <= 0 or self.breaker_cooldown_s <= 0:
            raise ValueError("breaker window and cooldown must be positive")
        if self.degraded_mode not in ("serial", "fail_fast"):
            raise ValueError('degraded_mode must be "serial" or "fail_fast"')
        if self.faults is not None:
            from repro.faults import parse_plan

            parse_plan(self.faults)  # reject typos at config time, not mid-chaos
        if self.trace is not None:
            obs.parse_sink_spec(self.trace)  # same: bad sink specs fail here


@dataclass(frozen=True)
class RowRequest:
    """One conditioned row-sampling request (the coalescable unit)."""

    n: int
    conditions: tuple = ()  # sorted (column, value) pairs; dicts accepted by the service
    seed: int = 0

    def __post_init__(self):
        if self.n <= 0:
            raise ValueError("n must be positive")


class LruCache:
    """A thread-safe LRU mapping bounded by bytes.

    ``capacity_bytes`` is the byte budget (0 disables the cache); every
    entry is sized once at insert time by *sizer* (default ``len``) and
    the least-recently-used entries are evicted until the total fits.  A
    single result larger than the whole budget is never cached — it would
    only evict everything else and then miss anyway.
    """

    def __init__(self, capacity_bytes: int, sizer=len):
        self.capacity_bytes = capacity_bytes
        self._sizer = sizer
        self._entries: "OrderedDict" = OrderedDict()  # key -> (value, size)
        self._lock = threading.Lock()
        self.bytes_used = 0

    def get(self, key):
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                return self._entries[key][0]
            return None

    def put(self, key, value) -> None:
        if self.capacity_bytes == 0:
            return
        size = self._sizer(value)
        with self._lock:
            if key in self._entries:
                self.bytes_used -= self._entries.pop(key)[1]
            if size > self.capacity_bytes:
                return
            self._entries[key] = (value, size)
            self.bytes_used += size
            while self.bytes_used > self.capacity_bytes:
                _, (_, evicted) = self._entries.popitem(last=False)
                self.bytes_used -= evicted


def _process_pool(source, config: ServingConfig, digest: str):
    """The worker pool *config* asks for over a bundle path or registry
    source (``None`` for the inline executor)."""
    if config.executor != "process":
        return None
    from repro.serving.workers import WorkerPool

    return WorkerPool(source, workers=config.shards, mmap=config.mmap,
                      block_size=config.block_size, expected_digest=digest,
                      retries=config.retries, retry_backoff_s=config.retry_backoff_s,
                      breaker_threshold=config.breaker_threshold,
                      breaker_window_s=config.breaker_window_s,
                      breaker_cooldown_s=config.breaker_cooldown_s,
                      faults_spec=config.faults)


@dataclass
class _PendingRequest:
    request: RowRequest
    timeout_s: float | None = None
    event: threading.Event = field(default_factory=threading.Event)
    result: Table | None = None
    error: BaseException | None = None


class SynthesisService:
    """Serve sampling requests from one loaded fitted pipeline.

    Accepts either a flat :class:`FittedPipeline` (full-table and
    conditioned-row requests) or a
    :class:`~repro.pipelines.multitable.FittedMultiTablePipeline`
    (whole-database requests); asking the wrong shape raises
    :class:`ServingError`.
    """

    def __init__(self, fitted: FittedPipeline | FittedMultiTablePipeline,
                 config: ServingConfig | None = None,
                 digest: str | None = None, pool=None):
        self.fitted = fitted
        self.config = config or ServingConfig()
        if self.config.executor == "process" and pool is None:
            raise ServingError(
                "the process executor needs bundle-loaded workers; build the "
                "service with SynthesisService.from_bundle")
        if self.config.trace is not None and not obs.enabled():
            obs.configure(self.config.trace)
        #: cache namespace; bundle-loaded services use the content digest so
        #: equal artifacts share keys, in-memory ones get a unique token
        self.digest = digest or "unsaved-{:x}".format(id(fitted))
        #: the process worker pool when ``executor == "process"`` (else None)
        self.pool = pool
        #: the one metrics store; a process service shares the pool's
        self.metrics = pool.metrics if pool is not None else MetricsRegistry()
        for kind, name, labels in _STATS_SERIES.values():
            getattr(self.metrics, kind)(name, **labels)
        self._cache = LruCache(self.config.cache_bytes, sizer=packed_bytes)
        self._batch_lock = threading.Lock()
        self._pending: list[_PendingRequest] = []
        self._draining = False

    @classmethod
    def from_bundle(cls, path, config: ServingConfig | None = None) -> "SynthesisService":
        """Load a fitted-pipeline bundle (flat or multitable) once and serve from it.

        With ``config.executor == "process"`` this also cold-starts a
        :class:`~repro.serving.workers.WorkerPool` of ``config.shards``
        worker processes from the same bundle path, each verifying the
        content digest before the service accepts requests.
        """
        from repro.store.bundle import (
            load_fitted_pipeline,
            load_multitable_pipeline,
            read_manifest,
        )

        config = config or ServingConfig()
        # arm tracing before the pool forks so workers inherit the decision
        if config.trace is not None and not obs.enabled():
            obs.configure(config.trace)
        if read_manifest(path)["kind"] == "multitable_pipeline":
            fitted, digest = load_multitable_pipeline(path, mmap=config.mmap)
        else:
            fitted, digest = load_fitted_pipeline(path, mmap=config.mmap)
        return cls(fitted, config=config, digest=digest,
                   pool=_process_pool(path, config, digest))

    @classmethod
    def from_registry(cls, root, digest, config: ServingConfig | None = None) -> "SynthesisService":
        """Serve an artifact resolved by content digest from a registry.

        The registry analogue of :meth:`from_bundle`: ``digest`` (full or a
        unique prefix) names the artifact, the parts stream straight from
        the content-addressed object store (with ``config.mmap`` they are
        memory-mapped from the object files, so every worker process
        sharing the registry shares one page-cache copy per part), and the
        worker pool cold-starts from a :class:`~repro.registry.cas.RegistrySource`
        instead of a bundle path.
        """
        from repro.registry.cas import RegistrySource
        from repro.registry.record import Registry

        config = config or ServingConfig()
        if config.trace is not None and not obs.enabled():
            obs.configure(config.trace)
        registry = Registry(root)
        resolved = registry.resolve(digest)
        record = registry.artifact(resolved)
        if record["kind"] not in ("fitted_pipeline", "multitable_pipeline"):
            raise ServingError(
                "artifact {} is a {!r}; serving needs a fitted pipeline".format(
                    resolved[:12], record["kind"]))
        fitted, digest = registry.load(resolved, mmap=config.mmap)
        source = RegistrySource(str(registry.root), resolved)
        return cls(fitted, config=config, digest=digest,
                   pool=_process_pool(source, config, digest))

    def close(self) -> None:
        """Release the process worker pool (no-op for the inline executor)."""
        if self.pool is not None:
            self.pool.close()

    def __enter__(self) -> "SynthesisService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    @property
    def is_multitable(self) -> bool:
        return isinstance(self.fitted, FittedMultiTablePipeline)

    def _require_flat(self):
        if self.is_multitable:
            raise ServingError(
                "this service wraps a multitable pipeline; use sample_database")

    def _require_multitable(self):
        if not self.is_multitable:
            raise ServingError(
                "whole-database serving needs a multitable bundle; the {!r} "
                "pipeline serves tables and rows".format(self.fitted.name))

    # -- public request API ----------------------------------------------------------

    def sample(self, n: int | None = None, seed: int | None = None,
               conditions: dict | None = None) -> Table:
        """Serve one sampling request.

        Without *conditions*: a full synthetic flat table of *n* subjects
        (block-sharded, see :meth:`sample_table`).  With *conditions*: *n*
        child rows conditioned on the given column values (coalescable, see
        :meth:`sample_rows`).
        """
        if conditions is not None:
            if n is None:
                raise ValueError("conditioned sampling requires an explicit n")
            return self.sample_rows(n, conditions=conditions, seed=seed)
        return self.sample_table(n, seed=seed)

    def refresh_gauges(self) -> None:
        """Set the gauges sampled at read time rather than where they change:
        the cache's byte use and this process's peak RSS.  :meth:`stats` and
        ``GET /metrics`` call it before rendering the registry."""
        self.metrics.gauge("cache_bytes_used").set(self._cache.bytes_used)
        rss = process_peak_rss_bytes()
        if rss is not None:
            self.metrics.gauge("peak_rss_bytes").set(rss)

    def stats(self) -> dict:
        """Serving counters, cache hit/miss totals and per-endpoint latency.

        Every value is read from one snapshot of :attr:`metrics`, which
        ``counters`` and ``gauges`` carry whole.  ``latency`` maps each
        endpoint to the :meth:`~repro.serving.metrics.LatencyHistogram.snapshot`
        schema (``count``/``total_s``/``max_s`` plus cumulative bucket
        counts) — the same shape the HTTP server reports under ``/stats``,
        so both read paths share one decoder.
        """
        self.refresh_gauges()
        counters = self.metrics.counters_snapshot()
        gauges = self.metrics.gauges_snapshot()
        values = {**counters, **gauges}
        out = {key: values[series_key(name, **labels)]
               for key, (_, name, labels) in _STATS_SERIES.items()}
        out["executor"] = self.config.executor
        out["latency"] = self.metrics.snapshot()
        out["counters"] = counters
        out["gauges"] = gauges
        out["peak_rss_bytes"] = gauges.get("peak_rss_bytes")
        if self.pool is not None:
            out["worker_restarts"] = counters["worker_restarts"]
            out["pool"] = self.pool.stats()
        return out

    def readiness(self) -> tuple[bool, dict]:
        """Whether the service can take traffic now, plus why if it cannot.

        Distinct from liveness: a live process whose worker pool is held
        open by the crash-loop breaker (and configured to fail fast) is not
        ready.  In ``degraded_mode="serial"`` a degraded pool still serves
        — slower, in-process — so the service stays ready and reports the
        degradation instead.
        """
        info: dict = {"executor": self.config.executor}
        if self.pool is None:
            return True, info
        state = self.pool.breaker_state
        info["breaker_state"] = state
        if state != "open":
            return True, info
        info["degraded_mode"] = self.config.degraded_mode
        if self.config.degraded_mode == "serial":
            info["reason"] = "worker pool degraded; serving serially in-process"
            return True, info
        info["reason"] = "worker pool degraded; crash-loop breaker open"
        return False, info

    def _cached(self, key):
        """The cached result for *key*, unpacked, or ``None``; counts the hit
        or miss when the cache is enabled."""
        if not self.config.cache_bytes:
            return None
        packed = self._cache.get(key)
        self.metrics.counter("cache_misses" if packed is None else "cache_hits").increment()
        return None if packed is None else unpack_result(packed)

    def _remember(self, key, value) -> None:
        if self.config.cache_bytes:
            self._cache.put(key, pack_result(value))

    def _degrade_to_serial(self, error: PoolDegraded):
        """Count a pool-degraded fallback, or re-raise in fail-fast mode."""
        if self.config.degraded_mode != "serial":
            raise error
        self.metrics.counter("degraded_fallbacks").increment()

    def _resolve_timeout(self, timeout_s: float | None) -> float | None:
        timeout_s = self.config.timeout_s if timeout_s is None else timeout_s
        if timeout_s is not None and timeout_s <= 0:
            raise ServingError("timeout_s must be positive")
        return timeout_s

    # -- whole-database sampling (multitable bundles) ----------------------------------

    def sample_database(self, n: int | dict | None = None,
                        seed: int | None = None,
                        timeout_s: float | None = None) -> dict:
        """A whole synthetic database from a loaded ``multitable`` bundle.

        The per-table seeds are derived inside the synthesizer from the
        deterministic topological order, so the process executor returns the
        identical database to the inline run (same guarantee as
        :meth:`sample_table`).
        """
        self._require_multitable()
        seed = self.fitted.config.seed if seed is None else seed
        timeout_s = self._resolve_timeout(timeout_s)
        self.metrics.counter("requests_total", endpoint="sample_database").increment()
        with self.metrics.histogram("sample_database").time(), \
                obs.span("service.sample_database", attrs={"seed": seed}) as sp:
            n_key = tuple(sorted(n.items())) if isinstance(n, dict) else n
            key = (self.digest, "database", n_key, seed)
            cached = self._cached(key)
            if cached is not None:
                sp.set_attr("cache_hit", True)
                return cached
            try:
                if self.pool is not None:
                    try:
                        database = self.pool.sample_database(n, seed, deadline_s=timeout_s)
                    except PoolDegraded as error:
                        self._degrade_to_serial(error)
                        sp.add_event("degraded_fallback")
                        database = self.fitted.sample_database(n, seed=seed)
                else:
                    database = self.fitted.sample_database(n, seed=seed)
            except DeadlineExceeded:
                sp.add_event("deadline_exceeded")
                raise
            self._remember(key, database)
            return database

    # -- full-table sampling (block-sharded) -------------------------------------------

    def _blocks(self, n: int, seed: int) -> list[tuple[int, int, int]]:
        return block_plan(n, seed, self.config.block_size)

    def sample_table(self, n: int | None = None, seed: int | None = None,
                     timeout_s: float | None = None) -> Table:
        """The synthetic flat table for *n* subjects (defaults as in the pipeline).

        The request is partitioned into ``block_size`` blocks, each sampled
        with a seed derived from ``(seed, block index)`` — independent of
        worker count, so every ``shards`` setting produces the identical
        table.  *timeout_s* (default :attr:`ServingConfig.timeout_s`) is
        enforced as a per-block deadline on the process executor — a worker
        stuck past it is killed and the request fails with
        :class:`DeadlineExceeded`.
        """
        self._require_flat()
        n = self.fitted._resolve_n(n)
        seed = self.fitted.config.seed if seed is None else seed
        timeout_s = self._resolve_timeout(timeout_s)
        self.metrics.counter("requests_total", endpoint="sample_table").increment()
        with self.metrics.histogram("sample_table").time(), \
                obs.span("service.sample_table", attrs={"n": n, "seed": seed}) as sp:
            key = (self.digest, "table", n, seed, self.config.block_size)
            cached = self._cached(key)
            if cached is not None:
                sp.set_attr("cache_hit", True)
                return cached
            blocks = self._blocks(n, seed)
            sp.set_attr("blocks", len(blocks))
            try:
                if self.pool is not None:
                    try:
                        parts = self.pool.sample_blocks(blocks, deadline_s=timeout_s)
                    except PoolDegraded as error:
                        self._degrade_to_serial(error)
                        sp.add_event("degraded_fallback")
                        parts = [self.fitted.sample_block(start, count, block_seed)
                                 for start, count, block_seed in blocks]
                else:
                    parts = [self.fitted.sample_block(start, count, block_seed)
                             for start, count, block_seed in blocks]
            except DeadlineExceeded:
                sp.add_event("deadline_exceeded")
                raise
            table = concat_rows(parts)
            self._remember(key, table)
            return table

    def iter_sample_table(self, n: int | None = None, seed: int | None = None,
                          timeout_s: float | None = None):
        """Yield the table of :meth:`sample_table` one block at a time.

        Blocks are the exact ``block_size`` partition that :meth:`sample_table`
        concatenates (same :func:`~repro.pipelines.base.block_plan`), so
        writing the yielded chunks in order reproduces the served table bit
        for bit while holding one block in memory.  The streaming path
        bypasses the result cache — its point is not to materialize the
        table.  Validation is eager.
        """
        self._require_flat()
        n = self.fitted._resolve_n(n)
        seed = self.fitted.config.seed if seed is None else seed
        timeout_s = self._resolve_timeout(timeout_s)
        blocks = self._blocks(n, seed)
        self.metrics.counter("requests_total", endpoint="sample_table_stream").increment()
        # generator steps may run on other threads; pin the parent explicitly
        parent_ctx = obs.current_context()

        def chunks():
            for block in blocks:
                with obs.span("service.stream_block", parent=parent_ctx,
                              attrs={"start": block[0], "count": block[1]}):
                    if self.pool is not None:
                        try:
                            part = self.pool.sample_blocks([block], deadline_s=timeout_s)[0]
                        except PoolDegraded as error:
                            self._degrade_to_serial(error)
                            part = self.fitted.sample_block(*block)
                    else:
                        part = self.fitted.sample_block(*block)
                self.metrics.counter("streamed_chunks").increment()
                self.metrics.counter("streamed_rows").increment(part.num_rows)
                yield part
        return chunks()

    # -- conditioned row sampling (coalesced) ------------------------------------------

    @property
    def _child_synth(self):
        self._require_flat()
        if len(self.fitted.synthesizers) != 1:
            raise ServingError(
                "conditioned row serving needs a single parent/child synthesizer; "
                "the {!r} pipeline has {}".format(self.fitted.name,
                                                  len(self.fitted.synthesizers))
            )
        synth = self.fitted.synthesizers[0]._child_synth
        if synth.config.sampling_strategy != "guided":
            raise ServingError("conditioned row serving requires the guided strategy")
        return synth

    def _normalize_request(self, n: int, conditions: dict | None,
                           seed: int | None) -> RowRequest:
        synth = self._child_synth
        subject = self.fitted.subject_column
        allowed = [name for name in synth._training_table.column_names if name != subject]
        conditions = dict(conditions or {})
        unknown = [name for name in conditions if name not in allowed]
        if unknown:
            raise ServingError(
                "unknown condition columns {}; conditionable columns are {}".format(
                    unknown, allowed))
        seed = self.fitted.config.seed if seed is None else seed
        pinned = tuple(sorted(conditions.items(), key=lambda item: item[0]))
        return RowRequest(n=n, conditions=pinned, seed=seed)

    def _enhanced_conditions(self, request: RowRequest) -> dict:
        """Map original-label conditions into the enhanced space the child
        synthesizer was trained in (one-row table through the fitted mapping)."""
        conditions = dict(request.conditions)
        if not conditions:
            return {}
        one_row = Table({name: [value] for name, value in conditions.items()})
        return self.fitted.enhancer.transform(one_row).row(0)

    def sample_rows(self, n: int, conditions: dict | None = None,
                    seed: int | None = None,
                    timeout_s: float | None = None) -> Table:
        """Sample *n* conditioned child rows (original label space).

        Concurrent callers are coalesced into one batched engine pass; the
        result only depends on ``(bundle, n, conditions, seed)``.  Deadlines
        apply at batch granularity: the coalesced pass runs under the
        smallest timeout of its members, so a missed deadline fails every
        request batched with it (all are retryable).
        """
        self.metrics.counter("requests_total", endpoint="sample_rows").increment()
        with self.metrics.histogram("sample_rows").time(), \
                obs.span("service.sample_rows",
                         attrs={"n": n, "conditions": len(conditions or {})}) as sp:
            try:
                return self._sample_rows_timed(n, conditions, seed, timeout_s)
            except DeadlineExceeded:
                sp.add_event("deadline_exceeded")
                raise

    def _sample_rows_timed(self, n: int, conditions: dict | None,
                           seed: int | None, timeout_s: float | None = None) -> Table:
        request = self._normalize_request(n, conditions, seed)
        timeout_s = self._resolve_timeout(timeout_s)
        key = (self.digest, "rows", request)
        cached = self._cached(key)
        if cached is not None:
            return cached
        entry = _PendingRequest(request, timeout_s=timeout_s)
        with self._batch_lock:
            self._pending.append(entry)
            leader = not self._draining
            if leader:
                self._draining = True
        if leader:
            if self.config.batch_window_s > 0:
                time.sleep(self.config.batch_window_s)
            with self._batch_lock:
                batch, self._pending = self._pending, []
                self._draining = False
            timeouts = [e.timeout_s for e in batch if e.timeout_s is not None]
            batch_timeout = min(timeouts) if timeouts else None
            try:
                results = self.sample_rows_many([e.request for e in batch],
                                                timeout_s=batch_timeout)
            except BaseException as error:  # propagate to every waiter
                for waiter in batch:
                    waiter.error = error
                    waiter.event.set()
                raise
            for waiter, result in zip(batch, results):
                waiter.result = result
                waiter.event.set()
        entry.event.wait()
        if entry.error is not None:
            raise entry.error
        self._remember(key, entry.result)
        return entry.result

    def sample_rows_many(self, requests: list[RowRequest],
                         timeout_s: float | None = None) -> list[Table]:
        """Serve a batch of row requests through one engine pass per column.

        This is the deterministic coalescing unit: every request occupies a
        contiguous lane range of one merged guided session, candidate
        scoring runs once per column across all lanes, and each request
        draws from its own ``(seed)``-derived RNG stream — so the result
        per request is identical whether it is served alone or merged.
        """
        if not requests:
            return []
        self.metrics.counter("row_requests").increment(len(requests))
        self.metrics.counter("coalesced_batches").increment()
        self.metrics.gauge("coalesced_requests_max").set_max(len(requests))
        if self.pool is not None:
            # the whole coalesced batch goes to ONE worker so it still runs
            # as a single merged engine pass per column
            try:
                return self.pool.sample_rows_many(requests, deadline_s=timeout_s)
            except PoolDegraded as error:
                self._degrade_to_serial(error)
        batch_start_us = obs.monotonic_us()
        synth = self._child_synth
        engine = synth._engine
        temperature = synth.config.sampler.temperature
        subject = self.fitted.subject_column

        sizes = [request.n for request in requests]
        bounds = np.zeros(len(sizes) + 1, dtype=np.int64)
        np.cumsum(sizes, out=bounds[1:])
        total = int(bounds[-1])
        slices = [slice(int(bounds[i]), int(bounds[i + 1])) for i in range(len(sizes))]
        rngs = [np.random.default_rng([_ROWS_STREAM, derive_seed(request.seed)])
                for request in requests]
        prompts = [self._enhanced_conditions(request) for request in requests]

        # the session's own RNG is never drawn from — every draw below comes
        # from the owning request's stream
        session = engine.guided_session(total, seed=0)
        rows: list[list[dict]] = [[{} for _ in range(n)] for n in sizes]
        columns = synth._training_table.column_names
        for name in columns:
            session.extend_shared(synth._structure_token_ids[name])
            candidates = synth._column_candidates[name]
            token_lists = synth._candidate_token_ids[name]
            fixed = [name in prompt for prompt in prompts]
            scores = None
            if len(candidates) > 1 and not all(fixed):
                # the one batched engine pass for this column: candidate
                # scores for every lane of every pending request at once
                scores = engine.score_candidates(session.contexts, session.lengths,
                                                 token_lists)
            lane_tokens: list = [None] * total
            for index, request in enumerate(requests):
                window = slices[index]
                request_rows = rows[index]
                if fixed[index]:
                    value = prompts[index][name]
                    tokens = synth._encode_value_tokens(value)
                    picks = None
                elif len(candidates) == 1:
                    value, tokens, picks = candidates[0], token_lists[0], None
                else:
                    picks = _choose_indices(scores[window], rngs[index], temperature)
                for offset in range(window.stop - window.start):
                    if picks is not None:
                        choice = int(picks[offset])
                        value, tokens = candidates[choice], token_lists[choice]
                    request_rows[offset][name] = value
                    lane_tokens[window.start + offset] = tokens
            session.extend_rows(lane_tokens)
            session.extend_shared(synth._separator_ids)

        tables = []
        for request_rows in rows:
            table = Table.from_records(request_rows, columns=columns)
            table = self.fitted.enhancer.inverse_transform(table)
            if subject in table.column_names:
                table = table.drop(subject)
            tables.append(table)
        obs.emit_span("service.rows_batch", obs.current_context(), batch_start_us,
                      obs.monotonic_us() - batch_start_us,
                      attrs={"requests": len(requests), "lanes": total})
        return tables
