"""Process worker pool for CPU-parallel sampling.

Thread sharding cannot speed up the sampling hot path — it is pure
Python/NumPy under the GIL — so this pool runs the same deterministic work
units (:meth:`FittedPipeline.sample_block` blocks, coalesced row batches,
whole databases) in worker *processes*.  Each worker cold-starts by
loading the bundle from its digest-addressed path (optionally memory-mapped
so the n-gram count tables share page cache across workers) and verifies
the content digest before reporting ready.  Because every work unit's seed
is ``SeedSequence``-derived from the request seed alone, results are
bit-identical for any worker count and identical to the thread-sharded and
serial paths.

Transport stays in the repo's pickle-free spirit: tables cross the process
boundary as NPZ bytes through :mod:`repro.store.tablefmt`, requests as
plain tuples of primitives.

Failure model (see also the README's "Failure model & operations"):

* **Retries.** A dead worker's orphaned tasks are re-dispatched to live
  workers with a bounded budget (``retries`` beyond the first attempt) and
  exponential backoff.  Only the task the worker was actually serving (the
  oldest-dispatched orphan) is charged an attempt; tasks still waiting in
  the dead worker's queue re-dispatch without touching their budget — deep
  queues do not burn retries on work that never started.  Seeds travel in
  the payload, so a retried result is bit-identical to the single-shot path
  no matter which worker runs it.  With the budget exhausted (or
  ``retries=0``) a task fails with a :class:`ServingError` naming the
  worker and exit code.
* **Deadlines.** ``submit(..., deadline_s=...)`` arms a watchdog: a task
  still unresolved past its deadline fails with
  :class:`DeadlineExceeded` and the worker holding it is killed and
  respawned, so one wedged request cannot pin a worker forever.
* **Crash-loop breaker.** ``breaker_threshold`` worker deaths inside
  ``breaker_window_s`` trip the pool open: respawning stops, ``submit``
  raises :class:`PoolDegraded` (callers fall back or fail fast), and after
  ``breaker_cooldown_s`` the pool half-opens — dead workers respawn as a
  probe; a successful cold start or task result closes the breaker, a
  further death re-opens it.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from collections import deque
from multiprocessing.connection import wait as connection_wait
from queue import Empty

from repro import faults
from repro.obs import trace as obs_trace
from repro.serving.metrics import MetricsRegistry, series_key
from repro.serving.service import (DeadlineExceeded, PoolDegraded, RowRequest,
                                   ServingConfig, ServingError, SynthesisService,
                                   process_peak_rss_bytes)
from repro.store.tablefmt import decode_table, encode_table

#: Seconds a worker gets to load the bundle and report ready.
_READY_TIMEOUT_S = 60.0
_JOIN_TIMEOUT_S = 5.0
#: Upper bound on one retry backoff sleep, whatever the budget says.
_MAX_BACKOFF_S = 2.0
#: How long a ``task_hang`` fault sleeps when the plan gives no argument.
_HANG_DEFAULT_S = 3600.0


def _execute(service: SynthesisService, method: str, payload):
    """Run one task against the worker-local service; returns wire payload."""
    if method == "sample_block":
        start, count, seed = payload
        return encode_table(service.fitted.sample_block(start, count, seed))
    if method == "sample_rows_many":
        requests = [RowRequest(n=n, conditions=conditions, seed=seed)
                    for n, conditions, seed in payload]
        return [encode_table(table) for table in service.sample_rows_many(requests)]
    if method == "sample_database":
        n, seed = payload
        database = service.fitted.sample_database(n, seed=seed)
        return {name: encode_table(table) for name, table in database.items()}
    if method == "ping":
        return None
    raise ServingError("unknown worker method {!r}".format(method))


def _crash(results, code: int = 3) -> None:
    """Die abruptly, but flush this process's result-channel feeder first.

    ``os._exit`` alone can kill the queue's feeder thread mid-write, tearing
    a frame in the *shared* results pipe (or dying while holding its write
    lock) — which wedges the collector for every other worker.  A scripted
    crash simulates a dead worker, not corrupted IPC, so flush then die."""
    try:
        results.close()
        results.join_thread()
    except Exception:
        pass
    os._exit(code)


def _worker_main(worker_index: int, bundle_path: str, mmap: bool, block_size: int,
                 tasks, results, fault_spec: str | None = None,
                 trace_enabled: bool = False) -> None:
    """Worker process entry point: cold-start from the bundle, then serve."""
    if fault_spec:
        # each worker life arms its own injector, so per-process hit counters
        # (e.g. "crash on every 25th task") restart from zero on respawn
        faults.arm(fault_spec)
    # a forked worker inherits the parent's tracer; replace it with a local
    # buffer (drained into every result's meta) or disarm it outright
    if trace_enabled:
        span_buffer = obs_trace.configure_buffered()
    else:
        obs_trace.disable()
        span_buffer = None
    fired_last: dict[str, int] = {}

    def _meta() -> dict:
        """Per-result sideband: peak RSS, buffered spans, fault-fired deltas."""
        meta: dict = {"rss": process_peak_rss_bytes()}
        if span_buffer is not None:
            meta["spans"] = span_buffer.drain()
        fired = faults.fired_snapshot()
        delta = {point: count - fired_last.get(point, 0)
                 for point, count in fired.items()
                 if count > fired_last.get(point, 0)}
        if delta:
            meta["faults"] = delta
            fired_last.update(fired)
        return meta

    try:
        from repro.registry.cas import RegistrySource

        config = ServingConfig(shards=1, block_size=block_size, cache_bytes=0,
                               batch_window_s=0.0, mmap=mmap)
        if isinstance(bundle_path, RegistrySource):
            service = SynthesisService.from_registry(bundle_path.root,
                                                     bundle_path.digest,
                                                     config=config)
        else:
            service = SynthesisService.from_bundle(bundle_path, config=config)
    except BaseException as error:
        results.put(("failed", None, worker_index, repr(error), _meta()))
        return
    results.put(("ready", None, worker_index, service.digest, _meta()))
    while True:
        item = tasks.get()
        if item is None:
            return
        task_id, method, payload, trace_ctx = item
        received_us = obs_trace.monotonic_us()
        if method == "crash":  # test hook: die instead of serving, like an OOM kill
            _crash(results)
        if faults.check("worker_crash") is not None:
            _crash(results)
        hang = faults.check("task_hang")
        if hang is not None:
            time.sleep(hang.arg if hang.arg is not None else _HANG_DEFAULT_S)
        if trace_ctx is not None and span_buffer is not None:
            parent = (trace_ctx[0], trace_ctx[1])
            obs_trace.emit_span("pool.queue_wait", parent, trace_ctx[2],
                                received_us - trace_ctx[2],
                                attrs={"worker": worker_index})
            task_span = obs_trace.span("worker.task", parent=parent,
                                       attrs={"worker": worker_index, "method": method})
        else:
            task_span = obs_trace.NULL_SPAN
        try:
            with task_span:
                outcome = _execute(service, method, payload)
        except BaseException as error:
            results.put(("error", task_id, worker_index, repr(error), _meta()))
        else:
            results.put(("done", task_id, worker_index, outcome, _meta()))


class _Task:
    """A submitted work unit awaiting its result.

    The payload is kept so the pool can re-dispatch the task verbatim if
    its worker dies; ``deadline`` is an absolute ``time.monotonic`` instant
    the watchdog enforces.
    """

    __slots__ = ("task_id", "method", "payload", "event", "value", "error",
                 "worker_index", "attempts", "deadline", "dispatch_seq",
                 "trace_ctx", "_pool")

    def __init__(self, task_id: int, method: str, payload=None, pool=None):
        self.task_id = task_id
        self.method = method
        self.payload = payload
        self.event = threading.Event()
        self.value = None
        self.error: Exception | None = None
        self.worker_index: int | None = None
        self.attempts = 1
        self.deadline: float | None = None
        self.dispatch_seq = 0
        #: ``(trace_id, span_id, submitted_us)`` shipped with the task frame
        #: so the worker can stitch its spans under the submitting request.
        self.trace_ctx: tuple | None = None
        self._pool = pool

    def result(self, timeout: float | None = None):
        if not self.event.wait(timeout):
            # drop the abandoned entry from the pool's registry so its
            # payload cannot be pinned forever by a caller that gave up
            if self._pool is not None:
                self._pool._forget(self)
            if not self.event.is_set():  # may have resolved in the race window
                raise ServingError("timed out waiting for worker task {!r}".format(self.method))
        if self.error is not None:
            raise self.error
        return self.value


class WorkerPool:
    """A fixed-size pool of bundle-loaded sampling processes.

    Tasks are dispatched round-robin onto per-worker queues; a collector
    thread resolves results and a monitor thread watches process sentinels
    and task deadlines so a crashed or wedged worker costs at most one
    retry round, not the request.  :attr:`metrics` is the registry it
    counts into — the one given, or its own.
    """

    def __init__(self, bundle_path, workers: int = 1, mmap: bool = False,
                 block_size: int = 256, expected_digest: str | None = None,
                 start_method: str | None = None, retries: int = 0,
                 retry_backoff_s: float = 0.05, breaker_threshold: int = 0,
                 breaker_window_s: float = 30.0, breaker_cooldown_s: float = 5.0,
                 faults_spec: str | None = None, metrics=None,
                 trace: bool | None = None):
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if retries < 0:
            raise ValueError("retries must be non-negative")
        if retry_backoff_s < 0:
            raise ValueError("retry_backoff_s must be non-negative")
        if breaker_threshold < 0:
            raise ValueError("breaker_threshold must be non-negative (0 disables)")
        from repro.registry.cas import RegistrySource

        # a RegistrySource travels to the workers as-is (it is a frozen
        # picklable reference); anything else is a bundle file path
        self.bundle_path = (bundle_path if isinstance(bundle_path, RegistrySource)
                            else str(bundle_path))
        self.workers = workers
        self.mmap = bool(mmap)
        self.block_size = block_size
        self.retries = retries
        self.retry_backoff_s = retry_backoff_s
        self.breaker_threshold = breaker_threshold
        self.breaker_window_s = breaker_window_s
        self.breaker_cooldown_s = breaker_cooldown_s
        self.faults_spec = faults_spec
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        for name, value in (("pool_workers", workers), ("pool_retries", retries),
                            ("pool_breaker_threshold", breaker_threshold),
                            ("pool_dead_workers", 0)):
            self.metrics.gauge(name).set(value)
        for name in ("worker_restarts", "pool_retries_exhausted", "pool_deadline_kills"):
            self.metrics.counter(name)
        # decided once at construction: workers are told whether to buffer
        # spans when they are spawned, so flipping the global tracer later
        # does not desynchronize parent and children
        self._trace = obs_trace.enabled() if trace is None else bool(trace)
        methods = multiprocessing.get_all_start_methods()
        if start_method is None:
            start_method = "fork" if "fork" in methods else methods[0]
        self._context = multiprocessing.get_context(start_method)
        self._results = self._context.Queue()
        self._task_queues = [self._context.Queue() for _ in range(workers)]
        self._lock = threading.Lock()
        self._tasks: dict[int, _Task] = {}
        self._next_task_id = 0
        self._next_worker = 0
        self._dispatch_seq = 0
        self._closing = False
        self.digest: str | None = None
        self._deaths: deque = deque()          # monotonic timestamps in the window
        self._dead: set[int] = set()           # indices awaiting respawn (breaker open)
        self._breaker_state = "closed"
        self._breaker_opened_at = 0.0
        self._collector = threading.Thread(target=self._collect, daemon=True,
                                           name="workerpool-collector")
        self._monitor = threading.Thread(target=self._watch, daemon=True,
                                         name="workerpool-monitor")

        self._processes = [self._spawn(index) for index in range(workers)]
        self._await_ready(range(workers), expected_digest)
        self._collector.start()
        self._monitor.start()

    # -- lifecycle ---------------------------------------------------------------------

    def _spawn(self, index: int):
        process = self._context.Process(
            target=_worker_main,
            args=(index, self.bundle_path, self.mmap, self.block_size,
                  self._task_queues[index], self._results, self.faults_spec,
                  self._trace),
            daemon=True,
            name="repro-worker-{}".format(index),
        )
        process.start()
        return process

    def _await_ready(self, indices, expected_digest: str | None) -> None:
        """Block until every listed worker reports a verified cold start."""
        pending = set(indices)
        while pending:
            try:
                kind, _, worker_index, payload, meta = self._results.get(
                    timeout=_READY_TIMEOUT_S)
            except Exception:
                self.close()
                raise ServingError("workers {} never reported ready".format(sorted(pending)))
            self._absorb_meta(worker_index, meta)
            if kind == "failed":
                self.close()
                raise ServingError("worker {} failed to load bundle: {}".format(
                    worker_index, payload))
            if kind != "ready":
                continue
            if expected_digest is not None and payload != expected_digest:
                self.close()
                raise ServingError(
                    "worker {} loaded digest {} but the pool serves {}".format(
                        worker_index, payload, expected_digest))
            if self.digest is None:
                self.digest = payload
            pending.discard(worker_index)

    def close(self) -> None:
        """Stop every worker, fail whatever is still in flight, and join the
        collector and monitor threads so neither outlives the pool's queues."""
        with self._lock:
            if self._closing:
                return
            self._closing = True
            leftovers = list(self._tasks.values())
            self._tasks.clear()
        for task in leftovers:
            task.error = ServingError("worker pool closed")
            task.event.set()
        for queue in self._task_queues:
            try:
                queue.put(None)
            except Exception:
                pass
        for process in self._processes:
            process.join(timeout=_JOIN_TIMEOUT_S)
            if process.is_alive():
                process.terminate()
                process.join(timeout=_JOIN_TIMEOUT_S)
        self._results.put(None)
        for thread in (self._collector, self._monitor):
            if thread.is_alive():  # never started when the cold start failed
                thread.join(timeout=_JOIN_TIMEOUT_S)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- introspection -----------------------------------------------------------------

    @property
    def restarts(self) -> int:
        return self.metrics.counter("worker_restarts").value

    @property
    def degraded(self) -> bool:
        """Whether the crash-loop breaker is open (pool refusing work)."""
        with self._lock:
            return self._breaker_state == "open"

    @property
    def breaker_state(self) -> str:
        with self._lock:
            return self._breaker_state

    def stats(self) -> dict:
        """The pool's ``/stats`` section, read from one registry snapshot
        (the breaker state is live control state, not a metric)."""
        counters = self.metrics.counters_snapshot()
        gauges = self.metrics.gauges_snapshot()
        workers = range(self.workers)
        # per-worker peak RSS piggybacked on the result pipe; string keys
        # so the dict survives the JSON trip through /stats unchanged
        worker_rss = {str(index): gauges[key] for index in workers
                      if (key := series_key("pool_worker_peak_rss_bytes", worker=index)) in gauges}
        return {
            "workers": gauges["pool_workers"],
            "retries": gauges["pool_retries"],
            "restarts": counters["worker_restarts"],
            "tasks_retried": sum(counters.get(series_key("tasks_retried_total", worker=index), 0)
                                 for index in workers),
            "retries_exhausted": counters["pool_retries_exhausted"],
            "deadline_kills": counters["pool_deadline_kills"],
            "breaker_state": self.breaker_state,
            "breaker_threshold": gauges["pool_breaker_threshold"],
            "breaker_trips": counters.get(
                series_key("breaker_transitions_total", state="open"), 0),
            "dead_workers": gauges["pool_dead_workers"],
            "worker_peak_rss_bytes": worker_rss,
            "max_worker_peak_rss_bytes": max(worker_rss.values(), default=0),
        }

    # -- dispatch ----------------------------------------------------------------------

    def submit(self, method: str, payload, deadline_s: float | None = None) -> _Task:
        context = obs_trace.current_context()
        with self._lock:
            if self._closing:
                raise ServingError("worker pool is closed")
            if self._breaker_state == "open":
                raise PoolDegraded(
                    "worker pool is degraded: {} worker deaths within {:.0f}s tripped "
                    "the crash-loop breaker; retry after the {:.0f}s cooldown".format(
                        len(self._deaths), self.breaker_window_s, self.breaker_cooldown_s))
            task = _Task(self._next_task_id, method, payload, pool=self)
            self._next_task_id += 1
            # the parent assigns work at submit time, so it always knows which
            # worker owns a task — a worker that dies without managing to send
            # anything still fails exactly its own tasks
            task.worker_index = self._pick_worker_locked()
            if deadline_s is not None:
                task.deadline = time.monotonic() + deadline_s
            task.dispatch_seq = self._dispatch_seq
            self._dispatch_seq += 1
            if context is not None:
                task.trace_ctx = (context[0], context[1], obs_trace.monotonic_us())
            self._tasks[task.task_id] = task
            # the put happens under the lock so dispatch_seq order equals
            # queue order — _handle_death relies on it to tell the task the
            # worker was serving apart from ones still waiting in its queue
            self._task_queues[task.worker_index].put(
                (task.task_id, method, payload, task.trace_ctx))
        return task

    def _pick_worker_locked(self) -> int:
        """Round-robin over workers, skipping ones the breaker holds dead."""
        index = self._next_worker
        for _ in range(self.workers):
            index = self._next_worker
            self._next_worker = (self._next_worker + 1) % self.workers
            if index not in self._dead:
                return index
        return index  # every worker dead: the queue survives until respawn

    def _forget(self, task: _Task) -> None:
        """Drop a task a caller abandoned (its ``result`` timed out)."""
        with self._lock:
            self._tasks.pop(task.task_id, None)

    def _count(self, name: str, amount: int = 1, **labels) -> None:
        self.metrics.counter(name, **labels).increment(amount)

    def _absorb_meta(self, worker_index, meta) -> None:
        """Fold one result's sideband into pool-level observability state."""
        if not meta:
            return
        rss = meta.get("rss")
        if rss:
            self.metrics.gauge("pool_worker_peak_rss_bytes", worker=worker_index).set_max(rss)
        spans = meta.get("spans")
        if spans:
            for record in spans:
                obs_trace.emit_raw(record)
        fired = meta.get("faults")
        if fired:
            for point, count in fired.items():
                self._count("faults_fired_total", amount=count, point=point,
                            worker=str(worker_index))

    def _collect(self) -> None:
        while True:
            item = self._results.get()
            if item is None:
                return
            kind, task_id, worker_index, payload, meta = item
            self._absorb_meta(worker_index, meta)
            self._count("worker_results_total", worker=str(worker_index), kind=kind)
            if kind in ("ready", "failed"):
                # "ready" proves a respawned worker cold-started; either way the
                # monitor owns death handling — here we only settle the breaker
                if kind == "ready":
                    self._breaker_probe_succeeded()
                continue
            with self._lock:
                task = self._tasks.pop(task_id, None)
            # any task result proves the sending worker is serving
            self._breaker_probe_succeeded()
            if task is None:
                continue  # duplicate of a retried task, or an abandoned one
            if kind == "done":
                task.value = payload
            else:
                task.error = ServingError("worker {} failed {}: {}".format(
                    worker_index, task.method, payload))
            task.event.set()

    def _breaker_transition(self, state: str, **attrs) -> None:
        """Record a breaker state change as a root span + labeled counter."""
        self._count("breaker_transitions_total", state=state)
        obs_trace.emit_span(
            "pool.breaker_" + state, None, obs_trace.monotonic_us(), 0,
            attrs=attrs or None, status="error" if state == "open" else "ok")

    def _breaker_probe_succeeded(self) -> None:
        """A half-open probe came back healthy: close the breaker."""
        with self._lock:
            closed = self._breaker_state == "half_open"
            if closed:
                self._breaker_state = "closed"
                self._deaths.clear()
        if closed:
            self._breaker_transition("closed")

    def _watch(self) -> None:
        """Monitor loop: deadlines, worker deaths, and breaker transitions."""
        while True:
            with self._lock:
                if self._closing:
                    return
                now = time.monotonic()
                overdue = [task for task in self._tasks.values()
                           if task.deadline is not None and now > task.deadline]
                for task in overdue:
                    del self._tasks[task.task_id]
                kill = sorted({task.worker_index for task in overdue} - self._dead)
                respawn = []
                half_opened = False
                if (self._breaker_state == "open"
                        and now - self._breaker_opened_at >= self.breaker_cooldown_s):
                    self._breaker_state = "half_open"
                    half_opened = True
                    respawn = sorted(self._dead)
                candidates = [(index, process)
                              for index, process in enumerate(self._processes)
                              if index not in self._dead]
            if half_opened:
                self._breaker_transition("half_open")
            for task in overdue:
                task.error = DeadlineExceeded(
                    "worker task {!r} missed its deadline; "
                    "the worker holding it is being replaced".format(task.method))
                if task.trace_ctx is not None:
                    now_us = obs_trace.monotonic_us()
                    obs_trace.emit_span(
                        "pool.deadline", task.trace_ctx[:2], now_us, 0,
                        attrs={"method": task.method, "worker": task.worker_index},
                        status="error",
                        events=[{"name": "deadline_exceeded", "t_us": now_us}])
                task.event.set()
            for index in kill:
                self._count("pool_deadline_kills")
                process = self._processes[index]
                if process.is_alive():
                    process.kill()
            for index in respawn:
                self._respawn(index)
            # a worker that died while this thread was busy handling another
            # death has a non-alive process but never fires its sentinel again
            # for connection_wait — sweep for those explicitly
            newly_dead = [index for index, process in candidates
                          if not process.is_alive()]
            if newly_dead:
                for index in newly_dead:
                    self._handle_death(index)
                continue
            sentinels = {process.sentinel: index for index, process in candidates}
            if not sentinels:
                time.sleep(0.2)  # breaker holds every worker dead; keep ticking
                continue
            fired = connection_wait(list(sentinels), timeout=0.2)
            for sentinel in fired:
                self._handle_death(sentinels[sentinel])

    def _respawn(self, index: int) -> None:
        with self._lock:
            if self._closing:
                return
            self._dead.discard(index)
            self.metrics.gauge("pool_dead_workers").set(len(self._dead))
            self._count("worker_restarts")
            self._processes[index] = self._spawn(index)

    def _drain_queue(self, index: int) -> None:
        """Empty a dead worker's queue so a respawn does not replay tasks the
        retry path already re-dispatched elsewhere (duplicate work, not
        duplicate results — but the work is real)."""
        queue = self._task_queues[index]
        while True:
            try:
                item = queue.get(timeout=0.05)
            except Empty:
                return
            except Exception:
                return
            if item is None:  # re-queue the close() poison pill
                queue.put(None)
                return

    def _handle_death(self, index: int) -> None:
        """Apply the failure policy for one dead worker."""
        if self._closing:
            return  # close() stopped it; returning promptly lets close() join us
        process = self._processes[index]
        process.join(timeout=_JOIN_TIMEOUT_S)
        # give the collector a beat to drain "done" messages the worker
        # managed to send before dying, so finished tasks are not failed
        # retroactively
        time.sleep(0.1)
        self._drain_queue(index)
        with self._lock:
            if self._closing:
                return
            if index in self._dead:
                return
            self._dead.add(index)
            self.metrics.gauge("pool_dead_workers").set(len(self._dead))
            now = time.monotonic()
            self._deaths.append(now)
            while self._deaths and now - self._deaths[0] > self.breaker_window_s:
                self._deaths.popleft()
            tripped = False
            if self._breaker_state == "half_open":
                tripped = True  # the probe respawn died: straight back open
            elif (self.breaker_threshold > 0 and self._breaker_state == "closed"
                    and len(self._deaths) >= self.breaker_threshold):
                tripped = True
            if tripped:
                self._breaker_state = "open"
                self._breaker_opened_at = now
            deaths_in_window = len(self._deaths)
            breaker_open = self._breaker_state == "open"
            orphans = [task for task in self._tasks.values()
                       if task.worker_index == index]
            for task in orphans:
                del self._tasks[task.task_id]
            # the worker serves its queue in dispatch order, so the oldest
            # unfinished orphan is the task it died serving — only that task
            # is charged a retry attempt; the rest were still queued and
            # re-dispatch without touching their budget
            charged = min(orphans, key=lambda t: t.dispatch_seq, default=None)
            retry, fail = [], []
            for task in orphans:
                if breaker_open or self.retries == 0:
                    fail.append(task)
                elif task is charged and task.attempts > self.retries:
                    fail.append(task)
                else:
                    retry.append(task)
        self._count("worker_deaths_total", worker=str(index))
        if tripped:
            self._breaker_transition("open", deaths=deaths_in_window)
        if charged is not None and charged.trace_ctx is not None:
            # the attempt the dead worker was serving, visible in the trace
            # even though the worker itself could not ship its spans
            obs_trace.emit_span(
                "pool.attempt_failed", charged.trace_ctx[:2],
                obs_trace.monotonic_us(), 0,
                attrs={"worker": index, "exit_code": process.exitcode,
                       "attempt": charged.attempts, "method": charged.method},
                status="error")
        for task in fail:
            if breaker_open and self.retries > 0 and task.attempts <= self.retries:
                task.error = PoolDegraded(
                    "worker {} died (exit code {}) while serving {} and the "
                    "crash-loop breaker is open".format(index, process.exitcode, task.method))
            else:
                suffix = (" after {} attempts".format(task.attempts)
                          if task.attempts > 1 else "")
                task.error = ServingError(
                    "worker {} died (exit code {}) while serving {}{}".format(
                        index, process.exitcode, task.method, suffix))
                if task.attempts > 1:
                    self._count("pool_retries_exhausted")
            task.event.set()
        if not breaker_open:
            self._respawn(index)
        if retry:
            # one backoff sleep per death event, exponential in the charged
            # task's attempt count
            attempt = charged.attempts if charged in retry else 1
            delay = self.retry_backoff_s * (2 ** (attempt - 1))
            if delay > 0:
                time.sleep(min(delay, _MAX_BACKOFF_S))
        for task in retry:
            with self._lock:
                if self._closing or self._breaker_state == "open":
                    requeue = False
                else:
                    requeue = True
                    task.worker_index = self._pick_worker_locked()
                    if task is charged:
                        task.attempts += 1
                        self._count("tasks_retried_total", worker=task.worker_index)
                    task.dispatch_seq = self._dispatch_seq
                    self._dispatch_seq += 1
                    if task.trace_ctx is not None:
                        # restamp the dispatch time so the next queue-wait
                        # span measures from this re-dispatch, not the
                        # original submit
                        task.trace_ctx = (task.trace_ctx[0], task.trace_ctx[1],
                                          obs_trace.monotonic_us())
                    self._tasks[task.task_id] = task
                    self._task_queues[task.worker_index].put(
                        (task.task_id, task.method, task.payload, task.trace_ctx))
            if requeue and task is charged and task.trace_ctx is not None:
                obs_trace.emit_span(
                    "pool.retry", task.trace_ctx[:2], task.trace_ctx[2], 0,
                    attrs={"attempt": task.attempts, "method": task.method,
                           "worker": task.worker_index})
            if not requeue:
                task.error = PoolDegraded(
                    "worker pool degraded before task {!r} could be retried".format(
                        task.method))
                task.event.set()

    # -- typed helpers -----------------------------------------------------------------

    def sample_blocks(self, blocks, deadline_s: float | None = None) -> list:
        """Run ``sample_block`` tasks for every ``(start, count, seed)`` block."""
        tasks = [self.submit("sample_block", tuple(block), deadline_s=deadline_s)
                 for block in blocks]
        return [decode_table(task.result()) for task in tasks]

    def sample_rows_many(self, requests, deadline_s: float | None = None) -> list:
        """Ship one coalesced row batch to a single worker (one merged pass)."""
        payload = [(request.n, tuple(request.conditions), request.seed)
                   for request in requests]
        task = self.submit("sample_rows_many", payload, deadline_s=deadline_s)
        return [decode_table(blob) for blob in task.result()]

    def sample_database(self, n, seed, deadline_s: float | None = None) -> dict:
        task = self.submit("sample_database", (n, seed), deadline_s=deadline_s)
        return {name: decode_table(blob) for name, blob in task.result().items()}
