"""Asyncio HTTP front end for :class:`SynthesisService`.

A small stdlib-only JSON-over-HTTP server: the asyncio event loop accepts
connections and parses requests, sampling itself runs on a thread pool so
the loop never blocks — and because several requests are in those threads
at once, concurrent conditioned ``sample_rows`` calls from *different
connections* fall into the service's existing leader/follower coalescing
and are served by one merged engine pass.

Backpressure is explicit: at most ``max_queue`` requests may be in flight
(queued or executing); request number ``max_queue + 1`` is rejected
immediately with **429 Too Many Requests** and a JSON error body instead
of being buffered without bound.  The high-water mark of the in-flight
count is tracked so operators can see how close traffic comes to the
limit before rejections start.

Endpoints (all JSON unless noted):

* ``POST /sample_table``    ``{"n": int?, "seed": int?, "stream": bool?, "timeout_s": float?}``
* ``POST /sample_rows``     ``{"n": int, "conditions": {...}?, "seed": int?, "timeout_s": float?}``
* ``POST /sample_database`` ``{"n": int | {table: int}?, "seed": int?, "timeout_s": float?}``
* ``GET  /stats``           service counters + latency histograms + server section
* ``GET  /metrics``         the same metrics plane in Prometheus text format
* ``GET  /trace``           recent spans when tracing uses the in-memory ring sink
* ``GET  /healthz``         liveness and the served bundle digest
* ``GET  /readyz``          readiness — 503 while draining or while the worker
  pool's crash-loop breaker holds the service degraded in fail-fast mode

Observability: every request is answered with an ``X-Request-Id`` header
(honored when the client supplies one; a 16-hex id doubles as the trace id
so client-chosen ids stitch straight into the trace tree), one structured
access-log line per request goes to stderr (method, path, status, request
id, duration), and when tracing is armed (``ServingConfig.trace``) each
request becomes a ``server.request`` span whose children cover executor
queue wait, service work, worker-pool dispatch and per-chunk generation.

Tables come back as ``{"columns": [...], "rows": [{col: value}, ...]}``;
databases as ``{"tables": {name: table}}``.  The server counts into the
service's :class:`~repro.serving.metrics.MetricsRegistry`, the one metrics
store, and ``/stats`` and ``/metrics`` are its two renderings: ``/stats``
embeds :meth:`SynthesisService.stats` unchanged plus a ``server`` section
(accept/reject counts, queue watermarks) read from the same snapshot.
``http_requests_total`` labels only known routes — any other path counts
as ``path="other"`` — so clients cannot grow the registry without bound.

``"stream": true`` turns the ``/sample_table`` response into a chunked
transfer of newline-delimited JSON: one ``{"columns", "rows"}`` object per
serving block followed by a ``{"done": true, ...}`` summary line.  The
first block is sampled *before* the headers go out, so validation errors
still come back as ordinary JSON error responses; rows never accumulate
server-side, which is the point — a table larger than the server's RAM can
be streamed to the client.

Failure semantics (see the README's "Failure model & operations"): a
request that misses its ``timeout_s`` deadline or hits a degraded worker
pool answers **503 Service Unavailable** with a structured
``{"error", "type"}`` body (``type`` is ``"deadline"`` or ``"degraded"``)
— retryable by contract, unlike a 400.  ``SIGTERM`` (or
:meth:`SynthesisServer.begin_drain`) starts a graceful drain: new sampling
requests get 503 + ``Retry-After`` while in-flight work finishes, then the
process flushes final stats and exits.
"""

from __future__ import annotations

import asyncio
import contextvars
import http.client
import json
import re
import signal
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro import faults
from repro.obs import access_log, prometheus_text
from repro.obs import trace as obs
from repro.obs.prom import CONTENT_TYPE as PROM_CONTENT_TYPE
from repro.serving.service import (DeadlineExceeded, PoolDegraded, ServingError,
                                   SynthesisService)

#: Default bound on in-flight requests before 429 rejection.
DEFAULT_MAX_QUEUE = 64

#: ``Retry-After`` seconds suggested on 503 responses (drain / degraded).
RETRY_AFTER_S = 5

_MAX_HEADER_BYTES = 64 * 1024
_MAX_START_LINE_BYTES = 8 * 1024
_MAX_BODY_BYTES = 64 * 2**20

#: Client-supplied ``X-Request-Id`` values are honored when they look like a
#: token (no header injection, bounded length); a 16-hex value additionally
#: becomes the trace id so client ids stitch into the trace tree directly.
_REQUEST_ID_RE = re.compile(r"^[A-Za-z0-9._-]{1,64}$")
_TRACE_ID_RE = re.compile(r"^[0-9a-f]{16}$")

#: The ``path`` label values of ``http_requests_total``; anything else is
#: counted as ``"other"``.
_ROUTES = frozenset({"/sample_table", "/sample_rows", "/sample_database", "/stats",
                     "/metrics", "/trace", "/healthz", "/readyz"})

#: The ``/stats`` ``server`` keys in order; each reads series ``server_<key>``.
_SERVER_STATS = ("accepted", "rejected", "http_errors", "queue_high_water",
                 "malformed_requests", "deadline_errors", "in_flight", "draining",
                 "max_queue")


class IncompleteStream(RuntimeError):
    """A streamed response ended before its terminating summary line.

    ``lines`` holds the decoded ndjson records received before the drop,
    so callers can tell how far the stream got.
    """

    def __init__(self, message: str, lines: list):
        super().__init__(message)
        self.lines = lines


class _BadRequest(Exception):
    """A malformed HTTP request the server answers with 400 and closes."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def _jsonable(value):
    """Coerce numpy scalars (and anything with ``.item()``) to JSON types."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    return str(value)


def table_payload(table) -> dict:
    """The wire shape of one table: column order plus row records."""
    columns = list(table.column_names)
    rows = [{name: _jsonable(value) for name, value in record.items()}
            for record in table.to_records()]
    return {"columns": columns, "rows": rows}


class SynthesisServer:
    """Serve one :class:`SynthesisService` over HTTP with bounded queueing."""

    def __init__(self, service: SynthesisService, host: str = "127.0.0.1",
                 port: int = 0, max_queue: int = DEFAULT_MAX_QUEUE):
        if max_queue < 1:
            raise ValueError("max_queue must be at least 1")
        self.service = service
        self.host = host
        self.port = port
        self.max_queue = max_queue
        self._server: asyncio.AbstractServer | None = None
        # sampling threads: enough for the whole admission window so queued
        # requests coalesce in the service instead of serializing here
        self._executor = ThreadPoolExecutor(max_workers=max_queue,
                                            thread_name_prefix="serve")
        self._lock = threading.Lock()
        self._in_flight = 0
        self._draining = False
        self._metrics = service.metrics
        for key in ("accepted", "rejected", "http_errors", "malformed_requests",
                    "deadline_errors"):
            self._metrics.counter("server_" + key)
        for key, value in (("queue_high_water", 0), ("in_flight", 0), ("draining", 0),
                           ("max_queue", max_queue)):
            self._metrics.gauge("server_" + key).set(value)

    # -- lifecycle ---------------------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._executor.shutdown(wait=False)

    # -- admission control and drain ---------------------------------------------------

    def _count(self, key: str) -> None:
        self._metrics.counter("server_" + key).increment()

    def _admit(self) -> bool:
        with self._lock:
            if self._in_flight >= self.max_queue:
                self._count("rejected")
                return False
            self._in_flight += 1
            self._count("accepted")
            self._metrics.gauge("server_in_flight").set(self._in_flight)
            self._metrics.gauge("server_queue_high_water").set_max(self._in_flight)
            return True

    def _release(self) -> None:
        with self._lock:
            self._in_flight -= 1
            self._metrics.gauge("server_in_flight").set(self._in_flight)

    def _queue_full(self):
        """The 429 answer to a request :meth:`_admit` turned away."""
        return 429, {"error": "request queue is full", "max_queue": self.max_queue,
                     "rejected_total": self._metrics.counter("server_rejected").value}

    def begin_drain(self) -> None:
        """Stop admitting sampling work (503 + ``Retry-After``); GET
        endpoints keep answering so orchestrators can watch the drain."""
        with self._lock:
            self._draining = True
            self._metrics.gauge("server_draining").set(1)

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining

    async def drain(self, timeout_s: float = 30.0) -> bool:
        """Begin draining and wait for in-flight work; True if it hit zero."""
        self.begin_drain()
        deadline = time.monotonic() + max(timeout_s, 0.0)
        while True:
            with self._lock:
                if self._in_flight == 0:
                    return True
            if time.monotonic() >= deadline:
                with self._lock:
                    return self._in_flight == 0
            await asyncio.sleep(0.05)

    def _drain_response(self):
        self._count("rejected")
        return 503, {"error": "server is draining; no new work accepted",
                     "retry_after_s": RETRY_AFTER_S}, {"Retry-After": str(RETRY_AFTER_S)}

    def stats(self) -> dict:
        """The ``/stats`` payload: service stats plus the server section,
        read from the same registry snapshot."""
        out = self.service.stats()
        values = {**out["counters"], **out["gauges"]}
        server = {key: values["server_" + key] for key in _SERVER_STATS}
        server["draining"] = bool(server["draining"])
        out["server"] = server
        return out

    # -- request handling --------------------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _BadRequest as error:
                    self._count("malformed_requests")
                    access_log("-", "-", 400, "-", 0.0, error=error.reason)
                    await self._respond(writer, 400,
                                        {"error": "malformed request: {}".format(error.reason)},
                                        close=True)
                    break
                if request is None:
                    break
                method, path, body, req_headers = request
                started = time.perf_counter()
                supplied = (req_headers.get("x-request-id") or "").strip()
                request_id = (supplied if _REQUEST_ID_RE.fullmatch(supplied)
                              else obs.new_trace_id())
                trace_id = request_id if _TRACE_ID_RE.fullmatch(request_id) else None
                with obs.span("server.request",
                              attrs={"method": method, "path": path,
                                     "request_id": request_id},
                              trace_id=trace_id) as sp:
                    streamed = self._stream_request(method, path, body)
                    if streamed is not None:
                        keep_alive, status = await self._respond_stream(
                            writer, streamed, request_id)
                    else:
                        result = await self._dispatch(method, path, body)
                        status, payload = result[0], result[1]
                        headers = dict(result[2]) if len(result) > 2 else {}
                        headers["X-Request-Id"] = request_id
                        keep_alive = await self._respond(writer, status, payload,
                                                         headers)
                    sp.set_attr("status", status)
                duration_ms = (time.perf_counter() - started) * 1000.0
                access_log(method, path, status, request_id, duration_ms)
                self._metrics.counter("http_requests_total",
                                      path=path if path in _ROUTES else "other",
                                      status=str(status)).increment()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, RuntimeError):
                pass  # RuntimeError: the event loop already shut down

    async def _read_request(self, reader: asyncio.StreamReader):
        """Parse one request head + body; ``None`` on clean connection end.

        Malformed requests raise :class:`_BadRequest` so the caller can
        answer 400 and count them, instead of silently dropping the
        connection: oversized heads or start lines, unparseable request
        lines, and duplicate or invalid ``Content-Length`` headers (the
        classic request-smuggling vector) are all rejected explicitly.
        """
        try:
            header = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError:
            return None  # peer closed (cleanly or mid-head) — nobody to answer
        except asyncio.LimitOverrunError:
            raise _BadRequest("request head exceeds the stream limit")
        if len(header) > _MAX_HEADER_BYTES:
            raise _BadRequest("request head exceeds {} bytes".format(_MAX_HEADER_BYTES))
        lines = header.decode("latin-1").split("\r\n")
        if len(lines[0]) > _MAX_START_LINE_BYTES:
            raise _BadRequest("start line exceeds {} bytes".format(_MAX_START_LINE_BYTES))
        parts = lines[0].split(" ")
        if len(parts) != 3:
            raise _BadRequest("unparseable request line")
        method, path = parts[0].upper(), parts[1]
        lengths = []
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            key = name.strip().lower()
            if key:
                headers[key] = value.strip()
            if key == "content-length":
                try:
                    lengths.append(int(value.strip()))
                except ValueError:
                    raise _BadRequest("invalid Content-Length {!r}".format(value.strip()))
        if len(lengths) > 1:
            raise _BadRequest("{} Content-Length headers in one request".format(len(lengths)))
        length = lengths[0] if lengths else 0
        if length < 0:
            raise _BadRequest("negative Content-Length")
        if length > _MAX_BODY_BYTES:
            raise _BadRequest("body of {} bytes exceeds the {} byte limit".format(
                length, _MAX_BODY_BYTES))
        body = await reader.readexactly(length) if length else b""
        return method, path, body, headers

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       payload: dict, extra_headers: dict | None = None,
                       close: bool = False) -> bool:
        reasons = {200: "OK", 400: "Bad Request", 404: "Not Found",
                   405: "Method Not Allowed", 429: "Too Many Requests",
                   500: "Internal Server Error", 503: "Service Unavailable"}
        if isinstance(payload, str):  # pre-rendered text body (/metrics)
            body = payload.encode("utf-8")
            content_type = PROM_CONTENT_TYPE
        else:
            body = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
        head_lines = ["HTTP/1.1 {} {}".format(status, reasons.get(status, "OK")),
                      "Content-Type: {}".format(content_type),
                      "Content-Length: {}".format(len(body))]
        for name, value in (extra_headers or {}).items():
            head_lines.append("{}: {}".format(name, value))
        if close:
            head_lines.append("Connection: close")
        head = "\r\n".join(head_lines) + "\r\n\r\n"
        try:
            writer.write(head.encode("latin-1") + body)
            await writer.drain()
        except (ConnectionError, OSError):
            return False
        return not close

    def _stream_request(self, method: str, path: str, body: bytes) -> dict | None:
        """The parsed request iff this is a ``stream: true`` table request."""
        if method != "POST" or path != "/sample_table" or not body:
            return None
        try:
            request = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None  # let _dispatch produce the 400
        if isinstance(request, dict) and request.get("stream"):
            return request
        return None

    @staticmethod
    def _parse_timeout(request: dict) -> float | None:
        """The request's ``timeout_s`` as a positive float (``ValueError`` else)."""
        value = request.get("timeout_s")
        if value is None:
            return None
        if isinstance(value, bool):
            raise ValueError("timeout_s must be a positive number")
        try:
            value = float(value)
        except (TypeError, ValueError):
            raise ValueError("timeout_s must be a positive number")
        if value <= 0:
            raise ValueError("timeout_s must be a positive number")
        return value

    async def _respond_stream(self, writer: asyncio.StreamWriter, request: dict,
                              request_id: str = "-") -> tuple:
        """Stream one block-chunked ``/sample_table`` response (ndjson over
        chunked transfer encoding).  Returns ``(keep_alive, status)``."""

        async def reply(status, payload, extra=None):
            extra = dict(extra or {})
            extra["X-Request-Id"] = request_id
            return await self._respond(writer, status, payload, extra), status

        if self.draining:
            status, payload, headers = self._drain_response()
            return await reply(status, payload, headers)
        try:
            timeout_s = self._parse_timeout(request)
        except ValueError as error:
            self._count("http_errors")
            return await reply(400, {"error": str(error)})
        if not self._admit():
            return await reply(*self._queue_full())
        loop = asyncio.get_running_loop()
        try:
            try:
                # ship the request's trace context onto the executor thread so
                # service spans parent under this request's server.request span
                context = contextvars.copy_context()
                chunks = await loop.run_in_executor(
                    self._executor, context.run,
                    lambda: self.service.iter_sample_table(request.get("n"),
                                                           seed=request.get("seed"),
                                                           timeout_s=timeout_s))
                # pull the first block before committing to a 200: request
                # validation errors surface here and still get a JSON body
                first = await loop.run_in_executor(self._executor, next, chunks, None)
            except DeadlineExceeded as error:
                self._count("deadline_errors")
                return await reply(503, {"error": str(error), "type": "deadline"})
            except PoolDegraded as error:
                self._count("http_errors")
                return await reply(503, {"error": str(error), "type": "degraded"},
                                   {"Retry-After": str(RETRY_AFTER_S)})
            except (ServingError, ValueError, TypeError) as error:
                self._count("http_errors")
                return await reply(400, {"error": str(error)})
            except Exception as error:  # a bug, not a bad request — keep serving
                self._count("http_errors")
                return await reply(500, {
                    "error": "{}: {}".format(type(error).__name__, error)})
            head = ("HTTP/1.1 200 OK\r\n"
                    "Content-Type: application/x-ndjson\r\n"
                    "Transfer-Encoding: chunked\r\n"
                    "X-Request-Id: {}\r\n"
                    "\r\n").format(request_id)
            try:
                writer.write(head.encode("latin-1"))
                total_rows = 0
                total_chunks = 0
                block = first
                while block is not None:
                    data = (json.dumps(table_payload(block)) + "\n").encode("utf-8")
                    writer.write(b"%x\r\n" % len(data) + data + b"\r\n")
                    await writer.drain()
                    total_rows += block.num_rows
                    total_chunks += 1
                    if faults.check("stream_drop") is not None:
                        # chaos hook: hard-drop the connection short of the
                        # terminating chunk, as a mid-transfer network failure
                        writer.transport.abort()
                        return False, 200
                    block = await loop.run_in_executor(self._executor, next, chunks, None)
                summary = {"done": True, "chunks": total_chunks, "rows": total_rows}
                data = (json.dumps(summary) + "\n").encode("utf-8")
                writer.write(b"%x\r\n" % len(data) + data + b"\r\n" + b"0\r\n\r\n")
                await writer.drain()
            except (ConnectionError, OSError):
                return False, 200
            except Exception:  # mid-stream failure: the 200 is already out,
                self._count("http_errors")  # so drop the connection short of
                return False, 200  # its terminating chunk — unambiguous to clients
            return True, 200
        finally:
            self._release()

    async def _dispatch(self, method: str, path: str, body: bytes):
        if path == "/healthz":
            if method != "GET":
                return 405, {"error": "use GET"}
            return 200, {"ok": True, "digest": self.service.digest}
        if path == "/readyz":
            if method != "GET":
                return 405, {"error": "use GET"}
            ready, info = self.service.readiness()
            payload = dict(info, ready=ready, digest=self.service.digest)
            if self.draining:
                payload["ready"] = False
                payload["reason"] = "draining"
            if payload["ready"]:
                return 200, payload
            return 503, payload, {"Retry-After": str(RETRY_AFTER_S)}
        if path == "/stats":
            if method != "GET":
                return 405, {"error": "use GET"}
            return 200, self.stats()
        if path == "/metrics":
            if method != "GET":
                return 405, {"error": "use GET"}
            self.service.refresh_gauges()
            return 200, prometheus_text(self._metrics)
        if path == "/trace":
            if method != "GET":
                return 405, {"error": "use GET"}
            snapshot = obs.ring_snapshot()
            if snapshot is None:
                return 404, {"error": "tracing is not using the in-memory ring "
                                      "sink; serve with trace='ring' to expose "
                                      "recent spans here"}
            return 200, snapshot
        if path not in ("/sample_table", "/sample_rows", "/sample_database"):
            return 404, {"error": "unknown path {!r}".format(path)}
        if method != "POST":
            return 405, {"error": "use POST"}
        try:
            request = json.loads(body.decode("utf-8")) if body else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            return 400, {"error": "invalid JSON body: {}".format(error)}
        if not isinstance(request, dict):
            return 400, {"error": "request body must be a JSON object"}
        try:
            timeout_s = self._parse_timeout(request)
        except ValueError as error:
            return 400, {"error": str(error)}
        if self.draining:
            return self._drain_response()
        if not self._admit():
            return self._queue_full()
        loop = asyncio.get_running_loop()
        try:
            # copy_context ships the request's trace context onto the executor
            # thread; admitted_us lets _execute report how long the request sat
            # waiting for a free sampling thread as a server.queue_wait span
            context = contextvars.copy_context()
            future = loop.run_in_executor(
                self._executor, context.run, self._execute, path, request,
                timeout_s, obs.monotonic_us())
            effective = (timeout_s if timeout_s is not None
                         else self.service.config.timeout_s)
            if effective is not None and self.service.pool is None:
                # an inline service cannot kill its running thread: enforce the
                # deadline at the await; the orphaned thread runs to completion
                # but its queue slot frees and the client gets its 503 now
                try:
                    return await asyncio.wait_for(future, effective)
                except asyncio.TimeoutError:
                    self._count("deadline_errors")
                    return 503, {"error": "request missed its {}s deadline".format(effective),
                                 "type": "deadline"}
            return await future
        finally:
            self._release()

    def _execute(self, path: str, request: dict, timeout_s: float | None = None,
                 admitted_us: int | None = None):
        """Run one sampling request on an executor thread."""
        if admitted_us is not None and obs.enabled():
            now_us = obs.monotonic_us()
            obs.emit_span("server.queue_wait", obs.current_context(), admitted_us,
                          max(0, now_us - admitted_us), attrs={"path": path})
        try:
            seed = request.get("seed")
            if path == "/sample_table":
                table = self.service.sample_table(request.get("n"), seed=seed,
                                                  timeout_s=timeout_s)
                return 200, table_payload(table)
            if path == "/sample_rows":
                if "n" not in request:
                    return 400, {"error": "sample_rows requires n"}
                table = self.service.sample_rows(
                    int(request["n"]), conditions=request.get("conditions"), seed=seed,
                    timeout_s=timeout_s)
                return 200, table_payload(table)
            database = self.service.sample_database(request.get("n"), seed=seed,
                                                    timeout_s=timeout_s)
            return 200, {"tables": {name: table_payload(table)
                                    for name, table in database.items()}}
        except DeadlineExceeded as error:
            self._count("deadline_errors")
            return 503, {"error": str(error), "type": "deadline"}
        except PoolDegraded as error:
            self._count("http_errors")
            return 503, {"error": str(error), "type": "degraded"}, \
                {"Retry-After": str(RETRY_AFTER_S)}
        except (ServingError, ValueError, TypeError) as error:
            self._count("http_errors")
            return 400, {"error": str(error)}
        except Exception as error:  # a bug, not a bad request — keep serving
            self._count("http_errors")
            return 500, {"error": "{}: {}".format(type(error).__name__, error)}


def request_json(host: str, port: int, method: str, path: str,
                 payload: dict | None = None, timeout: float = 60.0,
                 headers: dict | None = None):
    """Blocking JSON client helper; returns ``(status, decoded body)``.

    *headers* are sent in addition to ``Content-Type`` — e.g.
    ``{"X-Request-Id": "..."}`` to pin the request/trace id.
    """
    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        send_headers = {"Content-Type": "application/json"}
        send_headers.update(headers or {})
        connection.request(method, path, body=body, headers=send_headers)
        response = connection.getresponse()
        raw = response.read().decode("utf-8")
        return response.status, (json.loads(raw) if raw else None)
    finally:
        connection.close()


def request_json_stream(host: str, port: int, payload: dict | None = None,
                        timeout: float = 60.0):
    """Blocking client for the streamed ``/sample_table`` endpoint.

    Returns ``(status, lines)`` where *lines* on success is the decoded
    ndjson sequence: one ``{"columns", "rows"}`` object per streamed block
    plus the trailing ``{"done": true, ...}`` summary.  On an error status
    the second element is the JSON error body, like :func:`request_json`.

    The response is consumed line by line — the client holds one chunk at
    a time, O(chunk) like the server, so a table larger than RAM streams
    through.  A connection that drops before the ``done`` summary raises
    :class:`IncompleteStream` (partial lines on the exception) instead of
    silently returning a truncated table.  ``http.client`` undoes the
    chunked transfer encoding transparently.
    """
    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        body = json.dumps(dict(payload or {}, stream=True)).encode("utf-8")
        connection.request("POST", "/sample_table", body=body,
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        if response.status != 200:
            raw = response.read().decode("utf-8")
            return response.status, (json.loads(raw) if raw else None)
        lines: list = []
        complete = False
        try:
            while True:
                raw_line = response.readline()
                if not raw_line:
                    break
                raw_line = raw_line.strip()
                if not raw_line:
                    continue
                record = json.loads(raw_line.decode("utf-8"))
                lines.append(record)
                if isinstance(record, dict) and "done" in record:
                    complete = True
        except (http.client.IncompleteRead, ConnectionError, OSError, ValueError) as error:
            raise IncompleteStream(
                "stream dropped after {} lines: {}".format(len(lines), error),
                lines) from None
        if not complete:
            raise IncompleteStream(
                "stream ended after {} lines without a done summary".format(len(lines)),
                lines)
        return 200, lines
    finally:
        connection.close()


def run_server(service: SynthesisService, host: str = "127.0.0.1", port: int = 0,
               max_queue: int = DEFAULT_MAX_QUEUE, ready_callback=None,
               max_seconds: float | None = None,
               drain_timeout_s: float = 30.0) -> None:
    """Run the server until interrupted (or for *max_seconds*).

    *ready_callback* (if given) is called with the bound ``(host, port)``
    once the socket is listening — the CLI uses it to publish the
    ephemeral port to scripts and tests.

    ``SIGTERM`` triggers a graceful drain: admission stops (503 +
    ``Retry-After``), in-flight requests get up to *drain_timeout_s* to
    finish, final stats are flushed to stderr, then the process exits.
    ``SIGINT``/Ctrl-C stays an immediate stop.
    """

    async def _main():
        server = SynthesisServer(service, host=host, port=port, max_queue=max_queue)
        await server.start()
        if ready_callback is not None:
            ready_callback(server.host, server.port)
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        installed = False
        try:
            loop.add_signal_handler(signal.SIGTERM, stop.set)
            installed = True
        except (NotImplementedError, RuntimeError, ValueError):
            pass  # not the main thread (tests) or no signal support
        try:
            if max_seconds is None:
                await stop.wait()
            else:
                try:
                    await asyncio.wait_for(stop.wait(), max_seconds)
                except asyncio.TimeoutError:
                    pass
            if stop.is_set():
                drained = await server.drain(drain_timeout_s)
                final = server.stats()
                print("drain {}: in_flight={} final_stats={}".format(
                    "complete" if drained else "timed out",
                    final["server"]["in_flight"], json.dumps(final)), file=sys.stderr)
        except asyncio.CancelledError:
            pass
        finally:
            if installed:
                loop.remove_signal_handler(signal.SIGTERM)
            await server.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
