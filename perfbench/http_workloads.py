"""The HTTP workloads: a ``repro.cli serve`` subprocess driven by a stdlib client.

The server runs the product configuration (``--executor process --workers
2 --mmap``).  The client is one process with two threads, each holding one
keep-alive connection in a closed loop: a thread sends its next request
only after the previous answer arrived and was checked.  Every request
carries a fresh seed, so the service's result cache never answers it.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from perfbench import inputs, layers, stats
from perfbench.instrument import RING_SPEC
from perfbench.outcome import Outcome, child_pids, peak_rss_mb

WORKERS = 2
CONNECTIONS = 2
#: server launches per run; ``setup_s`` is their median
SETUP_LAUNCHES = 3
#: the measured loop runs past ``--seconds`` (up to twice as long) until
#: this many requests were sent, so ten latencies lie beyond ``p90_ms``
MIN_REQUESTS = 100
#: every this many measured requests, one is re-sampled in-process
CHECK_EVERY = 40
#: traced/untraced segment pairs in a traced run
TRACE_PAIRS = 3
#: the server stops itself after this long, even if the benchmark died
MAX_SERVER_S = 175
READY_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class HttpSpec:
    """One HTTP workload: what is fitted, served and requested."""

    name: str
    path: str
    n: int
    block_size: int
    fit: Callable  # (seed, bundle path) -> fitted pipeline


TABLE_HTTP = HttpSpec(
    name="table_http", path="/sample_table", n=16, block_size=8,
    fit=lambda seed, path: inputs.fit_table_bundle(8, seed, path))
DATABASE_HTTP = HttpSpec(
    name="database_http", path="/sample_database", n=480, block_size=8,
    fit=lambda seed, path: inputs.fit_database_bundle(480, seed, path))
SPECS = {spec.name: spec for spec in (TABLE_HTTP, DATABASE_HTTP)}


def request_seed(seed: int, index: int) -> int:
    """Seed of the *index*-th request of a run; index ``2**20 - 1`` is the warm-up."""
    return (seed % 2**31) * 2**20 + index


def warmup_seed(seed: int) -> int:
    return request_seed(seed, 2**20 - 1)


# -- the server process -------------------------------------------------------------------

class Server:
    """One ``serve`` subprocess in its own session (so its workers can be reaped)."""

    def __init__(self, root: Path, workdir: Path, bundle: Path, block_size: int,
                 traced: bool, tag: str):
        self.ready_file = workdir / "ready-{}.txt".format(tag)
        self.log = workdir / "serve-{}.log".format(tag)
        module = "perfbench.serve_traced" if traced else "repro.cli"
        self.argv = [sys.executable, "-m", module, "serve", "--bundle", str(bundle),
                     "--executor", "process", "--workers", str(WORKERS), "--mmap",
                     "--block-size", str(block_size), "--ready-file", str(self.ready_file),
                     "--max-seconds", str(MAX_SERVER_S)]
        if traced:
            self.argv += ["--trace", RING_SPEC]
        self.env = dict(os.environ, TMPDIR=str(workdir),
                        PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
        self.root = root
        self.process: subprocess.Popen | None = None
        self.host = "127.0.0.1"
        self.port = 0

    def start(self) -> None:
        if self.ready_file.exists():
            self.ready_file.unlink()
        with open(self.log, "wb") as log:
            self.process = subprocess.Popen(
                self.argv, cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=log, start_new_session=True)

    def wait_ready(self) -> None:
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError("serve exited with {} before it was ready: {}".format(
                    self.process.returncode, self.log_tail()))
            try:
                text = self.ready_file.read_text().split()
            except OSError:
                text = []
            if len(text) == 2:
                self.host, self.port = text[0], int(text[1])
                return
            time.sleep(0.005)
        raise RuntimeError("serve was not ready within {}s".format(READY_TIMEOUT_S))

    def log_tail(self, lines: int = 20) -> str:
        try:
            return "\n".join(self.log.read_text(errors="replace").splitlines()[-lines:])
        except OSError:
            return ""

    def get_json(self, path: str):
        connection = http.client.HTTPConnection(self.host, self.port,
                                                timeout=REQUEST_TIMEOUT_S)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            body = response.read()
            if response.status != 200:
                raise RuntimeError("GET {} answered {}".format(path, response.status))
            return json.loads(body)
        finally:
            connection.close()

    def peak_rss_mb(self) -> float:
        """Peak RSS (VmHWM) summed over the server and its worker processes."""
        pid = self.process.pid
        return peak_rss_mb([pid] + child_pids(pid))

    def close(self) -> None:
        """SIGTERM (graceful drain), then reap the whole session."""
        if self.process is None:
            return
        process, self.process = self.process, None
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                _kill_group(process.pid)
                process.wait(timeout=20)
        _kill_group(process.pid)


def _kill_group(pgid: int) -> None:
    """Kill whatever is left of a session and wait until it is gone."""
    deadline = time.monotonic() + 20
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.02)


# -- the client ---------------------------------------------------------------------------

@dataclass
class Sample:
    """One answered (or failed) request."""

    seed: int
    start_us: int
    duration_us: int
    rows: int
    ok: bool


class _Connection:
    def __init__(self, server: Server):
        self.server = server
        self.connection = None

    def post(self, path: str, payload: dict, request_id: str) -> tuple[int, bytes]:
        if self.connection is None:
            self.connection = http.client.HTTPConnection(
                self.server.host, self.server.port, timeout=REQUEST_TIMEOUT_S)
        try:
            self.connection.request("POST", path, body=json.dumps(payload).encode(),
                                    headers={"Content-Type": "application/json",
                                             "X-Request-Id": request_id})
            response = self.connection.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            return 0, b""

    def close(self) -> None:
        if self.connection is not None:
            self.connection.close()
            self.connection = None


class Checker:
    """Checks every response's shape: columns, row counts, keys, FK integrity."""

    def __init__(self, spec: HttpSpec, fitted):
        self.spec = spec
        self.expected = None  # set from the warm-up response
        self.graph = getattr(fitted, "graph", None)

    def learn(self, body: bytes) -> None:
        obj = json.loads(body)
        if self.spec.path == "/sample_table":
            self.expected = obj["columns"]
        else:
            self.expected = {name: table["columns"]
                             for name, table in obj["tables"].items()}

    def rows(self, body: bytes) -> int | None:
        """Rows in a valid response, or ``None`` when a check fails."""
        try:
            obj = json.loads(body)
        except ValueError:
            return None
        if self.spec.path == "/sample_table":
            return _table_rows(obj, self.expected)
        return self._database_rows(obj)

    def _database_rows(self, obj) -> int | None:
        tables = obj.get("tables") if isinstance(obj, dict) else None
        if not isinstance(tables, dict) or set(tables) != set(self.expected):
            return None
        total = 0
        for name, payload in tables.items():
            count = _table_rows(payload, self.expected[name], allow_empty=True)
            if count is None:
                return None
            total += count
        for root in self.graph.roots():
            if len(tables[root]["rows"]) != self.spec.n:
                return None
        keys = {}
        for table in self.graph.tables:
            if table.primary_key is None:
                continue
            values = [row[table.primary_key] for row in tables[table.name]["rows"]]
            unique = set(values)
            if None in unique or len(unique) != len(values):
                return None
            keys[table.name, table.primary_key] = unique
        for fk in self.graph.foreign_keys:
            parents = keys.get((fk.parent_table, fk.parent_column))
            if parents is None:
                parents = {row[fk.parent_column] for row in tables[fk.parent_table]["rows"]}
            if any(row[fk.column] not in parents for row in tables[fk.table]["rows"]):
                return None
        return total


def _table_rows(payload, columns, allow_empty: bool = False) -> int | None:
    if not isinstance(payload, dict) or payload.get("columns") != columns:
        return None
    rows = payload.get("rows")
    if not isinstance(rows, list) or (not rows and not allow_empty):
        return None
    names = set(columns)
    if any(not isinstance(row, dict) or row.keys() != names for row in rows):
        return None
    return len(rows)


def closed_loop(server: Server, spec: HttpSpec, checker: Checker, seeds,
                seconds: float, kept: dict, keep: Callable[[int], bool],
                client_spans: list | None = None,
                min_requests: int = 0) -> tuple[list[Sample], float]:
    """Drive *server* from :data:`CONNECTIONS` threads until *seconds* pass.

    *seeds* yields ``(index, seed)`` pairs; each thread takes the next one
    after its previous request completed.  The loop keeps going past
    *seconds* until *min_requests* requests were sent, but never past twice
    *seconds*.  Bodies of requests whose index *keep* selects are stored in
    *kept* for the in-process re-check; with *client_spans*, each request
    is also recorded as a root span whose trace id is its ``X-Request-Id``.
    Returns the samples and the wall time from first send to last answer.
    """
    lock = threading.Lock()
    samples: list[Sample] = []
    source = iter(seeds)
    sent = [0]
    start = time.perf_counter()
    deadline = start + seconds
    cutoff = start + 2 * seconds

    def run():
        connection = _Connection(server)
        try:
            while True:
                with lock:
                    now = time.perf_counter()
                    if now >= cutoff or (now >= deadline and sent[0] >= min_requests):
                        return
                    item = next(source, None)
                    sent[0] += 1
                if item is None:
                    return
                index, seed = item
                request_id = os.urandom(8).hex()
                begin = time.monotonic_ns() // 1000
                status, body = connection.post(spec.path, {"n": spec.n, "seed": seed},
                                               request_id)
                duration = time.monotonic_ns() // 1000 - begin
                rows = checker.rows(body) if status == 200 else None
                sample = Sample(seed, begin, duration, rows or 0, rows is not None)
                with lock:
                    samples.append(sample)
                    if keep(index):
                        kept[seed] = body
                    if client_spans is not None:
                        client_spans.append({
                            "trace_id": request_id, "span_id": request_id,
                            "parent_id": None, "name": "bench.request",
                            "start_us": begin, "duration_us": duration, "attrs": {}})
        finally:
            connection.close()

    threads = [threading.Thread(target=run) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if samples:
        end_us = max(s.start_us + s.duration_us for s in samples)
        wall = max(end_us / 1e6 - (min(s.start_us for s in samples) / 1e6), 1e-9)
    else:
        wall = time.perf_counter() - start
    return samples, wall


def _warm_up(server: Server, spec: HttpSpec, seed: int) -> bytes:
    status, body = _Connection(server).post(spec.path, {"n": spec.n, "seed": seed},
                                            os.urandom(8).hex())
    if status != 200:
        raise RuntimeError("warm-up request answered {}: {}".format(
            status, server.log_tail()))
    return body


def resample(spec: HttpSpec, bundle: Path, kept: dict) -> int:
    """Re-sample the kept requests in-process; the number of byte mismatches."""
    from repro.serving import ServingConfig, SynthesisService
    from repro.serving.server import table_payload

    mismatches = 0
    with SynthesisService.from_bundle(bundle, ServingConfig(
            block_size=spec.block_size, cache_bytes=0)) as service:
        for seed, body in sorted(kept.items()):
            if spec.path == "/sample_table":
                payload = table_payload(service.sample_table(spec.n, seed=seed))
            else:
                database = service.sample_database(spec.n, seed=seed)
                payload = {"tables": {name: table_payload(table)
                                      for name, table in database.items()}}
            if json.dumps(payload).encode("utf-8") != body:
                mismatches += 1
    return mismatches


def _fresh(seed: int):
    index = 0
    while True:
        yield index, request_seed(seed, index)
        index += 1


def _keep(index: int) -> bool:
    return index % CHECK_EVERY == 0


def run(spec: HttpSpec, seed: int, seconds: float, traced: bool,
        root: Path, workdir: Path) -> tuple[dict, Outcome]:
    bundle = workdir / "{}.bundle".format(spec.name)
    fitted = spec.fit(inputs.MODEL_SEED, bundle)
    checker = Checker(spec, fitted)
    outcome = Outcome()
    kept: dict[int, bytes] = {}
    if traced:
        metrics = _run_traced(spec, seed, seconds, root, workdir, bundle, checker,
                              kept, outcome)
    else:
        metrics = _run_untraced(spec, seed, seconds, root, workdir, bundle, checker,
                                kept, outcome)
    mismatches = resample(spec, bundle, kept)
    outcome.attempted += len(kept)
    if mismatches:
        outcome.fail("{} of {} re-sampled responses differ from the served bytes".format(
            mismatches, len(kept)), mismatches)
    if traced:
        metrics["error_rate"] = outcome.failed / max(outcome.attempted, 1)
    return metrics, outcome


def _run_untraced(spec, seed, seconds, root, workdir, bundle, checker, kept, outcome):
    setups = []
    servers = []
    try:
        for launch in range(SETUP_LAUNCHES):
            server = Server(root, workdir, bundle, spec.block_size, traced=False,
                            tag="setup{}".format(launch))
            servers.append(server)
            begin = time.perf_counter()
            server.start()
            server.wait_ready()
            body = _warm_up(server, spec, warmup_seed(seed))
            setups.append(time.perf_counter() - begin)
            if checker.expected is None:
                checker.learn(body)
                kept[warmup_seed(seed)] = body
            if checker.rows(body) is None:
                outcome.fail("warm-up response failed its checks")
            if launch + 1 < SETUP_LAUNCHES:
                server.close()
        samples, wall = closed_loop(server, spec, checker, _fresh(seed), seconds, kept,
                                    _keep, min_requests=MIN_REQUESTS)
        outcome.add(samples)
        final = server.get_json("/stats")
        if final["cache_hits"]:
            outcome.fail("the result cache answered {} fresh-seed requests".format(
                final["cache_hits"]))
        if final.get("worker_restarts"):
            outcome.fail("{} worker restarts".format(final["worker_restarts"]))
        rss_mb = server.peak_rss_mb()
    finally:
        for server in servers:
            server.close()
    good = [s.duration_us / 1000.0 for s in samples if s.ok]
    print("{}: {} requests".format(spec.name, len(samples)), file=sys.stderr)
    return {
        "rows_per_s": sum(s.rows for s in samples if s.ok) / wall,
        "p50_ms": stats.percentile(good, 50) if good else 0.0,
        "p90_ms": stats.percentile(good, 90) if good else 0.0,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_mb,
    }


def _run_traced(spec, seed, seconds, root, workdir, bundle, checker, kept, outcome):
    plain = Server(root, workdir, bundle, spec.block_size, traced=False, tag="plain")
    traced = Server(root, workdir, bundle, spec.block_size, traced=True, tag="traced")
    client_spans: list[dict] = []
    traced_samples: list[Sample] = []
    traced_wall = 0.0
    ratios = []
    try:
        for server in (plain, traced):
            server.start()
            server.wait_ready()
            body = _warm_up(server, spec, warmup_seed(seed))
            if checker.expected is None:
                checker.learn(body)
                kept[warmup_seed(seed)] = body
            elif kept[warmup_seed(seed)] != body:
                outcome.fail("traced and untraced servers answered the warm-up differently")
        fresh = _fresh(seed)
        segment = seconds / (2 * TRACE_PAIRS)
        for _ in range(TRACE_PAIRS):
            rates = []
            for server in (plain, traced):
                spans = client_spans if server is traced else None
                samples, wall = closed_loop(server, spec, checker, fresh, segment,
                                            kept, _keep, spans)
                outcome.add(samples)
                rates.append(sum(s.rows for s in samples if s.ok) / wall)
                if server is traced:
                    traced_samples += samples
                    traced_wall += wall
            ratios.append(rates[1] / rates[0] if rates[0] else 0.0)
        server_stats = traced.get_json("/stats")
        trace = traced.get_json("/trace")
    finally:
        plain.close()
        traced.close()
    if trace["dropped"]:
        outcome.notes.append("trace ring dropped {} spans".format(trace["dropped"]))
    roots = {s["trace_id"]: s["span_id"] for s in client_spans}
    metrics = layers.per_layer(trace["spans"] + client_spans, roots,
                               samples=len(traced_samples), busy_wall_s=traced_wall,
                               workers=WORKERS)
    metrics.update(layers.setup_layers(trace["spans"]))
    lookups = server_stats["cache_hits"] + server_stats["cache_misses"]
    metrics["service.cache_hit_ratio"] = (server_stats["cache_hits"] / lookups
                                          if lookups else 0.0)
    metrics["server.rejected"] = float(server_stats["server"]["rejected"])
    metrics["worker.restarts"] = float(server_stats.get("worker_restarts", 0))
    if server_stats["cache_hits"]:
        outcome.fail("the result cache answered {} fresh-seed requests".format(
            server_stats["cache_hits"]))
    if metrics["worker.restarts"]:
        outcome.fail("{:.0f} worker restarts".format(metrics["worker.restarts"]))
    metrics.update(layers.overhead(ratios))
    return metrics
