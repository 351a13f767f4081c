"""The fit workload: ``Registry.fit_or_load`` in-process, a miss then a hit.

Each iteration fits the GReaTER pipeline into a fresh registry (a miss:
enhancement, connecting, tokenizing, fine-tuning, then the registry's
write side), then asks again (a hit: fingerprinting, the run-record
lookup and a digest-verified load).  The dataset is 512 DIGIX-like users
(about 3.2k training rows), sized so one miss takes about 1.6 s on a
2-core box and a run holds well over ten of them.  Above about 1,024
users the vocabulary outgrows the compiled trainer's packed int64 keys
and training silently falls back to the object engine at 160-240 s per
fit; that cliff is a known open defect, and the traced run counts every
fit that hit it as ``training.object_fallbacks``.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

from perfbench import inputs, layers, stats
from perfbench.outcome import Outcome, peak_rss_mb
from perfbench.instrument import RING_SPEC, Instrumentation

N_USERS = 512
SETUP_LAUNCHES = 3


class _Fits:
    """The dataset plus the digest every fit of it must produce."""

    def __init__(self, workdir: Path, digest: str | None = None):
        self.seed = inputs.MODEL_SEED
        self.workdir = workdir
        self.tables = inputs.digix_trial(N_USERS, self.seed)
        self.rows = sum(table.num_rows for table in self.tables)
        self.digest = digest
        self.count = 0

    def registry(self):
        from repro.registry import Registry

        self.count += 1
        return Registry(self.workdir / "registry-{}".format(self.count))

    def fit_or_load(self, registry, outcome: Outcome, expect_hit: bool):
        begin = time.perf_counter()
        result = registry.fit_or_load(inputs.greater_pipeline(self.seed), *self.tables)
        elapsed = time.perf_counter() - begin
        outcome.attempted += 1
        if self.digest is None:
            self.digest = result.digest
        if result.cache_hit != expect_hit:
            outcome.fail("fit_or_load reported cache_hit={} where {} was expected".format(
                result.cache_hit, expect_hit))
        elif result.digest != self.digest:
            outcome.fail("fit_or_load produced digest {} instead of {}".format(
                result.digest[:12], self.digest[:12]))
        return elapsed

    def discard(self, registry) -> None:
        shutil.rmtree(registry.root, ignore_errors=True)


def _setup(workdir: Path, outcome: Outcome,
           digest: str | None = None) -> tuple[_Fits, float]:
    """Dataset generation plus one warm-up miss, timed."""
    begin = time.perf_counter()
    fits = _Fits(workdir, digest)
    registry = fits.registry()
    fits.fit_or_load(registry, outcome, expect_hit=False)
    elapsed = time.perf_counter() - begin
    fits.discard(registry)
    return fits, elapsed


def _iteration(fits: _Fits, outcome: Outcome, root_span) -> float:
    """One miss into a fresh registry, then one hit; returns the miss time."""
    registry = fits.registry()
    try:
        with root_span("miss"):
            miss = fits.fit_or_load(registry, outcome, expect_hit=False)
        with root_span("hit"):
            fits.fit_or_load(registry, outcome, expect_hit=True)
    finally:
        fits.discard(registry)
    return miss


def run(seconds: float, traced: bool, workdir: Path) -> tuple[dict, Outcome]:
    """Run the fit loop; its dataset is fixed (:data:`inputs.MODEL_SEED`)."""
    outcome = Outcome()
    if traced:
        return _run_traced(seconds, workdir, outcome), outcome
    setups = []
    fits = None
    for _ in range(SETUP_LAUNCHES):
        fits, elapsed = _setup(workdir, outcome, fits and fits.digest)
        setups.append(elapsed)
    misses = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        misses.append(_iteration(fits, outcome, _no_span))
    print("fit_registry: {} iterations of {} training rows".format(
        len(misses), fits.rows), file=sys.stderr)
    return {
        "rows_per_s": fits.rows * len(misses) / sum(misses),
        "p50_ms": stats.percentile(misses, 50) * 1000.0,
        "p90_ms": stats.percentile(misses, 90) * 1000.0,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb([os.getpid()]),
    }, outcome


def _no_span(phase):
    return contextlib.nullcontext()


def _run_traced(seconds: float, workdir: Path, outcome: Outcome) -> dict:
    """Alternate untraced and traced iterations; per-layer split of the traced ones."""
    from repro.obs import trace as obs

    fits, _ = _setup(workdir, outcome)
    instrumentation = Instrumentation()
    spans: list[dict] = []
    roots: dict[str, str] = {}
    ratios = []
    samples = 0

    def root_span(phase):
        span = obs.span("bench.fit_or_load", attrs={"phase": phase})
        roots[span.trace_id] = span.span_id
        return span

    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not samples:
        plain_miss = _iteration(fits, outcome, _no_span)
        instrumentation.install()
        obs.configure(RING_SPEC)
        try:
            traced_miss = _iteration(fits, outcome, root_span)
            spans += obs.ring_snapshot()["spans"]
        finally:
            obs.disable()
            instrumentation.uninstall()
        samples += 1
        ratios.append(plain_miss / traced_miss)
    metrics = layers.per_layer(spans, roots, samples=samples)
    hit_roots = [s for s in spans if s["name"] == "bench.fit_or_load"
                 and s["attrs"].get("phase") == "hit"]
    metrics["registry.hit_ms"] = (sum(s["duration_us"] for s in hit_roots) / 1000.0
                                  / len(hit_roots))
    metrics.update(layers.overhead(ratios))
    metrics["error_rate"] = outcome.failed / max(outcome.attempted, 1)
    return metrics
