"""Before/after timings for the batched generation engine.

Runs the synthesis hot paths twice — once with the legacy object-walk
backbone (the oracle, swapped into the fitted synthesizers' engines), once
with the compiled CSR backbone every runtime path uses — asserts that both
produce **identical tables for identical seeds** (the backbones share one
RNG protocol and compute bit-identical mass matrices, so the outputs must
match exactly, not just statistically), and records the timings to
``BENCH_generation.json``.

Usage::

    PYTHONPATH=src python -m benchmarks.perf.bench_generation --rows 50000
    PYTHONPATH=src python -m benchmarks.perf.bench_generation --smoke   # CI-sized

The ``speedup`` column is object-engine time divided by compiled-engine time;
the acceptance bar for the refactor is >=10x on the 50k-row guided sampling
path (the default strategy every pipeline uses).  The runtime engine
memoizes guided candidate scores and the oracle never does, so the speedup
includes the score cache; ``served_block`` times the shape a served table
request runs (repeated 8-subject parent/child blocks on one warm
synthesizer), and each benchmark records the runtime engines' score-cache
counters under ``score_cache``.
"""

from __future__ import annotations

import argparse
import json
import random
import time
from pathlib import Path

from repro.frame.table import Table
from repro.great.synthesizer import GReaTConfig, GReaTSynthesizer
from repro.llm.finetune import FineTuneConfig
from repro.llm.ngram_model import ModelConfig
from repro.llm.sampler import SamplerConfig
from repro.relational.parent_child import ParentChildConfig, ParentChildSynthesizer

from benchmarks.perf.env import environment
from benchmarks.perf.oracle import ENGINES, great_synthesizers, use_backbone

#: The benchmark counted toward the >=10x acceptance bar.
TARGET_PATH = "guided_sample"

#: Subjects per block in ``served_block`` (the ``table_http`` block size).
SERVED_BLOCK_SIZE = 8

_CITIES = ["austin", "boston", "denver", "seattle", "miami", "portland",
           "chicago", "phoenix", "atlanta", "nashville", "tucson", "omaha"]
_DEVICES = ["phone", "tablet", "desktop", "watch", "console", "kiosk"]
_GENRES = ["country", "rock", "folk", "grunge", "jazz", "blues", "pop", "metal"]


def _training_table(n_rows: int, seed: int) -> Table:
    """A mixed categorical/int table with realistic per-column cardinalities."""
    rng = random.Random(seed)
    names = ["person_{}".format(i) for i in range(40)]
    return Table({
        "name": [rng.choice(names) for _ in range(n_rows)],
        "city": [rng.choice(_CITIES) for _ in range(n_rows)],
        "device": [rng.choice(_DEVICES) for _ in range(n_rows)],
        "genre": [rng.choice(_GENRES) for _ in range(n_rows)],
        "clicks": [rng.randrange(30) for _ in range(n_rows)],
        "rating": [rng.randrange(1, 6) for _ in range(n_rows)],
    })


def _parent_child_tables(n_subjects: int, seed: int) -> tuple[Table, Table]:
    rng = random.Random(seed)
    subjects = ["user_{}".format(i) for i in range(n_subjects)]
    parent = Table({
        "user_id": subjects,
        "city": [rng.choice(_CITIES) for _ in subjects],
        "device": [rng.choice(_DEVICES) for _ in subjects],
    })
    child_records = []
    for subject in subjects:
        for _ in range(rng.randrange(1, 4)):
            child_records.append({
                "user_id": subject,
                "genre": rng.choice(_GENRES),
                "clicks": rng.randrange(30),
            })
    return parent, Table.from_records(child_records,
                                      columns=["user_id", "genre", "clicks"])


def _backbone(strategy: str, seed: int) -> GReaTConfig:
    model = ModelConfig(order=6, smoothing=0.005,
                        interpolation=(0.42, 0.24, 0.14, 0.1, 0.06, 0.04))
    fine_tune = FineTuneConfig(epochs=3, batches=3, seed=seed, model=model)
    sampler = SamplerConfig(temperature=0.85, top_k=12, seed=seed)
    return GReaTConfig(fine_tune=fine_tune, sampler=sampler,
                       sampling_strategy=strategy, seed=seed)


# -- benchmark bodies: each returns (timed_callable, fitted); the callable ---------
# -- returns the result to compare ---------------------------------------------------

def bench_guided_sample(engine: str, rows: int, seed: int):
    synth = GReaTSynthesizer(_backbone("guided", seed))
    use_backbone(synth.fit(_training_table(400, seed)), engine)
    return lambda: synth.sample(rows, seed=seed + 1).to_records(), synth


def bench_free_sample(engine: str, rows: int, seed: int):
    synth = GReaTSynthesizer(_backbone("free", seed))
    use_backbone(synth.fit(_training_table(400, seed)), engine)
    n = max(rows // 10, 1)  # free generation retries internally; keep runtime sane
    return lambda: synth.sample(n, seed=seed + 1).to_records(), synth


def _parent_child(engine: str, seed: int) -> ParentChildSynthesizer:
    parent, child = _parent_child_tables(200, seed)
    config = ParentChildConfig(parent=_backbone("guided", seed),
                               child=_backbone("guided", seed), seed=seed)
    synth = ParentChildSynthesizer(config).fit(parent, child, "user_id")
    return use_backbone(synth, engine)


def bench_parent_child_sample(engine: str, rows: int, seed: int):
    synth = _parent_child(engine, seed)
    n_parents = max(rows // 20, 1)  # ~2 children per parent on average
    def body():
        parent_table, child_table, flat = synth.sample_all(n_parents, seed=seed + 1)
        return parent_table.to_records() + child_table.to_records() + flat.to_records()
    return body, synth


def bench_served_block(engine: str, rows: int, seed: int):
    """Repeated 8-subject blocks on one warm synthesizer, as a server runs them."""
    synth = _parent_child(engine, seed)
    size = SERVED_BLOCK_SIZE
    synth.sample_flat(size, seed=seed, max_lanes=size)  # the warm-up request
    seeds = [seed + 1 + block for block in range(max(rows // 500, 4))]
    def body():
        records = []
        for block, block_seed in enumerate(seeds):
            records.extend(synth.sample_flat(size, seed=block_seed,
                                             subject_offset=block * size,
                                             max_lanes=size).to_records())
        return records
    return body, synth


BENCHMARKS = [
    ("guided_sample", bench_guided_sample),
    ("free_sample", bench_free_sample),
    ("parent_child_sample", bench_parent_child_sample),
    ("served_block", bench_served_block),
]


def score_cache_stats(fitted) -> dict:
    """Score-cache counters summed over every engine under *fitted*."""
    totals = {"hits": 0, "misses": 0, "entries": 0, "bytes": 0}
    for synth in great_synthesizers(fitted):
        for key, value in synth.engine.score_cache_stats().items():
            totals[key] += value
    return totals


def run(rows: int, seed: int = 7, repeats: int = 1) -> dict:
    """Run every benchmark on both backbones and return the report dict."""
    results: dict[str, dict] = {}
    outputs: dict[str, dict] = {engine: {} for engine in ENGINES}
    timings: dict[str, dict] = {engine: {} for engine in ENGINES}
    cache_stats: dict[str, dict] = {}

    for engine in ENGINES:
        for name, build in BENCHMARKS:
            body, fitted = build(engine, rows, seed)
            best = float("inf")
            for _ in range(max(repeats, 1)):
                start = time.perf_counter()
                outputs[engine][name] = body()
                best = min(best, time.perf_counter() - start)
            timings[engine][name] = best
            if engine == "compiled":
                cache_stats[name] = score_cache_stats(fitted)

    for name, _ in BENCHMARKS:
        identical = outputs["object"][name] == outputs["compiled"][name]
        object_s = timings["object"][name]
        compiled_s = timings["compiled"][name]
        results[name] = {
            "object_s": round(object_s, 6),
            "compiled_s": round(compiled_s, 6),
            "speedup": round(object_s / compiled_s, 2) if compiled_s > 0 else float("inf"),
            "identical_output": identical,
            "generated_rows": len(outputs["compiled"][name]),
            "score_cache": cache_stats[name],
        }

    return {
        "rows": rows,
        "seed": seed,
        "repeats": max(repeats, 1),
        "benchmarks": results,
        "all_identical": all(entry["identical_output"] for entry in results.values()),
        "target_path": TARGET_PATH,
        "meets_10x_target": results[TARGET_PATH]["speedup"] >= 10.0,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the object oracle vs the compiled generation backbone."
    )
    parser.add_argument("--rows", type=int, default=50_000,
                        help="rows generated by the guided-sampling path (default 50000)")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run (500 rows, no speedup requirement)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=1,
                        help="timing repetitions per benchmark (best-of)")
    parser.add_argument("--out", type=Path, default=Path("BENCH_generation.json"),
                        help="output JSON path (default ./BENCH_generation.json)")
    args = parser.parse_args(argv)

    rows = 500 if args.smoke else args.rows
    mode = "smoke" if args.smoke else "full"
    report = {"env": environment(mode), **run(rows, seed=args.seed, repeats=args.repeats)}
    args.out.write_text(json.dumps(report, indent=2) + "\n")

    width = max(len(name) for name, _ in BENCHMARKS)
    print(f"rows={rows}  (object oracle vs compiled generation backbone)")
    for name, _ in BENCHMARKS:
        entry = report["benchmarks"][name]
        flag = "*" if name == TARGET_PATH else " "
        print("{}{:<{width}}  object {:>9.3f}s  compiled {:>9.3f}s  speedup {:>7.2f}x  identical={}".format(
            flag, name, entry["object_s"], entry["compiled_s"], entry["speedup"],
            entry["identical_output"], width=width,
        ))
    print("wrote {}".format(args.out))

    if not report["all_identical"]:
        print("ERROR: backbones disagree on at least one generated table")
        return 1
    if not args.smoke and not report["meets_10x_target"]:
        print("ERROR: the guided sampling path did not reach the 10x target")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
