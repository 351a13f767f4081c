"""Before/after timings for the compiled training engine.

Runs the training hot path — corpus encode, n-gram count accumulation,
per-epoch validation scoring, CSR compile — twice: once through the legacy
object trainer (per-sentence tokenisation + dict updates + object scoring;
the oracle of ``benchmarks.perf.oracle``, never run by the program), once
through the compiled trainer (one-pass batch encode + array reduction +
batched CSR scoring).  Asserts that both produce **bit-identical results**
(vocabulary ids, perplexity traces, frozen count arrays, and — for the
end-to-end path — identical synthetic tables for identical seeds), and
records the timings to ``BENCH_training.json``.

``wide_vocab`` repeats the count check on a table with a high-cardinality
column, whose vocabulary is above the 1,290 tokens where order-6 n-grams
stopped packing into one int64 key (it runs in ``--smoke`` too).  The full
run also fits the GReaTER pipeline on 2,048 DIGIX-like users with the
compiled trainer and requires it to finish within 60 s: before
suffix-rank keys, 1,536 users fell back to the object trainer and took
236.8 s on a 2-vCPU box.

Usage::

    PYTHONPATH=src python -m benchmarks.perf.bench_training --rows 50000
    PYTHONPATH=src python -m benchmarks.perf.bench_training --smoke   # CI-sized

The ``speedup`` column is object-engine time divided by compiled-engine time;
the acceptance bar for the refactor is >=10x on the 50k-row
fit + compile + perplexity-trace path.
"""

from __future__ import annotations

import argparse
import json
import random
import time
from pathlib import Path
from unittest import mock

import numpy as np

from repro.connecting.connector import ConnectorConfig
from repro.datasets.digix import DigixConfig, generate_digix_like
from repro.enhancement.enhancer import EnhancerConfig
from repro.frame.table import Table
from repro.great.synthesizer import GReaTConfig, GReaTSynthesizer
from repro.llm.finetune import FineTuneConfig, FineTuner
from repro.llm.ngram_model import ModelConfig
from repro.llm.sampler import SamplerConfig
from repro.llm.tokenizer import WordTokenizer
from repro.pipelines.config import PipelineConfig
from repro.pipelines.greater import GReaTERPipeline
from repro.textenc.corpus import CorpusBuilder
from repro.textenc.encoder import EncoderConfig, TextualEncoder

from benchmarks.perf.env import environment
from benchmarks.perf.oracle import ENGINES, trainer

#: The benchmark counted toward the >=10x acceptance bar.
TARGET_PATH = "fit_trace"

#: Rows of the ``wide_vocab`` table: one distinct code per row puts the
#: vocabulary above the old 1,290-token packing limit.
WIDE_ROWS = 1_400

#: The full run's compiled-only pipeline fit and its time bound.
WIDE_FIT_USERS = 2_048
WIDE_FIT_BOUND_S = 60.0

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


def _wide_table(seed: int) -> Table:
    """:func:`_training_table` plus a high-cardinality ``code`` column."""
    table = _training_table(WIDE_ROWS, seed)
    return table.with_column("code", ["c{}".format(i) for i in range(WIDE_ROWS)])


def _model_config() -> ModelConfig:
    return ModelConfig(order=6, smoothing=0.005,
                       interpolation=(0.42, 0.24, 0.14, 0.1, 0.06, 0.04))


def _corpus(table: Table, seed: int) -> list[str]:
    encoder = TextualEncoder(EncoderConfig(seed=seed))
    builder = CorpusBuilder(encoder=encoder, permutation_passes=2)
    corpus, _ = builder.build(table)
    return corpus


def _compiled_fingerprint(model) -> list:
    """Hashable view of the frozen CSR arrays (the canonical count state)."""
    compiled = model.compiled_model()
    out = []
    for k in range(1, compiled.order):
        out.append((k,
                    compiled._keys[k].tolist(), compiled._key_rows[k].tolist(),
                    compiled._row_ptr[k].tolist(),
                    compiled._tokens[k].tolist(), compiled._counts[k].tolist(),
                    compiled._totals[k].tolist()))
    out.append((0, compiled._tokens0.tolist(), compiled._counts0.tolist(),
                compiled._total0))
    return out


# -- benchmark bodies: each returns a timed callable -------------------------------------

def bench_fit_trace(engine: str, rows: int, seed: int, table: Table | None = None):
    """Fine-tune + per-epoch perplexity trace + CSR compile on the full corpus."""
    corpus = _corpus(_training_table(rows, seed) if table is None else table, seed)
    config = FineTuneConfig(epochs=3, batches=3, validation_fraction=0.1,
                            seed=seed, model=_model_config())

    def body():
        tuner = FineTuner(WordTokenizer(), config)
        with trainer(engine):
            result = tuner.fine_tune(corpus)
        compiled = result.model.compiled_model()
        return {
            "vocabulary": dict(tuner.tokenizer.vocabulary.token_to_id),
            "trace": result.perplexity_trace,
            "counts": _compiled_fingerprint(result.model),
            "engine": result.engine,
            "n_contexts": int(sum(compiled._keys[k].size
                                  for k in range(1, compiled.order))),
            "vocab_size": compiled.vocab_size,
        }

    return body


def bench_wide_vocab(engine: str, rows: int, seed: int):
    """:func:`bench_fit_trace` on :func:`_wide_table` (fixed size)."""
    return bench_fit_trace(engine, rows, seed, table=_wide_table(seed))


def bench_encode(engine: str, rows: int, seed: int):
    """Table -> corpus -> token ids: per-row sentence formatting plus a
    per-sentence tokenizer loop vs the factorize-gather ``encode_table`` path
    plus the shared one-scan ``fit_encode_corpus`` path."""
    table = _training_table(rows, seed)

    if engine == "object":
        def body():
            encoder = TextualEncoder(EncoderConfig(seed=seed))
            names = table.column_names
            corpus = [encoder.encode_row(table.row(i), columns=names, permute=False)
                      for i in range(table.num_rows)]
            corpus.extend(encoder.encode_row(table.row(i), columns=names)
                          for i in range(table.num_rows))
            tokenizer = WordTokenizer().fit(corpus)
            flat: list[int] = []
            for sentence in corpus:
                flat.extend(tokenizer.encode(sentence))
            return dict(tokenizer.vocabulary.token_to_id), flat
    else:
        def body():
            encoder = TextualEncoder(EncoderConfig(seed=seed))
            builder = CorpusBuilder(encoder=encoder, permutation_passes=2)
            corpus, _ = builder.build(table)
            tokenizer = WordTokenizer()
            encoded = tokenizer.fit_encode_corpus(corpus)
            return dict(tokenizer.vocabulary.token_to_id), encoded.ids
    return body


def bench_fit_sample(engine: str, rows: int, seed: int):
    """End to end: fit a GReaT synthesizer and sample rows (identical tables)."""
    table = _training_table(max(rows // 10, 50), seed)
    config = GReaTConfig(
        fine_tune=FineTuneConfig(epochs=3, batches=3, seed=seed,
                                 model=_model_config()),
        sampler=SamplerConfig(temperature=0.85, top_k=12, seed=seed),
        seed=seed,
    )

    def body():
        with trainer(engine):
            synth = GReaTSynthesizer(config).fit(table)
        return synth.sample(max(rows // 50, 20), seed=seed + 1).to_records()

    return body


def wide_fit(seed: int) -> dict:
    """Fit the GReaTER pipeline on ``WIDE_FIT_USERS`` DIGIX-like users.

    The dataset and pipeline are built the way perfbench's ``fit_registry``
    builds its 512-user fit; only the compiled trainer runs.
    """
    trial = generate_digix_like(DigixConfig(
        n_tasks=1, n_users_per_task=WIDE_FIT_USERS, ads_rows_per_user=(2, 4),
        feeds_rows_per_user=(2, 4), seed=seed)).trials()[0]
    pipeline = GReaTERPipeline(PipelineConfig(
        seed=seed, drop_columns=("task_id",),
        enhancer=EnhancerConfig(semantic_level="understandability", seed=seed),
        connector=ConnectorConfig(remove_noisy_columns=False)))
    results = []
    fine_tune = FineTuner.fine_tune

    def recording(tuner, corpus):
        results.append(fine_tune(tuner, corpus))
        return results[-1]

    with mock.patch.object(FineTuner, "fine_tune", recording):
        start = time.perf_counter()
        pipeline.fit(trial.ads, trial.feeds)
        fit_s = time.perf_counter() - start
    return {
        "users": WIDE_FIT_USERS,
        "fit_s": round(fit_s, 3),
        "bound_s": WIDE_FIT_BOUND_S,
        "engines": sorted({result.engine for result in results}),
        "vocab_sizes": [len(result.model.tokenizer.vocabulary) for result in results],
        "within_bound": fit_s <= WIDE_FIT_BOUND_S,
    }


BENCHMARKS = [
    ("fit_trace", bench_fit_trace),
    ("wide_vocab", bench_wide_vocab),
    ("encode", bench_encode),
    ("fit_sample", bench_fit_sample),
]


def run(rows: int, seed: int = 7, repeats: int = 1, full: bool = True) -> dict:
    """Run every benchmark on both trainers and return the report dict
    (with the compiled-only :func:`wide_fit` when *full*)."""
    results: dict[str, dict] = {}
    outputs: dict[str, dict] = {engine: {} for engine in ENGINES}
    timings: dict[str, dict] = {engine: {} for engine in ENGINES}

    for engine in ENGINES:
        for name, build in BENCHMARKS:
            body = build(engine, rows, seed)
            best = float("inf")
            for _ in range(max(repeats, 1)):
                start = time.perf_counter()
                outputs[engine][name] = body()
                best = min(best, time.perf_counter() - start)
            timings[engine][name] = best

    for name, _ in BENCHMARKS:
        object_out = outputs["object"][name]
        compiled_out = outputs["compiled"][name]
        if name in ("fit_trace", "wide_vocab"):
            # the engine label differs by construction; everything else must not
            identical = ((object_out["engine"], compiled_out["engine"]) == ENGINES
                         and all(object_out[key] == compiled_out[key]
                                 for key in ("vocabulary", "trace", "counts")))
        elif name == "encode":
            identical = (object_out[0] == compiled_out[0]
                         and np.array_equal(np.asarray(object_out[1], dtype=np.int64),
                                            compiled_out[1]))
        else:
            identical = object_out == compiled_out
        object_s = timings["object"][name]
        compiled_s = timings["compiled"][name]
        results[name] = {
            "object_s": round(object_s, 6),
            "compiled_s": round(compiled_s, 6),
            "speedup": round(object_s / compiled_s, 2) if compiled_s > 0 else float("inf"),
            "identical_output": identical,
        }
    results["fit_trace"]["n_contexts"] = outputs["compiled"]["fit_trace"]["n_contexts"]
    results["fit_trace"]["trace"] = outputs["compiled"]["fit_trace"]["trace"]
    results["wide_vocab"]["vocab_size"] = outputs["compiled"]["wide_vocab"]["vocab_size"]
    # the check only covers the old cliff when the vocabulary is past it
    results["wide_vocab"]["identical_output"] &= results["wide_vocab"]["vocab_size"] > 1290

    return {
        "rows": rows,
        "seed": seed,
        "benchmarks": results,
        "wide_fit": wide_fit(seed) if full else None,
        "all_identical": all(entry["identical_output"] for entry in results.values()),
        "target_path": TARGET_PATH,
        "meets_10x_target": results[TARGET_PATH]["speedup"] >= 10.0,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the object-trainer oracle vs the compiled training engine."
    )
    parser.add_argument("--rows", type=int, default=50_000,
                        help="training-table rows for the fit benchmarks (default 50000)")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run (500 rows, no speedup requirement)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--repeats", type=int, default=1,
                        help="timing repetitions per benchmark (best-of)")
    parser.add_argument("--out", type=Path, default=Path("BENCH_training.json"),
                        help="output JSON path (default ./BENCH_training.json)")
    args = parser.parse_args(argv)

    rows = 500 if args.smoke else args.rows
    mode = "smoke" if args.smoke else "full"
    report = {"env": environment(mode),
              **run(rows, seed=args.seed, repeats=args.repeats, full=not args.smoke)}
    args.out.write_text(json.dumps(report, indent=2) + "\n")

    width = max(len(name) for name, _ in BENCHMARKS)
    print(f"rows={rows}  (object-trainer oracle vs compiled training engine)")
    for name, _ in BENCHMARKS:
        entry = report["benchmarks"][name]
        flag = "*" if name == TARGET_PATH else " "
        print("{}{:<{width}}  object {:>9.3f}s  compiled {:>9.3f}s  speedup {:>7.2f}x  identical={}".format(
            flag, name, entry["object_s"], entry["compiled_s"], entry["speedup"],
            entry["identical_output"], width=width,
        ))
    fit = report["wide_fit"]
    if fit is not None:
        print("wide_fit  {} users, compiled {:.3f}s (bound {:.0f}s), vocabularies {}".format(
            fit["users"], fit["fit_s"], fit["bound_s"], fit["vocab_sizes"]))
    print("wrote {}".format(args.out))

    if not report["all_identical"]:
        print("ERROR: engines disagree on at least one training result")
        return 1
    if not args.smoke and not report["meets_10x_target"]:
        print("ERROR: the fit+trace path did not reach the 10x target")
        return 1
    if fit is not None and not (fit["within_bound"] and fit["engines"] == ["compiled"]):
        print("ERROR: the {}-user fit took {}s (bound {}s) on trainers {}".format(
            fit["users"], fit["fit_s"], fit["bound_s"], fit["engines"]))
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
