"""Equivalence and behaviour tests for the batched generation engine.

The engine runs the compiled CSR backbone; the legacy object backbone is
kept as the oracle.  Both must produce *identical* outputs for identical
seeds — bit-identical mass matrices in, one shared RNG protocol out.  These
tests pin that contract across temperatures, top-k values, prompts, the
validity-retry path, and the guided synthesizer stack, reaching the oracle
through the engine's ``backbone`` seam.
"""

import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.llm.engine as engine_module
from repro.frame.table import Table
from repro.great.synthesizer import GReaTConfig, GReaTSynthesizer
from repro.llm.compiled import CompiledNGramModel
from repro.llm.engine import BatchGenerationEngine, ObjectBackbone
from repro.llm.finetune import FineTuneConfig
from repro.llm.ngram_model import ModelConfig, NGramLanguageModel
from repro.llm.sampler import SamplerConfig, TemperatureSampler
from repro.llm.tokenizer import WordTokenizer

CORPUS = [
    "Name: Grace, Lunch: Rice, Dinner: Steak",
    "Name: Yin, Lunch: Spaghetti, Dinner: Chicken",
    "Name: Anson, Lunch: Fried Rice, Dinner: Curry",
    "Name: Grace, Lunch: Rice, Dinner: Steak",
    "Name: Yin, Lunch: Spaghetti, Dinner: Steak",
    "Name: Maya, Lunch: Noodles, Dinner: Curry",
]


@pytest.fixture(scope="module")
def trained_model():
    tokenizer = WordTokenizer().fit(CORPUS)
    model = NGramLanguageModel(tokenizer, ModelConfig(order=4, smoothing=0.01))
    model.fit(CORPUS)
    return model


def _engines(model, **config_kwargs):
    """(oracle engine, runtime engine) over *model* with one sampler config."""
    config = SamplerConfig(**config_kwargs)
    object_engine = BatchGenerationEngine(model, config, backbone=ObjectBackbone(model))
    compiled_engine = BatchGenerationEngine(model, config)
    return object_engine, compiled_engine


def _with_oracle(synth: GReaTSynthesizer) -> GReaTSynthesizer:
    """Swap the object oracle into a fitted synthesizer's engine."""
    synth.engine.backbone = ObjectBackbone(synth.model)
    return synth


class TestBackboneMasses:
    def test_dense_masses_bitwise_identical(self, trained_model):
        compiled = CompiledNGramModel(trained_model)
        legacy = ObjectBackbone(trained_model)
        rng = np.random.default_rng(0)
        width = trained_model.config.order - 1
        vocab_size = len(trained_model.tokenizer.vocabulary)
        contexts = rng.integers(0, vocab_size, size=(40, width)).astype(np.int64)
        lengths = rng.integers(0, width + 1, size=40).astype(np.int64)
        assert np.array_equal(legacy.dense_masses(contexts, lengths),
                              compiled.dense_masses(contexts, lengths))

    def test_token_masses_bitwise_identical(self, trained_model):
        compiled = CompiledNGramModel(trained_model)
        legacy = ObjectBackbone(trained_model)
        rng = np.random.default_rng(1)
        width = trained_model.config.order - 1
        vocab_size = len(trained_model.tokenizer.vocabulary)
        contexts = rng.integers(0, vocab_size, size=(25, width)).astype(np.int64)
        lengths = rng.integers(0, width + 1, size=25).astype(np.int64)
        for token_id in range(vocab_size):
            assert np.array_equal(legacy.token_masses(contexts, lengths, token_id),
                                  compiled.token_masses(contexts, lengths, token_id))

    def test_dense_masses_match_model_distribution(self, trained_model):
        """Masses renormalise to the model's public next-token distribution."""
        compiled = CompiledNGramModel(trained_model)
        vocabulary = trained_model.tokenizer.vocabulary
        context = [vocabulary.encode_token("Lunch"), vocabulary.encode_token(":")]
        width = trained_model.config.order - 1
        contexts = np.zeros((1, width), dtype=np.int64)
        contexts[0, width - len(context):] = context
        lengths = np.array([len(context)], dtype=np.int64)
        masses = compiled.dense_masses(contexts, lengths)[0]
        expected = trained_model.next_token_distribution(context)
        normalised = masses / masses.sum()
        for token_id, probability in expected.items():
            assert normalised[token_id] == pytest.approx(probability, rel=1e-9)


class TestFreeGenerationEquivalence:
    @pytest.mark.parametrize("temperature", [0.0, 0.4, 1.0, 1.7])
    @pytest.mark.parametrize("top_k", [None, 3, 12])
    def test_identical_sentences(self, trained_model, temperature, top_k):
        object_engine, compiled_engine = _engines(
            trained_model, temperature=temperature, top_k=top_k, max_tokens=48)
        assert object_engine.generate_sentences(16, seed=5) == \
            compiled_engine.generate_sentences(16, seed=5)

    def test_identical_with_prompts(self, trained_model):
        tokenizer = trained_model.tokenizer
        prompt = tokenizer.encode("Name :", add_bos=False, add_eos=False)
        prompts = [prompt] * 10
        object_engine, compiled_engine = _engines(trained_model, max_tokens=40)
        object_out = object_engine.generate_sentences(10, prompts=prompts, seed=9)
        compiled_out = compiled_engine.generate_sentences(10, prompts=prompts, seed=9)
        assert object_out == compiled_out
        assert all(sentence.startswith("Name") for sentence in object_out)

    def test_identical_validity_retry(self, trained_model):
        object_engine, compiled_engine = _engines(trained_model, max_retries=3)
        predicate = lambda sentence: "Lunch" in sentence  # noqa: E731
        object_out = object_engine.generate_valid(12, predicate, seed=3)
        compiled_out = compiled_engine.generate_valid(12, predicate, seed=3)
        assert object_out == compiled_out
        assert all(v is None or "Lunch" in v for v in object_out)

    def test_chunked_batches_match_single_batch(self, trained_model):
        """Lane chunking must not change the draw sequence."""
        wide = BatchGenerationEngine(trained_model, SamplerConfig(batch_lanes=512))
        narrow = BatchGenerationEngine(trained_model, SamplerConfig(batch_lanes=512),
                                       backbone=ObjectBackbone(trained_model))
        assert wide.generate_sentences(30, seed=2) == narrow.generate_sentences(30, seed=2)

    def test_max_tokens_bounds_sequences(self, trained_model):
        engine = BatchGenerationEngine(
            trained_model, SamplerConfig(max_tokens=5, top_k=None))
        for ids in engine.generate_ids_batch(8, seed=0):
            assert len(ids) <= 5

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), temperature=st.floats(0.05, 2.5),
           top_k=st.one_of(st.none(), st.integers(1, 20)))
    def test_equivalence_property(self, trained_model, seed, temperature, top_k):
        object_engine, compiled_engine = _engines(
            trained_model, temperature=temperature, top_k=top_k, max_tokens=32)
        assert object_engine.generate_sentences(6, seed=seed) == \
            compiled_engine.generate_sentences(6, seed=seed)


def _great_config(strategy="guided", temperature=0.85, seed=0):
    return GReaTConfig(
        fine_tune=FineTuneConfig(epochs=2, batches=2, model=ModelConfig(order=4)),
        sampler=SamplerConfig(temperature=temperature, top_k=12, seed=seed),
        sampling_strategy=strategy,
        seed=seed,
    )


@pytest.fixture(scope="module")
def meals_table():
    return Table({
        "Name": ["Grace", "Yin", "Anson", "Maya", "Leo", "Iris"],
        "Lunch": ["Rice", "Spaghetti", "Fried Rice", "Noodles", "Spaghetti", "Rice"],
        "Dinner": ["Steak", "Chicken", "Curry", "Steak", "Chicken", "Curry"],
        "Rating": [5, 4, 3, 5, 4, 3],
    })


class TestSynthesizerEquivalence:
    @pytest.mark.parametrize("strategy", ["guided", "free"])
    @pytest.mark.parametrize("temperature", [0.3, 0.85, 1.5])
    def test_identical_tables(self, meals_table, strategy, temperature):
        object_synth = _with_oracle(GReaTSynthesizer(
            _great_config(strategy, temperature)).fit(meals_table))
        compiled_synth = GReaTSynthesizer(
            _great_config(strategy, temperature)).fit(meals_table)
        assert isinstance(compiled_synth.engine.backbone, CompiledNGramModel)
        assert object_synth.sample(25, seed=4) == compiled_synth.sample(25, seed=4)

    def test_identical_conditional_tables(self, meals_table):
        prompts = [{"Name": "Grace"}, {"Name": "Yin"}, {"Name": "Maya"}] * 4
        object_synth = _with_oracle(GReaTSynthesizer(_great_config()).fit(meals_table))
        compiled_synth = GReaTSynthesizer(_great_config()).fit(meals_table)
        object_out = object_synth.sample_conditional(prompts, seed=6)
        compiled_out = compiled_synth.sample_conditional(prompts, seed=6)
        assert object_out == compiled_out
        assert object_out.column("Name").values[:3] == ["Grace", "Yin", "Maya"]

    def test_negative_seeds_accepted(self, meals_table):
        """random.Random accepted any int seed; the numpy streams must too."""
        for strategy in ("guided", "free"):
            synth = GReaTSynthesizer(_great_config(strategy)).fit(meals_table)
            assert synth.sample(4, seed=-3) == synth.sample(4, seed=-3)

    def test_engine_shared_with_sampler(self, meals_table):
        """fit() must not freeze the compiled model twice."""
        synth = GReaTSynthesizer(_great_config()).fit(meals_table)
        assert synth.engine is synth._sampler.engine
        assert synth.engine.backbone is synth.model.compiled_model()

    def test_batch_sampling_stays_on_training_support(self, meals_table):
        synth = GReaTSynthesizer(_great_config()).fit(meals_table)
        sample = synth.sample(40, seed=1)
        for name in meals_table.column_names:
            assert set(sample.column(name).unique()) <= set(meals_table.column(name).unique())


def _served_blocks(synth, seeds, count=8):
    """Served-block-shaped draws: *count* rows per seed, lanes capped at *count*."""
    return [synth.sample(count, seed=seed, max_lanes=count).to_records() for seed in seeds]


class TestScoreCache:
    """The memoized candidate scores are the uncached rows, bit for bit."""

    def _lanes(self, model):
        vocabulary = model.tokenizer.vocabulary
        encode = lambda text: [vocabulary.encode_token(t)  # noqa: E731
                               for t in model.tokenizer.tokenize(text)]
        token_lists = [encode("Fried Rice"), encode("Rice"), encode("Spaghetti"),
                       encode("Rice , Dinner")]
        width = model.config.order - 1
        rng = np.random.default_rng(3)
        base = rng.integers(0, len(vocabulary), size=(6, width)).astype(np.int64)
        lengths = np.array([0, 1, 2, width, width, width], dtype=np.int64)
        for lane, length in enumerate(lengths):
            base[lane, :width - length] = 0  # unused context slots stay padded
        base[5] = base[1]  # same row as lane 1, read at a different length
        picks = np.array([0, 3, 1, 3, 0, 2, 4, 4, 1, 5, 0])  # duplicated lanes
        return base[picks], lengths[picks], token_lists

    def test_matches_uncached_per_lane_rows(self, trained_model):
        contexts, lengths, token_lists = self._lanes(trained_model)
        assert max(len(tokens) for tokens in token_lists) > 1
        assert (lengths < contexts.shape[1]).any()
        engine = BatchGenerationEngine(trained_model, SamplerConfig())
        per_lane = np.concatenate([
            engine._score_candidates(contexts[lane:lane + 1], lengths[lane:lane + 1],
                                     token_lists)
            for lane in range(contexts.shape[0])])
        cold = engine.score_candidates(contexts, lengths, token_lists)
        warm = engine.score_candidates(contexts, lengths, token_lists)
        assert np.array_equal(cold, per_lane)
        assert np.array_equal(warm, per_lane)
        assert np.array_equal(cold, engine._score_candidates(contexts, lengths, token_lists))
        stats = engine.score_cache_stats()
        assert stats["misses"] == stats["entries"] == 6  # one row per distinct lane
        assert stats["hits"] == 2 * contexts.shape[0] - 6
        assert stats["bytes"] > 0

    def test_candidate_lists_keyed_by_identity(self, trained_model):
        contexts, lengths, token_lists = self._lanes(trained_model)
        engine = BatchGenerationEngine(trained_model, SamplerConfig())
        first = engine.score_candidates(contexts, lengths, token_lists)
        reordered = token_lists[::-1]
        assert np.array_equal(engine.score_candidates(contexts, lengths, reordered),
                              first[:, ::-1])

    def test_output_independent_of_cache_history(self, meals_table):
        synth = GReaTSynthesizer(_great_config()).fit(meals_table)
        cold = _served_blocks(synth, [11, 12])
        synth.engine.backbone = synth.engine.backbone  # drops the cache
        assert synth.engine.score_cache_stats()["entries"] == 0
        _served_blocks(synth, range(20, 30))  # warm on other seeds
        assert synth.engine.score_cache_stats()["hits"] > 0
        assert _served_blocks(synth, [11, 12]) == cold

    def test_evictions_keep_output_identical(self, meals_table, monkeypatch):
        synth = GReaTSynthesizer(_great_config()).fit(meals_table)
        expected = _served_blocks(synth, range(6))
        synth.engine.backbone = synth.engine.backbone
        monkeypatch.setattr(engine_module, "SCORE_CACHE_BYTES", 2048)
        assert _served_blocks(synth, range(6)) == expected
        stats = synth.engine.score_cache_stats()
        assert stats["bytes"] <= 2048
        assert stats["entries"] < stats["misses"]  # rows were dropped on the way

    def test_threads_share_one_engine(self, meals_table):
        """More threads than cores on one engine, switching as often as the
        interpreter allows: same tables as a serial run, and no lost update
        in the cache bookkeeping."""
        synth = GReaTSynthesizer(_great_config()).fit(meals_table)
        n_threads = max(4, (os.cpu_count() or 1) + 1)
        seeds = list(range(40, 40 + 2 * n_threads))
        serial = _served_blocks(synth, seeds)
        scored = sum(synth.engine.score_cache_stats()[key] for key in ("hits", "misses"))
        synth.engine.backbone = synth.engine.backbone
        results: dict = {}

        def worker(offset):
            for seed in seeds[offset::n_threads]:
                results[seed] = _served_blocks(synth, [seed])[0]

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert [results[seed] for seed in seeds] == serial
        stats = synth.engine.score_cache_stats()
        assert stats["hits"] + stats["misses"] == 2 * scored
        cache = synth.engine._score_cache
        assert stats["entries"] == sum(len(rows) for _, rows in cache.sets.values())

    def test_swapping_in_the_oracle_recomputes(self, meals_table, monkeypatch):
        synth = GReaTSynthesizer(_great_config()).fit(meals_table)
        runtime = _served_blocks(synth, [5, 6])
        assert synth.engine.score_cache_stats()["entries"] > 0
        oracle = ObjectBackbone(synth.model)
        calls = []
        dense_masses = oracle.dense_masses
        monkeypatch.setattr(oracle, "dense_masses",
                            lambda *args: calls.append(1) or dense_masses(*args))
        synth.engine.backbone = oracle
        assert synth.engine.score_cache_stats()["entries"] == 0
        assert _served_blocks(synth, [5, 6]) == runtime
        assert calls  # the oracle computed the scores itself
        assert synth.engine.score_cache_stats()["entries"] == 0  # and is never memoized


class TestEngineSelection:
    def test_config_rejects_unknown(self):
        """The retired ``engine`` switch is not a sampler option."""
        with pytest.raises(TypeError):
            SamplerConfig(engine="object")

    def test_explicit_backbone_overrides_default(self, trained_model):
        default = BatchGenerationEngine(trained_model, SamplerConfig())
        assert isinstance(default.backbone, CompiledNGramModel)
        oracle = ObjectBackbone(trained_model)
        engine = BatchGenerationEngine(trained_model, SamplerConfig(), backbone=oracle)
        assert engine.backbone is oracle

    def test_untrained_model_rejected(self):
        model = NGramLanguageModel(WordTokenizer())
        with pytest.raises(ValueError):
            BatchGenerationEngine(model, SamplerConfig())
        with pytest.raises(ValueError):
            CompiledNGramModel(model)


class TestSamplerDelegation:
    def test_sample_batch_uses_engine(self, trained_model):
        sampler = TemperatureSampler(trained_model, SamplerConfig(seed=1))
        sentences = sampler.sample_batch(7)
        assert len(sentences) == 7
        assert isinstance(sampler.engine.backbone, CompiledNGramModel)

    def test_sample_batch_reproducible_after_reseed(self, trained_model):
        sampler = TemperatureSampler(trained_model, SamplerConfig(seed=1))
        sampler.reseed(11)
        first = sampler.sample_batch(5)
        sampler.reseed(11)
        assert sampler.sample_batch(5) == first

    def test_sample_valid_none_when_impossible(self, trained_model):
        sampler = TemperatureSampler(trained_model, SamplerConfig(seed=1, max_retries=2))
        assert sampler.sample_valid(lambda s: False) is None
