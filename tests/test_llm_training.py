"""Tests for the compiled training engine (batch encode, array counts, scoring).

The load-bearing property: the compiled trainer and the object-trainer
oracle (``benchmarks.perf.oracle``) must be *bit-identical* — same
vocabulary ids, same integer count tables, same perplexity traces, and
(through identical seeds) the same synthetic tables end to end — at any
vocabulary size.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.frame.table import Table
from repro.great.synthesizer import GReaTConfig, GReaTSynthesizer
from repro.llm.compiled import CompiledNGramModel
from repro.llm.finetune import FineTuneConfig, FineTuner
from repro.llm.ngram_model import (
    ModelConfig,
    NGramLanguageModel,
    perplexity_from_probabilities,
    _sample_masses,
)
from repro.llm.sampler import SamplerConfig
from repro.llm.tokenizer import WordTokenizer
from repro.llm.training import ArrayTrainedNGramModel, CorpusCounts, accumulate_counts
from repro.store.bundle import BasePartReader, BundleWriter, _add_model, _read_model

from benchmarks.perf.oracle import object_trainer

WORDS = ["Name", ":", "Grace", "Yin", "Lunch", "Rice", "3", ",", "x", "20.5"]


def _random_corpus(seed: int, n_sentences: int = 60) -> list[str]:
    rng = random.Random(seed)
    return [
        " ".join(rng.choice(WORDS) for _ in range(rng.randrange(2, 10)))
        for _ in range(n_sentences)
    ]


def _wide_corpus(seed: int, n_sentences: int = 1300) -> list[str]:
    """One distinct id word per sentence: a vocabulary above 1,290 tokens,
    where order-6 n-grams no longer pack into one int64 key."""
    rng = random.Random(seed)
    return [
        "u{} {}".format(i, " ".join(rng.choice(WORDS) for _ in range(rng.randrange(1, 5))))
        for i in range(n_sentences)
    ]


class _PartsReader(BasePartReader):
    def __init__(self, parts: dict):
        self.manifest = {}
        self._parts = parts

    def _part(self, name: str) -> bytes:
        return self._parts[name]


def _model_parts(model) -> dict:
    writer = BundleWriter("great_synthesizer")
    _add_model(writer, "", model)
    return writer.parts


class TestEncodedCorpus:
    def test_matches_per_sentence_encode(self):
        corpus = _random_corpus(0) + ["", "a b c"]
        tokenizer = WordTokenizer().fit(corpus)
        encoded = tokenizer.encode_corpus(corpus)
        assert encoded.n_sentences == len(corpus)
        for index, sentence in enumerate(corpus):
            assert encoded.sentence(index) == tokenizer.encode(sentence)

    def test_fit_encode_matches_fit_then_encode(self):
        corpus = _random_corpus(1)
        one_shot = WordTokenizer()
        encoded = one_shot.fit_encode_corpus(corpus)
        two_step = WordTokenizer().fit(corpus)
        assert one_shot.vocabulary.token_to_id == two_step.vocabulary.token_to_id
        reference = two_step.encode_corpus(corpus)
        assert np.array_equal(encoded.ids, reference.ids)
        assert np.array_equal(encoded.offsets, reference.offsets)

    def test_sentinel_in_corpus_falls_back(self):
        corpus = ["a\x00b c", "d e"]
        tokenizer = WordTokenizer().fit(corpus)
        encoded = tokenizer.encode_corpus(corpus)
        for index, sentence in enumerate(corpus):
            assert encoded.sentence(index) == tokenizer.encode(sentence)

    def test_sentinel_character_keeps_its_vocabulary_entry(self):
        """A corpus genuinely containing the scan sentinel still gets a
        vocabulary id for it — only the inserted separators are discounted."""
        corpus = ["a \x00 b", "\x00 c"]
        tokenizer = WordTokenizer().fit(corpus)
        assert "\x00" in tokenizer.vocabulary
        unk = tokenizer.vocabulary.unk_id
        encoded = tokenizer.encode_corpus(corpus)
        assert unk not in encoded.ids

    def test_slice_rebases_offsets(self):
        corpus = _random_corpus(2, n_sentences=10)
        tokenizer = WordTokenizer().fit(corpus)
        encoded = tokenizer.encode_corpus(corpus)
        part = encoded.slice(3, 7)
        assert part.n_sentences == 4
        for index in range(4):
            assert part.sentence(index) == tokenizer.encode(corpus[3 + index])

    def test_scored_positions_count(self):
        corpus = ["a b", "c"]
        tokenizer = WordTokenizer().fit(corpus)
        encoded = tokenizer.encode_corpus(corpus)
        # every token except each sentence's <bos> is a scored position
        assert encoded.n_scored_positions == sum(
            len(tokenizer.encode(s)) - 1 for s in corpus)


class TestAccumulateCounts:
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_matches_dict_training(self, order):
        corpus = _random_corpus(3)
        tokenizer = WordTokenizer().fit(corpus)
        reference = NGramLanguageModel(tokenizer, ModelConfig(order=order)).fit(corpus)
        frozen = CompiledNGramModel(reference)
        encoded = tokenizer.encode_corpus(corpus)
        counts = accumulate_counts(encoded, order, len(tokenizer.vocabulary))
        direct = CompiledNGramModel.from_counts(counts, tokenizer,
                                                ModelConfig(order=order))
        for k in range(1, order):
            for name in ("_keys", "_key_rows", "_row_ptr", "_tokens", "_counts",
                         "_totals", "_entry_keys"):
                assert np.array_equal(getattr(frozen, name)[k],
                                      getattr(direct, name)[k]), (k, name)
        assert np.array_equal(frozen._tokens0, direct._tokens0)
        assert np.array_equal(frozen._counts0, direct._counts0)
        assert frozen._total0 == direct._total0
        assert frozen._scale0 == direct._scale0 and frozen._base0 == direct._base0

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(seed=st.integers(min_value=0, max_value=2 ** 16),
           order=st.integers(min_value=2, max_value=6),
           wide=st.booleans())
    def test_matches_oracle_at_any_vocabulary(self, seed, order, wide):
        """Property: the array counts equal the oracle's dict tables, below
        and above the old int64 packing limit, and a bundle save -> load ->
        save reproduces the model arrays byte for byte."""
        corpus = _wide_corpus(seed) if wide else _random_corpus(seed)
        tokenizer = WordTokenizer().fit(corpus)
        vocab_size = len(tokenizer.vocabulary)
        assert (vocab_size > 1290) == wide
        config = ModelConfig(order=order)
        oracle = NGramLanguageModel(tokenizer, config).fit(corpus)
        counts = accumulate_counts(tokenizer.encode_corpus(corpus), order, vocab_size)
        model = ArrayTrainedNGramModel(tokenizer, config, counts,
                                       trained_sentences=len(corpus))
        model._ensure_dict_tables()
        for k in range(order):
            assert dict(model._counts[k]) == dict(oracle._counts[k])
            assert dict(model._context_totals[k]) == dict(oracle._context_totals[k])
        frozen = CorpusCounts.from_dicts(oracle)
        for name in ("keys", "key_rows", "row_ptr", "tokens", "counts", "totals"):
            for k in range(1, order):
                assert np.array_equal(getattr(frozen, name)[k], getattr(counts, name)[k])
        parts = _model_parts(model)
        assert _model_parts(oracle) == parts
        assert _model_parts(_read_model(_PartsReader(parts), "", tokenizer)) == parts

    def test_tables_need_every_suffix(self):
        """A context whose suffix is no lower-order context cannot be keyed."""
        empty = np.empty(0, dtype=np.int64)
        tables = {
            1: (np.array([[1], [2]]), np.array([0, 1, 2]), np.array([2, 1]),
                np.array([1, 1]), np.array([1, 1])),
            2: (np.array([[1, 3]]), np.array([0, 1]), np.array([2]),
                np.array([1]), np.array([1])),
        }
        with pytest.raises(ValueError, match="suffix"):
            CorpusCounts.from_tables(3, 5, tables, tokens0=empty, counts0=empty, total0=0)

    def test_scaled_counts_match_repeated_epochs(self):
        corpus = _random_corpus(4)
        tokenizer = WordTokenizer().fit(corpus)
        reference = NGramLanguageModel(tokenizer, ModelConfig(order=3)).fit(corpus, epochs=3)
        frozen = CompiledNGramModel(reference)
        encoded = tokenizer.encode_corpus(corpus)
        counts = accumulate_counts(encoded, 3, len(tokenizer.vocabulary)).scaled(3)
        direct = CompiledNGramModel.from_counts(counts, tokenizer, ModelConfig(order=3))
        for k in range(1, 3):
            assert np.array_equal(frozen._counts[k], direct._counts[k])
            assert np.array_equal(frozen._totals[k], direct._totals[k])
        assert frozen._total0 == direct._total0


class TestScoreCorpus:
    @pytest.mark.parametrize("order", [1, 2, 3, 5])
    def test_matches_object_scoring(self, order):
        corpus = _random_corpus(5)
        held_out = _random_corpus(6, n_sentences=20)
        tokenizer = WordTokenizer().fit(corpus + held_out)
        model = NGramLanguageModel(tokenizer, ModelConfig(order=order)).fit(corpus)
        compiled = model.compiled_model()
        encoded = tokenizer.encode_corpus(held_out)
        batched = compiled.score_corpus(encoded.ids, encoded.offsets)
        reference = []
        for sentence in held_out:
            ids = tokenizer.encode(sentence)
            reference.extend(model._position_probability(ids, position)
                             for position in range(1, len(ids)))
        assert np.array_equal(batched, np.asarray(reference))
        assert model.perplexity(held_out) == perplexity_from_probabilities(batched)

    def test_chunked_scoring_is_identical(self):
        corpus = _random_corpus(7)
        tokenizer = WordTokenizer().fit(corpus)
        model = NGramLanguageModel(tokenizer, ModelConfig(order=3)).fit(corpus)
        compiled = model.compiled_model()
        encoded = tokenizer.encode_corpus(corpus)
        whole = compiled.score_corpus(encoded.ids, encoded.offsets)
        chunked = compiled.score_corpus(encoded.ids, encoded.offsets, chunk_size=7)
        assert np.array_equal(whole, chunked)


class TestTrainingEngineSwitch:
    def test_config_rejects_unknown_engine(self):
        """The switch is retired: the vocabulary, not an option, selects the
        trainer."""
        with pytest.raises(TypeError):
            FineTuneConfig(engine="object")


def _fine_tune_pair(corpus, order, epochs, batches, validation_fraction, seed):
    """(object-oracle result, compiled result) of one fine-tuning config."""
    config = FineTuneConfig(epochs=epochs, batches=batches,
                            validation_fraction=validation_fraction,
                            seed=seed, model=ModelConfig(order=order))
    with object_trainer():
        object_result = FineTuner(WordTokenizer(), config).fine_tune(corpus)
    compiled_result = FineTuner(WordTokenizer(), config).fine_tune(corpus)
    assert object_result.engine == "object"
    return object_result, compiled_result


class TestEngineEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2 ** 16),
        order=st.integers(min_value=1, max_value=4),
        epochs=st.integers(min_value=1, max_value=3),
        batches=st.integers(min_value=1, max_value=4),
        validation_fraction=st.sampled_from([0.0, 0.1, 0.3]),
    )
    def test_bitwise_identical_training(self, seed, order, epochs, batches,
                                        validation_fraction):
        """Property: counts, vocabulary, and perplexity trace match exactly."""
        corpus = _random_corpus(seed, n_sentences=30)
        object_result, compiled_result = _fine_tune_pair(
            corpus, order, epochs, batches, validation_fraction, seed)
        assert (object_result.model.tokenizer.vocabulary.token_to_id
                == compiled_result.model.tokenizer.vocabulary.token_to_id)
        assert object_result.perplexity_trace == compiled_result.perplexity_trace
        assert object_result.train_size == compiled_result.train_size
        assert object_result.validation_size == compiled_result.validation_size
        assert compiled_result.engine == "compiled"
        assert isinstance(compiled_result.model, ArrayTrainedNGramModel)
        # materialise the array model's dict tables and compare integer counts
        array_model = compiled_result.model
        array_model.distribution_components([])
        for k in range(order):
            assert dict(object_result.model._counts[k]) == dict(array_model._counts[k])
            assert (dict(object_result.model._context_totals[k])
                    == dict(array_model._context_totals[k]))
        assert (object_result.model.trained_sentences
                == array_model.trained_sentences)

    def test_validation_fraction_zero_edge(self):
        corpus = _random_corpus(11, n_sentences=12)
        object_result, compiled_result = _fine_tune_pair(
            corpus, order=3, epochs=2, batches=2, validation_fraction=0.0, seed=1)
        assert len(object_result.perplexity_trace) == 1
        assert object_result.perplexity_trace == compiled_result.perplexity_trace
        assert object_result.validation_size == compiled_result.validation_size == 0

    def test_identical_synthetic_tables(self):
        """A synthesizer fitted through the object-trainer oracle samples the
        same records as a compiled-trained one (the oracle model's dict
        tables are frozen into the same compiled backbone)."""
        rng = random.Random(9)
        table = Table({
            "city": [rng.choice(["austin", "boston", "denver"]) for _ in range(80)],
            "clicks": [rng.randrange(8) for _ in range(80)],
        })
        config = GReaTConfig(
            fine_tune=FineTuneConfig(epochs=2, batches=2, seed=4,
                                     model=ModelConfig(order=4)),
            sampler=SamplerConfig(temperature=0.9, top_k=8, seed=4),
            seed=4,
        )
        with object_trainer():
            oracle = GReaTSynthesizer(config).fit(table)
        assert not isinstance(oracle.model, ArrayTrainedNGramModel)
        compiled = GReaTSynthesizer(config).fit(table)
        assert isinstance(compiled.model, ArrayTrainedNGramModel)
        assert (oracle.sample(120, seed=13).to_records()
                == compiled.sample(120, seed=13).to_records())

    def test_direct_freeze_of_array_model_materialises_dicts(self):
        """CompiledNGramModel(model) on an array-trained model must freeze the
        real counts, not the (lazily empty) dict tables."""
        corpus = _random_corpus(14, n_sentences=20)
        config = FineTuneConfig(epochs=2, batches=1, validation_fraction=0.0,
                                seed=0, model=ModelConfig(order=3))
        array_model = FineTuner(WordTokenizer(), config).fine_tune(corpus).model
        direct = CompiledNGramModel(array_model)
        cached = array_model.compiled_model()
        assert direct._total0 == cached._total0 > 0
        for k in range(1, 3):
            assert np.array_equal(direct._keys[k], cached._keys[k])
            assert np.array_equal(direct._counts[k], cached._counts[k])

    def test_array_model_supports_incremental_fit(self):
        """Re-fitting an array-trained model falls back to the dict tables."""
        corpus = _random_corpus(12, n_sentences=15)
        extra = _random_corpus(13, n_sentences=5)
        tokenizer = WordTokenizer().fit(corpus + extra)
        config = FineTuneConfig(epochs=1, batches=1, validation_fraction=0.0,
                                shuffle=False, seed=0, model=ModelConfig(order=3))
        array_model = FineTuner(tokenizer, config).fine_tune(corpus).model
        array_model.fit(extra)
        reference = NGramLanguageModel(tokenizer, ModelConfig(order=3))
        reference.fit(corpus).fit(extra)
        for k in range(3):
            assert dict(reference._counts[k]) == dict(array_model._counts[k])
        # the compiled view after the incremental fit reflects the new counts
        frozen = array_model.compiled_model()
        assert frozen._total0 == reference.compiled_model()._total0


class TestSampleMassesKernel:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2 ** 16),
        size=st.integers(min_value=1, max_value=40),
        top_k=st.integers(min_value=1, max_value=45),
        temperature=st.sampled_from([0.0, 0.7, 1.0]),
    )
    def test_argpartition_matches_stable_argsort(self, seed, size, top_k, temperature):
        """Satellite pin: the argpartition top-k draws exactly what the legacy
        full stable argsort drew, tied masses included."""
        rng = np.random.default_rng(seed)
        # coarse quantisation forces plenty of ties, including at the boundary
        masses = np.round(rng.random(size) * 4) / 4

        def legacy(masses, py_rng, temperature, top_k):
            if top_k is not None and 0 < top_k < masses.size:
                candidate_ids = np.argsort(-masses, kind="stable")[:top_k]
                candidate_masses = masses[candidate_ids]
            else:
                candidate_ids = None
                candidate_masses = masses
            if temperature <= 0:
                best = int(np.argmax(candidate_masses))
                return int(candidate_ids[best]) if candidate_ids is not None else best
            weights = candidate_masses ** (1.0 / temperature)
            total = float(weights.sum())
            if total <= 0:
                chosen = py_rng.randrange(candidate_masses.size)
                return int(candidate_ids[chosen]) if candidate_ids is not None else chosen
            threshold = py_rng.random() * total
            cumulative = np.cumsum(weights)
            chosen = int(np.searchsorted(cumulative, threshold, side="left"))
            chosen = min(chosen, candidate_masses.size - 1)
            return int(candidate_ids[chosen]) if candidate_ids is not None else chosen

        for draw_seed in range(5):
            assert (_sample_masses(masses, random.Random(draw_seed),
                                   temperature=temperature, top_k=top_k)
                    == legacy(masses, random.Random(draw_seed),
                              temperature, top_k))


class TestPerplexityReduction:
    def test_floor_applied(self):
        probabilities = np.array([0.5, 0.0, 1e-30])
        expected = math.exp(-(math.fsum([
            float(np.log(0.5)), float(np.log(1e-12)), float(np.log(1e-12))])) / 3)
        assert perplexity_from_probabilities(probabilities) == pytest.approx(expected)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            perplexity_from_probabilities(np.empty(0))

    def test_perplexity_rejects_empty_corpus(self):
        tokenizer = WordTokenizer().fit(["a b"])
        model = NGramLanguageModel(tokenizer, ModelConfig(order=2)).fit(["a b"])
        with pytest.raises(ValueError):
            model.perplexity([])
