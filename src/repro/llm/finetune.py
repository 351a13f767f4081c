"""Fine-tuning loop.

The paper reports fine-tuning REaLTabFormer objects for "10 epochs and 5
batches" (Sec. 4.1.4).  For the n-gram substrate an epoch is one pass of
count accumulation and a batch is a shard of the corpus; the loop exposes the
same knobs plus a per-epoch held-out perplexity trace so experiments can show
the model actually adapts to the encoded corpus.

The loop runs on arrays for every vocabulary: one batched corpus encode
into a flat id array, one array-reduction count accumulation
(:mod:`repro.llm.training`), analytic epoch scaling, and per-epoch
validation scoring through the compiled CSR scorer.  The legacy object
trainer (per-sentence tokenisation and token-by-token updates of the
nested ``dict[context] -> Counter`` tables) survives only as the oracle in
``benchmarks.perf.oracle``; both produce bit-identical counts, vocabulary
ids and perplexity traces.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.llm.compiled import CompiledNGramModel
from repro.llm.ngram_model import (
    ModelConfig,
    NGramLanguageModel,
    perplexity_from_probabilities,
)
from repro.llm.tokenizer import WordTokenizer
from repro.llm.training import ArrayTrainedNGramModel, accumulate_counts


@dataclass(frozen=True)
class FineTuneConfig:
    """Hyper-parameters of the fine-tuning loop (paper defaults in Sec. 4.1.4)."""

    epochs: int = 10
    batches: int = 5
    validation_fraction: float = 0.1
    shuffle: bool = True
    seed: int = 0
    model: ModelConfig = field(default_factory=ModelConfig)

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.batches < 1:
            raise ValueError("batches must be at least 1")
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must be in [0, 1)")


@dataclass
class FineTuneResult:
    """Outcome of a fine-tuning run.

    ``engine`` names the trainer that ran: always ``"compiled"`` here (the
    object-trainer oracle reports ``"object"``).
    """

    model: NGramLanguageModel
    perplexity_trace: list[float]
    train_size: int
    validation_size: int
    engine: str = "compiled"


class FineTuner:
    """Fit a language model on a textual-encoded corpus, epoch by epoch."""

    def __init__(self, tokenizer: WordTokenizer, config: FineTuneConfig | None = None):
        self.tokenizer = tokenizer
        self.config = config or FineTuneConfig()

    def fine_tune(self, corpus: Sequence[str]) -> FineTuneResult:
        """Train a fresh model on *corpus* and return it with its perplexity trace.

        One encode, one count reduction, analytic epoch scaling.  An epoch
        of the batched loop is exactly one pass over the training corpus
        (the batch shards partition it), so the counts after epoch ``e``
        are ``e`` times the single-pass counts — no re-looping.  The
        per-epoch validation perplexities are computed by the compiled CSR
        scorer on count views scaled to each epoch.
        """
        shuffled, training, validation = self._split(corpus)
        config = self.config
        encoded = self.tokenizer.fit_encode_corpus(shuffled)
        n_validation = len(validation)
        if len(training) == len(shuffled):  # covers the empty-split fallback
            training_encoded = encoded
        else:
            training_encoded = encoded.slice(n_validation, encoded.n_sentences)
        counts = accumulate_counts(training_encoded, config.model.order,
                                   len(self.tokenizer.vocabulary))

        perplexity_trace: list[float] = []
        if validation:
            validation_encoded = encoded.slice(0, n_validation)
            base_scorer = CompiledNGramModel.from_counts(
                counts, self.tokenizer, config.model)
            for epoch in range(1, config.epochs + 1):
                scorer = base_scorer.with_count_multiplier(epoch)
                perplexity_trace.append(perplexity_from_probabilities(
                    scorer.score_corpus(validation_encoded.ids,
                                        validation_encoded.offsets)))

        model = ArrayTrainedNGramModel(
            self.tokenizer, config.model, counts.scaled(config.epochs),
            trained_sentences=len(training) * config.epochs,
        )
        if not perplexity_trace:
            perplexity_trace.append(perplexity_from_probabilities(
                model.compiled_model().score_corpus(training_encoded.ids,
                                                    training_encoded.offsets)))
        return FineTuneResult(
            model=model,
            perplexity_trace=perplexity_trace,
            train_size=len(training),
            validation_size=len(validation),
        )

    def _split(self, corpus: Sequence[str]) -> tuple[list[str], list[str], list[str]]:
        """``(shuffled, training, validation)`` sentences of *corpus*."""
        corpus = list(corpus)
        if not corpus:
            raise ValueError("cannot fine-tune on an empty corpus")
        order = list(range(len(corpus)))
        if self.config.shuffle:
            random.Random(self.config.seed).shuffle(order)
        shuffled = [corpus[i] for i in order]
        n_validation = int(len(shuffled) * self.config.validation_fraction)
        validation = shuffled[:n_validation]
        training = shuffled[n_validation:] or shuffled
        return shuffled, training, validation
