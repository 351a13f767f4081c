"""Sampling front-end over the language model.

Separating sampling policy (temperature, top-k, retries, per-batch seeds) from
the model itself mirrors how GReaT exposes a ``sample`` method independent of
the fine-tuned backbone, and gives the benchmark harness one place to control
generation hyper-parameters.

Batch APIs (:meth:`TemperatureSampler.sample_batch`,
:meth:`TemperatureSampler.sample_valid`) delegate to the
:class:`~repro.llm.engine.BatchGenerationEngine`.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass

from repro.llm.ngram_model import NGramLanguageModel

@dataclass(frozen=True)
class SamplerConfig:
    """Generation hyper-parameters.

    ``max_retries`` bounds how many candidate sentences are drawn per accepted
    sample when a validity predicate is supplied (GReaT similarly discards
    rows it cannot parse back into the table schema); ``batch_lanes`` caps
    how many sequences are advanced in flight per vectorized step.
    """

    temperature: float = 1.0
    top_k: int | None = 12
    max_tokens: int = 160
    max_retries: int = 8
    seed: int = 0
    batch_lanes: int = 512

    def __post_init__(self):
        if self.temperature < 0:
            raise ValueError("temperature must be non-negative")
        if self.max_tokens <= 0:
            raise ValueError("max_tokens must be positive")
        if self.max_retries < 1:
            raise ValueError("max_retries must be at least 1")
        if self.batch_lanes < 1:
            raise ValueError("batch_lanes must be at least 1")


class TemperatureSampler:
    """Draw sentences from a trained model, optionally rejecting invalid ones."""

    def __init__(self, model: NGramLanguageModel, config: SamplerConfig | None = None):
        self.model = model
        self.config = config or SamplerConfig()
        self._rng = random.Random(self.config.seed)
        self._engine = None

    @property
    def engine(self):
        """The batch-generation engine (built lazily on first use)."""
        if self._engine is None:
            from repro.llm.engine import BatchGenerationEngine

            self._engine = BatchGenerationEngine(self.model, self.config)
        return self._engine

    def reseed(self, seed: int) -> None:
        """Reset the internal random stream (used per trial by the harness)."""
        self._rng = random.Random(seed)

    def _derive_seed(self) -> int:
        """Engine seed drawn from the sampler's stateful stream."""
        return self._rng.randrange(2 ** 32)

    def _prompt_ids(self, prompt: str | None) -> list[int] | None:
        if not prompt:
            return None
        return self.model.tokenizer.encode(prompt, add_bos=False, add_eos=False)

    def sample_valid(self, is_valid: Callable[[str], bool], prompt: str | None = None) -> str | None:
        """Draw sentences until one passes *is_valid* (or retries are exhausted).

        Returns ``None`` when no valid sentence was produced, letting callers
        decide whether to fall back (the synthesizers fall back to resampling a
        training row, matching GReaT's behaviour of only emitting parseable
        rows).
        """
        prompt_ids = self._prompt_ids(prompt)
        prompts = [prompt_ids] if prompt_ids is not None else None
        return self.engine.generate_valid(
            1, is_valid, prompts=prompts, seed=self._derive_seed()
        )[0]

    def sample_batch(self, n: int, prompt: str | None = None) -> list[str]:
        """Draw *n* sentences in one batched engine pass."""
        prompt_ids = self._prompt_ids(prompt)
        prompts = [prompt_ids] * n if prompt_ids is not None else None
        return self.engine.generate_sentences(n, prompts=prompts, seed=self._derive_seed())
