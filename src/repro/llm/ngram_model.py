"""Interpolated back-off n-gram language model.

This is the generative backbone standing in for GPT-2.  It is trained on the
textual-encoded rows produced by :mod:`repro.textenc` and sampled from to
produce new rows.  Two properties make it a faithful substitute for the
purposes of the paper's claims:

* Tokens are atoms — two occurrences of the same surface string are the same
  event, so ambiguous numerical labels genuinely interfere with each other
  (Challenge I), and renaming them to distinct words genuinely removes the
  interference.
* Generation reproduces the conditional co-occurrence statistics of the
  training corpus, so noise injected by direct flattening (engaged-subject
  bias, Challenge II) genuinely distorts the synthetic output.
"""

from __future__ import annotations

import math
import random
from collections import Counter, defaultdict
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.llm.tokenizer import WordTokenizer

#: Probability floor applied before taking logs, shared by every scoring path.
PROBABILITY_FLOOR = 1e-12


def interpolation_weights(config: "ModelConfig") -> list[float]:
    """Normalised per-order interpolation weights, highest order first."""
    order = config.order
    weights = list(config.interpolation)[:order]
    while len(weights) < order:
        weights.append(weights[-1] if weights else 1.0)
    total = sum(weights)
    if total <= 0:
        return [1.0 / order] * order
    return [w / total for w in weights]


def perplexity_from_probabilities(probabilities: np.ndarray) -> float:
    """Per-token perplexity from per-position next-token probabilities.

    Both training engines reduce their scores through this one function, so a
    bit-identical probability vector maps to a bit-identical perplexity.
    """
    if probabilities.size == 0:
        raise ValueError("cannot compute perplexity of an empty corpus")
    log_probs = np.log(np.maximum(probabilities, PROBABILITY_FLOOR))
    return math.exp(-float(log_probs.sum()) / probabilities.size)


@dataclass(frozen=True)
class ModelConfig:
    """Configuration of the n-gram backbone.

    Parameters
    ----------
    order:
        Maximum n-gram order (3 = trigram).  Higher orders memorise longer row
        prefixes; the default keeps sampling fast on CPU.
    smoothing:
        Additive (Lidstone) smoothing mass per vocabulary entry.
    interpolation:
        Per-order interpolation weights, highest order first.  They are
        normalised internally; fewer weights than ``order`` are padded evenly.
    """

    order: int = 3
    smoothing: float = 0.01
    interpolation: tuple[float, ...] = (0.7, 0.2, 0.1)

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if self.smoothing < 0:
            raise ValueError("smoothing must be non-negative")
        if any(w < 0 for w in self.interpolation):
            raise ValueError("interpolation weights must be non-negative")


class NGramLanguageModel:
    """Count-based language model with interpolated additive smoothing."""

    def __init__(self, tokenizer: WordTokenizer, config: ModelConfig | None = None):
        self.tokenizer = tokenizer
        self.config = config or ModelConfig()
        # counts[k] maps a length-k context tuple -> Counter of next-token ids
        self._counts: list[defaultdict] = [
            defaultdict(Counter) for _ in range(self.config.order)
        ]
        self._context_totals: list[defaultdict] = [
            defaultdict(int) for _ in range(self.config.order)
        ]
        self._trained_sentences = 0

    # -- training ---------------------------------------------------------------------

    @property
    def is_trained(self) -> bool:
        return self._trained_sentences > 0

    @property
    def trained_sentences(self) -> int:
        return self._trained_sentences

    def fit(self, corpus: Iterable[str], epochs: int = 1) -> "NGramLanguageModel":
        """Accumulate n-gram counts from a corpus of sentences.

        ``epochs`` repeats the corpus, which mirrors the epochs hyper-parameter
        the paper reports (10 epochs / 5 batches); for a count-based model it
        scales every count equally, so it mainly interacts with smoothing.
        """
        sentences = list(corpus)
        for _ in range(max(1, epochs)):
            for sentence in sentences:
                self._update(self.tokenizer.encode(sentence))
        self._trained_sentences += len(sentences) * max(1, epochs)
        return self

    def _update(self, token_ids: Sequence[int]) -> None:
        order = self.config.order
        for position in range(1, len(token_ids)):
            target = token_ids[position]
            for k in range(order):
                if position - k - 1 < 0 and k > 0:
                    break
                start = max(0, position - k)
                context = tuple(token_ids[start:position]) if k > 0 else ()
                if len(context) != k:
                    continue
                self._counts[k][context][target] += 1
                self._context_totals[k][context] += 1

    # -- probabilities -----------------------------------------------------------------

    def _interpolation_weights(self) -> list[float]:
        return interpolation_weights(self.config)

    def distribution_components(self, context_ids: Sequence[int]) -> tuple[float, list]:
        """Canonical decomposition of the (unnormalised) next-token masses.

        Returns ``(rest, layers)``: *rest* is the baseline mass every
        vocabulary entry receives (all smoothing and unseen-context mass,
        folded analytically instead of being expanded over the vocabulary),
        and *layers* lists, highest order first, ``(counts, scale, total)``
        triples — the live ``Counter`` of next-token counts after that
        order's context, the factor its counts are scaled by, and the stored
        total count of the context (``sum(counts.values())`` without the
        sum).  The mass of token ``t`` is ``rest + sum(counts[t] * scale for
        each layer)`` and the exact normaliser is ``rest * vocab_size +
        sum(total * scale for each layer)``.  Callers must not mutate the
        returned counters.

        This is the hot-path API: generation and batch engines consume the
        components directly, so no full-vocabulary dict is ever materialised
        per sampling step.
        """
        if not self.is_trained:
            raise RuntimeError("the model must be fit() before querying probabilities")
        vocab_size = len(self.tokenizer.vocabulary)
        weights = self._interpolation_weights()
        order = self.config.order
        smoothing = self.config.smoothing
        smoothing_mass = smoothing * vocab_size

        rest = 0.0
        layers: list[tuple[Counter, float, int]] = []
        # highest order first: weights[0] is for the longest context
        for k in range(order - 1, -1, -1):
            context = tuple(context_ids[-k:]) if k > 0 else ()
            if k > 0 and len(context) != k:
                continue
            weight = weights[order - 1 - k]
            total = self._context_totals[k].get(context, 0)
            denom = total + smoothing_mass
            if denom <= 0:
                rest += weight / vocab_size
                continue
            scale = weight / denom
            rest += smoothing * scale
            counts = self._counts[k].get(context)
            if counts:
                layers.append((counts, scale, total))
        return rest, layers

    def next_token_distribution(self, context_ids: Sequence[int]) -> dict[int, float]:
        """Smoothed, normalised distribution over the next token id.

        Materialises the full vocabulary, so it is meant for inspection and
        scoring, not for the sampling hot path — generation goes through
        :meth:`distribution_components`, which keeps the shared rest mass
        analytic.
        """
        rest, layers = self.distribution_components(context_ids)
        vocab_size = len(self.tokenizer.vocabulary)
        bonus: dict[int, float] = defaultdict(float)
        for counts, scale, _ in layers:
            for token_id, count in counts.items():
                bonus[token_id] += count * scale
        total_mass = rest * vocab_size + sum(bonus.values())
        if total_mass <= 0:
            return {token_id: 1.0 / vocab_size for token_id in range(vocab_size)}
        return {
            token_id: (rest + bonus.get(token_id, 0.0)) / total_mass
            for token_id in range(vocab_size)
        }

    def token_probability(self, context_ids: Sequence[int], token_id: int) -> float:
        """Interpolated probability of a single next token given a context.

        Computed in O(order) from :meth:`distribution_components` without
        materialising the distribution — the hot path of guided
        (column-by-column) row sampling.
        """
        rest, layers = self.distribution_components(context_ids)
        probability = rest
        for counts, scale, _ in layers:
            count = counts.get(token_id)
            if count:
                probability += count * scale
        return max(probability, PROBABILITY_FLOOR)

    def score_token_sequence(self, context_ids: Sequence[int], token_ids: Sequence[int]) -> float:
        """Log probability of *token_ids* continuing *context_ids* (natural log)."""
        context = list(context_ids)
        log_prob = 0.0
        for token_id in token_ids:
            window = context[-(self.config.order - 1):] if self.config.order > 1 else []
            log_prob += math.log(self.token_probability(window, token_id))
            context.append(token_id)
        return log_prob

    def _position_probability(self, token_ids: Sequence[int], position: int) -> float:
        """Probability of the token at *position* given its sentence context.

        Uses the stored per-context totals for the normaliser instead of
        re-summing each live counter, so scoring a position costs O(order)
        regardless of how many continuations a context has.
        """
        vocab_size = len(self.tokenizer.vocabulary)
        context = token_ids[max(0, position - self.config.order + 1):position]
        rest, layers = self.distribution_components(context)
        mass = rest
        total_mass = rest * vocab_size
        for counts, scale, total in layers:
            count = counts.get(token_ids[position])
            if count:
                mass += count * scale
            total_mass += total * scale
        return mass / total_mass if total_mass > 0 else 1.0 / vocab_size

    def perplexity(self, corpus: Iterable[str]) -> float:
        """Per-token perplexity of a corpus under the model.

        Each sentence is encoded exactly once and its positions scored
        through :meth:`_position_probability`; the final reduction is shared
        with the compiled scorer (:func:`perplexity_from_probabilities`), so
        both training engines produce bit-identical perplexity traces.
        """
        probabilities: list[float] = []
        for sentence in corpus:
            token_ids = self.tokenizer.encode(sentence)
            probabilities.extend(
                self._position_probability(token_ids, position)
                for position in range(1, len(token_ids))
            )
        return perplexity_from_probabilities(np.asarray(probabilities, dtype=np.float64))

    def _ensure_dict_tables(self) -> None:
        """Hook for array-trained subclasses to materialise the dict tables.

        Anything that walks ``_counts``/``_context_totals`` directly (the
        dict-freezing compiled constructor, incremental ``fit``) calls this
        first; the base model's tables are always live, so this is a no-op.
        """

    # -- compiled view ------------------------------------------------------------------

    def compiled_model(self):
        """Frozen CSR view of the trained counts (see :mod:`repro.llm.compiled`).

        The base implementation freezes the dict tables on every call;
        array-trained models (compiled training engine) override this with a
        cached direct array -> CSR construction.
        """
        from repro.llm.compiled import CompiledNGramModel

        return CompiledNGramModel(self)

    # -- generation ---------------------------------------------------------------------

    def generate_ids(self, rng: random.Random, max_tokens: int = 128,
                     temperature: float = 1.0, top_k: int | None = None,
                     prompt_ids: Sequence[int] | None = None) -> list[int]:
        """Sample a token-id sequence ending at ``<eos>`` or *max_tokens*."""
        if not self.is_trained:
            raise RuntimeError("the model must be fit() before generation")
        vocab = self.tokenizer.vocabulary
        vocab_size = len(vocab)
        generated: list[int] = [vocab.bos_id]
        if prompt_ids:
            generated.extend(prompt_ids)
        for _ in range(max_tokens):
            context = generated[-(self.config.order - 1):] if self.config.order > 1 else []
            rest, layers = self.distribution_components(context)
            masses = np.full(vocab_size, rest)
            for counts, scale, _ in layers:
                ids = np.fromiter(counts.keys(), dtype=np.int64, count=len(counts))
                values = np.fromiter(counts.values(), dtype=np.float64, count=len(counts))
                masses[ids] += values * scale
            masses[vocab.pad_id] = 0.0
            masses[vocab.bos_id] = 0.0
            token_id = _sample_masses(masses, rng, temperature=temperature, top_k=top_k)
            if token_id == vocab.eos_id:
                break
            generated.append(token_id)
        return generated[1:]

    def generate(self, rng: random.Random, max_tokens: int = 128,
                 temperature: float = 1.0, top_k: int | None = None,
                 prompt: str | None = None) -> str:
        """Sample a sentence (optionally continuing a prompt prefix)."""
        prompt_ids = None
        if prompt:
            prompt_ids = self.tokenizer.encode(prompt, add_bos=False, add_eos=False)
        token_ids = self.generate_ids(
            rng, max_tokens=max_tokens, temperature=temperature, top_k=top_k,
            prompt_ids=prompt_ids,
        )
        return self.tokenizer.decode(token_ids)


def _sample_masses(masses: "np.ndarray", rng: random.Random,
                   temperature: float = 1.0, top_k: int | None = None) -> int:
    """Sample a token id from an unnormalised mass vector with temperature / top-k.

    Ties at the top-k boundary are broken deterministically by descending
    mass then ascending token id.  Selection uses ``argpartition`` (O(n))
    rather than a full sort, with the boundary ties resolved explicitly so
    the candidate list is identical to what a stable sort on the negated
    masses would produce — the same kernel shape as the batch engine's
    ``_draw_tokens``, with the legacy tie-break preserved.
    """
    if masses.size == 0:
        raise ValueError("cannot sample from an empty distribution")
    if top_k is not None and 0 < top_k < masses.size:
        partitioned = np.argpartition(-masses, top_k - 1)[:top_k]
        boundary = masses[partitioned].min()
        above = np.flatnonzero(masses > boundary)
        tied = np.flatnonzero(masses == boundary)
        candidate_ids = np.concatenate([above, tied[:top_k - above.size]])
        candidate_masses = masses[candidate_ids]
        # ids are ascending within each mass class, so a stable sort on the
        # negated masses restores the exact legacy candidate order
        order = np.argsort(-candidate_masses, kind="stable")
        candidate_ids = candidate_ids[order]
        candidate_masses = candidate_masses[order]
    else:
        candidate_ids = None
        candidate_masses = masses
    if temperature <= 0:
        best = int(np.argmax(candidate_masses))
        return int(candidate_ids[best]) if candidate_ids is not None else best
    weights = candidate_masses ** (1.0 / temperature)
    total = float(weights.sum())
    if total <= 0:
        chosen = rng.randrange(candidate_masses.size)
        return int(candidate_ids[chosen]) if candidate_ids is not None else chosen
    threshold = rng.random() * total
    cumulative = np.cumsum(weights)
    chosen = int(np.searchsorted(cumulative, threshold, side="left"))
    chosen = min(chosen, candidate_masses.size - 1)
    return int(candidate_ids[chosen]) if candidate_ids is not None else chosen
