"""Compiled training engine: array-based n-gram count accumulation.

The legacy training path walks every sentence token by token, incrementing
nested ``dict[context] -> Counter`` tables — repeated for every epoch and
permutation pass.  This module treats token statistics as an array problem:
the corpus is one flat token-id array (:class:`~repro.llm.tokenizer
.EncodedCorpus`), every order's n-gram occurrences are packed into int64
keys with a handful of vectorized shifts, and the counts fall out of a
single ``sort + np.unique(return_counts=True)`` reduction per order.  Epoch
repetition scales the resulting integer counts analytically instead of
re-looping the corpus.

The reduction directly emits the sorted CSR layout
:class:`~repro.llm.compiled.CompiledNGramModel` uses (packed context keys
ascend, tokens ascend within a context), so the compiled sampling view is
constructed from the arrays without ever materialising the dict tables.
:class:`ArrayTrainedNGramModel` keeps the full
:class:`~repro.llm.ngram_model.NGramLanguageModel` API: any legacy caller
that reaches for the dict tables triggers a one-off, exact materialisation.

:class:`~repro.llm.finetune.FineTuner` runs this path and falls back to the
legacy object trainer only when the vocabulary is too large to pack
(:func:`accumulate_counts` returns ``None``).  Both produce bit-identical
counts, vocabulary ids and perplexity traces, hence identical synthetic
tables for identical seeds.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.llm.compiled import CompiledNGramModel, ngrams_packable
from repro.llm.ngram_model import ModelConfig, NGramLanguageModel
from repro.llm.tokenizer import EncodedCorpus, WordTokenizer

@dataclass(frozen=True)
class CorpusCounts:
    """Integer n-gram counts of one corpus pass, in sorted CSR layout.

    Per context length ``k`` (``1 <= k < order``): ``keys[k]`` holds the
    packed context keys in ascending order, ``row_ptr[k]`` the CSR row
    pointers, and ``tokens[k]``/``counts[k]`` the continuation token ids
    (ascending within each context) with their occurrence counts;
    ``totals[k]`` is the per-context total.  ``tokens0``/``counts0``/
    ``total0`` cover the empty (unigram) context.  All counts are exact
    integers so epoch repetition is a single scalar multiply.
    """

    order: int
    vocab_size: int
    keys: dict
    row_ptr: dict
    tokens: dict
    counts: dict
    totals: dict
    tokens0: np.ndarray
    counts0: np.ndarray
    total0: int

    def scaled(self, multiplier: int) -> "CorpusCounts":
        """Counts after *multiplier* identical passes over the corpus."""
        if multiplier == 1:
            return self
        return CorpusCounts(
            order=self.order,
            vocab_size=self.vocab_size,
            keys=self.keys,
            row_ptr=self.row_ptr,
            tokens=self.tokens,
            counts={k: counts * multiplier for k, counts in self.counts.items()},
            totals={k: totals * multiplier for k, totals in self.totals.items()},
            tokens0=self.tokens0,
            counts0=self.counts0 * multiplier,
            total0=self.total0 * multiplier,
        )


def accumulate_counts(encoded: EncodedCorpus, order: int,
                      vocab_size: int) -> CorpusCounts | None:
    """One-pass n-gram count accumulation over an encoded corpus.

    Replicates ``NGramLanguageModel._update`` exactly: for every sentence,
    positions ``1 .. len - 1`` contribute a target, and a length-``k``
    context is counted only when it fits strictly after the leading
    ``<bos>`` (the legacy loop's ``position - k - 1 < 0`` break, which keeps
    ``<bos>`` out of every counted context).  Contexts and targets are
    packed together into one int64 key per occurrence and reduced with
    ``np.unique``.  Returns ``None`` when the vocabulary is too large to
    pack ``order`` tokens into an int64 (callers fall back to the dict
    path — correctness over speed, as with the compiled sampler).
    """
    if not ngrams_packable(vocab_size, order):
        return None
    ids = np.asarray(encoded.ids, dtype=np.int64)
    offsets = np.asarray(encoded.offsets, dtype=np.int64)
    n = ids.size
    starts = np.repeat(offsets[:-1], np.diff(offsets))
    positions = np.arange(n, dtype=np.int64) - starts

    keys: dict = {}
    row_ptr: dict = {}
    tokens: dict = {}
    counts: dict = {}
    totals: dict = {}
    for k in range(1, order):
        # occurrences: windows ids[g - k : g + 1] with the whole window past
        # the sentence's <bos>, i.e. target position >= k + 1
        if n > k:
            valid = positions[k:] >= k + 1
            packed = ids[:n - k][valid]
            for j in range(1, k + 1):
                packed = packed * vocab_size + ids[j:n - k + j][valid]
        else:
            packed = np.empty(0, dtype=np.int64)
        entry_keys, entry_counts = np.unique(packed, return_counts=True)
        context_of_entry = entry_keys // vocab_size
        context_keys, context_sizes = np.unique(context_of_entry, return_counts=True)
        pointers = np.zeros(context_keys.size + 1, dtype=np.int64)
        np.cumsum(context_sizes, out=pointers[1:])
        keys[k] = context_keys
        row_ptr[k] = pointers
        tokens[k] = entry_keys % vocab_size
        counts[k] = entry_counts.astype(np.int64)
        totals[k] = (np.add.reduceat(entry_counts, pointers[:-1]).astype(np.int64)
                     if context_keys.size else np.empty(0, dtype=np.int64))

    targets = ids[positions >= 1]
    tokens0, counts0 = np.unique(targets, return_counts=True)
    return CorpusCounts(
        order=order,
        vocab_size=vocab_size,
        keys=keys,
        row_ptr=row_ptr,
        tokens=tokens,
        counts=counts,
        totals=totals,
        tokens0=tokens0,
        counts0=counts0.astype(np.int64),
        total0=int(counts0.sum()),
    )


class ArrayTrainedNGramModel(NGramLanguageModel):
    """A model trained by the compiled engine.

    Holds the epoch-scaled :class:`CorpusCounts` and hands the batch engines
    a cached, directly constructed
    :class:`~repro.llm.compiled.CompiledNGramModel`.  The legacy dict tables
    are materialised lazily — only when a caller actually walks them (the
    object generation backbone, per-row guided sampling, further ``fit``
    calls) — and are exactly equal to what dict-based training would have
    produced.
    """

    def __init__(self, tokenizer: WordTokenizer, config: ModelConfig,
                 counts: CorpusCounts, trained_sentences: int):
        super().__init__(tokenizer, config)
        self._array_counts: CorpusCounts | None = counts
        self._trained_sentences = trained_sentences
        self._dicts_ready = False
        self._compiled: CompiledNGramModel | None = None

    # -- compiled view -----------------------------------------------------------------

    def compiled_model(self) -> CompiledNGramModel:
        if self._compiled is None:
            if self._array_counts is not None:
                self._compiled = CompiledNGramModel.from_counts(
                    self._array_counts, self.tokenizer, self.config, model=self)
            else:  # re-trained after construction: freeze the dict tables
                return super().compiled_model()
        return self._compiled

    # -- lazy dict materialisation -----------------------------------------------------

    def _materialize_dicts(self) -> None:
        counts = self._array_counts
        vocab_size = counts.vocab_size
        for k in range(1, self.config.order):
            keys = counts.keys[k]
            if not keys.size:
                continue
            pointers = counts.row_ptr[k]
            token_lists = counts.tokens[k].tolist()
            count_lists = counts.counts[k].tolist()
            total_list = counts.totals[k].tolist()
            digits = np.empty((keys.size, k), dtype=np.int64)
            remainder = keys.copy()
            for j in range(k - 1, -1, -1):
                digits[:, j] = remainder % vocab_size
                remainder //= vocab_size
            digit_rows = digits.tolist()
            for row in range(keys.size):
                context = tuple(digit_rows[row])
                lo, hi = int(pointers[row]), int(pointers[row + 1])
                self._counts[k][context] = Counter(
                    dict(zip(token_lists[lo:hi], count_lists[lo:hi])))
                self._context_totals[k][context] = total_list[row]
        if counts.tokens0.size:
            self._counts[0][()] = Counter(
                dict(zip(counts.tokens0.tolist(), counts.counts0.tolist())))
            self._context_totals[0][()] = int(counts.total0)
        self._dicts_ready = True

    def _ensure_dict_tables(self) -> None:
        if not self._dicts_ready and self._array_counts is not None:
            self._materialize_dicts()

    def distribution_components(self, context_ids):
        self._ensure_dict_tables()
        return super().distribution_components(context_ids)

    def fit(self, corpus, epochs: int = 1):
        # incremental re-training falls back to the dict tables: materialise
        # them first so the update lands on the full state, and drop the
        # array/compiled views, which would otherwise go stale
        self._ensure_dict_tables()
        self._array_counts = None
        self._compiled = None
        return super().fit(corpus, epochs=epochs)
