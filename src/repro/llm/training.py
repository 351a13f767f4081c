"""Compiled training engine: array-based n-gram count accumulation.

The legacy training path walks every sentence token by token, incrementing
nested ``dict[context] -> Counter`` tables — repeated for every epoch and
permutation pass.  This module treats token statistics as an array problem:
the corpus is one flat token-id array (:class:`~repro.llm.tokenizer
.EncodedCorpus`), every order's context occurrences get their suffix-rank
keys (see :mod:`repro.llm.compiled`) from one ``np.unique`` per order, and
the counts fall out of a second ``np.unique(return_counts=True)`` per
order.  A key is bounded by (distinct contexts) * vocabulary size, so any
vocabulary fits int64.  Epoch repetition scales the resulting integer
counts analytically instead of re-looping the corpus.

:class:`CorpusCounts` is the one count layout, shared by the compiled
sampling view and the bundle: CSR rows over the contexts in lexicographic
order, indexed by the sorted suffix-rank keys.  It is built by
:func:`accumulate_counts`, by :meth:`CorpusCounts.from_tables` (bundle
loads) and by :meth:`CorpusCounts.from_dicts` (models trained by the dict
oracle), and unpacked back to token rows by :meth:`CorpusCounts.contexts`
(bundle saves, dict materialisation).
:class:`ArrayTrainedNGramModel` keeps the full
:class:`~repro.llm.ngram_model.NGramLanguageModel` API: any legacy caller
that reaches for the dict tables triggers a one-off, exact materialisation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.llm.compiled import CompiledNGramModel, walk_suffixes
from repro.llm.ngram_model import ModelConfig, NGramLanguageModel
from repro.llm.tokenizer import EncodedCorpus, WordTokenizer


def _unpack(keys: np.ndarray, vocab_size: int, lower: np.ndarray) -> np.ndarray:
    """Token rows of sorted suffix-rank *keys*, in key order.

    *lower* holds the order below's token rows in its key order (one empty
    row below order 1): a key's suffix is the row at ``key // vocab_size``.
    """
    rows = np.empty((keys.size, lower.shape[1] + 1), dtype=np.int64)
    rows[:, 0] = keys % vocab_size
    rows[:, 1:] = lower[keys // vocab_size]
    return rows


_NO_CONTEXT = np.empty((1, 0), dtype=np.int64)


@dataclass(frozen=True)
class CorpusCounts:
    """Integer n-gram counts of one corpus pass, in CSR layout.

    Per context length ``k`` (``1 <= k < order``): ``row_ptr[k]`` holds the
    CSR row pointers over the contexts in lexicographic order, and
    ``tokens[k]``/``counts[k]`` the continuation token ids (ascending
    within each context) with their occurrence counts; ``totals[k]`` is the
    per-context total.  ``keys[k]`` holds the contexts' suffix-rank keys in
    ascending order and ``key_rows[k]`` the CSR row of each.
    ``tokens0``/``counts0``/``total0`` cover the empty (unigram) context.
    All counts are exact integers so epoch repetition is a single scalar
    multiply.
    """

    order: int
    vocab_size: int
    keys: dict
    key_rows: dict
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
            key_rows=self.key_rows,
            row_ptr=self.row_ptr,
            tokens=self.tokens,
            counts={k: counts * multiplier for k, counts in self.counts.items()},
            totals={k: totals * multiplier for k, totals in self.totals.items()},
            tokens0=self.tokens0,
            counts0=self.counts0 * multiplier,
            total0=self.total0 * multiplier,
        )

    def contexts(self) -> dict:
        """Per order ``k``, the ``(n_contexts, k)`` token rows of the CSR rows."""
        out = {}
        lower = _NO_CONTEXT
        for k in range(1, self.order):
            lower = _unpack(self.keys[k], self.vocab_size, lower)
            out[k] = np.empty_like(lower)
            out[k][self.key_rows[k]] = lower
        return out

    @classmethod
    def from_tables(cls, order: int, vocab_size: int, tables: dict,
                    tokens0: np.ndarray, counts0: np.ndarray,
                    total0: int) -> "CorpusCounts":
        """Counts from per-order ``(contexts, row_ptr, tokens, counts,
        totals)`` tables whose context rows ascend lexicographically.

        The arrays are kept as given (a memory-mapped bundle stays mapped);
        only the key index is built.  Raises :class:`ValueError` when an
        order-``k`` context's suffix is not an order-``k - 1`` context, which
        never happens for the counts of a corpus.
        """
        keys: dict = {}
        key_rows: dict = {}
        fields: dict = {"row_ptr": {}, "tokens": {}, "counts": {}, "totals": {}}
        for k in range(1, order):
            contexts, *arrays = tables[k]
            for name, array in zip(fields, arrays):
                fields[name][k] = array
            suffix = np.zeros(contexts.shape[0], dtype=np.int64)
            if k > 1:
                suffix, found = walk_suffixes(keys, contexts[:, 1:], vocab_size)[-1]
                if not found.all():
                    raise ValueError("an order-{} context has no suffix at order {}"
                                     .format(k, k - 1))
            ranked = suffix * vocab_size + contexts[:, 0]
            key_rows[k] = np.argsort(ranked)  # keys are distinct
            keys[k] = ranked[key_rows[k]]
        return cls(order=order, vocab_size=vocab_size, keys=keys, key_rows=key_rows,
                   **fields, tokens0=tokens0, counts0=counts0, total0=int(total0))

    @classmethod
    def from_dicts(cls, model: NGramLanguageModel) -> "CorpusCounts":
        """Freeze the ``dict[context] -> Counter`` tables of a trained model."""
        order = model.config.order
        tables = {}
        for k in range(1, order):
            items = sorted(model._counts[k].items())
            contexts = np.array([context for context, _ in items],
                                dtype=np.int64).reshape(len(items), k)
            entries = [sorted(counter.items()) for _, counter in items]
            row_ptr = np.zeros(len(items) + 1, dtype=np.int64)
            np.cumsum([len(row) for row in entries], out=row_ptr[1:], dtype=np.int64)
            tokens = np.array([t for row in entries for t, _ in row], dtype=np.int64)
            counts = np.array([c for row in entries for _, c in row], dtype=np.int64)
            totals = np.array([model._context_totals[k].get(context, 0)
                               for context, _ in items], dtype=np.int64)
            tables[k] = (contexts, row_ptr, tokens, counts, totals)
        unigrams = sorted(model._counts[0].get((), {}).items())
        return cls.from_tables(
            order, len(model.tokenizer.vocabulary), tables,
            tokens0=np.array([t for t, _ in unigrams], dtype=np.int64),
            counts0=np.array([c for _, c in unigrams], dtype=np.int64),
            total0=model._context_totals[0].get((), 0))


def accumulate_counts(encoded: EncodedCorpus, order: int,
                      vocab_size: int) -> CorpusCounts:
    """One-pass n-gram count accumulation over an encoded corpus.

    Replicates ``NGramLanguageModel._update`` exactly: for every sentence,
    positions ``1 .. len - 1`` contribute a target, and a length-``k``
    context is counted only when it fits strictly after the leading
    ``<bos>`` (the legacy loop's ``position - k - 1 < 0`` break, which keeps
    ``<bos>`` out of every counted context).  Per order, one ``np.unique``
    keys each occurrence's context by its suffix's key position (the
    previous order's, kept per occurrence) and its first token; a second
    one reduces the (lexicographic row, target) pairs to CSR entries.
    """
    ids = np.asarray(encoded.ids, dtype=np.int64)
    offsets = np.asarray(encoded.offsets, dtype=np.int64)
    starts = np.repeat(offsets[:-1], np.diff(offsets))
    positions = np.arange(ids.size, dtype=np.int64) - starts

    fields: dict = {name: {} for name in
                    ("keys", "key_rows", "row_ptr", "tokens", "counts", "totals")}
    targets = np.flatnonzero(positions >= 1)
    suffix = np.zeros(targets.size, dtype=np.int64)  # the empty context's position
    lower = _NO_CONTEXT
    for k in range(1, order):
        # occurrences: windows ids[g - k : g + 1] with the whole window past
        # the sentence's <bos>, i.e. target position >= k + 1
        keep = positions[targets] >= k + 1
        targets, suffix = targets[keep], suffix[keep]
        keys, suffix = np.unique(suffix * vocab_size + ids[targets - k],
                                 return_inverse=True)
        lower = _unpack(keys, vocab_size, lower)
        key_rows = np.empty(keys.size, dtype=np.int64)
        key_rows[np.lexsort(lower.T[::-1])] = np.arange(keys.size)
        entries, entry_counts = np.unique(key_rows[suffix] * vocab_size + ids[targets],
                                          return_counts=True)
        pointers = np.zeros(keys.size + 1, dtype=np.int64)
        np.cumsum(np.bincount(entries // vocab_size, minlength=keys.size),
                  out=pointers[1:])
        fields["keys"][k] = keys
        fields["key_rows"][k] = key_rows
        fields["row_ptr"][k] = pointers
        fields["tokens"][k] = entries % vocab_size
        fields["counts"][k] = entry_counts.astype(np.int64)
        fields["totals"][k] = (np.add.reduceat(fields["counts"][k], pointers[:-1])
                               if keys.size else np.empty(0, dtype=np.int64))

    tokens0, counts0 = np.unique(ids[positions >= 1], return_counts=True)
    return CorpusCounts(
        order=order,
        vocab_size=vocab_size,
        **fields,
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
        contexts = counts.contexts()
        for k in range(1, self.config.order):
            pointers = counts.row_ptr[k].tolist()
            token_lists = counts.tokens[k].tolist()
            count_lists = counts.counts[k].tolist()
            total_list = counts.totals[k].tolist()
            for row, context in enumerate(map(tuple, contexts[k].tolist())):
                lo, hi = pointers[row], pointers[row + 1]
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
