"""Compiled (frozen) view of the n-gram backbone.

After :meth:`~repro.llm.ngram_model.NGramLanguageModel.fit` the nested
``dict[context] -> Counter`` tables are append-only no more: sampling only
reads them.  :class:`CompiledNGramModel` freezes them into CSR-style NumPy
arrays — one sorted context-key table per order, a flat token-id/count array
sliced by a row-pointer array, and precomputed smoothing constants — so the
per-token inner loop of generation becomes array lookups instead of nested
dict walks, and whole batches of in-flight sequences can be advanced with a
handful of vectorized operations.

The mass semantics are exactly those of
:meth:`~repro.llm.ngram_model.NGramLanguageModel.distribution_components`:
for every non-skipped order the context contributes a per-token baseline
(``smoothing * weight / denom``, or ``weight / vocab`` for an unseeable
order) folded into a shared *rest* term, plus ``count * scale`` bonuses for
the explicitly counted continuations.  The batch engine relies on the two
implementations producing bit-identical masses, so every arithmetic step
here mirrors the object path operation for operation (same expression
shapes, same highest-order-first accumulation order).
"""

from __future__ import annotations

import numpy as np

from repro.llm.ngram_model import NGramLanguageModel, interpolation_weights

#: Keep packed context keys comfortably inside int64.
_MAX_PACKED_KEY = 2 ** 62


def ngrams_packable(vocab_size: int, order: int) -> bool:
    """Whether every *order*-token n-gram packs into one int64 key.

    The array trainer and the bundle loader need this; when it fails they
    take the dict path (the object trainer, the dict-table rebuild).
    """
    return vocab_size >= 1 and max(vocab_size, 2) ** order < _MAX_PACKED_KEY


class CompiledNGramModel:
    """CSR-style frozen counts of a trained :class:`NGramLanguageModel`.

    Contexts of length ``k`` are packed into a single int64 key
    (most-significant token first, base ``vocab_size``) and looked up with a
    binary search over the sorted key table; each hit yields a slice of the
    flat ``(token_id, count)`` arrays via the row-pointer array.  When the
    vocabulary is too large for packed keys the lookup falls back to a plain
    tuple-keyed dict (correctness over speed; in practice the textual-encoded
    corpora stay far below the packing limit).
    """

    def __init__(self, model: NGramLanguageModel):
        if not model.is_trained:
            raise ValueError("can only compile a trained model")
        model._ensure_dict_tables()  # array-trained models materialise lazily
        self._init_header(model.tokenizer, model.config, model)
        for k in range(1, self.order):
            self._freeze_order(k)
        self._freeze_unigrams()

    def _init_header(self, tokenizer, config, model: NGramLanguageModel | None) -> None:
        """Configuration-derived constants shared by both constructors."""
        self.model = model
        vocabulary = tokenizer.vocabulary
        self.order = config.order
        self.vocab_size = len(vocabulary)
        self.smoothing = config.smoothing
        self.smoothing_mass = self.smoothing * self.vocab_size
        self.weights = interpolation_weights(config)
        self.pad_id = vocabulary.pad_id
        self.bos_id = vocabulary.bos_id
        self.eos_id = vocabulary.eos_id

        self.packed = self.vocab_size ** max(self.order - 1, 1) < _MAX_PACKED_KEY
        # per order k >= 1: sorted context keys, CSR row pointers, flat
        # token/count arrays, per-context totals and row-relative search keys
        self._keys: dict[int, np.ndarray] = {}
        self._row_ptr: dict[int, np.ndarray] = {}
        self._tokens: dict[int, np.ndarray] = {}
        self._counts: dict[int, np.ndarray] = {}
        self._totals: dict[int, np.ndarray] = {}
        self._entry_keys: dict[int, np.ndarray] = {}
        self._powers: dict[int, np.ndarray] = {}
        self._tuple_index: dict[int, dict] = {}

    @classmethod
    def from_counts(cls, counts: "CorpusCounts", tokenizer, config,
                    model: NGramLanguageModel | None = None) -> "CompiledNGramModel":
        """Build the CSR view directly from array-accumulated counts.

        ``counts`` is a :class:`repro.llm.training.CorpusCounts` — per order,
        sorted packed context keys with CSR row pointers over sorted
        ``(token, count)`` entries, exactly the layout ``_freeze_order``
        produces from the dict tables (lexicographic context order equals
        packed-key order; tokens ascend within a context).  This skips the
        intermediate dict sort of the legacy path entirely.
        """
        self = cls.__new__(cls)
        self._init_header(tokenizer, config, model)
        if counts.order != self.order or counts.vocab_size != self.vocab_size:
            raise ValueError("count arrays do not match the model configuration")
        if not self.packed:
            raise ValueError("vocabulary too large for packed count arrays")
        for k in range(1, self.order):
            keys = counts.keys[k]
            row_ptr = counts.row_ptr[k]
            tokens = counts.tokens[k]
            self._keys[k] = keys
            self._row_ptr[k] = row_ptr
            self._tokens[k] = tokens
            self._counts[k] = counts.counts[k].astype(np.float64)
            self._totals[k] = counts.totals[k].astype(np.float64)
            row_of_entry = np.repeat(np.arange(keys.size, dtype=np.int64),
                                     np.diff(row_ptr)) if keys.size else np.empty(0, np.int64)
            self._entry_keys[k] = row_of_entry * self.vocab_size + tokens
            self._powers[k] = (self.vocab_size ** np.arange(k - 1, -1, -1)).astype(np.int64)
        self._tokens0 = counts.tokens0
        self._counts0 = counts.counts0.astype(np.float64)
        self._total0 = float(counts.total0)
        self._finalize_unigrams()
        return self

    def with_count_multiplier(self, multiplier: int) -> "CompiledNGramModel":
        """A view with every stored count scaled by *multiplier*.

        The structure arrays (context keys, row pointers, tokens, entry
        keys) are shared with ``self`` — only the count/total arrays are
        scaled and the unigram smoothing constants recomputed.  Scaling the
        float counts is exact for integer counts below 2**53, so the view is
        bit-identical to compiling *multiplier* repeated corpus passes; the
        fine-tuner uses this for the per-epoch perplexity trace.
        """
        if multiplier == 1:
            return self
        view = object.__new__(type(self))
        view.__dict__.update(self.__dict__)
        view._counts = {k: counts * multiplier for k, counts in self._counts.items()}
        view._totals = {k: totals * multiplier for k, totals in self._totals.items()}
        view._counts0 = self._counts0 * multiplier
        view._total0 = self._total0 * multiplier
        view._finalize_unigrams()
        return view

    # -- freezing ---------------------------------------------------------------------

    def _freeze_order(self, k: int) -> None:
        contexts = self.model._counts[k]
        totals = self.model._context_totals[k]
        items = sorted(contexts.items())  # lexicographic == packed-key order
        n_contexts = len(items)
        keys = np.empty(n_contexts, dtype=np.int64)
        row_ptr = np.zeros(n_contexts + 1, dtype=np.int64)
        token_chunks: list[np.ndarray] = []
        count_chunks: list[np.ndarray] = []
        context_totals = np.empty(n_contexts, dtype=np.float64)
        tuple_index: dict = {}
        for row, (context, counter) in enumerate(items):
            if self.packed:
                key = 0
                for token in context:
                    key = key * self.vocab_size + int(token)
                keys[row] = key
            tuple_index[context] = row
            ordered = sorted(counter.items())
            token_chunks.append(np.fromiter((t for t, _ in ordered), dtype=np.int64,
                                            count=len(ordered)))
            count_chunks.append(np.fromiter((c for _, c in ordered), dtype=np.float64,
                                            count=len(ordered)))
            row_ptr[row + 1] = row_ptr[row] + len(ordered)
            context_totals[row] = float(totals.get(context, 0))
        tokens = np.concatenate(token_chunks) if token_chunks else np.empty(0, np.int64)
        counts = np.concatenate(count_chunks) if count_chunks else np.empty(0, np.float64)
        row_of_entry = np.repeat(np.arange(n_contexts, dtype=np.int64),
                                 np.diff(row_ptr)) if n_contexts else np.empty(0, np.int64)
        self._keys[k] = keys
        self._row_ptr[k] = row_ptr
        self._tokens[k] = tokens
        self._counts[k] = counts
        self._totals[k] = context_totals
        # (row, token) pairs as a single sorted key: rows ascend and tokens
        # ascend within a row, so the concatenation is already sorted.
        self._entry_keys[k] = row_of_entry * self.vocab_size + tokens
        self._powers[k] = (self.vocab_size ** np.arange(k - 1, -1, -1)).astype(np.int64) \
            if self.packed else np.empty(0, np.int64)
        if not self.packed:
            self._tuple_index[k] = tuple_index

    def _freeze_unigrams(self) -> None:
        counter = self.model._counts[0].get((), {})
        ordered = sorted(counter.items())
        self._tokens0 = np.fromiter((t for t, _ in ordered), dtype=np.int64,
                                    count=len(ordered))
        self._counts0 = np.fromiter((c for _, c in ordered), dtype=np.float64,
                                    count=len(ordered))
        self._total0 = float(self.model._context_totals[0].get((), 0))
        self._finalize_unigrams()

    def _finalize_unigrams(self) -> None:
        """Smoothing constants + dense unigram rows from the unigram arrays."""
        weight = self.weights[self.order - 1]
        denom = self._total0 + self.smoothing_mass
        if denom <= 0:
            self._base0 = weight / self.vocab_size
            self._scale0 = 0.0
        else:
            self._scale0 = weight / denom
            self._base0 = self.smoothing * self._scale0
        # dense unigram bonus/count rows, shared by every lane at every step
        self._bonus0 = np.zeros(self.vocab_size, dtype=np.float64)
        self._counts0_dense = np.zeros(self.vocab_size, dtype=np.float64)
        if self._tokens0.size:
            self._bonus0[self._tokens0] = self._counts0 * self._scale0
            self._counts0_dense[self._tokens0] = self._counts0

    # -- lookups ----------------------------------------------------------------------

    def _context_rows(self, k: int, contexts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Row index (and hit mask) of each length-*k* context in *contexts*."""
        if self.packed:
            queries = contexts @ self._powers[k]
            table = self._keys[k]
            if table.size == 0:
                return np.zeros(len(queries), np.int64), np.zeros(len(queries), bool)
            positions = np.searchsorted(table, queries)
            clipped = np.minimum(positions, table.size - 1)
            return clipped, table[clipped] == queries
        index = self._tuple_index.get(k, {})
        rows = np.empty(len(contexts), dtype=np.int64)
        found = np.empty(len(contexts), dtype=bool)
        for i, row_context in enumerate(contexts):
            row = index.get(tuple(int(t) for t in row_context))
            found[i] = row is not None
            rows[i] = row if row is not None else 0
        return rows, found

    def _layer_plan(self, contexts: np.ndarray, lengths: np.ndarray):
        """Shared rest accumulation + per-order lookup plan.

        Returns ``(rest, plans)`` where *rest* is the per-lane baseline mass
        (accumulated highest order first, unigrams last — the same order the
        object path uses) and *plans* lists ``(k, lanes, rows, scales)`` for
        every order with at least one context hit.
        """
        n_lanes = contexts.shape[0]
        width = contexts.shape[1]
        rest = np.zeros(n_lanes, dtype=np.float64)
        all_lanes: np.ndarray | None = None
        plans = []
        for k in range(self.order - 1, 0, -1):
            available = lengths >= k
            if not available.any():
                continue
            if available.all():
                # common case once every lane has a full window: no subsetting
                if all_lanes is None:
                    all_lanes = np.arange(n_lanes)
                lanes = all_lanes
                window = contexts[:, width - k:]
            else:
                lanes = np.flatnonzero(available)
                window = contexts[lanes][:, width - k:]
            rows, found = self._context_rows(k, window)
            if self._totals[k].size:
                totals = np.where(found, self._totals[k][rows], 0.0)
            else:
                # no contexts of this order were ever observed (very short
                # corpora, e.g. single-column tables): every lane misses
                totals = np.zeros(len(rows), dtype=np.float64)
            weight = self.weights[self.order - 1 - k]
            denom = totals + self.smoothing_mass
            positive = denom > 0
            scales = weight / np.where(positive, denom, 1.0)
            contribution = np.where(positive, self.smoothing * scales,
                                    weight / self.vocab_size)
            if lanes is all_lanes:
                rest += contribution
            else:
                rest[lanes] += contribution
            hit = found & positive
            if hit.any():
                plans.append((k, lanes[hit], rows[hit], scales[hit]))
        rest += self._base0
        return rest, plans

    # -- batched mass computation -------------------------------------------------------

    def dense_masses(self, contexts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        """Unnormalised next-token masses, shape ``(n_lanes, vocab_size)``.

        ``contexts`` holds the last ``order - 1`` token ids per lane (right
        aligned); ``lengths`` how many of them are valid.
        """
        n_lanes = contexts.shape[0]
        rest, plans = self._layer_plan(contexts, lengths)
        dense = np.empty((n_lanes, self.vocab_size), dtype=np.float64)
        dense[:] = rest[:, None]
        for k, lanes, rows, scales in plans:
            starts = self._row_ptr[k][rows]
            row_lengths = self._row_ptr[k][rows + 1] - starts
            total = int(row_lengths.sum())
            if total == 0:
                continue
            entry_of = np.repeat(np.arange(len(rows)), row_lengths)
            offsets = np.arange(total, dtype=np.int64) \
                - np.repeat(np.cumsum(row_lengths) - row_lengths, row_lengths) \
                + np.repeat(starts, row_lengths)
            tokens = self._tokens[k][offsets]
            dense[lanes[entry_of], tokens] += self._counts[k][offsets] * scales[entry_of]
        dense += self._bonus0[None, :]
        return dense

    def _target_counts(self, k: int, rows: np.ndarray,
                       targets: int | np.ndarray) -> np.ndarray:
        """Stored count of each ``(context row, target token)`` pair (0 when
        the continuation was never observed), via one binary search over the
        sorted row-relative entry keys."""
        out = np.zeros(rows.size, dtype=np.float64)
        table = self._entry_keys[k]
        if table.size == 0:
            return out
        queries = rows * self.vocab_size + targets
        positions = np.searchsorted(table, queries)
        clipped = np.minimum(positions, table.size - 1)
        hit = table[clipped] == queries
        if hit.any():
            out[hit] = self._counts[k][clipped[hit]]
        return out

    def token_masses(self, contexts: np.ndarray, lengths: np.ndarray,
                     tokens: int | np.ndarray) -> np.ndarray:
        """Unnormalised mass of one next token per lane, shape ``(n_lanes,)``.

        ``tokens`` is either a single token id shared by every lane or an
        array with one target token per lane.  Unobserved continuations add
        exactly 0.0 per layer, which is bitwise-neutral, so no masking is
        needed anywhere.
        """
        per_lane = not np.isscalar(tokens)
        rest, plans = self._layer_plan(contexts, lengths)
        masses = rest.copy()
        for k, lanes, rows, scales in plans:
            targets = np.asarray(tokens)[lanes] if per_lane else tokens
            masses[lanes] += self._target_counts(k, rows, targets) * scales
        counts0 = self._counts0_dense[tokens]
        masses += counts0 * self._scale0
        return masses

    # -- batched corpus scoring ---------------------------------------------------------

    def _position_probabilities(self, contexts: np.ndarray, lengths: np.ndarray,
                                targets: np.ndarray) -> np.ndarray:
        """Probability of one target token per lane, with exact normalisers.

        Mirrors :meth:`NGramLanguageModel._position_probability` operation
        for operation: the same rest accumulation, the same highest-order
        -first bonus/total additions, the same ``total * scale`` normaliser
        terms — so the two training engines score identically, bit for bit.
        """
        rest, plans = self._layer_plan(contexts, lengths)
        masses = rest.copy()
        norms = rest * self.vocab_size
        for k, lanes, rows, scales in plans:
            masses[lanes] += self._target_counts(k, rows, targets[lanes]) * scales
            norms[lanes] += self._totals[k][rows] * scales
        masses += self._counts0_dense[targets] * self._scale0
        norms += self._total0 * self._scale0
        positive = norms > 0
        return np.where(positive, masses / np.where(positive, norms, 1.0),
                        1.0 / self.vocab_size)

    def score_corpus(self, ids: np.ndarray, offsets: np.ndarray,
                     chunk_size: int = 1 << 15) -> np.ndarray:
        """Next-token probability of every scored position of an encoded corpus.

        ``ids``/``offsets`` use the :class:`~repro.llm.tokenizer.EncodedCorpus`
        layout.  Scored positions are ``1 .. len - 1`` of each sentence in
        corpus order — exactly the positions the object path's perplexity
        walks — and the contexts are materialised as right-aligned windows
        over the flat array (stride tricks plus a left pad), masked by the
        per-position context length so windows never cross a sentence start.
        """
        ids = np.asarray(ids, dtype=np.int64)
        offsets = np.asarray(offsets, dtype=np.int64)
        width = self.order - 1
        starts = np.repeat(offsets[:-1], np.diff(offsets))
        positions_in_sentence = np.arange(ids.size, dtype=np.int64) - starts
        scored = np.flatnonzero(positions_in_sentence >= 1)
        probabilities = np.empty(scored.size, dtype=np.float64)
        if width:
            lengths_all = np.minimum(positions_in_sentence[scored], width)
            padded = np.concatenate([np.zeros(width, dtype=np.int64), ids])
            windows = np.lib.stride_tricks.sliding_window_view(padded, width)
        else:
            lengths_all = np.zeros(scored.size, dtype=np.int64)
        for lo in range(0, scored.size, chunk_size):
            hi = min(lo + chunk_size, scored.size)
            chunk = scored[lo:hi]
            contexts = windows[chunk] if width \
                else np.zeros((chunk.size, 0), dtype=np.int64)
            probabilities[lo:hi] = self._position_probabilities(
                contexts, lengths_all[lo:hi], ids[chunk])
        return probabilities
