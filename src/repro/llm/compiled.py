"""Compiled (frozen) view of the n-gram backbone.

After :meth:`~repro.llm.ngram_model.NGramLanguageModel.fit` the nested
``dict[context] -> Counter`` tables are append-only no more: sampling only
reads them.  :class:`CompiledNGramModel` holds them as CSR-style NumPy
arrays — per order, a flat token-id/count array sliced by a row-pointer
array over the contexts in lexicographic order, a sorted context-key index
into those rows, and precomputed smoothing constants — so the per-token
inner loop of generation becomes array lookups instead of nested dict
walks, and whole batches of in-flight sequences can be advanced with a
handful of vectorized operations.

Context keys follow a reversed context trie (Pauls & Klein, "Faster and
Smaller N-Gram Language Models", ACL 2011): a length-``k`` context
``(c_0, ..., c_{k-1})`` is keyed ``position of (c_1, ..., c_{k-1}) among
the sorted order-``k-1`` keys * vocab_size + c_0``.  A key is bounded by
(distinct contexts) * vocab_size, so it fits int64 for any vocabulary, and
:func:`walk_suffixes` finds every order's row of a window with one binary
search per order, reusing the previous order's position.  The walk is exact
because the counted contexts are closed under suffix: the (k-1)-suffix of a
counted k-context is counted too, as the context of the same target.

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


def walk_suffixes(keys: dict, contexts: np.ndarray,
                  vocab_size: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Key position (and hit mask) of every suffix of each context row.

    *contexts* is ``(n, width)``, right aligned; *keys* maps each order to
    its sorted suffix-rank keys.  Entry ``k - 1`` of the result holds, for
    the last ``k`` tokens of every row, the position in ``keys[k]`` and
    whether the context is there; a row misses at ``k`` once it missed at
    any lower order.
    """
    n, width = contexts.shape
    positions = np.zeros(n, dtype=np.int64)
    found = np.ones(n, dtype=bool)
    walk = []
    for k in range(1, width + 1):
        table = keys[k]
        if table.size == 0:
            positions = np.zeros(n, dtype=np.int64)
            found = np.zeros(n, dtype=bool)
        else:
            queries = positions * vocab_size + contexts[:, width - k]
            positions = np.minimum(np.searchsorted(table, queries), table.size - 1)
            found = found & (table[positions] == queries)
        walk.append((positions, found))
    return walk


class CompiledNGramModel:
    """CSR-style frozen counts of a trained :class:`NGramLanguageModel`.

    Per order ``k``, ``_keys[k]`` holds the sorted suffix-rank context keys
    and ``_key_rows[k]`` the CSR row of each; a hit yields a slice of the
    flat ``(token_id, count)`` arrays via the row-pointer array.
    """

    def __init__(self, model: NGramLanguageModel):
        from repro.llm.training import CorpusCounts  # training builds on this module

        if not model.is_trained:
            raise ValueError("can only compile a trained model")
        model._ensure_dict_tables()  # array-trained models materialise lazily
        self._init(CorpusCounts.from_dicts(model), model.tokenizer, model.config, model)

    def _init(self, counts: "CorpusCounts", tokenizer, config,
              model: NGramLanguageModel | None) -> None:
        """Configuration-derived constants plus the count arrays."""
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
        if counts.order != self.order or counts.vocab_size != self.vocab_size:
            raise ValueError("count arrays do not match the model configuration")
        # per order k >= 1: sorted context keys and their rows, CSR row
        # pointers, flat token/count arrays, per-context totals and
        # row-relative search keys
        self._keys = counts.keys
        self._key_rows = counts.key_rows
        self._row_ptr = counts.row_ptr
        self._tokens = counts.tokens
        self._counts: dict[int, np.ndarray] = {}
        self._totals: dict[int, np.ndarray] = {}
        self._entry_keys: dict[int, np.ndarray] = {}
        for k in range(1, self.order):
            row_ptr = counts.row_ptr[k]
            self._counts[k] = counts.counts[k].astype(np.float64)
            self._totals[k] = counts.totals[k].astype(np.float64)
            row_of_entry = np.repeat(np.arange(row_ptr.size - 1, dtype=np.int64),
                                     np.diff(row_ptr))
            # (row, token) pairs as a single sorted key: rows ascend and
            # tokens ascend within a row, so the concatenation is sorted
            self._entry_keys[k] = row_of_entry * self.vocab_size + counts.tokens[k]
        self._tokens0 = counts.tokens0
        self._counts0 = counts.counts0.astype(np.float64)
        self._total0 = float(counts.total0)
        self._finalize_unigrams()

    @classmethod
    def from_counts(cls, counts: "CorpusCounts", tokenizer, config,
                    model: NGramLanguageModel | None = None) -> "CompiledNGramModel":
        """Build the CSR view directly from array-accumulated counts.

        ``counts`` is a :class:`repro.llm.training.CorpusCounts`, already in
        this class's layout, so no dict table is ever walked.
        """
        self = cls.__new__(cls)
        self._init(counts, tokenizer, config, model)
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

    def _layer_plan(self, contexts: np.ndarray, lengths: np.ndarray):
        """Shared rest accumulation + per-order lookup plan.

        Returns ``(rest, plans)`` where *rest* is the per-lane baseline mass
        (accumulated highest order first, unigrams last — the same order the
        object path uses) and *plans* lists ``(k, lanes, rows, scales)`` for
        every order with at least one context hit.
        """
        n_lanes = contexts.shape[0]
        width = contexts.shape[1]
        top = min(self.order - 1, width, int(lengths.max(initial=0)))
        walk = walk_suffixes(self._keys, contexts[:, width - top:], self.vocab_size)
        rest = np.zeros(n_lanes, dtype=np.float64)
        all_lanes = np.arange(n_lanes)
        plans = []
        for k in range(top, 0, -1):
            positions, found = walk[k - 1]
            available = lengths >= k
            if available.all():
                # common case once every lane has a full window: no subsetting
                lanes = all_lanes
            else:
                lanes = np.flatnonzero(available)
                positions, found = positions[lanes], found[lanes]
            if self._keys[k].size:
                rows = self._key_rows[k][positions]
                totals = np.where(found, self._totals[k][rows], 0.0)
            else:
                # no contexts of this order were ever observed (very short
                # corpora, e.g. single-column tables): every lane misses
                rows = positions
                totals = np.zeros(len(lanes), dtype=np.float64)
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
