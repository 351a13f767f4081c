"""Batched generation engine.

The legacy sampling path advanced one sequence at a time, walking the n-gram
count dicts once per token.  This module advances *hundreds of in-flight
sequences per step*: one vectorized categorical draw (temperature + top-k via
``argpartition``) across the whole batch per token position, per-sequence EOS
retirement, and vectorized validity-based retry that regenerates only the
rejected lanes.

The per-step mass matrices come from the model's compiled CSR backbone
(:class:`~repro.llm.compiled.CompiledNGramModel`), fully vectorized across
lanes, for every vocabulary size.

:class:`ObjectBackbone` recomputes the same masses by walking the model's
nested ``dict[context] -> Counter`` tables
(:meth:`~repro.llm.ngram_model.NGramLanguageModel.distribution_components`).
It is the reference the tests and ``benchmarks.perf.bench_generation``
compare against: both backbones produce bit-identical mass matrices (same
expression shapes, same accumulation order), and everything downstream of
the masses — RNG stream, temperature/top-k selection, EOS retirement, retry
scheduling — is shared code, so swapping :attr:`BatchGenerationEngine.backbone`
leaves every sampled sequence unchanged.

Guided sampling scores every candidate value of a column per lane, and a
served block revisits the same few (candidate set, context) pairs over and
over.  :meth:`BatchGenerationEngine.score_candidates` therefore memoizes
each lane's log-score row per engine, keyed by the candidate list's
identity and the lane's context row and length — everything the row
depends on.  Misses are computed through the uncached path, so a hit is
bitwise the row a recompute would give.  The oracle backbone is never
memoized: it stays the full recompute the cache is checked against.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Sequence

import numpy as np

from repro.llm.ngram_model import NGramLanguageModel
from repro.llm.sampler import SamplerConfig

#: Probability floor applied before taking logs, matching the legacy
#: ``token_probability`` clamp.
_LOG_FLOOR = 1e-12

#: ``np.random.default_rng`` rejects negative seeds; callers historically
#: passed arbitrary ints to ``random.Random``, so seeds are mapped into the
#: non-negative range before seeding.
SEED_MASK = 2 ** 63 - 1

#: Byte cap of one engine's candidate-score cache.  A fitted bundle needs a
#: few hundred rows; reaching the cap starts a fresh cache.
SCORE_CACHE_BYTES = 4 * 2**20

#: Bytes charged per cached row beyond its payload (dict slot, key object,
#: array header) and per candidate of a newly pinned candidate list.
_ENTRY_OVERHEAD = 200
_CANDIDATE_OVERHEAD = 64


def seeded_rng(seed: int | None) -> np.random.Generator:
    """A deterministic generator for any int seed (negative seeds included)."""
    if seed is None:
        return np.random.default_rng()
    return np.random.default_rng(int(seed) & SEED_MASK)


def derive_seed(seed: int, *path: int) -> int:
    """Deterministic child seed for a named position under *seed*.

    Built on :class:`numpy.random.SeedSequence`, so derived seeds are
    well-spread, platform-independent and a pure function of
    ``(seed, path)``.  This is the determinism primitive behind both the
    serving layer's sharded sampling (blocks of one table request) and the
    schema subsystem's per-table streams — shared here, next to
    :data:`SEED_MASK`, so the two layers can never drift apart.
    """
    sequence = np.random.SeedSequence([int(seed) & SEED_MASK] + [int(p) for p in path])
    return int(sequence.generate_state(1, dtype=np.uint64)[0]) & SEED_MASK


class ObjectBackbone:
    """Per-lane mass computation on the legacy dict-of-Counter tables (the oracle)."""

    def __init__(self, model: NGramLanguageModel):
        self.model = model
        self.vocab_size = len(model.tokenizer.vocabulary)

    def _lane_context(self, contexts: np.ndarray, lengths: np.ndarray, lane: int) -> list[int]:
        length = int(lengths[lane])
        if length == 0:
            return []
        return [int(t) for t in contexts[lane, contexts.shape[1] - length:]]

    def dense_masses(self, contexts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
        n_lanes = contexts.shape[0]
        dense = np.empty((n_lanes, self.vocab_size), dtype=np.float64)
        for lane in range(n_lanes):
            rest, layers = self.model.distribution_components(
                self._lane_context(contexts, lengths, lane))
            row = dense[lane]
            row.fill(rest)
            for counts, scale, _ in layers:
                ids = np.fromiter(counts.keys(), dtype=np.int64, count=len(counts))
                values = np.fromiter(counts.values(), dtype=np.float64, count=len(counts))
                row[ids] += values * scale
        return dense

    def token_masses(self, contexts: np.ndarray, lengths: np.ndarray,
                     tokens: int | np.ndarray) -> np.ndarray:
        per_lane = not np.isscalar(tokens)
        n_lanes = contexts.shape[0]
        masses = np.empty(n_lanes, dtype=np.float64)
        for lane in range(n_lanes):
            token_id = int(tokens[lane]) if per_lane else tokens
            rest, layers = self.model.distribution_components(
                self._lane_context(contexts, lengths, lane))
            mass = rest
            for counts, scale, _ in layers:
                count = counts.get(token_id)
                if count:
                    mass += count * scale
            masses[lane] = mass
        return masses


class BatchGenerationEngine:
    """Advance whole batches of sequences through a trained backbone.

    The engine owns the RNG protocol (a :class:`numpy.random.Generator`, one
    uniform vector per batch step), so a given seed maps to one deterministic
    generation trace regardless of which backbone computes the masses.
    ``backbone`` defaults to the model's compiled CSR freeze; passing (or
    assigning) an :class:`ObjectBackbone` runs the reference computation.
    """

    def __init__(self, model: NGramLanguageModel, config: SamplerConfig | None = None,
                 backbone=None):
        if not model.is_trained:
            raise ValueError("the model must be fit() before building an engine")
        self.model = model
        self.config = config or SamplerConfig()
        self._score_hits = 0
        self._score_misses = 0
        self._score_lock = threading.Lock()
        # array-trained models hand back their cached CSR freeze, so no dict
        # walk (or re-freeze) happens here
        self.backbone = model.compiled_model() if backbone is None else backbone
        self.tokenizer = model.tokenizer
        vocabulary = model.tokenizer.vocabulary
        self._pad_id = vocabulary.pad_id
        self._bos_id = vocabulary.bos_id
        self._eos_id = vocabulary.eos_id
        self._width = model.config.order - 1

    @property
    def backbone(self):
        """The mass computation; assigning one drops the score cache."""
        return self._backbone

    @backbone.setter
    def backbone(self, backbone) -> None:
        with self._score_lock:
            self._backbone = backbone
            self._score_cache = _ScoreCache()

    def score_cache_stats(self) -> dict:
        """``hits`` (lanes answered without computing), ``misses`` (rows
        computed), and the live cache's ``entries`` and ``bytes``."""
        with self._score_lock:
            cache = self._score_cache
            return {"hits": self._score_hits, "misses": self._score_misses,
                    "entries": cache.entries, "bytes": cache.bytes}

    # -- free-text batched generation ---------------------------------------------------

    def generate_ids_batch(self, n: int, prompts: Sequence[Sequence[int]] | None = None,
                           seed: int | None = None,
                           rng: np.random.Generator | None = None,
                           max_lanes: int | None = None) -> list[list[int]]:
        """Sample *n* token-id sequences (prompt included, ``<bos>`` stripped).

        ``prompts`` optionally conditions each lane on a token-id prefix.
        Lanes retire individually when they sample ``<eos>``; every step draws
        one uniform vector across the still-active lanes.  ``max_lanes`` caps
        the engine batch below ``config.batch_lanes`` — the streaming path
        passes its block size so the per-step ``(lanes, vocab)`` mass buffers
        scale with the chunk instead of staying at the configured width.
        """
        sequences: list[list[int]] = []
        for chunk in self.iter_generate_ids_batch(n, prompts=prompts, seed=seed,
                                                  rng=rng, max_lanes=max_lanes):
            sequences.extend(chunk)
        return sequences

    def iter_generate_ids_batch(self, n: int, prompts: Sequence[Sequence[int]] | None = None,
                                seed: int | None = None,
                                rng: np.random.Generator | None = None,
                                max_lanes: int | None = None):
        """Yield the sequences of :meth:`generate_ids_batch` one engine batch
        at a time.

        Lanes retire per batch of ``config.batch_lanes`` (capped by
        ``max_lanes``), so concatenating the yielded chunks reproduces
        ``generate_ids_batch`` at the same cap exactly — the shared RNG
        advances identically — while only one batch of sequences is alive
        at a time.  Arguments are validated eagerly (before the first chunk is
        requested).
        """
        if n <= 0:
            raise ValueError("n must be positive")
        if prompts is not None and len(prompts) != n:
            raise ValueError("prompts must have one entry per requested sequence")
        rng = seeded_rng(seed) if rng is None else rng
        batch = max(1, self.config.batch_lanes)
        if max_lanes is not None:
            batch = max(1, min(batch, int(max_lanes)))

        def chunks():
            for start in range(0, n, batch):
                stop = min(start + batch, n)
                chunk = prompts[start:stop] if prompts is not None else None
                yield self._generate_chunk(stop - start, chunk, rng)
        return chunks()

    def _generate_chunk(self, n_lanes: int, prompts, rng: np.random.Generator) -> list[list[int]]:
        width = self._width
        contexts = np.zeros((n_lanes, max(width, 0)), dtype=np.int64)
        lengths = np.zeros(n_lanes, dtype=np.int64)
        prefixes: list[list[int]] = []
        for lane in range(n_lanes):
            prefix = [self._bos_id] + ([int(t) for t in prompts[lane]] if prompts else [])
            prefixes.append(prefix[1:])
            if width > 0:
                tail = prefix[-width:]
                contexts[lane, width - len(tail):] = tail
                lengths[lane] = len(tail)
        active = np.arange(n_lanes)
        config = self.config
        # generated tokens accumulate into a preallocated matrix — one fancy
        # write per step across the surviving lanes instead of a Python
        # append per lane
        generated = np.empty((n_lanes, config.max_tokens), dtype=np.int64)
        n_generated = np.zeros(n_lanes, dtype=np.int64)
        for _ in range(config.max_tokens):
            if active.size == 0:
                break
            masses = self.backbone.dense_masses(contexts[active], lengths[active])
            masses[:, self._pad_id] = 0.0
            masses[:, self._bos_id] = 0.0
            tokens = _draw_tokens(masses, rng, config.temperature, config.top_k)
            alive = tokens != self._eos_id
            kept = active[alive]
            kept_tokens = tokens[alive]
            if kept.size:
                generated[kept, n_generated[kept]] = kept_tokens
                n_generated[kept] += 1
                if width > 0:
                    rows = contexts[kept]
                    rows[:, :-1] = rows[:, 1:]
                    rows[:, -1] = kept_tokens
                    contexts[kept] = rows
                    lengths[kept] = np.minimum(lengths[kept] + 1, width)
            active = kept
        counts = n_generated.tolist()
        return [prefix + generated[lane, :counts[lane]].tolist()
                for lane, prefix in enumerate(prefixes)]

    def generate_sentences(self, n: int, prompts: Sequence[Sequence[int]] | None = None,
                           seed: int | None = None,
                           rng: np.random.Generator | None = None) -> list[str]:
        """Sample *n* decoded sentences."""
        return self.tokenizer.decode_batch(
            self.generate_ids_batch(n, prompts=prompts, seed=seed, rng=rng))

    def generate_valid(self, n: int, is_valid: Callable[[str], bool],
                       prompts: Sequence[Sequence[int]] | None = None,
                       seed: int | None = None,
                       max_lanes: int | None = None) -> list[str | None]:
        """Sample *n* sentences, regenerating only the lanes *is_valid* rejects.

        Each retry round re-batches the still-invalid lanes; lanes that never
        produce a valid sentence within ``max_retries`` rounds come back as
        ``None`` (callers decide whether to fall back, as in GReaT).
        """
        if n <= 0:
            raise ValueError("n must be positive")
        rng = seeded_rng(seed)
        results: list[str | None] = [None] * n
        pending = list(range(n))
        for _ in range(self.config.max_retries):
            if not pending:
                break
            sub_prompts = [prompts[i] for i in pending] if prompts is not None else None
            batches = self.generate_ids_batch(len(pending), prompts=sub_prompts, rng=rng,
                                              max_lanes=max_lanes)
            sentences = self.tokenizer.decode_batch(batches)
            still_pending: list[int] = []
            for slot, lane in enumerate(pending):
                sentence = sentences[slot]
                if is_valid(sentence):
                    results[lane] = sentence
                else:
                    still_pending.append(lane)
            pending = still_pending
        return results

    # -- guided batched generation ------------------------------------------------------

    def guided_session(self, n_lanes: int, seed: int | None = None,
                       rng: np.random.Generator | None = None) -> "GuidedBatchSession":
        """Open a batched guided-sampling session over *n_lanes* sequences."""
        rng = seeded_rng(seed) if rng is None else rng
        return GuidedBatchSession(self, n_lanes, rng)

    def score_candidates(self, contexts: np.ndarray, lengths: np.ndarray,
                         token_lists: Sequence[Sequence[int]]) -> np.ndarray:
        """:meth:`_score_candidates`, memoized per (candidate list, context row).

        The key is the identity of *token_lists* (the list is held by the
        cache, so its ``id`` cannot be reused) plus each lane's context row
        and length.  Rows missing from the cache are computed for their
        distinct keys in one stacked uncached call.  Lookups take no lock:
        the result is built from the rows held locally, and inserts and
        evictions (under ``_score_lock``) never mutate a row table a reader
        could be holding except by adding keys.
        """
        if isinstance(self._backbone, ObjectBackbone):
            return self._score_candidates(contexts, lengths, token_lists)
        n_lanes = contexts.shape[0]
        keyed = np.empty((n_lanes, contexts.shape[1] + 1), dtype=np.int64)
        keyed[:, :-1] = contexts
        keyed[:, -1] = lengths
        blob = keyed.tobytes()
        step = keyed.shape[1] * 8
        keys = [blob[lane * step:(lane + 1) * step] for lane in range(n_lanes)]
        cache = self._score_cache
        pinned = cache.sets.get(id(token_lists))
        known = pinned[1] if pinned is not None and pinned[0] is token_lists else {}
        rows = [known.get(key) for key in keys]
        missing: dict[bytes, int] = {}
        for lane, row in enumerate(rows):
            if row is None and keys[lane] not in missing:
                missing[keys[lane]] = lane
        if missing:
            lanes = np.fromiter(missing.values(), dtype=np.int64, count=len(missing))
            computed = self._score_candidates(contexts[lanes], lengths[lanes], token_lists)
            fresh = dict(zip(missing, computed))
            rows = [fresh[key] if row is None else row for key, row in zip(keys, rows)]
        with self._score_lock:
            self._score_hits += n_lanes - len(missing)
            self._score_misses += len(missing)
            if missing:
                self._insert_scores(token_lists, fresh,
                                    computed.shape[1] * 8 + step + _ENTRY_OVERHEAD)
        return np.stack(rows)

    def _insert_scores(self, token_lists: Sequence, fresh: dict, row_bytes: int) -> None:
        """Add the *fresh* rows not cached yet (caller holds ``_score_lock``).

        A full cache is replaced, never cleared, so lock-free readers keep
        the one they hold.
        """
        cache = self._score_cache
        if cache.bytes + len(fresh) * row_bytes > SCORE_CACHE_BYTES:
            cache = self._score_cache = _ScoreCache()
        known = cache.rows_for(token_lists)
        new = {key: row for key, row in fresh.items() if key not in known}
        size = len(new) * row_bytes
        if cache.bytes + size <= SCORE_CACHE_BYTES:
            known.update(new)
            cache.entries += len(new)
            cache.bytes += size

    def _score_candidates(self, contexts: np.ndarray, lengths: np.ndarray,
                          token_lists: Sequence[Sequence[int]]) -> np.ndarray:
        """Log score of each candidate token sequence per lane, shape (lanes, candidates).

        The first token of every candidate is scored from one dense mass
        matrix; longer candidates extend a simulated context and gather the
        single target-token mass per additional position.
        """
        dense = self.backbone.dense_masses(contexts, lengths)
        first = np.fromiter((tokens[0] for tokens in token_lists), dtype=np.int64,
                            count=len(token_lists))
        scores = np.log(np.maximum(dense[:, first], _LOG_FLOOR))
        max_len = max(len(tokens) for tokens in token_lists)
        if max_len == 1:
            return scores
        # longer candidates: advance one simulated context per candidate and
        # score every candidate's position-p token in a single stacked call
        n_lanes = contexts.shape[0]
        multi = [c for c, tokens in enumerate(token_lists) if len(tokens) > 1]
        simulated = {c: (contexts.copy(), lengths.copy()) for c in multi}
        for position in range(1, max_len):
            live = [c for c in multi if len(token_lists[c]) > position]
            if not live:
                break
            for c in live:
                sim_contexts, sim_lengths = simulated[c]
                _advance_shared(sim_contexts, sim_lengths,
                                int(token_lists[c][position - 1]))
            stacked_contexts = np.concatenate([simulated[c][0] for c in live])
            stacked_lengths = np.concatenate([simulated[c][1] for c in live])
            stacked_tokens = np.concatenate([
                np.full(n_lanes, int(token_lists[c][position]), dtype=np.int64)
                for c in live
            ])
            masses = self.backbone.token_masses(stacked_contexts, stacked_lengths,
                                                 stacked_tokens)
            log_masses = np.log(np.maximum(masses, _LOG_FLOOR))
            for slot, c in enumerate(live):
                scores[:, c] += log_masses[slot * n_lanes:(slot + 1) * n_lanes]
        return scores


class _ScoreCache:
    """One generation of an engine's candidate-score cache.

    ``sets`` maps ``id(token_lists)`` to ``(token_lists, rows)``, where
    ``rows`` maps a lane's context-row-and-length bytes to its log-score
    row.  ``entries`` and ``bytes`` are bookkeeping for the cap.
    """

    __slots__ = ("sets", "entries", "bytes")

    def __init__(self):
        self.sets: dict[int, tuple[Sequence, dict[bytes, np.ndarray]]] = {}
        self.entries = 0
        self.bytes = 0

    def rows_for(self, token_lists: Sequence) -> dict[bytes, np.ndarray]:
        """The row table of *token_lists*, pinning the list on first sight
        (callers hold the engine's ``_score_lock``)."""
        pinned = self.sets.get(id(token_lists))
        if pinned is None or pinned[0] is not token_lists:
            pinned = (token_lists, {})
            self.sets[id(token_lists)] = pinned
            self.bytes += _CANDIDATE_OVERHEAD * len(token_lists)
        return pinned[1]


class GuidedBatchSession:
    """Column-by-column batched row sampling against a shared context buffer.

    Mirrors the legacy guided strategy: the per-lane context accumulates
    ``<bos>``, the structural 'Column:' tokens, and each chosen value, and
    every :meth:`choose` call scores all candidate values for all lanes and
    resolves them with a single vectorized softmax draw.
    """

    def __init__(self, engine: BatchGenerationEngine, n_lanes: int,
                 rng: np.random.Generator):
        if n_lanes <= 0:
            raise ValueError("n_lanes must be positive")
        self._engine = engine
        self._rng = rng
        width = engine._width
        self.n_lanes = n_lanes
        self.contexts = np.zeros((n_lanes, max(width, 0)), dtype=np.int64)
        self.lengths = np.zeros(n_lanes, dtype=np.int64)
        self.extend_shared([engine._bos_id])

    def extend_shared(self, token_ids: Sequence[int]) -> None:
        """Append the same token sequence to every lane's context."""
        width = self._engine._width
        count = len(token_ids)
        if width == 0 or count == 0:
            return
        if count >= width:
            self.contexts[:] = np.asarray(token_ids[-width:], dtype=np.int64)
            self.lengths[:] = width
            return
        self.contexts[:, :width - count] = self.contexts[:, count:]
        self.contexts[:, width - count:] = np.asarray(token_ids, dtype=np.int64)
        self.lengths = np.minimum(self.lengths + count, width)

    def extend_rows(self, token_lists: Sequence[Sequence[int]]) -> None:
        """Append a (possibly different) token sequence per lane.

        Lanes sharing a sequence are advanced together, so the cost scales
        with the number of *distinct* sequences, not the batch size.
        """
        if len(token_lists) != self.n_lanes:
            raise ValueError("token_lists must have one entry per lane")
        width = self._engine._width
        if width == 0:
            return
        lengths = {len(tokens) for tokens in token_lists}
        if len(lengths) == 1:
            # uniform-length fast path: one shift for the whole batch
            count = lengths.pop()
            if count == 0:
                return
            block = np.asarray(token_lists, dtype=np.int64)
            if count >= width:
                self.contexts[:] = block[:, count - width:]
                self.lengths[:] = width
                return
            self.contexts[:, :width - count] = self.contexts[:, count:]
            self.contexts[:, width - count:] = block
            self.lengths = np.minimum(self.lengths + count, width)
            return
        groups: dict[tuple, list[int]] = {}
        for lane, tokens in enumerate(token_lists):
            groups.setdefault(tuple(tokens), []).append(lane)
        for tokens, lanes in groups.items():
            count = len(tokens)
            if count == 0:
                continue
            rows = np.asarray(lanes)
            if count >= width:
                self.contexts[rows] = np.asarray(tokens[-width:], dtype=np.int64)
                self.lengths[rows] = width
                continue
            block = self.contexts[rows]
            block[:, :width - count] = block[:, count:]
            block[:, width - count:] = np.asarray(tokens, dtype=np.int64)
            self.contexts[rows] = block
            self.lengths[rows] = np.minimum(self.lengths[rows] + count, width)

    def choose(self, token_lists: Sequence[Sequence[int]],
               temperature: float | None = None) -> np.ndarray:
        """Score the candidates for every lane and draw one index per lane."""
        if not token_lists:
            raise ValueError("choose() needs at least one candidate")
        if any(len(tokens) == 0 for tokens in token_lists):
            raise ValueError("candidate token sequences must be non-empty")
        if len(token_lists) == 1:
            return np.zeros(self.n_lanes, dtype=np.int64)
        if temperature is None:
            temperature = self._engine.config.temperature
        scores = self._engine.score_candidates(self.contexts, self.lengths, token_lists)
        return _choose_indices(scores, self._rng, temperature)


# -- shared vectorized selection (independent of the backbone) -------------------------

def _draw_tokens(masses: np.ndarray, rng: np.random.Generator,
                 temperature: float, top_k: int | None) -> np.ndarray:
    """One categorical draw per lane from unnormalised masses."""
    n_lanes, vocab_size = masses.shape
    if top_k is not None and 0 < top_k < vocab_size:
        selected = np.argpartition(masses, vocab_size - top_k, axis=1)[:, vocab_size - top_k:]
        candidates = np.take_along_axis(masses, selected, axis=1)
    else:
        selected = None
        candidates = masses
    n_candidates = candidates.shape[1]
    if temperature <= 0:
        picks = np.argmax(candidates, axis=1)
    else:
        weights = candidates ** (1.0 / temperature)
        totals = weights.sum(axis=1)
        uniforms = rng.random(n_lanes)
        thresholds = uniforms * totals
        cumulative = np.cumsum(weights, axis=1)
        picks = np.minimum((cumulative < thresholds[:, None]).sum(axis=1), n_candidates - 1)
        dead = totals <= 0
        if dead.any():  # nothing sampleable: fall back to a uniform pick
            picks[dead] = np.minimum((uniforms[dead] * n_candidates).astype(np.int64),
                                     n_candidates - 1)
    if selected is not None:
        return selected[np.arange(n_lanes), picks]
    return picks


def _choose_indices(scores: np.ndarray, rng: np.random.Generator,
                    temperature: float) -> np.ndarray:
    """Softmax draw over per-lane candidate log scores (guided sampling)."""
    temperature = max(temperature, 1e-6)
    peak = scores.max(axis=1)
    weights = np.exp((scores - peak[:, None]) / temperature)
    totals = weights.sum(axis=1)
    thresholds = rng.random(scores.shape[0]) * totals
    cumulative = np.cumsum(weights, axis=1)
    return np.minimum((cumulative < thresholds[:, None]).sum(axis=1), scores.shape[1] - 1)


def _advance_shared(contexts: np.ndarray, lengths: np.ndarray, token_id: int) -> None:
    """Shift every lane's context left by one and append *token_id* (in place)."""
    if contexts.shape[1] == 0:
        return
    contexts[:, :-1] = contexts[:, 1:]
    contexts[:, -1] = token_id
    np.minimum(lengths + 1, contexts.shape[1], out=lengths)
