"""Per-layer instrumentation: spans around calls into each module's public functions.

:class:`Instrumentation` swaps a fixed set of functions and methods of the
program for wrappers that open a ``repro.obs.trace`` span around the
original call, and swaps them back on :meth:`~Instrumentation.uninstall`.
The spans ride the program's own tracer, so they nest under the spans the
program already emits (``server.request``, ``worker.task``,
``stage.generate`` ...) and cross the worker-process boundary with them.
Nothing under ``src/`` changes; while the tracer is disarmed a wrapper
costs one extra call.

A wrapped function is patched where its callers look it up: a function
imported by name into another module is replaced in that module.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json

import numpy as np

from repro.obs import trace as obs

#: in-memory trace sink of a traced run: spans stay in memory until the end
RING_SPEC = "ring:2000000"


def _timed(name: str, describe=None):
    """Wrap a function so each call is one span called *name*.

    *describe(span, args, result)* may add attributes after the call.
    """
    def factory(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with obs.span(name) as span:
                result = fn(*args, **kwargs)
                if describe is not None and span is not obs.NULL_SPAN:
                    describe(span, args, result)
                return result
        return wrapper
    return factory


def lane_keys(contexts: np.ndarray, lengths: np.ndarray, token_lists) -> list[int]:
    """The distinct (candidate set, context row, length) keys of one ``choose``.

    These are exactly the inputs ``_score_candidates`` depends on, so the
    number of distinct keys over a window of calls is the number of rows a
    score cache would have to compute.  Keys are 64-bit hashes.
    """
    candidates = hashlib.blake2b(
        repr([tuple(int(t) for t in tokens) for tokens in token_lists]).encode(),
        digest_size=8).digest()
    rows = np.unique(np.concatenate(
        [np.asarray(contexts, dtype=np.int64),
         np.asarray(lengths, dtype=np.int64)[:, None]], axis=1), axis=0)
    return [int.from_bytes(hashlib.blake2b(candidates + row.tobytes(),
                                           digest_size=8).digest(), "little")
            for row in rows]


def _choose(fn):
    """``GuidedBatchSession.choose``: lanes scored and their keys per call.

    Keys are hashed before the span opens, so ``engine.choose`` self time
    holds only the scoring and the draw.
    """
    @functools.wraps(fn)
    def wrapper(self, token_lists, temperature=None):
        if not obs.enabled():
            return fn(self, token_lists, temperature)
        attrs = {"lanes": 0}
        if len(token_lists) > 1:
            attrs = {"lanes": int(self.n_lanes),
                     "keys": lane_keys(self.contexts, self.lengths, token_lists)}
        with obs.span("engine.choose", attrs=attrs):
            return fn(self, token_lists, temperature)
    return wrapper


class _TimedJson:
    """Stand-in for the ``json`` module inside ``repro.serving.server``.

    Response bodies are encoded with ``json.dumps`` on the event loop; this
    times that call as ``server.json_encode`` and passes everything else
    through.
    """

    def __init__(self, module):
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)

    def dumps(self, *args, **kwargs):
        with obs.span("server.json_encode"):
            return self._module.dumps(*args, **kwargs)


def _encoded(span, args, blob):
    span.set_attr("bytes", len(blob))
    span.set_attr("rows", args[0].num_rows)


def _fine_tuned(span, args, result):
    span.set_attr("engine", result.engine)


def _stored(span, args, result):
    span.set_attr("bytes", len(args[1]))
    span.set_attr("written", bool(result[1]))


#: (module, attribute path, wrapper factory) — one row per instrumented call.
TARGETS = (
    # llm.engine: guided candidate scoring
    ("repro.llm.engine", "GuidedBatchSession.choose", _choose),
    # serving.workers: the NPZ wire between worker and front end
    ("repro.serving.workers", "encode_table", _timed("wire.encode", _encoded)),
    ("repro.serving.workers", "decode_table", _timed("wire.decode")),
    ("repro.serving.workers", "WorkerPool._await_ready", _timed("setup.worker_ready")),
    # serving.server: response rendering
    ("repro.serving.server", "table_payload", _timed("server.table_payload")),
    # schema / great: multi-table and conditional sampling
    ("repro.schema.multitable", "MultiTableSynthesizer.sample_database",
     _timed("schema.sample_database")),
    ("repro.schema.multitable", "EdgeSynthesizer.sample_children",
     _timed("schema.sample_children")),
    ("repro.great.synthesizer", "GReaTSynthesizer.sample", _timed("great.sample")),
    ("repro.great.synthesizer", "GReaTSynthesizer.sample_conditional",
     _timed("great.sample_conditional")),
    # frame: table construction
    ("repro.frame.table", "Table.__init__", _timed("frame.table_build")),
    ("repro.frame.table", "Table.from_records", _timed("frame.table_build")),
    # store: bundle loads (server and worker cold start)
    ("repro.store.bundle", "load_fitted_pipeline", _timed("store.load_bundle")),
    ("repro.store.bundle", "load_multitable_pipeline", _timed("store.load_bundle")),
    # relational / connecting / enhancement / stats: the fit's data stages
    ("repro.pipelines.base", "MultiTablePipeline.prepare", _timed("fit.prepare")),
    ("repro.connecting.connector", "CrossTableConnector.connect", _timed("fit.connect")),
    ("repro.connecting.independence", "association_matrix", _timed("stats.association")),
    ("repro.enhancement.enhancer", "DataSemanticEnhancer.fit_transform",
     _timed("fit.enhance")),
    ("repro.enhancement.enhancer", "DataSemanticEnhancer.transform", _timed("fit.enhance")),
    ("repro.relational.parent_child", "ParentChildSynthesizer.fit",
     _timed("fit.synthesizer")),
    # llm.tokenizer / llm.finetune / llm.compiled: training
    ("repro.llm.tokenizer", "WordTokenizer.fit", _timed("fit.tokenize")),
    ("repro.llm.tokenizer", "WordTokenizer.fit_encode_corpus", _timed("fit.tokenize")),
    ("repro.llm.finetune", "FineTuner.fine_tune", _timed("fit.fine_tune", _fine_tuned)),
    ("repro.llm.compiled", "CompiledNGramModel.score_corpus", _timed("fit.score_corpus")),
    # registry / store: the artifact registry
    ("repro.registry.record", "fingerprint_table", _timed("registry.fingerprint")),
    ("repro.registry.record", "Registry.save", _timed("registry.save")),
    ("repro.registry.record", "Registry.load", _timed("registry.load")),
    ("repro.registry.cas", "ContentStore.put", _timed("registry.put", _stored)),
)


class Instrumentation:
    """Install the :data:`TARGETS` wrappers, and restore the originals."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> "Instrumentation":
        if self._saved:
            return self
        for module_name, path, factory in TARGETS:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                replacement = classmethod(factory(original.__func__))
            else:
                replacement = factory(original)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, replacement)
        server = importlib.import_module("repro.serving.server")
        self._saved.append((server, "json", server.json))
        server.json = _TimedJson(json)
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
