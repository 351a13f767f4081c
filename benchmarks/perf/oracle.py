"""The legacy engines, reached as oracles through their runtime seams.

Generation always runs the compiled CSR backbone and fine-tuning the array
trainer.  The benches and tests time and check them against the legacy
object paths:

* :func:`use_backbone` swaps :class:`~repro.llm.engine.ObjectBackbone`
  into the engine of every GReaT synthesizer inside a fitted object;
* :func:`object_trainer` swaps :func:`fine_tune_object` in for
  ``FineTuner.fine_tune``, so every fit inside trains the dict tables token
  by token and its report says ``FineTuneResult.engine == "object"``.
"""

from __future__ import annotations

from collections.abc import Sequence
from contextlib import nullcontext
from unittest import mock

from repro.great.synthesizer import GReaTSynthesizer
from repro.llm.engine import ObjectBackbone
from repro.llm.finetune import FineTuner, FineTuneResult
from repro.llm.ngram_model import NGramLanguageModel

#: The two engines every oracle bench reports on, oracle first.
ENGINES = ("object", "compiled")


def fine_tune_object(tuner: FineTuner, corpus: Sequence[str]) -> FineTuneResult:
    """The object trainer: ``FineTuner.fine_tune`` on the dict tables.

    Same split and vocabulary as the array trainer, then per-sentence
    tokenisation and token-by-token count updates, batch by batch and epoch
    by epoch, with the object path's perplexity after every epoch.
    """
    shuffled, training, validation = tuner._split(corpus)
    config = tuner.config
    # every token, validation-only ones included, is in the vocabulary
    tuner.tokenizer.fit(shuffled)
    model = NGramLanguageModel(tuner.tokenizer, config.model)
    batch_size = max(1, len(training) // config.batches)
    perplexity_trace: list[float] = []
    for _ in range(config.epochs):
        for start in range(0, len(training), batch_size):
            model.fit(training[start:start + batch_size], epochs=1)
        if validation:
            perplexity_trace.append(model.perplexity(validation))
    if not perplexity_trace:
        perplexity_trace.append(model.perplexity(training))
    return FineTuneResult(
        model=model,
        perplexity_trace=perplexity_trace,
        train_size=len(training),
        validation_size=len(validation),
        engine="object",
    )


def object_trainer():
    """Context inside which ``FineTuner.fine_tune`` runs :func:`fine_tune_object`."""
    return mock.patch.object(FineTuner, "fine_tune", fine_tune_object)


def trainer(engine: str):
    """Context that makes fine-tuning run *engine*'s trainer."""
    return object_trainer() if engine == "object" else nullcontext()


def great_synthesizers(fitted) -> list[GReaTSynthesizer]:
    """Every GReaT synthesizer inside a fitted synthesizer or pipeline."""
    if isinstance(fitted, GReaTSynthesizer):
        return [fitted]
    inner = [getattr(fitted, name) for name in
             ("_parent_synth", "_child_synth", "_synth", "synthesizer")
             if hasattr(fitted, name)]
    inner.extend(getattr(fitted, "synthesizers", ()))
    for name in ("_root_synths", "_edges"):
        inner.extend(getattr(fitted, name, {}).values())
    found: list[GReaTSynthesizer] = []
    for child in inner:
        found.extend(great_synthesizers(child))
    return found


def use_backbone(fitted, engine: str):
    """Run every engine under *fitted* on *engine*'s backbone (in place).

    ``"object"`` swaps the oracle in; ``"compiled"`` is the backbone a fit
    already runs, so *fitted* is left as it is.
    """
    if engine == "object":
        for synth in great_synthesizers(fitted):
            synth.engine.backbone = ObjectBackbone(synth.model)
    return fitted
