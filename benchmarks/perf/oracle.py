"""The legacy engines, reached as oracles through their runtime seams.

Generation always runs the compiled CSR backbone and fine-tuning the array
trainer.  The benches time and check them against the legacy object paths:

* :func:`use_backbone` swaps :class:`~repro.llm.engine.ObjectBackbone`
  into the engine of every GReaT synthesizer inside a fitted object;
* :func:`object_trainer` makes every vocabulary unpackable, so fine-tuning
  takes the object-trainer fallback the way a too-large vocabulary does,
  and the fit's report says ``FineTuneResult.engine == "object"``.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext

import repro.llm.compiled as compiled
from repro.great.synthesizer import GReaTSynthesizer
from repro.llm.engine import ObjectBackbone

#: The two engines every oracle bench reports on, oracle first.
ENGINES = ("object", "compiled")


@contextmanager
def object_trainer():
    """Inside, no vocabulary packs into int64 keys, so ``FineTuner.fine_tune``
    falls back to the object trainer (and models frozen inside look contexts
    up through their tuple index)."""
    original = compiled._MAX_PACKED_KEY
    compiled._MAX_PACKED_KEY = 2
    try:
        yield
    finally:
        compiled._MAX_PACKED_KEY = original


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
