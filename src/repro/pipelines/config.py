"""Shared pipeline configuration and result containers."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.connecting.connector import ConnectorConfig
from repro.enhancement.enhancer import EnhancerConfig
from repro.frame.table import Table
from repro.great.synthesizer import GReaTConfig
from repro.llm.finetune import FineTuneConfig
from repro.llm.ngram_model import ModelConfig
from repro.llm.sampler import SamplerConfig
from repro.relational.parent_child import ParentChildConfig


def default_backbone_config(seed: int = 0) -> GReaTConfig:
    """The LM-backbone configuration the pipelines use by default.

    Order-6 n-grams keep the previous column's value inside the context window
    of the next column's value, so cross-column dependencies (and the damage
    ambiguous labels do to them) are actually expressed; 10 epochs / 5 batches
    mirror the paper's REaLTabFormer hyper-parameters (Sec. 4.1.4).
    """
    model = ModelConfig(order=6, smoothing=0.005,
                        interpolation=(0.42, 0.24, 0.14, 0.1, 0.06, 0.04))
    fine_tune = FineTuneConfig(epochs=10, batches=5, validation_fraction=0.1, seed=seed,
                               model=model)
    sampler = SamplerConfig(temperature=0.85, top_k=12, seed=seed)
    return GReaTConfig(fine_tune=fine_tune, sampler=sampler, seed=seed)


@dataclass(frozen=True)
class PipelineConfig:
    """Configuration shared by all multi-table pipelines.

    Parameters
    ----------
    subject_column:
        Key shared by the two child tables (``user_id`` on the DIGIX-like data).
    n_synthetic_subjects:
        How many synthetic parent subjects to sample; ``None`` matches the
        number of subjects in the training data.
    enhancer:
        Data Semantic Enhancement configuration; its ``semantic_level``
        distinguishes the Fig. 8 setups.
    connector:
        Cross-table Connecting configuration; its ``independence_method``
        distinguishes the Fig. 9 setups.
    drop_columns:
        Columns removed from both child tables before anything else (the
        trial-splitting ``task_id`` is dropped by the harness this way).
    contextual_consistency:
        Threshold ``m`` for contextual-variable detection (Appendix A.2).
    """

    subject_column: str = "user_id"
    n_synthetic_subjects: int | None = None
    enhancer: EnhancerConfig = field(default_factory=lambda: EnhancerConfig(semantic_level="none"))
    connector: ConnectorConfig = field(default_factory=ConnectorConfig)
    drop_columns: tuple[str, ...] = ()
    contextual_consistency: float = 0.95
    seed: int = 0

    def backbone(self) -> GReaTConfig:
        """LM backbone configuration derived from the pipeline seed."""
        return default_backbone_config(self.seed)

    def parent_child(self) -> ParentChildConfig:
        """Parent/child synthesizer configuration derived from the backbone."""
        backbone = self.backbone()
        return ParentChildConfig(parent=backbone, child=replace(backbone), seed=self.seed)


@dataclass
class SynthesisResult:
    """What a pipeline run produces.

    ``synthetic_flat`` and ``original_flat`` are directly comparable: both are
    flat tables in the *original* label space whose columns include the parent
    (contextual) columns and the child feature columns.  ``details`` carries
    pipeline-specific diagnostics (connection reports, mapping sizes, ...).
    """

    synthetic_flat: Table
    original_flat: Table
    synthetic_parent: Table | None = None
    synthetic_child: Table | None = None
    pipeline_name: str = ""
    details: dict = field(default_factory=dict)
