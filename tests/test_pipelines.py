"""Integration tests: the three end-to-end pipelines on a tiny DIGIX-like trial."""

import pytest

from repro.connecting.connector import ConnectorConfig
from repro.datasets.digix import INTEREST_COLUMNS, PSEUDO_ID_COLUMNS
from repro.enhancement.enhancer import EnhancerConfig
from repro.evaluation.fidelity import FidelityEvaluator
from repro.pipelines.base import MultiTablePipeline
from repro.pipelines.config import PipelineConfig
from repro.pipelines.derec import DERECPipeline
from repro.pipelines.flatten_baseline import DirectFlattenPipeline
from repro.pipelines.greater import GReaTERPipeline


def _config(semantic_level="none", special=False, method="threshold_mean", seed=0):
    return PipelineConfig(
        seed=seed,
        drop_columns=("task_id",),
        enhancer=EnhancerConfig(semantic_level=semantic_level,
                                apply_special_transform=special, seed=seed),
        connector=ConnectorConfig(independence_method=method, remove_noisy_columns=False),
    )


@pytest.fixture(scope="module")
def trial(tiny_digix):
    return tiny_digix.trials()[0]


class TestPreparation:
    def test_parent_contains_contextual_user_columns(self, trial):
        pipeline = GReaTERPipeline(_config())
        prepared = pipeline.prepare(trial.ads, trial.feeds)
        for name in ("gender", "age", "residence"):
            assert name in prepared.parent.column_names
        assert prepared.parent.num_rows == len(trial.ads.unique_values("user_id"))

    def test_noisy_and_excluded_columns_removed(self, trial):
        pipeline = GReaTERPipeline(_config())
        prepared = pipeline.prepare(trial.ads, trial.feeds)
        all_columns = set(prepared.first_child.column_names) | set(prepared.second_child.column_names)
        assert "task_id" not in all_columns
        for name in PSEUDO_ID_COLUMNS:
            assert name not in all_columns

    def test_original_flat_reference_has_no_subject_column(self, trial):
        pipeline = GReaTERPipeline(_config())
        prepared = pipeline.prepare(trial.ads, trial.feeds)
        assert "user_id" not in prepared.original_flat.column_names
        assert prepared.original_flat.num_rows > 0


class TestGReaTERPipeline:
    @pytest.fixture(scope="class")
    def result(self, tiny_digix):
        trial = tiny_digix.trials()[0]
        return GReaTERPipeline(_config(semantic_level="understandability")).run(
            trial.ads, trial.feeds)

    def test_synthetic_flat_schema_matches_reference(self, result):
        assert set(result.synthetic_flat.column_names) <= set(result.original_flat.column_names)
        assert result.synthetic_flat.num_rows > 0

    def test_output_is_in_original_label_space(self, result):
        """Sec. 3.2.3: the inverse mapping restores the original numeric labels."""
        for name in ("gender", "age", "device_size"):
            synthetic_values = set(result.synthetic_flat.column(name).unique())
            original_values = set(result.original_flat.column(name).unique())
            assert synthetic_values <= original_values
            assert all(isinstance(v, int) for v in synthetic_values)

    def test_details_record_connection_and_mapping(self, result):
        assert result.pipeline_name == "greater"
        assert "independence_method" in result.details
        assert result.details["semantic_level"] == "understandability"
        assert result.details["rows_connected"] <= result.details["rows_flattened"]

    def test_fidelity_evaluation_runs(self, result):
        report = FidelityEvaluator().evaluate(result.original_flat, result.synthetic_flat)
        assert len(report) > 10
        assert all(0.0 <= p <= 1.0 for p in report.p_values())

    def test_special_transform_round_trips_interest_columns(self, tiny_digix):
        trial = tiny_digix.trials()[1]
        result = GReaTERPipeline(_config(semantic_level="understandability", special=True)).run(
            trial.ads, trial.feeds)
        for name in INTEREST_COLUMNS:
            if name in result.synthetic_flat.column_names:
                for value in result.synthetic_flat.column(name).values[:5]:
                    assert " and " not in str(value)


class TestBaselinePipelines:
    def test_direct_flatten_runs_and_reports_bias(self, trial):
        result = DirectFlattenPipeline(_config()).run(trial.ads, trial.feeds)
        assert result.pipeline_name == "direct_flatten"
        assert result.details["rows_flattened"] >= result.original_flat.num_rows
        assert 0.0 < result.details["max_subject_share"] <= 1.0

    def test_derec_runs_two_rounds(self, trial):
        result = DERECPipeline(_config()).run(trial.ads, trial.feeds)
        assert result.pipeline_name == "derec"
        assert result.details["rounds"] == 2
        assert set(result.synthetic_flat.column_names) <= set(result.original_flat.column_names)

    def test_all_pipelines_share_the_same_reference(self, trial):
        configs = _config()
        results = [
            GReaTERPipeline(configs).run(trial.ads, trial.feeds),
            DirectFlattenPipeline(configs).run(trial.ads, trial.feeds),
        ]
        assert results[0].original_flat == results[1].original_flat


class TestPipelineConfig:
    def test_backbone_uses_paper_hyperparameters(self):
        config = PipelineConfig()
        backbone = config.backbone()
        assert backbone.fine_tune.epochs == 10
        assert backbone.fine_tune.batches == 5

    def test_base_pipeline_is_abstract(self, trial):
        with pytest.raises(NotImplementedError):
            MultiTablePipeline(_config()).run(trial.ads, trial.feeds)

    def test_n_synthetic_subjects_respected(self, trial):
        config = PipelineConfig(
            seed=0, drop_columns=("task_id",), n_synthetic_subjects=3,
            connector=ConnectorConfig(independence_method="threshold_mean",
                                      remove_noisy_columns=False),
        )
        result = GReaTERPipeline(config).run(trial.ads, trial.feeds)
        assert result.synthetic_parent.num_rows == 3
