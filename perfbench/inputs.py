"""The benchmark's inputs: datasets and pipelines, each a pure function of a seed."""

from __future__ import annotations

from repro.connecting.connector import ConnectorConfig
from repro.datasets.digix import DigixConfig, generate_digix_like
from repro.datasets.relational import RetailConfig, generate_retail_like
from repro.enhancement.enhancer import EnhancerConfig
from repro.pipelines.config import PipelineConfig
from repro.pipelines.greater import GReaTERPipeline
from repro.pipelines.multitable import MultiTablePipelineConfig, MultiTableSchemaPipeline
from repro.schema import infer_schema

#: Seed of every fitted model and fitted dataset.  Fit cost depends on the
#: data: which columns connecting finds independent sets the size of the
#: training corpus, and fit time differs up to 2x between data seeds.  So
#: the served bundles and the fitted dataset are fixed, and the run's
#: ``--seed`` varies only the seeds of the sampling requests.
MODEL_SEED = 7


def digix_trial(n_users: int, seed: int):
    """One DIGIX-like trial: ``(ads, feeds)`` child tables of *n_users* users."""
    dataset = generate_digix_like(DigixConfig(
        n_tasks=1,
        n_users_per_task=n_users,
        ads_rows_per_user=(2, 4),
        feeds_rows_per_user=(2, 4),
        seed=seed,
    ))
    trial = dataset.trials()[0]
    return trial.ads, trial.feeds


def greater_pipeline(seed: int) -> GReaTERPipeline:
    """The GReaTER flat pipeline: enhancement, connecting, parent/child GReaT."""
    return GReaTERPipeline(PipelineConfig(
        seed=seed,
        drop_columns=("task_id",),
        enhancer=EnhancerConfig(semantic_level="understandability", seed=seed),
        connector=ConnectorConfig(remove_noisy_columns=False),
    ))


def fit_table_bundle(n_users: int, seed: int, path) -> object:
    """Fit the flat GReaTER pipeline and save it as a bundle at *path*."""
    fitted = greater_pipeline(seed).fit(*digix_trial(n_users, seed))
    fitted.save(path)
    return fitted


def fit_database_bundle(n_customers: int, seed: int, path) -> object:
    """Fit the 5-table retail multitable pipeline and save it at *path*."""
    tables = generate_retail_like(RetailConfig(n_customers=n_customers, seed=seed))
    fitted = MultiTableSchemaPipeline(MultiTablePipelineConfig(seed=seed)).fit(
        tables, infer_schema(tables))
    fitted.save(path)
    return fitted
