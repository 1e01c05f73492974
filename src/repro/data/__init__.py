"""Data substrate: schemas, datasets, synthetic scenarios, batching.

The paper evaluates on Ali-CCP and four AliExpress country datasets
(Table II) plus an Alipay Search production log.  None of those are
available offline, so this package provides a *generative* substitute:
an exposure -> click -> conversion user-behaviour model whose latent
structure reproduces the two phenomena the paper studies --

* **data sparsity**: configurable, very low click and conversion rates;
* **selection bias / MNAR**: the latent factors driving clicks are
  correlated with the factors driving conversions, so the conversion
  distribution in the click space ``O`` differs from the one in the
  full exposure space ``D``.

Because the generator knows the true potential outcome
``r(do(o=1))`` for *every* exposure, entire-space debiasing can be
evaluated exactly, something the paper itself can only approximate
(Fig. 7).  See ``DESIGN.md`` for the substitution rationale.
"""

from repro.data.schema import DenseFeature, FeatureSchema, SparseFeature
from repro.data.dataset import Batch, InteractionDataset
from repro.data.synthetic import ScenarioConfig, SyntheticScenario
from repro.data.scenarios import (
    SCENARIO_PRESETS,
    load_scenario,
    scenario_config,
)
from repro.data.batching import batch_iterator
from repro.data.stream import (
    ChunkedCSVSource,
    ChunkMemoryGauge,
    DataSource,
    InMemorySource,
    as_source,
)
from repro.data.stats import DatasetStatistics, dataset_statistics
from repro.data.ingest import (
    IngestBudgetError,
    IngestPolicy,
    IngestReport,
    IngestResult,
    QuarantineStore,
    QuarantinedRow,
    load_csv_dataset_quarantined,
    quarantine_oov_rows,
)
from repro.data.drift_schedule import (
    DriftEvent,
    build_drift_schedule,
    config_for_day,
)

__all__ = [
    "DriftEvent",
    "build_drift_schedule",
    "config_for_day",
    "quarantine_oov_rows",
    "IngestBudgetError",
    "IngestPolicy",
    "IngestReport",
    "IngestResult",
    "QuarantineStore",
    "QuarantinedRow",
    "load_csv_dataset_quarantined",
    "SparseFeature",
    "DenseFeature",
    "FeatureSchema",
    "Batch",
    "InteractionDataset",
    "ScenarioConfig",
    "SyntheticScenario",
    "SCENARIO_PRESETS",
    "scenario_config",
    "load_scenario",
    "batch_iterator",
    "DataSource",
    "InMemorySource",
    "ChunkedCSVSource",
    "ChunkMemoryGauge",
    "as_source",
    "DatasetStatistics",
    "dataset_statistics",
]
