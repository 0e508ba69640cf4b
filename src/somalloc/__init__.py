"""Consumer segmentation with 1-d self-organizing maps and categorical-only
cluster allocation.

Workflow: screen continuous variables against the categorical block
(varselect), cluster individuals on the surviving shares with a string
map (som), describe the clusters (profiles), fit a polychotomous logit on
categorical data alone (logit) and allocate/score new individuals
(allocation).  ``pipeline.run_pipeline`` strings the stages together;
``synth`` provides seeded data with planted ground truth.
"""

from .allocation import (
    AllocationResult,
    ContingencyTable,
    EvaluationSummary,
    allocate,
    build_contingency,
    evaluate,
    true_classes,
)
from .dataset import (
    CategoricalTable,
    ContinuousTable,
    DataError,
    Dataset,
    Schema,
    load_dataset,
    renormalize_composition,
    split_dataset,
    subset_continuous,
)
from .logit import (
    LogitModel,
    encode_rows,
    fit_logit,
    log_likelihood,
    predict_proba_rows,
)
from .pipeline import PipelineConfig, StageError, run_pipeline
from .profiles import ClusterProfile, describe_clusters, test_values
from .som import (
    Codebook,
    SomConfig,
    TwoLevelClustering,
    assign_all,
    cluster_labels,
    quantization_error,
    reduce_codebook,
    train_som,
)
from .synth import GeneratorSpec, generate
from .varselect import AnovaReport, fit_additive_anova, select_variables

__version__ = "0.1.0"
