"""Reference-less quality estimation for sentence-level text simplification.

The package scores a simplification system output against its source
sentence along three dimensions (grammaticality, meaning preservation,
simplicity) using elementary metrics, correlation-based rankings, and a
combined scale -> PCA -> linear-model pipeline, on QATS-format data.
"""

from .errors import (
    DataFormatError,
    DegenerateDataError,
    ResourceMissingError,
    TsevalError,
)
from .textproc import TokenizedText, count_syllables, porter_stem, tokenize
from .mtmetrics import (
    BleuConfig,
    EditBreakdown,
    bleu,
    meteor,
    rouge,
    ter_align,
)
from .resources import (
    NgramLanguageModel,
    Resources,
    WordVectors,
    load_concreteness,
    load_frequency_table,
    load_vectors,
    token_logprobs,
    train_lm,
)
from .features import (
    FeatureMatrix,
    FeatureSpec,
    SentencePair,
    compute_features,
    compute_matrix,
    feature_names,
    registry,
)
from .stats import (
    CorrelationReport,
    RankingTable,
    fisher_ci,
    pearson,
    rank_features,
    weighted_f1,
)
from .qemodel import (
    CVResult,
    LinearModel,
    PcaBasis,
    PipelineConfig,
    Standardizer,
    TrainedPipeline,
    cross_validate,
    fit_classifier,
    fit_pca,
    fit_pipeline,
    fit_regressor,
    fit_standardizer,
    load_pipeline,
    predict,
    save_pipeline,
    score_pipeline,
    select_lambda,
)
from .qats_io import (
    Dataset,
    QatsRecord,
    decode_labels,
    encode_labels,
    label_distribution,
    load_dataset,
    to_pairs,
)

__version__ = "0.1.0"
