"""Anomaly detection from Fourier-feature embeddings and density matrices.

Pipeline: embed samples with a (optionally gradient-refined) random
cosine feature map approximating a Gaussian kernel, average the outer
products of the embedded training set into a density matrix, estimate
densities of new samples as a quadratic form, and flag samples whose
density falls below the anomaly-rate quantile of a validation set.
"""

from .dataio import (
    GaussianComponent,
    LabeledDataset,
    SplitIndices,
    SyntheticSpec,
    apply_standardizer,
    fit_standardizer,
    generate_synthetic,
    load_csv,
    save_csv,
    stratified_split,
)
from .density import (
    DensityMatrix,
    build_density_matrix,
    estimate_density,
    estimate_density_batch,
    merge_density_matrices,
)
from .detector import (
    ANOMALY,
    NORMAL,
    DetectorModel,
    FitConfig,
    classify,
    compute_threshold,
    fit,
    fit_with_internal_split,
    grid_search,
    predict,
    predict_batch,
    score,
    score_batch,
)
from .embedding import (
    AffConfig,
    EmbeddingParams,
    default_sigma_grid,
    embed,
    embed_raw,
    gaussian_kernel,
    pair_loss,
    sample_rff_params,
    train_aff,
)
from .errors import (
    ConfigError,
    DegenerateEmbeddingError,
    InsufficientClassError,
    InsufficientDataError,
    InvalidArgumentError,
    ParseError,
)
from .metrics import ConfusionCounts, accuracy, confusion, f1_anomaly, f1_weighted
from .modelio import load_model, save_model
from .oracle import KDE_BANDWIDTH_RATIO, kde_exact, kde_exact_batch, qde_bruteforce, reference_classifier

__version__ = "0.1.0"

__all__ = [
    "ANOMALY",
    "AffConfig",
    "ConfigError",
    "ConfusionCounts",
    "DegenerateEmbeddingError",
    "DensityMatrix",
    "DetectorModel",
    "EmbeddingParams",
    "FitConfig",
    "GaussianComponent",
    "InsufficientClassError",
    "InsufficientDataError",
    "InvalidArgumentError",
    "KDE_BANDWIDTH_RATIO",
    "LabeledDataset",
    "NORMAL",
    "ParseError",
    "SplitIndices",
    "SyntheticSpec",
    "accuracy",
    "apply_standardizer",
    "build_density_matrix",
    "classify",
    "compute_threshold",
    "confusion",
    "default_sigma_grid",
    "embed",
    "embed_raw",
    "estimate_density",
    "estimate_density_batch",
    "f1_anomaly",
    "f1_weighted",
    "fit",
    "fit_standardizer",
    "fit_with_internal_split",
    "gaussian_kernel",
    "generate_synthetic",
    "grid_search",
    "kde_exact",
    "kde_exact_batch",
    "load_csv",
    "load_model",
    "merge_density_matrices",
    "pair_loss",
    "predict",
    "predict_batch",
    "qde_bruteforce",
    "reference_classifier",
    "sample_rff_params",
    "save_csv",
    "save_model",
    "score",
    "score_batch",
    "stratified_split",
    "train_aff",
]
