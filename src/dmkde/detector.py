"""Threshold calibration and the end-to-end fit/predict pipeline.

A fitted detector is the frozen composition of the stages: optional
per-feature standardization, the Fourier embedding, the density matrix
over the embedded training set, and a threshold set at the anomaly-rate
quantile of the validation densities.  Densities below the threshold
classify as anomalies; the boundary itself is normal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from . import metrics
from .dataio import apply_standardizer, fit_standardizer
from .density import DensityMatrix, build_density_matrix, estimate_density_batch
from .embedding import AffConfig, EmbeddingParams, embed, sample_rff_params, train_aff
from .errors import InsufficientDataError, InvalidArgumentError
from .rng import DOMAIN_REFIT_SPLIT, stream

NORMAL = 0
ANOMALY = 1


@dataclass
class FitConfig:
    """Hyperparameters of one detector fit."""

    sigma: float
    embed_dim: int
    use_aff: bool = False
    aff: AffConfig = field(default_factory=AffConfig)
    seed: int = 0
    standardize: bool = True

    def __post_init__(self):
        self.sigma = float(self.sigma)
        self.embed_dim = int(self.embed_dim)
        if self.sigma <= 0 or not math.isfinite(self.sigma):
            raise InvalidArgumentError("sigma must be a positive finite real")
        if self.embed_dim < 1:
            raise InvalidArgumentError("embed_dim must be >= 1")


@dataclass
class DetectorModel:
    """Deployable artifact: embedding, density matrix, threshold, rate.

    ``use_aff`` is true only when adaptive training actually refined the
    embedding; a fit that asked for AFF but fell back to the random
    features records false.
    """

    embedding: EmbeddingParams
    dm: DensityMatrix
    theta: float
    anomaly_rate: float
    use_aff: bool = False
    shift: np.ndarray | None = None
    scale: np.ndarray | None = None

    def __post_init__(self):
        self.theta = float(self.theta)
        self.anomaly_rate = float(self.anomaly_rate)
        if self.embedding.embed_dim != self.dm.embed_dim:
            raise InvalidArgumentError("embedding and density matrix dimensions differ")
        if not (0.0 <= self.anomaly_rate <= 1.0):
            raise InvalidArgumentError("anomaly_rate must lie in [0, 1]")
        if self.anomaly_rate == 0.0:
            if self.theta != float("-inf"):
                raise InvalidArgumentError("theta must be -inf when anomaly_rate is 0")
        elif not math.isfinite(self.theta):
            raise InvalidArgumentError("theta must be finite for a positive anomaly_rate")
        if (self.shift is None) != (self.scale is None):
            raise InvalidArgumentError("shift and scale must be given together")
        if self.shift is not None:
            self.shift = np.asarray(self.shift, dtype=np.float64)
            self.scale = np.asarray(self.scale, dtype=np.float64)
            d = self.embedding.input_dim
            if self.shift.shape != (d,) or self.scale.shape != (d,):
                raise InvalidArgumentError("standardization vectors must have length input_dim")

    @property
    def input_dim(self) -> int:
        return self.embedding.input_dim


def compute_threshold(val_densities, anomaly_rate: float) -> float:
    """Anomaly-rate quantile of the validation densities.

    Uses linear interpolation between order statistics: with the m values
    sorted ascending and h = rate * (m - 1), the threshold is
    ``v[floor(h)] + (h - floor(h)) * (v[floor(h) + 1] - v[floor(h)])``.
    Rate 0 maps to -inf (nothing is anomalous), rate 1 to the maximum.
    """
    values = np.asarray(val_densities, dtype=np.float64)
    if values.ndim != 1 or values.size == 0:
        raise InsufficientDataError("need a nonempty 1-D sequence of densities")
    if not np.all(np.isfinite(values)):
        raise InvalidArgumentError("densities must be finite")
    rate = float(anomaly_rate)
    if not (0.0 <= rate <= 1.0):
        raise InvalidArgumentError("anomaly_rate must lie in [0, 1]")
    if rate == 0.0:
        return float("-inf")
    ordered = np.sort(values)
    h = rate * (values.size - 1)
    k = int(math.floor(h))
    if k + 1 >= values.size:
        return float(ordered[-1])
    return float(ordered[k] + (h - k) * (ordered[k + 1] - ordered[k]))


def classify(density: float, theta: float) -> int:
    """0 (normal) when density >= theta, else 1 (anomaly)."""
    return int(classify_batch([density], theta)[0])


def classify_batch(densities, theta: float) -> np.ndarray:
    """Label of each density: 0 (normal) when it is >= theta, else 1 (anomaly)."""
    return np.where(np.asarray(densities) >= theta, NORMAL, ANOMALY).astype(np.int64)


def _prepare_features(x, d: int | None = None) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or (d is not None and x.shape[1] != d):
        raise InvalidArgumentError(
            f"expected a 2-D feature matrix{'' if d is None else f' with {d} columns'}, "
            f"got shape {x.shape}"
        )
    if not np.all(np.isfinite(x)):
        raise InvalidArgumentError("features contain non-finite values")
    return x


def fit(train: np.ndarray, val: np.ndarray, anomaly_rate: float,
        cfg: FitConfig) -> tuple[DetectorModel, np.ndarray]:
    """Fit the full pipeline on unlabeled train/val feature matrices.

    Stages, in order: fit standardization on train (if enabled) and apply
    it to both sets; sample Fourier parameters from ``cfg.seed``; refine
    them adaptively when ``cfg.use_aff`` (the model records whether that
    changed them); embed the training rows and
    average their outer products; estimate validation densities; set the
    threshold at the ``anomaly_rate`` quantile.

    Returns ``(model, val_densities)``.  The densities are bit-identical
    to ``predict_batch(model, val)[1]``, so callers need not score
    ``val`` again.
    """
    train = _prepare_features(train)
    if train.shape[0] == 0:
        raise InsufficientDataError("training set is empty")
    val = _prepare_features(val, train.shape[1])
    if val.shape[0] == 0:
        raise InsufficientDataError("validation set is empty")
    if not (0.0 <= float(anomaly_rate) <= 1.0):
        raise InvalidArgumentError("anomaly_rate must lie in [0, 1]")

    shift = scale = None
    if cfg.standardize:
        shift, scale = fit_standardizer(train)
        train = apply_standardizer(train, shift, scale)
        val = apply_standardizer(val, shift, scale)

    params = sample_rff_params(train.shape[1], cfg.embed_dim, cfg.sigma, cfg.seed)
    used_aff = False
    if cfg.use_aff:
        refined = train_aff(params, train, cfg.aff)
        # train_aff hands back its input when training is off or fell back.
        used_aff = refined is not params
        params = refined

    dm = build_density_matrix(embed(params, train))
    val_densities = estimate_density_batch(dm, embed(params, val))
    theta = compute_threshold(val_densities, anomaly_rate)
    model = DetectorModel(params, dm, theta, float(anomaly_rate), used_aff, shift, scale)
    return model, val_densities


def _one_row(model: DetectorModel, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.input_dim,):
        raise InvalidArgumentError(
            f"expected a vector of length {model.input_dim}, got shape {x.shape}"
        )
    return x[np.newaxis]


def score(model: DetectorModel, x: np.ndarray) -> float:
    """Density of one sample under the fitted model (threshold-free)."""
    return float(score_batch(model, _one_row(model, x))[0])


def predict(model: DetectorModel, x: np.ndarray) -> tuple[int, float]:
    """(label, density) for one sample."""
    labels, densities = predict_batch(model, _one_row(model, x))
    return int(labels[0]), float(densities[0])


def score_batch(model: DetectorModel, x: np.ndarray) -> np.ndarray:
    """Density of each row of ``x`` under the fitted model (threshold-free)."""
    x = _prepare_features(x, model.input_dim)
    if model.shift is not None:
        x = apply_standardizer(x, model.shift, model.scale)
    return estimate_density_batch(model.dm, embed(model.embedding, x))


def predict_batch(model: DetectorModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(labels, densities) for each row of ``x``."""
    densities = score_batch(model, x)
    return classify_batch(densities, model.theta), densities


def grid_search(train, val, val_labels, anomaly_rate, sigmas, embed_dims,
                use_aff_options=(False,), aff: AffConfig | None = None,
                seed: int = 0, standardize: bool = True):
    """Exhaustive search for the configuration with the best weighted F1.

    Fits one model per grid point (training only on ``train``), scores
    ``val``, and returns ``(best_config, report)`` where the report holds
    one row per configuration in grid order (sigma outermost, then
    embed_dim, then use_aff).  Ties keep the earliest configuration.
    """
    sigmas = list(sigmas)
    embed_dims = list(embed_dims)
    use_aff_options = list(use_aff_options)
    if not sigmas or not embed_dims or not use_aff_options:
        raise InvalidArgumentError("grid values must be nonempty")
    val_labels = np.asarray(val_labels, dtype=np.int64)
    val = _prepare_features(val)
    if val_labels.shape != (val.shape[0],):
        raise InvalidArgumentError("val_labels must align with val rows")

    report = []
    best_cfg = None
    best_f1 = -1.0
    for sigma, embed_dim, use_aff in product(sigmas, embed_dims, use_aff_options):
        cfg = FitConfig(sigma=sigma, embed_dim=embed_dim, use_aff=use_aff,
                        aff=aff or AffConfig(), seed=seed, standardize=standardize)
        model, val_densities = fit(train, val, anomaly_rate, cfg)
        pred = classify_batch(val_densities, model.theta)
        row = {
            "sigma": float(sigma),
            "embed_dim": int(embed_dim),
            "use_aff": bool(use_aff),
            "theta": float(model.theta),
            "f1_weighted": metrics.f1_weighted(val_labels, pred),
            "f1_anomaly": metrics.f1_anomaly(val_labels, pred),
            "accuracy": metrics.accuracy(val_labels, pred),
        }
        report.append(row)
        if row["f1_weighted"] > best_f1:
            best_f1 = row["f1_weighted"]
            best_cfg = cfg
    return best_cfg, report


def fit_with_internal_split(features: np.ndarray, anomaly_rate: float, cfg: FitConfig,
                            val_frac: float = 0.3) -> DetectorModel:
    """Fit on one feature matrix, holding out a slice for the threshold.

    Used when a search phase already consumed the designated validation
    set: the rows are shuffled with the fit seed and ``val_frac`` of them
    calibrate the threshold while the rest build the density matrix.
    """
    features = _prepare_features(features)
    m = features.shape[0]
    if m < 2:
        raise InsufficientDataError("need at least 2 samples to split off a calibration set")
    if not (0.0 < val_frac < 1.0):
        raise InvalidArgumentError("val_frac must lie in (0, 1)")
    perm = stream(cfg.seed, DOMAIN_REFIT_SPLIT).permutation(m)
    n_val = min(max(1, int(math.floor(val_frac * m + 0.5))), m - 1)
    val = features[perm[:n_val]]
    train = features[perm[n_val:]]
    model, _ = fit(train, val, anomaly_rate, cfg)
    return model
