"""Threshold calibration and the end-to-end fit/predict pipeline.

A fitted detector is the frozen composition of the stages: optional
per-feature standardization, the Fourier embedding, the density matrix
over the embedded training set, and a threshold set at the anomaly-rate
quantile of the validation densities.  Densities below the threshold
classify as anomalies; the boundary itself is normal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import metrics
from .dataio import (_feature_matrix, _feature_vector, _label_vector, _numbers,
                     _round_half_up, apply_standardizer, fit_standardizer)
from .density import (
    FACTOR_BOUND,
    DensityFactor,
    DensityMatrix,
    _for_blocks,
    _pad_lanes,
    _score_block,
    build_density_matrix,
    estimate_density_batch,
    sketch_density_matrix,
)
from .embedding import (AffConfig, EmbeddingParams, _embed_block, default_sigma_grid, embed,
                        sample_rff_params, train_aff)
from .errors import InsufficientDataError, InvalidArgumentError, _count, _positive, _rate
from .rng import DOMAIN_REFIT_SPLIT, stream

NORMAL = 0
ANOMALY = 1
_REFIT_VAL_FRAC = 0.3


@dataclass
class FitConfig:
    """Hyperparameters of one detector fit.  ``sigma=None`` asks ``fit`` for
    the median pairwise distance of the rows it trains on (see ``fit``)."""

    sigma: float | None
    embed_dim: int
    use_aff: bool = False
    aff: AffConfig = field(default_factory=AffConfig)
    seed: int = 0
    standardize: bool = True

    def __post_init__(self):
        if self.sigma is not None:
            self.sigma = _positive("sigma", self.sigma)
        self.embed_dim = _count("embed_dim", self.embed_dim, 1)
        self.use_aff = bool(self.use_aff)
        self.seed = _count("seed", self.seed, 0)
        self.standardize = bool(self.standardize)


@dataclass
class DetectorModel:
    """Deployable artifact: embedding, density matrix, threshold, rate.

    ``use_aff`` is true only when adaptive training actually refined the
    embedding; a fit that asked for AFF but fell back to the random
    features records false.  ``dm`` is the serving form: the density
    matrix, or its rank-k factor.  ``sketch_bound`` is the density error
    bound of the factor fit sketched (see ``sketch_density_matrix``), also
    when it was too large to serve and ``dm`` is the matrix; ``None`` when
    no sketch was made.
    """

    embedding: EmbeddingParams
    dm: DensityMatrix | DensityFactor
    theta: float
    anomaly_rate: float
    use_aff: bool = False
    shift: np.ndarray | None = None
    scale: np.ndarray | None = None
    sketch_bound: float | None = None

    def __post_init__(self):
        self.theta = float(self.theta)
        self.anomaly_rate = _rate("anomaly_rate", self.anomaly_rate)
        if self.embedding.embed_dim != self.dm.embed_dim:
            raise InvalidArgumentError("embedding and density matrix dimensions differ")
        if self.sketch_bound is not None:
            self.sketch_bound = float(self.sketch_bound)
            if not self.sketch_bound >= 0.0:  # NaN fails too
                raise InvalidArgumentError(f"sketch_bound must be >= 0, got {self.sketch_bound}")
        if isinstance(self.dm, DensityFactor) and not (
                self.sketch_bound is not None and self.sketch_bound <= FACTOR_BOUND):
            raise InvalidArgumentError(f"a factor is served only with a sketch_bound <= "
                                       f"{FACTOR_BOUND}, got {self.sketch_bound}")
        if self.anomaly_rate == 0.0:
            if self.theta != float("-inf"):
                raise InvalidArgumentError("theta must be -inf when anomaly_rate is 0")
        elif not math.isfinite(self.theta):
            raise InvalidArgumentError("theta must be finite for a positive anomaly_rate")
        if (self.shift is None) != (self.scale is None):
            raise InvalidArgumentError("shift and scale must be given together")
        if self.shift is not None:
            self.shift = _numbers(self.shift, "shift")
            self.scale = _numbers(self.scale, "scale")
            d = self.embedding.input_dim
            if self.shift.shape != (d,) or self.scale.shape != (d,):
                raise InvalidArgumentError("standardization vectors must have length input_dim")
            # As fit_standardizer makes them; else predict would blame the input.
            finite = np.isfinite(self.shift).all() and np.isfinite(self.scale).all()
            if not (finite and (self.scale > 0).all()):
                raise InvalidArgumentError("shift must be finite, scale finite and positive")

    @property
    def input_dim(self) -> int:
        return self.embedding.input_dim

    def standardize(self, x: np.ndarray) -> np.ndarray:
        """``x`` in the space the embedding was fitted in: z-scored with the
        training shift and scale, or unchanged when the model has none."""
        if self.shift is None:
            return x
        return apply_standardizer(x, self.shift, self.scale)


def compute_threshold(val_densities, anomaly_rate: float) -> float:
    """Anomaly-rate quantile of the validation densities.

    Uses linear interpolation between order statistics: with the m values
    sorted ascending and h = rate * (m - 1), the threshold is
    ``v[floor(h)] + (h - floor(h)) * (v[floor(h) + 1] - v[floor(h)])``.
    Rate 0 maps to -inf (nothing is anomalous), rate 1 to the maximum.
    The densities are a nonempty vector by the package's one vector rule.
    """
    values = _numbers(val_densities, "densities")
    values = _feature_vector(values, values.size, "densities")[0]
    if values.size == 0:
        raise InsufficientDataError("need a nonempty 1-D sequence of densities")
    rate = _rate("anomaly_rate", anomaly_rate)
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


def _fitted_space(train, val, anomaly_rate, standardize: bool):
    """``(train, val, shift, scale)``: both sets and the rate checked, then
    the sets z-scored by the standardizer fitted on ``train``, or as given
    (no shift or scale)."""
    train = _feature_matrix(train, min_rows=1)
    val = _feature_matrix(val, train.shape[1], min_rows=1)
    _rate("anomaly_rate", anomaly_rate)
    if not standardize:
        return train, val, None, None
    shift, scale = fit_standardizer(train)
    return (apply_standardizer(train, shift, scale), apply_standardizer(val, shift, scale),
            shift, scale)


def fit(train: np.ndarray, val: np.ndarray, anomaly_rate: float,
        cfg: FitConfig) -> tuple[DetectorModel, np.ndarray]:
    """Fit the full pipeline on unlabeled train/val feature matrices.

    Stages, in order: fit standardization on train (if enabled) and apply
    it to both sets; sample Fourier parameters from ``cfg.seed`` at
    ``cfg.sigma``, or when it is None at ``default_sigma_grid(train)[2]``,
    the median pairwise distance of the standardized train; refine them
    adaptively, on rows drawn from the same seed, when ``cfg.use_aff``
    (the model records whether that changed them); embed the training
    rows and serve their density matrix as its rank-k sketch when that
    is proven within ``FACTOR_BOUND`` (see ``sketch_density_matrix``),
    else average their outer products; estimate validation densities
    from the served form; set the threshold at the ``anomaly_rate`` quantile.

    Returns ``(model, val_densities)``.  The densities are bit-identical
    to ``predict_batch(model, val)[1]``, so callers need not score
    ``val`` again.
    """
    space = _fitted_space(train, val, anomaly_rate, cfg.standardize)
    if cfg.sigma is None:
        cfg = replace(cfg, sigma=default_sigma_grid(space[0], cfg.seed)[2])
    return _fit_in_space(space, anomaly_rate, cfg)


def _fit_in_space(space: tuple, anomaly_rate: float, cfg: FitConfig):
    """``fit`` on a ``_fitted_space`` result, at ``cfg.sigma``, which is set."""
    train, val, shift, scale = space
    params = sample_rff_params(train.shape[1], cfg.embed_dim, cfg.sigma, cfg.seed)
    used_aff = False
    if cfg.use_aff:
        refined = train_aff(params, train, cfg.aff, cfg.seed)
        # train_aff hands back its input when training is off or fell back.
        used_aff = refined is not params
        params = refined

    phi = embed(params, train)
    dm, bound = sketch_density_matrix(phi, cfg.seed)
    if dm is None:
        dm = build_density_matrix(phi)
    del phi  # the training embedding is not held while val is embedded
    val_densities = estimate_density_batch(dm, embed(params, val))
    theta = compute_threshold(val_densities, anomaly_rate)
    model = DetectorModel(params, dm, theta, anomaly_rate, used_aff, shift, scale, bound)
    return model, val_densities


def score(model: DetectorModel, x: np.ndarray) -> float:
    """Density of one sample under the fitted model (threshold-free)."""
    return float(score_batch(model, _feature_vector(x, model.input_dim))[0])


def predict(model: DetectorModel, x: np.ndarray) -> tuple[int, float]:
    """(label, density) for one sample."""
    labels, densities = predict_batch(model, _feature_vector(x, model.input_dim))
    return int(labels[0]), float(densities[0])


def score_batch(model: DetectorModel, x: np.ndarray) -> np.ndarray:
    """Density of each row of ``x`` under the fitted model (threshold-free).

    Rows stream through one block map (see :func:`_score_rows`), so memory
    does not grow with the batch beyond ``x`` and the result, and each
    density equals ``estimate_density_batch(model.dm, embed(model.embedding,
    model.standardize(x)))`` bit for bit.
    """
    x = model.standardize(_feature_matrix(x, model.input_dim))
    return _score_rows(model.embedding, model.dm, x)


def _score_rows(params: EmbeddingParams, dm: DensityMatrix | DensityFactor,
                x: np.ndarray) -> np.ndarray:
    """Densities of the rows of ``x``, already in the fitted space.

    Each ``_BLOCK``-row block is embedded into a zero-padded ``(_BLOCK, W)``
    buffer and scored from it, by the same two steps as :func:`embed` and
    :func:`estimate_density_batch`, in one ``_for_blocks`` call: a worker
    holds that buffer and a spare of its shape, and no embedding matrix is
    made.
    """
    weights_t = _pad_lanes(params.weights.T, 1)
    out = np.empty(x.shape[0])

    def score_block(start, block, phi, spare):
        count = _embed_block(params, x, start, block, spare, weights_t, phi, True)
        phi[count:] = 0.0
        _score_block(dm, phi, spare, out[start:start + count])

    width = weights_t.shape[1]
    _for_blocks(x.shape[0], score_block, params.input_dim, width, width)
    return out


def predict_batch(model: DetectorModel, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(labels, densities) for each row of ``x``."""
    densities = score_batch(model, x)
    return classify_batch(densities, model.theta), densities


def grid_search(train, val, val_labels, anomaly_rate, configs):
    """Exhaustive search over ``configs`` for the best weighted F1.

    Fits one model per config (training only on ``train``), scores ``val``,
    and returns ``(best_config, report)``, one report row per config in
    grid order; ties keep the earliest.  The configs share one ``seed`` and
    one ``standardize``, which fix the space they are fitted in: as in
    ``fit``, the standardizer is fitted on ``train``, once.  Every config
    sets ``sigma`` or none does; ``sigma=None`` stands for each sigma of
    that space's ``default_sigma_grid``, sigma outermost.  A grid that
    breaks these rules, or labels that are not {0, 1}, raise before any fit.
    """
    configs = list(configs)
    if not configs:
        raise InvalidArgumentError("grid values must be nonempty")
    first = configs[0]
    if any((c.seed, c.standardize) != (first.seed, first.standardize) for c in configs):
        raise InvalidArgumentError("grid configs must share one seed and one standardize")
    if len({c.sigma is None for c in configs}) > 1:
        raise InvalidArgumentError("either every grid config sets sigma or none does")
    space = _fitted_space(train, val, anomaly_rate, first.standardize)
    val_labels = _label_vector(val_labels, space[1].shape[0])
    if first.sigma is None:
        configs = [replace(cfg, sigma=sigma)
                   for sigma in default_sigma_grid(space[0], first.seed) for cfg in configs]

    report = []
    best_cfg = None
    best_f1 = -1.0
    for cfg in configs:
        model, val_densities = _fit_in_space(space, anomaly_rate, cfg)
        theta = model.theta
        del model  # its density matrix is not held while the next config fits
        pred = classify_batch(val_densities, theta)
        row = {
            "sigma": cfg.sigma,
            "embed_dim": cfg.embed_dim,
            "use_aff": cfg.use_aff,
            "theta": theta,
            "f1_weighted": metrics.f1_weighted(val_labels, pred),
            "f1_anomaly": metrics.f1_anomaly(val_labels, pred),
            "accuracy": metrics.accuracy(val_labels, pred),
        }
        report.append(row)
        if row["f1_weighted"] > best_f1:
            best_f1 = row["f1_weighted"]
            best_cfg = cfg
    return best_cfg, report


def fit_with_internal_split(features: np.ndarray, anomaly_rate: float,
                            cfg: FitConfig) -> DetectorModel:
    """Fit on one feature matrix, holding out a slice for the threshold.

    Used when a search phase already consumed the designated validation
    set: the rows are shuffled with the fit seed and 30% of them
    (``_REFIT_VAL_FRAC``) calibrate the threshold while the rest build the
    density matrix.
    """
    features = _feature_matrix(features, min_rows=2)
    m = features.shape[0]
    perm = stream(cfg.seed, DOMAIN_REFIT_SPLIT).permutation(m)
    n_val = min(max(1, _round_half_up(_REFIT_VAL_FRAC * m)), m - 1)
    val = features[perm[:n_val]]
    train = features[perm[n_val:]]
    model, _ = fit(train, val, anomaly_rate, cfg)
    return model
