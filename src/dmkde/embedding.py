"""Fourier-feature embedding that approximates a Gaussian kernel.

The map is ``z(x) = sqrt(2/D) * cos(W x + b)`` with the rows of ``W``
drawn from N(0, 1/sigma^2 I) (the spectral density of the Gaussian
kernel with bandwidth ``sigma``) and ``b`` uniform on [0, 2*pi).  Inner
products of raw embeddings then approximate
``k(x, y) = exp(-||x - y||^2 / (2 sigma^2))``, and the final embedding
normalizes ``z(x)`` to unit length.

:func:`train_aff` refines ``W`` and ``b`` by full-batch gradient descent
on a pairwise kernel-matching loss, turning the random features into
adaptive ones.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateEmbeddingError, InsufficientDataError, InvalidArgumentError
from .rng import (
    DOMAIN_AFF_HOLDOUT,
    DOMAIN_AFF_PAIRS,
    DOMAIN_RFF_OFFSETS,
    DOMAIN_RFF_WEIGHTS,
    DOMAIN_SIGMA_SUBSET,
    standard_normal,
    stream,
)

_TWO_PI = 2.0 * np.pi

# Pairs processed per chunk when accumulating the AFF loss/gradient;
# bounds peak memory at ~6 * chunk * D doubles without changing results
# beyond float addition order.
_PAIR_CHUNK = 4096


@dataclass
class EmbeddingParams:
    """Parameters of the cosine feature map.

    ``weights`` has one spectral frequency per row (``embed_dim`` rows of
    length ``input_dim``), ``offsets`` one phase per output feature in
    [0, 2*pi), and ``sigma`` is the Gaussian kernel bandwidth the map
    approximates.
    """

    weights: np.ndarray
    offsets: np.ndarray
    sigma: float
    input_dim: int
    embed_dim: int

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.offsets = np.asarray(self.offsets, dtype=np.float64)
        self.sigma = float(self.sigma)
        self.input_dim = int(self.input_dim)
        self.embed_dim = int(self.embed_dim)
        if self.input_dim < 1 or self.embed_dim < 1:
            raise InvalidArgumentError("input_dim and embed_dim must be >= 1")
        if self.sigma <= 0 or not np.isfinite(self.sigma):
            raise InvalidArgumentError("sigma must be a positive finite real")
        if self.weights.shape != (self.embed_dim, self.input_dim):
            raise InvalidArgumentError(
                f"weights must have shape ({self.embed_dim}, {self.input_dim}), "
                f"got {self.weights.shape}"
            )
        if self.offsets.shape != (self.embed_dim,):
            raise InvalidArgumentError(
                f"offsets must have shape ({self.embed_dim},), got {self.offsets.shape}"
            )
        if not np.all(np.isfinite(self.weights)) or not np.all(np.isfinite(self.offsets)):
            raise InvalidArgumentError("weights and offsets must be finite")
        if np.any(self.offsets < 0) or np.any(self.offsets >= _TWO_PI):
            raise InvalidArgumentError("offsets must lie in [0, 2*pi)")


@dataclass
class AffConfig:
    """Gradient-descent settings for adaptive Fourier-feature training.

    ``num_pairs`` training pairs are sampled once (uniform indices,
    distinct within a pair) and reused every epoch; ``holdout_pairs``
    further pairs from an independent stream guard against regressions.
    If training worsens the held-out kernel-matching MSE, it restarts
    from the initial parameters with the learning rate halved, up to
    ``max_retries`` times, and falls back to the initial parameters when
    every retry fails.
    """

    num_pairs: int = 10_000
    epochs: int = 1000
    learning_rate: float = 1e-3
    seed: int = 0
    holdout_pairs: int = 1000
    max_retries: int = 3

    def __post_init__(self):
        if self.num_pairs < 1:
            raise InvalidArgumentError("num_pairs must be >= 1")
        if self.epochs < 0:
            raise InvalidArgumentError("epochs must be >= 0")
        if self.learning_rate <= 0:
            raise InvalidArgumentError("learning_rate must be > 0")
        if self.holdout_pairs < 1:
            raise InvalidArgumentError("holdout_pairs must be >= 1")
        if self.max_retries < 0:
            raise InvalidArgumentError("max_retries must be >= 0")


def sample_rff_params(input_dim: int, embed_dim: int, sigma: float, seed: int) -> EmbeddingParams:
    """Draw fresh random Fourier parameters for the Gaussian kernel.

    Weight entries are iid N(0, 1/sigma^2), offsets iid Uniform[0, 2*pi).
    The two draws use independent streams derived from ``seed``, so the
    result is bit-identical for identical arguments.
    """
    if input_dim < 1 or embed_dim < 1:
        raise InvalidArgumentError("input_dim and embed_dim must be >= 1")
    if sigma <= 0 or not np.isfinite(sigma):
        raise InvalidArgumentError("sigma must be a positive finite real")
    w_rng = stream(seed, DOMAIN_RFF_WEIGHTS)
    b_rng = stream(seed, DOMAIN_RFF_OFFSETS)
    weights = standard_normal(w_rng, (embed_dim, input_dim)) / float(sigma)
    offsets = _TWO_PI * b_rng.random(embed_dim)
    return EmbeddingParams(weights, offsets, float(sigma), int(input_dim), int(embed_dim))


def _check_inputs(params: EmbeddingParams, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != params.input_dim:
        raise InvalidArgumentError(
            f"expected vectors of length {params.input_dim}, got shape {x.shape}"
        )
    if not np.all(np.isfinite(x)):
        raise InvalidArgumentError("input contains non-finite values")
    return x


def embed_raw(params: EmbeddingParams, x: np.ndarray) -> np.ndarray:
    """Raw cosine features ``sqrt(2/D) * cos(W x + b)``.

    Accepts a single vector of length ``input_dim`` or a matrix with one
    sample per row; the output matches (length ``embed_dim`` per sample).
    """
    x = _check_inputs(params, x)
    scale = np.sqrt(2.0 / params.embed_dim)
    return scale * np.cos(x @ params.weights.T + params.offsets)


def _normalize_rows(raw: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(raw, axis=-1, keepdims=True)
    if np.any(norms == 0.0):
        raise DegenerateEmbeddingError("raw embedding is the zero vector; cannot normalize")
    return raw / norms


def embed(params: EmbeddingParams, x: np.ndarray) -> np.ndarray:
    """Unit-normalized embedding of ``x`` (single vector or rows)."""
    return _normalize_rows(embed_raw(params, x))


def gaussian_kernel(x, y, sigma: float):
    """exp(-||x - y||^2 / (2 sigma^2)), rowwise for 2-D inputs."""
    diff = np.asarray(x, dtype=np.float64) - np.asarray(y, dtype=np.float64)
    sq = np.sum(diff * diff, axis=-1)
    return np.exp(-sq / (2.0 * float(sigma) ** 2))


def _loss_and_grad(weights, offsets, lhs, rhs, targets, need_grad):
    """Kernel-matching MSE (and gradient) at raw parameter arrays.

    Operating on bare arrays lets gradient descent move ``offsets``
    outside [0, 2*pi) mid-run; callers wrap them before building an
    :class:`EmbeddingParams`.
    """
    n_pairs = lhs.shape[0]
    embed_dim = weights.shape[0]
    scale = 2.0 / embed_dim

    loss = 0.0
    grad_w = np.zeros_like(weights) if need_grad else None
    grad_b = np.zeros_like(offsets) if need_grad else None
    for start in range(0, n_pairs, _PAIR_CHUNK):
        stop = min(start + _PAIR_CHUNK, n_pairs)
        x, y, k = lhs[start:stop], rhs[start:stop], targets[start:stop]
        ax = x @ weights.T + offsets
        ay = y @ weights.T + offsets
        cx, cy = np.cos(ax), np.cos(ay)
        gram = scale * np.sum(cx * cy, axis=1)
        resid = gram - k
        loss += float(np.dot(resid, resid))
        if need_grad:
            sx, sy = np.sin(ax), np.sin(ay)
            # d(mean loss)/d gram_p = 2 * resid_p / n_pairs
            r = (2.0 / n_pairs) * resid
            left = sx * cy * r[:, None]
            right = cx * sy * r[:, None]
            grad_w -= scale * (left.T @ x + right.T @ y)
            grad_b -= scale * np.sum(left + right, axis=0)
    return loss / n_pairs, grad_w, grad_b


def pair_loss(params: EmbeddingParams, lhs: np.ndarray, rhs: np.ndarray) -> float:
    """Mean squared kernel-matching error over the given sample pairs.

    The residual per pair is the raw-embedding inner product minus the
    exact Gaussian kernel value at ``params.sigma``.
    """
    lhs = np.asarray(lhs, dtype=np.float64)
    rhs = np.asarray(rhs, dtype=np.float64)
    targets = gaussian_kernel(lhs, rhs, params.sigma)
    loss, _, _ = _loss_and_grad(params.weights, params.offsets, lhs, rhs, targets, False)
    return loss


def pair_loss_grad(params: EmbeddingParams, lhs: np.ndarray, rhs: np.ndarray):
    """Loss plus its analytic gradient w.r.t. ``weights`` and ``offsets``."""
    lhs = np.asarray(lhs, dtype=np.float64)
    rhs = np.asarray(rhs, dtype=np.float64)
    targets = gaussian_kernel(lhs, rhs, params.sigma)
    return _loss_and_grad(params.weights, params.offsets, lhs, rhs, targets, True)


def _sample_pair_indices(rng: np.random.Generator, n: int, count: int):
    """Uniform pairs (i, j) with j != i, deterministic given the stream."""
    i = rng.integers(0, n, size=count)
    j = (i + 1 + rng.integers(0, n - 1, size=count)) % n
    return i, j


def _wrap_offsets(offsets: np.ndarray) -> np.ndarray:
    wrapped = np.mod(offsets, _TWO_PI)
    # np.mod can round up to the modulus itself for tiny negatives
    return np.where(wrapped >= _TWO_PI, 0.0, wrapped)


def train_aff(init: EmbeddingParams, features: np.ndarray, cfg: AffConfig) -> EmbeddingParams:
    """Refine Fourier parameters by gradient descent on kernel matching.

    Runs ``cfg.epochs`` full-batch gradient steps over ``cfg.num_pairs``
    sampled training pairs; ``epochs == 0`` returns ``init`` unchanged.
    The returned parameters never have a worse held-out kernel-matching
    MSE than ``init`` (see :class:`AffConfig` for the retry rule).
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != init.input_dim:
        raise InvalidArgumentError(
            f"training features must be 2-D with {init.input_dim} columns"
        )
    if features.shape[0] < 2:
        raise InsufficientDataError("adaptive training needs at least 2 samples")
    if cfg.epochs == 0:
        return init

    n = features.shape[0]
    pi, pj = _sample_pair_indices(stream(cfg.seed, DOMAIN_AFF_PAIRS), n, cfg.num_pairs)
    hi, hj = _sample_pair_indices(stream(cfg.seed, DOMAIN_AFF_HOLDOUT), n, cfg.holdout_pairs)
    # Keep the holdout sample disjoint from the training pairs where possible.
    train_set = set(zip(pi.tolist(), pj.tolist()))
    keep = np.fromiter(
        ((a, b) not in train_set for a, b in zip(hi.tolist(), hj.tolist())),
        dtype=bool,
        count=len(hi),
    )
    if keep.any():
        hi, hj = hi[keep], hj[keep]

    lhs, rhs = features[pi], features[pj]
    targets = gaussian_kernel(lhs, rhs, init.sigma)
    hold_lhs, hold_rhs = features[hi], features[hj]
    hold_targets = gaussian_kernel(hold_lhs, hold_rhs, init.sigma)

    def holdout_mse(weights, offsets):
        return _loss_and_grad(weights, offsets, hold_lhs, hold_rhs, hold_targets, False)[0]

    baseline_mse = holdout_mse(init.weights, init.offsets)
    for attempt in range(cfg.max_retries + 1):
        lr = cfg.learning_rate / (2.0 ** attempt)
        weights = init.weights.copy()
        offsets = init.offsets.copy()
        diverged = False
        for _ in range(cfg.epochs):
            _, grad_w, grad_b = _loss_and_grad(weights, offsets, lhs, rhs, targets, True)
            weights -= lr * grad_w
            offsets -= lr * grad_b
            if not (np.all(np.isfinite(weights)) and np.all(np.isfinite(offsets))):
                diverged = True
                break
        if diverged:
            continue
        offsets = _wrap_offsets(offsets)
        if holdout_mse(weights, offsets) <= baseline_mse:
            return replace(init, weights=weights, offsets=offsets)
    return init


def default_sigma_grid(features: np.ndarray, subset_size: int = 1000, seed: int = 0) -> list[float]:
    """Candidate bandwidths around the median pairwise distance.

    Returns ``{2^k * median : k in -2..2}`` computed on a seeded subset
    of at most ``subset_size`` rows.  A zero median (all points equal)
    falls back to 1.0 so the grid stays usable.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[0] < 2:
        raise InsufficientDataError("need at least 2 samples to estimate a bandwidth grid")
    if features.shape[0] > subset_size:
        idx = stream(seed, DOMAIN_SIGMA_SUBSET).choice(features.shape[0], subset_size, replace=False)
        features = features[np.sort(idx)]
    # Imported here so that commands given a sigma never import scipy.spatial.
    from scipy.spatial.distance import pdist

    median = float(np.median(pdist(features)))
    if median <= 0.0:
        median = 1.0
    return [median * 2.0 ** k for k in range(-2, 3)]
