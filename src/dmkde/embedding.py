"""Fourier-feature embedding that approximates a Gaussian kernel.

The map is ``z(x) = sqrt(2/D) * cos(W x + b)`` with the rows of ``W``
drawn from N(0, 1/sigma^2 I) (the spectral density of the Gaussian
kernel with bandwidth ``sigma``) and ``b`` uniform on [0, 2*pi).  Inner
products of raw embeddings then approximate
``k(x, y) = exp(-||x - y||^2 / (2 sigma^2))``, and the final embedding
normalizes ``z(x)`` to unit length.  :func:`embed` follows the
package's one fixed-shape block rule, defined in :mod:`dmkde.density`
(see ``_BLOCK`` there), so a row's embedding does not depend on its batch.

:func:`train_aff` refines ``W`` and ``b`` with Adam on a kernel-matching
loss over every pair of a seeded subset of the training rows, turning the
random features into adaptive ones.  That loss is a Gram matrix of the
subset's cosine features, so its work is GEMMs on padded row blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dataio import _feature_matrix, _feature_vector, _numbers
from .density import _BLOCK, _CHUNK, _for_blocks, _load, _pad_lanes, _whole_lanes
from .errors import DegenerateEmbeddingError, InvalidArgumentError, _count, _positive
from .rng import (
    _TWO_PI,
    DOMAIN_AFF_ROWS,
    DOMAIN_RFF_OFFSETS,
    DOMAIN_RFF_WEIGHTS,
    DOMAIN_SIGMA_SUBSET,
    standard_normal,
    stream,
)

_SIGMA_SUBSET = 1000
_HOLDOUT_PAIRS = 1000
_MAX_RETRIES = 3
# Adam's decay rates and denominator guard (Kingma & Ba, ICLR 2015).
_BETA1 = 0.9
_BETA2 = 0.999
_EPSILON = 1e-8


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
        self.weights = _numbers(self.weights, "weights")
        self.offsets = _numbers(self.offsets, "offsets")
        self.sigma = _positive("sigma", self.sigma)
        self.input_dim = _count("input_dim", self.input_dim, 1)
        self.embed_dim = _count("embed_dim", self.embed_dim, 1)
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
    """Adam settings for adaptive Fourier-feature training.

    Training matches the kernel on every pair of ``m`` training rows, the
    smallest ``m`` with ``m(m - 1)/2 >= num_pairs``, at most the row count:
    1000 pairs take 46 rows (1035 pairs).  The same rule turns
    ``_HOLDOUT_PAIRS`` (1000) into the held-out rows that guard against
    regressions.  One seeded permutation draws both sets, disjoint where
    there are rows enough.  If training worsens the held-out
    kernel-matching MSE or diverges, it restarts from the initial
    parameters with the learning rate halved, up to ``_MAX_RETRIES`` (3)
    times, and falls back to the initial parameters when every retry fails.
    """

    num_pairs: int = 10_000
    epochs: int = 1000
    learning_rate: float = 1e-3

    def __post_init__(self):
        self.num_pairs = _count("num_pairs", self.num_pairs, 1)
        self.epochs = _count("epochs", self.epochs, 0)
        self.learning_rate = _positive("learning_rate", self.learning_rate)


def sample_rff_params(input_dim: int, embed_dim: int, sigma: float, seed: int) -> EmbeddingParams:
    """Draw fresh random Fourier parameters for the Gaussian kernel.

    Weight entries are iid N(0, 1/sigma^2), offsets iid Uniform[0, 2*pi).
    The two draws use independent streams derived from ``seed``, so the
    result is bit-identical for identical arguments.
    """
    input_dim, embed_dim = _count("input_dim", input_dim, 1), _count("embed_dim", embed_dim, 1)
    sigma = _positive("sigma", sigma)
    w_rng = stream(seed, DOMAIN_RFF_WEIGHTS)
    b_rng = stream(seed, DOMAIN_RFF_OFFSETS)
    weights = standard_normal(w_rng, (embed_dim, input_dim)) / sigma
    offsets = _TWO_PI * b_rng.random(embed_dim)
    return EmbeddingParams(weights, offsets, sigma, input_dim, embed_dim)


def _phase(rows: np.ndarray, start: int, block: np.ndarray, spare: np.ndarray,
           weights_t: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """``rows[start:start + _BLOCK] @ W^T + b``, one row per row of the block,
    as a view of ``spare``.

    ``block`` is a ``(_BLOCK, d)`` buffer for :func:`dmkde.density._load`,
    ``weights_t`` is ``W^T`` padded to whole lanes and ``spare`` a buffer of
    its shape, so every GEMM is ``(_BLOCK, d) @ (d, W)`` by the block rule
    of :mod:`dmkde.density`.  Shared by :func:`_embed_block` and
    :class:`_GramKernel`, so it takes bare arrays: training moves
    ``offsets`` outside [0, 2*pi) mid-run.
    """
    count = _load(block, rows, start)
    phase = np.matmul(block, weights_t, out=spare)[:count, :offsets.shape[0]]
    phase += offsets
    return phase


def _embed_block(params: EmbeddingParams, rows: np.ndarray, start: int, block: np.ndarray,
                 spare: np.ndarray, weights_t: np.ndarray, out: np.ndarray,
                 normalize: bool) -> int:
    """Cosine features of ``rows[start:start + _BLOCK]`` into the first rows
    and ``D`` columns of ``out``, unit-normalized when ``normalize``; returns
    how many rows.  Buffers as for :func:`_phase`.  The one embedding step
    of :func:`embed`, :func:`embed_raw` and ``detector.score_batch``."""
    phase = _phase(rows, start, block, spare, weights_t, params.offsets)
    raw = np.cos(phase, out=out[:phase.shape[0], :params.embed_dim])
    raw *= np.sqrt(2.0 / params.embed_dim)
    if normalize:
        _normalize_rows(raw, spare)
    return raw.shape[0]


def _embed_rows(params: EmbeddingParams, x: np.ndarray, normalize: bool) -> np.ndarray:
    """Cosine features of ``x``, one vector or rows, one zero-padded block of
    rows at a time."""
    x = _numbers(x)
    rows = (_feature_vector if x.ndim == 1 else _feature_matrix)(x, params.input_dim)
    weights_t = _pad_lanes(params.weights.T, 1)
    out = np.empty((rows.shape[0], params.embed_dim))

    def embed_block(start, block, spare):
        _embed_block(params, rows, start, block, spare, weights_t, out[start:], normalize)

    _for_blocks(rows.shape[0], embed_block, params.input_dim, weights_t.shape[1])
    return out[0] if x.ndim == 1 else out


def embed_raw(params: EmbeddingParams, x: np.ndarray) -> np.ndarray:
    """Raw cosine features ``sqrt(2/D) * cos(W x + b)``.

    Accepts a single vector of length ``input_dim`` or a matrix with one
    sample per row; the output matches (length ``embed_dim`` per sample).
    Each row's result is bit-identical whatever batch it is embedded in.
    """
    return _embed_rows(params, x, normalize=False)


def _normalize_rows(raw: np.ndarray, spare: np.ndarray) -> None:
    """Divide each row of ``raw`` by its Euclidean norm, in place.  The norm
    is ``np.linalg.norm``'s, ``sqrt(add.reduce(raw * raw))``, with the
    squares written into the front of ``spare``."""
    squares = np.multiply(raw, raw, out=spare[:raw.shape[0], :raw.shape[1]])
    norms = np.sqrt(np.add.reduce(squares, axis=-1, keepdims=True))
    if np.any(norms == 0.0):
        raise DegenerateEmbeddingError("raw embedding is the zero vector; cannot normalize")
    np.divide(raw, norms, out=raw)


def embed(params: EmbeddingParams, x: np.ndarray) -> np.ndarray:
    """Unit-normalized embedding of ``x`` (single vector or rows).

    Row-stable like :func:`embed_raw`: a sample embedded alone equals its
    row of any batch, bit for bit.
    """
    return _embed_rows(params, x, normalize=True)


def gaussian_kernel(x, y, sigma: float):
    """exp(-||x - y||^2 / (2 sigma^2)), rowwise for 2-D inputs.

    ``x`` and ``y`` are each one sample or rows of ``x``'s width, by the
    package's one rules; a sample against rows broadcasts.
    """
    x, y = _numbers(x), _numbers(y)
    width = x.shape[-1] if x.ndim else 0
    x, y = (_feature_vector(a, width)[0] if a.ndim == 1 else _feature_matrix(a, width)
            for a in (x, y))
    diff = x - y
    sq = np.sum(diff * diff, axis=-1)
    return np.exp(-sq / (2.0 * _positive("sigma", sigma) ** 2))


class _GramKernel:
    """Kernel-matching MSE (and gradient) over every pair ``i < j`` of ``rows``.

    ``targets`` holds the pairs' kernel values in ``np.triu_indices`` order.
    With ``C = cos(rows W^T + b)``, ``E = (2/D) C C^T - K`` with a zero
    diagonal and ``P = m(m - 1)/2`` pairs of the ``m`` rows, the loss is
    ``sum_{i<j} E_ij^2 / P``, ``dL/dC = (4/(PD)) E C``,
    ``G = -sin(rows W^T + b) * dL/dC``, ``grad_w = G^T rows`` and
    ``grad_b`` sums ``G`` over rows.  ``C`` and the sines are tables of the
    rows zero-padded to whole blocks, with phases from :func:`_phase`, so
    ``C C^T`` and ``E C`` are GEMMs of ``_BLOCK``-row blocks by the block
    rule of :mod:`dmkde.density`.  The phases, those products and the
    gradient's sum over blocks run in block order on the calling thread.

    The tables and phase buffers are made once, for the rows and a width of
    ``embed_dim``, and every call rewrites what it reads: the phase buffers,
    the live rows and columns of ``C`` and the sines, the Gram matrix, and
    both triangles of ``E``.  The tables' pads and ``E``'s diagonal are
    never written and stay zero.
    """

    def __init__(self, rows, targets, embed_dim, need_grad):
        self.rows, self.targets, self.need_grad = rows, targets, need_grad
        padded = -(-rows.shape[0] // _BLOCK) * _BLOCK
        self.tiles = [slice(start, start + _BLOCK) for start in range(0, padded, _BLOCK)]
        self.upper = np.triu_indices(rows.shape[0], 1)
        self.cos = np.zeros((padded, _whole_lanes(embed_dim)))
        self.gram = np.empty((padded, padded))
        self.block = np.zeros((_BLOCK, rows.shape[1]))
        self.spare = np.zeros((_BLOCK, self.cos.shape[1]))
        if need_grad:
            self.sin = np.zeros_like(self.cos)
            self.err = np.zeros_like(self.gram)

    def __call__(self, weights, offsets):
        """``(loss, grad_w, grad_b)`` at ``weights`` and ``offsets``, with
        ``None`` for the gradients unless ``need_grad``."""
        rows, cos, gram = self.rows, self.cos, self.gram
        input_dim = rows.shape[1]
        embed_dim = weights.shape[0]
        weights_t = _pad_lanes(weights.T, 1)
        for tile in self.tiles:
            phase = _phase(rows, tile.start, self.block, self.spare, weights_t, offsets)
            live = slice(tile.start, tile.start + phase.shape[0])
            np.cos(phase, out=cos[live, :embed_dim])
            if self.need_grad:
                np.sin(phase, out=self.sin[live, :embed_dim])
        for tile in self.tiles:
            np.matmul(cos[tile], cos.T, out=gram[tile])
        resid = (2.0 / embed_dim) * gram[self.upper] - self.targets
        n_pairs = resid.shape[0]
        # Not np.dot: OpenBLAS splits a long ddot over its threads.
        loss = float(np.sum(resid * resid)) / n_pairs
        if not self.need_grad:
            return loss, None, None

        err = self.err
        resid += 0.0  # E = E + E^T from one triangle would turn -0.0 into +0.0
        err[self.upper] = resid
        err.T[self.upper] = resid
        grad_w = np.zeros((cos.shape[1], input_dim))
        grad_b = np.zeros(cos.shape[1])
        for tile in self.tiles:
            g = err[tile] @ cos
            g *= self.sin[tile]
            _load(self.block, rows, tile.start)
            grad_w += g.T @ self.block
            grad_b += np.sum(g, axis=0)
        scale = -4.0 / (n_pairs * embed_dim)
        return loss, scale * grad_w[:embed_dim], scale * grad_b[:embed_dim]


def _gram_kernel(weights, offsets, rows, targets, need_grad):
    """One :class:`_GramKernel` call on tables made for it."""
    return _GramKernel(rows, targets, weights.shape[0], need_grad)(weights, offsets)


def pair_loss(params: EmbeddingParams, lhs: np.ndarray, rhs: np.ndarray) -> float:
    """Mean squared kernel-matching error over the sample pairs ``(lhs[p], rhs[p])``.

    A pair's residual is the inner product of its ends' :func:`embed_raw`
    rows, the random-feature estimate of the kernel, minus the exact
    Gaussian kernel at ``params.sigma``.  Pairs are embedded ``_CHUNK`` at
    a time, so memory does not grow with the pair count times ``D``.
    """
    lhs = _feature_matrix(lhs, params.input_dim, min_rows=1)
    rhs = _feature_matrix(rhs, params.input_dim, min_rows=1)
    if lhs.shape != rhs.shape:
        raise InvalidArgumentError(f"lhs and rhs differ in shape: {lhs.shape}, {rhs.shape}")
    resid = np.empty(lhs.shape[0])
    for start in range(0, lhs.shape[0], _CHUNK):
        x, y = lhs[start:start + _CHUNK], rhs[start:start + _CHUNK]
        resid[start:start + _CHUNK] = (np.sum(embed_raw(params, x) * embed_raw(params, y), axis=1)
                                       - gaussian_kernel(x, y, params.sigma))
    # Not np.dot: OpenBLAS splits a long ddot over its threads.
    return float(np.sum(resid * resid)) / resid.shape[0]


def _wrap_offsets(offsets: np.ndarray) -> np.ndarray:
    wrapped = np.mod(offsets, _TWO_PI)
    # np.mod can round up to the modulus itself for tiny negatives
    return np.where(wrapped >= _TWO_PI, 0.0, wrapped)


def _rows_for(pairs: int, n: int) -> int:
    """The smallest ``m`` with ``m(m - 1)/2 >= pairs``, at most ``n``."""
    return min((math.isqrt(8 * pairs - 7) + 3) // 2, n)


def _aff_rows(n: int, num_pairs: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices of AFF's training and held-out rows among ``n``, drawn by one
    permutation from ``seed``.  The held-out rows follow the training rows,
    and overlap them only when ``n`` is too small for both."""
    count, held = _rows_for(num_pairs, n), _rows_for(_HOLDOUT_PAIRS, n)
    order = stream(seed, DOMAIN_AFF_ROWS).permutation(n)
    first = min(count, n - held)
    return order[:count], order[first:first + held]


def train_aff(init: EmbeddingParams, features: np.ndarray, cfg: AffConfig,
              seed: int) -> EmbeddingParams:
    """Refine Fourier parameters with Adam on kernel matching.

    Runs ``cfg.epochs`` full-batch Adam steps (decay rates ``_BETA1`` and
    ``_BETA2``, guard ``_EPSILON``) on the kernel-matching MSE over every
    pair of the training rows, which a permutation drawn from ``seed``
    picks as :class:`AffConfig` describes.  ``epochs == 0`` returns
    ``init`` itself.  A fit passes its own seed: the permutation's stream
    is apart from the ones :func:`sample_rff_params` draws from.  The
    returned parameters never have a worse held-out kernel-matching MSE
    than ``init``, and are ``init`` itself when training fell back (see
    :class:`AffConfig` for the retry rule).
    """
    features = _feature_matrix(features, init.input_dim, min_rows=2)
    if cfg.epochs == 0:
        return init

    train_rows, hold_rows = (features[rows]
                             for rows in _aff_rows(features.shape[0], cfg.num_pairs, seed))
    train_k, hold_k = (np.exp(-_pairwise_sq(rows) / (2.0 * init.sigma ** 2))
                       for rows in (train_rows, hold_rows))

    def holdout_mse(weights, offsets):
        return _gram_kernel(weights, offsets, hold_rows, hold_k, False)[0]

    baseline_mse = holdout_mse(init.weights, init.offsets)
    for attempt in range(_MAX_RETRIES + 1):
        params = [init.weights.copy(), init.offsets.copy()]
        # The training tables live for one attempt's epochs: they are freed
        # before the held-out check makes its own.
        if _adam(params, _GramKernel(train_rows, train_k, init.embed_dim, True),
                 cfg.learning_rate / (2.0 ** attempt), cfg.epochs):
            weights, offsets = params[0], _wrap_offsets(params[1])
            if holdout_mse(weights, offsets) <= baseline_mse:
                return replace(init, weights=weights, offsets=offsets)
    return init


def _adam(params: list, loss: _GramKernel, lr: float, epochs: int) -> bool:
    """Run ``epochs`` full-batch Adam steps on ``params`` in place, with
    the gradients ``loss`` gives; False as soon as a parameter is not finite."""
    moments = [(np.zeros_like(p), np.zeros_like(p)) for p in params]
    for step in range(1, epochs + 1):
        _, *grads = loss(*params)
        for param, grad, (mean, square) in zip(params, grads, moments):
            mean *= _BETA1
            mean += (1.0 - _BETA1) * grad
            square *= _BETA2
            square += (1.0 - _BETA2) * grad * grad
            param -= (lr / (1.0 - _BETA1 ** step)) * mean / (
                np.sqrt(square / (1.0 - _BETA2 ** step)) + _EPSILON)
        if not all(np.all(np.isfinite(param)) for param in params):
            return False
    return True


def _pairwise_sq(features: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance of every pair ``i < j``, in ``pdist`` order.

    Squared differences are summed one column at a time, in column order,
    so the square roots reproduce ``scipy.spatial.distance.pdist`` bit for
    bit without importing scipy.  The pairs of each ``_BLOCK``-row block of
    rows ``i`` are one run of the result, filled by one ``_for_blocks``
    call: the block's rows against every row after its first make a
    rectangle whose row for ``i`` holds ``i``'s pairs from its diagonal on.
    No index table or gathered copy is made.
    """
    count = features.shape[0]
    columns = np.ascontiguousarray(features.T)
    out = np.empty(count * (count - 1) // 2)

    def block_pairs(start, total, square):
        height = min(_BLOCK, count - start)
        total, square = (buffer[:height, :count - start - 1] for buffer in (total, square))
        for k, column in enumerate(columns):
            term = square if k else total
            np.subtract(column[start:start + height, np.newaxis], column[start + 1:], out=term)
            np.multiply(term, term, out=term)
            if k:
                total += square
        for row in range(height):
            i = start + row
            first = i * (2 * count - i - 1) // 2
            out[first:first + count - 1 - i] = total[row, row:]

    _for_blocks(count, block_pairs, count - 1, count - 1)
    return out


def default_sigma_grid(features: np.ndarray, seed: int = 0) -> list[float]:
    """Candidate bandwidths around the median pairwise distance.

    Returns ``{2^k * median : k in -2..2}`` computed on a seeded subset
    of at most ``_SIGMA_SUBSET`` (1000) rows.  A zero median (all points
    equal) falls back to 1.0 so the grid stays usable.  The distances are
    one vector, rooted and partitioned in place: ``overwrite_input`` runs
    the partition ``np.median`` runs on a copy, so the median is the same.
    """
    seed = _count("seed", seed, 0)
    features = _feature_matrix(features, min_rows=2)
    if features.shape[0] > _SIGMA_SUBSET:
        idx = stream(seed, DOMAIN_SIGMA_SUBSET).choice(len(features), _SIGMA_SUBSET, replace=False)
        features = features[np.sort(idx)]
    distances = _pairwise_sq(features)
    median = float(np.median(np.sqrt(distances, out=distances), overwrite_input=True))
    if median <= 0.0:
        median = 1.0
    return [median * 2.0 ** k for k in range(-2, 3)]
