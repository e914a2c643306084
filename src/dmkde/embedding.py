"""Fourier-feature embedding that approximates a Gaussian kernel.

The map is ``z(x) = sqrt(2/D) * cos(W x + b)`` with the rows of ``W``
drawn from N(0, 1/sigma^2 I) (the spectral density of the Gaussian
kernel with bandwidth ``sigma``) and ``b`` uniform on [0, 2*pi).  Inner
products of raw embeddings then approximate
``k(x, y) = exp(-||x - y||^2 / (2 sigma^2))``, and the final embedding
normalizes ``z(x)`` to unit length.  :func:`embed` follows the
package's one fixed-shape block rule, defined in :mod:`dmkde.density`
(see ``_BLOCK`` there), so a row's embedding does not depend on its batch.

:func:`train_aff` refines ``W`` and ``b`` by full-batch gradient descent
on a pairwise kernel-matching loss, turning the random features into
adaptive ones.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dataio import _feature_matrix
from .density import _BLOCK, _for_blocks, _load, _pad_lanes
from .errors import DegenerateEmbeddingError, InvalidArgumentError
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
_SIGMA_SUBSET = 1000
_HOLDOUT_PAIRS = 1000
_MAX_RETRIES = 3


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
    distinct within a pair) and reused every epoch; ``_HOLDOUT_PAIRS``
    (1000) further pairs from an independent stream guard against
    regressions.  If training worsens the held-out kernel-matching MSE or
    diverges, it restarts from the initial parameters with the learning
    rate halved, up to ``_MAX_RETRIES`` (3) times, and falls back to the
    initial parameters when every retry fails.
    """

    num_pairs: int = 10_000
    epochs: int = 1000
    learning_rate: float = 1e-3

    def __post_init__(self):
        self.num_pairs = int(self.num_pairs)
        self.epochs = int(self.epochs)
        self.learning_rate = float(self.learning_rate)
        if self.num_pairs < 1:
            raise InvalidArgumentError("num_pairs must be >= 1")
        if self.epochs < 0:
            raise InvalidArgumentError("epochs must be >= 0")
        if self.learning_rate <= 0:
            raise InvalidArgumentError("learning_rate must be > 0")


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


def _phase(rows: np.ndarray, start: int, block: np.ndarray, weights_t: np.ndarray,
           offsets: np.ndarray) -> np.ndarray:
    """``rows[start:start + _BLOCK] @ W^T + b``, one row per row of the block.

    ``block`` is a ``(_BLOCK, d)`` buffer for :func:`dmkde.density._load`
    and ``weights_t`` is ``W^T`` padded to whole lanes, so every GEMM is
    ``(_BLOCK, d) @ (d, W)`` by the block rule of :mod:`dmkde.density`.
    Takes bare arrays, as training moves ``offsets`` outside [0, 2*pi) mid-run.
    """
    count = _load(block, rows, start)
    phase = (block @ weights_t)[:count, :offsets.shape[0]]
    phase += offsets
    return phase


def _embed_rows(params: EmbeddingParams, x: np.ndarray, normalize: bool) -> np.ndarray:
    """Cosine features of ``x``, one zero-padded block of rows at a time."""
    x = _check_inputs(params, x)
    rows = np.atleast_2d(x)
    scale = np.sqrt(2.0 / params.embed_dim)
    weights_t = _pad_lanes(params.weights.T, 1)
    out = np.empty((rows.shape[0], params.embed_dim))

    def embed_block(start, block):
        raw = _phase(rows, start, block, weights_t, params.offsets)
        np.cos(raw, out=raw)
        raw *= scale
        out[start:start + raw.shape[0]] = _normalize_rows(raw) if normalize else raw

    _for_blocks(rows.shape[0], embed_block, params.input_dim)
    return out if x.ndim == 2 else out[0]


def embed_raw(params: EmbeddingParams, x: np.ndarray) -> np.ndarray:
    """Raw cosine features ``sqrt(2/D) * cos(W x + b)``.

    Accepts a single vector of length ``input_dim`` or a matrix with one
    sample per row; the output matches (length ``embed_dim`` per sample).
    Each row's result is bit-identical whatever batch it is embedded in.
    """
    return _embed_rows(params, x, normalize=False)


def _normalize_rows(raw: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(raw, axis=-1, keepdims=True)
    if np.any(norms == 0.0):
        raise DegenerateEmbeddingError("raw embedding is the zero vector; cannot normalize")
    return raw / norms


def embed(params: EmbeddingParams, x: np.ndarray) -> np.ndarray:
    """Unit-normalized embedding of ``x`` (single vector or rows).

    Row-stable like :func:`embed_raw`: a sample embedded alone equals its
    row of any batch, bit for bit.
    """
    return _embed_rows(params, x, normalize=True)


def gaussian_kernel(x, y, sigma: float):
    """exp(-||x - y||^2 / (2 sigma^2)), rowwise for 2-D inputs."""
    diff = np.asarray(x, dtype=np.float64) - np.asarray(y, dtype=np.float64)
    sq = np.sum(diff * diff, axis=-1)
    return np.exp(-sq / (2.0 * float(sigma) ** 2))


@dataclass(frozen=True)
class _PairSet:
    """Sample pairs as indices into the distinct rows they touch.

    Pair ``p`` joins ``rows[left[p]]`` and ``rows[right[p]]`` and should
    have kernel value ``targets[p]``.  Each pair has two ends; ``owner``
    lists the row of every end in ascending order, ``partner`` the row at
    the other end of the same pair and ``pair`` the pair itself.
    ``block_ends[k]`` is the first end owned by a row at or after
    ``k * _BLOCK``.
    """

    rows: np.ndarray
    left: np.ndarray
    right: np.ndarray
    targets: np.ndarray
    owner: np.ndarray
    partner: np.ndarray
    pair: np.ndarray
    block_ends: np.ndarray


def _pair_set(features, i, j, targets) -> _PairSet:
    """Pairs ``(features[i[p]], features[j[p]])`` over the distinct rows they
    use, every pair end indexed by its row once for all later kernel calls."""
    n_pairs = i.shape[0]
    used, ends = np.unique(np.concatenate([i, j]), return_inverse=True)
    left, right = ends[:n_pairs], ends[n_pairs:]
    order = np.argsort(ends, kind="stable")
    owner = ends[order]
    block_starts = np.arange(0, used.shape[0] + _BLOCK, _BLOCK)
    return _PairSet(
        rows=features[used],
        left=left,
        right=right,
        targets=targets,
        owner=owner,
        partner=np.concatenate([right, left])[order],
        pair=np.tile(np.arange(n_pairs), 2)[order],
        block_ends=np.searchsorted(owner, block_starts),
    )


def _pair_kernel(weights, offsets, pairs: _PairSet, need_grad: bool):
    """Kernel-matching MSE (and gradient) over a prepared pair set.

    With ``C = cos(rows W^T + b)`` computed once per distinct row, pair p
    has Gram value ``(2/D) C[left_p] . C[right_p]`` and residual ``e_p``
    against its target.  The loss is ``mean(e^2)``.  Its gradient sums
    ``r_p C[partner]`` with ``r_p = 2 e_p / P`` onto each owning row,
    ``agg``; then ``G = sin(rows W^T + b) * agg``, ``grad_w = -(2/D) G^T rows``
    and ``grad_b = -(2/D) sum(G)``.  Trig work scales with the distinct
    rows, not with the pairs, and every temporary beyond the cosine table
    is a block of ``_BLOCK`` rows.  Both passes take their phases from
    :func:`_phase`, so a row's sine and cosine come from one phase.
    """
    n_rows, n_pairs = pairs.rows.shape[0], pairs.left.shape[0]
    embed_dim, input_dim = weights.shape
    scale = 2.0 / embed_dim
    weights_t = _pad_lanes(weights.T, 1)

    cos_table = np.empty((n_rows, embed_dim))

    def cos_block(start, block):
        phase = _phase(pairs.rows, start, block, weights_t, offsets)
        np.cos(phase, out=cos_table[start:start + phase.shape[0]])

    _for_blocks(n_rows, cos_block, input_dim)

    # Gathers write into preallocated buffers.  With mode="raise" np.take
    # copies through a temporary; every index here is in range, so "clip" is
    # safe.  The Gram and gradient loops run in block order on the calling
    # thread: their blocks are too cheap to repay a helper (wide_search's fit
    # ran 19% slower handed off), and the gradient is a sum.
    gram = np.empty(n_pairs)
    buf_a, buf_b = np.empty((_BLOCK, embed_dim)), np.empty((_BLOCK, embed_dim))
    for start in range(0, n_pairs, _BLOCK):
        stop = min(start + _BLOCK, n_pairs)
        a = np.take(cos_table, pairs.left[start:stop], axis=0,
                    out=buf_a[:stop - start], mode="clip")
        b = np.take(cos_table, pairs.right[start:stop], axis=0,
                    out=buf_b[:stop - start], mode="clip")
        np.multiply(a, b, out=a)
        np.sum(a, axis=1, out=gram[start:stop])
    gram *= scale
    resid = gram - pairs.targets
    loss = float(np.dot(resid, resid)) / n_pairs
    if not need_grad:
        return loss, None, None

    # d(mean loss)/d gram_p = 2 * resid_p / n_pairs
    r = (2.0 / n_pairs) * resid
    grad_w = np.zeros_like(weights)
    grad_b = np.zeros_like(offsets)
    block, agg = np.zeros((_BLOCK, input_dim)), np.empty((_BLOCK, embed_dim))

    # A function per block, so that its phase temporary is freed before the
    # next block's is made.
    def grad_block(start):
        g = _phase(pairs.rows, start, block, weights_t, offsets)
        count = g.shape[0]
        k = start // _BLOCK
        agg[:count] = 0.0
        # This row block owns a contiguous run of the sorted ends; take it
        # 128 ends at a time and sum each owning row's segment.  np.add.reduce
        # per segment adds rows in the same order as np.add.reduceat(axis=0)
        # but runs several times faster along axis 0.
        for lo in range(pairs.block_ends[k], pairs.block_ends[k + 1], _BLOCK):
            hi = min(lo + _BLOCK, pairs.block_ends[k + 1])
            terms = np.take(cos_table, pairs.partner[lo:hi], axis=0, out=buf_a[:hi - lo],
                            mode="clip")
            terms *= r[pairs.pair[lo:hi], None]
            owners = pairs.owner[lo:hi]
            firsts = np.flatnonzero(np.diff(owners, prepend=-1)).tolist()
            for first, end in zip(firsts, firsts[1:] + [hi - lo]):
                agg[owners[first] - start] += np.add.reduce(terms[first:end], axis=0)
        np.sin(g, out=g)
        g *= agg[:count]
        np.add(grad_w, g.T @ pairs.rows[start:start + count], out=grad_w)
        np.add(grad_b, np.sum(g, axis=0), out=grad_b)

    for start in range(0, n_rows, _BLOCK):
        grad_block(start)
    grad_w *= -scale
    grad_b *= -scale
    return loss, grad_w, grad_b


def _loss_and_grad(weights, offsets, lhs, rhs, targets, need_grad):
    """Kernel-matching MSE (and gradient) at raw parameter arrays.

    Operating on bare arrays lets gradient descent move ``offsets``
    outside [0, 2*pi) mid-run; callers wrap them before building an
    :class:`EmbeddingParams`.  Pair p is ``(lhs[p], rhs[p])``.
    """
    n_pairs = lhs.shape[0]
    pairs = _pair_set(np.concatenate([lhs, rhs]), np.arange(n_pairs),
                      n_pairs + np.arange(n_pairs), targets)
    return _pair_kernel(weights, offsets, pairs, need_grad)


def pair_loss(params: EmbeddingParams, lhs: np.ndarray, rhs: np.ndarray) -> float:
    """Mean squared kernel-matching error over the given sample pairs.

    The residual per pair is the raw-embedding inner product minus the
    exact Gaussian kernel value at ``params.sigma``, for pairs ``(lhs[p], rhs[p])``.
    """
    lhs = _feature_matrix(lhs, params.input_dim, min_rows=1)
    rhs = _feature_matrix(rhs, params.input_dim, min_rows=1)
    if lhs.shape != rhs.shape:
        raise InvalidArgumentError(f"lhs and rhs differ in shape: {lhs.shape}, {rhs.shape}")
    targets = gaussian_kernel(lhs, rhs, params.sigma)
    loss, _, _ = _loss_and_grad(params.weights, params.offsets, lhs, rhs, targets, False)
    return loss


def _sample_pair_indices(rng: np.random.Generator, n: int, count: int):
    """Uniform pairs (i, j) with j != i, deterministic given the stream."""
    i = rng.integers(0, n, size=count)
    j = (i + 1 + rng.integers(0, n - 1, size=count)) % n
    return i, j


def _wrap_offsets(offsets: np.ndarray) -> np.ndarray:
    wrapped = np.mod(offsets, _TWO_PI)
    # np.mod can round up to the modulus itself for tiny negatives
    return np.where(wrapped >= _TWO_PI, 0.0, wrapped)


def train_aff(init: EmbeddingParams, features: np.ndarray, cfg: AffConfig,
              seed: int) -> EmbeddingParams:
    """Refine Fourier parameters by gradient descent on kernel matching.

    Runs ``cfg.epochs`` full-batch gradient steps over ``cfg.num_pairs``
    training pairs drawn from ``seed``; ``epochs == 0`` returns ``init``
    unchanged.  A fit passes its own seed: the pair streams are apart
    from the ones :func:`sample_rff_params` draws from.
    The returned parameters never have a worse held-out kernel-matching
    MSE than ``init`` (see :class:`AffConfig` for the retry rule).
    """
    features = _feature_matrix(features, init.input_dim, min_rows=2)
    if cfg.epochs == 0:
        return init

    n = features.shape[0]
    pi, pj = _sample_pair_indices(stream(seed, DOMAIN_AFF_PAIRS), n, cfg.num_pairs)
    hi, hj = _sample_pair_indices(stream(seed, DOMAIN_AFF_HOLDOUT), n, _HOLDOUT_PAIRS)
    # Keep the holdout sample disjoint from the training pairs where possible.
    keep = ~np.isin(hi * n + hj, pi * n + pj)
    if keep.any():
        hi, hj = hi[keep], hj[keep]

    train_pairs, hold_pairs = (
        _pair_set(features, i, j, gaussian_kernel(features[i], features[j], init.sigma))
        for i, j in ((pi, pj), (hi, hj)))

    def holdout_mse(weights, offsets):
        return _pair_kernel(weights, offsets, hold_pairs, False)[0]

    baseline_mse = holdout_mse(init.weights, init.offsets)
    for attempt in range(_MAX_RETRIES + 1):
        lr = cfg.learning_rate / (2.0 ** attempt)
        weights = init.weights.copy()
        offsets = init.offsets.copy()
        diverged = False
        for _ in range(cfg.epochs):
            _, grad_w, grad_b = _pair_kernel(weights, offsets, train_pairs, True)
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


def _pairwise_distances(features: np.ndarray) -> np.ndarray:
    """Euclidean distance of every pair ``i < j``, in ``pdist`` order.

    Squared differences are summed one column at a time, in column order,
    which reproduces ``scipy.spatial.distance.pdist`` bit for bit without
    importing scipy.
    """
    i, j = np.triu_indices(features.shape[0], k=1)
    total = np.zeros(i.shape[0])
    for column in features.T:
        diff = column[i] - column[j]
        total += diff * diff
    return np.sqrt(total)


def default_sigma_grid(features: np.ndarray, seed: int = 0) -> list[float]:
    """Candidate bandwidths around the median pairwise distance.

    Returns ``{2^k * median : k in -2..2}`` computed on a seeded subset
    of at most ``_SIGMA_SUBSET`` (1000) rows.  A zero median (all points
    equal) falls back to 1.0 so the grid stays usable.
    """
    features = _feature_matrix(features, min_rows=2)
    if features.shape[0] > _SIGMA_SUBSET:
        idx = stream(seed, DOMAIN_SIGMA_SUBSET).choice(len(features), _SIGMA_SUBSET, replace=False)
        features = features[np.sort(idx)]
    median = float(np.median(_pairwise_distances(features)))
    if median <= 0.0:
        median = 1.0
    return [median * 2.0 ** k for k in range(-2, 3)]
