"""Brute-force references that validate the fast path.

``kde_exact`` is classical Gaussian kernel density estimation with no
approximation; ``qde_bruteforce`` expands the density-matrix quadratic
form into an explicit per-sample sum; ``reference_classifier`` is the
whole detection pipeline with exact KDE in place of Fourier features.

The quadratic form approximates a squared-kernel transform of classical
KDE, not its raw value: comparisons against ``kde_exact`` are meaningful
on rankings and labels, with the KDE bandwidth set to sigma / sqrt(2)
(squaring a Gaussian kernel halves its effective variance).
"""

from __future__ import annotations

import math

import numpy as np

from .dataio import _feature_matrix, _feature_vector
from .detector import classify_batch, compute_threshold
from .errors import _positive

#: Bandwidth ratio under which exact KDE tracks the squared-kernel scores.
KDE_BANDWIDTH_RATIO = 1.0 / math.sqrt(2.0)

# Exact KDE scores up to 64 queries at once, holding at most 2^22 doubles
# (32 MiB) of differences to the training rows.
_KDE_BLOCK = 64
_KDE_ELEMENTS = 1 << 22


def kde_exact(train: np.ndarray, sigma: float, x: np.ndarray) -> float:
    """Exact Gaussian KDE value at ``x``:

    ``(1/n) sum_i (2 pi sigma^2)^(-d/2) exp(-||x - x_i||^2 / (2 sigma^2))``
    """
    train = _feature_matrix(train, min_rows=1)
    return float(kde_exact_batch(train, sigma, _feature_vector(x, train.shape[1]))[0])


def kde_exact_batch(train: np.ndarray, sigma: float, queries: np.ndarray) -> np.ndarray:
    """Exact KDE for each query row, in input order.

    Queries are scored in blocks of up to ``_KDE_BLOCK`` rows, fewer when
    the block's ``(queries, n, d)`` difference array would pass
    ``_KDE_ELEMENTS`` entries.  Each value depends only on its own query
    row, so any blocking gives the same bits.
    """
    train = _feature_matrix(train, min_rows=1)
    sigma = _positive("sigma", sigma)
    n, d = train.shape
    queries = _feature_matrix(queries, d)
    norm = (2.0 * np.pi * sigma ** 2) ** (-d / 2.0)
    block = max(1, min(_KDE_BLOCK, _KDE_ELEMENTS // max(1, n * d)))
    out = np.empty(queries.shape[0])
    for start in range(0, queries.shape[0], block):
        q = queries[start:start + block]
        sq = np.sum((train[np.newaxis] - q[:, np.newaxis]) ** 2, axis=2)
        out[start:start + block] = norm * np.mean(np.exp(-sq / (2.0 * sigma ** 2)), axis=1)
    return out


def qde_bruteforce(embeddings, phi: np.ndarray) -> float:
    """Mean squared inner product with the embeddings, by explicit loop.

    Never forms the density matrix; this is the anti-regression oracle
    for ``density.estimate_density``.
    """
    rows = _feature_matrix(embeddings, min_rows=1)
    phi = _feature_vector(phi, rows.shape[1])[0]
    total = 0.0
    for row in rows:
        ip = float(np.dot(row, phi))
        total += ip * ip
    return total / len(rows)


def reference_classifier(train, val, test, anomaly_rate: float, sigma: float) -> np.ndarray:
    """Labels for ``test`` from exact-KDE densities and quantile thresholding.

    Validation KDE densities set the threshold at the anomaly-rate
    quantile; test densities at or above it are normal (0), below it
    anomalous (1).
    """
    val, test = (_feature_matrix(rows, min_rows=1) for rows in (val, test))
    val_densities = kde_exact_batch(train, sigma, val)
    theta = compute_threshold(val_densities, anomaly_rate)
    test_densities = kde_exact_batch(train, sigma, test)
    return classify_batch(test_densities, theta)
