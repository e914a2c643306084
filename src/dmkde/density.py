"""Mixed-state density matrix over embedded samples and density estimates.

The matrix is the average of the outer products of unit-norm embeddings,
``R = (1/n) sum_i phi_i phi_i^T``: symmetric, positive semidefinite,
trace 1.  The density estimate for a query embedding is the quadratic
form ``phi^T R phi``, whose cost depends only on the embedding dimension
and never on the number of training samples.  Every estimate, single or
batched, goes through one kernel that scores fixed-size row blocks as a
matrix product, under the package's one block rule (``_BLOCK`` below),
which :mod:`dmkde.embedding` shares.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, InvalidArgumentError

_SYMMETRY_TOL = 1e-12
_TRACE_TOL = 1e-9
_ENTRY_TOL = 1e-12
# The one fixed-shape block rule.  OpenBLAS picks its kernel from a GEMM's
# shape (GEMV for one row) and splits a partial tile differently by row
# position and thread count, so an unpadded row can change in its last bit
# with its batch or the thread count.  Every GEMM of embed, AFF, build and
# score runs on zero-padded _BLOCK-row blocks, its width rounded up to whole
# _LANES (_row_blocks, _pad_lanes).  The block bounds scoring temporaries to
# 2 MiB at D=1024 and runs at the GFLOP/s of a 256- or 512-row one.
_BLOCK = 128
_LANES = 8


@dataclass
class DensityMatrix:
    """Average outer product of ``sample_count`` unit-norm embeddings."""

    matrix: np.ndarray
    sample_count: int

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        self.sample_count = int(self.sample_count)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise InvalidArgumentError(f"matrix must be square, got shape {self.matrix.shape}")
        if self.sample_count < 1:
            raise InvalidArgumentError("sample_count must be >= 1")
        if not np.all(np.isfinite(self.matrix)):
            raise InvalidArgumentError("matrix contains non-finite entries")
        if _max_asymmetry(self.matrix) > _SYMMETRY_TOL:
            raise InvalidArgumentError("matrix is not symmetric")
        if abs(float(np.trace(self.matrix)) - 1.0) > _TRACE_TOL:
            raise InvalidArgumentError("matrix trace must equal 1")
        # max(max M, -min M) is max |M| without a D x D temporary.
        if max(self.matrix.max(), -self.matrix.min()) > 1.0 + _ENTRY_TOL:
            raise InvalidArgumentError("matrix entries must lie in [-1, 1]")

    @property
    def embed_dim(self) -> int:
        return self.matrix.shape[0]


def _max_asymmetry(matrix: np.ndarray) -> float:
    """Exact ``max |M - M^T|``, one 128 KiB ``_BLOCK``-square tile pair at a time."""
    dim = matrix.shape[0]
    worst = 0.0
    for i in range(0, dim, _BLOCK):
        for j in range(i, dim, _BLOCK):
            upper = matrix[i:i + _BLOCK, j:j + _BLOCK]
            lower = matrix[j:j + _BLOCK, i:i + _BLOCK]
            worst = max(worst, float(np.max(np.abs(upper - lower.T))))
    return worst


def _pad_lanes(a: np.ndarray, *axes: int) -> np.ndarray:
    """``a`` zero-padded along ``axes`` to whole lanes; ``a`` itself if aligned."""
    shape = list(a.shape)
    for axis in axes:
        shape[axis] = -(-shape[axis] // _LANES) * _LANES
    if tuple(shape) == a.shape:
        return a
    padded = np.zeros(shape)
    padded[tuple(slice(0, size) for size in a.shape)] = a
    return padded


def _row_blocks(rows: np.ndarray, width: int):
    """Yield ``(start, count, block)``: ``rows[start:start + count]`` in the
    top-left of one reused, zeroed ``(_BLOCK, width)`` buffer."""
    block = np.zeros((_BLOCK, width))
    m, dim = rows.shape
    for start in range(0, m, _BLOCK):
        count = min(_BLOCK, m - start)
        block[:count, :dim] = rows[start:start + count]
        block[count:] = 0.0
        yield start, count, block


def _as_embedding_matrix(embeddings) -> np.ndarray:
    if isinstance(embeddings, np.ndarray) and embeddings.ndim == 2:
        return np.asarray(embeddings, dtype=np.float64)
    rows = [np.asarray(e, dtype=np.float64) for e in embeddings]
    if not rows:
        return np.empty((0, 0))
    dims = {r.shape for r in rows}
    if len(dims) > 1 or rows[0].ndim != 1:
        raise InvalidArgumentError("embeddings must all be 1-D vectors of equal length")
    return np.vstack(rows)


def build_density_matrix(embeddings) -> DensityMatrix:
    """Average the outer products of the given unit-norm embeddings.

    Accepts a sequence of vectors or an (n, D) array.  The result is
    exactly symmetric: for a C-contiguous ``phi``, numpy computes
    ``phi.T @ phi`` as one triangle (BLAS ``syrk``) and mirrors it, so no
    explicit symmetrization is needed.  The width is zero-padded to whole
    lanes by the block rule (see ``_BLOCK``); a width that is already
    aligned is used as it is, without a copy.
    """
    phi = np.ascontiguousarray(_as_embedding_matrix(embeddings))
    if phi.shape[0] == 0:
        raise InsufficientDataError("cannot build a density matrix from zero embeddings")
    n, dim = phi.shape
    phi = _pad_lanes(phi, 1)
    return DensityMatrix((phi.T @ phi)[:dim, :dim] / n, n)


def merge_density_matrices(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    """Sample-weighted average of two density matrices.

    Merging the matrices of a partition of one embedding set equals
    building from the whole set, up to float addition order.
    """
    if a.embed_dim != b.embed_dim:
        raise InvalidArgumentError(
            f"dimension mismatch: {a.embed_dim} vs {b.embed_dim}"
        )
    total = a.sample_count + b.sample_count
    # Weight-first form keeps merge(a, a) bit-identical to a, even a valid a
    # with a skew below _SYMMETRY_TOL; exactly symmetric inputs give an
    # exactly symmetric sum.
    wa = a.sample_count / total
    wb = b.sample_count / total
    return DensityMatrix(wa * a.matrix + wb * b.matrix, total)


def estimate_density(dm: DensityMatrix, phi: np.ndarray) -> float:
    """Quadratic form ``phi^T R phi`` for a unit-norm query embedding.

    Equals the mean squared inner product with the embeddings the matrix
    was built from, and lies in [0, 1] up to roundoff.  Bit-identical to
    the same row scored by :func:`estimate_density_batch`.
    """
    phi = np.asarray(phi, dtype=np.float64)
    if phi.shape != (dm.embed_dim,):
        raise InvalidArgumentError(
            f"query must have shape ({dm.embed_dim},), got {phi.shape}"
        )
    return float(estimate_density_batch(dm, phi[np.newaxis])[0])


def estimate_density_batch(dm: DensityMatrix, phis) -> np.ndarray:
    """Densities for a sequence of query embeddings, in input order.

    Accepts a sequence of vectors or an (m, D) array.  Rows are scored as
    ``rowsum((block @ R) * block)`` in zero-padded blocks, with ``R``
    padded to whole lanes, by the block rule (see ``_BLOCK``): each
    density depends only on its own row, so a batch equals the per-query
    calls, and any split of it, bit for bit.  A single query therefore
    costs one whole block.
    """
    phis = _as_embedding_matrix(phis)
    if phis.shape == (0, 0):  # an empty sequence carries no width to check
        return np.empty(0)
    if phis.shape[1] != dm.embed_dim:
        raise InvalidArgumentError(f"queries must have shape (m, {dm.embed_dim}), got {phis.shape}")
    matrix = _pad_lanes(dm.matrix, 0, 1)
    out = np.empty(phis.shape[0])
    for start, count, block in _row_blocks(phis, matrix.shape[0]):
        out[start:start + count] = np.einsum("ij,ij->i", block @ matrix, block)[:count]
    return out
