"""Mixed-state density matrix over embedded samples and density estimates.

The matrix is the average of the outer products of unit-norm embeddings,
``R = (1/n) sum_i phi_i phi_i^T``: symmetric, positive semidefinite,
trace 1.  The density estimate for a query embedding is the quadratic
form ``phi^T R phi``, whose cost depends only on the embedding dimension
and never on the number of training samples.  Every estimate, single or
batched, goes through one kernel that scores fixed-size row blocks as a
matrix product, under the package's one block rule (``_BLOCK`` below),
which :mod:`dmkde.embedding` shares.

When fewer samples than dimensions span ``R``, :func:`sketch_density_matrix`
serves it instead as a rank-``_RANK`` Nystrom factor ``F`` with
``R ~ F F^T`` and a proven bound on the density error, scored as
``||F^T phi||^2`` (:class:`DensityFactor`).
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from .dataio import _feature_matrix, _feature_vector, _numbers
from .errors import InvalidArgumentError, _count
from .rng import DOMAIN_NYSTROM, standard_normal, stream

_SYMMETRY_TOL = 1e-12
_TRACE_TOL = 1e-9
_ENTRY_TOL = 1e-12
# The one fixed-shape block rule.  OpenBLAS picks its kernel from a GEMM's
# shape (GEMV for one row) and splits a partial tile differently by row
# position and thread count, so an unpadded row can change in its last bit
# with its batch or the thread count.  Every GEMM of embed, AFF, build and
# score runs on zero-padded _BLOCK-row blocks, its width rounded up to whole
# _LANES (_for_blocks, _load, _whole_lanes, _pad_lanes).  A block buffer is
# 1 MiB at D=1024, and a block runs at the GFLOP/s of a 256- or 512-row one.
# As no row's bits depend on the others, the blocks of embed, score and the
# sigma grid's distances may run at once, in any order, on the _WORKERS
# threads of _for_blocks.  Sums over blocks (the sketch's Y, AFF's gradient),
# all of AFF's kernel and loops too cheap to hand off run in block order on
# the calling thread, so every result keeps its bits at any worker count.
_BLOCK = 128
_LANES = 8
# The Nystrom factor's rank, a constant: a 96-square Cholesky factor and
# its inverse come out bit-identical at 1 and 2 BLAS threads, while above
# about 100 OpenBLAS threads potrf and getrf and the bits change.
_RANK = 96
# A factor is served only when its density error bound is at most this,
# the fast-versus-brute-force tolerance of acceptance criterion 1.
FACTOR_BOUND = 1e-9


@dataclass
class DensityMatrix:
    """Average outer product of ``sample_count`` unit-norm embeddings."""

    matrix: np.ndarray
    sample_count: int

    def __post_init__(self):
        self.matrix = _numbers(self.matrix, "matrix")
        self.sample_count = _count("sample_count", self.sample_count, 1)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise InvalidArgumentError(f"matrix must be square, got shape {self.matrix.shape}")
        # max M and min M are NaN when an entry is NaN and infinite when one is
        # infinite, so they check finiteness and give max |M| with no D x D
        # temporary.
        high, low = ((float(self.matrix.max()), float(self.matrix.min())) if self.matrix.size
                     else (0.0, 0.0))
        if not (np.isfinite(high) and np.isfinite(low)):
            raise InvalidArgumentError("matrix contains non-finite entries")
        if _max_asymmetry(self.matrix) > _SYMMETRY_TOL:
            raise InvalidArgumentError("matrix is not symmetric")
        if abs(float(np.trace(self.matrix)) - 1.0) > _TRACE_TOL:
            raise InvalidArgumentError("matrix trace must equal 1")
        if max(high, -low) > 1.0 + _ENTRY_TOL:
            raise InvalidArgumentError("matrix entries must lie in [-1, 1]")
        # Padded to whole lanes once here, and ``matrix`` is a view of it.
        self._padded = _pad_lanes(self.matrix, 0, 1)
        self.matrix = self._padded[:self.embed_dim, :self.embed_dim]

    @property
    def embed_dim(self) -> int:
        return self.matrix.shape[0]


@dataclass
class DensityFactor:
    """Rank-``k`` factor ``F`` (``embed_dim`` x ``k``) of a density matrix,
    ``R ~ F F^T``, built from ``sample_count`` embeddings.  Unlike
    :class:`DensityMatrix` it is a serving form, not a mergeable
    accumulator.  ``tr(F F^T) = ||F||_F^2`` is 1 within the trace tolerance,
    as :func:`sketch_density_matrix` guarantees for any factor it serves.
    """

    factor: np.ndarray
    sample_count: int

    def __post_init__(self):
        self.factor = _numbers(self.factor, "factor")
        self.sample_count = _count("sample_count", self.sample_count, 1)
        if self.factor.ndim != 2 or not 1 <= self.factor.shape[1] <= self.factor.shape[0]:
            raise InvalidArgumentError(f"factor must be D x k with k <= D, got {self.factor.shape}")
        if not np.all(np.isfinite(self.factor)):
            raise InvalidArgumentError("factor contains non-finite entries")
        if abs(float(np.sum(self.factor * self.factor)) - 1.0) > _TRACE_TOL:
            raise InvalidArgumentError("factor trace ||F||_F^2 must equal 1")
        # Padded to whole lanes once here, not on every scoring call.
        self._padded = _pad_lanes(self.factor, 0)

    @property
    def embed_dim(self) -> int:
        return self.factor.shape[0]

    @property
    def rank(self) -> int:
        return self.factor.shape[1]


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


def _whole_lanes(size: int) -> int:
    """``size`` rounded up to a multiple of ``_LANES``."""
    return -(-size // _LANES) * _LANES


def _pad_lanes(a: np.ndarray, *axes: int) -> np.ndarray:
    """``a`` zero-padded along ``axes`` to whole lanes: ``a`` itself if
    aligned, the array ``a`` is the top-left view of if that is ``a`` padded
    with zeros already (as ``build_density_matrix`` leaves R), else a copy."""
    shape = list(a.shape)
    for axis in axes:
        shape[axis] = _whole_lanes(shape[axis])
    if tuple(shape) == a.shape:
        return a
    base = a.base
    if (isinstance(base, np.ndarray) and base.shape == tuple(shape)
            and base.dtype == a.dtype and base.strides == a.strides
            and base.ctypes.data == a.ctypes.data
            and not any(base[(slice(None),) * axis + (slice(a.shape[axis], None),)].any()
                        for axis in axes)):
        return base
    padded = np.zeros(shape)
    padded[tuple(slice(0, size) for size in a.shape)] = a
    return padded


def _load(block: np.ndarray, rows: np.ndarray, start: int) -> int:
    """Copy ``rows[start:start + _BLOCK]`` into the top-left of ``block``, zero
    the rows below them, and return how many rows were copied."""
    count = min(_BLOCK, rows.shape[0] - start)
    block[:count, :rows.shape[1]] = rows[start:start + count]
    block[count:] = 0.0
    return count


def _worker_count() -> int:
    """The CPUs this process may use over the threads one BLAS call takes,
    so that workers and BLAS never oversubscribe them.  BLAS threads are the
    first of ``OPENBLAS_NUM_THREADS`` and ``OMP_NUM_THREADS`` that is a
    positive int; with neither, BLAS is taken to use every CPU."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            threads = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if threads > 0:
            return max(1, cpus // threads)
    return 1


_WORKERS = _worker_count()
# A call hands blocks to helpers only when it has this many: it starts and
# joins its own, and a helper costs about 0.1 ms, and the process 3 MiB of
# resident memory at D=1024 after one such call and 6 MiB after ten (4 and
# 5.5 MiB at D=1536), which calls of a few blocks do not repay.  score_batch
# streams its rows through one block map, raw row to density in each block,
# so its memory is two (_BLOCK, D) buffers per worker whatever the batch.
# pair_loss embeds a chunk of this many blocks at a time: 8 MiB of
# embeddings per side at D=1024.
_HANDOFF_BLOCKS = 8
_CHUNK = _HANDOFF_BLOCKS * _BLOCK


def _for_blocks(rows: int, work, *widths: int) -> None:
    """Call ``work(start, *buffers)`` for every ``start`` in ``range(0, rows, _BLOCK)``.

    The blocks must be independent: the calling thread and up to
    ``_WORKERS - 1`` helpers take them in turn from a shared counter, each
    with its own zeroed ``(_BLOCK, width)`` buffer per width, made on the
    calling thread and reused from block to block.  The calling thread
    works alone on fewer than ``_HANDOFF_BLOCKS`` blocks.  The call starts
    its helpers and joins them before it returns or raises.  When blocks
    raise, the lowest failing block's error is raised, as in a serial loop.
    Helpers run ``work``, which may call no public function: a tracer on the
    calling thread may wrap those.
    """
    blocks = -(-rows // _BLOCK)
    lock = threading.Lock()
    taken = 0
    errors: dict = {}

    def run(buffers):
        nonlocal taken
        while True:
            with lock:
                if taken == blocks or errors:
                    return
                k = taken
                taken += 1
            try:
                work(k * _BLOCK, *buffers)
            except BaseException as exc:  # raised again on the calling thread
                with lock:
                    errors[k] = exc
                return

    helpers = min(_WORKERS, blocks) - 1 if blocks >= _HANDOFF_BLOCKS else 0
    buffers = [[np.zeros((_BLOCK, width)) for width in widths] for _ in range(helpers + 1)]
    started = []
    try:
        for own in buffers[1:]:
            helper = threading.Thread(target=run, args=(own,))
            helper.start()
            started.append(helper)
        run(buffers[0])
    finally:
        for helper in started:
            helper.join()
    if errors:
        raise errors[min(errors)]


def build_density_matrix(embeddings) -> DensityMatrix:
    """Average the outer products of the given unit-norm embeddings.

    ``embeddings`` is one or more rows by the package's one matrix rule,
    ``dataio._feature_matrix``.  The result is exactly symmetric: for a
    C-contiguous ``phi``, numpy computes ``phi.T @ phi`` as one triangle
    (BLAS ``syrk``) and mirrors it, so no explicit symmetrization is
    needed.  The width is zero-padded to whole lanes by the block rule
    (see ``_BLOCK``); a width that is already aligned is used as it is,
    without a copy.
    """
    phi = np.ascontiguousarray(_feature_matrix(embeddings, min_rows=1))
    n, dim = phi.shape
    phi = _pad_lanes(phi, 1)
    r = phi.T @ phi
    r /= n  # in place: R is the build's largest array
    return DensityMatrix(r[:dim, :dim], n)  # its _padded buffer is r


def sketch_density_matrix(embeddings: np.ndarray,
                          seed: int) -> tuple[DensityFactor | None, float | None]:
    """The rank-``_RANK`` factor to serve ``R = Phi^T Phi / n`` from, and
    its density error bound: ``(factor, beta)``.

    A sketch is made only when ``Phi`` has fewer rows than columns, so
    that ``R`` is rank-deficient, and ``D >= 2 k``, so that the factor is
    at most the size of ``R``'s triangle and ``Omega`` (D x k) is well
    conditioned; otherwise the result is ``(None, None)``.  The factor is
    ``None`` too when ``beta > FACTOR_BOUND`` (see :func:`_nystrom`).
    """
    n, dim = embeddings.shape
    if n >= dim or dim < 2 * _RANK:
        return None, None
    factor, beta = _nystrom(embeddings, seed)
    if not beta <= FACTOR_BOUND:
        return None, beta
    return DensityFactor(factor, n), beta


def _nystrom(embeddings: np.ndarray, seed: int) -> tuple[np.ndarray | None, float]:
    """Nystrom factor ``F`` of ``R = Phi^T Phi / n``, never forming ``R``,
    and its bound ``beta``; ``(None, inf)`` when the sketch fails.

    With a seeded Gaussian ``Omega`` (D x k, rng domain ``DOMAIN_NYSTROM``),
    ``Y = Phi^T (Phi Omega) / n`` is summed over the blocks of the block
    rule.  A shift ``nu = sqrt(D) * spacing(max column norm of Y)`` keeps
    the rank-deficient case positive definite (Tropp, Yurtsever, Udell &
    Cevher, 2017, scale it by ``||Y||_2``, which that column norm bounds
    from below): ``Y_nu = Y + nu Omega``, ``C = chol(Omega^T Y_nu)`` and
    ``F = Y_nu C^-T``.  ``F F^T`` is the Nystrom approximation of the PSD
    matrix ``R + nu I``, so ``F F^T <= R + nu I`` and, for every unit
    ``phi``, ``-nu <= phi^T R phi - ||F^T phi||^2 <= T = tr(R + nu I - F F^T)
    = (tr R - ||F||_F^2) + D nu``, and ``T >= (D - k) nu`` as at most k
    eigenvalues of ``R + nu I - F F^T`` lie below ``nu``.  With unit
    roundoff ``u``, unit rows give ``|tr R - 1| <= (D + 4) u`` and the sum
    ``||F||_F^2`` errs by at most ``(D k + 1) u`` (Higham, 2002, ch. 3), so
    ``beta = (1 - ||F||_F^2) + D (nu + 2 (k + 1) u) >= T`` bounds the error
    both ways once ``D > k``.  A ``beta`` below ``(D - k) nu`` shows an
    error in the computed ``F`` itself: the sketch fails.
    """
    n, dim = embeddings.shape
    width = _whole_lanes(dim)
    omega = _pad_lanes(standard_normal(stream(seed, DOMAIN_NYSTROM), (dim, _RANK)), 0)
    y = np.zeros((width, _RANK))
    block = np.zeros((_BLOCK, width))
    for start in range(0, n, _BLOCK):
        _load(block, embeddings, start)
        y += block.T @ (block @ omega)
    y /= n
    nu = np.sqrt(dim) * np.spacing(np.sqrt(np.max(np.einsum("ij,ij->j", y, y))))
    y += nu * omega
    try:
        inverse = np.linalg.inv(np.linalg.cholesky(omega.T @ y)).T
    except np.linalg.LinAlgError:
        return None, float("inf")
    factor = np.empty((width, _RANK))
    block = np.zeros((_BLOCK, _RANK))
    for start in range(0, width, _BLOCK):
        count = _load(block, y, start)
        factor[start:start + count] = (block @ inverse)[:count]
    factor = factor[:dim]
    beta = float((1.0 - np.sum(factor * factor)) + dim * (nu + (_RANK + 1) * np.finfo(float).eps))
    if not beta >= (dim - _RANK) * nu:
        return None, float("inf")
    return factor, beta


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
    # Summed over the padded buffers, whose pads stay zero, so the sum's
    # padded buffer is the one copy of R it makes.
    padded = wa * a._padded + wb * b._padded
    return DensityMatrix(padded[:a.embed_dim, :a.embed_dim], total)


def estimate_density(dm: DensityMatrix | DensityFactor, phi: np.ndarray) -> float:
    """Quadratic form ``phi^T R phi`` for a unit-norm query embedding.

    Equals the mean squared inner product with the embeddings the matrix
    was built from, and lies in [0, 1] up to roundoff; a factor gives
    ``||F^T phi||^2``.  Bit-identical to the same row scored by
    :func:`estimate_density_batch`.
    """
    return float(estimate_density_batch(dm, _feature_vector(phi, dm.embed_dim))[0])


def estimate_density_batch(dm: DensityMatrix | DensityFactor, phis) -> np.ndarray:
    """Densities for a sequence of query embeddings, in input order.

    ``phis`` is ``D`` wide by the package's one matrix rule, so ``[]`` is
    no rows.  Rows are scored as ``rowsum((block @ R) * block)``, or
    ``rowsum((block @ F)^2)`` for a factor, in zero-padded blocks, with
    ``R`` or ``F`` padded to whole lanes, by the block rule (see
    ``_BLOCK``): each density depends only on its own row, so a batch
    equals the per-query calls, and any split of it, bit for bit.  A
    single query therefore costs one whole block.
    """
    phis = _feature_matrix(phis, dm.embed_dim)
    out = np.empty(phis.shape[0])

    def score(start, block, spare):
        count = _load(block, phis, start)
        _score_block(dm, block, spare, out[start:start + count])

    _for_blocks(phis.shape[0], score, *dm._padded.shape)
    return out


def _score_block(dm: DensityMatrix | DensityFactor, block: np.ndarray, spare: np.ndarray,
                 out: np.ndarray) -> None:
    """Densities of the first ``len(out)`` rows of ``block``, a zero-padded
    ``(_BLOCK, W)`` block of embeddings, written into ``out``.  ``block @ R``
    or ``block @ F`` goes into the front of ``spare``, a ``(_BLOCK, >= k)``
    buffer.  The one scoring step of :func:`estimate_density_batch` and of
    ``detector.score_batch``."""
    columns = dm._padded.shape[1]
    product = spare.reshape(-1)[:_BLOCK * columns].reshape(_BLOCK, columns)
    np.matmul(block, dm._padded, out=product)
    count = out.shape[0]
    other = product if isinstance(dm, DensityFactor) else block
    np.einsum("ij,ij->i", product[:count], other[:count], out=out)
