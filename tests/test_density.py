import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dmkde
from dmkde import (
    DensityMatrix,
    InsufficientDataError,
    InvalidArgumentError,
    build_density_matrix,
    estimate_density,
    estimate_density_batch,
    merge_density_matrices,
    qde_bruteforce,
)
from dmkde.density import (
    _BLOCK,
    _LANES,
    _RANK,
    FACTOR_BOUND,
    DensityFactor,
    _nystrom,
    _pad_lanes,
    sketch_density_matrix,
)
from tests.conftest import random_unit_vectors

# Row counts around the kernel's block size: empty, one and two rows, and a
# last block that is one row short, full, or a single row.
KERNEL_ROW_COUNTS = (0, 1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1)


class TestBuild:
    def test_single_vector(self):
        dm = build_density_matrix([np.array([1.0, 0.0])])
        assert np.array_equal(dm.matrix, np.array([[1.0, 0.0], [0.0, 0.0]]))
        assert dm.sample_count == 1

    def test_orthogonal_pair(self):
        dm = build_density_matrix([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
        assert np.array_equal(dm.matrix, np.array([[0.5, 0.0], [0.0, 0.5]]))

    def test_invariants_on_random_builds(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            phis = random_unit_vectors(rng, 100, 16)
            dm = build_density_matrix(phis)
            assert abs(np.trace(dm.matrix) - 1.0) <= 1e-9
            assert np.max(np.abs(dm.matrix - dm.matrix.T)) <= 1e-12
            assert np.linalg.eigvalsh(dm.matrix).min() >= -1e-8
            assert np.max(np.abs(dm.matrix)) <= 1.0 + 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        phis = random_unit_vectors(rng, 60, 8)
        a = build_density_matrix(phis)
        b = build_density_matrix(phis[rng.permutation(60)])
        assert np.max(np.abs(a.matrix - b.matrix)) <= 1e-12

    def test_empty_input(self):
        with pytest.raises(InsufficientDataError):
            build_density_matrix([])

    def test_build_holds_one_copy_of_r(self):
        # Phi^T Phi is divided by n in place, not into a second D x D array.
        dim = 1024
        phis = random_unit_vectors(np.random.default_rng(7), 300, dim)
        tracemalloc.start()
        try:
            build_density_matrix(phis)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * dim * dim

    def test_unaligned_build_holds_one_copy_of_r(self):
        # At an unaligned D the lane-padded Phi^T Phi / n is R's one buffer.
        dim, n = 1020, 300
        phis = random_unit_vectors(np.random.default_rng(7), n, dim)
        tracemalloc.start()
        try:
            dm = build_density_matrix(phis)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 8 * dim * dim
        padded = _pad_lanes(phis, 1)
        expected = padded.T @ padded
        expected /= n
        assert np.array_equal(dm.matrix, expected[:dim, :dim])
        assert dm._padded.shape == expected.shape

    def test_padded_buffer_adopted_only_with_zero_pad(self):
        base = np.zeros((_LANES, 2 * _LANES))
        base[:3, :5] = np.arange(15.0).reshape(3, 5)
        view = base[:3, :5]
        assert _pad_lanes(view, 0, 1) is not base  # not the padded shape
        base = np.zeros((_LANES, _LANES))
        base[:3, :5] = np.arange(15.0).reshape(3, 5)
        view = base[:3, :5]
        assert _pad_lanes(view, 0, 1) is base
        base[6, 1] = 1.0
        padded = _pad_lanes(view, 0, 1)
        assert padded is not base and not padded[3:].any()
        assert np.array_equal(padded[:3, :5], view)

    def test_mixed_dimensions(self):
        with pytest.raises(InvalidArgumentError):
            build_density_matrix([np.zeros(3), np.zeros(4)])

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 300),
           dim=st.one_of(st.integers(1, 80),
                         st.sampled_from((96, 127, 128, 255, 511, 512, 700, 1024))),
           layout=st.sampled_from(("C", "F", "strided")),
           seed=st.integers(0, 2**32 - 1))
    def test_exactly_symmetric_without_symmetrizing(self, n, dim, layout, seed):
        phis = random_unit_vectors(np.random.default_rng(seed), n, dim)
        # The build zero-pads the width to whole lanes; so does the reference.
        padded = np.zeros((n, -(-dim // _LANES) * _LANES))
        padded[:, :dim] = phis
        expected = (padded.T @ padded)[:dim, :dim] / n
        expected = (expected + expected.T) / 2.0
        if layout == "F":
            phis = np.asfortranarray(phis)
        elif layout == "strided":
            wide = np.zeros((n, 2 * dim))
            wide[:, ::2] = phis
            phis = wide[:, ::2]
        matrix = build_density_matrix(phis).matrix
        assert np.array_equal(matrix, matrix.T)
        assert np.array_equal(matrix, expected)

    def test_identical_across_blas_threads(self):
        # None of these widths is a multiple of 8; unpadded, each product
        # differs in its last bits between 1 and 2 OpenBLAS threads.  The
        # probe covers the users of the block rule: embed, build, score, the
        # Nystrom factor of 90 rows (n < D) and its scores, and the AFF
        # kernel's loss and gradients over pair sets whose last row block
        # holds 1 and 2 rows.
        probe = (
            "import hashlib, numpy as np\n"
            "from dmkde import build_density_matrix, embed, estimate_density_batch\n"
            "from dmkde import gaussian_kernel, sample_rff_params\n"
            "from dmkde.density import DensityFactor, _nystrom\n"
            "from dmkde.embedding import _pair_kernel, _pair_set\n"
            "rng = np.random.default_rng(5)\n"
            "for dim in (100, 127, 511, 700):\n"
            "    phi = rng.normal(size=(257, dim))\n"
            "    phi /= np.linalg.norm(phi, axis=1, keepdims=True)\n"
            "    dm = build_density_matrix(phi)\n"
            "    params = sample_rff_params(3, dim, 1.0, seed=dim)\n"
            "    embedded = embed(params, rng.normal(size=(257, 3)))\n"
            "    factor, _ = _nystrom(phi[:90], dim)\n"
            "    scored = estimate_density_batch(DensityFactor(factor, 90), phi)\n"
            "    for out in (dm.matrix, embedded, estimate_density_batch(dm, phi), factor, scored):\n"
            "        print(hashlib.sha256(out.tobytes()).hexdigest())\n"
            "    for n in (129, 130):\n"
            "        x = rng.normal(size=(n, 3))\n"
            "        i = np.arange(n)\n"
            "        j = (i + 1) % n\n"
            "        pairs = _pair_set(x, i, j, gaussian_kernel(x[i], x[j], 1.0))\n"
            "        loss, gw, gb = _pair_kernel(params.weights, params.offsets, pairs, True)\n"
            "        out = np.concatenate([[loss], gw.ravel(), gb])\n"
            "        print(hashlib.sha256(out.tobytes()).hexdigest())\n"
        )
        src = str(Path(dmkde.__file__).resolve().parent.parent)
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       MKL_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
                           p for p in (src, os.environ.get("PYTHONPATH", "")) if p))
            out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                                 text=True, check=True, timeout=60)
            outputs.append(out.stdout)
        assert len(outputs[0].split()) == 28
        assert outputs[0] == outputs[1]


class TestMerge:
    def test_merge_equals_joint_build(self):
        p1, p2 = np.array([1.0, 0.0]), np.array([0.6, 0.8])
        merged = merge_density_matrices(build_density_matrix([p1]), build_density_matrix([p2]))
        joint = build_density_matrix([p1, p2])
        assert np.max(np.abs(merged.matrix - joint.matrix)) <= 1e-12
        assert merged.sample_count == 2

    def test_self_merge_identical_matrix(self):
        rng = np.random.default_rng(7)
        dm = build_density_matrix(random_unit_vectors(rng, 13, 4))
        doubled = merge_density_matrices(dm, dm)
        assert np.array_equal(doubled.matrix, dm.matrix)
        assert doubled.sample_count == 2 * dm.sample_count
        # A matrix with a valid skew (within the symmetry tolerance) too.
        skewed = dm.matrix.copy()
        skewed[0, 1] += 5e-13
        skewed_dm = DensityMatrix(skewed, dm.sample_count)
        assert np.array_equal(merge_density_matrices(skewed_dm, skewed_dm).matrix, skewed)

    def test_uneven_chunks_any_merge_order(self):
        rng = np.random.default_rng(8)
        phis = random_unit_vectors(rng, 1000, 12)
        bounds = [0, 111, 218, 400, 405, 650, 901, 1000]
        parts = [build_density_matrix(phis[a:b]) for a, b in zip(bounds, bounds[1:])]
        order = rng.permutation(len(parts))
        merged = parts[order[0]]
        for k in order[1:]:
            merged = merge_density_matrices(merged, parts[k])
        direct = build_density_matrix(phis)
        assert merged.sample_count == 1000
        assert np.max(np.abs(merged.matrix - direct.matrix)) <= 1e-12

    def test_dimension_mismatch(self):
        a = build_density_matrix([np.array([1.0, 0.0])])
        b = build_density_matrix([np.array([1.0, 0.0, 0.0])])
        with pytest.raises(InvalidArgumentError):
            merge_density_matrices(a, b)


class TestEstimate:
    def test_query_equals_only_sample(self):
        phi = np.array([0.6, 0.8])
        dm = build_density_matrix([phi])
        assert estimate_density(dm, phi) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_query(self):
        dm = build_density_matrix([np.array([1.0, 0.0])])
        assert estimate_density(dm, np.array([0.0, 1.0])) == 0.0

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(9)
        phis = random_unit_vectors(rng, 50, 32)
        dm = build_density_matrix(phis)
        for q in random_unit_vectors(rng, 20, 32):
            assert abs(estimate_density(dm, q) - qde_bruteforce(phis, q)) <= 1e-9

    def test_bounded(self):
        rng = np.random.default_rng(10)
        dm = build_density_matrix(random_unit_vectors(rng, 40, 8))
        for q in random_unit_vectors(rng, 100, 8):
            v = estimate_density(dm, q)
            assert -1e-9 <= v <= 1.0 + 1e-9

    def test_dimension_mismatch(self):
        dm = build_density_matrix([np.array([1.0, 0.0])])
        with pytest.raises(InvalidArgumentError):
            estimate_density(dm, np.zeros(3))


class TestEstimateBatch:
    def test_empty(self):
        dm = build_density_matrix([np.array([1.0, 0.0])])
        out = estimate_density_batch(dm, [])
        assert out.shape == (0,)

    def test_singleton(self):
        dm = build_density_matrix([np.array([1.0, 0.0])])
        q = np.array([0.6, 0.8])
        assert estimate_density_batch(dm, [q])[0] == estimate_density(dm, q)

    def test_bit_identical_to_elementwise(self):
        rng = np.random.default_rng(11)
        phis = random_unit_vectors(rng, 30, 16)
        dm = build_density_matrix(phis)
        queries = random_unit_vectors(rng, 25, 16)
        batch = estimate_density_batch(dm, queries)
        single = np.array([estimate_density(dm, q) for q in queries])
        assert np.array_equal(batch, single)


class TestPaddedOnce:
    """Dense R is padded to whole lanes when the matrix is made; ``matrix``
    is a view of that buffer and scoring reads it, so no call copies R."""

    @pytest.mark.parametrize("dim", [1020, 1024])
    def test_scores_keep_their_bits(self, dim):
        rng = np.random.default_rng(dim)
        dm = build_density_matrix(random_unit_vectors(rng, 300, dim))
        queries = random_unit_vectors(rng, _BLOCK + 3, dim)
        # Reference: the same scoring rule with R padded on the call.
        padded = _pad_lanes(np.ascontiguousarray(dm.matrix), 0, 1)
        expected = np.empty(len(queries))
        for start in range(0, len(queries), _BLOCK):
            block = np.zeros((_BLOCK, padded.shape[0]))
            count = min(_BLOCK, len(queries) - start)
            block[:count, :dim] = queries[start:start + count]
            expected[start:start + count] = np.einsum("ij,ij->i", block @ padded, block)[:count]
        assert np.array_equal(estimate_density_batch(dm, queries), expected)
        assert dm._padded.shape == (padded.shape[0],) * 2
        assert np.shares_memory(dm.matrix, dm._padded)
        assert not dm._padded[dim:].any() and not dm._padded[:, dim:].any()

    def test_aligned_matrix_is_not_copied(self):
        rng = np.random.default_rng(3)
        matrix = build_density_matrix(random_unit_vectors(rng, 20, 64)).matrix.copy()
        dm = DensityMatrix(matrix, 20)
        assert dm._padded is matrix and np.shares_memory(dm.matrix, matrix)

    def test_one_row_call_allocates_no_copy_of_r(self):
        dim = 1020
        rng = np.random.default_rng(4)
        dm = build_density_matrix(random_unit_vectors(rng, 300, dim))
        query = random_unit_vectors(rng, 1, dim)
        tracemalloc.start()
        try:
            estimate_density_batch(dm, query)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * dim * dim


class TestKernelProperties:
    @settings(max_examples=40, deadline=None)
    @given(m=st.sampled_from(KERNEL_ROW_COUNTS), dim=st.integers(1, 64),
           n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_batch_matches_singles_splits_and_oracle(self, m, dim, n, seed, data):
        rng = np.random.default_rng(seed)
        phis = random_unit_vectors(rng, n, dim)
        dm = build_density_matrix(phis)
        queries = random_unit_vectors(rng, m, dim)
        batch = estimate_density_batch(dm, queries)
        assert batch.shape == (m,)

        single = np.array([estimate_density(dm, q) for q in queries], dtype=np.float64)
        assert np.array_equal(batch, single)

        cuts = sorted(data.draw(st.lists(st.integers(0, m), max_size=4)))
        bounds = [0, *cuts, m]
        parts = [estimate_density_batch(dm, queries[a:b]) for a, b in zip(bounds, bounds[1:])]
        assert np.array_equal(np.concatenate(parts), batch)

        for q, value in zip(queries, batch):
            assert abs(value - qde_bruteforce(phis, q)) <= 1e-9

    @pytest.mark.parametrize("dim", [255, 511, 700])
    def test_partial_tiles_bit_stable_at_wide_odd_dims(self, dim):
        # At these widths OpenBLAS rounds a row in a partial tile differently,
        # so a row's density changed with its position until D was padded.
        rng = np.random.default_rng(dim)
        dm = build_density_matrix(random_unit_vectors(rng, 40, dim))
        queries = random_unit_vectors(rng, 200, dim)
        batch = estimate_density_batch(dm, queries)
        for cut in (1, 3, 8, 60):
            parts = [estimate_density_batch(dm, queries[:cut]),
                     estimate_density_batch(dm, queries[cut:])]
            assert np.array_equal(np.concatenate(parts), batch)
        for i in (0, 5, 120, 127, 199):
            assert estimate_density(dm, queries[i]) == batch[i]

    @settings(max_examples=20, deadline=None)
    @given(m=st.sampled_from(KERNEL_ROW_COUNTS), dim=st.integers(1, 64))
    def test_wrong_width_rejected(self, m, dim):
        dm = build_density_matrix(np.eye(dim)[:1])
        with pytest.raises(InvalidArgumentError):
            estimate_density_batch(dm, np.zeros((m, dim + 1)))


def test_no_per_sample_storage():
    # Prediction cost depends only on the embedding dimension: the matrix
    # and a scalar count are the only state kept after build.
    assert set(DensityMatrix.__dataclass_fields__) == {"matrix", "sample_count"}


class TestValidation:
    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidArgumentError):
            DensityMatrix(np.array([[0.5, 0.1], [0.0, 0.5]]), 1)

    def test_rejects_bad_trace(self):
        with pytest.raises(InvalidArgumentError):
            DensityMatrix(np.eye(2), 1)

    def test_rejects_nonpositive_count(self):
        with pytest.raises(InvalidArgumentError):
            DensityMatrix(np.eye(2) / 2, 0)

    @pytest.mark.parametrize("off_diagonal", [1.5, -1.5])
    def test_rejects_entries_outside_unit_range(self, off_diagonal):
        # Symmetric with trace 1, so only the entry range check can fail.
        with pytest.raises(InvalidArgumentError, match=r"lie in \[-1, 1\]"):
            DensityMatrix(np.array([[0.5, off_diagonal], [off_diagonal, 0.5]]), 1)

    # D=300 leaves a partial last tile in the blocked symmetry check.
    # (row, col) pairs in the first tile, in a tile off the diagonal and in
    # the last, partial tile.
    @pytest.mark.parametrize("row, col", [(3, 70), (40, 200), (260, 299)])
    @pytest.mark.parametrize("skew, accepted", [(2e-12, False), (5e-13, True)])
    def test_symmetry_tolerance_in_every_tile(self, row, col, skew, accepted):
        dim = 300
        matrix = build_density_matrix(random_unit_vectors(np.random.default_rng(7), 50, dim)).matrix
        matrix[row, col] += skew
        if accepted:
            assert DensityMatrix(matrix, 50).sample_count == 50
        else:
            with pytest.raises(InvalidArgumentError, match="not symmetric"):
                DensityMatrix(matrix, 50)


def _phi(rng, n, dim, rank):
    """``n`` unit rows in ``dim`` dimensions spanning ``rank`` of them; a
    rank of ``n`` gives independent Gaussian rows."""
    if rank >= n:
        return random_unit_vectors(rng, n, dim)
    rows = rng.normal(size=(n, rank)) @ rng.normal(size=(rank, dim))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


class TestFactor:
    # Widths from 2k = 192 up, many of them not a multiple of the lane
    # width; ranks from 1, through k = 96, to full.
    @settings(max_examples=40, deadline=None)
    @given(dim=st.integers(2 * _RANK, 600), data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_density_error_within_reported_bound(self, dim, data, seed):
        n = data.draw(st.integers(1, min(dim - 1, 300)), label="n")
        rank = data.draw(st.integers(1, n), label="rank")
        rng = np.random.default_rng(seed)
        phi = _phi(rng, n, dim, rank)
        factor, beta = _nystrom(phi, seed)
        assert factor is not None and factor.shape == (dim, _RANK)
        # The proven bound: -nu <= phi^T R phi - ||F^T phi||^2 <= beta, and
        # beta >= (D - k) nu.  Queries: random unit vectors and training rows.
        queries = np.vstack([random_unit_vectors(rng, 64, dim), phi[:16]])
        exact = estimate_density_batch(build_density_matrix(phi), queries)
        sketched = np.einsum("ij,ij->i", queries @ factor, queries @ factor)
        assert np.max(np.abs(exact - sketched)) <= beta

    def test_bound_covers_roundoff(self):
        # Roundoff lifts the computed ||F||_F^2 above 1 by more than D nu
        # here; without a roundoff term beta came out at -6.7e-13, below a
        # density gap of 3.3e-13.
        rng = np.random.default_rng(0)
        phi = _phi(rng, 63, 340, 39)
        factor, beta = _nystrom(phi, 0)
        queries = np.vstack([random_unit_vectors(rng, 64, 340), phi[:16]])
        exact = estimate_density_batch(build_density_matrix(phi), queries)
        sketched = np.einsum("ij,ij->i", queries @ factor, queries @ factor)
        assert np.sum(factor * factor) > 1.0
        assert 0.0 < np.max(np.abs(exact - sketched)) <= beta <= FACTOR_BOUND

    def test_rank_within_k_is_served_exactly(self):
        rng = np.random.default_rng(21)
        phi = _phi(rng, 150, 700, 40)
        dm, beta = sketch_density_matrix(phi, 3)
        assert isinstance(dm, DensityFactor) and (dm.rank, dm.embed_dim) == (_RANK, 700)
        assert 0.0 <= beta <= FACTOR_BOUND and dm.sample_count == 150

    def test_served_exactly_when_bound_is_small(self):
        rng = np.random.default_rng(22)
        outcomes = set()
        for rank in (5, 60, 96, 150, 299):
            phi = _phi(rng, 300, 512, rank)
            dm, beta = sketch_density_matrix(phi, rank)
            assert (dm is not None) == (beta <= FACTOR_BOUND)
            outcomes.add(dm is not None)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("n, dim", [(300, 300), (400, 300), (50, 2 * _RANK - 1), (10, 16)])
    def test_no_sketch_without_a_saving(self, n, dim):
        # n >= D: R can be full rank; D < 2k: the factor is no smaller.
        phi = random_unit_vectors(np.random.default_rng(23), n, dim)
        assert sketch_density_matrix(phi, 1) == (None, None)

    @pytest.mark.parametrize("dim", [200, 511, 1024])
    def test_row_scores_alike_alone_and_in_any_batch(self, dim):
        rng = np.random.default_rng(dim)
        dm, _ = sketch_density_matrix(_phi(rng, 60, dim, 60), 4)
        queries = random_unit_vectors(rng, 2 * _BLOCK + 1, dim)
        batch = estimate_density_batch(dm, queries)
        for cut in (1, 3, _BLOCK - 1, _BLOCK + 1):
            parts = [estimate_density_batch(dm, queries[:cut]),
                     estimate_density_batch(dm, queries[cut:])]
            assert np.array_equal(np.concatenate(parts), batch)
        for i in (0, 5, _BLOCK - 1, _BLOCK, 2 * _BLOCK):
            assert estimate_density(dm, queries[i]) == batch[i]

    def test_factor_padded_once(self):
        rng = np.random.default_rng(24)
        dm, _ = sketch_density_matrix(_phi(rng, 30, 203, 30), 5)
        assert dm._padded.shape == (208, _RANK)
        assert np.array_equal(dm._padded[:203], dm.factor) and not dm._padded[203:].any()

    @pytest.mark.parametrize("factor, count, message", [
        (np.ones(4), 1, "D x k"),
        (np.full((2, 3), 1 / np.sqrt(6)), 1, "D x k"),
        (np.eye(4, 2) / np.sqrt(2), 0, "sample_count"),
        (np.array([[np.nan], [1.0]]), 1, "non-finite"),
        (np.eye(4, 2), 1, "trace"),
    ])
    def test_rejects_invalid_factor(self, factor, count, message):
        with pytest.raises(InvalidArgumentError, match=message):
            DensityFactor(factor, count)
