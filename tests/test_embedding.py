import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dmkde import (
    AffConfig,
    DegenerateEmbeddingError,
    InsufficientDataError,
    InvalidArgumentError,
    default_sigma_grid,
    embed,
    embed_raw,
    gaussian_kernel,
    pair_loss,
    sample_rff_params,
    train_aff,
)
from dmkde.embedding import (
    _BLOCK,
    _HOLDOUT_PAIRS,
    EmbeddingParams,
    _loss_and_grad,
    _normalize_rows,
    _pair_kernel,
    _pair_set,
    _pairwise_distances,
)

TWO_PI = 2.0 * np.pi


def random_pairs(rng, count, dim, max_dist):
    """Pairs (x, y) with ||x - y|| uniform on [0, max_dist]."""
    x = rng.normal(size=(count, dim))
    u = rng.normal(size=(count, dim))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    r = rng.random(count) * max_dist
    return x, x + r[:, None] * u


class TestSampleParams:
    def test_shapes_and_ranges(self):
        p = sample_rff_params(2, 4, 1.0, seed=42)
        assert p.weights.shape == (4, 2)
        assert p.offsets.shape == (4,)
        assert np.all(p.offsets >= 0) and np.all(p.offsets < TWO_PI)

    def test_weight_variance_matches_spectral_density(self):
        # Var of each weight entry is 1/sigma^2; at sigma=2 that is 0.25.
        draws = np.array([
            sample_rff_params(1, 1, 2.0, seed=s).weights[0, 0] for s in range(10_000)
        ])
        assert draws.var() == pytest.approx(0.25, abs=0.02)

    def test_deterministic_given_seed(self):
        a = sample_rff_params(3, 16, 0.7, seed=5)
        b = sample_rff_params(3, 16, 0.7, seed=5)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.offsets, b.offsets)

    def test_different_seeds_differ(self):
        a = sample_rff_params(3, 16, 0.7, seed=5)
        b = sample_rff_params(3, 16, 0.7, seed=6)
        assert not np.array_equal(a.weights, b.weights)

    @pytest.mark.parametrize("d,D,sigma", [(0, 4, 1.0), (2, 0, 1.0), (2, 4, 0.0), (2, 4, -1.0)])
    def test_rejects_bad_arguments(self, d, D, sigma):
        with pytest.raises(InvalidArgumentError):
            sample_rff_params(d, D, sigma, seed=0)

    def test_params_validate_offset_range(self):
        with pytest.raises(InvalidArgumentError):
            EmbeddingParams(np.zeros((2, 1)), np.array([0.0, TWO_PI]), 1.0, 1, 2)


class TestEmbedRaw:
    def test_zero_params_give_constant(self):
        p = EmbeddingParams(np.zeros((4, 2)), np.zeros(4), 1.0, 2, 4)
        z = embed_raw(p, np.array([3.0, -7.0]))
        assert np.allclose(z, np.sqrt(2.0 / 4.0), atol=0)

    def test_hand_evaluated_example(self):
        # d=1, D=2, rows (1) and (2), b = (0, pi/2), x = 0:
        # z = sqrt(2/2) * (cos 0, cos pi/2) = (1, 0)
        p = EmbeddingParams(np.array([[1.0], [2.0]]), np.array([0.0, np.pi / 2]), 1.0, 1, 2)
        z = embed_raw(p, np.array([0.0]))
        assert z == pytest.approx([1.0, 0.0], abs=1e-15)

    def test_entries_bounded(self):
        p = sample_rff_params(3, 64, 1.0, seed=1)
        z = embed_raw(p, np.random.default_rng(0).normal(size=(20, 3)))
        bound = np.sqrt(2.0 / 64.0)
        assert np.all(np.abs(z) <= bound + 1e-15)

    def test_kernel_approximation(self):
        rng = np.random.default_rng(17)
        x, y = random_pairs(rng, 200, 5, 4.0)
        p = sample_rff_params(5, 2000, 1.0, seed=21)
        inner = np.sum(embed_raw(p, x) * embed_raw(p, y), axis=1)
        err = np.mean(np.abs(inner - gaussian_kernel(x, y, 1.0)))
        assert err <= 0.05

    def test_error_nonincreasing_in_dim(self):
        errs = []
        for D in (64, 1024):
            rng = np.random.default_rng(3)
            x, y = random_pairs(rng, 100, 5, 4.0)
            p = sample_rff_params(5, D, 1.0, seed=9)
            inner = np.sum(embed_raw(p, x) * embed_raw(p, y), axis=1)
            errs.append(float(np.mean(np.abs(inner - gaussian_kernel(x, y, 1.0)))))
        assert errs[1] <= errs[0]

    def test_dimension_mismatch(self):
        p = sample_rff_params(3, 8, 1.0, seed=0)
        with pytest.raises(InvalidArgumentError):
            embed_raw(p, np.zeros(4))

    def test_rejects_nonfinite_input(self):
        p = sample_rff_params(2, 8, 1.0, seed=0)
        with pytest.raises(InvalidArgumentError):
            embed_raw(p, np.array([np.nan, 0.0]))


class TestEmbed:
    def test_constant_raw_normalizes_uniformly(self):
        p = EmbeddingParams(np.zeros((4, 2)), np.zeros(4), 1.0, 2, 4)
        phi = embed(p, np.array([1.0, 2.0]))
        assert phi == pytest.approx(np.full(4, 1.0 / 2.0))

    def test_already_unit_raw_unchanged(self):
        p = EmbeddingParams(np.array([[1.0], [2.0]]), np.array([0.0, np.pi / 2]), 1.0, 1, 2)
        phi = embed(p, np.array([0.0]))
        assert phi == pytest.approx([1.0, 0.0], abs=1e-15)

    def test_unit_norm_property(self):
        p = sample_rff_params(4, 32, 1.5, seed=2)
        rng = np.random.default_rng(8)
        for _ in range(50):
            phi = embed(p, rng.normal(size=4) * 10)
            assert abs(np.linalg.norm(phi) - 1.0) <= 1e-9

    def test_self_similarity_is_exact_under_density(self):
        p = sample_rff_params(3, 16, 1.0, seed=4)
        phi = embed(p, np.array([0.5, -1.0, 2.0]))
        assert float(phi @ phi) == pytest.approx(1.0, abs=1e-12)

    def test_zero_raw_vector_is_degenerate(self):
        with pytest.raises(DegenerateEmbeddingError):
            _normalize_rows(np.zeros((1, 4)))

    @pytest.mark.parametrize("d,D", [(2, 100), (1, 17), (3, 255), (3, 511), (5, 700), (8, 1024)])
    def test_single_rows_equal_batch_rows_bitwise(self, d, D):
        # Widths that are not multiples of 8 put the last columns in a
        # partial GEMM tile, which rounds by row position unless padded.
        p = sample_rff_params(d, D, 1.3, seed=2)
        x = np.random.default_rng(D).normal(size=(_BLOCK + 2, d)) * 2.0
        batch = embed(p, x)
        assert all(np.array_equal(embed(p, row), batch[k]) for k, row in enumerate(x))
        assert np.array_equal(np.vstack([embed(p, x[:37]), embed(p, x[37:])]), batch)
        assert np.array_equal(embed_raw(p, x[5]), embed_raw(p, x)[5])


@pytest.fixture(scope="module")
def features():
    rng = np.random.default_rng(31)
    a = rng.normal(size=(150, 2)) + np.array([-2.0, 0.0])
    b = rng.normal(size=(150, 2)) + np.array([2.0, 0.0])
    return np.vstack([a, b])


class TestTrainAff:
    def test_zero_epochs_is_noop(self, features):
        init = sample_rff_params(2, 16, 1.0, seed=0)
        out = train_aff(init, features, AffConfig(num_pairs=10, epochs=0), 0)
        assert out is init

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        params = sample_rff_params(2, 8, 1.0, seed=3)
        lhs = rng.normal(size=(10, 2))
        rhs = rng.normal(size=(10, 2))
        targets = gaussian_kernel(lhs, rhs, params.sigma)
        _, grad_w, grad_b = _loss_and_grad(
            params.weights, params.offsets, lhs, rhs, targets, True)

        def loss_at(w, b):
            return _loss_and_grad(w, b, lhs, rhs, targets, False)[0]

        step = 1e-5
        max_rel = 0.0
        for idx in np.ndindex(params.weights.shape):
            wp = params.weights.copy(); wp[idx] += step
            wm = params.weights.copy(); wm[idx] -= step
            fd = (loss_at(wp, params.offsets) - loss_at(wm, params.offsets)) / (2 * step)
            max_rel = max(max_rel, abs(grad_w[idx] - fd) / max(abs(fd), 1e-6))
        for j in range(params.embed_dim):
            bp = params.offsets.copy(); bp[j] += step
            bm = params.offsets.copy(); bm[j] -= step
            fd = (loss_at(params.weights, bp) - loss_at(params.weights, bm)) / (2 * step)
            max_rel = max(max_rel, abs(grad_b[j] - fd) / max(abs(fd), 1e-6))
        assert max_rel <= 1e-4

    def test_training_improves_holdout_mse(self, features):
        init = sample_rff_params(2, 64, 1.5, seed=5)
        cfg = AffConfig(num_pairs=1000, epochs=500, learning_rate=0.05)
        trained = train_aff(init, features, cfg, 9)
        # independent pair sample, disjoint stream from training/holdout
        rng = np.random.default_rng(123)
        i = rng.integers(0, len(features), 2000)
        j = rng.integers(0, len(features), 2000)
        before = pair_loss(init, features[i], features[j])
        after = pair_loss(trained, features[i], features[j])
        assert after < before

    def test_divergent_rate_falls_back_to_init(self, features):
        init = sample_rff_params(2, 16, 1.0, seed=6)
        cfg = AffConfig(num_pairs=200, epochs=50, learning_rate=1e9)
        out = train_aff(init, features, cfg, 1)
        assert np.array_equal(out.weights, init.weights)
        assert np.array_equal(out.offsets, init.offsets)

    def test_result_never_worse_on_holdout(self, features):
        init = sample_rff_params(2, 32, 1.0, seed=8)
        cfg = AffConfig(num_pairs=500, epochs=100, learning_rate=0.5)
        trained = train_aff(init, features, cfg, 2)
        from dmkde.rng import DOMAIN_AFF_HOLDOUT, stream
        from dmkde.embedding import _sample_pair_indices
        hi, hj = _sample_pair_indices(stream(2, DOMAIN_AFF_HOLDOUT),
                                      len(features), _HOLDOUT_PAIRS)
        assert (pair_loss(trained, features[hi], features[hj])
                <= pair_loss(init, features[hi], features[hj]) + 1e-12)

    def test_offsets_stay_in_range(self, features):
        init = sample_rff_params(2, 16, 1.0, seed=10)
        trained = train_aff(init, features,
                            AffConfig(num_pairs=300, epochs=200, learning_rate=0.1), 3)
        assert np.all(trained.offsets >= 0) and np.all(trained.offsets < TWO_PI)

    def test_insufficient_data(self):
        init = sample_rff_params(2, 8, 1.0, seed=0)
        with pytest.raises(InsufficientDataError):
            train_aff(init, np.zeros((1, 2)), AffConfig(num_pairs=10, epochs=1), 0)

    def test_deterministic(self, features):
        init = sample_rff_params(2, 16, 1.0, seed=11)
        cfg = AffConfig(num_pairs=200, epochs=50, learning_rate=0.05)
        a = train_aff(init, features, cfg, 4)
        b = train_aff(init, features, cfg, 4)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.offsets, b.offsets)


def per_pair_reference(weights, offsets, x, y, targets):
    """Loss, grad_w and grad_b summed one pair at a time, each with a scale.

    A scale is the same sum taken over absolute values (with each residual
    widened by the magnitude of its terms), so it bounds the rounding any
    order of summation can leave in the value.  Where nothing cancels it
    equals the value's own magnitude.
    """
    n_pairs, embed_dim = x.shape[0], weights.shape[0]
    s = 2.0 / embed_dim
    loss = loss_scale = 0.0
    grad_w, grad_w_scale = np.zeros_like(weights), np.zeros_like(weights)
    grad_b, grad_b_scale = np.zeros_like(offsets), np.zeros_like(offsets)
    for p in range(n_pairs):
        ax = weights @ x[p] + offsets
        ay = weights @ y[p] + offsets
        cx, cy, sx, sy = np.cos(ax), np.cos(ay), np.sin(ax), np.sin(ay)
        resid = s * np.sum(cx * cy) - targets[p]
        resid_scale = abs(resid) + s * np.sum(np.abs(cx * cy)) + abs(targets[p])
        loss += resid * resid
        loss_scale += resid_scale * resid_scale
        r = 2.0 * resid / n_pairs
        r_scale = 2.0 * resid_scale / n_pairs
        dx, dy = -s * r * sx * cy, -s * r * cx * sy
        dx_scale, dy_scale = s * r_scale * np.abs(sx * cy), s * r_scale * np.abs(cx * sy)
        grad_w += np.outer(dx, x[p]) + np.outer(dy, y[p])
        grad_w_scale += np.outer(dx_scale, np.abs(x[p])) + np.outer(dy_scale, np.abs(y[p]))
        grad_b += dx + dy
        grad_b_scale += dx_scale + dy_scale
    return ((loss / n_pairs, loss_scale / n_pairs), (grad_w, np.max(grad_w_scale)),
            (grad_b, np.max(grad_b_scale)))


class TestPairKernel:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 40), n_pairs=st.integers(1, 300), embed_dim=st.integers(1, 64),
           input_dim=st.integers(1, 5), sigma=st.floats(0.3, 3.0),
           seed=st.integers(0, 2**32 - 1))
    @example(n=2, n_pairs=300, embed_dim=64, input_dim=5, sigma=1.0, seed=0)
    @example(n=40, n_pairs=1, embed_dim=1, input_dim=1, sigma=0.3, seed=1)
    def test_distinct_rows_match_per_pair_reference(self, n, n_pairs, embed_dim, input_dim,
                                                    sigma, seed):
        # Pairs are drawn with replacement, so P > n repeats pairs, and
        # self-pairs (i == j) occur too.
        rng = np.random.default_rng(seed)
        features = rng.normal(size=(n, input_dim))
        i = rng.integers(0, n, n_pairs)
        j = rng.integers(0, n, n_pairs)
        params = sample_rff_params(input_dim, embed_dim, sigma, seed=seed)
        w, b = params.weights, params.offsets
        x, y = features[i], features[j]
        targets = gaussian_kernel(x, y, sigma)
        reference = per_pair_reference(w, b, x, y, targets)

        distinct = _pair_kernel(w, b, _pair_set(features, i, j, targets), True)
        per_end = _loss_and_grad(w, b, x, y, targets, True)
        for got in (distinct, per_end):
            for value, (expected, scale) in zip(got, reference):
                assert np.max(np.abs(value - expected)) <= 1e-12 * scale
        assert _loss_and_grad(w, b, x, y, targets, False)[0] == per_end[0]

    def test_pair_set_uses_distinct_rows(self):
        i = np.array([3, 3, 7, 3])
        j = np.array([7, 9, 3, 7])
        features = np.arange(20.0)[:, None]
        pairs = _pair_set(features, i, j, gaussian_kernel(features[i], features[j], 1.0))
        assert np.array_equal(pairs.rows[:, 0], [3.0, 7.0, 9.0])
        assert np.array_equal(pairs.rows[pairs.left, 0], i)
        assert np.array_equal(pairs.rows[pairs.right, 0], j)
        assert np.all(np.diff(pairs.owner) >= 0)


class TestPairLoss:
    @pytest.mark.parametrize("lhs, rhs, error, message", [
        (np.array([[0.0, np.nan]]), np.zeros((1, 2)), InvalidArgumentError, "non-finite"),
        (np.zeros((2, 3)), np.zeros((2, 3)), InvalidArgumentError, "2 columns"),
        (np.zeros((2, 2)), np.zeros((3, 2)), InvalidArgumentError, "differ in shape"),
        (np.zeros((0, 2)), np.zeros((0, 2)), InsufficientDataError, "at least 1"),
    ])
    def test_rejects_invalid_pairs(self, lhs, rhs, error, message):
        params = sample_rff_params(2, 8, 1.0, seed=0)
        with pytest.raises(error, match=message):
            pair_loss(params, lhs, rhs)


class TestSigmaGrid:
    @pytest.mark.parametrize("n,d", [(2, 1), (50, 3), (300, 17), (120, 64), (257, 2), (1000, 8)])
    def test_distances_match_pdist_bitwise(self, n, d):
        from scipy.spatial.distance import pdist

        x = np.random.default_rng(n + d).normal(size=(n, d)) * 3.0 + 1.0
        assert np.array_equal(_pairwise_distances(x), pdist(x))

    def test_grid_is_powers_of_two_times_median(self):
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(50, 3))
        grid = default_sigma_grid(feats)
        assert len(grid) == 5
        assert grid[2] == pytest.approx(grid[0] * 4)
        assert grid[4] == pytest.approx(grid[2] * 4)

    def test_degenerate_features_fall_back(self):
        grid = default_sigma_grid(np.zeros((10, 2)))
        assert grid[2] == 1.0

    def test_too_few_rows(self):
        with pytest.raises(InsufficientDataError):
            default_sigma_grid(np.zeros((1, 2)))
