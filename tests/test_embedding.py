import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dmkde import (
    AffConfig,
    DegenerateEmbeddingError,
    InsufficientDataError,
    InvalidArgumentError,
    apply_standardizer,
    default_sigma_grid,
    embed,
    embed_raw,
    fit_standardizer,
    gaussian_kernel,
    generate_synthetic,
    pair_loss,
    sample_rff_params,
    stratified_split,
    train_aff,
)
from dmkde import density
from dmkde.embedding import (
    _BLOCK,
    _HOLDOUT_PAIRS,
    _SIGMA_SUBSET,
    EmbeddingParams,
    _aff_rows,
    _gram_kernel,
    _GramKernel,
    _normalize_rows,
    _pairwise_sq,
    _rows_for,
)
from dmkde.rng import DOMAIN_SIGMA_SUBSET, stream
from tests.conftest import two_cluster_spec

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
    def test_wrong_length_vector_named_as_a_vector(self):
        p = sample_rff_params(3, 8, 1.0, seed=0)
        with pytest.raises(InvalidArgumentError,
                           match=r"^expected a vector of length 3, got shape \(4,\)$"):
            embed(p, np.zeros(4))

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
            _normalize_rows(np.zeros((1, 4)), np.empty((1, 4)))

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

    # At _BLOCK + 1 rows the Gram and gradient tiles cross a block boundary.
    @pytest.mark.parametrize("m", [10, _BLOCK + 1])
    def test_gradient_matches_finite_differences(self, m):
        # The gradient training runs: every pair of m rows, with train_aff's targets.
        rng = np.random.default_rng(7)
        params = sample_rff_params(2, 8, 1.0, seed=3)
        rows = rng.normal(size=(m, 2))
        targets = np.exp(-_pairwise_sq(rows) / (2.0 * params.sigma ** 2))
        _, grad_w, grad_b = _gram_kernel(params.weights, params.offsets, rows, targets, True)

        def loss_at(w, b):
            return _gram_kernel(w, b, rows, targets, False)[0]

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
        _, held = _aff_rows(len(features), cfg.num_pairs, 2)
        i, j = np.triu_indices(len(held), 1)
        lhs, rhs = features[held[i]], features[held[j]]
        assert pair_loss(trained, lhs, rhs) <= pair_loss(init, lhs, rhs) + 1e-12

    @pytest.mark.parametrize("pairs", [1, 2, 3, 999, 1000, 1035, 1036, 10_000, 10**12])
    def test_rows_are_the_fewest_that_give_the_pairs(self, pairs):
        m = _rows_for(pairs, 10**9)
        assert m * (m - 1) // 2 >= pairs > (m - 1) * (m - 2) // 2
        assert _rows_for(pairs, 2) == 2

    def test_row_counts(self):
        assert _rows_for(1000, 300) == _rows_for(_HOLDOUT_PAIRS, 300) == 46
        assert _rows_for(10_000, 300) == 142
        assert _rows_for(10_000, 100) == 100

    @pytest.mark.parametrize("n", [2, 45, 91, 92, 93, 300, 525])
    def test_holdout_rows_disjoint_where_n_allows(self, n):
        train, held = _aff_rows(n, 1000, 7)
        assert len(train) == len(held) == min(n, 46)
        assert len(set(train.tolist()) | set(held.tolist())) == min(n, 92)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_learns_at_wide_search_settings(self, seed):
        # The benchmark's wide_search fit: two_cluster, standardized train
        # rows, the median sigma, D = 1536, 1000 pairs, 10 epochs, lr 1e-3.
        # Trained parameters read 0.27-0.47 of the baseline on seeds 1-10 and
        # untrained ones 1.0, so the bound 0.6 tells the two apart.
        ds = generate_synthetic(two_cluster_spec(), seed=seed)
        train = ds.features[stratified_split(ds, seed=seed).train]
        train = apply_standardizer(train, *fit_standardizer(train))
        init = sample_rff_params(2, 1536, default_sigma_grid(train, seed)[2], seed)
        trained = train_aff(init, train, AffConfig(num_pairs=1000, epochs=10), seed)
        rng = np.random.default_rng(1000 + seed)  # apart from every dmkde stream
        i = rng.integers(0, len(train), 2000)
        j = (i + 1 + rng.integers(0, len(train) - 1, 2000)) % len(train)
        lhs, rhs = train[i], train[j]
        assert pair_loss(trained, lhs, rhs) <= 0.6 * pair_loss(init, lhs, rhs)

    def test_offsets_stay_in_range(self, features):
        init = sample_rff_params(2, 16, 1.0, seed=10)
        trained = train_aff(init, features,
                            AffConfig(num_pairs=300, epochs=200, learning_rate=0.1), 3)
        assert np.all(trained.offsets >= 0) and np.all(trained.offsets < TWO_PI)

    @pytest.mark.parametrize("field,value", [
        ("learning_rate", float("nan")), ("learning_rate", float("inf")), ("learning_rate", 0.0),
        ("num_pairs", 0), ("epochs", -1),
    ])
    def test_config_rejects(self, field, value):
        with pytest.raises(InvalidArgumentError, match=field):
            AffConfig(**{field: value})

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
        # pair_loss scores explicit pairs through embed_raw.  Pairs are drawn
        # with replacement, so P > n repeats pairs, and self-pairs (i == j)
        # occur too.
        rng = np.random.default_rng(seed)
        features = rng.normal(size=(n, input_dim))
        i = rng.integers(0, n, n_pairs)
        j = rng.integers(0, n, n_pairs)
        params = sample_rff_params(input_dim, embed_dim, sigma, seed=seed)
        x, y = features[i], features[j]
        targets = gaussian_kernel(x, y, sigma)
        (expected, scale), _, _ = per_pair_reference(params.weights, params.offsets, x, y, targets)
        assert abs(pair_loss(params, x, y) - expected) <= 1e-12 * scale

    # The reference costs about 50 us a pair, and 300 rows have 44,850 pairs.
    @settings(max_examples=6, deadline=None)
    @given(m=st.integers(2, 300), embed_dim=st.integers(1, 64), input_dim=st.integers(1, 5),
           sigma=st.floats(0.3, 3.0), seed=st.integers(0, 2**32 - 1))
    @example(m=2, embed_dim=1, input_dim=1, sigma=0.3, seed=0)
    @example(m=_BLOCK + 1, embed_dim=9, input_dim=2, sigma=1.0, seed=1)
    @example(m=2 * _BLOCK + 1, embed_dim=64, input_dim=5, sigma=2.0, seed=2)
    def test_gram_matches_per_pair_reference(self, m, embed_dim, input_dim, sigma, seed):
        # The Gram kernel scores every pair i < j of its m rows.
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(m, input_dim))
        i, j = np.triu_indices(m, 1)
        params = sample_rff_params(input_dim, embed_dim, sigma, seed=seed)
        w, b = params.weights, params.offsets
        targets = gaussian_kernel(rows[i], rows[j], sigma)
        reference = per_pair_reference(w, b, rows[i], rows[j], targets)
        gram = _gram_kernel(w, b, rows, targets, True)
        for value, (expected, scale) in zip(gram, reference):
            assert np.max(np.abs(value - expected)) <= 1e-12 * scale
        assert _gram_kernel(w, b, rows, targets, False)[0] == gram[0]

    # D = 20 pads its tables to 24 columns; _BLOCK + 1 rows to two blocks.
    @pytest.mark.parametrize("m", [2, _BLOCK + 1])
    @pytest.mark.parametrize("need_grad", [True, False])
    def test_reused_tables_give_the_bits_of_new_ones(self, m, need_grad):
        # train_aff makes the tables once per attempt and calls them every epoch.
        rng = np.random.default_rng(m)
        rows = rng.normal(size=(m, 2))
        i, j = np.triu_indices(m, 1)
        targets = gaussian_kernel(rows[i], rows[j], 1.0)
        kernel = _GramKernel(rows, targets, 20, need_grad)
        for seed in range(3):
            params = sample_rff_params(2, 20, 0.5 + seed, seed)
            reused = kernel(params.weights, params.offsets)
            new = _gram_kernel(params.weights, params.offsets, rows, targets, need_grad)
            assert all(np.asarray(a).tobytes() == np.asarray(b).tobytes()
                       for a, b in zip(reused, new))

    def test_second_call_makes_no_phase_buffers(self):
        # Fixed before measuring.  What a call still makes: a few vectors of
        # its 1,035 pairs (W^T needs no lane padding at D = 1536).  A
        # (_BLOCK, D) phase buffer alone would be 1.5 MiB.
        m, dim = 46, 1536
        rows = np.random.default_rng(3).normal(size=(m, 8))
        i, j = np.triu_indices(m, 1)
        targets = gaussian_kernel(rows[i], rows[j], 1.0)
        params = sample_rff_params(8, dim, 1.0, 3)
        kernel = _GramKernel(rows, targets, dim, False)
        first = kernel(params.weights, params.offsets)
        tracemalloc.start()
        try:
            second = kernel(params.weights, params.offsets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert second == first
        assert peak < 0.5 * 2**20


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
        assert np.array_equal(np.sqrt(_pairwise_sq(x)), pdist(x))

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

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(2, 1500), d=st.integers(1, 10), ties=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    @example(n=2, d=1, ties=False, seed=0)
    @example(n=_SIGMA_SUBSET, d=8, ties=False, seed=1)
    @example(n=1500, d=8, ties=True, seed=2)
    @example(n=10, d=3, ties=True, seed=3)  # all rows may coincide: the fallback
    def test_grid_equals_index_table_formula(self, n, d, ties, seed):
        # The formula the grid used before it filled its distances block by
        # block: np.triu_indices gathers, then np.median of a sqrt copy.
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 2, size=(n, d)) * 1.0 if ties else rng.normal(size=(n, d)) * 3.0
        rows = x
        if n > _SIGMA_SUBSET:
            idx = stream(seed, DOMAIN_SIGMA_SUBSET).choice(n, _SIGMA_SUBSET, replace=False)
            rows = x[np.sort(idx)]
        i, j = np.triu_indices(rows.shape[0], k=1)
        total = np.zeros(i.shape[0])
        for column in rows.T:
            diff = column[i] - column[j]
            total += diff * diff
        median = float(np.median(np.sqrt(total)))
        median = median if median > 0.0 else 1.0
        expected = [median * 2.0 ** k for k in range(-2, 3)]
        assert np.array(default_sigma_grid(x, seed)).tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("count", [1, 2])
    def test_grid_holds_one_distance_vector(self, monkeypatch, count):
        # What the grid must hold: the pair vector, two (_BLOCK, n - 1)
        # rectangles per worker, and a quarter of the vector for the rest.
        # The index-table formula peaked at 6.0 x the vector.
        monkeypatch.setattr(density, "_WORKERS", count)
        monkeypatch.setattr(density, "_HANDOFF_BLOCKS", 1)
        n = _SIGMA_SUBSET
        x = np.random.default_rng(4).normal(size=(n, 8))
        tracemalloc.start()
        try:
            default_sigma_grid(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 8 * n * (n - 1) // 2 + count * 2 * 8 * _BLOCK * (n - 1)
