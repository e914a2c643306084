import json
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmkde import (
    AffConfig,
    DensityMatrix,
    FitConfig,
    InsufficientDataError,
    InvalidArgumentError,
    accuracy,
    apply_standardizer,
    build_density_matrix,
    classify,
    compute_threshold,
    default_sigma_grid,
    embed,
    estimate_density_batch,
    f1_anomaly,
    f1_weighted,
    fit,
    fit_standardizer,
    fit_with_internal_split,
    grid_search,
    predict,
    predict_batch,
    score,
    score_batch,
    stratified_split,
)
from dmkde.density import _CHUNK, FACTOR_BOUND, DensityFactor
from dmkde.detector import classify_batch
from dmkde.rng import stream
from tests.conftest import two_cluster_spec
from dmkde import detector, generate_synthetic


class TestFitConfig:
    def test_numpy_scalars_serialize(self):
        # The fit and benchmark reports write asdict(config) as JSON.
        aff = AffConfig(num_pairs=np.int64(5), epochs=np.int64(2), learning_rate=np.float32(0.25))
        cfg = FitConfig(sigma=np.float64(0.5), embed_dim=np.int64(16), use_aff=np.bool_(True),
                        aff=aff, seed=np.int64(3), standardize=np.bool_(False))
        doc = json.loads(json.dumps(asdict(cfg)))
        assert (doc["embed_dim"], doc["use_aff"], doc["seed"], doc["standardize"]) == (
            16, True, 3, False)
        assert doc["aff"] == {"num_pairs": 5, "epochs": 2, "learning_rate": 0.25}


class TestComputeThreshold:
    def test_interpolated_decile(self):
        # h = 0.1 * 9 = 0.9 -> 0.1 + 0.9 * (0.2 - 0.1) = 0.19
        densities = np.arange(1, 11) / 10.0
        assert compute_threshold(densities, 0.10) == pytest.approx(0.19)

    def test_interpolated_median(self):
        # h = 0.5 * 3 = 1.5 -> 2 + 0.5 * (3 - 2) = 2.5
        assert compute_threshold([1.0, 2.0, 3.0, 4.0], 0.5) == pytest.approx(2.5)

    def test_constant_sequence(self):
        for rate in (0.01, 0.4, 1.0):
            assert compute_threshold([7.5] * 9, rate) == 7.5

    def test_rate_zero_is_minus_inf(self):
        assert compute_threshold([0.3, 0.4], 0.0) == float("-inf")

    def test_rate_one_is_max(self):
        assert compute_threshold([0.4, 0.9, 0.1], 1.0) == 0.9

    def test_unsorted_input(self):
        assert compute_threshold([4.0, 1.0, 3.0, 2.0], 0.5) == pytest.approx(2.5)

    def test_empty(self):
        with pytest.raises(InsufficientDataError):
            compute_threshold([], 0.5)

    @pytest.mark.parametrize("rate", [-0.1, 1.1])
    def test_rate_out_of_range(self, rate):
        with pytest.raises(InvalidArgumentError):
            compute_threshold([1.0], rate)

    def test_nonfinite_density(self):
        with pytest.raises(InvalidArgumentError):
            compute_threshold([1.0, np.nan], 0.5)


class TestClassify:
    def test_boundary_is_normal(self):
        assert classify(0.5, 0.5) == 0

    def test_below_is_anomaly(self):
        assert classify(0.49, 0.5) == 1

    def test_minus_inf_threshold_is_always_normal(self):
        for density in (-100.0, 0.0, 1e12):
            assert classify(density, float("-inf")) == 0

    def test_monotone_in_theta(self):
        # Raising theta never flips anomaly -> normal.
        rng = np.random.default_rng(0)
        densities = rng.random(50)
        thetas = np.sort(rng.random(10))
        for d in densities:
            labels = [classify(d, t) for t in thetas]
            assert labels == sorted(labels)


def gaussian_points(seed, count, dim=2):
    return stream(seed, 42).normal(size=(count, dim))


class TestFit:
    def test_calibrated_flag_count_on_fresh_points(self):
        g = stream(2, 42)
        pts = g.normal(size=(200, 2))
        fresh = g.normal(size=(200, 2))
        model, _ = fit(pts, pts, 0.05, FitConfig(sigma=2.0, embed_dim=512, seed=2))
        labels, _ = predict_batch(model, fresh)
        assert 8 <= int(labels.sum()) <= 12

    def test_deterministic_given_seed(self):
        pts = gaussian_points(3, 120)
        cfg = FitConfig(sigma=1.5, embed_dim=64, seed=7)
        a, _ = fit(pts[:80], pts[80:], 0.1, cfg)
        b, _ = fit(pts[:80], pts[80:], 0.1, cfg)
        assert np.array_equal(a.embedding.weights, b.embedding.weights)
        assert np.array_equal(a.dm.matrix, b.dm.matrix)
        assert a.theta == b.theta

    def test_rate_zero_flags_nothing(self):
        pts = gaussian_points(4, 60)
        model, _ = fit(pts[:40], pts[40:], 0.0, FitConfig(sigma=1.0, embed_dim=32, seed=0))
        assert model.theta == float("-inf")
        labels, _ = predict_batch(model, gaussian_points(5, 30))
        assert labels.sum() == 0

    def test_standardization_recorded(self):
        pts = gaussian_points(6, 80) * 10 + 3
        on, _ = fit(pts[:60], pts[60:], 0.1, FitConfig(sigma=1.0, embed_dim=16, seed=0))
        off, _ = fit(pts[:60], pts[60:], 0.1,
                     FitConfig(sigma=1.0, embed_dim=16, seed=0, standardize=False))
        assert on.shift is not None and on.scale is not None
        assert off.shift is None and off.scale is None

    def test_calibration_invariant(self):
        pts = gaussian_points(8, 300)
        train, val = pts[:200], pts[200:]
        m = len(val)
        for rate in (0.02, 0.1, 0.3):
            model, _ = fit(train, val, rate, FitConfig(sigma=1.5, embed_dim=256, seed=1))
            _, densities = predict_batch(model, val)
            frac = float(np.mean(densities < model.theta))
            assert abs(frac - rate) <= 1.0 / m + 1e-12

    def test_val_densities_match_rescoring(self):
        # Callers reuse these instead of scoring val again.  embed_dim 100
        # is not a multiple of the scoring kernel's padding.
        pts = gaussian_points(14, 150)
        model, val_densities = fit(pts[:100], pts[100:], 0.1,
                                   FitConfig(sigma=1.0, embed_dim=100, seed=3))
        labels, densities = predict_batch(model, pts[100:])
        assert np.array_equal(val_densities, densities)
        # A single sample scores exactly as its row of the batch.
        assert all(predict(model, x) == (labels[k], densities[k])
                   for k, x in enumerate(pts[100:]))

    def test_factor_val_densities_match_rescoring(self):
        # 120 training rows at D=512: fit serves the rank-96 factor.
        pts = gaussian_points(15, 200)
        model, val_densities = fit(pts[:120], pts[120:], 0.1,
                                   FitConfig(sigma=1.5, embed_dim=512, seed=4))
        assert isinstance(model.dm, DensityFactor)
        assert np.array_equal(val_densities, predict_batch(model, pts[120:])[1])

    @pytest.mark.parametrize("sigma, embed_dim, form", [
        (1.5, 512, DensityFactor),  # n < D, bound below FACTOR_BOUND
        (0.05, 512, DensityMatrix),  # n < D, a narrow kernel: full rank
        (1.5, 64, DensityMatrix),  # n >= D: no sketch
    ])
    def test_factor_served_exactly_when_bound_is_small(self, sigma, embed_dim, form):
        pts = gaussian_points(16, 200)
        model, _ = fit(pts[:120], pts[120:], 0.1,
                       FitConfig(sigma=sigma, embed_dim=embed_dim, seed=4))
        assert isinstance(model.dm, form)
        if embed_dim <= 120:
            assert model.sketch_bound is None
        else:
            assert (model.sketch_bound <= FACTOR_BOUND) == (form is DensityFactor)

    def test_factor_densities_within_bound_of_dense(self):
        pts = gaussian_points(17, 200)
        model, val_densities = fit(pts[:120], pts[120:], 0.1,
                                   FitConfig(sigma=1.5, embed_dim=512, seed=4))
        dense = build_density_matrix(embed(model.embedding, model.standardize(pts[:120])))
        exact = estimate_density_batch(dense, embed(model.embedding, model.standardize(pts[120:])))
        assert np.max(np.abs(exact - val_densities)) <= model.sketch_bound

    def test_factor_model_requires_a_small_bound(self):
        pts = gaussian_points(15, 200)
        model, _ = fit(pts[:120], pts[120:], 0.1, FitConfig(sigma=1.5, embed_dim=512, seed=4))
        for bound in (None, 2 * FACTOR_BOUND, float("nan")):
            with pytest.raises(InvalidArgumentError, match="sketch_bound"):
                replace(model, sketch_bound=bound)

    def test_empty_sets_rejected(self):
        pts = gaussian_points(9, 10)
        with pytest.raises(InsufficientDataError):
            fit(np.empty((0, 2)), pts, 0.1, FitConfig(sigma=1.0, embed_dim=8))
        with pytest.raises(InsufficientDataError):
            fit(pts, np.empty((0, 2)), 0.1, FitConfig(sigma=1.0, embed_dim=8))

    def test_aff_path_runs_and_is_deterministic(self):
        pts = gaussian_points(10, 100)
        cfg = FitConfig(sigma=1.0, embed_dim=32, use_aff=True,
                        aff=AffConfig(num_pairs=200, epochs=30, learning_rate=0.05),
                        seed=3)
        a, _ = fit(pts[:70], pts[70:], 0.1, cfg)
        b, _ = fit(pts[:70], pts[70:], 0.1, cfg)
        assert a.use_aff and np.array_equal(a.embedding.weights, b.embedding.weights)

    def test_divergent_aff_records_use_aff_false(self):
        pts = gaussian_points(10, 100)
        cfg = FitConfig(sigma=1.0, embed_dim=16, use_aff=True, seed=3,
                        aff=AffConfig(num_pairs=200, epochs=50, learning_rate=1e9))
        model, _ = fit(pts[:70], pts[70:], 0.1, cfg)
        plain, _ = fit(pts[:70], pts[70:], 0.1, FitConfig(sigma=1.0, embed_dim=16, seed=3))
        assert model.use_aff is False
        assert np.array_equal(model.embedding.weights, plain.embedding.weights)


@pytest.fixture(scope="module")
def model():
    pts = gaussian_points(5, 300)
    model, _ = fit(pts, pts, 0.05, FitConfig(sigma=1.0, embed_dim=512, seed=5))
    return model


class TestPredict:
    def test_deep_cluster_point_is_normal(self, model):
        label, density = predict(model, np.zeros(2))
        assert label == 0
        assert density > model.theta

    def test_far_point_is_anomaly(self, model):
        label, density = predict(model, np.full(2, 10.0))
        assert label == 1
        assert density < model.theta

    def test_minus_inf_threshold_normal_everywhere(self):
        pts = gaussian_points(7, 60)
        model, _ = fit(pts[:40], pts[40:], 0.0, FitConfig(sigma=1.0, embed_dim=32, seed=0))
        assert predict(model, np.full(2, 50.0))[0] == 0

    def test_dimension_mismatch(self, model):
        with pytest.raises(InvalidArgumentError):
            predict(model, np.zeros(3))

    def test_chunked_scoring_is_bit_identical(self, model):
        # More rows than one scoring chunk, with a short last chunk.
        x = gaussian_points(18, _CHUNK + 77)
        whole = estimate_density_batch(
            model.dm, embed(model.embedding, model.standardize(x)))
        assert np.array_equal(score_batch(model, x), whole)

    def test_score_independent_of_rate(self):
        pts = gaussian_points(11, 150)
        x = np.array([0.3, -0.2])
        scores = []
        for rate in (0.02, 0.5):
            model, _ = fit(pts[:100], pts[100:], rate, FitConfig(sigma=1.0, embed_dim=64, seed=2))
            scores.append(score(model, x))
        assert scores[0] == scores[1]


@pytest.fixture(scope="module")
def dataset():
    ds = generate_synthetic(two_cluster_spec(), seed=21)
    split = stratified_split(ds, seed=3)
    return (ds.features[split.train], ds.features[split.val],
            ds.labels[split.val], ds.anomaly_rate)


def grid(sigmas, embed_dims, seed=1, standardize=True):
    """The FitConfig of each (sigma, embed_dim) pair, sigma outermost."""
    return [FitConfig(sigma=sigma, embed_dim=dim, seed=seed, standardize=standardize)
            for sigma in sigmas for dim in embed_dims]


@pytest.fixture()
def search_fits(monkeypatch):
    """List that gains one entry per fit a search runs."""
    calls = []
    inner = detector._fit_in_space

    def counted(*args):
        calls.append(1)
        return inner(*args)

    monkeypatch.setattr(detector, "_fit_in_space", counted)
    return calls


class TestGridSearch:
    def test_singleton_grid(self, dataset):
        train, val, labels, rate = dataset
        best, report = grid_search(train, val, labels, rate, grid([1.0], [64]))
        assert best.sigma == 1.0 and best.embed_dim == 64
        assert len(report) == 1

    def test_tie_breaks_to_first_in_grid_order(self, dataset):
        train, val, labels, rate = dataset
        best, report = grid_search(train, val, labels, rate, grid([1.0], [128, 256]))
        f1s = [row["f1_weighted"] for row in report]
        if f1s[0] == f1s[1]:
            assert best.embed_dim == 128
        else:
            assert best.embed_dim == report[int(np.argmax(f1s))]["embed_dim"]

    def test_argmax_consistent_with_report(self, dataset):
        train, val, labels, rate = dataset
        best, report = grid_search(train, val, labels, rate, grid([0.1, 1.0, 10.0], [256]))
        best_row = next(r for r in report if r["sigma"] == best.sigma)
        assert best_row["f1_weighted"] == max(r["f1_weighted"] for r in report)

    def test_selected_config_scores_well(self, dataset):
        train, val, labels, rate = dataset
        best, _ = grid_search(train, val, labels, rate, grid([0.25, 0.5, 1.0, 2.0], [512]))
        model, _ = fit(train, val, rate, best)
        pred, _ = predict_batch(model, val)
        assert f1_weighted(labels, pred) >= 0.9

    def test_empty_grid(self, dataset):
        train, val, labels, rate = dataset
        with pytest.raises(InvalidArgumentError):
            grid_search(train, val, labels, rate, [])

    def test_misaligned_labels(self, dataset):
        train, val, labels, rate = dataset
        with pytest.raises(InvalidArgumentError):
            grid_search(train, val, labels[:-1], rate, grid([1.0], [64]))

    def test_fractional_labels(self, dataset, search_fits):
        train, val, labels, rate = dataset
        with pytest.raises(InvalidArgumentError, match="labels must be 0 or 1"):
            grid_search(train, val, np.where(labels == 1, 1.0, 0.9), rate, grid([1.0], [64]))
        assert search_fits == []

    @pytest.mark.parametrize("configs", [
        grid([1.0], [16], seed=1) + grid([2.0], [16], seed=2),
        grid([1.0], [16]) + grid([2.0], [16], standardize=False),
        grid([1.0], [16]) + grid([None], [16]),
        grid([None], [16]) + grid([1.0], [16]),
    ], ids=["seeds", "standardize", "sigma-set-first", "sigma-unset-first"])
    def test_mixed_grid_raises_before_any_fit(self, dataset, search_fits, configs):
        train, val, labels, rate = dataset
        with pytest.raises(InvalidArgumentError, match="grid config"):
            grid_search(train, val, labels, rate, configs)
        assert search_fits == []


class TestSearchInOneSpace:
    """The search standardizes once; each row is still the independent fit."""

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(6, 40), m=st.integers(6, 40), d=st.integers(1, 4),
           standardize=st.booleans(), seed=st.integers(0, 2**32 - 1),
           sigmas=st.lists(st.floats(0.05, 20.0), min_size=2, max_size=3),
           dims=st.lists(st.integers(1, 24), min_size=2, max_size=3),
           rate=st.floats(0.0, 0.5))
    def test_rows_equal_independent_fits(self, n, m, d, standardize, seed, sigmas, dims, rate):
        rng = np.random.default_rng(seed)
        shift, scale = rng.normal(size=d) * 10, np.exp(rng.normal(size=d))
        train = rng.normal(size=(n, d)) * scale + shift
        val = rng.normal(size=(m, d)) * 2 * scale + shift
        labels = rng.integers(0, 2, size=m)
        fit_seed = seed % 7
        # A product grid over sigmas at D=16, then sigma paired with D.
        for configs in (grid(sigmas, [16], fit_seed, standardize),
                        [FitConfig(sigma=sigma, embed_dim=dim, seed=fit_seed,
                                   standardize=standardize)
                         for sigma, dim in zip(sigmas, dims)]):
            _, report = grid_search(train, val, labels, rate, configs)
            assert len(report) == len(configs)
            for row, cfg in zip(report, configs):
                model, densities = fit(train, val, rate, cfg)
                pred = classify_batch(densities, model.theta)
                assert (row["sigma"], row["embed_dim"]) == (cfg.sigma, cfg.embed_dim)
                assert row["theta"] == model.theta
                assert (row["f1_weighted"], row["f1_anomaly"], row["accuracy"]) == (
                    f1_weighted(labels, pred), f1_anomaly(labels, pred), accuracy(labels, pred))

        fitted = apply_standardizer(train, *fit_standardizer(train)) if standardize else train
        explicit = grid_search(train, val, labels, rate,
                               grid(default_sigma_grid(fitted, fit_seed), dims, fit_seed,
                                    standardize))
        assert grid_search(train, val, labels, rate,
                           grid([None], dims, fit_seed, standardize)) == explicit

    def test_one_standardizer_fit_per_search(self, dataset, standardizer_fits):
        train, val, labels, rate = dataset
        grid_search(train, val, labels, rate, grid([0.5, 1.0, 2.0], [32, 64]))
        assert len(standardizer_fits) == 1
        grid_search(train, val, labels, rate, grid([None], [32]))
        assert len(standardizer_fits) == 2

    def test_default_sigma_is_the_median_of_the_fitted_train(self, dataset, standardizer_fits):
        train, val, _, rate = dataset
        model, _ = fit(train, val, rate, FitConfig(sigma=None, embed_dim=32, seed=5))
        assert len(standardizer_fits) == 1
        fitted = apply_standardizer(train, model.shift, model.scale)
        assert model.embedding.sigma == default_sigma_grid(fitted, 5)[2]
        same, _ = fit(train, val, rate, FitConfig(sigma=model.embedding.sigma, embed_dim=32,
                                                  seed=5))
        assert np.array_equal(same.dm.matrix, model.dm.matrix) and same.theta == model.theta


class TestFitWithInternalSplit:
    def test_calibration_holds_on_internal_holdout(self):
        pts = gaussian_points(12, 400)
        model = fit_with_internal_split(pts, 0.1, FitConfig(sigma=1.5, embed_dim=128, seed=4))
        assert np.isfinite(model.theta)

    def test_deterministic(self):
        pts = gaussian_points(13, 200)
        cfg = FitConfig(sigma=1.0, embed_dim=64, seed=9)
        a = fit_with_internal_split(pts, 0.1, cfg)
        b = fit_with_internal_split(pts, 0.1, cfg)
        assert a.theta == b.theta
        assert np.array_equal(a.dm.matrix, b.dm.matrix)

    def test_too_few_rows(self):
        with pytest.raises(InsufficientDataError):
            fit_with_internal_split(np.zeros((1, 2)), 0.1, FitConfig(sigma=1.0, embed_dim=8))
