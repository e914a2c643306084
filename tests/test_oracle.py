import numpy as np
import pytest

from dmkde import (
    InsufficientDataError,
    InvalidArgumentError,
    build_density_matrix,
    estimate_density,
    kde_exact,
    kde_exact_batch,
    qde_bruteforce,
    reference_classifier,
)
from tests.conftest import random_unit_vectors


class TestKdeExact:
    def test_single_kernel_at_center(self):
        # (2 pi)^(-1/2) for d=1, sigma=1, query at the training point
        value = kde_exact(np.array([[0.0]]), 1.0, np.array([0.0]))
        assert value == pytest.approx(0.3989422804014327, rel=1e-12)

    def test_far_query_decays_to_zero(self):
        value = kde_exact(np.array([[0.0, 0.0]]), 1.0, np.array([40.0, 0.0]))
        assert value == pytest.approx(0.0, abs=1e-300)

    def test_two_point_hand_value(self):
        # (1/2) * (1/(2 pi)) * 2 * exp(-1/2)
        train = np.array([[0.0, 0.0], [2.0, 0.0]])
        value = kde_exact(train, 1.0, np.array([1.0, 0.0]))
        assert value == pytest.approx(0.0965323526, rel=1e-9)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(1)
        train = rng.normal(size=(40, 3))
        x = rng.normal(size=3)
        a = kde_exact(train, 0.8, x)
        b = kde_exact(train[rng.permutation(40)], 0.8, x)
        assert a == pytest.approx(b, rel=1e-12)

    def test_duplication_invariant(self):
        rng = np.random.default_rng(2)
        train = rng.normal(size=(25, 2))
        x = rng.normal(size=2)
        assert kde_exact(np.vstack([train, train]), 1.2, x) == pytest.approx(
            kde_exact(train, 1.2, x), rel=1e-12)

    def test_empty_train(self):
        with pytest.raises(InsufficientDataError):
            kde_exact(np.empty((0, 2)), 1.0, np.zeros(2))

    @pytest.mark.parametrize("sigma", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_sigma(self, sigma):
        with pytest.raises(InvalidArgumentError):
            kde_exact(np.zeros((3, 2)), sigma, np.zeros(2))

    @pytest.mark.parametrize("n,m,d", [(1, 1, 1), (257, 158, 2), (33, 200, 17), (3, 129, 64),
                                       (40_000, 70, 2)])
    def test_batch_equals_per_query_loop_bitwise(self, n, m, d):
        # The last shape scores fewer than 64 queries per block.
        rng = np.random.default_rng(n + m + d)
        train, queries, sigma = rng.normal(size=(n, d)), 1.5 * rng.normal(size=(m, d)), 0.7
        norm = (2.0 * np.pi * sigma ** 2) ** (-d / 2.0)
        loop = [norm * np.mean(np.exp(-np.sum((train - q) ** 2, axis=1) / (2.0 * sigma ** 2)))
                for q in queries]
        batch = kde_exact_batch(train, sigma, queries)
        assert np.array_equal(batch, np.array(loop))
        assert kde_exact(train, sigma, queries[-1]) == batch[-1]


class TestQdeBruteforce:
    def test_query_equals_only_embedding(self):
        phi = np.array([0.6, 0.8])
        assert qde_bruteforce([phi], phi) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_query(self):
        assert qde_bruteforce([np.array([1.0, 0.0])], np.array([0.0, 1.0])) == 0.0

    def test_equals_density_matrix_path(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            n = int(rng.integers(1, 80))
            dim = int(rng.choice([4, 16, 64]))
            phis = random_unit_vectors(rng, n, dim)
            dm = build_density_matrix(phis)
            for q in random_unit_vectors(rng, 5, dim):
                assert abs(qde_bruteforce(phis, q) - estimate_density(dm, q)) <= 1e-9

    def test_empty(self):
        with pytest.raises(InsufficientDataError):
            qde_bruteforce([], np.zeros(2))

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            qde_bruteforce([np.zeros(2)], np.zeros(3))


@pytest.fixture(scope="module")
def sets():
    rng = np.random.default_rng(4)
    train = rng.normal(size=(120, 2))
    val = rng.normal(size=(60, 2))
    return train, val


class TestReferenceClassifier:
    def test_far_point_flagged(self, sets):
        train, val = sets
        test = np.vstack([np.zeros(2), np.full(2, 25.0)])
        labels = reference_classifier(train, val, test, 0.1, 1.0)
        assert labels[1] == 1

    def test_rate_zero_everything_normal(self, sets):
        train, val = sets
        test = np.vstack([np.zeros(2), np.full(2, 25.0)])
        labels = reference_classifier(train, val, test, 0.0, 1.0)
        assert labels.sum() == 0

    def test_calibrated_fraction_on_validation(self, sets):
        train, val = sets
        labels = reference_classifier(train, val, val, 0.2, 1.0)
        frac = labels.mean()
        assert abs(frac - 0.2) <= 1.0 / len(val) + 1e-12

    def test_empty_sets(self, sets):
        train, val = sets
        with pytest.raises(InsufficientDataError):
            reference_classifier(train, val, np.empty((0, 2)), 0.1, 1.0)
