import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import spearmanr

from dmkde import InvalidArgumentError, accuracy, confusion, f1_anomaly, f1_weighted
from dmkde.metrics import spearman


class TestConfusion:
    def test_perfect_two_sample(self):
        c = confusion([1, 0], [1, 0])
        assert (c.tp, c.tn, c.fp, c.fn) == (1, 1, 0, 0)

    def test_swapped_predictions(self):
        c = confusion([1, 0], [0, 1])
        assert (c.fn, c.fp) == (1, 1)

    def test_hand_count(self):
        c = confusion([0, 0, 0, 1], [0, 0, 1, 1])
        assert (c.tp, c.fp, c.tn, c.fn) == (1, 1, 2, 0)
        assert c.total == 4

    def test_length_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            confusion([0, 1], [0])

    def test_non_binary(self):
        with pytest.raises(InvalidArgumentError):
            confusion([0, 2], [0, 1])

    def test_empty(self):
        with pytest.raises(InvalidArgumentError):
            confusion([], [])


class TestF1Weighted:
    def test_perfect(self):
        assert f1_weighted([0, 1, 1], [0, 1, 1]) == 1.0

    def test_hand_value(self):
        # class 0: P=1, R=2/3, F1=0.8; class 1: P=0.5, R=1, F1=2/3
        # weighted: (3*0.8 + 1*(2/3)) / 4
        value = f1_weighted([0, 0, 0, 1], [0, 0, 1, 1])
        assert value == pytest.approx((3 * 0.8 + 2 / 3) / 4)

    def test_all_normal_predictions(self):
        # class 0: P=3/4, R=1, F1=6/7; class 1 contributes 0
        value = f1_weighted([0, 0, 0, 1], [0, 0, 0, 0])
        assert value == pytest.approx(3 * (6 / 7) / 4)
        assert value == pytest.approx(0.643, abs=0.001)

    def test_label_swap_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            y = rng.integers(0, 2, 30)
            p = rng.integers(0, 2, 30)
            assert f1_weighted(y, p) == pytest.approx(f1_weighted(1 - y, 1 - p))

    def test_equals_f1_anomaly_when_all_class_one(self):
        y = np.ones(10, dtype=int)
        p = np.array([1] * 7 + [0] * 3)
        assert f1_weighted(y, p) == pytest.approx(f1_anomaly(y, p))


class TestF1AnomalyAccuracy:
    def test_perfect(self):
        assert f1_anomaly([0, 1], [0, 1]) == 1.0
        assert accuracy([0, 1], [0, 1]) == 1.0

    def test_hand_values(self):
        y, p = [0, 0, 0, 1], [0, 0, 1, 1]
        assert f1_anomaly(y, p) == pytest.approx(2 / 3)
        assert accuracy(y, p) == 0.75

    def test_zero_division_convention(self):
        assert f1_anomaly([0, 0], [0, 0]) == 0.0

    def test_accuracy_formula(self):
        rng = np.random.default_rng(1)
        y = rng.integers(0, 2, 40)
        p = rng.integers(0, 2, 40)
        c = confusion(y, p)
        assert accuracy(y, p) == (c.tp + c.tn) / 40

    def test_all_in_unit_interval(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            y = rng.integers(0, 2, 15)
            p = rng.integers(0, 2, 15)
            for m in (f1_weighted, f1_anomaly, accuracy):
                assert 0.0 <= m(y, p) <= 1.0


def _scipy_spearman(a, b) -> float:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # constant input warns and gives nan
        return float(spearmanr(a, b).statistic)


class TestSpearman:
    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(2, 400),
           values=st.sampled_from(("continuous", "rounded", "three_levels",
                                   "constant_a", "constant_b")),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_scipy_bitwise(self, n, values, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=n)
        b = rng.normal() * a + rng.normal(size=n)
        if values == "rounded":
            a, b = np.round(a, 1), np.round(b)
        elif values == "three_levels":
            a, b = rng.integers(0, 3, n).astype(float), rng.integers(0, 3, n).astype(float)
        elif values == "constant_a":
            a = np.full(n, a[0])
        elif values == "constant_b":
            b = np.full(n, b[0])
        got, ref = spearman(a, b), _scipy_spearman(a, b)
        if np.isnan(ref):
            assert np.isnan(got)
        else:
            assert np.float64(got).tobytes() == np.float64(ref).tobytes()

    def test_hand_values(self):
        assert spearman([1.0, 2.0, 3.0], [10.0, 20.0, 30.0]) == 1.0
        assert spearman([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == -1.0
        # ranks (1.5, 1.5, 3) against (1, 2, 3)
        assert spearman([5.0, 5.0, 7.0], [1.0, 2.0, 3.0]) == pytest.approx(np.sqrt(0.75))

    @pytest.mark.parametrize("a, b", [([], []), ([1.0], [2.0]),
                                      ([1.0, np.nan, 3.0], [1.0, 2.0, 3.0])])
    def test_undefined_is_nan(self, a, b):
        assert np.isnan(spearman(a, b))
        assert np.isnan(_scipy_spearman(a, b))

    def test_length_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            spearman([1.0, 2.0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("a, b, message", [
        ([[1.0, 2.0], [3.0]], [1.0, 2.0], "^a must be an array of numbers: "),
        ([1.0, 2.0], [1.0, [2.0, 3.0]], "^b must be an array of numbers: "),
        ([[1.0, 2.0], [3.0, 4.0]], [[1.0, 2.0], [3.0, 4.0]], "^spearman needs two 1-D"),
    ])
    def test_ragged_or_not_1d_is_an_argument_error(self, a, b, message):
        with pytest.raises(InvalidArgumentError, match=message):
            spearman(a, b)
