"""Every public scalar parameter is checked by one of the package's three
scalar rules (a count, a positive finite real, a rate in [0, 1]), every
array parameter by its array rule, and every array rule names what it
checked."""

from fractions import Fraction

import numpy as np
import pytest

from dmkde import (
    AffConfig,
    DensityFactor,
    DensityMatrix,
    DetectorModel,
    EmbeddingParams,
    FitConfig,
    GaussianComponent,
    InvalidArgumentError,
    LabeledDataset,
    SyntheticSpec,
    apply_standardizer,
    compute_threshold,
    confusion,
    default_sigma_grid,
    embed,
    fit,
    gaussian_kernel,
    kde_exact_batch,
    sample_rff_params,
)
from dmkde.metrics import spearman
from dmkde.rng import stream

_RNG = np.random.default_rng(0)
_TRAIN, _VAL = _RNG.normal(size=(20, 2)), _RNG.normal(size=(10, 2))
_PARAMS = sample_rff_params(2, 3, 1.0, 0)

# Field -> call that passes a value for it and returns what it became, or a
# result that depends on it.  A valid count is 2 above its lower bound, so
# the shapes here are built for input_dim and embed_dim 3.
COUNTS = {
    "EmbeddingParams.input_dim": (1, lambda v: EmbeddingParams(
        np.zeros((3, 3)), np.zeros(3), 1.0, v, 3).input_dim),
    "EmbeddingParams.embed_dim": (1, lambda v: EmbeddingParams(
        np.zeros((3, 2)), np.zeros(3), 1.0, 2, v).embed_dim),
    "sample_rff_params.input_dim": (1, lambda v: sample_rff_params(v, 3, 1.0, 0).input_dim),
    "sample_rff_params.embed_dim": (1, lambda v: sample_rff_params(2, v, 1.0, 0).embed_dim),
    "sample_rff_params.seed": (0, lambda v: sample_rff_params(2, 3, 1.0, v).weights[0, 0]),
    "AffConfig.num_pairs": (1, lambda v: AffConfig(num_pairs=v).num_pairs),
    "AffConfig.epochs": (0, lambda v: AffConfig(epochs=v).epochs),
    "FitConfig.embed_dim": (1, lambda v: FitConfig(None, v).embed_dim),
    "FitConfig.seed": (0, lambda v: FitConfig(None, 8, seed=v).seed),
    "DensityMatrix.sample_count": (1, lambda v: DensityMatrix(np.eye(2) / 2, v).sample_count),
    "DensityFactor.sample_count": (1, lambda v: DensityFactor(np.eye(2)[:, :1], v).sample_count),
    "GaussianComponent.count": (1, lambda v: GaussianComponent([0.0], 1.0, v).count),
    "SyntheticSpec.anomaly_count": (0, lambda v: SyntheticSpec(
        [GaussianComponent([0.0], 1.0, 2)], v, [-1.0], [1.0]).anomaly_count),
    "stream.seed": (0, lambda v: stream(v, 0).random()),
    "default_sigma_grid.seed": (0, lambda v: default_sigma_grid(_TRAIN[:5], v)[2]),
}
REALS = {
    "EmbeddingParams.sigma": lambda v: EmbeddingParams(
        np.zeros((3, 2)), np.zeros(3), v, 2, 3).sigma,
    "sample_rff_params.sigma": lambda v: sample_rff_params(2, 3, v, 0).sigma,
    "AffConfig.learning_rate": lambda v: AffConfig(learning_rate=v).learning_rate,
    "FitConfig.sigma": lambda v: FitConfig(v, 8).sigma,
    "kde_exact_batch.sigma": lambda v: kde_exact_batch(_TRAIN, v, _VAL)[0],
    "gaussian_kernel.sigma": lambda v: gaussian_kernel(np.zeros(2), np.ones(2), v),
}
RATES = {
    "DetectorModel.anomaly_rate": lambda v: DetectorModel(
        _PARAMS, DensityMatrix(np.eye(3) / 3, 1), 0.5, v).anomaly_rate,
    "compute_threshold.anomaly_rate": lambda v: compute_threshold([1.0, 2.0, 3.0], v),
    "fit.anomaly_rate": lambda v: fit(_TRAIN, _VAL, v, FitConfig(None, 8))[0].anomaly_rate,
}

_INF = float("inf")
_BAD = {
    "count": lambda low: [low - 1, 2.5, "3", float("nan"), _INF],
    "real": lambda low: ["2.0", 0.0, -1.0, float("nan"), _INF, -_INF],
    "rate": lambda low: ["0.5", -0.25, 1.5, float("nan"), _INF, -_INF],
}
_GOOD = {  # the value as a Python number, then the same value in other types
    "count": lambda low: (low + 2, [float(low + 2), np.int64(low + 2), np.float64(low + 2)]),
    "real": lambda low: (2.0, [2, np.int64(2), np.float32(2.0), np.float64(2.0)]),
    "rate": lambda low: (1.0, [1, np.int64(1), np.float32(1.0), np.float64(1.0)]),
}
SITES = ([(site, "count", low, call) for site, (low, call) in COUNTS.items()]
         + [(site, "real", None, call) for site, call in REALS.items()]
         + [(site, "rate", None, call) for site, call in RATES.items()])


def _cases(table):
    return [pytest.param(call, site.split(".")[1], value, id=f"{site}={value!r}")
            for site, kind, low, call in SITES for value in table[kind](low)]


@pytest.mark.parametrize("call,field,value", _cases(_BAD))
def test_bad_value_is_an_argument_error_naming_the_field(call, field, value):
    with pytest.raises(InvalidArgumentError, match=rf"^{field} must "):
        call(value)


@pytest.mark.parametrize("call,field,value",
                         [pytest.param(call, site, _GOOD[kind](low), id=site)
                          for site, kind, low, call in SITES])
def test_equal_values_give_equal_python_results(call, field, value):
    # A whole float or a numpy scalar counts as the Python number it equals.
    exact, others = value
    expected = call(exact)
    for other in others:
        result = call(other)
        assert result == expected and type(result) is type(expected), (field, other)


@pytest.mark.parametrize("sigma", [0.0, -1.0, float("nan"), float("inf")])
def test_gaussian_kernel_rejects_the_bad_sigmas_kde_rejects(sigma):
    with pytest.raises(InvalidArgumentError, match="^sigma "):
        gaussian_kernel(np.zeros((3, 2)), np.zeros((3, 2)), sigma)


# Field -> (a valid array for it, call that passes an array for it and
# returns what it became, or a result that depends on it).  Every value is a
# binary fraction, so it has the same value as a Fraction or float32.
_DM = DensityMatrix(np.eye(3) / 3, 1)
ARRAYS = {
    "LabeledDataset.features": ([[1.5], [0.5]], lambda v: LabeledDataset(v, [0, 1]).features),
    "LabeledDataset.labels": ([1, 0], lambda v: LabeledDataset([[1.5], [0.5]], v).labels),
    "confusion.y_true": ([0, 1], lambda v: confusion(v, [1, 1])),
    "confusion.y_pred": ([0, 1], lambda v: confusion([1, 1], v)),
    "compute_threshold.densities": ([0.5, 2.0, 1.5], lambda v: compute_threshold(v, 0.5)),
    "embed.features": ([0.5, -2.0], lambda v: embed(_PARAMS, v)),
    "gaussian_kernel.features": ([0.5, -2.0], lambda v: gaussian_kernel(v, [1.0, 0.0], 1.0)),
    "apply_standardizer.features": ([[0.5, 1.0]], lambda v: apply_standardizer(
        v, [0.0, 0.0], [1.0, 1.0])),
    "apply_standardizer.shift": ([0.5, 1.0], lambda v: apply_standardizer(
        [[0.0, 0.0]], v, [1.0, 1.0])),
    "apply_standardizer.scale": ([0.5, 1.0], lambda v: apply_standardizer(
        [[1.0, 1.0]], [0.0, 0.0], v)),
    "GaussianComponent.mean": ([0.5, -1.0], lambda v: GaussianComponent(v, 1.0, 2).mean),
    "GaussianComponent.cov": ([2.0, 0.5], lambda v: GaussianComponent([0.0, 0.0], v, 2).cov),
    "SyntheticSpec.box_low": ([-1.0], lambda v: SyntheticSpec(
        [GaussianComponent([0.0], 1.0, 2)], 1, v, [1.0]).box_low),
    "SyntheticSpec.box_high": ([1.0], lambda v: SyntheticSpec(
        [GaussianComponent([0.0], 1.0, 2)], 1, [-1.0], v).box_high),
    "EmbeddingParams.weights": ([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]], lambda v: EmbeddingParams(
        v, np.zeros(3), 1.0, 2, 3).weights),
    "EmbeddingParams.offsets": ([0.0, 1.0, 0.5], lambda v: EmbeddingParams(
        np.zeros((3, 2)), v, 1.0, 2, 3).offsets),
    "DensityMatrix.matrix": ([[0.5, 0.0], [0.0, 0.5]], lambda v: DensityMatrix(v, 1).matrix),
    "DensityFactor.factor": ([[1.0], [0.0]], lambda v: DensityFactor(v, 1).factor),
    "DetectorModel.shift": ([0.5, 1.0], lambda v: DetectorModel(
        _PARAMS, _DM, 0.5, 0.1, shift=v, scale=[1.0, 1.0]).shift),
    "DetectorModel.scale": ([0.5, 1.0], lambda v: DetectorModel(
        _PARAMS, _DM, 0.5, 0.1, shift=[0.0, 0.0], scale=v).scale),
    "spearman.a": ([0.5, 2.0, 1.5], lambda v: spearman(v, [1.0, 0.5, 2.0])),
    "spearman.b": ([0.5, 2.0, 1.5], lambda v: spearman([1.0, 0.5, 2.0], v)),
}


def _map_first(value, change):
    """``value`` with its first number (depth first) replaced by ``change`` of it."""
    if isinstance(value, list):
        return [_map_first(value[0], change)] + value[1:]
    return change(value)


def _map_all(value, change):
    return [_map_all(v, change) for v in value] if isinstance(value, list) else change(value)


_TEXT = {  # an array with one number written as text, which float() would parse
    "str": lambda v: _map_first(v, str),
    "bytes": lambda v: _map_first(v, lambda x: str(x).encode()),
    "object array": lambda v: np.array(_map_first(v, str), dtype=object),
    "numpy str array": lambda v: np.array(_map_all(v, str)),
}


@pytest.mark.parametrize("call,field,value", [
    pytest.param(call, site.split(".")[1], make(valid), id=f"{site}={kind}")
    for site, (valid, call) in ARRAYS.items() for kind, make in _TEXT.items()])
def test_text_in_an_array_is_an_argument_error_naming_the_field(call, field, value):
    with pytest.raises(InvalidArgumentError, match=rf"^{field} must be an array of numbers: "):
        call(value)


@pytest.mark.parametrize("valid,call", [pytest.param(*ARRAYS[site], id=site) for site in ARRAYS])
def test_equal_numbers_in_an_array_give_equal_results(valid, call):
    # Fractions, numpy scalars, whole numbers and bools count as the numbers they equal.
    expected = call(valid)
    leaves = np.ravel(valid)
    kinds = [Fraction, np.float64, np.float32]
    if all(float(v).is_integer() for v in leaves):
        kinds += [int, np.int64]
    if all(v in (0, 1) for v in leaves):
        kinds.append(bool)
    for kind in kinds:
        result = call(_map_all(valid, kind))
        if isinstance(expected, np.ndarray):
            assert result.dtype == expected.dtype and np.array_equal(result, expected), kind
        else:
            assert result == expected, kind


class TestArrayRulesNameTheirInput:
    def test_labels(self):
        with pytest.raises(InvalidArgumentError, match="^non-finite values in labels$"):
            LabeledDataset(np.zeros((2, 1)), [0, np.nan])

    def test_densities(self):
        with pytest.raises(InvalidArgumentError, match="^non-finite values in densities$"):
            compute_threshold([1.0, np.nan], 0.1)

    @pytest.mark.parametrize("y_true,y_pred,message", [
        ([0, 2], [0, 1], "^y_true must be 0 or 1$"),
        ([0, 1], [0.5, 1], "^y_pred must be 0 or 1$"),
        ([0, 1], [0, np.nan], "^non-finite values in y_pred$"),
        ([0, 1], [0, 1, 1], r"^expected a vector of length 2, got shape \(3,\)$"),
        ([[0, 1]], [0, 1], r"^expected a vector of length 2, got shape \(1, 2\)$"),
    ])
    def test_metric_labels(self, y_true, y_pred, message):
        with pytest.raises(InvalidArgumentError, match=message):
            confusion(y_true, y_pred)
