import csv
import math
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dmkde import (
    AffConfig,
    FitConfig,
    GaussianComponent,
    InsufficientClassError,
    InsufficientDataError,
    InvalidArgumentError,
    LabeledDataset,
    ParseError,
    SyntheticSpec,
    apply_standardizer,
    compute_threshold,
    default_sigma_grid,
    embed,
    fit,
    fit_standardizer,
    gaussian_kernel,
    generate_synthetic,
    kde_exact_batch,
    load_csv,
    pair_loss,
    reference_classifier,
    sample_rff_params,
    save_csv,
    score_batch,
    stratified_split,
    train_aff,
)
from dmkde import dataio
from tests.conftest import ODDS_DIR, two_cluster_spec


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_basic_parse(self, tmp_path):
        path = write(tmp_path, "a,b,label\n0,0,0\n1,1,0\n9,9,1\n")
        ds = load_csv(path)
        assert ds.features.shape == (3, 2)
        assert ds.anomaly_rate == pytest.approx(1 / 3)
        assert ds.name == "data"

    def test_nan_cell_names_row_and_column(self, tmp_path):
        path = write(tmp_path, "a,b,label\n0,nan,0\n1,1,1\n")
        with pytest.raises(ParseError) as exc:
            load_csv(path)
        assert exc.value.row == 2
        assert exc.value.column == "b"

    def test_non_numeric_cell(self, tmp_path):
        path = write(tmp_path, "a,b,label\n0,oops,0\n1,1,1\n")
        with pytest.raises(ParseError) as exc:
            load_csv(path)
        assert exc.value.row == 2 and exc.value.column == "b"

    def test_ragged_row(self, tmp_path):
        path = write(tmp_path, "a,b,label\n0,0,0\n1,1\n")
        with pytest.raises(ParseError) as exc:
            load_csv(path)
        assert exc.value.row == 3

    def test_label_outside_binary(self, tmp_path):
        path = write(tmp_path, "a,b,label\n0,0,2\n")
        with pytest.raises(ParseError) as exc:
            load_csv(path)
        assert exc.value.column == "label"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_csv(tmp_path / "nope.csv")

    def test_label_column_by_name(self, tmp_path):
        path = write(tmp_path, "label,x\n1,5.5\n0,6.5\n")
        ds = load_csv(path, label_column="label")
        assert ds.features[0, 0] == 5.5
        assert list(ds.labels) == [1, 0]

    def test_unknown_label_column(self, tmp_path):
        path = write(tmp_path, "a,label\n0,0\n")
        with pytest.raises(ParseError):
            load_csv(path, label_column="target")

    def test_empty_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_csv(write(tmp_path, ""))

    def test_header_only(self, tmp_path):
        with pytest.raises(ParseError):
            load_csv(write(tmp_path, "a,label\n"))

    @pytest.mark.skipif(not (ODDS_DIR / "arrhythmia.csv").exists(),
                        reason="user-supplied ODDS conversion not present")
    def test_arrhythmia_shape(self):
        ds = load_csv(ODDS_DIR / "arrhythmia.csv")
        assert len(ds) == 452
        assert ds.features.shape[1] == 274
        assert ds.anomaly_rate == pytest.approx(0.146, abs=0.001)


def _load_both(text):
    """``load_csv`` of ``text`` as it runs and with the plain split declined,
    so that ``csv`` splits every row: each outcome is the dataset's bytes or
    the ``ParseError``'s message, row and column."""
    def outcome():
        try:
            ds = load_csv(path)
        except ParseError as exc:
            return ("error", str(exc), exc.row, exc.column)
        return ("dataset", ds.features.shape, ds.features.tobytes(), ds.labels.tobytes())

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_bytes(text.encode("utf-8"))
        fast = outcome()
        with mock.patch.object(dataio, "_split_plain", lambda text: None):
            cells = outcome()
    return fast, cells


_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "oops", "", " 1.5 ", "1_0", "0x1",
                     '"1"', "-0.0", "1e-320", "\t2"]),
)
_LABELS = st.sampled_from(["0", "1", "1.0", "-0", " 1", "0.0", "2", "0.5", "nan", "x", '"0"'])


@st.composite
def _csv_texts(draw):
    """A header and rows of 1-3 feature cells and a label, mostly clean; any
    row may be ragged or blank, and the lines may end in ``\r\n``."""
    width = draw(st.integers(1, 3))
    lines = [",".join([f"f{i}" for i in range(width)] + ["label"])]
    for _ in range(draw(st.integers(0, 6))):
        clean = draw(st.booleans())
        feats = draw(st.lists(
            st.floats(-1e6, 1e6, allow_nan=False).map(repr) if clean else _CELLS,
            min_size=width, max_size=width))
        label = draw(st.sampled_from(["0", "1"]) if clean else _LABELS)
        row = feats + [label]
        shape = draw(st.sampled_from(["row"] * 6 + ["short", "long", "blank"]))
        if shape == "short":
            row = row[:-1]
        elif shape == "long":
            row = row + ["0"]
        lines.append("" if shape == "blank" else ",".join(row))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from([end, ""]))


class TestCsvFastPath:
    @settings(max_examples=200, deadline=None)
    @given(text=_csv_texts())
    @example(text="a,label\n1.5,0\n")
    @example(text='a,label\n"1.5",0\n')
    @example(text="a,label\n1,0\n\n2,1\n")
    @example(text="a,b,label\n1,2,0\n1,1\n")
    @example(text="a,label\noops,0\n")
    @example(text="a,label\n1e400,0\n")
    @example(text="a,label\n1,2\n")
    @example(text="a,label\n0,1,0\n1,0\n")
    @example(text="a,label\n1,0\n\x002,1\n")
    @example(text="a,label\r1,0\x0c2,1\u2028")
    @example(text="a,label\n")
    def test_same_bytes_or_same_error_as_the_per_cell_parser(self, text):
        fast, cells = _load_both(text)
        assert fast == cells

    @settings(max_examples=200, deadline=None)
    @given(text=_csv_texts())
    @example(text='a,label\n"1.5",0\n')
    @example(text="a,label\n1,0\n\n2,1\n")
    def test_one_pass_table_is_float_of_each_cell(self, text):
        # The reference converts cell by cell and declines where the fault
        # walk would raise; both splitters' rows must give its bits.
        def per_cell(rows):
            body, width = rows[1:], len(rows[0])
            if not body or any(len(row) != width for row in body):
                return None
            try:
                table = [[float(cell) for cell in row] for row in body]
            except ValueError:
                return None
            if not all(math.isfinite(v) for row in table for v in row) or any(
                    row[-1] not in (0.0, 1.0) for row in table):
                return None
            return np.array(table, dtype=np.float64)

        for rows in (dataio._split_plain(text), list(csv.reader(text.splitlines()))):
            if rows is None:
                continue
            fast, expected = dataio._fast_table(rows, len(rows[0]) - 1), per_cell(rows)
            assert (fast is None) == (expected is None)
            if fast is not None:
                assert fast.shape == expected.shape and fast.tobytes() == expected.tobytes()

    def test_clean_file_never_reaches_the_per_cell_parser(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("fault walk ran")

        path = tmp_path / "clean.csv"
        ds = generate_synthetic(two_cluster_spec(), seed=3)
        save_csv(ds, path)
        monkeypatch.setattr(dataio, "_raise_first_fault", refuse)
        quoted = tmp_path / "quoted.csv"
        with quoted.open("w", newline="", encoding="utf-8") as out:
            csv.writer(out, quoting=csv.QUOTE_ALL).writerows(
                csv.reader(path.read_text(encoding="utf-8").splitlines()))
        assert '"' in quoted.read_text(encoding="utf-8")
        for copy in (path, quoted):
            back = load_csv(copy)
            assert back.features.tobytes() == ds.features.tobytes()
            assert back.labels.tobytes() == ds.labels.tobytes()
        path.write_text("a, b ,label\r\n-0.0, 1e-320,1.0\r\n7,1_0,-0\r\n", encoding="utf-8")
        back = load_csv(path, label_column="label")
        assert back.features.tolist() == [[-0.0, 1e-320], [7.0, 10.0]]
        assert back.labels.tolist() == [1, 0]


    def test_csv_error_is_a_parse_error_with_its_row(self, tmp_path, monkeypatch):
        # Before Python 3.11, csv.reader raises on a line holding a NUL; the
        # row it counted is the one reported.
        real_reader = csv.reader

        class NulRejectingReader:
            def __init__(self, lines):
                self.lines, self.line_num = iter(lines), 0

            def __iter__(self):
                return self

            def __next__(self):
                line = next(self.lines)
                self.line_num += 1
                if "\0" in line:
                    raise csv.Error("line contains NUL")
                return next(real_reader([line]))

        monkeypatch.setattr(dataio.csv, "reader", NulRejectingReader)
        path = write(tmp_path, "a,label\n1,0\n\x002,1\n")
        with pytest.raises(ParseError, match="line contains NUL") as exc:
            load_csv(path)
        assert exc.value.row == 3 and exc.value.column is None


class TestSaveLoadRoundTrip:
    def test_values_identical(self, tmp_path):
        ds = generate_synthetic(two_cluster_spec(), seed=2)
        path = tmp_path / "round.csv"
        save_csv(ds, path)
        back = load_csv(path)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)
        save_csv(back, tmp_path / "round2.csv")
        assert (tmp_path / "round.csv").read_text() == (tmp_path / "round2.csv").read_text()


class TestStratifiedSplit:
    @pytest.fixture()
    def fixture_100_10(self):
        features = np.arange(200, dtype=np.float64).reshape(100, 2)
        labels = np.array([1] * 10 + [0] * 90)
        return LabeledDataset(features, labels, name="fixture")

    def test_documented_counts(self, fixture_100_10):
        split = stratified_split(fixture_100_10, seed=0)
        labels = fixture_100_10.labels
        assert (len(split.test), len(split.val), len(split.train)) == (30, 21, 49)
        assert labels[split.test].sum() == 3
        assert labels[split.val].sum() == 2
        assert labels[split.train].sum() == 5

    def test_deterministic(self, fixture_100_10):
        a = stratified_split(fixture_100_10, seed=4)
        b = stratified_split(fixture_100_10, seed=4)
        assert np.array_equal(a.train, b.train)
        assert np.array_equal(a.val, b.val)
        assert np.array_equal(a.test, b.test)

    def test_disjoint_and_exhaustive(self, fixture_100_10):
        split = stratified_split(fixture_100_10, seed=7)
        merged = np.concatenate([split.train, split.val, split.test])
        assert np.array_equal(np.sort(merged), np.arange(100))

    def test_proportions_within_one_sample(self, fixture_100_10):
        rate = fixture_100_10.anomaly_rate
        labels = fixture_100_10.labels
        for seed in range(20):
            split = stratified_split(fixture_100_10, seed=seed)
            for idx in (split.train, split.val, split.test):
                assert abs(labels[idx].sum() - rate * len(idx)) <= 1.0

    def test_all_normal_raises_for_class_1(self):
        ds = LabeledDataset(np.zeros((20, 2)), np.zeros(20, dtype=int))
        with pytest.raises(InsufficientClassError) as exc:
            stratified_split(ds, seed=0)
        assert exc.value.label == 1

    def test_tiny_class_raises(self):
        ds = LabeledDataset(np.zeros((21, 2)), np.array([1] + [0] * 20))
        with pytest.raises(InsufficientClassError) as exc:
            stratified_split(ds, seed=0)
        assert exc.value.label == 1


class TestStandardizer:
    def test_two_point_column(self):
        shift, scale = fit_standardizer(np.array([[1.0], [3.0]]))
        assert shift[0] == 2.0 and scale[0] == 1.0

    def test_constant_column_scale_one(self):
        shift, scale = fit_standardizer(np.array([[5.0, 1.0], [5.0, 2.0]]))
        assert scale[0] == 1.0

    def test_standardized_moments(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(1000, 5)) * np.array([1, 10, 0.1, 3, 7]) + 4
        shift, scale = fit_standardizer(x)
        z = apply_standardizer(x, shift, scale)
        assert np.max(np.abs(z.mean(axis=0))) <= 1e-9
        assert np.max(np.abs(z.std(axis=0) - 1.0)) <= 1e-6

    def test_needs_two_rows(self):
        with pytest.raises(InsufficientDataError):
            fit_standardizer(np.zeros((1, 3)))

    def test_huge_column_keeps_a_finite_scale(self):
        # Squaring values near 1e160 overflows; such a column's scale is
        # taken on the column divided by its largest magnitude instead.
        x = np.random.default_rng(0).normal(size=(50, 2)) * np.array([1.0, 1e160])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            shift, scale = fit_standardizer(x)
            model, _ = fit(x[:35], x[35:], 0.1, FitConfig(sigma=1.0, embed_dim=16))
        assert np.all(np.isfinite(scale)) and scale[1] > 1e159
        assert scale[0] == x[:, 0].std()  # a column that fits keeps its bits
        z = apply_standardizer(x, shift, scale)
        assert np.max(np.abs(z.std(axis=0) - 1.0)) <= 1e-12
        assert np.all(np.isfinite(model.scale))


class TestSynthetic:
    def test_counts(self):
        ds = generate_synthetic(two_cluster_spec(), seed=0)
        assert len(ds) == 525
        assert ds.labels.sum() == 25
        assert ds.anomaly_rate == pytest.approx(25 / 525)

    def test_deterministic(self):
        a = generate_synthetic(two_cluster_spec(), seed=9)
        b = generate_synthetic(two_cluster_spec(), seed=9)
        assert np.array_equal(a.features, b.features)

    def test_exclusion_radius_respected(self):
        spec = two_cluster_spec()
        spec.exclusion_radius = 3.0
        ds = generate_synthetic(spec, seed=1)
        anomalies = ds.features[ds.labels == 1]
        means = np.stack([c.mean for c in spec.components])
        dist = np.linalg.norm(anomalies[:, None, :] - means[None, :, :], axis=2)
        assert dist.min() > 3.0

    def test_anomalies_inside_box(self):
        spec = two_cluster_spec()
        ds = generate_synthetic(spec, seed=2)
        anomalies = ds.features[ds.labels == 1]
        assert np.all(anomalies >= spec.box_low) and np.all(anomalies <= spec.box_high)

    def test_impossible_box_rejected(self):
        spec = SyntheticSpec(
            components=[GaussianComponent(np.zeros(2), 1.0, 10)],
            anomaly_count=5,
            box_low=np.array([-1.0, -1.0]),
            box_high=np.array([1.0, 1.0]),
            exclusion_radius=5.0,
        )
        with pytest.raises(InvalidArgumentError):
            generate_synthetic(spec, seed=0)

    def test_from_dict(self):
        spec = SyntheticSpec.from_dict({
            "name": "mini",
            "components": [{"mean": [0, 0], "cov": 1.0, "count": 10}],
            "anomaly_count": 2,
            "box_low": [-5, -5],
            "box_high": [5, 5],
            "exclusion_radius": 3.0,
        })
        ds = generate_synthetic(spec, seed=3)
        assert len(ds) == 12 and ds.name == "mini"

    def test_from_dict_missing_key(self):
        with pytest.raises(InvalidArgumentError):
            SyntheticSpec.from_dict({"components": []})


class TestLabeledDataset:
    def test_rejects_nonfinite_features(self):
        with pytest.raises(InvalidArgumentError):
            LabeledDataset(np.array([[np.inf]]), np.array([0]))

    def test_rejects_nonbinary_labels(self):
        with pytest.raises(InvalidArgumentError):
            LabeledDataset(np.zeros((2, 1)), np.array([0, 2]))

    def test_rejects_fractional_labels(self):
        # Checked before the cast, which would truncate them to [0, 1].
        with pytest.raises(InvalidArgumentError, match="labels must be 0 or 1"):
            LabeledDataset(np.zeros((2, 2)), [0.5, 1.7])

    def test_labels_are_int64(self):
        ds = LabeledDataset(np.zeros((3, 1)), [1.0, 0.0, True])
        assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [1, 0, 1]

    def test_anomaly_rate_is_label_mean(self):
        ds = LabeledDataset(np.zeros((4, 1)), np.array([0, 1, 1, 0]))
        assert ds.anomaly_rate == 0.5


def _rows(nan=False):
    x = np.random.default_rng(4).normal(size=(20, 2))
    if nan:
        x[3, 1] = np.nan
    return x


class TestFeatureMatrixContract:
    """Every public entry point taking a feature matrix applies one rule:
    2-D, the right width, enough rows, every value finite."""

    @pytest.mark.parametrize("call", [
        lambda bad, good: fit_standardizer(bad),
        lambda bad, good: default_sigma_grid(bad),
        lambda bad, good: train_aff(sample_rff_params(2, 8, 1.0, seed=0), bad,
                                    AffConfig(num_pairs=10, epochs=1), 0),
        lambda bad, good: kde_exact_batch(bad, 1.0, good),
        lambda bad, good: kde_exact_batch(good, 1.0, bad),
        lambda bad, good: reference_classifier(good, good, bad, 0.1, 1.0),
        lambda bad, good: apply_standardizer(bad, np.zeros(2), np.ones(2)),
        lambda bad, good: apply_standardizer(good, bad[3], np.ones(2)),
        lambda bad, good: gaussian_kernel(bad, good, 1.0),
    ], ids=["fit_standardizer", "default_sigma_grid", "train_aff", "kde_exact_batch-train",
            "kde_exact_batch-queries", "reference_classifier", "apply_standardizer",
            "apply_standardizer-shift", "gaussian_kernel"])
    def test_nonfinite_features_rejected(self, call):
        with pytest.raises(InvalidArgumentError, match="non-finite"):
            call(_rows(nan=True), _rows())

    @pytest.mark.parametrize("call", [
        lambda vec, good: fit_standardizer(vec),
        lambda vec, good: default_sigma_grid(vec),
        lambda vec, good: kde_exact_batch(vec, 1.0, good),
        lambda vec, good: reference_classifier(vec, good, good, 0.1, 1.0),
    ], ids=["fit_standardizer", "default_sigma_grid", "kde_exact_batch", "reference_classifier"])
    def test_vector_is_invalid_argument(self, call):
        with pytest.raises(InvalidArgumentError, match="2-D feature matrix"):
            call(np.zeros(5), _rows())

    @pytest.mark.parametrize("call", [
        lambda bad, good: fit(bad, good, 0.1, FitConfig(1.0, 8)),
        lambda bad, good: score_batch(fit(good, good, 0.1, FitConfig(1.0, 8))[0], bad),
        lambda bad, good: embed(sample_rff_params(2, 8, 1.0, seed=0), bad),
        lambda bad, good: pair_loss(sample_rff_params(2, 8, 1.0, seed=0), bad, bad),
        lambda bad, good: train_aff(sample_rff_params(2, 8, 1.0, seed=0), bad,
                                    AffConfig(num_pairs=10, epochs=1), 0),
        lambda bad, good: kde_exact_batch(good, 1.0, bad),
        lambda bad, good: apply_standardizer(bad, np.zeros(2), np.ones(2)),
        lambda bad, good: gaussian_kernel(bad, good, 1.0),
        lambda bad, good: compute_threshold(bad, 0.1),
    ], ids=["fit", "score_batch", "embed", "pair_loss", "train_aff", "kde_exact_batch",
            "apply_standardizer", "gaussian_kernel", "compute_threshold"])
    def test_ragged_is_invalid_argument(self, call):
        with pytest.raises(InvalidArgumentError, match="array of numbers"):
            call([[0.0, 1.0], [2.0]], _rows())

    def test_empty_sequence_is_zero_rows(self):
        model, _ = fit(_rows(), _rows(), 0.1, FitConfig(1.0, 8))
        assert score_batch(model, []).shape == (0,)
        with pytest.raises(InsufficientDataError, match="at least 2 rows, got 0"):
            fit_standardizer([])
