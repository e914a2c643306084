import base64
import json
import tracemalloc

import numpy as np
import pytest

from dmkde import (FitConfig, ParseError, build_density_matrix, fit, load_model, predict,
                   predict_batch, sample_rff_params, save_model)
from dmkde.density import DensityFactor
from dmkde.detector import DetectorModel
from dmkde.modelio import _encode, model_from_document, model_to_document
from dmkde.rng import stream
from tests.conftest import model_header


def make_model(seed=0, rate=0.1, standardize=True):
    pts = stream(seed, 99).normal(size=(120, 3))
    cfg = FitConfig(sigma=1.2, embed_dim=32, seed=seed, standardize=standardize)
    model, _ = fit(pts[:80], pts[80:], rate, cfg)
    return model


class TestRoundTrip:
    def test_bit_exact_arrays_and_scalars(self, tmp_path):
        model = make_model()
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        assert np.array_equal(back.embedding.weights, model.embedding.weights)
        assert np.array_equal(back.embedding.offsets, model.embedding.offsets)
        assert np.array_equal(back.dm.matrix, model.dm.matrix)
        assert np.array_equal(back.shift, model.shift)
        assert np.array_equal(back.scale, model.scale)
        assert back.theta == model.theta
        assert back.anomaly_rate == model.anomaly_rate
        assert back.embedding.sigma == model.embedding.sigma
        assert back.dm.sample_count == model.dm.sample_count

    def test_save_is_deterministic(self, tmp_path):
        model = make_model(seed=3)
        save_model(model, tmp_path / "a.json")
        save_model(model, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_rate_zero_minus_inf_theta(self, tmp_path):
        model = make_model(seed=1, rate=0.0)
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        assert back.theta == float("-inf")

    def test_without_standardization(self, tmp_path):
        model = make_model(seed=2, standardize=False)
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        assert back.shift is None and back.scale is None

    def test_reloaded_model_predicts_identically(self, tmp_path):
        model = make_model(seed=4)
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        x = stream(5, 98).normal(size=3)
        assert predict(back, x) == predict(model, x)


def make_factor_model(seed=0, embed_dim=300):
    """A model served from the rank-96 factor: 80 training rows, D > 80."""
    pts = stream(seed, 99).normal(size=(120, 3))
    cfg = FitConfig(sigma=1.5, embed_dim=embed_dim, seed=seed)
    model, _ = fit(pts[:80], pts[80:], 0.1, cfg)
    assert isinstance(model.dm, DensityFactor)
    return model


class TestFormats:
    # 37 and 300 are not multiples of the lane width.
    @pytest.mark.parametrize("embed_dim", [37, 64])
    def test_triangle_round_trip_is_bit_exact(self, tmp_path, embed_dim):
        pts = stream(1, 99).normal(size=(300, 3))
        model, _ = fit(pts[:200], pts[200:], 0.1, FitConfig(sigma=1.2, embed_dim=embed_dim))
        doc = model_to_document(model)
        assert doc["form"] == "dense" and doc["sketch_bound"] is None
        assert len(base64.b64decode(doc["density"])) == 8 * embed_dim * (embed_dim + 1) // 2
        save_model(model, tmp_path / "model.json")
        back = load_model(tmp_path / "model.json")
        assert np.array_equal(back.dm.matrix, model.dm.matrix)

    @pytest.mark.parametrize("embed_dim", [300, 512])
    def test_factor_round_trip_is_bit_exact(self, tmp_path, embed_dim):
        model = make_factor_model(seed=2, embed_dim=embed_dim)
        save_model(model, tmp_path / "model.json")
        back = load_model(tmp_path / "model.json")
        assert isinstance(back.dm, DensityFactor)
        assert np.array_equal(back.dm.factor, model.dm.factor)
        assert back.sketch_bound == model.sketch_bound
        x = stream(7, 98).normal(size=(50, 3))
        assert all(np.array_equal(a, b) for a, b in zip(predict_batch(back, x),
                                                         predict_batch(model, x)))

    @pytest.mark.parametrize("dim", [1020, 1024])
    def test_dense_load_holds_no_extra_copy(self, tmp_path, dim):
        # The parsed document's payload (2/3 of 8 D^2 as base64), the decoded
        # triangle (1/2) and R (1) are the copies a load needs: 2.17 x 8 D^2.
        # Load made 3.1 with the file text, a float copy of the triangle and
        # a D x D mask besides, and one more copy of R at an unaligned D.
        phis = stream(4, 99).normal(size=(300, dim))
        phis /= np.linalg.norm(phis, axis=1, keepdims=True)
        dm = build_density_matrix(phis)
        del phis
        model = DetectorModel(sample_rff_params(8, dim, 1.0, 4), dm, 0.1, 0.05, False,
                              None, None, None)
        save_model(model, tmp_path / "model.json")
        tracemalloc.start()
        try:
            back = load_model(tmp_path / "model.json")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * 8 * dim * dim
        assert np.array_equal(back.dm.matrix, dm.matrix)

    @pytest.mark.parametrize("dim", [1020, 1024])
    def test_v3_dense_load_holds_r_alone(self, tmp_path, dim):
        # A version 3 load reads the triangle's rows straight into R's
        # lane-padded W x W buffer and mirrors it by 128-square tiles; the
        # header, the small arrays and a tile or two are all it holds besides.
        phis = stream(4, 99).normal(size=(300, dim))
        phis /= np.linalg.norm(phis, axis=1, keepdims=True)
        dm = build_density_matrix(phis)
        del phis
        model = DetectorModel(sample_rff_params(8, dim, 1.0, 4), dm, 0.1, 0.05, False,
                              None, None, None)
        save_model(model, tmp_path / "model.json")
        assert model_header(tmp_path / "model.json")["version"] == 3
        width = -(-dim // 8) * 8
        tracemalloc.start()
        try:
            back = load_model(tmp_path / "model.json")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 8 * width * width
        assert np.array_equal(back.dm.matrix, dm.matrix)

    def test_dense_save_holds_no_copy_of_r(self, tmp_path):
        # What a save must hold: one _BLOCK-row piece of the triangle and its
        # base64 (0.29 x 8 D^2 at D = 1024), beside the small fields.  Saving
        # through the whole document peaked at 2.34.
        dim = 1024
        phis = stream(4, 99).normal(size=(300, dim))
        phis /= np.linalg.norm(phis, axis=1, keepdims=True)
        model = DetectorModel(sample_rff_params(8, dim, 1.0, 4), build_density_matrix(phis),
                              0.1, 0.05, False, None, None, None)
        del phis
        tracemalloc.start()
        try:
            save_model(model, tmp_path / "model.json")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * 8 * dim * dim

    def test_fallback_bound_round_trips_with_dense_form(self):
        # A narrow kernel gives R a rank near n = 200 > k: the sketch's
        # bound is too large to serve it.
        pts = stream(3, 99).normal(size=(300, 3))
        model, _ = fit(pts[:200], pts[200:], 0.1, FitConfig(sigma=0.05, embed_dim=300))
        doc = model_to_document(model)
        assert doc["form"] == "dense" and doc["sketch_bound"] > 1e-9
        assert model_from_document(doc).sketch_bound == model.sketch_bound

    def test_version_1_document_loads_and_predicts_identically(self):
        model = make_model(seed=5)
        doc = model_to_document(model)
        del doc["form"], doc["sketch_bound"]
        doc["version"] = 1
        doc["density"] = _encode(model.dm.matrix)
        back = model_from_document(doc)
        assert np.array_equal(back.dm.matrix, model.dm.matrix) and back.sketch_bound is None
        x = stream(6, 98).normal(size=(40, 3))
        assert all(np.array_equal(a, b) for a, b in zip(predict_batch(back, x),
                                                         predict_batch(model, x)))

    @pytest.mark.parametrize("factor", [False, True])
    @pytest.mark.parametrize("cut", [8, 1, -8])
    def test_wrongly_sized_payload_rejected(self, factor, cut):
        # Whole float64 values dropped (8 bytes), a partial value, or one
        # value too many; a dense payload the size of the full matrix too.
        doc = model_to_document(make_factor_model() if factor else make_model())
        raw = base64.b64decode(doc["density"])
        raw = raw[:-cut] if cut > 0 else raw + raw[:-cut]
        doc["density"] = base64.b64encode(raw).decode("ascii")
        with pytest.raises(ParseError):
            model_from_document(doc)

    def test_full_matrix_in_dense_form_rejected(self):
        model = make_model()
        doc = model_to_document(model)
        doc["density"] = _encode(model.dm.matrix)
        with pytest.raises(ParseError, match="values, expected shape"):
            model_from_document(doc)

    @pytest.mark.parametrize("form", ["full", "Factor", None, 2])
    def test_unknown_form_rejected(self, form):
        doc = model_to_document(make_model())
        doc["form"] = form
        with pytest.raises(ParseError):
            model_from_document(doc)

    def test_factor_without_small_bound_rejected(self):
        doc = model_to_document(make_factor_model())
        for bound in (None, 1e-3, "1e-12"):
            doc["sketch_bound"] = bound
            with pytest.raises(ParseError):
                model_from_document(doc)

    @pytest.mark.parametrize("factor,bound", [(True, -1.0), (True, -np.inf),
                                              (False, -1.0), (False, -np.inf), (False, np.nan)])
    def test_impossible_sketch_bound_rejected(self, factor, bound):
        # Every bound a sketch returns is >= 0 or +inf.
        doc = model_to_document(make_factor_model() if factor else make_model())
        doc["sketch_bound"] = bound
        with pytest.raises(ParseError, match="sketch_bound"):
            model_from_document(doc)

    def test_failed_sketch_bound_loads(self):
        doc = model_to_document(make_model())
        doc["sketch_bound"] = np.inf
        assert model_from_document(json.loads(json.dumps(doc))).sketch_bound == np.inf

    def test_factor_payload_holds_d_by_k_values(self):
        doc = model_to_document(make_factor_model(embed_dim=512))
        assert doc["form"] == "factor"
        assert len(base64.b64decode(doc["density"])) == 8 * 512 * 96


class TestDocument:
    def test_canonical_field_order(self):
        doc = model_to_document(make_model())
        assert list(doc) == [
            "format", "version", "input_dim", "embed_dim", "sample_count",
            "sigma", "theta", "anomaly_rate", "use_aff", "shift", "scale",
            "weights", "offsets", "form", "sketch_bound", "density",
        ]

    def test_wrong_format_rejected(self):
        with pytest.raises(ParseError):
            model_from_document({"format": "something-else", "version": 1})

    def test_wrong_version_rejected(self):
        doc = model_to_document(make_model())
        doc["version"] = 99
        with pytest.raises(ParseError):
            model_from_document(doc)

    def test_missing_field_rejected(self):
        doc = model_to_document(make_model())
        del doc["density"]
        with pytest.raises(ParseError):
            model_from_document(doc)

    # Each value has the wrong JSON type for its field.
    @pytest.mark.parametrize("field, value", [
        ("sigma", None), ("input_dim", [2]), ("weights", 123), ("shift", 5),
        ("use_aff", "false"), ("sample_count", 40.9), ("input_dim", "3"),
        ("sigma", "1.2"), ("theta", True), ("anomaly_rate", "0.1"), ("version", True),
        ("version", 1.0),
    ])
    def test_wrong_field_type_rejected(self, field, value):
        doc = model_to_document(make_model())
        doc[field] = value
        with pytest.raises(ParseError):
            model_from_document(doc)

    def test_integer_number_accepted_for_float_field(self):
        doc = model_to_document(make_model())
        doc["sigma"] = 2
        assert model_from_document(doc).embedding.sigma == 2.0

    @pytest.mark.parametrize("field", ["sigma", "theta", "anomaly_rate"])
    def test_integer_beyond_float_range_rejected(self, field):
        doc = model_to_document(make_model())
        doc[field] = 10 ** 400
        with pytest.raises(ParseError):
            model_from_document(doc)

    # fit_standardizer gives a finite shift and a finite, positive scale.
    @pytest.mark.parametrize("field, value", [
        ("scale", 0.0), ("scale", -1.0), ("scale", np.nan), ("scale", np.inf),
        ("shift", np.inf), ("shift", np.nan),
    ])
    def test_bad_standardizer_rejected(self, field, value):
        model = make_model()
        vector = getattr(model, field).copy()
        vector[1] = value
        setattr(model, field, vector)
        with pytest.raises(ParseError):
            model_from_document(model_to_document(model))

    def test_truncated_payload_rejected(self):
        doc = model_to_document(make_model())
        doc["density"] = doc["density"][: len(doc["density"]) // 2]
        with pytest.raises(ParseError):
            model_from_document(doc)


class TestFiles:
    def test_invalid_json(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ParseError):
            load_model(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_model(tmp_path / "missing.json")

    def test_first_line_is_the_json_header(self, tmp_path):
        model = make_model(seed=6)
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = model_header(path)
        assert doc["format"] == "dmkde-model"
        assert doc["version"] == 3
        assert list(doc) == [
            "format", "version", "input_dim", "embed_dim", "sample_count",
            "sigma", "theta", "anomaly_rate", "use_aff", "form", "sketch_bound", "arrays",
        ]
        assert list(doc["arrays"]) == ["shift", "scale", "weights", "offsets", "density"]

    def test_version_2_file_loads_bit_exact(self, tmp_path):
        # As version 2 saves wrote it: the document on one line.
        model = make_model(seed=7)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model_to_document(model)) + "\n", encoding="utf-8")
        back = load_model(path)
        assert np.array_equal(back.dm.matrix, model.dm.matrix)
        assert np.array_equal(back.embedding.weights, model.embedding.weights)
        assert back.theta == model.theta

    # 1 to 3 rows, a D that is not a whole number of lanes, and 130 and
    # 300 rows that span two and three 128-square tiles of the mirror.
    @pytest.mark.parametrize("dim", [1, 2, 3, 37, 130, 300])
    def test_streamed_file_holds_the_document_arrays(self, tmp_path, dim):
        phis = stream(dim, 99).normal(size=(dim + 5, dim))
        phis /= np.linalg.norm(phis, axis=1, keepdims=True)
        model = DetectorModel(sample_rff_params(3, dim, 1.0, 1), build_density_matrix(phis),
                              0.1, 0.05, False, None, None, None)
        triangle = np.concatenate([model.dm.matrix[i, i:] for i in range(dim)])
        self.check_streamed(tmp_path, model, _encode(triangle))

    def test_streamed_factor_file_holds_the_document_arrays(self, tmp_path):
        model = make_factor_model(embed_dim=300)
        self.check_streamed(tmp_path, model, _encode(model.dm.factor))

    @staticmethod
    def check_streamed(tmp_path, model, payload):
        """The file is its header line, spaces to a whole number of 8-byte
        words, then the version 2 document's arrays raw and back to back,
        each at the offset from the end of the line that the header gives."""
        doc = model_to_document(model)
        assert doc["density"] == payload
        save_model(model, tmp_path / "model.json")
        data = (tmp_path / "model.json").read_bytes()
        head = model_header(tmp_path / "model.json")
        start = data.index(b"\n") + 1
        assert start % 8 == 0 and data[:start].decode("ascii").rstrip(" \n") == json.dumps(head)
        raw = b""
        for name, entry in head["arrays"].items():
            assert (entry is None) == (doc[name] is None)
            if entry is not None:
                assert entry["dtype"] == "<f8" and entry["offset"] == len(raw)
                raw += base64.b64decode(doc[name])
                assert 8 * np.prod(entry["shape"]) == len(raw) - entry["offset"]
        assert data[start:] == raw
        assert {key: value for key, value in doc.items() if key not in head["arrays"]} == {
            key: value for key, value in head.items() if key != "arrays"} | {"version": 2}
