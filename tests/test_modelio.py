import json

import numpy as np
import pytest

from dmkde import FitConfig, ParseError, fit, load_model, predict, save_model
from dmkde.modelio import model_from_document, model_to_document
from dmkde.rng import stream


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


class TestDocument:
    def test_canonical_field_order(self):
        doc = model_to_document(make_model())
        assert list(doc) == [
            "format", "version", "input_dim", "embed_dim", "sample_count",
            "sigma", "theta", "anomaly_rate", "use_aff", "shift", "scale",
            "weights", "offsets", "density",
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
    ])
    def test_wrong_field_type_rejected(self, field, value):
        doc = model_to_document(make_model())
        doc[field] = value
        with pytest.raises(ParseError):
            model_from_document(doc)

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

    def test_file_is_single_json_document(self, tmp_path):
        model = make_model(seed=6)
        path = tmp_path / "model.json"
        save_model(model, path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert doc["format"] == "dmkde-model"
        assert doc["version"] == 1
