import argparse
import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dmkde
from dmkde import f1_weighted, load_csv, load_model
from dmkde.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_RUNTIME,
    EXIT_USAGE,
    _CONFIG,
    build_parser,
    canonical_json,
    evaluate_model,
    main,
)
from dmkde.errors import InvalidArgumentError
from dmkde.modelio import model_to_document
from dmkde.rng import stream
from tests.conftest import model_header, with_header

SPEC_DOC = {
    "name": "two_cluster",
    "components": [
        {"mean": [-3.0, 0.0], "cov": 0.5, "count": 250},
        {"mean": [3.0, 0.0], "cov": 2.0, "count": 250},
    ],
    "anomaly_count": 25,
    "box_low": [-9.0, -9.0],
    "box_high": [9.0, 9.0],
    "exclusion_radius": 3.5,
}


@pytest.fixture()
def spec_path(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPEC_DOC), encoding="utf-8")
    return path


@pytest.fixture()
def dataset_path(tmp_path, spec_path):
    path = tmp_path / "two_cluster.csv"
    assert main(["generate", str(spec_path), "--out", str(path), "--seed", "11"]) == EXIT_OK
    return path


def small_config(tmp_path, extra=""):
    """A config of ``embed_dim = 64`` and ``seed = 1``, then the lines of
    ``extra``, which override those two keys: a key is given once."""
    given = {line.split("=")[0].strip() for line in extra.splitlines()}
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"{key} = {value}\n" for key, value in (("embed_dim", 64), ("seed", 1))
                            if key not in given) + extra, encoding="utf-8")
    return path


class TestGenerate:
    def test_counts_and_rate(self, tmp_path, spec_path):
        out = tmp_path / "data.csv"
        assert main(["generate", str(spec_path), "--out", str(out), "--seed", "3"]) == EXIT_OK
        ds = load_csv(out)
        assert len(ds) == 525
        assert int(ds.labels.sum()) == 25
        assert ds.anomaly_rate == pytest.approx(25 / 525)

    def test_reproducible(self, tmp_path, spec_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["generate", str(spec_path), "--out", str(a), "--seed", "5"])
        main(["generate", str(spec_path), "--out", str(b), "--seed", "5"])
        assert a.read_bytes() == b.read_bytes()

    def test_bad_spec_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"components": []}), encoding="utf-8")
        out = tmp_path / "data.csv"
        assert main(["generate", str(bad), "--out", str(out)]) == EXIT_CONFIG

    @pytest.mark.parametrize("component,top", [
        ({"count": 2.5}, {}), ({}, {"anomaly_count": 1.9}),
        ({"mean": "abc"}, {}), ({"mean": [-3.0, [0.0]]}, {}), ({"cov": "x"}, {}),
        ({}, {"box_low": "x"}), ({}, {"exclusion_radius": "abc"}),
    ])
    def test_bad_spec_value_is_config_error(self, tmp_path, component, top):
        # A count is a whole number, and an array of numbers goes through the
        # package's array rule: either is checked before a row is drawn.
        doc = {**SPEC_DOC, **top,
               "components": [{**SPEC_DOC["components"][0], **component}]}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "data.csv"
        assert main(["generate", str(bad), "--out", str(out)]) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("component,top,field", [
        ({"mean": "abc"}, {}, "mean"), ({"mean": [-3.0, [0.0]]}, {}, "mean"),
        ({"cov": "x"}, {}, "cov"), ({}, {"box_low": "x"}, "box_low"),
        ({}, {"box_high": [9.0, "y"]}, "box_high"),
        ({"mean": ["-3.0", "0.0"]}, {}, "mean"), ({"cov": "0.5"}, {}, "cov"),
        ({}, {"box_low": ["-9", -9.0]}, "box_low"),
    ])
    def test_bad_spec_array_error_names_the_field(self, tmp_path, capsys, component, top, field):
        doc = {**SPEC_DOC, **top,
               "components": [{**SPEC_DOC["components"][0], **component}]}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["generate", str(bad), "--out", str(tmp_path / "data.csv")]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"error: {field} must be an array of numbers: ")

    def test_missing_spec(self, tmp_path):
        assert main(["generate", str(tmp_path / "no.json"),
                     "--out", str(tmp_path / "o.csv")]) == EXIT_CONFIG


class TestFit:
    def test_model_reloads_bit_identically(self, tmp_path, dataset_path):
        model_path = tmp_path / "model.json"
        code = main(["fit", str(dataset_path), "--out", str(model_path),
                     "--config", str(small_config(tmp_path)), "--seed", "1"])
        assert code == EXIT_OK
        first = model_path.read_bytes()
        model = load_model(model_path)
        resaved = tmp_path / "resaved.json"
        from dmkde import save_model
        save_model(model, resaved)
        assert resaved.read_bytes() == first

    def test_reports_identical_across_runs(self, tmp_path, dataset_path):
        cfg = small_config(tmp_path)
        reports = []
        for tag in ("a", "b"):
            model_path = tmp_path / f"model_{tag}.json"
            report_path = tmp_path / f"report_{tag}.json"
            assert main(["fit", str(dataset_path), "--out", str(model_path),
                         "--report", str(report_path), "--config", str(cfg),
                         "--seed", "4"]) == EXIT_OK
            reports.append(report_path.read_bytes())
        assert reports[0] == reports[1]

    def test_missing_label_column_is_parse_error(self, tmp_path, dataset_path):
        assert main(["fit", str(dataset_path), "--out", str(tmp_path / "m.json"),
                     "--label-column", "not_there"]) == EXIT_PARSE

    def test_unknown_config_key_is_config_error(self, tmp_path, dataset_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("embed_dmi = 64\n", encoding="utf-8")
        assert main(["fit", str(dataset_path), "--out", str(tmp_path / "m.json"),
                     "--config", str(cfg)]) == EXIT_CONFIG

    def test_input_file_not_mutated(self, tmp_path, dataset_path):
        before = dataset_path.read_bytes()
        main(["fit", str(dataset_path), "--out", str(tmp_path / "m.json"),
              "--config", str(small_config(tmp_path))])
        assert dataset_path.read_bytes() == before

    def test_use_aff_flag(self, tmp_path, dataset_path):
        cfg = tmp_path / "aff.cfg"
        cfg.write_text("embed_dim = 32\naff_num_pairs = 200\naff_epochs = 20\n"
                       "aff_learning_rate = 0.05\n", encoding="utf-8")
        model_path = tmp_path / "model_aff.json"
        assert main(["fit", str(dataset_path), "--out", str(model_path),
                     "--config", str(cfg), "--use-aff", "--seed", "1"]) == EXIT_OK
        model = load_model(model_path)
        assert model.use_aff

    def test_library_fit_uses_the_cli_seed_for_aff(self, tmp_path, dataset_path):
        # One seed per fit: FitConfig(seed=3) and `fit --seed 3` draw the
        # same AFF pairs, so the same settings train the same weights.
        cfg = tmp_path / "aff.cfg"
        cfg.write_text("sigma = 1.0\nembed_dim = 32\naff_num_pairs = 200\naff_epochs = 20\n"
                       "aff_learning_rate = 0.05\n", encoding="utf-8")
        model_path = tmp_path / "model_aff.json"
        assert main(["fit", str(dataset_path), "--out", str(model_path),
                     "--config", str(cfg), "--use-aff", "--seed", "3"]) == EXIT_OK
        cli_model = load_model(model_path)
        ds = load_csv(dataset_path)
        split = dmkde.stratified_split(ds, seed=3)
        aff = dmkde.AffConfig(num_pairs=200, epochs=20, learning_rate=0.05)
        lib_model, _ = dmkde.fit(ds.features[split.train], ds.features[split.val],
                                 ds.anomaly_rate, dmkde.FitConfig(sigma=1.0, embed_dim=32,
                                                                  use_aff=True, aff=aff, seed=3))
        assert cli_model.use_aff and lib_model.use_aff
        assert np.array_equal(lib_model.embedding.weights, cli_model.embedding.weights)
        assert np.array_equal(lib_model.embedding.offsets, cli_model.embedding.offsets)

    def test_library_fit_picks_the_cli_default_sigma(self, tmp_path, dataset_path):
        # Without a sigma, `dmkde fit` and FitConfig(sigma=None) take the same
        # median of the standardized training rows, and the report shows it.
        model_path = tmp_path / "model.json"
        assert main(["fit", str(dataset_path), "--out", str(model_path),
                     "--config", str(small_config(tmp_path)), "--seed", "2"]) == EXIT_OK
        cli_model = load_model(model_path)
        ds = load_csv(dataset_path)
        split = dmkde.stratified_split(ds, seed=2)
        lib_model, _ = dmkde.fit(ds.features[split.train], ds.features[split.val],
                                 ds.anomaly_rate, dmkde.FitConfig(sigma=None, embed_dim=64, seed=2))
        assert lib_model.embedding.sigma == cli_model.embedding.sigma
        assert np.array_equal(lib_model.embedding.weights, cli_model.embedding.weights)
        assert np.array_equal(lib_model.embedding.offsets, cli_model.embedding.offsets)
        assert np.array_equal(lib_model.dm.matrix, cli_model.dm.matrix)
        assert lib_model.theta == cli_model.theta
        report = json.loads(model_path.with_suffix(".report.json").read_text())
        assert report["config"]["sigma"] == cli_model.embedding.sigma

    def test_standardizer_fitted_once_per_command(self, tmp_path, dataset_path,
                                                 standardizer_fits):
        # fit without a sigma: the fit itself; benchmark: the search and the refit.
        cfg = small_config(tmp_path, "grid_embed_dim = 64\n")
        assert main(["fit", str(dataset_path), "--out", str(tmp_path / "m.json"),
                     "--config", str(cfg)]) == EXIT_OK
        assert len(standardizer_fits) == 1
        data_dir = tmp_path / "bench_data"
        data_dir.mkdir()
        (data_dir / "two_cluster.csv").write_bytes(dataset_path.read_bytes())
        assert main(["benchmark", str(data_dir), "--out", str(tmp_path / "out"),
                     "--config", str(cfg)]) == EXIT_OK
        assert len(standardizer_fits) == 3

    def test_no_standardize_flag_equals_config_key(self, tmp_path, dataset_path):
        key_cfg = tmp_path / "key.cfg"
        key_cfg.write_text("embed_dim = 64\nseed = 1\nstandardize = false\n", encoding="utf-8")
        runs = {"flag": (small_config(tmp_path), ["--no-standardize"]), "key": (key_cfg, [])}
        models = {}
        for tag, (cfg, flags) in runs.items():
            model_path = tmp_path / f"model_{tag}.json"
            assert main(["fit", str(dataset_path), "--out", str(model_path),
                         "--config", str(cfg)] + flags) == EXIT_OK
            arrays = model_header(model_path)["arrays"]
            assert arrays["shift"] is None and arrays["scale"] is None
            report = json.loads(model_path.with_suffix(".report.json").read_text())
            assert report["config"]["standardize"] is False
            models[tag] = model_path.read_bytes()
        assert models["flag"] == models["key"]

    def test_aff_fallback_is_reported(self, tmp_path, dataset_path):
        # A divergent learning rate keeps the random features: the fit
        # report still shows the requested settings, the model and its
        # eval report show that AFF was not used.
        cfg = tmp_path / "aff.cfg"
        cfg.write_text("embed_dim = 32\naff_num_pairs = 200\naff_epochs = 20\n"
                       "aff_learning_rate = 1e9\n", encoding="utf-8")
        model_path = tmp_path / "model_aff.json"
        assert main(["fit", str(dataset_path), "--out", str(model_path),
                     "--config", str(cfg), "--use-aff", "--seed", "1"]) == EXIT_OK
        fit_doc = json.loads(model_path.with_suffix(".report.json").read_text())
        assert fit_doc["config"]["use_aff"] is True
        assert load_model(model_path).use_aff is False
        report = tmp_path / "eval.json"
        assert main(["eval", str(dataset_path), "--model", str(model_path),
                     "--report", str(report), "--seed", "1"]) == EXIT_OK
        assert json.loads(report.read_text())["config"]["use_aff"] is False

    # About 257 training rows: a sketch at D=512, none at D=64.
    @pytest.mark.parametrize("extra, form, rank", [
        ("embed_dim = 512\n", "factor", 96),
        ("embed_dim = 512\nsigma = 0.02\n", "dense", 512),
        ("", "dense", 64),
    ])
    def test_serving_form_reported(self, tmp_path, dataset_path, extra, form, rank):
        model_path = tmp_path / "model.json"
        assert main(["fit", str(dataset_path), "--out", str(model_path),
                     "--config", str(small_config(tmp_path, extra))]) == EXIT_OK
        eval_path = tmp_path / "eval.json"
        assert main(["eval", str(dataset_path), "--model", str(model_path),
                     "--report", str(eval_path), "--seed", "1"]) == EXIT_OK
        serving = json.loads(model_path.with_suffix(".report.json").read_text())["serving"]
        assert json.loads(eval_path.read_text())["serving"] == serving
        assert (serving["form"], serving["rank"]) == (form, rank)
        bound = serving["sketch_bound"]
        if rank == 64:
            assert bound is None
        else:  # a fallback to dense shows the bound that ruled the factor out
            assert (bound <= 1e-9) == (form == "factor")

    def test_factor_model_reloads_to_identical_eval_report(self, tmp_path, dataset_path):
        model_path = tmp_path / "model.json"
        cfg = small_config(tmp_path, "embed_dim = 512\n")
        assert main(["fit", str(dataset_path), "--out", str(model_path),
                     "--config", str(cfg)]) == EXIT_OK
        ds = load_csv(dataset_path)
        split = dmkde.stratified_split(ds, seed=1)
        model, _ = dmkde.fit(ds.features[split.train], ds.features[split.val], ds.anomaly_rate,
                             dmkde.FitConfig(sigma=load_model(model_path).embedding.sigma,
                                             embed_dim=512, seed=1))
        direct = evaluate_model(model, ds, 1)[0]
        assert canonical_json(direct) == canonical_json(evaluate_model(load_model(model_path), ds, 1)[0])
        assert direct["serving"]["form"] == "factor"

    def test_metrics_recomputable_from_predictions(self, tmp_path, dataset_path):
        model_path = tmp_path / "model.json"
        report_path = tmp_path / "report.json"
        pred_path = tmp_path / "pred.csv"
        main(["fit", str(dataset_path), "--out", str(model_path),
              "--report", str(report_path), "--predictions", str(pred_path),
              "--config", str(small_config(tmp_path)), "--seed", "2"])
        rows = pred_path.read_text().strip().splitlines()[1:]
        parsed = [line.split(",") for line in rows]
        labels = np.array([int(r[2]) for r in parsed])
        truth = np.array([int(r[3]) for r in parsed])
        report = json.loads(report_path.read_text())
        assert report["metrics"]["f1_weighted"] == pytest.approx(f1_weighted(truth, labels))

    def test_peak_rss_is_phi_and_r_above_the_baseline(self, tmp_path):
        # Fixed before measuring: a dense fit holds Phi (n x D) and R (D x D)
        # over what a process that imports the CLI and parses the CSV holds,
        # plus one BLAS packing buffer and block buffers, so its peak stays
        # below that baseline plus 1.5 (Phi + R).  At D = 2048 with about
        # D/2 training rows a save through the whole document added 2.33 R
        # after the fit, and the grid's index tables stayed resident.
        dim = 2048
        spec = {"components": [{"mean": [-2.0] + [0.0] * 7, "count": 1000},
                               {"mean": [2.0, 1.0] + [0.0] * 6, "cov": 1.5, "count": 1000}],
                "anomaly_count": 100, "box_low": [-10.0] * 8, "box_high": [10.0] * 8,
                "exclusion_radius": 6.0}
        (tmp_path / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
        data, model = str(tmp_path / "bulk.csv"), tmp_path / "model.json"
        assert main(["generate", str(tmp_path / "spec.json"), "--out", data]) == EXIT_OK
        config = small_config(tmp_path).read_text().replace("embed_dim = 64", f"embed_dim = {dim}")
        (tmp_path / "run.cfg").write_text(config, encoding="utf-8")
        baseline = peak_rss(["-c", "import sys, dmkde.cli; dmkde.cli.load_csv(sys.argv[1])", data])
        fitted = peak_rss(["-m", "dmkde.cli", "fit", data, "--out", str(model),
                           "--config", str(tmp_path / "run.cfg")])
        doc = model_header(model)
        assert doc["form"] == "dense"
        phi, r = 8 * doc["sample_count"] * dim, 8 * dim * dim
        assert fitted < baseline + 1.5 * (phi + r)


def test_load_peak_rss_is_r_above_the_baseline(tmp_path):
    # Fixed before measuring: a load holds R's lane-padded buffer over what a
    # process that imports the CLI holds, and the header, the small arrays
    # and 128-square tiles besides, so its peak stays below that baseline
    # plus 1.25 R.
    dim = 2048
    phis = stream(4, 99).normal(size=(300, dim))
    phis /= np.linalg.norm(phis, axis=1, keepdims=True)
    model = dmkde.DetectorModel(dmkde.sample_rff_params(8, dim, 1.0, 4),
                                dmkde.build_density_matrix(phis), 0.1, 0.05, False)
    del phis
    path = tmp_path / "model.json"
    dmkde.save_model(model, path)
    del model
    assert model_header(path)["form"] == "dense"
    baseline = peak_rss(["-c", "import dmkde.cli"])
    loaded = peak_rss(["-c", "import sys, dmkde.cli; dmkde.cli.load_model(sys.argv[1])",
                       str(path)])
    assert loaded < baseline + 1.25 * 8 * dim * dim


# The child runs under a small interpreter that reports the child's peak:
# Linux counts in a child's ru_maxrss the peak resident size of the process
# that started it, and for a child of this one that is the test process.
_REPORT_PEAK = ("import resource, subprocess, sys\n"
                "code = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL, timeout=120)"
                ".returncode\n"
                "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
                "sys.exit(code)\n")


def peak_rss(args: list[str]) -> int:
    """Peak resident bytes (ru_maxrss) of ``python args``, run with this
    package on its path; the child must exit 0 within two minutes."""
    src = str(Path(dmkde.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH", "")) if p))
    proc = subprocess.run([sys.executable, "-c", _REPORT_PEAK, sys.executable, *args], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout) * 1024  # KiB on Linux


@pytest.fixture()
def fitted(tmp_path, dataset_path):
    model_path = tmp_path / "model.json"
    main(["fit", str(dataset_path), "--out", str(model_path),
          "--config", str(small_config(tmp_path)), "--seed", "1"])
    return model_path


class TestEval:
    def test_report_deterministic(self, tmp_path, dataset_path, fitted):
        outs = []
        for tag in ("a", "b"):
            report = tmp_path / f"eval_{tag}.json"
            assert main(["eval", str(dataset_path), "--model", str(fitted),
                         "--report", str(report), "--seed", "1"]) == EXIT_OK
            outs.append(report.read_bytes())
        assert outs[0] == outs[1]

    def test_dimension_mismatch_is_runtime_error(self, tmp_path, fitted):
        wide = tmp_path / "wide.csv"
        wide.write_text("a,b,c,label\n0,0,0,0\n1,1,1,1\n2,2,2,0\n3,3,3,1\n"
                        "4,4,4,0\n5,5,5,1\n6,6,6,0\n7,7,7,1\n8,8,8,0\n9,9,9,1\n",
                        encoding="utf-8")
        assert main(["eval", str(wide), "--model", str(fitted),
                     "--report", str(tmp_path / "r.json")]) == EXIT_RUNTIME
        assert main(["predict", str(wide), "--model", str(fitted),
                     "--out", str(tmp_path / "p.csv")]) == EXIT_RUNTIME

    def test_malformed_model_field_is_parse_error(self, tmp_path, dataset_path, fitted):
        bad = tmp_path / "bad_model.json"
        with_header(fitted, bad, sigma=None)
        assert main(["eval", str(dataset_path), "--model", str(bad),
                     "--report", str(tmp_path / "r.json")]) == EXIT_PARSE

    def test_zero_scale_model_is_parse_error(self, tmp_path, dataset_path, fitted):
        model = load_model(fitted)
        model.scale = np.zeros_like(model.scale)
        bad = tmp_path / "zero_scale.json"
        bad.write_text(json.dumps(model_to_document(model)), encoding="utf-8")
        assert main(["eval", str(dataset_path), "--model", str(bad),
                     "--report", str(tmp_path / "r.json")]) == EXIT_PARSE

    @pytest.mark.parametrize("bound", ["-1.0", "-Infinity", "NaN"])
    def test_impossible_sketch_bound_is_parse_error(self, tmp_path, dataset_path, fitted,
                                                    bound):
        bad = tmp_path / "bad_bound.json"
        with_header(fitted, bad, sketch_bound=float(bound))
        assert model_header(bad)["sketch_bound"] != model_header(fitted)["sketch_bound"]
        assert main(["eval", str(dataset_path), "--model", str(bad),
                     "--report", str(tmp_path / "r.json")]) == EXIT_PARSE

    def test_oracle_agreement_on_synthetic(self, tmp_path, dataset_path):
        model_path = tmp_path / "model_oracle.json"
        cfg = tmp_path / "oracle.cfg"
        cfg.write_text("embed_dim = 1024\nseed = 1\n", encoding="utf-8")
        main(["fit", str(dataset_path), "--out", str(model_path),
              "--config", str(cfg), "--seed", "1"])
        report_path = tmp_path / "eval.json"
        assert main(["eval", str(dataset_path), "--model", str(model_path),
                     "--report", str(report_path), "--seed", "1", "--oracle"]) == EXIT_OK
        report = json.loads(report_path.read_text())
        assert report["oracle"]["label_agreement"] >= 0.95


class TestBenchmark:
    def test_single_dataset_summary(self, tmp_path, dataset_path):
        data_dir = tmp_path / "bench_data"
        data_dir.mkdir()
        (data_dir / "two_cluster.csv").write_bytes(dataset_path.read_bytes())
        out_dir = tmp_path / "bench_out"
        cfg = small_config(tmp_path, "grid_sigma = 0.5, 1.0\ngrid_embed_dim = 64\n")
        assert main(["benchmark", str(data_dir), "--out", str(out_dir),
                     "--config", str(cfg), "--seed", "1"]) == EXIT_OK
        summary = json.loads((out_dir / "summary.json").read_text())
        assert len(summary["datasets"]) == 1
        row = summary["datasets"][0]
        assert row["status"] == "ok"
        assert (out_dir / "two_cluster.report.json").exists()

    def test_rerun_identical_summary(self, tmp_path, dataset_path):
        data_dir = tmp_path / "bench_data"
        data_dir.mkdir()
        (data_dir / "two_cluster.csv").write_bytes(dataset_path.read_bytes())
        cfg = small_config(tmp_path, "grid_sigma = 0.5, 1.0\ngrid_embed_dim = 64\n")
        outs = []
        for tag in ("a", "b"):
            out_dir = tmp_path / f"out_{tag}"
            assert main(["benchmark", str(data_dir), "--out", str(out_dir),
                         "--config", str(cfg), "--seed", "2"]) == EXIT_OK
            outs.append((out_dir / "summary.json").read_bytes())
        assert outs[0] == outs[1]

    def test_empty_grid_is_config_error(self, tmp_path, dataset_path):
        data_dir = tmp_path / "bench_data"
        data_dir.mkdir()
        (data_dir / "two_cluster.csv").write_bytes(dataset_path.read_bytes())
        cfg = small_config(tmp_path, "grid_sigma =\n")
        assert main(["benchmark", str(data_dir), "--out", str(tmp_path / "o"),
                     "--config", str(cfg)]) == EXIT_CONFIG

    def test_failures_isolated(self, tmp_path, dataset_path):
        data_dir = tmp_path / "bench_data"
        data_dir.mkdir()
        (data_dir / "two_cluster.csv").write_bytes(dataset_path.read_bytes())
        (data_dir / "broken.csv").write_text("a,label\n1,2\n", encoding="utf-8")
        out_dir = tmp_path / "out"
        cfg = small_config(tmp_path, "grid_sigma = 1.0\ngrid_embed_dim = 32\n")
        assert main(["benchmark", str(data_dir), "--out", str(out_dir),
                     "--config", str(cfg)]) == EXIT_OK
        summary = json.loads((out_dir / "summary.json").read_text())
        by_name = {r["dataset"]: r for r in summary["datasets"]}
        assert by_name["broken"]["status"] == "failed"
        assert by_name["two_cluster"]["status"] == "ok"

    def test_reads_no_sigma(self, tmp_path, dataset_path):
        # Its bandwidths come from grid_sigma, or else from the data.
        data_dir = tmp_path / "bench_data"
        data_dir.mkdir()
        (data_dir / "two_cluster.csv").write_bytes(dataset_path.read_bytes())
        cfg = small_config(tmp_path, "sigma = -1\ngrid_embed_dim = 32\n")
        assert main(["benchmark", str(data_dir), "--out", str(tmp_path / "o"),
                     "--config", str(cfg)]) == EXIT_OK

    def test_empty_dir_is_config_error(self, tmp_path):
        data_dir = tmp_path / "empty"
        data_dir.mkdir()
        assert main(["benchmark", str(data_dir), "--out", str(tmp_path / "o")]) == EXIT_CONFIG


class TestPredict:
    def test_scores_every_row(self, tmp_path, dataset_path):
        model_path = tmp_path / "model.json"
        main(["fit", str(dataset_path), "--out", str(model_path),
              "--config", str(small_config(tmp_path)), "--seed", "1"])
        out = tmp_path / "pred.csv"
        assert main(["predict", str(dataset_path), "--model", str(model_path),
                     "--out", str(out)]) == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "index,density,label,truth"
        assert len(lines) == 1 + 525

    def test_field_over_the_csv_limit_is_parse_error(self, tmp_path, fitted, capsys):
        data = tmp_path / "long.csv"
        data.write_text("a,b,label\n1,2,0\n" + "3" * (csv.field_size_limit() + 1) + ",4,1\n",
                        encoding="utf-8")
        assert main(["predict", str(data), "--model", str(fitted),
                     "--out", str(tmp_path / "p.csv")]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {data}: field larger than field limit") and "(row 3)" in err



class TestInputFileFaults:
    """Every input file is read in one place.  A data or model file that
    cannot be read, is not UTF-8 or is not JSON is a parse error, a config
    or spec file a config error; either way stderr is one line naming it."""

    # Input file -> exit code, and what the "cannot read" message calls it.
    KINDS = {"data": (EXIT_PARSE, ""), "model": (EXIT_PARSE, ""),
             "config": (EXIT_CONFIG, "config "), "spec": (EXIT_CONFIG, "spec ")}

    @pytest.mark.parametrize("kind,fault", [
        *[(kind, fault) for kind in KINDS for fault in ("missing", "directory", "not UTF-8")],
        *[(kind, fault) for kind in ("model", "spec")
          for fault in ("invalid JSON", "long number", "deep nesting")]])
    def test_exit_code_and_one_error_line(self, tmp_path, spec_path, dataset_path, fitted,
                                          capsys, kind, fault):
        files = {"data": dataset_path, "model": fitted, "config": small_config(tmp_path),
                 "spec": spec_path}
        broken = tmp_path / f"broken_{files[kind].name}"
        if fault == "directory":
            broken.mkdir()
        elif fault == "not UTF-8":
            broken.write_bytes(b"\xe9" + files[kind].read_bytes())
        elif fault == "invalid JSON":  # the JSON text, a model's first line, cut short
            data = files[kind].read_bytes()
            end = len(data.split(b"\n", 1)[0].rstrip())
            broken.write_bytes(data[:end - 3] + data[end:])
        elif fault == "long number":  # past the 4,300 digits Python parses
            broken.write_text("[" + "1" * 5000 + "]", encoding="utf-8")
        elif fault == "deep nesting":  # past the interpreter's recursion limit
            broken.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        files[kind] = broken
        data, model, config, spec = (str(files[k]) for k in ("data", "model", "config", "spec"))
        predict = ["predict", data, "--model", model, "--out", str(tmp_path / "p.csv")]
        argv = {"data": predict, "model": predict,
                "config": ["fit", data, "--out", str(tmp_path / "m.json"), "--config", config],
                "spec": ["generate", spec, "--out", str(tmp_path / "g.csv")]}[kind]
        code, what = self.KINDS[kind]
        capsys.readouterr()
        assert main(argv) == code
        err = capsys.readouterr().err
        expected = (f"error: cannot read {what}{broken}: "
                    if fault in ("missing", "directory", "not UTF-8")
                    else f"error: {broken}: invalid JSON: ")
        assert err.startswith(expected) and err.count("\n") == 1 and err.endswith("\n"), err
        if fault == "not UTF-8":
            assert err.startswith(f"{expected}'utf-8' codec can't decode byte 0xe9"), err

    # Each fault of a version 3 file -> what its one error line says.
    V3_FAULTS = {
        "cut after the header": "0 bytes follow the header, whose arrays end at offset",
        "cut mid-payload": "bytes follow the header, whose arrays end at offset",
        "extra trailing byte": "bytes follow the header, whose arrays end at offset",
        "offset past the end": "array 'density' is {",
        "misaligned offset": "array 'density' is {",
        "overlapping arrays": "array 'offsets' is {",
        "shape against embed_dim": "array 'weights' is {",
        "first byte 0xE9": "'utf-8' codec can't decode byte 0xe9 in position 0",
    }

    @pytest.mark.parametrize("fault", V3_FAULTS)
    def test_v3_model_fault_is_one_error_line(self, tmp_path, dataset_path, fitted, capsys,
                                               fault):
        data, head = fitted.read_bytes(), model_header(fitted)
        start, arrays = data.index(b"\n") + 1, head["arrays"]
        broken = tmp_path / "broken_model.json"
        if fault == "cut after the header":
            broken.write_bytes(data[:start])
        elif fault == "cut mid-payload":
            broken.write_bytes(data[:(start + len(data)) // 2])
        elif fault == "extra trailing byte":
            broken.write_bytes(data + b"\0")
        elif fault == "first byte 0xE9":
            broken.write_bytes(b"\xe9" + data[1:])
        else:
            if fault == "offset past the end":
                arrays["density"]["offset"] = len(data) - start
            elif fault == "misaligned offset":
                arrays["density"]["offset"] += 4
            elif fault == "overlapping arrays":
                arrays["offsets"]["offset"] = arrays["weights"]["offset"] + 8
            else:
                arrays["weights"]["shape"][0] += 1
            with_header(fitted, broken, arrays=arrays)
        capsys.readouterr()
        assert main(["predict", str(dataset_path), "--model", str(broken),
                     "--out", str(tmp_path / "p.csv")]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
        assert str(broken) in err and self.V3_FAULTS[fault] in err, err

    # A key given twice in each kind of file that holds keys: config, spec,
    # a version 2 model document and a version 3 model header.
    @pytest.mark.parametrize("kind", ["config", "spec", "model document", "model header"])
    def test_repeated_key_is_one_error_line(self, tmp_path, spec_path, dataset_path, fitted,
                                            capsys, kind):
        broken = tmp_path / f"twice.{kind.split()[-1]}"
        if kind == "config":
            broken.write_text("embed_dim = 64\nembed_dim = 32\n", encoding="utf-8")
            argv, code = ["fit", str(dataset_path), "--out", str(tmp_path / "m.json"),
                          "--config", str(broken)], EXIT_CONFIG
            expected = f"error: {broken}:2: key 'embed_dim' given twice\n"
        elif kind == "spec":
            broken.write_text('{"name": "a", ' + spec_path.read_text(encoding="utf-8")[1:],
                              encoding="utf-8")
            argv, code = ["generate", str(broken), "--out", str(tmp_path / "g.csv")], EXIT_CONFIG
            expected = f"error: {broken}: invalid JSON: key 'name' given twice"
        else:
            # "theta" becomes a second "sigma", a key of the same length.
            data = (fitted.read_bytes() if kind == "model header" else
                    json.dumps(model_to_document(load_model(fitted))).encode("ascii"))
            assert data.count(b'"theta":') == 1
            broken.write_bytes(data.replace(b'"theta":', b'"sigma":'))
            argv, code = ["predict", str(dataset_path), "--model", str(broken),
                          "--out", str(tmp_path / "p.csv")], EXIT_PARSE
            expected = f"error: {broken}: invalid JSON: key 'sigma' given twice"
        capsys.readouterr()
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith(expected) and err.count("\n") == 1, err


def test_success_writes_nothing_to_stderr(tmp_path, dataset_path, capsys):
    model = str(tmp_path / "model.json")
    data_dir = tmp_path / "bench_data"
    data_dir.mkdir()
    (data_dir / "two_cluster.csv").write_bytes(dataset_path.read_bytes())
    cfg = str(small_config(tmp_path, "grid_sigma = 1.0\ngrid_embed_dim = 32\n"))
    capsys.readouterr()
    for argv in (["fit", str(dataset_path), "--out", model, "--config", cfg],
                 ["eval", str(dataset_path), "--model", model, "--oracle",
                  "--report", str(tmp_path / "eval.json")],
                 ["predict", str(dataset_path), "--model", model,
                  "--out", str(tmp_path / "pred.csv")],
                 ["benchmark", str(data_dir), "--out", str(tmp_path / "out"), "--config", cfg]):
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().err == "", argv[0]


class TestNegativeSeed:
    def test_stream_names_the_seed(self):
        with pytest.raises(InvalidArgumentError, match="seed"):
            stream(-1, 0)

    @pytest.mark.parametrize("command", ["fit", "eval", "benchmark", "generate"])
    def test_flag_is_config_error(self, tmp_path, dataset_path, spec_path, command, capsys):
        argv = {
            "fit": ["fit", str(dataset_path), "--out", str(tmp_path / "m.json")],
            "eval": ["eval", str(dataset_path), "--model", str(tmp_path / "m.json")],
            "benchmark": ["benchmark", str(dataset_path.parent), "--out", str(tmp_path / "b")],
            "generate": ["generate", str(spec_path), "--out", str(tmp_path / "d.csv")],
        }[command]
        assert main(argv + ["--seed", "-1"]) == EXIT_CONFIG
        assert "seed" in capsys.readouterr().err

    def test_config_key_is_config_error(self, tmp_path, dataset_path, capsys):
        cfg = tmp_path / "neg.cfg"
        cfg.write_text("embed_dim = 64\nseed = -1\n", encoding="utf-8")
        assert main(["fit", str(dataset_path), "--out", str(tmp_path / "m.json"),
                     "--config", str(cfg)]) == EXIT_CONFIG
        assert "seed" in capsys.readouterr().err


_BOTH_COMMANDS = [
    ("aff_learning_rate", "nan"), ("aff_learning_rate", "inf"), ("aff_learning_rate", "0"),
    ("aff_num_pairs", "0"), ("aff_epochs", "-1"), ("embed_dim", "0"),
    ("anomaly_rate", "2"), ("anomaly_rate", "nan"),
]


class TestBadAffSetting:
    """A bad value of any setting a command reads, aff_* or not, exits 4
    and names its key."""

    # benchmark reads no sigma, and fit no grid_* key.
    @pytest.mark.parametrize("command,key,value", [
        *((command, *row) for row in _BOTH_COMMANDS for command in ("fit", "benchmark")),
        ("benchmark", "grid_sigma", "-1"), ("benchmark", "grid_embed_dim", "0"),
        ("fit", "sigma", "-1"),
    ])
    def test_is_config_error(self, tmp_path, dataset_path, command, key, value, capsys):
        cfg = small_config(tmp_path, f"use_aff = true\n{key} = {value}\n")
        argv = {
            "fit": ["fit", str(dataset_path), "--out", str(tmp_path / "m.json")],
            "benchmark": ["benchmark", str(dataset_path.parent), "--out", str(tmp_path / "b")],
        }[command]
        assert main(argv + ["--config", str(cfg)]) == EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()


class TestUsage:
    def test_no_command(self):
        assert main([]) == EXIT_USAGE

    def test_unknown_flag(self):
        assert main(["fit", "--bogus"]) == EXIT_USAGE

    @pytest.mark.parametrize("command,flag", [
        ("generate", "--config"), ("generate", "--label-column"),
        ("predict", "--seed"), ("predict", "--config"),
    ])
    def test_flag_the_command_ignores(self, tmp_path, command, flag):
        # generate reads only --seed and predict only --label-column.
        argv = {"generate": ["generate", str(tmp_path / "spec.json")],
                "predict": ["predict", str(tmp_path / "d.csv"),
                            "--model", str(tmp_path / "m.json")]}[command]
        assert main(argv + ["--out", str(tmp_path / "o.csv"), flag, "1"]) == EXIT_USAGE


class TestFixedProtocol:
    """The split fractions and AFF's holdout size and retry count are
    constants: no config key or flag sets them."""

    @pytest.mark.parametrize("key", ["test_frac", "val_frac", "aff_holdout_pairs",
                                     "aff_max_retries"])
    def test_config_key_is_unknown(self, tmp_path, dataset_path, capsys, key):
        cfg = tmp_path / "old.cfg"
        cfg.write_text(f"{key} = 1\n", encoding="utf-8")
        assert main(["fit", str(dataset_path), "--out", str(tmp_path / "m.json"),
                     "--config", str(cfg)]) == EXIT_CONFIG
        assert "unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fit", "eval"])
    @pytest.mark.parametrize("flag", ["--test-frac", "--val-frac"])
    def test_flag_is_a_usage_error(self, tmp_path, command, flag):
        target = "--out" if command == "fit" else "--model"
        assert main([command, str(tmp_path / "d.csv"), target, str(tmp_path / "m.json"),
                     flag, "0.3"]) == EXIT_USAGE


class TestReadme:
    """The README's config block and flags table match the parser."""

    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")

    def test_config_block_lists_every_key(self):
        block = self.text.split("### Config files", 1)[1].split("```", 2)[1]
        keys = [line.split("=", 1)[0].strip() for line in block.splitlines()
                if "=" in line and not line.lstrip().startswith("#")]
        assert sorted(keys) == sorted(_CONFIG)

    def test_flags_table_lists_every_option(self):
        table = self.text.split("| command | flags |", 1)[1].split("\n\n", 1)[0]
        documented = {}
        for row in table.splitlines()[2:]:
            command, flags = row.strip("|").split("|")
            documented[command.strip(" `").split()[0]] = sorted(re.findall(r"`(--[\w-]+)`", flags))
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        actual = {name: sorted(s for a in p._actions for s in a.option_strings
                               if s not in ("-h", "--help"))
                  for name, p in sub.choices.items()}
        assert documented == actual


def test_import_leaves_scipy_unloaded(tmp_path, dataset_path):
    # scipy is not a runtime dependency, and importing scipy.stats alone
    # takes about a second.  A fit without a sigma computes the default
    # grid's pairwise distances in numpy, and ``eval --oracle`` its
    # Spearman correlation, so neither loads scipy.
    src = str(Path(dmkde.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH", "")) if p))
    model = str(tmp_path / "m.json")
    fit_argv = ["fit", str(dataset_path), "--out", model,
                "--config", str(small_config(tmp_path))]
    eval_argv = ["eval", str(dataset_path), "--model", model,
                 "--report", str(tmp_path / "eval.json"), "--oracle"]
    code = ("import sys, dmkde.cli; "
            "print(sorted(m for m in ('scipy.stats', 'scipy.spatial') if m in sys.modules)); "
            f"assert dmkde.cli.main({fit_argv!r}) == 0; "
            f"assert dmkde.cli.main({eval_argv!r}) == 0; "
            "print('scipy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.splitlines()[0] == "[]"
    assert out.stdout.splitlines()[-1] == "False"
