"""Command-line harness: fit, predict, eval, benchmark, generate.

Reports are canonical JSON (sorted keys, shortest-repr floats) so runs
with identical seeds produce byte-identical files.  Stderr carries only
errors, including each dataset ``benchmark`` could not run, so a clean
run writes nothing there; per-stage timings come from the opt-in trace,
``bench/run.py --trace 1``.  Exit codes: 0 ok, 2 usage, 3 parse error,
4 config error, 5 runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import metrics
from .dataio import (
    LabeledDataset,
    SplitIndices,
    SyntheticSpec,
    generate_synthetic,
    load_csv,
    save_csv,
    stratified_split,
)
from .detector import (
    AffConfig,
    DetectorModel,
    FitConfig,
    classify_batch,
    fit,
    fit_with_internal_split,
    grid_search,
    predict_batch,
)
from .density import DensityFactor
from .errors import ConfigError, InvalidArgumentError, ParseError
from .modelio import load_model, save_model
from .oracle import KDE_BANDWIDTH_RATIO, kde_exact_batch, reference_classifier

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_CONFIG = 4
EXIT_RUNTIME = 5

REPORT_SCHEMA = "dmkde-report/1"

_BOOL_WORDS = {"true": True, "1": True, "yes": True, "on": True,
               "false": False, "0": False, "no": False, "off": False}

# Config key -> (kind, default).  None means: derived at run time (sigma
# and the grids from the data, anomaly_rate from the labels).
_CONFIG = {
    "sigma": ("float", None),
    "embed_dim": ("int", 1024),
    "use_aff": ("bool", FitConfig.use_aff),
    "standardize": ("bool", FitConfig.standardize),
    "seed": ("int", FitConfig.seed),
    "anomaly_rate": ("float", None),
    "aff_num_pairs": ("int", AffConfig.num_pairs),
    "aff_epochs": ("int", AffConfig.epochs),
    "aff_learning_rate": ("float", AffConfig.learning_rate),
    "grid_sigma": ("float_list", None),
    "grid_embed_dim": ("int_list", None),
    "grid_use_aff": ("bool_list", None),
}


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _parse_value(key: str, raw: str):
    kind = _CONFIG[key][0]
    try:
        if kind == "float":
            return float(raw)
        if kind == "int":
            return int(raw)
        if kind == "bool":
            return _parse_bool(raw)
        items = [s.strip() for s in raw.split(",") if s.strip()]
        if kind == "float_list":
            return [float(s) for s in items]
        if kind == "int_list":
            return [int(s) for s in items]
        return [_parse_bool(s) for s in items]
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc


def _parse_bool(raw: str) -> bool:
    try:
        return _BOOL_WORDS[raw.strip().lower()]
    except KeyError:
        raise ConfigError(f"bad boolean {raw!r}") from None


def read_config(path) -> dict:
    """Flat key-value config: one ``key = value`` per line, # comments."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    values: dict = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{line_no}: expected 'key = value'")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _CONFIG:
            raise ConfigError(f"{path}:{line_no}: unknown key {key!r}")
        values[key] = _parse_value(key, raw)
    return values


def _settings(args) -> dict:
    """Defaults, overlaid by the config file, overlaid by explicit flags."""
    values = {key: default for key, (_, default) in _CONFIG.items()}
    if getattr(args, "config", None):
        values.update(read_config(args.config))
    for key in _CONFIG:  # each flag's dest is its config key
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    if values["seed"] < 0:
        raise ConfigError(f"seed must be >= 0, got {values['seed']}")
    return values


def _fit_config(settings: dict, **grid) -> FitConfig:
    """The FitConfig of ``settings``, AFF settings included, with each
    ``grid`` value (from its ``grid_<field>`` list) in place of its field.
    A bad value of a key a fit reads is a ConfigError that names the key."""
    rate = settings["anomaly_rate"]
    if rate is not None and not 0.0 <= rate <= 1.0:  # NaN fails too
        raise ConfigError(f"anomaly_rate must lie in [0, 1], got {rate}")
    fields = {key: settings[key]
              for key in ("sigma", "embed_dim", "use_aff", "seed", "standardize")}
    # Each AffConfig and FitConfig message opens with its field's name.
    try:
        aff = AffConfig(num_pairs=settings["aff_num_pairs"], epochs=settings["aff_epochs"],
                        learning_rate=settings["aff_learning_rate"])
    except InvalidArgumentError as exc:
        raise ConfigError(f"aff_{exc}") from exc
    try:
        return FitConfig(**(fields | grid), aff=aff)
    except InvalidArgumentError as exc:
        raise ConfigError(f"grid_{exc}" if str(exc).split()[0] in grid else str(exc)) from exc


def _report(ds: LabeledDataset, split: SplitIndices, config: dict, model: DetectorModel,
            eval_split: str, pred, oracle: dict | None = None) -> dict:
    """The report document of one run of ``model``, scored on ``split``'s
    ``eval_split`` rows."""
    truth = ds.labels[getattr(split, eval_split)]
    c = metrics.confusion(truth, pred)
    factor = isinstance(model.dm, DensityFactor)
    doc = {
        "schema": REPORT_SCHEMA,
        "dataset": ds.name,
        "config": config,
        "split_seed": split.seed,
        "split_sizes": {"train": len(split.train), "val": len(split.val), "test": len(split.test)},
        "anomaly_rate": model.anomaly_rate,
        "theta": model.theta,
        "eval_split": eval_split,
        "metrics": {
            "f1_weighted": metrics.f1_weighted(truth, pred),
            "f1_anomaly": metrics.f1_anomaly(truth, pred),
            "accuracy": metrics.accuracy(truth, pred),
            "confusion": {"tp": c.tp, "fp": c.fp, "tn": c.tn, "fn": c.fn},
        },
        "serving": {
            "form": "factor" if factor else "dense",
            "rank": model.dm.rank if factor else model.dm.embed_dim,
            "sketch_bound": model.sketch_bound,
        },
    }
    if oracle is not None:
        doc["oracle"] = oracle
    return doc


def _write_predictions(path, indices, densities, labels, truths) -> None:
    lines = ["index,density,label,truth"]
    for i, dens, lab, truth in zip(indices, densities, labels, truths):
        lines.append(f"{int(i)},{repr(float(dens))},{int(lab)},{int(truth)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_fit(args) -> int:
    settings = _settings(args)
    cfg = _fit_config(settings)
    ds = load_csv(args.data, label_column=args.label_column)
    split = stratified_split(ds, seed=settings["seed"])
    train = ds.features[split.train]
    val = ds.features[split.val]
    rate = settings["anomaly_rate"]
    if rate is None:
        rate = ds.anomaly_rate
    model, val_densities = fit(train, val, rate, cfg)
    cfg = replace(cfg, sigma=model.embedding.sigma)  # fit picks one when none is set
    val_pred = classify_batch(val_densities, model.theta)

    out = Path(args.out)
    save_model(model, out)
    report = _report(ds, split, asdict(cfg), model, "val", val_pred)
    report_path = Path(args.report) if args.report else out.with_suffix(".report.json")
    report_path.write_text(canonical_json(report), encoding="utf-8")
    pred_path = Path(args.predictions) if args.predictions else out.with_suffix(".predictions.csv")
    _write_predictions(pred_path, split.val, val_densities, val_pred, ds.labels[split.val])
    print(f"fit {ds.name}: theta={model.theta!r} "
          f"val_f1_weighted={report['metrics']['f1_weighted']!r} model={out}")
    return EXIT_OK


def evaluate_model(model: DetectorModel, ds: LabeledDataset, seed: int,
                   with_oracle: bool = False) -> tuple[dict, np.ndarray, np.ndarray, np.ndarray]:
    """Score the test split of ``ds`` under ``model``: the split's fractions
    are fixed, so under the fit's ``seed`` no row the fit saw is scored.

    Returns the report document plus (test indices, densities, predicted labels);
    shared by ``eval`` and the acceptance suite so both produce identical
    report documents for identical inputs.
    """
    split = stratified_split(ds, seed=seed)
    test = ds.features[split.test]
    pred, densities = predict_batch(model, test)

    oracle_doc = None
    if with_oracle:
        train = ds.features[split.train]
        val = ds.features[split.val]
        oracle_doc = _oracle_comparison(model, train, val, test, pred, densities)

    config = {"sigma": float(model.embedding.sigma),
              "embed_dim": int(model.embedding.embed_dim),
              "use_aff": bool(model.use_aff),
              "standardize": model.shift is not None}
    report = _report(ds, split, config, model, "test", pred, oracle_doc)
    return report, split.test, densities, pred


def _oracle_comparison(model: DetectorModel, train, val, test, pred, densities) -> dict:
    train, val, test = model.standardize(train), model.standardize(val), model.standardize(test)
    kde_sigma = float(model.embedding.sigma * KDE_BANDWIDTH_RATIO)
    ref_labels = reference_classifier(train, val, test, model.anomaly_rate, kde_sigma)
    kde_scores = kde_exact_batch(train, kde_sigma, test)
    return {
        "kde_sigma": kde_sigma,
        "label_agreement": float(np.mean(ref_labels == pred)),
        "spearman": metrics.spearman(densities, kde_scores),
    }


def cmd_eval(args) -> int:
    settings = _settings(args)
    model = load_model(args.model)
    ds = load_csv(args.data, label_column=args.label_column)
    report, test_idx, densities, pred = evaluate_model(model, ds, settings["seed"],
                                                       with_oracle=args.oracle)
    report_path = Path(args.report) if args.report else Path(args.data).with_suffix(".eval.json")
    report_path.write_text(canonical_json(report), encoding="utf-8")
    pred_path = (Path(args.predictions) if args.predictions
                 else report_path.with_suffix(".predictions.csv"))
    _write_predictions(pred_path, test_idx, densities, pred, ds.labels[test_idx])
    line = (f"eval {ds.name}: test_f1_weighted={report['metrics']['f1_weighted']!r} "
            f"accuracy={report['metrics']['accuracy']!r}")
    if "oracle" in report:
        line += (f" oracle_agreement={report['oracle']['label_agreement']!r}"
                 f" spearman={report['oracle']['spearman']!r}")
    print(line)
    return EXIT_OK


def benchmark_dataset(ds: LabeledDataset, grid: list[FitConfig],
                      rate: float | None) -> tuple[dict, dict, tuple]:
    """Grid search on train/val over ``grid``, the configs ``cmd_benchmark``
    built and checked, then refit on train+val and evaluate on test.  The
    split takes the grid's seed; ``rate=None`` is the dataset's label rate.

    Returns the report, the summary-table row, and the per-sample
    prediction columns (test indices, densities, labels, truths).
    """
    split = stratified_split(ds, seed=grid[0].seed)
    train, val, test = (ds.features[split.train], ds.features[split.val],
                        ds.features[split.test])
    if rate is None:
        rate = ds.anomaly_rate
    best_cfg, search_report = grid_search(train, val, ds.labels[split.val], rate, grid)
    combined = np.vstack([train, val])
    model = fit_with_internal_split(combined, rate, best_cfg)
    pred, densities = predict_batch(model, test)
    predictions = (split.test, densities, pred, ds.labels[split.test])
    best_val_f1 = max(row["f1_weighted"] for row in search_report)
    report = _report(ds, split, asdict(best_cfg), model, "test", pred)
    test_metrics = report["metrics"]
    summary_row = {
        "dataset": ds.name,
        "status": "ok",
        "sigma": float(best_cfg.sigma),
        "embed_dim": int(best_cfg.embed_dim),
        "use_aff": bool(best_cfg.use_aff),
        "val_f1_weighted": best_val_f1,
        "test_f1_weighted": test_metrics["f1_weighted"],
        "test_f1_anomaly": test_metrics["f1_anomaly"],
        "test_accuracy": test_metrics["accuracy"],
    }
    return report, summary_row, predictions


def cmd_benchmark(args) -> int:
    settings = _settings(args)
    for key in ("grid_sigma", "grid_embed_dim", "grid_use_aff"):
        if settings[key] == []:
            raise ConfigError(f"{key} must list at least one value")
    # Each grid point's config, built once before the dataset loop so that a
    # bad value fails the command, not each dataset.  benchmark reads no
    # sigma: without grid_sigma, grid_search expands the default sigma grid.
    dims = [{"embed_dim": dim} for dim in settings["grid_embed_dim"] or []] or [{}]
    uses = [{"use_aff": use} for use in settings["grid_use_aff"] or []] or [{}]
    grid = [_fit_config(settings, sigma=sigma, **dim, **use)
            for sigma in settings["grid_sigma"] or [None] for dim in dims for use in uses]
    data_dir = Path(args.data)
    paths = sorted(data_dir.glob("*.csv"))
    if not paths:
        raise ConfigError(f"no .csv datasets found in {data_dir}")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    rows = []
    for path in paths:
        try:
            ds = load_csv(path, label_column=args.label_column)
            report, row, predictions = benchmark_dataset(ds, grid, settings["anomaly_rate"])
            report_path = out_dir / f"{ds.name}.report.json"
            report_path.write_text(canonical_json(report), encoding="utf-8")
            _write_predictions(out_dir / f"{ds.name}.predictions.csv", *predictions)
        except Exception as exc:  # isolate per-dataset failures
            rows.append({"dataset": path.stem, "status": "failed", "error": str(exc)})
            print(f"[benchmark] {path.stem}: FAILED ({exc})", file=sys.stderr)
            continue
        rows.append(row)

    summary = {
        "schema": "dmkde-benchmark/1",
        "seed": settings["seed"],
        "datasets": sorted(rows, key=lambda r: r["dataset"]),
    }
    (out_dir / "summary.json").write_text(canonical_json(summary), encoding="utf-8")

    print(f"{'dataset':20s} {'status':7s} {'sigma':>10s} {'D':>6s} {'f1_weighted':>12s}")
    for row in summary["datasets"]:
        if row["status"] == "ok":
            print(f"{row['dataset']:20s} {row['status']:7s} {row['sigma']:>10.4g} "
                  f"{row['embed_dim']:>6d} {row['test_f1_weighted']:>12.4f}")
        else:
            print(f"{row['dataset']:20s} {row['status']:7s} {row.get('error', ''):>30s}")
    return EXIT_OK


def cmd_generate(args) -> int:
    try:
        doc = json.loads(Path(args.spec).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read spec {args.spec}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{args.spec}: invalid JSON: {exc}") from exc
    try:
        spec = SyntheticSpec.from_dict(doc)
        ds = generate_synthetic(spec, args.seed if args.seed is not None else 0)
    except InvalidArgumentError as exc:
        raise ConfigError(str(exc)) from exc
    save_csv(ds, args.out)
    print(f"generate {ds.name}: {len(ds)} samples, "
          f"{int(ds.labels.sum())} anomalies -> {args.out}")
    return EXIT_OK


def cmd_predict(args) -> int:
    model = load_model(args.model)
    ds = load_csv(args.data, label_column=args.label_column)
    pred, densities = predict_batch(model, ds.features)
    _write_predictions(args.out, np.arange(len(ds)), densities, pred, ds.labels)
    print(f"predict {ds.name}: {int(pred.sum())} of {len(ds)} flagged -> {args.out}")
    return EXIT_OK


_COMMON_FLAGS = {
    "--seed": {"type": int, "help": "run seed (default 0)"},
    "--config": {"help": "flat key-value config file"},
    "--label-column": {"help": "label column name (default: last column)"},
}


def _add_common(parser: argparse.ArgumentParser, flags=tuple(_COMMON_FLAGS)) -> None:
    """Add the shared flags a command reads; a flag it ignores is a usage error."""
    for flag in flags:
        parser.add_argument(flag, **_COMMON_FLAGS[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dmkde",
        description="Anomaly detection via Fourier-feature density matrices.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("fit", help="split a dataset, fit a detector, write model + report")
    p.add_argument("data", help="labeled CSV dataset")
    p.add_argument("--out", required=True, help="model file to write")
    p.add_argument("--report", default=None, help="report path (default: <out>.report.json)")
    p.add_argument("--predictions", default=None,
                   help="per-sample CSV path (default: <out>.predictions.csv)")
    p.add_argument("--sigma", type=float, default=None,
                   help="kernel bandwidth (default: median pairwise distance)")
    p.add_argument("--embed-dim", dest="embed_dim", type=int, default=None)
    p.add_argument("--use-aff", dest="use_aff", action="store_const", const=True, default=None,
                   help="refine the embedding by gradient descent")
    p.add_argument("--anomaly-rate", dest="anomaly_rate", type=float, default=None,
                   help="threshold quantile (default: label mean of the dataset)")
    p.add_argument("--no-standardize", dest="standardize", action="store_const", const=False)
    _add_common(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("eval", help="score the test split of a dataset under a saved model")
    p.add_argument("data", help="labeled CSV dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--report", default=None, help="report path (default: <data>.eval.json)")
    p.add_argument("--predictions", default=None,
                   help="per-sample CSV path (default: <report>.predictions.csv)")
    p.add_argument("--oracle", action="store_true",
                   help="also report agreement with the exact-KDE reference")
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("benchmark", help="grid search + refit + test metrics per dataset")
    p.add_argument("data", help="directory of labeled CSV datasets")
    p.add_argument("--out", required=True, help="output directory for reports and summary")
    p.add_argument("--no-standardize", dest="standardize", action="store_const", const=False)
    _add_common(p)
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("generate", help="write a synthetic benchmark dataset")
    p.add_argument("spec", help="JSON synthetic-data spec")
    p.add_argument("--out", required=True, help="CSV path to write")
    _add_common(p, ["--seed"])
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("predict", help="score every row of a dataset under a saved model")
    p.add_argument("data", help="labeled CSV dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True, help="per-sample CSV path")
    _add_common(p, ["--label-column"])
    p.set_defaults(func=cmd_predict)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    if not getattr(args, "func", None):
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
