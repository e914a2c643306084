"""Dataset loading, stratified splitting, standardization, synthetic data.

CSV datasets are UTF-8 with a header row, comma separators, decimal
points, and a {0,1} label column (named ``label`` in files written by
this package; the loader defaults to the last column).  Non-finite or
non-numeric cells are rejected with the offending row and column named.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import (
    InsufficientClassError,
    InsufficientDataError,
    InvalidArgumentError,
    ParseError,
)
from .rng import DOMAIN_SPLIT, DOMAIN_SYNTHETIC, standard_normal, stream

# The fixed 49/21/30 train/val/test split: 30% of each class to test, 30% of the rest to val.
_TEST_FRAC = 0.3
_VAL_FRAC = 0.3


def _numbers(x) -> np.ndarray:
    """``x`` as a float64 array; a ragged or non-numeric input is an argument error."""
    try:
        return np.asarray(x, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InvalidArgumentError(f"expected an array of numbers: {exc}") from None


def _feature_matrix(x, columns: int | None = None, min_rows: int = 0) -> np.ndarray:
    """``x`` as a float64 feature matrix: 2-D, ``columns`` wide when given,
    at least ``min_rows`` rows, every value finite.  An empty sequence is
    zero rows.  The package's one rule for a matrix input with one sample
    per row, as :func:`_feature_vector` is for one sample."""
    x = _numbers(x)
    if x.shape == (0,):
        x = x.reshape(0, columns or 0)
    if x.ndim != 2 or (columns is not None and x.shape[1] != columns):
        width = "" if columns is None else f" with {columns} columns"
        raise InvalidArgumentError(f"expected a 2-D feature matrix{width}, got shape {x.shape}")
    if x.shape[0] < min_rows:
        raise InsufficientDataError(f"need at least {min_rows} rows, got {x.shape[0]}")
    if not np.all(np.isfinite(x)):
        raise InvalidArgumentError("features contain non-finite values")
    return x


def _feature_vector(x, columns: int) -> np.ndarray:
    """One sample, a vector of ``columns`` finite values, as a one-row feature matrix."""
    x = _numbers(x)
    if x.shape != (columns,):
        raise InvalidArgumentError(f"expected a vector of length {columns}, got shape {x.shape}")
    return _feature_matrix(x[np.newaxis], columns)


def _label_vector(labels, rows: int) -> np.ndarray:
    """``labels`` as an int64 vector of ``rows`` values, each 0 (normal) or
    1 (anomaly): the vector rule, then an exact {0, 1} check, then the cast,
    so that a fractional label is an error rather than truncated."""
    labels = _feature_vector(labels, rows)[0]
    if not np.all((labels == 0.0) | (labels == 1.0)):
        raise InvalidArgumentError("labels must be 0 or 1")
    return labels.astype(np.int64)


@dataclass
class LabeledDataset:
    """Feature matrix with {0 normal, 1 anomaly} labels."""

    features: np.ndarray
    labels: np.ndarray
    name: str = ""

    def __post_init__(self):
        self.features = _feature_matrix(self.features)
        self.labels = _label_vector(self.labels, self.features.shape[0])

    @property
    def anomaly_rate(self) -> float:
        return float(self.labels.mean()) if self.labels.size else 0.0

    def __len__(self) -> int:
        return self.features.shape[0]


@dataclass
class SplitIndices:
    """Disjoint train/val/test row indices covering a dataset."""

    train: np.ndarray
    val: np.ndarray
    test: np.ndarray
    seed: int


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def load_csv(path, label_column: str | None = None) -> LabeledDataset:
    """Parse a labeled CSV dataset.

    ``label_column`` selects the label by header name; by default the
    last column is used.  Rows are reported 1-based counting the header
    as row 1.  A file without quotes, NULs, blank or overlong lines is
    split at its commas (:func:`_split_plain`) and its body converted in
    one pass (:func:`_fast_table`); any other file, or a body that pass
    declines, goes through ``csv`` and the per-cell parser, which names the
    fault.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    plain = _split_plain(text)
    rows = plain if plain is not None else list(csv.reader(text.splitlines()))
    if not rows:
        raise ParseError(f"{path}: empty file")
    header = [h.strip() for h in rows[0]]
    if label_column is None:
        label_idx = len(header) - 1
    else:
        if label_column not in header:
            raise ParseError(f"{path}: no column named {label_column!r} in header")
        label_idx = header.index(label_column)
    table = _fast_table(rows, label_idx) if plain is not None else None
    if table is None:
        return _parse_cells(path, rows, header, label_idx)
    return LabeledDataset(np.delete(table, label_idx, axis=1),
                          table[:, label_idx], name=path.stem)


def _split_plain(text: str) -> list[list[str]] | None:
    """The lines of ``text`` split at their commas, which is how ``csv``
    splits a text without quotes, NULs (an error before Python 3.11), blank
    lines or lines longer than its field limit; ``None`` for any other text."""
    lines = text.splitlines()
    limit = csv.field_size_limit()
    if '"' in text or "\0" in text or not all(0 < len(line) <= limit for line in lines):
        return None
    return [line.split(",") for line in lines]


def _fast_table(rows: list[list[str]], label_idx: int) -> np.ndarray | None:
    """The data rows as one float array, or ``None`` when the per-cell parser
    could reject them: a ragged row, a cell ``float`` rejects, a non-finite
    value or a label outside {0, 1}.  Each cell goes through ``float``, as
    there, so the values are the same bits."""
    body = rows[1:]
    width = len(rows[0])
    if not body or any(len(row) != width for row in body):
        return None
    try:
        table = np.fromiter(map(float, chain.from_iterable(body)), np.float64,
                            len(body) * width).reshape(len(body), width)
    except ValueError:
        return None
    labels = table[:, label_idx]
    if not (np.isfinite(table).all() and ((labels == 0.0) | (labels == 1.0)).all()):
        return None
    return table


def _parse_cells(path: Path, rows: list[list[str]], header: list[str],
                 label_idx: int) -> LabeledDataset:
    """The data rows parsed cell by cell; the first bad cell or row raises
    ``ParseError`` with its row and column."""
    features: list[list[float]] = []
    labels: list[int] = []
    for line_no, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ParseError(f"{path}: ragged row has {len(row)} cells, expected {len(header)}",
                             row=line_no)
        feat_row = []
        for col_idx, cell in enumerate(row):
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(f"{path}: non-numeric cell {cell!r}",
                                 row=line_no, column=header[col_idx]) from None
            if not math.isfinite(value):
                raise ParseError(f"{path}: non-finite cell {cell!r}",
                                 row=line_no, column=header[col_idx])
            if col_idx == label_idx:
                if value not in (0.0, 1.0):
                    raise ParseError(f"{path}: label {cell!r} not in {{0, 1}}",
                                     row=line_no, column=header[col_idx])
                labels.append(int(value))
            else:
                feat_row.append(value)
        features.append(feat_row)
    if not features:
        raise ParseError(f"{path}: no data rows")
    return LabeledDataset(np.array(features, dtype=np.float64), labels, name=path.stem)


def save_csv(ds: LabeledDataset, path) -> None:
    """Write a dataset in the package CSV schema (label column last)."""
    path = Path(path)
    d = ds.features.shape[1]
    lines = [",".join([f"f{i}" for i in range(d)] + ["label"])]
    for row, label in zip(ds.features, ds.labels):
        lines.append(",".join(repr(float(v)) for v in row) + f",{int(label)}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def stratified_split(ds: LabeledDataset, seed: int = 0) -> SplitIndices:
    """Split a dataset per class, keeping anomaly proportions in each part.

    Per class: shuffle the class indices, allocate round-half-up
    ``_TEST_FRAC * count`` to test, then round-half-up ``_VAL_FRAC`` of the
    remainder to val; the rest is train.  Class 0 is processed before
    class 1 on a single seeded stream, so the result is deterministic.
    """
    rng = stream(seed, DOMAIN_SPLIT)
    parts = {"train": [], "val": [], "test": []}
    for cls in (0, 1):
        idx = np.flatnonzero(ds.labels == cls)
        count = len(idx)
        if count == 0:
            raise InsufficientClassError(cls)
        shuffled = idx[rng.permutation(count)]
        n_test = _round_half_up(_TEST_FRAC * count)
        n_val = _round_half_up(_VAL_FRAC * (count - n_test))
        n_train = count - n_test - n_val
        if min(n_test, n_val, n_train) < 1:
            raise InsufficientClassError(cls)
        parts["test"].append(shuffled[:n_test])
        parts["val"].append(shuffled[n_test:n_test + n_val])
        parts["train"].append(shuffled[n_test + n_val:])
    return SplitIndices(
        train=np.sort(np.concatenate(parts["train"])),
        val=np.sort(np.concatenate(parts["val"])),
        test=np.sort(np.concatenate(parts["test"])),
        seed=int(seed),
    )


def fit_standardizer(features: np.ndarray):
    """Per-column mean and standard deviation (constant columns get scale 1).

    A column whose squares overflow (values near 1e160 and up) has its
    deviation taken on the column over its largest magnitude, then scaled back.
    """
    features = _feature_matrix(features, min_rows=2)
    shift = features.mean(axis=0)
    with np.errstate(over="ignore"):
        scale = features.std(axis=0)
    for col in np.flatnonzero(~np.isfinite(scale)):
        peak = np.max(np.abs(features[:, col]))
        scale[col] = (features[:, col] / peak).std() * peak
    scale = np.where(scale == 0.0, 1.0, scale)
    return shift, scale


def apply_standardizer(features: np.ndarray, shift: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """``(features - shift) / scale`` column by column: a feature matrix and
    two vectors of its width, as :func:`fit_standardizer` makes them, each
    checked by the package's one rule."""
    features = _feature_matrix(features)
    shift, scale = (_feature_vector(v, features.shape[1])[0] for v in (shift, scale))
    return (features - shift) / scale


@dataclass
class GaussianComponent:
    """One normal-data mixture component: mean plus covariance."""

    mean: np.ndarray
    cov: np.ndarray
    count: int

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        if self.mean.ndim != 1 or self.mean.size < 1:
            raise InvalidArgumentError("component mean must be a 1-D vector")
        d = self.mean.size
        cov = np.asarray(self.cov, dtype=np.float64)
        if cov.ndim == 0:
            cov = float(cov) * np.eye(d)
        elif cov.ndim == 1:
            if cov.size != d:
                raise InvalidArgumentError("diagonal covariance length must match mean")
            cov = np.diag(cov)
        if cov.shape != (d, d):
            raise InvalidArgumentError("covariance must be scalar, diagonal, or d x d")
        self.cov = cov
        self.count = int(self.count)
        if self.count < 1:
            raise InvalidArgumentError("component count must be >= 1")


@dataclass
class SyntheticSpec:
    """Mixture-of-Gaussians normals plus uniform-box anomalies.

    Anomalies are drawn uniformly in the axis-aligned box and rejected
    while they fall within ``exclusion_radius`` of any component mean.
    """

    components: list[GaussianComponent]
    anomaly_count: int
    box_low: np.ndarray
    box_high: np.ndarray
    exclusion_radius: float = 0.0
    name: str = "synthetic"

    def __post_init__(self):
        if not self.components:
            raise InvalidArgumentError("at least one mixture component is required")
        self.box_low = np.asarray(self.box_low, dtype=np.float64)
        self.box_high = np.asarray(self.box_high, dtype=np.float64)
        d = self.components[0].mean.size
        for comp in self.components:
            if comp.mean.size != d:
                raise InvalidArgumentError("all components must share one dimension")
        if self.box_low.shape != (d,) or self.box_high.shape != (d,):
            raise InvalidArgumentError("box bounds must be vectors of the data dimension")
        if np.any(self.box_high <= self.box_low):
            raise InvalidArgumentError("box_high must exceed box_low in every coordinate")
        self.anomaly_count = int(self.anomaly_count)
        if self.anomaly_count < 0:
            raise InvalidArgumentError("anomaly_count must be >= 0")
        self.exclusion_radius = float(self.exclusion_radius)
        if self.exclusion_radius < 0:
            raise InvalidArgumentError("exclusion_radius must be >= 0")

    @property
    def dim(self) -> int:
        return self.components[0].mean.size

    @classmethod
    def from_dict(cls, doc: dict) -> "SyntheticSpec":
        try:
            components = [
                GaussianComponent(np.asarray(c["mean"], dtype=np.float64),
                                  np.asarray(c.get("cov", 1.0), dtype=np.float64),
                                  int(c["count"]))
                for c in doc["components"]
            ]
            return cls(
                components=components,
                anomaly_count=int(doc["anomaly_count"]),
                box_low=np.asarray(doc["box_low"], dtype=np.float64),
                box_high=np.asarray(doc["box_high"], dtype=np.float64),
                exclusion_radius=float(doc.get("exclusion_radius", 0.0)),
                name=str(doc.get("name", "synthetic")),
            )
        except (KeyError, TypeError) as exc:
            raise InvalidArgumentError(f"malformed synthetic spec: {exc}") from exc


def generate_synthetic(spec: SyntheticSpec, seed: int) -> LabeledDataset:
    """Draw the dataset a spec describes; deterministic given the seed.

    Normal samples come from each component in order (mean + Cholesky
    factor of the covariance applied to Box-Muller normals), then
    anomalies by rejection sampling in the box.
    """
    rng = stream(seed, DOMAIN_SYNTHETIC)
    d = spec.dim
    blocks = []
    for comp in spec.components:
        try:
            chol = np.linalg.cholesky(comp.cov)
        except np.linalg.LinAlgError as exc:
            raise InvalidArgumentError("component covariance is not positive definite") from exc
        z = standard_normal(rng, (comp.count, d))
        blocks.append(comp.mean + z @ chol.T)

    means = np.stack([comp.mean for comp in spec.components])
    anomalies = np.empty((0, d))
    attempts = 0
    while anomalies.shape[0] < spec.anomaly_count:
        attempts += 1
        if attempts > 1000:
            raise InvalidArgumentError(
                "box leaves too little room outside the exclusion radius"
            )
        draw = spec.box_low + rng.random((max(spec.anomaly_count, 64), d)) * (
            spec.box_high - spec.box_low
        )
        if spec.exclusion_radius > 0:
            dist = np.linalg.norm(draw[:, None, :] - means[None, :, :], axis=2)
            draw = draw[np.min(dist, axis=1) > spec.exclusion_radius]
        anomalies = np.vstack([anomalies, draw])
    anomalies = anomalies[: spec.anomaly_count]

    features = np.vstack(blocks + [anomalies])
    labels = np.concatenate([
        np.zeros(sum(c.count for c in spec.components), dtype=np.int64),
        np.ones(spec.anomaly_count, dtype=np.int64),
    ])
    return LabeledDataset(features, labels, name=spec.name)
