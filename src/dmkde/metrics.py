"""Binary classification metrics with anomaly (label 1) as positive class,
and the Spearman rank correlation the oracle comparison reports.

F1 follows the zero-division convention F1 = 0: a class with no true and
no predicted members scores 0 and still contributes its (zero) support
weight to the weighted average.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import _label_vector, _numbers
from .errors import InvalidArgumentError


@dataclass
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def _check_labels(y_true, y_pred):
    """Both label vectors by the package's one label rule, ``y_pred`` at
    ``y_true``'s length."""
    y_true = _numbers(y_true, "y_true")
    y_true = _label_vector(y_true, y_true.size, "y_true")
    if y_true.size == 0:
        raise InvalidArgumentError("label vectors must be nonempty")
    return y_true, _label_vector(y_pred, y_true.size, "y_pred")


def confusion(y_true, y_pred) -> ConfusionCounts:
    y_true, y_pred = _check_labels(y_true, y_pred)
    return ConfusionCounts(
        tp=int(np.sum((y_true == 1) & (y_pred == 1))),
        fp=int(np.sum((y_true == 0) & (y_pred == 1))),
        tn=int(np.sum((y_true == 0) & (y_pred == 0))),
        fn=int(np.sum((y_true == 1) & (y_pred == 0))),
    )


def _f1(tp: int, fp: int, fn: int) -> float:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def f1_anomaly(y_true, y_pred) -> float:
    """F1 of the anomaly class (one-vs-rest with label 1 positive)."""
    c = confusion(y_true, y_pred)
    return _f1(c.tp, c.fp, c.fn)


def f1_weighted(y_true, y_pred) -> float:
    """Support-weighted mean of the per-class F1 scores."""
    c = confusion(y_true, y_pred)
    # Class 0 one-vs-rest swaps the roles of the confusion cells.
    f1_class1 = _f1(c.tp, c.fp, c.fn)
    f1_class0 = _f1(c.tn, c.fn, c.fp)
    support1 = c.tp + c.fn
    support0 = c.tn + c.fp
    return (support0 * f1_class0 + support1 * f1_class1) / c.total


def accuracy(y_true, y_pred) -> float:
    c = confusion(y_true, y_pred)
    return (c.tp + c.tn) / c.total


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of ``x``, tied values sharing the mean of their ranks."""
    order = np.argsort(x, kind="stable")
    y = x[order]
    starts = np.flatnonzero(np.concatenate(([True], y[:-1] != y[1:])))
    counts = np.diff(starts, append=y.size)
    ranks = np.empty(y.size)
    ranks[order] = np.repeat(starts + 1 + (counts - 1) / 2, counts)
    return ranks


def spearman(a, b) -> float:
    """Spearman rank correlation of two equal-length 1-D sequences.

    The Pearson correlation of their average ranks, computed with the same
    operations as ``scipy.stats.spearmanr(a, b).statistic`` and equal to it
    bit for bit.  Like scipy, returns nan for fewer than two values, for a
    constant input, and for an input containing nan, which ``_numbers`` lets pass.
    """
    a, b = _numbers(a, "a"), _numbers(b, "b")
    if a.ndim != 1 or a.shape != b.shape:
        raise InvalidArgumentError("spearman needs two 1-D sequences of equal length")
    data = np.column_stack((a, b))
    if (data.shape[0] < 2 or np.any(np.all(data == data[0], axis=0))
            or np.any(np.isnan(data))):
        return float("nan")
    ranks = np.column_stack((_average_ranks(data[:, 0]), _average_ranks(data[:, 1])))
    return float(np.corrcoef(ranks, rowvar=False)[1, 0])
