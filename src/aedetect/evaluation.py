"""Confusion matrix and detection metrics.

Degenerate denominators yield None rather than a coerced 0 or 1; report
writers render that as an explicit "undefined".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import write_table
from .errors import ValidationError


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise ValidationError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class MetricsReport:
    precision: float | None
    recall: float | None
    specificity: float | None
    f1: float | None
    confusion: ConfusionMatrix


def confusion(flags: np.ndarray, truth: np.ndarray) -> ConfusionMatrix:
    """Counts with the fault class as positive."""
    flags = np.asarray(flags, dtype=bool)
    truth = np.asarray(truth, dtype=bool)
    if flags.shape != truth.shape or flags.ndim != 1:
        raise ValidationError(
            f"flags {flags.shape} and truth {truth.shape} must be equal-length vectors"
        )
    return ConfusionMatrix(
        tp=int(np.sum(flags & truth)),
        fp=int(np.sum(flags & ~truth)),
        tn=int(np.sum(~flags & ~truth)),
        fn=int(np.sum(~flags & truth)),
    )


def _ratio(num: int, den: int) -> float | None:
    return num / den if den > 0 else None


def metrics(cm: ConfusionMatrix) -> MetricsReport:
    precision = _ratio(cm.tp, cm.tp + cm.fp)
    recall = _ratio(cm.tp, cm.tp + cm.fn)
    specificity = _ratio(cm.tn, cm.tn + cm.fp)
    if precision is None or recall is None or precision + recall == 0.0:
        f1 = None
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    return MetricsReport(precision, recall, specificity, f1, cm)


def _fmt(value: float | None) -> str:
    return "undefined" if value is None else f"{value:.4f}"


def format_metrics_table(report: MetricsReport) -> str:
    cm = report.confusion
    lines = [
        "            flagged  not flagged",
        f"fault     {cm.tp:9d}  {cm.fn:11d}",
        f"healthy   {cm.fp:9d}  {cm.tn:11d}",
        "",
        f"precision    {_fmt(report.precision)}",
        f"recall       {_fmt(report.recall)}",
        f"specificity  {_fmt(report.specificity)}",
        f"f1           {_fmt(report.f1)}",
    ]
    return "\n".join(lines)


def write_metrics_csv(report: MetricsReport, path) -> None:
    cm = report.confusion
    rows = [
        ("tp", cm.tp),
        ("fp", cm.fp),
        ("tn", cm.tn),
        ("fn", cm.fn),
        ("precision", report.precision),
        ("recall", report.recall),
        ("specificity", report.specificity),
        ("f1", report.f1),
    ]
    write_table(path, ["metric", "value"], (
        f"{name},{'' if value is None else repr(value)}" for name, value in rows))
