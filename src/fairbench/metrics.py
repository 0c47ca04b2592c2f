"""Confusion counts, per-class and macro F1, per-group rates, equalized odds."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, LengthMismatch, NoEvaluableGroups


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class GroupRates:
    """Per-group empirical TPR/FPR; a rate is None when its class is absent."""

    rates: dict[str, tuple[float | None, float | None, int, int]]  # tpr, fpr, n_pos, n_neg

    def tprs(self) -> list[float]:
        return [tpr for tpr, _, _, _ in self.rates.values() if tpr is not None]

    def fprs(self) -> list[float]:
        return [fpr for _, fpr, _, _ in self.rates.values() if fpr is not None]


def _as_binary(name: str, y) -> np.ndarray:
    arr = np.asarray(y)
    if arr.ndim != 1:
        raise LengthMismatch(f"{name} must be 1-D, got shape {arr.shape}")
    return arr.astype(np.int64)


def confusion(y_true, y_pred, positive_label: int = 1) -> ConfusionCounts:
    yt = _as_binary("y_true", y_true)
    yp = _as_binary("y_pred", y_pred)
    if len(yt) != len(yp):
        raise LengthMismatch(f"y_true has {len(yt)} samples, y_pred has {len(yp)}")
    if len(yt) == 0:
        raise EmptyInput("cannot count an empty prediction vector")
    pos_t = yt == positive_label
    pos_p = yp == positive_label
    return ConfusionCounts(
        tp=int(np.sum(pos_t & pos_p)),
        fp=int(np.sum(~pos_t & pos_p)),
        tn=int(np.sum(~pos_t & ~pos_p)),
        fn=int(np.sum(pos_t & ~pos_p)),
    )


def f1_score(c: ConfusionCounts) -> float:
    """2PR/(P+R); the tp = 0 case (undefined precision or recall) scores 0."""
    if c.tp == 0:
        return 0.0
    precision = c.tp / (c.tp + c.fp)
    recall = c.tp / (c.tp + c.fn)
    return 2.0 * precision * recall / (precision + recall)


def macro_f1(y_true, y_pred) -> float:
    """Unweighted mean of F1 with each of the two classes treated as positive."""
    return 0.5 * (
        f1_score(confusion(y_true, y_pred, positive_label=1))
        + f1_score(confusion(y_true, y_pred, positive_label=0))
    )


def macro_f1_rows(y_true, y_pred) -> np.ndarray:
    """``macro_f1(y_true, row)`` for every row of the 2-D ``y_pred`` at once.

    Applies the formula of ``f1_score`` to arrays of confusion counts, in the
    same order of operations, so each value equals the scalar one exactly.
    """
    yt = _as_binary("y_true", y_true)
    yp = np.asarray(y_pred).astype(np.int64)
    if yp.ndim != 2 or yp.shape[1] != len(yt):
        raise LengthMismatch(f"y_pred must have shape (m, {len(yt)}), got {yp.shape}")
    if len(yt) == 0:
        raise EmptyInput("cannot count an empty prediction vector")
    f1 = []
    for label in (1, 0):
        pos_t = yt == label
        pos_p = yp == label
        tp = np.count_nonzero(pos_t & pos_p, axis=1)
        fp = np.count_nonzero(~pos_t & pos_p, axis=1)
        fn = np.count_nonzero(pos_t & ~pos_p, axis=1)
        precision = tp / np.maximum(tp + fp, 1)
        recall = tp / np.maximum(tp + fn, 1)
        # tp = 0 makes precision and recall 0, so F1 is 0 as in f1_score
        f1.append(2.0 * precision * recall / np.where(tp > 0, precision + recall, 1.0))
    return 0.5 * (f1[0] + f1[1])


def group_rates(y_true, y_pred, groups) -> GroupRates:
    yt = _as_binary("y_true", y_true)
    yp = _as_binary("y_pred", y_pred)
    g = np.asarray([str(v) for v in np.asarray(groups).ravel()])
    if not (len(yt) == len(yp) == len(g)):
        raise LengthMismatch(
            f"lengths differ: y_true={len(yt)}, y_pred={len(yp)}, groups={len(g)}"
        )
    rates = {}
    for value in sorted(set(g)):
        mask = g == value
        pos = mask & (yt == 1)
        neg = mask & (yt == 0)
        n_pos = int(pos.sum())
        n_neg = int(neg.sum())
        tpr = float(np.sum(pos & (yp == 1)) / n_pos) if n_pos else None
        fpr = float(np.sum(neg & (yp == 1)) / n_neg) if n_neg else None
        rates[value] = (tpr, fpr, n_pos, n_neg)
    return GroupRates(rates=rates)


def _ratio(values: list[float]) -> float:
    # min/max over groups; the all-zero case is 0/0 and counts as perfectly
    # balanced (every group has the identical zero rate).
    hi = max(values)
    if hi == 0.0:
        return 1.0
    return min(values) / hi


def equalized_odds(rates: GroupRates) -> float:
    """min(TPR ratio, FPR ratio), each ratio = smallest/largest defined group rate."""
    tprs = rates.tprs()
    fprs = rates.fprs()
    if not tprs or not fprs:
        raise NoEvaluableGroups(
            "equalized odds needs at least one group with a defined TPR and one with a defined FPR"
        )
    return min(_ratio(tprs), _ratio(fprs))
