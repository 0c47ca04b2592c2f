"""Macro F1, per-group TPR/FPR and equalized odds, each read from the integer
confusion counts that ``confusion_counts`` fills in one ``np.bincount``. Every
label array must hold 0 and 1 only (an InvariantViolation otherwise).
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyInput, InvariantViolation, LengthMismatch, NoEvaluableGroups


def _as_binary(name: str, y, ndim: int = 1) -> np.ndarray:
    """``y`` as an ``ndim``-D int64 array, itself when it is one; each value must be 0 or 1."""
    arr = np.asarray(y)
    if arr.ndim != ndim:
        raise LengthMismatch(f"{name} must be {ndim}-D, got shape {arr.shape}")
    outside = (arr != 0) & (arr != 1)
    if outside.any():
        raise InvariantViolation(f"{name} must be 0 or 1, got {arr[outside].tolist()[0]!r}")
    return arr.astype(np.int64, copy=False)


def confusion_counts(y_true, y_pred, groups=None) -> tuple[list[str], np.ndarray]:
    """(keys, counts): the sorted distinct ``str`` of ``groups`` (one group, '',
    for None), and the int64 counts (rows, groups, 4) of each row of the 2-D
    ``y_pred`` in each cell 2 * truth + prediction: tn, fp, fn, tp."""
    yt = _as_binary("y_true", y_true)
    yp = _as_binary("y_pred", y_pred, ndim=2)
    if yp.shape[1] != len(yt):
        raise LengthMismatch(f"y_pred must have shape (m, {len(yt)}), got {yp.shape}")
    keys, inverse = np.array([""]), 0
    if groups is not None:
        g = np.asarray(groups).ravel().astype(str)
        if len(g) != len(yt):
            raise LengthMismatch(f"lengths differ: y_true={len(yt)}, groups={len(g)}")
        keys, inverse = np.unique(g, return_inverse=True)
    index = (np.arange(len(yp))[:, None] * len(keys) + inverse) * 4 + 2 * yt + yp
    counts = np.bincount(index.ravel(), minlength=len(yp) * len(keys) * 4)
    return keys.tolist(), counts.reshape(len(yp), len(keys), 4)


def _f1(tp, fp, fn) -> np.ndarray:
    """2PR/(P+R) of arrays of counts; tp = 0 (undefined precision or recall) scores 0."""
    precision = tp / np.maximum(tp + fp, 1)
    recall = tp / np.maximum(tp + fn, 1)
    return 2.0 * precision * recall / np.where(tp > 0, precision + recall, 1.0)


def macro_f1_from_counts(counts) -> np.ndarray:
    """Mean of F1 with each class as positive, of counts (..., 4) of the cells
    tn, fp, fn, tp; with class 0 as positive, tp is tn and fp, fn swap."""
    tn, fp, fn, tp = np.moveaxis(counts, -1, 0)
    return 0.5 * (_f1(tp, fp, fn) + _f1(tn, fn, fp))


def macro_f1(y_true, y_pred) -> float:
    """Unweighted mean of F1 with each of the two classes treated as positive."""
    _, counts = confusion_counts(y_true, _as_binary("y_pred", y_pred)[None])
    if not counts.any():
        raise EmptyInput("cannot count an empty prediction vector")
    return float(macro_f1_from_counts(counts[0, 0]))


def rates_from_counts(keys: list[str], counts) -> dict:
    """``group_rates``'s dict from each group's counts (groups, 4), as Python-int
    divisions: summed counts give the bits their concatenated labels give."""
    rates = {}
    for key, (tn, fp, fn, tp) in zip(keys, np.asarray(counts).tolist()):
        n_pos, n_neg = fn + tp, tn + fp
        rates[key] = (tp / n_pos if n_pos else None, fp / n_neg if n_neg else None, n_pos, n_neg)
    return rates


def group_rates(y_true, y_pred, groups) -> dict[str, tuple[float | None, float | None, int, int]]:
    """``{str(group): (tpr, fpr, n_pos, n_neg)}`` in sorted order; a rate is
    None when its class is absent from the group."""
    keys, counts = confusion_counts(y_true, _as_binary("y_pred", y_pred)[None], groups)
    return rates_from_counts(keys, counts[0])


def _ratio(values: list[float]) -> float:
    # min/max over groups; the all-zero case is 0/0 and counts as perfectly
    # balanced (every group has the identical zero rate).
    hi = max(values)
    if hi == 0.0:
        return 1.0
    return min(values) / hi


def equalized_odds(rates: dict) -> float:
    """min(TPR ratio, FPR ratio) of ``group_rates``, each the smallest over the largest rate."""
    tprs = [tpr for tpr, _, _, _ in rates.values() if tpr is not None]
    fprs = [fpr for _, fpr, _, _ in rates.values() if fpr is not None]
    if not tprs or not fprs:
        raise NoEvaluableGroups(
            "equalized odds needs at least one group with a defined TPR and one with a defined FPR"
        )
    return min(_ratio(tprs), _ratio(fprs))
