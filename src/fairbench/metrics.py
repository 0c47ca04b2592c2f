"""Macro F1 of 0/1 label rows, per-group TPR/FPR and equalized odds, on one
array path: ``macro_f1_rows`` counts class 1's confusion cells per prediction
row and derives class 0's from them; ``group_rates`` counts all groups at once.
Every label array must hold 0 and 1 only (an InvariantViolation otherwise),
but for ``macro_f1_rows``'s prediction rows, which come from ``predict``.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyInput, InvariantViolation, LengthMismatch, NoEvaluableGroups


def _as_binary(name: str, y) -> np.ndarray:
    """``y`` as a 1-D int64 array, itself when it is one; each value must be 0 or 1."""
    arr = np.asarray(y)
    if arr.ndim != 1:
        raise LengthMismatch(f"{name} must be 1-D, got shape {arr.shape}")
    outside = (arr != 0) & (arr != 1)
    if outside.any():
        raise InvariantViolation(f"{name} must be 0 or 1, got {arr[outside].tolist()[0]!r}")
    return arr.astype(np.int64, copy=False)


def _f1(tp, fp, fn) -> np.ndarray:
    """2PR/(P+R) of arrays of counts; tp = 0 (undefined precision or recall) scores 0."""
    precision = tp / np.maximum(tp + fp, 1)
    recall = tp / np.maximum(tp + fn, 1)
    return 2.0 * precision * recall / np.where(tp > 0, precision + recall, 1.0)


def macro_f1(y_true, y_pred) -> float:
    """Unweighted mean of F1 with each of the two classes treated as positive."""
    return float(macro_f1_rows(y_true, _as_binary("y_pred", y_pred)[None])[0])


def macro_f1_rows(y_true, y_pred) -> np.ndarray:
    """``macro_f1(y_true, row)`` for every row of the 2-D ``y_pred`` at once."""
    yt = _as_binary("y_true", y_true)
    yp = np.asarray(y_pred).astype(np.int64)
    if yp.ndim != 2 or yp.shape[1] != len(yt):
        raise LengthMismatch(f"y_pred must have shape (m, {len(yt)}), got {yp.shape}")
    if len(yt) == 0:
        raise EmptyInput("cannot count an empty prediction vector")
    pos_t, pos_p = yt == 1, yp == 1
    tp = np.count_nonzero(pos_t & pos_p, axis=1)
    fp = np.count_nonzero(~pos_t & pos_p, axis=1)
    fn = np.count_nonzero(pos_t & ~pos_p, axis=1)
    # with class 0 as positive, tp is the true negatives and fp, fn swap
    tn = len(yt) - tp - fp - fn
    return 0.5 * (_f1(tp, fp, fn) + _f1(tn, fn, fp))


def group_rates(y_true, y_pred, groups) -> dict[str, tuple[float | None, float | None, int, int]]:
    """``{str(group): (tpr, fpr, n_pos, n_neg)}`` in sorted order; a rate is
    None when its class is absent from the group."""
    yt = _as_binary("y_true", y_true)
    yp = _as_binary("y_pred", y_pred)
    g = np.asarray(groups).ravel().astype(str)
    if not (len(yt) == len(yp) == len(g)):
        raise LengthMismatch(
            f"lengths differ: y_true={len(yt)}, y_pred={len(yp)}, groups={len(g)}"
        )
    keys, inverse = np.unique(g, return_inverse=True)
    pos, neg, hit = yt == 1, yt == 0, yp == 1
    n_pos, n_neg, tp, fp = (np.bincount(inverse[m], minlength=len(keys)).tolist()
                            for m in (pos, neg, pos & hit, neg & hit))
    return {key: (tp[i] / n_pos[i] if n_pos[i] else None,
                  fp[i] / n_neg[i] if n_neg[i] else None, n_pos[i], n_neg[i])
            for i, key in enumerate(keys.tolist())}


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
