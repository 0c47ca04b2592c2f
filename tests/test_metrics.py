import warnings

import numpy as np
import pytest

from fairbench.errors import EmptyInput, InvariantViolation, LengthMismatch, NoEvaluableGroups
from fairbench.metrics import (
    _as_binary,
    confusion_counts,
    equalized_odds,
    group_rates,
    macro_f1,
    macro_f1_from_counts,
    rates_from_counts,
)
from test_importance import macro_f1_rows

# ---------------------------------------------------------------------------
# Independent oracle: per-sample recount with pure-python loops. Kept separate
# from the library code paths on purpose.
# ---------------------------------------------------------------------------


def oracle_counts(y_true, y_pred, pos):
    tp = fp = tn = fn = 0
    for t, p in zip(y_true, y_pred):
        if t == pos and p == pos:
            tp += 1
        elif t != pos and p == pos:
            fp += 1
        elif t == pos and p != pos:
            fn += 1
        else:
            tn += 1
    return tp, fp, tn, fn


def oracle_f1(tp, fp, fn):
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2 * precision * recall / (precision + recall)


def oracle_macro_f1(y_true, y_pred):
    tp1, fp1, _, fn1 = oracle_counts(y_true, y_pred, 1)
    tp0, fp0, _, fn0 = oracle_counts(y_true, y_pred, 0)
    return 0.5 * (oracle_f1(tp1, fp1, fn1) + oracle_f1(tp0, fp0, fn0))


def oracle_group_rates(y_true, y_pred, groups):
    out = {}
    for g in sorted({str(g) for g in groups}):
        tp = fp = n_pos = n_neg = 0
        for t, p, gg in zip(y_true, y_pred, groups):
            if str(gg) != g:
                continue
            if t == 1:
                n_pos += 1
                tp += p == 1
            else:
                n_neg += 1
                fp += p == 1
        out[g] = (
            tp / n_pos if n_pos else None,
            fp / n_neg if n_neg else None,
            n_pos,
            n_neg,
        )
    return out


def evaluable(rates):
    """Whether some group has a defined TPR and some group a defined FPR."""
    return (any(tpr is not None for tpr, _, _, _ in rates.values())
            and any(fpr is not None for _, fpr, _, _ in rates.values()))


def oracle_eo(rates):
    def ratio(vals):
        vals = [v for v in vals if v is not None]
        hi = max(vals)
        return 1.0 if hi == 0 else min(vals) / hi

    tprs = [tpr for tpr, _, _, _ in rates.values() if tpr is not None]
    fprs = [fpr for _, fpr, _, _ in rates.values() if fpr is not None]
    return min(ratio(tprs), ratio(fprs))


# ---------------------------------------------------------------------------
# f1 / macro f1
# ---------------------------------------------------------------------------


def test_macro_f1_length_mismatch():
    with pytest.raises(LengthMismatch):
        macro_f1([1, 0], [1])
    with pytest.raises(LengthMismatch):
        macro_f1([1, 0], [[1, 0]])


@pytest.mark.parametrize("score", [
    lambda: macro_f1([0, 2], [0, 2]),
    lambda: macro_f1([1, 0], [0.9, 0.2]),  # 0.9 would be truncated to 0
    lambda: macro_f1([1, 0], [1, -1]),
    lambda: macro_f1([1, 0], ["1", "0"]),
    lambda: macro_f1([1, float("nan")], [1, 0]),
    lambda: confusion_counts([1, 2], [[1, 0]]),
    lambda: group_rates([1, 0, 2], [1, 1, 1], ["a", "a", "b"]),
    lambda: group_rates([1, 0, 1], [1, 0, 0.5], ["a", "a", "b"]),
], ids=["true-2", "pred-0.9", "pred--1", "pred-strings", "true-nan", "rows-true-2",
        "rates-true-2", "rates-pred-0.5"])
def test_a_label_outside_0_and_1_is_rejected(score):
    with pytest.raises(InvariantViolation, match="must be 0 or 1"):
        score()


def test_binary_labels_pass_as_they_are():
    y = np.array([1, 0, 1], dtype=np.int64)
    assert _as_binary("y", y) is y
    assert _as_binary("y", [1.0, 0.0, True]).tolist() == [1, 0, 1]
    assert _as_binary("y", np.array([True, False])).dtype == np.int64


def test_macro_f1_empty_input():
    with pytest.raises(EmptyInput):
        macro_f1([], [])


def test_macro_f1_one_of_each_cell():
    # tp = fp = tn = fn = 1: P = R = 1/2 for both classes
    assert macro_f1([1, 1, 0, 0], [1, 0, 1, 0]) == 0.5


def test_f1_perfect():
    # tp = 3, tn = 2: F1 = 1 for both classes
    assert macro_f1([1, 1, 1, 0, 0], [1, 1, 1, 0, 0]) == 1.0
    assert macro_f1_rows([1, 1, 1, 0, 0], [[1, 1, 1, 0, 0]]).tolist() == [1.0]


def test_f1_hand_value():
    # tp = 2, fp = 1, fn = 1, tn = 0: class 1 has P = R = 2/3 -> F1 = 2/3;
    # class 0 has no true positive -> F1 = 0
    assert macro_f1([1, 1, 1, 0], [1, 1, 0, 1]) == pytest.approx(1 / 3)


def test_f1_zero_tp_convention():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no 0/0 on the way
        assert macro_f1([1, 1, 1], [0, 0, 0]) == 0.0  # tp = 0 for both classes
        assert macro_f1([1, 1, 0], [0, 0, 1]) == 0.0  # every label flipped
        # class 1: tp = 0 scores 0; class 0: P = 1, R = 1/3 -> F1 = 1/2
        assert macro_f1([0, 0, 0], [1, 1, 0]) == pytest.approx(0.25)
        # class 1 never occurs nor is predicted: F1 = 0, class 0 is perfect
        assert macro_f1_rows([0, 0], [[0, 0]]).tolist() == [0.5]


def test_f1_monotone_in_tp():
    # fp = 2, fn = 3 and tn = 0 throughout; class 0 scores 0, so the macro
    # value is half of class 1's F1
    prev = -1.0
    for tp in range(0, 8):
        cur = macro_f1([1] * tp + [0, 0] + [1] * 3, [1] * tp + [1, 1] + [0] * 3)
        assert cur == 0.5 * oracle_f1(tp, 2, 3)
        assert cur >= prev
        prev = cur


def test_macro_f1_perfect():
    assert macro_f1([1, 0, 1, 0], [1, 0, 1, 0]) == 1.0


def test_macro_f1_hand_value():
    # all-positive predictions: F1_pos = 2/3, F1_neg = 0 -> macro = 1/3
    assert macro_f1([1, 1, 0, 0], [1, 1, 1, 1]) == pytest.approx(1 / 3)


def test_macro_f1_relabel_symmetry():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(2, 12))
        yt = rng.integers(0, 2, n)
        yp = rng.integers(0, 2, n)
        assert macro_f1(yt, yp) == pytest.approx(macro_f1(1 - yt, 1 - yp), abs=1e-15)


def test_macro_f1_rows_equals_macro_f1_row_by_row():
    yt = np.array([1, 1, 0, 0, 1, 0])
    rows = np.array([
        [0, 0, 0, 0, 0, 0],  # all 0: tp = 0 for class 1
        [1, 1, 1, 1, 1, 1],  # all 1: tp = 0 for class 0
        [0, 0, 1, 1, 0, 1],  # every label flipped: tp = 0 for both
        [1, 1, 0, 0, 1, 0],  # perfect
        [1, 0, 0, 1, 1, 0],
    ])
    rng = np.random.default_rng(3)
    rows = np.vstack([rows, rng.integers(0, 2, (40, 6))])
    for pred in (rows, rows.astype(np.int8)):  # importance passes int8 rows
        got = macro_f1_rows(yt, pred)
        assert got.tolist() == [oracle_macro_f1(yt, row) for row in rows]
        assert got.tolist() == [macro_f1(yt, row) for row in rows]
        # the counts of every row at once, as importance scores its baselines
        assert macro_f1_from_counts(confusion_counts(yt, pred)[1][:, 0]).tolist() == got.tolist()
    for label in (0, 1):  # single-class truth
        same = np.full(6, label)
        assert macro_f1_rows(same, rows).tolist() == [oracle_macro_f1(same, row) for row in rows]
    for n in (120, 1200):
        yt = rng.integers(0, 2, n)
        rows = rng.integers(0, 2, (12, n)).astype(np.int8)
        rows[0] = yt
        rows[1] = 1 - yt
        assert macro_f1_rows(yt, rows).tolist() == [oracle_macro_f1(yt, row) for row in rows]


def test_macro_f1_rows_shape_checks():
    # the reference and the counts take the same shapes
    for count in (macro_f1_rows, confusion_counts):
        with pytest.raises(LengthMismatch):
            count([1, 0, 1], [[1, 0]])
        with pytest.raises(LengthMismatch):
            count([1, 0], [1, 0])
    with pytest.raises(EmptyInput):
        macro_f1_rows([], np.zeros((2, 0)))
    with pytest.raises(LengthMismatch):
        confusion_counts([1, 0], [[1, 0]], ["a"])
    assert confusion_counts([], np.zeros((2, 0)))[1].tolist() == [[[0] * 4]] * 2


def test_confusion_counts_fill_cell_2_truth_plus_label_per_row_and_group():
    y_true = [0, 0, 1, 1, 1, 0]
    rows = [[0, 1, 0, 1, 1, 0],
            [1, 1, 1, 1, 0, 0]]
    keys, counts = confusion_counts(y_true, rows, [2, 1, 1, 2, 2, 1])
    assert keys == ["1", "2"] and counts.dtype == np.int64
    # (tn, fp, fn, tp) per group: "1" holds rows 1, 2, 5 and "2" rows 0, 3, 4
    assert counts.tolist() == [[[1, 1, 1, 0], [1, 0, 0, 2]],
                               [[1, 1, 0, 1], [0, 1, 1, 1]]]
    _, whole = confusion_counts(y_true, rows)
    assert whole.tolist() == counts.sum(axis=1, keepdims=True).tolist()
    assert rates_from_counts(keys, counts[1]) == group_rates(y_true, rows[1], [2, 1, 1, 2, 2, 1])


def test_metrics_invariant_under_sample_order():
    rng = np.random.default_rng(11)
    yt = rng.integers(0, 2, 20)
    yp = rng.integers(0, 2, 20)
    g = rng.choice(["a", "b", "c"], 20)
    perm = rng.permutation(20)
    assert macro_f1(yt, yp) == macro_f1(yt[perm], yp[perm])
    r1 = group_rates(yt, yp, g)
    r2 = group_rates(yt[perm], yp[perm], g[perm])
    assert r1 == r2


# ---------------------------------------------------------------------------
# group rates / equalized odds
# ---------------------------------------------------------------------------


def test_group_rates_perfect_predictions():
    yt = [1, 0, 1, 0]
    g = ["a", "a", "b", "b"]
    rates = group_rates(yt, yt, g)
    for tpr, fpr, _, _ in rates.values():
        assert tpr == 1.0 and fpr == 0.0


def test_group_rates_half_tpr():
    rates = group_rates([1, 1], [1, 0], ["A", "A"])
    tpr, fpr, n_pos, n_neg = rates["A"]
    assert tpr == 0.5 and fpr is None and (n_pos, n_neg) == (2, 0)


def test_group_rates_negative_only_group():
    rates = group_rates([0, 0, 1], [0, 1, 1], ["x", "x", "y"])
    tpr_x, fpr_x, _, _ = rates["x"]
    assert tpr_x is None and fpr_x == 0.5


def test_group_rates_keys_are_the_string_of_each_label():
    # labels are read as one array, so a list of ints and floats gives float keys
    yt, yp = [1, 0, 0, 1], [1, 0, 1, 0]
    for groups, keys in (([3, 10, 3, 10], ["10", "3"]),
                         ([1, 2.5, 1, 2.5], ["1.0", "2.5"]),
                         (np.array([0.1, 1e20, 0.1, 1e20]), ["0.1", "1e+20"])):
        rates = group_rates(yt, yp, groups)
        assert list(rates) == keys
        assert rates == oracle_group_rates(yt, yp, np.asarray(groups))
    assert [type(v) for v in group_rates(yt, yp, [3, 10, 3, 10])["3"]] == [float, float, int, int]


def test_group_rates_length_mismatch():
    with pytest.raises(LengthMismatch):
        group_rates([1, 0], [1, 0], ["a"])


def test_equalized_odds_perfect_classifier():
    # all-zero FPRs are a 0/0 ratio and count as balanced
    rates = group_rates([1, 0, 1, 0], [1, 0, 1, 0], ["a", "a", "b", "b"])
    assert equalized_odds(rates) == 1.0


def test_equalized_odds_hand_value():
    # tprs {0.8, 1.0} -> 0.8 ; fprs {0.1, 0.2} -> 0.5 ; min = 0.5
    rates = {
        "g1": (0.8, 0.1, 10, 10),
        "g2": (1.0, 0.2, 10, 10),
    }
    assert equalized_odds(rates) == pytest.approx(0.5)


def test_equalized_odds_single_group():
    rates = group_rates([1, 0, 1], [1, 1, 0], ["only", "only", "only"])
    assert equalized_odds(rates) == 1.0


def test_equalized_odds_needs_evaluable_groups():
    with pytest.raises(NoEvaluableGroups):
        equalized_odds({"a": (None, 0.5, 0, 2)})


def test_equalized_odds_group_independent_predictions():
    # predictions depend only on the true label -> per-group rates identical
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = 40
        yt = rng.integers(0, 2, n)
        g = rng.choice(["u", "v"], n)
        yp = yt.copy()  # deterministic function of the label
        assert equalized_odds(group_rates(yt, yp, g)) == 1.0


def test_metrics_match_exhaustive_recount_oracle():
    rng = np.random.default_rng(123)
    for _ in range(300):
        n = int(rng.integers(1, 13))
        yt = rng.integers(0, 2, n)
        yp = rng.integers(0, 2, n)
        g = rng.choice(["a", "b", "c"], n)

        assert macro_f1(yt, yp) == oracle_macro_f1(yt, yp)
        rates = group_rates(yt, yp, g)
        expected = oracle_group_rates(yt, yp, g)
        assert rates == expected
        if evaluable(rates):
            assert equalized_odds(rates) == oracle_eo(expected)
