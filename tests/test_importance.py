import numpy as np
import pytest

import fairbench.importance as importance_mod
from fairbench.dataset import encode_features, synthesize_cohort
from fairbench.errors import DimensionMismatch, InvariantViolation
from fairbench.importance import permutation_importance
from fairbench.metrics import macro_f1
from fairbench.models import ModelSpec, train
from fairbench.report import mean_importance
from fairbench.specfile import default_cohort_spec


def separable_with_noise(n=80, seed=0):
    rng = np.random.default_rng(seed)
    signal = rng.random(n)
    noise = rng.random(n)
    X = np.stack([signal, noise], axis=1)
    y = (signal > 0.5).astype(int)
    return X, y


def test_noise_column_has_negligible_importance():
    X, y = separable_with_noise()
    for spec in (ModelSpec("tree"), ModelSpec("forest", n_trees=10)):
        m = train(spec, X, y)
        (res,) = permutation_importance([m], X, y, n_repeats=5, seed=1,
                                        column_names=("signal", "noise"))
        fi = res["features"]["noise"]
        assert abs(fi["mean_drop"]) <= 2 * fi["std_drop"] + 1e-12
        assert res["features"]["signal"]["mean_drop"] > fi["mean_drop"]


def test_identity_permutation_gives_zero_drops(monkeypatch):
    class _IdentityRng:
        def permutation(self, n):
            return np.arange(n)

    monkeypatch.setattr(importance_mod, "_rng_for", lambda *a: _IdentityRng())
    X, y = separable_with_noise(seed=3)
    m = train(ModelSpec("tree"), X, y)
    (res,) = permutation_importance([m], X, y, n_repeats=1, seed=0)
    assert all(fi["mean_drop"] == 0.0 for fi in res["features"].values())
    assert all(fi["std_drop"] == 0.0 for fi in res["features"].values())


def test_caller_matrix_is_never_mutated():
    X, y = separable_with_noise(seed=4)
    original = X.copy()
    m = train(ModelSpec("knn", k_neighbors=1), X, y)
    permutation_importance([m], X, y, n_repeats=3, seed=2)
    assert np.array_equal(X, original)


def test_importance_is_deterministic():
    X, y = separable_with_noise(seed=5)
    m = train(ModelSpec("forest", n_trees=8, seed=1), X, y)
    (a,) = permutation_importance([m], X, y, n_repeats=4, seed=9)
    (b,) = permutation_importance([m], X, y, n_repeats=4, seed=9)
    assert a == b
    (c,) = permutation_importance([m], X, y, n_repeats=4, seed=10)
    assert a != c


def test_column_ignored_by_tree_has_exactly_zero_drop():
    X, y = separable_with_noise(seed=6)
    m = train(ModelSpec("tree"), X, y)
    assert set(m.feature[m.feature >= 0].tolist()) == {0}  # splits read x0 only
    (res,) = permutation_importance([m], X, y, n_repeats=5, seed=3)
    assert res["features"]["x1"]["mean_drop"] == 0.0
    assert res["features"]["x1"]["std_drop"] == 0.0


def test_grouped_columns_are_shuffled_jointly(monkeypatch):
    # with a joint permutation, rows of the group stay intact: a model reading
    # only "is exactly one race flag set" cannot be disturbed
    rng = np.random.default_rng(7)
    onehot = np.eye(3)[rng.integers(0, 3, 60)]
    signal = rng.random((60, 1))
    X = np.hstack([signal, onehot])
    y = (signal[:, 0] > 0.5).astype(int)
    m = train(ModelSpec("tree"), X, y)
    (res,) = permutation_importance(
        [m], X, y, n_repeats=3, seed=4,
        column_names=("signal", "a", "b", "c"),
        grouped_columns={"abc (grouped)": (1, 2, 3)},
    )
    assert "abc (grouped)" in res["features"]
    # tree only uses the signal column, so the grouped shuffle changes nothing
    assert res["features"]["abc (grouped)"]["mean_drop"] == 0.0


def test_baseline_score():
    X, y = separable_with_noise(seed=8)
    m = train(ModelSpec("tree"), X, y)
    (res,) = permutation_importance([m], X, y, n_repeats=2, seed=5)
    assert res["baseline_score"] == 1.0


def test_platelet_count_dominates_default_cohort():
    cohort = synthesize_cohort(default_cohort_spec(), 42)
    rows, column_names = encode_features(cohort, "unaware")
    m = train(ModelSpec("tree"), rows, cohort.y)
    (res,) = permutation_importance([m], rows, cohort.y, n_repeats=5, seed=0,
                                    column_names=column_names)
    ranked = mean_importance({"importance": {"test": [res]}}, "test")
    assert ranked[0][0] == "dx_plt_ct"
    assert ranked[0][1] > ranked[1][1]


def test_importance_dimension_mismatch():
    X, y = separable_with_noise(seed=9)
    m = train(ModelSpec("tree"), X, y)
    with pytest.raises(DimensionMismatch):
        permutation_importance([m], X[:, :1], y, n_repeats=1, seed=0)
    with pytest.raises(DimensionMismatch):
        permutation_importance([m], X, y, n_repeats=1, seed=0, column_names=("only_one",))


def test_importance_rejects_labels_outside_0_and_1():
    X, y = separable_with_noise(seed=9)
    m = train(ModelSpec("tree"), X, y)
    for labels in (np.where(y == 1, 0.9, 0.0), np.where(y == 1, 2, 0)):
        with pytest.raises(InvariantViolation, match="y must be 0 or 1"):
            permutation_importance([m], X, labels, n_repeats=1, seed=0)


def one_copy_at_a_time(model, X, y, n_repeats, seed, grouped_columns=None):
    """Reference: shuffle one copy, predict it and score it, for every
    (target, repeat) in turn."""
    d = X.shape[1]
    baseline = macro_f1(y, model.predict(X))
    targets = [(f"x{j}", j, (j,)) for j in range(d)]
    for gi, (name, cols) in enumerate(sorted((grouped_columns or {}).items())):
        targets.append((name, d + gi, cols))
    features = {}
    for name, stream_key, cols in targets:
        drops = np.empty(n_repeats)
        for r in range(n_repeats):
            perm = importance_mod._rng_for(seed, stream_key, r).permutation(len(y))
            shuffled = X.copy()
            shuffled[:, cols] = shuffled[np.ix_(perm, cols)]
            drops[r] = baseline - macro_f1(y, model.predict(shuffled))
        features[name] = {"mean_drop": float(drops.mean()), "std_drop": float(drops.std()),
                          "repeats": n_repeats}
    return {"baseline_score": float(baseline), "features": features}


def noisy_with_onehot(n, seed):
    rng = np.random.default_rng(seed)
    numeric = rng.random((n, 3))
    onehot = np.eye(3)[rng.integers(0, 3, n)]
    y = (numeric[:, 0] + 0.3 * onehot[:, 1] + 0.4 * rng.standard_normal(n) > 0.6).astype(int)
    return np.hstack([numeric, onehot]), y


@pytest.mark.parametrize("chunk_rows", [50, 10, 1024])  # 2 copies, 1 copy, all copies
@pytest.mark.parametrize("grouped", [None, {"onehot (grouped)": (3, 4, 5)}])
@pytest.mark.parametrize("spec", [
    ModelSpec("logr"),
    ModelSpec("svm", kernel="rbf"),
    ModelSpec("knn", k_neighbors=4),
    ModelSpec("tree"),
    ModelSpec("forest", n_trees=7, seed=3),
], ids=lambda s: s.name.partition("[")[0])
def test_stacked_copies_equal_one_copy_at_a_time(monkeypatch, spec, grouped, chunk_rows):
    # 25 rows and 3 repeats: with 2 copies per chunk, chunks straddle targets
    monkeypatch.setattr(importance_mod, "CHUNK_ROWS", chunk_rows)
    X_train, y_train = noisy_with_onehot(60, seed=1)
    X, y = noisy_with_onehot(25, seed=2)
    m = train(spec, X_train, y_train)
    (got,) = permutation_importance([m], X, y, n_repeats=3, seed=7, grouped_columns=grouped)
    want = one_copy_at_a_time(m, X, y, n_repeats=3, seed=7, grouped_columns=grouped)
    assert got == want
    assert any(fi["std_drop"] > 0 for fi in got["features"].values())


FAMILIES = (ModelSpec("logr"), ModelSpec("svm", kernel="p2"), ModelSpec("knn", k_neighbors=1),
            ModelSpec("knn", k_neighbors=4),
            ModelSpec("tree"), ModelSpec("forest", n_trees=7, seed=3))


@pytest.mark.parametrize("chunk_rows", [50, 10])
@pytest.mark.parametrize("grouped", [None, {"onehot (grouped)": (3, 4, 5)}])
def test_models_scored_together_equal_each_scored_alone(monkeypatch, grouped, chunk_rows):
    # the two KNN models share one neighbour order; the rest predict alone
    monkeypatch.setattr(importance_mod, "CHUNK_ROWS", chunk_rows)
    X_train, y_train = noisy_with_onehot(60, seed=1)
    X, y = noisy_with_onehot(25, seed=2)
    fitted = [train(spec, X_train, y_train) for spec in FAMILIES]
    together = permutation_importance(fitted, X, y, n_repeats=3, seed=7,
                                      grouped_columns=grouped)
    alone = [permutation_importance([m], X, y, n_repeats=3, seed=7,
                                    grouped_columns=grouped)[0] for m in fitted]
    assert together == alone
    given = permutation_importance(fitted, X, y, n_repeats=3, seed=7, grouped_columns=grouped,
                                   predictions=[m.predict(X) for m in fitted])
    assert given == together


def test_a_split_draws_one_stream_per_target_and_repeat(monkeypatch):
    calls = []
    rng_for = importance_mod._rng_for

    def counting(*args):
        calls.append(args)
        return rng_for(*args)

    monkeypatch.setattr(importance_mod, "_rng_for", counting)
    X_train, y_train = noisy_with_onehot(60, seed=1)
    X, y = noisy_with_onehot(25, seed=2)
    fitted = [train(spec, X_train, y_train) for spec in FAMILIES]
    grouped = {"onehot (grouped)": (3, 4, 5)}
    for models in (fitted[:1], fitted):
        calls.clear()
        permutation_importance(models, X, y, n_repeats=3, seed=7, grouped_columns=grouped)
        assert len(calls) == len(set(calls)) == (6 + 1) * 3  # (6 columns + 1 group) x 3 repeats


def distinct_changed_rows(X, n_repeats, seed, grouped_columns=None):
    """Reference count, per target, of the rows a split must predict beyond
    its baseline: the distinct (row, new values) over every repeat whose new
    values differ from the row's own."""
    d = X.shape[1]
    targets = [(j, (j,)) for j in range(d)]
    groups = sorted((grouped_columns or {}).items())
    targets += [(d + gi, cols) for gi, (_, cols) in enumerate(groups)]
    counts = []
    for stream_key, cols in targets:
        seen = set()
        for r in range(n_repeats):
            perm = importance_mod._rng_for(seed, stream_key, r).permutation(len(X))
            for i, p in enumerate(perm):
                new = tuple(X[p, c] for c in cols)
                if new != tuple(X[i, c] for c in cols):
                    seen.add((i, new))
        counts.append(len(seen))
    return counts


def lexsort_changed_rows(X, cols, perms):
    """importance._changed_rows as first written: each changed entry keyed by
    its row index and its new values as floats, the keys lexsorted and their
    runs of equal keys found by comparing neighbours."""
    own = X[:, cols]
    new = own[perms]  # (repeat, row, column)
    changed = (new != own).any(axis=2)
    keys = np.column_stack([np.nonzero(changed)[1], new[changed]])
    order = np.lexsort(keys.T[::-1])  # by row index, then by the new values
    sorted_keys = keys[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = (sorted_keys[1:] != sorted_keys[:-1]).any(axis=1)
    inverse = np.empty(len(keys), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    distinct = sorted_keys[first]
    rows = X[distinct[:, 0].astype(np.intp)]
    rows[:, cols] = distinct[:, 1:]
    return changed, inverse, rows


@pytest.mark.parametrize("n_repeats", [1, 10])
def test_changed_rows_equal_the_lexsort_lookup(n_repeats):
    X, _ = noisy_with_onehot(40, seed=3)
    X[:, 0] = np.round(X[:, 0], 1)  # repeated values
    X[:, 1] = 0.5  # a constant column
    rng = np.random.default_rng(n_repeats)
    for cols in ((0,), (1,), (2,), (3, 4, 5), (0, 1), (2, 0)):
        perms = np.stack([np.arange(len(X))]  # an identity shuffle
                         + [rng.permutation(len(X)) for _ in range(n_repeats - 1)])
        got = importance_mod._changed_rows(X, cols, perms)
        for g, want in zip(got, lexsort_changed_rows(X, cols, perms), strict=True):
            assert g.dtype == want.dtype and g.shape == want.shape
            assert g.tobytes() == want.tobytes()


def spy_on_predict_many(monkeypatch):
    """Record the row count of every predict_many call importance makes."""
    rows = []
    predict_many = importance_mod.predict_many

    def spy(models, X):
        rows.append(len(X))
        return predict_many(models, X)

    monkeypatch.setattr(importance_mod, "predict_many", spy)
    return rows


@pytest.mark.parametrize("chunk_rows", [4096, 100, 30])
@pytest.mark.parametrize("grouped", [None, {"onehot (grouped)": (3, 4, 5)}])
def test_each_distinct_changed_row_is_predicted_once(monkeypatch, grouped, chunk_rows):
    monkeypatch.setattr(importance_mod, "CHUNK_ROWS", chunk_rows)
    rows = spy_on_predict_many(monkeypatch)
    X_train, y_train = noisy_with_onehot(60, seed=1)
    X, y = noisy_with_onehot(25, seed=2)
    fitted = [train(spec, X_train, y_train) for spec in FAMILIES]
    permutation_importance(fitted, X, y, n_repeats=10, seed=7, grouped_columns=grouped)
    assert rows[0] == len(y)  # the baseline
    # successive targets share a call up to chunk_rows rows; a target that
    # would take a call beyond them starts the next call
    calls, pending = [], 0
    for count in distinct_changed_rows(X, 10, 7, grouped):
        if pending and pending + count > chunk_rows:
            calls.append(pending)
            pending = 0
        pending += count
    assert rows[1:] == calls + [pending]
    # repeats of the one-hot columns recur, and some shuffled rows keep their values
    assert sum(rows[1:]) < 10 * len(y) * (6 + (grouped is not None))


@pytest.mark.parametrize("spec", [ModelSpec("svm", kernel="rbf"), ModelSpec("knn", k_neighbors=4),
                                  ModelSpec("forest", n_trees=7, seed=3)],
                         ids=lambda s: s.name.partition("[")[0])
def test_a_target_larger_than_a_chunk_is_predicted_in_one_call(monkeypatch, spec):
    # each model bounds its own working memory by blocks of rows
    monkeypatch.setattr(importance_mod, "CHUNK_ROWS", 7)
    rows = spy_on_predict_many(monkeypatch)
    X_train, y_train = noisy_with_onehot(60, seed=1)
    X, y = noisy_with_onehot(25, seed=2)
    m = train(spec, X_train, y_train)
    grouped = {"onehot (grouped)": (3, 4, 5)}
    (got,) = permutation_importance([m], X, y, n_repeats=3, seed=7, grouped_columns=grouped,
                                    predictions=[m.predict(X)])
    per_target = distinct_changed_rows(X, 3, 7, grouped)
    assert min(per_target) > 7 and rows == per_target
    assert got == one_copy_at_a_time(m, X, y, n_repeats=3, seed=7, grouped_columns=grouped)


def test_unchanged_copies_send_no_rows_to_the_models(monkeypatch):
    rows = spy_on_predict_many(monkeypatch)
    X_train, y_train = separable_with_noise(seed=3)
    m = train(ModelSpec("tree"), X_train, y_train)
    X = np.full((20, 2), 0.5)  # every column constant: no shuffle changes a row
    y = np.arange(20) % 2
    (res,) = permutation_importance([m], X, y, n_repeats=4, seed=0, predictions=[m.predict(X)])
    assert rows == []
    assert all(fi["mean_drop"] == fi["std_drop"] == 0.0 for fi in res["features"].values())


def test_the_identity_permutation_sends_only_the_baseline(monkeypatch):
    class _IdentityRng:
        def permutation(self, n):
            return np.arange(n)

    monkeypatch.setattr(importance_mod, "_rng_for", lambda *a: _IdentityRng())
    rows = spy_on_predict_many(monkeypatch)
    X, y = separable_with_noise(seed=3)
    m = train(ModelSpec("tree"), X, y)
    permutation_importance([m], X, y, n_repeats=3, seed=0)
    assert rows == [len(y)]
