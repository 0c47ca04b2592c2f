import json
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import minimize

import fairbench.models as models_mod
from fairbench.dataset import CLINICAL_COLUMNS, encode_features, synthesize_cohort
from fairbench.errors import (
    DidNotConverge,
    DimensionMismatch,
    NonFiniteInput,
    SingleClassTraining,
)
from fairbench.models import (
    SVM_KKT_TOL,
    ForestModel,
    ModelSpec,
    TreeNode,
    kernel_eval,
    load_model,
    logistic_loss_grad,
    model_from_dict,
    model_to_dict,
    save_model,
    train,
)
from fairbench.specfile import default_cohort_spec


def toy_problem(n=80, d=4, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    X = rng.random((n, d))
    y = (X[:, 0] + noise * rng.standard_normal(n) > 0.5).astype(int)
    if y.min() == y.max():  # ensure both classes
        y[0] = 1 - y[0]
    return X, y


# ---------------------------------------------------------------------------
# ModelSpec validation
# ---------------------------------------------------------------------------


def test_spec_rejects_cross_family_fields():
    with pytest.raises(ValueError):
        ModelSpec(family="logr", kernel="rbf")
    with pytest.raises(ValueError):
        ModelSpec(family="knn", k_neighbors=3, n_trees=10)
    with pytest.raises(ValueError):
        ModelSpec(family="tree", C=1.0)


def test_spec_requires_family_fields():
    with pytest.raises(ValueError):
        ModelSpec(family="svm")  # kernel missing
    with pytest.raises(ValueError):
        ModelSpec(family="knn")  # k missing
    with pytest.raises(ValueError):
        ModelSpec.svm("rbf", C=0.0)
    with pytest.raises(ValueError):
        ModelSpec.forest(n_trees=0)


def test_spec_names_and_labels():
    assert ModelSpec.svm("p3").name == "svm-p3"
    assert ModelSpec.svm("p3").label == "SVM-P3"
    assert ModelSpec.knn(8).name == "knn-8"
    assert ModelSpec.knn(8).label == "8-NN"
    assert ModelSpec.tree().label == "DT"
    assert ModelSpec.forest().label == "RF"


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def test_rbf_kernel_at_zero_distance():
    u = np.array([0.3, 0.7, 0.1])
    assert kernel_eval("rbf", u, u, gamma=2.0) == 1.0


def test_linear_kernel_orthonormal_vectors():
    assert kernel_eval("ln", [1, 0], [0, 1], gamma=1.0) == 0.0


def test_p2_kernel_hand_value():
    # (0.5 * 2 + 1)^2 = 4
    assert kernel_eval("p2", [1, 1], [1, 1], gamma=0.5, coef0=1.0) == pytest.approx(4.0)


def test_kernel_symmetry():
    rng = np.random.default_rng(4)
    for kernel in ("ln", "rbf", "p2", "p3", "p4"):
        for _ in range(10):
            u, v = rng.random(5), rng.random(5)
            assert kernel_eval(kernel, u, v, 0.7, 1.0) == pytest.approx(
                kernel_eval(kernel, v, u, 0.7, 1.0), rel=1e-12
            )


def test_kernel_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        kernel_eval("rbf", [1, 2], [1, 2, 3], gamma=1.0)


# ---------------------------------------------------------------------------
# training contract
# ---------------------------------------------------------------------------


def test_single_class_training_rejected_except_knn():
    X = np.random.default_rng(0).random((6, 3))
    y = np.ones(6, dtype=int)
    for spec in (ModelSpec.logr(), ModelSpec.svm("ln"), ModelSpec.tree(), ModelSpec.forest(n_trees=2)):
        with pytest.raises(SingleClassTraining):
            train(spec, X, y)
    knn = train(ModelSpec.knn(1), X, y)
    assert knn.predict(X).tolist() == [1] * 6


def test_non_finite_input_rejected():
    X, y = toy_problem()
    X[0, 0] = np.nan
    with pytest.raises(NonFiniteInput):
        train(ModelSpec.tree(), X, y)


@pytest.mark.parametrize("spec", [
    ModelSpec.logr(),
    ModelSpec.svm("rbf"),
    ModelSpec.knn(3),
    ModelSpec.tree(),
    ModelSpec.forest(n_trees=3),
], ids=lambda s: s.name)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_prediction_input_rejected(spec, bad):
    X, y = toy_problem()
    m = train(spec, X, y)
    Xq = X[:5].copy()
    Xq[2, 1] = bad
    with pytest.raises(NonFiniteInput):
        m.predict(Xq)


def test_predict_dimension_mismatch():
    X, y = toy_problem(d=3)
    m = train(ModelSpec.svm("ln"), X, y)
    with pytest.raises(DimensionMismatch):
        m.predict(np.zeros((2, 5)))


def test_training_is_deterministic():
    X, y = toy_problem(noise=0.3, seed=5)
    Xq = np.random.default_rng(9).random((30, 4))
    for spec in (ModelSpec.logr(), ModelSpec.svm("rbf"), ModelSpec.knn(4),
                 ModelSpec.tree(), ModelSpec.forest(n_trees=10, seed=3)):
        a = train(spec, X, y).predict(Xq)
        b = train(spec, X, y).predict(Xq)
        assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# logistic regression
# ---------------------------------------------------------------------------


def test_logr_separates_threshold_rule():
    rng = np.random.default_rng(1)
    X = rng.random((200, 3))
    y = (X[:, 1] > 0.5).astype(int)
    m = train(ModelSpec.logr(), X, y)
    assert (m.predict(X) == y).mean() >= 0.95


def test_logr_gradient_matches_finite_differences():
    for ds in range(3):
        rng = np.random.default_rng(50 + ds)
        X = rng.random((30, 4))
        y = rng.integers(0, 2, 30)
        lam = 1.0 / 30
        for _ in range(10):
            wb = rng.standard_normal(5)
            _, grad = logistic_loss_grad(wb, X, y, lam)
            numeric = np.zeros_like(wb)
            h = 1e-6
            for i in range(len(wb)):
                e = np.zeros_like(wb)
                e[i] = h
                lp, _ = logistic_loss_grad(wb + e, X, y, lam)
                lm, _ = logistic_loss_grad(wb - e, X, y, lam)
                numeric[i] = (lp - lm) / (2 * h)
            denom = max(1.0, float(np.abs(grad).max()))
            assert float(np.abs(numeric - grad).max()) / denom < 1e-5


def test_logr_warns_when_iteration_cap_hit(monkeypatch):
    monkeypatch.setattr(models_mod, "LOGR_MAX_ITER", 2)
    X, y = toy_problem(noise=0.5, seed=8)
    with pytest.warns(DidNotConverge):
        m = train(ModelSpec.logr(), X, y)
    assert not m.converged
    assert m.predict(X).shape == y.shape  # partial model still usable


def test_logr_reaches_the_regularised_optimum():
    # a 1200 x 13 aware-protocol fold like those of a 1500-patient cohort:
    # separable on platelet count, one-hot race columns collinear with the
    # bias; plain gradient descent needs more than 10,000 iterations here
    spec = default_cohort_spec()
    spec = replace(spec, itp=replace(spec.itp, size=800), non_itp=replace(spec.non_itp, size=400))
    fm = encode_features(synthesize_cohort(spec, 3), "aware")
    X = (fm.rows - fm.rows.min(axis=0)) / np.ptp(fm.rows, axis=0)
    y = fm.labels
    lam = 1.0 / len(y)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        m = train(ModelSpec.logr(), X, y)
    assert caught == []
    assert m.converged
    assert m.n_iter <= 20
    loss, _ = logistic_loss_grad(np.r_[m.weights, m.bias], X, y, lam)
    ref = minimize(logistic_loss_grad, np.zeros(X.shape[1] + 1), args=(X, y, lam),
                   jac=True, method="L-BFGS-B")
    assert loss <= ref.fun + 1e-10


# ---------------------------------------------------------------------------
# SVM
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module", params=["ln", "rbf", "p2", "p3", "p4"])
def toy_svm_fits(request):
    """One fit per noisy toy set, shared by the dual checks of one kernel."""
    fits = []
    for ds in range(5):
        X, y = toy_problem(n=60, seed=100 + ds, noise=0.3)
        fits.append((X, train(ModelSpec.svm(request.param), X, y)))
    return fits


def test_svm_dual_feasibility(toy_svm_fits):
    for _, m in toy_svm_fits:
        assert abs(float(m.alpha @ m.train_t)) <= 1e-6
        assert float(m.alpha.min()) >= 0.0
        assert float(m.alpha.max()) <= m.spec.c_value


def test_svm_exit_satisfies_kkt(toy_svm_fits):
    for X, m in toy_svm_fits:
        assert m.converged
        t, alpha, C = m.train_t, m.alpha, m.spec.c_value
        K = models_mod._kernel_matrix(m.spec.kernel, X, X, m.gamma, m.coef0)
        G = (t[:, None] * t[None, :] * K) @ alpha - 1.0  # recomputed, not the solver's
        tG = -t * G
        up = ((t > 0) & (alpha < C)) | ((t < 0) & (alpha > 0))
        low = ((t < 0) & (alpha < C)) | ((t > 0) & (alpha > 0))
        assert tG[up].max() - tG[low].min() <= SVM_KKT_TOL
        if m.spec.kernel == "p4":
            assert m.n_iter <= 30_000  # maximal-violating-pair selection needed up to 84,099


def test_svm_separates_clean_threshold():
    X, y = toy_problem(n=100, seed=2, noise=0.0)
    for kernel in ("ln", "rbf", "p2"):
        m = train(ModelSpec.svm(kernel), X, y)
        assert (m.predict(X) == y).mean() >= 0.97


def test_svm_explicit_gamma_respected():
    X, y = toy_problem(n=40, seed=3)
    m = train(ModelSpec.svm("rbf", gamma=0.25), X, y)
    assert m.gamma == 0.25


# ---------------------------------------------------------------------------
# k-NN
# ---------------------------------------------------------------------------


def test_knn_k1_memorizes_training_data():
    X, y = toy_problem(n=50, seed=6, noise=0.4)
    m = train(ModelSpec.knn(1), X, y)
    assert np.array_equal(m.predict(X), y)


def test_knn_even_k_tie_breaks_to_nearest():
    X = np.array([[0.0], [1.0], [10.0]])
    y = np.array([1, 0, 0])
    m = train(ModelSpec.knn(2), X, y)
    # query at 0.1: neighbours are x=0 (label 1, nearest) and x=1 (label 0)
    assert m.predict(np.array([[0.1]]))[0] == 1


def test_knn_majority_vote():
    X = np.array([[0.0], [0.2], [0.4], [10.0]])
    y = np.array([1, 1, 0, 0])
    m = train(ModelSpec.knn(3), X, y)
    assert m.predict(np.array([[0.1]]))[0] == 1


def knn_stable_argsort_reference(model, X):
    """Full stable sort of every distance row: the k nearest with equal
    distances resolved to the lowest training index."""
    k = min(model.spec.k_neighbors, len(model.train_y))
    d2 = (np.sum(X * X, axis=1)[:, None] - 2.0 * (X @ model.train_X.T)
          + np.sum(model.train_X * model.train_X, axis=1)[None, :])
    votes = model.train_y[np.argsort(d2, axis=1, kind="stable")[:, :k]]
    pos = votes.sum(axis=1)
    pred = np.where(2 * pos > k, 1, 0)
    ties = 2 * pos == k
    pred[ties] = votes[ties, 0]
    return pred


@pytest.mark.parametrize("k", [1, 2, 4, 8, 12, 40])
def test_knn_ties_match_stable_argsort(monkeypatch, k):
    # integer grid points with duplicates: many equal distances, including at
    # the k-th boundary, and different labels on duplicated points
    monkeypatch.setattr(models_mod, "KNN_BLOCK_ROWS", 3)
    rng = np.random.default_rng(11)
    base = rng.integers(0, 3, size=(10, 2)).astype(float)
    X = np.vstack([base, base, base[:6]])
    y = (np.arange(len(X)) % 3 == 0).astype(int)
    m = train(ModelSpec.knn(k), X, y)
    Xq = np.vstack([X, rng.integers(0, 3, size=(14, 2)).astype(float), [[1.0, 1.0]]])
    if k < len(y):  # some row shares its k-th distance with a point left out
        d2 = np.sort(((Xq[:, None, :] - X[None, :, :]) ** 2).sum(axis=2), axis=1)
        assert (d2[:, k - 1] == d2[:, k]).any()
    assert np.array_equal(m.predict(Xq), knn_stable_argsort_reference(m, Xq))


# ---------------------------------------------------------------------------
# decision tree
# ---------------------------------------------------------------------------


def brute_force_best_split(X, y):
    """Oracle: exhaustive weighted-Gini search over every column midpoint."""
    n = len(y)
    best = None
    for col in range(X.shape[1]):
        vals = sorted(set(X[:, col]))
        for lo, hi in zip(vals, vals[1:]):
            thr = (lo + hi) / 2
            left = [yy for xx, yy in zip(X[:, col], y) if xx <= thr]
            right = [yy for xx, yy in zip(X[:, col], y) if xx > thr]

            def gini(part):
                if not part:
                    return 0.0
                p = sum(part) / len(part)
                return 2 * p * (1 - p)

            w = (len(left) * gini(left) + len(right) * gini(right)) / n
            if best is None or w < best[0] - 1e-15:
                best = (w, col, thr)
    return best


def test_tree_root_splits_on_platelet_count():
    cohort = synthesize_cohort(default_cohort_spec(), 42)
    fm = encode_features(cohort, "unaware")
    m = train(ModelSpec.tree(), fm.rows, fm.labels)
    _, oracle_col, _ = brute_force_best_split(fm.rows, fm.labels)
    assert CLINICAL_COLUMNS[oracle_col] == "dx_plt_ct"
    assert m.root.feature == oracle_col


def test_tree_perfect_fit_without_conflicts():
    X, y = toy_problem(n=60, seed=12, noise=0.6)
    m = train(ModelSpec.tree(), X, y)
    assert np.array_equal(m.predict(X), y)


def test_tree_split_tie_prefers_lowest_column():
    # two identical informative columns: the split must use column 0
    col = np.array([0.0, 1.0, 2.0, 3.0])
    X = np.stack([col, col], axis=1)
    y = np.array([0, 0, 1, 1])
    m = train(ModelSpec.tree(), X, y)
    assert m.root.feature == 0
    assert m.root.threshold == pytest.approx(1.5)


def test_tree_max_depth_limits_growth():
    X, y = toy_problem(n=60, seed=13, noise=0.6)
    m = train(ModelSpec.tree(max_depth=1), X, y)
    assert m.root.left.is_leaf and m.root.right.is_leaf


def test_tree_conflicting_duplicates_become_majority_leaf():
    X = np.zeros((5, 2))
    y = np.array([1, 1, 0, 0, 0])
    m = train(ModelSpec.tree(), X, y)
    assert m.root.is_leaf
    assert m.root.value == 0


# ---------------------------------------------------------------------------
# random forest
# ---------------------------------------------------------------------------


def test_forest_single_plain_tree_equals_decision_tree():
    X, y = toy_problem(n=70, seed=14, noise=0.4)
    dt = train(ModelSpec.tree(), X, y)
    rf = train(ModelSpec.forest(n_trees=1, bootstrap=False, max_features=X.shape[1]), X, y)
    Xq = np.random.default_rng(15).random((40, 4))
    assert np.array_equal(dt.predict(Xq), rf.predict(Xq))


def test_forest_vote_tie_resolves_to_zero():
    trees = [TreeNode(value=1), TreeNode(value=0)]
    m = ForestModel(spec=ModelSpec.forest(n_trees=2), n_features=1, trees=trees)
    assert m.predict(np.zeros((3, 1))).tolist() == [0, 0, 0]


def test_forest_seed_changes_trees_deterministically():
    X, y = toy_problem(n=60, seed=16, noise=0.5)
    a = train(ModelSpec.forest(n_trees=5, seed=1), X, y)
    b = train(ModelSpec.forest(n_trees=5, seed=1), X, y)
    c = train(ModelSpec.forest(n_trees=5, seed=2), X, y)
    Xq = np.random.default_rng(17).random((50, 4))
    assert np.array_equal(a.predict(Xq), b.predict(Xq))
    assert model_to_dict(a) == model_to_dict(b)
    assert model_to_dict(a) != model_to_dict(c)


def test_forest_learns_separable_problem():
    X, y = toy_problem(n=100, seed=18, noise=0.0)
    m = train(ModelSpec.forest(n_trees=25), X, y)
    Xq = np.random.default_rng(19).random((200, 4))
    yq = (Xq[:, 0] > 0.5).astype(int)
    assert (m.predict(Xq) == yq).mean() >= 0.9


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("spec", [
    ModelSpec.logr(),
    ModelSpec.svm("rbf"),
    ModelSpec.svm("p3", C=2.0),
    ModelSpec.knn(2),
    ModelSpec.tree(),
    ModelSpec.forest(n_trees=4, seed=5),
])
def test_model_round_trips_through_json(tmp_path, spec):
    X, y = toy_problem(n=50, seed=20, noise=0.3)
    m = train(spec, X, y)
    path = save_model(m, tmp_path / f"{spec.name}.json")
    loaded = load_model(path)
    Xq = np.random.default_rng(21).random((30, 4))
    assert np.array_equal(m.predict(Xq), loaded.predict(Xq))
    assert loaded.spec == spec or loaded.spec == m.spec


def test_model_format_version_is_checked():
    X, y = toy_problem(n=20)
    doc = model_to_dict(train(ModelSpec.tree(), X, y))
    doc["format_version"] = 99
    with pytest.raises(ValueError, match="format_version"):
        model_from_dict(doc)


def test_model_dict_is_json_serializable():
    X, y = toy_problem(n=30)
    for spec in (ModelSpec.svm("ln"), ModelSpec.forest(n_trees=2)):
        doc = model_to_dict(train(spec, X, y))
        assert doc["format_version"] == 1
        json.dumps(doc)
