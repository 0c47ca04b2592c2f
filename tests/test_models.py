import warnings
from dataclasses import replace
from pathlib import Path

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
    logistic_loss_grad,
    predict_many,
    train,
)
from fairbench.rng import derive_rng, derive_seed
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


def test_spec_resolves_fields_to_their_effective_values():
    assert ModelSpec(family="svm", kernel="rbf", C=50) == ModelSpec.svm("rbf", C=50.0)
    assert ModelSpec(family="logr") == ModelSpec.logr(C=1.0)
    assert ModelSpec(family="forest") == ModelSpec.forest(n_trees=100, bootstrap=True)
    assert (ModelSpec.forest().n_trees, ModelSpec.forest().bootstrap) == (100, True)
    spec = ModelSpec(family="forest", n_trees=5.0, max_depth=3.0, max_features=2.0)
    assert [type(v) for v in (spec.n_trees, spec.max_depth, spec.max_features)] == [int] * 3
    assert (spec.bootstrap, spec.max_features) == (True, 2)
    svm = ModelSpec(family="svm", kernel="p2", C=2)
    assert (type(svm.C), svm.coef0, svm.gamma) == (float, 1.0, None)  # gamma depends on the data
    assert ModelSpec.svm("rbf").coef0 is None  # the kernel never reads it
    assert ModelSpec.forest().max_features is None
    assert ModelSpec.tree().max_depth is None


@pytest.mark.parametrize("fields", [
    {"family": "knn", "k_neighbors": 2.5},
    {"family": "knn", "k_neighbors": "3"},
    {"family": "knn", "k_neighbors": True},
    {"family": "forest", "n_trees": float("inf")},
    {"family": "forest", "max_features": 0},
    {"family": "forest", "bootstrap": "no"},
    {"family": "tree", "max_depth": 1.5},
    {"family": "logr", "C": float("nan")},
    {"family": "svm", "kernel": "rbf", "gamma": 0},
    {"family": "svm", "kernel": "rbf", "coef0": 2.0},
    {"family": "svm", "kernel": "ln", "coef0": 1.0},
    {"family": "logr", "C": float("inf")},
    {"family": "svm", "kernel": "rbf", "C": float("inf")},
    {"family": "svm", "kernel": "rbf", "gamma": float("inf")},
    {"family": "svm", "kernel": "p2", "coef0": float("inf")},
    {"family": "svm", "kernel": "p3", "coef0": float("-inf")},
    {"family": "svm", "kernel": "p4", "coef0": float("nan")},
    {"family": "logr", "C": True},
    {"family": "svm", "kernel": "p2", "coef0": "1"},
], ids=repr)
def test_spec_rejects_malformed_values(fields):
    with pytest.raises(ValueError):
        ModelSpec(**fields)


def test_spec_names_and_labels():
    assert ModelSpec.svm("p3").name == "svm-p3"
    assert ModelSpec.svm("p3").label == "SVM-P3"
    assert ModelSpec.knn(8).name == "knn-8"
    assert ModelSpec.knn(8).label == "8-NN"
    assert ModelSpec.tree().label == "DT"
    assert ModelSpec.forest().label == "RF"


def test_spec_names_and_labels_suffix_each_field_away_from_its_default():
    spec = ModelSpec(family="forest", n_trees=50)
    assert (spec.name, spec.label) == ("rf[n_trees=50]", "RF[n_trees=50]")
    assert ModelSpec.svm("rbf", C=10).name == "svm-rbf[C=10.0]"
    assert ModelSpec.tree(max_depth=3).name == "dt[max_depth=3]"
    # gamma and max_features have no fixed default: they show whenever set
    assert ModelSpec.svm("p2", gamma=0.5, coef0=0).label == "SVM-P2[gamma=0.5,coef0=0.0]"
    assert (ModelSpec.forest(n_trees=100, bootstrap=False, max_features=2).name
            == "rf[bootstrap=False,max_features=2]")
    # a field spelled at its default leaves the shorthand name
    assert ModelSpec.svm("rbf", C=1).name == "svm-rbf"
    assert ModelSpec.forest(n_trees=100.0, bootstrap=True).name == "rf"


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def kernel_matrix(kernel, A, B, gamma, coef0):
    """The kernel matrix of A and B as the library builds its rows and blocks:
    the one matrix A @ B.T, turned into kernel values in place."""
    if kernel == "rbf":
        return models_mod._kernel_values(kernel, A @ B.T, gamma, coef0,
                                         np.sum(A * A, axis=1)[:, None], np.sum(B * B, axis=1))
    return models_mod._kernel_values(kernel, A @ B.T, gamma, coef0)


def kernel_value(kernel, u, v, gamma, coef0=1.0):
    """The kernel of two vectors, as the one entry of a one-row kernel matrix."""
    u, v = np.atleast_2d(np.asarray(u, dtype=float)), np.atleast_2d(np.asarray(v, dtype=float))
    return float(kernel_matrix(kernel, u, v, gamma, coef0)[0, 0])


def test_rbf_kernel_at_zero_distance():
    u = np.array([0.3, 0.7, 0.1])
    assert kernel_value("rbf", u, u, gamma=2.0) == 1.0


def test_linear_kernel_orthonormal_vectors():
    assert kernel_value("ln", [1, 0], [0, 1], gamma=1.0) == 0.0


def test_p2_kernel_hand_value():
    # (0.5 * 2 + 1)^2 = 4
    assert kernel_value("p2", [1, 1], [1, 1], gamma=0.5, coef0=1.0) == pytest.approx(4.0)


def test_kernel_symmetry():
    rng = np.random.default_rng(4)
    for kernel in ("ln", "rbf", "p2", "p3", "p4"):
        for _ in range(10):
            u, v = rng.random(5), rng.random(5)
            assert kernel_value(kernel, u, v, 0.7, 1.0) == pytest.approx(
                kernel_value(kernel, v, u, 0.7, 1.0), rel=1e-12
            )


def kernel_formula(kernel, A, B, gamma, coef0):
    """The kernel matrix written out of place, one expression per kernel."""
    if kernel == "ln":
        return A @ B.T
    if kernel == "rbf":
        sq = np.sum(A * A, axis=1)[:, None] - 2.0 * (A @ B.T) + np.sum(B * B, axis=1)[None, :]
        return np.exp(-gamma * np.maximum(sq, 0.0))
    return (gamma * (A @ B.T) + coef0) ** int(kernel[1])


@pytest.mark.parametrize("kernel", ["ln", "rbf", "p2", "p3", "p4"])
def test_kernel_matrix_is_bit_equal_to_the_formula(kernel):
    rng = np.random.default_rng(9)
    A, B = rng.random((40, 13)), rng.random((25, 13))
    A[:5] = B[:5]  # zero distances, where rounding can make the squared distance negative
    for X, Y in ((A, A), (A, B), (B, A)):
        got = kernel_matrix(kernel, X, Y, 0.37, 1.3)
        assert got.tobytes() == kernel_formula(kernel, X, Y, 0.37, 1.3).tobytes()


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
], ids=lambda s: s.name.partition("[")[0])
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


def aware_fold(n=1200):
    """An n x 13 aware-protocol fold, two thirds ITP, like those of a
    1500-patient cohort at n=1200 and of the default cohort at n=120:
    separable on platelet count, one-hot race columns collinear with the bias."""
    spec = default_cohort_spec()
    spec = replace(spec, itp=replace(spec.itp, size=2 * n // 3),
                   non_itp=replace(spec.non_itp, size=n - 2 * n // 3))
    cohort = synthesize_cohort(spec, 3)
    rows, _ = encode_features(cohort, "aware")
    return (rows - rows.min(axis=0)) / np.ptp(rows, axis=0), cohort.y


def test_logr_reaches_the_regularised_optimum():
    # plain gradient descent needs more than 10,000 iterations here
    X, y = aware_fold()
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
        assert float(m.alpha.max()) <= m.spec.C


def test_svm_exit_satisfies_kkt(toy_svm_fits):
    for X, m in toy_svm_fits:
        assert m.converged
        t, alpha, C = m.train_t, m.alpha, m.spec.C
        K = kernel_matrix(m.spec.kernel, X, X, m.gamma, m.spec.coef0)
        G = (t[:, None] * t[None, :] * K) @ alpha - 1.0  # recomputed, not the solver's
        tG = -t * G
        up = ((t > 0) & (alpha < C)) | ((t < 0) & (alpha > 0))
        low = ((t < 0) & (alpha < C)) | ((t > 0) & (alpha > 0))
        assert tG[up].max() - tG[low].min() <= SVM_KKT_TOL
        if m.spec.kernel == "p4":
            assert m.n_iter <= 30_000  # maximal-violating-pair selection needed up to 84,099


@pytest.mark.parametrize("kernel", models_mod.KERNELS)
def test_a_decision_block_has_the_kernel_matrix_bits(monkeypatch, kernel):
    # rbf's blocks multiply by (-2 S).T instead of scaling each block by -2
    rng = np.random.default_rng(5)
    shapes = ((3, 1, 4), (3, 2, 4), (37, 1, 13), (3, 17, 22), (120, 109, 13), (301, 109, 13),
              (301, 1200, 22))
    for n_sv, rows, d in shapes:
        S, A = rng.random((n_sv, d)), rng.random((rows, d))
        A[:min(2, rows)] = S[:min(2, rows)]  # zero distances
        coef = rng.standard_normal(n_sv)
        spec = ModelSpec.svm(kernel)
        m = models_mod.SvmModel(spec=spec, n_features=d, support_X=S, support_coef=coef,
                                bias=0.25, gamma=0.37)
        monkeypatch.setattr(models_mod, "BLOCK_ELEMENTS", rows * n_sv)  # one block
        want = kernel_matrix(kernel, A, S, 0.37, spec.coef0) @ coef + 0.25
        assert m.decision_function(A).tobytes() == want.tobytes()


def test_svm_labels_do_not_depend_on_the_kernel_block(monkeypatch, toy_svm_fits):
    Xq = np.random.default_rng(9).random((50, 4))
    want = [m.predict(Xq) for _, m in toy_svm_fits]
    for (_, m), labels in zip(toy_svm_fits, want):
        # three query rows per block
        monkeypatch.setattr(models_mod, "BLOCK_ELEMENTS", 3 * len(m.support_X))
        assert np.array_equal(m.predict(Xq), labels)


def solver_kernel(kernel, X, gamma, coef0):
    """The kernel matrix and its diagonal with the bits the solver reads: each
    row from the library's row helper, the diagonal from its diagonal helper,
    both turned into kernel values by the library's transform."""
    sq = np.sum(X * X, axis=1) if kernel == "rbf" else None
    K = np.stack([models_mod._gram_row(X, i) for i in range(len(X))])
    K = models_mod._kernel_values(kernel, K, gamma, coef0,
                                  None if sq is None else sq[:, None], sq)
    return K, models_mod._kernel_values(kernel, models_mod._gram_diagonal(X), gamma, coef0,
                                        sq, sq)


def gram_matrix_kernel(kernel, X, gamma, coef0):
    """The kernel matrix and its diagonal as the solver had them before it
    computed rows on demand: the one product X @ X.T, and its diagonal."""
    K = kernel_matrix(kernel, X, X, gamma, coef0)
    return K, np.diag(K).copy()


def svm_reference(spec, X, y):
    """(alpha, bias, n_iter) of the dual solver as first written: the
    gradient G kept as is, and tG and the up and low sets rebuilt from it
    and alpha on every iteration."""
    n, C = len(y), spec.C
    gamma = spec.gamma if spec.gamma is not None else models_mod._default_gamma(X)
    t = np.where(y == 1, 1.0, -1.0)
    K, K_diag = solver_kernel(spec.kernel, X, gamma, spec.coef0)
    alpha = np.zeros(n)
    G = -np.ones(n)
    m_val = M_val = 0.0
    it = 0
    for it in range(1, models_mod.SVM_MAX_ITER + 1):
        tG = -t * G
        up = ((t > 0) & (alpha < C)) | ((t < 0) & (alpha > 0))
        low = ((t < 0) & (alpha < C)) | ((t > 0) & (alpha > 0))
        if not up.any() or not low.any():
            break
        i = int(np.argmax(np.where(up, tG, -np.inf)))
        m_val = float(tG[i])
        M_val = float(np.min(tG[low]))
        if m_val - M_val <= SVM_KKT_TOL:
            break
        K_i = K[i]
        b = m_val - tG
        a = np.maximum(K_diag[i] + K_diag - 2.0 * K_i, 1e-12)
        j = int(np.argmin(np.where(low & (b > 0), -(b * b) / a, np.inf)))
        cap_i = (C - alpha[i]) if t[i] > 0 else alpha[i]
        cap_j = (C - alpha[j]) if t[j] < 0 else alpha[j]
        delta = min(b[j] / a[j], cap_i, cap_j)
        alpha[i] += t[i] * delta
        alpha[j] -= t[j] * delta
        for idx in (i, j):
            if alpha[idx] < 1e-12:
                alpha[idx] = 0.0
            elif alpha[idx] > C - 1e-12:
                alpha[idx] = C
        G += t * delta * (K_i - K[j])
    return alpha, (m_val + M_val) / 2.0, it


def same_svm(model, ref):
    alpha, bias, n_iter = ref
    return (model.alpha.tobytes() == alpha.tobytes() and model.bias == bias
            and model.n_iter == n_iter)


def test_svm_solver_equals_the_reference_loop(toy_svm_fits):
    for X, m in toy_svm_fits:
        assert same_svm(m, svm_reference(m.spec, X, (m.train_t > 0).astype(int)))


def test_svm_solver_equals_the_reference_loop_on_an_aware_fold():
    X, y = aware_fold()
    spec = ModelSpec.svm("p4")
    m = train(spec, X, y)
    assert m.n_iter > 500  # many iterations, some alphas at the bound C
    assert (m.alpha == spec.C).any()
    assert same_svm(m, svm_reference(spec, X, y))


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


def tied_grid():
    """Integer grid points with duplicates: many equal distances, including at
    every k-th boundary, and different labels on duplicated points."""
    rng = np.random.default_rng(11)
    base = rng.integers(0, 3, size=(10, 2)).astype(float)
    X = np.vstack([base, base, base[:6]])
    y = (np.arange(len(X)) % 3 == 0).astype(int)
    Xq = np.vstack([X, rng.integers(0, 3, size=(14, 2)).astype(float), [[1.0, 1.0]]])
    return X, y, Xq


KNN_KS = (1, 2, 4, 8, 12, 40)


@pytest.mark.parametrize("k", KNN_KS)
def test_knn_ties_match_stable_argsort(monkeypatch, k):
    X, y, Xq = tied_grid()
    monkeypatch.setattr(models_mod, "BLOCK_ELEMENTS", 3 * len(X))  # three query rows per block
    m = train(ModelSpec.knn(k), X, y)
    if k < len(y):  # some row shares its k-th distance with a point left out
        d2 = np.sort(((Xq[:, None, :] - X[None, :, :]) ** 2).sum(axis=2), axis=1)
        assert (d2[:, k - 1] == d2[:, k]).any()
    assert np.array_equal(m.predict(Xq), knn_stable_argsort_reference(m, Xq))


@pytest.mark.parametrize("k", KNN_KS)
def test_knn_overflowing_distances_match_stable_argsort(monkeypatch, k):
    # finite inputs near 1e200 square to inf, so some distances are inf and
    # some nan (inf - inf); rows of both kinds reach them among their k nearest.
    # Near 1.7e308 the doubled training values overflow too, and near 1e-160
    # the products are subnormal, where doubling need not commute with rounding
    rng = np.random.default_rng(21)
    X = rng.random((40, 2))
    monkeypatch.setattr(models_mod, "BLOCK_ELEMENTS", 4 * len(X))  # four query rows per block
    X[::4] *= 1e200
    X[1::8] *= 1.7e308
    X[2::4] *= 1e-160
    y = rng.integers(0, 2, len(X))
    Xq = np.vstack([rng.random((8, 2)), rng.random((4, 2)) * 1e200,
                    rng.random((4, 2)) * 1.7e308, rng.random((4, 2)) * 1e-160, X[:6]])
    m = train(ModelSpec.knn(k), X, y)
    with np.errstate(over="ignore", invalid="ignore"):
        d2 = (np.sum(Xq * Xq, axis=1)[:, None] - 2.0 * (Xq @ X.T)
              + np.sum(X * X, axis=1)[None, :])
        assert np.isinf(d2).any() and np.isnan(d2).any()
        assert np.array_equal(m.predict(Xq), knn_stable_argsort_reference(m, Xq))


def test_knn_models_predicted_together_match_stable_argsort(monkeypatch):
    # every k shares one neighbour order; a KNN model fit to other rows and a
    # tree are predicted on their own
    X, y, Xq = tied_grid()
    monkeypatch.setattr(models_mod, "BLOCK_ELEMENTS", 3 * len(X))  # three query rows per block
    fitted = [train(ModelSpec.knn(k), X, y) for k in KNN_KS]
    fitted += [train(ModelSpec.knn(3), X[::-1], y), train(ModelSpec.tree(), X, y)]
    got = predict_many(fitted, Xq)
    for m, pred in zip(fitted[:-1], got):
        assert np.array_equal(pred, knn_stable_argsort_reference(m, Xq))
    assert np.array_equal(got[-1], fitted[-1].predict(Xq))


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
    rows, _ = encode_features(cohort, "unaware")
    m = train(ModelSpec.tree(), rows, cohort.y)
    _, oracle_col, _ = brute_force_best_split(rows, cohort.y)
    assert CLINICAL_COLUMNS[oracle_col] == "dx_plt_ct"
    assert m.feature[m.roots[0]] == oracle_col


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
    assert m.feature[0] == 0
    assert m.threshold[0] == pytest.approx(1.5)


def test_tree_max_depth_limits_growth():
    X, y = toy_problem(n=60, seed=13, noise=0.6)
    m = train(ModelSpec.tree(max_depth=1), X, y)
    assert m.feature[0] >= 0
    assert m.feature[m.left[0]] == m.feature[m.right[0]] == -1
    assert len(m.feature) == 3


def test_tree_conflicting_duplicates_become_majority_leaf():
    X = np.zeros((5, 2))
    y = np.array([1, 1, 0, 0, 0])
    m = train(ModelSpec.tree(), X, y)
    assert m.feature.tolist() == [-1]
    assert m.value.tolist() == [0]


def per_column_best_split(X, y, cols):
    """Reference: one stable argsort/cumsum per candidate column, keeping a
    column only when its best cut is strictly better than the best so far."""
    n = len(y)
    best = None
    for c in cols:
        v = X[:, c]
        order = np.argsort(v, kind="stable")
        sv = v[order]
        sy = y[order]
        cut = np.flatnonzero(sv[1:] > sv[:-1])
        if cut.size == 0:
            continue
        cpos = np.cumsum(sy)
        nl = cut + 1.0
        nr = n - nl
        pl = cpos[cut] / nl
        pr = (cpos[-1] - cpos[cut]) / nr
        weighted = (nl * 2.0 * pl * (1.0 - pl) + nr * 2.0 * pr * (1.0 - pr)) / n
        k = int(np.argmin(weighted))
        if best is None or weighted[k] < best[0]:
            lo, hi = sv[cut[k]], sv[cut[k] + 1]
            thr = 0.5 * (lo + hi)
            best = (float(weighted[k]), int(c), float(thr if thr < hi else lo))
    if best is None:
        return None
    return best[1], best[2]


# SPLIT_BATCH bounds: every node scored in a pass of its own, or every node of
# a _best_splits call in one pass
BATCH_BOUNDS = (1, 1 << 30)


def batched_splits(X, y, nodes):
    """(feature, threshold) or None per node (rows, cols) of X, from one
    _best_splits call; checks each split's children and the positives among
    the left rows against the float mask X[rows, feature] <= threshold."""
    R, vals = models_mod._rank_code(X)
    out = []
    for (rows, _), split in zip(nodes, models_mod._best_splits(R, y, vals, nodes), strict=True):
        if split is None:
            out.append(None)
            continue
        f, thr, left, right, left_pos = split
        mask = X[rows, f] <= thr
        assert np.array_equal(np.sort(left), np.sort(rows[mask]))
        assert np.array_equal(np.sort(right), np.sort(rows[~mask]))
        assert left_pos == int(y[left].sum())
        out.append((f, thr))
    return out


def assert_splits_at_every_bound(monkeypatch, X, y, nodes, want):
    for bound in BATCH_BOUNDS:
        monkeypatch.setattr(models_mod, "SPLIT_BATCH", bound)
        got = batched_splits(X, y, nodes)
        assert got == want
        assert all(g is None or type(g[1]) is float for g in got)


def every_row_and_bags(y, cols, rng, n_bags=2):
    """Nodes over cols: every row in order, reversed, and bootstrap bags."""
    n = len(y)
    rows = [np.arange(n), np.arange(n)[::-1]] + [rng.integers(0, n, n) for _ in range(n_bags)]
    return [(r, cols) for r in rows]


def float_tree_reference(X, y, max_depth=None):
    """The nodes of a decision tree grown on float X with per_column_best_split,
    in the [feature, threshold, left, right, value] preorder of ForestModel."""
    nodes = []

    def grow(rows, depth):
        node, pos = len(nodes), int(y[rows].sum())
        nodes.append([-1, 0.0, -1, -1, int(2 * pos > len(rows))])
        if pos in (0, len(rows)) or (max_depth is not None and depth >= max_depth):
            return node
        split = per_column_best_split(X[rows], y[rows], range(X.shape[1]))
        if split is None:
            return node
        f, thr = split
        mask = X[rows, f] <= thr
        left = grow(rows[mask], depth + 1)
        right = grow(rows[~mask], depth + 1)
        nodes[node][:4] = f, thr, left, right
        return node

    grow(np.arange(len(y)), 0)
    return [list(col) for col in zip(*nodes)]


def tree_nodes(m):
    return [m.feature.tolist(), m.threshold.tolist(), m.left.tolist(), m.right.tolist(),
            m.value.tolist()]


@pytest.mark.parametrize("seed", range(30))
def test_batched_gini_split_equals_the_per_column_loop(monkeypatch, seed):
    # small integer values: equal values inside a column, equal Gini at
    # several thresholds, and a mirrored column that ties with column 0 at
    # the mirrored threshold
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(2, 30)), int(rng.integers(3, 8))
    X = rng.integers(0, 4, size=(n, d)).astype(float)
    X[:, 1] = 3.0 - X[:, 0]
    X[:, int(rng.integers(2, d))] = 2.0  # a constant column
    y = rng.integers(0, 2, n)
    subset = np.sort(rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False))
    nodes = [node for cols in (np.arange(d), subset, np.array([0, 1]))
             for node in every_row_and_bags(y, cols, rng)]
    want = [per_column_best_split(X[rows], y[rows], cols) for rows, cols in nodes]
    assert_splits_at_every_bound(monkeypatch, X, y, nodes, want)


def test_batched_gini_split_is_none_without_a_cut(monkeypatch):
    X = np.hstack([np.full((6, 1), 3.0), np.zeros((6, 2))])
    y = np.array([0, 1, 0, 1, 1, 0])
    every = np.arange(6)
    assert per_column_best_split(X, y, np.arange(3)) is None
    assert_splits_at_every_bound(monkeypatch, X, y, [(every, np.arange(3))], [None])
    X[:, 1] = np.arange(6)
    # cuts exist outside cols; a node with a cut between two without one
    nodes = [(every, np.array([0, 2])), (every, np.arange(3)), (every[::2], np.array([0, 2]))]
    want = [None, per_column_best_split(X, y, np.arange(3)), None]
    assert_splits_at_every_bound(monkeypatch, X, y, nodes, want)


def gini_split_reference(R, y, cols, vals):
    """_gini_best_split on one row per sample (R of _rank_code transposed),
    kept verbatim from before the split took one contiguous row per column."""
    n = len(y)
    Rc = R[:, cols]
    order = np.argsort(Rc, axis=0, kind="stable")  # ranks: the same order as the values
    sr = Rc[order, np.arange(len(cols))]
    cpos = np.cumsum(y[order], axis=0)  # row r: positives among the r + 1 smallest
    nl = np.arange(1.0, n)[:, None]  # left size of the cut after sorted row r
    nr = n - nl
    pl = cpos[:-1] / nl
    pr = (cpos[-1] - cpos[:-1]) / nr
    weighted = (nl * 2.0 * pl * (1.0 - pl) + nr * 2.0 * pr * (1.0 - pr)) / n
    weighted[sr[1:] <= sr[:-1]] = np.inf  # no cut between equal values
    flat = int(np.argmin(weighted.T))  # column-major: lowest column, then threshold
    c, r = divmod(flat, n - 1)
    if weighted[r, c] == np.inf:
        return None
    f = int(cols[c])
    lo, hi = vals[f][sr[r, c]], vals[f][sr[r + 1, c]]
    mid = 0.5 * (lo + hi)
    return f, float(mid if mid < hi else lo)  # a midpoint rounded onto hi would send hi left


GINI_CASES = ("two rows", "binary", "constant", "all tied", "mixed")


@pytest.mark.parametrize("case", GINI_CASES)
def test_gini_split_equals_the_row_layout_reference(monkeypatch, case):
    rng = np.random.default_rng(GINI_CASES.index(case))
    for _ in range(40):
        n = 2 if case == "two rows" else int(rng.integers(2, 60))
        d = int(rng.integers(1, 7))
        if case == "binary":
            X = rng.integers(0, 2, size=(n, d)).astype(float)
        elif case == "constant":  # every column constant, or all but one
            X = np.tile(rng.random(d), (n, 1))
            if rng.random() < 0.5:
                X[:, int(rng.integers(d))] = rng.integers(0, 3, n)
        elif case == "all tied":  # equal columns: every candidate column ties
            X = np.tile(rng.integers(0, 4, size=(n, 1)).astype(float), (1, d))
        else:
            X = np.round(rng.random((n, d)), int(rng.integers(0, 3)))
        y = rng.integers(0, 2, n)
        R, vals = models_mod._rank_code(X)
        subset = np.sort(rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False))
        nodes = [node for cols in (np.arange(d), subset)
                 for node in every_row_and_bags(y, cols, rng)]
        want = [gini_split_reference(R.T[rows], y[rows], cols, vals) for rows, cols in nodes]
        assert_splits_at_every_bound(monkeypatch, X, y, nodes, want)


def assert_float_splits(monkeypatch, X, y, seed):
    """The batched split of every row, reversed and bagged, over every column,
    equals per_column_best_split on the float rows of each node."""
    nodes = every_row_and_bags(y, np.arange(X.shape[1]), np.random.default_rng(seed))
    want = [per_column_best_split(X[rows], y[rows], cols) for rows, cols in nodes]
    assert_splits_at_every_bound(monkeypatch, X, y, nodes, want)
    return want[0]


def test_signed_zeros_are_one_value_to_the_split(monkeypatch):
    # -0.0 == 0.0: no cut between them, though the labels would favour one
    X = np.array([[-1.0], [-0.0], [0.0], [-0.0], [0.0], [2.0], [3.0]])
    y = np.array([0, 0, 1, 0, 1, 1, 1])
    R, vals = models_mod._rank_code(X)
    assert len(vals[0]) == 4 and R[0, 1] == R[0, 2]
    assert_float_splits(monkeypatch, X, y, 0)
    assert tree_nodes(train(ModelSpec.tree(), X, y)) == float_tree_reference(X, y)


ROUNDS_UP = np.nextafter(1.0, 2.0), np.nextafter(np.nextafter(1.0, 2.0), 2.0)


def test_a_midpoint_that_rounds_onto_the_upper_value_takes_the_lower(monkeypatch):
    a, b = ROUNDS_UP
    assert 0.5 * (a + b) == b  # the midpoint of these adjacent floats rounds up
    X = np.array([[0.0, 0.0], [a, 1.0], [b, 0.0], [b, 1.0], [3.0, 1.0]])
    y = np.array([0, 0, 1, 1, 1])
    assert assert_float_splits(monkeypatch, X, y, 1) == (0, a)
    m = train(ModelSpec.tree(), X, y)
    assert tree_nodes(m) == float_tree_reference(X, y)
    assert m.predict(np.array([[a, 0.0], [b, 0.0]])).tolist() == [0, 1]


def test_a_cut_between_two_adjacent_floats_ends_in_two_leaves():
    a, b = ROUNDS_UP
    m = train(ModelSpec.tree(), [[a], [a], [b], [b]], [0, 0, 1, 1])
    assert tree_nodes(m) == [[0, -1, -1], [a, 0.0, 0.0], [1, -1, -1], [2, -1, -1], [0, 0, 1]]


def test_more_than_65536_distinct_values_take_wide_ranks(monkeypatch):
    rng = np.random.default_rng(22)
    n = 70_000
    X = np.column_stack([rng.permutation(n) / n, rng.integers(0, 3, n)])
    y = (X[:, 0] + 0.1 * X[:, 1] > 0.5).astype(int)
    R, vals = models_mod._rank_code(X)
    assert R.dtype != np.uint16 and int(R[0].max()) == n - 1
    assert models_mod._rank_code(X[:65_536])[0].dtype == np.uint16
    assert_float_splits(monkeypatch, X, y, 2)
    m = train(ModelSpec.tree(max_depth=2), X, y)
    assert tree_nodes(m) == float_tree_reference(X, y, max_depth=2)


def test_tree_equals_the_float_reference():
    for seed in range(5):
        X, y = toy_problem(n=60, seed=30 + seed, noise=0.5)
        X[:, 1] = np.round(X[:, 1], 1)  # repeated values
        assert tree_nodes(train(ModelSpec.tree(), X, y)) == float_tree_reference(X, y)


def test_tree_arrays_are_preorder():
    X, y = toy_problem(n=80, seed=20, noise=0.5)
    m = train(ModelSpec.forest(n_trees=4, seed=3), X, y)
    n_nodes = len(m.feature)
    assert m.roots[0] == 0 and (np.diff(m.roots) > 0).all()
    split = np.flatnonzero(m.feature >= 0)
    leaf = np.flatnonzero(m.feature < 0)
    assert (m.left[split] == split + 1).all()  # left subtree follows its parent
    assert (m.right[split] > m.left[split]).all() and (m.right[split] < n_nodes).all()
    assert (m.left[leaf] == -1).all() and (m.right[leaf] == -1).all()
    assert set(m.value.tolist()) <= {0, 1}
    # every node but a root is the child of exactly one split
    children = np.sort(np.r_[m.left[split], m.right[split]])
    assert children.tolist() == sorted(set(range(n_nodes)) - set(m.roots.tolist()))


# ---------------------------------------------------------------------------
# random forest
# ---------------------------------------------------------------------------


def same_trees(a, b):
    return all(np.array_equal(getattr(a, name), getattr(b, name))
               for name in ("feature", "threshold", "left", "right", "value", "roots"))


def test_forest_single_plain_tree_equals_decision_tree():
    X, y = toy_problem(n=70, seed=14, noise=0.4)
    dt = train(ModelSpec.tree(), X, y)
    rf = train(ModelSpec.forest(n_trees=1, bootstrap=False, max_features=X.shape[1]), X, y)
    Xq = np.random.default_rng(15).random((40, 4))
    assert np.array_equal(dt.predict(Xq), rf.predict(Xq))
    assert same_trees(dt, rf)


def test_forest_vote_tie_resolves_to_zero():
    leaves = np.array([-1, -1])  # two one-leaf trees voting 1 and 0
    m = ForestModel(spec=ModelSpec.forest(n_trees=2), n_features=1, feature=leaves,
                    threshold=np.zeros(2), left=leaves, right=leaves, value=np.array([1, 0]),
                    roots=np.array([0, 1]))
    assert m.predict(np.zeros((3, 1))).tolist() == [0, 0, 0]


def forest_walk_reference(m, X):
    """Majority vote of a ForestModel's trees, walking one row at a time."""
    votes = []
    for x in X:
        labels = []
        for node in m.roots.tolist():
            while m.feature[node] >= 0:
                node = m.left[node] if x[m.feature[node]] <= m.threshold[node] else m.right[node]
            labels.append(int(m.value[node]))
        votes.append(int(2 * sum(labels) > len(labels)))
    return np.array(votes)


def forest_subset_walk(m, X):
    """Majority vote of a ForestModel's trees, routing row subsets down one
    tree at a time: the predict of fairbench.models before it read packed leaf
    bitvectors."""
    feature, threshold = m.feature.tolist(), m.threshold.tolist()
    # each column a split reads, copied once to contiguous memory
    columns = {f: np.ascontiguousarray(X[:, f]) for f in set(feature) - {-1}}
    left, right, value = m.left.tolist(), m.right.tolist(), m.value.tolist()
    votes = np.zeros(len(X), dtype=np.int64)
    out = np.empty(len(X), dtype=np.int64)  # one tree's labels; every row reaches a leaf
    every = np.arange(len(X))
    for root in m.roots.tolist():  # one tree at a time, routing non-empty row subsets
        stack = [(root, every)]
        while stack:
            node, idx = stack.pop()
            f = feature[node]
            if f < 0:
                out[idx] = value[node]
                continue
            mask = columns[f].take(idx) <= threshold[node]
            left_idx, right_idx = idx[mask], idx[~mask]
            if left_idx.size:
                stack.append((left[node], left_idx))
            if right_idx.size:
                stack.append((right[node], right_idx))
        votes += out
    # majority vote; an exact tie resolves to label 0
    return (2 * votes > len(m.roots)).astype(np.int64)


def assert_predicts_as_walks(m, X, row_walk=True):
    """m.predict(X) equals the subset walk and, unless row_walk is False, the
    row-at-a-time walk, label for label."""
    got = m.predict(X)
    assert got.dtype == np.int64 and got.shape == (len(X),)
    assert np.array_equal(got, forest_subset_walk(m, X))
    if row_walk:
        assert np.array_equal(got, forest_walk_reference(m, X))


def on_and_above_thresholds(m, X):
    """Per split node, a row of X (cycled) with the node's column set to its
    threshold, and one with it set to the next float above."""
    split = np.flatnonzero(m.feature >= 0)
    Xq = np.repeat(X[np.arange(len(split)) % len(X)], 2, axis=0)
    for r, node in enumerate(split):
        thr = m.threshold[node]
        Xq[2 * r, m.feature[node]] = thr
        Xq[2 * r + 1, m.feature[node]] = np.nextafter(thr, np.inf)
    return Xq


def n_words(m):
    return len(m._bits[0])


def test_forest_walk_sends_values_on_a_threshold_left():
    X, y = toy_problem(n=80, seed=23, noise=0.5)
    X[:, 2] = np.round(X[:, 2], 1)
    m = train(ModelSpec.forest(n_trees=7, seed=4), X, y)
    Xq = on_and_above_thresholds(m, X)
    assert_predicts_as_walks(m, Xq)
    assert np.array_equal(m.predict(Xq[::-1]), m.predict(Xq)[::-1])
    assert m.predict(np.empty((0, 4))).shape == (0,)


# ---------------------------------------------------------------------------
# predict from packed leaf bitvectors, against the two walks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_bitvectors_equal_the_walks_on_random_forests(seed):
    # every max_features from 1 to d, with and without bags, rounded values
    # for repeated thresholds, queried off, on and just above the thresholds
    rng = np.random.default_rng(300 + seed)
    n, d = int(rng.integers(20, 120)), int(rng.integers(1, 6))
    X = np.round(rng.random((n, d)), int(rng.integers(1, 3)))
    y = (X.sum(axis=1) + 0.4 * rng.standard_normal(n) > 0.5 * d).astype(int)
    y[:2] = 0, 1
    Xq = np.vstack([rng.random((40, d)), X])
    for k in range(1, d + 1):
        for bootstrap in (True, False):
            m = train(ModelSpec.forest(n_trees=int(rng.integers(1, 12)), bootstrap=bootstrap,
                                       max_features=k, seed=seed), X, y)
            assert_predicts_as_walks(m, np.vstack([Xq, on_and_above_thresholds(m, X)]))


@pytest.mark.parametrize("n", [64, 65])
@pytest.mark.parametrize("phase", [0, 1])
def test_trees_of_64_and_65_leaves(n, phase):
    # alternating labels on distinct values: one leaf per row, a chain of
    # splits. 64 leaves fill one word; 65 take two, and the row that exits
    # in the first word must not also vote with the second
    X, y = np.arange(float(n))[:, None], (np.arange(n) + phase) % 2
    m = train(ModelSpec.tree(), X, y)
    assert int((m.feature < 0).sum()) == n
    assert n_words(m) == (1 if n == 64 else 2)
    Xq = np.vstack([X, X + 0.5, on_and_above_thresholds(m, X), [[-1e300], [1e300]]])
    assert_predicts_as_walks(m, Xq)
    assert np.array_equal(m.predict(X), y)


def test_the_deep_tree_predicts_as_the_walks():
    X, y = np.arange(1500.0)[:, None], (np.arange(1500) + 1) % 2
    m = train(ModelSpec.tree(), X, y)
    assert n_words(m) == 24  # 1,500 leaves
    Xq = np.vstack([X, X - 0.5, [[-0.0], [0.0], [1e300], [-1e300]]])
    assert_predicts_as_walks(m, Xq, row_walk=False)
    assert np.array_equal(m.predict(X), y)


def test_small_trees_pack_several_to_a_word_and_never_straddle_one():
    X, y = toy_problem(n=150, d=5, seed=40, noise=0.6)
    m = train(ModelSpec.forest(n_trees=60, max_depth=4, seed=5), X, y)
    leaves = np.add.reduceat((m.feature < 0).astype(int), m.roots)
    assert leaves.max() <= 16 and 1 < n_words(m) < len(m.roots)
    # next fit: a new word starts where the next tree would not fit
    filled, words = 0, 1
    for n in leaves.tolist():
        if filled + n > 64:
            filled, words = 0, words + 1
        filled += n
    assert n_words(m) == words
    rng = np.random.default_rng(41)
    assert_predicts_as_walks(m, np.vstack([rng.random((60, 5)), on_and_above_thresholds(m, X)]))


@pytest.mark.parametrize("positives", [35, 36])
def test_a_forest_of_one_leaf_trees_has_no_internal_node(positives):
    # 70 one-leaf trees: 64 in the first word, 6 in the second; 35 votes of
    # 70 are a tie, which is 0
    leaves = np.full(70, -1)
    value = (np.arange(70) % 2 == 0).astype(np.int64)
    value[np.flatnonzero(value == 0)[:positives - 35]] = 1
    m = ForestModel(spec=ModelSpec.forest(n_trees=70), n_features=2, feature=leaves,
                    threshold=np.zeros(70), left=leaves, right=leaves, value=value,
                    roots=np.arange(70))
    assert n_words(m) == 2
    X = np.random.default_rng(42).random((5, 2))
    assert m.predict(X).tolist() == [int(positives > 35)] * 5
    assert_predicts_as_walks(m, X)


def test_bitvectors_on_signed_zeros_huge_values_and_an_unused_column():
    # column 2 is constant, so no tree splits on it; the tree splits column 0
    # at 0.0, the midpoint of -1 and 1, which -0.0 and 0.0 both equal
    X = np.array([[-1.0, 5.0, 7.0], [1.0, 5.0, 7.0], [-1.0, -5.0, 7.0], [1.0, -5.0, 7.0],
                  [-1.0, 6.0, 7.0], [1.0, -6.0, 7.0]])
    y = np.array([0, 1, 0, 1, 0, 1])
    zeros = [[z, v, w] for z in (-0.0, 0.0) for v in (-1e300, 0.0, 1e300) for w in (-7.0, 1e300)]
    huge = [[a, b, c] for a in (-1e300, 1e300) for b in (-1e300, 1e300) for c in (-1e300, 0.0)]
    Xq = np.array(zeros + huge)
    tree = train(ModelSpec.tree(), X, y)
    assert tree.threshold[0] == 0.0
    on_and_above = [[-0.0, 5.0, 7.0], [0.0, 5.0, 7.0], [5e-324, 5.0, 7.0]]
    assert tree.predict(on_and_above).tolist() == [0, 0, 1]
    for m in (tree, train(ModelSpec.forest(n_trees=9, seed=6), X, y)):
        assert 2 not in m.feature.tolist()
        assert_predicts_as_walks(m, Xq)
        assert m.predict(np.empty((0, 3))).shape == (0,)


def test_a_wide_noisy_forest_splits_its_tables_into_groups():
    # 100 trees on 1,500 rows of noise: hundreds of leaves per tree. One group
    # of tables over every word would take (internal nodes + d) x words
    # words, about 600 per internal node here; groups keep it near the node count
    rng = np.random.default_rng(43)
    X, y = rng.random((1500, 4)), rng.integers(0, 2, 1500)
    m = train(ModelSpec.forest(n_trees=100, seed=7), X, y)
    *_, groups = m._bits
    internal = int((m.feature >= 0).sum())
    table_bytes = sum(table.nbytes for tables in groups for *_, table in tables)
    assert len(groups) > 1 and n_words(m) > 300
    assert table_bytes <= 8 * 64 * internal  # 64 words per internal node
    Xq = np.vstack([rng.random((300, 4)), X[:200]])
    assert_predicts_as_walks(m, Xq, row_walk=False)
    assert_predicts_as_walks(m, Xq[:20])


def test_forest_seed_changes_trees_deterministically():
    X, y = toy_problem(n=60, seed=16, noise=0.5)
    a = train(ModelSpec.forest(n_trees=5, seed=1), X, y)
    b = train(ModelSpec.forest(n_trees=5, seed=1), X, y)
    c = train(ModelSpec.forest(n_trees=5, seed=2), X, y)
    Xq = np.random.default_rng(17).random((50, 4))
    assert np.array_equal(a.predict(Xq), b.predict(Xq))
    assert same_trees(a, b)
    assert not same_trees(a, c)


def test_forest_learns_separable_problem():
    X, y = toy_problem(n=100, seed=18, noise=0.0)
    m = train(ModelSpec.forest(n_trees=25), X, y)
    Xq = np.random.default_rng(19).random((200, 4))
    yq = (Xq[:, 0] > 0.5).astype(int)
    assert (m.predict(Xq) == yq).mean() >= 0.9


# ---------------------------------------------------------------------------
# lockstep growth against the recursive grower it replaced
# ---------------------------------------------------------------------------


# _gini_best_split and _grow_tree as fairbench.models had them before trees
# grew in lockstep, kept verbatim as the reference for the node arrays


def _gini_best_split(R: np.ndarray, y: np.ndarray, cols: np.ndarray,
                     vals: list[np.ndarray]) -> tuple[int, float] | None:
    """Exhaustive midpoint search over the columns ``cols`` of one node's
    rank-coded rows R (see _rank_code), all columns in one pass; ties resolve
    to the lowest column then the lowest threshold. None when every candidate
    column is constant."""
    n = len(y)
    Rc = R[cols]
    order = np.argsort(Rc, axis=1, kind="stable")  # ranks: the same order as the values
    sr = np.sort(Rc, axis=1, kind="stable")
    cpos = np.cumsum(y[order], axis=1)  # [c, r]: positives among the r + 1 smallest
    nl = np.arange(1.0, n)  # left size of the cut after sorted row r
    nr = n - nl
    pl = cpos[:, :-1] / nl
    pr = (cpos[:, -1:] - cpos[:, :-1]) / nr
    weighted = (nl * 2.0 * pl * (1.0 - pl) + nr * 2.0 * pr * (1.0 - pr)) / n
    weighted[sr[:, 1:] <= sr[:, :-1]] = np.inf  # no cut between equal values
    c, r = divmod(int(np.argmin(weighted)), n - 1)  # lowest column, then threshold
    if weighted[c, r] == np.inf:
        return None
    f = int(cols[c])
    lo, hi = vals[f][sr[c, r]], vals[f][sr[c, r + 1]]
    mid = 0.5 * (lo + hi)
    return f, float(mid if mid < hi else lo)  # a midpoint rounded onto hi would send hi left


def _grow_tree(nodes: list, R: np.ndarray, y: np.ndarray, vals: list[np.ndarray], depth: int,
               max_depth: int | None, max_features: int, rng: np.random.Generator) -> int:
    """Append the tree fitted to the rank-coded rows (R, y) to ``nodes`` in
    preorder, one [feature, threshold, left, right, value] row per node;
    returns its root."""
    node, pos = len(nodes), int(y.sum())
    nodes.append([-1, 0.0, -1, -1, int(2 * pos > len(y))])  # majority label; a tie is 0
    if pos in (0, len(y)) or (max_depth is not None and depth >= max_depth):  # pure or deep
        return node
    d = len(R)
    cols = np.arange(d) if max_features >= d else np.sort(
        rng.choice(d, size=max_features, replace=False))
    split = _gini_best_split(R, y, cols, vals)
    if split is None:
        return node
    feature, threshold = split
    mask = vals[feature][R[feature]] <= threshold
    left = _grow_tree(nodes, R[:, mask], y[mask], vals, depth + 1, max_depth, max_features, rng)
    right = _grow_tree(nodes, R[:, ~mask], y[~mask], vals, depth + 1, max_depth, max_features, rng)
    nodes[node][:4] = feature, threshold, left, right
    return node


NODE_ARRAYS = ("feature", "threshold", "left", "right", "value", "roots")


def recursive_node_arrays(spec, X, y):
    """The node arrays train(spec, X, y) built with the recursive grower."""
    n, d = X.shape
    if spec.family == "tree":
        n_trees, bootstrap, max_features = 1, False, d
    else:
        n_trees, bootstrap = spec.n_trees, spec.bootstrap
        max_features = spec.max_features or int(np.ceil(np.sqrt(d)))
    R, vals = models_mod._rank_code(X)
    nodes, roots = [], []
    for tree_idx in range(n_trees):
        rng = derive_rng(spec.seed, "tree", tree_idx)
        rows = rng.integers(0, n, size=n) if bootstrap else slice(None)
        roots.append(_grow_tree(nodes, R[:, rows], y[rows], vals, 0, spec.max_depth,
                                max_features, rng))
    feature, threshold, left, right, value = (np.array(col) for col in zip(*nodes))
    return feature, threshold, left, right, value, np.array(roots)


def assert_same_node_arrays(spec, X, y):
    m = train(spec, X, y)
    for name, want in zip(NODE_ARRAYS, recursive_node_arrays(spec, X, y), strict=True):
        got = getattr(m, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("seed", range(12))
def test_lockstep_growth_equals_the_recursive_grower(monkeypatch, seed):
    # ties from rounded values, a constant column, every max_features from 1
    # to d, three depth limits, bags and no bags, at both batch bounds
    rng = np.random.default_rng(100 + seed)
    n, d = int(rng.integers(2, 90)), int(rng.integers(1, 7))
    X = np.round(rng.random((n, d)), int(rng.integers(1, 3)))
    X[:, int(rng.integers(d))] = 0.5
    y = (X.sum(axis=1) + 0.3 * rng.standard_normal(n) > 0.5 * d).astype(int)
    y[:2] = 0, 1  # both classes
    specs = [ModelSpec.tree(max_depth=depth, seed=seed) for depth in (None, 1, 3)]
    specs += [ModelSpec.forest(n_trees=int(rng.integers(1, 9)), max_depth=depth,
                               bootstrap=bootstrap, max_features=k, seed=seed)
              for k in range(1, d + 1) for depth in (None, 1, 3) for bootstrap in (True, False)]
    for bound in BATCH_BOUNDS:
        monkeypatch.setattr(models_mod, "SPLIT_BATCH", bound)
        for spec in specs:
            assert_same_node_arrays(spec, X, y)


def test_lockstep_growth_equals_the_recursive_grower_on_cohort_10x(tmp_path, monkeypatch):
    # the five aware training folds of the cohort-10x benchmark study at seed
    # 9001 (1200 rows each), with the dt and rf seeds of that study
    from fairbench.experiment import load_experiment_config, materialize_cohort, prepare_folds

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import WORKLOADS, generate

    config = generate(WORKLOADS["cohort-10x"], 9001, tmp_path)["study"]
    monkeypatch.chdir(tmp_path)
    cfg = load_experiment_config(config)
    folds = prepare_folds(materialize_cohort(cfg)[0], cfg, "aware")
    assert len(folds) == 5 and {len(fd.y_train) for fd in folds} == {1200}
    for f, fd in enumerate(folds):
        for spec in cfg.models:
            if spec.family in ("tree", "forest"):
                seed = derive_seed(cfg.master_seed, "model", spec.name, "aware", f)
                assert_same_node_arrays(replace(spec, seed=seed), fd.X_train, fd.y_train)


def test_a_fit_that_draws_nothing_derives_no_stream(monkeypatch):
    def derive_rng(*args):
        raise AssertionError(f"stream {args} derived")

    monkeypatch.setattr(models_mod, "derive_rng", derive_rng)
    X, y = toy_problem()
    train(ModelSpec.tree(), X, y)
    train(ModelSpec.forest(n_trees=3, bootstrap=False, max_features=X.shape[1]), X, y)
    with pytest.raises(AssertionError, match="stream"):
        train(ModelSpec.forest(n_trees=3, bootstrap=False), X, y)


def test_a_deep_tree_grows_without_recursion():
    # alternating labels on distinct values: 1,499 splits deep, past Python's
    # recursion limit for a recursive grower
    X, y = np.arange(1500.0)[:, None], np.arange(1500) % 2
    m = train(ModelSpec.tree(), X, y)
    assert len(m.feature) == 2999
    assert (m.predict(X) == y).mean() == 1.0


# ---------------------------------------------------------------------------
# the SVM solver and the KNN distance against the full-matrix forms they replaced
# ---------------------------------------------------------------------------


# _train_svm's loop and _knn_votes as fairbench.models had them before the
# solver computed kernel rows on first read and the distance became one GEMM,
# kept as the reference for their bits; the loop runs on a whole kernel matrix


def full_matrix_svm(spec, X, y, kernel_rows=solver_kernel):
    """(alpha, bias, n_iter) of the solver on the whole kernel matrix that
    ``kernel_rows`` builds, with numpy bookkeeping per point."""
    n = len(y)
    C = spec.C
    gamma = spec.gamma if spec.gamma is not None else models_mod._default_gamma(X)
    t = np.where(y == 1, 1.0, -1.0)
    K, K_diag = kernel_rows(spec.kernel, X, gamma, spec.coef0)

    alpha = np.zeros(n)
    up, low = t > 0, t < 0
    n_up, n_low = int(up.sum()), int(low.sum())
    tG_up, tG_low = np.where(up, t, -np.inf), np.where(low, t, np.inf)
    a, v, step = np.empty(n), np.empty(n), np.empty(n)
    m_val = M_val = 0.0
    it = 0
    for it in range(1, models_mod.SVM_MAX_ITER + 1):
        if not n_up or not n_low:
            break
        i = int(tG_up.argmax())
        m_val = float(tG_up[i])
        M_val = float(tG_low.min())
        if m_val - M_val <= SVM_KKT_TOL:
            break
        K_i = K[i]
        np.add(K_diag, K_diag[i], out=a)
        np.multiply(K_i, 2.0, out=step)
        np.subtract(a, step, out=a)
        np.maximum(a, 1e-12, out=a)
        np.subtract(m_val, tG_low, out=v)
        np.maximum(v, 0.0, out=v)
        np.multiply(v, v, out=v)
        np.divide(v, a, out=v)
        j = int(v.argmax())

        cap_i = (C - alpha[i]) if t[i] > 0 else alpha[i]
        cap_j = (C - alpha[j]) if t[j] < 0 else alpha[j]
        delta = min((m_val - tG_low[j]) / a[j], cap_i, cap_j)

        alpha[i] += t[i] * delta
        alpha[j] -= t[j] * delta
        np.subtract(K_i, K[j], out=step)
        np.multiply(step, delta, out=step)
        np.subtract(tG_up, step, out=tG_up)
        np.subtract(tG_low, step, out=tG_low)
        for idx in (i, j):
            if alpha[idx] < 1e-12:
                alpha[idx] = 0.0
            elif alpha[idx] > C - 1e-12:
                alpha[idx] = C
            below, above = alpha[idx] < C, alpha[idx] > 0
            in_up, in_low = (below, above) if t[idx] > 0 else (above, below)
            g = tG_up[idx] if up[idx] else tG_low[idx]
            n_up += int(in_up) - int(up[idx])
            n_low += int(in_low) - int(low[idx])
            up[idx], low[idx] = in_up, in_low
            tG_up[idx], tG_low[idx] = (g if in_up else -np.inf), (g if in_low else np.inf)
    return alpha, (m_val + M_val) / 2.0, it


def two_add_knn_votes(train_X, train_y, X, ks):
    """Labels of _knn_votes, each distance block a GEMM and two broadcast adds;
    also returns the blocks, before _nearest overwrites them."""
    ks = [min(k, len(train_y)) for k in ks]
    sq_train = np.sum(train_X * train_X, axis=1)
    minus_2xt = -2.0 * train_X.T
    preds = [np.empty(len(X), dtype=np.int64) for _ in ks]
    blocks = []
    step = models_mod._block_rows(len(train_y))
    for start in range(0, len(X), step):
        B = X[start:start + step]
        d2 = B @ minus_2xt
        d2 += np.sum(B * B, axis=1)[:, None]
        d2 += sq_train
        blocks.append(d2.copy())
        votes = train_y[models_mod._nearest(d2, max(ks))]
        pos = np.cumsum(votes, axis=1)
        for pred, k in zip(preds, ks):
            twice = 2 * pos[:, k - 1]
            pred[start:start + len(B)] = np.where(twice == k, votes[:, 0], twice > k)
    return preds, blocks


def assert_same_svm_fit(spec, X, y):
    m = train(spec, X, y)
    alpha, bias, n_iter = full_matrix_svm(spec, X, y)
    assert m.alpha.tobytes() == alpha.tobytes()
    assert m.bias == bias and m.n_iter == n_iter
    sv = alpha > 1e-12
    assert m.support_X.tobytes() == X[sv].tobytes()
    assert m.support_coef.tobytes() == (alpha * np.where(y == 1, 1.0, -1.0))[sv].tobytes()
    return m


@pytest.mark.parametrize("kernel", models_mod.KERNELS)
@pytest.mark.parametrize("C", [0.01, 1.0, 1e3])
def test_svm_equals_the_full_matrix_solver_for_every_box(kernel, C):
    X, y = toy_problem(n=40, seed=101, noise=0.1)
    m = assert_same_svm_fit(ModelSpec.svm(kernel, C=C), X, y)
    if C == 0.01:  # alphas snapped to both ends of the box
        assert (m.alpha == C).any() and (m.alpha == 0.0).any()


@pytest.mark.parametrize("kernel", models_mod.KERNELS)
def test_svm_equals_the_full_matrix_solver_on_duplicate_rows(kernel):
    X, y = toy_problem(n=40, seed=102, noise=0.3)
    # each of the first ten rows twice more, once with its label and once with the other
    X = np.vstack([X, X[:10], X[:10]])
    y = np.concatenate([y, y[:10], 1 - y[:10]])
    assert_same_svm_fit(ModelSpec.svm(kernel), X, y)


@pytest.mark.parametrize("kernel", models_mod.KERNELS)
@pytest.mark.parametrize("n", [2, 7, 120, 1200])
def test_svm_equals_the_full_matrix_solver_at_every_size(kernel, n):
    if n == 1200:
        X, y = aware_fold()
    elif n == 2:
        X, y = np.array([[0.0, 1.0], [1.0, 0.5]]), np.array([0, 1])
    else:
        X, y = toy_problem(n=n, seed=103, noise=0.3)
    assert_same_svm_fit(ModelSpec.svm(kernel), X, y)


@pytest.mark.parametrize("kernel", models_mod.KERNELS)
@pytest.mark.parametrize("n", [120, 1200])
def test_svm_keeps_the_gram_matrix_bits_at_the_golden_sizes(kernel, n):
    # every golden study trains on 120 or 1,200 rows; there the kernel rows
    # computed on demand have the bits of the rows of X @ X.T, so the solver
    # ends where it did on that one matrix
    X, y = aware_fold(n)
    m = train(ModelSpec.svm(kernel), X, y)
    assert same_svm(m, full_matrix_svm(m.spec, X, y, kernel_rows=gram_matrix_kernel))


@pytest.mark.parametrize("n", [2, 33, 120, 1200])
def test_the_gram_diagonal_has_the_bits_of_the_gram_matrix(n):
    # 33 rows leave a last block of one row, which is multiplied as two
    X = aware_fold()[0][:n]
    assert models_mod._gram_diagonal(X).tobytes() == np.diag(X @ X.T).tobytes()


@pytest.mark.parametrize("kernel", models_mod.KERNELS)
def test_the_solver_turns_each_row_it_reads_into_the_kernel_matrix_row_once(monkeypatch, kernel):
    X, y = aware_fold()
    n = len(y)
    rows, diags = {}, []  # the rows computed, by index; the diagonals
    real_row, real_diagonal = models_mod._gram_row, models_mod._gram_diagonal

    def row_spy(X, i):
        assert i not in rows, f"row {i} computed twice"
        rows[i] = real_row(X, i)  # turned into its kernel row in place
        return rows[i]

    def diagonal_spy(X):
        diags.append(real_diagonal(X))
        return diags[-1]

    monkeypatch.setattr(models_mod, "_gram_row", row_spy)
    monkeypatch.setattr(models_mod, "_gram_diagonal", diagonal_spy)
    m = train(ModelSpec.svm(kernel), X, y)
    monkeypatch.undo()
    K, K_diag = solver_kernel(kernel, X, m.gamma, m.spec.coef0)
    assert len(diags) == 1 and diags[0].tobytes() == K_diag.tobytes()
    assert 0 < len(rows) < n / 2  # the solver reads few rows
    for i, K_i in rows.items():
        assert K_i.tobytes() == K[i].tobytes()


@pytest.mark.parametrize("kernel", models_mod.KERNELS)
def test_an_svm_fit_holds_only_the_kernel_rows_it_reads(monkeypatch, kernel):
    # a fit's peak is its kernel rows, eight more arrays of n values, and a
    # few Python objects per training row; an n x n matrix alone is 11.5 MB
    import tracemalloc

    X, y = aware_fold()
    n = len(y)
    read = []
    real = models_mod._gram_row
    monkeypatch.setattr(models_mod, "_gram_row", lambda X, i: (read.append(i), real(X, i))[1])
    tracemalloc.start()
    try:
        train(ModelSpec.svm(kernel), X, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (len(read) + 8) * n * 8 + 256 * n
    assert peak < n * n * 8 / 2


def test_a_converged_svm_keeps_its_kkt_gap(toy_svm_fits):
    for _, m in toy_svm_fits:
        assert m.converged and m.kkt_gap <= SVM_KKT_TOL


def test_did_not_converge_quotes_the_kept_kkt_gap(monkeypatch):
    monkeypatch.setattr(models_mod, "SVM_MAX_ITER", 5)
    X, y = toy_problem(n=60, seed=100, noise=0.3)
    with pytest.warns(DidNotConverge) as caught:
        m = train(ModelSpec.svm("p4"), X, y)
    assert not m.converged and m.n_iter == 5
    assert m.kkt_gap > SVM_KKT_TOL
    assert f"KKT violation {m.kkt_gap:.2e}" in str(caught[0].message)


def knn_cohort_rows(n):
    """n training rows of an aware fold and queries as permutation importance
    makes them: the rows with one column shuffled, plus exact duplicates."""
    X, y = aware_fold()
    X, y = X[:n], y[:n]
    rng = np.random.default_rng(5)
    Xq = X[rng.integers(0, n, size=300)].copy()
    Xq[:, 3] = rng.permutation(Xq[:, 3])
    return X, y, np.vstack([Xq, X[:20]])


@pytest.mark.parametrize("n", [120, 1200])
def test_knn_distance_blocks_equal_the_two_add_form(monkeypatch, n):
    X, y, Xq = knn_cohort_rows(n)
    # blocks of 109, 109 and 102 rows: a 1200-row fold's height, also at 120
    monkeypatch.setattr(models_mod, "BLOCK_ELEMENTS", 109 * n)
    want, want_blocks = two_add_knn_votes(X, y, Xq, [1, 4, 8])
    blocks = []
    real = models_mod._nearest
    monkeypatch.setattr(models_mod, "_nearest",
                        lambda d2, k: (blocks.append(d2.copy()), real(d2, k))[1])
    got = models_mod._knn_votes(X, y, Xq, [1, 4, 8])
    assert [len(b) for b in blocks] == [len(b) for b in want_blocks] == [109, 109, 102]
    for b, w in zip(blocks, want_blocks):
        assert b.tobytes() == w.tobytes()
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


@pytest.mark.parametrize("n", [120, 1200])
def test_a_lone_knn_query_row_has_its_bits_in_a_block(monkeypatch, n):
    # numpy would multiply a one-row block by gemv, whose bits differ from
    # the matrix product's; a lone row is multiplied as one row of two
    X, y, Xq = knn_cohort_rows(n)
    blocks = []
    real = models_mod._nearest
    monkeypatch.setattr(models_mod, "_nearest",
                        lambda d2, k: (blocks.append(d2.copy()), real(d2, k))[1])
    monkeypatch.setattr(models_mod, "BLOCK_ELEMENTS", 109 * n)
    models_mod._knn_votes(X, y, Xq[:109], [1])
    whole = blocks.pop()
    monkeypatch.setattr(models_mod, "BLOCK_ELEMENTS", n)  # one row a block
    models_mod._knn_votes(X, y, Xq[:8], [1])
    models_mod._knn_votes(X, y, Xq[:1], [1])
    assert len(blocks) == 9
    for r, b in enumerate(blocks[:8]):
        assert b.tobytes() == whole[r:r + 1].tobytes()
    assert blocks[8].tobytes() == whole[:1].tobytes()


@pytest.mark.parametrize("k", KNN_KS)
@pytest.mark.parametrize("rows_per_block", [1, 4, 1000])
def test_knn_labels_equal_the_two_add_form_with_lone_rows(monkeypatch, k, rows_per_block):
    # exact duplicates, equal distances at the k-th boundary, even-k vote ties,
    # and blocks that leave one query row alone
    X, y, Xq = tied_grid()
    monkeypatch.setattr(models_mod, "BLOCK_ELEMENTS", rows_per_block * len(X))
    assert len(Xq) == 41  # at 4 rows a block the last row is alone, at 1 every row
    want = two_add_knn_votes(X, y, Xq, [k])[0][0]
    assert np.array_equal(models_mod._knn_votes(X, y, Xq, [k])[0], want)
    for r in range(len(Xq)):  # each row alone
        assert models_mod._knn_votes(X, y, Xq[r:r + 1], [k])[0][0] == want[r]
    Xc, yc, Xcq = knn_cohort_rows(120)
    assert np.array_equal(models_mod._knn_votes(Xc, yc, Xcq, [k])[0],
                          two_add_knn_votes(Xc, yc, Xcq, [k])[0][0])


def test_knn_working_memory_does_not_grow_with_the_query_rows():
    # beyond the labels it returns (8 bytes a row), a call holds one block of
    # query rows at a time, however many rows it predicts
    import tracemalloc

    X, y, _ = knn_cohort_rows(1200)
    rng = np.random.default_rng(6)
    peaks = []
    for rows in (1_000, 10_000):
        Xq = rng.random((rows, X.shape[1]))
        tracemalloc.start()
        models_mod._knn_votes(X, y, Xq, [4])
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] - peaks[0] < 16 * 9_000
