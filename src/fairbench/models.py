"""Five classifier families behind one fit/predict contract.

Logistic regression (damped Newton: a closed-form Hessian solve per step and
Armijo backtracking, so every step lowers the regularised loss), kernel SVM
(two-coordinate dual descent; the maximal violator i in the up set is paired
with the low-set j of largest second-order decrease, Fan, Chen & Lin 2005),
k-nearest neighbours, CART decision tree (Gini, midpoint thresholds) and a
random forest of such trees. Both solvers stop on a tolerance; their iteration
caps are safety nets that warn with DidNotConverge. All models are
deterministic given their ModelSpec, including the per-tree RNG streams of the
forest.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import expit

from .errors import (
    DidNotConverge,
    DimensionMismatch,
    NonFiniteInput,
    SingleClassTraining,
)
from .rng import derive_rng

FAMILIES = ("logr", "svm", "knn", "tree", "forest")
KERNELS = ("ln", "rbf", "p2", "p3", "p4")

FORMAT_VERSION = 1

LOGR_MAX_ITER = 50  # safety net; Newton needs a handful of steps
LOGR_GRAD_TOL = 1e-6
SVM_KKT_TOL = 1e-3
SVM_MAX_ITER = 200_000
# query rows per KNN distance block; bounds the block's distance matrix and
# selection temporaries to this many rows times the training size
KNN_BLOCK_ROWS = 256


@dataclass(frozen=True)
class ModelSpec:
    family: str
    kernel: str | None = None  # svm only
    k_neighbors: int | None = None  # knn only
    n_trees: int | None = None  # forest only
    max_depth: int | None = None  # tree/forest only
    C: float | None = None  # logr/svm only
    gamma: float | None = None  # svm only; None -> 1/(d * mean column variance)
    coef0: float | None = None  # svm polynomial kernels only
    bootstrap: bool | None = None  # forest only
    max_features: int | None = None  # forest only; None -> ceil(sqrt(d))
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        allowed = {
            "logr": {"C"},
            "svm": {"kernel", "C", "gamma", "coef0"},
            "knn": {"k_neighbors"},
            "tree": {"max_depth"},
            "forest": {"n_trees", "max_depth", "bootstrap", "max_features"},
        }[self.family]
        for name in ("kernel", "k_neighbors", "n_trees", "max_depth", "C", "gamma",
                     "coef0", "bootstrap", "max_features"):
            if getattr(self, name) is not None and name not in allowed:
                raise ValueError(f"{name} is not a valid field for family {self.family!r}")
        if self.family == "svm":
            if self.kernel not in KERNELS:
                raise ValueError(f"svm kernel must be one of {KERNELS}, got {self.kernel!r}")
            if self.gamma is not None and self.gamma <= 0:
                raise ValueError("gamma must be positive")
        if self.family in ("logr", "svm") and self.c_value <= 0:
            raise ValueError("C must be positive")
        if self.family == "knn" and (self.k_neighbors is None or self.k_neighbors < 1):
            raise ValueError("knn needs k_neighbors >= 1")
        if self.family == "forest" and self.trees_value < 1:
            raise ValueError("forest needs n_trees >= 1")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError("max_depth must be >= 1 when set")

    @property
    def c_value(self) -> float:
        return 1.0 if self.C is None else float(self.C)

    @property
    def trees_value(self) -> int:
        return 100 if self.n_trees is None else int(self.n_trees)

    @property
    def name(self) -> str:
        if self.family == "logr":
            return "logr"
        if self.family == "svm":
            return f"svm-{self.kernel}"
        if self.family == "knn":
            return f"knn-{self.k_neighbors}"
        return "dt" if self.family == "tree" else "rf"

    @property
    def label(self) -> str:
        if self.family == "logr":
            return "LogR"
        if self.family == "svm":
            return f"SVM-{self.kernel.upper()}"
        if self.family == "knn":
            return f"{self.k_neighbors}-NN"
        return "DT" if self.family == "tree" else "RF"

    @classmethod
    def logr(cls, C: float = 1.0, seed: int = 0) -> "ModelSpec":
        return cls(family="logr", C=C, seed=seed)

    @classmethod
    def svm(cls, kernel: str, C: float = 1.0, gamma: float | None = None,
            coef0: float | None = None, seed: int = 0) -> "ModelSpec":
        return cls(family="svm", kernel=kernel, C=C, gamma=gamma, coef0=coef0, seed=seed)

    @classmethod
    def knn(cls, k: int, seed: int = 0) -> "ModelSpec":
        return cls(family="knn", k_neighbors=k, seed=seed)

    @classmethod
    def tree(cls, max_depth: int | None = None, seed: int = 0) -> "ModelSpec":
        return cls(family="tree", max_depth=max_depth, seed=seed)

    @classmethod
    def forest(cls, n_trees: int = 100, max_depth: int | None = None,
               bootstrap: bool = True, max_features: int | None = None,
               seed: int = 0) -> "ModelSpec":
        return cls(family="forest", n_trees=n_trees, max_depth=max_depth,
                   bootstrap=bootstrap, max_features=max_features, seed=seed)


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------


def kernel_eval(kernel: str, u, v, gamma: float, coef0: float = 1.0) -> float:
    u = np.asarray(u, dtype=float).ravel()
    v = np.asarray(v, dtype=float).ravel()
    if u.shape != v.shape:
        raise DimensionMismatch(f"kernel arguments differ in length: {u.shape} vs {v.shape}")
    return float(_kernel_matrix(kernel, u[None, :], v[None, :], gamma, coef0)[0, 0])


def _kernel_matrix(kernel: str, A: np.ndarray, B: np.ndarray, gamma: float,
                   coef0: float) -> np.ndarray:
    if kernel not in KERNELS:
        raise ValueError(f"unknown kernel {kernel!r}")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    if kernel == "ln":
        return A @ B.T
    if kernel == "rbf":
        sq = (
            np.sum(A * A, axis=1)[:, None]
            - 2.0 * (A @ B.T)
            + np.sum(B * B, axis=1)[None, :]
        )
        return np.exp(-gamma * np.maximum(sq, 0.0))
    degree = int(kernel[1])
    return (gamma * (A @ B.T) + coef0) ** degree


def _default_gamma(X: np.ndarray) -> float:
    mean_var = float(X.var(axis=0).mean())
    if mean_var <= 0:
        return 1.0
    return 1.0 / (X.shape[1] * mean_var)


# ---------------------------------------------------------------------------
# Trained models
# ---------------------------------------------------------------------------


@dataclass
class TrainedModel:
    spec: ModelSpec
    n_features: int

    def predict(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise DimensionMismatch(
                f"model was trained on {self.n_features} columns, got matrix of shape {X.shape}"
            )
        if not np.isfinite(X).all():
            raise NonFiniteInput("prediction matrix contains non-finite values")
        return self._predict(X)

    def _predict(self, X: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError


@dataclass
class LogisticModel(TrainedModel):
    weights: np.ndarray = None
    bias: float = 0.0
    converged: bool = True
    n_iter: int = 0

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        return X @ self.weights + self.bias

    def _predict(self, X: np.ndarray) -> np.ndarray:
        return (self.decision_function(X) >= 0.0).astype(np.int64)


@dataclass
class SvmModel(TrainedModel):
    support_X: np.ndarray = None
    support_coef: np.ndarray = None  # alpha_i * t_i per support vector
    bias: float = 0.0
    gamma: float = 1.0
    coef0: float = 1.0
    alpha: np.ndarray = None  # full dual vector, kept for feasibility checks
    train_t: np.ndarray = None
    converged: bool = True
    n_iter: int = 0

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        K = _kernel_matrix(self.spec.kernel, X, self.support_X, self.gamma, self.coef0)
        return K @ self.support_coef + self.bias

    def _predict(self, X: np.ndarray) -> np.ndarray:
        return (self.decision_function(X) >= 0.0).astype(np.int64)


@dataclass
class KnnModel(TrainedModel):
    train_X: np.ndarray = None
    train_y: np.ndarray = None

    def _predict(self, X: np.ndarray) -> np.ndarray:
        pred = np.empty(len(X), dtype=np.int64)
        for start in range(0, len(X), KNN_BLOCK_ROWS):
            stop = start + KNN_BLOCK_ROWS
            pred[start:stop] = self._predict_block(X[start:stop])
        return pred

    def _predict_block(self, X: np.ndarray) -> np.ndarray:
        k = min(self.spec.k_neighbors, len(self.train_y))
        d2 = (
            np.sum(X * X, axis=1)[:, None]
            - 2.0 * (X @ self.train_X.T)
            + np.sum(self.train_X * self.train_X, axis=1)[None, :]
        )
        # the k nearest with equal distances resolved to the lowest training
        # index: everything closer than the k-th distance, then the
        # lowest-index points at that distance until k are taken
        kth = np.partition(d2, k - 1, axis=1)[:, k - 1:k]
        closer = d2 < kth
        at_kth = d2 == kth
        room = k - np.count_nonzero(closer, axis=1)
        chosen = closer | (at_kth & (np.cumsum(at_kth, axis=1) <= room[:, None]))
        pos = np.count_nonzero(chosen & (self.train_y == 1), axis=1)
        pred = np.where(2 * pos > k, 1, 0)
        ties = 2 * pos == k  # even k: fall back to the single nearest neighbour
        pred[ties] = self.train_y[np.argmin(d2[ties], axis=1)]
        return pred


@dataclass
class TreeNode:
    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    value: int | None = None

    @property
    def is_leaf(self) -> bool:
        return self.value is not None

    def used_features(self) -> set[int]:
        if self.is_leaf:
            return set()
        return {self.feature} | self.left.used_features() | self.right.used_features()


@dataclass
class TreeModel(TrainedModel):
    root: TreeNode = None

    def _predict(self, X: np.ndarray) -> np.ndarray:
        return _tree_predict(self.root, X)


@dataclass
class ForestModel(TrainedModel):
    trees: list[TreeNode] = None

    def _predict(self, X: np.ndarray) -> np.ndarray:
        votes = np.zeros(len(X), dtype=np.int64)
        for root in self.trees:
            votes += _tree_predict(root, X)
        # majority vote; an exact tie resolves to label 0
        return (2 * votes > len(self.trees)).astype(np.int64)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def train(spec: ModelSpec, X, y) -> TrainedModel:
    """Fit one model. Deterministic given spec (its seed drives all RNG)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or y.ndim != 1 or len(X) != len(y):
        raise DimensionMismatch(f"bad training shapes X={X.shape}, y={y.shape}")
    if len(y) < 2:
        raise SingleClassTraining("need at least 2 training samples")
    if not np.isfinite(X).all():
        raise NonFiniteInput("training matrix contains non-finite values")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be binary 0/1")
    if spec.family != "knn" and len(np.unique(y)) < 2:
        raise SingleClassTraining(f"{spec.family} requires both classes in y")

    if spec.family == "logr":
        return _train_logr(spec, X, y)
    if spec.family == "svm":
        return _train_svm(spec, X, y)
    if spec.family == "knn":
        return KnnModel(spec=spec, n_features=X.shape[1], train_X=X.copy(), train_y=y.copy())
    if spec.family == "tree":
        root = _grow_tree(X, y, depth=0, max_depth=spec.max_depth, max_features=None, rng=None)
        return TreeModel(spec=spec, n_features=X.shape[1], root=root)
    return _train_forest(spec, X, y)


def logistic_loss_grad(wb: np.ndarray, X: np.ndarray, y: np.ndarray,
                       lam: float) -> tuple[float, np.ndarray]:
    """L2-regularized logistic loss and its gradient at wb = [weights..., bias].

    Loss = mean(log(1 + exp(-t * (Xw + b)))) + lam/2 * ||w||^2 with t = 2y - 1;
    the bias is unregularized.
    """
    w, b = wb[:-1], wb[-1]
    t = 2.0 * y - 1.0
    margins = t * (X @ w + b)
    loss = float(np.mean(np.logaddexp(0.0, -margins)) + 0.5 * lam * (w @ w))
    s = expit(-margins)  # d loss_i / d margin_i = -s
    coef = -(s * t) / len(y)
    grad_w = X.T @ coef + lam * w
    grad_b = float(np.sum(coef))
    return loss, np.concatenate([grad_w, [grad_b]])


def _train_logr(spec: ModelSpec, X: np.ndarray, y: np.ndarray) -> LogisticModel:
    n, d = X.shape
    lam = 1.0 / (n * spec.c_value)
    Xb = np.hstack([X, np.ones((n, 1))])
    ridge = np.diag(np.r_[np.full(d, lam), 0.0])  # the bias is unregularized
    wb = np.zeros(d + 1)
    loss, grad = logistic_loss_grad(wb, X, y, lam)
    converged = False
    it = 0
    for it in range(1, LOGR_MAX_ITER + 1):
        if np.max(np.abs(grad)) < LOGR_GRAD_TOL:
            converged = True
            break
        z = Xb @ wb
        curv = expit(z) * expit(-z)  # p(1 - p), accurate for large |z|
        hess = (Xb.T * curv) @ Xb / n + ridge
        direction = np.linalg.solve(hess, grad)
        gd = float(grad @ direction)
        step = 1.0
        while step > 1e-16:  # Armijo backtracking: every accepted step lowers the loss
            cand = wb - step * direction
            cand_loss, cand_grad = logistic_loss_grad(cand, X, y, lam)
            if cand_loss <= loss - 1e-4 * step * gd:
                wb, loss, grad = cand, cand_loss, cand_grad
                break
            step *= 0.5
        else:
            break  # no descent step exists; numerically at the optimum
    else:
        it = LOGR_MAX_ITER
    if not converged:
        converged = bool(np.max(np.abs(grad)) < LOGR_GRAD_TOL)
    if not converged:
        warnings.warn(
            f"logistic regression stopped after {it} iterations with "
            f"max|grad|={np.max(np.abs(grad)):.2e}",
            DidNotConverge,
            stacklevel=2,
        )
    return LogisticModel(spec=spec, n_features=d, weights=wb[:-1],
                         bias=float(wb[-1]), converged=converged, n_iter=it)


def _train_svm(spec: ModelSpec, X: np.ndarray, y: np.ndarray) -> SvmModel:
    n = len(y)
    C = spec.c_value
    gamma = spec.gamma if spec.gamma is not None else _default_gamma(X)
    coef0 = 1.0 if spec.coef0 is None else float(spec.coef0)
    t = np.where(y == 1, 1.0, -1.0)
    K = _kernel_matrix(spec.kernel, X, X, gamma, coef0)
    K_diag = np.diag(K).copy()

    alpha = np.zeros(n)
    G = -np.ones(n)  # gradient of the dual objective at alpha = 0
    m_val = M_val = 0.0
    converged = False
    it = 0
    for it in range(1, SVM_MAX_ITER + 1):
        tG = -t * G
        up = ((t > 0) & (alpha < C)) | ((t < 0) & (alpha > 0))
        low = ((t < 0) & (alpha < C)) | ((t > 0) & (alpha > 0))
        if not up.any() or not low.any():
            converged = True
            break
        i = int(np.argmax(np.where(up, tG, -np.inf)))
        m_val = float(tG[i])
        M_val = float(np.min(tG[low]))
        if m_val - M_val <= SVM_KKT_TOL:
            converged = True
            break

        # second-order choice of j (Fan, Chen & Lin 2005, WSS 2): among the
        # low-set points that violate with i, the one whose two-coordinate
        # step lowers the dual objective most, -b^2 / a
        K_i = K[i]
        b = m_val - tG
        a = np.maximum(K_diag[i] + K_diag - 2.0 * K_i, 1e-12)
        j = int(np.argmin(np.where(low & (b > 0), -(b * b) / a, np.inf)))

        cap_i = (C - alpha[i]) if t[i] > 0 else alpha[i]
        cap_j = (C - alpha[j]) if t[j] < 0 else alpha[j]
        delta = min(b[j] / a[j], cap_i, cap_j)

        alpha[i] += t[i] * delta
        alpha[j] -= t[j] * delta
        for idx in (i, j):  # snap eliminates float residue at the box bounds
            if alpha[idx] < 1e-12:
                alpha[idx] = 0.0
            elif alpha[idx] > C - 1e-12:
                alpha[idx] = C
        G += t * delta * (K_i - K[j])  # rows: K is symmetric up to rounding

    if not converged:
        warnings.warn(
            f"SVM ({spec.kernel}) stopped after {it} iterations with "
            f"KKT violation {m_val - M_val:.2e}",
            DidNotConverge,
            stacklevel=2,
        )
    bias = (m_val + M_val) / 2.0

    sv = alpha > 1e-12
    return SvmModel(
        spec=spec,
        n_features=X.shape[1],
        support_X=X[sv].copy(),
        support_coef=(alpha * t)[sv],
        bias=float(bias),
        gamma=float(gamma),
        coef0=float(coef0),
        alpha=alpha,
        train_t=t,
        converged=converged,
        n_iter=it,
    )


def _gini_best_split(X: np.ndarray, y: np.ndarray, cols) -> tuple[int, float] | None:
    """Exhaustive midpoint search; ties resolve to the lowest column then
    the lowest threshold."""
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
            thr = 0.5 * (sv[cut[k]] + sv[cut[k] + 1])
            best = (float(weighted[k]), int(c), float(thr))
    if best is None:
        return None
    return best[1], best[2]


def _majority(y: np.ndarray) -> int:
    # exact tie resolves to label 0
    return int(2 * int(y.sum()) > len(y))


def _grow_tree(X: np.ndarray, y: np.ndarray, depth: int, max_depth: int | None,
               max_features: int | None, rng: np.random.Generator | None) -> TreeNode:
    if len(np.unique(y)) == 1:
        return TreeNode(value=int(y[0]))
    if max_depth is not None and depth >= max_depth:
        return TreeNode(value=_majority(y))

    d = X.shape[1]
    if max_features is None or max_features >= d or rng is None:
        cols = range(d)
    else:
        cols = np.sort(rng.choice(d, size=max_features, replace=False))

    split = _gini_best_split(X, y, cols)
    if split is None:
        return TreeNode(value=_majority(y))
    feature, threshold = split
    mask = X[:, feature] <= threshold
    left = _grow_tree(X[mask], y[mask], depth + 1, max_depth, max_features, rng)
    right = _grow_tree(X[~mask], y[~mask], depth + 1, max_depth, max_features, rng)
    return TreeNode(feature=feature, threshold=threshold, left=left, right=right)


def _train_forest(spec: ModelSpec, X: np.ndarray, y: np.ndarray) -> ForestModel:
    n, d = X.shape
    mtry = spec.max_features if spec.max_features is not None else math.ceil(math.sqrt(d))
    bootstrap = True if spec.bootstrap is None else spec.bootstrap
    trees = []
    for tree_idx in range(spec.trees_value):
        rng = derive_rng(spec.seed, "tree", tree_idx)
        if bootstrap:
            idx = rng.integers(0, n, size=n)
            Xt, yt = X[idx], y[idx]
        else:
            Xt, yt = X, y
        trees.append(_grow_tree(Xt, yt, depth=0, max_depth=spec.max_depth,
                                max_features=mtry, rng=rng))
    return ForestModel(spec=spec, n_features=d, trees=trees)


def _tree_predict(root: TreeNode, X: np.ndarray) -> np.ndarray:
    out = np.zeros(len(X), dtype=np.int64)
    stack = [(root, np.arange(len(X)))]
    while stack:
        node, idx = stack.pop()
        if idx.size == 0:
            continue
        if node.is_leaf:
            out[idx] = node.value
            continue
        mask = X[idx, node.feature] <= node.threshold
        stack.append((node.left, idx[mask]))
        stack.append((node.right, idx[~mask]))
    return out


# ---------------------------------------------------------------------------
# Serialization (versioned JSON; format_version is mandatory)
# ---------------------------------------------------------------------------


def _spec_to_dict(spec: ModelSpec) -> dict:
    out = {"family": spec.family, "seed": int(spec.seed)}
    for name in ("kernel", "k_neighbors", "n_trees", "max_depth", "C", "gamma",
                 "coef0", "bootstrap", "max_features"):
        v = getattr(spec, name)
        if v is not None:
            out[name] = v
    return out


def _node_to_dict(node: TreeNode) -> dict:
    if node.is_leaf:
        return {"v": int(node.value)}
    return {
        "f": int(node.feature),
        "t": float(node.threshold),
        "l": _node_to_dict(node.left),
        "r": _node_to_dict(node.right),
    }


def _node_from_dict(doc: dict) -> TreeNode:
    if "v" in doc:
        return TreeNode(value=int(doc["v"]))
    return TreeNode(
        feature=int(doc["f"]),
        threshold=float(doc["t"]),
        left=_node_from_dict(doc["l"]),
        right=_node_from_dict(doc["r"]),
    )


def model_to_dict(model: TrainedModel) -> dict:
    doc = {
        "format_version": FORMAT_VERSION,
        "family": model.spec.family,
        "spec": _spec_to_dict(model.spec),
        "n_features": int(model.n_features),
    }
    if isinstance(model, LogisticModel):
        doc["params"] = {
            "weights": model.weights.tolist(),
            "bias": model.bias,
            "converged": model.converged,
            "n_iter": model.n_iter,
        }
    elif isinstance(model, SvmModel):
        doc["params"] = {
            "support_X": model.support_X.tolist(),
            "support_coef": model.support_coef.tolist(),
            "bias": model.bias,
            "gamma": model.gamma,
            "coef0": model.coef0,
            "alpha": model.alpha.tolist(),
            "train_t": model.train_t.tolist(),
            "converged": model.converged,
            "n_iter": model.n_iter,
        }
    elif isinstance(model, KnnModel):
        doc["params"] = {"train_X": model.train_X.tolist(), "train_y": model.train_y.tolist()}
    elif isinstance(model, TreeModel):
        doc["params"] = {"root": _node_to_dict(model.root)}
    elif isinstance(model, ForestModel):
        doc["params"] = {"trees": [_node_to_dict(t) for t in model.trees]}
    else:  # pragma: no cover
        raise TypeError(f"cannot serialize {type(model).__name__}")
    return doc


def model_from_dict(doc: dict) -> TrainedModel:
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported model format_version {version!r}")
    spec = ModelSpec(**doc["spec"])
    d = int(doc["n_features"])
    p = doc["params"]
    if spec.family == "logr":
        return LogisticModel(spec=spec, n_features=d, weights=np.array(p["weights"]),
                             bias=float(p["bias"]), converged=bool(p["converged"]),
                             n_iter=int(p["n_iter"]))
    if spec.family == "svm":
        return SvmModel(spec=spec, n_features=d,
                        support_X=np.array(p["support_X"], dtype=float).reshape(-1, d),
                        support_coef=np.array(p["support_coef"], dtype=float),
                        bias=float(p["bias"]), gamma=float(p["gamma"]),
                        coef0=float(p["coef0"]),
                        alpha=np.array(p["alpha"], dtype=float),
                        train_t=np.array(p["train_t"], dtype=float),
                        converged=bool(p["converged"]), n_iter=int(p["n_iter"]))
    if spec.family == "knn":
        return KnnModel(spec=spec, n_features=d,
                        train_X=np.array(p["train_X"], dtype=float).reshape(-1, d),
                        train_y=np.array(p["train_y"], dtype=np.int64))
    if spec.family == "tree":
        return TreeModel(spec=spec, n_features=d, root=_node_from_dict(p["root"]))
    return ForestModel(spec=spec, n_features=d,
                       trees=[_node_from_dict(t) for t in p["trees"]])


def save_model(model: TrainedModel, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(model_to_dict(model)), encoding="utf-8")
    return path


def load_model(path: str | Path) -> TrainedModel:
    return model_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
