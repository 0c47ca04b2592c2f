"""Five classifier families behind one fit/predict contract.

Logistic regression (damped Newton: a closed-form Hessian solve per step and
Armijo backtracking, so every step lowers the regularised loss), kernel SVM
(two-coordinate dual descent; the maximal violator i in the up set is paired
with the low-set j of largest second-order decrease, Fan, Chen & Lin 2005; the
solver keeps -t * gradient as two masked copies, -inf outside the up set and
+inf outside the low set, which are also its record of the two sets, and its
per-point dual values in Python floats; it builds no n x n matrix: as LIBSVM
computes kernel rows on demand, Chang & Lin 2011, §5, a kernel row is computed
when the solver first reads it and kept until the fit ends, and the diagonal
comes from square products of blocks of DIAGONAL_BLOCK rows),
k-nearest neighbours (one neighbour order per block of query rows serves every
k fit to the same arrays, see predict_many; each block of squared distances is
one matrix product, the two squared norms its last two terms; the order is
taken by k rounds of argmin, which like a stable sort resolves equal distances
to the lowest index), and CART trees (Gini, midpoint thresholds; each fit
rank-codes its columns once, one contiguous row per column, and grows every
tree of the forest in lockstep preorder without recursion: each step takes the
next node that needs a split from every unfinished tree, each node sorts its
own ranks, and the Gini of the cuts between distinct values of a step's nodes
is computed in batches of at most SPLIT_BATCH sorted values). SVM, KNN and
forest prediction and the SVM's diagonal take their rows in the blocks of one
iterator, _row_blocks, sized to BLOCK_ELEMENTS values. Both solvers stop on a
tolerance; their iteration caps are safety nets that warn with DidNotConverge.
Trees are stored as flat preorder node arrays in a ForestModel, which keep a
split's right child only, its left child being the next node: a decision tree
is a one-tree forest over every row and column, a random forest bags rows and
samples columns per node. A forest predicts without walking its trees
(QuickScorer, Lucchese et al. 2015): built once per model, its leaves are bits
of uint64 words, and per feature a table holds the cumulative AND of the masks
that clear the left-subtree leaves of its nodes in threshold order; per block
of rows, one searchsorted per feature picks each row's table row, the AND of
those leaves each tree's reachable leaves, and the lowest set bit of each
tree's segment is its exit leaf. All models are deterministic given their
ModelSpec, including the per-tree RNG streams of the forest; a ModelSpec is
built by its constructor, as ModelSpec("svm", kernel="rbf"), or from its name,
and resolves every field of its family to its effective value on
construction. This module owns the model-name format, which ModelSpec.name
writes and parse_model_name reads.
"""

from __future__ import annotations

import ast
import math
import numbers
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import (
    ConfigError,
    DidNotConverge,
    DimensionMismatch,
    NonFiniteInput,
    SingleClassTraining,
)
from .metrics import _as_binary
from .rng import derive_rng

FAMILIES = ("logr", "svm", "knn", "tree", "forest")
KERNELS = ("ln", "rbf", "p2", "p3", "p4")

LOGR_MAX_ITER = 50  # safety net; Newton needs a handful of steps
LOGR_GRAD_TOL = 1e-6
SVM_KKT_TOL = 1e-3
SVM_MAX_ITER = 200_000
# rows per square product whose diagonal gives the SVM's squared norms; at
# this size they keep the bits of X @ X.T's diagonal on the benchmark folds
DIAGONAL_BLOCK = 32
# values per block of _row_blocks: a KNN block takes as many query rows as keep
# its distances to every training row (and the selection temporaries of that
# shape) within this many, an SVM block its kernel values against every
# support vector, a forest block its leaf words
BLOCK_ELEMENTS = 1 << 17
# rank-coded elements (node rows x candidate columns) whose cuts one pass of
# _score_cuts scores; bounds its working arrays, whatever the forest's width
SPLIT_BATCH = 1 << 14


def _int(value) -> int:
    """An integer; an integral float such as 5.0 reads as one, a bool does not."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _positive_int(value) -> int:
    value = _int(value)
    if value < 1:
        raise ValueError(f"expected a positive integer, got {value!r}")
    return value


def _finite(value) -> float:
    """A finite real number as a float; a bool or a string is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


def _positive(value) -> float:
    value = _finite(value)
    if not value > 0:
        raise ValueError(f"expected a positive number, got {value!r}")
    return value


def _flag(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


# each family's fields, name -> (conversion, default). Construction resolves
# them to their effective value, so two spellings of one model compare (and
# hash) equal; gamma and max_features stay unset, as their defaults depend on
# the training data
_FAMILY_FIELDS = {
    "logr": {"C": (_positive, 1.0)},
    "svm": {"kernel": (str, None), "C": (_positive, 1.0), "gamma": (_positive, None),
            "coef0": (_finite, 1.0)},
    "knn": {"k_neighbors": (_positive_int, None)},
    "tree": {"max_depth": (_positive_int, None)},
    "forest": {"n_trees": (_positive_int, 100), "max_depth": (_positive_int, None),
               "bootstrap": (_flag, True), "max_features": (_positive_int, None)},
}
# each family's shorthand name, and the field it gives after a '-'; a name's
# [field=value,...] suffix may set each other field of the family
_SHORTHANDS = {"logr": ("logr", None), "svm": ("svm", "kernel"), "knn": ("knn", "k_neighbors"),
               "tree": ("dt", None), "forest": ("rf", None)}


@dataclass(frozen=True)
class ModelSpec:
    family: str
    kernel: str | None = None  # svm only
    k_neighbors: int | None = None  # knn only
    n_trees: int | None = None  # forest only
    max_depth: int | None = None  # tree/forest only
    C: float | None = None  # logr/svm only
    gamma: float | None = None  # svm only; None -> 1/(d * mean column variance)
    coef0: float | None = None  # svm polynomial kernels only; None for ln and rbf
    bootstrap: bool | None = None  # forest only
    max_features: int | None = None  # forest only; None -> ceil(sqrt(d))
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        allowed = _FAMILY_FIELDS[self.family]
        if self.family == "svm" and self.kernel in ("ln", "rbf"):  # only polynomials read coef0
            allowed = {k: v for k, v in allowed.items() if k != "coef0"}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in allowed:
                convert, default = allowed[f.name]
                object.__setattr__(self, f.name, default if value is None else convert(value))
            elif value is not None and f.name not in ("family", "seed"):
                kernel = f" with kernel {self.kernel!r}" if self.family == "svm" else ""
                raise ValueError(f"{f.name} is not a valid field for family "
                                 f"{self.family!r}{kernel}")
        if self.family == "svm" and self.kernel not in KERNELS:
            raise ValueError(f"svm kernel must be one of {KERNELS}, got {self.kernel!r}")
        if self.family == "knn" and self.k_neighbors is None:
            raise ValueError("knn needs k_neighbors")

    @property
    def name(self) -> str:
        short, in_name = _SHORTHANDS[self.family]
        return (short if in_name is None else f"{short}-{getattr(self, in_name)}") + self._suffix()

    @property
    def label(self) -> str:
        base = {"logr": "LogR", "svm": f"SVM-{self.kernel}".upper(),
                "knn": f"{self.k_neighbors}-NN", "tree": "DT", "forest": "RF"}[self.family]
        return base + self._suffix()

    def _suffix(self) -> str:
        """[field=value,...], values as their repr, for each field away from its
        family default; the field the shorthand gives is in the name already.
        Empty for a spec the shorthand name gives."""
        changed = [f"{k}={getattr(self, k)!r}"
                   for k, (_, default) in _FAMILY_FIELDS[self.family].items()
                   if k != _SHORTHANDS[self.family][1]
                   and getattr(self, k) not in (None, default)]
        return f"[{','.join(changed)}]" if changed else ""


def parse_model_name(name: str) -> ModelSpec:
    """The ModelSpec a name as ModelSpec.name writes it stands for; the part
    before the suffix must be spelled as that spec's name spells it. Each
    value of the [field=value,...] suffix is read as a Python literal."""
    base, bracket, suffix = name.partition("[")
    short, dash, given = base.partition("-")
    family = next((f for f, (s, _) in _SHORTHANDS.items() if s == short), None)
    in_name = family and _SHORTHANDS[family][1]
    if family is None or bool(dash) != (in_name is not None):
        raise ConfigError(f"unknown model name {name!r}")
    try:
        values = {} if in_name is None else {in_name: int(given) if family == "knn" else given}
        if bracket and not suffix.endswith("]"):
            raise ValueError("the field list must end with ']'")
        for item in suffix[:-1].split(",") if bracket else ():
            key, _, text = item.partition("=")
            if key == in_name or key not in _FAMILY_FIELDS[family]:
                raise ValueError(f"{key!r} is not a field a {family} name sets")
            if key in values:
                raise ValueError(f"{key} is given twice")
            try:
                values[key] = ast.literal_eval(text)
            except (ValueError, SyntaxError):
                raise ValueError(f"bad value {text!r} for {key}") from None
        spec = ModelSpec(family, **values)
        written = spec.name.partition("[")[0]
        if written != base:  # int() also reads knn-012, knn-+12 and knn-1_2 as knn-12
            raise ValueError(f"the name is written {written!r}")
        return spec
    except ValueError as exc:
        raise ConfigError(f"unknown model name {name!r}: {exc}") from None


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------


def _kernel_values(kernel: str, K: np.ndarray, gamma: float, coef0: float,
                   sq_a=None, sq_b=None) -> np.ndarray:
    """K, holding the dot products a.b, turned in place into the kernel values
    exp(-gamma * max(|a|^2 - 2 a.b + |b|^2, 0)) or (gamma * a.b + coef0) ** degree.
    rbf also reads |a|^2 and |b|^2, added in that order: broadcast along K's
    rows and its columns for a matrix, a scalar and a vector for one row. The
    solver's kernel rows and the blocks of SvmModel.decision_function are both
    made by this one transform."""
    if kernel == "rbf":
        K *= -2.0
        K += sq_a
        K += sq_b
        np.maximum(K, 0.0, out=K)
        K *= -gamma
        np.exp(K, out=K)
    elif kernel != "ln":
        K *= gamma
        K += coef0
        # by products: numpy's pow gives other last bits with its AVX-512 loops off
        if kernel == "p3":
            K *= K * K
        else:  # p2 squares once, p4 twice
            K *= K
            if kernel == "p4":
                K *= K
    return K


def _gram_row(X: np.ndarray, i: int) -> np.ndarray:
    """The dot products x_i . X, a new array: row 0 of [x_i; x_i] @ X.T. numpy
    would multiply one row by gemv, whose bits differ from GEMM's; at 120 and
    1,200 rows these are the bits of row i of X @ X.T (see CHANGES.md)."""
    return (X[[i, i]] @ X.T)[0].copy()  # a view would keep both rows alive


def _row_blocks(X: np.ndarray, columns: int = 0, width: int = 0, step: int | None = None):
    """Each block of X's rows, from the top, as (start, rows, A, out): the
    block's ``rows`` rows of X as A, and ``out``, a view of A's height of one
    (block, ``width``) array that every block of the call shares. A block
    takes ``step`` rows, by default as many as keep ``columns`` values a row
    within BLOCK_ELEMENTS. A lone row comes as two copies of itself, as numpy
    would multiply one row by gemv, whose bits differ from GEMM's, so a row
    predicted alone has the bits it has in a block; a caller keeps the first
    ``rows`` rows of what it computes from A."""
    if step is None:
        step = max(1, BLOCK_ELEMENTS // max(1, columns))
    # one block array per call, not one per block: unless a larger array
    # freed earlier has raised glibc's mmap threshold, each fresh array of
    # about BLOCK_ELEMENTS values is mapped and faulted in page by page
    buffer = np.empty((max(2, min(step, len(X))), width))
    for start in range(0, len(X), step):
        A = X[start:start + step]
        rows = len(A)
        yield start, rows, A if rows > 1 else A[[0, 0]], buffer[:max(2, rows)]


def _gram_diagonal(X: np.ndarray) -> np.ndarray:
    """The squared norms x_i . x_i, each from the diagonal of the square product
    of its block of DIAGONAL_BLOCK rows. Row norms summed directly have other
    bits than X @ X.T's diagonal."""
    out = np.empty(len(X))
    for start, rows, B, _ in _row_blocks(X, step=DIAGONAL_BLOCK):
        out[start:start + rows] = np.diag(B @ B.T)[:rows]
    return out


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
        return self._predict(self._checked(X))

    def _checked(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise DimensionMismatch(
                f"model was trained on {self.n_features} columns, got matrix of shape {X.shape}"
            )
        if not np.isfinite(X).all():
            raise NonFiniteInput("prediction matrix contains non-finite values")
        return X

    def _predict(self, X: np.ndarray) -> np.ndarray:
        """The sign of the decision function; KNN and forests vote instead."""
        return (self.decision_function(X) >= 0.0).astype(np.int64)


@dataclass
class LogisticModel(TrainedModel):
    weights: np.ndarray = None
    bias: float = 0.0
    converged: bool = True
    n_iter: int = 0

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """X w + b, by einsum's loop, which gives a row the same bits in a block
        of any height; gemv's (``X @ w``) change with the number of rows."""
        return np.einsum("ij,j->i", X, self.weights) + self.bias


@dataclass
class SvmModel(TrainedModel):
    support_X: np.ndarray = None
    support_coef: np.ndarray = None  # alpha_i * t_i per support vector
    bias: float = 0.0
    gamma: float = 1.0  # resolved: spec.gamma, or the default from the training data
    alpha: np.ndarray = None  # full dual vector, kept for feasibility checks
    train_t: np.ndarray = None
    converged: bool = True
    n_iter: int = 0
    kkt_gap: float = 0.0  # the solver's last m - M; 0.0 when it stopped on an empty set

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Each block of rows' kernel values against the support vectors (see
        _row_blocks), times their coefficients by einsum's loop, plus the bias.
        The loop's row bits do not depend on the block; the kernel block's can:
        it is a GEMM, whose row bits change with the block height when the
        support-vector count is not a multiple of 8 (see permutation_importance)."""
        S, rbf = self.support_X, self.spec.kernel == "rbf"
        sq_s = np.sum(S * S, axis=1) if rbf else None
        out = np.empty(len(X))
        # S.T, the transposed view: a C-contiguous copy can change the bits
        for start, rows, A, block in _row_blocks(X, len(S), len(S)):
            K = _kernel_values(self.spec.kernel, np.matmul(A, S.T, out=block), self.gamma,
                               self.spec.coef0, np.sum(A * A, axis=1)[:, None] if rbf else None,
                               sq_s)
            out[start:start + rows] = (np.einsum("ij,j->i", K, self.support_coef)
                                       + self.bias)[:rows]
        return out


@dataclass
class KnnModel(TrainedModel):
    # the arrays train was given, not copies: predict_many shares one pass
    # among the KNN models fit to the same ones
    train_X: np.ndarray = None
    train_y: np.ndarray = None

    def _predict(self, X: np.ndarray) -> np.ndarray:
        return _knn_votes(self.train_X, self.train_y, X, [self.spec.k_neighbors])[0]


def _nearest(d2: np.ndarray, kmax: int) -> np.ndarray:
    """Each row's first ``kmax`` column indices in (distance, index) order,
    the order a stable argsort of the row gives. Overwrites ``d2``."""
    rows = np.arange(len(d2))
    idx = np.empty((len(d2), kmax), dtype=np.intp)
    dist = np.empty((len(d2), kmax))
    for r in range(kmax):  # argmin takes the lowest index among equal minima
        idx[:, r] = np.argmin(d2, axis=1)
        dist[:, r] = d2[rows, idx[:, r]]
        d2[rows, idx[:, r]] = np.inf
    # a pick of inf or nan (overflow on huge finite inputs) can repeat an
    # index; such a row gets its distances back and a stable sort instead
    bad = np.flatnonzero(~np.isfinite(dist).all(axis=1))
    if bad.size:
        for r in reversed(range(kmax)):  # the first pick of an index wins
            d2[bad, idx[bad, r]] = dist[bad, r]
        idx[bad] = np.argsort(d2[bad], axis=1, kind="stable")[:, :kmax]
    return idx


def _knn_votes(train_X: np.ndarray, train_y: np.ndarray, X: np.ndarray,
               ks: list[int]) -> list[np.ndarray]:
    """Labels of X by majority vote of the k nearest training rows, for each
    k in ``ks``, from one distance block and one neighbour order per block of
    query rows (see BLOCK_ELEMENTS). Equal distances resolve to the lowest
    training index; an even-k vote tie takes the nearest neighbour's label."""
    ks = [min(k, len(train_y)) for k in ks]
    n, d = train_X.shape
    # |b|^2 - 2 b.x + |x|^2 as one product [b, |b|^2, 1] @ [-2 x^T; 1; |x|^2],
    # whose last two terms stand for the two broadcast adds. With OpenBLAS
    # 0.3.31 the bits equal those adds' at 120 and 1,200 training rows; other
    # sizes or BLAS builds can differ in the last place (see CHANGES.md).
    # -2 x^T: a power of two commutes with rounding, so B @ (-2 x^T) equals
    # -2 (B @ x^T) bit for bit, barring overflow and subnormals
    W = np.empty((d + 2, n))
    np.multiply(train_X.T, -2.0, out=W[:d])
    W[d] = 1.0
    np.sum(train_X * train_X, axis=1, out=W[d + 1])
    preds = [np.empty(len(X), dtype=np.int64) for _ in ks]
    for start, rows, B, Q in _row_blocks(X, n, d + 2):  # Q: the block's [b, |b|^2, 1]
        Q[:, :d] = B
        np.sum(B * B, axis=1, out=Q[:, d])
        Q[:, d + 1] = 1.0
        votes = train_y[_nearest((Q @ W)[:rows], max(ks))]
        pos = np.cumsum(votes, axis=1)
        for pred, k in zip(preds, ks):
            twice = 2 * pos[:, k - 1]
            pred[start:start + rows] = np.where(twice == k, votes[:, 0], twice > k)
    return preds


def predict_many(models: Sequence[TrainedModel], X) -> list[np.ndarray]:
    """Each model's labels for X, equal to its own ``predict``. KNN models fit
    to the same training arrays (``train`` keeps them uncopied) share one
    distance block and one neighbour order; every other model goes through
    ``TrainedModel.predict``."""
    out: list = [None] * len(models)
    groups: dict[tuple[int, int], list[int]] = {}  # KNN models by their training arrays
    for i, m in enumerate(models):
        if isinstance(m, KnnModel):
            groups.setdefault((id(m.train_X), id(m.train_y)), []).append(i)
        else:
            out[i] = m.predict(X)
    for group in groups.values():
        first = models[group[0]]
        preds = _knn_votes(first.train_X, first.train_y, first._checked(X),
                           [models[i].spec.k_neighbors for i in group])
        for i, pred in zip(group, preds):
            out[i] = pred
    return out


@dataclass
class ForestModel(TrainedModel):
    """Tree ensemble as flat node arrays; a decision tree is a one-tree forest.

    Tree t starts at node roots[t] and lies in preorder after it, so a split's
    left child is the next node. Node i sends a row left, to node i + 1, when
    X[:, feature[i]] <= threshold[i], and right to node right[i]; a leaf has
    feature -1 and right -1, and predicts value[i] (every node stores its
    majority label). Construction compiles the arrays, which stay the model,
    to the packed leaf bitvectors that predict reads (see _leaf_bitvectors).
    """

    feature: np.ndarray = None
    threshold: np.ndarray = None
    right: np.ndarray = None
    value: np.ndarray = None
    roots: np.ndarray = None
    _bits: tuple = field(init=False, repr=False, compare=False)  # see _leaf_bitvectors

    def __post_init__(self):
        self._bits = _leaf_bitvectors(self.feature, self.threshold, self.right, self.value,
                                      self.roots, self.n_features)

    def _predict(self, X: np.ndarray) -> np.ndarray:
        below, positive, wide, groups = self._bits
        out = np.empty(len(X), dtype=np.int64)
        for start, rows, B, _ in _row_blocks(X, len(below)):
            parts = []  # per group, each row's reachable leaves
            for (f, thresholds, table), *rest in groups:
                words = table.take(thresholds.searchsorted(B[:, f]), axis=0)
                for f, thresholds, table in rest:
                    words &= table.take(thresholds.searchsorted(B[:, f]), axis=0)
                parts.append(words)
            acc = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
            # each segment's lowest set bit: acc & ~(acc - S), S the first bit
            # of each segment, and ~(acc - S) is (S - 1) - acc modulo 2**64. A
            # segment that shares its word keeps a bit (its tree's exit leaf),
            # so no borrow crosses into the next; a wider tree's word may be
            # empty, and gives 0
            exits = below - acc
            exits &= acc
            if wide is not None:
                _first_nonzero_words(exits, *wide)
            exits &= positive
            counts = np.bitwise_count(exits)
            # a row sum over a single word costs more than the count itself
            votes = counts[:, 0] if counts.shape[1] == 1 else counts.sum(axis=1)
            out[start:start + rows] = (votes > len(self.roots) // 2)[:rows]  # a tie is 0
        return out


# _LOW_BITS[k]: a word whose k lowest bits are set, for k from 0 to 64; _BIT[k]:
# a word of bit k alone
_LOW_BITS = np.array([(1 << k) - 1 for k in range(65)], dtype=np.uint64)
_BIT = _LOW_BITS[1:] ^ _LOW_BITS[:-1]


def _leaf_bitvectors(feature: np.ndarray, threshold: np.ndarray, right: np.ndarray,
                     value: np.ndarray, roots: np.ndarray, n_features: int) -> tuple:
    """A forest's node arrays in the form ForestModel._predict reads (QuickScorer,
    Lucchese et al. 2015): each tree's leaves, in preorder, as consecutive bits
    of uint64 words. Trees of at most 64 leaves pack into one word each, next
    fit; a wider tree takes whole words of its own, each word a segment of its
    own. Returns (below, positive, wide, groups):

    - below, positive: per word, the first bit of each segment minus one, and
      the bits of the leaves that vote 1;
    - wide: None, or (words, first) for the trees wider than a word: their
      words in order, and per word the position in ``words`` of its tree's
      first word;
    - groups: per run of consecutive words, holding whole trees or whole words
      of one wider tree, so that its tables take about BLOCK_ELEMENTS words at
      most, a list of (f, thresholds, T), at least one. For each feature f of
      an internal node whose left-subtree leaves meet the run, the thresholds
      of those nodes sorted; T[k] is the run's leaves with the left-subtree
      leaves of the first k cleared. A row fails the test ``x <= threshold``
      of exactly the first ``thresholds.searchsorted(x[f])``. A run no such
      node meets has one table of no threshold."""
    leaf = feature < 0
    n_leaves = np.add.reduceat(leaf.astype(np.int64), roots)
    starts, bit = [], 0
    for n in n_leaves.tolist():
        if bit % 64 + n > 64:  # start a new word
            bit += -bit % 64
        starts.append(bit)
        bit += n if n <= 64 else n + -n % 64
    n_words = -(-bit // 64)
    # pos[i]: the bit of the first leaf at or after node i in its tree's preorder
    before = leaf.cumsum() - leaf
    sizes = np.append(roots[1:], len(feature)) - roots
    pos = before + (np.array(starts) - before[roots]).repeat(sizes)
    word, shift = np.divmod(pos[leaf], 64)
    leaves = _LOW_BITS[np.bincount(word, minlength=n_words)]  # words fill from bit 0
    positive = np.zeros(n_words, dtype=np.uint64)
    ones = value[leaf] == 1
    np.bitwise_or.at(positive, word[ones], _BIT[shift[ones]])

    per_tree = -(-n_leaves // 64)  # words of a wider tree; 1 for the rest
    nth = np.arange(per_tree.sum()) - np.repeat(per_tree.cumsum() - per_tree, per_tree)
    seg_word, seg_shift = np.divmod(np.repeat(starts, per_tree) + 64 * nth, 64)
    segments = np.zeros(n_words, dtype=np.uint64)
    np.bitwise_or.at(segments, seg_word, _BIT[seg_shift])
    wide = None
    if (per_tree > 1).any():
        in_wide = np.repeat(per_tree > 1, per_tree)
        k = per_tree[per_tree > 1]
        wide = seg_word[in_wide], np.repeat(k.cumsum() - k, k)

    split = (~leaf).nonzero()[0]  # node i clears its left subtree, bits [pos[i], pos[right[i]])
    first_w, last_w = pos[split] // 64, (pos[right[split]] - 1) // 64
    # nodes meeting words [a, b): first_w < b minus last_w < a, as last_w >= first_w
    opened = np.bincount(first_w + 1, minlength=n_words + 1).cumsum().tolist()
    closed = np.bincount(last_w + 1, minlength=n_words + 1).cumsum().tolist()
    bounds, a = [], 0
    for b in range(2, n_words + 1):  # grow a run word by word
        if (opened[b] - closed[a] + n_features) * (b - a) > BLOCK_ELEMENTS:
            bounds.append((a, b - 1))
            a = b - 1
    bounds.append((a, n_words))
    groups = []
    for a, b in bounds:
        sel = split[((first_w < b) & (last_w >= a)).nonzero()[0]]
        sel = sel[np.lexsort((threshold[sel], feature[sel]))]
        bit0 = 64 * np.arange(a, b)
        # per node and word: the low bits below its cleared bits, and below their end
        lo = np.minimum(np.maximum(pos[sel, None] - bit0, 0), 64)
        hi = np.minimum(np.maximum(pos[right[sel], None] - bit0, 0), 64)
        masks = ~(_LOW_BITS[hi] & ~_LOW_BITS[lo])
        feats = feature[sel]
        edges = [0, *((feats[1:] != feats[:-1]).nonzero()[0] + 1).tolist(), len(sel)]
        tables = []
        for i, j in zip(edges[:-1], edges[1:]):  # with no node, one table of no threshold
            table = np.bitwise_and.accumulate(np.concatenate((leaves[None, a:b], masks[i:j])))
            tables.append((int(feats[i]) if j > i else 0, threshold[sel[i:j]], table))
        groups.append(tables)
    return segments - 1, positive, wide, groups


def _first_nonzero_words(exits: np.ndarray, words: np.ndarray, first: np.ndarray) -> None:
    """Zero, in place, every word of a wider tree (see _leaf_bitvectors) after
    the tree's first non-zero word, which holds its exit leaf."""
    E = exits[:, words]
    seen = np.cumsum(E != 0, axis=1)
    seen -= seen[:, first] - (E[:, first] != 0)  # non-zero words so far within the tree
    exits[:, words] = np.where(seen == 1, E, 0)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def train(spec: ModelSpec, X, y) -> TrainedModel:
    """Fit one model. Deterministic given spec (its seed drives all RNG)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if X.ndim != 2 or y.ndim != 1 or len(X) != len(y):
        raise DimensionMismatch(f"bad training shapes X={X.shape}, y={y.shape}")
    if len(y) < 2:
        raise SingleClassTraining("need at least 2 training samples")
    if not np.isfinite(X).all():
        raise NonFiniteInput("training matrix contains non-finite values")
    y = _as_binary("training labels", y)
    if spec.family != "knn" and len(np.unique(y)) < 2:
        raise SingleClassTraining(f"{spec.family} requires both classes in y")

    if spec.family == "logr":
        return _train_logr(spec, X, y)
    if spec.family == "svm":
        return _train_svm(spec, X, y)
    if spec.family == "knn":
        return KnnModel(spec=spec, n_features=X.shape[1], train_X=X, train_y=y)
    if spec.family == "tree":  # one tree over every column, fit to every row
        return _train_forest(spec, X, y, n_trees=1, bootstrap=False, max_features=X.shape[1])
    return _train_forest(spec, X, y, spec.n_trees, spec.bootstrap,
                         spec.max_features or math.ceil(math.sqrt(X.shape[1])))


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
    s = np.exp(-np.logaddexp(0.0, margins))  # sigmoid(-margin); d loss_i / d margin_i = -s
    coef = -(s * t) / len(y)
    grad_w = X.T @ coef + lam * w
    grad_b = float(np.sum(coef))
    return loss, np.concatenate([grad_w, [grad_b]])


def _train_logr(spec: ModelSpec, X: np.ndarray, y: np.ndarray) -> LogisticModel:
    n, d = X.shape
    lam = 1.0 / (n * spec.C)
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
        # p(1 - p) in log space, accurate for large |z|
        curv = np.exp(-np.logaddexp(0.0, -z) - np.logaddexp(0.0, z))
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
    C = spec.C
    gamma = spec.gamma if spec.gamma is not None else _default_gamma(X)
    kernel, coef0 = spec.kernel, spec.coef0
    # the solver reads few rows of the kernel matrix (a tenth to a quarter of
    # them on the benchmark folds), so no n x n matrix is built: kernel row i
    # is computed when the solver first reads it and kept until the fit ends
    sq = np.sum(X * X, axis=1) if kernel == "rbf" else None
    K_diag = _kernel_values(kernel, _gram_diagonal(X), gamma, coef0, sq, sq)
    rows: dict[int, np.ndarray] = {}

    def row(i: int) -> np.ndarray:
        K_i = rows.get(i)
        if K_i is None:
            K_i = rows[i] = _kernel_values(kernel, _gram_row(X, i), gamma, coef0,
                                           None if sq is None else sq[i], sq)
        return K_i

    t_arr = np.where(y == 1, 1.0, -1.0)
    t = t_arr.tolist()
    alpha = [0.0] * n
    # -t * G, G the gradient of the dual objective (G = -1 at alpha = 0), kept
    # as two masked copies: on the up set, where alpha * t may still rise, and
    # -inf elsewhere; on the low set, where it may still fall, and +inf
    # elsewhere. The masks are the sets; every point is in one at least
    tG_up, tG_low = np.where(t_arr > 0, t_arr, -np.inf), np.where(t_arr < 0, t_arr, np.inf)
    a, v, step = np.empty(n), np.empty(n), np.empty(n)
    m_val = M_val = gap = 0.0
    inf = math.inf  # a local name: the loop reads it several times a step
    converged = False
    it = 0
    for it in range(1, SVM_MAX_ITER + 1):
        i = int(tG_up.argmax())
        m = float(tG_up[i])
        M = float(tG_low[tG_low.argmin()])  # faster than min(); a NaN is kept
        if m == -inf or M == inf:  # an empty set; the bias keeps the last m, M
            converged, gap = True, 0.0
            break
        m_val, M_val = m, M
        gap = m_val - M_val
        if gap <= SVM_KKT_TOL:
            converged = True
            break

        # second-order choice of j (Fan, Chen & Lin 2005, WSS 2): among the
        # low-set points that violate with i (b = m - tG > 0), the one whose
        # two-coordinate step lowers the dual objective most, by b^2 / a. The
        # clamp gives every other point 0, below the winner's b^2 / a, as
        # b >= m - M > SVM_KKT_TOL there
        K_i = row(i)
        np.add(K_diag, K_diag[i], out=a)  # a = K_ii + K_jj - 2 K_ij for every j
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
        delta = min((m_val - float(tG_low[j])) / float(a[j]), cap_i, cap_j)

        alpha[i] += t[i] * delta
        alpha[j] -= t[j] * delta
        # -t times the gradient step G += t * delta * (K_i - K[j]), exact as t
        # is +-1; rows, as K is symmetric up to rounding
        np.subtract(K_i, row(j), out=step)
        np.multiply(step, delta, out=step)
        np.subtract(tG_up, step, out=tG_up)
        np.subtract(tG_low, step, out=tG_low)
        for idx in (i, j):  # snap eliminates float residue at the box bounds
            if alpha[idx] < 1e-12:
                alpha[idx] = 0.0
            elif alpha[idx] > C - 1e-12:
                alpha[idx] = C
            below, above = alpha[idx] < C, alpha[idx] > 0
            in_up, in_low = (below, above) if t[idx] > 0 else (above, below)
            g_up, g_low = tG_up.item(idx), tG_low.item(idx)
            was_up = g_up != -inf  # not > -inf: a NaN stays in its set
            if in_up != was_up or in_low != (g_low != inf):
                g = g_up if was_up else g_low
                tG_up[idx], tG_low[idx] = (g if in_up else -inf), (g if in_low else inf)

    if not converged:
        warnings.warn(
            f"SVM ({kernel}) stopped after {it} iterations with KKT violation {gap:.2e}",
            DidNotConverge,
            stacklevel=2,
        )
    bias = (m_val + M_val) / 2.0

    alpha = np.array(alpha)
    sv = alpha > 1e-12
    return SvmModel(
        spec=spec,
        n_features=X.shape[1],
        support_X=X[sv],
        support_coef=(alpha * t_arr)[sv],
        bias=float(bias),
        gamma=float(gamma),
        alpha=alpha,
        train_t=t_arr,
        converged=converged,
        n_iter=it,
        kkt_gap=gap,
    )


def _rank_code(X: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """X as dense ranks R, one contiguous row per column of X (uint16 when they
    fit), and each column's sorted distinct values: ``vals[c][R[c]] == X[:, c]``."""
    vals, ranks = zip(*(np.unique(col, return_inverse=True) for col in X.T))
    dtype = np.uint16 if max(len(v) for v in vals) <= 1 << 16 else np.intp
    return np.vstack(ranks).astype(dtype), list(vals)


def _best_splits(R: np.ndarray, y: np.ndarray, vals: list[np.ndarray],
                 nodes: Sequence[tuple[np.ndarray, np.ndarray]]) -> list[tuple | None]:
    """The best Gini cut of each node (rows, cols) over rank-coded rows (see
    _rank_code): rows index the columns of R and y, with repeats for a bootstrap
    bag, and cols are the node's sorted candidate columns. Each node sorts its
    own ranks; the sorted elements of consecutive nodes are scored together,
    SPLIT_BATCH at a time (see _score_cuts). Per node, None when every candidate
    column is constant on its rows, else (feature, threshold, left rows, right
    rows, positives among the left rows)."""
    out: list = []
    batch, size = [], 0
    for rows, cols in nodes:
        Rc = R[cols].take(rows, axis=1)
        order = Rc.argsort(axis=1, kind="stable")  # ranks: the same order as the values
        Rc.sort(axis=1, kind="stable")
        batch.append((cols, Rc, rows[order]))
        size += Rc.size
        if size >= SPLIT_BATCH:  # score now, so the sorted copies of all nodes never coexist
            out += _score_cuts(batch, y, vals)
            batch, size = [], 0
    return out + _score_cuts(batch, y, vals) if batch else out


def _score_cuts(batch: list[tuple[np.ndarray, np.ndarray, np.ndarray]], y: np.ndarray,
                vals: list[np.ndarray]) -> list[tuple | None]:
    """_best_splits of nodes given as (cols, sorted ranks, rows in that order),
    one row per column: the weighted Gini of every cut between distinct values
    in one pass over the nodes' concatenated columns, then per node its first
    minimum, so ties go to the lowest column, then the lowest threshold."""
    sr = np.concatenate([s.ravel() for _, s, _ in batch])
    width = np.repeat([s.shape[1] for _, s, _ in batch], [len(cols) for cols, _, _ in batch])
    end = width.cumsum()  # one segment of sorted elements per (node, column)
    cy = np.zeros(len(sr) + 1, dtype=np.int64)  # cy[p]: positives among the first p
    np.cumsum(y[np.concatenate([o.ravel() for _, _, o in batch])], out=cy[1:])
    cut = sr[1:] > sr[:-1]  # cut[p]: a cut after element p
    cut[end[:-1] - 1] = False  # none between segments
    at = cut.nonzero()[0]
    upto = at.searchsorted(end)  # cuts up to the end of each segment
    per_seg = upto.copy()
    per_seg[1:] -= upto[:-1]
    start = end - width
    base = cy[start].repeat(per_seg)
    nl = (at - (start - 1).repeat(per_seg)).astype(float)  # left size of each cut
    nr = ((end - 1).repeat(per_seg) - at).astype(float)
    n = nl + nr
    lpos = cy[at + 1] - base
    pl = lpos / nl
    pr = (cy[end].repeat(per_seg) - base - lpos) / nr
    weighted = (nl * 2.0 * pl * (1.0 - pl) + nr * 2.0 * pr * (1.0 - pr)) / n
    out: list = []
    upto = upto.tolist()
    lo = seg = first = 0  # a node's first cut, segment and element
    for cols, s, o in batch:
        seg += len(cols)
        hi = upto[seg - 1]
        if hi == lo:
            out.append(None)
        else:
            w = lo + int(weighted[lo:hi].argmin())  # the first minimum
            c, r = divmod(int(at[w]) - first, s.shape[1])
            f = int(cols[c])
            lo_val, hi_val = float(vals[f][s[c, r]]), float(vals[f][s[c, r + 1]])
            mid = 0.5 * (lo_val + hi_val)  # a midpoint rounded onto hi would send hi left
            threshold = mid if mid < hi_val else lo_val
            # the children: rank <= rank(lo) exactly when value <= threshold,
            # as lo <= threshold < hi; copies, so a pending child does not
            # keep the node's sorted rows alive
            out.append((f, threshold, o[c, :r + 1].copy(), o[c, r + 1:].copy(), int(lpos[w])))
        lo = hi
        first += s.size
    return out


def _train_forest(spec: ModelSpec, X: np.ndarray, y: np.ndarray, n_trees: int,
                  bootstrap: bool, max_features: int) -> ForestModel:
    """Every tree grown in lockstep, without recursion: each step takes from
    each unfinished tree the next node in its preorder that needs a split, and
    scores those nodes together. Tree t draws its bag and then each such node's
    candidate columns from its own stream as it takes the node, so every stream
    is read in its tree's preorder, as when trees grow one at a time."""
    n, d = X.shape
    R, vals = _rank_code(X)
    every = np.arange(d)
    # a stream only for a fit that draws from it: a decision tree reads none
    rngs = ([derive_rng(spec.seed, "tree", tree_idx) for tree_idx in range(n_trees)]
            if bootstrap or max_features < d else [None] * n_trees)
    bags = (rng.integers(0, n, size=n) if bootstrap else np.arange(n) for rng in rngs)
    # per tree, the nodes still to grow, the next in preorder on top: (rows,
    # positives, depth, the parent whose right child this is, or -1)
    stacks = [[(bag, int(y[bag].sum()), 0, -1)] for bag in bags]
    trees: list[list] = [[] for _ in rngs]  # [feature, threshold, right, value] rows
    live = list(range(n_trees))
    while live:
        step, todo = [], []
        for t in live:
            nodes, stack = trees[t], stacks[t]
            while stack:
                rows, pos, depth, parent = stack.pop()
                node = len(nodes)
                if parent >= 0:
                    nodes[parent][2] = node
                nodes.append([-1, 0.0, -1, int(2 * pos > len(rows))])  # majority; a tie is 0
                if 0 < pos < len(rows) and (spec.max_depth is None or depth < spec.max_depth):
                    cols = every if max_features >= d else np.sort(
                        rngs[t].choice(d, size=max_features, replace=False))
                    step.append((t, node, pos, depth))
                    todo.append((rows, cols))
                    break
        for (t, node, pos, depth), split in zip(step, _best_splits(R, y, vals, todo)):
            if split is not None:
                feature, threshold, left, right, left_pos = split
                trees[t][node][:2] = feature, threshold
                stacks[t] += [(right, pos - left_pos, depth + 1, node),
                              (left, left_pos, depth + 1, -1)]
        live = [t for t in live if stacks[t]]

    sizes = [len(nodes) for nodes in trees]
    roots = np.cumsum([0] + sizes[:-1])
    feature, threshold, right, value = (
        np.array(col) for col in zip(*(node for nodes in trees for node in nodes)))
    right = np.where(right < 0, right, right + np.repeat(roots, sizes))  # tree-local to global
    return ForestModel(spec=spec, n_features=d, feature=feature, threshold=threshold,
                       right=right, value=value, roots=roots)
