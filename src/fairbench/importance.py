"""Model-agnostic permutation feature importance scored by macro-F1, for
several models at once on one shared set of shuffled copies."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .errors import DimensionMismatch
# macro_f1 is no longer called here, but perfbench/spans.py patches it by name (ROADMAP item 1)
from .metrics import _as_binary, confusion_counts, macro_f1, macro_f1_from_counts
from .models import predict_many
from .rng import derive_rng

# most pending rows: a target that would take the pending rows beyond this
# many sends those before it to predict_many first
CHUNK_ROWS = 4096


def _rng_for(seed: int, column_key: int, repeat: int) -> np.random.Generator:
    # one independent stream per (column, repeat); tests may monkeypatch this
    return derive_rng(seed, "perm", column_key, repeat)


def _changed_rows(X: np.ndarray, cols: tuple[int, ...],
                  perms: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(changed, inverse, rows) of the shuffles ``perms`` (repeat, row) of the
    columns ``cols``: which entries change a row, the position in ``rows`` of
    each, and each distinct (row, new values) once, by row, then new values."""
    if len(cols) == 1:
        values, cls = np.unique(X[:, cols[0]], return_inverse=True)
    else:  # unique rows are slower than unique values, so only for a group
        values, cls = np.unique(X[:, cols], axis=0, return_inverse=True)
    new = cls[perms]  # each copy's value class, classes in value order
    changed = new != cls  # none for an identity shuffle or a constant column
    # keyed by (row, new class), the keys sort by row and then by new values
    keys = (np.arange(len(X)) * len(values) + new)[changed]
    distinct, inverse = np.unique(keys, return_inverse=True)
    row, new_cls = np.divmod(distinct, len(values))
    rows = X[row]
    rows[:, cols] = values[new_cls].reshape(len(rows), len(cols))
    return changed, inverse, rows


def permutation_importance(
    models: Sequence,
    X,
    y,
    n_repeats: int = 10,
    seed: int = 0,
    column_names: tuple[str, ...] | None = None,
    grouped_columns: dict[str, tuple[int, ...]] | None = None,
    predictions: Sequence[np.ndarray] | None = None,
) -> list[dict]:
    """Score drop of each model after shuffling each column, averaged over
    ``n_repeats``; one record per model, in the order given:
    ``{"baseline_score", "features": {name: {"mean_drop", "std_drop", "repeats"}}}``.

    Each (column, repeat) pair draws its own permutation stream, so results do
    not depend on evaluation order, and every model scores the same shuffled
    copies: differences between models are paired comparisons on identical
    perturbations. ``grouped_columns`` adds entries whose listed columns are
    shuffled jointly with a single permutation (used to report one-hot blocks
    as a single feature). ``predictions``, when given, are the models' labels
    for the unshuffled X, which the baselines then reuse. The caller's X is
    never mutated.

    Only the changed rows of a shuffled copy are predicted: a row whose
    shuffled values equal its own keeps its baseline label, and a changed row
    that recurs in several repeats of a target (same row, same new values) is
    predicted once. A copy is scored from the baseline's confusion counts and
    the cells its flipped labels move between. The distinct rows of successive
    targets are predicted together, in one predict_many call per
    ``CHUNK_ROWS`` rows (or per target larger than that), and each model cuts
    them into the blocks of one iterator, models._row_blocks. So ``predict``
    must be row-independent: the label of a row may not depend on the other
    rows passed with it. All five model families are in their arithmetic, but
    not at the bit level. A KNN distance and an SVM kernel value come from a
    matrix product (GEMM), and with OpenBLAS 0.3.31 on x86-64 a row's bits can
    change with the number of rows multiplied with it when the training side
    has a column count that is not a multiple of 8 (seen at 300, 1199, 1204,
    1206 and 1500 training rows, not at 120 or 1200). A one-row block would go
    to gemv, the matrix-vector product, whose bits differ from GEMM's, so the
    iterator makes a lone row a block of two. The products that finish the SVM
    and logistic decisions are einsum loops, whose row bits do not change with
    the block height; gemv's did, at every size tried. A label can change only
    on a near-exact tie.
    """
    X = np.asarray(X, dtype=float)
    y = _as_binary("y", y)
    for model in models:
        if X.ndim != 2 or X.shape[1] != model.n_features:
            raise DimensionMismatch(
                f"model expects {model.n_features} columns, got matrix of shape {X.shape}"
            )
    if n_repeats < 1:
        raise ValueError("n_repeats must be >= 1")
    d = X.shape[1]
    if column_names is None:
        column_names = tuple(f"x{j}" for j in range(d))
    if len(column_names) != d:
        raise DimensionMismatch(f"{len(column_names)} names for {d} columns")

    n = len(y)
    base = np.array(predict_many(models, X) if predictions is None else predictions,
                    dtype=np.int8).reshape(len(models), n)
    _, base_counts = confusion_counts(y, base)  # (model, 1, cell)
    targets: list[tuple[str, int, tuple[int, ...]]] = [
        (name, j, (j,)) for j, name in enumerate(column_names)
    ]
    for gi, (name, cols) in enumerate(sorted((grouped_columns or {}).items())):
        targets.append((name, d + gi, tuple(int(c) for c in cols)))

    # flips[model, target, repeat, cell]: changed entries whose label left that cell
    flips = np.zeros((len(models), len(targets), n_repeats, 4), dtype=np.int64)
    # targets whose distinct changed rows await prediction, as
    # (target, changed mask, row of each changed entry in ``rows``, rows)
    pending: list[tuple[int, np.ndarray, np.ndarray, np.ndarray]] = []

    def flush():
        batch = np.concatenate([rows for *_, rows in pending])
        labels = np.array(predict_many(models, batch) if len(batch) else [],
                          dtype=np.int8).reshape(len(models), len(batch))
        index, offset = [], 0
        for t, changed, inverse, rows in pending:
            repeat, row = np.nonzero(changed)  # each changed entry, in mask order
            m, k = np.nonzero(labels[:, offset + inverse] != base[:, row])  # its flips
            index.append(((m * len(targets) + t) * n_repeats + repeat[k]) * 4
                         + 2 * y[row[k]] + base[m, row[k]])
            offset += len(rows)
        flips[:] += np.bincount(np.concatenate(index), minlength=flips.size).reshape(flips.shape)
        pending.clear()

    for t, (_, stream_key, cols) in enumerate(targets):
        perms = np.stack([_rng_for(seed, stream_key, r).permutation(n)
                          for r in range(n_repeats)])
        changed, inverse, rows = _changed_rows(X, cols, perms)
        if pending and sum(len(p[-1]) for p in pending) + len(rows) > CHUNK_ROWS:
            flush()  # a target larger than CHUNK_ROWS is then predicted alone
        pending.append((t, changed, inverse, rows))
    flush()

    baselines = macro_f1_from_counts(base_counts[:, 0])
    # a flip moves a count from its cell 2 * truth + label to the other label's
    drops = baselines[:, None, None] - macro_f1_from_counts(
        base_counts[:, None] + flips[..., [1, 0, 3, 2]] - flips)
    means, stds = drops.mean(axis=-1).tolist(), drops.std(axis=-1).tolist()
    return [
        {"baseline_score": float(baseline),
         "features": {name: {"mean_drop": mean[t], "std_drop": std[t], "repeats": n_repeats}
                      for t, (name, _, _) in enumerate(targets)}}
        for baseline, mean, std in zip(baselines, means, stds)
    ]
