"""Model-agnostic permutation feature importance scored by macro-F1, for
several models at once on one shared set of shuffled copies."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .errors import DimensionMismatch
from .metrics import macro_f1, macro_f1_rows
from .models import predict_many
from .rng import derive_rng

# most rows passed to one predict_many call
CHUNK_ROWS = 4096


def _rng_for(seed: int, column_key: int, repeat: int) -> np.random.Generator:
    # one independent stream per (column, repeat); tests may monkeypatch this
    return derive_rng(seed, "perm", column_key, repeat)


def _predict(models: Sequence, rows: np.ndarray) -> np.ndarray:
    """Every model's labels for ``rows`` as one (models, rows) int8 array, from
    predict_many calls of at most ``CHUNK_ROWS`` rows each."""
    labels = np.empty((len(models), len(rows)), dtype=np.int8)
    for start in range(0, len(rows), CHUNK_ROWS):
        for m, pred in enumerate(predict_many(models, rows[start:start + CHUNK_ROWS])):
            labels[m, start:start + len(pred)] = pred
    return labels


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
    predicted once. The distinct rows of successive targets are predicted
    together, at most ``CHUNK_ROWS`` per call, so ``predict`` must be
    row-independent: the label of a row may not depend on the other rows
    passed with it. All five model families are in their arithmetic. At the
    bit level it holds only where OpenBLAS's row bits do not depend on the
    block height: a KNN distance and an SVM kernel value come from a matrix
    product, and with OpenBLAS 0.3.31 on x86-64 a row's bits can change with
    the number of rows multiplied with it when the training side has a
    column count that is not a multiple of 8 (seen at 300, 1199, 1204, 1206
    and 1500 training rows, not at 120 or 1200). A label can then change only
    on a near-exact tie.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=np.int64)
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
    base = (_predict(models, X) if predictions is None
            else np.array(predictions, dtype=np.int8).reshape(len(models), n))
    baselines = [macro_f1(y, pred) for pred in base]
    targets: list[tuple[str, int, tuple[int, ...]]] = [
        (name, j, (j,)) for j, name in enumerate(column_names)
    ]
    for gi, (name, cols) in enumerate(sorted((grouped_columns or {}).items())):
        targets.append((name, d + gi, tuple(int(c) for c in cols)))

    scores = np.empty((len(models), len(targets), n_repeats))
    # targets whose distinct changed rows await prediction, as
    # (target, changed mask, row of each changed entry in ``rows``, rows)
    pending: list[tuple[int, np.ndarray, np.ndarray, np.ndarray]] = []

    def flush():
        labels = _predict(models, np.concatenate([rows for *_, rows in pending]))
        offset = 0
        for t, changed, inverse, rows in pending:
            # every copy of the target: the baseline labels, changed rows relabelled
            block = np.repeat(base[:, None, :], n_repeats, axis=1)
            block[:, changed] = labels[:, offset + inverse]
            offset += len(rows)
            scores[:, t] = macro_f1_rows(y, block.reshape(-1, n)).reshape(-1, n_repeats)
        pending.clear()

    for t, (_, stream_key, cols) in enumerate(targets):
        own = X[:, cols]
        perms = np.stack([_rng_for(seed, stream_key, r).permutation(n)
                          for r in range(n_repeats)])
        new = own[perms]  # (repeat, row, column): each copy's values in cols
        changed = (new != own).any(axis=2)
        # a changed row is keyed by (row index, new values); none is left by
        # an identity shuffle or a constant column
        keys = np.column_stack([np.nonzero(changed)[1], new[changed]])
        order = np.lexsort(keys.T[::-1])  # by row index, then by the new values
        sorted_keys = keys[order]
        first = np.ones(len(keys), dtype=bool)  # first of each run of equal keys
        first[1:] = (sorted_keys[1:] != sorted_keys[:-1]).any(axis=1)
        inverse = np.empty(len(keys), dtype=np.intp)
        inverse[order] = np.cumsum(first) - 1
        distinct = sorted_keys[first]
        rows = X[distinct[:, 0].astype(np.intp)]
        rows[:, cols] = distinct[:, 1:]
        if pending and sum(len(p[-1]) for p in pending) + len(rows) > CHUNK_ROWS:
            flush()  # a target larger than CHUNK_ROWS is then split across calls
        pending.append((t, changed, inverse, rows))
    flush()

    drops = np.array(baselines)[:, None, None] - scores
    means, stds = drops.mean(axis=-1).tolist(), drops.std(axis=-1).tolist()
    return [
        {"baseline_score": float(baseline),
         "features": {name: {"mean_drop": mean[t], "std_drop": std[t], "repeats": n_repeats}
                      for t, (name, _, _) in enumerate(targets)}}
        for baseline, mean, std in zip(baselines, means, stds)
    ]
