"""Model-agnostic permutation feature importance scored by macro-F1, for
several models at once on one shared set of shuffled copies."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .errors import DimensionMismatch
from .metrics import macro_f1, macro_f1_rows
from .models import predict_many
from .rng import derive_rng

# rows of stacked shuffled copies per predict call; a copy with more rows is
# predicted alone
CHUNK_ROWS = 1024


def _rng_for(seed: int, column_key: int, repeat: int) -> np.random.Generator:
    # one independent stream per (column, repeat); tests may monkeypatch this
    return derive_rng(seed, "perm", column_key, repeat)


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

    The shuffled copies are stacked ``CHUNK_ROWS`` rows at a time, and each
    chunk is built once and predicted by every model, so ``predict`` must be
    row-independent: the label of a row may not depend on the other rows
    passed with it. All five model families are.
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

    if predictions is None:
        predictions = predict_many(models, X)
    baselines = [macro_f1(y, pred) for pred in predictions]
    targets: list[tuple[str, int, tuple[int, ...]]] = [
        (name, j, (j,)) for j, name in enumerate(column_names)
    ]
    for gi, (name, cols) in enumerate(sorted((grouped_columns or {}).items())):
        targets.append((name, d + gi, tuple(int(c) for c in cols)))

    # one copy per (target, repeat), in that order
    n = len(y)
    copies = [(cols, _rng_for(seed, stream_key, r).permutation(n))
              for _, stream_key, cols in targets for r in range(n_repeats)]
    per_chunk = max(1, CHUNK_ROWS // n)
    scores = np.empty((len(models), len(copies)))
    for start in range(0, len(copies), per_chunk):
        chunk = copies[start:start + per_chunk]
        stacked = np.tile(X, (len(chunk), 1))
        for i, (cols, perm) in enumerate(chunk):
            stacked[i * n:(i + 1) * n, cols] = X[np.ix_(perm, cols)]
        for m, pred in enumerate(predict_many(models, stacked)):
            scores[m, start:start + len(chunk)] = macro_f1_rows(y, pred.reshape(len(chunk), n))

    results = []
    for baseline, model_scores in zip(baselines, scores):
        drops = (baseline - model_scores).reshape(len(targets), n_repeats)
        features = {
            name: {"mean_drop": float(drops[t].mean()), "std_drop": float(drops[t].std()),
                   "repeats": n_repeats}
            for t, (name, _, _) in enumerate(targets)
        }
        results.append({"baseline_score": float(baseline), "features": features})
    return results
