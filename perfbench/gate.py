"""Correctness gate applied to every report the benchmark produces.

The shipped calibration separates the classes perfectly on platelet count
(ITP at most 29, non-ITP at least 60). A decision tree sees every column, so
its root split is the pure platelet split: it scores macro-F1 1.0 on every
fold. A forest's trees each see random column subsets, so the vote can miss
a patient near the boundary (one of 30 test patients at seed 508, fold
macro-F1 0.961); a broken forest scores far lower than the floor. Both rank
``dx_plt_ct`` first by importance.
"""

from __future__ import annotations

# least fold macro-F1 per tree model
FOLD_FLOOR = {"dt": 1.0, "rf": 0.9}
SEPARATING_FEATURE = "dx_plt_ct"


def _scores(entry: dict):
    yield from entry["fold_scores"]
    yield entry["mean_score"]
    for fair in entry["fairness"].values():
        yield fair["pooled"]
        yield from fair["per_fold"]
    for folds in entry["importance"].values():
        for fold in folds:
            yield fold["baseline_score"]


def _mean_drops(entry: dict, split: str) -> dict[str, float]:
    folds = entry["importance"][split]
    return {name: sum(f["features"][name]["mean_drop"] for f in folds) / len(folds)
            for name in folds[0]["features"]}


def check_report(doc: dict, models: tuple[str, ...], protocols: tuple[str, ...],
                 k_folds: int) -> list[str]:
    """Problems found in one ``report.json`` document; empty when it passes."""
    problems = []
    expected = [(m, p) for m in models for p in protocols]
    found = [(e["model"], e["protocol"]) for e in doc["entries"]]
    if found != expected:
        problems.append(f"entries {found} != expected {expected}")
    for e in doc["entries"]:
        key = f"{e['model']}/{e['protocol']}"
        if len(e["fold_scores"]) != k_folds:
            problems.append(f"{key}: {len(e['fold_scores'])} fold scores, expected {k_folds}")
        if not all(0.0 <= s <= 1.0 for s in _scores(e)):
            problems.append(f"{key}: a score lies outside [0, 1]")
        floor = FOLD_FLOOR.get(e["model"])
        if floor is None:
            continue
        if min(e["fold_scores"]) < floor:
            problems.append(f"{key}: fold macro-F1 {e['fold_scores']} falls below {floor}")
        for split in ("train", "test"):
            drops = _mean_drops(e, split)
            if drops.get(SEPARATING_FEATURE, float("-inf")) < max(drops.values()):
                problems.append(f"{key}: {SEPARATING_FEATURE} is not the top {split} importance")
    return problems
