"""Config-driven study runner: protocols x models x stratified folds.

For every fold the scaler is fitted on the training split only, each
configured model is trained and scored on the held-out fold, equalized odds is
computed per sensitive attribute (pooled over the out-of-fold predictions and
per fold), and permutation importance is evaluated on both splits. The
resulting report is fully deterministic given the config: all seeds derive
from one master seed via ``rng.derive_seed`` and results are assembled in grid
order regardless of worker count.
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from ._version import __version__
from .dataset import (
    AWARE,
    DEFAULT_AGE_EDGES,
    PROTOCOLS,
    RACE_COLUMNS,
    UNAWARE,
    Cohort,
    CohortSpec,
    age_bin_labels,
    apply_minmax,
    bin_age,
    encode_features,
    fit_minmax,
    load_cohort_csv,
    stratified_kfold,
    synthesize_cohort,
)
from .errors import ConfigError, FairbenchError, InvariantViolation, TooFewSamples
from .importance import permutation_importance
from .metrics import equalized_odds, group_rates, macro_f1
from .models import ModelSpec, train
from .rng import derive_seed
from .specfile import cohort_spec_to_dict, default_cohort_spec

SENSITIVE_ATTRIBUTES = ("gender", "race", "age")


def default_model_grid() -> tuple[ModelSpec, ...]:
    grid = [ModelSpec.logr()]
    grid += [ModelSpec.svm(kernel) for kernel in ("ln", "rbf", "p2", "p3", "p4")]
    grid += [ModelSpec.knn(k) for k in (1, 2, 4, 8, 12)]
    grid += [ModelSpec.tree(), ModelSpec.forest()]
    return tuple(grid)


@dataclass(frozen=True)
class ExperimentConfig:
    cohort_csv: str | None = None
    cohort_spec: CohortSpec | None = None  # None -> shipped default calibration
    cohort_seed: int | None = None  # None -> derived from master_seed
    k_folds: int = 5
    master_seed: int = 42
    models: tuple[ModelSpec, ...] = field(default_factory=default_model_grid)
    protocols: tuple[str, ...] = PROTOCOLS
    n_permutation_repeats: int = 10
    age_bin_edges: tuple[float, ...] = DEFAULT_AGE_EDGES
    clamp: bool = True
    n_workers: int = 1

    def __post_init__(self):
        if self.k_folds < 2:
            raise ConfigError("k_folds must be >= 2")
        if not self.models:
            raise ConfigError("model grid must not be empty")
        if self.n_permutation_repeats < 1:
            raise ConfigError("n_permutation_repeats must be >= 1")
        if any(p not in PROTOCOLS for p in self.protocols) or not self.protocols:
            raise ConfigError(f"protocols must be a non-empty subset of {PROTOCOLS}")
        names = [m.name for m in self.models]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate models in grid: {names}")
        if len(set(self.protocols)) != len(self.protocols):
            raise ConfigError(f"duplicate protocols: {list(self.protocols)}")
        if self.n_workers < 1:
            raise ConfigError("n_workers must be >= 1")
        edges = self.age_bin_edges
        if not edges or any(a >= b for a, b in zip(edges, edges[1:])):
            raise ConfigError(f"age_bin_edges must be non-empty and strictly increasing, "
                              f"got {list(edges)}")

    def canonical_dict(self) -> dict:
        return {
            "cohort_csv": self.cohort_csv,
            "cohort_spec": (None if self.cohort_spec is None
                            else cohort_spec_to_dict(self.cohort_spec)["classes"]),
            "cohort_seed": self.cohort_seed,
            "k_folds": self.k_folds,
            "master_seed": self.master_seed,
            "models": [m.name for m in self.models],
            "protocols": list(self.protocols),
            "n_permutation_repeats": self.n_permutation_repeats,
            "age_bin_edges": list(self.age_bin_edges),
            "clamp": self.clamp,
        }

    def config_hash(self) -> str:
        blob = json.dumps(self.canonical_dict(), sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class ExperimentReport:
    provenance: dict
    fold_flags: list[dict]
    entries: list[dict]
    directional_findings: dict

    def to_dict(self) -> dict:
        return {
            "provenance": self.provenance,
            "fold_flags": self.fold_flags,
            "entries": self.entries,
            "directional_findings": self.directional_findings,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentReport":
        return cls(
            provenance=doc["provenance"],
            fold_flags=doc["fold_flags"],
            entries=doc["entries"],
            directional_findings=doc["directional_findings"],
        )

    def entry(self, model: str, protocol: str) -> dict:
        for e in self.entries:
            if e["model"] == model and e["protocol"] == protocol:
                return e
        raise KeyError(f"no entry for ({model}, {protocol})")


@dataclass
class _FoldData:
    X_train: np.ndarray
    y_train: np.ndarray
    X_test: np.ndarray
    y_test: np.ndarray
    column_names: tuple[str, ...]
    test_groups: dict[str, np.ndarray]  # attribute -> per-sample group label


def materialize_cohort(config: ExperimentConfig) -> tuple[Cohort, int | None]:
    if config.cohort_csv is not None:
        return load_cohort_csv(config.cohort_csv), None
    seed = config.cohort_seed
    if seed is None:
        seed = derive_seed(config.master_seed, "cohort")
    spec = config.cohort_spec if config.cohort_spec is not None else default_cohort_spec()
    return synthesize_cohort(spec, seed), seed


def prepare_folds(cohort: Cohort, config: ExperimentConfig,
                  protocol: str) -> list[_FoldData]:
    """Per-fold encoded matrices; the scaler is fitted on the train split only."""
    fold_seed = derive_seed(config.master_seed, "folds")
    try:
        folds = stratified_kfold(cohort, config.k_folds, fold_seed)
    except TooFewSamples as exc:
        raise TooFewSamples(f"(k_folds={config.k_folds}) {exc}") from None

    fm = encode_features(cohort, protocol)
    edges = config.age_bin_edges
    age_groups = np.asarray(age_bin_labels(edges))[bin_age(cohort.column("age_last_seen"), edges)]
    out = []
    for train_idx, test_idx in folds:
        scaler = fit_minmax(fm.rows[train_idx])
        out.append(_FoldData(
            X_train=apply_minmax(scaler, fm.rows[train_idx], clamp=config.clamp),
            y_train=fm.labels[train_idx],
            X_test=apply_minmax(scaler, fm.rows[test_idx], clamp=config.clamp),
            y_test=fm.labels[test_idx],
            column_names=fm.column_names,
            test_groups={"gender": cohort.gender[test_idx], "race": cohort.race[test_idx],
                         "age": age_groups[test_idx]},
        ))
    return out


def _annotate(exc: FairbenchError, context: str) -> FairbenchError:
    try:
        new = type(exc)(f"{context}: {exc}")
    except TypeError:
        new = FairbenchError(f"{context}: {exc}")
    new.__cause__ = exc
    return new


def _evaluate_pair(spec: ModelSpec, protocol: str, folds: list[_FoldData],
                   master_seed: int, n_repeats: int) -> dict:
    """All results for one (model, protocol): fold scores, fairness, importance."""
    fold_scores: list[float] = []
    pooled_true: list[np.ndarray] = []
    pooled_pred: list[np.ndarray] = []
    pooled_groups: dict[str, list[np.ndarray]] = {a: [] for a in SENSITIVE_ATTRIBUTES}
    per_fold_eo: dict[str, list[float]] = {a: [] for a in SENSITIVE_ATTRIBUTES}
    importance: dict[str, list[dict]] = {"train": [], "test": []}

    grouped = None
    if protocol == AWARE:
        cols = folds[0].column_names
        grouped = {"race (grouped)": tuple(cols.index(c) for c in RACE_COLUMNS)}

    for f, fd in enumerate(folds):
        context = f"(model={spec.name}, protocol={protocol}, fold={f})"
        try:
            fitted = train(replace(spec, seed=derive_seed(master_seed, "model",
                                                          spec.name, protocol, f)),
                           fd.X_train, fd.y_train)
            y_hat = fitted.predict(fd.X_test)
        except FairbenchError as exc:
            raise _annotate(exc, context) from exc

        fold_scores.append(macro_f1(fd.y_test, y_hat))
        pooled_true.append(fd.y_test)
        pooled_pred.append(y_hat)
        for attr in SENSITIVE_ATTRIBUTES:
            pooled_groups[attr].append(fd.test_groups[attr])
            per_fold_eo[attr].append(
                equalized_odds(group_rates(fd.y_test, y_hat, fd.test_groups[attr]))
            )

        for split, X, y in (("train", fd.X_train, fd.y_train),
                            ("test", fd.X_test, fd.y_test)):
            res = permutation_importance(
                fitted, X, y, n_repeats=n_repeats,
                seed=derive_seed(master_seed, "importance", spec.name, protocol, f, split),
                column_names=fd.column_names, grouped_columns=grouped, split=split,
            )
            importance[split].append({
                "baseline_score": res.baseline_score,
                "split": split,
                "features": {
                    name: {"mean_drop": fi.mean_drop, "std_drop": fi.std_drop,
                           "repeats": fi.repeats}
                    for name, fi in res.features.items()
                },
            })

    y_true = np.concatenate(pooled_true)
    y_pred = np.concatenate(pooled_pred)
    fairness = {}
    for attr in SENSITIVE_ATTRIBUTES:
        pooled = equalized_odds(
            group_rates(y_true, y_pred, np.concatenate(pooled_groups[attr]))
        )
        fairness[attr] = {"pooled": pooled, "per_fold": per_fold_eo[attr]}

    return {
        "model": spec.name,
        "label": spec.label,
        "protocol": protocol,
        "fold_scores": fold_scores,
        "mean_score": float(np.mean(fold_scores)),
        "fairness": fairness,
        "importance": importance,
    }


def _evaluate_pair_task(payload) -> tuple[int, dict]:
    order, spec, protocol, folds, master_seed, n_repeats = payload
    return order, _evaluate_pair(spec, protocol, folds, master_seed, n_repeats)


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    cohort, cohort_seed = materialize_cohort(config)
    folds_by_protocol = {p: prepare_folds(cohort, config, p) for p in config.protocols}

    payloads = []
    for mi, spec in enumerate(config.models):
        for pi, protocol in enumerate(config.protocols):
            order = mi * len(config.protocols) + pi
            payloads.append((order, spec, protocol, folds_by_protocol[protocol],
                             config.master_seed, config.n_permutation_repeats))

    # the pool forks every worker up front: never more than can be kept busy
    n_workers = min(config.n_workers, len(payloads), os.cpu_count() or 1)
    if n_workers > 1:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            results = dict(pool.map(_evaluate_pair_task, payloads))
    else:
        results = dict(map(_evaluate_pair_task, payloads))
    entries = [results[i] for i in sorted(results)]

    for e in entries:
        scores = e["fold_scores"] + [e["mean_score"]] + [
            v for f in e["fairness"].values() for v in [f["pooled"], *f["per_fold"]]
        ]
        if not all(0.0 <= s <= 1.0 for s in scores):
            raise InvariantViolation(f"score outside [0, 1] in entry {e['model']}/{e['protocol']}")

    provenance = {
        "toolkit_version": __version__,
        "config_hash": config.config_hash(),
        "config": config.canonical_dict(),
        "master_seed": config.master_seed,
        "fold_seed": derive_seed(config.master_seed, "folds"),
        "cohort_seed": cohort_seed,
        "cohort_source": cohort.source,
        "n_records": len(cohort),
        "class_counts": {"ITP": cohort.n_itp, "NonITP": cohort.n_non_itp},
    }
    report = ExperimentReport(
        provenance=provenance,
        # every protocol splits the same rows: any one's folds give the test races
        fold_flags=_fold_flags(cohort, folds_by_protocol[config.protocols[0]]),
        entries=entries,
        directional_findings=_directional_findings(entries, config.protocols),
    )
    expected = len(config.models) * len(config.protocols)
    if len(report.entries) != expected:
        raise InvariantViolation(f"expected {expected} entries, got {len(report.entries)}")
    return report


def _fold_flags(cohort: Cohort, folds: list[_FoldData]) -> list[dict]:
    """Per-fold note of race groups too small (< 2 test members) to trust."""
    present = np.unique(cohort.race)
    flags = []
    for f, fd in enumerate(folds):
        counts = (fd.test_groups["race"] == present[:, None]).sum(axis=1)
        flags.append({"fold": f, "small_race_groups": present[counts < 2].tolist()})
    return flags


def parse_model_name(name: str) -> ModelSpec:
    """Grid shorthand: logr, svm-<kernel>, knn-<k>, dt, rf."""
    if name == "logr":
        return ModelSpec.logr()
    if name == "dt":
        return ModelSpec.tree()
    if name == "rf":
        return ModelSpec.forest()
    if name.startswith("svm-"):
        return ModelSpec.svm(name[4:])
    if name.startswith("knn-"):
        try:
            return ModelSpec.knn(int(name[4:]))
        except ValueError:
            pass
    raise ConfigError(f"unknown model name {name!r}")


def _model_from_config(entry) -> ModelSpec:
    if isinstance(entry, str):
        return parse_model_name(entry)
    if isinstance(entry, dict):
        try:
            return ModelSpec(**entry)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad model entry {entry!r}: {exc}") from exc
    raise ConfigError(f"model entries must be names or mappings, got {entry!r}")


def _mapping(value, key: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{key!r} must be a mapping, got {value!r}")
    return value


def _path(value, key: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{key!r} must be a path string, got {value!r}")
    return value


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Build a config from the YAML document schema (see README)."""
    if not isinstance(doc, dict):
        raise ConfigError("experiment config must be a mapping")
    known = {"cohort", "k_folds", "seed", "models", "protocols",
             "n_permutation_repeats", "age_bin_edges", "clamp", "workers"}
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"unknown config key(s): {sorted(unknown)}")

    kwargs: dict = {}
    cohort = _mapping(doc.get("cohort"), "cohort")
    if "csv" in cohort and "synthetic" in cohort:
        raise ConfigError("cohort must give either 'csv' or 'synthetic', not both")
    if "csv" in cohort:
        kwargs["cohort_csv"] = _path(cohort["csv"], "cohort.csv")
    elif "synthetic" in cohort:
        synth = _mapping(cohort["synthetic"], "cohort.synthetic")
        if synth.get("spec") is not None:
            from .specfile import load_cohort_spec

            kwargs["cohort_spec"] = load_cohort_spec(_path(synth["spec"], "cohort.synthetic.spec"))
        if synth.get("seed") is not None:
            try:
                kwargs["cohort_seed"] = int(synth["seed"])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad value for 'cohort.synthetic.seed': "
                                  f"{synth['seed']!r} ({exc})") from exc

    fields = {  # config key -> (ExperimentConfig field, conversion)
        "k_folds": ("k_folds", int),
        "seed": ("master_seed", int),
        "models": ("models", lambda v: tuple(_model_from_config(m) for m in v)),
        "protocols": ("protocols", lambda v: tuple(str(p) for p in v)),
        "n_permutation_repeats": ("n_permutation_repeats", int),
        "age_bin_edges": ("age_bin_edges", lambda v: tuple(float(e) for e in v)),
        "clamp": ("clamp", bool),
        "workers": ("n_workers", int),
    }
    for key, (name, convert) in fields.items():
        if key in doc:
            try:
                kwargs[name] = convert(doc[key])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad value for {key!r}: {doc[key]!r} ({exc})") from exc
    try:
        return ExperimentConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def load_experiment_config(path) -> ExperimentConfig:
    import yaml

    with open(path, encoding="utf-8") as fh:
        doc = yaml.safe_load(fh)
    return config_from_dict(doc or {})


def _directional_findings(entries: list[dict], protocols: tuple[str, ...]) -> dict:
    """Informational flags: unaware F1 >= aware, and aware EO >= unaware, for
    the model families whose behaviour is expected to shift with demographics."""
    if AWARE not in protocols or UNAWARE not in protocols:
        return {"evaluated": False, "reason": "needs both protocols"}

    by_key = {(e["model"], e["protocol"]): e for e in entries}
    families = ("logr", "svm", "knn")
    f1_flags = {}
    eo_flags = {}
    for (model, protocol), e in sorted(by_key.items()):
        if protocol != AWARE or not model.startswith(families):
            continue
        unaware = by_key.get((model, UNAWARE))
        if unaware is None:
            continue
        f1_flags[model] = bool(unaware["mean_score"] >= e["mean_score"])
        eo_flags[model] = {
            attr: bool(e["fairness"][attr]["pooled"] >= unaware["fairness"][attr]["pooled"])
            for attr in SENSITIVE_ATTRIBUTES
        }
    all_pass = all(f1_flags.values()) and all(v for d in eo_flags.values() for v in d.values())
    return {
        "evaluated": True,
        "unaware_f1_ge_aware": f1_flags,
        "aware_eo_ge_unaware": eo_flags,
        "all_pass": bool(all_pass),
    }
