"""Config-driven study runner: protocols x models x stratified folds.

For every fold the scaler is fitted on the training split only, each
configured model is trained and scored on the held-out fold, equalized odds is
computed per sensitive attribute (pooled over the folds' summed confusion
counts and per fold), and permutation importance is evaluated on both splits.
The resulting report is fully deterministic given the config: all seeds derive
from one master seed via ``rng.derive_seed`` and results are assembled in grid
order regardless of worker count.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections.abc import Mapping
from dataclasses import dataclass, field, fields as dataclass_fields, replace

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
# group_rates and macro_f1 go uncalled; perfbench/spans.py patches them by name (ROADMAP item 1)
from .metrics import confusion_counts, equalized_odds, group_rates, macro_f1, rates_from_counts
from .models import (
    ModelSpec,
    _finite,
    _flag,
    _int,
    _positive_int,
    parse_model_name,
    predict_many,
    train,
)
from .rng import derive_seed
from .specfile import (
    _or_none,
    _walk,
    cohort_spec_to_dict,
    default_cohort_spec,
    load_cohort_spec,
    load_yaml,
)

SENSITIVE_ATTRIBUTES = ("gender", "race", "age")
# a sanity cap, 100 times the default; it does not bound the importance
# arrays, which grow with repeats times rows
MAX_PERMUTATION_REPEATS = 1000


def default_model_grid() -> tuple[ModelSpec, ...]:
    """The paper's 13 classifiers, named as configs/default.yaml lists them."""
    return tuple(map(parse_model_name, ("logr", "svm-ln", "svm-rbf", "svm-p2", "svm-p3", "svm-p4",
                                        "knn-1", "knn-2", "knn-4", "knn-8", "knn-12", "dt", "rf")))


def _checked(kind, value, what: str):
    """``value`` if it is a ``kind``; a ValueError naming ``what`` if not."""
    if not isinstance(value, kind):
        raise ValueError(f"expected {what}, got {value!r}")
    return value


def _list(value) -> tuple:
    """A list or a tuple as a tuple. tuple() would also take a string (its
    characters) or a mapping (its keys); a config file may give neither."""
    return tuple(_checked((list, tuple), value, "a list"))


def _path(value) -> str:
    return _checked(str, value, "a path string")


def _model(entry) -> ModelSpec:
    """A model entry: a ModelSpec, its name, or a mapping of its fields."""
    if isinstance(entry, ModelSpec):
        return entry
    if isinstance(entry, str):
        return parse_model_name(entry)
    try:
        if "seed" in _checked(Mapping, entry, "a ModelSpec, a name or a mapping"):
            raise ValueError("model seeds derive from the top-level 'seed'")
        return ModelSpec(**entry)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad model entry {entry!r}: {exc}") from None


# ExperimentConfig field -> its conversion; a cohort_* field left None takes
# its default (see the field comments)
_FIELDS = {"cohort_csv": _or_none(_path), "cohort_seed": _or_none(_int),
           "cohort_spec": _or_none(lambda spec: _checked(CohortSpec, spec, "a CohortSpec")),
           "k_folds": _positive_int, "master_seed": _int, "n_permutation_repeats": _positive_int,
           "n_workers": _positive_int, "clamp": _flag, "protocols": _list,
           "models": lambda entries: tuple(_model(m) for m in _list(entries)),
           "age_bin_edges": lambda edges: tuple(_finite(e) for e in _list(edges))}
# ExperimentConfig field -> its key in a config file, where the two differ
_CONFIG_KEYS = {"master_seed": "seed", "n_workers": "workers", "cohort_csv": "cohort.csv",
                "cohort_seed": "cohort.synthetic.seed"}


def _unchecked(value):
    return value


# a config file's sections and keys; ExperimentConfig converts each value, but
# a spec's, which is the path of the file it is read from
_CONFIG = {"cohort?": {"csv?": _unchecked,
                       "synthetic?": {"spec?": _or_none(_path), "seed?": _unchecked}},
           **{f"{_CONFIG_KEYS.get(name, name)}?": _unchecked for name in _FIELDS
              if not name.startswith("cohort_")}}


@dataclass(frozen=True)
class ExperimentConfig:
    cohort_csv: str | None = None  # None -> a synthetic cohort
    cohort_spec: CohortSpec | None = None  # None -> shipped default calibration
    cohort_seed: int | None = None  # None -> derived from master_seed
    k_folds: int = 5
    master_seed: int = 42
    # given as ModelSpecs, names or mappings of ModelSpec fields; kept as ModelSpecs
    models: tuple[ModelSpec, ...] = field(default_factory=default_model_grid)
    protocols: tuple[str, ...] = PROTOCOLS
    n_permutation_repeats: int = 10
    age_bin_edges: tuple[float, ...] = DEFAULT_AGE_EDGES
    clamp: bool = True
    n_workers: int = 1

    def __post_init__(self):
        """Every field converted and checked, from a document or a library caller."""
        for name, convert in _FIELDS.items():
            key = f" (config key {_CONFIG_KEYS[name]!r})" if name in _CONFIG_KEYS else ""
            object.__setattr__(self, name, _walk(getattr(self, name), convert, name + key))
        if self.cohort_csv is not None and (self.cohort_spec is not None
                                            or self.cohort_seed is not None):
            raise ConfigError("a CSV cohort (cohort_csv) takes no cohort_spec or cohort_seed")
        if self.k_folds < 2:
            raise ConfigError("k_folds must be >= 2")
        if self.n_permutation_repeats > MAX_PERMUTATION_REPEATS:
            raise ConfigError(f"n_permutation_repeats must be at most {MAX_PERMUTATION_REPEATS}")
        if not self.models:
            raise ConfigError("model grid must not be empty")
        if any(p not in PROTOCOLS for p in self.protocols) or not self.protocols:
            raise ConfigError(f"protocols must be a non-empty subset of {PROTOCOLS}")
        names = [m.name for m in self.models]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate models in grid: {names}")
        if len(set(self.protocols)) != len(self.protocols):
            raise ConfigError(f"duplicate protocols: {list(self.protocols)}")
        edges = self.age_bin_edges
        if not edges or any(a >= b for a, b in zip(edges, edges[1:])):
            raise ConfigError(f"age_bin_edges must be non-empty and strictly increasing, "
                              f"got {list(edges)}")

    def canonical_dict(self) -> dict:
        """Every field as a JSON value, but n_workers, which moves no result."""
        doc = {f.name: getattr(self, f.name) for f in dataclass_fields(self)
               if f.name != "n_workers"}
        doc.update(cohort_spec=(None if self.cohort_spec is None
                                else cohort_spec_to_dict(self.cohort_spec)["classes"]),
                   models=[m.name for m in self.models], protocols=list(self.protocols),
                   age_bin_edges=list(self.age_bin_edges))
        return doc

    def config_hash(self) -> str:
        blob = json.dumps(self.canonical_dict(), sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:16]


def _must(holds, what: str):
    """A converter that keeps a value ``holds`` is true of, and words any
    other as not being ``what``."""
    def check(value):
        if not holds(value):
            raise ValueError(f"must be {what}, got {value!r}")
        return value
    return check


def _number_in(lo, hi):
    """A number JSON can write (an int or a float, not a bool) in [lo, hi]."""
    return _must(lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
                 and lo <= v <= hi, f"a number in [{lo}, {hi}]")


def _is_model_name(name) -> bool:
    try:
        return isinstance(name, str) and bool(parse_model_name(name))
    except ConfigError:
        return False


_SCORE = _number_in(0, 1)
_STRING = _must(lambda value: isinstance(value, str), "a string")
_PROTOCOL = _must(lambda protocol: protocol in PROTOCOLS, f"one of {list(PROTOCOLS)}")
_FOLD_IMPORTANCE = {
    "features": {"*": {"mean_drop": _number_in(-1, 1), "std_drop": _number_in(0, 1),
                       "*": _unchecked}},
    "*": _unchecked,
}
# the report: every value rendering reads, each fold score, mean score and
# pooled or per-fold fairness ratio a number in [0, 1]
_REPORT = {
    "provenance": {"config": {"k_folds": _must(lambda k: type(k) is int, "an integer"),
                              "models": [_STRING], "protocols": [_PROTOCOL], "*": _unchecked},
                   "cohort_source": _unchecked,
                   "class_counts": {"ITP": _unchecked, "NonITP": _unchecked},
                   "*": _unchecked},
    "fold_flags": [{"small_race_groups": [_STRING], "*": _unchecked}],
    "directional_findings": _unchecked,
    "entries": [{
        "fold_scores": [_SCORE], "mean_score": _SCORE,
        "fairness": {attr: {"pooled": _SCORE, "per_fold": [_SCORE]}
                     for attr in SENSITIVE_ATTRIBUTES},
        "model": _must(_is_model_name, "a model name"), "label": _STRING, "protocol": _PROTOCOL,
        "importance": {"train": [_FOLD_IMPORTANCE], "test": [_FOLD_IMPORTANCE]},
        "*": _unchecked,
    }],
}


@dataclass
class ExperimentReport:
    """A study's report, built by ``run_experiment`` or read from a file; both
    are checked here, on construction, by one schema and the rules across its
    fields. An InvariantViolation names the first bad value by its path, such
    as entries[0].mean_score."""

    provenance: dict
    fold_flags: list[dict]
    entries: list[dict]
    directional_findings: dict

    def __post_init__(self):
        # keep the walked report, in which a None where a mapping is due reads as empty
        vars(self).update(_walk(self.to_dict(), _REPORT, "", InvariantViolation, "{path} {exc}"))
        config = self.provenance["config"]
        for key in ("models", "protocols"):
            if not config[key] or len(set(config[key])) < len(config[key]):
                raise InvariantViolation(f"provenance.config.{key} must be a non-empty list "
                                         f"with no repeats, got {config[key]}")
        pairs = [(e["model"], e["protocol"]) for e in self.entries]
        grid = [(m, p) for m in config["models"] for p in config["protocols"]]
        for model, protocol in grid:
            if (model, protocol) not in pairs:
                raise InvariantViolation(f"entries has no entry for {model} under {protocol}, "
                                         f"a pair of provenance.config's models and protocols")
        for i, (model, protocol) in enumerate(pairs):
            if (model, protocol) not in grid:
                raise InvariantViolation(f"entries[{i}] is for {model} under {protocol}, "
                                         f"which provenance.config does not name")
            if (model, protocol) in pairs[:i]:
                raise InvariantViolation(f"entries[{i}] repeats the entry for {model} "
                                         f"under {protocol}")
        for i, entry in enumerate(self.entries):
            fold_lists = [("fold_scores", entry["fold_scores"])]
            fold_lists += [(f"fairness.{attr}.per_fold", fair["per_fold"])
                           for attr, fair in entry["fairness"].items()]
            fold_lists += [(f"importance.{split}", folds)
                           for split, folds in entry["importance"].items()]
            for key, items in fold_lists:
                if len(items) != config["k_folds"]:
                    raise InvariantViolation(f"entries[{i}].{key} must have provenance.config"
                                             f".k_folds ({config['k_folds']}) items")
            for split, folds in entry["importance"].items():
                names = [sorted(fold["features"]) for fold in folds]
                if not names or any(n != names[0] for n in names):
                    raise InvariantViolation(f"entries[{i}].importance.{split} must be one or "
                                             f"more folds that name the same features")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dataclass_fields(self)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentReport":
        """The report of a document, such as a decoded report.json."""
        return cls(**_walk(doc, dict.fromkeys(_REPORT, _unchecked), "", InvariantViolation))

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

    rows, column_names = encode_features(cohort, protocol)
    edges = config.age_bin_edges
    age_groups = np.asarray(age_bin_labels(edges))[bin_age(cohort.column("age_last_seen"), edges)]
    out = []
    for train_idx, test_idx in folds:
        scaler = fit_minmax(rows[train_idx])
        out.append(_FoldData(
            X_train=apply_minmax(scaler, rows[train_idx], clamp=config.clamp),
            y_train=cohort.y[train_idx],
            X_test=apply_minmax(scaler, rows[test_idx], clamp=config.clamp),
            y_test=cohort.y[test_idx],
            column_names=column_names,
            test_groups={"gender": cohort.gender[test_idx], "race": cohort.race[test_idx],
                         "age": age_groups[test_idx]},
        ))
    return out


def _evaluate_pair(specs: tuple[ModelSpec, ...], protocol: str, f: int, fd: _FoldData,
                   master_seed: int, n_repeats: int) -> list[tuple]:
    """Every model's results on one (protocol, fold) pair, in ``specs`` order:
    ({attribute: {group: test counts [tn, fp, fn, tp]}}, importance by split).

    The test-split prediction is that split's importance baseline, whose score
    is the fold score, and every model scores the same shuffled copies of each
    split, drawn from streams keyed by (protocol, fold, split)."""
    fitted = []
    for spec in specs:
        try:
            fitted.append(train(replace(spec, seed=derive_seed(master_seed, "model",
                                                               spec.name, protocol, f)),
                                fd.X_train, fd.y_train))
        except FairbenchError as exc:
            raise type(exc)(f"(model={spec.name}, protocol={protocol}, fold={f}): {exc}") from exc
    try:
        y_hats = predict_many(fitted, fd.X_test)
    except FairbenchError as exc:
        raise type(exc)(f"(protocol={protocol}, fold={f}): {exc}") from exc

    grouped = None
    if protocol == AWARE:
        grouped = {"race (grouped)": tuple(fd.column_names.index(c) for c in RACE_COLUMNS)}
    importance: dict[str, list] = {}
    for split, X, y, predictions in (("train", fd.X_train, fd.y_train, None),
                                     ("test", fd.X_test, fd.y_test, y_hats)):
        importance[split] = permutation_importance(
            fitted, X, y, n_repeats=n_repeats,
            seed=derive_seed(master_seed, "importance", protocol, f, split),
            column_names=fd.column_names, grouped_columns=grouped, predictions=predictions,
        )
    tables = {attr: confusion_counts(fd.y_test, y_hats, groups)
              for attr, groups in fd.test_groups.items()}
    return [({attr: dict(zip(keys, cells[m].tolist())) for attr, (keys, cells) in tables.items()},
             {split: {"split": split, **res[m]} for split, res in importance.items()})
            for m in range(len(specs))]


def _entry(spec: ModelSpec, protocol: str, per_fold: list[tuple]) -> dict:
    """One (model, protocol) report entry from the model's results of
    ``_evaluate_pair`` on each fold: each fold score is its test-split importance
    baseline, and equalized odds is pooled over the folds' summed counts and per fold."""
    counts, importance = zip(*per_fold)
    fold_scores = [imp["test"]["baseline_score"] for imp in importance]
    fairness = {}
    for attr in SENSITIVE_ATTRIBUTES:
        keys = sorted(set().union(*(fold[attr] for fold in counts)))
        # (fold, group, cell); a group missing from a fold counts zero there
        table = np.array([[fold[attr].get(key, [0] * 4) for key in keys] for fold in counts])
        # the summed folds first, then each fold
        pooled, *per_fold_eo = [equalized_odds(rates_from_counts(keys, cells))
                                for cells in (table.sum(axis=0), *table)]
        fairness[attr] = {"pooled": pooled, "per_fold": per_fold_eo}
    return {
        "model": spec.name,
        "label": spec.label,
        "protocol": protocol,
        "fold_scores": fold_scores,
        "mean_score": float(np.mean(fold_scores)),
        "fairness": fairness,
        "importance": {split: [imp[split] for imp in importance] for split in ("train", "test")},
    }


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    cohort, cohort_seed = materialize_cohort(config)
    folds_by_protocol = {p: prepare_folds(cohort, config, p) for p in config.protocols}

    pairs = [(protocol, f) for protocol in config.protocols for f in range(config.k_folds)]
    # one iterable per parameter of _evaluate_pair, as map takes them
    args = zip(*[(config.models, protocol, f, folds_by_protocol[protocol][f], config.master_seed,
                  config.n_permutation_repeats) for protocol, f in pairs])
    # the pool forks every worker up front: never more than can be kept busy
    n_workers = min(config.n_workers, len(pairs), os.cpu_count() or 1)
    if n_workers > 1:
        # imported here: a serial run need not load multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            results = dict(zip(pairs, pool.map(_evaluate_pair, *args)))
    else:
        results = dict(zip(pairs, map(_evaluate_pair, *args)))
    # assembled in grid order, whatever order the units finished in
    entries = [
        _entry(spec, protocol, [results[protocol, f][m] for f in range(config.k_folds)])
        for m, spec in enumerate(config.models)
        for protocol in config.protocols
    ]

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
        # every model of a (protocol, fold) scores the same shuffled copies
        "importance_streams": ["protocol", "fold", "split"],
    }
    return ExperimentReport(
        provenance=provenance,
        # every protocol splits the same rows: any one's folds give the test races
        fold_flags=_fold_flags(cohort, folds_by_protocol[config.protocols[0]]),
        entries=entries,
        directional_findings=_directional_findings(entries, config),
    )


def _fold_flags(cohort: Cohort, folds: list[_FoldData]) -> list[dict]:
    """Per-fold note of race groups too small (< 2 test members) to trust."""
    present = np.unique(cohort.race)
    flags = []
    for f, fd in enumerate(folds):
        counts = (fd.test_groups["race"] == present[:, None]).sum(axis=1)
        flags.append({"fold": f, "small_race_groups": present[counts < 2].tolist()})
    return flags


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Build a config from the YAML document schema (see README): read its
    sections, rename its keys and load the cohort spec file; every value is
    converted by ExperimentConfig itself."""
    doc = _walk(doc, _CONFIG)
    cohort = doc.pop("cohort", {})
    if "csv" in cohort and "synthetic" in cohort:
        raise ConfigError("cohort must give either 'csv' or 'synthetic', not both")
    synthetic = cohort.get("synthetic", {})
    fields = {key: name for name, key in _CONFIG_KEYS.items()}
    kwargs = {fields.get(key, key): value for key, value in doc.items()}
    kwargs.update(cohort_csv=cohort.get("csv"), cohort_seed=synthetic.get("seed"))
    if synthetic.get("spec") is not None:
        kwargs["cohort_spec"] = load_cohort_spec(synthetic["spec"])
    return ExperimentConfig(**kwargs)


def load_experiment_config(path) -> ExperimentConfig:
    return config_from_dict(load_yaml(path))


def _directional_findings(entries: list[dict], config: ExperimentConfig) -> dict:
    """Informational flags: unaware F1 >= aware, and aware EO >= unaware, for
    the model families whose behaviour is expected to shift with demographics."""
    if AWARE not in config.protocols or UNAWARE not in config.protocols:
        return {"evaluated": False, "reason": "needs both protocols"}

    by_key = {(e["model"], e["protocol"]): e for e in entries}
    f1_flags = {}
    eo_flags = {}
    for name in sorted(m.name for m in config.models if m.family in ("logr", "svm", "knn")):
        aware, unaware = by_key[name, AWARE], by_key[name, UNAWARE]
        f1_flags[name] = bool(unaware["mean_score"] >= aware["mean_score"])
        eo_flags[name] = {
            attr: bool(aware["fairness"][attr]["pooled"] >= unaware["fairness"][attr]["pooled"])
            for attr in SENSITIVE_ATTRIBUTES
        }
    all_pass = all(f1_flags.values()) and all(v for d in eo_flags.values() for v in d.values())
    return {
        "evaluated": True,
        "unaware_f1_ge_aware": f1_flags,
        "aware_eo_ge_unaware": eo_flags,
        "all_pass": bool(all_pass),
    }
