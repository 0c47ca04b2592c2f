import concurrent.futures
import hashlib
import json
import re
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import yaml

from fairbench import errors, experiment, importance, metrics, models
from fairbench.cli import main
from fairbench.dataset import (
    AWARE,
    UNAWARE,
    age_bin_labels,
    bin_age,
    encode_features,
    fit_minmax,
    synthesize_cohort,
)
from fairbench.errors import ConfigError, FairbenchError, InvariantViolation, TooFewSamples
from fairbench.experiment import (
    ExperimentConfig,
    ExperimentReport,
    config_from_dict,
    default_model_grid,
    materialize_cohort,
    parse_model_name,
    prepare_folds,
    run_experiment,
)
from fairbench.models import ModelSpec
from fairbench.report import emit_report, load_report_json, mean_importance
from fairbench.specfile import (
    cohort_spec_from_dict,
    cohort_spec_to_dict,
    default_cohort_spec,
    load_cohort_spec,
)

CUSTOM_SPEC = """classes:
  ITP:
    size: 6
    gender: {M: 0.5, F: 0.5}
    race: {White: 0.5, Black: 0.2, Asian: 0.2, Other: 0.1}
    variables:
      diagnosis_year: {min: 2000, max: 2010}
      age_last_seen: {min: 30, max: 80, median: 50, mean: 52}
      alt: {min: 5, max: 50, median: 20, mean: 22}
      dx_hb_ct: {min: 100, max: 200, median: 140, mean: 145}
      dx_neutro_ct: {min: 1, max: 10, median: 4}
      wbc_ct: {min: 3, max: 12, mean: 7}
      rbc_ct: {min: 3.5, max: 6.0}
      dx_plt_ct: {min: 5, max: 100, median: 30, mean: 35}
  NonITP:
    size: 4
    gender: {M: 0.25, F: 0.75}
    race: {White: 1.0}
    variables:
      diagnosis_year: {min: 2001, max: 2012}
      age_last_seen: {min: 20, max: 70, median: 45, mean: 44}
      alt: {min: 5, max: 60, median: 25, mean: 26}
      dx_hb_ct: {min: 110, max: 190, median: 150, mean: 150}
      dx_neutro_ct: {min: 1, max: 9, median: 4, mean: 4.5}
      wbc_ct: {min: 3, max: 11}
      rbc_ct: {min: 3.8, max: 6.2, median: 5.0}
      dx_plt_ct: {min: 150, max: 400, median: 250, mean: 260}
"""


def small_spec(n_itp=24, n_non=16):
    spec = default_cohort_spec()
    return replace(spec, itp=replace(spec.itp, size=n_itp),
                   non_itp=replace(spec.non_itp, size=n_non))


def small_config(**over):
    kwargs = dict(
        cohort_spec=small_spec(),
        cohort_seed=5,
        k_folds=4,
        master_seed=11,
        models=(ModelSpec("tree"), ModelSpec("knn", k_neighbors=2),
                ModelSpec("forest", n_trees=30)),
        n_permutation_repeats=2,
    )
    kwargs.update(over)
    return ExperimentConfig(**kwargs)


@pytest.fixture(scope="module")
def small_report():
    return run_experiment(small_config())


# ---------------------------------------------------------------------------
# config validation and parsing
# ---------------------------------------------------------------------------


def test_default_grid_composition(monkeypatch):
    names = [m.name for m in default_model_grid()]
    assert names == [
        "logr", "svm-ln", "svm-rbf", "svm-p2", "svm-p3", "svm-p4",
        "knn-1", "knn-2", "knn-4", "knn-8", "knn-12", "dt", "rf",
    ]
    # one spelling of the grid: the default config and the benchmark's grid
    root = Path(__file__).resolve().parents[1]
    assert yaml.safe_load((root / "configs" / "default.yaml").read_text())["models"] == names
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    from workloads import ALL_MODELS

    assert list(ALL_MODELS) == names


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        ExperimentConfig(k_folds=1)
    with pytest.raises(ConfigError):
        ExperimentConfig(models=())
    with pytest.raises(ConfigError):
        ExperimentConfig(n_permutation_repeats=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(protocols=("aware", "sideways"))
    with pytest.raises(ConfigError):
        ExperimentConfig(models=(ModelSpec("tree"), ModelSpec("tree")))
    with pytest.raises(ConfigError):
        ExperimentConfig(age_bin_edges=(float("nan"),))
    with pytest.raises(ConfigError, match="clamp"):
        ExperimentConfig(clamp="false")
    with pytest.raises(ConfigError, match="age_bin_edges"):
        ExperimentConfig(age_bin_edges=45)
    with pytest.raises(ConfigError, match="models"):
        ExperimentConfig(models=ModelSpec("tree"))


@pytest.mark.parametrize("repeats", [1.0e308, 1001])
def test_config_bounds_the_permutation_repeats(repeats):
    # 1e308 repeats failed to allocate only after the first fold was trained
    with pytest.raises(ConfigError) as caught:
        ExperimentConfig(n_permutation_repeats=repeats)
    assert str(caught.value) == "n_permutation_repeats must be at most 1000"
    assert ExperimentConfig(n_permutation_repeats=1000).n_permutation_repeats == 1000


@pytest.mark.parametrize("kwargs", [
    {"k_folds": 2.5},
    {"n_permutation_repeats": 1.5},
    {"n_workers": True},
    {"master_seed": "7"},
    {"cohort_seed": 1.5},
], ids=lambda kw: next(iter(kw)))
def test_config_rejects_non_integers(kwargs):
    with pytest.raises(ConfigError, match=next(iter(kwargs))):
        ExperimentConfig(**kwargs)


def test_integral_values_keep_the_config_hash():
    plain = ExperimentConfig(k_folds=5, n_permutation_repeats=10, master_seed=42, cohort_seed=3)
    spelled = ExperimentConfig(k_folds=5.0, n_permutation_repeats=np.int64(10),
                               master_seed=42.0, cohort_seed=np.int32(3))
    assert spelled == plain
    assert spelled.config_hash() == plain.config_hash()
    assert ExperimentConfig().config_hash() == ExperimentConfig(n_workers=2).config_hash()


def test_the_config_class_converts_model_entries():
    # names and mappings build the ModelSpecs a document's entries give
    entries = ["logr", {"family": "svm", "kernel": "rbf"}]
    config = ExperimentConfig(models=tuple(entries))
    assert config == config_from_dict({"models": entries})
    assert config.models == (ModelSpec("logr"), ModelSpec("svm", kernel="rbf"))
    assert ExperimentConfig(models=("logr",)) == ExperimentConfig(models=(ModelSpec("logr"),))


def test_parse_model_name_shorthands():
    assert parse_model_name("svm-p4").kernel == "p4"
    assert parse_model_name("knn-12").k_neighbors == 12
    assert parse_model_name("dt").family == "tree"
    with pytest.raises(ConfigError):
        parse_model_name("boosted-stumps")
    with pytest.raises(ConfigError, match="svm-xyz"):
        parse_model_name("svm-xyz")


# every spec of this file whose name carries a [field=value,...] suffix, and
# some that set every field a suffix can
SUFFIXED_SPECS = (
    ModelSpec("forest", n_trees=30),
    ModelSpec("svm", kernel="p2", C=2.0),
    ModelSpec("svm", kernel="rbf", C=50.0),
    ModelSpec("forest", n_trees=5),
    ModelSpec("svm", kernel="rbf", C=10),
    ModelSpec("tree", max_depth=3),
    ModelSpec("forest", n_trees=7, max_depth=2, bootstrap=False, max_features=1),
    ModelSpec("svm", kernel="p3", C=0.5, gamma=0.25, coef0=-1.5),
    ModelSpec("logr", C=1e-05),
)


def test_a_model_name_parses_back_to_its_spec():
    for spec in SUFFIXED_SPECS:
        assert "[" in spec.name
        assert parse_model_name(spec.name) == spec
    assert config_from_dict({"models": ["rf[n_trees=30]"]}).models == (SUFFIXED_SPECS[0],)


@pytest.mark.parametrize("name", [
    "rf[n_trees=]", "rf[bogus=1]", "rf[n_trees=30", "dt[max_depth=2.5]", "rf[]",
    "rf[n_trees=3,n_trees=4]", "rf[seed=3]", "knn-3[k_neighbors=4]", "svm-rbf[coef0=1.0]",
])
def test_a_malformed_name_suffix_is_rejected(name):
    with pytest.raises(ConfigError, match=re.escape(repr(name))):
        parse_model_name(name)


@pytest.mark.parametrize("name", ["knn-012", "knn-+12", "knn-1_2", "knn- 12", "knn-12 ",
                                  "knn-012[k_neighbors=4]"])
def test_a_name_spelled_unlike_its_spec_is_rejected(name):
    # int() reads each of these as 12; a report would print the spec as knn-12
    with pytest.raises(ConfigError, match=re.escape(repr(name))):
        parse_model_name(name)


@pytest.mark.parametrize("name, spec", [
    ("knn-12", ModelSpec("knn", k_neighbors=12)),
    ("svm-rbf[C=10]", ModelSpec("svm", kernel="rbf", C=10.0)),
    ("rf[n_trees=30.0]", ModelSpec("forest", n_trees=30)),
])
def test_a_name_suffix_keeps_its_literal_reading(name, spec):
    # only the part before the suffix must be spelled as the spec spells it
    assert parse_model_name(name) == spec


def test_config_from_dict_full_document():
    cfg = config_from_dict({
        "cohort": {"synthetic": {"spec": None, "seed": 3}},
        "k_folds": 3,
        "seed": 17,
        "models": ["dt", {"family": "svm", "kernel": "p2", "C": 2.0}],
        "protocols": ["unaware"],
        "n_permutation_repeats": 4,
        "age_bin_edges": [40, 60],
        "workers": 2,
    })
    assert cfg.cohort_seed == 3
    assert cfg.k_folds == 3
    assert cfg.master_seed == 17
    assert cfg.models[1].C == 2.0
    assert cfg.protocols == ("unaware",)
    assert cfg.age_bin_edges == (40.0, 60.0)
    assert cfg.n_workers == 2


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        config_from_dict({"k_fold": 5})
    with pytest.raises(ConfigError):
        config_from_dict({"cohort": {"csv": "a.csv", "synthetic": {}}})


@pytest.mark.parametrize("doc", [
    {"models": "logr"},
    {"models": {"a": 1}},
    {"protocols": "aware"},
    {"protocols": {"aware": 1}},
], ids=repr)
def test_list_keys_reject_strings_and_mappings(doc):
    # iterating these would read a name's characters or a mapping's keys
    with pytest.raises(ConfigError, match=f"bad value for {next(iter(doc))}: expected a list"):
        config_from_dict(doc)


@pytest.mark.parametrize("kwargs, message", [
    ({"protocols": "aware"}, "protocols: expected a list"),
    ({"protocols": {"aware": 1}}, "protocols: expected a list"),
    ({"age_bin_edges": {45: "x", 65: "y"}}, "age_bin_edges: expected a list"),
    ({"models": {ModelSpec("tree"): 1}}, "models: expected a list"),
    ({"cohort_csv": 5}, "cohort_csv .*expected a path string"),
    # a CSV cohort ignores both, so the config hash must not cover them
    ({"cohort_csv": "c.csv", "cohort_seed": 5}, "takes no cohort_spec or cohort_seed"),
    ({"cohort_csv": "c.csv", "cohort_spec": default_cohort_spec()},
     "takes no cohort_spec or cohort_seed"),
], ids=["protocols-str", "protocols-map", "edges-map", "models-map", "csv-int",
        "csv-seed", "csv-spec"])
def test_the_config_class_applies_the_document_rules(kwargs, message):
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig(**kwargs)


# each rule on every path a value reaches it by: a config document line, read
# by config_from_dict and by `fairbench run` (exit 1, nothing written), whose
# message names the document key, and the ExperimentConfig field it sets, whose
# message names the field; cohort_spec has no document line
@pytest.mark.parametrize("line, key, kwargs, reason", [
    ("models: logr", "models", {"models": "logr"}, "expected a list"),
    ("models: {a: 1}", "models", {"models": {"a": 1}}, "expected a list"),
    ("models: null", "models", {"models": None}, "expected a list"),
    ("protocols: aware", "protocols", {"protocols": "aware"}, "expected a list"),
    ("age_bin_edges: {45: x}", "age_bin_edges", {"age_bin_edges": {45: "x"}}, "expected a list"),
    ("cohort: {csv: 5}", "cohort.csv", {"cohort_csv": 5}, "path string"),
    (None, None, {"cohort_spec": 5}, "expected a CohortSpec"),
], ids=["models-str", "models-map", "models-null", "protocols-str", "edges-map", "csv-int",
        "spec-int"])
def test_a_config_rule_holds_on_every_path(tmp_path, capsys, line, key, kwargs, reason):
    if line is not None:
        message = rf"{re.escape(key)}\W.*{reason}"
        with pytest.raises(ConfigError, match=message):
            config_from_dict(yaml.safe_load(line))
        config, out = tmp_path / "config.yaml", tmp_path / "out"
        config.write_text(line + "\n")
        assert main(["run", "--config", str(config), "--out", str(out)]) == 1
        assert re.search(message, capsys.readouterr().err)
        assert not out.exists()
    with pytest.raises(ConfigError, match=f"{next(iter(kwargs))}.*{reason}"):
        ExperimentConfig(**kwargs)


def test_cohort_spec_to_dict_inverts_parsing(tmp_path):
    path = tmp_path / "spec.yaml"
    path.write_text(CUSTOM_SPEC)
    for spec in (default_cohort_spec(), load_cohort_spec(path)):
        assert cohort_spec_from_dict(cohort_spec_to_dict(spec)) == spec


def test_a_config_reads_back_the_canonical_dict_it_writes(tmp_path):
    # a stored report's config is rebuilt so; a custom spec comes back as the
    # mapping of its classes
    path = tmp_path / "spec.yaml"
    path.write_text(CUSTOM_SPEC)
    cfg = config_from_dict({"cohort": {"synthetic": {"spec": str(path), "seed": 5}},
                            "models": ["logr[C=2.0]", {"family": "knn", "k_neighbors": 3}],
                            "age_bin_edges": [40, 60]})
    again = ExperimentConfig(**cfg.canonical_dict())
    assert again == cfg and again.canonical_dict() == cfg.canonical_dict()


def test_config_hash_of_a_custom_spec_is_stable(tmp_path):
    # the value earlier releases computed for this document; a change here
    # changes the provenance of every report made with a custom spec
    path = tmp_path / "spec.yaml"
    path.write_text(CUSTOM_SPEC)
    cfg = config_from_dict({"cohort": {"synthetic": {"spec": str(path), "seed": 5}}})
    assert cfg.config_hash() == "a6387c4bbae15a9a"


def test_config_hash_covers_model_hyperparameters():
    def config_hash(models):
        return config_from_dict({"models": models}).config_hash()

    assert (config_hash([{"family": "svm", "kernel": "rbf", "C": 1.0}])
            != config_hash([{"family": "svm", "kernel": "rbf", "C": 50.0}]))
    # a mapping equal to a shorthand name hashes as that name
    assert config_hash([{"family": "svm", "kernel": "rbf", "C": 1.0}]) == config_hash(["svm-rbf"])


def test_config_hash_does_not_depend_on_spelling():
    def config_hash(models):
        return config_from_dict({"models": models}).config_hash()

    assert (config_hash([{"family": "svm", "kernel": "rbf", "C": 50}])
            == config_hash([{"family": "svm", "kernel": "rbf", "C": 50.0}]))
    # an omitted field means its default
    assert config_hash([{"family": "logr"}]) == config_hash(["logr"])
    assert config_hash([{"family": "forest"}]) == config_hash(["rf"])
    assert (config_hash([{"family": "forest", "n_trees": 5}])
            == config_hash([{"family": "forest", "n_trees": 5.0, "bootstrap": True}]))


def test_models_that_differ_only_in_hyperparameters_are_distinct():
    models = config_from_dict({"models": ["svm-rbf", {"family": "svm", "kernel": "rbf",
                                                      "C": 10}]}).models
    report = run_experiment(small_config(models=models, protocols=(AWARE,)))
    assert [e["model"] for e in report.entries] == ["svm-rbf", "svm-rbf[C=10.0]"]
    assert [e["label"] for e in report.entries] == ["SVM-RBF", "SVM-RBF[C=10.0]"]
    assert report.provenance["config"]["models"] == ["svm-rbf", "svm-rbf[C=10.0]"]


def test_config_hash_tracks_content():
    a = small_config()
    b = small_config()
    c = small_config(master_seed=12)
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()


# ---------------------------------------------------------------------------
# fold preparation: leakage and protocol isolation
# ---------------------------------------------------------------------------


def test_fold_scaler_is_fit_on_train_split_only():
    cfg = small_config()
    cohort, _ = materialize_cohort(cfg)
    folds = prepare_folds(cohort, cfg, UNAWARE)
    from fairbench.dataset import stratified_kfold
    from fairbench.rng import derive_seed

    raw_folds = stratified_kfold(cohort, cfg.k_folds, derive_seed(cfg.master_seed, "folds"))
    raw, _ = encode_features(cohort, UNAWARE)
    for fd, (train_idx, test_idx) in zip(folds, raw_folds):
        raw_train, raw_test = raw[train_idx], raw[test_idx]
        # scaled training columns span exactly [0, 1]: the scaler saw them alone
        assert np.allclose(fd.X_train.min(axis=0), 0.0)
        assert np.allclose(fd.X_train.max(axis=0), 1.0)
        # and both splits are mapped by the ranges of the raw training rows
        scaler = fit_minmax(raw_train)
        lo, span = scaler.mins, scaler.maxs - scaler.mins
        assert np.allclose(fd.X_train, (raw_train - lo) / span)
        assert np.allclose(fd.X_test, np.clip((raw_test - lo) / span, 0.0, 1.0))


def test_fold_groups_use_raw_sensitive_columns():
    cfg = small_config(age_bin_edges=(40.0, 55.0, 70.0))
    cohort, _ = materialize_cohort(cfg)
    from fairbench.dataset import stratified_kfold
    from fairbench.rng import derive_seed

    raw_folds = stratified_kfold(cohort, cfg.k_folds, derive_seed(cfg.master_seed, "folds"))
    labels = age_bin_labels(cfg.age_bin_edges)
    for fd, (_, test_idx) in zip(prepare_folds(cohort, cfg, AWARE), raw_folds):
        ages = cohort.column("age_last_seen")[test_idx]
        assert fd.test_groups["age"].tolist() == [labels[bin_age(a, cfg.age_bin_edges)]
                                                  for a in ages]
        assert fd.test_groups["race"].tolist() == cohort.race[test_idx].tolist()
        assert fd.test_groups["gender"].tolist() == cohort.gender[test_idx].tolist()
        assert np.array_equal(fd.y_test, cohort.y[test_idx])


def test_protocol_isolation_widths():
    cfg = small_config()
    cohort, _ = materialize_cohort(cfg)
    for fd in prepare_folds(cohort, cfg, UNAWARE):
        assert fd.X_train.shape[1] == 7 and fd.X_test.shape[1] == 7
        assert "gender" not in fd.column_names
    for fd in prepare_folds(cohort, cfg, AWARE):
        assert fd.X_train.shape[1] == 13
        assert "gender" in fd.column_names


def test_too_few_samples_error_carries_fold_context():
    spec = small_spec(n_itp=5, n_non=5)
    cfg = ExperimentConfig(cohort_spec=spec, cohort_seed=1, k_folds=7,
                           models=(ModelSpec("tree"),))
    with pytest.raises(TooFewSamples, match="k_folds=7"):
        run_experiment(cfg)


ERROR_TYPES = [t for t in vars(errors).values()
               if isinstance(t, type) and issubclass(t, FairbenchError)]


@pytest.mark.parametrize("kind", ERROR_TYPES, ids=lambda t: t.__name__)
def test_a_training_error_keeps_its_type_and_gains_the_pair(monkeypatch, kind):
    def fail(spec, X, y):
        raise kind("boom")

    monkeypatch.setattr(experiment, "train", fail)
    cfg = small_config(k_folds=2, protocols=(UNAWARE,), models=(ModelSpec("tree"),))
    with pytest.raises(kind) as caught:
        run_experiment(cfg)
    assert str(caught.value) == "(model=dt, protocol=unaware, fold=0): boom"
    assert type(caught.value.__cause__) is kind


def test_the_knn_models_of_a_fold_share_one_neighbour_pass(monkeypatch):
    # each model is fit to the fold's arrays themselves, so every predict_many
    # call of a pair, the test split's and each of importance's, makes one
    # _knn_votes call that serves every k; a copy of X or y in train would
    # make one per model
    calls, served = [], []
    votes, predict_many = models._knn_votes, models.predict_many

    def spy_votes(train_X, train_y, X, ks):
        served.append(list(ks))
        return votes(train_X, train_y, X, ks)

    def spy_predict_many(fitted, X):
        calls.append(len(X))
        return predict_many(fitted, X)

    monkeypatch.setattr(models, "_knn_votes", spy_votes)
    monkeypatch.setattr(experiment, "predict_many", spy_predict_many)
    monkeypatch.setattr(importance, "predict_many", spy_predict_many)
    knn = [ModelSpec("knn", k_neighbors=k) for k in (1, 2, 4, 8, 12)]
    cfg = small_config(k_folds=2, models=(ModelSpec("logr"), *knn[:3], ModelSpec("tree"),
                                          *knn[3:]))
    fd = prepare_folds(materialize_cohort(cfg)[0], cfg, AWARE)[0]
    experiment._evaluate_pair(cfg.models, AWARE, 0, fd, cfg.master_seed, 2)
    assert len(calls) >= 4  # the test split, and a baseline and a flush per split at least
    assert served == [[1, 2, 4, 8, 12]] * len(calls)


def test_pooled_fairness_of_summed_counts_equals_that_of_the_concatenated_folds():
    # "c" is missing from fold 0 and "b" from fold 1, and "c" has no positives
    # anywhere: its TPR is None pooled and in each fold. No fold and no pair
    # of folds gives the pooled 0.625
    folds = [([0, 0, 1, 0, 1, 1], [1, 1, 0, 1, 1, 0], ["a", "b", "b", "a", "a", "a"]),
             ([0, 0, 0, 1, 0, 1], [1, 1, 1, 1, 1, 1], ["a", "c", "c", "a", "a", "a"]),
             ([0, 0, 0, 1, 1, 0], [1, 0, 1, 1, 1, 1], ["b", "c", "c", "a", "b", "a"])]
    per_fold = []
    for y_true, y_pred, groups in folds:
        counts = {}
        for attr in experiment.SENSITIVE_ATTRIBUTES:
            keys, cells = metrics.confusion_counts(y_true, [y_pred], groups)
            counts[attr] = dict(zip(keys, cells[0].tolist()))
        per_fold.append((counts, {"train": {}, "test": {"baseline_score": 0.25 * len(per_fold)}}))
    entry = experiment._entry(ModelSpec("tree"), AWARE, per_fold)
    assert entry["fold_scores"] == [0.0, 0.25, 0.5]
    y_true, y_pred, groups = (sum(parts, []) for parts in zip(*folds))
    pooled = metrics.group_rates(y_true, y_pred, groups)
    assert list(pooled) == ["a", "b", "c"] and pooled["c"][0] is None
    assert metrics.equalized_odds(pooled) == 0.625
    summed = sum(np.array([counts["age"].get(key, [0] * 4) for key in pooled])
                 for counts, _ in per_fold)
    assert metrics.rates_from_counts(list(pooled), summed) == pooled
    for attr in experiment.SENSITIVE_ATTRIBUTES:
        assert entry["fairness"][attr] == {
            "pooled": metrics.equalized_odds(pooled),
            "per_fold": [metrics.equalized_odds(metrics.group_rates(*fold)) for fold in folds]}


def test_each_fold_score_of_the_golden_report_is_its_test_importance_baseline():
    golden = json.loads((Path(__file__).parent / "golden" / "quick_report.json").read_text())
    for entry in golden["entries"]:
        assert entry["fold_scores"] == [fold["baseline_score"]
                                        for fold in entry["importance"]["test"]]


def test_a_study_scores_each_fold_without_recounting_its_labels(monkeypatch):
    # the fold score is the test split's importance baseline, counted once
    cfg = small_config()
    expected = run_experiment(cfg).to_json()

    def recount(y_true, y_pred):
        raise AssertionError("macro_f1 recounted a fold's labels")

    monkeypatch.setattr(experiment, "macro_f1", recount)
    assert run_experiment(cfg).to_json() == expected


def test_each_entry_of_the_quick_study_is_the_same_when_its_model_runs_alone():
    cfg = experiment.load_experiment_config(Path(__file__).parents[1] / "configs" / "quick.yaml")
    grid = run_experiment(cfg)
    for model in cfg.models:
        alone = run_experiment(replace(cfg, models=(model,)))
        for entry in alone.entries:
            in_grid = grid.entry(entry["model"], entry["protocol"])
            assert json.dumps(entry, sort_keys=True) == json.dumps(in_grid, sort_keys=True)


@pytest.mark.parametrize("score, path", [
    (1.5, "entries[0].fold_scores[0]"),
    (-0.25, "entries[0].fold_scores[0]"),
    (float("nan"), "entries[0].fold_scores[0]"),
])
def test_a_study_with_a_score_outside_the_unit_interval_fails(monkeypatch, score, path):
    # a fold score is its test split's importance baseline
    scored = experiment.permutation_importance
    monkeypatch.setattr(experiment, "permutation_importance", lambda *args, **kwargs: [
        {**record, "baseline_score": score} for record in scored(*args, **kwargs)])
    cfg = small_config(k_folds=2, protocols=(UNAWARE,), models=(ModelSpec("tree"),))
    with pytest.raises(InvariantViolation, match=re.escape(f"{path} must be a number in [0, 1]")):
        run_experiment(cfg)


def test_a_study_checks_its_report_across_fields(monkeypatch):
    entry = experiment._entry
    monkeypatch.setattr(experiment, "_entry",
                        lambda spec, protocol, per_fold: entry(spec, protocol, per_fold[1:]))
    cfg = small_config(k_folds=2, protocols=(UNAWARE,), models=(ModelSpec("tree"),))
    with pytest.raises(InvariantViolation, match=re.escape(
            "entries[0].fold_scores must have provenance.config.k_folds (2) items")):
        run_experiment(cfg)


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["entries"][1]["fairness"]["race"].update(pooled=1.0000001),
     "entries[1].fairness.race.pooled must be a number in [0, 1], got 1.0000001"),
    (lambda d: d["entries"][0]["fold_scores"].__setitem__(2, False),
     "entries[0].fold_scores[2] must be a number in [0, 1], got False"),
    (lambda d: d["entries"][2].pop("fold_scores"), "entries[2].fold_scores is missing"),
    (lambda d: d["entries"][0]["fairness"].pop("age"), "entries[0].fairness.age is missing"),
    (lambda d: d["entries"][0]["fairness"]["gender"].update(per_fold=0.5),
     "entries[0].fairness.gender.per_fold must be a list, got float"),
    (lambda d: d.update(entries=[None]), "entries[0].fold_scores is missing"),
    # numbers JSON cannot write: to_json() raised TypeError
    (lambda d: d["entries"][0].update(mean_score=np.float32(0.5)),
     "entries[0].mean_score must be a number in [0, 1], got np.float32(0.5)"),
    (lambda d: d["entries"][1]["fairness"]["age"].update(pooled=Fraction(1, 2)),
     "entries[1].fairness.age.pooled must be a number in [0, 1], got Fraction(1, 2)"),
], ids=["pooled-above-1", "fold-bool", "fold-scores-missing", "attribute-missing",
        "per-fold-number", "entry-null", "float32", "fraction"])
def test_a_report_is_built_only_from_scores_in_the_unit_interval(small_report, edit, message):
    doc = json.loads(small_report.to_json())
    edit(doc)
    with pytest.raises(InvariantViolation) as caught:
        ExperimentReport.from_dict(doc)
    assert str(caught.value) == message


# ---------------------------------------------------------------------------
# report structure
# ---------------------------------------------------------------------------


def test_report_has_every_model_protocol_pair(small_report):
    cfg = small_config()
    assert len(small_report.entries) == len(cfg.models) * len(cfg.protocols)
    for spec in cfg.models:
        for protocol in cfg.protocols:
            e = small_report.entry(spec.name, protocol)
            assert len(e["fold_scores"]) == cfg.k_folds
            assert 0.0 <= e["mean_score"] <= 1.0
            for attr in ("gender", "race", "age"):
                assert 0.0 <= e["fairness"][attr]["pooled"] <= 1.0
                assert len(e["fairness"][attr]["per_fold"]) == cfg.k_folds
            for split in ("train", "test"):
                assert len(e["importance"][split]) == cfg.k_folds


def test_report_importance_includes_grouped_race_only_when_aware(small_report):
    aware = small_report.entry("dt", AWARE)["importance"]["test"][0]["features"]
    unaware = small_report.entry("dt", UNAWARE)["importance"]["test"][0]["features"]
    assert "race (grouped)" in aware
    assert "race (grouped)" not in unaware
    assert len(unaware) == 7
    assert len(aware) == 14  # 13 columns + grouped race


def test_report_fold_flags_structure(small_report):
    cfg = small_config()
    assert [f["fold"] for f in small_report.fold_flags] == list(range(cfg.k_folds))
    for f in small_report.fold_flags:
        assert isinstance(f["small_race_groups"], list)


def test_report_directional_findings(small_report):
    d = small_report.directional_findings
    assert d["evaluated"] is True
    assert set(d["unaware_f1_ge_aware"]) == {"knn-2"}
    assert set(d["aware_eo_ge_unaware"]["knn-2"]) == {"gender", "race", "age"}


def test_report_json_round_trip(small_report):
    doc = json.loads(small_report.to_json())
    again = ExperimentReport.from_dict(doc)
    assert again.to_json() == small_report.to_json()
    assert again.to_dict() == small_report.to_dict()
    # a float64 is a float, which JSON writes
    doc["entries"][0]["mean_score"] = np.float64(doc["entries"][0]["mean_score"])
    assert ExperimentReport.from_dict(doc).to_json() == small_report.to_json()


def test_runs_are_deterministic(small_report):
    again = run_experiment(small_config())
    assert again.to_json() == small_report.to_json()


def test_csv_cohort_source(tmp_path):
    from fairbench.dataset import write_cohort_csv

    cohort = synthesize_cohort(small_spec(), 9)
    path = write_cohort_csv(cohort, tmp_path / "c.csv")
    cfg = small_config(cohort_csv=str(path), cohort_spec=None, cohort_seed=None)
    loaded, seed = materialize_cohort(cfg)
    assert seed is None
    assert np.array_equal(loaded.numeric, cohort.numeric)
    assert loaded.race.tolist() == cohort.race.tolist()
    assert loaded.gender.tolist() == cohort.gender.tolist()
    assert np.array_equal(loaded.y, cohort.y)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()[:16]
    assert loaded.source == f"csv:{path} sha256:{digest}"


def test_csv_cohort_source_digests_the_bytes_not_the_path(tmp_path):
    from fairbench.dataset import load_cohort_csv, write_cohort_csv

    path = write_cohort_csv(synthesize_cohort(small_spec(), 9), tmp_path / "c.csv")
    data = path.read_bytes()
    same = tmp_path / "elsewhere" / "d.csv"
    same.parent.mkdir()
    same.write_bytes(data)
    # one byte changed: the last digit of the first data row's first decimal value
    at = data.index(b",", data.index(b".", data.index(b"\n"))) - 1
    changed = tmp_path / "changed.csv"
    changed.write_bytes(data[:at] + bytes([data[at] ^ 1]) + data[at + 1:])

    def digest(p):
        source = load_cohort_csv(p).source
        assert source.startswith(f"csv:{p} sha256:")
        return source.rpartition("sha256:")[2]

    assert len(digest(path)) == 16
    assert digest(same) == digest(path)
    assert digest(changed) != digest(path)


def test_pool_is_no_larger_than_the_work_or_the_machine(monkeypatch):
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *items):
            return map(fn, *items)

    # run_experiment imports the pool class when it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    cfg = config_from_dict({"models": ["dt", "knn-1", "knn-2"], "k_folds": 2,
                            "n_permutation_repeats": 1, "workers": 64})
    serial = run_experiment(replace(cfg, n_workers=1)).to_json()
    assert sizes == []
    for cpus, expected in ((3, 3), (None, None), (128, 4)):  # 4 = 2 protocols x 2 folds
        monkeypatch.setattr(experiment.os, "cpu_count", lambda: cpus)
        sizes.clear()
        assert run_experiment(cfg).to_json() == serial
        assert sizes == ([] if expected is None else [expected])


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def test_emit_json_then_reload(tmp_path, small_report):
    paths = emit_report(small_report, "json", tmp_path)
    assert [p.name for p in paths] == ["report.json"]
    loaded = load_report_json(paths[0])
    assert loaded.to_json() == small_report.to_json()


def test_emit_markdown_tables(tmp_path, small_report):
    paths = emit_report(small_report, "md", tmp_path)
    assert sorted(p.name for p in paths) == ["fairness.md", "performance.md"]
    perf = (tmp_path / "performance.md").read_text()
    fair = (tmp_path / "fairness.md").read_text()
    assert "| DT |" in perf and "| 2-NN |" in perf
    assert "Demographic-aware" in perf and "Demographic-unaware" in perf
    # the separable cohort makes the tree models perfect: every cell renders 100
    for label in ("DT", "RF[n_trees=30]"):
        row = next(line for line in perf.splitlines() if line.startswith(f"| {label} |"))
        cells = [c.strip() for c in row.split("|")[2:-1]]
        assert all(c == "100" for c in cells)
    assert "equalized odds" in fair.lower()


def test_emit_svg_charts(tmp_path, small_report):
    paths = emit_report(small_report, "svg", tmp_path)
    assert len(paths) == len(small_report.entries) * 2
    chart = (tmp_path / "importance_dt_unaware_test.svg").read_text()
    assert chart.startswith("<svg")
    # the longest (first) bar belongs to the platelet count
    first_label = chart.split("text-anchor=\"end\">")[1].split("<")[0]
    assert first_label == "dx_plt_ct"


def test_emit_rejects_unknown_format(tmp_path, small_report, capsys):
    # the library and the CLI refuse a format with one error and one message
    with pytest.raises(FairbenchError) as caught:
        emit_report(small_report, "pdf", tmp_path / "lib")
    report = emit_report(small_report, "json", tmp_path)[0]
    assert main(["report", "--in", str(report), "--out", str(tmp_path / "cli"),
                 "--formats", "md,pdf"]) == 1
    assert capsys.readouterr().err == f"error: {caught.value}\n"
    assert "'pdf'" in str(caught.value)
    assert not (tmp_path / "lib").exists() and not (tmp_path / "cli").exists()


def test_mean_importance_sorted_descending(small_report):
    pairs = mean_importance(small_report.entry("dt", UNAWARE), "test")
    values = [v for _, v in pairs]
    assert values == sorted(values, reverse=True)
    assert pairs[0][0] == "dx_plt_ct"


def test_mean_importance_breaks_ties_by_name():
    # the order of the SVG bars: mean drop descending, then name
    def fold(drops):
        return {"features": {name: {"mean_drop": d, "std_drop": 0.0, "repeats": 1}
                             for name, d in drops.items()}}

    entry = {"importance": {"test": [fold({"b": 0.2, "z": 0.5, "a": 0.1}),
                                     fold({"b": 0.2, "z": 0.5, "a": 0.3})]}}
    assert mean_importance(entry, "test") == [("z", 0.5), ("a", 0.2), ("b", 0.2)]
