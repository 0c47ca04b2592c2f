"""Tabular classification with group-fairness auditing for clinical cohorts.

Five from-scratch classifiers (logistic regression, kernel SVM, k-NN, decision
tree, random forest) evaluated under demographic-aware and demographic-unaware
protocols with stratified cross-validation, macro-F1, equalized odds across
gender/race/age, and permutation feature importance.
"""

from ._version import __version__
from .dataset import (
    AWARE,
    PROTOCOLS,
    UNAWARE,
    ClassSpec,
    Cohort,
    CohortSpec,
    Scaler,
    StatBlock,
    age_bin_labels,
    apply_minmax,
    bin_age,
    encode_features,
    fit_minmax,
    load_cohort_csv,
    stratified_kfold,
    synthesize_cohort,
    write_cohort_csv,
)
from .experiment import (
    ExperimentConfig,
    ExperimentReport,
    config_from_dict,
    default_model_grid,
    load_experiment_config,
    run_experiment,
)
from .importance import permutation_importance
from .metrics import equalized_odds, group_rates, macro_f1
from .models import (
    ModelSpec,
    TrainedModel,
    parse_model_name,
    train,
)
from .report import emit_report, load_report_json
from .specfile import cohort_spec_from_dict, default_cohort_spec, load_cohort_spec

__all__ = [
    "__version__",
    "AWARE",
    "UNAWARE",
    "PROTOCOLS",
    "Cohort",
    "CohortSpec",
    "ClassSpec",
    "StatBlock",
    "Scaler",
    "load_cohort_csv",
    "write_cohort_csv",
    "synthesize_cohort",
    "stratified_kfold",
    "encode_features",
    "fit_minmax",
    "apply_minmax",
    "bin_age",
    "age_bin_labels",
    "ModelSpec",
    "TrainedModel",
    "train",
    "macro_f1",
    "group_rates",
    "equalized_odds",
    "permutation_importance",
    "ExperimentConfig",
    "ExperimentReport",
    "default_model_grid",
    "parse_model_name",
    "config_from_dict",
    "load_experiment_config",
    "run_experiment",
    "emit_report",
    "load_report_json",
    "cohort_spec_from_dict",
    "load_cohort_spec",
    "default_cohort_spec",
]
