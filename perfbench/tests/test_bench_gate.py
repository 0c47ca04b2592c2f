"""The benchmark's correctness gate accepts a real report and rejects tampering."""

import copy
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import pytest  # noqa: E402

import gate  # noqa: E402

MODELS, PROTOCOLS, K = ("logr", "dt", "rf"), ("aware", "unaware"), 2


@pytest.fixture(scope="module")
def report():
    from fairbench.experiment import config_from_dict, run_experiment

    config = config_from_dict({"models": list(MODELS),
                               "protocols": list(PROTOCOLS), "k_folds": K,
                               "n_permutation_repeats": 1})
    return json.loads(run_experiment(config).to_json())


def check(doc):
    return gate.check_report(doc, MODELS, PROTOCOLS, K)


def entry(doc, model, protocol="aware"):
    return next(e for e in doc["entries"] if (e["model"], e["protocol"]) == (model, protocol))


def test_a_real_report_passes(report):
    assert check(report) == []


def tampered(report, edit):
    doc = copy.deepcopy(report)
    edit(doc)
    return check(doc)


def test_a_missing_entry_is_rejected(report):
    assert tampered(report, lambda d: d["entries"].pop())


def test_a_score_outside_the_unit_interval_is_rejected(report):
    def edit(doc):
        entry(doc, "logr")["fairness"]["race"]["per_fold"][0] = 1.5

    assert tampered(report, edit)


def test_an_imperfect_tree_fold_is_rejected(report):
    def edit(doc):
        entry(doc, "dt", "unaware")["fold_scores"][1] = 0.98

    assert tampered(report, edit)


def test_a_forest_may_miss_one_boundary_patient_but_no_more(report):
    def edit(score):
        def apply(doc):
            entry(doc, "rf")["fold_scores"][0] = score
        return apply

    assert not tampered(report, edit(0.961))
    assert tampered(report, edit(0.85))


def test_platelets_not_ranked_first_is_rejected(report):
    def edit(doc):
        for fold in entry(doc, "rf")["importance"]["test"]:
            fold["features"]["dx_plt_ct"]["mean_drop"] = -0.1

    assert tampered(report, edit)
