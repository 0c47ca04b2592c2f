"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

import time

import numpy as np
import pytest

from fairbench.dataset import AWARE, UNAWARE, stratified_kfold
from fairbench.experiment import ExperimentConfig, run_experiment
from fairbench.metrics import equalized_odds, group_rates, macro_f1
from fairbench.models import ModelSpec, logistic_loss_grad, train
from fairbench.report import mean_importance
from test_dataset import make_cohort
from test_metrics import evaluable, oracle_eo, oracle_group_rates, oracle_macro_f1

DT_RF = (ModelSpec("tree"), ModelSpec("forest"))
REDUCED_GRID = (ModelSpec("logr"), ModelSpec("svm", kernel="rbf"), ModelSpec("knn", k_neighbors=2),
                ModelSpec("tree"), ModelSpec("forest"))


def _verdict(criterion: int, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def dt_rf_runs():
    """Default-calibration runs of the two tree models for three master seeds."""
    runs = {}
    for seed in (41, 42, 43):
        started = time.perf_counter()
        report = run_experiment(ExperimentConfig(master_seed=seed, models=DT_RF))
        runs[seed] = (report, time.perf_counter() - started)
    return runs


@pytest.fixture(scope="module")
def reduced_run():
    config = ExperimentConfig(models=REDUCED_GRID, n_permutation_repeats=2)
    return config, run_experiment(config)


def test_criterion_1_separable_cohort_reproduction(dt_rf_runs):
    report, elapsed = dt_rf_runs[42]
    perfect = all(
        report.entry(model, protocol)["mean_score"] == 1.0
        and all(s == 1.0 for s in report.entry(model, protocol)["fold_scores"])
        for model in ("dt", "rf")
        for protocol in (AWARE, UNAWARE)
    )
    fast = elapsed < 30.0
    ok = _verdict(
        1, perfect and fast,
        f"DT/RF mean macro-F1 = 1.000 across all folds and both protocols "
        f"(run took {elapsed:.1f} s, limit 30 s)",
    )
    assert ok


def test_criterion_2_fairness_reproduction(dt_rf_runs):
    report, _ = dt_rf_runs[42]
    eo = {
        (protocol, attr): report.entry("rf", protocol)["fairness"][attr]["pooled"]
        for protocol in (AWARE, UNAWARE)
        for attr in ("gender", "race", "age")
    }
    ok = _verdict(
        2, all(v == 1.0 for v in eo.values()),
        f"RF pooled equalized odds exactly 1.000 for gender/race/age in both protocols: {eo}",
    )
    assert ok


def test_criterion_3_importance_reproduction(dt_rf_runs):
    failures = []
    for seed, (report, _) in dt_rf_runs.items():
        for model in ("dt", "rf"):
            for protocol in (AWARE, UNAWARE):
                entry = report.entry(model, protocol)
                for split in ("train", "test"):
                    ranked = mean_importance(entry, split)
                    top_name, top_value = ranked[0]
                    runner_up = ranked[1][1]
                    if top_name != "dx_plt_ct" or not top_value > runner_up:
                        failures.append((seed, model, protocol, split, ranked[:2]))
    ok = _verdict(
        3, not failures,
        "dx_plt_ct has the strictly largest mean permutation drop for DT and RF "
        f"on both splits and protocols over master seeds 41/42/43"
        + (f"; failures: {failures}" if failures else ""),
    )
    assert ok


def test_criterion_4_metric_oracles():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        yt = rng.integers(0, 2, n)
        yp = rng.integers(0, 2, n)
        g = rng.choice(["a", "b", "c"], n)

        assert macro_f1(yt, yp) == oracle_macro_f1(yt, yp)
        rates = group_rates(yt, yp, g)
        expected = oracle_group_rates(yt, yp, g)
        assert rates == expected
        if evaluable(rates):
            worst = max(worst, abs(equalized_odds(rates) - oracle_eo(expected)))
    ok = _verdict(
        4, worst <= 1e-12,
        f"1000 random vectors (n <= 12): worst |metric - exhaustive recount| = {worst:.2e}",
    )
    assert ok


def test_criterion_5_logr_gradient_check():
    worst = 0.0
    for ds in range(3):
        rng = np.random.default_rng(900 + ds)
        X = rng.random((35, 5))
        y = rng.integers(0, 2, 35)
        lam = 1.0 / 35
        for _ in range(10):
            wb = rng.standard_normal(6)
            _, grad = logistic_loss_grad(wb, X, y, lam)
            numeric = np.zeros_like(wb)
            h = 1e-6
            for i in range(len(wb)):
                e = np.zeros_like(wb)
                e[i] = h
                lp, _ = logistic_loss_grad(wb + e, X, y, lam)
                lm, _ = logistic_loss_grad(wb - e, X, y, lam)
                numeric[i] = (lp - lm) / (2 * h)
            rel = float(np.abs(numeric - grad).max()) / max(1.0, float(np.abs(grad).max()))
            worst = max(worst, rel)
    ok = _verdict(
        5, worst < 1e-5,
        f"analytic vs central-difference gradient, 10 points x 3 datasets: "
        f"worst relative error = {worst:.2e}",
    )
    assert ok


def test_criterion_6_svm_dual_feasibility():
    worst_sum = 0.0
    worst_box = 0.0
    for kernel in ("ln", "rbf", "p2", "p3", "p4"):
        for ds in range(5):
            rng = np.random.default_rng(300 + ds)
            X = rng.random((50, 4))
            y = (X[:, 0] + 0.4 * rng.standard_normal(50) > 0.5).astype(int)
            if y.min() == y.max():
                y[0] = 1 - y[0]
            m = train(ModelSpec("svm", kernel=kernel), X, y)
            worst_sum = max(worst_sum, abs(float(m.alpha @ m.train_t)))
            worst_box = max(
                worst_box,
                float(max(-m.alpha.min(), (m.alpha - m.spec.C).max())),
            )
    ok = _verdict(
        6, worst_sum <= 1e-6 and worst_box <= 0.0,
        f"5 datasets x 5 kernels: worst |sum alpha_i t_i| = {worst_sum:.2e}, "
        f"worst box violation = {worst_box:.2e}",
    )
    assert ok


def test_criterion_7_stratification_property():
    rng = np.random.default_rng(777)
    checked = 0
    for _ in range(100):
        n_itp = int(rng.integers(2, 40))
        n_non = int(rng.integers(2, 40))
        k = int(rng.integers(2, 1 + min(6, n_itp, n_non)))
        cohort = make_cohort(n_itp, n_non)
        folds = stratified_kfold(cohort, k, int(rng.integers(0, 2**63)))
        labels = cohort.y
        all_test = np.concatenate([test for _, test in folds])
        assert sorted(all_test.tolist()) == list(range(len(cohort)))
        for train_idx, test_idx in folds:
            assert np.intersect1d(train_idx, test_idx).size == 0
            for cls, n_cls in ((1, n_itp), (0, n_non)):
                got = int(np.sum(labels[test_idx] == cls))
                assert abs(got - n_cls / k) <= 1
        checked += 1
    ok = _verdict(
        7, checked == 100,
        "100 random cohorts: test folds partition the indices and per-fold "
        "class counts stay within 1 of n_class/k",
    )
    assert ok


def test_criterion_8_byte_identical_reports(reduced_run):
    config, report = reduced_run
    serial_again = run_experiment(config).to_json()
    workers = run_experiment(
        ExperimentConfig(models=config.models, n_permutation_repeats=2, n_workers=2)
    ).to_json()
    base = report.to_json()
    ok = _verdict(
        8, base == serial_again and base == workers,
        f"two serial runs and a forced 2-worker run all emit byte-identical "
        f"JSON ({len(base)} bytes)",
    )
    assert ok


def test_criterion_9_directional_findings_logged(reduced_run):
    _, report = reduced_run
    d = report.directional_findings
    assert d["evaluated"] is True
    lines = [f"unaware F1 >= aware: {d['unaware_f1_ge_aware']}"]
    lines.append(f"aware EO >= unaware: {d['aware_eo_ge_unaware']}")
    _verdict(
        9, True,
        "informational only - " + "; ".join(lines) + f"; all_pass={d['all_pass']}",
    )
    # report-only criterion: logged with flags, never hard-failing
