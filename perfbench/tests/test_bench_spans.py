"""Self-time arithmetic and span collection of the benchmark's traced run."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import pytest  # noqa: E402

import spans  # noqa: E402
from spans import Span  # noqa: E402


def span(sid, parent, name, start, end, pid=1, **attrs):
    return Span(sid, parent, 0, name, start, end, pid, attrs)


def test_covered_merges_overlaps_and_clips_to_the_interval():
    assert spans.covered(0.0, 10.0, []) == 0.0
    assert spans.covered(0.0, 10.0, [(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)]) == 5.0
    assert spans.covered(2.0, 6.0, [(0.0, 3.0), (5.0, 9.0)]) == 2.0
    assert spans.covered(0.0, 10.0, [(4.0, 6.0), (1.0, 9.0)]) == 8.0


def test_self_time_subtracts_nested_and_parallel_children():
    tree = [
        span("r", None, "study", 0.0, 10.0),
        span("a", "r", "experiment.pair", 1.0, 6.0, pid=2),  # two workers overlap
        span("b", "r", "experiment.pair", 2.0, 8.0, pid=3),
        span("c", "a", "models.train", 1.5, 2.5, pid=2),
        span("d", "c", "models.predict", 2.0, 2.25, pid=2),
    ]
    own = spans.self_times(tree)
    assert own["r"] == pytest.approx(10.0 - 7.0)
    assert own["a"] == pytest.approx(5.0 - 1.0)
    assert own["b"] == pytest.approx(6.0)
    assert own["c"] == pytest.approx(0.75)
    assert own["d"] == pytest.approx(0.25)


def test_layer_metrics_on_hand_made_spans():
    tree = [
        span("r", None, "study", 0.0, 10.0),
        span("e", "r", "experiment.run", 0.0, 9.0),
        span("p", "e", "experiment.pair", 0.5, 8.5),
        span("t", "p", "models.train", 1.0, 2.0, family="logr", n_iter=7, not_converged=1),
        span("q", "p", "models.predict", 2.0, 2.5, family="logr", rows=30),
        span("i", "p", "importance", 3.0, 8.0),
        span("q1", "i", "models.predict", 3.0, 4.0, family="logr", rows=30),
        span("q2", "i", "models.predict", 4.0, 5.0, family="logr", rows=30),
        span("s", "i", "metrics.score", 5.0, 5.5),
        span("m", "r", "report.emit", 9.0, 9.5),
    ]
    m = spans.layer_metrics(tree, tree[0])
    assert m["trace.study_s"] == 10.0
    assert m["experiment.self_s"] == pytest.approx((9.0 - 8.0) + (8.0 - 6.5))
    assert m["models.train_s.logr"] == pytest.approx(1.0)
    assert m["models.train_s.svm"] == 0.0
    assert m["models.predict_s.logr"] == pytest.approx(2.5)
    assert (m["models.logr_iters"], m["models.not_converged"], m["models.train_calls"]) == (7, 1, 1)
    assert (m["models.predict_calls"], m["models.predict_rows"]) == (3, 90)
    assert m["importance.self_s"] == pytest.approx(2.5)
    assert m["importance.total_s"] == pytest.approx(5.0)
    assert m["importance.predict_calls_per_call"] == 2.0
    assert m["metrics.score_s"] == pytest.approx(0.5)
    assert m["report.emit_s"] == pytest.approx(0.5)
    assert m["experiment.worker_busy_s.0"] == pytest.approx(8.0)
    assert m["experiment.worker_busy_s.1"] == 0.0


def test_traced_pool_study_collects_worker_spans_and_restores_the_program(tmp_path):
    from fairbench import experiment, models
    from fairbench.experiment import config_from_dict

    config = config_from_dict({"models": ["dt", "logr"], "protocols": ["aware"],
                               "k_folds": 2, "n_permutation_repeats": 1, "workers": 2})
    untraced = experiment.run_experiment(config).to_json()
    original = models.TrainedModel.predict

    tracer = spans.Tracer(tmp_path / "spool")
    uninstall = spans.install(tracer)
    try:
        with tracer.span("study") as root:
            traced = experiment.run_experiment(config).to_json()
    finally:
        uninstall()
    collected = tracer.collect()

    assert traced == untraced
    assert models.TrainedModel.predict is original
    pairs = [s for s in collected if s.name == "experiment.pair"]
    assert len(pairs) == 2 and all(s.pid != root.pid for s in pairs)
    assert all(s.parent == root.id for s in pairs)
    trains = [s for s in collected if s.name == "models.train"]
    assert len(trains) == 4 and {s.pid for s in trains} == {s.pid for s in pairs}
    assert not list((tmp_path / "spool").glob("*.json"))


def test_a_failed_install_leaves_the_program_unpatched(tmp_path, monkeypatch):
    from fairbench import experiment, models

    original = models.TrainedModel.predict
    monkeypatch.delattr(experiment, "_evaluate_pair")
    with pytest.raises(KeyError):
        spans.install(spans.Tracer(tmp_path))
    assert models.TrainedModel.predict is original
    assert not hasattr(experiment.train, "__wrapped__")
