import json

import pytest

from fairbench.cli import main
from fairbench.dataset import load_cohort_csv


def test_synth_writes_loadable_csv(tmp_path, capsys):
    out = tmp_path / "cohort.csv"
    assert main(["synth", "--seed", "3", "--out", str(out)]) == 0
    cohort = load_cohort_csv(out)
    assert (cohort.n_itp, cohort.n_non_itp) == (100, 50)
    assert str(out) in capsys.readouterr().out


def test_synth_with_explicit_spec(tmp_path):
    spec_path = tmp_path / "spec.yaml"
    spec_path.write_text(
        """
classes:
  ITP:
    size: 6
    gender: {M: 0.5, F: 0.5}
    race: {White: 0.5, Black: 0.2, Asian: 0.2, Other: 0.1}
    variables:
      diagnosis_year: {min: 2000, max: 2010}
      age_last_seen: {min: 30, max: 80, median: 50, mean: 52}
      alt: {min: 5, max: 50, median: 20, mean: 22}
      dx_hb_ct: {min: 100, max: 200, median: 140, mean: 145}
      dx_neutro_ct: {min: 1, max: 10, median: 4, mean: 4.5}
      wbc_ct: {min: 2, max: 20, median: 8, mean: 9}
      rbc_ct: {min: 2, max: 6, median: 4, mean: 4.2}
      dx_plt_ct: {min: 0, max: 30, median: 12, mean: 14}
  NonITP:
    size: 4
    gender: {M: 0.5, F: 0.5}
    race: {White: 0.5, Black: 0.2, Asian: 0.2, Other: 0.1}
    variables:
      diagnosis_year: {min: 2000, max: 2010}
      age_last_seen: {min: 30, max: 80, median: 50, mean: 52}
      alt: {min: 5, max: 50, median: 20, mean: 22}
      dx_hb_ct: {min: 100, max: 200, median: 140, mean: 145}
      dx_neutro_ct: {min: 1, max: 10, median: 4, mean: 4.5}
      wbc_ct: {min: 2, max: 20, median: 8, mean: 9}
      rbc_ct: {min: 2, max: 6, median: 4, mean: 4.2}
      dx_plt_ct: {min: 100, max: 400, median: 250, mean: 260}
"""
    )
    out = tmp_path / "small.csv"
    assert main(["synth", "--spec", str(spec_path), "--seed", "1", "--out", str(out)]) == 0
    cohort = load_cohort_csv(out)
    assert (cohort.n_itp, cohort.n_non_itp) == (6, 4)


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli_run")
    config = tmp / "config.yaml"
    config.write_text(
        """
cohort:
  synthetic: {seed: 2}
k_folds: 3
seed: 5
models: [dt]
protocols: [unaware]
n_permutation_repeats: 1
"""
    )
    out = tmp / "out"
    code = main(["run", "--config", str(config), "--out", str(out),
                 "--formats", "md,json,svg"])
    assert code == 0
    return out


def test_run_writes_all_outputs(run_dir):
    names = {p.name for p in run_dir.iterdir()}
    assert {"report.json", "performance.md", "fairness.md", "run_meta.json"} <= names
    assert any(n.startswith("importance_dt_") for n in names)


def test_run_meta_sidecar_has_wall_clock(run_dir):
    meta = json.loads((run_dir / "run_meta.json").read_text())
    assert meta["wall_clock_seconds"] >= 0
    assert "config_hash" in meta
    assert set(meta["blas"]) == {"name", "version"}
    assert meta["blas"]["name"]
    assert set(meta["blas_threads_env"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"}


def test_report_rerender_from_json(run_dir, tmp_path):
    out2 = tmp_path / "rerender"
    code = main(["report", "--in", str(run_dir / "report.json"),
                 "--formats", "md,json", "--out", str(out2)])
    assert code == 0
    assert (out2 / "report.json").read_bytes() == (run_dir / "report.json").read_bytes()
    assert (out2 / "performance.md").read_text() == (run_dir / "performance.md").read_text()


def test_run_invalid_config_exits_1(tmp_path):
    config = tmp_path / "bad.yaml"
    config.write_text("models: []\n")
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("line", [
    "age_bin_edges: []",
    "age_bin_edges: [65, 45]",
    "k_folds: abc",
    "workers: x",
    "n_permutation_repeats: [1]",
    "models: null",
    "protocols: null",
    "cohort: {synthetic: {seed: abc}}",
    "cohort: 5",
    "cohort: {synthetic: [1]}",
    "cohort: {synthetic: {spec: 5}}",
    "cohort: {csv: 5}",
    "protocols: [aware, aware]",
])
def test_run_malformed_config_value_exits_1(tmp_path, capsys, line):
    config = tmp_path / "bad.yaml"
    config.write_text(line + "\n")
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_run_unknown_config_key_exits_1(tmp_path):
    config = tmp_path / "bad.yaml"
    config.write_text("k_fold: 5\n")
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 1


def test_run_missing_config_file_exits_2(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.yaml"),
                 "--out", str(tmp_path / "o")]) == 2


def test_synth_invalid_spec_exits_1(tmp_path):
    spec = tmp_path / "spec.yaml"
    spec.write_text("classes: {}\n")
    assert main(["synth", "--spec", str(spec), "--seed", "1",
                 "--out", str(tmp_path / "c.csv")]) == 1
