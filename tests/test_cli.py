import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest
import yaml

from fairbench import cli
from fairbench.cli import main
from fairbench.dataset import load_cohort_csv


def test_synth_writes_loadable_csv(tmp_path, capsys):
    out = tmp_path / "cohort.csv"
    assert main(["synth", "--seed", "3", "--out", str(out)]) == 0
    cohort = load_cohort_csv(out)
    assert (cohort.n_itp, cohort.n_non_itp) == (100, 50)
    assert str(out) in capsys.readouterr().out


def test_synth_creates_the_output_directory(tmp_path):
    out = tmp_path / "new" / "dir" / "cohort.csv"
    assert main(["synth", "--seed", "3", "--out", str(out)]) == 0
    assert load_cohort_csv(out).n_itp == 100


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
    assert set(meta["host"]) == {"numpy_simd", "blas_core"}
    assert meta["host"] == json.loads(json.dumps(cli.host_facts()))


def test_run_meta_names_the_blas_core_the_run_used(tmp_path):
    # a child process, as OpenBLAS picks its core when it is loaded
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell", "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    config = tmp_path / "config.yaml"
    config.write_text("models: [logr]\nprotocols: [unaware]\nk_folds: 2\nn_permutation_repeats: 1\n")
    out = tmp_path / "o"
    subprocess.run([sys.executable, "-m", "fairbench.cli", "run", "--config", str(config),
                    "--out", str(out), "--formats", "json"], check=True, env=env, timeout=120)
    host = json.loads((out / "run_meta.json").read_text())["host"]
    if host["blas_core"] is None:
        pytest.skip("numpy has no bundled OpenBLAS here")
    assert host["blas_core"] == "Haswell"
    assert host["numpy_simd"] == cli.host_facts()["numpy_simd"]


def test_report_rerender_from_json(run_dir, tmp_path):
    out2 = tmp_path / "rerender"
    code = main(["report", "--in", str(run_dir / "report.json"),
                 "--formats", "md,json", "--out", str(out2)])
    assert code == 0
    assert (out2 / "report.json").read_bytes() == (run_dir / "report.json").read_bytes()
    assert (out2 / "performance.md").read_text() == (run_dir / "performance.md").read_text()


def test_each_format_is_written_once(tmp_path, capsys):
    config = tmp_path / "config.yaml"
    config.write_text("models: [dt]\nprotocols: [unaware]\nk_folds: 2\nn_permutation_repeats: 1\n")
    out = tmp_path / "o"
    assert main(["run", "--config", str(config), "--out", str(out),
                 "--formats", "json,md,JSON,markdown"]) == 0
    printed = [Path(line).name for line in capsys.readouterr().out.splitlines()]
    assert printed == ["report.json", "performance.md", "fairness.md", "run_meta.json"]


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
    "models: logr",
    "models: {a: 1}",
    "protocols: aware",
    "cohort: {synthetic: {seed: abc}}",
    "cohort: 5",
    "cohort: {synthetic: [1]}",
    "cohort: {synthetic: {spec: 5}}",
    "cohort: {csv: 5}",
    "protocols: [aware, aware]",
    "cohort: {sythetic: {seed: 5}}",
    "cohort: {synthetic: {sed: 5}}",
    "models: [{family: forest, n_trees: 5, seed: 5}]",
    "models: [{family: knn, k_neighbors: 2.5}]",
    "k_folds: [1",
    'clamp: "false"',
    "models: [{family: svm, kernel: rbf, coef0: 2}]",
    "k_folds: 2.5",
    "workers: 2.5",
    "seed: true",
    'seed: "7"',
    "cohort: {synthetic: {seed: 1.5}}",
    'n_permutation_repeats: "10"',
    'age_bin_edges: "45"',
    "age_bin_edges: [true, 65]",
    "age_bin_edges: [.nan]",
    "models: [{family: logr, C: .inf}]",
    "models: [{family: svm, kernel: rbf, C: .inf}]",
    "models: [{family: svm, kernel: rbf, gamma: .inf}]",
    "models: [{family: svm, kernel: p2, coef0: .inf}]",
    "models: [{family: svm, kernel: p3, coef0: .nan}]",
    "models: [{family: logr, C: true}]",
    "models: [svm-xyz]",
    'models: ["rf[n_trees=]"]',
    'models: ["rf[bogus=1]"]',
    'models: ["rf[n_trees=30"]',
    'models: ["dt[max_depth=2.5]"]',
])
def test_run_malformed_config_value_exits_1(tmp_path, capsys, line):
    config = tmp_path / "bad.yaml"
    config.write_text(line + "\n")
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_run_unknown_format_exits_1_before_the_study(tmp_path, capsys, monkeypatch):
    def fail(config):
        raise AssertionError("the study must not start")

    monkeypatch.setattr(cli, "run_experiment", fail)
    config = tmp_path / "config.yaml"
    config.write_text("models: [dt]\n")
    out = tmp_path / "o"
    assert main(["run", "--config", str(config), "--out", str(out),
                 "--formats", "md,pdf"]) == 1
    assert "'pdf'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text", ["{}", "not json", "[1, 2]"])
def test_report_of_a_malformed_file_exits_1(tmp_path, capsys, text):
    path = tmp_path / "report.json"
    path.write_text(text)
    assert main(["report", "--in", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err
    assert not (tmp_path / "o").exists()


def test_run_unknown_config_key_exits_1(tmp_path):
    config = tmp_path / "bad.yaml"
    config.write_text("k_fold: 5\n")
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("command", ["run-config", "synth-spec", "cohort-csv", "report-in"])
def test_a_missing_input_file_exits_1(tmp_path, capsys, caplog, command):
    missing = tmp_path / "nope"
    out = tmp_path / "o"
    config = tmp_path / "config.yaml"
    config.write_text(f"cohort: {{csv: {missing}}}\n")
    argv = {
        "run-config": ["run", "--config", str(missing), "--out", str(out)],
        "synth-spec": ["synth", "--spec", str(missing), "--out", str(out)],
        "cohort-csv": ["run", "--config", str(config), "--out", str(out)],
        "report-in": ["report", "--in", str(missing), "--out", str(out)],
    }[command]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and str(missing) in captured.err
    assert captured.out == ""
    assert not out.exists()
    assert not any(record.exc_info for record in caplog.records)  # no traceback logged


def test_a_validation_error_is_printed_once(tmp_path):
    # in a child process, as pytest's log capture would take a logged copy
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.pop("FAIRBENCH_LOG", None)
    missing = tmp_path / "nope.yaml"
    proc = subprocess.run([sys.executable, "-m", "fairbench.cli", "run", "--config", str(missing),
                           "--out", str(tmp_path / "o")],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and str(missing) in lines[0]


def _itp(doc: dict) -> dict:
    return doc["classes"]["ITP"]


# one-key edits of the shipped calibration
SPEC_EDITS = {
    "no-classes": lambda doc: doc.update(classes={}),
    "classes-not-a-mapping": lambda doc: doc.update(classes=5),
    "gender-list": lambda doc: _itp(doc).update(gender=["F", "M"]),
    "variables-list": lambda doc: _itp(doc).update(variables=[1]),
    "fractional-size": lambda doc: _itp(doc).update(size=100.7),
    "string-size": lambda doc: _itp(doc).update(size="100"),
    "string-proportion": lambda doc: _itp(doc)["gender"].update(F="0.47"),
    "block-key-typo": lambda doc: _itp(doc)["variables"]["alt"].update(
        meen=_itp(doc)["variables"]["alt"].pop("mean")),
    "class-key-typo": lambda doc: _itp(doc).update(szie=100),
    "extra-class": lambda doc: doc["classes"].update(Other=doc["classes"]["NonITP"]),
}


def write_edited_spec(path, edit) -> None:
    text = resources.files("fairbench").joinpath("data/default_cohort.yaml").read_text("utf-8")
    doc = yaml.safe_load(text)
    edit(doc)
    path.write_text(yaml.safe_dump(doc))


@pytest.mark.parametrize("edit", SPEC_EDITS.values(), ids=SPEC_EDITS.keys())
def test_synth_invalid_spec_exits_1(tmp_path, capsys, edit):
    spec = tmp_path / "spec.yaml"
    write_edited_spec(spec, edit)
    assert main(["synth", "--spec", str(spec), "--seed", "1",
                 "--out", str(tmp_path / "c.csv")]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "c.csv").exists()


def test_run_with_an_invalid_spec_exits_1(tmp_path, capsys):
    spec = tmp_path / "spec.yaml"
    write_edited_spec(spec, SPEC_EDITS["fractional-size"])
    config = tmp_path / "config.yaml"
    config.write_text(f"cohort: {{synthetic: {{spec: {spec}}}}}\n")
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "classes.ITP.size" in err


@pytest.mark.parametrize("content", [b"k_folds: [1\n", b"classes: \xff\n"], ids=["syntax", "bytes"])
def test_synth_spec_that_is_not_utf8_yaml_exits_1(tmp_path, capsys, content):
    spec = tmp_path / "spec.yaml"
    spec.write_bytes(content)
    assert main(["synth", "--spec", str(spec), "--seed", "1",
                 "--out", str(tmp_path / "c.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(spec) in err
    assert not (tmp_path / "c.csv").exists()


def test_run_cohort_csv_that_is_not_utf8_exits_1(tmp_path, capsys):
    csv_path = tmp_path / "latin1.csv"
    csv_path.write_bytes(b"diagnosis_year,race\n2010,Bl\xe9ck\n")
    config = tmp_path / "config.yaml"
    config.write_text(f"cohort: {{csv: {csv_path}}}\n")
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(csv_path) in err


@pytest.mark.parametrize("argv, message", [
    (["run", "--config", "configs/quick.yaml", "--out", "o", "--seed", "5"],
     "fairbench: error: unrecognized arguments: --seed 5"),
    (["run", "--config", "configs/quick.yaml"],
     "fairbench run: error: the following arguments are required: --out"),
], ids=["unknown-option", "missing-out"])
def test_usage_error_exits_1_with_the_argparse_message(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: fairbench")
    assert err.endswith(message + "\n")


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0
    assert "--config" in capsys.readouterr().out
