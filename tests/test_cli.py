import json
import os
import re
import resource
import subprocess
import sys
from importlib import resources
from pathlib import Path
from xml.dom import minidom

import pytest
import yaml

from fairbench import cli
from fairbench.cli import main
from fairbench.dataset import CSV_HEADER, MAX_CLASS_SIZE, load_cohort_csv
from fairbench.errors import InvariantViolation
from fairbench.experiment import ExperimentReport
from fairbench.report import load_report_json
from fairbench.specfile import cohort_spec_to_dict, default_cohort_spec


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


@pytest.mark.parametrize("size", [2**70, 2**63, 1e308, MAX_CLASS_SIZE + 1],
                         ids=["2**70", "2**63", "1e308", "max+1"])
@pytest.mark.parametrize("command", ["synth", "run"])
def test_a_class_size_beyond_one_float64_column_exits_1(tmp_path, capsys, caplog, size, command):
    # a size past int64 reached np.sqrt as a Python int, and 2**63 numpy's
    # dimension limit, each an exit 2 with a traceback
    doc = yaml.safe_load(resources.files("fairbench").joinpath("data/default_cohort.yaml")
                         .read_text("utf-8"))
    doc["classes"]["ITP"]["size"] = size
    spec = tmp_path / "spec.yaml"
    spec.write_text(yaml.safe_dump(doc))
    config = tmp_path / "config.yaml"
    config.write_text(f"cohort: {{synthetic: {{spec: {spec}}}}}\n")
    argv = {"synth": ["synth", "--spec", str(spec), "--out", str(tmp_path / "c.csv")],
            "run": ["run", "--config", str(config), "--out", str(tmp_path / "o")]}[command]
    assert main(argv) == 1
    assert "'classes.ITP.size': expected at most" in capsys.readouterr().err
    assert not any(record.exc_info for record in caplog.records)


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
    # the arguments main was given, not those of the process that called it
    assert meta["argv"] == ["run", "--config", str(run_dir.parent / "config.yaml"),
                            "--out", str(run_dir), "--formats", "md,json,svg"]
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
    "n_permutation_repeats: 1.0e+308",
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
    pytest.param("k_folds: " + "[" * 5000, id="nested-5000"),
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


GOLDEN_REPORT = Path(__file__).parent / "golden" / "quick_report.json"


DELETE = object()


def edited_report(*edits) -> str:
    """The golden quick report with each (keys, value) edit made; a value of
    DELETE deletes the item."""
    doc = json.loads(GOLDEN_REPORT.read_text(encoding="utf-8"))
    for keys, value in edits:
        parent = doc
        for key in keys[:-1]:
            parent = parent[key]
        if value is DELETE:
            del parent[keys[-1]]
        else:
            parent[keys[-1]] = value
    return json.dumps(doc)


# the importance record of one feature in one fold of the golden quick report
MEAN_DROP = ("entries", 3, "importance", "test", 2, "features", "alt")
MEAN_DROP_PATH = "entries[3].importance.test[2].features.alt"


GOLDEN_ENTRIES = json.loads(GOLDEN_REPORT.read_text(encoding="utf-8"))["entries"]
SPEC = ("provenance", "config", "cohort_spec")


def with_spec(*edits) -> str:
    """The golden quick report whose config names the shipped calibration, as
    canonical_dict writes it, with each (keys, value) edit made."""
    return edited_report((SPEC, cohort_spec_to_dict(default_cohort_spec())["classes"]), *edits)


def nested_findings(depth: int) -> str:
    """The golden quick report with directional_findings ``depth`` lists deep,
    written as text: encoding so deep a list could exhaust the test's stack."""
    return edited_report((("directional_findings",), 0)).replace(
        '"directional_findings": 0', '"directional_findings": ' + "[" * depth + "]" * depth)

REPORT_CASES = [
    pytest.param("{}", "provenance is missing", id="{}"),
    pytest.param("[" * 2000, "nests too deeply to read", id="nested-2000"),
    pytest.param("not json", None, id="not json"),
    pytest.param("[1, 2]", "the document must be a mapping, got list", id="[1, 2]"),
    pytest.param(edited_report((("entries", 0, "mean_score"), 2.0),
                               (("entries", 1, "fold_scores", 0), -0.5)),
                 "entries[0].mean_score must be a number in [0, 1], got 2.0", id="mean-2-fold--0.5"),
    pytest.param(edited_report((("entries", 1, "fold_scores", 0), -0.5)),
                 "entries[1].fold_scores[0] must be", id="fold-score--0.5"),
    pytest.param(edited_report((("entries", 2, "fairness", "race", "pooled"), True)),
                 "entries[2].fairness.race.pooled must be", id="pooled-bool"),
    pytest.param(edited_report((("entries", 9, "fairness", "age", "per_fold", 4), "0.5")),
                 "entries[9].fairness.age.per_fold[4] must be", id="per-fold-string"),
    pytest.param(edited_report((("entries", 3, "fairness", "gender", "per_fold", 0), float("nan"))),
                 "entries[3].fairness.gender.per_fold[0] must be", id="per-fold-nan"),
    pytest.param(edited_report((("entries", 0, "mean_score"), DELETE)),
                 "entries[0].mean_score is missing", id="mean-missing"),
    pytest.param(edited_report((("entries", 4, "fairness"), DELETE)),
                 "entries[4].fairness is missing", id="fairness-missing"),
    pytest.param(edited_report((("entries",), {})), "entries must be a list", id="entries-mapping"),
    # each of these reached the renderers: md or svg exited 2, or for k_folds 4
    # rendered a table of 4 fold columns over 5 fold scores
    *[pytest.param(edited_report(((*MEAN_DROP, "mean_drop"), value)),
                   f"{MEAN_DROP_PATH}.mean_drop must be a number in [-1, 1], got {value!r}",
                   id=f"mean-drop-{name}")
      for value, name in ((None, "null"), ("x", "string"), ([1], "list"), ({"a": 1}, "mapping"),
                          (float("inf"), "inf"), (1e308, "1e308"))],
    pytest.param(edited_report((("entries", 1, "protocol"), "x")),
                 "entries has no entry for logr under unaware", id="protocol-x"),
    pytest.param(edited_report((("entries", 0, "label"), None)),
                 "entries[0].label must be a string, got None", id="label-None"),
    pytest.param(edited_report((("entries", 2, "model"), [1])),
                 "entries[2].model must be a string, got [1]", id="model-list"),
    pytest.param(edited_report((MEAN_DROP, DELETE)),
                 "entries[3].importance.test must be one or more folds that name the same "
                 "features", id="fold-without-a-feature"),
    pytest.param(edited_report((("entries", 1, "protocol"), "aware")),
                 "entries has no entry for logr under unaware", id="protocol-swapped"),
    pytest.param(edited_report((("provenance", "config", "k_folds"), "5")),
                 "provenance.config bad value for k_folds: expected an integer, got '5'",
                 id="k-folds-string"),
    pytest.param(edited_report((("provenance", "config", "k_folds"), 4)),
                 "entries[0].fold_scores must have provenance.config.k_folds (4) items",
                 id="k-folds-4"),
    # short fold lists rendered a ragged table
    pytest.param(edited_report((("entries", 2, "fairness", "age", "per_fold", 0), DELETE)),
                 "entries[2].fairness.age.per_fold must have provenance.config.k_folds (5) items",
                 id="per-fold-short"),
    pytest.param(edited_report((("entries", 1, "importance", "train", 4), DELETE)),
                 "entries[1].importance.train must have provenance.config.k_folds (5) items",
                 id="importance-short"),
    pytest.param(edited_report((("fold_flags", 1, "small_race_groups", 0), 1)),
                 "fold_flags[1].small_race_groups[0] must be a string, got 1",
                 id="race-group-int"),
    # each of these exited 0: the entries must be the grid the config names
    pytest.param(edited_report((("entries", 0), DELETE), (("entries", 0), DELETE)),
                 "entries has no entry for logr under aware", id="logr-deleted"),
    pytest.param(edited_report((("entries",), [])),
                 "entries has no entry for logr under aware", id="entries-empty"),
    pytest.param(edited_report((("entries",), GOLDEN_ENTRIES + GOLDEN_ENTRIES[:1])),
                 "entries[10] repeats the entry for logr under aware", id="entry-0-twice"),
    pytest.param(edited_report((("entries", 0, "model"), "knn-3"),
                               (("entries", 1, "model"), "knn-3")),
                 "entries has no entry for logr under aware", id="logr-renamed"),
    pytest.param(edited_report((("provenance", "config", "models"),
                                ["svm-rbf", "knn-2", "dt", "rf"])),
                 "entries[0] is for logr under aware, which provenance.config does not name",
                 id="model-not-configured"),
    # a null feature mapping reads as empty; the config's lists are non-empty
    # and repeat nothing, as ExperimentConfig checks; directional_findings is a
    # mapping of named keys, so no value nests deeper than the schema
    pytest.param(edited_report((("entries", 0, "importance", "train", 0, "features"), None)),
                 "entries[0].importance.train must be one or more folds that name the same "
                 "features", id="features-null"),
    pytest.param(edited_report((("provenance", "config", "protocols"), []), (("entries",), [])),
                 "provenance.config protocols must be a non-empty subset of "
                 "('aware', 'unaware')", id="protocols-empty"),
    pytest.param(edited_report((("provenance", "config", "models"), []), (("entries",), [])),
                 "provenance.config model grid must not be empty", id="models-empty"),
    pytest.param(edited_report((("provenance", "config", "models"),
                                ["logr", "svm-rbf", "knn-2", "dt", "rf", "logr"])),
                 "provenance.config duplicate models in grid: "
                 "['logr', 'svm-rbf', 'knn-2', 'dt', 'rf', 'logr']", id="models-repeated"),
    pytest.param(edited_report((("provenance", "config", "protocols"), ["aware", "unaware",
                                                                        "aware"])),
                 "provenance.config duplicate protocols: ['aware', 'unaware', 'aware']",
                 id="protocols-repeated"),
    pytest.param(nested_findings(64), "directional_findings must be a mapping, got list",
                 id="findings-nested-64"),
    # 990 levels under the test's own frames exceed the JSON decoder's limit
    pytest.param(nested_findings(990), "nests too deeply to read", id="findings-nested-990"),
    # each of these exited 0: every key of the report is named, and its config
    # is one ExperimentConfig accepts
    pytest.param(edited_report((("entries", 4, "notes"), "x")),
                 "unknown key(s) in entries[4]: ['notes']", id="entry-extra-key"),
    pytest.param(edited_report((("provenance", "host"), "x")),
                 "unknown key(s) in provenance: ['host']", id="provenance-extra-key"),
    pytest.param(edited_report((("fold_flags", 2, "size"), 30)),
                 "unknown key(s) in fold_flags[2]: ['size']", id="fold-flag-extra-key"),
    pytest.param(edited_report((("provenance", "config", "k_folds"), 1)),
                 "provenance.config k_folds must be >= 2", id="config-k-folds-1"),
    pytest.param(edited_report((("provenance", "config", "models"), ["logr[C=-1.0]"])),
                 "provenance.config bad value for models: unknown model name 'logr[C=-1.0]'",
                 id="config-negative-c"),
    pytest.param(edited_report((("provenance", "config", "n_workers"), 2)),
                 "provenance.config must be a mapping of exactly the keys",
                 id="config-extra-key"),
    pytest.param(with_spec(((*SPEC, "ITP", "size"), DELETE)),
                 "provenance.config bad value for cohort_spec: classes.ITP.size is missing",
                 id="config-spec-without-size"),
    pytest.param(with_spec(((*SPEC, "ITP", "gender", "F"), 0.1)),
                 "provenance.config bad value for cohort_spec: gender proportions must sum to 1",
                 id="config-spec-proportions"),
]
# the cases a reader rejects before it builds a report
NOT_A_DOCUMENT = ("not json", "nested-2000", "findings-nested-990")


@pytest.mark.parametrize("text, named", REPORT_CASES)
def test_report_of_a_malformed_file_exits_1(tmp_path, capsys, text, named):
    path = tmp_path / "report.json"
    path.write_text(text)
    for fmt in ("md", "json", "svg"):
        assert main(["report", "--in", str(path), "--out", str(tmp_path / "o"),
                     "--formats", fmt]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err
        assert named is None or named in err
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text, named", [case for case in REPORT_CASES
                                         if case.id not in NOT_A_DOCUMENT])
def test_a_report_read_and_a_report_built_fail_with_one_message(tmp_path, capsys, text, named):
    path = tmp_path / "report.json"
    path.write_text(text)
    assert main(["report", "--in", str(path), "--out", str(tmp_path / "o")]) == 1
    with pytest.raises(InvariantViolation) as caught:
        ExperimentReport.from_dict(json.loads(text))
    assert capsys.readouterr().err == f"error: {path} is not a report: {caught.value}\n"


def test_a_report_with_directional_findings_63_lists_deep_exits_1(tmp_path, capsys):
    # 64 levels, the report's own included; the schema names the keys of
    # directional_findings, so a list there is an error at its first level
    path = tmp_path / "report.json"
    path.write_text(nested_findings(63))
    assert main(["report", "--in", str(path), "--out", str(tmp_path / "o"),
                 "--formats", "md,json,svg"]) == 1
    assert capsys.readouterr().err == (f"error: {path} is not a report: directional_findings "
                                       f"must be a mapping, got list\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("keys", [("provenance", "master_seed"), ("fold_flags", 0, "fold"),
                                  ("provenance", "config", "models")])
def test_a_value_nested_nearly_as_deep_as_json_reads_exits_1(tmp_path, capsys, keys):
    # a value this deep decodes, or nearly does, but its repr in a message may
    # exhaust the stack; every depth must still exit 1 with a message
    path = tmp_path / "report.json"
    limit = sys.getrecursionlimit()
    for depth in range(limit - 120, limit + 1, 4):
        path.write_text(edited_report((keys, "HOLE")).replace(
            '"HOLE"', "[" * depth + "]" * depth))
        assert main(["report", "--in", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path} ") and "Traceback" not in err


def test_rendered_labels_and_feature_names_are_escaped(tmp_path):
    # the labels and a feature name of logr's entries carry XML and table markup
    doc = json.loads(GOLDEN_REPORT.read_text(encoding="utf-8"))
    label, feature = "A & <B> | C", "alt <&> | x"
    for entry in doc["entries"][:2]:
        entry["label"] = label
        for folds in entry["importance"].values():
            for fold in folds:
                fold["features"][feature] = fold["features"].pop("alt")
    path = tmp_path / "report.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert main(["report", "--in", str(path), "--out", str(out), "--formats", "md,svg"]) == 0
    svgs = sorted(out.glob("*.svg"))
    assert len(svgs) == 2 * len(doc["entries"])
    texts = {}
    for svg in svgs:
        nodes = minidom.parse(str(svg)).getElementsByTagName("text")
        texts[svg.name] = [node.firstChild.data for node in nodes]
    assert texts["importance_logr_aware_test.svg"][0] == f"{label} (Demographic-aware), test split"
    assert feature in texts["importance_logr_unaware_train.svg"]
    for md in ("performance.md", "fairness.md"):
        text = (out / md).read_text()
        assert label.replace("|", "\\|") in text
        for table in re.findall(r"(?:^\|.*\n)+", text, re.MULTILINE):
            # every row has the header's cells, counting unescaped bars
            assert len({len(re.split(r"(?<!\\)\|", row)) for row in table.splitlines()}) == 1


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


def test_a_k_folds_beyond_the_classes_exits_1_before_any_fold_is_made(tmp_path):
    # the child alone is capped at 2 GiB, so a split that made k folds before
    # it checked the classes fails fast instead of taking the machine's memory
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.pop("FAIRBENCH_LOG", None)
    config = tmp_path / "config.yaml"
    config.write_text("models: [logr]\nprotocols: [unaware]\nk_folds: 1000000000\n")
    proc = subprocess.run([sys.executable, "-m", "fairbench.cli", "run", "--config", str(config),
                           "--out", str(tmp_path / "o")], capture_output=True, text=True,
                          env=env, timeout=120,
                          preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2 << 30,) * 2))
    assert proc.returncode == 1  # no traceback: the message is all of stderr
    assert proc.stderr == ("error: (k_folds=1000000000) class ITP has 100 records, "
                           "needs at least k=1000000000\n")


def _itp(doc: dict) -> dict:
    return doc["classes"]["ITP"]


# one-key edits of the shipped calibration, each with the part of its message
# that names the path of the bad value
SPEC_EDITS = {
    "no-classes": (lambda doc: doc.update(classes={}), "classes.ITP is missing"),
    "classes-not-a-mapping": (lambda doc: doc.update(classes=5),
                              "classes must be a mapping, got int"),
    "gender-list": (lambda doc: _itp(doc).update(gender=["F", "M"]),
                    "classes.ITP.gender must be a mapping, got list"),
    "variables-list": (lambda doc: _itp(doc).update(variables=[1]),
                       "classes.ITP.variables must be a mapping, got list"),
    "fractional-size": (lambda doc: _itp(doc).update(size=100.7), "'classes.ITP.size'"),
    "string-size": (lambda doc: _itp(doc).update(size="100"), "'classes.ITP.size'"),
    "string-proportion": (lambda doc: _itp(doc)["gender"].update(F="0.47"),
                          "'classes.ITP.gender.F'"),
    "block-key-typo": (lambda doc: _itp(doc)["variables"]["alt"].update(
        meen=_itp(doc)["variables"]["alt"].pop("mean")),
        "unknown key(s) in classes.ITP.variables.alt: ['meen']"),
    "class-key-typo": (lambda doc: _itp(doc).update(szie=100),
                       "unknown key(s) in classes.ITP: ['szie']"),
    "extra-class": (lambda doc: doc["classes"].update(Other=doc["classes"]["NonITP"]),
                    "unknown key(s) in classes: ['Other']"),
    "min-missing": (lambda doc: _itp(doc)["variables"]["alt"].pop("min"),
                    "classes.ITP.variables.alt.min is missing"),
    "block-missing": (lambda doc: _itp(doc)["variables"].pop("alt"),
                      "classes.ITP.variables.alt is missing"),
}


def write_edited_spec(path, edit) -> None:
    text = resources.files("fairbench").joinpath("data/default_cohort.yaml").read_text("utf-8")
    doc = yaml.safe_load(text)
    edit(doc)
    path.write_text(yaml.safe_dump(doc))


@pytest.mark.parametrize("edit, named", SPEC_EDITS.values(), ids=SPEC_EDITS.keys())
def test_synth_invalid_spec_exits_1(tmp_path, capsys, edit, named):
    spec = tmp_path / "spec.yaml"
    write_edited_spec(spec, edit)
    assert main(["synth", "--spec", str(spec), "--seed", "1",
                 "--out", str(tmp_path / "c.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not (tmp_path / "c.csv").exists()


def test_run_with_an_invalid_spec_exits_1(tmp_path, capsys):
    spec = tmp_path / "spec.yaml"
    write_edited_spec(spec, SPEC_EDITS["fractional-size"][0])
    config = tmp_path / "config.yaml"
    config.write_text(f"cohort: {{synthetic: {{spec: {spec}}}}}\n")
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "classes.ITP.size" in err


@pytest.mark.parametrize("content", [b"k_folds: [1\n", b"classes: \xff\n",
                                     b"classes: " + b"[" * 5000],
                         ids=["syntax", "bytes", "nested-5000"])
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


def test_run_cohort_csv_with_an_oversized_cell_exits_1(tmp_path, capsys):
    csv_path = tmp_path / "big.csv"
    csv_path.write_text(",".join(CSV_HEADER) + "\n2010," + "x" * 200_000 + "\n")
    config = tmp_path / "config.yaml"
    config.write_text(f"cohort: {{csv: {csv_path}}}\n")
    assert main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {csv_path}: CSV line 2: field larger than field limit")


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
