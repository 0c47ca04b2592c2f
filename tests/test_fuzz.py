"""Seeded fuzz test of four input readers: the experiment config, the cohort
spec, the cohort CSV and a stored report. Each case changes one leaf of a
valid input (a value of a YAML or JSON document, a cell of the CSV, header
included) to one hostile value and runs the CLI in process: ``run`` on a
2-fold logr-and-dt study with one repeat for a config or CSV case, ``synth
--spec`` for a spec case, and ``report --in`` of the golden quick report to
every format for a report case. Every case must exit 0 or 1, an exit 1 with a
message, and none may log a traceback. The seed and the case count are fixed,
so a new exit 2 fails the same way on every run. The config's ``workers`` is
never set, so no case forks a pool."""

import copy
import csv
import json
import random
from importlib import resources
from pathlib import Path

import pytest
import yaml

from fairbench.cli import main
from fairbench.dataset import synthesize_cohort, write_cohort_csv
from fairbench.specfile import default_cohort_spec

SEED = 20261020
CASES = 60  # per reader

HOSTILE = [None, True, False, 0, -1, 1.5, 1e308, -1e308, float("nan"), float("inf"),
           float("-inf"), -0.0, 1e-320, 2**70, 2**63, 1000000, "", "x", "1e400", "1_000",
           "٣", [], {}, [1, 2]]

CONFIG = {"cohort": {"synthetic": {"seed": 3}}, "k_folds": 2, "seed": 7,
          "models": ["logr", "dt"], "protocols": ["aware"], "n_permutation_repeats": 1,
          "age_bin_edges": [45.0, 65.0], "clamp": True}


def leaves(doc, path=()):
    """The path of every leaf of a document of mappings and lists."""
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from leaves(value, path + (key,))
    else:
        yield path


def mutants(doc, salt: str):
    """CASES copies of ``doc``, each with one leaf set to one hostile value,
    drawn from the fixed seed; ``salt`` gives each reader its own draws."""
    rng = random.Random(f"{SEED}-{salt}")
    paths = list(leaves(doc))
    for _ in range(CASES):
        path, value = rng.choice(paths), rng.choice(HOSTILE)
        case = copy.deepcopy(doc)
        parent = case
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        yield path, value, case


def check_exit(code: int, capsys, caplog, what) -> None:
    err = capsys.readouterr().err
    assert code in (0, 1), (what, err)
    assert code == 0 or err.startswith("error: ") and err.strip() != "error:", (what, err)
    assert "Traceback" not in err, (what, err)
    assert not any(record.exc_info for record in caplog.records), what
    caplog.clear()


def run_config(tmp_path, doc, capsys, caplog, what) -> None:
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump(doc), encoding="utf-8")
    code = main(["run", "--config", str(config), "--out", str(tmp_path / "out")])
    check_exit(code, capsys, caplog, what)


def test_config_cases(tmp_path, capsys, caplog):
    for path, value, doc in mutants(CONFIG, "config"):
        run_config(tmp_path, doc, capsys, caplog, (path, value))


def test_cohort_spec_cases(tmp_path, capsys, caplog):
    spec = yaml.safe_load(resources.files("fairbench").joinpath("data/default_cohort.yaml")
                          .read_text("utf-8"))
    for path, value, doc in mutants(spec, "spec"):
        spec_path = tmp_path / "spec.yaml"
        spec_path.write_text(yaml.safe_dump(doc), encoding="utf-8")
        code = main(["synth", "--spec", str(spec_path), "--out", str(tmp_path / "c.csv")])
        check_exit(code, capsys, caplog, (path, value))


@pytest.fixture(scope="module")
def cohort_rows(tmp_path_factory):
    """The rows of a valid cohort CSV, header first."""
    path = write_cohort_csv(synthesize_cohort(default_cohort_spec(), 3),
                            tmp_path_factory.mktemp("fuzz") / "cohort.csv")
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def test_cohort_csv_cases(tmp_path, capsys, caplog, cohort_rows):
    config = {**CONFIG, "cohort": {"csv": str(tmp_path / "cohort.csv")}}
    for path, value, rows in mutants(cohort_rows, "csv"):
        with (tmp_path / "cohort.csv").open("w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)  # None as an empty cell, the rest by str()
        run_config(tmp_path, config, capsys, caplog, (path, value))


def test_report_cases(tmp_path, capsys, caplog):
    golden = Path(__file__).parent / "golden" / "quick_report.json"
    for path, value, doc in mutants(json.loads(golden.read_text(encoding="utf-8")), "report"):
        report = tmp_path / "report.json"
        report.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["report", "--in", str(report), "--out", str(tmp_path / "out"),
                     "--formats", "md,json,svg"])
        check_exit(code, capsys, caplog, (path, value))
