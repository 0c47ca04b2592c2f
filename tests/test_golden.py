"""Every golden output of the program, one row each: the input, the CLI
command and the sha256 prefix the output must have.

The hashes were made with numpy 2.4.6 and OpenBLAS 0.3.31 and are the same
with OPENBLAS_NUM_THREADS set to 1, set to 2 and unset: every study here
trains on 120 or 1,200 rows, and at those sizes a row's bits do not depend on
how many rows are multiplied with it. Every warning is an error here, so a row
also shows that no solver stops at its iteration cap on its study.
"""

import hashlib
import sys
from pathlib import Path

import pytest

from fairbench.cli import main

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS, generate  # noqa: E402

pytestmark = pytest.mark.filterwarnings("error")

# name: (the benchmark workload and seed whose inputs the command reads, or
# None to run in the repo root; the command; the sha256 prefix of its output)
ROWS = {
    # the quick study, whose report is committed in full
    "quick": (None, "run --config configs/quick.yaml", "c7428477029b5ba2"),
    # the full default grid with 10 repeats, whose permutation importance
    # the quick golden report does not reach
    "default": (None, "run --config configs/default.yaml", "d0a7e40fd6e051f2"),
    # the cohort-10x benchmark study at seed 9001: 1500 patients, whose
    # 1200-row folds reach the KNN, tree and SVM kernels at a scale the
    # default grid (at most 120 training rows) does not
    "cohort-10x-9001": (("cohort-10x", 9001), "run --config study.yaml", "c76990efd0d211b2"),
    # the grid-default benchmark study at seed 9001: both protocols, all 13
    # models and 10 permutation repeats at a second seed
    "grid-default-9001": (("grid-default", 9001), "run --config study.yaml", "dfc5423cb841ddd4"),
    # the two benchmark studies at seed 7, the seed the benchmark's timed
    # pairs run at
    "cohort-10x-7": (("cohort-10x", 7), "run --config study.yaml", "249312e16306a0ae"),
    "grid-default-7": (("grid-default", 7), "run --config study.yaml", "e154b273098d1bf0"),
    # the synthetic cohort, whose Beta shapes come from the numpy inverse
    # of the incomplete Beta function
    "synth": (None, "synth --seed 7", "fd047ea8c81bdaa8"),
    # the shipped calibration read back through the file path (load_yaml and
    # the shared section reader) must build the same spec as the built-in one
    "synth-spec-file": (None, "synth --spec src/fairbench/data/default_cohort.yaml --seed 7",
                        "fd047ea8c81bdaa8"),
}


@pytest.mark.parametrize("name", ROWS)
def test_golden_output(name, tmp_path, monkeypatch):
    inputs, command, sha = ROWS[name]
    if inputs is not None:
        generate(WORKLOADS[inputs[0]], inputs[1], tmp_path)
    # a benchmark config names cohort.csv by a path relative to its directory
    monkeypatch.chdir(ROOT if inputs is None else tmp_path)

    argv = command.split()
    if argv[0] == "synth":
        out = tmp_path / "cohort.csv"
        assert main(argv + ["--out", str(out)]) == 0
    else:
        out = tmp_path / "out" / "report.json"
        assert main(argv + ["--out", str(out.parent), "--formats", "json"]) == 0
        # the report read back through load_report_json renders the same bytes
        again = tmp_path / "again"
        assert main(["report", "--in", str(out), "--out", str(again), "--formats", "json"]) == 0
        assert (again / "report.json").read_bytes() == out.read_bytes()

    if name == "quick":
        golden = ROOT / "tests" / "golden" / "quick_report.json"
        assert out.read_text(encoding="utf-8") == golden.read_text(encoding="utf-8")
    assert hashlib.sha256(out.read_bytes()).hexdigest()[:16] == sha
