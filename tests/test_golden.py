"""Every golden output of the program, one row each: the input, the CLI
command, the file it writes that the row checks and the sha256 prefix that
file must have.

The hashes were made with numpy 2.4.6 and OpenBLAS 0.3.31 and are the same
with OPENBLAS_NUM_THREADS set to 1, set to 2 and unset, and on OpenBLAS's
SkylakeX and Haswell kernels. A row's bits in a KNN distance or SVM kernel
block do not depend on how many rows are multiplied with it (see
models._padded), and the products that finish the SVM and logistic decisions
are einsum loops, whose row bits do not depend on the height either (see
permutation_importance). Every warning is an error here, so a row also shows
that no solver stops at its iteration cap on its study.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fairbench
from fairbench.cli import host_facts, main

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS, generate  # noqa: E402

pytestmark = pytest.mark.filterwarnings("error")

# name: (the benchmark workload and seed whose inputs the command reads, or
# None to run in the repo root; the command, whose outputs go to a fresh
# directory; the output file, or a glob of files whose digest is the sha256
# of each name, a NUL byte and its bytes, in name order; the sha256 prefix)
ROWS = {
    # the quick study, whose report is committed in full
    "quick": (None, "run --config configs/quick.yaml --formats json", "report.json",
              "c7428477029b5ba2"),
    # the quick report rendered: two protocols and a small-race-group fold
    "quick-performance": (None, "report --in tests/golden/quick_report.json --formats md,svg",
                          "performance.md", "6e3b79110bbb5b1d"),
    "quick-fairness": (None, "report --in tests/golden/quick_report.json --formats md,svg",
                       "fairness.md", "0aa5f57356673ad7"),
    "quick-charts": (None, "report --in tests/golden/quick_report.json --formats md,svg",
                     "*.svg", "5a0d735aa52d83a2"),
    # the full default grid with 10 repeats, whose permutation importance
    # the quick golden report does not reach
    "default": (None, "run --config configs/default.yaml --formats json", "report.json",
                "d0a7e40fd6e051f2"),
    # the cohort-10x benchmark study at seed 9001: 1500 patients, whose
    # 1200-row folds reach the KNN, tree and SVM kernels at a scale the
    # default grid (at most 120 training rows) does not
    "cohort-10x-9001": (("cohort-10x", 9001), "run --config study.yaml --formats json,md",
                        "report.json", "8018eaa438154dc3"),
    # its report rendered: one protocol and no small race group
    "cohort-10x-9001-performance": (("cohort-10x", 9001),
                                    "run --config study.yaml --formats json,md",
                                    "performance.md", "8848afe6a1ea13d6"),
    "cohort-10x-9001-fairness": (("cohort-10x", 9001),
                                 "run --config study.yaml --formats json,md",
                                 "fairness.md", "0f0380e42848c986"),
    # the grid-default benchmark study at seed 9001: both protocols, all 13
    # models and 10 permutation repeats at a second seed
    "grid-default-9001": (("grid-default", 9001), "run --config study.yaml --formats json",
                          "report.json", "dfc5423cb841ddd4"),
    # the two benchmark studies at seed 7, the seed the benchmark's timed
    # pairs run at
    "cohort-10x-7": (("cohort-10x", 7), "run --config study.yaml --formats json", "report.json",
                     "07224e45dfd21d20"),
    "grid-default-7": (("grid-default", 7), "run --config study.yaml --formats json",
                       "report.json", "e154b273098d1bf0"),
    # the default grid on a cohort that platelet count cannot separate
    # (configs/overlap_cohort.yaml, a test fixture): its models make errors,
    # so equalized odds and the directional findings have something to measure
    "overlap": (None, "run --config configs/overlap.yaml --formats json", "report.json",
                "f7c2ebb9d034005c"),
    # the synthetic cohort, whose Beta shapes come from the numpy inverse
    # of the incomplete Beta function
    "synth": (None, "synth --seed 7", "cohort.csv", "fd047ea8c81bdaa8"),
    # the shipped calibration read back through the file path (load_yaml and
    # the shared section reader) must build the same spec as the built-in one
    "synth-spec-file": (None, "synth --spec src/fairbench/data/default_cohort.yaml --seed 7",
                        "cohort.csv", "fd047ea8c81bdaa8"),
}

# output directory of each (inputs, command) run so far: rows that read
# different files of one run share it
_RUNS = {}


def _outputs(inputs, command, tmp_path_factory, monkeypatch) -> Path:
    key = (inputs, command)
    if key not in _RUNS:
        tmp = tmp_path_factory.mktemp("golden")
        if inputs is not None:
            generate(WORKLOADS[inputs[0]], inputs[1], tmp)
        # a benchmark config names cohort.csv by a path relative to its directory
        monkeypatch.chdir(ROOT if inputs is None else tmp)
        out = tmp / "out"
        argv = command.split()
        if argv[0] == "synth":
            assert main(argv + ["--out", str(out / "cohort.csv")]) == 0
        else:
            assert main(argv + ["--out", str(out)]) == 0
        _RUNS[key] = out
    return _RUNS[key]


def _digest(out: Path, output: str) -> str:
    if "*" not in output:
        return hashlib.sha256((out / output).read_bytes()).hexdigest()[:16]
    h = hashlib.sha256()
    for path in sorted(out.glob(output)):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("name", ROWS)
def test_golden_output(name, tmp_path, tmp_path_factory, monkeypatch):
    inputs, command, output, sha = ROWS[name]
    out = _outputs(inputs, command, tmp_path_factory, monkeypatch)

    if command.startswith("run"):
        # the report read back through load_report_json renders the same bytes
        again = tmp_path / "again"
        assert main(["report", "--in", str(out / "report.json"), "--out", str(again),
                     "--formats", "json,md,svg"]) == 0
        assert _digest(again, output) == _digest(out, output)
    if name == "quick":
        golden = ROOT / "tests" / "golden" / "quick_report.json"
        assert (out / output).read_text(encoding="utf-8") == golden.read_text(encoding="utf-8")
    assert _digest(out, output) == sha


def test_synth_row_holds_with_the_avx512_loops_off(tmp_path):
    # numpy's np.logspace gave 4 of the generator's 64 Beta concentrations
    # other last bits without its AVX-512 loops, and the seed-7 cohort another
    # digest (026f4a386af6a508)
    off = [t for t in ("X86_V4", "AVX512_ICL", "AVX512_SPR") if t in host_facts()["numpy_simd"]]
    src = str(Path(fairbench.__file__).resolve().parents[1])
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": " ".join(off),
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "cohort.csv"
    child = ("import json, sys; from fairbench.cli import host_facts, main; "
             "print(json.dumps(host_facts()['numpy_simd'])); sys.exit(main(sys.argv[1:]))")
    proc = subprocess.run([sys.executable, "-c", child, "synth", "--seed", "7", "--out", str(out)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert not set(off) & set(json.loads(proc.stdout.splitlines()[0]))
    assert hashlib.sha256(out.read_bytes()).hexdigest().startswith(ROWS["synth"][-1])
