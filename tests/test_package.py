import os
import subprocess
import sys
from pathlib import Path

import fairbench


def test_every_export_exists_once():
    missing = [name for name in fairbench.__all__ if not hasattr(fairbench, name)]
    assert missing == []
    assert len(set(fairbench.__all__)) == len(fairbench.__all__)


def test_import_does_not_load_scipy(tmp_path):
    # scipy is a test dependency only: importing it would cost every command
    # (and every synthetic cohort) about 0.3 s
    src = str(Path(fairbench.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = f"""
import sys, fairbench
assert "scipy" not in sys.modules
fairbench.synthesize_cohort(fairbench.default_cohort_spec(), 7)
assert "scipy" not in sys.modules
from fairbench.cli import main
assert main(["synth", "--seed", "7", "--out", {str(tmp_path / "c.csv")!r}]) == 0
assert "scipy" not in sys.modules
"""
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_the_benchmark_set_up_probe_runs(tmp_path, monkeypatch):
    # the probe imports experiment's names and prints the time the folds were
    # ready; a benchmark run with a broken probe would have no setup_s
    root = Path(__file__).resolve().parents[1]
    monkeypatch.syspath_prepend(str(root / "perfbench"))
    from workloads import WORKLOADS, generate

    generate(WORKLOADS["grid-default"], 7, tmp_path)
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run([sys.executable, str(root / "perfbench" / "setup_probe.py"),
                           "study.yaml"], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    float(done.stdout)
