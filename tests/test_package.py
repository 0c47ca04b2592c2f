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
