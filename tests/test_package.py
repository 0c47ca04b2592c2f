import os
import subprocess
import sys
from pathlib import Path

import fairbench


def test_every_export_exists_once():
    missing = [name for name in fairbench.__all__ if not hasattr(fairbench, name)]
    assert missing == []
    assert len(set(fairbench.__all__)) == len(fairbench.__all__)


def test_import_does_not_load_scipy():
    # only cohort synthesis needs scipy; loading it with the package more than
    # doubles the import time of every command
    src = str(Path(fairbench.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, fairbench; assert 'scipy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
