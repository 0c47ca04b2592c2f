import os
import shutil
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


def test_import_does_not_load_the_process_pool():
    # only a study with more than one worker needs concurrent.futures.process
    # and multiprocessing, and loading them slows every cold start
    src = str(Path(fairbench.__file__).parents[1])
    code = 'import sys, fairbench; assert "concurrent.futures.process" not in sys.modules'
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src})


def test_a_copy_of_the_package_reads_its_own_default_cohort_spec(tmp_path):
    # a copy under another name, as a benchmark may load a second version of
    # the package beside the first, reads the spec it ships, whether or not
    # the original is importable
    src = Path(fairbench.__file__).parent
    copy = tmp_path / "fairbench_copy"
    shutil.copytree(src, copy, ignore=shutil.ignore_patterns("__pycache__"))
    spec = copy / "data" / "default_cohort.yaml"
    text = spec.read_text("utf-8")
    assert text.count("size: 100") == 1
    spec.write_text(text.replace("size: 100", "size: 37"), "utf-8")
    code = "import fairbench_copy; print(fairbench_copy.default_cohort_spec().itp.size)"
    for path in ([tmp_path], [tmp_path, src.parent]):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, path))}
        done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["37"]


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
