"""One benchmark run's studies, in a fresh process with BLAS pinned to 1 thread.

Runs from the directory holding the generated inputs. A workload with a
reference config first runs that config once, serially; its time enters
parallel efficiency but not ``study_s``. Then studies run back to back, each
starting when the previous one ends, until ``--seconds`` have passed since the
first study began and at least two studies of the workload have run. With ``--trace 1`` every second study is traced. Writes
its findings as JSON to ``--out``.

Usage: python3 runner.py --workload NAME --seconds S --trace 0|1 --out FILE
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import fairbench
from fairbench import emit_report, load_experiment_config, run_experiment

import gate
import spans
from workloads import K_FOLDS, WORKLOADS, worker_count

FORMATS = ("md", "json", "svg")


def blas_info() -> dict:
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version")}


def run_study(config, out_dir: Path, tracer: spans.Tracer | None) -> float:
    """run_experiment plus every report format; returns the seconds it took."""
    if tracer is None:
        t0 = time.perf_counter()
        report = run_experiment(config)
        for fmt in FORMATS:
            emit_report(report, fmt, out_dir)
        return time.perf_counter() - t0
    uninstall = spans.install(tracer)
    try:
        t0 = time.perf_counter()
        with tracer.span("study"):
            with tracer.span("experiment.run"):
                report = run_experiment(config)
            for fmt in FORMATS:
                with tracer.span("report.emit"):
                    emit_report(report, fmt, out_dir)
        return time.perf_counter() - t0
    finally:
        uninstall()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    configs = {"study": load_experiment_config("study.yaml")}
    if workload.reference is not None:
        configs["reference"] = load_experiment_config("reference.yaml")
    tracer = spans.Tracer(Path("spool").resolve()) if args.trace else None
    studies, layers = [], []

    def run_one(role: str, traced: bool) -> None:
        out_dir = Path(f"out-{len(studies)}")
        record = {"role": role, "traced": traced, "seconds": None, "sha": None,
                  "problems": []}
        if traced:
            tracer.study = len(studies)
        try:
            record["seconds"] = run_study(configs[role], out_dir, tracer if traced else None)
            blob = (out_dir / "report.json").read_bytes()
            record["sha"] = hashlib.sha256(blob).hexdigest()
            record["problems"] = gate.check_report(
                json.loads(blob), workload.models, workload.protocols, K_FOLDS)
        except Exception:  # a failed study is counted, and the run goes on
            record["problems"].append(traceback.format_exc(limit=3))
        if traced:
            collected = tracer.collect()
            roots = [s for s in collected if s.name == "study"]
            if record["seconds"] is not None and roots:
                layers.append(spans.layer_metrics(collected, roots[0]))
        shutil.rmtree(out_dir, ignore_errors=True)
        studies.append(record)

    start = time.perf_counter()
    if "reference" in configs:
        run_one("reference", False)
    n = 0
    while n < 2 or time.perf_counter() - start < args.seconds:
        run_one("study", tracer is not None and n % 2 == 1)
        n += 1

    # the largest child's peak counts once per worker (a serial study has no
    # children); pages a worker shares with this process count in both
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    workers = worker_count(workload)
    result = {
        "studies": studies,
        "layers": layers,
        "workers": workers,
        "peak_rss_mb": (self_kb + workers * child_kb) / 1024.0,
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": blas_info(),
            "fairbench": fairbench.__version__,
        },
    }
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
