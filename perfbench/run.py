"""fairbench benchmark: one run of one workload, from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed, times set-up in cold
interpreters, then starts a fresh runner process that runs the studies back to
back for ``--seconds`` (see runner.py). Every report passes the correctness
gate in gate.py, and all reports of a run must be byte-identical. With
``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it has the per-layer metrics of the
traced studies. The lines before it list every figure measured, with units,
and the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import FAMILIES
from workloads import WORKLOADS, generate

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 5
RUN_LIMIT_S = 170  # the whole run, including set-up, must end well inside 180 s
PINNED = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                               "NUMEXPR_NUM_THREADS")}

END_TO_END = {"study_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "dataset.cohort_s": "s",
    "dataset.folds_s": "s",
    **{f"models.train_s.{fam}": "s" for fam in FAMILIES},
    "models.train_calls": "count",
    "models.logr_iters": "count",
    "models.svm_iters": "count",
    "models.not_converged": "count",
    **{f"models.predict_s.{fam}": "s" for fam in FAMILIES},
    "models.predict_calls": "count",
    "models.predict_rows": "count",
    "importance.self_s": "s",
    "importance.total_s": "s",
    "importance.calls": "count",
    "importance.predict_calls_per_call": "calls/call",
    "metrics.score_s": "s",
    "metrics.score_calls": "count",
    "metrics.fairness_s": "s",
    "experiment.self_s": "s",
    "experiment.worker_busy_s.0": "s",
    "report.emit_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.study_s": "s",
}
# printed for the pool workload, which BENCHMARK.json leaves out (see README)
POOL_ONLY = {"experiment.worker_busy_s.1": "s", "experiment.parallel_efficiency": "ratio"}


def _run_group(cmd: list[str], cwd: Path, env: dict, timeout: float, **kwargs):
    """Run a child in its own process group; on timeout kill the whole group."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, start_new_session=True, **kwargs)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def time_setup(work: Path, env: dict, deadline: float) -> float | None:
    """Seconds from starting a cold interpreter until its folds are ready."""
    t0 = time.monotonic()
    try:
        code, out = _run_group([sys.executable, str(HERE / "setup_probe.py"), "study.yaml"],
                               work, env, deadline - time.monotonic(),
                               stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        return None
    return float(out.strip()) - t0 if code == 0 else None


def summarize(result: dict, setups: list[float | None], trace: int) -> tuple[dict, int, int]:
    """Metrics of the run plus the attempted and failed counts."""
    studies = result["studies"]
    shas = [s["sha"] for s in studies if s["sha"] is not None]
    for s in studies:
        if s["sha"] is not None and s["sha"] != shas[0]:
            s["problems"].append(f"report sha {s['sha'][:16]} differs from {shas[0][:16]}")
    good = [s for s in studies if not s["problems"]]
    attempted = len(studies) + len(setups)
    failed = attempted - len(good) - sum(t is not None for t in setups)

    untraced = [s["seconds"] for s in good if s["role"] == "study" and not s["traced"]]
    traced = [s["seconds"] for s in good if s["traced"]]
    reference = [s["seconds"] for s in good if s["role"] == "reference"]
    metrics = {}
    if untraced:
        metrics["study_s"] = statistics.median(untraced)
    if any(t is not None for t in setups):
        metrics["setup_s"] = statistics.median(t for t in setups if t is not None)
    metrics["peak_rss_mb"] = result["peak_rss_mb"]
    if trace and result["layers"] and untraced and traced:
        for name in result["layers"][0]:
            metrics[name] = statistics.median(layer[name] for layer in result["layers"])
        if reference:
            metrics["experiment.parallel_efficiency"] = (
                reference[0] / (result["workers"] * metrics["study_s"]))
        metrics["trace.overhead_frac"] = statistics.median(traced) / metrics["study_s"] - 1.0
    return metrics, attempted, failed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S

    root = Path.cwd()
    src = root / "src"
    if not (src / "fairbench" / "__init__.py").is_file():
        print(f"error: no fairbench sources under {src}; run from a checkout's root",
              file=sys.stderr)
        return 2
    os.environ.update(PINNED)
    env = dict(os.environ, PYTHONPATH=str(src))
    sys.path.insert(0, str(src))

    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        generate(WORKLOADS[args.workload], args.seed, work)
        setups = [time_setup(work, env, deadline) for _ in range(SETUP_REPEATS)]
        cmd = [sys.executable, str(HERE / "runner.py"), "--workload", args.workload,
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", "result.json"]
        try:
            code, _ = _run_group(cmd, work, env, deadline - time.monotonic(),
                                 stdout=sys.stderr)
        except subprocess.TimeoutExpired:
            print(f"error: runner did not finish within {RUN_LIMIT_S} s", file=sys.stderr)
            return 1
        if code != 0:
            print(f"error: runner exited with code {code}", file=sys.stderr)
            return 1
        result = json.loads((work / "result.json").read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still be using it
            work.parent.rmdir()

    metrics, attempted, failed = summarize(result, setups, args.trace)
    for s in result["studies"]:
        for problem in s["problems"]:
            print(f"problem in {s['role']} study: {problem}", file=sys.stderr)
    wanted = PER_LAYER if args.trace else END_TO_END
    missing = sorted(set(wanted) - set(metrics))
    if missing:
        print(f"error: no value for {missing}; every study or set-up failed", file=sys.stderr)
        return 1

    env_doc = dict(result["env"], nproc=os.cpu_count(), workers=result["workers"],
                   threads=PINNED)
    print("env " + json.dumps(env_doc, sort_keys=True))
    for s in result["studies"]:
        kind = "traced " if s["traced"] else ""
        print(f"{kind}{s['role']} study: {s['seconds']} s, report sha {str(s['sha'])[:16]}")
    units = {**END_TO_END, **PER_LAYER, **POOL_ONLY}
    for name, value in metrics.items():
        print(f"{name:40s} {value:14.6g} {units[name]}")
    print(f"{'failed_frac':40s} {failed / attempted:14.6g} ratio ({failed} of {attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in wanted.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
