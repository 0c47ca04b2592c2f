"""The benchmark's workloads and the inputs it generates for them.

Every input is derived from the workload seed alone: the master seed and the
cohort seed are hashed out of it, the config is written as JSON (which is
valid YAML), and the 10x cohort is written as a CSV. The program under test
receives only these files.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

K_FOLDS = 5
ALL_MODELS = ("logr", "svm-ln", "svm-rbf", "svm-p2", "svm-p3", "svm-p4",
              "knn-1", "knn-2", "knn-4", "knn-8", "knn-12", "dt", "rf")


@dataclass(frozen=True)
class Workload:
    name: str
    models: tuple[str, ...]
    protocols: tuple[str, ...]
    repeats: int
    workers: int
    cohort_scale: int  # 1: synthetic cohort inside the program; >1: CSV written here
    # the serial study whose report this workload's report must equal
    reference: str | None = None


WORKLOADS = {
    w.name: w
    for w in (
        # configs/default.yaml: per-call overhead of importance dominates
        Workload("grid-default", ALL_MODELS, ("aware", "unaware"), 10, 1, 1),
        # the same study through the process pool; run by hand, as it is too
        # unsteady on a shared 2-core machine for BENCHMARK.json (see README)
        Workload("grid-default-w2", ALL_MODELS, ("aware", "unaware"), 10, 2, 1,
                 reference="grid-default"),
        # 1500 patients from CSV: solvers and the KNN kernel dominate
        Workload("cohort-10x", ("logr", "svm-rbf", "svm-p4", "knn-4", "dt", "rf"),
                 ("aware",), 1, 1, 10),
    )
}


def derive(seed: int, tag: str) -> int:
    digest = hashlib.sha256(f"{int(seed)}|{tag}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def worker_count(workload: Workload) -> int:
    """Requested workers, never more than the machine has cores."""
    return max(1, min(workload.workers, os.cpu_count() or 1))


def config_doc(workload: Workload, seed: int, workers: int, cohort_csv: str | None) -> dict:
    cohort = ({"csv": cohort_csv} if cohort_csv is not None
              else {"synthetic": {"spec": None, "seed": derive(seed, "cohort")}})
    return {
        "cohort": cohort,
        "k_folds": K_FOLDS,
        "seed": derive(seed, "master"),
        "models": list(workload.models),
        "protocols": list(workload.protocols),
        "n_permutation_repeats": workload.repeats,
        "age_bin_edges": [45, 65],
        "clamp": True,
        "workers": workers,
    }


def write_cohort(scale: int, seed: int, path: Path) -> None:
    """The shipped calibration with every class size multiplied by ``scale``."""
    from dataclasses import replace

    from fairbench import synthesize_cohort, write_cohort_csv
    from fairbench.specfile import default_cohort_spec

    spec = default_cohort_spec()
    spec = replace(spec, itp=replace(spec.itp, size=spec.itp.size * scale),
                   non_itp=replace(spec.non_itp, size=spec.non_itp.size * scale))
    write_cohort_csv(synthesize_cohort(spec, derive(seed, "cohort")), path)


def generate(workload: Workload, seed: int, out_dir: Path) -> dict[str, Path]:
    """Write the inputs of one run; returns {"study": cfg[, "reference": cfg]}.

    The cohort path inside the configs is relative to ``out_dir``, so the
    program runs with ``out_dir`` as its working directory and its reports do
    not depend on where the checkout lies.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    cohort_csv = None
    if workload.cohort_scale > 1:
        cohort_csv = "cohort.csv"
        write_cohort(workload.cohort_scale, seed, out_dir / cohort_csv)
    configs = {"study": worker_count(workload)}
    if workload.reference is not None:
        configs["reference"] = 1
    paths = {}
    for role, workers in configs.items():
        path = out_dir / f"{role}.yaml"
        doc = config_doc(workload, seed, workers, cohort_csv)
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        paths[role] = path
    return paths
