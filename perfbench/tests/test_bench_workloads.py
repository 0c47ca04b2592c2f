"""Input generation is a function of the workload seed; BENCHMARK.json matches."""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402


def files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_generation_is_deterministic_per_seed(tmp_path):
    for name, workload in WORKLOADS.items():
        generate(workload, 11, tmp_path / name / "a")
        generate(workload, 11, tmp_path / name / "b")
        generate(workload, 12, tmp_path / name / "c")
        a, b, c = (files(tmp_path / name / d) for d in "abc")
        assert a == b
        assert a.keys() == c.keys() and a != c
        if workload.cohort_scale > 1:
            assert len(a["cohort.csv"].splitlines()) == 1 + 150 * workload.cohort_scale


def test_the_pool_workload_repeats_the_serial_study(tmp_path):
    generate(WORKLOADS["grid-default"], 5, tmp_path / "serial")
    generate(WORKLOADS["grid-default-w2"], 5, tmp_path / "pool")
    serial = json.loads((tmp_path / "serial" / "study.yaml").read_text())
    reference = json.loads((tmp_path / "pool" / "reference.yaml").read_text())
    pool = json.loads((tmp_path / "pool" / "study.yaml").read_text())
    assert reference == serial
    assert {k: v for k, v in pool.items() if k != "workers"} == {
        k: v for k, v in serial.items() if k != "workers"}


def test_benchmark_json_names_what_run_reports():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in doc["workloads"]} == set(WORKLOADS) - {"grid-default-w2"}
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
