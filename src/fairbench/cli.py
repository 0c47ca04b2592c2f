"""Command-line interface: synth (emit a cohort CSV), run (full experiment),
report (re-render a stored JSON report).

Exit codes: 0 success, 1 validation error (a usage error and an input file
that cannot be read included), 2 runtime error. The FAIRBENCH_LOG environment
variable sets the log level (DEBUG, INFO, WARNING, ...).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import logging
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from ._version import __version__
from .dataset import synthesize_cohort, write_cohort_csv
from .errors import FairbenchError
from .experiment import load_experiment_config, run_experiment
from .report import canonical_format, emit_report, load_report_json
from .specfile import default_cohort_spec, load_cohort_spec

log = logging.getLogger("fairbench")


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on exit code 1, a validation error like any
    other; subcommand parsers inherit it."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fairbench")
    parser.add_argument("--version", action="version", version=f"fairbench {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="generate a synthetic cohort CSV from a spec")
    synth.add_argument("--spec", help="cohort spec YAML (default: shipped calibration)")
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--out", required=True, help="output CSV path")

    run = sub.add_parser("run", help="run the full experiment from a config file")
    run.add_argument("--config", required=True, help="experiment config YAML")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--formats", default="md,json", help="comma list of md,json,svg")

    rep = sub.add_parser("report", help="re-render a stored report.json")
    rep.add_argument("--in", dest="input", required=True, help="path to report.json")
    rep.add_argument("--formats", default="md", help="comma list of md,json,svg")
    rep.add_argument("--out", required=True, help="output directory")
    return parser


def _configure_logging() -> None:
    level_name = os.environ.get("FAIRBENCH_LOG", "WARNING").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _cmd_synth(args) -> int:
    spec = load_cohort_spec(args.spec) if args.spec else default_cohort_spec()
    cohort = synthesize_cohort(spec, args.seed)
    path = write_cohort_csv(cohort, args.out)
    log.info("wrote %d records (%d ITP / %d non-ITP) to %s",
             len(cohort), cohort.n_itp, cohort.n_non_itp, path)
    print(path)
    return 0


def _cmd_run(args) -> int:
    config = load_experiment_config(args.config)
    formats = _parse_formats(args.formats)

    started = time.perf_counter()
    report = run_experiment(config)
    wall = time.perf_counter() - started
    log.info("experiment finished in %.1f s", wall)

    out_dir = Path(args.out)
    written = _emit(report, formats, out_dir)

    # audit sidecar; deliberately not part of report.json so reports stay
    # byte-identical across runs of the same config
    meta = {
        "wall_clock_seconds": round(wall, 3),
        "toolkit_version": __version__,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "argv": sys.argv[1:],
        "config_hash": report.provenance["config_hash"],
        "blas": _blas_build(),
        "host": host_facts(),
        "blas_threads_env": {var: os.environ.get(var)
                             for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }
    meta_path = out_dir / "run_meta.json"
    meta_path.write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")
    written.append(meta_path)

    for path in written:
        print(path)
    return 0


def _blas_build() -> dict:
    """Name and version of the BLAS numpy was built against."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version")}


def host_facts() -> dict:
    """The code paths this host runs, which the last bits of a report can
    depend on: the SIMD targets numpy found on the CPU, and the core whose
    kernels OpenBLAS chose (None without numpy's bundled OpenBLAS)."""
    simd = np.show_config(mode="dicts").get("SIMD Extensions", {}).get("found")
    return {"numpy_simd": simd, "blas_core": _openblas_core()}


def _openblas_core() -> str | None:
    here = Path(np.__file__).parent
    for path in sorted([*here.parent.glob("numpy.libs/*openblas*"), *here.glob(".dylibs/*openblas*")]):
        try:  # the library numpy loaded; opening it again returns the same one
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return None


def _cmd_report(args) -> int:
    formats = _parse_formats(args.formats)
    report = load_report_json(args.input)
    for path in _emit(report, formats, Path(args.out)):
        print(path)
    return 0


def _emit(report, formats: list[str], out_dir: Path) -> list[Path]:
    written = []
    for fmt in formats:
        written += emit_report(report, fmt, out_dir)
    return written


def _parse_formats(text: str) -> list[str]:
    """The canonical name of each format given, once each, in first-seen order."""
    formats = [f.strip() for f in text.split(",") if f.strip()]
    if not formats:
        raise FairbenchError("no report formats given")
    return list(dict.fromkeys(canonical_format(fmt) for fmt in formats))


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "synth":
            return _cmd_synth(args)
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_report(args)
    except FairbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure, not a validation problem
        log.exception("unexpected failure")
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
