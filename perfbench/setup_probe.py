"""Set-up as a user pays it: a cold interpreter until the folds are ready.

Imports fairbench, loads the config, materializes the cohort and prepares the
folds of every protocol, then prints ``time.monotonic()``. The caller takes
the monotonic clock just before starting this process, so the difference
covers interpreter start-up too.

Usage: python3 setup_probe.py CONFIG
"""

import sys
import time

import fairbench  # noqa: F401  (the import is part of what is measured)
from fairbench.experiment import load_experiment_config, materialize_cohort, prepare_folds


def main() -> int:
    config = load_experiment_config(sys.argv[1])
    cohort, _ = materialize_cohort(config)
    folds = [prepare_folds(cohort, config, p) for p in config.protocols]
    ready = time.monotonic()
    if any(len(f) != config.k_folds for f in folds):
        return 1
    print(repr(ready))
    return 0


if __name__ == "__main__":
    sys.exit(main())
