"""Parsing of the human-editable cohort-spec document (YAML key-value)."""

from __future__ import annotations

import functools
from importlib import resources
from pathlib import Path

import yaml

from .dataset import GENDERS, NUMERIC_FIELDS, RACES, ClassSpec, CohortSpec, StatBlock
from .errors import ConfigError


def cohort_spec_from_dict(doc: dict) -> CohortSpec:
    if not isinstance(doc, dict) or "classes" not in doc:
        raise ConfigError("cohort spec must be a mapping with a top-level 'classes' key")
    classes = doc["classes"]
    for required in ("ITP", "NonITP"):
        if required not in classes:
            raise ConfigError(f"cohort spec must define class {required!r}")
    return CohortSpec(
        itp=_class_spec(classes["ITP"], "ITP"),
        non_itp=_class_spec(classes["NonITP"], "NonITP"),
    )


def _class_spec(doc: dict, name: str) -> ClassSpec:
    try:
        size = int(doc["size"])
        gender = {str(k): float(v) for k, v in doc["gender"].items()}
        race = {str(k): float(v) for k, v in doc["race"].items()}
        variables = {}
        for var, block in doc["variables"].items():
            variables[str(var)] = StatBlock(
                lo=float(block["min"]),
                hi=float(block["max"]),
                median=None if block.get("median") is None else float(block["median"]),
                mean=None if block.get("mean") is None else float(block["mean"]),
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed cohort spec for class {name}: {exc}") from exc
    if set(gender) - set(GENDERS):
        raise ConfigError(f"class {name}: gender keys must be in {GENDERS}")
    if set(race) - set(RACES):
        raise ConfigError(f"class {name}: race keys must be in {RACES}")
    if set(variables) != set(NUMERIC_FIELDS):
        raise ConfigError(f"class {name}: variables must be exactly {sorted(NUMERIC_FIELDS)}")
    return ClassSpec(size=size, gender=gender, race=race, variables=variables)


def cohort_spec_to_dict(spec: CohortSpec) -> dict:
    """The document ``cohort_spec_from_dict`` parses into ``spec``, keys sorted."""

    def class_doc(c: ClassSpec) -> dict:
        return {
            "size": c.size,
            "gender": dict(sorted(c.gender.items())),
            "race": dict(sorted(c.race.items())),
            "variables": {
                k: {"min": v.lo, "max": v.hi, "median": v.median, "mean": v.mean}
                for k, v in sorted(c.variables.items())
            },
        }

    return {"classes": {"ITP": class_doc(spec.itp), "NonITP": class_doc(spec.non_itp)}}


def load_yaml(path: str | Path):
    """The document of a YAML file; a file that is not UTF-8 YAML is a
    ConfigError naming it (a missing file still raises OSError)."""
    with Path(path).open(encoding="utf-8") as fh:
        try:
            return yaml.safe_load(fh)
        except (yaml.YAMLError, UnicodeDecodeError) as exc:
            raise ConfigError(f"{path}: not valid UTF-8 YAML: {exc}") from exc


def load_cohort_spec(path: str | Path) -> CohortSpec:
    return cohort_spec_from_dict(load_yaml(path))


@functools.lru_cache(maxsize=1)
def default_cohort_spec() -> CohortSpec:
    """Shipped calibration: 100 ITP + 50 non-ITP with published blood statistics."""
    text = resources.files("fairbench").joinpath("data/default_cohort.yaml").read_text("utf-8")
    return cohort_spec_from_dict(yaml.safe_load(text))
