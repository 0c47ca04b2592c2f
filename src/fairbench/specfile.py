"""The reader shared by the two human-edited YAML documents (the experiment
config and the cohort spec), and the cohort-spec parser built on it."""

from __future__ import annotations

import functools
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from .dataset import GENDERS, NUMERIC_FIELDS, RACES, ClassSpec, CohortSpec, StatBlock
from .errors import ConfigError
from .models import _finite, _positive_int

MAX_CLASS_SIZE = np.iinfo(np.intp).max // np.dtype(np.float64).itemsize


def _mapping(value, key: str, known) -> dict:
    """A document section; None reads as empty, keys outside known are errors."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{key!r} must be a mapping, got {value!r}")
    unknown = set(value) - set(known)
    if unknown:
        raise ConfigError(f"unknown key(s) in {key!r}: {sorted(unknown, key=str)}")
    return value


def _value(convert, section: dict, key: str, where: str):
    """section[key] through convert; a missing or malformed value is a
    ConfigError naming its key."""
    if key not in section:
        raise ConfigError(f"{where!r} is missing {key!r}")
    try:
        return convert(section[key])
    except ValueError as exc:
        raise ConfigError(f"bad value for '{where}.{key}': {exc}") from None


def _class_size(value) -> int:
    """A class size: a positive integer, and no more rows than one float64
    column can hold, its bytes counted by numpy's signed index type."""
    size = _positive_int(value)
    if size > MAX_CLASS_SIZE:
        raise ValueError(f"expected at most {MAX_CLASS_SIZE} rows, got {size}")
    return size


def cohort_spec_from_dict(doc: dict) -> CohortSpec:
    doc = _mapping(doc, "cohort spec", {"classes"})
    classes = _mapping(doc.get("classes"), "classes", {"ITP", "NonITP"})
    for required in ("ITP", "NonITP"):
        if required not in classes:
            raise ConfigError(f"cohort spec must define class {required!r}")
    return CohortSpec(itp=_class_spec(classes["ITP"], "classes.ITP"),
                      non_itp=_class_spec(classes["NonITP"], "classes.NonITP"))


def _class_spec(doc, where: str) -> ClassSpec:
    doc = _mapping(doc, where, {"size", "gender", "race", "variables"})

    def proportions(key: str, known) -> dict[str, float]:
        section = _mapping(doc.get(key), f"{where}.{key}", known)
        return {k: _value(_finite, section, k, f"{where}.{key}") for k in section}

    variables = _mapping(doc.get("variables"), f"{where}.variables", NUMERIC_FIELDS)
    return ClassSpec(
        size=_value(_class_size, doc, "size", where),
        gender=proportions("gender", GENDERS),
        race=proportions("race", RACES),
        variables={var: _stat_block(block, f"{where}.variables.{var}")
                   for var, block in variables.items()},
    )


def _stat_block(doc, where: str) -> StatBlock:
    doc = _mapping(doc, where, {"min", "max", "median", "mean"})
    optional = {k: None if doc.get(k) is None else _value(_finite, doc, k, where)
                for k in ("median", "mean")}
    return StatBlock(lo=_value(_finite, doc, "min", where),
                     hi=_value(_finite, doc, "max", where), **optional)


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
    """The document of a YAML file; a file that cannot be read, or is not
    UTF-8 YAML, is a ConfigError naming it."""
    try:
        with Path(path).open(encoding="utf-8") as fh:
            return yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from None
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: not valid UTF-8 YAML: {exc}") from exc


def load_cohort_spec(path: str | Path) -> CohortSpec:
    return cohort_spec_from_dict(load_yaml(path))


@functools.lru_cache(maxsize=1)
def default_cohort_spec() -> CohortSpec:
    """Shipped calibration: 100 ITP + 50 non-ITP with published blood statistics."""
    text = resources.files(__package__).joinpath("data/default_cohort.yaml").read_text("utf-8")
    return cohort_spec_from_dict(yaml.safe_load(text))
