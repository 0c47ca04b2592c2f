"""The schema walker every document fairbench reads goes through (the
experiment config, the cohort spec and a stored report), the YAML reader of
the two human-edited ones, and the cohort-spec parser built on them."""

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


def _walk(doc, schema, path: str = "", error=ConfigError,
          bad_value: str = "bad value for {path}: {exc}"):
    """``doc`` checked and converted by ``schema``: a mapping of key to schema
    (a key ending in "?" may be left out, "*" takes every other key, and None
    reads as empty), a one-item list for each item of a list, or a converter.
    The first bad value is one ``error`` naming its path, such as
    classes.ITP.size; ``bad_value`` words what a converter raised."""
    if isinstance(schema, list):
        if not isinstance(doc, list):
            raise error(f"{path} must be a list, got {type(doc).__name__}")
        return [_walk(item, schema[0], f"{path}[{i}]", error, bad_value)
                for i, item in enumerate(doc)]
    if not isinstance(schema, dict):
        try:
            return schema(doc)
        except (TypeError, ValueError, ConfigError) as exc:
            raise error(bad_value.format(path=path, exc=exc)) from None
    doc = {} if doc is None else doc
    if not isinstance(doc, dict):
        raise error(f"{path or 'the document'} must be a mapping, got {type(doc).__name__}")
    keys = {key.rstrip("?"): key for key in schema}
    unknown = [key for key in doc if key not in keys]
    if unknown and "*" not in keys:
        raise error(f"unknown key(s) in {path or 'the document'}: {sorted(unknown, key=str)}")
    prefix = f"{path}." if path else ""
    missing = [name for name, key in keys.items() if name not in doc and key[-1] not in "?*"]
    if missing:
        raise error(f"{prefix}{missing[0]} is missing")
    return {key: _walk(value, schema[keys.get(key, "*")], f"{prefix}{key}", error, bad_value)
            for key, value in doc.items()}


def _or_none(convert):
    """``convert``, but None stays None."""
    return lambda value: None if value is None else convert(value)


def _class_size(value) -> int:
    """A class size: a positive integer, and no more rows than one float64
    column can hold, its bytes counted by numpy's signed index type."""
    size = _positive_int(value)
    if size > MAX_CLASS_SIZE:
        raise ValueError(f"expected at most {MAX_CLASS_SIZE} rows, got {size}")
    return size


_CLASS = {
    "size": _class_size,
    "gender": {f"{g}?": _finite for g in GENDERS},
    "race": {f"{r}?": _finite for r in RACES},
    "variables": {var: {"min": _finite, "max": _finite,
                        "median?": _or_none(_finite), "mean?": _or_none(_finite)}
                  for var in NUMERIC_FIELDS},
}
_COHORT_SPEC = {"classes": {"ITP": _CLASS, "NonITP": _CLASS}}


def cohort_spec_from_dict(doc: dict) -> CohortSpec:
    classes = _walk(doc, _COHORT_SPEC, bad_value="bad value for {path!r}: {exc}")["classes"]
    itp, non_itp = (
        ClassSpec(size=c["size"], gender=c["gender"], race=c["race"], variables={
            var: StatBlock(b["min"], b["max"], b.get("median"), b.get("mean"))
            for var, b in c["variables"].items()})
        for c in (classes["ITP"], classes["NonITP"]))
    return CohortSpec(itp=itp, non_itp=non_itp)


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
    """The document of a YAML file; a file that cannot be read, is not UTF-8
    YAML or nests too deeply for the parser, is a ConfigError naming it."""
    try:
        with Path(path).open(encoding="utf-8") as fh:
            return yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from None
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: not valid UTF-8 YAML: {exc}") from exc
    except RecursionError:
        raise ConfigError(f"{path}: nested too deeply to read") from None


def load_cohort_spec(path: str | Path) -> CohortSpec:
    return cohort_spec_from_dict(load_yaml(path))


@functools.lru_cache(maxsize=1)
def default_cohort_spec() -> CohortSpec:
    """Shipped calibration: 100 ITP + 50 non-ITP with published blood statistics."""
    text = resources.files(__package__).joinpath("data/default_cohort.yaml").read_text("utf-8")
    return cohort_spec_from_dict(yaml.safe_load(text))
