"""Cohort data model: CSV ingestion, calibrated synthesis, folds, scaling, encoding.

A cohort holds one row per patient, stored as columns: eight numeric
blood/clinical variables, three demographic attributes (age is one of the
numeric variables) and a binary diagnosis label. Two encoding protocols are
supported: demographic-unaware (7 clinical columns; age is demographic, not
clinical) and demographic-aware (those 7 plus gender, race one-hot and age =
13 columns).
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyCohort,
    FairbenchError,
    InfeasibleSpec,
    InvariantViolation,
    MissingColumn,
    TooFewSamples,
    UnexpectedColumn,
    UnparsableValue,
)
from .models import _finite, _int

GENDERS = ("F", "M")
RACES = ("White", "Black", "Asian", "Other")
LABELS = ("NonITP", "ITP")  # index == numeric class, ITP is the positive class

NUMERIC_FIELDS = (
    "diagnosis_year",
    "age_last_seen",
    "alt",
    "dx_hb_ct",
    "dx_neutro_ct",
    "wbc_ct",
    "rbc_ct",
    "dx_plt_ct",
)
CSV_HEADER = NUMERIC_FIELDS + ("gender", "race", "label")

# Column layout of the two protocols. Age and the demographics are sensitive
# attributes; only the aware protocol feeds them to the models.
CLINICAL_COLUMNS = (
    "diagnosis_year",
    "alt",
    "dx_hb_ct",
    "dx_neutro_ct",
    "wbc_ct",
    "rbc_ct",
    "dx_plt_ct",
)
RACE_COLUMNS = tuple(f"race_{r.lower()}" for r in RACES)
AWARE_COLUMNS = CLINICAL_COLUMNS + ("gender",) + RACE_COLUMNS + ("age_last_seen",)

UNAWARE = "unaware"
AWARE = "aware"
PROTOCOLS = (AWARE, UNAWARE)

MIN_YEAR = 1900
MAX_YEAR = 2100  # a fixed bound, so whether a row loads does not depend on the date

DEFAULT_AGE_EDGES = (45.0, 65.0)


@dataclass(frozen=True, eq=False)
class Cohort:
    """Patients as columns, one row per patient in input order.

    Construction validates every row at once; an InvariantViolation names the
    1-based row of the first bad patient.
    """

    numeric: np.ndarray  # float (n, 8), columns in NUMERIC_FIELDS order
    gender: np.ndarray  # str, one of GENDERS
    race: np.ndarray  # str, one of RACES
    y: np.ndarray  # int64, 1 = ITP
    source: str
    n_itp: int = field(init=False)
    n_non_itp: int = field(init=False)

    def __post_init__(self):
        numeric = np.asarray(self.numeric, dtype=float)
        gender = np.asarray(self.gender, dtype=str)
        race = np.asarray(self.race, dtype=str)
        y = np.asarray(self.y)
        if (y.ndim != 1 or numeric.shape != (len(y), len(NUMERIC_FIELDS))
                or gender.shape != y.shape or race.shape != y.shape):
            raise InvariantViolation(
                f"column shapes disagree: numeric {numeric.shape}, gender {gender.shape}, "
                f"race {race.shape}, y {y.shape}"
            )
        _raise_first_failure(_row_checks(numeric, gender, race, y))
        object.__setattr__(self, "numeric", numeric)
        object.__setattr__(self, "gender", gender)
        object.__setattr__(self, "race", race)
        object.__setattr__(self, "y", y.astype(np.int64))
        object.__setattr__(self, "n_itp", int(self.y.sum()))
        object.__setattr__(self, "n_non_itp", len(y) - self.n_itp)

    def __len__(self) -> int:
        return len(self.y)

    def column(self, name: str) -> np.ndarray:
        return self.numeric[:, NUMERIC_FIELDS.index(name)]


def _row_checks(numeric: np.ndarray, gender: np.ndarray, race: np.ndarray, y: np.ndarray) -> list:
    """Cohort's checks in field order, as _raise_first_failure takes them."""
    year, age = numeric[:, 0], numeric[:, 1]

    def value(j, i):
        v = float(numeric[i, j])
        return int(v) if j == 0 and np.isfinite(v) else v

    checks = [
        (~np.isfinite(numeric[:, j]) | (numeric[:, j] < 0),
         lambda i, j=j: f"{NUMERIC_FIELDS[j]} must be finite and non-negative, got {value(j, i)}")
        for j in range(len(NUMERIC_FIELDS))
    ]
    checks += [
        ((year < MIN_YEAR) | (year > MAX_YEAR),
         lambda i: f"diagnosis_year {value(0, i)} outside [{MIN_YEAR}, {MAX_YEAR}]"),
        (age <= 0, lambda i: "age_last_seen must be positive"),
        (~np.isin(gender, GENDERS),
         lambda i: f"gender must be one of {GENDERS}, got {str(gender[i])!r}"),
        (~np.isin(race, RACES), lambda i: f"race must be one of {RACES}, got {str(race[i])!r}"),
        (~np.isin(y, (0, 1)), lambda i: f"y must be 0 (NonITP) or 1 (ITP), got {y[i]}"),
    ]
    return [(mask, InvariantViolation, lambda n, i, m=m: f"row {n}: {m(i)}") for mask, m in checks]


def _raise_first_failure(checks: list, start: int = 0) -> None:
    """Raise for the first failing row its first failing check, each one (failing
    rows, error type, message(row number, row index)); rows count from start + 1."""
    failed = np.array([mask for mask, *_ in checks])
    if failed.any():
        row = int(np.argmax(failed.any(axis=0)))
        _, kind, message = checks[int(np.argmax(failed[:, row]))]
        raise kind(message(start + row + 1, row))


def _require_two_per_class(cohort: Cohort) -> Cohort:
    if len(cohort) == 0:
        raise EmptyCohort("cohort has no records")
    if cohort.n_itp < 2 or cohort.n_non_itp < 2:
        raise InvariantViolation(
            f"need at least 2 records per class, got ITP={cohort.n_itp}, NonITP={cohort.n_non_itp}"
        )
    return cohort


# ---------------------------------------------------------------------------
# CSV ingestion / emission
# ---------------------------------------------------------------------------

# each text column's accepted cells, once stripped, and what they read as ("" for others)
_SPELLINGS = {"gender": {"M": "M", "F": "F", "Male": "M", "Female": "F"},
              "race": dict(zip(RACES, RACES)), "label": dict(zip(LABELS, LABELS))}
_CSV_BLOCK_ROWS = 256  # rows made columns at a time, so few cells are held at once


def load_cohort_csv(path: str | Path) -> Cohort:
    """Read a UTF-8 cohort CSV (see CSV_HEADER) into a validated cohort, order
    preserved. Its source names the path and the first 16 hex digits of the
    sha256 of the file's bytes. A file with bad rows raises for the first."""
    path = Path(path)
    try:
        data = path.read_bytes()
        data.decode("utf-8-sig")  # checked whole, so the error names the first bad byte
    except OSError as exc:
        raise FairbenchError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise FairbenchError(f"{path}: not a UTF-8 CSV: {exc}") from exc
    source = f"csv:{path} sha256:{hashlib.sha256(data).hexdigest()[:16]}"
    # read from the bytes: a StringIO of the text would hold 4 bytes a character
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig", newline=""))
    try:
        header = next(reader, [])
        repeated = {name for name in header if header.count(name) > 1}
        for kind, names, what in (
                (FairbenchError, repeated, "names column(s) more than once"),
                (MissingColumn, set(CSV_HEADER) - set(header), "is missing required column(s)"),
                (UnexpectedColumn, set(header) - set(CSV_HEADER), "has unexpected column(s)")):
            if names:
                raise kind(f"CSV {what}: {', '.join(sorted(names))}")
        rows, blocks = filter(None, reader), []  # a blank line holds no row
        while block := list(itertools.islice(rows, _CSV_BLOCK_ROWS)):  # all full but the last
            blocks.append(_csv_columns(block, header, start=_CSV_BLOCK_ROWS * len(blocks)))
    except csv.Error as exc:
        raise FairbenchError(f"{path}: CSV line {reader.line_num}: {exc}") from None
    if not blocks:
        raise EmptyCohort(f"{path} has a header but no data rows")
    return _require_two_per_class(Cohort(*map(np.concatenate, zip(*blocks)), source=source))


def _csv_columns(rows: list, header: list, start: int) -> tuple:
    """(numeric, gender, race, y) of data rows start + 1, ...; raises for the first bad row."""
    # the cells by column name, a short row's missing ones as ""
    cells = dict(zip(header, zip(*(row + [""] * (len(header) - len(row)) for row in rows))))
    numeric = np.empty((len(rows), len(NUMERIC_FIELDS)))
    unparsable = np.zeros(numeric.shape, dtype=bool)
    for j, name in enumerate(NUMERIC_FIELDS):
        for i, cell in enumerate(cells[name]):
            try:  # by Python's float grammar
                numeric[i, j] = float(cell)
            except ValueError:
                numeric[i, j], unparsable[i, j] = np.nan, True
    unparsable[:, 0] |= ~np.isfinite(numeric[:, 0]) | (np.trunc(numeric[:, 0]) != numeric[:, 0])
    gender, race, label = (np.array([spellings.get(cell.strip(), "") for cell in cells[name]])
                           for name, spellings in _SPELLINGS.items())
    bad_cells = [*unparsable.T, gender == "", race == "", label == ""]  # CSV_HEADER's order
    surplus = np.array([len(row) for row in rows]) - len(CSV_HEADER)
    checks = [(surplus > 0, InvariantViolation, lambda n, i: f"row {n}: {surplus[i]} cell(s) "
               f"more than the header's {len(CSV_HEADER)} columns")]
    checks += [(bad, UnparsableValue, lambda n, i, name=name: f"row {n}, column {name!r}: "
                f"cannot parse {cells[name][i]!r}") for name, bad in zip(CSV_HEADER, bad_cells)]
    _raise_first_failure(checks + _row_checks(numeric, gender, race, label == "ITP"), start)
    return numeric, gender, race, label == "ITP"


def write_cohort_csv(cohort: Cohort, path: str | Path) -> Path:
    """Write rows in canonical column order; floats round-trip exactly via repr."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    labels = np.asarray(LABELS)[cohort.y]
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for values, gender, race, label in zip(cohort.numeric.tolist(), cohort.gender.tolist(),
                                               cohort.race.tolist(), labels.tolist()):
            writer.writerow([str(int(values[0]))] + [repr(v) for v in values[1:]]
                            + [gender, race, label])
    return path


# ---------------------------------------------------------------------------
# Synthetic cohort generation
# ---------------------------------------------------------------------------


# the most rows one float64 column can hold, its bytes counted by numpy's
# signed index type
MAX_CLASS_SIZE = np.iinfo(np.intp).max // np.dtype(np.float64).itemsize


def _class_size(value) -> int:
    """A class size: an integer of at least 2 and at most MAX_CLASS_SIZE."""
    size = _int(value)
    if not 2 <= size <= MAX_CLASS_SIZE:
        raise ValueError(f"expected at most {MAX_CLASS_SIZE} rows and at least 2, got {size}")
    return size


def _invariant(convert, value, what: str):
    """``convert(value)``; a value it rejects is an InvariantViolation naming ``what``."""
    try:
        return convert(value)
    except ValueError as exc:
        raise InvariantViolation(f"{what}: {exc}") from None


@dataclass(frozen=True)
class StatBlock:
    """Per-variable summary statistics; median/mean may be unpublished (None)."""

    lo: float
    hi: float
    median: float | None = None
    mean: float | None = None

    def __post_init__(self):
        if _invariant(_finite, self.lo, "stat min") > _invariant(_finite, self.hi, "stat max"):
            raise InvariantViolation(f"invalid stat range [{self.lo}, {self.hi}]")
        for name in ("median", "mean"):
            v = getattr(self, name)
            if v is not None and not (self.lo <= _invariant(_finite, v, name) <= self.hi):
                raise InvariantViolation(f"{name} {v} outside [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class ClassSpec:
    size: int  # an integral float such as 100.0 is kept as an int
    gender: dict[str, float]
    race: dict[str, float]
    variables: dict[str, StatBlock]

    def __post_init__(self):
        object.__setattr__(self, "size", _invariant(_class_size, self.size, "class size"))
        _check_proportions("gender", self.gender, GENDERS)
        _check_proportions("race", self.race, RACES)
        if sorted(self.variables) != sorted(NUMERIC_FIELDS):
            raise InvariantViolation(f"spec variable blocks must be {sorted(NUMERIC_FIELDS)}, "
                                     f"got {sorted(self.variables)}")


def _check_proportions(what: str, probs: dict[str, float], allowed: tuple[str, ...]) -> None:
    unknown = set(probs) - set(allowed)
    if unknown:
        raise InvariantViolation(f"{what} proportions name unknown categories: {sorted(unknown)}")
    total = sum(_invariant(_finite, probs.get(k, 0.0), f"{what} proportion {k}") for k in allowed)
    if abs(total - 1.0) > 1e-9:
        raise InvariantViolation(f"{what} proportions must sum to 1, got {total}")
    if any(p < 0 for p in probs.values()):
        raise InvariantViolation(f"{what} proportions must be non-negative")


@dataclass(frozen=True)
class CohortSpec:
    itp: ClassSpec
    non_itp: ClassSpec


# Tolerance contract of the generator: sample mean and median of each variable
# land within this fraction of (hi - lo) of the spec's targets.
MOMENT_TOLERANCE = 0.10
_RETRY_FRACTION = 0.9  # redraw while sample stats exceed this fraction of tolerance
_MAX_REDRAWS = 64


# Candidate shapes: mean offsets (the tolerance budget may be spent on the
# mean to reach an otherwise unreachable median) times concentrations a + b.
_MU_OFFSETS = np.linspace(-0.8, 0.8, 17) * MOMENT_TOLERANCE
# np.logspace(np.log10(0.5), np.log10(128.0), 64) as numpy computes it with its
# AVX-512 loops, written out: without them 4 of the 64 values round to other
# last bits, which moves the Beta shapes chosen for the shipped spec
_CONCENTRATIONS = np.array([float.fromhex(h) for h in (
    "0x1.0000000000000p-1", "0x1.178ddeffbf183p-1", "0x1.31468ab0da7fcp-1", "0x1.4d5d0eed46f39p-1",
    "0x1.6c0929e98c7f1p-1", "0x1.8d87bad53cf76p-1", "0x1.b21b3aa923da0p-1", "0x1.da0c4012ef44dp-1",
    "0x1.02d507c21068fp+0", "0x1.1aa59c4115e7dp+0", "0x1.34a720b7fa2c1p+0", "0x1.510d3192ce39dp+0",
    "0x1.70102ae57556fp+0", "0x1.91ed98456b4fep+0", "0x1.b6e8aeee17ed5p+0", "0x1.df4ad32216509p+0",
    "0x1.05b214e9123f1p+1", "0x1.1dc61bd5651f5p+1", "0x1.381147622f886p+1", "0x1.54c7c62710f17p+1",
    "0x1.742293d66630ep+1", "0x1.965fea53d6e3dp+1", "0x1.bbc3bd329576ap+1", "0x1.e4984090670ccp+1",
    "0x1.08973e2c8a9c6p+2", "0x1.20ef768b45ac2p+2", "0x1.3b8519c662a5cp+2", "0x1.588cea3f093bbp+2",
    "0x1.7840850a207a0p+2", "0x1.9aded4472477cp+2", "0x1.c0ac8bfc26abbp+2", "0x1.e9f4b26ec435dp+2",
    "0x1.0b849a8455072p+3", "0x1.2421c57792537p+3", "0x1.3f02b3483446dp+3", "0x1.5c5cbbc379084p+3",
    "0x1.7c6a1f29e2ce4p+3", "0x1.9f6a79c9e0f35p+3", "0x1.c5a3423d6f1e1p+3", "0x1.ef605345339fdp+3",
    "0x1.0e7a412959a89p+4", "0x1.275d21f62eacbp+4", "0x1.428a2f98d7289p+4", "0x1.603758f1d75b3p+4",
    "0x1.809f833b6c160p+4", "0x1.a402feeb9c531p+4", "0x1.caa8075760b5bp+4", "0x1.f4db4e142fa24p+4",
    "0x1.1178499645879p+5", "0x1.2aa1a5aad04f3p+5", "0x1.461baab7ebb42p+5", "0x1.641ce05d40361p+5",
    "0x1.84e0d2a2017ecp+5", "0x1.a8a8882207bebp+5", "0x1.cfbb031a7419fp+5", "0x1.fa65ce55fc3c1p+5",
    "0x1.147ecb8844cd1p+6", "0x1.2def6a81ca3b0p+6", "0x1.49b740f45e1c6p+6", "0x1.680d70ef67253p+6",
    "0x1.892e2f1f775c7p+6", "0x1.ad5b3a4a16c7bp+6", "0x1.d4dc5dc7e48d0p+6", "0x1.fffffffffffffp+6",
)])
_Z = np.array([1.0, 3.0])[:, None, None, None]  # sigmas: feasibility, ranking
_FEASIBLE = 0.95 * MOMENT_TOLERANCE  # a spec needs a 1-sigma score this low
_NEAR_OPTIMAL = 0.004  # 3-sigma scores this close to the best are candidates
_TINY = 1e-300
_lgamma = np.frompyfunc(math.lgamma, 1, 1)


def _beta_guess(a, b, p):
    """First guess at the root of I_x(a, b) = p (Numerical Recipes, 3rd ed., 6.14)."""
    t = np.sqrt(-2.0 * np.log(np.minimum(p, 1.0 - p)))
    x = (2.30753 + t * 0.27061) / (1.0 + t * (0.99229 + t * 0.04481)) - t
    x = np.where(p < 0.5, -x, x)
    al = (x * x - 3.0) / 6.0
    ra, rb = 1.0 / (2.0 * a - 1.0), 1.0 / (2.0 * b - 1.0)
    h = 2.0 / (ra + rb)
    w = x * np.sqrt(al + h) / h - (rb - ra) * (al + 5.0 / 6.0 - 2.0 / (3.0 * h))
    x_big = a / (a + b * np.exp(2.0 * w))
    ta, tb = np.exp(a * np.log(a / (a + b))) / a, np.exp(b * np.log(b / (a + b))) / b
    w = ta + tb
    x_small = np.where(p < ta / w, (a * w * p) ** (1.0 / a), 1.0 - (b * w * (1.0 - p)) ** (1.0 / b))
    return np.where((a >= 1.0) & (b >= 1.0), x_big, x_small)


def _nonzero(v):
    v[np.abs(v) < _TINY] = _TINY
    return v


def _beta_cf(a, b, x):
    """The continued fraction of I_x(a, b) by modified Lentz (NR 6.4), which
    converges fast for x < (a + 1) / (a + b + 2)."""
    c = np.ones_like(x)
    d = 1.0 / (1.0 - (a + b) * x / (a + 1.0))  # positive below that bound
    h = d.copy()
    for m in range(1, 301):
        s = a + 2.0 * m
        for aa in (m * (b - m) * x / ((s - 1.0) * s), -(a + m) * (a + b + m) * x / (s * (s + 1.0))):
            d = 1.0 / _nonzero(1.0 + aa * d)
            c = _nonzero(1.0 + aa / c)
            h *= d * c
        if np.abs(d * c - 1.0).max() <= 1e-15:
            break
    return h


def _beta_inc(a, b, x, lnbeta):
    """I_x(a, b) from the continued fraction of the faster-converging side."""
    front = np.exp(a * np.log(x) + b * np.log1p(-x) - lnbeta)
    lower = x < (a + 1.0) / (a + b + 2.0)
    cf = _beta_cf(np.where(lower, a, b), np.where(lower, b, a), np.where(lower, x, 1.0 - x))
    return np.where(lower, front * cf / a, 1.0 - front * cf / b)


def betaincinv(a, b, p) -> np.ndarray:
    """The x with I_x(a, b) = p, elementwise, for a, b > 0 and 0 < p < 1 (as
    scipy.special.betaincinv). Halley steps from the NR 6.14 guess solve for
    whichever of x and 1 - x is the smaller tail, so a root that rounds to
    1.0 keeps its digits in 1 - x; each element stops once its step falls
    below 1e-8 of it."""
    a, b, p = np.broadcast_arrays(a, b, p)
    shape = a.shape
    a, b, p = (np.array(v, dtype=float).ravel() for v in (a, b, p))
    with np.errstate(all="ignore"):  # the guess branch not taken may divide by 0 or overflow
        swap = _beta_guess(a, b, p) > 0.5
        a[swap], b[swap], p[swap] = b[swap], a[swap], 1.0 - p[swap]
        x = _beta_guess(a, b, p)
        lnbeta = (_lgamma(a) + _lgamma(b) - _lgamma(a + b)).astype(float)
        live = np.flatnonzero((x > _TINY) & (x < 1.0))
        for halley in range(10):
            al, bl, xl, ln = a[live], b[live], x[live], lnbeta[live]
            density = np.exp((al - 1.0) * np.log(xl) + (bl - 1.0) * np.log1p(-xl) - ln)
            u = (_beta_inc(al, bl, xl, ln) - p[live]) / density
            step = u / (1.0 - 0.5 * np.minimum(1.0, u * ((al - 1.0) / xl - (bl - 1.0) / (1.0 - xl))))
            new = xl - step
            x[live] = new = np.where(new <= 0.0, 0.5 * xl,
                                     np.where(new >= 1.0, 0.5 * (xl + 1.0), new))
            done = (new <= _TINY) | (new >= 1.0) | (halley > 0) & (np.abs(step) < 1e-8 * new)
            live = live[~done]
            if not live.size:
                break
        x[swap] = 1.0 - x[swap]
    return x.reshape(shape)


@functools.lru_cache(maxsize=64)
def _match_beta_shapes(blocks: tuple) -> tuple:
    """Pick Beta(a, b) on [lo, hi] for each (lo, hi, median, mean, n) block so
    that its samples honor the moment tolerance. Gives per block (a, b), None
    for a constant variable, or the message of the InfeasibleSpec that
    drawing the block raises.

    Shapes are ranked by the 3-sigma band score (the order-statistic band
    around the distribution median, plus mean offset and CLT mean noise);
    near-optimal candidates prefer an exact mean, then the widest spread.
    Feasibility is judged at 1 sigma: a spec whose *typical* draw cannot land
    within tolerance is rejected (the bounded resample in _sample_variable
    absorbs unlucky draws for feasible specs).

    Every block is scored in two batched quantile calls. A score is never
    below its mean error, which needs no quantile, so the first call scores
    each mean offset's lowest-mean-error cell, and the second only the cells
    whose mean error could still reach the best of those (at 3 sigma, within
    the candidate margin) or settle feasibility (at 1 sigma).
    """
    out, grid = [], []
    for lo, hi, median, mean, n in blocks:
        span = hi - lo
        if span == 0:
            out.append(None)
            continue
        if mean is None and median is None:
            out.append((1.0, 1.0))  # nothing to match: uniform
            continue
        mean = median if mean is None else mean
        median = mean if median is None else median
        if not (lo < mean < hi):
            out.append(f"mean {mean} must lie strictly inside ({lo}, {hi})")
            continue
        grid.append((len(out), (mean - lo) / span, (median - lo) / span, n))
        out.append(f"cannot place sample median near {median} and mean near {mean} "
                   f"on [{lo}, {hi}] with {n} samples")
    if not grid:
        return tuple(out)
    at, mu, t, n = (np.array(v)[:, None, None] for v in zip(*grid))
    MU = np.clip(mu + _MU_OFFSETS[:, None], 0.005, 0.995)
    A, B = _CONCENTRATIONS * MU, _CONCENTRATIONS * (1.0 - MU)  # (block, offset, concentration)
    mean_err = np.abs(MU - mu) + _Z * np.sqrt(MU * (1.0 - MU) / (_CONCENTRATIONS + 1.0)) / np.sqrt(n)
    delta = np.minimum(_Z * 0.5 / np.sqrt(n), 0.49)

    def band_score(cells):
        """max(median error, mean error) at z sigma on the given cells, inf elsewhere."""
        z, g, i, j = np.nonzero(cells)
        d = delta[z, g, 0, 0]
        q = betaincinv(np.tile(A[g, i, j], 2), np.tile(B[g, i, j], 2),
                       np.concatenate([0.5 - d, 0.5 + d]))
        score = np.full(cells.shape, np.inf)
        score[z, g, i, j] = np.maximum(np.abs(q.reshape(2, -1) - t[g, 0, 0]).max(axis=0),
                                       mean_err[z, g, i, j])
        return score

    first = np.zeros(mean_err.shape, dtype=bool)
    np.put_along_axis(first, mean_err.argmin(axis=3)[..., None], True, axis=3)
    bound = band_score(first).min(axis=(2, 3))
    limit = np.stack([np.where(bound[0] > _FEASIBLE, _FEASIBLE, -np.inf), bound[1] + _NEAR_OPTIMAL])
    score = band_score(mean_err <= limit[..., None, None])
    for g, (k, mu_g) in enumerate(zip(at.ravel().tolist(), mu.ravel())):
        if min(bound[0, g], score[0, g].min()) > _FEASIBLE:
            continue
        smin = float(score[1, g].min())
        i, j = min(map(tuple, np.argwhere(score[1, g] <= smin + _NEAR_OPTIMAL)),
                   key=lambda ij: (abs(MU[g, ij[0], 0] - mu_g), ij[1]))
        out[k] = (float(A[g, i, j]), float(B[g, i, j]))
    return tuple(out)


def _sample_variable(block: StatBlock, n: int, rng: np.random.Generator, shapes) -> np.ndarray:
    """n draws for a block, given its _match_beta_shapes result."""
    if isinstance(shapes, str):
        raise InfeasibleSpec(shapes)
    if shapes is None:
        return np.full(n, float(block.lo))
    a, b = shapes
    span = block.hi - block.lo
    tol = MOMENT_TOLERANCE * span

    for _ in range(_MAX_REDRAWS):
        x = block.lo + span * rng.beta(a, b, n)
        ok = True
        if block.mean is not None:
            ok &= abs(float(x.mean()) - block.mean) <= _RETRY_FRACTION * tol
        if block.median is not None:
            ok &= abs(float(np.median(x)) - block.median) <= _RETRY_FRACTION * tol
        if ok:
            return x
    raise InfeasibleSpec(
        f"could not realize sample moments for range [{block.lo}, {block.hi}] "
        f"(median={block.median}, mean={block.mean}, n={n})"
    )


def _allocate_categories(probs: dict[str, float], order: tuple[str, ...], n: int,
                         rng: np.random.Generator) -> np.ndarray:
    # Largest-remainder allocation keeps category counts exact, then a seeded
    # shuffle assigns them to rows.
    quotas = [probs.get(k, 0.0) * n for k in order]
    counts = [int(np.floor(q)) for q in quotas]
    short = n - sum(counts)
    by_remainder = sorted(range(len(order)), key=lambda i: (-(quotas[i] - counts[i]), i))
    for i in by_remainder[:short]:
        counts[i] += 1
    return np.repeat(order, counts)[rng.permutation(n)]


def synthesize_cohort(spec: CohortSpec, seed: int) -> Cohort:
    """Generate a cohort calibrated to the spec's per-class summary statistics.

    Deterministic given (spec, seed): variables are drawn class by class (ITP
    first) in canonical field order, then gender and race are allocated.
    """
    rng = np.random.default_rng(int(seed) % (2**64))
    classes = ((1, spec.itp), (0, spec.non_itp))
    shapes = iter(_match_beta_shapes(tuple(
        (float(b.lo), float(b.hi), b.median, b.mean, cls.size)
        for _, cls in classes for b in map(cls.variables.get, NUMERIC_FIELDS))))
    numeric, genders, races, ys = [], [], [], []
    for y, cls in classes:
        columns = []
        for name in NUMERIC_FIELDS:
            x = _sample_variable(cls.variables[name], cls.size, rng, next(shapes))
            columns.append(np.rint(x) if name == "diagnosis_year" else x)
        numeric.append(np.column_stack(columns))
        genders.append(_allocate_categories(cls.gender, GENDERS, cls.size, rng))
        races.append(_allocate_categories(cls.race, RACES, cls.size, rng))
        ys.append(np.full(cls.size, y))
    cohort = Cohort(numeric=np.vstack(numeric), gender=np.concatenate(genders),
                    race=np.concatenate(races), y=np.concatenate(ys),
                    source=f"synthetic:seed={int(seed)}")
    return _require_two_per_class(cohort)


# ---------------------------------------------------------------------------
# Stratified folds
# ---------------------------------------------------------------------------


def stratified_kfold(cohort: Cohort, k: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Class-stratified k-fold split; test folds partition the index range.

    Per fold and class, the test count differs from n_class/k by less than 1.
    Deterministic given (cohort, k, seed); classes are processed ITP first.
    """
    if k < 2:
        raise TooFewSamples(f"k must be >= 2, got {k}")
    by_class = [(cls, np.flatnonzero(cohort.y == cls)) for cls in (1, 0)]
    for cls, idx in by_class:  # every class, before anything of size k is made
        if len(idx) < k:
            raise TooFewSamples(f"class {LABELS[cls]} has {len(idx)} records, needs at least k={k}")
    rng = np.random.default_rng(int(seed) % (2**64))
    fold = np.empty(len(cohort), dtype=np.intp)
    for _, idx in by_class:
        # the parts of np.array_split: the first len(idx) % k folds get one more
        q, r = divmod(len(idx), k)
        fold[rng.permutation(idx)] = np.repeat(np.arange(k), [q + 1] * r + [q] * (k - r))
    return [(np.flatnonzero(fold != f), np.flatnonzero(fold == f)) for f in range(k)]


# ---------------------------------------------------------------------------
# Min-max scaling and protocol encoding
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scaler:
    """Per-column [min, max] learned on a fitting split."""

    mins: np.ndarray
    maxs: np.ndarray

    @property
    def n_columns(self) -> int:
        return self.mins.shape[0]


def fit_minmax(matrix: np.ndarray) -> Scaler:
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D matrix, got shape {m.shape}")
    return Scaler(mins=m.min(axis=0), maxs=m.max(axis=0))


def apply_minmax(scaler: Scaler, matrix: np.ndarray, clamp: bool = True) -> np.ndarray:
    """Map v -> (v - min) / (max - min); constant columns map to 0."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[1] != scaler.n_columns:
        raise DimensionMismatch(
            f"matrix has {m.shape[1] if m.ndim == 2 else '?'} columns, scaler expects {scaler.n_columns}"
        )
    span = scaler.maxs - scaler.mins
    safe = np.where(span > 0, span, 1.0)
    out = (m - scaler.mins) / safe
    out[:, span == 0] = 0.0
    if clamp:
        out = np.clip(out, 0.0, 1.0)
    return out


_CLINICAL_INDEX = [NUMERIC_FIELDS.index(c) for c in CLINICAL_COLUMNS]


def encode_features(cohort: Cohort, protocol: str) -> tuple[np.ndarray, tuple[str, ...]]:
    """The unscaled design matrix for a protocol, one row per patient, and
    its column names."""
    if protocol not in PROTOCOLS:
        raise ValueError(f"protocol must be one of {PROTOCOLS}, got {protocol!r}")
    if len(cohort) == 0:
        raise EmptyCohort("cannot encode an empty cohort")

    clinical = cohort.numeric[:, _CLINICAL_INDEX]
    if protocol == UNAWARE:
        rows = np.ascontiguousarray(clinical)  # row-major, as hstack gives the aware rows
        names = CLINICAL_COLUMNS
    else:
        gender = (cohort.gender == "M")[:, None]
        race = cohort.race[:, None] == np.asarray(RACES)
        age = cohort.column("age_last_seen")[:, None]
        rows = np.hstack([clinical, gender, race, age])
        names = AWARE_COLUMNS
    return rows, names


def bin_age(age, edges: tuple[float, ...] = DEFAULT_AGE_EDGES):
    """Half-open bin index per age: below the first edge -> 0, at/above the last
    -> len(edges). A scalar age gives an int, an array of ages an index array."""
    edges = tuple(edges)
    if any(a >= b for a, b in zip(edges, edges[1:])):
        raise InvariantViolation(f"age edges must be strictly increasing, got {edges}")
    bins = np.searchsorted(edges, age, side="right")
    return int(bins) if np.ndim(bins) == 0 else bins


def age_bin_labels(edges: tuple[float, ...] = DEFAULT_AGE_EDGES) -> tuple[str, ...]:
    edges = tuple(edges)
    labels = [f"<{edges[0]:g}"]
    labels += [f"{a:g}-<{b:g}" for a, b in zip(edges, edges[1:])]
    labels.append(f">={edges[-1]:g}")
    return tuple(labels)
