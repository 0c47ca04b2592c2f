import csv
import pickle
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from fairbench import dataset, errors
from fairbench.dataset import (
    CLINICAL_COLUMNS,
    CSV_HEADER,
    NUMERIC_FIELDS,
    MOMENT_TOLERANCE,
    LABELS,
    Cohort,
    StatBlock,
    age_bin_labels,
    apply_minmax,
    bin_age,
    encode_features,
    fit_minmax,
    load_cohort_csv,
    stratified_kfold,
    synthesize_cohort,
    write_cohort_csv,
)
from fairbench.errors import (
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
from fairbench.specfile import cohort_spec_from_dict, default_cohort_spec


def make_row(label="ITP", plt=10.0, age=60.0, gender="F", race="White", **over):
    row = dict(
        diagnosis_year=2010,
        age_last_seen=age,
        alt=20.0,
        dx_hb_ct=140.0,
        dx_neutro_ct=5.0,
        wbc_ct=8.0,
        rbc_ct=4.5,
        dx_plt_ct=plt,
        gender=gender,
        race=race,
        label=label,
    )
    row.update(over)
    return row


def cohort_of(*rows):
    return Cohort(
        numeric=[[r[n] for n in NUMERIC_FIELDS] for r in rows],
        gender=[r["gender"] for r in rows],
        race=[r["race"] for r in rows],
        y=[LABELS.index(r["label"]) for r in rows],
        source="test",
    )


def make_cohort(n_itp, n_non):
    rows = [make_row("ITP", plt=5.0 + i) for i in range(n_itp)]
    rows += [make_row("NonITP", plt=200.0 + i) for i in range(n_non)]
    return cohort_of(*rows)


def assert_same_rows(a, b):
    assert np.array_equal(a.numeric, b.numeric)
    assert a.gender.tolist() == b.gender.tolist()
    assert a.race.tolist() == b.race.tolist()
    assert a.y.tolist() == b.y.tolist()


def class_column(cohort, label, name):
    return cohort.column(name)[cohort.y == LABELS.index(label)]


# ---------------------------------------------------------------------------
# row checks and CSV round trip
# ---------------------------------------------------------------------------


def test_record_rejects_negative_numeric():
    with pytest.raises(InvariantViolation, match="row 2: dx_plt_ct must be finite and non-negative, got -1.0"):
        cohort_of(make_row(), make_row(plt=-1.0), make_row(age=0.0))


def test_record_rejects_zero_age():
    with pytest.raises(InvariantViolation, match="row 1: age_last_seen must be positive"):
        cohort_of(make_row(age=0.0))


def test_record_rejects_ancient_year():
    with pytest.raises(InvariantViolation, match=r"row 3: diagnosis_year 1850 outside \[1900, "):
        cohort_of(make_row(), make_row(), make_row(diagnosis_year=1850))


def test_record_rejects_unknown_race():
    with pytest.raises(InvariantViolation, match="row 1: race must be one of .* got 'Martian'"):
        cohort_of(make_row(race="Martian"))


def test_cohort_counts_match_tally():
    c = make_cohort(3, 2)
    assert (c.n_itp, c.n_non_itp) == (3, 2)
    assert c.y.tolist() == [1, 1, 1, 0, 0]


def test_round_trip_synthetic_csv(tmp_path):
    cohort = synthesize_cohort(default_cohort_spec(), seed=42)
    assert (cohort.n_itp, cohort.n_non_itp) == (100, 50)
    path = write_cohort_csv(cohort, tmp_path / "cohort.csv")
    loaded = load_cohort_csv(path)
    assert_same_rows(loaded, cohort)
    assert (loaded.n_itp, loaded.n_non_itp) == (100, 50)


def test_load_rejects_negative_platelets(tmp_path):
    path = tmp_path / "bad.csv"
    rows = [",".join(CSV_HEADER)]
    rows += ["2010,60,20,140,5,8,4.5,-3,F,White,ITP"] * 2
    rows += ["2010,60,20,140,5,8,4.5,250,M,Black,NonITP"] * 2
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(InvariantViolation, match="row 1"):
        load_cohort_csv(path)


def test_load_reports_an_invalid_row_before_a_later_unparsable_one(tmp_path):
    path = tmp_path / "bad.csv"
    rows = [",".join(CSV_HEADER)]
    rows += ["2010,60,20,140,5,8,4.5,10,F,White,ITP"]
    rows += ["2010,0,20,140,5,8,4.5,10,F,White,ITP"]
    rows += ["2010,60,20,140,5,8,4.5,250,X,Black,NonITP"]
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(InvariantViolation, match="row 2: age_last_seen must be positive"):
        load_cohort_csv(path)


def test_load_rejects_missing_race_column(tmp_path):
    path = tmp_path / "bad.csv"
    header = [h for h in CSV_HEADER if h != "race"]
    path.write_text(",".join(header) + "\n2010,60,20,140,5,8,4.5,10,F,ITP\n")
    with pytest.raises(MissingColumn, match="race"):
        load_cohort_csv(path)


def test_load_rejects_extra_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(",".join(CSV_HEADER + ("oops",)) + "\n")
    with pytest.raises(UnexpectedColumn, match="oops"):
        load_cohort_csv(path)


def test_load_rejects_a_column_named_twice(tmp_path):
    # the second copy's -5 is not read as the value of alt
    path = tmp_path / "bad.csv"
    path.write_text(",".join(CSV_HEADER + ("alt",)) + "\n2010,60,20,140,5,8,4.5,10,F,White,ITP,-5\n")
    with pytest.raises(FairbenchError, match="more than once: alt$"):
        load_cohort_csv(path)


def test_load_rejects_a_row_longer_than_the_header(tmp_path):
    path = tmp_path / "bad.csv"
    rows = [",".join(CSV_HEADER), "2010,60,20,140,5,8,4.5,10,F,White,ITP",
            "2010,60,20,140,5,8,4.5,10,F,White,ITP,7,8"]
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(InvariantViolation, match="^row 2: 2 cell\\(s\\) more than the header's 11"):
        load_cohort_csv(path)


def test_load_rejects_unparsable_value(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        ",".join(CSV_HEADER) + "\n2010,sixty,20,140,5,8,4.5,10,F,White,ITP\n"
    )
    with pytest.raises(UnparsableValue, match="age_last_seen"):
        load_cohort_csv(path)


GOOD_CSV = ",".join(CSV_HEADER) + """
2010,60,20,140,5,8,4.5,10,F,White,ITP
2011,61,21,141,5,8,4.5,11,F,Asian,ITP
2012,62,22,142,5,8,4.5,250,M,Black,NonITP
2013,63,23,143,5,8,4.5,251,M,Other,NonITP
"""


# (first occurrence in GOOD_CSV, its replacement, error type, the error's full message)
CSV_ERRORS = {
    "missing-column": (",race,", ",", MissingColumn, "CSV is missing required column(s): race"),
    "two-missing-columns": (",rbc_ct,dx_plt_ct,", ",", MissingColumn,
                            "CSV is missing required column(s): dx_plt_ct, rbc_ct"),
    "unexpected-column": ("label\n", "label,oops\n", UnexpectedColumn,
                          "CSV has unexpected column(s): oops"),
    "column-named-twice": ("label\n", "label,alt\n", FairbenchError,
                           "CSV names column(s) more than once: alt"),
    "unparsable-cell": ("2011,61,", "2011,sixty,", UnparsableValue,
                        "row 2, column 'age_last_seen': cannot parse 'sixty'"),
    "empty-cell": ("2012,62,22,", "2012,62,,", UnparsableValue,
                   "row 3, column 'alt': cannot parse ''"),
    "non-integral-year": ("2013,", "2013.5,", UnparsableValue,
                          "row 4, column 'diagnosis_year': cannot parse '2013.5'"),
    "short-row": (",F,Asian,ITP\n", ",F,Asian\n", UnparsableValue,
                  "row 2, column 'label': cannot parse ''"),
    "short-numeric-row": ("2012,62,22,142,5,8,4.5,250,M,Black,NonITP", "2012,62,22",
                          UnparsableValue, "row 3, column 'dx_hb_ct': cannot parse ''"),
    "bad-gender": ("M,Black", "X,Black", UnparsableValue,
                   "row 3, column 'gender': cannot parse 'X'"),
    "bad-race": ("Asian", " Martian ", UnparsableValue,
                 "row 2, column 'race': cannot parse ' Martian '"),
    "bad-label": ("NonITP\n2013", "Maybe\n2013", UnparsableValue,
                  "row 3, column 'label': cannot parse 'Maybe'"),
    "long-row": ("Other,NonITP", "Other,NonITP,7,8", InvariantViolation,
                 "row 4: 2 cell(s) more than the header's 11 columns"),
    "invariant": (",11,F", ",-1,F", InvariantViolation,
                  "row 2: dx_plt_ct must be finite and non-negative, got -1.0"),
    "one-per-class": ("Other,NonITP", "Other,ITP", InvariantViolation,
                      "need at least 2 records per class, got ITP=3, NonITP=1"),
    # a year must be a whole number: one that is not finite does not parse
    "nan-year": ("2012,", "nan,", UnparsableValue,
                 "row 3, column 'diagnosis_year': cannot parse 'nan'"),
    "inf-year": ("2012,", "inf,", UnparsableValue,
                 "row 3, column 'diagnosis_year': cannot parse 'inf'"),
    "overflowing-year": ("2012,", "1e400,", UnparsableValue,
                         "row 3, column 'diagnosis_year': cannot parse '1e400'"),
    # a row's cells are checked before Cohort's checks, whatever their columns
    "unparsable-after-invalid": ("2011,61,21,", "2011,-1,x,", UnparsableValue,
                                 "row 2, column 'alt': cannot parse 'x'"),
}


@pytest.mark.parametrize("old, new, kind, message", CSV_ERRORS.values(), ids=CSV_ERRORS)
def test_each_csv_error_has_its_exact_type_and_message(tmp_path, old, new, kind, message):
    path = tmp_path / "bad.csv"
    assert old in GOOD_CSV
    path.write_text(GOOD_CSV.replace(old, new, 1))
    with pytest.raises(FairbenchError) as caught:
        load_cohort_csv(path)
    assert type(caught.value) is kind
    assert str(caught.value) == message


def test_a_cell_beyond_the_csv_field_limit_names_the_file_and_its_line(tmp_path):
    path = tmp_path / "big.csv"
    path.write_text(GOOD_CSV.replace("2011,61,21,", "2011,61," + "1" * 200_000 + ",", 1))
    with pytest.raises(FairbenchError) as caught:
        load_cohort_csv(path)
    assert type(caught.value) is FairbenchError
    assert str(caught.value) == (f"{path}: CSV line 3: field larger than field limit "
                                 f"({csv.field_size_limit()})")


@pytest.mark.parametrize("case", ["missing-column", "unexpected-column", "column-named-twice"])
def test_a_bad_header_is_reported_before_an_oversized_cell(tmp_path, case):
    # the header is checked before any data row is read
    old, new, kind, message = CSV_ERRORS[case]
    path = tmp_path / "bad.csv"
    path.write_text(GOOD_CSV.replace(old, new, 1)
                    .replace("2011,61,21,", "2011,61," + "1" * 200_000 + ",", 1))
    with pytest.raises(FairbenchError) as caught:
        load_cohort_csv(path)
    assert type(caught.value) is kind
    assert str(caught.value) == message


def test_the_unedited_csv_loads(tmp_path):
    path = tmp_path / "good.csv"
    path.write_text(GOOD_CSV)
    cohort = load_cohort_csv(path)
    assert (cohort.n_itp, cohort.n_non_itp) == (2, 2)


def test_the_year_bound_is_2100_whatever_the_date(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text(GOOD_CSV.replace("2013,", "2100,", 1))
    assert load_cohort_csv(path).column("diagnosis_year").max() == 2100
    path.write_text(GOOD_CSV.replace("2013,", "2101,", 1))
    with pytest.raises(InvariantViolation) as caught:
        load_cohort_csv(path)
    assert str(caught.value) == "row 4: diagnosis_year 2101 outside [1900, 2100]"


@pytest.mark.parametrize("kind", [t for t in vars(errors).values()
                                  if isinstance(t, type) and issubclass(t, FairbenchError)],
                         ids=lambda t: t.__name__)
def test_every_error_survives_pickling(kind):
    exc = kind("row 3, column 'alt': cannot parse 'x'")
    again = pickle.loads(pickle.dumps(exc))
    assert type(again) is kind
    assert str(again) == str(exc)


def test_a_csv_error_in_a_pool_worker_reaches_the_caller_intact(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(GOOD_CSV.replace("2011,61,", "2011,sixty,", 1))
    with pytest.raises(UnparsableValue) as here:
        load_cohort_csv(path)
    with ProcessPoolExecutor(max_workers=1) as pool:
        with pytest.raises(UnparsableValue) as there:
            pool.submit(load_cohort_csv, path).result(timeout=60)
    assert str(there.value) == str(here.value)


def test_load_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text(",".join(CSV_HEADER) + "\n")
    with pytest.raises(EmptyCohort):
        load_cohort_csv(path)


def test_load_skips_a_byte_order_mark(tmp_path):
    cohort = synthesize_cohort(default_cohort_spec(), seed=42)
    plain = write_cohort_csv(cohort, tmp_path / "cohort.csv")
    path = tmp_path / "excel.csv"
    path.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert_same_rows(load_cohort_csv(path), cohort)


def test_loading_a_csv_holds_less_than_five_times_its_size(tmp_path):
    # the decoded text in a StringIO alone would be 4 bytes a character
    spec = default_cohort_spec()
    spec = replace(spec, itp=replace(spec.itp, size=1000), non_itp=replace(spec.non_itp, size=500))
    path = write_cohort_csv(synthesize_cohort(spec, seed=7), tmp_path / "cohort.csv")
    tracemalloc.start()
    try:
        assert len(load_cohort_csv(path)) == 1500
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * path.stat().st_size


def test_load_accepts_spelled_out_gender(tmp_path):
    path = tmp_path / "ok.csv"
    rows = [",".join(CSV_HEADER)]
    rows += ["2010,60,20,140,5,8,4.5,10,Female,White,ITP"] * 2
    rows += ["2010,60,20,140,5,8,4.5,250,Male,Black,NonITP"] * 2
    path.write_text("\n".join(rows) + "\n")
    cohort = load_cohort_csv(path)
    assert cohort.gender.tolist() == ["F", "F", "M", "M"]


# ---------------------------------------------------------------------------
# synthetic generator
# ---------------------------------------------------------------------------


def test_synthesize_deterministic():
    spec = default_cohort_spec()
    a = synthesize_cohort(spec, 7)
    b = synthesize_cohort(spec, 7)
    assert_same_rows(a, b)
    c = synthesize_cohort(spec, 8)
    assert not np.array_equal(c.numeric, a.numeric)


def test_synthesize_samples_within_ranges():
    spec = default_cohort_spec()
    cohort = synthesize_cohort(spec, 3)
    for cls_spec, label in ((spec.itp, "ITP"), (spec.non_itp, "NonITP")):
        for name in NUMERIC_FIELDS:
            block = cls_spec.variables[name]
            values = class_column(cohort, label, name)
            assert min(values) >= block.lo and max(values) <= block.hi


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, 42, 1234])
def test_synthesize_moments_within_tolerance(seed):
    spec = default_cohort_spec()
    cohort = synthesize_cohort(spec, seed)
    for cls_spec, label in ((spec.itp, "ITP"), (spec.non_itp, "NonITP")):
        for name in NUMERIC_FIELDS:
            block = cls_spec.variables[name]
            tol = MOMENT_TOLERANCE * (block.hi - block.lo)
            values = class_column(cohort, label, name)
            if block.mean is not None:
                assert abs(values.mean() - block.mean) <= tol, (label, name, "mean")
            if block.median is not None:
                assert abs(np.median(values) - block.median) <= tol, (label, name, "median")


def test_synthesize_platelet_gap_always_separates_classes():
    spec = default_cohort_spec()
    for seed in range(10):
        cohort = synthesize_cohort(spec, seed)
        itp = class_column(cohort, "ITP", "dx_plt_ct")
        non = class_column(cohort, "NonITP", "dx_plt_ct")
        assert max(itp) < min(non)


def test_synthesize_gender_allocation_is_exact():
    cohort = synthesize_cohort(default_cohort_spec(), 11)
    male = cohort.gender == "M"
    itp_male = int(np.sum(male & (cohort.y == 1)))
    non_male = int(np.sum(male & (cohort.y == 0)))
    assert itp_male == 53
    assert non_male == 29


def _spec_dict_with(itp_over=None, non_over=None):
    base = {
        "size": 50,
        "gender": {"M": 0.5, "F": 0.5},
        "race": {"White": 0.5, "Black": 0.2, "Asian": 0.2, "Other": 0.1},
        "variables": {
            name: {"min": 1.0, "max": 9.0, "median": 4.0, "mean": 4.0}
            for name in NUMERIC_FIELDS
        },
    }
    import copy

    itp = copy.deepcopy(base)
    non = copy.deepcopy(base)
    for target, over in ((itp, itp_over), (non, non_over)):
        if over:
            target["variables"].update(over)
    itp["variables"]["diagnosis_year"] = {"min": 2000, "max": 2020}
    non["variables"]["diagnosis_year"] = {"min": 2000, "max": 2020}
    return {"classes": {"ITP": itp, "NonITP": non}}


def test_synthesize_constant_variable():
    doc = _spec_dict_with(itp_over={"alt": {"min": 3.0, "max": 3.0}})
    spec = cohort_spec_from_dict(doc)
    cohort = synthesize_cohort(spec, 5)
    assert np.all(class_column(cohort, "ITP", "alt") == 3.0)


def test_synthesize_infeasible_mean_at_boundary():
    doc = _spec_dict_with(itp_over={"alt": {"min": 1.0, "max": 9.0, "median": 1.0, "mean": 1.0}})
    spec = cohort_spec_from_dict(doc)
    with pytest.raises(InfeasibleSpec):
        synthesize_cohort(spec, 5)


def test_synthesize_infeasible_contradictory_moments():
    # mean pinned near the bottom, median pinned at the top of the range
    doc = _spec_dict_with(itp_over={"alt": {"min": 0.0, "max": 10.0, "median": 9.5, "mean": 2.0}})
    spec = cohort_spec_from_dict(doc)
    with pytest.raises(InfeasibleSpec):
        synthesize_cohort(spec, 5)


def test_synthesize_spends_mean_budget_to_reach_median():
    # mean at the range centre with an off-centre median is only reachable by
    # letting the sample mean drift inside its own tolerance
    doc = _spec_dict_with(itp_over={"alt": {"min": 1.0, "max": 9.0, "median": 4.0, "mean": 5.0}})
    spec = cohort_spec_from_dict(doc)
    for seed in (0, 1, 2):
        cohort = synthesize_cohort(spec, seed)
        alts = class_column(cohort, "ITP", "alt")
        assert abs(alts.mean() - 5.0) <= 0.8
        assert abs(np.median(alts) - 4.0) <= 0.8


def test_an_infeasible_block_raises_only_when_its_turn_to_draw_comes():
    # NonITP alt is infeasible; its message is raised, not an earlier block's
    doc = _spec_dict_with(non_over={"alt": {"min": 0.0, "max": 10.0, "median": 9.5, "mean": 2.0}})
    with pytest.raises(InfeasibleSpec, match="median near 9.5 and mean near 2.0"):
        synthesize_cohort(cohort_spec_from_dict(doc), 5)


def beta_grids(mus):
    """The 17x64 candidate (a, b) grid of _match_beta_shapes around each mean."""
    MU = np.clip(np.asarray(mus)[:, None] + dataset._MU_OFFSETS, 0.005, 0.995)[:, :, None]
    return dataset._CONCENTRATIONS * MU, dataset._CONCENTRATIONS * (1.0 - MU)


def test_betaincinv_matches_scipy_on_the_shape_grids():
    special = pytest.importorskip("scipy.special")
    A, B = beta_grids(np.linspace(0.0, 1.0, 9))  # the ends give a << 1 and b << 1 cells
    assert A.min() == pytest.approx(0.0025) and B.min() == pytest.approx(0.0025)
    n = np.array([2, 5, 40, 1500])
    delta = np.minimum(np.array([[1.0], [3.0]]) * 0.5 / np.sqrt(n), 0.49).ravel()
    p = np.concatenate([0.5 - delta, 0.5 + delta])[:, None, None, None]
    got = dataset.betaincinv(A, B, p)
    assert got.shape == (16, 9, 17, 64) and not np.isnan(got).any()
    assert np.abs(got - special.betaincinv(A, B, p)).max() <= 1e-12


def scipy_match_beta_shapes(lo, hi, median, mean, n):
    """The shape search as it was with scipy quantiles on the full grids: the
    result of _match_beta_shapes for one block."""
    special = pytest.importorskip("scipy.special")
    if hi == lo:
        return None
    if mean is None and median is None:
        return (1.0, 1.0)
    mean = median if mean is None else mean
    median = mean if median is None else median
    if not (lo < mean < hi):
        return f"mean {mean} must lie strictly inside ({lo}, {hi})"
    mu, t = (mean - lo) / (hi - lo), (median - lo) / (hi - lo)
    mu_grid = np.clip(mu + np.linspace(-0.8, 0.8, 17) * MOMENT_TOLERANCE, 0.005, 0.995)
    MU, CC = np.meshgrid(mu_grid, np.logspace(np.log10(0.5), np.log10(128.0), 64), indexing="ij")
    A, B = CC * MU, CC * (1.0 - MU)

    def band_score(z):
        delta = min(z * 0.5 / np.sqrt(n), 0.49)
        q_lo, q_hi = special.betaincinv(A, B, 0.5 - delta), special.betaincinv(A, B, 0.5 + delta)
        med_err = np.maximum(np.abs(q_lo - t), np.abs(q_hi - t))
        return np.maximum(med_err, np.abs(MU - mu) + z * np.sqrt(MU * (1.0 - MU) / (CC + 1.0)) / np.sqrt(n))

    if float(band_score(1.0).min()) > 0.95 * MOMENT_TOLERANCE:
        return (f"cannot place sample median near {median} and mean near {mean} "
                f"on [{lo}, {hi}] with {n} samples")
    score = band_score(3.0)
    candidates = sorted(map(tuple, np.argwhere(score <= float(score.min()) + 0.004)),
                        key=lambda ij: (abs(mu_grid[ij[0]] - mu), ij[1]))
    i, j = candidates[0]
    return (float(A[i, j]), float(B[i, j]))


def test_pruned_shape_search_decides_as_the_scipy_search():
    rng = np.random.default_rng(11)
    blocks = []
    for _ in range(300):
        lo = float(rng.uniform(-5.0, 5.0))
        hi = lo + float(rng.choice([rng.uniform(0.1, 10.0), rng.uniform(0.5, 2000.0)]))
        median, mean = (float(rng.uniform(lo, hi)) if rng.random() > 0.15 else None
                        for _ in range(2))
        if median is not None and mean is not None and rng.random() < 0.5:
            mean = float(np.clip(median + (hi - lo) * rng.normal(0.0, 0.05), lo, hi))
        n = int(rng.choice([2, 3, 10, 50, 100, int(rng.integers(2, 1500))]))
        blocks.append((lo, hi, median, mean, n))
    got = dataset._match_beta_shapes.__wrapped__(tuple(blocks))
    want = [scipy_match_beta_shapes(*block) for block in blocks]
    assert sum(isinstance(w, str) and w.startswith("cannot") for w in want) >= 30
    assert list(got) == want


def test_stat_block_rejects_moment_outside_range():
    with pytest.raises(InvariantViolation):
        StatBlock(lo=0.0, hi=1.0, median=2.0)


# ---------------------------------------------------------------------------
# stratified folds
# ---------------------------------------------------------------------------


def test_kfold_exact_counts_on_divisible_cohort():
    c = make_cohort(100, 50)
    labels = c.y
    for train, test in stratified_kfold(c, 5, seed=9):
        assert labels[test].sum() == 20
        assert len(test) - labels[test].sum() == 10
        assert len(train) == 120


def test_kfold_balanced_assignment_on_uneven_cohort():
    # 7 + 5 split over k=5: ITP per fold in {1, 2} with exactly two folds of 2
    c = make_cohort(7, 5)
    labels = c.y
    itp_counts = []
    for _, test in stratified_kfold(c, 5, seed=0):
        itp = int(labels[test].sum())
        non = len(test) - itp
        itp_counts.append(itp)
        assert non == 1
        assert itp in (1, 2)
    assert sorted(itp_counts) == [1, 1, 1, 2, 2]


def array_split_kfold(cohort, k, seed):
    """The split as first written: each class's permutation, ITP first, cut
    by np.array_split, and a fold's test rows sorted."""
    rng = np.random.default_rng(int(seed) % (2**64))
    test_parts = [[] for _ in range(k)]
    for cls in (1, 0):
        perm = rng.permutation(np.flatnonzero(cohort.y == cls))
        for fold_i, part in enumerate(np.array_split(perm, k)):
            test_parts[fold_i].append(part)
    tests = [np.sort(np.concatenate(parts)) for parts in test_parts]
    return [(np.setdiff1d(np.arange(len(cohort)), test, assume_unique=True), test)
            for test in tests]


def test_kfold_equals_the_array_split_reference():
    cohort = synthesize_cohort(default_cohort_spec(), seed=42)  # 100 ITP, 50 NonITP
    for k in range(2, 40):
        for seed in range(20):
            got, want = stratified_kfold(cohort, k, seed), array_split_kfold(cohort, k, seed)
            assert len(got) == len(want) == k
            for a, b in zip(got, want):
                for x, y in zip(a, b):
                    assert x.dtype == y.dtype and np.array_equal(x, y)


def test_kfold_rejects_small_class():
    c = make_cohort(4, 10)
    with pytest.raises(TooFewSamples):
        stratified_kfold(c, 5, seed=0)
    with pytest.raises(TooFewSamples):
        stratified_kfold(c, 1, seed=0)


def test_kfold_partition_and_determinism():
    rng = np.random.default_rng(77)
    for _ in range(25):
        n_itp = int(rng.integers(3, 30))
        n_non = int(rng.integers(3, 30))
        k = int(rng.integers(2, 1 + min(5, n_itp, n_non)))
        c = make_cohort(n_itp, n_non)
        seed = int(rng.integers(0, 2**32))
        folds = stratified_kfold(c, k, seed)
        again = stratified_kfold(c, k, seed)
        assert all(
            np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
            for a, b in zip(folds, again)
        )
        all_test = np.concatenate([test for _, test in folds])
        assert sorted(all_test.tolist()) == list(range(len(c)))
        labels = c.y
        for train, test in folds:
            assert np.intersect1d(train, test).size == 0
            for cls, n_cls in ((1, n_itp), (0, n_non)):
                got = int(np.sum(labels[test] == cls))
                assert abs(got - n_cls / k) <= 1


# ---------------------------------------------------------------------------
# min-max scaling
# ---------------------------------------------------------------------------


def test_minmax_affine_map():
    m = np.array([[0.0], [5.0], [10.0]])
    scaler = fit_minmax(m)
    assert apply_minmax(scaler, m).ravel().tolist() == [0.0, 0.5, 1.0]


def test_minmax_constant_column_maps_to_zero():
    m = np.array([[3.0], [3.0], [3.0]])
    scaler = fit_minmax(m)
    assert apply_minmax(scaler, m).ravel().tolist() == [0.0, 0.0, 0.0]


def test_minmax_clamping_of_out_of_range_values():
    scaler = fit_minmax(np.array([[0.0], [10.0]]))
    probe = np.array([[12.0]])
    assert apply_minmax(scaler, probe, clamp=False)[0, 0] == pytest.approx(1.2)
    assert apply_minmax(scaler, probe, clamp=True)[0, 0] == 1.0


def test_minmax_dimension_mismatch():
    scaler = fit_minmax(np.zeros((3, 2)))
    with pytest.raises(DimensionMismatch):
        apply_minmax(scaler, np.zeros((3, 4)))


def test_minmax_idempotent_on_fitting_split():
    rng = np.random.default_rng(2)
    m = rng.normal(size=(20, 6)) * 10
    scaled = apply_minmax(fit_minmax(m), m)
    assert np.allclose(scaled.min(axis=0), 0.0)
    assert np.allclose(scaled.max(axis=0), 1.0)


# ---------------------------------------------------------------------------
# protocol encoding
# ---------------------------------------------------------------------------


def test_encode_unaware_has_seven_clinical_columns():
    rows, column_names = encode_features(make_cohort(3, 3), "unaware")
    assert column_names == CLINICAL_COLUMNS
    assert rows.shape[1] == 7


def test_encode_aware_has_thirteen_columns():
    rows, column_names = encode_features(make_cohort(3, 3), "aware")
    assert rows.shape[1] == 13
    assert column_names[7] == "gender"
    assert column_names[-1] == "age_last_seen"


def test_encode_one_hot_for_black_female_patient():
    c = cohort_of(
        make_row(gender="F", race="Black"),
        make_row(gender="M", race="White", label="NonITP"),
    )
    rows, column_names = encode_features(c, "aware")
    row = dict(zip(column_names, rows[0]))
    assert row["gender"] == 0.0
    assert [row[f"race_{r}"] for r in ("white", "black", "asian", "other")] == [0, 1, 0, 0]


def test_encode_returns_raw_values_in_column_order():
    c = make_cohort(2, 2)
    rows, column_names = encode_features(c, "aware")
    assert rows[:, column_names.index("age_last_seen")].tolist() == [60.0] * 4
    assert rows[:, column_names.index("dx_plt_ct")].tolist() == [5.0, 6.0, 200.0, 201.0]
    assert c.y.tolist() == [1, 1, 0, 0]


# ---------------------------------------------------------------------------
# age binning
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("age,expected", [(29, 0), (44.9, 0), (45, 1), (64.9, 1), (65, 2), (106, 2)])
def test_bin_age_half_open_bins(age, expected):
    assert bin_age(age, (45, 65)) == expected


def test_bin_age_over_an_array_of_ages():
    ages = np.array([29, 44.9, 45, 64.9, 65, 106])
    assert bin_age(ages, (45, 65)).tolist() == [0, 0, 1, 1, 2, 2]


def test_bin_age_rejects_unsorted_edges():
    with pytest.raises(InvariantViolation):
        bin_age(30, (65, 45))


def test_age_bin_labels():
    assert age_bin_labels((45, 65)) == ("<45", "45-<65", ">=65")
