import tracemalloc

import numpy as np
import pytest

from flame_match.dataset import Dataset, DatasetSchema, load_csv, permute_covariates, sort_covariates_by_arity, split_holdout
from flame_match.errors import DataError, SchemaError

SCHEMA = DatasetSchema(treatment_column="T", outcome_column="Y")


def test_load_table1(table1_csv):
    d = load_csv(table1_csv, SCHEMA)
    assert d.n_units == 4
    assert d.covariate_names == ("v1", "v2")
    assert d.arities.tolist() == [2, 3]
    assert d.treatment.tolist() == [0, 0, 1, 1]
    assert d.outcome.tolist() == [1.0, 2.0, 3.0, 4.0]


def test_encoding_first_appearance(write_csv):
    path = write_csv("c.csv", ["a", "T", "Y"], [["red", 0, 1], ["blue", 1, 2], ["red", 1, 3]])
    d = load_csv(path, SCHEMA)
    assert d.covariates[:, 0].tolist() == [0, 1, 0]
    assert d.encodings == (("red", "blue"),)


def test_decode_round_trip(write_csv):
    rows = [["x", "p", 0, 1.5], ["y", "q", 1, 2.5], ["x", "r", 0, 0.5], ["z", "q", 1, 1.0]]
    path = write_csv("r.csv", ["a", "b", "T", "Y"], rows)
    d = load_csv(path, SCHEMA)
    for u, row in enumerate(rows):
        assert d.decode(u, 0) == row[0]
        assert d.decode(u, 1) == row[1]


def test_missing_column_named(write_csv):
    path = write_csv("m.csv", ["a", "T", "Y"], [[1, 0, 1]])
    with pytest.raises(SchemaError, match="'W'"):
        load_csv(path, DatasetSchema("T", "W"))


def test_non_binary_treatment_row_number(write_csv):
    path = write_csv("t.csv", ["a", "T", "Y"], [[1, 0, 1], [2, 2, 1]])
    with pytest.raises(DataError, match="row 2"):
        load_csv(path, SCHEMA)


def test_missing_value_rejected_with_row(write_csv):
    path = write_csv("g.csv", ["a", "T", "Y"], [[1, 0, 1], ["", 1, 2]])
    with pytest.raises(DataError, match="row 2"):
        load_csv(path, SCHEMA)


def test_bad_outcome_rejected(write_csv):
    path = write_csv("o.csv", ["a", "T", "Y"], [[1, 0, "abc"]])
    with pytest.raises(DataError, match="row 1"):
        load_csv(path, SCHEMA)


def test_single_level_covariate_rejected(write_csv):
    path = write_csv("s.csv", ["a", "T", "Y"], [[7, 0, 1]])
    with pytest.raises(DataError, match="arity"):
        load_csv(path, SCHEMA)


def test_empty_file_gives_empty_dataset(write_csv):
    path = write_csv("e.csv", ["a", "T", "Y"], [])
    d = load_csv(path, SCHEMA)
    assert d.n_units == 0


def test_reused_encoding_and_unseen_category(write_csv):
    path1 = write_csv("e1.csv", ["a", "T", "Y"], [["u", 0, 1], ["v", 1, 2]])
    d1 = load_csv(path1, SCHEMA)
    path2 = write_csv("e2.csv", ["a", "T", "Y"], [["v", 0, 1], ["u", 1, 2]])
    d2 = load_csv(path2, SCHEMA, encodings={"a": list(d1.encodings[0])})
    assert d2.covariates[:, 0].tolist() == [1, 0]
    path3 = write_csv("e3.csv", ["a", "T", "Y"], [["w", 0, 1]])
    with pytest.raises(DataError, match="unseen"):
        load_csv(path3, SCHEMA, encodings={"a": list(d1.encodings[0])})


def test_frozen_encoding_entries_are_stripped(write_csv):
    path = write_csv("s.csv", ["a", "T", "Y"], [[" x ", 1, 2], ["y", 0, 3]])
    d = load_csv(path, SCHEMA, encodings={"a": [" x ", "y"]})
    assert d.covariates[:, 0].tolist() == [0, 1]
    assert d.encodings == (("x", "y"),)


def test_frozen_encoding_entries_that_strip_alike_rejected(write_csv):
    path = write_csv("s.csv", ["a", "T", "Y"], [[" x ", 1, 2], ["y", 0, 3]])
    with pytest.raises(SchemaError, match="names a category more than once"):
        load_csv(path, SCHEMA, encodings={"a": ["x", " x", "y"]})


def test_schema_validation():
    with pytest.raises(SchemaError):
        DatasetSchema("T", "T")
    with pytest.raises(SchemaError):
        DatasetSchema("T", "Y", ("T",))
    with pytest.raises(SchemaError, match="'a' is listed more than once"):
        DatasetSchema("T", "Y", ("a", "b", "a"))


@pytest.mark.parametrize(
    "text",
    ["T,x1,Y\n0,u,1.5\n1,v,2.5\n1,u,0.5\n", "x1,T,Y\nu,0,1.5\nv,1,2.5\nu,1,0.5\n"],
    ids=["treatment_first", "covariate_first"],
)
def test_byte_order_mark_skipped(tmp_path, text):
    plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_bytes(text.encode("utf-8"))
    bom.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    want, got = load_csv(str(plain), SCHEMA), load_csv(str(bom), SCHEMA)
    assert got.covariate_names == want.covariate_names == ("x1",)
    assert got.encodings == want.encodings == (("u", "v"),)
    assert np.array_equal(got.covariates, want.covariates)
    assert np.array_equal(got.treatment, want.treatment)
    assert np.array_equal(got.outcome, want.outcome)



def test_load_csv_peak_is_near_the_dataset_it_returns(tmp_path):
    # canonical integer cells take the np.loadtxt path, which peaks near 1.6x the dataset's arrays; the
    # csv.reader path's chunk parts and their join reach 1.7x, an int64 (rows x p) staging buffer 4.6x
    n, p = 100_000, 20
    rng = np.random.default_rng(0)
    path = tmp_path / "binary.csv"
    header = ",".join([*(f"x{k}" for k in range(p)), "T", "Y"])
    cells = np.column_stack([rng.integers(0, 2, (n, p + 1)), rng.normal(size=n)])
    np.savetxt(path, cells, fmt=["%d"] * (p + 1) + ["%.6f"], delimiter=",", header=header, comments="")
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        d = load_csv(str(path), SCHEMA)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert d.n_units == n and d.covariates.dtype == np.uint8
    kept = sum(a.nbytes for a in (d.covariates, d.arities, d.treatment, d.outcome, d.unit_ids))
    assert peak <= 2.5 * kept, peak / kept


TWO_UNITS = dict(
    covariates=np.array([[0], [1]]),
    arities=np.array([2]),
    treatment=np.array([0, 1]),
    outcome=np.array([0.0, 1.0]),
    covariate_names=("a",),
    unit_ids=np.array([0, 1]),
)


def test_dataset_invariants_enforced():
    Dataset(**TWO_UNITS)
    with pytest.raises(DataError):
        Dataset(**{**TWO_UNITS, "covariates": np.array([[0], [2]])})
    with pytest.raises(DataError):
        Dataset(**{**TWO_UNITS, "treatment": np.array([0, 3])})
    with pytest.raises(DataError):
        Dataset(**{**TWO_UNITS, "unit_ids": np.array([5, 5])})
    three = {**TWO_UNITS, "covariates": np.array([[0], [1], [0]]), "treatment": np.array([0, 1, 1]), "outcome": np.zeros(3)}
    Dataset(**{**three, "unit_ids": np.array(["b", "a", "c"])})
    for ids in ([3, 1, 3], ["b", "a", "b"]):
        with pytest.raises(DataError, match="unique"):
            Dataset(**{**three, "unit_ids": np.array(ids)})


def test_code_range_checked_against_its_own_columns_arity():
    two_columns = {**TWO_UNITS, "arities": np.array([3, 2]), "covariate_names": ("a", "b")}
    Dataset(**{**two_columns, "covariates": np.array([[2, 0], [0, 1]])})
    # column b's code 2 reaches b's arity but stays below a's
    with pytest.raises(DataError, match="out of range"):
        Dataset(**{**two_columns, "covariates": np.array([[0, 0], [1, 2]])})


def test_non_integral_codes_and_treatment_rejected():
    with pytest.raises(DataError, match="treatment"):
        Dataset(**{**TWO_UNITS, "treatment": np.array([0.5, 1.0])})
    with pytest.raises(DataError, match="covariate"):
        Dataset(**{**TWO_UNITS, "covariates": np.array([[0.7], [1.2]])})
    # integral floats, narrower ints and bools still cast
    d = Dataset(**{**TWO_UNITS, "covariates": np.array([[0.0], [1.0]]), "treatment": np.array([False, True])})
    # codes are stored column-major in the narrowest dtype holding the arities; treatment stays int64
    assert d.covariates.dtype == np.uint8 and d.covariates.flags.f_contiguous and d.covariates[:, 0].tolist() == [0, 1]
    assert d.treatment.dtype == np.int64 and d.treatment.tolist() == [0, 1]
    d = Dataset(**{**TWO_UNITS, "covariates": np.array([[0], [1]], dtype=np.int8)})
    assert d.covariates.dtype == np.uint8 and d.covariates.flags.f_contiguous
    # narrow signed codes are range-checked before they are stored unsigned
    with pytest.raises(DataError, match="out of range"):
        Dataset(**{**TWO_UNITS, "covariates": np.array([[-1], [1]], dtype=np.int8)})


@pytest.mark.parametrize("shape", [(2,), (2, 1, 1)], ids=["1-D", "3-D"])
def test_covariates_must_be_two_dimensional(shape):
    with pytest.raises(DataError, match="2-D"):
        Dataset(**{**TWO_UNITS, "covariates": np.zeros(shape, dtype=np.int64)})


@pytest.mark.parametrize(
    "header, name",
    [(["a", "a", "T", "Y"], "a"), (["a", "T", "Y", "T"], "T"), (["a", "Y", "T", " Y"], "Y")],
    ids=["covariate", "treatment", "outcome"],
)
def test_repeated_header_name_rejected(write_csv, header, name):
    path = write_csv("dup.csv", header, [[0, 1, 0, 1], [1, 0, 1, 0]])
    with pytest.raises(SchemaError, match=f"{name!r} occurs more than once"):
        load_csv(path, SCHEMA)


def test_repeated_unused_header_name_allowed(write_csv):
    path = write_csv("dup.csv", ["a", "b", "b", "T", "Y"], [[0, 1, 1, 0, 1.0], [1, 0, 0, 1, 2.0]])
    d = load_csv(path, DatasetSchema("T", "Y", ("a",)))
    assert d.covariate_names == ("a",)


def test_no_covariates_rejected():
    with pytest.raises(DataError, match="at least one covariate"):
        Dataset(
            covariates=np.zeros((3, 0), dtype=np.int64),
            arities=np.zeros(0, dtype=np.int64),
            treatment=np.array([0, 1, 0]),
            outcome=np.array([1.0, 2.0, 3.0]),
            covariate_names=(),
            unit_ids=np.arange(3),
        )


def _dataset(arities, n=6, seed=0):
    rng = np.random.default_rng(seed)
    covs = np.stack([rng.integers(0, a, size=n) for a in arities], axis=1)
    return Dataset(
        covariates=covs,
        arities=np.array(arities),
        treatment=rng.integers(0, 2, size=n),
        outcome=rng.normal(size=n),
        covariate_names=tuple(f"c{i}" for i in range(len(arities))),
        unit_ids=np.arange(n),
    )


@pytest.mark.parametrize(
    "arities,expected_perm",
    [([3, 2], [1, 0]), ([2, 2, 2], [0, 1, 2]), ([5, 2, 3], [1, 2, 0])],
)
def test_sort_covariates_by_arity(arities, expected_perm):
    d = _dataset(arities)
    sorted_d, perm = sort_covariates_by_arity(d)
    assert perm.tolist() == expected_perm
    assert sorted(sorted_d.arities.tolist()) == sorted_d.arities.tolist()
    # composing with the permutation restores column contents
    for k, orig in enumerate(perm):
        assert np.array_equal(sorted_d.covariates[:, k], d.covariates[:, orig])
        assert sorted_d.covariate_names[k] == d.covariate_names[orig]


def test_permute_is_invertible():
    d = _dataset([4, 2, 3, 2])
    sorted_d, perm = sort_covariates_by_arity(d)
    inverse = np.argsort(perm)
    assert np.array_equal(permute_covariates(sorted_d, inverse).covariates, d.covariates)


def test_take_mask_equals_indices():
    d = _dataset([2, 300, 5], n=40, seed=4)
    mask = np.random.default_rng(5).integers(0, 2, size=d.n_units).astype(bool)
    by_mask, by_index = d.take(mask), d.take(np.flatnonzero(mask))
    for field in ("covariates", "treatment", "outcome", "unit_ids"):
        assert np.array_equal(getattr(by_mask, field), getattr(by_index, field))
    assert np.array_equal(by_mask.covariates, d.covariates[mask])
    assert by_mask.covariates.flags.f_contiguous and by_index.covariates.flags.f_contiguous
    assert by_mask.covariates.dtype == by_index.covariates.dtype == d.covariates.dtype == np.uint16


def test_split_sizes_and_partition():
    d = _dataset([2, 3], n=10)
    matching, holdout = split_holdout(d, 0.1, seed=7)
    assert holdout.n_units == 1 and matching.n_units == 9
    union = sorted(matching.unit_ids.tolist() + holdout.unit_ids.tolist())
    assert union == list(range(10))


def test_split_deterministic():
    d = _dataset([2, 2], n=50, seed=3)
    a1, b1 = split_holdout(d, 0.3, seed=11)
    a2, b2 = split_holdout(d, 0.3, seed=11)
    assert np.array_equal(a1.unit_ids, a2.unit_ids)
    assert np.array_equal(b1.unit_ids, b2.unit_ids)
    _, b3 = split_holdout(d, 0.3, seed=12)
    assert not np.array_equal(b1.unit_ids, b3.unit_ids)


@pytest.mark.parametrize("n", [10, 537, 1098])
def test_split_size_rounds(n):
    d = _dataset([2], n=n)
    _, holdout = split_holdout(d, 0.1, seed=0)
    assert holdout.n_units == int(np.floor(0.1 * n + 0.5))


def test_split_fraction_bounds():
    d = _dataset([2], n=4)
    for bad in (0.0, 1.0, -0.1, 1.7):
        with pytest.raises(ValueError):
            split_holdout(d, bad, seed=0)


@pytest.mark.parametrize(
    "change, message",
    [
        ({"arities": np.array([2, 2])}, "expected 1 arities"),
        ({"covariate_names": ("a", "b")}, "expected 1 covariate names"),
        ({"treatment": np.array([0, 1, 1])}, "treatment length"),
        ({"outcome": np.zeros(3)}, "outcome length"),
        ({"unit_ids": np.arange(3)}, "unit_ids length"),
    ],
)
def test_dataset_shapes_must_agree(change, message):
    with pytest.raises(DataError, match=message):
        Dataset(**{**TWO_UNITS, **change})


def test_decode_without_encodings_gives_the_code():
    d = Dataset(**TWO_UNITS)
    assert d.decode(1, 0) == "1"


def test_no_covariate_column_in_file_rejected(write_csv):
    path = write_csv("ty.csv", ["T", "Y"], [[0, 1], [1, 2]])
    with pytest.raises(SchemaError, match="no covariate columns remain"):
        load_csv(path, SCHEMA)
