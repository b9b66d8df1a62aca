"""``load_csv`` against the whole-file, row-by-row loader in reference_load_csv.py.

The chunk size is cut to two or three rows, so that faults and new
categories fall on chunk boundaries.
"""

import csv
import io
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flame_match import dataset
from flame_match.dataset import DatasetSchema, load_csv
from flame_match.errors import DataError, SchemaError
from reference_load_csv import reference_load_csv

CATEGORIES = ["x", "y", "z"] * 8 + [" x ", "x\t", "a,b", 'q"t', "p\nq", "r\rs"]
TREATMENTS = ["0", "1", " 1 ", "0 "]
OUTCOMES = ["1.5", "-2", " 2 ", "1_0", "3e2", "-0.0"]
FAULTY = ["", "  ", "2", "1.0", "nan", "inf", "-inf", "1e999", "0x1", "w"]
LINE_ENDS = ["\n", "\r\n", "\r"]


def _cell(good):
    # about one cell in 25 is faulty, so that many files load and faults sit at varied rows
    return st.sampled_from(good * (240 // len(good)) + FAULTY)


@st.composite
def csv_files(draw):
    columns = draw(st.permutations(["a", "b", "T", "Y", "u"]))
    cells = {"a": _cell(CATEGORIES), "b": _cell(CATEGORIES), "u": _cell(CATEGORIES), "T": _cell(TREATMENTS), "Y": _cell(OUTCOMES)}
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        row = [draw(cells[c]) for c in columns]
        if draw(st.integers(0, 29)) == 0:  # a short or blank row
            row = row[: draw(st.integers(0, len(row) - 1))]
        rows.append(row)
    quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))
    line_end = draw(st.sampled_from(LINE_ENDS))
    text = _csv_text([columns, *rows], quoting, line_end)
    if draw(st.booleans()):
        text = text[: -len(line_end)]  # no line end after the last row
    data = text.encode("utf-8")
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    covariates = draw(st.sampled_from([(), ("a", "b"), ("b",), ("u", "a")]))
    encodings = None
    if draw(st.booleans()):
        # a frozen encoding may lack a category the file holds, or lack a column
        encodings = {}
        for name in covariates or ("a", "b", "u"):
            known = draw(st.permutations(list(dict.fromkeys(c.strip() for c in CATEGORIES))))
            if draw(st.integers(0, 3)) == 0:
                known = known[1:]
            if draw(st.integers(0, 19)) > 0:
                encodings[name] = known
    return data, DatasetSchema("T", "Y", covariates), encodings


def _csv_text(rows, quoting, line_end):
    buf = io.StringIO(newline="")
    csv.writer(buf, quoting=quoting, lineterminator=line_end).writerows(rows)
    return buf.getvalue()


def _load(loader, path, schema, encodings):
    """Everything a load gives: the dataset's arrays, outcome bits included, or the fault's type and message."""
    try:
        d = loader(path, schema, None if encodings is None else {k: list(v) for k, v in encodings.items()})
    except Exception as exc:
        return type(exc), str(exc)
    assert d.covariates.dtype == np.min_scalar_type(int(d.arities.max())) and d.covariates.flags.f_contiguous
    return (
        d.covariates.tolist(),
        d.treatment.tolist(),
        d.outcome.view(np.int64).tolist(),
        d.encodings,
        d.arities.tolist(),
        d.covariate_names,
        d.unit_ids.tolist(),
    )


def _assert_same_load(path, schema, encodings=None):
    want = _load(reference_load_csv, path, schema, encodings)
    assert _load(load_csv, path, schema, encodings) == want
    return want


@given(case=csv_files(), chunk_rows=st.sampled_from([2, 3]))
@settings(max_examples=400, deadline=None)
def test_load_csv_matches_reference_loader(case, chunk_rows):
    data, schema, encodings = case
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataset, "_CHUNK_ROWS", chunk_rows)
        path = os.path.join(tmp, "case.csv")
        with open(path, "wb") as fh:
            fh.write(data)
        _assert_same_load(path, schema, encodings)


SCHEMA = DatasetSchema("T", "Y")


@pytest.fixture
def three_row_chunks(monkeypatch):
    monkeypatch.setattr(dataset, "_CHUNK_ROWS", 3)


def _write(tmp_path, data):
    path = tmp_path / "case.csv"
    path.write_bytes(data)
    return str(path)


@pytest.mark.parametrize(
    "data, codes, encodings",
    [
        # the row bound counts both line-end characters: a quoted newline only over-counts, and CR-only rows fit
        (b'a,T,Y\n"p\nq",1,2\ny,0,3\n"p\nq",0,4\n', [[0], [1], [0]], (("p\nq", "y"),)),
        (b"a,T,Y\rx,1,2\ry,0,3\rx,0,4\r", [[0], [1], [0]], (("x", "y"),)),
        (b'a,T,Y\r"p\rq",1,2\r\ny,0,3\n\r', None, None),
    ],
    ids=["quoted_newline", "cr_only", "mixed_line_ends"],
)
def test_line_ends_load_as_before(tmp_path, three_row_chunks, data, codes, encodings):
    path = _write(tmp_path, data)
    got = _assert_same_load(path, SCHEMA)
    if codes is not None:
        assert got[0] == codes and got[3] == encodings


@pytest.mark.parametrize(
    "bad_row, message",
    [
        ("y,2,3", "row 4: treatment value '2' is not 0/1"),
        # two faults in one row: the missing value is checked before the treatment
        (",2,3", "row 4: missing value in column 'a'"),
        # and the treatment before the outcome
        ("y,1.0,nan", "row 4: treatment value '1.0' is not 0/1"),
        ("y,1", "row 4: missing value in column 'Y'"),
    ],
)
def test_fault_in_first_row_of_second_chunk(tmp_path, three_row_chunks, bad_row, message):
    rows = ["a,T,Y", "x,1,2", "y,0,3", "x,0,4", bad_row, "z,1,5", "x,1,nan"]
    path = _write(tmp_path, ("\n".join(rows) + "\n").encode())
    assert _assert_same_load(path, SCHEMA) == (DataError, message)


def test_unseen_category_on_chunk_boundary(tmp_path, three_row_chunks):
    # the outcome is checked before the category
    path = _write(tmp_path, b"a,T,Y\nx,1,2\ny,0,3\nx,0,4\nz,1,nan\n")
    got = _assert_same_load(path, SCHEMA, {"a": ["x", "y"]})
    assert got == (DataError, "row 4: outcome value 'nan' is not a finite number")
    path = _write(tmp_path, b"a,T,Y\nx,1,2\ny,0,3\nx,0,4\nz,1,5\n")
    assert _assert_same_load(path, SCHEMA, {"a": ["x", "y"]}) == (DataError, "row 4: unseen category 'z' in column 'a'")


def test_repeated_category_in_frozen_encoding_is_rejected(tmp_path):
    # the reference loader took such a list silently and mislabelled codes, so this is checked here alone
    path = _write(tmp_path, b"a,T,Y\nx,1,2\nx,0,3\n")
    with pytest.raises(SchemaError, match="'a' names a category more than once"):
        load_csv(path, SCHEMA, {"a": ["x", "x", "y"]})
    with pytest.raises(SchemaError, match="more than once"):
        load_csv(_write(tmp_path, b"a,T,Y\n"), SCHEMA, {"a": ["x", "x", "y"]})
    # a CSV fault later in the file still takes precedence
    path = _write(tmp_path, b"a,T,Y\nx,1,2\n" + b"x" * 40 + b",1,2\n")
    limit = csv.field_size_limit(20)
    try:
        with pytest.raises(csv.Error, match="field larger than field limit"):
            load_csv(path, SCHEMA, {"a": ["x", "x", "y"]})
    finally:
        csv.field_size_limit(limit)


def test_csv_fault_after_a_faulty_row_takes_precedence(tmp_path, three_row_chunks):
    # the whole-file loader met the oversized field before it checked any row
    path = _write(tmp_path, b"a,T,Y\nx,2,2\ny,0,3\nx,0,4\nz,1,5\n" + b"x" * 40 + b",1,2\n")
    limit = csv.field_size_limit(20)
    try:
        got = _assert_same_load(path, SCHEMA)
        missing = _assert_same_load(path, DatasetSchema("T", "W"))
    finally:
        csv.field_size_limit(limit)
    assert got == missing == (csv.Error, "field larger than field limit (20)")


def test_covariates_are_f_contiguous_narrowest_dtype(tmp_path):
    rows = "".join(f"{'xyz'[i % 3]},{i % 2},{i}.5,{'uv'[i % 2]}\n" for i in range(10))
    d = load_csv(_write(tmp_path, b"a,T,Y,b\n" + rows.encode()), SCHEMA)
    assert d.covariates.dtype == np.uint8 and d.covariates.flags.f_contiguous
    assert d.covariates.shape == (10, 2)


def test_pipe_loads(tmp_path):
    data = b"a,T,Y\nx,1,2\ny,0,3\n"
    r, w = os.pipe()
    os.write(w, data)
    os.close(w)
    try:
        d = load_csv(f"/dev/fd/{r}", SCHEMA)
    finally:
        os.close(r)
    want = reference_load_csv(_write(tmp_path, data), SCHEMA)
    assert d.covariates.tolist() == want.covariates.tolist() and d.outcome.tolist() == want.outcome.tolist()
