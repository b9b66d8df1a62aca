"""``load_csv`` against the whole-file, row-by-row loader in reference_load_csv.py.

The chunk size is cut to two or three rows, and the np.loadtxt path's block
size to a few bytes, so that faults and new categories fall on chunk and
block boundaries.
"""

import csv
import io
import os
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flame_match import dataset
from flame_match.dataset import DatasetSchema, load_csv
from flame_match.errors import DataError, FlameError, SchemaError
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


def test_pipe_loads(tmp_path, three_row_chunks):
    # eight rows: a pipe is read once, in three chunks, like a file, and so is one whose last chunk is faulty
    rows = [f"{'xyz'[i % 3]},{i % 2},{i}.5" for i in range(7)]
    for last_row in ("z,1,8.5", "z,2,8.5"):
        data = "\n".join(["a,T,Y", *rows, last_row, ""]).encode()
        r, w = os.pipe()
        os.write(w, data)
        os.close(w)
        try:
            got = _load(load_csv, f"/dev/fd/{r}", SCHEMA, None)
        finally:
            os.close(r)
        assert got == _load(reference_load_csv, _write(tmp_path, data), SCHEMA, None)


@pytest.mark.parametrize("frozen", [False, True], ids=["grown", "frozen"])
def test_category_count_past_255_widens_the_store(tmp_path, three_row_chunks, frozen):
    # 300 categories in 100 three-row chunks: grown codes pass uint8 in chunk 86, a frozen encoding starts past it
    rows = "".join(f"c{i},{i % 2},{i},{'uv'[i % 2]}\n" for i in range(300))
    path = _write(tmp_path, b"a,T,Y,b\n" + rows.encode())
    encodings = {"a": [f"c{i}" for i in reversed(range(300))], "b": ["v", "u"]} if frozen else None
    _assert_same_load(path, SCHEMA, encodings)
    d = load_csv(path, SCHEMA, encodings)
    assert d.covariates.dtype == np.uint16 and d.covariates.flags.f_contiguous


def _record_paths(mp):
    """Patch ``_load_canonical`` to note, per call of ``load_csv`` on a regular file, which path built the result."""
    paths = []
    fast = dataset._load_canonical

    def spy(*args):
        try:
            d = fast(*args)
        except FlameError:
            paths.append("np.loadtxt")
            raise
        paths.append("csv.reader" if d is None else "np.loadtxt")
        return d

    mp.setattr(dataset, "_load_canonical", spy)
    return paths


def _text(lines, end="\n"):
    return "".join(",".join(line) + end for line in lines)


def _cell_fault(edit):
    def fault(lines, r, c, y):
        lines[r][c] = edit(lines[r][c])
        return _text(lines)

    return fault


def _outcome_fault(value):
    def fault(lines, r, c, y):
        lines[r][y] = value
        return _text(lines)

    return fault


def _blank_line(lines, r, c, y):
    return _text([*lines[:r], [""], *lines[r:]])


def _long_row(lines, r, c, y):
    lines[r].append("1")
    return _text(lines)


def _short_row(lines, r, c, y):
    lines[r].pop()
    return _text(lines)


# each breaks one guard of the np.loadtxt path, in data row r, at used integer column c or outcome column y
GUARD_FAULTS = {
    "space_before": _cell_fault(lambda v: " " + v),
    "plus_sign": _cell_fault(lambda v: "+" + v),
    "leading_zero": _cell_fault(lambda v: "0" + v),
    "space_after": _cell_fault(lambda v: v + " "),
    "quoted": _cell_fault(lambda v: f'"{v}"'),
    "non_ascii": _cell_fault(lambda v: v + "\u00e9"),
    "nul_byte": _cell_fault(lambda v: v + "\0"),
    "value_256": _cell_fault(lambda v: "256"),
    # as wide as 100, the value an older numpy reads from each through float, with a DeprecationWarning
    "exponent": _cell_fault(lambda v: "1e2"),
    "value_356": _cell_fault(lambda v: "356"),
    "crlf": lambda lines, r, c, y: _text(lines, "\r\n"),
    "bare_cr": lambda lines, r, c, y: _text(lines, "\r"),
    "blank_line": _blank_line,
    "long_row": _long_row,
    "short_row": _short_row,
    "outcome_underscore": _outcome_fault("1_0"),
    "outcome_nan": _outcome_fault("nan"),
    "outcome_overflow": _outcome_fault("1e999"),
    "no_data_rows": lambda lines, r, c, y: _text(lines[:1]),
}
INT_CELLS = ["0", "1", "2", "9", "10", "42", "99", "100", "255"]
# float() and np.loadtxt read the same value from each; no guard asks an outcome to be canonical
INT_OUTCOMES = ["1.5", "-2", " 2 ", "+4.25", "3e2", "-0.0", "1e-05", "2.220446049250313e-16"]


@st.composite
def integer_files(draw):
    """A CSV of integer codes as text lines, its schema and encodings, and whether np.loadtxt should read it whole.

    Only an unused column may hold a cell that is not a canonical integer.
    """
    columns = draw(st.permutations(["a", "b", "T", "Y", "u"]))
    covariates = draw(st.sampled_from([(), ("a", "b"), ("b",), ("u", "a")]))
    used = covariates or ("a", "b", "u")
    cells = {"a": st.sampled_from(INT_CELLS), "b": st.sampled_from(INT_CELLS[:3]), "T": st.sampled_from(["0", "1"]), "Y": st.sampled_from(INT_OUTCOMES)}
    cells["u"] = st.sampled_from(INT_CELLS[:4] + ["w", " 7"]) if "u" not in used else cells["a"]
    rows = [[draw(cells[c]) for c in columns] for _ in range(draw(st.integers(1, 10)))]
    fast = True
    encodings = None
    if draw(st.booleans()):
        encodings = {}
        for name in used:
            present = list(dict.fromkeys(row[columns.index(name)] for row in rows))
            known = draw(st.permutations(list(dict.fromkeys(present + draw(st.lists(st.sampled_from(INT_CELLS), max_size=3))))))
            tweak = draw(st.sampled_from(["none"] * 5 + ["unseen", "padded", "leading_zero", "missing"]))
            if tweak == "unseen" and len(known) > 1:
                known.remove(present[0])
                fast = False  # csv.reader reports the unseen category
            elif tweak == "padded":
                known[0] = f" {known[0]} "  # stripped, as cells are
            elif tweak == "leading_zero" and "0" + known[0] not in known:
                known.append("0" + known[0])
                fast = False
            elif tweak == "missing":
                fast = False
                continue
            encodings[name] = known
    r = draw(st.integers(1, len(rows)))
    c = columns.index(draw(st.sampled_from([*used, "T"])))
    return [columns, *rows], DatasetSchema("T", "Y", covariates), encodings, (r, c, columns.index("Y")), fast


@given(
    case=integer_files(),
    fault=st.sampled_from([None] * len(GUARD_FAULTS) + list(GUARD_FAULTS)),  # half the files are left whole
    unterminated=st.booleans(),
    bom=st.booleans(),
    block_bytes=st.sampled_from([1, 5, 32, 4096]),
)
@settings(max_examples=300, deadline=None)
def test_integer_files_match_reference_loader(case, fault, unterminated, bom, block_bytes):
    lines, schema, encodings, (r, c, y), fast = case
    if fault is None:
        text = _text(lines)[: -1 if unterminated else None]  # no line end after the last row
    else:
        text, fast = GUARD_FAULTS[fault](lines, r, c, y), False
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataset, "_BLOCK_BYTES", block_bytes)
        mp.setattr(dataset, "_CHUNK_ROWS", 2)
        paths = _record_paths(mp)
        path = os.path.join(tmp, "case.csv")
        with open(path, "wb") as fh:
            fh.write(b"\xef\xbb\xbf" * bom + text.encode("utf-8"))
        _assert_same_load(path, schema, encodings)
    assert paths == ["np.loadtxt" if fast else "csv.reader"]


INT_LINES = [["a", "T", "Y", "u"], ["1", "1", "2.5", "x"], ["0", "0", "-1", ""], ["10", "1", "3e2", " 01"], ["255", "0", "4", "0"]]


@pytest.fixture
def tiny_blocks(monkeypatch):
    monkeypatch.setattr(dataset, "_BLOCK_BYTES", 8)
    return _record_paths(monkeypatch)


@pytest.mark.parametrize("fault", list(GUARD_FAULTS))
def test_each_guard_fault_falls_back_to_csv_reader(tmp_path, tiny_blocks, fault):
    lines = [list(line) for line in INT_LINES]
    path = _write(tmp_path, GUARD_FAULTS[fault](lines, 3, 0, 2).encode("utf-8"))
    _assert_same_load(path, DatasetSchema("T", "Y", ("a",)))
    assert tiny_blocks == ["csv.reader"]


def test_integer_read_through_float_falls_back(tmp_path, tiny_blocks, monkeypatch):
    # numpy 1.23 and later may parse an integer cell it cannot read as an integer through float, warn and cast
    # 1e2 and 356 to 100; a DeprecationWarning from np.loadtxt must send the file to csv.reader
    loadtxt = np.loadtxt

    def warning_loadtxt(*args, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning, stacklevel=2)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", warning_loadtxt)
    lines = [list(line) for line in INT_LINES]
    _assert_same_load(_write(tmp_path, _text(lines).encode()), DatasetSchema("T", "Y", ("a",)))
    assert tiny_blocks == ["csv.reader"]


@pytest.mark.parametrize(
    "data, covariates",
    [
        # a quoted cell of an unused column holds a comma and a line end: every line still splits into five fields
        (b'a,T,Y,u,v\n0,0,5,w,w\n1,1,2,"x,\n1,0,3,4,y"\n', ("a",)),
        # one row ends in CRLF, after an unused cell
        (b"a,T,Y,u\n0,0,5,w\n1,1,2,x\r\n1,0,3,y\n", ("a",)),
        (b'a,T,Y,"u"\n0,0,5,1\n1,1,2,0\n', ()),
    ],
    ids=["quoted_line_end", "one_crlf_row", "quoted_header"],
)
def test_quote_or_cr_anywhere_falls_back(tmp_path, tiny_blocks, data, covariates):
    _assert_same_load(_write(tmp_path, data), DatasetSchema("T", "Y", covariates))
    assert tiny_blocks == ["csv.reader"]


@pytest.mark.parametrize(
    "encodings, path_taken",
    [
        (None, "np.loadtxt"),
        ({"a": ["255", " 10 ", "0", "7", "1"]}, "np.loadtxt"),
        ({"a": ["255", "10", "0"]}, "csv.reader"),  # 1 is unseen
        ({"a": ["255", "10", "0", "1", "01"]}, "csv.reader"),
        ({"a": ["255", "10", "0", "1", "256"]}, "csv.reader"),
    ],
)
def test_frozen_encodings_take_the_fast_path_only_if_canonical(tmp_path, tiny_blocks, encodings, path_taken):
    path = _write(tmp_path, _text(INT_LINES).encode())
    _assert_same_load(path, DatasetSchema("T", "Y", ("a",)), encodings)
    assert tiny_blocks == [path_taken]


@pytest.mark.parametrize("row, width, path_taken", [(2, 20, "np.loadtxt"), (2, 21, "csv.reader"), (0, 21, "csv.reader")])
def test_cell_over_field_size_limit_falls_back(tmp_path, tiny_blocks, row, width, path_taken):
    # an unused cell at the limit loads; one byte more, in a row or the header, and csv.reader raises its csv.Error
    lines = [list(line) for line in INT_LINES]
    lines[row][3] = "w" * width
    path = _write(tmp_path, _text(lines).encode())
    limit = csv.field_size_limit(20)
    try:
        _assert_same_load(path, DatasetSchema("T", "Y", ("a",)))
    finally:
        csv.field_size_limit(limit)
    assert tiny_blocks == [path_taken]


def test_integer_pipe_streams_through_csv_reader(tmp_path, tiny_blocks):
    data = _text(INT_LINES).encode()
    r, w = os.pipe()
    os.write(w, data)
    os.close(w)
    try:
        got = _load(load_csv, f"/dev/fd/{r}", SCHEMA, None)
    finally:
        os.close(r)
    assert got == _load(reference_load_csv, _write(tmp_path, data), SCHEMA, None)
    assert tiny_blocks == []
