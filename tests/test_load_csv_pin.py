"""Pin every message and result of :func:`load_csv` on a corpus of malformed and edge-case CSVs.

Any reimplementation of the ingest must reproduce these exactly, row
numbers included. ``{path}`` in a message stands for the file's path.
"""

import numpy as np
import pytest

from flame_match import dataset
from flame_match.dataset import DatasetSchema, load_csv
from flame_match.errors import DataError, SchemaError
from flame_match.synth import MODELS, SynthSpec, generate, write_outputs

SCHEMA = DatasetSchema(treatment_column="T", outcome_column="Y")

ERRORS = {
    "short_row": (b"a,T,Y\nx,1,2\ny,0\n", DataError, "row 2: missing value in column 'Y'"),
    "empty_cell": (b"a,T,Y\nx,1,2\n,0,3\n", DataError, "row 2: missing value in column 'a'"),
    "whitespace_cell": (b"a,T,Y\nx,1,2\ny,  ,3\n", DataError, "row 2: missing value in column 'T'"),
    "treatment_2": (b"a,T,Y\nx,1,2\ny,2,3\n", DataError, "row 2: treatment value '2' is not 0/1"),
    "treatment_1.0": (b"a,T,Y\nx,1.0,2\n", DataError, "row 1: treatment value '1.0' is not 0/1"),
    "outcome_nan": (b"a,T,Y\nx,1,2\ny,0,nan\n", DataError, "row 2: outcome value 'nan' is not a finite number"),
    "outcome_inf": (b"a,T,Y\nx,1,inf\n", DataError, "row 1: outcome value 'inf' is not a finite number"),
    "outcome_abc": (b"a,T,Y\nx,1,2\ny,0, abc \n", DataError, "row 2: outcome value ' abc ' is not a finite number"),
    # csv.reader yields an empty row for a blank line, wherever it is
    "trailing_blank_line": (b"a,T,Y\nx,1,2\ny,0,3\n\n", DataError, "row 3: missing value in column 'T'"),
    "middle_blank_line": (b"a,T,Y\nx,1,2\n\ny,0,3\n", DataError, "row 2: missing value in column 'T'"),
    "duplicate_header": (b"a,T,a,Y\nx,1,x,2\n", SchemaError, "column 'a' occurs more than once in the header of {path}"),
    "empty_file": (b"", DataError, "{path}: file is empty (no header row)"),
    # the same faults in files of canonical integers: the np.loadtxt path gives up on each, and csv.reader reports it
    "canonical_short_row": (b"a,T,Y\n1,1,2\n0,0\n", DataError, "row 2: missing value in column 'Y'"),
    "canonical_treatment_2": (b"a,T,Y\n1,1,2\n0,2,3\n", DataError, "row 2: treatment value '2' is not 0/1"),
    "canonical_outcome_nan": (b"a,T,Y\n1,1,2\n0,0,nan\n", DataError, "row 2: outcome value 'nan' is not a finite number"),
    "canonical_trailing_blank_line": (b"a,T,Y\n1,1,2\n0,0,3\n\n", DataError, "row 3: missing value in column 'T'"),
    "canonical_middle_blank_line": (b"a,T,Y\n1,1,2\n\n0,0,3\n", DataError, "row 2: missing value in column 'T'"),
}


@pytest.mark.parametrize("name", list(ERRORS))
def test_load_csv_error_message(tmp_path, name):
    data, exc, message = ERRORS[name]
    path = tmp_path / f"{name}.csv"
    path.write_bytes(data)
    with pytest.raises(exc) as info:
        load_csv(str(path), SCHEMA)
    assert str(info.value) == message.format(path=path)


@pytest.mark.parametrize(
    "data, encodings, exc, message",
    [
        (b"a,T,Y\nx,1,2\nz,0,3\n", {"a": ["x", "y"]}, DataError, "row 2: unseen category 'z' in column 'a'"),
        (b"a,T,Y\nx,1,2\nz,0,3\n", {"b": ["x"]}, SchemaError, "no encoding provided for covariate 'a'"),
        # canonical integer codes: the np.loadtxt path gives up on the unseen one, and csv.reader reports it
        (b"a,T,Y\n1,1,2\n2,0,3\n", {"a": ["1", "0"]}, DataError, "row 2: unseen category '2' in column 'a'"),
    ],
    ids=["unseen_category", "missing_encoding", "canonical_unseen_category"],
)
def test_load_csv_frozen_encoding_message(tmp_path, data, encodings, exc, message):
    path = tmp_path / "frozen.csv"
    path.write_bytes(data)
    with pytest.raises(exc) as info:
        load_csv(str(path), SCHEMA, encodings=encodings)
    assert str(info.value) == message


LOADS = {
    "crlf": (b"a,T,Y\r\nx,1,2\r\ny,0,3\r\n", [[0], [1]], [1, 0], [2.0, 3.0], (("x", "y"),), [2]),
    "quoted_comma": (b'a,T,Y\n"x,1",1,2\ny,0,3\n', [[0], [1]], [1, 0], [2.0, 3.0], (("x,1", "y"),), [2]),
    "header_only": (b"a,T,Y\n", [], [], [], ((),), [0]),
}


@pytest.mark.parametrize("name", list(LOADS))
def test_load_csv_edge_case_loads(tmp_path, name):
    data, codes, treatment, outcome, encodings, arities = LOADS[name]
    path = tmp_path / f"{name}.csv"
    path.write_bytes(data)
    d = load_csv(str(path), SCHEMA)
    assert d.covariate_names == ("a",)
    assert d.covariates.shape == (len(treatment), 1) and d.covariates.tolist() == codes
    assert d.treatment.tolist() == treatment
    assert d.outcome.tolist() == outcome
    assert d.encodings == encodings
    assert d.arities.tolist() == arities
    assert np.array_equal(d.unit_ids, np.arange(len(treatment)))


@pytest.mark.parametrize("model", MODELS)
def test_every_synth_csv_takes_the_loadtxt_path(tmp_path, model):
    # a guard that sent these back to csv.reader would slow every benchmark input without failing a test
    synth = generate(SynthSpec(model, 30, 30, seed=5))
    csv_path, _ = write_outputs(synth, str(tmp_path / model))
    with open(csv_path, "rb") as fh:
        d = dataset._load_canonical(fh, csv_path, SCHEMA, None)
    assert d is not None
    want = synth.dataset
    assert [[int(d.decode(i, k)) for k in range(d.n_covariates)] for i in range(d.n_units)] == want.covariates.tolist()
    assert d.treatment.tolist() == want.treatment.tolist()
    assert d.outcome.view(np.int64).tolist() == want.outcome.view(np.int64).tolist()
