"""Whole-file, row-by-row CSV loader used to cross-check ``flame_match.dataset.load_csv``.

It reads every row into a list of strings, then encodes one cell at a time,
checking each row for a missing value, a bad treatment, a non-finite outcome
and an unseen category, in that order. Shares no ingest code with the
package: only the :class:`Dataset` it builds and the error types.
"""

import csv
import math

import numpy as np

from flame_match.dataset import Dataset, DatasetSchema
from flame_match.errors import DataError, SchemaError


def reference_load_csv(path, schema: DatasetSchema, encodings: dict[str, list[str]] | None = None) -> Dataset:
    """Load a UTF-8 CSV, with or without a byte-order mark, with a header row into an encoded :class:`Dataset`.

    Covariate columns are categorically encoded in first-appearance order.
    Rows with a missing value in any used cell, or an outcome that is not a
    finite number, are rejected with the row number rather than imputed. A
    header that names the treatment, the outcome or a used covariate more
    than once raises :class:`SchemaError`. Pass ``encodings`` (name ->
    category list, e.g. from a previously loaded file's dataset) to reuse an
    encoding; its entries are stripped like the cells, and an unseen category
    then raises :class:`DataError`.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: file is empty (no header row)") from None
        header = [h.strip() for h in header]
        rows = list(reader)

    col_index = {name: i for i, name in enumerate(header)}
    for required in (schema.treatment_column, schema.outcome_column, *schema.covariate_columns):
        if required not in col_index:
            raise SchemaError(f"column {required!r} not found in {path}")
    cov_names = list(schema.covariate_columns)
    if not cov_names:
        cov_names = [h for h in header if h not in (schema.treatment_column, schema.outcome_column)]
    if not cov_names:
        raise SchemaError("no covariate columns remain after removing treatment/outcome")
    for name in (schema.treatment_column, schema.outcome_column, *cov_names):
        if header.count(name) > 1:
            raise SchemaError(f"column {name!r} occurs more than once in the header of {path}")

    t_idx = col_index[schema.treatment_column]
    y_idx = col_index[schema.outcome_column]
    cov_idx = [col_index[c] for c in cov_names]

    frozen = encodings is not None
    code_maps: list[dict[str, int]] = []
    for name in cov_names:
        if frozen:
            if name not in encodings:
                raise SchemaError(f"no encoding provided for covariate {name!r}")
            code_maps.append({raw.strip(): k for k, raw in enumerate(encodings[name])})
        else:
            code_maps.append({})

    n = len(rows)
    codes = np.zeros((n, len(cov_names)), dtype=np.int64)
    treatment = np.zeros(n, dtype=np.int64)
    outcome = np.zeros(n, dtype=np.float64)
    used = [t_idx, y_idx, *cov_idx]

    for r, row in enumerate(rows, start=1):
        for idx in used:
            if idx >= len(row) or row[idx].strip() == "":
                raise DataError(f"row {r}: missing value in column {header[idx] if idx < len(header) else idx!r}")
        t_raw = row[t_idx].strip()
        if t_raw not in ("0", "1"):
            raise DataError(f"row {r}: treatment value {t_raw!r} is not 0/1")
        treatment[r - 1] = int(t_raw)
        try:
            y = float(row[y_idx])
        except ValueError:
            y = math.nan
        if not math.isfinite(y):
            raise DataError(f"row {r}: outcome value {row[y_idx]!r} is not a finite number")
        outcome[r - 1] = y
        for k, idx in enumerate(cov_idx):
            raw = row[idx].strip()
            cmap = code_maps[k]
            if raw not in cmap:
                if frozen:
                    raise DataError(f"row {r}: unseen category {raw!r} in column {cov_names[k]!r}")
                cmap[raw] = len(cmap)
            codes[r - 1, k] = cmap[raw]

    arities = np.array([len(m) for m in code_maps], dtype=np.int64)
    if frozen and n == 0:
        arities = np.array([len(encodings[c]) for c in cov_names], dtype=np.int64)
    enc = tuple(tuple(sorted(m, key=m.get)) for m in code_maps)
    return Dataset(
        covariates=codes,
        arities=arities,
        treatment=treatment,
        outcome=outcome,
        covariate_names=tuple(cov_names),
        unit_ids=np.arange(n, dtype=np.int64),
        encodings=enc,
    )
