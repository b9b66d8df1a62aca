"""Encoded categorical data model: CSV ingestion, encoding, validation, splitting.

A :class:`Dataset` stores covariates as integer codes ``0..arity-1`` per column,
a binary treatment indicator, and a real-valued outcome. All values are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, replace
from functools import partial
from itertools import islice

import numpy as np

from .errors import DataError, FlameError, SchemaError


@dataclass(frozen=True)
class DatasetSchema:
    """Column mapping for CSV ingestion.

    ``covariate_columns`` empty means "all columns except treatment/outcome",
    in file order.
    """

    treatment_column: str
    outcome_column: str
    covariate_columns: tuple[str, ...] = ()

    def __post_init__(self):
        if self.treatment_column == self.outcome_column:
            raise SchemaError("treatment and outcome columns must differ")
        for k, c in enumerate(self.covariate_columns):
            if c in (self.treatment_column, self.outcome_column):
                raise SchemaError(f"covariate column {c!r} clashes with treatment/outcome")
            if c in self.covariate_columns[:k]:
                raise SchemaError(f"covariate column {c!r} is listed more than once")


@dataclass(frozen=True)
class Dataset:
    """Encoded categorical table with treatment and outcome.

    covariates: (n, p) codes, column k in ``[0, arities[k])``; column-major, in the narrowest dtype holding every arity
    arities:    (p,) number of categories per covariate (>= 2 for nonempty data)
    treatment:  (n,) values in {0, 1}
    outcome:    (n,) float
    encodings:  per covariate, the raw category strings indexed by code
                (None for data born as codes, e.g. synthetic draws)
    """

    covariates: np.ndarray
    arities: np.ndarray
    treatment: np.ndarray
    outcome: np.ndarray
    covariate_names: tuple[str, ...]
    unit_ids: np.ndarray
    encodings: tuple[tuple[str, ...], ...] | None = None

    def __post_init__(self):
        covs = np.asarray(self.covariates)
        if covs.ndim != 2:
            raise DataError("covariates must be a 2-D (n, p) array")
        # integer codes (a row subset of a stored dataset, say) are range-checked as they are, without an int64 copy
        object.__setattr__(self, "covariates", covs if covs.dtype.kind in "iu" else _int64(covs, "covariate codes"))
        object.__setattr__(self, "arities", np.asarray(self.arities, dtype=np.int64))
        object.__setattr__(self, "treatment", _int64(self.treatment, "treatment values"))
        object.__setattr__(self, "outcome", np.asarray(self.outcome, dtype=np.float64))
        object.__setattr__(self, "unit_ids", np.asarray(self.unit_ids))
        object.__setattr__(self, "covariate_names", tuple(self.covariate_names))
        self._validate()
        # the one decision on how codes are stored: column-major, in the narrowest dtype holding every
        # arity, taken once the incoming values are validated so that no bad code can wrap into range
        object.__setattr__(self, "covariates", np.asarray(self.covariates, np.min_scalar_type(int(self.arities.max())), order="F"))

    def _validate(self):
        n, p = self.covariates.shape
        if p == 0:
            raise DataError("a dataset needs at least one covariate")
        if self.arities.shape != (p,):
            raise DataError(f"expected {p} arities, got {self.arities.shape}")
        if len(self.covariate_names) != p:
            raise DataError(f"expected {p} covariate names, got {len(self.covariate_names)}")
        for arr, name in ((self.treatment, "treatment"), (self.outcome, "outcome"), (self.unit_ids, "unit_ids")):
            if arr.shape != (n,):
                raise DataError(f"{name} length {arr.shape} does not match {n} units")
        if n > 0:
            if np.any(self.arities < 2):
                bad = int(np.argmin(self.arities))
                raise DataError(f"covariate {self.covariate_names[bad]!r} has arity {int(self.arities[bad])}; arity must be >= 2")
            if self.covariates.min() < 0 or np.any(self.covariates >= self.arities[None, :]):
                raise DataError("covariate code out of range for its arity")
            bad_t = (self.treatment != 0) & (self.treatment != 1)
            if np.any(bad_t):
                raise DataError("treatment values must be 0 or 1")
        # sort and compare neighbours: a bare np.unique takes a much slower hash path
        ids = np.sort(self.unit_ids)
        if np.any(ids[1:] == ids[:-1]):
            raise DataError("unit_ids must be unique")

    @property
    def n_units(self) -> int:
        return self.covariates.shape[0]

    @property
    def n_covariates(self) -> int:
        return self.covariates.shape[1]

    @property
    def n_treated(self) -> int:
        return int(self.treatment.sum())

    @property
    def n_control(self) -> int:
        return self.n_units - self.n_treated

    def take(self, rows) -> "Dataset":
        """Row subset preserving schema, encodings and unit ids."""
        rows = np.asarray(rows)
        return replace(
            self,
            covariates=self.covariates[rows],
            treatment=self.treatment[rows],
            outcome=self.outcome[rows],
            unit_ids=self.unit_ids[rows],
        )

    def decode(self, unit: int, covariate: int) -> str:
        """Raw category string behind a stored code."""
        if self.encodings is None:
            return str(int(self.covariates[unit, covariate]))
        return self.encodings[covariate][int(self.covariates[unit, covariate])]


def _int64(values, what: str) -> np.ndarray:
    # a cast that changes any value (0.5 -> 0) would silently pass validation;
    # int64 input comes back as the same array, so it skips the comparison
    arr = np.asarray(values)
    out = np.asarray(arr, dtype=np.int64)
    if out is not arr and np.any(out != arr):
        raise DataError(f"{what} must be integers")
    return out


_CHUNK_ROWS = 2048  # rows encoded per pass: enough to amortize the per-column calls, few enough to keep the strings small
_TREATMENT = {"0": 0, "1": 1}


@dataclass
class _Columns:
    """Where :func:`load_csv` finds its columns, and the category -> code map of each covariate."""

    header: list[str]
    names: tuple[str, ...]
    t_idx: int
    y_idx: int
    cov_idx: tuple[int, ...]
    code_maps: list[dict[str, int]]  # insertion order is code order
    frozen: bool

    @property
    def used(self) -> tuple[int, ...]:
        return (self.t_idx, self.y_idx, *self.cov_idx)


def load_csv(path, schema: DatasetSchema, encodings: dict[str, list[str]] | None = None) -> Dataset:
    """Load a UTF-8 CSV, with or without a byte-order mark, with a header row into an encoded :class:`Dataset`.

    Covariate columns are categorically encoded in first-appearance order.
    Rows with a missing value in any used cell, or an outcome that is not a
    finite number, are rejected with the row number rather than imputed. A
    header that names the treatment, the outcome or a used covariate more
    than once raises :class:`SchemaError`. Pass ``encodings`` (name ->
    category list, e.g. from a previously loaded file's dataset) to reuse an
    encoding; an unseen category then raises :class:`DataError`, and a list
    that names a category twice raises :class:`SchemaError`.

    Rows are encoded column by column, a few thousand at a time, into arrays
    sized once from a count of the file's line ends, so the cells of the whole
    file are never held as strings at once.
    """
    with open(path, "rb") as fh:
        raw = fh if fh.seekable() else io.BytesIO(fh.read())  # a pipe is read whole so it can be read twice
        # every data row ends the line before it, so the line ends bound the row count
        bound = sum(b.count(b"\n") + b.count(b"\r") for b in iter(partial(raw.read, 1 << 20), b""))
        raw.seek(0)
        reader = csv.reader(io.TextIOWrapper(raw, encoding="utf-8-sig", newline=""))
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: file is empty (no header row)") from None
        try:
            return _encode(reader, _columns(path, [h.strip() for h in header], schema, encodings), bound)
        except FlameError:
            # a CSV or decoding fault anywhere in the file takes precedence
            # over a schema or row fault, however early that one is
            for _ in reader:
                pass
            raise


def _columns(path, header: list[str], schema: DatasetSchema, encodings: dict[str, list[str]] | None) -> _Columns:
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

    frozen = encodings is not None
    code_maps: list[dict[str, int]] = []
    for name in cov_names:
        if frozen:
            if name not in encodings:
                raise SchemaError(f"no encoding provided for covariate {name!r}")
            code_maps.append({raw: k for k, raw in enumerate(encodings[name])})
            if len(code_maps[-1]) != len(encodings[name]):
                raise SchemaError(f"the encoding of covariate {name!r} names a category more than once")
        else:
            code_maps.append({})
    return _Columns(
        header=header,
        names=tuple(cov_names),
        t_idx=col_index[schema.treatment_column],
        y_idx=col_index[schema.outcome_column],
        cov_idx=tuple(col_index[c] for c in cov_names),
        code_maps=code_maps,
        frozen=frozen,
    )


def _encode(reader, cols: _Columns, bound: int) -> Dataset:
    # untouched tail pages of these buffers cost no memory; the codes are column-major, so each
    # chunk writes contiguous runs, and the Dataset narrows their rows [:n] into its own store
    codes = np.empty((bound, len(cols.names)), dtype=np.int64, order="F")
    treatment = np.empty(bound, dtype=np.int64)
    outcome = np.empty(bound, dtype=np.float64)
    n = 0
    while chunk := list(islice(reader, _CHUNK_ROWS)):
        if not _encode_chunk(chunk, cols, codes[n:], treatment[n:], outcome[n:]):
            errors = (_row_error(r, row, cols) for r, row in enumerate(chunk, start=n + 1))
            raise next(err for err in errors if err is not None)
        n += len(chunk)

    return Dataset(
        covariates=codes[:n],
        arities=[len(m) for m in cols.code_maps],
        treatment=treatment[:n],
        outcome=outcome[:n],
        covariate_names=cols.names,
        unit_ids=np.arange(n, dtype=np.int64),
        encodings=tuple(tuple(m) for m in cols.code_maps),
    )


def _encode_chunk(chunk: list[list[str]], cols: _Columns, codes, treatment, outcome) -> bool:
    """Write ``chunk``'s rows to the heads of the arrays; False, with the arrays partly written, if any row is faulty."""
    k = len(chunk)
    if min(map(len, chunk)) <= max(cols.used):
        return False
    by_column = list(zip(*chunk))
    if (t := _column_codes(by_column[cols.t_idx], _TREATMENT, grow=False)) is None:
        return False
    treatment[:k] = t
    try:
        outcome[:k] = np.fromiter(map(float, by_column[cols.y_idx]), np.float64, count=k)
    except ValueError:
        return False
    if not np.isfinite(outcome[:k]).all():
        return False
    for j, (idx, cmap) in enumerate(zip(cols.cov_idx, cols.code_maps)):
        if (c := _column_codes(by_column[idx], cmap, grow=not cols.frozen)) is None:
            return False
        codes[:k, j] = c
    return True


def _column_codes(col: tuple[str, ...], cmap: dict[str, int], grow: bool) -> np.ndarray | None:
    """Codes of ``col``'s stripped cells under ``cmap``, which takes new categories in order of appearance when ``grow``.

    None if a cell is blank, or unknown to ``cmap`` without ``grow``. Each
    distinct raw cell is stripped and looked up once.
    """
    by_raw = {}
    for raw in dict.fromkeys(col):
        key = raw.strip()
        if not key or not (grow or key in cmap):
            return None
        by_raw[raw] = cmap.setdefault(key, len(cmap))
    return np.fromiter(map(by_raw.__getitem__, col), np.int64, count=len(col))


def _row_error(r: int, row: list[str], cols: _Columns) -> DataError | None:
    """The fault of data row ``r``, checked in the order missing value, treatment, outcome, unseen category."""
    for idx in cols.used:
        if idx >= len(row) or row[idx].strip() == "":
            return DataError(f"row {r}: missing value in column {cols.header[idx]!r}")
    t_raw = row[cols.t_idx].strip()
    if t_raw not in _TREATMENT:
        return DataError(f"row {r}: treatment value {t_raw!r} is not 0/1")
    try:
        y = float(row[cols.y_idx])
    except ValueError:
        y = math.nan
    if not math.isfinite(y):
        return DataError(f"row {r}: outcome value {row[cols.y_idx]!r} is not a finite number")
    if cols.frozen:
        for idx, name, cmap in zip(cols.cov_idx, cols.names, cols.code_maps):
            raw = row[idx].strip()
            if raw not in cmap:
                return DataError(f"row {r}: unseen category {raw!r} in column {name!r}")
    return None


def permute_covariates(d: Dataset, permutation) -> Dataset:
    """Reorder covariate columns; ``permutation[k]`` is the source column of new column k."""
    perm = np.asarray(permutation, dtype=np.int64)
    return replace(
        d,
        covariates=d.covariates[:, perm],
        arities=d.arities[perm],
        covariate_names=tuple(d.covariate_names[i] for i in perm),
        encodings=None if d.encodings is None else tuple(d.encodings[i] for i in perm),
    )


def sort_covariates_by_arity(d: Dataset) -> tuple[Dataset, np.ndarray]:
    """Stable-reorder covariates so arities are non-decreasing.

    Returns the reordered dataset and the permutation mapping new column
    position -> original column index, so reports can use original names.
    """
    perm = np.argsort(d.arities, kind="stable")
    return permute_covariates(d, perm), perm


def split_holdout(d: Dataset, fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Uniform random split into (matching, holdout) without replacement.

    Holdout gets ``round(fraction * n)`` units; deterministic for a fixed seed.
    """
    if not (0.0 < fraction < 1.0):
        raise ValueError(f"fraction must lie in (0, 1), got {fraction}")
    if d.n_units < 2:
        raise DataError(f"need at least 2 units to split, got {d.n_units}")
    n = d.n_units
    k = int(np.floor(fraction * n + 0.5))
    rng = np.random.default_rng(seed)
    hold_rows = np.sort(rng.choice(n, size=k, replace=False))
    mask = np.ones(n, dtype=bool)
    mask[hold_rows] = False
    return d.take(np.flatnonzero(mask)), d.take(hold_rows)
