"""Encoded categorical data model: CSV ingestion, encoding, validation, splitting.

A :class:`Dataset` stores covariates as integer codes ``0..arity-1`` per column,
a binary treatment indicator, and a real-valued outcome. All values are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError, SchemaError


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

    covariates: (n, p) integer codes, column k in ``[0, arities[k])``
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
        covs = _int64(self.covariates, "covariate codes")
        if covs.ndim != 2:
            covs = covs.reshape(len(self.treatment), -1)
        object.__setattr__(self, "covariates", covs)
        object.__setattr__(self, "arities", np.asarray(self.arities, dtype=np.int64))
        object.__setattr__(self, "treatment", _int64(self.treatment, "treatment values"))
        object.__setattr__(self, "outcome", np.asarray(self.outcome, dtype=np.float64))
        object.__setattr__(self, "unit_ids", np.asarray(self.unit_ids))
        object.__setattr__(self, "covariate_names", tuple(self.covariate_names))
        self._validate()

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


def load_csv(path, schema: DatasetSchema, encodings: dict[str, list[str]] | None = None) -> Dataset:
    """Load a UTF-8 CSV, with or without a byte-order mark, with a header row into an encoded :class:`Dataset`.

    Covariate columns are categorically encoded in first-appearance order.
    Rows with a missing value in any used cell, or an outcome that is not a
    finite number, are rejected with the row number rather than imputed. A
    header that names the treatment, the outcome or a used covariate more
    than once raises :class:`SchemaError`. Pass ``encodings`` (name ->
    category list, e.g. from a previously loaded file's dataset) to reuse an
    encoding; an unseen category then raises :class:`DataError`.
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
            code_maps.append({raw: k for k, raw in enumerate(encodings[name])})
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
