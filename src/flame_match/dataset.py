"""Encoded categorical data model: CSV ingestion, encoding, validation, splitting.

A :class:`Dataset` stores covariates as integer codes ``0..arity-1`` per column,
a binary treatment indicator, and a real-valued outcome. All values are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import csv
import math
import os
import stat
import warnings
from dataclasses import dataclass, replace
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
            if self.covariates.min() < 0 or np.any(self.covariates.max(axis=0) >= self.arities):
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
        """Row subset preserving schema, encodings and unit ids; ``rows`` is an index array or a boolean mask."""
        rows = np.asarray(rows)
        # np.take reads a mask as indices; along the column-major store's rows it gathers straight into column-major
        idx = np.flatnonzero(rows) if rows.dtype == bool else rows
        return replace(
            self,
            covariates=np.take(self.covariates.T, idx, axis=1).T,
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
    encoding; its entries are stripped like the cells, an unseen category then
    raises :class:`DataError`, and a list that names a category twice (after
    stripping) raises :class:`SchemaError`.

    A regular file whose used cells are canonical decimal integers, like
    every file ``synth.write_outputs`` writes, is parsed by ``np.loadtxt`` in
    blocks of about ``_BLOCK_BYTES`` cut at a line end (:func:`_load_canonical`
    lists its guards). Any other input, or any file on which a guard fails,
    is read from its first byte by ``csv.reader``: rows are read once and
    encoded column by column, a few thousand at a time, so the cells of the
    whole file are never held as strings at once, and a pipe streams like a
    file. Both paths build the same :class:`Dataset`, and every fault is
    reported by the ``csv.reader`` path.
    """
    if stat.S_ISREG(os.stat(path).st_mode):
        with open(path, "rb") as fh:
            if (d := _load_canonical(fh, path, schema, encodings)) is not None:
                return d
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: file is empty (no header row)") from None
        try:
            return _encode(reader, _columns(path, [h.strip() for h in header], schema, encodings))
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
            # cells are stripped before the lookup, so the entries are too
            code_maps.append({raw.strip(): k for k, raw in enumerate(encodings[name])})
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


def _encode(reader, cols: _Columns) -> Dataset:
    # an empty part gives a file without data rows its arrays; each chunk's codes are a (p, k) block,
    # so the joined (p, n) codes transpose into the column-major store the Dataset keeps as it is
    parts = [(np.empty(0, np.int64), np.empty(0), np.empty((len(cols.names), 0), np.uint8))]
    n = 0
    while chunk := list(islice(reader, _CHUNK_ROWS)):
        if (part := _encode_chunk(chunk, cols)) is None:
            errors = (_row_error(r, row, cols) for r, row in enumerate(chunk, start=n + 1))
            raise next(err for err in errors if err is not None)
        parts.append(part)
        n += len(chunk)
    treatment, outcome, codes = (np.concatenate(arrays, axis=-1) for arrays in zip(*parts))
    del parts  # before the Dataset's checks allocate, so that ingest peaks at the parts and their join

    return Dataset(
        covariates=codes.T,
        arities=[len(m) for m in cols.code_maps],
        treatment=treatment,
        outcome=outcome,
        covariate_names=cols.names,
        unit_ids=np.arange(n, dtype=np.int64),
        encodings=tuple(tuple(m) for m in cols.code_maps),
    )


def _encode_chunk(chunk: list[list[str]], cols: _Columns) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """``chunk``'s treatments, outcomes and ``(p, k)`` codes, narrowed to the category counts so far; None if a row is faulty."""
    k = len(chunk)
    if min(map(len, chunk)) <= max(cols.used):
        return None
    by_column = list(zip(*chunk))
    if (treatment := _column_codes(by_column[cols.t_idx], _TREATMENT, grow=False)) is None:
        return None
    try:
        outcome = np.fromiter(map(float, by_column[cols.y_idx]), np.float64, count=k)
    except ValueError:
        return None
    if not np.isfinite(outcome).all():
        return None
    codes = []
    for idx, cmap in zip(cols.cov_idx, cols.code_maps):
        if (c := _column_codes(by_column[idx], cmap, grow=not cols.frozen)) is None:
            return None
        codes.append(c)
    return treatment, outcome, np.array(codes, np.min_scalar_type(max(map(len, cols.code_maps))))


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


_BLOCK_BYTES = 1 << 16  # bytes per np.loadtxt call, before the cut back to a line end: small enough to keep each block's arrays small
_BOM = b"\xef\xbb\xbf"
# the bytes that csv.reader and the UTF-8 decode read as plain text: a tab, "\n" and printable ASCII but the quote
_PLAIN = bytes([9, 10, *range(0x20, 0x7F)]).replace(b'"', b"")
_UINT8 = {str(v): v for v in range(256)}  # each uint8 value, by its canonical text


def _load_canonical(fh, path, schema: DatasetSchema, encodings: dict[str, list[str]] | None) -> Dataset | None:
    """The :class:`Dataset` of a CSV whose used cells are canonical integers, or None where ``csv.reader`` must read it.

    ``fh`` is a regular file opened in binary, at its first byte. Each
    block of lines is checked with byte scans, then one ``np.loadtxt`` call
    parses its used columns: covariates and treatment as uint8, the outcome
    as float64, which ``np.loadtxt`` rounds as ``float`` does. A 256-entry
    lookup per covariate turns values into first-appearance codes, written
    into arrays allocated once from the file's line-end count. It gives up
    (None) unless, after an optional byte-order mark:

    - every byte is a tab, a ``\n`` or printable ASCII other than a quote,
      so ``csv.reader`` would split each line at its commas and nothing else;
    - every line has the header's field count, so there is no blank or
      ragged row, at least one data row follows the header, and no cell (nor
      the header line) is longer than ``csv.field_size_limit()``;
    - the header passes :func:`_columns`;
    - every treatment cell is ``0`` or ``1``, every covariate cell an integer
      of at most 255 written as ``str`` writes it (``np.loadtxt`` also reads
      `` 1``, ``+1`` and ``01`` as 1), and every outcome finite; a cell that
      ``np.loadtxt`` would read through float, with a DeprecationWarning, is a
      failed parse;
    - frozen ``encodings`` are canonical integers of at most 255, and every
      covariate value is one of them.
    """
    limit = csv.field_size_limit()
    head = fh.readline().removeprefix(_BOM)
    if not head.endswith(b"\n") or head.translate(None, _PLAIN) or len(head) > limit:
        return None
    header = head[:-1].decode("ascii").split(",")
    try:
        cols = _columns(path, [h.strip() for h in header], schema, encodings)
    except FlameError:
        return None
    p, fields = len(cols.names), len(header)
    # each covariate's value -> code lookup, -1 where the value has no code yet
    lut = np.full((p, 256), -1, np.int16)
    for k, cmap in enumerate(cols.code_maps):
        if not cmap.keys() <= _UINT8.keys():
            return None
        lut[k, [_UINT8[raw] for raw in cmap]] = list(cmap.values())

    start = fh.tell()
    n, last = 0, b"\n"
    while block := fh.read(_BLOCK_BYTES):
        n, last = n + block.count(b"\n"), block[-1:]
    n += last != b"\n"  # a last row without a line end
    if n == 0:
        return None
    fh.seek(start)
    treatment, outcome, codes = np.empty(n, np.int64), np.empty(n), np.empty((p, n), np.uint8)
    dtype = np.dtype([("ints", np.uint8, (p + 1,)), ("outcome", np.float64)])
    int_cols = [*cols.cov_idx, cols.t_idx]
    flat, offsets = lut.reshape(-1), np.arange(p)[:, None] * 256
    r = 0
    for block in _line_blocks(fh):
        rows = block.count(b"\n")
        if r + rows > n or block.translate(None, _PLAIN):
            return None
        a = np.frombuffer(block, np.uint8)
        ends = np.flatnonzero((a == ord(",")) | (a == ord("\n")))
        # rows * fields separators, every fields-th one a line end: each line holds exactly fields - 1 commas
        if len(ends) != rows * fields or not (a[ends[fields - 1 :: fields]] == ord("\n")).all():
            return None
        try:
            # numpy from 1.23 may read an integer cell it cannot parse, such as 1e2 or 356, through float with a
            # DeprecationWarning and cast it to uint8; as an error it becomes the ValueError of a failed parse
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                parsed = np.loadtxt(
                    block.decode("ascii").splitlines(), dtype, delimiter=",", comments=None, quotechar=None,
                    usecols=(*int_cols, cols.y_idx), ndmin=1,
                )
        except (ValueError, DeprecationWarning):
            return None
        ints = parsed["ints"]
        widths = (np.diff(ends, prepend=-1) - 1).reshape(rows, fields)
        # np.loadtxt reads a uint8 cell as blanks, a plus sign and digits, so a cell is at least as wide as
        # str() of its value, and only canonical cells make the totals equal
        canonical = ints.size + np.count_nonzero(ints >= 10) + np.count_nonzero(ints >= 100)
        if widths[:, int_cols].sum() != canonical or widths.max() > limit:
            return None
        if ints[:, -1].max() > 1 or not np.isfinite(parsed["outcome"]).all():
            return None
        got = flat.take(ints.T[:p] + offsets)
        for k in np.flatnonzero(got.min(axis=1) < 0):
            if cols.frozen:
                return None
            cmap = cols.code_maps[k]
            values, first = np.unique(ints[got[k] < 0, k], return_index=True)
            for v in values[np.argsort(first)]:
                lut[k, v] = cmap[str(v)] = len(cmap)
            got[k] = lut[k].take(ints[:, k])
        codes[:, r : r + rows] = got
        treatment[r : r + rows] = ints[:, -1]
        outcome[r : r + rows] = parsed["outcome"]
        r += rows
    if r != n:
        return None
    return Dataset(
        covariates=codes.T,
        arities=[len(m) for m in cols.code_maps],
        treatment=treatment,
        outcome=outcome,
        covariate_names=cols.names,
        unit_ids=np.arange(n, dtype=np.int64),
        encodings=tuple(tuple(m) for m in cols.code_maps),
    )


def _line_blocks(fh):
    """``fh``'s remaining bytes in blocks of about ``_BLOCK_BYTES``, each cut after a ``\\n``; a last line without one gets one."""
    carry = b""
    while block := fh.read(_BLOCK_BYTES):
        if cut := block.rfind(b"\n") + 1:
            yield carry + block[:cut]
            carry = block[cut:]
        else:
            carry += block
    if carry:
        yield carry + b"\n"


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
