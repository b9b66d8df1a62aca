"""Exact-match grouping on an active covariate subset.

Two interchangeable backends produce identical group partitions:

* ``mixed_radix``: each unit's active codes fold, most significant first,
  into one dense int64 group id numbered in lexicographic signature order
  (:func:`_group_ids`); per-group arm counts from ``np.bincount`` then give
  the matched flags and the group table in one pass; and
* ``tuple_key``: plain dict grouping on the full code tuples, kept as the
  slow independent reference.

:func:`mixed_radix_keys` and :func:`count_and_flag` keep the paper's
positional-key formulation (a unit is matched iff its covariate-key count
differs from its covariate+treatment-key count) as a public reference.

Also emits the equivalent two-statement SQL text for engines that prefer to
run the grouping as a ``GROUP BY``/``UPDATE`` against a live table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import EmissionError

INT64_MAX = np.iinfo(np.int64).max


def check_active(active, p: int) -> tuple[int, ...]:
    """Validate an active covariate index set: strictly increasing, in range, non-empty."""
    active = tuple(int(a) for a in active)
    if not active:
        raise ValueError("active covariate set must be non-empty")
    if any(a < 0 or a >= p for a in active):
        raise ValueError(f"active indices out of range for p={p}: {active}")
    if any(b <= a for a, b in zip(active, active[1:])):
        raise ValueError(f"active indices must be strictly increasing: {active}")
    return active


@dataclass(frozen=True)
class UnitKeys:
    """Integer keys per unit: ``b`` over covariates, ``b_plus`` adds treatment.

    ``c``/``c_plus`` are occurrence counts of each unit's key among the
    considered units; they are filled in by :func:`count_and_flag` (zero for
    units outside the considered set).
    """

    b: np.ndarray
    b_plus: np.ndarray
    c: np.ndarray | None = None
    c_plus: np.ndarray | None = None


def mixed_radix_keys(d: Dataset, active, rows=None) -> UnitKeys:
    """Collapse the active covariate codes of each unit into integer keys.

    Digit k (arity h_k) weighs h_k^k in ``b``; in ``b_plus`` the treatment
    bit takes the ones place and digit k weighs h_k^(k+1). Requires the
    active covariates to be in non-decreasing arity order (the order that
    makes key equality coincide with tuple equality), which holds for any
    increasing index subset of an arity-sorted dataset. Keys are exact: they
    are int64 when the largest possible key fits, Python integers otherwise.
    """
    active = list(check_active(active, d.n_covariates))
    arities = [int(d.arities[a]) for a in active]
    if any(b < a for a, b in zip(arities, arities[1:])):
        raise ValueError(f"active covariates must be sorted by non-decreasing arity, got {arities}")
    codes = d.covariates[:, active] if rows is None else d.covariates[np.asarray(rows)][:, active]
    t = d.treatment if rows is None else d.treatment[np.asarray(rows)]
    w_b = [h**k for k, h in enumerate(arities)]
    w_plus = [h ** (k + 1) for k, h in enumerate(arities)]
    if 1 + sum((h - 1) * w for h, w in zip(arities, w_plus)) <= INT64_MAX:
        b = codes @ np.asarray(w_b, dtype=np.int64)
        return UnitKeys(b=b, b_plus=t + codes @ np.asarray(w_plus, dtype=np.int64))
    rows_list = codes.tolist()
    b = np.array([sum(a * w for a, w in zip(r, w_b)) for r in rows_list], dtype=object)
    b_plus = np.array(
        [int(ti) + sum(a * w for a, w in zip(r, w_plus)) for ti, r in zip(t.tolist(), rows_list)],
        dtype=object,
    )
    return UnitKeys(b=b, b_plus=b_plus)


def _occurrences(keys: np.ndarray) -> np.ndarray:
    """counts[i] = number of occurrences of keys[i] within keys."""
    _, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
    return counts[inverse]


def count_and_flag(keys: UnitKeys, considered=None) -> tuple[np.ndarray, UnitKeys]:
    """Occurrence counts over the considered units and the matched flags.

    A unit is matched iff its covariate key count differs from its
    covariate+treatment key count, i.e. its signature occurs under both
    treatment values among the considered units.
    """
    n = len(keys.b)
    considered = np.arange(n) if considered is None else np.asarray(considered)
    c = np.zeros(n, dtype=np.int64)
    c_plus = np.zeros(n, dtype=np.int64)
    c[considered] = _occurrences(keys.b[considered])
    c_plus[considered] = _occurrences(keys.b_plus[considered])
    flags = c != c_plus
    return flags, UnitKeys(b=keys.b, b_plus=keys.b_plus, c=c, c_plus=c_plus)


def _renumber(ids: np.ndarray, bound: int) -> tuple[np.ndarray, int]:
    """Map ids in ``[0, bound)`` onto ``0..k-1`` (k distinct values), keeping their order."""
    if bound <= max(8 * ids.size, 1 << 16):
        seen = np.zeros(bound, dtype=bool)
        seen[ids] = True
        rank = np.cumsum(seen) - 1
        return rank[ids], int(rank[-1]) + 1
    uniq, inverse = np.unique(ids, return_inverse=True)
    return inverse.astype(np.int64, copy=False), uniq.size


def _group_ids(d: Dataset, rows: np.ndarray, active: tuple[int, ...]) -> tuple[np.ndarray, int]:
    """Dense int64 id per row of its signature on ``active``, plus the id count.

    Codes fold most significant first (``id = id * h + code``), so ids follow
    the lexicographic order of the signatures. Whenever the next digit could
    overflow int64 the running ids are renumbered densely first; renumbering
    keeps their order, so the ids stay exact.
    """
    codes = d.covariates[rows][:, list(active)]
    gid = np.zeros(rows.size, dtype=np.int64)
    bound = 1
    for k, a in enumerate(active):
        h = int(d.arities[a])
        if bound * h > INT64_MAX:
            gid, bound = _renumber(gid, bound)
        gid *= h
        gid += codes[:, k]
        bound *= h
    return _renumber(gid, bound)


def _arm_counts(d: Dataset, considered: np.ndarray, active: tuple[int, ...]):
    """Group ids of the considered rows and, per group, its size and treated count."""
    gid, n_groups = _group_ids(d, considered, active)
    sizes = np.bincount(gid, minlength=n_groups)
    treated = np.bincount(gid[d.treatment[considered] == 1], minlength=n_groups)
    return gid, sizes, treated


@dataclass(frozen=True)
class Group:
    signature: tuple[int, ...]
    rows: tuple[int, ...]
    n_treated: int
    n_control: int


@dataclass(frozen=True)
class GroupTable:
    """Valid matched groups, sorted lexicographically by signature."""

    active: tuple[int, ...]
    groups: tuple[Group, ...]

    def __len__(self):
        return len(self.groups)

    def signature_map(self) -> dict[tuple[int, ...], Group]:
        return {g.signature: g for g in self.groups}


@dataclass(frozen=True)
class MatchResult:
    matched: np.ndarray
    table: GroupTable
    remainder: np.ndarray


def match_flags(d: Dataset, considered, active, backend: str = "mixed_radix"):
    """Matched-or-not flags over ``considered`` plus per-arm matched counts.

    Lighter than :func:`basic_exact_match`: no group table is built. Used for
    per-candidate trial scoring where only the balancing factor is needed.
    """
    considered = np.asarray(considered)
    active = check_active(active, d.n_covariates)
    if considered.size == 0:
        empty = np.zeros(0, dtype=bool)
        return empty, 0, 0
    if backend == "mixed_radix":
        gid, sizes, treated = _arm_counts(d, considered, active)
        flags = ((treated > 0) & (treated < sizes))[gid]
    elif backend == "tuple_key":
        tallies: dict[tuple, list[int]] = {}
        codes = d.covariates[considered][:, active].tolist()
        t = d.treatment[considered].tolist()
        for sig, ti in zip(codes, t):
            entry = tallies.setdefault(tuple(sig), [0, 0])
            entry[ti] += 1
        flags = np.array([min(tallies[tuple(sig)]) > 0 for sig in codes], dtype=bool)
    else:
        raise ValueError(f"unknown backend {backend!r}")
    t_considered = d.treatment[considered]
    n_t = int(np.sum(flags & (t_considered == 1)))
    n_c = int(np.sum(flags & (t_considered == 0)))
    return flags, n_t, n_c


def basic_exact_match(d: Dataset, considered, active, backend: str = "mixed_radix") -> MatchResult:
    """Group considered units by exact equality on the active covariates.

    Groups lacking a treated or a control member are pruned; matched units
    are members of surviving groups, the remainder is everything else. Both
    backends return the identical :class:`GroupTable`.
    """
    considered = np.asarray(considered)
    active = check_active(active, d.n_covariates)
    if considered.size == 0:
        empty = np.zeros(0, dtype=np.int64)
        return MatchResult(empty, GroupTable(active, ()), empty)

    if backend == "tuple_key":
        members: dict[tuple, list[int]] = {}
        codes = d.covariates[considered][:, active].tolist()
        for pos, sig in zip(considered.tolist(), codes):
            members.setdefault(tuple(sig), []).append(pos)
        groups = []
        for sig in sorted(members):
            rows = members[sig]
            n_t = int(d.treatment[rows].sum())
            if 1 <= n_t <= len(rows) - 1:
                groups.append(Group(sig, tuple(rows), n_t, len(rows) - n_t))
        matched = np.array(sorted(r for g in groups for r in g.rows), dtype=np.int64)
        remainder = considered[~np.isin(considered, matched, assume_unique=True)]
    elif backend == "mixed_radix":
        gid, sizes, treated = _arm_counts(d, considered, active)
        valid = (treated > 0) & (treated < sizes)
        flags = valid[gid]
        # a stable sort of the hit ids lists each group's rows in considered
        # order, and the groups themselves in signature order
        hit = considered[flags]
        members = hit[np.argsort(gid[flags], kind="stable")]
        ids = np.flatnonzero(valid)
        sizes, treated = sizes[ids], treated[ids]
        starts = np.cumsum(sizes) - sizes
        signatures = d.covariates[np.ix_(members[starts], active)].tolist()
        groups = [
            Group(tuple(sig), tuple(rows.tolist()), nt, size - nt)
            for sig, rows, nt, size in zip(signatures, np.split(members, starts[1:]), treated.tolist(), sizes.tolist())
        ]
        matched = np.sort(hit)
        remainder = considered[~flags]
    else:
        raise ValueError(f"unknown backend {backend!r}")

    return MatchResult(matched, GroupTable(active, tuple(groups)), remainder)


def group_table_json(table: GroupTable, d: Dataset) -> list[dict]:
    """JSON-ready view of a group table with dataset unit ids."""
    out = []
    for g in table.groups:
        out.append(
            {
                "signature": list(g.signature),
                "unit_ids": [_json_id(d.unit_ids[r]) for r in g.rows],
                "n_treated": g.n_treated,
                "n_control": g.n_control,
            }
        )
    return out


def _json_id(v):
    return v.item() if isinstance(v, np.generic) else v


_SQL_TEMPLATE = """WITH tempgroups AS
(SELECT {cols}
FROM {table}
WHERE is_matched = 0
GROUP BY {cols}
HAVING SUM(T) >= 1 AND SUM(T) <= COUNT(*)-1
),
UPDATE {table}
SET is_matched = {level}
WHERE EXISTS
  (SELECT {qualified}
   FROM tempgroups S
   WHERE {joins})
  AND is_matched = 0
"""


def _check_identifier(name: str) -> str:
    if not name or any(ch.isspace() or ch in "'\"`;" for ch in name):
        raise EmissionError(f"identifier {name!r} cannot be embedded in SQL without quoting")
    return name


def emit_sql(covariates, level: int, table_name: str = "D") -> str:
    """Two-statement grouping query: collect valid groups, then stamp members.

    The HAVING clause keeps exactly the groups with at least one treated and
    at least one control member; matched units get ``is_matched = level``.
    Text emission only; nothing here talks to a database.
    """
    names = [_check_identifier(c) for c in covariates]
    if not names:
        raise ValueError("need at least one covariate name")
    if int(level) != level or level < 1:
        raise ValueError(f"level must be an integer >= 1, got {level}")
    _check_identifier(table_name)
    cols = ", ".join(names)
    qualified = ", ".join(f"{table_name}.{c}" for c in names)
    joins = " AND ".join(f"S.{c} = {table_name}.{c}" for c in names)
    return _SQL_TEMPLATE.format(cols=cols, table=table_name, level=int(level), qualified=qualified, joins=joins)
