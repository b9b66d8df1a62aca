"""Exact-match grouping on an active covariate subset.

Two interchangeable backends of :func:`basic_exact_match` produce the
identical columnar :class:`GroupTable`:

* ``mixed_radix``: each unit's active codes fold, most significant first,
  into one int64 group id ordered like the signatures (:func:`_pair_ids`),
  setting aside the rows whose group has turned one-armed (:func:`_fold`);
  per-group arm counts from ``np.bincount`` then give the group table in one
  pass; and
* ``tuple_key``: plain dict grouping on the full code tuples, kept as the
  slow independent reference.

:func:`match_flags`, which scores trial drops, takes each drop's group ids
from the prefix and suffix ranks of one :func:`drop_one_ranks` build per
level. The same pruned fold builds both sweeps and records, per row, the
depth at which its prefix and its suffix group turned one-armed; a drop
pairs only the rows whose groups both outlive it, or none at all.

:func:`mixed_radix_keys` and :func:`count_and_flag` keep the paper's
positional-key formulation (a unit is matched iff its covariate-key count
differs from its covariate+treatment-key count) as a public reference.

Also emits the equivalent SQL, one CTE-prefixed ``UPDATE`` (a ``GROUP BY``
common table expression of the valid groups), for engines that prefer to run
the grouping against a live table.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset

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


def _sorts(bound: int, n: int) -> bool:
    """Whether :func:`_renumber` sorts ``n`` ids below ``bound`` (a tally would be too wide)."""
    return bound > max(8 * n, 1 << 16)


def _renumber(ids: np.ndarray, bound: int) -> tuple[np.ndarray, int]:
    """Map ids in ``[0, bound)``, ``bound >= 1``, onto ``0..k-1`` (k distinct values), keeping their order."""
    if not _sorts(bound, ids.size):
        # a tally in place, in the narrowest dtype that holds the count: bound-sized int64 temporaries cost page faults
        rank = np.zeros(bound, np.min_scalar_type(ids.size))
        rank[ids] = 1
        np.cumsum(rank, dtype=rank.dtype, out=rank)
        return np.subtract(rank[ids], 1, dtype=np.int64), int(rank[-1])
    uniq, inverse = np.unique(ids, return_inverse=True)
    return inverse.astype(np.int64, copy=False), uniq.size


def _pair_ids(hi: np.ndarray, n_hi: int, lo: np.ndarray, n_lo: int) -> tuple[np.ndarray, int]:
    """Int64 ids of the pairs ``(hi, lo)`` in lexicographic order, plus an exclusive bound on them.

    ``hi < n_hi`` and ``lo < n_lo``. The ids are ``hi * n_lo + lo``, renumbered
    (keeping their order) only when ``n_hi * n_lo`` exceeds the row count, so
    every id stays below ``max(n, 1)``. They need not be dense.
    """
    bound = n_hi * n_lo
    ids = np.multiply(hi, n_lo, dtype=np.int64)
    ids += lo
    return _renumber(ids, bound) if bound > hi.size else (ids, bound)


# A pair step whose groups average at most this many rows counts their arms.
_SMALL_GROUPS = 16
# A fold goes on over its live rows alone once they are at most 1/_FEW of the
# rows it folds, and :func:`match_flags` pairs a drop's live rows alone when
# they are at most 1/_FEW of all rows. A sweep therefore leaves a row unranked
# only at depths where every drop pairs its live rows alone.
_FEW = 2


def _pool(d: Dataset, considered, active):
    """The pool's int64 rows, the checked ``active``, their ``(m, n)`` code block, the arities and the treated mask."""
    considered = np.asarray(considered, dtype=np.int64)
    active = check_active(active, d.n_covariates)
    cols = list(active)
    return considered, active, np.take(d.covariates.T[cols], considered, axis=1), d.arities[cols], d.treatment[considered]


def _fold(codes, arities, treated, suffix=False, block=None, bounds=None):
    """Fold the ``(m, n)`` block ``codes`` into group ids, one :func:`_pair_ids` step a column, pruning one-armed rows.

    The prefix fold takes the columns first to last, each the least
    significant digit yet, and its ids after column ``k`` number
    ``codes[:k + 1]``; the suffix fold takes them last to first, each the
    most significant, and its ids after column ``k`` number ``codes[k:]``.
    Those ids, and their bound, go to ``block[row]`` and ``bounds[row]``,
    with ``row`` ``k + 1`` or ``k``.

    A step whose groups average at most ``_SMALL_GROUPS`` rows counts their
    arms. Every later group of a row lies inside its group now, so once its
    group holds one arm the row can never again be in a group holding both:
    it is dead from that step on, and its death depth is ``k + 1``. Once at
    most ``1/_FEW`` of the rows folded are live, the fold goes on over the
    live rows alone, and the rows it leaves get no later ids. Returns the
    last ids, their bound, the rows they number (a slice of all of them, or
    an index array once a step has pruned) and each row's death depth
    (``m + 1`` for a prefix fold, 0 for a suffix fold, where none was seen).
    """
    m, n = codes.shape
    rows, t = slice(None), treated
    ids, bound = np.zeros(n, dtype=np.int64), 1
    tested, passed = [], np.zeros(n, dtype=np.min_scalar_type(m + 1))  # per row: the arm tests it passed
    for k in range(m - 1, -1, -1) if suffix else range(m):
        col, h = codes[k][rows], int(arities[k])
        ids, bound = _pair_ids(col, h, ids, bound) if suffix else _pair_ids(ids, bound, col, h)
        if block is not None:
            row = k if suffix else k + 1
            bounds[row] = bound
            block[row][rows] = ids
        if bound * _SMALL_GROUPS < ids.size:
            continue
        armed = _armed(ids, bound, t)
        tested.append(k + 1)
        passed[rows] += armed
        # index arrays, not the mask: masked selection branches on every row
        live = np.flatnonzero(armed)
        if live.size * _FEW <= ids.size:
            rows = live if isinstance(rows, slice) else rows[live]
            ids, t = ids[live], t[live]
    # a row dies at the first arm test it fails
    death = np.take(np.array([*tested, 0 if suffix else m + 1], dtype=passed.dtype), passed)
    return ids, bound, rows, death


@dataclass(frozen=True)
class DropOneRanks:
    """Group ids of the prefix before and the suffix after each covariate of ``active``, over one row set.

    ``prefix[k]`` numbers each row's codes on ``active[:k]`` and ``suffix[k]``
    on ``active[k + 1:]``, both ordered like the codes; ``prefix_bounds[k]``
    and ``suffix_bounds[k]`` bound them, at most ``max(n, 1)``. Dropping
    ``active[k]`` reads row ``k`` of both blocks: it leaves the signature
    ``(prefix[k], suffix[k])``. No drop reads the full signature, so neither
    sweep builds it. Each sweep is one contiguous ``(m, n)`` block in the
    smallest unsigned dtype that holds ``n``: per-column arrays of this size
    fragment the heap between the run's long-lived objects and raise its
    peak RSS. ``treated`` marks the treated rows, for every drop's arm
    counts.

    ``prefix_death[r]`` is a depth from which row ``r``'s prefix group holds
    one arm, on ``active[:prefix_death[r]]`` (``m`` if none was seen), and
    ``suffix_death[r]`` one down to which its suffix group does, on
    ``active[suffix_death[r]:]`` (0 if none was seen), so the row can match
    when ``active[k]`` is dropped only if ``suffix_death[r] <= k <
    prefix_death[r]``. A sweep that has set a row aside, at or past its
    death, leaves its later ranks unwritten (zero).
    """

    active: tuple[int, ...]
    prefix: np.ndarray
    suffix: np.ndarray
    prefix_bounds: tuple[int, ...]
    suffix_bounds: tuple[int, ...]
    treated: np.ndarray
    prefix_death: np.ndarray
    suffix_death: np.ndarray


def drop_one_ranks(d: Dataset, considered, active) -> DropOneRanks:
    """Prefix and suffix ranks of ``active`` over ``considered``, for scoring every single-covariate drop.

    Built by two :func:`_fold` sweeps of the pool's :func:`_pool` code block,
    in O(n) per covariate and sweep unless a step renumbers wide ids; the
    prefix sweep folds all but the last column and the suffix sweep all but
    the first, and a sweep goes on over fewer rows as their groups turn
    one-armed. Pass the result to :func:`match_flags` with the same
    ``considered`` rows and the index of the covariate to drop.
    """
    _, active, codes, arities, treated = _pool(d, considered, active)
    m, n = codes.shape
    prefix = np.zeros((m, n), dtype=np.min_scalar_type(n))
    suffix = np.zeros(prefix.shape, prefix.dtype)
    prefix_bounds, suffix_bounds = [1] * m, [1] * m
    # the suffix fold's column k is active[k + 1]: its ids number active[k + 1:] and go to suffix[k],
    # and a row it finds one-armed there dies at depth k + 1, the suffix's first index in active
    *_, prefix_death = _fold(codes[:-1], arities[:-1], treated, block=prefix, bounds=prefix_bounds)
    *_, suffix_death = _fold(codes[1:], arities[1:], treated, suffix=True, block=suffix, bounds=suffix_bounds)
    return DropOneRanks(
        active, prefix, suffix, tuple(prefix_bounds), tuple(suffix_bounds), treated, prefix_death, suffix_death
    )


def _drop_sides(ranks: DropOneRanks, n_rows: int, j: int):
    """The rows that can match once covariate ``j`` is dropped, with their prefix ranks before ``j`` and suffix ranks after it.

    Returns ``(rows, hi, n_hi, lo, n_lo)``: ``rows`` indexes the ranked rows
    (all of them, as a slice, when more than ``1/_FEW`` are live), and the
    pairs of ``hi < n_hi`` and ``lo < n_lo``, through :func:`_pair_ids`,
    group those rows as ``ranks.active`` without ``j`` does. A paired row
    that cannot match lies in a one-armed prefix or suffix group, so its pair
    group holds no row that can.
    """
    if n_rows != ranks.prefix.shape[1]:
        raise ValueError(f"ranks were built on {ranks.prefix.shape[1]} rows, not {n_rows}")
    if j not in ranks.active:
        raise ValueError(f"covariate {j} is not among the ranked {ranks.active}")
    k = ranks.active.index(j)
    live = (ranks.suffix_death <= k) & (ranks.prefix_death > k)
    rows = slice(None) if np.count_nonzero(live) * _FEW > n_rows else np.flatnonzero(live)
    hi, lo = ranks.prefix[k][rows], ranks.suffix[k][rows]
    return rows, hi, ranks.prefix_bounds[k], lo, ranks.suffix_bounds[k]


def _armed(ids: np.ndarray, bound: int, treated: np.ndarray) -> np.ndarray:
    """Whether each row's group, by ``ids < bound``, holds both arms."""
    # one byte per group and arm, read two at a time: 0x0101 where both are seen
    seen = np.zeros(2 * bound, dtype=np.uint8)
    key = ids * 2
    key += treated
    seen[key] = 1
    return np.take(seen.view(np.uint16) == 0x0101, ids)


def _arm_counts(gid: np.ndarray, n_groups: int, treated_rows: np.ndarray):
    """Per group: its size, its treated count and whether it holds both arms."""
    sizes = np.bincount(gid, minlength=n_groups)
    treated = np.bincount(gid[treated_rows], minlength=n_groups)
    return sizes, treated, (treated > 0) & (treated < sizes)


@dataclass(frozen=True)
class GroupTable:
    """Valid matched groups as columns, sorted lexicographically by signature.

    The ``i``-th group has the codes ``signatures[i]`` on ``active``, in the
    store's dtype, and the member rows ``rows[offsets[i]:offsets[i + 1]]``,
    in considered order, of which ``n_treated[i]`` are treated and
    ``n_control[i]`` control; the other columns are int64.
    """

    active: tuple[int, ...]
    signatures: np.ndarray
    offsets: np.ndarray
    rows: np.ndarray
    n_treated: np.ndarray
    n_control: np.ndarray

    def __len__(self):
        return self.n_treated.size

    @property
    def groups(self) -> range:
        """The group indices; perfbench's trace counts committed groups as ``len(table.groups)``."""
        return range(len(self))

    @property
    def sizes(self) -> np.ndarray:
        return self.n_treated + self.n_control

    def subset(self, keep: np.ndarray) -> "GroupTable":
        """The groups where the boolean mask ``keep`` is set, in their order."""
        offsets = np.concatenate(([0], np.cumsum(self.sizes[keep])))
        rows = self.rows[np.repeat(keep, self.sizes)]
        return GroupTable(self.active, self.signatures[keep], offsets, rows, self.n_treated[keep], self.n_control[keep])


@dataclass(frozen=True)
class MatchResult:
    table: GroupTable

    @property
    def matched(self) -> np.ndarray:
        """The rows of every valid group, in row order."""
        return np.sort(self.table.rows)


def match_flags(d: Dataset, considered, j: int, ranks: DropOneRanks) -> np.ndarray:
    """Matched-or-not flag of each ``considered`` row once covariate ``j`` is dropped from ``ranks.active``.

    Lighter than :func:`basic_exact_match`: no group table is built. Used for
    per-candidate trial scoring where only the balancing factor is needed.
    ``ranks`` comes from :func:`drop_one_ranks` on the same ``considered``
    rows, and the group ids come from its prefix and suffix ranks; ``d``
    itself is not read, since ``ranks`` carries the treated mask.

    Only the rows whose prefix and suffix groups both outlive the drop's
    depth (``ranks.prefix_death`` and ``suffix_death``) can match: with none,
    the flags are all false at once, and with few, only they are paired and
    counted.
    """
    rows, hi, n_hi, lo, n_lo = _drop_sides(ranks, len(considered), j)
    flags = np.zeros(ranks.treated.size, dtype=bool)
    if hi.size:
        flags[rows] = _armed(*_pair_ids(hi, n_hi, lo, n_lo), ranks.treated[rows])
    return flags


def basic_exact_match(d: Dataset, considered, active, backend: str = "mixed_radix") -> MatchResult:
    """Partition the considered units by exact equality on the active covariates.

    Groups lacking a treated or a control member are pruned; matched units
    are members of surviving groups, in row order. Both backends return the
    identical :class:`GroupTable`.
    """
    if backend == "tuple_key":
        considered, active = np.asarray(considered, dtype=np.int64), check_active(active, d.n_covariates)
        buckets: dict[tuple, list[int]] = {}
        codes = d.covariates[considered][:, active].tolist()
        for pos, sig in zip(considered.tolist(), codes):
            buckets.setdefault(tuple(sig), []).append(pos)
        groups = [(sig, rows) for sig, rows in sorted(buckets.items()) if 0 < d.treatment[rows].sum() < len(rows)]
        signatures = np.array([sig for sig, _ in groups], dtype=d.covariates.dtype).reshape(-1, len(active))
        members = np.array([r for _, rows in groups for r in rows], dtype=np.int64)
        sizes = np.array([len(rows) for _, rows in groups], dtype=np.int64)
        treated = np.array([d.treatment[rows].sum() for _, rows in groups], dtype=np.int64)
    elif backend == "mixed_radix":
        considered, active, codes, arities, t = _pool(d, considered, active)
        gid, n_groups, rows, _ = _fold(codes, arities, t)
        considered = considered[rows]  # the rows the fold set aside are in no valid group
        sizes, treated, valid = _arm_counts(gid, n_groups, t[rows])
        flags = valid[gid]
        # a stable sort of the hit ids lists each group's rows in considered
        # order, and the groups themselves in signature order
        hit = considered[flags]
        members = hit[np.argsort(gid[flags], kind="stable")]
        ids = np.flatnonzero(valid)
        sizes, treated = sizes[ids], treated[ids]
        signatures = d.covariates[np.ix_(members[np.cumsum(sizes) - sizes], active)]
    else:
        raise ValueError(f"unknown backend {backend!r}")

    offsets = np.concatenate(([0], np.cumsum(sizes)))
    table = GroupTable(active, signatures, offsets, members, treated, sizes - treated)
    return MatchResult(table)


_SQL_TEMPLATE = """WITH tempgroups AS
(SELECT {cols}
FROM {table}
WHERE is_matched = 0
GROUP BY {cols}
HAVING SUM(T) >= 1 AND SUM(T) <= COUNT(*)-1
)
UPDATE {table}
SET is_matched = {level}
WHERE EXISTS
  (SELECT {qualified}
   FROM tempgroups S
   WHERE {joins})
  AND is_matched = 0
"""


def _check_identifier(name: str, reserved: tuple[str, ...]) -> str:
    """Accept only plain SQL identifiers (``[A-Za-z_][A-Za-z0-9_]*``) outside ``reserved``, in any case."""
    if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
        raise ValueError(f"identifier {name!r} cannot be embedded in SQL without quoting")
    if name.lower() in reserved:
        raise ValueError(f"identifier {name!r} clashes with the SQL template's own {name.lower()!r}")
    return name


def emit_sql(covariates, level: int, table_name: str = "D") -> str:
    """One CTE-prefixed ``UPDATE``: collect the valid groups, then stamp their members.

    The HAVING clause keeps exactly the groups with at least one treated and
    at least one control member; matched units get ``is_matched = level``.
    Covariates may not repeat (in any case) nor be named ``T`` or
    ``is_matched``, the table's treatment and stamp columns, and the table
    may not be named ``S`` or ``tempgroups``, the template's own alias and
    CTE. Text emission only; nothing here talks to a database.
    """
    names = [_check_identifier(c, ("t", "is_matched")) for c in covariates]
    if not names:
        raise ValueError("need at least one covariate name")
    folded = [c.lower() for c in names]
    for k, c in enumerate(names):
        # SQLite resolves unquoted identifiers without regard to case
        if folded[k] in folded[:k]:
            raise ValueError(f"covariate {c!r} is listed more than once (identifiers ignore case)")
    if int(level) != level or level < 1:
        raise ValueError(f"level must be an integer >= 1, got {level}")
    _check_identifier(table_name, ("s", "tempgroups"))
    cols = ", ".join(names)
    qualified = ", ".join(f"{table_name}.{c}" for c in names)
    joins = " AND ".join(f"S.{c} = {table_name}.{c}" for c in names)
    return _SQL_TEMPLATE.format(cols=cols, table=table_name, level=int(level), qualified=qualified, joins=joins)
