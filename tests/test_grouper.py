import sqlite3

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import group_tuples, random_dataset
from flame_match.dataset import Dataset, permute_covariates, sort_covariates_by_arity, split_holdout
from flame_match.errors import DataError
from flame_match.grouper import (
    _drop_one_ids,
    basic_exact_match,
    count_and_flag,
    drop_one_ranks,
    emit_sql,
    match_flags,
    mixed_radix_keys,
)


def test_table1_keys_and_flags(table1):
    keys = mixed_radix_keys(table1, (0, 1))
    assert keys.b.tolist() == [6, 4, 1, 4]
    assert keys.b_plus.tolist() == [18, 11, 3, 12]
    flags, counted = count_and_flag(keys)
    assert counted.c.tolist() == [1, 2, 1, 2]
    assert counted.c_plus.tolist() == [1, 1, 1, 1]
    assert flags.tolist() == [False, True, False, True]


def test_zero_codes_zero_keys():
    d = Dataset(
        covariates=np.zeros((1, 3), dtype=np.int64),
        arities=np.array([2, 2, 2]),
        treatment=np.array([0]),
        outcome=np.array([0.0]),
        covariate_names=("a", "b", "c"),
        unit_ids=np.array([0]),
    )
    keys = mixed_radix_keys(d, (0, 1, 2))
    assert keys.b.tolist() == [0] and keys.b_plus.tolist() == [0]


def test_keys_require_sorted_arities():
    d = Dataset(
        covariates=np.array([[0, 1], [2, 0]]),
        arities=np.array([3, 2]),
        treatment=np.array([0, 1]),
        outcome=np.zeros(2),
        covariate_names=("a", "b"),
        unit_ids=np.arange(2),
    )
    with pytest.raises(ValueError, match="arity"):
        mixed_radix_keys(d, (0, 1))
    mixed_radix_keys(d, (1,))  # single column is trivially sorted


def test_active_set_validation(table1):
    for bad in ((), (1, 0), (0, 0), (0, 5)):
        with pytest.raises(ValueError):
            basic_exact_match(table1, np.arange(4), bad)


def test_all_treated_never_flagged():
    d = Dataset(
        covariates=np.array([[0], [0], [1]]),
        arities=np.array([2]),
        treatment=np.array([1, 1, 1]),
        outcome=np.zeros(3),
        covariate_names=("a",),
        unit_ids=np.arange(3),
    )
    flags, _ = count_and_flag(mixed_radix_keys(d, (0,)))
    assert not flags.any()


def test_minimal_opposite_pair_flagged():
    d = Dataset(
        covariates=np.array([[1, 0], [1, 0]]),
        arities=np.array([2, 2]),
        treatment=np.array([0, 1]),
        outcome=np.zeros(2),
        covariate_names=("a", "b"),
        unit_ids=np.arange(2),
    )
    flags, _ = count_and_flag(mixed_radix_keys(d, (0, 1)))
    assert flags.all()


def test_basic_exact_match_table1(table1):
    res = basic_exact_match(table1, np.arange(4), (0, 1))
    assert group_tuples(res.table) == [((1, 1), (1, 3), 1, 1)]
    assert res.matched.tolist() == [1, 3]


def test_total_collapse_single_group():
    d = Dataset(
        covariates=np.array([[1, 2]] * 5),
        arities=np.array([2, 3]),
        treatment=np.array([0, 1, 1, 0, 1]),
        outcome=np.zeros(5),
        covariate_names=("a", "b"),
        unit_ids=np.arange(5),
    )
    res = basic_exact_match(d, np.arange(5), (0, 1))
    assert len(res.table) == 1
    assert res.table.rows.tolist() == res.matched.tolist() == [0, 1, 2, 3, 4]


def test_empty_considered():
    d = random_dataset(np.random.default_rng(0))
    # 70 binary covariates: the fold renumbers mid-way, which an empty row set must survive
    wide = Dataset(
        covariates=np.zeros((2, 70), dtype=np.int64),
        arities=np.full(70, 2),
        treatment=np.array([0, 1]),
        outcome=np.zeros(2),
        covariate_names=tuple(f"c{i}" for i in range(70)),
        unit_ids=np.arange(2),
    )
    for data, active in ((d, (0,)), (wide, tuple(range(70)))):
        for backend in ("mixed_radix", "tuple_key"):
            res = basic_exact_match(data, np.array([], dtype=np.int64), active, backend)
            assert res.matched.size == 0 and len(res.table) == 0
            assert res.table.signatures.shape == (0, len(active)) and res.table.offsets.tolist() == [0]


def _reference_flags(d, considered, active):
    """Flags of the considered rows that the dict-of-tuples backend puts in a valid group."""
    return np.isin(considered, basic_exact_match(d, considered, active, backend="tuple_key").matched)


def _tables_equal(a, b):
    columns = ("signatures", "offsets", "rows", "n_treated", "n_control")
    return a.active == b.active and all(
        getattr(a, c).dtype == getattr(b, c).dtype == np.int64 and np.array_equal(getattr(a, c), getattr(b, c))
        for c in columns
    )


def test_backend_equivalence_random():
    rng = np.random.default_rng(42)
    for _ in range(50):
        d = random_dataset(rng)
        p = d.n_covariates
        size = int(rng.integers(1, p + 1))
        active = tuple(sorted(rng.choice(p, size=size, replace=False).tolist()))
        considered = np.flatnonzero(rng.random(d.n_units) < 0.8)
        res_a = basic_exact_match(d, considered, active, backend="mixed_radix")
        res_b = basic_exact_match(d, considered, active, backend="tuple_key")
        assert _tables_equal(res_a.table, res_b.table)
        assert np.array_equal(res_a.matched, res_b.matched)
        if len(active) >= 2:
            _check_every_drop(d, considered, active)


def test_big_key_fallback_matches_tuple_backend():
    # 63 binary covariates overflow int64 key space, forcing exact big ints
    rng = np.random.default_rng(7)
    p, n = 63, 40
    covs = rng.integers(0, 2, size=(n, p))
    covs[1] = covs[0]
    d = Dataset(
        covariates=covs,
        arities=np.full(p, 2),
        treatment=rng.integers(0, 2, size=n),
        outcome=np.zeros(n),
        covariate_names=tuple(f"c{i}" for i in range(p)),
        unit_ids=np.arange(n),
    )
    active = tuple(range(p))
    keys = mixed_radix_keys(d, active)
    assert keys.b.dtype == object
    res_a = basic_exact_match(d, np.arange(n), active, backend="mixed_radix")
    res_b = basic_exact_match(d, np.arange(n), active, backend="tuple_key")
    assert _tables_equal(res_a.table, res_b.table)
    _check_every_drop(d, np.arange(n), active)


@pytest.mark.parametrize("p, arity", [(70, 2), (12, 50)])
def test_renumbering_matches_tuple_backend(p, arity):
    # arity**p far exceeds int64, so the fold renumbers its ids to keep them below n
    rng = np.random.default_rng(p)
    base = rng.integers(0, arity, size=(15, p))
    covs = np.vstack([base[rng.integers(0, 15, size=50)], rng.integers(0, arity, size=(10, p))])
    n = len(covs)
    d = Dataset(
        covariates=covs,
        arities=np.full(p, arity),
        treatment=rng.integers(0, 2, size=n),
        outcome=np.zeros(n),
        covariate_names=tuple(f"c{i}" for i in range(p)),
        unit_ids=np.arange(n),
    )
    considered, active = np.arange(n), tuple(range(p))
    res_a = basic_exact_match(d, considered, active, backend="mixed_radix")
    res_b = basic_exact_match(d, considered, active, backend="tuple_key")
    assert len(res_a.table) > 0 and _tables_equal(res_a.table, res_b.table)
    assert np.array_equal(res_a.matched, res_b.matched)
    _check_every_drop(d, considered, active)


def _check_every_drop(d, considered, active):
    """match_flags from one rank build equals tuple_key for every drop."""
    ranks = drop_one_ranks(d, considered, active)
    for j in active:
        cand = tuple(a for a in active if a != j)
        flags = match_flags(d, considered, cand, ranks=ranks)
        assert np.array_equal(flags, _reference_flags(d, considered, cand))
    return ranks


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_drop_one_ranks_match_every_drop(seed):
    rng = np.random.default_rng(seed)
    d = random_dataset(rng, p=int(rng.integers(2, 7)))
    p = d.n_covariates
    active = tuple(sorted(rng.choice(p, size=int(rng.integers(2, p + 1)), replace=False).tolist()))
    considered = np.flatnonzero(rng.random(d.n_units) < rng.uniform(0.3, 1.0))
    if considered.size:
        ranks = _check_every_drop(d, considered, active)
        # ranks are ordered exactly like the signatures they stand for, below a bound of at most max(n, 1)
        sigs = [tuple(r) for r in d.covariates[considered][:, list(active)].tolist()]
        for k in range(len(active) + 1):
            sweeps = ((ranks.prefix, ranks.prefix_bounds, slice(0, k)), (ranks.suffix, ranks.suffix_bounds, slice(k, None)))
            for block, bounds, part in sweeps:
                keys, ids = [s[part] for s in sigs], block[k].tolist()
                assert int(block[k].max()) < bounds[k] <= max(considered.size, 1)
                for u in range(len(keys)):
                    for v in range(len(keys)):
                        assert (ids[u] == ids[v]) == (keys[u] == keys[v]) and (ids[u] < ids[v]) == (keys[u] < keys[v])


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_drop_one_ids_partition_like_the_commit(seed):
    # a drop's ids from the level's ranks group the pool exactly as a fresh commit on the smaller active set
    rng = np.random.default_rng(seed)
    d = random_dataset(rng, p=int(rng.integers(2, 7)), max_arity=int(rng.integers(2, 12)))
    p = d.n_covariates
    active = tuple(sorted(rng.choice(p, size=int(rng.integers(2, p + 1)), replace=False).tolist()))
    considered = np.flatnonzero(rng.random(d.n_units) < rng.uniform(0.3, 1.0))
    ranks = drop_one_ranks(d, considered, active)
    for j in active:
        cand = tuple(a for a in active if a != j)
        gid, bound = _drop_one_ids(ranks, considered.size, cand)
        assert gid.dtype == np.int64 and bound <= max(considered.size, 1) and np.all(gid < bound)
        sigs = d.covariates[considered][:, list(cand)]
        groups = [np.flatnonzero(gid == g) for g in np.unique(gid)]  # in id order
        assert len(groups) == len({tuple(r) for r in sigs.tolist()})
        assert all(len({tuple(r) for r in sigs[g].tolist()}) == 1 for g in groups)
        valid = [considered[g].tolist() for g in groups if 0 < d.treatment[considered[g]].sum() < g.size]
        table = basic_exact_match(d, considered, cand, backend="tuple_key").table
        bounds = table.offsets.tolist()
        assert valid == [table.rows[lo:hi].tolist() for lo, hi in zip(bounds, bounds[1:])]


@pytest.mark.parametrize("arity", [255, 256, 257, 65535, 65536, 65537])
def test_compact_code_block_arity_boundaries(arity):
    # every declared arity exceeds the codes seen, so the store's dtype follows the arities alone
    rng = np.random.default_rng(arity)
    n = 90
    covs = np.stack(
        [
            rng.integers(0, 2, size=n),
            rng.choice([0, 1, arity // 2, arity - 2], size=n),
            rng.integers(0, 3, size=n),
            rng.choice([0, arity - 3], size=n),
        ],
        axis=1,
    )
    fields = dict(
        arities=np.array([2, arity, 4, arity]),
        treatment=rng.integers(0, 2, size=n),
        outcome=np.zeros(n),
        covariate_names=("a", "b", "c", "d"),
        unit_ids=np.arange(n),
    )
    d = Dataset(covariates=covs, **fields)

    def compact(data):
        return data.covariates.dtype == np.min_scalar_type(arity) and data.covariates.flags.f_contiguous

    assert compact(d) and d.covariates.tolist() == covs.tolist()
    # the positional keys' weights reach arity**2 and beyond, far past the narrow dtype: they
    # must promote the codes, not wrap; the reference keys are Python integers from an int64 copy
    by_arity, _ = sort_covariates_by_arity(d)
    for active in ((0, 1, 2, 3), (1, 2), (2, 3)):
        for rows in (None, np.arange(0, n, 3)):
            codes = by_arity.covariates.astype(np.int64)[:, list(active)]
            codes, t = (codes, by_arity.treatment) if rows is None else (codes[rows], by_arity.treatment[rows])
            h = [int(by_arity.arities[a]) for a in active]
            b = [sum(c * h[k] ** k for k, c in enumerate(row)) for row in codes.tolist()]
            b_plus = [ti + sum(c * h[k] ** (k + 1) for k, c in enumerate(row)) for ti, row in zip(t.tolist(), codes.tolist())]
            keys = mixed_radix_keys(by_arity, active, rows)
            assert keys.b.tolist() == b and keys.b_plus.tolist() == b_plus
    assert all(compact(part) for part in (by_arity, d.take(np.arange(0, n, 2)), *split_holdout(d, 0.3, 1)))
    moved = permute_covariates(d, [3, 0, 2, 1])
    assert compact(moved) and moved.covariates.tolist() == covs[:, [3, 0, 2, 1]].tolist()
    # validation sees the incoming values: a code of -1, a code equal to its arity, and one just past
    # the stored dtype's range (which narrowing would wrap to 0) all raise
    for code in (-1, arity, int(np.iinfo(np.min_scalar_type(arity)).max) + 1):
        bad = covs.copy()
        bad[5, 1] = code
        with pytest.raises(DataError, match="out of range"):
            Dataset(covariates=bad, **fields)

    considered = np.flatnonzero(rng.random(n) < 0.9)
    for active in ((0, 1, 2, 3), (1, 3), (1,), (0, 2)):
        res_a = basic_exact_match(d, considered, active, backend="mixed_radix")
        res_b = basic_exact_match(d, considered, active, backend="tuple_key")
        assert _tables_equal(res_a.table, res_b.table)
        if len(active) >= 2:
            _check_every_drop(d, considered, active)
    assert len(basic_exact_match(d, considered, (1, 3)).table) > 0


def test_drop_one_ranks_wide_keys_take_the_sorting_renumber():
    # 12 arity-50 covariates over 400 rows: prefix and suffix ranks each reach
    # ~400 distinct values, so a drop's pair key spans ~160000 > max(8n, 2**16)
    # and is renumbered by np.unique rather than by the tally
    rng = np.random.default_rng(50)
    p, arity, n = 12, 50, 400
    base = rng.integers(0, arity, size=(150, p))
    covs = base[rng.integers(0, 150, size=n)]
    covs[np.arange(n), rng.integers(0, p, size=n)] = rng.integers(0, arity, size=n)
    d = Dataset(
        covariates=covs,
        arities=np.full(p, arity),
        treatment=rng.integers(0, 2, size=n),
        outcome=np.zeros(n),
        covariate_names=tuple(f"c{i}" for i in range(p)),
        unit_ids=np.arange(n),
    )
    ranks = _check_every_drop(d, np.arange(n), tuple(range(p)))
    wide = [j for j in range(p) if ranks.prefix_bounds[j] * ranks.suffix_bounds[j + 1] > max(8 * n, 1 << 16)]
    assert wide
    assert any(match_flags(d, np.arange(n), tuple(a for a in range(p) if a != j), ranks=ranks).any() for j in wide)


def test_drop_one_ranks_empty_considered():
    d = random_dataset(np.random.default_rng(1), p=3)
    empty = np.array([], dtype=np.int64)
    ranks = drop_one_ranks(d, empty, (0, 1, 2))
    assert match_flags(d, empty, (0, 2), ranks=ranks).size == 0


def test_drop_one_ranks_rejects_mismatched_calls():
    d = random_dataset(np.random.default_rng(2), n=30, p=4)
    rows = np.arange(30)
    ranks = drop_one_ranks(d, rows, (0, 1, 2, 3))
    for bad in ((0, 1, 2, 3), (0, 1), (1, 3)):  # nothing or two dropped
        with pytest.raises(ValueError, match="minus one"):
            match_flags(d, rows, bad, ranks=ranks)
    partial = drop_one_ranks(d, rows, (0, 2, 3))
    for bad in ((0, 1), (1, 2)):  # a covariate the ranks never saw
        with pytest.raises(ValueError, match="minus one"):
            match_flags(d, rows, bad, ranks=partial)
    with pytest.raises(ValueError, match="rows"):
        match_flags(d, rows[:20], (0, 1, 2), ranks=ranks)


def test_count_and_flag_brute_force_occurrences():
    rng = np.random.default_rng(0)
    wide = np.repeat(rng.integers(0, 2, size=(5, 63)), 3, axis=0)
    datasets = [sort_covariates_by_arity(random_dataset(rng, n=n, p=3))[0] for n in (1, 7, 1000)]
    datasets.append(
        Dataset(
            covariates=wide,
            arities=np.full(63, 2),
            treatment=rng.integers(0, 2, size=15),
            outcome=np.zeros(15),
            covariate_names=tuple(f"c{i}" for i in range(63)),
            unit_ids=np.arange(15),
        )
    )
    for d in datasets:
        keys = mixed_radix_keys(d, tuple(range(d.n_covariates)))
        for considered in (np.arange(d.n_units), np.flatnonzero(rng.random(d.n_units) < 0.5)):
            flags, counted = count_and_flag(keys, considered)
            inside = np.isin(np.arange(d.n_units), considered)
            for key, counts in ((keys.b, counted.c), (keys.b_plus, counted.c_plus)):
                expected = [sum(key[j] == key[i] for j in considered) if inside[i] else 0 for i in range(d.n_units)]
                assert counts.tolist() == expected
            assert np.array_equal(flags, counted.c != counted.c_plus)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_key_injectivity_matches_tuple_equality(seed):
    rng = np.random.default_rng(seed)
    d, _ = sort_covariates_by_arity(random_dataset(rng, n=int(rng.integers(2, 40))))
    keys = mixed_radix_keys(d, tuple(range(d.n_covariates)))
    tuples = [tuple(d.covariates[u]) for u in range(d.n_units)]
    for u in range(d.n_units):
        for v in range(u + 1, d.n_units):
            assert (keys.b[u] == keys.b[v]) == (tuples[u] == tuples[v])
            assert (keys.b_plus[u] == keys.b_plus[v]) == (
                tuples[u] == tuples[v] and d.treatment[u] == d.treatment[v]
            )


def test_pruning_soundness_and_flag_consistency():
    rng = np.random.default_rng(5)
    for _ in range(20):
        d = random_dataset(rng)
        active = tuple(range(d.n_covariates))
        considered = np.arange(d.n_units)
        res = basic_exact_match(d, considered, active)
        for signature, rows, n_t, n_c in group_tuples(res.table):
            assert 1 <= n_t <= len(rows) - 1 and n_t + n_c == len(rows)
            assert n_t == int(d.treatment[list(rows)].sum())
            sigs = {tuple(d.covariates[r, list(active)]) for r in rows}
            assert sigs == {signature}


def test_emit_sql_contains_required_clauses():
    text = emit_sql(["A1", "A2"], 3, "D")
    assert "HAVING SUM(T) >= 1 AND SUM(T) <= COUNT(*)-1" in text
    assert "WHERE is_matched = 0" in text
    assert "SET is_matched = 3" in text
    assert "GROUP BY A1, A2" in text
    assert text.count("is_matched = 0") == 2


def test_emit_sql_single_covariate():
    text = emit_sql(["A"], 1, "D")
    assert "WHERE S.A = D.A)" in text
    assert "GROUP BY A\n" in text


def test_emit_sql_level_substitution():
    assert "SET is_matched = 5" in emit_sql(["X"], 5, "D")


def test_emit_sql_rejects_bad_identifiers():
    # T and is_matched are the template's treatment and stamp columns
    quoted = ("a b", "a'b", 'a"b', "a;b", "", "a--", "a,b", "a)", "1a", "a.b")
    for bad in (*quoted, "T", "t", "is_matched", "IS_Matched"):
        with pytest.raises(ValueError):
            emit_sql([bad] if bad else [], 1, "D")
    # S and tempgroups are the template's alias and CTE
    for bad in ("my table", "S", "s", "tempgroups", "TempGroups"):
        with pytest.raises(ValueError):
            emit_sql(["A"], 1, bad)
    with pytest.raises(ValueError):
        emit_sql(["A"], 0, "D")


def test_emit_sql_runs_and_stamps_the_matched_rows(table1):
    db = sqlite3.connect(":memory:")
    db.execute("CREATE TABLE D (v1 INTEGER, v2 INTEGER, T INTEGER, is_matched INTEGER)")
    rows = zip(*table1.covariates.T.tolist(), table1.treatment.tolist(), [0] * table1.n_units)
    db.executemany("INSERT INTO D VALUES (?, ?, ?, ?)", rows)
    db.execute(emit_sql(["v1", "v2"], 1, "D"))
    stamped = [r - 1 for (r,) in db.execute("SELECT rowid FROM D WHERE is_matched = 1 ORDER BY rowid")]
    assert stamped == basic_exact_match(table1, np.arange(4), (0, 1)).matched.tolist() == [1, 3]
    assert db.execute("SELECT COUNT(*) FROM D WHERE is_matched NOT IN (0, 1)").fetchone() == (0,)
    db.close()


def test_unknown_backend_rejected(table1):
    with pytest.raises(ValueError, match="unknown backend 'banana'"):
        basic_exact_match(table1, np.arange(4), (0, 1), "banana")
