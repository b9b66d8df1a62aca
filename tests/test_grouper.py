import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_dataset
from flame_match.dataset import Dataset, sort_covariates_by_arity
from flame_match.errors import EmissionError
from flame_match.grouper import (
    _group_ids,
    basic_exact_match,
    count_and_flag,
    emit_sql,
    group_table_json,
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
    assert len(res.table) == 1
    group = res.table.groups[0]
    assert group.signature == (1, 1)
    assert group.rows == (1, 3)
    assert (group.n_treated, group.n_control) == (1, 1)
    assert res.matched.tolist() == [1, 3]
    assert res.remainder.tolist() == [0, 2]


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
    assert res.table.groups[0].rows == (0, 1, 2, 3, 4)
    assert res.remainder.size == 0


def test_empty_considered():
    d = random_dataset(np.random.default_rng(0))
    res = basic_exact_match(d, np.array([], dtype=np.int64), (0,))
    assert res.matched.size == 0 and len(res.table) == 0 and res.remainder.size == 0


def _tables_equal(a, b):
    if len(a) != len(b):
        return False
    return all(
        ga.signature == gb.signature and ga.rows == gb.rows and ga.n_treated == gb.n_treated and ga.n_control == gb.n_control
        for ga, gb in zip(a.groups, b.groups)
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
        assert np.array_equal(res_a.remainder, res_b.remainder)
        flags_a, *counts_a = match_flags(d, considered, active, backend="mixed_radix")
        flags_b, *counts_b = match_flags(d, considered, active, backend="tuple_key")
        assert np.array_equal(flags_a, flags_b) and counts_a == counts_b


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


@pytest.mark.parametrize("p, arity", [(70, 2), (12, 50)])
def test_renumbering_matches_tuple_backend(p, arity):
    # arity**p exceeds int64, so group ids are renumbered while folding
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
    gid, n_groups = _group_ids(d, considered, active)
    sigs = [tuple(r) for r in covs.tolist()]
    assert gid.dtype == np.int64 and n_groups == len(set(sigs)) == gid.max() + 1
    for u in range(n):
        for v in range(n):
            assert (gid[u] < gid[v]) == (sigs[u] < sigs[v])
    res_a = basic_exact_match(d, considered, active, backend="mixed_radix")
    res_b = basic_exact_match(d, considered, active, backend="tuple_key")
    assert len(res_a.table) > 0 and _tables_equal(res_a.table, res_b.table)
    assert np.array_equal(res_a.matched, res_b.matched)
    assert np.array_equal(res_a.remainder, res_b.remainder)
    flags_a, *counts_a = match_flags(d, considered, active, backend="mixed_radix")
    flags_b, *counts_b = match_flags(d, considered, active, backend="tuple_key")
    assert np.array_equal(flags_a, flags_b) and counts_a == counts_b


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
        for g in res.table.groups:
            assert 1 <= g.n_treated <= len(g.rows) - 1
            sigs = {tuple(d.covariates[r, list(active)]) for r in g.rows}
            assert sigs == {g.signature}
        flags, n_t, n_c = match_flags(d, considered, active)
        members = set(res.matched.tolist())
        assert members == set(considered[flags].tolist())
        assert n_t == int(d.treatment[res.matched].sum())


def test_group_table_json(table1):
    res = basic_exact_match(table1, np.arange(4), (0, 1))
    payload = group_table_json(res.table, table1)
    assert payload == [{"signature": [1, 1], "unit_ids": [1, 3], "n_treated": 1, "n_control": 1}]


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
    for bad in ("a b", "a'b", 'a"b', "a;b", ""):
        with pytest.raises((EmissionError, ValueError)):
            emit_sql([bad] if bad else [], 1, "D")
    with pytest.raises(EmissionError):
        emit_sql(["A"], 1, "my table")
    with pytest.raises(ValueError):
        emit_sql(["A"], 0, "D")
