"""run_flame against the independent dict-of-tuples loop in reference_flame.py."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flame_match.engine as engine
import flame_match.grouper as grouper
from conftest import first_match_levels, group_tuples, imbalanced_dataset, random_dataset
from flame_match import dataset
from flame_match.dataset import Dataset, DatasetSchema, load_csv
from flame_match.engine import FlameConfig, run_flame
from flame_match.quality import screen_drops
from reference_flame import reference_flame


def _holdout_for(matching, rng, n=40):
    """A holdout with the matching set's columns, both arms, and an outcome that depends on the codes."""
    covs = np.stack([rng.integers(0, a, size=n) for a in matching.arities], axis=1)
    treatment = np.arange(n) % 2
    # about half the covariates are irrelevant, so dropping them keeps PE low
    weights = rng.normal(0, 2, size=matching.n_covariates) * (rng.random(matching.n_covariates) < 0.5)
    return Dataset(
        covariates=covs,
        arities=matching.arities,
        treatment=treatment,
        outcome=covs @ weights + treatment + rng.normal(0, 0.5, size=n),
        covariate_names=matching.covariate_names,
        unit_ids=np.arange(n),
    )


def _check_against_reference(matching, holdout, **options):
    ref = reference_flame(matching, holdout, **options)
    for backend in ("mixed_radix", "tuple_key"):
        run = run_flame(matching, holdout, FlameConfig(backend=backend, **options))
        assert list(run.dropped_order) == ref.dropped_order, backend
        assert run.stop_reason.value == ref.stop_reason, backend
        assert first_match_levels(run) == ref.unit_level, backend
        assert [group_tuples(lv.table) for lv in run.levels] == ref.groups, backend
        assert [lv.quality.mq for lv in run.levels] == ref.level_mqs, backend
    return ref


@given(
    seed=st.integers(0, 2**32 - 1),
    replacement=st.booleans(),
    pe_blowup_mode=st.sampled_from(["relative", "absolute"]),
    stop_on_pe_blowup=st.booleans(),
    c_param=st.sampled_from([0.0, 0.001, 0.5, 10.0]),
    epsilon=st.sampled_from([0.0, 0.02, 0.5, 5.0]),
    max_levels=st.one_of(st.none(), st.integers(1, 4)),
    mq_drop_threshold=st.sampled_from([None, -1.0, -0.1]),
)
@settings(max_examples=100, deadline=None)
def test_run_flame_matches_reference_loop(seed, **options):
    rng = np.random.default_rng(seed)
    matching = random_dataset(rng, n=int(rng.integers(2, 80)), p=int(rng.integers(2, 7)), max_arity=3)
    _check_against_reference(matching, _holdout_for(matching, rng), **options)


def _tie_dataset(rng, n, treatment):
    # c1 and c2 are the same column, so dropping either gives bit-identical
    # PE and BF; the outcome rides on c0, so dropping c0 costs far more PE
    c0, c1 = rng.integers(0, 2, size=n), rng.integers(0, 2, size=n)
    treatment = treatment(c0, c1)
    return Dataset(
        covariates=np.stack([c0, c1, c1], axis=1),
        arities=np.full(3, 2),
        treatment=treatment,
        outcome=5.0 * c0 + treatment + rng.normal(0, 0.1, size=n),
        covariate_names=("c0", "c1", "c2"),
        unit_ids=np.arange(n),
    )


def test_mq_tie_drops_the_lowest_covariate_index():
    rng = np.random.default_rng(9)
    # treatment = c0 xor c1 leaves every full signature one-armed, so level 1
    # matches nobody and level 2 scores all three drops
    matching = _tie_dataset(rng, 60, lambda c0, c1: c0 ^ c1)
    holdout = _tie_dataset(rng, 40, lambda c0, c1: np.arange(c0.size) % 2)
    ref = _check_against_reference(matching, holdout, stop_on_pe_blowup=False)
    first = ref.scores[0]
    assert first[1] == first[2] > first[0]
    assert ref.dropped_order[0] == 1


def _count_fits(monkeypatch):
    """Count the engine's trial drops and its exact PE fits, and record the active sets it fits."""
    counts = {"candidates": 0, "fits": 0, "fitted": []}
    flags_of, pe_of = engine.match_flags, engine.prediction_error

    def flags(*args):
        counts["candidates"] += 1
        return flags_of(*args)

    def pe(holdout, active):
        counts["fits"] += 1
        counts["fitted"].append(tuple(active))
        return pe_of(holdout, active)

    monkeypatch.setattr(engine, "match_flags", flags)
    monkeypatch.setattr(engine, "prediction_error", pe)
    return counts


def test_duplicate_columns_fit_every_candidate_exactly(monkeypatch):
    # duplicate holdout columns leave each arm's Gram singular up to the
    # ridge, so the screen's bound outgrows its window
    rng = np.random.default_rng(9)
    matching = _tie_dataset(rng, 60, lambda c0, c1: c0 ^ c1)
    holdout = _tie_dataset(rng, 40, lambda c0, c1: np.arange(c0.size) % 2)
    counts = _count_fits(monkeypatch)
    # one scored level: once c1 is dropped, no duplicate is left
    run = run_flame(matching, holdout, FlameConfig(stop_on_pe_blowup=False, max_levels=1))
    assert run.stop_reason.value == "max_levels"
    assert counts["candidates"] == 3 and counts["fits"] == counts["candidates"] + 1


def test_covariate_constant_within_one_arm_fits_every_candidate_exactly(monkeypatch):
    rng = np.random.default_rng(21)
    matching = random_dataset(rng, n=300, p=5, max_arity=3)
    holdout = _holdout_for(matching, rng, n=200)
    covs = holdout.covariates.copy()
    covs[holdout.treatment == 1, 2] = 1
    flat = Dataset(covs, holdout.arities, holdout.treatment, holdout.outcome, holdout.covariate_names, holdout.unit_ids)
    counts = _count_fits(monkeypatch)
    ref = _check_against_reference(matching, flat, stop_on_pe_blowup=False, max_levels=1)
    assert ref.stop_reason == "max_levels"
    # one scored level on each backend, and the full set's PE on each
    assert counts["candidates"] == 2 * 5 and counts["fits"] == counts["candidates"] + 2


def test_holdout_arm_smaller_than_its_model_runs_without_warnings():
    # 3 treated holdout units against 7 coefficients: the ridge alone keeps
    # the treated Gram invertible, in the screen as in the exact fit
    rng = np.random.default_rng(22)
    matching = random_dataset(rng, n=200, p=6, max_arity=3)
    holdout = _holdout_for(matching, rng, n=40)
    keep = np.concatenate([np.flatnonzero(holdout.treatment == 0), np.flatnonzero(holdout.treatment == 1)[:3]])
    small = holdout.take(keep)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _check_against_reference(matching, small, stop_on_pe_blowup=False)


def _mirrored_holdout(rng, n):
    """Units in pairs that swap c1 and c2, with one pair's outcomes a hair apart: dropping c1 or c2 scores nearly one PE."""
    half = n // 2
    c0, c3 = rng.integers(0, 8, size=half), rng.integers(0, 8, size=half)
    a, b = rng.integers(0, 2, size=half), rng.integers(0, 2, size=half)
    t = np.arange(half) % 2
    y = 2.0 * c0 + 3.0 * c3 + t + rng.normal(0, 0.5, size=half)
    y_mirror = y.copy()
    y_mirror[np.flatnonzero(a != b)[0]] += 1e-9
    both = lambda *cols: np.concatenate(cols)  # noqa: E731
    return Dataset(
        covariates=np.stack([both(c0, c0), both(a, b), both(b, a), both(c3, c3)], axis=1),
        arities=np.array([8, 2, 2, 8]),
        treatment=both(t, t),
        outcome=both(y, y_mirror),
        covariate_names=("c0", "c1", "c2", "c3"),
        unit_ids=np.arange(2 * half),
    )


def test_near_tie_goes_exact_and_keeps_the_reference_winner(monkeypatch):
    rng = np.random.default_rng(23)
    n = 400
    c0, c1, c3 = rng.integers(0, 8, size=n), rng.integers(0, 2, size=n), rng.integers(0, 8, size=n)
    # c1 and c2 are the same matching column, so their drops have one BF;
    # the mirrored holdout puts their PEs closer than the screen can resolve
    matching = Dataset(
        covariates=np.stack([c0, c1, c1, c3], axis=1),
        arities=np.array([8, 2, 2, 8]),
        treatment=rng.integers(0, 2, size=n),
        outcome=rng.normal(size=n),
        covariate_names=("c0", "c1", "c2", "c3"),
        unit_ids=np.arange(n),
    )
    holdout = _mirrored_holdout(rng, 600)
    gap = abs(engine.prediction_error(holdout, (0, 2, 3)) - engine.prediction_error(holdout, (0, 1, 3)))
    assert 0 < gap < screen_drops(holdout, (0, 1, 2, 3)).bound
    counts = _count_fits(monkeypatch)
    ref = _check_against_reference(matching, holdout, stop_on_pe_blowup=False, max_levels=2)
    assert ref.dropped_order[0] in (1, 2)
    # both near-tied drops were fitted exactly, and not every candidate was
    assert {(0, 2, 3), (0, 1, 3)} <= set(counts["fitted"])
    assert counts["fits"] < counts["candidates"] + 2


def test_sorting_renumber_run_matches_reference(monkeypatch):
    # 3000 rows x 24 binary covariates: a mid-depth drop pairs a prefix and a
    # suffix rank of thousands of values each, beyond max(8n, 2**16), so its
    # pair ids are renumbered by sorting, after the rows whose prefix or
    # suffix group is one-armed have been set aside
    rng = np.random.default_rng(24)
    matching = random_dataset(rng, n=3000, p=24, max_arity=2)
    holdout = _holdout_for(matching, rng, n=400)
    paired = []  # per trial drop: (pool rows, pair bound, rows paired)
    trial_rows = []
    flags_of, pair_ids = engine.match_flags, grouper._pair_ids

    def flags(d, considered, j, ranks):
        trial_rows.append(len(considered))
        try:
            return flags_of(d, considered, j, ranks)
        finally:
            trial_rows.pop()

    def pairing(hi, n_hi, lo, n_lo):
        if trial_rows:
            paired.append((trial_rows[-1], n_hi * n_lo, hi.size))
        return pair_ids(hi, n_hi, lo, n_lo)

    monkeypatch.setattr(engine, "match_flags", flags)
    monkeypatch.setattr(grouper, "_pair_ids", pairing)
    ref = _check_against_reference(matching, holdout)
    assert len(ref.dropped_order) >= 4
    sorting = [(rows, kept) for rows, bound, kept in paired if grouper._sorts(bound, rows)]
    assert sorting and any(kept < rows for rows, kept in sorting)


def test_uint16_store_run_matches_reference(tmp_path):
    # an arity-300 column next to three binary ones, loaded through load_csv: its codes 256 and up
    # overflow the np.loadtxt path's uint8 parse, so csv.reader reads the file into a uint16 store
    rng = np.random.default_rng(26)
    n = 3000
    wide, narrow, treatment = rng.integers(0, 300, n), rng.integers(0, 2, (n, 3)), rng.integers(0, 2, n)
    outcome = 0.01 * wide + narrow @ [1.0, 2.0, 0.0] + treatment + rng.normal(0, 0.5, n)
    path = tmp_path / "wide.csv"
    rows = zip(wide.tolist(), *narrow.T.tolist(), treatment.tolist(), outcome.tolist())
    path.write_text("wide,b1,b2,b3,T,Y\n" + "".join(f"{w},{b1},{b2},{b3},{t},{y!r}\n" for w, b1, b2, b3, t, y in rows))
    schema = DatasetSchema("T", "Y")
    with open(path, "rb") as fh:
        assert dataset._load_canonical(fh, str(path), schema, None) is None
    matching = load_csv(str(path), schema)
    assert matching.covariates.dtype == np.uint16 and matching.arities.tolist() == [300, 2, 2, 2]
    ref = _check_against_reference(matching, _holdout_for(matching, rng, n=600), replacement=True, stop_on_pe_blowup=False)
    assert len(ref.dropped_order) >= 2


def test_uint32_ranks_run_matches_reference(monkeypatch):
    # 75k rows on one binary and three 64-ary covariates: level 1 leaves about 70k rows
    # unmatched, more than uint16 numbers, so the next level's trial ranks them as uint32
    rng = np.random.default_rng(25)
    n = 75_000
    arities = np.array([2, 64, 64, 64])
    matching = Dataset(
        covariates=np.stack([rng.integers(0, a, n) for a in arities], axis=1),
        arities=arities,
        treatment=rng.integers(0, 2, n),
        outcome=rng.normal(size=n),
        covariate_names=("c0", "c1", "c2", "c3"),
        unit_ids=np.arange(n),
    )
    built = []
    ranks_of = engine.drop_one_ranks

    def ranks(*args):
        built.append(ranks_of(*args))
        return built[-1]

    monkeypatch.setattr(engine, "drop_one_ranks", ranks)
    ref = _check_against_reference(matching, _holdout_for(matching, rng, n=400), stop_on_pe_blowup=False, max_levels=3)
    assert ref.dropped_order
    assert built[0].prefix.shape[1] > 65_535 and built[0].prefix.dtype == np.uint32


@pytest.mark.parametrize("replacement", [False, True])
@pytest.mark.parametrize("extras_first", [False, True])
def test_one_armed_pruning_run_matches_reference(monkeypatch, replacement, extras_first):
    # the skewed extras turn most rank-sweep and commit-fold groups one-armed: every level's
    # trial and commit go on over fewer rows than they started with
    rng = np.random.default_rng(40 + 2 * replacement + extras_first)
    n = 2000
    matching = imbalanced_dataset(rng, n, balanced=8, extra=8, extras_first=extras_first)
    holdout = imbalanced_dataset(rng, 600, balanced=8, extra=8, extras_first=extras_first)
    sizes = []
    pair_ids = grouper._pair_ids
    monkeypatch.setattr(grouper, "_pair_ids", lambda hi, *rest: sizes.append(hi.size) or pair_ids(hi, *rest))
    ranks_of = engine.drop_one_ranks
    pools = []
    monkeypatch.setattr(engine, "drop_one_ranks", lambda d, pool, active: pools.append(len(pool)) or ranks_of(d, pool, active))
    ref = _check_against_reference(matching, holdout, replacement=replacement, stop_on_pe_blowup=False, max_levels=4)
    assert len(ref.dropped_order) >= 2
    assert pools and min(sizes) < min(pools) / 2
