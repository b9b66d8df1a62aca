"""run_flame against the independent dict-of-tuples loop in reference_flame.py."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import first_match_levels, group_tuples, random_dataset
from flame_match.dataset import Dataset
from flame_match.engine import FlameConfig, run_flame
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
