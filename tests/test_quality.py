import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flame_match.dataset import Dataset
from flame_match.errors import DegenerateHoldoutError
from flame_match.quality import (
    SCREEN_WINDOW,
    _fit,
    balancing_factor,
    match_quality,
    pooled_prediction_error,
    prediction_error,
    screen_drops,
)
from flame_match.synth import SynthSpec, generate


def _dataset(covs, treatment, outcome):
    covs = np.asarray(covs)
    return Dataset(
        covariates=covs,
        arities=covs.max(axis=0) + 1,
        treatment=np.asarray(treatment),
        outcome=np.asarray(outcome, dtype=float),
        covariate_names=tuple(f"c{i}" for i in range(covs.shape[1])),
        unit_ids=np.arange(len(treatment)),
    )


def _linear_holdout(n=400, seed=0):
    rng = np.random.default_rng(seed)
    covs = rng.integers(0, 2, size=(n, 2))
    t = np.tile([0, 1], n // 2)
    y = 2.0 * covs[:, 0] + 3.0 * covs[:, 1] + 10.0 * t
    return _dataset(covs, t, y)


def _arm_fits(d, active):
    """:func:`_fit` of each arm's float block on ``active``: (control, treated) coefficients, intercept first."""
    block = d.covariates[:, list(active)].astype(np.float64)
    return tuple(_fit(block[d.treatment == t], d.outcome[d.treatment == t]) for t in (0, 1))


def test_fit_recovers_noise_free_linear_model():
    d = _linear_holdout()
    control, treated = _arm_fits(d, (0, 1))
    assert np.allclose(control, [0.0, 2.0, 3.0], atol=1e-4)
    assert np.allclose(treated, [10.0, 2.0, 3.0], atol=1e-4)


def test_fit_constant_outcome():
    rng = np.random.default_rng(1)
    covs = rng.integers(0, 2, size=(100, 3))
    d = _dataset(covs, rng.integers(0, 2, size=100), np.full(100, 5.0))
    control, treated = _arm_fits(d, (0, 1, 2))
    assert np.allclose(control, [5, 0, 0, 0], atol=1e-3)
    assert np.allclose(treated, [5, 0, 0, 0], atol=1e-3)


def test_fit_recovers_symmetric_design_weights():
    # codes 0/1 carry +/-1 values: code weight is twice the +/-1 weight
    rng = np.random.default_rng(2)
    n, w, w_t, sigma = 10_000, np.array([1.0, 2.0]), 5.0, 0.5
    codes = rng.integers(0, 2, size=(n, 2))
    t = rng.integers(0, 2, size=n)
    y = (2 * codes - 1) @ w + w_t * t + rng.normal(0, sigma, size=n)
    d = _dataset(codes, t, y)
    control, treated = _arm_fits(d, (0, 1))
    n_arm = min((t == 0).sum(), (t == 1).sum())
    tol = 3 * sigma / np.sqrt(n_arm)
    assert np.all(np.abs(control[1:] / 2 - w) <= tol)
    assert np.all(np.abs(treated[1:] / 2 - w) <= tol)


def test_degenerate_holdout_raises():
    covs = np.array([[0], [1]])
    d = _dataset(covs, [1, 1], [0.0, 1.0])
    with pytest.raises(DegenerateHoldoutError):
        prediction_error(d, (0,))


def test_underdetermined_arm_is_allowed():
    # one treated unit, three coefficients: the ridge keeps it solvable
    covs = np.array([[0, 1], [1, 0], [1, 1], [0, 0]])
    d = _dataset(covs, [0, 0, 0, 1], [1.0, 2.0, 3.0, 4.0])
    assert np.isfinite(prediction_error(d, (0, 1)))


def test_perfect_fit_pe_tiny():
    d = _linear_holdout()
    assert prediction_error(d, (0, 1)) <= 1e-8


def test_pe_drop_increase_matches_squared_weight():
    # symmetric +/-1 covariates, w=(1,2), no noise: dropping covariate 2
    # raises the squared-error risk by w2^2 = 4
    rng = np.random.default_rng(3)
    n = 10_000
    codes = rng.integers(0, 2, size=(n, 2))
    t = np.tile([0, 1], n // 2)
    y = (2 * codes - 1) @ np.array([1.0, 2.0]) + 7.0 * t
    d = _dataset(codes, t, y)
    increase = pooled_prediction_error(d, (0,)) - pooled_prediction_error(d, (0, 1))
    assert increase == pytest.approx(4.0, rel=0.05)
    # the per-arm-normalized form counts both arms, i.e. twice the risk
    sum_increase = prediction_error(d, (0,)) - prediction_error(d, (0, 1))
    assert sum_increase == pytest.approx(8.0, rel=0.05)


def test_dropping_irrelevant_covariate_changes_pe_little():
    rng = np.random.default_rng(4)
    n = 10_000
    codes = rng.integers(0, 2, size=(n, 3))
    t = rng.integers(0, 2, size=n)
    y = (2 * codes[:, :2] - 1) @ np.array([1.0, 2.0]) + t + rng.normal(0, 0.5, size=n)
    d = _dataset(codes, t, y)
    full = prediction_error(d, (0, 1, 2))
    reduced = prediction_error(d, (0, 1))
    assert abs(reduced - full) <= 0.02 * full


def test_pe_invariant_to_order_and_duplication():
    rng = np.random.default_rng(5)
    d = _linear_holdout(seed=9)
    noisy = Dataset(
        covariates=d.covariates,
        arities=d.arities,
        treatment=d.treatment,
        outcome=d.outcome + rng.normal(0, 1, d.n_units),
        covariate_names=d.covariate_names,
        unit_ids=d.unit_ids,
    )
    base = prediction_error(noisy, (0, 1))
    perm = rng.permutation(noisy.n_units)
    shuffled = Dataset(
        covariates=noisy.covariates[perm],
        arities=noisy.arities,
        treatment=noisy.treatment[perm],
        outcome=noisy.outcome[perm],
        covariate_names=noisy.covariate_names,
        unit_ids=np.arange(noisy.n_units),
    )
    assert prediction_error(shuffled, (0, 1)) == pytest.approx(base, rel=1e-9)
    doubled = Dataset(
        covariates=np.vstack([noisy.covariates] * 2),
        arities=noisy.arities,
        treatment=np.concatenate([noisy.treatment] * 2),
        outcome=np.concatenate([noisy.outcome] * 2),
        covariate_names=noisy.covariate_names,
        unit_ids=np.arange(2 * noisy.n_units),
    )
    assert prediction_error(doubled, (0, 1)) == pytest.approx(base, rel=1e-9)


@pytest.mark.parametrize("model", ["irrelevant", "decay_exp"])
def test_screened_pe_equals_exact_pe_within_its_bound(model):
    holdout = generate(SynthSpec(model, 1500, 1500, seed=3)).dataset
    rng = np.random.default_rng(4)
    p = holdout.n_covariates
    for _ in range(6):
        active = sorted(rng.choice(p, size=int(rng.integers(2, p + 1)), replace=False).tolist())
        screen = screen_drops(holdout, active)
        assert 0 < screen.bound < np.inf and screen.scale > 0
        exact = np.array([prediction_error(holdout, active[:k] + active[k + 1 :]) for k in range(len(active))])
        err = np.abs(screen.pe - exact)
        assert np.all(err <= screen.bound)
        assert np.all(err <= 1e-10 * exact)


def test_screen_contenders_hold_the_window_or_everyone():
    holdout = generate(SynthSpec("decay_exp", 500, 500, seed=5)).dataset
    screen = screen_drops(holdout, range(holdout.n_covariates))
    mq = -screen.pe
    window = SCREEN_WINDOW * screen.scale
    assert 8 * screen.bound <= window
    picked = screen.contenders(mq)
    assert picked.tolist() == np.flatnonzero(mq >= mq.max() - window).tolist()
    assert np.argmax(mq) in picked
    # a covariate that is constant within one arm leaves that arm's Gram
    # singular up to the ridge: the bound outgrows the window
    covs = holdout.covariates.copy()
    covs[holdout.treatment == 1, 0] = 0
    flat = Dataset(covs, holdout.arities, holdout.treatment, holdout.outcome, holdout.covariate_names, holdout.unit_ids)
    ill = screen_drops(flat, range(holdout.n_covariates))
    assert not 8 * ill.bound <= SCREEN_WINDOW * ill.scale
    assert ill.contenders(-ill.pe).tolist() == list(range(holdout.n_covariates))


@pytest.mark.parametrize(
    "args,expected",
    [((5, 10, 2, 4), 1.0), ((0, 10, 0, 4), 0.0), ((10, 10, 4, 4), 2.0)],
)
def test_balancing_factor_values(args, expected):
    assert balancing_factor(*args) == pytest.approx(expected)


def test_balancing_factor_zero_available_arm():
    assert balancing_factor(0, 0, 3, 4) == pytest.approx(0.75)
    assert balancing_factor(0, 0, 0, 0) == 0.0


def test_balancing_factor_rejects_overcount():
    with pytest.raises(ValueError):
        balancing_factor(11, 10, 0, 4)
    with pytest.raises(ValueError):
        balancing_factor(-1, 10, 0, 4)


@given(
    st.integers(0, 50),
    st.integers(0, 50),
    st.integers(0, 50),
    st.integers(0, 50),
)
@settings(max_examples=100, deadline=None)
def test_balancing_factor_bounds_and_monotonicity(mc, ac_extra, mt, at_extra):
    ac, at = mc + ac_extra, mt + at_extra
    bf = balancing_factor(mc, ac, mt, at)
    assert 0.0 <= bf <= 2.0
    if mc + 1 <= ac:
        assert balancing_factor(mc + 1, ac, mt, at) >= bf
    if mt + 1 <= at:
        assert balancing_factor(mc, ac, mt + 1, at) >= bf


@pytest.mark.parametrize(
    "pe,bf,c,expected",
    [(0.5, 1.2, 1.0, 0.7), (0.0, 0.0, 3.0, 0.0), (2.0, 2.0, 0.001, -1.998)],
)
def test_match_quality_values(pe, bf, c, expected):
    q = match_quality(pe, bf, c)
    assert q.mq == pytest.approx(expected)
    assert q.mq == pytest.approx(q.c_param * q.bf - q.pe)


def test_match_quality_rejects_negative_tradeoff():
    with pytest.raises(ValueError):
        match_quality(1.0, 1.0, -0.5)


@given(
    st.floats(0, 100, allow_nan=False),
    st.floats(0, 2, allow_nan=False),
    st.floats(0, 10, allow_nan=False),
    st.floats(-5, 5, allow_nan=False),
)
@settings(max_examples=100, deadline=None)
def test_match_quality_linearity(pe, bf, c, delta):
    base = match_quality(pe, bf, c).mq
    assert match_quality(pe + delta, bf, c).mq == pytest.approx(base - delta, abs=1e-9)
    if 0 <= bf + delta <= 2:
        assert match_quality(pe, bf + delta, c).mq == pytest.approx(base + c * delta, abs=1e-7)
