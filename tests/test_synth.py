import json
from pathlib import Path

import numpy as np
import pytest

from flame_match.synth import SynthSpec, SynthResult, deterministic_outcome, generate, write_outputs


def test_spec_validation():
    with pytest.raises(ValueError):
        SynthSpec(model="nope", n_control=1, n_treated=1)
    with pytest.raises(ValueError):
        SynthSpec(model="quadratic", n_control=0, n_treated=1)


def test_determinism_per_seed():
    a = generate(SynthSpec(model="quadratic", n_control=50, n_treated=50, seed=5))
    b = generate(SynthSpec(model="quadratic", n_control=50, n_treated=50, seed=5))
    assert np.array_equal(a.dataset.covariates, b.dataset.covariates)
    assert np.array_equal(a.dataset.outcome, b.dataset.outcome)
    assert np.array_equal(a.true_cates, b.true_cates)
    c = generate(SynthSpec(model="quadratic", n_control=50, n_treated=50, seed=6))
    assert not np.array_equal(a.dataset.outcome, c.dataset.outcome)


def _recompute_quadratic(result: SynthResult):
    d = result.dataset
    alpha = np.array(result.params["alpha"])
    beta = np.array(result.params["beta"])
    u = result.params["u_coeff"]
    x = d.covariates[:, :10]
    first5 = x[:, :5].astype(float)
    s = first5.sum(axis=1)
    pairs = (s * s - (first5 * first5).sum(axis=1)) / 2.0
    cate = x @ beta + u * pairs
    return x @ alpha + d.treatment * cate, cate


@pytest.mark.parametrize("model", ["quadratic", "irrelevant"])
def test_quadratic_family_reevaluation_identity(model):
    result = generate(SynthSpec(model=model, n_control=200, n_treated=200, seed=1))
    det, cate = _recompute_quadratic(result)
    assert np.allclose(deterministic_outcome(result), det, atol=1e-10)
    assert np.allclose(result.true_cates, cate, atol=1e-10)


@pytest.mark.parametrize("model", ["decay_exp", "decay_pow", "tradeoff"])
def test_flat_effect_models(model):
    result = generate(SynthSpec(model=model, n_control=100, n_treated=100, seed=2))
    assert np.all(result.true_cates == 10.0)
    d = result.dataset
    alpha = np.array(result.params["alpha"])
    det = d.covariates @ alpha + 10.0 * d.treatment
    assert np.allclose(deterministic_outcome(result), det, atol=1e-10)
    if model == "decay_exp":
        assert alpha[0] == pytest.approx(2.5)
        assert alpha[1] == pytest.approx(1.25)
    if model in ("decay_pow", "tradeoff"):
        assert alpha[0] == pytest.approx(5.0 if model == "decay_pow" else 1.0)


def test_null_effect_when_interaction_off():
    result = generate(SynthSpec(model="quadratic", n_control=100, n_treated=100, seed=3, u_coeff=0.0))
    beta = np.array(result.params["beta"])
    assert np.allclose(result.true_cates, result.dataset.covariates[:, :10] @ beta)


def test_true_cate_equals_arm_difference_without_noise():
    result = generate(SynthSpec(model="quadratic", n_control=150, n_treated=150, seed=4))
    det = deterministic_outcome(result)
    d = result.dataset
    # flipping a treated unit to control removes exactly the reported effect
    treated = d.treatment == 1
    alpha = np.array(result.params["alpha"])
    baseline = d.covariates[:, :10] @ alpha
    assert np.allclose(det[treated] - baseline[treated], result.true_cates[treated])
    assert np.allclose(det[~treated], baseline[~treated])


def test_irrelevant_covariate_arm_means():
    result = generate(SynthSpec(model="irrelevant", n_control=5000, n_treated=5000, seed=7))
    d = result.dataset
    assert d.n_covariates == 30
    treated = d.treatment == 1
    extra = d.covariates[:, 10:]
    assert np.all(np.abs(extra[treated].mean(axis=0) - 0.9) <= 0.02)
    assert np.all(np.abs(extra[~treated].mean(axis=0) - 0.1) <= 0.02)


def test_tradeoff_balance_gradient():
    result = generate(SynthSpec(model="tradeoff", n_control=4000, n_treated=4000, seed=8))
    d = result.dataset
    treated = d.treatment == 1
    idx = np.arange(1, 21)
    expect_t = 0.9 - 3.0 * (idx - 1) / 190.0
    expect_c = 0.1 + 3.0 * (idx - 1) / 190.0
    assert np.all(np.abs(d.covariates[treated].mean(axis=0) - expect_t) <= 0.03)
    assert np.all(np.abs(d.covariates[~treated].mean(axis=0) - expect_c) <= 0.03)


def test_write_outputs_round_trip(tmp_path):
    result = generate(SynthSpec(model="decay_exp", n_control=20, n_treated=20, seed=9))
    csv_path, sidecar = write_outputs(result, str(tmp_path / "toy"))
    from flame_match.dataset import DatasetSchema, load_csv

    loaded = load_csv(csv_path, DatasetSchema("T", "Y"))
    assert loaded.n_units == 40
    assert np.array_equal(loaded.treatment, result.dataset.treatment)
    assert np.allclose(loaded.outcome, result.dataset.outcome)
    meta = json.loads(Path(sidecar).read_text())
    assert meta["model"] == "decay_exp"
    assert meta["noise_std"] == 0.1
    assert len(meta["true_cates"]) == 40
