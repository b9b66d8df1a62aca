"""Seeded generators for the synthetic benchmark families.

Every generator returns the dataset together with the per-unit ground-truth
effect and the realized coefficient draws, so tests can score estimates
against known truth. All randomness flows through one seeded generator.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset

MODELS = ("quadratic", "irrelevant", "decay_exp", "decay_pow", "tradeoff")
NOISE_STD = 0.1


@dataclass(frozen=True)
class SynthSpec:
    model: str
    n_control: int
    n_treated: int
    u_coeff: float | None = None  # quadratic-interaction strength; model default when None
    seed: int = 0

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}; expected one of {MODELS}")
        if self.n_control < 1 or self.n_treated < 1:
            raise ValueError("n_control and n_treated must be >= 1")
        if self.u_coeff is not None and not math.isfinite(self.u_coeff):
            raise ValueError(f"u_coeff must be finite, got {self.u_coeff}")


@dataclass(frozen=True)
class SynthResult:
    dataset: Dataset
    true_cates: np.ndarray
    params: dict
    noise: np.ndarray


def _pair_interactions(x):
    # sum of x_i * x_g over all pairs 1 <= i < g <= 5
    first5 = x[:, :5]
    s = first5.sum(axis=1)
    return (s * s - (first5 * first5).sum(axis=1)) / 2.0


def generate(spec: SynthSpec) -> SynthResult:
    """Draw one dataset from the requested model family."""
    rng = np.random.default_rng(spec.seed)
    n_c, n_t = spec.n_control, spec.n_treated
    n = n_c + n_t
    treatment = np.arange(n) >= n_c  # controls first, then the treated
    eps = rng.normal(0.0, NOISE_STD, size=n)
    params: dict = {
        "model": spec.model,
        "seed": spec.seed,
        "n_control": n_c,
        "n_treated": n_t,
        "noise_std": NOISE_STD,
    }

    if spec.model in ("quadratic", "irrelevant"):
        u = spec.u_coeff if spec.u_coeff is not None else (10.0 if spec.model == "quadratic" else 1.0)
        s = rng.choice([-1.0, 1.0], size=10)
        alpha = rng.normal(10.0 * s, 1.0)
        beta = rng.normal(1.5, 0.15, size=10)
        x = (rng.random((n, 10)) < 0.5).astype(np.int64)
        if spec.model == "irrelevant":
            # extra covariates carry no signal but are imbalanced across arms
            p_extra = np.where(treatment[:, None], 0.9, 0.1)
            extra = (rng.random((n, 20)) < p_extra).astype(np.int64)
            covs = np.hstack([x, extra])
        else:
            covs = x
        cate = x @ beta + u * _pair_interactions(x)
        y = x @ alpha + treatment * cate + eps
        params.update(u_coeff=u, s=s.tolist(), alpha=alpha.tolist(), beta=beta.tolist())
    elif spec.model in ("decay_exp", "decay_pow"):
        idx = np.arange(1, 21)
        alpha = 5.0 * 0.5**idx if spec.model == "decay_exp" else 5.0 / idx
        covs = (rng.random((n, 20)) < 0.5).astype(np.int64)
        cate = np.full(n, 10.0)
        y = covs @ alpha + 10.0 * treatment + eps
        params.update(alpha=alpha.tolist(), treatment_effect=10.0)
    else:  # tradeoff: more predictive covariates are less balanced across arms
        idx = np.arange(1, 21)
        alpha = 1.0 / idx
        p_control = 0.1 + 3.0 * (idx - 1) / 190.0
        p_treated = 0.9 - 3.0 * (idx - 1) / 190.0
        probs = np.where(treatment[:, None], p_treated[None, :], p_control[None, :])
        covs = (rng.random((n, 20)) < probs).astype(np.int64)
        cate = np.full(n, 10.0)
        y = covs @ alpha + 10.0 * treatment + eps
        params.update(alpha=alpha.tolist(), treatment_effect=10.0)

    p = covs.shape[1]
    dataset = Dataset(
        covariates=covs,
        arities=np.full(p, 2, dtype=np.int64),
        treatment=treatment,
        outcome=y,
        covariate_names=tuple(f"x{i}" for i in range(1, p + 1)),
        unit_ids=np.arange(n, dtype=np.int64),
    )
    return SynthResult(dataset=dataset, true_cates=np.asarray(cate, dtype=np.float64), params=params, noise=eps)


def deterministic_outcome(result: SynthResult) -> np.ndarray:
    """Model outcome with the noise stripped (re-evaluation identity)."""
    return result.dataset.outcome - result.noise


def write_outputs(result: SynthResult, prefix: str) -> tuple[str, str]:
    """Write the CSV table and the coefficient/true-effect sidecar."""
    d = result.dataset
    csv_path = f"{prefix}.csv"
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(",".join([*d.covariate_names, "T", "Y"]) + "\n")
        for i in range(d.n_units):
            cells = [str(int(v)) for v in d.covariates[i]]
            cells.append(str(int(d.treatment[i])))
            cells.append(repr(float(d.outcome[i])))
            fh.write(",".join(cells) + "\n")
    sidecar_path = f"{prefix}.coeffs.json"
    payload = dict(result.params)
    payload["true_cates"] = [float(v) for v in result.true_cates]
    with open(sidecar_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return csv_path, sidecar_path
