"""Match-quality scoring: hold-out prediction error, balancing factor, MQ.

The prediction error fits one outcome model per treatment arm on the holdout,
restricted to the active covariates, and sums the two arms' mean squared
residuals. The model is fixed: linear least squares on the raw codes with an
intercept and a tiny ridge term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import DegenerateHoldoutError
from .grouper import check_active

DEFAULT_RIDGE = 1e-6


def _fit(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least squares of ``y`` on the float block ``X`` with intercept; ridge on non-intercept weights only.

    The ridge keeps the normal equations solvable after covariate drops leave
    an arm with fewer units than coefficients.
    """
    n, m = X.shape
    Z = np.column_stack([np.ones(n), X])
    G = Z.T @ Z
    G[1:, 1:] += DEFAULT_RIDGE * np.eye(m)
    return np.linalg.solve(G, Z.T @ y)


@dataclass(frozen=True)
class PredictorPair:
    """Fitted per-arm coefficients: intercept followed by one weight per active covariate."""

    model_control: np.ndarray
    model_treatment: np.ndarray


@dataclass(frozen=True)
class LevelQuality:
    pe: float
    bf: float
    mq: float
    c_param: float


def _arm_fits(holdout: Dataset, active):
    """Per arm, control then treated: its C-ordered float64 codes on ``active``, its outcomes and its :func:`_fit`."""
    # unlike grouping, an empty active set is meaningful here: the model
    # degenerates to a per-arm intercept
    active = check_active(active, holdout.n_covariates) if len(tuple(active)) else ()
    arms = [np.flatnonzero(holdout.treatment == t) for t in (0, 1)]
    if any(rows.size == 0 for rows in arms):
        raise DegenerateHoldoutError("holdout must contain at least one treated and one control unit")
    # the float block is C-ordered whatever the store's layout: that fixes the
    # summation order of the fit and so every bit of the residuals
    codes = holdout.covariates[:, list(active)]
    for rows in arms:
        X, y = np.ascontiguousarray(codes[rows], dtype=np.float64), holdout.outcome[rows]
        yield X, y, _fit(X, y)


def fit_predictor(holdout: Dataset, active) -> PredictorPair:
    """Fit the linear model per arm on the active covariate codes."""
    (_, _, control), (_, _, treated) = _arm_fits(holdout, active)
    return PredictorPair(model_control=control, model_treatment=treated)


def _arm_residuals(holdout: Dataset, active) -> tuple[np.ndarray, np.ndarray]:
    """Residuals of each arm's own fitted model on its holdout units: (control, treated)."""
    return tuple(y - (coeffs[0] + X @ coeffs[1:]) for X, y, coeffs in _arm_fits(holdout, active))


def arm_prediction_errors(holdout: Dataset, active):
    """Mean squared residual of each arm's own model: (control, treated)."""
    return tuple(float(np.mean(resid**2)) for resid in _arm_residuals(holdout, active))


def prediction_error(holdout: Dataset, active) -> float:
    """Sum of the two arms' mean squared residuals on the holdout."""
    pe_control, pe_treated = arm_prediction_errors(holdout, active)
    return pe_control + pe_treated


def pooled_prediction_error(holdout: Dataset, active) -> float:
    """Single mean squared residual over all holdout units, per-arm models.

    This is the squared-error risk of the best per-arm fit, the quantity that
    is additive in the squared weights of dropped covariates for a linear
    outcome model (each dropped covariate j adds w_j^2 on symmetric +/-1
    covariates). The per-arm-normalized :func:`prediction_error` equals twice
    this value on a balanced holdout.
    """
    total = 0.0
    for resid in _arm_residuals(holdout, active):
        total += float(np.sum(resid**2))
    return total / holdout.n_units


def balancing_factor(matched_control: int, available_control: int, matched_treated: int, available_treated: int) -> float:
    """Fraction of each arm's available pool that got matched, summed over arms.

    An arm with nothing available contributes 0, keeping the factor defined
    at boundary levels.
    """
    for matched, available, arm in (
        (matched_control, available_control, "control"),
        (matched_treated, available_treated, "treated"),
    ):
        if matched < 0 or available < 0 or matched > available:
            raise ValueError(f"{arm}: matched={matched} must lie in [0, available={available}]")
    bf = 0.0
    if available_control > 0:
        bf += matched_control / available_control
    if available_treated > 0:
        bf += matched_treated / available_treated
    return bf


def match_quality(pe: float, bf: float, c: float) -> LevelQuality:
    """Combine prediction error and balancing factor: mq = c * bf - pe."""
    if c < 0:
        raise ValueError(f"trade-off parameter must be >= 0, got {c}")
    return LevelQuality(pe=float(pe), bf=float(bf), mq=c * bf - pe, c_param=float(c))
