"""Match-quality scoring: hold-out prediction error, balancing factor, MQ.

The prediction error fits one outcome model per treatment arm on the holdout,
restricted to the active covariates, and sums the two arms' mean squared
residuals. The model is fixed: linear least squares on the raw codes with an
intercept and a tiny ridge term.

:func:`screen_drops` estimates, from one fit per arm, the prediction error of
every single-covariate drop from an active set, together with a bound on how
far each estimate can lie from :func:`prediction_error` of that drop. The
engine uses it to pick which candidates need an exact fit (the screen, then
the contenders, then the exact winner); every reported PE still comes from
:func:`prediction_error`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import DegenerateHoldoutError
from .grouper import check_active

DEFAULT_RIDGE = 1e-6
# contender window of :meth:`DropScreen.contenders`, relative to the screen's
# scale (the PE of the zero model); it sets how many candidates get an exact
# fit, while the screen's bound decides whether the window is safe
SCREEN_WINDOW = 1e-9


def _design(X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The design ``Z = [1, X]`` of the float block ``X`` and its ridge Gram ``ZᵀZ + Λ``, Λ on non-intercept weights only.

    The ridge keeps the normal equations solvable after covariate drops leave
    an arm with fewer units than coefficients.
    """
    n, m = X.shape
    Z = np.column_stack([np.ones(n), X])
    G = Z.T @ Z
    G[1:, 1:] += DEFAULT_RIDGE * np.eye(m)
    return Z, G


def _fit(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Ridge least squares of ``y`` on the float block ``X`` with intercept: the intercept, then one weight per column."""
    Z, G = _design(X)
    return np.linalg.solve(G, Z.T @ y)


@dataclass(frozen=True)
class LevelQuality:
    pe: float
    bf: float
    mq: float
    c_param: float


def _arm_blocks(holdout: Dataset, active):
    """Each arm's float block on ``active`` and its outcomes, control first, one arm at a time."""
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
        yield np.ascontiguousarray(codes[rows], dtype=np.float64), holdout.outcome[rows]


def _arm_residuals(holdout: Dataset, active) -> tuple[np.ndarray, np.ndarray]:
    """Residuals of each arm's own :func:`_fit` on its holdout units: (control, treated)."""
    residuals = []
    for X, y in _arm_blocks(holdout, active):
        coeffs = _fit(X, y)
        residuals.append(y - (coeffs[0] + X @ coeffs[1:]))
    return tuple(residuals)


@dataclass(frozen=True)
class DropScreen:
    """Screened PE of dropping each ``active[k]``, and how far from the exact PE any of them may lie.

    ``abs(pe[k] - prediction_error(holdout, reduced)) <= bound`` for every
    ``k``; ``scale`` sums each arm's mean squared outcome, the PE of the zero
    model.
    """

    pe: np.ndarray
    bound: float
    scale: float

    def contenders(self, mq: np.ndarray) -> np.ndarray:
        """Positions, ascending, whose screened ``mq`` lies within δ of the best; every position unless ``8 * bound <= δ``.

        δ is ``SCREEN_WINDOW * scale``. The exact winner's screened MQ is at
        most twice the bound below the best screened MQ, and so is that of
        every exact tie with it, so a window of at least twice the bound holds
        them all; 8 leaves a factor 4 to spare.
        """
        delta = SCREEN_WINDOW * self.scale
        if not 8 * self.bound <= delta:  # a NaN bound fails too
            return np.arange(mq.size)
        return np.flatnonzero(mq >= mq.max() - delta)


def screen_drops(holdout: Dataset, active) -> DropScreen:
    """The PE of every single-covariate drop from ``active``, from one ridge fit per arm.

    Per arm, one eigendecomposition of ``G = ZᵀZ + Λ`` gives ``G⁻¹`` and
    ``κ(G)``; ``b = G⁻¹Zᵀy`` and ``r = y − Zb``. Dropping coefficient ``k``,
    with ``g = (G⁻¹)_kk``, raises the ridge objective ``‖r‖² + bᵀΛb`` by
    ``b_k²/g`` and moves the fit to ``b′ = b − G⁻¹e_k·b_k/g``; the drop's RSS
    is that objective minus ``b′ᵀΛb′``.

    The bound, with ``m = len(active)``: the solve perturbs ``b`` by about
    ``t = (m + 1)·κ·ε`` relative to ``‖b‖``, and ``‖G‖·‖b‖² ≤ κ·yᵀy``, so
    to first order both the screened and the exact RSS of a drop lie within
    ``2t·sqrt(RSS·yᵀy)`` of the exact-arithmetic value; rounding the
    residuals adds less. Per arm and unit, ``bound`` takes ``4t`` for both
    sides at the level's largest RSS, plus ``(4t)²·yᵀy`` for the
    second-order terms.
    """
    m = len(tuple(active))
    pe = np.zeros(m)
    bound = scale = 0.0
    diag = np.arange(m)
    for X, y in _arm_blocks(holdout, active):
        Z, G = _design(X)
        w, Q = np.linalg.eigh(G)
        if not w[0] > 0:
            return DropScreen(pe, math.inf, scale)
        G_inv = (Q / w) @ Q.T
        b = G_inv @ (Z.T @ y)
        r = y - Z @ b
        step = b[1:] / np.diag(G_inv)[1:]
        # column k: the weights left after dropping coefficient k
        kept = b[1:, None] - G_inv[1:, 1:] * step
        kept[diag, diag] = 0.0
        rss = r @ r + b[1:] * step + DEFAULT_RIDGE * (b[1:] @ b[1:] - np.einsum("ik,ik->k", kept, kept))
        pe += rss / y.size
        yy = float(y @ y)
        t4 = 4 * (m + 1) * float(w[-1] / w[0]) * np.finfo(np.float64).eps
        bound += t4 * (math.sqrt(max(float(rss.max()), 0.0) * yy) + t4 * yy) / y.size
        scale += yy / y.size
    return DropScreen(pe, bound, scale)


def prediction_error(holdout: Dataset, active) -> float:
    """Sum of the two arms' mean squared residuals on the holdout."""
    control, treated = _arm_residuals(holdout, active)
    return float(np.mean(control**2)) + float(np.mean(treated**2))


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
