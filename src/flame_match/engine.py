"""Iterative covariate-elimination matching driver.

Level 1 matches exactly on all covariates. Each later level trial-drops every
remaining covariate, scores the trial by ``mq = C * BF - PE`` (balancing
factor of the trial match, prediction error of the reduced covariate set on
the holdout), permanently drops the best-scoring covariate and commits its
trial groups. Stopping rules are evaluated in a fixed order so identical
inputs always produce the identical run trace.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from enum import Enum

import numpy as np

from .dataset import Dataset
from .errors import DegenerateHoldoutError, NoEstimateError, SchemaError
from .grouper import GroupTable, basic_exact_match, drop_one_ranks, match_flags
from .quality import LevelQuality, balancing_factor, match_quality, prediction_error


class StopReason(str, Enum):
    NO_UNMATCHED_DATA = "no_unmatched_data"
    ONE_ARM_EXHAUSTED = "one_arm_exhausted"
    NO_COVARIATES_LEFT = "no_covariates_left"
    PE_BLOWUP = "pe_blowup"
    MQ_DROP = "mq_drop"
    MAX_LEVELS = "max_levels"


@dataclass(frozen=True)
class FlameConfig:
    """Driver knobs.

    ``epsilon`` bounds how much prediction error may grow before the run
    stops: relative mode stops when the chosen candidate's PE exceeds
    ``PE(all) * (1 + epsilon)``, absolute mode when it exceeds
    ``PE(all) + epsilon``. ``mq_drop_threshold`` enables the sudden-drop
    heuristic (stop once the level MQ falls below the threshold after having
    been at or above it); it is off by default.
    """

    c_param: float = 0.001
    epsilon: float = 0.02
    replacement: bool = False
    backend: str = "mixed_radix"
    stop_on_pe_blowup: bool = True
    pe_blowup_mode: str = "relative"
    max_levels: int | None = None
    mq_drop_threshold: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.c_param < 0:
            raise ValueError("c_param must be >= 0")
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")
        if self.backend not in ("mixed_radix", "tuple_key"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.pe_blowup_mode not in ("relative", "absolute"):
            raise ValueError(f"pe_blowup_mode must be relative or absolute, got {self.pe_blowup_mode!r}")
        if self.max_levels is not None and self.max_levels < 1:
            raise ValueError("max_levels must be >= 1 when set")


@dataclass(frozen=True)
class MatchedGroup:
    level: int
    active_signature: tuple[int, ...]
    unit_ids: tuple
    n_treated: int
    n_control: int
    cate: float
    variance_upper_bound: float

    @property
    def size(self) -> int:
        return self.n_treated + self.n_control


@dataclass(frozen=True)
class LevelRecord:
    level: int
    active: tuple[int, ...]
    quality: LevelQuality
    groups: tuple[MatchedGroup, ...]


@dataclass(frozen=True)
class MatchRun:
    config: FlameConfig
    covariate_names: tuple[str, ...]
    dropped_order: tuple[int, ...]
    levels: tuple[LevelRecord, ...]
    stop_reason: StopReason
    unmatched_unit_ids: tuple
    n_units: int

    def all_groups(self) -> list[MatchedGroup]:
        return [g for lv in self.levels for g in lv.groups]

    @property
    def n_matched(self) -> int:
        return self.n_units - len(self.unmatched_unit_ids)


def variance_upper_bound(treated_outcomes, control_outcomes) -> float:
    """Sample variance of treated outcomes plus sample variance of control outcomes.

    Upper-bounds the conditional variance of the within-group effect when the
    two potential outcomes are non-negatively correlated. Single-member arms
    contribute 0.
    """
    total = 0.0
    for arr in (treated_outcomes, control_outcomes):
        arr = np.asarray(arr, dtype=np.float64)
        if arr.size >= 2:
            total += float(arr.var(ddof=1))
    return total


def _native(v):
    return v.item() if isinstance(v, np.generic) else v


def _materialize_groups(d: Dataset, table: GroupTable, level: int) -> tuple[MatchedGroup, ...]:
    out = []
    for g in table.groups:
        rows = np.asarray(g.rows)
        t_out = d.outcome[rows[d.treatment[rows] == 1]]
        c_out = d.outcome[rows[d.treatment[rows] == 0]]
        out.append(
            MatchedGroup(
                level=level,
                active_signature=g.signature,
                unit_ids=tuple(_native(d.unit_ids[r]) for r in g.rows),
                n_treated=g.n_treated,
                n_control=g.n_control,
                cate=float(t_out.mean() - c_out.mean()),
                variance_upper_bound=variance_upper_bound(t_out, c_out),
            )
        )
    return tuple(out)


def _validate_inputs(matching: Dataset, holdout: Dataset):
    if matching.covariate_names != holdout.covariate_names:
        raise SchemaError("matching and holdout datasets must share covariate columns")
    if not np.array_equal(matching.arities, holdout.arities):
        raise SchemaError("matching and holdout datasets must share covariate arities")
    if holdout.n_treated == 0 or holdout.n_control == 0:
        raise DegenerateHoldoutError("holdout must contain both treated and control units")


def run_flame(matching: Dataset, holdout: Dataset, config: FlameConfig | None = None) -> MatchRun:
    """Run the full elimination loop and return its complete trace.

    Level 1 matches exactly on every covariate. Each later level scores the
    drop of every active covariate with one :func:`match_flags` call on the
    pool (the unmatched units, or every unit with replacement); on
    ``mixed_radix`` those calls share one :func:`drop_one_ranks` build per
    level. The highest ``mq`` wins, the lowest covariate index on a tie;
    the stopping rules are checked on the winner before its groups are
    committed.
    """
    config = config or FlameConfig()
    _validate_inputs(matching, holdout)
    p = matching.n_covariates
    if p == 0:
        raise ValueError("matching dataset has no covariates")
    names = matching.covariate_names
    n = matching.n_units

    if n == 0:
        return MatchRun(config, names, (), (), StopReason.NO_UNMATCHED_DATA, (), 0)

    pe_cache: dict[tuple[int, ...], float] = {}

    def pe_of(active: tuple[int, ...]) -> float:
        if active not in pe_cache:
            pe_cache[active] = prediction_error(holdout, active)
        return pe_cache[active]

    active = list(range(p))
    pe_full = pe_of(tuple(active))
    unmatched = np.ones(n, dtype=bool)
    all_rows = np.arange(n)
    levels: list[LevelRecord] = []
    dropped: list[int] = []

    # level 1: exact match on every covariate
    avail_t, avail_c = matching.n_treated, matching.n_control
    res = basic_exact_match(matching, all_rows, tuple(active), config.backend)
    n_t = int(matching.treatment[res.matched].sum())
    bf = balancing_factor(len(res.matched) - n_t, avail_c, n_t, avail_t)
    levels.append(
        LevelRecord(1, tuple(active), match_quality(pe_full, bf, config.c_param), _materialize_groups(matching, res.table, 1))
    )
    unmatched[res.matched] = False

    stop = None
    while stop is None:
        un_rows = np.flatnonzero(unmatched)
        if un_rows.size == 0:
            stop = StopReason.NO_UNMATCHED_DATA
            break
        pool = all_rows if config.replacement else un_rows
        pool_t = matching.treatment[pool]
        if not ((pool_t == 1).any() and (pool_t == 0).any()):
            stop = StopReason.ONE_ARM_EXHAUSTED
            break
        if len(active) <= 1:
            stop = StopReason.NO_COVARIATES_LEFT
            break

        avail_t = int(matching.treatment[un_rows].sum())
        avail_c = un_rows.size - avail_t

        # one prefix/suffix rank build serves every trial drop of this level
        ranks = drop_one_ranks(matching, pool, active) if config.backend == "mixed_radix" else None
        if config.replacement:
            pool_unmatched = unmatched[pool]
            pool_treated = pool_t == 1
        best = None  # (mq, j, pe, bf); ties keep the lowest covariate index
        for j in active:
            cand = tuple(a for a in active if a != j)
            flags, new_t, new_c = match_flags(matching, pool, cand, config.backend, ranks=ranks)
            if config.replacement:
                newly = flags & pool_unmatched
                new_t = int(np.count_nonzero(newly & pool_treated))
                new_c = int(np.count_nonzero(newly)) - new_t
            bf_j = balancing_factor(new_c, avail_c, new_t, avail_t)
            pe_j = pe_of(cand)
            mq_j = config.c_param * bf_j - pe_j
            if best is None or mq_j > best[0]:
                best = (mq_j, j, pe_j, bf_j)

        best_mq, best_j, best_pe, best_bf = best
        del ranks  # free the rank blocks before the commit allocates its own arrays
        if config.stop_on_pe_blowup:
            if config.pe_blowup_mode == "relative":
                threshold = pe_full * (1.0 + config.epsilon)
            else:
                threshold = pe_full + config.epsilon
            if best_pe > threshold:
                stop = StopReason.PE_BLOWUP
                break
        if config.mq_drop_threshold is not None:
            thr = config.mq_drop_threshold
            if best_mq < thr and any(lv.quality.mq >= thr for lv in levels):
                stop = StopReason.MQ_DROP
                break
        if config.max_levels is not None and len(levels) >= config.max_levels:
            stop = StopReason.MAX_LEVELS
            break

        active.remove(best_j)
        dropped.append(best_j)
        level_no = len(levels) + 1
        res = basic_exact_match(matching, pool, tuple(active), config.backend)
        if config.replacement:
            # groups keep their full membership; only first-time matches
            # consume units from the unmatched pool
            kept = tuple(g for g in res.table.groups if any(unmatched[r] for r in g.rows))
            table = GroupTable(res.table.active, kept)
            newly_rows = [r for g in kept for r in g.rows if unmatched[r]]
            unmatched[newly_rows] = False
        else:
            table = res.table
            unmatched[res.matched] = False
        levels.append(
            LevelRecord(
                level_no,
                tuple(active),
                match_quality(best_pe, best_bf, config.c_param),
                _materialize_groups(matching, table, level_no),
            )
        )

    return MatchRun(
        config=config,
        covariate_names=names,
        dropped_order=tuple(dropped),
        levels=tuple(levels),
        stop_reason=stop,
        unmatched_unit_ids=tuple(_native(matching.unit_ids[r]) for r in np.flatnonzero(unmatched)),
        n_units=n,
    )


def estimate_ate(run: MatchRun) -> float:
    """Average treatment effect: group effects weighted by group size."""
    groups = run.all_groups()
    if not groups:
        raise NoEstimateError("run produced no matched groups")
    weights = np.array([g.size for g in groups], dtype=np.float64)
    cates = np.array([g.cate for g in groups])
    return float(np.sum(weights * cates) / np.sum(weights))


@dataclass(frozen=True)
class CategoryStat:
    mean_cate: float
    std_cate: float
    units: int


def subpopulation_report(run: MatchRun, by_covariate: int) -> dict:
    """Per-category effect summary for one covariate.

    Groups formed while the covariate was active contribute to the category
    matching their signature code; groups formed after it was dropped are
    pooled under the key ``"marginalized"``. Means and standard deviations
    are weighted by group size.
    """
    if not (0 <= by_covariate < len(run.covariate_names)):
        raise ValueError(f"covariate index {by_covariate} out of range")
    buckets: dict = {}
    for lv in run.levels:
        pos = lv.active.index(by_covariate) if by_covariate in lv.active else None
        for g in lv.groups:
            key = int(g.active_signature[pos]) if pos is not None else "marginalized"
            buckets.setdefault(key, []).append((g.cate, g.size))
    report = {}
    for key in sorted(buckets, key=str):
        cates = np.array([c for c, _ in buckets[key]])
        w = np.array([s for _, s in buckets[key]], dtype=np.float64)
        mean = float(np.sum(w * cates) / np.sum(w))
        var = float(np.sum(w * (cates - mean) ** 2) / np.sum(w))
        report[key] = CategoryStat(mean_cate=mean, std_cate=float(np.sqrt(var)), units=int(w.sum()))
    return report


def matchrun_to_json_dict(run: MatchRun) -> dict:
    """Full machine-readable run report."""
    try:
        ate = estimate_ate(run)
    except NoEstimateError:
        ate = None
    cfg = asdict(run.config)
    return {
        "config": cfg,
        "covariates": list(run.covariate_names),
        "dropped_order": [run.covariate_names[j] for j in run.dropped_order],
        "levels": [
            {
                "level": lv.level,
                "active": [run.covariate_names[a] for a in lv.active],
                "pe": lv.quality.pe,
                "bf": lv.quality.bf,
                "mq": lv.quality.mq,
                "groups": [
                    {
                        "signature": [int(s) for s in g.active_signature],
                        "unit_ids": list(g.unit_ids),
                        "n_treated": g.n_treated,
                        "n_control": g.n_control,
                        "cate": g.cate,
                        "variance_upper_bound": g.variance_upper_bound,
                    }
                    for g in lv.groups
                ],
            }
            for lv in run.levels
        ],
        "ate": ate,
        "stop_reason": run.stop_reason.value,
        "n_units": run.n_units,
        "n_matched": run.n_matched,
        "unmatched_unit_ids": list(run.unmatched_unit_ids),
    }


def matchrun_to_json(run: MatchRun) -> str:
    return json.dumps(matchrun_to_json_dict(run), indent=2)


def matchrun_units_csv(run: MatchRun) -> str:
    """Per-unit assignments: unit_id, level, group signature, cate.

    Each unit appears once, under the first group it was matched into (the
    only group, when matching without replacement).
    """
    lines = ["unit_id,level,signature,cate"]
    seen = set()
    for lv in run.levels:
        for g in lv.groups:
            sig = "|".join(str(int(s)) for s in g.active_signature)
            for uid in g.unit_ids:
                if uid not in seen:
                    seen.add(uid)
                    lines.append(f"{uid},{g.level},{sig},{g.cate!r}")
    return "\n".join(lines) + "\n"


def matchrun_levels_csv(run: MatchRun) -> str:
    """Per-level quality series (plot-ready): level, n_active, pe, bf, mq, groups, new matches."""
    lines = ["level,n_active,pe,bf,mq,n_groups,n_matched"]
    for lv in run.levels:
        n_matched = sum(g.size for g in lv.groups)
        lines.append(
            f"{lv.level},{len(lv.active)},{lv.quality.pe!r},{lv.quality.bf!r},{lv.quality.mq!r},{len(lv.groups)},{n_matched}"
        )
    return "\n".join(lines) + "\n"
