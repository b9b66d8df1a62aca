"""Iterative covariate-elimination matching driver.

Level 1 matches exactly on all covariates. Each later level trial-drops every
remaining covariate, scores the trial by ``mq = C * BF - PE`` (balancing
factor of the trial match, prediction error of the reduced covariate set on
the holdout), permanently drops the best-scoring covariate and commits its
groups through the same routine as level 1. Stopping rules are evaluated in
a fixed order so identical inputs always produce the identical run trace.

A level's PEs go screen, contenders, exact winner: one
:func:`~flame_match.quality.screen_drops` fit per arm estimates every
candidate's PE with an error bound, only the contenders (candidates whose
screened MQ lies within the screen's window of the best) get an exact
:func:`prediction_error`, and the exact ``(mq, -j)`` maximum over them wins.
When the bound is not far below the window, every candidate goes exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from enum import Enum

import numpy as np

from .dataset import Dataset
from .errors import DegenerateHoldoutError, NoEstimateError, SchemaError
from .grouper import GroupTable, basic_exact_match, drop_one_ranks, match_flags
from .quality import LevelQuality, balancing_factor, match_quality, prediction_error, screen_drops


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
    been at or above it); it is off by default. ``c_param``, ``epsilon``
    and ``mq_drop_threshold`` must be finite. ``backend`` chooses the
    grouping that commits each level; trial drops are always scored from
    :func:`drop_one_ranks`. ``seed`` is not read by :func:`run_flame`: it
    records the holdout-split seed (the CLI's ``--seed``) in the report's
    ``config``. A bool where a number is meant, a non-bool flag or a
    non-integer ``max_levels`` or ``seed`` raises ``ValueError``; a numpy
    scalar is stored as the Python number it equals.
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
        for name, label, kind in (
            ("c_param", "a number", (int, float)),
            ("epsilon", "a number", (int, float)),
            ("mq_drop_threshold", "a number", (int, float)),
            ("max_levels", "an integer", int),
            ("seed", "an integer", int),
            ("replacement", "a bool", bool),
            ("stop_on_pe_blowup", "a bool", bool),
        ):
            value = getattr(self, name)
            if isinstance(value, np.generic):
                # the Python scalar it equals, so that the report serializes
                value = value.item()
                object.__setattr__(self, name, value)
            optional = value is None and name in ("mq_drop_threshold", "max_levels")
            # bool is an int subclass: a flag must be a bool, and a number must not be one
            if not optional and (isinstance(value, bool) != (kind is bool) or not isinstance(value, kind)):
                raise ValueError(f"{name} must be {label}, got {value!r}")
        for name in ("c_param", "epsilon", "mq_drop_threshold"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
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
class LevelRecord:
    """One committed level: its groups, and per group its CATE and variance upper bound.

    The bound is the treated arm's sample variance plus the control arm's, a
    single-member arm contributing 0. It upper-bounds the conditional variance
    of the within-group effect when the two potential outcomes are
    non-negatively correlated.
    """

    level: int
    active: tuple[int, ...]
    quality: LevelQuality
    table: GroupTable
    cate: np.ndarray
    variance_upper_bound: np.ndarray


@dataclass(frozen=True)
class MatchRun:
    """A run's trace; group rows index ``unit_ids``, the matching units' ids."""

    config: FlameConfig
    covariate_names: tuple[str, ...]
    dropped_order: tuple[int, ...]
    levels: tuple[LevelRecord, ...]
    stop_reason: StopReason
    unit_ids: np.ndarray
    unmatched_unit_ids: np.ndarray

    @property
    def n_units(self) -> int:
        return self.unit_ids.size

    @property
    def n_matched(self) -> int:
        return self.n_units - self.unmatched_unit_ids.size


def _arm_moments(y: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and sample variance (0 for one member) of each consecutive run of ``y``, of lengths ``sizes``.

    Runs of equal size k form one ``(runs, k)`` block, whose row sums take
    the same pairwise order as ``ndarray.mean`` and ``var(ddof=1)`` on each
    run alone, so every value is bit-identical to theirs.
    """
    starts = np.cumsum(sizes) - sizes
    mean, var = np.empty(sizes.size), np.zeros(sizes.size)
    for k in np.unique(sizes).tolist():
        sel = np.flatnonzero(sizes == k)
        block = y[starts[sel, None] + np.arange(k)]
        m = block.sum(axis=1, keepdims=True) / k
        mean[sel] = m[:, 0]
        if k >= 2:
            dev = block - m
            var[sel] = (dev * dev).sum(axis=1) / (k - 1)
    return mean, var


def _level_record(d: Dataset, level: int, active, quality: LevelQuality, table: GroupTable) -> LevelRecord:
    """Per group: treated-minus-control mean outcome and the two arms' summed sample variances, in one pass."""
    # each group's rows are contiguous, so either arm's selection keeps its runs in group order
    treated = d.treatment[table.rows]
    y = d.outcome[table.rows]
    mean_t, var_t = _arm_moments(y[treated], table.n_treated)
    mean_c, var_c = _arm_moments(y[~treated], table.n_control)
    return LevelRecord(level, tuple(active), quality, table, mean_t - mean_c, var_t + var_c)


def _validate_inputs(matching: Dataset, holdout: Dataset):
    if matching.covariate_names != holdout.covariate_names:
        raise SchemaError("matching and holdout datasets must share covariate columns")
    if not np.array_equal(matching.arities, holdout.arities):
        raise SchemaError("matching and holdout datasets must share covariate arities")
    if holdout.n_treated == 0 or holdout.n_control == 0:
        raise DegenerateHoldoutError("holdout must contain both treated and control units")


def _commit(
    d: Dataset, pool: np.ndarray, active, unmatched: np.ndarray, pe: float, config: FlameConfig, level: int
) -> LevelRecord:
    """Group ``pool`` on ``active``, keep the groups holding a first match and stamp those units.

    Groups keep their full membership, so with replacement a kept group can
    also hold units matched at earlier levels; without replacement, and at
    level 1, every member is a first match. BF counts the first matches of
    each arm over the units unmatched before the stamp.
    """
    table = basic_exact_match(d, pool, tuple(active), config.backend).table
    newly = unmatched[table.rows]
    keep = np.logical_or.reduceat(newly, table.offsets[:-1])
    avail_t = int(d.treatment[unmatched].sum())
    new_rows = table.rows[newly]
    new_t = int(d.treatment[new_rows].sum())
    bf = balancing_factor(new_rows.size - new_t, int(np.count_nonzero(unmatched)) - avail_t, new_t, avail_t)
    unmatched[new_rows] = False
    return _level_record(d, level, active, match_quality(pe, bf, config.c_param), table.subset(keep))


def run_flame(matching: Dataset, holdout: Dataset, config: FlameConfig | None = None) -> MatchRun:
    """Run the full elimination loop and return its complete trace.

    Every level commits the exact match of the pool (the unmatched units, or
    every unit with replacement) on its active covariates; level 1 has them
    all. Before each later level, one :func:`drop_one_ranks` build gives the
    BF of every active covariate's drop with one :func:`match_flags` call,
    and one :func:`~flame_match.quality.screen_drops` fit per arm screens
    their PEs. Only the contenders, whose screened MQ lies within the
    screen's window of the best (all candidates when its error bound is not
    far below that window), get an exact :func:`prediction_error`. The
    highest exact ``mq`` among them wins, the lowest covariate index on a
    tie, exactly as if every candidate had been fitted; the stopping rules
    are checked on the winner before its level is committed.
    """
    config = config or FlameConfig()
    _validate_inputs(matching, holdout)
    p = matching.n_covariates
    names = matching.covariate_names
    n = matching.n_units

    if n == 0:
        return MatchRun(config, names, (), (), StopReason.NO_UNMATCHED_DATA, matching.unit_ids, matching.unit_ids)

    active = list(range(p))
    pe_full = prediction_error(holdout, active)
    unmatched = np.ones(n, dtype=bool)
    all_rows = np.arange(n)
    levels: list[LevelRecord] = []
    dropped: list[int] = []

    pool, pe = all_rows, pe_full
    while True:
        levels.append(_commit(matching, pool, active, unmatched, pe, config, len(levels) + 1))
        un_rows = np.flatnonzero(unmatched)
        if un_rows.size == 0:
            stop = StopReason.NO_UNMATCHED_DATA
            break
        pool = all_rows if config.replacement else un_rows
        pool_treated = matching.treatment[pool]
        if pool_treated.all() or not pool_treated.any():
            stop = StopReason.ONE_ARM_EXHAUSTED
            break
        if len(active) <= 1:
            stop = StopReason.NO_COVARIATES_LEFT
            break

        avail_t = int(matching.treatment[un_rows].sum())
        avail_c = un_rows.size - avail_t
        pool_unmatched = unmatched[pool]
        # one prefix/suffix rank build serves every trial drop of this level
        ranks = drop_one_ranks(matching, pool, active)
        bf = []
        for j in active:
            newly = match_flags(matching, pool, j, ranks) & pool_unmatched
            new_t = int(np.count_nonzero(newly & pool_treated))
            bf.append(balancing_factor(int(np.count_nonzero(newly)) - new_t, avail_c, new_t, avail_t))
        screen = screen_drops(holdout, active)
        quality = best_j = None  # the winner's; ties keep the lowest covariate index
        for k in screen.contenders(config.c_param * np.array(bf) - screen.pe).tolist():
            j = active[k]
            q_j = match_quality(prediction_error(holdout, active[:k] + active[k + 1 :]), bf[k], config.c_param)
            if quality is None or q_j.mq > quality.mq:
                quality, best_j = q_j, j

        pe = quality.pe
        del ranks  # free the rank blocks before the commit allocates its own arrays
        if config.stop_on_pe_blowup:
            if config.pe_blowup_mode == "relative":
                threshold = pe_full * (1.0 + config.epsilon)
            else:
                threshold = pe_full + config.epsilon
            if pe > threshold:
                stop = StopReason.PE_BLOWUP
                break
        if config.mq_drop_threshold is not None:
            thr = config.mq_drop_threshold
            if quality.mq < thr and any(lv.quality.mq >= thr for lv in levels):
                stop = StopReason.MQ_DROP
                break
        if config.max_levels is not None and len(levels) >= config.max_levels:
            stop = StopReason.MAX_LEVELS
            break

        active.remove(best_j)
        dropped.append(best_j)

    return MatchRun(
        config=config,
        covariate_names=names,
        dropped_order=tuple(dropped),
        levels=tuple(levels),
        stop_reason=stop,
        unit_ids=matching.unit_ids,
        unmatched_unit_ids=matching.unit_ids[unmatched],
    )


def estimate_ate(run: MatchRun) -> float:
    """Average treatment effect: group effects weighted by group size."""
    if not any(len(lv.table) for lv in run.levels):
        raise NoEstimateError("run produced no matched groups")
    weights = np.concatenate([lv.table.sizes for lv in run.levels]).astype(np.float64)
    cates = np.concatenate([lv.cate for lv in run.levels])
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
        if by_covariate in lv.active:
            keys = lv.table.signatures[:, lv.active.index(by_covariate)].tolist()
        else:
            keys = ["marginalized"] * len(lv.table)
        for key, cate, size in zip(keys, lv.cate.tolist(), lv.table.sizes.tolist()):
            buckets.setdefault(key, []).append((cate, size))
    report = {}
    for key in sorted(buckets, key=str):
        cates = np.array([c for c, _ in buckets[key]])
        w = np.array([s for _, s in buckets[key]], dtype=np.float64)
        mean = float(np.sum(w * cates) / np.sum(w))
        var = float(np.sum(w * (cates - mean) ** 2) / np.sum(w))
        report[key] = CategoryStat(mean_cate=mean, std_cate=float(np.sqrt(var)), units=int(w.sum()))
    return report


def _json_array(items, indent: int) -> str:
    """Already-encoded ``items`` laid out as ``json.dumps(indent=2)`` lays out an array ``indent`` spaces in."""
    pad = "\n" + " " * (indent + 2)
    body = ("," + pad).join(items)
    return f"[{pad}{body}\n{' ' * indent}]" if body else "[]"


def matchrun_to_json(run: MatchRun) -> list[str]:
    """Full machine-readable run report, laid out as ``json.dumps(indent=2)`` lays out its dict, as pieces to concatenate.

    The small blocks go through ``json.dumps`` and are re-indented, and each
    group is written as one piece, so no Python object per unit outlives its
    level and the pieces are never joined. The text has no final newline.
    Integer ids are written with ``str``; other ids and every float go through
    ``json.dumps``, which keeps ``repr``, ``NaN`` and ``Infinity``.
    """
    try:
        ate = estimate_ate(run)
    except NoEstimateError:
        ate = None
    names = run.covariate_names
    encode_id = str if np.issubdtype(run.unit_ids.dtype, np.integer) else json.dumps
    head = {"config": asdict(run.config), "covariates": list(names), "dropped_order": [names[j] for j in run.dropped_order]}
    # the head's closing brace gives way to the levels
    pieces = [json.dumps(head, indent=2)[:-2], ',\n  "levels": ', "[" if run.levels else "[]"]
    for i, lv in enumerate(run.levels):
        t = lv.table
        active = json.dumps([names[a] for a in lv.active], indent=2).replace("\n", "\n      ")
        pe, bf, mq = map(json.dumps, (lv.quality.pe, lv.quality.bf, lv.quality.mq))
        pieces.append(
            ("," if i else "")
            + f'\n    {{\n      "level": {lv.level},\n      "active": {active},\n'
            + f'      "pe": {pe},\n      "bf": {bf},\n      "mq": {mq},\n      "groups": '
            + ("[" if len(t) else "[]")
        )
        ids = run.unit_ids[t.rows].tolist()
        bounds = t.offsets.tolist()
        groups = zip(
            t.signatures.tolist(),
            bounds,
            bounds[1:],
            t.n_treated.tolist(),
            t.n_control.tolist(),
            lv.cate.tolist(),
            lv.variance_upper_bound.tolist(),
        )
        for g, (sig, lo, hi, n_t, n_c, cate, vub) in enumerate(groups):
            pieces.append(
                ("," if g else "")
                + f'\n        {{\n          "signature": {_json_array(map(str, sig), 10)},\n'
                + f'          "unit_ids": {_json_array(map(encode_id, ids[lo:hi]), 10)},\n'
                + f'          "n_treated": {n_t},\n          "n_control": {n_c},\n'
                + f'          "cate": {json.dumps(cate)},\n          "variance_upper_bound": {json.dumps(vub)}\n        }}'
            )
        pieces.append("\n      ]\n    }" if len(t) else "\n    }")
    pieces.append(
        ("\n  ]" if run.levels else "")
        + f',\n  "ate": {json.dumps(ate)},\n  "stop_reason": {json.dumps(run.stop_reason.value)},\n'
        + f'  "n_units": {run.n_units},\n  "n_matched": {run.n_matched},\n  "unmatched_unit_ids": '
    )
    pieces += [_json_array(map(encode_id, run.unmatched_unit_ids.tolist()), 2), "\n}"]
    return pieces


def matchrun_units_csv(run: MatchRun) -> list[str]:
    """Per-unit assignments: unit_id, level, group signature, cate, as pieces to concatenate.

    Each unit appears once, under the first group it was matched into (the
    only group, when matching without replacement). A group's kept units are
    written as one piece: their ids, each followed by the group's line end.
    """
    pieces = ["unit_id,level,signature,cate\n"]
    seen = np.zeros(run.n_units, dtype=bool)
    for lv in run.levels:
        rows = lv.table.rows
        # a level's groups are disjoint, so its first matches are the rows no earlier level holds
        first = ~seen[rows]
        seen[rows] = True
        ids = run.unit_ids[rows[first]]
        # group g's kept units are ids[cuts[g]:cuts[g + 1]]
        cuts = np.concatenate(([0], np.cumsum(first)))[lv.table.offsets].tolist()
        # every group's signature text at once: the level's codes as text, column by column
        sigs = map("|".join, zip(*(map(str, col) for col in lv.table.signatures.T.tolist())))
        for sig, cate, lo, hi in zip(sigs, lv.cate.tolist(), cuts, cuts[1:]):
            if hi > lo:
                line_end = f",{lv.level},{sig},{cate!r}\n"
                pieces.append(line_end.join(map(str, ids[lo:hi].tolist())) + line_end)
    return pieces


def matchrun_levels_csv(run: MatchRun) -> list[str]:
    """Per-level quality series (plot-ready): level, n_active, pe, bf, mq, groups, and the members of the kept groups, one line a piece.

    With replacement, ``n_matched`` counts units matched at an earlier level again.
    """
    lines = ["level,n_active,pe,bf,mq,n_groups,n_matched\n"]
    for lv in run.levels:
        lines.append(
            f"{lv.level},{len(lv.active)},{lv.quality.pe!r},{lv.quality.bf!r},{lv.quality.mq!r},{len(lv.table)},{lv.table.rows.size}\n"
        )
    return lines
