"""Independent FLAME loop used to cross-check the engine.

Deliberately shares no code with flame_match.engine or flame_match.grouper:
units are plain tuples of codes, groups are dict buckets keyed by the
signature tuple, and the loop follows the algorithm's description step by
step. Scores come from flame_match.quality, so PE, BF and MQ are the same
floats the engine compares, and a float tie is a tie in both.
:func:`variance_upper_bound` is the scalar form of the per-group variance
bound that the engine computes as a column.
"""

from dataclasses import dataclass

import numpy as np

from flame_match.quality import balancing_factor, prediction_error


@dataclass
class ReferenceRun:
    dropped_order: list
    stop_reason: str
    unit_level: dict  # row -> level at which the row was first matched
    scores: list  # per scored level: {covariate: mq of dropping it}
    groups: list  # per committed level: [(signature, rows, n_treated, n_control)], by signature
    level_mqs: list  # per committed level: its MQ, C * BF - PE


def variance_upper_bound(treated_outcomes, control_outcomes) -> float:
    """Sample variance of treated outcomes plus sample variance of control outcomes; single-member arms contribute 0."""
    total = 0.0
    for arr in (treated_outcomes, control_outcomes):
        arr = np.asarray(arr, dtype=np.float64)
        if arr.size >= 2:
            total += float(arr.var(ddof=1))
    return total


def _valid_groups(codes, treatment, pool, active):
    """Signature -> rows of each group of ``pool`` on ``active`` that holds both treatment values."""
    buckets = {}
    for u in pool:
        buckets.setdefault(tuple(codes[u][a] for a in active), []).append(u)
    return {sig: members for sig, members in buckets.items() if len({treatment[u] for u in members}) == 2}


def _matched_rows(codes, treatment, pool, active):
    """Rows of ``pool`` whose signature on ``active`` occurs under both treatment values."""
    return [u for members in _valid_groups(codes, treatment, pool, active).values() for u in members]


def _commit(groups, treatment, level_of, level):
    """Stamp first matches with ``level``; return the groups holding one, members in row order.

    Groups keep their full membership, so with replacement a committed group
    can also hold units matched at earlier levels.
    """
    kept = {sig: sorted(members) for sig, members in groups.items() if any(u not in level_of for u in members)}
    for members in kept.values():
        for u in members:
            level_of.setdefault(u, level)
    return [
        (sig, tuple(rows), sum(treatment[u] for u in rows), sum(1 - treatment[u] for u in rows))
        for sig, rows in sorted(kept.items())
    ]


def reference_flame(
    matching,
    holdout,
    c_param=0.001,
    epsilon=0.02,
    replacement=False,
    stop_on_pe_blowup=True,
    pe_blowup_mode="relative",
    max_levels=None,
    mq_drop_threshold=None,
):
    codes = [tuple(row) for row in matching.covariates.tolist()]
    treatment = matching.treatment.tolist()
    n, p = len(codes), len(codes[0])
    active = list(range(p))
    pe_full = prediction_error(holdout, tuple(active))

    level_of = {}
    committed = [_commit(_valid_groups(codes, treatment, range(n), active), treatment, level_of, 1)]
    first = list(level_of)
    first_t = sum(treatment[u] for u in first)
    n_t = sum(treatment)
    level_mqs = [c_param * balancing_factor(len(first) - first_t, n - n_t, first_t, n_t) - pe_full]
    dropped, scores = [], []

    while True:
        unmatched = [u for u in range(n) if u not in level_of]
        if not unmatched:
            stop = "no_unmatched_data"
            break
        pool = list(range(n)) if replacement else unmatched
        if len({treatment[u] for u in pool}) < 2:
            stop = "one_arm_exhausted"
            break
        if len(active) <= 1:
            stop = "no_covariates_left"
            break
        avail_t = sum(treatment[u] for u in unmatched)
        avail_c = len(unmatched) - avail_t

        level_scores = {}
        best = None
        for j in active:
            cand = [a for a in active if a != j]
            new = [u for u in _matched_rows(codes, treatment, pool, cand) if u not in level_of]
            new_t = sum(treatment[u] for u in new)
            bf = balancing_factor(len(new) - new_t, avail_c, new_t, avail_t)
            pe = prediction_error(holdout, tuple(cand))
            mq = c_param * bf - pe
            level_scores[j] = mq
            if best is None or mq > best[0]:
                best = (mq, j, pe)
        scores.append(level_scores)
        best_mq, best_j, best_pe = best

        if stop_on_pe_blowup:
            limit = pe_full * (1.0 + epsilon) if pe_blowup_mode == "relative" else pe_full + epsilon
            if best_pe > limit:
                stop = "pe_blowup"
                break
        if mq_drop_threshold is not None and best_mq < mq_drop_threshold and max(level_mqs) >= mq_drop_threshold:
            stop = "mq_drop"
            break
        if max_levels is not None and len(level_mqs) >= max_levels:
            stop = "max_levels"
            break

        active.remove(best_j)
        dropped.append(best_j)
        level_mqs.append(best_mq)
        committed.append(_commit(_valid_groups(codes, treatment, pool, active), treatment, level_of, len(level_mqs)))

    return ReferenceRun(dropped, stop, level_of, scores, committed, level_mqs)
