"""Reference encoders for the match reports, used to cross-check the engine's writers.

The engine writes its JSON report and its units CSV group by group as string
pieces. These are the direct forms the pieces must reproduce byte for byte:
the report as one nested dict for ``json.dumps(indent=2)``, and the units CSV
as one line per kept unit.
"""

from dataclasses import asdict

import numpy as np

from flame_match.engine import LevelRecord, MatchRun, estimate_ate
from flame_match.errors import NoEstimateError


def _group_slices(lv: LevelRecord, values: list) -> list:
    """``values``, one entry per member row of ``lv``, cut into one list per group."""
    bounds = lv.table.offsets.tolist()
    return [values[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


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
                        "signature": sig,
                        "unit_ids": uids,
                        "n_treated": n_t,
                        "n_control": n_c,
                        "cate": cate,
                        "variance_upper_bound": vub,
                    }
                    for sig, uids, n_t, n_c, cate, vub in zip(
                        lv.table.signatures.tolist(),
                        _group_slices(lv, run.unit_ids[lv.table.rows].tolist()),
                        lv.table.n_treated.tolist(),
                        lv.table.n_control.tolist(),
                        lv.cate.tolist(),
                        lv.variance_upper_bound.tolist(),
                    )
                ],
            }
            for lv in run.levels
        ],
        "ate": ate,
        "stop_reason": run.stop_reason.value,
        "n_units": run.n_units,
        "n_matched": run.n_matched,
        "unmatched_unit_ids": run.unmatched_unit_ids.tolist(),
    }


def matchrun_units_csv(run: MatchRun) -> str:
    """Per-unit assignments, one line object per kept unit: unit_id, level, group signature, cate."""
    lines = ["unit_id,level,signature,cate"]
    if not run.levels:
        return lines[0] + "\n"
    # one entry per group membership, in level, group and member order
    rows = np.concatenate([lv.table.rows for lv in run.levels])
    suffixes = [
        f",{lv.level},{'|'.join(map(str, sig))},{cate!r}"
        for lv in run.levels
        for sig, cate in zip(lv.table.signatures.tolist(), lv.cate.tolist())
    ]
    group_of = np.repeat(np.arange(len(suffixes)), np.concatenate([lv.table.sizes for lv in run.levels]))
    first = np.sort(np.unique(rows, return_index=True)[1])
    lines += [f"{uid}{suffixes[g]}" for uid, g in zip(run.unit_ids[rows[first]].tolist(), group_of[first].tolist())]
    return "\n".join(lines) + "\n"
