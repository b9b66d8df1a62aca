"""The engine's report writers against the reference encoders, byte for byte, and their memory.

``matchrun_to_json`` and ``matchrun_units_csv`` build their reports from
per-group string pieces; ``tests/reference_report.py`` holds the direct forms
(one nested dict through ``json.dumps(indent=2)``, one line per unit) that
the pieces must reproduce exactly.
"""

import dataclasses
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from flame_match.dataset import Dataset, DatasetSchema, load_csv, split_holdout
from flame_match.engine import FlameConfig, LevelRecord, MatchRun, StopReason, matchrun_to_json, matchrun_units_csv, run_flame
from flame_match.grouper import GroupTable
from flame_match.quality import match_quality
from flame_match.synth import SynthSpec, generate
from reference_report import matchrun_to_json_dict
from reference_report import matchrun_units_csv as reference_units_csv

INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"
FAMILIES = ("quadratic", "irrelevant", "decay_exp", "decay_pow", "tradeoff")


def assert_reports_match(run):
    assert "".join(matchrun_to_json(run)) == json.dumps(matchrun_to_json_dict(run), indent=2)
    assert "".join(matchrun_units_csv(run)) == reference_units_csv(run)


def _decay_pair(n=200):
    matching = generate(SynthSpec(model="decay_exp", n_control=n, n_treated=n, seed=31)).dataset
    holdout = generate(SynthSpec(model="decay_exp", n_control=n, n_treated=n, seed=32)).dataset
    return matching, holdout


@pytest.mark.parametrize("replacement", [False, True])
@pytest.mark.parametrize("family", FAMILIES)
def test_golden_inputs(family, replacement):
    matching, holdout = split_holdout(load_csv(str(INPUTS / f"{family}.csv"), DatasetSchema("T", "Y")), 0.1, 5)
    for max_levels in (None, 1):
        config = FlameConfig(replacement=replacement, stop_on_pe_blowup=False, max_levels=max_levels)
        assert_reports_match(run_flame(matching, holdout, config))


def _ids(kind, n):
    if kind == "uint32":
        return np.arange(n, dtype=np.uint32) * 7 + 4_000_000_000
    if kind == "str":
        return np.array([f"u{i:05d}" for i in range(n)])
    if kind == "object":
        # non-ASCII, quote and backslash characters: JSON escapes them, the CSV writes them as they are
        return np.array([f'é"{i}\\' for i in range(n)], dtype=object)
    return np.concatenate([np.arange(n - 1) / 4 - 7.5, [np.inf]])


@pytest.mark.parametrize("replacement", [False, True])
@pytest.mark.parametrize("kind", ["uint32", "str", "object", "float"])
def test_non_integer_and_non_ascii_ids(kind, replacement):
    matching, holdout = _decay_pair()
    matching = dataclasses.replace(matching, unit_ids=_ids(kind, matching.n_units))
    for max_levels in (None, 1):
        run = run_flame(matching, holdout, FlameConfig(replacement=replacement, stop_on_pe_blowup=False, max_levels=max_levels))
        assert run.n_matched > 0 or max_levels == 1
        assert_reports_match(run)


def test_no_levels():
    matching, holdout = _decay_pair()
    run = run_flame(matching.take(np.zeros(0, dtype=np.int64)), holdout)
    assert run.levels == ()
    assert_reports_match(run)


@pytest.mark.parametrize("replacement", [False, True])
def test_levels_without_groups(replacement):
    # the arms never share a signature, so every level commits no group
    n = 40
    covs = np.zeros((n, 3), dtype=np.int64)
    covs[n // 2 :] = 1
    t = np.repeat([0, 1], n // 2)
    matching = Dataset(covs, [2, 2, 2], t, np.arange(n, dtype=float), ("a", "b", "c"), np.arange(n))
    _, holdout = _decay_pair(20)
    holdout = Dataset(holdout.covariates[:, :3] % 2, [2, 2, 2], holdout.treatment, holdout.outcome, ("a", "b", "c"), holdout.unit_ids)
    run = run_flame(matching, holdout, FlameConfig(replacement=replacement, stop_on_pe_blowup=False))
    assert len(run.levels) == 3 and not any(len(lv.table) for lv in run.levels)
    assert_reports_match(run)


def _level(level, active, groups, cates):
    """A hand-built level whose groups hold the given member rows; even rows are treated."""
    rows = np.array([r for g in groups for r in g], dtype=np.int64)
    sizes = np.array([len(g) for g in groups])
    n_treated = np.array([sum(r % 2 == 0 for r in g) for g in groups])
    signatures = np.array([[k] * len(active) for k in range(len(groups))], dtype=np.int64)
    table = GroupTable(active, signatures, np.concatenate(([0], np.cumsum(sizes))), rows, n_treated, sizes - n_treated)
    return LevelRecord(level, active, match_quality(1.0, 0.5, 0.1), table, np.array(cates), np.zeros(len(groups)))


def test_rows_recurring_in_three_levels():
    # with replacement rows 0 and 1 sit in a group at every level; level 2's
    # first group and level 3's second hold no first match and write no line
    levels = (
        _level(1, (0, 1, 2), [[0, 1]], [0.5]),
        _level(2, (0, 1), [[0, 1], [2, 3]], [-1.0, 2.0]),
        _level(3, (0,), [[0, 1, 4], [2, 3]], [0.25, 3.0]),
    )
    ids = np.arange(10, 16)
    run = MatchRun(FlameConfig(replacement=True), ("a", "b", "c"), (2, 1), levels, StopReason.NO_COVARIATES_LEFT, ids, ids[5:])
    assert "".join(matchrun_units_csv(run)) == (
        "unit_id,level,signature,cate\n10,1,0|0|0,0.5\n11,1,0|0|0,0.5\n12,2,1|1,2.0\n13,2,1|1,2.0\n14,3,0,0.25\n"
    )
    assert_reports_match(run)


def test_non_finite_floats():
    # outcomes near the float maximum overflow the arm means: CATEs and bounds
    # become inf or nan, and the JSON writes them as Infinity and NaN
    matching, holdout = _decay_pair()
    outcome = np.where(np.arange(matching.n_units) % 5 == 0, 1e308, matching.outcome)
    with np.errstate(over="ignore", invalid="ignore"):
        run = run_flame(dataclasses.replace(matching, outcome=outcome), holdout, FlameConfig(stop_on_pe_blowup=False))
        report = "".join(matchrun_to_json(run))
        assert "Infinity" in report and "NaN" in report
        assert_reports_match(run)


def _traced_peak(writer, run):
    """The writer's joined report and the peak of the memory traced while it ran, above what was traced before."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        pieces = writer(run)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    return "".join(pieces), peak


@pytest.mark.parametrize("replacement", [False, True])
def test_writers_hold_no_object_per_unit(replacement):
    # a writer that keeps one Python object per unit (a dict tree, a line per
    # unit) peaks above 5x its report's length on this run; the group-by-group
    # writers, which return their pieces unjoined, peak at 1.6-1.8x (JSON) and
    # 2.2-2.7x (units CSV)
    matching, holdout = split_holdout(
        generate(SynthSpec(model="decay_exp", n_control=2000, n_treated=2000, seed=7)).dataset, 0.1, 0
    )
    run = run_flame(matching, holdout, FlameConfig(replacement=replacement))
    for writer, bound in ((matchrun_to_json, 2), (matchrun_units_csv, 3)):
        report, peak = _traced_peak(writer, run)
        assert peak <= bound * len(report), (writer.__name__, peak / len(report))
