import json
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import flame_match.engine as engine_mod
from conftest import first_match_levels, group_tuples
from flame_match.dataset import Dataset
from flame_match.engine import (
    FlameConfig,
    LevelRecord,
    MatchRun,
    StopReason,
    estimate_ate,
    matchrun_levels_csv,
    matchrun_to_json,
    matchrun_units_csv,
    run_flame,
    subpopulation_report,
)
from flame_match.errors import DegenerateHoldoutError, NoEstimateError, SchemaError
from flame_match.grouper import GroupTable
from flame_match.quality import match_quality
from flame_match.synth import SynthSpec, generate
from reference_flame import variance_upper_bound
from reference_report import matchrun_to_json_dict


def _dataset(covs, treatment, outcome, ids=None):
    covs = np.asarray(covs)
    return Dataset(
        covariates=covs,
        arities=covs.max(axis=0) + 1,
        treatment=np.asarray(treatment),
        outcome=np.asarray(outcome, dtype=float),
        covariate_names=tuple(f"c{i}" for i in range(covs.shape[1])),
        unit_ids=np.arange(len(treatment)) if ids is None else np.asarray(ids),
    )


def _holdout(seed=0, n=200, p=2):
    rng = np.random.default_rng(seed)
    covs = rng.integers(0, 2, size=(n, p))
    t = np.tile([0, 1], n // 2)
    y = covs @ np.arange(1, p + 1, dtype=float) + 2.0 * t + rng.normal(0, 0.1, n)
    return _dataset(covs, t, y)


def _record(level, active, groups):
    """A level whose groups, given as ``(cate, size, signature)``, hold consecutive rows from 0."""
    sizes = np.array([size for _, size, _ in groups], dtype=np.int64)
    n_t = np.maximum(1, sizes // 2)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    table = GroupTable(
        active,
        np.array([sig for _, _, sig in groups], dtype=np.int64).reshape(-1, len(active)),
        offsets,
        np.arange(offsets[-1]),
        n_t,
        sizes - n_t,
    )
    cate = np.array([cate for cate, _, _ in groups], dtype=np.float64)
    return LevelRecord(level, active, match_quality(0.0, 0.0, 0.001), table, cate, np.zeros(len(groups)))


def _fake_run(levels, names=("c0",)):
    return MatchRun(FlameConfig(), names, (), tuple(levels), StopReason.NO_UNMATCHED_DATA, np.arange(20), np.zeros(0, np.int64))


def _n_groups(run):
    return sum(len(lv.table) for lv in run.levels)


def _signatures(lv):
    return {tuple(sig) for sig in lv.table.signatures.tolist()}


def test_variance_upper_bound_values():
    assert variance_upper_bound([1.0, 1.0], [0.0, 0.0]) == 0.0
    assert variance_upper_bound([0.0, 2.0], [1.0, 3.0]) == pytest.approx(4.0)
    assert variance_upper_bound([5.0], [1.0, 2.0]) == pytest.approx(0.5)


def test_estimate_ate_weighted():
    run = _fake_run([_record(1, (0,), [(1.0, 4, (0,)), (3.0, 4, (0,))])])
    assert estimate_ate(run) == pytest.approx(2.0)
    run_one = _fake_run([_record(1, (0,), [(7.5, 6, (0,))])])
    assert estimate_ate(run_one) == pytest.approx(7.5)


def test_estimate_ate_no_groups():
    with pytest.raises(NoEstimateError):
        estimate_ate(_fake_run([_record(1, (0,), [])]))


def test_run_flame_validates_inputs():
    matching = _dataset([[0], [1]], [0, 1], [0.0, 1.0])
    bad_holdout = _dataset([[0], [1]], [1, 1], [0.0, 1.0])
    with pytest.raises(DegenerateHoldoutError):
        run_flame(matching, bad_holdout)
    other_schema = Dataset(
        covariates=np.array([[0], [1]]),
        arities=np.array([2]),
        treatment=np.array([0, 1]),
        outcome=np.zeros(2),
        covariate_names=("other",),
        unit_ids=np.arange(2),
    )
    with pytest.raises(SchemaError):
        run_flame(matching, other_schema)
    other_arities = _dataset([[0], [2]], [0, 1], [0.0, 1.0])
    with pytest.raises(SchemaError, match="arities"):
        run_flame(matching, other_arities)


def test_empty_matching_dataset():
    holdout = _holdout()
    empty = Dataset(
        covariates=np.zeros((0, 2), dtype=np.int64),
        arities=np.array([2, 2]),
        treatment=np.zeros(0, dtype=np.int64),
        outcome=np.zeros(0),
        covariate_names=holdout.covariate_names,
        unit_ids=np.zeros(0, dtype=np.int64),
    )
    run = run_flame(empty, holdout)
    assert run.stop_reason is StopReason.NO_UNMATCHED_DATA
    assert run.levels == () and run.dropped_order == ()


def test_empty_matching_dataset_reports():
    holdout = _holdout()
    empty = Dataset(
        covariates=np.zeros((0, 2), dtype=np.int64),
        arities=np.array([2, 2]),
        treatment=np.zeros(0, dtype=np.int64),
        outcome=np.zeros(0),
        covariate_names=holdout.covariate_names,
        unit_ids=np.zeros(0, dtype=np.int64),
    )
    run = run_flame(empty, holdout)
    payload = json.loads("".join(matchrun_to_json(run)))
    assert payload["stop_reason"] == "no_unmatched_data" and payload["levels"] == [] and payload["ate"] is None
    assert payload["n_units"] == payload["n_matched"] == 0 and payload["unmatched_unit_ids"] == []
    assert "".join(matchrun_units_csv(run)) == "unit_id,level,signature,cate\n"
    assert "".join(matchrun_levels_csv(run)) == "level,n_active,pe,bf,mq,n_groups,n_matched\n"


@pytest.mark.parametrize(
    "options, message",
    [
        ({"c_param": -0.1}, "c_param"),
        ({"epsilon": -1e-9}, "epsilon"),
        ({"backend": "bitvector"}, "backend"),
        ({"pe_blowup_mode": "percent"}, "pe_blowup_mode"),
        ({"max_levels": 0}, "max_levels"),
        # values of a type the report's schema rejects
        ({"max_levels": 2.5}, "max_levels must be an integer"),
        ({"max_levels": True}, "max_levels must be an integer"),
        ({"seed": 3.0}, "seed must be an integer"),
        ({"c_param": True}, "c_param must be a number"),
        ({"epsilon": np.True_}, "epsilon must be a number"),
        ({"mq_drop_threshold": False}, "mq_drop_threshold must be a number"),
        ({"c_param": "0.1"}, "c_param must be a number"),
        ({"replacement": 1}, "replacement must be a bool"),
        ({"stop_on_pe_blowup": None}, "stop_on_pe_blowup must be a bool"),
    ],
)
def test_flame_config_rejects_bad_options(options, message):
    with pytest.raises(ValueError, match=message):
        FlameConfig(**options)


def test_numpy_scalar_config_reports_like_python_scalars():
    # numpy scalars are stored as the Python numbers they equal, so the report
    # serializes, validates and matches the plain config's byte for byte
    res = generate(SynthSpec(model="decay_exp", n_control=50, n_treated=50, seed=1))
    hold = generate(SynthSpec(model="decay_exp", n_control=50, n_treated=50, seed=2))
    plain = FlameConfig(max_levels=3, seed=3, epsilon=0.5, c_param=0.25, replacement=True)
    numpy_config = FlameConfig(
        max_levels=np.int64(3), seed=np.int64(3), epsilon=np.float32(0.5), c_param=np.float64(0.25), replacement=np.True_
    )
    assert numpy_config == plain
    assert [type(getattr(numpy_config, name)) for name in ("max_levels", "seed", "epsilon", "replacement")] == [
        int, int, float, bool
    ]
    report = "".join(matchrun_to_json(run_flame(res.dataset, hold.dataset, numpy_config)))
    schema = json.loads((Path(__file__).resolve().parents[1] / "docs" / "matchrun.schema.json").read_text())
    jsonschema.validate(json.loads(report), schema)
    assert report == "".join(matchrun_to_json(run_flame(res.dataset, hold.dataset, plain)))


def test_single_arm_matching_stops():
    holdout = _holdout()
    matching = _dataset([[0, 1], [1, 0], [0, 0]], [1, 1, 1], [1.0, 2.0, 3.0])
    run = run_flame(matching, holdout)
    assert run.stop_reason is StopReason.ONE_ARM_EXHAUSTED
    assert _n_groups(run) == 0
    assert len(run.unmatched_unit_ids) == 3


def test_level1_exact_match_and_stop_reasons():
    # two exact pairs and one unmatchable odd unit
    matching = _dataset(
        [[0, 0], [0, 0], [1, 1], [1, 1], [1, 0]],
        [0, 1, 0, 1, 1],
        [1.0, 2.0, 3.0, 4.0, 9.0],
    )
    run = run_flame(matching, _holdout())
    assert _signatures(run.levels[0]) == {(0, 0), (1, 1)}
    assert run.stop_reason in (StopReason.ONE_ARM_EXHAUSTED, StopReason.PE_BLOWUP)
    assert run.n_matched == 4


def test_no_covariates_left_stop():
    rng = np.random.default_rng(0)
    # one covariate, arms never share a value: no matches, nothing to drop
    covs = np.array([[0], [0], [1], [1]])
    matching = _dataset(covs, [0, 0, 1, 1], rng.normal(size=4))
    holdout = _dataset(covs, [0, 1, 0, 1], [0.0, 1.0, 0.0, 1.0])
    run = run_flame(matching, holdout, FlameConfig(stop_on_pe_blowup=False))
    assert run.stop_reason is StopReason.NO_COVARIATES_LEFT
    assert len(run.levels) == 1


def test_max_levels_stop():
    res = generate(SynthSpec(model="tradeoff", n_control=300, n_treated=300, seed=1))
    hold = generate(SynthSpec(model="tradeoff", n_control=300, n_treated=300, seed=2))
    run = run_flame(res.dataset, hold.dataset, FlameConfig(max_levels=3, stop_on_pe_blowup=False))
    assert run.stop_reason is StopReason.MAX_LEVELS
    assert len(run.levels) == 3


def test_mq_drop_stop():
    res = generate(SynthSpec(model="decay_exp", n_control=400, n_treated=400, seed=3))
    hold = generate(SynthSpec(model="decay_exp", n_control=400, n_treated=400, seed=4))
    run = run_flame(
        res.dataset,
        hold.dataset,
        FlameConfig(stop_on_pe_blowup=False, mq_drop_threshold=-1.0),
    )
    assert run.stop_reason in (StopReason.MQ_DROP, StopReason.NO_UNMATCHED_DATA)
    if run.stop_reason is StopReason.MQ_DROP:
        assert any(lv.quality.mq >= -1.0 for lv in run.levels)


def test_without_replacement_groups_disjoint():
    res = generate(SynthSpec(model="decay_exp", n_control=500, n_treated=500, seed=5))
    hold = generate(SynthSpec(model="decay_exp", n_control=500, n_treated=500, seed=6))
    run = run_flame(res.dataset, hold.dataset, FlameConfig(stop_on_pe_blowup=False, max_levels=8))
    rows = np.concatenate([lv.table.rows for lv in run.levels])
    assert len(set(rows.tolist())) == rows.size
    # each level's active set loses exactly one covariate
    for first, second in zip(run.levels, run.levels[1:]):
        assert len(second.active) == len(first.active) - 1
        assert set(second.active) < set(first.active)
    assert len(set(run.dropped_order)) == len(run.dropped_order)
    # committed groups satisfy the pruning condition
    for lv in run.levels:
        assert np.all(lv.table.n_treated >= 1) and np.all(lv.table.n_control >= 1)


def test_tie_break_prefers_lowest_index():
    # columns 0 and 1 are duplicates, so their candidate scores tie exactly;
    # column 2 separates the arms in the matching set and predicts strongly
    # in the holdout, making it expensive to drop
    rng = np.random.default_rng(7)
    dup = rng.integers(0, 2, size=200)
    t = np.tile([0, 1], 100)
    matching = _dataset(np.stack([dup, dup, t], axis=1), t, rng.normal(size=200))
    a = rng.integers(0, 2, size=400)
    b = rng.integers(0, 2, size=400)
    t_h = np.tile([0, 1], 200)
    holdout = _dataset(
        np.stack([a, a, b], axis=1),
        t_h,
        2.0 * a + 5.0 * b + t_h + rng.normal(0, 0.1, 400),
    )
    run = run_flame(matching, holdout, FlameConfig(stop_on_pe_blowup=False, max_levels=2))
    assert run.dropped_order[0] == 0


def test_determinism_identical_reports():
    res = generate(SynthSpec(model="irrelevant", n_control=400, n_treated=400, seed=8))
    hold = generate(SynthSpec(model="irrelevant", n_control=400, n_treated=400, seed=9))
    run1 = run_flame(res.dataset, hold.dataset)
    run2 = run_flame(res.dataset, hold.dataset)
    assert "".join(matchrun_to_json(run1)) == "".join(matchrun_to_json(run2))


def test_candidate_choice_invariant_to_uniform_pe_shift(monkeypatch):
    res = generate(SynthSpec(model="decay_pow", n_control=300, n_treated=300, seed=10))
    hold = generate(SynthSpec(model="decay_pow", n_control=300, n_treated=300, seed=11))
    base = run_flame(res.dataset, hold.dataset, FlameConfig(stop_on_pe_blowup=False, max_levels=4))
    true_pe = engine_mod.prediction_error
    monkeypatch.setattr(engine_mod, "prediction_error", lambda holdout, active: true_pe(holdout, active) + 123.0)
    shifted = run_flame(res.dataset, hold.dataset, FlameConfig(stop_on_pe_blowup=False, max_levels=4))
    assert shifted.dropped_order == base.dropped_order


def test_pe_blowup_absolute_mode():
    res = generate(SynthSpec(model="decay_exp", n_control=400, n_treated=400, seed=12))
    hold = generate(SynthSpec(model="decay_exp", n_control=400, n_treated=400, seed=13))
    run = run_flame(res.dataset, hold.dataset, FlameConfig(pe_blowup_mode="absolute", epsilon=0.0))
    assert run.stop_reason is StopReason.PE_BLOWUP
    pe_full = run.levels[0].quality.pe
    for lv in run.levels[1:]:
        assert lv.quality.pe <= pe_full


def test_with_replacement_first_match_recorded():
    # two exact pairs: everyone's first (and only) match happens at level 1
    matching = _dataset(
        [[0, 0], [0, 0], [1, 1], [1, 1]],
        [0, 1, 0, 1],
        [0.0, 1.0, 0.0, 2.0],
        ids=[10, 11, 12, 13],
    )
    holdout = _holdout()
    run = run_flame(matching, holdout, FlameConfig(replacement=True, stop_on_pe_blowup=False))
    assert run.stop_reason is StopReason.NO_UNMATCHED_DATA
    assert _signatures(run.levels[0]) == {(0, 0), (1, 1)}
    assert run.n_matched == 4
    # every unit's first group sits at the earliest level it could match
    assert first_match_levels(run) == {10: 1, 11: 1, 12: 1, 13: 1}


def test_with_replacement_groups_keep_full_membership():
    # units 0/1 pair up exactly at level 1; unit 2 first matches at level 2,
    # in a group that also carries the already-matched pair
    matching = _dataset(
        [[0, 0], [0, 0], [1, 0], [1, 1]],
        [0, 1, 0, 1],
        [0.0, 5.0, 1.0, 6.0],
    )
    rng = np.random.default_rng(14)
    covs = rng.integers(0, 2, size=(200, 2))
    t_h = np.tile([0, 1], 100)
    # outcome rides on c1 only, so dropping c0 is the cheap move
    holdout = _dataset(covs, t_h, 10.0 * covs[:, 1] + t_h + rng.normal(0, 0.1, 200))
    run = run_flame(matching, holdout, FlameConfig(replacement=True, stop_on_pe_blowup=False))
    assert run.dropped_order[0] == 0
    [(_, rows, n_t, n_c)] = group_tuples(run.levels[1].table)
    assert set(run.unit_ids[list(rows)].tolist()) == {0, 1, 2}
    assert (n_t, n_c) == (1, 2)
    # units 0 and 1 keep their level-1 assignment in the per-unit export
    lines = "".join(matchrun_units_csv(run)).strip().splitlines()[1:]
    levels_by_unit = {int(line.split(",")[0]): int(line.split(",")[1]) for line in lines}
    assert levels_by_unit[0] == 1 and levels_by_unit[1] == 1 and levels_by_unit[2] == 2


def test_subpopulation_report_partition_and_marginalized():
    lvl1 = _record(1, (0, 1), [(2.0, 4, (0, 1)), (6.0, 4, (1, 0))])
    lvl2 = _record(2, (1,), [(3.0, 2, (1,))])
    run = _fake_run([lvl1, lvl2], names=("c0", "c1"))
    report = subpopulation_report(run, 0)
    assert set(report) == {0, 1, "marginalized"}
    assert report[0].mean_cate == pytest.approx(2.0)
    assert report[1].mean_cate == pytest.approx(6.0)
    assert report["marginalized"].mean_cate == pytest.approx(3.0)
    assert sum(s.units for s in report.values()) == 10
    with pytest.raises(ValueError):
        subpopulation_report(run, 99)


def test_subpopulation_single_group():
    run = _fake_run([_record(1, (0,), [(4.0, 6, (1,))])])
    report = subpopulation_report(run, 0)
    assert set(report) == {1}
    assert report[1].mean_cate == pytest.approx(4.0)
    assert report[1].std_cate == 0.0
    assert report[1].units == 6


def test_subpopulation_recovers_category_effects():
    # effect 5 when c0=0, 15 when c0=1; exact matching recovers both
    rng = np.random.default_rng(17)
    n = 2000
    covs = rng.integers(0, 2, size=(n, 3))
    t = np.tile([0, 1], n // 2)
    y = covs @ np.array([1.0, 2.0, 0.5]) + t * np.where(covs[:, 0] == 1, 15.0, 5.0) + rng.normal(0, 0.05, n)
    matching = _dataset(covs, t, y)
    holdout = _dataset(covs, np.roll(t, 1), y)
    run = run_flame(matching, holdout)
    report = subpopulation_report(run, 0)
    assert report[0].mean_cate == pytest.approx(5.0, abs=0.2)
    assert report[1].mean_cate == pytest.approx(15.0, abs=0.2)


def test_flat_effect_ate_within_two_percent():
    res = generate(SynthSpec(model="decay_exp", n_control=3000, n_treated=3000, seed=20))
    hold = generate(SynthSpec(model="decay_exp", n_control=3000, n_treated=3000, seed=21))
    run = run_flame(res.dataset, hold.dataset)
    assert _n_groups(run)
    assert estimate_ate(run) == pytest.approx(10.0, rel=0.02)


def test_variance_bound_rises_as_relevant_covariates_drop():
    res = generate(SynthSpec(model="decay_pow", n_control=1500, n_treated=1500, seed=22))
    hold = generate(SynthSpec(model="decay_pow", n_control=1500, n_treated=1500, seed=23))
    run = run_flame(res.dataset, hold.dataset, FlameConfig(stop_on_pe_blowup=False))
    levels_with_groups = [lv for lv in run.levels if len(lv.table)]
    assert len(levels_with_groups) >= 2
    first = np.mean(levels_with_groups[0].variance_upper_bound)
    last = np.mean(levels_with_groups[-1].variance_upper_bound)
    assert last > first


def test_unmatchable_arms_zero_groups_pe_blowup():
    # arms never share a signature, and every drop wrecks holdout prediction
    n = 40
    covs = np.zeros((n, 3), dtype=np.int64)
    covs[n // 2 :, :] = 1
    t = np.repeat([0, 1], n // 2)
    matching = _dataset(covs, t, np.arange(n, dtype=float))
    rng = np.random.default_rng(24)
    hcovs = rng.integers(0, 2, size=(400, 3))
    t_h = np.tile([0, 1], 200)
    y_h = hcovs @ np.array([10.0, 10.0, 10.0]) + t_h
    holdout = _dataset(hcovs, t_h, y_h)
    run = run_flame(matching, holdout)
    assert run.stop_reason is StopReason.PE_BLOWUP
    assert _n_groups(run) == 0
    assert run.n_matched == 0


def test_report_serialization_shapes():
    res = generate(SynthSpec(model="quadratic", n_control=300, n_treated=300, seed=18))
    hold = generate(SynthSpec(model="quadratic", n_control=300, n_treated=300, seed=19))
    run = run_flame(res.dataset, hold.dataset)
    payload = matchrun_to_json_dict(run)
    assert payload["stop_reason"] in {r.value for r in StopReason}
    assert payload["n_matched"] + len(payload["unmatched_unit_ids"]) == payload["n_units"]
    parsed = json.loads("".join(matchrun_to_json(run)))
    assert parsed == payload

    units_csv = "".join(matchrun_units_csv(run))
    lines = units_csv.strip().splitlines()
    assert lines[0] == "unit_id,level,signature,cate"
    assert len(lines) - 1 == run.n_matched  # one row per matched unit

    levels_csv = "".join(matchrun_levels_csv(run))
    header, *rows = levels_csv.strip().splitlines()
    assert header == "level,n_active,pe,bf,mq,n_groups,n_matched"
    assert len(rows) == len(run.levels)


def test_group_statistics_bit_exact():
    # one group per (n_treated, n_control) pair: the arm sizes straddle the
    # 8-way unrolled and the 128-element blocks of numpy's pairwise sum
    arms = [(1, 1000), (2, 129), (7, 128), (8, 9), (9, 8), (128, 7), (129, 2), (1000, 1), (1, 1), (8, 128)]
    rng = np.random.default_rng(25)
    code = np.repeat(np.arange(len(arms)), [n_t + n_c for n_t, n_c in arms])
    t = np.concatenate([np.repeat([1, 0], pair) for pair in arms])
    perm = rng.permutation(code.size)  # interleave arms and groups over the rows
    y = rng.normal(1e3, 1.0, code.size) * rng.choice([1.0, 1e-3, 1e5], code.size)
    matching = _dataset(np.stack([code[perm], code[perm] % 2], axis=1), t[perm], y)
    rows = np.arange(40)
    holdout = _dataset(np.stack([rows % 10, rows // 20], axis=1), rows % 2, rng.normal(size=40))
    run = run_flame(matching, holdout, FlameConfig(stop_on_pe_blowup=False))
    [lvl1] = run.levels
    assert sorted(zip(lvl1.table.n_treated.tolist(), lvl1.table.n_control.tolist())) == sorted(arms)
    # each group's CATE and variance bound equal the scalar reference on its rows, bit for bit
    for (_, rows, _, _), cate, bound in zip(group_tuples(lvl1.table), lvl1.cate.tolist(), lvl1.variance_upper_bound.tolist()):
        rows = np.asarray(rows)
        t = matching.outcome[rows[matching.treatment[rows] == 1]]
        c = matching.outcome[rows[matching.treatment[rows] == 0]]
        assert cate == float(t.mean() - c.mean())
        assert bound == variance_upper_bound(t, c)

