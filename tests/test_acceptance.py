"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with: pytest tests/test_acceptance.py -v -s
"""

import itertools
import json
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import sympy

import reference_oracle
from conftest import random_dataset
from flame_match.dataset import Dataset
from flame_match.engine import FlameConfig, StopReason, run_flame
from flame_match.grouper import basic_exact_match, count_and_flag, mixed_radix_keys
from flame_match.oracle import bias_matrix
from flame_match.quality import pooled_prediction_error
from flame_match.synth import SynthSpec, generate

F = Fraction


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[ACCEPTANCE {num:02d}] {status} {name}{suffix}")
    return ok


@pytest.fixture(scope="module")
def bias3():
    t0 = time.perf_counter()
    bm = bias_matrix(3)
    return bm, time.perf_counter() - t0


def test_criterion_01_two_covariate_matrix_exact(tmp_path):
    out_path = str(tmp_path / "bias2.json")
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "flame_match.cli", "oracle-bias", "--p", "2", "--output", out_path],
        capture_output=True,
        text=True,
    )
    elapsed = time.perf_counter() - t0
    ok = proc.returncode == 0 and "valid allocations: 59" in proc.stdout
    payload = json.loads(Path(out_path).read_text()) if ok else {}
    expected_beta = {
        (0, 0): [[0, 1], [20, 59], [41, 118]],
        (1, 0): [[0, 1], [-20, 59], [41, 118]],
        (0, 1): [[0, 1], [20, 59], [-41, 118]],
        (1, 1): [[0, 1], [-20, 59], [-41, 118]],
    }
    if ok:
        ok = payload["valid_count"] == 59
        for entry in payload["entries"]:
            ok = ok and entry["beta_coeffs"] == expected_beta[tuple(entry["bin"])]
            ok = ok and all(num == 0 for num, _ in entry["alpha_coeffs"])
    ok = ok and elapsed < 1.0
    assert _report(1, "two-covariate bias matrix exact, CLI < 1 s", ok, f"{elapsed:.2f}s")


def test_criterion_02_three_covariate_matrix_exact(bias3):
    bm, elapsed = bias3
    expected_count = 38070
    b1 = F(627514, 105)  # 5976 + 34/105
    b2 = F(1649401, 210)  # 7854 + 61/210
    b3 = F(11658)
    c1 = F(89291, 7)  # 12755 + 6/7
    c2 = F(346777, 21)  # 16513 + 4/21
    c3 = F(19035)
    expected = {
        (0, 0, 0): (b1, b2, b3),
        (1, 0, 0): (-b1, b2, b3),
        (0, 1, 0): (c1, -c2, c3),
        (1, 1, 0): (-c1, -c2, c3),
        (0, 0, 1): (c1, c2, -c3),
        (1, 0, 1): (-c1, c2, -c3),
        (0, 1, 1): (b1, -b2, -b3),
        (1, 1, 1): (-b1, -b2, -b3),
    }
    ok = elapsed < 60.0 and bm.valid_count == expected_count
    if bm.valid_count == expected_count:
        for b in range(8):
            bits = tuple((b >> j) & 1 for j in range(3))
            want = tuple(v / expected_count for v in expected[bits])
            ok = ok and bm.entries[b].beta[1:] == want
    detail = f"{elapsed:.1f}s, valid_count={bm.valid_count}, expected {expected_count}"
    _report(2, "three-covariate bias matrix exact", ok, detail)
    assert elapsed < 60.0
    assert bm.valid_count == expected_count, (
        "published three-covariate values are not reproducible by any "
        "value-label-agnostic collapse; see the decisions ledger"
    )
    for b in range(8):
        bits = tuple((b >> j) & 1 for j in range(3))
        assert bm.entries[b].beta[1:] == tuple(v / expected_count for v in expected[bits])


def test_criterion_03_alpha_and_homogeneous_bias_vanish(bias3):
    bm3, _ = bias3
    ok = True
    for p, bm in ((1, bias_matrix(1)), (2, bias_matrix(2)), (3, bm3)):
        for entry in bm.entries:
            ok = ok and all(a == 0 for a in entry.alpha) and entry.beta[0] == 0
    assert _report(3, "baseline and homogeneous-effect coefficients exactly zero (p=1,2,3)", ok)


def test_criterion_04_worked_example_golden(table1):
    keys = mixed_radix_keys(table1, (0, 1))
    flags, counted = count_and_flag(keys)
    ok = (
        keys.b.tolist() == [6, 4, 1, 4]
        and keys.b_plus.tolist() == [18, 11, 3, 12]
        and counted.c.tolist() == [1, 2, 1, 2]
        and counted.c_plus.tolist() == [1, 1, 1, 1]
        and flags.tolist() == [False, True, False, True]
    )
    assert _report(4, "four-unit worked example keys/counts/flags exact", ok)


def test_criterion_05_linear_error_decomposition():
    rng = np.random.default_rng(55)
    n, sigma = 10_000, 0.5
    w = np.array([1.0, 2.0, 3.0])
    codes = rng.integers(0, 2, size=(n, 3))
    t = np.tile([0, 1], n // 2)
    y = (2 * codes - 1) @ w + 7.0 * t + rng.normal(0, sigma, n)
    d = Dataset(
        covariates=codes,
        arities=np.array([2, 2, 2]),
        treatment=t,
        outcome=y,
        covariate_names=("x1", "x2", "x3"),
        unit_ids=np.arange(n),
    )
    subsets = [tuple(sorted(s)) for r in range(4) for s in itertools.combinations(range(3), r)]
    analytic = {}
    ok = True
    worst = 0.0
    for theta in subsets:
        dropped = [j for j in range(3) if j not in theta]
        analytic[theta] = float(np.sum(w[dropped] ** 2) + sigma**2)
        measured = pooled_prediction_error(d, theta)
        rel = abs(measured - analytic[theta]) / analytic[theta]
        worst = max(worst, rel)
        ok = ok and rel <= 0.05
    # monotone ordering holds exactly on the analytic values
    for ta in subsets:
        for tb in subsets:
            kept_a = np.sum(w[list(ta)] ** 2)
            kept_b = np.sum(w[list(tb)] ** 2)
            if kept_a > kept_b:
                ok = ok and analytic[ta] < analytic[tb]
    assert _report(5, "linear-model error decomposition within 5% on all 8 subsets", ok, f"worst {worst:.3f}")


def test_criterion_06_quadratic_model_exact_first_level():
    spec = SynthSpec(model="quadratic", n_control=10_000, n_treated=10_000, seed=61)
    hold_spec = SynthSpec(model="quadratic", n_control=10_000, n_treated=10_000, seed=62)
    data, hold = generate(spec), generate(hold_spec)
    t0 = time.perf_counter()
    run = run_flame(data.dataset, hold.dataset, FlameConfig())
    elapsed = time.perf_counter() - t0
    lvl1_matched = int(run.levels[0].table.sizes.sum())
    frac = lvl1_matched / data.dataset.n_units
    truth = dict(zip(data.dataset.unit_ids.tolist(), data.true_cates.tolist()))
    sq = [
        (cate - truth[uid]) ** 2
        for lv in run.levels
        for cate, uid in zip(np.repeat(lv.cate, lv.table.sizes).tolist(), run.unit_ids[lv.table.rows].tolist())
    ]
    rmse = float(np.sqrt(np.mean(sq)))
    ok = frac >= 0.99 and rmse <= 3 * 0.1 and elapsed < 30.0
    assert _report(
        6,
        "quadratic model: >=99% matched exactly at level 1, CATE RMSE <= 3 sigma",
        ok,
        f"frac={frac:.4f}, rmse={rmse:.3f}, {elapsed:.1f}s",
    )


def test_criterion_07_irrelevant_covariates_dropped_first():
    spec = SynthSpec(model="irrelevant", n_control=10_000, n_treated=10_000, seed=71)
    hold_spec = SynthSpec(model="irrelevant", n_control=10_000, n_treated=10_000, seed=72)
    data, hold = generate(spec), generate(hold_spec)
    run = run_flame(data.dataset, hold.dataset, FlameConfig(epsilon=0.02))
    irrelevant = set(range(10, 30))
    ok = (
        len(run.dropped_order) == 20
        and set(run.dropped_order) == irrelevant
        and run.n_matched >= 0.70 * data.dataset.n_units
        and run.stop_reason in (StopReason.PE_BLOWUP, StopReason.ONE_ARM_EXHAUSTED, StopReason.NO_UNMATCHED_DATA)
    )
    detail = f"dropped={len(run.dropped_order)}, matched={run.n_matched}, stop={run.stop_reason.value}"
    assert _report(7, "all 20 irrelevant covariates dropped before stopping; >=70% matched", ok, detail)


def test_criterion_08_backend_equivalence_200_cases():
    rng = np.random.default_rng(88)
    ok = True
    for _ in range(200):
        n = int(rng.integers(2, 2001))
        p = int(rng.integers(1, 9))
        d = random_dataset(rng, n=n, p=p, max_arity=4)
        size = int(rng.integers(1, p + 1))
        active = tuple(sorted(rng.choice(p, size=size, replace=False).tolist()))
        res_a = basic_exact_match(d, np.arange(n), active, backend="mixed_radix")
        res_b = basic_exact_match(d, np.arange(n), active, backend="tuple_key")
        same = len(res_a.table) == len(res_b.table) and all(
            np.array_equal(getattr(res_a.table, col), getattr(res_b.table, col))
            for col in ("signatures", "offsets", "rows")
        )
        ok = ok and same and np.array_equal(res_a.matched, res_b.matched)
    assert _report(8, "mixed-radix and tuple-key partitions identical on 200 random datasets", ok)


def test_criterion_09_scalability_smoke():
    rng = np.random.default_rng(99)
    n, n_rel, n_irr = 100_000, 10, 5
    t = np.repeat([0, 1], n // 2)
    s = rng.choice([-1.0, 1.0], size=n_rel)
    alpha = rng.normal(10 * s, 1.0)
    beta = rng.normal(1.5, 0.15, size=n_rel)

    def draw(seed):
        r = np.random.default_rng(seed)
        rel = (r.random((n, n_rel)) < 0.5).astype(np.int64)
        p_extra = np.where(t[:, None] == 1, 0.9, 0.1)
        irr = (r.random((n, n_irr)) < p_extra).astype(np.int64)
        covs = np.hstack([rel, irr])
        first5 = rel[:, :5].astype(float)
        pairs = (first5.sum(1) ** 2 - (first5**2).sum(1)) / 2
        y = rel @ alpha + t * (rel @ beta + pairs) + r.normal(0, 0.1, n)
        return Dataset(
            covariates=covs,
            arities=np.full(n_rel + n_irr, 2, dtype=np.int64),
            treatment=t,
            outcome=y,
            covariate_names=tuple(f"x{i}" for i in range(n_rel + n_irr)),
            unit_ids=np.arange(n, dtype=np.int64),
        )

    matching, holdout = draw(991), draw(992)
    t0 = time.perf_counter()
    run = run_flame(matching, holdout, FlameConfig())
    elapsed = time.perf_counter() - t0
    peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (1024**2)
    ok = elapsed < 300.0 and peak_gb < 4.0 and run.n_matched > 0.5 * n and sum(len(lv.table) for lv in run.levels) > 0
    assert _report(
        9,
        "100k x 15 run end-to-end < 5 min, peak memory < 4 GB",
        ok,
        f"{elapsed:.1f}s, peak {peak_gb:.2f} GB, matched {run.n_matched}",
    )


def test_criterion_10_single_covariate_cross_check():
    valid_ref, bias_ref = reference_oracle.enumerate_bias()
    bm = bias_matrix(1)
    ok = bm.valid_count == valid_ref
    symbols = (reference_oracle.A0, reference_oracle.A1, reference_oracle.B0, reference_oracle.B1)
    for b in range(2):
        expr = sympy.expand(bias_ref[b])
        got = bm.entries[b]
        for sym, coeff in zip(symbols, (*got.alpha, *got.beta)):
            ref_coeff = expr.coeff(sym)
            ok = ok and sympy.Rational(coeff.numerator, coeff.denominator) == ref_coeff
            expr = expr - ref_coeff * sym
        ok = ok and sympy.simplify(expr) == 0
    assert _report(10, "single-covariate enumeration matches independent evaluator exactly", ok, f"valid={bm.valid_count}")
