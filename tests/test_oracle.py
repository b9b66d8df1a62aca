import hashlib
import itertools
import json
from fractions import Fraction
from pathlib import Path

import pytest

from flame_match.oracle import (
    BinState,
    LinearSymbolic,
    bias_matrix,
    bias_matrix_to_json,
    bin_bits,
    format_bias_table,
    format_symbolic,
    oracle_flame,
    true_cate,
    unit_outcome,
)

GOLDEN = Path(__file__).resolve().parent / "golden"

E, T, C, B = BinState.EMPTY, BinState.TREATED_ONLY, BinState.CONTROL_ONLY, BinState.BOTH
F = Fraction


def coeffs(*values):
    return tuple(F(v) for v in values)


def test_true_cate_values():
    assert true_cate(0, 2).beta == coeffs(1, 0, 0)
    assert true_cate(3, 2).beta == coeffs(1, 1, 1)
    assert true_cate(2, 3).beta == coeffs(1, 0, 1, 0)  # x2=1 only
    assert all(a == 0 for a in true_cate(3, 2).alpha)


def test_unit_outcome_values():
    assert unit_outcome(0, "control", 2).alpha == coeffs(1, 0, 0)
    assert unit_outcome(0, "control", 2).beta == coeffs(0, 0, 0)
    treated = unit_outcome(1, "treated", 2)
    assert treated.alpha == coeffs(1, 1, 0)
    assert treated.beta == coeffs(1, 1, 0)


def test_outcome_difference_is_true_cate():
    for p in (1, 2, 3):
        for b in range(1 << p):
            diff = unit_outcome(b, "treated", p) - unit_outcome(b, "control", p)
            assert diff == true_cate(b, p)


def test_all_both_allocation_is_exact():
    p = 2
    estimates = oracle_flame([B, B, B, B], p)
    assert estimates is not None
    for b in range(4):
        assert estimates[b] == true_cate(b, p)


def test_single_covariate_cross_pair():
    estimates = oracle_flame([T, C], 1)
    assert estimates is not None
    # (a0 + b0) - (a0 + a1) = b0 - a1 for both bins
    expected = LinearSymbolic(alpha=coeffs(0, -1), beta=coeffs(1, 0))
    assert estimates[0] == expected
    assert estimates[1] == expected


def test_unmatchable_allocations_invalid():
    assert oracle_flame([B, T], 1) is None
    assert oracle_flame([T, T], 1) is None
    assert oracle_flame([B, E, E, E], 2) is None
    assert oracle_flame([E, E], 1) is None


def test_empty_bins_can_inherit_coarse_estimates():
    # both arms exist only after all covariates drop; the pooled difference
    # then covers the empty bins too
    estimates = oracle_flame([T, E, E, C], 2)
    assert estimates is not None
    assert len({e for e in estimates}) == 1


def test_allocation_length_checked():
    with pytest.raises(ValueError):
        oracle_flame([B, B], 2)


def test_bias_matrix_p1():
    bm = bias_matrix(1)
    assert bm.valid_count == 3
    assert bm.entries[0].beta == coeffs(0, F(1, 3))
    assert bm.entries[1].beta == coeffs(0, F(-1, 3))
    assert all(a == 0 for e in bm.entries for a in e.alpha)


def test_bias_matrix_p2_exact():
    bm = bias_matrix(2)
    assert bm.valid_count == 59
    assert bm.entries[0].beta == coeffs(0, F(20, 59), F(41, 118))
    assert bm.entries[1].beta == coeffs(0, F(-20, 59), F(41, 118))
    assert bm.entries[2].beta == coeffs(0, F(20, 59), F(-41, 118))
    assert bm.entries[3].beta == coeffs(0, F(-20, 59), F(-41, 118))


def test_bias_matrix_argument_errors():
    for bad in (0, 4, 5, -1):
        with pytest.raises(ValueError):
            bias_matrix(bad)


@pytest.mark.parametrize("p", [1, 2])
def test_alpha_and_homogeneous_cancellation(p):
    bm = bias_matrix(p)
    for entry in bm.entries:
        assert all(a == 0 for a in entry.alpha)
        assert entry.beta[0] == 0


@pytest.mark.parametrize("p", [1, 2])
def test_flip_symmetry(p):
    bm = bias_matrix(p)
    for b in range(1 << p):
        for j in range(1, p + 1):
            partner = bm.entries[b ^ (1 << (j - 1))]
            assert partner.beta[j] == -bm.entries[b].beta[j]


def test_complement_closure_p2():
    swap = {E: E, T: C, C: T, B: B}
    for digits in itertools.product((E, T, C, B), repeat=4):
        mirrored = tuple(swap[s] for s in digits)
        assert (oracle_flame(digits, 2) is None) == (oracle_flame(mirrored, 2) is None)


def test_per_allocation_alpha_agreement_under_arm_swap():
    swap = {E: E, T: C, C: T, B: B}
    for digits in itertools.product((E, T, C, B), repeat=4):
        est = oracle_flame(digits, 2)
        if est is None:
            continue
        mirrored = oracle_flame(tuple(swap[s] for s in digits), 2)
        for b in range(4):
            assert tuple(-a for a in mirrored[b].alpha) == est[b].alpha


def test_linear_symbolic_algebra():
    x = LinearSymbolic(coeffs(1, 2), coeffs(0, 1))
    y = LinearSymbolic(coeffs(0, 1), coeffs(2, -1))
    assert (x + y).alpha == coeffs(1, 3)
    assert (x - y).beta == coeffs(-2, 2)


def test_table_and_json_output():
    bm = bias_matrix(2)
    table = format_bias_table(bm)
    assert "valid allocations: 59" in table
    assert "bin (x1=0, x2=0)" in table
    payload = json.loads(bias_matrix_to_json(bm))
    assert payload["p"] == 2 and payload["valid_count"] == 59
    assert payload["entries"][0]["bin"] == [0, 0]
    assert payload["entries"][0]["beta_coeffs"][1] == [20, 59]
    assert bin_bits(5, 3) == (1, 0, 1)


def test_bias_matrix_p3_golden():
    # tests/golden/oracle-p3.json is `flame-match oracle-bias --p 3 --output` verbatim
    expected = (GOLDEN / "oracle-p3.json").read_text(encoding="utf-8")
    assert bias_matrix_to_json(bias_matrix(3)) + "\n" == expected


def test_oracle_flame_p2_golden():
    # one line per allocation of product(BinState, repeat=4), allocation[b] = bin b:
    # "None" when invalid, else the per-bin estimates joined by ";"
    lines = []
    for allocation in itertools.product(BinState, repeat=4):
        estimates = oracle_flame(allocation, 2)
        lines.append("None" if estimates is None else ";".join(format_symbolic(e) for e in estimates))
    assert "\n".join(lines) == (GOLDEN / "oracle-p2-allocations.txt").read_text(encoding="utf-8")


# sha256 of every p = 3 allocation's estimates, one line each in
# product(range(4), repeat=8) order: "None" when invalid, else each bin's
# alpha then beta coefficients as "num/den", space-separated, bins joined by ";"
P3_ALLOCATIONS_SHA256 = "82ffbe79fbe492d8ded0de47bcf27cf0ca38f2fe285e4db7656ccd1525687eff"


def test_oracle_flame_p3_allocations_digest():
    digest = hashlib.sha256()
    valid = 0
    for allocation in itertools.product(range(4), repeat=8):
        estimates = oracle_flame(allocation, 3)
        if estimates is None:
            digest.update(b"None\n")
            continue
        valid += 1
        line = ";".join(" ".join(f"{c.numerator}/{c.denominator}" for c in e.alpha + e.beta) for e in estimates)
        digest.update(line.encode() + b"\n")
    assert valid == 17931
    assert digest.hexdigest() == P3_ALLOCATIONS_SHA256


def test_bin_and_arm_arguments_checked():
    for bad in (-1, 4):
        with pytest.raises(ValueError, match="out of range for p=2"):
            true_cate(bad, 2)
        with pytest.raises(ValueError, match="out of range for p=2"):
            unit_outcome(bad, "treated", 2)
    for arm in ("both", 2, None):
        with pytest.raises(ValueError, match="arm must be treated/control"):
            unit_outcome(0, arm, 2)
    assert unit_outcome(1, True, 2) == unit_outcome(1, 1, 2) == unit_outcome(1, "treated", 2)
    assert unit_outcome(1, False, 2) == unit_outcome(1, 0, 2) == unit_outcome(1, "control", 2)
