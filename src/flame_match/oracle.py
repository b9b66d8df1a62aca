"""Exact symbolic bias enumeration for the idealized drop-order matcher.

Binary covariates x_1..x_p span 2^p bins. Outcomes follow the linear model

    y = a_0 + sum_j a_j x_j + T * (b_0 + sum_j b_j x_j)

with one unit per occupied (bin, arm). The idealized matcher knows the true
covariate importance order and drops covariate p first, then p-1, and so on;
at each level the still-unmatched units group on the remaining coordinates,
and any group holding both arms resolves to the difference of its per-arm
mean outcomes. An allocation is valid when every bin ends up with an
estimate. The bias matrix averages (estimate - true effect) per bin over all
valid allocations, in exact rational arithmetic throughout.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction
from functools import cache
from itertools import product


class BinState(IntEnum):
    EMPTY = 0
    TREATED_ONLY = 1
    CONTROL_ONLY = 2
    BOTH = 3


@dataclass(frozen=True)
class LinearSymbolic:
    """Exact-rational linear combination over a_0..a_p and b_0..b_p."""

    alpha: tuple[Fraction, ...]
    beta: tuple[Fraction, ...]

    def __add__(self, other: "LinearSymbolic") -> "LinearSymbolic":
        return LinearSymbolic(
            tuple(a + b for a, b in zip(self.alpha, other.alpha)),
            tuple(a + b for a, b in zip(self.beta, other.beta)),
        )

    def __sub__(self, other: "LinearSymbolic") -> "LinearSymbolic":
        return LinearSymbolic(
            tuple(a - b for a, b in zip(self.alpha, other.alpha)),
            tuple(a - b for a, b in zip(self.beta, other.beta)),
        )


def bin_bits(bin_index: int, p: int) -> tuple[int, ...]:
    """Covariate values (x_1..x_p) of a bin; x_1 is the least significant bit."""
    return tuple((bin_index >> j) & 1 for j in range(p))


def true_cate(bin_index: int, p: int) -> LinearSymbolic:
    """Model treatment effect in a bin: b_0 plus b_j for every set bit."""
    _check_bin(bin_index, p)
    beta = [Fraction(1)] + [Fraction(bit) for bit in bin_bits(bin_index, p)]
    return LinearSymbolic((Fraction(0),) * (p + 1), tuple(beta))


def unit_outcome(bin_index: int, arm, p: int) -> LinearSymbolic:
    """Noise-free outcome of the single unit in (bin, arm)."""
    _check_bin(bin_index, p)
    treated = _arm_flag(arm)
    alpha = [Fraction(1)] + [Fraction(bit) for bit in bin_bits(bin_index, p)]
    base = LinearSymbolic(tuple(alpha), (Fraction(0),) * (p + 1))
    return base + true_cate(bin_index, p) if treated else base


def _check_bin(bin_index: int, p: int):
    if not (0 <= bin_index < (1 << p)):
        raise ValueError(f"bin index {bin_index} out of range for p={p}")


def _arm_flag(arm) -> bool:
    if arm in (1, "treated", True):
        return True
    if arm in (0, "control", False):
        return False
    raise ValueError(f"arm must be treated/control, got {arm!r}")


@cache
def _outcome_vec(bin_index: int, treated: bool, p: int) -> tuple[int, ...]:
    # integer coefficient vector over (a_0..a_p, b_0..b_p); cached because
    # bias_matrix(3) asks for its 16 distinct vectors ~520k times
    bits = bin_bits(bin_index, p)
    alpha = (1, *bits)
    beta = (1, *bits) if treated else (0,) * (p + 1)
    return alpha + beta


def _collapse(states, p: int):
    """Run the drop-order collapse; integer-exact per-bin estimates.

    Returns (numerators, denominators) with numerators[b] an integer vector
    and denominators[b] > 0, or None when some bin never receives an
    estimate. The groups of all levels form a binary tree over the bins:
    a node holds the ascending bins that share their low bits, and its two
    children split on the lowest free bit, so the leaves are single bins
    (level 0) and the root holds every bin (level p). Each node passes up
    the outcome vectors of its still-unmatched treated and control units and
    its open bins (no estimate yet). A node holding both arms resolves: the
    difference of its per-arm mean outcomes goes to every open bin under it
    -- the member units' own bins, plus any empty bins it covers -- and it
    passes up nothing (matched units leave the pool, without replacement).
    """
    num = [None] * (1 << p)
    den = [0] * (1 << p)

    def node(bins):
        if len(bins) == 1:
            b = bins[0]
            s = states[b]
            treated = [_outcome_vec(b, True, p)] if s in (BinState.TREATED_ONLY, BinState.BOTH) else []
            control = [_outcome_vec(b, False, p)] if s in (BinState.CONTROL_ONLY, BinState.BOTH) else []
            open_bins = [b]
        else:
            t0, c0, o0 = node(bins[0::2])
            t1, c1, o1 = node(bins[1::2])
            treated, control, open_bins = t0 + t1, c0 + c1, o0 + o1
        if not (treated and control):
            return treated, control, open_bins
        n_t, n_c = len(treated), len(control)
        vec = tuple(sum(t) * n_c - sum(c) * n_t for t, c in zip(zip(*treated), zip(*control)))
        for b in open_bins:
            num[b] = vec
            den[b] = n_t * n_c
        return [], [], []

    if node(range(1 << p))[2]:
        return None
    return num, den


def oracle_flame(allocation, p: int):
    """Per-bin effect estimates for one allocation, or None when invalid."""
    states = [BinState(s) for s in allocation]
    if len(states) != (1 << p):
        raise ValueError(f"allocation must cover {1 << p} bins, got {len(states)}")
    collapsed = _collapse(states, p)
    if collapsed is None:
        return None
    num, den = collapsed
    out = []
    for b in range(1 << p):
        vec, d = num[b], den[b]
        out.append(
            LinearSymbolic(
                tuple(Fraction(vec[i], d) for i in range(p + 1)),
                tuple(Fraction(vec[i], d) for i in range(p + 1, 2 * (p + 1))),
            )
        )
    return tuple(out)


@dataclass(frozen=True)
class BiasMatrix:
    p: int
    valid_count: int
    entries: tuple[LinearSymbolic, ...]


def bias_matrix(p: int) -> BiasMatrix:
    """Average per-bin bias over all valid allocations, exact rationals.

    Scans the full 4^(2^p) allocation space and keeps the allocations whose
    collapse leaves an estimate in every bin. p = 4 would take ~4.3e9
    collapses, so p is limited to 1, 2 or 3.
    """
    if p not in (1, 2, 3):
        raise ValueError(f"p must be 1, 2 or 3, got {p}")
    nbins = 1 << p
    width = 2 * (p + 1)
    # common denominator for all group means: arm sizes never exceed 2^p
    scale = math.lcm(*range(1, nbins + 1)) ** 2
    acc = [[0] * width for _ in range(nbins)]
    valid = 0
    # the sums are exact, so the order in which allocations arrive is immaterial
    for states in product(tuple(BinState), repeat=nbins):
        collapsed = _collapse(states, p)
        if collapsed is None:
            continue
        valid += 1
        num, den = collapsed
        for b in range(nbins):
            f = scale // den[b]
            vec = num[b]
            row = acc[b]
            for i in range(width):
                row[i] += vec[i] * f
    # bias = mean estimate over the valid allocations minus the true effect
    total = scale * valid
    entries = tuple(
        LinearSymbolic(
            tuple(Fraction(acc[b][i], total) for i in range(p + 1)),
            tuple(Fraction(acc[b][i], total) for i in range(p + 1, width)),
        )
        - true_cate(b, p)
        for b in range(nbins)
    )
    return BiasMatrix(p=p, valid_count=valid, entries=entries)


def _coeff_str(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def format_symbolic(e: LinearSymbolic) -> str:
    terms = []
    for sym, coeffs in (("a", e.alpha), ("b", e.beta)):
        for j, c in enumerate(coeffs):
            if c != 0:
                terms.append(f"({_coeff_str(c)})*{sym}{j}")
    return " + ".join(terms) if terms else "0"


def format_bias_table(bm: BiasMatrix) -> str:
    """Human-readable per-bin bias table."""
    lines = [f"p = {bm.p}", f"valid allocations: {bm.valid_count}", ""]
    for b, entry in enumerate(bm.entries):
        bits = bin_bits(b, bm.p)
        label = ", ".join(f"x{j + 1}={v}" for j, v in enumerate(bits))
        lines.append(f"bin ({label}): {format_symbolic(entry)}")
    return "\n".join(lines)


def bias_matrix_to_json_dict(bm: BiasMatrix) -> dict:
    return {
        "p": bm.p,
        "valid_count": bm.valid_count,
        "entries": [
            {
                "bin": list(bin_bits(b, bm.p)),
                "alpha_coeffs": [[c.numerator, c.denominator] for c in e.alpha],
                "beta_coeffs": [[c.numerator, c.denominator] for c in e.beta],
            }
            for b, e in enumerate(bm.entries)
        ],
    }


def bias_matrix_to_json(bm: BiasMatrix) -> str:
    return json.dumps(bias_matrix_to_json_dict(bm), indent=2)
