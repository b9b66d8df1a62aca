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

    @classmethod
    def zero(cls, p: int) -> "LinearSymbolic":
        z = (Fraction(0),) * (p + 1)
        return cls(z, z)

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

    def __neg__(self) -> "LinearSymbolic":
        return LinearSymbolic(tuple(-a for a in self.alpha), tuple(-b for b in self.beta))

    def scale(self, factor) -> "LinearSymbolic":
        f = Fraction(factor)
        return LinearSymbolic(tuple(a * f for a in self.alpha), tuple(b * f for b in self.beta))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.alpha) and all(b == 0 for b in self.beta)


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


def _outcome_vec(bin_index: int, treated: bool, p: int) -> tuple[int, ...]:
    # integer coefficient vector over (a_0..a_p, b_0..b_p)
    bits = bin_bits(bin_index, p)
    alpha = (1, *bits)
    beta = (1, *bits) if treated else (0,) * (p + 1)
    return alpha + beta


def _collapse(states, p: int):
    """Run the drop-order collapse; integer-exact per-bin estimates.

    Returns (numerators, denominators) with numerators[b] an integer vector
    and denominators[b] > 0, or None when some bin never receives an
    estimate. When a group with both arms forms, its estimate (mean treated
    outcome minus mean control outcome) applies to every bin that agrees with
    the group on the remaining coordinates and has no estimate yet -- the
    member units' own bins, plus any empty bins the group's signature covers.
    Matched units leave the pool (without replacement); a bin keeps the first
    estimate it receives.
    """
    nbins = 1 << p
    width = 2 * (p + 1)
    num = [None] * nbins
    den = [0] * nbins

    units = []
    for b in range(nbins):
        s = states[b]
        if s in (BinState.TREATED_ONLY, BinState.BOTH):
            units.append((b, True))
        if s in (BinState.CONTROL_ONLY, BinState.BOTH):
            units.append((b, False))

    for level in range(p + 1):
        if not units:
            break
        mask = (1 << (p - level)) - 1
        buckets: dict[int, list[tuple[int, bool]]] = {}
        for b, t in units:
            buckets.setdefault(b & mask, []).append((b, t))
        units = []
        for key, members in buckets.items():
            tr = [b for b, t in members if t]
            co = [b for b, t in members if not t]
            if tr and co:
                sum_t = [0] * width
                for b in tr:
                    v = _outcome_vec(b, True, p)
                    for i in range(width):
                        sum_t[i] += v[i]
                sum_c = [0] * width
                for b in co:
                    v = _outcome_vec(b, False, p)
                    for i in range(width):
                        sum_c[i] += v[i]
                n_t, n_c = len(tr), len(co)
                vec = tuple(sum_t[i] * n_c - sum_c[i] * n_t for i in range(width))
                d = n_t * n_c
                for b in range(nbins):
                    if num[b] is None and (b & mask) == key:
                        num[b] = vec
                        den[b] = d
            else:
                units.extend(members)

    if any(v is None for v in num):
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


def bias_matrix(p: int, allow_heavy: bool = False) -> BiasMatrix:
    """Average per-bin bias over all valid allocations, exact rationals.

    Scans the full 4^(2^p) allocation space and keeps the allocations whose
    collapse leaves an estimate in every bin. p = 4 means ~4.3e9 collapses
    and is refused unless ``allow_heavy`` is set.
    """
    if p not in (1, 2, 3, 4):
        raise ValueError(f"p must be 1, 2, 3 or 4, got {p}")
    if p == 4 and not allow_heavy:
        raise ValueError("p=4 enumerates ~4.3e9 allocations; pass allow_heavy=True to run it anyway")
    nbins = 1 << p
    width = 2 * (p + 1)
    # common denominator for all group means: arm sizes never exceed 2^p
    scale = math.lcm(*range(1, nbins + 1)) ** 2
    acc = [[0] * width for _ in range(nbins)]
    valid = 0
    for digits in product(tuple(BinState), repeat=nbins):
        states = digits[::-1]  # bin 0 is the least significant digit
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
    if valid == 0:
        raise ValueError(f"no valid allocations for p={p}")
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
