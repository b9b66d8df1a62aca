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


def _check_bin(bin_index: int, p: int):
    if not (0 <= bin_index < (1 << p)):
        raise ValueError(f"bin index {bin_index} out of range for p={p}")


def _node(bins: tuple[int, ...], states: tuple[int, ...], p: int):
    """What the subtree over `bins` passes up, given those bins' `states`.

    Returns (treated, control, open_bins, resolved): the integer outcome
    vectors over (a_0..a_p, b_0..b_p) of its still-unmatched treated and
    control units, its open bins (no estimate yet), and a (bin, numerator
    vector, denominator) triple for every bin it resolved. The groups of all
    levels form a binary tree over the bins: a node holds the ascending bins
    that share their low bits, and its two children split on the lowest free
    bit, so the leaves are single bins (level 0) and the root holds every bin
    (level p). A node holding both arms resolves: the difference of its
    per-arm mean outcomes goes to every open bin under it -- the member
    units' own bins, plus any empty bins it covers -- and it passes up no
    units (matched units leave the pool, without replacement). The result
    depends only on the subtree's own bins and states, so every node below
    the root is collapsed once, through `_subtree`.
    """
    if len(bins) == 1:
        (b,), (s,) = bins, states
        x = (1, *bin_bits(b, p))
        treated = (x + x,) if s & BinState.TREATED_ONLY else ()
        control = (x + (0,) * (p + 1),) if s & BinState.CONTROL_ONLY else ()
        open_bins, resolved = bins, ()
    else:
        t0, c0, o0, r0 = _subtree(bins[0::2], states[0::2], p)
        t1, c1, o1, r1 = _subtree(bins[1::2], states[1::2], p)
        treated, control, open_bins, resolved = t0 + t1, c0 + c1, o0 + o1, r0 + r1
    if not (treated and control):
        return treated, control, open_bins, resolved
    n_t, n_c = len(treated), len(control)
    vec = tuple(sum(t) * n_c - sum(c) * n_t for t, c in zip(zip(*treated), zip(*control)))
    return (), (), (), resolved + tuple((b, vec, n_t * n_c) for b in open_bins)


# the root stays uncached: each allocation reaches it once
_subtree = cache(_node)


def oracle_flame(allocation, p: int):
    """Per-bin effect estimates for one allocation, or None when invalid."""
    states = tuple(BinState(s) for s in allocation)
    if len(states) != (1 << p):
        raise ValueError(f"allocation must cover {1 << p} bins, got {len(states)}")
    *_, open_bins, resolved = _node(tuple(range(1 << p)), states, p)
    if open_bins:
        return None
    return tuple(
        LinearSymbolic(
            tuple(Fraction(vec[i], d) for i in range(p + 1)),
            tuple(Fraction(vec[i], d) for i in range(p + 1, 2 * (p + 1))),
        )
        for _, vec, d in sorted(resolved)
    )


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
    bins = tuple(range(nbins))
    valid = 0
    # the sums are exact, so the order in which allocations arrive is immaterial
    for states in product(tuple(BinState), repeat=nbins):
        *_, open_bins, resolved = _node(bins, states, p)
        if open_bins:
            continue
        valid += 1
        for b, vec, d in resolved:
            f = scale // d
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
