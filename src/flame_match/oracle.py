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
import operator
from collections import Counter
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
    p = _check_p(p)
    _check_bin(bin_index, p)
    beta = [Fraction(1)] + [Fraction(bit) for bit in bin_bits(bin_index, p)]
    return LinearSymbolic((Fraction(0),) * (p + 1), tuple(beta))


def _check_p(p, most: int | None = None) -> int:
    """``p`` as an int: a covariate count (no bool) of at least 1, and of at most ``most`` when given."""
    n = None if isinstance(p, bool) or not hasattr(p, "__index__") else operator.index(p)
    if n is None or n < 1 or (most is not None and n > most):
        wanted = "an integer >= 1" if most is None else f"{', '.join(map(str, range(1, most)))} or {most}"
        raise ValueError(f"p must be {wanted}, got {p!r}")
    return n


def _check_bin(bin_index: int, p: int):
    if not (0 <= bin_index < (1 << p)):
        raise ValueError(f"bin index {bin_index} out of range for p={p}")


@cache
def _scale(p: int) -> int:
    """Common denominator of every estimate: arm sizes never exceed 2^p."""
    return math.lcm(*range(1, (1 << p) + 1)) ** 2


def _symbolic(vec, denominator: int) -> LinearSymbolic:
    """The LinearSymbolic whose coefficients are the integers `vec` over `denominator`."""
    coeffs = tuple(Fraction(v, denominator) for v in vec)
    return LinearSymbolic(coeffs[: len(vec) // 2], coeffs[len(vec) // 2 :])


def _merge(left, right, p: int):
    """Pool two results and resolve the pool if it holds both arms.

    A result is (treated, control, open_bins, resolved): the integer outcome
    vectors over (a_0..a_p, b_0..b_p) of its unmatched units per arm, its
    open bins (no estimate yet) and a (bin, estimate) pair per resolved bin.
    Resolving gives every open bin -- its units' own bins and any empty bins
    it covers -- the difference of the per-arm mean outcomes, as integers
    over `_scale(p)`; matched units leave the pool (no replacement).
    """
    treated, control, open_bins, resolved = (a + b for a, b in zip(left, right))
    if not (treated and control):
        return treated, control, open_bins, resolved
    f_t, f_c = _scale(p) // len(treated), _scale(p) // len(control)
    vec = tuple(sum(t) * f_t - sum(c) * f_c for t, c in zip(zip(*treated), zip(*control)))
    return (), (), (), resolved + tuple((b, vec) for b in open_bins)


def _node(bins: tuple[int, ...], states: tuple[int, ...], p: int):
    """The `_merge` result the subtree over `bins` passes up, given those bins' `states`.

    The groups of all levels form a binary tree over the bins: a node holds
    the ascending bins that share their low bits, and its children split on
    the lowest free bit, down to single bins (level 0) under the root (level
    p). A leaf merges its bin's two arms, any other node its two children.
    A node depends only on its own bins and states, so every node below the
    root is collapsed once, through `_subtree`.
    """
    if len(bins) == 1:
        (b,), (s,) = bins, states
        x = (1, *bin_bits(b, p))
        treated = ((x + x,) if s & BinState.TREATED_ONLY else (), (), bins, ())
        control = ((), (x + (0,) * (p + 1),) if s & BinState.CONTROL_ONLY else (), (), ())
        return _merge(treated, control, p)
    return _merge(_subtree(bins[0::2], states[0::2], p), _subtree(bins[1::2], states[1::2], p), p)


# the root stays uncached: each allocation reaches it once
_subtree = cache(_node)


def oracle_flame(allocation, p: int):
    """Per-bin effect estimates for one allocation, or None when invalid."""
    p = _check_p(p)
    states = tuple(BinState(s) for s in allocation)
    if len(states) != (1 << p):
        raise ValueError(f"allocation must cover {1 << p} bins, got {len(states)}")
    *_, open_bins, resolved = _node(tuple(range(1 << p)), states, p)
    if open_bins:
        return None
    return tuple(_symbolic(vec, _scale(p)) for _, vec in sorted(resolved))


@dataclass(frozen=True)
class BiasMatrix:
    p: int
    valid_count: int
    entries: tuple[LinearSymbolic, ...]


def bias_matrix(p: int) -> BiasMatrix:
    """Average per-bin bias over all valid allocations, exact rationals.

    Covers the full 4^(2^p) allocation space: each root child is collapsed
    once per allocation of its own half, every pair of the two lists is
    merged at the root, and the pairs that leave an estimate in every bin are
    valid. p = 4 would take ~4.3e9 root merges, so p is limited to 1, 2 or 3.
    """
    p = _check_p(p, most=3)
    bins = tuple(range(1 << p))
    halves = [[_subtree(bins[k::2], s, p) for s in product(tuple(BinState), repeat=len(bins) // 2)] for k in (0, 1)]
    # the sums are exact, so the order in which allocations arrive is immaterial
    tally = Counter()
    valid = 0
    for left, right in product(*halves):
        *_, open_bins, resolved = _merge(left, right, p)
        if not open_bins:
            valid += 1
            tally.update(resolved)
    sums = [[0] * (2 * (p + 1)) for _ in bins]
    for (b, vec), n in tally.items():
        sums[b] = [a + v * n for a, v in zip(sums[b], vec)]
    # bias = mean estimate over the valid allocations minus the true effect
    entries = tuple(_symbolic(sums[b], _scale(p) * valid) - true_cate(b, p) for b in bins)
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
