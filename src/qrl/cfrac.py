"""Integer-exact continued fractions, the principal cycle, units, regulators.

The expansion never touches floats: a state is the (a, b) pair of
(b + sqrt(d))/(2a), the partial quotient is an exact floor via isqrt, and
the period starts at the first reduced state and ends on the return to it.
`cf_orbit` is the one step, also used for class numbers. The regulator is
accumulated as a sum of logarithms in extended precision; an exact
big-integer unit is available separately for cross-checks.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from math import ceil, gcd, isqrt, log, sqrt

from mpmath import mp

from .quadorder import QuadIdeal, QuadIrrational, canonical_irrational, is_reduced_state


class PeriodOverflow(RuntimeError):
    """A continued fraction failed to close within the step budget."""


@dataclass(frozen=True)
class CFExpansion:
    preperiod: tuple[int, ...]
    period: tuple[int, ...]
    cycle: tuple[QuadIrrational, ...]


@dataclass(frozen=True)
class UnitInfo:
    regulator: float
    period_length: int
    norm_sign: int


@dataclass(frozen=True)
class ExactUnit:
    """(x + y*sqrt(d))/2 with x^2 - d*y^2 = 4*norm_sign."""

    d: int
    x: int
    y: int
    norm_sign: int


def default_max_steps(d: int) -> int:
    return 10 * ceil(sqrt(d) * log(d)) + 10


def cf_orbit(d: int, a: int, b: int) -> Iterator[tuple[int, int, int]]:
    """(quotient, a, b) of (b + sqrt(d))/(2a), then of each complete quotient."""
    s = isqrt(d)
    while True:
        twoa = 2 * a
        # floor((b + sqrt(d))/(2a)); sqrt(d) is irrational, so the isqrt
        # shift is exact for either sign of a (a can dip negative before
        # the orbit reaches a reduced state)
        alpha = (b + s) // twoa if a > 0 else (b + s + 1) // twoa
        yield alpha, a, b
        b = twoa * alpha - b
        a = (d - b * b) // (2 * twoa)


def cf_expand(rho: QuadIrrational, max_steps: int | None = None) -> CFExpansion:
    """Expand rho until it returns to its first reduced state; quotients are exact."""
    d = rho.d
    if max_steps is None:
        max_steps = default_max_steps(d)
    s = isqrt(d)
    quots: list[int] = []
    cycle: list[QuadIrrational] = []
    # at most max_steps + 1 quotients, then the state that closes the cycle
    for alpha, a, b in islice(cf_orbit(d, rho.a, rho.b), max(1, max_steps + 2)):
        if cycle and a == cycle[0].a and b == cycle[0].b:
            j = len(quots) - len(cycle)
            return CFExpansion(tuple(quots[:j]), tuple(quots[j:]), tuple(cycle))
        # every state after a reduced one is reduced
        if cycle or is_reduced_state(a, b, s):
            cycle.append(QuadIrrational(d, a, b))
        quots.append(alpha)
    raise PeriodOverflow(
        f"continued fraction of ({b}+sqrt({d}))/{2 * a} did not close "
        f"within {max_steps} steps"
    )


@lru_cache(maxsize=None)
def principal_expansion(d: int) -> CFExpansion:
    """Expansion of (d%2 + sqrt(d))/2, whose cycle is the principal cycle."""
    return cf_expand(canonical_irrational(d))


def fundamental_unit(d: int, dps: int = 30) -> UnitInfo:
    """Regulator as sum of log rho over the principal cycle; sign (-1)^l."""
    exp = principal_expansion(d)
    with mp.workdps(dps):
        root = mp.sqrt(d)
        reg = float(mp.fsum(mp.log((rho.b + root) / (2 * rho.a)) for rho in exp.cycle))
    length = len(exp.period)
    return UnitInfo(reg, length, -1 if length % 2 else 1)


def exact_unit(d: int) -> ExactUnit:
    """The fundamental unit with big-integer coordinates; d should be modest."""
    exp = principal_expansion(d)
    x_acc, y_acc, den = 1, 0, 1
    for rho in exp.cycle:
        x_acc, y_acc = x_acc * rho.b + y_acc * d, x_acc + y_acc * rho.b
        den *= 2 * rho.a
        g = gcd(gcd(x_acc, y_acc), den)
        if g > 1:
            x_acc, y_acc, den = x_acc // g, y_acc // g, den // g
    assert (2 * x_acc) % den == 0 and (2 * y_acc) % den == 0
    x, y = 2 * x_acc // den, 2 * y_acc // den
    sign = -1 if len(exp.period) % 2 else 1
    assert x * x - d * y * y == 4 * sign
    return ExactUnit(d, x, y, sign)


def reduced_principal_ideals(d: int) -> set[QuadIdeal]:
    return {rho.to_ideal() for rho in principal_expansion(d).cycle}


def is_norm_of_reduced_principal(d: int, n: int) -> bool:
    if n < 1:
        raise ValueError("is_norm_of_reduced_principal: n must be positive")
    return any(rho.a == n for rho in principal_expansion(d).cycle)
