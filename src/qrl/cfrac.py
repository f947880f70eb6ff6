"""Integer-exact continued fractions, the principal cycle, units, regulators.

The expansion never touches floats: a state is the (a, b) pair of
(b + sqrt(d))/(2a), the partial quotient is an exact floor via isqrt, and
the period starts at the first reduced state and ends on the return to it.
`cf_orbit` is the one step, also used for class numbers. The regulator is
the logarithm of the fundamental unit, which is built from the period's
quotients by the continuant recurrence on bare integers, kept to its top
bits, and taken with one extended-precision logarithm; an exact big-integer
unit is available separately for cross-checks.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from math import ceil, gcd, isqrt, log, sqrt

from mpmath import mp, mpf

from .intarith import is_discriminant
from .quadorder import QuadIdeal, QuadIrrational, canonical_irrational, is_reduced_state


# principal_expansion keeps this many cycles; callers ask for the same d a
# few times in a row, and a long scan must not keep every cycle it visits
EXPANSION_CACHE_SIZE = 32
# bits of the continuant pair kept by _unit_log
UNIT_BITS = 192


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


def _split_orbit(
    d: int, a: int, b: int, max_steps: int
) -> tuple[list[int], Iterator[tuple[int, int, int]]]:
    """The preperiod quotients of (b + sqrt(d))/(2a), and an iterator over
    the (quotient, a, b) states of its period from the first reduced state.

    At most max_steps + 1 quotients are taken in all; past that budget
    PeriodOverflow is raised, by the iterator if the period overruns it."""
    s = isqrt(d)
    # at most max_steps + 1 quotients, then the state that closes the cycle
    orbit = islice(cf_orbit(d, a, b), max(1, max_steps + 2))
    preperiod: list[int] = []
    for state in orbit:
        # the period starts here: every state after a reduced one is reduced
        if is_reduced_state(state[1], state[2], s):
            return preperiod, _period(d, state, orbit, max_steps)
        preperiod.append(state[0])
    raise _overflow(d, state, max_steps)


def _period(
    d: int,
    first: tuple[int, int, int],
    orbit: Iterator[tuple[int, int, int]],
    max_steps: int,
) -> Iterator[tuple[int, int, int]]:
    yield first
    _, a1, b1 = first
    state = first
    for state in orbit:
        if state[1] == a1 and state[2] == b1:
            return
        yield state
    raise _overflow(d, state, max_steps)


def _overflow(d: int, state: tuple[int, int, int], max_steps: int) -> PeriodOverflow:
    _, a, b = state
    return PeriodOverflow(
        f"continued fraction of ({b}+sqrt({d}))/{2 * a} did not close "
        f"within {max_steps} steps"
    )


def cf_expand(rho: QuadIrrational, max_steps: int | None = None) -> CFExpansion:
    """Expand rho until it returns to its first reduced state; quotients are exact."""
    d = rho.d
    if max_steps is None:
        max_steps = default_max_steps(d)
    preperiod, states = _split_orbit(d, rho.a, rho.b, max_steps)
    period: list[int] = []
    cycle: list[QuadIrrational] = []
    for alpha, a, b in states:
        period.append(alpha)
        cycle.append(QuadIrrational(d, a, b))
    return CFExpansion(tuple(preperiod), tuple(period), tuple(cycle))


@lru_cache(maxsize=EXPANSION_CACHE_SIZE)
def principal_expansion(d: int) -> CFExpansion:
    """Expansion of (d%2 + sqrt(d))/2, whose cycle is the principal cycle."""
    return cf_expand(canonical_irrational(d))


def _unit_log(d: int) -> tuple[mpf, mpf, int]:
    """log eps for the fundamental unit eps of O_d, at the working mp
    precision, with a bound on its absolute error and the period length T.

    With theta_1 = (b_1 + sqrt(d))/(2a_1) the first reduced principal state,
    alpha_1..alpha_T the period quotients, P_-1 = 0, P_0 = 1 and
    P_k = alpha_k P_k-1 + P_k-2, the unit is eps = P_T + P_T-1 / theta_1.
    Once P_k passes UNIT_BITS + 64 bits, P_k and P_k-1 are shifted right
    together to UNIT_BITS bits and the shift is added back as shift * log 2,
    so the integers stay short and the cost is linear in T (exact continuants
    would cost O(T * R)). The recurrence has nonnegative coefficients, so
    each shift lowers eps by a relative 2**(2 - UNIT_BITS) at most: the
    truncated unit is at most eps, and its log falls short of log eps by at
    most T * 2**-190, a relative error of about T * 2**-190. The returned
    bound adds a generous allowance for the rounding of the few mp
    operations."""
    if not is_discriminant(d):
        raise ValueError(f"{d} is not a real quadratic discriminant")
    _, states = _split_orbit(d, 1, d % 2, default_max_steps(d))
    alpha1, a1, b1 = next(states)
    p, q, shift, length = alpha1, 1, 0, 1
    for alpha, _, _ in states:
        p, q = alpha * p + q, p
        length += 1
        if p.bit_length() > UNIT_BITS + 64:
            excess = p.bit_length() - UNIT_BITS
            p, q, shift = p >> excess, q >> excess, shift + excess
    reg = mp.log(p + mpf(2 * a1 * q) / (b1 + mp.sqrt(d))) + shift * mp.ln2
    err = mp.ldexp(length, 2 - UNIT_BITS) + mp.ldexp(16 + 8 * reg, -mp.prec)
    return reg, err, length


def fundamental_unit(d: int, dps: int = 30) -> UnitInfo:
    """Regulator log eps, one logarithm at dps digits rounded to the nearest
    float (error bound in _unit_log); period length T; norm sign (-1)^T."""
    with mp.workdps(dps):
        reg, _, length = _unit_log(d)
        reg = float(reg)
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
