"""Integer-exact continued fractions, the principal cycle, units, regulators.

The expansion never touches floats: a state is the (a, b) pair of
(b + sqrt(d))/(2a), the partial quotient is an exact floor via isqrt, and
the period starts at the first reduced state and ends on the return to it.
An expansion keeps its quotients and its states as columns: the tuples
`period`, `a` and `b` of bare integers. `cf_orbit` is the one step, also
used for class numbers, and `cf_expand` the walk from any start. The
principal cycle of d is ambiguous, so symmetric: `principal_expansion(d)`
walks it only to its middle and fills in the other half by reflection,
sharing the integers of the first, and caches the result; its every reader
starts from that record: the regulator is the logarithm of the fundamental
unit, which is built from the period's quotients by the continuant
recurrence on bare integers, kept to its top bits, and taken with one
logarithm at REGULATOR_DPS digits, cached per d for the unit, the class
number and the criterion; the reduced principal ideals and their norms are
its state columns; an exact big-integer unit is available separately for
cross-checks.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, islice
from math import gcd, isqrt

from mpmath.libmp import (
    dps_to_prec,
    from_int,
    mpf_add,
    mpf_div,
    mpf_ln2,
    mpf_log,
    mpf_mul_int,
    mpf_shift,
    mpf_sqrt,
    round_nearest,
    to_float,
)

from .quadorder import QuadIdeal, QuadIrrational, canonical_irrational, is_reduced_state


# principal_expansion, regulator_enclosure and classno.class_number_forms
# keep this many d: every caller asks for one d a few times in a row (unit,
# norms, bound, h, L) and then moves on, and a few dozen long cycles hold
# megabytes of states
EXPANSION_CACHE_SIZE = 1
# bits of the continuant pair kept by regulator_enclosure
UNIT_BITS = 192
# regulator_enclosure shifts the continuant pair once it reaches this
_UNIT_TOP = 1 << (UNIT_BITS + 64)
# digits of regulator_enclosure's logarithm, whatever the caller's precision
REGULATOR_DPS = 30
# the same precision in bits (103), for arithmetic on raw libmp values
REGULATOR_PREC = dps_to_prec(REGULATOR_DPS)
# the step budget of cf_expand, which takes at most this many quotients plus
# one; principal_expansion refuses the same d. Traced on d = 1000000000061
# (199 129 steps, CPython 3.11), an expansion keeps 88 bytes per step and
# peaks at 113 while built, a principal one, whose halves share their
# integers, 56 and 80: peaks of about 0.23 and 0.16 GB at this limit
PERIOD_STEP_LIMIT = 2 * 10**6


class PeriodOverflow(RuntimeError):
    """A continued fraction failed to close within the step budget."""


@dataclass(frozen=True)
class CFExpansion:
    """The expansion of a quadratic irrational of discriminant d: its
    preperiod quotients, then its period's quotients and the columns a and b
    of its reduced states, one (b + sqrt(d))/(2a) for each quotient."""

    d: int
    preperiod: tuple[int, ...]
    period: tuple[int, ...]
    a: tuple[int, ...]
    b: tuple[int, ...]

    @property
    def cycle(self) -> tuple[QuadIrrational, ...]:
        return tuple(QuadIrrational(self.d, a, b) for a, b in zip(self.a, self.b))


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


def _overflow(d: int, a: int, b: int) -> PeriodOverflow:
    return PeriodOverflow(
        f"continued fraction of ({b}+sqrt({d}))/{2 * a} did not close "
        f"within PERIOD_STEP_LIMIT = {PERIOD_STEP_LIMIT} steps"
    )


def cf_expand(rho: QuadIrrational) -> CFExpansion:
    """Expand rho, exactly, until it returns to its first reduced state: at
    most PERIOD_STEP_LIMIT + 1 quotients, else PeriodOverflow."""
    d = rho.d
    s = isqrt(d)
    preperiod: list[int] = []
    period: list[int] = []
    a_col: list[int] = []
    b_col: list[int] = []
    # at most PERIOD_STEP_LIMIT + 1 quotients, then the closing state
    for alpha, a, b in islice(cf_orbit(d, rho.a, rho.b), PERIOD_STEP_LIMIT + 2):
        if not a_col:
            # the period starts at the first reduced state: every later one is
            if not is_reduced_state(a, b, s):
                preperiod.append(alpha)
                continue
        elif a == a_col[0] and b == b_col[0]:
            return CFExpansion(
                d, tuple(preperiod), tuple(period), tuple(a_col), tuple(b_col)
            )
        period.append(alpha)
        a_col.append(a)
        b_col.append(b)
    raise _overflow(d, a, b)


@lru_cache(maxsize=EXPANSION_CACHE_SIZE)
def principal_expansion(d: int) -> CFExpansion:
    """Expansion of (d%2 + sqrt(d))/2, whose cycle is the principal cycle:
    cf_expand's, refused exactly when cf_expand refuses it, from a walk
    over half the cycle.

    Number the reduced states 1..T from the first; state T is the one with
    a = 1, so a_0 = a_T = 1. The principal cycle is ambiguous, hence
    symmetric: alpha_j = alpha_{T-j} and a_j = a_{T-j} for 0 < j < T, and
    b_j = b_{T+1-j}. The walk stops at the first m with a_m = a_{m-1}
    (T = 2m - 1, which is T = 1 when the first reduced state has a = 1) or,
    for m > 1, b_m = b_{m-1} (T = 2m - 2); the rest of the cycle is the
    reflection of states 1..m, and alpha_T = floor((b_1 + sqrt(d))/2). A walk
    that passes state m without stopping has T >= 2m, so it meets the step
    budget after about half of the steps cf_expand would take."""
    rho = canonical_irrational(d)
    s = isqrt(d)
    preperiod: list[int] = []
    orbit = cf_orbit(d, rho.a, rho.b)
    for alpha, a, b in orbit:
        if is_reduced_state(a, b, s):
            break
        preperiod.append(alpha)
    # cf_expand closes within its budget iff P + T <= PERIOD_STEP_LIMIT + 1,
    # P the preperiod's length
    budget = PERIOD_STEP_LIMIT + 1 - len(preperiod)
    period: list[int] = []
    a_col: list[int] = []
    b_col: list[int] = []
    # a_0 = 1, and b_0 = b_1 is the centre the walk starts from. A state m
    # that is not the middle proves T >= 2m, so the walk goes past it only
    # while 2m <= budget: at most budget // 2 + 1 states
    last_a, last_b = 1, None
    states = chain([(alpha, a, b)], orbit)
    for alpha, a, b in islice(states, max(0, budget // 2 + 1)):
        period.append(alpha)
        a_col.append(a)
        b_col.append(b)
        if a == last_a or b == last_b:
            break
        last_a, last_b = a, b
    else:
        raise _overflow(d, a, b)
    m = len(period)
    length = 2 * m - 1 if a == last_a else 2 * m - 2
    if length > budget:
        raise _overflow(d, a, b)
    # the walk is at state m = k + 1: alpha_j and a_j for j <= k and b_j for
    # j <= T - k give the rest by the symmetry
    k = m - 1
    mirror = length - 1 - k
    period = period[:k] + period[:mirror][::-1] + [(b_col[0] + s) // 2]
    a_col = a_col[:k] + a_col[:mirror][::-1] + [1]
    b_col = b_col[: length - k] + b_col[:k][::-1]
    return CFExpansion(d, tuple(preperiod), tuple(period), tuple(a_col), tuple(b_col))


@lru_cache(maxsize=EXPANSION_CACHE_SIZE)
def regulator_enclosure(d: int) -> tuple[tuple, tuple]:
    """log eps for the fundamental unit eps of O_d at REGULATOR_DPS digits,
    and a bound on its absolute error, as a pair of raw libmp values.

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
    bound adds a generous allowance for the rounding of the few libmp
    operations."""
    exp = principal_expansion(d)
    a1, b1 = exp.a[0], exp.b[0]
    p, q, shift = 1, 0, 0
    for alpha in exp.period:
        p, q = alpha * p + q, p
        if p >= _UNIT_TOP:
            excess = p.bit_length() - UNIT_BITS
            p, q, shift = p >> excess, q >> excess, shift + excess
    # log(p + 2 a1 q/(b1 + sqrt(d))) + shift log 2 and the error bound
    # 2**(2 - UNIT_BITS) T + (16 + 8 reg) 2**-prec, on raw libmp values at
    # REGULATOR_PREC, each operation rounded to nearest; 2 a1 q is rounded
    # to prec bits, every other integer enters exactly
    prec, rnd = REGULATOR_PREC, round_nearest
    denom = mpf_add(mpf_sqrt(from_int(d), prec, rnd), from_int(b1), prec, rnd)
    tail = mpf_div(from_int(2 * a1 * q, prec, rnd), denom, prec, rnd)
    reg = mpf_add(
        mpf_log(mpf_add(tail, from_int(p), prec, rnd), prec, rnd),
        mpf_mul_int(mpf_ln2(prec, rnd), shift, prec, rnd),
        prec,
        rnd,
    )
    slack = mpf_add(mpf_mul_int(reg, 8, prec, rnd), from_int(16), prec, rnd)
    err = mpf_add(
        mpf_shift(from_int(len(exp.period)), 2 - UNIT_BITS),
        mpf_shift(slack, -prec),
        prec,
        rnd,
    )
    return reg, err


def fundamental_unit(d: int) -> UnitInfo:
    """Regulator log eps, regulator_enclosure's value rounded to the nearest
    float; period length T; norm sign (-1)^T."""
    reg = to_float(regulator_enclosure(d)[0], rnd=round_nearest)
    length = len(principal_expansion(d).period)
    return UnitInfo(reg, length, -1 if length % 2 else 1)


def exact_unit(d: int) -> ExactUnit:
    """The fundamental unit with big-integer coordinates; d should be modest."""
    exp = principal_expansion(d)
    x_acc, y_acc, den = 1, 0, 1
    for a, b in zip(exp.a, exp.b):
        x_acc, y_acc = x_acc * b + y_acc * d, x_acc + y_acc * b
        den *= 2 * a
        g = gcd(gcd(x_acc, y_acc), den)
        if g > 1:
            x_acc, y_acc, den = x_acc // g, y_acc // g, den // g
    assert (2 * x_acc) % den == 0 and (2 * y_acc) % den == 0
    x, y = 2 * x_acc // den, 2 * y_acc // den
    sign = -1 if len(exp.period) % 2 else 1
    assert x * x - d * y * y == 4 * sign
    return ExactUnit(d, x, y, sign)


def principal_ideal_of_norm(d: int, n: int) -> QuadIdeal | None:
    """The first reduced principal ideal of norm n along the principal
    cycle, or None when n is not such a norm."""
    if n < 1:
        raise ValueError("principal_ideal_of_norm: n must be positive")
    exp = principal_expansion(d)
    try:
        i = exp.a.index(n)
    except ValueError:
        return None
    return QuadIdeal(d, n, exp.b[i])
