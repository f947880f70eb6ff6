"""Integer-exact continued fractions, the principal cycle, units, regulators.

The expansion never touches floats: a state is the (a, b) pair of
(b + sqrt(d))/(2a), the partial quotient is an exact floor via isqrt, and
the period starts at the first reduced state and ends on the return to it.
An expansion keeps its quotients and its states as columns: the tuples
`period`, `a` and `b` of bare integers. `cf_orbit` is the one step, also
used for class numbers, and `cf_expand` the walk from any start. The
principal cycle of d is ambiguous, so symmetric: `principal_expansion(d)`
walks it only to its middle, keeps the states it walked and the period
length T, and caches the result; its every reader starts from that record:
the regulator is the logarithm of the fundamental unit, which by the same
symmetry is a_h psi_h^2 (times theta_h+1 for an odd period) with psi_h the
product of the first h = T // 2 states, built from their quotients by the
continuant recurrence on bare integers, kept to its top bits, put together
in integer fixed point and taken with one logarithm at REGULATOR_DPS digits,
cached per d for the unit, the class number and the criterion; the reduced
principal ideals and their norms are its state columns. An exact big-integer
unit, from the exact continuants of the whole period walked by cf_expand, is
available separately for cross-checks.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, islice
from math import isqrt

from mpmath.libmp import (
    dps_to_prec,
    from_int,
    from_man_exp,
    mpf_add,
    mpf_log,
    mpf_mul_int,
    mpf_shift,
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
# fractional bits of each factor of regulator_enclosure's fixed-point unit
FIXED_BITS = 112
# regulator_enclosure shifts the continuant pair once it reaches this
_UNIT_TOP = 1 << (UNIT_BITS + 64)
# digits of regulator_enclosure's logarithm, whatever the caller's precision
REGULATOR_DPS = 30
# the same precision in bits (103), for arithmetic on raw libmp values
REGULATOR_PREC = dps_to_prec(REGULATOR_DPS)
# the step budget of cf_expand, which takes at most this many quotients plus
# one; principal_expansion refuses the same d. Traced on d = 1000000000061
# (199 129 steps, CPython 3.11), an expansion keeps 88 bytes per step and
# peaks at 113 while built, a principal one, which keeps half the states, 44
# and 56: peaks of about 0.23 and 0.11 GB at this limit
PERIOD_STEP_LIMIT = 2 * 10**6


class PeriodOverflow(RuntimeError):
    """A continued fraction failed to close within the step budget."""


@dataclass(frozen=True)
class CFExpansion:
    """The expansion of a quadratic irrational of discriminant d: its
    preperiod quotients, then its period's quotients and the columns a and b
    of its reduced states, one (b + sqrt(d))/(2a) for each quotient, and the
    period's length T: all T states from cf_expand, T // 2 + 1 from
    principal_expansion."""

    d: int
    preperiod: tuple[int, ...]
    period: tuple[int, ...]
    a: tuple[int, ...]
    b: tuple[int, ...]
    length: int

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
            columns = map(tuple, (preperiod, period, a_col, b_col))
            return CFExpansion(d, *columns, len(period))
        period.append(alpha)
        a_col.append(a)
        b_col.append(b)
    raise _overflow(d, a, b)


@lru_cache(maxsize=EXPANSION_CACHE_SIZE)
def principal_expansion(d: int) -> CFExpansion:
    """Expansion of (d%2 + sqrt(d))/2, whose cycle is the principal cycle, to
    that cycle's middle: cf_expand's but for states m + 1..T of its T, with
    m = T // 2 + 1, and refused exactly when cf_expand refuses it.

    Number the reduced states 1..T from the first; state T is the one with
    a = 1, so a_0 = a_T = 1. The principal cycle is ambiguous, hence
    symmetric: alpha_j = alpha_{T-j} and a_j = a_{T-j} for 0 < j < T, and
    b_j = b_{T+1-j}, so states 1..m hold every norm of the cycle. The walk
    stops at the first m with a_m = a_{m-1} (T = 2m - 1, which is T = 1 when
    the first reduced state has a = 1) or, for m > 1, b_m = b_{m-1} (T =
    2m - 2). A walk that passes state m without stopping has T >= 2m, so
    it meets the step budget after about half the steps cf_expand takes."""
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
    return CFExpansion(d, *map(tuple, (preperiod, period, a_col, b_col)), length)


@lru_cache(maxsize=EXPANSION_CACHE_SIZE)
def regulator_enclosure(d: int) -> tuple[tuple, tuple]:
    """log eps for the fundamental unit eps of O_d at REGULATOR_DPS digits,
    and a bound on its absolute error, as a pair of raw libmp values.

    Number the reduced principal states theta_j = (b_j + sqrt(d))/(2a_j) from
    1 to T, with a_0 = a_T = 1, and let h = T // 2. The products psi_k =
    theta_1...theta_k satisfy psi_k = P_k + P_k-1 / theta_k+1 for the
    continuants P_-1 = 0, P_0 = 1, P_k = alpha_k P_k-1 + P_k-2 of the
    quotients alpha_j, and eps = psi_T. The cycle is symmetric (see
    principal_expansion), and the unit follows from the half it keeps:
    eps = a_h psi_h^2 when T is even, and eps = a_h psi_h^2 theta_h+1 when T
    is odd. Once P_k passes UNIT_BITS + 64 bits, P_k and P_k-1 are shifted
    right together to UNIT_BITS bits, and the shift comes back as a power
    of 2, so the integers stay short and the cost is linear in T (exact
    continuants would cost O(T * R)). The recurrence has nonnegative
    coefficients, so each of the at most h shifts lowers psi_h by a
    relative 2**(2 - UNIT_BITS) at most: the truncated unit is at most eps,
    and its log falls short of log eps by at most 2h 2**(2 - UNIT_BITS) <=
    T 2**(2 - UNIT_BITS).

    The unit is then one integer X, exact up to a power of 2, with K =
    FIXED_BITS fractional bits in each factor. D = b_h+1 2**K + isqrt(d
    2**2K) falls short of (b_h+1 + sqrt(d)) 2**K = 2 a_h+1 theta_h+1 2**K by
    less than 1; psi_h 2**K is P_h 2**K + floor(2 a_h+1 P_h-1 2**2K / D), and
    theta_h+1 enters as D / (2 a_h+1), the last product rounded down. As
    psi_h 2**K >= 2**K and D >= 2**K (1 + sqrt 5), the shortfall of D raises
    psi_h by a relative 2**-K at most and the floor lowers it by less; D
    lowers theta_h+1 by less than a relative 2**-K, and the last floor X by
    less than 2**-2K. So X is within a relative 3.01 * 2**-K of its exact
    value, and log X within 2**(2 - K). The returned bound adds that term,
    and a generous allowance, (16 + 8R) 2**-REGULATOR_PREC, for the rounding
    of the one libmp logarithm and of the bound itself."""
    exp = principal_expansion(d)
    length = exp.length
    half = length // 2
    p, q, shift = 1, 0, 0
    for alpha in exp.period[:half]:
        p, q = alpha * p + q, p
        if p >= _UNIT_TOP:
            excess = p.bit_length() - UNIT_BITS
            p, q, shift = p >> excess, q >> excess, shift + excess
    # X and D of the docstring; a_h is a_T = 1 when h = 0
    a, b = exp.a[half], exp.b[half]
    den = (b << FIXED_BITS) + isqrt(d << 2 * FIXED_BITS)
    psi = (p << FIXED_BITS) + ((2 * a * q) << 2 * FIXED_BITS) // den
    a_half = exp.a[half - 1] if half else 1
    unit, scale = a_half * psi * psi, 2 * shift - 2 * FIXED_BITS
    if length % 2:
        unit, scale = unit * den // (2 * a), scale - FIXED_BITS
    prec, rnd = REGULATOR_PREC, round_nearest
    # unit 2**scale is exact: the logarithm is the one rounded operation
    reg = mpf_log(from_man_exp(unit, scale), prec, rnd)
    slack = mpf_add(mpf_mul_int(reg, 8, prec, rnd), from_int(16), prec, rnd)
    # T 2**(2 - UNIT_BITS) + 2**(2 - FIXED_BITS), exactly, then the allowance
    err = mpf_add(
        from_man_exp(length + (1 << (UNIT_BITS - FIXED_BITS)), 2 - UNIT_BITS),
        mpf_shift(slack, -prec),
        prec,
        rnd,
    )
    return reg, err


def fundamental_unit(d: int) -> UnitInfo:
    """Regulator log eps, regulator_enclosure's value rounded to the nearest
    float; period length T; norm sign (-1)^T."""
    reg = to_float(regulator_enclosure(d)[0], rnd=round_nearest)
    length = principal_expansion(d).length
    return UnitInfo(reg, length, -1 if length % 2 else 1)


def exact_unit(d: int) -> ExactUnit:
    """The fundamental unit with big-integer coordinates, from the exact
    continuants of the whole period, walked by cf_expand: it shares only
    cf_orbit with regulator_enclosure. With c_1 = (d - b_1^2)/(4a_1),
    1/theta_1 = (sqrt(d) - b_1)/(2c_1), so eps = P_T + P_T-1 / theta_1 has
    x = (2c_1 P_T - b_1 P_T-1)/c_1 and y = P_T-1 / c_1. The coordinates have
    O(R) bits and each step one product by a quotient, so the cost is
    O(T * R)."""
    exp = cf_expand(canonical_irrational(d))
    a1, b1 = exp.a[0], exp.b[0]
    p, q = 1, 0
    for alpha in exp.period:
        p, q = alpha * p + q, p
    c1 = (d - b1 * b1) // (4 * a1)
    x, x_rest = divmod(2 * c1 * p - b1 * q, c1)
    y, y_rest = divmod(q, c1)
    sign = -1 if len(exp.period) % 2 else 1
    assert x_rest == y_rest == 0 and x * x - d * y * y == 4 * sign
    return ExactUnit(d, x, y, sign)


def principal_ideal_of_norm(d: int, n: int) -> QuadIdeal | None:
    """The first reduced principal ideal of norm n along the principal
    cycle, or None when n is not such a norm: for n > 1 a walked state, as
    a_j = a_{T-j}, and for n = 1 state T = (1, b_1)."""
    if n < 1:
        raise ValueError("principal_ideal_of_norm: n must be positive")
    exp = principal_expansion(d)
    if n == 1:
        return QuadIdeal(d, 1, exp.b[0])
    try:
        i = exp.a.index(n)
    except ValueError:
        return None
    return QuadIdeal(d, n, exp.b[i])
