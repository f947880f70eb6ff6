"""Class numbers of real quadratic orders, and L-values.

h comes from the analytic class-number formula (Cohen, GTM 138, Prop.
5.6.9): for a fundamental discriminant d,

    2 h R = sum_{n >= 1} chi_d(n) (sqrt(d)/n erfc(n sqrt(pi/d)) + E1(pi n^2/d)).

The sum is taken in floats up to a point N chosen from a proven error
budget, and divided by the regulator enclosure of `cfrac`; h is the only
integer in the resulting interval. An order of conductor f > 1 takes h from
its field and the unit index. Where an interval pins no single integer, h
falls back to `class_number_forms`, which counts the cycles of the reduced
primitive (b + sqrt(d))/(2a), a > 0, under the continued-fraction step and
is kept as the independent oracle. h_narrow is h if the fundamental unit has
norm -1, else 2h. L(1, chi_d) is evaluated exactly with the finite log-sine
character sum, and approximately by a truncated Euler product.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import ceil, e, erfc, exp, factorial, fsum, isqrt, log, pi, sqrt

import numpy as np
from mpmath import mp, mpf
from mpmath.libmp import round_floor, to_float

from .cfrac import cf_orbit, fundamental_unit, regulator_enclosure
from .intarith import (
    factorize,
    fundamental_decomposition,
    is_discriminant,
    kronecker,
    primes_up_to,
    residues_mod,
    smallest_prime_factors,
)

Form = tuple[int, int, int]

# legendre_table keeps this many tables of p bytes each; a character row
# needs the few primes of one d, and the small ones recur from d to d
LEGENDRE_CACHE_SIZE = 64
# share of the regulator R that the proven tail bound of the class-number
# series may take: the h interval is then at most about TAIL_SHARE wide
TAIL_SHARE = 1 / 2
# terms of the power series of E1(x), x <= 1, and partial quotients of the
# continued fraction of e^x E1(x), x > 1
E1_SERIES_TERMS = 20
E1_CF_DEPTH = 64
# terms of the class-number series evaluated per numpy block
SERIES_BLOCK = 1 << 16
# most terms N of the class-number series: its character table takes about
# 29 bytes per term, so N = 10**7 peaks near 0.3 GB RSS and takes about 4 s
SERIES_TERM_LIMIT = 10**7
# reduced_forms refuses d >= FORM_GRID_LIMIT: below it b*b, m_b = (d - b*b)/4
# and every position in the (b, a) grid stay below 2**53, so they are exact
# in int64 and m_b and an integer quotient m_b/a are exact in float64
FORM_GRID_LIMIT = 2**53
# (b, a) pairs of the reduced_forms grid tested per numpy block
FORM_BLOCK = 1 << 16
# unit roundoff of a float, and the relative error allowed for one libm
# erfc, exp or log: 2**7 ulp, against the 8 ulp assumed (glibc documents
# at most 5 for erfc and 1 for exp and log)
_U = 2.0**-53
_LIBM = 2.0**-46
_EULER_GAMMA = 0.5772156649015329
# (-1)^(k+1) / (k k!), the coefficients of the E1 series
_E1_COEFFS = [
    (-1) ** (k + 1) / (k * factorial(k)) for k in range(1, E1_SERIES_TERMS + 1)
]


@dataclass(frozen=True)
class ClassData:
    d: int
    h: int
    h_narrow: int
    L_exact: float | None  # None when d is not fundamental
    L_truncated: float
    euler_bound_B: int


@dataclass(frozen=True)
class HBoundReport:
    h: int
    bound: float
    satisfied: bool


def reduced_forms(d: int) -> list[Form]:
    """All reduced primitive indefinite forms (a, b, c), a > 0, of discriminant
    d, by b and then a ascending.

    (a, b, c) is reduced when 0 < b < sqrt(d) and sqrt(d) - b < 2a < sqrt(d) + b,
    i.e. s + 1 - b <= 2a <= s + b with s = isqrt(d). Row k of the grid is
    b = 2k + 1 + e (e = 1 - d % 2) with its b values a = rows - k, ...,
    rows - k + b - 1 (rows = (s + 1 - e) // 2); laid end to end, row k starts
    at position k (k + e). A pair is a form when a divides m_b = (d - b*b)/4
    and gcd(a, b, m_b/a) = 1. The grid is tested FORM_BLOCK pairs at a time,
    so memory stays bounded; its work grows like d/4 pairs."""
    if not is_discriminant(d):
        raise ValueError(f"{d} is not a real quadratic discriminant")
    if d >= FORM_GRID_LIMIT:
        raise ValueError(
            f"reduced_forms: d = {d} is not below FORM_GRID_LIMIT = {FORM_GRID_LIMIT}"
        )
    s, e = isqrt(d), 1 - d % 2
    rows = (s + 1 - e) // 2
    pairs = rows * (rows + e)
    out: list[Form] = []
    for start in range(0, pairs, FORM_BLOCK):
        stop = min(start + FORM_BLOCK, pairs)
        # the rows k0..k1 that meet positions start..stop - 1
        k0 = (isqrt(e + 4 * start) - e) // 2
        k1 = (isqrt(e + 4 * (stop - 1)) - e) // 2
        k = np.arange(k0, k1 + 2, dtype=np.int64)
        edges = k * (k + e)
        counts = np.diff(np.clip(edges, start, stop))
        k = k[:-1]
        b = 2 * k + 1 + e
        m = (d - b * b) >> 2
        # position p of row k holds a = p - (edges_k - rows + k)
        a = np.arange(start, stop, dtype=np.int64) - np.repeat(
            edges[:-1] - rows + k, counts
        )
        # m and a are below 2**53, so when a | m the quotient is an integer
        # that float64 holds exactly: the filter loses no divisor; the int64
        # remainder below confirms each hit
        q = np.repeat(m.astype(np.float64), counts) / a
        hit = np.flatnonzero(q == np.floor(q))
        row = np.searchsorted(edges, hit + start, "right") - 1
        a, m, b = a[hit], m[row], b[row]
        c, r = np.divmod(m, a)
        keep = (r == 0) & (np.gcd(np.gcd(a, b), c) == 1)
        out += zip(a[keep].tolist(), b[keep].tolist(), (-c[keep]).tolist())
    return out


def form_cycles(d: int) -> list[list[Form]]:
    """Reduced forms grouped into cycles of the continued-fraction step."""
    forms = reduced_forms(d)
    unvisited = {(a, b) for a, b, _ in forms}
    cycles: list[list[Form]] = []
    for a0, b0, _ in forms:
        if (a0, b0) not in unvisited:
            continue
        cyc: list[Form] = []
        for _, a, b in cf_orbit(d, a0, b0):
            if (a, b) not in unvisited:
                break
            unvisited.remove((a, b))
            cyc.append((a, b, (b * b - d) // (4 * a)))
        assert (a, b) == (a0, b0)  # the step permutes reduced forms
        cycles.append(cyc)
    return cycles


def class_number_forms(d: int) -> tuple[int, int]:
    """(h, h_narrow) for the order of discriminant d."""
    cycles = form_cycles(d)
    h = len(cycles)
    # the cycle through the a = 1 form is the principal one
    principal = next(cyc for cyc in cycles if min(cyc)[0] == 1)
    return h, h if len(principal) % 2 else 2 * h


def _kronecker_at_primes(d: int, primes: np.ndarray) -> np.ndarray:
    """kronecker(d, p) for an ascending int64 array of primes p < 2**31
    that starts at 2, as int8: Euler's criterion on numpy arrays."""
    odd = primes[1:]
    r = residues_mod(d, odd)
    # r^((p-1)/2) mod p is 0, 1 or p - 1
    power, acc = (odd - 1) >> 1, np.ones_like(odd)
    while power.any():
        acc = np.where(power & 1, acc * r % odd, acc)
        r = r * r % odd
        power >>= 1
    chi = np.empty(len(primes), dtype=np.int8)
    chi[0] = kronecker(d, 2)
    chi[1:] = np.where(acc == odd - 1, -1, acc)
    return chi


def _character_table(d: int, n: int) -> np.ndarray:
    """chi_d(k) = kronecker(d, k) for 0 <= k <= n, as an int8 array: chi_d at
    the primes, extended by complete multiplicativity, one smallest prime
    factor at a time."""
    spf = smallest_prime_factors(n)
    k = np.arange(n + 1, dtype=np.int32)
    at_prime = np.zeros(n + 1, dtype=np.int8)
    primes = np.flatnonzero(spf[2:] == k[2:]) + 2
    if primes.size:
        at_prime[primes] = _kronecker_at_primes(d, primes)
    chi = np.ones(n + 1, dtype=np.int8)
    chi[0] = 0
    live = k[2:]  # the k whose cofactor rest = k / (primes taken) is > 1
    rest = live
    while live.size:
        p = spf[rest]
        chi[live] *= at_prime[p]
        rest = rest // p
        keep = rest > 1
        live, rest = live[keep], rest[keep]
    return chi


def _exp1_series(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """E1(x) for 0 < x <= 1, the magnitude that scales its rounding error,
    and its truncation bound (see _series_sum)."""
    # -gamma - log x + sum_{k=1}^{K} (-1)^(k+1) x^k / (k k!), by Horner
    acc = np.full_like(x, _E1_COEFFS[-1])
    for c in reversed(_E1_COEFFS[:-1]):
        acc = acc * x + c
    logs = np.log(x)
    magnitude = _EULER_GAMMA + np.abs(logs) + e
    trunc = 1.0 / ((E1_SERIES_TERMS + 1) * factorial(E1_SERIES_TERMS + 1))
    return acc * x - logs - _EULER_GAMMA, magnitude, np.full_like(x, trunc)


def _exp1_fraction(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """E1(x) for x > 1, the magnitude that scales its rounding error, and
    its truncation bound (see _series_sum)."""
    # e^x E1(x) = 1/(x + 1/(1 + 1/(x + 2/(1 + 2/(x + 3/(1 + ...)))))), cut
    # after m + 1 and after m partial quotients: tails 0 and infinity
    # behind the (m + 1)-th
    t = np.zeros((2, len(x)))
    t[1] = np.inf
    for j in range(E1_CF_DEPTH + 1, 0, -1):
        t = max(1, j // 2) / ((x if j % 2 else 1.0) + t)
    scale = np.exp(-x)
    value = scale * t[1]
    return value, value, scale * np.abs(t[0] - t[1])


def _series_sum(d: int, n_max: int) -> tuple[float, float]:
    """S = sum_{n >= 1} chi_d(n) (A_n + B_n), A_n = sqrt(d)/n erfc(sqrt(x_n)),
    B_n = E1(x_n), x_n = pi n^2/d, as a float S~ from the n <= N = n_max,
    and a bound on |S~ - S|; chi_d = kronecker(d, .), d > 0.

    u = 2**-53 is the unit roundoff. math.erfc and numpy's exp and log are
    assumed accurate to 8 ulp; the budget allows L = 2**-46 (128 ulp) for
    each. X = x_N is the largest argument.

    Tail. erfc(t) <= e^-t^2 / (t sqrt(pi)) and E1(x) <= e^-x / x for t,
    x > 0, so A_n + B_n <= 2 e^-x_n / x_n = 2d e^-x_n / (pi n^2). Past N
    this is at most 2d/(pi N^2) e^-x_n, and sum_{n > N} e^-x_n <=
    int_N^oo e^(-pi y^2/d) dy <= d e^-X / (2 pi N); hence
    |sum_{n > N}| <= sqrt(d/pi) e^-X X^(-3/2). The bound added is twice
    that, which covers its own float evaluation.

    Terms. n and chi_n are exact; the computed x~_n (pi, d, a division,
    two products) and sqrt(x~_n) carry relative errors of at most 5u and
    4u.
    - A~_n: erfc(t) > 2 e^-t^2 / (sqrt(pi) (t + sqrt(t^2 + 2))) bounds
      erfc's condition number at t by 2t^2 + 2 <= 2X + 2, so
      the relative error is at most L + (8X + 8)u + 5u (sqrt(d), the
      division, the product).
    - B~_n for x <= 1, the series to K = E1_SERIES_TERMS terms by Horner:
      the omitted terms alternate and fall, so the truncation is at most
      D_n = 1/((K+1)(K+1)!). Moving x by 5u x moves E1 by at most
      5u e^-x; the log adds L |log x|; Horner (sum |c_k| x^k <= e - 1),
      gamma and the two additions at most (2K + 4)u M_n, with
      M_n = gamma + |log x| + e >= |B_n|. In all, L + (2K + 9)u times M_n.
    - B~_n for x > 1, e^-x F~_m with F the continued fraction in
      _exp1_fraction and m = E1_CF_DEPTH: its partial numerators and
      denominators are positive, so F lies between any two consecutive
      convergents, |F - F_m| <= |F_m - F_m+1|. The backward evaluation of
      each convergent is exact to 2(m + 1)u relative, so D_n = e^-x~
      |F~_m - F~_m+1| plus 4(m + 1)u B~_n covers the truncation. F = e^x E1
      lies in (1/(x+1), 1/x) with |F'| <= F/x, so the argument's 5u x moves
      F by 5u F relative, and exp(-x~) errs by L + 5Xu. With M_n = B~_n:
      in all, L + (5X + 6m + 16)u times M_n, plus D_n.
    - Adding A~ + B~ costs u (A~ + M), and so does the sum of each block
      of terms: math.fsum is correctly rounded.
    With eta = 2 (L + (8X + 6m + 2K + 32)u), twice each of these, the
    computed term errs by at most eta (A~_n + M_n) + D_n; the factor 2
    covers the second-order terms.

    Sum. math.fsum of the block sums is correctly rounded: u |S~|. The
    nonnegative error terms are summed in floats, exact to N u < 2**-22
    relative, so the bound returned is twice their sum and u |S~|, plus
    the tail."""
    chi = _character_table(d, n_max)
    x_max = pi * n_max * n_max / d
    eta = 2 * (_LIBM + (8 * x_max + 6 * E1_CF_DEPTH + 2 * E1_SERIES_TERMS + 32) * _U)
    root, scale = sqrt(d), pi / d
    sums: list[float] = []
    err = 0.0
    for lo in range(1, n_max + 1, SERIES_BLOCK):
        n = np.flatnonzero(chi[lo : lo + SERIES_BLOCK]) + lo
        nf = n.astype(np.float64)
        x = nf * (nf * scale)
        a = root / nf * np.fromiter(map(erfc, np.sqrt(x)), np.float64, len(x))
        b, mag, trunc = (np.empty_like(x) for _ in range(3))
        small = x <= 1.0
        b[small], mag[small], trunc[small] = _exp1_series(x[small])
        b[~small], mag[~small], trunc[~small] = _exp1_fraction(x[~small])
        sums.append(fsum((chi[n] * (a + b)).tolist()))
        err += float(np.sum(eta * (a + mag) + trunc))
    total = fsum(sums)
    tail = 2 * sqrt(d / pi) * exp(-x_max) * x_max**-1.5
    return total, 2 * (err + _U * abs(total)) + tail


def _pin(lo: Fraction, hi: Fraction) -> int | None:
    """The only integer in [lo, hi], or None."""
    k = ceil(lo)
    return k if k <= hi < k + 1 else None


def _exact(x: mpf) -> Fraction:
    """The binary number x as an exact fraction."""
    man, shift = x.man_exp
    return Fraction(man) * Fraction(2) ** shift


def _regulator_interval(d: int) -> tuple[Fraction, Fraction]:
    """Exact rational bounds lo <= R <= hi from regulator_enclosure."""
    reg, err = map(_exact, regulator_enclosure(d))
    return reg - err, reg + err


def _field_class_number(d: int, r_lo: Fraction, r_hi: Fraction) -> int | None:
    """h of the fundamental discriminant d, given r_lo <= R <= r_hi, from
    the class-number formula, or None when the budget pins no integer."""
    if r_lo <= 0:
        return None
    # X >= 1 with 2 sqrt(d/pi) e^-X <= TAIL_SHARE R, so that the tail
    # bound 2 sqrt(d/pi) e^-X X^(-3/2) of _series_sum is below it too
    x_cut = max(1.0, log(2 * sqrt(d / pi) / (TAIL_SHARE * float(r_lo))))
    n_max = isqrt(ceil(x_cut * d / pi)) + 1
    if n_max > SERIES_TERM_LIMIT:
        raise ValueError(
            f"class_number: the series for d = {d} needs N = {n_max} terms,"
            f" above SERIES_TERM_LIMIT = {SERIES_TERM_LIMIT}"
        )
    total, err = _series_sum(d, n_max)
    lo, hi = Fraction(total) - Fraction(err), Fraction(total) + Fraction(err)
    return _pin(lo / (2 * r_hi), hi / (2 * r_lo))


def class_number(d: int) -> tuple[int, int]:
    """(h, h_narrow) for the order of discriminant d, by the analytic
    class-number formula with certified rounding (see _series_sum).

    For d = d_K f^2 with f > 1, h = h_K f prod_{p | f} (1 - chi_K(p)/p) / i
    with i = [O_K^x : O^x] = R / R_K (Cox, Primes of the Form x^2 + ny^2,
    Thm 7.24, and its real analogue), i pinned from the two regulator
    enclosures. When an interval pins no single integer, the form cycles
    decide: the result is never an uncertified h."""
    disc = fundamental_decomposition(d)
    d_k, f = disc.fundamental, disc.conductor
    k_lo, k_hi = _regulator_interval(d_k)
    h = _field_class_number(d_k, k_lo, k_hi)
    if h is not None and f > 1:
        r_lo, r_hi = _regulator_interval(d)
        index = _pin(r_lo / k_hi, r_hi / k_lo)
        if index:
            ratio = Fraction(h * f, index)
            for p, _ in factorize(f):
                ratio *= Fraction(p - kronecker(d_k, p), p)
            h = ratio.numerator if ratio.denominator == 1 else None
        else:
            h = None
    if h is None:
        return class_number_forms(d)
    return h, h if fundamental_unit(d).norm_sign == -1 else 2 * h


@lru_cache(maxsize=LEGENDRE_CACHE_SIZE)
def legendre_table(p: int) -> np.ndarray:
    """Legendre symbols (a|p) for a in [0, p), as an int8 array."""
    t = np.full(p, -1, dtype=np.int8)
    t[0] = 0
    t[np.arange(1, p, dtype=np.int64) ** 2 % p] = 1
    return t


_CHI8 = np.array([0, 1, 0, -1, 0, -1, 0, 1], dtype=np.int8)
_CHI_MINUS8 = np.array([0, 1, 0, 1, 0, -1, 0, -1], dtype=np.int8)
_CHI_MINUS4 = np.array([0, 1, 0, -1], dtype=np.int8)


def character_row(d: int) -> np.ndarray:
    """chi_d(a) for a in [0, d), as an int8 array; d must be fundamental."""
    if fundamental_decomposition(d).conductor != 1:
        raise ValueError(f"character_row: {d} is not fundamental")
    idx = np.arange(d, dtype=np.int64)
    row = np.ones(d, dtype=np.int8)
    if d % 2:
        odd = d
    else:
        m = d // 4
        if m % 4 == 3:
            row = _CHI_MINUS4[idx % 4]
            odd = m
        else:
            odd = m // 2
            row = (_CHI8 if odd % 4 == 1 else _CHI_MINUS8)[idx % 8]
    for p, _ in factorize(odd):
        row = row * legendre_table(p)[idx % p]
    return row


def l_value_exact(d: int) -> float:
    """L(1, chi_d) by the finite log-sine sum over half a period."""
    row = character_row(d)  # raises for non-fundamental d
    half = d // 2
    a = np.arange(1, half + 1, dtype=np.float64)
    weights = np.log(np.sin(np.pi * a / d))
    return float(-2.0 / sqrt(d) * np.dot(row[1 : half + 1].astype(np.float64), weights))


def l_value_truncated(d: int, B: int) -> float:
    """Euler product of L(1, chi_d) over primes p <= B (B = 1 gives 1.0)."""
    if B < 1:
        raise ValueError("l_value_truncated: bound must be >= 1")
    prod = 1.0
    for p in primes_up_to(B):
        chi = kronecker(d, p)
        if chi:
            prod *= p / (p - chi)
    return prod


def class_data(d: int, euler_bound_B: int = 10**5) -> ClassData:
    h, h_narrow = class_number(d)
    fundamental = fundamental_decomposition(d).conductor == 1
    return ClassData(
        d,
        h,
        h_narrow,
        l_value_exact(d) if fundamental else None,
        l_value_truncated(d, euler_bound_B),
        euler_bound_B,
    )


def h_bound_report(d: int, h: int, constant: float) -> HBoundReport:
    if d < 16:
        raise ValueError("h_bound_report: need d >= 16 so log log d > 0")
    # evaluated at 30 digits, lowered by 2**-90 relative to cover their
    # rounding, and rounded down, so that h <= bound certifies the inequality
    with mp.workdps(30):
        log_d = mp.log(d)
        value = mpf(constant) * mp.sqrt(d) / (log_d**2 * mp.log(log_d))
        lowered = value * (1 - mpf(2) ** -90)
        bound = to_float(lowered._mpf_, strict=True, rnd=round_floor)
    return HBoundReport(h, bound, h <= bound)
