"""Class numbers via cycles of reduced quadratic irrationals, and L-values.

h counts the cycles of reduced primitive (b + sqrt(d))/(2a), a > 0, under
the continued-fraction step; h_narrow is h if the principal cycle, the one
through a = 1, has odd length, else 2h. L(1, chi_d) is evaluated exactly
with the finite log-sine character sum, and approximately by a truncated
Euler product. The two roads meet in the class number formula round trip.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt, log, sqrt

import numpy as np

from .cfrac import cf_orbit
from .intarith import (
    divisors,
    factorize,
    fundamental_decomposition,
    kronecker,
    primes_up_to,
)

Form = tuple[int, int, int]

# legendre_table keeps this many tables of p bytes each; a character row
# needs the few primes of one d, and the small ones recur from d to d
LEGENDRE_CACHE_SIZE = 64


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
    """All reduced primitive indefinite forms (a, b, c), a > 0, of discriminant d."""
    s = isqrt(d)
    out: list[Form] = []
    for b in range(2 - d % 2, s + 1, 2):
        m = (d - b * b) // 4
        for u in divisors(m):
            # reduced: sqrt(d) - b < 2a < sqrt(d) + b, exact via isqrt
            if s + 1 - b <= 2 * u <= s + b:
                c = m // u
                if gcd(gcd(u, b), c) == 1:
                    out.append((u, b, -c))
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
    h, h_narrow = class_number_forms(d)
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
    bound = constant * sqrt(d) / (log(d) ** 2 * log(log(d)))
    return HBoundReport(h, bound, h <= bound)
