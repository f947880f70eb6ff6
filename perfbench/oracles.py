"""Computations made apart from qrl, for checking its outputs.

sympy factors integers and solves the Pell equations; scipy evaluates erfc
and E1; the Jacobi symbol in the class-number series is written out here
(sympy's is checked against it by selfcheck.py).
"""

from __future__ import annotations

import math

import numpy as np
from mpmath import mp
from scipy.special import erfc, exp1
from sympy import factorint
from sympy.functions.combinatorial.numbers import jacobi_symbol
from sympy.solvers.diophantine.diophantine import diop_DN

__all__ = [
    "class_number_from_formula",
    "is_squarefree",
    "jacobi",
    "jacobi_symbol",
    "pell_regulator",
]


def is_squarefree(n: int) -> bool:
    return all(e == 1 for e in factorint(n).values())


def pell_regulator(d: int) -> float:
    """log((x + y sqrt d)/2) for the least x, y >= 1 with x^2 - d y^2 = +-4:
    the regulator of the order of discriminant d."""
    solutions = [
        (abs(y), abs(x)) for n in (4, -4) for x, y in diop_DN(d, n) if x and y
    ]
    y, x = min(solutions)
    with mp.workdps(50):
        return float(mp.log((x + y * mp.sqrt(d)) / 2))


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a|n) for odd n > 0, by quadratic reciprocity."""
    if n <= 0 or n % 2 == 0:
        raise ValueError("jacobi: n must be odd and positive")
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def class_number_from_formula(d: int, regulator: float) -> float:
    """h(d) from h R = (1/2) sum_n chi_d(n) (sqrt(d)/n erfc(n sqrt(pi/d))
    + E1(pi n^2/d)) (Cohen, GTM 138, Prop. 5.6.9), for a fundamental
    d = 1 mod 4, where chi_d(n) is the Jacobi symbol (n|d).

    The terms fall off like exp(-pi n^2/d); stopping at pi n^2/d = 50 leaves
    a tail below 1e-20. Memory is O(sqrt d): the sum runs in blocks, never
    over the d/2 terms of the finite log-sine formula that qrl uses.
    """
    if d % 4 != 1:
        raise ValueError("class_number_from_formula: needs d = 1 mod 4")
    n_max = math.isqrt(int(50 * d / math.pi)) + 1
    root, scale = math.sqrt(d), math.sqrt(math.pi / d)
    parts = []
    for start in range(1, n_max + 1, 4096):
        stop = min(start + 4096, n_max + 1)
        n = np.arange(start, stop, dtype=np.float64)
        chi = np.array([jacobi(k, d) for k in range(start, stop)], dtype=np.float64)
        parts.extend(chi * (root / n * erfc(n * scale) + exp1(math.pi * n * n / d)))
    return 0.5 * math.fsum(parts) / regulator
