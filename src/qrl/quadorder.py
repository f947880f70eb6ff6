"""Ideals and quadratic irrationals of a real quadratic order.

An ideal is stored as e*[a, (b+sqrt(d))/2]: content e times the primitive
module a*Z + ((b+sqrt(d))/2)*Z. Validity needs b == d (mod 2) and
4a | b^2 - d; the norm is a*e^2. b is kept in the window (-a, a], which
makes dataclass equality an ideal equality test.

A quadratic irrational (b+sqrt(d))/(2a) is the content-1 case with the
same divisibility; it generates the module [a, (b+sqrt(d))/2], and
`reduced_b` inverts that map on reduced ideals. It is the one place that
decides whether an ideal is reduced, on integers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import gcd, isqrt

from .intarith import fundamental_decomposition, is_discriminant, xgcd


@dataclass(frozen=True)
class QuadIdeal:
    d: int
    a: int
    b: int
    e: int = 1

    def __post_init__(self):
        if not is_discriminant(self.d):
            raise ValueError(f"{self.d} is not a real quadratic discriminant")
        if self.a < 1:
            raise ValueError("ideal: a must be a positive integer")
        if self.e < 1:
            raise ValueError("ideal: e must be a positive integer")
        if (self.b - self.d) % 2 != 0:
            raise ValueError(
                f"invalid ideal: 2e does not divide e*d - b "
                f"(a={self.a}, b={self.b}, e={self.e}, d={self.d})"
            )
        if (self.b * self.b - self.d) % (4 * self.a) != 0:
            raise ValueError(
                f"invalid ideal: 4ae does not divide b^2 - d*e^2 "
                f"(a={self.a}, b={self.b}, e={self.e}, d={self.d})"
            )
        b = self.b % (2 * self.a)
        if b > self.a:
            b -= 2 * self.a
        object.__setattr__(self, "b", b)

    @property
    def norm(self) -> int:
        return self.a * self.e * self.e


@dataclass(frozen=True)
class IdealFlags:
    primitive: bool
    regular: bool
    prime_to_conductor: bool
    reduced: bool


def is_reduced_state(a: int, b: int, s: int) -> bool:
    """Whether (b + sqrt(d))/(2a), s = isqrt(d), is reduced: rho > 1 and
    -1 < conjugate < 0, decided on integers. False for every a < 0."""
    return s >= 2 * a - b and b <= s and b + 2 * a > s


@dataclass(frozen=True)
class QuadIrrational:
    """(b + sqrt(d)) / (2a) with 4a | b^2 - d and content 1."""

    d: int
    a: int
    b: int

    def __post_init__(self):
        if not is_discriminant(self.d):
            raise ValueError(f"{self.d} is not a real quadratic discriminant")
        if self.a < 1:
            raise ValueError("quadratic irrational: a must be positive")
        if (self.b * self.b - self.d) % (4 * self.a) != 0:
            raise ValueError(
                f"quadratic irrational: 4a does not divide b^2 - d "
                f"(a={self.a}, b={self.b}, d={self.d})"
            )
        if not _is_regular(self.d, self.a, self.b):
            raise ValueError(
                f"quadratic irrational: content gcd(a, b, (b^2-d)/(4a)) != 1 "
                f"(a={self.a}, b={self.b}, d={self.d})"
            )


def unit_ideal(d: int) -> QuadIdeal:
    return QuadIdeal(d, 1, d % 2)


def canonical_irrational(d: int) -> QuadIrrational:
    """(b + sqrt(d))/2 with b = d mod 2: the generator of O_d over Z."""
    return QuadIrrational(d, 1, d % 2)


def _is_regular(d: int, a: int, b: int) -> bool:
    """gcd(a, b, (d - b^2)/(4a)) == 1, for 4a | d - b^2: the primitive ideal
    [a, (b + sqrt(d))/2] is regular (invertible), and (b + sqrt(d))/(2a)
    has content 1."""
    return gcd(gcd(a, b), (d - b * b) // (4 * a)) == 1


def reduced_b(ideal: QuadIdeal) -> int | None:
    """The b of the reduced irrational (b + sqrt(d))/(2a) that generates this
    ideal, or None when the ideal is not primitive, regular and reduced.

    Only the residue of b mod 2a in (s - 2a, s], s = isqrt(d), can give
    -1 < conjugate < 0, so that residue alone is tested."""
    d, a, b = ideal.d, ideal.a, ideal.b
    if ideal.e != 1 or not _is_regular(d, a, b):
        return None
    s = isqrt(d)
    b += 2 * a * ((s - b) // (2 * a))
    return b if is_reduced_state(a, b, s) else None


def classify(ideal: QuadIdeal) -> IdealFlags:
    d, a, b, e = ideal.d, ideal.a, ideal.b, ideal.e
    primitive = e == 1
    regular = primitive and _is_regular(d, a, b)
    f = fundamental_decomposition(d).conductor
    prime_to_conductor = gcd(ideal.norm, f) == 1
    reduced = reduced_b(ideal) is not None
    return IdealFlags(primitive, regular, prime_to_conductor, reduced)


def multiply_ideals(i1: QuadIdeal, i2: QuadIdeal) -> QuadIdeal:
    """Product ideal in normalized form; content of the result is extracted.

    Uses the classical composition of the primitive parts. That formula
    needs at least one invertible (regular) factor: without it norms are
    not multiplicative and no standard-form product formula applies, so
    two irregular factors raise (module_product still handles them).
    """
    if i1.d != i2.d:
        raise ValueError(f"multiply_ideals: discriminants differ ({i1.d} vs {i2.d})")
    d = i1.d
    if not any(_is_regular(d, i.a, i.b) for i in (i1, i2)):
        raise ValueError(
            "multiply_ideals: both factors have irregular primitive parts; "
            "use module_product"
        )
    a1, b1, a2, b2 = i1.a, i1.b, i2.a, i2.b
    s = (b1 + b2) // 2
    g12, u12, v12 = xgcd(a1, a2)
    g, w1, w = xgcd(g12, s)
    u, v = u12 * w1, v12 * w1
    # u*a1 + v*a2 + w*s == g == gcd(a1, a2, s)
    c = (b1 * b2 + d) // 2
    a3 = a1 * a2 // (g * g)
    x0 = u * a1 * b2 + v * a2 * b1 + w * c
    assert x0 % g == 0
    b3 = (x0 // g) % (2 * a3)
    return QuadIdeal(d, a3, b3, i1.e * i2.e * g)


def module_product(i1: QuadIdeal, i2: QuadIdeal) -> QuadIdeal:
    """Product computed as a Z-module: pairwise generator products, then
    a two-column Hermite form. Independent of multiply_ideals; also valid
    when both factors are irregular.
    """
    if i1.d != i2.d:
        raise ValueError(f"module_product: discriminants differ ({i1.d} vs {i2.d})")
    d = i1.d
    # generators of 2*I in coordinates (x, y) <-> x + y*sqrt(d)
    gens1 = ((2 * i1.e * i1.a, 0), (i1.e * i1.b, i1.e))
    gens2 = ((2 * i2.e * i2.a, 0), (i2.e * i2.b, i2.e))
    prods = [
        (x1 * x2 + y1 * y2 * d, x1 * y2 + y1 * x2)
        for x1, y1 in gens1
        for x2, y2 in gens2
    ]
    # Bezout fold: w spans the image of the y-column
    wx, wy = 0, 0
    for x, y in prods:
        g_, u_, v_ = xgcd(wy, y)
        wx, wy = u_ * wx + v_ * x, g_
    assert wy > 0
    kernel_gcd = 0
    for x, y in prods:
        kernel_gcd = gcd(kernel_gcd, x - (y // wy) * wx)
    assert kernel_gcd > 0
    # the module a_hnf*Z + (wx + wy*sqrt(d))*Z equals 4*(i1*i2)
    assert wy % 2 == 0 and kernel_gcd % (2 * wy) == 0 and wx % wy == 0
    return QuadIdeal(d, kernel_gcd // (2 * wy), wx // wy, wy // 2)


_IDEAL_RE = re.compile(
    r"^\s*(?:(\d+)\*)?\[(\d+),\((-?\d+)\+sqrt\((\d+)\)\)/2\]\s*$"
)


def parse_ideal_literal(text: str) -> QuadIdeal:
    """Parse "e*[a,(b+sqrt(d))/2]"; the "e*" prefix is optional."""
    m = _IDEAL_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse ideal literal: {text!r}")
    e = int(m.group(1)) if m.group(1) else 1
    a, b, d = int(m.group(2)), int(m.group(3)), int(m.group(4))
    return QuadIdeal(d, a, b, e)


def format_ideal_literal(ideal: QuadIdeal) -> str:
    return f"{ideal.e}*[{ideal.a},({ideal.b}+sqrt({ideal.d}))/2]"
