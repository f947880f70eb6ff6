"""Regulator lower bounds from power products of reduced principal ideals.

Given a real quadratic discriminant d and integers that occur as norms of
reduced principal ideals, every power product whose norm stays below
sqrt(d)/2 is again a reduced principal ideal (under coprimality hypotheses
verified here), so the sum of the logarithms of the attached reduced
irrationals bounds the regulator from below.  This module

* validates the hypotheses for a list of norm decompositions,
* clears ramified norm parts by squaring them away (verified by exact
  ideal arithmetic),
* enumerates the power-product set constructively, asserting that each
  member really is a primitive reduced ideal,
* evaluates the discrete bound, the exact logarithm sum, and the
  continuous (simplex-integral) approximation of the discrete sum,
* constructs explicit parameter families in which a product of two
  primitive ideals of norm below sqrt(d)/2 fails to be primitive.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from math import gcd
from typing import Iterator, Sequence

from mpmath.libmp import (
    from_int,
    mpf_add,
    mpf_div,
    mpf_log,
    mpf_mul_int,
    mpf_shift,
    mpf_sqrt,
    mpf_sub,
    round_ceiling,
    round_floor,
    to_float,
)

from .cfrac import REGULATOR_PREC, principal_ideal_of_norm, regulator_enclosure
from .intarith import fundamental_decomposition, is_discriminant, is_squarefree
from .quadorder import (
    QuadIdeal,
    format_ideal_literal,
    multiply_ideals,
    reduced_b,
    unit_ideal,
)

class CriterionError(ValueError):
    """A hypothesis or construction step of the bound criterion failed."""


@dataclass(frozen=True)
class NormSplit:
    """A norm written as coprime_part * ramified_part.

    The coprime part is intended to be coprime to the discriminant and the
    ramified part to be a squarefree divisor of the fundamental
    discriminant; both intentions are verified by check_hypotheses, not
    assumed here.
    """

    total: int
    coprime_part: int
    ramified_part: int

    def __post_init__(self):
        if self.total < 1 or self.coprime_part < 1 or self.ramified_part < 1:
            raise CriterionError("norm split parts must be positive")
        if self.coprime_part * self.ramified_part != self.total:
            raise CriterionError(
                f"norm split {self.coprime_part}*{self.ramified_part}"
                f" != {self.total}"
            )


@dataclass(frozen=True)
class CriterionInput:
    """A discriminant together with the norm decompositions to examine."""

    d: int
    splits: tuple[NormSplit, ...]

    def __post_init__(self):
        if not is_discriminant(self.d):
            raise CriterionError(f"{self.d} is not a real quadratic discriminant")


def check_hypotheses(inp: CriterionInput) -> list[str]:
    """The hypotheses that fail, as messages, empty when all hold. Per
    decomposition, in order: the total is the norm of a reduced principal
    ideal; the coprime part is coprime to d; the ramified part is a
    squarefree divisor of the fundamental discriminant. Then the coprime
    parts must be pairwise coprime; the first pair (i < j) that is not is
    reported."""
    d = inp.d
    d0 = fundamental_decomposition(d).fundamental
    problems = []
    for sp in inp.splits:
        if principal_ideal_of_norm(d, sp.total) is None:
            problems.append(f"{sp.total} is not the norm of a reduced principal ideal")
        if gcd(sp.coprime_part, d) != 1:
            problems.append(f"gcd({sp.coprime_part}, {d}) != 1")
        if not (is_squarefree(sp.ramified_part) and d0 % sp.ramified_part == 0):
            problems.append(
                f"{sp.ramified_part} is not a squarefree divisor of the"
                " fundamental discriminant"
            )
    parts = [sp.coprime_part for sp in inp.splits]
    for i, j in itertools.combinations(range(len(parts)), 2):
        if gcd(parts[i], parts[j]) != 1:
            problems.append(
                f"coprime parts of entries {i} and {j} share a common factor"
            )
            break
    return problems


def _ramified_ideal(d: int, r: int) -> QuadIdeal:
    """The primitive ideal of norm r when r divides d (r squarefree)."""
    for b in range(d % 2, 2 * r + 1, 2):
        if (b * b - d) % (4 * r) == 0:
            return QuadIdeal(d, r, b)
    raise CriterionError(f"no primitive ideal of norm {r} exists for d={d}")


def clear_ramified_parts(inp: CriterionInput) -> tuple[int, ...]:
    """The norms with each replaced by the square of its coprime part.

    For a decomposition n = n_c * n_r with n_r > 1, the norm-n_r ideal must
    be regular, and then it squares to n_r times the unit ideal: a regular
    primitive ideal [r, (b + sqrt(d))/2] with r | d squarefree has r | b,
    so it equals its conjugate. Composition refuses an irregular one, and
    that refusal raises (the ramified part does not behave as a product of
    distinct ramified primes, e.g. because it shares a factor with the
    conductor).  Entries whose coprime part is 1 reduce to the unit ideal
    and are dropped.
    """
    norms: list[int] = []
    for sp in inp.splits:
        c = sp.coprime_part
        if sp.ramified_part == 1:
            norms.append(c)
            continue
        frak = _ramified_ideal(inp.d, sp.ramified_part)
        try:
            multiply_ideals(frak, frak)
        except ValueError as exc:  # frak is not regular
            raise CriterionError(
                f"{format_ideal_literal(frak)} does not square to"
                f" {sp.ramified_part} times the unit ideal; the ramified part"
                f" {sp.ramified_part} of {sp.total} cannot be cleared"
            ) from exc
        if c > 1:
            norms.append(c * c)
    return tuple(norms)


@dataclass(frozen=True)
class PowerProductSet:
    """All products of the base ideals with norm below sqrt(d)/2.

    Member v is the primitive ideal [A_v, (b[v] + sqrt(d))/2] of norm A_v =
    prod_i norms[i]**vectors[v][i], generated by the reduced irrational
    (b[v] + sqrt(d))/(2 A_v). enumerate_power_products, the only
    constructor, proves each member primitive and reduced, so 0 < b[v] <
    sqrt(d): the coordinates x, y of prod_v (b[v] + sqrt(d)) = x + y sqrt(d)
    are positive, and regulator_lower_bound, rounding each operation on them
    down, gets a lower bound of the exact sum."""

    d: int
    norms: tuple[int, ...]
    vectors: tuple[tuple[int, ...], ...]
    b: tuple[int, ...]


def _bounded_vectors(
    d: int, norms: Sequence[int]
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Exponent vectors e >= 0 with 4*A**2 < d, A = prod(norms[i]**e[i]), in
    lexicographic order, paired with A."""
    m = len(norms)
    vec = [0] * m

    def rec(i: int, prod: int) -> Iterator[tuple[tuple[int, ...], int]]:
        if i == m:
            yield tuple(vec), prod
            return
        e, p = 0, prod
        while 4 * p * p < d:
            vec[i] = e
            yield from rec(i + 1, p)
            e += 1
            p *= norms[i]
        vec[i] = 0

    if 4 < d:
        yield from rec(0, 1)


def enumerate_power_products(d: int, norms: Sequence[int]) -> PowerProductSet:
    """Products of the chosen norm-n ideals with norm below sqrt(d)/2.

    Membership is verified constructively: every product ideal is built by
    explicit composition and must come out primitive and reduced, else this
    raises.  The zero exponent vector (the unit ideal) is always included.
    """
    if not is_discriminant(d):
        raise CriterionError(f"{d} is not a real quadratic discriminant")
    norms = tuple(int(n) for n in norms)
    if any(n < 2 for n in norms):
        raise CriterionError("all norms must be >= 2")
    base = [principal_ideal_of_norm(d, n) for n in norms]
    if None in base:
        n = norms[base.index(None)]
        raise CriterionError(
            f"{n} is not the norm of a reduced principal ideal for d={d}"
        )
    vectors: list[tuple[int, ...]] = []
    bs: list[int] = []
    # members by product norm; the member for vec, whose last nonzero
    # exponent is at i, is the one for vec - e_i (earlier in lexicographic
    # order, norm prod // norms[i]) times base[i]
    seen: dict[int, QuadIdeal] = {}
    for vec, prod in _bounded_vectors(d, norms):
        if prod in seen:
            raise CriterionError(
                f"duplicate power product {prod}:"
                f" the norms {norms} are multiplicatively dependent"
            )
        last = max((i for i, e in enumerate(vec) if e), default=None)
        try:
            ideal = (
                unit_ideal(d)
                if last is None
                else multiply_ideals(seen[prod // norms[last]], base[last])
            )
        except ValueError as exc:
            raise CriterionError(
                f"cannot build the power product for exponents {vec}: {exc}"
            ) from exc
        b = reduced_b(ideal)
        if b is None:
            raise CriterionError(
                f"power product {format_ideal_literal(ideal)} for exponents"
                f" {vec} is not a primitive reduced ideal"
            )
        vectors.append(vec)
        bs.append(b)
        seen[prod] = ideal
    return PowerProductSet(d, norms, tuple(vectors), tuple(bs))


@dataclass(frozen=True)
class BoundReport:
    """Regulator lower bounds extracted from a power-product set.

    discrete_sum uses only the norms (each term log(sqrt(d)/2) minus the log
    of the product norm); exact_sum uses the true reduced irrational of each
    ideal; both are bounded by the regulator.  integral is the continuous
    approximation of discrete_sum and log_norm_product the product of the
    log norms appearing in it.
    """

    d: int
    norms: tuple[int, ...]
    discrete_sum: float
    exact_sum: float
    integral: float
    lattice_count: int
    log_norm_product: float
    regulator: float


def _to_float(x: tuple, rnd: str) -> float:
    # strict=True: a value out of float range raises instead of becoming inf
    return to_float(x, strict=True, rnd=rnd)


def regulator_lower_bound(products: PowerProductSet) -> BoundReport:
    """Evaluate the discrete and exact regulator lower bounds for a
    power-product set, together with the matching simplex integral, at the
    regulator's REGULATOR_PREC bits.

    Each operation of the two lower bounds is rounded toward the side that
    keeps them below, and each is rounded down to a float; the regulator,
    widened by its error bound, is rounded up."""
    d = products.d
    n_products = len(products.vectors)
    # prod_v A_v for A_v = prod_i n_i**e_i, one power per norm
    norm_product = math.prod(
        n**t for n, t in zip(products.norms, map(sum, zip(*products.vectors)))
    )
    # prod_v (b + sqrt(d)) = x + y sqrt(d) over the reduced irrationals
    # (b + sqrt(d))/(2 A_v), exactly; their denominators multiply to
    # norm_product * 2**N
    x, y = 1, 0
    for b in products.b:
        x, y = x * b + y * d, x + y * b
    denom = norm_product << n_products
    # raw libmp values at REGULATOR_PREC, each operation rounded down but
    # the log of the norm product, which the discrete sum subtracts, rounded
    # up; x, y > 0 (see PowerProductSet), so each operation is increasing in
    # the arguments rounded before it and both sums come out below
    prec, down = REGULATOR_PREC, round_floor
    root = mpf_sqrt(from_int(d), prec, down)
    big_l = mpf_log(mpf_shift(root, -1), prec, down)
    discrete = mpf_sub(
        mpf_mul_int(big_l, n_products, prec, down),
        mpf_log(from_int(norm_product), prec, round_ceiling),
        prec,
        down,
    )
    product = mpf_add(mpf_mul_int(root, y, prec, down), from_int(x), prec, down)
    exact = mpf_log(mpf_div(product, from_int(denom), prec, down), prec, down)
    top = mpf_add(*regulator_enclosure(d), prec, round_ceiling)
    regulator = _to_float(top, round_ceiling)
    log_norm_product = 1.0
    for n in products.norms:
        log_norm_product *= math.log(n)
    return BoundReport(
        d=d,
        norms=products.norms,
        discrete_sum=_to_float(discrete, down),
        exact_sum=_to_float(exact, down),
        integral=simplex_integral(0.5 * math.log(d) - math.log(2.0), products.norms),
        lattice_count=len(products.vectors),
        log_norm_product=log_norm_product,
        regulator=regulator,
    )


def evaluate_criterion(inp: CriterionInput) -> tuple[PowerProductSet, BoundReport]:
    """Full pipeline: hypothesis checks, ramified clearing, enumeration, bound."""
    problems = check_hypotheses(inp)
    if problems:
        raise CriterionError("hypotheses fail: " + "; ".join(problems))
    products = enumerate_power_products(inp.d, clear_ramified_parts(inp))
    return products, regulator_lower_bound(products)


def simplex_integral(bound_log: float, norms: Sequence[int]) -> float:
    """Integral of (bound_log - sum_i x_i*log(n_i)) over the simplex where the
    x_i are nonnegative and that sum is at most bound_log.

    Substituting u_i = x_i*log(n_i) maps the region onto the standard scaled
    simplex, giving the closed form bound_log**(m+1) / ((m+1)! * prod log n_i)
    (for m = 0 this degenerates to bound_log itself, matching the one-point
    lattice sum).
    """
    if any(n < 2 for n in norms):
        raise CriterionError("all norms must be >= 2")
    if bound_log <= 0:
        return 0.0
    m = len(norms)
    p_product = 1.0
    for n in norms:
        p_product *= math.log(n)
    return bound_log ** (m + 1) / (math.factorial(m + 1) * p_product)


@dataclass(frozen=True)
class NonprimitiveProduct:
    """An explicit product of two primitive ideals that is not primitive.

    The parameters (r, s, t, k, c) determine p = r*s, q = t*p + r,
    A = p**k * q and d = (A + c)**2 + 4*A, together with a triple of
    primitive ideals of norms r*s, r*(t*s+1) and s*(t*s+1).  The product of
    the first two has content exactly r > 1 even though its norm r*s*q can
    lie below sqrt(d)/2, so norm size alone does not guarantee primitivity
    of a product.  subset_sums reports the discrete bound contribution of
    each admissible exponent support (supports containing both factor 1 and
    factor 2 are excluded, since those products leave the primitive reduced
    world).
    """

    params: tuple[int, int, int, int, int]
    d: int
    factor_1: QuadIdeal
    factor_2: QuadIdeal
    companion: QuadIdeal
    product: QuadIdeal
    product_content: int
    product_norm: int
    norm_bound_ok: bool
    subset_sums: dict[str, float]


def nonprimitive_product_example(
    r: int, s: int, t: int, k: int, c: int
) -> NonprimitiveProduct:
    """Build the ideal triple for parameters (r, s, t, k, c) and multiply the
    first two members; raises when the parameters give no valid triple or the
    product content is not exactly r."""
    if r < 2 or s < 2 or t < 1 or k < 1 or c < 1:
        raise CriterionError(
            "parameters must satisfy r >= 2, s >= 2, t >= 1, k >= 1, c >= 1"
        )
    p = r * s
    q = t * p + r
    if gcd(q, c) != 1:
        raise CriterionError(f"c={c} must be coprime to q={q}")
    a_val = p**k * q
    d = (a_val + c) ** 2 + 4 * a_val
    try:
        factor_1 = QuadIdeal(d, r * s, a_val - c)
        factor_2 = QuadIdeal(d, r * (t * s + 1), a_val + c)
        companion = QuadIdeal(
            d, s * (t * s + 1), a_val + p + 1 - 2 * s * (t * s - t + 1)
        )
    except ValueError as exc:
        raise CriterionError(
            f"parameters (r,s,t,k,c)=({r},{s},{t},{k},{c}) give no valid"
            f" ideal triple: {exc}"
        ) from exc
    # factor_2 is regular, so composition applies: a prime l dividing its
    # content gcd(q, A + c, p**k) divides p and q, so r, so c, against gcd(q, c) = 1
    product = multiply_ideals(factor_1, factor_2)
    norm_product = factor_1.norm * factor_2.norm
    if product.e != r:
        raise CriterionError(
            f"product content is {product.e}, not r={r}, for parameters"
            f" (r,s,t,k,c)=({r},{s},{t},{k},{c})"
        )
    big_l = 0.5 * math.log(d) - math.log(2.0)
    norms3 = (factor_1.norm, factor_2.norm, companion.norm)
    logs = [math.log(n) for n in norms3]
    subset_sums: dict[str, float] = {}
    for vec, _prod in _bounded_vectors(d, norms3):
        support = tuple(i for i, e in enumerate(vec) if e)
        if 0 in support and 1 in support:
            continue
        key = ",".join(str(i + 1) for i in support) if support else "unit"
        term = big_l - sum(e * ln for e, ln in zip(vec, logs))
        subset_sums[key] = subset_sums.get(key, 0.0) + term
    return NonprimitiveProduct(
        params=(r, s, t, k, c),
        d=d,
        factor_1=factor_1,
        factor_2=factor_2,
        companion=companion,
        product=product,
        product_content=product.e,
        product_norm=norm_product,
        norm_bound_ok=4 * norm_product * norm_product < d,
        subset_sums=subset_sums,
    )


def search_nonprimitive_example() -> NonprimitiveProduct:
    """First parameter tuple (r, s, t, k, c), in lexicographic order over
    2 <= r, s <= 5, 1 <= t <= 4, 1 <= k <= 5 and 1 <= c <= 50, whose ideal
    triple is valid, whose first two ideals are reduced, and whose
    non-primitive product still has norm below sqrt(d)/2."""
    box = range(2, 6), range(2, 6), range(1, 5), range(1, 6), range(1, 51)
    for params in itertools.product(*box):
        try:
            rec = nonprimitive_product_example(*params)
        except CriterionError:
            continue
        if not rec.norm_bound_ok:
            continue
        if None not in (reduced_b(rec.factor_1), reduced_b(rec.factor_2)):
            return rec
    raise CriterionError(
        "no non-primitive product instance found within the search bounds"
    )
