"""Tests for the regulator lower-bound criterion machinery."""

import itertools
import math
import re
from dataclasses import dataclass
from math import gcd
from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp
from mpmath.libmp import dps_to_prec

from qrl import criterion
from qrl.cfrac import (
    exact_unit,
    principal_expansion,
    principal_ideal_of_norm,
)
from qrl.criterion import (
    CriterionError,
    CriterionInput,
    NormSplit,
    check_hypotheses,
    clear_ramified_parts,
    enumerate_power_products,
    evaluate_criterion,
    nonprimitive_product_example,
    regulator_lower_bound,
    search_nonprimitive_example,
    simplex_integral,
    _bounded_vectors,
)
from qrl.quadorder import (
    QuadIdeal,
    classify,
    multiply_ideals,
    unit_ideal,
)
from test_classno import fundamental_discriminants
from test_quadorder import module_product, reduced_preimage


def members(products) -> list[QuadIdeal]:
    """The member ideals [A_v, (b_v + sqrt(d))/2] of a power-product set,
    A_v = prod_i norms[i]**vectors[v][i]."""
    return [
        QuadIdeal(products.d, math.prod(n**e for n, e in zip(products.norms, vec)), b)
        for vec, b in zip(products.vectors, products.b, strict=True)
    ]


@dataclass(frozen=True)
class LatticeGap:
    """Lattice sum vs. simplex integral for one bound region."""

    d: int
    norms: tuple[int, ...]
    lattice_sum: float
    integral: float
    diff: float
    lattice_count: int


def lattice_integral_gap(d: int, norms: Sequence[int]) -> LatticeGap:
    """Compare the lattice sum over integer exponent vectors (product of
    norms**e at most sqrt(d)/2) with the simplex integral.

    d only enters through log(sqrt(d)/2), so any integer d >= 5 is accepted
    here, discriminant or not.
    """
    if d < 5:
        raise CriterionError("d must be at least 5")
    norms = tuple(int(n) for n in norms)
    if any(n < 2 for n in norms):
        raise CriterionError("all norms must be >= 2")
    big_l = 0.5 * math.log(d) - math.log(2.0)
    logs = [math.log(n) for n in norms]
    total, count = 0.0, 0
    # 4 A**2 <= d is 4 A**2 < d + 1
    for vec, _prod in _bounded_vectors(d + 1, norms):
        total += big_l - sum(e * ln for e, ln in zip(vec, logs))
        count += 1
    integral = simplex_integral(big_l, norms)
    return LatticeGap(d, norms, total, integral, total - integral, count)


def test_norm_split_validation():
    with pytest.raises(CriterionError):
        NormSplit(6, 2, 2)
    with pytest.raises(CriterionError):
        NormSplit(0, 1, 1)
    with pytest.raises(CriterionError):
        CriterionInput(7, (NormSplit(3, 3, 1),))  # 7 % 4 == 3


def test_check_hypotheses_pass():
    assert check_hypotheses(CriterionInput(61, (NormSplit(3, 3, 1),))) == []


def test_check_hypotheses_norm_not_in_cycle():
    # 61 is 5 mod 8, so no ideal of norm 2 exists at all.
    assert check_hypotheses(CriterionInput(61, (NormSplit(2, 2, 1),))) == [
        "2 is not the norm of a reduced principal ideal"
    ]


def test_check_hypotheses_split_parts():
    # d=60: norm 6 is in the cycle but its coprime part 2 divides 60.
    assert check_hypotheses(CriterionInput(60, (NormSplit(6, 2, 3),))) == [
        "gcd(2, 60) != 1"
    ]
    # orientation flipped: 3 shares a factor with 105 and 2 does not divide it
    assert check_hypotheses(CriterionInput(105, (NormSplit(6, 3, 2),))) == [
        "gcd(3, 105) != 1",
        "2 is not a squarefree divisor of the fundamental discriminant",
    ]


def test_check_hypotheses_pairwise():
    splits = (NormSplit(6, 2, 3), NormSplit(4, 4, 1))
    assert check_hypotheses(CriterionInput(105, splits)) == [
        "coprime parts of entries 0 and 1 share a common factor"
    ]


def test_clear_ramified_parts_squares_coprime_part():
    assert clear_ramified_parts(CriterionInput(60, (NormSplit(6, 2, 3),))) == (4,)


def test_clear_ramified_parts_keeps_plain_entries():
    assert clear_ramified_parts(CriterionInput(61, (NormSplit(3, 3, 1),))) == (3,)


def test_clear_ramified_parts_drops_pure_ramified():
    assert clear_ramified_parts(CriterionInput(105, (NormSplit(3, 1, 3),))) == ()


def test_clear_ramified_parts_detects_conductor_clash():
    # d = 125 = 5 * 5**2: the norm-5 ideal shares its prime with the
    # conductor, so it is not regular: its square is 5 times itself, not 5
    # times the unit ideal, and composition refuses the product.
    frak = QuadIdeal(125, 5, 5)
    assert module_product(frak, frak) == QuadIdeal(125, 5, 5, 5)
    message = (
        "1*[5,(5+sqrt(125))/2] does not square to 5 times the unit ideal;"
        " the ramified part 5 of 5 cannot be cleared"
    )
    with pytest.raises(CriterionError, match=re.escape(message)):
        clear_ramified_parts(CriterionInput(125, (NormSplit(5, 1, 5),)))


def test_enumerate_power_products_61():
    pps = enumerate_power_products(61, [3])
    assert pps.vectors == ((0,), (1,))
    assert members(pps) == [unit_ideal(61), QuadIdeal(61, 3, 7)]
    assert pps.b == (7, 7)  # (7 + sqrt(61))/2 and (7 + sqrt(61))/6
    for ideal in members(pps):
        assert ideal.e == 1 and classify(ideal).reduced


def test_enumerate_power_products_empty_norms():
    pps = enumerate_power_products(61, [])
    assert pps.vectors == ((),)
    assert members(pps) == [unit_ideal(61)]


def test_enumerate_power_products_errors():
    with pytest.raises(CriterionError, match="not the norm"):
        enumerate_power_products(61, [2])
    with pytest.raises(CriterionError, match=">= 2"):
        enumerate_power_products(61, [1])
    with pytest.raises(CriterionError, match="multiplicatively dependent"):
        enumerate_power_products(61, [3, 3])
    with pytest.raises(CriterionError, match="discriminant"):
        enumerate_power_products(7, [2])


def test_bounded_vector_counts():
    # there are 33 products 2**a * 3**b strictly below sqrt(999999)/2
    assert sum(1 for _ in _bounded_vectors(999999, [2, 3])) == 33
    # closed bound at d = 10**6, 4 A**2 < d + 1: 2**e <= 500 gives e = 0..8
    assert sum(1 for _ in _bounded_vectors(10**6 + 1, [2])) == 9


def test_regulator_lower_bound_61():
    rep = regulator_lower_bound(enumerate_power_products(61, [3]))
    assert rep.lattice_count == 2
    assert rep.discrete_sum == pytest.approx(1.625967, abs=1e-4)
    assert rep.exact_sum == pytest.approx(2.905732, abs=1e-4)
    assert rep.integral == pytest.approx(0.844626, abs=1e-4)
    assert rep.regulator == pytest.approx(3.664218, abs=1e-4)
    assert rep.log_norm_product == pytest.approx(math.log(3), rel=1e-12)
    assert rep.discrete_sum <= rep.exact_sum <= rep.regulator


def test_regulator_lower_bound_empty_norms():
    rep = regulator_lower_bound(enumerate_power_products(61, []))
    big_l = 0.5 * math.log(61) - math.log(2)
    assert rep.lattice_count == 1
    assert rep.discrete_sum == pytest.approx(big_l, rel=1e-12)
    assert rep.integral == pytest.approx(big_l, rel=1e-12)
    assert rep.exact_sum == pytest.approx(math.log((7 + math.sqrt(61)) / 2), rel=1e-9)
    assert rep.discrete_sum <= rep.exact_sum <= rep.regulator


def test_evaluate_criterion_ramified_end_to_end():
    # d = 105: norm 6 = 2 * 3 with 3 dividing the fundamental discriminant;
    # clearing replaces it by 4, which is again a cycle norm.
    inp = CriterionInput(105, (NormSplit(6, 2, 3),))
    assert check_hypotheses(inp) == []
    products, bound = evaluate_criterion(inp)
    assert products.norms == bound.norms == (4,)
    assert bound.discrete_sum == pytest.approx(1.881372, abs=1e-4)
    assert bound.exact_sum == pytest.approx(2.768531, abs=1e-4)
    assert bound.regulator == pytest.approx(4.406570, abs=1e-4)
    assert bound.discrete_sum <= bound.exact_sum <= bound.regulator


def test_evaluate_criterion_rejects_failed_hypotheses():
    with pytest.raises(CriterionError, match="gcd"):
        evaluate_criterion(CriterionInput(60, (NormSplit(6, 2, 3),)))


def reference_sums(products):
    """The discrete sum, the exact sum and the regulator at 60 digits."""
    d = products.d
    with mp.workdps(60):
        root = mp.sqrt(d)
        discrete = mp.fsum(
            mp.log(root / 2)
            - mp.log(math.prod(n**e for n, e in zip(products.norms, vec)))
            for vec in products.vectors
        )
        rhos = [reduced_preimage(ideal) for ideal in members(products)]
        exact = mp.fsum(mp.log((rho.b + root) / (2 * rho.a)) for rho in rhos)
        u = exact_unit(d)
        return discrete, exact, mp.log((u.x + u.y * root) / 2)


def check_within_an_ulp_below_reference_sums(d, n):
    """The criterion's products for d and the one norm n: each operation is
    rounded toward the safe side, so each lower bound is the float just
    below its 60-digit reference sum, and the regulator the float above."""
    products, report = evaluate_criterion(CriterionInput(d, (NormSplit(n, n, 1),)))
    discrete, exact, reg = reference_sums(products)
    for bound, ref in ((report.discrete_sum, discrete), (report.exact_sum, exact)):
        assert bound <= ref <= bound + math.ulp(bound), d
    assert report.regulator >= reg, d
    return products


def test_regulator_lower_bound_within_an_ulp_below_reference_sums():
    # every fourth fundamental d <= 2*10**4 with the census's norm: the
    # smallest principal-cycle norm n > 1 coprime to d
    checked = 0
    for d in list(fundamental_discriminants(5, 20001))[::4]:
        norms = [a for a in principal_expansion(d).a if a > 1 and gcd(a, d) == 1]
        if not norms:
            continue
        check_within_an_ulp_below_reference_sums(d, min(norms))
        checked += 1
    assert checked >= 1000


@pytest.mark.slow
@pytest.mark.parametrize("k", [15, 17, 18, 19])
def test_regulator_lower_bound_within_an_ulp_below_reference_sums_on_cubic_d(k):
    # the cubic family's d of p = 2, q = 3 (d = 9.7e9 to 2.5e12), whose
    # norms 2^j, j <= k, are all reduced principal
    d = (2**k * 3 + 3) ** 2 - 8
    assert len(check_within_an_ulp_below_reference_sums(d, 2).vectors) == k + 1


def cycle_norm_choices(d):
    """For m = 1, 2 and 3, the first two choices in lexicographic order of m
    pairwise coprime principal-cycle norms n >= 2 coprime to d."""
    norms = sorted({a for a in principal_expansion(d).a if a >= 2 and gcd(a, d) == 1})
    choices = []
    for m in (1, 2, 3):
        coprime = (
            list(choice)
            for choice in itertools.combinations(norms, m)
            if all(gcd(n1, n2) == 1 for n1, n2 in itertools.combinations(choice, 2))
        )
        choices += itertools.islice(coprime, 2)
    return choices


def small_instances():
    """(d, norms) for every fundamental d < 3000 and its cycle-norm choices."""
    return [
        (d, norms)
        for d in fundamental_discriminants(5, 3000)
        for norms in cycle_norm_choices(d)
    ]


def test_power_products_match_module_products():
    """Each member is the chain of module products of its base ideals, and
    the vectors are every e with 4 A**2 < d, in lexicographic order."""
    counts = [0, 0, 0]
    for d, norms in small_instances():
        products = enumerate_power_products(d, norms)
        ranges = [range(int(math.log(math.isqrt(d) + 1, n)) + 2) for n in norms]
        expected = [
            vec
            for vec in itertools.product(*ranges)
            if 4 * math.prod(n**e for n, e in zip(norms, vec)) ** 2 < d
        ]
        assert list(products.vectors) == expected, (d, norms)
        base = [principal_ideal_of_norm(d, n) for n in norms]
        for vec, ideal, b in zip(
            products.vectors, members(products), products.b, strict=True
        ):
            chain = unit_ideal(d)
            for base_ideal, e in zip(base, vec):
                for _ in range(e):
                    chain = module_product(chain, base_ideal)
            assert ideal == chain, (d, norms, vec)
            assert b == reduced_preimage(ideal).b, (d, norms, vec)
        counts[len(norms) - 1] += 1
    assert min(counts) >= 100, counts


@pytest.mark.parametrize("dps", [30, 10])
def test_soundness_on_cycle_norms(dps, monkeypatch):
    """discrete <= exact <= regulator over instances harvested from cycles,
    each float rounded in the safe direction from its 60-digit value, and
    the two lower bounds within one ulp plus 2**13 u N (L + 1) below it
    (2**-90 N (L + 1) at 30 digits), also when the sums are evaluated at
    fewer digits than the floats hold."""
    monkeypatch.setattr(criterion, "REGULATOR_PREC", dps_to_prec(dps))
    with mp.workdps(dps):
        u = mp.mpf(2) ** -mp.prec
    instances = []
    for d in (53, 61, 69, 76, 105, 136, 316, 1077, 9949):
        cycle_norms = sorted(
            {rho.a for rho in principal_expansion(d).cycle if rho.a >= 2}
        )
        singles = [[n] for n in cycle_norms if gcd(n, d) == 1]
        pairs = [
            [n1, n2]
            for i, n1 in enumerate(cycle_norms)
            for n2 in cycle_norms[i + 1 :]
            if gcd(n1, n2) == 1 and gcd(n1 * n2, d) == 1
        ]
        instances += [(d, norms) for norms in singles + pairs]
    checked = 0
    for d, norms in instances + small_instances():
        try:
            products = enumerate_power_products(d, norms)
            rep = regulator_lower_bound(products)
        except CriterionError:
            continue  # e.g. multiplicatively dependent choices
        assert rep.discrete_sum <= rep.exact_sum <= rep.regulator
        discrete, exact, reg = reference_sums(products)
        assert rep.discrete_sum <= discrete and rep.exact_sum <= exact, (d, norms)
        assert rep.regulator >= reg, (d, norms)
        with mp.workdps(60):
            slack = 2**13 * u * len(products.vectors) * (mp.log(mp.sqrt(d) / 2) + 1)
            for bound, ref in ((rep.discrete_sum, discrete), (rep.exact_sum, exact)):
                assert ref - bound <= slack + math.ulp(bound), (d, norms)
        checked += 1
    assert checked >= 3000


def test_simplex_integral_values():
    assert simplex_integral(10.0, [2]) == pytest.approx(
        100 / (2 * math.log(2)), rel=1e-12
    )
    assert simplex_integral(10.0, [2]) == pytest.approx(72.134752, abs=1e-5)
    assert simplex_integral(10.0, [2, 3]) == pytest.approx(
        1000 / (6 * math.log(2) * math.log(3)), rel=1e-12
    )
    assert simplex_integral(10.0, []) == 10.0
    assert simplex_integral(-1.0, [2]) == 0.0
    # the log-bound log(sqrt(d)/2) of d = 10**6
    big_l = 0.5 * math.log(10**6) - math.log(2.0)
    assert simplex_integral(big_l, [2]) == pytest.approx(27.8594, abs=1e-3)
    with pytest.raises(CriterionError):
        simplex_integral(10.0, [1])


def _simpson(f, lo, hi, panels=16):
    if hi <= lo:
        return 0.0
    h = (hi - lo) / (2 * panels)
    total = f(lo) + f(hi)
    for i in range(1, 2 * panels):
        total += f(lo + i * h) * (4 if i % 2 else 2)
    return total * h / 3.0


def _simplex_quadrature(big_l, norms):
    """Iterated Simpson integration of (big_l - sum x_i log n_i) over the
    simplex; the integrand is polynomial of degree <= 3 per level for m <= 3,
    where composite Simpson is exact."""
    logs = [math.log(n) for n in norms]

    def level(i, remaining):
        if i == len(logs):
            return remaining
        return _simpson(lambda x: level(i + 1, remaining - x * logs[i]),
                        0.0, remaining / logs[i])

    return level(0, big_l)


@pytest.mark.parametrize(
    "big_l,norms",
    [
        (10.0, [2]),
        (6.2146, [2]),
        (10.0, [2, 3]),
        (7.0, [2, 3, 5]),
    ],
)
def test_simplex_integral_matches_quadrature(big_l, norms):
    closed = simplex_integral(big_l, norms)
    quad = _simplex_quadrature(big_l, norms)
    assert closed == pytest.approx(quad, rel=1e-6)


def test_lattice_integral_gap_reference():
    gap = lattice_integral_gap(10**6, [2])
    assert gap.lattice_count == 9
    assert gap.lattice_sum == pytest.approx(30.9782, abs=2e-3)
    assert gap.integral == pytest.approx(27.8594, abs=2e-3)
    assert gap.diff == pytest.approx(gap.lattice_sum - gap.integral, rel=1e-12)


def test_lattice_integral_gap_single_term():
    # sqrt(5)/2 < 2, so only the zero vector contributes and the sum is L
    gap = lattice_integral_gap(5, [2])
    big_l = 0.5 * math.log(5) - math.log(2)
    assert gap.lattice_count == 1
    assert gap.lattice_sum == pytest.approx(big_l, rel=1e-12)
    assert gap.lattice_sum == pytest.approx(gap.diff + gap.integral, rel=1e-12)


def test_lattice_integral_gap_ratio_small():
    for norms, m in (([2], 1), ([2, 3], 2)):
        for d in (10**6, 10**8):
            gap = lattice_integral_gap(d, norms)
            assert abs(gap.diff) / math.log(d) ** m < 1.0


def test_nonprimitive_search_first_hit():
    rec = search_nonprimitive_example()
    assert rec.params == (2, 2, 2, 1, 43)
    assert rec.d == 7049
    assert rec.product_content == 2 and rec.product_content == rec.params[0]
    assert rec.product_norm == 40
    assert rec.norm_bound_ok
    assert rec.product == QuadIdeal(7049, 10, -7, 2)
    assert rec.companion == QuadIdeal(7049, 10, 33)
    assert classify(rec.factor_1).reduced and classify(rec.factor_2).reduced
    assert rec.factor_1.e == 1 and rec.factor_2.e == 1
    # closed-form composition agrees with the module product here
    assert multiply_ideals(rec.factor_1, rec.factor_2) == rec.product
    # norm multiplicativity: 40 = 4 * 10 < sqrt(7049)/2 yet content 2
    assert 4 * rec.product_norm**2 < rec.d


def test_nonprimitive_subset_sums():
    rec = search_nonprimitive_example()
    big_l = 0.5 * math.log(rec.d) - math.log(2)
    assert rec.subset_sums["unit"] == pytest.approx(big_l, rel=1e-12)
    for key in rec.subset_sums:
        parts = key.split(",")
        assert not ("1" in parts and "2" in parts)
    assert all(v > 0 for v in rec.subset_sums.values())


def test_nonprimitive_explicit_instance_below_bound():
    # c = 3 gives a valid triple whose product norm exceeds sqrt(d)/2
    rec = nonprimitive_product_example(2, 2, 2, 1, 3)
    assert rec.d == 2009
    assert rec.product_content == 2
    assert rec.product_norm == 40
    assert not rec.norm_bound_ok


def test_nonprimitive_invalid_parameters():
    with pytest.raises(CriterionError, match="coprime"):
        nonprimitive_product_example(2, 2, 2, 1, 5)  # gcd(c, q) = 5
    with pytest.raises(CriterionError, match="no valid ideal triple"):
        nonprimitive_product_example(2, 2, 1, 1, 7)
    with pytest.raises(CriterionError, match="parameters must satisfy"):
        nonprimitive_product_example(1, 2, 1, 1, 1)


@settings(max_examples=40, deadline=None)
@given(
    r=st.integers(2, 4),
    s=st.integers(2, 4),
    t=st.integers(1, 3),
    k=st.integers(1, 3),
    c=st.integers(1, 30),
)
def test_nonprimitive_content_always_r(r, s, t, k, c):
    try:
        rec = nonprimitive_product_example(r, s, t, k, c)
    except CriterionError:
        return
    assert rec.product_content == r
    assert rec.product_norm == (r * s) * (r * (t * s + 1))
    # the composition that builds the product needs a regular factor
    assert classify(rec.factor_2).regular
