import random
from math import gcd, isqrt, sqrt

import pytest
from mpmath import mp

from qrl.intarith import is_discriminant
from qrl.quadorder import (
    QuadIdeal,
    QuadIrrational,
    canonical_irrational,
    classify,
    format_ideal_literal,
    is_reduced_state,
    module_product,
    multiply_ideals,
    parse_ideal_literal,
    reduced_b,
    unit_ideal,
)
from test_intarith import divisors


def ideal_power(ideal: QuadIdeal, t: int) -> QuadIdeal:
    if t < 0:
        raise ValueError("ideal_power: exponent must be non-negative")
    out = unit_ideal(ideal.d)
    for _ in range(t):
        out = multiply_ideals(out, ideal)
    return out


def conjugate(ideal: QuadIdeal) -> QuadIdeal:
    return QuadIdeal(ideal.d, ideal.a, -ideal.b, ideal.e)


def irrational_value(rho: QuadIrrational) -> float:
    return (rho.b + sqrt(rho.d)) / (2 * rho.a)


def is_reduced(rho: QuadIrrational) -> bool:
    return is_reduced_state(rho.a, rho.b, isqrt(rho.d))


def to_ideal(rho: QuadIrrational) -> QuadIdeal:
    """The module [a, (b + sqrt(d))/2] that rho generates."""
    return QuadIdeal(rho.d, rho.a, rho.b)


def reduced_preimage(ideal: QuadIdeal) -> QuadIrrational | None:
    """The reduced quadratic irrational generating this ideal, if one exists:
    the residue of b mod 2a inside (sqrt(d) - 2a, sqrt(d)), validated as a
    QuadIrrational. An oracle for reduced_b that does not call it."""
    if not classify(ideal).regular:
        return None
    s = isqrt(ideal.d)
    bw = ideal.b + 2 * ideal.a * ((s - ideal.b) // (2 * ideal.a))
    if bw >= 2 * ideal.a - s:
        return QuadIrrational(ideal.d, ideal.a, bw)
    return None


def random_ideal(rng, d, allow_content=True):
    while True:
        b = d % 2 + 2 * rng.randrange(-400, 400)
        m = abs(b * b - d) // 4
        if m == 0:
            continue
        a = rng.choice(divisors(m))
        e = rng.choice((1, 1, 1, 2, 3)) if allow_content else 1
        return QuadIdeal(d, a, b, e)


def sample_discriminants(rng, count, lo=5, hi=10**6):
    out = []
    while len(out) < count:
        d = rng.randrange(lo, hi)
        if is_discriminant(d):
            out.append(d)
    return out


def test_make_ideal_examples():
    i = QuadIdeal(13, 3, 1)
    assert i.norm == 3
    assert QuadIdeal(13, 1, 1) == unit_ideal(13)
    with pytest.raises(ValueError, match="4ae"):
        QuadIdeal(13, 2, 3)
    with pytest.raises(ValueError, match="2e"):
        QuadIdeal(13, 3, 2)


def test_b_normalization():
    assert QuadIdeal(13, 3, 7) == QuadIdeal(13, 3, 1)
    assert QuadIdeal(13, 3, -5) == QuadIdeal(13, 3, 1)
    # b = a stays at a, not -a
    assert QuadIdeal(12, 2, -2).b == 2


def test_classify_examples():
    flags = classify(QuadIdeal(13, 3, 1))
    assert flags.primitive and flags.regular and not flags.reduced
    assert reduced_b(QuadIdeal(13, 3, 1)) is None
    flags = classify(unit_ideal(13))
    assert flags.primitive and flags.regular and flags.reduced
    assert reduced_b(unit_ideal(13)) == 3  # (3 + sqrt(13))/2
    flags = classify(QuadIdeal(61, 3, 7))
    assert flags.reduced  # norm 3 < sqrt(61)/2
    assert reduced_b(QuadIdeal(61, 3, 7)) == 7
    # content 2: not primitive, never reduced
    flags = classify(QuadIdeal(13, 3, 1, 2))
    assert not flags.primitive and not flags.regular and not flags.reduced
    assert reduced_b(QuadIdeal(13, 3, 1, 2)) is None


def test_classify_conductor():
    # d = 45 = 5 * 3^2, conductor 3
    assert classify(QuadIdeal(45, 3, 3)).prime_to_conductor is False
    assert classify(QuadIdeal(45, 11, 21)).prime_to_conductor is True


def test_irregular_example():
    flags = classify(QuadIdeal(45, 3, 3))
    assert flags.primitive and not flags.regular and not flags.reduced
    assert reduced_b(QuadIdeal(45, 3, 3)) is None


def all_primitive_ideals(d, a_max):
    """Every ideal [a, (b + sqrt(d))/2] with e = 1 and a <= a_max: for each b
    in (-a_max, a_max], b = d (mod 2), each divisor a >= |b| of (b^2 - d)/4
    with b in (-a, a]."""
    lo = 1 - a_max
    for b in range(lo + (lo - d) % 2, a_max + 1, 2):
        for a in divisors(abs(b * b - d) // 4):
            if -a < b <= a <= a_max:
                yield QuadIdeal(d, a, b)


def test_reduced_b_matches_definition():
    """On every ideal with e = 1 and a < d of every d < 500: classify's reduced
    flag holds iff the ideal is regular and some b' = b (mod 2a) makes
    rho = (b' + sqrt(d))/(2a) > 1 and -1 < rho' < 0, at 50 digits; reduced_b
    returns that b', else None. -1 < rho' < 0 puts b' in (sqrt(d) - 2a,
    sqrt(d)), so the b' with |b'| <= s + 2a + 1, s = isqrt(d), are all the
    candidates; no a >= sqrt(d) is reduced, since rho - rho' = sqrt(d)/a."""
    checked = found = 0
    with mp.workdps(50):
        for d in range(5, 500):
            if not is_discriminant(d):
                continue
            root, s = mp.sqrt(d), isqrt(d)
            for ideal in all_primitive_ideals(d, d - 1):
                a, b = ideal.a, ideal.b
                regular = gcd(gcd(a, b), (b * b - d) // (4 * a)) == 1
                lo = -(s + 2 * a + 1)
                witnesses = [
                    bp
                    for bp in range(lo + (b - lo) % (2 * a), s + 2 * a + 2, 2 * a)
                    if (bp + root) / (2 * a) > 1 and -1 < (bp - root) / (2 * a) < 0
                ]
                assert len(witnesses) <= 1, (d, a, b)
                reduced = regular and bool(witnesses)
                assert classify(ideal).reduced == reduced, (d, a, b)
                assert reduced_b(ideal) == (witnesses[0] if reduced else None), (d, a, b)
                checked += 1
                found += reduced
    assert found > 1000 and checked > 10 * found, (checked, found)


def test_multiply_examples():
    a = QuadIdeal(13, 3, 1)
    assert multiply_ideals(unit_ideal(13), a) == a
    assert multiply_ideals(a, conjugate(a)) == QuadIdeal(13, 1, 1, 3)
    sq = multiply_ideals(a, a)
    assert sq == QuadIdeal(13, 9, 7) and sq.e == 1


def test_multiply_mismatched_d():
    with pytest.raises(ValueError, match="discriminants differ"):
        multiply_ideals(unit_ideal(13), unit_ideal(17))


def test_multiply_irregular_pair_raises():
    a = QuadIdeal(45, 3, 3)
    with pytest.raises(ValueError, match="irregular"):
        multiply_ideals(a, a)
    # the module product still exists: a^2 = 3*a, norm 27 != 9
    sq = module_product(a, a)
    assert sq == QuadIdeal(45, 3, 3, 3)
    assert sq.norm == 27


def test_ideal_power_examples():
    a = QuadIdeal(13, 3, 1)
    assert ideal_power(a, 0) == unit_ideal(13)
    assert ideal_power(a, 1) == a
    p2 = ideal_power(a, 2)
    assert p2.norm == 9 and p2.e == 1


def test_to_ideal_examples():
    assert to_ideal(QuadIrrational(13, 1, 3)) == unit_ideal(13)
    assert to_ideal(QuadIrrational(13, 3, 1)) == QuadIdeal(13, 3, 1)
    assert to_ideal(QuadIrrational(61, 3, 7)) == QuadIdeal(61, 3, 7)


def test_canonical_irrational():
    w = canonical_irrational(13)
    assert (w.a, w.b) == (1, 1)
    w = canonical_irrational(8)
    assert (w.a, w.b) == (1, 0)
    assert abs(irrational_value(w) - 8**0.5 / 2) < 1e-12


def test_irrational_validation():
    with pytest.raises(ValueError, match="4a"):
        QuadIrrational(13, 2, 3)
    with pytest.raises(ValueError, match="content"):
        QuadIrrational(45, 3, 3)


def test_norm_multiplicativity_random():
    rng = random.Random(7)
    for d in sample_discriminants(rng, 10):
        for _ in range(1000):
            i1, i2 = random_ideal(rng, d), random_ideal(rng, d)
            try:
                prod = multiply_ideals(i1, i2)
            except ValueError:
                continue  # both irregular: norms are genuinely not multiplicative
            assert prod.norm == i1.norm * i2.norm


def test_composition_matches_module_oracle():
    rng = random.Random(11)
    done = 0
    while done < 500:
        d = sample_discriminants(rng, 1)[0]
        i1, i2 = random_ideal(rng, d), random_ideal(rng, d)
        try:
            prod = multiply_ideals(i1, i2)
        except ValueError:
            continue
        assert prod == module_product(i1, i2)
        done += 1


def test_conjugation_law():
    rng = random.Random(13)
    done = 0
    while done < 200:
        d = sample_discriminants(rng, 1)[0]
        i1 = random_ideal(rng, d)
        if not classify(QuadIdeal(d, i1.a, i1.b)).regular:
            continue
        assert multiply_ideals(i1, conjugate(i1)) == QuadIdeal(
            d, 1, d % 2, i1.e * i1.e * i1.a
        )
        done += 1


def test_primitive_powers_stay_primitive():
    rng = random.Random(17)
    done = 0
    while done < 500:
        d = sample_discriminants(rng, 1)[0]
        i1 = random_ideal(rng, d, allow_content=False)
        if gcd(i1.a, d) != 1 or not classify(i1).regular:
            continue
        t = rng.randrange(7)
        assert ideal_power(i1, t).e == 1
        done += 1


def test_reduced_round_trip():
    rng = random.Random(19)
    seen_reduced = 0
    for d in sample_discriminants(rng, 40, hi=10**5):
        for _ in range(50):
            i1 = random_ideal(rng, d, allow_content=False)
            flags = classify(i1)
            rho = reduced_preimage(i1)
            if flags.reduced:
                assert rho is not None and is_reduced(rho)
                assert to_ideal(rho) == i1
                assert classify(to_ideal(rho)).reduced
                seen_reduced += 1
            else:
                assert rho is None or not is_reduced(rho)
    assert seen_reduced > 20


def test_reduced_irrational_maps_to_reduced_ideal():
    rng = random.Random(23)
    done = 0
    while done < 300:
        d = sample_discriminants(rng, 1, hi=10**5)[0]
        i1 = random_ideal(rng, d, allow_content=False)
        rho = reduced_preimage(i1)
        if rho is None:
            continue
        assert is_reduced(rho)
        assert classify(to_ideal(rho)).reduced
        done += 1


def test_ideal_literal_round_trip():
    for text, ideal in [
        ("1*[3,(1+sqrt(13))/2]", QuadIdeal(13, 3, 1)),
        ("[3,(1+sqrt(13))/2]", QuadIdeal(13, 3, 1)),
        ("3*[1,(1+sqrt(13))/2]", QuadIdeal(13, 1, 1, 3)),
        ("[9,(-5+sqrt(61))/2]", QuadIdeal(61, 9, -5)),
    ]:
        assert parse_ideal_literal(text) == ideal
    i = QuadIdeal(61, 9, -5, 2)
    assert parse_ideal_literal(format_ideal_literal(i)) == i
    with pytest.raises(ValueError, match="parse"):
        parse_ideal_literal("[3, (1+sqrt 13)/2]")
    with pytest.raises(ValueError, match="4ae"):
        parse_ideal_literal("[2,(3+sqrt(13))/2]")
