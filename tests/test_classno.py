import math
import random
import tracemalloc
from fractions import Fraction
from math import gcd, isqrt, log, sqrt

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from qrl import classno
from qrl.cfrac import (
    REGULATOR_DPS,
    cf_expand,
    cf_orbit,
    fundamental_unit,
    regulator_enclosure,
)
from qrl.classno import (
    _analytic_class_number,
    class_number,
    class_number_forms,
    h_bound,
    l_value_exact,
    l_value_truncated,
    reduced_forms,
)
from qrl.families import build_progression, scan_squarefree
from qrl.intarith import (
    factorize,
    fundamental_decomposition,
    is_discriminant,
    kronecker,
    prime_array,
)
from qrl.quadorder import canonical_irrational
from test_families import legendre_table
from test_intarith import divisors


def fundamental_discriminants(lo, hi):
    for d in range(lo, hi):
        if is_discriminant(d) and fundamental_decomposition(d).conductor == 1:
            yield d


def test_class_number_examples():
    assert class_number_forms(5) == (1, 1)
    assert class_number_forms(40) == (2, 2)
    assert class_number_forms(61) == (1, 1)
    assert class_number_forms(12) == (1, 2)
    assert class_number_forms(45) == (1, 2)
    assert class_number_forms(229) == (3, 3)


def form_cycles(d):
    """Reduced forms grouped into cycles of the continued-fraction step, by
    a walk of each cycle: the oracle for class_number_forms' permutation
    count."""
    forms = reduced_forms(d).tolist()
    unvisited = {(a, b) for a, b, _ in forms}
    cycles = []
    for a0, b0, _ in forms:
        if (a0, b0) not in unvisited:
            continue
        cyc = []
        for _, a, b in cf_orbit(d, a0, b0):
            if (a, b) not in unvisited:
                break
            unvisited.remove((a, b))
            cyc.append((a, b, (b * b - d) // (4 * a)))
        assert (a, b) == (a0, b0)  # the step permutes reduced forms
        cycles.append(cyc)
    return cycles


def walked_class_numbers(d):
    """(h, h_narrow) from the cycles of form_cycles: h_narrow is h when the
    cycle through the a = 1 form is odd, else 2h."""
    cycles = form_cycles(d)
    h = len(cycles)
    principal = next(cyc for cyc in cycles if min(cyc)[0] == 1)
    return h, h if len(principal) % 2 else 2 * h


def check_forms_match_walked_cycles(hi):
    for d in range(5, hi):
        if is_discriminant(d):
            assert class_number_forms(d) == walked_class_numbers(d), d


def test_class_number_forms_match_walked_cycles_below_6000():
    check_forms_match_walked_cycles(6000)


@pytest.mark.slow
def test_class_number_forms_match_walked_cycles_below_forms_below():
    # 49683 d, about 20 s
    check_forms_match_walked_cycles(classno.FORMS_BELOW)


@settings(max_examples=30, deadline=None)
@given(st.integers(5, 10**7))
@example(5)
@example(8)
@example(12)
@example(10**6 + 1)
@example(4 * 10**6 + 8)
@example(9_999_997)
@example(10**7 + 1)
def test_class_number_forms_match_walked_cycles_sample(d):
    assume(is_discriminant(d))
    assert class_number_forms(d) == walked_class_numbers(d)


def test_reduced_forms_once_per_d(monkeypatch):
    # the census asks for h by the forms, then for L, which reads h again
    calls = []
    original = classno.reduced_forms

    def counting(d):
        calls.append(d)
        return original(d)

    monkeypatch.setattr(classno, "reduced_forms", counting)
    class_number_forms.cache_clear()
    d = 4 * 3 * 5 * 7 * 11 + 1  # fundamental and below FORMS_BELOW
    assert fundamental_decomposition(d).conductor == 1 and d < classno.FORMS_BELOW
    h = class_number_forms(d)
    l_value_exact(d)
    assert class_number(d) == h
    assert calls == [d]


def test_forms_are_reduced_and_cycles_partition():
    for d in (5, 12, 40, 61, 145, 1020):
        if not is_discriminant(d):
            continue
        forms = reduced_forms(d)
        s = d**0.5
        for a, b, c in forms:
            assert b * b - 4 * a * c == d
            assert 0 < b < s and abs(s - 2 * abs(a)) < b
        cycles = form_cycles(d)
        assert sum(len(c) for c in cycles) == len(forms)


def trial_division_reduced_forms(d):
    """The reduced forms by trial division, the oracle for reduced_forms'
    numpy grid: every divisor u of m = (d - b*b)/4 in the reduced window,
    b ascending, as rows [a, b, c]."""
    s = isqrt(d)
    out = []
    for b in range(2 - d % 2, s + 1, 2):
        m = (d - b * b) // 4
        for u in divisors(m):
            if s + 1 - b <= 2 * u <= s + b and gcd(gcd(u, b), m // u) == 1:
                out.append([u, b, -(m // u)])
    return out


def test_reduced_forms_match_trial_division_below_6000():
    for d in range(5, 6000):
        if is_discriminant(d):
            forms = reduced_forms(d)
            assert forms.dtype == np.int64 and forms.shape == (len(forms), 3)
            assert forms.tolist() == trial_division_reduced_forms(d), d


@settings(max_examples=30, deadline=None)
@given(st.integers(5, 10**7))
@example(5)
@example(8)
@example(12)
@example(13)
@example(10**6 + 1)
@example(4 * 10**6 + 8)
@example(9_999_997)
@example(10**7 + 1)
def test_reduced_forms_match_trial_division_sample(d):
    assume(is_discriminant(d))
    assert reduced_forms(d).tolist() == trial_division_reduced_forms(d)


def test_reduced_forms_across_block_seams(monkeypatch):
    # a block of 7 pairs: seams fall inside rows, and each row with b > 7
    # spans more than one block
    monkeypatch.setattr(classno, "FORM_BLOCK", 7)
    # the cached h of the last d came from the default blocks
    class_number_forms.cache_clear()
    for d in range(5, 2000):
        if is_discriminant(d):
            assert reduced_forms(d).tolist() == trial_division_reduced_forms(d), d
            assert class_number_forms(d) == walked_class_numbers(d), d


@pytest.mark.parametrize("d", [7, 0, -3, 9, 16, 100])
def test_forms_refuse_non_discriminants(d):
    message = f"^{d} is not a real quadratic discriminant$"
    # twice: the cache of class_number_forms keeps no refusal
    for fn in (reduced_forms, form_cycles, class_number_forms) * 2:
        with pytest.raises(ValueError, match=message):
            fn(d)


def test_reduced_forms_refuse_past_grid_limit_before_allocating():
    d = classno.FORM_GRID_LIMIT  # 2**53 = 4 * 2**51, a discriminant
    assert is_discriminant(d)
    tracemalloc.start()
    try:
        for fn in (reduced_forms, class_number_forms) * 2:
            with pytest.raises(ValueError, match=f"FORM_GRID_LIMIT = {d}$"):
                fn(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6


def signed_form_class_numbers(d):
    """(h, h_narrow) as class_number_forms used to count them: h_narrow is
    the number of cycles of the reduced forms of both signs of a under the
    rho step, halved when the principal period is even."""
    s = isqrt(d)
    forms = []
    for b in range(2 - d % 2, s + 1, 2):
        m = (d - b * b) // 4
        for u in divisors(m):
            if s + 1 - b <= 2 * u <= s + b and gcd(gcd(u, b), m // u) == 1:
                forms += [(u, b, -(m // u)), (-u, b, m // u)]
    visited, h_narrow = set(), 0
    for form in forms:
        if form in visited:
            continue
        h_narrow += 1
        while form not in visited:
            visited.add(form)
            _, b, c = form
            b2 = s - ((s + b) % (2 * abs(c)))
            form = (c, b2, (b2 * b2 - d) // (4 * c))
    if len(cf_expand(canonical_irrational(d)).period) % 2:
        return h_narrow, h_narrow
    return h_narrow // 2, h_narrow


def test_class_number_matches_signed_form_oracle():
    for d in range(5, 3000):
        if is_discriminant(d):
            assert class_number_forms(d) == signed_form_class_numbers(d), d


def test_narrow_wide_ratio():
    for d in list(fundamental_discriminants(5, 600)):
        h, h_narrow = class_number_forms(d)
        sign = fundamental_unit(d).norm_sign
        assert h_narrow == (h if sign == -1 else 2 * h)


def check_genus_theory(ds):
    """For a fundamental d with t distinct prime factors, 2**(t-1) divides h+
    (genus theory); the set of the t met."""
    ts = set()
    for d in ds:
        assert fundamental_decomposition(d).conductor == 1, d
        t = len(factorize(d))
        assert class_number(d)[1] % 2 ** (t - 1) == 0, (d, t)
        ts.add(t)
    return ts


def test_genus_theory_divides_narrow_class_number():
    # every fundamental d < 6000, and the records of the m = 1, p1 = 5
    # progression with k <= 12, their h from the scan's analytic series
    check_genus_theory(fundamental_discriminants(5, 6000))
    spec = build_progression(1, [5], 10**10, 0.9)
    large = [rec.d_values[0] for rec in scan_squarefree(spec, 12, with_h=True)]
    assert len(large) == 11 and 5 * 10**7 < min(large) < max(large) < 6 * 10**9
    assert check_genus_theory(large) == {1, 2, 3}


@pytest.mark.slow
def test_genus_theory_on_the_60_k_scan():
    spec = build_progression(1, [5], 10**10, 0.9)
    large = [rec.d_values[0] for rec in scan_squarefree(spec, 60, with_h=True)]
    assert len(large) == 59 and 5 * 10**7 < min(large) < max(large) < 14 * 10**10
    assert check_genus_theory(large) == {1, 2, 3, 4}


def test_l_truncated_examples():
    assert abs(l_value_truncated(5, 10) - 0.4375) < 1e-15
    assert l_value_truncated(5, 1) == 1.0
    assert l_value_truncated(17, 2) == 2.0
    with pytest.raises(ValueError):
        l_value_truncated(5, 0)
    for d in (7, 9, 2**89 - 1):
        message = f"^{d} is not a real quadratic discriminant$"
        with pytest.raises(ValueError, match=message):
            l_value_truncated(d, 10)
    l_value_truncated(5, classno.MAX_EULER_BOUND)
    with pytest.raises(ValueError, match="MAX_EULER_BOUND = 1000000$"):
        l_value_truncated(5, classno.MAX_EULER_BOUND + 1)


def kronecker_euler_product(d, B):
    """The Euler product over the primes p <= B, ascending, by trial
    division and one kronecker call per prime: the oracle for
    l_value_truncated's numpy character."""
    prod = 1.0
    for p in range(2, B + 1):
        if all(p % q for q in range(2, isqrt(p) + 1)):
            chi = kronecker(d, p)
            if chi:
                prod *= p / (p - chi)
    return prod


@pytest.mark.parametrize("B", [1, 2, 217, 10**5])
def test_l_truncated_matches_kronecker_product(B):
    # d sharing the primes 2, 3, 7, 31 and 99991 with B, and ones that do
    # not; 4 (2**89 - 1): d mod p through three 31-bit limbs
    ds = [5, 8, 12, 13, 21, 24, 40, 217, 4 * 217, 99991 * 4, 10**6 + 1]
    ds.append(4 * (2**89 - 1))
    for d in ds:
        assert l_value_truncated(d, B) == kronecker_euler_product(d, B), (d, B)


# ---------------------------------------------------------------------------
# L(1, chi_d) by the finite log-sine sum over half a period: the O(d) oracle
# for l_value_exact, and for the h and R that l_value_exact reads

# largest d of character_row: below it the row's int32 indices are exact
L_VALUE_LIMIT = 10**8
_CHI8 = np.array([0, 1, 0, -1, 0, -1, 0, 1], dtype=np.int8)
_CHI_MINUS8 = np.array([0, 1, 0, 1, 0, -1, 0, -1], dtype=np.int8)
_CHI_MINUS4 = np.array([0, 1, 0, -1], dtype=np.int8)


def character_row(d):
    """chi_d(a) for 0 <= a <= d//2, the half period the log-sine sum
    reads, as an int8 array; d must be fundamental and at most
    L_VALUE_LIMIT."""
    if d > L_VALUE_LIMIT:
        raise ValueError(
            f"character_row: d = {d} exceeds L_VALUE_LIMIT = {L_VALUE_LIMIT}"
        )
    if fundamental_decomposition(d).conductor != 1:
        raise ValueError(f"character_row: {d} is not fundamental")
    n = d // 2 + 1
    idx = np.arange(n, dtype=np.int32)
    row = np.ones(n, dtype=np.int8)
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


def log_sine_l_value(d):
    """L(1, chi_d) by the finite log-sine sum over half a period."""
    half = d // 2
    row = character_row(d)  # raises for non-fundamental d
    a = np.arange(1, half + 1, dtype=np.float64)
    weights = np.log(np.sin(np.pi * a / d))
    return float(-2.0 / sqrt(d) * np.dot(row[1:].astype(np.float64), weights))


def test_l_exact_examples():
    assert abs(l_value_exact(5) - 0.4304089) < 1e-6
    assert abs(l_value_exact(8) - 0.6232252) < 1e-6
    # round trip at d = 40 pins h = 2 to high accuracy
    h_unrounded = sqrt(40) * log_sine_l_value(40) / (2 * fundamental_unit(40).regulator)
    assert abs(h_unrounded - 2) < 1e-9
    with pytest.raises(ValueError, match="fundamental"):
        l_value_exact(45)


def test_l_exact_matches_log_sine_oracle():
    for d in fundamental_discriminants(5, 3000):
        assert l_value_exact(d) == pytest.approx(log_sine_l_value(d), rel=1e-12), d


def test_character_row_matches_kronecker():
    for d in (5, 8, 12, 13, 17, 21, 24, 40, 56, 61, 88, 120, 129, 140):
        row = character_row(d)
        assert row.dtype == np.int8 and len(row) == d // 2 + 1
        assert row.tolist() == [kronecker(d, a) for a in range(d // 2 + 1)], d


def test_character_row_limit():
    # the row's int32 indices stay exact up to the limit
    assert L_VALUE_LIMIT // 2 + 1 < 2**31
    # 10**8 + 1 is fundamental, so only the limit refuses it
    with pytest.raises(ValueError, match="L_VALUE_LIMIT"):
        character_row(L_VALUE_LIMIT + 1)


def test_round_trip_small_range():
    for d in fundamental_discriminants(5, 3000):
        h, _ = class_number_forms(d)
        unrounded = sqrt(d) * log_sine_l_value(d) / (2 * fundamental_unit(d).regulator)
        assert abs(unrounded - h) < 1e-6, d


def test_truncated_approaches_exact():
    rng = random.Random(41)
    picked = 0
    while picked < 20:
        d = rng.randrange(5, 10**6)
        if not (is_discriminant(d) and fundamental_decomposition(d).conductor == 1):
            continue
        assert abs(l_value_truncated(d, 10**5) - log_sine_l_value(d)) <= 0.05
        picked += 1


def test_h_bound_examples():
    assert abs(h_bound(61, 192 * log(3)) - 68.96) < 0.1
    assert h_bound(61, 0.0) == 0.0
    with pytest.raises(ValueError):
        h_bound(15, 1.0)


def test_h_bound_is_rounded_down():
    constant = 192 * log(3)
    for d in fundamental_discriminants(16, 20001):
        bound = h_bound(d, constant)
        with mp.workdps(60):
            log_d = mp.log(d)
            exact = mpf(constant) * mp.sqrt(d) / (log_d**2 * mp.log(log_d))
            assert bound <= exact, d
            assert exact - bound <= 2 * mp.ldexp(exact, -52), d


def check_h_bound_brackets(ds, constants):
    # every operation rounded toward the safe side: at most the 60-digit
    # value, and within two float ulps of it
    with mp.workdps(60):
        for d in ds:
            log_d = mp.log(d)
            scale = mp.sqrt(d) / (log_d**2 * mp.log(log_d))
            for constant in constants:
                bound, exact = h_bound(d, constant), mpf(constant) * scale
                assert bound <= exact <= bound + 2 * math.ulp(bound), (d, constant)


def test_h_bound_brackets_its_60_digit_value():
    rng = random.Random(17)
    ds = [16, 17, 61, 100, 12345, 10**6 + 3, 10**9 + 9, 10**12 + 61, 10**20 + 7]
    ds += [rng.randrange(16, 10 ** rng.randrange(2, 25)) for _ in range(200)]
    constants = [0.0, 1e-3, 0.1, 1.0, 192 * log(3), 192 * log(5), 12345.678, 1e10]
    check_h_bound_brackets(ds, constants)


@pytest.mark.slow
def test_h_bound_brackets_its_60_digit_value_to_1e41():
    # two d per decade from 1e20 to 1e41
    rng = random.Random(43)
    ds = [10**e + 1 for e in range(20, 41)]
    ds += [rng.randrange(10**e, 10 ** (e + 1)) for e in range(20, 41)]
    check_h_bound_brackets(ds, [1e-3, 1.0, 192 * log(5), 1e10])


def test_h_bound_refuses_a_negative_constant():
    for constant in (-1.0, -1e-300, float("nan")):
        with pytest.raises(ValueError, match="constant >= 0"):
            h_bound(61, constant)


# ---------------------------------------------------------------------------
# l_value_exact through mpmath's context and mpf objects: the oracle of its
# raw libmp values, equal to the bit


def l_value_exact_in_context(d):
    h = class_number(d)[0]
    with mp.workdps(REGULATOR_DPS):
        return float(2 * h * mp.make_mpf(regulator_enclosure(d)[0]) / mp.sqrt(d))


def test_l_value_exact_matches_mpmath_context():
    for d in fundamental_discriminants(5, 20001):
        assert l_value_exact(d) == l_value_exact_in_context(d), d


# ---------------------------------------------------------------------------
# the analytic class number and its oracle, the form cycles


def test_class_number_examples_analytic():
    assert _analytic_class_number(5) == class_number(5) == (1, 1)
    assert _analytic_class_number(12) == class_number(12) == (1, 2)
    assert _analytic_class_number(40) == class_number(40) == (2, 2)
    assert class_number(10000200021)[0] == 4


def check_series_matches_forms(ds):
    for d in ds:
        assert _analytic_class_number(d) == class_number_forms(d), d


def test_class_number_matches_forms_below_6000():
    check_series_matches_forms(d for d in range(5, 6000) if is_discriminant(d))


@pytest.mark.slow
def test_class_number_matches_forms_above_forms_below():
    # every d in [1e5, 1.2e5), 3880 of them with conductor f > 1, which take
    # the unit-index path
    ds = [d for d in range(classno.FORMS_BELOW, 12 * 10**4) if is_discriminant(d)]
    assert len(ds) == 9970
    assert sum(fundamental_decomposition(d).conductor > 1 for d in ds) == 3880
    check_series_matches_forms(ds)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 2_500_000), st.sampled_from((0, 1)))
@example(2_499_999, 1)
@example(2_500_000, 0)  # 10**7 = 40 * 500**2: conductor 500
def test_class_number_matches_forms_sample(q, r):
    d = 4 * q + r  # every d <= 10**7 with d = 0, 1 mod 4
    if is_discriminant(d):
        assert _analytic_class_number(d) == class_number_forms(d)


def test_class_number_refuses_an_unpinned_h(monkeypatch):
    # allowing each libm call a 100 % error leaves an h interval too wide
    # to pin one integer: the series refuses d, and no form grid runs
    monkeypatch.setattr(classno, "_LIBM", 1.0)
    monkeypatch.setattr(classno, "FORMS_BELOW", 0)
    calls = []
    original = classno.class_number_forms

    def counting(d):
        calls.append(d)
        return original(d)

    monkeypatch.setattr(classno, "class_number_forms", counting)
    original.cache_clear()
    for d in [5, 12, 40, 45, 229, 1009, 4 * 1009, 9 * 1009]:
        with pytest.raises(ValueError, match=f"pins no field's class number of d = {d}$"):
            class_number(d)
    assert calls == []


def test_class_number_never_reads_forms_from_forms_below(monkeypatch):
    # d >= FORMS_BELOW from the tests, three of conductor f > 1: the series
    # pins each h with the forms out of reach. On 2 vCPUs the forms took
    # 8.4 s on 9 (10**9 + 9), and agree; the series 0.04 s
    ds = [100001, 100009, 10**7, 10**9 + 9, 9 * (10**9 + 9), 10000200021]
    assert min(ds) >= classno.FORMS_BELOW
    assert [fundamental_decomposition(d).conductor for d in ds] == [1, 7, 500, 1, 3, 1]
    expected = [class_number_forms(d) for d in ds[:3]] + [(1, 1), (1, 2), (4, 8)]

    def refuse(d):
        raise AssertionError(f"class_number_forms({d})")

    monkeypatch.setattr(classno, "class_number_forms", refuse)
    assert [class_number(d) for d in ds] == expected


def test_class_number_switches_at_forms_below(monkeypatch):
    edge = classno.FORMS_BELOW
    ds = [d for d in range(edge - 20, edge + 20) if is_discriminant(d)]
    below = max(d for d in ds if d < edge)
    at = min(d for d in ds if d >= edge)
    calls = []
    for name in ("class_number_forms", "_analytic_class_number"):
        original = getattr(classno, name)

        def counting(d, name=name, original=original):
            calls.append((name, d))
            return original(d)

        monkeypatch.setattr(classno, name, counting)
    class_number_forms.cache_clear()
    class_number(below)
    class_number(at)
    assert calls == [("class_number_forms", below), ("_analytic_class_number", at)]


CHARACTER_TABLE_DS = (5, 8, 12, 13, 40, 88, 1009, 3 * 5 * 7 * 11 * 13 * 4 + 1, 2**89 - 1)


def test_character_table_matches_kronecker():
    # 2**89 - 1: d mod p through three full 31-bit limbs; n up to 4 and
    # each side of every 2**k, k <= 12, the edges of the doubling blocks
    ns = [0, 1, 2, 3, 4, 600]
    ns += [m for k in range(2, 13) for m in (2**k - 1, 2**k, 2**k + 1)]
    for d in CHARACTER_TABLE_DS:
        expected = [kronecker(d, k) for k in range(max(ns) + 1)]
        for n in ns:
            table = classno._character_table(d, n)
            assert table.tolist() == expected[: n + 1], (d, n)


def test_character_table_across_plan_growth(monkeypatch):
    # the spf table is built for N = 512, rebuilt twice by doubling, and
    # then serves a smaller N from the larger table; a power of two is the
    # last n of its doubling block
    monkeypatch.setattr(classno, "_spf_table", None)
    steps = ((512, 512), (600, 1024), (1100, 2048), (2048, 2048), (650, 2048))
    for n, bound in steps:
        for d in CHARACTER_TABLE_DS:
            table = classno._character_table(d, n)
            assert table.tolist() == [kronecker(d, k) for k in range(n + 1)], (d, n)
        assert len(classno._spf_table[0]) == bound + 1, n


def test_prime_tables_stop_at_series_term_limit(monkeypatch):
    monkeypatch.setattr(classno, "_spf_table", None)
    monkeypatch.setattr(classno, "SERIES_TERM_LIMIT", 1000)
    classno._character_table(5, 600)
    table = classno._character_table(5, 900)  # doubling would give 1200
    assert table.tolist() == [kronecker(5, k) for k in range(901)]
    cached = classno._spf_table
    spf, primes = cached
    assert len(spf) == 1001
    assert spf[:2].tolist() == [0, 1]
    assert spf[2:].tolist() == [factorize(k)[0][0] for k in range(2, 1001)]
    assert primes.tolist() == [k for k in range(2, 1001) if factorize(k) == [(k, 1)]]
    with pytest.raises(ValueError, match="SERIES_TERM_LIMIT = 1000$"):
        classno._character_table(5, 1001)
    assert classno._spf_table is cached


def test_prime_tables_bytes_per_term(monkeypatch):
    monkeypatch.setattr(classno, "_spf_table", None)
    bound = 2**20
    spf, primes = classno._prime_tables(bound)
    assert len(spf) == bound + 1
    assert spf.nbytes + primes.nbytes <= 5 * bound


def test_chi_at_primes_matches_a_fresh_euler_criterion(monkeypatch):
    # the cache keeps the last d's chi at the first primes: it must serve a
    # shorter prefix after a longer call for the same d, another d after it,
    # and the primes of the spf tables across their growth, which are
    # prefixes of the same ascending primes
    monkeypatch.setattr(classno, "_chi_cache", None)
    monkeypatch.setattr(classno, "_spf_table", None)

    def check(d, primes):
        got = classno._chi_at_primes(d, primes)
        assert got.tolist() == classno._kronecker_at_primes(d, primes).tolist()
        assert classno._chi_cache[0] == d

    d, other, primes = 4 * 217, 4 * (2**89 - 1), prime_array(3000)
    check(d, primes)
    check(d, primes[:40])  # after a longer call for the same d
    check(other, primes[:40])  # after a call for another d
    check(d, primes[:10])
    classno._character_table(d, 600)
    small = classno._spf_table[1]
    small = small[: np.searchsorted(small, 600, "right")]
    check(d, small)
    classno._character_table(d, 2000)  # the spf tables grow
    assert len(classno._spf_table[0]) > 2000
    check(d, small)
    check(d, primes)
    with pytest.raises(ValueError):
        classno._chi_cache[1][0] = 0  # the cached values are read-only


def test_series_and_euler_product_share_one_euler_criterion(monkeypatch):
    # the series and then l_value_truncated of one d, B <= N, run Euler's
    # criterion once; the product still equals the kronecker oracle, and a
    # B past the cached primes runs it again
    monkeypatch.setattr(classno, "_chi_cache", None)
    calls = []
    fresh = classno._kronecker_at_primes

    def counting(d, primes):
        calls.append((d, len(primes)))
        return fresh(d, primes)

    monkeypatch.setattr(classno, "_kronecker_at_primes", counting)
    for d in (5, 4 * 217, 10**6 + 1, 1000000000061):
        calls.clear()
        classno._series_sum(d, 3000)
        for B in (1, 2, 217, 3000):
            assert l_value_truncated(d, B) == kronecker_euler_product(d, B), (d, B)
        assert len(calls) == 1, (d, calls)
        assert l_value_truncated(d, 3500) == kronecker_euler_product(d, 3500), d
        assert len(calls) == 2, (d, calls)


# the integers from SERIES_SWITCH to 60: _fractions takes its depth at the
# floor of its least argument, so these are the edges where the depth changes
CF_EDGES = range(int(classno.SERIES_SWITCH), 61)


def series_term_points():
    """899 points from 1e-12 to 60, log-spaced up to 1 and evenly above,
    and each side of every power-series degree edge from 1e-12 up, of
    SERIES_SWITCH and of CF_EDGES."""
    x = np.concatenate([np.geomspace(1e-12, 1.0, 300), np.linspace(1.0, 60.0, 600)[1:]])
    degree_edges = [e for e in classno._SERIES_EDGES if e >= 1e-12]
    edges = degree_edges + [classno.SERIES_SWITCH] + list(CF_EDGES[1:])
    near = [np.nextafter(e, s) for e in edges for s in (0.0, np.inf)]
    near += [e * (1 + s) for e in edges for s in (-1e-6, 1e-6)]
    return np.unique(np.concatenate([x, edges, near]))


def test_series_terms_within_their_error_bounds():
    # A_n = sqrt(pi) erfc(sqrt x)/sqrt x and B_n = E1(x) within the charge
    # that _series_sum's closed-form bound makes for one term at d = 10**13
    # and X = 60: A + B, the one row of _power_series, within twice the
    # rounding of a power-series term plus T; A, B and A + B from the two
    # rows of _fractions within twice e^-x (2 CF_GAP + (L + (5X + 2M +
    # 10)u)/2), with _fractions run on each unit interval [k, k + 1), so
    # that each depth it derives meets the charge. log(d/pi) >= |log x| at
    # every point
    x = series_term_points()
    d, x_max = 10**13, x[-1]
    assert log(d / np.pi) >= -log(x[0])
    with mp.workdps(40):
        exact_a = [mp.sqrt(mp.pi / v) * mp.erfc(mp.sqrt(v)) for v in map(mpf, x)]
        exact_b = [mp.e1(mpf(v)) for v in x]
        root_over_n = np.array([float(mp.sqrt(mp.pi / mpf(v))) for v in x])
    cut = np.searchsorted(x, classno.SERIES_SWITCH, "right")
    assert x[cut - 1] == classno.SERIES_SWITCH
    near = classno._power_series(x[:cut], root_over_n[:cut])
    units = np.split(x[cut:], np.searchsorted(x[cut:], CF_EDGES[1:]))
    rows = np.concatenate([*map(classno._fractions, units)], axis=1)
    u, libm = classno._U, classno._LIBM
    near_charge = 2 * (
        (2 * classno.SERIES_TERMS + 5) * u * classno._SERIES_MAGNITUDE
        + (libm + 4 * u) * log(d / np.pi)
        + (4 * classno._EULER_GAMMA + 10) * u
        + 5 * u * root_over_n[:cut]
    )
    deepest = classno._cf_depth(classno.SERIES_SWITCH)
    far = (libm + (5 * x_max + 2 * deepest + 10) * u) / 2
    far_charge = 2 * np.exp(-x[cut:]) * (2 * classno.CF_GAP + far)
    near_charge += classno._SERIES_TRUNCATION
    with mp.workdps(40):
        exact = [ea + eb for ea, eb in zip(exact_a, exact_b)]
        for v, t, e, charge in zip(x, near, exact, near_charge):
            assert abs(t - e) <= charge, v
        far_exact = zip(exact_a[cut:], exact_b[cut:], exact[cut:])
        for v, a, b, (ea, eb, e), charge in zip(x[cut:], *rows, far_exact, far_charge):
            assert abs(a - ea) <= charge, v
            assert abs(b - eb) <= charge, v
            assert abs(a + b - e) <= charge, v
        # and no charge exceeds 1e-8 of its term
        for v, e, charge in zip(x, exact, np.concatenate([near_charge, far_charge])):
            assert charge <= 1e-8 * e, v


def test_power_series_bound_covers_its_truncation():
    # at the edge of each degree k < K, where its omitted terms are largest,
    # and at SERIES_SWITCH with k = K, the series cut after x^k and summed
    # in 40 digits lies within T = _SERIES_TRUNCATION of A + B; the rounding
    # charges are thousands of times larger, so only this check sees T. At
    # SERIES_SWITCH the cut takes most of T. Each edge is the largest x, to a
    # relative 2**-36, whose first omitted terms are at most T
    t = classno._SERIES_TRUNCATION
    edges = classno._SERIES_EDGES + [classno.SERIES_SWITCH]
    assert edges == sorted(edges) and len(edges) == classno.SERIES_TERMS + 1
    for degree, edge in enumerate(edges[:-1]):
        assert classno._omitted_terms(edge, degree) <= t, degree
        assert classno._omitted_terms(edge * (1 + 2**-36), degree) > t, degree
    with mp.workdps(40):
        for degree, edge in enumerate(edges):
            v, k = mpf(edge), range(degree + 1)
            e1 = mp.fsum((-1) ** (j + 1) * v**j / (j * mp.factorial(j)) for j in k[1:])
            p = mp.fsum((-1) ** j * v**j / (mp.factorial(j) * (2 * j + 1)) for j in k)
            cut = mp.sqrt(mp.pi / v) - 2 * p + e1 - mp.euler - mp.log(v)
            exact = mp.sqrt(mp.pi / v) * mp.erfc(mp.sqrt(v)) + mp.e1(v)
            assert 0 < abs(cut - exact) <= t, (degree, edge)
        assert abs(cut - exact) >= t / 2


# the partial numerators of e^x A = sqrt(pi) e^x erfc(sqrt x) / sqrt x (DLMF
# 7.9.2 in x = z^2) and of e^x B = e^x E1(x) (DLMF 6.9.1), the rows of
# _fractions; both fractions' partial denominators are x, 1, x, 1, ...
FRACTION_NUMERATORS = (
    lambda j: Fraction(j - 1, 2) if j > 1 else Fraction(1),
    lambda j: Fraction(max(1, j // 2)),
)


def convergent(numerators, x, m):
    """The m-th convergent of a fraction of FRACTION_NUMERATORS at x, exactly."""
    f = Fraction(0)
    for j in range(m, 0, -1):
        f = numerators(j) / ((x if j % 2 else 1) + f)
    return f


def test_fraction_depths_are_the_least_within_cf_gap():
    # at each integer edge, m = _cf_depth(edge): in exact arithmetic the
    # convergents m and m + 1 of both fractions differ by at most CF_GAP,
    # and m - 1 and m of one of them by more; just above the edge, as the
    # least of a block that reaches 60, _fractions returns e^-x times
    # convergent m + 1, to its rounding charge (x exact), so a depth of
    # m - 1 fails here
    deepest = classno._cf_depth(classno.SERIES_SWITCH)
    relative = classno._LIBM + (2 * deepest + 10) * classno._U
    fractions = FRACTION_NUMERATORS
    for edge in CF_EDGES:
        m = classno._cf_depth(edge)
        assert m <= deepest, edge
        x = Fraction(edge)
        f = [[convergent(a, x, k) for k in range(m - 1, m + 2)] for a in fractions]
        assert max(abs(c[2] - c[1]) for c in f) <= classno.CF_GAP, edge
        assert max(abs(c[1] - c[0]) for c in f) > classno.CF_GAP, edge
        v = float(np.nextafter(edge, np.inf))
        got = classno._fractions(np.array([v, 60.0]))[:, 0]
        with mp.workdps(40):
            for value, a in zip(got, fractions):
                c = convergent(a, Fraction(v), m + 1)
                want = mp.exp(-mpf(v)) * mpf(c.numerator) / c.denominator
                assert abs(value - want) <= relative * want, edge


def record_series(monkeypatch):
    """Lists that fill with each (what, lo, hi) that classno._pin is asked to
    pin and each (d, N, E) of classno._series_sum, as class numbers run."""
    pins, sums = [], []
    pin, series_sum = classno._pin, classno._series_sum

    def recording_pin(d, what, lo, hi):
        pins.append((what, lo, hi))
        return pin(d, what, lo, hi)

    def recording_sum(d, n_max):
        total, err = series_sum(d, n_max)
        sums.append((d, n_max, err))
        return total, err

    monkeypatch.setattr(classno, "_pin", recording_pin)
    monkeypatch.setattr(classno, "_series_sum", recording_sum)
    return pins, sums


def check_widths(pins, sums):
    """Every field h interval in pins is narrower than 1/2 + 1e-6, the bound
    argued at TAIL_SHARE = 1/2, and the rounding part of every E in sums,
    E less its tail, is below 1e-6 R; per sum, d, N, (E - tail)/R and the
    interval's width."""
    widths = [hi - lo for what, lo, hi in pins if what == "field's class number"]
    assert len(widths) == len(sums)
    assert max(widths) < 0.5 + 1e-6, max(widths)
    rows = []
    for (d, n_max, err), width in zip(sums, widths):
        x_max = np.pi * n_max * n_max / d
        tail = 2 * sqrt(d / np.pi) * math.exp(-x_max) * x_max**-1.5
        reg = fundamental_unit(d).regulator
        assert err - tail < 1e-6 * reg, d
        rows.append((d, n_max, (err - tail) / reg, float(width)))
    return rows


def test_class_number_interval_width_and_rounding(monkeypatch):
    # small d, where X is near 1 and the intervals are widest; d with
    # conductor f > 1; and two paper-scale d, the second the T = 2 d with
    # h = 3018 of the x = 1e10 progression
    ds = list(fundamental_discriminants(5, 6000))
    ds += [45, 9 * 1009, 100009, 10**7, 9 * (10**9 + 9), 10**9 + 9, 130844975645]
    pins, sums = record_series(monkeypatch)
    hs = [_analytic_class_number(d) for d in ds]
    assert hs[-2:] == [(1, 1), (3018, 6036)]
    check_widths(pins, sums)


@pytest.mark.slow
def test_class_number_interval_width_at_the_term_limit(monkeypatch):
    # the Chowla d = 4k^2 + 1 for k = 2.3e6 and 2.4e6 need N just under
    # SERIES_TERM_LIMIT = 1e7, where the error bound is loosest; each d's
    # line shows the headroom left under 1e-6 R
    pins, sums = record_series(monkeypatch)
    assert class_number(21160000000001) == (379874, 379874)
    assert class_number(23040000000001) == (484120, 484120)
    assert [n_max for _, n_max, _ in sums] == [9493426, 9920946], sums
    for d, n_max, share, width in check_widths(pins, sums):
        print(f"d = {d}: N = {n_max}, (E - tail)/R = {share:.3g}, width = {width:.6g}")


@pytest.mark.parametrize("d", [5, 13, 1009, 4 * 1011, 100049])
def test_series_sum_within_its_error_bound(d):
    # the sum to the budget's N, against a 30-digit sum far past it
    r = fundamental_unit(d).regulator
    x_cut = max(1.0, log(2 * sqrt(d / np.pi) / (classno.TAIL_SHARE * r)))
    n_max = isqrt(int(x_cut * d / np.pi) + 1) + 1
    total, err = classno._series_sum(d, n_max)
    with mp.workdps(30):
        exact = mp.fsum(
            kronecker(d, n)
            * (
                mp.sqrt(d) / n * mp.erfc(n * mp.sqrt(mp.pi / d))
                + mp.e1(mp.pi * n * n / d)
            )
            for n in range(1, isqrt(60 * d) + 2)
            if kronecker(d, n)
        )
        assert abs(total - exact) <= err
        h = class_number_forms(d)[0]
        assert abs(exact / (2 * h) - r) < 1e-9 * r


# mixed signs, from 0 to a few hundred terms, half of them cancelled
# exactly by their negations
MIXED_TERMS = st.lists(
    st.floats(-1e100, 1e100, allow_nan=False, allow_infinity=False), max_size=200
).flatmap(lambda ts: st.permutations(ts + [-t for t in ts[: len(ts) // 2]]))


@given(MIXED_TERMS)
@example([1e16, 1.0, -1e16] * 11)
@example([2.0**-1074, 1.0, -1.0] * 40)
@example([])
def test_row_sum_within_its_bound(terms):
    # numpy's row sums and math.fsum over them: within gamma_(m-1) sum |t|
    # + u |S~| of the exact sum, m = SERIES_ROW, gamma_k = ku/(1 - ku)
    got = classno._row_sum(np.array(terms, dtype=np.float64))
    exact = sum(map(Fraction, terms), Fraction(0))
    k, u = classno.SERIES_ROW - 1, Fraction(classno._U)
    bound = k * u / (1 - k * u) * sum(abs(Fraction(t)) for t in terms)
    assert abs(Fraction(got) - exact) <= bound + u * abs(Fraction(got))


def test_series_sum_within_its_error_bound_at_paper_scale():
    # d = 10**9 + 9 is a prime 1 mod 4, so fundamental, with h = 1. The sum
    # to the budget's N, against a 30-digit sum over the same n <= N (a sum
    # to isqrt(60 d), as above, would take some 245 000 terms)
    d, n_max = 10**9 + 9, 17842
    r = fundamental_unit(d).regulator
    x_cut = max(1.0, log(2 * sqrt(d / np.pi) / (classno.TAIL_SHARE * r)))
    assert isqrt(int(x_cut * d / np.pi) + 1) + 1 == n_max
    total, err = classno._series_sum(d, n_max)
    x_max = np.pi * n_max * n_max / d
    tail = 2 * sqrt(d / np.pi) * math.exp(-x_max) * x_max**-1.5
    with mp.workdps(30):
        root, scale = mp.sqrt(d), mp.pi / d
        exact = mp.fsum(
            chi * (root / n * mp.erfc(n * mp.sqrt(scale)) + mp.e1(scale * n * n))
            for n in range(1, n_max + 1)
            if (chi := kronecker(d, n))
        )
        assert abs(total - exact) <= err
        # the tail takes nearly all of err; the rest bounds the rounding alone
        assert abs(total - exact) <= err - tail
        # the sum past N is within the tail bound, so h = S / (2R) lies in
        # [lo, hi], and 1 is the only integer there
        lo, hi = (exact - tail) / (2 * r), (exact + tail) / (2 * r)
        assert 0 < lo <= 1 <= hi < 2
    assert class_number(d)[0] == 1


def ulps(got, exact):
    """|got - exact| in units of the last place of the float nearest exact."""
    return float(abs(mpf(got) - exact) / math.ulp(float(exact))) if exact else abs(got)


def test_libm_within_eight_ulp():
    # _series_sum and the certified family checks assume 8 ulp for np.exp,
    # np.log and math.log, over the ranges they use; classno._LIBM allows
    # 2**7 ulp. math.erfc, which the series no longer calls, keeps its
    # points as a check of the same libm
    rng = np.random.default_rng(11)
    t = 7 * (1 - rng.random(3000))  # (0, 7]
    x = -40 * rng.random(3000)  # (-40, 0]
    # [1e-14, SERIES_SWITCH], log-uniform: the x of the power series for d
    # up to about 3e13
    y = np.exp(rng.uniform(math.log(1e-14), math.log(classno.SERIES_SWITCH), 3000))
    y = np.append(y, [1e-14, classno.SERIES_SWITCH])
    z = np.exp(rng.uniform(math.log(5), 64 * math.log(2), 3000))  # [5, 2**64]
    with mp.workdps(40):
        worst = {
            "math.erfc": max(ulps(math.erfc(v), mp.erfc(mpf(v))) for v in t),
            "np.exp": max(ulps(e, mp.exp(mpf(v))) for v, e in zip(x, np.exp(x))),
            "np.log": max(ulps(e, mp.log(mpf(v))) for v, e in zip(y, np.log(y))),
            "math.log": max(ulps(math.log(v), mp.log(mpf(v))) for v in z),
        }
    assert max(worst.values()) <= 8, worst
    # and the series' budget allows each exp and log the relative error seen
    # here; an ulp of the result is at most 2**-52 of it
    assert max(worst.values()) * 2.0**-52 <= classno._LIBM, worst
