import random
from math import gcd, isqrt, log, sqrt

import pytest

from qrl.cfrac import fundamental_unit, principal_expansion
from qrl.classno import (
    character_row,
    class_data,
    class_number_forms,
    form_cycles,
    h_bound_report,
    l_value_exact,
    l_value_truncated,
    reduced_forms,
)
from qrl.intarith import divisors, fundamental_decomposition, is_discriminant, kronecker


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
    if len(principal_expansion(d).period) % 2:
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


def test_l_truncated_examples():
    assert abs(l_value_truncated(5, 10) - 0.4375) < 1e-15
    assert l_value_truncated(5, 1) == 1.0
    assert l_value_truncated(17, 2) == 2.0
    with pytest.raises(ValueError):
        l_value_truncated(5, 0)


def test_l_exact_examples():
    assert abs(l_value_exact(5) - 0.4304089) < 1e-6
    assert abs(l_value_exact(8) - 0.6232252) < 1e-6
    # round trip at d = 40 pins h = 2 to high accuracy
    h_unrounded = sqrt(40) * l_value_exact(40) / (2 * fundamental_unit(40).regulator)
    assert abs(h_unrounded - 2) < 1e-9
    with pytest.raises(ValueError, match="fundamental"):
        l_value_exact(45)


def test_character_row_matches_kronecker():
    for d in (5, 8, 12, 13, 17, 21, 24, 40, 56, 61, 88, 120, 129, 140):
        row = character_row(d)
        for a in range(d):
            assert row[a] == kronecker(d, a), (d, a)


def test_round_trip_small_range():
    for d in fundamental_discriminants(5, 3000):
        h, _ = class_number_forms(d)
        unrounded = sqrt(d) * l_value_exact(d) / (2 * fundamental_unit(d).regulator)
        assert abs(unrounded - h) < 1e-6, d


def test_truncated_approaches_exact():
    rng = random.Random(41)
    picked = 0
    while picked < 20:
        d = rng.randrange(5, 10**6)
        if not (is_discriminant(d) and fundamental_decomposition(d).conductor == 1):
            continue
        assert abs(l_value_truncated(d, 10**5) - l_value_exact(d)) <= 0.05
        picked += 1


def test_class_data_fields():
    data = class_data(40, euler_bound_B=100)
    assert (data.d, data.h, data.h_narrow) == (40, 2, 2)
    assert data.L_exact is not None and data.euler_bound_B == 100
    data = class_data(45)
    assert data.L_exact is None and data.h == 1


def test_h_bound_report():
    rep = h_bound_report(61, 1, 192 * log(3))
    assert rep.h == 1 and rep.satisfied and abs(rep.bound - 68.96) < 0.1
    rep = h_bound_report(61, 1, 0.0)
    assert not rep.satisfied
    with pytest.raises(ValueError):
        h_bound_report(15, 2, 1.0)
