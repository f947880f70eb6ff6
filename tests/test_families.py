import random
import resource
import time
import tracemalloc
from dataclasses import replace
from math import gcd, isqrt, log, sqrt, ulp

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf
from mpmath.libmp import round_ceiling, round_floor

from qrl import classno, families
from qrl.cfrac import fundamental_unit, regulator_enclosure
from qrl.families import (
    ProgressionSpec,
    build_progression,
    check_star,
    compute_constants,
    family_scan,
    scan_squarefree,
    squarefree_density,
    _squarefree_ks,
)
from qrl.intarith import icbrt, is_prime, is_squarefree, kronecker, primes_up_to
from test_intarith import sqrt_mod_prime


def find_prime_tuple(m: int, bound: int) -> list[int] | None:
    """Smallest tuple p_1 < ... < p_m <= bound, all 1 mod 4, pairwise
    kronecker(-p_j, p_i) = -1, on which check_star succeeds; None if the
    bound is too small.
    """
    if m < 1:
        raise ValueError("find_prime_tuple: m must be positive")
    candidates = [p for p in primes_up_to(bound) if p % 4 == 1]
    chosen: list[int] = []

    def extend() -> bool:
        if len(chosen) == m:
            return check_star(m, chosen) is not None
        floor_p = chosen[-1] if chosen else 0
        for p in candidates:
            if p <= floor_p:
                continue
            if all(kronecker(-p, pi) == -1 for pi in chosen):
                chosen.append(p)
                if extend():
                    return True
                chosen.pop()
        return False

    return list(chosen) if extend() else None


def legendre_table(p: int) -> np.ndarray:
    """Legendre symbols (a|p) for a in [0, p), as an int8 array."""
    t = np.full(p, -1, dtype=np.int8)
    t[0] = 0
    t[np.arange(1, p, dtype=np.int64) ** 2 % p] = 1
    return t


def count_good_residues(p: int, primes: list[int]) -> int:
    """#{y in F_p : (y|p) = 1, (y+4p_i|p) = -1 for all i}, by brute force."""
    if p in primes:
        raise ValueError(f"count_good_residues: {p} is one of the family primes")
    if p == 2 or not is_prime(p):
        raise ValueError("count_good_residues: p must be an odd prime")
    t = legendre_table(p)
    y = np.arange(p, dtype=np.int64)
    mask = t == 1
    for pi in primes:
        mask = mask & (t[(y + 4 * pi) % p] == -1)
    return int(np.count_nonzero(mask))


def good_residue_lower_bound(p: int, m: int) -> float:
    """Explicit character-sum lower bound for count_good_residues."""
    return (
        p / 2 ** (m + 1)
        - ((m - 1) / 2 + 2.0 ** -(m + 1)) * sqrt(p)
        - (m + 1) / 2
    )


def toy_spec(n0=3, q=6, primes=(5,), x=10**10, eps1=0.9):
    # hand-built spec for the doc examples; field coherence is the
    # builder's job, scans only read n0, q, primes, x
    return ProgressionSpec(len(primes), tuple(primes), x, eps1, (), (), (), q, n0)


def test_count_good_residues_examples():
    assert count_good_residues(7, [3]) == 1
    assert count_good_residues(3, [5]) == 0
    for p in (3, 7, 11, 101):
        assert count_good_residues(p, []) == (p - 1) // 2
    with pytest.raises(ValueError):
        count_good_residues(5, [5])
    with pytest.raises(ValueError):
        count_good_residues(2, [5])


def test_count_good_residues_brute_oracle():
    def brute(p, primes):
        count = 0
        for y in range(p):
            if kronecker(y, p) != 1:
                continue
            if all(kronecker(y + 4 * pi, p) == -1 for pi in primes):
                count += 1
        return count

    for p in primes_up_to(60):
        if p == 2:
            continue
        if p not in (5, 13):
            assert count_good_residues(p, [5, 13]) == brute(p, [5, 13])
        if p != 5:
            assert count_good_residues(p, [5]) == brute(p, [5])


def test_good_residue_lower_bound_small_range():
    for m, primes in ((1, [5]), (2, [5, 13])):
        for p in primes_up_to(2000):
            if p == 2 or p in primes:
                continue
            count = count_good_residues(p, primes)
            assert count >= good_residue_lower_bound(p, m), (m, p)
            if p >= m * m * 4**m + 3:
                assert count >= 1


def test_check_star_examples():
    w = check_star(1, [5])
    assert w is not None and w.modulus == 1
    w = check_star(2, [2, 5])
    assert w is not None and w.modulus == 2 and w.residue == 1
    assert check_star(4, [3, 11, 17, 23]) is None


def test_find_prime_tuple():
    assert find_prime_tuple(1, 100) == [5]
    assert find_prime_tuple(2, 100) == [5, 13]
    triple = find_prime_tuple(3, 1000)
    assert triple is not None and len(triple) == 3
    for i, pi in enumerate(triple):
        assert pi % 4 == 1
        for j, pj in enumerate(triple):
            if i != j:
                assert kronecker(-pj, pi) == -1
    assert check_star(3, triple) is not None
    assert find_prime_tuple(2, 11) is None


def test_build_progression_reference():
    spec = build_progression(1, [5], 10**10, 0.9)
    assert spec.S == (2, 3)
    assert spec.P_small == ()
    assert spec.S_prime == (7, 11, 13)
    assert spec.q == 6006
    assert spec.n0 == 1365
    assert spec.q % 2 == 0 and is_squarefree(spec.q)


def test_build_progression_p2():
    spec = build_progression(1, [2], 10**10, 0.9)
    assert spec.n0 % 2 == 1
    assert spec.P_small == (2,)


def test_build_progression_errors():
    with pytest.raises(ValueError, match=r"\(\*\)"):
        build_progression(4, [3, 11, 17, 23], 10**10, 0.9)
    with pytest.raises(ValueError):
        build_progression(1, [5], 10**10, 1.5)
    with pytest.raises(ValueError):
        build_progression(2, [5], 10**10, 0.9)


def test_progression_conclusion_sampled():
    spec = build_progression(1, [5], 10**10, 0.9)
    rng = random.Random(47)
    for _ in range(100):
        n = spec.n0 + rng.randrange(1, 10**6) * spec.q
        for pi in spec.primes:
            d = n * n + 4 * pi
            assert d % 4 == 1
            for p in spec.S_prime:
                assert kronecker(d, p) == -1
            for p in (2, 3) + spec.S_prime:
                assert d % p != 0


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(primes_up_to(400)),
    st.one_of(st.integers(10, 10**40), st.sampled_from([10**3, 10**10, 10**40])),
    st.floats(0.05, 0.95),
)
def test_m1_specs_and_named_families_give_sieve_tables(p1, x, eps1):
    # the sieve refuses a table with gcd(q, n0^2 + c) > 1; build_progression
    # makes every m = 1 spec it accepts coprime, and Chowla's (0, 2, 1) and
    # the n^2 +- 4p tables (0, 1, +-4p) are so for every p
    spec = build_progression(1, [p1], x, eps1)
    c = 4 * p1
    assert gcd(spec.q, spec.n0**2 + c) == 1
    assert families._RootTable(spec.n0, spec.q, c).bound == 1
    assert 0 < squarefree_density(spec, 50) <= 1
    for n0, q, c in [(0, 2, 1), (0, 1, 4 * p1), (0, 1, -4 * p1)]:
        assert families._RootTable(n0, q, c).bound == 1


def test_scan_squarefree_example():
    records = scan_squarefree(toy_spec(), k_max=2, k_min=0)
    assert [(r.k, r.d_values[0]) for r in records] == [(0, 29), (1, 101)]
    assert all(r.squarefree == (True,) for r in records)
    assert records[0].n == 3 and records[1].n == 9
    assert scan_squarefree(toy_spec(), k_max=0, k_min=1) == []


def test_scan_squarefree_matches_direct():
    spec = toy_spec()
    records = scan_squarefree(spec, k_max=3000, k_min=1)
    got = {r.k for r in records}
    want = set()
    for k in range(1, 3001):
        d = (spec.n0 + k * spec.q) ** 2 + 20
        if is_squarefree(d):
            want.add(k)
    assert got == want


def test_scan_squarefree_built_spec_matches_direct():
    spec = build_progression(1, [5], 10**10, 0.9)
    records = scan_squarefree(spec, k_max=400)
    got = {r.k for r in records}
    for k in range(1, 401):
        d = (spec.n0 + k * spec.q) ** 2 + 20
        assert (k in got) == bool(is_squarefree(d)), k


def test_scan_strict_range():
    spec = build_progression(1, [5], 10**10, 0.9)
    records = scan_squarefree(spec, k_max=60, strict_range=True)
    assert records
    for r in records:
        assert r.d_values[0] > spec.x**0.5
        assert r.k * spec.q > spec.x**0.25
    # the first k is the least with k q > x**(1/4), in integers: k = 1 here,
    # as x**(1/4) = 316.2... < q = 6006
    assert records[0].k == scan_squarefree(spec, k_max=60)[0].k == 1
    # at x = (7q)**4 the bound k q > 7q is strict: k starts at 8; one below
    # it, where x**0.25 rounds to 7q in floats, k = 7 already qualifies
    exact = replace(spec, x=(7 * spec.q) ** 4)
    assert scan_squarefree(exact, k_max=8, strict_range=True)[0].k == 8
    assert scan_squarefree(exact, k_max=7, strict_range=True) == []
    below = replace(spec, x=(7 * spec.q) ** 4 - 1)
    assert scan_squarefree(below, k_max=7, strict_range=True)[0].k == 7
    # at x = 10**400 the first k's value is far past the sieve's reach
    huge = replace(spec, x=10**400)
    k_lo = 10**100 // spec.q + 1
    with pytest.raises(ValueError, match="exceeds SIEVE_PRIME_LIMIT"):
        scan_squarefree(huge, k_max=k_lo + 5, strict_range=True)


def test_scan_with_analysis():
    records = scan_squarefree(
        toy_spec(), k_max=2, k_min=0, with_h=True, euler_bound_B=100
    )
    rec = records[0]
    assert rec.d_values == (29,)
    assert rec.h == 1
    assert abs(rec.regulator - fundamental_unit(29).regulator) < 1e-12
    assert rec.L_truncated is not None and rec.bound_ok


def test_scan_with_h_computes_h_once_per_record(monkeypatch):
    calls, form_calls = [], []
    original = classno.class_number

    def counting(d):
        calls.append(d)
        return original(d)

    monkeypatch.setattr(families, "class_number", counting)
    classno.class_number_forms.cache_clear()
    monkeypatch.setattr(classno, "class_number_forms", form_calls.append)
    # the toy spec's d lie below FORMS_BELOW, where class_number reads the forms
    monkeypatch.setattr(classno, "FORMS_BELOW", 0)
    records = scan_squarefree(toy_spec(), k_max=30, with_h=True)
    ds = [r.d_values[0] for r in records]
    assert len(ds) > 10 and min(ds) >= 16  # every record gets a bound report
    assert calls == ds
    assert form_calls == []  # the analytic h is certified, no fallback


def test_scan_with_h_takes_one_enclosure_per_record():
    # h, h_narrow and the record's regulator read one cached enclosure of d
    spec = build_progression(1, [5], 10**6, 0.9)
    regulator_enclosure.cache_clear()
    records = scan_squarefree(spec, k_min=21, k_max=130, with_h=True)
    assert spec.q == 42 and len(records) > 100
    assert regulator_enclosure.cache_info().misses == len({r.d_values for r in records})


def per_value_survivors(n_range, d_of):
    """The named families' filter before the sieve: d >= 5, not a square,
    squarefree by trial division."""
    out = []
    for n in n_range:
        d = d_of(n)
        if d >= 5 and isqrt(d) ** 2 != d and is_squarefree(d):
            out.append(n)
    return out


def test_chowla_sieve_matches_per_value_filter():
    got = [r.n for r in family_scan("chowla", {}, range(-5, 2001))]
    assert got == per_value_survivors(range(1, 2001), lambda n: 4 * n * n + 1)


@pytest.mark.parametrize("sign", [1, -1])
def test_yamamoto_sieve_matches_per_value_filter(sign):
    kind = "yamamoto_plus" if sign == 1 else "yamamoto_minus"
    for p in (2, 3, 5, 13):
        got = [r.n for r in family_scan(kind, {"p": p}, range(-40, 3001))]
        want = per_value_survivors(range(-40, 3001), lambda n: n * n + 4 * p * sign)
        assert got == want, p


@settings(max_examples=200, deadline=None)
@given(
    st.integers(-500, 500),
    st.integers(1, 60),
    st.integers(0, 10**6),
    st.integers(-300, 300),
    st.integers(0, 300),
)
def test_sieve_matches_is_squarefree(n0, q, offset, k_lo, count):
    ks = range(k_lo, k_lo + count)
    us = [n0 + k * q for k in ks]
    # shift the constant so that every value (n0 + kq)^2 + c is >= 5, then
    # up to the first c with gcd(q, n0^2 + c) = 1
    low = min((u * u for u in us), default=0)
    c = 5 + offset - low
    c += coprime_shift(q, lambda t: n0 * n0 + c + t)
    want = [k for k, u in zip(ks, us) if is_squarefree(u * u + c)]
    assert _squarefree_ks(n0, q, c, k_lo, k_lo + count - 1) == want


def coprime_shift(q, value_at):
    """The least t >= 0 with gcd(q, value_at(t)) = 1, for the sieve, which
    takes only gcd(q, n0^2 + c) = 1. There is one below q for a shift of c,
    value_at(t) = n0^2 + c + t, which meets 1 mod q, and for a shift of n0,
    value_at(t) = (n0 + t)^2 + c, which keeps c's factors: each prime p | q
    divides it for at most two of the p >= 2 classes of t mod p, and one
    for p = 2."""
    return next(t for t in range(q) if gcd(q, value_at(t)) == 1)


def sieve_oracle(n0, q, c, k_lo, k_hi):
    return [k for k in range(k_lo, k_hi + 1) if is_squarefree((n0 + k * q) ** 2 + c)]


def window_bound(n0, q, c, k_lo, k_hi):
    # the sieve's prime bound: the values are convex in k
    return icbrt(max((n0 + k * q) ** 2 + c for k in (k_lo, k_hi))) + 1


def test_root_table_slices_then_grows():
    n0, q, c = 1365, 6006, 20
    families._root_table.cache_clear()
    table = families._root_table(n0, q, c)
    bounds = []
    for k_lo, k_hi in [(2000, 2400), (5, 60), (9000, 9300)]:
        got = _squarefree_ks(n0, q, c, k_lo, k_hi)
        assert got == sieve_oracle(n0, q, c, k_lo, k_hi)
        assert table.bound >= window_bound(n0, q, c, k_lo, k_hi)
        bounds.append(table.bound)
    assert bounds[0] == bounds[1] < bounds[2]  # the small window only slices
    # every odd p <= bound, p not dividing q, at which -c is a square has
    # entries, and each entry's k0 puts p into the value (2 divides q)
    for p, k0 in zip(table.primes.tolist(), table.k0.tolist()):
        assert ((n0 + k0 * q) ** 2 + c) % p == 0
    with_roots = [
        p for p in primes_up_to(table.bound) if q % p and kronecker(-c, p) != -1
    ]
    assert sorted(set(table.primes.tolist())) == with_roots


def test_sieve_reduces_k_beyond_int64():
    # n0 far below zero keeps the values small while k_lo >= 2**63
    q, c = 7, 13
    k_lo = 2**63 + 11
    n0 = -(k_lo - 3) * q + 2
    got = _squarefree_ks(n0, q, c, k_lo, k_lo + 400)
    assert got == sieve_oracle(n0, q, c, k_lo, k_lo + 400)
    assert len(got) < 401  # some value has a square factor


def test_sieve_refuses_q_sharing_a_factor_with_the_values(monkeypatch):
    # n0^2 + c = 30: 2, 3 and 5 divide q and every value, which no caller
    # makes; the table refuses it before it computes any root
    n0, q, c = 1, 30, 29
    roots = []
    monkeypatch.setattr(families, "sqrt_mod_primes", lambda *a: roots.append(a))
    families._root_table.cache_clear()
    with pytest.raises(ValueError, match="shares a factor"):
        _squarefree_ks(n0, q, c, 0, 600)
    with pytest.raises(ValueError, match="shares a factor"):
        families._RootTable(n0, q, c)
    assert roots == [] and families._root_table.cache_info().currsize == 0
    # the density of a spec with n0^2 + 4p_1 = 1 + 4 * 29 = 117 = 9 * 13
    with pytest.raises(ValueError, match="shares a factor"):
        squarefree_density(toy_spec(n0=1, q=30, primes=(29,)), 100)


@pytest.mark.parametrize("p", [2, 3, 5, 13])
def test_sieve_negative_constant(p):
    c = -4 * p  # the Yamamoto - values n^2 - 4p
    k_lo = isqrt(5 - c) + 1
    for lo, hi in [(k_lo, 3000), (k_lo + 17, k_lo + 90), (2900, 6000)]:
        assert _squarefree_ks(0, 1, c, lo, hi) == sieve_oracle(0, 1, c, lo, hi)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(-10**5, 10**5),
    st.integers(1, 500),
    st.integers(-10**4, 10**6),
    st.lists(st.tuples(st.integers(0, 2000), st.integers(1, 120)), min_size=1, max_size=4),
)
def test_root_table_windows_match_is_squarefree(n0, q, c, windows):
    # one (n0, q, c), windows in any order: the table is sliced and grown
    c += coprime_shift(q, lambda t: n0 * n0 + c + t)
    families._root_table.cache_clear()
    for k_lo, count in windows:
        k_hi = k_lo + count - 1
        if min((n0 + k * q) ** 2 + c for k in range(k_lo, k_hi + 1)) < 5:
            continue
        assert _squarefree_ks(n0, q, c, k_lo, k_hi) == sieve_oracle(
            n0, q, c, k_lo, k_hi
        )


def test_second_window_makes_no_root_calls(monkeypatch):
    calls = []
    original = families.sqrt_mod_primes

    def counting(a, p):
        calls.append(len(p))
        return original(a, p)

    monkeypatch.setattr(families, "sqrt_mod_primes", counting)
    families._root_table.cache_clear()
    spec = build_progression(1, [5], 10**10, 0.9)
    scan_squarefree(spec, k_max=2000, k_min=1651)
    assert calls  # the first window builds the table
    table = families._root_table(spec.n0, spec.q, 20)
    assert window_bound(spec.n0, spec.q, 20, 300, 650) <= table.bound
    calls.clear()
    records = scan_squarefree(spec, k_max=650, k_min=300)
    assert calls == [] and records


def oracle_table(n0, q, c, bound):
    """The root table's primes and k0 up to bound (see oracle_entries)."""
    return oracle_entries(n0, q, c, primes_up_to(bound))


def oracle_entries(n0, q, c, primes):
    """The root table's entries at the given primes, entry by entry with
    the scalar Tonelli-Shanks: per prime p not dividing q the roots y = t,
    then y = p - t unless that is t, with k0 = (y - n0) q^-1 mod p."""
    entry_primes, k0 = [], []
    for p in primes:
        if q % p == 0:
            continue
        t = sqrt_mod_prime(-c % p, p)
        if t is None:
            continue
        for y in (t,) if 2 * t % p == 0 else (t, p - t):
            entry_primes.append(p)
            k0.append((y - n0) * pow(q, -1, p) % p)
    return entry_primes, k0


def assert_table_matches_oracle(table):
    primes, k0 = oracle_table(table.n0, table.q, table.c, table.bound)
    assert table.primes.dtype == table.k0.dtype == np.int64
    assert table.primes.tolist() == primes
    assert table.k0.tolist() == k0


def assert_hits_match_oracle(table, k_los, counts):
    """hits() at the table's bound, for each window (k_lo, count), against
    every table entry in plain Python: first = (k0 - k_lo) mod p, listed
    when below count. The entries go to Python lists a slice at a time."""
    windows = [(k_lo, count) for k_lo in k_los for count in counts]
    want = {window: [] for window in windows}
    for lo in range(0, len(table.primes), 1 << 18):
        primes = table.primes[lo : lo + (1 << 18)].tolist()
        k0 = table.k0[lo : lo + (1 << 18)].tolist()
        for (k_lo, count), listing in want.items():
            listing += [(p, j) for p, k in zip(primes, k0) if (j := (k - k_lo) % p) < count]
    for k_lo, count in windows:
        p, first = table.hits(table.bound, k_lo, count)
        assert p.dtype == first.dtype == np.int64
        assert list(zip(p.tolist(), first.tolist())) == want[k_lo, count], (k_lo, count)


def test_root_table_matches_scalar_oracle():
    # the x = 10**10 spec (n0 = 1365, q = 6006, c = 20), grown in steps
    # that cross several ROOT_CHUNKs, up to 4 * 10**5; then its hits in
    # windows that lie below the largest primes, cross them or start just
    # below the bound, and one at a negative k_lo
    spec = build_progression(1, [5], 10**10, 0.9)
    table = families._RootTable(spec.n0, spec.q, 4 * spec.primes[0])
    for bound in (10, 3000, 50_000, 4 * 10**5):
        table.grow(bound)
        assert_table_matches_oracle(table)
    assert table.bound == 4 * 10**5
    assert_hits_match_oracle(table, (10**4, 10**5 - 175, 4 * 10**5 - 3000, -(10**5)), (350, 4096))


@pytest.mark.slow
def test_root_table_matches_scalar_oracle_at_sieve_limit():
    # grown at once to SIEVE_PRIME_LIMIT = 1e8: its entry count, its
    # entries above 1e8 - 1e5, the last span and the seam before it, and
    # its hits at the limit, each window read against all 5 761 345 entries
    spec = build_progression(1, [5], 10**10, 0.9)
    table = families._RootTable(spec.n0, spec.q, 4 * spec.primes[0])
    start = time.perf_counter()
    table.grow(families.SIEVE_PRIME_LIMIT)
    elapsed = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"grown to {table.bound} in {elapsed:.2f} s, peak RSS {peak:.0f} MB")
    assert table.bound == families.SIEVE_PRIME_LIMIT
    assert len(table.primes) == len(table.k0) == 5_761_345
    lo = table.bound - 10**5
    primes = [p for p in range(lo + 1, table.bound + 1) if is_prime(p)]
    want_primes, want_k0 = oracle_entries(table.n0, table.q, table.c, primes)
    tail = np.searchsorted(table.primes, lo, side="right")
    assert table.primes[tail:].tolist() == want_primes
    assert table.k0[tail:].tolist() == want_k0
    assert_hits_match_oracle(table, (10**6, 10**7 - 175, 10**8 - 3000, -(10**7)), (350, 4096))


def test_root_table_growth_peaks_near_the_table():
    # the x = 10**10 spec grown at once to 10**7 (about 2 s): each column's
    # chunks are held as int32 and joined once, so the peak, the joined
    # table beside one column's chunks, is about 1.25 times the table
    spec = build_progression(1, [5], 10**10, 0.9)
    table = families._RootTable(spec.n0, spec.q, 4 * spec.primes[0])
    tracemalloc.start()
    try:
        table.grow(10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = table.primes.nbytes + table.k0.nbytes
    assert held > 10**7 and peak <= 1.4 * held, (held, peak)

@settings(max_examples=40, deadline=None)
@given(
    st.integers(-10**25, 10**25),
    st.integers(1, 10**7),
    st.integers(-10**12, 10**12),
    st.lists(st.integers(2, 60_000), min_size=1, max_size=3),
)
def test_root_table_grows_like_scalar_oracle(n0, q, c, bounds):
    c += coprime_shift(q, lambda t: n0 * n0 + c + t)
    table = families._RootTable(n0, q, c)
    for bound in bounds:
        table.grow(bound)
        assert_table_matches_oracle(table)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(-10**12, 10**12),
    st.integers(1, 10**4),
    st.one_of(st.integers(-40, 40), st.integers(-16_384, 16_384), st.integers(-10**9, 10**9)),
    st.lists(st.integers(2, 4000), min_size=1, max_size=5),
    st.sampled_from([1, 2, 7, 16]),
)
def test_root_table_grows_span_by_span_like_scalar_oracle(n0, q, c, bounds, chunk):
    # a ROOT_CHUNK of a few primes puts span edges all through each grow,
    # and the bounds arrive in any order
    c += coprime_shift(q, lambda t: n0 * n0 + c + t)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(families, "ROOT_CHUNK", chunk)
        table = families._RootTable(n0, q, c)
        for i, bound in enumerate(bounds):
            table.grow(bound)
            assert_table_matches_oracle(table)
            assert max(bounds[: i + 1]) <= table.bound <= 1.125 * max(bounds[: i + 1])


def stride_order(n):
    """The order in which perfbench's sieve workload runs its n windows:
    a golden-ratio stride, so that every prefix spreads over the range."""
    step = round(n * 0.6180339887)
    while gcd(step, n) != 1:
        step += 1
    return [i * step % n for i in range(n)]


def test_root_table_stops_near_the_largest_asked_bound():
    # the sieve workload's 110 windows of 350 k on the x = 10**10 spec ask
    # for bounds up to 376 732 in stride order; the table grows four times
    # and stops at 392 411, where doubling went on to 557 444
    spec = build_progression(1, [5], 10**10, 0.9)
    n0, q, c = spec.n0, spec.q, 4 * spec.primes[0]
    windows = [(lo, lo + 349) for lo in range(1, 38_501, 350)]
    table = families._RootTable(n0, q, c)
    asked, grown = [], []
    for i in stride_order(len(windows)):
        asked.append(window_bound(n0, q, c, *windows[i]))
        table.grow(asked[-1])
        grown.append(table.bound)
        assert table.bound <= 1.125 * max(asked)
    assert sorted(set(grown)) == [16_417, 278_722, 348_810, 392_411]
    assert max(asked) == 376_732
    assert_table_matches_oracle(table)


# k_lo for hits: |k_lo| >= 2**31, above every table prime, takes
# residues_mod over several limbs; 0 and small k_lo of either sign, and
# k_lo just below, at and just above a table prime, split the table into
# the primes p <= |k_lo| that residues_mod reduces k_lo by and the larger
# ones, where k_lo mod p is k_lo or k_lo + p
HITS_K_LO = st.one_of(
    st.integers(2**31, 2**100),
    st.integers(-(2**100), -(2**31)),
    st.just(0),
    st.integers(-3000, 3000),
    st.builds(
        lambda p, offset, sign: sign * (p + offset),
        st.sampled_from(primes_up_to(1500)),
        st.integers(-1, 1),
        st.sampled_from([1, -1]),
    ),
)


# windows (k_lo, count) for hits: k_lo from HITS_K_LO, or a prime below the
# bound at |k_lo| + count - 1, |k_lo| + count or |k_lo| + count + 1, where
# the p > |k_lo| split into those that may hit the window twice per root
# and those that hit it at most once; count runs from 1, below every table
# prime, to above the smallest ones
HITS_WINDOW = st.one_of(
    st.tuples(HITS_K_LO, st.integers(1, 80)),
    st.builds(
        lambda p, count, offset, sign: (sign * max(0, p - count - offset), count),
        st.sampled_from(primes_up_to(1500)),
        st.integers(1, 80),
        st.integers(-1, 1),
        st.sampled_from([1, -1]),
    ),
)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(-10**12, 10**12),
    st.integers(1, 10**4),
    st.sampled_from([1, 2, 3, 6, 30, 210]),
    st.integers(-10**6, 10**6),
    st.sampled_from([1, 2, 5, 12, 35]),
    HITS_WINDOW,
    st.integers(2, 1500),
)
# the values k^2 + 1 from k = -5, and from k = -13, at the table prime 13:
# 13 divides the value at k = -5 = 8 - 13, which k_lo mod 13 = k_lo + 13
# puts at j = 0
@example(0, 1, 1, 1, 1, (-5, 80), 1500)
@example(0, 1, 1, 1, 1, (-13, 80), 1500)
# k^2 + 1 again, whose table primes are 2 and the p = 1 mod 4: the prime 29
# at |k_lo| + count - 1, |k_lo| + count and |k_lo| + count + 1, with k_lo
# of both signs, in windows of 10 k (above the table primes 2 and 5) and of
# one k (below every table prime)
@example(0, 1, 1, 1, 1, (20, 10), 60)
@example(0, 1, 1, 1, 1, (19, 10), 60)
@example(0, 1, 1, 1, 1, (18, 10), 60)
@example(0, 1, 1, 1, 1, (-20, 10), 60)
@example(0, 1, 1, 1, 1, (-19, 10), 60)
@example(0, 1, 1, 1, 1, (-18, 10), 60)
@example(0, 1, 1, 1, 1, (28, 1), 60)
@example(0, 1, 1, 1, 1, (-27, 1), 60)
def test_root_table_hits_each_dividing_prime_once(
    n0, q_part, q_primes, c_part, c_primes, window, bound
):
    # small primes divide q and c, and c may be negative; n0 moves up to
    # the first with gcd(q, n0^2 + c) = 1. The sieve's one division per hit
    # needs each (p, j) listed once, exactly when p divides the value
    k_lo, count = window
    q, c = q_part * q_primes, c_part * c_primes
    n0 += coprime_shift(q, lambda t: (n0 + t) ** 2 + c)
    table = families._RootTable(n0, q, c)
    table.grow(2 * bound)
    p, first = table.hits(bound, k_lo, count)
    listings = zip(p.tolist(), first.tolist())
    pairs = [(p, j) for p, first in listings for j in range(first, count, p)]
    assert len(pairs) == len(set(pairs))
    values = [(n0 + (k_lo + j) * q) ** 2 + c for j in range(count)]
    assert all(values[j] % p == 0 for p, j in pairs)
    dividing = {
        (p, j) for p in primes_up_to(bound) for j, v in enumerate(values) if v % p == 0
    }
    assert set(pairs) == dividing


def test_window_reduces_k_lo_only_modulo_the_primes_up_to_it(monkeypatch):
    # a 350-k window at k_lo = 20001 of the x = 10**10 spec reads some
    # 21 700 table entries, but takes k_lo mod p by residues_mod only for
    # the p <= k_lo: at most pi(20001) = 2262 of them
    spec = build_progression(1, [5], 10**10, 0.9)
    n0, q, c = spec.n0, spec.q, 4 * spec.primes[0]
    k_lo, k_hi = 20_001, 20_350
    families._root_table.cache_clear()
    want = _squarefree_ks(n0, q, c, k_lo, k_hi)  # the table grows here
    table = families._root_table(n0, q, c)
    assert np.searchsorted(table.primes, window_bound(n0, q, c, k_lo, k_hi)) > 20_000
    moduli = []
    original = families.residues_mod

    def counting(n, m):
        moduli.append(len(m))
        return original(n, m)

    monkeypatch.setattr(families, "residues_mod", counting)
    assert _squarefree_ks(n0, q, c, k_lo, k_hi) == want
    assert want == sieve_oracle(n0, q, c, k_lo, k_hi)
    assert 0 < sum(moduli) <= len(primes_up_to(k_lo)) == 2262


def test_window_hits_copy_no_table_prefix():
    # the sieve workload's table, the x = 10**10 spec grown to 392 411, and
    # its 350-k windows at k_lo = 20001 and 38151, which read some 21 700
    # and 32 000 entries: from k_lo + 350 up, a prime hits only where k_lo
    # <= k0 < k_lo + 350, read by comparisons, so the traced peak stays
    # below 8 bytes per entry read, where a copy of the k0 read takes 8
    spec = build_progression(1, [5], 10**10, 0.9)
    n0, q, c = spec.n0, spec.q, 4 * spec.primes[0]
    table = families._RootTable(n0, q, c)
    table.grow(392_411)
    for k_lo in (20_001, 38_151):
        bound = window_bound(n0, q, c, k_lo, k_lo + 349)
        read = np.searchsorted(table.primes, bound, side="right")
        tracemalloc.start()
        try:
            table.hits(bound, k_lo, 350)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert read > 20_000 and peak < 8 * read, (k_lo, read, peak)


def single_k_survivors(n0, q, c, k_lo, k_hi):
    """The survivors of a window as windows of one k each: the same steps
    from other window offsets and hit listings."""
    return [k for k in range(k_lo, k_hi + 1) if _squarefree_ks(n0, q, c, k, k)]


def assert_oracle_on_sample(n0, q, c, k_lo, k_hi, got, size):
    """is_squarefree, the sieve's oracle, against the survivors got: on every
    k of the window while its values stay below 10**13, else on size k
    sampled with seed k_lo."""
    ks = range(k_lo, k_hi + 1)
    if window_bound(n0, q, c, k_lo, k_hi) ** 3 > 10**13:
        ks = random.Random(k_lo).sample(ks, min(size, len(ks)))
    survivors = set(got)
    for k in ks:
        assert (k in survivors) == is_squarefree((n0 + k * q) ** 2 + c), k


@settings(max_examples=80, deadline=None)
@given(
    st.integers(-10**6, 10**6),
    st.integers(1, 500),
    st.sampled_from([1, 2, 6, 30, 210]),
    st.integers(-10**6, 10**6),
    st.sampled_from([1, 4, 9, 12, 45, 98]),
    st.integers(-2000, 2000),
    st.integers(1, 144),
)
def test_int64_windows_match_single_k(n0, q_part, q_primes, c_part, c_square, k_lo, count):
    # small primes divide q, squares divide c, c may be negative, and the
    # widths run from one k up; n0 moves up to the first with gcd(q, n0^2 +
    # c) = 1
    q, c = q_part * q_primes, c_part * c_square
    n0 += coprime_shift(q, lambda t: (n0 + t) ** 2 + c)
    k_hi = k_lo + count - 1
    assume(min((n0 + k * q) ** 2 + c for k in range(k_lo, k_hi + 1)) >= 5)
    got = _squarefree_ks(n0, q, c, k_lo, k_hi)
    assert got == single_k_survivors(n0, q, c, k_lo, k_hi)
    assert_oracle_on_sample(n0, q, c, k_lo, k_hi, got, 12)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(2**21, 2**30),
    st.sampled_from([1, 2, 3]),
    st.integers(-1000, 1000),
    st.integers(1, 100),
    st.integers(0, 1000),
    st.integers(1, 150),
    st.data(),
)
def test_int64_window_flags_square_of_large_prime(start, m, n0, q, k_lo, count, data):
    # the value at k_lo + j is m P^2, P a prime above every prime the sieve
    # divides by (cbrt(2**62) < 2**21), so only the square test of its
    # cofactor P^2 can reject it; every value lies between 2**41 and 2**62.
    # q moves up to the first prime to m, so gcd(q, m P^2) = 1
    q += coprime_shift(m, lambda t: q + t)
    big = next(p for p in range(start, 0, -1) if is_prime(p))
    j = data.draw(st.integers(0, count - 1))
    u = n0 + (k_lo + j) * q
    c = m * big * big - u * u
    k_hi = k_lo + count - 1
    got = _squarefree_ks(n0, q, c, k_lo, k_hi)
    assert k_lo + j not in got
    assert got == single_k_survivors(n0, q, c, k_lo, k_hi)
    assert_oracle_on_sample(n0, q, c, k_lo, k_hi, got, 2)


def test_int64_window_square_of_prime_at_the_top():
    # a prime squared is the value at k = 50 of a 64-value window: (2**31 -
    # 1)^2 = 2**62 - 2**32 + 1, just below INT64_VALUES_BELOW, on int64
    # arrays, and the square of the largest prime below 2**33, near 2**66,
    # on Python integers, whose cofactors take the float square root too
    for big in (2**31 - 1, next(p for p in range(2**33 - 1, 0, -2) if is_prime(p))):
        c = big * big - 50 * 50
        assert (63 * 63 + c < 2**62) == (big < 2**31)
        got = _squarefree_ks(0, 1, c, 0, 63)
        assert 50 not in got
        assert got == single_k_survivors(0, 1, c, 0, 63)
        assert_oracle_on_sample(0, 1, c, 0, 63, got, 3)


def test_one_k_window_with_q_past_int64():
    # a window of one k bounds neither q nor n0 + kq by its values: at k = 0
    # the value is n0^2 + 20, small, while q = 2**70 + 3 leaves int64
    q = 2**70 + 3
    for n0 in range(1, 40):
        if gcd(q, n0 * n0 + 20) == 1:
            got = _squarefree_ks(n0, q, 20, 0, 0)
            assert got == ([0] if is_squarefree(n0 * n0 + 20) else []), n0


# the last k of the x = 10**10 spec whose u = n0 + kq is below 2**31, so that
# its value u^2 + 20 is below 2**62, and the last whose value fits in int64
INT64_EDGE_K = 357_556
INT64_TOP_K = 505_660


def test_int64_path_at_its_edge_on_the_paper_spec():
    spec = build_progression(1, [5], 10**10, 0.9)
    n0, q, c = spec.n0, spec.q, 4 * spec.primes[0]
    for k, top in [(INT64_EDGE_K, 2**62), (INT64_TOP_K, 2**63)]:
        assert (n0 + k * q) ** 2 + c < top <= (n0 + (k + 1) * q) ** 2 + c
    # the 200 values just below 2**62, then 200 that straddle it, then 200
    # that straddle 2**63, which int64 arrays would get wrong: only the first
    # window is sieved in int64
    for k_lo, k_hi in [
        (INT64_EDGE_K - 199, INT64_EDGE_K),
        (INT64_EDGE_K - 99, INT64_EDGE_K + 100),
        (INT64_TOP_K - 99, INT64_TOP_K + 100),
    ]:
        got = _squarefree_ks(n0, q, c, k_lo, k_hi)
        assert got == single_k_survivors(n0, q, c, k_lo, k_hi)
        assert_oracle_on_sample(n0, q, c, k_lo, k_hi, got, 6)


def test_sieve_benchmark_windows_match_loop():
    # the sieve workload's 110 windows of 350 k on the x = 10**10 spec
    # against the same range cut into windows of 7 k, and is_squarefree on
    # 40 seeded k
    spec = build_progression(1, [5], 10**10, 0.9)
    n0, q, c = spec.n0, spec.q, 4 * spec.primes[0]
    got = [k for lo in range(1, 38_501, 350) for k in _squarefree_ks(n0, q, c, lo, lo + 349)]
    assert got == [k for lo in range(1, 38_501, 7) for k in _squarefree_ks(n0, q, c, lo, lo + 6)]
    assert_oracle_on_sample(n0, q, c, 1, 38_500, got, 40)


def test_density_closed_form_matches_brute():
    def rho_brute(spec, p):
        return sum(
            ((spec.n0 + k * spec.q) ** 2 + 4 * spec.primes[0]) % (p * p) == 0
            for k in range(p * p)
        )

    for spec, bound in [
        (toy_spec(), 311),
        # odd q: 4 | u^2 + 4p_1 at both even u mod 4, whatever p_1 is
        (toy_spec(n0=1, q=5, primes=(2,)), 50),
        (toy_spec(n0=2, q=7, primes=(5,)), 50),
    ]:
        density = 1.0
        for p in primes_up_to(bound):
            density *= 1 - rho_brute(spec, p) / (p * p)
        assert abs(squarefree_density(spec, bound) - density) < 1e-12, spec


def test_density_examples():
    spec = toy_spec()
    # rho(4) = 0 (n odd), rho(49) = 2
    assert squarefree_density(spec, 2) == 1.0
    d7 = squarefree_density(spec, 7)
    d5 = squarefree_density(spec, 5)
    assert abs(d7 / d5 - (1 - 2 / 49)) < 1e-12
    with pytest.raises(ValueError):
        squarefree_density(
            ProgressionSpec(2, (5, 13), 10**10, 0.9, (), (), (), 6, 3), 100
        )


def test_compute_constants():
    rep = compute_constants(1, [5])
    assert rep.C_prime_m == 9.0 and rep.C_m == 144.0
    assert rep.mertens_M == 0.26149
    assert rep.headline_constant == 192.0
    rep = compute_constants(1, [2])
    assert rep.C_m == 144.0
    # p_i above the threshold contributes its own factor
    rep = compute_constants(1, [7])
    assert abs(rep.C_prime_m - 9.0 * 8 / 6) < 1e-12


def test_scan_shanks():
    records = list(family_scan("shanks", {}, range(2, 7)))
    by_k = {r.k: r for r in records}
    assert by_k[2].d_values == (41,)
    assert abs(by_k[2].regulator - 4.159127) < 1e-5
    for r in records:
        assert r.bound_ok, r.k


def test_scan_chowla():
    records = list(family_scan("chowla", {}, range(1, 60)))
    by_n = {r.n: r for r in records}
    assert by_n[2].d_values == (17,)
    assert abs(by_n[2].regulator - 2.0947) < 1e-4
    for r in records:
        assert r.bound_ok and r.regulator <= log(2 * sqrt(r.d_values[0])) + 1e-9


def check_shanks_interval(ks, count):
    # the closed form rounded down and up holds its 60-digit value, within
    # 2**-90 relative, and each row carries the float just below it
    rows = list(families._shanks(ks))
    assert len(rows) == count and all(ok for *_, ok in rows)
    with mp.workdps(60):
        for k, n, d, bound, _ in rows:
            root = mp.sqrt(d)
            closed = k * mp.log((n + root) / 4) + mp.log((2**k + 1 + root) / 2)
            low, high = (
                mp.make_mpf(families._shanks_closed_form(k, n, d, rnd))
                for rnd in (round_floor, round_ceiling)
            )
            assert low <= closed <= high <= low + mp.ldexp(closed, -90), k
            assert bound <= closed <= bound + ulp(bound), k


def test_shanks_interval_holds_the_closed_form():
    check_shanks_interval(range(2, 31), 28)


@pytest.mark.slow
def test_shanks_interval_holds_the_closed_form_to_k_38():
    check_shanks_interval(range(2, 39), 36)


def enclose_every_regulator_at(monkeypatch, value):
    # as raw libmp values, as regulator_enclosure returns them
    tiny = mpf(10) ** -30  # far inside the old slack of 1e-9
    enclosure = (value._mpf_, tiny._mpf_)
    monkeypatch.setattr(families, "regulator_enclosure", lambda d: enclosure)


def test_chowla_bound_is_certified(monkeypatch):
    n = 10
    d = 4 * n * n + 1
    with mp.workdps(40):
        bound = mp.log(4 * d) / 2  # log(2 sqrt d)
        for shift, ok in ((-5e-10, True), (5e-10, False)):
            reg = bound + shift
            # the old test, reg <= bound + 1e-9 in floats, passed both
            assert float(reg) <= log(2 * sqrt(d)) + 1e-9
            enclose_every_regulator_at(monkeypatch, reg)
            (rec,) = family_scan("chowla", {}, range(n, n + 1))
            assert rec.bound_ok is ok, shift


def check_chowla_log_is_rounded_down(monkeypatch, ns, count):
    # every row passes with R's true enclosure; then the enclosure is put
    # at the 60-digit log(2 sqrt d), just above it and just below it: the
    # row is certified only below, so the log(2 sqrt d) that _chowla
    # compares with is at most the true value
    rows = list(families._chowla(ns))
    assert len(rows) == count and all(ok for *_, ok in rows)
    with mp.workdps(60):
        for shift, ok in ((mpf(10) ** -40, False), (-(mpf(2) ** -95), True)):

            def enclosure(d, shift=shift):
                return (mp.log(4 * d) / 2 * (1 + shift))._mpf_, mpf(0)._mpf_

            monkeypatch.setattr(families, "regulator_enclosure", enclosure)
            rows = list(families._chowla(ns))
            assert all(row_ok is ok for *_, row_ok in rows), shift


def test_chowla_log_is_rounded_down(monkeypatch):
    check_chowla_log_is_rounded_down(monkeypatch, range(1, 2001), 1792)


@pytest.mark.slow
def test_chowla_log_is_rounded_down_at_4e11(monkeypatch):
    # 40 n near the sieve's top, n = 5e11
    ns = range(4 * 10**11, 4 * 10**11 + 40)
    check_chowla_log_is_rounded_down(monkeypatch, ns, 36)


def test_shanks_closed_form_is_certified(monkeypatch):
    k = 5
    n = 2**k + 3
    with mp.workdps(40):
        root = mp.sqrt(n * n - 8)
        closed = k * mp.log((n + root) / 4) + mp.log((2**k + 1 + root) / 2)
        for factor, ok in ((1, True), (1 + mpf(5e-10), False)):
            reg = closed * factor
            # the old test, a relative error of at most 1e-9, passed both
            assert abs(reg - closed) <= 1e-9 * closed
            enclose_every_regulator_at(monkeypatch, reg)
            (rec,) = family_scan("shanks", {}, range(k, k + 1))
            assert rec.bound_ok is ok, factor


def test_yamamoto_bound_is_certified(monkeypatch):
    p = 2
    n = next(n for n in range(3000, 3100) if is_squarefree(n * n + 4 * p))
    (rec,) = family_scan("yamamoto_plus", {"p": p}, range(n, n + 1))
    assert rec.bound > 30
    with mp.workdps(40):
        for shift, ok in ((-5e-10, False), (5e-10, True)):
            reg = mpf(rec.bound) + shift
            # the old test, reg >= bound - 1e-9 in floats, passed both
            assert float(reg) >= rec.bound - 1e-9
            enclose_every_regulator_at(monkeypatch, reg)
            (shifted,) = family_scan("yamamoto_plus", {"p": p}, range(n, n + 1))
            assert shifted.bound == rec.bound and shifted.bound_ok is ok, shift


@pytest.mark.parametrize(
    "kind, params, last", [("shanks", {}, 39), ("cubic", {"p": 2, "q": 3}, 38)]
)
def test_trial_division_refuses_past_sieve_limit(monkeypatch, kind, params, last):
    # past k = last, cbrt(max value) + 1 exceeds SIEVE_PRIME_LIMIT
    calls = []

    def counting(n):
        calls.append(n)
        return False  # no record, so no cycle walk

    monkeypatch.setattr(families, "is_squarefree", counting)
    assert list(family_scan(kind, params, range(last, last + 1))) == []
    assert len(calls) == 1
    calls.clear()
    limit = f"SIEVE_PRIME_LIMIT = {families.SIEVE_PRIME_LIMIT}"
    with pytest.raises(ValueError, match=limit):
        list(family_scan(kind, params, range(1, last + 2)))
    assert calls == []


def test_scan_yamamoto():
    records = list(family_scan("yamamoto_plus", {"p": 3}, range(1, 120)))
    by_n = {r.n: r for r in records}
    assert by_n[7].d_values == (61,)
    assert abs(by_n[7].regulator - 3.6642) < 1e-4
    assert by_n[7].regulator >= log(61) ** 2 / (8 * log(3))
    for r in records:
        assert r.bound_ok, r.n
    minus = family_scan("yamamoto_minus", {"p": 3}, range(4, 60))
    assert all(r.d_values[0] == r.n * r.n - 12 for r in minus)
    with pytest.raises(ValueError, match="prime"):
        list(family_scan("yamamoto_plus", {"p": 4}, range(3, 5)))


def test_scan_cubic():
    records = family_scan("cubic", {"p": 2, "q": 3}, range(1, 7))
    for r in records:
        assert r.bound_ok, r.k
        assert r.d_values[0] == (2 ** r.k * 3 + 3) ** 2 - 8
    with pytest.raises(ValueError):
        list(family_scan("cubic", {"p": 5, "q": 3}, range(1, 3)))
    with pytest.raises(ValueError, match="unknown"):
        family_scan("nope", {}, range(3))
