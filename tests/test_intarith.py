import math
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qrl import intarith
from qrl.intarith import (
    Discriminant,
    crt,
    factorize,
    fundamental_decomposition,
    icbrt,
    is_discriminant,
    is_prime,
    is_squarefree,
    kronecker,
    prime_array,
    pow_mod_array,
    primes_between,
    primes_up_to,
    residues_mod,
    smallest_prime_factors,
    sqrt_mod_primes,
    squarefree_decomposition,
    xgcd,
)


@given(st.integers(-10**9, 10**9), st.integers(-10**9, 10**9))
def test_xgcd_bezout(a, b):
    g, x, y = xgcd(a, b)
    assert g == math.gcd(a, b)
    assert a * x + b * y == g


def test_is_prime_small():
    assert [p for p in range(40) if is_prime(p)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37,
    ]


def test_is_prime_carmichael_and_large():
    assert not is_prime(561)
    assert not is_prime(1729)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)


def test_kronecker_fixed_values():
    assert kronecker(0, 1) == 1
    assert kronecker(5, 5) == 0
    assert kronecker(13, 3) == 1
    assert kronecker(17, 2) == 1
    assert kronecker(2, 7) == 1
    assert kronecker(3, 7) == -1
    assert kronecker(-1, 5) == 1
    assert kronecker(-1, 7) == -1


def test_kronecker_euler_criterion():
    for p in primes_up_to(200):
        if p == 2:
            continue
        for a in range(1, p):
            want = pow(a, (p - 1) // 2, p)
            want = -1 if want == p - 1 else want
            assert kronecker(a, p) == want


@given(st.integers(-500, 500), st.integers(-500, 500), st.integers(-200, 200))
def test_kronecker_multiplicative_in_top(a, b, n):
    assert kronecker(a * b, n) == kronecker(a, n) * kronecker(b, n)


@given(st.integers(0, 10**18))
def test_icbrt(n):
    r = icbrt(n)
    assert r**3 <= n < (r + 1) ** 3


def test_is_squarefree_examples():
    assert is_squarefree(41) is True
    assert is_squarefree(1) is True
    assert is_squarefree(49) is False
    assert is_squarefree(12) is False
    # cofactor is a prime square past the cbrt cut
    assert is_squarefree(2 * 101 * 101) is False


@given(st.integers(1, 10**6))
def test_squarefree_decomposition(n):
    s, t = squarefree_decomposition(n)
    assert s * t * t == n
    assert is_squarefree(s)


def test_fundamental_decomposition():
    assert fundamental_decomposition(13) == Discriminant(13, 13, 1)
    assert fundamental_decomposition(45) == Discriminant(45, 5, 3)
    assert fundamental_decomposition(40) == Discriminant(40, 40, 1)
    assert fundamental_decomposition(48) == Discriminant(48, 12, 2)
    assert fundamental_decomposition(8) == Discriminant(8, 8, 1)
    for bad in (0, -4, 7, 16, 25, 100):
        with pytest.raises(ValueError):
            fundamental_decomposition(bad)


def test_is_discriminant():
    assert is_discriminant(5)
    assert is_discriminant(8)
    assert not is_discriminant(4)
    assert not is_discriminant(7)
    assert not is_discriminant(-3)


@given(st.integers(2, 10**5))
def test_fundamental_is_fundamental(n):
    # d0 from any valid d must itself decompose with conductor 1
    if not is_discriminant(n):
        return
    dec = fundamental_decomposition(n)
    assert dec.fundamental * dec.conductor**2 == n
    again = fundamental_decomposition(dec.fundamental)
    assert again.conductor == 1


def test_crt():
    r, m = crt([2, 3], [3, 5])
    assert (r, m) == (8, 15)
    r, m = crt([1, 2, 3], [2, 3, 5])
    assert m == 30 and r % 2 == 1 and r % 3 == 2 and r % 5 == 3
    with pytest.raises(ValueError, match="4 and 6"):
        crt([1, 2], [4, 6])
    with pytest.raises(ValueError):
        crt([1, 2], [3])


def sqrt_mod_prime(a, p):
    """Smallest square root of a mod the prime p, or None when a is a
    non-residue: the scalar Tonelli-Shanks that built the sieve's root table
    before sqrt_mod_primes, with the p % 4 == 3 and p % 8 == 5 shortcuts."""
    a %= p
    if p == 2:
        return a
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
    elif p % 8 == 5:
        r = pow(a, (p + 3) // 8, p)
        if r * r % p != a:
            r = r * pow(2, (p - 1) // 4, p) % p
    else:
        # Tonelli-Shanks: write p-1 = q * 2^s with q odd
        q, s = p - 1, 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = 2
        while pow(z, (p - 1) // 2, p) != p - 1:
            z += 1
        m, c = s, pow(z, q, p)
        t, r = pow(a, q, p), pow(a, (q + 1) // 2, p)
        while t != 1:
            t2, i = t, 0
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
            b = pow(c, 1 << (m - i - 1), p)
            m, c = i, b * b % p
            t, r = t * c % p, r * b % p
    return min(r, p - r)


def test_sqrt_mod_prime():
    for p in primes_up_to(150):
        squares = {x * x % p for x in range(p)}
        for a in range(p):
            r = sqrt_mod_prime(a, p)
            if a in squares:
                assert r is not None and r * r % p == a % p
                assert r <= p - r or p == 2
            else:
                assert r is None


def oracle_roots(a, p):
    return [
        -1 if r is None else r
        for r in map(sqrt_mod_prime, np.asarray(a).tolist(), np.asarray(p).tolist())
    ]


def root_class(p):
    """The branch of sqrt_mod_primes that takes the prime p."""
    return 2 if p == 2 else 3 if p % 4 == 3 else 5 if p % 8 == 5 else 1


def test_sqrt_mod_primes_brute_force():
    # every a mod every prime p < 150, 2 included: the smaller root, or -1;
    # each branch (p = 3 mod 4, 5 mod 8, 1 mod 8) meets residues, a = 0
    # and non-residues
    pairs = [(a, p) for p in primes_up_to(150) for a in range(p)]
    a, p = np.array(pairs).T
    got = sqrt_mod_primes(a, p)
    assert got.dtype == np.int64
    seen = set()
    for (ai, pi), r in zip(pairs, got.tolist()):
        roots = [x for x in range(pi) if x * x % pi == ai]
        assert r == (min(roots) if roots else -1), (ai, pi)
        seen.add((root_class(pi), "zero" if ai == 0 else "root" if roots else "none"))
    kinds = {"zero", "root", "none"}
    assert seen == {(2, "zero"), (2, "root")} | {(k, w) for k in (1, 3, 5) for w in kinds}


@pytest.mark.parametrize("c", [20, -20, 0, 3, 12345])
def test_sqrt_mod_primes_matches_scalar(c):
    p = prime_array(3 * 10**5)
    a = -c % p
    got = sqrt_mod_primes(a, p)
    assert got.tolist() == oracle_roots(a, p)
    classes = {(root_class(pi), r >= 0) for pi, r in zip(p.tolist(), got.tolist())}
    assert {(k, True) for k in (1, 3, 5)} <= classes
    if c:  # -c is a non-residue mod about half of the odd primes
        assert {(k, False) for k in (1, 3, 5)} <= classes


@pytest.mark.parametrize(
    "p",
    [
        99_999_989,  # the largest prime below SIEVE_PRIME_LIMIT = 10**8
        7 * 2**20 + 1,  # p - 1 = 7 * 2**20: twenty Tonelli-Shanks rounds
        11 * 2**21 + 1,
        15 * 2**27 + 1,  # s = 27 below 2**31
        2**31 - 1,  # the largest primes below 2**31 in each class: 3 mod 4,
        2_147_483_629,  # 5 mod 8
        2_147_483_497,  # and 1 mod 8
    ],
)
def test_sqrt_mod_primes_int64_edge(p):
    rng = np.random.default_rng(p)
    x = rng.integers(0, p, 300)
    a = np.concatenate([np.arange(50), p - 1 - np.arange(50), x * x % p, x])
    got = sqrt_mod_primes(a, p)
    assert got.tolist() == oracle_roots(a, np.full_like(a, p))
    assert (got >= 0).any() and (got < 0).any()


def test_sqrt_mod_primes_refuses_wide_moduli():
    with pytest.raises(ValueError, match="2\\*\\*31"):
        sqrt_mod_primes(4, 2**31 + 11)
    with pytest.raises(ValueError, match="2\\*\\*31"):
        pow_mod_array(2, 5, 0)


@given(
    st.lists(
        st.tuples(
            st.integers(-2**62, 2**62), st.integers(0, 2**62), st.integers(1, 2**31 - 1)
        ),
        min_size=1,
        max_size=20,
    )
)
def test_pow_mod_array_matches_pow(triples):
    base, exp, mod = (np.array(v) for v in zip(*triples))
    assert pow_mod_array(base, exp, mod).tolist() == [pow(*t) for t in triples]


RESIDUE_CASES = [0, 1, 2**31 - 1, 2**31, 2**62, 2**93 + 1]


@pytest.mark.parametrize("n", RESIDUE_CASES + [-n for n in RESIDUE_CASES[1:]])
def test_residues_mod_matches_python(n):
    moduli = np.array([1, 2, 2**31 - 1], dtype=np.int64)
    r = residues_mod(n, moduli)
    assert r.dtype == np.int64
    assert r.tolist() == [n % 1, n % 2, n % (2**31 - 1)]


@given(st.integers(-2**200, 2**200), st.lists(st.integers(1, 2**31 - 1), max_size=8))
def test_residues_mod_random(n, moduli):
    got = residues_mod(n, np.array(moduli, dtype=np.int64))
    assert got.tolist() == [n % m for m in moduli]


def byte_sieve_primes(n):
    """The byte sieve that primes_up_to used before its numpy sieve."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(sieve[p * p :: p]))
    return [i for i in range(2, n + 1) if sieve[i]]


def test_primes_up_to():
    assert primes_up_to(1) == []
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert len(primes_up_to(10**4)) == 1229
    for n in (-3, 0, 2, 3, 4, 48, 49, 121, 10**5 + 3, 380_000):
        got = primes_up_to(n)
        assert got == byte_sieve_primes(n), n
        assert all(type(p) is int for p in got)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 10**6 + 1])
def test_prime_array_odd_sieve(n):
    got = prime_array(n)
    assert got.dtype == np.int64 and got.ndim == 1
    assert got.tolist() == byte_sieve_primes(n)
    # kept per n, and read-only, since every caller shares it
    assert prime_array(n) is got and not got.flags.writeable


@settings(max_examples=300)
@given(st.integers(-10, 5000), st.integers(-10, 5000))
@example(-3, 2)
@example(1, 2)
@example(2, 3)
@example(7, 7)
@example(8, 7)
def test_primes_between_matches_byte_sieve(lo, hi):
    got = primes_between(lo, hi)
    assert got.dtype == np.int64
    assert got.tolist() == [p for p in byte_sieve_primes(hi) if p > lo]


def test_primes_between_at_prime_squares():
    # spans that end on, just before and just after a prime square, where
    # the square is the first number its prime strikes
    every = byte_sieve_primes(994_011)
    for square in (9, 25, 49, 121, 169, 961, 10_201, 994_009):
        for lo in range(square - 2, square + 2):
            for hi in range(square - 1, square + 3):
                want = every[bisect_right(every, lo) : bisect_right(every, hi)]
                assert primes_between(lo, hi).tolist() == want


def test_primes_between_in_spans_with_one_base():
    # consecutive spans of an odd and an even width, with the base primes
    # up to sqrt(hi) passed once, rejoin to the whole sieve
    hi = 10**6 + 3
    base = prime_array(math.isqrt(hi))[1:]
    want = byte_sieve_primes(hi)
    for width in (997, 4096):
        spans = [
            primes_between(lo, min(lo + width, hi), base) for lo in range(0, hi, width)
        ]
        assert np.concatenate(spans).tolist() == want


def test_smallest_prime_factors():
    spf = smallest_prime_factors(5000)
    assert spf[:2].tolist() == [0, 1]
    for k in range(2, 5001):
        assert spf[k] == factorize(k)[0][0], k


@given(st.integers(1, 10**9))
def test_factorize(n):
    fac = factorize(n)
    prod = 1
    for p, e in fac:
        assert is_prime(p)
        prod *= p**e
    assert prod == n


def test_trial_division_refuses_past_the_limit(monkeypatch):
    # with the limit at 100, 101 is the first candidate past it: a cofactor
    # of at least 101**2 (factorize) or 101**3 (the squarefree tests) is
    # refused, while smooth numbers and a prime below 101**2 still finish
    monkeypatch.setattr(intarith, "SIEVE_PRIME_LIMIT", 100)
    limit = "no prime up to SIEVE_PRIME_LIMIT = 100 settles its cofactor"
    with pytest.raises(ValueError, match=limit):
        factorize(101 * 103)
    with pytest.raises(ValueError, match=limit):
        is_squarefree(101 * 103 * 107)
    with pytest.raises(ValueError, match=limit):
        fundamental_decomposition(101 * 103 * 107)  # = 1 mod 4
    assert factorize(2**20 * 3**7 * 97) == [(2, 20), (3, 7), (97, 1)]
    assert factorize(9973) == [(9973, 1)]
    assert is_squarefree(101 * 103) and not is_squarefree(4 * 101 * 103)
    assert fundamental_decomposition(4 * 97**2 * 5) == Discriminant(
        4 * 97**2 * 5, 5, 2 * 97
    )


def divisors(n):
    """All positive divisors of n, ascending, from its factorization; used
    by the reduced-form oracle and to draw random ideals."""
    out = [1]
    for p, e in factorize(n):
        out = [v * p**k for v in out for k in range(e + 1)]
    return sorted(out)


def test_divisors():
    for n in range(1, 2000):
        assert divisors(n) == [u for u in range(1, n + 1) if n % u == 0], n
