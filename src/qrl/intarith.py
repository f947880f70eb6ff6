"""Exact integer arithmetic helpers: gcds, symbols, roots, squarefree structure.

Everything here is integer-exact; no floats. Primality is deterministic
Miller-Rabin below the published 12-base limit and raises above it rather
than silently going probabilistic. The prime sieves run on numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt

import numpy as np

# fundamental_decomposition keeps this many d; its callers ask for one d
# many times in a row (once per ideal classified), then move on
DECOMPOSITION_CACHE_SIZE = 64


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with a*x + b*y = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


# Deterministic witness set for n below _MR_LIMIT (Sorenson-Webster).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= _MR_LIMIT:
        raise ValueError(f"is_prime: {n} exceeds the deterministic witness limit")
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n), extending Jacobi to all integer n."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -1
    # factor out 2s from n; (a|2) = 0, 1, -1 for a even, a%8 in (1,7), a%8 in (3,5)
    t = 0
    while n % 2 == 0:
        n //= 2
        t += 1
    if t:
        if a % 2 == 0:
            return 0
        if t % 2 == 1 and a % 8 in (3, 5):
            sign = -sign
    a %= n
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


def icbrt(n: int) -> int:
    """Integer cube root: largest r with r**3 <= n. Requires n >= 0."""
    if n < 0:
        raise ValueError("icbrt: negative argument")
    if n == 0:
        return 0
    x = 1 << -(-n.bit_length() // 3)
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            break
        x = y
    while x * x * x > n:
        x -= 1
    while (x + 1) ** 3 <= n:
        x += 1
    return x


@dataclass(frozen=True)
class SquarefreeResult:
    is_squarefree: bool
    witness: int | None = None  # a prime (or square root) whose square divides n

    def __bool__(self) -> bool:
        return self.is_squarefree


def _trial_candidates():
    yield 2
    yield 3
    k = 6
    while True:
        yield k - 1
        yield k + 1
        k += 6


def _trial_division(n: int, power: int):
    """Trial division by every p with p**power at most the cofactor left,
    power 2 or 3: yields (p, e, m) for each p with p**e exactly dividing n,
    m the cofactor after it. The final cofactor is 1 or a prime for power
    2; for power 3 also a product of two distinct primes or a prime square.
    """
    m = n
    for p in _trial_candidates():
        if (p * p if power == 2 else p * p * p) > m:
            return
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            yield p, e, m


def is_squarefree(n: int) -> SquarefreeResult:
    """Exact squarefreeness test by trial division up to cbrt(n), then a
    single perfect-square check of the cofactor."""
    if n <= 0:
        raise ValueError("is_squarefree: argument must be positive")
    m = n  # the loop leaves the final cofactor in m
    for p, e, m in _trial_division(n, 3):
        if e >= 2:
            return SquarefreeResult(False, p)
    r = isqrt(m)
    if r * r == m and m > 1:
        return SquarefreeResult(False, r)
    return SquarefreeResult(True)


def squarefree_decomposition(n: int) -> tuple[int, int]:
    """Write n = s * t**2 with s squarefree; returns (s, t)."""
    if n <= 0:
        raise ValueError("squarefree_decomposition: argument must be positive")
    s, t, m = 1, 1, n  # the loop leaves the final cofactor in m
    for p, e, m in _trial_division(n, 3):
        s *= p ** (e % 2)
        t *= p ** (e // 2)
    r = isqrt(m)
    if r * r == m and m > 1:
        t *= r
    else:
        s *= m
    return s, t


@dataclass(frozen=True)
class Discriminant:
    d: int
    fundamental: int
    conductor: int


def is_discriminant(d: int) -> bool:
    """True when d is a positive non-square integer with d % 4 in (0, 1)."""
    if d <= 0 or d % 4 not in (0, 1):
        return False
    r = isqrt(d)
    return r * r != d


@lru_cache(maxsize=DECOMPOSITION_CACHE_SIZE)
def fundamental_decomposition(d: int) -> Discriminant:
    """Split d = d0 * f**2 with d0 a fundamental discriminant."""
    if not is_discriminant(d):
        raise ValueError(f"{d} is not a real quadratic discriminant")
    s, t = squarefree_decomposition(d)
    if s % 4 == 1:
        return Discriminant(d, s, t)
    assert t % 2 == 0
    return Discriminant(d, 4 * s, t // 2)


def crt(residues: list[int], moduli: list[int]) -> tuple[int, int]:
    """Combine r_i mod m_i for pairwise coprime moduli; returns (r, prod m_i)."""
    if len(residues) != len(moduli):
        raise ValueError("crt: residue and modulus lists differ in length")
    for i in range(len(moduli)):
        for j in range(i + 1, len(moduli)):
            if gcd(moduli[i], moduli[j]) != 1:
                raise ValueError(
                    f"crt: moduli {moduli[i]} and {moduli[j]} are not coprime"
                )
    r, M = 0, 1
    for ri, mi in zip(residues, moduli):
        # solve r + M*k == ri (mod mi)
        k = (ri - r) * pow(M, -1, mi) % mi
        r += M * k
        M *= mi
    return r % M, M


def sqrt_mod_prime(a: int, p: int) -> int | None:
    """Smallest square root of a mod p, or None when a is a non-residue.

    p must be prime. Uses the p % 4 == 3 and p % 8 == 5 shortcuts and
    Tonelli-Shanks otherwise.
    """
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


def prime_array(n: int) -> np.ndarray:
    """All primes <= n, ascending, as an int64 array: a sieve of
    Eratosthenes over the odd numbers, one numpy bool per odd i <= n."""
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    # sieve[j] stands for 2j + 1; j = 0 (the number 1) stays set and
    # becomes the slot of the prime 2
    sieve = np.ones((n + 1) // 2, dtype=bool)
    for j in range(1, (isqrt(n) + 1) // 2):
        if sieve[j]:
            p = 2 * j + 1
            sieve[p * p // 2 :: p] = False
    primes = np.flatnonzero(sieve).astype(np.int64, copy=False)
    primes *= 2
    primes += 1
    primes[0] = 2
    return primes


def primes_up_to(n: int) -> list[int]:
    """All primes <= n, ascending."""
    return prime_array(n).tolist()


def residues_mod(n: int, moduli: np.ndarray) -> np.ndarray:
    """n mod m for each m of an int64 array of moduli 0 < m < 2**31, exact
    for any integer n, by Horner's rule over the 31-bit limbs of |n|; r < m
    keeps every intermediate below 2**62."""
    a = abs(n)
    r = np.zeros_like(moduli)
    for shift in range(31 * (a.bit_length() // 31), -1, -31):
        r = ((r << 31) + ((a >> shift) & 0x7FFFFFFF)) % moduli
    return (moduli - r) % moduli if n < 0 else r


def smallest_prime_factors(n: int) -> np.ndarray:
    """spf[k] = the smallest prime factor of k for 2 <= k <= n, as an int32
    array of length n + 1 (spf[0] = 0, spf[1] = 1); n < 2**31."""
    spf = np.zeros(n + 1, dtype=np.int32)
    for p in range(2, isqrt(n) + 1):
        if spf[p] == 0:
            multiples = spf[p * p :: p]  # a view: the writes land in spf
            multiples[multiples == 0] = p
    unmarked = np.flatnonzero(spf == 0)  # 0, 1 and the primes
    spf[unmarked] = unmarked
    return spf


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization by trial division; fine for the sizes used here."""
    if n <= 0:
        raise ValueError("factorize: argument must be positive")
    out: list[tuple[int, int]] = []
    m = n  # the loop leaves the final cofactor in m
    for p, e, m in _trial_division(n, 2):
        out.append((p, e))
    if m > 1:
        out.append((m, 1))
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    out = [1]
    for p, e in factorize(n):
        out = [v * p**k for v in out for k in range(e + 1)]
    return sorted(out)
