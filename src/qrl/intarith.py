"""Exact integer arithmetic helpers: gcds, symbols, roots, squarefree structure.

Everything here is integer-exact; no floats. Primality is deterministic
Miller-Rabin below the published 12-base limit and raises above it rather
than silently going probabilistic. The prime sieve, over a span (lo, hi]
or all of [2, n], runs on numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt

import numpy as np


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


# the largest prime that trial division tries, and the largest prime bound
# cbrt(max value) + 1 that the squarefree sieve of families accepts: a root
# table costs about 1.2 us per prime to build and 16 bytes per root, so at
# this limit (5.8 million primes) 6-7 s and 92 MB on a 2-vCPU x86-64 host,
# with a 167-168 MB peak RSS while it builds in one step, at the join of
# its int32 spans into the int64 columns
SIEVE_PRIME_LIMIT = 10**8


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
    A candidate past SIEVE_PRIME_LIMIT that still has p**power at most the
    cofactor is refused with a ValueError instead of dividing on for hours.
    """
    m = n
    for p in _trial_candidates():
        if (p * p if power == 2 else p * p * p) > m:
            return
        if p > SIEVE_PRIME_LIMIT:
            raise ValueError(
                f"trial division of {n}: no prime up to SIEVE_PRIME_LIMIT ="
                f" {SIEVE_PRIME_LIMIT} settles its cofactor"
            )
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            yield p, e, m


def is_squarefree(n: int) -> bool:
    """Exact squarefreeness test by trial division up to cbrt(n), then a
    single perfect-square check of the cofactor."""
    if n <= 0:
        raise ValueError("is_squarefree: argument must be positive")
    m = n  # the loop leaves the final cofactor in m
    for _, e, m in _trial_division(n, 3):
        if e >= 2:
            return False
    return m == 1 or isqrt(m) ** 2 != m


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


# The array routines below take moduli 0 < m < 2**31: every residue is then
# below 2**31 and every product of two residues below 2**62, so int64
# arithmetic is exact. The sieve's primes are below SIEVE_PRIME_LIMIT.
ARRAY_MODULUS_LIMIT = 1 << 31


def _check_moduli(mod: np.ndarray, caller: str) -> None:
    if mod.size and (mod.min() < 1 or mod.max() >= ARRAY_MODULUS_LIMIT):
        raise ValueError(f"{caller}: moduli must lie in [1, 2**31)")


def pow_mod_array(base, exp, mod) -> np.ndarray:
    """base**exp mod mod elementwise over int64 arrays of one shape, exp >= 0
    and 0 < mod < 2**31, by square and multiply over exp's bits."""
    base, exp, mod = (np.asarray(v, dtype=np.int64) for v in (base, exp, mod))
    _check_moduli(mod, "pow_mod_array")
    result = np.ones_like(mod) % mod
    base = base % mod
    for bit in range(int(exp.max(initial=0)).bit_length()):
        if bit:
            base = base * base % mod
        result = np.where(exp & (1 << bit), result * base % mod, result)
    return result


def _nonresidues(p: np.ndarray) -> np.ndarray:
    """A quadratic non-residue mod each prime p = 1 mod 8 of an int64 array:
    the least odd prime l with (p|l) = (l|p) = -1, by reciprocity, read
    from the squares mod l (2 is a residue mod such p). The least
    non-residue is below sqrt(p) + 1, so the primes l up to there always
    find one."""
    z = np.zeros_like(p)
    open_ = np.arange(p.size)
    bound = isqrt(int(p.max())) + 1 if p.size else 2
    for ell in primes_up_to(bound)[1:]:
        if not open_.size:
            break
        square = np.zeros(ell, dtype=bool)
        square[np.arange(ell) ** 2 % ell] = True
        found = ~square[p[open_] % ell]
        z[open_[found]] = ell
        open_ = open_[~found]
    return z


def _tonelli_shanks(a, p, s, x, c) -> np.ndarray:
    """A square root of each a mod the prime p = 1 mod 8, 0 < a < p, or -1
    where a is a non-residue, given p - 1 = q 2**s, q odd, x =
    a**((q-1)/2) and c = z**q for a non-residue z: Tonelli-Shanks (Cohen,
    GTM 138, Alg. 1.5.1) on arrays, each round on the entries still open.
    r = x a and t = x r = a**q have r**2 = t a, and c has order 2**m,
    m = s. Each round finds the order 2**i of t, takes b = c**(2**(m-i-1))
    and sets r = r b, c = b**2, t = t c and m = i, until t = 1. The order
    is 2**s exactly when a is a non-residue, in the first round, so no
    separate Euler test is run."""
    r = x * a % p
    t = x * r % p
    out, m = r.copy(), s
    live = np.flatnonzero(t != 1)
    r, t, c, m, p = r[live], t[live], c[live], m[live], p[live]
    while live.size:
        # t**(2**j) != 1 exactly for the j below i, and i <= m
        i = np.ones_like(m)
        power = t
        for _ in range(int(m.max()) - 1):
            power = power * power % p
            i += power != 1
        b, e = c, m - i - 1  # e = -1 where i = m: a non-residue
        for j in range(int(e.max())):
            b = np.where(j < e, b * b % p, b)
        r, c, m = r * b % p, b * b % p, i
        t = t * c % p
        out[live] = np.where(e < 0, -1, r)
        go = (t != 1) & (e >= 0)
        live, r, t, c, m, p = live[go], r[go], t[go], c[go], m[go], p[go]
    return out


def sqrt_mod_primes(a, p) -> np.ndarray:
    """The smaller square root of a mod p for each prime p of an int64 array
    (a broadcast against it), or -1 where a is a non-residue; p < 2**31.

    By the class of p (Cohen, GTM 138, Sec. 1.5), from one exponentiation
    of all the roots at once. With p - 1 = q 2**s, q odd, it is x =
    a**((q-1)/2), or Atkin's b = (2a)**((p-5)/8) where p = 5 mod 8, and
    also Tonelli-Shanks' c = z**q where p = 1 mod 8. Then
    - p = 3 mod 4 (s = 1): r = x a = a**((p+1)/4);
    - p = 5 mod 8 (s = 2): with i = 2a b**2, r = a b (i - 1). For a
      residue a, 2a is a non-residue (2 is one mod p), so i =
      (2a)**((p-1)/4) has i**2 = -1 and r**2 = a**2 b**2 (-2i) =
      -a i (2a b**2) = a;
    - p = 1 mod 8: Tonelli-Shanks from x.
    The first two keep r only where r**2 = a, which no non-residue passes.
    """
    a, p = np.broadcast_arrays(np.asarray(a, np.int64), np.asarray(p, np.int64))
    _check_moduli(p, "sqrt_mod_primes")
    a = a % p
    root = np.where(p == 2, a, 0)  # the answer at p = 2 and at a = 0
    todo = np.flatnonzero((p != 2) & (a != 0))
    a, p = a[todo], p[todo]
    low = (p - 1) & (1 - p)  # the largest power of 2 dividing p - 1
    s = np.frexp(low)[1].astype(np.int64) - 1
    q = (p - 1) >> s
    five = s == 2
    base = np.where(five, 2 * a % p, a)
    deep = np.flatnonzero(s > 2)
    pd = p[deep]
    # the one exponentiation: x for every p, and c = z**q for Tonelli-Shanks
    x = pow_mod_array(
        np.concatenate([base, _nonresidues(pd)]),
        np.concatenate([q >> 1, q[deep]]),  # (q - 1)/2 = q >> 1
        np.concatenate([p, pd]),
    )
    x, c = x[: p.size], x[p.size :]
    r = x * a % p
    i = base * x % p * x % p
    r = np.where(five, r * (i - 1) % p, r)
    r[r * r % p != a] = -1
    r[deep] = _tonelli_shanks(a[deep], pd, s[deep], x[deep], c)
    root[todo] = np.where(r < 0, -1, np.minimum(r, p - r))
    return root


def primes_between(lo: int, hi: int, base: np.ndarray | None = None) -> np.ndarray:
    """The primes p with lo < p <= hi, ascending, as an int64 array: the
    segmented sieve of Eratosthenes (Bays and Hudson, BIT 17, 1977) over
    the odd numbers of (lo, hi] alone, one numpy bool each, striking the
    odd multiples of the odd primes of base. base must hold every odd prime
    up to isqrt(hi), ascending, and may hold larger ones; it defaults to
    those of prime_array(isqrt(hi)), and a caller that sieves consecutive
    spans passes it once."""
    if hi <= max(lo, 1):
        return np.zeros(0, dtype=np.int64)
    if base is None:
        base = prime_array(isqrt(hi))[1:]
    # sieve[j] stands for first + 2j, the odd numbers of (lo, hi]; from
    # the bottom, first = 1 and its slot, never struck, becomes that of 2
    first = 1 if lo < 2 else (lo + 1) | 1
    sieve = np.ones((hi - first) // 2 + 1, dtype=bool)
    # each p strikes its odd multiples m p from the least odd m >= p with
    # m p >= first: none where p > sqrt(hi), as then m p >= p**2 > hi
    m = np.maximum((first - 1) // base + 1, base) | 1
    for p, j in zip(base.tolist(), ((m * base - first) >> 1).tolist()):
        sieve[j::p] = False
    primes = sieve.nonzero()[0].astype(np.int64, copy=False)
    primes *= 2
    primes += first
    if lo < 2:
        primes[0] = 2
    return primes


# prime_array results kept per process: the base primes of each sieve, and
# the Euler product's primes up to its bound B, are asked for again and again
PRIME_ARRAY_CACHE_SIZE = 16


@lru_cache(maxsize=PRIME_ARRAY_CACHE_SIZE)
def prime_array(n: int) -> np.ndarray:
    """All primes <= n, ascending, as a read-only int64 array (the span
    (0, n] of primes_between), cached per n."""
    primes = primes_between(0, n)
    primes.flags.writeable = False
    return primes


def primes_up_to(n: int) -> list[int]:
    """All primes <= n, ascending."""
    return prime_array(n).tolist()


def residues_mod(n: int, moduli: np.ndarray) -> np.ndarray:
    """n mod m for each m of an int64 array of moduli 0 < m < 2**31, exact
    for any integer n, by Horner's rule over the 31-bit limbs of |n|; r < m
    keeps every intermediate below 2**62."""
    a = abs(n)
    top = 31 * (a.bit_length() // 31)
    r = (a >> top) % moduli  # the top limb, below 2**31
    for shift in range(top - 31, -1, -31):
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
