"""Discriminant families: the sieved arithmetic progression n0 mod q whose
values n make every n^2 + 4p_i squarefree-friendly, plus the classical
parametric families (Chowla, Shanks, the n^2 +- 4p family, and the cubic
(p^k q + p + 1)^2 - 4p family), each one generator of checked rows in
`FAMILIES`. The progression, Chowla's (2n)^2 + 1 and n^2 +- 4p are all
u^2 + c with u in an arithmetic progression, so one polynomial sieve
settles their squarefreeness; the Shanks and cubic u grow exponentially in
k, so those scans trial-divide each value.

The sieve takes only tables (n0, q, c) with gcd(q, n0^2 + c) = 1, as every
m = 1 progression, Chowla's (0, 2, 1) and n^2 +- 4p's (0, 1, +-4p) are: no
p | q divides a value, and each p's hits are listed as (p, first), step p.

Both need the primes up to cbrt(max value), so both refuse above
SIEVE_PRIME_LIMIT. The m >= 2 progressions are out of exact reach: q =
prod S is already about 8e20 at m = 2, so every d exceeds 1e41, and
certifying that such a d is squarefree is about as hard as factoring it;
progression_rows refuses them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from math import gcd, isqrt, log, prod, sqrt
from typing import Callable, Iterable, Iterator

import numpy as np
from mpmath.libmp import (
    from_int,
    mpf_add,
    mpf_le,
    mpf_log,
    mpf_mul_int,
    mpf_shift,
    mpf_sqrt,
    mpf_sub,
    round_ceiling,
    round_floor,
    to_float,
)

from .cfrac import (
    REGULATOR_PREC,
    fundamental_unit,
    principal_ideal_of_norm,
    regulator_enclosure,
)
from .classno import class_number, h_bound, l_value_truncated
from .intarith import (
    SIEVE_PRIME_LIMIT,
    crt,
    icbrt,
    is_prime,
    is_squarefree,
    kronecker,
    pow_mod_array,
    prime_array,
    primes_between,
    primes_up_to,
    residues_mod,
    sqrt_mod_primes,
)

MERTENS_M = 0.26149
HEADLINE_CONSTANT = 192.0
# root tables kept per process, one per (n0, q, c)
ROOT_TABLE_CACHE_SIZE = 16
# about the primes of one span that a growing table sieves and takes the
# roots of in one set of numpy arrays
ROOT_CHUNK = 1 << 12
# a window whose u^2, values and step q all lie below this is sieved in
# int64 arrays: the rounded square root s of a cofactor is then at most 2^31
# and no product, s^2 included, leaves int64; any other in Python integers
INT64_VALUES_BELOW = 1 << 62


@dataclass(frozen=True)
class ProgressionSpec:
    m: int
    primes: tuple[int, ...]
    x: int
    eps1: float
    S: tuple[int, ...]
    P_small: tuple[int, ...]
    S_prime: tuple[int, ...]
    q: int
    n0: int


@dataclass(slots=True)
class ScanRecord:
    """One row of a scan, made once, complete, as the scan is read. Slotted
    and not frozen: nothing hashes or mutates a record, and a scan builds
    one per squarefree d, which slots make several times cheaper; an
    unknown attribute is still refused."""

    k: int
    n: int
    d_values: tuple[int, ...]
    squarefree: tuple[bool, ...]
    h: int | None = None
    regulator: float | None = None
    L_truncated: float | None = None
    bound: float | None = None
    bound_ok: bool | None = None


@dataclass(frozen=True)
class StarWitness:
    modulus: int
    residue: int
    root: int


@dataclass(frozen=True)
class ConstantsReport:
    C_m: float
    C_prime_m: float
    mertens_M: float
    headline_constant: float


def check_star(m: int, primes: list[int]) -> StarWitness | None:
    """Quadratic residue N mod prod{p_j <= 2m} with every N + 4p_i a unit
    mod those p_j; None when no residue works.
    """
    if len(set(primes)) != len(primes):
        raise ValueError("check_star: primes must be distinct")
    small = [pj for pj in primes if pj <= 2 * m]
    modulus = prod(small)
    if modulus == 1:
        return StarWitness(1, 0, 0)
    for r in range(modulus):
        n_val = r * r % modulus
        if all((n_val + 4 * pi) % pj != 0 for pj in small for pi in primes):
            return StarWitness(modulus, n_val, r)
    return None


def build_progression(
    m: int, primes: list[int], x: int, eps1: float
) -> ProgressionSpec:
    """Assemble the modulus q and residue n0 forcing chi_{d_i}(p) = -1 on
    S_prime and gcd(d_i, q) = 1 for every n = n0 mod q, d_i = n^2 + 4p_i.
    """
    if len(primes) != m:
        raise ValueError("build_progression: need exactly m primes")
    if not 0 < eps1 < 1:
        raise ValueError("build_progression: eps1 must lie in (0, 1)")
    if x < 10:
        raise ValueError("build_progression: x too small")
    witness = check_star(m, primes)
    if witness is None:
        raise ValueError(f"build_progression: condition (*) fails for {primes}")
    threshold = m * m * 4**m + 2
    s_prime_limit = int(log(x) ** eps1)
    prime_set = set(primes)
    s_set = tuple(p for p in primes_up_to(threshold) if p not in prime_set)
    p_small = tuple(p for p in primes if p <= 2 * m)
    s_prime = tuple(
        p for p in primes_up_to(s_prime_limit) if p > threshold and p not in prime_set
    )
    residues: list[int] = []
    moduli: list[int] = []
    for p in s_set:
        residues.append(1 if p == 2 else 0)
        moduli.append(p)
    for pj in p_small:
        residues.append(witness.root % pj)
        moduli.append(pj)
    for p in s_prime:
        r_p = next(
            (
                r
                for r in range(p)
                if all(kronecker(r * r + 4 * pi, p) == -1 for pi in primes)
            ),
            None,
        )
        if r_p is None:
            raise ValueError(f"build_progression: no admissible residue modulo {p}")
        residues.append(r_p)
        moduli.append(p)
    n0, q = crt(residues, moduli)
    return ProgressionSpec(m, tuple(primes), x, eps1, s_set, p_small, s_prime, q, n0)


class _RootTable:
    """Where the primes p <= bound divide u^2 + c for u = n0 + kq: one entry
    (p, k0) per root y = +-sqrt(-c) mod p of each p not dividing q, with
    k0 = (y - n0) q^-1 mod p, so that p divides the value at k exactly when
    k = k0 mod p for one of its entries, and hits() lists a window's hits
    as (p, first). A table needs gcd(q, n0^2 + c) = 1, so that no p | q
    divides any value, and refuses any other with ValueError. grow()
    extends the bound in place."""

    def __init__(self, n0: int, q: int, c: int) -> None:
        if gcd(q, n0 * n0 + c) != 1:
            raise ValueError(f"sieve: q = {q} shares a factor with n0^2 + c")
        self.n0, self.q, self.c = n0, q, c
        self.bound = 1
        self.primes = np.zeros(0, dtype=np.int64)  # ascending, one per entry
        self.k0 = np.zeros(0, dtype=np.int64)

    def grow(self, bound: int) -> None:
        """Cover the primes up to bound, or to SIEVE_PRIME_LIMIT if less.
        The new bound is at least the old one plus an eighth, so that ever
        larger windows grow the table only O(log bound) times, and at most
        1.125 times the largest bound asked. Only the new primes are
        sieved, span by span (primes_between, with the base primes up to
        sqrt(new bound) found once), and each span's roots are computed
        with numpy as it is sieved."""
        if bound <= self.bound:
            return
        n0, q, c = self.n0, self.q, self.c
        new_bound = min(max(bound, self.bound + self.bound // 8), SIEVE_PRIME_LIMIT)
        base = prime_array(isqrt(new_bound))[1:]
        # about ROOT_CHUNK primes per span: near x, about one integer in
        # log x is prime
        width = ROOT_CHUNK * max(1, round(log(new_bound)))
        primes, k0 = [self.primes], [self.k0]
        for lo in range(self.bound, new_bound, width):
            p = primes_between(lo, min(lo + width, new_bound), base)
            q_mod = residues_mod(q, p)
            p, q_mod = p[q_mod != 0], q_mod[q_mod != 0]  # no p | q divides a value
            t = sqrt_mod_primes(residues_mod(-c, p), p)
            # one row per prime with roots; its entries are y = t, then
            # y = p - t unless that is t again
            has = t >= 0
            p, q_mod, t = p[has, None], q_mod[has, None], t[has, None]
            y = np.hstack([t, p - t])
            kept = np.hstack([np.ones_like(t, dtype=bool), 2 * t % p != 0])
            inv_q = pow_mod_array(q_mod, p - 2, p)  # Fermat: p is prime
            k = (y - residues_mod(n0, p)) % p * inv_q % p
            # int32 until joined (every p is below SIEVE_PRIME_LIMIT <
            # 2**31), which halves the spans: the memory of the primes
            # spans stays with the process while k0 is joined
            primes.append(np.broadcast_to(p, y.shape)[kept].astype(np.int32))
            k0.append(k[kept].astype(np.int32))
        self.primes = np.concatenate(primes, dtype=np.int64)
        del primes  # once joined, freed before k0 is joined
        self.k0 = np.concatenate(k0, dtype=np.int64)
        self.bound = new_bound

    def hits(self, bound: int, k_lo: int, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Int64 arrays (p, first), one listing per index, in ascending p:
        the prime p <= bound (covered by the table) divides the value at k =
        k_lo + j for j = first, first + p, ... below count. Each such (p,
        j), 0 <= j < count, is listed once.

        The entries split in three by p, so that the cost follows the primes
        that can wrap inside the window, not the whole table prefix. For p
        <= |k_lo|, k_lo mod p is an int64 remainder. For |k_lo| < p < |k_lo|
        + count, and for every p > |k_lo| when k_lo < 0, it is k_lo, or k_lo
        + p when k_lo < 0. From |k_lo| + count up, with k_lo >= 0, the
        window lies in [0, p), so each root hits it at most once, at k = k0:
        exactly when k_lo <= k0 < k_lo + count, which two comparisons on k0
        read, and first = k0 - k_lo is computed for the hits alone. An empty
        slice makes no numpy call, so a window whose table ends below |k_lo|
        reads one slice."""
        primes, k0 = self.primes, self.k0
        n = primes.searchsorted(bound, side="right")
        small = primes[:n].searchsorted(abs(k_lo), side="right")
        near = n
        if small < n and k_lo >= 0:
            near = small + primes[small:n].searchsorted(k_lo + count)
        out = []
        if small:
            p = primes[:small]
            out.append(_reduced_hits(p, k0[:small] - residues_mod(k_lo, p), count))
        if small < near:
            # every p > |k_lo| is below 2**31, and so is |k_lo|
            p = primes[small:near]
            first = k0[small:near] - k_lo
            if k_lo < 0:
                first -= p
            out.append(_reduced_hits(p, first, count))
        if near < n:
            p, k = primes[near:n], k0[near:n]
            live = k >= k_lo
            live &= k < k_lo + count
            live = live.nonzero()[0]
            out.append((p[live], k[live] - k_lo))
        # a one-k window often has hits in one slice or none: nothing to join
        out = [part for part in out if len(part[0])]
        if len(out) <= 1:
            return out[0] if out else (primes[:0], k0[:0])
        return tuple(np.concatenate(part) for part in zip(*out))


def _reduced_hits(p, first, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The listings of hits() from the arrays p and first = k0 - (k_lo mod
    p), each in (-p, p): adding p where first is negative reduces it mod p,
    and a listing is kept when that is below count."""
    first += p * (first < 0)
    live = (first < count).nonzero()[0]
    return p[live], first[live]


def _prime_bound(top: int, method: str) -> int:
    """cbrt(top) + 1, the prime bound that settles whether values up to top
    are squarefree; ValueError past SIEVE_PRIME_LIMIT."""
    bound = icbrt(top) + 1
    if bound > SIEVE_PRIME_LIMIT:
        raise ValueError(
            f"squarefree {method}: cbrt(max value) + 1 = {bound} exceeds "
            f"SIEVE_PRIME_LIMIT = {SIEVE_PRIME_LIMIT}"
        )
    return bound


@lru_cache(maxsize=ROOT_TABLE_CACHE_SIZE)
def _root_table(n0: int, q: int, c: int) -> _RootTable:
    return _RootTable(n0, q, c)


def _survivors(u_lo: int, q: int, c: int, count: int, hits, dtype) -> list[int]:
    """The j < count with (u_lo + jq)^2 + c squarefree, from the (p, first)
    listings of hits, gcd(q, u_lo^2 + c) = 1, in arrays of dtype: int64, or
    object, which holds Python integers. The listings expand to one (j, p)
    per hit; p^2 divides the value at j where p divides the quotient. The
    hitting primes at j are distinct and divide the value, so their product
    does too, and the cofactor r = value / product is a square exactly when
    s = rint(sqrt(float64(r))) has s^2 = r, squared in dtype. The test is
    exact for r < 2^104: for r = t^2, float64(r) is within a relative 2^-53
    of r, so its square root lies within t 2^-54 of t, under half the float
    spacing at t < 2^52, and the rounded float square root is t itself.
    Every sieved value is below SIEVE_PRIME_LIMIT^3 = 1e24 < 2^80."""
    p, first = hits
    value = np.arange(count, dtype=dtype) * q + u_lo
    value = value * value + c
    # the hits of a listing are j = first + i p, 0 <= i < n
    n = (count - 1 - first) // p + 1
    start = np.cumsum(n) - n  # index of each listing's first hit
    j = np.repeat(first - start * p, n)
    p = np.repeat(p, n)
    j += np.arange(len(p)) * p
    flag = np.zeros(count, dtype=bool)
    flag[j[value[j] // p % p == 0]] = True
    product = np.ones(count, dtype=dtype)
    np.multiply.at(product, j, p)
    r = value // product
    # s^2 overflows int64 past 2^63, so it is squared in the window's dtype
    s = np.rint(np.sqrt(r.astype(np.float64))).astype(np.int64).astype(dtype)
    flag |= (s * s == r) & (r > 1)
    return np.flatnonzero(~flag).tolist()


def _squarefree_ks(n0: int, q: int, c: int, k_lo: int, k_hi: int) -> list[int]:
    """The k in [k_lo, k_hi] with (n0+kq)^2 + c squarefree; callers keep
    every such value >= 5 and gcd(q, n0^2 + c) = 1 (the root table refuses
    any other with ValueError). Exact: a polynomial sieve removes all prime
    factors up to cbrt(max value) + 1, then a perfect-square test settles
    each cofactor.

    The sieve reads where each prime divides from the process's root table
    for (n0, q, c), built once and grown span by span when a window needs
    larger primes. The table lists each (p, j) once, as (p, first) for j =
    first + ip, with p dividing the value at j. At k_lo >= 0 a prime of at
    least k_lo + count costs the listing two comparisons on its k0, and
    only the smaller primes pay arithmetic (see _RootTable.hits).
    _survivors runs every window's hits and square test in numpy arrays.
    Their element type is the one choice: int64 when every (n0 + kq)^2 and
    value, and q, which a one-k window does not bound, lie below
    INT64_VALUES_BELOW = 2^62; otherwise Python integers. Refuses with
    ValueError when cbrt(max value) + 1 passes SIEVE_PRIME_LIMIT.
    """
    count = k_hi - k_lo + 1
    if count <= 0:
        return []
    u_lo, u_hi = n0 + k_lo * q, n0 + k_hi * q
    # the values are convex in k: the largest is at an end of the window
    square = max(u_lo * u_lo, u_hi * u_hi)
    bound = _prime_bound(square + c, "sieve")
    table = _root_table(n0, q, c)
    table.grow(bound)
    hits = table.hits(bound, k_lo, count)
    dtype = np.int64 if max(square, square + c, q) < INT64_VALUES_BELOW else object
    return [k_lo + j for j in _survivors(u_lo, q, c, count, hits, dtype)]


def progression_rows(
    spec: ProgressionSpec, k_max: int, k_min: int = 1, strict_range: bool = False
) -> list[tuple[int, int, int]]:
    """(k, n, d) for each k in [k_min, k_max] with d = n^2 + 4p_1 squarefree,
    n = n0 + kq, by the polynomial sieve; strict_range also keeps d >
    sqrt(x). Only m = 1 specs are accepted: at m >= 2 every d is out of
    exact reach (see the module docstring)."""
    if spec.m != 1:
        # README and the CLI's error record quote this message as it is
        raise ValueError(
            f"progression_rows needs a spec with m = 1, this one has m = {spec.m}"
        )
    n0, q, c = spec.n0, spec.q, 4 * spec.primes[0]
    if strict_range:
        # keep d > sqrt(x): k q > x^(1/4)
        k_min = max(k_min, isqrt(isqrt(spec.x)) // q + 1)
    ks = _squarefree_ks(n0, q, c, k_min, k_max)
    return [(k, n, n * n + c) for k in ks for n in (n0 + k * q,)]


def progression_records(
    spec: ProgressionSpec,
    k_max: int,
    k_min: int = 1,
    strict_range: bool = False,
    with_h: bool = False,
    euler_bound_B: int | None = None,
) -> Iterator[ScanRecord]:
    """One record per row of progression_rows, each made as it is read.
    with_h adds h, the regulator, the Euler product of L at euler_bound_B
    when that is given, and for d >= 16 the headline bound with h <= bound."""
    constant = HEADLINE_CONSTANT * log(max(spec.primes))
    for k, n, d in progression_rows(spec, k_max, k_min, strict_range):
        if not with_h:
            yield ScanRecord(k, n, (d,), (True,))
            continue
        h, _ = class_number(d)
        reg = fundamental_unit(d).regulator
        l_val = None if euler_bound_B is None else l_value_truncated(d, euler_bound_B)
        bound = h_bound(d, constant) if d >= 16 else None
        ok = None if bound is None else h <= bound
        yield ScanRecord(k, n, (d,), (True,), h, reg, l_val, bound, ok)


def scan_squarefree(
    spec: ProgressionSpec,
    k_max: int,
    k_min: int = 1,
    strict_range: bool = False,
    with_h: bool = False,
    euler_bound_B: int | None = None,
) -> list[ScanRecord]:
    """The records of progression_records, as a list."""
    return list(
        progression_records(spec, k_max, k_min, strict_range, with_h, euler_bound_B)
    )


def squarefree_density(spec: ProgressionSpec, prime_bound: int) -> float:
    """Truncated product of (1 - rho(p^2)/p^2) over p <= prime_bound, where
    rho counts k mod p^2 with p^2 | (n0+kq)^2 + 4p_1.

    The spec must have gcd(q, n0^2 + 4p_1) = 1, as build_progression makes
    it (any other is refused with ValueError), so rho = 0 for p | q; for p
    coprime to q the substitution u = n0 + kq is a bijection mod p^2, so rho
    is the number of u mod p^2 with p^2 | u^2 + 4p_1. For p = 2 that is the
    two even u mod 4, whatever p_1 is, so rho = 2; for odd p it is the number
    of square roots of -4p_1, which Hensel pins to 0 or 2 (and 0 when p =
    p_1).
    """
    if spec.m != 1:
        raise ValueError("squarefree_density: defined for m = 1 only")
    p1 = spec.primes[0]
    if gcd(spec.q, spec.n0**2 + 4 * p1) != 1:
        raise ValueError("squarefree_density: q shares a factor with n0^2 + 4p_1")
    density = 1.0
    for p in primes_up_to(prime_bound):
        if spec.q % p == 0 or p == p1 != 2:
            rho = 0
        elif p == 2:
            rho = 2
        else:
            rho = 1 + kronecker(-4 * p1, p)
        density *= 1.0 - rho / (p * p)
    return density


def compute_constants(m: int, primes: list[int]) -> ConstantsReport:
    if len(set(primes)) != len(primes):
        raise ValueError("compute_constants: primes must be distinct")
    threshold = m * m * 4**m + 2
    c_prime = Fraction(1)
    for pi in primes:
        if pi > threshold:
            c_prime *= Fraction(pi + 1, pi - 1)
    for p in primes_up_to(threshold):
        c_prime *= Fraction(p + 1, p - 1)
    return ConstantsReport(
        float(16 * c_prime), float(c_prime), MERTENS_M, HEADLINE_CONSTANT
    )


def _chowla(n_range):
    """Chowla's d = 4n^2 + 1, n >= 1: R <= log(2 sqrt d)."""
    ns = [n for n in n_range if n >= 1]
    keep = set(_squarefree_ks(0, 2, 1, min(ns, default=1), max(ns, default=0)))
    for n in [n for n in ns if n in keep]:
        d = 4 * n * n + 1
        # certified R <= log(2 sqrt d): the top of R's enclosure against
        # log(2 sqrt d) = log(4d)/2, rounded down (the halving is exact)
        prec = REGULATOR_PREC
        half_log = mpf_shift(mpf_log(from_int(4 * d), prec, round_floor), -1)
        top = mpf_add(*regulator_enclosure(d), prec, round_ceiling)
        yield n, n, d, log(2 * sqrt(d)), mpf_le(top, half_log)


def _trial_rows(k_range, u_of, c: int) -> list[tuple[int, int, int]]:
    """(k, n, n^2 + c) for k >= 1 in k_range, n = u_of(k), n^2 + c squarefree
    by trial division, refused before any division past the sieve's limit."""
    ns = [(k, u_of(k)) for k in k_range if k >= 1]
    _prime_bound(max((n * n + c for _, n in ns), default=1), "trial division")
    return [(k, n, n * n + c) for k, n in ns if is_squarefree(n * n + c)]


def _shanks_closed_form(k: int, n: int, d: int, rnd: str) -> tuple:
    """k log((n + sqrt d)/4) + log((2^k + 1 + sqrt d)/2) at REGULATOR_PREC,
    each operation rounded by rnd. Every operation is increasing in its
    arguments (k >= 1), so round_floor gives a lower bound of the closed
    form and round_ceiling an upper one."""
    prec = REGULATOR_PREC
    root = mpf_sqrt(from_int(d), prec, rnd)
    first, second = (
        mpf_log(mpf_shift(mpf_add(root, from_int(u), prec, rnd), -e), prec, rnd)
        for u, e in ((n, 2), (2**k + 1, 1))
    )
    return mpf_add(mpf_mul_int(first, k, prec, rnd), second, prec, rnd)


def _shanks(k_range):
    """Shanks' d = n^2 - 8, n = 2^k + 3, whose unit has a closed form: R
    equals it as far as enclosures can tell when R's enclosure meets the
    closed form's. Each row carries the closed form's lower end."""
    for k, n, d in _trial_rows(k_range, lambda k: 2**k + 3, -8):
        low = _shanks_closed_form(k, n, d, round_floor)
        high = _shanks_closed_form(k, n, d, round_ceiling)
        value, err = regulator_enclosure(d)
        bottom = mpf_sub(value, err, REGULATOR_PREC, round_floor)
        top = mpf_add(value, err, REGULATOR_PREC, round_ceiling)
        meets = mpf_le(bottom, high) and mpf_le(low, top)
        yield k, n, d, to_float(low, rnd=round_floor), meets


def _yamamoto(p: int, n_range, sign: int):
    """d = n^2 + 4p sign: R >= Yamamoto's full bound L^2/(4 log p) - (3L +
    2 log p + 5 log 2), L = log d."""
    if not is_prime(p):
        raise ValueError(f"scan_yamamoto: p = {p} is not prime")
    c = 4 * p * sign
    # sieved over |n|; d grows with |n|, so every sieved value is >= 5
    ns = [n for n in n_range if n * n + c >= 5]
    mags = [abs(n) for n in ns]
    keep = set(_squarefree_ks(0, 1, c, min(mags, default=1), max(mags, default=0)))
    log_p = log(p)
    for n in [n for n in ns if abs(n) in keep]:
        d = n * n + c
        big_l = log(d)
        head = big_l * big_l / (4 * log_p)
        tail = 3 * big_l + 2 * log_p + 5 * log(2)
        full = head - tail
        # full is the bound in floats: a math.log is within a relative
        # classno._LIBM = 2**-46, an operation within 2**-53, and rounding
        # d >= 5 to a float moves log d by 2**-53 < 2**-53 log d. So head is
        # within a relative 3 * 2**-46 + 4 * 2**-53, tail 2**-46 + 4 * 2**-53,
        # and full, after 2**-53 more, within 2**-44 (head + tail) of the
        # bound; twice that also covers the rounding of full + slack
        slack = 2.0**-43 * (head + tail)
        # this float decision stays: per row it costs about 4.4 us, against
        # 24 us rounded outward in libmp and 73 us in mpi_* intervals (2-vCPU
        # host), and either would add 15 % or more to a 20-n item (about
        # 1.1 ms for 8.4 rows on average)
        # the bottom of R's enclosure rounded down to 53 bits, then to a
        # float: the float floor of the exact difference
        bottom = mpf_sub(*regulator_enclosure(d), 53, round_floor)
        low = to_float(bottom, strict=True, rnd=round_floor)
        yield n, n, d, full, low >= full + slack


def _cubic(p: int, q: int, k_range):
    """d = n^2 - 4p, n = p^k q + p + 1: every p^j, j <= k, is the norm of a
    reduced principal ideal, which is what makes the unit huge."""
    if not (is_prime(p) and is_prime(q) and p < q):
        raise ValueError("scan_cubic: need primes p < q")
    for k, n, d in _trial_rows(k_range, lambda k: p**k * q + p + 1, -4 * p):
        norms = (principal_ideal_of_norm(d, p**j) for j in range(1, k + 1))
        yield k, n, d, None, all(ideal is not None for ideal in norms)


@dataclass(frozen=True)
class Family:
    """A named family: `scan(*values of params, k_range)` yields (k, n, d,
    bound, bound_ok) for each squarefree d, and the default k-range of `qrl
    verify`, None when verify does not cover it. `qrl verify NAME --sign S`
    checks the kind NAME, or NAME_S when there is no NAME."""

    scan: Callable[..., Iterable[tuple[int, int, int, float | None, bool]]]
    params: tuple[str, ...] = ()
    verify_range: tuple[int, int] | None = None


FAMILIES = {
    "chowla": Family(_chowla, verify_range=(1, 1000)),
    "shanks": Family(_shanks, verify_range=(2, 14)),
    "yamamoto_plus": Family(partial(_yamamoto, sign=1), ("p",), (1, 1000)),
    "yamamoto_minus": Family(partial(_yamamoto, sign=-1), ("p",), (1, 1000)),
    "cubic": Family(_cubic, ("p", "q")),
}


def family_scan(kind: str, params: dict, scan_range) -> Iterator[ScanRecord]:
    """One record per row of the family's scan, with the regulator of d: the
    kind and the parameter names are checked at once, the records made lazily."""
    family = FAMILIES.get(kind)
    if family is None:
        raise ValueError(f"family_scan: unknown kind {kind!r}")
    if sorted(params) != sorted(family.params):
        raise ValueError(
            f"family {kind} takes parameters {list(family.params)}, got {list(params)}"
        )
    rows = family.scan(*(params[name] for name in family.params), scan_range)
    return (
        ScanRecord(k, n, (d,), (True,), regulator=fundamental_unit(d).regulator,
                   bound=bound, bound_ok=ok)
        for k, n, d, bound, ok in rows
    )
