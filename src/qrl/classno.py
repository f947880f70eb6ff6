"""Class numbers of real quadratic orders, and L-values.

h comes from the analytic class-number formula (Cohen, GTM 138, Prop.
5.6.9): for a fundamental discriminant d,

    2 h R = sum_{n >= 1} chi_d(n) (sqrt(d)/n erfc(n sqrt(pi/d)) + E1(pi n^2/d)).

The sum is taken in floats up to a point N chosen from a proven error
budget, and divided by the regulator enclosure of `cfrac`; h is the only
integer in the resulting interval, else d is refused with a ValueError
(see _field_class_number). chi_d comes from a cached table of the
smallest prime factors of the n <= N, so each d costs one Euler criterion
at the primes, kept for the last d so that its Euler product reads it
too, and one gather per block [2^j, 2^(j+1)). For pi n^2/d up to 4 the sum
of both terms comes from one power series, one Horner row whose exact
coefficients are rounded once, each argument at its least degree that the
truncation bound allows; above it both come from their continued
fractions, in one backward pass per block, as deep as the block's least
pi n^2/d needs. numpy sums the terms in rows of SERIES_ROW and math.fsum
adds the row sums. Only values are computed: one closed form in d, N and
the number of power-series terms bounds the truncation and rounding of
them all, the rows' recursive-summation bound included.
An order of conductor f > 1 takes h from its field and the unit index.
`class_number_forms` counts the cycles of the reduced primitive
(b + sqrt(d))/(2a), a > 0, under the continued-fraction step: one numpy
pass maps every form to its successor's row, and pointer doubling counts
the cycles of that permutation. It gives h below FORMS_BELOW, where it is
the faster, and is the series' independent check. Like cfrac's expansion
and regulator, it keeps its last d (EXPANSION_CACHE_SIZE), so h and then L
of one d count the cycles once. The tests walk each cycle form by form as
the count's oracle.
h_narrow is h if the fundamental unit has norm -1, else 2h. L(1, chi_d) =
2 h R / sqrt(d) comes from the certified h and the regulator enclosure for
a fundamental d, and approximately from a truncated Euler product.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import ceil, exp, factorial, floor, fsum, isqrt, log, pi, sqrt

import numpy as np
from mpmath.libmp import (
    from_float,
    from_int,
    mpf_div,
    mpf_log,
    mpf_mul,
    mpf_mul_int,
    mpf_sqrt,
    round_ceiling,
    round_floor,
    round_nearest,
    to_float,
    to_rational,
)

from .cfrac import (
    EXPANSION_CACHE_SIZE,
    REGULATOR_PREC,
    fundamental_unit,
    regulator_enclosure,
)
from .intarith import (
    factorize,
    fundamental_decomposition,
    is_discriminant,
    kronecker,
    pow_mod_array,
    prime_array,
    residues_mod,
    smallest_prime_factors,
)

# share of the regulator R that the proven tail bound of the class-number
# series may take: the h interval is then at most about TAIL_SHARE wide
TAIL_SHARE = 1 / 2
# the class-number series takes A_n and B_n from power series for x_n up to
# SERIES_SWITCH and from continued fractions above it. The power series
# stop after x^K, K = SERIES_TERMS > SERIES_SWITCH, so the omitted terms
# fall from the first on; at each x_n they stop at the least degree whose
# first omitted terms there are at most their value at SERIES_SWITCH and K.
# The fractions of a block's x_n are cut after m + 1 partial quotients, m
# the least depth whose convergent gap at the floor of the block's least x_n
# is at most CF_GAP (_cf_depth)
SERIES_SWITCH = 4.0
SERIES_TERMS = 30
CF_GAP = 2**-36
# terms of the class-number series evaluated per numpy block, and summed
# per row of SERIES_ROW terms by numpy before math.fsum adds the row sums
SERIES_BLOCK = 1 << 16
SERIES_ROW = 32
# most terms N of the class-number series, and the bound of the cached
# tables of chi_d: they keep 4.5 bytes per term at N = 10**7 (int32 smallest
# prime factors, int64 primes), where the series peaks near 0.12-0.14 GB
# RSS and takes 1.2-1.3 s on 2 vCPUs (0.8-0.95 s once the tables are built)
SERIES_TERM_LIMIT = 10**7
# largest prime bound B of l_value_truncated: its sieve and character peak
# at 7.5 bytes per B under tracemalloc at B = 10**6
MAX_EULER_BOUND = 10**6
# class_number takes h from the form cycles below FORMS_BELOW and from the
# series from there up: on 2 vCPUs, best of five passes, 150 consecutive
# fundamental d took 0.09 ms each by the forms against 0.25 by the series
# from 2*10**4, 0.17 against 0.27 from 8.5*10**4, 0.33 against 0.30 from
# 10**5, 0.50 against 0.31 from 1.5*10**5 and 0.64 against 0.31 from 2*10**5
FORMS_BELOW = 10**5
# reduced_forms refuses d >= FORM_GRID_LIMIT: below it b*b, m_b = (d - b*b)/4
# and every position in the (b, a) grid stay below 2**53, so they are exact
# in int64 and m_b and an integer quotient m_b/a are exact in float64
FORM_GRID_LIMIT = 2**53
# (b, a) pairs of the reduced_forms grid tested per numpy block
FORM_BLOCK = 1 << 16
# unit roundoff of a float, and the relative error allowed for one libm
# exp or log: 2**7 ulp, against the 8 ulp assumed (glibc documents at most
# 1 for both)
_U = 2.0**-53
_LIBM = 2.0**-46
_EULER_GAMMA = 0.5772156649015329


def _series_coefficient(k: int) -> Fraction:
    """The x^k coefficient of Q (see _series_sum), exactly: c_k - 2 a_k, c_k
    that of E1(x) + gamma + log x (DLMF 6.6.2) and a_k that of sqrt(pi)
    erf(sqrt x) / (2 sqrt x) (DLMF 7.6.1), both of sign (-1)^(k+1)."""
    c = Fraction((-1) ** (k + 1), k * factorial(k)) if k else 0
    a = Fraction((-1) ** k, factorial(k) * (2 * k + 1))
    return c - 2 * a


def _omitted_terms(x: float, k: int) -> float:
    """The magnitudes of the first terms after x^k of the power series of
    E1(x) and of sqrt(pi) erf(sqrt x) / sqrt x, summed."""
    return x ** (k + 1) / factorial(k + 1) * (1 / (k + 1) + 2 / (2 * k + 3))


def _cf_numerators(j: int) -> tuple[float, float]:
    """The j-th partial numerators, j >= 1, of e^x A and e^x B (_series_sum)."""
    return (j - 1) / 2 if j > 1 else 1.0, max(1, j // 2)


@lru_cache(maxsize=None)
def _cf_depth(x: float) -> int:
    """The least m at which the m-th and (m + 1)-th convergents of both
    fractions of _fractions differ by at most CF_GAP at x: by a_1 ... a_j /
    (B_(j-1) B_j), j = m + 1, B_j = b_j B_(j-1) + a_j B_(j-2) from B_(-1) =
    0 and B_0 = 1, b_j = x, 1, x, 1, ... (see _series_sum). Every B_j is a
    sum of positive terms, so 1 + 2**-40 covers the float recurrence's
    rounding. Cached: _fractions asks at integers only."""
    prev, cur, top = [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]
    for j in count(1):
        b = x if j % 2 else 1.0
        for i, a in enumerate(_cf_numerators(j)):
            prev[i], cur[i] = cur[i], b * cur[i] + a * prev[i]
            top[i] *= a
        gap = max(t / (p * c) for t, p, c in zip(top, prev, cur))
        if gap * (1 + 2**-40) <= CF_GAP:
            return j - 1


# the x^k coefficients of Q, k <= SERIES_TERMS, exactly; the truncation
# bound of the power series, and mu = sum |c_k - 2 a_k| x^k = sum (|c_k| +
# 2 |a_k|) x^k at x = SERIES_SWITCH (see _series_sum)
_SERIES_EXACT = [_series_coefficient(k) for k in range(SERIES_TERMS + 1)]
_SERIES_TRUNCATION = _omitted_terms(SERIES_SWITCH, SERIES_TERMS)
_SERIES_MAGNITUDE = float(
    sum(abs(q) * Fraction(SERIES_SWITCH) ** k for k, q in enumerate(_SERIES_EXACT))
)


def _series_edge(k: int) -> float:
    """The largest x, less about 2**-40 relative, whose first terms omitted
    after x^k are at most T = _SERIES_TRUNCATION: the root of _omitted_terms
    = T, lowered until that float, which rounds, is at most T (1 - 2**-40)."""
    edge = _SERIES_TRUNCATION * factorial(k + 1) / (1 / (k + 1) + 2 / (2 * k + 3))
    edge **= 1 / (k + 1)
    while _omitted_terms(edge, k) > _SERIES_TRUNCATION * (1 - 2**-40):
        edge *= 1 - 2**-40
    return edge


# the ascending edges of the degrees k < K: an x up to the edge of k - 1
# skips the x^k step of _power_series; and the x^k coefficients of Q, each
# rounded once
_SERIES_EDGES = [_series_edge(k) for k in range(SERIES_TERMS)]
_SERIES_COEFFS = [float(q) for q in _SERIES_EXACT]
# the backward steps j = M + 1, ..., 1 of _fractions, M the depth at
# SERIES_SWITCH, the deepest: j and the j-th partial numerators as a column
_CF_STEPS = [
    (j, np.array(_cf_numerators(j))[:, None])
    for j in range(_cf_depth(SERIES_SWITCH) + 1, 0, -1)
]


def reduced_forms(d: int) -> np.ndarray:
    """All reduced primitive indefinite forms (a, b, c), a > 0, of discriminant
    d, as the rows of an int64 array of shape (F, 3), by b and then a
    ascending.

    (a, b, c) is reduced when 0 < b < sqrt(d) and sqrt(d) - b < 2a < sqrt(d) + b,
    i.e. s + 1 - b <= 2a <= s + b with s = isqrt(d). Row k of the grid is
    b = 2k + 1 + e (e = 1 - d % 2) with its b values a = rows - k, ...,
    rows - k + b - 1 (rows = (s + 1 - e) // 2); laid end to end, row k starts
    at position k (k + e). A pair is a form when a divides m_b = (d - b*b)/4
    and gcd(a, b, m_b/a) = 1. The grid is tested FORM_BLOCK pairs at a time,
    so memory stays bounded; its work grows like d/4 pairs."""
    if not is_discriminant(d):
        raise ValueError(f"{d} is not a real quadratic discriminant")
    if d >= FORM_GRID_LIMIT:
        raise ValueError(
            f"reduced_forms: d = {d} is not below FORM_GRID_LIMIT = {FORM_GRID_LIMIT}"
        )
    s, e = isqrt(d), 1 - d % 2
    rows = (s + 1 - e) // 2
    pairs = rows * (rows + e)
    blocks = []
    for start in range(0, pairs, FORM_BLOCK):
        stop = min(start + FORM_BLOCK, pairs)
        # the rows k0..k1 that meet positions start..stop - 1
        k0 = (isqrt(e + 4 * start) - e) // 2
        k1 = (isqrt(e + 4 * (stop - 1)) - e) // 2
        k = np.arange(k0, k1 + 2, dtype=np.int64)
        edges = k * (k + e)
        # np.clip and np.diff cost more per call than the ufuncs they wrap
        clipped = np.minimum(np.maximum(edges, start), stop)
        counts = clipped[1:] - clipped[:-1]
        k = k[:-1]
        b = 2 * k + 1 + e
        m = (d - b * b) >> 2
        # position p of row k holds a = p - (edges_k - rows + k)
        a = np.arange(start, stop, dtype=np.int64) - np.repeat(
            edges[:-1] - rows + k, counts
        )
        # m and a are below 2**53, so when a | m the quotient is an integer
        # that float64 holds exactly: the filter loses no divisor; the int64
        # remainder below confirms each hit
        q = np.repeat(m.astype(np.float64), counts) / a
        hit = (q == np.floor(q)).nonzero()[0]
        row = edges.searchsorted(hit + start, "right") - 1
        a, m, b = a[hit], m[row], b[row]
        c, r = np.divmod(m, a)
        keep = (r == 0) & (np.gcd(np.gcd(a, b), c) == 1)
        blocks.append(np.array([a, b, -c]).T[keep])
    # a discriminant d >= 5 has at least one pair
    return np.concatenate(blocks)


@lru_cache(maxsize=EXPANSION_CACHE_SIZE)
def class_number_forms(d: int) -> tuple[int, int]:
    """(h, h_narrow) for the order of discriminant d: the number of cycles of
    the reduced forms under the continued-fraction step, and h or 2h as the
    cycle through the a = 1 form, the principal one, is odd or even.

    The step takes (b + sqrt(d))/(2a) to (b' + sqrt(d))/(2a') with alpha =
    (b + s) // 2a, b' = 2 a alpha - b = s - (b + s) % 2a and a' = (d -
    b'^2)/(4a), s = isqrt(d), for every form at once. Each successor's row is found by its key
    b (s + 1) + a, which is sorted along the rows as a <= s. The cycles are
    labelled by pointer doubling: after j rounds each form holds the least
    row among its next 2**j, so ceil(log2 F) rounds give every form the
    least row of its cycle, and h counts the rows that label themselves."""
    forms = reduced_forms(d)
    a, b = forms[:, 0], forms[:, 1]
    s, n = isqrt(d), len(forms)
    b_next = s - (b + s) % (2 * a)
    a_next = (d - b_next * b_next) // (4 * a)
    key = b * (s + 1) + a
    nxt = key.searchsorted(b_next * (s + 1) + a_next)
    # every successor is a reduced form, and the step permutes them
    assert nxt.max() < n
    assert ((a[nxt] == a_next) & (b[nxt] == b_next)).all()
    assert (np.bincount(nxt, minlength=n) == 1).all()
    rows = np.arange(n)
    label = rows
    for _ in range((n - 1).bit_length()):
        label = np.minimum(label, label[nxt])
        nxt = nxt[nxt]
    h = int(np.count_nonzero(label == rows))
    # the a = 1 form is the first of the last b, s or s - 1
    principal = label[key.searchsorted((s - (d + s) % 2) * (s + 1) + 1)]
    odd = np.count_nonzero(label == principal) % 2
    return h, h if odd else 2 * h


def _kronecker_at_primes(d: int, primes: np.ndarray) -> np.ndarray:
    """kronecker(d, p) for an ascending int64 array of primes p < 2**31
    that starts at 2 or is empty, as int8: Euler's criterion on numpy
    arrays."""
    odd = primes[1:]
    # d^((p-1)/2) mod p is 0, 1 or p - 1
    acc = pow_mod_array(residues_mod(d, odd), (odd - 1) >> 1, odd)
    chi = np.empty(len(primes), dtype=np.int8)
    chi[:1] = kronecker(d, 2)  # a slice: primes may be empty
    chi[1:] = np.where(acc == odd - 1, -1, acc)
    return chi


# the last d's chi at the first primes, as (d, a read-only int8 array): the
# series and then the Euler product of one d share one Euler criterion
_chi_cache: tuple[int, np.ndarray] | None = None


def _chi_at_primes(d: int, primes: np.ndarray) -> np.ndarray:
    """_kronecker_at_primes(d, primes) for primes the first of the ascending
    primes, sliced from the cached values of the last d when they reach as
    far, else computed and cached in their place."""
    global _chi_cache
    cached = _chi_cache
    if cached is None or cached[0] != d or len(cached[1]) < len(primes):
        chi = _kronecker_at_primes(d, primes)
        chi.flags.writeable = False
        _chi_cache = cached = d, chi
    return cached[1][: len(primes)]


# the cached (spf, primes) of _character_table: spf =
# smallest_prime_factors(bound) and the primes <= bound read from it, int64
_spf_table: tuple[np.ndarray, np.ndarray] | None = None


def _prime_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The cached (spf, primes) if their bound is at least n, else new ones
    to at least twice their bound, capped at SERIES_TERM_LIMIT >= n."""
    global _spf_table
    if n > SERIES_TERM_LIMIT:
        raise ValueError(f"{n} terms exceed SERIES_TERM_LIMIT = {SERIES_TERM_LIMIT}")
    table = _spf_table
    if table is None or len(table[0]) <= n:
        bound = min(max(n, 2 * len(table[0]) - 2 if table else 0), SERIES_TERM_LIMIT)
        _spf_table = table = None  # freed before the larger table is built
        spf = smallest_prime_factors(bound)
        primes = np.flatnonzero(spf == np.arange(bound + 1, dtype=np.int32))[2:]
        _spf_table = table = spf, primes
    return table


def _character_table(d: int, n: int) -> np.ndarray:
    """chi_d(k) = kronecker(d, k) for 0 <= k <= n, as an int8 array: chi_d
    at the primes by Euler's criterion, then chi_d(k) = chi_d(p) chi_d(k/p),
    p = spf(k), one block [lo, 2 lo) at a time; k/p <= k/2 < lo is filled by
    then, and a prime's cofactor is 1."""
    spf, primes = _prime_tables(n)
    chi = np.zeros(n + 1, dtype=np.int8)
    chi[1:2] = 1  # a slice: n may be 0
    primes = primes[: np.searchsorted(primes, n, "right")]
    chi[primes] = _chi_at_primes(d, primes)
    lo = 4
    while lo <= n:
        hi = min(2 * lo, n + 1)
        p = spf[lo:hi]
        chi[lo:hi] = chi[p] * chi[np.arange(lo, hi, dtype=np.int32) // p]
        lo = hi
    return chi


def _power_series(x: np.ndarray, root_over_n: np.ndarray) -> np.ndarray:
    """A_n + B_n for 0 < x_n <= SERIES_SWITCH by the power series, as r +
    ((Q(x) - log x) - gamma) (see _series_sum)."""
    # Q by Horner's rule; each x starts from 0 at its least degree, so its
    # first step leaves that degree's coefficient. Step k takes the x above
    # the edge of k - 1, and the steps that take none are skipped
    acc = np.zeros(len(x))
    starts = [0] + np.searchsorted(x, _SERIES_EDGES, "right").tolist()
    for k in range(bisect_left(starts, len(x)) - 1, -1, -1):
        view = acc[starts[k] :]
        view *= x[starts[k] :]
        view += _SERIES_COEFFS[k]
    acc -= np.log(x)
    acc -= _EULER_GAMMA
    acc += root_over_n
    return acc


def _fractions(x: np.ndarray) -> np.ndarray:
    """A_n and B_n, as rows, for ascending x_n > SERIES_SWITCH by the
    continued fractions (see _series_sum)."""
    # rows: the fractions of A and of B cut after m + 1 partial quotients
    # (tails 0), m the depth at floor(x_0), which serves every x >= x_0
    t = np.zeros((2, len(x)))
    if len(x):
        for j, numerators in _CF_STEPS[-1 - _cf_depth(floor(x[0])) :]:
            t += x if j % 2 else 1.0
            np.divide(numerators, t, out=t)
    return np.exp(-x) * t


def _row_sum(terms: np.ndarray) -> float:
    """math.fsum of numpy's sums of the rows of SERIES_ROW = m terms, the
    last padded with zeros: within gamma_(m-1) sum |t| + u |S~| of the
    exact sum (see _series_sum)."""
    rows = np.zeros(-(-len(terms) // SERIES_ROW) * SERIES_ROW)
    rows[: len(terms)] = terms
    return fsum(rows.reshape(-1, SERIES_ROW).sum(axis=1).tolist())


def _series_sum(d: int, n_max: int) -> tuple[float, float]:
    """S = sum_{n >= 1} chi_d(n) (A_n + B_n), A_n = sqrt(d)/n erfc(sqrt(x_n)),
    B_n = E1(x_n), x_n = pi n^2/d, as a float S~ from the n <= N = n_max,
    and a bound E on |S~ - S|; chi_d = kronecker(d, .), d > 0.

    u = 2**-53 is the unit roundoff. numpy's exp and log are assumed
    accurate to 8 ulp; the budget allows L = 2**-46 (128 ulp) for each.
    X = x_N is the largest argument. As sqrt(d)/n = sqrt(pi/x_n), A_n =
    sqrt(pi) erfc(sqrt x)/sqrt x at x = x_n.

    Tail. erfc(t) <= e^-t^2 / (t sqrt(pi)) and E1(x) <= e^-x / x for t,
    x > 0, so A_n + B_n <= 2 e^-x_n / x_n = 2d e^-x_n / (pi n^2). Past N
    this is at most 2d/(pi N^2) e^-x_n, and sum_{n > N} e^-x_n <=
    int_N^oo e^(-pi y^2/d) dy <= d e^-X / (2 pi N); hence
    |sum_{n > N}| <= sqrt(d/pi) e^-X X^(-3/2). The bound added is twice
    that, which covers its own float evaluation.

    Terms. n and chi_n are exact, and the computed x~_n (pi, d, a
    division, two products) carries a relative error of at most 5u. A
    block's terms t are summed in rows of m = SERIES_ROW by numpy and the
    row sums by math.fsum, which is correctly rounded; each term's error
    counts its own rounding and the fsum's, u |t~|, and the rows are
    charged below.
    - x~ <= SERIES_SWITCH, _power_series: B = -gamma - log x + sum_{k>=1}
      c_k x^k (DLMF 6.6.2) and A = r - 2 P(x), r = sqrt(d)/n, P = sqrt(pi)
      erf(sqrt x) / (2 sqrt x) = sum_{k>=0} a_k x^k (DLMF 7.6.1), so A + B
      = r + ((Q(x) - log x) - gamma) with Q = sum (c_k - 2 a_k) x^k, added
      in that order. Q is cut after x^k, k <= K = SERIES_TERMS the least
      degree whose first omitted terms at x are at most T =
      _SERIES_TRUNCATION, the ones at x = SERIES_SWITCH and k = K. The
      terms of both series alternate and, since k + 1 > x, fall from the
      first omitted one on, so the cut costs at most T (see _series_edge).
      c_k and -2 a_k share the sign (-1)^(k+1), so mu = sum |c_k - 2 a_k|
      x^k = sum (|c_k| + 2 |a_k|) x^k. Horner's rule errs by 2Ku mu and the
      coefficients, each rounded once from its exact value, by u mu/2; log
      errs by L |log x~|, r by 2u r, gamma by u gamma/2, and moving x by 5u
      x moves E1 by 5u e^-x and 2 P by 5u (|x P'| <= 1/2). Q less log x~
      costs u (mu + |log x|), less gamma u (mu + |log x| + gamma), and the
      addition of r and the fsum u |A~ + B~| <= u (r + mu + |log x| +
      gamma) each. In all, within (2K + 5)u mu + (L + 4u) |log x~| + 5u r +
      (4 gamma + 10)u + T. mu rises with x, so mu <= _SERIES_MAGNITUDE,
      its value at SERIES_SWITCH; x~ >= (1 - 5u) pi/d bounds |log x~| by
      log max(d/pi, 4) to second order; and the r of the n <= N sum to at
      most sqrt(d) (1 + log N). So the n_near terms err by at most n_near
      ((2K + 5)u mu + (L + 4u) log max(d/pi, 4) + (4 gamma + 10)u + T) +
      5u sqrt(d) (1 + log N).
    - x~ > SERIES_SWITCH, _fractions: A = e^-x G and B = e^-x F with F = e^x
      E1(x) = 1/(x + 1/(1 + 1/(x + 2/(1 + 2/(x + ...))))) (DLMF 6.9.1) and G
      = 1/(x + (1/2)/(1 + 1/(x + (3/2)/(1 + 2/(x + ...))))) (DLMF 7.9.2 in x
      = z^2). Their partial numerators a_j and denominators b_j are
      positive, so each lies between its consecutive convergents f_m =
      A_m/B_m, which differ by a_1 ... a_(m+1) / (B_m B_(m+1)); the B_j =
      b_j B_(j-1) + a_j B_(j-2) are polynomials in x with nonnegative
      coefficients, so that gap falls as x rises. At the depth m of x's
      block, _cf_depth at the floor of the block's least x, it is at most
      CF_GAP, so the (m + 1)-th convergent, the one evaluated, errs by at
      most CF_GAP; its backward evaluation, of positive terms, by 2(m + 1)u
      <= 2(M + 1)u relative, M = _cf_depth(SERIES_SWITCH). F lies in (1/(x +
      1), 1/x) and G in (1/(x + 1/2), 1/x), so |F'| <= F/x and |G'| <= G/x:
      the argument's 5u x moves them by 5u relative, and exp(-x~) errs by L
      + 5Xu. The products by e^-x~, the sum and the fsum cost u each.
      As F + G < 2/x < 1/2, a term errs by at most e^-x (2 CF_GAP + (L + (5X
      + 2M + 10)u)/2), and the e^-x_n sum to at most e^-s + int_{n_1}^oo
      e^(-pi y^2/d) dy <= e^-s (1 + sqrt(d)/(2 sqrt(pi s))) <= e^-s (1 +
      sqrt(d)/4), s = SERIES_SWITCH and n_1 the least n with x_n > s.

    Rows. numpy sums each row of m terms in some order of pairwise
    additions, which errs by at most gamma_(m-1) times the row's sum of
    |t~|, gamma_k = ku/(1 - ku) (Higham 2002, sec. 4.2), whatever the
    order; the zeros that pad the last row are exact. The near terms have
    |A + B| <= r + gamma + |log x| + mu and the far ones e^-x (F + G) <
    e^-x/2, so sum |t| <= M = sqrt(d) (1 + log N) + n_near (gamma + log
    max(d/pi, 4) + mu) + e^-s (1 + sqrt(d)/4)/2, and the rows err by at
    most gamma_(m-1) M.

    Sum. math.fsum of the block sums is correctly rounded: u |S~|. E is twice
    the rounding bounds above, gamma_(m-1) M and u |S~|, which covers the
    second-order terms and E's own float evaluation, plus n_near T and the
    tail."""
    chi = _character_table(d, n_max)
    root, scale = sqrt(d), pi / d
    sums: list[float] = []
    n_near = 0
    for lo in range(1, n_max + 1, SERIES_BLOCK):
        n = np.flatnonzero(chi[lo : lo + SERIES_BLOCK]) + lo
        nf = n.astype(np.float64)
        x = nf * (nf * scale)
        cut = int(np.searchsorted(x, SERIES_SWITCH, "right"))
        far = _fractions(x[cut:])
        terms = np.concatenate([_power_series(x[:cut], root / nf[:cut]), far[0] + far[1]])
        terms *= chi[n]
        sums.append(_row_sum(terms))
        n_near += cut
    total = fsum(sums)
    x_max = pi * n_max * n_max / d
    log_x = log(max(d / pi, 4.0))  # bounds |log x~|
    per_near = ((2 * SERIES_TERMS + 5) * _SERIES_MAGNITUDE + 4 * _EULER_GAMMA + 10) * _U
    per_near += (_LIBM + 4 * _U) * log_x
    depth = _cf_depth(SERIES_SWITCH)
    per_far = 2 * CF_GAP + (_LIBM + (5 * x_max + 2 * depth + 10) * _U) / 2
    rounding = n_near * per_near + 5 * _U * root * (1 + log(n_max))
    rounding += exp(-SERIES_SWITCH) * (1 + root / 4) * per_far + _U * abs(total)
    # the rows: gamma_(m-1) M
    magnitude = root * (1 + log(n_max)) + exp(-SERIES_SWITCH) * (1 + root / 4) / 2
    magnitude += n_near * (_EULER_GAMMA + log_x + _SERIES_MAGNITUDE)
    rounding += (SERIES_ROW - 1) * _U / (1 - (SERIES_ROW - 1) * _U) * magnitude
    tail = 2 * sqrt(d / pi) * exp(-x_max) * x_max**-1.5
    return total, 2 * rounding + n_near * _SERIES_TRUNCATION + tail


def _pin(d: int, what: str, lo: Fraction, hi: Fraction) -> int:
    """The only integer in [lo, hi], else a ValueError naming d and [lo, hi]."""
    k = ceil(lo)
    if k <= hi < k + 1:
        return k
    span = f"[{float(lo)!r}, {float(hi)!r}]"
    raise ValueError(f"class_number: {span} pins no {what} of d = {d}")


def _regulator_interval(d: int) -> tuple[Fraction, Fraction]:
    """Exact rational bounds lo <= R <= hi from regulator_enclosure."""
    reg, err = (Fraction(*to_rational(x)) for x in regulator_enclosure(d))
    return reg - err, reg + err


def _field_class_number(d: int, d_k: int, r_lo: Fraction, r_hi: Fraction) -> int:
    """h of the field, of discriminant d_k, of the order of discriminant d,
    given r_lo <= R <= r_hi, by the class-number formula, else a ValueError
    naming d.

    The interval pins h: |S~ - 2hR| <= E for _series_sum's S~ and E, so h
    lies in [(S~ - E)/(2 r_hi), (S~ + E)/(2 r_lo)], about E/R + h (r_hi -
    r_lo)/R wide. x_cut holds E's tail below r_lo/2, within a factor 1 +
    2**-40 for its own rounding, and r_hi - r_lo, twice (16 + 8R) 2**-103 +
    T 2**-190, is below 2**-95 R. So the width is below 1, and h the one
    integer inside, while E's rounding part stays below about R/2: at most
    7.3e-7 R at N near SERIES_TERM_LIMIT, where it is loosest."""
    # r_lo > 0, as R >= log((1 + sqrt 5)/2) > 0.48 lies far above the
    # error. X >= 1 with 2 sqrt(d_k/pi) e^-X <= TAIL_SHARE R, so that the
    # tail bound 2 sqrt(d_k/pi) e^-X X^(-3/2) of _series_sum is below it too
    x_cut = max(1.0, log(2 * sqrt(d_k / pi) / (TAIL_SHARE * float(r_lo))))
    n_max = isqrt(ceil(x_cut * d_k / pi)) + 1
    if n_max > SERIES_TERM_LIMIT:
        raise ValueError(
            f"class_number: the series for d = {d_k} needs N = {n_max} terms,"
            f" above SERIES_TERM_LIMIT = {SERIES_TERM_LIMIT}"
        )
    total, err = _series_sum(d_k, n_max)
    lo, hi = Fraction(total) - Fraction(err), Fraction(total) + Fraction(err)
    return _pin(d, "field's class number", lo / (2 * r_hi), hi / (2 * r_lo))


def _analytic_class_number(d: int) -> tuple[int, int]:
    """(h, h_narrow) for the order of discriminant d by the analytic
    class-number formula with certified rounding (see _series_sum), or a
    ValueError naming d when an interval pins no single integer.

    For d = d_K f^2 with f > 1, h = h_K f prod_{p | f} (1 - chi_K(p)/p) / i
    with i = [O_K^x : O^x] = R / R_K (Cox, Primes of the Form x^2 + ny^2,
    Thm 7.24, and its real analogue), i pinned from the two regulator
    enclosures; i and the integrality of h fail only on a wrong input."""
    disc = fundamental_decomposition(d)
    d_k, f = disc.fundamental, disc.conductor
    k_lo, k_hi = _regulator_interval(d_k)
    h = _field_class_number(d, d_k, k_lo, k_hi)
    if f > 1:
        r_lo, r_hi = _regulator_interval(d)
        ratio = Fraction(h * f, _pin(d, "unit index", r_lo / k_hi, r_hi / k_lo))
        for p, _ in factorize(f):
            ratio *= Fraction(p - kronecker(d_k, p), p)
        h = _pin(d, "class number", ratio, ratio)
    return h, h if fundamental_unit(d).norm_sign == -1 else 2 * h


def class_number(d: int) -> tuple[int, int]:
    """(h, h_narrow) for the order of discriminant d: from the form cycles
    below FORMS_BELOW, and from the analytic formula from there up, which
    pins h or refuses d with a ValueError: never an uncertified h."""
    if d < FORMS_BELOW:
        return class_number_forms(d)
    return _analytic_class_number(d)


def l_value_exact(d: int) -> float:
    """L(1, chi_d) = 2 h R / sqrt(d) for a fundamental d (Cohen, GTM 138,
    Prop. 5.6.9), from the certified h and the regulator enclosure, at
    REGULATOR_PREC, each operation rounded to nearest, as is the float."""
    if fundamental_decomposition(d).conductor != 1:
        raise ValueError(f"l_value_exact: {d} is not fundamental")
    h = class_number(d)[0]
    prec, rnd = REGULATOR_PREC, round_nearest
    two_h_reg = mpf_mul_int(regulator_enclosure(d)[0], 2 * h, prec, rnd)
    value = mpf_div(two_h_reg, mpf_sqrt(from_int(d), prec, rnd), prec, rnd)
    return to_float(value, rnd=rnd)


def l_value_truncated(d: int, B: int) -> float:
    """Euler product of L(1, chi_d) over primes p <= B (B = 1 gives 1.0), for
    a real quadratic discriminant d and 1 <= B <= MAX_EULER_BOUND."""
    if not is_discriminant(d):
        raise ValueError(f"{d} is not a real quadratic discriminant")
    if B < 1:
        raise ValueError("l_value_truncated: bound must be >= 1")
    if B > MAX_EULER_BOUND:
        raise ValueError(
            f"l_value_truncated: bound {B} exceeds MAX_EULER_BOUND = {MAX_EULER_BOUND}"
        )
    primes = prime_array(B)
    prod = 1.0
    for p, chi in zip(primes.tolist(), _chi_at_primes(d, primes).tolist()):
        if chi:
            prod *= p / (p - chi)
    return prod


def h_bound(d: int, constant: float) -> float:
    """constant sqrt(d) / (log(d)^2 log log d) for d >= 16 and constant >= 0,
    evaluated at REGULATOR_PREC with the numerator rounded down and the
    denominator up, each operation toward its side, and rounded down to a
    float, so that h <= h_bound(d, constant) certifies the inequality."""
    if d < 16 or not constant >= 0:
        raise ValueError("h_bound: need d >= 16, so log log d > 0, and constant >= 0")
    # the float constant enters exactly
    prec, down, up = REGULATOR_PREC, round_floor, round_ceiling
    log_d = mpf_log(from_int(d), prec, up)
    top = mpf_mul(from_float(constant), mpf_sqrt(from_int(d), prec, down), prec, down)
    below = mpf_mul(mpf_mul(log_d, log_d, prec, up), mpf_log(log_d, prec, up), prec, up)
    return to_float(mpf_div(top, below, prec, down), strict=True, rnd=down)
