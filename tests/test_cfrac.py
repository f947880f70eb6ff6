import random
from itertools import islice
from math import gcd, isqrt, log, sqrt

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from qrl import cfrac
from qrl.cfrac import (
    REGULATOR_DPS,
    UNIT_BITS,
    PeriodOverflow,
    cf_expand,
    exact_unit,
    fundamental_unit,
    principal_expansion,
    principal_ideal_of_norm,
    regulator_enclosure,
)
from qrl.criterion import CriterionInput, NormSplit, evaluate_criterion
from qrl.families import family_scan
from qrl.intarith import is_discriminant, is_squarefree
from qrl.quadorder import QuadIdeal, QuadIrrational, canonical_irrational, classify

from test_classno import fundamental_discriminants
from test_quadorder import is_reduced, random_ideal, sample_discriminants, to_ideal


def quotient_stream(exp):
    yield from exp.preperiod
    while True:
        yield from exp.period


def float_oracle_quotients(d, a, b, count, dps=400):
    # 100 digits is not enough for 50 terms when quotients are large (the
    # error grows like the squared product of quotients), so guard high
    with mp.workdps(dps):
        x = (b + mp.sqrt(d)) / (2 * a)
        out = []
        for _ in range(count):
            q = int(mp.floor(x))
            out.append(q)
            x = 1 / (x - q)
    return out


def test_cf_expand_examples():
    exp = cf_expand(canonical_irrational(5))
    assert exp.preperiod == () and exp.period == (1,)
    exp = cf_expand(canonical_irrational(8))
    assert exp.preperiod == (1,) and exp.period == (2,)
    exp = cf_expand(canonical_irrational(13))
    assert exp.preperiod == (2,) and exp.period == (3,)


def test_cf_matches_float_oracle():
    for d in range(5, 5001):
        if not is_discriminant(d):
            continue
        exp = cf_expand(canonical_irrational(d))
        got = list(islice(quotient_stream(exp), 50))
        assert got == float_oracle_quotients(d, 1, d % 2, 50), d


def test_cycle_states_reduced_and_distinct():
    for d in (5, 8, 13, 61, 136, 1000, 9949):
        if not is_discriminant(d):
            continue
        exp = cf_expand(canonical_irrational(d))
        assert len(exp.period) == len(exp.cycle) > 0
        assert len(set(exp.cycle)) == len(exp.cycle)
        for rho in exp.cycle:
            assert is_reduced(rho)
        assert all(q >= 1 for q in exp.period)


def test_purely_periodic_iff_reduced():
    rng = random.Random(31)
    done = 0
    while done < 1000:
        d = sample_discriminants(rng, 1, hi=10**5)[0]
        ideal = random_ideal(rng, d, allow_content=False)
        if not classify(ideal).regular:
            continue
        rho = QuadIrrational(d, ideal.a, ideal.b)
        exp = cf_expand(rho)
        assert (exp.preperiod == ()) == is_reduced(rho)
        done += 1


def seen_dict_expansion(d, a, b):
    """The expansion as cf_expand used to find it: walk until some (a, b)
    state repeats; the period starts at the first occurrence of that state."""
    s = isqrt(d)
    seen, states, quots = {}, [], []
    while (a, b) not in seen:
        seen[(a, b)] = len(states)
        states.append((a, b))
        alpha = (b + s) // (2 * a) if a > 0 else (b + s + 1) // (2 * a)
        quots.append(alpha)
        b = 2 * a * alpha - b
        a = (d - b * b) // (4 * a)
    j = seen[(a, b)]
    return tuple(quots[:j]), tuple(quots[j:]), states[j:]


def random_starts(rng, count, hi):
    """Content-1 irrationals (b + sqrt(d))/(2a), mostly not reduced."""
    out = []
    while len(out) < count:
        d = sample_discriminants(rng, 1, hi=hi)[0]
        ideal = random_ideal(rng, d, allow_content=False)
        if classify(ideal).regular:
            out.append(QuadIrrational(d, ideal.a, ideal.b))
    return out


def test_cf_expand_matches_seen_dict_oracle():
    with_preperiod = 0
    for rho in random_starts(random.Random(37), 1000, 10**5):
        exp = cf_expand(rho)
        preperiod, period, states = seen_dict_expansion(rho.d, rho.a, rho.b)
        assert exp.preperiod == preperiod and exp.period == period, rho
        assert [(r.a, r.b) for r in exp.cycle] == states, rho
        with_preperiod += bool(preperiod)
    assert with_preperiod > 900


def test_max_steps_boundary(monkeypatch):
    # P + T quotients in all: a step limit of P + T - 1 closes, and P + T - 2
    # (-1 when P + T = 1, as for d = 5) overflows, naming the limit
    starts = [canonical_irrational(d) for d in (5, 8, 13, 61, 9949)]
    starts += random_starts(random.Random(43), 50, 10**4)
    expansions = [cf_expand(rho) for rho in starts]
    assert any(exp.preperiod for exp in expansions)
    assert len(expansions[0].period) == 1
    for rho, exp in zip(starts, expansions):
        total = len(exp.preperiod) + len(exp.period)
        monkeypatch.setattr(cfrac, "PERIOD_STEP_LIMIT", total - 1)
        assert cf_expand(rho) == exp
        monkeypatch.setattr(cfrac, "PERIOD_STEP_LIMIT", total - 2)
        within = f"did not close within PERIOD_STEP_LIMIT = {total - 2} steps"
        with pytest.raises(PeriodOverflow, match=within):
            cf_expand(rho)


def test_cf_expand_default_budget_is_the_step_limit():
    # rho = [c_1; c_2, ..., c_121, theta] for theta = (1 + sqrt(5))/2 and c =
    # 3, 2, 2, 3, 2, 2, ...: the c_i are a preperiod of 121 quotients, and
    # theta = [1; 1, ...] closes at the 122nd. Built backwards from theta by
    # the inverse step rho = c + 1/rho'.
    d, a, b = 5, 1, 1
    quotients = [(3, 2, 2)[i % 3] for i in range(121)]
    for c in reversed(quotients):
        a = (d - b * b) // (4 * a)
        b = 2 * a * c - b
    exp = cf_expand(QuadIrrational(d, a, b))
    assert exp.preperiod == tuple(quotients)
    assert (exp.period, exp.a, exp.b) == ((1,), (1,), (1,))


def test_principal_expansion_matches_cf_expand_below_30000():
    # the half walk and its reflection against the full walk, on every
    # discriminant, fundamental or not; T = 1 for d = b^2 + 4
    lengths = set()
    for d in range(5, 30000):
        if is_discriminant(d):
            exp = principal_expansion(d)
            assert exp == cf_expand(canonical_irrational(d)), d
            lengths.add(len(exp.period))
    assert {1, 2, 3, 4} <= lengths


@settings(max_examples=40, deadline=None)
@given(st.integers(5, 10**12))
@example(1000000000061)
def test_principal_expansion_matches_cf_expand_sample(d):
    assume(is_discriminant(d))
    assert principal_expansion(d) == cf_expand(canonical_irrational(d))


def test_principal_expansion_overflow_boundary(monkeypatch):
    # P + T quotients in all: a limit of P + T - 1 closes, P + T - 2 does
    # not, and the half walk refuses with cf_expand's limit after the
    # preperiod and (T - 1) // 2 + 1 states
    ds = (5, 8, 12, 13, 21, 28, 32, 61, 73, 136, 1000, 1009, 9949, 99997, 1000001)
    expansions = [cf_expand(canonical_irrational(d)) for d in ds]
    assert {len(exp.period) % 2 for exp in expansions} == {0, 1}
    taken = []
    original = cfrac.cf_orbit

    def counting(d, a, b):
        for step in original(d, a, b):
            taken.append(step)
            yield step

    monkeypatch.setattr(cfrac, "cf_orbit", counting)
    for d, exp in zip(ds, expansions):
        total = len(exp.preperiod) + len(exp.period)
        monkeypatch.setattr(cfrac, "PERIOD_STEP_LIMIT", total - 1)
        principal_expansion.cache_clear()
        assert principal_expansion(d) == exp, d
        monkeypatch.setattr(cfrac, "PERIOD_STEP_LIMIT", total - 2)
        principal_expansion.cache_clear()
        within = f"did not close within PERIOD_STEP_LIMIT = {total - 2} steps"
        taken.clear()
        with pytest.raises(PeriodOverflow, match=within):
            principal_expansion(d)
        assert len(taken) == len(exp.preperiod) + (len(exp.period) - 1) // 2 + 1, d
        with pytest.raises(PeriodOverflow, match=within):
            cf_expand(canonical_irrational(d))


def test_principal_ideal_of_norm_is_first_on_cycle():
    for d in range(5, 3000):
        if not is_discriminant(d):
            continue
        cycle = principal_expansion(d).cycle
        for n in range(1, max(rho.a for rho in cycle) + 2):
            first = next((to_ideal(rho) for rho in cycle if rho.a == n), None)
            assert principal_ideal_of_norm(d, n) == first, (d, n)


def continuant_enclosure(d):
    """regulator_enclosure's continuant pass, over cf_expand's full period,
    as a pair of mpf tuples."""
    exp = cf_expand(canonical_irrational(d))
    a1, b1 = exp.a[0], exp.b[0]
    with mp.workdps(REGULATOR_DPS):
        p, q, shift = 1, 0, 0
        for alpha in exp.period:
            p, q = alpha * p + q, p
            if p.bit_length() > UNIT_BITS + 64:
                excess = p.bit_length() - UNIT_BITS
                p, q, shift = p >> excess, q >> excess, shift + excess
        reg = mp.log(p + mpf(2 * a1 * q) / (b1 + mp.sqrt(d))) + shift * mp.ln2
        err = mp.ldexp(len(exp.period), 2 - UNIT_BITS) + mp.ldexp(16 + 8 * reg, -mp.prec)
    return reg._mpf_, err._mpf_


def test_regulator_enclosure_matches_continuant_pass():
    for d in list(fundamental_discriminants(5, 20001)) + yamamoto_discriminants():
        assert regulator_enclosure(d) == continuant_enclosure(d), d


def test_fundamental_unit_examples():
    info = fundamental_unit(5)
    assert abs(info.regulator - 0.4812118) < 1e-6
    assert info.period_length == 1 and info.norm_sign == -1
    info = fundamental_unit(8)
    assert abs(info.regulator - 0.8813736) < 1e-6
    assert info.norm_sign == -1
    info = fundamental_unit(12)
    assert abs(info.regulator - 1.3169579) < 1e-6
    assert info.period_length == 2 and info.norm_sign == 1
    assert abs(fundamental_unit(61).regulator - log((39 + 5 * sqrt(61)) / 2)) < 1e-9


def log_sum_regulator(d, dps=30):
    """The regulator as fundamental_unit used to find it: one mp.log per
    state of the principal cycle, summed, rounded to the nearest float."""
    cycle = cf_expand(canonical_irrational(d)).cycle
    with mp.workdps(dps):
        root = mp.sqrt(d)
        return float(mp.fsum(mp.log((rho.b + root) / (2 * rho.a)) for rho in cycle))


def yamamoto_discriminants(n_max=1600, primes=(2, 3, 5, 13)):
    return sorted(
        {
            d
            for p in primes
            for n in range(1, n_max + 1)
            if is_discriminant(d := n * n + 4 * p) and is_squarefree(d)
        }
    )


def test_regulator_matches_log_sum_oracle():
    ds = [d for d in range(5, 6000) if is_discriminant(d)]
    for d in ds + yamamoto_discriminants():
        assert fundamental_unit(d).regulator == log_sum_regulator(d), d


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 2_500_000), st.sampled_from((0, 1)))
def test_unit_matches_expansion_and_exact_unit(k, r):
    d = 4 * k + r
    assume(is_discriminant(d))
    info = fundamental_unit(d)
    exp = cf_expand(canonical_irrational(d))
    assert info.period_length == len(exp.period)
    assert info.norm_sign == (-1) ** len(exp.period)
    u = exact_unit(d)
    with mp.workdps(40):
        reg = mp.log((u.x + u.y * mp.sqrt(d)) / 2)
    assert abs(info.regulator - reg) <= 1e-12 * reg


@settings(max_examples=100, deadline=None)
@given(st.integers(5, 10**6))
def test_regulator_enclosure_holds_exact_log(d):
    assume(is_discriminant(d))
    assert_enclosure_holds_exact_log(d)


def assert_enclosure_holds_exact_log(d):
    reg, err = map(mp.make_mpf, regulator_enclosure(d))
    u = exact_unit(d)
    with mp.workdps(60):
        exact = mp.log((u.x + u.y * mp.sqrt(d)) / 2)
    # the ends exactly, not rounded to the ambient precision
    assert mp.fsub(reg, err, exact=True) <= exact <= mp.fadd(reg, err, exact=True), d


def test_regulator_enclosure_holds_exact_log_at_paper_scale():
    # short cycles at d ~ 1e11 to 4e12 keep exact_unit cheap: Chowla's
    # 4n^2 + 1 (period 3) and Shanks' (2^k + 3)^2 - 8 (period 37 to 43)
    chowla = [4 * n * n + 1 for n in range(158110, 158125)]
    shanks = [(2**k + 3) ** 2 - 8 for k in range(18, 22)]
    ds = [d for d in chowla + shanks if is_squarefree(d)]
    assert len(ds) == 18
    for d in ds:
        assert_enclosure_holds_exact_log(d)


def test_regulator_enclosure_ignores_ambient_precision():
    # a cached enclosure is only sound if it does not depend on the caller
    for d in (5, 61, 1109, 10000200021):
        enclosures = []
        for dps in (5, 60):
            regulator_enclosure.cache_clear()
            with mp.workdps(dps):
                enclosures.append(regulator_enclosure(d))
        assert enclosures[0] == enclosures[1], d


def test_regulator_above_trivial_bound():
    for d in range(5, 2001):
        if not is_discriminant(d):
            continue
        reg = fundamental_unit(d).regulator
        assert reg > log(sqrt(d) / 2) + 1e-12, d


def test_exact_unit_matches_regulator():
    for d in range(5, 800):
        if not is_discriminant(d):
            continue
        u = exact_unit(d)
        info = fundamental_unit(d)
        assert u.x * u.x - d * u.y * u.y == 4 * u.norm_sign
        assert u.norm_sign == info.norm_sign
        with mp.workdps(40):
            reg = float(mp.log((u.x + u.y * mp.sqrt(d)) / 2))
        assert abs(reg - info.regulator) < 1e-9, d


def test_exact_unit_values():
    assert exact_unit(5) == type(exact_unit(5))(5, 1, 1, -1)
    u = exact_unit(61)
    assert (u.x, u.y, u.norm_sign) == (39, 5, -1)


def reduced_principal_ideals(d: int) -> set[QuadIdeal]:
    exp = principal_expansion(d)
    return {QuadIdeal(d, a, b) for a, b in zip(exp.a, exp.b)}


def test_reduced_principal_ideals_examples():
    assert reduced_principal_ideals(13) == {QuadIdeal(13, 1, 1)}
    assert reduced_principal_ideals(5) == {QuadIdeal(5, 1, 1)}
    norms = {i.norm for i in reduced_principal_ideals(61)}
    assert 3 in norms


def test_is_norm_of_reduced_principal():
    assert principal_ideal_of_norm(13, 1) is not None
    assert principal_ideal_of_norm(13, 3) is None
    assert principal_ideal_of_norm(61, 3) is not None
    with pytest.raises(ValueError):
        principal_ideal_of_norm(13, 0)


def test_chowla_family_regulator_bound():
    for n in range(1, 101):
        d = 4 * n * n + 1
        if not is_squarefree(d):
            continue
        assert fundamental_unit(d).regulator <= log(2 * sqrt(d)) + 1e-12


def counting_walks(monkeypatch):
    """Record the d of every continued-fraction walk cfrac starts, with
    empty principal-cycle and regulator caches."""
    walks = []
    original = cfrac.cf_orbit

    def counting(d, a, b):
        walks.append(d)
        return original(d, a, b)

    monkeypatch.setattr(cfrac, "cf_orbit", counting)
    principal_expansion.cache_clear()
    regulator_enclosure.cache_clear()
    return walks


def test_one_walk_per_census_item(monkeypatch):
    # unit, cycle norms and criterion bound of one d share one walk, and
    # unit and bound one regulator enclosure
    d = 1109
    walks = counting_walks(monkeypatch)
    fundamental_unit(d)
    norm = min(
        rho.a
        for rho in principal_expansion(d).cycle
        if rho.a > 1 and gcd(rho.a, d) == 1
    )
    evaluate_criterion(CriterionInput(d, (NormSplit(norm, norm, 1),)))
    assert walks == [d]
    info = regulator_enclosure.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_one_walk_per_cubic_record(monkeypatch):
    # a cubic record checks k norms of its d besides its regulator
    walks = counting_walks(monkeypatch)
    records = list(family_scan("cubic", {"p": 2, "q": 3}, range(1, 9)))
    assert len(records) >= 4 and all(rec.bound_ok for rec in records)
    assert walks == [rec.d_values[0] for rec in records]
