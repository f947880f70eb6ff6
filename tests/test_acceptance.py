"""Acceptance suite: thirteen numbered end-to-end checks, one test each.

Every test prints a single summary line ("criterion NN [...]: PASS/FAIL")
with the measured quantities before asserting, so a verbose run reads as a
checklist.  Tolerances are stated inline next to each assertion; random
checks use fixed seeds so re-runs are identical.
"""

import math
import random
import time

from test_classno import log_sine_l_value
from test_criterion import lattice_integral_gap
from test_families import count_good_residues, good_residue_lower_bound
from test_quadorder import (
    ideal_power,
    module_product,
    random_ideal,
    sample_discriminants,
)

from qrl import families
from qrl.cfrac import exact_unit, fundamental_unit, principal_expansion
from qrl.classno import class_number_forms
from qrl.criterion import (
    CriterionError,
    CriterionInput,
    NormSplit,
    evaluate_criterion,
    search_nonprimitive_example,
)
from qrl.intarith import (
    fundamental_decomposition,
    is_discriminant,
    is_squarefree,
    kronecker,
    primes_up_to,
)
from qrl.quadorder import classify, multiply_ideals

SEED = 20260816


def report(num: int, label: str, ok: bool, detail: str) -> bool:
    print(f"criterion {num:2d} [{label}]: {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


def fundamental_discriminants(lo: int, hi: int):
    for d in range(lo, hi + 1):
        if is_discriminant(d) and fundamental_decomposition(d).conductor == 1:
            yield d


def yamamoto_simplified_bound(d: int, p: int) -> float:
    return math.log(d) ** 2 / (8 * math.log(p))


def test_criterion_01_class_number_round_trip():
    t0 = time.time()
    worst, count = 0.0, 0
    for d in fundamental_discriminants(5, 20000):
        h, _ = class_number_forms(d)
        analytic = math.sqrt(d) * log_sine_l_value(d) / (2 * fundamental_unit(d).regulator)
        worst = max(worst, abs(analytic - h))
        count += 1
    elapsed = time.time() - t0
    ok = worst < 1e-4 and count > 6000 and elapsed < 300
    detail = f"{count} fundamental d <= 20000, worst |analytic-h| = {worst:.2e}, {elapsed:.1f}s"
    assert report(1, "class-number round trip", ok, detail), detail


def test_criterion_02_norm_sign_law():
    checked = exact_checked = 0
    for d in range(5, 20001):
        if not is_discriminant(d):
            continue
        info = fundamental_unit(d)
        assert info.norm_sign == (-1) ** info.period_length, f"sign law fails at d={d}"
        checked += 1
        if d <= 10**4:
            u = exact_unit(d)
            norm = (u.x * u.x - d * u.y * u.y) // 4
            assert norm == info.norm_sign, f"exact-unit norm mismatch at d={d}"
            exact_checked += 1
    ok = checked > 9000 and exact_checked > 4500
    detail = f"{checked} discriminants d <= 20000; {exact_checked} big-integer units d <= 1e4"
    assert report(2, "norm-sign law", ok, detail), detail


def test_criterion_03_shanks_closed_form():
    records = list(families.family_scan("shanks", {}, range(2, 15)))
    ok = (
        [r.k for r in records] == list(range(2, 15))
        and all(r.bound_ok for r in records)
        and records[0].d_values[0] == 41
        and abs(records[0].regulator - 4.159127) < 1e-5
    )
    worst = max(abs(r.regulator - r.bound) / r.bound for r in records)
    detail = (
        f"k = 2..14 all within 1e-9 relative (worst {worst:.2e}); "
        f"k=2: d=41, regulator {records[0].regulator:.6f}"
    )
    assert report(3, "explicit-unit closed form", ok, detail), detail


def test_criterion_04_small_regulator_family():
    records = list(families.family_scan("chowla", {}, range(1, 2001)))
    ok = len(records) > 1500 and all(r.bound_ok for r in records)
    worst = max(r.regulator - r.bound for r in records)
    detail = (
        f"{len(records)} squarefree d = 4n^2+1, n <= 2000; "
        f"max regulator - log(2 sqrt d) = {worst:.3f} <= 0"
    )
    assert report(4, "small-regulator family", ok, detail), detail


def test_criterion_05_large_regulator_family():
    total = 0
    for p in (2, 3, 5, 13):
        records = list(families.family_scan("yamamoto_plus", {"p": p}, range(1, 3001)))
        assert records and all(r.bound_ok for r in records), f"full bound fails, p={p}"
        total += len(records)
    # simplified bound, sampled at d >= 1e8 on split instances (p not
    # dividing n); for p | n the discriminant is of small-regulator type
    # and the simplified form genuinely fails.
    sampled = 0
    worst = float("inf")
    for p in (2, 3, 5, 13):
        picked, n = 0, 10000
        while picked < 25:
            d = n * n + 4 * p
            if n % p and d >= 10**8 and is_squarefree(d):
                margin = (
                    fundamental_unit(d).regulator
                    - yamamoto_simplified_bound(d, p)
                )
                assert margin >= 0, f"simplified bound fails: p={p}, n={n}"
                worst = min(worst, margin)
                picked += 1
            n += 1
        sampled += picked
    ok = total > 4000 and sampled == 100
    detail = (
        f"{total} records n <= 3000 pass the full bound; "
        f"{sampled} split samples d >= 1e8 pass the simplified bound "
        f"(worst margin {worst:.1f})"
    )
    assert report(5, "large-regulator family", ok, detail), detail


def test_criterion_06_good_residue_count():
    tuples = {1: [5], 2: [5, 13]}
    worst = {}
    for m, primes in tuples.items():
        threshold = m * m * 4**m + 3
        slack = float("inf")
        for p in primes_up_to(10**4):
            if p == 2 or p in primes:
                continue
            count = count_good_residues(p, primes)
            lower = good_residue_lower_bound(p, m)
            assert count >= lower, f"explicit bound fails at p={p}, m={m}"
            if p >= threshold:
                assert count >= 1, f"positivity fails at p={p}, m={m}"
            slack = min(slack, count - lower)
        worst[m] = slack
    detail = (
        f"odd p <= 1e4: count >= explicit bound; min slack "
        f"m=1: {worst[1]:.2f}, m=2: {worst[2]:.2f}; count >= 1 beyond m^2 4^m + 3"
    )
    assert report(6, "good-residue count", True, detail), detail


def test_criterion_07_progression_character_values():
    spec = families.build_progression(1, [5], 10**10, 0.9)
    assert spec.S_prime == (7, 11, 13)
    for k in range(1, 101):
        n = spec.n0 + k * spec.q
        d = n * n + 4 * 5
        for p in spec.S_prime:
            assert kronecker(d, p) == -1, f"chi_d({p}) != -1 at k={k}"
        assert math.gcd(d, spec.q) == 1, f"gcd(d, q) > 1 at k={k}"
    detail = "100 progression samples: chi_d = -1 on {7,11,13} and gcd(d,q) = 1"
    assert report(7, "progression character values", True, detail), detail


def test_criterion_08_squarefree_density():
    spec = families.build_progression(1, [5], 10**10, 0.9)
    k_max = 10**5
    empirical = len(families.scan_squarefree(spec, k_max=k_max)) / k_max
    predicted = families.squarefree_density(spec, 10**4)
    rel = abs(empirical - predicted) / predicted
    ok = rel < 0.01
    detail = (
        f"k <= 1e5: empirical {empirical:.6f} vs truncated product "
        f"{predicted:.6f} (prime bound 1e4), relative gap {rel:.2%}"
    )
    assert report(8, "squarefree density", ok, detail), detail


def test_criterion_09_power_primitivity_and_composition():
    rng = random.Random(SEED)
    ds = sample_discriminants(rng, 120, lo=5, hi=10**6)

    def coprime_primitive(d):
        while True:
            ideal = random_ideal(rng, d, allow_content=False)
            if math.gcd(ideal.a, d) == 1:
                return ideal

    for i in range(500):
        d = ds[i % len(ds)]
        base = coprime_primitive(d)
        power = base
        for _ in range(5):  # powers t = 2..6
            power = multiply_ideals(power, base)
            assert power.e == 1, f"power not primitive: d={d}, base={base}"
    for i in range(500):
        d = ds[(i * 7) % len(ds)]
        left = coprime_primitive(d)
        right = random_ideal(rng, d)
        assert multiply_ideals(left, right) == module_product(left, right), (
            f"composition disagrees with the module oracle: {left} * {right}"
        )
    assert ideal_power(coprime_primitive(ds[0]), 6).e == 1
    detail = (
        "500 primitive ideals with gcd(a,d)=1: powers t <= 6 stay primitive; "
        "500 products match the Hermite-form module oracle"
    )
    assert report(9, "power primitivity + composition oracle", True, detail), detail


def test_criterion_10_bound_soundness():
    instances = []
    d = 5
    while len(instances) < 40 and d < 4000:
        d += 1
        if not is_discriminant(d):
            continue
        norms = sorted(
            {
                rho.a
                for rho in principal_expansion(d).cycle
                if rho.a > 1 and math.gcd(rho.a, d) == 1
            }
        )
        candidates = [(n,) for n in norms[:3]]
        candidates += [
            (n1, n2)
            for i, n1 in enumerate(norms[:3])
            for n2 in norms[i + 1 : 4]
            if math.gcd(n1, n2) == 1
        ]
        for nm in candidates:
            if len(instances) >= 40:
                break
            try:
                splits = tuple(NormSplit(n, n, 1) for n in nm)
                _, bound = evaluate_criterion(CriterionInput(d, splits))
            except CriterionError:
                continue
            assert bound.discrete_sum <= bound.exact_sum, (d, nm)
            assert bound.exact_sum <= bound.regulator, (d, nm)
            instances.append((d, nm))
    m1 = sum(1 for _, nm in instances if len(nm) == 1)
    m2 = sum(1 for _, nm in instances if len(nm) == 2)
    _, ref = evaluate_criterion(CriterionInput(61, (NormSplit(3, 3, 1),)))
    ok = (
        len(instances) >= 30
        and m1 >= 5
        and m2 >= 5
        and abs(ref.discrete_sum - 1.626) < 1e-3
        and abs(ref.regulator - 3.664) < 1e-3
    )
    detail = (
        f"{len(instances)} instances (m=1: {m1}, m=2: {m2}) satisfy "
        f"discrete <= exact <= regulator; (d=61, norms=[3]): "
        f"{ref.discrete_sum:.3f} <= {ref.regulator:.3f}"
    )
    assert report(10, "lower-bound soundness", ok, detail), detail


def test_criterion_11_lattice_vs_integral_growth():
    ratios = []
    reference = None
    for norms in ([2], [2, 3]):
        m = len(norms)
        for d in (10**6, 10**8, 10**10, 10**12):
            gap = lattice_integral_gap(d, norms)
            ratios.append(abs(gap.diff) / math.log(d) ** m)
            if norms == [2] and d == 10**6:
                reference = gap
    ok = (
        max(ratios) < 0.5
        and abs(reference.lattice_sum - 30.979) < 2e-3
        and abs(reference.integral - 27.859) < 2e-3
    )
    detail = (
        f"|lattice - integral| / (log d)^m <= {max(ratios):.4f} < 0.5 over 8 "
        f"points; m=1, d=1e6 reproduces {reference.lattice_sum:.3f} / "
        f"{reference.integral:.3f}"
    )
    assert report(11, "lattice-integral growth", ok, detail), detail


def test_criterion_12_nonprimitive_product():
    rec = search_nonprimitive_example()
    r = rec.params[0]
    ok = (
        rec.product_content == r > 1
        and rec.norm_bound_ok
        and 4 * rec.product_norm**2 < rec.d
        and classify(rec.factor_1).primitive
        and classify(rec.factor_2).primitive
    )
    detail = (
        f"params {rec.params}: d = {rec.d}, product of two primitive reduced "
        f"ideals has content {rec.product_content} = r > 1 with norm "
        f"{rec.product_norm} < sqrt(d)/2 = {math.sqrt(rec.d) / 2:.2f}"
    )
    assert report(12, "non-primitive product witness", ok, detail), detail


def test_criterion_13_constants_and_h_bound():
    consts = families.compute_constants(1, [2, 5])
    assert consts.C_m == 144.0
    assert consts.headline_constant == 192.0
    spec = families.build_progression(1, [5], 10**10, 0.9)
    # members with n <= 3000: only k = 0 (n = 1365, d = 1863245 < 1e8),
    # so the d >= 1e8 clause is vacuous there ...
    small = families.scan_squarefree(
        spec, k_max=(3000 - spec.n0) // spec.q, k_min=0, with_h=True
    )
    assert all(r.n <= 3000 for r in small)
    vacuous = [r for r in small if r.d_values[0] >= 10**8]
    assert not vacuous
    assert all(r.bound_ok for r in small if r.d_values[0] >= 16)
    # ... and the next progression members supply a non-vacuous check.
    big = families.scan_squarefree(spec, k_max=3, k_min=2, with_h=True)
    assert big and all(r.d_values[0] >= 10**8 for r in big)
    assert all(r.bound_ok for r in big), [(r.k, r.h, r.bound) for r in big]
    detail = (
        f"C(1) = {consts.C_m:.0f} alongside literal {consts.headline_constant:.0f}; "
        f"n <= 3000 clause vacuous at d >= 1e8 ({len(small)} small member); "
        f"{len(big)} members d >= 1e8 satisfy h <= 192 log(5) sqrt(d)/(log^2 d loglog d): "
        + ", ".join(f"h={r.h} <= {r.bound:.0f}" for r in big)
    )
    assert report(13, "constants and class-number bound", True, detail), detail
