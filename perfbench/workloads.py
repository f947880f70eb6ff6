"""The four workloads: their fixed inputs, one item each, and output checks.

Inputs never depend on the seed; the seed only draws the samples that the
slower checks look at. Every call into qrl goes through a module attribute
(`classno.class_number_forms`, not a name imported once), so the tracer's
wrappers see it. Checks import `oracles` lazily: sympy and scipy are not
part of set-up.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

from qrl import cfrac, classno, cli, criterion, families

RESULTS_DIR = Path(__file__).resolve().parent / "results"

# Relative tolerance for comparing floats that the program rounds from 30
# significant digits (or prints with 12) against an oracle's value.
REL_TOL = 1e-9


class ItemFailed(RuntimeError):
    """An operation of the program reported failure (nonzero exit status)."""


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _stride_order(n: int) -> list[int]:
    """A fixed permutation of range(n) whose every prefix spreads evenly over
    the range, so a run cut short by its deadline still sees small and large
    items in the same mix."""
    if n <= 2:
        return list(range(n))
    step = round(n * 0.6180339887)
    while math.gcd(step, n) != 1:
        step += 1
    return [(i * step) % n for i in range(n)]


def _run_cli(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    if status != 0:
        raise ItemFailed(f"qrl {' '.join(argv)} exited {status}: {err.getvalue().strip()}")
    return out.getvalue()


def fundamental_discriminants(bound: int) -> list[int]:
    """Fundamental discriminants 5 <= d <= bound, by a squarefree sieve of the
    benchmark's own (qrl's caches stay empty during set-up)."""
    squarefree = bytearray([1]) * (bound + 1)
    for p in range(2, math.isqrt(bound) + 1):
        squarefree[p * p :: p * p] = bytearray(len(squarefree[p * p :: p * p]))
    out = []
    for d in range(5, bound + 1):
        if d % 4 == 1 and squarefree[d]:
            out.append(d)
        elif d % 4 == 0 and (d // 4) % 4 in (2, 3) and squarefree[d // 4]:
            out.append(d)
    return out


class Workload:
    name = ""

    def __init__(self, tiny: bool = False) -> None:
        self.tiny = tiny

    def setup(self) -> None:
        """Build the inputs; counted in setup_s."""

    def items(self) -> list:
        raise NotImplementedError

    def run(self, item):
        raise NotImplementedError

    def records(self, done: list) -> int:
        """Output records produced by the completed items."""
        return len(done)

    def emitted(self, done: list) -> tuple[int, int]:
        """(rows, bytes) the CLI emitted for the completed items."""
        return 0, 0

    def check(self, done: list, rng: random.Random) -> list[str]:
        """Problems found in the outputs of the completed items."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# census


@dataclass(frozen=True)
class CensusResult:
    h: int
    regulator: float
    l_value: float
    norm: int | None
    bound: criterion.BoundReport | None


class Census(Workload):
    """One fundamental discriminant d per item: h, unit, L(1, chi_d), and the
    criterion for the smallest cycle norm n > 1 coprime to d."""

    name = "census"
    PELL_SAMPLE = 20

    def setup(self) -> None:
        self.ds = fundamental_discriminants(400 if self.tiny else 20_000)

    def items(self) -> list[int]:
        return [self.ds[i] for i in _stride_order(len(self.ds))]

    def run(self, d: int) -> CensusResult:
        h, _ = classno.class_number_forms(d)
        unit = cfrac.fundamental_unit(d)
        l_value = classno.l_value_exact(d)
        norms = [
            rho.a
            for rho in cfrac.principal_expansion(d).cycle
            if rho.a > 1 and math.gcd(rho.a, d) == 1
        ]
        norm = min(norms, default=None)
        bound = None
        if norm is not None:
            inp = criterion.CriterionInput(d, (criterion.NormSplit(norm, norm, 1),))
            _, bound = criterion.evaluate_criterion(inp)
        return CensusResult(h, unit.regulator, l_value, norm, bound)

    def check(self, done, rng):
        from oracles import pell_regulator

        problems = []
        for d, res in done:
            formula = math.sqrt(d) * res.l_value / (2 * res.regulator)
            if abs(formula - res.h) >= 1e-4:
                problems.append(f"census d={d}: sqrt(d)L/2R = {formula} but h = {res.h}")
            b = res.bound
            # the three sums come from one 30-digit evaluation each, rounded
            # to floats; the slack covers that rounding only
            slack = 1e-12 * max(1.0, res.regulator)
            if b is not None and not (
                b.discrete_sum <= b.exact_sum + slack
                and b.exact_sum <= b.regulator + slack
                and _close(b.regulator, res.regulator)
            ):
                problems.append(
                    f"census d={d}: discrete {b.discrete_sum} <= exact {b.exact_sum}"
                    f" <= regulator {b.regulator} fails"
                )
        for d, res in rng.sample(done, min(self.PELL_SAMPLE, len(done))):
            oracle = pell_regulator(d)
            if not _close(oracle, res.regulator):
                problems.append(f"census d={d}: R = {res.regulator}, Pell gives {oracle}")
        return problems


# ---------------------------------------------------------------------------
# yamamoto


class Yamamoto(Workload):
    """One in-process `qrl verify yamamoto` call per chunk of consecutive n."""

    name = "yamamoto"
    PRIMES = (2, 3, 5, 13)
    PELL_SAMPLE = 6

    def setup(self) -> None:
        n_max, width = (40, 10) if self.tiny else (1600, 20)
        self.chunks = [
            (p, lo, min(lo + width - 1, n_max))
            for p in self.PRIMES
            for lo in range(1, n_max + 1, width)
        ]

    def items(self):
        return [self.chunks[i] for i in _stride_order(len(self.chunks))]

    def run(self, chunk) -> str:
        p, lo, hi = chunk
        return _run_cli(
            ["verify", "yamamoto", "--p", str(p), "--kmin", str(lo), "--kmax", str(hi)]
        )

    @staticmethod
    def _rows(text: str) -> list[dict]:
        return [json.loads(line) for line in text.splitlines()]

    def records(self, done):
        return sum(len(text.splitlines()) for _, text in done)

    def emitted(self, done):
        return self.records(done), sum(len(text.encode()) for _, text in done)

    def check(self, done, rng):
        from oracles import is_squarefree, pell_regulator

        problems, rows = [], []
        for (p, lo, hi), text in done:
            chunk_rows = self._rows(text)
            rows.extend((p, row) for row in chunk_rows)
            got = [row["n"] for row in chunk_rows]
            want = [n for n in range(lo, hi + 1) if is_squarefree(n * n + 4 * p)]
            if got != want:
                problems.append(f"yamamoto p={p} n={lo}..{hi}: emitted {got}, want {want}")
            for row in chunk_rows:
                if row["d"] != row["n"] ** 2 + 4 * p or not row["ok"]:
                    problems.append(f"yamamoto p={p}: bad row {row}")
        for p, row in rng.sample(rows, min(self.PELL_SAMPLE, len(rows))):
            oracle = pell_regulator(row["d"])
            # the CLI prints 12 significant digits
            if not _close(oracle, row["regulator"], 1e-11):
                problems.append(
                    f"yamamoto d={row['d']}: R = {row['regulator']}, Pell gives {oracle}"
                )
        return problems


# ---------------------------------------------------------------------------
# progression


class Progression(Workload):
    """One k of the m = 1, p1 = 5 progression per item, with h attached."""

    name = "progression"
    X = 10**6
    H_SAMPLE = 4

    def setup(self) -> None:
        self.spec = families.build_progression(1, [5], self.X, cli.DEFAULT_EPS1)
        # the CLI's default Euler-product bound for `family scan --with-h`
        self.euler_bound = int(
            min(math.log(self.spec.x) ** cli.DEFAULT_BOUND_EXPONENT, cli.MAX_EULER_BOUND)
        )
        self.ks = range(1, 13) if self.tiny else range(21, 131)

    def items(self):
        return [self.ks[i] for i in _stride_order(len(self.ks))]

    def run(self, k: int):
        return families.scan_squarefree(
            self.spec, k_min=k, k_max=k, with_h=True, euler_bound_B=self.euler_bound
        )

    def records(self, done):
        return sum(len(recs) for _, recs in done)

    def check(self, done, rng):
        from oracles import class_number_from_formula, is_squarefree, jacobi_symbol

        spec, problems, records = self.spec, [], []
        for k, recs in done:
            n = spec.n0 + k * spec.q
            d = n * n + 4 * spec.primes[0]
            want = [k] if is_squarefree(d) else []
            if [r.k for r in recs] != want:
                problems.append(f"progression k={k}: records {recs}, want k in {want}")
                continue
            for r in recs:
                records.append(r)
                if r.n != n or r.d_values != (d,):
                    problems.append(f"progression k={k}: n, d = {r.n}, {r.d_values}")
                if math.gcd(d, spec.q) != 1:
                    problems.append(f"progression k={k}: gcd(d, q) > 1")
                bad = [p for p in spec.S_prime if jacobi_symbol(d, p) != -1]
                if bad:
                    problems.append(f"progression k={k}: (d|p) != -1 for p in {bad}")
        for r in rng.sample(records, min(self.H_SAMPLE, len(records))):
            d = r.d_values[0]
            h = class_number_from_formula(d, r.regulator)
            if abs(h - r.h) >= 1e-4:
                problems.append(f"progression d={d}: h = {r.h}, class-number formula {h}")
        return problems


# ---------------------------------------------------------------------------
# sieve


class Sieve(Workload):
    """One in-process `qrl family scan --spec` call per window of k, on the
    paper's x = 10**10 progression."""

    name = "sieve"
    K_SAMPLE = 40
    REJECT_SAMPLE = 10

    def setup(self) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        self.spec_path = RESULTS_DIR / "sieve_spec.json"
        _run_cli(
            ["family", "build", "--m", "1", "--primes", "5", "--x", "1e10",
             "--out", str(self.spec_path)]
        )
        k_max, width = (500, 50) if self.tiny else (38_500, 350)
        self.windows = [(lo, lo + width - 1) for lo in range(1, k_max + 1, width)]

    def items(self):
        return [self.windows[i] for i in _stride_order(len(self.windows))]

    def run(self, window) -> str:
        lo, hi = window
        return _run_cli(
            ["family", "scan", "--spec", str(self.spec_path),
             "--kmin", str(lo), "--kmax", str(hi)]
        )

    def records(self, done):
        return sum(len(text.splitlines()) - 1 for _, text in done)

    def emitted(self, done):
        return self.records(done), sum(len(text.encode()) for _, text in done)

    def check(self, done, rng):
        from oracles import is_squarefree

        spec = json.loads(self.spec_path.read_text(encoding="utf-8"))
        n0, q, p1 = spec["n0"], spec["q"], spec["primes"][0]
        problems, emitted, rejected, candidates = [], set(), [], 0
        for (lo, hi), text in done:
            candidates += hi - lo + 1
            rows = list(csv.reader(io.StringIO(text)))
            ks = set()
            for row in rows[1:]:
                k, n, d = int(row[0]), int(row[1]), int(row[2])
                if not lo <= k <= hi or n != n0 + k * q or d != n * n + 4 * p1:
                    problems.append(f"sieve window {lo}..{hi}: bad row {row}")
                ks.add(k)
            emitted |= ks
            rejected.extend(k for k in range(lo, hi + 1) if k not in ks)
        pool = sorted(emitted)
        sample = rng.sample(pool, min(self.K_SAMPLE, len(pool)))
        sample += rng.sample(rejected, min(self.REJECT_SAMPLE, len(rejected)))
        for k in sample:
            n = n0 + k * q
            if is_squarefree(n * n + 4 * p1) != (k in emitted):
                problems.append(f"sieve k={k}: emitted={k in emitted} disagrees with factorint")
        if candidates:
            share = len(emitted) / candidates
            spec_obj = families.ProgressionSpec(
                **{key: tuple(v) if isinstance(v, list) else v for key, v in spec.items()}
            )
            density = families.squarefree_density(spec_obj, 10**4)
            if abs(share - density) > 0.01 * density:
                problems.append(f"sieve: survivor share {share} vs density {density}")
        return problems


WORKLOADS = {cls.name: cls for cls in (Census, Yamamoto, Progression, Sieve)}
