"""End-to-end checks for the command-line interface.

All commands run in-process through main(argv); stdout/stderr are captured
and parsed back, so the tests pin the exact emitted bytes where determinism
is part of the contract.
"""

import argparse
import io
import json
import math
import os
import re
import shlex
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from functools import partial
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from qrl import cfrac, classno, cli, families
from qrl.cfrac import exact_unit, fundamental_unit, principal_expansion
from qrl.classno import l_value_exact, l_value_truncated
from qrl.cli import main


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def one_json(text):
    lines = text.splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


# ---------------------------------------------------------------------------
# single-value commands


def test_unit_61():
    code, out, err = run_cli(["unit", "--d", "61"])
    assert code == 0 and err == ""
    record = one_json(out)
    info = fundamental_unit(61)
    assert list(record) == ["d", "l", "regulator", "norm_sign"]
    assert record["d"] == 61
    assert record["l"] == info.period_length
    assert record["norm_sign"] == -1
    unit = exact_unit(61)
    closed = math.log((unit.x + unit.y * math.sqrt(61)) / 2)
    assert abs(record["regulator"] - closed) < 1e-9


def test_unit_exact_coordinates():
    code, out, _ = run_cli(["unit", "--d", "61", "--exact"])
    assert code == 0
    record = one_json(out)
    unit = exact_unit(61)
    assert record["x"] == unit.x and record["y"] == unit.y
    assert (record["x"] ** 2 - 61 * record["y"] ** 2) // 4 in (-1, 1)


def test_unit_rejects_non_discriminant():
    code, out, err = run_cli(["unit", "--d", "7"])
    assert code == 1 and out == ""
    record = one_json(err)
    assert record["error"] == "ValueError"
    assert "discriminant" in record["message"]


def test_classno_40():
    code, out, _ = run_cli(["classno", "--d", "40"])
    assert code == 0
    record = one_json(out)
    assert record["h"] == 2


def test_cf_matches_expansion():
    code, out, _ = run_cli(["cf", "--d", "13"])
    assert code == 0
    record = one_json(out)
    exp = principal_expansion(13)
    assert record["preperiod"] == list(exp.preperiod)
    assert record["period"] == list(exp.period)
    assert record["period_length"] == len(exp.period)
    assert record["a"] == 1 and record["b"] == 1


def test_cf_max_steps_zero_closes_and_negative_is_refused():
    # d = 5 has a one-quotient period, so no step past the first is needed
    code, out, err = run_cli(["cf", "--d", "5", "--max-steps", "0"])
    assert code == 0 and err == ""
    assert one_json(out)["period"] == [1]
    code, out, err = run_cli(["cf", "--d", "5", "--max-steps", "-5"])
    assert code == 1 and out == ""
    assert one_json(err) == {
        "error": "ValueError",
        "message": "cf --max-steps must be >= 0, got -5",
    }


def test_lvalue_exact_golden_ratio():
    code, out, _ = run_cli(["lvalue", "--d", "5"])
    assert code == 0
    record = one_json(out)
    closed = (2 / math.sqrt(5)) * math.log((1 + math.sqrt(5)) / 2)
    assert record["method"] == "exact"
    assert abs(record["value"] - closed) < 1e-9
    assert record["value"] == float(f"{l_value_exact(5):.12g}")


def test_lvalue_euler_truncation():
    code, out, _ = run_cli(["lvalue", "--d", "5", "--method", "euler", "--bound", "1000"])
    assert code == 0
    record = one_json(out)
    assert record["bound"] == 1000
    assert record["value"] == float(f"{l_value_truncated(5, 1000):.12g}")


def test_constants_surface_both_values():
    code, out, _ = run_cli(["constants", "--m", "1", "--primes", "2,5"])
    assert code == 0
    record = one_json(out)
    assert record["C_m"] == 144.0
    witness = families.check_star(1, [2, 5])
    if witness is None:
        assert "star_modulus" not in record
    else:
        assert record["star_modulus"] == witness.modulus
        assert record["star_residue"] == witness.residue


def test_ideal_classify():
    code, out, _ = run_cli(["ideal", "--literal", "2*[10,(-7+sqrt(7049))/2]"])
    assert code == 0
    record = one_json(out)
    assert record["e"] == 2 and record["a"] == 10 and record["b"] == -7
    assert record["norm"] == 40
    assert record["primitive"] is False
    assert record["literal"] == "2*[10,(-7+sqrt(7049))/2]"


# ---------------------------------------------------------------------------
# family build / scan


def test_family_build_reference_spec():
    code, out, _ = run_cli(
        ["family", "build", "--m", "1", "--primes", "5", "--x", "1e10"]
    )
    assert code == 0
    record = one_json(out)
    assert record["q"] == 6006
    assert record["n0"] == 1365
    assert record["S_prime"] == [7, 11, 13]
    assert record["eps1"] == 0.9


def test_family_build_parses_x_exactly():
    for text, x in (("12345678901234567", 12345678901234567), ("1e10", 10**10)):
        argv = ["family", "build", "--m", "1", "--primes", "5", "--x", text]
        code, out, _ = run_cli(argv)
        assert code == 0
        assert one_json(out)["x"] == x
    with pytest.raises(SystemExit) as excinfo:
        run_cli(["family", "build", "--m", "1", "--primes", "5", "--x", "1.5e0"])
    assert excinfo.value.code == 2


def test_family_scan_rejects_inconsistent_spec(tmp_path):
    spec_path = tmp_path / "spec.json"
    code, _, _ = run_cli(
        [
            "family", "build", "--m", "1", "--primes", "5", "--x", "1e10",
            "--out", str(spec_path),
        ]
    )
    assert code == 0
    data = json.loads(spec_path.read_text())
    data["n0"] += 1
    spec_path.write_text(json.dumps(data))
    code, out, err = run_cli(
        ["family", "scan", "--spec", str(spec_path), "--kmax", "200"]
    )
    assert code == 1 and out == ""
    record = one_json(err)
    assert record["error"] == "ValueError" and "n0" in record["message"]


def test_family_scan_chowla_csv():
    code, out, _ = run_cli(
        ["family", "scan", "--kind", "chowla", "--kmin", "1", "--kmax", "10"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,n,d_1,squarefree,h,regulator,L_trunc,bound_ok"
    records = families.family_scan("chowla", {}, range(1, 11))
    assert len(lines) == 1 + len(records)
    first = lines[1].split(",")
    assert first[0] == str(records[0].k)
    assert first[2] == str(records[0].d_values[0])
    assert first[-1] == "1"


def test_family_scan_empty_range_header_only():
    code, out, _ = run_cli(
        ["family", "scan", "--kind", "chowla", "--kmin", "5", "--kmax", "4"]
    )
    assert code == 0
    assert out == "k,n,d_1,squarefree,h,regulator,L_trunc,bound_ok\n"


def test_family_scan_requires_one_source():
    code, _, err = run_cli(["family", "scan", "--kmax", "5"])
    assert code == 1
    assert "exactly one" in one_json(err)["message"]


def test_family_scan_spec_roundtrip_and_jobs(tmp_path):
    spec_path = tmp_path / "spec.json"
    code, _, _ = run_cli(
        [
            "family", "build", "--m", "1", "--primes", "5", "--x", "1e10",
            "--out", str(spec_path),
        ]
    )
    assert code == 0
    argv = ["family", "scan", "--spec", str(spec_path), "--kmax", "12"]
    code1, out1, _ = run_cli(argv)
    code2, out2, _ = run_cli(argv + ["--jobs", "3"])
    assert code1 == code2 == 0
    assert out1 == out2
    lines = out1.splitlines()
    assert lines[0] == "k,n,d_1,squarefree,h,regulator,L_trunc,bound_ok"
    spec = families.build_progression(1, [5], 10**10, 0.9)
    records = families.scan_squarefree(spec, k_max=12)
    assert len(lines) == 1 + len(records)
    for line, rec in zip(lines[1:], records):
        cells = line.split(",")
        assert cells[0] == str(rec.k)
        assert cells[1] == str(rec.n)
        assert cells[2] == str(rec.d_values[0])
        assert cells[3] == "1"
        assert cells[4] == "" and cells[5] == ""


# every named family: its parameters, --kmin, --kmax, and the fewest CSV lines
KIND_SCANS = {
    "chowla": ([], 1, 600, 300),
    "shanks": ([], 1, 20, 19),
    "yamamoto_plus": (["--params", "p=3"], -40, 400, 200),
    "yamamoto_minus": (["--params", "p=5"], -40, 400, 200),
    "cubic": (["--params", "p=2,q=3"], 1, 14, 10),
}


@pytest.mark.parametrize("kind", list(families.FAMILIES))
def test_family_scan_kind_jobs_byte_identical(kind):
    params, k_min, k_max, lines = KIND_SCANS[kind]
    argv = ["family", "scan", "--kind", kind, *params]
    argv += ["--kmin", str(k_min), "--kmax", str(k_max)]
    code1, out1, err1 = run_cli(argv + ["--jobs", "1"])
    code3, out3, err3 = run_cli(argv + ["--jobs", "3"])
    assert code1 == code3 == 0 and err1 == err3 == ""
    assert out1 == out3 and len(out1.splitlines()) > lines


class RecordingPool:
    """Stands in for multiprocessing.Pool: records the processes asked for
    and maps in this process, so no worker starts."""

    def __init__(self, created, processes):
        created.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap(self, fn, tasks):
        return map(fn, tasks)


@pytest.fixture
def pools(monkeypatch):
    created = []
    monkeypatch.setattr(cli, "Pool", partial(RecordingPool, created))
    monkeypatch.setattr(cli, "_cpu_count", lambda: 3)
    return created


def test_jobs_pool_is_capped_at_cpu_count(pools):
    argv = ["family", "scan", "--kind", "chowla", "--kmin", "1"]
    code, out, err = run_cli(argv + ["--kmax", "200"])
    assert code == 0 and err == "" and pools == []
    for jobs, kmax, processes in [(8, "200", 3), (2, "200", 2), (8, "2", 2)]:
        code, got, err = run_cli(argv + ["--kmax", kmax, "--jobs", str(jobs)])
        assert code == 0 and err == "" and pools[-1] == processes
        if kmax == "200":
            assert got == out


@pytest.mark.parametrize(
    "argv",
    [
        ["family", "scan", "--kind", "chowla", "--kmax", "200"],
        ["verify", "chowla"],
    ],
)
@pytest.mark.parametrize("jobs", [0, -3])
def test_jobs_below_one_is_refused(pools, argv, jobs):
    code, out, err = run_cli(argv + ["--jobs", str(jobs)])
    assert code == 1 and out == "" and pools == []
    assert one_json(err) == {
        "error": "ValueError",
        "message": f"--jobs must be at least 1, got {jobs}",
    }


@settings(max_examples=200, deadline=None)
@given(
    lo=st.integers(-50, 10_000),
    length=st.integers(-3, 10_000),
    jobs=st.integers(1, 8),
    cpus=st.integers(1, 4),
    window=st.integers(1, cli.SCAN_WINDOW),
)
@example(lo=1, length=10_000, jobs=1, cpus=4, window=cli.SCAN_WINDOW)
@example(lo=1, length=10_000, jobs=2, cpus=4, window=100)
@example(lo=7, length=0, jobs=8, cpus=4, window=cli.SCAN_WINDOW)
def test_run_chunked_windows_cover_the_range_in_order(lo, length, jobs, cpus, window):
    hi = lo + length - 1
    windows, created = [], []

    def span(k_min, k_max):
        windows.append((k_min, k_max))
        return list(range(k_min, k_max + 1))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "Pool", partial(RecordingPool, created))
        patch.setattr(cli, "_cpu_count", lambda: cpus)
        patch.setattr(cli, "SCAN_WINDOW", window)
        records = list(cli._run_chunked(span, lo, hi, jobs))
    assert records == list(range(lo, hi + 1))
    assert all(b - a + 1 <= window for a, b in windows)
    if length <= 0:
        assert windows == [(lo, hi)]
    processes = min(jobs, max(length, 0), cpus)
    assert created == ([processes] if processes > 1 else [])


def test_scan_failing_window_keeps_earlier_rows(monkeypatch, tmp_path):
    argv = ["family", "scan", "--kind", "chowla", "--kmax", "200"]
    code, full, err = run_cli(argv)
    assert code == 0 and err == ""
    header, *rows = full.splitlines(keepends=True)
    kept = [row for row in rows if int(row.split(",")[0]) <= 100]
    assert 0 < len(kept) < len(rows)
    span = cli._family_span

    def failing_span(kind, params, k_min, k_max):
        if k_min > 100:
            raise ValueError(f"window from k = {k_min}")
        return span(kind, params, k_min, k_max)

    monkeypatch.setattr(cli, "SCAN_WINDOW", 50)
    monkeypatch.setattr(cli, "_family_span", failing_span)
    code, out, err = run_cli(argv)
    assert code == 1 and out == header + "".join(kept)
    assert one_json(err) == {"error": "ValueError", "message": "window from k = 101"}
    # --out is opened only once every record exists
    target = tmp_path / "scan.csv"
    target.write_bytes(b"earlier contents\n")
    code, out, err = run_cli(argv + ["--out", str(target)])
    assert code == 1 and out == "" and one_json(err)["error"] == "ValueError"
    assert target.read_bytes() == b"earlier contents\n"


def test_verify_counts_violations_as_rows_pass(monkeypatch):
    span = cli._family_span

    def odd_k_fail(kind, params, k_min, k_max):
        records = span(kind, params, k_min, k_max)
        return [replace(rec, bound_ok=rec.k % 2 == 0) for rec in records]

    monkeypatch.setattr(cli, "_family_span", odd_k_fail)
    code, out, err = run_cli(["verify", "chowla", "--kmax", "20"])
    rows = [json.loads(line) for line in out.splitlines()]
    odd = sum(row["k"] % 2 for row in rows)
    assert code == 1 and 0 < odd < len(rows)
    assert [row["ok"] for row in rows] == [row["k"] % 2 == 0 for row in rows]
    assert one_json(err) == {"family": "chowla", "violations": odd}


def test_scan_memory_does_not_grow_with_the_range(monkeypatch):
    # records reach stdout a window at a time, so the peak is one window's
    monkeypatch.setattr(cli, "SCAN_WINDOW", 100)

    def peak(kmax):
        with open(os.devnull, "w") as sink, redirect_stdout(sink):
            tracemalloc.start()
            try:
                assert main(["family", "scan", "--kind", "chowla", "--kmax", kmax]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    peak("2000")  # warm-up: the caches fill here, not in the measured runs
    small, large = peak("500"), peak("2000")
    assert large < 1.2 * small, (small, large)


def test_family_scan_rejects_missing_parameter():
    for k_range in (["--kmax", "2"], ["--kmin", "5", "--kmax", "4"]):
        code, out, err = run_cli(["family", "scan", "--kind", "cubic", *k_range])
        assert code == 1 and out == ""
        record = one_json(err)
        assert record["error"] == "ValueError"
        assert record["message"] == "family cubic takes parameters ['p', 'q'], got []"


def test_family_scan_rejects_unknown_parameter():
    code, out, err = run_cli(
        ["family", "scan", "--kind", "chowla", "--params", "p=5", "--kmax", "3"]
    )
    assert code == 1 and out == ""
    record = one_json(err)
    assert record["error"] == "ValueError"
    assert record["message"] == "family chowla takes parameters [], got ['p']"


def test_family_scan_json_format():
    code, out, _ = run_cli(
        [
            "family", "scan", "--kind", "shanks", "--kmin", "2", "--kmax", "5",
            "--format", "json",
        ]
    )
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    records = families.family_scan("shanks", {}, range(2, 6))
    assert [row["k"] for row in rows] == [rec.k for rec in records]
    assert all(row["bound_ok"] for row in rows)


def test_family_scan_bound_exponent_validation(tmp_path):
    spec_path = tmp_path / "spec.json"
    run_cli(
        [
            "family", "build", "--m", "1", "--primes", "5", "--x", "1e10",
            "--out", str(spec_path),
        ]
    )
    code, _, err = run_cli(
        [
            "family", "scan", "--spec", str(spec_path), "--kmax", "3",
            "--with-h", "--bound-exponent", "1.5",
        ]
    )
    assert code == 1
    assert "greater than 2" in one_json(err)["message"]


def test_family_scan_with_h_needs_m_1(tmp_path):
    spec_path = tmp_path / "spec.json"
    code, _, _ = run_cli(
        [
            "family", "build", "--m", "2", "--primes", "5,29", "--x", "1e8",
            "--out", str(spec_path),
        ]
    )
    assert code == 0
    code, out, err = run_cli(
        ["family", "scan", "--spec", str(spec_path), "--kmax", "3", "--with-h"]
    )
    assert code == 1 and out == ""
    assert one_json(err) == {
        "error": "ValueError",
        "message": "scan_squarefree needs a spec with m = 1, this one has m = 2",
    }


def test_family_scan_refuses_m2_spec_before_allocating(tmp_path):
    # q is about 8.1e20: the sieve would need the primes up to cbrt(d) ~ 6e14,
    # so no m >= 2 spec is sieved
    spec_path = tmp_path / "spec.json"
    code, _, _ = run_cli(
        [
            "family", "build", "--m", "2", "--primes", "5,29", "--x", "1e8",
            "--out", str(spec_path),
        ]
    )
    assert code == 0
    tracemalloc.start()
    try:
        code, out, err = run_cli(
            ["family", "scan", "--spec", str(spec_path), "--kmax", "20"]
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and out == ""
    assert one_json(err) == {
        "error": "ValueError",
        "message": "scan_squarefree needs a spec with m = 1, this one has m = 2",
    }
    assert peak < 10**6


def test_classno_refuses_long_series_before_allocating():
    # (10**8 + 1)**2 + 4: period length 1, but the series needs N ~ 2.3e8
    tracemalloc.start()
    try:
        code, out, err = run_cli(["classno", "--d", "10000000200000005"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and out == ""
    record = one_json(err)
    assert record["error"] == "ValueError"
    assert f"SERIES_TERM_LIMIT = {classno.SERIES_TERM_LIMIT}" in record["message"]
    assert peak < 10**6


@pytest.mark.parametrize("method", ["exact", "euler"])
def test_lvalue_refuses_non_discriminant(method):
    code, out, err = run_cli(["lvalue", "--d", "7", "--method", method])
    assert code == 1 and out == ""
    assert one_json(err) == {
        "error": "ValueError",
        "message": "7 is not a real quadratic discriminant",
    }


def test_lvalue_refuses_large_euler_bound_before_allocating():
    # the sieve would take about 7.5 bytes per B: some 75 GB at B = 1e10
    tracemalloc.start()
    try:
        argv = ["lvalue", "--d", "5", "--method", "euler", "--bound", "10000000000"]
        code, out, err = run_cli(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and out == ""
    assert one_json(err) == {
        "error": "ValueError",
        "message": "l_value_truncated: bound 10000000000 exceeds"
        f" MAX_EULER_BOUND = {classno.MAX_EULER_BOUND}",
    }
    assert peak < 10**6


def test_lvalue_large_d_from_h_and_regulator():
    # L = 2hR/sqrt(d) reads the class-number series and the principal walk,
    # not a character row of d/2 entries (some 6 TB here)
    d = 1000000000061
    tracemalloc.start()
    try:
        code, out, err = run_cli(["lvalue", "--d", str(d)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and err == ""
    h, _ = classno.class_number(d)
    with mp.workdps(cfrac.REGULATOR_DPS):
        value = float(2 * h * cfrac.regulator_enclosure(d)[0] / mp.sqrt(d))
    assert one_json(out) == {"d": d, "method": "exact", "value": float(f"{value:.12g}")}
    assert peak < 10**8


def test_lvalue_refuses_non_fundamental():
    code, out, err = run_cli(["lvalue", "--d", "45"])
    assert code == 1 and out == ""
    assert one_json(err) == {
        "error": "ValueError",
        "message": "l_value_exact: 45 is not fundamental",
    }


def test_cubic_scan_refuses_long_period_before_allocating(monkeypatch):
    # d = (3 * 2**14 + 3)**2 - 8: a period of 48574 steps, about 7 MB
    monkeypatch.setattr(cfrac, "PERIOD_STEP_LIMIT", 1000)
    cfrac.principal_expansion.cache_clear()
    argv = ["family", "scan", "--kind", "cubic", "--params", "p=2,q=3"]
    tracemalloc.start()
    try:
        code, out, err = run_cli(argv + ["--kmin", "14", "--kmax", "14"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and out == ""
    record = one_json(err)
    assert record["error"] == "PeriodOverflow"
    assert "within PERIOD_STEP_LIMIT = 1000 steps" in record["message"]
    assert peak < 10**6


def test_family_scan_with_h_on_reference_spec(tmp_path):
    # the paper's x = 1e10 spec: d = (1365 + 6006 k)^2 + 20 is 5.4e7 at k = 1
    spec_path = tmp_path / "spec.json"
    code, _, _ = run_cli(
        [
            "family", "build", "--m", "1", "--primes", "5", "--x", "1e10",
            "--out", str(spec_path),
        ]
    )
    assert code == 0
    code, out, err = run_cli(
        ["family", "scan", "--spec", str(spec_path), "--kmax", "2", "--with-h"]
    )
    assert code == 0 and err == ""
    header, *rows = [line.split(",") for line in out.splitlines()]
    assert [r[0] for r in rows] == ["1", "2"]
    for row in rows:
        record = dict(zip(header, row))
        assert re.fullmatch(r"[1-9][0-9]*", record["h"])
        assert record["bound_ok"] in ("0", "1")
    # an explicit Euler bound is held to MAX_EULER_BOUND too
    code, out, err = run_cli(
        [
            "family", "scan", "--spec", str(spec_path), "--kmax", "1", "--with-h",
            "--euler-bound", "10000000000",
        ]
    )
    assert code == 1 and out == ""
    assert one_json(err) == {
        "error": "ValueError",
        "message": "l_value_truncated: bound 10000000000 exceeds"
        f" MAX_EULER_BOUND = {classno.MAX_EULER_BOUND}",
    }


# ---------------------------------------------------------------------------
# verify


def test_verify_shanks_all_ok():
    code, out, err = run_cli(["verify", "shanks", "--kmin", "2", "--kmax", "8"])
    assert code == 0 and err == ""
    rows = [json.loads(line) for line in out.splitlines()]
    assert [row["k"] for row in rows] == list(range(2, 9))
    assert all(row["ok"] for row in rows)
    assert all(row["family"] == "shanks" for row in rows)


def test_verify_shanks_refuses_past_trial_division_limit():
    code, out, err = run_cli(["verify", "shanks", "--kmax", "60"])
    assert code == 1 and out == ""
    record = one_json(err)
    assert record["error"] == "ValueError"
    assert f"SIEVE_PRIME_LIMIT = {families.SIEVE_PRIME_LIMIT}" in record["message"]


def test_verify_chowla_all_ok():
    code, out, _ = run_cli(["verify", "chowla", "--kmax", "50"])
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows and all(row["ok"] for row in rows)
    for row in rows:
        assert row["regulator"] <= row["bound"] + 1e-9


def test_verify_yamamoto_all_ok():
    code, out, _ = run_cli(["verify", "yamamoto", "--p", "5", "--kmax", "50"])
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert rows and all(row["ok"] for row in rows)


def test_verify_rejects_flags_that_do_not_apply():
    for argv, flags in (
        (["verify", "chowla", "--p", "5", "--sign", "minus"], "--p, --sign"),
        (["verify", "shanks", "--sign", "minus"], "--sign"),
    ):
        code, out, err = run_cli(argv + ["--kmax", "3"])
        assert code == 1 and out == ""
        assert one_json(err) == {
            "error": "ValueError",
            "message": f"verify {argv[1]} does not take {flags}",
        }


def test_verify_yamamoto_sign_defaults_to_plus():
    argv = ["verify", "yamamoto", "--p", "13", "--kmax", "40"]
    plain, plus, minus = (
        run_cli(argv + sign) for sign in ([], ["--sign", "plus"], ["--sign", "minus"])
    )
    assert plain == plus and plain[0] == minus[0] == 0
    assert plain[1] != minus[1]


def test_verify_yamamoto_requires_p():
    code, _, err = run_cli(["verify", "yamamoto", "--kmax", "5"])
    assert code == 1
    assert "--p" in one_json(err)["message"]


# ---------------------------------------------------------------------------
# criterion


def test_criterion_d61_norm3():
    code, out, _ = run_cli(["criterion", "--d", "61", "--norms", "3"])
    assert code == 0
    record = one_json(out)
    assert record["d"] == 61
    assert record["norms"] == [3]
    assert abs(record["discrete_sum"] - 1.625967) < 1e-5
    assert abs(record["exact_sum"] - 2.905732) < 1e-5
    assert abs(record["regulator"] - 3.664215) < 1e-5
    assert record["discrete_sum"] <= record["exact_sum"] <= record["regulator"]


def test_criterion_ramified_clearing():
    code, out, _ = run_cli(["criterion", "--d", "105", "--norms", "6=2*3"])
    assert code == 0
    record = one_json(out)
    assert record["norms"] == [4]


def test_criterion_hypothesis_failure_exit_code():
    code, out, err = run_cli(["criterion", "--d", "60", "--norms", "6=2*3"])
    assert code == 1 and out == ""
    assert "gcd" in one_json(err)["message"]


def test_criterion_needs_arguments():
    code, _, err = run_cli(["criterion", "--d", "61"])
    assert code == 1
    assert "--norms" in one_json(err)["message"]


def test_criterion_hk_search():
    code, out, _ = run_cli(["criterion", "hk-remark", "--search"])
    assert code == 0
    record = one_json(out)
    assert record["params"] == [2, 2, 2, 1, 43]
    assert record["d"] == 7049
    assert record["product_content"] == 2
    assert record["product_norm"] == 40
    assert record["norm_bound_ok"] is True
    assert record["product"] == "2*[10,(-7+sqrt(7049))/2]"
    assert "unit" in record["subset_sums"]


def test_criterion_hk_explicit_params():
    code, out, _ = run_cli(["criterion", "hk-remark", "--params", "2,2,2,1,3"])
    assert code == 0
    record = one_json(out)
    assert record["d"] == 2009
    assert record["norm_bound_ok"] is False


def test_criterion_hk_mode_needs_source():
    code, _, err = run_cli(["criterion", "hk-remark"])
    assert code == 1
    assert "--search or --params" in one_json(err)["message"]


# ---------------------------------------------------------------------------
# output plumbing


def test_out_flag_writes_file(tmp_path):
    path = tmp_path / "unit.json"
    code, out, _ = run_cli(["unit", "--d", "61", "--out", str(path)])
    assert code == 0 and out == ""
    _, stdout, _ = run_cli(["unit", "--d", "61"])
    assert path.read_text() == stdout


def test_reruns_byte_identical():
    for argv in (
        ["unit", "--d", "316"],
        ["criterion", "--d", "61", "--norms", "3"],
        ["family", "scan", "--kind", "chowla", "--kmax", "6"],
    ):
        _, first, _ = run_cli(argv)
        _, second, _ = run_cli(argv)
        assert first == second


# (argv, exit status, stdout, stderr), each byte for byte
PINNED = {
    "ideal": (
        ["ideal", "--literal", "2*[10,(-7+sqrt(7049))/2]"],
        0,
        '{"literal": "2*[10,(-7+sqrt(7049))/2]", "d": 7049, "a": 10, "b": -7,'
        ' "e": 2, "norm": 40, "primitive": false, "regular": false,'
        ' "prime_to_conductor": true, "reduced": false}\n',
        "",
    ),
    "hk-remark-search": (
        ["criterion", "hk-remark", "--search"],
        0,
        '{"params": [2, 2, 2, 1, 43], "d": 7049,'
        ' "factor_1": "1*[4,(-3+sqrt(7049))/2]",'
        ' "factor_2": "1*[10,(3+sqrt(7049))/2]",'
        ' "companion": "1*[10,(-7+sqrt(7049))/2]",'
        ' "product": "2*[10,(-7+sqrt(7049))/2]", "product_content": 2,'
        ' "product_norm": 40, "norm_bound_ok": true, "subset_sums":'
        ' {"unit": 3.73717334033, "3": 1.43458824733, "2": 1.43458824733,'
        ' "1": 3.31546359729, "1,3": 0.0482938862131}}\n',
        "",
    ),
    "hk-remark-params": (
        ["criterion", "hk-remark", "--params", "2,2,2,1,3"],
        0,
        '{"params": [2, 2, 2, 1, 3], "d": 2009,'
        ' "factor_1": "1*[4,(-3+sqrt(2009))/2]",'
        ' "factor_2": "1*[10,(3+sqrt(2009))/2]",'
        ' "companion": "1*[10,(-7+sqrt(2009))/2]",'
        ' "product": "2*[10,(-7+sqrt(2009))/2]", "product_content": 2,'
        ' "product_norm": 40, "norm_bound_ok": false, "subset_sums":'
        ' {"unit": 3.10954900185, "3": 0.806963908853, "2": 0.806963908853,'
        ' "1": 2.06021492034}}\n',
        "",
    ),
    "criterion": (
        ["criterion", "--d", "61", "--norms", "3"],
        0,
        '{"d": 61, "norms": [3], "discrete_sum": 1.62596721439,'
        ' "exact_sum": 2.90573232369, "integral": 0.844626164415,'
        ' "lattice_count": 2, "log_norm_product": 1.09861228867,'
        ' "regulator": 3.66421846089}\n',
        "",
    ),
    "constants": (
        ["constants", "--m", "1", "--primes", "2,5"],
        0,
        '{"m": 1, "primes": [2, 5], "C_m": 144.0, "C_prime_m": 9.0,'
        ' "mertens_M": 0.26149, "headline_constant": 192.0, "star_modulus": 2,'
        ' "star_residue": 1, "star_root": 1}\n',
        "",
    ),
    "unit-exact": (
        ["unit", "--d", "61", "--exact"],
        0,
        '{"d": 61, "l": 3, "regulator": 3.66421846089, "norm_sign": -1,'
        ' "x": 39, "y": 5}\n',
        "",
    ),
    "cf": (
        ["cf", "--d", "13", "--a", "3", "--b", "1"],
        0,
        '{"d": 13, "a": 3, "b": 1, "preperiod": [0, 1], "period": [3],'
        ' "period_length": 1}\n',
        "",
    ),
    "verify-shanks": (
        ["verify", "shanks", "--kmin", "2", "--kmax", "4"],
        0,
        '{"family": "shanks", "k": 2, "n": 7, "d": 41, "regulator": 4.15912713463,'
        ' "bound": 4.15912713463, "ok": true}\n'
        '{"family": "shanks", "k": 3, "n": 11, "d": 113, "regulator": 7.3473001159,'
        ' "bound": 7.3473001159, "ok": true}\n'
        '{"family": "shanks", "k": 4, "n": 19, "d": 353,'
        ' "regulator": 11.8672937507, "bound": 11.8672937507, "ok": true}\n',
        "",
    ),
    "unit-error": (
        ["unit", "--d", "7"],
        1,
        "",
        '{"error": "ValueError", "message": "7 is not a real quadratic'
        ' discriminant"}\n',
    ),
    "cf-error": (
        ["cf", "--d", "13", "--a", "2", "--b", "1"],
        1,
        "",
        '{"error": "ValueError", "message": "quadratic irrational: 4a does not'
        ' divide b^2 - d (a=2, b=1, d=13)"}\n',
    ),
}


@pytest.mark.parametrize("name", list(PINNED))
def test_output_bytes_pinned(name):
    argv, code, out, err = PINNED[name]
    assert run_cli(argv) == (code, out, err)


def test_readme_commands_run(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = [
        line
        for block in re.findall(r"```sh\n(.*?)```", readme, re.S)
        for line in block.splitlines()
        if line.startswith("qrl ")
    ]
    assert lines
    monkeypatch.chdir(tmp_path)  # `family build --out spec.json` writes here
    pinned = 0
    for line in lines:
        code, out, err = run_cli(shlex.split(line, comments=True)[1:])
        assert code == 0, (line, err)
        # a comment that is a JSON record is the command's exact output
        record = re.search(r"#\s*(\{.*\})\s*$", line)
        if record:
            assert out == record.group(1) + "\n", line
            pinned += 1
    assert pinned


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        run_cli(["lvalue", "--d", "5", "--method", "bogus"])
    assert excinfo.value.code == 2


# ---------------------------------------------------------------------------
# the parser, built once per process


def test_main_builds_parser_once(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.prog == "qrl":
            built.append(self)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    for _ in range(2):
        assert run_cli(["unit", "--d", "61"])[0] == 0
    assert len(built) == 1
    assert cli.build_parser() is cli.build_parser() is built[0]


def test_cached_parser_dispatches_by_name(monkeypatch):
    assert run_cli(["unit", "--d", "61"])[0] == 0
    parser = cli.build_parser()
    seen = []

    def stand_in(args):
        seen.append(args.d)
        return 0

    # replaced after the parser was built, as a tracer or a test does
    monkeypatch.setattr(cli, "cmd_unit", stand_in)
    assert run_cli(["unit", "--d", "61"]) == (0, "", "")
    assert seen == [61]
    assert cli.build_parser() is parser


def test_cached_parser_keeps_no_state_between_calls():
    argv = ["family", "scan", "--kind", "yamamoto_plus", "--params", "p=13"]
    argv += ["--kmax", "5"]
    code, out, _ = run_cli(argv + ["--format", "json"])
    assert code == 0
    ks = [json.loads(line)["k"] for line in out.splitlines()]
    assert ks
    code, out, _ = run_cli(argv)
    assert code == 0
    header, *rows = out.splitlines()
    assert header == "k,n,d_1,squarefree,h,regulator,L_trunc,bound_ok"
    assert [int(row.split(",")[0]) for row in rows] == ks


@pytest.mark.parametrize("columns", ["80", "52"])
@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
def test_cached_parser_help_matches_fresh_parser(argv, columns, monkeypatch, capsys):
    cli.build_parser()  # cached, possibly at another width
    monkeypatch.setenv("COLUMNS", columns)
    texts = []
    for parse in (cli.main, cli.build_parser.__wrapped__().parse_args):
        with pytest.raises(SystemExit) as excinfo:
            parse(argv)
        assert excinfo.value.code == 0
        texts.append(capsys.readouterr())
    cached, fresh = texts
    assert cached.out.startswith("usage: qrl")
    assert cached == fresh
