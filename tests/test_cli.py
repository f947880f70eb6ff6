"""End-to-end checks for the command-line interface.

All commands run in-process through main(argv); stdout/stderr are captured
and parsed back, so the tests pin the exact emitted bytes where determinism
is part of the contract.
"""

import argparse
import csv
import io
import json
import math
import multiprocessing
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from functools import partial
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from qrl import cfrac, classno, cli, families, intarith
from qrl.cfrac import exact_unit, fundamental_unit, principal_expansion
from qrl.classno import l_value_exact, l_value_truncated
from qrl.cli import main
from test_families import INT64_EDGE_K


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


def test_unit_and_cf_take_d_beyond_float_range():
    # d = 4 * 10**400 + 1 = (2 * 10**200)**2 + 1 has period 3
    d = str(4 * 10**400 + 1)
    code, out, err = run_cli(["unit", "--d", d])
    assert code == 0 and err == ""
    record = one_json(out)
    assert (record["l"], record["norm_sign"]) == (3, -1)
    code, out, err = run_cli(["cf", "--d", d])
    assert code == 0 and err == ""
    assert one_json(out)["period_length"] == 3


def test_classno_refuses_unsettled_trial_division(monkeypatch):
    # d = 4 * 10**30 + 1 has no prime factor up to the limit (patched to
    # 1000 here), so its fundamental part cannot be settled
    monkeypatch.setattr(intarith, "SIEVE_PRIME_LIMIT", 1000)
    d = 4 * 10**30 + 1
    code, out, err = run_cli(["classno", "--d", str(d)])
    assert code == 1 and out == ""
    assert one_json(err) == {
        "error": "ValueError",
        "message": f"trial division of {d}: no prime up to SIEVE_PRIME_LIMIT ="
        " 1000 settles its cofactor",
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


def test_family_build_refuses_x_past_max_scale_digits_before_allocating():
    # 1e4300 has 4301 digits, and 1e999999999 would take some 400 MB as an
    # integer: argparse refuses both from their Decimal exponent
    tracemalloc.start()
    try:
        for x in (f"1e{cli.MAX_SCALE_DIGITS}", "1e999999999"):
            argv = ["family", "build", "--m", "1", "--primes", "5", "--x", x]
            err = io.StringIO()
            with pytest.raises(SystemExit) as excinfo, redirect_stderr(err):
                main(argv)
            assert excinfo.value.code == 2
            assert f"{x} is not an integer below 1e4300" in err.getvalue()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6


def test_family_scan_rejects_inconsistent_spec(tmp_path):
    spec_path = tmp_path / "spec.json"
    code, _, _ = run_cli(
        [
            "family", "build", "--m", "1", "--primes", "5", "--x", "1e10",
            "--out", str(spec_path),
        ]
    )
    assert code == 0
    built = json.loads(spec_path.read_text())
    altered = {
        "S": built["S"][:-1],
        "P_small": built["P_small"] + [7],
        "S_prime": built["S_prime"][1:],
        "q": built["q"] + 1,
        "n0": built["n0"] + 1,
    }
    for key, value in altered.items():
        spec_path.write_text(json.dumps({**built, key: value}))
        code, out, err = run_cli(
            ["family", "scan", "--spec", str(spec_path), "--kmax", "200"]
        )
        assert code == 1 and out == ""
        record = one_json(err)
        assert record["error"] == "ValueError"
        assert record["message"] == (
            f"spec {spec_path} does not match build_progression(m, primes, x, eps1)"
            f" in {key}"
        )


@pytest.mark.parametrize(
    "edit, message",
    [
        (None, "is not a JSON object"),
        ({"S_prime": None}, "field S_prime is missing"),
        ({"kmax": 5}, "field kmax is unknown"),
        ({"x": 1e23}, "field x does not fit its type int"),
        ({"m": True}, "field m does not fit its type int"),
        ({"q": "6006"}, "field q does not fit its type int"),
        ({"n0": 1365.0}, "field n0 does not fit its type int"),
        ({"primes": [5.0]}, "field primes does not fit its type tuple[int, ...]"),
        ({"S": 2}, "field S does not fit its type tuple[int, ...]"),
        (
            {"S_prime": [7, 11, False]},
            "field S_prime does not fit its type tuple[int, ...]",
        ),
        ({"eps1": "0.9"}, "field eps1 does not fit its type float"),
    ],
)
def test_family_scan_rejects_malformed_spec(tmp_path, edit, message):
    # the file's shape is checked before build_progression rebuilds the
    # spec: 1e23 reads as the float 99999999999999991611392, and true as 1.
    # edit None writes the spec inside a list; a field edited to None goes
    spec_path = tmp_path / "spec.json"
    build = ["family", "build", "--m", "1", "--primes", "5", "--x", "1e10"]
    assert run_cli([*build, "--out", str(spec_path)])[0] == 0
    built = json.loads(spec_path.read_text())
    if edit is None:
        data = [built]
    else:
        data = {k: v for k, v in {**built, **edit}.items() if v is not None}
    spec_path.write_text(json.dumps(data))
    code, out, err = run_cli(["family", "scan", "--spec", str(spec_path), "--kmax", "5"])
    assert code == 1 and out == ""
    record = one_json(err)
    assert record == {"error": "ValueError", "message": f"spec {spec_path} {message}"}


def test_family_scan_chowla_csv():
    code, out, _ = run_cli(
        ["family", "scan", "--kind", "chowla", "--kmin", "1", "--kmax", "10"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,n,d_1,squarefree,h,regulator,L_trunc,bound_ok"
    records = list(families.family_scan("chowla", {}, range(1, 11)))
    assert len(lines) == 1 + len(records)
    first = lines[1].split(",")
    assert first[0] == str(records[0].k)
    assert first[2] == str(records[0].d_values[0])
    assert first[-1] == "1"


def csv_writer_row(rec):
    """The CSV line of a scan record as csv.writer writes its cells: the
    oracle of cli._record_row and cli._progression_text, which format the
    line themselves."""

    def float_cell(value):
        return "" if value is None else f"{value:.12g}"

    def bool_cell(value):
        return "" if value is None else ("1" if value else "0")

    cells = [
        rec.k,
        rec.n,
        *rec.d_values,
        ";".join(map(bool_cell, rec.squarefree)),
        rec.h,
        float_cell(rec.regulator),
        float_cell(rec.L_truncated),
        bool_cell(rec.bound_ok),
    ]
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(cells)
    return out.getvalue()


def optional(strategy):
    return st.none() | strategy


scan_records = st.builds(
    families.ScanRecord,
    k=st.integers(),
    n=st.integers(),
    d_values=st.tuples(st.integers()),
    squarefree=st.tuples(st.booleans()),
    h=optional(st.integers()),
    regulator=optional(st.floats()),
    L_truncated=optional(st.floats()),
    bound=optional(st.floats()),
    bound_ok=optional(st.booleans()),
)


@settings(max_examples=300, deadline=None)
@given(scan_records)
@example(families.ScanRecord(1, 7371, (54331661,), (True,)))
@example(families.ScanRecord(-3, 0, (5,), (False,), 0, -0.0, 1e300, None, False))
def test_scan_row_matches_csv_writer(rec):
    assert cli._record_row(rec) == csv_writer_row(rec)
    # a row of (k, n, d) alone, as _progression_text writes it from the
    # sieve's rows, is that of a squarefree d with no analysis
    bare = families.ScanRecord(rec.k, rec.n, rec.d_values, (True,))
    rows = [(rec.k, rec.n, *rec.d_values)]
    with mock.patch.object(families, "progression_rows", lambda *args: rows):
        text = cli._progression_text(None, False, rec.k, rec.k)
    assert text == [csv_writer_row(bare)] == [cli._record_row(bare)]


@pytest.mark.parametrize(
    "d_values, squarefree", [((5, 8), (True, False)), ((5, 8), (True,)), ((5,), (True, False))]
)
def test_scan_row_refuses_two_d(d_values, squarefree):
    # the header has one d_1 and one squarefree cell: a second d or flag
    # would make a row of 9 cells
    rec = families.ScanRecord(-3, 0, d_values, squarefree, 0, -0.0, 1e300, None, False)
    with pytest.raises(ValueError):
        cli._record_row(rec)


def assert_progression_text_matches_records(spec, k_min, k_max, strict_range):
    # a window's CSV text, made from the survivors' (k, n, d) with no
    # record, against the rows of scan_squarefree's records
    records = families.scan_squarefree(spec, k_max, k_min, strict_range)
    want = "".join(map(csv_writer_row, records))
    assert "".join(map(cli._record_row, records)) == want
    text = cli._progression_text(spec, strict_range, k_min, k_max)
    assert len(text) == 1 and text[0] == want
    return records


@pytest.mark.parametrize(
    "k_min, k_max, strict_range",
    [
        (5, 4, False),  # empty
        (1, 1, False),
        (1, 20, True),  # a narrow window
        (-400, 5, False),
        (-400, 5, True),
        (20_001, 20_350, False),  # a sieve benchmark window
        (INT64_EDGE_K - 99, INT64_EDGE_K + 100, False),  # straddles 2**62
        (505_600, 505_700, False),  # past 2**62: Python integers
    ],
)
def test_progression_text_matches_records_on_the_paper_spec(k_min, k_max, strict_range):
    spec = families.build_progression(1, [5], 10**10, 0.9)
    records = assert_progression_text_matches_records(spec, k_min, k_max, strict_range)
    assert (records == []) == (k_min > k_max)
    if strict_range:
        assert records[0].k == 1


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(intarith.primes_up_to(60)),
    st.integers(10, 10**9),
    st.integers(-2000, 2000),
    st.integers(-1, 144),
    st.booleans(),
)
def test_progression_text_matches_records_on_random_specs(p, x, k_min, count, strict_range):
    spec = families.build_progression(1, [p], x, 0.9)
    assert_progression_text_matches_records(spec, k_min, k_min + count - 1, strict_range)


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


def test_family_scan_strict_range_through_the_parser(tmp_path):
    # --strict-range keeps the k >= 1 of --kmin -5 --kmax 50 on the paper's
    # x = 1e10 spec, so the scan equals --kmin 1 byte for byte, at --jobs 1
    # and 2, and the scan without the flag has more rows
    spec_path = tmp_path / "spec.json"
    build = ["family", "build", "--m", "1", "--primes", "5", "--x", "1e10"]
    assert run_cli([*build, "--out", str(spec_path)])[0] == 0
    scan = ["family", "scan", "--spec", str(spec_path), "--kmax", "50"]
    code, expected, err = run_cli([*scan, "--kmin", "1"])
    assert code == 0 and err == ""
    for jobs in ("1", "2"):
        strict = run_cli([*scan, "--kmin", "-5", "--strict-range", "--jobs", jobs])
        assert strict == (0, expected, "")
        code, loose, _ = run_cli([*scan, "--kmin", "-5", "--jobs", jobs])
        assert code == 0 and len(loose.splitlines()) > len(expected.splitlines())


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
    monkeypatch.setattr(multiprocessing, "Pool", partial(RecordingPool, created))
    monkeypatch.setattr(cli, "_cpu_count", lambda: 3)
    return created


def test_import_leaves_multiprocessing_out():
    # only a pool of two or more processes needs it, and it brings socket
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = "import sys, qrl.cli; print({'multiprocessing', 'socket'} & {*sys.modules})"
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout == "set()\n"


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
        patch.setattr(multiprocessing, "Pool", partial(RecordingPool, created))
        patch.setattr(cli, "_cpu_count", lambda: cpus)
        patch.setattr(cli, "SCAN_WINDOW", window)
        items = list(cli._run_chunked(span, lo, hi, jobs))
    # the windows' items, one after another, in order
    assert items == list(range(lo, hi + 1))
    assert [k for a, b in windows for k in range(a, b + 1)] == items
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
    # --out is replaced only by the complete output
    target = tmp_path / "scan.csv"
    target.write_bytes(b"earlier contents\n")
    code, out, err = run_cli(argv + ["--out", str(target)])
    assert code == 1 and out == "" and one_json(err)["error"] == "ValueError"
    assert target.read_bytes() == b"earlier contents\n"
    assert os.listdir(tmp_path) == ["scan.csv"]


def test_one_process_scan_prints_the_rows_before_a_failing_record():
    # cubic p = 2, q = 3: the period at k = 21 passes PERIOD_STEP_LIMIT; the
    # squarefree k up to 20 (all but 9 and 20) are printed before the error
    argv = ["family", "scan", "--kind", "cubic", "--params", "p=2,q=3"]
    code, out, err = run_cli(argv + ["--kmax", "22"])
    assert code == 1
    header, *rows = out.splitlines()
    assert header == ",".join(cli.SCAN_CSV_HEADER)
    assert [int(row.split(",")[0]) for row in rows] == [
        k for k in range(1, 21) if k not in (9, 20)
    ]
    record = one_json(err)
    assert record["error"] == "PeriodOverflow"
    assert "PERIOD_STEP_LIMIT" in record["message"]


def test_one_process_spec_scan_prints_the_records_before_a_failing_one(
    monkeypatch, tmp_path
):
    # the x = 1e10 progression with h, whose 4th d has its class number
    # refused: the 3 records before it, all in one window, are printed
    spec_path = tmp_path / "spec.json"
    assert main(["family", "build", "--m", "1", "--primes", "5", "--x", "1e10",
                 "--out", str(spec_path)]) == 0
    argv = ["family", "scan", "--spec", str(spec_path), "--kmax", "12", "--with-h"]
    code, full, err = run_cli(argv)
    assert code == 0 and err == ""
    header, *rows = full.splitlines(keepends=True)
    refused = int(rows[3].split(",")[2])
    class_number = families.class_number

    def refusing(d):
        if d == refused:
            raise ValueError(f"no h for d = {d}")
        return class_number(d)

    monkeypatch.setattr(families, "class_number", refusing)
    error = {"error": "ValueError", "message": f"no h for d = {refused}"}
    code, out, err = run_cli(argv)
    assert code == 1 and out == header + "".join(rows[:3])
    assert one_json(err) == error
    code, out, err = run_cli(argv + ["--format", "json"])
    records = [json.loads(line) for line in out.splitlines()]
    assert code == 1 and [rec["k"] for rec in records] == [1, 2, 3]
    assert [rec["h"] for rec in records] == [int(row.split(",")[4]) for row in rows[:3]]
    assert one_json(err) == error
    # --out is replaced only by the complete output
    target = tmp_path / "scan.csv"
    target.write_bytes(b"earlier contents\n")
    code, out, err = run_cli(argv + ["--out", str(target)])
    assert code == 1 and out == "" and one_json(err) == error
    assert target.read_bytes() == b"earlier contents\n"
    assert sorted(os.listdir(tmp_path)) == ["scan.csv", "spec.json"]


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


def test_scan_to_out_memory_does_not_grow_with_the_range(monkeypatch, tmp_path):
    # --out streams into a new file that replaces the path at the end, so
    # the peak is one window's, as on stdout
    monkeypatch.setattr(cli, "SCAN_WINDOW", 100)
    target = tmp_path / "scan.csv"

    def peak(kmax):
        tracemalloc.start()
        try:
            argv = ["family", "scan", "--kind", "chowla", "--kmax", kmax]
            assert main(argv + ["--out", str(target)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak("2000")  # warm-up: the caches fill here, not in the measured runs
    small, large = peak("500"), peak("2000")
    assert large < 1.2 * small, (small, large)
    _, stdout, _ = run_cli(["family", "scan", "--kind", "chowla", "--kmax", "2000"])
    assert target.read_text() == stdout
    assert os.listdir(tmp_path) == ["scan.csv"]


def test_out_to_a_special_file_is_written_in_place(monkeypatch):
    replaced = []
    monkeypatch.setattr(os, "replace", lambda *paths: replaced.append(paths))
    argv = ["family", "scan", "--kind", "chowla", "--kmax", "50"]
    assert run_cli(argv + ["--out", os.devnull]) == (0, "", "")
    assert replaced == []


def test_out_creates_like_open_and_follows_symlinks(tmp_path):
    _, stdout, _ = run_cli(["unit", "--d", "61"])
    umask = os.umask(0o027)
    try:
        new = tmp_path / "new.json"
        assert run_cli(["unit", "--d", "61", "--out", str(new)]) == (0, "", "")
        assert new.stat().st_mode & 0o777 == 0o640
    finally:
        os.umask(umask)
    assert new.read_text() == stdout
    # a replaced file keeps its mode; a symlink is written through
    new.chmod(0o600)
    link = tmp_path / "link.json"
    link.symlink_to(new)
    _, other, _ = run_cli(["unit", "--d", "13"])
    assert run_cli(["unit", "--d", "13", "--out", str(link)]) == (0, "", "")
    assert link.is_symlink() and new.read_text() == other
    assert new.stat().st_mode & 0o777 == 0o600
    # an error opening the file names the path asked for
    missing = tmp_path / "no-such-folder" / "x.json"
    code, _, err = run_cli(["unit", "--d", "61", "--out", str(missing)])
    assert code == 1 and str(missing) in one_json(err)["message"]


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
    records = list(families.family_scan("shanks", {}, range(2, 6)))
    assert [row["k"] for row in rows] == [rec.k for rec in records]
    assert all(row["bound_ok"] for row in rows)


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
        "message": "progression_rows needs a spec with m = 1, this one has m = 2",
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
        "message": "progression_rows needs a spec with m = 1, this one has m = 2",
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
        reg = mp.make_mpf(cfrac.regulator_enclosure(d)[0])
        value = float(2 * h * reg / mp.sqrt(d))
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


@pytest.mark.parametrize("bound", ["0", "-4"])
def test_family_scan_refuses_euler_bound_below_one(tmp_path, bound):
    # B = 0 is refused like any B < 1, not read as "no L"
    spec_path = tmp_path / "spec.json"
    build = ["family", "build", "--m", "1", "--primes", "5", "--x", "1e10"]
    assert run_cli(build + ["--out", str(spec_path)])[0] == 0
    code, out, err = run_cli(
        [
            "family", "scan", "--spec", str(spec_path), "--kmax", "1", "--with-h",
            "--euler-bound", bound,
        ]
    )
    assert code == 1 and out == ""
    assert one_json(err) == {
        "error": "ValueError",
        "message": "l_value_truncated: bound must be >= 1",
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


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["--kind", "chowla", "--with-h"],
            "family scan --kind does not take --with-h",
        ),
        (
            ["--kind", "shanks", "--strict-range", "--euler-bound", "7"],
            "family scan --kind does not take --strict-range, --euler-bound",
        ),
        (
            ["--spec", "no-such-spec.json", "--params", "p=5"],
            "family scan --spec without --with-h does not take --params",
        ),
        (
            ["--spec", "no-such-spec.json", "--with-h", "--params", "p=5"],
            "family scan --spec does not take --params",
        ),
        (
            ["--spec", "no-such-spec.json", "--euler-bound", "7"],
            "family scan --spec without --with-h does not take --euler-bound",
        ),
        (
            ["lvalue", "--d", "5", "--bound", "7"],
            "lvalue --method exact does not take --bound",
        ),
        (
            ["lvalue", "--d", "5", "--method", "exact", "--bound", "0"],
            "lvalue --method exact does not take --bound",
        ),
    ],
)
def test_scan_and_lvalue_refuse_flags_they_do_not_take(argv, message):
    # a family scan refuses before it reads --spec, so the file need not exist
    if argv[0] != "lvalue":
        argv = ["family", "scan", *argv, "--kmax", "3"]
    code, out, err = run_cli(argv)
    assert code == 1 and out == ""
    assert one_json(err) == {"error": "ValueError", "message": message}


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--d", "61", "--norms", "3", "--search"], "criterion does not take --search"),
        (
            ["--d", "61", "--norms", "3", "--params", "2,2,2,1,43"],
            "criterion does not take --params",
        ),
        (
            ["hk-remark", "--search", "--d", "61", "--norms", "3"],
            "criterion hk-remark does not take --d, --norms",
        ),
        (
            ["hk-remark", "--params", "2,2,2,1,43", "--search"],
            "criterion hk-remark --params does not take --search",
        ),
    ],
)
def test_criterion_refuses_flags_its_mode_does_not_take(argv, message):
    code, out, err = run_cli(["criterion", *argv])
    assert code == 1 and out == ""
    assert one_json(err) == {"error": "ValueError", "message": message}


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["criterion", "--d", "61", "--norms", "abc"],
            "--norms: 'abc' is not an integer",
        ),
        (
            ["criterion", "--d", "61", "--norms", "6=2*x"],
            "--norms: 'x' is not an integer",
        ),
        (
            [
                "family", "scan", "--kind", "yamamoto_plus", "--params", "p=x",
                "--kmax", "3",
            ],
            "--params: 'x' is not an integer",
        ),
        (
            ["criterion", "hk-remark", "--params", "2,2,2,1,x"],
            "--params: 'x' is not an integer",
        ),
    ],
)
def test_malformed_list_token_is_named(argv, message):
    code, out, err = run_cli(argv)
    assert code == 1 and out == ""
    assert one_json(err) == {"error": "ValueError", "message": message}


def test_malformed_primes_token_is_a_usage_error():
    err = io.StringIO()
    with redirect_stderr(err), pytest.raises(SystemExit) as excinfo:
        main(["constants", "--m", "1", "--primes", "2,x"])
    assert excinfo.value.code == 2
    assert "argument --primes: 'x' is not an integer" in err.getvalue()
    assert "_parse_primes" not in err.getvalue()


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
    "criterion-error": (
        ["criterion", "--d", "105", "--norms", "6=3*2,10=2*5,4"],
        1,
        "",
        '{"error": "CriterionError", "message": "hypotheses fail: gcd(3, 105)'
        " != 1; 2 is not a squarefree divisor of the fundamental discriminant;"
        " 10 is not the norm of a reduced principal ideal; coprime parts of"
        ' entries 1 and 2 share a common factor"}\n',
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


# the x = 10**10 progression spec scanned without and with h, byte for byte
SCAN_K30 = (
    "k,n,d_1,squarefree,h,regulator,L_trunc,bound_ok\n"
    "1,7371,54331661,1,,,,\n"
    "2,13377,178944149,1,,,,\n"
    "3,19383,375700709,1,,,,\n"
    "4,25389,644601341,1,,,,\n"
    "5,31395,985646045,1,,,,\n"
    "6,37401,1398834821,1,,,,\n"
    "7,43407,1884167669,1,,,,\n"
    "8,49413,2441644589,1,,,,\n"
    "9,55419,3071265581,1,,,,\n"
    "10,61425,3773030645,1,,,,\n"
    "12,73437,5392992989,1,,,,\n"
    "13,79443,6311190269,1,,,,\n"
    "14,85449,7301531621,1,,,,\n"
    "15,91455,8364017045,1,,,,\n"
    "16,97461,9498646541,1,,,,\n"
    "17,103467,10705420109,1,,,,\n"
    "18,109473,11984337749,1,,,,\n"
    "19,115479,13335399461,1,,,,\n"
    "20,121485,14758605245,1,,,,\n"
    "21,127491,16253955101,1,,,,\n"
    "22,133497,17821449029,1,,,,\n"
    "23,139503,19461087029,1,,,,\n"
    "24,145509,21172869101,1,,,,\n"
    "25,151515,22956795245,1,,,,\n"
    "26,157521,24812865461,1,,,,\n"
    "27,163527,26741079749,1,,,,\n"
    "28,169533,28741438109,1,,,,\n"
    "29,175539,30813940541,1,,,,\n"
    "30,181545,32958587045,1,,,,\n"
)
SCAN_K3_WITH_H = (
    "k,n,d_1,squarefree,h,regulator,L_trunc,bound_ok\n"
    "1,7371,54331661,1,6,335.728044607,0.549232700743,1\n"
    "2,13377,178944149,1,1,2955.54750928,0.432912298186,1\n"
    "3,19383,375700709,1,4,944.621660995,0.385745406663,1\n"
)
SCAN_K30_JSON = (
    '{"k": 30, "n": 181545, "d_values": [32958587045], "squarefree": [true],'
    ' "h": 1390, "regulator": 22.6090797596, "L_truncated": 0.345467491151,'
    ' "bound": 30010.0385325, "bound_ok": true}\n'
)


def test_scan_output_bytes_pinned(tmp_path):
    spec = tmp_path / "spec.json"
    build = ["family", "build", "--m", "1", "--primes", "5", "--x", "1e10"]
    assert run_cli(build + ["--out", str(spec)]) == (0, "", "")
    scan = ["family", "scan", "--spec", str(spec)]
    assert run_cli(scan + ["--kmax", "30"]) == (0, SCAN_K30, "")
    assert run_cli(scan + ["--kmax", "3", "--with-h"]) == (0, SCAN_K3_WITH_H, "")
    argv = scan + ["--kmin", "30", "--kmax", "30", "--with-h", "--format", "json"]
    assert run_cli(argv) == (0, SCAN_K30_JSON, "")


# the named families' scans through _record_row, byte for byte: Chowla's
# table (n0, q, c) = (0, 2, 1) and Yamamoto's n^2 - 12, sieved over |n|,
# with the regulator and bound_ok cells
SCAN_CHOWLA_K40 = (
    "k,n,d_1,squarefree,h,regulator,L_trunc,bound_ok\n"
    "1,1,5,1,,0.48121182506,,1\n"
    "2,2,17,1,,2.09471254726,,1\n"
    "3,3,37,1,,2.49177985264,,1\n"
    "4,4,65,1,,2.77647228072,,1\n"
    "5,5,101,1,,2.9982229503,,1\n"
    "6,6,145,1,,3.1797854377,,1\n"
    "7,7,197,1,,3.33347758688,,1\n"
    "8,8,257,1,,3.46671103788,,1\n"
    "10,10,401,1,,3.68950386899,,1\n"
    "11,11,485,1,,3.7847057631,,1\n"
    "12,12,577,1,,3.87163475639,,1\n"
    "13,13,677,1,,3.95161333608,,1\n"
    "14,14,785,1,,4.02567041587,,1\n"
    "15,15,901,1,,4.09462222433,,1\n"
    "17,17,1157,1,,4.21972389803,,1\n"
    "18,18,1297,1,,4.27685896446,,1\n"
    "20,20,1601,1,,4.38218284807,,1\n"
    "21,21,1765,1,,4.43095849208,,1\n"
    "22,22,1937,1,,4.4774659217,,1\n"
    "23,23,2117,1,,4.52190670356,,1\n"
    "24,24,2305,1,,4.56445668076,,1\n"
    "25,25,2501,1,,4.60527017099,,1\n"
    "26,26,2705,1,,4.64448334194,,1\n"
    "27,27,2917,1,,4.68221694998,,1\n"
    "28,28,3137,1,,4.71857858115,,1\n"
    "29,29,3365,1,,4.75366449911,,1\n"
    "30,30,3601,1,,4.78756117999,,1\n"
    "31,31,3845,1,,4.82034659568,,1\n"
    "32,32,4097,1,,4.85209129349,,1\n"
    "33,33,4357,1,,4.88285930975,,1\n"
    "36,36,5185,1,,4.9698615214,,1\n"
    "37,37,5477,1,,4.9972579244,,1\n"
    "38,38,5777,1,,5.02392380058,,1\n"
    "39,39,6085,1,,5.0498970961,,1\n"
    "40,40,6401,1,,5.07521287545,,1\n"
)
SCAN_YAMAMOTO_MINUS_P3 = (
    "k,n,d_1,squarefree,h,regulator,L_trunc,bound_ok\n"
    "-29,-29,829,1,,17.2488060394,,1\n"
    "-27,-27,717,1,,5.48477971571,,1\n"
    "-25,-25,613,1,,11.5004783198,,1\n"
    "-23,-23,517,1,,9.26605885179,,1\n"
    "-21,-21,429,1,,4.9766861766,,1\n"
    "-19,-19,349,1,,9.82119231276,,1\n"
    "-17,-17,277,1,,7.86825441198,,1\n"
    "-15,-15,213,1,,4.29027173584,,1\n"
    "-13,-13,157,1,,5.36131420646,,1\n"
    "-11,-11,109,1,,5.56453508676,,1\n"
    "-9,-9,69,1,,3.21727197116,,1\n"
    "-7,-7,37,1,,2.49177985264,,1\n"
    "-5,-5,13,1,,1.19476321729,,1\n"
    "5,5,13,1,,1.19476321729,,1\n"
    "7,7,37,1,,2.49177985264,,1\n"
    "9,9,69,1,,3.21727197116,,1\n"
    "11,11,109,1,,5.56453508676,,1\n"
    "13,13,157,1,,5.36131420646,,1\n"
    "15,15,213,1,,4.29027173584,,1\n"
    "17,17,277,1,,7.86825441198,,1\n"
    "19,19,349,1,,9.82119231276,,1\n"
    "21,21,429,1,,4.9766861766,,1\n"
    "23,23,517,1,,9.26605885179,,1\n"
    "25,25,613,1,,11.5004783198,,1\n"
    "27,27,717,1,,5.48477971571,,1\n"
    "29,29,829,1,,17.2488060394,,1\n"
)


def test_named_family_scan_output_bytes_pinned():
    scan = ["family", "scan", "--kind"]
    argv = scan + ["chowla", "--kmax", "40"]
    assert run_cli(argv) == (0, SCAN_CHOWLA_K40, "")
    argv = scan + ["yamamoto_minus", "--params", "p=3", "--kmin", "-30", "--kmax", "30"]
    assert run_cli(argv) == (0, SCAN_YAMAMOTO_MINUS_P3, "")


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
