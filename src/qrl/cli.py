"""Command-line front end: deterministic JSON/CSV emission for all checks.

Every command prints one JSON record per line (or CSV rows for scans) with
floats normalized to 12 significant digits, so re-running a command with the
same configuration produces byte-identical output.  Errors become a single
machine-readable JSON record on stderr and a nonzero exit status; a scan
streams its rows, so those before a failing record or window stay on stdout,
while an --out file is replaced only by the complete output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import stat
import sys
from contextlib import contextmanager, nullcontext, suppress
from dataclasses import asdict, fields
from decimal import Decimal, InvalidOperation
from functools import cache, lru_cache, partial
from itertools import chain, islice

from . import families
from .cfrac import cf_expand, exact_unit, fundamental_unit
from .classno import (
    MAX_EULER_BOUND,
    class_number,
    l_value_exact,
    l_value_truncated,
)
from .criterion import (
    CriterionInput,
    NormSplit,
    evaluate_criterion,
    nonprimitive_product_example,
    search_nonprimitive_example,
)
from .quadorder import (
    QuadIdeal,
    QuadIrrational,
    classify,
    format_ideal_literal,
    parse_ideal_literal,
)

DEFAULT_EPS1 = 0.9
# family scan --with-h: B = floor(min((log x)^this, MAX_EULER_BOUND)) by default
DEFAULT_BOUND_EXPONENT = 2.05
# --x digit cap: json writes integers of at most 4300 digits, and the cap
# keeps an argument like 1e999999999 from building a huge integer
MAX_SCALE_DIGITS = 4300

# k per window of a one-process scan: each window pays the sieve's fixed
# per-call cost, so a window spans a typical scan (perfbench's sieve items
# cover 350 k) while bounding the records held at once
SCAN_WINDOW = 4096

# checked spec texts kept per process (see _checked_spec)
SPEC_CACHE_SIZE = 8

SCAN_CSV_HEADER = [
    "k", "n", "d_1", "squarefree", "h", "regulator", "L_trunc", "bound_ok"
]


# ---------------------------------------------------------------------------
# serialization helpers


def _round_floats(value):
    """12-significant-digit normalization, applied recursively."""
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: _round_floats(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round_floats(v) for v in value]
    return value


@contextmanager
def _replacing(path: str):
    """A text stream for --out. A path that exists and is not a regular
    file, such as /dev/null, is opened and written as it is. Otherwise the
    stream is a new file beside the path's target (a symlink is followed,
    as open() does), created like open() would create it (mode 0o666 less
    the umask, or the mode of the file it replaces), and moved onto the
    target by os.replace once the block ends; if the block fails, the new
    file is removed and the target left untouched."""
    target = os.path.realpath(path)
    if os.path.exists(target) and not os.path.isfile(target):
        with open(path, "w", encoding="utf-8", newline="") as out:
            yield out
        return
    folder, name = os.path.split(target)
    temp = os.path.join(folder, f".{name}.{os.getpid()}.{os.urandom(4).hex()}")
    try:
        fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        exc.filename = path  # the error names the path asked for
        raise
    try:
        with open(fd, "w", encoding="utf-8", newline="") as out:
            with suppress(FileNotFoundError):  # a new file keeps its mode
                os.chmod(temp, stat.S_IMODE(os.stat(target).st_mode))
            yield out
        os.replace(temp, target)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(temp)
        raise


def _write(args, records, header=None) -> int:
    """Print each record as one JSON line (a str item is taken to be a
    finished line, see _verify_line, and written as it is), or, given header
    (a list of cell names), the CSV header line and then each item of
    records as it is:
    finished CSV text, the line of one record (see _record_row) or the rows
    of a scan window without h (see _progression_text); return 0. The first
    item is pulled before any stream opens, so a command that fails at once
    prints nothing; the stream, stdout or --out (see _replacing), then gets
    each item as it arrives, so a failure leaves the items before it on
    stdout and an --out file untouched."""
    path = getattr(args, "out", None)
    records = iter(records)
    records = chain(list(islice(records, 1)), records)
    stream = _replacing(path) if path else nullcontext(sys.stdout)
    with stream as out:
        if header is None:
            for record in records:
                if isinstance(record, str):
                    out.write(record)
                else:
                    print(json.dumps(_round_floats(record)), file=out)
        else:
            out.write(",".join(header) + "\n")
            out.writelines(records)
    return 0


# ---------------------------------------------------------------------------
# argument parsing helpers


def _parse_scale(text: str) -> int:
    """Integer argument that also accepts scientific notation like 1e10,
    parsed exactly (no float rounding)."""
    try:
        value = Decimal(text)
    except InvalidOperation:
        value = Decimal("NaN")
    if (
        not value.is_finite()
        or value.adjusted() >= MAX_SCALE_DIGITS
        or value != value.to_integral_value()
    ):
        raise argparse.ArgumentTypeError(
            f"{text} is not an integer below 1e{MAX_SCALE_DIGITS}"
        )
    return int(value)


def _tokens(text: str) -> list[str]:
    """The stripped, nonempty comma-separated tokens of a list flag."""
    return [token for token in map(str.strip, text.split(",")) if token]


def _int(token: str, flag: str) -> int:
    """int(token), or a ValueError that names the flag and the token."""
    try:
        return int(token)
    except ValueError:
        raise ValueError(f"{flag}: {token!r} is not an integer") from None


def _parse_primes(text: str) -> list[int]:
    """The --primes list, an argparse type: a bad token is a usage error."""
    primes = []
    for token in _tokens(text.replace(";", ",")):
        try:
            primes.append(int(token))
        except ValueError:
            raise argparse.ArgumentTypeError(f"{token!r} is not an integer") from None
    return primes


def _parse_norm_splits(text: str) -> tuple[NormSplit, ...]:
    """Parse "6=2*3, 5" into norm decompositions; a bare n means n = n * 1."""
    splits = []
    for token in _tokens(text):
        total, eq, rest = token.partition("=")
        left, star, right = rest.partition("*") if eq else (total, "*", "1")
        if not star:
            raise ValueError(f"norm decomposition {token!r} must look like n=a*b")
        splits.append(NormSplit(*(_int(t, "--norms") for t in (total, left, right))))
    if not splits:
        raise ValueError("at least one norm is required")
    return tuple(splits)


def _parse_params(text: str | None) -> dict[str, int]:
    params = {}
    for token in _tokens(text or ""):
        key, eq, value = token.partition("=")
        if not eq:
            raise ValueError(f"parameter {token!r} must look like name=value")
        params[key.strip()] = _int(value, "--params")
    return params


def _refuse_unused(command: str, given: dict, takes) -> None:
    """Refuse the flags set in given (value not None or False) and not in takes."""
    unused = [
        flag
        for flag, value in given.items()
        if flag not in takes and value is not None and value is not False
    ]
    if unused:
        raise ValueError(f"{command} does not take {', '.join(unused)}")


# ---------------------------------------------------------------------------
# parallel scan plumbing


def _run_chunk(task):
    """list(task()), a window's items as a pool sends them back, by a
    module-level function that a pool can pickle."""
    return list(task())


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_chunked(task_of_span, lo: int, hi: int, jobs: int):
    """Yield the items of task_of_span(k_min=a, k_max=b), records or CSV
    text, for consecutive windows [a, b] of [lo, hi], in order. One process
    reads windows of SCAN_WINDOW k, each item as its task makes it, so a
    lazy task's items are made as they are read; a pool of at most one
    process per CPU runs about 16 windows per process, so no process is left
    with the largest d alone, and sends each window back as a list
    (_run_chunk). An empty range runs one empty window, which checks the
    arguments."""
    if jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {jobs}")
    total = max(0, hi - lo + 1)
    jobs = max(1, min(jobs, total, _cpu_count()))
    size = SCAN_WINDOW if jobs == 1 else min(SCAN_WINDOW, -(-total // (16 * jobs)))
    tasks = (
        partial(task_of_span, k_min=a, k_max=min(a + size - 1, hi))
        for a in range(lo, hi + 1, size) or [lo]
    )
    if jobs == 1:
        for task in tasks:
            yield from task()
        return
    # imported here: multiprocessing brings socket and friends, which a
    # single-process run never needs
    import multiprocessing

    with multiprocessing.Pool(processes=jobs) as pool:
        for window in pool.imap(_run_chunk, tasks):
            yield from window


def _family_span(kind, params, k_min, k_max):
    return families.family_scan(kind, params, range(k_min, k_max + 1))


# ---------------------------------------------------------------------------
# scan record emission


def _record_row(rec: families.ScanRecord) -> str:
    """The CSV line of a record's cells, with its newline: an int as
    str(int), None as "", a float to 12 significant digits, a bool as 1 or 0.
    No cell can hold a comma, a quote or a line break, so csv.writer would
    quote none of them and would write the same bytes. A record of two d,
    which would not fit SCAN_CSV_HEADER, raises ValueError."""
    (d,) = rec.d_values
    (squarefree,) = rec.squarefree
    h, reg, l_val, ok = rec.h, rec.regulator, rec.L_truncated, rec.bound_ok
    return (
        f"{rec.k},{rec.n},{d},{1 if squarefree else 0},{'' if h is None else h},"
        f"{'' if reg is None else format(reg, '.12g')},"
        f"{'' if l_val is None else format(l_val, '.12g')},"
        f"{'' if ok is None else 1 if ok else 0}\n"
    )


def _verify_line(family: str, rec: families.ScanRecord) -> str:
    """The JSON line of a qrl verify row, with its newline: the bytes of
    json.dumps(_round_floats(row)) + "\n" for the row {"family", "k", "n",
    "d", "regulator", "bound", "ok"}, written without building the dict.
    family is a name of families.FAMILIES, which json writes as it is in
    quotes; regulator and bound are finite floats, as every verified family
    has, which json writes as repr does."""
    reg, bound = float(f"{rec.regulator:.12g}"), float(f"{rec.bound:.12g}")
    return (
        f'{{"family": "{family}", "k": {rec.k}, "n": {rec.n}, '
        f'"d": {rec.d_values[0]}, "regulator": {reg!r}, "bound": {bound!r}, '
        f'"ok": {"true" if rec.bound_ok else "false"}}}\n'
    )


def _progression_text(spec, strict_range, k_min, k_max) -> list[str]:
    """The CSV text of a window of the progression without h, made in the
    process that sieved it, as one string of the rows _record_row would
    write: a pool pickles that string, and no record is built."""
    rows = families.progression_rows(spec, k_max, k_min, strict_range)
    return ["".join([f"{k},{n},{d},1,,,,\n" for k, n, d in rows])]


# ---------------------------------------------------------------------------
# subcommand implementations


def cmd_cf(args) -> int:
    d, a = args.d, args.a
    b = args.b if args.b is not None else d % 2
    exp = cf_expand(QuadIrrational(d, a, b))
    record = {
        "d": d,
        "a": a,
        "b": b,
        "preperiod": list(exp.preperiod),
        "period": list(exp.period),
        "period_length": len(exp.period),
    }
    return _write(args, [record])


def cmd_unit(args) -> int:
    info = fundamental_unit(args.d)
    record = {
        "d": args.d,
        "l": info.period_length,
        "regulator": info.regulator,
        "norm_sign": info.norm_sign,
    }
    if args.exact:
        # a unit whose x json cannot write is refused from R, before
        # exact_unit runs, wherever R puts x past the cap
        low, high = _unit_digit_bounds(info.regulator)
        if low <= MAX_SCALE_DIGITS:
            unit = exact_unit(args.d)
            low = high = _decimal_digits(unit.x)
        if low > MAX_SCALE_DIGITS:
            digits = low if low == high else f"{low} or {high}"
            raise ValueError(
                f"unit --exact: x of d = {args.d} has {digits} digits, more"
                f" than the {MAX_SCALE_DIGITS} that json writes of an integer"
            )
        record["x"] = unit.x
        record["y"] = unit.y
    return _write(args, [record])


def _unit_digit_bounds(regulator: float) -> tuple[int, int]:
    """Bounds low <= high on the decimal digits of x in the fundamental
    unit (x + y sqrt d)/2 of regulator R (the enclosure's value to the
    nearest float): x = eps + N(eps)/eps lies within 1 of eps = e^R, so
    where eps >= 10^10 log10 x is R/ln 10 to within 1e-9 + R 2^-40, which
    covers the enclosure's error, the float roundings and that 1, and the
    bounds are at most one apart; below, they are 1 and 11."""
    mid = regulator / math.log(10)
    slack = 1e-9 + regulator * 2**-40
    if mid - slack < 10:
        return 1, 11
    return math.floor(mid - slack) + 1, math.floor(mid + slack) + 1


def _decimal_digits(n: int) -> int:
    """The decimal digits of n > 0, counted without writing n out."""
    k = max(1, int((n.bit_length() - 1) * math.log10(2)))  # at most the count
    while n >= 10**k:
        k += 1
    return k


def cmd_classno(args) -> int:
    h, h_narrow = class_number(args.d)
    return _write(args, [{"d": args.d, "h": h, "h_narrow": h_narrow}])


def cmd_lvalue(args) -> int:
    if args.method == "exact":
        _refuse_unused("lvalue --method exact", {"--bound": args.bound}, ())
        record = {"d": args.d, "method": "exact", "value": l_value_exact(args.d)}
    else:
        bound = 10**5 if args.bound is None else args.bound
        record = {
            "d": args.d,
            "method": "euler",
            "bound": bound,
            "value": l_value_truncated(args.d, bound),
        }
    return _write(args, [record])


def cmd_family_build(args) -> int:
    spec = families.build_progression(args.m, args.primes, args.x, args.eps1)
    return _write(args, [asdict(spec)])


def _load_spec(path: str) -> families.ProgressionSpec:
    """Read a spec file and return its checked spec (see _checked_spec).
    The file is read on every call; its check runs once per text."""
    with open(path, encoding="utf-8") as fh:
        return _checked_spec(path, fh.read())


@lru_cache(maxsize=SPEC_CACHE_SIZE)
def _checked_spec(path: str, text: str) -> families.ProgressionSpec:
    """The spec of the text of the file at path; reject it unless it is a
    JSON object of exactly the ProgressionSpec fields, eps1 a number, the
    tuples lists of integers and the rest integers (not true or false), and
    build_progression reproduces it. Cached per (path, text), since each
    refusal names the path: an edited file is checked again, and a refusal
    is not cached."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError(f"spec {path} is not a JSON object")
    kinds = {field.name: field.type for field in fields(families.ProgressionSpec)}
    for name in sorted(data.keys() ^ kinds.keys()):
        state = "missing" if name in kinds else "unknown"
        raise ValueError(f"spec {path} field {name} is {state}")
    for name, kind in kinds.items():
        values = data[name] if kind.startswith("tuple") else [data[name]]
        number = float if kind == "float" else int
        if not isinstance(values, list) or {type(v) for v in values} - {int, number}:
            raise ValueError(f"spec {path} field {name} does not fit its type {kind}")
    spec = families.build_progression(
        data["m"], data["primes"], data["x"], float(data["eps1"])
    )
    # compared as JSON reads them, with the spec's tuples as lists
    wrong = []
    for field in fields(spec):
        value = getattr(spec, field.name)
        if data[field.name] != (list(value) if isinstance(value, tuple) else value):
            wrong.append(field.name)
    if wrong:
        raise ValueError(
            f"spec {path} does not match build_progression(m, primes, x, eps1)"
            f" in {', '.join(wrong)}"
        )
    return spec


def cmd_family_scan(args) -> int:
    if bool(args.spec) == bool(args.kind):
        raise ValueError("family scan needs exactly one of --spec or --kind")
    if args.kind:
        command, takes = "family scan --kind", ("--params",)
    elif args.with_h:
        command = "family scan --spec"
        takes = ("--strict-range", "--with-h", "--euler-bound")
    else:
        command, takes = "family scan --spec without --with-h", ("--strict-range",)
    flags = "--params", "--strict-range", "--with-h", "--euler-bound"
    values = args.params, args.strict_range, args.with_h, args.euler_bound
    _refuse_unused(command, dict(zip(flags, values)), takes)
    if args.kmax < 0:
        raise ValueError("--kmax must be nonnegative")
    if args.spec:
        spec = _load_spec(args.spec)
        bound = args.euler_bound
        if args.with_h and bound is None:
            bound = int(
                min(math.log(spec.x) ** DEFAULT_BOUND_EXPONENT, MAX_EULER_BOUND)
            )
        scan = partial(
            families.progression_records,
            spec,
            strict_range=args.strict_range,
            with_h=args.with_h,
            euler_bound_B=bound,
        )
    else:
        scan = partial(_family_span, args.kind, _parse_params(args.params))
    span = (args.kmin, args.kmax, args.jobs)
    if args.format == "json":
        return _write(args, map(asdict, _run_chunked(scan, *span)))
    if args.spec and not args.with_h:
        text = _run_chunked(partial(_progression_text, spec, args.strict_range), *span)
        return _write(args, text, SCAN_CSV_HEADER)
    return _write(args, map(_record_row, _run_chunked(scan, *span)), SCAN_CSV_HEADER)


def cmd_verify(args) -> int:
    signed = args.family not in families.FAMILIES
    kind = f"{args.family}_{args.sign or 'plus'}" if signed else args.family
    family = families.FAMILIES[kind]
    # --sign picks NAME_<sign>; --p is the family parameter p
    takes = [f"--{name}" for name in family.params] + (["--sign"] if signed else [])
    _refuse_unused(f"verify {args.family}", {"--p": args.p, "--sign": args.sign}, takes)
    params = {name: getattr(args, name) for name in family.params}
    for name, value in params.items():
        if value is None:
            raise ValueError(f"verify {args.family} requires --{name}")
    lo = args.kmin if args.kmin is not None else family.verify_range[0]
    hi = args.kmax if args.kmax is not None else family.verify_range[1]
    violations = 0

    def rows():
        nonlocal violations
        for rec in _run_chunked(partial(_family_span, kind, params), lo, hi, args.jobs):
            violations += not rec.bound_ok
            yield _verify_line(args.family, rec)

    _write(args, rows())
    if violations:
        summary = {"family": args.family, "violations": violations}
        print(json.dumps(summary), file=sys.stderr)
    return 1 if violations else 0


def cmd_constants(args) -> int:
    report = families.compute_constants(args.m, args.primes)
    record = {"m": args.m, "primes": list(args.primes), **asdict(report)}
    witness = families.check_star(args.m, args.primes)
    if witness is not None:
        record.update((f"star_{name}", v) for name, v in asdict(witness).items())
    return _write(args, [record])


def cmd_criterion(args) -> int:
    if args.mode is None:
        command, takes = "criterion", ("--d", "--norms")
    elif args.params is not None:
        command, takes = "criterion hk-remark --params", ("--params",)
    else:
        command, takes = "criterion hk-remark", ("--search",)
    flags = "--d", "--norms", "--search", "--params"
    values = args.d, args.norms, args.search, args.params
    _refuse_unused(command, dict(zip(flags, values)), takes)
    if args.mode is None:
        if args.d is None or args.norms is None:
            raise ValueError("criterion needs --d and --norms")
        splits = _parse_norm_splits(args.norms)
        _, bound = evaluate_criterion(CriterionInput(args.d, splits))
        return _write(args, [asdict(bound)])
    if args.params is not None:
        values = [_int(token, "--params") for token in _tokens(args.params)]
        if len(values) != 5:
            raise ValueError("--params needs five integers r,s,t,k,c")
        rec = nonprimitive_product_example(*values)
    elif args.search:
        rec = search_nonprimitive_example()
    else:
        raise ValueError("criterion hk-remark needs --search or --params")
    # the NonprimitiveProduct fields in order, each ideal as its literal
    record = {field.name: getattr(rec, field.name) for field in fields(rec)}
    for name, value in record.items():
        if isinstance(value, QuadIdeal):
            record[name] = format_ideal_literal(value)
    return _write(args, [record])


def cmd_ideal(args) -> int:
    ideal = parse_ideal_literal(args.literal)
    record = {
        "literal": format_ideal_literal(ideal),
        **asdict(ideal),
        "norm": ideal.norm,
        **asdict(classify(ideal)),
    }
    return _write(args, [record])


# ---------------------------------------------------------------------------
# parser


def _add_common(sub, func, jobs: bool = False):
    sub.add_argument("--out", help="write output to this path instead of stdout")
    if jobs:
        sub.add_argument(
            "--jobs", type=int, default=1, help="worker processes for scans"
        )
    sub.set_defaults(func=func.__name__)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The qrl argument parser, built on the first call and returned by every
    later one, so that repeated in-process main() calls build it once; do
    not mutate it. Each subcommand stores the name of its cmd_* function as
    `func`, and main looks that name up in this module on every call, so a
    cmd_* replaced after the parser was built (by a test or a tracer) is the
    one that runs."""
    parser = argparse.ArgumentParser(
        prog="qrl",
        description=(
            "Real quadratic orders: continued fractions, units, class"
            " numbers, discriminant families, and regulator lower bounds."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_cf = sub.add_parser("cf", help="continued-fraction expansion")
    p_cf.add_argument("--d", type=int, required=True)
    p_cf.add_argument("--a", type=int, default=1)
    p_cf.add_argument("--b", type=int, default=None)
    _add_common(p_cf, cmd_cf)

    p_unit = sub.add_parser("unit", help="fundamental unit and regulator")
    p_unit.add_argument("--d", type=int, required=True)
    p_unit.add_argument(
        "--exact", action="store_true", help="include exact unit coordinates"
    )
    _add_common(p_unit, cmd_unit)

    p_h = sub.add_parser("classno", help="class number from the analytic formula")
    p_h.add_argument("--d", type=int, required=True)
    _add_common(p_h, cmd_classno)

    p_l = sub.add_parser("lvalue", help="Dirichlet L-value at 1")
    p_l.add_argument("--d", type=int, required=True)
    p_l.add_argument("--method", choices=["exact", "euler"], default="exact")
    p_l.add_argument("--bound", type=int, default=None)
    _add_common(p_l, cmd_lvalue)

    p_fam = sub.add_parser("family", help="discriminant family tools")
    fam_sub = p_fam.add_subparsers(dest="family_command", required=True)

    p_build = fam_sub.add_parser("build", help="build a progression spec")
    p_build.add_argument("--m", type=int, required=True)
    p_build.add_argument("--primes", type=_parse_primes, required=True)
    p_build.add_argument("--x", type=_parse_scale, required=True)
    p_build.add_argument("--eps1", type=float, default=DEFAULT_EPS1)
    _add_common(p_build, cmd_family_build)

    p_scan = fam_sub.add_parser("scan", help="scan a family for records")
    p_scan.add_argument("--spec", help="progression spec JSON from family build")
    p_scan.add_argument("--kind", choices=list(families.FAMILIES))
    p_scan.add_argument("--params", help="named-family parameters, e.g. p=5,q=7")
    p_scan.add_argument("--kmin", type=int, default=1)
    p_scan.add_argument("--kmax", type=int, required=True)
    p_scan.add_argument("--strict-range", action="store_true")
    p_scan.add_argument(
        "--with-h", action="store_true", help="attach h, regulator, L, bound"
    )
    p_scan.add_argument("--euler-bound", type=int, default=None)
    p_scan.add_argument("--format", choices=["csv", "json"], default="csv")
    _add_common(p_scan, cmd_family_scan, jobs=True)

    p_ver = sub.add_parser("verify", help="check family bounds; exit 1 on violation")
    # `qrl verify NAME --sign S` checks the kind NAME, or NAME_S (cmd_verify)
    names = {k.split("_")[0] for k, f in families.FAMILIES.items() if f.verify_range}
    p_ver.add_argument("family", choices=sorted(names))
    p_ver.add_argument("--kmin", type=int, default=None)
    p_ver.add_argument("--kmax", type=int, default=None)
    p_ver.add_argument("--p", type=int, default=None)
    p_ver.add_argument("--sign", choices=["plus", "minus"], default=None)
    _add_common(p_ver, cmd_verify, jobs=True)

    p_const = sub.add_parser("constants", help="progression constants")
    p_const.add_argument("--m", type=int, required=True)
    p_const.add_argument("--primes", type=_parse_primes, required=True)
    _add_common(p_const, cmd_constants)

    p_crit = sub.add_parser(
        "criterion", help="regulator lower bound from norm decompositions"
    )
    p_crit.add_argument(
        "mode", nargs="?", choices=["hk-remark"], default=None,
        help="optional: build the non-primitive product example",
    )
    p_crit.add_argument("--d", type=int, default=None)
    p_crit.add_argument("--norms", help='decompositions, e.g. "6=2*3,5"')
    p_crit.add_argument("--search", action="store_true")
    p_crit.add_argument("--params", help="explicit r,s,t,k,c parameters")
    _add_common(p_crit, cmd_criterion)

    p_ideal = sub.add_parser("ideal", help="parse and classify an ideal literal")
    p_ideal.add_argument("--literal", required=True)
    _add_common(p_ideal, cmd_ideal)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return globals()[args.func](args)
    except Exception as exc:  # single funnel: machine-readable error record
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
