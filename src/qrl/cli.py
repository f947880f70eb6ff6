"""Command-line front end: deterministic JSON/CSV emission for all checks.

Every command prints one JSON record per line (or CSV rows for scans) with
floats normalized to 12 significant digits, so re-running a command with the
same configuration produces byte-identical output.  Errors become a single
machine-readable JSON record on stderr and a nonzero exit status; a scan
streams its rows, so those of the windows before a failing one stay on stdout.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from contextlib import nullcontext
from dataclasses import asdict, fields
from decimal import Decimal, InvalidOperation
from functools import cache, partial
from itertools import chain, islice
from multiprocessing import Pool

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
DEFAULT_BOUND_EXPONENT = 2.05
# --x digit cap: json writes integers of at most 4300 digits, and the cap
# keeps an argument like 1e999999999 from building a huge integer
MAX_SCALE_DIGITS = 4300

# k per window of a one-process scan: each window pays the sieve's fixed
# per-call cost, so a window spans a typical scan (perfbench's sieve items
# cover 350 k) while bounding the records held at once
SCAN_WINDOW = 4096

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


def _float_cell(value) -> str:
    return "" if value is None else f"{value:.12g}"


def _bool_cell(value) -> str:
    return "" if value is None else ("1" if value else "0")


def _write(args, records, header=None) -> int:
    """Print each record as one JSON line, or as a CSV row under header, and
    return 0. The first record is pulled before any stream opens, so a
    command that fails at once prints nothing; stdout then gets each record
    as it arrives, and --out is opened only once every record exists, so a
    failed command leaves that file untouched."""
    path = getattr(args, "out", None)
    records = iter(records)
    records = chain(list(islice(records, 1)), list(records) if path else records)
    if path:
        stream = open(path, "w", encoding="utf-8", newline="")
    else:
        stream = nullcontext(sys.stdout)
    with stream as out:
        if header is None:
            for record in records:
                print(json.dumps(_round_floats(record)), file=out)
        else:
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(records)
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


def _parse_primes(text: str) -> list[int]:
    return [int(tok) for tok in text.replace(";", ",").split(",") if tok.strip()]


def _parse_norm_splits(text: str) -> tuple[NormSplit, ...]:
    """Parse "6=2*3, 5" into norm decompositions; a bare n means n = n * 1."""
    splits = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if "=" in token:
            total_text, _, rest = token.partition("=")
            left, star, right = rest.partition("*")
            if not star:
                raise ValueError(
                    f"norm decomposition {token!r} must look like n=a*b"
                )
            splits.append(
                NormSplit(int(total_text), int(left.strip()), int(right.strip()))
            )
        else:
            n = int(token)
            splits.append(NormSplit(n, n, 1))
    if not splits:
        raise ValueError("at least one norm is required")
    return tuple(splits)


def _parse_params(text: str | None) -> dict[str, int]:
    if not text:
        return {}
    params = {}
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        key, eq, value = token.partition("=")
        if not eq:
            raise ValueError(f"parameter {token!r} must look like name=value")
        params[key.strip()] = int(value.strip())
    return params


# ---------------------------------------------------------------------------
# parallel scan plumbing


def _run_chunk(task):
    """task(), by a module-level function that a pool can pickle."""
    return task()


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_chunked(task_of_span, lo: int, hi: int, jobs: int):
    """Yield the records of task_of_span(k_min=a, k_max=b) over consecutive
    windows [a, b] of [lo, hi], in order. One process runs windows of
    SCAN_WINDOW k; a pool of at most one process per CPU runs about 16 windows
    per process, so no process is left with the largest d alone. An empty
    range runs one empty window, which checks the arguments."""
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
    else:
        with Pool(processes=jobs) as pool:
            for chunk in pool.imap(_run_chunk, tasks):
                yield from chunk


def _family_span(kind, params, k_min, k_max):
    return families.family_scan(kind, params, range(k_min, k_max + 1))


# ---------------------------------------------------------------------------
# scan record emission


def _scan_row(rec: families.ScanRecord) -> list[str]:
    return (
        [str(rec.k), str(rec.n)]
        + [str(d) for d in rec.d_values]
        + [
            ";".join("1" if s else "0" for s in rec.squarefree),
            "" if rec.h is None else str(rec.h),
            _float_cell(rec.regulator),
            _float_cell(rec.L_truncated),
            _bool_cell(rec.bound_ok),
        ]
    )


# ---------------------------------------------------------------------------
# subcommand implementations


def cmd_cf(args) -> int:
    d, a = args.d, args.a
    b = args.b if args.b is not None else d % 2
    if args.max_steps is not None and args.max_steps < 0:
        raise ValueError(f"cf --max-steps must be >= 0, got {args.max_steps}")
    exp = cf_expand(QuadIrrational(d, a, b), max_steps=args.max_steps)
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
        unit = exact_unit(args.d)
        record["x"] = unit.x
        record["y"] = unit.y
    return _write(args, [record])


def cmd_classno(args) -> int:
    h, h_narrow = class_number(args.d)
    return _write(args, [{"d": args.d, "h": h, "h_narrow": h_narrow}])


def cmd_lvalue(args) -> int:
    if args.method == "exact":
        record = {"d": args.d, "method": "exact", "value": l_value_exact(args.d)}
    else:
        record = {
            "d": args.d,
            "method": "euler",
            "bound": args.bound,
            "value": l_value_truncated(args.d, args.bound),
        }
    return _write(args, [record])


def cmd_family_build(args) -> int:
    spec = families.build_progression(args.m, args.primes, args.x, args.eps1)
    return _write(args, [asdict(spec)])


def _load_spec(path: str) -> families.ProgressionSpec:
    """Read a spec file; reject it unless build_progression reproduces it."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    spec = families.build_progression(
        int(data["m"]),
        [int(p) for p in data["primes"]],
        int(data["x"]),
        float(data["eps1"]),
    )
    # compared in JSON form, where the spec's tuples are lists
    built = json.loads(json.dumps(asdict(spec)))
    wrong = [key for key, value in built.items() if data[key] != value]
    if wrong:
        raise ValueError(
            f"spec {path} does not match build_progression(m, primes, x, eps1)"
            f" in {', '.join(wrong)}"
        )
    return spec


def cmd_family_scan(args) -> int:
    if bool(args.spec) == bool(args.kind):
        raise ValueError("family scan needs exactly one of --spec or --kind")
    if args.kmax < 0:
        raise ValueError("--kmax must be nonnegative")
    if args.spec:
        spec = _load_spec(args.spec)
        bound = args.euler_bound
        if args.with_h and bound is None:
            if args.bound_exponent <= 2:
                raise ValueError("--bound-exponent must be greater than 2")
            bound = int(
                min(math.log(spec.x) ** args.bound_exponent, MAX_EULER_BOUND)
            )
        scan = partial(
            families.scan_squarefree,
            spec,
            strict_range=args.strict_range,
            with_h=args.with_h,
            euler_bound_B=bound,
        )
    else:
        scan = partial(_family_span, args.kind, _parse_params(args.params))
    records = _run_chunked(scan, args.kmin, args.kmax, args.jobs)
    if args.format == "json":
        return _write(args, map(asdict, records))
    return _write(args, map(_scan_row, records), SCAN_CSV_HEADER)


def cmd_verify(args) -> int:
    signed = args.family not in families.FAMILIES
    kind = f"{args.family}_{args.sign or 'plus'}" if signed else args.family
    family = families.FAMILIES[kind]
    # --sign picks NAME_<sign>; --p is the family parameter p
    takes = set(family.params) | ({"sign"} if signed else set())
    unused = [
        f"--{name}"
        for name in ("p", "sign")
        if getattr(args, name) is not None and name not in takes
    ]
    if unused:
        raise ValueError(f"verify {args.family} does not take {', '.join(unused)}")
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
            yield {
                "family": args.family,
                "k": rec.k,
                "n": rec.n,
                "d": rec.d_values[0],
                "regulator": rec.regulator,
                "bound": rec.bound,
                "ok": bool(rec.bound_ok),
            }

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
    if args.mode != "hk-remark":
        if args.d is None or args.norms is None:
            raise ValueError("criterion needs --d and --norms")
        splits = _parse_norm_splits(args.norms)
        _, bound = evaluate_criterion(CriterionInput(args.d, splits))
        return _write(args, [asdict(bound)])
    if args.params_tuple:
        values = [int(tok) for tok in args.params_tuple.split(",")]
        if len(values) != 5:
            raise ValueError("--params needs five integers r,s,t,k,c")
        rec = nonprimitive_product_example(*values)
    elif args.search:
        rec = search_nonprimitive_example(
            r_max=args.r_max,
            s_max=args.s_max,
            t_max=args.t_max,
            k_max=args.k_max,
            c_max=args.c_max,
        )
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


def _add_common(sub, jobs: bool = False):
    sub.add_argument("--out", help="write output to this path instead of stdout")
    if jobs:
        sub.add_argument(
            "--jobs", type=int, default=1, help="worker processes for scans"
        )


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
    p_cf.add_argument("--max-steps", type=int, default=None)
    _add_common(p_cf)
    p_cf.set_defaults(func="cmd_cf")

    p_unit = sub.add_parser("unit", help="fundamental unit and regulator")
    p_unit.add_argument("--d", type=int, required=True)
    p_unit.add_argument(
        "--exact", action="store_true", help="include exact unit coordinates"
    )
    _add_common(p_unit)
    p_unit.set_defaults(func="cmd_unit")

    p_h = sub.add_parser("classno", help="class number from the analytic formula")
    p_h.add_argument("--d", type=int, required=True)
    _add_common(p_h)
    p_h.set_defaults(func="cmd_classno")

    p_l = sub.add_parser("lvalue", help="Dirichlet L-value at 1")
    p_l.add_argument("--d", type=int, required=True)
    p_l.add_argument("--method", choices=["exact", "euler"], default="exact")
    p_l.add_argument("--bound", type=int, default=10**5)
    _add_common(p_l)
    p_l.set_defaults(func="cmd_lvalue")

    p_fam = sub.add_parser("family", help="discriminant family tools")
    fam_sub = p_fam.add_subparsers(dest="family_command", required=True)

    p_build = fam_sub.add_parser("build", help="build a progression spec")
    p_build.add_argument("--m", type=int, required=True)
    p_build.add_argument("--primes", type=_parse_primes, required=True)
    p_build.add_argument("--x", type=_parse_scale, required=True)
    p_build.add_argument("--eps1", type=float, default=DEFAULT_EPS1)
    _add_common(p_build)
    p_build.set_defaults(func="cmd_family_build")

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
    p_scan.add_argument(
        "--bound-exponent", type=float, default=DEFAULT_BOUND_EXPONENT
    )
    p_scan.add_argument("--format", choices=["csv", "json"], default="csv")
    _add_common(p_scan, jobs=True)
    p_scan.set_defaults(func="cmd_family_scan")

    p_ver = sub.add_parser("verify", help="check family bounds; exit 1 on violation")
    # `qrl verify NAME --sign S` checks the kind NAME, or NAME_S (cmd_verify)
    names = {k.split("_")[0] for k, f in families.FAMILIES.items() if f.verify_range}
    p_ver.add_argument("family", choices=sorted(names))
    p_ver.add_argument("--kmin", type=int, default=None)
    p_ver.add_argument("--kmax", type=int, default=None)
    p_ver.add_argument("--p", type=int, default=None)
    p_ver.add_argument("--sign", choices=["plus", "minus"], default=None)
    _add_common(p_ver, jobs=True)
    p_ver.set_defaults(func="cmd_verify")

    p_const = sub.add_parser("constants", help="progression constants")
    p_const.add_argument("--m", type=int, required=True)
    p_const.add_argument("--primes", type=_parse_primes, required=True)
    _add_common(p_const)
    p_const.set_defaults(func="cmd_constants")

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
    p_crit.add_argument(
        "--params", dest="params_tuple", help="explicit r,s,t,k,c parameters"
    )
    p_crit.add_argument("--r-max", type=int, default=5)
    p_crit.add_argument("--s-max", type=int, default=5)
    p_crit.add_argument("--t-max", type=int, default=4)
    p_crit.add_argument("--k-max", type=int, default=5)
    p_crit.add_argument("--c-max", type=int, default=50)
    _add_common(p_crit)
    p_crit.set_defaults(func="cmd_criterion")

    p_ideal = sub.add_parser("ideal", help="parse and classify an ideal literal")
    p_ideal.add_argument("--literal", required=True)
    _add_common(p_ideal)
    p_ideal.set_defaults(func="cmd_ideal")

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
