"""One workload in one fresh process, started by run.py.

    worker.py --workload W --seed N --seconds S --mode setup|run|trace --t0 T

`--t0` is the launcher's `time.monotonic()` just before it started this
process (CLOCK_MONOTONIC is system-wide on Linux), so set-up time runs from
process start to the first timed item. Mode `setup` stops there. Modes `run`
and `trace` then run the workload's items in order until they are done or
`--seconds` have passed, with a host-speed probe between items every
PROBE_INTERVAL_S, read the peak RSS, check the outputs, and print one JSON
object as the last line of stdout. Mode `trace` wraps qrl's layers first and
also writes the spans to perfbench/results/.
"""

from __future__ import annotations

import argparse
import collections
import json
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import qrl  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

if not Path(qrl.__file__).resolve().is_relative_to(HERE.parent / "src"):
    sys.exit(f"qrl was imported from {qrl.__file__}, not from this checkout's src/")

# Timed-phase times are scaled by PROBE_REF_S / (median wall time of probe()
# during the phase), i.e. to a host that runs the probe loop in 4 ms. This
# host's speed drifts by about 20 % over minutes; qrl's items slow down with
# the probe, so the scaled times vary about half as much between runs as the
# raw ones. Set-up time is not scaled: the probe does not follow its drift
# (README.md, "Host drift").
PROBE_REF_S = 0.004
PROBE_INTERVAL_S = 0.1


def layer_metrics(tracer: tracing.Tracer, wl, done: list, scale: float) -> dict:
    """The per-layer metrics, from the tracer's totals over set-up and the
    timed phase; times are scaled like the timed-phase ones."""
    calls, counts = tracer.calls, tracer.counts
    self_s = collections.defaultdict(
        float, {name: t * scale for name, t in tracer.self_s.items()}
    )
    items = max(1, len(done))
    records = wl.records(done)
    rows, size = wl.emitted(done)
    candidates = counts["families.sieve_candidates"]
    survivors = counts["families.sieve_survivors"]
    cache = tracer.originals["cfrac.principal_expansion"].cache_info()
    return {
        "cfrac.principal_expansion.self_s": self_s["cfrac.principal_expansion"],
        "cfrac.cf_expand.self_s": self_s["cfrac.cf_expand"],
        "cfrac.cycle_states": counts["cfrac.cycle_states"],
        "quadorder.QuadIrrational.calls": calls["quadorder.QuadIrrational"],
        "cfrac.fundamental_unit.self_s": self_s["cfrac.fundamental_unit"],
        "cfrac.fundamental_unit.calls_per_item": calls["cfrac.fundamental_unit"] / items,
        "cfrac.cached_cycles": cache.currsize,
        "classno.reduced_forms.self_s": self_s["classno.reduced_forms"],
        "classno.reduced_forms.forms": counts["classno.reduced_forms.forms"],
        "intarith.divisors.calls": calls["intarith.divisors"],
        "intarith.divisors.self_s": self_s["intarith.divisors"],
        "classno.class_number_forms.self_s": self_s["classno.class_number_forms"],
        "classno.form_cycles.self_s": self_s["classno.form_cycles"],
        "classno.class_number_forms.calls_per_record": (
            calls["classno.class_number_forms"] / records if records else 0.0
        ),
        "classno.l_value_exact.self_s": self_s["classno.l_value_exact"],
        "classno.character_row.self_s": self_s["classno.character_row"],
        "classno.l_value_truncated.self_s": self_s["classno.l_value_truncated"],
        "families.scan_squarefree.self_s": self_s["families.scan_squarefree"],
        "families.sieve_candidates": candidates,
        "families.sieve_survivors": survivors,
        "families.sieve_survivor_ratio": survivors / candidates if candidates else 0.0,
        "intarith.sqrt_mod_prime.calls": calls["intarith.sqrt_mod_prime"],
        "intarith.primes_up_to.self_s": self_s["intarith.primes_up_to"],
        "intarith.is_squarefree.calls": calls["intarith.is_squarefree"],
        "intarith.is_squarefree.self_s": self_s["intarith.is_squarefree"],
        "families.build_progression.self_s": self_s["families.build_progression"],
        "criterion.enumerate_power_products.self_s": self_s[
            "criterion.enumerate_power_products"
        ],
        "criterion.power_products": counts["criterion.power_products"],
        "quadorder.multiply_ideals.calls": calls["quadorder.multiply_ideals"],
        "criterion.regulator_lower_bound.self_s": self_s["criterion.regulator_lower_bound"],
        "cli.main.self_s": self_s["cli.main"],
        "cli.build_parser.self_s": self_s["cli.build_parser"],
        "cli.commands.self_s": sum(
            t for name, t in self_s.items() if name.startswith("cli.cmd_")
        ),
        "cli.rows_emitted": rows,
        "cli.bytes_emitted": size,
    }


def probe() -> float:
    """Wall time of a fixed pure-Python loop: the host's speed just now."""
    start = time.perf_counter()
    x = 0
    for i in range(40_000):
        x = (x * 31 + i) % 1_000_003
    return time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--tiny", action="store_true", help="the self-check's sizes")
    args = parser.parse_args()

    tracer = None
    if args.mode == "trace":
        tracer = tracing.Tracer()
        tracer.install(qrl)
    wl = workloads.WORKLOADS[args.workload](tiny=args.tiny)
    if tracer:
        with tracer.span("bench.setup"):
            wl.setup()
    else:
        wl.setup()
    items = wl.items()
    setup_s = time.monotonic() - args.t0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    done, times, probes, failed = [], [], [], 0
    probe_s = 0.0
    phase_start = last_probe = time.perf_counter()
    deadline = phase_start + args.seconds
    for index, item in enumerate(items):
        now = time.perf_counter()
        if now >= deadline:
            break
        if now - last_probe >= PROBE_INTERVAL_S:
            probes.append(probe())
            last_probe = time.perf_counter()
            probe_s += last_probe - now
        begin = time.perf_counter()
        try:
            if tracer:
                tracer.item = index
                with tracer.span("bench.item"):
                    result = wl.run(item)
            else:
                result = wl.run(item)
        except Exception:  # a failed operation is counted, not fatal
            failed += 1
            print(f"item {item!r} failed:\n{traceback.format_exc()}", file=sys.stderr)
            continue
        times.append(time.perf_counter() - begin)
        done.append((item, result))
    phase_s = time.perf_counter() - phase_start - probe_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    scale = PROBE_REF_S / statistics.median(probes or [probe()])

    layers = None
    if tracer:
        tracer.uninstall()
        layers = layer_metrics(tracer, wl, done, scale)
        workloads.RESULTS_DIR.mkdir(exist_ok=True)
        tracer.write(workloads.RESULTS_DIR / f"trace-{args.workload}.json")

    problems = wl.check(done, random.Random(args.seed))
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    raw, metrics = {}, {}
    if len(times) >= 2:
        raw = {
            "items_per_s": len(done) / phase_s,
            "item_p50_ms": 1000 * statistics.median(times),
            "item_p90_ms": 1000 * statistics.quantiles(times, n=10)[-1],
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {
            "items_per_s": raw["items_per_s"] / scale,
            "item_p50_ms": raw["item_p50_ms"] * scale,
            "item_p90_ms": raw["item_p90_ms"] * scale,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
    print(json.dumps({
        "correct": not problems,
        "attempted": len(done) + failed,
        "failed": failed,
        "items": len(items),
        "phase_s": phase_s,
        "scale": scale,
        "item_times": [t * scale for t in times],
        "metrics": metrics,
        "raw_metrics": raw,
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
