"""Benchmark of qrl: one workload per call, every metric on the last line.

    python3 perfbench/run.py --workload census --seed 1 --seconds 25 --trace 0

Workloads: census, yamamoto, progression, sieve (see README.md). The
command runs from the root of a checkout and uses that checkout's `src/qrl`.

With `--trace 0` it starts SETUP_SAMPLES - 1 processes that only set the
workload up, then one that also runs it, one at a time, and prints the
end-to-end metrics; setup_s is the median of the SETUP_SAMPLES set-up times.
The timed-phase times are scaled by the host's speed during the run
(worker.py, PROBE_REF_S); the unscaled figures go to stderr.
With `--trace 1` it runs the workload once untraced and once traced, each in
a fresh process, and prints the per-layer metrics of the traced run with the
tracing overhead: traced minus untraced wall time over the items both did.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The exit status is nonzero, with no such
line, when the checkout has no `src/qrl` or a worker process fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("census", "yamamoto", "progression", "sieve")
SETUP_SAMPLES = 7
# Limits per worker process, so that a whole call ends within 180 s: a run
# takes --seconds plus its set-up, the item in flight and the checks.
SETUP_TIMEOUT_S = 10
RUN_TIMEOUT_S = 80

class WorkerError(RuntimeError):
    pass


def run_worker(args, mode: str, timeout: float) -> dict:
    argv = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
    ]
    if args.tiny:
        argv.append("--tiny")
    t0 = time.monotonic()
    # subprocess.run kills the worker on timeout and waits for it to end
    proc = subprocess.run(
        argv + ["--t0", repr(t0)], cwd=ROOT, stdout=subprocess.PIPE,
        text=True, timeout=timeout,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker ({mode}) exited {proc.returncode}")
    return json.loads(lines[-1])


def named_metrics(values: dict, kind: str) -> dict:
    """The metrics BENCHMARK.json lists under `kind`, with their units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(values) != set(units):
        raise WorkerError(f"metrics differ from BENCHMARK.json: {set(values) ^ set(units)}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def overhead(untraced: dict, traced: dict) -> tuple[float, float]:
    """Traced minus untraced (scaled) wall time over the items both runs
    completed, in seconds and as a percentage of the untraced time."""
    n = min(len(untraced["item_times"]), len(traced["item_times"]))
    base = sum(untraced["item_times"][:n])
    extra = sum(traced["item_times"][:n]) - base
    return extra, 100 * extra / base if base else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (ROOT / "src" / "qrl" / "__init__.py").is_file():
        print(f"no qrl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            untraced = run_worker(args, "run", RUN_TIMEOUT_S)
            traced = run_worker(args, "trace", RUN_TIMEOUT_S)
            extra_s, extra_pct = overhead(untraced, traced)
            values = dict(traced["layers"])
            values["trace.overhead_s"] = extra_s
            values["trace.overhead_pct"] = extra_pct
            metrics = named_metrics(values, "per_layer")
            correct = untraced["correct"] and traced["correct"]
            result = traced
        else:
            setups = [
                run_worker(args, "setup", SETUP_TIMEOUT_S)["setup_s"]
                for _ in range(SETUP_SAMPLES - 1)
            ]
            result = run_worker(args, "run", RUN_TIMEOUT_S)
            if not result["metrics"]:
                raise WorkerError("fewer than two items completed")
            values = dict(result["metrics"])
            values["setup_s"] = statistics.median(setups + [values["setup_s"]])
            raw = ", ".join(f"{k} {v:.4g}" for k, v in result["raw_metrics"].items())
            print(f"unscaled: {raw}; time scale {result['scale']:.4f}", file=sys.stderr)
            metrics = named_metrics(values, "end_to_end")
            correct = result["correct"]
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(
        f"{args.workload}: {result['attempted']} of {result['items']} items in"
        f" {result['phase_s']:.2f} s, {result['failed']} failed,"
        f" checks {'pass' if correct else 'FAIL'}",
        file=sys.stderr,
    )
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
