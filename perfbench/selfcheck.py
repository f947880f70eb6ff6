"""Fast self-check of the benchmark harness; about half a minute.

    python3 perfbench/selfcheck.py

For every workload at a tiny size it checks that:
  * run.py, untraced and traced, exits 0 with correct = true, no failed
    operations and exactly the metrics BENCHMARK.json names;
  * the output checks catch a corrupted output;
and that run.py refuses to run without the qrl sources, and that the
Jacobi symbol of oracles.py agrees with sympy's.
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import workloads  # noqa: E402


def run_bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "20", "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def check_runs(spec: dict) -> list[str]:
    problems = []
    names = {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
    }
    for wl in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = run_bench(ROOT, wl, trace)
            if proc.returncode != 0:
                problems.append(f"{wl} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{wl} trace={trace}: keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{wl} trace={trace}: {result}\n{proc.stderr}")
            if set(result["metrics"]) != names[trace]:
                problems.append(
                    f"{wl} trace={trace}: metrics differ from BENCHMARK.json by"
                    f" {sorted(set(result['metrics']) ^ names[trace])}"
                )
    return problems


def _corrupt(name: str, done: list) -> list:
    """The completed items with one output made wrong."""
    item, result = done[-1]
    if name == "census":
        result = dataclasses.replace(result, h=result.h + 1)
    elif name == "progression":  # the h check looks at a sample only
        return [(k, [dataclasses.replace(r, h=r.h + 1) for r in recs]) for k, recs in done]
    else:  # yamamoto and sieve: the CLI text loses its last row
        result = "".join(result.splitlines(keepends=True)[:-1])
    return done[:-1] + [(item, result)]


def check_checks() -> list[str]:
    problems = []
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(tiny=True)
        wl.setup()
        done = [(item, wl.run(item)) for item in wl.items()]
        if wl.check(done, random.Random(1)):
            problems.append(f"{name}: checks fail on the program's own output")
        if not wl.check(_corrupt(name, done), random.Random(1)):
            problems.append(f"{name}: checks miss a corrupted output")
    return problems


def check_no_sources() -> list[str]:
    with tempfile.TemporaryDirectory(dir=HERE / "results") as tmp:
        root = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", root)
        shutil.copytree(HERE, root / "perfbench", ignore=shutil.ignore_patterns("results"))
        proc = run_bench(root, "census", 0)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"run.py without src/ exited {proc.returncode}: {proc.stdout!r}"]
    return []


def check_jacobi() -> list[str]:
    rng = random.Random(3)
    bad = []
    for _ in range(2000):
        n = rng.randrange(1, 10**7, 2)
        a = rng.randrange(-10**7, 10**7)
        if oracles.jacobi(a, n) != oracles.jacobi_symbol(a, n):
            bad.append(f"jacobi({a}, {n})")
    return bad


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    (HERE / "results").mkdir(exist_ok=True)
    problems = check_jacobi() + check_checks() + check_no_sources() + check_runs(spec)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
