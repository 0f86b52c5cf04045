"""Steadiness check: two sets of benchmark runs of the same code.

    python3 perfbench/steady.py

Run from the root of a source checkout. For every workload in BENCHMARK.json
it makes two sets of RUNS runs of `run_seconds` each; every run is a fresh
process started with BENCHMARK.json's command and its own seed: set A uses
seeds 1..RUNS, set B RUNS+1..2*RUNS. Per workload and end-to-end metric it
reports

- spread: interquartile range over median across all runs of both sets,
  which must stay within the metric's bound (setup_s is exempt);
- shift: how much worse set B's median is than set A's, as a share of A's,
  which must stay within the bound.

Workloads with a metric outside these limits are listed as unsteady, with the
reason; spreads above a third of the bound are listed as noisy, since a
change smaller than the spread cannot be told from noise. The last line is a
JSON summary.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 5  # per set
RUN_TIMEOUT_S = 900


def run_once(spec: dict, workload: str, seed: int, seconds: int) -> tuple[dict, float]:
    argv = spec["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect output\n{done.stderr}")
    return result, wall


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def shift(first: list[float], second: list[float], better: str) -> float:
    a, b = statistics.median(first), statistics.median(second)
    return (b - a) / a if better == "lower" else (a - b) / a


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    summary = {}
    walls = []
    for workload in (w["name"] for w in spec["workloads"]):
        sets = [[], []]
        for k in range(2 * RUNS):
            result, wall = run_once(spec, workload, 1 + k, spec["run_seconds"])
            walls.append(wall)
            sets[k // RUNS].append(result["metrics"])
            print(f"{workload} seed {1 + k}: {wall:.1f} s wall", file=sys.stderr)
        reasons, noisy = [], []
        rows = {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [m[name]["value"] for m in sets[0]]
            b = [m[name]["value"] for m in sets[1]]
            s, d = spread(a + b), shift(a, b, metric["better"])
            rows[name] = {"set_a": a, "set_b": b, "spread": s, "shift": d, "bound": bound}
            print(f"{workload:14s} {name:12s} median A {statistics.median(a):12.6g} "
                  f"B {statistics.median(b):12.6g}  spread {s:6.3f}  shift {d:+6.3f}  bound {bound}")
            if name != "setup_s" and s > bound:
                reasons.append(f"{name} spread {s:.3f} > bound {bound}")
            elif name != "setup_s" and s > bound / 3:
                noisy.append(f"{name} spread {s:.3f} > bound/3 {bound / 3:.3f}")
            if d > bound:
                reasons.append(f"{name} set B worse by {d:.3f} > bound {bound}")
        summary[workload] = {"metrics": rows, "unsteady": reasons, "noisy": noisy}

    for label in ("unsteady", "noisy"):
        listed = {w: s[label] for w, s in summary.items() if s[label]}
        print(f"{label} workloads: " + ("none" if not listed else ""))
        for workload, reasons in listed.items():
            print(f"  {workload}: {'; '.join(reasons)}")
    mean_wall = statistics.mean(walls)
    print(f"mean run wall {mean_wall:.1f} s; for all {len(spec['workloads'])} workloads, "
          f"4 + 22 x workloads runs would take ~{(4 + 22 * len(spec['workloads'])) * mean_wall:.0f} s")
    print(json.dumps(summary))
    return 1 if any(s["unsteady"] for s in summary.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
