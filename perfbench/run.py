"""Run one causalgen benchmark workload and print its metrics.

    python3 perfbench/run.py --workload catalog_eval --seed 0 --seconds 15 --trace 0

Run from the root of a source checkout: causalgen is imported from its `src/`.
The workload runs as a closed loop with one client in this process: each
operation starts when the previous one and its correctness check are done,
whole passes over the workload's operations repeat until `--seconds` have
passed (at least two passes), and latencies exclude the checks.

With `--trace 0` the last line reports the end-to-end metrics named in
BENCHMARK.json; with `--trace 1` the untraced loop is followed by a traced one
and the last line reports the per-layer metrics. Lines before it are a
readable report. The exit code is 0 whenever a result line is printed, even if
an operation failed; failures show in `correct`, `attempted` and `failed`.
"""

from __future__ import annotations

import os

# one client on one core, plus the sampler's own worker threads where a workload asks for them
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# set-up repeats: at least the minimum, and more while they add up to less than
# SETUP_MIN_S. The host's speed changes in phases of up to a second, so the set-ups
# of a few milliseconds are spread over seconds, like the longer ones, to get a
# median that does not depend on the phase a run happened to start in
SETUP_MIN_REPEATS, SETUP_MIN_S = 3, 3.0
MIN_PASSES = 2
TAIL_BEYOND = 10  # a tail percentile needs at least this many operations above it
TAIL_PERCENTILES = (90.0, 99.0, 99.9, 99.99)


def import_program():
    """Import causalgen from this checkout's src/, and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import causalgen
    except ImportError as exc:
        sys.exit(f"error: cannot import causalgen from {src}: {exc}")
    if not Path(causalgen.__file__).resolve().is_relative_to(src):
        sys.exit(f"error: causalgen was imported from {causalgen.__file__}, not {src}")


@dataclass
class LoopResult:
    # latencies[i] holds every latency of the i-th operation of a pass, one per pass
    latencies: list[list[float]] = field(default_factory=list)
    kinds: list[str] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    op_ids: dict[str, list[int]] = field(default_factory=lambda: defaultdict(list))

    @property
    def busy_s(self) -> float:
        return sum(sum(v) for v in self.latencies)

    def pass_busy_s(self) -> list[float]:
        """Time spent in operations in each pass."""
        return [sum(times) for times in zip(*self.latencies)]

    def op_medians(self) -> list[tuple[float, str]]:
        """Each operation's median latency over the passes, with its kind, fastest first."""
        return sorted((statistics.median(v), kind) for v, kind in zip(self.latencies, self.kinds))


def write_in_child(workload, directory: Path, seed: int) -> None:
    """Run `workload.write_inputs` in a forked child and wait for it, so that
    this process's peak RSS is that of the loop and not of the set-up."""
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            workload.write_inputs(directory, seed)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise RuntimeError(f"writing the {workload.name} inputs failed (exit {code})")


def closed_loop(workload, seconds: float, tracer=None) -> LoopResult:
    result = LoopResult()
    start = time.perf_counter()
    passes = 0
    while passes < MIN_PASSES or time.perf_counter() - start < seconds:
        for i, op in enumerate(workload.pass_ops()):
            if i == len(result.latencies):
                result.latencies.append([])
                result.kinds.append(op.kind)
            result.attempted += 1
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    out = op.run()
                else:
                    with tracer.op() as op_id:
                        out = op.run()
                    result.op_ids[op.kind].append(op_id)
            except (Exception, SystemExit) as exc:  # an operation that raises is a failed operation
                elapsed = time.perf_counter() - t0
                error = f"raised {type(exc).__name__}: {exc}"
            else:
                elapsed = time.perf_counter() - t0
                error = op.check(out)
            result.latencies[i].append(elapsed)
            if error is not None:
                result.failures.append(f"{op.kind}: {error}")
        passes += 1
    return result


def tail(loop: LoopResult) -> tuple[float, str, float, int]:
    """The tail of the operations' median latencies: the value at the highest
    of TAIL_PERCENTILES with at least TAIL_BEYOND operations beyond it, or the
    slowest operation's when none has; returned with that operation's kind,
    the percentile (100 for the maximum) and the number of operations.

    Every pass runs the same operations, so the percentile is taken over
    operations, each at its median over the passes: it neither moves with the
    number of passes a run completes nor picks up single scheduler stalls."""
    medians = loop.op_medians()
    n = len(medians)
    levels = [p for p in TAIL_PERCENTILES if n - math.ceil(p * n / 100) >= TAIL_BEYOND]
    percentile = levels[-1] if levels else 100.0
    value, kind = medians[math.ceil(percentile * n / 100) - 1]
    return value, kind, percentile, n


def end_to_end(setup_times: list[float], loop: LoopResult) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup_times),
        "op_p50_s": statistics.median(m for m, _ in loop.op_medians()),
        "op_tail_s": tail(loop)[0],
        "ops_per_s": len(loop.latencies) / statistics.median(loop.pass_busy_s()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(workload, tracer, plain: LoopResult, traced: LoopResult) -> dict[str, float]:
    from spans import layer_metrics

    every_op = [i for ids in traced.op_ids.values() for i in ids]
    metrics = layer_metrics(tracer.spans, every_op)
    metrics["bench.ops"] = len(every_op)
    metrics["bench.trace_overhead_ratio"] = (
        (traced.busy_s / traced.attempted) / (plain.busy_s / plain.attempted)
    )
    metrics["scm.tvd_max"] = max(workload.tvd.values(), default=0.0)
    metrics["scm.tvd_exact_max"] = max(workload.tvd_exact.values(), default=0.0)
    if workload.metrics_per_kind:
        for kind, ids in traced.op_ids.items():
            for key, value in layer_metrics(tracer.spans, ids).items():
                metrics[f"{key}.{kind}"] = value
            metrics[f"scm.tvd_max.{kind}"] = workload.tvd.get(kind, 0.0)
            metrics[f"scm.tvd_exact_max.{kind}"] = workload.tvd_exact.get(kind, 0.0)
    return metrics


def report(name: str, values: dict[str, float], spec: list[dict]) -> dict[str, dict]:
    """Select the metrics BENCHMARK.json names, print them, and return the result map."""
    out = {}
    for metric in spec:
        value = float(values.get(metric["name"], 0.0))
        out[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{name:14s} {metric['name']:36s} {value:14.6g} {metric['unit']}")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_program()
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]()
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        setup_times = []
        while len(setup_times) < SETUP_MIN_REPEATS or sum(setup_times) < SETUP_MIN_S:
            i = len(setup_times)
            inputs_dir = workdir / f"setup{i}"
            inputs_dir.mkdir()
            t0 = time.perf_counter()
            if workload.writes_inputs:
                write_in_child(workload, inputs_dir, args.seed)
            workload.setup(inputs_dir, args.seed)
            setup_times.append(time.perf_counter() - t0)
            if i:
                shutil.rmtree(workdir / f"setup{i - 1}")
        loops = [closed_loop(workload, args.seconds)]
        if args.trace:
            tracer = Tracer()
            with tracer.installed():
                loops.append(closed_loop(workload, args.seconds, tracer))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if scratch.exists() and not any(scratch.iterdir()):
            scratch.rmdir()

    attempted = sum(loop.attempted for loop in loops)
    failures = [f for loop in loops for f in loop.failures]
    for message in failures[:10]:
        print(f"FAIL {message}", file=sys.stderr)
    _, kind, percentile, ops = tail(loops[0])
    print(f"{args.workload}: seed {args.seed}, {loops[0].attempted} operations untraced "
          f"in {len(loops[0].latencies[0])} passes, "
          f"{len(setup_times)} setups, {min(setup_times):.4f}-{max(setup_times):.4f} s")
    print(f"{args.workload}: op_tail_s is p{percentile:g} of {ops} operations' medians, a '{kind}' operation")
    print(f"{args.workload}: fail_ratio {len(failures)}/{attempted}, "
          f"tvd_max {max(workload.tvd.values(), default=0.0):.4f}, "
          f"tvd_exact_max {max(workload.tvd_exact.values(), default=0.0):.4f}")
    if args.trace:
        metrics = report(args.workload, per_layer(workload, tracer, *loops), spec["per_layer"])
    else:
        metrics = report(args.workload, end_to_end(setup_times, loops[0]), spec["end_to_end"])
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
