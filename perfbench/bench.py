"""One benchmark process: set up a workload, run its operations in a closed
loop (one caller, the next operation starts when the previous one ends),
check every result, and write a JSON report.

    python3 perfbench/bench.py --workload NAME --seed N --seconds S --trace 0|1 --out FILE
    python3 perfbench/bench.py --workload NAME --seed N --setup-only --out FILE

run.py starts it as a child process so that peak RSS belongs to one run.
The report's "ready" field is the CLOCK_MONOTONIC time at which set-up
(interpreter start, imports, input generation) ended.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import signal
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

if __name__ == "__main__":
    # Die with run.py even when it is killed outright (Linux PR_SET_PDEATHSIG).
    ctypes.CDLL(None).prctl(1, signal.SIGKILL)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import girthlab  # noqa: E402
from refclock import RefClock  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, OpData  # noqa: E402

if os.path.dirname(os.path.abspath(girthlab.__file__)) != os.path.join(SRC, "girthlab"):
    sys.exit(f"girthlab was imported from {girthlab.__file__}, not from {SRC}")

# The girth function itself, captured before a tracer wraps it.  Its lru
# cache is cleared before each operation, so every operation starts cold; a
# girthlab without that cache runs as it is (the traced hit ratio reads 0).
GIRTH = sys.modules["girthlab.girth"].girth


@dataclass
class Op:
    start: float
    end: float
    wall: float    # seconds, net of reference samples
    cpu: float
    data: OpData
    spans: list[list] | None = None
    layers: dict[str, float] | None = None


def clear_caches() -> None:
    if hasattr(GIRTH, "cache_clear"):
        GIRTH.cache_clear()


def run_op(workload, clock: RefClock, tracer: Tracer | None = None) -> Op:
    """One operation from a cold girth cache: traced when `tracer` is
    given, and beside the running reference clock otherwise."""
    clear_caches()
    if tracer is not None:
        tracer.install()
    else:
        clock.start()
    try:
        spent, cpu0, wall0 = clock.spent, time.process_time(), time.perf_counter()
        data = workload.run_op(clock)
        wall1, cpu1 = time.perf_counter(), time.process_time()
    finally:
        if tracer is not None:
            tracer.uninstall()
        else:
            clock.stop()
    spent = clock.spent - spent
    op = Op(wall0, wall1, wall1 - wall0 - spent, cpu1 - cpu0 - spent, data)
    if tracer is not None:
        info = GIRTH.cache_info() if hasattr(GIRTH, "cache_info") else None
        op.spans = tracer.spans
        op.layers = layer_metrics(tracer.spans, data.counts,
                                  info.hits if info else 0, info.misses if info else 0)
    return op


def measure(workload, seconds: float, trace: bool) -> tuple[dict, list[Op]]:
    """Run operations until the next one would end after `seconds`.  A
    traced run alternates untraced and traced operations, at least one of
    each: end-to-end figures come from the untraced ones, per-layer figures
    from the fastest traced one."""
    ops: list[Op] = []
    clock = RefClock()
    started = time.perf_counter()
    loop_seconds = seconds - workload.recheck_seconds
    while True:
        ops.append(run_op(workload, clock, Tracer() if trace and len(ops) % 2 else None))
        typical = statistics.median(op.wall for op in ops)
        if len(ops) >= 1 + trace and time.perf_counter() - started + typical > loop_seconds:
            break

    attempted = failed = 0
    messages: list[str] = []
    for op in ops:
        found = workload.failures(op.data)
        items = max(len(op.data.records), 1)
        bad = {i for i, _ in found}
        attempted += items
        failed += items if -1 in bad else len(bad)
        messages += [message for _, message in found]

    # Host contention slows the reference loop and girthlab alike, so each
    # timing is divided by the mean reference sample around it: the
    # operation's own window, or a second around a per-graph latency.  A
    # graph's latency is the median of its timings; the percentiles are
    # taken over graphs.
    plain = [op for op in ops if op.layers is None]
    clock.start()
    try:
        rechecks = workload.recheck(plain[-1].data, clear_caches, clock)
    finally:
        clock.stop()
    per_graph = defaultdict(list)
    for key, start, end, net in [x for op in plain for x in op.data.latencies] + rechecks:
        per_graph[key].append(net / clock.unit(start, end, pad=0.5))
    deciles = statistics.quantiles(map(statistics.median, per_graph.values()), n=10)
    units = [clock.unit(op.start, op.end) for op in plain]
    report = {
        "attempted": attempted,
        "failed": failed,
        "failures": messages[:20],
        "ops": len(plain),
        "graphs": len(per_graph),
        "graph_samples": sum(map(len, per_graph.values())),
        "ref_samples": len(clock.durations),
        "ref_ms": statistics.median(units) * 1e3,
        "wall_s": statistics.median(op.wall for op in plain),
        "wall_ref": statistics.median(op.wall / unit for op, unit in zip(plain, units)),
        "cpu_ref": statistics.median(op.cpu / unit for op, unit in zip(plain, units)),
        "graph_p50_ref": deciles[4],
        "graph_p90_ref": deciles[8],
    }
    traced = [op for op in ops if op.layers is not None]
    if traced:
        best = min(traced, key=lambda op: op.wall)
        overhead = best.wall - min(op.wall for op in plain)
        report["layers"] = dict(best.layers, **{"trace.overhead_s": overhead})
    return report, ops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    report: dict = {"ready": time.monotonic()}
    if not args.setup_only:
        result, ops = measure(workload, args.seconds, bool(args.trace))
        report.update(result)
        if args.trace:
            spans = os.path.join(os.path.dirname(args.out),
                                 f"spans-{args.workload}-{args.seed}.jsonl")
            with open(spans, "w") as fh:
                for trace_id, op in enumerate(ops):
                    for span in op.spans or ():
                        fh.write(json.dumps([trace_id, *span]) + "\n")
    with open(args.out, "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
