"""girthlab benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload runs in a child process (perfbench/bench.py).  The last line
of stdout is {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  Exit status
is 0 when every correctness check passed, 1 when one failed, and 2 when
the benchmark could not run (no result is printed then).

Children run one at a time in their own process group; on timeout,
interrupt or SIGTERM the group is killed and the child reaped before this
process exits.  A child also dies when this process is killed outright.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import sys
import time

from tracer import LAYER_METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("search-cubic-g5", "search-quartic-g4", "corpus-audit")
SETUP_SAMPLES = 11    # processes whose set-up is timed in an untraced run
TIME_LIMIT = 170.0    # seconds for the whole run, children included
# "ref" is the mean duration of the reference loop timed beside the
# measured code (refclock.py): about 1 ms on a 2-core Xeon VM.
END_TO_END = {"wall_ref": "ref", "cpu_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB",
              "graph_p50_ref": "ref", "graph_p90_ref": "ref"}


class BenchError(Exception):
    pass


def run_child(args: list[str], deadline: float):
    """Run bench.py with `args` to completion; return (report, monotonic
    spawn time, rusage of the child).  Raises BenchError on failure or when
    `deadline` passes; the child is always reaped before this returns."""
    os.makedirs(OUT_DIR, exist_ok=True)
    out = os.path.join(OUT_DIR, f"report-{os.getpid()}.json")
    if os.path.exists(out):
        os.remove(out)
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, os.path.join(HERE, "bench.py"), *args, "--out", out]
    spawned = time.monotonic()
    pid = os.posix_spawn(sys.executable, argv, env, setsid=True)
    reaped = False
    try:
        while True:
            done, status, usage = os.wait4(pid, os.WNOHANG)
            if done:
                reaped = True
                break
            if time.monotonic() > deadline:
                raise BenchError(f"timed out: {' '.join(args)}")
            time.sleep(0.05)
    finally:
        if not reaped:
            try:
                os.killpg(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.wait4(pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise BenchError(f"bench.py exited with status {code}: {' '.join(args)}")
    with open(out) as fh:
        report = json.load(fh)
    os.remove(out)
    return report, spawned, usage


def run_benchmark(workload: str, seed: int, seconds: float, trace: int,
                  time_limit: float = TIME_LIMIT) -> dict:
    """Result object of one run; diagnostics go to stderr."""
    if not os.path.isfile(os.path.join(SRC, "girthlab", "__init__.py")):
        raise BenchError(f"no girthlab sources under {SRC}")
    deadline = time.monotonic() + time_limit
    common = ["--workload", workload, "--seed", str(seed)]
    setup = []
    for _ in range(0 if trace else SETUP_SAMPLES - 1):
        probe, spawned, _ = run_child(common + ["--setup-only"], deadline)
        setup.append(probe["ready"] - spawned)
    report, spawned, usage = run_child(
        common + ["--seconds", str(seconds), "--trace", str(trace)], deadline)
    setup.append(report["ready"] - spawned)

    if trace:
        metrics = {name: {"value": report["layers"][name], "unit": unit}
                   for name, (unit, _) in LAYER_METRICS.items()}
    else:
        values = dict(report, setup_s=statistics.median(setup),
                      peak_rss_mb=usage.ru_maxrss / 1024)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(f"{workload} seed {seed}: {report['ops']} untraced operation(s), "
          f"{report['graph_samples']} timings of {report['graphs']} graphs, {report['ref_samples']} "
          f"reference samples, {len(setup)} set-up sample(s), "
          f"{report['failed']}/{report['attempted']} failed; median operation "
          f"{report['wall_s']:.3f} s at ref = {report['ref_ms']:.3f} ms", file=sys.stderr)
    for message in report["failures"]:
        print(f"  check failed: {message}", file=sys.stderr)
    return {"correct": report["failed"] == 0, "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    try:
        result = run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark did not run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
