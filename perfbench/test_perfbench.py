"""Tests of the benchmark itself: its contract, process hygiene, the
correctness gates, and repeatability of the exact counts.

    python3 -m pytest perfbench/test_perfbench.py
"""
from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import time

import pytest

import bench  # noqa: F401  (puts the girthlab sources on sys.path)
import girthlab as G
import run
import workloads
from refclock import RefClock
from tracer import LAYER_METRICS

SEARCH_COUNTS = ("search.nodes", "search.classes", "canon.calls", "audit.pairs",
                 "girth.girth_calls")


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_benchmark_json_names_what_the_runner_reports():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == LAYER_METRICS


def test_untraced_run_reports_every_metric_and_leaves_no_child():
    result = run.run_benchmark("corpus-audit", seed=3, seconds=0, trace=0)
    assert_no_children()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 100
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_timeout_kills_and_reaps_the_child():
    with pytest.raises(run.BenchError, match="timed out"):
        run.run_benchmark("search-cubic-g5", seed=1, seconds=30, trace=0, time_limit=2.0)
    assert_no_children()


@pytest.mark.parametrize("workload", ["search-quartic-g4", "search-cubic-g5"])
def test_traced_counts_repeat_across_runs_and_seeds(workload):
    counts = []
    for seed in (1, 2):
        result = run.run_benchmark(workload, seed=seed, seconds=0, trace=1)
        assert_no_children()
        assert result["correct"]
        assert set(result["metrics"]) == set(LAYER_METRICS)
        counts.append({name: result["metrics"][name]["value"] for name in SEARCH_COUNTS})
    assert counts[0] == counts[1]
    assert counts[0]["search.nodes"] > 0 and counts[0]["canon.calls"] > 0


def test_reference_clock_samples_beside_the_code_and_is_subtracted():
    clock = RefClock()
    clock.start()
    try:
        started = time.perf_counter()
        _, (_, start, end, net) = workloads.timed(clock, 0, time.sleep, 0.4)
        while time.perf_counter() - started < 0.4:
            pass
    finally:
        clock.stop()
    assert len(clock.durations) >= 8 and clock.spent > 0
    assert net < end - start and abs(net - 0.4) < 0.05
    unit = clock.unit(start, end)
    assert min(clock.durations) <= unit <= max(clock.durations)


def test_search_gate_rejects_dropped_and_duplicated_classes():
    expected = {10: 1, 12: 2, 14: 9}
    outcome = G.generate(G.SearchConfig(k=3, g=5, n_max=14))
    certs = [cert for n in sorted(outcome.classes_graph6) for cert in outcome.classes_graph6[n]]

    def gate(lines):
        records = [workloads.check_class(line, 3) for line in lines]
        return [message for _, message in workloads.search_failures(records, 3, 5, expected)]

    assert gate(certs) == []
    assert gate(certs[:-1])
    twin = G.write_graph6(workloads.relabel(G.parse_graph6(certs[-2]), random.Random(0)))
    assert any("isomorphic" in message for message in gate(certs[:-1] + [twin]))


@pytest.mark.parametrize("field,value", [
    ("audit_forged", True),
    ("audit_true", False),
    ("engines_agree", False),
    ("canon", "tampered"),
    ("invariants", (5, 4, True, True, True)),
])
def test_corpus_gate_rejects_tampered_records(field, value):
    rng = random.Random(0)
    entries = [("dodecahedron", workloads.relabel(G.dodecahedron_graph(), rng)) for _ in range(2)]
    records = [workloads.analyse(g) for _, g in entries]
    assert workloads.corpus_failures(entries, records) == []
    records[1][field] = value
    assert workloads.corpus_failures(entries, records)


def test_fails_without_the_program_sources():
    bare = os.path.join(run.OUT_DIR, f"bare-{os.getpid()}")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "corpus-audit", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
