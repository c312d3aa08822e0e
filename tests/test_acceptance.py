"""Acceptance criteria, one test per criterion.

Each test prints a single ACCEPTANCE line (visible with -s) and asserts the
criterion at its stated tolerance: counting values exactly, runtimes against
the stated wall-clock limits.
"""
import random
import time
from collections import Counter

import networkx as nx

from girthlab import (
    GIRTH_EXACT,
    Rule,
    SearchConfig,
    Status,
    audit_graph,
    audit_outer_edges,
    canonical_graph6,
    classify,
    cli,
    confirm_nonexistence,
    dodecahedron_graph,
    generate,
    girth,
    girth_profile,
    graph_from_edges,
    known_nonexistence,
    parse_graph6,
    petersen_graph,
    shell_decompose,
    vertex_cycle_bound,
)
from girthlab.core import bit_list

from naive_oracles import (
    naive_profile,
    oracle_case_a_records,
    oracle_case_b_records,
    to_adj,
)


def _report(number: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number} {'PASS' if passed else 'FAIL'}: {detail}", flush=True)
    assert passed, f"criterion {number}: {detail}"


def test_criterion_1_petersen_moore_equality():
    started = time.perf_counter()
    g = petersen_graph()
    rep = classify(g)
    elapsed = time.perf_counter() - started
    total, per_vertex, per_edge = naive_profile(to_adj(g), 5)
    ok = (
        (rep.n, rep.k, rep.girth) == (10, 3, 5)
        and rep.is_vgr and rep.lambda_vertex == 6
        and rep.is_egr and rep.lambda_edge == 4
        and rep.is_gr and rep.common_signature == (4, 4, 4)
        and rep.lambda_vertex == 3 * 2 ** 2 // 2 == rep.vertex_bound
        and rep.lambda_edge == 2 ** 2 == rep.edge_bound
        and total == 12
        and all(per_vertex[v] == 6 for v in range(10))
        and all(c == 4 for c in per_edge.values())
        and elapsed < 1.0
    )
    _report(1, ok, f"classify(petersen) = vgr(10,3,5,6), egr 4, gr (4,4,4), "
                   f"bounds met exactly, oracle agrees, {elapsed:.3f}s < 1s")


def test_criterion_2_dodecahedron_ledger():
    started = time.perf_counter()
    g = dodecahedron_graph()
    rep = classify(g)
    outer = [audit_outer_edges(g, u, 3) for u in range(20)]
    elapsed = time.perf_counter() - started
    ok = (
        (rep.n, rep.k, rep.girth) == (20, 3, 5)
        and rep.is_vgr and rep.lambda_vertex == 3
        and rep.two_epsilon == 6
        and all(a.passed and a.outer_edges_found == 6 for a in outer)
        and len(outer) == 20
        and elapsed < 1.0
    )
    _report(2, ok, f"classify(dodecahedron) = vgr(20,3,5,3), 2e = 6, outer-edge "
                   f"audit passes at all 20 roots with count 6, {elapsed:.3f}s < 1s")


def test_criterion_3_engine_equivalence():
    out = generate(SearchConfig(k=3, g=5, n_max=14, girth_mode=GIRTH_EXACT))
    graphs = [parse_graph6(s) for certs in out.classes_graph6.values() for s in certs]
    mismatches = 0
    for g in graphs:
        fast = girth_profile(g, engine="girth5")
        slow = girth_profile(g, engine="paths")
        if fast.per_vertex != slow.per_vertex or fast.per_edge != slow.per_edge:
            mismatches += 1
    ok = mismatches == 0 and len(graphs) >= 11
    _report(3, ok, f"fast and path-enumeration counters agree on all "
                   f"{len(graphs)} connected cubic girth-5 graphs with n <= 14 "
                   f"({mismatches} discrepancies)")


def test_criterion_4_nonexistence_confirmation_at_desk_scale():
    started = time.perf_counter()
    single = confirm_nonexistence(3, 2, 14)
    single_time = time.perf_counter() - started
    started = time.perf_counter()
    quad = confirm_nonexistence(3, 2, 14, worker_count=4)
    quad_time = time.perf_counter() - started
    enumerated = sum(single.per_n_classes.values())
    ok = (
        single.total_hits == 0 and not single.contradiction
        and quad.total_hits == 0
        and single.per_n_classes == quad.per_n_classes
        and enumerated >= 11
        and single_time < 300.0 and quad_time < 120.0
    )
    _report(4, ok, f"no cubic girth-5 graph with n <= 14 has uniform count 5 "
                   f"({enumerated} classes enumerated; single {single_time:.1f}s "
                   f"< 300s, 4 workers {quad_time:.1f}s < 120s)")


def test_criterion_5_generation_correctness(oracle_forms):
    out1 = generate(SearchConfig(k=3, g=5, n_max=10, worker_count=1))
    out4 = generate(SearchConfig(k=3, g=5, n_max=10, worker_count=4))
    engine_sets = {
        n: {canonical_graph6(parse_graph6(s)) for s in out1.classes_graph6.get(n, [])}
        for n in range(4, 11)
    }
    oracle_sets = {n: oracle_forms(n, 3, 5) for n in range(4, 11)}
    ok = (
        out1.per_n_classes == {10: 1}
        and engine_sets == oracle_sets
        and out1.per_n_classes == out4.per_n_classes
        and out1.classes_graph6 == out4.classes_graph6
    )
    _report(5, ok, "exactly 1 class at (k=3, girth >= 5, n = 10); classes for "
                   "n <= 10 equal the labelled-enumeration oracle; per-n counts "
                   "identical across 1 and 4 workers")


def test_criterion_6_auditor_oracle_equivalence():
    corpus = [(dodecahedron_graph(), 3)]
    out = generate(SearchConfig(k=3, g=5, n_max=14, girth_mode=GIRTH_EXACT))
    big = [parse_graph6(s) for s in out.classes_graph6.get(14, [])]
    assert len(big) >= 5
    for g in big:
        lam = Counter(girth_profile(g).per_vertex).most_common(1)[0][0]
        corpus.append((g, lam))
    mismatches = 0
    pairs = 0
    for g, lam in corpus:
        adj = to_adj(g)
        for u in range(g.n):
            shells = shell_decompose(g, u)
            property_holds = not any(
                (g.rows[v] & shells.n2).bit_count() >= 2
                for v in bit_list(shells.n3plus)
            )
            for v in bit_list(shells.n3plus):
                contacts = (g.rows[v] & shells.n2).bit_count()
                if contacts >= 2:
                    from girthlab import audit_case_a

                    part = audit_case_a(g, u, v, lam)
                    expected = oracle_case_a_records(adj, 3, u, v, lam)
                elif contacts == 1 and property_holds:
                    from girthlab import audit_case_b

                    part = audit_case_b(g, u, v, lam)
                    expected = oracle_case_b_records(adj, 3, u, v, lam)
                else:
                    continue
                pairs += 1
                got = {(r.name, r.context): (r.lhs, r.relation, r.rhs)
                       for r in part.records}
                if got != expected:
                    mismatches += 1
    ok = mismatches == 0 and pairs >= 400
    _report(6, ok, f"every relation record equals its brute-force evaluation on "
                   f"{pairs} eligible pairs over the dodecahedron and {len(big)} "
                   f"cubic girth-5 graphs with n = 14 ({mismatches} mismatches)")


def test_criterion_7_perturbation_sensitivity(capsys):
    flips = []
    for g, lam in ((petersen_graph(), 6), (dodecahedron_graph(), 3)):
        for delta in (-1, 1):
            report = audit_graph(g, lam=lam + delta)
            flips.append(not report.all_passed)
    code = cli.main(["audit", "named:dodecahedron", "--lambda", "4"])
    capsys.readouterr()
    ok = all(flips) and code == 1
    _report(7, ok, "forging the count by +-1 flips at least one record on every "
                   f"audited graph ({len(flips)} forgeries) and cmd_audit exits 1")


def test_criterion_8_known_nonexistence_table():
    checked = 0
    ok = True
    expected_rule = {3: Rule.GIRTH3, 5: Rule.GIRTH5, 7: Rule.ODD_GIRTH_GE7,
                     9: Rule.ODD_GIRTH_GE7}
    for k in (3, 4, 5):
        for g in (3, 5, 7, 9):
            bound = vertex_cycle_bound(k, g)
            for eps in range(1, (k - 1) // 2 + 1):
                verdict = known_nonexistence(k, g, bound - eps)
                ok &= verdict.status is Status.EXCLUDED
                ok &= verdict.rule is expected_rule[g]
                checked += 1
    moore = (known_nonexistence(3, 5, 6), known_nonexistence(7, 5, 126))
    ok &= all(v.status is Status.EXISTS for v in moore)
    _report(8, ok, f"{checked} in-range deficit triples all excluded with the "
                   "correct rule; (3,5,6) and (7,5,126) report KnownToExist")


def test_criterion_9_invariant_suite():
    rng = random.Random(160914)
    violations = 0
    checked = 0
    while checked < 200:
        k = rng.choice([2, 3, 3, 4, 4, 5])
        n = rng.randrange(max(k + 1, 5), 17)
        if (n * k) % 2:
            continue
        h = nx.random_regular_graph(k, n, seed=rng.randrange(10 ** 9))
        g = graph_from_edges(n, h.edges())
        if girth(g) is None:
            continue
        profile = girth_profile(g)
        lhs_v = sum(profile.per_vertex)
        lhs_e = sum(profile.per_edge.values())
        target = profile.girth * profile.total_girth_cycles
        if lhs_v != target or lhs_e != target:
            violations += 1
        for v in range(g.n):
            incident = sum(
                profile.per_edge[(min(v, w), max(v, w))]
                for w in bit_list(g.rows[v])
            )
            if incident != 2 * profile.per_vertex[v]:
                violations += 1
        checked += 1
    ok = violations == 0 and checked >= 200
    _report(9, ok, f"handshake identities hold on {checked} random regular "
                   f"graphs with n <= 16 ({violations} violations)")
