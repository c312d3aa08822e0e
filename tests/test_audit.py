import copy
import hashlib
import pickle
import random
import tracemalloc
from collections import Counter
from dataclasses import FrozenInstanceError, fields
from itertools import permutations

import pytest

from girthlab import (
    CaseMismatch,
    GIRTH_EXACT,
    InternalInconsistency,
    NotEligible,
    PropertyViolated,
    SearchConfig,
    audit_case_a,
    audit_case_b,
    audit_gprime_degree,
    audit_graph,
    audit_main_property,
    audit_outer_edges,
    bit_list,
    cycle_graph,
    dodecahedron_graph,
    generate,
    graph_from_edges,
    girth_profile,
    heawood_graph,
    parse_graph6,
    petersen_graph,
    shell_decompose,
)

from girthlab.audit import InequalityRecord, _case_a, _case_b, _main_property
from girthlab.core import Graph
from girthlab.girth import ShellDecomposition

from naive_oracles import (
    oracle_case_a_records,
    oracle_case_b_records,
    oracle_gprime,
    oracle_main_property,
    oracle_outer,
    to_adj,
)


def _cubic_girth5_corpus(n_max=14):
    out = generate(SearchConfig(k=3, g=5, n_max=n_max, girth_mode=GIRTH_EXACT))
    graphs = []
    for n in sorted(out.classes_graph6):
        if n >= 14:
            graphs.extend(parse_graph6(s) for s in out.classes_graph6[n])
    return graphs


def _mode_lambda(g):
    prof = girth_profile(g)
    return Counter(prof.per_vertex).most_common(1)[0][0]


def test_outer_edges_petersen_and_dodecahedron():
    p = petersen_graph()
    for u in range(10):
        audit = audit_outer_edges(p, u, 6)
        assert audit.passed and audit.outer_edges_found == 0
    d = dodecahedron_graph()
    for u in range(20):
        audit = audit_outer_edges(d, u, 3)
        assert audit.passed
        assert audit.outer_edges_found == 6 == audit.two_eps_expected


def test_outer_edges_forged_lambda_fails():
    d = dodecahedron_graph()
    audit = audit_outer_edges(d, 0, 4)
    assert not audit.passed
    assert audit.two_eps_expected == 4 and audit.outer_edges_found == 6


def test_outer_edges_matches_oracle_on_corpus():
    for g in [petersen_graph(), dodecahedron_graph()] + _cubic_girth5_corpus():
        adj = to_adj(g)
        lam = _mode_lambda(g)
        for u in range(g.n):
            audit = audit_outer_edges(g, u, lam)
            found, expected = oracle_outer(adj, 3, u, lam)
            assert audit.outer_edges_found == found
            assert audit.two_eps_expected == expected


def test_outer_edges_rejects_wrong_inputs():
    with pytest.raises(NotEligible):
        audit_outer_edges(cycle_graph(5), 0, 1)  # k = 2
    with pytest.raises(NotEligible):
        audit_outer_edges(heawood_graph(), 0, 1)  # girth 6


def test_main_property_exhaustive_scan():
    p = petersen_graph()
    assert all(audit_main_property(p, u).holds for u in range(10))
    d = dodecahedron_graph()
    for u in range(20):
        audit = audit_main_property(d, u)
        assert list(audit.violations) == oracle_main_property(to_adj(d), u)
    for g in _cubic_girth5_corpus():
        adj = to_adj(g)
        for u in range(g.n):
            audit = audit_main_property(g, u)
            assert sorted(audit.violations) == oracle_main_property(adj, u), (u,)


def test_case_a_preconditions():
    p = petersen_graph()
    # exterior of any Petersen vertex is empty: every v violates membership
    with pytest.raises(ValueError):
        audit_case_a(p, 0, bit_list(shell_decompose(p, 0).n2)[0], 6)
    d = dodecahedron_graph()
    # all distance-3 vertices of the dodecahedron have one contact: case B
    v3 = bit_list(shell_decompose(d, 0).n3plus)[0]
    with pytest.raises(CaseMismatch):
        audit_case_a(d, 0, 3, 3)
    del v3


def test_case_b_dodecahedron_hand_fixture():
    # u=0, v=3 on the spoked labelling: values checked by hand on paper
    d = dodecahedron_graph()
    part = audit_case_b(d, 0, 3, 3)
    assert part.v_prime == 2 and part.u1 == 1
    assert part.v_a == (1,)
    assert part.v_b == (11, 12) and part.v_b_second == (11,)
    assert part.v_c == (5, 14, 15) and part.v_c_prime == ()
    assert part.leaf_sets == ((5, 14), (15,))
    assert part.matching == ((11, 13),)
    assert part.y == 3
    assert part.all_hold
    values = {(r.name, r.context): (r.lhs, r.relation, r.rhs) for r in part.records}
    assert values[("outer_bound1", "")] == (3, "<=", 6)
    assert values[("EAB_new", "")] == (1, "=", 1)
    assert values[("Vout_bound", "")] == (4, ">=", 3)
    assert values[("Y_bound_caseB", "")] == (6, "<=", 13)


def test_case_b_every_pair_matches_oracle_on_dodecahedron():
    d = dodecahedron_graph()
    adj = to_adj(d)
    pairs = 0
    for u in range(20):
        shells = shell_decompose(d, u)
        for v in bit_list(shells.n3plus):
            if (d.rows[v] & shells.n2).bit_count() != 1:
                continue
            part = audit_case_b(d, u, v, 3)
            got = {(r.name, r.context): (r.lhs, r.relation, r.rhs) for r in part.records}
            expected = oracle_case_b_records(adj, 3, u, v, 3)
            assert got == expected, (u, v)
            assert part.all_hold
            pairs += 1
    assert pairs == 120  # 20 roots x 6 distance-3 vertices


def test_case_a_every_pair_matches_oracle_on_corpus():
    graphs = _cubic_girth5_corpus()
    assert len(graphs) >= 5
    pairs = 0
    for g in graphs:
        adj = to_adj(g)
        lam = _mode_lambda(g)
        for u in range(g.n):
            shells = shell_decompose(g, u)
            for v in bit_list(shells.n3plus):
                if (g.rows[v] & shells.n2).bit_count() < 2:
                    continue
                part = audit_case_a(g, u, v, lam)
                got = {(r.name, r.context): (r.lhs, r.relation, r.rhs)
                       for r in part.records}
                assert got == oracle_case_a_records(adj, 3, u, v, lam), (u, v)
                pairs += 1
    assert pairs > 100


def test_case_b_pairs_on_corpus_where_property_holds():
    # roots without violations admit second-stage audits; compare each
    # against the display oracle (the dodecahedron covers the bulk)
    graphs = [dodecahedron_graph()] + _cubic_girth5_corpus()
    checked = 0
    for g in graphs:
        adj = to_adj(g)
        lam = _mode_lambda(g)
        for u in range(g.n):
            if not audit_main_property(g, u).holds:
                continue
            shells = shell_decompose(g, u)
            for v in bit_list(shells.n3plus):
                if (g.rows[v] & shells.n2).bit_count() != 1:
                    continue
                part = audit_case_b(g, u, v, lam)
                got = {(r.name, r.context): (r.lhs, r.relation, r.rhs)
                       for r in part.records}
                assert got == oracle_case_b_records(adj, 3, u, v, lam), (u, v)
                checked += 1
    assert checked >= 120


def test_case_b_preconditions():
    d = dodecahedron_graph()
    far = bit_list(shell_decompose(d, 0).n3plus)
    beyond = [v for v in far if (d.rows[v] & shell_decompose(d, 0).n2).bit_count() == 0]
    with pytest.raises(CaseMismatch):
        audit_case_b(d, 0, beyond[0], 3)
    with pytest.raises(ValueError):
        audit_case_b(d, 0, 1, 3)  # v in N(u)
    p = petersen_graph()
    with pytest.raises(ValueError):
        audit_case_b(p, 0, bit_list(shell_decompose(p, 0).n2)[0], 6)


def test_case_b_property_violated_abort():
    for g in _cubic_girth5_corpus():
        for u in range(g.n):
            if audit_main_property(g, u).holds:
                continue
            shells = shell_decompose(g, u)
            ones = [v for v in bit_list(shells.n3plus)
                    if (g.rows[v] & shells.n2).bit_count() == 1]
            if not ones:
                continue
            with pytest.raises(PropertyViolated):
                audit_case_b(g, u, ones[0], _mode_lambda(g))
            return
    pytest.skip("corpus has no root mixing a violation with a one-contact vertex")


def test_gprime_matches_oracle_and_spec_values():
    p = petersen_graph()
    adj = to_adj(p)
    for u in range(10):
        for idx in (1, 2, 3):
            audit = audit_gprime_degree(p, u, idx, 6)
            got = tuple(r.lhs for r in audit.records)
            expected_lhs, expected_rhs = oracle_gprime(adj, 3, u, idx, 6)
            assert got == expected_lhs
            assert tuple(r.rhs for r in audit.records) == expected_rhs
            assert audit.all_hold
    # spec-level values: |E'| = 6 = 3*4/2 - 0 and every branch degree >= 4
    audit = audit_gprime_degree(p, 0, 1, 6)
    assert audit.records[0].lhs == 6 and audit.records[0].rhs == 6
    assert audit.degree_record.lhs == 4 and audit.degree_record.rhs == 4

    d = dodecahedron_graph()
    audit = audit_gprime_degree(d, 0, 1, 3)
    assert audit.records[0].lhs == 3 and audit.records[0].rhs == 3
    assert audit.degree_record.rhs == 1 and audit.all_hold


def test_gprime_forged_lambda_fails_edge_count():
    audit = audit_gprime_degree(petersen_graph(), 0, 1, 7)
    edges_record = next(r for r in audit.records if r.name == "Gprime_edges")
    assert not edges_record.holds
    assert not audit.all_hold
    with pytest.raises(ValueError):
        audit_gprime_degree(petersen_graph(), 0, 4, 6)  # index out of range


def test_audit_graph_petersen_trivial():
    report = audit_graph(petersen_graph())
    assert report.all_passed
    assert not report.case_a and not report.case_b and report.far_pairs == 0
    assert all(o.passed for o in report.outer)


def test_audit_graph_dodecahedron_counts():
    report = audit_graph(dodecahedron_graph())
    assert report.all_passed
    assert len(report.case_b) == 120 and not report.case_a
    assert report.far_pairs == 80  # 20 roots x (3 + 1) vertices past distance 3
    assert all(m.holds for m in report.main_property)


def test_audit_graph_sampled_scope_deterministic():
    a = audit_graph(dodecahedron_graph(), scope=("sample", 30, 11))
    b = audit_graph(dodecahedron_graph(), scope=("sample", 30, 11))
    assert len(a.case_b) == len(b.case_b)
    assert [(p.root, p.v) for p in a.case_b] == [(p.root, p.v) for p in b.case_b]
    assert len(a.case_b) < 120


def test_audit_graph_rejects_a_disconnected_graph():
    edges = list(petersen_graph().edges())
    two = graph_from_edges(20, edges + [(a + 10, b + 10) for a, b in edges])
    with pytest.raises(NotEligible, match="connected"):
        audit_graph(two)


def test_audit_graph_rejects_non_vgr_with_witnesses():
    graphs = _cubic_girth5_corpus()
    non_vgr = [g for g in graphs if len(set(girth_profile(g).per_vertex)) > 1]
    assert non_vgr
    with pytest.raises(NotEligible, match="lie on"):
        audit_graph(non_vgr[0])


def test_perturbation_flips_audits():
    for g, lam in ((petersen_graph(), 6), (dodecahedron_graph(), 3)):
        for delta in (-1, 1):
            report = audit_graph(g, lam=lam + delta)
            assert not report.all_passed
            assert report.first_failure is not None


def _cayley_a5(involution, rotation):
    # cubic Cayley graph of A5 on {involution, rotation, rotation^-1}
    even = [p for p in permutations(range(5))
            if sum(p[i] > p[j] for i in range(5) for j in range(i + 1, 5)) % 2 == 0]
    index = {p: i for i, p in enumerate(even)}
    inverse = tuple(rotation.index(i) for i in range(5))
    edges = {tuple(sorted((index[p], index[tuple(p[s[i]] for i in range(5))])))
             for p in even for s in (involution, rotation, inverse)}
    return graph_from_edges(len(even), sorted(edges))


def test_audit_report_is_pinned():
    # digest of whole reports as first pinned, before the audit shared its
    # per-graph validation and per-root shells: the true count, both forged
    # neighbours and one sampled scope.  The n = 14 corpus has no
    # vertex-girth-regular class, so its refusals are pinned instead; the
    # two Cayley graphs of A5 cover case A (with containment failing at
    # every root) and case B.  The corpus is search output in emitted
    # order, so the digest was re-pinned when search classes became
    # canonical_graph6 strings; the count-coloured classes emitted before,
    # re-canonised and sorted, give the same digest.  Re-pinned the same
    # way when regular graphs began to split by distance profile
    graphs = [petersen_graph(), dodecahedron_graph(),
              _cayley_a5((1, 0, 3, 2, 4), (1, 3, 4, 2, 0)),
              _cayley_a5((0, 2, 1, 4, 3), (1, 3, 4, 2, 0))]
    lines, kinds = [], []
    for g in graphs:
        lam = girth_profile(g).per_vertex[0]
        reports = [audit_graph(g, lam=lam + delta) for delta in (0, -1, 1)]
        reports.append(audit_graph(g, scope=("sample", 50, 3)))
        lines += map(repr, reports)
        kinds.append((len(reports[0].case_a), len(reports[0].case_b),
                      len(reports[0].skipped_pairs)))
    for g in _cubic_girth5_corpus():
        with pytest.raises(NotEligible) as refusal:
            audit_graph(g)
        lines.append(str(refusal.value))
    assert kinds[2:] == [(120, 0, 360), (0, 600, 0)]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16] == "abe4f15b713bf097"


def test_audit_graph_records_match_public_functions():
    # every record of audit_graph is what the per-pair public function
    # returns for that pair (partitions compare their records field by
    # field), though the report shares equal record tuples and the public
    # function builds its own; pairs at roots where containment fails are
    # skipped, and the public case-B audit refuses them
    graphs = [dodecahedron_graph(), _cayley_a5((1, 0, 3, 2, 4), (1, 3, 4, 2, 0)),
              _cayley_a5((0, 2, 1, 4, 3), (1, 3, 4, 2, 0))]
    for g in graphs:
        lam = girth_profile(g).per_vertex[0]
        for claimed in (lam, lam + 1):
            report = audit_graph(g, lam=claimed)
            assert report.outer == [audit_outer_edges(g, u, claimed) for u in range(g.n)]
            assert report.main_property == [audit_main_property(g, u) for u in range(g.n)]
            for part in report.case_a:
                assert part == audit_case_a(g, part.root, part.v, claimed)
            for part in report.case_b:
                assert part == audit_case_b(g, part.root, part.v, claimed)
            for u, v, _ in report.skipped_pairs:
                with pytest.raises(PropertyViolated):
                    audit_case_b(g, u, v, claimed)
            audited = len(report.case_a) + len(report.case_b) + len(report.skipped_pairs)
            assert audited + report.far_pairs == sum(
                shell_decompose(g, u).n3plus.bit_count() for u in range(g.n))


def test_audit_graph_builds_each_distinct_record_once():
    # one audit_graph call builds each distinct record tuple once and
    # shares it between the partitions that display it; no record outlives
    # its call
    graphs = [dodecahedron_graph(), _cayley_a5((1, 0, 3, 2, 4), (1, 3, 4, 2, 0)),
              _cayley_a5((0, 2, 1, 4, 3), (1, 3, 4, 2, 0))]
    for g in graphs:
        lam = girth_profile(g).per_vertex[0]
        for claimed in (lam, lam + 1):
            report = audit_graph(g, lam=claimed)
            records = [rec for part in report.case_a + report.case_b
                       for rec in part.records]
            if len(report.case_b) == 600:
                # the case-B Cayley graph: 13 records at each of 600 pairs
                assert len(records) == 7800 and len(set(records)) == 35
            again = audit_graph(g, lam=claimed)
            assert again == report
            assert not {id(r) for r in records} & {
                id(r) for part in again.case_a + again.case_b for r in part.records}
            # copies keep the values and the sharing
            shared = len({id(part.records) for part in report.case_a + report.case_b})
            for copied in (pickle.loads(pickle.dumps(report)), copy.deepcopy(report)):
                assert copied == report
                assert len({id(part.records)
                            for part in copied.case_a + copied.case_b}) == shared


def test_audit_graph_shares_each_record_tuple():
    # pairs with equal counts share one record tuple: (pairs, distinct
    # record tuples, records of distinct value) per report, at the true
    # count and at both forged neighbours
    graphs = [(_cayley_a5((0, 2, 1, 4, 3), (1, 3, 4, 2, 0)), (600, 6, 35)),
              (dodecahedron_graph(), (120, 2, 17)),
              (_cayley_a5((1, 0, 3, 2, 4), (1, 3, 4, 2, 0)), (120, 1, 6))]
    for g, expected in graphs:
        lam = girth_profile(g).per_vertex[0]
        for claimed in (lam - 1, lam, lam + 1):
            report = audit_graph(g, lam=claimed)
            parts = report.case_a + report.case_b
            assert (len(parts), len({id(p.records) for p in parts}),
                    len({r for p in parts for r in p.records})) == expected


def _builder_calls(monkeypatch, run):
    # every (builder, argument tuple) that the kernels hand to the table
    import girthlab.audit as audit_module

    calls = []
    shared = audit_module._shared_records

    def spy(table, build, args):
        calls.append((build, args))
        return shared(table, build, args)

    monkeypatch.setattr(audit_module, "_shared_records", spy)
    run()
    monkeypatch.undo()
    return calls


def _plus_one_each(args):
    # the argument tuple with +1 on one integer, for each integer in it,
    # nested tuples included
    for i, arg in enumerate(args):
        if isinstance(arg, tuple):
            for inner in _plus_one_each(arg):
                yield args[:i] + (inner,) + args[i + 1:]
        else:
            yield args[:i] + (arg + 1,) + args[i + 1:]


def test_record_builders_read_every_argument(monkeypatch):
    # a builder's records are keyed by its whole argument tuple, so each
    # argument must reach the records: +1 on any one of them alone changes
    # what the builder returns.  The deficits cover both Y-bound forms
    # (lambda = 5 puts 2e = 2 in the excluded range)
    from girthlab.audit import _case_a_records, _case_b_records

    seen = Counter()
    for involution in ((0, 2, 1, 4, 3), (1, 0, 3, 2, 4)):
        g = _cayley_a5(involution, (1, 3, 4, 2, 0))
        for claimed in (1, 2, 5):
            calls = _builder_calls(monkeypatch, lambda: audit_graph(g, lam=claimed))
            for build, args in dict.fromkeys(calls):
                base = build(*args)
                assert base == build(*args)
                variants = list(_plus_one_each(args))
                assert len(variants) == {_case_a_records: 12,
                                         _case_b_records: 14 + 2 + 2 * 4}[build]
                for changed in variants:
                    assert build(*changed) != base, (build.__name__, args, changed)
                seen[build.__name__, 0 < 12 - 2 * claimed <= 2] += 1
    assert set(seen) == {(name, in_range) for name in ("_case_a_records", "_case_b_records")
                         for in_range in (False, True)}


def test_audit_graph_validates_once_and_decomposes_once_per_root(monkeypatch):
    import girthlab.audit as audit_module

    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("regularity", "shell_decompose"):
        monkeypatch.setattr(audit_module, name, counted(name, getattr(audit_module, name)))
    audit_graph(dodecahedron_graph())
    assert calls == {"regularity": 1, "shell_decompose": 20}
    calls.clear()
    audit_graph(dodecahedron_graph(), scope=("sample", 30, 11))
    assert calls == {"regularity": 1, "shell_decompose": 20}


def _record_values(part):
    return {(r.name, r.context): (r.lhs, r.relation, r.rhs) for r in part.records}


def test_cayley_pairs_match_oracles_under_forged_counts():
    # every case-B pair of the 600-pair Cayley graph of A5 and every case-A
    # pair of the 120-pair one, at the true count and both neighbours
    for involution, case in (((0, 2, 1, 4, 3), "b"), ((1, 0, 3, 2, 4), "a")):
        g = _cayley_a5(involution, (1, 3, 4, 2, 0))
        adj = to_adj(g)
        lam = girth_profile(g).per_vertex[0]
        for claimed in (lam - 1, lam, lam + 1):
            report = audit_graph(g, lam=claimed)
            parts = report.case_b if case == "b" else report.case_a
            oracle = oracle_case_b_records if case == "b" else oracle_case_a_records
            assert len(parts) == (600 if case == "b" else 120)
            for part in parts:
                assert _record_values(part) == oracle(adj, 3, part.root, part.v, claimed), \
                    (part.root, part.v, claimed)


def _corrupted_pair_outcomes(g, case_b, inward):
    # per root, the first exterior pair of the case; one vertex at a time
    # is moved from the second shell of v to its exterior, or (inward)
    # from the exterior of v to its second shell
    lines = []
    for u in range(g.n):
        shells_u = shell_decompose(g, u)
        containment = _main_property(g, shells_u)[2]
        v = next(v for v in bit_list(shells_u.n3plus)
                 if ((g.rows[v] & shells_u.n2).bit_count() == 1) == case_b
                 and g.rows[v] & shells_u.n2)
        sv = shell_decompose(g, v)
        for x in bit_list(sv.n3plus if inward else sv.n2):
            bad = ShellDecomposition(v, sv.n1, sv.n2 ^ 1 << x, sv.n3plus ^ 1 << x)
            try:
                if case_b:
                    part = _case_b(g, 3, shells_u, bad, 1, containment)
                else:
                    part = _case_a(g, 3, shells_u, bad, 1)
                lines.append(f"{u} {v} {x} ok {part!r}")
            except Exception as exc:
                lines.append(f"{u} {v} {x} {type(exc).__name__}: {exc}")
    return lines


def test_kernel_failures_on_corrupted_shells_are_pinned():
    # the exception type and message, or the whole partition when nothing
    # is raised, for every corrupted pair, as first pinned before the
    # kernels counted each pair in one pass
    digests, outcomes, messages = {}, {}, set()
    for involution, case_b in (((0, 2, 1, 4, 3), True), ((1, 0, 3, 2, 4), False)):
        g = _cayley_a5(involution, (1, 3, 4, 2, 0))
        for inward in (False, True):
            lines = _corrupted_pair_outcomes(g, case_b, inward)
            key = ("B" if case_b else "A") + ("in" if inward else "out")
            digests[key] = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
            outcomes[key] = Counter(line.split(" ")[3] for line in lines)
            messages |= {line.split(" ", 3)[3] for line in lines if " ok " not in line}
    assert outcomes == {
        "Bout": {"InternalInconsistency:": 300, "ok": 60},
        "Bin": {"InternalInconsistency:": 3000},
        "Aout": {"InternalInconsistency:": 120, "ok": 240},
        "Ain": {"InternalInconsistency:": 120, "ok": 2880},
    }
    for message in ("leaf set smaller than k-2",
                    "crossing-edge matching is not a bijection",
                    "count of minimum leaf sets differs from |V_B''|",
                    "V_A is not exactly the distinguished first-shell vertex",
                    "leaf sets do not cover V_C''",
                    "V_B'' vertex 28 with 0 partners",
                    "fewer than two first-shell contacts in case A",
                    "root inside N2(v) for an exterior v",
                    "branch indicators disagree with |V_A|"):
        assert "InternalInconsistency: " + message in messages
    assert digests == {"Bout": "a6c3428399063a91", "Bin": "097b6e15f62252a6",
                       "Aout": "a60c1111b968d720", "Ain": "72167be60c4a6d58"}


def test_five_cycle_count_is_an_independent_check():
    # y counts N2(v) on its own, not as the sum of its parts: two one-way
    # adjacency bits from a V_C vertex into the rest of N2(v), which no
    # part counts, make the kernels refuse the partition
    def one_way(g, c, targets):
        rows = list(g.rows)
        rows[c] |= targets
        return Graph(g.n, tuple(rows))

    d = dodecahedron_graph()
    shells_u, shells_v = shell_decompose(d, 0), shell_decompose(d, 3)
    # u = 0, v = 3: vertex 5 lies in V_C'' and V_B is {11, 12}
    with pytest.raises(InternalInconsistency, match="5-cycle count"):
        _case_b(one_way(d, 5, 1 << 11 | 1 << 12), 3, shells_u, shells_v, 3,
                _main_property(d, shells_u)[2])

    g = _cayley_a5((1, 0, 3, 2, 4), (1, 3, 4, 2, 0))
    shells_u = shell_decompose(g, 0)
    v = next(v for v in bit_list(shells_u.n3plus)
             if (g.rows[v] & shells_u.n2).bit_count() >= 2)
    shells_v = shell_decompose(g, v)
    va = shells_v.n2 & shells_u.n1
    c = next(c for c in bit_list(shells_v.n2 & shells_u.n3plus) if not g.rows[c] & va)
    with pytest.raises(InternalInconsistency, match="5-cycle count"):
        _case_a(one_way(g, c, va), 3, shells_u, shells_v, 1)


def test_inequality_record_make_is_the_dataclass():
    assert [f.name for f in fields(InequalityRecord)] == [
        "name", "lhs", "rhs", "relation", "holds", "context"]
    for lhs, relation, rhs in ((3, "<=", 4), (5, ">=", 6), (2, "=", 2), (7, "<", 7)):
        made = InequalityRecord.make("R", lhs, relation, rhs, "i=1")
        built = InequalityRecord("R", lhs, rhs, relation,
                                 {"<=": lhs <= rhs, ">=": lhs >= rhs, "=": lhs == rhs,
                                  "<": lhs < rhs}[relation], "i=1")
        assert type(made) is InequalityRecord
        assert made == built and hash(made) == hash(built) and repr(made) == repr(built)
        assert pickle.loads(pickle.dumps(made)) == built
        with pytest.raises(FrozenInstanceError):
            made.lhs = 0
    assert InequalityRecord.make("R", 1, "<=", 2).context == ""

    def traced(build):
        tracemalloc.start()
        try:
            kept = [build(i) for i in range(3000)]
            return tracemalloc.get_traced_memory()[0], kept
        finally:
            tracemalloc.stop()

    # make() keeps no more memory than the generated constructor does
    made, _ = traced(lambda i: InequalityRecord.make("R", i, "<=", i + 1))
    built, _ = traced(lambda i: InequalityRecord("R", i, i + 1, "<=", True))
    assert made <= 1.1 * built


def test_case_b_structure_checks_refuse_hand_built_rows():
    # the absence identity and the leaf-set checks of case B, each reached
    # by adjacency bits added to the rows of one case-B pair of the Cayley
    # graph of A5 while the shells stay those of the true graph
    g = _cayley_a5((0, 2, 1, 4, 3), (1, 3, 4, 2, 0))
    shells_u = shell_decompose(g, 0)
    containment = _main_property(g, shells_u)[2]
    for v in bit_list(shells_u.n3plus):
        contacts = g.rows[v] & shells_u.n2
        shells_v = shell_decompose(g, v)
        vc = shells_v.n2 & ~(shells_u.n1 | shells_u.n2)
        if contacts.bit_count() == 1 and vc & g.rows[contacts.bit_length() - 1]:
            break
    v_prime = contacts.bit_length() - 1
    vc1 = vc & g.rows[v_prime]
    v_rest = bit_list(g.rows[v] & ~(1 << v_prime))
    leaf_sets = [bit_list(g.rows[vi] & vc & ~vc1) for vi in v_rest]
    assert len(leaf_sets) == 2 and len(leaf_sets[0]) == 2

    def refused(added, message):
        rows = list(g.rows)
        for a, b in added:
            rows[a] |= 1 << b
        with pytest.raises(InternalInconsistency, match=message):
            _case_b(Graph(g.n, tuple(rows)), 3, shells_u, shells_v, 1, containment)

    # a V_C' vertex reaching a second-shell vertex of u other than v'
    c = bit_list(vc1)[0]
    target = next(w for w in bit_list(shells_u.n2 & ~g.rows[c]) if w != v_prime)
    refused([(c, target)], "edge from V_C' or v into N2[(]u[)] away from v'")
    # a neighbour of v reaching into the leaf set of another
    refused([(v_rest[1], leaf_sets[0][0])], "leaf sets overlap")
    # an edge between the two leaves of one set: one-way bits count one
    # half-edge each, so both bits are set
    a, b = leaf_sets[0]
    refused([(a, b), (b, a)], "edge inside a leaf set")


def _audit_results():
    # one instance of every audit result class, from real audits: the
    # dodecahedron and the case-B Cayley graph of A5 give case-B partitions,
    # the other Cayley graph case-A partitions and containment violations
    results = []
    for g in (dodecahedron_graph(), _cayley_a5((0, 2, 1, 4, 3), (1, 3, 4, 2, 0)),
              _cayley_a5((1, 0, 3, 2, 4), (1, 3, 4, 2, 0))):
        lam = girth_profile(g).per_vertex[0]
        for claimed in (lam, lam + 1):
            report = audit_graph(g, lam=claimed)
            results += [report, report.outer[0], report.main_property[0],
                        *report.case_a[:2], *report.case_b[:2],
                        audit_gprime_degree(g, 0, 1, claimed)]
            results += [rec for part in report.case_a[:1] + report.case_b[:1]
                        for rec in part.records]
    return results


def test_audit_results_survive_pickle_deepcopy_and_repr():
    import girthlab.audit as audit_module

    results = _audit_results()
    kinds = {type(r).__name__ for r in results}
    assert kinds == {"InequalityRecord", "OuterEdgeAudit", "MainPropertyAudit",
                     "CaseAPartition", "CaseBPartition", "GPrimeAudit", "AuditReport"}
    assert any(not r.all_passed for r in results if type(r).__name__ == "AuditReport")
    assert any(r.violations for r in results if type(r).__name__ == "MainPropertyAudit")
    namespace = {name: getattr(audit_module, name) for name in kinds}
    for result in results:
        for copied in (pickle.loads(pickle.dumps(result)), copy.deepcopy(result),
                       eval(repr(result), namespace)):
            assert type(copied) is type(result)
            assert copied == result and repr(copied) == repr(result)
            assert copied is not result


def test_frozen_audit_results_refuse_assignment():
    # every result class but AuditReport, which audit_graph fills in place
    results = [r for r in _audit_results() if type(r).__name__ != "AuditReport"]
    for result in results:
        for f in fields(result):
            with pytest.raises(FrozenInstanceError):
                setattr(result, f.name, getattr(result, f.name))
        # a name that is not a field is refused too, both to assign and to
        # delete
        with pytest.raises(FrozenInstanceError):
            result.extra = 1
        with pytest.raises(FrozenInstanceError):
            del result.extra


def _naive_dispatch(g, scope):
    # every exterior pair classified by its own count of contacts in N2(u),
    # and each root's containment taken from the oracle's pairwise scan
    adj = to_adj(g)
    shells = [shell_decompose(g, u) for u in range(g.n)]
    pairs = [(s.root, v) for s in shells for v in bit_list(s.n3plus)]
    if scope != "all":
        _, count, seed = scope
        pairs = set(pairs if count >= len(pairs) else random.Random(seed).sample(pairs, count))
    case_a, case_b, skipped, far = [], [], [], 0
    for s in shells:
        holds = not oracle_main_property(adj, s.root)
        for v in bit_list(s.n3plus):
            if (s.root, v) not in pairs:
                continue
            contacts = (g.rows[v] & s.n2).bit_count()
            if contacts >= 2:
                case_a.append((s.root, v))
            elif contacts == 1:
                (case_b if holds else skipped).append((s.root, v))
            else:
                far += 1
    return case_a, case_b, skipped, far


def test_dispatch_matches_per_pair_contact_counts():
    graphs = [dodecahedron_graph(),
              _cayley_a5((1, 0, 3, 2, 4), (1, 3, 4, 2, 0)),
              _cayley_a5((0, 2, 1, 4, 3), (1, 3, 4, 2, 0))]
    seen = Counter()
    for g in graphs:
        for scope in ("all", ("sample", 50, 3)):
            case_a, case_b, skipped, far = _naive_dispatch(g, scope)
            report = audit_graph(g, scope=scope)
            assert [(p.root, p.v) for p in report.case_a] == case_a
            assert [(p.root, p.v) for p in report.case_b] == case_b
            assert [(u, v) for u, v, _ in report.skipped_pairs] == skipped
            assert report.far_pairs == far
            seen.update({(scope == "all", "a"): len(case_a), (scope == "all", "b"): len(case_b),
                         (scope == "all", "skipped"): len(skipped),
                         (scope == "all", "far"): far})
    # every kind occurs under both scopes, and the sample drops far pairs
    assert all(seen[(whole, kind)] for whole in (True, False)
               for kind in ("a", "b", "skipped", "far"))
    assert seen[(False, "far")] < seen[(True, "far")]
