import pytest

from girthlab import (
    NotEligible,
    SearchConfig,
    Rule,
    Status,
    TheoremContradiction,
    check_bounds,
    InternalInconsistency,
    bit_list,
    classify,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    dodecahedron_graph,
    generate,
    girth_profile,
    graph_from_edges,
    heawood_graph,
    known_nonexistence,
    moore_bound,
    parse_graph6,
    path_graph,
    petersen_graph,
    refute_signature,
    signatures,
    vertex_cycle_bound,
)
from girthlab.classify import in_excluded_range, two_epsilon
from girthlab.girth import GirthProfile
from girthlab.search import nonexistence_lambda


def test_classify_petersen():
    rep = classify(petersen_graph())
    assert (rep.n, rep.k, rep.girth) == (10, 3, 5)
    assert rep.is_vgr and rep.lambda_vertex == 6
    assert rep.is_gr and rep.common_signature == (4, 4, 4)
    assert rep.is_egr and rep.lambda_edge == 4
    assert rep.vertex_bound == 6 and rep.edge_bound == 4
    assert rep.two_epsilon == 0 and rep.epsilon == 0
    assert rep.moore_deficit == 0


def test_classify_dodecahedron():
    rep = classify(dodecahedron_graph())
    assert (rep.n, rep.k, rep.girth) == (20, 3, 5)
    assert rep.is_vgr and rep.lambda_vertex == 3
    assert rep.is_egr and rep.lambda_edge == 2
    assert rep.two_epsilon == 6 and rep.epsilon == 3
    assert rep.moore_deficit == 10


def test_classify_k4_and_k33():
    rep = classify(complete_graph(4))
    assert rep.is_vgr and rep.lambda_vertex == 3 and rep.epsilon == 0
    rep = classify(complete_bipartite_graph(3, 3))
    assert rep.is_vgr and rep.lambda_vertex == 6 and rep.epsilon == 0
    assert rep.girth == 4 and rep.moore_deficit == 0


def test_classify_irregular_graph():
    # a triangle with a pendant vertex: connected, cyclic, not regular
    g = graph_from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    rep = classify(g)
    assert rep.k is None
    assert not rep.is_vgr and not rep.is_gr and not rep.is_egr
    with pytest.raises(ValueError):
        check_bounds(g, rep)


def test_classify_rejects_bad_inputs():
    with pytest.raises(NotEligible):
        classify(path_graph(5))  # acyclic
    disconnected = graph_from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    with pytest.raises(NotEligible):
        classify(disconnected)


def test_moore_bound_values():
    assert moore_bound(3, 5) == 10
    assert moore_bound(3, 6) == 14
    assert moore_bound(7, 5) == 50
    assert moore_bound(4, 7) == 53
    assert moore_bound(2, 9) == 9
    with pytest.raises(ValueError):
        moore_bound(1, 5)


def test_check_bounds_slacks():
    p = petersen_graph()
    slacks = {b.name: b.slack for b in check_bounds(p, classify(p))}
    assert slacks == {"per_vertex_cycles": 0, "per_edge_cycles": 0, "moore_order": 0}
    d = dodecahedron_graph()
    slacks = {b.name: b.slack for b in check_bounds(d, classify(d))}
    assert slacks == {"per_vertex_cycles": 3, "per_edge_cycles": 2, "moore_order": 10}
    c7 = cycle_graph(7)
    rep = classify(c7)
    checks = {b.name: b for b in check_bounds(c7, rep)}
    assert checks["per_vertex_cycles"].rhs == 1  # k=2: bound is 1
    assert checks["per_vertex_cycles"].slack == 0
    assert all(b.holds for b in checks.values())


def test_forged_profile_raises_theorem_contradiction():
    # claimed uniform count of 5 on the dodecahedron: deficit 2e = 2 is in
    # the excluded odd-girth range and must be rejected loudly.  The forged
    # per-edge counts (4 on the ten spokes, 3 elsewhere) satisfy every
    # handshake identity, so only the deficit check can catch the forgery.
    d = dodecahedron_graph()
    forged_edges = {e: 4 if e[1] == e[0] + 10 else 3 for e in d.edges()}
    forged = GirthProfile(5, 20, tuple([5] * 20), forged_edges)
    forged.validate()
    with pytest.raises(TheoremContradiction):
        classify(d, profile=forged)


def test_classify_asks_the_oracle():
    # a forged lambda = 18 = vertex_cycle_bound(4, 5) on the Robertson graph,
    # the quartic girth-5 class on 19 vertices: the oracle excludes
    # (4, 5, 18) as the Moore case, outside the odd-girth deficit range
    robertson = parse_graph6(generate(SearchConfig(k=4, g=5, n_max=19)).classes_graph6[19][0])
    forged = GirthProfile(5, 19, tuple([18] * 19), {e: 9 for e in robertson.edges()})
    assert known_nonexistence(4, 5, 18).rule is Rule.MOORE_CASE
    with pytest.raises(TheoremContradiction, match="MooreCase"):
        classify(robertson, profile=forged)
    # a lambda above the bound is left to check_bounds
    above = GirthProfile(5, 19, tuple([20] * 19), {e: 10 for e in robertson.edges()})
    rep = classify(robertson, profile=above)
    assert rep.lambda_vertex == 20
    assert not next(b for b in check_bounds(robertson, rep, above)
                    if b.name == "per_vertex_cycles").holds


def test_signatures_match_the_edge_counts_at_every_vertex():
    # a triangle with a pendant edge into a chorded 5-cycle: four kinds of
    # signature, against each vertex's edge counts read one edge at a time
    g = graph_from_edges(8, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5),
                             (5, 6), (6, 7), (7, 3), (3, 5)])
    profile = girth_profile(g)
    expected = [tuple(sorted(profile.per_edge[min(v, w), max(v, w)]
                             for w in bit_list(g.rows[v])))
                for v in range(g.n)]
    assert signatures(g, profile) == expected and len(set(expected)) == 4
    # a count of 7 at vertex 3 of Petersen, whose edges there sum to 12
    p = petersen_graph()
    prof = girth_profile(p)
    forged = GirthProfile(5, 12, prof.per_vertex[:3] + (7,) + prof.per_vertex[4:],
                          dict(prof.per_edge))
    with pytest.raises(InternalInconsistency, match="signature of 3 sums to 12, expected 14"):
        classify(p, profile=forged)


def test_known_nonexistence_examples():
    v = known_nonexistence(3, 5, 5)
    assert v.status is Status.EXCLUDED and v.rule is Rule.GIRTH5
    v = known_nonexistence(3, 5, 6)
    assert v.status is Status.EXISTS
    v = known_nonexistence(3, 5, 3)
    assert v.status is Status.UNKNOWN
    v = known_nonexistence(4, 7, 53)
    assert v.status is Status.EXCLUDED and v.rule is Rule.ODD_GIRTH_GE7
    v = known_nonexistence(7, 5, 126)
    assert v.status is Status.EXISTS
    v = known_nonexistence(4, 9, 161)
    assert v.status is Status.EXCLUDED and v.rule is Rule.ODD_GIRTH_GE7
    v = known_nonexistence(5, 3, 9)
    assert v.status is Status.EXCLUDED and v.rule is Rule.GIRTH3
    v = known_nonexistence(57, 5, vertex_cycle_bound(57, 5))
    assert v.status is Status.UNKNOWN  # the famous open case
    v = known_nonexistence(4, 4, vertex_cycle_bound(4, 4))
    assert v.status is Status.EXISTS  # complete bipartite
    v = known_nonexistence(4, 5, vertex_cycle_bound(4, 5))
    assert v.status is Status.EXCLUDED and v.rule is Rule.MOORE_CASE


def test_known_nonexistence_domain_errors():
    with pytest.raises(ValueError):
        known_nonexistence(2, 5, 1)
    with pytest.raises(ValueError):
        known_nonexistence(3, 2, 1)
    with pytest.raises(ValueError):
        known_nonexistence(3, 5, 7)  # above the bound


def test_known_nonexistence_monotone_in_theorem_range():
    for k in (3, 4, 5, 6):
        for g in (3, 5, 7, 9):
            bound = vertex_cycle_bound(k, g)
            for eps in range(1, (k - 1) // 2 + 1):
                v = known_nonexistence(k, g, bound - eps)
                assert v.status is Status.EXCLUDED, (k, g, eps)
            just_outside = bound - ((k - 1) // 2 + 1)
            if just_outside >= 0:
                v = known_nonexistence(k, g, just_outside)
                assert v.status is Status.UNKNOWN, (k, g)


def test_two_epsilon_and_its_excluded_range():
    # 2e = k(k-1)^floor(g/2) - 2*lambda, which classify, the oracle, the
    # audit and the search's nonexistence target (its inverse at girth 5)
    # all read from one definition
    assert two_epsilon(3, 5, 6) == 0 and two_epsilon(3, 5, 3) == 6
    assert two_epsilon(3, 6, 12) == 0 and two_epsilon(4, 7, 53) == 2
    assert classify(dodecahedron_graph()).two_epsilon == two_epsilon(3, 5, 3)
    for k in range(3, 8):
        excluded = [e for e in range(-2, k + 2) if in_excluded_range(k, e)]
        assert excluded == list(range(1, k))
        for two_eps in excluded[1::2]:
            assert two_epsilon(k, 5, nonexistence_lambda(k, two_eps)) == two_eps


def test_refute_signature_even_girth_gap():
    v = refute_signature(3, 6, (2, 3, 7))
    assert v.status is Status.EXCLUDED and v.rule is Rule.EVEN_GIRTH_SIGNATURE
    v = refute_signature(3, 6, (8, 8, 8))  # at the bound: not refuted
    assert v.status is Status.UNKNOWN
    v = refute_signature(3, 6, (2, 2, 6))  # top entry below the gap
    assert v.status is Status.UNKNOWN
    v = refute_signature(3, 5, (4, 4, 4))  # odd girth: rule not applicable
    assert v.status is Status.UNKNOWN
    with pytest.raises(ValueError):
        refute_signature(3, 6, (3, 2, 1))


def test_hierarchy_on_heawood():
    rep = classify(heawood_graph())
    assert rep.is_egr and rep.is_gr and rep.is_vgr
    assert rep.girth == 6
    assert rep.lambda_edge == 8 and rep.lambda_vertex == 12
    assert rep.edge_bound == 8 and rep.vertex_bound == 12 and rep.epsilon == 0
