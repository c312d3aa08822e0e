import random
from itertools import islice

import networkx as nx
import pytest

from girthlab import (
    GraphBuilder,
    InternalInconsistency,
    SearchConfig,
    bit_list,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    dodecahedron_graph,
    generate,
    girth,
    girth_profile,
    graph_from_edges,
    heawood_graph,
    is_connected,
    parse_graph6,
    path_graph,
    petersen_graph,
    shell_decompose,
    signature,
)
from girthlab.core import bfs_layers, edge_pairs, layer_edge_counts
from girthlab.girth import GirthProfile

from naive_oracles import naive_girth, naive_profile, to_adj


def _random_graph(rng, n, p):
    b = GraphBuilder(n)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                b.add_edge(i, j)
    return b.freeze()


def _sparse_graph(rng, n):
    # a random forest in which one vertex in ten starts a new tree, plus up
    # to two chords: long shortest cycles, forests and several components
    b = GraphBuilder(n)
    for v in range(1, n):
        if rng.random() < 0.9:
            b.add_edge(v, rng.randrange(v))
    for _ in range(rng.randrange(3) if n > 1 else 0):
        b.add_edge(*rng.sample(range(n), 2))
    return b.freeze()


def _nx_regular(rng, k, n):
    h = nx.random_regular_graph(k, n, seed=rng.randrange(10 ** 9))
    return graph_from_edges(n, h.edges())


def test_girth_named_graphs():
    assert girth(complete_graph(4)) == 3
    assert girth(cycle_graph(5)) == 5
    assert girth(petersen_graph()) == 5
    assert girth(dodecahedron_graph()) == 5
    assert girth(heawood_graph()) == 6
    assert girth(complete_bipartite_graph(3, 3)) == 4
    assert girth(path_graph(6)) is None


def test_girth_matches_edge_removal_oracle():
    rng = random.Random(31337)
    for _ in range(300):
        g = _random_graph(rng, rng.randrange(1, 14), rng.random())
        assert girth(g) == naive_girth(to_adj(g))
    # sparse graphs up to n = 30 reach the deeper layer tests
    seen = set()
    for _ in range(600):
        g = _sparse_graph(rng, rng.randrange(1, 31))
        gr = girth(g)
        assert gr == naive_girth(to_adj(g))
        seen.add(gr)
        if gr is not None and not is_connected(g):
            seen.add("disconnected with a cycle")
    assert {6, 7, 8, 9, None, "disconnected with a cycle"} <= seen


def test_layer_edges_count_odd_girth_cycles():
    # at girth 2d + 1 the ball of radius d around v is a tree, so each edge
    # inside L_d(v) closes one girth cycle through v, and each girth cycle
    # through v has its edge opposite v there
    outcome = generate(SearchConfig(k=3, g=7, n_max=24, cap=24))
    mcgee = [parse_graph6(line) for line in outcome.classes_graph6[24]]
    cases = [(complete_graph(4), 1), (petersen_graph(), 2),
             (dodecahedron_graph(), 2)] + [(g, 3) for g in mcgee]
    for g, d in cases:
        assert girth(g) == 2 * d + 1
        nbrs = [bit_list(r) for r in g.rows]
        layer = next(islice(bfs_layers(nbrs), d, None))
        counts = layer_edge_counts(edge_pairs(nbrs), layer)
        assert tuple(counts) == girth_profile(g, engine="paths").per_vertex
    assert len(mcgee) == 1 and set(counts) == {9, 10}


def test_shell_sizes():
    assert shell_decompose(petersen_graph(), 0).sizes() == (3, 6, 0)
    assert shell_decompose(dodecahedron_graph(), 7).sizes() == (3, 6, 10)
    assert shell_decompose(cycle_graph(5), 2).sizes() == (2, 2, 0)


def test_second_shell_size_is_asserted_on_every_call():
    from girthlab.girth import second_shell_size

    assert second_shell_size(petersen_graph()) == 6
    assert second_shell_size(heawood_graph()) == 6
    assert second_shell_size(complete_graph(4)) is None  # girth 3
    assert second_shell_size(path_graph(5)) is None  # not regular
    # a size the caller worked out is still checked against the shell
    assert shell_decompose(petersen_graph(), 0, 6).sizes() == (3, 6, 0)
    with pytest.raises(InternalInconsistency):
        shell_decompose(petersen_graph(), 0, 5)


def test_shells_partition_and_match_bfs_oracle():
    rng = random.Random(4)
    from naive_oracles import exterior, shell

    for _ in range(60):
        g = _random_graph(rng, rng.randrange(1, 12), rng.random())
        adj = to_adj(g)
        for u in range(g.n):
            sh = shell_decompose(g, u)
            assert sh.n1 & sh.n2 == 0 and (sh.n1 | sh.n2) & sh.n3plus == 0
            assert sh.n1 | sh.n2 | sh.n3plus | (1 << u) == g.vertex_mask()
            assert sh.n1 == sum(1 << v for v in shell(adj, u, 1))
            assert sh.n2 == sum(1 << v for v in shell(adj, u, 2))
            assert sh.n3plus == sum(1 << v for v in exterior(adj, u))


def test_profile_against_subset_oracle():
    for g in (complete_graph(4), petersen_graph(), dodecahedron_graph(),
              heawood_graph(), complete_bipartite_graph(3, 3), cycle_graph(7)):
        profile = girth_profile(g)
        total, per_vertex, per_edge = naive_profile(to_adj(g), profile.girth)
        assert profile.total_girth_cycles == total
        assert list(profile.per_vertex) == [per_vertex[v] for v in range(g.n)]
        assert profile.per_edge == per_edge


def test_path_enumerator_matches_subset_oracle_girths_3_to_9():
    # cycles and the smallest regular graphs of girths 3 to 6, each cycle
    # with a pendant vertex, theta graphs, and small random graphs
    from girthlab.girth import _profile_by_paths

    graphs = [cycle_graph(n) for n in range(3, 10)]
    graphs += [graph_from_edges(n + 1, list(cycle_graph(n).edges()) + [(0, n)])
               for n in range(3, 10)]
    graphs += [complete_graph(4), complete_bipartite_graph(3, 3), petersen_graph(),
               heawood_graph(), complete_graph(5),
               graph_from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)])]
    for paths in ((1, 2, 2), (2, 2, 3), (3, 3, 3), (3, 3, 4)):
        # two poles 0 and 1 joined by internally disjoint paths of these
        # lengths: girth the sum of the two shortest, not regular
        edges, n = [], 2
        for length in paths:
            inner = list(range(n, n + length - 1))
            n += length - 1
            walk = [0] + inner + [1]
            edges += zip(walk, walk[1:])
        graphs.append(graph_from_edges(n, edges))
    rng = random.Random(909)
    graphs += [_random_graph(rng, rng.randrange(4, 9), rng.uniform(0.2, 0.6))
               for _ in range(40)]
    regular = set()
    for g in graphs:
        gr = girth(g)
        if gr is None:
            continue
        profile = _profile_by_paths(g, gr)
        total, per_vertex, per_edge = naive_profile(to_adj(g), gr)
        assert profile.total_girth_cycles == total
        assert list(profile.per_vertex) == [per_vertex[v] for v in range(g.n)]
        assert profile.per_edge == per_edge
        regular.add((gr, len({r.bit_count() for r in g.rows}) == 1))
    assert {(gr, reg) for gr in range(3, 10) for reg in (True, False)} <= regular


def test_known_profiles():
    p = girth_profile(petersen_graph())
    assert (p.girth, p.total_girth_cycles) == (5, 12)
    assert set(p.per_vertex) == {6} and set(p.per_edge.values()) == {4}

    d = girth_profile(dodecahedron_graph())
    assert (d.girth, d.total_girth_cycles) == (5, 12)
    assert set(d.per_vertex) == {3} and set(d.per_edge.values()) == {2}

    k4 = girth_profile(complete_graph(4))
    assert (k4.girth, k4.total_girth_cycles) == (3, 4)
    assert set(k4.per_vertex) == {3} and set(k4.per_edge.values()) == {2}


def test_engine_equivalence_on_girth5_regular():
    outcome = generate(SearchConfig(k=3, g=5, n_max=14))
    cubic = [g for g in map(parse_graph6, outcome.classes_graph6[14]) if girth(g) == 5]
    assert len(cubic) == 8
    for g in [petersen_graph(), dodecahedron_graph(), cycle_graph(5)] + cubic:
        fast = girth_profile(g, engine="girth5")
        slow = girth_profile(g, engine="paths")
        assert fast.per_vertex == slow.per_vertex
        assert fast.per_edge == slow.per_edge
        assert fast.total_girth_cycles == slow.total_girth_cycles


def test_girth5_engine_checks_every_second_layer():
    g = dodecahedron_graph()
    assert girth(g) == 5
    # vertex 7 loses one vertex of the second layer that girth grew
    second = g.layers.layer(2)
    second[7] &= second[7] - 1
    with pytest.raises(InternalInconsistency, match="second shell of 7"):
        girth_profile(g, engine="girth5")


def test_engine_preconditions():
    with pytest.raises(ValueError):
        girth_profile(complete_graph(4), engine="girth5")  # girth 3
    with pytest.raises(ValueError):
        girth_profile(path_graph(5))  # acyclic
    with pytest.raises(ValueError):
        girth_profile(petersen_graph(), engine="warp")


def test_signatures():
    p = petersen_graph()
    prof = girth_profile(p)
    assert all(signature(p, v, prof) == (4, 4, 4) for v in range(10))
    c = cycle_graph(5)
    prof = girth_profile(c)
    assert all(signature(c, v, prof) == (1, 1) for v in range(5))
    d = dodecahedron_graph()
    prof = girth_profile(d)
    assert all(signature(d, v, prof) == (2, 2, 2) for v in range(20))


def test_handshake_identities_random_regular_corpus():
    rng = random.Random(271828)
    checked = 0
    while checked < 120:
        k = rng.choice([2, 3, 3, 4, 5])
        n = rng.randrange(max(k + 1, 5), 17)
        if (n * k) % 2:
            continue
        g = _nx_regular(rng, k, n)
        if girth(g) is None:
            continue
        profile = girth_profile(g)  # validate() runs inside
        assert sum(profile.per_vertex) == profile.girth * profile.total_girth_cycles
        checked += 1


def test_profile_validation_catches_forgery():
    g = petersen_graph()
    prof = girth_profile(g)
    bad = GirthProfile(prof.girth, prof.total_girth_cycles,
                       tuple([7] + list(prof.per_vertex[1:])), dict(prof.per_edge))
    with pytest.raises(InternalInconsistency):
        bad.validate()


def test_cycle_count_bounds_on_regular_corpus():
    rng = random.Random(55)
    from girthlab import edge_cycle_bound, vertex_cycle_bound

    checked = 0
    while checked < 60:
        k = rng.choice([3, 4, 5])
        n = rng.randrange(k + 1, 15)
        if (n * k) % 2:
            continue
        g = _nx_regular(rng, k, n)
        gr = girth(g)
        if gr is None:
            continue
        profile = girth_profile(g)
        assert max(profile.per_vertex) <= vertex_cycle_bound(k, gr)
        assert max(profile.per_edge.values()) <= edge_cycle_bound(k, gr)
        checked += 1
