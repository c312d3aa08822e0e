import random

import pytest

from girthlab import (
    GraphBuilder,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    degree_sequence,
    dodecahedron_graph,
    graph_from_rows,
    heawood_graph,
    is_connected,
    named_graph,
    path_graph,
    petersen_graph,
    regularity,
)
from girthlab.core import (HARD_MAX_VERTICES, Graph, ball, bfs_layers, bit_list,
                           edges_between, max_vertices)
from girthlab.formats import parse_graph6

from naive_oracles import naive_dist, naive_shells, to_adj


def test_builder_rejects_loops_and_bad_vertices():
    b = GraphBuilder(4)
    with pytest.raises(ValueError):
        b.add_edge(1, 1)
    with pytest.raises(ValueError):
        b.add_edge(0, 4)
    with pytest.raises(ValueError):
        GraphBuilder(1000)


def test_graph_invariants():
    g = complete_graph(5)
    assert g.m == 10
    assert sum(g.degree(v) for v in range(g.n)) == 2 * g.m
    for i, j in g.edges():
        assert g.has_edge(i, j) and g.has_edge(j, i)
    with pytest.raises(ValueError):
        graph_from_rows([0b010, 0b100, 0b000])  # asymmetric


def test_named_graph_orders_and_degrees():
    cases = [
        (petersen_graph(), 10, 15, 3),
        (dodecahedron_graph(), 20, 30, 3),
        (heawood_graph(), 14, 21, 3),
        (complete_graph(4), 4, 6, 3),
        (complete_bipartite_graph(3, 3), 6, 9, 3),
        (cycle_graph(5), 5, 5, 2),
    ]
    for g, n, m, k in cases:
        assert (g.n, g.m) == (n, m)
        is_reg, deg = regularity(g)
        assert is_reg and deg == k
        assert is_connected(g)


def test_path_degrees_not_regular():
    g = path_graph(4)
    assert degree_sequence(g) == (1, 1, 2, 2)
    assert regularity(g) == (False, None)


def test_named_graph_parser():
    assert named_graph("petersen") == petersen_graph()
    assert named_graph("cycle(5)") == cycle_graph(5)
    assert named_graph("complete_bipartite(3,3)") == complete_bipartite_graph(3, 3)
    with pytest.raises(ValueError):
        named_graph("cycle(2)")
    with pytest.raises(ValueError):
        named_graph("mystery")


def test_empty_graph_is_connected():
    assert is_connected(Graph(0, ()))
    assert regularity(Graph(0, ())) == (True, None)


def test_disconnected_graphs_are_not_connected():
    # the ball around vertex 0 misses a vertex, wherever the other part lies
    two_cycles = GraphBuilder(10).add_edges(
        [(i, (i + 1) % 5) for i in range(5)] + [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
    ).freeze()
    assert not is_connected(two_cycles)
    assert not is_connected(Graph(2, (0, 0)))
    assert not is_connected(Graph(3, (0, 0b100, 0b010)))
    assert not is_connected(Graph(3, (0b010, 0b001, 0)))
    assert is_connected(Graph(1, (0,)))
    # a long path needs every layer up to radius n - 1
    assert is_connected(path_graph(40))
    rng = random.Random(47)
    for _ in range(200):
        n = rng.randrange(1, 16)
        b = GraphBuilder(n)
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 1.5 / n:
                    b.add_edge(i, j)
        g = b.freeze()
        adj = to_adj(g)
        assert is_connected(g) == all(naive_dist(adj, 0, w) is not None for w in range(n))


def test_ball_matches_bfs_distances():
    # partial search states as well as complete graphs: unreachable
    # vertices stay out, and a radius past the eccentricity adds nothing
    graphs = [petersen_graph(), heawood_graph(), dodecahedron_graph(),
              parse_graph6("OsP@@?WD?Q?o?_?X?A??O"), Graph(5, (0b0010, 0b0101, 0b0010, 0, 0))]
    for g in graphs:
        adj = to_adj(g)
        for src in range(g.n):
            dist = [naive_dist(adj, src, w) for w in range(g.n)]
            for radius in range(7):
                near = sum(1 << w for w, d in enumerate(dist) if d is not None and d <= radius)
                assert ball(g.rows, src, radius) == near


def _distance_profile(g, v):
    from girthlab import bits

    dist = {v: 0}
    frontier = [v]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for x in frontier:
            for y in bits(g.rows[x]):
                if y not in dist:
                    dist[y] = d
                    nxt.append(y)
        frontier = nxt
    return tuple(sorted(dist.values()))


def test_petersen_weak_vertex_transitivity():
    g = petersen_graph()
    profiles = {_distance_profile(g, v) for v in range(g.n)}
    assert len(profiles) == 1


def test_dodecahedron_distance_profile():
    g = dodecahedron_graph()
    profiles = {_distance_profile(g, v) for v in range(g.n)}
    assert len(profiles) == 1
    counts = [0] * 6
    for d in profiles.pop():
        counts[d] += 1
    assert counts == [1, 3, 6, 6, 3, 1]


def test_max_vertices_env_override(monkeypatch):
    monkeypatch.setenv("GIRTHLAB_MAX_N", "128")
    assert max_vertices() == 128
    monkeypatch.setenv("GIRTHLAB_MAX_N", "0")
    with pytest.raises(ValueError):
        max_vertices()
    monkeypatch.setenv("GIRTHLAB_MAX_N", "zap")
    with pytest.raises(ValueError):
        max_vertices()
    monkeypatch.delenv("GIRTHLAB_MAX_N")
    assert max_vertices() == 64


def test_bit_kernels_match_set_versions():
    # bit_list and edges_between against plain sets, with disjoint masks,
    # equal ones and ones that overlap without being equal: an edge with
    # both ends in a & b is counted once from each end
    rng = random.Random(41)
    for n in (1, 2, 63, 64, 65, 130, HARD_MAX_VERTICES):
        rows = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 4 / n:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
        masks = [0, 1 << (n - 1), (1 << n) - 1, 1 << rng.randrange(n)]
        if n > 63:
            masks.append(1 << 63)
        masks += [rng.getrandbits(n) for _ in range(4)]
        for a in masks:
            members = {i for i in range(n) if a >> i & 1}
            assert bit_list(a) == sorted(members)
            inside = sum(1 for i in members for j in members if i < j and rows[i] >> j & 1)
            assert edges_between(rows, a, a) == 2 * inside
            overlap = rng.getrandbits(n)
            for b in (rng.getrandbits(n) & ~a, overlap, a | overlap, a & overlap):
                assert edges_between(rows, a, b) == sum(
                    1 for i in members for j in range(n) if b >> j & 1 and rows[i] >> j & 1)
    # a triangle: each edge counted once between disjoint sets, twice inside
    tri = [0b110, 0b101, 0b011]
    assert edges_between(tri, 0b001, 0b110) == 2
    assert edges_between(tri, 0b011, 0b011) == 2
    assert edges_between(tri, 0b011, 0b110) == 3
    assert edges_between(tri, 0b111, 0b111) == 6


def test_bfs_layers_match_per_vertex_search():
    # every vertex's layers, from one all-sources pass, against a search
    # from that vertex; the pass ends at the largest eccentricity
    rng = random.Random(43)
    for _ in range(80):
        n = rng.randrange(0, 25)
        b = GraphBuilder(n)
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 3 / n:
                    b.add_edge(i, j)
        g = b.freeze()
        adj = to_adj(g)
        layers = list(bfs_layers([bit_list(r) for r in g.rows]))
        depth = 1
        for v in range(n):
            expected = [{v}] + naive_shells(adj, v)
            depth = max(depth, len(expected))
            assert [set(bit_list(layer[v])) for layer in layers] == (
                expected + [set()] * (len(layers) - len(expected)))
        assert len(layers) == depth
