import hashlib
import random
from itertools import permutations

import networkx as nx
import pytest

from girthlab import (
    GraphBuilder,
    are_isomorphic,
    canonical_graph6,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    dodecahedron_graph,
    graph_from_edges,
    heawood_graph,
    petersen_graph,
    relabel,
    write_graph6,
)
from girthlab.canon import _refine, canonize

from naive_oracles import naive_refine, to_adj


def _random_graph(rng, n, p):
    b = GraphBuilder(n)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                b.add_edge(i, j)
    return b.freeze()


def _permuted(g, perm):
    b = GraphBuilder(g.n)
    for i, j in g.edges():
        b.add_edge(perm[i], perm[j])
    return b.freeze()


def test_relabel_invariance():
    rng = random.Random(2024)
    for _ in range(300):
        n = rng.randrange(0, 13)
        g = _random_graph(rng, n, rng.random())
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_graph6(g) == canonical_graph6(_permuted(g, perm))


def test_canonical_form_is_a_relabelling():
    rng = random.Random(9)
    from girthlab import parse_graph6

    for _ in range(100):
        g = _random_graph(rng, rng.randrange(1, 10), rng.random())
        order, _ = canonize(g.rows)
        assert sorted(order) == list(range(g.n))
        h = relabel(g, order)
        assert h.n == g.n and h.m == g.m
        assert canonical_graph6(g) == write_graph6(h)
        assert parse_graph6(canonical_graph6(g)).m == g.m


def test_agreement_with_vf2():
    rng = random.Random(77)
    for _ in range(250):
        n = rng.randrange(1, 9)
        g1 = _random_graph(rng, n, rng.random())
        g2 = _random_graph(rng, n, rng.random())
        h1 = nx.Graph(list(g1.edges()))
        h1.add_nodes_from(range(n))
        h2 = nx.Graph(list(g2.edges()))
        h2.add_nodes_from(range(n))
        assert are_isomorphic(g1, g2) == nx.is_isomorphic(h1, h2)


def test_partition_agrees_with_global_minimum_certificate():
    # second, independent canonical-form routine: global minimum adjacency
    # string over every vertex order; the induced equivalence must agree
    rng = random.Random(3)

    def brute_min(g):
        best = None
        for perm in permutations(range(g.n)):
            h = _permuted(g, list(perm))
            s = write_graph6(h)
            if best is None or s < best:
                best = s
        return best

    graphs = [_random_graph(rng, rng.randrange(1, 7), rng.random()) for _ in range(120)]
    for a in graphs[:40]:
        for b in graphs[:40]:
            if a.n == b.n:
                assert (canonical_graph6(a) == canonical_graph6(b)) == (
                    brute_min(a) == brute_min(b))


def test_symmetric_graphs_terminate_quickly():
    for g in (complete_graph(12), complete_bipartite_graph(6, 6), cycle_graph(24),
              petersen_graph(), dodecahedron_graph(), heawood_graph(),
              GraphBuilder(40).freeze()):  # all twins: one branch per level
        s = canonical_graph6(g)
        assert len(s) >= 1


def test_isomorphic_named_constructions():
    # dodecahedron built two ways: standard labelling vs a rotated one
    g = dodecahedron_graph()
    rot = _permuted(g, [(i + 7) % 20 for i in range(20)])
    assert are_isomorphic(g, rot)
    assert not are_isomorphic(g, petersen_graph())


def test_refine_matches_full_recount():
    # the splitter refinement gives the all-cells partition, cell order
    # included, from the root and after every individualisation below it
    rng = random.Random(41)
    for trial in range(1000):
        n = rng.randrange(1, 17)
        g = _random_graph(rng, n, rng.random())
        adj = to_adj(g)
        nbrs = [sorted(adj[v]) for v in range(n)]
        if trial % 2:
            colors = [rng.randrange(3) for _ in range(n)]
        else:
            colors = [len(adj[v]) for v in range(n)]
        start = [[v for v in range(n) if colors[v] == c] for c in sorted(set(colors))]
        cells = _refine(nbrs, start, list(range(len(start))))
        assert cells == naive_refine(adj, start)
        while len(cells) < n:
            target = rng.choice([i for i, cell in enumerate(cells) if len(cell) > 1])
            v = rng.choice(cells[target])
            child = (cells[:target] + [[v], [w for w in cells[target] if w != v]]
                     + cells[target + 1:])
            cells = _refine(nbrs, child, [target])
            assert cells == naive_refine(adj, child)


def test_graph6_is_read_off_the_certificate():
    rng = random.Random(5)
    for _ in range(400):
        n = rng.randrange(0, 17)
        g = _random_graph(rng, n, rng.random())
        order, _ = canonize(g.rows)
        assert canonical_graph6(g) == write_graph6(relabel(g, order))


def test_canonising_emitted_classes_visits_pinned_leaf_count(monkeypatch):
    # search emits canonically labelled strings; canonize records an
    # automorphism from every pair of leaves with equal certificates, and
    # recording one only when a leaf repeats the current best certificate
    # visits 119 leaves here instead of 103
    from girthlab import SearchConfig, canon, generate, parse_graph6

    out = generate(SearchConfig(k=3, g=5, n_max=14))
    certificate = canon.pack_payload
    calls = []

    def counting(nbrs, order):
        calls.append(order)
        return certificate(nbrs, order)

    monkeypatch.setattr(canon, "pack_payload", counting)
    for certs in out.classes_graph6.values():
        for s in certs:
            assert canonical_graph6(parse_graph6(s)) == s
    assert len(calls) == 103


def _random_cubic(rng, n):
    # pairing model, rejecting loops and parallel edges
    while True:
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        pairs = list(zip(stubs[::2], stubs[1::2]))
        if all(a != b for a, b in pairs) and len({frozenset(p) for p in pairs}) == len(pairs):
            return graph_from_edges(n, pairs)


def test_canonical_form_is_pinned():
    # digest of the uncoloured canonical forms as first pinned: a change of
    # the canonical form changes search output and checkpoint bytes, so it
    # must be deliberate
    rng = random.Random(2014)
    graphs = [petersen_graph(), dodecahedron_graph(), heawood_graph(), complete_graph(6),
              complete_bipartite_graph(3, 4), cycle_graph(9)]
    graphs += [_random_cubic(rng, rng.randrange(4, 25, 2)) for _ in range(40)]
    lines = "\n".join(canonical_graph6(g) for g in graphs)
    assert hashlib.sha256(lines.encode()).hexdigest()[:16] == "78c45e49c21443fd"


def _twin_rich_graphs(rng):
    # complete bipartite graphs, the quartic girth-4 classes, and random
    # graphs with planted twins: groups of leaves on one vertex, and copies
    # of a vertex's neighbourhood
    from girthlab import SearchConfig, generate, parse_graph6

    graphs = [complete_bipartite_graph(a, b) for a in range(1, 6) for b in range(a, 7)]
    out = generate(SearchConfig(k=4, g=4, n_max=12))
    graphs += [parse_graph6(s) for n in sorted(out.classes_graph6)
               for s in out.classes_graph6[n]]
    for _ in range(60):
        n = rng.randrange(3, 11)
        edges = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4}
        for _ in range(rng.randrange(1, 4)):
            anchor = rng.randrange(n)
            for _ in range(rng.randrange(2, 4)):
                edges.add((anchor, n))
                n += 1
        for _ in range(rng.randrange(0, 3)):
            v = rng.randrange(n)
            edges |= {(w, n) for w in range(n) if (min(v, w), max(v, w)) in edges}
            n += 1
        graphs.append(graph_from_edges(n, sorted(edges)))
    return graphs


def test_canonical_form_of_twin_rich_graphs_is_pinned():
    # digest of the sorted forms, the same as the canonize from before it
    # skipped twin branches gives: twins are swapped by an automorphism, so
    # skipping them keeps every form.  Sorted, because the quartic inputs
    # come from search output, whose order follows its class strings
    lines = sorted(canonical_graph6(g) for g in _twin_rich_graphs(random.Random(2099)))
    assert len(lines) == 97
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16] == "683b6fbc1615cc3d"
