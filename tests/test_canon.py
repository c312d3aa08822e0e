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
    girth,
    graph_from_edges,
    heawood_graph,
    petersen_graph,
    regularity,
    relabel,
    write_graph6,
)
from girthlab.canon import _distance_profiles, _refine, _walk, canonize
from girthlab.core import Graph, bits, is_connected

from naive_oracles import (naive_distance_profile, naive_refine, naive_walk_leaves,
                           naive_walk_orders, to_adj)


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
        order, _ = canonize(g)
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
        order, _ = canonize(g)
        assert canonical_graph6(g) == write_graph6(relabel(g, order))


def test_canonising_emitted_classes_visits_pinned_leaf_count(monkeypatch):
    # search emits canonically labelled strings; canonize records an
    # automorphism from every pair of leaves with equal certificates, and
    # recording one only when a leaf repeats the current best certificate
    # visits 119 leaves here instead of 103.  Starting regular graphs from
    # their distance-profile cells took 103 to 73, and backjumping to the
    # divergence depth on a repeated certificate 73 to 46
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
    assert len(calls) == 46


def _random_regular(rng, n, k):
    # pairing model, rejecting loops and parallel edges
    while True:
        stubs = [v for v in range(n) for _ in range(k)]
        rng.shuffle(stubs)
        pairs = list(zip(stubs[::2], stubs[1::2]))
        if all(a != b for a, b in pairs) and len({frozenset(p) for p in pairs}) == len(pairs):
            return graph_from_edges(n, pairs)


def _random_cubic(rng, n):
    return _random_regular(rng, n, 3)


def test_agreement_with_vf2_on_regular_graphs():
    # refinement cannot split a regular graph's degree cell, so these start
    # from distance-profile cells: random same-order pairs and seeded
    # relabellings, named vertex-transitive graphs included
    rng = random.Random(1401)
    graphs = [_random_regular(rng, n, 3) for n in range(4, 17, 2) for _ in range(6)]
    graphs += [_random_regular(rng, n, 4) for n in range(5, 17) for _ in range(4)]
    pairs = [(g, h) for g in graphs for h in graphs if g is not h and g.n == h.n]
    pairs = rng.sample(pairs, 300)
    for g in graphs + [petersen_graph(), dodecahedron_graph(), heawood_graph()] * 4:
        pairs.append((g, _permuted(g, rng.sample(range(g.n), g.n))))

    def nx_graph(g):
        h = nx.Graph(list(g.edges()))
        h.add_nodes_from(range(g.n))
        return h

    isomorphic = 0
    for g, h in pairs:
        same = nx.is_isomorphic(nx_graph(g), nx_graph(h))
        assert are_isomorphic(g, h) == same
        isomorphic += same
    assert 0 < isomorphic < len(pairs)


def test_canonical_form_is_pinned():
    # digest of the uncoloured canonical forms as first pinned: a change of
    # the canonical form changes search output and checkpoint bytes, so it
    # must be deliberate.  Re-pinned once, when regular graphs began to
    # start from their distance-profile cells
    rng = random.Random(2014)
    graphs = [petersen_graph(), dodecahedron_graph(), heawood_graph(), complete_graph(6),
              complete_bipartite_graph(3, 4), cycle_graph(9)]
    graphs += [_random_cubic(rng, rng.randrange(4, 25, 2)) for _ in range(40)]
    lines = "\n".join(canonical_graph6(g) for g in graphs)
    assert hashlib.sha256(lines.encode()).hexdigest()[:16] == "913a0b03e446661e"


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
    # come from search output, whose order follows its class strings.
    # Re-pinned when regular graphs began to split by distance profile
    lines = sorted(canonical_graph6(g) for g in _twin_rich_graphs(random.Random(2099)))
    assert len(lines) == 97
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16] == "5a509000c10c61bc"


def _count_leaves(monkeypatch):
    from girthlab import canon

    certificate = canon.pack_payload
    calls = []

    def counting(nbrs, order):
        calls.append(order)
        return certificate(nbrs, order)

    monkeypatch.setattr(canon, "pack_payload", counting)
    return calls


def _dense_graph(rng, n, missing):
    # K_n without `missing` random edges: most vertices stay universal, and
    # universal vertices are pairwise closed twins
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    gone = set(rng.sample(edges, missing))
    return graph_from_edges(n, [e for e in edges if e not in gone])


def test_closed_twins_cost_one_branch(monkeypatch):
    # adjacent vertices with equal closed neighbourhoods are swapped by an
    # automorphism; without the closed-row check K_20 labels thousands of
    # leaves and this K_39 minus 7 edges did not finish within a minute.
    # Backjumping on a repeated certificate took the latter from 8 to 5
    calls = _count_leaves(monkeypatch)
    assert canonical_graph6(complete_graph(20)) == write_graph6(complete_graph(20))
    assert len(calls) == 1
    calls.clear()
    canonical_graph6(_dense_graph(random.Random(2), 39, 7))
    assert len(calls) == 5


def test_closed_twin_rule_keeps_certificates(monkeypatch):
    # pruning closed twins only skips leaves whose certificate a kept leaf
    # repeats: the certificates equal those of the open-twin check alone
    from girthlab import canon

    rng = random.Random(600)
    graphs = [_random_graph(rng, rng.randrange(2, 11), rng.uniform(0.6, 0.95))
              for _ in range(150)]
    graphs += [_dense_graph(rng, n, rng.randrange(1, n)) for n in range(4, 10)
               for _ in range(5)]
    both = [canonize(g)[1] for g in graphs]
    monkeypatch.setattr(canon, "_twin_keys", lambda rows: rows)
    assert [canonize(g)[1] for g in graphs] == both


def _first_leaf_hit(g, h):
    # whether h's walk stops at its first leaf against g's leaf certificates
    known = set(_walk(g)[0])
    leaves, visited, _ = _walk(h, known)
    if leaves is None:
        assert visited == 1
        return True
    # a walk that is not stopped meets no certificate of g at all
    assert known.isdisjoint(leaves)
    return False


def test_first_leaf_lookup_is_an_isomorphism_test():
    rng = random.Random(1998)
    pairs = []
    for _ in range(150):
        n = rng.randrange(1, 9)
        pairs.append((_random_graph(rng, n, rng.random()), _random_graph(rng, n, rng.random())))
    for _ in range(80):
        g = _random_graph(rng, rng.randrange(1, 14), rng.random())
        perm = list(range(g.n))
        rng.shuffle(perm)
        pairs.append((g, _permuted(g, perm)))
    twin_rich = _twin_rich_graphs(rng)
    for g in twin_rich:
        perm = list(range(g.n))
        rng.shuffle(perm)
        pairs.append((g, _permuted(g, perm)))
        pairs += [(g, h) for h in rng.sample(twin_rich, 3) if h.n == g.n]
    cubic = [_random_cubic(rng, rng.randrange(4, 13, 2)) for _ in range(60)]
    pairs += [(g, h) for g in cubic for h in cubic if g.n == h.n]
    pairs += [(dodecahedron_graph(), _permuted(dodecahedron_graph(), rng.sample(range(20), 20))),
              (complete_bipartite_graph(4, 4), _random_cubic(rng, 8))]
    isomorphic = 0
    for g, h in pairs:
        hit = _first_leaf_hit(g, h)
        assert hit == are_isomorphic(g, h)
        isomorphic += hit
    assert 0 < isomorphic < len(pairs)


def test_leaf_certificate_set_is_invariant():
    # the walk meets the same certificates in every labelling, pruned leaves
    # included, which is why one shared certificate decides isomorphism
    rng = random.Random(14)
    graphs = [petersen_graph(), heawood_graph(), complete_bipartite_graph(3, 5)]
    graphs += [_random_graph(rng, rng.randrange(1, 12), rng.random()) for _ in range(100)]
    for g in graphs:
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert set(_walk(g)[0]) == set(_walk(_permuted(g, perm))[0])


def _cube_graph():
    # Q_3: vertices 0..7, adjacent when they differ in one bit
    return graph_from_edges(8, [(v, v ^ b) for v in range(8) for b in (1, 2, 4) if v < v ^ b])


def _small_twin_rich_graphs(rng):
    # graphs on at most 9 vertices whose unpruned trees stay small enough to
    # walk in full: complete bipartite graphs, and random graphs with
    # planted leaves on one vertex and a copy of a vertex's neighbourhood
    graphs = [complete_bipartite_graph(a, b) for a in range(1, 4) for b in range(a, 7 - a)]
    for _ in range(30):
        n = rng.randrange(3, 6)
        edges = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5}
        anchor = rng.randrange(n)
        for _ in range(rng.randrange(2, 4)):
            edges.add((anchor, n))
            n += 1
        v = rng.randrange(n)
        edges |= {(w, n) for w in range(n) if (min(v, w), max(v, w)) in edges}
        graphs.append(graph_from_edges(n + 1, sorted(edges)))
    return graphs


def _fresh_block_states():
    # the states a cubic girth-5 search walks whose last two vertices are
    # fresh twins hanging off the pivot; the lookahead is switched off, so
    # the set does not shrink as it sharpens
    from girthlab import SearchConfig, generate, search

    walked = []
    walk = search._walk

    def recording(graph, known):
        walked.append(graph.rows)
        return walk(graph, known)

    patch = pytest.MonkeyPatch()
    patch.setattr(search, "_walk", recording)
    patch.setattr(search, "_viable", lambda rows, k, g, n_max: tuple(rows))
    try:
        generate(SearchConfig(k=3, g=5, n_max=16))
    finally:
        patch.undo()
    states = [Graph(len(rows), rows) for rows in walked
              if len(rows) > 2 and rows[-1] == rows[-2]]
    assert len(states) > 100 and max(g.n for g in states) == 16
    return states


def test_walk_leaves_match_the_unpruned_tree():
    # orbit and twin pruning, the backjump on a repeated certificate and
    # the leaf at a partition of twin classes skip only subtrees whose
    # certificates an earlier leaf gave: every certificate is met, and its
    # first leaf is the first in depth-first order of the whole tree; each
    # automorphism found maps a first leaf onto a leaf of the tree with the
    # same certificate; and no more leaves are labelled than the tree has.
    # Refinement never splits the fresh twins of a search state, so the
    # walks of those states end at partitions of twin classes
    rng = random.Random(1981)
    graphs = [petersen_graph(), complete_graph(4), complete_bipartite_graph(3, 3),
              cycle_graph(8), _cube_graph()]
    graphs += _small_twin_rich_graphs(rng)
    graphs += [_random_graph(rng, rng.randrange(1, 10), rng.uniform(0.2, 0.8))
               for _ in range(200)]
    graphs += _fresh_block_states()
    for g in graphs:
        leaves, visited, auts = _walk(g)
        assert leaves == naive_walk_leaves(to_adj(g))
        tree = naive_walk_orders(to_adj(g))
        certificates = {order: cert for cert, order in tree}
        for gamma in auts:
            assert any(certificates.get(tuple(gamma[v] for v in first)) == cert
                       for cert, first in leaves.items())
        assert len(leaves) + len(auts) <= visited <= len(tree)


def test_twin_class_partition_is_a_leaf(monkeypatch):
    # the leaves of the star K_{1,5} are one cell of mutual twins: the walk
    # labels its one leaf off the root's refinement, where individualising
    # them one by one took four more refinements
    from girthlab import canon

    refine = canon._refine
    calls = []

    def counting(nbrs, cells, fresh):
        calls.append(fresh)
        return refine(nbrs, cells, fresh)

    monkeypatch.setattr(canon, "_refine", counting)
    star = complete_bipartite_graph(1, 5)
    leaves, visited, auts = _walk(star)
    assert leaves == naive_walk_leaves(to_adj(star))
    assert (visited, auts, len(calls)) == (1, [], 1)


def _hoffman_singleton():
    # pentagons P_h and pentagrams Q_i (h, i in Z5); vertex j of P_h is
    # joined to vertex h*i + j of Q_i
    edges = []
    for h in range(5):
        for j in range(5):
            edges.append((5 * h + j, 5 * h + (j + 1) % 5))
            edges.append((25 + 5 * h + j, 25 + 5 * h + (j + 2) % 5))
            edges += [(5 * h + j, 25 + 5 * i + (h * i + j) % 5) for i in range(5)]
    return graph_from_edges(50, edges)


def test_hoffman_singleton_labels_few_leaves_in_every_labelling():
    # the walk backjumps to where a repeated certificate's path diverged
    # from its first leaf's, so the cost follows the orbits, not the 252,000
    # automorphisms: without the backjump these nine labellings labelled
    # 528 to 31,056 leaves (up to 11 s) for the same 6 certificates
    hs = _hoffman_singleton()
    assert regularity(hs) == (True, 7) and girth(hs) == 5
    graphs = [hs] + [_permuted(hs, random.Random(seed).sample(range(50), 50))
                     for seed in range(8)]
    forms, certificates, counts = set(), set(), []
    for g in graphs:
        leaves, visited, _ = _walk(g)
        forms.add(canonical_graph6(g))
        certificates.add(frozenset(leaves))
        counts.append(visited)
    assert len(forms) == 1
    assert len(certificates) == 1 and len(next(iter(certificates))) == 6
    assert counts == [13] * 9


def test_canonical_form_of_non_regular_graphs_is_pinned(monkeypatch):
    # only regular graphs start from distance-profile cells: the forms of
    # every non-regular state the cubic girth-5 search walks, and of the
    # non-regular twin-rich graphs, are those of the degree-cell walk.  The
    # lookahead is switched off, so the corpus does not shrink as it sharpens
    from girthlab import SearchConfig, generate, search

    walked = set()
    walk = search._walk

    def recording(graph, known):
        walked.add(graph.rows)
        return walk(graph, known)

    monkeypatch.setattr(search, "_walk", recording)
    monkeypatch.setattr(search, "_viable", lambda rows, k, g, n_max: tuple(rows))
    generate(SearchConfig(k=3, g=5, n_max=14))
    monkeypatch.undo()
    graphs = [Graph(len(rows), rows) for rows in walked]
    graphs += _twin_rich_graphs(random.Random(2099))
    lines = sorted({canonical_graph6(g) for g in graphs
                    if len({r.bit_count() for r in g.rows}) > 1})
    assert len(lines) == 422
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16] == "3ad7d34ae5662b66"


def _random_cubic_girth5(rng, n):
    # join a random open vertex to a random open vertex at distance at
    # least 4 from it, starting afresh when none is left
    while True:
        rows = [0] * n
        open_ = set(range(n))
        while open_:
            u = rng.choice(sorted(open_))
            near = ball = 1 << u
            for _ in range(3):
                reach = 0
                for w in bits(near):
                    reach |= rows[w]
                near = reach & ~ball
                ball |= near
            far = [w for w in sorted(open_) if not ball >> w & 1]
            if not far:
                break
            w = rng.choice(far)
            rows[u] |= 1 << w
            rows[w] |= 1 << u
            open_ -= {x for x in (u, w) if rows[x].bit_count() == 3}
        else:
            return Graph(n, tuple(rows))


def test_rigid_regular_graphs_label_few_leaves(monkeypatch):
    # a rigid cubic graph of girth 5 keeps one degree cell under
    # refinement, and a walk from that cell labels about n leaves; its
    # distance-profile cells refine to one leaf here
    rng = random.Random(64)
    graphs = [_random_cubic_girth5(rng, n) for n in range(40, 65, 4)]
    assert all(girth(g) == 5 and regularity(g) == (True, 3) for g in graphs)
    calls = _count_leaves(monkeypatch)
    for g in graphs:
        canonical_graph6(g)
    assert len(calls) == 7


def test_distance_profiles_match_per_vertex_search():
    # the all-sources pass against one breadth-first search per vertex: on
    # named graphs, rigid cubic girth-5 graphs, a disconnected regular
    # graph, and random non-regular graphs, many of them disconnected
    rng = random.Random(4052)
    p, d = petersen_graph(), dodecahedron_graph()
    graphs = [p, d, heawood_graph(), complete_graph(5), complete_bipartite_graph(3, 4),
              cycle_graph(9), Graph(30, p.rows + tuple(r << 10 for r in d.rows))]
    graphs += [_random_cubic_girth5(rng, n) for n in (40, 52, 64)]
    graphs += [_random_graph(rng, rng.randrange(1, 30), rng.uniform(0.02, 0.3))
               for _ in range(40)]
    kinds = set()
    for g in graphs:
        adj = to_adj(g)
        assert _distance_profiles(g.layers) == [
            naive_distance_profile(adj, v) for v in range(g.n)]
        kinds.add((regularity(g)[0], is_connected(g)))
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}
