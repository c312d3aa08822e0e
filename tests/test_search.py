import hashlib
import os

import networkx as nx
import pytest

from girthlab import (
    GIRTH_AT_LEAST,
    GIRTH_EXACT,
    SearchConfig,
    Status,
    canonical_graph6,
    classify,
    confirm_nonexistence,
    dodecahedron_graph,
    find_vgr,
    generate,
    girth,
    graph_from_edges,
    known_nonexistence,
    parse_graph6,
    petersen_graph,
    regularity,
)
from girthlab import search
from girthlab.core import Graph, ball, bit_list


# OEIS A014372: connected cubic graphs of girth >= 5 on n vertices
CUBIC_GIRTH5 = {10: 1, 12: 2, 14: 9, 16: 49, 18: 455, 20: 5783}


def _normalized_classes(outcome, n):
    return {canonical_graph6(parse_graph6(s)) for s in outcome.classes_graph6.get(n, [])}


def test_two_regular_graphs_are_cycles():
    out = generate(SearchConfig(k=2, g=5, n_max=7))
    assert out.per_n_classes == {5: 1, 6: 1, 7: 1}


def test_unique_cubic_graph_on_four_vertices():
    out = generate(SearchConfig(k=3, g=3, n_max=4))
    assert out.per_n_classes == {4: 1}
    rep = classify(parse_graph6(out.classes_graph6[4][0]))
    assert rep.n == 4 and rep.k == 3 and rep.girth == 3


def test_matches_naive_oracle_girth5(oracle_forms):
    # every order up to 10: engine classes == labelled-enumeration classes
    out = generate(SearchConfig(k=3, g=5, n_max=10))
    for n in range(4, 11):
        assert _normalized_classes(out, n) == oracle_forms(n, 3, 5), n
    assert out.per_n_classes == {10: 1}


def test_matches_naive_oracle_girth3(oracle_forms):
    out = generate(SearchConfig(k=3, g=3, n_max=8))
    for n in (4, 6, 8):
        assert _normalized_classes(out, n) == oracle_forms(n, 3, 3), n
    assert out.per_n_classes == {4: 1, 6: 2, 8: 5}


def test_visited_set_is_isomorph_free():
    out = generate(SearchConfig(k=3, g=4, n_max=10))
    for n, certs in out.classes_graph6.items():
        normal = {canonical_graph6(parse_graph6(s)) for s in certs}
        assert len(normal) == len(certs)
        # each class is emitted in the canonical form that are_isomorphic uses
        assert normal == set(certs)
        for s in certs:
            g = parse_graph6(s)
            assert regularity(g) == (True, 3) and girth(g) >= 4


def test_worker_counts_identical():
    single = generate(SearchConfig(k=3, g=5, n_max=14, lambda_filter=6, worker_count=1))
    for workers in (2, 4):
        split = generate(SearchConfig(k=3, g=5, n_max=14, lambda_filter=6,
                                      worker_count=workers))
        assert single.per_n_classes == split.per_n_classes
        assert single.classes_graph6 == split.classes_graph6
        assert single.hits_graph6 == split.hits_graph6


def test_published_counts():
    out = generate(SearchConfig(k=3, g=5, n_max=16))
    assert out.per_n_classes == {n: c for n, c in CUBIC_GIRTH5.items() if n <= 16}
    # OEIS A033886: connected quartic graphs of girth >= 4
    out = generate(SearchConfig(k=4, g=4, n_max=13))
    assert out.per_n_classes == {8: 1, 10: 2, 11: 2, 12: 12, 13: 31}


def test_published_counts_where_the_lookahead_cuts_most():
    # OEIS A014371: connected cubic graphs of girth >= 6
    out = generate(SearchConfig(k=3, g=6, n_max=20))
    assert out.per_n_classes == {14: 1, 16: 1, 18: 5, 20: 32}
    # the Robertson graph is the only quartic graph of girth >= 5 on at
    # most 19 vertices
    out = generate(SearchConfig(k=4, g=5, n_max=19, cap=19))
    assert out.per_n_classes == {19: 1}


def test_published_counts_quartic_girth5():
    # Meringer, J. Graph Theory 30 (1999): connected quartic graphs of
    # girth >= 5 on 19, 20 and 21 vertices; about 2 s on one core
    out = generate(SearchConfig(k=4, g=5, n_max=21, cap=21))
    assert out.per_n_classes == {19: 1, 20: 2, 21: 8}
    assert out.nodes_expanded == 10362


@pytest.mark.parametrize("g, n_max, classes, nodes, leaves", [
    (7, 28, {24: 1, 26: 3, 28: 21}, 14000, 19085),
    (8, 34, {30: 1, 34: 1}, 1503, 3160),
])
def test_published_counts_past_girth_6(g, n_max, classes, nodes, leaves):
    # OEIS A014374 and A014375 (Meringer, J. Graph Theory 30, 1999):
    # connected cubic graphs of girth >= 7 (the McGee graph alone at 24) and
    # >= 8 (the Tutte-Coxeter graph at 30, none at 32).  Girth pruning and
    # the closure read balls of radius 5 and 6 here; about 3 s and 1 s on
    # one core
    out = generate(SearchConfig(k=3, g=g, n_max=n_max, cap=n_max))
    assert out.per_n_classes == classes
    assert (out.nodes_expanded, out.leaves_labelled) == (nodes, leaves)


@pytest.mark.slow
@pytest.mark.parametrize("g, n_max, classes, nodes, leaves", [
    (6, 22, {14: 1, 16: 1, 18: 5, 20: 32, 22: 385}, 21762, 34790),
    (8, 36, {30: 1, 34: 1, 36: 3}, 47025, 131242),
])
def test_published_counts_past_girth_6_slow(g, n_max, classes, nodes, leaves):
    # OEIS A014371 and A014375 (Meringer, J. Graph Theory 30, 1999):
    # connected cubic graphs of girth >= 6 up to 22 vertices and of girth
    # >= 8 up to 36; about 5 s and 35 s on one core
    out = generate(SearchConfig(k=3, g=g, n_max=n_max, cap=n_max))
    assert out.per_n_classes == classes
    assert (out.nodes_expanded, out.leaves_labelled) == (nodes, leaves)


@pytest.mark.slow
@pytest.mark.parametrize("n_max", [18, 20])  # n <= 20: about a minute on one core
def test_published_counts_cubic_slow(n_max):
    out = generate(SearchConfig(k=3, g=5, n_max=n_max))
    assert out.per_n_classes == {n: c for n, c in CUBIC_GIRTH5.items() if n <= n_max}
    if n_max == 18:
        # 18,782 nodes before closed children were pushed; the leaves pin
        # the walk, which labels 20,167 of them for these nodes
        assert out.nodes_expanded == 10491
        assert out.leaves_labelled == 20167


@pytest.mark.slow
def test_published_counts_quartic_girth5_slow():
    # Meringer, J. Graph Theory 30 (1999): connected quartic graphs of
    # girth >= 5 up to 22 vertices; about 40 s on one core
    out = generate(SearchConfig(k=4, g=5, n_max=22, cap=22))
    assert out.per_n_classes == {19: 1, 20: 2, 21: 8, 22: 131}
    assert out.nodes_expanded == 195866
    assert out.leaves_labelled == 255058


def _digest(outcome):
    cls = outcome.classes_graph6
    lines = [f"{n} {c}" for n in sorted(cls) for c in cls[n]] + ["hits"] + outcome.hits_graph6
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


@pytest.mark.parametrize("kwargs, digest", [
    (dict(k=3, g=5, n_max=14), "d19f4cb3bc4371c3"),
    (dict(k=4, g=4, n_max=11), "4206893d2db5d7ce"),
    (dict(k=3, g=5, n_max=12, girth_mode=GIRTH_EXACT, lambda_filter=6), "237042f006a074e6"),
])
def test_emitted_classes_are_byte_stable(kwargs, digest):
    # pinned digests of the emitted class and hit strings: the partial-state
    # memo changes the work of a search, never its output bytes.  Pinned
    # when classes became canonical_graph6 strings; the same digests come
    # from the count-coloured classes emitted before, re-canonised and sorted.
    # Re-pinned when regular graphs began to split by distance profile: the
    # classes emitted before, re-canonised and sorted, give these digests
    assert _digest(generate(SearchConfig(**kwargs))) == digest


def test_node_count_of_memoised_tree():
    # the machine-independent cost of a search: it moves only when the
    # growth rule, the lookahead or the partial-state memo changes; forced-
    # edge propagation in the lookahead took it from 291 to 201, and pushing
    # the closed child where no fresh vertex can be added from 201 to 130
    out = generate(SearchConfig(k=3, g=5, n_max=14))
    assert out.nodes_expanded == 130 and out.total_classes == 12


def test_leaves_labelled_is_pinned():
    # certificates computed by one call: a duplicate state costs one leaf,
    # since its first leaf is one of an expanded state's certificates.  The
    # distance-profile cells of complete states took it from 712 to 686,
    # forced-edge propagation in the lookahead from 686 to 482, pushing
    # closed children from 482 to 374, backjumping on a repeated leaf
    # certificate from 374 to 353, and pushing one child per orbit of the
    # parent's automorphisms from 353 to 337 (430 to 343 at quartic n <= 12)
    out = generate(SearchConfig(k=3, g=5, n_max=14))
    assert out.nodes_expanded == 130 and out.leaves_labelled == 337
    out = generate(SearchConfig(k=4, g=4, n_max=12))
    assert out.nodes_expanded == 105 and out.leaves_labelled == 343


def test_leaf_index_is_kept_per_order():
    # a certificate is a payload int without its order: the edgeless graphs
    # on one and on two vertices both have certificate 0
    memo: dict[int, set[int]] = {}
    assert search._admit(Graph(1, (0,)), memo) == ({0: (0,)}, 1, [])
    assert search._admit(Graph(2, (0, 0)), memo) == ({0: (0, 1)}, 1, [])
    assert search._admit(Graph(2, (0, 0)), memo) == (None, 1, [])
    assert memo == {1: {0}, 2: {0}}


def test_leaves_labelled_counts_one_call(tmp_path):
    # nodes_expanded adds up over resumed calls, leaves_labelled is the
    # call's own.  The budget stops one node short of the 130-node tree (it
    # was 200 of 201, with leaves (474, 13), before closed children were
    # pushed).  Backjumping on a repeated leaf certificate took (366, 22) to
    # (345, 15).  The checkpoint now carries every leaf certificate of the
    # expanded states, so the resumed call refuses each duplicate at its
    # first leaf, as the uninterrupted run does, instead of walking in full
    # the first duplicate of each class expanded before: (345, 15) became
    # (345, 8), which sums to the uninterrupted run's 353.  Pushing one
    # child per orbit of the parent's automorphisms made it (332, 5), which
    # sums to 337
    config = SearchConfig(k=3, g=5, n_max=14, node_budget=129,
                          checkpoint_path=str(tmp_path / "frontier.txt"))
    first, rest = generate(config), generate(config)
    assert first.suspended and not rest.suspended and rest.nodes_expanded == 130
    assert (first.leaves_labelled, rest.leaves_labelled) == (332, 5)


def _admit_by_least_certificate(graph, memo):
    # the canonical-key memo: every state walked in full, and refused when
    # its least certificate, its canonical graph6, was expanded before
    from girthlab.canon import _walk

    leaves, visited, auts = _walk(graph)
    known = memo.setdefault(graph.n, set())
    if min(leaves) in known:
        return None, visited, auts
    known.update(leaves)
    return leaves, visited, auts


@pytest.mark.parametrize("kwargs", [
    dict(k=3, g=4, n_max=10),
    dict(k=3, g=5, n_max=16),
    dict(k=4, g=4, n_max=12),
    dict(k=3, g=5, n_max=14, lambda_filter=6),
    dict(k=3, g=5, n_max=14, lambda_filter=6, worker_count=2),
])
def test_leaf_index_changes_no_decision(monkeypatch, kwargs):
    # refusing a state at its first leaf only makes refusing a duplicate
    # cheaper: with every walk taken in full and states keyed on their
    # least certificate, the search expands the same states
    memoised = generate(SearchConfig(**kwargs))
    monkeypatch.setattr(search, "_admit", _admit_by_least_certificate)
    plain = generate(SearchConfig(**kwargs))
    assert memoised.classes_graph6 == plain.classes_graph6
    assert memoised.hits_graph6 == plain.hits_graph6
    assert memoised.nodes_expanded == plain.nodes_expanded
    assert memoised.leaves_labelled < plain.leaves_labelled


@pytest.mark.parametrize("kwargs", [
    dict(k=3, g=3, n_max=10),
    dict(k=3, g=5, n_max=14),
    dict(k=4, g=4, n_max=12),
    dict(k=3, g=6, n_max=16),
    dict(k=3, g=5, n_max=12, girth_mode=GIRTH_EXACT, lambda_filter=6),
])
def test_pruning_keeps_every_class(monkeypatch, kwargs):
    # the lookahead check and the twin rule only drop branches without a
    # new class: switched off, the search emits the same bytes
    pruned = generate(SearchConfig(**kwargs))
    monkeypatch.setattr(search, "_viable", lambda rows, k, g, n_max: tuple(rows))
    monkeypatch.setattr(search, "_one_per_row", lambda rows, candidates: candidates)
    plain = generate(SearchConfig(**kwargs))
    assert pruned.classes_graph6 == plain.classes_graph6
    assert pruned.hits_graph6 == plain.hits_graph6
    assert pruned.nodes_expanded < plain.nodes_expanded


_orbit_walk = search._walk


def _walk_without_automorphisms(graph, known):
    # the walk as it is, but handing the search no automorphism to group
    # siblings by
    leaves, visited, _ = _orbit_walk(graph, known)
    return leaves, visited, []


@pytest.mark.parametrize("kwargs", [
    dict(k=3, g=3, n_max=10),
    dict(k=3, g=4, n_max=12),
    dict(k=3, g=5, n_max=14),
    dict(k=3, g=6, n_max=18),
    dict(k=4, g=3, n_max=9),
    dict(k=4, g=4, n_max=12),
    dict(k=3, g=4, n_max=12, girth_mode=GIRTH_EXACT, lambda_filter=2),
    dict(k=3, g=5, n_max=14, lambda_filter=6, worker_count=2),
])
def test_sibling_orbits_keep_every_class(monkeypatch, kwargs):
    # a child dropped for sharing an orbit of the parent's pivot-fixing
    # automorphisms with a later sibling is one that the memo would refuse
    # at its first leaf, as that sibling is popped first: without the
    # automorphisms the search emits the same classes and hits, and with one
    # worker it expands the same nodes and labels more leaves
    pruned = generate(SearchConfig(**kwargs))
    monkeypatch.setattr(search, "_walk", _walk_without_automorphisms)
    plain = generate(SearchConfig(**kwargs))
    assert pruned.total_classes > 0
    assert pruned.classes_graph6 == plain.classes_graph6
    assert pruned.hits_graph6 == plain.hits_graph6
    assert pruned.total_hits > 0 or kwargs.get("lambda_filter") is None
    if kwargs.get("worker_count", 1) == 1:
        assert pruned.nodes_expanded == plain.nodes_expanded
        assert pruned.leaves_labelled < plain.leaves_labelled


@pytest.mark.parametrize("kwargs", [
    dict(k=3, g=5, n_max=14),
    dict(k=4, g=4, n_max=12),
])
def test_children_carry_their_parents_neighbour_lists(monkeypatch, kwargs):
    # a child's layer pass starts from its parent's neighbour lists with
    # only the changed and new rows listed afresh: at every pop the lists
    # the walk reads are those of the state's own rows
    walk = search._walk
    popped = []

    def checking(graph, known):
        assert graph.layers.nbrs == [bit_list(r) for r in graph.rows]
        popped.append(graph.n)
        return walk(graph, known)

    monkeypatch.setattr(search, "_walk", checking)
    out = generate(SearchConfig(**kwargs))
    assert len(popped) > out.nodes_expanded and max(popped) == kwargs["n_max"]


_closing_viable = search._viable


def _bare_child(rows, k, g, n_max):
    # the lookahead's cut without its closure: a live child is pushed as it is
    return None if _closing_viable(rows, k, g, n_max) is None else tuple(rows)


@pytest.mark.parametrize("kwargs", [
    dict(k=3, g=3, n_max=10),
    dict(k=3, g=4, n_max=12),
    dict(k=3, g=5, n_max=14),
    dict(k=3, g=6, n_max=18),
    dict(k=3, g=7, n_max=24, cap=24),
    dict(k=4, g=4, n_max=11),
    dict(k=4, g=5, n_max=19, cap=19),
    dict(k=3, g=5, n_max=12, girth_mode=GIRTH_EXACT, lambda_filter=6),
    dict(k=3, g=5, n_max=14, lambda_filter=6, worker_count=2),
])
def test_closed_children_keep_every_class(monkeypatch, kwargs):
    # pushing the forced-edge closure in place of a child with no room for
    # a fresh vertex keeps its completions: with the lookahead kept but the
    # bare child pushed, the search emits the same bytes from more nodes
    closed = generate(SearchConfig(**kwargs))
    monkeypatch.setattr(search, "_viable", _bare_child)
    plain = generate(SearchConfig(**kwargs))
    assert closed.total_classes > 0
    assert closed.classes_graph6 == plain.classes_graph6
    assert closed.hits_graph6 == plain.hits_graph6
    assert closed.nodes_expanded < plain.nodes_expanded


def test_viability_check_on_small_states():
    # cubic; a path on 4 vertices plus an isolated vertex misses 9 stubs,
    # an odd number, which no fresh slot can fix when n_max = 5
    path4 = [0b0010, 0b0101, 0b1010, 0b0100]
    assert search._viable(path4, 3, 3, 8) == tuple(path4)
    assert search._viable(path4 + [0], 3, 3, 5) is None
    # the leaves of a claw each miss 2 edges.  At girth 3 each has exactly
    # the other two as open partners, so the closure is the triangle on
    # them; it is pushed with no fresh slot, and with one, as that makes
    # the stub count odd (6 + 3) and leaves f = 0 the only feasible count
    claw = [0b1110, 0b0001, 0b0001, 0b0001]
    k4 = (0b1110, 0b1101, 0b1011, 0b0111)
    assert search._viable(claw, 3, 3, 4) == k4
    assert search._viable(claw, 3, 3, 5) == k4
    # with k fresh slots the child is accepted as it is, closure or not
    assert search._viable(claw, 3, 3, 7) == tuple(claw)
    # at girth 4 the leaves lie too close to one another, so one fresh
    # slot is too few and two are enough; as f = 2 survives, the child is
    # pushed unchanged
    assert search._viable(claw, 3, 4, 5) is None
    assert search._viable(claw, 3, 4, 6) == tuple(claw)
    # the closure is a copy: the caller's rows are left as they were
    assert claw == [0b1110, 0b0001, 0b0001, 0b0001]


def test_forced_edges_that_close_a_triangle_are_refused():
    # cubic on 16 vertices: 12, 14 and 15 each miss two edges and lie
    # pairwise at distance >= 4, so each has exactly two open partners
    rows = list(parse_graph6("OsP@@?WD?Q?o?_?X?A??O").rows)
    assert [3 - r.bit_count() for r in rows] == [0] * 12 + [2, 0, 2, 2]
    for v in (12, 14, 15):
        assert ball(rows, v, 3) & (1 << 12 | 1 << 14 | 1 << 15) == 1 << v
    # with no fresh slot each must join both others: a triangle
    assert search._viable(rows, 3, 5, 16) is None
    # one fresh vertex makes the stub count odd (6 + 3), so it cannot help
    assert search._viable(rows, 3, 5, 17) is None


def test_each_forced_edge_is_rechecked():
    # cubic on 15 vertices, popped by the search at n_max = 16: 11, 13 and
    # 14 each miss one edge, and 11 and 14 are at distance 2.  Three stubs
    # are odd, so the fresh vertex must join all three, and its edges to 11
    # and 14 close a 4-cycle that only a check after each edge sees
    rows = list(parse_graph6("NsP@@?OC?R@A@g@O?Q?").rows)
    assert [v for v, r in enumerate(rows) if r.bit_count() < 3] == [11, 13, 14]
    assert ball(rows, 11, 2) >> 14 & 1
    assert search._viable(rows, 3, 5, 16) is None


@pytest.mark.parametrize("k, g, n_max", [
    (3, 3, 10), (3, 4, 12), (3, 5, 14), (4, 4, 11), (3, 6, 16),
])
def test_lookahead_refuses_only_dead_states(monkeypatch, k, g, n_max):
    # liveness oracle: grow the graph of classes with the lookahead off;
    # every popped state that the lookahead refuses has no complete descendant
    viable, expand = search._viable, search._children
    keys: dict[tuple, str] = {}
    arcs: dict[str, list[str] | None] = {}
    popped: set[tuple] = set()

    def key(state):
        if state not in keys:
            keys[state] = canonical_graph6(Graph(len(state), state))
        return keys[state]

    def recording(state, *args):
        kids = expand(state, *args)
        arcs[key(state)] = None if kids is None else [key(kid) for kid in kids]
        popped.update(kids or ())
        return kids

    monkeypatch.setattr(search, "_viable", lambda rows, k, g, n_max: tuple(rows))
    monkeypatch.setattr(search, "_children", recording)
    generate(SearchConfig(k=k, g=g, n_max=n_max))
    live: dict[str, bool] = {}

    def alive(cls):
        # every popped class was expanded once, so arcs has each one
        if cls not in live:
            kids = arcs[cls]
            live[cls] = kids is None or any(alive(kid) for kid in kids)
        return live[cls]

    refused = [state for state in popped if viable(list(state), k, g, n_max) is None]
    assert refused
    assert not any(alive(key(state)) for state in refused)


def test_import_does_not_load_the_process_pool():
    # worker pools are imported only by runs that start workers
    import subprocess
    import sys

    code = "import sys, girthlab; print('concurrent.futures.process' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "False"


def test_exact_mode_excludes_higher_girth():
    at_least = generate(SearchConfig(k=3, g=5, n_max=14))
    exact = generate(SearchConfig(k=3, g=5, n_max=14, girth_mode=GIRTH_EXACT))
    assert at_least.per_n_classes[14] == exact.per_n_classes[14] + 1  # one girth-6 class
    for certs in exact.classes_graph6.values():
        assert all(girth(parse_graph6(s)) == 5 for s in certs)


def test_find_vgr_petersen_and_k4():
    out = find_vgr(3, 5, 6, 10)
    assert out.total_hits == 1
    hit = parse_graph6(out.hits_graph6[0])
    assert canonical_graph6(hit) == canonical_graph6(petersen_graph())

    out = find_vgr(3, 3, 3, 6)
    hits = {canonical_graph6(parse_graph6(s)) for s in out.hits_graph6}
    from girthlab import complete_graph

    assert canonical_graph6(complete_graph(4)) in hits


def test_find_vgr_agrees_with_the_oracle_at_girth_8():
    # the oracle knows (3, 8, 24) to exist, the generalized-quadrangle
    # incidence graph, and the search finds it as the only hit up to 34
    # vertices: the Tutte-Coxeter graph, on vertex_cycle_bound(3, 8) = 24
    # girth cycles per vertex, counted at even girth by the layer counter
    assert known_nonexistence(3, 8, 24).status is Status.EXISTS
    out = find_vgr(3, 8, 24, 34, cap=34)
    assert out.per_n_hits == {30: 1} and out.nodes_expanded == 1503
    tutte_coxeter = nx.LCF_graph(30, [-13, -9, 7, -7, 9, 13], 5)
    assert out.hits_graph6 == [canonical_graph6(graph_from_edges(30, tutte_coxeter.edges()))]


@pytest.mark.slow
def test_find_vgr_rediscovers_dodecahedron():
    out = find_vgr(3, 5, 3, 20)
    hits = {canonical_graph6(parse_graph6(s)) for s in out.hits_graph6}
    assert canonical_graph6(dodecahedron_graph()) in hits


def test_confirm_nonexistence_small():
    out = confirm_nonexistence(3, 2, 12)
    assert out.total_hits == 0 and not out.contradiction
    with pytest.raises(ValueError):
        confirm_nonexistence(3, 0, 10)
    with pytest.raises(ValueError):
        confirm_nonexistence(3, 3, 10)  # above k-1
    with pytest.raises(ValueError):
        confirm_nonexistence(4, 1, 10)  # odd deficit: non-integral target


def test_lambda_filter_counts():
    out = generate(SearchConfig(k=3, g=5, n_max=10, girth_mode=GIRTH_EXACT,
                                lambda_filter=6))
    assert out.per_n_hits == {10: 1}
    assert out.per_n_classes == {10: 1}


def test_exact_mode_refuses_lambda_above_the_vertex_bound():
    # vertex_cycle_bound(3, 5) = 6: no cubic girth-5 vertex lies on 7 or
    # more 5-cycles, so the exact search is refused before it expands a node
    for lam in (7, 40):
        config = SearchConfig(k=3, g=5, n_max=16, girth_mode=GIRTH_EXACT, lambda_filter=lam)
        with pytest.raises(ValueError, match="per-vertex maximum 6"):
            config.validate()
        with pytest.raises(ValueError, match="per-vertex maximum 6"):
            generate(config)
        with pytest.raises(ValueError, match="per-vertex maximum 6"):
            find_vgr(3, 5, lam, 16)
    SearchConfig(k=3, g=5, n_max=16, girth_mode=GIRTH_EXACT, lambda_filter=6).validate()
    # girth at least 5 admits girth 7, whose bound is 12
    out = generate(SearchConfig(k=3, g=5, n_max=10, lambda_filter=7))
    assert out.per_n_classes == {10: 1} and out.total_hits == 0


def test_order_cap_and_validation():
    with pytest.raises(ValueError):
        generate(SearchConfig(k=3, g=5, n_max=22))  # above default cap 20
    with pytest.raises(ValueError):
        generate(SearchConfig(k=1, g=5, n_max=8))
    with pytest.raises(ValueError):
        generate(SearchConfig(k=3, g=5, n_max=8, girth_mode="sometimes"))
    for budget in (0, -3):  # would suspend at once on every call
        with pytest.raises(ValueError):
            generate(SearchConfig(k=3, g=5, n_max=12, node_budget=budget))
    out = generate(SearchConfig(k=3, g=5, n_max=3))
    assert out.per_n_classes == {}  # below the least possible order


def test_node_budget_needs_a_checkpoint(monkeypatch, tmp_path):
    # a run suspended without a checkpoint could never be resumed, so the
    # budget is refused before the search runs and no file is written
    monkeypatch.chdir(tmp_path)
    for kwargs in (dict(), dict(checkpoint_path="")):
        with pytest.raises(ValueError, match="node_budget needs a checkpoint_path"):
            generate(SearchConfig(k=3, g=5, n_max=14, node_budget=50, **kwargs))
    with pytest.raises(ValueError, match="checkpoint_path"):
        confirm_nonexistence(3, 2, 14, node_budget=50)
    assert os.listdir(tmp_path) == []


def test_search_above_the_vertex_cap_is_refused(monkeypatch, tmp_path):
    # a checkpoint's graph6 lines are read back under the vertex cap, so a
    # search that could pass it is refused before it writes one
    monkeypatch.delenv("GIRTHLAB_MAX_N", raising=False)
    path = str(tmp_path / "frontier.txt")
    kwargs = dict(k=2, g=66, n_max=70, cap=70)
    with pytest.raises(ValueError, match="GIRTHLAB_MAX_N"):
        generate(SearchConfig(**kwargs, node_budget=66, checkpoint_path=path))
    assert not os.path.exists(path)
    # under a raised cap the same chain resumes to the uninterrupted run
    monkeypatch.setenv("GIRTHLAB_MAX_N", "70")
    full = generate(SearchConfig(**kwargs))
    assert full.per_n_classes == {n: 1 for n in range(66, 71)}
    first = generate(SearchConfig(**kwargs, node_budget=66, checkpoint_path=path))
    resumed = generate(SearchConfig(**kwargs, checkpoint_path=path))
    assert first.suspended and not resumed.suspended
    assert resumed.classes_graph6 == full.classes_graph6
    assert not os.path.exists(path)


def test_checkpoint_suspend_and_resume(tmp_path):
    # the n <= 12 tree has 19 nodes (29 before closed children were
    # pushed), so the checkpoint tests suspend at a budget of 13, not 20
    path = str(tmp_path / "frontier.txt")
    first = generate(SearchConfig(k=3, g=5, n_max=12, node_budget=13,
                                  checkpoint_path=path))
    assert first.suspended and os.path.exists(path)
    full = generate(SearchConfig(k=3, g=5, n_max=12))
    resumed = generate(SearchConfig(k=3, g=5, n_max=12, checkpoint_path=path))
    assert not resumed.suspended
    assert resumed.classes_graph6 == full.classes_graph6
    # a completed resume removes the checkpoint it consumed
    assert resumed.checkpoint_path is None and not os.path.exists(path)


@pytest.mark.parametrize("workers", [(1,), (2,), (1, 2)], ids=["1", "2", "1,2"])
@pytest.mark.parametrize("budget", [1, 7, 13])
def test_budgeted_resume_chain_matches_uninterrupted_run(tmp_path, budget, workers):
    # a resume must neither lose nor duplicate a class, whatever the budget
    # and however the memo was split between workers; the calls take their
    # worker counts from `workers` in turn, so with (1, 2) every two-worker
    # call splits the frontier that a one-worker call left
    path = str(tmp_path / "frontier.txt")
    kwargs = dict(k=3, g=5, n_max=12, lambda_filter=6)
    full = generate(SearchConfig(**kwargs))
    for runs in range(1, 2000):
        out = generate(SearchConfig(**kwargs, node_budget=budget,
                                    worker_count=workers[(runs - 1) % len(workers)],
                                    checkpoint_path=path))
        if not out.suspended:
            break
    assert not out.suspended and runs > 1
    assert out.classes_graph6 == full.classes_graph6
    assert out.hits_graph6 == full.hits_graph6 == [full.classes_graph6[10][0]]
    assert not os.path.exists(path)


def test_node_budget_bounds_a_multi_worker_call(tmp_path):
    # the split expands 25 nodes, one per step, and leaves 32 open states,
    # and the rest of the budget is split exactly between the two workers'
    # shares: a share given no budget starts no process
    path = str(tmp_path / "frontier.txt")
    for budget in range(1, 41):
        out = generate(SearchConfig(k=3, g=5, n_max=16, worker_count=2,
                                    node_budget=budget, checkpoint_path=path))
        assert out.suspended and out.nodes_expanded <= budget
        os.remove(path)


def test_checkpointed_memo_repeats_no_work(tmp_path):
    # the memo travels through the checkpoint, so a chain of one-worker
    # resumes expands exactly the nodes of the uninterrupted run: 130, in
    # calls of 50 (201 in calls of 100 before closed children were pushed)
    path = str(tmp_path / "frontier.txt")
    config = SearchConfig(k=3, g=5, n_max=14, node_budget=50, checkpoint_path=path)
    first = generate(config)
    with open(path) as fh:
        assert sum(line.startswith("#memo ") for line in fh) == 50
    for calls in range(2, 100):
        out = generate(config)
        if not out.suspended:
            break
    assert first.suspended and calls == 3
    assert out.nodes_expanded == 130
    assert out.classes_graph6 == generate(SearchConfig(k=3, g=5, n_max=14)).classes_graph6


@pytest.mark.parametrize("budget", [1, 7, 13, 50, 129])
def test_resume_chain_labels_the_uninterrupted_leaves(tmp_path, budget):
    # every leaf certificate of the expanded states travels through the
    # checkpoint, so a chain of one-worker calls refuses each duplicate at
    # its first leaf, as the uninterrupted run does, and labels its 337
    # leaves in all
    path = str(tmp_path / "frontier.txt")
    config = SearchConfig(k=3, g=5, n_max=14, node_budget=budget, checkpoint_path=path)
    labelled = 0
    for _ in range(200):
        out = generate(config)
        labelled += out.leaves_labelled
        if not out.suspended:
            break
    assert not out.suspended and out.nodes_expanded == 130
    assert labelled == 337


def test_checkpoint_written_without_closed_children_resumes(monkeypatch, tmp_path):
    # a file written without the closure holds bare children in its
    # frontier and their certificates in its memo; every class is still met
    # when the run resumes with the closure on
    path = str(tmp_path / "frontier.txt")
    monkeypatch.setattr(search, "_viable", _bare_child)
    first = generate(SearchConfig(k=3, g=5, n_max=16, node_budget=400, checkpoint_path=path))
    monkeypatch.undo()
    resumed = generate(SearchConfig(k=3, g=5, n_max=16, checkpoint_path=path))
    assert first.suspended and not resumed.suspended
    assert resumed.classes_graph6 == generate(SearchConfig(k=3, g=5, n_max=16)).classes_graph6


def test_checkpoint_rejects_older_format(tmp_path):
    from girthlab import GirthLabError

    path = tmp_path / "frontier.txt"
    generate(SearchConfig(k=3, g=5, n_max=12, node_budget=13, checkpoint_path=str(path)))
    lines = path.read_text().splitlines()
    assert lines[0] == search.CHECKPOINT_MAGIC == "#girthlab-checkpoint 6"
    assert any(line.startswith("#memo ") for line in lines)
    # a format-5 file's #memo lines hold only each class's least
    # certificate; a format-4 file's regular classes were labelled from the
    # one degree cell
    for older in ("#girthlab-checkpoint 5", "#girthlab-checkpoint 4"):
        path.write_text("\n".join([older] + lines[1:]) + "\n")
        with pytest.raises(GirthLabError):
            generate(SearchConfig(k=3, g=5, n_max=12, checkpoint_path=str(path)))


@pytest.mark.parametrize("memo", ["not graph6", "C~~", "B@"])
def test_checkpoint_rejects_a_corrupted_memo_line(tmp_path, memo):
    # a #memo line must decode as a graph6 certificate: a bad byte, a
    # trailing byte and a nonzero padding bit are refused, by the API and by
    # the CLI with exit 2
    from girthlab import GirthLabError, cli

    path = tmp_path / "frontier.txt"
    generate(SearchConfig(k=3, g=5, n_max=12, node_budget=13, checkpoint_path=str(path)))
    lines = path.read_text().splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("#memo "))
    lines[at] = "#memo " + memo
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(GirthLabError):
        generate(SearchConfig(k=3, g=5, n_max=12, checkpoint_path=str(path)))
    assert cli.main(["search", "--k", "3", "--g", "5", "--max-n", "12",
                     "--checkpoint", str(path)]) == 2


def test_checkpoint_frontier_lines_are_bare_graph6(tmp_path):
    # frontier lines carry no depth column, and a line with a trailing
    # column is refused, by the API and by the CLI with exit 2
    from girthlab import GirthLabError, cli

    path = tmp_path / "frontier.txt"
    generate(SearchConfig(k=3, g=5, n_max=12, node_budget=13, checkpoint_path=str(path)))
    lines = path.read_text().splitlines()
    frontier = [line for line in lines if not line.startswith("#")]
    assert frontier and all(" " not in line for line in frontier)
    path.write_text("\n".join(line if line.startswith("#") else line + " 3"
                               for line in lines) + "\n")
    with pytest.raises(GirthLabError):
        generate(SearchConfig(k=3, g=5, n_max=12, checkpoint_path=str(path)))
    assert cli.main(["search", "--k", "3", "--g", "5", "--max-n", "12",
                     "--checkpoint", str(path)]) == 2


def test_checkpoint_path_checked_before_the_search(tmp_path):
    for path in (tmp_path, tmp_path / "missing" / "frontier.txt"):
        with pytest.raises(ValueError, match="checkpoint"):
            generate(SearchConfig(k=3, g=5, n_max=12, node_budget=5,
                                  checkpoint_path=str(path)))


def test_checkpoint_survives_crash_during_write(tmp_path, monkeypatch):
    ck = tmp_path / "frontier.txt"
    path = str(ck)
    config = SearchConfig(k=3, g=5, n_max=12, node_budget=5, checkpoint_path=path)
    assert generate(config).suspended
    before = ck.read_text()

    real_write = search.write_graph6
    written = []

    def failing_write(g):
        if written:
            raise OSError("disk full")
        written.append(g)
        return real_write(g)

    monkeypatch.setattr(search, "write_graph6", failing_write)
    with pytest.raises(OSError):
        generate(config)
    assert written  # the failure came part-way through the frontier
    assert ck.read_text() == before
    assert os.listdir(tmp_path) == ["frontier.txt"]

    monkeypatch.setattr(search, "write_graph6", real_write)
    resumed = generate(SearchConfig(k=3, g=5, n_max=12, checkpoint_path=path))
    assert not resumed.suspended
    assert resumed.classes_graph6 == generate(SearchConfig(k=3, g=5, n_max=12)).classes_graph6


def test_checkpoint_rejects_mismatched_config(tmp_path):
    from girthlab import GirthLabError

    path = str(tmp_path / "frontier.txt")
    generate(SearchConfig(k=3, g=5, n_max=12, node_budget=13, checkpoint_path=path))
    with pytest.raises(GirthLabError):
        generate(SearchConfig(k=3, g=5, n_max=14, checkpoint_path=path))


@pytest.mark.parametrize("tag", ["#config ", "#nodes "])
def test_checkpoint_without_config_or_nodes_is_refused(tmp_path, tag):
    # without its #config line a cubic g = 5 checkpoint would resume under
    # g = 6 and report the g = 5 classes it holds
    from girthlab import GirthLabError

    path = tmp_path / "frontier.txt"
    generate(SearchConfig(k=3, g=5, n_max=14, node_budget=13, checkpoint_path=str(path)))
    lines = path.read_text().splitlines()
    assert sum(line.startswith(tag) for line in lines) == 1
    path.write_text("\n".join(line for line in lines if not line.startswith(tag)) + "\n")
    # refused under g = 6 and under its own search, and left in place
    for g in (6, 5):
        with pytest.raises(GirthLabError):
            generate(SearchConfig(k=3, g=g, n_max=14, checkpoint_path=str(path)))
    with pytest.raises(GirthLabError, match="lacks its #config or #nodes"):
        generate(SearchConfig(k=3, g=5, n_max=14, checkpoint_path=str(path)))
    assert path.exists()
