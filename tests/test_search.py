import hashlib
import os

import pytest

from girthlab import (
    GIRTH_AT_LEAST,
    GIRTH_EXACT,
    SearchConfig,
    canonical_graph6,
    classify,
    confirm_nonexistence,
    dodecahedron_graph,
    find_vgr,
    generate,
    girth,
    parse_graph6,
    petersen_graph,
    regularity,
)
from girthlab import search
from girthlab.core import Graph

from naive_oracles import naive_labeled_regular_graphs


# OEIS A014372: connected cubic graphs of girth >= 5 on n vertices
CUBIC_GIRTH5 = {10: 1, 12: 2, 14: 9, 16: 49, 18: 455, 20: 5783}


def _normalized_classes(outcome, n):
    return {canonical_graph6(parse_graph6(s)) for s in outcome.classes_graph6.get(n, [])}


def _oracle_classes(n, k, min_girth):
    labeled = naive_labeled_regular_graphs(n, k, min_girth)
    forms = set()
    for adj in labeled:
        rows = tuple(sum(1 << w for w in adj[v]) for v in range(n))
        forms.add(canonical_graph6(Graph(n, rows)))
    return forms


def test_two_regular_graphs_are_cycles():
    out = generate(SearchConfig(k=2, g=5, n_max=7))
    assert out.per_n_classes == {5: 1, 6: 1, 7: 1}


def test_unique_cubic_graph_on_four_vertices():
    out = generate(SearchConfig(k=3, g=3, n_max=4))
    assert out.per_n_classes == {4: 1}
    rep = classify(parse_graph6(out.classes_graph6[4][0]))
    assert rep.n == 4 and rep.k == 3 and rep.girth == 3


def test_matches_naive_oracle_girth5():
    # every order up to 10: engine classes == labelled-enumeration classes
    out = generate(SearchConfig(k=3, g=5, n_max=10))
    for n in range(4, 11):
        assert _normalized_classes(out, n) == _oracle_classes(n, 3, 5), n
    assert out.per_n_classes == {10: 1}


def test_matches_naive_oracle_girth3():
    out = generate(SearchConfig(k=3, g=3, n_max=8))
    for n in (4, 6, 8):
        assert _normalized_classes(out, n) == _oracle_classes(n, 3, 3), n
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


@pytest.mark.slow
@pytest.mark.parametrize("n_max", [18, 20])  # n <= 20: about 3.5 minutes on one core
def test_published_counts_cubic_slow(n_max):
    out = generate(SearchConfig(k=3, g=5, n_max=n_max))
    assert out.per_n_classes == {n: c for n, c in CUBIC_GIRTH5.items() if n <= n_max}


def _digest(outcome):
    cls = outcome.classes_graph6
    lines = [f"{n} {c}" for n in sorted(cls) for c in cls[n]] + ["hits"] + outcome.hits_graph6
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


@pytest.mark.parametrize("kwargs, digest", [
    (dict(k=3, g=5, n_max=14), "c587df1844697a61"),
    (dict(k=4, g=4, n_max=11), "004d243a0a5038e4"),
    (dict(k=3, g=5, n_max=12, girth_mode=GIRTH_EXACT, lambda_filter=6), "63e297481b1f9027"),
])
def test_emitted_classes_are_byte_stable(kwargs, digest):
    # pinned digests of the emitted class and hit strings: the partial-state
    # memo changes the work of a search, never its output bytes.  Pinned
    # when classes became canonical_graph6 strings; the same digests come
    # from the count-coloured classes emitted before, re-canonised and sorted
    assert _digest(generate(SearchConfig(**kwargs))) == digest


def test_node_count_of_memoised_tree():
    # the machine-independent cost of a search: it moves only when the
    # growth rule or the partial-state memo changes
    out = generate(SearchConfig(k=3, g=5, n_max=14))
    assert out.nodes_expanded == 291 and out.total_classes == 12


def test_leaves_labelled_is_pinned():
    # certificates computed by one call: a duplicate state costs one leaf,
    # since its first leaf is one of an expanded state's certificates
    out = generate(SearchConfig(k=3, g=5, n_max=14))
    assert out.nodes_expanded == 291 and out.leaves_labelled == 712


def test_leaf_index_is_kept_per_order():
    # a certificate is a payload int without its order: the edgeless graphs
    # on one and on two vertices both have certificate 0
    seen: set[str] = set()
    index: dict[int, set[int]] = {}
    assert search._admit((0,), seen, index) == ("@", 1)
    assert search._admit((0, 0), seen, index) == ("A?", 1)
    assert search._admit((0, 0), seen, index) == (None, 1)
    assert seen == {"@", "A?"} and index == {1: {0}, 2: {0}}


def test_leaves_labelled_counts_one_call(tmp_path):
    # nodes_expanded adds up over resumed calls, leaves_labelled is the
    # call's own; a resumed call starts with an empty leaf index, so it
    # walks in full the first duplicate of each state expanded before
    config = SearchConfig(k=3, g=5, n_max=14, node_budget=200,
                          checkpoint_path=str(tmp_path / "frontier.txt"))
    first, rest = generate(config), generate(config)
    assert first.suspended and not rest.suspended and rest.nodes_expanded == 291
    assert (first.leaves_labelled, rest.leaves_labelled) == (441, 326)


@pytest.mark.parametrize("kwargs", [
    dict(k=3, g=4, n_max=10),
    dict(k=3, g=5, n_max=16),
    dict(k=4, g=4, n_max=12),
    dict(k=3, g=5, n_max=14, lambda_filter=6),
    dict(k=3, g=5, n_max=14, lambda_filter=6, worker_count=2),
])
def test_leaf_index_changes_no_decision(monkeypatch, kwargs):
    # the leaf-certificate index only makes refusing a duplicate cheaper:
    # with every walk taken in full, the search expands the same states
    from girthlab.canon import _walk

    indexed = generate(SearchConfig(**kwargs))
    monkeypatch.setattr(search, "_walk", lambda rows, known: _walk(rows))
    plain = generate(SearchConfig(**kwargs))
    assert indexed.classes_graph6 == plain.classes_graph6
    assert indexed.hits_graph6 == plain.hits_graph6
    assert indexed.nodes_expanded == plain.nodes_expanded
    assert indexed.leaves_labelled < plain.leaves_labelled


@pytest.mark.parametrize("kwargs", [
    dict(k=3, g=5, n_max=14),
    dict(k=4, g=4, n_max=12),
    dict(k=3, g=6, n_max=16),
    dict(k=3, g=5, n_max=12, girth_mode=GIRTH_EXACT, lambda_filter=6),
])
def test_pruning_keeps_every_class(monkeypatch, kwargs):
    # the lookahead check and the twin rule only drop branches without a
    # new class: switched off, the search emits the same bytes
    pruned = generate(SearchConfig(**kwargs))
    monkeypatch.setattr(search, "_viable", lambda rows, k, g, n_max: True)
    monkeypatch.setattr(search, "_one_per_row", lambda rows, candidates: candidates)
    plain = generate(SearchConfig(**kwargs))
    assert pruned.classes_graph6 == plain.classes_graph6
    assert pruned.hits_graph6 == plain.hits_graph6
    assert pruned.nodes_expanded < plain.nodes_expanded


def test_viability_check_on_small_states():
    # cubic; a path on 4 vertices plus an isolated vertex misses 9 stubs,
    # an odd number, which no fresh slot can fix when n_max = 5
    path4 = [0b0010, 0b0101, 0b1010, 0b0100]
    assert search._viable(path4, 3, 3, 8)
    assert not search._viable(path4 + [0], 3, 3, 5)
    # the leaves of a claw each miss 2 edges; at girth 4 they lie too close
    # to one another, so one fresh slot is too few and two are enough
    claw = [0b1110, 0b0001, 0b0001, 0b0001]
    assert search._viable(claw, 3, 3, 5)
    assert not search._viable(claw, 3, 4, 5)
    assert search._viable(claw, 3, 4, 6)


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


def test_checkpoint_suspend_and_resume(tmp_path):
    path = str(tmp_path / "frontier.txt")
    first = generate(SearchConfig(k=3, g=5, n_max=12, node_budget=20,
                                  checkpoint_path=path))
    assert first.suspended and os.path.exists(path)
    full = generate(SearchConfig(k=3, g=5, n_max=12))
    resumed = generate(SearchConfig(k=3, g=5, n_max=12, checkpoint_path=path))
    assert not resumed.suspended
    assert resumed.classes_graph6 == full.classes_graph6
    # a completed resume removes the checkpoint it consumed
    assert resumed.checkpoint_path is None and not os.path.exists(path)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("budget", [1, 7, 20])
def test_budgeted_resume_chain_matches_uninterrupted_run(tmp_path, budget, workers):
    # a resume must neither lose nor duplicate a class, whatever the budget
    # and however the memo was split between workers
    path = str(tmp_path / "frontier.txt")
    kwargs = dict(k=3, g=5, n_max=12, lambda_filter=6)
    full = generate(SearchConfig(**kwargs))
    for runs in range(1, 2000):
        out = generate(SearchConfig(**kwargs, node_budget=budget, worker_count=workers,
                                    checkpoint_path=path))
        if not out.suspended:
            break
    assert not out.suspended and runs > 1
    assert out.classes_graph6 == full.classes_graph6
    assert out.hits_graph6 == full.hits_graph6 == [full.classes_graph6[10][0]]
    assert not os.path.exists(path)


def test_checkpointed_memo_repeats_no_work(tmp_path):
    # the memo travels through the checkpoint, so a chain of one-worker
    # resumes expands exactly the nodes of the uninterrupted run
    path = str(tmp_path / "frontier.txt")
    config = SearchConfig(k=3, g=5, n_max=14, node_budget=100, checkpoint_path=path)
    first = generate(config)
    with open(path) as fh:
        assert sum(line.startswith("#memo ") for line in fh) == 100
    for calls in range(2, 100):
        out = generate(config)
        if not out.suspended:
            break
    assert first.suspended and calls == 3
    assert out.nodes_expanded == 291
    assert out.classes_graph6 == generate(SearchConfig(k=3, g=5, n_max=14)).classes_graph6


def test_checkpoint_rejects_older_format(tmp_path):
    from girthlab import GirthLabError

    path = tmp_path / "frontier.txt"
    generate(SearchConfig(k=3, g=5, n_max=12, node_budget=20, checkpoint_path=str(path)))
    lines = path.read_text().splitlines()
    assert lines[0] == search.CHECKPOINT_MAGIC == "#girthlab-checkpoint 4"
    assert any(line.startswith("#memo ") for line in lines)
    # a format-3 file, memo included: its classes were count-coloured forms
    path.write_text("\n".join(["#girthlab-checkpoint 3"] + lines[1:]) + "\n")
    with pytest.raises(GirthLabError):
        generate(SearchConfig(k=3, g=5, n_max=12, checkpoint_path=str(path)))


def test_checkpoint_frontier_lines_are_bare_graph6(tmp_path):
    # frontier lines carry no depth column; a format-4 file written with
    # one still resumes to the uninterrupted run
    path = tmp_path / "frontier.txt"
    generate(SearchConfig(k=3, g=5, n_max=12, node_budget=20, checkpoint_path=str(path)))
    lines = path.read_text().splitlines()
    frontier = [line for line in lines if not line.startswith("#")]
    assert frontier and all(" " not in line for line in frontier)
    path.write_text("\n".join(line if line.startswith("#") else line + " 3"
                               for line in lines) + "\n")
    resumed = generate(SearchConfig(k=3, g=5, n_max=12, checkpoint_path=str(path)))
    assert not resumed.suspended
    assert resumed.classes_graph6 == generate(SearchConfig(k=3, g=5, n_max=12)).classes_graph6


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
    generate(SearchConfig(k=3, g=5, n_max=12, node_budget=20, checkpoint_path=path))
    with pytest.raises(GirthLabError):
        generate(SearchConfig(k=3, g=5, n_max=14, checkpoint_path=path))
