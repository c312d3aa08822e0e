"""The breadth-first layer pass that a `Graph` keeps in ``g.layers``: one
pass per analysed instance, shared by girth, both profile engines,
classification, canonical labelling and the audit, and by nothing else."""
import copy
import pickle
import random

import pytest

import girthlab.core as core
from girthlab import (
    audit_graph,
    canonical_graph6,
    check_bounds,
    classify,
    dodecahedron_graph,
    girth,
    girth_profile,
    heawood_graph,
    parse_graph6,
    petersen_graph,
    write_graph6,
)

from test_canon import _permuted, _random_cubic_girth5


def _analyse(g):
    """Every analysis of g that reads its layers; an audit where it applies."""
    gr = girth(g)
    paths = girth_profile(g, "paths")
    regular = len({r.bit_count() for r in g.rows}) == 1
    fast = girth_profile(g, "girth5") if gr == 5 and regular else None
    rep = classify(g, fast or paths)
    if rep.k is not None:
        check_bounds(g, rep, fast or paths)
    canonical_graph6(g)
    if rep.is_vgr and gr == 5:
        audit_graph(g)
        audit_graph(g, lam=rep.lambda_vertex + 1)
    return rep


def _count_passes(monkeypatch):
    calls = []
    bfs_layers = core.bfs_layers

    def counted(nbrs):
        calls.append(len(nbrs))
        return bfs_layers(nbrs)

    monkeypatch.setattr(core, "bfs_layers", counted)
    return calls


def test_one_layer_pass_per_analysed_graph(monkeypatch):
    rng = random.Random(20)
    graphs = [dodecahedron_graph(), petersen_graph(), heawood_graph(),
              _random_cubic_girth5(rng, 40), _random_cubic_girth5(rng, 52)]
    calls = _count_passes(monkeypatch)
    audited = 0
    for g in graphs:
        h = parse_graph6(write_graph6(g))
        assert calls == []
        rep = _analyse(h)
        audited += rep.is_vgr and rep.girth == 5
        # an unaudited graph's profiles, and the girth and canonical form
        # of every graph, are read off the one pass
        assert calls == [h.n]
        calls.clear()
    assert audited == 2


def test_equal_instances_share_no_layers():
    g1, g2 = dodecahedron_graph(), dodecahedron_graph()
    assert g1 == g2 and g1 is not g2
    _analyse(g1)
    assert "layers" not in vars(g2)
    assert g2.layers is not g1.layers
    # each instance reads its own girth
    g1.layers.girth = 7
    assert girth(g1) == 7
    assert girth(g2) == 5
    assert girth(dodecahedron_graph()) == 5


def test_analysed_graph_copies_without_its_layers():
    g = dodecahedron_graph()
    _analyse(g)
    assert "layers" in vars(g)
    for h in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g), copy.copy(g)):
        assert h == g and h is not g
        assert vars(h) == {"n": g.n, "rows": g.rows}
        assert girth(h) == 5


@pytest.mark.parametrize("lam", [None, 4])
def test_audit_workers_match_on_analysed_instance(lam):
    g = _permuted(dodecahedron_graph(), random.Random(3).sample(range(20), 20))
    # girth and classification grow the pass to depth 2 of 5, so the
    # workers receive an instance whose pass is part-grown
    classify(g)
    seq = audit_graph(g, lam=lam)
    assert seq.all_passed is (lam is None)
    assert seq == audit_graph(g, lam=lam, workers=2)
