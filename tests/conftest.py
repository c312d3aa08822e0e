"""Fixtures shared across the test modules."""
from functools import cache

import pytest

from girthlab import canonical_graph6
from girthlab.core import Graph

from naive_oracles import naive_labeled_regular_graphs


@pytest.fixture(scope="session")
def oracle_forms():
    """``forms(n, k, min_girth)``: the canonical forms of every labelled
    graph that `naive_labeled_regular_graphs` enumerates, built once per
    session for each argument triple.  The cubic girth-5 set up to n = 10
    canonises about 30,000 labellings of the Petersen graph, and more than
    one test compares against it."""

    @cache
    def forms(n: int, k: int, min_girth: int) -> frozenset[str]:
        return frozenset(
            canonical_graph6(Graph(n, tuple(sum(1 << w for w in adj[v]) for v in range(n))))
            for adj in naive_labeled_regular_graphs(n, k, min_girth))

    return forms
