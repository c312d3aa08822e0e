"""Immutable simple graphs over bit-vector adjacency rows, plus the named
graphs used throughout the test corpus.

Vertices are the integers 0..n-1; there are no labels.  Adjacency is stored
as one Python int per vertex (bit j of ``rows[i]`` set iff ij is an edge),
so neighbourhood intersections and shell computations are single int ops.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Sequence

DEFAULT_MAX_VERTICES = 64
HARD_MAX_VERTICES = 256

#: A set of vertices of some Graph, packed as a bitmask.
VertexSet = int


def max_vertices() -> int:
    """Current vertex cap: GIRTHLAB_MAX_N overrides the default of 64.

    The cap is a validation limit (Python ints are arbitrary precision);
    values above 256 are rejected to keep desk-scale semantics.
    """
    raw = os.environ.get("GIRTHLAB_MAX_N")
    if raw is None:
        return DEFAULT_MAX_VERTICES
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"GIRTHLAB_MAX_N must be an integer, got {raw!r}") from None
    if not 1 <= value <= HARD_MAX_VERTICES:
        raise ValueError(f"GIRTHLAB_MAX_N must be in 1..{HARD_MAX_VERTICES}, got {value}")
    return value


def bits(mask: VertexSet) -> Iterator[int]:
    """Yield the set bit positions of `mask` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bit_list(mask: VertexSet) -> list[int]:
    return list(bits(mask))


@dataclass(frozen=True)
class Graph:
    """A finite simple undirected graph.

    Invariants (enforced by the builder): the adjacency rows are symmetric,
    the diagonal is empty, and ``m`` is half the total popcount.
    """

    n: int
    rows: tuple[int, ...]

    @property
    def m(self) -> int:
        """Number of edges."""
        return sum(r.bit_count() for r in self.rows) // 2

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.rows[i] >> j & 1)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def neighbors(self, v: int) -> VertexSet:
        return self.rows[v]

    def vertex_mask(self) -> VertexSet:
        return (1 << self.n) - 1

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as pairs (i, j) with i < j, in lexicographic order."""
        for i in range(self.n):
            higher = self.rows[i] >> (i + 1)
            for off in bits(higher):
                yield (i, i + 1 + off)


class GraphBuilder:
    """Accumulates edges, then freezes into an immutable Graph."""

    def __init__(self, n: int, cap: int | None = None):
        cap = max_vertices() if cap is None else cap
        if not 0 <= n <= cap:
            raise ValueError(f"vertex count {n} outside 0..{cap}")
        self.n = n
        self._rows = [0] * n

    def add_edge(self, i: int, j: int) -> "GraphBuilder":
        if i == j:
            raise ValueError(f"loop at vertex {i} rejected")
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise ValueError(f"edge ({i},{j}) outside vertex range 0..{self.n - 1}")
        self._rows[i] |= 1 << j
        self._rows[j] |= 1 << i
        return self

    def add_edges(self, pairs) -> "GraphBuilder":
        for i, j in pairs:
            self.add_edge(i, j)
        return self

    def freeze(self) -> Graph:
        return Graph(self.n, tuple(self._rows))


def graph_from_edges(n: int, pairs, cap: int | None = None) -> Graph:
    return GraphBuilder(n, cap=cap).add_edges(pairs).freeze()


def graph_from_rows(rows) -> Graph:
    """Wrap raw adjacency rows; validates symmetry and an empty diagonal."""
    rows = tuple(rows)
    n = len(rows)
    for i, r in enumerate(rows):
        if r >> n:
            raise ValueError(f"row {i} has bits beyond vertex {n - 1}")
        if r >> i & 1:
            raise ValueError(f"loop at vertex {i}")
    for i in range(n):
        for j in bits(rows[i]):
            if not rows[j] >> i & 1:
                raise ValueError(f"asymmetric adjacency at ({i},{j})")
    return Graph(n, rows)


# ---------------------------------------------------------------------------
# basic queries


def degree_sequence(g: Graph) -> tuple[int, ...]:
    """Degrees sorted ascending."""
    return tuple(sorted(r.bit_count() for r in g.rows))


def edges_inside(rows: Sequence[int], mask: VertexSet) -> int:
    """Edges with both endpoints in `mask`, over adjacency rows: the
    girth-5 shell kernel (edges inside a second shell)."""
    return sum((rows[v] & mask).bit_count() for v in bits(mask)) // 2


def regularity(g: Graph) -> tuple[bool, int | None]:
    """(is_regular, k).  k is None for the empty graph."""
    if g.n == 0:
        return True, None
    degs = {r.bit_count() for r in g.rows}
    if len(degs) == 1:
        return True, degs.pop()
    return False, None


def is_connected(g: Graph) -> bool:
    """Breadth-first reachability from vertex 0; the empty graph counts as
    connected."""
    if g.n == 0:
        return True
    seen = 1
    frontier = 1
    while frontier:
        nxt = 0
        for v in bits(frontier):
            nxt |= g.rows[v]
        frontier = nxt & ~seen
        seen |= frontier
    return seen == g.vertex_mask()


# ---------------------------------------------------------------------------
# named graphs


def cycle_graph(length: int) -> Graph:
    if length < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {length}")
    return graph_from_edges(length, [(i, (i + 1) % length) for i in range(length)])


def path_graph(length: int) -> Graph:
    """Path on `length` vertices (length - 1 edges)."""
    if length < 1:
        raise ValueError(f"path needs at least 1 vertex, got {length}")
    return graph_from_edges(length, [(i, i + 1) for i in range(length - 1)])


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError(f"complete graph needs at least 1 vertex, got {n}")
    return graph_from_edges(n, combinations(range(n), 2))


def complete_bipartite_graph(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise ValueError(f"both sides must be nonempty, got ({a},{b})")
    return graph_from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def petersen_graph() -> Graph:
    """Vertices are the 2-subsets of a 5-set, adjacent iff disjoint."""
    pairs = list(combinations(range(5), 2))
    index = {p: i for i, p in enumerate(pairs)}
    edges = [
        (index[p], index[q])
        for p, q in combinations(pairs, 2)
        if not set(p) & set(q)
    ]
    return graph_from_edges(10, edges)


def dodecahedron_graph() -> Graph:
    """Skeleton of the regular dodecahedron: outer 10-cycle 0..9, spokes
    i -- 10+i, and inner vertices 10+i -- 10+((i+2) mod 10)."""
    edges = [(i, (i + 1) % 10) for i in range(10)]
    edges += [(i, 10 + i) for i in range(10)]
    edges += [(10 + i, 10 + (i + 2) % 10) for i in range(10)]
    return graph_from_edges(20, edges)


def heawood_graph() -> Graph:
    """Point/line incidence graph of the 7-point projective plane; lines are
    the triples {i, i+1, i+3} mod 7.  Vertices 0..6 points, 7..13 lines."""
    edges = []
    for i in range(7):
        for off in (0, 1, 3):
            edges.append(((i + off) % 7, 7 + i))
    return graph_from_edges(14, edges)


_PARAMETRIC = {
    "cycle": (cycle_graph, 1),
    "path": (path_graph, 1),
    "complete": (complete_graph, 1),
    "complete_bipartite": (complete_bipartite_graph, 2),
}

_FIXED = {
    "petersen": petersen_graph,
    "dodecahedron": dodecahedron_graph,
    "heawood": heawood_graph,
}


def named_graph(spec: str) -> Graph:
    """Build a graph from a textual id such as ``petersen``, ``cycle(5)``
    or ``complete_bipartite(3,3)``."""
    spec = spec.strip()
    if spec in _FIXED:
        return _FIXED[spec]()
    if "(" in spec and spec.endswith(")"):
        name, _, arg_text = spec[:-1].partition("(")
        name = name.strip()
        if name in _PARAMETRIC:
            fn, arity = _PARAMETRIC[name]
            try:
                args = [int(a) for a in arg_text.split(",")]
            except ValueError:
                raise ValueError(f"bad parameters in graph id {spec!r}") from None
            if len(args) != arity:
                raise ValueError(f"{name} takes {arity} parameter(s), got {len(args)}")
            return fn(*args)
    known = sorted(_FIXED) + [f"{k}(...)" for k in sorted(_PARAMETRIC)]
    raise ValueError(f"unknown graph id {spec!r}; known: {', '.join(known)}")
