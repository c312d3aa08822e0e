"""Immutable simple graphs over bit-vector adjacency rows, plus the named
graphs used throughout the test corpus.

Vertices are the integers 0..n-1; there are no labels.  Adjacency is stored
as one Python int per vertex (bit j of ``rows[i]`` set iff ij is an edge),
so neighbourhood intersections and shell computations are single int ops.
One kernel serves each job on rows: `ball` is the one bounded
breadth-first search (the search's girth pruning and forced-edge closure,
and `is_connected`), and `edges_between` the one count of edges between
two vertex sets (the audit's shells and branch sets).

The breadth-first layers of every vertex come from one all-sources pass,
`bfs_layers`.  A `Graph` that an analysis receives keeps that pass in
``g.layers``, a `Layers` object built on first use and grown one depth at
a time, so the girth, the girth-cycle counts, the canonical distance profiles
and the audit's shells of one graph share a single pass.  The object lives
and dies with its `Graph` instance: equal but distinct instances share no
pass, and copies and pickles carry only ``n`` and ``rows``.  The search
seeds a child state's ``layers`` with neighbour lists shared with its
parent's, which is safe because no reader changes a list.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
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
    """The set bit positions of `mask` in increasing order, as a list."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


@dataclass(frozen=True)
class Graph:
    """A finite simple undirected graph.

    Invariants (enforced by the builder): the adjacency rows are symmetric,
    the diagonal is empty, and ``m`` is half the total popcount.
    """

    n: int
    rows: tuple[int, ...]

    @cached_property
    def layers(self) -> "Layers":
        """This instance's breadth-first layers, built on first use."""
        return Layers([bit_list(r) for r in self.rows])

    def __reduce__(self):
        # `layers` is derived: copies and pickles start without it
        return (Graph, (self.n, self.rows))

    @property
    def m(self) -> int:
        """Number of edges."""
        return sum(r.bit_count() for r in self.rows) // 2

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.rows[i] >> j & 1)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

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

    def __init__(self, n: int):
        cap = max_vertices()
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


def graph_from_edges(n: int, pairs) -> Graph:
    return GraphBuilder(n).add_edges(pairs).freeze()


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


def edges_between(rows: Sequence[int], a: VertexSet, b: VertexSet) -> int:
    """Pairs (x, y) with x in `a`, y in `b` and xy an edge, over adjacency
    rows: the edges from `a` to `b` when the masks are disjoint.  An edge
    with both ends in ``a & b`` is counted twice, once from each end, so
    ``edges_between(rows, a, a)`` is twice the number of edges inside `a`.
    `layer_edge_counts` gives the edges inside every vertex's breadth-first
    layer at once."""
    total = 0
    while a:
        low = a & -a
        total += (rows[low.bit_length() - 1] & b).bit_count()
        a ^= low
    return total


def regularity(g: Graph) -> tuple[bool, int | None]:
    """(is_regular, k).  k is None for the empty graph."""
    if g.n == 0:
        return True, None
    degs = {r.bit_count() for r in g.rows}
    if len(degs) == 1:
        return True, degs.pop()
    return False, None


def ball(rows: Sequence[int], v: int, radius: int) -> VertexSet:
    """The vertices within distance `radius` of v over adjacency rows, by a
    breadth-first search that stops at the first layer that adds nothing."""
    seen = frontier = 1 << v
    for _ in range(radius):
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= rows[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & ~seen
        if not frontier:
            break
        seen |= frontier
    return seen


def is_connected(g: Graph) -> bool:
    """Whether the ball around vertex 0 holds every vertex; the empty graph
    counts as connected."""
    return g.n == 0 or ball(g.rows, 0, g.n) == g.vertex_mask()


# ---------------------------------------------------------------------------
# all-sources breadth-first layers


def bfs_layers(nbrs: Sequence[Sequence[int]]) -> Iterator[list[VertexSet]]:
    """Breadth-first layers from every vertex at once.

    ``nbrs[v]`` lists the neighbours of v.  Yields ``[L_d(v) for v in
    range(n)]`` for d = 0, 1, 2, ..., where ``L_d(v)`` is the set of
    vertices at distance exactly d from v, and stops after the last depth
    at which some layer is nonempty.  A vertex at distance d >= 1 from v is
    at distance d - 1 from a neighbour of v, and every vertex at distance
    d - 1 from a neighbour is within distance d of v, so ``L_d(v)`` is the
    union of the neighbours' ``L_{d-1}`` less the ball ``B_{d-1}(v)``: one
    int OR per (vertex, neighbour) pair and depth.  Once every ball holds
    all n vertices, as it does after the eccentricity of each vertex of a
    connected graph, no later layer can be nonempty, so the pass stops
    without computing the empty one; a graph with a ball that never fills,
    a disconnected one, stops at the first depth at which no layer grows.
    Each yielded list is new; the caller may keep it.
    """
    n = len(nbrs)
    layer = [1 << v for v in range(n)]
    # the complement of B_{d-1}(v) among the n vertices
    unseen = [((1 << n) - 1) ^ bit for bit in layer]
    while True:
        yield layer
        if not any(unseen):
            return
        prev = layer
        layer = []
        grew = 0
        for v in range(n):
            reach = 0
            for u in nbrs[v]:
                reach |= prev[u]
            new = reach & unseen[v]
            unseen[v] ^= new
            grew |= new
            layer.append(new)
        if not grew:
            return


def edge_pairs(nbrs: Sequence[Sequence[int]]) -> list[tuple[int, int]]:
    """Every edge once, as (x, y) with x < y, in lexicographic order, from
    ascending neighbour lists."""
    return [(x, y) for x, ys in enumerate(nbrs) for y in ys if x < y]


class Layers:
    """One `bfs_layers` pass over a graph, grown one depth at a time as its
    readers ask, with what they share: the ascending neighbour lists
    `nbrs`, the edge list `edges` (`edge_pairs`, built on first use, as a
    reader of the lists alone, such as a canonical walk of a non-regular
    graph, never needs it), the layers of each depth reached, the edges
    inside each layer (`inside`), and the girth once `girth.girth` has
    found it.  The lists are read, never changed, so a caller may build
    them from another graph's lists that share most rows.  Growing is not
    locked: one thread at a time may read a `Layers`.
    """

    __slots__ = ("nbrs", "girth", "_edges", "_depths", "_inside", "_pass")

    def __init__(self, nbrs: list[list[int]]):
        self.nbrs = nbrs
        #: 0 until `girth.girth` has run, then the girth, None for a forest
        self.girth: int | None = 0
        self._edges: list[tuple[int, int]] | None = None
        self._depths: list[list[VertexSet]] = []
        self._inside: dict[int, list[int]] = {}
        self._pass: Iterator[list[VertexSet]] | None = bfs_layers(nbrs)

    @property
    def edges(self) -> list[tuple[int, int]]:
        """Every edge once (`edge_pairs`).  Shared, like the layers."""
        if self._edges is None:
            self._edges = edge_pairs(self.nbrs)
        return self._edges

    def layer(self, d: int) -> list[VertexSet] | None:
        """``[L_d(v) for v in range(n)]``, or None past the last depth at
        which some layer is nonempty.  The list is shared: do not change
        it."""
        depths = self._depths
        while len(depths) <= d:
            if self._pass is None:
                return None
            layer = next(self._pass, None)
            if layer is None:
                self._pass = None
                return None
            depths.append(layer)
        return depths[d]

    def inside(self, d: int) -> list[int]:
        """``e(L_d(v))`` for every v (`layer_edge_counts`); d must be a
        depth that `layer` reaches.  Shared, like the layers."""
        counts = self._inside.get(d)
        if counts is None:
            counts = self._inside[d] = layer_edge_counts(self.edges, self.layer(d))
        return counts


def layer_edge_counts(edges: Sequence[tuple[int, int]], layer: Sequence[VertexSet]
                      ) -> list[int]:
    """``e(layer[w])`` for every w: the number of `edges` with both ends
    in ``layer[w]``, for one depth of `bfs_layers`.

    Distance is symmetric, so an edge xy lies inside ``L_d(w)`` exactly
    when w is in ``L_d(x) & L_d(y)``.  One AND per edge gives that set of
    w, which is added into bit-sliced counters (``planes[i]`` holds bit i
    of every w's count), so every count is kept at once.
    """
    planes: list[int] = []
    for x, y in edges:
        carry = layer[x] & layer[y]
        i = 0
        while carry:
            if i == len(planes):
                planes.append(carry)
                break
            plane = planes[i]
            planes[i] = plane ^ carry
            carry &= plane
            i += 1
    counts = [0] * len(layer)
    for i, plane in enumerate(planes):
        weight = 1 << i
        while plane:
            low = plane & -plane
            counts[low.bit_length() - 1] += weight
            plane ^= low
    return counts


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
