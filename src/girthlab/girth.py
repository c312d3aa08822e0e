"""Girth, shell decompositions, and girth-cycle counts per vertex and per
edge.

The girth, the shells and the counter read the breadth-first layers of a
`Graph` off ``g.layers`` (`core.Layers`), the one all-sources
`core.bfs_layers` pass that the graph keeps for every analysis of it, grown
only as deep as its readers need; the girth is kept there once found.
Below the girth the balls are trees, and the shells and the counter check
their deepest tree layers against a tree's (`_check_tree_layer`), a
per-root sum of degrees that needs no regularity.  One counter reads the
girth cycles through every vertex and edge at any girth off the layers
(`_profile_by_layers`); a path enumerator that reads no layer is kept as
the reference it is checked against.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

from .core import Graph, Layers, VertexSet, bits, edges_between, regularity
from .errors import InternalInconsistency

Edge = tuple[int, int]


def girth(g: Graph) -> int | None:
    """Length of a shortest cycle, or None for a forest.

    Read off ``g.layers``, where it is kept once found.  The pass is tested
    at each depth d >= 1 first for a cycle of length 2d, then for one of
    length 2d + 1, and grown no deeper than the depth at which one fires.
    Each test is reached only when the earlier ones found no shorter
    cycle, and fires exactly when the girth is its length; a pass in which
    no layer grows leaves a forest.

    Odd test: some edge xy has a vertex w in ``L_d(x) & L_d(y)``.  The two
    d-walks from w and the edge close an odd walk of length 2d + 1, which
    contains an odd cycle no longer; and on a shortest cycle of length
    2d + 1 the vertex opposite an edge is at distance d from both its ends.

    Even test, reached with no cycle shorter than 2d: then each vertex z of
    ``L_{d-1}(w)`` has one neighbour in ``L_{d-2}(w)`` and none in
    ``L_{d-1}(w)``, so deg(z) - 1 edges lead from z into ``L_d(w)``, and
    every vertex of ``L_d(w)`` receives at least one of them.  A vertex x
    of ``L_d(w)`` receives two exactly when x has two neighbours y with w
    in ``L_{d-1}(y)``: two geodesics from w to x, which close a cycle of
    length at most 2d; and on a shortest cycle of length 2d the vertex
    opposite w is such an x.  So the girth is 2d when, summed over all w,
    ``|L_d(w)|`` falls short of the edges leading into it, which by
    symmetry of distance is the sum over z of (deg(z) - 1) ``|L_{d-1}(z)|``.
    """
    layers = g.layers
    if layers.girth == 0:
        layers.girth = _girth_of(layers)
    return layers.girth


def _girth_of(layers: Layers) -> int | None:
    edges = layers.edges
    degree = [len(ys) for ys in layers.nbrs]
    stubs = None  # edges leading out of the previous layers, from d = 2 on
    d = 1
    while (layer := layers.layer(d)) is not None:
        sizes = [mask.bit_count() for mask in layer]
        if stubs is not None and sum(sizes) < stubs:
            return 2 * d
        for x, y in edges:
            if layer[x] & layer[y]:
                return 2 * d + 1
        stubs = sum((k - 1) * size for k, size in zip(degree, sizes))
        d += 1
    return None


@dataclass(frozen=True)
class ShellDecomposition:
    """Partition of V minus the root into the first and second
    breadth-first shells and everything beyond."""

    root: int
    n1: VertexSet
    n2: VertexSet
    n3plus: VertexSet

    def sizes(self) -> tuple[int, int, int]:
        return (self.n1.bit_count(), self.n2.bit_count(), self.n3plus.bit_count())


def shell_decompose(g: Graph, u: int) -> ShellDecomposition:
    """Shells by breadth-first distance from u; the second is ``L_2(u)`` of
    ``g.layers``.

    Without a cycle shorter than 5 the ball of radius 2 around u is a tree,
    so the second shell is checked against the tree's (`_check_tree_layer`)
    on every call on a graph of girth at least 5 or a forest, regular or
    not.  It reads the degrees of u's neighbours and the girth, which
    ``g.layers`` keeps once found, so a root costs O(deg u) beyond the
    layer pass.
    """
    if not 0 <= u < g.n:
        raise ValueError(f"vertex {u} outside 0..{g.n - 1}")
    layers = g.layers
    n1 = g.rows[u]
    second = layers.layer(2)
    n2 = second[u] if second is not None else 0
    n3plus = g.vertex_mask() & ~n1 & ~n2 & ~(1 << u)
    gr = girth(g)
    if gr is None or gr >= 5:
        _check_tree_layer(g, 2, (u,))
    return ShellDecomposition(u, n1, n2, n3plus)


def _check_tree_layer(g: Graph, r: int, roots: Sequence[int]) -> None:
    """Check ``L_r(v)``, r >= 2, of each root v against a tree's: while the
    ball of radius r around v is a tree (girth 2r + 1 or more), each w of
    ``L_{r-1}(v)`` has one edge back and deg(w) - 1 out to ``L_r(v)``, each
    to a vertex of its own.  Another size raises InternalInconsistency."""
    layers = g.layers
    inner, outer = layers.layer(r - 1), layers.layer(r)
    for v in roots:
        ends = inner[v] if inner else 0
        tree = edges_between(g.rows, ends, g.vertex_mask()) - ends.bit_count()
        size = outer[v].bit_count() if outer else 0
        if size != tree:
            raise InternalInconsistency(
                f"layer {r} of {v} has {size} vertices, expected {tree}, the sum "
                f"of deg(w) - 1 over its layer {r - 1}"
            )


@dataclass
class GirthProfile:
    """Counts of shortest cycles: in total, through each vertex, and
    through each edge (keyed by (i, j) with i < j)."""

    girth: int
    total_girth_cycles: int
    per_vertex: tuple[int, ...]
    per_edge: dict[Edge, int] = field(default_factory=dict)

    def validate(self) -> None:
        g = self.girth
        total = self.total_girth_cycles
        if sum(self.per_vertex) != g * total:
            raise InternalInconsistency(
                f"vertex counts sum to {sum(self.per_vertex)}, expected {g * total}"
            )
        if sum(self.per_edge.values()) != g * total:
            raise InternalInconsistency(
                f"edge counts sum to {sum(self.per_edge.values())}, expected {g * total}"
            )
        incident = [0] * len(self.per_vertex)
        for (i, j), c in self.per_edge.items():
            incident[i] += c
            incident[j] += c
        for v, lam in enumerate(self.per_vertex):
            if incident[v] != 2 * lam:
                raise InternalInconsistency(
                    f"edge counts at vertex {v} sum to {incident[v]}, expected {2 * lam}"
                )


def _profile_by_paths(g: Graph, length: int) -> GirthProfile:
    """Count cycles of exactly `length` by anchored path enumeration.

    Each cycle is counted once: its minimal vertex comes first and the
    smaller of that vertex's two cycle-neighbours second.  The last vertex
    is drawn from the anchor's neighbours, so every path recursed into
    closes.  Only the adjacency rows are read, never ``g.layers``: the
    enumerator is the reference that the layer counts are checked against.
    """
    n = g.n
    per_vertex = [0] * n
    per_edge: dict[Edge, int] = {e: 0 for e in g.edges()}

    def record(path: list[int]) -> None:
        for v in path:
            per_vertex[v] += 1
        prev = path[-1]
        for v in path:
            e = (prev, v) if prev < v else (v, prev)
            per_edge[e] += 1
            prev = v

    rows = g.rows
    for anchor in range(n):
        allowed_all = (~((1 << (anchor + 1)) - 1)) & g.vertex_mask()
        anchor_bit = 1 << anchor
        path = [anchor]

        def extend(v: int, used: int, remaining: int) -> None:
            if remaining == 0:
                if path[1] < v:
                    record(path)
                return
            allowed = allowed_all & ~used
            if remaining == 1:
                allowed &= rows[anchor]
            for w in bits(rows[v] & allowed):
                path.append(w)
                extend(w, used | (1 << w), remaining - 1)
                path.pop()

        extend(anchor, anchor_bit, length - 1)

    total, rem = divmod(sum(per_vertex), length)
    if rem:
        raise InternalInconsistency("vertex counts not divisible by the cycle length")
    return GirthProfile(length, total, tuple(per_vertex), per_edge)


def _profile_by_layers(g: Graph, gr: int) -> GirthProfile:
    """Girth-cycle counts at girth `gr` off ``g.layers``, regular or not.

    Odd girth 2d + 1: the balls of radius d are trees, so each edge inside
    ``L_d(v)`` closes one girth cycle through v, and each one through v has
    its edge opposite v there: v lies on ``e(L_d(v))``, and an edge xy on
    one per vertex opposite it, in ``L_d(x) & L_d(y)``.  Even girth 2d: the
    balls of radius d - 1 are trees, so the girth cycles through xy match
    the edges ab opposite it, a in ``L_{d-1}(x) & L_d(y)`` and b in
    ``L_{d-1}(y) & L_d(x)``, and a vertex lies on half the sum over its
    edges.  The deepest tree layer is checked where it is two or more deep
    (`_check_tree_layer`); `validate` checks the sums.
    """
    layers = g.layers
    d, odd = divmod(gr, 2)
    r = d if odd else d - 1
    if r >= 2:
        _check_tree_layer(g, r, range(g.n))
    edges = layers.edges
    deep = layers.layer(d)
    if odd:
        per_vertex = layers.inside(d)
        per_edge = {(x, y): (deep[x] & deep[y]).bit_count() for x, y in edges}
    else:
        near, rows = layers.layer(d - 1), g.rows
        per_edge = {(x, y): edges_between(rows, near[x] & deep[y], near[y] & deep[x])
                    for x, y in edges}
        per_vertex = [sum(per_edge[min(v, w), max(v, w)] for w in ws) // 2
                      for v, ws in enumerate(layers.nbrs)]
    return GirthProfile(gr, sum(per_vertex) // gr, tuple(per_vertex), per_edge)


def girth_profile(g: Graph, engine: str = "auto") -> GirthProfile:
    """Full girth-cycle profile of `g`.

    engine: "auto" runs the layer counter, "girth5" the same counter on a
    regular graph of girth 5 only, and "paths" the reference path
    enumerator.  Raises ValueError on acyclic input.
    """
    gr = girth(g)
    if gr is None:
        raise ValueError("girth profile undefined for an acyclic graph")
    if engine == "girth5" and (gr != 5 or not regularity(g)[0]):
        raise ValueError("the girth-5 fast engine needs a regular graph of girth 5")
    if engine in ("auto", "girth5"):
        profile = _profile_by_layers(g, gr)
    elif engine == "paths":
        profile = _profile_by_paths(g, gr)
    else:
        raise ValueError(f"unknown engine {engine!r}")
    profile.validate()
    return profile


def signatures(g: Graph, profile: GirthProfile) -> list[tuple[int, ...]]:
    """Each vertex's sorted tuple of per-edge girth-cycle counts over its
    edges, read off ``profile.per_edge`` in one pass over the edges, with
    the check that each sums to twice the vertex's count."""
    incident: list[list[int]] = [[] for _ in range(g.n)]
    per_edge = profile.per_edge
    for edge in g.layers.edges:
        c = per_edge[edge]
        incident[edge[0]].append(c)
        incident[edge[1]].append(c)
    sigs = []
    for v, counts in enumerate(incident):
        sig = tuple(sorted(counts))
        if sum(sig) != 2 * profile.per_vertex[v]:
            raise InternalInconsistency(
                f"signature of {v} sums to {sum(sig)}, expected {2 * profile.per_vertex[v]}"
            )
        sigs.append(sig)
    return sigs
