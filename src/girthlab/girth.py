"""Girth, shell decompositions, and girth-cycle counts per vertex and per
edge.

The girth, the shells and the fast counter read the breadth-first layers
of a `Graph` off ``g.layers`` (`core.Layers`), the one all-sources
`core.bfs_layers` pass that the graph keeps for every analysis of it: the
girth grows that pass only as deep as the girth needs, the girth-5 counter
and the shells read its second layers, and the girth itself is kept there
once found.  Two counting engines are provided: a general depth-first path
enumerator that works for any girth, and a fast layer-based counter valid
for regular graphs of girth 5 (the count of shortest cycles through a
vertex equals the number of edges inside its second layer).  They must
agree wherever both apply, and the test suite enforces that.  The path
enumerator reads nothing off the layers, so that it stays an independent
check on them.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .core import Graph, Layers, VertexSet, bits, regularity
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


def shell_decompose(g: Graph, u: int, second_shell: int | None = None) -> ShellDecomposition:
    """Shells by breadth-first distance from u; the second is ``L_2(u)`` of
    ``g.layers``.

    For a k-regular graph of girth at least 5 the second shell must have
    exactly k(k-1) vertices; that is asserted whenever the hypotheses hold.
    A caller that has already established them passes `second_shell` =
    k(k-1), so the per-root path does not recompute the regularity and
    girth of g; otherwise they are worked out here.
    """
    if not 0 <= u < g.n:
        raise ValueError(f"vertex {u} outside 0..{g.n - 1}")
    n1 = g.rows[u]
    second = g.layers.layer(2)
    n2 = second[u] if second is not None else 0
    n3plus = g.vertex_mask() & ~n1 & ~n2 & ~(1 << u)
    if second_shell is None:
        second_shell = second_shell_size(g)
    if second_shell is not None and n2.bit_count() != second_shell:
        raise InternalInconsistency(
            f"second shell of {u} has {n2.bit_count()} vertices, "
            f"expected k(k-1) = {second_shell}"
        )
    return ShellDecomposition(u, n1, n2, n3plus)


def second_shell_size(g: Graph) -> int | None:
    """k(k-1) when g is k-regular (k >= 2) with girth at least 5, the size
    of every second shell; None when those hypotheses fail."""
    is_reg, k = regularity(g)
    if is_reg and k is not None and k >= 2:
        gr = girth(g)
        if gr is not None and gr >= 5:
            return k * (k - 1)
    return None


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


def _profile_girth5_regular(g: Graph) -> GirthProfile:
    """Fast counter for regular graphs of girth 5, from the second layers
    ``L_2(v)`` of ``g.layers``.

    At girth 5 the ball of radius 2 around v is a tree, so an edge inside
    ``L_2(v)`` closes exactly one 5-cycle through v, and every 5-cycle
    through v has its edge opposite v there: the count through v is
    ``e(L_2(v))`` (`layer_edge_counts`).  Dually, the count through an edge
    xy is the number of vertices opposite it on a 5-cycle, the vertices of
    ``L_2(x) & L_2(y)``.  Every second layer must have k(k-1) vertices;
    another size raises InternalInconsistency.
    """
    layers = g.layers
    second = layers.layer(2)
    k = len(layers.nbrs[0])
    for v, layer in enumerate(second or [0] * g.n):
        if layer.bit_count() != k * (k - 1):
            raise InternalInconsistency(
                f"second shell of {v} has {layer.bit_count()} vertices, "
                f"expected k(k-1) = {k * (k - 1)}"
            )
    edges = layers.edges
    per_vertex = layers.inside(2)
    per_edge = {(x, y): (second[x] & second[y]).bit_count() for x, y in edges}
    total, rem = divmod(sum(per_vertex), 5)
    if rem:
        raise InternalInconsistency("vertex counts not divisible by 5")
    return GirthProfile(5, total, tuple(per_vertex), per_edge)


def girth_profile(g: Graph, engine: str = "auto") -> GirthProfile:
    """Full girth-cycle profile of `g`.

    engine: "paths" forces the general enumerator, "girth5" the fast
    regular-girth-5 counter, "auto" picks the fast one when it applies.
    Raises ValueError on acyclic input.
    """
    gr = girth(g)
    if gr is None:
        raise ValueError("girth profile undefined for an acyclic graph")
    if engine == "auto":
        is_reg, _ = regularity(g)
        engine = "girth5" if (gr == 5 and is_reg) else "paths"
    if engine == "girth5":
        is_reg, _ = regularity(g)
        if gr != 5 or not is_reg:
            raise ValueError("the girth-5 fast engine needs a regular graph of girth 5")
        profile = _profile_girth5_regular(g)
    elif engine == "paths":
        profile = _profile_by_paths(g, gr)
    else:
        raise ValueError(f"unknown engine {engine!r}")
    profile.validate()
    return profile


def signature(g: Graph, v: int, profile: GirthProfile) -> tuple[int, ...]:
    """Sorted tuple of per-edge girth-cycle counts over the edges at v."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} outside 0..{g.n - 1}")
    sig = tuple(sorted(
        profile.per_edge[(v, w) if v < w else (w, v)] for w in bits(g.rows[v])
    ))
    if sum(sig) != 2 * profile.per_vertex[v]:
        raise InternalInconsistency(
            f"signature of {v} sums to {sum(sig)}, expected {2 * profile.per_vertex[v]}"
        )
    return sig
