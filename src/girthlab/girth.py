"""Girth, shell decompositions, and girth-cycle counts per vertex and per
edge.

Two counting engines are provided: a general depth-first path enumerator
that works for any girth, and a fast shell-based counter valid for regular
graphs of girth 5 (the count of shortest cycles through a vertex equals the
number of edges inside its second neighbourhood).  They must agree wherever
both apply, and the test suite enforces that.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .core import Graph, VertexSet, bits, edges_inside, regularity
from .errors import InternalInconsistency

Edge = tuple[int, int]


@lru_cache(maxsize=8192)
def girth(g: Graph) -> int | None:
    """Length of a shortest cycle, or None for a forest.

    Per-root breadth-first search; a non-tree edge seen at depths (a, b)
    witnesses a closed walk of length a + b + 1 through the root, and the
    minimum over all roots and witnesses is the girth.
    """
    best: int | None = None
    for root in range(g.n):
        depth = [-1] * g.n
        parent = [-1] * g.n
        depth[root] = 0
        queue = [root]
        head = 0
        while head < len(queue):
            v = queue[head]
            head += 1
            if best is not None and 2 * depth[v] >= best:
                break
            for w in bits(g.rows[v]):
                if depth[w] < 0:
                    depth[w] = depth[v] + 1
                    parent[w] = v
                    queue.append(w)
                elif w != parent[v]:
                    cand = depth[v] + depth[w] + 1
                    if best is None or cand < best:
                        best = cand
        if best == 3:
            break
    return best


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
    """Shells by breadth-first distance from u.

    For a k-regular graph of girth at least 5 the second shell must have
    exactly k(k-1) vertices; that is asserted whenever the hypotheses hold.
    """
    if not 0 <= u < g.n:
        raise ValueError(f"vertex {u} outside 0..{g.n - 1}")
    n1 = g.rows[u]
    n2 = 0
    for v in bits(n1):
        n2 |= g.rows[v]
    n2 &= ~n1 & ~(1 << u)
    n3plus = g.vertex_mask() & ~n1 & ~n2 & ~(1 << u)
    shells = ShellDecomposition(u, n1, n2, n3plus)
    is_reg, k = regularity(g)
    if is_reg and k is not None and k >= 2:
        gr = girth(g)
        if gr is not None and gr >= 5 and n2.bit_count() != k * (k - 1):
            raise InternalInconsistency(
                f"second shell of {u} has {n2.bit_count()} vertices, "
                f"expected k(k-1) = {k * (k - 1)}"
            )
    return shells


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
    smaller of that vertex's two cycle-neighbours second.
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
                if rows[v] & anchor_bit and path[1] < v:
                    record(path)
                return
            for w in bits(rows[v] & allowed_all & ~used):
                path.append(w)
                extend(w, used | (1 << w), remaining - 1)
                path.pop()

        extend(anchor, anchor_bit, length - 1)

    total, rem = divmod(sum(per_vertex), length)
    if rem:
        raise InternalInconsistency("vertex counts not divisible by the cycle length")
    return GirthProfile(length, total, tuple(per_vertex), per_edge)


def _profile_girth5_regular(g: Graph) -> GirthProfile:
    """Fast counter for regular graphs of girth 5.

    Through a vertex: the number of edges inside its second shell.  Through
    an edge ab: pairs of a side-neighbour of a and a side-neighbour of b
    joined by a common vertex (unique if any, since the girth is 5).
    """
    n = g.n
    rows = g.rows
    per_vertex = []
    for v in range(n):
        shells = shell_decompose(g, v)
        per_vertex.append(edges_inside(g.rows, shells.n2))
    per_edge: dict[Edge, int] = {}
    for a, b in g.edges():
        abits = ~(1 << a) & ~(1 << b)
        count = 0
        for e in bits(rows[a] & ~(1 << b)):
            row_e = rows[e]
            for c in bits(rows[b] & ~(1 << a)):
                count += (row_e & rows[c] & abits).bit_count()
        per_edge[(a, b)] = count
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
