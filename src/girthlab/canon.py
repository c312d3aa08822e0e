"""Canonical labelling by equitable-partition refinement with backtracking
over cells.

The certificate is the lexicographically minimal adjacency bitstring over
all labellings consistent with the refinement tree; equal certificates
characterise isomorphic graphs because the certificate reconstructs the
graph.  There is one canonical form: no vertex colours are taken, so the
search's classes, memo keys and `are_isomorphic` all compare the same
strings.

The tree starts from the degree partition, cells in ascending degree,
unless every vertex has the same degree.  Refinement cannot split the one
cell of a regular graph, so the tree would branch over all n vertices of a
rigid one.  A regular graph starts instead from its cells of equal
distance profile, in ascending profile order: the profile of v is the
sequence, over its BFS layers ``L_0 = {v}``, ``L_1``, ..., of the layer
size and the number of edges inside the layer.  All n profiles are read
off one all-sources layer pass, a `core.Layers` (`_distance_profiles`):
`canonical_graph6` passes the graph's own ``g.layers``, so the layers and
edge counts that the girth and the girth-5 counter already grew are read
again rather than recomputed, while a search state, a bare tuple of rows,
gets a pass of its own.  An isomorphism maps BFS layers onto BFS
layers, so the profile is an isomorphism invariant, as the degree is.  A
random cubic graph of girth 5 on 40 to 64 vertices then labels about one
leaf instead of n; a vertex-transitive graph has one profile, so its tree
and form are those of the degree cell.  Profiles are tuples, so no two
distinct ones collide.

Two leaves with equal certificates give an automorphism, the map from the
first leaf's order to the second's.  A dict from certificate to the order
of the first leaf that gave it records one for every repeated certificate,
until `_MAX_STORED_AUTS` are stored; the least certificate is read off the
dict at the end.  A repeated certificate also ends the subtree it was met
in, as in nauty (McKay, "Practical graph isomorphism", Congr. Numer. 30,
1981): the walk returns to the depth at which the leaf's individualisation
path diverges from that of the certificate's first leaf, and the node there
counts its current child as tried.  A leaf's order fixes its path: a vertex
individualised at some level stays a singleton at the position where its
cell began, since refinement only splits cells in place.  Both paths pass
through the same nodes down to the divergence depth, so the automorphism
γ: first[p] -> order[p] fixes their common prefix, and maps the child the
first leaf descended through, an earlier sibling whose subtree is
finished, onto the current child, whose certificates have therefore all
been met.  A symmetric cage such as Hoffman–Singleton then labels a
handful of leaves in any labelling, where the walk without the backjump
labelled thousands.  Discovered automorphisms prune branches that fix the
current individualisation prefix.  So do twins: open twins, non-adjacent
vertices with equal rows, and closed twins, adjacent vertices with equal
closed neighbourhoods ``rows[v] | 1 << v``.  Two twins of either kind in
one cell are swapped by an automorphism that fixes every other vertex, so
a candidate that is a twin of a candidate already tried or reached is
skipped; `_twin_keys` gives twins, and only twins, equal keys.  Twins
share a distance profile, being swapped by an automorphism, so they share
a starting cell and the rule still applies.  Whether any twins exist is
decided once per call, so twin-free graphs (every regular graph of girth
at least 5) pay nothing for it.  The fresh vertices of a partial search
state are open twins, and the universal vertices of a dense graph are
closed twins, so K_n labels one leaf.

The certificates met by one walk are an isomorphism invariant, which makes
a single leaf an exact isomorphism test (McKay, "Isomorph-free exhaustive
generation", J. Algorithms 26, 1998).  The starting cells, refinement, the
choice of the target cell and individualisation commute with relabelling,
so isomorphic graphs have the same unpruned tree up to relabelling, and
the same set of leaf certificates.  Orbit and twin pruning and the
backjump skip only subtrees that an automorphism maps onto a kept one,
whose certificates a kept leaf repeats, so the walk meets that whole set,
and the first leaf of each certificate is its first in depth-first order
of the whole tree.  A certificate rebuilds its graph, so two graphs of one
order that share a single leaf certificate are isomorphic.  `_walk` is the
one tree walk: `canonize` takes the least certificate it meets, and the
search passes the certificates of the states it expanded as `known`, so
that a duplicate state stops at its first leaf.

Refinement splits every cell by each vertex's neighbour counts into the
other cells, ordering the fragments by their count vectors, until no cell
splits.  It counts only against splitters: cells whose counts may still
differ inside some cell (McKay & Piperno, "Practical graph isomorphism,
II", J. Symbolic Comput. 60, 2014).  A cell that did not split in the last
pass is no splitter, and neither is the last fragment of a cell that did:
within any cell its counts equal the constant count against the old cell
minus the counts against the earlier fragments.  Neither kind of cell can
therefore separate two vertices that the splitters before it in cell order
do not, so the partition, its cell order and the certificate are the same
as from counting against every cell.

A leaf's certificate is `formats.pack_payload` of its order, the graph6
payload of the relabelled graph, so the canonical graph6 line is read
straight off the least certificate; `formats` owns that layout.
"""
from __future__ import annotations

from collections import Counter
from typing import Container, Sequence

from .core import Graph, Layers, bit_list, bits, graph_from_rows
from .formats import graph6_line, pack_payload


def _refine(nbrs: Sequence[Sequence[int]], cells: list[list[int]],
            fresh: list[int]) -> list[list[int]]:
    """Equitable refinement of `cells`, counting only into the splitter
    cells `fresh` (ascending cell indices).

    Each pass keys every vertex of a non-singleton cell on its numbers of
    neighbours in the `fresh` cells, taken in cell order, and splits the
    cell into buckets in ascending key order.  The fragments of a split
    cell, except the last, are the splitters of the next pass; refinement
    stops once a pass splits nothing.  The caller guarantees that inside
    every cell the count into a cell outside `fresh` is fixed by the counts
    into the `fresh` cells before it.  That holds with every cell fresh,
    and with ``fresh = [i]`` when ``cells[i]`` is one vertex just split off
    the front of a cell of an equitable partition.  The result is then the
    partition, in the same cell order, that counting into every cell on
    every pass gives; that order is invariant under isomorphism.
    """
    shift = len(nbrs).bit_length()
    while fresh:
        # one int per vertex: its counts into the fresh cells, first cell
        # most significant, so int order is the lexicographic vector order
        keys = [0] * len(nbrs)
        weight = 1 << shift * len(fresh)
        for f in fresh:
            weight >>= shift
            for u in cells[f]:
                for w in nbrs[u]:
                    keys[w] += weight
        new_cells: list[list[int]] = []
        fresh = []
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            buckets: dict[int, list[int]] = {}
            for v in cell:
                buckets.setdefault(keys[v], []).append(v)
            if len(buckets) == 1:
                new_cells.append(cell)
                continue
            for key in sorted(buckets):
                fresh.append(len(new_cells))
                new_cells.append(buckets[key])
            fresh.pop()
        cells = new_cells
    return cells


_MAX_STORED_AUTS = 256


def _distance_profiles(layers: Layers) -> list[tuple[int, ...]]:
    """The distance profile of every vertex v, ``(|L_0|, e_0, |L_1|, e_1,
    ...)`` over its nonempty BFS layers ``L_0 = {v}``, ``L_1``, ..., where
    ``e_d`` counts the edges inside ``L_d``: the whole pass of `layers`,
    with `Layers.inside` at each depth."""
    profiles = [[1, 0] for _ in layers.nbrs]
    d = 1
    while (layer := layers.layer(d)) is not None:
        for profile, mask, e in zip(profiles, layer, layers.inside(d)):
            if mask:
                profile += (mask.bit_count(), e)
        d += 1
    return [tuple(p) for p in profiles]


def _twin_keys(rows: Sequence[int]) -> Sequence[int]:
    """One int per vertex, equal exactly for twins: the closed row
    ``rows[v] | 1 << v`` of a vertex that has a closed twin, and the row of
    any other.  Open twins are non-adjacent with equal rows; closed twins
    are adjacent with equal closed rows.  No vertex v has twins of both
    kinds: an open twin u of v would neighbour each closed twin w of v, so
    lie in the closed row of w, which is v's, and neighbour v.  No row
    equals the closed row of another vertex either, so the keys of two
    vertices that are not twins differ."""
    closed = [r | 1 << v for v, r in enumerate(rows)]
    if len(set(closed)) == len(rows):
        return rows
    counts = Counter(closed)
    return [c if counts[c] > 1 else r for r, c in zip(rows, closed)]


def _walk(rows: Sequence[int], known: Container[int] = frozenset(),
          layers: Layers | None = None
          ) -> tuple[dict[int, tuple[int, ...]] | None, int]:
    """Walk the refinement tree of the graph with adjacency `rows`, whose
    layer pass is `layers` when the caller has one.

    Returns (leaves, visited): `leaves` maps every leaf certificate met to
    the order of the first leaf that gave it, and `visited` counts the
    leaves labelled.  When the first leaf's certificate is in `known`, the
    walk stops there and `leaves` is None.  ``order[p]`` is the original
    vertex placed at position p.  Vertices start partitioned by degree, or,
    when that gives one cell, by distance profile; both are isomorphism
    invariants, sorted by value, so the starting cells and their order
    commute with relabelling.
    """
    n = len(rows)
    nbrs = [bit_list(r) for r in rows] if layers is None else layers.nbrs
    groups: dict = {}
    for v in range(n):
        groups.setdefault(len(nbrs[v]), []).append(v)
    if len(groups) == 1:
        # regular: refinement cannot split the one degree cell
        groups = {}
        if layers is None:
            layers = Layers(nbrs)
        for v, profile in enumerate(_distance_profiles(layers)):
            groups.setdefault(profile, []).append(v)
    cells = [groups[key] for key in sorted(groups)]
    twin = _twin_keys(rows)
    # decided once per call: twin-free graphs skip the twin check below
    twins = len(set(twin)) < n

    leaves: dict[int, tuple[int, ...]] = {}
    paths: dict[int, tuple[int, ...]] = {}
    auts: list[tuple[int, ...]] = []
    visited = 0

    def descend(cells: list[list[int]], prefix: tuple[int, ...],
                fresh: list[int]) -> int:
        """Walk one subtree.  Returns the depth at which the walk goes on:
        ``len(prefix)`` when the subtree is done, less on a backjump, and
        -1 when the first leaf is known."""
        nonlocal visited
        depth = len(prefix)
        cells = _refine(nbrs, cells, fresh)
        target = None
        for idx, cell in enumerate(cells):
            if len(cell) > 1 and (target is None or len(cell) < len(cells[target])):
                target = idx
        if target is None:
            order = tuple(c[0] for c in cells)
            cert = pack_payload(nbrs, order)
            visited += 1
            if not leaves and cert in known:
                return -1
            first = leaves.setdefault(cert, order)
            if first == order:
                paths[cert] = prefix
                return depth
            if len(auts) < _MAX_STORED_AUTS:
                # equal certificates: first[p] -> order[p] is an automorphism
                gamma = [0] * n
                for p in range(n):
                    gamma[first[p]] = order[p]
                gamma = tuple(gamma)
                if gamma not in auts:
                    auts.append(gamma)
            # back to where the two paths diverge: gamma fixes the common
            # prefix and maps the first leaf's finished sibling subtree there
            # onto the current one
            back = 0
            for a, b in zip(paths[cert], prefix):
                if a != b:
                    break
                back += 1
            return back
        cell = cells[target]
        tried: list[int] = []
        reached: set[int] = set()
        reached_twins: set[int] = set()
        for v in cell:
            # Orbit pruning: v equivalent to an already-tried candidate
            # under automorphisms that fix the individualisation prefix;
            # a twin of such a candidate is one too.
            if v in reached or twins and twin[v] in reached_twins:
                continue
            child = (
                cells[:target]
                + [[v], [w for w in cell if w != v]]
                + cells[target + 1:]
            )
            # `cells` is equitable, so only the new singleton [v] can split
            back = descend(child, prefix + (v,), [target])
            if back < depth:
                return back
            tried.append(v)
            fixers = [gamma for gamma in auts if all(gamma[x] == x for x in prefix)]
            reached = set(tried)
            grew = True
            while grew:
                grew = False
                for gamma in fixers:
                    for u in list(reached):
                        if gamma[u] not in reached:
                            reached.add(gamma[u])
                            grew = True
            if twins:
                reached_twins = {twin[u] for u in reached}
        return depth

    # degree and profile classes promise nothing about counts: every cell
    # is a splitter
    if descend(cells, (), list(range(len(cells)))) < 0:
        return None, visited
    return leaves, visited


def canonize(rows: Sequence[int], layers: Layers | None = None
             ) -> tuple[tuple[int, ...], int]:
    """Return (order, certificate) minimising the adjacency bitstring.

    ``order[p]`` is the original vertex placed at position p; the tree is
    `_walk`'s, from the layer pass `layers` of these rows when given.
    """
    leaves, _ = _walk(rows, layers=layers)
    best_cert = min(leaves)
    return leaves[best_cert], best_cert


def relabel(g: Graph, order: Sequence[int]) -> Graph:
    """Graph with original vertex ``order[p]`` renamed to p."""
    pos = [0] * g.n
    for p, v in enumerate(order):
        pos[v] = p
    new_rows = [0] * g.n
    for i in range(g.n):
        r = 0
        for j in bits(g.rows[order[i]]):
            r |= 1 << pos[j]
        new_rows[i] = r
    return graph_from_rows(new_rows)


def canonical_graph6(g: Graph) -> str:
    """graph6 line of the canonically relabelled graph: the dedup key for
    isomorphism classes.  The certificate is the graph6 payload already;
    the distance profiles come off ``g.layers``."""
    return graph6_line(g.n, canonize(g.rows, g.layers)[1])


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    if g1.n != g2.n or g1.m != g2.m:
        return False
    return canonical_graph6(g1) == canonical_graph6(g2)
