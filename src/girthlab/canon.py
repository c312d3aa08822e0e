"""Canonical labelling by equitable-partition refinement with backtracking
over cells.

The certificate is the lexicographically minimal adjacency bitstring over
all labellings consistent with the refinement tree, which starts from the
degree partition; equal certificates characterise isomorphic graphs
because the certificate reconstructs the graph.  There is one canonical
form: no vertex colours are taken, so the search's classes, memo keys and
`are_isomorphic` all compare the same strings.

Two leaves with equal certificates give an automorphism, the map from the
first leaf's order to the second's.  A dict from certificate to the order
of the first leaf that gave it records one for every repeated certificate,
until `_MAX_STORED_AUTS` are stored; the least certificate is read off the
dict at the end.  Discovered automorphisms prune branches that fix the
current individualisation prefix.  So do twins, vertices with equal rows:
two twins in one cell are swapped by an automorphism that fixes every other
vertex, so a candidate with the row of a candidate already tried or reached
is skipped.  Whether any twins exist is decided once per call, so twin-free
graphs (every regular graph of girth at least 5) pay nothing for it; the
fresh vertices of a partial search state are twins.

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

from typing import Sequence

from .core import Graph, bits, graph_from_rows
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


def canonize(rows: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Return (order, certificate) minimising the adjacency bitstring.

    ``order[p]`` is the original vertex placed at position p.  Vertices
    start partitioned by degree.
    """
    n = len(rows)
    if n == 0:
        return (), 0
    groups: dict[int, list[int]] = {}
    for v in range(n):
        groups.setdefault(rows[v].bit_count(), []).append(v)
    cells = [groups[d] for d in sorted(groups)]
    nbrs = [list(bits(r)) for r in rows]
    # decided once per call: twin-free graphs skip the row check below
    twins = len(set(rows)) < n

    # certificate -> order of the first leaf that gave it
    leaves: dict[int, tuple[int, ...]] = {}
    auts: list[tuple[int, ...]] = []

    def descend(cells: list[list[int]], prefix: tuple[int, ...],
                fresh: list[int]) -> None:
        cells = _refine(nbrs, cells, fresh)
        target = None
        for idx, cell in enumerate(cells):
            if len(cell) > 1 and (target is None or len(cell) < len(cells[target])):
                target = idx
        if target is None:
            order = tuple(c[0] for c in cells)
            first = leaves.setdefault(pack_payload(nbrs, order), order)
            if first != order and len(auts) < _MAX_STORED_AUTS:
                # equal certificates: first[p] -> order[p] is an automorphism
                gamma = [0] * n
                for p in range(n):
                    gamma[first[p]] = order[p]
                gamma = tuple(gamma)
                if gamma not in auts:
                    auts.append(gamma)
            return
        cell = cells[target]
        tried: list[int] = []
        reached: set[int] = set()
        reached_rows: set[int] = set()
        for v in cell:
            # Orbit pruning: v equivalent to an already-tried candidate
            # under automorphisms that fix the individualisation prefix;
            # a twin of such a candidate is one too.
            if v in reached or twins and rows[v] in reached_rows:
                continue
            child = (
                cells[:target]
                + [[v], [w for w in cell if w != v]]
                + cells[target + 1:]
            )
            # `cells` is equitable, so only the new singleton [v] can split
            descend(child, prefix + (v,), [target])
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
                reached_rows = {rows[u] for u in reached}

    # degree classes promise nothing about counts: every cell is a splitter
    descend(cells, (), list(range(len(cells))))
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
    isomorphism classes.  The certificate is the graph6 payload already."""
    return graph6_line(g.n, canonize(g.rows)[1])


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    if g1.n != g2.n or g1.m != g2.m:
        return False
    return canonical_graph6(g1) == canonical_graph6(g2)
