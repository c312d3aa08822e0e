"""Canonical labelling by equitable-partition refinement with backtracking
over cells.

The certificate is the lexicographically minimal adjacency bitstring over
all labellings consistent with the refinement tree; equal certificates
characterise isomorphic graphs because the certificate reconstructs the
graph.  Discovered automorphisms prune branches that fix the current
individualisation prefix.

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
as from counting against every cell.  The canonical graph6 line is read
straight off the certificate, which packs the upper triangle in graph6
payload order.
"""
from __future__ import annotations

from typing import Sequence

from .core import Graph, bits, graph_from_rows
from .formats import _encode_order, _pack_bits


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


def _certificate(nbrs: Sequence[Sequence[int]], order: Sequence[int]) -> int:
    """Upper-triangle adjacency bits (column-major) of the relabelled
    graph, packed into one int: column j holds bit (i, j) for i < j, with
    i = 0 most significant."""
    n = len(order)
    # vertex order[i] sits at bit n-1-i, so the top j bits of a relabelled
    # row are column j with i = 0 first
    flipped = [0] * n
    for i, v in enumerate(order):
        flipped[v] = 1 << (n - 1 - i)
    acc = 0
    for j in range(1, n):
        col = 0
        for w in nbrs[order[j]]:
            col |= flipped[w]
        acc = acc << j | col >> (n - j)
    return acc


_MAX_STORED_AUTS = 256


def canonize(
    rows: Sequence[int], colors: Sequence[object] | None = None
) -> tuple[tuple[int, ...], int]:
    """Return (order, certificate) minimising the adjacency bitstring.

    ``order[p]`` is the original vertex placed at position p.  `colors`
    is an optional isomorphism-invariant per-vertex value (for example
    girth-cycle counts); vertices are pre-partitioned by it, which keeps
    the backtracking tree small on rigid graphs.
    """
    n = len(rows)
    if n == 0:
        return (), 0
    if colors is None:
        colors = [rows[v].bit_count() for v in range(n)]
    groups: dict[object, list[int]] = {}
    for v in range(n):
        groups.setdefault(colors[v], []).append(v)
    cells = [groups[c] for c in sorted(groups)]
    nbrs = [list(bits(r)) for r in rows]

    best_cert: int | None = None
    best_order: tuple[int, ...] | None = None
    auts: list[tuple[int, ...]] = []

    def descend(cells: list[list[int]], prefix: tuple[int, ...],
                fresh: list[int]) -> None:
        nonlocal best_cert, best_order
        cells = _refine(nbrs, cells, fresh)
        target = None
        for idx, cell in enumerate(cells):
            if len(cell) > 1 and (target is None or len(cell) < len(cells[target])):
                target = idx
        if target is None:
            order = tuple(c[0] for c in cells)
            cert = _certificate(nbrs, order)
            if best_cert is None or cert < best_cert:
                best_cert, best_order = cert, order
            elif cert == best_cert and order != best_order:
                gamma = [0] * n
                for p in range(n):
                    gamma[best_order[p]] = order[p]
                gamma = tuple(gamma)
                if len(auts) < _MAX_STORED_AUTS and gamma not in auts:
                    auts.append(gamma)
            return
        cell = cells[target]
        tried: list[int] = []
        reached: set[int] = set()
        for v in cell:
            # Orbit pruning: v equivalent to an already-tried candidate
            # under automorphisms that fix the individualisation prefix.
            if v in reached:
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

    # colour classes promise nothing about counts: every cell is a splitter
    descend(cells, (), list(range(len(cells))))
    assert best_order is not None
    return best_order, best_cert


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


def canonical_graph6(g: Graph, colors: Sequence[object] | None = None) -> str:
    """graph6 line of the canonically relabelled graph: the dedup key for
    isomorphism classes.  The certificate already holds the payload bits in
    graph6 order; only the zero padding to a multiple of six is added."""
    _, cert = canonize(g.rows, colors=colors)
    width = g.n * (g.n - 1) // 2
    pad = -width % 6
    return _encode_order(g.n) + _pack_bits(cert << pad, width + pad)


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    if g1.n != g2.n or g1.m != g2.m:
        return False
    return canonical_graph6(g1) == canonical_graph6(g2)
