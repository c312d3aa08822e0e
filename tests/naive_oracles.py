"""Independent brute-force reference implementations used by the tests.

Everything here works on dict-of-sets adjacency with explicit loops; no
bit vectors, no code shared with the engines under test.
"""
from __future__ import annotations

from itertools import combinations, permutations


def to_adj(g) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {v: set() for v in range(g.n)}
    for i, j in g.edges():
        adj[i].add(j)
        adj[j].add(i)
    return adj


def naive_dist(adj, a, b, forbidden_edge=None):
    """BFS distance from a to b, optionally ignoring one edge."""
    if a == b:
        return 0
    seen = {a}
    frontier = [a]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if forbidden_edge and {v, w} == set(forbidden_edge):
                    continue
                if w not in seen:
                    if w == b:
                        return d
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return None


def naive_girth(adj) -> int | None:
    """Shortest cycle by removing each edge and measuring the detour."""
    best = None
    for v in adj:
        for w in adj[v]:
            if v < w:
                d = naive_dist(adj, v, w, forbidden_edge=(v, w))
                if d is not None and (best is None or d + 1 < best):
                    best = d + 1
    return best


def naive_shells(adj, u) -> list[set[int]]:
    """All breadth-first shells from u, innermost first ({u} excluded)."""
    shells = []
    seen = {u}
    frontier = {u}
    while True:
        nxt = set()
        for v in frontier:
            nxt |= adj[v]
        nxt -= seen
        if not nxt:
            return shells
        shells.append(nxt)
        seen |= nxt
        frontier = nxt


def shell(adj, u, i) -> set[int]:
    shells = naive_shells(adj, u)
    return shells[i - 1] if i <= len(shells) else set()


def exterior(adj, u) -> set[int]:
    return set(adj) - {u} - shell(adj, u, 1) - shell(adj, u, 2)


def cross_edges(adj, xs, ys) -> int:
    """Edges with one end in xs, the other in ys (disjoint sets)."""
    assert not xs & ys
    return sum(len(adj[x] & ys) for x in xs)


def inside_edges(adj, xs) -> int:
    return sum(len(adj[x] & xs) for x in xs) // 2


def naive_cycle_lists(adj, length):
    """Every cycle of exactly `length` as a vertex tuple, one orientation
    per cycle, found by checking all cyclic orders of all vertex subsets.
    Only sensible for small lengths."""
    cycles = []
    verts = sorted(adj)
    for subset in combinations(verts, length):
        anchor = subset[0]
        rest = subset[1:]
        seen_orders = set()
        for perm in permutations(rest):
            if perm[0] > perm[-1]:
                continue  # one orientation only
            order = (anchor,) + perm
            if order in seen_orders:
                continue
            seen_orders.add(order)
            ok = all(order[(i + 1) % length] in adj[order[i]] for i in range(length))
            if ok:
                cycles.append(order)
    return cycles


def naive_profile(adj, length):
    """(total, per_vertex dict, per_edge dict) for cycles of `length`."""
    cycles = naive_cycle_lists(adj, length)
    per_vertex = {v: 0 for v in adj}
    per_edge = {(min(v, w), max(v, w)): 0 for v in adj for w in adj[v] if v < w}
    for cyc in cycles:
        for v in cyc:
            per_vertex[v] += 1
        for i in range(length):
            v, w = cyc[i], cyc[(i + 1) % length]
            per_edge[(min(v, w), max(v, w))] += 1
    return len(cycles), per_vertex, per_edge


# ---------------------------------------------------------------------------
# display oracles for the girth-5 audits


def oracle_outer(adj, k, u, lam):
    """(found, expected) for the second-shell boundary count."""
    found = cross_edges(adj, shell(adj, u, 2), exterior(adj, u))
    return found, k * (k - 1) ** 2 - 2 * lam


def oracle_main_property(adj, u):
    n2 = sorted(shell(adj, u, 2))
    ext = exterior(adj, u)
    out = []
    for i, v1 in enumerate(n2):
        for v2 in n2[i + 1:]:
            for w in sorted(adj[v1] & adj[v2] & ext):
                out.append((v1, v2, w))
    return out


def oracle_case_a_records(adj, k, u, v, lam):
    """Recompute every first-stage record as {(name, context): (lhs, rel, rhs)}."""
    two_eps = k * (k - 1) ** 2 - 2 * lam
    n1u, n2u = shell(adj, u, 1), shell(adj, u, 2)
    n2v = shell(adj, v, 2)
    va = n2v & n1u
    vb = n2v & n2u
    vc = n2v - n1u - n2u
    branches = [adj[ui] - {u} for ui in sorted(n1u)]
    nv_outside = adj[v] - n2u
    d = [cross_edges(adj, b, nv_outside) for b in branches]
    a = [1 if adj[v] & b else 0 for b in branches]
    e_ab = cross_edges(adj, va, vb)
    e_bb = inside_edges(adj, vb)
    e_bc = cross_edges(adj, vb, vc)
    e_cc = inside_edges(adj, vc)
    y = e_ab + e_bb + e_bc + e_cc
    d_dot_a = sum(x * y2 for x, y2 in zip(d, a))
    sa = len(va)
    recs = {
        ("VC_induced", ""): ((k - 1) * len(vc), ">=", 2 * e_cc + e_bc),
        ("VB_induced", ""): ((k - 1) * len(vb), ">=", e_ab + 2 * e_bb + e_bc),
        ("VAg", ""): (sum(d) + sum(a), "<=", two_eps),
        ("TwoEpsVA", ""): (d_dot_a, "<=", two_eps - sa),
        ("EAB", ""): (e_ab, "<=", d_dot_a + sa * (sa - 1)),
    }
    if 0 < two_eps <= k - 1:
        recs[("Y_bound_caseA", "deficit in the excluded range")] = (
            2 * y, "<", k * (k - 1) ** 2 - two_eps)
    else:
        spread = max(2 - 2 * k, two_eps ** 2 - two_eps * (k + 1))
        recs[("Y_bound_caseA", "")] = (2 * y, "<=", k * (k - 1) ** 2 + two_eps + spread)
    return recs


def oracle_case_b_records(adj, k, u, v, lam):
    """Recompute every second-stage record as {(name, context): (lhs, rel, rhs)}."""
    two_eps = k * (k - 1) ** 2 - 2 * lam
    n1u, n2u = shell(adj, u, 1), shell(adj, u, 2)
    (v_prime,) = adj[v] & n2u
    (u1,) = adj[v_prime] & n1u
    rest = sorted(adj[v] - {v_prime})
    n2v = shell(adj, v, 2)
    va = n2v & n1u
    vb = n2v & n2u
    vb2 = vb - adj[v_prime]
    vc = n2v - n1u - n2u
    vc1 = vc & adj[v_prime]
    vc2 = vc - adj[v_prime]
    leaf_sets = [adj[vi] & vc2 for vi in rest]
    e_ab = cross_edges(adj, va, vb)
    e_bb = inside_edges(adj, vb)
    e_bc = cross_edges(adj, vb, vc)
    e_cc = inside_edges(adj, vc)
    y = e_ab + e_bb + e_bc + e_cc
    out = set(adj) - va - vb - vc
    recs = {
        ("VB_induced", ""): ((k - 1) * len(vb), ">=", e_ab + 2 * e_bb + e_bc),
        ("VC_induced_new", ""): (
            (k - 1) * len(vc), ">=",
            2 * e_cc + e_bc + (k - 1) * (k - 1 - len(vc1)) - len(vb2)
            - cross_edges(adj, vc2, vb),
        ),
        ("outer_bound1", ""): (
            len(vb2) + len(vc1) + 1 + cross_edges(adj, vb, vc2), "<=", two_eps),
        ("outer_bound2", "doubled form of the half-deficit bound"): (
            2 * (len(vb2 & adj[u1]) + len(vc1) + 1), "<=", two_eps),
        ("EAB_new", ""): (e_ab, "=", len(vb2 & adj[u1])),
    }
    for i, (vi, li) in enumerate(zip(rest, leaf_sets), start=1):
        ctx = f"i={i}"
        recs[("LCprime", ctx)] = (cross_edges(adj, li, vc1), "<=", len(vc1))
        recs[("LCdoubleprime", ctx)] = (
            cross_edges(adj, li, vc2 - li), "<=", len(li) * (k - 2))
        recs[("Li_expansion", ctx)] = (
            (k - 1) * len(li), "=",
            cross_edges(adj, li, vc2 - li) + cross_edges(adj, li, vc1)
            + cross_edges(adj, li, vb) + cross_edges(adj, li, out - {vi}),
        )
    recs[("Vout_bound", "")] = (
        cross_edges(adj, vc2, out - {v} - adj[v]) + cross_edges(adj, vc2, vb),
        ">=", sum(len(li) - len(vc1) for li in leaf_sets),
    )
    if 0 < two_eps <= k - 1:
        recs[("Y_bound_caseB", "deficit in the excluded range")] = (
            2 * y, "<", k * (k - 1) ** 2 - two_eps)
    else:
        eps = two_eps // 2
        recs[("Y_bound_caseB", "")] = (
            2 * y, "<=",
            k * (k - 1) ** 2 - (k - 1) * (k - len(vc1)) + 3 * eps - 2 * len(vc1) - 2,
        )
    return recs


def oracle_gprime(adj, k, u, u1_index, lam):
    """((total, max_entry, degree), (expected_total, k-1, degree_floor))."""
    branches = [adj[ui] - {u} for ui in sorted(shell(adj, u, 1))]
    matrix = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            matrix[i][j] = matrix[j][i] = cross_edges(adj, branches[i], branches[j])
    total = sum(matrix[i][j] for i in range(k) for j in range(i + 1, k))
    max_entry = max(matrix[i][j] for i in range(k) for j in range(i + 1, k))
    degree = sum(matrix[u1_index - 1])
    eps = (k * (k - 1) ** 2 - 2 * lam) // 2
    return (total, max_entry, degree), (lam, k - 1, (k - 1) ** 2 - eps)


def naive_labeled_regular_graphs(n, k, min_girth):
    """All labeled connected k-regular graphs on vertices 0..n-1 with girth
    at least min_girth, by completing one adjacency row at a time."""
    results = []
    adj = {v: set() for v in range(n)}

    def girth_ok(a, b):
        d = naive_dist(adj, a, b)
        return d is None or d >= min_girth - 1

    def fill(v):
        if v == n:
            start = 0
            seen = {start}
            stack = [start]
            while stack:
                x = stack.pop()
                for y in adj[x]:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            if len(seen) == n:
                results.append({x: frozenset(adj[x]) for x in adj})
            return
        need = k - len(adj[v])
        if need == 0:
            fill(v + 1)
            return
        candidates = [w for w in range(v + 1, n)
                      if len(adj[w]) < k and w not in adj[v]]

        def pick(remaining, start_idx):
            if remaining == 0:
                fill(v + 1)
                return
            for idx in range(start_idx, len(candidates)):
                w = candidates[idx]
                if len(adj[w]) < k and girth_ok(v, w):
                    adj[v].add(w)
                    adj[w].add(v)
                    pick(remaining - 1, idx + 1)
                    adj[v].remove(w)
                    adj[w].remove(v)

        pick(need, 0)

    fill(0)
    return results


def naive_refine(adj, cells) -> list[list[int]]:
    """Equitable refinement by full recount, the reference for
    `canon._refine`: every pass keys each vertex on its neighbour counts
    into every cell, splits each cell into buckets in ascending key order,
    and the passes stop once one splits nothing."""
    cells = [list(cell) for cell in cells]
    while True:
        members = [set(cell) for cell in cells]
        new_cells = []
        for cell in cells:
            buckets: dict[tuple[int, ...], list[int]] = {}
            for v in cell:
                key = tuple(len(adj[v] & m) for m in members)
                buckets.setdefault(key, []).append(v)
            new_cells.extend(buckets[key] for key in sorted(buckets))
        if len(new_cells) == len(cells):
            return cells
        cells = new_cells
