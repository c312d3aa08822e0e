"""Exhaustive enumeration of connected k-regular graphs with girth at least
(or exactly) g, one representative per isomorphism class, with optional
filtering on the common per-vertex girth-cycle count.

Growth strategy: complete the lowest-index unsaturated vertex in one step,
choosing a set of existing girth-compatible partners plus a block of fresh
vertices that take the next unused indices.  Girth pruning rejects an edge
(a, b) whenever the current distance between a and b is below g - 1, that
is whenever b lies in `core.ball(rows, a, g - 2)`, the one bounded
breadth-first search, which the closure below reads too.

Two cuts and one closure run before a child is emitted, so none costs a
canonical labelling.  The lookahead (`_viable`) drops a child with no
completion.  While k or more fresh slots remain it accepts at once, as
every vertex then has enough open partners, so n_max plays no part in the
cut until the last k - 1 slots.  Below that, it tries each number f of new
vertices that makes the count of missing stubs even: it appends f isolated
vertices and adds forced edges until none is left (`_forced_closure`).  An
unsaturated vertex whose open partners (unsaturated vertices at
distance >= g-1, fresh ones included) number exactly its missing degree is
joined to all of them, one with fewer is a contradiction, and so is a
forced edge whose ends the edges forced before it have brought within
distance g-2.  Every completion with f new vertices contains each forced
edge, so a contradiction rules out all of them, and the child is kept if
some f survives.  A vertex with fewer open partners than missing edges at
f = n_max - t has fewer at every smaller f, whatever edges are forced, so
the propagation drops every child that this per-vertex count drops, and
more.  When f = 0 is the only survivor, the lookahead emits the closed rows
in place of the child: every completion of the child then adds no vertex
and contains each forced edge, so the closed state has exactly the
completions of the child, and the states that those edges would pass
through one pivot at a time are never popped, labelled or expanded.  It
closes only at f = 0, as a closure at f > 0 would carry isolated appended
vertices, and only below k fresh slots, so the search still needs no n_max
until the last k - 1 slots.  The twin rule (`_one_per_row`) tries only the
first of the candidate partners that share a row: swapping two such twins
is an automorphism of the partial graph that fixes the pivot and the
partners already chosen, so their children are isomorphic.

A third cut, the orbit rule (`_last_of_each_orbit`), costs no labelling
either: it uses the automorphisms that the walk of the expanded state
found and stored (`canon._walk`), as McKay's isomorph-free generation
prunes by the parent's automorphisms ("Isomorph-free exhaustive
generation", J. Algorithms 26, 1998).  The pivot
completions, a partner set S and r fresh vertices each, are listed in
generation order; those that the stored automorphisms fixing the pivot p
map onto one another form one orbit, and only the last listed member of
each orbit is passed to `_viable` and pushed.  Each dropped sibling is one
that the memo would have refused at its first leaf, in three steps.  An
automorphism gamma that fixes p maps child(r, S) onto child(r, gamma S), so
the members of an orbit are isomorphic.  `_forced_closure` reaches the same
fixpoint in any order, as an edge forced at some state stays forced, or
turns into a contradiction, once more edges are added; so `_viable`
commutes with gamma, and the members are all dropped or all pushed as
isomorphic states.  The stack is last in, first out, so the last listed
member is popped before its siblings, and its class has been expanded, by
it or by a state before it, when they would be popped.  A one-worker run
therefore expands the states, and finds the classes and hits, that it
finds without the rule; it labels one leaf fewer for each dropped sibling
that `_viable` keeps, and the frontier of a checkpoint lacks those
siblings.  The representative is picked by its place in the list, so no
hash order reaches the run.

All four rules are sound under the memo below: a dropped child has no
completion, or has the completions of an emitted sibling up to
isomorphism, and a closed child has the completions of the child it
replaces, so every class is still met, and the memo only ever holds
certificates of states that were expanded.  None of them changes the
canonical form: a closed state is labelled like any other.

Isomorph rejection on partial states: the complete graphs reachable from a
partial state are all k-regular girth-compatible supergraphs that add edges
only at its unsaturated vertices, and neither the pivot order nor the labels
of fresh vertices restricts which those are.  They therefore depend only on
the isomorphism class of the state.  The depth-first search expands only
the first popped state of each class, so every class of complete graphs is
met at exactly one leaf.

One memo refuses the duplicates: per order, every leaf certificate of every
expanded state.  The certificates one walk of the refinement tree meets are
an isomorphism invariant, and a certificate rebuilds its graph (see
`canon`), so a popped state whose first leaf is in the memo is isomorphic
to a state already expanded, and is refused after that one leaf.  A state
of an expanded class meets only that class's certificates, all in the
memo, so a state walked in full is always of a new class: it is expanded,
and its certificates join the memo.  Every child of an expanded state is
either processed or still open, so the memo stays valid across a
suspension.  A checkpoint stores it, one `#memo` graph6 line per
certificate, next to the open frontier, and a resumed run refuses each
duplicate at its first leaf as an uninterrupted run does: a chain of
one-worker calls labels exactly the uninterrupted run's leaves.

Workers start from what a suspended run leaves: an open frontier and the
memo of the states expanded before it, read from a checkpoint or made by
the split.  The split grows the frontier, from the checkpoint or from the
root, until it holds 16 open states per worker; each step is a call of
`_run_frontier` with a budget of one node that pops the shallowest open
state, so the split admits and expands states by the same loop and rules
as a one-worker run.  The workers share the frontier round-robin and
each grows its own copy of the memo, so a multi-worker run may repeat work
but never loses a class; their memos are merged per order when the run is
checkpointed.  `leaves_labelled` counts the certificates computed by one
call, summed over its workers.

A child carries its parent's neighbour lists (`_child_graph`): its
`Graph` comes with a `core.Layers` that shares the parent's list of every
row the child left as it was, and lists afresh only the rows it changed
(the pivot, its partners, the ends of forced edges) and the rows it
added.  `_admit` walks every state over its ``graph.layers``, so the walk
builds no lists of its own, a regular state's distance profiles come off
the same pass, and a complete state is evaluated on it.  A list depends
on its row alone, so nothing else of the parent is carried: the walk's
starting partition, in particular, must depend only on the child's
isomorphism class for the memo to stay an isomorphism test.

A complete graph is emitted as the graph6 line of its least certificate,
the canonical graph6 that `canonical_graph6` and `are_isomorphic` also
compute; that string is the class in outputs and checkpoints.  Equal
strings mean isomorphic graphs, so a class met by two workers is still
emitted once.  Format 6 of the checkpoint stores the memo above.  Older
formats are refused: format 5 stored only each expanded class's least
certificate, so a duplicate whose first leaf is another certificate would
be walked in full and expanded again; format 4 stored regular classes
labelled from the one degree cell rather than from the distance-profile
cells (see `canon`), and format 3 stored classes canonised with
girth-cycle counts as vertex colours.
"""
from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass, field

from .canon import _walk
from .core import Graph, Layers, ball, bit_list, is_connected, max_vertices
from .errors import GirthLabError, InternalInconsistency
from .formats import graph6_line, graph6_payload, parse_graph6, write_graph6
from .girth import girth, girth_profile
from .classify import in_excluded_range, vertex_cycle_bound

GIRTH_EXACT = "exact"
GIRTH_AT_LEAST = "at_least"

CHECKPOINT_MAGIC = "#girthlab-checkpoint 6"


def default_order_cap(k: int) -> int:
    return 20 if k == 3 else 16


@dataclass(frozen=True)
class SearchConfig:
    """Enumeration parameters.

    `node_budget` caps the nodes expanded by one call of `generate`; a run
    that exhausts it writes its open frontier to `checkpoint_path` (resumed
    from there when the file exists), so a budget needs a checkpoint
    path."""

    k: int
    g: int
    n_max: int
    girth_mode: str = GIRTH_AT_LEAST
    lambda_filter: int | None = None
    worker_count: int = 1
    node_budget: int | None = None
    cap: int | None = None
    checkpoint_path: str | None = None

    def validate(self) -> None:
        if self.k < 2 or self.g < 3 or self.n_max < 1:
            raise ValueError(f"need k >= 2, g >= 3, n_max >= 1, got "
                             f"({self.k},{self.g},{self.n_max})")
        if self.girth_mode not in (GIRTH_EXACT, GIRTH_AT_LEAST):
            raise ValueError(f"girth_mode must be {GIRTH_EXACT!r} or {GIRTH_AT_LEAST!r}")
        limit = self.cap if self.cap is not None else default_order_cap(self.k)
        if self.n_max > limit:
            raise ValueError(f"n_max {self.n_max} above the order cap {limit}; "
                             "raise `cap` explicitly for longer runs")
        # a checkpoint's frontier and classes are read back as graph6, which
        # refuses orders above the vertex cap
        vertex_cap = max_vertices()
        if self.n_max > vertex_cap:
            raise ValueError(f"n_max {self.n_max} above the vertex cap {vertex_cap}; "
                             "raise GIRTHLAB_MAX_N for larger graphs")
        if self.lambda_filter is not None and self.lambda_filter < 0:
            raise ValueError("lambda_filter must be nonnegative")
        # with girth exactly g no vertex lies on more girth cycles than the
        # bound; at_least mode keeps larger girths, whose bound is larger
        if self.girth_mode == GIRTH_EXACT and self.lambda_filter is not None:
            bound = vertex_cycle_bound(self.k, self.g)
            if self.lambda_filter > bound:
                raise ValueError(f"lambda {self.lambda_filter} above the per-vertex "
                                 f"maximum {bound} for k={self.k}, g={self.g}")
        if self.worker_count < 1:
            raise ValueError("worker_count must be at least 1")
        if self.node_budget is not None:
            if self.node_budget < 1:
                raise ValueError(f"node_budget must be at least 1, got {self.node_budget}")
            # a suspended run is resumed only from its checkpoint
            if not self.checkpoint_path:
                raise ValueError("node_budget needs a checkpoint_path to resume from")
        if self.checkpoint_path is not None:
            # refused before the search runs rather than when it suspends
            if os.path.isdir(self.checkpoint_path):
                raise ValueError(f"checkpoint path {self.checkpoint_path} is a directory")
            folder = os.path.dirname(os.path.abspath(self.checkpoint_path))
            if not os.path.isdir(folder):
                raise ValueError(f"checkpoint directory {folder} does not exist")

    def _key(self) -> dict:
        return {
            "k": self.k, "g": self.g, "n_max": self.n_max,
            "girth_mode": self.girth_mode, "lambda_filter": self.lambda_filter,
        }


@dataclass
class SearchOutcome:
    per_n_classes: dict[int, int] = field(default_factory=dict)
    per_n_hits: dict[int, int] = field(default_factory=dict)
    classes_graph6: dict[int, list[str]] = field(default_factory=dict)
    hits_graph6: list[str] = field(default_factory=list)
    nodes_expanded: int = 0
    leaves_labelled: int = 0
    wall_time: float = 0.0
    suspended: bool = False
    checkpoint_path: str | None = None
    contradiction: bool = False

    @property
    def total_classes(self) -> int:
        return sum(self.per_n_classes.values())

    @property
    def total_hits(self) -> int:
        return sum(self.per_n_hits.values())


Rows = tuple[int, ...]


def _viable(rows: Rows, k: int, g: int, n_max: int) -> Rows | None:
    """Lookahead: the state to push in place of the child `rows`, or None
    when the child has no completion.  With k fresh slots left every vertex
    has enough open partners, so the check runs only when fewer remain.  A
    completion with f new vertices needs an even number of stubs,
    sum(missing) + k*f, and it contains every edge that `_forced_closure`
    adds to the state with f isolated vertices appended; the child has a
    completion only if some such f survives that propagation.  When f = 0
    is the only survivor, every completion contains the forced edges, so the
    closed rows have exactly the completions of the child and are pushed
    instead; otherwise the child is pushed as it is."""
    fresh = n_max - len(rows)
    if fresh >= k:
        return tuple(rows)
    stubs = k * len(rows) - sum(r.bit_count() for r in rows)
    for f in range(fresh, -1, -1):
        if (stubs + k * f) % 2:
            continue
        closed = list(rows) + [0] * f
        if _forced_closure(closed, k, g):
            return tuple(closed) if f == 0 else tuple(rows)
    return None


def _forced_closure(rows: list[int], k: int, g: int) -> bool:
    """Add forced edges to `rows` (changed in place) until none is left;
    False on a contradiction.  Every new neighbour of an unsaturated vertex
    v in a completion is an open partner: an unsaturated vertex outside
    `core.ball(rows, v, g-2)`, since distances only shrink as edges are
    added.  So v has no completion with fewer open partners than missing
    edges, and with exactly as many, every completion joins v to all of
    them.  Each forced edge is re-checked against the distances that the
    edges added before it have shortened, so forced edges that together
    close a short cycle are a contradiction too."""
    missing = [k - r.bit_count() for r in rows]
    unsaturated = sum(1 << v for v, m in enumerate(missing) if m)
    changed = True
    while changed:
        changed = False
        # the vertices unsaturated when the pass starts, ascending; one
        # saturated since then is skipped
        rest = unsaturated
        while rest:
            bit = rest & -rest
            rest ^= bit
            v = bit.bit_length() - 1
            m = missing[v]
            if not m:
                continue
            near = ball(rows, v, g - 2)
            partners = unsaturated & ~near
            count = partners.bit_count()
            if count < m:
                return False
            if count > m:
                continue
            while partners:
                low = partners & -partners
                partners ^= low
                if near & low:
                    return False
                w = low.bit_length() - 1
                rows[v] |= low
                rows[w] |= 1 << v
                missing[w] -= 1
                if not missing[w]:
                    unsaturated ^= low
                if partners:
                    near = ball(rows, v, g - 2)
            missing[v] = 0
            unsaturated ^= bit
            changed = True
    return True


def _one_per_row(rows: list[int], candidates: list[int]) -> list[int]:
    """Twin rule: the first candidate of each distinct row.  Two candidates
    with equal rows are non-adjacent twins; swapping them is an automorphism
    of the partial graph that fixes the pivot and every partner chosen
    before them, so their branches give isomorphic children."""
    first: dict[int, int] = {}
    for w in candidates:
        first.setdefault(rows[w], w)
    return list(first.values())


def _children(state: Rows, k: int, g: int, n_max: int,
              auts: list[tuple[int, ...]]) -> list[Rows] | None:
    """Expand one pivot-completion step; None means the state is complete
    (every vertex saturated).  Each child is replaced by what `_viable`
    returns: dropped when it has no completion, closed under its forced
    edges when no fresh vertex can be added.  Of twin partners only the
    first is tried (`_one_per_row`), and of the completions that the
    automorphisms `auts` of the state map onto one another only the last
    listed (`_last_of_each_orbit`)."""
    t = len(state)
    deg = [r.bit_count() for r in state]
    unsaturated = [v for v in range(t) if deg[v] < k]
    if not unsaturated:
        return None
    p = unsaturated[0]
    rows = list(state)
    completions: list[Rows] = []

    def choose(remaining: int, min_w: int) -> None:
        if remaining == 0:
            completions.append(tuple(rows))
            return
        # fill the rest with fresh vertices attached to the pivot
        if t + remaining <= n_max:
            child = rows + [1 << p] * remaining
            child[p] |= ((1 << remaining) - 1) << t
            completions.append(tuple(child))
        blocked = ball(rows, p, g - 2)
        for w in _one_per_row(rows, [w for w in range(min_w, t)
                                     if deg[w] < k and not blocked >> w & 1]):
            rows[p] |= 1 << w
            rows[w] |= 1 << p
            deg[w] += 1
            choose(remaining - 1, w + 1)
            rows[p] &= ~(1 << w)
            rows[w] &= ~(1 << p)
            deg[w] -= 1

    choose(k - deg[p], p + 1)
    children: list[Rows] = []
    for child in _last_of_each_orbit(completions, state, p, auts):
        kid = _viable(child, k, g, n_max)
        if kid is not None:
            children.append(kid)
    return children


def _last_of_each_orbit(completions: list[Rows], state: Rows, p: int,
                        auts: list[tuple[int, ...]]) -> list[Rows]:
    """The completions of the pivot p of `state`, in their order, that no
    later one shares an orbit with.  A completion joins p to a set S of
    vertices of the state and to r fresh ones; it is keyed by S and its
    order.  An automorphism gamma of the state that fixes p maps the child
    of (S, r) onto the child of (gamma S, r), so the children of one orbit
    are isomorphic.  The orbits are the connected parts of the completions
    under the automorphisms in `auts` that fix p."""
    fixers = [gamma for gamma in auts if gamma[p] == p]
    if not fixers:
        return completions
    # the vertices of the state that p is not joined to yet
    open_ = ((1 << len(state)) - 1) ^ state[p]
    index = {(child[p] & open_, len(child)): i for i, child in enumerate(completions)}
    # union-find whose root is the last listed member of its part
    root = list(range(len(completions)))

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for gamma in fixers:
        image = [1 << v for v in gamma]
        for (partners, order), i in index.items():
            mapped = 0
            for w in bit_list(partners):
                mapped |= image[w]
            j = index.get((mapped, order))
            if j is not None:
                a, b = find(i), find(j)
                if a != b:
                    root[min(a, b)] = max(a, b)
    return [child for i, child in enumerate(completions) if find(i) == i]


def _evaluate(g: Graph, cfg_key: dict) -> bool | None:
    """Check a saturated graph and apply the filter: whether it is a hit,
    or None for an exact-girth rejection.  The girth-cycle profile is
    computed, and validated, only when a count is filtered on."""
    if not is_connected(g):
        raise InternalInconsistency("grown graph is disconnected")
    gr = girth(g)
    if gr is None or gr < cfg_key["g"]:
        raise InternalInconsistency("girth pruning admitted a short cycle")
    if cfg_key["girth_mode"] == GIRTH_EXACT and gr != cfg_key["g"]:
        return None
    lam = cfg_key["lambda_filter"]
    return lam is not None and set(girth_profile(g).per_vertex) == {lam}


def _record(graph: Graph, leaves: dict, cfg_key: dict, classes: set, hits: set) -> None:
    """File a complete state under its class string, the graph6 line of its
    least leaf certificate."""
    hit = _evaluate(graph, cfg_key)
    if hit is not None:
        entry = (graph.n, graph6_line(graph.n, min(leaves)))
        classes.add(entry)
        if hit:
            hits.add(entry)


def _child_graph(parent: Graph, rows: Rows) -> Graph:
    """The `Graph` of a child `rows` of the state `parent`, whose layer
    pass starts from the parent's neighbour lists: a row the child shares
    with the parent keeps its list, and only the changed rows (the pivot,
    its partners and the ends of forced edges) and the new ones are listed
    afresh.  Only these lists are carried, never anything the parent's walk
    derived from them."""
    nbrs = [ys if row == was else bit_list(row)
            for ys, row, was in zip(parent.layers.nbrs, rows, parent.rows)]
    nbrs += [bit_list(row) for row in rows[parent.n:]]
    graph = Graph(len(rows), rows)
    # `layers` is a cached property: seed its slot in the instance
    graph.__dict__["layers"] = Layers(nbrs)
    return graph


def _admit(graph: Graph, memo: dict[int, set[int]]
           ) -> tuple[dict[int, tuple[int, ...]] | None, int, list[tuple[int, ...]]]:
    """Memo test of one state: (leaves, leaves labelled, automorphisms
    found), as `_walk` gives them.  ``memo[n]`` holds every leaf
    certificate of the order-n states expanded so far.  A state whose first
    leaf is among them is refused after that one leaf, and `leaves` is
    None; otherwise its class is new, and the certificates it met, the keys
    of `leaves`, join the memo.  The state is walked over ``graph.layers``,
    whose neighbour lists a child carries from its parent
    (`_child_graph`), so a complete state is evaluated on the walk's
    pass."""
    known = memo.setdefault(graph.n, set())
    leaves, visited, auts = _walk(graph, known)
    if leaves is not None:
        known.update(leaves)
    return leaves, visited, auts


def _run_frontier(frontier: list[Rows], cfg_key: dict, budget: int | None,
                  memo: dict[int, set[int]]) -> dict:
    """Depth-first processing of a frontier of partial graphs that expands
    only the first state of each isomorphism class.

    `memo` holds, per order, the leaf certificates of the states already
    expanded, by this call or by the runs before it; this call adds those
    of the states it expands.  Returns per-class sets, the number of
    first-seen states expanded, the leaves labelled, the memo, and any
    unexpanded leftover when the node budget runs out.  Changes nothing but
    `memo`: safe as a worker.
    """
    k, g, n_max = cfg_key["k"], cfg_key["g"], cfg_key["n_max"]
    classes: set[tuple[int, str]] = set()
    hits: set[tuple[int, str]] = set()
    stack = [Graph(len(state), state) for state in frontier]
    nodes = labelled = 0
    while stack:
        if budget is not None and nodes >= budget:
            return {"classes": classes, "hits": hits, "nodes": nodes, "labelled": labelled,
                    "memo": memo, "leftover": [graph.rows for graph in stack]}
        graph = stack.pop()
        leaves, visited, auts = _admit(graph, memo)
        labelled += visited
        if leaves is None:
            continue
        nodes += 1
        kids = _children(graph.rows, k, g, n_max, auts)
        if kids is None:
            _record(graph, leaves, cfg_key, classes, hits)
            continue
        stack.extend(_child_graph(graph, kid) for kid in kids)
    return {"classes": classes, "hits": hits, "nodes": nodes, "labelled": labelled,
            "memo": memo, "leftover": []}


def _write_checkpoint(path: str, cfg_key: dict, classes, hits, nodes, memo,
                      frontier) -> None:
    """Write the checkpoint to a temporary file beside `path` and move it
    into place, so a crash part-way leaves any previous checkpoint intact."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                               prefix=os.path.basename(path) + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(CHECKPOINT_MAGIC + "\n")
            fh.write("#config " + json.dumps(cfg_key, sort_keys=True) + "\n")
            fh.write(f"#nodes {nodes}\n")
            for n, cert in sorted(classes):
                fh.write(f"#seen {cert}\n")
            for n, cert in sorted(hits):
                fh.write(f"#hit {cert}\n")
            for n, certs in sorted(memo.items()):
                for cert in sorted(certs):
                    fh.write(f"#memo {graph6_line(n, cert)}\n")
            for state in frontier:
                fh.write(write_graph6(Graph(len(state), state)) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _read_checkpoint(path: str, cfg_key: dict):
    classes: set[tuple[int, str]] = set()
    hits: set[tuple[int, str]] = set()
    memo: dict[int, set[int]] = {}
    frontier: list[Rows] = []
    nodes = stored = None
    with open(path) as fh:
        header = fh.readline().strip()
        if header != CHECKPOINT_MAGIC:
            raise GirthLabError(f"not a {CHECKPOINT_MAGIC[1:]} file: {path}")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#config "):
                stored = json.loads(line[len("#config "):])
                if stored != cfg_key:
                    raise GirthLabError(
                        "checkpoint was written for a different search: "
                        f"{stored} vs {cfg_key}"
                    )
            elif line.startswith("#nodes "):
                nodes = int(line.split()[1])
            elif line.startswith("#seen "):
                cert = line.split(" ", 1)[1]
                classes.add((parse_graph6(cert).n, cert))
            elif line.startswith("#hit "):
                cert = line.split(" ", 1)[1]
                hits.add((parse_graph6(cert).n, cert))
            elif line.startswith("#memo "):
                n, cert = graph6_payload(line.split(" ", 1)[1])
                memo.setdefault(n, set()).add(cert)
            else:
                frontier.append(parse_graph6(line).rows)
    # a file without its search or its node count cannot be resumed: a
    # missing #config would let any search adopt its classes and frontier
    if stored is None or nodes is None:
        raise GirthLabError(f"checkpoint lacks its #config or #nodes line: {path}")
    return classes, hits, nodes, memo, frontier


def generate(config: SearchConfig) -> SearchOutcome:
    """Run the enumeration described by `config`.

    A run resumed from `checkpoint_path` reports the nodes of every run
    since the first in `nodes_expanded`, but `node_budget` applies to this
    call alone.  A resumed run that completes removes its checkpoint.
    """
    config.validate()
    cfg_key = config._key()
    started = time.perf_counter()

    resumed = bool(config.checkpoint_path) and os.path.exists(config.checkpoint_path)
    if resumed:
        classes, hits, nodes, memo, frontier = _read_checkpoint(config.checkpoint_path,
                                                                cfg_key)
    else:
        classes, hits, nodes, memo, frontier = set(), set(), 0, {}, [(0,)]
    budget = config.node_budget
    parts: list[dict] = []
    # the split (see the module docstring): one node per step, the
    # shallowest open state first, each step suspending as a one-worker call
    while (config.worker_count > 1 and 0 < len(frontier) < 16 * config.worker_count
           and budget != 0):
        frontier.sort(key=len, reverse=True)
        parts.append(_run_frontier(frontier, cfg_key, 1, memo))
        frontier = parts[-1].pop("leftover")
        if budget is not None:
            budget -= parts[-1]["nodes"]

    leftover: list[Rows] = []
    if config.worker_count == 1 or len(frontier) <= 1:
        parts.append(_run_frontier(frontier, cfg_key, budget, memo))
    else:
        shares = [frontier[i::config.worker_count] for i in range(config.worker_count)]
        shares = [s for s in shares if s]
        budgets = [budget] * len(shares)
        if budget is not None:
            # split the remaining budget exactly, so that the call expands at
            # most node_budget nodes; the shares past the first `budget` get
            # none, so they start no process and their states are left over
            each, extra = divmod(budget, len(shares))
            budgets = [each + (i < extra) for i in range(len(shares))][:budget]
            leftover = [state for share in shares[budget:] for state in share]
            shares = shares[:budget]
        if shares:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=len(shares)) as pool:
                parts += pool.map(_run_frontier, shares, [cfg_key] * len(shares),
                                  budgets, [memo] * len(shares))
    labelled = 0
    for part in parts:
        classes |= part["classes"]
        hits |= part["hits"]
        nodes += part["nodes"]
        labelled += part["labelled"]
        # a worker's memo is a copy; a call in this process grew `memo` itself
        if part["memo"] is not memo:
            for n, certs in part["memo"].items():
                memo.setdefault(n, set()).update(certs)
        leftover.extend(part.get("leftover", ()))

    outcome = SearchOutcome(nodes_expanded=nodes, leaves_labelled=labelled)
    if leftover:
        outcome.suspended = True
        _write_checkpoint(config.checkpoint_path, cfg_key, classes, hits, nodes, memo,
                          leftover)
        outcome.checkpoint_path = config.checkpoint_path
    elif resumed:
        os.remove(config.checkpoint_path)

    for n in sorted({n for n, _ in classes}):
        certs = sorted(cert for m, cert in classes if m == n)
        outcome.classes_graph6[n] = certs
        outcome.per_n_classes[n] = len(certs)
        hit_certs = sorted(cert for m, cert in hits if m == n)
        if hit_certs:
            outcome.per_n_hits[n] = len(hit_certs)
            outcome.hits_graph6.extend(hit_certs)

    outcome.wall_time = time.perf_counter() - started
    return outcome


def nonexistence_lambda(k: int, epsilon2: int) -> int:
    """Per-vertex girth-cycle count (k(k-1)^2 - epsilon2)/2 that
    `confirm_nonexistence` filters on, for epsilon2 `in_excluded_range`."""
    if not in_excluded_range(k, epsilon2):
        raise ValueError(f"epsilon2 must lie in (0, k-1], got {epsilon2}")
    if epsilon2 % 2:
        raise ValueError(f"epsilon2 = {epsilon2} makes the target count non-integral")
    return vertex_cycle_bound(k, 5) - epsilon2 // 2


def confirm_nonexistence(k: int, epsilon2: int, n_max: int, **kwargs) -> SearchOutcome:
    """Exhaustively verify that no connected k-regular girth-5 graph with
    n <= n_max has every vertex on exactly (k(k-1)^2 - epsilon2)/2 shortest
    cycles, for 0 < epsilon2 <= k-1.  A hit sets `contradiction` and would
    mean an engine bug."""
    outcome = find_vgr(k, 5, nonexistence_lambda(k, epsilon2), n_max, **kwargs)
    outcome.contradiction = outcome.total_hits > 0
    return outcome


def find_vgr(k: int, g: int, lam: int, n_max: int, **kwargs) -> SearchOutcome:
    """All isomorphism classes of connected k-regular girth-g graphs with
    every vertex on exactly `lam` shortest cycles, up to n_max vertices."""
    config = SearchConfig(k=k, g=g, n_max=n_max, girth_mode=GIRTH_EXACT,
                          lambda_filter=lam, **kwargs)
    return generate(config)
