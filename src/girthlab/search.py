"""Exhaustive enumeration of connected k-regular graphs with girth at least
(or exactly) g, one representative per isomorphism class, with optional
filtering on the common per-vertex girth-cycle count.

Growth strategy: complete the lowest-index unsaturated vertex in one step,
choosing a set of existing girth-compatible partners plus a block of fresh
vertices that take the next unused indices.  Girth pruning rejects an edge
(a, b) whenever the current distance between a and b is below g - 1.

Two cuts run before a child is emitted, so neither costs a canonical
labelling.  The lookahead degree check (`_viable`) drops a child with no
completion: no fresh slot left and an odd number of missing stubs, or an
unsaturated vertex with fewer open partners (fresh slots plus unsaturated
vertices at distance >= g-1) than missing edges.  The twin rule
(`_one_per_row`) tries only the first of the candidate partners that share
a row: swapping two such twins is an automorphism of the partial graph that
fixes the pivot and the partners already chosen, so their children are
isomorphic.  Both are sound under the memo below: a dropped child has no
completion, or has the completions of an emitted sibling up to isomorphism,
so every class is still met, and the memo only ever holds keys of states
that were expanded.  Neither cut changes the canonical form or what a memo
key means.

Isomorph rejection on partial states: the complete graphs reachable from a
partial state are all k-regular girth-compatible supergraphs that add edges
only at its unsaturated vertices, and neither the pivot order nor the labels
of fresh vertices restricts which those are.  They therefore depend only on
the isomorphism class of the state.  The depth-first search keys every
popped state on its canonical graph6 and expands only the first state of
each class, so every class of complete graphs is met at exactly one leaf.
The memo holds the keys of expanded states only, and every child of
an expanded state is either processed or still open, so the memo stays
valid across a suspension: checkpoints store it next to the open frontier,
and a resumed run skips what earlier runs expanded.  Workers start from the
memo of the split phase (or of the checkpoint) and each grow their own copy,
so a split run may repeat work but never loses a class; their memos are
merged when the run is checkpointed.

Spotting a duplicate costs one root-to-leaf path of the refinement tree.
Beside the memo, each call keeps an in-memory index, per order, of the leaf
certificates of every state it walked in full whose key is in the memo.
The certificates one walk meets are an isomorphism invariant, and a
certificate rebuilds its graph (see `canon`), so a popped state whose first
leaf is in the index is isomorphic to a state already expanded, and is
skipped after that one leaf.  Every later state of a class this call
expanded is skipped so: its first leaf is one of that class's certificates.  Every other state is walked in full,
which gives its key; a key already in the memo, from a resumed checkpoint or
the split phase, still marks a duplicate.  The index changes which states
are expanded in no case, only what refusing a duplicate costs, so nodes,
output and checkpoints are the same without it.  `leaves_labelled` counts
the certificates computed by one call, summed over its workers.

A complete graph is emitted as its memo key, the canonical graph6 that
`canonical_graph6` and `are_isomorphic` also compute; that string is the
class in outputs and checkpoints.  Equal keys mean isomorphic graphs, so a
class met by two workers is still emitted once.  Format 4 of the
checkpoint stores these keys; format 3 stored classes canonised with
girth-cycle counts as vertex colours, and is refused.
"""
from __future__ import annotations

import json
import os
import tempfile
import time
from dataclasses import dataclass, field

from .canon import _walk
from .core import Graph, bits, is_connected
from .errors import GirthLabError, InternalInconsistency
from .formats import graph6_line, parse_graph6, write_graph6
from .girth import girth, girth_profile
from .classify import vertex_cycle_bound

GIRTH_EXACT = "exact"
GIRTH_AT_LEAST = "at_least"

CHECKPOINT_MAGIC = "#girthlab-checkpoint 4"


def default_order_cap(k: int) -> int:
    return 20 if k == 3 else 16


@dataclass(frozen=True)
class SearchConfig:
    """Enumeration parameters.

    `node_budget` caps the nodes expanded by one call of `generate`; a run
    that exhausts it writes its open frontier to `checkpoint_path` (resumed
    from there when the file exists)."""

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
        if self.lambda_filter is not None and self.lambda_filter < 0:
            raise ValueError("lambda_filter must be nonnegative")
        if self.worker_count < 1:
            raise ValueError("worker_count must be at least 1")
        if self.node_budget is not None and self.node_budget < 1:
            raise ValueError(f"node_budget must be at least 1, got {self.node_budget}")
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


def _near_mask(rows: list[int], src: int, limit: int) -> int:
    """Vertices within distance `limit` of src in the partial graph."""
    seen = 1 << src
    frontier = seen
    for _ in range(limit):
        nxt = 0
        for v in bits(frontier):
            nxt |= rows[v]
        frontier = nxt & ~seen
        if not frontier:
            break
        seen |= frontier
    return seen


def _viable(rows: list[int], k: int, g: int, n_max: int) -> bool:
    """Lookahead degree check: False only when the partial graph has no
    completion.  It has none when no fresh slot is left and the number of
    missing stubs is odd, or when some unsaturated vertex v has fewer open
    partners than missing edges.  Every new neighbour of v in a completion
    is a fresh vertex or an unsaturated vertex already at distance >= g-1
    (distances only shrink as edges are added), so the open partners of v
    are the `n_max - t` fresh slots and the unsaturated vertices outside
    `_near_mask(rows, v, g-2)`.  With k fresh slots left every vertex has
    enough of them."""
    fresh = n_max - len(rows)
    if fresh >= k:
        return True
    missing = [k - r.bit_count() for r in rows]
    if not fresh and sum(missing) % 2:
        return False
    unsaturated = [v for v, m in enumerate(missing) if m]
    open_mask = sum(1 << v for v in unsaturated)
    for v in unsaturated:
        if missing[v] > fresh and (
                open_mask & ~_near_mask(rows, v, g - 2)).bit_count() + fresh < missing[v]:
            return False
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


def _children(state: Rows, k: int, g: int, n_max: int) -> list[Rows] | None:
    """Expand one pivot-completion step; None means the state is complete
    (every vertex saturated).  Children that fail `_viable` are dropped,
    and of twin partners only the first is tried (`_one_per_row`)."""
    t = len(state)
    deg = [r.bit_count() for r in state]
    unsaturated = [v for v in range(t) if deg[v] < k]
    if not unsaturated:
        return None
    children: list[Rows] = []
    p = unsaturated[0]
    rows = list(state)

    def choose(remaining: int, min_w: int) -> None:
        if remaining == 0:
            if _viable(rows, k, g, n_max):
                children.append(tuple(rows))
            return
        # fill the rest with fresh vertices attached to the pivot
        if t + remaining <= n_max:
            child = rows + [1 << p] * remaining
            child[p] |= ((1 << remaining) - 1) << t
            if _viable(child, k, g, n_max):
                children.append(tuple(child))
        blocked = _near_mask(rows, p, g - 2)
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
    return children


def _evaluate(state: Rows, cfg_key: dict) -> bool | None:
    """Check a saturated graph and apply the filter: whether it is a hit,
    or None for an exact-girth rejection.  The girth-cycle profile is
    computed, and validated, only when a count is filtered on."""
    g = Graph(len(state), state)
    if not is_connected(g):
        raise InternalInconsistency("grown graph is disconnected")
    gr = girth(g)
    if gr is None or gr < cfg_key["g"]:
        raise InternalInconsistency("girth pruning admitted a short cycle")
    if cfg_key["girth_mode"] == GIRTH_EXACT and gr != cfg_key["g"]:
        return None
    lam = cfg_key["lambda_filter"]
    return lam is not None and set(girth_profile(g).per_vertex) == {lam}


def _record(state: Rows, key: str, cfg_key: dict, classes: set, hits: set) -> None:
    """File a complete state under its memo key, the class string."""
    hit = _evaluate(state, cfg_key)
    if hit is not None:
        classes.add((len(state), key))
        if hit:
            hits.add((len(state), key))


def _admit(state: Rows, seen: set[str], index: dict[int, set[int]]
           ) -> tuple[str | None, int]:
    """Memo test of one state: (key, leaves labelled), where the key, its
    canonical graph6, is added to `seen`, or is None when a state of its
    class is in `seen` already.  ``index[n]`` holds the leaf certificates of
    the order-n states walked here whose keys are in `seen`; a state whose
    first leaf is among them is isomorphic to one of them, and is refused
    after one root-to-leaf path."""
    n = len(state)
    known = index.setdefault(n, set())
    leaves, visited = _walk(state, known)
    if leaves is None:
        return None, visited
    known.update(leaves)
    key = graph6_line(n, min(leaves))
    if key in seen:
        return None, visited
    seen.add(key)
    return key, visited


def _run_frontier(frontier: list[Rows], cfg_key: dict, budget: int | None,
                  seen: set[str]) -> dict:
    """Depth-first processing of a frontier of partial graphs that expands
    only the first state of each isomorphism class.

    `seen` is the memo: the keys of states already expanded, by this call
    or by the runs before it; this call adds the keys it expands.  Returns
    per-class sets, the number of first-seen states expanded, the leaves
    labelled, the memo, and any unexpanded leftover when the node budget
    runs out.  Changes nothing but `seen`: safe as a worker.
    """
    k, g, n_max = cfg_key["k"], cfg_key["g"], cfg_key["n_max"]
    classes: set[tuple[int, str]] = set()
    hits: set[tuple[int, str]] = set()
    index: dict[int, set[int]] = {}
    stack = list(frontier)
    nodes = labelled = 0
    while stack:
        if budget is not None and nodes >= budget:
            return {"classes": classes, "hits": hits, "nodes": nodes,
                    "labelled": labelled, "memo": seen, "leftover": stack}
        state = stack.pop()
        key, visited = _admit(state, seen, index)
        labelled += visited
        if key is None:
            continue
        nodes += 1
        kids = _children(state, k, g, n_max)
        if kids is None:
            _record(state, key, cfg_key, classes, hits)
            continue
        stack.extend(kids)
    return {"classes": classes, "hits": hits, "nodes": nodes, "labelled": labelled,
            "memo": seen, "leftover": []}


def _split_frontier(cfg_key: dict, target: int, budget: int | None
                    ) -> tuple[list[Rows], list[tuple[Rows, str]], set[str], int]:
    """Breadth-expand from the root, one state per isomorphism class, until
    at least `target` open states exist or `budget` nodes are expanded.
    Returns the open states, the complete states met on the way with their
    keys, the memo (the keys of the expanded states, one per node) and the
    leaves labelled."""
    root = (0,)
    seen: set[str] = set()
    index: dict[int, set[int]] = {}
    key, labelled = _admit(root, seen, index)
    open_states: list[tuple[Rows, str]] = [(root, key)]
    complete: list[tuple[Rows, str]] = []
    memo: set[str] = set()
    while open_states and len(open_states) < target:
        if budget is not None and len(memo) >= budget:
            break
        open_states.sort(key=lambda entry: len(entry[0]))
        state, key = open_states.pop(0)
        memo.add(key)
        kids = _children(state, cfg_key["k"], cfg_key["g"], cfg_key["n_max"])
        if kids is None:
            complete.append((state, key))
            continue
        for kid in kids:
            key, visited = _admit(kid, seen, index)
            labelled += visited
            if key is not None:
                open_states.append((kid, key))
    return [state for state, _ in open_states], complete, memo, labelled


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
            for key in sorted(memo):
                fh.write(f"#memo {key}\n")
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
    memo: set[str] = set()
    frontier: list[Rows] = []
    nodes = 0
    with open(path) as fh:
        header = fh.readline().strip()
        if header != CHECKPOINT_MAGIC:
            raise GirthLabError(f"not a checkpoint file: {path}")
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
                memo.add(line.split(" ", 1)[1])
            else:
                # a frontier line; older format-4 writers appended a depth
                # column, which nothing reads
                frontier.append(parse_graph6(line.split()[0]).rows)
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

    classes: set[tuple[int, str]] = set()
    hits: set[tuple[int, str]] = set()
    memo: set[str] = set()
    nodes = labelled = 0
    budget = config.node_budget
    resumed = bool(config.checkpoint_path) and os.path.exists(config.checkpoint_path)
    if resumed:
        classes, hits, nodes, memo, frontier = _read_checkpoint(config.checkpoint_path,
                                                                cfg_key)
    elif config.worker_count > 1:
        frontier, complete, memo, labelled = _split_frontier(
            cfg_key, config.worker_count * 16, budget)
        spent = len(memo)
        nodes += spent
        if budget is not None:
            budget -= spent
        for state, key in complete:
            _record(state, key, cfg_key, classes, hits)
    else:
        frontier = [(0,)]

    # budget == 0: the split used the whole budget, so its frontier is left over
    if config.worker_count == 1 or len(frontier) <= 1 or budget == 0:
        parts = [_run_frontier(frontier, cfg_key, budget, memo)]
    else:
        shares = [frontier[i::config.worker_count] for i in range(config.worker_count)]
        shares = [s for s in shares if s]
        if budget is not None:
            budget = max(1, budget // len(shares))
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=config.worker_count) as pool:
            parts = list(pool.map(_run_frontier, shares, [cfg_key] * len(shares),
                                  [budget] * len(shares), [memo] * len(shares)))
    leftover: list[Rows] = []
    for part in parts:
        classes |= part["classes"]
        hits |= part["hits"]
        nodes += part["nodes"]
        labelled += part["labelled"]
        memo |= part["memo"]
        leftover.extend(part["leftover"])

    outcome = SearchOutcome(nodes_expanded=nodes, leaves_labelled=labelled)
    if leftover:
        outcome.suspended = True
        path = config.checkpoint_path or f"girthlab-checkpoint-k{config.k}g{config.g}.txt"
        _write_checkpoint(path, cfg_key, classes, hits, nodes, memo, leftover)
        outcome.checkpoint_path = path
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
    `confirm_nonexistence` filters on, for 0 < epsilon2 <= k-1."""
    if not 0 < epsilon2 <= k - 1:
        raise ValueError(f"epsilon2 must lie in (0, k-1], got {epsilon2}")
    lam2 = k * (k - 1) ** 2 - epsilon2
    if lam2 % 2:
        raise ValueError(f"epsilon2 = {epsilon2} makes the target count non-integral")
    return lam2 // 2


def confirm_nonexistence(k: int, epsilon2: int, n_max: int, **kwargs) -> SearchOutcome:
    """Exhaustively verify that no connected k-regular girth-5 graph with
    n <= n_max has every vertex on exactly (k(k-1)^2 - epsilon2)/2 shortest
    cycles, for 0 < epsilon2 <= k-1.  A hit sets `contradiction` and would
    mean an engine bug."""
    config = SearchConfig(k=k, g=5, n_max=n_max, girth_mode=GIRTH_EXACT,
                          lambda_filter=nonexistence_lambda(k, epsilon2), **kwargs)
    outcome = generate(config)
    outcome.contradiction = outcome.total_hits > 0
    return outcome


def find_vgr(k: int, g: int, lam: int, n_max: int, **kwargs) -> SearchOutcome:
    """All isomorphism classes of connected k-regular girth-g graphs with
    every vertex on exactly `lam` shortest cycles, up to n_max vertices."""
    bound = vertex_cycle_bound(k, g)
    if lam > bound:
        raise ValueError(f"lambda {lam} above the per-vertex maximum {bound}")
    config = SearchConfig(k=k, g=g, n_max=n_max, girth_mode=GIRTH_EXACT,
                          lambda_filter=lam, **kwargs)
    return generate(config)
