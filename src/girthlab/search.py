"""Exhaustive enumeration of connected k-regular graphs with girth at least
(or exactly) g, one representative per isomorphism class, with optional
filtering on the common per-vertex girth-cycle count.

Growth strategy: complete the lowest-index unsaturated vertex in one step,
choosing a set of existing girth-compatible partners plus a block of fresh
vertices that take the next unused indices.  Girth pruning rejects an edge
(a, b) whenever the current distance between a and b is below g - 1.

Isomorph rejection on partial states: the complete graphs reachable from a
partial state are all k-regular girth-compatible supergraphs that add edges
only at its unsaturated vertices, and neither the pivot order nor the labels
of fresh vertices restricts which those are.  They therefore depend only on
the isomorphism class of the state.  The depth-first search keys every
popped state on its uncoloured canonical graph6 and expands only the first
state of each class, so every class of complete graphs is met at exactly one
leaf.  The memo holds the keys of expanded states only, and every child of
an expanded state is either processed or still open, so the memo stays
valid across a suspension: checkpoints store it next to the open frontier,
and a resumed run skips what earlier runs expanded.  Workers start from the
memo of the split phase (or of the checkpoint) and each grow their own copy,
so a split run may repeat work but never loses a class; their memos are
merged when the run is checkpointed.  A complete
graph is emitted as its canonical graph6 coloured by per-vertex girth-cycle
counts; that string is the class in outputs and checkpoints.
"""
from __future__ import annotations

import json
import os
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

from .canon import canonical_graph6
from .core import Graph, bits, edges_inside, is_connected
from .errors import GirthLabError, InternalInconsistency
from .formats import parse_graph6, write_graph6
from .girth import girth, girth_profile
from .classify import vertex_cycle_bound

GIRTH_EXACT = "exact"
GIRTH_AT_LEAST = "at_least"

CHECKPOINT_MAGIC = "#girthlab-checkpoint 3"


def default_order_cap(k: int) -> int:
    return 20 if k == 3 else 16


@dataclass(frozen=True)
class SearchConfig:
    """Enumeration parameters.

    `node_budget` caps the nodes expanded by one call of `generate`; a run
    that exhausts it writes its open frontier to `checkpoint_path` (resumed
    from there when the file exists).  `output_path`, when set, receives
    the graph6 lines of all hits."""

    k: int
    g: int
    n_max: int
    girth_mode: str = GIRTH_AT_LEAST
    lambda_filter: int | None = None
    worker_count: int = 1
    node_budget: int | None = None
    cap: int | None = None
    checkpoint_path: str | None = None
    output_path: str | None = None

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


def _children(state: Rows, k: int, g: int, n_max: int) -> list[Rows] | None:
    """Expand one pivot-completion step; None means the state is complete
    (every vertex saturated)."""
    t = len(state)
    deg = [r.bit_count() for r in state]
    unsaturated = [v for v in range(t) if deg[v] < k]
    if not unsaturated:
        return None
    # dead branch: no fresh capacity left and an odd number of missing stubs
    if t == n_max and sum(k - deg[v] for v in unsaturated) % 2:
        return []
    children: list[Rows] = []
    p = unsaturated[0]
    rows = list(state)

    def choose(remaining: int, min_w: int) -> None:
        if remaining == 0:
            children.append(tuple(rows))
            return
        # fill the rest with fresh vertices attached to the pivot
        if t + remaining <= n_max:
            child = rows + [1 << p] * remaining
            child[p] |= ((1 << remaining) - 1) << t
            children.append(tuple(child))
        blocked = _near_mask(rows, p, g - 2)
        for w in range(min_w, t):
            if deg[w] < k and not blocked >> w & 1:
                rows[p] |= 1 << w
                rows[w] |= 1 << p
                deg[w] += 1
                choose(remaining - 1, w + 1)
                rows[p] &= ~(1 << w)
                rows[w] &= ~(1 << p)
                deg[w] -= 1

    choose(k - deg[p], p + 1)
    return children


def _second_shell_counts(rows: Rows) -> list[int]:
    """Per-vertex count of edges inside the second shell; equals the number
    of 5-cycles through the vertex whenever the girth is 5."""
    counts = []
    for v, n1 in enumerate(rows):
        n2 = 0
        for w in bits(n1):
            n2 |= rows[w]
        counts.append(edges_inside(rows, n2 & ~n1 & ~(1 << v)))
    return counts


def _assert_girth_at_least_5(rows: Rows) -> None:
    n = len(rows)
    for v in range(n):
        for w in bits(rows[v] >> (v + 1)):
            if rows[v] & rows[v + 1 + w]:
                raise InternalInconsistency("girth pruning admitted a triangle")
    for v in range(n):
        for w in range(v + 1, n):
            if (rows[v] & rows[w]).bit_count() > 1 and not rows[v] >> w & 1:
                raise InternalInconsistency("girth pruning admitted a 4-cycle")


def _evaluate_complete(state: Rows, cfg_key: dict) -> tuple[int, str, bool] | None:
    """Classify a saturated graph: (order, count-coloured canonical graph6,
    passes filter), or None for exact-girth rejections."""
    n = len(state)
    target = cfg_key["g"]
    if target == 5:
        _assert_girth_at_least_5(state)
        counts = _second_shell_counts(state)
        if not any(counts):
            # no 5-cycle at all: the girth is at least 6
            if cfg_key["girth_mode"] == GIRTH_EXACT:
                return None
            return _evaluate_general(state, cfg_key)
    else:
        return _evaluate_general(state, cfg_key)
    g = Graph(n, state)
    if not is_connected(g):
        raise InternalInconsistency("grown graph is disconnected")
    cert = canonical_graph6(g, colors=counts)
    lam = cfg_key["lambda_filter"]
    hit = lam is not None and len(set(counts)) == 1 and counts[0] == lam
    return n, cert, hit


def _evaluate_general(state: Rows, cfg_key: dict) -> tuple[int, str, bool] | None:
    g = Graph(len(state), state)
    if not is_connected(g):
        raise InternalInconsistency("grown graph is disconnected")
    gr = girth(g)
    if gr is None or gr < cfg_key["g"]:
        raise InternalInconsistency("girth pruning admitted a short cycle")
    if cfg_key["girth_mode"] == GIRTH_EXACT and gr != cfg_key["g"]:
        return None
    profile = girth_profile(g)
    counts = list(profile.per_vertex)
    cert = canonical_graph6(g, colors=counts)
    lam = cfg_key["lambda_filter"]
    hit = False
    if lam is not None:
        values = set(counts)
        hit = len(values) == 1 and values.pop() == lam
    return g.n, cert, hit


def _state_key(state: Rows) -> str:
    """Uncoloured canonical graph6 of a partial state (degrees are its
    colours): equal keys mean equal sets of completions."""
    return canonical_graph6(Graph(len(state), state))


def _run_frontier(frontier: list[Rows], cfg_key: dict, budget: int | None,
                  seen: set[str]) -> dict:
    """Depth-first processing of a frontier of partial graphs that expands
    only the first state of each isomorphism class.

    `seen` is the memo: the keys of states already expanded, by this call
    or by the runs before it; this call adds the keys it expands.  Returns
    per-class sets, the number of first-seen states expanded, the memo, and
    any unexpanded leftover when the node budget runs out.  Changes nothing
    but `seen`: safe as a worker.
    """
    k, g, n_max = cfg_key["k"], cfg_key["g"], cfg_key["n_max"]
    classes: set[tuple[int, str]] = set()
    hits: set[tuple[int, str]] = set()
    stack = list(frontier)
    nodes = 0
    while stack:
        if budget is not None and nodes >= budget:
            return {"classes": classes, "hits": hits, "nodes": nodes, "memo": seen,
                    "leftover": stack}
        state = stack.pop()
        key = _state_key(state)
        if key in seen:
            continue
        seen.add(key)
        nodes += 1
        kids = _children(state, k, g, n_max)
        if kids is None:
            result = _evaluate_complete(state, cfg_key)
            if result is not None:
                n, cert, hit = result
                if (n, cert) in classes:
                    raise InternalInconsistency(
                        "two non-isomorphic leaves share a class certificate")
                classes.add((n, cert))
                if hit:
                    hits.add((n, cert))
            continue
        stack.extend(kids)
    return {"classes": classes, "hits": hits, "nodes": nodes, "memo": seen, "leftover": []}


def _split_frontier(cfg_key: dict, target: int,
                    budget: int | None) -> tuple[list[Rows], list[Rows], set[str]]:
    """Breadth-expand from the root, one state per isomorphism class, until
    at least `target` open states exist or `budget` nodes are expanded.
    Returns the open states, the complete states met on the way, and the
    memo: the keys of the expanded states, one per node."""
    root = (0,)
    open_states: list[tuple[Rows, str]] = [(root, _state_key(root))]
    complete: list[Rows] = []
    seen = {open_states[0][1]}
    memo: set[str] = set()
    while open_states and len(open_states) < target:
        if budget is not None and len(memo) >= budget:
            break
        open_states.sort(key=lambda entry: len(entry[0]))
        state, key = open_states.pop(0)
        memo.add(key)
        kids = _children(state, cfg_key["k"], cfg_key["g"], cfg_key["n_max"])
        if kids is None:
            complete.append(state)
            continue
        for kid in kids:
            key = _state_key(kid)
            if key not in seen:
                seen.add(key)
                open_states.append((kid, key))
    return [state for state, _ in open_states], complete, memo


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
                depth = sum(1 for r in state if r.bit_count() >= cfg_key["k"])
                fh.write(f"{write_graph6(Graph(len(state), state))} {depth}\n")
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
                g6 = line.split()[0]
                frontier.append(parse_graph6(g6).rows)
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
    nodes = 0
    budget = config.node_budget
    resumed = bool(config.checkpoint_path) and os.path.exists(config.checkpoint_path)
    if resumed:
        classes, hits, nodes, memo, frontier = _read_checkpoint(config.checkpoint_path,
                                                                cfg_key)
    elif config.worker_count > 1:
        frontier, complete, memo = _split_frontier(cfg_key, config.worker_count * 16, budget)
        spent = len(memo)
        nodes += spent
        if budget is not None:
            budget -= spent
        for state in complete:
            result = _evaluate_complete(state, cfg_key)
            if result is not None:
                n, cert, hit = result
                classes.add((n, cert))
                if hit:
                    hits.add((n, cert))
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
        with ProcessPoolExecutor(max_workers=config.worker_count) as pool:
            parts = list(pool.map(_run_frontier, shares, [cfg_key] * len(shares),
                                  [budget] * len(shares), [memo] * len(shares)))
    leftover: list[Rows] = []
    for part in parts:
        classes |= part["classes"]
        hits |= part["hits"]
        nodes += part["nodes"]
        memo |= part["memo"]
        leftover.extend(part["leftover"])

    outcome = SearchOutcome(nodes_expanded=nodes)
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

    if config.output_path:
        with open(config.output_path, "w") as fh:
            for cert in outcome.hits_graph6:
                fh.write(cert + "\n")

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
