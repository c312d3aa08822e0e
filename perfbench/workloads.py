"""Benchmark workloads: inputs built from the seed, one operation, and the
correctness gates applied to what the operations produced.

Every call into girthlab goes through a module attribute (``G.generate``,
``G.canonical_graph6``, ...) so that the traced run sees it.
"""
from __future__ import annotations

import random
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import permutations

import girthlab as G

# Per-order class counts from the published enumerations.
CUBIC_GIRTH5_CLASSES = {10: 1, 12: 2, 14: 9, 16: 49}  # OEIS A014372
QUARTIC_GIRTH4_CLASSES = {8: 1, 10: 2, 11: 2, 12: 12}  # OEIS A033886


def hoffman_singleton() -> G.Graph:
    """Pentagons P_h and pentagrams Q_i (h, i in Z5); vertex j of P_h is
    joined to vertex h*i + j of Q_i."""
    def p(h, j):
        return 5 * h + j

    def q(i, j):
        return 25 + 5 * i + j

    edges = []
    for h in range(5):
        for j in range(5):
            edges.append((p(h, j), p(h, (j + 1) % 5)))
            edges.append((q(h, j), q(h, (j + 2) % 5)))
            for i in range(5):
                edges.append((p(h, j), q(i, (h * i + j) % 5)))
    return G.graph_from_edges(50, edges)


def cayley_a5() -> G.Graph:
    """Cubic Cayley graph of A5 on {a, b, b^-1}: girth 5, every vertex on
    exactly one 5-cycle, and 600 case-B pairs for the audit."""
    even = [p for p in permutations(range(5))
            if sum(p[i] > p[j] for i in range(5) for j in range(i + 1, 5)) % 2 == 0]
    index = {p: i for i, p in enumerate(even)}
    a, b = (0, 2, 1, 4, 3), (1, 3, 4, 2, 0)
    b_inv = tuple(b.index(i) for i in range(5))
    edges = {tuple(sorted((index[p], index[tuple(p[s[i]] for i in range(5))])))
             for p in even for s in (a, b, b_inv)}
    return G.graph_from_edges(len(even), sorted(edges))


def relabel(g: G.Graph, rng: random.Random) -> G.Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return G.graph_from_edges(g.n, [(perm[i], perm[j]) for i, j in g.edges()])


def random_cubic_girth5(n: int, rng: random.Random) -> G.Graph:
    """Connected cubic graph of girth at least 5: join random unsaturated
    vertices at distance at least 4, restarting when stuck."""
    while True:
        rows = [0] * n
        open_ = list(range(n))
        while open_:
            u = rng.choice(open_)
            near = seen = 1 << u
            for _ in range(3):
                reach = 0
                for v in G.bits(near):
                    reach |= rows[v]
                near = reach & ~seen
                seen |= near
            partners = [v for v in open_ if not seen >> v & 1]
            if not partners:
                break
            v = rng.choice(partners)
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            open_ = [w for w in open_ if rows[w].bit_count() < 3]
        else:
            g = G.graph_from_rows(rows)
            if G.is_connected(g):
                return g


# Named corpus graphs: (base name, constructor, seeded relabellings, girth, λ).
# Hoffman–Singleton is absent here and enters once in its construction
# labelling: its canonical-labelling cost swings by two orders of magnitude
# with the labelling, which would make the corpus time a function of the seed.
NAMED = (
    ("petersen", G.petersen_graph, 6, 5, 6),
    ("dodecahedron", G.dodecahedron_graph, 8, 5, 3),
    ("heawood", G.heawood_graph, 6, 6, 12),
    ("cayley-a5", cayley_a5, 12, 5, 1),
)
HOFFMAN_SINGLETON = ("hoffman-singleton", 5, 126)
RANDOM_ORDERS = range(40, 65, 2)
RANDOM_PER_ORDER = 3


def timed(clock, key, fn, *args):
    """fn(*args) and its latency (key, start, end, net seconds), where the
    net time leaves out the reference samples `clock` took meanwhile."""
    spent, started = clock.spent, time.perf_counter()
    result = fn(*args)
    ended = time.perf_counter()
    return result, (key, started, ended, ended - started - (clock.spent - spent))


@dataclass
class OpData:
    """What one operation produced: per-graph latencies as (graph index,
    start, end, seconds net of reference-clock samples), exact counts, and
    the records the gates read."""

    latencies: list[tuple[int, float, float, float]] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    records: list[dict] = field(default_factory=list)
    graphs: list[str] = field(default_factory=list)
    per_n_classes: dict[int, int] = field(default_factory=dict)
    suspended: bool = False


class SearchWorkload:
    """One exhaustive search, then the per-class checks on what it emitted."""

    # A class check takes about a millisecond, and a search emits its 17 or
    # 61 classes only a few times a run: after the timed loop the classes are
    # checked again, round robin, for this many seconds, so that the
    # per-graph latencies sample seconds of the run rather than milliseconds.
    recheck_seconds = 6.0

    def __init__(self, k: int, g: int, n_max: int, expected: dict[int, int]):
        self.k, self.g, self.expected = k, g, expected
        self.config = G.SearchConfig(k=k, g=g, n_max=n_max)

    def run_op(self, clock) -> OpData:
        outcome = G.generate(self.config)
        data = OpData(per_n_classes=dict(outcome.per_n_classes),
                      suspended=outcome.suspended)
        data.counts = {"search.nodes": outcome.nodes_expanded,
                       "search.classes": outcome.total_classes}
        data.graphs = [cert for certs in outcome.classes_graph6.values() for cert in certs]
        for i, cert in enumerate(data.graphs):
            record, latency = timed(clock, i, check_class, cert, self.k)
            data.records.append(record)
            data.latencies.append(latency)
        return data

    def recheck(self, data: OpData, clear_caches, clock) -> list[tuple[int, float, float, float]]:
        """Check latencies of repeated passes over `data`'s classes, each
        pass after `clear_caches()`."""
        latencies = []
        started = time.perf_counter()
        while time.perf_counter() - started < self.recheck_seconds:
            clear_caches()
            latencies += [timed(clock, i, check_class, cert, self.k)[1]
                          for i, cert in enumerate(data.graphs)]
        return latencies

    def failures(self, data: OpData) -> list[tuple[int, str]]:
        """(record index or -1 for the whole search, message) per failed check."""
        out = search_failures(data.records, self.k, self.g, self.expected)
        if data.suspended:
            out.append((-1, "search suspended before exhausting the tree"))
        if data.per_n_classes != self.expected:
            out.append((-1, f"reported per-n classes {data.per_n_classes} != {self.expected}"))
        return out


def check_class(cert: str, k: int) -> dict:
    """Re-derive an emitted class from its graph6 line alone."""
    g = G.parse_graph6(cert)
    return {
        "n": g.n,
        "k_regular": all(r.bit_count() == k for r in g.rows),
        "connected": G.is_connected(g),
        "girth": G.girth(g),
        "canon": G.canonical_graph6(g),
    }


def search_failures(records: list[dict], k: int, g: int,
                    expected: dict[int, int]) -> list[tuple[int, str]]:
    out = []
    for i, rec in enumerate(records):
        if not (rec["k_regular"] and rec["connected"]):
            out.append((i, f"class {i} is not a connected {k}-regular graph"))
        if rec["girth"] is None or rec["girth"] < g:
            out.append((i, f"class {i} has girth {rec['girth']} < {g}"))
    counts = dict(sorted(Counter(rec["n"] for rec in records).items()))
    if counts != expected:
        out.append((-1, f"per-n class counts {counts} != {expected}"))
    seen: dict[str, int] = {}
    for i, rec in enumerate(records):
        if rec["canon"] in seen:
            out.append((i, f"classes {seen[rec['canon']]} and {i} are isomorphic"))
        seen.setdefault(rec["canon"], i)
    return out


class CorpusWorkload:
    """Every stage of girthlab on each graph of a seeded corpus."""

    # A pass times 111 graphs over several seconds; no extra checks needed.
    recheck_seconds = 0.0

    def __init__(self, seed: int):
        self.entries = build_corpus(seed)

    def run_op(self, clock) -> OpData:
        data = OpData()
        for i, (_, graph) in enumerate(self.entries):
            record, latency = timed(clock, i, analyse, graph)
            data.records.append(record)
            data.latencies.append(latency)
        data.counts = {"audit.pairs": sum(rec["pairs"] for rec in data.records)}
        return data

    def recheck(self, data: OpData, clear_caches, clock) -> list[tuple[int, float, float, float]]:
        return []

    def failures(self, data: OpData) -> list[tuple[int, str]]:
        return corpus_failures(self.entries, data.records)


def build_corpus(seed: int) -> list[tuple[str, G.Graph]]:
    """(base name, graph) pairs; graphs sharing a base name are relabellings
    of one another."""
    rng = random.Random(seed)
    entries = []
    for name, make, copies, _, _ in NAMED:
        base = make()
        entries += [(name, relabel(base, rng)) for _ in range(copies)]
    entries.append((HOFFMAN_SINGLETON[0], hoffman_singleton()))
    for n in RANDOM_ORDERS:
        for i in range(RANDOM_PER_ORDER):
            g = random_cubic_girth5(n, rng)
            entries += [(f"random-{n}-{i}", g), (f"random-{n}-{i}", relabel(g, rng))]
    return entries


def analyse(g: G.Graph) -> dict:
    """Round trip through graph6, girth, both profile engines where they
    apply, classification, bounds, canonical form, and for a
    vertex-girth-regular girth-5 graph the audit under its true λ and
    under a forged one."""
    h = G.parse_graph6(G.write_graph6(g))
    girth = G.girth(h)
    paths = G.girth_profile(h, "paths")
    regular = len({r.bit_count() for r in h.rows}) == 1
    fast = G.girth_profile(h, "girth5") if girth == 5 and regular else None
    profile = fast or paths
    rep = G.classify(h, profile)
    bounds = G.check_bounds(h, rep, profile) if rep.k is not None else []
    rec = {
        "round_trip": h.rows == g.rows,
        "engines_agree": fast is None or (fast.per_vertex == paths.per_vertex
                                          and fast.per_edge == paths.per_edge),
        "bounds_hold": all(b.holds for b in bounds),
        "invariants": (girth, rep.lambda_vertex, rep.is_vgr, rep.is_gr, rep.is_egr),
        "canon": G.canonical_graph6(h),
        "audit_true": None,
        "audit_forged": None,
        "pairs": 0,
    }
    if rep.is_vgr and girth == 5:
        true = G.audit_graph(h)
        forged = G.audit_graph(h, lam=rep.lambda_vertex + 1)
        rec["audit_true"], rec["audit_forged"] = true.all_passed, forged.all_passed
        rec["pairs"] = sum(len(r.case_a) + len(r.case_b) for r in (true, forged))
    return rec


def corpus_failures(entries: list[tuple[str, G.Graph]],
                    records: list[dict]) -> list[tuple[int, str]]:
    known = {name: (girth, lam) for name, _, _, girth, lam in NAMED}
    known[HOFFMAN_SINGLETON[0]] = HOFFMAN_SINGLETON[1:]
    out = []
    groups = defaultdict(list)
    for i, ((name, _), rec) in enumerate(zip(entries, records)):
        groups[name].append(i)
        for key in ("round_trip", "engines_agree", "bounds_hold"):
            if not rec[key]:
                out.append((i, f"{name} #{i}: {key} failed"))
        if rec["audit_true"] is False:
            out.append((i, f"{name} #{i}: audit with the true count failed"))
        if rec["audit_forged"] is True:
            out.append((i, f"{name} #{i}: audit with a forged count passed"))
        if name in known and rec["invariants"][:2] != known[name]:
            out.append((i, f"{name} #{i}: (girth, λ) {rec['invariants'][:2]} != {known[name]}"))
        if name in known and known[name][0] == 5 and rec["audit_true"] is None:
            out.append((i, f"{name} #{i}: girth-5 vertex-girth-regular graph was not audited"))
    for name, members in groups.items():
        for key in ("invariants", "canon"):
            if len({records[i][key] for i in members}) > 1:
                out += [(i, f"{name}: {key} differ across relabellings") for i in members]
    return out


WORKLOADS = {
    "search-cubic-g5": lambda seed: SearchWorkload(3, 5, 16, CUBIC_GIRTH5_CLASSES),
    "search-quartic-g4": lambda seed: SearchWorkload(4, 4, 12, QUARTIC_GIRTH4_CLASSES),
    "corpus-audit": CorpusWorkload,
}
