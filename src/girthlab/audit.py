"""Executable audit of the counting identities, partitions, and
inequalities that govern 5-cycle counts in k-regular girth-5 graphs.

Every operation measures exact left/right sides on a concrete graph.  The
deficit quantity handled throughout is 2e = k(k-1)^2 - 2*lambda, the number
of edges leaving any vertex's second shell when lambda is the true common
per-vertex 5-cycle count; audits run with a claimed lambda and report which
relations that claim satisfies.  Relations whose derivation needs only the
girth and regularity are asserted outright: their failure means an engine
bug, not an interesting finding.
"""
from __future__ import annotations

import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from .classify import classify
from .core import Graph, bit_list, bits, edges_inside, is_connected, regularity
from .errors import (
    CaseMismatch,
    InternalInconsistency,
    NotEligible,
    PropertyViolated,
)
from .formats import write_graph6
from .girth import girth, girth_profile, shell_decompose


def _between(g: Graph, a: int, b: int) -> int:
    """Edges from `a` to `b`; the masks must be disjoint."""
    return sum((g.rows[v] & b).bit_count() for v in bits(a))


def _require_girth5_regular(g: Graph) -> int:
    is_reg, k = regularity(g)
    if not is_reg or k is None or k < 3:
        raise NotEligible("audits need a k-regular graph with k >= 3")
    if girth(g) != 5:
        raise NotEligible(f"audits need girth 5, got {girth(g)}")
    return k


RELATION_TESTS = {
    "<=": lambda l, r: l <= r,
    ">=": lambda l, r: l >= r,
    "=": lambda l, r: l == r,
    "<": lambda l, r: l < r,
}


@dataclass(frozen=True)
class InequalityRecord:
    """One audited relation, stored exactly as displayed: lhs relation rhs."""

    name: str
    lhs: int
    rhs: int
    relation: str
    holds: bool
    context: str = ""

    @staticmethod
    def make(name: str, lhs: int, relation: str, rhs: int, context: str = "") -> "InequalityRecord":
        return InequalityRecord(name, lhs, rhs, relation,
                                RELATION_TESTS[relation](lhs, rhs), context)


@dataclass(frozen=True)
class OuterEdgeAudit:
    """Count of edges leaving the second shell of `root` against the value
    2e = k(k-1)^2 - 2*lambda forced by a claimed lambda."""

    root: int
    two_eps_expected: int
    outer_edges_found: int
    passed: bool


def audit_outer_edges(g: Graph, u: int, lam: int) -> OuterEdgeAudit:
    """Measure |E(N2(u), exterior)| and compare with k(k-1)^2 - 2*lambda.

    The unconditional degree identity (k-1)|N2(u)| = 2|E(N2,N2)| + outer is
    asserted as well; it cannot fail on a regular girth-5 graph.
    """
    k = _require_girth5_regular(g)
    shells = shell_decompose(g, u)
    outer = _between(g, shells.n2, shells.n3plus)
    inner = edges_inside(g.rows, shells.n2)
    if (k - 1) * shells.n2.bit_count() != 2 * inner + outer:
        raise InternalInconsistency(
            f"second-shell degree identity failed at root {u}"
        )
    expected = k * (k - 1) ** 2 - 2 * lam
    return OuterEdgeAudit(u, expected, outer, outer == expected)


@dataclass(frozen=True)
class MainPropertyAudit:
    """Exhaustive list of triples (v1, v2, w) with v1, v2 distinct in the
    second shell of `root` and w a common neighbour outside the first two
    shells; an empty list means the containment property holds."""

    root: int
    violations: tuple[tuple[int, int, int], ...]

    @property
    def holds(self) -> bool:
        return not self.violations


def audit_main_property(g: Graph, u: int) -> MainPropertyAudit:
    _require_girth5_regular(g)
    shells = shell_decompose(g, u)
    n2 = bit_list(shells.n2)
    found = []
    for i, v1 in enumerate(n2):
        for v2 in n2[i + 1:]:
            common = g.rows[v1] & g.rows[v2] & shells.n3plus
            for w in bits(common):
                found.append((v1, v2, w))
    return MainPropertyAudit(u, tuple(found))


def _check_v_exterior(g: Graph, shells, v: int) -> None:
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} outside 0..{g.n - 1}")
    if v == shells.root:
        raise ValueError("v must differ from the root")
    if (1 << v) & shells.n1:
        raise ValueError("v lies in N(u): not exterior to the root")
    if (1 << v) & shells.n2:
        raise ValueError("v lies in N2(u): not exterior to the root")


@dataclass(frozen=True)
class CaseAPartition:
    """Audit state for an exterior vertex with at least two second-shell
    neighbours: the split of N2(v) into first-shell, second-shell, and
    exterior parts relative to the root, branch counts, and the relation
    records built from them."""

    root: int
    v: int
    lam: int
    two_eps: int
    v_a: tuple[int, ...]
    v_b: tuple[int, ...]
    v_c: tuple[int, ...]
    branch_sets: tuple[tuple[int, ...], ...]
    d: tuple[int, ...]
    a: tuple[int, ...]
    y: int
    x: int | None
    eps_in_range: bool
    records: tuple[InequalityRecord, ...]

    @property
    def all_hold(self) -> bool:
        return all(r.holds for r in self.records)

    @property
    def d_sum_on_va(self) -> int:
        """Sum of d_i over branches adjacent to v (the measurable quantity
        of the two-branch boundary sub-case)."""
        return sum(di for di, ai in zip(self.d, self.a) if ai)


def audit_case_a(g: Graph, u: int, v: int, lam: int) -> CaseAPartition:
    """Evaluate the first-stage displays at a pair (u, v) where v is
    exterior to u and has at least two neighbours in N2(u).

    With the claimed deficit in (0, k-1] the final record certifies the
    strict contradiction bound 2Y < k(k-1)^2 - 2e; otherwise it evaluates
    the two-endpoint maximum form.
    """
    k = _require_girth5_regular(g)
    shells_u = shell_decompose(g, u)
    _check_v_exterior(g, shells_u, v)
    if (g.rows[v] & shells_u.n2).bit_count() < 2:
        raise CaseMismatch(
            f"v={v} has fewer than two neighbours in N2({u}): second stage applies"
        )
    two_eps = k * (k - 1) ** 2 - 2 * lam

    shells_v = shell_decompose(g, v)
    n2v = shells_v.n2
    if n2v >> u & 1:
        raise InternalInconsistency("root inside N2(v) for an exterior v")
    va = n2v & shells_u.n1
    vb = n2v & shells_u.n2
    vc = n2v & ~(shells_u.n1 | shells_u.n2)
    if va | vb | vc != n2v:
        raise InternalInconsistency("V_A, V_B, V_C do not partition N2(v)")
    sa = va.bit_count()
    if sa < 2:
        raise InternalInconsistency("fewer than two first-shell contacts in case A")

    nbrs_u = bit_list(shells_u.n1)
    branch_sets = [g.rows[ui] & ~(1 << u) for ui in nbrs_u]
    nv_outside = g.rows[v] & ~shells_u.n2
    d = [_between(g, b, nv_outside) for b in branch_sets]
    a = [1 if g.rows[v] & b else 0 for b in branch_sets]
    if sum(a) != sa:
        raise InternalInconsistency("branch indicators disagree with |V_A|")

    e_aa = edges_inside(g.rows, va)
    e_ac = _between(g, va, vc)
    if e_aa or e_ac:
        raise InternalInconsistency("edges at V_A that the girth forbids")
    e_ab = _between(g, va, vb)
    e_bb = edges_inside(g.rows, vb)
    e_bc = _between(g, vb, vc)
    e_cc = edges_inside(g.rows, vc)
    y = edges_inside(g.rows, n2v)
    if y != e_ab + e_bb + e_bc + e_cc:
        raise InternalInconsistency("5-cycle count of v disagrees with the partition")

    d_dot_a = sum(di * ai for di, ai in zip(d, a))
    recs = [
        InequalityRecord.make("VC_induced", (k - 1) * vc.bit_count(), ">=",
                              2 * e_cc + e_bc),
        InequalityRecord.make("VB_induced", (k - 1) * vb.bit_count(), ">=",
                              e_ab + 2 * e_bb + e_bc),
        InequalityRecord.make("VAg", sum(d) + sum(a), "<=", two_eps),
        InequalityRecord.make("TwoEpsVA", d_dot_a, "<=", two_eps - sa),
        InequalityRecord.make("EAB", e_ab, "<=", d_dot_a + sa * (sa - 1)),
    ]
    eps_in_range = 0 < two_eps <= k - 1
    if eps_in_range:
        recs.append(InequalityRecord.make(
            "Y_bound_caseA", 2 * y, "<", k * (k - 1) ** 2 - two_eps,
            context="deficit in the excluded range",
        ))
    else:
        spread = max(2 - 2 * k, two_eps ** 2 - two_eps * (k + 1))
        recs.append(InequalityRecord.make(
            "Y_bound_caseA", 2 * y, "<=", k * (k - 1) ** 2 + two_eps + spread,
        ))

    x = None
    rest = g.rows[v] & ~shells_u.n2
    if sa == two_eps and rest.bit_count() == 1:
        x = rest.bit_length() - 1

    return CaseAPartition(
        root=u, v=v, lam=lam, two_eps=two_eps,
        v_a=tuple(bit_list(va)), v_b=tuple(bit_list(vb)), v_c=tuple(bit_list(vc)),
        branch_sets=tuple(tuple(bit_list(b)) for b in branch_sets),
        d=tuple(d), a=tuple(a), y=y, x=x,
        eps_in_range=eps_in_range, records=tuple(recs),
    )


@dataclass(frozen=True)
class CaseBPartition:
    """Audit state for a distance-3 vertex with a unique second-shell
    neighbour: the refined split of N2(v) through that neighbour, the
    leaf sets of the remaining branches of v, the matching of V_B'' onto
    the crossing edges, and the relation records."""

    root: int
    v: int
    lam: int
    two_eps: int
    v_prime: int
    u1: int
    v_rest: tuple[int, ...]
    v_a: tuple[int, ...]
    v_b: tuple[int, ...]
    v_b_prime: tuple[int, ...]
    v_b_second: tuple[int, ...]
    v_c: tuple[int, ...]
    v_c_prime: tuple[int, ...]
    v_c_second: tuple[int, ...]
    leaf_sets: tuple[tuple[int, ...], ...]
    matching: tuple[tuple[int, int], ...]
    y: int
    eps_in_range: bool
    records: tuple[InequalityRecord, ...]

    @property
    def all_hold(self) -> bool:
        return all(r.holds for r in self.records)


def audit_case_b(g: Graph, u: int, v: int, lam: int) -> CaseBPartition:
    """Evaluate the second-stage displays at a pair (u, v) with v at
    distance 3 from u.

    Preconditions: v has exactly one neighbour v' in N2(u) and the
    common-neighbour containment property holds at u (the distinguished
    vertices are otherwise ambiguous).  Structural claims that follow from
    the girth and that property alone (the V_B''-edge matching being a
    bijection, every leaf set having at least k-2 elements, the count of
    (k-2)-sized leaf sets equalling |V_B''|) are asserted outright.
    """
    k = _require_girth5_regular(g)
    shells_u = shell_decompose(g, u)
    _check_v_exterior(g, shells_u, v)
    contacts = g.rows[v] & shells_u.n2
    if contacts.bit_count() == 0:
        raise CaseMismatch(f"v={v} is beyond distance 3 from {u}")
    if contacts.bit_count() > 1:
        raise CaseMismatch(f"v={v} has several second-shell neighbours: first stage applies")
    violations = audit_main_property(g, u).violations
    if violations:
        raise PropertyViolated(
            f"containment property fails at root {u}; first witness {violations[0]}"
        )
    two_eps = k * (k - 1) ** 2 - 2 * lam
    eps = two_eps // 2 if two_eps % 2 == 0 else None

    v_prime = contacts.bit_length() - 1
    u1_mask = g.rows[v_prime] & shells_u.n1
    if u1_mask.bit_count() != 1:
        raise InternalInconsistency("second-shell vertex with several first-shell contacts")
    u1 = u1_mask.bit_length() - 1
    v_rest = bit_list(g.rows[v] & ~(1 << v_prime))

    shells_v = shell_decompose(g, v)
    n2v = shells_v.n2
    va = n2v & shells_u.n1
    if va != 1 << u1:
        raise InternalInconsistency("V_A is not exactly the distinguished first-shell vertex")
    vb = n2v & shells_u.n2
    vb1 = vb & g.rows[v_prime]
    vb2 = vb & ~g.rows[v_prime]
    vc = n2v & ~(shells_u.n1 | shells_u.n2)
    vc1 = vc & g.rows[v_prime]
    vc2 = vc & ~g.rows[v_prime]

    # absence identity: nothing in V_C' or {v} touches N2(u) beyond v'
    if _between(g, vc1 | (1 << v), shells_u.n2 & ~(1 << v_prime)):
        raise InternalInconsistency("edge from V_C' or v into N2(u) away from v'")

    leaf_sets = [g.rows[vi] & vc2 for vi in v_rest]
    union = 0
    for i, li in enumerate(leaf_sets):
        if li & union:
            raise InternalInconsistency("leaf sets overlap")
        union |= li
        if edges_inside(g.rows, li):
            raise InternalInconsistency("edge inside a leaf set")
    if union != vc2:
        raise InternalInconsistency("leaf sets do not cover V_C''")

    # matching of V_B'' onto edges from N(v) minus v' into N2(u)
    matching: list[tuple[int, int]] = []
    rest_mask = g.rows[v] & ~(1 << v_prime)
    for w in bit_list(vb2):
        partners = g.rows[w] & rest_mask
        if partners.bit_count() != 1:
            raise InternalInconsistency(f"V_B'' vertex {w} with {partners.bit_count()} partners")
        matching.append((w, partners.bit_length() - 1))
    crossing = _between(g, rest_mask, shells_u.n2)
    if crossing != vb2.bit_count():
        raise InternalInconsistency("crossing-edge matching is not a bijection")
    vb2_at_u1 = vb2 & g.rows[u1]
    if _between(g, rest_mask, shells_u.n2 & g.rows[u1]) != vb2_at_u1.bit_count():
        raise InternalInconsistency("restricted crossing-edge matching is not a bijection")

    sizes = [li.bit_count() for li in leaf_sets]
    if any(s < k - 2 for s in sizes):
        raise InternalInconsistency("leaf set smaller than k-2")
    if sum(1 for s in sizes if s == k - 2) != vb2.bit_count():
        raise InternalInconsistency("count of minimum leaf sets differs from |V_B''|")

    e_ab = _between(g, va, vb)
    e_bb = edges_inside(g.rows, vb)
    e_bc = _between(g, vb, vc)
    e_cc = edges_inside(g.rows, vc)
    y = edges_inside(g.rows, n2v)
    if y != e_ab + e_bb + e_bc + e_cc:
        raise InternalInconsistency("5-cycle count of v disagrees with the partition")

    s_b2 = vb2.bit_count()
    s_c1 = vc1.bit_count()
    e_b_c2 = _between(g, vb, vc2)
    e_c2_b = _between(g, vc2, vb)
    out_mask = g.vertex_mask() & ~(va | vb | vc)
    out_far = out_mask & ~(g.rows[v] | (1 << v))

    recs = [
        InequalityRecord.make("VB_induced", (k - 1) * vb.bit_count(), ">=",
                              e_ab + 2 * e_bb + e_bc),
        InequalityRecord.make(
            "VC_induced_new", (k - 1) * vc.bit_count(), ">=",
            2 * e_cc + e_bc + (k - 1) * (k - 1 - s_c1) - s_b2 - e_c2_b,
        ),
        InequalityRecord.make("outer_bound1",
                              s_b2 + s_c1 + 1 + e_b_c2, "<=", two_eps),
        InequalityRecord.make("outer_bound2",
                              2 * (vb2_at_u1.bit_count() + s_c1 + 1), "<=", two_eps,
                              context="doubled form of the half-deficit bound"),
        InequalityRecord.make("EAB_new", e_ab, "=", vb2_at_u1.bit_count()),
    ]
    sum_leaf_slack = 0
    for i, (vi, li) in enumerate(zip(v_rest, leaf_sets), start=1):
        ctx = f"i={i}"
        e_li_c1 = _between(g, li, vc1)
        e_li_c2 = _between(g, li, vc2 & ~li)
        e_li_b = _between(g, li, vb)
        e_li_out = _between(g, li, out_mask & ~(1 << vi))
        recs.append(InequalityRecord.make("LCprime", e_li_c1, "<=", s_c1, ctx))
        recs.append(InequalityRecord.make("LCdoubleprime", e_li_c2, "<=",
                                          li.bit_count() * (k - 2), ctx))
        recs.append(InequalityRecord.make(
            "Li_expansion", (k - 1) * li.bit_count(), "=",
            e_li_c2 + e_li_c1 + e_li_b + e_li_out, ctx,
        ))
        sum_leaf_slack += li.bit_count() - s_c1
    recs.append(InequalityRecord.make(
        "Vout_bound", _between(g, vc2, out_far) + _between(g, vc2, vb), ">=",
        sum_leaf_slack,
    ))
    eps_in_range = 0 < two_eps <= k - 1
    if eps_in_range:
        recs.append(InequalityRecord.make(
            "Y_bound_caseB", 2 * y, "<", k * (k - 1) ** 2 - two_eps,
            context="deficit in the excluded range",
        ))
    else:
        assert eps is not None
        recs.append(InequalityRecord.make(
            "Y_bound_caseB", 2 * y, "<=",
            k * (k - 1) ** 2 - (k - 1) * (k - s_c1) + 3 * eps - 2 * s_c1 - 2,
        ))

    return CaseBPartition(
        root=u, v=v, lam=lam, two_eps=two_eps, v_prime=v_prime, u1=u1,
        v_rest=tuple(v_rest),
        v_a=tuple(bit_list(va)), v_b=tuple(bit_list(vb)),
        v_b_prime=tuple(bit_list(vb1)), v_b_second=tuple(bit_list(vb2)),
        v_c=tuple(bit_list(vc)), v_c_prime=tuple(bit_list(vc1)),
        v_c_second=tuple(bit_list(vc2)),
        leaf_sets=tuple(tuple(bit_list(li)) for li in leaf_sets),
        matching=tuple(sorted(matching)),
        y=y, eps_in_range=eps_in_range, records=tuple(recs),
    )


@dataclass(frozen=True)
class GPrimeAudit:
    """Branch-pair edge multiplicities: entry (i, j) counts the edges of
    N2(u) between the branches of the i-th and j-th neighbours of u."""

    root: int
    u1_index: int
    lam: int
    matrix: tuple[tuple[int, ...], ...]
    records: tuple[InequalityRecord, ...]

    @property
    def all_hold(self) -> bool:
        return all(r.holds for r in self.records)

    @property
    def degree_record(self) -> InequalityRecord:
        return next(r for r in self.records if r.name == "Gprime_degree")


def audit_gprime_degree(g: Graph, u: int, u1_index: int, lam: int) -> GPrimeAudit:
    """Build the k x k branch-multiplicity matrix at `u` and audit: total
    multiplicity = k(k-1)^2/2 - e, every entry at most k-1, and the row sum
    of the selected branch at least (k-1)^2 - e.  `u1_index` is 1-based."""
    k = _require_girth5_regular(g)
    shells = shell_decompose(g, u)
    nbrs = bit_list(shells.n1)
    if not 1 <= u1_index <= k:
        raise ValueError(f"u1_index must be in 1..{k}, got {u1_index}")
    branches = [g.rows[ui] & ~(1 << u) for ui in nbrs]
    matrix = [[0] * k for _ in range(k)]
    for i in range(k):
        if edges_inside(g.rows, branches[i]):
            raise InternalInconsistency("edge inside a branch set")
        for j in range(i + 1, k):
            m = _between(g, branches[i], branches[j])
            matrix[i][j] = matrix[j][i] = m
    two_eps = k * (k - 1) ** 2 - 2 * lam
    if two_eps % 2:
        raise InternalInconsistency(f"odd deficit {two_eps} from claimed count {lam}")
    eps = two_eps // 2
    row = u1_index - 1
    degree = sum(matrix[row])
    total = sum(matrix[i][j] for i in range(k) for j in range(i + 1, k))
    recs = (
        InequalityRecord.make("Gprime_edges", total, "=", lam),
        InequalityRecord.make("Gprime_entry",
                              max(matrix[i][j] for i in range(k) for j in range(i + 1, k)),
                              "<=", k - 1),
        InequalityRecord.make("Gprime_degree", degree, ">=", (k - 1) ** 2 - eps),
    )
    return GPrimeAudit(u, u1_index, lam, tuple(tuple(r) for r in matrix), recs)


@dataclass
class AuditReport:
    """Aggregated audit of one graph: outer-edge and containment audits at
    every root, case records for every dispatched exterior pair, and a
    summary."""

    graph6: str
    n: int
    k: int
    lam: int
    outer: list[OuterEdgeAudit] = field(default_factory=list)
    main_property: list[MainPropertyAudit] = field(default_factory=list)
    case_a: list[CaseAPartition] = field(default_factory=list)
    case_b: list[CaseBPartition] = field(default_factory=list)
    skipped_pairs: list[tuple[int, int, str]] = field(default_factory=list)
    far_pairs: int = 0
    all_passed: bool = True
    first_failure: str | None = None

    def _fail(self, message: str) -> None:
        if self.all_passed:
            self.all_passed = False
            self.first_failure = message


def _audit_at_root(args) -> tuple:
    g, u, lam, pair_filter = args
    shells = shell_decompose(g, u)
    outer = audit_outer_edges(g, u, lam)
    mp = audit_main_property(g, u)
    case_a: list[CaseAPartition] = []
    case_b: list[CaseBPartition] = []
    skipped: list[tuple[int, int, str]] = []
    far = 0
    for v in bit_list(shells.n3plus):
        if pair_filter is not None and (u, v) not in pair_filter:
            continue
        contacts = (g.rows[v] & shells.n2).bit_count()
        if contacts >= 2:
            case_a.append(audit_case_a(g, u, v, lam))
        elif contacts == 1:
            if mp.holds:
                case_b.append(audit_case_b(g, u, v, lam))
            else:
                skipped.append((u, v, "containment property fails at this root"))
        else:
            far += 1
    return outer, mp, case_a, case_b, skipped, far


def audit_graph(
    g: Graph,
    lam: int | None = None,
    scope: str | tuple = "all",
    workers: int = 1,
) -> AuditReport:
    """Audit every root of a connected vertex-girth-regular girth-5 graph.

    `lam` defaults to the measured common per-vertex count; passing a
    different value exercises the forged-claim paths.  `scope` is "all" or
    ("sample", count, seed) to restrict the exterior pairs audited;
    outer-edge and containment audits always run at every root.
    """
    is_reg, k = regularity(g)
    if not is_connected(g):
        raise NotEligible("audit needs a connected graph")
    if not is_reg or k is None or k < 3:
        raise NotEligible("audit needs a k-regular graph with k >= 3")
    if girth(g) != 5:
        raise NotEligible(f"audit needs girth 5, got {girth(g)}")
    profile = girth_profile(g)
    counts = set(profile.per_vertex)
    if len(counts) != 1:
        lo, hi = min(profile.per_vertex), max(profile.per_vertex)
        wit_lo = profile.per_vertex.index(lo)
        wit_hi = profile.per_vertex.index(hi)
        raise NotEligible(
            "audit needs a vertex-girth-regular graph: vertices "
            f"{wit_lo} and {wit_hi} lie on {lo} and {hi} cycles"
        )
    true_lam = counts.pop()
    if lam is None:
        lam = true_lam

    pair_filter = None
    if scope != "all":
        kind, count, seed = scope
        if kind != "sample":
            raise ValueError(f"scope must be 'all' or ('sample', count, seed), got {scope!r}")
        pairs = []
        for u in range(g.n):
            shells = shell_decompose(g, u)
            pairs.extend((u, v) for v in bit_list(shells.n3plus))
        rng = random.Random(seed)
        pair_filter = set(pairs if count >= len(pairs) else rng.sample(pairs, count))

    report = AuditReport(graph6=write_graph6(g), n=g.n, k=k, lam=lam)
    tasks = [(g, u, lam, pair_filter) for u in range(g.n)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_audit_at_root, tasks))
    else:
        results = [_audit_at_root(t) for t in tasks]

    for outer, mp, case_a, case_b, skipped, far in results:
        report.outer.append(outer)
        report.main_property.append(mp)
        report.case_a.extend(case_a)
        report.case_b.extend(case_b)
        report.skipped_pairs.extend(skipped)
        report.far_pairs += far
        if not outer.passed:
            report._fail(
                f"outer edges at root {outer.root}: found {outer.outer_edges_found}, "
                f"expected {outer.two_eps_expected}"
            )
        for part in case_a + case_b:
            for rec in part.records:
                if not rec.holds:
                    report._fail(
                        f"{rec.name} at (u={part.root}, v={part.v}): "
                        f"{rec.lhs} {rec.relation} {rec.rhs} fails"
                    )
    return report
