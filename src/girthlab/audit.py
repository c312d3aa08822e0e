"""Executable audit of the counting identities, partitions, and
inequalities that govern 5-cycle counts in k-regular girth-5 graphs.

Every operation measures exact left/right sides on a concrete graph.  The
deficit quantity handled throughout is 2e = k(k-1)^2 - 2*lambda, the number
of edges leaving any vertex's second shell when lambda is the true common
per-vertex 5-cycle count; audits run with a claimed lambda and report which
relations that claim satisfies.  Relations whose derivation needs only the
girth and regularity are asserted outright: their failure means an engine
bug, not an interesting finding.

The public outer-edge, containment and case audits validate their graph,
decompose the shells they need and hand them to private kernels.
`audit_graph` runs the same kernels on shared inputs: the graph is
validated once per graph, shells are decomposed once per root and
containment is scanned once per root, however many exterior pairs use them.
At each root u one pass over the rows of N2(u) classifies the whole
exterior: the vertices with at least one contact there and those with at
least two (case A); the rest are far pairs, counted by a popcount unless a
sampled scope filters them.

The case kernels read each adjacency row of a pair once: one pass over
N2(v) yields every edge count of the partition, the V_C'' leaf-set counts
and the V_B'' matching, and the case-B crossing counts come from one pass
over N(v) minus v'.  Each count that a check compares stays an independent
count: y (the 5-cycle count of v) is half the sum of |N(w) & N2(v)| over
N2(v), never the sum of its parts, so the partition check can still fail.
Checks run only once every count is in, in their order of derivation.

The results are plain frozen dataclasses.  A partition's vertex tuples are
listed by the passes above (and the case-A pass over each branch) instead
of being re-read from their masks.  The pairs of a structured graph repeat
a few count vectors thousands of times (the 600 case-B pairs of the cubic
Cayley graph of A5 have 6), so `audit_graph` keeps one record table per
call.  Each case kernel hands its counts to a builder that reads nothing
else, and the table keeps the builder's record tuple under its whole
argument tuple, so a pair makes one lookup and each distinct record tuple
is built once; within a build, each distinct record is built once too,
keyed by its inputs.  Equal records and record tuples within one report
are shared objects, which is safe because they are frozen.  The table dies
with the call, and the per-pair public audits use a fresh one.

The audit runs in one process.  Its output is as large as its work (every
pair's partition and records), so a process pool would spend about as long
sending the results back as one process spends building them.
"""
from __future__ import annotations

import operator
import random
from dataclasses import dataclass, field

from .classify import in_excluded_range, two_epsilon
from .core import Graph, bit_list, edges_between, is_connected, regularity
from .errors import (
    CaseMismatch,
    InternalInconsistency,
    NotEligible,
    PropertyViolated,
)
from .formats import write_graph6
from .girth import girth, girth_profile, shell_decompose


def _require_girth5_regular(g: Graph) -> int:
    is_reg, k = regularity(g)
    if not is_reg or k is None or k < 3:
        raise NotEligible("audit needs a k-regular graph with k >= 3")
    if girth(g) != 5:
        raise NotEligible(f"audit needs girth 5, got {girth(g)}")
    return k


RELATION_TESTS = {
    "<=": operator.le,
    ">=": operator.ge,
    "=": operator.eq,
    "<": operator.lt,
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


def _shared_record(table: dict, name: str, lhs: int, relation: str, rhs: int,
                   context: str = "") -> InequalityRecord:
    """The record for these inputs from `table`, built on first use.  One
    table serves one `audit_graph` call: its pairs repeat a few dozen
    distinct records thousands of times, and a frozen record can be shared
    by every partition that displays it."""
    key = (name, lhs, relation, rhs, context)
    rec = table.get(key)
    if rec is None:
        rec = table[key] = InequalityRecord.make(name, lhs, relation, rhs, context)
    return rec


def _shared_records(table: dict, build, args: tuple) -> tuple:
    """The record tuple `build(table, *args)` from `table`, built on first
    use.  A builder reads nothing but its arguments, so the key is the
    whole argument tuple: a key that left one out would hand a pair the
    records of another pair that differs only there."""
    key = (build, args)
    recs = table.get(key)
    if recs is None:
        recs = table[key] = build(table, *args)
    return recs


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
    return _outer_edges(g, k, shell_decompose(g, u), lam)


def _outer_edges(g: Graph, k: int, shells, lam: int) -> OuterEdgeAudit:
    u = shells.root
    outer = edges_between(g.rows, shells.n2, shells.n3plus)
    # an edge inside N2(u) is counted once from each end
    inner_ends = edges_between(g.rows, shells.n2, shells.n2)
    if (k - 1) * shells.n2.bit_count() != inner_ends + outer:
        raise InternalInconsistency(
            f"second-shell degree identity failed at root {u}"
        )
    expected = two_epsilon(k, 5, lam)
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
    k = _require_girth5_regular(g)
    return _main_property(g, shell_decompose(g, u))


def _main_property(g: Graph, shells) -> MainPropertyAudit:
    rows = g.rows
    n2 = bit_list(shells.n2)
    found = []
    for i, v1 in enumerate(n2):
        # a vertex without neighbours beyond N2(u) is in no violation: on a
        # graph of diameter 2 (Hoffman-Singleton) that is every vertex
        outside = rows[v1] & shells.n3plus
        if not outside:
            continue
        for v2 in n2[i + 1:]:
            common = outside & rows[v2]
            while common:
                low = common & -common
                found.append((v1, v2, low.bit_length() - 1))
                common ^= low
    return MainPropertyAudit(shells.root, tuple(found))


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
    return _case_a(g, k, shells_u, shell_decompose(g, v), lam)


def _case_a_records(table: dict, k: int, two_eps: int, s_a: int, s_b: int,
                    s_c: int, e_ab: int, e_bb: int, e_bc: int, e_cc: int,
                    d_sum: int, d_dot_a: int, y: int) -> tuple:
    """The case-A records of a pair from its counts alone: |V_A|, |V_B|,
    |V_C|, the edge counts of the partition, the sum of the branch counts
    d_i, their sum over the branches adjacent to v, and y."""
    recs = [
        _shared_record(table, "VC_induced", (k - 1) * s_c, ">=", 2 * e_cc + e_bc),
        _shared_record(table, "VB_induced", (k - 1) * s_b, ">=",
                       e_ab + 2 * e_bb + e_bc),
        # the branch indicators sum to |V_A|
        _shared_record(table, "VAg", d_sum + s_a, "<=", two_eps),
        _shared_record(table, "TwoEpsVA", d_dot_a, "<=", two_eps - s_a),
        _shared_record(table, "EAB", e_ab, "<=", d_dot_a + s_a * (s_a - 1)),
    ]
    if in_excluded_range(k, two_eps):
        recs.append(_shared_record(
            table, "Y_bound_caseA", 2 * y, "<", k * (k - 1) ** 2 - two_eps,
            context="deficit in the excluded range",
        ))
    else:
        spread = max(2 - 2 * k, two_eps ** 2 - two_eps * (k + 1))
        recs.append(_shared_record(
            table, "Y_bound_caseA", 2 * y, "<=", k * (k - 1) ** 2 + two_eps + spread,
        ))
    return tuple(recs)


def _case_a(g: Graph, k: int, shells_u, shells_v, lam: int,
            table: dict | None = None) -> CaseAPartition:
    rows = g.rows
    u, v = shells_u.root, shells_v.root
    if (rows[v] & shells_u.n2).bit_count() < 2:
        raise CaseMismatch(
            f"v={v} has fewer than two neighbours in N2({u}): second stage applies"
        )
    two_eps = two_epsilon(k, 5, lam)

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

    # one pass over each branch N(u_i) - u: its members and d_i
    nv_outside = rows[v] & ~shells_u.n2
    branch_sets, d, a = [], [], []
    for ui in bit_list(shells_u.n1):
        b = rows[ui] & ~(1 << u)
        members = bit_list(b)
        branch_sets.append(tuple(members))
        d.append(sum([(rows[w] & nv_outside).bit_count() for w in members]))
        a.append(1 if rows[v] & b else 0)
    if sum(a) != sa:
        raise InternalInconsistency("branch indicators disagree with |V_A|")

    # one pass over N2(v), which also lists V_A, V_B and V_C in order; y is
    # counted on its own, as a check on the parts
    y2 = e_aa2 = e_ac = e_ab = e_bb2 = e_bc = e_cc2 = 0
    in_a, in_b, in_c = [], [], []
    rest = n2v
    while rest:
        low = rest & -rest
        w = low.bit_length() - 1
        r = rows[w]
        rest ^= low
        y2 += (r & n2v).bit_count()
        if low & va:
            in_a.append(w)
            e_aa2 += (r & va).bit_count()
            e_ac += (r & vc).bit_count()
            e_ab += (r & vb).bit_count()
        elif low & vb:
            in_b.append(w)
            e_bb2 += (r & vb).bit_count()
            e_bc += (r & vc).bit_count()
        else:
            in_c.append(w)
            e_cc2 += (r & vc).bit_count()
    if e_aa2 // 2 or e_ac:
        raise InternalInconsistency("edges at V_A that the girth forbids")
    e_bb, e_cc, y = e_bb2 // 2, e_cc2 // 2, y2 // 2
    if y != e_ab + e_bb + e_bc + e_cc:
        raise InternalInconsistency("5-cycle count of v disagrees with the partition")

    if table is None:
        table = {}
    recs = _shared_records(table, _case_a_records, (
        k, two_eps, sa, vb.bit_count(), vc.bit_count(), e_ab, e_bb, e_bc, e_cc,
        sum(d), sum([di * ai for di, ai in zip(d, a)]), y,
    ))
    eps_in_range = in_excluded_range(k, two_eps)

    x = None
    rest = rows[v] & ~shells_u.n2
    if sa == two_eps and rest.bit_count() == 1:
        x = rest.bit_length() - 1

    return CaseAPartition(
        u, v, lam, two_eps, tuple(in_a), tuple(in_b), tuple(in_c),
        tuple(branch_sets), tuple(d), tuple(a), y, x, eps_in_range, recs,
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
    return _case_b(g, k, shells_u, shell_decompose(g, v), lam,
                   _main_property(g, shells_u))


def _case_b_records(table: dict, k: int, two_eps: int, s_b: int, s_c: int,
                    e_ab: int, e_bb: int, e_bc: int, e_cc: int, s_b2: int,
                    s_c1: int, e_c2_b: int, e_c2_far: int, s_b2_u1: int, y: int,
                    sizes: tuple[int, ...],
                    leaf_counts: tuple[tuple[int, int, int, int], ...]) -> tuple:
    """The case-B records of a pair from its counts alone: |V_B|, |V_C|, the
    edge counts of the partition, |V_B''|, |V_C'|, the edges from V_C'' to
    V_B and to the vertices beyond v, N(v) and N2(v), |V_B'' & N(u1)|, y,
    and per leaf set its size and its edges to V_C', to the rest of V_C'',
    to V_B and out of N2(v) other than to its own vertex of N(v)."""
    recs = [
        _shared_record(table, "VB_induced", (k - 1) * s_b, ">=",
                       e_ab + 2 * e_bb + e_bc),
        # the leaf sets partition V_C'', so e(V_C'', V_B) is the sum of
        # their counts; it is also e(V_B, V_C'')
        _shared_record(
            table, "VC_induced_new", (k - 1) * s_c, ">=",
            2 * e_cc + e_bc + (k - 1) * (k - 1 - s_c1) - s_b2 - e_c2_b,
        ),
        _shared_record(table, "outer_bound1",
                       s_b2 + s_c1 + 1 + e_c2_b, "<=", two_eps),
        _shared_record(table, "outer_bound2", 2 * (s_b2_u1 + s_c1 + 1), "<=",
                       two_eps, context="doubled form of the half-deficit bound"),
        _shared_record(table, "EAB_new", e_ab, "=", s_b2_u1),
    ]
    sum_leaf_slack = 0
    for i, (size, (e_li_c1, e_li_c2, e_li_b, e_li_out)) in enumerate(
            zip(sizes, leaf_counts, strict=True), start=1):
        ctx = f"i={i}"
        recs.append(_shared_record(table, "LCprime", e_li_c1, "<=", s_c1, ctx))
        recs.append(_shared_record(table, "LCdoubleprime", e_li_c2, "<=",
                                   size * (k - 2), ctx))
        recs.append(_shared_record(
            table, "Li_expansion", (k - 1) * size, "=",
            e_li_c2 + e_li_c1 + e_li_b + e_li_out, ctx,
        ))
        sum_leaf_slack += size - s_c1
    recs.append(_shared_record(
        table, "Vout_bound", e_c2_far + e_c2_b, ">=", sum_leaf_slack,
    ))
    if in_excluded_range(k, two_eps):
        recs.append(_shared_record(
            table, "Y_bound_caseB", 2 * y, "<", k * (k - 1) ** 2 - two_eps,
            context="deficit in the excluded range",
        ))
    else:
        # 2e = k(k-1)^2 - 2*lambda is even, since k(k-1) is
        eps = two_eps // 2
        recs.append(_shared_record(
            table, "Y_bound_caseB", 2 * y, "<=",
            k * (k - 1) ** 2 - (k - 1) * (k - s_c1) + 3 * eps - 2 * s_c1 - 2,
        ))
    return tuple(recs)


def _case_b(g: Graph, k: int, shells_u, shells_v, lam: int,
            containment: MainPropertyAudit, table: dict | None = None) -> CaseBPartition:
    rows = g.rows
    u, v = shells_u.root, shells_v.root
    n2u = shells_u.n2
    contacts = rows[v] & n2u
    if contacts.bit_count() == 0:
        raise CaseMismatch(f"v={v} is beyond distance 3 from {u}")
    if contacts.bit_count() > 1:
        raise CaseMismatch(f"v={v} has several second-shell neighbours: first stage applies")
    violations = containment.violations
    if violations:
        raise PropertyViolated(
            f"containment property fails at root {u}; first witness {violations[0]}"
        )
    two_eps = two_epsilon(k, 5, lam)

    v_prime = contacts.bit_length() - 1
    row_vp = rows[v_prime]
    u1_mask = row_vp & shells_u.n1
    if u1_mask.bit_count() != 1:
        raise InternalInconsistency("second-shell vertex with several first-shell contacts")
    u1 = u1_mask.bit_length() - 1
    rest_mask = rows[v] & ~(1 << v_prime)
    v_rest = bit_list(rest_mask)

    n2v = shells_v.n2
    va = n2v & shells_u.n1
    if va != 1 << u1:
        raise InternalInconsistency("V_A is not exactly the distinguished first-shell vertex")
    vb = n2v & n2u
    vb1 = vb & row_vp
    vb2 = vb & ~row_vp
    vc = n2v & ~(shells_u.n1 | n2u)
    vc1 = vc & row_vp
    vc2 = vc & ~row_vp
    out_mask = g.vertex_mask() & ~n2v
    out_far = out_mask & ~(rows[v] | (1 << v))

    # One pass over N(v) minus v': the leaf sets and both crossing counts.
    n2u_at_u1 = n2u & rows[u1]
    leaf_sets = []
    crossing = crossing_at_u1 = 0
    for vi in v_rest:
        r = rows[vi]
        leaf_sets.append(r & vc2)
        crossing += (r & n2u).bit_count()
        crossing_at_u1 += (r & n2u_at_u1).bit_count()

    # One pass over N2(v): V_A, V_B and V_C' first, then V_C'' leaf set by
    # leaf set.  Nothing raises until every count is in, so the checks
    # below fire in their order of derivation.  y is counted on its own,
    # as a check on the parts.  The absence identity needs no term for v:
    # its one contact in N2(u) is v'.
    # The passes also list V_B, V_B', V_B'', V_C' and each leaf set in
    # order, so the partition's vertex tuples need no pass of their own.
    beyond_vp = n2u & ~(1 << v_prime)
    y2 = e_ab = e_bb2 = e_bc = e_cc2 = stray = 0
    in_b, in_b1, in_b2, in_c1 = [], [], [], []
    matching: list[tuple[int, int]] = []
    unmatched = None
    rest = n2v & ~vc2
    while rest:
        low = rest & -rest
        w = low.bit_length() - 1
        rest ^= low
        r = rows[w]
        y2 += (r & n2v).bit_count()
        if low & vb:
            in_b.append(w)
            e_bb2 += (r & vb).bit_count()
            e_bc += (r & vc).bit_count()
            if low & vb2:
                in_b2.append(w)
                # matching of V_B'' onto edges from N(v) minus v' into N2(u)
                partners = r & rest_mask
                if unmatched is None and partners.bit_count() != 1:
                    unmatched = f"V_B'' vertex {w} with {partners.bit_count()} partners"
                matching.append((w, partners.bit_length() - 1))
            else:
                in_b1.append(w)
        elif low & vc:
            in_c1.append(w)
            e_cc2 += (r & vc).bit_count()
            stray += (r & beyond_vp).bit_count()
        else:
            e_ab += (r & vb).bit_count()
    leaf_inside, leaf_counts, leaf_tuples = [], [], []
    e_c2_b = e_c2_far = 0
    for vi, li in zip(v_rest, leaf_sets):
        off_li = vc2 & ~li
        out_i = out_mask & ~(1 << vi)
        inside = c1 = c2 = b = out = 0
        members = []
        rest = li
        while rest:
            low = rest & -rest
            w = low.bit_length() - 1
            members.append(w)
            r = rows[w]
            rest ^= low
            y2 += (r & n2v).bit_count()
            inside += (r & li).bit_count()
            c1 += (r & vc1).bit_count()
            c2 += (r & off_li).bit_count()
            b += (r & vb).bit_count()
            out += (r & out_i).bit_count()
            e_c2_far += (r & out_far).bit_count()
        e_cc2 += c1 + inside + c2
        e_c2_b += b
        leaf_inside.append(inside)
        leaf_counts.append((c1, c2, b, out))
        leaf_tuples.append(tuple(members))

    # absence identity: nothing in V_C' or {v} touches N2(u) beyond v'
    if stray:
        raise InternalInconsistency("edge from V_C' or v into N2(u) away from v'")
    union = 0
    for li, inside in zip(leaf_sets, leaf_inside):
        if li & union:
            raise InternalInconsistency("leaf sets overlap")
        union |= li
        if inside:
            raise InternalInconsistency("edge inside a leaf set")
    if union != vc2:
        raise InternalInconsistency("leaf sets do not cover V_C''")

    if unmatched is not None:
        raise InternalInconsistency(unmatched)
    if crossing != vb2.bit_count():
        raise InternalInconsistency("crossing-edge matching is not a bijection")
    vb2_at_u1 = vb2 & rows[u1]
    if crossing_at_u1 != vb2_at_u1.bit_count():
        raise InternalInconsistency("restricted crossing-edge matching is not a bijection")

    sizes = [li.bit_count() for li in leaf_sets]
    if any(s < k - 2 for s in sizes):
        raise InternalInconsistency("leaf set smaller than k-2")
    if sizes.count(k - 2) != vb2.bit_count():
        raise InternalInconsistency("count of minimum leaf sets differs from |V_B''|")

    e_bb, e_cc, y = e_bb2 // 2, e_cc2 // 2, y2 // 2
    if y != e_ab + e_bb + e_bc + e_cc:
        raise InternalInconsistency("5-cycle count of v disagrees with the partition")

    if table is None:
        table = {}
    recs = _shared_records(table, _case_b_records, (
        k, two_eps, vb.bit_count(), vc.bit_count(), e_ab, e_bb, e_bc, e_cc,
        vb2.bit_count(), vc1.bit_count(), e_c2_b, e_c2_far, vb2_at_u1.bit_count(),
        y, tuple(sizes), tuple(leaf_counts),
    ))
    eps_in_range = in_excluded_range(k, two_eps)

    # the leaf sets partition V_C'' (checked above), and the pass met V_B''
    # in increasing order, so the matching is already sorted
    in_c2 = sorted([w for members in leaf_tuples for w in members])
    return CaseBPartition(
        u, v, lam, two_eps, v_prime, u1, tuple(v_rest), (u1,),
        tuple(in_b), tuple(in_b1), tuple(in_b2), tuple(sorted(in_c1 + in_c2)),
        tuple(in_c1), tuple(in_c2), tuple(leaf_tuples), tuple(matching),
        y, eps_in_range, recs,
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
        if edges_between(g.rows, branches[i], branches[i]):
            raise InternalInconsistency("edge inside a branch set")
        for j in range(i + 1, k):
            m = edges_between(g.rows, branches[i], branches[j])
            matrix[i][j] = matrix[j][i] = m
    eps = two_epsilon(k, 5, lam) // 2
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


def _audit_at_root(g: Graph, k: int, shells_of: list, u: int, lam: int,
                   pair_filter: set | None, table: dict) -> tuple:
    rows = g.rows
    shells = shells_of[u]
    outer = _outer_edges(g, k, shells, lam)
    mp = _main_property(g, shells)
    # One pass over the rows of N2(u) classifies the exterior: `one` holds
    # the exterior vertices with at least one contact in N2(u), `two` those
    # with at least two; the rest of the exterior is far.
    exterior = shells.n3plus
    one = two = 0
    rest = shells.n2
    while rest:
        low = rest & -rest
        r = rows[low.bit_length() - 1] & exterior
        rest ^= low
        two |= one & r
        one |= r
    near = bit_list(one)
    if pair_filter is None:
        far = (exterior & ~one).bit_count()
    else:
        near = [v for v in near if (u, v) in pair_filter]
        far = sum(1 for v in bit_list(exterior & ~one) if (u, v) in pair_filter)
    case_a: list[CaseAPartition] = []
    case_b: list[CaseBPartition] = []
    skipped: list[tuple[int, int, str]] = []
    holds = mp.holds
    for v in near:
        if two >> v & 1:
            case_a.append(_case_a(g, k, shells, shells_of[v], lam, table))
        elif holds:
            case_b.append(_case_b(g, k, shells, shells_of[v], lam, mp, table))
        else:
            skipped.append((u, v, "containment property fails at this root"))
    return outer, mp, case_a, case_b, skipped, far


def audit_graph(
    g: Graph,
    lam: int | None = None,
    scope: str | tuple = "all",
) -> AuditReport:
    """Audit every root of a connected vertex-girth-regular girth-5 graph.

    `lam` defaults to the measured common per-vertex count; passing a
    different value exercises the forged-claim paths.  `scope` is "all" or
    ("sample", count, seed) to restrict the exterior pairs audited;
    outer-edge and containment audits always run at every root.
    """
    if not is_connected(g):
        raise NotEligible("audit needs a connected graph")
    k = _require_girth5_regular(g)
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

    shells_of = [shell_decompose(g, u) for u in range(g.n)]
    pair_filter = None
    if scope != "all":
        kind, count, seed = scope
        if kind != "sample":
            raise ValueError(f"scope must be 'all' or ('sample', count, seed), got {scope!r}")
        pairs = [(s.root, v) for s in shells_of for v in bit_list(s.n3plus)]
        rng = random.Random(seed)
        pair_filter = set(pairs if count >= len(pairs) else rng.sample(pairs, count))

    report = AuditReport(graph6=write_graph6(g), n=g.n, k=k, lam=lam)
    # one record table for the whole call, so every distinct record is
    # built once; it dies with the call
    table: dict = {}
    for u in range(g.n):
        outer, mp, case_a, case_b, skipped, far = _audit_at_root(
            g, k, shells_of, u, lam, pair_filter, table)
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
        # only the first failure is reported, so the scan ends at it
        if report.all_passed:
            failed = next(((part, rec) for part in case_a + case_b
                           for rec in part.records if not rec.holds), None)
            if failed is not None:
                part, rec = failed
                report._fail(
                    f"{rec.name} at (u={part.root}, v={part.v}): "
                    f"{rec.lhs} {rec.relation} {rec.rhs} fails"
                )
    return report
