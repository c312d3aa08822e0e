"""Classification into the vertex-/girth-/edge-regular hierarchy, bound
checks, and the known-nonexistence oracle for parameter triples (k, g, λ).
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .core import Graph, is_connected, regularity
from .errors import InternalInconsistency, NotEligible, TheoremContradiction
from .girth import GirthProfile, girth, girth_profile, signatures


def vertex_cycle_bound(k: int, g: int) -> int:
    """Maximum number of girth cycles any vertex of a k-regular girth-g
    graph can lie on: k(k-1)^floor(g/2) / 2 (always an integer, since
    k(k-1) is even)."""
    return k * (k - 1) ** (g // 2) // 2


def two_epsilon(k: int, g: int, lam: int) -> int:
    """The deficit 2ε = k(k-1)^floor(g/2) - 2λ; always even, as k(k-1) is."""
    return k * (k - 1) ** (g // 2) - 2 * lam


def in_excluded_range(k: int, two_eps: int) -> bool:
    """Whether 0 < 2ε <= k - 1: the deficits the theorem excludes at odd girth."""
    return 0 < two_eps <= k - 1


def edge_cycle_bound(k: int, g: int) -> int:
    """Maximum number of girth cycles through an edge: (k-1)^floor(g/2)."""
    return (k - 1) ** (g // 2)


def moore_bound(k: int, g: int) -> int:
    """Least possible order of a k-regular graph of girth g, obtained by
    counting a breadth-first tree."""
    if k < 2 or g < 3:
        raise ValueError(f"moore_bound needs k >= 2 and g >= 3, got ({k},{g})")
    if g % 2:
        return 1 + k * sum((k - 1) ** i for i in range((g - 1) // 2))
    return 2 * sum((k - 1) ** i for i in range(g // 2))


#: (k, g) pairs for which a graph attaining the per-vertex maximum is known
#: to exist.  k=2 (cycles) and the two settled girth-5 degrees are explicit;
#: for the listed girths the extremal incidence-geometry families apply.
_MOORE_GIRTHS = frozenset({3, 4, 6, 8, 12})
_MOORE_GIRTH5_DEGREES = frozenset({3, 7})
_MOORE_OPEN = frozenset({(57, 5)})


class Status(str, Enum):
    EXCLUDED = "ExcludedByTheorem"
    EXISTS = "KnownToExist"
    UNKNOWN = "Unknown"


class Rule(str, Enum):
    EVEN_GIRTH_SIGNATURE = "EvenGirthSignature"
    ODD_GIRTH_GE7 = "OddGirthGe7"
    GIRTH3 = "Girth3"
    GIRTH5 = "Girth5"
    MOORE_CASE = "MooreCase"
    NONE = "None"


@dataclass(frozen=True)
class NonexistenceVerdict:
    status: Status
    rule: Rule
    detail: str

    def __post_init__(self):
        if (self.rule is Rule.NONE) != (self.status is not Status.EXCLUDED):
            raise InternalInconsistency("rule must be None exactly when not excluded")


@dataclass(frozen=True)
class ClassificationReport:
    """Summary of a graph's position in the vgr >= gr >= egr hierarchy.

    two_epsilon is the deficit `two_epsilon` of lambda_vertex; it is always
    even, so epsilon itself is an integer."""

    n: int
    k: int | None
    girth: int
    is_vgr: bool
    lambda_vertex: int | None
    is_gr: bool
    common_signature: tuple[int, ...] | None
    is_egr: bool
    lambda_edge: int | None
    vertex_bound: int | None
    edge_bound: int | None
    two_epsilon: int | None
    moore_deficit: int | None

    @property
    def epsilon(self) -> int | None:
        if self.two_epsilon is None:
            return None
        if self.two_epsilon % 2:
            raise InternalInconsistency(f"odd 2-epsilon {self.two_epsilon}")
        return self.two_epsilon // 2


def classify(g: Graph, profile: GirthProfile | None = None) -> ClassificationReport:
    """Classify a connected graph of finite girth.

    `profile` normally comes from the girth engine; passing one explicitly
    exists so that forged counts can be fed through the consistency checks.
    Raises TheoremContradiction if the graph is vertex-girth-regular, k >= 3,
    and `known_nonexistence` excludes (k, girth, lambda) for a lambda within
    the vertex bound, which no real graph can reach: seeing it means the
    profile was forged or an engine is broken.  A lambda above the bound is
    `check_bounds`' finding.
    """
    if not is_connected(g):
        raise NotEligible("classification needs a connected graph")
    gr_len = girth(g)
    if gr_len is None:
        raise NotEligible("classification needs a graph with at least one cycle")
    if profile is None:
        profile = girth_profile(g)
    is_reg, k = regularity(g)

    lam_values = set(profile.per_vertex)
    is_vgr = is_reg and len(lam_values) == 1
    lambda_vertex = lam_values.pop() if is_vgr else None

    distinct = set(signatures(g, profile))
    is_gr = is_reg and len(distinct) == 1
    common_signature = distinct.pop() if is_gr else None

    edge_values = set(profile.per_edge.values())
    is_egr = is_reg and len(edge_values) == 1
    lambda_edge = edge_values.pop() if is_egr else None

    if is_egr and not is_gr or is_gr and not is_vgr:
        raise InternalInconsistency("regularity hierarchy violated: egr => gr => vgr")

    v_bound = e_bound = two_eps = deficit = None
    if is_reg and k is not None and k >= 2:
        v_bound = vertex_cycle_bound(k, gr_len)
        e_bound = edge_cycle_bound(k, gr_len)
        deficit = g.n - moore_bound(k, gr_len)
        if is_vgr:
            two_eps = two_epsilon(k, gr_len, lambda_vertex)
            if k >= 3 and 0 <= lambda_vertex <= v_bound:
                verdict = known_nonexistence(k, gr_len, lambda_vertex)
                if verdict.status is Status.EXCLUDED:
                    raise TheoremContradiction(
                        f"vertex-regular girth-{gr_len} profile with lambda = "
                        f"{lambda_vertex}: {verdict.rule.value}, {verdict.detail}"
                    )

    return ClassificationReport(
        n=g.n,
        k=k if is_reg else None,
        girth=gr_len,
        is_vgr=is_vgr,
        lambda_vertex=lambda_vertex,
        is_gr=is_gr,
        common_signature=common_signature,
        is_egr=is_egr,
        lambda_edge=lambda_edge,
        vertex_bound=v_bound,
        edge_bound=e_bound,
        two_epsilon=two_eps,
        moore_deficit=deficit,
    )


@dataclass(frozen=True)
class BoundCheck:
    name: str
    lhs: int
    rhs: int
    relation: str
    slack: int
    holds: bool


def check_bounds(
    g: Graph, report: ClassificationReport, profile: GirthProfile | None = None
) -> list[BoundCheck]:
    """Evaluate the per-vertex, per-edge, and order bounds on a regular
    graph.  Every record must pass on a real graph; a failure signals an
    engine bug."""
    if report.k is None:
        raise ValueError("bound checks need a regular graph")
    if profile is None:
        profile = girth_profile(g)
    k, gr_len = report.k, report.girth
    max_v = max(profile.per_vertex)
    max_e = max(profile.per_edge.values())
    mb = moore_bound(k, gr_len)
    checks = [
        BoundCheck("per_vertex_cycles", max_v, vertex_cycle_bound(k, gr_len), "<=",
                   vertex_cycle_bound(k, gr_len) - max_v, max_v <= vertex_cycle_bound(k, gr_len)),
        BoundCheck("per_edge_cycles", max_e, edge_cycle_bound(k, gr_len), "<=",
                   edge_cycle_bound(k, gr_len) - max_e, max_e <= edge_cycle_bound(k, gr_len)),
        BoundCheck("moore_order", g.n, mb, ">=", g.n - mb, g.n >= mb),
    ]
    return checks


def known_nonexistence(k: int, g: int, lam: int) -> NonexistenceVerdict:
    """Is a vertex-girth-regular (n, k, g, λ) graph excluded, known, or open?

    Excluded: odd g with deficit epsilon = bound - λ in (0, (k-1)/2], and
    the degenerate top case λ = bound outside the short list of degrees and
    girths for which extremal graphs exist.
    """
    if k < 3 or g < 3 or lam < 0:
        raise ValueError(f"need k >= 3, g >= 3, lambda >= 0, got ({k},{g},{lam})")
    bound = vertex_cycle_bound(k, g)
    if lam > bound:
        raise ValueError(f"lambda {lam} above the per-vertex maximum {bound}")

    if lam == bound:
        if (k, g) in _MOORE_OPEN:
            return NonexistenceVerdict(
                Status.UNKNOWN, Rule.NONE,
                f"existence of the extremal ({k},{g}) graph is a famous open case",
            )
        if g in _MOORE_GIRTHS or (g == 5 and k in _MOORE_GIRTH5_DEGREES):
            families = {
                3: "complete graph",
                4: "complete bipartite graph",
                5: "sporadic girth-5 extremal graph",
                6: "projective-plane incidence graph (known for prime-power k-1)",
                8: "generalized-quadrangle incidence graph (known for prime-power k-1)",
                12: "generalized-hexagon incidence graph (known for prime-power k-1)",
            }
            return NonexistenceVerdict(Status.EXISTS, Rule.NONE, families[g])
        return NonexistenceVerdict(
            Status.EXCLUDED, Rule.MOORE_CASE,
            "attaining the per-vertex maximum forces an extremal configuration "
            f"that does not exist for (k,g) = ({k},{g})",
        )

    if g % 2:
        two_eps = two_epsilon(k, g, lam)
        if in_excluded_range(k, two_eps):
            rule = Rule.GIRTH3 if g == 3 else Rule.GIRTH5 if g == 5 else Rule.ODD_GIRTH_GE7
            return NonexistenceVerdict(
                Status.EXCLUDED, rule,
                f"odd girth {g} with deficit epsilon = {two_eps // 2} in (0, (k-1)/2]",
            )
    return NonexistenceVerdict(Status.UNKNOWN, Rule.NONE, "no applicable exclusion")


def refute_signature(k: int, g: int, sig: tuple[int, ...]) -> NonexistenceVerdict:
    """Refutation check for a *claimed* common signature of even girth: a
    top entry within k-2 of the per-edge maximum is impossible.  This is a
    statement about claimed parameters, never about a computed graph."""
    if k < 3 or g < 3:
        raise ValueError(f"need k >= 3 and g >= 3, got ({k},{g})")
    if len(sig) != k or list(sig) != sorted(sig):
        raise ValueError("signature must be a sorted k-tuple")
    if g % 2 == 0:
        top = sig[-1]
        limit = edge_cycle_bound(k, g)
        if limit - (k - 1) < top < limit:
            return NonexistenceVerdict(
                Status.EXCLUDED, Rule.EVEN_GIRTH_SIGNATURE,
                f"even girth {g} with top signature entry {top} in "
                f"({limit - (k - 1)}, {limit})",
            )
    return NonexistenceVerdict(Status.UNKNOWN, Rule.NONE, "no applicable exclusion")
