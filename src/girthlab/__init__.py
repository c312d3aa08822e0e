"""girthlab: girth-cycle regularity analysis for finite simple graphs.

The package measures how regularly the shortest cycles of a graph are
distributed (the same count through every vertex, the same sorted count
tuple at every vertex, the same count through every edge), audits the
counting identities that constrain those distributions on regular girth-5
graphs, and exhaustively enumerates small regular graphs of prescribed
girth to confirm nonexistence ranges and locate extremal examples.
"""

__version__ = "0.1.0"

from .audit import (
    AuditReport,
    CaseAPartition,
    CaseBPartition,
    GPrimeAudit,
    InequalityRecord,
    MainPropertyAudit,
    OuterEdgeAudit,
    audit_case_a,
    audit_case_b,
    audit_gprime_degree,
    audit_graph,
    audit_main_property,
    audit_outer_edges,
)
from .canon import are_isomorphic, canonical_graph6, canonize, relabel
from .classify import (
    BoundCheck,
    ClassificationReport,
    NonexistenceVerdict,
    Rule,
    Status,
    check_bounds,
    classify,
    edge_cycle_bound,
    known_nonexistence,
    moore_bound,
    refute_signature,
    vertex_cycle_bound,
)
from .core import (
    Graph,
    GraphBuilder,
    VertexSet,
    bit_list,
    bits,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    degree_sequence,
    dodecahedron_graph,
    graph_from_edges,
    graph_from_rows,
    heawood_graph,
    is_connected,
    max_vertices,
    named_graph,
    path_graph,
    petersen_graph,
    regularity,
)
from .errors import (
    CaseMismatch,
    Graph6Error,
    GirthLabError,
    InternalInconsistency,
    NotEligible,
    PropertyViolated,
    TheoremContradiction,
)
from .formats import parse_any, parse_graph6, parse_sparse6, write_graph6, write_sparse6
from .girth import (
    GirthProfile,
    ShellDecomposition,
    girth,
    girth_profile,
    shell_decompose,
    signatures,
)
from .search import (
    GIRTH_AT_LEAST,
    GIRTH_EXACT,
    SearchConfig,
    SearchOutcome,
    confirm_nonexistence,
    find_vgr,
    generate,
)
