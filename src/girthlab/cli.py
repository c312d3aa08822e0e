"""Command-line surface: analyze, audit, search, oracle, convert.

stdout carries exactly one report (JSON except for oracle's verdict line
and convert's graph lines); diagnostics go to stderr.  Exit codes: 0 ok,
1 finding of interest (failed identity under a forged count, or a search
hit that contradicts a nonexistence theorem), 2 input error, 3 internal
inconsistency, 4 suspended on a resource cap with a checkpoint written.
"""
from __future__ import annotations

import argparse
import datetime
import json
import os
import sys

from . import __version__
from .audit import AuditReport, audit_graph
from .classify import check_bounds, classify, known_nonexistence
from .core import Graph, named_graph
from .errors import (
    Graph6Error,
    GirthLabError,
    InternalInconsistency,
    NotEligible,
)
from .formats import parse_any, write_graph6, write_sparse6
from .girth import girth_profile, signatures
from .search import (
    GIRTH_AT_LEAST,
    GIRTH_EXACT,
    SearchConfig,
    confirm_nonexistence,
    generate,
    nonexistence_lambda,
)

EXIT_OK = 0
EXIT_FINDING = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3
EXIT_SUSPENDED = 4


def _read_inputs(source: str) -> list[tuple[str, Graph]]:
    """Load graphs from ``named:<id>``, a file of graph6/sparse6 lines, or
    ``-`` for stdin.  Raises Graph6Error/ValueError with the offending line
    number embedded."""
    if source.startswith("named:"):
        return [(source, named_graph(source[len("named:"):]))]
    if source == "-":
        lines = sys.stdin.read().splitlines()
        label = "<stdin>"
    else:
        try:
            with open(source) as fh:
                lines = fh.read().splitlines()
        except OSError as exc:
            raise GirthLabError(f"cannot read {source}: {exc}") from exc
        label = source
    graphs = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            graphs.append((f"{label}:{lineno}", parse_any(line)))
        except (Graph6Error, ValueError) as exc:
            raise Graph6Error(f"{label}:{lineno}: {exc}") from exc
    return graphs


def _bad_workers(workers: int) -> bool:
    """Report a worker count below 1, or above the machine's CPU count,
    which would only oversubscribe it; True means the search must refuse
    to run."""
    cpus = os.cpu_count() or 1
    if workers < 1:
        print(f"search: --workers {workers} must be at least 1", file=sys.stderr)
    elif workers > cpus:
        print(f"search: --workers {workers} exceeds the {cpus} CPUs of this machine",
              file=sys.stderr)
    else:
        return False
    return True


def _emit(report: dict, args) -> None:
    if getattr(args, "timestamps", False):
        report["generated_at"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    json.dump(report, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _classification_dict(rep) -> dict:
    return {
        "n": rep.n,
        "k": rep.k,
        "girth": rep.girth,
        "is_vgr": rep.is_vgr,
        "lambda_vertex": rep.lambda_vertex,
        "is_gr": rep.is_gr,
        "signature": list(rep.common_signature) if rep.common_signature else None,
        "is_egr": rep.is_egr,
        "lambda_edge": rep.lambda_edge,
        "vertex_bound": rep.vertex_bound,
        "edge_bound": rep.edge_bound,
        "two_epsilon": rep.two_epsilon,
        "epsilon": rep.epsilon,
        "moore_deficit": rep.moore_deficit,
    }


def cmd_analyze(args) -> int:
    try:
        graphs = _read_inputs(args.input)
    except (GirthLabError, ValueError) as exc:
        print(f"analyze: {exc}", file=sys.stderr)
        return EXIT_INPUT

    entries = []
    csv_rows = []
    all_hold = True
    for index, (label, g) in enumerate(graphs):
        try:
            profile = girth_profile(g)
            rep = classify(g, profile)
        except InternalInconsistency as exc:
            print(f"analyze: {label}: internal inconsistency: {exc}", file=sys.stderr)
            return EXIT_INTERNAL
        except (NotEligible, ValueError) as exc:
            print(f"analyze: {label}: {exc}", file=sys.stderr)
            return EXIT_INPUT
        bounds = []
        if rep.k is not None:
            for b in check_bounds(g, rep, profile):
                bounds.append({"name": b.name, "lhs": b.lhs, "rhs": b.rhs,
                               "relation": b.relation, "slack": b.slack, "holds": b.holds})
                all_hold &= b.holds
        entries.append({
            "input": label,
            "graph6": write_graph6(g),
            "classification": _classification_dict(rep),
            "bounds": bounds,
        })
        if args.csv:
            for v, sig in enumerate(signatures(g, profile)):
                csv_rows.append((index, label, v, profile.per_vertex[v],
                                 "|".join(map(str, sig))))

    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("graph_index,input,vertex,girth_cycles,signature\n")
            for row in csv_rows:
                fh.write(",".join(map(str, row)) + "\n")

    _emit({
        "tool_version": __version__,
        "command": "analyze",
        "graphs": entries,
        "summary": {"count": len(entries), "all_bounds_hold": all_hold},
    }, args)
    if not all_hold:
        print("analyze: a counting bound failed: engine bug", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK


def _audit_dict(report: AuditReport, full: bool) -> dict:
    failing = [
        {"name": r.name, "lhs": r.lhs, "rhs": r.rhs, "relation": r.relation,
         "context": r.context, "pair": [part.root, part.v]}
        for part in list(report.case_a) + list(report.case_b)
        for r in part.records if not r.holds
    ]
    out = {
        "graph6": report.graph6,
        "n": report.n,
        "k": report.k,
        "lambda": report.lam,
        "outer_edges": [
            {"root": o.root, "expected": o.two_eps_expected,
             "found": o.outer_edges_found, "passed": o.passed}
            for o in report.outer
        ],
        "containment_violations": {
            str(m.root): [list(t) for t in m.violations]
            for m in report.main_property if m.violations
        },
        "case_a_pairs": len(report.case_a),
        "case_b_pairs": len(report.case_b),
        "skipped_pairs": [list(map(str, s)) for s in report.skipped_pairs],
        "far_pairs": report.far_pairs,
        "failing_records": failing,
        "all_passed": report.all_passed,
        "first_failure": report.first_failure,
    }
    if full:
        out["records"] = [
            {"pair": [part.root, part.v], "name": r.name, "lhs": r.lhs,
             "relation": r.relation, "rhs": r.rhs, "holds": r.holds,
             "context": r.context}
            for part in list(report.case_a) + list(report.case_b)
            for r in part.records
        ]
    return out


def cmd_audit(args) -> int:
    try:
        graphs = _read_inputs(args.input)
    except (GirthLabError, ValueError) as exc:
        print(f"audit: {exc}", file=sys.stderr)
        return EXIT_INPUT
    scope: str | tuple = "all"
    if args.scope != "all":
        try:
            body = args.scope.split(":", 1)[1]
            count, seed = (int(x) for x in body.split(","))
            if count < 0:
                raise ValueError(count)
            scope = ("sample", count, seed)
        except (IndexError, ValueError):
            print(f"audit: bad --scope {args.scope!r}; use all or sample:<n>,<seed> "
                  "with n >= 0",
                  file=sys.stderr)
            return EXIT_INPUT

    entries = []
    ineligible = []
    any_failure = False
    for label, g in graphs:
        try:
            report = audit_graph(g, lam=args.forced_lambda, scope=scope)
        except NotEligible as exc:
            ineligible.append({"input": label, "reason": str(exc)})
            entries.append({"input": label, "eligible": False, "reason": str(exc)})
            continue
        entry = {"input": label, "eligible": True}
        entry.update(_audit_dict(report, args.full_records))
        entries.append(entry)
        any_failure |= not report.all_passed

    _emit({
        "tool_version": __version__,
        "command": "audit",
        "graphs": entries,
        "summary": {
            "count": len(entries),
            "ineligible": len(ineligible),
            "all_passed": not any_failure,
        },
    }, args)
    return EXIT_FINDING if any_failure else EXIT_OK


def cmd_search(args) -> int:
    if _bad_workers(args.workers):
        return EXIT_INPUT
    mode = GIRTH_EXACT if args.girth_mode == "exact" else GIRTH_AT_LEAST
    parameters = {
        "k": args.k, "g": args.g, "max_n": args.max_n,
        "girth_mode": args.girth_mode, "lambda": args.lambda_filter,
        "epsilon2": args.epsilon2, "workers": args.workers,
    }
    try:
        if args.epsilon2 is not None:
            if args.lambda_filter is not None:
                raise ValueError("--lambda and --epsilon2 are mutually exclusive")
            # report the girth-5 exact search that actually runs
            parameters.update({"g": 5, "girth_mode": "exact",
                               "lambda": nonexistence_lambda(args.k, args.epsilon2)})
            outcome = confirm_nonexistence(
                args.k, args.epsilon2, args.max_n,
                worker_count=args.workers, node_budget=args.node_budget,
                checkpoint_path=args.checkpoint, cap=args.cap,
            )
        else:
            config = SearchConfig(
                k=args.k, g=args.g, n_max=args.max_n, girth_mode=mode,
                lambda_filter=args.lambda_filter, worker_count=args.workers,
                node_budget=args.node_budget, checkpoint_path=args.checkpoint,
                cap=args.cap,
            )
            outcome = generate(config)
    except ValueError as exc:
        print(f"search: {exc}", file=sys.stderr)
        return EXIT_INPUT

    report = {
        "tool_version": __version__,
        "command": "search",
        "parameters": parameters,
        "per_n_classes": {str(n): c for n, c in outcome.per_n_classes.items()},
        "per_n_hits": {str(n): c for n, c in outcome.per_n_hits.items()},
        "hits_graph6": outcome.hits_graph6,
        "nodes_expanded": outcome.nodes_expanded,
        "suspended": outcome.suspended,
        "checkpoint": outcome.checkpoint_path,
        "theorem_contradiction": outcome.contradiction,
    }
    if args.timestamps:
        report["wall_time"] = outcome.wall_time
    _emit(report, args)
    if outcome.contradiction:
        print("search: THEOREM CONTRADICTION: a filtered graph exists; "
              "this indicates an engine bug", file=sys.stderr)
        return EXIT_FINDING
    if outcome.suspended:
        print(f"search: node budget exhausted; frontier checkpoint written to "
              f"{outcome.checkpoint_path}", file=sys.stderr)
        return EXIT_SUSPENDED
    return EXIT_OK


def cmd_oracle(args) -> int:
    try:
        verdict = known_nonexistence(args.k, args.g, args.lam)
    except ValueError as exc:
        print(f"oracle: {exc}", file=sys.stderr)
        return EXIT_INPUT
    print(f"{verdict.status.value} rule={verdict.rule.value} "
          f"k={args.k} g={args.g} lambda={args.lam} detail={verdict.detail}")
    return EXIT_OK


def cmd_convert(args) -> int:
    try:
        graphs = _read_inputs(args.input)
    except (GirthLabError, ValueError) as exc:
        print(f"convert: {exc}", file=sys.stderr)
        return EXIT_INPUT
    writer = write_sparse6 if args.to == "sparse6" else write_graph6
    for _, g in graphs:
        print(writer(g))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="girthlab",
        description="girth-cycle regularity analysis, identity audits, and "
                    "exhaustive search for regular graphs of prescribed girth",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--timestamps", action="store_true",
                       help="include volatile fields (times) in the report")

    p = sub.add_parser("analyze", help="classify graphs and check counting bounds")
    p.add_argument("input", help="graph6/sparse6 file, '-' for stdin, or named:<id>")
    p.add_argument("--csv", metavar="PATH", help="write a per-vertex CSV table")
    add_common(p)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("audit", help="audit girth-5 counting identities")
    p.add_argument("input")
    p.add_argument("--scope", default="all", help="all or sample:<n>,<seed>")
    p.add_argument("--lambda", dest="forced_lambda", type=int, default=None,
                   help="claimed per-vertex cycle count (forging this flips records)")
    p.add_argument("--full-records", action="store_true",
                   help="emit every record, not only failing ones")
    add_common(p)
    p.set_defaults(fn=cmd_audit)

    p = sub.add_parser("search", help="enumerate k-regular girth-g graphs")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--g", type=int, default=5)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--lambda", dest="lambda_filter", type=int, default=None,
                   help="keep only graphs with this common per-vertex count")
    p.add_argument("--epsilon2", type=int, default=None,
                   help="confirm nonexistence for deficit 2e (implies girth 5 exact)")
    p.add_argument("--girth-mode", choices=["exact", "at-least"], default="at-least")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes, at most the CPU count")
    p.add_argument("--node-budget", type=int, default=None,
                   help="nodes to expand in this invocation before suspending")
    p.add_argument("--checkpoint", default=None,
                   help="frontier file: resumed when present, written on suspension")
    p.add_argument("--cap", type=int, default=None,
                   help="raise the default order cap (20 for cubic, 16 otherwise)")
    add_common(p)
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("oracle", help="nonexistence verdict for (k, g, lambda)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=int, required=True)
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("convert", help="convert between graph6 and sparse6")
    p.add_argument("input")
    p.add_argument("--to", choices=["graph6", "sparse6"], default="graph6")
    p.set_defaults(fn=cmd_convert)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except InternalInconsistency as exc:
        print(f"girthlab: internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (GirthLabError, OSError) as exc:
        # OSError: an output file that cannot be written
        print(f"girthlab: {exc}", file=sys.stderr)
        return EXIT_INPUT


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
