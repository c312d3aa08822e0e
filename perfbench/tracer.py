"""Spans around calls into girthlab's layers, for the traced benchmark run.

The tracer replaces each public layer function below with a wrapper under
every name a ``girthlab`` module binds it to (``girthlab.search`` imports
``canonical_graph6`` by name, the package re-exports everything), and puts
the originals back on ``uninstall``.  Spans are kept in memory as
``[name, start, end, parent index]``; a span's self time is its duration
minus the durations of its child spans.
"""
from __future__ import annotations

import statistics
import sys
import time

# (module, function) for every wrapped function; the module is its layer.
TRACED = (
    ("girthlab.search", "generate"),
    ("girthlab.canon", "canonical_graph6"),
    ("girthlab.girth", "girth"),
    ("girthlab.girth", "girth_profile"),
    ("girthlab.audit", "audit_graph"),
    ("girthlab.classify", "classify"),
    ("girthlab.classify", "check_bounds"),
    ("girthlab.formats", "write_graph6"),
    ("girthlab.formats", "parse_graph6"),
    ("girthlab.core", "is_connected"),
)

# name -> (unit, better); every traced run reports all of them, with 0 for a
# layer the workload does not reach.
LAYER_METRICS = {
    "search.nodes": ("count", "lower"),
    "search.classes": ("count", "higher"),
    "search.self_s": ("s", "lower"),
    "search.dedup_yield": ("ratio", "higher"),
    "canon.calls": ("count", "lower"),
    "canon.self_s": ("s", "lower"),
    "canon.p90_ms": ("ms", "lower"),
    "girth.girth_calls": ("count", "lower"),
    "girth.girth_s": ("s", "lower"),
    "girth.cache_hit_ratio": ("ratio", "higher"),
    "girth.profile_paths_s": ("s", "lower"),
    "girth.profile_girth5_s": ("s", "lower"),
    "audit.graphs": ("count", "higher"),
    "audit.pairs": ("count", "higher"),
    "audit.self_s": ("s", "lower"),
    "classify.calls": ("count", "lower"),
    "classify.self_s": ("s", "lower"),
    "formats.calls": ("count", "lower"),
    "formats.s": ("s", "lower"),
    "core.is_connected_calls": ("count", "lower"),
    "core.is_connected_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "girthlab" or name.startswith("girthlab.")]
        for module, name in TRACED:
            original = getattr(sys.modules[module], name)
            wrapper = self._wrap(name, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, original))

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1]
            open_.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_.pop()
            if name == "girth_profile":
                span[0] = "girth_profile:" + _profile_engine(args, kwargs, result)
            return result

        return traced


def _profile_engine(args, kwargs, profile) -> str:
    """The engine girth_profile ran: "auto" picks the girth-5 counter for
    regular girth-5 graphs and path enumeration otherwise."""
    engine = kwargs.get("engine", args[1] if len(args) > 1 else "auto")
    if engine != "auto":
        return engine
    regular = len({r.bit_count() for r in args[0].rows}) == 1
    return "girth5" if profile.girth == 5 and regular else "paths"


def layer_metrics(spans: list[list], counts: dict[str, int],
                  cache_hits: int, cache_misses: int) -> dict[str, float]:
    """Per-layer metrics of one traced operation from its spans, the exact
    counts the operation returned, and the girth cache statistics."""
    own = [end - start for _, start, end, _ in spans]
    in_search = []
    for i, (name, start, end, parent) in enumerate(spans):
        if parent >= 0:
            own[parent] -= end - start
        in_search.append(name == "generate" or (parent >= 0 and in_search[parent]))

    def select(*names):
        return [i for i, span in enumerate(spans) if span[0] in names]

    def self_s(*names):
        return sum(own[i] for i in select(*names))

    canon = select("canonical_graph6")
    canon_ms = sorted((spans[i][2] - spans[i][1]) * 1e3 for i in canon)
    search_canon = sum(in_search[i] for i in canon)
    classes = counts.get("search.classes", 0)
    lookups = cache_hits + cache_misses
    return {
        "search.nodes": counts.get("search.nodes", 0),
        "search.classes": classes,
        "search.self_s": self_s("generate"),
        "search.dedup_yield": classes / search_canon if search_canon else 0.0,
        "canon.calls": len(canon),
        "canon.self_s": self_s("canonical_graph6"),
        "canon.p90_ms": _p90(canon_ms),
        "girth.girth_calls": len(select("girth")),
        "girth.girth_s": self_s("girth"),
        "girth.cache_hit_ratio": cache_hits / lookups if lookups else 0.0,
        "girth.profile_paths_s": self_s("girth_profile:paths"),
        "girth.profile_girth5_s": self_s("girth_profile:girth5"),
        "audit.graphs": len(select("audit_graph")),
        "audit.pairs": counts.get("audit.pairs", 0),
        "audit.self_s": self_s("audit_graph"),
        "classify.calls": len(select("classify", "check_bounds")),
        "classify.self_s": self_s("classify", "check_bounds"),
        "formats.calls": len(select("write_graph6", "parse_graph6")),
        "formats.s": self_s("write_graph6", "parse_graph6"),
        "core.is_connected_calls": len(select("is_connected")),
        "core.is_connected_s": self_s("is_connected"),
    }


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[8]
