"""Span tracer around calls into uniprior's public functions.

The tracer lives in the benchmark's own files: it wraps functions and
methods from outside and leaves the package unchanged.  A wrapped
module-level function is rebound in every ``uniprior`` module that holds
the same function object, because ``cli`` and ``multi`` import names
from ``classify``, ``single`` and ``codes``.

Each call opens a span (name, start, end, parent span, instance id).
Self time is a span's duration minus the durations of its direct
children.  Times are integer nanoseconds, so a child, which starts and
ends inside its parent, can never make the parent's self time negative.
Totals are kept for every call; at most ``MAX_SPANS`` span records are
kept in memory, and ``write_spans`` writes them out at the end.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from typing import Any, Callable, NamedTuple

MAX_SPANS = 100_000


class Target(NamedTuple):
    """One traced function and the per-layer metrics its spans give."""

    module: str
    attr: str  # "function" or "Class.method"
    span: str
    time_metric: str
    time_kind: str  # "total" (inclusive) or "self" (minus child spans)
    calls_metric: str | None = None
    # counts taken from the call's return value, with no wrapper of their own
    counts: tuple[str, ...] = ()
    observe: Callable[[Any], tuple] | None = None


# The benchmark's entry point; run.py wraps it as the root span.
CLI_MAIN = Target("uniprior.cli", "main", "cli.main", "cli.self_s", "self")

TARGETS = (
    Target("uniprior.instance", "parse_instance", "instance.parse",
           "instance.parse_s", "total"),
    Target("uniprior.instance", "validate", "instance.validate",
           "instance.validate_s", "total"),
    Target("uniprior.instance", "derive_message_graph", "instance.derive_message_graph",
           "instance.derive_message_graph_s", "total",
           counts=("instance.message_graphs", "instance.message_graph_edges"),
           observe=lambda r: (1, len(r.edges))),
    Target("uniprior.instance", "MessageGraph.neighbors", "instance.neighbors",
           "instance.neighbors_s", "total", "instance.neighbors_calls"),
    Target("uniprior.instance", "MessageGraph.components", "instance.components",
           "instance.components_s", "total", "instance.components_calls"),
    Target("uniprior.instance", "MessageGraph.connected_within", "instance.connected_within",
           "instance.connected_within_s", "total", "instance.connected_within_calls"),
    Target("uniprior.graph", "scc_partition", "graph.scc_partition",
           "graph.scc_partition_s", "total", "graph.scc_partition_calls"),
    Target("uniprior.graph", "predecessors", "graph.predecessors",
           "graph.predecessors_s", "total", "graph.predecessors_calls"),
    Target("uniprior.graph", "WorkGraph.__init__", "graph.workgraph_build",
           "graph.workgraph_build_s", "total", "graph.workgraph_builds"),
    Target("uniprior.classify", "classify_leaf_scc", "classify.classify",
           "classify.classify_self_s", "self", "classify.classify_calls"),
    Target("uniprior.classify", "find_degeneracy_witness", "classify.witness_search",
           "classify.witness_search_self_s", "self", "classify.witness_search_calls",
           counts=("classify.witness_found",), observe=lambda r: (r is not None,)),
    Target("uniprior.multi", "run_algorithm2", "multi.algorithm2",
           "multi.algorithm2_self_s", "self",
           counts=("multi.algorithm2_steps",), observe=lambda r: (len(r.steps),)),
    Target("uniprior.multi", "exhaustive_lower_bound", "multi.exhaustive",
           "multi.exhaustive_self_s", "self",
           counts=("multi.exhaustive_states", "multi.exhaustive_partial"),
           observe=lambda r: (r.states_visited, not r.exact)),
    Target("uniprior.multi", "find_connecting_trees", "multi.trees",
           "multi.trees_self_s", "self"),
    Target("uniprior.multi", "encode_multi", "multi.encode", "multi.encode_self_s", "self"),
    Target("uniprior.single", "solve_single", "single.solve", "single.solve_self_s", "self"),
    Target("uniprior.codes", "verify_linear", "codes.verify", "codes.verify_self_s", "self"),
    Target("uniprior.codes", "oracle_min_linear", "codes.oracle", "codes.oracle_self_s", "self"),
    Target("uniprior.codes", "Gf2Basis.add", "codes.gf2_add",
           "codes.gf2_add_s", "total", "codes.gf2_add_calls",
           counts=("codes.gf2_independent",), observe=lambda r: (r,)),
    Target("uniprior.codes", "Gf2Basis.contains", "codes.gf2_contains",
           "codes.gf2_contains_s", "total", "codes.gf2_contains_calls"),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.total_ns: list[int] = []
        self.self_ns: list[int] = []
        self.counts: dict[str, int] = {key: 0 for t in TARGETS for key in t.counts}
        # [name id, start ns, end ns, parent span index or -1, instance id]
        self.spans: list[list[int]] = []
        self.dropped = 0
        self.instance = 0
        self._stack: list[list[int]] = []  # [span index or -1, child ns]
        self._installed: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self.calls.append(0)
            self.total_ns.append(0)
            self.self_ns.append(0)
        return self.names.index(name)

    def wrap(self, name: str, fn, counted: tuple[str, ...] = (), observe=None):
        """A traced stand-in for fn; each call records one span, and
        ``observe`` maps its result to the values of the ``counted`` keys."""
        nid = self._name_id(name)
        clock = time.perf_counter_ns
        stack, spans, counts = self._stack, self.spans, self.counts
        calls, total_ns, self_ns = self.calls, self.total_ns, self.self_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            if len(spans) < MAX_SPANS:
                idx = len(spans)
                rec = [nid, 0, 0, parent, self.instance]
                spans.append(rec)
            else:
                idx, rec = -1, None
                self.dropped += 1
            frame = [idx, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                calls[nid] += 1
                total_ns[nid] += dur
                self_ns[nid] += dur - frame[1]
                if rec is not None:
                    rec[1], rec[2] = start, end
            if observe is not None:
                for key, value in zip(counted, observe(result), strict=True):
                    counts[key] += value
            return result

        return traced

    def install(self) -> None:
        """Swap every target in the loaded uniprior modules for a wrapper."""
        modules = [m for k, m in list(sys.modules.items())
                   if k == "uniprior" or k.startswith("uniprior.")]
        for t in TARGETS:
            owner = sys.modules[t.module]
            if "." in t.attr:
                cls_name, meth = t.attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._installed.append((cls, meth, original))
                setattr(cls, meth, self.wrap(t.span, original, t.counts, t.observe))
                continue
            original = getattr(owner, t.attr)
            traced = self.wrap(t.span, original, t.counts, t.observe)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._installed.append((mod, key, original))
                        setattr(mod, key, traced)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._installed):
            setattr(holder, key, original)
        self._installed.clear()

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def stats(self, name: str) -> tuple[int, float, float]:
        """(calls, inclusive seconds, self seconds) of one wrapped span
        name; an unknown name raises ValueError."""
        k = self.names.index(name)
        return self.calls[k], self.total_ns[k] / 1e9, self.self_ns[k] / 1e9

    def write_spans(self, path) -> None:
        """One JSON object per line: the name table, then one per span."""
        with gzip.open(path, "wt") as f:
            f.write(json.dumps({"names": self.names, "dropped": self.dropped,
                                "fields": ["name", "start_ns", "end_ns",
                                           "parent", "instance"]}) + "\n")
            for rec in self.spans:
                f.write(json.dumps(rec) + "\n")


def self_times(spans: list[list[int]]) -> list[int]:
    """Self time of each recorded span, from the records alone."""
    out = [rec[2] - rec[1] for rec in spans]
    for rec in spans:
        if rec[3] >= 0:
            out[rec[3]] -= rec[2] - rec[1]
    return out
