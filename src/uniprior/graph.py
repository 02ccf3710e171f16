"""Directed information-flow graph machinery.

WorkGraph is the object pruning and appending operate on.  Instances of
it are treated as values: every mutation helper returns a fresh graph.
Dummy vertices (added when appending message-disconnected leaf SCCs)
carry weight 0 and never source an arc, so they are permanent leaves.

Because graphs are values, each query below runs at most once per
graph: the SCC partition, the leaf set and each vertex's predecessors
are stored on the graph on first use.
"""

from __future__ import annotations

from dataclasses import dataclass

from .instance import Instance


class WorkGraph:
    def __init__(self, vertices, arcs, weight, dummies=()):
        self.vertices: tuple[int, ...] = tuple(sorted(vertices))
        self.arcs: frozenset[tuple[int, int]] = frozenset(arcs)
        self.weight: dict[int, int] = dict(weight)
        self.dummies: frozenset[int] = frozenset(dummies)
        vs = set(self.vertices)
        for (i, j) in self.arcs:
            if i == j:
                raise ValueError(f"self-arc ({i}, {j})")
            if i not in vs or j not in vs:
                raise ValueError(f"arc ({i}, {j}) endpoint not a vertex")
            if i in self.dummies:
                raise ValueError(f"dummy vertex {i} cannot source an arc")
        for d in self.dummies:
            if self.weight.get(d, 0) != 0:
                raise ValueError(f"dummy vertex {d} must have weight 0")
        self._out: dict[int, tuple[int, ...]] = {v: () for v in self.vertices}
        self._in: dict[int, tuple[int, ...]] = {v: () for v in self.vertices}
        out: dict[int, list[int]] = {}
        inn: dict[int, list[int]] = {}
        for (i, j) in self.arcs:
            out.setdefault(i, []).append(j)
            inn.setdefault(j, []).append(i)
        for v, ns in out.items():
            self._out[v] = tuple(sorted(ns))
        for v, ns in inn.items():
            self._in[v] = tuple(sorted(ns))
        # Derived structure, filled on first query (see the module
        # docstring); _classes holds leaf-SCC classes for Algorithm 2.
        self._scc: SccPartition | None = None
        self._leaves: frozenset[int] | None = None
        self._preds: dict[int, frozenset[int]] = {}
        self._classes: dict = {}

    @classmethod
    def from_instance(cls, inst: Instance) -> WorkGraph:
        return cls(range(1, inst.n + 1), inst.arcs,
                   {v: inst.q[v - 1] for v in range(1, inst.n + 1)})

    def out_neighbors(self, v: int) -> tuple[int, ...]:
        return self._out[v]

    def in_neighbors(self, v: int) -> tuple[int, ...]:
        return self._in[v]

    def out_degree(self, v: int) -> int:
        return len(self._out[v])

    def real_vertices(self) -> list[int]:
        return [v for v in self.vertices if v not in self.dummies]

    def with_arcs(self, arcs) -> WorkGraph:
        return WorkGraph(self.vertices, arcs, self.weight, self.dummies)

    def with_arc(self, i: int, j: int) -> WorkGraph:
        return self.with_arcs(self.arcs | {(i, j)})

    def without_out_arcs(self, v: int) -> WorkGraph:
        return self.with_arcs({(i, j) for (i, j) in self.arcs if i != v})

    def with_new_dummy(self, source: int) -> tuple[WorkGraph, int]:
        """Add a fresh dummy vertex and an arc source -> dummy."""
        d = max(self.vertices) + 1
        g = WorkGraph(self.vertices + (d,), self.arcs | {(source, d)},
                      {**self.weight, d: 0}, self.dummies | {d})
        return g, d

    def __eq__(self, other) -> bool:
        return (isinstance(other, WorkGraph)
                and self.vertices == other.vertices
                and self.arcs == other.arcs
                and self.weight == other.weight
                and self.dummies == other.dummies)

    def __repr__(self) -> str:
        return (f"WorkGraph(vertices={self.vertices}, "
                f"arcs={sorted(self.arcs)}, dummies={sorted(self.dummies)})")


@dataclass(frozen=True)
class SccPartition:
    components: tuple[frozenset[int], ...]
    leaf_flags: tuple[bool, ...]

    def leaf_components(self) -> list[frozenset[int]]:
        return [c for c, f in zip(self.components, self.leaf_flags) if f]


def scc_partition(g: WorkGraph) -> SccPartition:
    """Tarjan's algorithm, iterative.  Components are listed by smallest
    contained vertex so traces are reproducible."""
    if g._scc is None:
        g._scc = _tarjan(g)
    return g._scc


def _tarjan(g: WorkGraph) -> SccPartition:
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    counter = 0
    comps: list[frozenset[int]] = []

    for root in g.vertices:
        if root in index:
            continue
        # explicit DFS stack of (vertex, iterator position)
        work = [(root, 0)]
        while work:
            v, pi = work.pop()
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack.add(v)
            recurse = False
            ns = g.out_neighbors(v)
            for k in range(pi, len(ns)):
                w = ns[k]
                if w not in index:
                    work.append((v, k + 1))
                    work.append((w, 0))
                    recurse = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if recurse:
                continue
            if low[v] == index[v]:
                comp = set()
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.add(w)
                    if w == v:
                        break
                comps.append(frozenset(comp))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])

    comps.sort(key=min)
    flags = []
    for comp in comps:
        leaf = len(comp) >= 2 and all(w in comp for v in comp for w in g.out_neighbors(v))
        flags.append(leaf)
    return SccPartition(components=tuple(comps), leaf_flags=tuple(flags))


def leaf_scc_sets(g: WorkGraph) -> list[frozenset[int]]:
    return scc_partition(g).leaf_components()


def leaf_vertices(g: WorkGraph) -> frozenset[int]:
    """Vertices with no outgoing arcs; their messages are wanted by no one."""
    if g._leaves is None:
        g._leaves = frozenset(v for v in g.vertices if g.out_degree(v) == 0)
    return g._leaves


def predecessors(g: WorkGraph, v: int) -> frozenset[int]:
    """All vertices with a nonempty directed path to v.

    v itself is included only when it lies on a cycle through itself.
    """
    preds = g._preds.get(v)
    if preds is not None:
        return preds
    if v not in g.weight:
        raise ValueError(f"vertex {v} not in graph")
    seen: set[int] = set()
    frontier = list(g.in_neighbors(v))
    while frontier:
        u = frontier.pop()
        if u in seen:
            continue
        seen.add(u)
        frontier.extend(g.in_neighbors(u))
    preds = g._preds[v] = frozenset(seen)
    return preds


def is_grounded(g: WorkGraph) -> bool:
    """True iff every vertex is a leaf or a predecessor of some leaf.

    Implemented straight from that definition (reverse reachability from
    the leaf set), deliberately not via the SCC decomposition: the
    equivalence with "no leaf SCC" is a tested property, not an
    implementation shortcut.
    """
    leaves = [v for v in g.vertices if g.out_degree(v) == 0]
    reached = set(leaves)
    frontier = list(leaves)
    while frontier:
        u = frontier.pop()
        for w in g.in_neighbors(u):
            if w not in reached:
                reached.add(w)
                frontier.append(w)
    return len(reached) == len(g.vertices)


def predecessor_weight_bound(g: WorkGraph) -> int:
    """Total weight of vertices that precede some leaf.

    On a grounded graph this is the total weight of all non-leaf
    vertices, the sharpest form of the predecessor lower bound.
    """
    leaves = [v for v in g.vertices if g.out_degree(v) == 0]
    preds: set[int] = set()
    frontier = list(leaves)
    seen = set(leaves)
    while frontier:
        u = frontier.pop()
        for w in g.in_neighbors(u):
            if w not in seen:
                seen.add(w)
                preds.add(w)
                frontier.append(w)
    # a leaf reached backward from another leaf is impossible (no out-arcs),
    # so preds never contains a leaf
    return sum(g.weight[v] for v in preds)


def v_out(g: WorkGraph) -> int:
    """Number of non-leaf vertices.  Dummies are always leaves, so this
    counts real vertices only."""
    return sum(1 for v in g.vertices if g.out_degree(v) > 0)
