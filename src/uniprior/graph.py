"""Directed information-flow graph machinery.

WorkGraph is the object pruning and appending operate on.  Instances of
it are treated as values: every mutation helper returns a fresh graph.
Dummy vertices (added when appending message-disconnected leaf SCCs)
carry weight 0 and never source an arc, so they are permanent leaves.

Because graphs are values, derived structure is stored on the graph on
first use: the SCC partition, the leaf set, the leaf cover the witness
search starts from, and each vertex's predecessors and forward reach.
A graph made from another by one step (``with_arc``,
``without_out_arcs``, ``with_new_dummy``) is not rebuilt: it patches
its parent's adjacency and checks only the new arc.  If the parent's
SCC partition was computed when the step was taken, the child keeps
that partition and the step, and on first query inherits its own
partition by a local update (``_child_partition``): one step changes
only the SCC of the vertex it touches.  A child never holds its parent
graph, so no chain of graphs stays alive.
"""

from __future__ import annotations

from bisect import insort
from collections import namedtuple

from .instance import Instance


def _check_arc(i: int, j: int, vertices, dummies) -> None:
    if i == j:
        raise ValueError(f"self-arc ({i}, {j})")
    if i not in vertices or j not in vertices:
        raise ValueError(f"arc ({i}, {j}) endpoint not a vertex")
    if i in dummies:
        raise ValueError(f"dummy vertex {i} cannot source an arc")


class WorkGraph:
    def __init__(self, vertices, arcs, weight, dummies=()):
        self.vertices: tuple[int, ...] = tuple(sorted(vertices))
        self.arcs: frozenset[tuple[int, int]] = frozenset(arcs)
        self.weight: dict[int, int] = dict(weight)
        self.dummies: frozenset[int] = frozenset(dummies)
        vs = set(self.vertices)
        for (i, j) in self.arcs:
            _check_arc(i, j, vs, self.dummies)
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
        self._init_derived(None)

    def _init_derived(self, base) -> None:
        # Derived structure, filled on first query (see the module
        # docstring); _classes holds semi leaf-SCC classes for Algorithm 2.
        self._scc: SccPartition | None = None
        self._leaves: frozenset[int] | None = None
        self._cover: tuple | None = None
        self._preds: dict[int, frozenset[int]] = {}
        self._reach: dict[int, frozenset[int]] = {}
        self._classes: dict = {}
        # (parent's partition, step) until this graph's partition is derived
        self._base: tuple[SccPartition, tuple | None] | None = base

    def _child(self, step: tuple | None, arcs, out, inn, vertices=None, weight=None,
               dummies=None) -> WorkGraph:
        """A graph one step from this one, on the given patched adjacency;
        step None means the child equals this graph."""
        g = WorkGraph.__new__(WorkGraph)
        g.vertices = self.vertices if vertices is None else vertices
        g.arcs = arcs
        g.weight = self.weight if weight is None else weight
        g.dummies = self.dummies if dummies is None else dummies
        g._out, g._in = out, inn
        g._init_derived(None if self._scc is None else (self._scc, step))
        return g

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
        _check_arc(i, j, self._out, self.dummies)
        if j in self._out[i]:
            return self._child(None, self.arcs, self._out, self._in)
        out = dict(self._out)
        out[i] = tuple(sorted(out[i] + (j,)))
        inn = dict(self._in)
        inn[j] = tuple(sorted(inn[j] + (i,)))
        return self._child(("arc", i, j), self.arcs | {(i, j)}, out, inn)

    def without_out_arcs(self, v: int) -> WorkGraph:
        outs = self._out.get(v, ())
        if not outs:
            return self._child(None, self.arcs, self._out, self._in)
        out = dict(self._out)
        out[v] = ()
        inn = dict(self._in)
        for w in outs:
            inn[w] = tuple(x for x in inn[w] if x != v)
        return self._child(("prune", v), self.arcs.difference([(v, w) for w in outs]),
                           out, inn)

    def with_new_dummy(self, source: int) -> tuple[WorkGraph, int]:
        """Add a fresh dummy vertex and an arc source -> dummy."""
        d = max(self.vertices) + 1
        vertices = self.vertices + (d,)
        _check_arc(source, d, vertices, self.dummies)
        out = dict(self._out)
        out[source] += (d,)  # d is the largest vertex, so this stays sorted
        out[d] = ()
        inn = dict(self._in)
        inn[d] = (source,)
        g = self._child(("dummy", source, d), self.arcs | {(source, d)}, out, inn,
                        vertices=vertices, weight={**self.weight, d: 0},
                        dummies=self.dummies | {d})
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


class SccPartition(namedtuple("SccPartition", "components leaf_flags")):
    """The strongly connected components, each a frozenset, and whether
    each is a leaf SCC."""

    __slots__ = ()

    def leaf_components(self) -> list[frozenset[int]]:
        return [c for c, f in zip(self.components, self.leaf_flags) if f]


def scc_partition(g: WorkGraph) -> SccPartition:
    """Tarjan's algorithm, iterative, or the parent's partition updated
    by one step.  Components are listed by smallest contained vertex so
    traces are reproducible."""
    if g._scc is None:
        g._scc = _tarjan(g) if g._base is None else _child_partition(g, *g._base)
        g._base = None
    return g._scc


def _is_leaf(g: WorkGraph, comp: frozenset[int]) -> bool:
    return len(comp) >= 2 and all(w in comp for v in comp for w in g._out[v])


def _tarjan(g: WorkGraph) -> SccPartition:
    comps = _strong_components(g._out, g.vertices)
    comps.sort(key=min)
    return SccPartition(components=tuple(comps),
                        leaf_flags=tuple(_is_leaf(g, c) for c in comps))


def _child_partition(g: WorkGraph, parent: SccPartition, step: tuple | None) -> SccPartition:
    """g's partition from the partition of the graph one step before it.

    Only the SCC C of the step's source vertex a can change:
    - prune of a: a path between two vertices of another SCC never
      passes through a (a would belong to that SCC), so only C can
      split; Tarjan runs on C's arcs alone.  No part of C is a leaf: a
      strongly connected S within C, S != C, |S| >= 2, had an arc into
      C minus S, and that arc's source is not a, which is now a sink.
    - new arc (a, b): inside C nothing changes.  Across SCCs, C stops
      being a leaf unless b reaches a; then every vertex on a path from
      b to a joins one SCC with C.
    - new dummy d under a: d is a singleton listed last (it is the
      largest vertex), and C stops being a leaf.
    Every other SCC keeps its vertices and out-arcs, hence its flag.
    """
    if step is None:
        return parent
    kind, a = step[0], step[1]
    pairs = list(zip(parent.components, parent.leaf_flags))
    k = next(k for k, (c, _) in enumerate(pairs) if a in c)
    comp = pairs[k][0]
    if kind == "prune":
        del pairs[k]
        out = {v: tuple(w for w in g._out[v] if w in comp) for v in comp}
        for c in _strong_components(out, sorted(comp)):
            insort(pairs, (c, False), key=_pair_min)
    elif kind == "dummy":
        pairs[k] = (comp, False)
        pairs.append((frozenset((step[2],)), False))
    else:
        b = step[2]
        if b in comp:
            return parent
        fwd = reach(g, b)
        if a not in fwd:
            pairs[k] = (comp, False)
        else:
            # the vertices reachable from b that reach a
            merged = {a}
            stack = [a]
            while stack:
                for x in g._in[stack.pop()]:
                    if x in fwd and x not in merged:
                        merged.add(x)
                        stack.append(x)
            merged = frozenset(merged)
            pairs = [p for p in pairs if not p[0] <= merged]
            insort(pairs, (merged, _is_leaf(g, merged)), key=_pair_min)
    return SccPartition(components=tuple(c for c, _ in pairs),
                        leaf_flags=tuple(f for _, f in pairs))


def _pair_min(pair) -> int:
    return min(pair[0])


def _strong_components(out, roots) -> list[frozenset[int]]:
    """Tarjan's SCCs of the graph given by out (vertex -> sorted out-
    neighbors), searched from roots in order."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    counter = 0
    comps: list[frozenset[int]] = []

    for root in roots:
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
            ns = out[v]
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
    return comps


def leaf_scc_sets(g: WorkGraph) -> list[frozenset[int]]:
    return scc_partition(g).leaf_components()


def leaf_vertices(g: WorkGraph) -> frozenset[int]:
    """Vertices with no outgoing arcs; their messages are wanted by no one."""
    if g._leaves is None:
        g._leaves = frozenset(v for v, ns in g._out.items() if not ns)
    return g._leaves


def leaf_cover(g: WorkGraph) -> tuple[frozenset[int], frozenset[int], tuple[int, ...]]:
    """(real leaves, those leaves with all their predecessors, real
    non-leaves ascending), computed once per graph: the s_outside of a
    leaf-only degeneracy witness, the vertices it covers, and the
    candidates for its one non-leaf.  No leaf lies in a leaf SCC, so
    these are the same for every leaf SCC of g."""
    if g._cover is None:
        leaves = leaf_vertices(g)
        real = leaves - g.dummies
        g._cover = (real, real | _closure(g._in, real),
                    tuple(v for v in g.vertices if v not in leaves))
    return g._cover


def _closure(adj: dict[int, tuple[int, ...]], sources) -> frozenset[int]:
    """Vertices reached from some source by >= 1 step along adj."""
    seen: set[int] = set()
    frontier = [w for v in sources for w in adj[v]]
    while frontier:
        u = frontier.pop()
        if u in seen:
            continue
        seen.add(u)
        frontier.extend(adj[u])
    return frozenset(seen)


def predecessors(g: WorkGraph, v: int) -> frozenset[int]:
    """All vertices with a nonempty directed path to v.

    v itself is included only when it lies on a cycle through itself.
    """
    preds = g._preds.get(v)
    if preds is None:
        if v not in g._in:
            raise ValueError(f"vertex {v} not in graph")
        preds = g._preds[v] = _closure(g._in, (v,))
    return preds


def reach(g: WorkGraph, v: int) -> frozenset[int]:
    """All vertices with a nonempty directed path from v; the mirror of
    predecessors, memoized the same way."""
    found = g._reach.get(v)
    if found is None:
        if v not in g._out:
            raise ValueError(f"vertex {v} not in graph")
        found = g._reach[v] = _closure(g._out, (v,))
    return found


def is_grounded(g: WorkGraph) -> bool:
    """True iff every vertex is a leaf or a predecessor of some leaf.

    Implemented straight from that definition (reverse reachability from
    the leaf set), deliberately not via the SCC decomposition: the
    equivalence with "no leaf SCC" is a tested property, not an
    implementation shortcut.
    """
    leaves = leaf_vertices(g)
    return len(leaves) + len(_closure(g._in, leaves)) == len(g.vertices)


def predecessor_weight_bound(g: WorkGraph) -> int:
    """Total weight of vertices that precede some leaf.

    On a grounded graph this is the total weight of all non-leaf
    vertices, the sharpest form of the predecessor lower bound.
    """
    # a leaf reached backward from another leaf is impossible (no out-arcs),
    # so the closure never contains a leaf
    return sum(g.weight[v] for v in _closure(g._in, leaf_vertices(g)))


def v_out(g: WorkGraph) -> int:
    """Number of non-leaf vertices.  Dummies are always leaves, so this
    counts real vertices only."""
    return sum(1 for v in g.vertices if g.out_degree(v) > 0)
