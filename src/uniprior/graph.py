"""Directed information-flow graph machinery.

WorkGraph is the object pruning and appending operate on.  Instances of
it are treated as values: every mutation helper returns a fresh graph.
A graph is stored as its adjacency alone (``arcs`` is read from it).
Dummy vertices (added when appending message-disconnected leaf SCCs)
carry weight 0 and never source an arc, so they are permanent leaves.

Because graphs are values, derived structure is stored on the graph on
first use: the leaf SCCs, the SCC partition, the leaf set, the leaf
cover the witness search starts from, and each vertex's forward reach.
A graph made from another by one step (``with_arc``,
``without_out_arcs``, ``with_new_dummy``) patches its parent's adjacency
and checks only the new arc.  If the parent's leaf SCCs (SCCs of >= 2
vertices that no arc leaves) are known, the step hands the child its
own, derived from the parent's with no SCC pass and no child built
(``_stepped_leaf_sccs``).  Let C be the SCC of the step's source vertex
a:
- prune of a: C is no leaf SCC any more, and no new one appears.  A
  path between two vertices of another SCC never passed through a (a
  would belong to that SCC), so only C can split.  No part of C is a
  leaf: a strongly connected S within C, S != C, |S| >= 2, had an arc
  into C minus S, and that arc's source is not a, which is now a sink.
- new dummy d under a: C gains an arc out, and d is a singleton.
- new arc (a, b): inside C nothing changes.  If b does not reach a, C
  gains an arc out.  Otherwise the vertices on paths from b to a join C
  in one SCC M: a, b and the vertices b reaches that reach a, all read
  on the parent, since no such path uses the new arc.  C is the only
  leaf SCC M can contain (a leaf SCC reaches nothing outside itself,
  and all of M reaches a), and M is a leaf SCC iff no arc of the parent
  leaves it.
Every other SCC keeps its vertices and out-arcs, hence whether it is a
leaf.

A step whose source a had out-arcs also hands the child the parent's
leaf set and leaf cover (the real leaves and every vertex with a path to
one), if the parent had them.  Let the hit set H be {a} and every
vertex with a path to a; H is the same read on parent or child, since a
path into a never needs a's out-arcs (cut it at its first visit to a).
- prune of a: leaves' = leaves + {a}.  If a is outside the cover (a
  reaches no real leaf, as in a leaf SCC), no path to a real leaf passes
  through a, so every old one survives, and the new ones end at a:
  cover' = cover + H.  Otherwise the cover is computed afresh.
- new dummy d under a: leaves' = leaves + {d}; the new arc ends at a sink
  that is no real leaf, so cover' = cover.
- new arc (a, b): a stays a non-leaf, so leaves' = leaves.  A new path to
  a real leaf uses (a, b); after its last use it runs on parent arcs, so
  it exists iff b is in the cover, and then its start reaches a:
  cover' = cover + H if b is in the cover, else cover.
- any step: a vertex x outside H never visits a, so it uses none of the
  arcs the step changed: reach'(x) = reach(x).  The hit-set rule of
  ``multi._rule_of_thumb_pick`` rests on this.
A step from a source without out-arcs (which the solver never takes)
turns a leaf into a non-leaf, and the child computes leaves and cover
afresh.  A child never holds its parent graph, only the parent's sets,
so no chain of graphs stays alive.
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
        arcs = frozenset(arcs)
        self.weight: dict[int, int] = dict(weight)
        self.dummies: frozenset[int] = frozenset(dummies)
        vs = set(self.vertices)
        if len(vs) != len(self.vertices):
            v = next(v for v, w in zip(self.vertices, self.vertices[1:]) if v == w)
            raise ValueError(f"vertex {v} repeated")
        if not self.dummies <= vs:
            raise ValueError(f"dummy {min(self.dummies - vs)} is not a vertex")
        for (i, j) in arcs:
            _check_arc(i, j, vs, self.dummies)
        for d in self.dummies:
            if self.weight.get(d, 0) != 0:
                raise ValueError(f"dummy vertex {d} must have weight 0")
        self._out: dict[int, tuple[int, ...]] = {v: () for v in self.vertices}
        self._in: dict[int, tuple[int, ...]] = {v: () for v in self.vertices}
        out: dict[int, list[int]] = {}
        inn: dict[int, list[int]] = {}
        for (i, j) in arcs:
            out.setdefault(i, []).append(j)
            inn.setdefault(j, []).append(i)
        for v, ns in out.items():
            self._out[v] = tuple(sorted(ns))
        for v, ns in inn.items():
            self._in[v] = tuple(sorted(ns))
        self._init_derived(None)

    def _init_derived(self, leaf_sets, leaves=None, cover=None) -> None:
        # Derived structure, filled on first query unless the step that
        # made this graph handed it over (see the module docstring);
        # _hits holds hit sets by source.
        self._scc: SccPartition | None = None
        self._leaf_sets: tuple[frozenset[int], ...] | None = leaf_sets
        self._leaves: frozenset[int] | None = leaves
        self._cover: tuple | None = cover
        self._reach: dict[int, frozenset[int]] = {}
        self._hits: dict[int, frozenset[int]] = {}

    def _child(self, step: tuple | None, out, inn, new_leaf=None, vertices=None,
               weight=None, dummies=None) -> WorkGraph:
        """A graph one step from this one, on the given patched adjacency:
        step is (a,) for a prune of a (new_leaf a) or a dummy under a
        (new_leaf the dummy), (a, b) for a new arc, None when the child
        equals this graph."""
        g = WorkGraph.__new__(WorkGraph)
        g.vertices = self.vertices if vertices is None else vertices
        g.weight = self.weight if weight is None else weight
        g.dummies = self.dummies if dummies is None else dummies
        g._out, g._in = out, inn
        if step is None:
            g._init_derived(self._leaf_sets, self._leaves, self._cover)
            return g
        leaf_sets = self._leaf_sets
        if leaf_sets is not None:
            leaf_sets = _stepped_leaf_sccs(self, *step)
        a = step[0]
        leaves = cover = None
        if self._out[a]:
            if self._leaves is not None:
                leaves = self._leaves if new_leaf is None else self._leaves | {new_leaf}
            if self._cover is not None:
                real, covered = self._cover
                if new_leaf == a:
                    if a not in covered:
                        cover = (real | {a}, covered | hit_set(self, a))
                elif len(step) == 2 and step[1] in covered:
                    cover = (real, covered | hit_set(self, a))
                else:
                    cover = self._cover
        g._init_derived(leaf_sets, leaves, cover)
        return g

    @classmethod
    def from_instance(cls, inst: Instance) -> WorkGraph:
        return cls(range(1, inst.n + 1), inst.arcs,
                   {v: inst.q[v - 1] for v in range(1, inst.n + 1)})

    @property
    def arcs(self) -> frozenset[tuple[int, int]]:
        return frozenset((v, w) for v, ns in self._out.items() for w in ns)

    def out_neighbors(self, v: int) -> tuple[int, ...]:
        return self._out[v]

    def out_degree(self, v: int) -> int:
        return len(self._out[v])

    def real_vertices(self) -> list[int]:
        return [v for v in self.vertices if v not in self.dummies]

    def with_arc(self, i: int, j: int) -> WorkGraph:
        _check_arc(i, j, self._out, self.dummies)
        if j in self._out[i]:
            return self._child(None, self._out, self._in)
        out = dict(self._out)
        out[i] = tuple(sorted(out[i] + (j,)))
        inn = dict(self._in)
        inn[j] = tuple(sorted(inn[j] + (i,)))
        return self._child((i, j), out, inn)

    def without_out_arcs(self, v: int) -> WorkGraph:
        outs = self._out.get(v, ())
        if not outs:
            return self._child(None, self._out, self._in)
        out = dict(self._out)
        out[v] = ()
        inn = dict(self._in)
        for w in outs:
            inn[w] = tuple(x for x in inn[w] if x != v)
        return self._child((v,), out, inn, new_leaf=v)

    def with_new_dummy(self, source: int) -> tuple[WorkGraph, int]:
        """Add a fresh dummy vertex and an arc source -> dummy."""
        d = max(self.vertices) + 1
        out = dict(self._out)
        out[d] = ()
        _check_arc(source, d, out, self.dummies)
        out[source] += (d,)  # d is the largest vertex, so this stays sorted
        inn = dict(self._in)
        inn[d] = (source,)
        g = self._child((source,), out, inn, new_leaf=d, vertices=self.vertices + (d,),
                        weight={**self.weight, d: 0}, dummies=self.dummies | {d})
        return g, d

    def __eq__(self, other) -> bool:
        return (isinstance(other, WorkGraph)
                and self.vertices == other.vertices
                and self._out == other._out
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
    """Kosaraju's two passes, iterative, run once per graph on first query.
    Components are listed by smallest contained vertex so traces are
    reproducible.  Exact for any graph; the leaf SCCs of a graph derived
    by one step come from its parent's instead (``leaf_scc_sets``)."""
    if g._scc is None:
        comps = _strong_components(g._out, g._in, g.vertices)
        comps.sort(key=min)
        g._scc = SccPartition(components=tuple(comps),
                              leaf_flags=tuple(_is_leaf(g, c) for c in comps))
    return g._scc


def _is_leaf(g: WorkGraph, comp: frozenset[int]) -> bool:
    return len(comp) >= 2 and all(w in comp for v in comp for w in g._out[v])


def _stepped_leaf_sccs(g: WorkGraph, a: int, b: int | None = None) -> tuple:
    """The leaf SCCs of g's child by one step, from g's own and with no
    child built, by the rules in the module docstring: b None for a prune
    of a or a new dummy under a, else a new arc (a, b) not in g."""
    leafs = _leaf_sccs(g)
    k = next((k for k, c in enumerate(leafs) if a in c), None)
    if b is not None:
        if k is not None and b in leafs[k]:
            return leafs
        fwd = reach(g, b)
        if a in fwd:
            # a, b and the vertices reachable from b that reach a
            merged = {a, b}
            stack = [a, b]
            while stack:
                for x in g._in[stack.pop()]:
                    if x in fwd and x not in merged:
                        merged.add(x)
                        stack.append(x)
            merged = frozenset(merged)
            if _is_leaf(g, merged):
                stepped = [c for c in leafs if a not in c]
                insort(stepped, merged, key=min)
                return tuple(stepped)
    return leafs if k is None else leafs[:k] + leafs[k + 1:]


def _strong_components(out, inn, roots) -> list[frozenset[int]]:
    """Kosaraju's SCCs of the graph given by out and its mirror inn
    (vertex -> neighbors), searched from roots in order.  A DFS lists the
    vertices by finishing time; then, latest first, each vertex not yet
    placed collects one component by walking inn over unplaced vertices."""
    seen: set[int] = set()
    order: list[int] = []
    for root in roots:
        if root in seen:
            continue
        seen.add(root)
        stack = [(root, iter(out[root]))]
        while stack:
            v, it = stack[-1]
            for w in it:
                if w not in seen:
                    seen.add(w)
                    stack.append((w, iter(out[w])))
                    break
            else:
                stack.pop()
                order.append(v)
    placed: set[int] = set()
    comps: list[frozenset[int]] = []
    for v in reversed(order):
        if v in placed:
            continue
        placed.add(v)
        comp = [v]
        for u in comp:  # comp grows as it is walked
            for w in inn[u]:
                if w not in placed:
                    placed.add(w)
                    comp.append(w)
        comps.append(frozenset(comp))
    return comps


def leaf_scc_sets(g: WorkGraph) -> list[frozenset[int]]:
    """The leaf SCCs by smallest contained vertex, as a new list.  A root
    graph reads them from its SCC partition; a graph one step from a graph
    whose leaf SCCs were known got its own at the step, by the three rules
    of the module docstring, with no SCC pass."""
    return list(_leaf_sccs(g))


def _leaf_sccs(g: WorkGraph) -> tuple[frozenset[int], ...]:
    """leaf_scc_sets without the copy, computed once per graph."""
    if g._leaf_sets is None:
        g._leaf_sets = tuple(scc_partition(g).leaf_components())
    return g._leaf_sets


def leaf_vertices(g: WorkGraph) -> frozenset[int]:
    """Vertices with no outgoing arcs; their messages are wanted by no one."""
    if g._leaves is None:
        g._leaves = frozenset(v for v, ns in g._out.items() if not ns)
    return g._leaves


def leaf_cover(g: WorkGraph) -> tuple[frozenset[int], frozenset[int]]:
    """(real leaves, those leaves with all their predecessors), computed
    once per graph or handed over by the step that made it: the s_outside
    of a leaf-only degeneracy witness and the vertices it covers.  No leaf
    lies in a leaf SCC, so these are the same for every leaf SCC of g."""
    if g._cover is None:
        real = leaf_vertices(g) - g.dummies
        g._cover = (real, real | _closure(g._in, real))
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
    if v not in g._in:
        raise ValueError(f"vertex {v} not in graph")
    return _closure(g._in, (v,))


def hit_set(g: WorkGraph, a: int) -> frozenset[int]:
    """a and every vertex with a path to a, computed once per graph and
    vertex: the vertices whose reach a step from a can change, the same
    on g and on the child (see the module docstring)."""
    found = g._hits.get(a)
    if found is None:
        found = g._hits[a] = _closure(g._in, (a,)) | {a}
    return found


def reach(g: WorkGraph, v: int) -> frozenset[int]:
    """All vertices with a nonempty directed path from v, computed once
    per graph and vertex; the mirror of predecessors."""
    found = g._reach.get(v)
    if found is None:
        if v not in g._out:
            raise ValueError(f"vertex {v} not in graph")
        found = g._reach[v] = _closure(g._out, (v,))
    return found


def v_out(g: WorkGraph) -> int:
    """Number of non-leaf vertices.  Dummies are always leaves, so this
    counts real vertices only."""
    return sum(1 for v in g.vertices if g.out_degree(v) > 0)
