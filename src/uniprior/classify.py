"""Leaf-SCC classification by message-graph connectivity.

A leaf SCC is message-connected (connected inside itself on the message
graph), message-disconnected (some pair unreachable even through the
whole message graph), or semi.  A semi leaf SCC is degenerated when a
witness (s_inside, s_outside) certifies it can be appended without
raising the optimal codelength, and non-degenerated otherwise.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from enum import Enum

from .graph import WorkGraph, _leaf_sccs, leaf_cover, leaf_vertices, reach
from .instance import MessageGraph


class Kind(str, Enum):
    MESSAGE_CONNECTED = "MessageConnected"
    MESSAGE_DISCONNECTED = "MessageDisconnected"
    DEGENERATED = "Degenerated"
    NON_DEGENERATED = "NonDegenerated"


# s_inside and s_outside: frozensets of vertices; v_inside in s_inside
# and target in s_outside, the ends of the appended arc
DegeneracyWitness = namedtuple("DegeneracyWitness", "s_inside s_outside v_inside target")

# kind: a Kind; disconnected_pair (a message-disconnected SCC) and
# degeneracy (a degenerated one): the evidence, None for other kinds
LeafSccClass = namedtuple("LeafSccClass", "kind disconnected_pair degeneracy",
                          defaults=(None, None))


def _require_leaf_scc(g: WorkGraph, scc: frozenset[int]) -> None:
    if scc not in _leaf_sccs(g):
        raise ValueError(f"{sorted(scc)} is not a leaf SCC of the graph")


_CONNECTED = LeafSccClass(kind=Kind.MESSAGE_CONNECTED)


def message_class(u: MessageGraph, scc: frozenset[int]) -> list:
    """What the message graph alone decides about a leaf SCC, computed
    once per (u, scc) and memoized on u, as a list: the class of a
    message-connected or message-disconnected SCC (None for a semi one),
    the SCC's message components (None until needed), and the s_inside
    candidates of a witness (None until ``witness_options`` first needs
    them).

    Global component ids settle disconnection first: an SCC that meets
    two message components of u is message-disconnected, and its first
    split pair (a, b) in sorted order has a = min(scc).  Only the others
    are split into their components inside the SCC.
    """
    part = u._scc_classes.get(scc)
    if part is None:
        first = min(scc)
        home = u.component_of(first)
        comp_of = u._comp_of
        if any(comp_of[v] != home for v in scc):
            b = min(v for v in scc if comp_of[v] != home)
            part = [LeafSccClass(kind=Kind.MESSAGE_DISCONNECTED, disconnected_pair=(first, b)),
                    None, None]
        else:
            comps = u.components_within(scc)
            part = [_CONNECTED if len(comps) <= 1 else None, comps, None]
        u._scc_classes[scc] = part
    return part


def _inside(u: MessageGraph, scc: frozenset[int]) -> tuple:
    """The s_inside candidates of a witness on scc, as (component, its
    message neighbours) pairs, one per message component inside the SCC
    (none when the SCC is message-connected), built on first use.  A
    component has no message edge to the rest of the SCC, since it is a
    component of the graph induced on the SCC.

    Any valid s_inside is a union of such components, and if a union
    works then each member component works with the same s_outside, so
    trying single components is complete.
    """
    part = message_class(u, scc)
    if part[2] is None:
        if part[1] is None:
            part[1] = u.components_within(scc)
        comps = part[1]
        part[2] = () if len(comps) <= 1 else tuple(
            (comp, frozenset(u.neighbors_of_set(comp))) for comp in comps)
    return part[2]


def missed_neighbors(g: WorkGraph, u: MessageGraph, scc: frozenset[int]) -> frozenset[int]:
    """The message neighbours of the SCC's components that g's leaf cover
    misses: the vertices a step must touch before a non-degenerated SCC
    can gain a witness (the hit-set rule of ``multi._rule_of_thumb_pick``)."""
    return frozenset().union(*(nbrs for _, nbrs in _inside(u, scc))) - leaf_cover(g)[1]


def common_reach(g: WorkGraph, missed) -> set[int]:
    """The vertices that every vertex of missed (not empty) reaches or is:
    the w that cover what the leaves' cover misses, by condition (c)."""
    targets = None
    for x in missed:
        fwd = reach(g, x)
        targets = fwd | {x} if targets is None else {w for w in targets if w == x or w in fwd}
        if not targets:
            break
    return targets


def witness_options(g: WorkGraph, u: MessageGraph,
                    scc: frozenset[int]) -> Iterator[DegeneracyWitness]:
    """Every admissible append of a leaf SCC, canonical one first: each
    s_inside candidate of ``_inside``, each canonical s_outside (all real
    leaves, which lie outside the SCC, plus at most one non-leaf), each
    v_inside in the component, and as target any of those leaves when
    s_outside has no non-leaf, else the non-leaf.

    Enlarging s_outside only helps, so the canonical ones are complete.
    Dummy vertices are left out of witnesses: their correctness argument
    is the disconnected-append one, not this one.
    """
    leaves, cover = leaf_cover(g)
    for comp, nbrs in _inside(u, scc):
        # condition (c) with s_outside = leaves + w: what the leaves'
        # cover misses must be w or precede w, so w is reachable from
        # every missed vertex (or is the one missed vertex)
        missed = nbrs - cover
        if leaves and not missed:
            for v_inside in sorted(comp):
                for target in sorted(leaves):
                    yield DegeneracyWitness(s_inside=comp, s_outside=leaves,
                                            v_inside=v_inside, target=target)
        all_leaves = leaf_vertices(g)
        if missed:
            targets = sorted(w for w in common_reach(g, missed)
                             if w not in all_leaves and w not in scc)
        else:
            targets = [w for w in g.vertices if w not in all_leaves and w not in scc]
        for w in targets:
            s_outside = leaves | {w}
            for v_inside in sorted(comp):
                yield DegeneracyWitness(s_inside=comp, s_outside=s_outside,
                                        v_inside=v_inside, target=w)


def find_degeneracy_witness(g: WorkGraph, u: MessageGraph,
                            scc: frozenset[int]) -> DegeneracyWitness | None:
    """Canonical witness: the first of witness_options, or None.

    Callers must ensure the SCC is semi; that precondition is not
    re-derived here.
    """
    return next(witness_options(g, u, scc), None)


def classify_leaf_scc(g: WorkGraph, u: MessageGraph, scc: frozenset[int]) -> LeafSccClass:
    """Exactly one kind per leaf SCC; disconnection takes precedence over
    degeneracy, matching the definition of a semi leaf SCC.  Only a semi
    SCC is searched for a witness."""
    _require_leaf_scc(g, scc)
    cls = message_class(u, scc)[0]
    if cls is not None:
        return cls
    witness = find_degeneracy_witness(g, u, scc)
    if witness is not None:
        return LeafSccClass(kind=Kind.DEGENERATED, degeneracy=witness)
    return LeafSccClass(kind=Kind.NON_DEGENERATED)
