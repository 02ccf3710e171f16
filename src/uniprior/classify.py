"""Leaf-SCC classification by message-graph connectivity.

A leaf SCC is message-connected (connected inside itself on the message
graph), message-disconnected (some pair unreachable even through the
whole message graph), or semi.  A semi leaf SCC is degenerated when a
witness (s_inside, s_outside) certifies it can be appended without
raising the optimal codelength, and non-degenerated otherwise.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum

from .graph import WorkGraph, leaf_scc_sets, leaf_vertices, predecessors, reach
from .instance import MessageGraph


class Kind(str, Enum):
    MESSAGE_CONNECTED = "MessageConnected"
    MESSAGE_DISCONNECTED = "MessageDisconnected"
    DEGENERATED = "Degenerated"
    NON_DEGENERATED = "NonDegenerated"


@dataclass(frozen=True)
class DegeneracyWitness:
    s_inside: frozenset[int]
    s_outside: frozenset[int]
    v_inside: int
    target: int


@dataclass(frozen=True)
class LeafSccClass:
    kind: Kind
    disconnected_pair: tuple[int, int] | None = None
    degeneracy: DegeneracyWitness | None = None


def _require_leaf_scc(g: WorkGraph, scc: frozenset[int]) -> None:
    if scc not in leaf_scc_sets(g):
        raise ValueError(f"{sorted(scc)} is not a leaf SCC of the graph")


def check_degeneracy_witness(g: WorkGraph, u: MessageGraph, scc: frozenset[int],
                             w: DegeneracyWitness) -> bool:
    """The three witness conditions, checked directly from g and u."""
    if not w.s_inside or not w.s_inside < scc:
        return False
    if w.s_outside & scc:
        return False
    if w.v_inside not in w.s_inside or w.target not in w.s_outside:
        return False
    # (a) no message-graph edge between s_inside and the rest of the SCC
    rest = scc - w.s_inside
    for a in w.s_inside:
        if u.neighbors(a) & rest:
            return False
    # (b) at most one non-leaf vertex outside
    leaves = leaf_vertices(g)
    if sum(1 for v in w.s_outside if v not in leaves) > 1:
        return False
    # (c) every neighbor of s_inside is in s_outside or precedes one of it
    covered = set(w.s_outside)
    for v in w.s_outside:
        covered |= predecessors(g, v)
    return u.neighbors_of_set(w.s_inside) <= covered


def witness_options(g: WorkGraph, u: MessageGraph,
                    scc: frozenset[int]) -> Iterator[DegeneracyWitness]:
    """Every admissible append of a semi leaf SCC, canonical one first:
    each message component inside the SCC as s_inside, each canonical
    s_outside (all real outside leaves plus at most one non-leaf), each
    v_inside in the component, and as target any of those leaves when
    s_outside has no non-leaf, else the non-leaf.

    Any valid s_inside is a union of connected components of the message
    graph restricted to the SCC, and if a union works then each member
    component works with the same s_outside, so trying single components
    is complete.  Enlarging s_outside only helps, so the canonical ones
    are complete too.  Dummy vertices are left out of witnesses: their
    correctness argument is the disconnected-append one, not this one.
    """
    leaves = leaf_vertices(g)
    outside_leaves = frozenset(v for v in leaves if v not in scc and v not in g.dummies)
    non_leaves_outside = sorted(v for v in g.vertices
                                if v not in scc and v not in leaves and v not in g.dummies)
    base_cover = set(outside_leaves)
    for v in outside_leaves:
        base_cover |= predecessors(g, v)
    for comp in u.components_within(scc):
        if comp == scc:
            continue  # s_inside must be a proper subset
        nbrs = u.neighbors_of_set(comp)
        if nbrs & scc:
            continue  # a message edge crosses to the rest of the SCC
        # condition (c) with s_outside = outside leaves + w: what the
        # leaves' cover misses must be w or precede w, so w is reachable
        # from every missed vertex (or is the one missed vertex)
        missed = nbrs - base_cover
        if outside_leaves and not missed:
            for v_inside in sorted(comp):
                for target in sorted(outside_leaves):
                    yield DegeneracyWitness(s_inside=comp, s_outside=outside_leaves,
                                            v_inside=v_inside, target=target)
        candidates = non_leaves_outside
        for x in missed:
            if not candidates:
                break
            fwd = reach(g, x)
            candidates = [w for w in candidates if w == x or w in fwd]
        for w in candidates:
            s_outside = outside_leaves | {w}
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
    degeneracy, matching the definition of a semi leaf SCC."""
    _require_leaf_scc(g, scc)
    if u.connected_within(scc):
        return LeafSccClass(kind=Kind.MESSAGE_CONNECTED)
    # the first pair (a, b) in sorted order split across components
    # always has a = min(scc)
    first = min(scc)
    for b in sorted(scc):
        if u.component_of(b) != u.component_of(first):
            return LeafSccClass(kind=Kind.MESSAGE_DISCONNECTED,
                                disconnected_pair=(first, b))
    witness = find_degeneracy_witness(g, u, scc)
    if witness is not None:
        return LeafSccClass(kind=Kind.DEGENERATED, degeneracy=witness)
    return LeafSccClass(kind=Kind.NON_DEGENERATED)
