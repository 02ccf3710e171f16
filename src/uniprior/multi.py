"""Multi-sender bounds: appending/pruning steps, the combined algorithm,
the sequence-optimized exhaustive bound, connecting trees and the
pairwise encoder, and tightness detection.

Which steps a leaf SCC admits, and in which order, is decided in one
place, the ``_steps`` generator, from the SCC's message class and its
witnesses; a step is a (kind, argument) pair, and ``_apply`` builds the
graph it leads to.  Algorithm 2 takes the first (canonical) step of the
SCC it picks.  It reads the message-connected and message-disconnected
classes from ``message_class``, which memoizes them, and keeps for its
whole run only its non-degenerated leaf SCCs, each with its missed
neighbours, searching again only those a step's hit set touches
(``_rule_of_thumb_pick``); the exhaustive bound branches over all of
them until a state reaches its ceiling, and builds a step's graph only
when it searches that graph.

All multi-sender machinery assumes binary messages (every q_i = 1),
which is where pruning preserves optimality vertex-by-vertex.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from itertools import chain

from .classify import (Kind, _inside, common_reach, find_degeneracy_witness,
                       message_class, missed_neighbors, witness_options)
from .codes import CodeSymbol, LinearIndexCode
from .graph import (WorkGraph, _closure, _leaf_sccs, _stepped_leaf_sccs, leaf_cover,
                    leaf_vertices, predecessors, reach, v_out)
from .instance import Instance, MessageGraph, derive_message_graph


class BinaryRequiredError(ValueError):
    """Multi-sender operations handle binary messages only."""


class StepKind(str, Enum):
    PRUNE_CONNECTED = "PruneConnected"
    PRUNE_NON_DEGENERATED = "PruneNonDegenerated"
    APPEND_DISCONNECTED = "AppendDisconnected"
    APPEND_DEGENERATED = "AppendDegenerated"


class TightReason(str, Enum):
    NO_LEAF_SCC_AFTER_INIT = "NoLeafSccAfterInit"
    DISJOINT_SENDERS = "DisjointSenders"
    BOUNDS_COINCIDE = "BoundsCoincide"


# one step on a leaf SCC: phase is "init" or "iteration"; a prune sets
# selected_vertex, an append added_arc and, for a disconnected SCC, the
# dummy vertex, for a degenerated one the witness
StepRecord = namedtuple("StepRecord",
                        "kind scc phase selected_vertex added_arc dummy witness",
                        defaults=(None, None, None, None))
LowerBoundReport = namedtuple("LowerBoundReport", "bound v_out_original connected_count "
                              "iterations steps final_graph")
ExhaustiveResult = namedtuple("ExhaustiveResult", "bound exact states_visited")
# vertices: frozenset; edges: frozenset of (a, b) message-graph edges, a < b
ConnectingTree = namedtuple("ConnectingTree", "vertices edges")
TreeSearchResult = namedtuple("TreeSearchResult", "trees exact")
# tight_reason: a TightReason, None unless tight; exhaustive: None
# unless asked for; trees_exact: the packing is proven maximum
BoundReport = namedtuple("BoundReport", "lower upper tight tight_reason lower_report "
                         "exhaustive trees trees_exact code")


def _require_binary(inst: Instance) -> None:
    if any(qi != 1 for qi in inst.q):
        raise BinaryRequiredError("all messages must be one bit long here")


def _graphs(inst: Instance) -> tuple[WorkGraph, MessageGraph]:
    """The instance's work graph and message graph, built on first use and
    kept on the instance (outside its value), so that the steps of one
    bound share them.  Graphs are values, so sharing them is safe."""
    graphs = inst._graphs
    if graphs is None:
        graphs = (WorkGraph.from_instance(inst), derive_message_graph(inst))
        object.__setattr__(inst, "_graphs", graphs)
    return graphs


# ------------------------------------------------------------ steps

def _steps(g: WorkGraph, u: MessageGraph, scc: frozenset[int]):
    """Every admissible step on one leaf SCC of g, canonical step first,
    as (step kind, dummy source / witness / pruned vertex), with no graph
    built: the dummy append of a message-disconnected SCC, then each
    witness append of a semi one (none when it is non-degenerated), then
    the prune of each vertex in ascending order.  Prunes of a
    message-connected SCC are PruneConnected, all others
    PruneNonDegenerated."""
    cls = message_class(u, scc)[0]
    prune = StepKind.PRUNE_NON_DEGENERATED
    if cls is None:
        for w in witness_options(g, u, scc):  # the canonical witness first
            yield StepKind.APPEND_DEGENERATED, w
    elif cls.kind is Kind.MESSAGE_DISCONNECTED:
        # one fresh dummy, one arc from the smallest SCC vertex to it
        yield StepKind.APPEND_DISCONNECTED, min(scc)
    else:
        prune = StepKind.PRUNE_CONNECTED
    for v in sorted(scc):
        yield prune, v


def _apply(g: WorkGraph, kind: StepKind, x) -> WorkGraph:
    """The graph one step (kind, x) of ``_steps`` makes from g."""
    if kind is StepKind.APPEND_DISCONNECTED:
        return g.with_new_dummy(x)[0]
    if kind is StepKind.APPEND_DEGENERATED:
        return g.with_arc(x.v_inside, x.target)
    return g.without_out_arcs(x)


# ------------------------------------------------------- Algorithm 2

def _first_of_kind(g: WorkGraph, u: MessageGraph, kind: Kind,
                   nondeg: dict) -> tuple | None:
    """The first leaf SCC of g, by smallest vertex, of the given kind,
    with its canonical step, or None.  Message-connected and
    message-disconnected SCCs are read from ``message_class``.  A semi
    SCC is searched for a witness only by a scan for degenerated ones,
    and only if nondeg, the run's non-degenerated leaf SCCs with their
    missed neighbours, does not hold it: a degenerated one is returned
    with the witness just found, a non-degenerated one joins nondeg."""
    for scc in _leaf_sccs(g):
        cls = message_class(u, scc)[0]
        if cls is not None:
            if cls.kind is kind:
                return scc, next(_steps(g, u, scc))
        elif kind is Kind.DEGENERATED and scc not in nondeg:
            witness = find_degeneracy_witness(g, u, scc)
            if witness is not None:
                return scc, (StepKind.APPEND_DEGENERATED, witness)
            nondeg[scc] = missed_neighbors(g, u, scc)
    return None


def _message_connected_leaf_sccs(g: WorkGraph, u: MessageGraph) -> list[frozenset[int]]:
    """The leaf SCCs of g that are message-connected, with no witness
    search."""
    return [scc for scc in _leaf_sccs(g)
            if (cls := message_class(u, scc)[0]) is not None
            and cls.kind is Kind.MESSAGE_CONNECTED]


def _take(g: WorkGraph, u: MessageGraph, scc: frozenset[int], step: tuple, phase: str,
          steps: list[StepRecord], nondeg: dict) -> WorkGraph:
    """Apply scc's canonical step (kind, x), record it, and step nondeg:
    scc leaves it, and an SCC whose missed neighbours meet the step's
    hit set is dropped, to be searched again on the child (the hit-set
    rule of ``_rule_of_thumb_pick``)."""
    kind, x = step
    g2 = _apply(g, kind, x)
    if kind is StepKind.APPEND_DISCONNECTED:
        dummy = g2.vertices[-1]  # the new, largest vertex
        rec = StepRecord(kind=kind, scc=scc, phase=phase, added_arc=(x, dummy), dummy=dummy)
    elif kind is StepKind.APPEND_DEGENERATED:
        rec = StepRecord(kind=kind, scc=scc, phase=phase,
                         added_arc=(x.v_inside, x.target), witness=x)
    else:
        rec = StepRecord(kind=kind, scc=scc, phase=phase, selected_vertex=x)
    steps.append(rec)
    nondeg.pop(scc, None)
    if nondeg and kind is not StepKind.APPEND_DISCONNECTED:
        # the same on g and g2
        hit = predecessors(g, x.v_inside if kind is StepKind.APPEND_DEGENERATED else x)
        for other, missed in list(nondeg.items()):
            if not missed.isdisjoint(hit):
                del nondeg[other]
    return g2


def _append_phase(g: WorkGraph, u: MessageGraph, steps: list[StepRecord],
                  phase: str, nondeg: dict) -> WorkGraph:
    """Append everything appendable: disconnected first, then degenerated,
    repeating until neither kind remains (appends can assimilate vertices
    into new leaf SCCs of any kind)."""
    while True:
        changed = False
        for kind in (Kind.MESSAGE_DISCONNECTED, Kind.DEGENERATED):
            while (found := _first_of_kind(g, u, kind, nondeg)) is not None:
                g = _take(g, u, *found, phase, steps, nondeg)
                changed = True
        if not changed:
            return g


def _rule_of_thumb_pick(g: WorkGraph, u: MessageGraph,
                        sccs: tuple[frozenset[int], ...]) -> frozenset[int]:
    """One-step lookahead: prune the candidate that degenerates the most
    other currently non-degenerated leaf SCCs; ties go to the smallest
    vertex id.

    Every leaf SCC here is non-degenerated.  For a component K of one,
    with message neighbours N, call N - cover its missed set (the cover
    being the real leaves and every vertex with a path to one).  Then the
    missed set is not empty (else a real leaf, or a non-leaf outside the
    SCC such as a vertex of another leaf SCC, would be a target), and no
    non-leaf outside the SCC is reached from, or is, every missed vertex.

    The hit-set rule: a step whose source a lies in another leaf SCC can
    give K a witness only if its hit set H (a and every vertex reaching
    a: ``predecessors(g, a)``, which holds a, since a lies on a cycle of
    its leaf SCC) meets K's missed set.  H is the same before and after
    the step (a path into a never needs a's out-arcs), and a vertex
    outside H has no path through a, so it uses no arc the step changed
    and keeps its reach set.  A prune of a turns a into a real leaf; a
    reached no real leaf, so no path to one ran through it, and the cover
    grows by H alone.  If H misses the missed set, that set stays as it
    is, and each missed vertex keeps its reach set: the targets can only
    lose a.  A witness append (a, b) keeps the leaves; a new path to a
    real leaf takes (a, b) and then old arcs, so it starts in H, and the
    cover grows by H or not at all.  Only the reach sets of H grow, so
    the same holds.  A dummy append changes no cover and adds only the
    dummy to reach sets, which is never a target, so its hit set is
    empty.  Under either append a degenerated SCC stays degenerated: the
    cover and the reach sets only grow, so a target survives.

    So a candidate's prune of v = min(C) is scored with no child built:
    only the components whose missed set meets v's hit set H are
    checked, each on g's own sets.  On the child its missed set is the
    old one minus H, and every vertex left in it keeps its reach set; it
    has a witness iff that set is empty (v is now a real leaf) or the
    vertices all of it reaches hold one that is no leaf, not v and not
    in the SCC.
    """
    cover = leaf_cover(g)[1]
    leaves = leaf_vertices(g)
    index: dict[int, list[tuple]] = {}
    for scc in sccs:
        for _, nbrs in _inside(u, scc):
            entry = (scc, nbrs - cover)
            for x in entry[1]:
                index.setdefault(x, []).append(entry)
    best_scc = None
    best_gain = -1
    for scc in sccs:
        v = min(scc)
        hit = predecessors(g, v)
        gained = set()
        for other, missed in {e for x in hit for e in index.get(x, ()) if e[0] != scc}:
            if other not in gained:
                rest = missed - hit
                if not rest or any(w != v and w not in leaves and w not in other
                                   for w in common_reach(g, rest)):
                    gained.add(other)
        if len(gained) > best_gain:
            best_gain = len(gained)
            best_scc = scc
    return best_scc


def step_limit(n: int) -> int:
    """Worst-case appending/pruning step count before the graph grounds."""
    return max(0, (3 * n) // 2 - 2)


def run_algorithm2(inst: Instance) -> LowerBoundReport:
    """Combined appending-pruning: prune the original message-connected
    leaf SCCs, append whatever is appendable, then repeatedly prune one
    SCC (message-connected first, else a non-degenerated one by the
    lookahead rule) and re-append, until the graph is grounded.

    The bound is V_out minus one per pruning step.
    """
    _require_binary(inst)
    g, u = _graphs(inst)
    v_out_orig = v_out(g)
    limit = step_limit(inst.n)
    steps: list[StepRecord] = []

    # a prune leaves every other leaf SCC as it is (graph.py, rule 1), so
    # init prunes the root's message-connected leaf SCCs, in their order
    nondeg: dict[frozenset[int], frozenset[int]] = {}
    init = _message_connected_leaf_sccs(g, u)
    for scc in init:
        g = _take(g, u, scc, (StepKind.PRUNE_CONNECTED, min(scc)), "init", steps, nondeg)
    connected = len(init)

    g = _append_phase(g, u, steps, "init", nondeg)

    iterations = 0
    while True:
        sccs = _leaf_sccs(g)
        if not sccs:
            break
        iterations += 1
        found = _first_of_kind(g, u, Kind.MESSAGE_CONNECTED, nondeg)
        if found is None:
            # after the append phase only non-degenerated ones are left,
            # and a prune of the smallest vertex is their canonical step
            scc = _rule_of_thumb_pick(g, u, sccs)
            found = scc, (StepKind.PRUNE_NON_DEGENERATED, min(scc))
        g = _take(g, u, *found, "iteration", steps, nondeg)
        g = _append_phase(g, u, steps, "iteration", nondeg)
        if len(steps) > limit:
            raise RuntimeError(f"step budget {limit} exceeded; this should be impossible")

    bound = v_out_orig - (connected + iterations)
    if bound != v_out(g):
        raise RuntimeError("bound arithmetic out of sync with the final graph")
    return LowerBoundReport(bound=bound, v_out_original=v_out_orig,
                            connected_count=connected, iterations=iterations,
                            steps=tuple(steps), final_graph=g)


# ------------------------------------------------- exhaustive maximum

def _child_score(g: WorkGraph, key, vo: int, nleaf: int, kind: StepKind, x):
    """The state key, v_out and leaf-SCC count of g's child by step
    (kind, x), from g's own (key, vo, nleaf), with no graph built.

    A key is (pruned vertices, appended arcs whose source is not pruned,
    dummy sources), three frozensets that grow with depth:
    - dummy append under x: x's leaf SCC C stops being a leaf, v_out stays;
    - prune of x in C: x becomes a leaf and no part of C is a leaf SCC,
      since each other vertex of C still reaches x, now a sink;
    - witness append (a, b): the leaf SCCs follow from g's
      (``_stepped_leaf_sccs``): C stops being a leaf unless b reaches a,
      and then the SCC that b's side merges into C may be a leaf.
    """
    pruned, appended, sources = key
    if kind is StepKind.APPEND_DISCONNECTED:
        return (pruned, appended, sources | {x}), vo, nleaf - 1
    if kind is StepKind.APPEND_DEGENERATED:
        a, b = x.v_inside, x.target
        return ((pruned, appended | {(a, b)}, sources), vo,
                len(_stepped_leaf_sccs(g, a, b)))
    return ((pruned | {x}, frozenset(e for e in appended if e[0] != x), sources),
            vo - 1, nleaf - 1)


def exhaustive_lower_bound(inst: Instance, max_states: int = 10 ** 6) -> ExhaustiveResult:
    """Maximize the final non-leaf count over every admissible sequence:
    which leaf SCC to touch, which vertex to prune, and which degeneracy
    witness or target to append with all branch.  States reconverge, so
    results are memoized under a dummy-insensitive canonical key: the
    pruned vertices, the appended arcs whose source is not pruned, and
    the dummy sources.  Over reachable states this key is one-to-one
    with (real arcs, dummy sources), so memo hits are those of a key of
    the whole real-arc set:
    - only a prune removes arcs, and it removes all of a vertex's; a
      pruned vertex sat in a leaf SCC, so had root out-arcs, and stays a
      sink, since only leaf-SCC vertices gain arcs;
    - an appended arc (a, b) leaves a's leaf SCC, so it is no arc of its
      parent, nor of the root, as a's root arcs go only with a prune;
    - a vertex sources at most one dummy arc and is never pruned: it gets
      the arc only in a leaf SCC, and the arc to a sink keeps it out of
      every leaf SCC after.
    So the real arcs are the root arcs whose source is not pruned plus
    the appended ones, and back: the pruned vertices are those with root
    out-arcs and none now, the appended arcs the real arcs not in the
    root.  A key costs O(depth) to build, not O(m).

    Each child is scored from its parent before any graph is built: its
    key is the parent's key patched by the step, and its v_out and
    leaf-SCC count follow from the parent's (``_child_score``).  Only a
    child that is searched is built.  A memo hit takes the memo value, a
    grounded child its v_out (grounded children get no memo entry).
    Once the state cap is hit, the other children are finished by
    prune-everything completions (v_out minus the leaf-SCC count), which
    keeps the reported bound sound but possibly loose; the result is
    flagged inexact.

    A searched state stops as soon as its best child value reaches its
    ceiling, v_out minus its number of message-connected leaf SCCs; the
    children it has not scored yet are skipped.  The ceiling holds for
    every sequence from the state:
    - an append keeps v_out, and a prune lowers it by exactly 1, since
      the pruned vertex sat in a leaf SCC, so had out-arcs, and loses
      them all;
    - a message-connected leaf SCC C admits prunes only, and a step on
      another leaf SCC leaves C as it is: C has no out-arcs, so no
      appended arc leaves C and no cycle through a new arc passes
      through C, and C's class depends on its vertex set alone;
    - the final graph has no leaf SCC, so each such C costs a prune of
      its own vertex, and distinct ones cost distinct prunes.
    Every value a search returns is achieved by some sequence, so a
    best that reaches the ceiling is the state's exact value, and the
    stop keeps every memo entry exact and the result unchanged while
    the search stays under its cap.

    ``states_visited`` counts the states searched: each distinct state
    whose steps were enumerated, once.  Memo hits, grounded children,
    children finished after the cap and children skipped by the
    ceiling stop are not counted.

    The search is depth-first on an explicit stack, so its depth is not
    bounded by Python's recursion limit.
    """
    _require_binary(inst)
    g0, u = _graphs(inst)
    memo: dict = {}
    states = 0
    truncated = False
    # one frame per state being searched:
    # [graph, key, v_out, leaf-SCC count, its steps, best so far, ceiling]
    stack: list[list] = []

    def enter(key, vo: int, nleaf: int, parent=None, step=None):
        """The state's value if it needs no search, else None with its
        frame pushed; the state's graph is g0 at the root, else built from
        parent by step."""
        nonlocal states, truncated
        if not nleaf:
            return vo
        if key in memo:
            return memo[key]
        if states >= max_states:
            truncated = True
            return vo - nleaf  # finish by pruning everything
        states += 1
        g = g0 if parent is None else _apply(parent, *step)
        steps = chain.from_iterable(_steps(g, u, scc) for scc in _leaf_sccs(g))
        ceiling = vo - len(_message_connected_leaf_sccs(g, u))
        stack.append([g, key, vo, nleaf, steps, 0, ceiling])
        return None

    val = enter((frozenset(),) * 3, v_out(g0), len(_leaf_sccs(g0)))
    while stack:
        frame = stack[-1]
        step = next(frame[4], None) if frame[5] < frame[6] else None
        if step is None:
            stack.pop()
            val = frame[5]
            if not truncated:
                memo[frame[1]] = val
        else:
            g = frame[0]
            val = enter(*_child_score(g, frame[1], frame[2], frame[3], *step), g, step)
        if val is not None and stack:
            stack[-1][5] = max(stack[-1][5], val)
    return ExhaustiveResult(bound=val, exact=not truncated, states_visited=states)


# ------------------------------------------------- connecting trees

def _is_tree_vertex_set(g: WorkGraph, u: MessageGraph, vs: frozenset[int],
                        blocked: frozenset[int]) -> bool:
    if len(vs) < 2 or vs & blocked:
        return False
    for v in vs:
        outs = g.out_neighbors(v)
        if not outs or any(w not in vs for w in outs):
            return False
    return u.connected_within(vs)


def _spans(vs: frozenset[int], edges) -> bool:
    """Whether edges are |vs| - 1 pairs inside vs (|vs| >= 2) that connect it."""
    if len(edges) != len(vs) - 1 or not {v for e in edges for v in e} <= vs:
        return False
    adj = {v: [] for v in vs}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return _closure(adj, (min(vs),)) == vs


def _spanning_tree_edges(u: MessageGraph, vs: frozenset[int]) -> frozenset[tuple[int, int]]:
    """Kruskal over the induced edges (a, b), a < b, in sorted order:
    a ascending over vs, then b ascending over a's neighbours in vs.  A
    sender's members in vs all join its first one, so it is read once."""
    inside = u._members_within(vs)
    parent = {v: v for v in vs}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    chosen = []
    for a in sorted(vs):
        for b in sorted({w for k in u._owners.get(a, ()) for w in inside.pop(k, ()) if w > a}):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
                chosen.append((a, b))
    return frozenset(chosen)


EXACT_LIMIT = 12


def find_connecting_trees(inst: Instance) -> TreeSearchResult:
    """Maximum number of vertex-disjoint connecting trees.

    A valid tree vertex set (closed under out-arcs, leaf-free,
    message-connected, clear of message-connected leaf SCCs) is the
    union of its members' out-closures reach(v) | {v}, each free of
    leaves and of those SCCs.  No set holding a message-disconnected leaf
    SCC is message-connected either (two of its vertices lie in different
    message components), so every classified leaf SCC is banned.  Exact
    for n up to EXACT_LIMIT: pack the inclusion-minimal message-connected
    unions of such closures by memoized search (shrinking a chosen set
    never hurts a packing).  Larger n packs the connected closures
    greedily, smallest first, flagged inexact.
    """
    _require_binary(inst)
    g, u = _graphs(inst)
    classified = (scc for scc in _leaf_sccs(g) if message_class(u, scc)[0] is not None)
    banned = frozenset().union(*classified, leaf_vertices(g))
    # a closure meets banned iff its root is in banned or precedes a member
    dead = banned | _closure(g._in, banned)
    real = g.real_vertices()
    closures = {reach(g, v) | {v} for v in real if v not in dead}
    exact = inst.n <= EXACT_LIMIT

    if exact:
        unions = {frozenset()}
        for c in closures:
            unions |= {s | c for s in unions}
        minimal: list[frozenset[int]] = []
        for vs in sorted(unions, key=len):
            if vs and not any(m < vs for m in minimal) and u.connected_within(vs):
                minimal.append(vs)
        minimal.sort(key=lambda s: tuple(sorted(s)))

        memo: dict[frozenset[int], tuple[int, tuple[frozenset[int], ...]]] = {}

        def pack(avail: frozenset[int]) -> tuple[int, tuple[frozenset[int], ...]]:
            if avail in memo:
                return memo[avail]
            best = (0, ())
            for c in minimal:
                if c <= avail:
                    cnt, rest = pack(avail - c)
                    if cnt + 1 > best[0]:
                        best = (cnt + 1, (c, *rest))
            memo[avail] = best
            return best

        chosen = pack(frozenset(real))[1]
    else:
        chosen = []
        used: set[int] = set()
        for vs in sorted((c for c in closures if u.connected_within(c)),
                         key=lambda s: (len(s), tuple(sorted(s)))):
            if not vs & used:
                chosen.append(vs)
                used |= vs
    trees = tuple(ConnectingTree(vertices=vs, edges=_spanning_tree_edges(u, vs))
                  for vs in sorted(chosen, key=min))
    return TreeSearchResult(trees=trees, exact=exact)


# --------------------------------------------------------- encoding

def _smallest_owner(u: MessageGraph, *messages: int) -> int:
    """The smallest sender that owns one message or both of a pair: each
    message's owners are ascending, so it is the first owner of the one
    that the other also has."""
    other = u._owners.get(messages[-1], ())  # the first's own owners for one message
    for k in u._owners.get(messages[0], ()):
        if k in other:
            return k
    raise ValueError(f"no sender owns messages {messages} together")


def encode_multi(inst: Instance, trees: tuple[ConnectingTree, ...]) -> LinearIndexCode:
    """Pairwise XOR code: one symbol per connecting-tree edge, a spanning
    tree of XORs per message-connected leaf SCC, every other non-leaf
    message uncoded.  Each symbol goes to the smallest sender that owns
    its messages."""
    _require_binary(inst)
    g, u = _graphs(inst)
    mc = _message_connected_leaf_sccs(g, u)
    blocked = frozenset().union(*mc) if mc else frozenset()

    seen: set[int] = set()
    for t in trees:
        if not _is_tree_vertex_set(g, u, t.vertices, blocked) or not _spans(t.vertices, t.edges):
            raise ValueError(f"invalid connecting tree on {sorted(t.vertices)}")
        if t.vertices & seen:
            raise ValueError("connecting trees must be vertex-disjoint")
        seen |= t.vertices

    symbols: list[CodeSymbol] = []
    for t in sorted(trees, key=lambda t: min(t.vertices)):
        for (i, j) in sorted(t.edges):
            symbols.append(CodeSymbol(sender=_smallest_owner(u, i, j),
                                      terms=((i, 1), (j, 1))))
    for scc in mc:
        for (i, j) in sorted(_spanning_tree_edges(u, scc)):
            symbols.append(CodeSymbol(sender=_smallest_owner(u, i, j),
                                      terms=((i, 1), (j, 1))))
    leaves = leaf_vertices(g)
    covered = seen | blocked
    for v in g.vertices:
        if v in leaves or v in covered:
            continue
        symbols.append(CodeSymbol(sender=_smallest_owner(u, v), terms=((v, 1),)))
    return LinearIndexCode(symbols=tuple(symbols))


# -------------------------------------------------------- bound report

def senders_pairwise_disjoint(inst: Instance) -> bool:
    # each message's senders are ascending: one sender iff first == last
    return all(ks[0] == ks[-1] for ks in _graphs(inst)[1]._owners.values())


def bound_multi(inst: Instance, exhaustive: bool = False,
                max_states: int = 10 ** 6) -> BoundReport:
    """Lower bound from the combined algorithm (optionally sharpened by
    the exhaustive sequence search), upper bound from the pairwise code
    over a maximum set of connecting trees."""
    lr = run_algorithm2(inst)
    ex = exhaustive_lower_bound(inst, max_states=max_states) if exhaustive else None
    lower = max(lr.bound, ex.bound) if ex is not None else lr.bound
    ts = find_connecting_trees(inst)
    code = encode_multi(inst, ts.trees)
    upper = len(code)
    tight = lower == upper
    reason = None
    if tight:
        if senders_pairwise_disjoint(inst):
            reason = TightReason.DISJOINT_SENDERS
        elif lr.iterations == 0:
            reason = TightReason.NO_LEAF_SCC_AFTER_INIT
        else:
            reason = TightReason.BOUNDS_COINCIDE
    return BoundReport(lower=lower, upper=upper, tight=tight, tight_reason=reason,
                       lower_report=lr, exhaustive=ex, trees=ts.trees,
                       trees_exact=ts.exact or tight, code=code)
