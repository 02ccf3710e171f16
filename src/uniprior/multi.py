"""Multi-sender bounds: appending/pruning steps, the combined algorithm,
the sequence-optimized exhaustive bound, connecting trees and the
pairwise encoder, and tightness detection.

All multi-sender machinery assumes binary messages (every q_i = 1),
which is where pruning preserves optimality vertex-by-vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations

from .classify import (DegeneracyWitness, Kind, check_degeneracy_witness,
                       classify_leaf_scc, find_degeneracy_witness,
                       witness_options)
from .codes import CodeSymbol, LinearIndexCode
from .graph import WorkGraph, leaf_scc_sets, leaf_vertices, v_out
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


@dataclass(frozen=True)
class StepRecord:
    kind: StepKind
    scc: frozenset[int]
    phase: str  # "init" or "iteration"
    selected_vertex: int | None = None
    added_arc: tuple[int, int] | None = None
    dummy: int | None = None
    witness: DegeneracyWitness | None = None


@dataclass(frozen=True)
class LowerBoundReport:
    bound: int
    v_out_original: int
    connected_count: int
    iterations: int
    steps: tuple[StepRecord, ...]
    final_graph: WorkGraph


@dataclass(frozen=True)
class ExhaustiveResult:
    bound: int
    exact: bool
    states_visited: int


@dataclass(frozen=True)
class ConnectingTree:
    vertices: frozenset[int]
    edges: frozenset[tuple[int, int]]


@dataclass(frozen=True)
class TreeSearchResult:
    trees: tuple[ConnectingTree, ...]
    exact: bool


@dataclass(frozen=True)
class BoundReport:
    lower: int
    upper: int
    tight: bool
    tight_reason: TightReason | None
    lower_report: LowerBoundReport
    exhaustive: ExhaustiveResult | None
    trees: tuple[ConnectingTree, ...]
    trees_exact: bool
    code: LinearIndexCode


def _require_binary(inst: Instance) -> None:
    if any(qi != 1 for qi in inst.q):
        raise BinaryRequiredError("all messages must be one bit long here")


def _graphs(inst: Instance) -> tuple[WorkGraph, MessageGraph]:
    """The instance's work graph and message graph, built on first use and
    kept on the instance (not as a dataclass field), so that the steps of
    one bound share them.  Graphs are values, so sharing them is safe."""
    graphs = inst.__dict__.get("_graphs")
    if graphs is None:
        graphs = (WorkGraph.from_instance(inst), derive_message_graph(inst))
        object.__setattr__(inst, "_graphs", graphs)
    return graphs


def _require_unit_weights(g: WorkGraph) -> None:
    if any(g.weight[v] != 1 for v in g.vertices if v not in g.dummies):
        raise BinaryRequiredError("all real vertices must have weight 1 here")


# ---------------------------------------------------------------- steps

def append_disconnected(g: WorkGraph, u: MessageGraph,
                        scc: frozenset[int]) -> tuple[WorkGraph, int]:
    """One fresh dummy vertex, one arc from the smallest SCC vertex to it.
    The SCC keeps all its vertices non-leaf but stops being a leaf SCC."""
    cls = classify_leaf_scc(g, u, scc)
    if cls.kind is not Kind.MESSAGE_DISCONNECTED:
        raise ValueError(f"{sorted(scc)} is not a message-disconnected leaf SCC")
    return g.with_new_dummy(min(scc))


def append_degenerated(g: WorkGraph, u: MessageGraph, scc: frozenset[int],
                       w: DegeneracyWitness) -> WorkGraph:
    """Add the witness arc v_inside -> target.  The SCC either stops being
    a leaf SCC or assimilates the target's cycle into a larger one."""
    if scc not in leaf_scc_sets(g):
        raise ValueError(f"{sorted(scc)} is not a leaf SCC of the graph")
    if not check_degeneracy_witness(g, u, scc, w):
        raise ValueError("invalid degeneracy witness")
    return g.with_arc(w.v_inside, w.target)


def prune_leaf_scc(g: WorkGraph, scc: frozenset[int], vertex: int | None = None) -> WorkGraph:
    """Remove all out-arcs of one SCC vertex (smallest id by default)."""
    _require_unit_weights(g)
    if scc not in leaf_scc_sets(g):
        raise ValueError(f"{sorted(scc)} is not a leaf SCC of the graph")
    pick = min(scc) if vertex is None else vertex
    if pick not in scc:
        raise ValueError(f"vertex {pick} not in the leaf SCC")
    return g.without_out_arcs(pick)


# ------------------------------------------------------- Algorithm 2

def _first_of_kind(g: WorkGraph, u: MessageGraph, kind: Kind):
    """The first leaf SCC of g, in partition order, of the given kind.
    Each (graph, message graph, leaf SCC) is classified once; the append
    phase and the main loop scan one graph state several times."""
    for scc in leaf_scc_sets(g):
        key = (u, scc)
        cls = g._classes.get(key)
        if cls is None:
            cls = g._classes[key] = classify_leaf_scc(g, u, scc)
        if cls.kind is kind:
            return scc, cls
    return None, None


def _append_phase(g: WorkGraph, u: MessageGraph, steps: list[StepRecord],
                  phase: str) -> WorkGraph:
    """Append everything appendable: disconnected first, then degenerated,
    repeating until neither kind remains (appends can assimilate vertices
    into new leaf SCCs of any kind)."""
    while True:
        changed = False
        while True:
            scc, _ = _first_of_kind(g, u, Kind.MESSAGE_DISCONNECTED)
            if scc is None:
                break
            g, dummy = g.with_new_dummy(min(scc))
            steps.append(StepRecord(kind=StepKind.APPEND_DISCONNECTED, scc=scc,
                                    phase=phase, added_arc=(min(scc), dummy), dummy=dummy))
            changed = True
        while True:
            scc, cls = _first_of_kind(g, u, Kind.DEGENERATED)
            if scc is None:
                break
            w = cls.degeneracy
            g = g.with_arc(w.v_inside, w.target)
            steps.append(StepRecord(kind=StepKind.APPEND_DEGENERATED, scc=scc,
                                    phase=phase, added_arc=(w.v_inside, w.target),
                                    witness=w))
            changed = True
        if not changed:
            return g


def _rule_of_thumb_pick(g: WorkGraph, u: MessageGraph,
                        sccs: list[frozenset[int]]) -> frozenset[int]:
    """One-step lookahead: prune the candidate that degenerates the most
    other currently non-degenerated leaf SCCs; ties go to the smallest
    vertex id."""
    best_scc = None
    best_gain = -1
    for scc in sccs:
        g2 = g.without_out_arcs(min(scc))
        gain = 0
        for other in sccs:
            if other == scc:
                continue
            if find_degeneracy_witness(g2, u, other) is not None:
                gain += 1
        if gain > best_gain:
            best_gain = gain
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

    connected = 0
    while True:
        scc, _ = _first_of_kind(g, u, Kind.MESSAGE_CONNECTED)
        if scc is None:
            break
        g = g.without_out_arcs(min(scc))
        steps.append(StepRecord(kind=StepKind.PRUNE_CONNECTED, scc=scc, phase="init",
                                selected_vertex=min(scc)))
        connected += 1

    g = _append_phase(g, u, steps, "init")

    iterations = 0
    while True:
        sccs = leaf_scc_sets(g)
        if not sccs:
            break
        iterations += 1
        scc, _ = _first_of_kind(g, u, Kind.MESSAGE_CONNECTED)
        if scc is not None:
            g = g.without_out_arcs(min(scc))
            steps.append(StepRecord(kind=StepKind.PRUNE_CONNECTED, scc=scc,
                                    phase="iteration", selected_vertex=min(scc)))
        else:
            # after the append phase only non-degenerated ones are left
            scc = _rule_of_thumb_pick(g, u, sccs)
            g = g.without_out_arcs(min(scc))
            steps.append(StepRecord(kind=StepKind.PRUNE_NON_DEGENERATED, scc=scc,
                                    phase="iteration", selected_vertex=min(scc)))
        g = _append_phase(g, u, steps, "iteration")
        if len(steps) > limit:
            raise RuntimeError(f"step budget {limit} exceeded; this should be impossible")

    bound = v_out_orig - (connected + iterations)
    if bound != v_out(g):
        raise RuntimeError("bound arithmetic out of sync with the final graph")
    return LowerBoundReport(bound=bound, v_out_original=v_out_orig,
                            connected_count=connected, iterations=iterations,
                            steps=tuple(steps), final_graph=g)


# ------------------------------------------------- exhaustive maximum

def _state_key(g: WorkGraph):
    real = []
    dummy_sources = []
    for (i, j) in g.arcs:
        if j in g.dummies:
            dummy_sources.append(i)
        else:
            real.append((i, j))
    return (tuple(sorted(real)), tuple(sorted(dummy_sources)))


def exhaustive_lower_bound(inst: Instance, max_states: int = 10 ** 6) -> ExhaustiveResult:
    """Maximize the final non-leaf count over every admissible sequence:
    which leaf SCC to touch, which vertex to prune, and which degeneracy
    witness or target to append with all branch.  States reconverge, so
    results are memoized under a dummy-insensitive canonical key.

    If the state cap is hit, unexplored branches are finished by
    prune-everything completions, which keeps the reported bound sound
    but possibly loose; the result is flagged inexact.
    """
    _require_binary(inst)
    g0, u = _graphs(inst)
    memo: dict = {}
    counter = {"states": 0, "truncated": False}

    def explore(g: WorkGraph) -> int:
        key = _state_key(g)
        if key in memo:
            return memo[key]
        sccs = leaf_scc_sets(g)
        if not sccs:
            val = v_out(g)
            memo[key] = val
            return val
        if counter["states"] >= max_states:
            counter["truncated"] = True
            return v_out(g) - len(sccs)  # finish by pruning everything
        counter["states"] += 1
        best = 0
        for scc in sccs:
            if not u.connected_within(scc):
                if len({u.component_of(v) for v in scc}) > 1:
                    # message-disconnected: the only append is a dummy sink
                    g2, _ = g.with_new_dummy(min(scc))
                    best = max(best, explore(g2))
                else:
                    for w in witness_options(g, u, scc):
                        best = max(best, explore(g.with_arc(w.v_inside, w.target)))
            for vtx in sorted(scc):
                best = max(best, explore(g.without_out_arcs(vtx)))
        if not counter["truncated"]:
            memo[key] = best
        return best

    bound = explore(g0)
    return ExhaustiveResult(bound=bound, exact=not counter["truncated"],
                            states_visited=counter["states"])


# ------------------------------------------------- connecting trees

def _message_connected_leaf_sccs(g: WorkGraph, u: MessageGraph) -> list[frozenset[int]]:
    return [scc for scc in leaf_scc_sets(g) if u.connected_within(scc)]


def _is_tree_vertex_set(g: WorkGraph, u: MessageGraph, vs: frozenset[int],
                        blocked: frozenset[int]) -> bool:
    if len(vs) < 2 or vs & blocked:
        return False
    for v in vs:
        outs = g.out_neighbors(v)
        if not outs or any(w not in vs for w in outs):
            return False
    return u.connected_within(vs)


def _spanning_tree_edges(u: MessageGraph, vs: frozenset[int]) -> frozenset[tuple[int, int]]:
    """Kruskal over the induced edges in sorted order; deterministic."""
    parent = {v: v for v in vs}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    chosen = []
    inside = [e for e in sorted(u.edges) if e[0] in vs and e[1] in vs]
    for (a, b) in inside:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            chosen.append((a, b))
    return frozenset(chosen)


def find_connecting_trees(inst: Instance, exact_limit: int = 12) -> TreeSearchResult:
    """Maximum number of vertex-disjoint connecting trees.

    Exact for n up to exact_limit: enumerate the inclusion-minimal valid
    vertex sets (closed under out-arcs, leaf-free, message-connected,
    clear of message-connected leaf SCCs) and pack them disjointly by
    memoized search.  Minimal sets suffice because shrinking a chosen
    set never hurts a packing.  Larger n falls back to a greedy pass
    over single-vertex closures, flagged inexact.
    """
    _require_binary(inst)
    g, u = _graphs(inst)
    mc = _message_connected_leaf_sccs(g, u)
    blocked = frozenset().union(*mc) if mc else frozenset()
    real = g.real_vertices()

    if inst.n <= exact_limit:
        valid = []
        for r in range(2, len(real) + 1):
            for combo in combinations(real, r):
                vs = frozenset(combo)
                if _is_tree_vertex_set(g, u, vs, blocked):
                    valid.append(vs)
        minimal = [vs for vs in valid
                   if not any(other < vs for other in valid)]
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

        _, chosen = pack(frozenset(real))
        trees = tuple(ConnectingTree(vertices=vs, edges=_spanning_tree_edges(u, vs))
                      for vs in sorted(chosen, key=min))
        return TreeSearchResult(trees=trees, exact=True)

    # greedy fallback: single-vertex closures, smallest sets first
    closures = []
    for v in real:
        cl = {v}
        stack = [v]
        while stack:
            x = stack.pop()
            for w in g.out_neighbors(x):
                if w not in cl:
                    cl.add(w)
                    stack.append(w)
        vs = frozenset(cl)
        if _is_tree_vertex_set(g, u, vs, blocked) and vs not in closures:
            closures.append(vs)
    closures.sort(key=lambda s: (len(s), tuple(sorted(s))))
    taken: list[frozenset[int]] = []
    used: set[int] = set()
    for vs in closures:
        if not vs & used:
            taken.append(vs)
            used |= vs
    trees = tuple(ConnectingTree(vertices=vs, edges=_spanning_tree_edges(u, vs))
                  for vs in sorted(taken, key=min))
    return TreeSearchResult(trees=trees, exact=False)


# --------------------------------------------------------- encoding

def _owners(inst: Instance) -> dict[int, set[int]]:
    """Message -> the (1-based) senders that own it."""
    owners: dict[int, set[int]] = {}
    for k, s in enumerate(inst.senders, start=1):
        for m in s:
            owners.setdefault(m, set()).add(k)
    return owners


def _smallest_owner(owners: dict[int, set[int]], *messages: int) -> int:
    common = set.intersection(*(owners.get(m, set()) for m in messages))
    if not common:
        raise ValueError(f"no sender owns messages {messages} together")
    return min(common)


def encode_multi(inst: Instance, trees: tuple[ConnectingTree, ...]) -> LinearIndexCode:
    """Pairwise XOR code: one symbol per connecting-tree edge, a spanning
    tree of XORs per message-connected leaf SCC, every other non-leaf
    message uncoded.  Each symbol goes to the smallest sender that owns
    its messages."""
    _require_binary(inst)
    g, u = _graphs(inst)
    mc = _message_connected_leaf_sccs(g, u)
    blocked = frozenset().union(*mc) if mc else frozenset()
    owners = _owners(inst)

    seen: set[int] = set()
    for t in trees:
        if not _is_tree_vertex_set(g, u, t.vertices, blocked):
            raise ValueError(f"invalid connecting tree on {sorted(t.vertices)}")
        if t.vertices & seen:
            raise ValueError("connecting trees must be vertex-disjoint")
        seen |= t.vertices

    symbols: list[CodeSymbol] = []
    for t in sorted(trees, key=lambda t: min(t.vertices)):
        for (i, j) in sorted(t.edges):
            symbols.append(CodeSymbol(sender=_smallest_owner(owners, i, j),
                                      terms=((i, 1), (j, 1))))
    for scc in mc:
        for (i, j) in sorted(_spanning_tree_edges(u, scc)):
            symbols.append(CodeSymbol(sender=_smallest_owner(owners, i, j),
                                      terms=((i, 1), (j, 1))))
    leaves = leaf_vertices(g)
    covered = seen | blocked
    for v in g.vertices:
        if v in leaves or v in covered:
            continue
        symbols.append(CodeSymbol(sender=_smallest_owner(owners, v), terms=((v, 1),)))
    return LinearIndexCode(symbols=tuple(symbols))


# -------------------------------------------------------- bound report

def senders_pairwise_disjoint(inst: Instance) -> bool:
    seen: set[int] = set()
    for s in inst.senders:
        if seen & set(s):
            return False
        seen |= set(s)
    return True


def bound_multi(inst: Instance, exhaustive: bool = False, max_states: int = 10 ** 6,
                tree_limit: int = 12) -> BoundReport:
    """Lower bound from the combined algorithm (optionally sharpened by
    the exhaustive sequence search), upper bound from the pairwise code
    over a maximum set of connecting trees."""
    lr = run_algorithm2(inst)
    ex = exhaustive_lower_bound(inst, max_states=max_states) if exhaustive else None
    lower = max(lr.bound, ex.bound) if ex is not None else lr.bound
    ts = find_connecting_trees(inst, exact_limit=tree_limit)
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
                       trees_exact=ts.exact, code=code)
