"""Brute-force reference implementations.

Deliberately dumb: transitive closure for SCCs, powerset sweeps for
witnesses, full combination scans for minimum codes. Only usable at toy
sizes, which is exactly what pins the fast implementations down.
"""

from __future__ import annotations

import json
from bisect import insort
from enum import Enum
from itertools import chain, combinations

from uniprior import (DegeneracyWitness, Gf2Basis, Instance, Kind, LinearIndexCode,
                      LowerBoundReport, MessageGraph, PruneStep, PruneTrace, StepKind,
                      StepRecord, VerifyReport, WorkGraph, bit_layout, check_code,
                      classify_leaf_scc, derive_message_graph, find_degeneracy_witness,
                      leaf_vertices, predecessors, verify_exhaustive)
from uniprior.classify import message_class
from uniprior.codes import (CapExceededError, CodeSymbol, OracleResult, _candidate_vectors,
                            _coord, _receivers, _trivial_upper_code, symbol_vectors)
from uniprior.graph import (SccPartition, _is_leaf, _strong_components, leaf_scc_sets, reach,
                            v_out)
from uniprior.multi import (ConnectingTree, ExhaustiveResult, TreeSearchResult, _apply,
                            _graphs, _is_tree_vertex_set, _message_connected_leaf_sccs,
                            _require_binary, _steps, step_limit)


def brute_reach(g: WorkGraph) -> dict[int, set[int]]:
    """reach[v] = vertices reachable from v by a path of >= 1 arc."""
    reach: dict[int, set[int]] = {}
    for v in g.vertices:
        seen: set[int] = set()
        frontier = list(g.out_neighbors(v))
        while frontier:
            w = frontier.pop()
            if w in seen:
                continue
            seen.add(w)
            frontier.extend(g.out_neighbors(w))
        reach[v] = seen
    return reach


def brute_sccs(g: WorkGraph) -> list[frozenset[int]]:
    reach = brute_reach(g)
    comps: list[frozenset[int]] = []
    assigned: set[int] = set()
    for v in g.vertices:
        if v in assigned:
            continue
        comp = {v} | {w for w in g.vertices
                      if w != v and w in reach[v] and v in reach[w]}
        comps.append(frozenset(comp))
        assigned |= comp
    return sorted(comps, key=min)


def brute_leaf_scc_sets(g: WorkGraph) -> list[frozenset[int]]:
    out = []
    for comp in brute_sccs(g):
        if len(comp) < 2:
            continue
        if all(w in comp for v in comp for w in g.out_neighbors(v)):
            out.append(comp)
    return out


def reference_child_partition(g: WorkGraph, parent: SccPartition,
                              step: tuple | None) -> SccPartition:
    """g's full SCC partition from the partition of the graph one step
    before it; step is ("prune", a), ("dummy", a, d), ("arc", a, b), or
    None when g equals its parent.

    Only the SCC C of the step's source vertex a can change:
    - prune of a: only C can split; the SCC pass runs on C's arcs alone,
      and no part of C is a leaf.
    - new arc (a, b): inside C nothing changes.  Across SCCs, C stops
      being a leaf unless b reaches a; then every vertex on a path from
      b to a joins one SCC with C.
    - new dummy d under a: d is a singleton listed last (it is the
      largest vertex), and C stops being a leaf.
    """
    if step is None:
        return parent
    kind, a = step[0], step[1]
    pairs = list(zip(parent.components, parent.leaf_flags))
    k = next(k for k, (c, _) in enumerate(pairs) if a in c)
    comp = pairs[k][0]
    if kind == "prune":
        del pairs[k]
        out = {v: tuple(w for w in g.out_neighbors(v) if w in comp) for v in comp}
        inn = {v: tuple(w for w in comp if v in g.out_neighbors(w)) for v in comp}
        for c in _strong_components(out, inn, sorted(comp)):
            insort(pairs, (c, False), key=lambda pair: min(pair[0]))
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
            # the vertices reachable from b that reach a, a among them
            merged = frozenset(x for x in fwd if a in reach(g, x))
            pairs = [p for p in pairs if not p[0] <= merged]
            insort(pairs, (merged, _is_leaf(g, merged)), key=lambda pair: min(pair[0]))
    return SccPartition(components=tuple(c for c, _ in pairs),
                        leaf_flags=tuple(f for _, f in pairs))


def _precedes_a_leaf(g: WorkGraph) -> set[int]:
    """The vertices with a path to some leaf (a vertex with no out-arcs)."""
    reach = brute_reach(g)
    return {v for v in g.vertices if any(not g.out_neighbors(w) for w in reach[v])}


def brute_is_grounded(g: WorkGraph) -> bool:
    """By the definition: every vertex is a leaf or precedes one."""
    preceding = _precedes_a_leaf(g)
    return all(not g.out_neighbors(v) or v in preceding for v in g.vertices)


def reference_predecessor_weight_bound(g: WorkGraph) -> int:
    """Total weight of the vertices that precede some leaf.  On a grounded
    graph that is every non-leaf vertex, the sharpest form of the
    predecessor lower bound."""
    return sum(g.weight[v] for v in _precedes_a_leaf(g))


def brute_predecessors(g: WorkGraph, v: int) -> set[int]:
    reach = brute_reach(g)
    return {u for u in g.vertices if v in reach[u]}


def reference_check_witness(g: WorkGraph, u: MessageGraph, scc: frozenset[int],
                            w: DegeneracyWitness) -> bool:
    """The three degeneracy-witness conditions, checked directly from g
    and u: s_inside a proper part of the SCC and s_outside outside it,
    with v_inside and target in them, and
    (a) no message-graph edge between s_inside and the rest of the SCC;
    (b) at most one non-leaf vertex in s_outside;
    (c) every message neighbour of s_inside is in s_outside or precedes
        one of its vertices."""
    if not w.s_inside or not w.s_inside < scc or w.s_outside & scc:
        return False
    if w.v_inside not in w.s_inside or w.target not in w.s_outside:
        return False
    if any(u.neighbors(a) & (scc - w.s_inside) for a in w.s_inside):
        return False
    if sum(1 for v in w.s_outside if g.out_neighbors(v)) > 1:
        return False
    covered = set(w.s_outside).union(*(brute_predecessors(g, v) for v in w.s_outside))
    return u.neighbors_of_set(w.s_inside) <= covered


def reference_prune_all(g: WorkGraph) -> tuple[WorkGraph, PruneTrace]:
    """Pruning step by step: while the graph has a leaf SCC, remove all
    out-arcs of one minimum-weight vertex (smallest id on ties) of the
    first, then look for leaf SCCs again on the pruned graph."""
    steps = []
    while True:
        leafs = leaf_scc_sets(g)
        if not leafs:
            break
        scc = leafs[0]
        pick = min(scc, key=lambda v: (g.weight[v], v))
        removed = tuple((pick, j) for j in g.out_neighbors(pick))
        g = g.without_out_arcs(pick)
        steps.append(PruneStep(scc=scc, vertex=pick, removed_arcs=removed))
    return g, PruneTrace(steps=tuple(steps))


def reference_codelength(g: WorkGraph) -> int:
    """The single-sender optimum by its formula: total weight, minus the
    weight of the leaves, minus one minimum weight per leaf SCC."""
    leaf_w = sum(g.weight[v] for v in g.vertices if not g.out_neighbors(v))
    scc_min = sum(min(g.weight[v] for v in scc) for scc in brute_leaf_scc_sets(g))
    return sum(g.weight[v] for v in g.vertices) - leaf_w - scc_min


def reference_neighbors(u: MessageGraph, v: int) -> set[int]:
    """Neighbors of v by a scan of the whole edge set."""
    out = set()
    for (a, b) in u.edges:
        if a == v:
            out.add(b)
        elif b == v:
            out.add(a)
    return out


def reference_components(u: MessageGraph) -> list[frozenset[int]]:
    """Connected components over 1..n by BFS on edge-scan neighbors,
    ordered by smallest member."""
    seen: set[int] = set()
    comps = []
    for v in range(1, u.n + 1):
        if v in seen:
            continue
        comp = {v}
        stack = [v]
        while stack:
            x = stack.pop()
            for w in reference_neighbors(u, x):
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        comps.append(frozenset(comp))
    return comps


def reference_connected_within(u: MessageGraph, vs) -> bool:
    vs = set(vs)
    if not vs:
        return True
    start = min(vs)
    seen = {start}
    stack = [start]
    while stack:
        for w in reference_neighbors(u, stack.pop()):
            if w in vs and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen == vs


def powerset(items, minsize=1):
    items = list(items)
    return chain.from_iterable(combinations(items, r)
                               for r in range(minsize, len(items) + 1))


def brute_witness_exists(g: WorkGraph, u: MessageGraph,
                         scc: frozenset[int]) -> bool:
    """Check every (s_inside, s_outside) pair against the three degeneracy
    conditions directly. s_outside ranges over real (non-dummy) vertices."""
    outside = [v for v in g.real_vertices() if v not in scc]
    for si in powerset(sorted(scc)):
        s_inside = set(si)
        if len(s_inside) == len(scc):
            continue
        rest = scc - s_inside
        if any((min(a, b), max(a, b)) in u.edges for a in s_inside for b in rest):
            continue
        nbrs = {x for a in s_inside for x in u.neighbors(a)} - s_inside
        for so in powerset(outside):
            s_outside = set(so)
            nonleaves = [v for v in s_outside if g.out_degree(v) > 0]
            if len(nonleaves) > 1:
                continue
            allowed = set(s_outside)
            for t in s_outside:
                allowed |= brute_predecessors(g, t)
            if nbrs <= allowed:
                return True
    return False


def reference_witness_options(g: WorkGraph, u: MessageGraph, scc: frozenset[int]):
    """The witness enumerator before the forward-reach filter: every
    non-leaf outside vertex w is tested by one predecessor set,
    predecessors(g, w), in sorted order."""
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
        # leaves' cover misses must be w or precede w
        missed = nbrs - base_cover
        if outside_leaves and not missed:
            for v_inside in sorted(comp):
                for target in sorted(outside_leaves):
                    yield DegeneracyWitness(s_inside=comp, s_outside=outside_leaves,
                                            v_inside=v_inside, target=target)
        for w in non_leaves_outside:
            rest = missed - {w}
            if not rest or rest <= predecessors(g, w):
                s_outside = outside_leaves | {w}
                for v_inside in sorted(comp):
                    yield DegeneracyWitness(s_inside=comp, s_outside=s_outside,
                                            v_inside=v_inside, target=w)


def reference_steps(g: WorkGraph, u: MessageGraph, scc: frozenset[int]):
    """The steps of one leaf SCC by its class from ``classify_leaf_scc``:
    the dummy append of a message-disconnected SCC, each reference
    witness append of a degenerated one, then the prune of each vertex in
    ascending order (PruneConnected for a message-connected SCC,
    PruneNonDegenerated for the others)."""
    kind = classify_leaf_scc(g, u, scc).kind
    if kind is Kind.MESSAGE_DISCONNECTED:
        yield StepKind.APPEND_DISCONNECTED, min(scc)
    elif kind is Kind.DEGENERATED:
        for w in reference_witness_options(g, u, scc):
            yield StepKind.APPEND_DEGENERATED, w
    prune = (StepKind.PRUNE_CONNECTED if kind is Kind.MESSAGE_CONNECTED
             else StepKind.PRUNE_NON_DEGENERATED)
    for v in sorted(scc):
        yield prune, v


def all_sender_vectors(inst: Instance) -> list[tuple[int, tuple[tuple[int, int], ...]]]:
    """Every nonempty XOR combination a sender can transmit, as
    (sender, sorted terms); duplicates across senders kept distinct."""
    out = []
    for s, members in enumerate(inst.senders, start=1):
        bits = [(m, b) for m in members for b in range(1, inst.q[m - 1] + 1)]
        for terms in powerset(bits):
            out.append((s, tuple(sorted(terms))))
    return out


def brute_min_linear(inst: Instance, max_len: int) -> int | None:
    """Smallest valid code length by scanning every combination of sender
    vectors, validity decided by truth-table enumeration."""
    from uniprior import symbol

    vectors = all_sender_vectors(inst)
    for length in range(0, max_len + 1):
        for combo in combinations(vectors, length):
            code = LinearIndexCode(tuple(symbol(s, *terms)
                                         for (s, terms) in combo))
            if verify_exhaustive(inst, code).valid:
                return length
    return None


def _receiver_units(inst: Instance, offsets: tuple[int, ...], r: int) -> list[int]:
    return [1 << _coord(offsets, r, b) for b in range(1, inst.q[r - 1] + 1)]


def _wanted_bits(inst: Instance, r: int) -> list[tuple[int, int]]:
    wants = sorted(i for (i, j) in inst.arcs if j == r)
    return [(j, b) for j in wants for b in range(1, inst.q[j - 1] + 1)]


def _residues(rows: dict[int, int], own: range, wanted: list[int]) -> list[int]:
    """What a receiver knowing the coordinates `own` still lacks of each
    wanted coordinate, given the code's RREF `rows`: 0 iff it decodes.

    Deleting the own columns (keep = ~own) leaves a row pivoted outside
    them the only one with its pivot bit, so it fixes that coefficient:
    e_c lies in the projected row space iff t_c = (rows[c] ^ e_c) & keep
    (rows[c] = 0 if c is no pivot) lies in the span K of the <= q_r rows
    pivoted inside own.  The residues are the t_c reduced by K; their rank
    is the rank deficit.
    """
    keep = ~(((1 << len(own)) - 1) << own.start)
    k = Gf2Basis(rows[p] & keep for p in own if p in rows)
    return [k._reduce((rows.get(c, 0) ^ (1 << c)) & keep) for c in wanted]


def reference_verify_linear(inst: Instance, code: LinearIndexCode) -> VerifyReport:
    """Rank criterion: receiver r decodes bit (j, b) iff its unit vector
    lies in the span of the code symbols plus r's own message bits.

    The per-receiver form: a fresh basis of every code row plus r's own
    unit vectors for each receiver, O(n * L * rank)."""
    check_code(inst, code)
    offsets, _ = bit_layout(inst)
    vecs = symbol_vectors(inst, code)
    failures = []
    for r in range(1, inst.n + 1):
        wanted = _wanted_bits(inst, r)
        if not wanted:
            continue
        basis = Gf2Basis(vecs + _receiver_units(inst, offsets, r))
        for (j, b) in wanted:
            if not basis.contains(1 << _coord(offsets, j, b)):
                failures.append((r, (j, b)))
    return VerifyReport(valid=not failures, failures=tuple(failures))


def reference_oracle_min_linear(inst: Instance, max_len: int | None = None,
                                max_bits: int = 12) -> OracleResult:
    """Minimum number of scalar-linear symbols decoding every request.

    The plain search: per-receiver bases rebuilt at every node
    (``demand``, ``satisfied``), each receiver's own requests only, and
    a failure memo keyed by (snapshot, slots, start).  The reference
    that ``oracle_min_linear`` must match result for result.
    """
    offsets, total = bit_layout(inst)
    if total > max_bits:
        raise CapExceededError(f"total bits {total} exceeds cap {max_bits}")

    receivers = [(own, coords) for _, own, _, coords in _receivers(inst, offsets)]
    if not receivers:
        return OracleResult(length=0, code=LinearIndexCode(symbols=()), exact=True)

    cands = _candidate_vectors(inst, offsets)

    def demand(rows: dict[int, int]) -> int:
        """Largest per-receiver rank deficit; each missing dimension costs
        at least one more symbol."""
        return max(Gf2Basis(_residues(rows, own, wanted)).rank for own, wanted in receivers)

    def satisfied(rows: dict[int, int]) -> bool:
        return not any(any(_residues(rows, own, wanted)) for own, wanted in receivers)

    upper_code = _trivial_upper_code(inst)
    hard_cap = len(upper_code) if max_len is None else min(max_len, len(upper_code))

    lb = demand({})
    witness: list[tuple[int, int]] = []
    failed: set[tuple[tuple[int, ...], int, int]] = set()

    def dfs(start: int, chosen: list[tuple[int, int]], basis: Gf2Basis, slots: int) -> bool:
        if slots == 0:
            return satisfied(basis.rows)
        key = (tuple(sorted(basis.rows.values())), slots, start)
        if key in failed:
            return False
        if demand(basis.rows) > slots:
            failed.add(key)
            return False
        for k in range(start, len(cands)):
            si, vec = cands[k]
            if basis.contains(vec):
                continue  # dependent symbols never widen any receiver's span
            b2 = Gf2Basis(basis.rows.values())
            b2.add(vec)
            chosen.append((si, vec))
            if dfs(k + 1, chosen, b2, slots - 1):
                return True
            chosen.pop()
        failed.add(key)
        return False

    for length in range(lb, hard_cap + 1):
        chosen: list[tuple[int, int]] = []
        if dfs(0, chosen, Gf2Basis(), length):
            witness = list(chosen)
            symbols = []
            for (si, vec) in witness:
                terms = []
                for msg in range(1, inst.n + 1):
                    for b in range(1, inst.q[msg - 1] + 1):
                        if (vec >> _coord(offsets, msg, b)) & 1:
                            terms.append((msg, b))
                symbols.append(CodeSymbol(sender=si, terms=tuple(terms)))
            return OracleResult(length=length, code=LinearIndexCode(symbols=tuple(symbols)),
                                exact=True)

    # length cap cut the search short; fall back to the uncoded scheme
    return OracleResult(length=len(upper_code), code=upper_code, exact=False,
                        note=f"no code of length <= {hard_cap} found within caps; "
                             f"reporting the uncoded upper bound")


def _reference_jsonable(obj):
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, dict):
        return {str(k): _reference_jsonable(v) for k, v in obj.items()}
    if hasattr(obj, "_fields"):  # the package's named tuples and value classes
        return {f: _reference_jsonable(getattr(obj, f)) for f in obj._fields}
    if isinstance(obj, (list, tuple)):
        return [_reference_jsonable(x) for x in obj]
    if isinstance(obj, (frozenset, set)):
        return sorted(_reference_jsonable(x) for x in obj)
    if isinstance(obj, WorkGraph):
        return {
            "vertices": list(obj.vertices),
            "arcs": [list(a) for a in sorted(obj.arcs)],
            "weight": {str(v): obj.weight[v] for v in obj.vertices},
            "dummies": sorted(obj.dummies),
        }
    return obj


def reference_emit_json(doc) -> str:
    """The CLI's JSON text as first written: convert to plain JSON types,
    then the standard library's encoder with indent 2 and sorted keys."""
    return json.dumps(_reference_jsonable(doc), indent=2, sort_keys=True)


def reference_spanning_tree_edges(u: MessageGraph, vs: frozenset[int]) -> frozenset[tuple[int, int]]:
    """Kruskal over the induced edges, taken from a sort of the whole
    message-graph edge set."""
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


def reference_find_connecting_trees(inst: Instance, exact_limit: int = 12) -> TreeSearchResult:
    """The connecting-tree search by subset enumeration: for n up to
    exact_limit every vertex subset of size >= 2 is tested, the minimal
    valid ones are packed by memoized search; larger n packs single-vertex
    closures greedily."""
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
        trees = tuple(ConnectingTree(vertices=vs, edges=reference_spanning_tree_edges(u, vs))
                      for vs in sorted(chosen, key=min))
        return TreeSearchResult(trees=trees, exact=True)

    # greedy fallback: single-vertex closures, smallest sets first
    closures = sorted((vs for vs in {reach(g, v) | {v} for v in real}
                       if _is_tree_vertex_set(g, u, vs, blocked)),
                      key=lambda s: (len(s), tuple(sorted(s))))
    taken: list[frozenset[int]] = []
    used: set[int] = set()
    for vs in closures:
        if not vs & used:
            taken.append(vs)
            used |= vs
    trees = tuple(ConnectingTree(vertices=vs, edges=reference_spanning_tree_edges(u, vs))
                  for vs in sorted(taken, key=min))
    return TreeSearchResult(trees=trees, exact=False)


def _reference_state_key(g: WorkGraph):
    real = []
    dummy_sources = []
    for (i, j) in g.arcs:
        if j in g.dummies:
            dummy_sources.append(i)
        else:
            real.append((i, j))
    return (tuple(sorted(real)), tuple(sorted(dummy_sources)))


def reference_exhaustive_lower_bound(inst: Instance,
                                     max_states: int = 10 ** 6) -> ExhaustiveResult:
    """The exhaustive search that builds every child graph before it
    scores it: each child's key is a sorted tuple of its arcs, and its
    v_out and leaf SCCs are recounted from the built graph."""
    _require_binary(inst)
    g0, u = _graphs(inst)
    memo: dict = {}
    states = 0
    truncated = False
    # one frame per state being searched: [key, its children, best so far]
    stack: list[list] = []

    def enter(g: WorkGraph) -> int | None:
        """g's value if it needs no search, else None with g's frame pushed."""
        nonlocal states, truncated
        key = _reference_state_key(g)
        if key in memo:
            return memo[key]
        sccs = leaf_scc_sets(g)
        if not sccs:
            val = v_out(g)
            memo[key] = val
            return val
        if states >= max_states:
            truncated = True
            return v_out(g) - len(sccs)  # finish by pruning everything
        states += 1
        stack.append([key, (_apply(g, kind, x) for scc in sccs
                            for kind, x in _steps(g, u, scc)), 0])
        return None

    val = enter(g0)
    while stack:
        frame = stack[-1]
        child = next(frame[1], None)
        if child is None:
            stack.pop()
            val = frame[2]
            if not truncated:
                memo[frame[0]] = val
        else:
            val = enter(child)
        if val is not None and stack:
            stack[-1][2] = max(stack[-1][2], val)
    return ExhaustiveResult(bound=val, exact=not truncated, states_visited=states)


def _fresh(g: WorkGraph) -> WorkGraph:
    """g rebuilt from its arcs, with nothing handed over by a step."""
    return WorkGraph(g.vertices, g.arcs, g.weight, g.dummies)


def reference_rule_of_thumb_pick(g: WorkGraph, u: MessageGraph,
                                 sccs: list[frozenset[int]]) -> frozenset[int]:
    """The lookahead that builds every candidate's pruned graph from
    scratch and searches every other leaf SCC on it for a witness."""
    best_scc = None
    best_gain = -1
    for scc in sccs:
        g2 = _fresh(_apply(g, *next(_steps(g, u, scc))))
        gain = sum(1 for other in sccs
                   if other != scc and find_degeneracy_witness(g2, u, other) is not None)
        if gain > best_gain:
            best_gain = gain
            best_scc = scc
    return best_scc


def reference_run_algorithm2(inst: Instance, picks: list | None = None) -> LowerBoundReport:
    """Algorithm 2 with no class table: every scan classifies each leaf
    SCC on a graph rebuilt from its arcs after every step, and each pick
    is the reference lookahead's.  Each lookahead's (graph, candidates,
    pick) is appended to picks when given."""
    _require_binary(inst)
    g = WorkGraph.from_instance(inst)
    u = derive_message_graph(inst)
    v_out_orig = v_out(g)
    steps: list[StepRecord] = []

    def first_of_kind(g, kind):
        for scc in leaf_scc_sets(g):
            cls = message_class(u, scc)[0]
            if cls is None and kind is Kind.DEGENERATED:
                cls = classify_leaf_scc(g, u, scc)
            if cls is not None and cls.kind is kind:
                return scc
        return None

    def take(g, scc, phase):
        kind, x = next(_steps(g, u, scc))
        g2 = _apply(g, kind, x)
        if kind is StepKind.APPEND_DISCONNECTED:
            dummy = g2.vertices[-1]
            rec = StepRecord(kind=kind, scc=scc, phase=phase, added_arc=(x, dummy), dummy=dummy)
        elif kind is StepKind.APPEND_DEGENERATED:
            rec = StepRecord(kind=kind, scc=scc, phase=phase,
                             added_arc=(x.v_inside, x.target), witness=x)
        else:
            rec = StepRecord(kind=kind, scc=scc, phase=phase, selected_vertex=x)
        steps.append(rec)
        return _fresh(g2)

    def append_phase(g, phase):
        while True:
            changed = False
            for kind in (Kind.MESSAGE_DISCONNECTED, Kind.DEGENERATED):
                while (scc := first_of_kind(g, kind)) is not None:
                    g = take(g, scc, phase)
                    changed = True
            if not changed:
                return g

    init = [scc for scc in leaf_scc_sets(g)
            if (cls := message_class(u, scc)[0]) is not None
            and cls.kind is Kind.MESSAGE_CONNECTED]
    for scc in init:
        g = take(g, scc, "init")
    g = append_phase(g, "init")
    iterations = 0
    while sccs := leaf_scc_sets(g):
        iterations += 1
        scc = first_of_kind(g, Kind.MESSAGE_CONNECTED)
        if scc is None:
            scc = reference_rule_of_thumb_pick(g, u, sccs)
            if picks is not None:
                picks.append((g, sccs, scc))
        g = take(g, scc, "iteration")
        g = append_phase(g, "iteration")
        assert len(steps) <= step_limit(inst.n)
    bound = v_out_orig - (len(init) + iterations)
    assert bound == v_out(g)
    return LowerBoundReport(bound=bound, v_out_original=v_out_orig, connected_count=len(init),
                            iterations=iterations, steps=tuple(steps), final_graph=g)
