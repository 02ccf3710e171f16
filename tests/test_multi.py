"""Multi-sender bounds: appending/pruning, exhaustive search, trees, encoder."""

from __future__ import annotations

import inspect
import itertools
import random
import re
import sys
import time

import pytest

from uniprior import (BinaryRequiredError, ExhaustiveResult, Kind, StepKind,
                      TightReason, WorkGraph, bound_multi, classify_leaf_scc,
                      derive_message_graph, encode_multi,
                      exhaustive_lower_bound, find_connecting_trees,
                      leaf_scc_sets, oracle_min_linear, reach,
                      run_algorithm2, senders_pairwise_disjoint, solve_single,
                      step_limit, symbol, v_out, verify_linear)
from uniprior.multi import _apply, _child_score, _smallest_owner, _spanning_tree_edges, _steps

from generators import (big_sender_clusters, cyclic_arcs, make_instance, rand_arcs,
                        rand_cyclic, rand_disjoint, rand_multi, rand_senders, rand_single,
                        rand_triples, wide_senders)
from oracles import (brute_is_grounded, brute_leaf_scc_sets, reference_exhaustive_lower_bound,
                     reference_find_connecting_trees, reference_spanning_tree_edges)

GAP = make_instance(6, [[1, 2], [2, 1], [3, 4], [4, 3], [5, 6], [6, 5]],
                   [[1, 3, 5], [2, 3, 5], [2, 4, 5], [2, 4, 6]])
SPLIT = make_instance(4, [[1, 3], [4, 2], [1, 2], [2, 1], [3, 4], [4, 3]],
                   [[1, 2], [3, 4]])
D1 = make_instance(3, [[1, 2], [2, 1], [3, 1]], [[1, 3], [2, 3]])
ORDER = make_instance(6, [[1, 2], [2, 1], [3, 4], [4, 3], [5, 6], [6, 5]],
                     [[1, 2], [1, 3], [2, 3], [1, 4], [2, 4], [3, 5], [3, 6],
                      [4, 5], [4, 6]])


def graph_and_u(inst):
    return WorkGraph.from_instance(inst), derive_message_graph(inst)


def first_prune(g, u, scc):
    """The graph after the first prune step on scc: its smallest vertex."""
    return next(_apply(g, kind, x) for kind, x in _steps(g, u, scc)
                if kind in (StepKind.PRUNE_CONNECTED, StepKind.PRUNE_NON_DEGENERATED))


# ------------------------------------------------------------ named runs

def test_gap_bound_run():
    rep = run_algorithm2(GAP)
    assert (rep.v_out_original, rep.connected_count, rep.iterations) == (6, 0, 2)
    assert rep.bound == 4
    assert brute_is_grounded(rep.final_graph)
    assert [(s.kind, sorted(s.scc), s.phase) for s in rep.steps] == [
        (StepKind.PRUNE_NON_DEGENERATED, [1, 2], "iteration"),
        (StepKind.APPEND_DEGENERATED, [3, 4], "iteration"),
        (StepKind.APPEND_DEGENERATED, [5, 6], "iteration"),
        (StepKind.PRUNE_CONNECTED, [3, 4, 5, 6], "iteration"),
    ]
    assert rep.steps[1].added_arc == (3, 5)
    assert rep.steps[2].added_arc == (5, 3)


def test_bound_builds_each_graph_once(monkeypatch):
    # Algorithm 2, the exhaustive search, the tree search and the encoder
    # share one work graph and one message graph per instance
    import uniprior.multi as multi

    calls = {"work graphs": 0, "message graphs": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(WorkGraph, "__init__", counting("work graphs", WorkGraph.__init__))
    monkeypatch.setattr(multi, "derive_message_graph",
                        counting("message graphs", multi.derive_message_graph))
    inst = make_instance(6, [list(a) for a in GAP.arcs], [list(s) for s in GAP.senders])
    rep = bound_multi(inst, exhaustive=True)
    assert calls == {"work graphs": 1, "message graphs": 1}
    assert rep == bound_multi(GAP, exhaustive=True)


def test_gap_full_report():
    rep = bound_multi(GAP, exhaustive=True)
    assert rep.lower == 4
    assert rep.upper == 5
    assert not rep.tight and rep.tight_reason is None
    assert rep.exhaustive.bound == 4 and rep.exhaustive.exact
    assert [sorted(t.vertices) for t in rep.trees] == [[1, 2, 3, 4]]
    assert len(rep.code) == 5
    assert verify_linear(GAP, rep.code).valid
    # the shorter hand-built code shows the schemes here are not exhaustive
    four_bit = (symbol(1, (1, 1), (3, 1), (5, 1)),
                symbol(2, (2, 1), (3, 1), (5, 1)),
                symbol(3, (2, 1), (4, 1), (5, 1)),
                symbol(4, (2, 1), (4, 1), (6, 1)))
    from uniprior import LinearIndexCode
    assert verify_linear(GAP, LinearIndexCode(four_bit)).valid


def test_split_disjoint_senders_tight():
    rep = bound_multi(SPLIT)
    assert (rep.lower, rep.upper) == (4, 4)
    assert rep.tight and rep.tight_reason is TightReason.DISJOINT_SENDERS
    assert rep.trees == ()
    assert senders_pairwise_disjoint(SPLIT)
    lr = rep.lower_report
    assert [(s.kind, s.phase) for s in lr.steps] == [
        (StepKind.APPEND_DISCONNECTED, "init")]
    assert lr.steps[0].dummy == 5
    assert lr.steps[0].added_arc == (1, 5)
    assert verify_linear(SPLIT, rep.code).valid and len(rep.code) == 4


def test_d1_run_and_code():
    rep = bound_multi(D1)
    assert (rep.lower, rep.upper) == (2, 2)
    assert rep.tight and rep.tight_reason is TightReason.BOUNDS_COINCIDE
    assert [sorted(t.vertices) for t in rep.trees] == [[1, 2, 3]]
    assert rep.trees[0].edges == frozenset({(1, 3), (2, 3)})
    assert rep.code.symbols == (symbol(1, (1, 1), (3, 1)),
                                symbol(2, (2, 1), (3, 1)))
    lr = rep.lower_report
    assert (lr.connected_count, lr.iterations) == (0, 1)
    assert [(s.kind, sorted(s.scc), s.phase) for s in lr.steps] == [
        (StepKind.APPEND_DEGENERATED, [1, 2], "init"),
        (StepKind.PRUNE_CONNECTED, [1, 2, 3], "iteration"),
    ]


def test_grounded_after_init_is_tight():
    # overlapping third sender makes the four-cycle message-connected
    inst = make_instance(4, [[1, 3], [4, 2], [1, 2], [2, 1], [3, 4], [4, 3]],
                         [[1, 2], [3, 4], [2, 3]])
    rep = bound_multi(inst)
    assert (rep.lower, rep.upper) == (3, 3)
    assert rep.tight_reason is TightReason.NO_LEAF_SCC_AFTER_INIT
    assert rep.lower_report.iterations == 0
    assert not senders_pairwise_disjoint(inst)


def test_three_cycle_cluster_exhaustive_value():
    rep = bound_multi(ORDER, exhaustive=True)
    assert rep.lower == 4
    assert rep.exhaustive.bound == 4 and rep.exhaustive.exact
    assert rep.upper == 4
    assert [sorted(t.vertices) for t in rep.trees] == [[3, 4, 5, 6]]
    # an explicit four-symbol code proves no sequence can certify 5
    assert oracle_min_linear(ORDER).length == 4


def test_exhaustive_truncation_is_flagged_and_sound():
    full = exhaustive_lower_bound(GAP)
    assert (full.bound, full.exact, full.states_visited) == (4, True, 163)
    capped = exhaustive_lower_bound(GAP, max_states=1)
    assert not capped.exact
    assert capped.states_visited == 1
    assert capped.bound <= full.bound
    # bound_multi keeps the reported lower bound sound under truncation
    rep = bound_multi(GAP, exhaustive=True, max_states=1)
    assert rep.lower == 4


# ------------------------------------------------------------ single steps

def test_append_disconnected_dummy_numbering():
    g, u = graph_and_u(SPLIT)
    kind, source = next(_steps(g, u, frozenset({1, 2, 3, 4})))
    g2 = _apply(g, kind, source)
    dummy = max(g2.dummies)
    assert kind is StepKind.APPEND_DISCONNECTED
    assert dummy == 5
    assert (1, 5) in g2.arcs
    assert g2.weight[5] == 0
    g3, dummy2 = g2.with_new_dummy(2)
    assert dummy2 == 6


def test_append_degenerated_named_cases():
    # D1: arc 1->3 assimilates the 2-cycle into a bigger leaf SCC
    g, u = graph_and_u(D1)
    w = classify_leaf_scc(g, u, frozenset({1, 2})).degeneracy
    kind, taken = next(_steps(g, u, frozenset({1, 2})))
    g2 = _apply(g, kind, taken)
    assert (kind, taken) == (StepKind.APPEND_DEGENERATED, w)
    assert (1, 3) in g2.arcs
    assert leaf_scc_sets(g2) == [frozenset({1, 2, 3})]

    # gap instance with {3,4} pruned: target 5 cannot reach 1, count drops
    g, u = graph_and_u(GAP)
    g = first_prune(g, u, frozenset({3, 4}))
    assert g.out_degree(3) == 0
    w = classify_leaf_scc(g, u, frozenset({1, 2})).degeneracy
    assert w.target == 5
    kind, taken = next(_steps(g, u, frozenset({1, 2})))
    g2 = _apply(g, kind, taken)
    assert taken == w
    assert (1, 5) in g2.arcs
    assert len(leaf_scc_sets(g2)) == len(leaf_scc_sets(g)) - 1


def test_append_disconnected_leaves_the_other_cycle_alone():
    # singleton senders: both 2-cycles message-disconnected, U-disjoint
    inst = make_instance(4, [[1, 2], [2, 1], [3, 4], [4, 3]],
                         [[1], [2], [3], [4]])
    g, u = graph_and_u(inst)
    before = classify_leaf_scc(g, u, frozenset({3, 4}))
    assert before.kind is Kind.MESSAGE_DISCONNECTED
    kind, x = next(_steps(g, u, frozenset({1, 2})))
    g2 = _apply(g, kind, x)
    assert kind is StepKind.APPEND_DISCONNECTED
    assert classify_leaf_scc(g2, u, frozenset({3, 4})) == before
    assert v_out(g2) == v_out(g)


def test_prune_two_cycle_makes_smallest_vertex_a_leaf():
    g, u = graph_and_u(make_instance(2, [[1, 2], [2, 1]], [[1], [2]]))
    g2 = first_prune(g, u, frozenset({1, 2}))
    assert g2.arcs == frozenset({(2, 1)})
    assert g2.out_degree(1) == 0


def test_exhaustive_on_single_sender_matches_pruning_bound():
    # one sender owning everything makes every leaf SCC message-connected,
    # so no append is ever admissible and sequencing cannot matter
    rng = random.Random(101)
    for _ in range(60):
        inst = rand_single(rng, n_max=6, q_max=1)
        ex = exhaustive_lower_bound(inst)
        assert ex.exact
        assert ex.bound == solve_single(inst).optimal_length


def test_exhaustive_search_depth_is_not_bounded_by_the_recursion_limit():
    # 100 disjoint 2-cycles with singleton senders: each search path is
    # one step per cycle deep, far past the limit set here; the first
    # path, 100 dummy appends deep, already reaches the ceiling of 200
    n = 200
    inst = make_instance(n, [[i, i + 1] for i in range(1, n, 2)]
                         + [[i + 1, i] for i in range(1, n, 2)],
                         [[v] for v in range(1, n + 1)])
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 60)
    try:
        ex = exhaustive_lower_bound(inst, max_states=100)
    finally:
        sys.setrecursionlimit(old)
    assert ex == ExhaustiveResult(bound=200, exact=True, states_visited=100)


def test_capped_exhaustive_search_scores_children_without_building_them():
    # 200 disjoint 2-cycles with singleton senders: every state has 3
    # steps per 2-cycle left; when each child graph was built to be
    # scored, this took about 20 s
    n = 400
    inst = make_instance(n, [[i, i + 1] for i in range(1, n, 2)]
                         + [[i + 1, i] for i in range(1, n, 2)],
                         [[v] for v in range(1, n + 1)])
    t0 = time.perf_counter()
    ex = exhaustive_lower_bound(inst, max_states=100)
    elapsed = time.perf_counter() - t0
    assert ex == ExhaustiveResult(bound=300, exact=False, states_visited=100)
    assert elapsed < 5, f"exhaustive search took {elapsed:.1f} s"


def test_exhaustive_search_stops_at_the_ceiling_before_the_cap():
    # 600 disjoint 2-cycles with singleton senders: the first path of
    # 600 dummy appends keeps v_out = 1200, the root's ceiling, so the
    # search ends exact after those 600 states; enumerating every child
    # instead ran into the cap of 2000 states after about 9 s
    n = 1200
    inst = make_instance(n, [[i, i + 1] for i in range(1, n, 2)]
                         + [[i + 1, i] for i in range(1, n, 2)],
                         [[v] for v in range(1, n + 1)])
    t0 = time.perf_counter()
    ex = exhaustive_lower_bound(inst, max_states=2000)
    elapsed = time.perf_counter() - t0
    assert ex == ExhaustiveResult(bound=1200, exact=True, states_visited=600)
    assert elapsed < 5, f"exhaustive search took {elapsed:.1f} s"


def test_exhaustive_matches_reference_search():
    # the reference enumerates every child of every state; the search
    # under test stops a state at its ceiling, so it visits no more
    # states, never returns less, and agrees wherever either is exact
    rng = random.Random(137)
    insts = [rand_cyclic(rng, n_max=12) for _ in range(60)]
    insts += [rand_multi(rng, n_max=8) for _ in range(60)]
    insts += [rand_triples(rng, t_max=4) for _ in range(30)]
    insts += [big_sender_clusters(rng) for _ in range(12)]
    searched = capped = gained = 0
    for inst in insts:
        caps = (60, 7, 1, 0) if inst.n > 8 else (10 ** 6, 60, 7, 1, 0)
        pairs = [(exhaustive_lower_bound(inst, max_states=cap),
                  reference_exhaustive_lower_bound(inst, max_states=cap)) for cap in caps]
        exact_refs = {ref.bound for _, ref in pairs if ref.exact}
        assert len(exact_refs) <= 1, inst
        for cap, (ex, ref) in zip(caps, pairs):
            assert ex.bound >= ref.bound, (inst, cap)
            assert ex.states_visited <= ref.states_visited, (inst, cap)
            if ref.exact:
                assert ex.exact and ex.bound == ref.bound, (inst, cap)
            if ex.exact:
                assert exact_refs <= {ex.bound}, (inst, cap)
            searched += 1
            capped += not ref.exact
            gained += ex.exact and not ref.exact
    assert searched >= 700 and capped >= 300 and gained >= 50


def _exact_values(g, u, values: dict) -> int:
    """The exact value of g's state, from the built children of every
    step, with the value of every state reachable from g stored in
    values under its key, alongside its ceiling."""
    key = _built_key(g)
    if key not in values:
        sccs = brute_leaf_scc_sets(g)
        ceiling = v_out(g) - sum(classify_leaf_scc(g, u, scc).kind is Kind.MESSAGE_CONNECTED
                                 for scc in sccs)
        best = max((_exact_values(_apply(g, kind, x), u, values)
                    for scc in sccs for kind, x in _steps(g, u, scc)), default=v_out(g))
        values[key] = (best, ceiling if sccs else None)
    return values[key][0]


def test_state_values_never_exceed_their_ceiling():
    # every state the uncapped reference search expands (every reachable
    # state with a leaf SCC) is worth at most v_out minus its number of
    # message-connected leaf SCCs; the ceiling is often reached, and it
    # is not always reached
    rng = random.Random(149)
    reached = below = 0
    for k in range(240):
        inst = (rand_cyclic(rng, n_max=8) if k % 3 == 0 else rand_multi(rng, n_max=7)
                if k % 3 == 1 else rand_triples(rng, t_max=2))
        values: dict = {}
        g, u = graph_and_u(inst)
        _exact_values(g, u, values)
        for value, ceiling in values.values():
            if ceiling is not None:
                assert value <= ceiling, inst
                reached += value == ceiling
                below += value < ceiling
    assert reached >= 1500 and below >= 400, (reached, below)


def _built_key(g):
    """(real arcs, dummy sources) of g, read from its arcs."""
    sources = [i for (i, j) in g.arcs if j in g.dummies]
    assert len(sources) == len(set(sources))  # at most one dummy arc each
    return (frozenset(a for a in g.arcs if a[1] not in g.dummies), frozenset(sources))


def _state_key(root, g):
    """The search's key of g, read from g and the root graph: (pruned
    vertices, appended arcs, dummy sources)."""
    real = frozenset(a for a in g.arcs if a[1] not in g.dummies)
    return (frozenset(v for v in root.vertices
                      if root.out_neighbors(v) and not g.out_neighbors(v)),
            real - root.arcs, _built_key(g)[1])


def test_child_scores_match_the_built_child():
    # every step of every leaf SCC along random step sequences: the key,
    # v_out and leaf-SCC count derived from the parent are the child's
    rng = random.Random(139)
    checked = merged = 0
    for k in range(500):
        inst = rand_cyclic(rng, n_max=9) if k % 3 else rand_multi(rng, n_max=8)
        root, u = graph_and_u(inst)
        g = root
        while sccs := leaf_scc_sets(g):
            key, vo = _state_key(root, g), v_out(g)
            steps = [st for scc in sccs for st in _steps(g, u, scc)]
            for kind, x in steps:
                child_key, child_vo, nleaf = _child_score(g, key, vo, len(sccs), kind, x)
                child = _apply(g, kind, x)
                # a witness append whose target reaches its source merges SCCs
                merged += (kind is StepKind.APPEND_DEGENERATED
                           and x.v_inside in reach(g, x.target))
                assert child_key == _state_key(root, child)
                assert child_vo == v_out(child)
                assert nleaf == len(leaf_scc_sets(child)) == len(brute_leaf_scc_sets(child))
                checked += 1
            g = _apply(g, *rng.choice(steps))
    assert checked >= 3000 and merged >= 100


def test_state_keys_are_canonical():
    # every state reachable by some step sequence, under a budget, along
    # every sequence that reaches it: keys patched step by step are equal
    # iff the states' real arcs and dummy sources are
    rng = random.Random(151)
    states = reconverged = dropped = 0
    for k in range(150):
        inst = (rand_cyclic(rng, n_max=10) if k % 3 == 0 else rand_multi(rng, n_max=9)
                if k % 3 == 1 else rand_triples(rng, t_max=3))
        root, u = graph_and_u(inst)
        by_key: dict = {}
        by_arcs: dict = {}
        empty = frozenset()
        stack = [(root, (empty, empty, empty))]
        while stack and len(by_key) < 400:
            g, key = stack.pop()
            arcs = _built_key(g)
            if key in by_key:
                assert by_key[key] == arcs, inst
                reconverged += 1
                continue
            assert arcs not in by_arcs, inst
            by_key[key], by_arcs[arcs] = arcs, key
            sccs = leaf_scc_sets(g)
            for kind, x in (st for scc in sccs for st in _steps(g, u, scc)):
                child_key = _child_score(g, key, v_out(g), len(sccs), kind, x)[0]
                # a prune that takes an appended arc out of the key
                dropped += len(child_key[1]) < len(key[1])
                stack.append((_apply(g, kind, x), child_key))
        states += len(by_key)
    assert states >= 10000 and reconverged >= 12000 and dropped >= 3000, \
        (states, reconverged, dropped)


def collect_steps(rng, rounds):
    """Yield (kind, before, after) over the canonical step of every leaf
    SCC of random graphs."""
    for _ in range(rounds):
        inst = rand_cyclic(rng, n_max=8)
        g, u = graph_and_u(inst)
        for scc in leaf_scc_sets(g):
            c = classify_leaf_scc(g, u, scc)
            yield c.kind, g, _apply(g, *next(_steps(g, u, scc)))


def test_step_postconditions_bulk():
    rng = random.Random(79)
    seen = 0
    for kind, g, g2 in collect_steps(rng, 700):
        seen += 1
        dn = len(leaf_scc_sets(g2)) - len(leaf_scc_sets(g))
        dv = v_out(g2) - v_out(g)
        if kind is Kind.MESSAGE_DISCONNECTED:
            assert (dn, dv) == (-1, 0)
        elif kind is Kind.DEGENERATED:
            assert dn in (-1, 0) and dv == 0
        else:
            assert (dn, dv) == (-1, -1)
    assert seen >= 1000


def test_algorithm2_respects_step_limit_and_grounds():
    rng = random.Random(83)
    assert step_limit(6) == 7
    assert step_limit(2) == 1
    for _ in range(400):
        inst = rand_multi(rng, n_max=8)
        rep = run_algorithm2(inst)
        assert brute_is_grounded(rep.final_graph)
        assert len(rep.steps) <= step_limit(inst.n)
        assert rep.bound == v_out(rep.final_graph)


def test_connected_count_is_order_free():
    # the init count must equal the message-connected count of the original
    rng = random.Random(89)
    for _ in range(300):
        inst = rand_cyclic(rng, n_max=8)
        g, u = graph_and_u(inst)
        expected = sum(1 for scc in leaf_scc_sets(g)
                       if classify_leaf_scc(g, u, scc).kind
                       is Kind.MESSAGE_CONNECTED)
        assert run_algorithm2(inst).connected_count == expected


def test_non_binary_weights_rejected():
    inst = make_instance(2, [[1, 2], [2, 1]], [[1], [2]], q=[2, 1])
    with pytest.raises(BinaryRequiredError):
        run_algorithm2(inst)
    with pytest.raises(BinaryRequiredError):
        exhaustive_lower_bound(inst)


def test_exhaustive_never_below_heuristic():
    rng = random.Random(97)
    for _ in range(200):
        inst = rand_cyclic(rng, n_max=7)
        ex = exhaustive_lower_bound(inst)
        assert ex.exact
        assert run_algorithm2(inst).bound <= ex.bound


# ------------------------------------------------------------ trees, encoder

def test_trees_named_instances():
    assert [sorted(t.vertices) for t in find_connecting_trees(GAP).trees] \
        == [[1, 2, 3, 4]]
    assert find_connecting_trees(SPLIT).trees == ()
    d1 = find_connecting_trees(D1)
    assert d1.exact
    assert [sorted(t.vertices) for t in d1.trees] == [[1, 2, 3]]


def test_tree_sets_are_closed_leaf_free_and_message_connected():
    rng = random.Random(101)
    found = 0
    for k in range(300):
        inst = rand_cyclic(rng, n_max=8) if k % 2 else rand_triples(rng)
        g, u = graph_and_u(inst)
        res = find_connecting_trees(inst)
        assert res.exact
        claimed = [frozenset(t.vertices) for t in res.trees]
        for k, vs in enumerate(claimed):
            found += 1
            assert len(vs) >= 2
            assert u.connected_within(vs)
            for v in vs:
                outs = g.out_neighbors(v)
                assert outs and all(w in vs for w in outs)
            for other in claimed[k + 1:]:
                assert not (vs & other)
    assert found >= 100


def test_greedy_tree_search_beyond_limit_is_flagged(monkeypatch):
    # five of the D1 triples: each {i, j, k} is a connecting tree
    arcs, senders = [], []
    for b in range(5):
        i, j, k = 3 * b + 1, 3 * b + 2, 3 * b + 3
        arcs += [[i, j], [j, i], [k, i]]
        senders += [[i, k], [j, k]]
    inst = make_instance(15, arcs, senders)
    res = find_connecting_trees(inst)
    assert not res.exact
    assert len(res.trees) == 5
    monkeypatch.setattr("uniprior.multi.EXACT_LIMIT", 15)
    exact = find_connecting_trees(inst)
    assert exact.exact
    assert [sorted(t.vertices) for t in exact.trees] \
        == [sorted(t.vertices) for t in res.trees]


def _paired_two_cycles(rng):
    """n=12: six disjoint 2-cycles, a pair sender per cycle, a few arcs
    across cycles and a few pair senders bridging them."""
    arcs = [[v, v + 1 if v % 2 else v - 1] for v in range(1, 13)]
    senders = [[v, v + 1] for v in range(1, 13, 2)]
    for _ in range(rng.randint(3, 6)):
        a, b = rng.sample(range(1, 13), 2)
        if (a + 1) // 2 != (b + 1) // 2 and [a, b] not in arcs:
            arcs.append([a, b])
    senders += [sorted(rng.sample(range(1, 13), 2)) for _ in range(rng.randint(1, 4))]
    return make_instance(12, arcs, senders)


def _fed_disconnected(rng, n_min=8, n_max=12):
    """A message-disconnected leaf SCC fed from the rest: no sender spans
    the halves 1..h and h+1..n, the 2-cycle 1 <-> n crosses them, and
    arcs from other vertices feed it, beside a triple 2 <-> 3, 4 -> 2
    (senders {2, 4}, {3, 4}) that roots a tree unless it feeds the SCC,
    and cyclic clusters on 5..n-1."""
    n = rng.randint(n_min, n_max)
    h = n // 2
    arcs = [[1, n], [n, 1], [2, 3], [3, 2], [4, 2]]
    arcs += cyclic_arcs(rng, range(5, n), rng.randint(0, n // 3))
    arcs += [[v, rng.choice((1, n))] for v in rng.sample(range(2, n), rng.randint(1, 3))]
    senders = rand_senders(rng, h) + [[m + h for m in s] for s in rand_senders(rng, n - h)]
    return make_instance(n, arcs, senders + [[2, 4], [3, 4]])


def _trees(res):
    return [(sorted(t.vertices), sorted(t.edges)) for t in res.trees], res.exact


def test_tree_search_matches_subset_enumeration():
    rng = random.Random(127)
    insts = [rand_cyclic(rng, n_max=12) for _ in range(120)]
    insts += [rand_multi(rng, n_max=12) for _ in range(120)]
    insts += [rand_triples(rng, t_max=4) for _ in range(60)]
    insts += [_paired_two_cycles(rng) for _ in range(60)]
    insts += [big_sender_clusters(rng) for _ in range(60)]  # n > 12: greedy
    insts += [_fed_disconnected(rng) for _ in range(60)]
    insts += [_fed_disconnected(rng, 13, 18) for _ in range(30)]  # greedy
    found = greedy = 0
    for inst in insts:
        res = find_connecting_trees(inst)
        assert _trees(res) == _trees(reference_find_connecting_trees(inst))
        found += len(res.trees)
        greedy += not res.exact
    assert found >= 100 and greedy == 90


def test_exact_tree_search_takes_unions_of_closures(monkeypatch):
    # leaf SCC {1, 2, 3, 4} (cycles 1<->2, 3<->4 joined by 2->3, 4->1) is
    # message-disconnected; 5->1 and 7->3 feed it, and only the union of
    # the closures of 5 and 7 is message-connected, through 6-8
    arcs = [[v, v + 1 if v % 2 else v - 1] for v in range(1, 13)]
    arcs += [[2, 3], [4, 1], [5, 1], [7, 3], [10, 11], [12, 9]]
    senders = [[v, v + 1] for v in range(1, 13, 2)] + [[1, 5], [3, 7], [6, 8]]
    inst = make_instance(12, arcs, senders)
    res = find_connecting_trees(inst)
    assert res.exact
    assert [sorted(t.vertices) for t in res.trees] == [list(range(1, 9))]
    assert _trees(res) == _trees(reference_find_connecting_trees(inst))
    monkeypatch.setattr("uniprior.multi.EXACT_LIMIT", 11)
    assert find_connecting_trees(inst).trees == ()


def test_spanning_tree_edges_match_sorted_kruskal():
    rng = random.Random(131)
    for _ in range(300):
        inst = rand_multi(rng, n_max=12, size_max=5)
        u = derive_message_graph(inst)
        vs = frozenset(rng.sample(range(1, inst.n + 1), rng.randint(1, inst.n)))
        assert _spanning_tree_edges(u, vs) == reference_spanning_tree_edges(u, vs)


def test_spanning_tree_edges_match_sorted_kruskal_under_wide_senders():
    # overlapping senders of up to n members, each read once per tree
    rng = random.Random(137)
    for _ in range(300):
        n = rng.randint(2, 14)
        u = derive_message_graph(make_instance(n, [], wide_senders(rng, n)))
        vs = frozenset(rng.sample(range(1, n + 1), rng.randint(1, n)))
        assert _spanning_tree_edges(u, vs) == reference_spanning_tree_edges(u, vs)


def test_bound_with_many_connected_leaf_sccs_under_one_big_sender():
    # 200 two-cycles, each a message-connected leaf SCC through its pair
    # sender, under one sender owning all 400 messages (79 800 edges);
    # the code takes one spanning tree per leaf SCC
    n = 400
    arcs = [[v, v + 1 if v % 2 else v - 1] for v in range(1, n + 1)]
    senders = [list(range(1, n + 1))] + [[v, v + 1] for v in range(1, n + 1, 2)]
    inst = make_instance(n, arcs, senders)
    t0 = time.perf_counter()
    rep = bound_multi(inst)
    elapsed = time.perf_counter() - t0
    assert rep.lower == rep.upper == n // 2
    assert [s.terms for s in rep.code.symbols] == [((v, 1), (v + 1, 1))
                                                   for v in range(1, n + 1, 2)]
    assert elapsed < 5, f"bound took {elapsed:.1f} s"


def test_bound_with_one_connected_leaf_scc_of_a_big_sender():
    # one cycle through all n messages, one sender owning them all: a
    # single message-connected leaf SCC, whose spanning tree reads the
    # sender once instead of each member's n - 1 neighbours
    n = 5000
    inst = make_instance(n, [[v, v % n + 1] for v in range(1, n + 1)], [list(range(1, n + 1))])
    t0 = time.perf_counter()
    rep = bound_multi(inst)
    elapsed = time.perf_counter() - t0
    assert rep.lower == rep.upper == n - 1
    assert [(s.sender, s.terms) for s in rep.code.symbols] == [(1, ((1, 1), (v, 1)))
                                                               for v in range(2, n + 1)]
    assert elapsed < 2, f"bound took {elapsed:.1f} s"


def test_encoder_output_always_verifies():
    rng = random.Random(103)
    for _ in range(250):
        inst = rand_multi(rng, n_max=8)
        g, u = graph_and_u(inst)
        trees = find_connecting_trees(inst).trees
        code = encode_multi(inst, trees)
        assert verify_linear(inst, code).valid
        mc = sum(1 for scc in leaf_scc_sets(g)
                 if classify_leaf_scc(g, u, scc).kind is Kind.MESSAGE_CONNECTED)
        assert len(code) == v_out(g) - mc - len(trees)


def test_smallest_owner_matches_owner_set_intersection():
    """The first common owner of ascending owner lists is the smallest
    sender that owns every given message, under overlapping and wide
    senders, and an unowned message or pair keeps its error."""
    rng = random.Random(104)
    unowned = 0
    for k in range(60):
        n = rng.randint(2, 9)
        inst = rand_multi(rng, n_max=n) if k % 2 else make_instance(n, [], wide_senders(rng, n))
        u = derive_message_graph(inst)
        vs = range(1, inst.n + 1)
        for ms in [(i,) for i in vs] + [(i, j) for i in vs for j in vs if i != j]:
            common = set.intersection(*({k for k, s in enumerate(inst.senders, 1) if m in s}
                                        for m in ms))
            if common:
                assert _smallest_owner(u, *ms) == min(common)
                continue
            unowned += 1
            error = re.escape(f"no sender owns messages {ms} together")
            with pytest.raises(ValueError, match=error):
                _smallest_owner(u, *ms)
    assert unowned


def test_encode_rejects_foreign_trees():
    from uniprior import ConnectingTree
    with pytest.raises(ValueError):
        encode_multi(D1, (ConnectingTree(vertices=frozenset({1, 3}),
                                         edges=frozenset({(1, 3)})),))
    # a valid vertex set whose edges are too few to connect it: the
    # one-symbol code this used to give fails verify_linear
    inst = make_instance(6, [[1, 2], [1, 4], [2, 1], [2, 4], [2, 5], [3, 2], [3, 5], [3, 6],
                             [4, 1], [4, 5], [5, 6], [6, 4]],
                         [[2, 3, 5], [1, 4, 6], [1, 3, 4]])
    [tree] = find_connecting_trees(inst).trees
    assert tree.vertices == frozenset(range(1, 7))
    assert verify_linear(inst, encode_multi(inst, (tree,))).valid
    # GAP's tree on {1, 2, 3, 4} with (1, 3) moved to (1, 5), a
    # message-graph edge leaving the set; with (2, 4) replaced by (3, 2),
    # which leaves 4 out; with (3, 2) added, one pair too many
    [gap_tree] = find_connecting_trees(GAP).trees
    assert gap_tree.edges == {(1, 3), (2, 3), (2, 4)}
    bad_trees = [(inst, tree._replace(edges=frozenset({(1, 3)})))]
    bad_trees += [(GAP, gap_tree._replace(edges=frozenset(edges)))
                  for edges in ({(1, 5), (2, 3), (2, 4)}, {(1, 3), (2, 3), (3, 2)},
                                {(1, 3), (2, 3), (2, 4), (3, 2)})]
    for inst, bad in bad_trees:
        with pytest.raises(ValueError, match="invalid connecting tree"):
            encode_multi(inst, (bad,))


def test_init_grounding_means_tight():
    rng = random.Random(107)
    hits = 0
    for _ in range(400):
        inst = rand_multi(rng, n_max=8)
        rep = bound_multi(inst)
        if rep.lower_report.iterations == 0:
            hits += 1
            lr = rep.lower_report
            assert rep.lower == rep.upper == \
                lr.v_out_original - lr.connected_count
            assert rep.tight
    assert hits >= 50


def test_disjoint_senders_always_tight():
    rng = random.Random(109)
    for _ in range(300):
        inst = rand_disjoint(rng, n_max=8)
        rep = bound_multi(inst)
        lr = rep.lower_report
        assert rep.lower == rep.upper == \
            lr.v_out_original - lr.connected_count
        assert rep.tight and rep.tight_reason is TightReason.DISJOINT_SENDERS


def test_sandwich_small():
    rng = random.Random(113)
    for _ in range(40):
        inst = rand_multi(rng, n_max=6)
        rep = bound_multi(inst, exhaustive=True)
        assert rep.exhaustive.exact
        oracle = oracle_min_linear(inst)
        assert oracle.exact
        assert rep.lower <= rep.exhaustive.bound <= oracle.length <= rep.upper


# binary instances of n 7-11 on which the exact exhaustive maximum is one
# below the linear optimum, which the pairwise code attains (GAP is the
# mirror case): arcs, senders, then lower, the exhaustive search's states,
# and the oracle's node budget (the n=11 one is inexact at the default)
BOUNDS_DIFFER = {
    "n11": (11, [[1, 2], [2, 1], [3, 11], [4, 7], [5, 3], [7, 8], [8, 1], [8, 4], [9, 8],
                 [9, 10], [10, 1], [10, 4], [10, 9], [11, 5]],
            [[2, 10], [1], [3, 6, 9], [4, 8, 11], [5, 7], [2, 6, 11], [1, 3, 9]],
            9, 10, 200_000),
    "n9": (9, [[1, 9], [2, 4], [3, 7], [4, 8], [5, 6], [6, 5], [7, 3], [8, 1], [8, 2], [8, 6],
               [9, 1]],
           [[7, 8], [1, 3, 6], [5], [4, 9], [2], [3, 9], [5, 9]],
           8, 32, 10_000),
    "n8": (8, [[1, 4], [2, 6], [3, 2], [4, 1], [5, 8], [6, 3], [6, 4], [7, 4], [8, 4], [8, 5]],
           [[1, 2, 5], [4], [3], [8], [6, 7], [4, 6, 7], [2, 4]],
           7, 1, 10_000),
    "n7": (7, [[1, 7], [2, 5], [3, 1], [4, 6], [5, 2], [5, 4], [6, 4], [7, 1], [7, 3]],
           [[1], [7], [3, 5, 6], [2, 4], [1, 3, 5], [1, 3, 4]],
           6, 10, 10_000),
}


@pytest.mark.parametrize("name", sorted(BOUNDS_DIFFER))
def test_where_the_bounds_differ(name):
    n, arcs, senders, lower, states, max_nodes = BOUNDS_DIFFER[name]
    inst = make_instance(n, arcs, senders)
    assert bound_multi(inst).lower == lower
    rep = bound_multi(inst, exhaustive=True)
    assert (rep.lower, rep.upper, rep.tight, rep.tight_reason) == (lower, lower + 1, False, None)
    assert rep.exhaustive == ExhaustiveResult(bound=lower, exact=True, states_visited=states)
    oracle = oracle_min_linear(inst, max_nodes=max_nodes)
    assert (oracle.length, oracle.exact) == (lower + 1, True)
    if max_nodes > 10_000:
        assert not oracle_min_linear(inst).exact


def _sweep(count):
    """The first count multi-sender binary instances of n 7-11 from
    random.Random(5): random arcs for every third draw, disjoint 2- and
    3-cycles plus a few arcs for the others; one-sender draws skipped."""
    rng = random.Random(5)
    insts = []
    for k in itertools.count():
        if len(insts) == count:
            return insts
        n = rng.randint(7, 11)
        if k % 3 == 0:
            arcs = rand_arcs(rng, n, rng.uniform(0.15, 0.45))
        else:
            arcs = cyclic_arcs(rng, range(1, n + 1), n // 4 + k % 3)
        senders = rand_senders(rng, n, size_max=rng.choice([2, 3, 4]))
        if len(senders) > 1:
            insts.append(make_instance(n, arcs, senders))


def test_sandwich_on_the_n7_11_sweep():
    # lower <= oracle <= upper and exhaustive <= oracle wherever the
    # oracle is exact at its default node budget, on a fixed prefix
    exact = 0
    for inst in _sweep(60):
        rep = bound_multi(inst, exhaustive=True)
        oracle = oracle_min_linear(inst)
        if oracle.exact:
            exact += 1
            assert rep.lower <= oracle.length <= rep.upper
            assert rep.exhaustive.bound <= oracle.length
    assert exact >= 45, exact
