"""Leaf SCC classification and degeneracy witnesses."""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from uniprior import (DegeneracyWitness, Kind, StepKind, WorkGraph, classify_leaf_scc,
                      derive_message_graph, find_degeneracy_witness,
                      leaf_scc_sets, run_algorithm2)
from uniprior.classify import message_class, witness_options
from uniprior.multi import _apply, _graphs, _steps

from generators import make_instance, rand_cyclic
from oracles import (brute_witness_exists, reference_check_witness, reference_components,
                     reference_connected_within, reference_witness_options)
from test_golden import FAMILIES

D1 = make_instance(3, [[1, 2], [2, 1], [3, 1]], [[1, 3], [2, 3]])
SPLIT = make_instance(4, [[1, 3], [4, 2], [1, 2], [2, 1], [3, 4], [4, 3]],
                   [[1, 2], [3, 4]])
GAP = make_instance(6, [[1, 2], [2, 1], [3, 4], [4, 3], [5, 6], [6, 5]],
                   [[1, 3, 5], [2, 3, 5], [2, 4, 5], [2, 4, 6]])
ORDER = make_instance(6, [[1, 2], [2, 1], [3, 4], [4, 3], [5, 6], [6, 5]],
                     [[1, 2], [1, 3], [2, 3], [1, 4], [2, 4], [3, 5], [3, 6],
                      [4, 5], [4, 6]])


def graph_and_u(inst):
    return WorkGraph.from_instance(inst), derive_message_graph(inst)


def test_two_cycle_message_connected():
    inst = make_instance(2, [[1, 2], [2, 1]], [[1, 2]])
    g, u = graph_and_u(inst)
    c = classify_leaf_scc(g, u, frozenset({1, 2}))
    assert c.kind is Kind.MESSAGE_CONNECTED
    assert c.disconnected_pair is None and c.degeneracy is None


def test_split_four_cycle_disconnected():
    g, u = graph_and_u(SPLIT)
    c = classify_leaf_scc(g, u, frozenset({1, 2, 3, 4}))
    assert c.kind is Kind.MESSAGE_DISCONNECTED
    assert c.disconnected_pair == (1, 3)


def test_gap_two_cycle_non_degenerated():
    g, u = graph_and_u(GAP)
    c = classify_leaf_scc(g, u, frozenset({1, 2}))
    assert c.kind is Kind.NON_DEGENERATED
    assert find_degeneracy_witness(g, u, frozenset({1, 2})) is None


def test_gap_after_prune_gains_witness():
    g, u = graph_and_u(GAP)
    g2 = next(_apply(g, k, v) for k, v in _steps(g, u, frozenset({3, 4})) if v == 3)
    w = find_degeneracy_witness(g2, u, frozenset({1, 2}))
    assert w == DegeneracyWitness(s_inside=frozenset({1}),
                                  s_outside=frozenset({3, 5}),
                                  v_inside=1, target=5)
    assert reference_check_witness(g2, u, frozenset({1, 2}), w)


def test_d1_witness():
    g, u = graph_and_u(D1)
    c = classify_leaf_scc(g, u, frozenset({1, 2}))
    assert c.kind is Kind.DEGENERATED
    assert c.degeneracy == DegeneracyWitness(s_inside=frozenset({1}),
                                             s_outside=frozenset({3}),
                                             v_inside=1, target=3)


def test_order_instance_initial_kinds():
    g, u = graph_and_u(ORDER)
    kinds = {tuple(sorted(scc)): classify_leaf_scc(g, u, scc).kind
             for scc in leaf_scc_sets(g)}
    assert kinds == {(1, 2): Kind.MESSAGE_CONNECTED,
                     (3, 4): Kind.NON_DEGENERATED,
                     (5, 6): Kind.DEGENERATED}
    w = classify_leaf_scc(g, u, frozenset({5, 6})).degeneracy
    assert w.s_inside == frozenset({5}) and w.s_outside == frozenset({3})


def test_classify_requires_leaf_scc():
    g, u = graph_and_u(D1)
    with pytest.raises(ValueError):
        classify_leaf_scc(g, u, frozenset({1, 3}))
    with pytest.raises(ValueError):
        classify_leaf_scc(g, u, frozenset({3}))


def test_witness_checker_rejects_edited_witnesses():
    g, u = graph_and_u(D1)
    good = find_degeneracy_witness(g, u, frozenset({1, 2}))
    assert reference_check_witness(g, u, frozenset({1, 2}), good)
    bad = DegeneracyWitness(s_inside=frozenset({1}), s_outside=frozenset({3}),
                            v_inside=1, target=1)  # target must sit outside
    assert not reference_check_witness(g, u, frozenset({1, 2}), bad)


def classified_sccs(rng, rounds, n_max=7):
    for _ in range(rounds):
        inst = rand_cyclic(rng, n_max=n_max)
        g, u = graph_and_u(inst)
        for scc in leaf_scc_sets(g):
            yield inst, g, u, scc, classify_leaf_scc(g, u, scc)


def test_partition_into_exactly_one_kind():
    rng = random.Random(67)
    seen = 0
    for _, g, u, scc, c in classified_sccs(rng, 300):
        seen += 1
        if c.kind is Kind.MESSAGE_CONNECTED:
            assert u.connected_within(scc)
            assert c.disconnected_pair is None and c.degeneracy is None
        elif c.kind is Kind.MESSAGE_DISCONNECTED:
            a, b = c.disconnected_pair
            comps = u.components()
            ca = next(k for k, comp in enumerate(comps) if a in comp)
            cb = next(k for k, comp in enumerate(comps) if b in comp)
            assert ca != cb
        elif c.kind is Kind.DEGENERATED:
            assert not u.connected_within(scc)
            assert reference_check_witness(g, u, scc, c.degeneracy)
        else:
            assert c.kind is Kind.NON_DEGENERATED
            assert find_degeneracy_witness(g, u, scc) is None
    assert seen >= 400  # the generator must actually feed leaf SCCs


def test_witness_search_complete_against_brute_force():
    rng = random.Random(71)
    checked = 0
    for _, g, u, scc, c in classified_sccs(rng, 800):
        if c.kind in (Kind.MESSAGE_CONNECTED, Kind.MESSAGE_DISCONNECTED):
            continue
        checked += 1
        found = find_degeneracy_witness(g, u, scc) is not None
        assert found == brute_witness_exists(g, u, scc)
    assert checked >= 100


def test_step_keeps_other_kinds_stable():
    # applying one step can flip NonDegenerated to Degenerated, nothing else
    rng = random.Random(73)
    examined = 0
    for inst, g, u, scc, c in classified_sccs(rng, 250):
        others = {frozenset(s): classify_leaf_scc(g, u, s).kind
                  for s in leaf_scc_sets(g) if s != scc}
        if not others:
            continue
        g2 = _apply(g, *next(_steps(g, u, scc)))
        examined += 1
        for s, old_kind in others.items():
            if s not in set(leaf_scc_sets(g2)):
                continue  # absorbed into an enlarged SCC
            new_kind = classify_leaf_scc(g2, u, s).kind
            if old_kind is Kind.NON_DEGENERATED:
                assert new_kind in (Kind.NON_DEGENERATED, Kind.DEGENERATED)
            else:
                assert new_kind is old_kind
    assert examined >= 150


def _algorithm2_states(inst):
    """Every graph state of run_algorithm2 on inst, replayed from its step
    trace; each state is queried before the next is derived from it, as
    in the algorithm, so the states inherit their SCC partitions."""
    lr = run_algorithm2(inst)
    g = WorkGraph.from_instance(inst)
    states = [g]
    for st in lr.steps:
        leaf_scc_sets(g)
        if st.kind is StepKind.APPEND_DISCONNECTED:
            g, _ = g.with_new_dummy(st.added_arc[0])
        elif st.kind is StepKind.APPEND_DEGENERATED:
            g = g.with_arc(*st.added_arc)
        else:
            g = g.without_out_arcs(st.selected_vertex)
        states.append(g)
    assert g == lr.final_graph
    return states


def _state_instances():
    instances = []
    for family, (make, count) in sorted(FAMILIES.items()):
        rng = random.Random(f"golden:{family}")
        instances += [make(rng) for _ in range(count)]
    rng = random.Random(79)
    instances += [rand_cyclic(rng, n_max=16, size_max=4) for _ in range(200)]
    return instances


def _searched_graphs(inst):
    """Every state of run_algorithm2 on inst, and each state with one
    leaf SCC pruned (the graphs the rule-of-thumb lookahead searches)."""
    for g in _algorithm2_states(inst):
        sccs = leaf_scc_sets(g)
        yield from [g] + [g.without_out_arcs(min(scc)) for scc in sccs]


def test_message_class_memo_matches_reference_on_algorithm2_states():
    # the memo that Algorithm 2 filled on the instance's message graph,
    # against edge-scan components of a freshly derived one
    counts = dict.fromkeys(Kind, 0)
    for inst in _state_instances():
        graphs = list(_searched_graphs(inst))
        u = _graphs(inst)[1]
        fresh = derive_message_graph(inst)
        comps = reference_components(fresh)
        comp_of = {v: k for k, comp in enumerate(comps) for v in comp}
        for h in graphs:
            for scc in leaf_scc_sets(h):
                cls = message_class(u, scc)[0]
                if reference_connected_within(fresh, scc):
                    assert cls.kind is Kind.MESSAGE_CONNECTED and cls.disconnected_pair is None
                    counts[cls.kind] += 1
                    continue
                pair = next(((a, b) for a, b in combinations(sorted(scc), 2)
                             if comp_of[a] != comp_of[b]), None)
                if pair is None:
                    assert cls is None  # semi: the witness search decides
                    counts[classify_leaf_scc(h, u, scc).kind] += 1
                else:
                    assert cls.kind is Kind.MESSAGE_DISCONNECTED
                    assert cls.disconnected_pair == pair
                    counts[cls.kind] += 1
    assert min(counts.values()) >= 1000, counts


def test_witness_options_match_reference_on_algorithm2_states():
    # every leaf SCC of every state, and of each state with one leaf SCC
    # pruned
    searched = found = 0
    for inst in _state_instances():
        u = derive_message_graph(inst)
        for h in _searched_graphs(inst):
            for scc in leaf_scc_sets(h):
                options = list(witness_options(h, u, scc))
                assert options == list(reference_witness_options(h, u, scc))
                searched += 1
                found += bool(options)
    assert searched >= 5000 and found >= 1000, (searched, found)
