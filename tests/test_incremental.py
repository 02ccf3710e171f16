"""Algorithm 2 carries its state from step to step: each graph takes its
leaf set and leaf cover from the graph it was stepped from,
the run keeps one class per leaf SCC, and the lookahead searches only
the leaf SCCs a candidate's prune touches.  These tests hold the result
to the algorithm that derives everything afresh after every step."""

from __future__ import annotations

import random

from uniprior import (WorkGraph, derive_message_graph, exhaustive_lower_bound, leaf_scc_sets,
                      leaf_vertices, run_algorithm2)
from uniprior.graph import leaf_cover
from uniprior.instance import Instance
from uniprior.multi import _rule_of_thumb_pick

from generators import cyclic_arcs, make_instance, rand_cyclic, rand_senders
from oracles import reference_run_algorithm2
from test_golden import _bench_scale_instances


def cyclic(n: int) -> Instance:
    """The cyclic-cluster family of the performance notes at n messages."""
    rng = random.Random(f"a2:{n}")
    return make_instance(n, cyclic_arcs(rng, range(1, n + 1), n // 10),
                         rand_senders(rng, n, size_max=6, extra=n // 8))


def _assert_like_reference(inst: Instance) -> int:
    """run_algorithm2 equals the reference run step for step, and the
    lookahead picks as the reference does on each state where the
    reference ran it; the number of picks compared."""
    picks: list = []
    ref = reference_run_algorithm2(inst, picks)
    got = run_algorithm2(Instance(inst.n, inst.q, inst.arcs, inst.senders))
    assert got.steps == ref.steps
    assert got.final_graph == ref.final_graph
    assert got == ref
    u = derive_message_graph(inst)
    for g, sccs, pick in picks:
        assert _rule_of_thumb_pick(g, u, tuple(sccs)) == pick
    return len(picks)


def test_algorithm2_matches_the_reference_on_cyclic_clusters():
    # n = 20, 40, ..., 300; the last is cyclic_300()
    picks = sum(_assert_like_reference(cyclic(n)) for n in range(20, 301, 20))
    assert picks >= 100, picks


def test_algorithm2_matches_the_reference_on_benchmark_shaped_instances():
    insts = list(_bench_scale_instances())
    rng = random.Random(83)
    insts += [rand_cyclic(rng, n_max=16, size_max=4) for _ in range(200)]
    picks = sum(_assert_like_reference(inst) for inst in insts)
    assert picks >= 40, picks


def _spy_children(monkeypatch) -> list:
    """Record every graph stepped from another, with whether its leaf set
    and leaf cover were handed over at the step."""
    made = []
    child = WorkGraph._child

    def spy(self, *args, **kwargs):
        g = child(self, *args, **kwargs)
        made.append((g, g._leaves is not None, g._cover is not None))
        return g

    monkeypatch.setattr(WorkGraph, "_child", spy)
    return made


def test_inherited_leaf_cover_matches_fresh_graphs(monkeypatch):
    # every Algorithm-2 state, each state's lookahead children (the prune
    # of each leaf SCC's smallest vertex) and every exhaustive-search state
    made = _spy_children(monkeypatch)
    rng = random.Random(89)
    insts = [rand_cyclic(rng, n_max=14, size_max=4) for _ in range(200)]
    insts += [cyclic(n) for n in (60, 120)]
    for inst in insts:
        start = len(made)
        run_algorithm2(inst)
        for g, _, _ in made[start:]:
            leaf_cover(g)
            for scc in leaf_scc_sets(g):
                g.without_out_arcs(min(scc))
        if inst.n <= 12:
            exhaustive_lower_bound(Instance(inst.n, inst.q, inst.arcs, inst.senders),
                                   max_states=100)
    inherited = {"leaves": 0, "cover": 0}
    for g, leaves, cover in made:
        fresh = WorkGraph(g.vertices, g.arcs, g.weight, g.dummies)
        assert leaf_vertices(g) == leaf_vertices(fresh)
        assert leaf_cover(g) == leaf_cover(fresh)
        inherited["leaves"] += leaves
        inherited["cover"] += cover
    assert min(inherited.values()) >= 2000, (len(made), inherited)
