"""WorkGraph, SCC partitioning, groundedness, predecessors."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from uniprior import (WorkGraph, leaf_scc_sets, leaf_vertices, predecessors, reach,
                      scc_partition, serialize_instance, v_out)
from uniprior import graph
from uniprior.cli import main

from generators import make_instance, rand_cyclic, rand_graph, rand_single
from oracles import (brute_is_grounded, brute_leaf_scc_sets,
                     brute_predecessors, brute_reach, brute_sccs,
                     reference_child_partition, reference_predecessor_weight_bound)

EX2_GRAPH = WorkGraph.from_instance(make_instance(
    5, [[2, 1], [3, 1], [1, 2], [3, 2], [1, 3], [2, 3], [4, 5]],
    [[1, 2, 3, 4, 5]], q=[1, 2, 2, 2, 2]))


def test_partition_on_example():
    p = scc_partition(EX2_GRAPH)
    assert [sorted(c) for c in p.components] == [[1, 2, 3], [4], [5]]
    assert p.leaf_flags == (True, False, False)
    assert p.leaf_components() == [frozenset({1, 2, 3})]
    assert leaf_scc_sets(EX2_GRAPH) == [frozenset({1, 2, 3})]
    assert leaf_vertices(EX2_GRAPH) == frozenset({5})
    assert not brute_is_grounded(EX2_GRAPH)
    assert v_out(EX2_GRAPH) == 4


def unit_graph(n, arcs):
    return WorkGraph(vertices=tuple(range(1, n + 1)),
                     arcs=frozenset(arcs), weight={v: 1 for v in range(1, n + 1)})


def test_small_shapes():
    cycle3 = unit_graph(3, [(1, 2), (2, 3), (3, 1)])
    p = scc_partition(cycle3)
    assert p.components == (frozenset({1, 2, 3}),)
    assert p.leaf_flags == (True,)

    chain = unit_graph(3, [(1, 2), (2, 3)])
    assert scc_partition(chain).leaf_flags == (False, False, False)
    assert brute_is_grounded(chain)
    assert predecessors(chain, 3) == frozenset({1, 2})
    assert reference_predecessor_weight_bound(chain) == 2

    two_cycle = unit_graph(2, [(1, 2), (2, 1)])
    assert leaf_vertices(two_cycle) == frozenset()
    assert not brute_is_grounded(two_cycle)
    assert predecessors(two_cycle, 1) == frozenset({1, 2})
    assert reference_predecessor_weight_bound(two_cycle) == 0

    isolated = unit_graph(1, [])
    assert leaf_vertices(isolated) == frozenset({1})
    assert brute_is_grounded(isolated)


def test_graph_rejects_bad_shapes():
    with pytest.raises(ValueError):
        WorkGraph(vertices=(1, 2), arcs=frozenset({(1, 1)}),
                  weight={1: 1, 2: 1})
    with pytest.raises(ValueError):
        WorkGraph(vertices=(1, 2), arcs=frozenset({(1, 3)}),
                  weight={1: 1, 2: 1})
    with pytest.raises(ValueError):  # dummy as arc source
        WorkGraph(vertices=(1, 2), arcs=frozenset({(2, 1)}),
                  weight={1: 1, 2: 0}, dummies=frozenset({2}))
    with pytest.raises(ValueError):  # dummy must have weight zero
        WorkGraph(vertices=(1, 2), arcs=frozenset({(1, 2)}),
                  weight={1: 1, 2: 3}, dummies=frozenset({2}))


def test_graph_rejects_repeated_vertices_and_stray_dummies():
    with pytest.raises(ValueError, match="vertex 1 repeated"):
        WorkGraph((2, 1, 1), {(1, 2), (2, 1)}, {1: 1, 2: 1})
    with pytest.raises(ValueError, match="dummy 5 is not a vertex"):
        WorkGraph((1, 2), {(1, 2)}, {1: 1, 2: 1}, dummies=(5,))
    with pytest.raises(ValueError, match="dummy 3 is not a vertex"):
        WorkGraph((1, 2, 4), {(1, 2)}, {1: 1, 2: 1, 4: 0}, dummies=(4, 3, 7))
    # graphs of instances have distinct vertices and no dummies
    rng = random.Random(5)
    for _ in range(50):
        inst = rand_single(rng, n_max=8, q_max=3)
        g = WorkGraph.from_instance(inst)
        assert g.vertices == tuple(range(1, inst.n + 1)) and g.dummies == frozenset()
        assert v_out(g) == len({i for i, _ in inst.arcs})


def test_dummies_count_nowhere():
    g, d = EX2_GRAPH.with_new_dummy(1)
    assert d == 6
    g2, d2 = g.with_new_dummy(2)
    assert d2 == 7
    assert v_out(g2) == v_out(EX2_GRAPH)
    assert d in leaf_vertices(g2) and d2 in leaf_vertices(g2)
    assert set(g2.real_vertices()) == set(EX2_GRAPH.vertices)


def test_partition_matches_brute_force():
    rng = random.Random(11)
    for _ in range(300):
        g = rand_graph(rng, rng.randint(1, 8))
        p = scc_partition(g)
        assert p.components == tuple(brute_sccs(g))
        assert leaf_scc_sets(g) == brute_leaf_scc_sets(g)
        # disjoint cover
        seen = [v for c in p.components for v in c]
        assert sorted(seen) == list(g.vertices)


def test_strong_components_match_brute_force():
    # the kernel on its own, from roots in any order: seeded graphs, their
    # children by every kind of step (dummies included), and the induced
    # adjacency of each SCC after a prune, as reference_child_partition
    # passes it
    rng = random.Random(17)
    checked = 0
    for _ in range(200):
        g = rand_graph(rng, rng.randint(1, 9))
        for _ in range(4):
            roots = list(g.vertices)
            rng.shuffle(roots)
            comps = graph._strong_components(g._out, g._in, roots)
            assert sorted(comps, key=min) == brute_sccs(g)
            for comp in brute_sccs(g):
                a = rng.choice(sorted(comp))
                sub = g.without_out_arcs(a)
                out = {v: tuple(w for w in sub.out_neighbors(v) if w in comp) for v in comp}
                inn = {v: tuple(w for w in sub._in[v] if w in comp) for v in comp}
                induced = WorkGraph(comp, [(v, w) for v in comp for w in out[v]],
                                    {v: 1 for v in comp})
                assert sorted(graph._strong_components(out, inn, sorted(comp)), key=min) == \
                    brute_sccs(induced)
                checked += 1
            cases = _step_cases(g)
            g = _apply(g, rng.choice(cases[rng.choice(sorted(cases))]))
    assert checked > 2000, checked


def test_strong_components_need_no_recursion():
    n = 20_000
    path_out = {v: (v + 1,) if v < n else () for v in range(1, n + 1)}
    path_in = {v: (v - 1,) if v > 1 else () for v in range(1, n + 1)}
    comps = graph._strong_components(path_out, path_in, range(1, n + 1))
    assert sorted(comps, key=min) == [frozenset((v,)) for v in range(1, n + 1)]
    cycle_out = {v: (v % n + 1,) for v in range(1, n + 1)}
    cycle_in = {v: ((v - 2) % n + 1,) for v in range(1, n + 1)}
    assert graph._strong_components(cycle_out, cycle_in, range(1, n + 1)) == \
        [frozenset(range(1, n + 1))]


def test_condensation_is_acyclic():
    rng = random.Random(13)
    for _ in range(200):
        g = rand_graph(rng, rng.randint(2, 8))
        p = scc_partition(g)
        comp_of = {v: k for k, c in enumerate(p.components) for v in c}
        edges = {(comp_of[a], comp_of[b])
                 for (a, b) in g.arcs if comp_of[a] != comp_of[b]}
        # sink peeling must consume every node, else there is a cycle
        nodes = set(range(len(p.components)))
        while True:
            sinks = {x for x in nodes
                     if not any(a == x and b in nodes for (a, b) in edges)}
            if not sinks:
                break
            nodes -= sinks
        assert not nodes


def test_grounded_iff_no_leaf_scc():
    rng = random.Random(17)
    for _ in range(1000):
        g = rand_graph(rng, rng.randint(1, 10))
        assert (not leaf_scc_sets(g)) == brute_is_grounded(g)


def test_predecessors_match_brute_force():
    rng = random.Random(19)
    for _ in range(200):
        g = rand_graph(rng, rng.randint(1, 7))
        for v in g.vertices:
            assert predecessors(g, v) == frozenset(brute_predecessors(g, v))


def test_reach_matches_brute_force():
    rng = random.Random(20)
    for _ in range(200):
        g = rand_graph(rng, rng.randint(1, 7))
        expected = brute_reach(g)
        for v in g.vertices:
            assert reach(g, v) == frozenset(expected[v])
    with pytest.raises(ValueError):
        reach(g, 99)


def test_predecessors_self_only_on_cycle():
    g = WorkGraph(vertices=(1, 2, 3), arcs=frozenset({(1, 2), (2, 1), (3, 1)}),
                  weight={1: 1, 2: 1, 3: 1})
    assert predecessors(g, 1) == frozenset({1, 2, 3})
    assert predecessors(g, 2) == frozenset({1, 2, 3})
    assert predecessors(g, 3) == frozenset()


def test_predecessors_transitive():
    rng = random.Random(23)
    for _ in range(100):
        g = rand_graph(rng, rng.randint(2, 7))
        pred = {v: predecessors(g, v) for v in g.vertices}
        for w in g.vertices:
            for v in pred[w]:
                assert pred[v] <= pred[w] | {v}
                for u in pred[v]:
                    assert u in pred[w]


def test_arc_removal_shrinks_predecessors():
    rng = random.Random(29)
    for _ in range(150):
        g = rand_graph(rng, rng.randint(2, 7))
        if not g.arcs:
            continue
        drop = rng.choice(sorted(g.arcs))
        g2 = WorkGraph(g.vertices, g.arcs - {drop}, g.weight)
        for v in g.vertices:
            assert predecessors(g2, v) <= predecessors(g, v)


def test_predecessor_weight_bound_example():
    # prune vertex 1's out-arcs; the remaining predecessors of leaves
    # weigh 2+2+2
    g = EX2_GRAPH.without_out_arcs(1)
    assert reference_predecessor_weight_bound(g) == 6


def test_without_out_arcs_and_with_arc():
    g = EX2_GRAPH.without_out_arcs(1)
    assert g.out_neighbors(1) == ()
    assert (2, 1) in g.arcs
    g2 = g.with_arc(1, 2)
    assert (1, 2) in g2.arcs


def _answers(g):
    return (scc_partition(g), leaf_scc_sets(g), leaf_vertices(g),
            {v: predecessors(g, v) for v in g.vertices})


def test_derived_graphs_answer_like_fresh_ones():
    # queries fill a graph's caches; a graph derived from it must answer
    # from its own arcs, exactly as a freshly built graph and the brute
    # force do
    rng = random.Random(37)
    checked = 0
    for _ in range(150):
        g = rand_graph(rng, rng.randint(2, 8))
        before = _answers(g)
        v = rng.choice(g.vertices)
        i, j = rng.sample(g.vertices, 2)
        derived = [g.without_out_arcs(v), g.with_arc(i, j), g.with_new_dummy(v)[0]]
        for g2 in derived:
            fresh = WorkGraph(g2.vertices, g2.arcs, g2.weight, g2.dummies)
            assert _answers(g2) == _answers(fresh)
            assert _answers(g2) == _answers(g2)
            assert list(scc_partition(g2).components) == brute_sccs(g2)
            assert leaf_scc_sets(g2) == brute_leaf_scc_sets(g2)
            assert leaf_vertices(g2) == frozenset(
                w for w in g2.vertices if not g2.out_neighbors(w))
            for w in g2.vertices:
                assert predecessors(g2, w) == frozenset(brute_predecessors(g2, w))
            checked += 1
        assert _answers(g) == before
        assert _answers(g) == _answers(WorkGraph(g.vertices, g.arcs, g.weight))
    assert checked == 450


def test_leaf_scc_sets_returns_a_new_list():
    g = EX2_GRAPH.without_out_arcs(4)
    leaf_scc_sets(g).append(frozenset({4}))
    assert leaf_scc_sets(g) == [frozenset({1, 2, 3})]


def _step_cases(g):
    """Every derivation step of g by the case it exercises, found by brute
    force so that g's own caches stay untouched."""
    sccs = brute_sccs(g)
    comp = {v: c for c in sccs for v in c}
    leaf_scc_vertices = {v for c in brute_leaf_scc_sets(g) for v in c}
    fwd = brute_reach(g)
    sources = [v for v in g.vertices if v not in g.dummies]
    cases = {"arc-duplicate": [], "arc-inside": [], "arc-merging": [],
             "arc-non-merging": []}
    for i in sources:
        for j in g.vertices:
            if i == j:
                continue
            if (i, j) in g.arcs:
                cases["arc-duplicate"].append(("arc", i, j))
            elif j in comp[i]:
                cases["arc-inside"].append(("arc", i, j))
            elif i in fwd[j]:
                cases["arc-merging"].append(("arc", i, j))
            else:
                cases["arc-non-merging"].append(("arc", i, j))
    cases["prune-leaf-scc"] = [("prune", v) for v in sorted(leaf_scc_vertices)]
    cases["prune-non-leaf"] = [("prune", v) for v in g.vertices
                               if g.out_neighbors(v) and v not in leaf_scc_vertices]
    cases["prune-arcless"] = [("prune", v) for v in g.vertices if not g.out_neighbors(v)]
    cases["dummy"] = [("dummy", v) for v in sources]
    return {case: steps for case, steps in cases.items() if steps}


def _apply(g, step):
    if step[0] == "arc":
        return g.with_arc(step[1], step[2])
    if step[0] == "prune":
        return g.without_out_arcs(step[1])
    return g.with_new_dummy(step[1])[0]


def _stepped_arcs(g, step):
    """g's arcs after step, read from g's arcs."""
    if step[0] == "arc":
        return g.arcs | {step[1:]}
    if step[0] == "prune":
        return frozenset(arc for arc in g.arcs if arc[0] != step[1])
    return g.arcs | {(step[1], max(g.vertices) + 1)}


def _assert_like_fresh(g):
    fresh = WorkGraph(g.vertices, g.arcs, g.weight, g.dummies)
    assert g == fresh
    assert scc_partition(g) == scc_partition(fresh)
    assert leaf_scc_sets(g) == leaf_scc_sets(fresh)
    assert leaf_vertices(g) == leaf_vertices(fresh)
    for v in g.vertices:
        assert g.out_neighbors(v) == fresh.out_neighbors(v)
        assert g._in[v] == fresh._in[v]
        assert predecessors(g, v) == predecessors(fresh, v)
        assert reach(g, v) == reach(fresh, v)


def test_derivation_chains_answer_like_fresh_graphs():
    # 240 chains of 10 random steps; each step's parent has its partition
    # computed (the child inherits it) or is a fresh copy (the child runs
    # the SCC pass), and the child is queried before or after its parent
    rng = random.Random(41)
    seen: Counter = Counter()
    inherited: Counter = Counter()
    for _ in range(240):
        g = rand_graph(rng, rng.randint(2, 9))
        for _ in range(10):
            if rng.random() < 0.3:
                g = WorkGraph(g.vertices, g.arcs, g.weight, g.dummies)
            cases = _step_cases(g)
            case = rng.choice(sorted(cases))
            step = rng.choice(cases[case])
            child = _apply(g, step)
            seen[case] += 1
            inherited[case] += child._leaf_sets is not None  # set at the step
            assert child.arcs == _stepped_arcs(g, step)
            assert child == WorkGraph(child.vertices, _stepped_arcs(g, step), child.weight,
                                      child.dummies)
            for h in ((child, g) if rng.random() < 0.5 else (g, child)):
                _assert_like_fresh(h)
            g = child
    assert set(seen) == {"arc-duplicate", "arc-inside", "arc-merging", "arc-non-merging",
                         "prune-leaf-scc", "prune-non-leaf", "prune-arcless", "dummy"}
    assert min(inherited.values()) >= 25, inherited


def _chain_cases(g):
    """_step_cases with finer cases, by brute force: an arc inside a leaf
    or a non-leaf SCC, a merging arc whose merged SCC is a leaf or not,
    and a dummy under a leaf-SCC vertex or another one."""
    leaf = {v for c in brute_leaf_scc_sets(g) for v in c}
    fwd = brute_reach(g)
    cases: dict[str, list] = {}
    for case, steps in _step_cases(g).items():
        for step in steps:
            a, fine = step[1], case
            if case == "arc-inside":
                fine = "arc-inside-leaf" if a in leaf else "arc-inside-non-leaf"
            elif case == "arc-merging":
                # the child's SCC of a: a, and what b reaches that reaches a
                b = step[2]
                merged = {a} | {v for v in fwd[b] | {b} if a in fwd[v]}
                closed = all(w in merged for v in merged for w in g.out_neighbors(v))
                fine = "arc-merging-leaf" if closed else "arc-merging"
            elif case == "dummy":
                fine = "dummy-leaf-scc" if a in leaf else "dummy-other"
            cases.setdefault(fine, []).append(step)
    return cases


def _recorded_step(g, step):
    """step as the reference partition update takes it: None when the
    child equals g, a dummy with its new vertex."""
    if step[0] == "arc":
        return None if step[1:] in g.arcs else step
    if step[0] == "prune":
        return step if g.out_neighbors(step[1]) else None
    return step + (max(g.vertices) + 1,)


def test_inherited_leaf_sccs_match_brute_force_and_reference_partition():
    # seeded chains of prunes, arcs and dummies: each child derives its
    # leaf SCCs from its parent's, while the reference carries the full
    # partition along the same chain
    rng = random.Random(43)
    seen: Counter = Counter()
    for _ in range(400):
        g = rand_graph(rng, rng.randint(2, 9))
        part = scc_partition(g)
        assert leaf_scc_sets(g) == part.leaf_components() == brute_leaf_scc_sets(g)
        for _ in range(12):
            cases = _chain_cases(g)
            case = rng.choice(sorted(cases))
            step = rng.choice(cases[case])
            child = _apply(g, step)
            assert child._leaf_sets is not None  # set at the step, from g's
            assert child.arcs == _stepped_arcs(g, step)
            part = reference_child_partition(child, part, _recorded_step(g, step))
            assert list(part.components) == brute_sccs(child)
            leafs = leaf_scc_sets(child)
            assert leafs == brute_leaf_scc_sets(child) == part.leaf_components()
            if case == "arc-merging-leaf":
                # a non-leaf SCC merged into a new leaf SCC
                assert any(step[1] in c and step[2] in c for c in leafs)
            seen[case] += 1
            g = child
    assert set(seen) == {"arc-duplicate", "arc-inside-leaf", "arc-inside-non-leaf",
                         "arc-merging", "arc-merging-leaf", "arc-non-merging",
                         "prune-leaf-scc", "prune-non-leaf", "prune-arcless",
                         "dummy-leaf-scc", "dummy-other"}
    assert min(seen.values()) >= 50, seen


def test_stepped_leaf_sccs_match_the_built_child():
    # every step case, on seeded chains: the leaf SCCs read from the
    # parent's, with no child built, are those of the built child
    rng = random.Random(53)
    seen: Counter = Counter()
    for _ in range(300):
        g = rand_graph(rng, rng.randint(2, 9))
        for _ in range(6):
            cases = _chain_cases(g)
            for case in sorted(cases):
                step = rng.choice(cases[case])
                child = _apply(WorkGraph(g.vertices, g.arcs, g.weight, g.dummies), step)
                assert child._leaf_sets is None  # the fresh parent's were unknown
                assert list(graph._stepped_leaf_sccs(g, *step[1:])) == \
                    brute_leaf_scc_sets(child)
                seen[case] += 1
            g = _apply(g, rng.choice(cases[rng.choice(sorted(cases))]))
    assert set(seen) == {"arc-duplicate", "arc-inside-leaf", "arc-inside-non-leaf",
                         "arc-merging", "arc-merging-leaf", "arc-non-merging",
                         "prune-leaf-scc", "prune-non-leaf", "prune-arcless",
                         "dummy-leaf-scc", "dummy-other"}
    assert min(seen.values()) >= 100, seen


def test_cli_runs_tarjan_once_per_root_graph(tmp_path, monkeypatch, capsys):
    # bound, bound --exhaustive and solve build one graph from the instance
    # and derive every other graph state from it: the SCC pass runs once,
    # on the built graph's adjacency, and never on a derived graph
    built, runs, derived = [], [], []
    init, tarjan, child = WorkGraph.__init__, graph._strong_components, WorkGraph._child

    def counted_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    def counted_tarjan(out, inn, roots):
        runs.append(out)
        return tarjan(out, inn, roots)

    def counted_child(self, *args, **kwargs):
        derived.append(self)
        return child(self, *args, **kwargs)

    monkeypatch.setattr(WorkGraph, "__init__", counted_init)
    monkeypatch.setattr(WorkGraph, "_child", counted_child)
    monkeypatch.setattr(graph, "_strong_components", counted_tarjan)
    rng = random.Random(47)
    path = tmp_path / "inst.json"
    children = 0
    for _ in range(120):
        multi, single = rand_cyclic(rng, n_max=10), rand_single(rng, n_max=8, q_max=3)
        for inst, commands in [(multi, (["bound"], ["bound", "--exhaustive"])),
                               (single, (["solve"],))]:
            path.write_text(serialize_instance(inst))
            for command in commands:
                for log in (built, runs, derived):
                    log.clear()
                assert main([command[0], str(path), *command[1:]]) in (0, 3)
                assert len(built) == 1
                assert [id(out) for out in runs] == [id(built[0]._out)]
                children += len(derived)
    capsys.readouterr()
    assert children > 500, children


def test_incremental_steps_raise_the_constructors_errors():
    g, d = unit_graph(3, [(1, 2), (2, 3)]).with_new_dummy(3)
    new = d + 1

    def constructor_error(vertices, arc, weight, dummies):
        with pytest.raises(ValueError) as e:
            WorkGraph(vertices, g.arcs | {arc}, weight, dummies)
        return str(e.value)

    for (i, j) in [(1, 1), (1, 9), (9, 1), (d, 1)]:
        with pytest.raises(ValueError) as e:
            g.with_arc(i, j)
        assert str(e.value) == constructor_error(g.vertices, (i, j), g.weight, g.dummies)
    for source in [new, 9, d]:
        with pytest.raises(ValueError) as e:
            g.with_new_dummy(source)
        assert str(e.value) == constructor_error(g.vertices + (new,), (source, new),
                                                 {**g.weight, new: 0}, g.dummies | {new})
    # the messages name the three faults
    assert [constructor_error(g.vertices, arc, g.weight, g.dummies)
            for arc in [(1, 1), (1, 9), (d, 1)]] == [
        "self-arc (1, 1)", "arc (1, 9) endpoint not a vertex",
        f"dummy vertex {d} cannot source an arc"]
